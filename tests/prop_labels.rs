//! Differential verification of the label compiler: for every role, the
//! bitset-filtered scan must equal the materialized secure view of
//! `grdf::security::views::secure_view` — on every lint-corpus graph, on
//! the §7.1 three-role incident scenario (where the GeoXACML
//! object-level contrast must also reproduce), and on seeded random
//! policy sets over random OWL schemas. The view G-SACS serves
//! (`LabelIr::role_view`) must match the reference's statistics too, and
//! its degraded form must equal `conservative_view` over un-inferred
//! graphs.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use grdf::feature::{encode_feature, Feature};
use grdf::owl::reasoner::Reasoner;
use grdf::rdf::term::Term;
use grdf::rdf::vocab::{grdf as ns, rdfs};
use grdf::rdf::Graph;
use grdf::security::labels::{LabelIr, RoleHierarchy};
use grdf::security::policy::{Policy, PolicySet};
use grdf::security::views::{conservative_view, secure_view, view_property_count};
use grdf::workload::incident::{incident_store, roles, scenario_policies, xacml_policies};

const TYPES: &[&str] = &["ChemSite", "Stream", "ChemInfo", "Depot"];
const PROPS: &[&str] = &[
    "hasSiteName",
    "hasChemCode",
    "hasContactPhone",
    "hasObjectID",
];

/// Every role's label-filtered view must equal its effective secure view,
/// and the served view and its statistics the reference's.
fn assert_equivalent(data: &Graph, policies: &PolicySet, context: &str) {
    let ir = LabelIr::compile(data, policies);
    let divergences = ir.verify_label_equivalence(data, policies);
    assert!(
        divergences.is_empty(),
        "{context}: {} divergence(s), first: {}",
        divergences.len(),
        divergences[0]
    );
    for role in &ir.roles {
        let (view, stats, _) = ir.role_view(data, role, false);
        let reference = secure_view(data, &ir.effective_policy_set(policies, role), role);
        assert_eq!((view, stats), reference, "{context}: role {role}");
    }
}

/// Degraded serving over the un-inferred `data`: every role's served view
/// and statistics must equal `conservative_view` over its effective
/// policy set.
fn assert_conservative_equivalent(data: &Graph, policies: &PolicySet, context: &str) {
    let ir = LabelIr::compile(data, policies);
    for role in &ir.roles {
        let (view, stats, trace) = ir.role_view(data, role, true);
        let reference = conservative_view(data, &ir.effective_policy_set(policies, role), role);
        assert_eq!((view, stats), reference, "{context}: degraded role {role}");
        assert!(trace.degraded);
    }
}

#[test]
fn label_equivalence_holds_on_every_corpus_graph() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_corpus");
    let mut checked = 0;
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("corpus dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ttl"))
        .collect();
    paths.sort();
    for path in paths {
        if path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().ends_with(".policies.ttl"))
        {
            continue;
        }
        let src = fs::read_to_string(&path).expect("fixture readable");
        let graph = grdf::rdf::turtle::parse(&src).expect("fixture parses");
        let mut policies = Policy::decode_all(&graph);
        let sidecar = path.with_extension("policies.ttl");
        if sidecar.exists() {
            let pg = grdf::rdf::turtle::parse(&fs::read_to_string(&sidecar).expect("sidecar"))
                .expect("sidecar parses");
            policies.extend(Policy::decode_all(&pg));
        }
        if policies.is_empty() {
            continue;
        }
        let policies = PolicySet::new(policies);
        let context = path.display().to_string();
        assert_equivalent(&graph, &policies, &context);
        assert_conservative_equivalent(&graph, &policies, &context);
        checked += 1;
    }
    assert!(checked >= 8, "corpus supplies enough policy-bearing graphs");
}

#[test]
fn scenario_three_roles_equivalent_with_geoxacml_contrast() {
    let mut store = incident_store(20, 20, 7);
    let ps = scenario_policies();
    assert_conservative_equivalent(store.graph(), &ps, "un-inferred scenario");
    store.materialize();
    let ir = LabelIr::compile(store.graph(), &ps);
    let divergences = ir.verify_label_equivalence(store.graph(), &ps);
    assert!(divergences.is_empty(), "{divergences:?}");

    // Fine-grained labels: 'main repair' sees extents but no chemistry…
    let chem_prop = ns::app("hasChemicalInfo");
    let mr = ir.filtered_view(store.graph(), &ir.authorizations(&roles::main_repair()));
    assert_eq!(view_property_count(&mr, &chem_prop), 0);
    assert!(view_property_count(&mr, &ns::iri("isBoundedBy")) > 0);

    // …while the object-level (GeoXACML-granularity) encoding of the same
    // intent must over-grant: whole ChemSites including the chemical link.
    let (xacml_view, _) = xacml_policies().view(store.graph(), &roles::main_repair());
    assert!(view_property_count(&xacml_view, &chem_prop) > 0);

    // Privilege ordering across the three roles.
    let count = |role: &str| {
        ir.filtered_view(store.graph(), &ir.authorizations(role))
            .len()
    };
    let (mr, hz, em) = (
        count(&roles::main_repair()),
        count(&roles::hazmat()),
        count(&roles::emergency()),
    );
    assert!(
        mr < hz && hz <= em,
        "expected MainRep < Hazmat <= Emergency, got {mr}/{hz}/{em}"
    );
}

/// A random instance dataset over the small type/property universe.
fn arb_dataset() -> impl Strategy<Value = Graph> {
    prop::collection::vec(
        (
            0..TYPES.len(),
            prop::collection::vec((0..PROPS.len(), "[a-z]{1,6}"), 0..4),
        ),
        1..10,
    )
    .prop_map(|features| {
        let mut g = Graph::new();
        for (i, (ty, props)) in features.into_iter().enumerate() {
            let mut f = Feature::new(&ns::app(&format!("x{i}")), TYPES[ty]);
            for (p, v) in props {
                f.set_property(PROPS[p], v.as_str());
            }
            encode_feature(&mut g, &f);
        }
        g
    })
}

/// A random OWL schema fragment: subclass edges over the type universe
/// and subproperty edges over the property universe.
fn arb_schema() -> impl Strategy<Value = Vec<(usize, usize, bool)>> {
    prop::collection::vec((0..TYPES.len(), 0..TYPES.len(), prop::bool::ANY), 0..4)
}

/// A random policy list for one role over the universe.
fn arb_role_policies(tag: usize) -> impl Strategy<Value = Vec<(usize, Option<Vec<usize>>, bool)>> {
    let _ = tag;
    prop::collection::vec(
        (
            0..TYPES.len(),
            prop::option::of(prop::collection::vec(0..PROPS.len(), 1..3)),
            prop::bool::ANY,
        ),
        0..5,
    )
}

fn build_policies(
    role: &str,
    tag: usize,
    rules: &[(usize, Option<Vec<usize>>, bool)],
) -> Vec<Policy> {
    rules
        .iter()
        .enumerate()
        .map(|(i, (ty, props, deny))| {
            let id = format!("urn:policy#{tag}-{i}");
            if *deny {
                Policy::deny(&id, role, &ns::app(TYPES[*ty]))
            } else {
                match props {
                    None => Policy::permit(&id, role, &ns::app(TYPES[*ty])),
                    Some(ps) => {
                        let names: Vec<String> = ps.iter().map(|p| ns::app(PROPS[*p])).collect();
                        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                        Policy::permit_properties(&id, role, &ns::app(TYPES[*ty]), &refs)
                    }
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// ≥100 seeded cases: random data, random schema axioms, random
    /// two-role policy sets, random role-hierarchy edge — the compiled
    /// labels must always reproduce the secure views exactly.
    #[test]
    fn label_filter_equals_secure_view(
        data in arb_dataset(),
        schema in arb_schema(),
        rules_a in arb_role_policies(0),
        rules_b in arb_role_policies(1),
        link_roles in prop::bool::ANY,
        materialize in prop::bool::ANY,
    ) {
        let mut data = data;
        for (sub, sup, subprop) in schema {
            if sub == sup {
                continue;
            }
            if subprop {
                data.add(
                    Term::iri(&ns::app(PROPS[sub % PROPS.len()])),
                    Term::iri(rdfs::SUB_PROPERTY_OF),
                    Term::iri(&ns::app(PROPS[sup % PROPS.len()])),
                );
            } else {
                data.add(
                    Term::iri(&ns::app(TYPES[sub])),
                    Term::iri(rdfs::SUB_CLASS_OF),
                    Term::iri(&ns::app(TYPES[sup])),
                );
            }
        }
        let role_a = ns::sec("RoleA");
        let role_b = ns::sec("RoleB");
        if link_roles {
            let mut rh = RoleHierarchy::new();
            rh.add(&role_b, &role_a);
            rh.encode(&mut data);
        }
        let mut policies = build_policies(&role_a, 0, &rules_a);
        policies.extend(build_policies(&role_b, 1, &rules_b));
        if policies.is_empty() {
            return Ok(());
        }
        let policies = PolicySet::new(policies);
        assert_conservative_equivalent(&data, &policies, "random case");
        if materialize {
            Reasoner::default().materialize(&mut data);
        }
        assert_equivalent(&data, &policies, "random case");
    }
}
