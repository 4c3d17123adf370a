//! Property-based tests on the reasoner's core invariants: idempotence,
//! monotonicity, subclass-closure soundness/completeness, and the
//! interaction between reasoning and consistency checking.

use proptest::prelude::*;
use std::collections::HashSet;

use grdf::owl::consistency::check_consistency;
use grdf::owl::hierarchy::Hierarchy;
use grdf::owl::reasoner::{Reasoner, Strategy as EvalStrategy};
use grdf::rdf::term::Term;
use grdf::rdf::vocab::{owl, rdf, rdfs};
use grdf::rdf::Graph;
use grdf::runtime::Deadline;

/// Random subclass forest over `n` classes: each class i > 0 gets at most
/// one parent among classes 0..i, plus random instance assignments.
#[derive(Debug, Clone)]
struct Taxonomy {
    /// parent[i] = Some(j) with j < i.
    parents: Vec<Option<usize>>,
    /// (instance, class) memberships.
    memberships: Vec<(usize, usize)>,
}

fn arb_taxonomy(max_classes: usize, max_instances: usize) -> impl Strategy<Value = Taxonomy> {
    (2..max_classes).prop_flat_map(move |n| {
        let parents = (1..n)
            .map(|i| proptest::option::of(0..i))
            .collect::<Vec<_>>();
        let memberships = prop::collection::vec((0..max_instances, 0..n), 0..max_instances * 2);
        (parents, memberships).prop_map(|(mut ps, memberships)| {
            ps.insert(0, None);
            Taxonomy {
                parents: ps,
                memberships,
            }
        })
    })
}

fn class(i: usize) -> Term {
    Term::iri(&format!("urn:tax#C{i}"))
}

fn instance(i: usize) -> Term {
    Term::iri(&format!("urn:tax#i{i}"))
}

fn to_graph(t: &Taxonomy) -> Graph {
    let mut g = Graph::new();
    for (i, parent) in t.parents.iter().enumerate() {
        if let Some(p) = parent {
            g.add(class(i), Term::iri(rdfs::SUB_CLASS_OF), class(*p));
        }
    }
    for (inst, cls) in &t.memberships {
        g.add(instance(*inst), Term::iri(rdf::TYPE), class(*cls));
    }
    g
}

fn property(i: usize) -> Term {
    Term::iri(&format!("urn:tax#p{i}"))
}

/// A richer random graph than [`Taxonomy`]: a subclass forest plus random
/// property axioms (sub-property chains, domain/range, characteristics,
/// inverses), property assertions, and an optional OWL restriction. This
/// exercises every rule family the engine implements, so the equivalence
/// properties below compare the naive and semi-naive engines
/// over their full rule surface, not just subclass closure.
#[derive(Debug, Clone)]
struct RichGraph {
    taxonomy: Taxonomy,
    /// `sub_props[i] = Some(j)` with `j < i`.
    sub_props: Vec<Option<usize>>,
    /// `(property, class)` domain axioms.
    domains: Vec<(usize, usize)>,
    /// `(property, class)` range axioms.
    ranges: Vec<(usize, usize)>,
    /// Properties declared `owl:TransitiveProperty`.
    transitive: Vec<usize>,
    /// Properties declared `owl:SymmetricProperty`.
    symmetric: Vec<usize>,
    /// `(p, q)` pairs declared `owl:inverseOf`.
    inverses: Vec<(usize, usize)>,
    /// Property assertions `(subject instance, property, object instance)`.
    assertions: Vec<(usize, usize, usize)>,
    /// Optional restriction `(property, filler class, kind)`; kind selects
    /// someValuesFrom / allValuesFrom / hasValue.
    restriction: Option<(usize, usize, u8)>,
}

fn arb_rich_graph() -> impl Strategy<Value = RichGraph> {
    let props = 4usize;
    let classes = 8usize;
    let instances = 6usize;
    (
        (
            arb_taxonomy(classes, instances),
            (1..props)
                .map(|i| proptest::option::of(0..i))
                .collect::<Vec<_>>(),
            prop::collection::vec((0..props, 0..classes), 0..3),
            prop::collection::vec((0..props, 0..classes), 0..3),
        ),
        (
            prop::collection::vec(0..props, 0..2),
            prop::collection::vec(0..props, 0..2),
            prop::collection::vec((0..props, 0..props), 0..2),
            prop::collection::vec((0..instances, 0..props, 0..instances), 0..12),
            proptest::option::of((0..props, 0..classes, 0u8..3)),
        ),
    )
        .prop_map(
            |(
                (taxonomy, mut sub_props, domains, ranges),
                (transitive, symmetric, inverses, assertions, restriction),
            )| {
                sub_props.insert(0, None);
                RichGraph {
                    taxonomy,
                    sub_props,
                    domains,
                    ranges,
                    transitive,
                    symmetric,
                    inverses,
                    assertions,
                    restriction,
                }
            },
        )
}

fn rich_to_graph(r: &RichGraph) -> Graph {
    let mut g = to_graph(&r.taxonomy);
    let n_classes = r.taxonomy.parents.len();
    for (i, parent) in r.sub_props.iter().enumerate() {
        if let Some(p) = parent {
            g.add(property(i), Term::iri(rdfs::SUB_PROPERTY_OF), property(*p));
        }
    }
    for (p, c) in &r.domains {
        g.add(property(*p), Term::iri(rdfs::DOMAIN), class(c % n_classes));
    }
    for (p, c) in &r.ranges {
        g.add(property(*p), Term::iri(rdfs::RANGE), class(c % n_classes));
    }
    for p in &r.transitive {
        g.add(
            property(*p),
            Term::iri(rdf::TYPE),
            Term::iri(owl::TRANSITIVE_PROPERTY),
        );
    }
    for p in &r.symmetric {
        g.add(
            property(*p),
            Term::iri(rdf::TYPE),
            Term::iri(owl::SYMMETRIC_PROPERTY),
        );
    }
    for (p, q) in &r.inverses {
        g.add(property(*p), Term::iri(owl::INVERSE_OF), property(*q));
    }
    for (s, p, o) in &r.assertions {
        g.add(instance(*s), property(*p), instance(*o));
    }
    if let Some((p, c, kind)) = &r.restriction {
        let node = Term::blank("restr");
        g.add(
            node.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(owl::RESTRICTION),
        );
        g.add(node.clone(), Term::iri(owl::ON_PROPERTY), property(*p));
        match kind {
            0 => g.add(
                node.clone(),
                Term::iri(owl::SOME_VALUES_FROM),
                class(c % n_classes),
            ),
            1 => g.add(
                node.clone(),
                Term::iri(owl::ALL_VALUES_FROM),
                class(c % n_classes),
            ),
            _ => g.add(node.clone(), Term::iri(owl::HAS_VALUE), instance(0)),
        };
        g.add(node, Term::iri(rdfs::SUB_CLASS_OF), class(0));
    }
    g
}

/// The three rule configurations the equivalence properties sweep.
fn rule_configs() -> [Reasoner; 3] {
    [
        Reasoner::rdfs_only(),
        Reasoner {
            restrictions: false,
            ..Reasoner::default()
        },
        Reasoner::default(),
    ]
}

/// Ground-truth ancestors of class `i` by following parent links.
fn ancestors(t: &Taxonomy, i: usize) -> HashSet<usize> {
    let mut out = HashSet::new();
    let mut cur = t.parents[i];
    while let Some(p) = cur {
        if !out.insert(p) {
            break;
        }
        cur = t.parents[p];
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn materialization_is_idempotent(t in arb_taxonomy(12, 8)) {
        let mut g = to_graph(&t);
        Reasoner::default().materialize(&mut g);
        let first = g.len();
        let stats = Reasoner::default().materialize(&mut g);
        prop_assert_eq!(stats.inferred, 0);
        prop_assert_eq!(g.len(), first);
    }

    #[test]
    fn type_closure_matches_ground_truth(t in arb_taxonomy(12, 8)) {
        let mut g = to_graph(&t);
        Reasoner::default().materialize(&mut g);
        for (inst, cls) in &t.memberships {
            // Soundness & completeness of inherited memberships.
            for anc in ancestors(&t, *cls) {
                prop_assert!(
                    g.has(&instance(*inst), &Term::iri(rdf::TYPE), &class(anc)),
                    "i{} should be a C{}", inst, anc
                );
            }
        }
        // Soundness: no membership in a non-ancestor class (unless asserted
        // via a different membership).
        for (inst, cls) in &t.memberships {
            let legal: HashSet<usize> = t
                .memberships
                .iter()
                .filter(|(i2, _)| i2 == inst)
                .flat_map(|(_, c2)| {
                    let mut s = ancestors(&t, *c2);
                    s.insert(*c2);
                    s
                })
                .collect();
            for c in 0..t.parents.len() {
                if !legal.contains(&c) {
                    prop_assert!(
                        !g.has(&instance(*inst), &Term::iri(rdf::TYPE), &class(c)),
                        "i{} must NOT be C{} (asserted C{})", inst, c, cls
                    );
                }
            }
        }
    }

    #[test]
    fn materialization_is_monotone(t in arb_taxonomy(10, 6), extra_cls in 0usize..6, extra_inst in 0usize..6) {
        // Entailments of G are preserved when G grows.
        let mut g1 = to_graph(&t);
        Reasoner::default().materialize(&mut g1);
        let before: Vec<_> = g1.iter().collect();

        let mut g2 = to_graph(&t);
        let n = t.parents.len();
        g2.add(instance(extra_inst + 100), Term::iri(rdf::TYPE), class(extra_cls % n));
        Reasoner::default().materialize(&mut g2);
        for triple in before {
            prop_assert!(g2.contains(&triple), "lost entailment {}", triple);
        }
    }

    #[test]
    fn hierarchy_queries_agree_with_reasoner(t in arb_taxonomy(10, 6)) {
        // Hierarchy::instances_transitive (no materialization) must equal
        // Hierarchy::instances (after materialization).
        let g_raw = to_graph(&t);
        let h_raw = Hierarchy::new(&g_raw);
        let mut g_mat = to_graph(&t);
        Reasoner::default().materialize(&mut g_mat);
        let h_mat = Hierarchy::new(&g_mat);
        for c in 0..t.parents.len() {
            let mut lazy = h_raw.instances_transitive(&class(c));
            let mut eager = h_mat.instances(&class(c));
            lazy.sort();
            eager.sort();
            eager.dedup();
            prop_assert_eq!(lazy, eager, "class C{}", c);
        }
    }

    #[test]
    fn consistent_taxonomies_stay_consistent(t in arb_taxonomy(10, 6)) {
        let mut g = to_graph(&t);
        Reasoner::default().materialize(&mut g);
        prop_assert!(check_consistency(&g).is_empty());
    }

    #[test]
    fn disjointness_violations_are_found_iff_shared_members(
        t in arb_taxonomy(8, 5),
        a in 0usize..8,
        b in 0usize..8,
    ) {
        let n = t.parents.len();
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        let mut g = to_graph(&t);
        g.add(
            class(a),
            Term::iri(grdf::rdf::vocab::owl::DISJOINT_WITH),
            class(b),
        );
        Reasoner::default().materialize(&mut g);
        let h = Hierarchy::new(&g);
        let members_a: HashSet<Term> = h.instances(&class(a)).into_iter().collect();
        let members_b: HashSet<Term> = h.instances(&class(b)).into_iter().collect();
        let overlap = members_a.intersection(&members_b).count();
        let violations = check_consistency(&g)
            .into_iter()
            .filter(|v| matches!(v, grdf::owl::consistency::Violation::Disjoint { .. }))
            .count();
        prop_assert_eq!(overlap > 0, violations > 0,
            "overlap {} vs violations {}", overlap, violations);
    }

    /// The semi-naive engine computes the exact same fixpoint as the naive
    /// reference engine, across every rule configuration (rdfs-only, owl
    /// without restrictions, full), and never needs more passes.
    #[test]
    fn semi_naive_equals_naive_on_random_graphs(r in arb_rich_graph()) {
        let g = rich_to_graph(&r);
        for config in rule_configs() {
            let naive = Reasoner { strategy: EvalStrategy::Naive, ..config };
            let semi = Reasoner { strategy: EvalStrategy::SemiNaive, ..config };
            let mut g_naive = g.clone();
            let mut g_semi = g.clone();
            let stats_naive = naive.materialize(&mut g_naive);
            let stats_semi = semi.materialize(&mut g_semi);
            prop_assert_eq!(&g_naive, &g_semi,
                "fixpoints differ (rdfs={} owl={} restrictions={})",
                config.rdfs, config.owl, config.restrictions);
            prop_assert_eq!(stats_naive.inferred, stats_semi.inferred);
            prop_assert!(stats_semi.passes <= stats_naive.passes,
                "semi-naive took {} passes vs naive {}",
                stats_semi.passes, stats_naive.passes);
        }
    }

    /// Incrementally deriving the consequences of a batch of additions
    /// yields exactly the same graph as re-materializing from scratch.
    #[test]
    fn incremental_update_equals_full_rematerialization(
        r in arb_rich_graph(),
        extra in prop::collection::vec((0..8usize, 0..4usize, 0..8usize), 1..6),
    ) {
        let reasoner = Reasoner::default();
        let mut incremental = rich_to_graph(&r);
        reasoner.materialize(&mut incremental);
        let mark = incremental.generation();
        let mut scratch = incremental.clone();
        for (s, p, o) in &extra {
            incremental.add(instance(*s + 50), property(*p), instance(*o + 50));
            scratch.add(instance(*s + 50), property(*p), instance(*o + 50));
        }
        reasoner
            .materialize_delta(&mut incremental, mark, &Deadline::never())
            .expect("never-expiring deadline");
        reasoner.materialize(&mut scratch);
        prop_assert_eq!(&incremental, &scratch);
    }
}
