//! The paper's Lists 1–8, verbatim (modulo whitespace and the obvious
//! typographical fixes noted inline), parsed and checked for the meaning
//! the text ascribes to them. These tests pin the reproduction to the
//! paper's actual artifacts.

use grdf::lint::lint_graph;
use grdf::owl::consistency::check_consistency;
use grdf::owl::reasoner::Reasoner;
use grdf::rdf::term::Term;
use grdf::rdf::vocab::{owl, rdf, rdfs};
use grdf::security::policy::{Access, Action, Condition, Policy};

fn iri(s: &str) -> Term {
    Term::iri(s)
}

/// List 1 — `MeasureType`: an extension-of-double with a `uom` attribute.
/// (The listing shows the instance; the GML reader applies §3.2's mapping.)
#[test]
fn list1_measure_type() {
    let gml = r#"<app:Site xmlns:app="http://grdf.org/app#"
                  xmlns:gml="http://www.opengis.net/gml" gml:id="s1">
        <app:temperature uom="http://grdf.org/uom/farenheit">21.23</app:temperature>
    </app:Site>"#;
    let fc = grdf::gml::read::parse_gml(gml).unwrap();
    let site = &fc.features[0];
    // §3.2: "the most intuitive way to model XML extension constructs with
    // bases referring to built-in data types is by creating property with
    // range restriction set to the base type" — a double-valued property,
    // not a subclass of xsd:double.
    assert_eq!(
        site.property("temperature"),
        Some(&grdf::feature::Value::Double(21.23))
    );
    assert_eq!(
        site.property("temperatureUom").and_then(|v| v.as_str()),
        Some("http://grdf.org/uom/farenheit")
    );
    // The GRDF encoding of the listing holds up under the linter.
    let mut g = grdf::rdf::graph::Graph::new();
    grdf::feature::rdf_codec::encode_feature(&mut g, site);
    let report = lint_graph(&g);
    assert!(report.is_clean(), "{}", report.render_text());
}

/// List 2 — the geometric property declarations.
#[test]
fn list2_property_types() {
    let xml = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                          xmlns:owl="http://www.w3.org/2002/07/owl#">
      <owl:ObjectProperty rdf:about="http://grdf.org/ontology#hasCenterLineOf"/>
      <owl:ObjectProperty rdf:about="http://grdf.org/ontology#hasCenterOf"/>
      <owl:ObjectProperty rdf:about="http://grdf.org/ontology#hasEdgeOf"/>
      <owl:ObjectProperty rdf:about="http://grdf.org/ontology#hasEnvelope"/>
      <owl:ObjectProperty rdf:about="http://grdf.org/ontology#hasExtentOf"/>
    </rdf:RDF>"#;
    let g = grdf::rdf::rdfxml::parse(xml).unwrap();
    assert_eq!(g.len(), 5);
    let report = lint_graph(&g);
    assert!(report.is_clean(), "{}", report.render_text());
    for p in [
        "hasCenterLineOf",
        "hasCenterOf",
        "hasEdgeOf",
        "hasEnvelope",
        "hasExtentOf",
    ] {
        assert!(g.has(
            &iri(&format!("http://grdf.org/ontology#{p}")),
            &iri(rdf::TYPE),
            &iri(owl::OBJECT_PROPERTY)
        ));
        // And the built ontology declares the same properties.
        let onto = grdf::core::ontology::grdf_ontology();
        assert!(onto.has(
            &iri(&format!("http://grdf.org/ontology#{p}")),
            &iri(rdf::TYPE),
            &iri(owl::OBJECT_PROPERTY)
        ));
    }
}

/// List 3 — `EnvelopeWithTimePeriod` with its cardinality-2 restriction on
/// `hasTimePosition`. (The paper's listing omits the Restriction close tags
/// and quotes; fixed here.)
#[test]
fn list3_envelope_with_time_period() {
    let xml = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                          xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
                          xmlns:owl="http://www.w3.org/2002/07/owl#">
      <owl:Class rdf:about="http://grdf.org/ontology#EnvelopeWithTimePeriod">
        <rdfs:subClassOf>
          <owl:Restriction>
            <owl:cardinality rdf:datatype="http://www.w3.org/2001/XMLSchema#nonNegativeInteger">2</owl:cardinality>
            <owl:onProperty>
              <owl:ObjectProperty rdf:about="http://grdf.org/temporal#hasTimePosition"/>
            </owl:onProperty>
          </owl:Restriction>
        </rdfs:subClassOf>
      </owl:Class>
    </rdf:RDF>"#;
    let mut g = grdf::rdf::rdfxml::parse(xml).unwrap();
    // The restriction node is typed and carries the cardinality.
    let cls = iri("http://grdf.org/ontology#EnvelopeWithTimePeriod");
    let restriction = g.object(&cls, &iri(rdfs::SUB_CLASS_OF)).unwrap();
    let card = g.object(&restriction, &iri(owl::CARDINALITY)).unwrap();
    assert_eq!(card.as_literal().unwrap().as_integer(), Some(2));

    // Make it checkable: the restriction needs an explicit owl:Restriction
    // type for the validator (typed implicitly in the paper's prose).
    g.add(restriction.clone(), iri(rdf::TYPE), iri(owl::RESTRICTION));
    let env = iri("urn:test#env");
    g.add(env.clone(), iri(rdf::TYPE), cls);
    g.add(
        env.clone(),
        iri("http://grdf.org/temporal#hasTimePosition"),
        iri("urn:test#t0"),
    );
    Reasoner::default().materialize(&mut g);
    assert!(
        !check_consistency(&g).is_empty(),
        "one time position violates =2"
    );
    g.add(
        env,
        iri("http://grdf.org/temporal#hasTimePosition"),
        iri("urn:test#t1"),
    );
    assert!(check_consistency(&g).is_empty());
    let report = lint_graph(&g);
    assert!(report.is_clean(), "{}", report.render_text());
}

/// List 4 — the curve multipart family, and the paper's rule that "there is
/// no such thing called ComplexCurve".
#[test]
fn list4_curve_multiparts() {
    let xml = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                          xmlns:owl="http://www.w3.org/2002/07/owl#">
      <owl:Class rdf:about="http://grdf.org/ontology#Curve"/>
      <owl:Class rdf:about="http://grdf.org/ontology#MultiCurve"/>
      <owl:Class rdf:about="http://grdf.org/ontology#CompositeCurve"/>
      <owl:ObjectProperty rdf:about="http://grdf.org/ontology#curveMember"/>
    </rdf:RDF>"#;
    let g = grdf::rdf::rdfxml::parse(xml).unwrap();
    assert_eq!(g.len(), 4);
    let report = lint_graph(&g);
    assert!(report.is_clean(), "{}", report.render_text());
    let onto = grdf::core::ontology::grdf_ontology();
    for c in ["Curve", "MultiCurve", "CompositeCurve"] {
        assert!(onto.has(
            &iri(&format!("http://grdf.org/ontology#{c}")),
            &iri(rdf::TYPE),
            &iri(owl::CLASS)
        ));
    }
    // No ComplexCurve anywhere in the built ontology.
    assert!(!onto
        .match_pattern(
            Some(&iri("http://grdf.org/ontology#ComplexCurve")),
            None,
            None
        )
        .iter()
        .any(|_| true));
}

/// List 5 — the Face topology class with its three cardinality facets.
#[test]
fn list5_face_restrictions() {
    // The listing nests three restrictions in one class definition (with
    // several unclosed tags in the original); here each restriction is its
    // own subClassOf, which is the well-formed equivalent.
    let ttl = r#"
      @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
      @prefix owl: <http://www.w3.org/2002/07/owl#> .
      @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
      @prefix grdf: <http://grdf.org/ontology#> .
      grdf:Face rdfs:subClassOf grdf:TopoPrimitive ;
        rdfs:subClassOf [ a owl:Restriction ; owl:onProperty grdf:hasTopoSolid ;
                          owl:maxCardinality "2"^^xsd:nonNegativeInteger ] ;
        rdfs:subClassOf [ a owl:Restriction ; owl:onProperty grdf:hasSurface ;
                          owl:maxCardinality "1"^^xsd:nonNegativeInteger ] ;
        rdfs:subClassOf [ a owl:Restriction ; owl:onProperty grdf:hasEdge ;
                          owl:minCardinality "1"^^xsd:nonNegativeInteger ] .
    "#;
    let mut g = grdf::rdf::turtle::parse(ttl).unwrap();
    let face = iri("urn:t#f1");
    g.add(
        face.clone(),
        iri(rdf::TYPE),
        iri("http://grdf.org/ontology#Face"),
    );
    g.add(
        face.clone(),
        iri("http://grdf.org/ontology#hasEdge"),
        iri("urn:t#e1"),
    );
    Reasoner::default().materialize(&mut g);
    assert!(check_consistency(&g).is_empty());
    let report = lint_graph(&g);
    assert!(report.is_clean(), "{}", report.render_text());
    // Violate each facet in turn.
    for s in ["urn:t#s1", "urn:t#s2"] {
        g.add(
            face.clone(),
            iri("http://grdf.org/ontology#hasSurface"),
            iri(s),
        );
    }
    assert_eq!(
        check_consistency(&g).len(),
        1,
        "maxCardinality 1 on hasSurface"
    );
    for s in ["urn:t#v1", "urn:t#v2", "urn:t#v3"] {
        g.add(
            face.clone(),
            iri("http://grdf.org/ontology#hasTopoSolid"),
            iri(s),
        );
    }
    assert_eq!(
        check_consistency(&g).len(),
        2,
        "plus maxCardinality 2 on hasTopoSolid"
    );
}

/// List 6 — the hydrology stream sample. (The paper's listing closes a
/// `grdf:coordinates` element with `</gml:coordinates>` — a typo fixed
/// here.)
#[test]
fn list6_hydrology_sample() {
    let xml = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                          xmlns:app="http://grdf.org/app#"
                          xmlns:grdf="http://grdf.org/ontology#">
      <rdf:Description rdf:about="http://grdf.org/app#VECTOR.VECTOR.HYDRO_STREAMS_CENSUS_line">
        <app:hasObjectID>11070</app:hasObjectID>
        <grdf:hasGeometry>
          <grdf:LineString>
            <grdf:srsName>http://grdf.org/crs/TX83-NCF</grdf:srsName>
            <grdf:coordinates>2533822.17263276,7108248.82783879 2533900.5,7108300.25</grdf:coordinates>
          </grdf:LineString>
        </grdf:hasGeometry>
      </rdf:Description>
    </rdf:RDF>"#;
    let g = grdf::rdf::rdfxml::parse(xml).unwrap();
    let stream = iri("http://grdf.org/app#VECTOR.VECTOR.HYDRO_STREAMS_CENSUS_line");
    // Geometry node is a grdf:LineString with the TX83-NCF srsName.
    let gnode = g
        .object(&stream, &iri("http://grdf.org/ontology#hasGeometry"))
        .unwrap();
    assert!(g.has(
        &gnode,
        &iri(rdf::TYPE),
        &iri("http://grdf.org/ontology#LineString")
    ));
    // The spatial layer can evaluate its extent directly from the listing.
    let env = grdf::query::spatial::feature_envelope(&g, &stream).unwrap();
    assert!(env.min.x > 2_533_000.0 && env.max.y > 7_108_000.0);
}

/// List 7 — the chemical-site sample, including the linked ChemInfo record.
#[test]
fn list7_chemical_site_sample() {
    let xml = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                          xmlns:app="http://grdf.org/app#"
                          xmlns:grdf="http://grdf.org/ontology#">
      <app:ChemSite rdf:about="http://grdf.org/app#NTEnergy">
        <app:hasSiteName>North Texas Energy</app:hasSiteName>
        <app:hasSiteId>004221</app:hasSiteId>
        <grdf:BoundedBy>
          <grdf:Envelope>
            <grdf:srsName>http://grdf.org/crs/TX83-NCF</grdf:srsName>
            <grdf:coordinates>2533000,7108000 2534000,7109000</grdf:coordinates>
          </grdf:Envelope>
        </grdf:BoundedBy>
        <app:hasChemicalInfo rdf:resource="http://grdf.org/app#NTChemInfo"/>
      </app:ChemSite>
      <app:ChemInfo rdf:about="http://grdf.org/app#NTChemInfo">
        <app:hasChemName>Sulfuric Acid</app:hasChemName>
        <app:hasChemCode>121NR</app:hasChemCode>
      </app:ChemInfo>
    </rdf:RDF>"#;
    let g = grdf::rdf::rdfxml::parse(xml).unwrap();
    let site = iri("http://grdf.org/app#NTEnergy");
    assert!(g.has(&site, &iri(rdf::TYPE), &iri("http://grdf.org/app#ChemSite")));
    let info = g
        .object(&site, &iri("http://grdf.org/app#hasChemicalInfo"))
        .unwrap();
    assert_eq!(
        g.object(&info, &iri("http://grdf.org/app#hasChemName"))
            .unwrap()
            .as_literal()
            .unwrap()
            .lexical(),
        "Sulfuric Acid"
    );
    // The site id keeps its zero padding (it is an identifier, not a number).
    assert_eq!(
        g.object(&site, &iri("http://grdf.org/app#hasSiteId"))
            .unwrap()
            .as_literal()
            .unwrap()
            .lexical(),
        "004221"
    );
}

/// List 8 — the 'main repair' policy, decoded into the policy engine and
/// enforced exactly as §7.1 describes.
#[test]
fn list8_main_repair_policy() {
    let xml = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                          xmlns:SecOnto="http://grdf.org/security#">
      <SecOnto:Subject rdf:about="http://grdf.org/security#MainRep">
        <SecOnto:hasPolicy rdf:resource="http://grdf.org/security#MainRepPolicy1"/>
      </SecOnto:Subject>
      <SecOnto:Policy rdf:about="http://grdf.org/security#MainRepPolicy1">
        <SecOnto:hasAction rdf:resource="http://grdf.org/security#View"/>
        <SecOnto:hasCondition rdf:resource="http://grdf.org/security#CondSites"/>
        <SecOnto:hasPolicyDecision rdf:resource="http://grdf.org/security#Permit"/>
        <SecOnto:hasResource rdf:resource="http://grdf.org/app#ChemSite"/>
      </SecOnto:Policy>
      <SecOnto:ConditionValue rdf:about="http://grdf.org/security#CondSites">
        <SecOnto:condValDefinition>
          <rdf:Description rdf:about="http://grdf.org/security#CondSitesDef">
            <SecOnto:hasPropertyAccess rdf:resource="http://grdf.org/ontology#BoundedBy"/>
          </rdf:Description>
        </SecOnto:condValDefinition>
      </SecOnto:ConditionValue>
    </rdf:RDF>"#;
    // (The paper's listing grants `#BuildingResource`; the §7.1 narrative
    // applies the policy to the chemical sites, used here.)
    let g = grdf::rdf::rdfxml::parse(xml).unwrap();
    let policies = Policy::decode_all(&g);
    assert_eq!(policies.len(), 1);
    let p = policies[0].clone();
    assert_eq!(p.role, "http://grdf.org/security#MainRep");
    assert_eq!(p.resource, "http://grdf.org/app#ChemSite");
    assert_eq!(
        p.conditions,
        vec![Condition::PropertyAccess(vec![
            "http://grdf.org/ontology#BoundedBy".to_string()
        ])]
    );

    // Enforce it over List 7's data: extent viewable, chemistry not.
    let mut data = grdf::rdf::Graph::new();
    let site = iri("http://grdf.org/app#NTEnergy");
    data.add(
        site.clone(),
        iri(rdf::TYPE),
        iri("http://grdf.org/app#ChemSite"),
    );
    data.add(
        site.clone(),
        iri("http://grdf.org/ontology#BoundedBy"),
        Term::string("…"),
    );
    data.add(
        site.clone(),
        iri("http://grdf.org/app#hasChemicalInfo"),
        iri("urn:x"),
    );
    let ps = grdf::security::policy::PolicySet::new(policies);
    assert_eq!(
        ps.evaluate(
            &data,
            &p.role,
            &site,
            "http://grdf.org/ontology#BoundedBy",
            Action::View
        ),
        Access::Granted
    );
    assert_eq!(
        ps.evaluate(
            &data,
            &p.role,
            &site,
            "http://grdf.org/app#hasChemicalInfo",
            Action::View
        ),
        Access::Denied
    );
}

/// Serve `data` un-inferred (no reasoning engine, so subclass links stay
/// inference steps rather than materialized types) and return `role`'s
/// view, view statistics and decision trace as G-SACS built them.
fn served_view(
    data: grdf::rdf::Graph,
    policies: grdf::security::policy::PolicySet,
    role: &str,
) -> (
    std::sync::Arc<grdf::rdf::Graph>,
    grdf::security::ViewStats,
    grdf::security::DecisionTrace,
) {
    use grdf::security::gsacs::{GSacs, NoReasoning, OntoRepository};
    let svc = GSacs::new(
        OntoRepository::new(),
        policies,
        Box::new(NoReasoning),
        data,
        4,
    );
    let view = svc.view_for(role);
    let stats = svc.view_stats_for(role).expect("view built");
    let trace = svc.decision_trace_for(role).expect("view built");
    (view, stats, trace)
}

/// List 3's class, secured: a permit on the superclass must reach
/// `EnvelopeWithTimePeriod` instances through subclass inference, and the
/// served decision trace must name both the permitting policy and the
/// inference step that connected them.
#[test]
fn list3_decision_trace_explains_subclass_permit() {
    use grdf::security::policy::PolicySet;

    let xml = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                          xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
                          xmlns:owl="http://www.w3.org/2002/07/owl#">
      <owl:Class rdf:about="http://grdf.org/ontology#EnvelopeWithTimePeriod">
        <rdfs:subClassOf>
          <owl:Class rdf:about="http://grdf.org/ontology#Envelope"/>
        </rdfs:subClassOf>
      </owl:Class>
    </rdf:RDF>"#;
    let mut g = grdf::rdf::rdfxml::parse(xml).unwrap();
    let env = iri("urn:test#env1");
    g.add(
        env.clone(),
        iri(rdf::TYPE),
        iri("http://grdf.org/ontology#EnvelopeWithTimePeriod"),
    );
    g.add(
        env,
        iri("http://grdf.org/temporal#hasTimePosition"),
        iri("urn:test#t0"),
    );
    let policies = PolicySet::new(vec![Policy::permit(
        "urn:test#EnvelopePolicy",
        "urn:test#Analyst",
        "http://grdf.org/ontology#Envelope",
    )]);
    let (view, stats, trace) = served_view(g, policies, "urn:test#Analyst");
    assert!(stats.granted > 0, "subclass instances must be visible");
    assert!(!view.is_empty());
    assert!(
        trace
            .permitting
            .contains(&"urn:test#EnvelopePolicy".to_string()),
        "trace must name the permitting policy, got {:?}",
        trace.permitting
    );
    assert!(
        trace.inference.iter().any(|step| step
            .contains("EnvelopeWithTimePeriod rdfs:subClassOf* http://grdf.org/ontology#Envelope")),
        "trace must record the subclass inference step, got {:?}",
        trace.inference
    );
    assert!(trace.denying.is_empty());
    assert!(!trace.degraded);
}

/// List 4's curve family, secured: a deny on `Curve` must reach
/// `CompositeCurve` instances through the same inference, deny-wins over
/// an instance-level permit, and the served trace must name the denying
/// policy.
#[test]
fn list4_decision_trace_explains_deny_wins() {
    use grdf::security::policy::PolicySet;

    let xml = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                          xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
                          xmlns:owl="http://www.w3.org/2002/07/owl#">
      <owl:Class rdf:about="http://grdf.org/ontology#Curve"/>
      <owl:Class rdf:about="http://grdf.org/ontology#CompositeCurve">
        <rdfs:subClassOf>
          <owl:Class rdf:about="http://grdf.org/ontology#Curve"/>
        </rdfs:subClassOf>
      </owl:Class>
    </rdf:RDF>"#;
    let mut g = grdf::rdf::rdfxml::parse(xml).unwrap();
    let c1 = iri("urn:test#c1");
    g.add(
        c1.clone(),
        iri(rdf::TYPE),
        iri("http://grdf.org/ontology#CompositeCurve"),
    );
    g.add(
        c1,
        iri("http://grdf.org/ontology#curveMember"),
        iri("urn:test#seg1"),
    );
    let policies = PolicySet::new(vec![
        Policy::permit(
            "urn:test#CompositePermit",
            "urn:test#Surveyor",
            "http://grdf.org/ontology#CompositeCurve",
        ),
        Policy::deny(
            "urn:test#CurveDeny",
            "urn:test#Surveyor",
            "http://grdf.org/ontology#Curve",
        ),
    ]);
    let (view, stats, trace) = served_view(g, policies, "urn:test#Surveyor");
    assert!(
        !view
            .match_pattern(Some(&iri("urn:test#c1")), None, None)
            .iter()
            .any(|_| true),
        "deny-wins: the composite curve must be suppressed"
    );
    assert!(stats.suppressed > 0);
    assert!(
        trace.denying.contains(&"urn:test#CurveDeny".to_string()),
        "trace must name the denying policy, got {:?}",
        trace.denying
    );
    assert!(
        trace
            .inference
            .iter()
            .any(|step| step
                .contains("CompositeCurve rdfs:subClassOf* http://grdf.org/ontology#Curve")),
        "the deny reached the instance via inference, got {:?}",
        trace.inference
    );
}
