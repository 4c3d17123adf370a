//! Differential tests for the id-space query path: a SELECT or ASK over
//! one top-level BGP (no ORDER BY, no aggregates) applies projection,
//! DISTINCT, OFFSET and LIMIT to joined `TermId` rows and materializes
//! only the surviving cells. It must return exactly what the reference
//! bindings path returns — the same variables and the same row
//! *sequence* — on seeded random small graphs and random queries that
//! cover projection subsets, projected variables the BGP never binds,
//! DISTINCT, OFFSET/LIMIT (also past the end), repeated variables, and
//! constants the graph never interned.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grdf::query::eval::{execute_query, execute_query_on_bindings, QueryResult};
use grdf::query::parser::parse_query;
use grdf::query::Pattern;
use grdf::rdf::graph::Graph;
use grdf::rdf::term::{Term, Triple};
use grdf::runtime::Deadline;

/// Variables a query may use; `?e` is drawn only into projections, so it
/// is never bound.
const VARS: [&str; 5] = ["a", "b", "c", "d", "e"];

fn subject(i: usize) -> Term {
    Term::iri(&format!("urn:s{i}"))
}

fn predicate(i: usize) -> Term {
    Term::iri(&format!("urn:p{i}"))
}

/// A small random graph over 6 subjects, 3 predicates and objects that
/// are subjects (so patterns chain) or literals.
fn random_graph(rng: &mut StdRng) -> Graph {
    let mut g = Graph::new();
    for _ in 0..rng.gen_range(0..30usize) {
        let object = if rng.gen_bool(0.6) {
            subject(rng.gen_range(0..6usize))
        } else {
            Term::string(&format!("l{}", rng.gen_range(0..3usize)))
        };
        g.insert(Triple::new(
            subject(rng.gen_range(0..6usize)),
            predicate(rng.gen_range(0..3usize)),
            object,
        ));
    }
    g
}

/// One pattern position: mostly variables from `?a`–`?d`, else a
/// constant, occasionally one the graph never interned.
fn position(rng: &mut StdRng, constant: impl Fn(&mut StdRng) -> String) -> String {
    match rng.gen_range(0..10u32) {
        0..=5 => format!("?{}", VARS[rng.gen_range(0..4usize)]),
        6..=8 => constant(rng),
        _ => "<urn:never-interned>".to_string(),
    }
}

/// A random single-BGP SELECT or ASK with random modifiers.
fn random_query(rng: &mut StdRng) -> String {
    let mut bgp = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        let s = position(rng, |r| format!("<urn:s{}>", r.gen_range(0..6usize)));
        let p = if rng.gen_bool(0.8) {
            format!("<urn:p{}>", rng.gen_range(0..3usize))
        } else {
            position(rng, |r| format!("<urn:p{}>", r.gen_range(0..3usize)))
        };
        let o = position(rng, |r| {
            if r.gen_bool(0.5) {
                format!("<urn:s{}>", r.gen_range(0..6usize))
            } else {
                format!("\"l{}\"", r.gen_range(0..3usize))
            }
        });
        bgp.push(format!("{s} {p} {o} ."));
    }
    if rng.gen_bool(0.1) {
        // The grammar takes no solution modifiers after ASK.
        return format!("ASK WHERE {{ {} }}", bgp.join(" "));
    }
    let distinct = if rng.gen_bool(0.5) { "DISTINCT " } else { "" };
    let projection = if rng.gen_bool(0.2) {
        "*".to_string()
    } else {
        (0..rng.gen_range(1..4usize))
            .map(|_| format!("?{}", VARS[rng.gen_range(0..VARS.len())]))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut text = format!(
        "SELECT {distinct}{projection} WHERE {{ {} }}",
        bgp.join(" ")
    );
    if rng.gen_bool(0.5) {
        text.push_str(&format!(" LIMIT {}", rng.gen_range(0..8usize)));
    }
    if rng.gen_bool(0.5) {
        text.push_str(&format!(" OFFSET {}", rng.gen_range(0..8usize)));
    }
    text
}

/// Both paths on one query; panics with the query on any difference.
fn both_paths(graph: &Graph, text: &str) -> QueryResult {
    let query = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert!(
        matches!(&query.pattern, Pattern::Bgp(t) if !t.is_empty()),
        "{text}: not a single-BGP query, so not on the id-space path"
    );
    let fast = execute_query(graph, &query);
    let reference = execute_query_on_bindings(graph, &query, &Deadline::never()).unwrap();
    assert_eq!(fast, reference, "{text}");
    fast
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn id_space_path_matches_bindings_path(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng);
        for _ in 0..8 {
            both_paths(&graph, &random_query(&mut rng));
        }
    }
}

/// The covered features, each pinned by one query on a fixed graph whose
/// answer is known, so the random sweep above cannot pass vacuously.
#[test]
fn fixed_cases_pin_each_feature() {
    let graph = grdf::rdf::turtle::parse(
        "<urn:s1> <urn:p0> <urn:s1> . <urn:s1> <urn:p0> <urn:s2> .
         <urn:s2> <urn:p0> <urn:s2> . <urn:s3> <urn:p1> \"x\" .
         <urn:s4> <urn:p1> \"x\" . <urn:s5> <urn:p1> \"y\" .",
    )
    .unwrap();
    let rows = |text: &str| both_paths(&graph, text).select_rows().to_vec();

    // Repeated variable: only the self-loops.
    assert_eq!(rows("SELECT ?a WHERE { ?a <urn:p0> ?a . }").len(), 2);
    // A constant the graph never interned matches nothing.
    assert!(rows("SELECT ?a WHERE { ?a <urn:never> ?b . }").is_empty());
    // A projected variable the BGP never binds is absent from every row.
    let unbound = rows("SELECT ?a ?e WHERE { ?a <urn:p1> ?b . }");
    assert_eq!(unbound.len(), 3);
    assert!(unbound.iter().all(|r| r.len() == 1 && r.contains_key("a")));
    // DISTINCT before the slice: two distinct literals, "x" then "y".
    assert_eq!(
        rows("SELECT DISTINCT ?b WHERE { ?a <urn:p1> ?b . } LIMIT 2").len(),
        2
    );
    let second = rows("SELECT DISTINCT ?b WHERE { ?a <urn:p1> ?b . } OFFSET 1");
    assert_eq!(second.len(), 1);
    assert_eq!(second[0]["b"], Term::string("y"));
    // OFFSET and LIMIT past the end.
    assert!(rows("SELECT ?a WHERE { ?a <urn:p1> ?b . } OFFSET 9").is_empty());
    assert_eq!(
        rows("SELECT ?a WHERE { ?a <urn:p1> ?b . } LIMIT 9").len(),
        3
    );
    // SELECT * lists the BGP's variables, or none when no row survives.
    match both_paths(&graph, "SELECT * WHERE { ?a <urn:p1> ?b . }") {
        QueryResult::Select { vars, .. } => assert_eq!(vars, ["a", "b"]),
        other => panic!("{other:?}"),
    }
    match both_paths(&graph, "SELECT * WHERE { ?a <urn:p1> ?b . } OFFSET 3") {
        QueryResult::Select { vars, rows } => assert!(vars.is_empty() && rows.is_empty()),
        other => panic!("{other:?}"),
    }
    // ASK.
    let ask = |text: &str| both_paths(&graph, text).as_bool();
    assert_eq!(ask("ASK WHERE { ?a <urn:p1> \"y\" . }"), Some(true));
    assert_eq!(ask("ASK WHERE { ?a <urn:p1> <urn:s1> . }"), Some(false));
}
