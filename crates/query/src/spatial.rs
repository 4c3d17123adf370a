//! Spatial evaluation support: extracting a feature's extent from its GRDF
//! triples so the `grdf:*` filter builtins can run against the graph.

use std::sync::LazyLock;

use grdf_geometry::coord::parse_coord_list;
use grdf_geometry::envelope::Envelope;
use grdf_geometry::wkt;
use grdf_rdf::graph::Graph;
use grdf_rdf::term::Term;
use grdf_rdf::vocab::grdf as ns;

/// The predicates a feature's extent is read from, built once rather
/// than per candidate feature.
static HAS_GEOMETRY: LazyLock<Term> = LazyLock::new(|| Term::iri(&ns::iri("hasGeometry")));
static IS_BOUNDED_BY: LazyLock<Term> = LazyLock::new(|| Term::iri(&ns::iri("isBoundedBy")));
static AS_WKT: LazyLock<Term> = LazyLock::new(|| Term::iri(&ns::iri("asWKT")));
static COORDINATES: LazyLock<Term> = LazyLock::new(|| Term::iri(&ns::iri("coordinates")));

/// Spatial extent of the feature `subject`, from (in priority order) its
/// geometry node's WKT, the geometry node's coordinate list, or its
/// `isBoundedBy` envelope.
pub fn feature_envelope(graph: &Graph, subject: &Term) -> Option<Envelope> {
    if let Some(gnode) = graph.object(subject, &HAS_GEOMETRY) {
        if let Some(env) = node_envelope(graph, &gnode) {
            return Some(env);
        }
    }
    let bnode = graph.object(subject, &IS_BOUNDED_BY)?;
    node_envelope(graph, &bnode)
}

fn node_envelope(graph: &Graph, node: &Term) -> Option<Envelope> {
    if let Some(w) = graph.object(node, &AS_WKT) {
        if let Some(g) = w.as_literal().and_then(|l| wkt::parse_wkt(l.lexical())) {
            if let Some(env) = g.envelope() {
                return Some(env);
            }
        }
    }
    let coords_text = graph.object(node, &COORDINATES)?;
    let coords = parse_coord_list(coords_text.as_literal()?.lexical(), 2)?;
    Envelope::of_coords(&coords)
}

/// Planar distance between the centers of two features' extents.
pub fn feature_distance(graph: &Graph, a: &Term, b: &Term) -> Option<f64> {
    let ea = feature_envelope(graph, a)?;
    let eb = feature_envelope(graph, b)?;
    Some(ea.center().distance_2d(&eb.center()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grdf_feature::feature::Feature;
    use grdf_feature::rdf_codec::encode_feature;
    use grdf_geometry::coord::Coord;
    use grdf_geometry::primitives::{LineString, Point};

    fn graph_with_two_features() -> (Graph, Term, Term) {
        let mut g = Graph::new();
        let mut a = Feature::new("urn:a", "Stream");
        a.set_geometry(
            LineString::new(vec![Coord::xy(0.0, 0.0), Coord::xy(10.0, 10.0)])
                .unwrap()
                .into(),
        );
        let sa = encode_feature(&mut g, &a);
        let mut b = Feature::new("urn:b", "Site");
        b.set_geometry(Point::new(105.0, 5.0).into());
        let sb = encode_feature(&mut g, &b);
        (g, sa, sb)
    }

    #[test]
    fn envelope_from_geometry_wkt() {
        let (g, sa, _) = graph_with_two_features();
        let env = feature_envelope(&g, &sa).unwrap();
        assert_eq!(env.min, Coord::xy(0.0, 0.0));
        assert_eq!(env.max, Coord::xy(10.0, 10.0));
    }

    #[test]
    fn distance_between_extent_centers() {
        let (g, sa, sb) = graph_with_two_features();
        let d = feature_distance(&g, &sa, &sb).unwrap();
        // Centers: (5,5) and (105,5) → 100.
        assert!((d - 100.0).abs() < 1e-9, "{d}");
    }

    #[test]
    fn missing_geometry_yields_none() {
        let g = Graph::new();
        assert!(feature_envelope(&g, &Term::iri("urn:none")).is_none());
        assert!(feature_distance(&g, &Term::iri("urn:a"), &Term::iri("urn:b")).is_none());
    }

    #[test]
    fn bounded_by_fallback() {
        use grdf_feature::bounding::BoundingShape;
        let mut g = Graph::new();
        let mut f = Feature::new("urn:c", "Zone");
        f.bounded_by =
            BoundingShape::Envelope(Envelope::new(Coord::xy(1.0, 1.0), Coord::xy(3.0, 3.0)));
        let s = encode_feature(&mut g, &f);
        let env = feature_envelope(&g, &s).unwrap();
        assert_eq!(env.center(), Coord::xy(2.0, 2.0));
    }
}
