//! RDF terms: IRIs, blank nodes, literals, and triples.
//!
//! Terms use `Arc<str>` internally so cloning is a reference-count bump;
//! graphs additionally intern terms into dense ids (see [`crate::graph`]).

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use crate::vocab::xsd;

/// An RDF literal: lexical form plus either a language tag or a datatype.
///
/// Following RDF 1.1, a plain literal is represented as `xsd:string` with no
/// language tag; `Literal::datatype()` therefore always returns an IRI.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Arc<str>,
    /// `Some(tag)` for language-tagged strings (datatype rdf:langString).
    lang: Option<Arc<str>>,
    /// Datatype IRI; `None` means `xsd:string` (saves an allocation for the
    /// overwhelmingly common case).
    datatype: Option<Arc<str>>,
}

impl Literal {
    /// A plain (xsd:string) literal.
    pub fn string(lexical: &str) -> Literal {
        Literal {
            lexical: lexical.into(),
            lang: None,
            datatype: None,
        }
    }

    /// A language-tagged string. The tag is lower-cased (BCP 47 tags are
    /// case-insensitive).
    pub fn lang_string(lexical: &str, lang: &str) -> Literal {
        Literal {
            lexical: lexical.into(),
            lang: Some(lang.to_ascii_lowercase().into()),
            datatype: None,
        }
    }

    /// A typed literal with an explicit datatype IRI.
    pub fn typed(lexical: &str, datatype: &str) -> Literal {
        if datatype == xsd::STRING {
            return Literal::string(lexical);
        }
        Literal {
            lexical: lexical.into(),
            lang: None,
            datatype: Some(datatype.into()),
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Literal {
        Literal::typed(&value.to_string(), xsd::INTEGER)
    }

    /// An `xsd:double` literal.
    pub fn double(value: f64) -> Literal {
        Literal::typed(&format_double(value), xsd::DOUBLE)
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(value: bool) -> Literal {
        Literal::typed(if value { "true" } else { "false" }, xsd::BOOLEAN)
    }

    /// An `xsd:dateTime` literal from a preformatted lexical form.
    pub fn date_time(lexical: &str) -> Literal {
        Literal::typed(lexical, xsd::DATE_TIME)
    }

    /// The lexical form.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The language tag, if this is a language-tagged string.
    pub fn lang(&self) -> Option<&str> {
        self.lang.as_deref()
    }

    /// The datatype IRI (always defined; `rdf:langString` for tagged
    /// strings, `xsd:string` when untyped).
    pub fn datatype(&self) -> &str {
        if self.lang.is_some() {
            crate::vocab::rdf::LANG_STRING
        } else {
            self.datatype.as_deref().unwrap_or(xsd::STRING)
        }
    }

    /// Parse as `i64` when the datatype is a (signed) integer type.
    pub fn as_integer(&self) -> Option<i64> {
        match self.datatype() {
            xsd::INTEGER | xsd::LONG | xsd::INT | xsd::NON_NEGATIVE_INTEGER => {
                self.lexical.trim().parse().ok()
            }
            _ => None,
        }
    }

    /// Parse as `f64` when the datatype is numeric.
    pub fn as_double(&self) -> Option<f64> {
        match self.datatype() {
            xsd::DOUBLE | xsd::FLOAT | xsd::DECIMAL => self.lexical.trim().parse().ok(),
            xsd::INTEGER | xsd::LONG | xsd::INT | xsd::NON_NEGATIVE_INTEGER => {
                self.lexical.trim().parse::<i64>().ok().map(|v| v as f64)
            }
            _ => None,
        }
    }

    /// Parse as `bool` when the datatype is `xsd:boolean`.
    pub fn as_boolean(&self) -> Option<bool> {
        if self.datatype() != xsd::BOOLEAN {
            return None;
        }
        match self.lexical.trim() {
            "true" | "1" => Some(true),
            "false" | "0" => Some(false),
            _ => None,
        }
    }
}

/// Format a double the way XSD canonical form expects finite values; keeps
/// integral doubles distinguishable from integers (`1` → `1.0`).
fn format_double(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// An RDF term: IRI, blank node, or literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// An IRI reference, stored absolute.
    Iri(Arc<str>),
    /// A blank node with a local label.
    Blank(Arc<str>),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// IRI term from a string.
    pub fn iri(iri: &str) -> Term {
        Term::Iri(iri.into())
    }

    /// Blank node term with the given label (without `_:`).
    pub fn blank(label: &str) -> Term {
        Term::Blank(label.into())
    }

    /// Plain string literal term.
    pub fn string(s: &str) -> Term {
        Term::Literal(Literal::string(s))
    }

    /// Typed literal term.
    pub fn typed(lexical: &str, datatype: &str) -> Term {
        Term::Literal(Literal::typed(lexical, datatype))
    }

    /// Integer literal term.
    pub fn integer(v: i64) -> Term {
        Term::Literal(Literal::integer(v))
    }

    /// Double literal term.
    pub fn double(v: f64) -> Term {
        Term::Literal(Literal::double(v))
    }

    /// Boolean literal term.
    pub fn boolean(v: bool) -> Term {
        Term::Literal(Literal::boolean(v))
    }

    /// The IRI string when this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    /// The literal when this term is a literal.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// The blank-node label when this term is a blank node.
    pub fn as_blank(&self) -> Option<&str> {
        match self {
            Term::Blank(b) => Some(b),
            _ => None,
        }
    }

    /// True for IRIs and blank nodes (legal subjects).
    pub fn is_resource(&self) -> bool {
        !matches!(self, Term::Literal(_))
    }

    /// True for blank nodes.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }
}

impl fmt::Display for Term {
    /// N-Triples-style rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => write!(f, "<{i}>"),
            Term::Blank(b) => write!(f, "_:{b}"),
            Term::Literal(l) => {
                f.write_char('"')?;
                write_escaped_literal(f, l.lexical())?;
                f.write_char('"')?;
                if let Some(lang) = l.lang() {
                    write!(f, "@{lang}")
                } else if l.datatype() != xsd::STRING {
                    write!(f, "^^<{}>", l.datatype())
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Escape a literal lexical form for N-Triples/Turtle output.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped_literal(&mut out, s).expect("writing to a String cannot fail");
    out
}

/// Write `s` escaped for N-Triples/Turtle output, unescaped runs whole.
fn write_escaped_literal(w: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut rest = s;
    while let Some(i) = rest.find(['\\', '"', '\n', '\r', '\t']) {
        w.write_str(&rest[..i])?;
        w.write_str(match rest.as_bytes()[i] {
            b'\\' => "\\\\",
            b'"' => "\\\"",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => "\\t",
        })?;
        rest = &rest[i + 1..];
    }
    w.write_str(rest)
}

/// Ordering for deterministic output: IRIs < blanks < literals, then lexical.
impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Term {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(t: &Term) -> u8 {
            match t {
                Term::Iri(_) => 0,
                Term::Blank(_) => 1,
                Term::Literal(_) => 2,
            }
        }
        rank(self)
            .cmp(&rank(other))
            .then_with(|| match (self, other) {
                (Term::Iri(a), Term::Iri(b)) => a.cmp(b),
                (Term::Blank(a), Term::Blank(b)) => a.cmp(b),
                (Term::Literal(a), Term::Literal(b)) => a.cmp(b),
                _ => Ordering::Equal,
            })
    }
}

/// An RDF triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject: IRI or blank node.
    pub subject: Term,
    /// Predicate: IRI.
    pub predicate: Term,
    /// Object: any term.
    pub object: Term,
}

impl Triple {
    /// Construct a triple. Debug builds assert the RDF term constraints
    /// (subject not a literal, predicate an IRI).
    pub fn new(subject: Term, predicate: Term, object: Term) -> Triple {
        debug_assert!(
            subject.is_resource(),
            "triple subject must not be a literal"
        );
        debug_assert!(
            matches!(predicate, Term::Iri(_)),
            "triple predicate must be an IRI"
        );
        Triple {
            subject,
            predicate,
            object,
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::rdf as rdfv;

    #[test]
    fn plain_literal_is_xsd_string() {
        let l = Literal::string("hi");
        assert_eq!(l.datatype(), xsd::STRING);
        assert_eq!(l.lang(), None);
    }

    #[test]
    fn typed_string_collapses_to_plain() {
        assert_eq!(Literal::typed("x", xsd::STRING), Literal::string("x"));
    }

    #[test]
    fn lang_string_datatype_is_langstring_and_tag_lowercased() {
        let l = Literal::lang_string("bonjour", "FR");
        assert_eq!(l.lang(), Some("fr"));
        assert_eq!(l.datatype(), rdfv::LANG_STRING);
    }

    #[test]
    fn numeric_accessors() {
        assert_eq!(Literal::integer(42).as_integer(), Some(42));
        assert_eq!(Literal::integer(42).as_double(), Some(42.0));
        assert_eq!(Literal::double(2.5).as_double(), Some(2.5));
        assert_eq!(Literal::double(2.5).as_integer(), None);
        assert_eq!(Literal::boolean(true).as_boolean(), Some(true));
        assert_eq!(Literal::typed("1", xsd::BOOLEAN).as_boolean(), Some(true));
        assert_eq!(
            Literal::string("7").as_integer(),
            None,
            "untyped is not numeric"
        );
    }

    #[test]
    fn double_formatting_keeps_decimal_point() {
        assert_eq!(Literal::double(3.0).lexical(), "3.0");
        assert_eq!(Literal::double(0.25).lexical(), "0.25");
    }

    #[test]
    fn term_display_is_ntriples_shaped() {
        assert_eq!(Term::iri("urn:a").to_string(), "<urn:a>");
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
        assert_eq!(Term::string("x\"y\n").to_string(), "\"x\\\"y\\n\"");
        assert_eq!(
            Term::integer(5).to_string(),
            format!("\"5\"^^<{}>", xsd::INTEGER)
        );
        assert_eq!(
            Term::Literal(Literal::lang_string("hi", "en")).to_string(),
            "\"hi\"@en"
        );
    }

    #[test]
    fn term_ordering_groups_kinds() {
        let mut v = [
            Term::string("z"),
            Term::blank("a"),
            Term::iri("urn:b"),
            Term::iri("urn:a"),
        ];
        v.sort();
        assert_eq!(v[0], Term::iri("urn:a"));
        assert_eq!(v[1], Term::iri("urn:b"));
        assert!(v[2].is_blank());
        assert!(matches!(v[3], Term::Literal(_)));
    }

    #[test]
    fn triple_display() {
        let t = Triple::new(Term::iri("urn:s"), Term::iri("urn:p"), Term::string("o"));
        assert_eq!(t.to_string(), "<urn:s> <urn:p> \"o\" .");
    }

    #[test]
    #[should_panic(expected = "subject")]
    #[cfg(debug_assertions)]
    fn literal_subject_asserts() {
        let _ = Triple::new(Term::string("bad"), Term::iri("urn:p"), Term::string("o"));
    }
}
