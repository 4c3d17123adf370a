//! Output checks against slow, obviously-right references: a fresh
//! OWL-Horst materialisation of the expected base, `secure_view` per
//! role, and `grdf_query::eval` on that view.

use grdf_owl::reasoner::Reasoner;
use grdf_query::eval::{execute_query, QueryResult};
use grdf_query::parser::parse_query;
use grdf_rdf::graph::Graph;
use grdf_rdf::term::Term;
use grdf_rdf::vocab::grdf;
use grdf_security::views::secure_view;

use crate::client::Reply;
use crate::gen::{role_iris, Inputs, Read, MAIN_REPAIR};
use crate::serve::policies;
use crate::util::{Digest, Json};

/// The reference state: materialised data and one secure view per role.
pub struct Reference {
    /// Materialised data (base plus entailments).
    data: Graph,
    /// Triples the reasoner inferred.
    pub inferred: usize,
    /// Views in [`role_iris`] order, as built so far.
    pub views: Vec<Graph>,
}

impl Reference {
    /// Materialise `base`; the views follow one [`Reference::add_view`]
    /// at a time, so the work can be spread out.
    pub fn materialize(base: &Graph) -> Reference {
        let mut data = base.clone();
        let stats = Reasoner::default().materialize(&mut data);
        Reference {
            data,
            inferred: stats.inferred,
            views: Vec::new(),
        }
    }

    /// Build the next role's view; false once every role has one.
    pub fn add_view(&mut self) -> bool {
        let Some(role) = role_iris().get(self.views.len()).cloned() else {
            return false;
        };
        self.views
            .push(secure_view(&self.data, &policies(), &role).0);
        true
    }

    /// Served triples (base plus entailments).
    pub fn served(&self) -> usize {
        self.data.len()
    }
}

/// A row rendered as `var=term` pairs in variable order.
fn canon(pairs: impl Iterator<Item = (String, String)>) -> String {
    let mut v: Vec<(String, String)> = pairs.collect();
    v.sort();
    v.into_iter()
        .map(|(k, t)| format!("{k}={t}"))
        .collect::<Vec<_>>()
        .join("\u{1f}")
}

/// The canonical rows of a `/query` reply body.
pub fn reply_rows(reply: &Reply) -> Result<Vec<String>, String> {
    let text = std::str::from_utf8(&reply.body).map_err(|e| e.to_string())?;
    let json = Json::parse(text)?;
    if json.get("type") != Some(&Json::Str("select".to_string())) {
        return Err(format!("not a select result: {text:.200}"));
    }
    let Some(Json::Arr(rows)) = json.get("rows") else {
        return Err("select result without rows".to_string());
    };
    rows.iter()
        .map(|row| match row {
            Json::Obj(m) => Ok(canon(m.iter().map(|(k, v)| match v {
                Json::Str(s) => (k.clone(), s.clone()),
                other => (k.clone(), format!("{other:?}")),
            }))),
            _ => Err("row is not an object".to_string()),
        })
        .collect()
}

fn result_rows(result: &QueryResult) -> Vec<String> {
    result
        .select_rows()
        .iter()
        .map(|b| canon(b.iter().map(|(k, t)| (k.clone(), t.to_string()))))
        .collect()
}

/// Compare each HTTP reply with the reference evaluation of its read.
/// Un-sliced queries must match as row multisets; `LIMIT`/`OFFSET`
/// queries must return the sliced row count, every row drawn from the
/// reference's un-sliced result. Returns the digest of the
/// order-normalised replies.
pub fn compare(
    inputs: &Inputs,
    reads: &[Read],
    replies: &[Reply],
    reference: &Reference,
) -> Result<String, String> {
    let mut digest = Digest::default();
    for (r, reply) in reads.iter().zip(replies) {
        let text = inputs.text(*r);
        let mut got = reply_rows(reply)?;
        got.sort();
        let mut query = parse_query(text).map_err(|e| format!("{e}: {text}"))?;
        let (limit, offset) = (query.limit.take(), std::mem::take(&mut query.offset));
        let view = &reference.views[r.role as usize];
        let mut want = result_rows(&execute_query(view, &query));
        want.sort();
        let role = &role_iris()[r.role as usize];
        if limit.is_none() && offset == 0 {
            if got != want {
                return Err(format!(
                    "{role}: {} rows over HTTP, {} in the reference, for {text}",
                    got.len(),
                    want.len()
                ));
            }
        } else {
            let count = want
                .len()
                .saturating_sub(offset)
                .min(limit.unwrap_or(usize::MAX));
            if got.len() != count {
                return Err(format!(
                    "{role}: {} rows over HTTP, {count} expected after slicing, for {text}",
                    got.len()
                ));
            }
            if let Some(row) = got.iter().find(|g| want.binary_search(g).is_err()) {
                return Err(format!(
                    "{role}: row {row:?} is not in the reference for {text}"
                ));
            }
        }
        digest.add(role.as_bytes());
        digest.add(text.as_bytes());
        for row in &got {
            digest.add(row.as_bytes());
        }
    }
    Ok(digest.hex())
}

/// Properties 'main repair' must never receive (List 8).
pub fn forbidden_for_main_repair() -> [String; 2] {
    [grdf::app("hasChemicalInfo"), grdf::app("hasChemCode")]
}

/// Probe queries asking 'main repair' for each forbidden property.
pub fn list8_probes() -> Vec<String> {
    forbidden_for_main_repair()
        .iter()
        .map(|p| format!("SELECT ?s ?o WHERE {{ ?s <{p}> ?o }}"))
        .collect()
}

/// The reference 'main repair' view holds no forbidden property, and the
/// HTTP probe replies carry no rows.
pub fn check_list8(reference: &Reference, probe_replies: &[Reply]) -> Result<(), String> {
    let view = &reference.views[MAIN_REPAIR as usize];
    for p in forbidden_for_main_repair() {
        let pred = Term::iri(&p);
        if view.iter().any(|t| t.predicate == pred) {
            return Err(format!("reference main-repair view holds {p}"));
        }
    }
    for reply in probe_replies {
        let rows = reply_rows(reply)?;
        if !rows.is_empty() {
            return Err(format!(
                "main repair received {} forbidden row(s)",
                rows.len()
            ));
        }
    }
    Ok(())
}
