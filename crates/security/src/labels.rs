//! Label-compilation IR and the whole-policy-set static analyzer.
//!
//! The List-8 policy set plus the role hierarchy (`sec:subRoleOf`)
//! compile into per-triple visibility bitsets over the interned-id graph —
//! the Accumulo/GeoMesa cell-level model. A session resolves its role(s)
//! to an authorization bitset once ([`LabelIr::authorizations`]); a scan
//! then filters with a single bitset intersection per triple.
//!
//! This is G-SACS's only read-enforcement path: [`LabelIr::role_view`]
//! builds the view, its [`ViewStats`] and its [`DecisionTrace`] that the
//! service serves to a role, healthy or degraded.
//!
//! Compilation resolves the *effective* policy set per role up front: a
//! sub-role inherits every ancestor's policies and deny-overrides applies
//! across the merged set, so a role's bit already encodes hierarchy-aware
//! evaluation. The differential verifier
//! ([`LabelIr::verify_label_equivalence`]) proves that label-filtered
//! scans produce exactly the materialized secure views of
//! [`crate::views::secure_view`] for every role.
//!
//! On top of the IR sit four whole-policy-set static passes (surfaced by
//! `grdf-lint` and the G-SACS `LintGate`):
//!
//! * **S007 unreachable-policy** — removing the policy changes no role's
//!   compiled visibility (shadowing at the whole-set level, beyond the
//!   pairwise S003 check).
//! * **S008 contradictory-overlap** — an effective Permit and Deny of one
//!   role collide on a concrete subject in a way the pairwise S001
//!   designator check cannot see (inherited policies, or designators that
//!   only meet on a multi-typed individual).
//! * **S009 entailment-leak** — a role's permitted subgraph plus the
//!   public schema OWL-Horst-entails a triple about a subject that role is
//!   explicitly denied (reusing the semi-naive id-space reasoner).
//! * **S010 non-monotonic-authorization** — a sub-role's effective view
//!   loses a triple its super-role can see.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use grdf_owl::hierarchy::Hierarchy;
use grdf_owl::reasoner::Reasoner;
use grdf_rdf::diagnostic::{Diagnostic, LintCode};
use grdf_rdf::graph::{Graph, TermId};
use grdf_rdf::labels::{LabelColumn, TripleLabels, VisBitset};
use grdf_rdf::term::{Term, Triple};
use grdf_rdf::vocab::{grdf, owl, rdf, rdfs};

use crate::policy::{Action, Condition, Decision, DecisionTrace, PolicySet};
use crate::views::{secure_view, ViewStats};

/// IRI of the role-hierarchy property: `(sub, sec:subRoleOf, super)`.
/// A sub-role inherits every policy of its (transitive) super-roles.
pub fn sub_role_of() -> String {
    grdf::sec("subRoleOf")
}

/// The `sec:subRoleOf` DAG, decoded from the graph. Cycle-safe: a cycle
/// makes the members mutually inherit without looping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoleHierarchy {
    /// sub-role → direct super-roles.
    supers: BTreeMap<String, BTreeSet<String>>,
}

impl RoleHierarchy {
    /// An empty hierarchy (every role stands alone).
    #[must_use]
    pub fn new() -> RoleHierarchy {
        RoleHierarchy::default()
    }

    /// Declare `sub` a sub-role of `sup`.
    pub fn add(&mut self, sub: &str, sup: &str) {
        self.supers
            .entry(sub.to_string())
            .or_default()
            .insert(sup.to_string());
    }

    /// Decode every `sec:subRoleOf` edge in `graph`.
    #[must_use]
    pub fn decode(graph: &Graph) -> RoleHierarchy {
        let mut h = RoleHierarchy::new();
        for t in graph.match_pattern(None, Some(&Term::iri(&sub_role_of())), None) {
            if let (Some(sub), Some(sup)) = (t.subject.as_iri(), t.object.as_iri()) {
                h.add(sub, sup);
            }
        }
        h
    }

    /// Encode the hierarchy as `sec:subRoleOf` triples.
    pub fn encode(&self, graph: &mut Graph) {
        let p = Term::iri(&sub_role_of());
        for (sub, sups) in &self.supers {
            for sup in sups {
                graph.add(Term::iri(sub), p.clone(), Term::iri(sup));
            }
        }
    }

    /// True when no edge is declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.supers.is_empty()
    }

    /// Every declared `(sub, super)` edge, sorted.
    #[must_use]
    pub fn edges(&self) -> Vec<(String, String)> {
        self.supers
            .iter()
            .flat_map(|(sub, sups)| sups.iter().map(move |s| (sub.clone(), s.clone())))
            .collect()
    }

    /// All roles mentioned by any edge, sorted.
    #[must_use]
    pub fn roles(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (sub, sups) in &self.supers {
            out.insert(sub.clone());
            out.extend(sups.iter().cloned());
        }
        out
    }

    /// Transitive super-roles of `role`, excluding itself, sorted.
    #[must_use]
    pub fn ancestors(&self, role: &str) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        queue.push_back(role);
        while let Some(r) = queue.pop_front() {
            if let Some(sups) = self.supers.get(r) {
                for s in sups {
                    if s != role && seen.insert(s.clone()) {
                        queue.push_back(s.as_str());
                    }
                }
            }
        }
        seen
    }
}

/// Precomputed resource-designator relations for a policy set: the named
/// superclass cone and asserted types of each distinct designator IRI.
///
/// [`DesignatorIndex::overlap`] reproduces the legacy pairwise
/// `resources_overlap` semantics (equal, subclass either way, or
/// instance-of either way) with the hierarchy walked once per designator
/// instead of once per policy pair — the pairwise `conflicts` pass and the
/// S008 suppression both route through it.
#[derive(Debug, Clone, Default)]
pub struct DesignatorIndex {
    /// designator → its transitive named superclasses (excluding itself).
    supers: HashMap<String, BTreeSet<String>>,
    /// designator → `{t} ∪ superclasses(t)` for each asserted named type.
    type_cones: HashMap<String, BTreeSet<String>>,
}

impl DesignatorIndex {
    /// Index every distinct resource designator in `policies` against the
    /// (materialized) hierarchy of `data`.
    #[must_use]
    pub fn new(data: &Graph, policies: &PolicySet) -> DesignatorIndex {
        let h = Hierarchy::new(data);
        let mut idx = DesignatorIndex::default();
        for p in &policies.policies {
            let r = p.resource.as_str();
            if idx.supers.contains_key(r) {
                continue;
            }
            let term = Term::iri(r);
            let supers: BTreeSet<String> = h
                .superclasses(&term)
                .iter()
                .filter_map(|t| t.as_iri().map(str::to_string))
                .collect();
            let mut cone = BTreeSet::new();
            for t in h.types_of(&term) {
                if let Some(i) = t.as_iri() {
                    cone.insert(i.to_string());
                }
                for s in h.superclasses(&t) {
                    if let Some(i) = s.as_iri() {
                        cone.insert(i.to_string());
                    }
                }
            }
            idx.supers.insert(r.to_string(), supers);
            idx.type_cones.insert(r.to_string(), cone);
        }
        idx
    }

    /// Whether two designators overlap: equal, one a subclass of the
    /// other, or an instance of the other (either direction).
    #[must_use]
    pub fn overlap(&self, a: &str, b: &str) -> bool {
        if a == b {
            return true;
        }
        let sup_has = |x: &str, y: &str| self.supers.get(x).is_some_and(|s| s.contains(y));
        let cone_has = |x: &str, y: &str| self.type_cones.get(x).is_some_and(|s| s.contains(y));
        sup_has(a, b) || sup_has(b, a) || cone_has(a, b) || cone_has(b, a)
    }
}

/// One policy after compilation: its subject-match set resolved against
/// the graph and its property conditions resolved to a concrete predicate
/// set.
#[derive(Debug, Clone)]
pub struct CompiledPolicy {
    /// Index into the source [`PolicySet`].
    pub index: usize,
    /// Policy IRI.
    pub id: String,
    /// Declaring role IRI.
    pub role: String,
    /// Governed action.
    pub action: Action,
    /// Permit or Deny.
    pub decision: Decision,
    /// The raw resource designator.
    pub resource: String,
    /// Every graph subject the designator matches (instance IRI equality
    /// or a type inside the designator's subclass cone) — all subjects,
    /// not just instances; passes intersect with
    /// [`LabelIr::instance_subjects`] where view semantics demand it.
    pub matches: BTreeSet<TermId>,
    /// `None` for an unconditional policy; `Some(preds)` for a
    /// property-conditioned one (the predicate ids, of those present in
    /// the graph, that satisfy every condition). `rdf:type` is always
    /// visible on matched subjects regardless.
    pub allowed: Option<BTreeSet<TermId>>,
    /// The matches made through a strict subclass of the designator:
    /// subject → the type (in the designator's subclass cone, not the
    /// designator itself) that linked it. Decision traces report these as
    /// inference steps.
    pub via_subclass: BTreeMap<TermId, TermId>,
}

/// What one role's effective policies conclude about one subject.
#[derive(Debug, Clone, Default)]
struct SubjectGrant {
    /// An effective Deny matches: nothing is visible.
    denied: bool,
    /// At least one effective Permit matches (grants at least `rdf:type`).
    any_permit: bool,
    /// An unconditional Permit matches: every predicate visible.
    all_preds: bool,
    /// Predicates granted by conditioned permits.
    preds: BTreeSet<TermId>,
}

impl SubjectGrant {
    fn grants(&self, pred: TermId, type_id: Option<TermId>) -> bool {
        if self.denied || !self.any_permit {
            return false;
        }
        if Some(pred) == type_id {
            return true;
        }
        self.all_preds || self.preds.contains(&pred)
    }
}

/// The compiled label IR: roles, effective policy sets, per-policy match
/// sets, and the per-triple visibility table.
#[derive(Debug, Clone)]
pub struct LabelIr {
    /// Every role, sorted; a role's index is its bit in every
    /// [`VisBitset`].
    pub roles: Vec<String>,
    role_index: HashMap<String, usize>,
    /// The decoded `sec:subRoleOf` hierarchy.
    pub hierarchy: RoleHierarchy,
    /// Compiled policies, in source order.
    pub policies: Vec<CompiledPolicy>,
    /// Per role bit: indices of its effective policies (own plus every
    /// transitive ancestor's), ascending.
    pub effective: Vec<Vec<usize>>,
    /// The per-triple visibility table.
    pub labels: TripleLabels,
    /// The table sealed as a scan-order parallel column over the compile
    /// graph — the filtered scan's zero-hash fast path.
    pub column: LabelColumn,
    /// Subjects that pass the instance test (typed with at least one
    /// non-OWL/RDFS class) and are not blank — the subjects secure views
    /// evaluate policies over.
    pub instance_subjects: BTreeSet<TermId>,
    /// Triples with an IRI predicate about [`LabelIr::instance_subjects`]:
    /// every triple a view grants or suppresses.
    instance_triples: usize,
    /// designator IRI → subject-match cone (the designator plus its
    /// named-path subclass closure), for matching subjects that only
    /// appear in derived graphs.
    cones: HashMap<String, HashSet<Term>>,
    type_id: Option<TermId>,
}

impl LabelIr {
    /// Compile `policies` (plus the `sec:subRoleOf` hierarchy found in
    /// `data`) into per-triple visibility bitsets over `data`. Materialize
    /// `data` first for full semantics-aware matching, exactly as for
    /// [`secure_view`].
    #[must_use]
    pub fn compile(data: &Graph, policies: &PolicySet) -> LabelIr {
        let _span = grdf_obs::span("labels.compile");
        let hierarchy = RoleHierarchy::decode(data);
        let mut role_set: BTreeSet<String> =
            policies.policies.iter().map(|p| p.role.clone()).collect();
        role_set.extend(hierarchy.roles());
        let roles: Vec<String> = role_set.into_iter().collect();
        let role_index: HashMap<String, usize> = roles
            .iter()
            .enumerate()
            .map(|(i, r)| (r.clone(), i))
            .collect();

        // Effective policy set per role: own plus transitive ancestors'.
        let effective: Vec<Vec<usize>> = roles
            .iter()
            .map(|r| {
                let anc = hierarchy.ancestors(r);
                policies
                    .policies
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.role == *r || anc.contains(&p.role))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();

        // Subject-match cones per distinct designator: the designator plus
        // every class reachable downward along named-class paths (blank
        // restriction classes are members but not expanded — mirroring
        // `Hierarchy::is_subclass_of`, whose upward walk only traverses
        // named superclasses).
        let sub_class_of = Term::iri(rdfs::SUB_CLASS_OF);
        let mut cones: HashMap<String, HashSet<Term>> = HashMap::new();
        for p in &policies.policies {
            if cones.contains_key(&p.resource) {
                continue;
            }
            let start = Term::iri(&p.resource);
            let mut cone: HashSet<Term> = HashSet::new();
            cone.insert(start.clone());
            let mut queue: VecDeque<Term> = VecDeque::new();
            queue.push_back(start);
            while let Some(c) = queue.pop_front() {
                for sub in data.subjects(&sub_class_of, &c) {
                    if cone.insert(sub.clone()) && !sub.is_blank() {
                        queue.push_back(sub);
                    }
                }
            }
            cones.insert(p.resource.clone(), cone);
        }

        // Distinct IRI predicates and their transitive superproperties
        // (walked through every parent, blank or named — mirroring the
        // evaluator's `is_subproperty_of`).
        let sub_prop_of = Term::iri(rdfs::SUB_PROPERTY_OF);
        let mut pred_terms: HashMap<TermId, Term> = HashMap::new();
        data.for_each_match_ids(None, None, None, |_, p, _| {
            pred_terms
                .entry(p)
                .or_insert_with(|| data.term_of(p).clone());
        });
        let mut pred_supers: HashMap<TermId, HashSet<String>> = HashMap::new();
        for (pid, pterm) in &pred_terms {
            if pterm.as_iri().is_none() {
                continue;
            }
            let mut supers: HashSet<String> = HashSet::new();
            let mut seen: HashSet<Term> = HashSet::new();
            let mut stack = vec![pterm.clone()];
            while let Some(cur) = stack.pop() {
                for parent in data.objects(&cur, &sub_prop_of) {
                    if let Some(i) = parent.as_iri() {
                        supers.insert(i.to_string());
                    }
                    if seen.insert(parent.clone()) {
                        stack.push(parent);
                    }
                }
            }
            pred_supers.insert(*pid, supers);
        }

        // Compile each policy: subject-match set plus resolved predicate
        // set for its conditions.
        let type_id = data.term_id(&Term::iri(rdf::TYPE));
        let all_subjects = data.all_subjects();
        let mut compiled: Vec<CompiledPolicy> = policies
            .policies
            .iter()
            .enumerate()
            .map(|(index, p)| {
                let allowed = if p.conditions.is_empty() {
                    None
                } else {
                    let mut preds = BTreeSet::new();
                    for (pid, pterm) in &pred_terms {
                        let Some(q) = pterm.as_iri() else { continue };
                        let empty = HashSet::new();
                        let supers = pred_supers.get(pid).unwrap_or(&empty);
                        let ok = p.conditions.iter().all(|c| match c {
                            Condition::PropertyAccess(props) => {
                                props.iter().any(|a| a.as_str() == q || supers.contains(a))
                            }
                        });
                        if ok {
                            preds.insert(*pid);
                        }
                    }
                    Some(preds)
                };
                CompiledPolicy {
                    index,
                    id: p.id.clone(),
                    role: p.role.clone(),
                    action: p.action,
                    decision: p.decision,
                    resource: p.resource.clone(),
                    matches: BTreeSet::new(),
                    allowed,
                    via_subclass: BTreeMap::new(),
                }
            })
            .collect();

        // Instance test and subject-match sets in one subject sweep.
        let mut instance_subjects: BTreeSet<TermId> = BTreeSet::new();
        let mut instance_triples = 0;
        let type_term = Term::iri(rdf::TYPE);
        for subject in &all_subjects {
            let Some(sid) = data.term_id(subject) else {
                continue;
            };
            let types = data.objects(subject, &type_term);
            let is_instance = types.iter().any(|t| {
                t.as_iri()
                    .is_some_and(|i| !i.starts_with(owl::NS) && !i.starts_with(rdfs::NS))
            });
            if is_instance && !subject.is_blank() {
                instance_subjects.insert(sid);
                data.for_each_match_ids(Some(sid), None, None, |_, p, _| {
                    if data.term_of(p).as_iri().is_some() {
                        instance_triples += 1;
                    }
                });
            }
            for (p, c) in policies.policies.iter().zip(compiled.iter_mut()) {
                if subject.as_iri() == Some(p.resource.as_str()) {
                    c.matches.insert(sid);
                    continue;
                }
                // The first type inside the cone decides, as in the
                // evaluator: the designator itself is a direct match, any
                // other cone member a match through a strict subclass.
                let Some(cone) = cones.get(&p.resource) else {
                    continue;
                };
                if let Some(t) = types.iter().find(|t| cone.contains(*t)) {
                    c.matches.insert(sid);
                    if t.as_iri() != Some(p.resource.as_str()) {
                        if let Some(tid) = data.term_id(t) {
                            c.via_subclass.insert(sid, tid);
                        }
                    }
                }
            }
        }

        let mut ir = LabelIr {
            roles,
            role_index,
            hierarchy,
            policies: compiled,
            effective,
            labels: TripleLabels::new(0, data.generation()),
            column: LabelColumn::default(),
            instance_subjects,
            instance_triples,
            cones,
            type_id,
        };
        ir.labels = ir.compile_labels(data);
        ir.column = ir.labels.to_column(data);
        ir
    }

    /// Number of role bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.roles.len()
    }

    /// The bit index of `role`, if it appears in the policy set or
    /// hierarchy.
    #[must_use]
    pub fn role_bit(&self, role: &str) -> Option<usize> {
        self.role_index.get(role).copied()
    }

    /// Resolve a role to its session authorization set. Effective
    /// (hierarchy-resolved, deny-overrides) evaluation is already folded
    /// into the role's own bit at compile time, so the set is a singleton;
    /// unknown roles get the empty set (see nothing).
    #[must_use]
    pub fn authorizations(&self, role: &str) -> VisBitset {
        let mut bits = VisBitset::new(self.width());
        if let Some(b) = self.role_bit(role) {
            bits.set(b);
        }
        bits
    }

    /// Authorization set for a principal holding several roles: the union
    /// of the per-role sets (a triple visible to any held role is
    /// visible).
    #[must_use]
    pub fn authorizations_for(&self, roles: &[&str]) -> VisBitset {
        let mut bits = VisBitset::new(self.width());
        for r in roles {
            if let Some(b) = self.role_bit(r) {
                bits.set(b);
            }
        }
        bits
    }

    /// The grant decision for `(subject, role bit)` under the role's
    /// effective policies, optionally with one policy excluded (the S007
    /// counterfactual). Only `Action::View` policies participate — views
    /// are read-side.
    fn subject_grant(&self, sid: TermId, bit: usize, exclude: Option<usize>) -> SubjectGrant {
        let mut g = SubjectGrant::default();
        for &i in &self.effective[bit] {
            if exclude == Some(i) {
                continue;
            }
            let c = &self.policies[i];
            if c.action != Action::View || !c.matches.contains(&sid) {
                continue;
            }
            match c.decision {
                Decision::Deny => g.denied = true,
                Decision::Permit => {
                    g.any_permit = true;
                    match &c.allowed {
                        None => g.all_preds = true,
                        Some(preds) => g.preds.extend(preds.iter().copied()),
                    }
                }
            }
        }
        g
    }

    /// Compile the per-triple bitset table: direct grants over instance
    /// subjects, then blank-subtree reachability propagation (granted
    /// object properties pull their helper subtrees per role, exactly as
    /// [`secure_view`] does).
    fn compile_labels(&self, data: &Graph) -> TripleLabels {
        let width = self.width();
        let mut triple_bits: BTreeMap<(TermId, TermId, TermId), VisBitset> = BTreeMap::new();
        for &sid in &self.instance_subjects {
            let grants: Vec<(usize, SubjectGrant)> = (0..width)
                .map(|b| (b, self.subject_grant(sid, b, None)))
                .filter(|(_, g)| g.any_permit && !g.denied)
                .collect();
            if grants.is_empty() {
                continue;
            }
            data.for_each_match_ids(Some(sid), None, None, |s, p, o| {
                if data.term_of(p).as_iri().is_none() {
                    return;
                }
                let mut bits = VisBitset::new(width);
                let mut any = false;
                for (b, g) in &grants {
                    if g.grants(p, self.type_id) {
                        bits.set(*b);
                        any = true;
                    }
                }
                if any {
                    triple_bits.insert((s, p, o), bits);
                }
            });
        }

        // Blank-subtree propagation fixpoint: a blank object of a visible
        // triple exposes its whole subtree to the same roles.
        let mut node_bits: HashMap<TermId, VisBitset> = HashMap::new();
        let mut worklist: Vec<(TermId, VisBitset)> = Vec::new();
        for ((_, _, o), bits) in &triple_bits {
            if data.term_of(*o).is_blank() {
                worklist.push((*o, bits.clone()));
            }
        }
        while let Some((node, bits)) = worklist.pop() {
            let entry = node_bits
                .entry(node)
                .or_insert_with(|| VisBitset::new(width));
            if !entry.union_with(&bits) {
                continue; // no new bits: subtree already propagated
            }
            let current = entry.clone();
            data.for_each_match_ids(Some(node), None, None, |_, _, o| {
                if data.term_of(o).is_blank() {
                    worklist.push((o, current.clone()));
                }
            });
        }
        for (node, bits) in &node_bits {
            data.for_each_match_ids(Some(*node), None, None, |s, p, o| {
                triple_bits
                    .entry((s, p, o))
                    .or_insert_with(|| VisBitset::new(width))
                    .union_with(bits);
            });
        }

        let mut labels = TripleLabels::new(width, data.generation());
        for ((s, p, o), bits) in &triple_bits {
            labels.insert(*s, *p, *o, bits);
        }
        labels
    }

    /// The id-triples of `data` visible under `auths`, sorted by subject.
    fn visible_ids(&self, data: &Graph, auths: &VisBitset) -> Vec<(TermId, TermId, TermId)> {
        // Columnar fast path: when `data` is still the graph the labels
        // were compiled against, the parallel column yields the visible
        // id-triples with one class intersection per label class and one
        // column load per scanned triple.
        if self.column.matches(data) {
            return self.column.visible_ids(data, auths);
        }
        self.labels
            .iter()
            .filter(|&(_, id)| self.labels.class(id).is_some_and(|b| b.intersects(auths)))
            .map(|(&ids, _)| ids)
            .collect()
    }

    /// Scan-time filter: the subgraph of `data` visible under `auths`.
    /// Proven equal to [`secure_view`] over the role's effective policy
    /// set by [`LabelIr::verify_label_equivalence`].
    #[must_use]
    pub fn filtered_view(&self, data: &Graph, auths: &VisBitset) -> Graph {
        materialize_ids(data, &self.visible_ids(data, auths))
    }

    /// The view G-SACS serves `role`, with its statistics and decision
    /// trace, from one pass over the labels of `data` (the graph the IR
    /// was compiled from). The caller stamps the trace id.
    ///
    /// `degraded` means `data` is the un-inferred base: a role whose
    /// effective policy set holds a Deny of any action then sees nothing,
    /// since a deny may rely on missing entailments (one on a superclass
    /// must catch instances typed only with a subclass). Permit-only roles
    /// keep their labels, which are already conservative there: permits
    /// that need inference do not fire. `tests/prop_labels.rs` proves this
    /// equal to [`crate::views::conservative_view`].
    #[must_use]
    pub fn role_view(
        &self,
        data: &Graph,
        role: &str,
        degraded: bool,
    ) -> (Graph, ViewStats, DecisionTrace) {
        let _span = grdf_obs::span("view.build").tag("role", role);
        let effective: Vec<&CompiledPolicy> = self
            .role_bit(role)
            .map(|b| {
                self.effective[b]
                    .iter()
                    .map(|&i| &self.policies[i])
                    .collect()
            })
            .unwrap_or_default();
        let mut trace = DecisionTrace {
            role: role.to_string(),
            consulted: effective.iter().map(|c| c.id.clone()).collect(),
            degraded,
            ..DecisionTrace::default()
        };
        let denies = || effective.iter().filter(|c| c.decision == Decision::Deny);
        if degraded && denies().next().is_some() {
            grdf_obs::incr("view.conservative_empty");
            trace.denying = denies().map(|c| c.id.clone()).collect();
            trace.inference = vec![
                "reasoner unavailable: deny policies may depend on missing entailments".to_string(),
            ];
            trace.suppressed = data.len();
            let stats = ViewStats {
                suppressed: data.len(),
                ..ViewStats::default()
            };
            return (Graph::new(), stats, trace);
        }

        let ids = self.visible_ids(data, &self.authorizations(role));
        // Direct grants are exactly the visible triples about instance
        // subjects (never blank); the rest are pulled-in helper subtrees.
        let mut granted: Vec<TermId> = ids
            .iter()
            .map(|&(s, _, _)| s)
            .filter(|&s| !data.term_of(s).is_blank())
            .collect();
        trace.granted = granted.len();
        trace.suppressed = self.instance_triples - trace.granted;
        granted.dedup(); // `ids` are sorted by subject
        let stats = ViewStats {
            granted: trace.granted,
            suppressed: trace.suppressed,
            unmatched_subjects: self.instance_subjects.len() - granted.len(),
        };
        self.fill_trace(data, &effective, &mut trace);
        grdf_obs::incr("view.builds");
        grdf_obs::add("view.granted", stats.granted as u64);
        grdf_obs::add("view.suppressed", stats.suppressed as u64);
        (materialize_ids(data, &ids), stats, trace)
    }

    /// Fill `trace`'s `permitting`, `denying` and `inference` from a role's
    /// `effective` policies. A View permit is listed when it grants a
    /// visible triple: it designates an instance subject that no effective
    /// View deny designates (that subject's `rdf:type` is then visible
    /// through it). A View deny is listed when it designates an instance
    /// subject. Both lists are in the order a subject-by-subject,
    /// triple-by-triple scan meets them first; each inference step
    /// (`"{type} rdfs:subClassOf* {designator}"`) names the subclass behind
    /// such a match, once.
    fn fill_trace(&self, data: &Graph, effective: &[&CompiledPolicy], trace: &mut DecisionTrace) {
        let instance = |sid: &TermId| self.instance_subjects.contains(sid);
        let view = || effective.iter().filter(|c| c.action == Action::View);
        let denied: BTreeSet<TermId> = view()
            .filter(|c| c.decision == Decision::Deny)
            .flat_map(|c| c.matches.iter().copied().filter(|s| instance(s)))
            .collect();
        // (first subject, its first triple the policy decides, policy index)
        let mut fired = Vec::new();
        let mut steps = Vec::new();
        for c in view() {
            let deny = c.decision == Decision::Deny;
            let counts = |sid: &TermId| instance(sid) && (deny || !denied.contains(sid));
            let Some(&first) = c.matches.iter().find(|s| counts(s)) else {
                continue;
            };
            let mut decided = Vec::new();
            data.for_each_match_ids(Some(first), None, None, |_, p, _| {
                decided.push(
                    data.term_of(p).as_iri().is_some()
                        && (deny
                            || Some(p) == self.type_id
                            || c.allowed.as_ref().is_none_or(|a| a.contains(&p))),
                );
            });
            fired.push(((first, decided.iter().position(|&d| d), c.index), *c));
            for (sid, ty) in c.via_subclass.iter().filter(|(s, _)| counts(s)) {
                let ty = data.term_of(*ty).as_iri().unwrap_or("_");
                steps.push((
                    (*sid, c.index),
                    format!("{ty} rdfs:subClassOf* {}", c.resource),
                ));
            }
        }
        fired.sort_by_key(|(k, _)| *k);
        steps.sort_by_key(|(k, _)| *k);
        for (_, c) in fired {
            let list = match c.decision {
                Decision::Permit => &mut trace.permitting,
                Decision::Deny => &mut trace.denying,
            };
            if !list.contains(&c.id) {
                list.push(c.id.clone());
            }
        }
        for (_, step) in steps {
            if !trace.inference.contains(&step) {
                trace.inference.push(step);
            }
        }
    }

    /// The role's *effective* policy set: its own policies plus every
    /// transitive ancestor's, re-tagged to the role so the legacy
    /// evaluator applies them — the reference semantics the label table
    /// must reproduce.
    #[must_use]
    pub fn effective_policy_set(&self, policies: &PolicySet, role: &str) -> PolicySet {
        let anc = self.hierarchy.ancestors(role);
        PolicySet::new(
            policies
                .policies
                .iter()
                .filter(|p| p.role == role || anc.contains(&p.role))
                .map(|p| {
                    let mut p = p.clone();
                    p.role = role.to_string();
                    p
                })
                .collect(),
        )
    }

    /// Differential verifier: for every compiled role, prove
    /// label-filtered scanning ≡ the materialized secure view over the
    /// role's effective policy set. Returns one human-readable divergence
    /// description per mismatching triple (empty = equivalent).
    #[must_use]
    pub fn verify_label_equivalence(&self, data: &Graph, policies: &PolicySet) -> Vec<String> {
        let mut out = Vec::new();
        for role in &self.roles {
            let eff = self.effective_policy_set(policies, role);
            let (expected, _) = secure_view(data, &eff, role);
            let actual = self.filtered_view(data, &self.authorizations(role));
            let want: BTreeSet<Triple> = expected.iter().collect();
            let got: BTreeSet<Triple> = actual.iter().collect();
            for t in want.difference(&got) {
                out.push(format!(
                    "role {role}: label filter hides {t} (view shows it)"
                ));
            }
            for t in got.difference(&want) {
                out.push(format!(
                    "role {role}: label filter leaks {t} (view hides it)"
                ));
            }
        }
        out
    }

    /// Does any effective deny of `bit` match `subject` (by compiled match
    /// set, or — for subjects only present in derived graphs — by IRI
    /// equality or a type in the deny's designator cone)? Returns the
    /// matching deny policy ids.
    fn denies_matching(
        &self,
        bit: usize,
        sid: Option<TermId>,
        subject: &Term,
        types: &[Term],
    ) -> Vec<&CompiledPolicy> {
        self.effective[bit]
            .iter()
            .map(|&i| &self.policies[i])
            .filter(|c| c.action == Action::View && c.decision == Decision::Deny)
            .filter(|c| {
                if let Some(sid) = sid {
                    if c.matches.contains(&sid) {
                        return true;
                    }
                }
                subject.as_iri() == Some(c.resource.as_str())
                    || types.iter().any(|t| {
                        self.cones
                            .get(&c.resource)
                            .is_some_and(|cone| cone.contains(t))
                    })
            })
            .collect()
    }

    /// The public schema subgraph: what any adversary is assumed to know
    /// regardless of policy — ontology axioms (RDF/RDFS/OWL-namespace
    /// predicates) about non-instance subjects (classes, properties,
    /// restriction blanks). Instance data, including hidden helper
    /// subtrees, is excluded.
    fn schema_graph(&self, data: &Graph) -> Graph {
        let mut schema = Graph::new();
        let type_term = Term::iri(rdf::TYPE);
        for t in data.iter() {
            let Some(p) = t.predicate.as_iri() else {
                continue;
            };
            if !(p.starts_with(rdf::NS) || p.starts_with(rdfs::NS) || p.starts_with(owl::NS)) {
                continue;
            }
            let is_instance = data.objects(&t.subject, &type_term).iter().any(|ty| {
                ty.as_iri()
                    .is_some_and(|i| !i.starts_with(owl::NS) && !i.starts_with(rdfs::NS))
            });
            if !is_instance {
                schema.insert(t);
            }
        }
        schema
    }

    /// Run every whole-policy-set static pass (S007–S010) over the
    /// compiled IR. `data` must be the graph the IR was compiled from.
    #[must_use]
    pub fn static_diagnostics(&self, data: &Graph, policies: &PolicySet) -> Vec<Diagnostic> {
        let mut out = self.unreachable_policies(data, policies);
        out.extend(self.contradictory_overlaps(data, policies));
        out.extend(self.entailment_leaks(data));
        out.extend(self.non_monotonic_authorizations());
        out
    }

    /// S007: policies whose removal changes no role's compiled
    /// visibility. Policies already implicated in a pairwise conflict
    /// (S001/S003/S004) are skipped — those findings explain the dead rule
    /// better.
    fn unreachable_policies(&self, data: &Graph, policies: &PolicySet) -> Vec<Diagnostic> {
        let mut in_pairwise: HashSet<String> = HashSet::new();
        for c in crate::conflicts::detect_conflicts(data, policies) {
            match c {
                crate::conflicts::PolicyConflict::PermitDenyOverlap { permit, deny, .. } => {
                    in_pairwise.insert(permit);
                    in_pairwise.insert(deny);
                }
                crate::conflicts::PolicyConflict::ShadowedRestriction {
                    broad, restricted, ..
                } => {
                    in_pairwise.insert(broad);
                    in_pairwise.insert(restricted);
                }
                crate::conflicts::PolicyConflict::DuplicateId { id } => {
                    in_pairwise.insert(id);
                }
            }
        }
        let mut out = Vec::new();
        for c in &self.policies {
            if c.action != Action::View || in_pairwise.contains(&c.id) {
                continue;
            }
            let matched: Vec<TermId> = c
                .matches
                .iter()
                .copied()
                .filter(|s| self.instance_subjects.contains(s))
                .collect();
            if matched.is_empty() {
                continue; // S002's territory: the designator matches nothing.
            }
            // Roles whose effective set contains this policy.
            let affected: Vec<usize> = (0..self.width())
                .filter(|&b| self.effective[b].contains(&c.index))
                .collect();
            // A deny with no permit anywhere on its territory is merely
            // redundant with deny-by-default — defensive, not dead (and
            // the S009 leak pass needs such denies to state intent).
            if c.decision == Decision::Deny {
                let any_permit = affected.iter().any(|&b| {
                    matched
                        .iter()
                        .any(|&sid| self.subject_grant(sid, b, None).any_permit)
                });
                if !any_permit {
                    continue;
                }
            }
            let mut changes_something = false;
            'roles: for &b in &affected {
                for &sid in &matched {
                    let with = self.subject_grant(sid, b, None);
                    let without = self.subject_grant(sid, b, Some(c.index));
                    let mut differs = false;
                    data.for_each_match_ids(Some(sid), None, None, |_, p, _| {
                        if differs || data.term_of(p).as_iri().is_none() {
                            return;
                        }
                        if with.grants(p, self.type_id) != without.grants(p, self.type_id) {
                            differs = true;
                        }
                    });
                    if differs {
                        changes_something = true;
                        break 'roles;
                    }
                }
            }
            if !changes_something {
                out.push(
                    Diagnostic::new(
                        LintCode::UnreachablePolicy,
                        Term::iri(&c.id),
                        format!(
                            "removing this {} for role {} changes no compiled visibility: \
                             the rest of the policy set already decides every triple it touches",
                            decision_word(c.decision),
                            c.role
                        ),
                    )
                    .with_related(vec![Term::iri(&c.role)])
                    .with_suggestion("delete the policy, or narrow the policies that shadow it"),
                );
            }
        }
        out
    }

    /// S008: effective Permit/Deny collisions on a concrete subject that
    /// the pairwise designator check (S001) cannot see.
    fn contradictory_overlaps(&self, data: &Graph, policies: &PolicySet) -> Vec<Diagnostic> {
        let idx = DesignatorIndex::new(data, policies);
        // (permit id, deny id, role) → best witness subject.
        let mut hits: BTreeMap<(String, String, String), Term> = BTreeMap::new();
        for (b, role) in self.roles.iter().enumerate() {
            for &sid in &self.instance_subjects {
                let eff: Vec<&CompiledPolicy> = self.effective[b]
                    .iter()
                    .map(|&i| &self.policies[i])
                    .filter(|c| c.matches.contains(&sid))
                    .collect();
                for p in eff.iter().filter(|c| c.decision == Decision::Permit) {
                    for d in eff.iter().filter(|c| c.decision == Decision::Deny) {
                        if p.action != d.action {
                            continue;
                        }
                        // The pairwise pass already reports same-role
                        // designator overlaps as S001.
                        if p.role == d.role && idx.overlap(&p.resource, &d.resource) {
                            continue;
                        }
                        let key = (p.id.clone(), d.id.clone(), role.clone());
                        let subject = data.term_of(sid).clone();
                        let best = hits.entry(key).or_insert_with(|| subject.clone());
                        if subject < *best {
                            *best = subject;
                        }
                    }
                }
            }
        }
        hits.into_iter()
            .map(|((permit, deny, role), witness)| {
                Diagnostic::new(
                    LintCode::ContradictoryOverlap,
                    Term::iri(&permit),
                    format!(
                        "role {role}: effective permit contradicts deny {deny} on {witness} \
                         (invisible to the pairwise designator check)"
                    ),
                )
                .with_related(vec![Term::iri(&deny), Term::iri(&role), witness])
                .with_suggestion(
                    "split the designators so the collision is explicit, or drop one rule",
                )
            })
            .collect()
    }

    /// S009: for every deny-bearing role, materialize its permitted view
    /// plus the public schema with the OWL-Horst reasoner and flag derived
    /// triples about subjects the role is explicitly denied.
    pub fn entailment_leaks(&self, data: &Graph) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let type_term = Term::iri(rdf::TYPE);
        let schema = self.schema_graph(data);
        for (b, role) in self.roles.iter().enumerate() {
            let has_deny = self.effective[b].iter().any(|&i| {
                let c = &self.policies[i];
                c.action == Action::View && c.decision == Decision::Deny
            });
            if !has_deny {
                continue;
            }
            let mut adversary = self.filtered_view(data, &self.authorizations(role));
            let baseline: HashSet<Triple> = adversary.iter().chain(schema.iter()).collect();
            adversary.extend_from(&schema);
            Reasoner::default().materialize(&mut adversary);
            // deny policy id → sorted witness triples.
            let mut leaks: BTreeMap<String, BTreeSet<Triple>> = BTreeMap::new();
            for t in adversary.iter() {
                if baseline.contains(&t) {
                    continue;
                }
                // Already visible in the full graph's labels? Not hidden.
                if let (Some(s), Some(p), Some(o)) = (
                    data.term_id(&t.subject),
                    data.term_id(&t.predicate),
                    data.term_id(&t.object),
                ) {
                    if self.labels.visible(s, p, o, &self.authorizations(role)) {
                        continue;
                    }
                }
                let sid = data.term_id(&t.subject);
                let types = adversary.objects(&t.subject, &type_term);
                for d in self.denies_matching(b, sid, &t.subject, &types) {
                    leaks.entry(d.id.clone()).or_default().insert(t.clone());
                }
            }
            for (deny, witnesses) in leaks {
                let first = witnesses.iter().next().expect("non-empty");
                out.push(
                    Diagnostic::new(
                        LintCode::EntailmentLeak,
                        Term::iri(&deny),
                        format!(
                            "role {role}: permitted view OWL-Horst-entails {} denied triple(s) \
                             about subjects this deny protects, e.g. {first}",
                            witnesses.len()
                        ),
                    )
                    .with_related(vec![Term::iri(role), first.subject.clone()])
                    .with_suggestion(
                        "deny the entailing properties too, or widen the deny to cover the \
                         premises the reasoner combines",
                    ),
                );
            }
        }
        out
    }

    /// S010: `sec:subRoleOf` edges where the sub-role's effective view
    /// loses triples the super-role can see.
    fn non_monotonic_authorizations(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (sub, sup) in self.hierarchy.edges() {
            let (Some(sub_bit), Some(sup_bit)) = (self.role_bit(&sub), self.role_bit(&sup)) else {
                continue;
            };
            let mut lost = 0usize;
            for (_, id) in self.labels.iter() {
                if let Some(bits) = self.labels.class(id) {
                    if bits.get(sup_bit) && !bits.get(sub_bit) {
                        lost += 1;
                    }
                }
            }
            if lost > 0 {
                out.push(
                    Diagnostic::new(
                        LintCode::NonMonotonicAuthorization,
                        Term::iri(&sub),
                        format!(
                            "sub-role loses {lost} triple(s) its super-role {sup} can see: \
                             an explicit deny cuts inherited visibility"
                        ),
                    )
                    .with_related(vec![Term::iri(&sup)])
                    .with_suggestion(
                        "if the deny is intentional, detach the role from the hierarchy; \
                         otherwise drop the deny",
                    ),
                );
            }
        }
        out
    }

    /// Explain why `(subject, predicate, object)` is visible, hidden, or
    /// leaked for `role` — the engine behind `grdf-cli labels explain`.
    #[must_use]
    pub fn explain(&self, data: &Graph, role: &str, triple: &Triple) -> Explanation {
        let mut notes = Vec::new();
        let ids = (
            data.term_id(&triple.subject),
            data.term_id(&triple.predicate),
            data.term_id(&triple.object),
        );
        let in_graph = match ids {
            (Some(s), Some(p), Some(o)) => data.has_ids(s, p, o),
            _ => false,
        };
        let viewers: Vec<String> = match ids {
            (Some(s), Some(p), Some(o)) => self
                .labels
                .bits_of(s, p, o)
                .map(|bits| {
                    bits.iter_ones()
                        .into_iter()
                        .filter_map(|b| self.roles.get(b).cloned())
                        .collect()
                })
                .unwrap_or_default(),
            _ => Vec::new(),
        };
        let bit = self.role_bit(role);
        let visible = match (bit, ids) {
            (Some(b), (Some(s), Some(p), Some(o))) => {
                self.labels.bits_of(s, p, o).is_some_and(|x| x.get(b))
            }
            _ => false,
        };

        if let Some(b) = bit {
            let sid = ids.0;
            for &i in &self.effective[b] {
                let c = &self.policies[i];
                if c.action != Action::View {
                    continue;
                }
                let matched = sid.is_some_and(|s| c.matches.contains(&s));
                let inherited = if c.role == role {
                    String::new()
                } else {
                    format!(" (inherited from {})", c.role)
                };
                if !matched {
                    notes.push(format!(
                        "{} {}{} on {}: subject not designated",
                        decision_word(c.decision),
                        c.id,
                        inherited,
                        c.resource
                    ));
                    continue;
                }
                let pred_note = match (&c.decision, &c.allowed, ids.1) {
                    (Decision::Deny, _, _) => "matches subject: hides everything".to_string(),
                    (Decision::Permit, None, _) => {
                        "matches subject, unconditional: predicate allowed".to_string()
                    }
                    (Decision::Permit, Some(preds), Some(pid)) => {
                        if Some(pid) == self.type_id || preds.contains(&pid) {
                            "matches subject: predicate allowed by conditions".to_string()
                        } else {
                            "matches subject but conditions exclude this predicate".to_string()
                        }
                    }
                    (Decision::Permit, Some(_), None) => {
                        "matches subject; predicate unknown to the graph".to_string()
                    }
                };
                notes.push(format!(
                    "{} {}{}: {}",
                    decision_word(c.decision),
                    c.id,
                    inherited,
                    pred_note
                ));
            }
        } else {
            notes.push(format!("role {role} has no policies and no hierarchy edge"));
        }

        let verdict = if visible {
            format!("VISIBLE to {role}")
        } else if bit.is_none() {
            "HIDDEN: unknown role (deny-by-default)".to_string()
        } else if !in_graph {
            "HIDDEN: triple not in the graph".to_string()
        } else if ids.0.is_some_and(|s| !self.instance_subjects.contains(&s)) && !viewers.is_empty()
        {
            "HIDDEN: blank-subtree triple not reachable from this role's grants".to_string()
        } else if ids.0.is_some_and(|s| !self.instance_subjects.contains(&s)) {
            "HIDDEN: subject is not an instance (schema or helper node)".to_string()
        } else {
            "HIDDEN: denied or deny-by-default (see policy notes)".to_string()
        };

        // Leak probe: can the role derive the hidden triple anyway?
        let mut leak = None;
        if let Some(b) = bit.filter(|_| !visible) {
            let mut adversary = self.filtered_view(data, &self.authorizations(role));
            adversary.extend_from(&self.schema_graph(data));
            let before = adversary.contains(triple);
            Reasoner::default().materialize(&mut adversary);
            if !before && adversary.contains(triple) {
                let types = adversary.objects(&triple.subject, &Term::iri(rdf::TYPE));
                let denies = self.denies_matching(b, ids.0, &triple.subject, &types);
                leak = Some(if denies.is_empty() {
                    "LEAKED: derivable from the permitted view via OWL-Horst \
                     (not explicitly denied — tighten S002/S006 coverage)"
                        .to_string()
                } else {
                    format!(
                        "LEAKED: derivable from the permitted view via OWL-Horst although \
                         explicitly denied by {}",
                        denies
                            .iter()
                            .map(|d| d.id.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                });
            }
        }

        Explanation {
            role: role.to_string(),
            triple: triple.clone(),
            in_graph,
            visible,
            viewers,
            notes,
            verdict,
            leak,
        }
    }
}

/// Copy the id-triples `ids` of `data` into a graph of their terms.
fn materialize_ids(data: &Graph, ids: &[(TermId, TermId, TermId)]) -> Graph {
    let mut view = Graph::new();
    view.extend_triples(ids.iter().map(|&(s, p, o)| {
        Triple::new(
            data.term_of(s).clone(),
            data.term_of(p).clone(),
            data.term_of(o).clone(),
        )
    }));
    view
}

fn decision_word(d: Decision) -> &'static str {
    match d {
        Decision::Permit => "permit",
        Decision::Deny => "deny",
    }
}

/// The structured answer of [`LabelIr::explain`].
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The role asked about.
    pub role: String,
    /// The triple asked about.
    pub triple: Triple,
    /// Whether the triple exists in the graph.
    pub in_graph: bool,
    /// Whether the role's authorization bit is set on the triple's label.
    pub visible: bool,
    /// Every role that can see the triple.
    pub viewers: Vec<String>,
    /// Per-policy account of the effective set.
    pub notes: Vec<String>,
    /// One-line outcome.
    pub verdict: String,
    /// Set when the triple is hidden but derivable from the role's
    /// permitted view (the S009 condition, per-triple).
    pub leak: Option<String>,
}

impl Explanation {
    /// Multi-line human-readable rendering.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "triple:  {}", self.triple);
        let _ = writeln!(
            out,
            "         {}",
            if self.in_graph {
                "present in graph"
            } else {
                "NOT present in graph"
            }
        );
        let _ = writeln!(out, "role:    {}", self.role);
        if self.viewers.is_empty() {
            let _ = writeln!(out, "label:   (unlabeled: hidden from every role)");
        } else {
            let _ = writeln!(out, "label:   visible to {}", self.viewers.join(", "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "policy:  {n}");
        }
        let _ = writeln!(out, "verdict: {}", self.verdict);
        if let Some(l) = &self.leak {
            let _ = writeln!(out, "leak:    {l}");
        }
        out
    }
}

/// Compile the IR and run every whole-policy-set pass (S007–S010) — the
/// entry point `grdf-lint`'s policy pass and the G-SACS gate call.
#[must_use]
pub fn diagnostics(data: &Graph, policies: &PolicySet) -> Vec<Diagnostic> {
    if policies.policies.is_empty() {
        return Vec::new();
    }
    let ir = LabelIr::compile(data, policies);
    ir.static_diagnostics(data, policies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use grdf_rdf::vocab::grdf;

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }

    fn t(s: &Term, p: &str, o: &Term) -> Triple {
        Triple::new(s.clone(), iri(p), o.clone())
    }

    /// §7.1-style data: a chemical site with name/code/extent and a
    /// stream, plus class declarations.
    fn incident_data() -> Graph {
        let mut g = Graph::new();
        for c in ["ChemSite", "Stream"] {
            g.add(
                iri(&grdf::app(c)),
                iri(rdf::TYPE),
                iri(grdf_rdf::vocab::owl::CLASS),
            );
        }
        let site = iri(&grdf::app("NTEnergy"));
        g.add(site.clone(), iri(rdf::TYPE), iri(&grdf::app("ChemSite")));
        g.add(
            site.clone(),
            iri(&grdf::app("hasSiteName")),
            Term::string("NT Energy"),
        );
        g.add(
            site.clone(),
            iri(&grdf::app("hasChemCode")),
            Term::string("121NR"),
        );
        g.add(
            site,
            iri(&grdf::iri("isBoundedBy")),
            Term::string("0,0 10,10"),
        );
        let stream = iri(&grdf::app("WhiteRock"));
        g.add(stream.clone(), iri(rdf::TYPE), iri(&grdf::app("Stream")));
        g.add(
            stream,
            iri(&grdf::app("hasObjectID")),
            Term::string("11070"),
        );
        g
    }

    fn main_rep_policies() -> PolicySet {
        PolicySet::new(vec![
            Policy::permit_properties(
                &grdf::sec("MainRepPolicy1"),
                &grdf::sec("MainRep"),
                &grdf::app("ChemSite"),
                &[&grdf::iri("isBoundedBy")],
            ),
            Policy::permit(
                &grdf::sec("MainRepPolicy2"),
                &grdf::sec("MainRep"),
                &grdf::app("Stream"),
            ),
        ])
    }

    #[test]
    fn compiled_labels_match_secure_views() {
        let data = incident_data();
        let ps = main_rep_policies();
        let ir = LabelIr::compile(&data, &ps);
        assert!(ir.verify_label_equivalence(&data, &ps).is_empty());
        // Spot checks: extent visible, chemistry hidden.
        let auth = ir.authorizations(&grdf::sec("MainRep"));
        let view = ir.filtered_view(&data, &auth);
        let site = iri(&grdf::app("NTEnergy"));
        assert!(view.contains(&t(
            &site,
            &grdf::iri("isBoundedBy"),
            &Term::string("0,0 10,10")
        )));
        assert!(!view.contains(&t(&site, &grdf::app("hasChemCode"), &Term::string("121NR"))));
        assert!(view.contains(&t(&site, rdf::TYPE, &iri(&grdf::app("ChemSite")))));
    }

    #[test]
    fn unknown_role_has_empty_authorizations() {
        let data = incident_data();
        let ir = LabelIr::compile(&data, &main_rep_policies());
        let auth = ir.authorizations("urn:nobody");
        assert!(auth.is_empty());
        assert_eq!(ir.filtered_view(&data, &auth).len(), 0);
    }

    #[test]
    fn multi_role_authorizations_union() {
        let data = incident_data();
        let mut ps = main_rep_policies();
        ps.push(Policy::permit(
            &grdf::sec("HazPolicy"),
            &grdf::sec("Hazmat"),
            &grdf::app("ChemSite"),
        ));
        let ir = LabelIr::compile(&data, &ps);
        let both = ir.authorizations_for(&[&grdf::sec("MainRep"), &grdf::sec("Hazmat")]);
        let view = ir.filtered_view(&data, &both);
        let site = iri(&grdf::app("NTEnergy"));
        // Hazmat's unconditional grant exposes the chem code; MainRep adds
        // the stream.
        assert!(view.contains(&t(&site, &grdf::app("hasChemCode"), &Term::string("121NR"))));
        assert!(view.contains(&t(
            &iri(&grdf::app("WhiteRock")),
            &grdf::app("hasObjectID"),
            &Term::string("11070")
        )));
    }

    #[test]
    fn sub_role_inherits_and_deny_overrides() {
        let mut data = incident_data();
        let mut rh = RoleHierarchy::new();
        rh.add(&grdf::sec("Intern"), &grdf::sec("MainRep"));
        rh.encode(&mut data);
        let mut ps = main_rep_policies();
        ps.push(Policy::deny(
            &grdf::sec("InternDeny"),
            &grdf::sec("Intern"),
            &grdf::app("ChemSite"),
        ));
        let ir = LabelIr::compile(&data, &ps);
        // The differential verifier holds with hierarchy in play.
        assert!(ir.verify_label_equivalence(&data, &ps).is_empty());
        let intern = ir.filtered_view(&data, &ir.authorizations(&grdf::sec("Intern")));
        let site = iri(&grdf::app("NTEnergy"));
        // Inherited stream permit works; own deny cuts the site.
        assert!(intern.contains(&t(
            &iri(&grdf::app("WhiteRock")),
            &grdf::app("hasObjectID"),
            &Term::string("11070")
        )));
        assert!(!intern.contains(&t(
            &site,
            &grdf::iri("isBoundedBy"),
            &Term::string("0,0 10,10")
        )));
        // And S010 flags the lost visibility.
        let diags = ir.static_diagnostics(&data, &ps);
        assert!(
            diags
                .iter()
                .any(|d| d.code == LintCode::NonMonotonicAuthorization),
            "{diags:?}"
        );
    }

    #[test]
    fn s007_flags_duplicate_permits() {
        let data = incident_data();
        let ps = PolicySet::new(vec![
            Policy::permit("urn:a", &grdf::sec("R"), &grdf::app("Stream")),
            Policy::permit("urn:b", &grdf::sec("R"), &grdf::app("Stream")),
        ]);
        let diags = diagnostics(&data, &ps);
        let s007: Vec<_> = diags
            .iter()
            .filter(|d| d.code == LintCode::UnreachablePolicy)
            .collect();
        assert_eq!(
            s007.len(),
            2,
            "both duplicates are individually dead: {diags:?}"
        );
    }

    #[test]
    fn s007_silent_on_distinct_grants() {
        let data = incident_data();
        let diags = diagnostics(&data, &main_rep_policies());
        assert!(
            !diags.iter().any(|d| d.code == LintCode::UnreachablePolicy),
            "{diags:?}"
        );
    }

    #[test]
    fn s008_fires_on_multi_typed_individual() {
        let mut data = incident_data();
        // x is both a Stream and a ChemSite; permit Stream + deny ChemSite
        // for one role never designator-overlap (unrelated classes), but
        // collide on x.
        let x = iri(&grdf::app("Mixed"));
        data.add(x.clone(), iri(rdf::TYPE), iri(&grdf::app("Stream")));
        data.add(x.clone(), iri(rdf::TYPE), iri(&grdf::app("ChemSite")));
        data.add(x, iri(&grdf::app("hasObjectID")), Term::string("7"));
        let ps = PolicySet::new(vec![
            Policy::permit("urn:permitStream", &grdf::sec("R"), &grdf::app("Stream")),
            Policy::deny("urn:denyChem", &grdf::sec("R"), &grdf::app("ChemSite")),
        ]);
        let diags = diagnostics(&data, &ps);
        assert!(
            diags
                .iter()
                .any(|d| d.code == LintCode::ContradictoryOverlap),
            "{diags:?}"
        );
        // The labels still resolve deny-overrides correctly.
        let ir = LabelIr::compile(&data, &ps);
        assert!(ir.verify_label_equivalence(&data, &ps).is_empty());
    }

    #[test]
    fn s009_catches_range_entailment_leak() {
        let mut data = incident_data();
        // feeds has range ChemSite; the stream feeds NTEnergy. A role
        // permitted the stream derives NTEnergy's type though ChemSite is
        // denied.
        data.add(
            iri(&grdf::app("feeds")),
            iri(rdfs::RANGE),
            iri(&grdf::app("ChemSite")),
        );
        data.add(
            iri(&grdf::app("WhiteRock")),
            iri(&grdf::app("feeds")),
            iri(&grdf::app("NTEnergy")),
        );
        let ps = PolicySet::new(vec![
            Policy::permit("urn:permitStream", &grdf::sec("R"), &grdf::app("Stream")),
            Policy::deny("urn:denyChem", &grdf::sec("R"), &grdf::app("ChemSite")),
        ]);
        let diags = diagnostics(&data, &ps);
        let leaks: Vec<_> = diags
            .iter()
            .filter(|d| d.code == LintCode::EntailmentLeak)
            .collect();
        assert_eq!(leaks.len(), 1, "{diags:?}");
        assert_eq!(leaks[0].subject, iri("urn:denyChem"));
        // explain() reports the same leak for the derived type triple.
        let ir = LabelIr::compile(&data, &ps);
        let ex = ir.explain(
            &data,
            &grdf::sec("R"),
            &t(
                &iri(&grdf::app("NTEnergy")),
                rdf::TYPE,
                &iri(&grdf::app("ChemSite")),
            ),
        );
        assert!(!ex.visible);
        assert!(
            ex.leak.as_deref().is_some_and(|l| l.contains("denyChem")),
            "{ex:?}"
        );
    }

    #[test]
    fn s009_silent_without_denies() {
        let data = incident_data();
        let diags = diagnostics(&data, &main_rep_policies());
        assert!(
            !diags.iter().any(|d| d.code == LintCode::EntailmentLeak),
            "{diags:?}"
        );
    }

    #[test]
    fn explain_renders_visible_and_hidden() {
        let data = incident_data();
        let ir = LabelIr::compile(&data, &main_rep_policies());
        let site = iri(&grdf::app("NTEnergy"));
        let vis = ir.explain(
            &data,
            &grdf::sec("MainRep"),
            &t(&site, &grdf::iri("isBoundedBy"), &Term::string("0,0 10,10")),
        );
        assert!(vis.visible);
        assert!(vis.render().contains("VISIBLE"));
        let hid = ir.explain(
            &data,
            &grdf::sec("MainRep"),
            &t(&site, &grdf::app("hasChemCode"), &Term::string("121NR")),
        );
        assert!(!hid.visible);
        assert!(hid.render().contains("HIDDEN"), "{}", hid.render());
        assert!(
            hid.notes.iter().any(|n| n.contains("conditions exclude")),
            "{:?}",
            hid.notes
        );
    }

    #[test]
    fn designator_index_matches_legacy_overlap() {
        let mut data = Graph::new();
        data.add(
            iri(&grdf::app("Refinery")),
            iri(rdfs::SUB_CLASS_OF),
            iri(&grdf::app("ChemSite")),
        );
        data.add(
            iri(&grdf::app("plant1")),
            iri(rdf::TYPE),
            iri(&grdf::app("Refinery")),
        );
        let ps = PolicySet::new(vec![
            Policy::permit("urn:p1", "urn:r", &grdf::app("ChemSite")),
            Policy::deny("urn:p2", "urn:r", &grdf::app("Refinery")),
            Policy::deny("urn:p3", "urn:r", &grdf::app("plant1")),
            Policy::deny("urn:p4", "urn:r", &grdf::app("Stream")),
        ]);
        let idx = DesignatorIndex::new(&data, &ps);
        assert!(idx.overlap(&grdf::app("ChemSite"), &grdf::app("ChemSite")));
        assert!(idx.overlap(&grdf::app("Refinery"), &grdf::app("ChemSite")));
        assert!(idx.overlap(&grdf::app("ChemSite"), &grdf::app("Refinery")));
        assert!(idx.overlap(&grdf::app("plant1"), &grdf::app("ChemSite")));
        assert!(!idx.overlap(&grdf::app("Stream"), &grdf::app("ChemSite")));
    }

    #[test]
    fn role_hierarchy_roundtrip_and_cycles() {
        let mut rh = RoleHierarchy::new();
        rh.add("urn:a", "urn:b");
        rh.add("urn:b", "urn:c");
        rh.add("urn:c", "urn:a"); // cycle
        let mut g = Graph::new();
        rh.encode(&mut g);
        assert_eq!(RoleHierarchy::decode(&g), rh);
        let anc = rh.ancestors("urn:a");
        assert!(anc.contains("urn:b") && anc.contains("urn:c"));
        assert!(!anc.contains("urn:a"), "self excluded even in a cycle");
    }
}
