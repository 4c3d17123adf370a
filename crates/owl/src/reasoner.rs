//! Forward-chaining materialization of the RDFS + OWL-Horst rule subset.
//!
//! The reasoner repeatedly applies entailment rules until a fixpoint and
//! inserts every derived triple into the graph ("materialization"), so that
//! downstream query answering is a plain pattern match. This is the
//! "logical inference" capability the paper claims as GRDF's main advantage
//! over GML (§1, §9).
//!
//! Two evaluation strategies compute the same fixpoint:
//!
//! * [`Strategy::Naive`] — every pass re-joins *full × full*: all rules
//!   scan the entire graph, and [`Schema`] is re-collected from scratch.
//!   Kept as the reference engine (and a benchmark baseline).
//! * [`Strategy::SemiNaive`] (default) — pass 1 seeds a *delta* with the
//!   whole graph; each later pass joins only *delta × full*, where the
//!   delta is exactly the triples the previous pass derived. The schema
//!   index is maintained incrementally by absorbing each delta instead of
//!   being re-collected.
//!
//! The semi-naive engine also powers [`Reasoner::materialize_delta`]:
//! given a generation marker from [`Graph::generation`], it derives the
//! consequences of just the triples inserted since — the primitive behind
//! incremental G-SACS updates.
//!
//! Rule coverage:
//!
//! | group | rules |
//! |-------|-------|
//! | RDFS  | subClassOf/subPropertyOf transitivity, type inheritance, property inheritance, `rdfs:domain`, `rdfs:range` |
//! | OWL   | `inverseOf`, `SymmetricProperty`, `TransitiveProperty`, `FunctionalProperty` → `sameAs`, `InverseFunctionalProperty` → `sameAs`, `equivalentClass`/`equivalentProperty`, `sameAs` closure + substitution |
//! | Restrictions | `hasValue` (both directions), `someValuesFrom`, `allValuesFrom` |

use std::collections::{HashMap, HashSet};

use grdf_rdf::graph::{Graph, TermId};
use grdf_rdf::term::{Term, Triple};
use grdf_rdf::vocab::{owl, rdf, rdfs};
use grdf_runtime::{Deadline, DeadlineExceeded};

/// Statistics from one materialization run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReasonerStats {
    /// Number of fixpoint passes executed.
    pub passes: usize,
    /// Triples added by inference.
    pub inferred: usize,
    /// Triples *consumed* as the delta of each pass. For the semi-naive
    /// engine this is the seed size followed by each pass's fresh
    /// derivations; for the naive engine it is the full graph size at the
    /// start of every pass — the gap between the two is the work the
    /// delta-driven engine avoids.
    pub delta_sizes: Vec<usize>,
}

/// How the fixpoint is evaluated. Both strategies produce the same triple
/// set; they differ only in how much work each pass re-does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Re-join full × full every pass (reference engine).
    Naive,
    /// Join delta × full; only newly derived triples are re-examined.
    #[default]
    SemiNaive,
}

/// Configurable forward-chaining reasoner.
#[derive(Debug, Clone, Copy)]
pub struct Reasoner {
    /// Apply the RDFS rule group.
    pub rdfs: bool,
    /// Apply the OWL property-semantics rule group.
    pub owl: bool,
    /// Apply restriction-class rules (`hasValue`, `someValuesFrom`,
    /// `allValuesFrom`).
    pub restrictions: bool,
    /// Safety valve for the fixpoint loop.
    pub max_passes: usize,
    /// Evaluation strategy.
    pub strategy: Strategy,
}

impl Default for Reasoner {
    fn default() -> Self {
        Reasoner {
            rdfs: true,
            owl: true,
            restrictions: true,
            max_passes: 64,
            strategy: Strategy::SemiNaive,
        }
    }
}

/// How often a delta pass polls the request deadline.
const DEADLINE_POLL_STRIDE: usize = 256;

/// How the semi-naive loop is seeded.
enum Seed {
    /// Pass 1 consumes the whole graph (full materialization).
    Full,
    /// Pass 1 consumes the triples inserted since this generation marker
    /// (incremental update of an already-materialized graph).
    Since(u64),
}

impl Reasoner {
    /// RDFS-only configuration (ablation arm).
    pub fn rdfs_only() -> Reasoner {
        Reasoner {
            rdfs: true,
            owl: false,
            restrictions: false,
            ..Reasoner::default()
        }
    }

    /// The reference full × full engine (benchmark baseline).
    pub fn naive() -> Reasoner {
        Reasoner {
            strategy: Strategy::Naive,
            ..Reasoner::default()
        }
    }

    /// Materialize all entailments into `graph`; returns statistics.
    pub fn materialize(&self, graph: &mut Graph) -> ReasonerStats {
        self.materialize_with_deadline(graph, &Deadline::never())
            .expect("a never-expiring deadline cannot interrupt the fixpoint")
    }

    /// Materialize under a cooperative deadline, polled once per fixpoint
    /// pass (and once per [`DEADLINE_POLL_STRIDE`] delta triples within
    /// it). On expiry the graph is left with whatever entailments
    /// the completed passes added (each pass only adds sound inferences,
    /// so the graph stays consistent — merely under-materialized) and the
    /// caller decides how to degrade.
    pub fn materialize_with_deadline(
        &self,
        graph: &mut Graph,
        deadline: &Deadline,
    ) -> Result<ReasonerStats, DeadlineExceeded> {
        match self.strategy {
            Strategy::Naive => self.materialize_naive(graph, deadline),
            Strategy::SemiNaive => self.run_semi_naive(graph, &Seed::Full, deadline),
        }
    }

    /// Derive the consequences of just the triples inserted since
    /// `from_generation` (a marker from [`Graph::generation`] taken when
    /// the graph was last fully materialized). Always uses the semi-naive
    /// engine — incremental maintenance *is* delta evaluation with a
    /// smaller seed. Sound and complete for additions only: retracting a
    /// triple requires a full re-materialization.
    pub fn materialize_delta(
        &self,
        graph: &mut Graph,
        from_generation: u64,
        deadline: &Deadline,
    ) -> Result<ReasonerStats, DeadlineExceeded> {
        self.run_semi_naive(graph, &Seed::Since(from_generation), deadline)
    }

    // ------------------------------------------------------------------
    // Naive engine (reference)
    // ------------------------------------------------------------------

    fn materialize_naive(
        &self,
        graph: &mut Graph,
        deadline: &Deadline,
    ) -> Result<ReasonerStats, DeadlineExceeded> {
        let mut stats = ReasonerStats::default();
        loop {
            deadline.check()?;
            stats.passes += 1;
            stats.delta_sizes.push(graph.len());
            let span = grdf_obs::span("reasoner.pass").tag("pass", stats.passes);
            let additions = self.one_pass(graph);
            // Absorb as one batch and leave the graph compacted: the
            // naive engine rescans everything next pass, so one sorted
            // merge now beats per-triple inserts plus merge-on-read for
            // the rest of the fixpoint.
            let added = graph.extend_triples_compacting(additions);
            drop(span.tag("inferred", added));
            stats.inferred += added;
            if added == 0 || stats.passes >= self.max_passes {
                grdf_obs::add("reasoner.passes", stats.passes as u64);
                grdf_obs::add("reasoner.inferred", stats.inferred as u64);
                return Ok(stats);
            }
        }
    }

    fn one_pass(&self, g: &Graph) -> Vec<Triple> {
        let mut out: Vec<Triple> = Vec::new();
        let schema = Schema::collect(g);

        // Count each rule's proposals (pre-dedup) under
        // `reasoner.rule.<name>` so decision traces and `grdf-cli trace`
        // can attribute fixpoint work to individual rules.
        macro_rules! rule {
            ($name:literal, $call:expr) => {{
                let before = out.len();
                $call;
                grdf_obs::add(
                    concat!("reasoner.rule.", $name),
                    (out.len() - before) as u64,
                );
            }};
        }

        if self.rdfs {
            rule!(
                "subclass_transitivity",
                rule_subclass_transitivity(g, &mut out)
            );
            rule!(
                "type_inheritance",
                rule_type_inheritance(g, &schema, &mut out)
            );
            rule!(
                "subproperty_transitivity",
                rule_subproperty_transitivity(g, &mut out)
            );
            rule!(
                "property_inheritance",
                rule_property_inheritance(g, &schema, &mut out)
            );
            rule!("domain_range", rule_domain_range(g, &schema, &mut out));
        }
        if self.owl {
            rule!("equivalences", rule_equivalences(g, &mut out));
            rule!("inverse", rule_inverse(g, &schema, &mut out));
            rule!("symmetric", rule_symmetric(g, &schema, &mut out));
            rule!("transitive", rule_transitive(g, &schema, &mut out));
            rule!("functional", rule_functional(g, &schema, &mut out));
            rule!("same_as", rule_same_as(g, &mut out));
        }
        if self.restrictions {
            rule!("restrictions", rule_restrictions(g, &schema, &mut out));
        }
        if self.owl {
            rule!("boolean_classes", rule_boolean_classes(g, &mut out));
        }
        out
    }

    // ------------------------------------------------------------------
    // Semi-naive engine
    // ------------------------------------------------------------------

    fn run_semi_naive(
        &self,
        graph: &mut Graph,
        seed: &Seed,
        deadline: &Deadline,
    ) -> Result<ReasonerStats, DeadlineExceeded> {
        let mut stats = ReasonerStats::default();
        // The whole fixpoint runs in interned-id space: the seed is a copy
        // of the graph's id log, rule joins dispatch on pre-resolved
        // vocabulary ids, and proposals are id tuples merged without
        // re-interning. Terms are only touched by the clique-global rules.
        let voc = Voc::resolve(graph);
        let mut schema = IdSchema::default();
        let (mut delta, mut triggers) = match seed {
            Seed::Full => {
                // Seed straight off the POS columns: the bulk first pass
                // arrives predicate-grouped, so the rule pass
                // dispatches per group without re-sorting ~the whole
                // graph. (Insertion order is irrelevant here — only
                // incremental seeds are log slices.)
                let delta = graph.ids_by_predicate();
                let triggers = schema.absorb(graph, &voc, &delta);
                (delta, triggers)
            }
            Seed::Since(generation) => {
                let delta = graph.delta_ids_since(*generation);
                if delta.is_empty() {
                    return Ok(stats);
                }
                // The schema must cover the *whole* graph (rules consult
                // declarations made long before the delta), but only the
                // delta decides which clique-global rules need to run.
                let all = graph.delta_ids_since(0);
                schema.absorb(graph, &voc, &all);
                let triggers = schema.triggers_for(graph, &voc, &delta);
                (delta, triggers)
            }
        };
        // Restriction lookup tables depend only on the schema's
        // restriction list, which changes exactly when an absorb reports
        // dirty restrictions — rebuild them on that signal instead of
        // every pass (the build is a fixed per-pass cost that dominates
        // at small fixpoints).
        let mut maps = IdRestrictionMaps::build(&schema);
        loop {
            deadline.check()?;
            stats.passes += 1;
            stats.delta_sizes.push(delta.len());
            grdf_obs::observe("reasoner.delta.size", delta.len() as u64);
            let span = grdf_obs::span("reasoner.pass")
                .tag("pass", stats.passes)
                .tag("delta", delta.len());
            // Delta × full joins.
            let (mut proposals, mut counts) =
                self.delta_pass(graph, &voc, &schema, &maps, &delta, deadline)?;

            // Clique-global rules can't be expressed as a join against one
            // delta triple; they run sequentially in term space, gated by
            // triggers the schema absorption detected in this delta. Their
            // output terms all occur in the graph already, so the extra
            // extend below interns nothing new.
            let mut global_proposals: Vec<Triple> = Vec::new();
            if self.owl && triggers.same_as {
                let before = proposals.len();
                rule_same_as_ids(graph, &voc, &mut proposals);
                counts.same_as += (proposals.len() - before) as u64;
            }
            if self.restrictions && !triggers.dirty_restrictions.is_empty() {
                let before = global_proposals.len();
                for &i in &triggers.dirty_restrictions {
                    apply_restriction(graph, &schema.restrictions[i], &mut global_proposals);
                }
                counts.restrictions += (global_proposals.len() - before) as u64;
            }
            if self.owl && triggers.boolean {
                let before = global_proposals.len();
                rule_boolean_classes(graph, &mut global_proposals);
                counts.boolean_classes += (global_proposals.len() - before) as u64;
            }
            counts.emit();

            let mark = graph.generation();
            let mut added = graph.extend_ids(proposals);
            if !global_proposals.is_empty() {
                added += graph.extend_triples(global_proposals);
            }
            drop(span.tag("inferred", added));
            stats.inferred += added;
            if added == 0 || stats.passes >= self.max_passes {
                grdf_obs::add("reasoner.passes", stats.passes as u64);
                grdf_obs::add("reasoner.inferred", stats.inferred as u64);
                return Ok(stats);
            }
            delta = graph.delta_ids_since(mark);
            triggers = schema.absorb(graph, &voc, &delta);
            if !triggers.dirty_restrictions.is_empty() {
                maps = IdRestrictionMaps::build(&schema);
            }
        }
    }

    /// Apply every delta-aware rule variant to the delta.
    /// Each delta triple is already *in* the graph, so joining it against
    /// the full graph also covers delta × delta pairs. Runs entirely in
    /// interned-id space.
    ///
    /// The delta is processed as predicate-grouped column batches: it is
    /// sorted by predicate once, then each group pays for
    /// vocabulary comparisons and the schema lookup exactly once, and a
    /// group whose predicate carries no rule at all — the common case on
    /// the bulk first pass, where most triples are plain data — is
    /// skipped in O(1) without touching its members.
    fn delta_pass(
        &self,
        g: &Graph,
        voc: &Voc,
        s: &IdSchema,
        maps: &IdRestrictionMaps,
        delta: &[IdTriple],
        deadline: &Deadline,
    ) -> Result<(Vec<IdTriple>, RuleCounts), DeadlineExceeded> {
        let mut out: Vec<IdTriple> = Vec::new();
        let mut c = RuleCounts::default();
        // Bulk seeds come off the POS index already grouped — detect that
        // with one linear scan and skip the copy + sort entirely.
        let owned: Vec<IdTriple>;
        let sorted: &[IdTriple] = if delta.windows(2).all(|w| w[0].1 <= w[1].1) {
            delta
        } else {
            let mut v = delta.to_vec();
            v.sort_unstable_by_key(|&(_, p, _)| p);
            owned = v;
            &owned
        };
        let mut i = 0;
        while i < sorted.len() {
            let tp = sorted[i].1;
            let mut j = i + 1;
            while j < sorted.len() && sorted[j].1 == tp {
                j += 1;
            }
            self.delta_group(
                g,
                voc,
                s,
                maps,
                tp,
                &sorted[i..j],
                &mut out,
                &mut c,
                deadline,
            )?;
            i = j;
        }
        Ok((out, c))
    }

    /// One predicate group of a delta. `tp` is the group's shared
    /// predicate; `group` are its `(s, tp, o)` triples.
    #[allow(clippy::cognitive_complexity, clippy::too_many_arguments)]
    fn delta_group(
        &self,
        g: &Graph,
        voc: &Voc,
        s: &IdSchema,
        maps: &IdRestrictionMaps,
        tp: TermId,
        group: &[IdTriple],
        out: &mut Vec<IdTriple>,
        c: &mut RuleCounts,
        deadline: &Deadline,
    ) -> Result<(), DeadlineExceeded> {
        let pe = s.pred(tp);
        // Applicability gate, evaluated once per group.
        let vocab_rdfs = self.rdfs
            && (tp == voc.sub_class
                || tp == voc.sub_prop
                || tp == voc.domain
                || tp == voc.range
                || tp == voc.ty);
        let vocab_owl = self.owl
            && (tp == voc.equiv_class
                || tp == voc.equiv_prop
                || tp == voc.inverse_of
                || tp == voc.ty);
        let pe_rdfs = self.rdfs
            && pe.is_some_and(|pe| {
                !pe.supers.is_empty() || !pe.domains.is_empty() || !pe.ranges.is_empty()
            });
        let pe_owl = self.owl
            && pe.is_some_and(|pe| {
                !pe.inverses.is_empty()
                    || pe.flags & (SYMMETRIC | TRANSITIVE | FUNCTIONAL | INVERSE_FUNCTIONAL) != 0
            });
        let restr = self.restrictions
            && (tp == voc.ty || !IdRestrictionMaps::get(&maps.by_prop, tp).is_empty());
        if !vocab_rdfs && !vocab_owl && !pe_rdfs && !pe_owl && !restr {
            deadline.check()?;
            return Ok(());
        }

        macro_rules! counted {
            ($field:ident, $body:expr) => {{
                let before = out.len();
                $body;
                c.$field += (out.len() - before) as u64;
            }};
        }

        for (i, &(ts, _, to)) in group.iter().enumerate() {
            if i % DEADLINE_POLL_STRIDE == 0 {
                deadline.check()?;
            }

            if self.rdfs {
                if tp == voc.sub_class {
                    counted!(
                        subclass_transitivity,
                        delta_transitivity_ids(g, voc.sub_class, ts, to, out)
                    );
                    // Declaration side of type inheritance: existing
                    // members of the new subclass gain the superclass.
                    counted!(type_inheritance, {
                        g.for_each_match_ids(None, Some(voc.ty), Some(ts), |x, _, _| {
                            out.push((x, voc.ty, to));
                        });
                    });
                } else if tp == voc.sub_prop {
                    counted!(
                        subproperty_transitivity,
                        delta_transitivity_ids(g, voc.sub_prop, ts, to, out)
                    );
                    counted!(property_inheritance, {
                        g.for_each_match_ids(None, Some(ts), None, |ms, _, mo| {
                            out.push((ms, to, mo));
                        });
                    });
                } else if tp == voc.domain {
                    counted!(domain_range, {
                        g.for_each_match_ids(None, Some(ts), None, |ms, _, _| {
                            out.push((ms, voc.ty, to));
                        });
                    });
                } else if tp == voc.range {
                    counted!(domain_range, {
                        if !is_xsd_class(g.term_of(to)) {
                            g.for_each_match_ids(None, Some(ts), None, |_, _, mo| {
                                if g.term_of(mo).is_resource() {
                                    out.push((mo, voc.ty, to));
                                }
                            });
                        }
                    });
                } else if tp == voc.ty {
                    counted!(type_inheritance, {
                        for &sup in s.class_supers(to) {
                            out.push((ts, voc.ty, sup));
                        }
                    });
                }
                // Instance side: the predicate may carry RDFS declarations.
                if let Some(pe) = pe {
                    counted!(property_inheritance, {
                        for &q in &pe.supers {
                            out.push((ts, q, to));
                        }
                    });
                    counted!(domain_range, {
                        for &class in &pe.domains {
                            out.push((ts, voc.ty, class));
                        }
                    });
                    if !pe.ranges.is_empty() && g.term_of(to).is_resource() {
                        counted!(domain_range, {
                            for &class in &pe.ranges {
                                // Datatype ranges aren't class memberships.
                                if is_xsd_class(g.term_of(class)) {
                                    continue;
                                }
                                out.push((to, voc.ty, class));
                            }
                        });
                    }
                }
            }

            if self.owl {
                if tp == voc.equiv_class {
                    counted!(equivalences, {
                        for (a, b) in [(ts, to), (to, ts)] {
                            if g.term_of(b).is_resource() {
                                out.push((a, voc.sub_class, b));
                            }
                        }
                    });
                } else if tp == voc.equiv_prop {
                    counted!(equivalences, {
                        for (a, b) in [(ts, to), (to, ts)] {
                            out.push((a, voc.sub_prop, b));
                        }
                    });
                } else if tp == voc.inverse_of {
                    counted!(inverse, {
                        inverse_over_ids(g, ts, to, out);
                        inverse_over_ids(g, to, ts, out);
                    });
                } else if tp == voc.ty {
                    // A property characteristic arriving in the delta
                    // re-evaluates that one property over the full graph.
                    if to == voc.symmetric {
                        counted!(symmetric, symmetric_over_ids(g, ts, out));
                    } else if to == voc.transitive {
                        counted!(transitive, transitivity_over_ids(g, ts, out));
                    } else if to == voc.functional {
                        counted!(functional, functional_over_ids(g, voc, ts, out));
                    } else if to == voc.inverse_functional {
                        counted!(functional, inverse_functional_over_ids(g, voc, ts, out));
                    }
                }
                // Instance side: the predicate may carry OWL semantics.
                if let Some(pe) = pe {
                    if !pe.inverses.is_empty() && g.term_of(to).is_resource() {
                        counted!(inverse, {
                            for &q in &pe.inverses {
                                out.push((to, q, ts));
                            }
                        });
                    }
                    if pe.flags & SYMMETRIC != 0 && g.term_of(to).is_resource() {
                        counted!(symmetric, {
                            out.push((to, tp, ts));
                        });
                    }
                    if pe.flags & TRANSITIVE != 0 {
                        counted!(transitive, delta_transitivity_ids(g, tp, ts, to, out));
                    }
                    if pe.flags & FUNCTIONAL != 0 && g.term_of(to).is_resource() {
                        counted!(functional, {
                            let mut objs: Vec<TermId> = Vec::new();
                            g.for_each_match_ids(Some(ts), Some(tp), None, |_, _, y| {
                                if g.term_of(y).is_resource() {
                                    objs.push(y);
                                }
                            });
                            for pair in objs.windows(2) {
                                if pair[0] != pair[1] {
                                    out.push((pair[0], voc.same, pair[1]));
                                }
                            }
                        });
                    }
                    if pe.flags & INVERSE_FUNCTIONAL != 0 {
                        counted!(functional, {
                            let mut subs: Vec<TermId> = Vec::new();
                            g.for_each_match_ids(None, Some(tp), Some(to), |x, _, _| {
                                subs.push(x);
                            });
                            for pair in subs.windows(2) {
                                if pair[0] != pair[1] {
                                    out.push((pair[0], voc.same, pair[1]));
                                }
                            }
                        });
                    }
                }
            }

            if self.restrictions {
                if tp == voc.ty {
                    let idxs = IdRestrictionMaps::get(&maps.by_class, to);
                    if !idxs.is_empty() {
                        counted!(restrictions, {
                            for &ri in idxs {
                                let r = &s.id_restrictions[ri];
                                match r.kind {
                                    IdRKind::HasValue(v) => {
                                        out.push((ts, r.property, v));
                                    }
                                    IdRKind::AllValuesFrom(class) => {
                                        g.for_each_match_ids(
                                            Some(ts),
                                            Some(r.property),
                                            None,
                                            |_, _, y| {
                                                if g.term_of(y).is_resource() {
                                                    out.push((y, voc.ty, class));
                                                }
                                            },
                                        );
                                    }
                                    IdRKind::SomeValuesFrom(_) => {}
                                }
                            }
                        });
                    }
                    let idxs = IdRestrictionMaps::get(&maps.by_svf_class, to);
                    if !idxs.is_empty() {
                        counted!(restrictions, {
                            for &ri in idxs {
                                let r = &s.id_restrictions[ri];
                                g.for_each_match_ids(
                                    None,
                                    Some(r.property),
                                    Some(ts),
                                    |x, _, _| {
                                        out.push((x, voc.ty, r.node));
                                    },
                                );
                            }
                        });
                    }
                }
                let idxs = IdRestrictionMaps::get(&maps.by_prop, tp);
                if !idxs.is_empty() {
                    counted!(restrictions, {
                        for &ri in idxs {
                            let r = &s.id_restrictions[ri];
                            match r.kind {
                                IdRKind::HasValue(v) => {
                                    if to == v {
                                        out.push((ts, voc.ty, r.node));
                                    }
                                }
                                IdRKind::SomeValuesFrom(class) => {
                                    if g.term_of(to).is_resource() && g.has_ids(to, voc.ty, class) {
                                        out.push((ts, voc.ty, r.node));
                                    }
                                }
                                IdRKind::AllValuesFrom(class) => {
                                    if g.term_of(to).is_resource() && g.has_ids(ts, voc.ty, r.node)
                                    {
                                        out.push((to, voc.ty, class));
                                    }
                                }
                            }
                        }
                    });
                }
            }
        }
        Ok(())
    }
}

/// Per-rule proposal counts from one pass of the semi-naive engine,
/// mirroring the naive engine's `reasoner.rule.<name>` counters.
#[derive(Debug, Default, Clone, Copy)]
struct RuleCounts {
    subclass_transitivity: u64,
    type_inheritance: u64,
    subproperty_transitivity: u64,
    property_inheritance: u64,
    domain_range: u64,
    equivalences: u64,
    inverse: u64,
    symmetric: u64,
    transitive: u64,
    functional: u64,
    same_as: u64,
    restrictions: u64,
    boolean_classes: u64,
}

impl RuleCounts {
    fn entries(&self) -> [(&'static str, u64); 13] {
        [
            (
                "reasoner.rule.subclass_transitivity",
                self.subclass_transitivity,
            ),
            ("reasoner.rule.type_inheritance", self.type_inheritance),
            (
                "reasoner.rule.subproperty_transitivity",
                self.subproperty_transitivity,
            ),
            (
                "reasoner.rule.property_inheritance",
                self.property_inheritance,
            ),
            ("reasoner.rule.domain_range", self.domain_range),
            ("reasoner.rule.equivalences", self.equivalences),
            ("reasoner.rule.inverse", self.inverse),
            ("reasoner.rule.symmetric", self.symmetric),
            ("reasoner.rule.transitive", self.transitive),
            ("reasoner.rule.functional", self.functional),
            ("reasoner.rule.same_as", self.same_as),
            ("reasoner.rule.restrictions", self.restrictions),
            ("reasoner.rule.boolean_classes", self.boolean_classes),
        ]
    }

    fn emit(&self) {
        for (name, v) in self.entries() {
            if v > 0 {
                grdf_obs::add(name, v);
            }
        }
    }
}

/// `owl:intersectionOf` / `owl:unionOf` semantics:
///
/// * intersection: members of every part are members of the intersection
///   class, and vice versa (the class entails membership in every part —
///   which also makes parts behave as superclasses);
/// * union: members of any part are members of the union class.
fn rule_boolean_classes(g: &Graph, out: &mut Vec<Triple>) {
    let ty = Term::iri(rdf::TYPE);
    g.for_each_match(None, Some(&Term::iri(owl::INTERSECTION_OF)), None, |decl| {
        let class = decl.subject;
        let Some(parts) = g.read_list(&decl.object) else {
            return;
        };
        if parts.is_empty() {
            return;
        }
        // x ∈ all parts ⇒ x ∈ class.
        for candidate in g.subjects(&ty, &parts[0]) {
            if parts[1..].iter().all(|p| g.has(&candidate, &ty, p))
                && !g.has(&candidate, &ty, &class)
            {
                out.push(Triple::new(candidate, ty.clone(), class.clone()));
            }
        }
        // x ∈ class ⇒ x ∈ every part.
        g.for_each_match(None, Some(&ty), Some(&class), |t| {
            for p in &parts {
                if !g.has(&t.subject, &ty, p) {
                    out.push(Triple::new(t.subject.clone(), ty.clone(), p.clone()));
                }
            }
        });
    });
    g.for_each_match(None, Some(&Term::iri(owl::UNION_OF)), None, |decl| {
        let class = decl.subject;
        let Some(parts) = g.read_list(&decl.object) else {
            return;
        };
        for p in &parts {
            g.for_each_match(None, Some(&ty), Some(p), |t| {
                if !g.has(&t.subject, &ty, &class) {
                    out.push(Triple::new(t.subject.clone(), ty.clone(), class.clone()));
                }
            });
        }
    });
}

/// Clique-global rules the delta pass cannot run per-triple; detected per
/// delta during schema absorption.
#[derive(Debug, Default)]
struct Triggers {
    /// The delta asserted a `sameAs` pair or touched a term already in a
    /// `sameAs` clique: re-run the union-find + substitution rule.
    same_as: bool,
    /// The delta touched an `intersectionOf`/`unionOf` declaration, a
    /// list cell, or a membership in a boolean class or one of its parts.
    boolean: bool,
    /// Restrictions whose declarations changed in this delta; each gets a
    /// full (per-restriction) re-evaluation next pass.
    dirty_restrictions: Vec<usize>,
}

/// Schema triples indexed for fast rule application by the naive engine,
/// which re-collects this from scratch every pass. The semi-naive engine
/// maintains the id-keyed [`IdSchema`] incrementally instead.
#[derive(Default)]
struct Schema {
    /// subclass → superclasses (direct).
    sub_class: HashMap<Term, Vec<Term>>,
    /// subproperty → superproperties (direct).
    sub_prop: HashMap<Term, Vec<Term>>,
    /// property → domain classes.
    domain: HashMap<Term, Vec<Term>>,
    /// property → range classes (object ranges only meaningfully typed).
    range: HashMap<Term, Vec<Term>>,
    /// property → inverse properties.
    inverse: HashMap<Term, Vec<Term>>,
    symmetric: HashSet<Term>,
    transitive: HashSet<Term>,
    functional: HashSet<Term>,
    inverse_functional: HashSet<Term>,
    /// Restriction node → (onProperty, detail).
    restrictions: Vec<Restriction>,
}

struct Restriction {
    node: Term,
    property: Term,
    kind: RKind,
    /// Named classes declared as subclasses of the restriction.
    subclasses: Vec<Term>,
}

enum RKind {
    HasValue(Term),
    SomeValuesFrom(Term),
    AllValuesFrom(Term),
}

fn build_restriction(g: &Graph, node: &Term) -> Option<Restriction> {
    if !g.has(node, &Term::iri(rdf::TYPE), &Term::iri(owl::RESTRICTION)) {
        return None;
    }
    let property = g.object(node, &Term::iri(owl::ON_PROPERTY))?;
    let kind = if let Some(v) = g.object(node, &Term::iri(owl::HAS_VALUE)) {
        RKind::HasValue(v)
    } else if let Some(c) = g.object(node, &Term::iri(owl::SOME_VALUES_FROM)) {
        RKind::SomeValuesFrom(c)
    } else {
        RKind::AllValuesFrom(g.object(node, &Term::iri(owl::ALL_VALUES_FROM))?)
    };
    let subclasses = g.subjects(&Term::iri(rdfs::SUB_CLASS_OF), node);
    Some(Restriction {
        node: node.clone(),
        property,
        kind,
        subclasses,
    })
}

impl Schema {
    fn collect(g: &Graph) -> Schema {
        let mut s = Schema::default();
        // Restriction nodes are recognized by their `rdf:type
        // owl:Restriction` declaration ([`build_restriction`] requires it),
        // so one candidate source covers every restriction in a full scan.
        let mut candidates: Vec<Term> = Vec::new();
        let mut candidate_set: HashSet<Term> = HashSet::new();
        for t in g.iter() {
            match t.predicate.as_iri() {
                Some(rdfs::SUB_CLASS_OF) => {
                    s.sub_class.entry(t.subject).or_default().push(t.object);
                }
                Some(rdfs::SUB_PROPERTY_OF) => {
                    s.sub_prop.entry(t.subject).or_default().push(t.object);
                }
                Some(rdfs::DOMAIN) => {
                    s.domain.entry(t.subject).or_default().push(t.object);
                }
                Some(rdfs::RANGE) => {
                    s.range.entry(t.subject).or_default().push(t.object);
                }
                Some(owl::INVERSE_OF) => {
                    s.inverse
                        .entry(t.subject.clone())
                        .or_default()
                        .push(t.object.clone());
                    s.inverse.entry(t.object).or_default().push(t.subject);
                }
                Some(rdf::TYPE) => match t.object.as_iri() {
                    Some(owl::SYMMETRIC_PROPERTY) => {
                        s.symmetric.insert(t.subject);
                    }
                    Some(owl::TRANSITIVE_PROPERTY) => {
                        s.transitive.insert(t.subject);
                    }
                    Some(owl::FUNCTIONAL_PROPERTY) => {
                        s.functional.insert(t.subject);
                    }
                    Some(owl::INVERSE_FUNCTIONAL_PROPERTY) => {
                        s.inverse_functional.insert(t.subject);
                    }
                    Some(owl::RESTRICTION) if candidate_set.insert(t.subject.clone()) => {
                        candidates.push(t.subject);
                    }
                    _ => {}
                },
                _ => {}
            }
        }
        for node in candidates {
            if let Some(r) = build_restriction(g, &node) {
                s.restrictions.push(r);
            }
        }
        s
    }
}

// ---------------------------------------------------------------------
// Id-space schema index (semi-naive engine)
// ---------------------------------------------------------------------

/// Sentinel for a vocabulary term the graph has never interned: ids are
/// dense indexes, so `TermId::MAX` compares equal to no real id.
const NO_TERM: TermId = TermId::MAX;

/// An interned triple as the delta pass sees it: three dense ids, no
/// heap-owned terms.
type IdTriple = (TermId, TermId, TermId);

/// Pre-resolved ids of every vocabulary term the delta pass dispatches
/// on, resolved once per materialization so no term is hashed in the
/// per-triple hot loop. The four terms the engine *emits* (`rdf:type`,
/// `rdfs:subClassOf`, `rdfs:subPropertyOf`, `owl:sameAs`) are interned up
/// front so their ids exist even when the input graph never mentions them
/// (interning adds no triples); the rest resolve to [`NO_TERM`] when
/// absent and then simply match no delta triple. Rules can only combine
/// ids of terms already in the graph, so no new vocabulary term can
/// appear mid-run and the ids stay complete for the whole fixpoint.
struct Voc {
    ty: TermId,
    sub_class: TermId,
    sub_prop: TermId,
    same: TermId,
    domain: TermId,
    range: TermId,
    inverse_of: TermId,
    equiv_class: TermId,
    equiv_prop: TermId,
    symmetric: TermId,
    transitive: TermId,
    functional: TermId,
    inverse_functional: TermId,
    restriction: TermId,
    on_property: TermId,
    has_value: TermId,
    some_values_from: TermId,
    all_values_from: TermId,
    intersection_of: TermId,
    union_of: TermId,
    first: TermId,
    rest: TermId,
}

impl Voc {
    /// Whether triples with this predicate can carry schema information
    /// [`IdSchema::absorb`] cares about — the group-skip gate for bulk
    /// absorption.
    fn schema_relevant(&self, p: TermId) -> bool {
        p == self.ty
            || p == self.sub_class
            || p == self.sub_prop
            || p == self.same
            || p == self.domain
            || p == self.range
            || p == self.inverse_of
            || p == self.on_property
            || p == self.has_value
            || p == self.some_values_from
            || p == self.all_values_from
            || p == self.intersection_of
            || p == self.union_of
            || p == self.first
            || p == self.rest
    }

    fn resolve(g: &mut Graph) -> Voc {
        let id = |g: &Graph, iri: &str| g.term_id(&Term::iri(iri)).unwrap_or(NO_TERM);
        Voc {
            ty: g.intern_term(&Term::iri(rdf::TYPE)),
            sub_class: g.intern_term(&Term::iri(rdfs::SUB_CLASS_OF)),
            sub_prop: g.intern_term(&Term::iri(rdfs::SUB_PROPERTY_OF)),
            same: g.intern_term(&Term::iri(owl::SAME_AS)),
            domain: id(g, rdfs::DOMAIN),
            range: id(g, rdfs::RANGE),
            inverse_of: id(g, owl::INVERSE_OF),
            equiv_class: id(g, owl::EQUIVALENT_CLASS),
            equiv_prop: id(g, owl::EQUIVALENT_PROPERTY),
            symmetric: id(g, owl::SYMMETRIC_PROPERTY),
            transitive: id(g, owl::TRANSITIVE_PROPERTY),
            functional: id(g, owl::FUNCTIONAL_PROPERTY),
            inverse_functional: id(g, owl::INVERSE_FUNCTIONAL_PROPERTY),
            restriction: id(g, owl::RESTRICTION),
            on_property: id(g, owl::ON_PROPERTY),
            has_value: id(g, owl::HAS_VALUE),
            some_values_from: id(g, owl::SOME_VALUES_FROM),
            all_values_from: id(g, owl::ALL_VALUES_FROM),
            intersection_of: id(g, owl::INTERSECTION_OF),
            union_of: id(g, owl::UNION_OF),
            first: id(g, rdf::FIRST),
            rest: id(g, rdf::REST),
        }
    }
}

const SYMMETRIC: u8 = 1;
const TRANSITIVE: u8 = 1 << 1;
const FUNCTIONAL: u8 = 1 << 2;
const INVERSE_FUNCTIONAL: u8 = 1 << 3;

/// Everything the delta pass needs to know about one predicate, gathered
/// so a single dense-table load answers all per-predicate questions.
#[derive(Default, Clone)]
struct PredEntry {
    /// `rdfs:subPropertyOf` superproperties (direct).
    supers: Vec<TermId>,
    /// `rdfs:domain` classes.
    domains: Vec<TermId>,
    /// `rdfs:range` classes.
    ranges: Vec<TermId>,
    /// `owl:inverseOf` partners (both directions).
    inverses: Vec<TermId>,
    /// OWL property-characteristic bits.
    flags: u8,
}

/// The semi-naive engine's schema index, keyed by interned term id. The
/// per-predicate and per-class tables are sparse hash maps: schema-bearing
/// ids are a tiny fraction of a large graph's term space, and the
/// predicate-grouped rule pass probes them once per *group*, so dense
/// id-indexed vectors would spend more time zeroing `term_count` slots
/// than the probes ever save. Maintained incrementally: each pass absorbs
/// only that pass's delta. Restrictions are kept in term form too because
/// the dirty-restriction re-runs share [`apply_restriction`] with the
/// naive engine.
#[derive(Default)]
struct IdSchema {
    preds: HashMap<TermId, PredEntry>,
    /// subclass id → superclass ids (direct).
    class_supers: HashMap<TermId, Vec<TermId>>,
    restrictions: Vec<Restriction>,
    id_restrictions: Vec<IdRestriction>,
    /// Restriction node id → index into `restrictions`/`id_restrictions`.
    restriction_index: HashMap<TermId, usize>,
    /// Ids appearing in any `sameAs` assertion (clique members).
    same_members: HashSet<TermId>,
    /// Boolean (intersection/union) class ids and their parts.
    boolean_relevant: HashSet<TermId>,
}

struct IdRestriction {
    node: TermId,
    property: TermId,
    kind: IdRKind,
    /// Named classes declared as subclasses of the restriction.
    subclasses: Vec<TermId>,
}

enum IdRKind {
    HasValue(TermId),
    SomeValuesFrom(TermId),
    AllValuesFrom(TermId),
}

impl IdRestriction {
    /// Every component term of a restriction occurs in a graph triple, so
    /// it is interned; a failed lookup degrades to [`NO_TERM`] (matching
    /// nothing) rather than panicking.
    fn of(g: &Graph, r: &Restriction) -> IdRestriction {
        let id = |t: &Term| g.term_id(t).unwrap_or(NO_TERM);
        IdRestriction {
            node: id(&r.node),
            property: id(&r.property),
            kind: match &r.kind {
                RKind::HasValue(v) => IdRKind::HasValue(id(v)),
                RKind::SomeValuesFrom(c) => IdRKind::SomeValuesFrom(id(c)),
                RKind::AllValuesFrom(c) => IdRKind::AllValuesFrom(id(c)),
            },
            subclasses: r.subclasses.iter().map(id).collect(),
        }
    }
}

impl IdSchema {
    fn pred(&self, p: TermId) -> Option<&PredEntry> {
        self.preds.get(&p)
    }

    fn class_supers(&self, c: TermId) -> &[TermId] {
        self.class_supers.get(&c).map_or(&[][..], Vec::as_slice)
    }

    /// Fold a delta's schema-level triples into the index and report which
    /// clique-global rules the delta makes necessary. Each triple must be
    /// absorbed exactly once over the life of the schema (deltas are
    /// disjoint, so this holds by construction).
    fn absorb(&mut self, g: &Graph, voc: &Voc, delta: &[(TermId, TermId, TermId)]) -> Triggers {
        let mut trig = Triggers::default();
        let mut candidates: Vec<TermId> = Vec::new();
        let mut candidate_set: HashSet<TermId> = HashSet::new();
        // Predicate-grouped deltas (the bulk seed) skip whole rule-free
        // groups: a group whose predicate is schema-irrelevant can only
        // matter through the sameAs-member catch at the bottom of
        // `absorb_one`, which is itself a no-op while no clique members
        // are known.
        if delta.windows(2).all(|w| w[0].1 <= w[1].1) {
            let mut i = 0;
            while i < delta.len() {
                let p = delta[i].1;
                let mut j = i + 1;
                while j < delta.len() && delta[j].1 == p {
                    j += 1;
                }
                if voc.schema_relevant(p) || !self.same_members.is_empty() {
                    for &(s, _, o) in &delta[i..j] {
                        self.absorb_one(
                            g,
                            voc,
                            (s, p, o),
                            &mut trig,
                            &mut candidates,
                            &mut candidate_set,
                        );
                    }
                }
                i = j;
            }
        } else {
            for &(s, p, o) in delta {
                self.absorb_one(
                    g,
                    voc,
                    (s, p, o),
                    &mut trig,
                    &mut candidates,
                    &mut candidate_set,
                );
            }
        }
        self.finish_candidates(g, candidates, &mut trig);
        trig
    }

    /// Fold one delta triple into the schema index (the per-triple body of
    /// [`IdSchema::absorb`]).
    fn absorb_one(
        &mut self,
        g: &Graph,
        voc: &Voc,
        (s, p, o): (TermId, TermId, TermId),
        trig: &mut Triggers,
        candidates: &mut Vec<TermId>,
        candidate_set: &mut HashSet<TermId>,
    ) {
        {
            if p == voc.sub_class {
                self.class_supers.entry(s).or_default().push(o);
                // A new subclass edge into a restriction widens the
                // restriction's reach.
                if (self.restriction_index.contains_key(&o)
                    || g.has_ids(o, voc.ty, voc.restriction))
                    && candidate_set.insert(o)
                {
                    candidates.push(o);
                }
            } else if p == voc.sub_prop {
                self.preds.entry(s).or_default().supers.push(o);
            } else if p == voc.domain {
                self.preds.entry(s).or_default().domains.push(o);
            } else if p == voc.range {
                self.preds.entry(s).or_default().ranges.push(o);
            } else if p == voc.inverse_of {
                self.preds.entry(s).or_default().inverses.push(o);
                self.preds.entry(o).or_default().inverses.push(s);
            } else if p == voc.same {
                if g.term_of(o).is_resource() {
                    self.same_members.insert(s);
                    self.same_members.insert(o);
                    trig.same_as = true;
                }
            } else if p == voc.on_property
                || p == voc.has_value
                || p == voc.some_values_from
                || p == voc.all_values_from
            {
                if candidate_set.insert(s) {
                    candidates.push(s);
                }
            } else if p == voc.intersection_of || p == voc.union_of {
                self.boolean_relevant.insert(s);
                if let Some(parts) = g.read_list(g.term_of(o)) {
                    for part in parts {
                        if let Some(part_id) = g.term_id(&part) {
                            self.boolean_relevant.insert(part_id);
                        }
                    }
                }
                trig.boolean = true;
            } else if p == voc.first || p == voc.rest {
                // A list cell may extend a boolean class's part list.
                trig.boolean = true;
            } else if p == voc.ty {
                if o == voc.symmetric {
                    self.preds.entry(s).or_default().flags |= SYMMETRIC;
                } else if o == voc.transitive {
                    self.preds.entry(s).or_default().flags |= TRANSITIVE;
                } else if o == voc.functional {
                    self.preds.entry(s).or_default().flags |= FUNCTIONAL;
                } else if o == voc.inverse_functional {
                    self.preds.entry(s).or_default().flags |= INVERSE_FUNCTIONAL;
                } else if o == voc.restriction && candidate_set.insert(s) {
                    candidates.push(s);
                }
                if self.boolean_relevant.contains(&o) {
                    trig.boolean = true;
                }
            }
            if !trig.same_as && (self.same_members.contains(&s) || self.same_members.contains(&o)) {
                trig.same_as = true;
            }
        }
    }

    /// Materialize restriction candidates collected during absorption.
    fn finish_candidates(&mut self, g: &Graph, candidates: Vec<TermId>, trig: &mut Triggers) {
        for node in candidates {
            if let Some(r) = build_restriction(g, g.term_of(node)) {
                let idr = IdRestriction::of(g, &r);
                if let Some(&i) = self.restriction_index.get(&node) {
                    self.restrictions[i] = r;
                    self.id_restrictions[i] = idr;
                    trig.dirty_restrictions.push(i);
                } else {
                    let i = self.restrictions.len();
                    self.restrictions.push(r);
                    self.id_restrictions.push(idr);
                    self.restriction_index.insert(node, i);
                    trig.dirty_restrictions.push(i);
                }
            }
        }
    }

    /// Trigger detection only — for a delta whose triples are *already*
    /// absorbed (the incremental-update seed, where the schema was built
    /// from the whole graph).
    fn triggers_for(&self, g: &Graph, voc: &Voc, delta: &[(TermId, TermId, TermId)]) -> Triggers {
        let mut trig = Triggers::default();
        let mut dirty: HashSet<usize> = HashSet::new();
        for &(s, p, o) in delta {
            if p == voc.same {
                if g.term_of(o).is_resource() {
                    trig.same_as = true;
                }
            } else if p == voc.intersection_of
                || p == voc.union_of
                || p == voc.first
                || p == voc.rest
            {
                trig.boolean = true;
            } else if p == voc.on_property
                || p == voc.has_value
                || p == voc.some_values_from
                || p == voc.all_values_from
            {
                if let Some(&i) = self.restriction_index.get(&s) {
                    dirty.insert(i);
                }
            } else if p == voc.sub_class {
                if let Some(&i) = self.restriction_index.get(&o) {
                    dirty.insert(i);
                }
            } else if p == voc.ty {
                if o == voc.restriction {
                    if let Some(&i) = self.restriction_index.get(&s) {
                        dirty.insert(i);
                    }
                }
                if self.boolean_relevant.contains(&o) {
                    trig.boolean = true;
                }
            }
            if !trig.same_as && (self.same_members.contains(&s) || self.same_members.contains(&o)) {
                trig.same_as = true;
            }
        }
        trig.dirty_restrictions = dirty.into_iter().collect();
        trig.dirty_restrictions.sort_unstable();
        trig
    }
}

/// Dispatch indexes over [`IdSchema::id_restrictions`], rebuilt per pass
/// (the restriction count is tiny next to the delta). Sparse maps keyed
/// by term id: the `by_prop` probe runs once per predicate *group*, and
/// the class probes only inside `rdf:type` groups, so hashing is off the
/// per-triple fast path while the tables stay O(restrictions) to build.
#[derive(Default)]
#[allow(clippy::struct_field_names)]
struct IdRestrictionMaps {
    /// `hasValue`: restriction node + declared subclasses (dir 1);
    /// `allValuesFrom`: restriction node.
    by_class: HashMap<TermId, Vec<usize>>,
    /// `someValuesFrom` filler class → restriction.
    by_svf_class: HashMap<TermId, Vec<usize>>,
    /// `onProperty` → restriction.
    by_prop: HashMap<TermId, Vec<usize>>,
}

impl IdRestrictionMaps {
    fn build(s: &IdSchema) -> IdRestrictionMaps {
        let mut m = IdRestrictionMaps::default();
        for (i, r) in s.id_restrictions.iter().enumerate() {
            m.by_prop.entry(r.property).or_default().push(i);
            match r.kind {
                IdRKind::HasValue(_) => {
                    for &c in r.subclasses.iter().chain(std::iter::once(&r.node)) {
                        m.by_class.entry(c).or_default().push(i);
                    }
                }
                IdRKind::AllValuesFrom(_) => {
                    m.by_class.entry(r.node).or_default().push(i);
                }
                IdRKind::SomeValuesFrom(class) => {
                    m.by_svf_class.entry(class).or_default().push(i);
                }
            }
        }
        m
    }

    fn get(table: &HashMap<TermId, Vec<usize>>, id: TermId) -> &[usize] {
        table.get(&id).map_or(&[][..], Vec::as_slice)
    }
}

fn is_xsd_class(c: &Term) -> bool {
    c.as_iri()
        .is_some_and(|i| i.starts_with(grdf_rdf::vocab::xsd::NS))
}

fn rule_subclass_transitivity(g: &Graph, out: &mut Vec<Triple>) {
    let p = Term::iri(rdfs::SUB_CLASS_OF);
    transitivity_over(g, &p, out);
}

fn rule_subproperty_transitivity(g: &Graph, out: &mut Vec<Triple>) {
    let p = Term::iri(rdfs::SUB_PROPERTY_OF);
    transitivity_over(g, &p, out);
}

fn transitivity_over(g: &Graph, p: &Term, out: &mut Vec<Triple>) {
    // (a p b), (b p c) → (a p c)
    let mut edges: HashMap<Term, Vec<Term>> = HashMap::new();
    g.for_each_match(None, Some(p), None, |t| {
        edges.entry(t.subject).or_default().push(t.object);
    });
    for (a, bs) in &edges {
        for b in bs {
            if let Some(cs) = edges.get(b) {
                for c in cs {
                    if c != a && !g.has(a, p, c) {
                        out.push(Triple::new(a.clone(), p.clone(), c.clone()));
                    }
                }
            }
        }
    }
}

/// Delta step of `(a p b), (b p c) → (a p c)` for one new edge `(s, o)`:
/// forward join through the new edge's object and backward join into its
/// subject cover every pair the new edge participates in. Id inequality
/// is exact term inequality — the interner is injective.
fn delta_transitivity_ids(
    g: &Graph,
    p: TermId,
    s: TermId,
    o: TermId,
    out: &mut Vec<(TermId, TermId, TermId)>,
) {
    g.for_each_match_ids(Some(o), Some(p), None, |_, _, c| {
        if c != s {
            out.push((s, p, c));
        }
    });
    g.for_each_match_ids(None, Some(p), Some(s), |a, _, _| {
        if a != o {
            out.push((a, p, o));
        }
    });
}

/// Id-space mirror of [`transitivity_over`], for dirty-property re-runs
/// in the delta pass.
fn transitivity_over_ids(g: &Graph, p: TermId, out: &mut Vec<(TermId, TermId, TermId)>) {
    let mut edges: HashMap<TermId, Vec<TermId>> = HashMap::new();
    g.for_each_match_ids(None, Some(p), None, |s, _, o| {
        edges.entry(s).or_default().push(o);
    });
    for (&a, bs) in &edges {
        for b in bs {
            if let Some(cs) = edges.get(b) {
                for &c in cs {
                    if c != a {
                        out.push((a, p, c));
                    }
                }
            }
        }
    }
}

/// Emit `(y q x)` for every `(x p y)` in the graph (one inverse pair).
fn inverse_over_ids(g: &Graph, p: TermId, q: TermId, out: &mut Vec<(TermId, TermId, TermId)>) {
    g.for_each_match_ids(None, Some(p), None, |s, _, o| {
        if g.term_of(o).is_resource() {
            out.push((o, q, s));
        }
    });
}

/// Id-space mirror of [`symmetric_over`].
fn symmetric_over_ids(g: &Graph, p: TermId, out: &mut Vec<(TermId, TermId, TermId)>) {
    g.for_each_match_ids(None, Some(p), None, |s, _, o| {
        if g.term_of(o).is_resource() {
            out.push((o, p, s));
        }
    });
}

/// Id-space mirror of [`functional_over`].
fn functional_over_ids(g: &Graph, voc: &Voc, p: TermId, out: &mut Vec<(TermId, TermId, TermId)>) {
    let mut by_subject: HashMap<TermId, Vec<TermId>> = HashMap::new();
    g.for_each_match_ids(None, Some(p), None, |s, _, o| {
        if g.term_of(o).is_resource() {
            by_subject.entry(s).or_default().push(o);
        }
    });
    for objs in by_subject.values() {
        for pair in objs.windows(2) {
            if pair[0] != pair[1] {
                out.push((pair[0], voc.same, pair[1]));
            }
        }
    }
}

/// Id-space mirror of [`inverse_functional_over`].
fn inverse_functional_over_ids(
    g: &Graph,
    voc: &Voc,
    p: TermId,
    out: &mut Vec<(TermId, TermId, TermId)>,
) {
    let mut by_object: HashMap<TermId, Vec<TermId>> = HashMap::new();
    g.for_each_match_ids(None, Some(p), None, |s, _, o| {
        by_object.entry(o).or_default().push(s);
    });
    for subs in by_object.values() {
        for pair in subs.windows(2) {
            if pair[0] != pair[1] {
                out.push((pair[0], voc.same, pair[1]));
            }
        }
    }
}

fn rule_type_inheritance(g: &Graph, s: &Schema, out: &mut Vec<Triple>) {
    let ty = Term::iri(rdf::TYPE);
    g.for_each_match(None, Some(&ty), None, |t| {
        if let Some(supers) = s.sub_class.get(&t.object) {
            for sup in supers {
                if !g.has(&t.subject, &ty, sup) {
                    out.push(Triple::new(t.subject.clone(), ty.clone(), sup.clone()));
                }
            }
        }
    });
}

fn rule_property_inheritance(g: &Graph, s: &Schema, out: &mut Vec<Triple>) {
    for (p, supers) in &s.sub_prop {
        g.for_each_match(None, Some(p), None, |t| {
            for q in supers {
                if !g.has(&t.subject, q, &t.object) {
                    out.push(Triple::new(t.subject.clone(), q.clone(), t.object.clone()));
                }
            }
        });
    }
}

fn rule_domain_range(g: &Graph, s: &Schema, out: &mut Vec<Triple>) {
    let ty = Term::iri(rdf::TYPE);
    for (p, classes) in &s.domain {
        g.for_each_match(None, Some(p), None, |t| {
            for c in classes {
                if !g.has(&t.subject, &ty, c) {
                    out.push(Triple::new(t.subject.clone(), ty.clone(), c.clone()));
                }
            }
        });
    }
    for (p, classes) in &s.range {
        g.for_each_match(None, Some(p), None, |t| {
            if !t.object.is_resource() {
                return;
            }
            for c in classes {
                // Datatype ranges aren't class memberships.
                if is_xsd_class(c) {
                    continue;
                }
                if !g.has(&t.object, &ty, c) {
                    out.push(Triple::new(t.object.clone(), ty.clone(), c.clone()));
                }
            }
        });
    }
}

fn rule_equivalences(g: &Graph, out: &mut Vec<Triple>) {
    let eqc = Term::iri(owl::EQUIVALENT_CLASS);
    let sub = Term::iri(rdfs::SUB_CLASS_OF);
    g.for_each_match(None, Some(&eqc), None, |t| {
        for (s, o) in [(&t.subject, &t.object), (&t.object, &t.subject)] {
            if o.is_resource() && !g.has(s, &sub, o) {
                out.push(Triple::new(s.clone(), sub.clone(), o.clone()));
            }
        }
    });
    let eqp = Term::iri(owl::EQUIVALENT_PROPERTY);
    let subp = Term::iri(rdfs::SUB_PROPERTY_OF);
    g.for_each_match(None, Some(&eqp), None, |t| {
        for (s, o) in [(&t.subject, &t.object), (&t.object, &t.subject)] {
            if !g.has(s, &subp, o) {
                out.push(Triple::new(s.clone(), subp.clone(), o.clone()));
            }
        }
    });
}

fn rule_inverse(g: &Graph, s: &Schema, out: &mut Vec<Triple>) {
    for (p, qs) in &s.inverse {
        g.for_each_match(None, Some(p), None, |t| {
            if !t.object.is_resource() {
                return;
            }
            for q in qs {
                if !g.has(&t.object, q, &t.subject) {
                    out.push(Triple::new(t.object.clone(), q.clone(), t.subject.clone()));
                }
            }
        });
    }
}

fn rule_symmetric(g: &Graph, s: &Schema, out: &mut Vec<Triple>) {
    for p in &s.symmetric {
        symmetric_over(g, p, out);
    }
}

fn symmetric_over(g: &Graph, p: &Term, out: &mut Vec<Triple>) {
    g.for_each_match(None, Some(p), None, |t| {
        if t.object.is_resource() && !g.has(&t.object, p, &t.subject) {
            out.push(Triple::new(t.object.clone(), p.clone(), t.subject.clone()));
        }
    });
}

fn rule_transitive(g: &Graph, s: &Schema, out: &mut Vec<Triple>) {
    for p in &s.transitive {
        transitivity_over(g, p, out);
    }
}

fn rule_functional(g: &Graph, s: &Schema, out: &mut Vec<Triple>) {
    for p in &s.functional {
        functional_over(g, p, out);
    }
    for p in &s.inverse_functional {
        inverse_functional_over(g, p, out);
    }
}

fn functional_over(g: &Graph, p: &Term, out: &mut Vec<Triple>) {
    let same = Term::iri(owl::SAME_AS);
    let mut by_subject: HashMap<Term, Vec<Term>> = HashMap::new();
    g.for_each_match(None, Some(p), None, |t| {
        if t.object.is_resource() {
            by_subject.entry(t.subject).or_default().push(t.object);
        }
    });
    for objs in by_subject.values() {
        for pair in objs.windows(2) {
            if pair[0] != pair[1] && !g.has(&pair[0], &same, &pair[1]) {
                out.push(Triple::new(pair[0].clone(), same.clone(), pair[1].clone()));
            }
        }
    }
}

fn inverse_functional_over(g: &Graph, p: &Term, out: &mut Vec<Triple>) {
    let same = Term::iri(owl::SAME_AS);
    let mut by_object: HashMap<Term, Vec<Term>> = HashMap::new();
    g.for_each_match(None, Some(p), None, |t| {
        by_object.entry(t.object).or_default().push(t.subject);
    });
    for subs in by_object.values() {
        for pair in subs.windows(2) {
            if pair[0] != pair[1] && !g.has(&pair[0], &same, &pair[1]) {
                out.push(Triple::new(pair[0].clone(), same.clone(), pair[1].clone()));
            }
        }
    }
}

fn rule_same_as(g: &Graph, out: &mut Vec<Triple>) {
    let same = Term::iri(owl::SAME_AS);
    // Union-find over sameAs assertions.
    let mut parent: HashMap<Term, Term> = HashMap::new();
    fn find(parent: &mut HashMap<Term, Term>, x: &Term) -> Term {
        let p = parent.get(x).cloned();
        match p {
            None => x.clone(),
            Some(p) if &p == x => x.clone(),
            Some(p) => {
                let root = find(parent, &p);
                parent.insert(x.clone(), root.clone());
                root
            }
        }
    }
    let mut members: HashMap<Term, Vec<Term>> = HashMap::new();
    let mut pairs: Vec<(Term, Term)> = Vec::new();
    g.for_each_match(None, Some(&same), None, |t| {
        if t.object.is_resource() {
            pairs.push((t.subject, t.object));
        }
    });
    if pairs.is_empty() {
        return;
    }
    for (a, b) in &pairs {
        let ra = find(&mut parent, a);
        let rb = find(&mut parent, b);
        if ra != rb {
            parent.insert(ra, rb);
        }
        parent.entry(a.clone()).or_insert_with(|| a.clone());
        parent.entry(b.clone()).or_insert_with(|| b.clone());
    }
    let keys: Vec<Term> = parent.keys().cloned().collect();
    for k in keys {
        let r = find(&mut parent, &k);
        members.entry(r).or_default().push(k);
    }

    for group in members.values() {
        if group.len() < 2 {
            continue;
        }
        // Emit the full sameAs clique (symmetry + transitivity).
        for a in group {
            for b in group {
                if a != b && !g.has(a, &same, b) {
                    out.push(Triple::new(a.clone(), same.clone(), b.clone()));
                }
            }
        }
        // Substitution: every triple mentioning a member holds for all.
        for a in group {
            g.for_each_match(Some(a), None, None, |t| {
                if t.predicate.as_iri() == Some(owl::SAME_AS) {
                    return;
                }
                for b in group {
                    if b != a && !g.has(b, &t.predicate, &t.object) {
                        out.push(Triple::new(
                            b.clone(),
                            t.predicate.clone(),
                            t.object.clone(),
                        ));
                    }
                }
            });
            g.for_each_match(None, None, Some(a), |t| {
                if t.predicate.as_iri() == Some(owl::SAME_AS) {
                    return;
                }
                for b in group {
                    if b != a && !g.has(&t.subject, &t.predicate, b) {
                        out.push(Triple::new(
                            t.subject.clone(),
                            t.predicate.clone(),
                            b.clone(),
                        ));
                    }
                }
            });
        }
    }
}

/// Id-space mirror of [`rule_same_as`] for the semi-naive engine:
/// union-find over interned ids, clique emission and substitution through
/// the id-pattern scans, no term hashing or cloning.
fn rule_same_as_ids(g: &Graph, voc: &Voc, out: &mut Vec<(TermId, TermId, TermId)>) {
    let mut pairs: Vec<(TermId, TermId)> = Vec::new();
    g.for_each_match_ids(None, Some(voc.same), None, |s, _, o| {
        if g.term_of(o).is_resource() {
            pairs.push((s, o));
        }
    });
    if pairs.is_empty() {
        return;
    }
    let mut parent: HashMap<TermId, TermId> = HashMap::new();
    fn find(parent: &mut HashMap<TermId, TermId>, x: TermId) -> TermId {
        let mut root = x;
        while let Some(&p) = parent.get(&root) {
            if p == root {
                break;
            }
            root = p;
        }
        // Path compression.
        let mut cur = x;
        while let Some(&p) = parent.get(&cur) {
            if p == root {
                break;
            }
            parent.insert(cur, root);
            cur = p;
        }
        root
    }
    for &(a, b) in &pairs {
        let ra = find(&mut parent, a);
        let rb = find(&mut parent, b);
        if ra != rb {
            parent.insert(ra, rb);
        }
        parent.entry(a).or_insert(a);
        parent.entry(b).or_insert(b);
    }
    let keys: Vec<TermId> = parent.keys().copied().collect();
    let mut members: HashMap<TermId, Vec<TermId>> = HashMap::new();
    for k in keys {
        let r = find(&mut parent, k);
        members.entry(r).or_default().push(k);
    }

    let mut groups: Vec<Vec<TermId>> = members.into_values().filter(|v| v.len() >= 2).collect();
    for group in &mut groups {
        // Deterministic member order (HashMap iteration order is not).
        group.sort_unstable();
        // Emit the full sameAs clique (symmetry + transitivity).
        for &a in group.iter() {
            for &b in group.iter() {
                if a != b {
                    out.push((a, voc.same, b));
                }
            }
        }
        // Substitution: every triple mentioning a member holds for all.
        for &a in group.iter() {
            g.for_each_match_ids(Some(a), None, None, |_, p, o| {
                if p == voc.same {
                    return;
                }
                for &b in group.iter() {
                    if b != a {
                        out.push((b, p, o));
                    }
                }
            });
            g.for_each_match_ids(None, None, Some(a), |s, p, _| {
                if p == voc.same {
                    return;
                }
                for &b in group.iter() {
                    if b != a {
                        out.push((s, p, b));
                    }
                }
            });
        }
    }
}

fn rule_restrictions(g: &Graph, s: &Schema, out: &mut Vec<Triple>) {
    for r in &s.restrictions {
        apply_restriction(g, r, out);
    }
}

fn apply_restriction(g: &Graph, r: &Restriction, out: &mut Vec<Triple>) {
    let ty = Term::iri(rdf::TYPE);
    match &r.kind {
        RKind::HasValue(v) => {
            // x ∈ C (⊑ r) → x p v ; and x p v → x ∈ r.
            for c in r.subclasses.iter().chain(std::iter::once(&r.node)) {
                g.for_each_match(None, Some(&ty), Some(c), |t| {
                    if !g.has(&t.subject, &r.property, v) {
                        out.push(Triple::new(
                            t.subject.clone(),
                            r.property.clone(),
                            v.clone(),
                        ));
                    }
                });
            }
            g.for_each_match(None, Some(&r.property), Some(v), |t| {
                if !g.has(&t.subject, &ty, &r.node) {
                    out.push(Triple::new(t.subject.clone(), ty.clone(), r.node.clone()));
                }
            });
        }
        RKind::SomeValuesFrom(class) => {
            // x p y ∧ y ∈ D → x ∈ r.
            g.for_each_match(None, Some(&r.property), None, |t| {
                if t.object.is_resource()
                    && g.has(&t.object, &ty, class)
                    && !g.has(&t.subject, &ty, &r.node)
                {
                    out.push(Triple::new(t.subject.clone(), ty.clone(), r.node.clone()));
                }
            });
        }
        RKind::AllValuesFrom(class) => {
            // x ∈ r ∧ x p y → y ∈ D.
            g.for_each_match(None, Some(&ty), Some(&r.node), |t| {
                for y in g.objects(&t.subject, &r.property) {
                    if y.is_resource() && !g.has(&y, &ty, class) {
                        out.push(Triple::new(y, ty.clone(), class.clone()));
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Characteristic, OntologyBuilder, RestrictionKind};

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }
    fn ty() -> Term {
        Term::iri(rdf::TYPE)
    }

    #[test]
    fn subclass_chain_materializes() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("A", None);
        b.class("B", Some("A"));
        b.class("C", Some("B"));
        let mut g = b.into_graph();
        g.add(iri("urn:t#x"), ty(), iri("urn:t#C"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#x"), &ty(), &iri("urn:t#B")));
        assert!(g.has(&iri("urn:t#x"), &ty(), &iri("urn:t#A")));
        assert!(g.has(&iri("urn:t#C"), &iri(rdfs::SUB_CLASS_OF), &iri("urn:t#A")));
    }

    #[test]
    fn subproperty_inheritance() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.object_property("hasMother", None, None);
        b.object_property("hasParent", None, None);
        b.sub_property_of("hasMother", "hasParent");
        let mut g = b.into_graph();
        g.add(iri("urn:t#x"), iri("urn:t#hasMother"), iri("urn:t#m"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#x"), &iri("urn:t#hasParent"), &iri("urn:t#m")));
    }

    #[test]
    fn domain_and_range_typing() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Person", None);
        b.class("City", None);
        b.object_property("livesIn", Some("Person"), Some("City"));
        let mut g = b.into_graph();
        g.add(iri("urn:t#ann"), iri("urn:t#livesIn"), iri("urn:t#dallas"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#ann"), &ty(), &iri("urn:t#Person")));
        assert!(g.has(&iri("urn:t#dallas"), &ty(), &iri("urn:t#City")));
    }

    #[test]
    fn datatype_range_does_not_type_literals() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.datatype_property("age", None, Some(grdf_rdf::vocab::xsd::INTEGER));
        let mut g = b.into_graph();
        g.add(iri("urn:t#ann"), iri("urn:t#age"), Term::integer(30));
        let before = g.len();
        Reasoner::default().materialize(&mut g);
        // No rdf:type triples about the literal.
        assert_eq!(
            g.len(),
            before,
            "datatype range must not produce class-membership triples"
        );
    }

    #[test]
    fn inverse_of_fires_both_ways() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.object_property("contains", None, None);
        b.object_property("within", None, None);
        b.inverse_of("contains", "within");
        let mut g = b.into_graph();
        g.add(iri("urn:t#lake"), iri("urn:t#within"), iri("urn:t#park"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(
            &iri("urn:t#park"),
            &iri("urn:t#contains"),
            &iri("urn:t#lake")
        ));
    }

    #[test]
    fn symmetric_and_transitive() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.object_property("touches", None, None);
        b.characteristic("touches", Characteristic::Symmetric);
        b.object_property("upstreamOf", None, None);
        b.characteristic("upstreamOf", Characteristic::Transitive);
        let mut g = b.into_graph();
        g.add(iri("urn:t#a"), iri("urn:t#touches"), iri("urn:t#b"));
        g.add(iri("urn:t#r1"), iri("urn:t#upstreamOf"), iri("urn:t#r2"));
        g.add(iri("urn:t#r2"), iri("urn:t#upstreamOf"), iri("urn:t#r3"));
        g.add(iri("urn:t#r3"), iri("urn:t#upstreamOf"), iri("urn:t#r4"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#b"), &iri("urn:t#touches"), &iri("urn:t#a")));
        assert!(g.has(&iri("urn:t#r1"), &iri("urn:t#upstreamOf"), &iri("urn:t#r4")));
    }

    #[test]
    fn functional_property_derives_same_as_and_smushes() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.object_property("hasSiteId", None, None);
        b.characteristic("hasSiteId", Characteristic::InverseFunctional);
        let mut g = b.into_graph();
        // Two records for one chemical site in different datasets.
        g.add(
            iri("urn:t#siteA"),
            iri("urn:t#hasSiteId"),
            iri("urn:t#id4221"),
        );
        g.add(
            iri("urn:t#siteB"),
            iri("urn:t#hasSiteId"),
            iri("urn:t#id4221"),
        );
        g.add(
            iri("urn:t#siteA"),
            iri("urn:t#name"),
            Term::string("NT Energy"),
        );
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#siteA"), &iri(owl::SAME_AS), &iri("urn:t#siteB")));
        // Substitution carried the name to the other identifier.
        assert!(g.has(
            &iri("urn:t#siteB"),
            &iri("urn:t#name"),
            &Term::string("NT Energy")
        ));
    }

    #[test]
    fn equivalent_class_gives_mutual_membership() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Stream", None);
        b.class("Creek", None);
        b.equivalent_class("Stream", "Creek");
        let mut g = b.into_graph();
        g.add(iri("urn:t#x"), ty(), iri("urn:t#Creek"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#x"), &ty(), &iri("urn:t#Stream")));
    }

    #[test]
    fn has_value_restriction_fires_both_directions() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("TexasSite", None);
        b.object_property("inState", None, None);
        let r = b.restrict(
            "TexasSite",
            "inState",
            RestrictionKind::HasValue(Term::iri("urn:t#texas")),
        );
        let mut g = b.into_graph();
        g.add(iri("urn:t#s1"), ty(), iri("urn:t#TexasSite"));
        g.add(iri("urn:t#s2"), iri("urn:t#inState"), iri("urn:t#texas"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#s1"), &iri("urn:t#inState"), &iri("urn:t#texas")));
        assert!(
            g.has(&iri("urn:t#s2"), &ty(), &r),
            "value ⇒ restriction membership"
        );
    }

    #[test]
    fn some_values_from_classifies_subject() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Hazardous", None);
        b.class("Chemical", None);
        b.object_property("stores", None, None);
        let r = b.restrict(
            "Hazardous",
            "stores",
            RestrictionKind::SomeValuesFrom("Chemical".into()),
        );
        let mut g = b.into_graph();
        g.add(iri("urn:t#plant"), iri("urn:t#stores"), iri("urn:t#acid"));
        g.add(iri("urn:t#acid"), ty(), iri("urn:t#Chemical"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#plant"), &ty(), &r));
    }

    #[test]
    fn all_values_from_types_objects() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("StreamNetwork", None);
        b.class("Stream", None);
        b.object_property("hasMember", None, None);
        b.restrict(
            "StreamNetwork",
            "hasMember",
            RestrictionKind::AllValuesFrom("Stream".into()),
        );
        let mut g = b.into_graph();
        g.add(iri("urn:t#net"), ty(), iri("urn:t#StreamNetwork"));
        g.add(iri("urn:t#net"), iri("urn:t#hasMember"), iri("urn:t#s1"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#s1"), &ty(), &iri("urn:t#Stream")));
    }

    #[test]
    fn rdfs_only_skips_owl_rules() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.object_property("touches", None, None);
        b.characteristic("touches", Characteristic::Symmetric);
        let mut g = b.into_graph();
        g.add(iri("urn:t#a"), iri("urn:t#touches"), iri("urn:t#b"));
        Reasoner::rdfs_only().materialize(&mut g);
        assert!(!g.has(&iri("urn:t#b"), &iri("urn:t#touches"), &iri("urn:t#a")));
    }

    #[test]
    fn materialization_is_idempotent() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("A", None);
        b.class("B", Some("A"));
        let mut g = b.into_graph();
        g.add(iri("urn:t#x"), ty(), iri("urn:t#B"));
        let first = Reasoner::default().materialize(&mut g);
        assert!(first.inferred > 0);
        let second = Reasoner::default().materialize(&mut g);
        assert_eq!(second.inferred, 0, "second run must be a no-op");
        assert_eq!(second.passes, 1);
    }

    #[test]
    fn fixpoint_terminates_on_cyclic_schema() {
        let mut g = Graph::new();
        // A ⊑ B ⊑ C ⊑ A (legal, means equivalence).
        let sub = Term::iri(rdfs::SUB_CLASS_OF);
        g.add(iri("urn:t#A"), sub.clone(), iri("urn:t#B"));
        g.add(iri("urn:t#B"), sub.clone(), iri("urn:t#C"));
        g.add(iri("urn:t#C"), sub.clone(), iri("urn:t#A"));
        g.add(iri("urn:t#x"), ty(), iri("urn:t#A"));
        let stats = Reasoner::default().materialize(&mut g);
        assert!(stats.passes < 10);
        assert!(g.has(&iri("urn:t#x"), &ty(), &iri("urn:t#C")));
    }

    #[test]
    fn intersection_class_membership_both_ways() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Hazardous", None);
        b.class("Riverside", None);
        b.intersection_class("HazardousRiverside", &["Hazardous", "Riverside"]);
        let mut g = b.into_graph();
        g.add(iri("urn:t#p1"), ty(), iri("urn:t#Hazardous"));
        g.add(iri("urn:t#p1"), ty(), iri("urn:t#Riverside"));
        g.add(iri("urn:t#p2"), ty(), iri("urn:t#Hazardous")); // only one part
        g.add(iri("urn:t#p3"), ty(), iri("urn:t#HazardousRiverside")); // asserted directly
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#p1"), &ty(), &iri("urn:t#HazardousRiverside")));
        assert!(!g.has(&iri("urn:t#p2"), &ty(), &iri("urn:t#HazardousRiverside")));
        // Direction 2: direct members belong to every part.
        assert!(g.has(&iri("urn:t#p3"), &ty(), &iri("urn:t#Hazardous")));
        assert!(g.has(&iri("urn:t#p3"), &ty(), &iri("urn:t#Riverside")));
    }

    #[test]
    fn union_class_membership() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Stream", None);
        b.class("Lake", None);
        b.union_class("WaterBody", &["Stream", "Lake"]);
        let mut g = b.into_graph();
        g.add(iri("urn:t#creek"), ty(), iri("urn:t#Stream"));
        g.add(iri("urn:t#pond"), ty(), iri("urn:t#Lake"));
        g.add(iri("urn:t#rock"), ty(), iri("urn:t#Other"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#creek"), &ty(), &iri("urn:t#WaterBody")));
        assert!(g.has(&iri("urn:t#pond"), &ty(), &iri("urn:t#WaterBody")));
        assert!(!g.has(&iri("urn:t#rock"), &ty(), &iri("urn:t#WaterBody")));
    }

    #[test]
    fn union_interacts_with_subclass_rules() {
        // WaterBody = Stream ∪ Lake, and WaterBody ⊑ Feature.
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Stream", None);
        b.class("Lake", None);
        b.class("Feature", None);
        b.union_class("WaterBody", &["Stream", "Lake"]);
        b.sub_class_of("WaterBody", "Feature");
        let mut g = b.into_graph();
        g.add(iri("urn:t#creek"), ty(), iri("urn:t#Stream"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#creek"), &ty(), &iri("urn:t#Feature")));
    }

    #[test]
    fn same_as_clique_closure() {
        let mut g = Graph::new();
        let same = Term::iri(owl::SAME_AS);
        g.add(iri("urn:a"), same.clone(), iri("urn:b"));
        g.add(iri("urn:b"), same.clone(), iri("urn:c"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:c"), &same, &iri("urn:a")));
        assert!(g.has(&iri("urn:a"), &same, &iri("urn:c")));
        assert!(g.has(&iri("urn:b"), &same, &iri("urn:a")));
    }

    // ---- semi-naive / incremental engine tests ----

    /// A graph exercising every rule group at once.
    fn kitchen_sink() -> Graph {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Feature", None);
        b.class("WaterBody", Some("Feature"));
        b.class("Stream", Some("WaterBody"));
        b.class("Lake", Some("WaterBody"));
        b.class("Creek", None);
        b.equivalent_class("Stream", "Creek");
        b.class("Chemical", None);
        b.class("Hazardous", None);
        b.object_property("contains", None, None);
        b.object_property("within", None, None);
        b.inverse_of("contains", "within");
        b.object_property("touches", None, None);
        b.characteristic("touches", Characteristic::Symmetric);
        b.object_property("upstreamOf", None, None);
        b.characteristic("upstreamOf", Characteristic::Transitive);
        b.object_property("hasSiteId", None, None);
        b.characteristic("hasSiteId", Characteristic::InverseFunctional);
        b.object_property("stores", Some("Feature"), Some("Chemical"));
        b.restrict(
            "Hazardous",
            "stores",
            RestrictionKind::SomeValuesFrom("Chemical".into()),
        );
        b.union_class("Wet", &["Stream", "Lake"]);
        let mut g = b.into_graph();
        for i in 0..12 {
            g.add(iri(&format!("urn:t#s{i}")), ty(), iri("urn:t#Stream"));
            g.add(
                iri(&format!("urn:t#s{i}")),
                iri("urn:t#upstreamOf"),
                iri(&format!("urn:t#s{}", i + 1)),
            );
            g.add(
                iri(&format!("urn:t#s{i}")),
                iri("urn:t#touches"),
                iri(&format!("urn:t#s{}", i + 1)),
            );
        }
        g.add(iri("urn:t#plant"), iri("urn:t#stores"), iri("urn:t#acid"));
        g.add(iri("urn:t#siteA"), iri("urn:t#hasSiteId"), iri("urn:t#id1"));
        g.add(iri("urn:t#siteB"), iri("urn:t#hasSiteId"), iri("urn:t#id1"));
        g.add(iri("urn:t#siteA"), iri("urn:t#within"), iri("urn:t#park"));
        g
    }

    #[test]
    fn semi_naive_matches_naive_fixpoint() {
        let mut naive = kitchen_sink();
        let mut semi = kitchen_sink();
        let naive_stats = Reasoner::naive().materialize(&mut naive);
        let semi_stats = Reasoner::default().materialize(&mut semi);
        assert_eq!(naive, semi, "both engines must reach the same fixpoint");
        assert_eq!(naive_stats.inferred, semi_stats.inferred);
        assert!(
            semi_stats.passes <= naive_stats.passes,
            "semi-naive needed {} passes vs naive {}",
            semi_stats.passes,
            naive_stats.passes
        );
        // After pass 1 the delta shrinks to the per-pass derivations.
        assert_eq!(semi_stats.delta_sizes[0], kitchen_sink().len());
        assert!(semi_stats.delta_sizes[1..]
            .iter()
            .all(|&d| d < semi_stats.delta_sizes[0]));
    }

    #[test]
    fn materialize_delta_equals_full_rematerialization() {
        // Materialize, snapshot the generation, add facts, then update
        // incrementally — and compare with materializing from scratch.
        let mut g = kitchen_sink();
        let reasoner = Reasoner::default();
        reasoner.materialize(&mut g);
        let mark = g.generation();
        let additions = vec![
            Triple::new(iri("urn:t#newSite"), ty(), iri("urn:t#Lake")),
            Triple::new(iri("urn:t#newSite"), iri("urn:t#stores"), iri("urn:t#acid")),
            Triple::new(iri("urn:t#s12"), iri("urn:t#upstreamOf"), iri("urn:t#s13")),
            Triple::new(iri("urn:t#newSite"), iri("urn:t#touches"), iri("urn:t#s0")),
            Triple::new(iri("urn:t#siteC"), iri("urn:t#hasSiteId"), iri("urn:t#id1")),
        ];
        let mut from_scratch = kitchen_sink();
        for t in &additions {
            g.insert(t.clone());
            from_scratch.insert(t.clone());
        }
        let stats = reasoner
            .materialize_delta(&mut g, mark, &Deadline::never())
            .unwrap();
        assert!(stats.inferred > 0, "the additions have consequences");
        reasoner.materialize(&mut from_scratch);
        assert_eq!(
            g, from_scratch,
            "incremental update must equal full re-materialization"
        );
        // The incremental seed is the 5 added triples, not the full graph.
        assert_eq!(stats.delta_sizes[0], additions.len());
    }

    #[test]
    fn materialize_delta_with_no_additions_is_free() {
        let mut g = kitchen_sink();
        Reasoner::default().materialize(&mut g);
        let mark = g.generation();
        let stats = Reasoner::default()
            .materialize_delta(&mut g, mark, &Deadline::never())
            .unwrap();
        assert_eq!(stats.passes, 0);
        assert_eq!(stats.inferred, 0);
    }

    #[test]
    fn late_schema_arrival_is_handled_incrementally() {
        // Declaring a restriction *after* materialization must reclassify
        // existing instances via the delta path.
        let mut g = Graph::new();
        g.add(iri("urn:t#plant"), iri("urn:t#stores"), iri("urn:t#acid"));
        g.add(iri("urn:t#acid"), ty(), iri("urn:t#Chemical"));
        let reasoner = Reasoner::default();
        reasoner.materialize(&mut g);
        let mark = g.generation();
        // Restriction declaration arrives as an update.
        let r = Term::blank("r1");
        g.add(r.clone(), ty(), iri(owl::RESTRICTION));
        g.add(r.clone(), iri(owl::ON_PROPERTY), iri("urn:t#stores"));
        g.add(r.clone(), iri(owl::SOME_VALUES_FROM), iri("urn:t#Chemical"));
        g.add(iri("urn:t#Hazardous"), iri(rdfs::SUB_CLASS_OF), r.clone());
        reasoner
            .materialize_delta(&mut g, mark, &Deadline::never())
            .unwrap();
        assert!(
            g.has(&iri("urn:t#plant"), &ty(), &r),
            "pre-existing instance data must meet the late restriction"
        );
    }
}
