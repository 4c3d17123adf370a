//! The traced run: replay the same seed's requests in-process against a
//! fresh service and time the calls into each layer's public functions.
//!
//! Every request gets one root span; child spans wrap the public calls
//! (`GSacs::handle_with_budget`, `parser::parse_query`,
//! `execute_query_with_deadline`, `GSacs::handle_update_with_budget`,
//! `DurableStore::append_batch`, ...). `query.eval` is a separate
//! evaluation on the role's view, so `gsacs.handle` minus `query.eval`
//! approximates G-SACS's own cost. Spans stay in memory and are written
//! out as JSON lines when the replay ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grdf_owl::reasoner::Reasoner;
use grdf_query::eval::execute_query_with_deadline;
use grdf_query::parser::parse_query;
use grdf_rdf::graph::Graph;
use grdf_runtime::{Budget, Deadline};
use grdf_security::gsacs::{
    policy_set_graph, ClientRequest, GSacs, UpdateOp, UpdateOutcome, UpdateRequest,
};
use grdf_security::labels::LabelIr;
use grdf_store::{DurableStore, LoggedOp};

use crate::gen::{role_iris, Inputs, Read, Write};
use crate::serve;
use crate::util::{mean, percentile};

/// The server's default per-request deadline, applied to replayed calls.
const DEADLINE: Duration = Duration::from_secs(2);

/// Reads per block of the tracing-overhead comparison.
const OVERHEAD_BLOCK: usize = 25;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span recorder. When off, calls are timed but not kept.
#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    next_id: u32,
    pub spans: Vec<Span>,
}

/// An open span.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    trace: u64,
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, trace: u64, parent: u32, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            trace,
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Close `open`; returns its duration.
    pub fn close(&mut self, open: Open) -> Duration {
        let dur = open.start.elapsed();
        if self.on {
            self.spans.push(Span {
                trace: open.trace,
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
        }
        dur
    }

    /// Run `f` inside a child span of `parent`.
    pub fn child<T>(
        &mut self,
        parent: Open,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.open(parent.trace, parent.id, name);
        let out = f();
        (out, self.close(open))
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"trace\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.dur_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// One replayed request.
#[derive(Debug, Clone)]
pub enum Step {
    Read(Read),
    Write(usize),
}

/// A per-layer metric: name, unit, value, and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

fn to_logged(w: &Write) -> LoggedOp {
    if w.insert {
        LoggedOp::Insert(w.triple.clone())
    } else {
        LoggedOp::Delete(w.triple.clone())
    }
}

/// Replay one read: `handle_with_budget`, then (when `with_query`) the
/// parse and a separate evaluation on the role's view. Returns whether
/// the handle call hit the query cache and the row count.
fn read_step(
    svc: &GSacs,
    tracer: &mut Tracer,
    inputs: &Inputs,
    trace: u64,
    r: Read,
    with_query: bool,
) -> Result<(bool, usize), String> {
    let role = &role_iris()[r.role as usize];
    let text = inputs.text(r);
    let request = ClientRequest {
        role: role.clone(),
        query: text.to_string(),
    };
    let root = tracer.open(trace, 0, "request");
    let hits_before = svc.cache_stats().0;
    let handle = tracer.open(trace, root.id, "gsacs.handle");
    let result = svc.handle_with_budget(&request, Budget::with_time(DEADLINE));
    let hit = svc.cache_stats().0 > hits_before;
    let handle = Open {
        name: if hit {
            "gsacs.handle.hit"
        } else {
            "gsacs.handle.miss"
        },
        ..handle
    };
    tracer.close(handle);
    let result = result.map_err(|e| format!("replayed read failed: {e:?}"))?;
    let mut rows = result.select_rows().len();
    if with_query {
        let (parsed, _) = tracer.child(root, "query.parse", || parse_query(text));
        let query = parsed.map_err(|e| format!("{e}"))?;
        let view = svc.view_for(role);
        let (evaluated, _) = tracer.child(root, "query.eval", || {
            execute_query_with_deadline(&view, &query, &Deadline::never())
        });
        rows = evaluated.map_err(|e| format!("{e}"))?.select_rows().len();
    }
    tracer.close(root);
    Ok((hit, rows))
}

/// Run the traced replay of `steps` (reads capped at half of `seconds`
/// of replay time, which keeps a traced run inside its time limit; writes
/// always run) and derive the per-layer metrics. Spans go to `trace_path`.
pub fn run(
    inputs: &Inputs,
    base: &Graph,
    steps: &[Step],
    seconds: u64,
    work: &Path,
    trace_path: &Path,
) -> Result<Vec<Metric>, String> {
    let mut tracer = Tracer::new();
    let roles = role_iris();
    let policy_set = serve::policies();
    let policy_graph = policy_set_graph(&policy_set);

    // Set-up layers, under trace 0.
    let setup = tracer.open(0, 0, "setup");
    let copy = base.clone();
    let dir = if inputs.workload.durable() {
        Some(serve::fresh_dir(work, "replay-store")?)
    } else {
        None
    };
    let (svc, init) = tracer.child(setup, "gsacs.init", || serve::build(copy, dir.as_deref()));
    let mut svc = svc?;
    let mut mat = base.clone();
    let (stats, materialize) = tracer.child(setup, "owl.materialize", || {
        Reasoner::default().materialize(&mut mat)
    });
    drop(mat);
    let (_labels, compile) = tracer.child(setup, "labels.compile", || {
        LabelIr::compile(svc.dataset(), &policy_set)
    });
    let shadow_dir = serve::fresh_dir(work, "shadow-store")?;
    let backend: Arc<dyn grdf_store::StorageBackend> = Arc::new(serve::backend(&shadow_dir)?);
    let shadow = DurableStore::create(
        Arc::clone(&backend),
        serve::store_config(),
        base,
        &policy_graph,
    )
    .map_err(|e| format!("shadow store: {e}"))?;
    let (ckpt, checkpoint) = tracer.child(setup, "store.checkpoint", || {
        shadow.checkpoint(base, &policy_graph)
    });
    ckpt.map_err(|e| format!("shadow checkpoint: {e}"))?;
    let mut view_triples = 0;
    let mut build_ms = Vec::new();
    for role in &roles {
        let (view, d) = tracer.child(setup, "gsacs.view_for", || svc.view_for(role));
        view_triples += view.len();
        build_ms.push(d.as_secs_f64() * 1e3);
    }
    tracer.close(setup);

    // The request sequence.
    let wal_before = shadow.wal_bytes();
    let mut ops = 0usize;
    let mut expected = base.clone();
    let mut replayed: Vec<Read> = Vec::new();
    let mut rows = Vec::new();
    let mut read_errors = 0usize;
    let limit = Duration::from_secs(seconds) / 2;
    let started = Instant::now();
    for (n, step) in steps.iter().enumerate() {
        let trace = n as u64 + 1;
        match step {
            Step::Read(r) => {
                if started.elapsed() >= limit {
                    continue;
                }
                match read_step(&svc, &mut tracer, inputs, trace, *r, true) {
                    Ok((_, n)) => {
                        rows.push(n as f64);
                        replayed.push(*r);
                    }
                    Err(_) => read_errors += 1,
                }
            }
            Step::Write(k) => {
                let w = &inputs.writes[*k];
                let root = tracer.open(trace, 0, "update");
                let request = UpdateRequest {
                    role: roles[2].clone(),
                    ops: vec![if w.insert {
                        UpdateOp::Insert(w.triple.clone())
                    } else {
                        UpdateOp::Delete(w.triple.clone())
                    }],
                };
                let name = if w.insert {
                    "gsacs.update.insert"
                } else {
                    "gsacs.update.delete"
                };
                let (outcome, _) = tracer.child(root, name, || {
                    svc.handle_update_with_budget(&request, Budget::with_time(DEADLINE))
                });
                if !matches!(outcome, UpdateOutcome::Applied(1)) {
                    return Err(format!("replayed update {k} was not applied: {outcome:?}"));
                }
                let (appended, _) = tracer.child(root, "store.append", || {
                    shadow.append_batch(&[to_logged(w)])
                });
                appended.map_err(|e| format!("shadow append: {e}"))?;
                tracer.close(root);
                ops += 1;
                if w.insert {
                    expected.insert(w.triple.clone());
                } else {
                    expected.remove(&w.triple);
                }
            }
        }
    }
    if read_errors > 0 {
        return Err(format!("{read_errors} replayed read(s) failed"));
    }
    let wal_bytes = shadow.wal_bytes().saturating_sub(wal_before);
    drop(shadow);
    let recover_span = tracer.open(0, 0, "store.recover");
    let recovered = grdf_store::recover(backend.as_ref()).map_err(|e| format!("recover: {e}"))?;
    let recover = tracer.close(recover_span);
    if recovered.base != expected {
        return Err("shadow-store recovery differs from the replayed base".to_string());
    }
    let (hits, misses) = svc.cache_stats();
    let builds: u64 = roles.iter().map(|r| svc.view_builds_for(r)).sum();
    let counters = svc.obs().registry().snapshot().counters;
    let full = counters.get("gsacs.update.full").copied().unwrap_or(0);
    let overhead = trace_overhead(&svc, &mut tracer, inputs, &replayed, limit / 4)?;
    tracer
        .write_jsonl(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let handle: Vec<f64> = [
        tracer.durations_us("gsacs.handle.hit"),
        tracer.durations_us("gsacs.handle.miss"),
    ]
    .concat();
    let hit_us = tracer.durations_us("gsacs.handle.hit");
    let parse = tracer.durations_us("query.parse");
    let eval = tracer.durations_us("query.eval");
    let ins = tracer.durations_us("gsacs.update.insert");
    let del = tracer.durations_us("gsacs.update.delete");
    let append = tracer.durations_us("store.append");
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let lookups = hits + misses;
    Ok(vec![
        metric(
            "gsacs.handle_us.p50",
            "us",
            percentile(&handle, 0.5),
            handle.len(),
        ),
        metric(
            "gsacs.handle_us.p99",
            "us",
            percentile(&handle, 0.99),
            handle.len(),
        ),
        metric(
            "gsacs.hit_us.p50",
            "us",
            percentile(&hit_us, 0.5),
            hit_us.len(),
        ),
        metric(
            "gsacs.cache.hit_ratio",
            "ratio",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            lookups as usize,
        ),
        metric("gsacs.view.build_ms", "ms", mean(&build_ms), build_ms.len()),
        metric("gsacs.view.builds", "count", builds as f64, 1),
        metric(
            "gsacs.view.triples",
            "count",
            view_triples as f64,
            roles.len(),
        ),
        metric(
            "gsacs.insert_ms.p50",
            "ms",
            percentile(&ins, 0.5) / 1e3,
            ins.len(),
        ),
        metric(
            "gsacs.delete_ms.p50",
            "ms",
            percentile(&del, 0.5) / 1e3,
            del.len(),
        ),
        metric("gsacs.update.full", "count", full as f64, 1),
        metric("gsacs.init_ms", "ms", ms(init), 1),
        metric("labels.compile_ms", "ms", ms(compile), 1),
        metric(
            "query.parse_us.p50",
            "us",
            percentile(&parse, 0.5),
            parse.len(),
        ),
        metric(
            "query.eval_us.p50",
            "us",
            percentile(&eval, 0.5),
            eval.len(),
        ),
        metric(
            "query.eval_us.p99",
            "us",
            percentile(&eval, 0.99),
            eval.len(),
        ),
        metric("query.rows.mean", "rows", mean(&rows), rows.len()),
        metric("owl.materialize_ms", "ms", ms(materialize), 1),
        metric("owl.inferred", "count", stats.inferred as f64, 1),
        metric(
            "store.append_us.p50",
            "us",
            percentile(&append, 0.5),
            append.len(),
        ),
        metric(
            "store.wal_bytes_per_op",
            "bytes",
            if ops == 0 {
                0.0
            } else {
                wal_bytes as f64 / ops as f64
            },
            ops,
        ),
        metric("store.checkpoint_ms", "ms", ms(checkpoint), 1),
        metric("store.recover_ms", "ms", ms(recover), 1),
        metric("obs.trace_overhead_pct", "%", overhead.0, overhead.1),
    ])
}

/// Tracing overhead: blocks of already-replayed reads run twice, once
/// with span recording off and once on (alternating which goes first),
/// after one untimed warm-up pass of the first block. Returns the
/// percentage and the reads compared; stops after `budget` of time.
fn trace_overhead(
    svc: &GSacs,
    tracer: &mut Tracer,
    inputs: &Inputs,
    reads: &[Read],
    budget: Duration,
) -> Result<(f64, usize), String> {
    let saved = std::mem::take(&mut tracer.spans);
    let (mut off, mut on, mut compared) = (Duration::ZERO, Duration::ZERO, 0usize);
    let pass = |tracer: &mut Tracer, block: &[Read], record: bool| -> Result<Duration, String> {
        tracer.on = record;
        let t = Instant::now();
        for r in block {
            read_step(svc, tracer, inputs, u64::MAX, *r, false)?;
        }
        Ok(t.elapsed())
    };
    // Writes replayed earlier may have invalidated the views: rebuild
    // them, then warm the cache with the first block.
    for role in role_iris() {
        svc.view_for(&role);
    }
    if let Some(first) = reads.chunks(OVERHEAD_BLOCK).next() {
        pass(tracer, first, false)?;
    }
    let started = Instant::now();
    for (b, block) in reads.chunks(OVERHEAD_BLOCK).enumerate() {
        if b > 0 && started.elapsed() >= budget {
            break;
        }
        let order = if b % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for record in order {
            let d = pass(tracer, block, record)?;
            if record {
                on += d;
            } else {
                off += d;
            }
        }
        compared += block.len();
    }
    tracer.on = true;
    tracer.spans = saved;
    let pct = if off.is_zero() {
        0.0
    } else {
        (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0
    };
    Ok((pct, compared))
}
