//! One benchmark run: generate inputs, set the service up, drive it over
//! HTTP, check its outputs, measure recovery, and (traced runs) replay
//! the requests in-process for per-layer numbers.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use grdf_rdf::graph::Graph;
use grdf_security::gsacs::policy_set_graph;
use grdf_server::GrdfServer;
use grdf_store::DurableStore;
use grdf_workload::incident::incident_store_scaled;

use crate::check::{self, Reference};
use crate::drive::{self, Load};
use crate::gen::{role_iris, Due, Inputs, Scale, Workload, CACHE_CAPACITY, DATA_SEED, MAIN_REPAIR};
use crate::replay::{self, metric, Metric, Step};
use crate::serve;
use crate::util::{beyond, chunked, cpu_ticks, mean, peak_rss_mb, percentile, steal_pct};

/// Reopenings of the durable store per run (`recover_ms` is their median).
const RECOVER_REPS: usize = 8;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Directory for scratch stores and span files.
    pub out: PathBuf,
    /// Dataset size (the workload's E6 point; smaller only in self-tests).
    pub scale: Scale,
}

pub const USAGE: &str = "usage: perfbench --workload <read_skewed|read_unique|mixed_writes> \
--seed <n> --seconds <n> --trace <0|1> [--out <dir>]";

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut out = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    });
                }
                "--out" => out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds: u64 = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        let workload: Workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            out: out.unwrap_or_else(default_out),
            scale: workload.scale(),
        })
    }
}

/// `$CARGO_TARGET_DIR/perfbench-out`, else `perfbench/target/perfbench-out`.
fn default_out() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-out")
}

/// The run's result line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub failures: Vec<String>,
    /// Digest of the generated request sequence.
    pub request_digest: String,
    /// Digest of the order-normalised check replies.
    pub response_digest: String,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced phases).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The final JSON line: end-to-end metrics untraced, per-layer traced.
    pub fn json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Print one metric line: name, value, unit and the samples behind it.
fn report(m: &Metric) {
    println!(
        "metric {:<26} {:>14.4} {:<6} n={}",
        m.name, m.value, m.unit, m.samples
    );
}

/// A counter from the server's metrics registry.
fn counter(server: &GrdfServer, name: &str) -> u64 {
    server
        .obs()
        .registry()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Apply the acknowledged writes, in order, to a copy of `base`.
fn with_writes(base: &Graph, inputs: &Inputs, acked: &[usize]) -> Graph {
    let mut g = base.clone();
    for &k in acked {
        let w = &inputs.writes[k];
        if w.insert {
            g.insert(w.triple.clone());
        } else {
            g.remove(&w.triple);
        }
    }
    g
}

/// Run one benchmark pass. `Err` means the run could not be carried out
/// (I/O, bind); failed output checks land in [`Outcome::failures`].
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let scale = args.scale;
    let mut out = Outcome::default();

    // Inputs (not part of setup_s).
    let t = Instant::now();
    let base = incident_store_scaled(scale.streams, scale.sites, scale.detail, DATA_SEED)
        .graph()
        .clone();
    let inputs = Inputs::generate(w, args.seed, &base, args.seconds);
    println!(
        "workload {} seed {} scale {} data_seed {DATA_SEED}: {} generated triples in {:.0} ms (excluded from setup_s)",
        w.name(),
        args.seed,
        scale.label(),
        base.len(),
        t.elapsed().as_secs_f64() * 1e3
    );
    out.request_digest = inputs.digest();
    println!("request digest {}", out.request_digest);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let work = serve::fresh_dir(
        &args.out,
        &format!("{}-{}-{}", w.name(), args.seed, std::process::id()),
    )?;
    let result = run_in(args, &inputs, &base, &work, &mut out);
    let _ = std::fs::remove_dir_all(&work);
    result.map(|()| out)
}

fn run_in(
    args: &Args,
    inputs: &Inputs,
    base: &Graph,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let w = args.workload;
    let roles = role_iris();

    // Set-up, each time followed by the write probe on the idle service
    // and a cold phase on its own connection.
    let mut colds = Vec::new();
    let mut probe = Load::default();
    let mut kept_probe = Vec::new();
    let per_rep = 2 * w.probe_pairs();
    let setup = serve::setup(base, w.durable(), work, w.setup_reps(), |rep, server| {
        let from = inputs.probe_from + rep * per_rep;
        let part = drive::write_probe(server.local_addr(), inputs, from..from + per_rep);
        kept_probe.clone_from(&part.acked);
        probe.merge(part);
        let cold = drive::cold_phase(server.local_addr(), inputs)?;
        println!(
            "cold phase: first 200 per role after {:?} ms; {} deadline 504(s) on the way (not failures)",
            cold.first_ok_ms.iter().map(|v| (v * 10.0).round() / 10.0).collect::<Vec<_>>(),
            cold.deadline_504
        );
        colds.push(cold);
        Ok(())
    })?;
    let addr = setup.server.local_addr();
    let cold_ms: Vec<f64> = colds.iter().map(|c| mean(&c.first_ok_ms)).collect();
    let cold_504: Vec<f64> = colds.iter().map(|c| c.deadline_504 as f64).collect();

    // Timed phase.
    let hits0 = counter(&setup.server, "gsacs.cache.hit");
    let misses0 = counter(&setup.server, "gsacs.cache.miss");
    let schedule: Vec<Due> = if w == Workload::MixedWrites {
        inputs.schedule(args.seconds)
    } else {
        Vec::new()
    };
    let ticks = cpu_ticks();
    let load = if w == Workload::MixedWrites {
        drive::open_loop(addr, inputs, &schedule)?
    } else {
        drive::closed_loop(addr, inputs, args.seconds)?
    };
    let steal = steal_pct(ticks);
    let rss = peak_rss_mb();
    let hits = counter(&setup.server, "gsacs.cache.hit") - hits0;
    let lookups = hits + counter(&setup.server, "gsacs.cache.miss") - misses0;
    let shed = counter(&setup.server, "server.shed");
    out.attempted = load.attempted;
    out.failed = load.failed;
    for e in &load.errors {
        println!("timed-phase failure: {e}");
    }
    let sent: std::collections::HashSet<_> = match w {
        Workload::MixedWrites => schedule
            .iter()
            .filter_map(|d| match d {
                Due::Read { i, .. } => Some(inputs.reads[*i]),
                Due::Write { .. } => None,
            })
            .collect(),
        _ => (0..load.reads_sent)
            .map(|i| inputs.reads[i % inputs.reads.len()])
            .collect(),
    };
    println!(
        "timed phase: {} {} on {} connection(s) for {:.2} s; {} distinct (role, query) pairs vs a {CACHE_CAPACITY}-entry cache; hit share {:.4} of {lookups} lookups",
        load.attempted,
        if w == Workload::MixedWrites { "requests (open loop)" } else { "reads (closed loop)" },
        drive::clients(),
        load.elapsed_s,
        sent.len(),
        if lookups > 0 { hits as f64 / lookups as f64 } else { 0.0 },
    );
    println!(
        "timed phase: {} failed ({:.6} fail_ratio), {} server-closed connection(s) reopened, server.shed {shed}, host CPU steal {steal:.1}%",
        load.failed,
        load.failed as f64 / load.attempted.max(1) as f64,
        load.reconnects
    );
    if load.leaks > 0 {
        out.failures.push(format!(
            "{} main-repair chemical-code response(s) carried rows",
            load.leaks
        ));
    }

    // Output checks over HTTP, outside any timed phase.
    let checks: Vec<(&str, &str)> = inputs
        .checks
        .iter()
        .map(|r| (roles[r.role as usize].as_str(), inputs.text(*r)))
        .collect();
    let check_replies = drive::serial_queries(addr, &checks)?;
    let list8 = check::list8_probes();
    let main_repair = roles[MAIN_REPAIR as usize].as_str();
    let list8: Vec<(&str, &str)> = list8.iter().map(|q| (main_repair, q.as_str())).collect();
    let probe_replies = drive::serial_queries(addr, &list8)?;
    setup.server.shutdown();

    for e in &probe.errors {
        println!("write-probe failure: {e}");
    }
    let probe_count = inputs.writes.len() - inputs.probe_from;
    for (phase, acked, sent) in [
        ("timed-phase", &load.acked, inputs.timed_writes),
        ("write-probe", &probe.acked, probe_count),
    ] {
        if acked.len() != sent {
            out.failures.push(format!(
                "{} of {sent} {phase} update(s) returned 200 with applied: 1",
                acked.len()
            ));
        }
    }
    // The kept service saw its probe pairs, then the timed phase's writes.
    let acked: Vec<usize> = kept_probe.iter().chain(&load.acked).copied().collect();
    let final_base = with_writes(base, inputs, &acked);
    let mut reference = Reference::materialize(&final_base);
    while reference.add_view() {}
    println!(
        "sizes: {} served triples ({} inferred); views {} = {:?} triples",
        reference.served(),
        reference.inferred,
        roles
            .iter()
            .map(|r| r.rsplit('#').next().unwrap_or(r))
            .collect::<Vec<_>>()
            .join("/"),
        reference.views.iter().map(Graph::len).collect::<Vec<_>>()
    );
    match check::compare(inputs, &inputs.checks, &check_replies, &reference) {
        Ok(digest) => {
            println!(
                "output check: {} replies match the reference; response digest {digest}",
                inputs.checks.len()
            );
            out.response_digest = digest;
        }
        Err(e) => out.failures.push(format!("reference mismatch: {e}")),
    }
    if let Err(e) = check::check_list8(&reference, &probe_replies) {
        out.failures.push(format!("List 8: {e}"));
    }
    drop(reference);

    // Recovery: reopen the durable service's own store after shutdown, or
    // (read workloads) a store checkpointed from the same base.
    let dir = match &setup.dir {
        Some(d) => d.clone(),
        None => {
            let d = serve::fresh_dir(work, "recover-store")?;
            DurableStore::create(
                Arc::new(serve::backend(&d)?),
                serve::store_config(),
                &final_base,
                &policy_set_graph(&serve::policies()),
            )
            .map_err(|e| format!("recover store: {e}"))?;
            d
        }
    };
    let mut recover_ms = Vec::with_capacity(RECOVER_REPS);
    for _ in 0..RECOVER_REPS {
        let (ms, same) = serve::recover(&dir, &final_base)?;
        if !same {
            out.failures.push(
                "recovered base differs from the seeded base plus the acknowledged updates"
                    .to_string(),
            );
        }
        recover_ms.push(ms);
    }
    if inputs.timed_writes > 0 {
        println!(
            "timed-phase writes (from due time): insert p50 {:.3} ms n={}, delete p50 {:.3} ms n={}",
            percentile(&load.insert_ms, 0.5),
            load.insert_ms.len(),
            percentile(&load.delete_ms, 0.5),
            load.delete_ms.len()
        );
    }
    println!(
        "writes: {} acknowledged in the timed phase, {} in the write probe; store flush policy: {}",
        load.acked.len(),
        probe.acked.len(),
        serve::flush_policy()
    );

    let reads = &load.read_ms;
    let (p99, qps, chunks) = chunked(&load.read_done_s, reads);
    let p99_beyond = beyond(reads.len() / chunks, 0.99);
    println!(
        "percentiles: p99 and qps are medians over {chunks} chunk(s) of the timed phase's {} reads",
        reads.len()
    );
    if p99_beyond < 10 {
        println!("note: read_p99_ms has only {p99_beyond} sample(s) beyond it per chunk");
    }
    let read_p50 = percentile(reads, 0.5);
    out.end_to_end = vec![
        metric(
            "setup_s",
            "s",
            percentile(&setup.samples_s, 0.5),
            setup.samples_s.len(),
        ),
        metric("qps", "req/s", qps, reads.len()),
        metric("read_p50_ms", "ms", read_p50, reads.len()),
        metric("read_p99_ms", "ms", p99, reads.len()),
        metric("peak_rss_mb", "MiB", rss, 1),
    ];
    // End-to-end figures of single operations, one request or one
    // reopening at a time: host noise of the moment moves them more than
    // a gated metric may move (README.md, "End-to-end metrics"), so they
    // are reported with the per-layer set, which has no bound.
    let single_ops = vec![
        metric("cold_read_ms", "ms", mean(&cold_ms), cold_ms.len()),
        metric(
            "insert_p50_ms",
            "ms",
            percentile(&probe.insert_ms, 0.5),
            probe.insert_ms.len(),
        ),
        metric(
            "delete_p50_ms",
            "ms",
            percentile(&probe.delete_ms, 0.5),
            probe.delete_ms.len(),
        ),
        metric(
            "recover_ms",
            "ms",
            percentile(&recover_ms, 0.5),
            recover_ms.len(),
        ),
    ];
    for m in out.end_to_end.iter().chain(&single_ops) {
        report(m);
    }

    if args.trace {
        let mut steps: Vec<Step> = inputs.cold.iter().map(|r| Step::Read(*r)).collect();
        if w == Workload::MixedWrites {
            steps.extend(schedule.iter().map(|d| match d {
                Due::Read { i, .. } => Step::Read(inputs.reads[*i]),
                Due::Write { k, .. } => Step::Write(*k),
            }));
        } else {
            steps.extend(
                (0..load.reads_sent).map(|i| Step::Read(inputs.reads[i % inputs.reads.len()])),
            );
        }
        steps.extend((inputs.probe_from..inputs.probe_from + per_rep).map(Step::Write));
        let trace_path = args
            .out
            .join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
        let layers = replay::run(inputs, base, &steps, args.seconds, work, &trace_path)?;
        println!("spans written to {}", trace_path.display());
        let handle_p50 = layers
            .iter()
            .find(|m| m.name == "gsacs.handle_us.p50")
            .map_or(0.0, |m| m.value);
        let printed = single_ops.len();
        out.per_layer = single_ops;
        out.per_layer.extend([
            metric(
                "server.overhead_us.p50",
                "us",
                read_p50 * 1e3 - handle_p50,
                reads.len(),
            ),
            metric("server.reconnects", "count", load.reconnects as f64, 1),
            metric(
                "server.cold_504",
                "count",
                percentile(&cold_504, 0.5),
                cold_504.len(),
            ),
            metric("server.shed", "count", shed as f64, 1),
        ]);
        out.per_layer.extend(layers);
        out.per_layer
            .push(metric("bench.lag_max_ms", "ms", load.lag_max_ms, 1));
        for m in &out.per_layer[printed..] {
            report(m);
        }
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    Ok(())
}
