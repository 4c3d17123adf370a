//! One-off probe: materialization time at large E6 scales.
//! `cargo run --release -p grdf-bench --example scale_probe [streams] [sites]`

use std::time::Instant;

use grdf_bench::incident_graph_scaled;
use grdf_owl::reasoner::Reasoner;

fn main() {
    let mut args = std::env::args().skip(1);
    let streams: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1000);
    let sites: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1000);
    let detail: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(7);

    let t0 = Instant::now();
    let g = incident_graph_scaled(streams, sites, detail, 42);
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "generated {}x{}: {} triples in {:.1} ms",
        streams,
        sites,
        g.len(),
        gen_ms
    );

    let t1 = Instant::now();
    let mut m = g.clone();
    let clone_ms = t1.elapsed().as_secs_f64() * 1e3;
    let t2 = Instant::now();
    let stats = Reasoner::default().materialize(&mut m);
    let mat_ms = t2.elapsed().as_secs_f64() * 1e3;
    println!(
        "semi_naive: clone {clone_ms:.1} ms, materialize {mat_ms:.1} ms, inferred {}, passes {}, final {}",
        stats.inferred,
        stats.passes,
        m.len()
    );
}
