//! Multi-tenant stress for `grdf-server`: 8 client threads over real
//! sockets. Three properties:
//!
//! * **exact accounting** — `server.requests` and the per-tenant
//!   windowed latency series reconcile exactly with what clients
//!   observed (the registry holds one shared histogram; tenants live in
//!   the cardinality-bounded window store);
//! * **quota isolation** — a flooding tenant is shed with 429s while a
//!   paced tenant riding the same server sees zero shed and bounded p99;
//! * **drain completeness** — connections in flight at shutdown are all
//!   served before the workers exit.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use grdf::feature::{encode_feature, Feature};
use grdf::rdf::vocab::grdf as ns;
use grdf::rdf::Graph;
use grdf::security::gsacs::{GSacs, OntoRepository, OwlHorstEngine};
use grdf::security::policy::{Policy, PolicySet};
use grdf::security::resilience::ResilienceConfig;
use grdf::server::{build_request, well_formed_response, GrdfServer, QuotaConfig, ServerConfig};

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: usize = 25;

fn service() -> GSacs {
    service_with(ResilienceConfig::default())
}

fn service_with(config: ResilienceConfig) -> GSacs {
    let mut data = Graph::new();
    for i in 0..10 {
        let mut site = Feature::new(&ns::app(&format!("site{i}")), "ChemSite");
        site.set_property("hasSiteName", format!("Site {i}").as_str());
        encode_feature(&mut data, &site);
    }
    let policies = PolicySet::new(vec![Policy::permit(
        &ns::sec("E1"),
        &ns::sec("Emergency"),
        &ns::app("ChemSite"),
    )]);
    GSacs::with_resilience(
        OntoRepository::new(),
        policies,
        Box::<OwlHorstEngine>::default(),
        data,
        16,
        config,
    )
}

/// One request for `tenant`, whole-exchange; returns the status code and
/// round-trip latency. Panics on a torn response — that is the invariant.
fn exchange(addr: SocketAddr, tenant: &str) -> (u16, Duration) {
    let request = build_request(
        "/query",
        &[("x-role", &ns::sec("Emergency")), ("x-tenant", tenant)],
        b"ASK { ?s ?p ?o }",
    );
    let start = Instant::now();
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s.write_all(&request).expect("write");
    let mut raw = Vec::new();
    let _ = s.read_to_end(&mut raw);
    assert!(
        well_formed_response(&raw),
        "torn response for tenant {tenant}:\n{}",
        String::from_utf8_lossy(&raw)
    );
    let status: u16 = String::from_utf8_lossy(&raw)
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    (status, start.elapsed())
}

#[test]
fn eight_tenants_reconcile_exactly_with_server_accounting() {
    let cfg = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let config = ResilienceConfig {
        obs: grdf::obs::Obs::new().with_windows(
            grdf::obs::WindowConfig::default(),
            grdf::runtime::system_clock(),
        ),
        ..ResilienceConfig::default()
    };
    let server = GrdfServer::bind("127.0.0.1:0", service_with(config), cfg).expect("bind");
    let addr = server.local_addr();

    let observed: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let tenant = format!("t{t}");
                    let mut ok = 0u64;
                    for _ in 0..REQUESTS_PER_THREAD {
                        let (status, _) = exchange(addr, &tenant);
                        assert_eq!(status, 200, "tenant {tenant}");
                        ok += 1;
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let total: u64 = observed.iter().sum();
    assert_eq!(total, (THREADS * REQUESTS_PER_THREAD) as u64);
    assert_eq!(
        server.requests_total(),
        total,
        "every client-observed response must be a counted request"
    );
    let snap = server.obs().registry().snapshot();
    assert_eq!(snap.counters["server.requests"], total);
    // Per-tenant latency lives in the windowed store now (bounded by the
    // tenant dimension), not as per-tenant registry histograms: exactly
    // one sample per request, filed under the right tenant label.
    let ws = server.obs().windows().expect("windowed store");
    let window = Duration::from_mins(5);
    for t in 0..THREADS {
        let summary = ws
            .summary("server.latency", Some(&format!("t{t}")), window)
            .expect("tenant series");
        assert_eq!(
            summary.count, REQUESTS_PER_THREAD as u64,
            "tenant t{t} windowed series must hold exactly its own requests"
        );
    }
    assert!(!snap.histograms.contains_key("server.latency.t0"));
    assert_eq!(snap.histograms["server.latency"].count, total);

    let (accepted, finished) = server.shutdown();
    assert_eq!(
        accepted, finished,
        "drain must finish every accepted connection"
    );
    assert_eq!(
        accepted, total,
        "one connection per request (connection: close)"
    );
}

#[test]
fn flooding_tenant_is_shed_while_paced_tenant_is_untouched() {
    let cfg = ServerConfig {
        workers: 4,
        quota: QuotaConfig {
            rate_per_sec: 50.0,
            burst: 5.0,
        },
        ..ServerConfig::default()
    };
    let server = GrdfServer::bind("127.0.0.1:0", service(), cfg).expect("bind");
    let addr = server.local_addr();

    let (noisy_ok, noisy_shed, calm_latencies) = std::thread::scope(|scope| {
        let noisy = scope.spawn(move || {
            let mut ok = 0u64;
            let mut shed = 0u64;
            for _ in 0..150 {
                match exchange(addr, "noisy") {
                    (200, _) => ok += 1,
                    (429, _) => shed += 1,
                    (status, _) => panic!("unexpected status {status} for the flooder"),
                }
            }
            (ok, shed)
        });
        let calm = scope.spawn(move || {
            // ~20 req/s: well inside a 50/s quota, even with the flood on.
            let mut latencies = Vec::new();
            for _ in 0..25 {
                let (status, latency) = exchange(addr, "calm");
                assert_eq!(status, 200, "the paced tenant must never be shed");
                latencies.push(latency);
                std::thread::sleep(Duration::from_millis(50));
            }
            latencies
        });
        let (ok, shed) = noisy.join().unwrap();
        let latencies = calm.join().unwrap();
        (ok, shed, latencies)
    });

    assert!(
        noisy_shed > 0,
        "a tight-loop flood against a 50/s quota must see 429s (got {noisy_ok} OKs)"
    );
    assert!(noisy_ok >= 5, "the burst allowance itself must be admitted");

    // The paced tenant's p99, measured client-side, stays bounded: the
    // flood is shed at admission, not queued in front of other tenants.
    let mut sorted = calm_latencies.clone();
    sorted.sort();
    let p99 = sorted[(sorted.len() * 99).div_ceil(100).min(sorted.len()) - 1];
    assert!(
        p99 < Duration::from_secs(1),
        "calm tenant p99 {p99:?} blew past its bound while another tenant flooded"
    );

    let snap = server.obs().registry().snapshot();
    assert_eq!(
        snap.counters["server.shed.quota"], noisy_shed,
        "every 429 is a counted quota shed, and only the flooder was shed"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_connections_already_accepted() {
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = GrdfServer::bind("127.0.0.1:0", service(), cfg).expect("bind");
    let addr = server.local_addr();

    // Park 6 full requests on the server — more than the worker count, so
    // some sit in the queue — then begin the drain before reading any
    // response.
    let request = build_request(
        "/query",
        &[("x-role", &ns::sec("Emergency"))],
        b"ASK { ?s ?p ?o }",
    );
    let mut streams: Vec<TcpStream> = (0..6)
        .map(|_| {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(&request).expect("write");
            s
        })
        .collect();
    // Let the accept loop pull them all off the listener first.
    std::thread::sleep(Duration::from_millis(200));

    let drain = std::thread::spawn(move || server.shutdown());

    for (i, s) in streams.iter_mut().enumerate() {
        let mut raw = Vec::new();
        let _ = s.read_to_end(&mut raw);
        assert!(
            well_formed_response(&raw),
            "conn {i} was dropped mid-drain:\n{}",
            String::from_utf8_lossy(&raw)
        );
        assert!(
            raw.starts_with(b"HTTP/1.1 200"),
            "conn {i}: {}",
            String::from_utf8_lossy(&raw)
        );
    }
    let (accepted, finished) = drain.join().unwrap();
    assert_eq!(accepted, 6);
    assert_eq!(
        finished, 6,
        "every accepted connection must be served to completion"
    );
}

#[test]
fn idle_server_shuts_down_promptly_without_admitting_the_wake_up() {
    // The accept thread blocks in `accept`; shutdown wakes it with one
    // loopback connect that must not count as an accepted connection.
    // The unspecified address is woken over loopback too.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = GrdfServer::bind(addr, service(), ServerConfig::default()).expect("bind");
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        let counts = server.shutdown();
        let took = start.elapsed();
        assert_eq!(counts, (0, 0), "{addr}");
        assert!(
            took < Duration::from_secs(1),
            "{addr}: shutdown took {took:?}"
        );
    }
}
