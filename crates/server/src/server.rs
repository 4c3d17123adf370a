//! The multi-tenant G-SACS server: a bounded worker pool serving
//! HTTP/1.1 connections with explicit overload behavior.
//!
//! Every unbounded resource has a bound and a fail-closed response:
//!
//! * **connections** — at most `max_connections` queued + active; excess
//!   accepts are answered `503 + Retry-After` and closed, never buffered.
//! * **tenant rate** — per-tenant token buckets; exhaustion is
//!   `429 + Retry-After` with a jittered `X-Backoff-Ms` hint.
//! * **request time** — a `Deadline-Ms` header becomes a
//!   [`Budget`] that propagates into view construction, query
//!   evaluation, and the reasoner fixpoint; expiry is `504`.
//! * **slow clients** — socket read/write timeouts bound how long a
//!   stalled peer can pin a worker.
//! * **shutdown** — graceful drain: accepted connections are served to
//!   completion; workers exit only once the queue is empty.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::Duration;

use grdf_obs::{Obs, SloEngine, SloStatus, TenantDim, TraceId};
use grdf_query::eval::QueryResult;
use grdf_rdf::ntriples;
use grdf_rdf::term::Term;
use grdf_rdf::vocab::xsd;
use grdf_runtime::{system_clock, Budget, Clock, SeedTree};
use grdf_security::gsacs::{ClientRequest, GSacs, UpdateOp, UpdateOutcome, UpdateRequest};
use grdf_security::resilience::GsacsError;
use parking_lot::RwLock;

use crate::http::{escape_json, escape_json_into, HttpConn, HttpError, Request, Response};
use crate::quota::{QuotaConfig, TenantQuotas};
use crate::transport::Conn;

/// Server tuning. The defaults suit tests and small deployments; the CLI
/// exposes the interesting ones as flags.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bound on queued + in-service connections; excess accepts get 503.
    pub max_connections: usize,
    /// Socket read timeout (slow-client protection).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Requests served per connection before it is closed.
    pub keep_alive_requests: usize,
    /// Budget applied when a request carries no `Deadline-Ms` header.
    pub default_deadline: Duration,
    /// Ceiling on client-requested deadlines.
    pub max_deadline: Duration,
    /// Per-tenant admission quota.
    pub quota: QuotaConfig,
    /// Time source for quotas and latency accounting.
    pub clock: Arc<dyn Clock>,
    /// Bound on distinct tenant labels attributed in the windowed
    /// metrics; raw ids beyond the cap collapse into `"other"`.
    pub tenant_cap: usize,
    /// How long a tenant slot must sit idle before its label can be
    /// recycled for a new tenant.
    pub tenant_min_idle: Duration,
    /// Hierarchical seed lane for the server's randomized hints (tenant
    /// quota backoff jitter). `None` (the default) derives the jitter
    /// seed from the bound port as before; a simulated world pins a lane
    /// so the whole run replays bit-identically from one master seed.
    pub seeds: Option<SeedTree>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            max_connections: 64,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            keep_alive_requests: 128,
            default_deadline: Duration::from_secs(2),
            max_deadline: Duration::from_secs(10),
            quota: QuotaConfig::default(),
            clock: system_clock(),
            tenant_cap: 32,
            tenant_min_idle: Duration::from_mins(1),
            seeds: None,
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("workers", &self.workers)
            .field("max_connections", &self.max_connections)
            .field("read_timeout", &self.read_timeout)
            .field("keep_alive_requests", &self.keep_alive_requests)
            .field("default_deadline", &self.default_deadline)
            .field("max_deadline", &self.max_deadline)
            .field("quota", &self.quota)
            .finish_non_exhaustive()
    }
}

/// Under degraded admission (an SLO burning on both alert windows),
/// every Nth mutating/query request is shed pre-quota with `503`.
const SLO_SHED_EVERY: u64 = 4;

/// How stale the cached SLO evaluation may get before a request
/// re-evaluates it against the window store.
const SLO_REFRESH: Duration = Duration::from_secs(1);

/// Cached result of the most recent SLO evaluation (refreshed at most
/// once per [`SLO_REFRESH`], so the hot path never pays a ring scan).
struct SloCache {
    at: Option<Duration>,
    statuses: Vec<SloStatus>,
    burning: bool,
}

/// State shared by the accept loop and every worker.
struct Shared {
    svc: RwLock<GSacs>,
    obs: Obs,
    cfg: ServerConfig,
    quotas: TenantQuotas,
    /// Bounded-cardinality tenant label dimension for windowed metrics.
    tenants: TenantDim,
    /// Objectives evaluated for `/metrics` and degraded admission.
    slo: SloEngine,
    slo_cache: StdMutex<SloCache>,
    /// Monotone tick choosing which requests a burning SLO sheds.
    slo_shed_tick: AtomicU64,
    queue: StdMutex<VecDeque<Box<dyn Conn>>>,
    queue_signal: Condvar,
    shutdown: AtomicBool,
    /// Connections accepted into the queue (not shed).
    conns_accepted: AtomicU64,
    /// Connections fully served (matched against `conns_accepted` by the
    /// drain-completeness tests).
    conns_finished: AtomicU64,
    /// Connections currently being served.
    active: AtomicUsize,
    /// Requests parsed and routed.
    requests: AtomicU64,
}

impl Shared {
    fn counter(&self, name: &str) {
        self.obs.registry().counter(name).inc();
    }

    /// Current SLO statuses, re-evaluated at most once per
    /// [`SLO_REFRESH`] on the window store. Empty (and never burning)
    /// when no objectives or no window store are configured.
    fn slo_statuses(&self) -> (Vec<SloStatus>, bool) {
        let Some(windows) = self.obs.windows() else {
            return (Vec::new(), false);
        };
        if self.slo.objectives().is_empty() {
            return (Vec::new(), false);
        }
        let now = self.cfg.clock.now();
        let mut cache = self
            .slo_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let stale = match cache.at {
            None => true,
            Some(at) => now.saturating_sub(at) >= SLO_REFRESH,
        };
        if stale {
            cache.statuses = self.slo.evaluate(windows);
            cache.burning = cache
                .statuses
                .iter()
                .any(|s| s.state == grdf_obs::SloState::Burning);
            cache.at = Some(now);
        }
        (cache.statuses.clone(), cache.burning)
    }
}

/// The transport-independent heart of the server: the shared service
/// state plus the connection-serving loop, with no threads and no
/// sockets of its own. [`GrdfServer`] wraps it in an accept thread and a
/// worker pool over real TCP; the deterministic simulation drives the
/// very same core inline over in-memory [`SimConn`](crate::transport::SimConn)s.
#[derive(Debug, Clone)]
pub struct ServerCore {
    shared: Arc<Shared>,
}

impl ServerCore {
    /// Assemble the core around `svc`. The quota jitter seed derives from
    /// `cfg.seeds` when set, else from `fallback_seed`.
    fn assemble(svc: GSacs, cfg: ServerConfig, fallback_seed: u64) -> ServerCore {
        let obs = svc.obs().clone();
        let slo = SloEngine::new(svc.slos().to_vec());
        let quota_seed = cfg
            .seeds
            .map_or(fallback_seed, |t| t.child("quota.jitter").seed());
        let quotas = TenantQuotas::new(Arc::clone(&cfg.clock), cfg.quota, quota_seed);
        let tenants = TenantDim::new(cfg.tenant_cap, cfg.tenant_min_idle);
        ServerCore {
            shared: Arc::new(Shared {
                svc: RwLock::new(svc),
                obs,
                cfg,
                quotas,
                tenants,
                slo,
                slo_cache: StdMutex::new(SloCache {
                    at: None,
                    statuses: Vec::new(),
                    burning: false,
                }),
                slo_shed_tick: AtomicU64::new(0),
                queue: StdMutex::new(VecDeque::new()),
                queue_signal: Condvar::new(),
                shutdown: AtomicBool::new(false),
                conns_accepted: AtomicU64::new(0),
                conns_finished: AtomicU64::new(0),
                active: AtomicUsize::new(0),
                requests: AtomicU64::new(0),
            }),
        }
    }

    /// A core with no listener attached (the simulation entry point).
    pub fn new(svc: GSacs, cfg: ServerConfig) -> ServerCore {
        ServerCore::assemble(svc, cfg, 0x6EDF_5EED)
    }

    /// Serve one connection to completion on the calling thread — the
    /// exact keep-alive/timeout/overload path the worker pool runs, over
    /// any [`Conn`]. Admission accounting matches the threaded path:
    /// the connection counts accepted, active while served, finished
    /// after.
    pub fn serve(&self, conn: Box<dyn Conn>) {
        let shared = &self.shared;
        shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
        shared.active.fetch_add(1, Ordering::Relaxed);
        serve_conn(shared, conn);
        shared.active.fetch_sub(1, Ordering::Relaxed);
        shared.conns_finished.fetch_add(1, Ordering::Relaxed);
    }

    /// The wrapped service (simulation oracles read views, audit state,
    /// and the durable store through this).
    pub fn service(&self) -> &RwLock<GSacs> {
        &self.shared.svc
    }

    /// Requests parsed and routed so far.
    pub fn requests_total(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// The observability bundle (shared with the wrapped GSacs).
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }
}

/// A running server: an accept thread plus a bounded worker pool.
#[derive(Debug)]
pub struct GrdfServer {
    core: ServerCore,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("cfg", &self.cfg)
            .field("active", &self.active.load(Ordering::Relaxed))
            .field("requests", &self.requests.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl GrdfServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving `svc`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        svc: GSacs,
        cfg: ServerConfig,
    ) -> std::io::Result<GrdfServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let core = ServerCore::assemble(svc, cfg, addr.port().into());
        let shared = &core.shared;
        let accept = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("grdf-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name(format!("grdf-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(GrdfServer {
            core,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests parsed and routed so far.
    pub fn requests_total(&self) -> u64 {
        self.core.shared.requests.load(Ordering::Relaxed)
    }

    /// Connections accepted into the service queue.
    pub fn conns_accepted(&self) -> u64 {
        self.core.shared.conns_accepted.load(Ordering::Relaxed)
    }

    /// Connections fully served.
    pub fn conns_finished(&self) -> u64 {
        self.core.shared.conns_finished.load(Ordering::Relaxed)
    }

    /// The service's observability bundle (shared with the wrapped GSacs).
    pub fn obs(&self) -> &Obs {
        &self.core.shared.obs
    }

    /// The service's current health, as the `/health` endpoint reports it.
    pub fn health_json(&self) -> String {
        self.core.shared.svc.read().health().to_json()
    }

    /// Graceful drain: stop accepting, serve everything already accepted,
    /// then join all threads. Returns (connections accepted, connections
    /// finished) — equal when the drain lost nothing.
    pub fn shutdown(mut self) -> (u64, u64) {
        let shared = &self.core.shared;
        shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // The accept thread blocks in `accept`: one loopback connect
            // wakes it, and it drops that connection unadmitted. Should
            // the connect fail, the thread is left blocked rather than
            // joined, so shutdown cannot hang.
            if wake_accept(self.addr).is_ok() {
                let _ = h.join();
            }
        }
        shared.queue_signal.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        (
            shared.conns_accepted.load(Ordering::Relaxed),
            shared.conns_finished.load(Ordering::Relaxed),
        )
    }
}

/// Back-off after a failed `accept` (e.g. out of file descriptors), so a
/// persistent error cannot spin the accept thread.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Block in `accept` until shutdown. The shutdown flag is read after each
/// accept returns, so the wake-up connection from [`GrdfServer::shutdown`]
/// (or a client racing it) is dropped without being admitted.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => admit_conn(shared, Box::new(stream)),
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
}

/// Connect once to the listener at `addr` to return its accept thread
/// from `accept`. An unspecified bind address is reached over loopback.
fn wake_accept(addr: SocketAddr) -> std::io::Result<()> {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    std::net::TcpStream::connect_timeout(&target, Duration::from_secs(1)).map(drop)
}

/// Queue the connection, or shed it fail-closed with `503 + Retry-After`
/// when the connection bound is reached. Shedding writes one bounded
/// response and closes — overload never grows a buffer.
fn admit_conn(shared: &Shared, mut conn: Box<dyn Conn>) {
    let queued = shared
        .queue
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .len();
    let in_system = queued + shared.active.load(Ordering::Relaxed);
    if in_system >= shared.cfg.max_connections {
        shared.counter("server.shed");
        shared.counter("server.shed.conns");
        conn.configure(shared.cfg.read_timeout, shared.cfg.write_timeout);
        let resp = Response::error(503, "connection limit reached")
            .header("retry-after", 1)
            .closing();
        let _ = resp.write_to(&mut conn);
        return;
    }
    shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
    shared
        .queue
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push_back(conn);
    shared.queue_signal.notify_one();
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream: Option<Box<dyn Conn>> = {
            let mut queue = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                // Drain discipline: exit only once shutdown is flagged AND
                // the queue is empty — every accepted connection is served.
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .queue_signal
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                queue = guard;
            }
        };
        let Some(stream) = stream else { return };
        shared.active.fetch_add(1, Ordering::Relaxed);
        serve_conn(shared, stream);
        shared.active.fetch_sub(1, Ordering::Relaxed);
        shared.conns_finished.fetch_add(1, Ordering::Relaxed);
    }
}

/// Serve one connection's keep-alive request loop. Every exit path is a
/// clean teardown: either a well-formed (error) response was written, or
/// the stream is dropped without one (idle timeout, peer disconnect).
fn serve_conn(shared: &Shared, mut stream: Box<dyn Conn>) {
    stream.configure(shared.cfg.read_timeout, shared.cfg.write_timeout);
    let mut conn = HttpConn::new(stream);
    for served in 0.. {
        match conn.read_request() {
            Ok(None) => break,
            Ok(Some(req)) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                shared.counter("server.requests");
                let outcome = catch_unwind(AssertUnwindSafe(|| handle_request(shared, &req)));
                let mut resp = outcome.unwrap_or_else(|_| {
                    shared.counter("server.panics");
                    Response::error(500, "internal error")
                });
                // Close after this response when the client asked, the
                // per-connection request budget is spent, or a drain began.
                let close = !req.keep_alive()
                    || served + 1 >= shared.cfg.keep_alive_requests
                    || shared.shutdown.load(Ordering::SeqCst);
                if close {
                    resp = resp.closing();
                }
                let closing = resp.close;
                if conn.write_response(&resp).is_err() || closing {
                    break;
                }
            }
            Err(e) => {
                if let Some(resp) = error_response(&e) {
                    let _ = conn.write_response(&resp);
                }
                if matches!(e, HttpError::TimedOut { .. }) {
                    shared.counter("server.timeouts");
                }
                break;
            }
        }
    }
}

/// The response owed for an unreadable request, if any. `None` means
/// silent teardown (idle keep-alive timeout, disconnect): there is no
/// well-formed peer left to answer.
fn error_response(e: &HttpError) -> Option<Response> {
    let resp = match e {
        HttpError::Malformed(m) => Response::error(400, m),
        HttpError::HeadTooLarge => Response::error(431, "request head too large"),
        HttpError::BodyTooLarge => Response::error(413, "request body too large"),
        HttpError::TimedOut { mid_request: true } => Response::error(408, "timed out mid-request"),
        HttpError::TimedOut { mid_request: false } | HttpError::Disconnected | HttpError::Io(_) => {
            return None
        }
    };
    Some(resp.closing())
}

/// Route one parsed request. Always returns a well-formed response; error
/// bodies are `{"error": ...}` envelopes carrying no data.
fn handle_request(shared: &Shared, req: &Request) -> Response {
    let tenant = sanitize_tenant(req.header("x-tenant").unwrap_or("public"));
    // Bound the metric cardinality *before* the label reaches any store:
    // a raw tenant id resolves to one of at most `tenant_cap` live labels
    // (or `"other"`), so 10k distinct ids cannot grow the registry. A
    // recycled slot drops the evicted tenant's windowed series.
    let resolved = shared.tenants.resolve(&tenant, shared.cfg.clock.now());
    if let (Some(evicted), Some(ws)) = (&resolved.evicted, shared.obs.windows()) {
        ws.drop_tenant(evicted);
    }
    let wanted_id = req
        .header("x-trace-id")
        .and_then(TraceId::parse_hex)
        .unwrap_or(TraceId::NONE);
    let start = shared.cfg.clock.now();
    let (resp, trace_id) = {
        let scope = shared.obs.scope_with_id("server.request", wanted_id);
        grdf_obs::set_tenant(Arc::clone(&resolved.label));
        let id = scope.trace_id();
        let resp = route(shared, req, &tenant);
        // Latency is recorded inside the scope so the windowed store
        // sees the tenant series and the histogram can capture an
        // exemplar trace id. One shared histogram + a capped tenant
        // dimension replaces the unbounded per-tenant
        // `server.latency.<tenant>` registry entries.
        let elapsed = shared.cfg.clock.now().saturating_sub(start);
        grdf_obs::observe(
            "server.latency",
            u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        );
        grdf_obs::win_add("server.requests", 1);
        // Self-inflicted shed 503s stay out of the error numerator
        // (`server.shed` is their signal): counting them would hold the
        // fast error-ratio window above target forever once shedding
        // starts — degraded admission sheds 1-in-SLO_SHED_EVERY, an
        // error rate far beyond any sane objective.
        if resp.status >= 500 && !resp.shed {
            grdf_obs::add("server.errors", 1);
        }
        (resp, id)
    };
    // The scope has flushed: a /trace response can now see its own spans.
    let resp = if req.path == "/trace" && resp.status == 200 {
        attach_trace(shared, resp, trace_id)
    } else {
        resp
    };
    resp.header("x-trace-id", trace_id)
}

fn route(shared: &Shared, req: &Request, tenant: &str) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        // Health and metrics are probe endpoints: quota-exempt, read-only.
        ("GET", "/health") => Response::json(200, shared.svc.read().health().to_json()),
        // Prometheus text exposition (lifetime aggregates + windowed
        // per-tenant gauges + SLO burn rates, with exemplar trace ids).
        ("GET", "/metrics") => {
            let (slo, _) = shared.slo_statuses();
            let text = grdf_obs::expo::render(
                shared.obs.registry(),
                shared.obs.windows().map(std::convert::AsRef::as_ref),
                &slo,
            );
            Response::text(200, text, "text/plain; version=0.0.4")
        }
        // The pre-PR-7 JSON snapshot, kept for diff-based tooling.
        ("GET", "/metrics.json") => Response::json(200, shared.obs.registry().snapshot().to_json()),
        // Collapsed-stack wall-clock profile (404 when no profiler runs).
        ("GET", "/profile") => match shared.obs.profiler() {
            Some(p) => Response::text(200, p.collapsed(), "text/plain"),
            None => Response::error(404, "profiler is not running"),
        },
        ("POST", "/query" | "/update" | "/lint" | "/trace") => {
            // Degraded admission: when any objective burns on both alert
            // windows, shed a fixed fraction of work pre-quota so the
            // error budget stops draining (probe endpoints stay exempt).
            let (_, burning) = shared.slo_statuses();
            if burning
                && shared
                    .slo_shed_tick
                    .fetch_add(1, Ordering::Relaxed)
                    .is_multiple_of(SLO_SHED_EVERY)
            {
                shared.counter("server.shed");
                shared.counter("server.shed.slo");
                grdf_obs::win_add("server.shed", 1);
                return Response::error(503, "shedding load: SLO burn-rate alert active")
                    .header("retry-after", 1)
                    .shedding();
            }
            if let Err(shed) = shared.quotas.admit(tenant) {
                shared.counter("server.shed");
                shared.counter("server.shed.quota");
                grdf_obs::win_add("server.shed", 1);
                return Response::error(429, "tenant quota exceeded")
                    .header("retry-after", shed.retry_after_secs)
                    .header("x-backoff-ms", shed.backoff_ms)
                    .shedding();
            }
            let budget = match request_budget(shared, req) {
                Ok(b) => b,
                Err(resp) => return resp,
            };
            match req.path.as_str() {
                "/query" | "/trace" => handle_query(shared, req, budget),
                "/update" => handle_update(shared, req, budget),
                _ => Response::json(200, shared.svc.read().lint().to_json()),
            }
        }
        ("GET" | "POST", _) => Response::error(404, "no such endpoint"),
        _ => Response::error(405, "method not allowed"),
    }
}

/// Parse `Deadline-Ms` into a budget, clamped to the server ceiling; the
/// default applies when absent. A malformed value is the client's error.
fn request_budget(shared: &Shared, req: &Request) -> Result<Budget, Response> {
    let deadline = match req.header("deadline-ms") {
        None => shared.cfg.default_deadline,
        Some(v) => match v.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Duration::from_millis(ms).min(shared.cfg.max_deadline),
            _ => {
                return Err(Response::error(400, &format!("bad deadline-ms: {v}")));
            }
        },
    };
    Ok(Budget::with_time(deadline))
}

fn handle_query(shared: &Shared, req: &Request, budget: Budget) -> Response {
    let Some(role) = req.header("x-role") else {
        return Response::error(400, "missing x-role header");
    };
    let Ok(query) = String::from_utf8(req.body.clone()) else {
        return Response::error(400, "query body is not UTF-8");
    };
    let request = ClientRequest {
        role: role.to_string(),
        query,
    };
    let result = shared.svc.read().handle_with_budget(&request, budget);
    match result {
        Ok(r) => Response::json(200, render_query_result(&r)),
        Err(e) => gsacs_error_response(&e),
    }
}

fn handle_update(shared: &Shared, req: &Request, budget: Budget) -> Response {
    let Some(role) = req.header("x-role") else {
        return Response::error(400, "missing x-role header");
    };
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "update body is not UTF-8");
    };
    let ops = match parse_update_ops(body) {
        Ok(ops) => ops,
        Err(m) => return Response::error(400, &m),
    };
    if ops.is_empty() {
        return Response::error(400, "empty update");
    }
    let request = UpdateRequest {
        role: role.to_string(),
        ops,
    };
    let outcome = shared
        .svc
        .write()
        .handle_update_with_budget(&request, budget);
    match outcome {
        UpdateOutcome::Applied(n) => Response::json(200, format!("{{\"applied\": {n}}}")),
        UpdateOutcome::Denied { op_index, reason } => Response::json(
            403,
            format!(
                "{{\"error\": \"{}\", \"op_index\": {op_index}}}",
                escape_json(&reason)
            ),
        ),
    }
}

/// Body grammar: one op per line, `+ <n-triple>` inserts, `- <n-triple>`
/// deletes; blank lines and `#` comments are skipped.
fn parse_update_ops(body: &str) -> Result<Vec<UpdateOp>, String> {
    let mut ops = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (insert, rest) = match line.split_at_checked(1) {
            Some(("+", rest)) => (true, rest),
            Some(("-", rest)) => (false, rest),
            _ => return Err(format!("line {}: expected '+' or '-' prefix", lineno + 1)),
        };
        let graph =
            ntriples::parse(rest.trim()).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        for triple in graph.iter() {
            ops.push(if insert {
                UpdateOp::Insert(triple)
            } else {
                UpdateOp::Delete(triple)
            });
        }
    }
    Ok(ops)
}

/// Map a service error onto the wire. Fail-closed: every arm is an
/// `{"error": ...}` envelope — no partial data ever rides along.
fn gsacs_error_response(e: &GsacsError) -> Response {
    match e {
        GsacsError::Parse(m) => Response::error(400, &format!("query parse error: {m}")),
        GsacsError::DeadlineExceeded { stage } => {
            Response::error(504, &format!("deadline exceeded at {stage:?}"))
        }
        GsacsError::Overloaded { in_flight, limit } => {
            Response::error(429, &format!("overloaded: {in_flight}/{limit} in flight"))
                .header("retry-after", 1)
        }
        GsacsError::Engine(m) => Response::error(503, &format!("engine unavailable: {m}")),
        GsacsError::LintRejected(m) => Response::error(503, &format!("lint-rejected: {m}")),
        GsacsError::Internal(m) => Response::error(500, &format!("internal: {m}")),
    }
}

/// Encode a query result as the `/query` JSON body in one pass: the body
/// buffer is sized up front and every name and term is escaped straight
/// into it.
fn render_query_result(result: &QueryResult) -> String {
    match result {
        QueryResult::Select { vars, rows } => {
            // Cell text plus its quoting and separators; escapes may
            // still grow the buffer, but plain results fit.
            let cells: usize = rows
                .iter()
                .flatten()
                .map(|(v, t)| v.len() + term_len(t) + 8)
                .sum();
            let size =
                32 + vars.iter().map(|v| v.len() + 4).sum::<usize>() + 4 * rows.len() + cells;
            let mut out = String::with_capacity(size);
            out.push_str("{\"type\": \"select\", \"vars\": [");
            for (i, v) in vars.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                escape_json_into(&mut out, v);
                out.push('"');
            }
            out.push_str("], \"rows\": [");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('{');
                for (j, (var, term)) in row.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    escape_json_into(&mut out, var);
                    out.push_str("\": \"");
                    write!(JsonEscaped(&mut out), "{term}")
                        .expect("writing to a String cannot fail");
                    out.push('"');
                }
                out.push('}');
            }
            out.push_str("]}");
            out
        }
        QueryResult::Boolean(b) => format!("{{\"type\": \"boolean\", \"value\": {b}}}"),
        QueryResult::Graph(g) => format!(
            "{{\"type\": \"graph\", \"ntriples\": \"{}\"}}",
            escape_json(&ntriples::serialize(g))
        ),
    }
}

/// Length of `term`'s N-Triples form before escaping.
fn term_len(term: &Term) -> usize {
    match term {
        Term::Iri(i) => i.len() + 2,
        Term::Blank(b) => b.len() + 2,
        Term::Literal(l) => {
            let suffix = match l.lang() {
                Some(lang) => lang.len() + 1,
                None if l.datatype() == xsd::STRING => 0,
                None => l.datatype().len() + 4,
            };
            l.lexical().len() + 2 + suffix
        }
    }
}

/// A `fmt::Write` sink that JSON-escapes what is written through it
/// into the wrapped buffer, so a term's `Display` needs no temporary.
struct JsonEscaped<'a>(&'a mut String);

impl std::fmt::Write for JsonEscaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        escape_json_into(self.0, s);
        Ok(())
    }
}

/// Wrap a completed `/trace` query response with its span tree, looked up
/// in the trace sink by the request's trace id.
fn attach_trace(shared: &Shared, resp: Response, id: TraceId) -> Response {
    if !shared.obs.tracing_enabled() {
        return Response::error(503, "tracing is disabled on this server");
    }
    let record = shared
        .obs
        .sink()
        .records()
        .into_iter()
        .rev()
        .find(|r| r.id == id);
    let spans = match record {
        None => String::from("[]"),
        Some(rec) => {
            let mut out = String::from("[");
            for (i, s) in rec.spans.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"name\": \"{}\", \"path\": \"{}\", \"depth\": {}, \
                     \"start_ns\": {}, \"dur_ns\": {}}}",
                    escape_json(s.name),
                    escape_json(&s.path),
                    s.depth,
                    s.start_ns,
                    s.dur_ns
                ));
            }
            out.push(']');
            out
        }
    };
    let result = String::from_utf8_lossy(&resp.body).into_owned();
    Response::json(
        200,
        format!("{{\"trace_id\": \"{id}\", \"result\": {result}, \"spans\": {spans}}}"),
    )
}

fn sanitize_tenant(raw: &str) -> String {
    let cleaned: String = raw
        .chars()
        .take(64)
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "public".to_string()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grdf_query::Bindings;

    #[test]
    fn one_pass_encoding_matches_per_cell_rendering() {
        let terms = [
            Term::iri("urn:a\"b"),
            Term::blank("b0"),
            Term::string("say \"hi\"\n\ttab\\ \u{1} é"),
            Term::Literal(grdf_rdf::term::Literal::lang_string("x\ry", "en")),
            Term::integer(42),
        ];
        let rows: Vec<Bindings> = terms
            .iter()
            .map(|t| {
                [("v".to_string(), t.clone()), ("w\"".to_string(), t.clone())]
                    .into_iter()
                    .collect()
            })
            .collect();
        let vars = vec!["v".to_string(), "w\"".to_string()];
        // The per-cell form: each name and term rendered to a string,
        // then escaped.
        let cells: Vec<String> = rows
            .iter()
            .map(|row| {
                let inner: Vec<String> = row
                    .iter()
                    .map(|(k, t)| {
                        format!(
                            "\"{}\": \"{}\"",
                            escape_json(k),
                            escape_json(&t.to_string())
                        )
                    })
                    .collect();
                format!("{{{}}}", inner.join(", "))
            })
            .collect();
        let expected = format!(
            "{{\"type\": \"select\", \"vars\": [\"v\", \"w\\\"\"], \"rows\": [{}]}}",
            cells.join(", ")
        );
        let got = render_query_result(&QueryResult::Select { vars, rows });
        assert_eq!(got, expected);
    }
}
