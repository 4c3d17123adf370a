//! The HTTP load phases: cold start, closed loop, open loop, and the
//! serial request lists (output checks, write probe).
//!
//! Clients use at most [`clients`] threads and connections. Closed-loop
//! latency runs from send to the full response; open-loop latency runs
//! from the request's due time, so a stall also charges the requests
//! queued behind it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::client::{Client, Reply};
use crate::gen::{role_iris, Due, Inputs, Read, Shape, Write, MAIN_REPAIR};

/// Client threads and connections: 2, or fewer on a host with fewer
/// CPUs, so the generator never outnumbers `nproc`.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

/// Bound on `504` retries of one cold-phase request.
const COLD_RETRIES: usize = 50;

/// What the cold phase saw.
#[derive(Debug, Default)]
pub struct Cold {
    /// Per role: milliseconds from the first send to the first `200`.
    pub first_ok_ms: Vec<f64>,
    /// `504`s before those `200`s (deadline expiries during view builds).
    pub deadline_504: u64,
}

/// Send each role's first query one at a time, retrying on `504` until
/// it answers `200`, then close the connection before the timed phase.
pub fn cold_phase(addr: SocketAddr, inputs: &Inputs) -> Result<Cold, String> {
    let roles = role_iris();
    let mut client = Client::new(addr);
    client.connect().map_err(|e| format!("cold connect: {e}"))?;
    let mut cold = Cold::default();
    for r in &inputs.cold {
        let t = Instant::now();
        let mut tries = 0;
        loop {
            let reply = client
                .post("/query", &roles[r.role as usize], inputs.text(*r))
                .map_err(|e| format!("cold query: {e}"))?;
            match reply.status {
                200 => break,
                504 if tries < COLD_RETRIES => {
                    tries += 1;
                    cold.deadline_504 += 1;
                }
                s => return Err(format!("cold query answered {s}: {}", body_text(&reply))),
            }
        }
        cold.first_ok_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    client.close();
    Ok(cold)
}

/// One timed load phase's raw results.
#[derive(Debug, Default)]
pub struct Load {
    /// Read latencies (ms) of `200` responses.
    pub read_ms: Vec<f64>,
    /// When each of those replies arrived (s since the phase began).
    pub read_done_s: Vec<f64>,
    /// Insert / delete latencies (ms) from due time.
    pub insert_ms: Vec<f64>,
    pub delete_ms: Vec<f64>,
    /// Requests sent, and those answered non-`200` or lost in transport.
    pub attempted: u64,
    pub failed: u64,
    /// Reads completed (stream prefix length for a closed loop).
    pub reads_sent: usize,
    /// Server-closed connections the clients reopened.
    pub reconnects: u64,
    /// Wall time of the phase (first send to last response).
    pub elapsed_s: f64,
    /// Worst open-loop lateness: actual send minus due time.
    pub lag_max_ms: f64,
    /// Indices of acknowledged writes (`200`, `applied: 1`), in order.
    pub acked: Vec<usize>,
    /// Failure descriptions (first few kept).
    pub errors: Vec<String>,
    /// 'main repair' responses to a chemical-code query that carried rows.
    pub leaks: u64,
}

impl Load {
    pub fn merge(&mut self, other: Load) {
        self.read_ms.extend(other.read_ms);
        self.read_done_s.extend(other.read_done_s);
        self.insert_ms.extend(other.insert_ms);
        self.delete_ms.extend(other.delete_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reads_sent += other.reads_sent;
        self.reconnects += other.reconnects;
        self.lag_max_ms = self.lag_max_ms.max(other.lag_max_ms);
        self.acked.extend(other.acked);
        self.errors.extend(other.errors);
        self.errors.truncate(8);
        self.leaks += other.leaks;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Account one read reply.
    fn read_reply(
        &mut self,
        inputs: &Inputs,
        r: Read,
        reply: std::io::Result<Reply>,
        ms: f64,
        done_s: f64,
    ) {
        self.attempted += 1;
        self.reads_sent += 1;
        match reply {
            Ok(rep) if rep.status == 200 => {
                self.read_ms.push(ms);
                self.read_done_s.push(done_s);
                if r.role == MAIN_REPAIR
                    && inputs.shape(r) == Shape::ChemCodes
                    && !body_text(&rep).contains("\"rows\": []")
                {
                    self.leaks += 1;
                }
            }
            Ok(rep) => self.fail(format!("read answered {}: {}", rep.status, body_text(&rep))),
            Err(e) => self.fail(format!("read transport error: {e}")),
        }
    }

    /// Account one write reply.
    fn write_reply(&mut self, k: usize, w: &Write, reply: std::io::Result<Reply>, ms: f64) {
        self.attempted += 1;
        match reply {
            Ok(rep) if rep.status == 200 && body_text(&rep).contains("\"applied\": 1}") => {
                self.acked.push(k);
                if w.insert {
                    self.insert_ms.push(ms);
                } else {
                    self.delete_ms.push(ms);
                }
            }
            Ok(rep) => self.fail(format!(
                "update {k} answered {}: {}",
                rep.status,
                body_text(&rep)
            )),
            Err(e) => self.fail(format!("update {k} transport error: {e}")),
        }
    }
}

/// Open [`clients`] keep-alive connections up front, so connect time
/// stays out of the first requests.
fn connected(addr: SocketAddr) -> Result<Vec<Client>, String> {
    (0..clients())
        .map(|_| {
            let mut c = Client::new(addr);
            c.connect().map(|()| c).map_err(|e| format!("connect: {e}"))
        })
        .collect()
}

/// Closed loop: [`clients`] keep-alive connections each send the next
/// read of the stream as soon as their previous one answered, for
/// `seconds`.
pub fn closed_loop(addr: SocketAddr, inputs: &Inputs, seconds: u64) -> Result<Load, String> {
    let roles = role_iris();
    let next = AtomicUsize::new(0);
    let clients = connected(addr)?;
    let start = Instant::now();
    let stop = start + Duration::from_secs(seconds);
    let parts: Vec<Load> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (next, roles) = (&next, &roles);
                s.spawn(move || {
                    let mut load = Load::default();
                    while Instant::now() < stop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let r = inputs.reads[i % inputs.reads.len()];
                        if let Err(e) = client.connect() {
                            load.attempted += 1;
                            load.fail(format!("reconnect: {e}"));
                            continue;
                        }
                        let t = Instant::now();
                        let reply = client.post("/query", &roles[r.role as usize], inputs.text(r));
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        load.read_reply(inputs, r, reply, ms, start.elapsed().as_secs_f64());
                    }
                    client.close();
                    load.reconnects = client.reconnects;
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut load = Load::default();
    for part in parts {
        load.merge(part);
    }
    load.elapsed_s = start.elapsed().as_secs_f64();
    Ok(load)
}

/// Open loop: the schedule's reads and writes are sent at their due
/// times by [`clients`] connections, whatever the service's speed; each
/// latency counts from the due time.
pub fn open_loop(addr: SocketAddr, inputs: &Inputs, schedule: &[Due]) -> Result<Load, String> {
    let roles = role_iris();
    let next = AtomicUsize::new(0);
    let clients = connected(addr)?;
    let epoch = Instant::now();
    let parts: Vec<Load> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (next, roles) = (&next, &roles);
                s.spawn(move || {
                    let mut load = Load::default();
                    while let Some(&due) = schedule.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let due_at = epoch + Duration::from_micros(due.at_us());
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                        }
                        let lag = Instant::now().saturating_duration_since(due_at);
                        load.lag_max_ms = load.lag_max_ms.max(lag.as_secs_f64() * 1e3);
                        if let Err(e) = client.connect() {
                            load.attempted += 1;
                            load.fail(format!("reconnect: {e}"));
                            continue;
                        }
                        match due {
                            Due::Read { i, .. } => {
                                let r = inputs.reads[i];
                                let reply =
                                    client.post("/query", &roles[r.role as usize], inputs.text(r));
                                let done = epoch.elapsed().as_secs_f64();
                                load.read_reply(inputs, r, reply, ms_since(due_at), done);
                            }
                            Due::Write { k, .. } => {
                                let w = &inputs.writes[k];
                                let reply = client.post("/update", &roles[2], &w.body());
                                load.write_reply(k, w, reply, ms_since(due_at));
                            }
                        }
                    }
                    client.close();
                    load.reconnects = client.reconnects;
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut load = Load::default();
    for part in parts {
        load.merge(part);
    }
    load.acked.sort_unstable();
    load.elapsed_s = epoch.elapsed().as_secs_f64();
    Ok(load)
}

/// Send `(role, query)` pairs one at a time on a fresh connection; every
/// reply must be `200`.
pub fn serial_queries(addr: SocketAddr, queries: &[(&str, &str)]) -> Result<Vec<Reply>, String> {
    let mut client = Client::new(addr);
    let mut out = Vec::with_capacity(queries.len());
    for (role, text) in queries {
        let reply = client
            .post("/query", role, text)
            .map_err(|e| format!("check query: {e}"))?;
        if reply.status != 200 {
            return Err(format!(
                "check query answered {}: {}",
                reply.status,
                body_text(&reply)
            ));
        }
        out.push(reply);
    }
    client.close();
    Ok(out)
}

/// The write probe: insert/delete pairs sent one at a time on an
/// otherwise idle service (latency from send).
pub fn write_probe(addr: SocketAddr, inputs: &Inputs, ks: std::ops::Range<usize>) -> Load {
    let roles = role_iris();
    let mut client = Client::new(addr);
    let mut load = Load::default();
    for k in ks {
        let w = &inputs.writes[k];
        let t = Instant::now();
        let reply = client.post("/update", &roles[2], &w.body());
        load.write_reply(k, w, reply, ms_since(t));
    }
    client.close();
    load
}

fn ms_since(t: Instant) -> f64 {
    Instant::now().saturating_duration_since(t).as_secs_f64() * 1e3
}

/// A reply body as text (lossy), for messages and substring checks.
fn body_text(reply: &Reply) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(&reply.body)
}
