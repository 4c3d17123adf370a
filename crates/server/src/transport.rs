//! The transport abstraction under the HTTP codec and worker pool.
//!
//! [`Conn`] is the only surface the worker pool needs from a connection,
//! so the same codec, routing, keep-alive loop, and overload behavior run
//! unchanged over:
//!
//! * real sockets — [`std::net::TcpStream`]s from the server's blocking
//!   accept thread, the production path; or
//! * an in-memory [`SimConn`], the deterministic-simulation path: a
//!   lock-shared byte duplex whose fault surface (partitions, stalls,
//!   torn writes, reordered delivery) is driven by the simulated client
//!   through its [`SimLink`] handle, with idle waits expressed on the
//!   injected [`Clock`] instead of wall time.
//!
//! Fault semantics mirror the real kernel surface exactly as the codec
//! sees it, so `HttpConn`'s error classification needs no sim-specific
//! cases:
//!
//! | sim fault            | server-side observation                     |
//! |----------------------|---------------------------------------------|
//! | partition            | `ConnectionReset` on read, `BrokenPipe` on write |
//! | stall (no more data) | `TimedOut` after the configured read timeout, virtual clock advanced by the timeout |
//! | torn write           | a prefix is delivered, then `BrokenPipe`; the link records the tear so oracles can excuse the truncated delivery |
//! | reordered delivery   | the client enqueues pipelined requests in a permuted order ([`SimLink::send`] is just bytes) |

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use grdf_runtime::Clock;

/// One accepted connection, as the worker pool sees it: a byte stream
/// plus the per-connection transport options the server applies before
/// serving.
pub trait Conn: Read + Write + Send {
    /// Apply slow-peer protection: bound how long a read or write may
    /// wait before surfacing `TimedOut`/`WouldBlock`. Best-effort — a
    /// transport that cannot enforce a bound may ignore it.
    fn configure(&mut self, read_timeout: Duration, write_timeout: Duration);
}

impl Conn for TcpStream {
    fn configure(&mut self, read_timeout: Duration, write_timeout: Duration) {
        let _ = self.set_read_timeout(Some(read_timeout));
        let _ = self.set_write_timeout(Some(write_timeout));
        let _ = self.set_nodelay(true);
    }
}

/// Shared state of one simulated connection. The server end ([`SimConn`])
/// and the client end ([`SimLink`]) hold the same `Arc`.
#[derive(Debug, Default)]
struct LinkState {
    /// Bytes the client has sent that the server has not read yet.
    to_server: Vec<u8>,
    /// Bytes the server has written that the client has not drained yet.
    to_client: Vec<u8>,
    /// The client finished sending: once `to_server` drains, reads EOF.
    client_done: bool,
    /// Network partition: both directions fail from now on.
    partitioned: bool,
    /// Tear the server's next write after this many bytes: the prefix is
    /// delivered, the rest dropped, and the write errors `BrokenPipe`.
    tear_write_after: Option<usize>,
    /// A torn delivery actually happened (the no-torn-response oracle
    /// excuses responses the *network* truncated — the server still wrote
    /// a complete one).
    tore_delivery: bool,
    /// Read timeout the server configured; an idle read advances the
    /// virtual clock by this much before surfacing `TimedOut`.
    read_timeout: Duration,
}

/// The server end of a simulated connection. Implements [`Conn`], so the
/// unmodified worker/codec path serves it; all blocking is virtual.
pub struct SimConn {
    state: Arc<Mutex<LinkState>>,
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for SimConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConn").finish_non_exhaustive()
    }
}

/// The client end of a simulated connection: the simulated client writes
/// request bytes (possibly mangled), injects connection faults, and
/// drains whatever the server sent back.
#[derive(Debug, Clone)]
pub struct SimLink {
    state: Arc<Mutex<LinkState>>,
}

/// A fresh in-memory connection pair. Idle server reads consume
/// `read_timeout` of *virtual* time on `clock` — a stalled client costs
/// the simulation zero wall-clock.
pub fn sim_conn(clock: Arc<dyn Clock>) -> (SimConn, SimLink) {
    let state = Arc::new(Mutex::new(LinkState {
        read_timeout: Duration::from_millis(100),
        ..LinkState::default()
    }));
    (
        SimConn {
            state: Arc::clone(&state),
            clock,
        },
        SimLink { state },
    )
}

fn lock(state: &Arc<Mutex<LinkState>>) -> std::sync::MutexGuard<'_, LinkState> {
    state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SimLink {
    /// Queue request bytes for the server. Reordered delivery is this
    /// call twice with the requests swapped — the link carries bytes, not
    /// messages, exactly like a socket.
    pub fn send(&self, bytes: &[u8]) {
        lock(&self.state).to_server.extend_from_slice(bytes);
    }

    /// Close the sending half: the server sees EOF once the queued bytes
    /// drain (a real client's `shutdown(Write)`).
    pub fn finish(&self) {
        lock(&self.state).client_done = true;
    }

    /// Drop the link both ways: every later read/write on either end
    /// fails like a reset connection.
    pub fn partition(&self) {
        lock(&self.state).partitioned = true;
    }

    /// Tear the server's next write: only `after` bytes get delivered,
    /// then the connection behaves partitioned.
    pub fn tear_next_write(&self, after: usize) {
        lock(&self.state).tear_write_after = Some(after);
    }

    /// Everything the server has sent so far (drained).
    pub fn take_received(&self) -> Vec<u8> {
        std::mem::take(&mut lock(&self.state).to_client)
    }

    /// Whether a torn delivery happened on this link (the injected fault
    /// fired; the truncated bytes the client holds are the network's
    /// fault, not the server's).
    pub fn tore_delivery(&self) -> bool {
        lock(&self.state).tore_delivery
    }
}

impl Read for SimConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = {
            let mut s = lock(&self.state);
            if s.partitioned {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "partitioned",
                ));
            }
            if !s.to_server.is_empty() {
                let n = s.to_server.len().min(buf.len());
                buf[..n].copy_from_slice(&s.to_server[..n]);
                s.to_server.drain(..n);
                return Ok(n);
            }
            if s.client_done {
                return Ok(0);
            }
            // No data, client still "connected": a real socket would
            // block until the read timeout fires. Model exactly that —
            // burn the timeout on the virtual clock, then time out.
            s.read_timeout
        };
        self.clock.sleep(timeout);
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "simulated read timeout",
        ))
    }
}

impl Write for SimConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut s = lock(&self.state);
        if s.partitioned {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "partitioned"));
        }
        if let Some(after) = s.tear_write_after.take() {
            let keep = after.min(buf.len());
            s.to_client.extend_from_slice(&buf[..keep]);
            s.tore_delivery = true;
            s.partitioned = true;
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "torn write"));
        }
        s.to_client.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Conn for SimConn {
    fn configure(&mut self, read_timeout: Duration, _write_timeout: Duration) {
        lock(&self.state).read_timeout = read_timeout;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grdf_runtime::ManualClock;

    fn pair() -> (SimConn, SimLink, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let (conn, link) = sim_conn(clock.clone());
        (conn, link, clock)
    }

    #[test]
    fn bytes_round_trip_and_eof_after_finish() {
        let (mut conn, link, _clock) = pair();
        link.send(b"hello");
        link.finish();
        let mut buf = [0u8; 16];
        assert_eq!(conn.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(conn.read(&mut buf).unwrap(), 0, "EOF after drain");
        conn.write_all(b"resp").unwrap();
        assert_eq!(link.take_received(), b"resp");
    }

    #[test]
    fn idle_read_times_out_on_the_virtual_clock() {
        let (mut conn, link, clock) = pair();
        conn.configure(Duration::from_millis(150), Duration::from_millis(150));
        link.send(b"par");
        let mut buf = [0u8; 16];
        assert_eq!(conn.read(&mut buf).unwrap(), 3);
        let err = conn.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(clock.now(), Duration::from_millis(150));
    }

    #[test]
    fn partition_resets_both_directions() {
        let (mut conn, link, _clock) = pair();
        link.send(b"x");
        link.partition();
        let mut buf = [0u8; 4];
        assert_eq!(
            conn.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert_eq!(
            conn.write(b"y").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }

    #[test]
    fn torn_write_delivers_prefix_then_breaks() {
        let (mut conn, link, _clock) = pair();
        link.tear_next_write(4);
        assert_eq!(
            conn.write(b"HTTP/1.1 200 OK").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert_eq!(link.take_received(), b"HTTP");
        assert!(link.tore_delivery());
        assert_eq!(
            conn.write(b"more").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }
}
