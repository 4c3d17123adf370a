//! A minimal HTTP/1.1 keep-alive client for the benchmark's loopback
//! connections.
//!
//! One `Client` owns at most one connection. When the server ends a
//! connection (`connection: close`, sent after 128 requests by default),
//! the next request reconnects and counts the reopen in
//! [`Client::reconnects`] — a reconnect is not a failure.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

/// A response: status code and body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A keep-alive connection that reopens itself after a server close.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    /// Bytes read past the previous response (none in practice: the
    /// client never pipelines).
    carry: Vec<u8>,
    server_closed: bool,
    /// Server-closed connections this client reopened.
    pub reconnects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            carry: Vec::new(),
            server_closed: false,
            reconnects: 0,
        }
    }

    /// Open the connection now (so connect time stays out of the first
    /// request's latency).
    pub fn connect(&mut self) -> io::Result<()> {
        if self.conn.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            if std::mem::take(&mut self.server_closed) {
                self.reconnects += 1;
            }
            self.carry.clear();
            self.conn = Some(s);
        }
        Ok(())
    }

    /// POST `body` to `path` as `role`. A transport error drops the
    /// connection; the next call opens a fresh one.
    pub fn post(&mut self, path: &str, role: &str, body: &str) -> io::Result<Reply> {
        self.connect()?;
        let head = format!(
            "POST {path} HTTP/1.1\r\nhost: perfbench\r\nx-role: {role}\r\nx-tenant: perfbench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body.as_bytes());
        let result = self.exchange(&wire);
        if result.is_err() {
            self.close();
        }
        result
    }

    fn exchange(&mut self, wire: &[u8]) -> io::Result<Reply> {
        let conn = self.conn.as_mut().expect("connected above");
        conn.write_all(wire)?;
        let mut buf = std::mem::take(&mut self.carry);
        let head_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            read_more(conn, &mut buf)?;
        };
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| bad("non-UTF-8 response head"))?
            .to_string();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut close = false;
        for line in lines {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
            if k == "content-length" {
                length = v.parse().map_err(|_| bad("bad content-length"))?;
            } else if k == "connection" && v.eq_ignore_ascii_case("close") {
                close = true;
            }
        }
        let mut body = buf.split_off(head_end + 4);
        while body.len() < length {
            read_more(conn, &mut body)?;
        }
        self.carry = body.split_off(length);
        if close {
            self.close();
            self.server_closed = true;
        }
        Ok(Reply { status, body })
    }

    /// Close the connection (idle keep-alive connections pin a server
    /// worker until its read timeout).
    pub fn close(&mut self) {
        if let Some(c) = self.conn.take() {
            let _ = c.shutdown(Shutdown::Both);
        }
        self.server_closed = false;
    }
}

fn read_more(conn: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 64 * 1024];
    let n = conn.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed mid-response",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn bad(m: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, m.to_string())
}
