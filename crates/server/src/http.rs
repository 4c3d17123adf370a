//! A minimal, defensive HTTP/1.1 codec over any `Read + Write` stream.
//!
//! This is deliberately not a general HTTP implementation: it parses
//! exactly the subset the GRDF wire protocol uses (request line, plain
//! headers, `Content-Length` bodies) and treats everything else as
//! malformed. The parser is sized against hostile input — bounded head
//! and body buffers, no chunked encoding, no header continuation — so a
//! garbage-spewing or slow-dripping client costs one bounded buffer and
//! one worker timeout, never unbounded memory.

use std::io::{self, Read, Write};

/// Upper bound on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request. Header names are lowercased at parse time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path + optional query string).
    pub path: String,
    /// `(lowercased-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// HTTP/1.1 keep-alive: persistent unless `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read. Each variant maps to exactly one
/// response policy in the server (status code or silent teardown).
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request → 400, close.
    Malformed(String),
    /// Head exceeded [`MAX_HEAD_BYTES`] → 431, close.
    HeadTooLarge,
    /// Declared body exceeds [`MAX_BODY_BYTES`] → 413, close.
    BodyTooLarge,
    /// The socket idled past its read timeout. `mid_request` is true when
    /// partial bytes had arrived (→ 408); an idle keep-alive connection
    /// (no bytes yet) is torn down silently.
    TimedOut {
        /// Whether a partial request had started arriving.
        mid_request: bool,
    },
    /// The peer disconnected mid-request.
    Disconnected,
    /// Any other transport error.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::HeadTooLarge => f.write_str("request head too large"),
            HttpError::BodyTooLarge => f.write_str("request body too large"),
            HttpError::TimedOut { mid_request } => {
                write!(f, "read timed out (mid_request: {mid_request})")
            }
            HttpError::Disconnected => f.write_str("peer disconnected mid-request"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// One HTTP connection: a stream plus the carry-over buffer that makes
/// keep-alive pipelining safe (bytes read past one request's end seed the
/// next request's parse).
#[derive(Debug)]
pub struct HttpConn<S> {
    stream: S,
    carry: Vec<u8>,
}

impl<S: Read + Write> HttpConn<S> {
    /// Wrap a stream.
    pub fn new(stream: S) -> HttpConn<S> {
        HttpConn {
            stream,
            carry: Vec::new(),
        }
    }

    /// The underlying stream (e.g. to set socket timeouts).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Read one request. `Ok(None)` is the clean end of a keep-alive
    /// connection: EOF before any byte of a next request.
    pub fn read_request(&mut self) -> Result<Option<Request>, HttpError> {
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.carry) {
                break pos;
            }
            if self.carry.len() > MAX_HEAD_BYTES {
                return Err(HttpError::HeadTooLarge);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    if self.carry.is_empty() {
                        return Ok(None);
                    }
                    return Err(HttpError::Disconnected);
                }
                Ok(n) => self.carry.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(classify_io(e, !self.carry.is_empty())),
            }
        };
        let head = self.carry[..head_end].to_vec();
        let body_start = head_end + 4;
        let head = String::from_utf8(head)
            .map_err(|_| HttpError::Malformed("non-UTF-8 request head".to_string()))?;
        let (method, path, headers) = parse_head(&head)?;

        if header_value(&headers, "transfer-encoding").is_some() {
            return Err(HttpError::Malformed(
                "transfer-encoding not supported".to_string(),
            ));
        }
        let content_length = match header_value(&headers, "content-length") {
            Some(v) => v
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length: {v}")))?,
            None => 0,
        };
        if content_length > MAX_BODY_BYTES {
            return Err(HttpError::BodyTooLarge);
        }
        // Pull the body: start from carried-over bytes, then the stream.
        let mut body: Vec<u8> = self.carry[body_start..].to_vec();
        self.carry.clear();
        while body.len() < content_length {
            let mut chunk = [0u8; 4096];
            let want = (content_length - body.len()).min(chunk.len());
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => return Err(HttpError::Disconnected),
                Ok(n) => body.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(classify_io(e, true)),
            }
        }
        // Bytes past the body belong to the next pipelined request.
        self.carry = body.split_off(content_length);
        Ok(Some(Request {
            method,
            path,
            headers,
            body,
        }))
    }

    /// Write a response (flushes).
    pub fn write_response(&mut self, response: &Response) -> io::Result<()> {
        response.write_to(&mut self.stream)
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn classify_io(e: io::Error, mid_request: bool) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::TimedOut { mid_request },
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => HttpError::Disconnected,
        _ => HttpError::Io(e),
    }
}

fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

#[allow(clippy::type_complexity)]
fn parse_head(head: &str) -> Result<(String, String, Vec<(String, String)>), HttpError> {
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".to_string()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or_else(|| HttpError::Malformed(format!("bad request line: {request_line}")))?;
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| HttpError::Malformed(format!("bad request target: {request_line}")))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".to_string()))?;
    if parts.next().is_some() || !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(HttpError::Malformed(format!(
            "unsupported request line: {request_line}"
        )));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line: {line}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name: {name}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((method.to_string(), path.to_string(), headers))
}

/// A response under construction. `Content-Length` is always emitted, so
/// every response is self-delimiting and clients never wait on EOF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Whether to advertise `Connection: close`.
    pub close: bool,
    /// Whether this response is a self-inflicted shed rejection (SLO
    /// degraded admission / tenant quota). Shed responses are excluded
    /// from the `server.errors` SLO numerator: counting them would let
    /// an error-ratio objective sustain its own burn through the very
    /// 503s meant to stop it.
    pub shed: bool,
}

impl Response {
    /// An empty response with `status`.
    pub fn new(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
            content_type: "text/plain",
            close: false,
            shed: false,
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        let mut r = Response::new(status);
        r.body = body.into();
        r.content_type = "application/json";
        r
    }

    /// A plain-text response with an explicit content type (the
    /// Prometheus `/metrics` exposition and `/profile` collapsed stacks).
    pub fn text(status: u16, body: impl Into<Vec<u8>>, content_type: &'static str) -> Response {
        let mut r = Response::new(status);
        r.body = body.into();
        r.content_type = content_type;
        r
    }

    /// A JSON error envelope: `{"error": "<message>"}` — never partial
    /// data alongside an error.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!("{{\"error\": \"{}\"}}", escape_json(message)),
        )
    }

    /// Append a header.
    #[must_use]
    pub fn header(mut self, name: &str, value: impl std::fmt::Display) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Mark the connection for closure after this response.
    #[must_use]
    pub fn closing(mut self) -> Response {
        self.close = true;
        self
    }

    /// Mark as a self-inflicted shed rejection (see [`Response::shed`]).
    #[must_use]
    pub fn shedding(mut self) -> Response {
        self.shed = true;
        self
    }

    /// Serialize to the wire (flushes).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
                self.status,
                reason(self.status),
                self.content_type,
                self.body.len()
            )
            .as_bytes(),
        );
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        if self.close {
            out.extend_from_slice(b"connection: close\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        w.write_all(&out)?;
        w.flush()
    }
}

/// Canonical reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Escape `s` for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json_into(&mut out, s);
    out
}

/// Append `s` to `out`, escaped for a JSON string literal. Runs that
/// need no escape are copied whole.
pub fn escape_json_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory duplex stand-in: reads from `input`, writes to `out`.
    struct Chunked {
        input: Vec<Vec<u8>>,
        out: Vec<u8>,
    }

    impl Chunked {
        fn of(parts: &[&[u8]]) -> Chunked {
            Chunked {
                input: parts.iter().rev().map(|p| p.to_vec()).collect(),
                out: Vec::new(),
            }
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.input.last_mut() {
                None => Ok(0),
                Some(part) => {
                    let n = part.len().min(buf.len());
                    buf[..n].copy_from_slice(&part[..n]);
                    part.drain(..n);
                    if part.is_empty() {
                        self.input.pop();
                    }
                    Ok(n)
                }
            }
        }
    }

    impl Write for Chunked {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parses_a_full_request_split_across_reads() {
        let mut conn = HttpConn::new(Chunked::of(&[
            b"POST /query HT",
            b"TP/1.1\r\nX-Role: urn:r\r\ncontent-length: 5\r\n\r\nhel",
            b"lo",
        ]));
        let req = conn.read_request().unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.header("x-role"), Some("urn:r"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive());
        // Clean EOF ends the keep-alive connection.
        assert!(conn.read_request().unwrap().is_none());
    }

    #[test]
    fn pipelined_requests_carry_over() {
        let mut conn = HttpConn::new(Chunked::of(&[
            b"GET /health HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n",
        ]));
        let a = conn.read_request().unwrap().unwrap();
        assert_eq!(a.path, "/health");
        let b = conn.read_request().unwrap().unwrap();
        assert_eq!(b.path, "/metrics");
        assert!(!b.keep_alive());
    }

    #[test]
    fn eof_mid_head_is_a_disconnect() {
        let mut conn = HttpConn::new(Chunked::of(&[b"GET /hea"]));
        assert!(matches!(conn.read_request(), Err(HttpError::Disconnected)));
    }

    #[test]
    fn eof_mid_body_is_a_disconnect() {
        let mut conn = HttpConn::new(Chunked::of(&[
            b"POST /q HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc",
        ]));
        assert!(matches!(conn.read_request(), Err(HttpError::Disconnected)));
    }

    #[test]
    fn garbage_is_malformed_not_a_panic() {
        for garbage in [
            b"\x00\xff\x13\x37garbage\r\n\r\n".as_slice(),
            b"GET\r\n\r\n".as_slice(),
            b"GET /x HTTP/2.0\r\n\r\n".as_slice(),
            b"GET /x HTTP/1.1\r\nbad header line\r\n\r\n".as_slice(),
            b"POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n".as_slice(),
        ] {
            let mut conn = HttpConn::new(Chunked::of(&[garbage]));
            assert!(
                matches!(conn.read_request(), Err(HttpError::Malformed(_))),
                "expected malformed for {garbage:?}"
            );
        }
    }

    #[test]
    fn oversized_declarations_are_rejected() {
        let huge = format!(
            "POST /q HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            2 * 1024 * 1024
        );
        let mut conn = HttpConn::new(Chunked::of(&[huge.as_bytes()]));
        assert!(matches!(conn.read_request(), Err(HttpError::BodyTooLarge)));

        let mut head = b"GET /q HTTP/1.1\r\n".to_vec();
        while head.len() <= MAX_HEAD_BYTES {
            head.extend_from_slice(b"x-padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        let mut conn = HttpConn::new(Chunked::of(&[&head]));
        assert!(matches!(conn.read_request(), Err(HttpError::HeadTooLarge)));
    }

    #[test]
    fn chunked_encoding_is_refused() {
        let mut conn = HttpConn::new(Chunked::of(&[
            b"POST /q HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        ]));
        assert!(matches!(conn.read_request(), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn responses_are_self_delimiting() {
        let r = Response::json(200, "{\"ok\": true}")
            .header("x-trace-id", "00000000000000ab")
            .closing();
        let mut out = Vec::new();
        r.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 12\r\n"));
        assert!(text.contains("x-trace-id: 00000000000000ab\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\": true}"));
    }

    #[test]
    fn error_bodies_are_json_envelopes() {
        let r = Response::error(403, "view \"x\" denied");
        assert_eq!(r.body, b"{\"error\": \"view \\\"x\\\" denied\"}");
    }
}
