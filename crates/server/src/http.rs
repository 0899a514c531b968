//! Minimal HTTP/1.1 framing with incremental, resumable parsing.
//!
//! Just enough of RFC 9112 for a JSON service: request-line + header
//! parsing, `Content-Length` bodies, keep-alive connection reuse, and
//! response serialization. No chunked encoding and no TLS — the
//! service's clients are `curl`, load generators, and dashboards.
//!
//! The core is [`RequestParser`], a push parser that accepts bytes as
//! they arrive ([`RequestParser::push`]) and yields complete requests
//! ([`RequestParser::next_request`]) without ever blocking — which is what lets
//! the server park idle connections on a readiness poller instead of
//! pinning a worker per connection. Framing is deliberately strict:
//! duplicate or conflicting `Content-Length` headers, non-numeric
//! lengths, and `Transfer-Encoding` (unimplemented, and a smuggling
//! vector when half-honored) are all rejected with 400, and an unbounded
//! header section is rejected with 431 before it can buffer without
//! limit.

use std::io::{self, Write};

/// Largest accepted request body (tables are POSTed as CSV text).
pub const MAX_BODY_BYTES: usize = 64 << 20;

/// Largest accepted header section.
const MAX_HEADER_BYTES: usize = 64 << 10;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (`/explain`).
    pub path: String,
    /// Raw query string, if any (without the `?`).
    pub query: Option<String>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Value of query parameter `name` (`""` for a bare flag). No
    /// percent-decoding — the service's parameters are plain tokens.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (k == name).then_some(v)
        })
    }

    /// True when the client asked to keep the connection open
    /// (HTTP/1.1 defaults to keep-alive).
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the standard set.
    pub headers: Vec<(String, String)>,
    /// Content type of `body`.
    pub content_type: &'static str,
    /// The payload.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// The standard reason phrase for the status code.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Serializes the response, with `Connection: keep-alive|close`
    /// according to `keep_alive`, in one `write_all`: both ends set
    /// `TCP_NODELAY`, so each `write` call would leave as its own segment.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut message = head.into_bytes();
        message.extend_from_slice(&self.body);
        w.write_all(&message)?;
        w.flush()
    }
}

/// One step of incremental parsing — what [`RequestParser::next_request`] found
/// in the bytes buffered so far.
#[derive(Debug)]
pub enum Feed {
    /// The buffer does not yet hold a complete request; push more bytes.
    NeedMore,
    /// A complete request (its bytes have been consumed from the buffer;
    /// pipelined follow-up bytes, if any, remain buffered).
    Request(Request),
    /// The buffered bytes are not a valid request. Send the response and
    /// close the connection — after a framing error the byte stream is
    /// desynchronized and nothing after it can be trusted.
    Malformed(Response),
}

/// An incremental HTTP/1.1 request parser.
///
/// Push bytes as they arrive off a (possibly non-blocking) socket, then
/// drain complete requests. The parser owns the connection's receive
/// buffer, so pipelined bytes beyond the first request survive between
/// calls and a request split across arbitrarily many reads reassembles
/// correctly.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

/// Parsed request head, pending its body.
struct Head {
    method: String,
    path: String,
    query: Option<String>,
    headers: Vec<(String, String)>,
    body_len: usize,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends bytes received from the connection.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when bytes are buffered but no complete request has been
    /// produced from them yet — the state in which an EOF or an idle
    /// timeout means a *truncated* request rather than a quiet
    /// keep-alive connection.
    pub fn mid_request(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Attempts to parse one complete request from the buffered bytes.
    pub fn next_request(&mut self) -> Feed {
        // Find the header terminator: an empty line. Lines end with CRLF
        // or bare LF, so the terminator is `\n\n` or `\n\r\n`.
        let Some(header_end) = find_header_end(&self.buf) else {
            if self.buf.len() > MAX_HEADER_BYTES {
                return Feed::Malformed(error_response(431, "headers too large"));
            }
            return Feed::NeedMore;
        };
        if header_end > MAX_HEADER_BYTES {
            return Feed::Malformed(error_response(431, "headers too large"));
        }
        let head = match parse_head(&self.buf[..header_end]) {
            Ok(head) => head,
            Err(resp) => return Feed::Malformed(resp),
        };
        let total = header_end + head.body_len;
        if self.buf.len() < total {
            return Feed::NeedMore;
        }
        let body = self.buf[header_end..total].to_vec();
        self.buf.drain(..total);
        Feed::Request(Request {
            method: head.method,
            path: head.path,
            query: head.query,
            headers: head.headers,
            body,
        })
    }

    /// Handles end-of-stream: `None` when the peer closed between
    /// requests (a clean keep-alive shutdown), or the 400 to send when
    /// the stream ended mid-request.
    pub fn on_eof(&mut self) -> Option<Response> {
        if self.mid_request() {
            self.buf.clear();
            Some(error_response(400, "truncated request"))
        } else {
            None
        }
    }
}

/// Index one past the header terminator (`\n\n` or `\n\r\n`), if the
/// buffer holds one.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Parses the request-line + headers block (excluding the terminating
/// empty line is fine — empty lines are skipped) and validates framing.
fn parse_head(head: &[u8]) -> Result<Head, Response> {
    let text = String::from_utf8_lossy(head);
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(error_response(400, "malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(error_response(400, "unsupported HTTP version"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), Some(q.to_owned())),
        None => (target.to_owned(), None),
    };
    let method = method.to_ascii_uppercase();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the block's own terminator
        }
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()))
            }
            None => return Err(error_response(400, "malformed header")),
        }
    }

    // Framing strictness (request-smuggling class): exactly zero or one
    // Content-Length, digits only, and no Transfer-Encoding at all.
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(error_response(400, "Transfer-Encoding is not supported"));
    }
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length").map(|(_, v)| v);
    let body_len = match lengths.next() {
        None => 0,
        Some(v) => {
            if lengths.next().is_some() {
                return Err(error_response(400, "duplicate Content-Length"));
            }
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(error_response(400, "bad Content-Length"));
            }
            let n: usize = v.parse().map_err(|_| error_response(413, "body too large"))?;
            if n > MAX_BODY_BYTES {
                return Err(error_response(413, "body too large"));
            }
            n
        }
    };
    Ok(Head { method, path, query, headers, body_len })
}

/// A JSON error body `{"error": msg}` with the given status.
pub fn error_response(status: u16, msg: &str) -> Response {
    let body = crate::json::Json::obj([("error", msg)]).encode().expect("finite");
    Response::json(status, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `raw` as one read and then ends the stream, as the poller
    /// does: `Ok(Some)` is a request, `Ok(None)` a clean close between
    /// requests, `Err` the response to send before closing.
    fn parse(raw: &str) -> Result<Option<Request>, Response> {
        let mut p = RequestParser::new();
        p.push(raw.as_bytes());
        match p.next_request() {
            Feed::Request(req) => Ok(Some(req)),
            Feed::Malformed(resp) => Err(resp),
            Feed::NeedMore => p.on_eof().map_or(Ok(None), Err),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let Ok(Some(req)) = parse("GET /stats?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n") else {
            panic!("expected request")
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert_eq!(req.query.as_deref(), Some("verbose=1"));
        assert_eq!(req.query_param("verbose"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body_and_close() {
        let raw = "POST /explain HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbody";
        let Ok(Some(req)) = parse(raw) else { panic!("expected request") };
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"body");
        assert!(!req.keep_alive());
    }

    #[test]
    fn eof_is_clean_close() {
        assert!(matches!(parse(""), Ok(None)));
    }

    #[test]
    fn truncated_body_is_malformed_not_hung() {
        let raw = "POST /explain HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let Err(resp) = parse(raw) else { panic!("expected malformed") };
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn oversized_content_length_rejected_before_reading() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let Err(resp) = parse(&raw) else { panic!("expected malformed") };
        assert_eq!(resp.status, 413);
    }

    #[test]
    fn malformed_inputs_get_400() {
        for raw in
            ["garbage\r\n\r\n", "GET /x SPDY/3\r\n\r\n", "GET /x HTTP/1.1\r\nnocolon\r\n\r\n"]
        {
            let Err(resp) = parse(raw) else { panic!("expected malformed for {raw:?}") };
            assert_eq!(resp.status, 400);
        }
    }

    #[test]
    fn response_serializes_with_length() {
        let resp = Response::json(200, "{}".as_bytes().to_vec());
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// A writer that takes every byte it is offered and counts its
    /// `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Guards the one-segment response: with `TCP_NODELAY` on, every
    /// `write` call is a TCP segment of its own, so a response with a
    /// trace-id header must reach the socket in one call, with the same
    /// bytes as the field-by-field rendering it replaced.
    #[test]
    fn response_is_one_write_of_unchanged_bytes() {
        let mut resp = Response::json(503, "{\"error\":\"busy\"}");
        resp.headers.push(("x-scorpion-trace-id".into(), "42".into()));
        resp.headers.push(("x-extra".into(), "a b".into()));
        for (keep_alive, connection) in [(true, "keep-alive"), (false, "close")] {
            let mut w = CountingWriter::default();
            resp.write_to(&mut w, keep_alive).unwrap();
            assert_eq!(w.writes, 1, "one write per response");
            let expected = format!(
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: 16\r\nConnection: {connection}\r\n\
                 x-scorpion-trace-id: 42\r\nx-extra: a b\r\n\r\n{{\"error\":\"busy\"}}"
            );
            assert_eq!(String::from_utf8(w.bytes).unwrap(), expected);
        }
    }

    #[test]
    fn two_requests_on_one_connection() {
        let mut p = RequestParser::new();
        p.push(b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n");
        let Feed::Request(a) = p.next_request() else { panic!("expected request") };
        let Feed::Request(b) = p.next_request() else { panic!("expected request") };
        assert_eq!(a.path, "/healthz");
        assert_eq!(b.path, "/stats");
        assert!(matches!(p.next_request(), Feed::NeedMore));
        assert!(p.on_eof().is_none(), "EOF after the last request is a clean close");
    }

    #[test]
    fn byte_at_a_time_feed_reassembles() {
        let raw = "POST /explain HTTP/1.1\r\nContent-Length: 5\r\nHost: x\r\n\r\nhello";
        let mut p = RequestParser::new();
        for (i, b) in raw.as_bytes().iter().enumerate() {
            match p.next_request() {
                Feed::NeedMore => {}
                other => panic!("unexpected {other:?} after {i} bytes"),
            }
            assert_eq!(p.mid_request(), i > 0);
            p.push(&[*b]);
        }
        let Feed::Request(req) = p.next_request() else { panic!("expected request") };
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
        assert!(!p.mid_request());
        assert!(p.on_eof().is_none());
    }

    #[test]
    fn pipelined_bytes_survive_between_requests() {
        let mut p = RequestParser::new();
        p.push(b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\nGET /par");
        let Feed::Request(a) = p.next_request() else { panic!() };
        assert_eq!(a.path, "/healthz");
        let Feed::Request(b) = p.next_request() else { panic!() };
        assert_eq!(b.path, "/stats");
        // The third request is incomplete: buffered, not lost.
        assert!(matches!(p.next_request(), Feed::NeedMore));
        assert!(p.mid_request());
        p.push(b"tial HTTP/1.1\r\n\r\n");
        let Feed::Request(c) = p.next_request() else { panic!() };
        assert_eq!(c.path, "/partial");
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        let mut p = RequestParser::new();
        p.push(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody");
        let Feed::Malformed(resp) = p.next_request() else { panic!("expected malformed") };
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn conflicting_content_length_is_rejected() {
        let mut p = RequestParser::new();
        p.push(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 9\r\n\r\nbody");
        let Feed::Malformed(resp) = p.next_request() else { panic!("expected malformed") };
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn non_numeric_content_length_is_rejected() {
        for v in ["4x", "-1", "+4", "4 4", "0x10", ""] {
            let mut p = RequestParser::new();
            p.push(format!("POST /x HTTP/1.1\r\nContent-Length:{v}\r\n\r\n").as_bytes());
            let Feed::Malformed(resp) = p.next_request() else {
                panic!("expected malformed for {v:?}")
            };
            assert_eq!(resp.status, 400, "{v:?}");
        }
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        let mut p = RequestParser::new();
        p.push(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        let Feed::Malformed(resp) = p.next_request() else { panic!("expected malformed") };
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn unterminated_header_block_hits_cap_with_431() {
        let mut p = RequestParser::new();
        p.push(b"GET /x HTTP/1.1\r\n");
        // A slowloris stream of headers that never terminates.
        while p.buf.len() <= MAX_HEADER_BYTES {
            match p.next_request() {
                Feed::NeedMore => {}
                other => panic!("unexpected {other:?}"),
            }
            p.push(b"X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        let Feed::Malformed(resp) = p.next_request() else { panic!("expected malformed") };
        assert_eq!(resp.status, 431);
    }

    #[test]
    fn eof_mid_request_is_a_truncation_error() {
        let mut p = RequestParser::new();
        p.push(b"GET /x HTTP/1.1\r\nHost:");
        assert!(matches!(p.next_request(), Feed::NeedMore));
        let resp = p.on_eof().expect("mid-request EOF must error");
        assert_eq!(resp.status, 400);
        // The parser is reusable (the poller drops the conn anyway).
        assert!(!p.mid_request());
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let mut p = RequestParser::new();
        p.push(b"GET /lf HTTP/1.1\nHost: x\n\n");
        let Feed::Request(req) = p.next_request() else { panic!("expected request") };
        assert_eq!(req.path, "/lf");
        assert_eq!(req.header("host"), Some("x"));
    }
}
