//! A tiny blocking HTTP/1.1 client for load generators and tests.
//!
//! Not a general client: it speaks exactly the dialect the server
//! emits (`Content-Length` bodies, keep-alive) and parses bodies as
//! JSON. Lives in the library so perfbench's `server_dashboard`
//! workload and the integration tests drive the same wire path real
//! clients use.

use crate::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A keep-alive connection to one server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects (with a 5s I/O deadline).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        stream.set_nodelay(true)?;
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// `GET path`, returning `(status, parsed JSON body)`.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, Json)> {
        self.request("GET", path, None).and_then(RawResponse::into_json)
    }

    /// `GET path` for non-JSON endpoints (`/metrics`), returning
    /// `(status, body text)`.
    pub fn get_text(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request("GET", path, None).map(|r| (r.status, r.body))
    }

    /// `POST path` with a JSON body, returning `(status, parsed body)`.
    pub fn post(&mut self, path: &str, body: &Json) -> io::Result<(u16, Json)> {
        self.post_raw(path, body).and_then(RawResponse::into_json)
    }

    /// `POST path` with a JSON body, returning the raw response with
    /// its headers (for inspecting `x-scorpion-trace-id` and friends).
    pub fn post_raw(&mut self, path: &str, body: &Json) -> io::Result<RawResponse> {
        let text = body
            .encode()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.request("POST", path, Some(&text))
    }

    /// `POST path` with extra request headers (e.g. the
    /// `x-scorpion-deadline-ms` deadline), returning the raw response.
    pub fn post_with_headers(
        &mut self,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &Json,
    ) -> io::Result<RawResponse> {
        let text = body
            .encode()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.request_with_headers("POST", path, extra_headers, Some(&text))
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<RawResponse> {
        self.request_with_headers(method, path, &[], body)
    }

    fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> io::Result<RawResponse> {
        self.writer.write_all(&request_bytes(method, path, extra_headers, body.unwrap_or("")))?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<RawResponse> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                let (name, value) = (name.trim().to_ascii_lowercase(), value.trim().to_owned());
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| bad("bad Content-Length"))?;
                }
                headers.push((name, value));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
        Ok(RawResponse { status, headers, body })
    }
}

/// One request as it goes on the wire, head and body in one buffer: the
/// stream sets `TCP_NODELAY`, so each `write` call would leave as its
/// own segment and cost the server a wake-up and a read.
fn request_bytes(method: &str, path: &str, extra_headers: &[(&str, &str)], body: &str) -> Vec<u8> {
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: scorpion\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        message.push_str(name);
        message.push_str(": ");
        message.push_str(value);
        message.push_str("\r\n");
    }
    message.push_str("\r\n");
    message.push_str(body);
    message.into_bytes()
}

/// A response before JSON parsing: status, lowercased headers, body
/// text.
pub struct RawResponse {
    /// HTTP status code.
    pub status: u16,
    /// `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body as text.
    pub body: String,
}

impl RawResponse {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn into_json(self) -> io::Result<(u16, Json)> {
        let json = if self.body.is_empty() {
            Json::Null
        } else {
            Json::parse(&self.body)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        };
        Ok((self.status, json))
    }
}

/// One-shot convenience: connect, send, disconnect.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, Json)> {
    Client::connect(addr)?.get(path)
}

/// One-shot convenience: connect, POST JSON, disconnect.
pub fn post(addr: SocketAddr, path: &str, body: &Json) -> io::Result<(u16, Json)> {
    Client::connect(addr)?.post(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Feed, RequestParser};
    use std::net::TcpListener;

    /// Guards the one-segment request: the bytes the `Client` puts on
    /// the wire arrive in the server's first `read`, and one
    /// `RequestParser::push` of them yields the whole request with
    /// nothing left over — the framing the field-by-field rendering
    /// produced, in one buffer.
    #[test]
    fn request_is_one_buffer_the_parser_takes_whole() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let n = stream.read(&mut buf).unwrap();
            let mut parser = RequestParser::new();
            parser.push(&buf[..n]);
            let Feed::Request(req) = parser.next_request() else {
                panic!("one read must hold the request: {:?}", String::from_utf8_lossy(&buf[..n]))
            };
            assert!(!parser.mid_request(), "nothing beyond the request");
            stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}").unwrap();
            (buf[..n].to_vec(), req)
        });
        let mut client = Client::connect(addr).unwrap();
        let body = Json::obj([("c", Json::from(0.5))]);
        let resp = client.post_with_headers("/explain", &[("x-test", "1")], &body).unwrap();
        assert_eq!(resp.status, 200);
        let (wire, req) = server.join().unwrap();
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            "POST /explain HTTP/1.1\r\nHost: scorpion\r\nContent-Length: 9\r\n\
             Content-Type: application/json\r\nx-test: 1\r\n\r\n{\"c\":0.5}"
        );
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/explain"));
        assert_eq!(req.header("x-test"), Some("1"));
        assert_eq!(req.body, b"{\"c\":0.5}");
    }
}
