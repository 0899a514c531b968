//! Integration tests for the request-grained serving core: parked
//! keep-alive connections, per-request deadlines, slow-client
//! timeouts, malformed-request hygiene, and shed attribution.

use scorpion_server::{client, Json, Server, ServerConfig, ServerHandle, DEADLINE_HEADER};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn planted_csv(n: usize) -> String {
    let mut s = String::from("g,x,v\n");
    for i in 0..n {
        let x = (i as f64 * 7.3) % 100.0;
        let v = if (20.0..60.0).contains(&x) { 80.0 } else { 10.0 };
        s.push_str(&format!("o,{x},{v}\n"));
        s.push_str(&format!("h,{x},10\n"));
    }
    s
}

/// Like [`planted_csv`] but with extra continuous noise attributes:
/// NAIVE enumerates the cartesian product of per-attribute clauses, so
/// four continuous attributes make an exhaustive run take tens of
/// seconds — the deadline, not completion, ends it.
fn wide_csv(n: usize) -> String {
    let mut s = String::from("g,x,y,z,v\n");
    for i in 0..n {
        let x = (i as f64 * 7.3) % 100.0;
        let y = (i as f64 * 3.7) % 50.0;
        let z = (i as f64 * 1.3) % 10.0;
        let v = if (20.0..60.0).contains(&x) { 80.0 } else { 10.0 };
        s.push_str(&format!("o,{x},{y},{z},{v}\n"));
        s.push_str(&format!("h,{x},{y},{z},10\n"));
    }
    s
}

fn serve(cfg: ServerConfig) -> ServerHandle {
    Server::bind(&ServerConfig { port: 0, ..cfg }).expect("bind").spawn().expect("spawn")
}

fn table_body(name: &str, rows: usize) -> Json {
    Json::obj([("name", Json::from(name)), ("csv", Json::from(planted_csv(rows)))])
}

fn explain_body(table: &str, algorithm: &str, c: f64) -> Json {
    Json::obj([
        ("table", Json::from(table)),
        ("sql", Json::from("SELECT avg(v) FROM t GROUP BY g")),
        ("outliers", Json::arr(["o"])),
        ("holdouts", Json::arr(["h"])),
        ("lambda", Json::from(0.5)),
        ("c", Json::from(c)),
        ("algorithm", Json::from(algorithm)),
    ])
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    let mut v = stats;
    for p in path {
        v = v.get(p).unwrap_or_else(|| panic!("missing {path:?} in {stats:?}"));
    }
    v.as_f64().unwrap_or_else(|| panic!("non-numeric {path:?}"))
}

/// Reads everything until EOF (or the socket read timeout) as text.
fn read_to_eof(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// A malformed request gets exactly one 400 with `Connection: close`,
/// and nothing pipelined after it is ever processed — after a framing
/// error the byte stream is desynchronized and cannot be trusted.
#[test]
fn malformed_request_closes_the_connection() {
    let handle = serve(ServerConfig { workers: 2, ..ServerConfig::default() });
    for bad_then_good in [
        // Garbage request line, then a perfectly good request.
        "garbage\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n".to_owned(),
        // Conflicting Content-Length (smuggling-class), then a good one.
        "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 9\r\n\r\nbody\
         GET /healthz HTTP/1.1\r\n\r\n"
            .to_owned(),
        // Transfer-Encoding is never half-honored.
        "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
         GET /healthz HTTP/1.1\r\n\r\n"
            .to_owned(),
    ] {
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(bad_then_good.as_bytes()).unwrap();
        let text = read_to_eof(&mut s);
        assert_eq!(text.matches("HTTP/1.1").count(), 1, "one response only:\n{text}");
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
        // read_to_eof returning proves the server closed the socket:
        // the pipelined /healthz was dropped, not answered.
        assert!(!text.contains("\"status\""), "healthz must not run:\n{text}");
    }
    handle.stop();
}

/// Two valid requests pipelined in one write are both answered, in
/// order. The second reaches the parser in the same read as the first,
/// so no readiness event will ever announce it: the poller must serve
/// it from the parser when the worker returns the connection.
#[test]
fn pipelined_requests_in_one_write_are_answered_in_order() {
    let handle = serve(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(
        b"GET /healthz HTTP/1.1\r\n\r\nGET /no-such-endpoint HTTP/1.1\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let text = read_to_eof(&mut s);
    let statuses: Vec<&str> =
        text.match_indices("HTTP/1.1 ").map(|(i, _)| &text[i + 9..i + 12]).collect();
    assert_eq!(statuses, ["200", "404"], "{text}");
    assert!(text.contains("\"status\""), "healthz answered first:\n{text}");
    handle.stop();
}

/// Hundreds of idle keep-alive connections park on the poller and
/// consume zero workers: concurrent explains still get all of a
/// 2-worker pool, and the parked connections stay usable afterwards.
#[test]
fn parked_connections_do_not_consume_workers() {
    let handle = serve(ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = handle.addr();

    // 32 keep-alive connections, each warmed with one request and then
    // left idle.
    let mut idle: Vec<client::Client> = (0..32)
        .map(|_| {
            let mut c = client::Client::connect(addr).unwrap();
            let (status, _) = c.get("/healthz").unwrap();
            assert_eq!(status, 200);
            c
        })
        .collect();

    // All 32 park (the poller publishes the gauge on its sweep tick).
    let mut checker = client::Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, stats) = checker.get("/stats").unwrap();
        if stat(&stats, &["parked_connections"]) >= 32.0 {
            break;
        }
        assert!(Instant::now() < deadline, "parked gauge never reached 32: {stats:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    checker.post("/tables", &table_body("t", 100)).unwrap();
    // Concurrent explains succeed while the 32 idle sockets sit parked
    // — with connection-pinned workers, 2 workers would be starved by
    // the first 2 idle connections and every explain would 503.
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..8)
            .map(|i| {
                s.spawn(move || {
                    let mut c = client::Client::connect(addr).unwrap();
                    let (status, resp) =
                        c.post("/explain", &explain_body("t", "mc", 0.1 * (i + 1) as f64)).unwrap();
                    assert_eq!(status, 200, "{resp:?}");
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    });

    // The parked connections survived and still serve requests.
    for c in &mut idle {
        let (status, _) = c.get("/healthz").unwrap();
        assert_eq!(status, 200);
    }
    handle.stop();
}

/// A client that starts a request and stalls (slowloris) is closed with
/// 408 after the read timeout — it never holds a worker meanwhile.
#[test]
fn slow_reader_gets_408_after_read_timeout() {
    let handle =
        serve(ServerConfig { workers: 1, read_timeout_ms: 150, ..ServerConfig::default() });
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /he").unwrap(); // ...and never finishes.
    let text = read_to_eof(&mut s);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");

    let (_, stats) = client::get(handle.addr(), "/stats").unwrap();
    assert_eq!(stat(&stats, &["read_timeouts"]), 1.0, "{stats:?}");
    handle.stop();
}

/// A client that stops draining its responses is dropped after the
/// write timeout instead of blocking a worker forever.
#[test]
fn slow_writer_is_dropped_after_write_timeout() {
    let handle =
        serve(ServerConfig { workers: 1, write_timeout_ms: 200, ..ServerConfig::default() });
    // Many tables with long names make each /tables response ~150 KB,
    // so a few pipelined responses overflow the socket buffers.
    let state = handle.state();
    let filler = "x".repeat(60);
    for i in 0..1500 {
        let t = scorpion_table::csv::parse_csv("g,v\no,1\n").unwrap();
        state.registry.insert(format!("table-{i}-{filler}"), t);
    }

    let mut s = TcpStream::connect(handle.addr()).unwrap();
    // Pipeline many requests and never read a byte of the responses.
    for _ in 0..60 {
        s.write_all(b"GET /tables HTTP/1.1\r\n\r\n").unwrap();
    }
    let mut checker = client::Client::connect(handle.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (_, stats) = checker.get("/stats").unwrap();
        if stat(&stats, &["write_timeouts"]) >= 1.0 {
            break;
        }
        assert!(Instant::now() < deadline, "write timeout never fired: {stats:?}");
        std::thread::sleep(Duration::from_millis(100));
    }
    drop(s);
    handle.stop();
}

/// Deadlines: the server default applies, the per-request header
/// overrides it in both directions, and a malformed header is a 400.
#[test]
fn deadlines_bound_explain_and_are_overridable() {
    let handle = serve(ServerConfig { workers: 2, deadline_ms: 1, ..ServerConfig::default() });
    let mut c = client::Client::connect(handle.addr()).unwrap();
    c.post("/tables", &table_body("t", 150)).unwrap();
    let wide = Json::obj([("name", Json::from("wide")), ("csv", Json::from(wide_csv(2000)))]);
    c.post("/tables", &wide).unwrap();

    // 1 ms default: an exhaustive run over the wide table takes seconds
    // in any build — 504 either before execution or after a
    // budget-truncated run.
    let (status, resp) = c.post("/explain", &explain_body("wide", "naive", 0.5)).unwrap();
    assert_eq!(status, 504, "{resp:?}");

    // A generous per-request header overrides the tight default.
    let resp = c
        .post_with_headers(
            "/explain",
            &[(DEADLINE_HEADER, "3600000")],
            &explain_body("t", "naive", 0.5),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let body = Json::parse(&resp.body).unwrap();
    assert_eq!(body.get("deadline_exceeded").and_then(Json::as_bool), Some(false));
    assert!(!body.get("explanations").and_then(Json::as_array).unwrap().is_empty());

    // Header `0` disables the default entirely.
    let resp = c
        .post_with_headers("/explain", &[(DEADLINE_HEADER, "0")], &explain_body("t", "naive", 0.2))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // A malformed header is the request's fault.
    let resp = c
        .post_with_headers(
            "/explain",
            &[(DEADLINE_HEADER, "soon")],
            &explain_body("t", "naive", 0.5),
        )
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains(DEADLINE_HEADER), "{}", resp.body);

    let (_, stats) = c.get("/stats").unwrap();
    assert!(stat(&stats, &["deadline_exceeded"]) >= 1.0, "{stats:?}");
    handle.stop();
}

/// Under saturation, shed 503s are attributed to the endpoint the
/// request targeted — as sheds and errors, never as latency samples —
/// and a deadline bounds the long request that caused the pileup.
#[test]
fn sheds_are_attributed_without_latency_samples() {
    let handle = serve(ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() });
    let addr = handle.addr();
    let mut setup = client::Client::connect(addr).unwrap();
    let big = Json::obj([("name", Json::from("big")), ("csv", Json::from(wide_csv(2000)))]);
    setup.post("/tables", &big).unwrap();

    // Occupy the single worker with a slow naive explain, bounded by a
    // deadline so the test always terminates.
    let explainer = std::thread::spawn(move || {
        let mut c = client::Client::connect(addr).unwrap();
        c.post_with_headers(
            "/explain",
            &[(DEADLINE_HEADER, "1500")],
            &explain_body("big", "naive", 0.5),
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));

    // Volley healthz probes: 1 fits the queue slot, the rest shed.
    let statuses: Vec<u16> = std::thread::scope(|s| {
        (0..6)
            .map(|_| s.spawn(move || client::get(addr, "/healthz").unwrap().0))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let shed = statuses.iter().filter(|&&st| st == 503).count() as f64;
    let served = statuses.iter().filter(|&&st| st == 200).count() as f64;
    assert!(shed >= 1.0, "expected sheds under saturation: {statuses:?}");
    assert_eq!(shed + served, 6.0, "unexpected statuses: {statuses:?}");

    // The deadline-bounded explain came back truncated, with its full
    // best-so-far body.
    let explain = explainer.join().unwrap();
    assert_eq!(explain.status, 504, "{}", explain.body);
    let body = Json::parse(&explain.body).unwrap();
    assert_eq!(body.get("deadline_exceeded").and_then(Json::as_bool), Some(true));
    assert!(body.get("diagnostics").is_some(), "504 still carries diagnostics: {}", explain.body);

    let (_, stats) = client::get(addr, "/stats").unwrap();
    let healthz = stats.get("endpoints").and_then(|e| e.get("healthz")).unwrap();
    // Sheds count against the endpoint the client targeted...
    assert_eq!(stat(healthz, &["shed"]), shed, "{stats:?}");
    assert_eq!(stat(healthz, &["errors"]), shed, "{stats:?}");
    // ...but only served requests are latency samples, and queue wait
    // is not folded into the worker histogram.
    assert_eq!(stat(healthz, &["count"]), served, "{stats:?}");
    assert!(stat(healthz, &["max_ms"]) < 500.0, "queue wait leaked into latency: {stats:?}");
    assert_eq!(stat(&stats, &["shed_requests"]), shed, "{stats:?}");
    handle.stop();
}
