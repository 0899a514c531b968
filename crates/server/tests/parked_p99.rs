//! Parked keep-alive connections cost the server file descriptors, not
//! workers: the p99 of warm `POST /explain` round trips with 256 idle
//! connections parked on the readiness poller must stay within 2× of
//! the p99 with none parked.
//!
//! One p99 of 200 round trips moves with the host: on a shared 2-vCPU
//! machine, runs of one build read anywhere from 1.5 to 14 ms, because
//! a co-tenant's burst lands in one measurement and not in the other.
//! So the two states alternate for several rounds, each round measures
//! one p99 per state, and the medians of the rounds are compared. This
//! file is a test binary of its own, so no other test competes with
//! the measurements for the CPU.

use scorpion_server::{client::Client, Json, Server, ServerConfig};
use scorpion_table::{Field, Schema, Table, TableBuilder, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle keep-alive connections parked during the second measurement.
const PARKED: usize = 256;

/// Round trips per p99 sample.
const SAMPLES: usize = 200;

/// Rounds of (alone, parked) measurements.
const ROUNDS: usize = 5;

/// The `c` values a warm client rotates through; each is primed once,
/// so every measured request is a plan-cache hit.
const CS: [f64; 4] = [0.5, 0.3, 0.7, 0.2];

/// Group "o" runs hot for x ∈ [20, 60); group "h" is uniform.
fn planted(n: usize) -> Table {
    let schema = Schema::new(vec![Field::disc("g"), Field::cont("x"), Field::cont("v")]).unwrap();
    let mut b = TableBuilder::new(schema);
    for i in 0..n {
        let x = (i as f64 * 7.3) % 100.0;
        let v = if (20.0..60.0).contains(&x) { 80.0 } else { 10.0 };
        b.push_row(vec!["o".into(), Value::from(x), v.into()]).unwrap();
        b.push_row(vec!["h".into(), Value::from(x), Value::from(10.0)]).unwrap();
    }
    b.build()
}

fn explain_body(c: f64) -> Json {
    Json::obj([
        ("table", Json::from("planted")),
        ("sql", Json::from("SELECT avg(v) FROM planted GROUP BY g")),
        ("outliers", Json::arr(["o"])),
        ("holdouts", Json::arr(["h"])),
        ("lambda", Json::from(0.5)),
        ("c", Json::from(c)),
        ("algorithm", Json::from("dt")),
    ])
}

/// Sends `n` warm `/explain` requests, rotating `c`, and returns each
/// round trip's duration.
fn warm_round_trips(client: &mut Client, n: usize, lap: &mut usize) -> Vec<Duration> {
    (0..n)
        .map(|_| {
            let c = CS[*lap % CS.len()];
            *lap += 1;
            let start = Instant::now();
            let (status, resp) = client.post("/explain", &explain_body(c)).expect("warm post");
            let elapsed = start.elapsed();
            assert_eq!(status, 200, "{resp:?}");
            assert_eq!(resp.get("plan_cache").and_then(Json::as_str), Some("hit"));
            elapsed
        })
        .collect()
}

fn p99(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() * 99 / 100]
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Polls `/stats` until `parked_connections` satisfies `done`.
fn await_parked(client: &mut Client, done: impl Fn(f64) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, stats) = client.get("/stats").expect("stats");
        let parked = stats.get("parked_connections").and_then(Json::as_f64).unwrap_or(0.0);
        if done(parked) {
            return;
        }
        assert!(Instant::now() < deadline, "{parked} connections parked after 10 s");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn parked_connections_keep_warm_p99_within_2x() {
    // The default config keeps the flight recorder on, so every request
    // pays the full telemetry path.
    let server = Server::bind(&ServerConfig { port: 0, workers: 4, ..ServerConfig::default() })
        .expect("bind");
    assert!(scorpion_obs::telemetry().enabled(), "the recorder-on path is measured");
    let state = server.state();
    state.registry.insert("planted", Arc::new(planted(300)));
    let handle = server.spawn().expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The first request misses the plan cache; every later one hits.
    let (status, resp) = client.post("/explain", &explain_body(CS[0])).expect("cold post");
    assert_eq!(status, 200, "{resp:?}");
    assert_eq!(resp.get("plan_cache").and_then(Json::as_str), Some("miss"));
    for &c in &CS[1..] {
        client.post("/explain", &explain_body(c)).expect("prime");
    }
    let mut lap = 0usize;
    warm_round_trips(&mut client, SAMPLES, &mut lap);

    let (mut alone, mut parked) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        await_parked(&mut client, |n| n == 0.0);
        alone.push(p99(warm_round_trips(&mut client, SAMPLES, &mut lap)));
        // Each idle connection sends one request to establish itself,
        // then sits on the poller.
        let idle: Vec<Client> = (0..PARKED)
            .map(|_| {
                let mut c = Client::connect(handle.addr()).expect("idle connect");
                let (status, _) = c.get("/healthz").expect("idle healthz");
                assert_eq!(status, 200);
                c
            })
            .collect();
        await_parked(&mut client, |n| n >= PARKED as f64);
        parked.push(p99(warm_round_trips(&mut client, SAMPLES, &mut lap)));
        drop(idle);
    }
    let ms = |xs: &[Duration]| -> Vec<String> {
        xs.iter().map(|d| format!("{:.2}", d.as_secs_f64() * 1e3)).collect()
    };
    println!("warm p99 per round (ms): alone {:?}, {PARKED} parked {:?}", ms(&alone), ms(&parked));
    let (p99_alone, p99_parked) = (median(alone), median(parked));
    assert!(
        p99_parked <= p99_alone * 2,
        "{PARKED} parked connections must not double warm p99: {p99_alone:?} -> {p99_parked:?}"
    );
    handle.stop();
}
