//! End-to-end HTTP tests: a spawned server, real sockets, JSON bodies.
//!
//! The acceptance property of the service lives here: a warm repeat
//! `POST /explain` (same query and labels, new `c`) runs through the
//! cached session — plan-cache hit, influence-cache hits, strictly
//! fewer scorer calls than the cold first call.

use scorpion_server::{client, Json, Server, ServerConfig};

/// CSV of the planted workload: group "o" runs hot for x ∈ [20, 60),
/// group "h" is uniform.
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

fn serve() -> scorpion_server::ServerHandle {
    let server = Server::bind(&ServerConfig { port: 0, workers: 4, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    server.spawn().expect("spawn server")
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

fn diag(resp: &Json, field: &str) -> f64 {
    resp.get("diagnostics")
        .and_then(|d| d.get(field))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing diagnostics.{field} in {resp:?}"))
}

#[test]
fn healthz_tables_and_stats_round_trip() {
    let handle = serve();
    let mut c = client::Client::connect(handle.addr()).unwrap();

    let (status, health) = c.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("tables").and_then(Json::as_f64), Some(0.0));

    let (status, loaded) = c.post("/tables", &table_body("planted", 50)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(loaded.get("rows").and_then(Json::as_f64), Some(100.0));

    let (status, tables) = c.get("/tables").unwrap();
    assert_eq!(status, 200);
    let list = tables.get("tables").and_then(Json::as_array).unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].get("name").and_then(Json::as_str), Some("planted"));
    assert_eq!(list[0].get("attributes").and_then(Json::as_f64), Some(3.0));

    let (status, stats) = c.get("/stats").unwrap();
    assert_eq!(status, 200);
    let queue = stats.get("queue").unwrap();
    assert!(queue.get("workers").and_then(Json::as_f64).unwrap() >= 1.0);
    handle.stop();
}

#[test]
fn warm_repeat_explain_hits_every_cache_layer() {
    let handle = serve();
    let mut c = client::Client::connect(handle.addr()).unwrap();
    c.post("/tables", &table_body("planted", 300)).unwrap();

    let (status, cold) = c.post("/explain", &explain_body("planted", "dt", 0.5)).unwrap();
    assert_eq!(status, 200, "{cold:?}");
    assert_eq!(cold.get("plan_cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(cold.get("algorithm").and_then(Json::as_str), Some("dt"));
    let cold_calls = diag(&cold, "scorer_calls");
    assert!(cold_calls > 0.0);
    let best = &cold.get("explanations").and_then(Json::as_array).unwrap()[0];
    assert!(best.get("predicate").and_then(Json::as_str).unwrap().contains("x in"));

    // Same query + labels, new c: the warm path.
    let (status, warm) = c.post("/explain", &explain_body("planted", "dt", 0.2)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(warm.get("plan_cache").and_then(Json::as_str), Some("hit"));
    assert!(diag(&warm, "cache_hits") > 0.0, "warm run must hit the influence cache");
    assert!(
        diag(&warm, "scorer_calls") < cold_calls,
        "warm {} vs cold {} scorer calls",
        diag(&warm, "scorer_calls"),
        cold_calls
    );

    let (_, stats) = c.get("/stats").unwrap();
    let plans = stats.get("plan_cache").unwrap();
    assert_eq!(plans.get("hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(plans.get("misses").and_then(Json::as_f64), Some(1.0));
    let explain_stats = stats.get("endpoints").and_then(|e| e.get("explain")).unwrap();
    assert_eq!(explain_stats.get("count").and_then(Json::as_f64), Some(2.0));
    assert_eq!(explain_stats.get("errors").and_then(Json::as_f64), Some(0.0));
    handle.stop();
}

#[test]
fn reloading_a_table_invalidates_warm_plans() {
    let handle = serve();
    let mut c = client::Client::connect(handle.addr()).unwrap();
    c.post("/tables", &table_body("t", 100)).unwrap();
    let (_, first) = c.post("/explain", &explain_body("t", "dt", 0.5)).unwrap();
    assert_eq!(first.get("plan_cache").and_then(Json::as_str), Some("miss"));
    // Reload the table: new generation, stale plans unreachable.
    c.post("/tables", &table_body("t", 100)).unwrap();
    let (_, second) = c.post("/explain", &explain_body("t", "dt", 0.5)).unwrap();
    assert_eq!(second.get("plan_cache").and_then(Json::as_str), Some("miss"));
    assert!(
        second.get("generation").and_then(Json::as_f64)
            > first.get("generation").and_then(Json::as_f64)
    );
    handle.stop();
}

#[test]
fn auto_label_and_single_table_default() {
    let handle = serve();
    let mut c = client::Client::connect(handle.addr()).unwrap();
    c.post("/tables", &table_body("only", 100)).unwrap();
    // No `table` (one registered ⇒ default) and no explicit labels.
    let body = Json::obj([
        ("sql", Json::from("SELECT avg(v) FROM t GROUP BY g")),
        ("auto_label", Json::from(1.0)),
    ]);
    let (status, resp) = c.post("/explain", &body).unwrap();
    assert_eq!(status, 200, "{resp:?}");
    let results = resp.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), 2);
    assert!(results.iter().any(|r| r.get("label").and_then(Json::as_str) == Some("outlier")));
    handle.stop();
}

#[test]
fn error_paths_are_clean_json() {
    let handle = serve();
    let mut c = client::Client::connect(handle.addr()).unwrap();

    let (status, _) = c.get("/no-such-endpoint").unwrap();
    assert_eq!(status, 404);
    let (status, _) = c.get("/explain").unwrap();
    assert_eq!(status, 405);

    let (status, err) = c.post("/explain", &explain_body("unregistered", "dt", 0.5)).unwrap();
    assert_eq!(status, 404);
    assert!(err.get("error").and_then(Json::as_str).unwrap().contains("unregistered"));

    c.post("/tables", &table_body("t", 20)).unwrap();
    let (status, err) = c
        .post(
            "/explain",
            &Json::obj([
                ("table", Json::from("t")),
                ("sql", Json::from("SELECT avg(v) FROM t GROUP BY g")),
                ("outliers", Json::arr(["no-such-group"])),
            ]),
        )
        .unwrap();
    assert_eq!(status, 400);
    assert!(err.get("error").and_then(Json::as_str).unwrap().contains("no-such-group"));

    let (status, err) = c
        .post(
            "/explain",
            &Json::obj([("table", Json::from("t")), ("sql", Json::from("not sql at all"))]),
        )
        .unwrap();
    assert_eq!(status, 400);
    assert!(err.get("error").is_some());

    // An unknown aggregate is rejected with the registered vocabulary,
    // so the 4xx body tells the caller what *would* work.
    let (status, err) = c
        .post(
            "/explain",
            &Json::obj([
                ("table", Json::from("t")),
                ("sql", Json::from("SELECT geomean(v) FROM t GROUP BY g")),
                ("outliers", Json::arr(["o"])),
            ]),
        )
        .unwrap();
    assert_eq!(status, 400);
    let msg = err.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("geomean"), "names the offender: {msg}");
    for name in ["avg", "median", "count_distinct", "p99", "percentile"] {
        assert!(msg.contains(name), "lists {name}: {msg}");
    }

    // The connection survived every error (keep-alive).
    let (status, _) = c.get("/healthz").unwrap();
    assert_eq!(status, 200);
    handle.stop();
}

/// Out-of-range approximate-search knobs are a 400 whose body names the
/// valid range; a valid opt-in runs and reports `approx_error_bound`
/// and `candidates_pruned` in diagnostics.
#[test]
fn approx_knobs_validate_and_report() {
    let handle = serve();
    let mut c = client::Client::connect(handle.addr()).unwrap();
    c.post("/tables", &table_body("t", 100)).unwrap();

    let with = |fields: &[(&str, Json)]| {
        let mut body = explain_body("t", "dt", 0.5);
        if let Json::Obj(pairs) = &mut body {
            pairs.extend(fields.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
        }
        body
    };
    for (field, value, range) in [
        ("approx_rate", 1.5, "(0.0, 1.0]"),
        ("approx_rate", 0.0, "(0.0, 1.0]"),
        ("approx_confidence", 0.4, "(0.5, 1.0]"),
        ("approx_confidence", 1.01, "(0.5, 1.0]"),
    ] {
        let (status, err) = c.post("/explain", &with(&[(field, Json::from(value))])).unwrap();
        assert_eq!(status, 400, "{field}={value}: {err:?}");
        let msg = err.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains(range), "{field}={value}: body must name {range}, got: {msg}");
    }

    // Out-of-range λ and c are client errors on a plan-cache miss here,
    // and on a hit once a valid request has cached the plan (below).
    let bad_params = |c: &mut client::Client| {
        for (field, value, range) in [("c", -1.0, "non-negative"), ("lambda", 2.0, "[0, 1]")] {
            let mut body = explain_body("t", "dt", 0.5);
            if let Json::Obj(pairs) = &mut body {
                pairs.retain(|(k, _)| k != field);
                pairs.push((field.to_owned(), Json::from(value)));
            }
            let (status, err) = c.post("/explain", &body).unwrap();
            assert_eq!(status, 400, "{field}={value}: {err:?}");
            let msg = err.get("error").and_then(Json::as_str).unwrap();
            assert!(msg.contains(range), "{field}={value}: body must name {range}, got: {msg}");
        }
    };
    bad_params(&mut c);

    let (status, resp) = c.post("/explain", &with(&[("approx", Json::from(true))])).unwrap();
    assert_eq!(status, 200, "{resp:?}");
    let bound = diag(&resp, "approx_error_bound");
    assert!(bound >= 0.0, "{bound}");
    assert!(diag(&resp, "candidates_pruned") >= 0.0);

    // Exact requests to the same table render null, not a stale bound:
    // the approx knobs are part of the plan key.
    let (status, exact) = c.post("/explain", &explain_body("t", "dt", 0.5)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        exact.get("diagnostics").and_then(|d| d.get("approx_error_bound")),
        Some(&Json::Null),
        "{exact:?}"
    );
    assert_eq!(exact.get("plan_cache").and_then(Json::as_str), Some("miss"));
    bad_params(&mut c);
    handle.stop();
}

/// Value of the first sample named `name` (exact match on the part
/// before `{` / whitespace) in a Prometheus exposition body.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    prom_samples(text, name).first().map(|(_, v)| *v)
}

/// All `(labels, value)` samples whose metric name is exactly `name`.
fn prom_samples(text: &str, name: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((lhs, rhs)) = line.rsplit_once(' ') else { continue };
        let (metric, labels) = match lhs.split_once('{') {
            Some((m, rest)) => (m, rest.trim_end_matches('}')),
            None => (lhs, ""),
        };
        if metric == name {
            if let Ok(v) = rhs.trim().parse::<f64>() {
                out.push((labels.to_owned(), v));
            }
        }
    }
    out
}

#[test]
fn metrics_exposition_round_trip() {
    let handle = serve();
    let mut c = client::Client::connect(handle.addr()).unwrap();

    let (status, before) = c.get_text("/metrics").unwrap();
    assert_eq!(status, 200);
    // Static series are present even with zero traffic.
    assert!(before.contains("# TYPE scorpion_requests_total counter"), "{before}");
    assert_eq!(prom_value(&before, "scorpion_registered_tables"), Some(0.0));
    let build = prom_samples(&before, "scorpion_build_info");
    assert_eq!(build.len(), 1);
    assert!(build[0].0.contains("version="), "build_info labels: {}", build[0].0);
    assert!(build[0].0.contains("git="), "build_info labels: {}", build[0].0);
    assert!(prom_value(&before, "scorpion_uptime_seconds").unwrap() >= 0.0);
    let total = |text: &str| -> f64 {
        prom_samples(text, "scorpion_requests_total").iter().map(|(_, v)| v).sum()
    };
    let reqs_before = total(&before);

    // Generate traffic: a table load and two explains.
    c.post("/tables", &table_body("m", 100)).unwrap();
    c.post("/explain", &explain_body("m", "dt", 0.5)).unwrap();
    c.post("/explain", &explain_body("m", "dt", 0.2)).unwrap();

    let (_, after) = c.get_text("/metrics").unwrap();
    // Counters are monotone and reflect the traffic above.
    let reqs_after = total(&after);
    assert!(reqs_after >= reqs_before + 4.0, "{reqs_before} -> {reqs_after}");
    assert_eq!(prom_value(&after, "scorpion_registered_tables"), Some(1.0));
    assert_eq!(prom_value(&after, "scorpion_plan_cache_hits_total"), Some(1.0));
    assert_eq!(prom_value(&after, "scorpion_plan_cache_misses_total"), Some(1.0));

    // Per-table residency gauges: 100 planted rows × 2 groups.
    let rows = prom_samples(&after, "scorpion_table_resident_rows");
    assert_eq!(rows.len(), 1);
    assert!(rows[0].0.contains("table=\"m\""), "labels: {}", rows[0].0);
    assert_eq!(rows[0].1, 200.0);
    let bytes = prom_samples(&after, "scorpion_table_resident_bytes");
    assert_eq!(bytes.len(), 1);
    assert!(bytes[0].1 > 0.0);

    // The explain latency histogram: cumulative buckets ending at +Inf,
    // with _count consistent with the traffic.
    let buckets: Vec<(String, f64)> =
        prom_samples(&after, "scorpion_request_duration_seconds_bucket")
            .into_iter()
            .filter(|(labels, _)| labels.contains("endpoint=\"explain\""))
            .collect();
    assert!(!buckets.is_empty(), "no explain buckets in:\n{after}");
    let mut last = f64::NEG_INFINITY;
    for (labels, v) in &buckets {
        assert!(*v >= last, "bucket counts must be cumulative: {labels} {v} after {last}");
        last = *v;
    }
    assert!(buckets.last().unwrap().0.contains("le=\"+Inf\""), "{:?}", buckets.last());
    let count = prom_samples(&after, "scorpion_request_duration_seconds_count")
        .into_iter()
        .find(|(l, _)| l.contains("endpoint=\"explain\""))
        .map(|(_, v)| v)
        .unwrap();
    assert_eq!(count, 2.0);
    assert_eq!(buckets.last().unwrap().1, count, "+Inf bucket must equal _count");
    let sum = prom_samples(&after, "scorpion_request_duration_seconds_sum")
        .into_iter()
        .find(|(l, _)| l.contains("endpoint=\"explain\""))
        .map(|(_, v)| v)
        .unwrap();
    assert!(sum > 0.0, "two explains must have positive total latency");
    handle.stop();
}

#[test]
fn responses_carry_trace_ids() {
    let handle = serve();
    let mut c = client::Client::connect(handle.addr()).unwrap();
    c.post("/tables", &table_body("t", 100)).unwrap();

    let resp = c.post_raw("/explain", &explain_body("t", "dt", 0.5)).unwrap();
    assert_eq!(resp.status, 200);
    let header_id = resp
        .header(scorpion_server::TRACE_ID_HEADER)
        .unwrap_or_else(|| panic!("missing trace header in {:?}", resp.headers))
        .parse::<f64>()
        .unwrap();
    let body = Json::parse(&resp.body).unwrap();
    assert_eq!(
        body.get("trace_id").and_then(Json::as_f64),
        Some(header_id),
        "body trace_id must echo the response header"
    );
    assert_eq!(
        body.get("diagnostics").and_then(|d| d.get("trace_id")).and_then(Json::as_f64),
        Some(header_id),
        "engine diagnostics must carry the x-scorpion-trace-id for correlation"
    );

    // A second request gets a distinct id.
    let resp2 = c.post_raw("/explain", &explain_body("t", "dt", 0.2)).unwrap();
    let header_id2 =
        resp2.header(scorpion_server::TRACE_ID_HEADER).unwrap().parse::<f64>().unwrap();
    assert_ne!(header_id, header_id2);

    let (_, stats) = c.get("/stats").unwrap();
    assert!(stats.get("trace_ids_issued").and_then(Json::as_f64).unwrap() >= 3.0);
    let build = stats.get("build").expect("stats must carry build info");
    assert!(build.get("version").and_then(Json::as_str).is_some());
    assert!(build.get("git").and_then(Json::as_str).is_some());
    assert!(stats.get("uptime_secs").and_then(Json::as_f64).unwrap() >= 0.0);
    handle.stop();
}

#[test]
fn explain_diagnostics_attribute_phases_per_algorithm() {
    let handle = serve();
    let mut c = client::Client::connect(handle.addr()).unwrap();
    c.post("/tables", &table_body("t", 150)).unwrap();

    for algo in ["dt", "mc", "naive"] {
        let (status, resp) = c.post("/explain", &explain_body("t", algo, 0.5)).unwrap();
        assert_eq!(status, 200, "{resp:?}");
        let phases = resp
            .get("diagnostics")
            .and_then(|d| d.get("phases"))
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{algo}: no diagnostics.phases in {resp:?}"));
        assert!(!phases.is_empty(), "{algo}: empty phases");
        let names: Vec<&str> =
            phases.iter().filter_map(|p| p.get("name").and_then(Json::as_str)).collect();
        assert!(names.contains(&"prepare"), "{algo}: first run must charge prepare: {names:?}");
        assert!(names.contains(&"run.score"), "{algo}: missing run.score: {names:?}");
        for p in phases {
            assert!(p.get("ms").and_then(Json::as_f64).unwrap() >= 0.0);
            assert!(p.get("count").and_then(Json::as_f64).unwrap() >= 1.0);
        }
    }
    handle.stop();
}

#[test]
fn debug_endpoints_expose_the_flight_recorder() {
    let handle = serve();
    let mut c = client::Client::connect(handle.addr()).unwrap();
    c.post("/tables", &table_body("t", 100)).unwrap();
    let resp = c.post_raw("/explain", &explain_body("t", "dt", 0.5)).unwrap();
    assert_eq!(resp.status, 200);
    let trace_id = resp.header(scorpion_server::TRACE_ID_HEADER).unwrap().to_owned();

    // The explain request's event is in the ring, correlatable by the
    // trace id the response header carried.
    let (status, telem) = c.get("/debug/telemetry").unwrap();
    assert_eq!(status, 200);
    assert_eq!(telem.get("enabled").and_then(Json::as_bool), Some(true));
    assert!(telem.get("capacity").and_then(Json::as_f64).unwrap() >= 1.0);
    let events = telem.get("events").and_then(Json::as_array).unwrap();
    let key = format!("t{trace_id}");
    let event = events
        .iter()
        .find(|e| e.get("req").and_then(Json::as_str) == Some(key.as_str()))
        .unwrap_or_else(|| panic!("no event for trace {trace_id}"));
    assert_eq!(event.get("endpoint").and_then(Json::as_str), Some("explain"));
    assert_eq!(event.get("table").and_then(Json::as_str), Some("t"));
    assert_eq!(event.get("algorithm").and_then(Json::as_str), Some("dt"));
    assert_eq!(event.get("aggregate").and_then(Json::as_str), Some("avg"));
    assert_eq!(event.get("plan_cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(event.get("status").and_then(Json::as_str), Some("200"));
    assert!(event.get("latency_ms").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(event.get("rows_scanned").and_then(Json::as_f64).unwrap() > 0.0);

    // The CSV rendering parses back into the same relation shape
    // (`scorpion audit --telemetry-csv` reads exactly this dump).
    let (status, csv) = c.get_text("/debug/telemetry?format=csv").unwrap();
    assert_eq!(status, 200);
    let table = scorpion_core::telemetry_table_from_csv(&csv).unwrap();
    assert!(!table.is_empty());
    assert!(table.attr("req").is_ok() && table.attr("latency_ms").is_ok());

    // /debug/slow always answers — on quiet telemetry with an honest
    // non-finding.
    let (status, slow) = c.get("/debug/slow").unwrap();
    assert_eq!(status, 200, "{slow:?}");
    let outcome = slow.get("outcome").and_then(Json::as_str).unwrap();
    assert!(
        ["too_few_events", "no_outliers", "explained"].contains(&outcome),
        "unexpected outcome {outcome}"
    );
    assert!(slow.get("events").and_then(Json::as_f64).unwrap() >= 1.0);

    // Bad parameters are clean 400s; bad methods on /debug paths 405.
    let (status, _) = c.get("/debug/slow?threshold=bogus").unwrap();
    assert_eq!(status, 400);
    let (status, _) = c.post("/debug/slow", &Json::obj([("x", Json::from(1.0))])).unwrap();
    assert_eq!(status, 405);
    handle.stop();
}

#[test]
fn concurrent_clients_get_identical_answers() {
    let handle = serve();
    let mut setup = client::Client::connect(handle.addr()).unwrap();
    setup.post("/tables", &table_body("shared", 200)).unwrap();
    // Prime one plan so some threads hit and some miss concurrently.
    setup.post("/explain", &explain_body("shared", "mc", 0.5)).unwrap();

    let addr = handle.addr();
    let answers: Vec<Vec<(String, String)>> = std::thread::scope(|s| {
        (0..8)
            .map(|_| {
                s.spawn(move || {
                    let mut c = client::Client::connect(addr).unwrap();
                    let mut got = Vec::new();
                    for &(algo, cc) in &[("mc", 0.5), ("naive", 0.5), ("mc", 0.2), ("naive", 0.2)] {
                        let (status, resp) =
                            c.post("/explain", &explain_body("shared", algo, cc)).unwrap();
                        assert_eq!(status, 200, "{resp:?}");
                        let best = &resp.get("explanations").and_then(Json::as_array).unwrap()[0];
                        got.push((
                            format!("{algo}@{cc}"),
                            format!(
                                "{}|{}",
                                best.get("predicate").and_then(Json::as_str).unwrap(),
                                best.get("influence").and_then(Json::as_f64).unwrap()
                            ),
                        ));
                    }
                    got
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    // Every thread must have seen bit-identical explanations per (algo, c).
    for per_thread in &answers[1..] {
        assert_eq!(per_thread, &answers[0]);
    }
    let state = handle.state();
    let stats = state.plans.stats();
    assert!(stats.hits > 0, "concurrent repeats must share warm plans: {stats:?}");
    handle.stop();
}
