//! CLI contract tests for the `scorpion` binary: exit codes, help
//! output (including under a closed pipe), `--json` output, and the
//! `serve` subcommand end to end.

use scorpion::server::{client, Json};
use std::io::Read;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scorpion"))
}

fn sample_csv_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("scorpion_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut text = String::from("g,x,v\n");
    for i in 0..60 {
        let x = (i as f64 * 7.3) % 100.0;
        let v = if (20.0..60.0).contains(&x) { 80.0 } else { 10.0 };
        text.push_str(&format!("o,{x},{v}\nh,{x},10\n"));
    }
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn help_exits_zero_with_usage() {
    for args in [
        &["--help"][..],
        &["-h"][..],
        &["serve", "--help"][..],
        &["serve", "-h"][..],
        &["audit", "--help"][..],
        &["audit", "-h"][..],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("usage: scorpion"), "{args:?}: {text}");
    }
    let serve_help = bin().args(["serve", "--help"]).output().unwrap();
    let text = String::from_utf8(serve_help.stdout).unwrap();
    for endpoint in ["/explain", "/tables", "/healthz", "/stats", "/debug/telemetry", "/debug/slow"]
    {
        assert!(text.contains(endpoint), "serve help missing {endpoint}: {text}");
    }
    for flag in ["--slow-ms", "--telemetry-events"] {
        assert!(text.contains(flag), "serve help missing {flag}: {text}");
    }
    let audit_help = bin().args(["audit", "--help"]).output().unwrap();
    let text = String::from_utf8(audit_help.stdout).unwrap();
    assert!(text.contains("--telemetry-csv"), "{text}");
    assert!(text.contains("/debug/telemetry"), "{text}");
}

/// `scorpion --help | head -1`: the pipe closes before the help text is
/// fully written; the process must still exit 0, not die of SIGPIPE or
/// panic on the write error.
#[test]
fn help_tolerates_closed_pipe() {
    for args in [&["--help"][..], &["serve", "--help"][..]] {
        let mut child = bin().args(args).stdout(Stdio::piped()).spawn().unwrap();
        // Close the read end without draining it.
        drop(child.stdout.take());
        let status = child.wait().unwrap();
        assert_eq!(status.code(), Some(0), "{args:?} under closed pipe: {status:?}");
    }
}

#[test]
fn bad_invocations_exit_two() {
    for args in [
        &[][..],                     // missing --csv/--sql
        &["--no-such-flag"][..],     // unknown flag
        &["serve", "--no-such"][..], // unknown serve flag
        &["--csv"][..],              // missing value
        &["audit"][..],              // missing --telemetry-csv
        &["audit", "--no-such"][..], // unknown audit flag
        // The plan and influence caches have fixed bounds: their old
        // flags are unknown, even before `--help`.
        &["serve", "--plan-cache", "8", "--help"][..],
        &["serve", "--influence-cache-entries", "8", "--help"][..],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn json_output_parses_and_ranks() {
    let csv = sample_csv_path("json.csv");
    let out = bin()
        .args([
            "--csv",
            csv.to_str().unwrap(),
            "--sql",
            "SELECT avg(v) FROM t GROUP BY g",
            "--outliers",
            "o",
            "--holdouts",
            "h",
            "--json",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = Json::parse(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap();
    assert_eq!(doc.get("results").and_then(Json::as_array).map(<[Json]>::len), Some(2));
    let explanations = doc.get("explanations").and_then(Json::as_array).unwrap();
    assert!(!explanations.is_empty());
    assert!(explanations[0].get("influence").and_then(Json::as_f64).is_some());
    assert!(doc
        .get("diagnostics")
        .and_then(|d| d.get("scorer_calls"))
        .and_then(Json::as_f64)
        .is_some());
    // The one-shot path stamps a trace id from the same process-wide
    // sequence the server uses, so offline runs correlate too.
    let trace_id = doc
        .get("diagnostics")
        .and_then(|d| d.get("trace_id"))
        .and_then(Json::as_f64)
        .expect("diagnostics.trace_id in --json output");
    assert!(trace_id >= 1.0, "{trace_id}");
    let phases = doc
        .get("diagnostics")
        .and_then(|d| d.get("phases"))
        .and_then(Json::as_array)
        .expect("diagnostics.phases in --json output");
    assert!(!phases.is_empty());
    let names: Vec<&str> =
        phases.iter().filter_map(|p| p.get("name").and_then(Json::as_str)).collect();
    assert!(names.contains(&"run.score"), "{names:?}");
}

/// Out-of-range approximate-search knobs and influence parameters exit
/// 2 with a message that names the valid range, before any data is read.
#[test]
fn approx_flags_validate_ranges() {
    let csv = sample_csv_path("approx_validate.csv");
    for (flag, value, range) in [
        ("--approx-rate", "1.5", "(0.0, 1.0]"),
        ("--approx-rate", "0.0", "(0.0, 1.0]"),
        ("--approx-rate", "abc", "(0.0, 1.0]"),
        ("--c", "NaN", "c must be finite and non-negative"),
        ("--c", "-1", "c must be finite and non-negative"),
        ("--lambda", "2", "lambda must be in [0, 1]"),
    ] {
        let out = bin()
            .args([
                "--csv",
                csv.to_str().unwrap(),
                "--sql",
                "SELECT avg(v) FROM t GROUP BY g",
                flag,
                value,
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(range), "{flag} {value}: stderr must name {range}, got: {err}");
    }
}

/// `--approx --json` surfaces the approximate-search diagnostics:
/// `approx_error_bound` is a number (0.0 when nothing was pruned) and
/// `candidates_pruned` is present.
#[test]
fn approx_json_reports_error_bound() {
    let csv = sample_csv_path("approx_json.csv");
    let out = bin()
        .args([
            "--csv",
            csv.to_str().unwrap(),
            "--sql",
            "SELECT avg(v) FROM t GROUP BY g",
            "--outliers",
            "o",
            "--holdouts",
            "h",
            "--approx",
            "--json",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = Json::parse(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap();
    let d = doc.get("diagnostics").expect("diagnostics");
    let bound = d.get("approx_error_bound").and_then(Json::as_f64);
    assert!(bound.is_some(), "approx runs must report approx_error_bound: {d:?}");
    assert!(bound.unwrap() >= 0.0);
    assert!(d.get("candidates_pruned").and_then(Json::as_f64).is_some());
}

/// `--verbose` prints the phase table to stderr — aligned columns, a
/// TOTAL row — without disturbing the `--json` document on stdout.
#[test]
fn verbose_phase_table_on_stderr() {
    let csv = sample_csv_path("verbose.csv");
    let out = bin()
        .args([
            "--csv",
            csv.to_str().unwrap(),
            "--sql",
            "SELECT avg(v) FROM t GROUP BY g",
            "--outliers",
            "o",
            "--holdouts",
            "h",
            "--json",
            "--verbose",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    // stdout is still one clean JSON document.
    assert!(Json::parse(std::str::from_utf8(&out.stdout).unwrap().trim()).is_ok());
    let table = String::from_utf8(out.stderr).unwrap();
    assert!(table.contains("phase"), "{table}");
    assert!(table.contains("run.score"), "{table}");
    assert!(table.contains("TOTAL"), "{table}");
    // Columns align: every phase row ends at the same width as the header.
    let lines: Vec<&str> = table.lines().filter(|l| l.contains("  ")).collect();
    assert!(lines.len() >= 3, "{table}");
}

/// `--trace FILE` writes a chrome://tracing JSON dump whose spans carry
/// the phase names: for DT (`avg`), MC (`sum`) and NAIVE (`median`)
/// picked through Auto, every `diagnostics.phases` entry of the run's
/// `--json` document appears as a span, inside `prepare` and `run`.
#[test]
fn trace_flag_writes_chrome_trace() {
    let csv = sample_csv_path("trace.csv");
    for (agg, algorithm) in [("avg", "dt"), ("sum", "mc"), ("median", "naive")] {
        let trace =
            std::env::temp_dir().join("scorpion_cli_test").join(format!("trace_out_{agg}.json"));
        let _ = std::fs::remove_file(&trace);
        let out = bin()
            .args([
                "--csv",
                csv.to_str().unwrap(),
                "--sql",
                &format!("SELECT {agg}(v) FROM t GROUP BY g"),
                "--outliers",
                "o",
                "--holdouts",
                "h",
                "--json",
                "--trace",
                trace.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let doc = Json::parse(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap();
        assert_eq!(doc.get("algorithm").and_then(Json::as_str), Some(algorithm), "{agg}");
        let phases: Vec<&str> = doc
            .get("diagnostics")
            .and_then(|d| d.get("phases"))
            .and_then(Json::as_array)
            .expect("diagnostics.phases in --json output")
            .iter()
            .filter_map(|p| p.get("name").and_then(Json::as_str))
            .collect();
        assert!(phases.contains(&"run.score"), "{agg}: {phases:?}");

        let text = std::fs::read_to_string(&trace).expect("trace file written");
        let trace_doc = Json::parse(&text).expect("trace is valid JSON");
        let events =
            trace_doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
        let names: Vec<&str> =
            events.iter().filter_map(|e| e.get("name").and_then(Json::as_str)).collect();
        for required in phases.iter().copied().chain(["prepare", "run"]) {
            assert!(names.contains(&required), "{agg}: missing span `{required}` in {names:?}");
        }
        for e in events {
            assert!(e.get("ts").and_then(Json::as_f64).is_some());
            assert!(e.get("dur").and_then(Json::as_f64).is_some());
        }
    }
}

/// `scorpion audit --telemetry-csv` over a planted dump: the slow
/// (naive, plan-cache-miss) cell must surface in both the JSON document
/// (the `/debug/slow` shape) and the human rendering.
#[test]
fn audit_subcommand_explains_telemetry_dump() {
    use scorpion::obs::{CacheHit, TelemetryEvent};
    let events: Vec<TelemetryEvent> = (0..64u64)
        .map(|i| {
            let slow = i >= 48 && i % 2 == 0;
            let mut e = TelemetryEvent::blank(i + 1, "explain");
            e.table = "sensors".into();
            e.aggregate = "avg".into();
            e.status = 200;
            e.algorithm = if slow { "naive".into() } else { "dt".into() };
            e.plan_cache = if slow { CacheHit::Miss } else { CacheHit::Hit };
            e.total_us = if slow { 90_000 + i * 41 } else { 1_500 + i * 11 };
            e
        })
        .collect();
    let table = scorpion::core::events_to_table(&events).unwrap();
    let dir = std::env::temp_dir().join("scorpion_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("audit_dump.csv");
    std::fs::write(&path, scorpion::core::table_csv(&table).unwrap()).unwrap();

    let out = bin()
        .args(["audit", "--telemetry-csv", path.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = Json::parse(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap();
    assert_eq!(doc.get("outcome").and_then(Json::as_str), Some("explained"), "{doc:?}");
    assert_eq!(doc.get("events").and_then(Json::as_f64), Some(64.0));
    let predicate = doc
        .get("explanations")
        .and_then(Json::as_array)
        .and_then(|a| a.first())
        .and_then(|e| e.get("predicate"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no predicate in {doc:?}"));
    assert!(predicate.contains("naive") || predicate.contains("plan_cache"), "{predicate}");

    let out = bin().args(["audit", "--telemetry-csv", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("slow slices"), "{text}");
    assert!(text.contains("naive") || text.contains("plan_cache"), "{text}");
}

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The address a `scorpion serve` child bound, read from its first
/// stdout line: "scorpion-server listening on http://ADDR (..".
fn listening_addr(child: &mut Child) -> SocketAddr {
    let mut line = String::new();
    let mut stdout = child.stdout.take().unwrap();
    let mut buf = [0u8; 1];
    while stdout.read(&mut buf).unwrap() == 1 && buf[0] != b'\n' {
        line.push(buf[0] as char);
    }
    line.split("http://")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {line:?}"))
        .parse()
        .unwrap()
}

/// `scorpion serve --port 0` prints the bound address, serves
/// `/healthz` and `/explain`, and shuts down on SIGKILL without
/// leaving the port wedged.
#[test]
fn serve_subcommand_end_to_end() {
    let csv = sample_csv_path("serve.csv");
    let child = bin()
        .args([
            "serve",
            "--csv",
            &format!("planted={}", csv.display()),
            "--port",
            "0",
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut child = KillOnDrop(child);
    let addr = listening_addr(&mut child.0);

    let mut c = client::Client::connect(addr).unwrap();
    let (status, health) = c.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("tables").and_then(Json::as_f64), Some(1.0));

    let body = Json::obj([
        ("table", Json::from("planted")),
        ("sql", Json::from("SELECT avg(v) FROM planted GROUP BY g")),
        ("outliers", Json::arr(["o"])),
        ("holdouts", Json::arr(["h"])),
        ("c", Json::from(0.5)),
    ]);
    let (status, resp) = c.post("/explain", &body).unwrap();
    assert_eq!(status, 200, "{resp:?}");
    assert_eq!(resp.get("plan_cache").and_then(Json::as_str), Some("miss"));
    let (status, resp) = c.post("/explain", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(resp.get("plan_cache").and_then(Json::as_str), Some("hit"));
}

/// `--slow-ms 0` flags every request as slow: the stderr log line gets
/// the ` slow` marker and an inline `phases=` breakdown even without
/// `--access-log`.
#[test]
fn serve_slow_ms_logs_phase_breakdown() {
    let csv = sample_csv_path("slow.csv");
    let child = bin()
        .args([
            "serve",
            "--csv",
            &format!("planted={}", csv.display()),
            "--port",
            "0",
            "--workers",
            "2",
            "--slow-ms",
            "0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut child = KillOnDrop(child);
    let addr = listening_addr(&mut child.0);

    let mut c = client::Client::connect(addr).unwrap();
    let body = Json::obj([
        ("table", Json::from("planted")),
        ("sql", Json::from("SELECT avg(v) FROM planted GROUP BY g")),
        ("outliers", Json::arr(["o"])),
        ("holdouts", Json::arr(["h"])),
    ]);
    let (status, _) = c.post("/explain", &body).unwrap();
    assert_eq!(status, 200);
    drop(c);

    // Kill the server, then drain its stderr.
    let mut stderr = child.0.stderr.take().unwrap();
    let _ = child.0.kill();
    let _ = child.0.wait();
    let mut log = String::new();
    stderr.read_to_string(&mut log).unwrap();
    let slow_line = log
        .lines()
        .find(|l| l.contains("POST /explain") && l.contains(" slow"))
        .unwrap_or_else(|| panic!("no slow /explain line in stderr: {log}"));
    assert!(slow_line.contains("trace="), "{slow_line}");
    assert!(slow_line.contains("phases="), "{slow_line}");
    // The breakdown names real engine phases with elapsed times.
    assert!(slow_line.contains("ms"), "{slow_line}");
}

/// Process CPU time (user + system) of `pid` so far, in milliseconds,
/// from `/proc/<pid>/stat`.
#[cfg(target_os = "linux")]
fn cpu_ms(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15, in clock ticks.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..].split_whitespace().collect();
    let ticks: f64 = fields[11].parse::<f64>().unwrap() + fields[12].parse::<f64>().unwrap();
    let per_s = Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok()?.trim().parse::<f64>().ok())
        .unwrap_or(100.0);
    ticks * 1000.0 / per_s
}

/// Out of file descriptors, the server waits instead of spinning: the
/// listener stays readable while `accept` fails with EMFILE, so the
/// poller stops watching it until its next sweep. The limit is set in
/// the child alone (48 descriptors) and the test holds 60 connections:
/// the server may use at most 300 ms of CPU over 2 s, and `/healthz`
/// answers once the clients close.
#[cfg(target_os = "linux")]
#[test]
fn serve_does_not_spin_out_of_file_descriptors() {
    let csv = sample_csv_path("fd_limit.csv");
    let child = Command::new("sh")
        .args([
            "-c",
            "ulimit -n 48 && exec \"$0\" \"$@\"",
            env!("CARGO_BIN_EXE_scorpion"),
            "serve",
            "--csv",
            &format!("planted={}", csv.display()),
            "--port",
            "0",
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut child = KillOnDrop(child);
    let addr = listening_addr(&mut child.0);
    let held: Vec<std::net::TcpStream> =
        (0..60).map(|_| std::net::TcpStream::connect(addr).unwrap()).collect();
    // Let the poller take every descriptor it can before measuring.
    std::thread::sleep(Duration::from_millis(300));
    let pid = child.0.id();
    let before = cpu_ms(pid);
    std::thread::sleep(Duration::from_secs(2));
    let used = cpu_ms(pid) - before;
    assert!(used <= 300.0, "server used {used} ms of CPU in 2 s out of descriptors");

    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = client::Client::connect(addr).and_then(|mut c| c.get("/healthz"));
        match status {
            Ok((200, _)) => break,
            other => assert!(Instant::now() < deadline, "no /healthz 200 after close: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
