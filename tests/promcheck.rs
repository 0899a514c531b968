//! `promcheck` accepts a well-formed Prometheus text exposition and
//! rejects a broken one with exit code 1 and a diagnostic naming the
//! fault.

use std::io::Write;
use std::process::{Command, Stdio};

/// A valid exposition: a counter, a gauge, and a labeled histogram.
const VALID: &str = "\
# HELP scorpion_requests_total Requests served.
# TYPE scorpion_requests_total counter
scorpion_requests_total{endpoint=\"explain\"} 3
# HELP scorpion_parked_connections Connections parked on the poller.
# TYPE scorpion_parked_connections gauge
scorpion_parked_connections 0
# HELP scorpion_latency_seconds Request latency.
# TYPE scorpion_latency_seconds histogram
scorpion_latency_seconds_bucket{endpoint=\"explain\",le=\"0.001\"} 1
scorpion_latency_seconds_bucket{endpoint=\"explain\",le=\"0.01\"} 2
scorpion_latency_seconds_bucket{endpoint=\"explain\",le=\"+Inf\"} 3
scorpion_latency_seconds_sum{endpoint=\"explain\"} 0.0125
scorpion_latency_seconds_count{endpoint=\"explain\"} 3
";

/// Runs `promcheck` on `input`; returns its exit code and stderr.
fn promcheck(input: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_promcheck"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn promcheck");
    child.stdin.take().unwrap().write_all(input.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn valid_exposition_passes() {
    let (code, err) = promcheck(VALID);
    assert_eq!(code, Some(0), "{err}");
}

#[test]
fn broken_expositions_fail() {
    let broken = [
        (
            "non-cumulative buckets",
            VALID.replace(r#"le="0.01"} 2"#, r#"le="0.01"} 0"#),
            "not cumulative",
        ),
        (
            "+Inf bucket differs from _count",
            VALID.replace(r#"_count{endpoint="explain"} 3"#, r#"_count{endpoint="explain"} 4"#),
            "!= _count",
        ),
        (
            "family without # HELP",
            VALID.replace(
                "# HELP scorpion_parked_connections Connections parked on the poller.\n",
                "",
            ),
            "no # HELP",
        ),
        ("empty input", String::new(), "empty exposition"),
    ];
    for (case, input, expect) in broken {
        assert_ne!(input, VALID, "{case}: the fault was not injected");
        let (code, err) = promcheck(&input);
        assert_eq!(code, Some(1), "{case}: {err}");
        assert!(err.contains(expect), "{case}: stderr must name the fault, got: {err}");
    }
}
