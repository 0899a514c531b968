//! `scorpion` — command-line outlier explanation over CSV data.
//!
//! The paper's motivation (§2) is putting analyst capabilities in
//! end-user hands; this binary is that flow without writing code:
//!
//! ```text
//! scorpion --csv readings.csv \
//!          --sql "SELECT stddev(temp) FROM readings GROUP BY hour" \
//!          --outliers h040,h041 --holdouts h000,h001 \
//!          --direction high --c 0.5 [--top 5] [--json]
//! ```
//!
//! Without `--outliers`, the most deviant results are auto-labeled.
//!
//! The same flow as a long-lived service (warm plan caches, shared
//! tables, concurrent sessions):
//!
//! ```text
//! scorpion serve --csv readings=readings.csv --port 7070 --workers 8
//! ```

use scorpion::prelude::*;
use scorpion::server::{audit_json, diagnostics_json, explanations_json, num_or_null, Json};
use scorpion::server::{Server, ServerConfig};
use scorpion::stream::{explain_latency, AuditConfig, AuditOutcome};
use std::process::exit;

/// `println!` that tolerates a closed pipe (`scorpion … | head`):
/// truncated output and exit 0 beat a broken-pipe panic.
macro_rules! out {
    ($($t:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($t)*);
    }};
}

/// `print!` variant of [`out!`].
macro_rules! outp {
    ($($t:tt)*) => {{
        use std::io::Write as _;
        let _ = write!(std::io::stdout(), $($t)*);
    }};
}

struct Args {
    csv: String,
    sql: String,
    outliers: Vec<String>,
    holdouts: Vec<String>,
    direction: f64,
    c: f64,
    lambda: f64,
    top: usize,
    json: bool,
    verbose: bool,
    trace: Option<String>,
    approx: Option<ApproxConfig>,
}

const HELP: &str = "usage: scorpion --csv FILE --sql QUERY [--outliers k1,k2,...] \
[--holdouts k1,k2,...] [--direction high|low] [--c F] [--lambda F] [--top N] [--json] \
[--verbose] [--trace FILE] [--approx] [--approx-rate F] [--approx-confidence F]\n\
       scorpion serve --csv NAME=FILE [--csv ...] [--port P] [--workers N] ...\n\
       scorpion audit --telemetry-csv FILE [--threshold Z] [--top N] [--json]\n\
\n\
QUERY is a select-project-group-by query with one aggregate, e.g.\n\
\"SELECT avg(temp) FROM readings WHERE sensor = 's3' GROUP BY hour\".\n\
Group keys (k1, k2, ...) use the values printed in the result listing;\n\
composite keys join parts with '|'. Without --outliers, the most\n\
deviant results are labeled automatically. --json prints the result\n\
series, explanations, and diagnostics as one JSON object. --verbose\n\
prints a per-phase timing table to stderr (composes with --json).\n\
--trace FILE writes a chrome://tracing span dump of the run.\n\
--approx enables the two-stage approximate influence search: a\n\
deterministic stratified sample prunes dominated candidates before\n\
exact scoring; the reported top predicates stay exactly scored and\n\
diagnostics gain approx_error_bound and candidates_pruned.\n\
--approx-rate F (in (0.0, 1.0], default 0.1) sets the per-group sample\n\
rate; --approx-confidence F (in (0.5, 1.0], default 0.95) the interval\n\
confidence. Either flag implies --approx.\n\
\n\
`scorpion serve` runs the explanation service (see `scorpion serve\n\
--help`). `scorpion audit` runs the engine over its own request\n\
telemetry (a `GET /debug/telemetry?format=csv` dump) and names the\n\
request attributes that explain the latency outliers (see `scorpion\n\
audit --help`). For continuous monitoring over a live feed, see the\n\
scorpion-stream crate and `cargo run --release --example\n\
streaming_monitor`.";

const SERVE_HELP: &str = "usage: scorpion serve [--csv NAME=FILE]... [--port P] [--host H] \
[--workers N] [--queue N] [--plan-cache N] [--influence-cache-entries N] [--access-log] \
[--slow-ms MS] [--telemetry-events N] [--trace-dir DIR] [--deadline-ms MS] \
[--read-timeout-ms MS] [--write-timeout-ms MS] [--idle-timeout-ms MS]\n\
\n\
Serves outlier explanations over HTTP/1.1 JSON:\n\
  POST /explain   {table, sql, outliers|auto_label, holdouts, lambda, c,\n\
                   top, algorithm, approx, approx_rate, approx_confidence}\n\
                  -> ranked predicates + diagnostics\n\
  GET  /tables    registered tables (name, generation, rows)\n\
  POST /tables    {name, csv} -> load/replace a table\n\
  GET  /healthz   liveness\n\
  GET  /stats     plan-cache hits, queue depth, per-endpoint latency\n\
  GET  /metrics   Prometheus text exposition (latency histograms,\n\
                  counters, build info)\n\
  GET  /debug/telemetry   the flight-recorder ring (JSON; ?format=csv\n\
                  is the dump `scorpion audit` reads)\n\
  GET  /debug/slow        the engine explains the service's own latency\n\
                  outliers [?threshold=Z] [?top=N]\n\
\n\
--csv NAME=FILE registers FILE under NAME at startup (bare FILE uses\n\
the file stem). --port 0 picks an ephemeral port; the bound address is\n\
printed on stdout. --workers 0 (default) uses all cores. Repeated\n\
/explain calls for the same query and labels at a new c reuse the\n\
cached prepared plan (the paper's 8.3.3 cache, served warm).\n\
--access-log prints one line per request to stderr (method, path,\n\
status, duration, trace id). --slow-ms MS also logs any request at or\n\
over MS milliseconds with its top-3 phases inline (works without\n\
--access-log). --telemetry-events N sizes the flight-recorder ring\n\
(default 4096; 0 disables it). --trace-dir DIR dumps a chrome://tracing\n\
span file per /explain into DIR.\n\
\n\
Workers handle in-flight requests, not open sockets: idle keep-alive\n\
connections park on a readiness poller at zero worker cost.\n\
--deadline-ms MS caps each /explain's wall clock (0 = off, default);\n\
the x-scorpion-deadline-ms request header overrides it per request.\n\
At the deadline the mc/naive engines answer with their best-so-far\n\
result, HTTP 504, and deadline_exceeded: true (dt is uninterruptible).\n\
--read-timeout-ms MS closes connections stuck mid-request with 408\n\
(default 10000). --write-timeout-ms MS drops peers that stop draining\n\
their response (default 10000). --idle-timeout-ms MS reaps parked\n\
keep-alive connections (default 60000).";

const AUDIT_HELP: &str = "usage: scorpion audit --telemetry-csv FILE [--threshold Z] [--top N] \
[--json]\n\
\n\
Self-explain: runs the Scorpion engine over the service's own request\n\
telemetry. FILE is a flight-recorder dump — save one with\n\
  curl 'http://HOST:PORT/debug/telemetry?format=csv' > telemetry.csv\n\
\n\
The audit groups requests into arrival-order slices, aggregates\n\
avg(latency_ms) per slice, flags slow slices with a median/MAD detector\n\
(--threshold Z, default 3.5), and searches the request dimensions\n\
(endpoint, algorithm, cache hits, ...) for the predicate whose deletion\n\
best explains the spike — e.g. `algorithm in {naive} AND plan_cache in\n\
{miss}`. --json emits the same document shape as GET /debug/slow.";

/// Prints help, tolerating a closed pipe (`scorpion --help | head`):
/// exiting 0 with truncated output beats a broken-pipe panic.
fn help(text: &str) -> ! {
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout(), "{text}");
    exit(0)
}

fn usage(text: &str) -> ! {
    use std::io::Write as _;
    let _ = writeln!(std::io::stderr(), "{text}");
    exit(2)
}

fn parse_args(it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        csv: String::new(),
        sql: String::new(),
        outliers: Vec::new(),
        holdouts: Vec::new(),
        direction: 1.0,
        c: 0.5,
        lambda: 0.5,
        top: 3,
        json: false,
        verbose: false,
        trace: None,
        approx: None,
    };
    let mut it = it;
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage(HELP)
            })
        };
        match flag.as_str() {
            "--csv" => args.csv = val("--csv"),
            "--sql" => args.sql = val("--sql"),
            "--outliers" => {
                args.outliers = val("--outliers").split(',').map(str::to_owned).collect()
            }
            "--holdouts" => {
                args.holdouts = val("--holdouts").split(',').map(str::to_owned).collect()
            }
            "--direction" => {
                args.direction = match val("--direction").as_str() {
                    "high" => 1.0,
                    "low" => -1.0,
                    other => {
                        eprintln!("--direction must be `high` or `low`, got `{other}`");
                        usage(HELP)
                    }
                }
            }
            "--c" => args.c = val("--c").parse().unwrap_or_else(|_| usage(HELP)),
            "--lambda" => args.lambda = val("--lambda").parse().unwrap_or_else(|_| usage(HELP)),
            "--top" => args.top = val("--top").parse().unwrap_or_else(|_| usage(HELP)),
            "--json" => args.json = true,
            "--verbose" => args.verbose = true,
            "--trace" => args.trace = Some(val("--trace")),
            "--approx" => {
                args.approx.get_or_insert_with(ApproxConfig::default);
            }
            "--approx-rate" => {
                // Unparseable values become NaN, which validate()
                // rejects below with the range-naming message.
                let rate = val("--approx-rate").parse().unwrap_or(f64::NAN);
                args.approx.get_or_insert_with(ApproxConfig::default).sample_rate = rate;
            }
            "--approx-confidence" => {
                let conf = val("--approx-confidence").parse().unwrap_or(f64::NAN);
                args.approx.get_or_insert_with(ApproxConfig::default).confidence = conf;
            }
            "--help" | "-h" => help(HELP),
            other => {
                eprintln!("unknown flag `{other}`");
                usage(HELP)
            }
        }
    }
    if args.csv.is_empty() || args.sql.is_empty() {
        usage(HELP);
    }
    if let Some(a) = &args.approx {
        if let Err(msg) = a.validate() {
            eprintln!("{msg}");
            exit(2);
        }
    }
    if let Err(e) = InfluenceParams::new(args.lambda, args.c).validate() {
        eprintln!("{e}");
        exit(2);
    }
    args
}

struct ServeArgs {
    tables: Vec<(String, String)>,
    config: ServerConfig,
}

fn parse_serve_args(it: impl Iterator<Item = String>) -> ServeArgs {
    let mut args = ServeArgs { tables: Vec::new(), config: ServerConfig::default() };
    let mut it = it;
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage(SERVE_HELP)
            })
        };
        let num = |name: &str, v: String| -> usize {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad numeric value for {name}: `{v}`");
                usage(SERVE_HELP)
            })
        };
        match flag.as_str() {
            "--csv" => {
                let spec = val("--csv");
                let (name, path) = match spec.split_once('=') {
                    Some((n, p)) => (n.to_owned(), p.to_owned()),
                    None => {
                        let stem = std::path::Path::new(&spec)
                            .file_stem()
                            .map(|s| s.to_string_lossy().into_owned())
                            .unwrap_or_else(|| spec.clone());
                        (stem, spec)
                    }
                };
                args.tables.push((name, path));
            }
            "--port" => {
                // Parse as u16 directly so out-of-range ports error
                // instead of silently wrapping.
                let v = val("--port");
                args.config.port = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad port `{v}` (expected 0-65535)");
                    usage(SERVE_HELP)
                })
            }
            "--host" => args.config.host = val("--host"),
            "--workers" => args.config.workers = num("--workers", val("--workers")),
            "--queue" => args.config.queue_depth = num("--queue", val("--queue")),
            "--plan-cache" => {
                args.config.plan_cache_entries = num("--plan-cache", val("--plan-cache"))
            }
            "--influence-cache-entries" => {
                args.config.influence_cache_entries =
                    num("--influence-cache-entries", val("--influence-cache-entries"))
            }
            "--access-log" => args.config.access_log = true,
            "--slow-ms" => args.config.slow_ms = Some(num("--slow-ms", val("--slow-ms")) as u64),
            "--telemetry-events" => {
                args.config.telemetry_events = num("--telemetry-events", val("--telemetry-events"))
            }
            "--trace-dir" => {
                args.config.trace_dir = Some(std::path::PathBuf::from(val("--trace-dir")))
            }
            "--deadline-ms" => {
                args.config.deadline_ms = num("--deadline-ms", val("--deadline-ms")) as u64
            }
            "--read-timeout-ms" => {
                args.config.read_timeout_ms =
                    num("--read-timeout-ms", val("--read-timeout-ms")) as u64
            }
            "--write-timeout-ms" => {
                args.config.write_timeout_ms =
                    num("--write-timeout-ms", val("--write-timeout-ms")) as u64
            }
            "--idle-timeout-ms" => {
                args.config.idle_timeout_ms =
                    num("--idle-timeout-ms", val("--idle-timeout-ms")) as u64
            }
            "--help" | "-h" => help(SERVE_HELP),
            other => {
                eprintln!("unknown flag `{other}`");
                usage(SERVE_HELP)
            }
        }
    }
    args
}

fn serve_main(it: impl Iterator<Item = String>) -> ! {
    let args = parse_serve_args(it);
    let server = match Server::bind(&args.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {}:{}: {e}", args.config.host, args.config.port);
            exit(1)
        }
    };
    let state = server.state();
    for (name, path) in &args.tables {
        match scorpion::table::csv::load_csv(std::path::Path::new(path)) {
            Ok(t) => {
                let rows = t.len();
                let generation = state.registry.insert(name.clone(), t);
                eprintln!("loaded `{name}` from {path}: {rows} rows (generation {generation})");
            }
            Err(e) => {
                eprintln!("failed to load {path}: {e}");
                exit(1)
            }
        }
    }
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("failed to read bound address: {e}");
            exit(1)
        }
    };
    {
        // Announce the bound address on stdout (scripts parse this —
        // notably with --port 0) and tolerate a closed pipe.
        use std::io::Write as _;
        let mut out = std::io::stdout();
        let _ = writeln!(
            out,
            "scorpion-server listening on http://{addr} ({} tables)",
            state.registry.len()
        );
        let _ = out.flush();
    }
    match server.run() {
        Ok(()) => exit(0),
        Err(e) => {
            eprintln!("server error: {e}");
            exit(1)
        }
    }
}

struct AuditArgs {
    csv: String,
    threshold: f64,
    top: usize,
    json: bool,
}

fn parse_audit_args(it: impl Iterator<Item = String>) -> AuditArgs {
    let mut args = AuditArgs { csv: String::new(), threshold: 3.5, top: 3, json: false };
    let mut it = it;
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage(AUDIT_HELP)
            })
        };
        match flag.as_str() {
            "--telemetry-csv" => args.csv = val("--telemetry-csv"),
            "--threshold" => {
                let v = val("--threshold");
                args.threshold = v.parse().ok().filter(|z: &f64| *z > 0.0).unwrap_or_else(|| {
                    eprintln!("bad --threshold `{v}` (expected a positive number)");
                    usage(AUDIT_HELP)
                })
            }
            "--top" => args.top = val("--top").parse().unwrap_or_else(|_| usage(AUDIT_HELP)),
            "--json" => args.json = true,
            "--help" | "-h" => help(AUDIT_HELP),
            other => {
                eprintln!("unknown flag `{other}`");
                usage(AUDIT_HELP)
            }
        }
    }
    if args.csv.is_empty() {
        usage(AUDIT_HELP);
    }
    args
}

/// `scorpion audit`: the self-explain pipeline over an offline
/// flight-recorder dump — the same [`explain_latency`] call behind
/// `GET /debug/slow`, pointed at a CSV instead of the live ring.
fn audit_main(it: impl Iterator<Item = String>) -> ! {
    let args = parse_audit_args(it);
    let text = match std::fs::read_to_string(&args.csv) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to read {}: {e}", args.csv);
            exit(1)
        }
    };
    let table = match scorpion::core::telemetry_table_from_csv(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("telemetry CSV rejected: {e}");
            exit(1)
        }
    };
    let cfg = AuditConfig { threshold: args.threshold, ..AuditConfig::default() };
    let audit = match explain_latency(&table, &cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("audit failed: {e}");
            exit(1)
        }
    };

    if args.json {
        match audit_json(&audit, cfg.min_events, args.top).encode() {
            Ok(text) => out!("{text}"),
            Err(e) => {
                eprintln!("JSON encoding failed: {e}");
                exit(1)
            }
        }
        exit(0)
    }

    out!("audited {} request events (threshold {})", audit.events, audit.threshold);
    match &audit.outcome {
        AuditOutcome::TooFewEvents => {
            out!("too few events for a verdict (need at least {})", cfg.min_events);
        }
        AuditOutcome::NoOutliers { center_ms, scale_ms } => {
            out!(
                "latency is uniform: center {center_ms:.2}ms, scale {scale_ms:.2}ms — \
                 no slow slices"
            );
        }
        AuditOutcome::Explained(report) => {
            out!("slow slices (center {:.2}ms, scale {:.2}ms):", report.center_ms, report.scale_ms);
            for (key, ms) in &report.slow {
                out!("  {key:<8} avg {ms:.2}ms");
            }
            out!("\nwhat explains the slow slices:");
            outp!("{}", report.explanation.render(&report.table, args.top));
        }
    }
    exit(0)
}

/// Prints the per-phase timing table from [`Diagnostics::phases`] to
/// stderr (so it composes with `--json` on stdout). Phases nest —
/// `prepare` contains `dt.*`, `run.score` contains `scorer.*` — so the
/// totals row is a sum of attributed time, not wall time.
fn phase_table(d: &Diagnostics) {
    use std::io::Write as _;
    let stderr = std::io::stderr();
    let mut w = stderr.lock();
    if d.phases.is_empty() {
        let _ = writeln!(w, "\nno phase timings attributed");
        return;
    }
    let name_w = d.phases.iter().map(|p| p.name.len()).max().unwrap_or(5).max("TOTAL".len());
    let _ = writeln!(w, "\n{:<name_w$}  {:>10}  {:>8}", "phase", "ms", "count");
    let mut total_ms = 0.0;
    let mut total_count = 0u64;
    for p in &d.phases {
        let _ = writeln!(w, "{:<name_w$}  {:>10.3}  {:>8}", p.name, p.millis(), p.count);
        total_ms += p.millis();
        total_count += p.count;
    }
    let _ = writeln!(w, "{:<name_w$}  {:>10.3}  {:>8}", "TOTAL", total_ms, total_count);
    let _ = writeln!(
        w,
        "(phases nest; attributed total can exceed the {:.3}ms wall time)",
        d.runtime.as_secs_f64() * 1000.0
    );
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("serve") {
        argv.next();
        serve_main(argv);
    }
    if argv.peek().map(String::as_str) == Some("audit") {
        argv.next();
        audit_main(argv);
    }
    let args = parse_args(argv);
    let table = match scorpion::table::csv::load_csv(std::path::Path::new(&args.csv)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to load {}: {e}", args.csv);
            exit(1)
        }
    };
    let builder = match Scorpion::on(table).sql(&args.sql) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("query failed: {e}");
            exit(1)
        }
    };

    if !args.json {
        out!("{}", args.sql.trim());
        for (i, v) in builder.results().iter().enumerate() {
            out!("  {:<16} {v:.3}", builder.display_key(i));
        }
    }

    let builder = if args.outliers.is_empty() {
        let builder = builder.auto_label(2);
        if !args.json {
            out!(
                "\nauto-labeled outliers: {}",
                builder
                    .outlier_labels()
                    .iter()
                    .map(|&(i, _)| builder.display_key(i))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        builder
    } else {
        let key_index = |b: &RequestBuilder, k: &str| {
            b.index_of_key(k).unwrap_or_else(|| {
                eprintln!("unknown result key `{k}`");
                exit(1)
            })
        };
        let mut o = Vec::new();
        for k in &args.outliers {
            o.push((key_index(&builder, k), args.direction));
        }
        let mut h = Vec::new();
        for k in &args.holdouts {
            h.push(key_index(&builder, k));
        }
        builder.outliers(o).holdouts(h)
    };

    // Kept for the JSON rendering of the result series.
    let results = builder.results().to_vec();
    let display_keys: Vec<String> = (0..builder.len()).map(|i| builder.display_key(i)).collect();

    let mut builder = builder.params(args.lambda, args.c);
    if let Some(a) = args.approx {
        builder = builder.approx(a);
    }
    let request = match builder.build() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("labeling failed: {e}");
            exit(1)
        }
    };
    if args.trace.is_some() {
        scorpion::obs::recorder().enable();
    }
    // Draw from the same process-wide trace-id sequence as the server
    // and the stream sessions, so this run's diagnostics correlate.
    let trace_id = scorpion::obs::next_trace_id();
    let mut ex = match request.explain() {
        Ok(ex) => ex,
        Err(e) => {
            eprintln!("explanation failed: {e}");
            exit(1)
        }
    };
    ex.diagnostics.trace_id = trace_id;
    if scorpion::obs::telemetry().enabled() {
        let mut event = scorpion::obs::TelemetryEvent::blank(trace_id, "cli.explain");
        event.table = std::path::Path::new(&args.csv)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| args.csv.clone());
        event.aggregate = request.aggregate().name().to_owned();
        event.rows_scanned = request.table().len() as u64;
        event.predicates = ex.predicates.len() as u64;
        event.status = 200;
        event.total_us = ex.diagnostics.runtime.as_micros() as u64;
        scorpion::obs::telemetry()
            .record(scorpion::core::apply_diagnostics(event, &ex.diagnostics));
    }
    if let Some(path) = &args.trace {
        let spans = scorpion::obs::recorder().drain();
        match scorpion::obs::write_chrome_trace(std::path::Path::new(path), &spans) {
            Ok(()) => eprintln!("wrote {} spans to {path} (open in chrome://tracing)", spans.len()),
            Err(e) => {
                eprintln!("failed to write trace {path}: {e}");
                exit(1)
            }
        }
    }
    if args.verbose {
        phase_table(&ex.diagnostics);
    }

    if args.json {
        let series: Vec<Json> = display_keys
            .iter()
            .zip(&results)
            .map(|(k, &v)| Json::obj([("key", Json::from(k.as_str())), ("value", num_or_null(v))]))
            .collect();
        let doc = Json::obj([
            ("sql", Json::from(args.sql.trim())),
            ("results", Json::Arr(series)),
            ("algorithm", Json::from(ex.diagnostics.algorithm)),
            ("explanations", explanations_json(request.table(), &ex.predicates, args.top)),
            ("diagnostics", diagnostics_json(&ex.diagnostics)),
        ]);
        match doc.encode() {
            Ok(text) => {
                use std::io::Write as _;
                let _ = writeln!(std::io::stdout(), "{text}");
            }
            Err(e) => {
                eprintln!("JSON encoding failed: {e}");
                exit(1)
            }
        }
        return;
    }

    out!(
        "\nexplanations [{}; {} scorer calls; {:.2}s]:",
        ex.diagnostics.algorithm,
        ex.diagnostics.scorer_calls,
        ex.diagnostics.runtime.as_secs_f64()
    );
    outp!("{}", ex.render(request.table(), args.top));

    let preview = ex
        .preview(
            request.table(),
            request.grouping(),
            request.aggregate().as_ref(),
            request.agg_attr(),
        )
        .expect("preview");
    out!("\nresult series with the top explanation deleted:");
    for (i, (before, after)) in preview.iter().enumerate() {
        let marker = if (before - after).abs() > 1e-9 { "  *" } else { "" };
        out!(
            "  {:<16} {before:.3} -> {after:.3}{marker}",
            request.grouping().display_key(request.table(), i)
        );
    }
}
