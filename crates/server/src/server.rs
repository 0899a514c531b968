//! The service: configuration, routing, and the `/explain` handler.
//! The transport layer — readiness poller, parked connections, worker
//! dispatch — lives in `crate::poller`.

use crate::cache::{PlanCache, PlanEntry, PlanKey};
use crate::http::{error_response, Request, Response};
use crate::json::Json;
use crate::poller::{Poller, PollerConfig};
use crate::pool::{PoolGauges, WorkerPool};
use crate::registry::{TableEntry, TableRegistry};
use crate::render::{diagnostics_json, explanations_json, num_or_null};
use crate::stats::{Endpoint, ServerStats};
use scorpion_core::{
    Algorithm, ApproxConfig, DtConfig, InfluenceParams, McConfig, NaiveConfig, ScorpionSession,
};
use scorpion_obs::{CacheHit, PromText, TelemetryEvent};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The response header carrying the per-request trace id.
pub const TRACE_ID_HEADER: &str = "x-scorpion-trace-id";

/// The request header carrying a per-request deadline in milliseconds
/// (from the moment the request was fully parsed). `0` disables the
/// server's default deadline for this request. Anytime engines (MC,
/// NAIVE) return their best-so-far answer at the deadline with HTTP 504
/// and `deadline_exceeded: true` in the body; DT runs to completion and
/// only the status reflects the overrun.
pub const DEADLINE_HEADER: &str = "x-scorpion-deadline-ms";

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1` by default). Port `0` binds an
    /// ephemeral port — read the actual one from
    /// [`Server::local_addr`].
    pub host: String,
    /// TCP port.
    pub port: u16,
    /// Worker threads (`0` = available parallelism).
    pub workers: usize,
    /// Backpressure queue depth: connections accepted but not yet
    /// picked up by a worker before the server starts shedding with
    /// 503s.
    pub queue_depth: usize,
    /// Write one access-log line per request to stderr.
    pub access_log: bool,
    /// Requests at or above this many milliseconds get an access-log
    /// line with a `slow` marker and the top-3 phases inline — emitted
    /// even when the full access log is off.
    pub slow_ms: Option<u64>,
    /// Flight-recorder ring capacity in events (`0` leaves the recorder
    /// off). The first enable in the process fixes the capacity.
    pub telemetry_events: usize,
    /// When set, enable the span recorder and dump a Chrome-trace JSON
    /// file per `/explain` request into this directory.
    pub trace_dir: Option<PathBuf>,
    /// Default per-request deadline in milliseconds (`0` = none). A
    /// request's [`DEADLINE_HEADER`] overrides it either way.
    pub deadline_ms: u64,
    /// How long a connection may sit mid-request (bytes buffered, no
    /// complete request) before it is closed with 408 — the slowloris
    /// bound.
    pub read_timeout_ms: u64,
    /// How long a parked keep-alive connection may idle between
    /// requests before it is silently closed.
    pub idle_timeout_ms: u64,
    /// Socket write timeout for responses: a peer that stops draining
    /// its receive window for this long gets dropped.
    pub write_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".into(),
            port: 7070,
            workers: 0,
            queue_depth: 64,
            access_log: false,
            slow_ms: None,
            telemetry_events: scorpion_obs::DEFAULT_TELEMETRY_EVENTS,
            trace_dir: None,
            deadline_ms: 0,
            read_timeout_ms: 10_000,
            idle_timeout_ms: 60_000,
            write_timeout_ms: 10_000,
        }
    }
}

/// Shared, thread-safe service state: the tables, the warm plans, and
/// the counters. Cheap to clone behind the server's `Arc`.
pub struct ServerState {
    /// Named table snapshots.
    pub registry: TableRegistry,
    /// Warm sessions keyed by (table, SQL, labels, algorithm), each
    /// built at the table generation it records; at most 256.
    pub plans: PlanCache,
    /// Request/latency counters.
    pub stats: ServerStats,
    access_log: bool,
    slow_ms: Option<u64>,
    deadline_ms: u64,
    trace_dir: Option<PathBuf>,
    pool: std::sync::OnceLock<PoolGauges>,
}

impl ServerState {
    /// Fresh state under `cfg`'s access log, slow-request threshold,
    /// trace directory and default deadline. A trace directory also
    /// turns the global span recorder on.
    pub fn new(cfg: &ServerConfig) -> Self {
        if cfg.trace_dir.is_some() {
            scorpion_obs::recorder().enable();
        }
        ServerState {
            registry: TableRegistry::new(),
            plans: PlanCache::default(),
            stats: ServerStats::new(),
            access_log: cfg.access_log,
            slow_ms: cfg.slow_ms,
            deadline_ms: cfg.deadline_ms,
            trace_dir: cfg.trace_dir.clone(),
            pool: std::sync::OnceLock::new(),
        }
    }

    pub(crate) fn access_log(&self) -> bool {
        self.access_log
    }

    pub(crate) fn slow_ms(&self) -> Option<u64> {
        self.slow_ms
    }
}

/// The bound, not-yet-running service.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    pool: WorkerPool,
    stop: Arc<AtomicBool>,
    poller_cfg: PollerConfig,
}

impl Server {
    /// Binds the listener and spawns the worker pool.
    pub fn bind(cfg: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))?;
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            cfg.workers
        };
        let pool = WorkerPool::new(workers, cfg.queue_depth);
        if let Some(dir) = &cfg.trace_dir {
            std::fs::create_dir_all(dir)?;
        }
        if cfg.telemetry_events > 0 {
            scorpion_obs::telemetry().enable_with_capacity(cfg.telemetry_events);
        }
        let state = Arc::new(ServerState::new(cfg));
        let _ = state.pool.set(pool.gauges());
        // A zero timeout would close every connection on the first
        // sweep; treat it as "use the default".
        let defaults = ServerConfig::default();
        let ms = |v: u64, default: u64| Duration::from_millis(if v == 0 { default } else { v });
        let poller_cfg = PollerConfig {
            read_timeout: ms(cfg.read_timeout_ms, defaults.read_timeout_ms),
            idle_timeout: ms(cfg.idle_timeout_ms, defaults.idle_timeout_ms),
            write_timeout: ms(cfg.write_timeout_ms, defaults.write_timeout_ms),
        };
        Ok(Server { listener, state, pool, stop: Arc::new(AtomicBool::new(false)), poller_cfg })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state — register tables here before (or while)
    /// serving.
    pub fn state(&self) -> Arc<ServerState> {
        self.state.clone()
    }

    /// Serves until [`ServerHandle::stop`] is called (when spawned) or
    /// the process exits.
    ///
    /// The serving core is request-grained: a readiness poller owns the
    /// listener and every idle keep-alive connection, and hands each
    /// *complete parsed request* to the worker pool — so size `workers`
    /// for expected concurrent requests, not open sockets; hundreds of
    /// parked dashboards cost file descriptors, never workers. When the
    /// pool is saturated the request is shed with an immediate 503
    /// (attributed to its endpoint in `/stats`), slow clients are
    /// bounded by the read/write timeouts (408/close), and idle parked
    /// connections are reaped after the idle timeout.
    pub fn run(self) -> std::io::Result<()> {
        Poller::new(self.listener, self.state, self.pool, self.stop, self.poller_cfg).run()
    }

    /// Runs the accept loop on a background thread, returning a handle
    /// for tests, benches, and embedding.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = self.state.clone();
        let stop = self.stop.clone();
        let thread =
            std::thread::Builder::new().name("scorpion-acceptor".into()).spawn(move || {
                let _ = self.run();
            })?;
        Ok(ServerHandle { addr, state, stop, thread: Some(thread) })
    }
}

/// Handle to a spawned server.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared state (register tables, read stats).
    pub fn state(&self) -> Arc<ServerState> {
        self.state.clone()
    }

    /// Stops the accept loop and joins it (the `Drop` impl does the
    /// work; this method just makes the intent explicit at call sites).
    /// In-flight worker jobs finish in the background.
    pub fn stop(self) {}
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Per-request transport context the poller hands to the router.
pub struct RequestContext {
    /// Microseconds the parsed request waited for a worker.
    pub queue_wait_us: u64,
    /// When the request was fully parsed off the socket — deadlines
    /// count from here, so queue wait burns deadline budget.
    pub received_at: Instant,
}

impl RequestContext {
    /// A context for in-process dispatch (no socket, no queue wait).
    pub fn immediate() -> RequestContext {
        RequestContext { queue_wait_us: 0, received_at: Instant::now() }
    }
}

/// One stderr line per handled request: `method path status duration_ms
/// trace_id`. Requests over the `--slow-ms` threshold get a ` slow`
/// marker plus their top-3 phases by elapsed time inline, so a single
/// grep of the log explains *where* a slow request spent its time.
/// Write errors (e.g. a closed stderr pipe) are swallowed — logging
/// must never take the service down.
pub(crate) fn access_log_line(
    req: &Request,
    resp: &Response,
    elapsed: Duration,
    slow: bool,
    event: Option<&TelemetryEvent>,
) {
    let trace_id = resp
        .headers
        .iter()
        .find(|(n, _)| n == TRACE_ID_HEADER)
        .map(|(_, v)| v.as_str())
        .unwrap_or("-");
    let mut line = format!(
        "{} {} {} {:.1}ms trace={}",
        req.method,
        req.path,
        resp.status,
        elapsed.as_secs_f64() * 1000.0,
        trace_id,
    );
    if slow {
        line.push_str(" slow");
        if let Some(top) = event.map(|e| e.top_phases(3)).filter(|t| !t.is_empty()) {
            line.push_str(" phases=");
            for (i, (name, us)) in top.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{name}:{:.1}ms", *us as f64 / 1000.0));
            }
        }
    }
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{line}");
}

/// Routes one request. Public so embedders (and the bench's in-process
/// mode) can exercise handlers without sockets. Every response carries
/// an `x-scorpion-trace-id` header unique to this request. When the
/// flight recorder is on, the request's telemetry event is recorded
/// before returning ([`dispatch_recorded`] lets the socket path defer
/// that write until after the response is on the wire).
pub fn dispatch(req: &Request, state: &ServerState) -> (Endpoint, Response) {
    let (endpoint, resp, event) = dispatch_recorded(req, state, &RequestContext::immediate());
    if let Some(event) = event {
        scorpion_obs::telemetry().record(event);
    }
    (endpoint, resp)
}

/// Resolves the request's absolute deadline: [`DEADLINE_HEADER`]
/// (strictly parsed, `0` disables) overrides the server default, which
/// also treats `0` as "none". Errs with the 400 message for a
/// malformed header.
fn request_deadline(
    req: &Request,
    state: &ServerState,
    ctx: &RequestContext,
) -> Result<Option<Instant>, String> {
    let ms = match req.header(DEADLINE_HEADER) {
        Some(v) => v.parse::<u64>().map_err(|_| {
            format!("bad {DEADLINE_HEADER}: expected whole milliseconds, got `{v}`")
        })?,
        None => state.deadline_ms,
    };
    if ms == 0 {
        return Ok(None);
    }
    // Saturate absurd values (u64::MAX ms overflows Instant) to "none".
    Ok(ctx.received_at.checked_add(Duration::from_millis(ms)))
}

/// Routes one request and assembles — but does not record — its
/// flight-recorder event. The event is `Some` when the recorder is
/// enabled or a slow-request threshold needs phase attribution; the
/// caller owns the ring write, so it can happen off the
/// response-latency critical path.
pub fn dispatch_recorded(
    req: &Request,
    state: &ServerState,
    ctx: &RequestContext,
) -> (Endpoint, Response, Option<TelemetryEvent>) {
    let trace_id = state.stats.next_trace_id();
    let want_event = scorpion_obs::telemetry().enabled() || state.slow_ms.is_some();
    let started = Instant::now();
    let mut explain_event = None;
    let (endpoint, mut resp) = match request_deadline(req, state, ctx) {
        // A malformed deadline is the *request's* fault, attributed to
        // the endpoint it targeted.
        Err(msg) => (Endpoint::of(&req.method, &req.path), error_response(400, &msg)),
        Ok(deadline) => match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => (Endpoint::Healthz, handle_healthz(state)),
            ("GET", "/tables") => (Endpoint::Tables, handle_tables_get(state)),
            ("POST", "/tables") => (Endpoint::Tables, respond(handle_tables_post(req, state))),
            ("POST", "/explain") => {
                let resp = match handle_explain(req, state, trace_id, deadline) {
                    Ok((resp, event)) => {
                        explain_event = event;
                        resp
                    }
                    Err(resp) => resp,
                };
                (Endpoint::Explain, resp)
            }
            ("GET", "/stats") => (Endpoint::Stats, handle_stats(state)),
            ("GET", "/metrics") => (Endpoint::Metrics, handle_metrics(state)),
            ("GET", "/debug/telemetry") => (Endpoint::Debug, crate::debug::handle_telemetry(req)),
            ("GET", "/debug/slow") => (Endpoint::Debug, crate::debug::handle_slow(req)),
            (
                _,
                "/healthz" | "/tables" | "/explain" | "/stats" | "/metrics" | "/debug/telemetry"
                | "/debug/slow",
            ) => (Endpoint::Other, error_response(405, "method not allowed")),
            _ => (Endpoint::Other, error_response(404, "no such endpoint")),
        },
    };
    resp.headers.push((TRACE_ID_HEADER.to_owned(), trace_id.to_string()));
    let event = want_event.then(|| {
        let mut event =
            explain_event.unwrap_or_else(|| TelemetryEvent::blank(trace_id, endpoint.label()));
        event.trace_id = trace_id;
        event.status = resp.status;
        event.queue_wait_us = ctx.queue_wait_us;
        event.total_us = started.elapsed().as_micros() as u64;
        event
    });
    (endpoint, resp, event)
}

fn respond(r: Result<Response, Response>) -> Response {
    r.unwrap_or_else(|e| e)
}

fn ok_json(value: &Json) -> Response {
    json_response(200, value)
}

fn json_response(status: u16, value: &Json) -> Response {
    match value.encode() {
        Ok(body) => Response::json(status, body),
        Err(e) => error_response(500, &format!("response encoding failed: {e}")),
    }
}

fn handle_healthz(state: &ServerState) -> Response {
    ok_json(&Json::obj([
        ("status", Json::from("ok")),
        ("uptime_secs", Json::from(state.stats.uptime().as_secs())),
        ("tables", Json::from(state.registry.len())),
    ]))
}

fn handle_tables_get(state: &ServerState) -> Response {
    let tables: Vec<Json> = state
        .registry
        .list()
        .into_iter()
        .map(|(name, e)| {
            Json::obj([
                ("name", Json::from(name)),
                ("generation", Json::from(e.generation)),
                ("rows", Json::from(e.table.len())),
                ("attributes", Json::from(e.table.schema().len())),
            ])
        })
        .collect();
    ok_json(&Json::obj([("tables", Json::Arr(tables))]))
}

fn handle_tables_post(req: &Request, state: &ServerState) -> Result<Response, Response> {
    let body = parse_body(req)?;
    let name = body
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| error_response(400, "missing string field `name`"))?;
    let csv = body
        .get("csv")
        .and_then(Json::as_str)
        .ok_or_else(|| error_response(400, "missing string field `csv`"))?;
    let table = scorpion_table::csv::parse_csv(csv)
        .map_err(|e| error_response(400, &format!("CSV rejected: {e}")))?;
    let rows = table.len();
    let generation = state.registry.insert(name, table);
    Ok(ok_json(&Json::obj([
        ("name", Json::from(name)),
        ("generation", Json::from(generation)),
        ("rows", Json::from(rows)),
    ])))
}

/// Crate version baked in at compile time.
const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");
/// Git revision stamped by `build.rs` ("unknown" outside a checkout).
const BUILD_GIT: &str = env!("SCORPION_GIT_SHA");

fn handle_stats(state: &ServerState) -> Response {
    let plans = state.plans.stats();
    let pool = state.pool.get().cloned().unwrap_or_default();
    ok_json(&Json::obj([
        (
            "build",
            Json::obj([("version", Json::from(BUILD_VERSION)), ("git", Json::from(BUILD_GIT))]),
        ),
        (
            "queue",
            Json::obj([
                ("workers", Json::from(pool.workers())),
                ("busy", Json::from(pool.busy_workers())),
                ("depth", Json::from(pool.queue_depth())),
                ("rejected", Json::from(pool.rejected())),
            ]),
        ),
        ("uptime_secs", Json::from(state.stats.uptime().as_secs())),
        ("connections", Json::from(state.stats.connections_total())),
        ("open_connections", Json::from(state.stats.open_connections().max(0) as u64)),
        ("parked_connections", Json::from(state.stats.parked_connections())),
        ("shed_requests", Json::from(state.stats.shed_total())),
        ("read_timeouts", Json::from(state.stats.read_timeouts_total())),
        ("write_timeouts", Json::from(state.stats.write_timeouts_total())),
        ("deadline_exceeded", Json::from(state.stats.deadline_exceeded_total())),
        ("trace_ids_issued", Json::from(state.stats.trace_ids_issued())),
        (
            "plan_cache",
            Json::obj([
                ("hits", Json::from(plans.hits)),
                ("misses", Json::from(plans.misses)),
                ("evictions", Json::from(plans.evictions)),
                ("admission_denied", Json::from(plans.admission_denied)),
                ("entries", Json::from(plans.entries)),
            ]),
        ),
        ("endpoints", state.stats.endpoints_json()),
    ]))
}

/// `GET /metrics`: Prometheus text exposition (format 0.0.4) of the
/// same counters `/stats` serves as JSON, plus per-endpoint latency
/// histograms in seconds.
fn handle_metrics(state: &ServerState) -> Response {
    let mut p = PromText::new();

    p.header("scorpion_requests_total", "counter", "Requests handled, by endpoint.");
    let endpoints = state.stats.endpoint_metrics();
    for e in &endpoints {
        p.sample("scorpion_requests_total", &[("endpoint", e.name)], e.latency_us.count() as f64);
    }
    p.header(
        "scorpion_request_errors_total",
        "counter",
        "Requests answered with status >= 400, by endpoint.",
    );
    for e in &endpoints {
        p.sample("scorpion_request_errors_total", &[("endpoint", e.name)], e.errors as f64);
    }
    p.header(
        "scorpion_request_sheds_total",
        "counter",
        "Requests shed with 503 before dispatch, by targeted endpoint.",
    );
    for e in &endpoints {
        p.sample("scorpion_request_sheds_total", &[("endpoint", e.name)], e.sheds as f64);
    }
    p.header(
        "scorpion_request_duration_seconds",
        "histogram",
        "Request handling latency, by endpoint.",
    );
    for e in &endpoints {
        if e.latency_us.count() > 0 {
            // Recorded in µs; exported in seconds.
            p.histogram(
                "scorpion_request_duration_seconds",
                &[("endpoint", e.name)],
                &e.latency_us,
                1e-6,
            );
        }
    }

    p.header("scorpion_connections_total", "counter", "TCP connections accepted.");
    p.sample("scorpion_connections_total", &[], state.stats.connections_total() as f64);
    p.header("scorpion_open_connections", "gauge", "Connections currently open.");
    p.sample("scorpion_open_connections", &[], state.stats.open_connections().max(0) as f64);
    p.header(
        "scorpion_parked_connections",
        "gauge",
        "Idle keep-alive connections parked on the poller (zero worker cost).",
    );
    p.sample("scorpion_parked_connections", &[], state.stats.parked_connections() as f64);
    p.header(
        "scorpion_shed_requests_total",
        "counter",
        "Requests shed with 503 under backpressure.",
    );
    p.sample("scorpion_shed_requests_total", &[], state.stats.shed_total() as f64);
    p.header(
        "scorpion_read_timeouts_total",
        "counter",
        "Connections closed with 408: no complete request within the read timeout.",
    );
    p.sample("scorpion_read_timeouts_total", &[], state.stats.read_timeouts_total() as f64);
    p.header(
        "scorpion_write_timeouts_total",
        "counter",
        "Connections dropped because the peer stopped draining its response.",
    );
    p.sample("scorpion_write_timeouts_total", &[], state.stats.write_timeouts_total() as f64);
    p.header(
        "scorpion_deadline_exceeded_total",
        "counter",
        "Requests answered 504 because their deadline expired.",
    );
    p.sample("scorpion_deadline_exceeded_total", &[], state.stats.deadline_exceeded_total() as f64);

    let plans = state.plans.stats();
    p.header("scorpion_plan_cache_hits_total", "counter", "Plan-cache hits.");
    p.sample("scorpion_plan_cache_hits_total", &[], plans.hits as f64);
    p.header("scorpion_plan_cache_misses_total", "counter", "Plan-cache misses.");
    p.sample("scorpion_plan_cache_misses_total", &[], plans.misses as f64);
    p.header("scorpion_plan_cache_evictions_total", "counter", "Plan-cache evictions.");
    p.sample("scorpion_plan_cache_evictions_total", &[], plans.evictions as f64);
    p.header(
        "scorpion_plan_cache_admission_denied_total",
        "counter",
        "Plans built but not cached: admission would have evicted a far more expensive plan.",
    );
    p.sample("scorpion_plan_cache_admission_denied_total", &[], plans.admission_denied as f64);
    p.header("scorpion_plan_cache_entries", "gauge", "Warm plans resident in the cache.");
    p.sample("scorpion_plan_cache_entries", &[], plans.entries as f64);

    p.header("scorpion_registered_tables", "gauge", "Tables in the registry.");
    p.sample("scorpion_registered_tables", &[], state.registry.len() as f64);
    p.header("scorpion_table_resident_rows", "gauge", "Rows resident, by registered table.");
    let tables = state.registry.list();
    for (name, entry) in &tables {
        p.sample("scorpion_table_resident_rows", &[("table", name)], entry.table.len() as f64);
    }
    p.header(
        "scorpion_table_resident_bytes",
        "gauge",
        "Approximate columnar bytes resident, by registered table.",
    );
    for (name, entry) in &tables {
        p.sample(
            "scorpion_table_resident_bytes",
            &[("table", name)],
            entry.table.approx_bytes() as f64,
        );
    }
    p.header("scorpion_uptime_seconds", "gauge", "Seconds since the service started.");
    p.sample("scorpion_uptime_seconds", &[], state.stats.uptime().as_secs_f64());
    p.header("scorpion_build_info", "gauge", "Build metadata; value is always 1.");
    p.sample("scorpion_build_info", &[("version", BUILD_VERSION), ("git", BUILD_GIT)], 1.0);

    Response {
        status: 200,
        headers: Vec::new(),
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: p.finish().into_bytes(),
    }
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| error_response(400, "body is not UTF-8"))?;
    Json::parse(text).map_err(|e| error_response(400, &format!("bad JSON body: {e}")))
}

fn parse_algorithm(name: &str) -> Result<Algorithm, Response> {
    Ok(match name {
        "auto" => Algorithm::Auto,
        "dt" => Algorithm::DecisionTree(DtConfig::default()),
        "mc" => Algorithm::BottomUp(McConfig::default()),
        "naive" => Algorithm::Naive(NaiveConfig::default()),
        other => {
            return Err(error_response(
                400,
                &format!("unknown algorithm `{other}` (expected auto|dt|mc|naive)"),
            ))
        }
    })
}

/// Reads the approximate-search knobs from an `/explain` body:
/// `approx: true` opts in with defaults; `approx_rate` and
/// `approx_seed` override fields (either implies opting in). A knob of
/// the wrong type is a 400 that names the field, and an out-of-range
/// value a 400 that names the valid range.
fn parse_approx(body: &Json) -> Result<Option<ApproxConfig>, Response> {
    let opted_in = typed_field(body, "approx", "a boolean", Json::as_bool)?;
    let rate = typed_field(body, "approx_rate", "a number", Json::as_f64)?;
    // Every integer in [0, 2^64) is a seed; a cast would fold others onto one.
    let seed = typed_field(body, "approx_seed", "an integer in [0, 2^64)", |v| {
        v.as_f64().filter(|s| s.fract() == 0.0 && (0.0..18_446_744_073_709_551_616.0).contains(s))
    })?;
    if !(opted_in.unwrap_or(false) || rate.is_some() || seed.is_some()) {
        return Ok(None);
    }
    let mut cfg = ApproxConfig::default();
    if let Some(r) = rate {
        cfg.sample_rate = r;
    }
    if let Some(s) = seed {
        cfg.seed = s as u64;
    }
    cfg.validate().map_err(|msg| error_response(400, &msg))?;
    Ok(Some(cfg))
}

/// Field `name` of `body` as `read` takes it: `None` when absent, and a
/// 400 naming the field and the `expected` type when present but not
/// readable.
fn typed_field<'a, T>(
    body: &'a Json,
    name: &str,
    expected: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, Response> {
    match body.get(name) {
        None => Ok(None),
        Some(value) => read(value)
            .map(Some)
            .ok_or_else(|| error_response(400, &format!("field `{name}` must be {expected}"))),
    }
}

/// `POST /explain`: runs (or re-scores) the plan and renders the
/// explanation. Also assembles the request's flight-recorder event —
/// the one handler whose event carries engine facts (algorithm, cache
/// observations, phase attribution) beyond the surface dimensions.
///
/// When a deadline is set, the remaining time becomes the engine's
/// anytime budget: MC and NAIVE return their best-so-far answer when it
/// runs out (status 504, full diagnostics, `deadline_exceeded: true`);
/// DT is uninterruptible, so it finishes and only the status reflects
/// the overrun. A deadline that expired before execution starts is a
/// bodyless-diagnostics 504.
fn handle_explain(
    req: &Request,
    state: &ServerState,
    trace_id: u64,
    deadline: Option<Instant>,
) -> Result<(Response, Option<TelemetryEvent>), Response> {
    let body = parse_body(req)?;
    let sql = body
        .get("sql")
        .and_then(Json::as_str)
        .ok_or_else(|| error_response(400, "missing string field `sql`"))?;
    let table_name = match body.get("table").and_then(Json::as_str) {
        Some(n) => n.to_owned(),
        // With exactly one registered table the field is optional.
        None => match &state.registry.list()[..] {
            [(only, _)] => only.clone(),
            _ => return Err(error_response(400, "missing field `table`")),
        },
    };
    let entry = state
        .registry
        .get(&table_name)
        .ok_or_else(|| error_response(404, &format!("no table named `{table_name}`")))?;

    let lambda = typed_field(&body, "lambda", "a number", Json::as_f64)?.unwrap_or(0.5);
    let c = typed_field(&body, "c", "a number", Json::as_f64)?.unwrap_or(0.5);
    // Checked before the plan-cache lookup, so hits and misses answer alike.
    InfluenceParams { lambda, c }.validate().map_err(|e| error_response(400, &e.to_string()))?;
    let top = typed_field(&body, "top", "a number", Json::as_f64)?.unwrap_or(3.0).max(1.0) as usize;
    let algorithm_name =
        typed_field(&body, "algorithm", "a string", Json::as_str)?.unwrap_or("auto");
    let algorithm = parse_algorithm(algorithm_name)?;
    let approx = parse_approx(&body)?;

    // Canonical label spec for the cache key: the re-encoded raw JSON
    // label fields (parse→encode normalizes formatting). The approx
    // knobs join the key because the sampler state lives in the plan.
    let enc = |field: &str| -> String {
        body.get(field).map(|v| v.encode().unwrap_or_default()).unwrap_or_default()
    };
    let approx_spec = match &approx {
        Some(a) => format!("{}:{}:{}", a.sample_rate, a.min_rows, a.seed),
        None => String::new(),
    };
    let labels_spec = format!(
        "o:{}|h:{}|k:{}|a:{approx_spec}",
        enc("outliers"),
        enc("holdouts"),
        enc("auto_label")
    );
    let key = PlanKey::new(&entry, &table_name, sql, &labels_spec, algorithm_name);

    let build = || -> Result<PlanEntry, Response> {
        build_plan_entry(&entry, sql, &body, algorithm, lambda, c, approx)
    };
    let (plan, hit) = state.plans.get_or_create(&key, build)?;

    let budget = match deadline {
        None => None,
        Some(d) => match d.checked_duration_since(Instant::now()) {
            Some(remaining) => Some(remaining),
            None => {
                state.stats.deadline_exceeded();
                return Err(error_response(504, "deadline exceeded before execution"));
            }
        },
    };
    let mut explanation = plan
        .session
        .run_with_budget(InfluenceParams { lambda, c }, budget)
        .map_err(|e| error_response(500, &format!("explanation failed: {e}")))?;
    let deadline_hit = deadline.is_some_and(|d| Instant::now() >= d);
    if deadline_hit {
        state.stats.deadline_exceeded();
    }
    // The body's diagnostics carry the same id as the response header
    // and the flight-recorder event.
    explanation.diagnostics.trace_id = trace_id;

    let table = plan.session.request().table();
    let outlier_idx: Vec<usize> =
        plan.session.request().outliers().iter().map(|&(i, _)| i).collect();
    let holdout_idx = plan.session.request().holdouts();
    let results: Vec<Json> = plan
        .display_keys
        .iter()
        .zip(&plan.results)
        .enumerate()
        .map(|(i, (k, &v))| {
            let label = if outlier_idx.contains(&i) {
                Json::from("outlier")
            } else if holdout_idx.contains(&i) {
                Json::from("holdout")
            } else {
                Json::Null
            };
            Json::obj([
                ("key", Json::from(k.as_str())),
                ("value", num_or_null(v)),
                ("label", label),
            ])
        })
        .collect();
    let explanations = explanations_json(table, &explanation.predicates, top);
    let d = &explanation.diagnostics;
    if let Some(dir) = &state.trace_dir {
        dump_trace(dir, trace_id);
    }
    let event = (scorpion_obs::telemetry().enabled() || state.slow_ms.is_some()).then(|| {
        let mut event = TelemetryEvent::blank(trace_id, "explain");
        event.table = table_name.clone();
        event.generation = entry.generation;
        event.aggregate = plan.session.request().aggregate().name().to_owned();
        event.plan_cache = CacheHit::from_flag(hit);
        event.rows_scanned = table.len() as u64;
        event.predicates = explanation.predicates.len() as u64;
        scorpion_core::apply_diagnostics(event, d)
    });
    let body = Json::obj([
        ("table", Json::from(table_name)),
        ("generation", Json::from(entry.generation)),
        ("algorithm", Json::from(d.algorithm)),
        ("plan_cache", Json::from(if hit { "hit" } else { "miss" })),
        ("trace_id", Json::from(trace_id)),
        ("lambda", Json::from(lambda)),
        ("c", Json::from(c)),
        ("deadline_exceeded", Json::from(deadline_hit)),
        ("results", Json::Arr(results)),
        ("explanations", explanations),
        ("diagnostics", diagnostics_json(d)),
    ]);
    // A deadline overrun still carries the full (best-so-far) body —
    // the 504 status tells the caller the search was truncated.
    let resp = json_response(if deadline_hit { 504 } else { 200 }, &body);
    Ok((resp, event))
}

/// Drains the global span recorder and writes `explain-<id>.json` in
/// Chrome trace format. Under concurrent explains the drained spans may
/// include a neighbor request's — the dump is a debugging aid, not an
/// exact per-request attribution. Failures are swallowed: tracing must
/// never fail the request.
fn dump_trace(dir: &std::path::Path, trace_id: u64) {
    let spans = scorpion_obs::recorder().drain();
    if spans.is_empty() {
        return;
    }
    let path = dir.join(format!("explain-{trace_id}.json"));
    let _ = scorpion_obs::write_chrome_trace(&path, &spans);
}

/// Builds the session and result metadata for a plan-cache miss.
fn build_plan_entry(
    entry: &TableEntry,
    sql: &str,
    body: &Json,
    algorithm: Algorithm,
    lambda: f64,
    c: f64,
    approx: Option<ApproxConfig>,
) -> Result<PlanEntry, Response> {
    let bad = |msg: String| error_response(400, &msg);
    let builder = scorpion_core::Scorpion::on(entry.table.clone())
        .sql(sql)
        .map_err(|e| bad(format!("query failed: {e}")))?;
    let display_keys: Vec<String> = (0..builder.len()).map(|i| builder.display_key(i)).collect();
    let results = builder.results().to_vec();

    // A label is a result index (number) or a display key (string);
    // outliers may also be `{"key"|"index":…, "error": ±w}` objects.
    let resolve = |v: &Json| -> Result<usize, Response> {
        match v {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
            Json::Str(k) => {
                builder.index_of_key(k).ok_or_else(|| bad(format!("unknown result key `{k}`")))
            }
            _ => Err(bad(format!("bad label {v:?}: expected index or key"))),
        }
    };
    let builder = if let Some(k) = typed_field(body, "auto_label", "a number", Json::as_f64)? {
        builder.auto_label((k.max(1.0)) as usize)
    } else {
        let mut outliers = Vec::new();
        for v in body.get("outliers").and_then(Json::as_array).unwrap_or(&[]) {
            let (target, error) = match v {
                Json::Obj(_) => {
                    let error = typed_field(v, "error", "a number", Json::as_f64)?.unwrap_or(1.0);
                    let target = v
                        .get("key")
                        .or_else(|| v.get("index"))
                        .ok_or_else(|| bad("outlier object needs `key` or `index`".into()))?;
                    (target.clone(), error)
                }
                other => (other.clone(), 1.0),
            };
            outliers.push((resolve(&target)?, error));
        }
        let mut holdouts = Vec::new();
        for v in body.get("holdouts").and_then(Json::as_array).unwrap_or(&[]) {
            holdouts.push(resolve(v)?);
        }
        builder.outliers(outliers).holdouts(holdouts)
    };
    let mut builder = builder.params(lambda, c).algorithm(algorithm);
    if let Some(a) = approx {
        builder = builder.approx(a);
    }
    let request = builder.build().map_err(|e| bad(format!("labeling failed: {e}")))?;
    let session = ScorpionSession::new(request)
        .map_err(|e| bad(format!("session construction failed: {e}")))?;
    // Prepare eagerly so the cache's measured build cost covers the
    // expensive phase (tree growth / unit construction), not just
    // labeling — cost-aware admission is meaningless otherwise.
    session.plan().map_err(|e| error_response(500, &format!("preparation failed: {e}")))?;
    Ok(PlanEntry { session, display_keys, results })
}
