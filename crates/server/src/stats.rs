//! Lock-free service counters behind `GET /stats` and `GET /metrics`.

use crate::json::Json;
use scorpion_obs::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The endpoints tracked individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`.
    Healthz,
    /// `GET` / `POST /tables`.
    Tables,
    /// `POST /explain`.
    Explain,
    /// `GET /stats`.
    Stats,
    /// `GET /metrics`.
    Metrics,
    /// `GET /debug/telemetry` and `GET /debug/slow`.
    Debug,
    /// Anything else (404s, bad methods, malformed requests).
    Other,
}

impl Endpoint {
    /// The label used for stats, metrics, and the flight recorder's
    /// `endpoint` dimension.
    pub fn label(self) -> &'static str {
        ENDPOINTS.iter().find(|(e, _)| *e == self).expect("known endpoint").1
    }

    /// The endpoint a parsed request targets — the attribution used
    /// *before* dispatch, so a request shed at the queue is counted
    /// against the endpoint the client actually asked for rather than
    /// lumped under [`Endpoint::Other`].
    pub fn of(method: &str, path: &str) -> Endpoint {
        match (method, path) {
            (_, "/healthz") => Endpoint::Healthz,
            (_, "/tables") => Endpoint::Tables,
            (_, "/explain") => Endpoint::Explain,
            (_, "/stats") => Endpoint::Stats,
            (_, "/metrics") => Endpoint::Metrics,
            (_, p) if p.starts_with("/debug/") => Endpoint::Debug,
            _ => Endpoint::Other,
        }
    }
}

const ENDPOINTS: [(Endpoint, &str); 7] = [
    (Endpoint::Healthz, "healthz"),
    (Endpoint::Tables, "tables"),
    (Endpoint::Explain, "explain"),
    (Endpoint::Stats, "stats"),
    (Endpoint::Metrics, "metrics"),
    (Endpoint::Debug, "debug"),
    (Endpoint::Other, "other"),
];

/// Per-endpoint counters: an error count, a shed count, and a log-scale
/// latency histogram (microseconds) whose exact `count`/`sum`/`max`
/// replace the old scalar mean/max counters.
///
/// Sheds are deliberately *not* histogram samples: a 503 turned away at
/// the queue spent no time in a worker, and folding its near-zero
/// latency into the worker histogram would drag p50 down exactly when
/// the service is most overloaded.
#[derive(Default)]
struct EndpointStats {
    errors: AtomicU64,
    sheds: AtomicU64,
    latency_us: Histogram,
}

impl EndpointStats {
    fn record(&self, status: u16, elapsed: Duration) {
        if status >= 400 {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency_us.record(elapsed.as_micros() as u64);
    }

    fn to_json(&self) -> Json {
        let snap = self.latency_us.snapshot();
        let ms = |us: u64| us as f64 / 1000.0;
        Json::obj([
            ("count", Json::from(snap.count())),
            ("errors", Json::from(self.errors.load(Ordering::Relaxed))),
            ("shed", Json::from(self.sheds.load(Ordering::Relaxed))),
            ("mean_ms", Json::from(snap.mean() / 1000.0)),
            ("p50_ms", Json::from(ms(snap.quantile(0.5)))),
            ("p90_ms", Json::from(ms(snap.quantile(0.9)))),
            ("p99_ms", Json::from(ms(snap.quantile(0.99)))),
            ("max_ms", Json::from(ms(snap.max()))),
        ])
    }
}

/// One endpoint's exported counters, as consumed by the `/metrics`
/// renderer: `(name, error count, shed count, latency snapshot in µs)`.
pub struct EndpointMetrics {
    /// Prometheus label value (`"explain"`, `"stats"`, …).
    pub name: &'static str,
    /// Requests answered with status ≥ 400.
    pub errors: u64,
    /// Requests shed with 503 before reaching a worker (not included in
    /// the latency distribution).
    pub sheds: u64,
    /// Latency distribution in microseconds (worker-handled requests
    /// only).
    pub latency_us: HistogramSnapshot,
}

/// Service-wide counters: per-endpoint latency histograms plus
/// connection-lifecycle, load-shedding, deadline, and trace-id state.
pub struct ServerStats {
    started: Instant,
    endpoints: [EndpointStats; 7],
    connections: AtomicU64,
    open: AtomicI64,
    parked: AtomicU64,
    shed: AtomicU64,
    read_timeouts: AtomicU64,
    write_timeouts: AtomicU64,
    deadline_exceeded: AtomicU64,
    trace_ids_issued: AtomicU64,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            started: Instant::now(),
            endpoints: Default::default(),
            connections: AtomicU64::new(0),
            open: AtomicI64::new(0),
            parked: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            read_timeouts: AtomicU64::new(0),
            write_timeouts: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            trace_ids_issued: AtomicU64::new(0),
        }
    }
}

impl ServerStats {
    /// Fresh counters starting now.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Seconds since the service started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Records one handled request.
    pub fn record(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        let idx = ENDPOINTS.iter().position(|(e, _)| *e == endpoint).expect("known endpoint");
        self.endpoints[idx].record(status, elapsed);
    }

    /// Records one request shed with 503 before dispatch. Counts as an
    /// error against the endpoint the request targeted, with *no*
    /// latency-histogram sample — the request never ran.
    pub fn record_shed(&self, endpoint: Endpoint) {
        let idx = ENDPOINTS.iter().position(|(e, _)| *e == endpoint).expect("known endpoint");
        self.endpoints[idx].sheds.fetch_add(1, Ordering::Relaxed);
        self.endpoints[idx].errors.fetch_add(1, Ordering::Relaxed);
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Issues the next request trace id from the process-wide sequence
    /// ([`scorpion_obs::next_trace_id`]) — the CLI and continuous
    /// sessions draw from the same counter, so a response header, an
    /// access-log line, and a flight-recorder event all correlate by id.
    pub fn next_trace_id(&self) -> u64 {
        self.trace_ids_issued.fetch_add(1, Ordering::Relaxed);
        scorpion_obs::next_trace_id()
    }

    /// Trace ids issued by *this* server so far.
    pub fn trace_ids_issued(&self) -> u64 {
        self.trace_ids_issued.load(Ordering::Relaxed)
    }

    /// Counts an accepted connection (total and currently open).
    pub fn connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection close (accepted connections only).
    pub fn connection_closed(&self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently open (accepted and not yet closed).
    pub fn open_connections(&self) -> i64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Publishes the poller's parked-connection gauge: connections idle
    /// between requests, held open at zero worker cost.
    pub fn set_parked(&self, parked: u64) {
        self.parked.store(parked, Ordering::Relaxed);
    }

    /// Connections currently parked on the poller.
    pub fn parked_connections(&self) -> u64 {
        self.parked.load(Ordering::Relaxed)
    }

    /// Requests/connections shed so far.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Counts a connection closed with 408 because the client failed to
    /// deliver a complete request in time (slow reader / slowloris).
    pub fn read_timeout(&self) {
        self.read_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Read timeouts so far.
    pub fn read_timeouts_total(&self) -> u64 {
        self.read_timeouts.load(Ordering::Relaxed)
    }

    /// Counts a connection dropped because the client stopped draining
    /// its response (slow writer).
    pub fn write_timeout(&self) {
        self.write_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Write timeouts so far.
    pub fn write_timeouts_total(&self) -> u64 {
        self.write_timeouts.load(Ordering::Relaxed)
    }

    /// Counts a request answered 504 because its deadline expired.
    pub fn deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Deadline-exceeded responses so far.
    pub fn deadline_exceeded_total(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Renders the per-endpoint section of `/stats`.
    pub fn endpoints_json(&self) -> Json {
        Json::Obj(
            ENDPOINTS
                .iter()
                .enumerate()
                .map(|(i, (_, name))| ((*name).to_owned(), self.endpoints[i].to_json()))
                .collect(),
        )
    }

    /// Per-endpoint counters for the Prometheus exposition.
    pub fn endpoint_metrics(&self) -> Vec<EndpointMetrics> {
        ENDPOINTS
            .iter()
            .enumerate()
            .map(|(i, (_, name))| EndpointMetrics {
                name,
                errors: self.endpoints[i].errors.load(Ordering::Relaxed),
                sheds: self.endpoints[i].sheds.load(Ordering::Relaxed),
                latency_us: self.endpoints[i].latency_us.snapshot(),
            })
            .collect()
    }

    /// Total accepted connections.
    pub fn connections_total(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_endpoint_latency() {
        let s = ServerStats::new();
        s.record(Endpoint::Explain, 200, Duration::from_millis(10));
        s.record(Endpoint::Explain, 400, Duration::from_millis(30));
        s.record(Endpoint::Healthz, 200, Duration::from_micros(50));
        let j = s.endpoints_json();
        let explain = j.get("explain").unwrap();
        assert_eq!(explain.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(explain.get("errors").unwrap().as_f64(), Some(1.0));
        // count and sum are exact, so the mean and max survive the
        // histogram's bucketing untouched.
        assert_eq!(explain.get("mean_ms").unwrap().as_f64(), Some(20.0));
        assert_eq!(explain.get("max_ms").unwrap().as_f64(), Some(30.0));
        // Quantiles are bucketed: within 1/16 relative error.
        let p99 = explain.get("p99_ms").unwrap().as_f64().unwrap();
        assert!((28.0..=30.0).contains(&p99), "p99_ms = {p99}");
        assert_eq!(j.get("healthz").unwrap().get("count").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn sheds_count_as_errors_without_latency_samples() {
        let s = ServerStats::new();
        s.record(Endpoint::Explain, 200, Duration::from_millis(10));
        s.record_shed(Endpoint::Explain);
        s.record_shed(Endpoint::Explain);
        let j = s.endpoints_json();
        let explain = j.get("explain").unwrap();
        // The histogram saw only the handled request; the sheds are
        // errors but not samples.
        assert_eq!(explain.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(explain.get("errors").unwrap().as_f64(), Some(2.0));
        assert_eq!(explain.get("shed").unwrap().as_f64(), Some(2.0));
        assert_eq!(s.shed_total(), 2);
        let m = s.endpoint_metrics();
        let explain = m.iter().find(|e| e.name == "explain").unwrap();
        assert_eq!(explain.sheds, 2);
        assert_eq!(explain.latency_us.count(), 1);
    }

    #[test]
    fn endpoint_of_attributes_requests() {
        assert_eq!(Endpoint::of("POST", "/explain"), Endpoint::Explain);
        assert_eq!(Endpoint::of("GET", "/healthz"), Endpoint::Healthz);
        assert_eq!(Endpoint::of("GET", "/debug/slow"), Endpoint::Debug);
        assert_eq!(Endpoint::of("GET", "/nope"), Endpoint::Other);
    }

    #[test]
    fn connection_lifecycle_gauges() {
        let s = ServerStats::new();
        s.connection();
        s.connection();
        assert_eq!(s.connections_total(), 2);
        assert_eq!(s.open_connections(), 2);
        s.connection_closed();
        assert_eq!(s.open_connections(), 1);
        s.set_parked(7);
        assert_eq!(s.parked_connections(), 7);
        s.read_timeout();
        s.write_timeout();
        s.deadline_exceeded();
        assert_eq!(s.read_timeouts_total(), 1);
        assert_eq!(s.write_timeouts_total(), 1);
        assert_eq!(s.deadline_exceeded_total(), 1);
    }

    #[test]
    fn trace_ids_are_unique_and_counted() {
        let s = ServerStats::new();
        let a = s.next_trace_id();
        let b = s.next_trace_id();
        assert_ne!(a, b);
        assert_eq!(s.trace_ids_issued(), 2);
    }

    #[test]
    fn debug_endpoint_is_tracked_and_labeled() {
        assert_eq!(Endpoint::Debug.label(), "debug");
        assert_eq!(Endpoint::Explain.label(), "explain");
        let s = ServerStats::new();
        s.record(Endpoint::Debug, 200, Duration::from_micros(10));
        let j = s.endpoints_json();
        assert_eq!(j.get("debug").unwrap().get("count").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn endpoint_metrics_expose_snapshots() {
        let s = ServerStats::new();
        s.record(Endpoint::Metrics, 200, Duration::from_micros(120));
        let m = s.endpoint_metrics();
        let metrics = m.iter().find(|e| e.name == "metrics").unwrap();
        assert_eq!(metrics.latency_us.count(), 1);
        assert_eq!(metrics.latency_us.max(), 120);
    }
}
