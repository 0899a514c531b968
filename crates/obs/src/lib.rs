//! Dependency-free observability for the Scorpion workspace.
//!
//! Small pieces, designed to be cheap enough to leave compiled
//! into the hot path:
//!
//! - [`Histogram`]: a log-scale (HDR-style, power-of-two octaves with
//!   sub-buckets) latency histogram with lock-free recording,
//!   mergeable [`HistogramSnapshot`]s, and quantile extraction.
//! - [`Phases`] / [`PhaseTiming`]: named monotonic-clock phase timers
//!   that accumulate `(nanos, count)` per phase — the data behind
//!   `Diagnostics.phases` and the CLI `--verbose` table.
//! - [`ScopeGuard`]: the one RAII timer. [`Phases::enter`] returns it
//!   for a phase, [`span!`] for a trace-only scope. It reads the clock
//!   at entry and exit, adds its phase, and records a span of the same
//!   name while the [`Recorder`] is on.
//! - [`Recorder`]: the global span recorder. Disabled (the default) a
//!   closing scope pays one relaxed atomic load for it; enabled it
//!   buffers spans thread-locally and flushes them to a bounded global
//!   ring.
//! - [`chrome_trace_json`] and [`PromText`]: export completed spans as
//!   Chrome `chrome://tracing` JSON, and counters/gauges/histograms as
//!   Prometheus text exposition.
//! - [`Telemetry`] / [`telemetry`]: the flight recorder — a bounded
//!   ring of per-request [`TelemetryEvent`]s (one per server request,
//!   CLI run, or continuous-session slide) that the engine can later
//!   explain like any other relation.

#![warn(missing_docs)]

mod histogram;
mod phase;
mod prom;
mod recorder;
mod telemetry;
mod trace;

pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use phase::{merge_phases, PhaseTiming, Phases, ScopeGuard};
pub use prom::PromText;
pub use recorder::{recorder, Recorder, Span};
pub use telemetry::{
    next_trace_id, telemetry, CacheHit, Telemetry, TelemetryEvent, DEFAULT_TELEMETRY_EVENTS,
};
pub use trace::{chrome_trace_json, write_chrome_trace};

/// Opens a trace-only scope: a [`ScopeGuard`] with no phase list that
/// records a span named `name` while the global [`Recorder`] is on.
/// Bind it to keep the scope open for the rest of the block:
///
/// ```
/// let _span = scorpion_obs::span!("dt.partition");
/// ```
///
/// Scopes that are also phases use [`Phases::enter`] instead, which
/// records the same span.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::ScopeGuard::span($name)
    };
}
