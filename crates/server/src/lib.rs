//! # scorpion-server
//!
//! A concurrent HTTP explanation service multiplexing Scorpion sessions
//! over shared tables — the paper's §2 premise ("put outlier
//! explanation in end-user hands") as a long-lived network service
//! rather than a one-shot CLI.
//!
//! The design leans on what the engine API already guarantees:
//! [`scorpion_core::ExplainRequest`] owns its data through `Arc`s and
//! every prepared plan is `Send + Sync`, so one warm
//! [`scorpion_core::ScorpionSession`] can serve many concurrent
//! requests bit-exactly. The server adds the serving substrate:
//!
//! * [`registry::TableRegistry`] — named, `Arc`-shared table snapshots
//!   with generation stamps (after a reload, the next lookup of each
//!   dependent query replaces its plan; nothing scans).
//! * [`cache::PlanCache`] — a sharded LRU of warm sessions keyed by
//!   `(table name, normalized SQL, labels, algorithm)`, each recording
//!   the table generation it was built at. The
//!   influence parameters are *not* in the key: a repeated
//!   `POST /explain` at a new `c` re-scores through the plan's
//!   influence cache instead of re-preparing (§8.3.3, generalized).
//! * [`pool::WorkerPool`] — a bounded worker pool with a backpressure
//!   queue; saturation sheds *requests* with immediate 503s attributed
//!   to the endpoint they targeted.
//! * a readiness poller (`epoll(7)` behind a dependency-free FFI
//!   wrapper, so the server builds on Linux only) that parks idle
//!   keep-alive connections and hands complete parsed requests to the
//!   pool — worker occupancy tracks in-flight requests, not open
//!   sockets, so hundreds of idle dashboard connections cost file
//!   descriptors, never workers, and no poller work per wake-up.
//!   Slow clients are bounded by read (408) and write timeouts, and
//!   per-request deadlines ([`server::DEADLINE_HEADER`] or
//!   `--deadline-ms`) become anytime budgets for the MC/NAIVE engines
//!   (best-so-far answer with HTTP 504).
//! * [`http`] / [`json`] — a dependency-free HTTP/1.1 framing layer
//!   ([`http::RequestParser`] is incremental and resumable, which is
//!   what lets connections park mid-stream) and JSON codec (no
//!   crates.io access in this build).
//!
//! Endpoints: `POST /explain`, `GET`/`POST /tables`, `GET /healthz`,
//! `GET /stats`, `GET /metrics` (Prometheus text exposition), and the
//! self-observation pair `GET /debug/telemetry` (the flight-recorder
//! ring as JSON or CSV) / `GET /debug/slow` (the engine explaining the
//! service's own latency outliers — see [`debug`]). Every response
//! carries an `x-scorpion-trace-id` header. Run it via the binary:
//!
//! ```text
//! scorpion serve --csv readings=readings.csv --port 7070 --workers 8
//! ```
//!
//! or embed it:
//!
//! ```no_run
//! use scorpion_server::{Server, ServerConfig};
//! let server = Server::bind(&ServerConfig::default()).unwrap();
//! // server.state().registry.insert("readings", table);
//! server.run().unwrap();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod debug;
pub mod http;
pub mod json;
pub(crate) mod poller;
pub mod pool;
pub mod registry;
pub mod render;
pub mod server;
pub mod stats;

pub use cache::{normalize_sql, PlanCache, PlanCacheStats, PlanEntry, PlanKey};
pub use debug::audit_json;
pub use json::{Json, JsonError};
pub use pool::{PoolGauges, SubmitError, WorkerPool};
pub use registry::{TableEntry, TableRegistry};
pub use render::{diagnostics_json, explanations_json, num_or_null};
pub use server::{
    dispatch, dispatch_recorded, RequestContext, Server, ServerConfig, ServerHandle, ServerState,
    DEADLINE_HEADER, TRACE_ID_HEADER,
};
pub use stats::{Endpoint, EndpointMetrics, ServerStats};
