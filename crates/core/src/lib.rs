//! # scorpion-core
//!
//! The Scorpion engine (Wu & Madden, VLDB 2013): given a group-by
//! aggregate query, user-labeled outlier and hold-out results, and error
//! vectors, find the predicate over the non-aggregate attributes with
//! maximum *influence* — the predicate whose deletion best "explains away"
//! the outliers (§3).
//!
//! Components, mirroring the paper's architecture (Figure 2):
//!
//! * [`Scorpion`] / [`ExplainRequest`] — the one entry point:
//!   `Scorpion::on(table).sql(…)?.outlier(…).holdout(…).build()?`,
//!   with label validation and automatic algorithm selection from the
//!   aggregate's §5 properties.
//! * [`engine::PreparedPlan`] — every algorithm in two phases: an
//!   expensive, `c`-agnostic [`ExplainRequest::prepare`] (DT
//!   partitioning, MC unit construction, NAIVE candidate enumeration)
//!   and a cheap, re-runnable `run` (§8.3.3, generalized).
//! * [`Scorer`] — influence evaluation, with the §5.1 incremental fast
//!   path and the cross-run [`InfluenceCache`].
//! * Partitioners — [`naive::naive_search`] (§4.2),
//!   [`dt::DtPartitioner`] (§6.1), [`mc::mc_search`] (§6.2).
//! * [`merger::Merger`] — greedy bounding-box merging with the §6.3
//!   optimizations.
//! * [`session::ScorpionSession`] — algorithm-generic cross-parameter
//!   caching over a prepared plan.

#![warn(missing_docs)]

pub mod approx;
pub mod config;
pub mod dt;
pub mod engine;
mod error;
pub mod features;
pub mod mc;
pub mod merger;
pub mod naive;
pub mod request;
mod result;
mod scorer;
pub mod session;
pub mod telemetry;

pub use approx::ApproxState;
pub use config::{
    Algorithm, ApproxConfig, DtConfig, InfluenceParams, McConfig, MergerConfig, NaiveConfig,
    SamplingConfig, APPROX_RATE_RANGE,
};
pub use engine::PreparedPlan;
pub use error::{Result, ScorpionError};
pub use request::{label_extremes, ExplainRequest, RequestBuilder, Scorpion};
pub use result::{Diagnostics, Explanation, GroupStat, PartitionStats, ScoredPredicate};
pub use scorer::{GroupSpec, InfluenceCache, PrunedBatch, Scorer};
pub use scorpion_obs::PhaseTiming;
pub use session::ScorpionSession;
pub use telemetry::{
    apply_diagnostics, events_to_table, table_csv, telemetry_table_from_csv, TelemetryTable,
};
