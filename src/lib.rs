//! # Scorpion
//!
//! A from-scratch Rust reproduction of **Scorpion: Explaining Away
//! Outliers in Aggregate Queries** (Eugene Wu & Samuel Madden, PVLDB
//! 6(8), VLDB 2013).
//!
//! Given a group-by aggregate query, a set of user-flagged *outlier*
//! results, *hold-out* results that look normal, and error vectors
//! describing how the outliers look wrong, Scorpion searches for the
//! predicate over the input attributes whose deletion best "explains
//! away" the outliers — maximizing the paper's *influence* metric.
//!
//! ## Quickstart
//!
//! ```
//! use scorpion::prelude::*;
//!
//! // Table 1 of the paper: sensor readings.
//! let schema = Schema::new(vec![
//!     Field::disc("time"), Field::disc("sensorid"),
//!     Field::cont("voltage"), Field::cont("temp"),
//! ]).unwrap();
//! let mut b = TableBuilder::new(schema);
//! for (t, s, v, temp) in [
//!     ("11AM", "1", 2.64, 34.0), ("11AM", "2", 2.65, 35.0), ("11AM", "3", 2.63, 35.0),
//!     ("12PM", "1", 2.70, 35.0), ("12PM", "2", 2.70, 35.0), ("12PM", "3", 2.30, 100.0),
//!     ("1PM",  "1", 2.70, 35.0), ("1PM",  "2", 2.70, 35.0), ("1PM",  "3", 2.30, 80.0),
//! ] {
//!     b.push_row(vec![t.into(), s.into(), v.into(), temp.into()]).unwrap();
//! }
//! let table = b.build();
//!
//! // Q1: SELECT avg(temp) FROM sensors GROUP BY time.
//! // The 12PM and 1PM averages look too high; 11AM is normal.
//! let request = Scorpion::on(table)
//!     .sql("SELECT avg(temp) FROM sensors GROUP BY time").unwrap()
//!     .outlier(1, 1.0)
//!     .outlier(2, 1.0)
//!     .holdout(0)
//!     .build().unwrap();
//! let explanation = request.explain().unwrap();
//! let best = explanation.best();
//! // The planted cause: the low-voltage sensor.
//! let table = request.table();
//! let rows: Vec<u32> = (0..table.len() as u32).collect();
//! let selected = best.predicate.select(table, &rows).unwrap();
//! assert!(selected.contains(&5) && selected.contains(&8));
//!
//! // Interactive exploration: prepare once, re-run cheaply per `c`.
//! let session = ScorpionSession::new(request).unwrap();
//! let sharp = session.run_with_c(1.0).unwrap();
//! let broad = session.run_with_c(0.0).unwrap();
//! assert!(sharp.best().influence.is_finite() && broad.best().influence.is_finite());
//! ```
//!
//! ## Crates
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`obs`] | Dependency-free observability: phase timings, log-scale histograms, span recorder, Prometheus text |
//! | [`table`] | Columnar relational substrate, predicates, group-by + provenance |
//! | [`agg`] | Aggregate-property framework (§5) + sketch-tier operators |
//! | [`sketch`] | Probabilistic sketches: retractable quantiles, HLL++, SpaceSaving |
//! | [`core`] | Scorer + influence cache, `ExplainRequest` builder (the one entry point), prepared plans (NAIVE/DT/MC), Merger, sessions (§3–§7) |
//! | [`data`] | SYNTH / INTEL / EXPENSE workload generators + streaming sensor feed (§8.1) |
//! | [`stream`] | Continuous sliding-window engine: mergeable partials, auto-labeling, warm re-explanation |
//! | [`server`] | HTTP explanation service: table registry, plan cache, bounded worker pool |
//! | [`eval`] | Accuracy metrics + per-figure experiment runners (§8) |

#![warn(missing_docs)]

pub use scorpion_agg as agg;
pub use scorpion_core as core;
pub use scorpion_data as data;
pub use scorpion_eval as eval;
pub use scorpion_obs as obs;
pub use scorpion_server as server;
pub use scorpion_sketch as sketch;
pub use scorpion_stream as stream;
pub use scorpion_table as table;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use scorpion_agg::{
        aggregate_by_name, AggState, Aggregate, Avg, Count, CountDistinct, IncrementalAggregate,
        Max, Median, Min, Percentile, SketchAggregate, StdDev, Sum, Variance,
    };
    pub use scorpion_core::features::{rank_attributes, select_attributes};
    pub use scorpion_core::session::ScorpionSession;
    pub use scorpion_core::{
        label_extremes, Algorithm, ApproxConfig, Diagnostics, DtConfig, ExplainRequest,
        Explanation, GroupSpec, InfluenceCache, InfluenceParams, McConfig, MergerConfig,
        NaiveConfig, PreparedPlan, PreparedQuery, RequestBuilder, ScoredPredicate, Scorer,
        Scorpion, ScorpionError,
    };
    pub use scorpion_sketch::{
        ErrorBound, HyperLogLog, QuantileSketch, SketchPartial, SpaceSaving,
    };
    pub use scorpion_table::{
        aggregate_groups, bin_edges, domains_of, group_by, AttrDomain, AttrType, Clause,
        ClauseMaskCache, Field, Grouping, Predicate, RowMask, Schema, Table, TableBuilder, Value,
    };
}
