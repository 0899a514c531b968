//! # scorpion-stream
//!
//! The continuous Scorpion: turns the offline explain-the-outlier engine
//! into a monitoring service over a live feed. Four pieces:
//!
//! * [`SlidingWindow`] — ingests row batches as *chunks*, summarizes each
//!   chunk once into one summary per group, and maintains the windowed
//!   group-by aggregate series by merging the summaries into running
//!   totals on arrival and taking them back out on eviction — no chunk
//!   is ever re-read. The aggregate alone picks the summary: its exact
//!   state when it has one ([`scorpion_agg::IncrementalAggregate`];
//!   removable states are subtracted, §5.1 `remove` on the time axis,
//!   and merge-only MIN/MAX are re-merged from the surviving chunks),
//!   else raw values. An eviction that leaves a NaN or ±∞, or whose
//!   subtraction may have absorbed the survivors, re-merges too.
//! * [`OutlierDetector`] — a robust (median/MAD) z-score detector over
//!   the live series that auto-generates the outlier labels, error
//!   directions, and hold-out set the offline
//!   [`scorpion_core::ExplainRequest`] builder requires a human for.
//! * [`ContinuousSession`] — re-explains flagged windows incrementally:
//!   the DT partitioning is cached under a *chunk signature* of the
//!   outlier groups and reused (re-scored, re-merged) as long as window
//!   slides leave those groups' chunks untouched — the §8.3.3 cache
//!   generalized across time instead of across `c`.
//! * [`StreamExplanation`] — the self-contained result: the materialized
//!   window, detection metadata, and the ranked predicates.
//!
//! ```
//! use scorpion_agg::aggregate_by_name;
//! use scorpion_stream::{SlidingWindow, StreamConfig};
//! use scorpion_table::{Field, Schema, Value};
//!
//! let schema = Schema::new(vec![Field::disc("hour"), Field::cont("temp")]).unwrap();
//! let cfg = StreamConfig::new(schema, 0, 1, 3).unwrap();
//! let mut w = SlidingWindow::new(cfg, aggregate_by_name("avg").unwrap());
//! w.push_chunk(vec![
//!     vec![Value::from("h0"), Value::from(30.0)],
//!     vec![Value::from("h0"), Value::from(34.0)],
//! ]).unwrap();
//! assert_eq!(w.series()[0].value, 32.0);
//! ```

#![warn(missing_docs)]

mod audit;
mod detector;
mod error;
mod session;
mod window;

pub use audit::{explain_latency, Audit, AuditConfig, AuditOutcome, AuditReport, AUDIT_MIN_EVENTS};
pub use detector::{Detection, DetectorConfig, OutlierDetector};
pub use error::{Result, StreamError};
pub use session::{ContinuousConfig, ContinuousSession, SessionStats, StreamExplanation};
pub use window::{ChunkReceipt, GroupAggregate, SlidingWindow, StreamConfig};
