//! Self-explain: Scorpion explains its own latency outliers.
//!
//! The flight recorder (`scorpion_obs::telemetry`) keeps one event per
//! request; `scorpion_core::telemetry` materializes those events as a
//! relation with one row per request, categorical dimension columns
//! (endpoint, algorithm, cache flags, …) and a numeric `latency_ms`
//! measure. This module closes the dogfooding loop with the same
//! pipeline a continuous session applies to user data:
//!
//! 1. `SELECT avg(latency_ms) FROM telemetry GROUP BY slice` — each
//!    aggregate result covers [`SLICE_WIDTH`] adjacent requests, so a
//!    slow slice holds both its offending and its normal tuples (the
//!    within-group contrast the DT partitioner needs, exactly the
//!    paper's outlier-group shape).
//! 2. The median/MAD [`OutlierDetector`] flags the slow slices
//!    (high-side only; fast slices are not a problem) and picks the
//!    most-normal slices as hold-outs.
//! 3. The DT engine searches the dimension columns for the predicate
//!    whose deletion best explains the latency spike — e.g.
//!    `algorithm in {naive} AND plan_cache in {miss}`.
//!
//! Both `GET /debug/slow` (live ring) and `scorpion audit`
//! (`--telemetry-csv` dump) are thin wrappers over [`explain_latency`].

use crate::detector::{DetectorConfig, OutlierDetector};
use crate::error::{Result, StreamError};
use crate::window::GroupAggregate;
use scorpion_agg::Avg;
use scorpion_core::telemetry::{
    LATENCY_COLUMN, PHASE_COLUMN_PREFIX, REQ_COLUMN, SLICE_COLUMN, SLICE_WIDTH,
};
use scorpion_core::{Algorithm, DtConfig, Explanation, Scorpion};
use scorpion_table::Table;
use std::sync::Arc;

/// Knobs for the self-explain pipeline.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Modified z-score above which a slice is slow (the detector's
    /// threshold; 3.5 is the Iglewicz–Hoaglin default).
    pub threshold: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig { threshold: 3.5 }
    }
}

/// Minimum events before the robust statistics are meaningful; smaller
/// rings yield [`AuditOutcome::TooFewEvents`].
pub const AUDIT_MIN_EVENTS: usize = 6 * SLICE_WIDTH;

/// Hold-out slices handed to the engine, most normal first.
const MAX_HOLDOUTS: usize = 16;

/// What the audit found.
#[derive(Debug)]
pub enum AuditOutcome {
    /// Fewer events than [`AUDIT_MIN_EVENTS`].
    TooFewEvents,
    /// Latency is uniform: no slice crossed the threshold.
    NoOutliers {
        /// Robust center (median) of per-slice average latency, ms.
        center_ms: f64,
        /// Robust scale (1.4826·MAD) of per-slice average latency, ms.
        scale_ms: f64,
    },
    /// Slow slices were flagged and explained. Boxed: the report (with
    /// its embedded explanation and table handle) dwarfs the other
    /// variants.
    Explained(Box<AuditReport>),
}

/// The explained case: which slices were slow, and why.
#[derive(Debug)]
pub struct AuditReport {
    /// Flagged slices as `(slice key, avg latency_ms)`, slowest first.
    pub slow: Vec<(String, f64)>,
    /// Robust center (median) of per-slice average latency, ms.
    pub center_ms: f64,
    /// Robust scale (1.4826·MAD) of per-slice average latency, ms.
    pub scale_ms: f64,
    /// Influence-ranked predicates over the dimension columns, plus
    /// engine diagnostics — render with the paired [`AuditReport::table`].
    pub explanation: Explanation,
    /// The telemetry relation the explanation's predicates refer to.
    pub table: Arc<Table>,
}

/// How many events the audit looked at, plus the finding.
#[derive(Debug)]
pub struct Audit {
    /// Rows in the telemetry relation.
    pub events: usize,
    /// Threshold in force.
    pub threshold: f64,
    /// The finding.
    pub outcome: AuditOutcome,
}

/// Columns the engine may build predicates over: every dimension and
/// measure except the row key, the slice group key, the aggregated
/// latency, and the per-phase breakdown (phases partition the latency
/// itself — letting the engine "explain" slowness by its own phase
/// timings would be circular).
fn explain_attrs(table: &Table) -> Vec<usize> {
    table
        .schema()
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.name() != REQ_COLUMN
                && f.name() != SLICE_COLUMN
                && f.name() != LATENCY_COLUMN
                && !f.name().starts_with(PHASE_COLUMN_PREFIX)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Runs the self-explain pipeline over a telemetry relation (the
/// [`scorpion_core::telemetry::events_to_table`] shape).
pub fn explain_latency(table: &Table, cfg: &AuditConfig) -> Result<Audit> {
    let events = table.len();
    if events < AUDIT_MIN_EVENTS {
        return Ok(Audit { events, threshold: cfg.threshold, outcome: AuditOutcome::TooFewEvents });
    }
    let slice = table.attr(SLICE_COLUMN).map_err(StreamError::Table)?;
    let latency = table.attr(LATENCY_COLUMN).map_err(StreamError::Table)?;
    let attrs = explain_attrs(table);
    if attrs.is_empty() {
        return Err(StreamError::BadConfig("telemetry table has no dimension columns"));
    }

    let builder = Scorpion::on(table.clone())
        .group_by(&[slice], Arc::new(Avg), latency)
        .map_err(StreamError::Engine)?;
    let series: Vec<GroupAggregate> = (0..builder.len())
        .map(|i| GroupAggregate {
            key: builder.display_key(i),
            value: builder.results()[i],
            rows: SLICE_WIDTH,
        })
        .collect();

    let detector = OutlierDetector::new(DetectorConfig {
        threshold: cfg.threshold,
        max_holdouts: MAX_HOLDOUTS,
        min_groups: AUDIT_MIN_EVENTS / SLICE_WIDTH,
        min_scale: 0.0,
    });
    let detection = detector.detect(&series);
    // Only the high side is a problem for latency.
    let slow_keys: Vec<&String> = detection
        .iter()
        .flat_map(|d| d.outliers.iter())
        .filter(|(_, dir)| *dir > 0.0)
        .map(|(k, _)| k)
        .collect();
    let Some(detection) = detection.as_ref().filter(|_| !slow_keys.is_empty()) else {
        let (center_ms, scale_ms) = detection.as_ref().map_or((0.0, 0.0), |d| (d.center, d.scale));
        return Ok(Audit {
            events,
            threshold: cfg.threshold,
            outcome: AuditOutcome::NoOutliers { center_ms, scale_ms },
        });
    };

    let mut slow: Vec<(String, f64)> = Vec::with_capacity(slow_keys.len());
    let mut outlier_labels = Vec::with_capacity(slow_keys.len());
    for key in &slow_keys {
        let i = builder
            .index_of_key(key)
            .ok_or(StreamError::BadConfig("detector key missing from grouping"))?;
        slow.push(((*key).clone(), builder.results()[i]));
        outlier_labels.push((i, 1.0));
    }
    slow.sort_by(|a, b| b.1.total_cmp(&a.1));
    let holdout_labels: Vec<usize> =
        detection.holdouts.iter().filter_map(|k| builder.index_of_key(k)).collect();

    let request = builder
        .outliers(outlier_labels)
        .holdouts(holdout_labels)
        .explain_attrs(attrs)
        .algorithm(Algorithm::DecisionTree(DtConfig::default()))
        .build()
        .map_err(StreamError::Engine)?;
    let explanation = request.explain().map_err(StreamError::Engine)?;
    let table = request.table().clone();

    Ok(Audit {
        events,
        threshold: cfg.threshold,
        outcome: AuditOutcome::Explained(Box::new(AuditReport {
            slow,
            center_ms: detection.center,
            scale_ms: detection.scale,
            explanation,
            table,
        })),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpion_core::telemetry::events_to_table;
    use scorpion_obs::{CacheHit, TelemetryEvent};

    /// A fleet of fast requests, then a burst where a slow
    /// (naive, plan-cache-miss) cell interleaves with fast requests —
    /// the audit must name the cell's attributes.
    fn planted_events() -> Vec<TelemetryEvent> {
        let mut events = Vec::new();
        for i in 0..64u64 {
            let slow = i >= 48 && i % 2 == 0;
            let mut e = TelemetryEvent::blank(i + 1, "explain");
            e.table = "sensors".into();
            e.aggregate = "avg".into();
            e.status = 200;
            e.algorithm = if slow { "naive".into() } else { "dt".into() };
            e.plan_cache = if slow { CacheHit::Miss } else { CacheHit::Hit };
            // Jitter keeps the MAD non-degenerate.
            e.total_us = if slow { 80_000 + i * 37 } else { 2_000 + i * 13 };
            e.phases_us = vec![("run.score", e.total_us * 9 / 10)];
            events.push(e);
        }
        events
    }

    #[test]
    fn audit_names_the_slow_cell() {
        let table = events_to_table(&planted_events()).unwrap();
        let audit = explain_latency(&table, &AuditConfig::default()).unwrap();
        let AuditOutcome::Explained(report) = audit.outcome else {
            panic!("expected an explanation, got {:?}", audit.outcome)
        };
        // The burst covers the last two 8-event slices.
        assert_eq!(report.slow.len(), 2);
        assert!(report.slow.iter().all(|(_, ms)| *ms >= 40.0));
        assert!(report.slow.iter().all(|(k, _)| k == "s0006" || k == "s0007"));
        let best = report.explanation.best().predicate.display(&report.table);
        assert!(
            best.contains("naive") || best.contains("plan_cache"),
            "top predicate should name the planted cell, got: {best}"
        );
    }

    #[test]
    fn quiet_telemetry_reports_no_outliers() {
        let mut events = planted_events();
        for e in &mut events {
            e.total_us = 2_000 + e.trace_id * 13;
        }
        let table = events_to_table(&events).unwrap();
        let audit = explain_latency(&table, &AuditConfig::default()).unwrap();
        assert!(matches!(audit.outcome, AuditOutcome::NoOutliers { .. }));
    }

    #[test]
    fn tiny_rings_are_too_few() {
        let table = events_to_table(&planted_events()[..4]).unwrap();
        let audit = explain_latency(&table, &AuditConfig::default()).unwrap();
        assert!(matches!(audit.outcome, AuditOutcome::TooFewEvents));
    }

    #[test]
    fn phase_columns_are_excluded_from_predicates() {
        let table = events_to_table(&planted_events()).unwrap();
        let attrs = explain_attrs(&table);
        for &a in &attrs {
            let name = table.schema().field(a).unwrap().name().to_owned();
            assert!(!name.starts_with(PHASE_COLUMN_PREFIX), "{name}");
            assert_ne!(name, LATENCY_COLUMN);
            assert_ne!(name, REQ_COLUMN);
            assert_ne!(name, SLICE_COLUMN);
        }
        // But the dimension and measure columns are all in.
        assert!(attrs.iter().any(|&a| table.schema().field(a).unwrap().name() == "algorithm"));
        assert!(attrs.iter().any(|&a| table.schema().field(a).unwrap().name() == "queue_wait_us"));
    }
}
