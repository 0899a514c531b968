//! Warm-started continuous explanation.
//!
//! The offline engine splits every algorithm into an expensive,
//! `c`-agnostic `prepare` and a cheap `run`
//! ([`ExplainRequest::prepare`] / [`PreparedPlan`], §8.3.3
//! generalized). The prepared artifacts are *time*-agnostic too, as
//! long as the window slide does not touch the rows they were grown
//! from: the DT trees are built from the outlier groups' tuples (plus
//! hold-out carving), so a slide that only adds/drops chunks of *other*
//! groups leaves the partition geometry valid. [`ContinuousSession`]
//! exploits this by keying a cache of **prepared plans** on a **chunk
//! signature** — the set of live chunk ids contributing rows to each
//! flagged outlier group. While the signature is stable, re-explanation
//! skips tree growth entirely: the cached plan is
//! [`PreparedPlan::rebind`]-ed onto the new window state (geometry and
//! merge seeds survive; the influence cache, whose entries the new data
//! invalidated, is dropped) and re-run — cached partitions are
//! re-scored against the current window (hold-out penalties included,
//! so scores stay exact) and re-merged. When the signature changes —
//! the anomaly grew, shrank, or slid out — the session prepares cold,
//! which is itself warm-started by absorbing the previous plan's merge
//! seeds.
//!
//! The signature also covers the discrete explain attributes'
//! *dictionaries*: set clauses store dictionary codes, and codes are
//! assigned by first appearance per materialization, so a slide that
//! drops or reorders values silently renumbers them — any dictionary
//! drift forces a cold rebuild and discards merge seeds.
//!
//! Each window state hands its labeled groups to the engine as shared
//! row *masks*: the materialized [`Grouping`] caches one `Arc` row
//! slice and one `Arc` bitmap per group
//! ([`Grouping::shared_group`]), so the prepare scorer, every
//! `plan.run`, and every rebound plan over that window state read the
//! same bitmaps instead of copying fresh `Vec<u32>` row lists per
//! scorer build. Clause masks (the per-table
//! [`scorpion_table::ClauseMaskCache`]) live on the prepared plan and
//! are dropped by `rebind`, since the new materialization renumbers
//! rows.
//!
//! One approximation is inherited deliberately: a stale *hold-out* set
//! changes which boundaries §6.1.4 would carve, so warm partitions can
//! be coarser around new hold-out structure than a cold rebuild's.
//! Influence scores are always exact; only candidate geometry ages.
//! Warm merges always run exact (`rebind` drops the cached
//! per-partition stats), and so do the merges of cold plans that absorb
//! seeds, which carry none: the §6.3 cached-tuple approximation remains
//! active only inside cold builds. Two ways to keep it were measured
//! with perfbench at commit 888952d on a 2-vCPU host, and each lost on
//! one side:
//!
//! - Keeping §6.3 stats on DT warm-start seeds cut `analyst_slider`'s
//!   scorer calls per warm step from 17.5 to 1.2 and its warm p50 from
//!   1.80–1.89 ms to 1.24–1.29 ms (seeds 1–3), but warm mean top
//!   influence fell 10–12% (0.488 → 0.431 at seed 1) and warm mean
//!   F-score from 0.80–0.82 to 0.61–0.62.
//! - Fresh stats on rebound stream partitions and absorbed seeds raised
//!   `stream_monitor`'s mean top influence from 0.717 to 0.764 (seed 3),
//!   but `run.score` per warm slide went 0.54 → 1.79 ms and warm p50 rose
//!   about 2.2×.

use crate::detector::{Detection, DetectorConfig, OutlierDetector};
use crate::error::{Result, StreamError};
use crate::window::SlidingWindow;
use parking_lot::Mutex;
use scorpion_core::engine::PreparedPlan;
use scorpion_core::{Algorithm, DtConfig, ExplainRequest, Explanation, InfluenceParams};
use scorpion_obs::Phases;
use scorpion_table::{Grouping, Table};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Knobs of the continuous explanation pipeline. Every window state is
/// explained by DT at [`DtConfig::default`] over `A_rest` (every
/// attribute but the group-by and aggregate ones).
#[derive(Debug, Clone)]
pub struct ContinuousConfig {
    /// Hold-out importance trade-off λ (§3.2).
    pub lambda: f64,
    /// Selectivity exponent `c` (§7).
    pub c: f64,
    /// Outlier auto-labeling settings.
    pub detector: DetectorConfig,
}

impl Default for ContinuousConfig {
    fn default() -> Self {
        ContinuousConfig { lambda: 0.5, c: 0.5, detector: DetectorConfig::default() }
    }
}

/// A self-contained explanation of one flagged window state.
pub struct StreamExplanation {
    /// The materialized window relation.
    pub table: Arc<Table>,
    /// Its group-by provenance.
    pub grouping: Arc<Grouping>,
    /// What the detector flagged.
    pub detection: Detection,
    /// Outlier result indices into [`StreamExplanation::grouping`].
    pub outliers: Vec<usize>,
    /// Hold-out result indices.
    pub holdouts: Vec<usize>,
    /// The ranked predicates plus diagnostics.
    pub explanation: Explanation,
    /// True when the cached plan was reused (no tree growth).
    pub warm: bool,
}

impl StreamExplanation {
    /// Renders the top-`k` predicates against the window relation.
    pub fn render(&self, k: usize) -> String {
        self.explanation.render(&self.table, k)
    }
}

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Explanations served from a rebound cached plan.
    pub warm_runs: u64,
    /// Explanations that prepared (grew trees) from scratch.
    pub cold_runs: u64,
}

struct SessionCache {
    /// Chunk signature of the outlier groups the cached plan was
    /// prepared from.
    outlier_sig: Option<u64>,
    /// Signature of the explain attributes' dictionaries at cache time.
    /// Discrete clauses store dictionary *codes*, and codes are assigned
    /// by first appearance in each materialization — a slide that drops
    /// a value (or reorders first appearances) renumbers them, silently
    /// changing what a cached predicate means. Any mismatch forces a
    /// cold rebuild and discards merge seeds.
    dict_sig: Option<u64>,
    /// The prepared plan of the last explained window state.
    plan: Option<Arc<dyn PreparedPlan>>,
    stats: SessionStats,
}

/// A long-lived explanation session over a stream of window states.
pub struct ContinuousSession {
    cfg: ContinuousConfig,
    detector: OutlierDetector,
    cache: Mutex<SessionCache>,
}

impl ContinuousSession {
    /// Creates a session.
    pub fn new(cfg: ContinuousConfig) -> Self {
        let detector = OutlierDetector::new(cfg.detector.clone());
        ContinuousSession {
            cfg,
            detector,
            cache: Mutex::new(SessionCache {
                outlier_sig: None,
                dict_sig: None,
                plan: None,
                stats: SessionStats::default(),
            }),
        }
    }

    /// True when a subsequent [`ContinuousSession::explain`] against an
    /// unchanged outlier signature would reuse the cached plan.
    pub fn is_warm(&self) -> bool {
        self.cache.lock().plan.is_some()
    }

    /// Cache hit/miss counters so far.
    pub fn stats(&self) -> SessionStats {
        self.cache.lock().stats
    }

    /// Detects outliers in the window's live series and, when something
    /// is flagged, explains them. Returns `Ok(None)` on a quiet window.
    pub fn explain(&self, window: &SlidingWindow) -> Result<Option<StreamExplanation>> {
        let series = window.series();
        let Some(detection) = self.detector.detect(&series) else {
            return Ok(None);
        };
        let start = Instant::now();
        let phases = Phases::new();
        let (table, grouping) = phases.time("stream.materialize", || window.materialize())?;
        let (table, grouping) = (Arc::new(table), Arc::new(grouping));

        // Map detected keys to result indices of the materialized
        // grouping.
        let index_of: HashMap<String, usize> =
            (0..grouping.len()).map(|i| (grouping.display_key(&table, i), i)).collect();
        let mut outliers: Vec<(usize, f64)> = Vec::new();
        for (key, dir) in &detection.outliers {
            let &i = index_of
                .get(key)
                .ok_or_else(|| StreamError::BadRow(format!("flagged group {key} vanished")))?;
            outliers.push((i, *dir));
        }
        let mut holdouts: Vec<usize> = Vec::new();
        for key in &detection.holdouts {
            if let Some(&i) = index_of.get(key) {
                holdouts.push(i);
            }
        }

        let params = InfluenceParams { lambda: self.cfg.lambda, c: self.cfg.c };
        let req = ExplainRequest::from_parts(
            table.clone(),
            grouping.clone(),
            window.aggregate().clone(),
            window.config().agg_attr,
            outliers.clone(),
            holdouts.clone(),
        )?
        .with_params(params)
        .with_algorithm(Algorithm::DecisionTree(DtConfig::default()));
        let attrs = req.resolved_attrs()?;

        let outlier_sig = self.outlier_signature(window, &detection, &attrs);
        let dict_sig = dictionary_signature(&table, &attrs);

        // Reuse the cached plan while the outlier groups' chunks (and
        // the discrete dictionaries cached predicates are encoded
        // against) are untouched; otherwise prepare cold, seeded with
        // the previous plan's merged predicates when the dictionaries
        // still agree.
        let (cached_plan, dict_ok, warm) = {
            let cache = self.cache.lock();
            let dict_ok = cache.dict_sig == Some(dict_sig);
            let warm = dict_ok && cache.outlier_sig == Some(outlier_sig) && cache.plan.is_some();
            (cache.plan.clone(), dict_ok, warm)
        };
        let plan: Arc<dyn PreparedPlan> = if warm {
            let prev = cached_plan.as_ref().expect("warm implies a cached plan");
            Arc::from(prev.rebind(&req)?)
        } else {
            let fresh: Arc<dyn PreparedPlan> = Arc::from(req.prepare()?);
            if dict_ok {
                if let Some(prev) = &cached_plan {
                    fresh.absorb_seeds(prev.seeds());
                }
            }
            fresh
        };

        let mut explanation = plan.run(&params)?;
        explanation.diagnostics.algorithm = "dt-stream";
        explanation.diagnostics.runtime = start.elapsed();
        // Every slide draws from the same process-wide id sequence the
        // server stamps into `x-scorpion-trace-id`, so a slide's flight
        // recorder event is correlatable with HTTP-side telemetry.
        explanation.diagnostics.trace_id = scorpion_obs::next_trace_id();
        // Session and window-maintenance attribution and residency
        // gauges: add this slide's `stream.materialize` time and drain the
        // window's accumulated `window.compact` time into this
        // explanation's phase table, and report what the window holds.
        scorpion_obs::merge_phases(&mut explanation.diagnostics.phases, phases.take());
        scorpion_obs::merge_phases(&mut explanation.diagnostics.phases, window.phases().take());
        explanation.diagnostics.resident_rows = window.resident_rows() as u64;
        explanation.diagnostics.resident_bytes = window.resident_bytes();

        if scorpion_obs::telemetry().enabled() {
            let mut event = scorpion_obs::TelemetryEvent::blank(
                explanation.diagnostics.trace_id,
                "stream.slide",
            );
            event.table = "window".to_owned();
            event.generation = window.n_chunks() as u64;
            event.aggregate = window.aggregate().name().to_owned();
            // Plan-cache semantics on the stream path: was the prepared
            // plan rebound (warm) or grown from scratch (cold)?
            event.plan_cache = scorpion_obs::CacheHit::from_flag(warm);
            event.rows_scanned = table.len() as u64;
            event.predicates = explanation.predicates.len() as u64;
            event.status = 200;
            event.total_us = explanation.diagnostics.runtime.as_micros() as u64;
            scorpion_obs::telemetry()
                .record(scorpion_core::apply_diagnostics(event, &explanation.diagnostics));
        }

        {
            let mut cache = self.cache.lock();
            cache.plan = Some(plan);
            cache.outlier_sig = Some(outlier_sig);
            cache.dict_sig = Some(dict_sig);
            if warm {
                cache.stats.warm_runs += 1;
            } else {
                cache.stats.cold_runs += 1;
            }
        }

        Ok(Some(StreamExplanation {
            table,
            grouping,
            detection,
            outliers: outliers.into_iter().map(|(i, _)| i).collect(),
            holdouts,
            explanation,
            warm,
        }))
    }

    /// Hash of everything the cached plan's geometry depends on (apart
    /// from discrete dictionaries, tracked by [`dictionary_signature`]):
    /// the flagged groups, the live chunks backing each of them, the
    /// explanation attributes, the aggregate, and λ. Deliberately
    /// excludes `c` (single-tuple influence is `c`-agnostic, §8.3.3) and
    /// the hold-out set (a stale hold-out set only ages candidate
    /// geometry; scores stay exact).
    fn outlier_signature(
        &self,
        window: &SlidingWindow,
        detection: &Detection,
        attrs: &[usize],
    ) -> u64 {
        let mut h = DefaultHasher::new();
        window.aggregate().name().hash(&mut h);
        attrs.hash(&mut h);
        self.cfg.lambda.to_bits().hash(&mut h);
        let mut keys: Vec<&String> = detection.outliers.iter().map(|(k, _)| k).collect();
        keys.sort();
        for key in keys {
            key.hash(&mut h);
            window.chunks_of(key).hash(&mut h);
        }
        h.finish()
    }
}

/// Hash of the discrete explain attributes' dictionaries (values in code
/// order). Cached predicates encode set clauses as dictionary *codes*,
/// and each materialization assigns codes by first appearance — so two
/// windows agree on what a cached clause means iff this hash matches.
fn dictionary_signature(table: &Table, attrs: &[usize]) -> u64 {
    let mut h = DefaultHasher::new();
    for &a in attrs {
        if let Ok(cat) = table.cat(a) {
            a.hash(&mut h);
            let n = cat.cardinality();
            n.hash(&mut h);
            for code in 0..n as u32 {
                cat.value_of(code).hash(&mut h);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{SlidingWindow, StreamConfig};
    use scorpion_agg::aggregate_by_name;
    use scorpion_table::{Field, Schema, Value};

    /// Schema: hour (group), sensor (explain), temp (agg).
    fn feed_schema() -> Schema {
        Schema::new(vec![Field::disc("hour"), Field::disc("sensor"), Field::cont("temp")]).unwrap()
    }

    /// One chunk = one hour of readings; sensor "bad" goes hot during
    /// `hot_hours`.
    fn build_window(hours: usize, hot_hours: std::ops::Range<usize>) -> SlidingWindow {
        let cfg = StreamConfig::new(feed_schema(), 0, 2, hours.max(1)).unwrap();
        let mut w = SlidingWindow::new(cfg, aggregate_by_name("avg").unwrap());
        for hour in 0..hours {
            w.push_chunk(hour_chunk(hour, hot_hours.contains(&hour))).unwrap();
        }
        w
    }

    fn hour_chunk(hour: usize, hot: bool) -> Vec<Vec<Value>> {
        let key = format!("h{hour:03}");
        let mut rows = Vec::new();
        for s in 0..6 {
            let sid = format!("s{s}");
            // Deterministic small jitter keeps the MAD non-degenerate.
            let jitter = ((hour * 7 + s * 13) % 10) as f64 * 0.05;
            let temp = if hot && s == 3 { 120.0 + jitter } else { 20.0 + jitter };
            for _ in 0..3 {
                rows.push(vec![Value::Str(key.clone()), Value::Str(sid.clone()), Value::Num(temp)]);
            }
        }
        rows
    }

    fn session() -> ContinuousSession {
        ContinuousSession::new(ContinuousConfig {
            detector: DetectorConfig { min_groups: 6, ..Default::default() },
            ..Default::default()
        })
    }

    #[test]
    fn quiet_window_yields_none() {
        let w = build_window(10, 0..0);
        let s = session();
        assert!(s.explain(&w).unwrap().is_none());
        assert!(!s.is_warm());
    }

    #[test]
    fn flags_and_explains_the_planted_sensor() {
        let w = build_window(12, 8..10);
        let s = session();
        let ex = s.explain(&w).unwrap().expect("detection");
        assert!(!ex.warm);
        assert_eq!(ex.outliers.len(), 2);
        // The flagged hours are the hot ones.
        for &o in &ex.outliers {
            let key = ex.grouping.display_key(&ex.table, o);
            assert!(key == "h008" || key == "h009", "{key}");
        }
        // The predicate must single out sensor s3.
        let best = ex.explanation.best();
        let rendered = best.predicate.display(&ex.table);
        assert!(rendered.contains("s3"), "predicate was: {rendered}");
    }

    #[test]
    fn unchanged_signature_reuses_plan() {
        let mut w = build_window(12, 8..10);
        let s = session();
        let first = s.explain(&w).unwrap().expect("detection");
        assert!(!first.warm);
        assert!(s.is_warm());
        // Slide: a fresh quiet hour arrives, the oldest quiet hour
        // leaves. The hot groups' chunks are untouched.
        w.push_chunk(hour_chunk(12, false)).unwrap();
        let second = s.explain(&w).unwrap().expect("detection");
        assert!(second.warm, "outlier chunks unchanged → warm re-explanation");
        let rendered = second.explanation.best().predicate.display(&second.table);
        assert!(rendered.contains("s3"), "predicate was: {rendered}");
        assert_eq!(s.stats(), SessionStats { warm_runs: 1, cold_runs: 1 });
        // Each explained slide, cold or warm, attributes one
        // materialization.
        for ex in [&first, &second] {
            let materialize: Vec<_> = ex
                .explanation
                .diagnostics
                .phases
                .iter()
                .filter(|p| p.name == "stream.materialize")
                .collect();
            assert_eq!(materialize.len(), 1, "one stream.materialize entry");
            assert_eq!(materialize[0].count, 1, "one materialization per slide");
        }
    }

    #[test]
    fn wrong_typed_explain_cell_is_rejected_at_push() {
        // A number in the discrete `sensor` column must be rejected at
        // push: accepted, it would make every later explanation fail
        // with a type mismatch until its chunk was evicted.
        let mut w = build_window(12, 8..10);
        let s = session();
        let before = (w.n_chunks(), w.rows_ingested(), w.series());
        let mut bad = hour_chunk(12, false);
        bad[5][1] = Value::Num(3.0);
        let err = w.push_chunk(bad).unwrap_err();
        assert!(matches!(err, StreamError::BadRow(ref m) if m.contains("sensor")), "{err}");
        assert_eq!((w.n_chunks(), w.rows_ingested(), w.series()), before);
        let ex = s.explain(&w).unwrap().expect("detection");
        let rendered = ex.explanation.best().predicate.display(&ex.table);
        assert!(rendered.contains("s3"), "predicate was: {rendered}");
    }

    #[test]
    fn outlier_chunk_change_invalidates() {
        let mut w = build_window(12, 8..10);
        let s = session();
        let _ = s.explain(&w).unwrap().expect("detection");
        // A new hot hour arrives: the outlier set changes → cold rebuild.
        w.push_chunk(hour_chunk(12, true)).unwrap();
        // Make hour 12 hot by pushing its chunk with the hot sensor; the
        // detector should now flag three hours.
        let ex = s.explain(&w).unwrap().expect("detection");
        assert!(!ex.warm, "outlier set changed → cold rebuild");
        assert_eq!(ex.outliers.len(), 3);
        assert_eq!(s.stats().cold_runs, 2);
    }

    #[test]
    fn dictionary_drift_forces_cold_rebuild() {
        // Hour 0 carries a sensor ("zz") that appears first in the
        // window and nowhere else. Evicting it renumbers every other
        // sensor's dictionary code in the next materialization, so
        // cached plans (which store codes) must not be reused even
        // though the outlier hours' chunks are untouched.
        let cfg = StreamConfig::new(feed_schema(), 0, 2, 12).unwrap();
        let mut w = SlidingWindow::new(cfg, aggregate_by_name("avg").unwrap());
        for hour in 0..12 {
            let mut rows = hour_chunk(hour, (8..10).contains(&hour));
            if hour == 0 {
                rows.insert(
                    0,
                    vec![
                        Value::Str("h000".to_string()),
                        Value::Str("zz".to_string()),
                        Value::Num(20.0),
                    ],
                );
            }
            w.push_chunk(rows).unwrap();
        }
        let s = session();
        let first = s.explain(&w).unwrap().expect("detection");
        assert!(!first.warm);
        // Slide: quiet hour 12 in, hour 0 (and "zz") out.
        w.push_chunk(hour_chunk(12, false)).unwrap();
        let second = s.explain(&w).unwrap().expect("detection");
        assert!(!second.warm, "dictionary changed → cached codes are stale → cold");
        assert_eq!(s.stats(), SessionStats { warm_runs: 0, cold_runs: 2 });
        // And the rebuilt explanation still names the right sensor.
        let rendered = second.explanation.best().predicate.display(&second.table);
        assert!(rendered.contains("s3"), "predicate was: {rendered}");
    }

    #[test]
    fn warm_run_reuses_partition_geometry() {
        // Warm runs skip tree growth: the rebound plan re-scores the
        // *same* partitions (exactly, against the new window) instead of
        // growing new ones, so the candidate geometry is identical.
        let mut w = build_window(12, 8..10);
        let s = session();
        let cold = s.explain(&w).unwrap().expect("detection");
        w.push_chunk(hour_chunk(12, false)).unwrap();
        let warm = s.explain(&w).unwrap().expect("detection");
        assert!(warm.warm);
        assert_eq!(
            warm.explanation.diagnostics.partitions, cold.explanation.diagnostics.partitions,
            "rebinding must carry the partition set over unchanged"
        );
    }

    #[test]
    fn compacted_window_explains_identically() {
        // Satellite: an explanation over a compacted window must match
        // the uncompacted oracle exactly, as long as the flagged groups'
        // chunks were marked before compaction reached them. The driver
        // loop below mimics production: explain after every push and
        // feed the detection's labels back via `mark_flagged`.
        let plain_cfg = StreamConfig::new(feed_schema(), 0, 2, 12).unwrap();
        let mut plain = SlidingWindow::new(plain_cfg, aggregate_by_name("avg").unwrap());
        let cfg = StreamConfig::new(feed_schema(), 0, 2, 12).unwrap().with_compaction(3).unwrap();
        let mut compacted = SlidingWindow::new(cfg, aggregate_by_name("avg").unwrap());
        let s_plain = session();
        let s_comp = session();
        let mut last: Option<(StreamExplanation, StreamExplanation)> = None;
        let mut saw_compact_phase = false;
        for hour in 0..12 {
            let hot = (8..10).contains(&hour);
            plain.push_chunk(hour_chunk(hour, hot)).unwrap();
            compacted.push_chunk(hour_chunk(hour, hot)).unwrap();
            let a = s_plain.explain(&plain).unwrap();
            let b = s_comp.explain(&compacted).unwrap();
            if let Some(b) = &b {
                saw_compact_phase |=
                    b.explanation.diagnostics.phases.iter().any(|p| p.name == "window.compact");
                // Keep every labeled group's evidence rows resident.
                let keys: Vec<&str> = b
                    .detection
                    .outliers
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .chain(b.detection.holdouts.iter().map(|k| k.as_str()))
                    .collect();
                compacted.mark_flagged(keys);
            }
            if let (Some(a), Some(b)) = (a, b) {
                last = Some((a, b));
            }
        }
        let (a, b) = last.expect("the hot hours must be detected");
        assert!(compacted.n_compacted_chunks() > 0, "compaction must have fired");
        assert!(compacted.resident_rows() < plain.resident_rows());
        // Identical labels, predicate, and influence.
        assert_eq!(a.detection.outliers, b.detection.outliers);
        let pa = a.explanation.best();
        let pb = b.explanation.best();
        assert_eq!(pa.predicate.display(&a.table), pb.predicate.display(&b.table));
        assert!(
            (pa.influence - pb.influence).abs() <= 1e-9 * pa.influence.abs().max(1.0),
            "influence {} vs {}",
            pa.influence,
            pb.influence
        );
        // Maintenance attribution and gauges surfaced in diagnostics.
        // Each explanation drains the window's phase accumulator, so the
        // compact phase appears in whichever explanation followed the
        // compaction work.
        assert!(saw_compact_phase, "window.compact must be attributed");
        let d = &b.explanation.diagnostics;
        assert_eq!(d.resident_rows, compacted.resident_rows() as u64);
        assert!(d.resident_bytes > 0);
    }

    #[test]
    fn compaction_soak_bounds_resident_rows() {
        // A long quiet stream with a huge window: resident raw rows
        // must stay bounded by the keep-recent horizon, not grow with
        // the window.
        let cfg = StreamConfig::new(feed_schema(), 0, 2, 500).unwrap().with_compaction(4).unwrap();
        let mut w = SlidingWindow::new(cfg, aggregate_by_name("avg").unwrap());
        let rows_per_chunk = hour_chunk(0, false).len();
        let mut peak = 0usize;
        for hour in 0..300 {
            w.push_chunk(hour_chunk(hour, false)).unwrap();
            peak = peak.max(w.resident_rows());
        }
        assert_eq!(w.n_chunks(), 300);
        assert!(
            peak <= rows_per_chunk * 5,
            "resident rows must be O(keep_recent), got peak {peak}"
        );
        // Logical series still spans every live chunk.
        let s = w.series();
        assert_eq!(s.iter().map(|g| g.rows).sum::<usize>(), 300 * rows_per_chunk);
    }

    #[test]
    fn slides_carry_correlatable_trace_ids_and_record_telemetry() {
        // The stream binary's only user of the process-global flight
        // recorder; the audit tests build tables from literal events.
        scorpion_obs::telemetry().enable();
        let mut w = build_window(12, 8..10);
        let s = session();
        let cold = s.explain(&w).unwrap().expect("detection");
        w.push_chunk(hour_chunk(12, false)).unwrap();
        let warm = s.explain(&w).unwrap().expect("detection");
        scorpion_obs::telemetry().disable();

        let (id_cold, id_warm) =
            (cold.explanation.diagnostics.trace_id, warm.explanation.diagnostics.trace_id);
        assert!(id_cold > 0 && id_warm > id_cold, "ids are issued, distinct, and ordered");

        let events = scorpion_obs::telemetry().snapshot();
        let slide = |id| events.iter().find(|e| e.trace_id == id).expect("slide event recorded");
        let (ev_cold, ev_warm) = (slide(id_cold), slide(id_warm));
        assert_eq!(ev_cold.endpoint, "stream.slide");
        assert_eq!(ev_cold.algorithm, "dt-stream");
        assert_eq!(ev_cold.aggregate, "avg");
        assert_eq!(ev_cold.plan_cache, scorpion_obs::CacheHit::Miss);
        assert_eq!(ev_warm.plan_cache, scorpion_obs::CacheHit::Hit);
        assert!(ev_cold.rows_scanned > 0 && ev_cold.predicates > 0);
        assert!(ev_cold.resident_bytes > 0, "window residency flows into the event");
    }

    #[test]
    fn render_shows_ranked_predicates() {
        let w = build_window(12, 8..10);
        let ex = session().explain(&w).unwrap().expect("detection");
        let text = ex.render(3);
        assert!(text.contains("inf="), "{text}");
    }
}
