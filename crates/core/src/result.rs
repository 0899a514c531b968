//! Result types: scored predicates, partition statistics, diagnostics.

use scorpion_agg::Aggregate;
use scorpion_obs::PhaseTiming;
use scorpion_table::{ClauseMaskCache, Grouping, Predicate, Table};
use std::time::Duration;

/// Cached per-group statistics of a partition, recorded by the DT
/// partitioner for the Merger's cached-tuple influence approximation
/// (§6.3): the partition's cardinality `N` in the group and the
/// aggregate-attribute value of the tuple whose influence is closest to
/// the partition's mean influence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupStat {
    /// Number of the group's tuples inside the partition.
    pub n: f64,
    /// Aggregate-attribute value of the cached (mean-influence) tuple.
    pub rep_value: f64,
}

/// Per-partition statistics across all labeled groups.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartitionStats {
    /// One entry per outlier group, in Scorer order.
    pub outlier: Vec<GroupStat>,
    /// One entry per hold-out group, in Scorer order.
    pub holdout: Vec<GroupStat>,
}

/// A predicate together with its (exact or estimated) influence.
#[derive(Debug, Clone)]
pub struct ScoredPredicate {
    /// The predicate.
    pub predicate: Predicate,
    /// Influence score; exact unless stated otherwise by the producing
    /// stage.
    pub influence: f64,
    /// Cached statistics for approximation-based merging, if available.
    pub stats: Option<PartitionStats>,
}

impl ScoredPredicate {
    /// A scored predicate without cached statistics.
    pub fn new(predicate: Predicate, influence: f64) -> Self {
        ScoredPredicate { predicate, influence, stats: None }
    }
}

/// Execution metadata of one Scorpion run.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// Which algorithm produced the result (`"naive"`, `"dt"`, `"mc"`).
    pub algorithm: &'static str,
    /// Process-wide trace id of the producing request/run/slide (0 when
    /// the surface did not assign one). The same id appears in the
    /// server's `x-scorpion-trace-id` response header and in the flight
    /// recorder's event for this run.
    pub trace_id: u64,
    /// Wall-clock runtime of the search.
    pub runtime: Duration,
    /// Number of Scorer influence evaluations (cache hits excluded).
    pub scorer_calls: u64,
    /// Influence evaluations answered from a shared
    /// [`crate::scorer::InfluenceCache`] without mask work. A box
    /// one Merger call scores again is answered by that call's memo and
    /// does not reach the cache, so it is not counted.
    pub cache_hits: u64,
    /// Predicates this run's own stores evicted (LRU) from the plan's
    /// shared [`crate::scorer::InfluenceCache`] — attribution stays
    /// per-run even when concurrent runs share the cache.
    pub cache_evictions: u64,
    /// Clause-mask lookups this run made in the plan's shared
    /// [`scorpion_table::ClauseMaskCache`]: none when the influence cache
    /// answered every predicate.
    pub mask_cache_lookups: u64,
    /// The lookups the cache answered — each hit skips one full-column
    /// kernel pass.
    pub mask_cache_hits: u64,
    /// Distinct clause masks resident in the plan's cache after the
    /// run.
    pub mask_cache_entries: u64,
    /// Number of candidate predicates generated.
    pub candidates: u64,
    /// Candidates discarded by the approximate influence search's
    /// interval pruning before exact scoring (0 in exact mode).
    pub candidates_pruned: u64,
    /// Worst-case distance between a pruned candidate's estimated and
    /// true influence, from the interval the pruning decision used.
    /// `Some` whenever approximate mode was active (0.0 when nothing was
    /// pruned — every returned score is then exact); `None` in exact
    /// mode. Reported predicate scores are always exact; the bound
    /// quantifies only what pruning could have misjudged *below* the
    /// returned ranking.
    pub approx_error_bound: Option<f64>,
    /// Why approximate mode fell back to exact scoring (e.g. a
    /// black-box aggregate with no closed-form interval), when it did.
    pub approx_fallback: Option<&'static str>,
    /// Number of partitions (leaves / units) before merging.
    pub partitions: usize,
    /// True when an anytime search exhausted its budget before completing.
    pub budget_exhausted: bool,
    /// Raw rows resident in the producing sliding window (0 for offline
    /// runs). With the stream compaction tier this stays O(chunks) on
    /// quiet streams while logical rows grow with the window.
    pub resident_rows: u64,
    /// Approximate bytes resident in the producing sliding window
    /// (rows + per-group summaries + masks; 0 for offline runs).
    pub resident_bytes: u64,
    /// Per-phase wall-clock attribution of `runtime` (prepare-side
    /// phases are charged to the first run, like `scorer_calls`).
    /// Phases overlap hierarchically — e.g. `dt.split` time is inside
    /// `dt.grow` — so the entries do not sum to `runtime`.
    pub phases: Vec<PhaseTiming>,
}

/// The output of a Scorpion run: predicates ranked by influence, most
/// influential first, plus diagnostics.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Ranked predicates (best first). Non-empty on success.
    pub predicates: Vec<ScoredPredicate>,
    /// Execution metadata.
    pub diagnostics: Diagnostics,
}

impl Explanation {
    /// The most influential predicate.
    pub fn best(&self) -> &ScoredPredicate {
        &self.predicates[0]
    }

    /// Renders the top-`k` predicates for human consumption.
    pub fn render(&self, table: &Table, k: usize) -> String {
        let mut out = String::new();
        for (i, sp) in self.predicates.iter().take(k).enumerate() {
            out.push_str(&format!(
                "{:>2}. inf={:+.4}  {}\n",
                i + 1,
                sp.influence,
                sp.predicate.display(table)
            ));
        }
        out
    }

    /// The §4.1 UI preview: per result group, the aggregate value before
    /// and after deleting the best predicate's tuples ("users can click
    /// through the results and plot the updated output with the outlier
    /// input tuples removed"). Returns `(before, after)` per group.
    pub fn preview(
        &self,
        table: &Table,
        grouping: &Grouping,
        agg: &dyn Aggregate,
        agg_attr: usize,
    ) -> scorpion_table::Result<Vec<(f64, f64)>> {
        let mask = self.best().predicate.mask(table, &ClauseMaskCache::new())?;
        let vals = table.num(agg_attr)?;
        let mut out = Vec::with_capacity(grouping.len());
        let mut scratch = Vec::new();
        for g in 0..grouping.len() {
            let rows = grouping.rows(g);
            scratch.clear();
            scratch.extend(rows.iter().map(|&r| vals[r as usize]));
            let before = agg.compute(&scratch);
            scratch.clear();
            scratch.extend(rows.iter().filter(|&&r| !mask.contains(r)).map(|&r| vals[r as usize]));
            let after = agg.compute(&scratch);
            out.push((before, after));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpion_table::{Clause, Field, Schema, TableBuilder, Value};

    #[test]
    fn explanation_best_and_render() {
        let schema = Schema::new(vec![Field::cont("x")]).unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![Value::from(1.0)]).unwrap();
        let t = b.build();
        let p1 = Predicate::conjunction([Clause::range(0, 0.0, 1.0)]).unwrap();
        let p2 = Predicate::all();
        let e = Explanation {
            predicates: vec![ScoredPredicate::new(p1.clone(), 2.0), ScoredPredicate::new(p2, 1.0)],
            diagnostics: Diagnostics { algorithm: "dt", ..Default::default() },
        };
        assert_eq!(e.best().influence, 2.0);
        let s = e.render(&t, 2);
        assert!(s.contains("x in"), "{s}");
        assert!(s.contains("TRUE"), "{s}");
        assert!(s.lines().count() == 2);
    }

    #[test]
    fn scored_predicate_has_no_stats_by_default() {
        let sp = ScoredPredicate::new(Predicate::all(), 0.0);
        assert!(sp.stats.is_none());
    }

    #[test]
    fn preview_shows_before_and_after() {
        use scorpion_agg::Avg;
        let schema = Schema::new(vec![Field::disc("g"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        for (g, v) in [("a", 10.0), ("a", 90.0), ("b", 10.0)] {
            b.push_row(vec![Value::from(g), Value::from(v)]).unwrap();
        }
        let t = b.build();
        let grouping = scorpion_table::group_by(&t, &[0]).unwrap();
        let hot = Predicate::conjunction([Clause::range(1, 50.0, 100.0)]).unwrap();
        let e = Explanation {
            predicates: vec![ScoredPredicate::new(hot, 1.0)],
            diagnostics: Diagnostics::default(),
        };
        let pv = e.preview(&t, &grouping, &Avg, 1).unwrap();
        assert_eq!(pv.len(), 2);
        assert!((pv[0].0 - 50.0).abs() < 1e-9); // before: avg(10, 90)
        assert!((pv[0].1 - 10.0).abs() < 1e-9); // after: avg(10)
        assert_eq!(pv[1], (10.0, 10.0)); // group b untouched
    }
}
