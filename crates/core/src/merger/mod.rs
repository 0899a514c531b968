//! The Merger (§4.3): greedily expands high-influence predicates by
//! merging them with adjacent predicates while influence increases.
//!
//! Two optimizations from §6.3:
//!
//! 1. **Top-quartile expansion** — only predicates whose influence lies in
//!    the top quartile of the input ranking are expanded as seeds.
//! 2. **Cached-tuple approximation** — for incrementally removable
//!    aggregates, the influence of a merged box is *estimated* from each
//!    input partition's cardinality and cached mean-influence tuple,
//!    weighted by the volume each partition contributes to the merged box
//!    (Figure 7), avoiding Scorer calls entirely during expansion. Final
//!    results are re-scored exactly.
//!
//!    Each estimate visits every input partition once and allocates
//!    nothing per partition. A partition's volume, its `[lo, hi)` bounds
//!    on each attribute, and the aggregate states of its representative
//!    tuples are computed once per [`Merger::merge`] call, and only when
//!    this path is active. A partition whose range on some attribute is
//!    disjoint from the merged box's (`!(max(lo, lo′) < min(hi, hi′))`)
//!    is skipped from those flat bounds alone. That is the test the
//!    exact intersection makes of two range clauses, so a skipped
//!    partition is one whose intersection is empty and which
//!    contributed nothing before. DT partitions tile the space, so most
//!    partitions are skipped this way. For the rest, the volume of the
//!    intersection is computed
//!    directly from the two boxes' clauses
//!    ([`Predicate::intersect_volume_fraction`]); the intersection
//!    predicate is never built.
//!
//! Each [`Merger::merge`] call scores a merged box once. Seeds, steps
//! and candidates often meet the same hull again, so the call keeps a
//! memo from each box it has scored to its `(influence, stats)`, keyed by
//! the [`Predicate`] (whose clauses compare and hash their bounds by
//! bit pattern), and dropped when the call returns. The memo is exact:
//! within one call a cached-tuple estimate depends only on the box
//! (the items and their cached tuples are fixed), and an exact score is
//! the box's [`Scorer::influence`], which returns the same bits on every
//! call. A memo hit skips the estimate, the Scorer and its
//! [`crate::scorer::InfluenceCache`] alike.
//!
//! Deviation note: the paper's contribution formula divides by `V_{p*}`;
//! we use the standard uniform-density estimate
//! `n_i = N_i · V(p_i ∩ p*) / V(p_i)` (the count of `p_i`'s tuples that
//! fall inside the merged box under uniformity), which is exact when the
//! merged box fully covers each input partition — DT partitions tile the
//! space disjointly, so the paper's `0.5·V₁₂` double-count correction for
//! overlapping partitions never triggers and is omitted.

use crate::config::MergerConfig;
use crate::error::Result;
use crate::result::{GroupStat, PartitionStats, ScoredPredicate};
use crate::scorer::Scorer;
use scorpion_agg::AggState;
use scorpion_obs::span;
use scorpion_table::{AttrDomain, Clause, Predicate};
use std::collections::{HashMap, HashSet};

/// Adjacency tolerance as a fraction of each attribute's domain span.
const ADJACENCY_EPS: f64 = 1e-6;

/// Greedy bounding-box merger over scored predicates.
pub struct Merger<'s, 'a> {
    scorer: &'s Scorer<'a>,
    domains: &'s [AttrDomain],
    cfg: MergerConfig,
}

/// Counters describing one merge run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeDiag {
    /// Number of seeds expanded.
    pub seeds: usize,
    /// Number of accepted merge steps.
    pub merges: usize,
    /// Number of influence estimates served by the cached-tuple
    /// approximation (zero when the optimization is off). A box the
    /// call's memo answers is not estimated again, and not counted.
    pub approx_estimates: u64,
    /// Number of exact Scorer evaluations during expansion, memo hits
    /// excluded as for `approx_estimates`.
    pub exact_estimates: u64,
}

impl<'s, 'a> Merger<'s, 'a> {
    /// Creates a merger bound to a scorer and the table's attribute
    /// domains.
    pub fn new(scorer: &'s Scorer<'a>, domains: &'s [AttrDomain], cfg: MergerConfig) -> Self {
        Merger { scorer, domains, cfg }
    }

    /// Merges the ranked input list, returning a ranked result list
    /// (exactly scored, best first) and diagnostics.
    pub fn merge(&self, input: Vec<ScoredPredicate>) -> Result<(Vec<ScoredPredicate>, MergeDiag)> {
        let mut diag = MergeDiag::default();
        if input.is_empty() {
            return Ok((Vec::new(), diag));
        }
        // Rank and dedup.
        let mut items = dedup_by_predicate(input);
        items.sort_by(|a, b| b.influence.total_cmp(&a.influence));

        let approx_ok = self.cfg.use_cached_tuples
            && self.scorer.incremental_agg().is_some()
            && items.iter().all(|i| i.stats.is_some());
        // Built only for the cached-tuple path, so exact merges pay
        // nothing for it.
        let tuples = if approx_ok { self.cached_tuples(&items) } else { Vec::new() };

        let n_seeds =
            if self.cfg.top_quartile_only { (items.len().div_ceil(4)).max(1) } else { items.len() };

        let mut consumed = vec![false; items.len()];
        let mut results: Vec<ScoredPredicate> = Vec::new();
        // The estimate of every merged box this call has scored (see the
        // module doc's memo note).
        let mut memo: HashMap<Predicate, (f64, Option<PartitionStats>)> = HashMap::new();

        for seed in 0..n_seeds {
            if consumed[seed] {
                continue;
            }
            consumed[seed] = true;
            diag.seeds += 1;
            let _span = span!("merge.pass");
            let mut cur = items[seed].clone();
            for _ in 0..self.cfg.max_expansions {
                let mut best: Option<(usize, Predicate, f64)> = None;
                for (j, cand) in items.iter().enumerate() {
                    if consumed[j]
                        || !cur.predicate.is_adjacent(&cand.predicate, self.domains, ADJACENCY_EPS)
                    {
                        continue;
                    }
                    if self.cfg.require_same_attrs
                        && !cur.predicate.attrs().eq(cand.predicate.attrs())
                    {
                        continue;
                    }
                    let merged_pred = cur.predicate.hull(&cand.predicate);
                    if merged_pred == cur.predicate {
                        // Candidate already inside the current box; absorb
                        // it without re-estimating.
                        consumed[j] = true;
                        continue;
                    }
                    let influence = match memo.get(&merged_pred) {
                        Some(&(influence, _)) => influence,
                        None => {
                            let est = if approx_ok {
                                diag.approx_estimates += 1;
                                self.estimate_from_stats(&merged_pred, &items, &tuples)?
                            } else {
                                diag.exact_estimates += 1;
                                (self.scorer.influence(&merged_pred)?, None)
                            };
                            let influence = est.0;
                            memo.insert(merged_pred.clone(), est);
                            influence
                        }
                    };
                    if influence > cur.influence
                        && best.as_ref().is_none_or(|&(_, _, b)| influence > b)
                    {
                        best = Some((j, merged_pred, influence));
                    }
                }
                match best {
                    Some((j, predicate, influence)) => {
                        consumed[j] = true;
                        diag.merges += 1;
                        let stats = memo[&predicate].1.clone();
                        cur = ScoredPredicate { predicate, influence, stats };
                    }
                    None => break,
                }
            }
            results.push(cur);
        }

        // Unexpanded, unconsumed predicates pass through unchanged.
        for (j, item) in items.into_iter().enumerate() {
            if !consumed[j] {
                results.push(item);
            }
        }

        // Re-score the head of the ranking exactly (approximate scores are
        // only trusted for steering the expansion), and simplify away
        // clauses that span an attribute's full domain.
        results.sort_by(|a, b| b.influence.total_cmp(&a.influence));
        results.truncate(self.cfg.max_results.max(1));
        for r in &mut results {
            r.predicate = r.predicate.simplify(self.domains);
            r.influence = self.scorer.influence(&r.predicate)?;
        }
        results.sort_by(|a, b| b.influence.total_cmp(&a.influence));
        let results = dedup_by_predicate(results);
        Ok((results, diag))
    }

    /// The per-item inputs of [`Merger::estimate_from_stats`] that do
    /// not depend on the merged box, aligned with `items`. Every item
    /// must carry stats.
    fn cached_tuples(&self, items: &[ScoredPredicate]) -> Vec<CachedTuple> {
        let inc = self.scorer.incremental_agg().expect("approx requires incremental");
        let states =
            |groups: &[GroupStat]| groups.iter().map(|st| inc.state_one(st.rep_value)).collect();
        items
            .iter()
            .map(|item| {
                let stats = item.stats.as_ref().expect("approx requires stats on every item");
                CachedTuple {
                    volume: item.predicate.volume_fraction(self.domains),
                    bounds: range_bounds(&item.predicate, self.domains.len()),
                    outlier: states(&stats.outlier),
                    holdout: states(&stats.holdout),
                }
            })
            .collect()
    }

    /// §6.3 cached-tuple estimate of `merged`'s influence, built from the
    /// volume-weighted contributions of every input partition. Each
    /// item's share is `V(item ∩ merged) / V(item)`; the intersection's
    /// volume is computed directly from the two boxes
    /// ([`Predicate::intersect_volume_fraction`]), and the intersection
    /// predicate is never built, and an item disjoint from `merged` on
    /// one of its ranges is skipped before that ([`disjoint`]).
    /// `tuples` are the items' cached volumes, bounds and
    /// representative states ([`Merger::cached_tuples`]).
    fn estimate_from_stats(
        &self,
        merged: &Predicate,
        items: &[ScoredPredicate],
        tuples: &[CachedTuple],
    ) -> Result<(f64, Option<PartitionStats>)> {
        let inc = self.scorer.incremental_agg().expect("approx requires incremental");
        let n_out = self.scorer.n_outliers();
        let n_hold = self.scorer.n_holdouts();
        let mut out: Vec<(f64, AggState)> = vec![(0.0, inc.empty()); n_out];
        let mut hold: Vec<(f64, AggState)> = vec![(0.0, inc.empty()); n_hold];
        // Accumulators for the merged partition's own stats (weighted mean
        // of representative values).
        let mut rep_out = vec![0.0f64; n_out];
        let mut rep_hold = vec![0.0f64; n_hold];

        let checks = range_checks(merged);
        for (item, tuple) in items.iter().zip(tuples) {
            let Some(stats) = &item.stats else { continue };
            if tuple.volume <= 0.0 || disjoint(&tuple.bounds, &checks) {
                continue;
            }
            let Some(inter) = item.predicate.intersect_volume_fraction(merged, self.domains) else {
                continue;
            };
            let frac = (inter / tuple.volume).clamp(0.0, 1.0);
            if frac <= 0.0 {
                continue;
            }
            for (g, (st, one)) in stats.outlier.iter().zip(&tuple.outlier).enumerate() {
                let n_i = st.n * frac;
                if n_i > 0.0 {
                    out[g].0 += n_i;
                    out[g].1.accumulate(&one.scale(n_i));
                    rep_out[g] += st.rep_value * n_i;
                }
            }
            for (g, (st, one)) in stats.holdout.iter().zip(&tuple.holdout).enumerate() {
                let n_i = st.n * frac;
                if n_i > 0.0 {
                    hold[g].0 += n_i;
                    hold[g].1.accumulate(&one.scale(n_i));
                    rep_hold[g] += st.rep_value * n_i;
                }
            }
        }
        let influence = self.scorer.influence_from_states(&out, &hold)?;
        let stats = PartitionStats {
            outlier: out
                .iter()
                .zip(&rep_out)
                .map(|((n, _), rep)| GroupStat {
                    n: *n,
                    rep_value: if *n > 0.0 { rep / n } else { 0.0 },
                })
                .collect(),
            holdout: hold
                .iter()
                .zip(&rep_hold)
                .map(|((n, _), rep)| GroupStat {
                    n: *n,
                    rep_value: if *n > 0.0 { rep / n } else { 0.0 },
                })
                .collect(),
        };
        Ok((influence, Some(stats)))
    }
}

/// What the cached-tuple estimate needs of one input partition,
/// whatever the merged box: its volume fraction, its bounds
/// ([`range_bounds`]) and, per labeled group, the aggregate state of
/// its representative tuple.
struct CachedTuple {
    volume: f64,
    bounds: Box<[(f64, f64)]>,
    outlier: Vec<AggState>,
    holdout: Vec<AggState>,
}

/// `pred`'s `[lo, hi)` on each of the first `n_attrs` attributes, as
/// flat pairs: its range clause's bounds, or `(−∞, +∞)` where it has no
/// range clause on the attribute.
fn range_bounds(pred: &Predicate, n_attrs: usize) -> Box<[(f64, f64)]> {
    let bounds = |a| match pred.clause(a) {
        Some(&Clause::Range { lo, hi, .. }) => (lo, hi),
        _ => (f64::NEG_INFINITY, f64::INFINITY),
    };
    (0..n_attrs).map(bounds).collect()
}

/// The ranges of `merged` that [`disjoint`] tests an item against:
/// `(attr, lo, hi)` for each of its range clauses whose bounds are not
/// NaN.
fn range_checks(merged: &Predicate) -> Vec<(usize, f64, f64)> {
    let check = |c: &Clause| match *c {
        Clause::Range { attr, lo, hi } if !lo.is_nan() && !hi.is_nan() => Some((attr, lo, hi)),
        _ => None,
    };
    merged.clauses().filter_map(check).collect()
}

/// Whether an item with bounds `bounds` ([`range_bounds`]) is disjoint
/// from the merged box on one of its `checks` ([`range_checks`]). When
/// it is, `intersect_volume_fraction` of the two is `None`. Where the
/// item has a range clause, the test is the one [`Clause`]
/// intersection makes of two ranges, with the same operands. Where it
/// has none, its `(−∞, +∞)` reduces the test to the merged range being
/// empty; NaN-free bounds make that exact, and an empty clause of the
/// merged box makes the intersection `None`.
fn disjoint(bounds: &[(f64, f64)], checks: &[(usize, f64, f64)]) -> bool {
    let overlaps = |&(attr, lo, hi): &(usize, f64, f64)| {
        let (item_lo, item_hi) = bounds[attr];
        item_lo.max(lo) < item_hi.min(hi)
    };
    !checks.iter().all(overlaps)
}

/// Removes duplicate predicates, keeping the first (highest-scored after
/// sorting) occurrence.
fn dedup_by_predicate(input: Vec<ScoredPredicate>) -> Vec<ScoredPredicate> {
    let mut seen: HashSet<Predicate> = HashSet::with_capacity(input.len());
    input.into_iter().filter(|sp| seen.insert(sp.predicate.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfluenceParams;
    use crate::scorer::GroupSpec;
    use scorpion_agg::Avg;
    use scorpion_table::{domains_of, group_by, Clause, Field, Schema, Table, TableBuilder, Value};

    /// One outlier group, one hold-out group over x ∈ [0, 10). In the
    /// outlier group, tuples with x ∈ [2, 6) have value 100 (split across
    /// two partitions [2,4) and [4,6) that the Merger should recombine);
    /// the rest are 10. Hold-out is uniform 10.
    fn table() -> Table {
        let schema =
            Schema::new(vec![Field::disc("g"), Field::cont("x"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..100 {
            let x = i as f64 * 0.1;
            let v = if (2.0..6.0).contains(&x) { 100.0 } else { 10.0 };
            b.push_row(vec![Value::from("o"), Value::from(x), Value::from(v)]).unwrap();
            b.push_row(vec![Value::from("h"), Value::from(x), Value::from(10.0)]).unwrap();
        }
        b.build()
    }

    fn scorer(t: &Table) -> Scorer<'_> {
        let g = group_by(t, &[0]).unwrap();
        Scorer::new(
            t,
            &Avg,
            2,
            vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
            vec![GroupSpec { rows: g.rows(1).to_vec(), error: 1.0 }],
            InfluenceParams { lambda: 0.8, c: 0.0 },
        )
        .unwrap()
    }

    fn part(t: &Table, s: &Scorer<'_>, lo: f64, hi: f64) -> ScoredPredicate {
        let pred = Predicate::conjunction([Clause::range(1, lo, hi)]).unwrap();
        let inf = s.influence(&pred).unwrap();
        // Stats: exact cardinality and representative value per group.
        let x = t.num(1).unwrap();
        let v = t.num(2).unwrap();
        let stat_of = |rows: &[u32]| {
            let matched: Vec<u32> =
                rows.iter().copied().filter(|&r| (lo..hi).contains(&x[r as usize])).collect();
            let n = matched.len() as f64;
            let rep = if matched.is_empty() { 0.0 } else { v[matched[matched.len() / 2] as usize] };
            GroupStat { n, rep_value: rep }
        };
        let g = group_by(t, &[0]).unwrap();
        ScoredPredicate {
            predicate: pred,
            influence: inf,
            stats: Some(PartitionStats {
                outlier: vec![stat_of(g.rows(0))],
                holdout: vec![stat_of(g.rows(1))],
            }),
        }
    }

    fn partition_grid(t: &Table, s: &Scorer<'_>) -> Vec<ScoredPredicate> {
        (0..5).map(|i| part(t, s, i as f64 * 2.0, (i + 1) as f64 * 2.0)).collect()
    }

    #[test]
    fn merges_adjacent_hot_partitions_exact() {
        let t = table();
        let s = scorer(&t);
        let d = domains_of(&t).unwrap();
        let cfg = MergerConfig {
            use_cached_tuples: false,
            top_quartile_only: false,
            ..MergerConfig::default()
        };
        let (merged, diag) = Merger::new(&s, &d, cfg).merge(partition_grid(&t, &s)).unwrap();
        assert!(diag.merges >= 1, "{diag:?}");
        let best = &merged[0];
        // Best box must cover [2, 6) and exclude the cold ends.
        let clause = best.predicate.clause(1).unwrap();
        assert!(clause.matches_num(2.5) && clause.matches_num(5.5), "{clause:?}");
        assert!(!clause.matches_num(0.5) && !clause.matches_num(9.5), "{clause:?}");
        // Output is ranked.
        for w in merged.windows(2) {
            assert!(w[0].influence >= w[1].influence);
        }
    }

    #[test]
    fn approximation_steers_to_same_box_without_scorer_calls() {
        let t = table();
        let s = scorer(&t);
        let d = domains_of(&t).unwrap();
        let cfg = MergerConfig {
            use_cached_tuples: true,
            top_quartile_only: false,
            ..MergerConfig::default()
        };
        let before = s.scorer_calls();
        let (merged, diag) = Merger::new(&s, &d, cfg).merge(partition_grid(&t, &s)).unwrap();
        assert!(diag.approx_estimates > 0);
        assert_eq!(diag.exact_estimates, 0);
        let clause = merged[0].predicate.clause(1).unwrap();
        assert!(clause.matches_num(2.5) && clause.matches_num(5.5));
        assert!(!clause.matches_num(0.5));
        // Only the final re-scoring pass touches the Scorer.
        let calls = s.scorer_calls() - before;
        assert!(calls <= cfg_max_results() as u64 + 1, "calls = {calls}");
    }

    fn cfg_max_results() -> usize {
        MergerConfig::default().max_results
    }

    #[test]
    fn top_quartile_limits_seeds() {
        let t = table();
        let s = scorer(&t);
        let d = domains_of(&t).unwrap();
        let input = partition_grid(&t, &s);
        let cfg = MergerConfig {
            use_cached_tuples: false,
            top_quartile_only: true,
            ..MergerConfig::default()
        };
        let (_, diag) = Merger::new(&s, &d, cfg).merge(input.clone()).unwrap();
        // ceil(5/4) = 2 seeds at most.
        assert!(diag.seeds <= 2, "{diag:?}");
        let cfg_all = MergerConfig {
            use_cached_tuples: false,
            top_quartile_only: false,
            ..MergerConfig::default()
        };
        let (_, diag_all) = Merger::new(&s, &d, cfg_all).merge(input).unwrap();
        assert!(diag_all.seeds >= diag.seeds);
    }

    #[test]
    fn empty_input_is_ok() {
        let t = table();
        let s = scorer(&t);
        let d = domains_of(&t).unwrap();
        let (out, diag) = Merger::new(&s, &d, MergerConfig::default()).merge(Vec::new()).unwrap();
        assert!(out.is_empty());
        assert_eq!(diag, MergeDiag::default());
    }

    /// Figure 7's scenario: merging p1 and p2 produces a hull that also
    /// overlaps a *third* partition p3; the cached-tuple estimate must
    /// include p3's volume-weighted contribution, or it would
    /// under-estimate the number of deleted tuples.
    #[test]
    fn approximation_counts_unmerged_overlapping_partitions() {
        let t = table();
        let s = scorer(&t);
        let d = domains_of(&t).unwrap();
        // Partitions: p1 = [2,4), p2 = [4,6) (both hot), p3 = [0,2)
        // (cold). The hull of p1 and p2 is [2,6) — p3 does not overlap,
        // so first check the baseline...
        let p1 = part(&t, &s, 2.0, 4.0);
        let p2 = part(&t, &s, 4.0, 6.0);
        let p3 = part(&t, &s, 0.0, 2.0);
        let cfg = MergerConfig {
            use_cached_tuples: true,
            top_quartile_only: false,
            ..MergerConfig::default()
        };
        let merger = Merger::new(&s, &d, cfg);
        let (out, diag) = merger.merge(vec![p1, p2, p3]).unwrap();
        assert!(diag.approx_estimates > 0);
        // ... the merged box's final (exact) influence matches the exact
        // influence of the same box computed directly — i.e. the estimate
        // steered to a box whose stats were assembled from *all* three
        // partitions' contributions without double counting.
        let best = &out[0];
        let direct = s.influence(&best.predicate).unwrap();
        assert!((best.influence - direct).abs() < 1e-9);
        // The winning box covers the hot region [2,6).
        let clause = best.predicate.clause(1).unwrap();
        assert!(clause.matches_num(2.5) && clause.matches_num(5.5));
    }

    /// The approximate estimate itself (pre-rescoring) should be close to
    /// the exact influence when partitions are uniform — validating the
    /// volume-weighted contribution formula.
    #[test]
    fn approximate_estimate_is_accurate_on_uniform_partitions() {
        let t = table();
        let s = scorer(&t);
        let d = domains_of(&t).unwrap();
        let parts = partition_grid(&t, &s);
        let cfg = MergerConfig {
            use_cached_tuples: true,
            top_quartile_only: false,
            ..MergerConfig::default()
        };
        let merger = Merger::new(&s, &d, cfg);
        // Estimate the hull of the two hot partitions ([2,4) ∪ [4,6)).
        let hull = parts[1].predicate.hull(&parts[2].predicate);
        let tuples = merger.cached_tuples(&parts);
        let (est, _) = merger.estimate_from_stats(&hull, &parts, &tuples).unwrap();
        let exact = s.influence(&hull).unwrap();
        let rel = (est - exact).abs() / exact.abs().max(1.0);
        assert!(rel < 0.05, "estimate {est} vs exact {exact}");
    }

    #[test]
    fn duplicate_predicates_are_deduped() {
        let t = table();
        let s = scorer(&t);
        let d = domains_of(&t).unwrap();
        let p = part(&t, &s, 2.0, 4.0);
        let (out, _) = Merger::new(
            &s,
            &d,
            MergerConfig { top_quartile_only: false, ..MergerConfig::default() },
        )
        .merge(vec![p.clone(), p.clone(), p])
        .unwrap();
        let preds: HashSet<_> = out.iter().map(|sp| sp.predicate.clone()).collect();
        assert_eq!(preds.len(), out.len());
    }

    /// The retired memo-free `merge`: every candidate hull is estimated
    /// or scored afresh, however often it recurs.
    fn merge_unmemoized(
        m: &Merger<'_, '_>,
        input: Vec<ScoredPredicate>,
    ) -> Result<(Vec<ScoredPredicate>, MergeDiag)> {
        let mut diag = MergeDiag::default();
        if input.is_empty() {
            return Ok((Vec::new(), diag));
        }
        let mut items = dedup_by_predicate(input);
        items.sort_by(|a, b| b.influence.total_cmp(&a.influence));
        let approx_ok = m.cfg.use_cached_tuples
            && m.scorer.incremental_agg().is_some()
            && items.iter().all(|i| i.stats.is_some());
        let tuples = if approx_ok { m.cached_tuples(&items) } else { Vec::new() };
        let n_seeds =
            if m.cfg.top_quartile_only { (items.len().div_ceil(4)).max(1) } else { items.len() };
        let mut consumed = vec![false; items.len()];
        let mut results: Vec<ScoredPredicate> = Vec::new();
        for seed in 0..n_seeds {
            if consumed[seed] {
                continue;
            }
            consumed[seed] = true;
            diag.seeds += 1;
            let mut cur = items[seed].clone();
            for _ in 0..m.cfg.max_expansions {
                let mut best: Option<(usize, ScoredPredicate)> = None;
                for (j, cand) in items.iter().enumerate() {
                    if consumed[j]
                        || !cur.predicate.is_adjacent(&cand.predicate, m.domains, ADJACENCY_EPS)
                    {
                        continue;
                    }
                    if m.cfg.require_same_attrs && !cur.predicate.attrs().eq(cand.predicate.attrs())
                    {
                        continue;
                    }
                    let merged_pred = cur.predicate.hull(&cand.predicate);
                    if merged_pred == cur.predicate {
                        consumed[j] = true;
                        continue;
                    }
                    let est = if approx_ok {
                        diag.approx_estimates += 1;
                        m.estimate_from_stats(&merged_pred, &items, &tuples)?
                    } else {
                        diag.exact_estimates += 1;
                        (m.scorer.influence(&merged_pred)?, None)
                    };
                    if est.0 > cur.influence
                        && best.as_ref().is_none_or(|(_, b)| est.0 > b.influence)
                    {
                        let (influence, stats) = est;
                        best =
                            Some((j, ScoredPredicate { predicate: merged_pred, influence, stats }));
                    }
                }
                match best {
                    Some((j, merged)) => {
                        consumed[j] = true;
                        diag.merges += 1;
                        cur = merged;
                    }
                    None => break,
                }
            }
            results.push(cur);
        }
        for (j, item) in items.into_iter().enumerate() {
            if !consumed[j] {
                results.push(item);
            }
        }
        results.sort_by(|a, b| b.influence.total_cmp(&a.influence));
        results.truncate(m.cfg.max_results.max(1));
        for r in &mut results {
            r.predicate = r.predicate.simplify(m.domains);
            r.influence = m.scorer.influence(&r.predicate)?;
        }
        results.sort_by(|a, b| b.influence.total_cmp(&a.influence));
        Ok((dedup_by_predicate(results), diag))
    }

    /// Two outlier groups and one hold-out group over `x ∈ [0, 10)`, a
    /// five-code `s` and `y ∈ [−5, 5)`. Outlier values are high where
    /// `x < 5` and `s` is one of its first two codes.
    fn table_3d() -> Table {
        let schema = Schema::new(vec![
            Field::disc("g"),
            Field::cont("x"),
            Field::disc("s"),
            Field::cont("y"),
            Field::cont("v"),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..300usize {
            let x = (i * 7 % 100) as f64 * 0.1;
            let y = (i * 13 % 100) as f64 * 0.1 - 5.0;
            let (g, s) = (["o1", "o2", "h"][i % 3], i % 5);
            let v = if g != "h" && x < 5.0 && s < 2 { 80.0 + y } else { 10.0 + (i % 7) as f64 };
            let row = vec![g.into(), x.into(), format!("s{s}").into(), y.into(), v.into()];
            b.push_row(row).unwrap();
        }
        b.build()
    }

    /// `sp`'s predicate, then its influence and stats as bit patterns.
    fn bits(sp: &ScoredPredicate) -> (Predicate, u64, Option<Vec<(u64, u64)>>) {
        let stats = sp.stats.as_ref().map(|s| {
            s.outlier.iter().chain(&s.holdout).map(|g| (g.n.to_bits(), g.rep_value.to_bits()))
        });
        (sp.predicate.clone(), sp.influence.to_bits(), stats.map(Iterator::collect))
    }

    /// Random partition sets over `x`, `s` and `y`: range clauses with
    /// ±∞ and NaN bounds, `In` clauses, and items with and without
    /// stats, so both the cached-tuple path and the exact path run, the
    /// latter with and without an influence cache. `merge` returns the
    /// memo-free merge's predicates, influence and stats bits, seeds and
    /// merges, and never estimates more.
    #[test]
    fn memoized_merge_matches_the_memo_free_merge() {
        use crate::scorer::InfluenceCache;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::Arc;
        let t = table_3d();
        let d = domains_of(&t).unwrap();
        let g = group_by(&t, &[0]).unwrap();
        let rows = |key: &str| {
            let i = (0..g.len()).find(|&i| g.display_key(&t, i) == key).unwrap();
            g.rows(i).to_vec()
        };
        let uncached = Scorer::new(
            &t,
            &Avg,
            4,
            vec![
                GroupSpec { rows: rows("o1"), error: 1.0 },
                GroupSpec { rows: rows("o2"), error: 0.5 },
            ],
            vec![GroupSpec { rows: rows("h"), error: 1.0 }],
            InfluenceParams { lambda: 0.7, c: 0.5 },
        )
        .unwrap();
        let cached = uncached
            .with_params(uncached.params())
            .unwrap()
            .with_cache(Arc::new(InfluenceCache::new()));
        let x_edges = [f64::NEG_INFINITY, 0.0, 2.5, 5.0, 7.5, 10.0, f64::INFINITY, f64::NAN];
        let y_edges = [f64::NEG_INFINITY, -5.0, 0.0, 2.5, 5.0, f64::INFINITY, f64::NAN];
        let mut rng = StdRng::seed_from_u64(21);
        let (mut approx_sets, mut exact_sets, mut saved_sets) = (0, 0, 0);
        for case in 0..400 {
            let s = if rng.random_range(0..2u32) == 0 { &uncached } else { &cached };
            let n_attrs = rng.random_range(2..4usize);
            let stats_for_all = rng.random_range(0..3u32) > 0;
            let mut items = Vec::new();
            for i in 0..rng.random_range(1..25usize) {
                let mut p = Predicate::all();
                for attr in [1, 2, 3].into_iter().take(n_attrs) {
                    if rng.random_range(0..5u32) == 0 {
                        continue;
                    }
                    p = p.with_clause(if attr == 2 {
                        Clause::in_set(2, (0..5u32).filter(|_| rng.random_range(0..2u32) == 0))
                    } else {
                        let edges: &[f64] = if attr == 1 { &x_edges } else { &y_edges };
                        let lo = edges[rng.random_range(0..edges.len())];
                        Clause::range(attr, lo, edges[rng.random_range(0..edges.len())])
                    });
                }
                let mut stat = || GroupStat {
                    n: rng.random_range(0..40u32) as f64,
                    rep_value: rng.random_range(0..100u32) as f64,
                };
                let stats = (stats_for_all || i % 4 != 0).then(|| PartitionStats {
                    outlier: vec![stat(), stat()],
                    holdout: vec![stat()],
                });
                let influence = s.influence(&p).unwrap();
                items.push(ScoredPredicate { predicate: p, influence, stats });
            }
            let cfg = MergerConfig {
                top_quartile_only: rng.random_range(0..2u32) == 0,
                use_cached_tuples: rng.random_range(0..4u32) > 0,
                require_same_attrs: rng.random_range(0..4u32) == 0,
                max_expansions: [1, 3, 64][rng.random_range(0..3usize)],
                max_results: [1, 4, 16][rng.random_range(0..3usize)],
            };
            let merger = Merger::new(s, &d, cfg);
            let (got, got_diag) = merger.merge(items.clone()).unwrap();
            let (want, want_diag) = merge_unmemoized(&merger, items).unwrap();
            let got: Vec<_> = got.iter().map(bits).collect();
            let want: Vec<_> = want.iter().map(bits).collect();
            assert_eq!(got, want, "case {case}");
            assert_eq!((got_diag.seeds, got_diag.merges), (want_diag.seeds, want_diag.merges));
            assert!(got_diag.approx_estimates <= want_diag.approx_estimates, "case {case}");
            assert!(got_diag.exact_estimates <= want_diag.exact_estimates, "case {case}");
            approx_sets += usize::from(got_diag.approx_estimates > 0);
            exact_sets += usize::from(got_diag.exact_estimates > 0);
            saved_sets += usize::from(
                got_diag.approx_estimates + got_diag.exact_estimates
                    < want_diag.approx_estimates + want_diag.exact_estimates,
            );
        }
        println!("approx {approx_sets}, exact {exact_sets}, memo hits in {saved_sets}");
        assert!(approx_sets > 50 && exact_sets > 50, "{approx_sets} approx, {exact_sets} exact");
        assert!(saved_sets > 50, "the memo answered a repeat in {saved_sets} sets");
    }

    #[test]
    fn prefilter_skips_only_boxes_with_no_intersection() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let domains = [
            AttrDomain::Continuous { lo: 0.0, hi: 10.0 },
            AttrDomain::Discrete { cardinality: 6 },
            AttrDomain::Continuous { lo: -5.0, hi: 5.0 },
        ];
        // Few bounds, so ranges are often empty, touching or nested.
        let edges = [f64::NEG_INFINITY, -5.0, -0.0, 0.0, 2.0, 5.0, 10.0, f64::INFINITY, f64::NAN];
        let mut rng = StdRng::seed_from_u64(9);
        let random_box = |rng: &mut StdRng| {
            let mut p = Predicate::all();
            for attr in 0..3 {
                let clause = match rng.random_range(0..5u32) {
                    0 => continue,
                    // An `In` clause, on any attribute.
                    1 => Clause::in_set(attr, (0..6u32).filter(|_| rng.random_range(0..2u32) == 0)),
                    _ => {
                        let lo = edges[rng.random_range(0..edges.len())];
                        let hi = edges[rng.random_range(0..edges.len())];
                        Clause::range(attr, lo, hi)
                    }
                };
                p = p.with_clause(clause);
            }
            p
        };
        let (mut skipped, mut none) = (0, 0);
        for case in 0..20_000 {
            let (item, merged) = (random_box(&mut rng), random_box(&mut rng));
            let exact = item.intersect_volume_fraction(&merged, &domains);
            none += usize::from(exact.is_none());
            if disjoint(&range_bounds(&item, domains.len()), &range_checks(&merged)) {
                skipped += 1;
                assert_eq!(exact, None, "case {case}: skipped {item:?} against {merged:?}");
            }
        }
        assert!(skipped > none / 3, "the prefilter skipped {skipped} of {none} disjoint pairs");
    }
}
