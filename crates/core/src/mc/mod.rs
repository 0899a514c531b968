//! MC partitioner (§6.2): bottom-up subspace search for *independent,
//! anti-monotonic* aggregates (SUM, COUNT).
//!
//! The algorithm follows CLIQUE's shape: start from single-attribute units
//! (15 equi-width bins per continuous attribute, one unit per discrete
//! value), then repeatedly (a) prune units that cannot improve on the best
//! predicate found so far, (b) merge adjacent surviving units with the
//! Merger, and (c) intersect surviving units to raise dimensionality by
//! one. The search terminates when no merged predicate improves on `best`.
//!
//! Pruning must respect two ways influence breaks anti-monotonicity
//! (Figure 6): a predicate may be penalized only because it overlaps a
//! hold-out (its contained predicates might not — so pruning uses the
//! hold-out-free influence `inf(O, ∅, p, V)`), and `inf = Δ/|p|^c` can
//! *increase* as a predicate shrinks (so a predicate also survives when
//! its best single tuple beats `best`; with `c = 1`, a predicate's
//! influence is the mean of its tuples' influences, bounded by that
//! maximum). A predicate is pruned only when **both** escape hatches fail.
//! (The comparison directions in the paper's pseudo-code lines 20–21 are
//! printed inverted; see DESIGN.md.)

use crate::config::McConfig;
use crate::error::Result;
use crate::merger::{MergeDiag, Merger};
use crate::result::ScoredPredicate;
use crate::scorer::Scorer;
use scorpion_obs::span;
use scorpion_table::{bin_edges, AttrDomain, Clause, Predicate};
use std::collections::{HashMap, HashSet};

/// Number of equi-width bins per continuous attribute (paper: 15).
pub(crate) const N_BINS: usize = 15;

/// Cap on the distinct values considered per discrete attribute (values
/// are drawn from the outlier input groups; values absent from every
/// outlier group have non-positive influence and are pruned immediately
/// by any positive `best`).
const MAX_DISCRETE_VALUES: usize = 256;

/// Cap on candidates carried between levels (kept by outlier-only
/// influence); prevents worst-case blowup on hard data.
const MAX_CANDIDATES_PER_LEVEL: usize = 4096;

/// Counters describing one MC run.
#[derive(Debug, Clone, Default)]
pub struct McDiag {
    /// Number of levels (dimensionalities) explored.
    pub levels: usize,
    /// Units generated at level 1.
    pub initial_units: usize,
    /// Candidates pruned across all levels.
    pub pruned: u64,
    /// Candidates scored across all levels.
    pub scored: u64,
    /// Aggregate Merger diagnostics.
    pub merge: MergeDiag,
    /// True when the anytime budget ([`McConfig::time_budget`]) expired
    /// before the level loop converged; the returned predicates are the
    /// best found so far.
    pub budget_exhausted: bool,
}

/// Runs the MC search over the given explanation attributes. Returns the
/// ranked result list (best first) and diagnostics. Level work is timed
/// as `mc.*` phases on the scorer's phase list.
pub fn mc_search(
    scorer: &Scorer<'_>,
    attrs: &[usize],
    domains: &[AttrDomain],
    cfg: &McConfig,
) -> Result<(Vec<ScoredPredicate>, McDiag)> {
    let units = initial_units(scorer, attrs, domains)?;
    mc_search_units(scorer, attrs, domains, cfg, units)
}

/// Runs the MC search from pre-built level-1 units — the cheap,
/// re-runnable phase of the engine split: unit construction is
/// `c`-agnostic and can be prepared once (see
/// [`crate::ExplainRequest::prepare`]), while the search itself depends
/// on the scorer's parameters.
pub fn mc_search_units(
    scorer: &Scorer<'_>,
    attrs: &[usize],
    domains: &[AttrDomain],
    cfg: &McConfig,
    units: Vec<Predicate>,
) -> Result<(Vec<ScoredPredicate>, McDiag)> {
    let mut diag = McDiag::default();
    let merger = Merger::new(scorer, domains, cfg.merger.clone());
    let phases = scorer.phases();
    // Anytime budget: checked between whole level phases (score, prune,
    // merge, intersect are each uninterruptible) — level granularity is
    // the natural checkpoint, since every completed level has already
    // folded its improvements into `results`.
    let started = std::time::Instant::now();
    let over_budget = || cfg.time_budget.is_some_and(|b| started.elapsed() >= b);

    // Level 1: single-attribute units.
    diag.initial_units = units.len();
    let top_k = cfg.merger.max_results;
    let mut scored =
        phases.time("mc.level_score", || score_all(scorer, units, top_k, &mut diag))?;
    if scored.is_empty() {
        return Ok((vec![ScoredPredicate::new(Predicate::all(), 0.0)], diag));
    }

    // `best` starts as the paper's Null: the first iteration neither
    // prunes nor filters, so level 2 is always reachable.
    let mut best: Option<ScoredPredicate> = None;
    let max_dims = if cfg.max_dims == 0 { attrs.len() } else { cfg.max_dims.min(attrs.len()) };
    let mut results: Vec<ScoredPredicate> = Vec::new();
    let mut level = 1usize;

    loop {
        diag.levels = level;
        if over_budget() {
            diag.budget_exhausted = true;
            break;
        }
        let _span = span!("mc.level");

        // Prune candidates that can no longer matter (§6.2 PRUNE).
        if let Some(b) = &best {
            let before = scored.len();
            if !cfg.disable_pruning {
                scored = phases.time("mc.prune", || prune(scorer, scored, b.influence))?;
            }
            diag.pruned += (before - scored.len()) as u64;
        }
        if scored.is_empty() {
            break;
        }

        // Merge adjacent units; keep improvements over `best`.
        let (merged, mdiag) = phases.time("mc.level_merge", || merger.merge(scored.clone()))?;
        diag.merge.seeds += mdiag.seeds;
        diag.merge.merges += mdiag.merges;
        diag.merge.exact_estimates += mdiag.exact_estimates;
        diag.merge.approx_estimates += mdiag.approx_estimates;
        let improved: Vec<ScoredPredicate> = match &best {
            Some(b) => merged.into_iter().filter(|m| m.influence > b.influence).collect(),
            None => merged,
        };
        if improved.is_empty() {
            break;
        }
        results.extend(improved.iter().cloned());
        best = improved.iter().max_by(|a, b| a.influence.total_cmp(&b.influence)).cloned();

        if level >= max_dims {
            break;
        }
        if over_budget() {
            diag.budget_exhausted = true;
            break;
        }

        // Keep the units contained in some improved merged predicate, then
        // raise dimensionality by intersecting.
        let contained: Vec<ScoredPredicate> = scored
            .iter()
            .filter(|u| improved.iter().any(|m| u.predicate.implies(&m.predicate)))
            .cloned()
            .collect();
        let next = intersect_level(&contained, level);
        if next.is_empty() {
            break;
        }
        let mut next_scored =
            phases.time("mc.level_score", || score_all(scorer, next, top_k, &mut diag))?;
        // Bound the frontier by hold-out-free influence.
        if next_scored.len() > MAX_CANDIDATES_PER_LEVEL {
            let mut keyed: Vec<(f64, ScoredPredicate)> = next_scored
                .into_iter()
                .map(|sp| {
                    let k =
                        scorer.influence_outliers_only(&sp.predicate).unwrap_or(f64::NEG_INFINITY);
                    (k, sp)
                })
                .collect();
            keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
            keyed.truncate(MAX_CANDIDATES_PER_LEVEL);
            next_scored = keyed.into_iter().map(|(_, sp)| sp).collect();
        }
        scored = next_scored;
        level += 1;
    }

    // Rank: best first, then remaining merged results.
    if let Some(b) = best {
        results.push(b);
    }
    results.sort_by(|a, b| b.influence.total_cmp(&a.influence));
    let mut seen = HashSet::new();
    results.retain(|sp| seen.insert(sp.predicate.clone()));
    if results.is_empty() {
        results.push(ScoredPredicate::new(Predicate::all(), 0.0));
    }
    Ok((results, diag))
}

/// Builds the level-1 units: one predicate per continuous bin, one per
/// discrete value occurring in the outlier input groups. Unit geometry
/// depends only on the domains and the outlier rows — not on `c` or `λ`
/// — which is what makes it cacheable across parameter changes.
pub(crate) fn initial_units(
    scorer: &Scorer<'_>,
    attrs: &[usize],
    domains: &[AttrDomain],
) -> Result<Vec<Predicate>> {
    let mut units = Vec::new();
    for &attr in attrs {
        match &domains[attr] {
            AttrDomain::Continuous { lo, hi } => {
                let edges = bin_edges(*lo, *hi, N_BINS);
                for w in edges.windows(2) {
                    let p = Predicate::conjunction([Clause::range(attr, w[0], w[1])])
                        .expect("bin clause is non-empty");
                    units.push(p);
                }
            }
            AttrDomain::Discrete { .. } => {
                let cat = scorer.table().cat(attr)?;
                let codes = cat.codes();
                let mut freq: HashMap<u32, u32> = HashMap::new();
                for g in 0..scorer.n_outliers() {
                    for &row in scorer.outlier_rows(g) {
                        *freq.entry(codes[row as usize]).or_insert(0) += 1;
                    }
                }
                let mut by_freq: Vec<(u32, u32)> = freq.into_iter().collect();
                by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                by_freq.truncate(MAX_DISCRETE_VALUES);
                for (code, _) in by_freq {
                    let p = Predicate::conjunction([Clause::in_set(attr, [code])])
                        .expect("singleton clause is non-empty");
                    units.push(p);
                }
            }
        }
    }
    Ok(units)
}

/// Scores a deduplicated candidate batch through
/// [`Scorer::influence_batch_pruned`]. When the scorer carries an
/// approximate state, candidates whose influence interval cannot reach
/// the batch's top-`top_k` lower bound are skipped and reported at their
/// interval estimate; without one the batch is scored exactly.
fn score_all(
    scorer: &Scorer<'_>,
    preds: impl IntoIterator<Item = Predicate>,
    top_k: usize,
    diag: &mut McDiag,
) -> Result<Vec<ScoredPredicate>> {
    let mut seen = HashSet::new();
    let preds: Vec<Predicate> = preds.into_iter().filter(|p| seen.insert(p.clone())).collect();
    diag.scored += preds.len() as u64;
    let batch = scorer.influence_batch_pruned(&preds, top_k);
    preds.into_iter().zip(batch.scores).map(|(p, inf)| Ok(ScoredPredicate::new(p, inf?))).collect()
}

/// §6.2 PRUNE: a candidate survives when its hold-out-free influence, or
/// the influence of its best single outlier tuple, still reaches `best`.
fn prune(
    scorer: &Scorer<'_>,
    preds: Vec<ScoredPredicate>,
    best: f64,
) -> Result<Vec<ScoredPredicate>> {
    let mut out = Vec::with_capacity(preds.len());
    for sp in preds {
        let keep = scorer.influence_outliers_only(&sp.predicate)? >= best
            || scorer.max_tuple_influence(&sp.predicate)? >= best;
        if keep {
            out.push(sp);
        }
    }
    Ok(out)
}

/// Intersects pairs of `level`-dimensional candidates that share
/// `level − 1` attributes with identical clauses, producing
/// `(level + 1)`-dimensional candidates (the CLIQUE join).
fn intersect_level(preds: &[ScoredPredicate], level: usize) -> Vec<Predicate> {
    let units: Vec<&Predicate> =
        preds.iter().map(|sp| &sp.predicate).filter(|p| p.num_clauses() == level).collect();
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for i in 0..units.len() {
        for j in i + 1..units.len() {
            let (a, b) = (units[i], units[j]);
            let attrs_a: Vec<usize> = a.attrs().collect();
            let attrs_b: Vec<usize> = b.attrs().collect();
            let union: HashSet<usize> = attrs_a.iter().chain(attrs_b.iter()).copied().collect();
            if union.len() != level + 1 {
                continue;
            }
            // Shared attributes must carry identical clauses (grid
            // alignment), otherwise the intersection is a fragment that a
            // different pair already generates.
            let shared_ok =
                attrs_a.iter().filter(|x| attrs_b.contains(x)).all(|&x| a.clause(x) == b.clause(x));
            if !shared_ok {
                continue;
            }
            if let Some(p) = a.intersect(b) {
                if seen.insert(p.clone()) {
                    out.push(p);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfluenceParams;
    use crate::scorer::GroupSpec;
    use scorpion_agg::Sum;
    use scorpion_table::{
        domains_of, group_by, ClauseMaskCache, Field, Schema, Table, TableBuilder, Value,
    };

    /// SYNTH-like 2-D data for SUM: outlier group has high values inside
    /// the box x,y ∈ [20,60)²; both groups uniform elsewhere.
    fn planted(n: usize) -> Table {
        let schema = Schema::new(vec![
            Field::disc("g"),
            Field::cont("x"),
            Field::cont("y"),
            Field::cont("v"),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..n {
            let x = (i as f64 * 7.3) % 100.0;
            let y = (i as f64 * 13.7) % 100.0;
            let hot = (20.0..60.0).contains(&x) && (20.0..60.0).contains(&y);
            let v = if hot { 80.0 } else { 10.0 };
            b.push_row(vec!["o".into(), Value::from(x), Value::from(y), v.into()]).unwrap();
            b.push_row(vec!["h".into(), Value::from(x), Value::from(y), Value::from(10.0)])
                .unwrap();
        }
        b.build()
    }

    fn scorer(t: &Table, c: f64) -> Scorer<'_> {
        let g = group_by(t, &[0]).unwrap();
        Scorer::new(
            t,
            &Sum,
            3,
            vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
            vec![GroupSpec { rows: g.rows(1).to_vec(), error: 1.0 }],
            InfluenceParams { lambda: 0.5, c },
        )
        .unwrap()
    }

    fn cfg() -> McConfig {
        let mut cfg = McConfig::default();
        cfg.merger.top_quartile_only = false;
        cfg
    }

    /// At moderate `c`, dilution beats growth: the best reachable
    /// predicate constrains x to (roughly) the hot band [20, 60). (§7:
    /// low `c` produces coarse, high-recall predicates.)
    #[test]
    fn moderate_c_recovers_hot_band() {
        let t = planted(800);
        let s = scorer(&t, 0.5);
        let d = domains_of(&t).unwrap();
        let (results, diag) = mc_search(&s, &[1, 2], &d, &cfg()).unwrap();
        assert!(diag.initial_units > 0);
        assert!(diag.scored > 0);
        let best = &results[0];
        // Some dimension is constrained to the hot band: admits the core
        // [27, 53) and rejects the fringes.
        let constrained = best.predicate.clauses().any(|cl| {
            cl.matches_num(27.0)
                && cl.matches_num(52.9)
                && !cl.matches_num(10.0)
                && !cl.matches_num(75.0)
        });
        assert!(constrained, "expected a hot-band clause, got {}", best.predicate.display(&t));
        assert!(best.influence > 0.0);
    }

    /// At `c = 1` influence is a per-tuple average, so the optimum is any
    /// pure-hot region: MC's level-2 refinement must deliver perfect
    /// precision on the outlier group.
    #[test]
    fn high_c_gives_pure_hot_predicates() {
        let t = planted(800);
        let s = scorer(&t, 1.0);
        let d = domains_of(&t).unwrap();
        let (results, diag) = mc_search(&s, &[1, 2], &d, &cfg()).unwrap();
        assert!(diag.levels >= 2, "{diag:?}");
        let best = &results[0];
        let m = best.predicate.mask(&t, &ClauseMaskCache::new()).unwrap();
        let x = t.num(1).unwrap();
        let y = t.num(2).unwrap();
        let mut matched = 0;
        for &r in s.outlier_rows(0) {
            if m.contains(r) {
                matched += 1;
                let (xi, yi) = (x[r as usize], y[r as usize]);
                assert!(
                    (20.0..60.0).contains(&xi) && (20.0..60.0).contains(&yi),
                    "impure tuple ({xi}, {yi}) in {}",
                    best.predicate.display(&t)
                );
            }
        }
        assert!(matched > 0);
    }

    /// Pruning trades quality for work: it never *improves* the best
    /// influence, and it cuts the number of surviving candidates.
    #[test]
    fn pruning_is_a_work_quality_tradeoff() {
        let t = planted(600);
        let s1 = scorer(&t, 0.5);
        let d = domains_of(&t).unwrap();
        let (r1, diag1) = mc_search(&s1, &[1, 2], &d, &cfg()).unwrap();
        let s2 = scorer(&t, 0.5);
        let no_prune = McConfig { disable_pruning: true, ..cfg() };
        let (r2, diag2) = mc_search(&s2, &[1, 2], &d, &no_prune).unwrap();
        assert!(diag1.pruned > 0, "{diag1:?}");
        assert_eq!(diag2.pruned, 0);
        // The unpruned search sees a superset of candidates.
        assert!(r2[0].influence >= r1[0].influence - 1e-9);
        assert!(r1[0].influence > 0.0);
    }

    #[test]
    fn discrete_units_cover_outlier_values_only() {
        let schema =
            Schema::new(vec![Field::disc("g"), Field::disc("state"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..100 {
            let st = ["DC", "NY", "CA", "TX"][i % 4];
            let v = if st == "DC" { 200.0 } else { 5.0 };
            b.push_row(vec!["o".into(), st.into(), v.into()]).unwrap();
            // Hold-out group sees an extra state the outliers never have.
            let st_h = ["WA", "NY", "CA", "TX"][i % 4];
            b.push_row(vec!["h".into(), st_h.into(), Value::from(5.0)]).unwrap();
        }
        let t = b.build();
        let g = group_by(&t, &[0]).unwrap();
        let s = Scorer::new(
            &t,
            &Sum,
            2,
            vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
            vec![GroupSpec { rows: g.rows(1).to_vec(), error: 1.0 }],
            InfluenceParams { lambda: 0.5, c: 0.5 },
        )
        .unwrap();
        let d = domains_of(&t).unwrap();
        let units = initial_units(&s, &[1], &d).unwrap();
        // 4 distinct states in the outlier group (DC, NY, CA, TX); WA is
        // hold-out-only and must not appear.
        assert_eq!(units.len(), 4);
        let wa = t.cat(1).unwrap().code_of("WA").unwrap();
        for u in &units {
            assert!(!u.clause(1).unwrap().matches_code(wa));
        }
        let (results, _) = mc_search(&s, &[1], &d, &cfg()).unwrap();
        let dc = t.cat(1).unwrap().code_of("DC").unwrap();
        assert!(results[0].predicate.clause(1).unwrap().matches_code(dc));
        assert!(!results[0].predicate.clause(1).unwrap().matches_code(wa));
    }

    #[test]
    fn intersect_level_joins_grid_aligned_pairs() {
        let px = Predicate::conjunction([Clause::range(0, 0.0, 1.0)]).unwrap();
        let py = Predicate::conjunction([Clause::range(1, 2.0, 3.0)]).unwrap();
        let pz = Predicate::conjunction([Clause::range(0, 1.0, 2.0)]).unwrap();
        let scored = vec![
            ScoredPredicate::new(px.clone(), 1.0),
            ScoredPredicate::new(py.clone(), 1.0),
            ScoredPredicate::new(pz.clone(), 1.0),
        ];
        let next = intersect_level(&scored, 1);
        // px×py and pz×py join; px×pz share the same attribute → no join.
        assert_eq!(next.len(), 2);
        for p in &next {
            assert_eq!(p.num_clauses(), 2);
        }
    }

    #[test]
    fn respects_max_dims() {
        let t = planted(400);
        let s = scorer(&t, 0.5);
        let d = domains_of(&t).unwrap();
        let one_dim = McConfig { max_dims: 1, ..cfg() };
        let (results, diag) = mc_search(&s, &[1, 2], &d, &one_dim).unwrap();
        assert!(diag.levels <= 1);
        for r in &results {
            assert!(r.predicate.num_clauses() <= 2); // merged hulls of 1-D units
        }
    }

    /// An exhausted anytime budget stops between levels but still returns
    /// a usable (possibly degenerate) best-so-far result set.
    #[test]
    fn zero_budget_exits_early_with_results() {
        let t = planted(400);
        let s = scorer(&t, 0.5);
        let d = domains_of(&t).unwrap();
        let budgeted = McConfig { time_budget: Some(std::time::Duration::ZERO), ..cfg() };
        let (results, diag) = mc_search(&s, &[1, 2], &d, &budgeted).unwrap();
        assert!(diag.budget_exhausted, "{diag:?}");
        assert!(!results.is_empty());
        // And the default (no budget) never reports exhaustion.
        let (_, full) = mc_search(&s, &[1, 2], &d, &cfg()).unwrap();
        assert!(!full.budget_exhausted);
    }
}
