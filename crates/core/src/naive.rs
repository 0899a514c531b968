//! NAIVE partitioner (§4.2): anytime exhaustive predicate enumeration.
//!
//! The paper's baseline enumerates every conjunction of single-attribute
//! clauses: all consecutive bin ranges over each continuous attribute and
//! all value subsets over each discrete attribute. Because the space is
//! exponential, the experiments (§8.2) use a *modified* exhaustive
//! algorithm that generates predicates in order of increasing complexity —
//! number of clauses, and size of discrete value sets — and stops after a
//! wall-clock budget, returning the best predicate found so far. This
//! module implements that modified algorithm, including the best-so-far
//! trace Figure 11 plots.

use crate::config::NaiveConfig;
use crate::error::Result;
use crate::result::ScoredPredicate;
use crate::scorer::Scorer;
use scorpion_table::{bin_edges, AttrDomain, Clause, Predicate};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// One improvement of the best-so-far predicate (Figure 11's time series).
#[derive(Debug, Clone)]
pub struct TracePoint {
    /// Wall-clock time of the improvement, from search start.
    pub elapsed: Duration,
    /// Influence of the new best predicate.
    pub influence: f64,
    /// The new best predicate.
    pub predicate: Predicate,
}

/// Result of a NAIVE search.
#[derive(Debug, Clone)]
pub struct NaiveOutcome {
    /// The most influential predicate found.
    pub best: ScoredPredicate,
    /// Best-so-far improvements (empty unless `keep_trace`).
    pub trace: Vec<TracePoint>,
    /// Number of predicates scored.
    pub evaluated: u64,
    /// False when the time budget expired before the enumeration finished.
    pub completed: bool,
    /// When the returned predicate was first found — the paper's
    /// "earliest time that NAIVE converges" (Figure 14).
    pub converged_at: Duration,
}

/// Per-attribute clause candidates.
#[derive(Clone)]
enum AttrClauses {
    /// All consecutive-bin ranges, from the §4.2 equi-width binning.
    Continuous(Vec<Clause>),
    /// Distinct codes (most frequent in the outlier groups first); subsets
    /// are enumerated on the fly up to the configured size.
    Discrete { attr: usize, codes: Vec<u32> },
}

/// The `c`-agnostic phase of a NAIVE run: the per-attribute clause
/// candidates the enumeration walks. Geometry depends only on the
/// domains, the binning config, and the outlier rows, so it can be
/// prepared once and re-enumerated cheaply at any influence parameters
/// (see [`crate::ExplainRequest::prepare`]).
#[derive(Clone)]
pub(crate) struct NaiveCandidates {
    candidates: Vec<AttrClauses>,
    has_discrete: bool,
}

/// Builds the candidate clause sets for the given explanation
/// attributes.
pub(crate) fn naive_candidates(
    scorer: &Scorer<'_>,
    attrs: &[usize],
    domains: &[AttrDomain],
    cfg: &NaiveConfig,
) -> Result<NaiveCandidates> {
    let mut candidates: Vec<AttrClauses> = Vec::with_capacity(attrs.len());
    let mut has_discrete = false;
    for &attr in attrs {
        match &domains[attr] {
            AttrDomain::Continuous { lo, hi } => {
                let edges = bin_edges(*lo, *hi, cfg.n_bins.max(1));
                let mut clauses = Vec::with_capacity(cfg.n_bins * (cfg.n_bins + 1) / 2);
                for i in 0..edges.len() - 1 {
                    for j in i + 1..edges.len() {
                        clauses.push(Clause::range(attr, edges[i], edges[j]));
                    }
                }
                candidates.push(AttrClauses::Continuous(clauses));
            }
            AttrDomain::Discrete { .. } => {
                has_discrete = true;
                candidates.push(AttrClauses::Discrete {
                    attr,
                    codes: outlier_codes(scorer, attr, cfg.max_discrete_values)?,
                });
            }
        }
    }
    Ok(NaiveCandidates { candidates, has_discrete })
}

/// Runs the NAIVE search over the given explanation attributes.
pub fn naive_search(
    scorer: &Scorer<'_>,
    attrs: &[usize],
    domains: &[AttrDomain],
    cfg: &NaiveConfig,
) -> Result<NaiveOutcome> {
    let cands = naive_candidates(scorer, attrs, domains, cfg)?;
    naive_search_prepared(scorer, &cands, cfg)
}

/// Runs the NAIVE enumeration over prepared candidates — the cheap,
/// re-runnable phase of the engine split.
pub(crate) fn naive_search_prepared(
    scorer: &Scorer<'_>,
    cands: &NaiveCandidates,
    cfg: &NaiveConfig,
) -> Result<NaiveOutcome> {
    let start = Instant::now();
    let candidates = &cands.candidates;
    let n_attrs = candidates.len();
    let max_clauses = if cfg.max_clauses == 0 { n_attrs } else { cfg.max_clauses.min(n_attrs) };
    let max_subset = if cands.has_discrete { cfg.max_discrete_subset.max(1) } else { 1 };

    let mut st = SearchState {
        scorer,
        cfg,
        start,
        best: None,
        trace: Vec::new(),
        evaluated: 0,
        converged_at: Duration::ZERO,
    };

    // Increasing complexity: outer loop over the maximum discrete-subset
    // size `s`, inner loop over the number of clauses `k` (§8.2). For
    // s > 1, at least one discrete clause must have size exactly `s` so
    // no predicate is scored twice across rounds.
    let mut completed = true;
    'outer: for s in 1..=max_subset {
        for k in 1..=max_clauses {
            let mut chosen: Vec<Clause> = Vec::with_capacity(k);
            let flow = enumerate_combos(candidates, 0, k, s, s == 1, &mut chosen, &mut st);
            if flow.is_break() {
                completed = false;
                break 'outer;
            }
        }
    }

    let best = st.best.unwrap_or_else(|| ScoredPredicate::new(Predicate::all(), f64::NEG_INFINITY));
    Ok(NaiveOutcome {
        best,
        trace: st.trace,
        evaluated: st.evaluated,
        completed,
        converged_at: st.converged_at,
    })
}

/// Distinct codes of `attr` appearing in the outlier input groups, most
/// frequent first, capped at `max_values`. Values absent from every
/// outlier group cannot contribute positive outlier influence, so NAIVE
/// does not enumerate them.
fn outlier_codes(scorer: &Scorer<'_>, attr: usize, max_values: usize) -> Result<Vec<u32>> {
    let cat = scorer.table().cat(attr)?;
    let codes = cat.codes();
    let mut freq: HashMap<u32, u32> = HashMap::new();
    for g in 0..scorer.n_outliers() {
        for &row in scorer.outlier_rows(g) {
            *freq.entry(codes[row as usize]).or_insert(0) += 1;
        }
    }
    let mut out: Vec<(u32, u32)> = freq.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out.truncate(max_values);
    Ok(out.into_iter().map(|(c, _)| c).collect())
}

/// Advances `idx` to the next k-combination of `0..n` in lexicographic
/// order; returns false when exhausted.
fn next_combination(idx: &mut [usize], n: usize) -> bool {
    let k = idx.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if idx[i] < n - (k - i) {
            idx[i] += 1;
            for j in i + 1..k {
                idx[j] = idx[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

struct SearchState<'s, 'a> {
    scorer: &'s Scorer<'a>,
    cfg: &'s NaiveConfig,
    start: Instant,
    best: Option<ScoredPredicate>,
    trace: Vec<TracePoint>,
    evaluated: u64,
    converged_at: Duration,
}

impl SearchState<'_, '_> {
    fn score(&mut self, clauses: &[Clause]) -> ControlFlow<()> {
        if let Some(budget) = self.cfg.time_budget {
            if self.evaluated.is_multiple_of(128) && self.start.elapsed() > budget {
                return ControlFlow::Break(());
            }
        }
        let Some(pred) = Predicate::conjunction(clauses.iter().cloned()) else {
            return ControlFlow::Continue(());
        };
        self.evaluated += 1;
        let inf = match self.scorer.influence(&pred) {
            Ok(v) => v,
            Err(_) => return ControlFlow::Continue(()),
        };
        let improved = self.best.as_ref().is_none_or(|b| inf > b.influence);
        if improved {
            self.converged_at = self.start.elapsed();
            if self.cfg.keep_trace {
                self.trace.push(TracePoint {
                    elapsed: self.converged_at,
                    influence: inf,
                    predicate: pred.clone(),
                });
            }
            self.best = Some(ScoredPredicate::new(pred, inf));
        }
        ControlFlow::Continue(())
    }
}

/// Chooses `k` more attributes starting at `from` and enumerates the
/// cartesian product of their clause candidates. `have_exact_s` tracks
/// whether a discrete clause of size exactly `s` has been placed (required
/// for `s > 1` to keep rounds disjoint).
fn enumerate_combos(
    candidates: &[AttrClauses],
    from: usize,
    k: usize,
    s: usize,
    have_exact_s: bool,
    chosen: &mut Vec<Clause>,
    st: &mut SearchState<'_, '_>,
) -> ControlFlow<()> {
    if k == 0 {
        if have_exact_s {
            return st.score(chosen);
        }
        return ControlFlow::Continue(());
    }
    if from + k > candidates.len() {
        return ControlFlow::Continue(());
    }
    // Option 1: skip attribute `from`.
    enumerate_combos(candidates, from + 1, k, s, have_exact_s, chosen, st)?;
    // Option 2: constrain attribute `from` with each candidate clause.
    match &candidates[from] {
        AttrClauses::Continuous(clauses) => {
            for c in clauses {
                chosen.push(c.clone());
                enumerate_combos(candidates, from + 1, k - 1, s, have_exact_s, chosen, st)?;
                chosen.pop();
            }
        }
        AttrClauses::Discrete { attr, codes } => {
            for size in 1..=s.min(codes.len()) {
                let exact = have_exact_s || size == s;
                let mut idx: Vec<usize> = (0..size).collect();
                loop {
                    let subset: Vec<u32> = idx.iter().map(|&i| codes[i]).collect();
                    chosen.push(Clause::in_set(*attr, subset));
                    let flow = enumerate_combos(candidates, from + 1, k - 1, s, exact, chosen, st);
                    chosen.pop();
                    flow?;
                    if !next_combination(&mut idx, codes.len()) {
                        break;
                    }
                }
            }
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfluenceParams;
    use crate::scorer::GroupSpec;
    use scorpion_agg::Sum;
    use scorpion_table::{domains_of, group_by, Field, Schema, Table, TableBuilder, Value};

    /// Two groups over x ∈ [0,10): group "o" has value 100 for x ∈ [4,6),
    /// 1 elsewhere; group "h" is uniformly 1. The planted explanation is
    /// x ∈ [4,6).
    fn planted() -> Table {
        let schema =
            Schema::new(vec![Field::disc("g"), Field::cont("x"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..50 {
            let x = i as f64 * 0.2; // 0.0 .. 9.8
            let v = if (4.0..6.0).contains(&x) { 100.0 } else { 1.0 };
            b.push_row(vec![Value::from("o"), Value::from(x), Value::from(v)]).unwrap();
            b.push_row(vec![Value::from("h"), Value::from(x), Value::from(1.0)]).unwrap();
        }
        b.build()
    }

    fn scorer(t: &Table, c: f64) -> Scorer<'_> {
        let g = group_by(t, &[0]).unwrap();
        Scorer::new(
            t,
            &Sum,
            2,
            vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
            vec![GroupSpec { rows: g.rows(1).to_vec(), error: 1.0 }],
            InfluenceParams { lambda: 0.5, c },
            false,
        )
        .unwrap()
    }

    /// At c = 1 influence is a per-tuple average, so the optimum is any
    /// pure-hot range: NAIVE must return a predicate selecting only hot
    /// outlier tuples.
    #[test]
    fn c1_best_predicate_is_pure_hot() {
        let t = planted();
        let s = scorer(&t, 1.0);
        let domains = domains_of(&t).unwrap();
        let cfg = NaiveConfig { n_bins: 10, keep_trace: true, ..NaiveConfig::default() };
        let out = naive_search(&s, &[1], &domains, &cfg).unwrap();
        assert!(out.completed);
        assert!(out.evaluated > 0);
        let rows: Vec<u32> = (0..t.len() as u32).collect();
        let selected = out.best.predicate.select(&t, &rows).unwrap();
        let x = t.num(1).unwrap();
        let codes = t.cat(0).unwrap().codes();
        let mut hot_selected = 0;
        for &r in &selected {
            if codes[r as usize] == 0 {
                assert!(
                    (4.0..6.0).contains(&x[r as usize]),
                    "cold outlier row {r} selected by {}",
                    out.best.predicate.display(&t)
                );
                hot_selected += 1;
            }
        }
        assert!(hot_selected > 0);
        assert!(!out.trace.is_empty());
        for w in out.trace.windows(2) {
            assert!(w[1].influence > w[0].influence);
        }
    }

    /// At c = 0 raw Δ dominates, so the optimum must cover every hot
    /// outlier row (Figure 9's C = 0 panel encloses the whole outer cube).
    #[test]
    fn c0_best_predicate_covers_all_hot_rows() {
        let t = planted();
        let s = scorer(&t, 0.0);
        let domains = domains_of(&t).unwrap();
        let cfg = NaiveConfig { n_bins: 10, ..NaiveConfig::default() };
        let out = naive_search(&s, &[1], &domains, &cfg).unwrap();
        assert!(out.completed);
        let rows: Vec<u32> = (0..t.len() as u32).collect();
        let selected = out.best.predicate.select(&t, &rows).unwrap();
        let x = t.num(1).unwrap();
        let codes = t.cat(0).unwrap().codes();
        for &r in &rows {
            if codes[r as usize] == 0 && (4.0..6.0).contains(&x[r as usize]) {
                assert!(selected.contains(&r), "hot row {r} missing");
            }
        }
    }

    #[test]
    fn budget_zero_terminates_quickly() {
        let t = planted();
        let s = scorer(&t, 0.5);
        let domains = domains_of(&t).unwrap();
        let cfg = NaiveConfig { time_budget: Some(Duration::ZERO), ..NaiveConfig::default() };
        let out = naive_search(&s, &[1], &domains, &cfg).unwrap();
        assert!(!out.completed);
        assert!(out.evaluated <= 129);
    }

    #[test]
    fn finds_planted_discrete_pair() {
        let schema =
            Schema::new(vec![Field::disc("g"), Field::disc("color"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..30 {
            let color = ["red", "blue", "green"][i % 3];
            let v = if color != "green" { 50.0 } else { 1.0 };
            b.push_row(vec![Value::from("o"), Value::from(color), Value::from(v)]).unwrap();
            b.push_row(vec![Value::from("h"), Value::from(color), Value::from(1.0)]).unwrap();
        }
        let t = b.build();
        let g = group_by(&t, &[0]).unwrap();
        let s = Scorer::new(
            &t,
            &Sum,
            2,
            vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
            vec![GroupSpec { rows: g.rows(1).to_vec(), error: 1.0 }],
            InfluenceParams { lambda: 0.5, c: 0.2 },
            false,
        )
        .unwrap();
        let domains = domains_of(&t).unwrap();
        let cfg = NaiveConfig { max_discrete_subset: 2, ..NaiveConfig::default() };
        let out = naive_search(&s, &[1], &domains, &cfg).unwrap();
        assert!(out.completed);
        let clause = out.best.predicate.clause(1).expect("color clause");
        let cat = t.cat(1).unwrap();
        assert!(clause.matches_code(cat.code_of("red").unwrap()));
        assert!(clause.matches_code(cat.code_of("blue").unwrap()));
        assert!(!clause.matches_code(cat.code_of("green").unwrap()));
    }

    #[test]
    fn respects_max_clauses_and_counts_evaluations() {
        let t = planted();
        let s = scorer(&t, 1.0);
        let domains = domains_of(&t).unwrap();
        let cfg = NaiveConfig { max_clauses: 1, n_bins: 5, ..NaiveConfig::default() };
        let out = naive_search(&s, &[1, 2], &domains, &cfg).unwrap();
        assert!(out.best.predicate.num_clauses() <= 1);
        // One-clause predicates over two continuous attrs with 5 bins:
        // 2 attrs × C(6,2) = 2 × 15 = 30.
        assert_eq!(out.evaluated, 30);
    }

    #[test]
    fn next_combination_enumerates_all() {
        let mut idx = vec![0usize, 1];
        let mut seen = vec![idx.clone()];
        while next_combination(&mut idx, 4) {
            seen.push(idx.clone());
        }
        assert_eq!(
            seen,
            vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3], vec![2, 3]]
        );
    }
}
