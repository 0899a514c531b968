//! Cross-parameter caching sessions (§8.3.3, generalized).
//!
//! The result predicates are sensitive to `c`, so a user (or a UI
//! slider) will re-run the same Scorpion query at several `c` values.
//! The expensive phase of every algorithm is `c`-agnostic — DT tree
//! growth, MC unit construction, NAIVE candidate enumeration — and so is
//! each scored predicate's per-group `(n, Δ)` evaluation. A
//! [`ScorpionSession`] therefore keeps the request's [`PreparedPlan`]:
//!
//! 1. The first run triggers [`ExplainRequest::prepare`] (lazily) and
//!    pays the full cost.
//! 2. Every later run, at any `(λ, c)`, re-scores through the plan's
//!    shared [`crate::InfluenceCache`] — known predicates re-score with
//!    pure arithmetic, no matcher passes — and, for DT, warm-starts the
//!    merge from the cached output of the nearest `c' ≥ c` (the Merger
//!    is monotone in `c`: decreasing `c` only merges further).
//!
//! This is the §8.3.3 DT cache made algorithm-generic: warm cross-`c`
//! runs now work for DT **and** MC **and** NAIVE.

use crate::config::InfluenceParams;
use crate::engine::PreparedPlan;
use crate::error::Result;
use crate::request::ExplainRequest;
use crate::result::Explanation;
use parking_lot::Mutex;
use std::sync::Arc;

/// A reusable Scorpion session: one request, one algorithm, cached
/// preparation, cheap re-runs across parameter changes.
pub struct ScorpionSession {
    /// The request, with [`crate::Algorithm::Auto`] already resolved.
    req: ExplainRequest,
    plan: Mutex<Option<Arc<dyn PreparedPlan>>>,
}

impl ScorpionSession {
    /// Creates a session, resolving the request's algorithm once (so
    /// later preparations never re-run the §5 selection).
    pub fn new(mut req: ExplainRequest) -> Result<Self> {
        req.validate()?;
        req.algorithm = req.resolve_algorithm()?;
        Ok(ScorpionSession { req, plan: Mutex::new(None) })
    }

    /// The underlying request, its algorithm resolved.
    pub fn request(&self) -> &ExplainRequest {
        &self.req
    }

    /// Diagnostic name of the algorithm in charge.
    pub fn algorithm(&self) -> &'static str {
        self.req.algorithm().name()
    }

    /// The session's prepared plan, preparing it on first use.
    pub fn plan(&self) -> Result<Arc<dyn PreparedPlan>> {
        let mut guard = self.plan.lock();
        if let Some(p) = &*guard {
            return Ok(p.clone());
        }
        let p: Arc<dyn PreparedPlan> = Arc::from(self.req.prepare()?);
        *guard = Some(p.clone());
        Ok(p)
    }

    /// Runs (or re-runs) the query at the given parameters, reusing all
    /// cached work.
    pub fn run(&self, params: InfluenceParams) -> Result<Explanation> {
        self.plan()?.run(&params)
    }

    /// Runs (or re-runs) the query under a best-effort wall-clock
    /// budget — see [`PreparedPlan::run_with_budget`] for the per-engine
    /// semantics (anytime engines return best-so-far with
    /// `budget_exhausted` set; DT runs to completion regardless).
    pub fn run_with_budget(
        &self,
        params: InfluenceParams,
        budget: Option<std::time::Duration>,
    ) -> Result<Explanation> {
        self.plan()?.run_with_budget(&params, budget)
    }

    /// Runs at the request's own parameters.
    pub fn run_default(&self) -> Result<Explanation> {
        self.run(self.req.params())
    }

    /// Runs at the given `c`, keeping the request's λ — the UI-slider
    /// path.
    pub fn run_with_c(&self, c: f64) -> Result<Explanation> {
        self.run(self.req.params().with_c(c))
    }

    /// True when the preparation phase has already run.
    pub fn is_warm(&self) -> bool {
        self.plan.lock().is_some()
    }

    /// Drops all cached state (used by the caching ablation). The next
    /// run prepares from scratch.
    pub fn clear_cache(&self) {
        *self.plan.lock() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, DtConfig};
    use crate::request::Scorpion;
    use scorpion_agg::Avg;
    use scorpion_table::{Field, Schema, Table, TableBuilder, Value};
    use std::sync::Arc as StdArc;

    fn planted() -> Table {
        let schema =
            Schema::new(vec![Field::disc("g"), Field::cont("x"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..400 {
            let x = (i as f64 * 7.3) % 100.0;
            let v = if (20.0..60.0).contains(&x) { 80.0 } else { 10.0 };
            b.push_row(vec!["o".into(), Value::from(x), v.into()]).unwrap();
            b.push_row(vec!["h".into(), Value::from(x), Value::from(10.0)]).unwrap();
        }
        b.build()
    }

    fn dt_request(table: Table) -> crate::request::ExplainRequest {
        Scorpion::on(table)
            .group_by(&[0], StdArc::new(Avg), 2)
            .unwrap()
            .outlier(0, 1.0)
            .holdout(1)
            .params(0.5, 0.5)
            .algorithm(Algorithm::DecisionTree(DtConfig { sampling: None, ..DtConfig::default() }))
            .build()
            .unwrap()
    }

    #[test]
    fn cached_rerun_matches_cold_run() {
        let t = planted();
        let session = ScorpionSession::new(dt_request(t.clone())).unwrap();
        assert!(!session.is_warm());
        // Warm the cache at high c, then run at a lower c.
        let _ = session.run_with_c(0.5).unwrap();
        assert!(session.is_warm());
        let warm = session.run_with_c(0.1).unwrap();

        // Cold session straight at c = 0.1.
        let cold_session = ScorpionSession::new(dt_request(t)).unwrap();
        let cold = cold_session.run_with_c(0.1).unwrap();

        // The warm-started merge must be at least as good as the cold one
        // (it sees a superset of the cold run's inputs) and strictly
        // cheaper in scorer calls.
        assert!(warm.best().influence >= cold.best().influence - 1e-9);
        assert!(
            warm.diagnostics.scorer_calls < cold.diagnostics.scorer_calls,
            "warm {} vs cold {}",
            warm.diagnostics.scorer_calls,
            cold.diagnostics.scorer_calls
        );
    }

    #[test]
    fn rescoring_partition_cache_changes_with_c() {
        let t = planted();
        let session = ScorpionSession::new(dt_request(t.clone())).unwrap();
        let hi = session.run_with_c(1.0).unwrap();
        let lo = session.run_with_c(0.0).unwrap();
        // c = 0 rewards raw Δ: the chosen predicate should select at
        // least as many tuples as the c = 1 predicate.
        let rows: Vec<u32> = (0..t.len() as u32).collect();
        let n_hi = hi.best().predicate.count(&t, &rows).unwrap();
        let n_lo = lo.best().predicate.count(&t, &rows).unwrap();
        assert!(n_lo >= n_hi, "c=0 picked {n_lo} rows, c=1 picked {n_hi}");
    }

    #[test]
    fn clear_cache_resets() {
        let session = ScorpionSession::new(dt_request(planted())).unwrap();
        let _ = session.run_with_c(0.3).unwrap();
        assert!(session.is_warm());
        session.clear_cache();
        assert!(!session.is_warm());
    }

    #[test]
    fn session_resolves_auto_algorithm() {
        let req = Scorpion::on(planted())
            .group_by(&[0], StdArc::new(Avg), 2)
            .unwrap()
            .outlier(0, 1.0)
            .holdout(1)
            .build()
            .unwrap();
        let session = ScorpionSession::new(req).unwrap();
        assert_eq!(session.algorithm(), "dt"); // AVG → DT via Auto
        assert!(session.run_default().unwrap().best().influence.is_finite());
    }
}
