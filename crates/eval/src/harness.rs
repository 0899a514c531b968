//! Shared experiment harness: builds labeled requests over the generated
//! workloads, runs each algorithm, and scores results against ground
//! truth.

use crate::metrics::{predicate_accuracy, Accuracy};
use scorpion_agg::{StdDev, Sum};
use scorpion_core::{
    Algorithm, DtConfig, ExplainRequest, Explanation, McConfig, NaiveConfig, Scorpion,
};
use scorpion_data::expense::ExpenseDataset;
use scorpion_data::intel::IntelDataset;
use scorpion_data::synth::{SynthConfig, SynthDataset};
use scorpion_table::{group_by, Grouping, Predicate};
use std::sync::Arc;
use std::time::Duration;

/// The SYNTH workbench: dataset + grouping + labels, ready to run any
/// algorithm at any `c`.
pub struct SynthRun {
    /// The generated dataset (with ground truth).
    pub ds: SynthDataset,
    /// Grouping of `GROUP BY Ad`.
    pub grouping: Grouping,
    outlier_union: Vec<u32>,
    base: ExplainRequest,
}

impl SynthRun {
    /// Generates and indexes a SYNTH dataset.
    pub fn new(cfg: SynthConfig) -> Self {
        let ds = scorpion_data::synth::generate(cfg);
        let grouping = group_by(&ds.table, &[ds.group_attr()]).expect("group-by Ad");
        let mut outlier_union = Vec::new();
        for &g in &ds.outlier_groups {
            outlier_union.extend_from_slice(grouping.rows(g));
        }
        let base = Scorpion::on(ds.table.clone())
            .query(grouping.clone(), Arc::new(Sum), ds.agg_attr())
            .expect("synth query")
            .outliers(ds.outlier_groups.iter().map(|&g| (g, 1.0)))
            .holdouts(ds.holdout_groups.iter().copied())
            .explain_attrs(ds.dim_attrs())
            .params(0.5, 0.5)
            .build()
            .expect("synth request");
        SynthRun { ds, grouping, outlier_union, base }
    }

    /// Union of the outlier input groups (`g_O`).
    pub fn outlier_rows(&self) -> &[u32] {
        &self.outlier_union
    }

    /// Scores a predicate against the inner- or outer-cube ground truth.
    pub fn accuracy(&self, pred: &Predicate, inner: bool) -> Accuracy {
        predicate_accuracy(&self.ds.table, pred, &self.outlier_union, self.ds.truth_rows(inner))
    }

    /// An owned request running `algorithm` at parameter `c` (λ = 0.5,
    /// the paper's setup). `Arc`-shares the dataset with this workbench.
    pub fn request(&self, algorithm: Algorithm, c: f64) -> ExplainRequest {
        self.base.with_algorithm(algorithm).with_c(c)
    }

    /// Runs an algorithm at parameter `c` (λ = 0.5, the paper's setup).
    pub fn run(&self, algorithm: Algorithm, c: f64) -> Explanation {
        self.request(algorithm, c).explain().expect("synth explain")
    }
}

/// NAIVE configuration with a wall-clock budget (the paper's anytime
/// variant).
pub fn naive_with_budget(budget: Duration, keep_trace: bool) -> Algorithm {
    Algorithm::Naive(NaiveConfig {
        time_budget: Some(budget),
        keep_trace,
        ..NaiveConfig::default()
    })
}

/// The default DT algorithm.
pub fn dt() -> Algorithm {
    Algorithm::DecisionTree(DtConfig::default())
}

/// The default MC algorithm.
pub fn mc() -> Algorithm {
    Algorithm::BottomUp(McConfig::default())
}

/// The INTEL workbench: dataset + grouping + labels for
/// `STDDEV(temp) GROUP BY hour`.
pub struct IntelRun {
    /// The generated dataset.
    pub ds: IntelDataset,
    /// Grouping by hour.
    pub grouping: Grouping,
    outlier_union: Vec<u32>,
    base: ExplainRequest,
}

impl IntelRun {
    /// Generates and indexes an INTEL dataset.
    pub fn new(cfg: scorpion_data::intel::IntelConfig) -> Self {
        let ds = scorpion_data::intel::generate(cfg);
        let grouping = group_by(&ds.table, &[ds.group_attr()]).expect("group-by hour");
        let mut outlier_union = Vec::new();
        for &g in &ds.outlier_hours {
            outlier_union.extend_from_slice(grouping.rows(g));
        }
        let base = Scorpion::on(ds.table.clone())
            .query(grouping.clone(), Arc::new(StdDev), ds.agg_attr())
            .expect("intel query")
            .outliers(ds.outlier_hours.iter().map(|&g| (g, 1.0)))
            .holdouts(ds.holdout_hours.iter().copied())
            .explain_attrs(ds.explain_attrs())
            .params(0.5, 0.5)
            .build()
            .expect("intel request");
        IntelRun { ds, grouping, outlier_union, base }
    }

    /// Union of the outlier input groups (`g_O`).
    pub fn outlier_rows(&self) -> &[u32] {
        &self.outlier_union
    }

    /// Scores a predicate against the failing-sensor ground truth.
    pub fn accuracy(&self, pred: &Predicate) -> Accuracy {
        predicate_accuracy(&self.ds.table, pred, &self.outlier_union, &self.ds.failing_rows)
    }

    /// An owned request running `algorithm` at parameter `c`.
    pub fn request(&self, algorithm: Algorithm, c: f64) -> ExplainRequest {
        self.base.with_algorithm(algorithm).with_c(c)
    }

    /// Runs DT at parameter `c`.
    pub fn run_dt(&self, c: f64) -> Explanation {
        self.request(dt(), c).explain().expect("intel explain")
    }
}

/// The EXPENSE workbench: dataset + grouping + labels for
/// `SUM(disb_amt) GROUP BY date`.
pub struct ExpenseRun {
    /// The generated dataset.
    pub ds: ExpenseDataset,
    /// Grouping by date.
    pub grouping: Grouping,
    outlier_union: Vec<u32>,
    base: ExplainRequest,
}

impl ExpenseRun {
    /// Generates and indexes an EXPENSE dataset.
    pub fn new(cfg: scorpion_data::expense::ExpenseConfig) -> Self {
        let ds = scorpion_data::expense::generate(cfg);
        let grouping = group_by(&ds.table, &[ds.group_attr()]).expect("group-by date");
        let mut outlier_union = Vec::new();
        for &g in &ds.outlier_days {
            outlier_union.extend_from_slice(grouping.rows(g));
        }
        let base = Scorpion::on(ds.table.clone())
            .query(grouping.clone(), Arc::new(Sum), ds.agg_attr())
            .expect("expense query")
            .outliers(ds.outlier_days.iter().map(|&g| (g, 1.0)))
            .holdouts(ds.holdout_days.iter().copied())
            .explain_attrs(ds.explain_attrs())
            .params(0.5, 0.5)
            .build()
            .expect("expense request");
        ExpenseRun { ds, grouping, outlier_union, base }
    }

    /// Union of the outlier input groups (`g_O`).
    pub fn outlier_rows(&self) -> &[u32] {
        &self.outlier_union
    }

    /// Scores a predicate against the >$1.5M ground truth.
    pub fn accuracy(&self, pred: &Predicate) -> Accuracy {
        predicate_accuracy(&self.ds.table, pred, &self.outlier_union, &self.ds.big_expense_rows)
    }

    /// An owned request running `algorithm` at parameter `c`.
    pub fn request(&self, algorithm: Algorithm, c: f64) -> ExplainRequest {
        self.base.with_algorithm(algorithm).with_c(c)
    }

    /// Runs MC (the paper's choice: SUM over positive amounts) at `c`.
    pub fn run_mc(&self, c: f64) -> Explanation {
        self.request(mc(), c).explain().expect("expense explain")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_run_scores_truth_predicate_perfectly() {
        let run = SynthRun::new(SynthConfig::easy(2));
        let truth_pred = run.ds.truth_predicate(false);
        let acc = run.accuracy(&truth_pred, false);
        assert!(acc.precision > 0.999);
        assert!(acc.recall > 0.999);
        assert!(acc.f_score > 0.999);
    }

    #[test]
    fn synth_inner_truth_is_subset_of_outer() {
        let run = SynthRun::new(SynthConfig::hard(2));
        let inner_pred = run.ds.truth_predicate(true);
        let acc_outer = run.accuracy(&inner_pred, false);
        // Inner cube predicate has perfect precision against outer truth
        // but limited recall (≈ 25%).
        assert!(acc_outer.precision > 0.999);
        assert!(acc_outer.recall < 0.5);
    }

    #[test]
    fn expense_truth_scoring() {
        let run = ExpenseRun::new(Default::default());
        // The planted 4-clause explanation from §8.4.
        let t = &run.ds.table;
        let nm = t.cat(2).unwrap().code_of("GMMB INC.").unwrap();
        let pred = Predicate::conjunction([scorpion_table::Clause::in_set(2, [nm])]).unwrap();
        let acc = run.accuracy(&pred);
        // All GMMB rows on spike days are > $1.5M in the simulator.
        assert!(acc.recall > 0.999);
        assert!(acc.precision > 0.999);
    }
}
