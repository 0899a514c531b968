//! End-to-end tests across crates: all three evaluation workloads,
//! algorithm equivalences, and the caching session.

use scorpion::data::expense::{self, ExpenseConfig};
use scorpion::data::intel::{self, IntelConfig};
use scorpion::data::synth::{self, SynthConfig};
use scorpion::eval::predicate_accuracy;
use scorpion::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// `agg(agg_attr) GROUP BY` attribute 0, with `outliers` labeled "too
/// high".
fn labeled(
    table: &Table,
    agg: Arc<dyn Aggregate>,
    agg_attr: usize,
    outliers: &[usize],
    holdouts: &[usize],
) -> RequestBuilder {
    Scorpion::on(table.clone())
        .group_by(&[0], agg, agg_attr)
        .unwrap()
        .outliers(outliers.iter().map(|&g| (g, 1.0)))
        .holdouts(holdouts.iter().copied())
}

fn synth_request(ds: &synth::SynthDataset, agg: Arc<dyn Aggregate>) -> RequestBuilder {
    labeled(&ds.table, agg, ds.agg_attr(), &ds.outlier_groups, &ds.holdout_groups)
}

fn outlier_union(ds: &synth::SynthDataset, grouping: &Grouping) -> Vec<u32> {
    ds.outlier_groups.iter().flat_map(|&g| grouping.rows(g).iter().copied()).collect()
}

#[test]
fn synth_easy_all_algorithms_beat_random() {
    let ds = synth::generate(SynthConfig::easy(2).with_tuples_per_group(400));
    let grouping = group_by(&ds.table, &[0]).unwrap();
    let rows = outlier_union(&ds, &grouping);
    // A random quarter-box baseline has F ≈ 0.25 against the outer cube.
    for algo in [
        Algorithm::DecisionTree(DtConfig::default()),
        Algorithm::BottomUp(McConfig::default()),
        Algorithm::Naive(NaiveConfig {
            time_budget: Some(Duration::from_secs(10)),
            ..NaiveConfig::default()
        }),
    ] {
        let req = synth_request(&ds, Arc::new(Sum))
            .params(0.5, 0.3)
            .algorithm(algo)
            .explain_attrs(ds.dim_attrs())
            .build()
            .unwrap();
        let ex = req.explain().unwrap();
        let acc = predicate_accuracy(&ds.table, &ex.best().predicate, &rows, ds.truth_rows(false));
        assert!(
            acc.f_score > 0.4,
            "[{}] F = {} for {}",
            ex.diagnostics.algorithm,
            acc.f_score,
            ex.best().predicate.display(&ds.table)
        );
    }
}

#[test]
fn auto_selection_picks_mc_for_synth() {
    let ds = synth::generate(SynthConfig::easy(2).with_tuples_per_group(200));
    // SUM over non-negative-ish values... SYNTH Av values can dip below 0
    // (N(10,10)), so Auto must NOT pick MC blindly; just check it runs.
    let ex = synth_request(&ds, Arc::new(Sum)).build().unwrap().explain().unwrap();
    assert!(["mc", "dt"].contains(&ex.diagnostics.algorithm));
    assert!(ex.best().influence.is_finite());
}

#[test]
fn blackbox_and_incremental_agree_end_to_end() {
    let ds = synth::generate(SynthConfig::easy(2).with_tuples_per_group(150));
    let grouping = group_by(&ds.table, &[0]).unwrap();
    let run = |blackbox: bool| {
        synth_request(&ds, Arc::new(Sum))
            .params(0.5, 0.2)
            .algorithm(Algorithm::DecisionTree(DtConfig { sampling: None, ..DtConfig::default() }))
            .explain_attrs(ds.dim_attrs())
            .force_blackbox(blackbox)
            .build()
            .unwrap()
            .explain()
            .unwrap()
    };
    let fast = run(false);
    let slow = run(true);
    // The two paths may break floating-point ties differently at split
    // boundaries, so require equivalent results rather than identical
    // trees: near-equal influence and heavily overlapping selections.
    let rel = (fast.best().influence - slow.best().influence).abs()
        / fast.best().influence.abs().max(1.0);
    assert!(
        rel < 0.05,
        "influence mismatch: {} vs {}",
        fast.best().influence,
        slow.best().influence
    );
    let rows = outlier_union(&ds, &grouping);
    let a: std::collections::HashSet<u32> =
        fast.best().predicate.select(&ds.table, &rows).unwrap().into_iter().collect();
    let b: std::collections::HashSet<u32> =
        slow.best().predicate.select(&ds.table, &rows).unwrap().into_iter().collect();
    let jaccard = a.intersection(&b).count() as f64 / a.union(&b).count().max(1) as f64;
    assert!(jaccard > 0.8, "selection overlap too low: {jaccard}");
}

#[test]
fn intel_workload1_names_sensor15() {
    let ds = intel::generate(IntelConfig::workload1());
    let req =
        labeled(&ds.table, Arc::new(StdDev), ds.agg_attr(), &ds.outlier_hours, &ds.holdout_hours)
            .params(0.5, 1.0)
            .explain_attrs(ds.explain_attrs())
            .build()
            .unwrap();
    let ex = req.explain().unwrap();
    assert_eq!(ex.diagnostics.algorithm, "dt"); // STDDEV → DT via Auto
    let best = &ex.best().predicate;
    let s15 = ds.table.cat(1).unwrap().code_of("s15").unwrap();
    let clause = best.clause(1).expect("sensorid clause");
    assert!(clause.matches_code(s15), "got {}", best.display(&ds.table));
}

#[test]
fn expense_workload_recovers_gmmb() {
    let ds = expense::generate(ExpenseConfig { days: 90, ..ExpenseConfig::default() });
    let req = labeled(&ds.table, Arc::new(Sum), ds.agg_attr(), &ds.outlier_days, &ds.holdout_days)
        .params(0.5, 0.5)
        .explain_attrs(ds.explain_attrs())
        .build()
        .unwrap();
    let ex = req.explain().unwrap();
    assert_eq!(ex.diagnostics.algorithm, "mc"); // SUM over positive amounts
    let grouping = req.grouping();
    let rows: Vec<u32> =
        ds.outlier_days.iter().flat_map(|&d| grouping.rows(d).iter().copied()).collect();
    let acc = predicate_accuracy(&ds.table, &ex.best().predicate, &rows, &ds.big_expense_rows);
    assert!(
        acc.f_score > 0.5,
        "F = {} for {}",
        acc.f_score,
        ex.best().predicate.display(&ds.table)
    );
}

#[test]
fn session_caching_is_consistent_across_c() {
    let ds = synth::generate(SynthConfig::easy(2).with_tuples_per_group(300));
    let dim_attrs = ds.dim_attrs();
    let agg_attr = ds.agg_attr();
    let table = ds.table.clone();
    let req = Scorpion::on(table.clone())
        .group_by(&[0], Arc::new(Avg), agg_attr)
        .unwrap()
        .outliers(ds.outlier_groups.iter().map(|&g| (g, 1.0)))
        .holdouts(ds.holdout_groups.iter().copied())
        .explain_attrs(dim_attrs)
        .params(0.5, 0.5)
        .algorithm(Algorithm::DecisionTree(DtConfig { sampling: None, ..DtConfig::default() }))
        .build()
        .unwrap();
    let session = ScorpionSession::new(req).unwrap();
    let mut last_n = usize::MAX;
    let all: Vec<u32> = (0..table.len() as u32).collect();
    for c in [0.5, 0.3, 0.1] {
        let ex = session.run_with_c(c).unwrap();
        let n = ex.best().predicate.count(&table, &all).unwrap();
        // Lower c should never be *more* selective by an order of
        // magnitude; sanity: selections stay non-trivial and influence
        // finite.
        assert!(ex.best().influence.is_finite());
        assert!(n > 0);
        last_n = last_n.min(n);
    }
    assert!(session.is_warm());
}

#[test]
fn median_falls_back_to_naive_blackbox() {
    let ds = synth::generate(SynthConfig::easy(2).with_tuples_per_group(60));
    let req = synth_request(&ds, Arc::new(Median))
        .params(0.5, 0.5)
        .explain_attrs(ds.dim_attrs())
        .build()
        .unwrap();
    let ex = req.explain().unwrap();
    assert_eq!(ex.diagnostics.algorithm, "naive");
    assert!(ex.best().influence.is_finite());
}
