//! Ablations of four optimizations, each on and off over one SYNTH-Easy
//! workload:
//!
//! * §5.1 — the incrementally removable Scorer path against black-box
//!   re-aggregation of the same SUM, per influence call at three
//!   selectivities;
//! * §6.1.2 — DT's influence-weighted sampling on large groups;
//! * §6.2 — MC's pruning of dominated candidates;
//! * §6.3 — the Merger's cached-tuple influence estimates and
//!   top-quartile seed selection, timed by the `run.merge` phase.

use crate::experiments::Scale;
use crate::harness::SynthRun;
use crate::report::{f, Report};
use scorpion_agg::{BlackBox, Sum};
use scorpion_core::{
    Algorithm, DtConfig, ExplainRequest, Explanation, McConfig, MergerConfig, SamplingConfig,
};
use scorpion_data::synth::SynthConfig;
use scorpion_table::{Clause, Predicate};
use std::sync::Arc;
use std::time::Instant;

/// Influence calls timed per (aggregate, selectivity) cell.
const SCORER_REPS: usize = 50;

/// Regenerates the four ablation tables.
pub fn run(scale: &Scale) -> Vec<Report> {
    vec![scorer(scale), sampling(scale), pruning(scale), merger(scale)]
}

fn cells(variant: &str, ex: &Explanation) -> Vec<String> {
    let d = &ex.diagnostics;
    vec![
        variant.into(),
        f(d.runtime.as_secs_f64(), 3),
        d.scorer_calls.to_string(),
        d.partitions.to_string(),
        f(ex.best().influence, 4),
    ]
}

/// §5.1: the same SUM scored through its removable state and as a black
/// box, per influence call. The incremental path reads only the deleted
/// tuples, so its lead widens as predicates match fewer of them.
fn scorer(scale: &Scale) -> Report {
    let mut r = Report::new(
        "Ablation §5.1 — influence call cost (µs), incremental vs black-box SUM (2-D Easy)",
        &["selectivity", "incremental_us", "blackbox_us", "speedup", "influence", "blackbox_inf"],
    );
    let run = SynthRun::new(SynthConfig::easy(2).with_tuples_per_group(scale.tuples_per_group));
    let incremental = run.request(Algorithm::Auto, 0.5);
    let blackbox = ExplainRequest::from_parts(
        incremental.table().clone(),
        incremental.grouping().clone(),
        Arc::new(BlackBox(Sum)),
        incremental.agg_attr(),
        incremental.outliers().to_vec(),
        incremental.holdouts().to_vec(),
    )
    .expect("black-box request")
    .with_params(incremental.params());
    let (ax, ay) = (run.ds.dim_attrs()[0], run.ds.dim_attrs()[1]);
    let preds = [
        ("wide", Predicate::conjunction([Clause::range(ax, 0.0, 50.0)])),
        ("medium", Predicate::conjunction([Clause::range(ax, 40.0, 60.0)])),
        (
            "narrow",
            Predicate::conjunction([Clause::range(ax, 48.0, 52.0), Clause::range(ay, 48.0, 52.0)]),
        ),
    ];
    let (inc, bb) = (incremental.scorer().expect("scorer"), blackbox.scorer().expect("scorer"));
    for (name, pred) in preds {
        let pred = pred.expect("predicate");
        // One untimed call first builds the predicate's clause masks.
        let time = |s: &scorpion_core::Scorer<'_>| {
            s.influence(&pred).expect("influence");
            let start = Instant::now();
            let mut v = 0.0;
            for _ in 0..SCORER_REPS {
                v = s.influence(&pred).expect("influence");
            }
            (start.elapsed().as_secs_f64() * 1e6 / SCORER_REPS as f64, v)
        };
        let ((inc_us, inc_inf), (bb_us, bb_inf)) = (time(&inc), time(&bb));
        r.push(vec![
            name.into(),
            f(inc_us, 1),
            f(bb_us, 1),
            format!("{:.1}x", bb_us / inc_us.max(1e-9)),
            f(inc_inf, 4),
            f(bb_inf, 4),
        ]);
    }
    r
}

/// §6.1.2: DT with and without influence-weighted sampling, on groups
/// four times the scale's size so that sampling engages.
fn sampling(scale: &Scale) -> Report {
    let mut r = Report::new(
        "Ablation §6.1.2 — DT sampling on large groups (2-D Easy, c = 0.2)",
        &["variant", "seconds", "scorer_calls", "partitions", "best_influence"],
    );
    let tuples = 4 * scale.tuples_per_group;
    let run = SynthRun::new(SynthConfig::easy(2).with_tuples_per_group(tuples));
    let sampled = SamplingConfig { min_rows_to_sample: tuples / 4, ..SamplingConfig::default() };
    for (name, sampling) in [("sampled", Some(sampled)), ("unsampled", None)] {
        let algo = Algorithm::DecisionTree(DtConfig { sampling, ..DtConfig::default() });
        r.push(cells(name, &run.run(algo, 0.2)));
    }
    r
}

/// §6.2: MC with and without pruning on a 3-D workload.
fn pruning(scale: &Scale) -> Report {
    let mut r = Report::new(
        "Ablation §6.2 — MC pruning (3-D Easy, c = 0.5)",
        &["variant", "seconds", "scorer_calls", "partitions", "best_influence"],
    );
    let run = SynthRun::new(SynthConfig::easy(3).with_tuples_per_group(scale.tuples_per_group));
    for (name, disable_pruning) in [("pruned", false), ("unpruned", true)] {
        let algo = Algorithm::BottomUp(McConfig { disable_pruning, ..McConfig::default() });
        r.push(cells(name, &run.run(algo, 0.5)));
    }
    r
}

/// §6.3: the DT Merger with exact or cached-tuple influence estimates,
/// seeded from every partition or from the top quartile. The time is the
/// `run.merge` phase alone; partitioning is the same for every variant.
fn merger(scale: &Scale) -> Report {
    let mut r = Report::new(
        "Ablation §6.3 — Merger optimizations (2-D Easy, c = 0.3, run.merge phase)",
        &["variant", "merge_s", "scorer_calls", "partitions", "best_influence"],
    );
    let run = SynthRun::new(SynthConfig::easy(2).with_tuples_per_group(scale.tuples_per_group));
    for (name, use_cached_tuples, top_quartile_only) in [
        ("exact/all-seeds", false, false),
        ("exact/top-quartile", false, true),
        ("cached/all-seeds", true, false),
        ("cached/top-quartile", true, true),
    ] {
        let merger =
            MergerConfig { use_cached_tuples, top_quartile_only, ..MergerConfig::default() };
        let ex = run.run(Algorithm::DecisionTree(DtConfig { merger, ..DtConfig::default() }), 0.3);
        let merge_ms: f64 = ex
            .diagnostics
            .phases
            .iter()
            .filter(|p| p.name == "run.merge")
            .map(|p| p.millis())
            .sum();
        let mut row = cells(name, &ex);
        row[1] = f(merge_ms / 1e3, 4);
        r.push(row);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_report_every_variant() {
        let scale = Scale { tuples_per_group: 100, ..Scale::quick() };
        let reports = run(&scale);
        let rows: Vec<usize> = reports.iter().map(|r| r.rows.len()).collect();
        assert_eq!(rows, [3, 2, 2, 4]);
        // Both Scorer paths score the same SUM.
        for row in &reports[0].rows {
            assert!(row[1].parse::<f64>().unwrap() > 0.0, "{row:?}");
            assert_eq!(row[4], row[5], "{row:?}");
        }
        // Each DT variant spent time in the merge phase.
        for row in &reports[3].rows {
            assert!(row[1].parse::<f64>().unwrap() > 0.0, "{row:?}");
        }
    }
}
