//! Figure 11: NAIVE's best-so-far accuracy as execution time increases
//! on SYNTH-2D-Hard, for `c ∈ {0, 0.1, 0.5}`.

use crate::experiments::Scale;
use crate::harness::SynthRun;
use crate::report::{f, Report};
use scorpion_core::naive::naive_search;
use scorpion_core::{Algorithm, NaiveConfig};
use scorpion_data::synth::SynthConfig;
use scorpion_table::domains_of;
use std::time::Duration;

/// Regenerates Figure 11: one trace row per best-so-far improvement.
pub fn run(scale: &Scale) -> Vec<Report> {
    let run = SynthRun::new(SynthConfig::hard(2).with_tuples_per_group(scale.tuples_per_group));
    let domains = domains_of(&run.ds.table).expect("domains");
    let mut r = Report::new(
        "Figure 11 — NAIVE best-so-far accuracy vs wall-clock time, \
         SYNTH-2D-Hard",
        &["c", "elapsed_s", "influence", "F_inner", "F_outer"],
    );
    for &c in &[0.0, 0.1, 0.5] {
        let cfg = NaiveConfig {
            keep_trace: true,
            time_budget: Some(scale.naive_budget.max(Duration::from_secs(30))),
            ..NaiveConfig::default()
        };
        let req = run.request(Algorithm::Naive(cfg.clone()), c);
        let scorer = req.scorer().expect("scorer");
        let out = naive_search(&scorer, &run.ds.dim_attrs(), &domains, &cfg).expect("naive");
        for tp in &out.trace {
            let inner = run.accuracy(&tp.predicate, true);
            let outer = run.accuracy(&tp.predicate, false);
            r.push(vec![
                f(c, 1),
                f(tp.elapsed.as_secs_f64(), 3),
                f(tp.influence, 3),
                f(inner.f_score, 3),
                f(outer.f_score, 3),
            ]);
        }
    }
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_exist_and_are_time_ordered() {
        let r = &run(&Scale::quick())[0];
        assert!(!r.rows.is_empty());
        for c in ["0.0", "0.1", "0.5"] {
            let times: Vec<f64> = r
                .rows
                .iter()
                .filter(|row| row[0] == c)
                .map(|row| row[1].parse().unwrap())
                .collect();
            assert!(!times.is_empty(), "no trace for c = {c}");
            for w in times.windows(2) {
                assert!(w[1] >= w[0]);
            }
        }
    }
}
