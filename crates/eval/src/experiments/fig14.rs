//! Figure 14: runtime of DT / MC / NAIVE as dimensionality grows (Easy
//! datasets). NAIVE reports its convergence time — "the earliest time
//! that NAIVE converges on the predicate returned when the algorithm
//! terminates".

use crate::experiments::{Scale, C_GRID};
use crate::harness::{dt, mc, naive_with_budget, SynthRun};
use crate::report::{f, Report};
use scorpion_core::naive::naive_search;
use scorpion_core::Algorithm;
use scorpion_data::synth::SynthConfig;
use scorpion_table::domains_of;

/// Regenerates Figure 14.
pub fn run(scale: &Scale) -> Vec<Report> {
    let mut r = Report::new(
        "Figure 14 — runtime (s) vs c as dimensionality grows (Easy)",
        &["dims", "algorithm", "c", "seconds", "note"],
    );
    for dims in 2..=scale.max_dims {
        let run =
            SynthRun::new(SynthConfig::easy(dims).with_tuples_per_group(scale.tuples_per_group));
        let domains = domains_of(&run.ds.table).expect("domains");
        for &c in &C_GRID {
            for (aname, algo) in [("dt", dt()), ("mc", mc())] {
                let ex = run.run(algo, c);
                r.push(vec![
                    dims.to_string(),
                    aname.into(),
                    f(c, 2),
                    f(ex.diagnostics.runtime.as_secs_f64(), 3),
                    String::new(),
                ]);
            }
            // NAIVE convergence time under the anytime budget.
            let req = run.request(naive_with_budget(scale.naive_budget, false), c);
            let Algorithm::Naive(ncfg) = req.algorithm() else { unreachable!() };
            let scorer = req.scorer().expect("scorer");
            let out = naive_search(&scorer, &run.ds.dim_attrs(), &domains, ncfg).expect("naive");
            let note = if out.completed { "completed" } else { "budget hit" };
            r.push(vec![
                dims.to_string(),
                "naive".into(),
                f(c, 2),
                f(out.converged_at.as_secs_f64().max(1e-3), 3),
                note.into(),
            ]);
        }
    }
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dt_and_mc_are_faster_than_naive_budget() {
        let scale = Scale { max_dims: 2, ..Scale::quick() };
        let r = &run(&scale)[0];
        let secs = |alg: &str| -> Vec<f64> {
            r.rows.iter().filter(|row| row[1] == alg).map(|row| row[3].parse().unwrap()).collect()
        };
        assert_eq!(secs("dt").len(), C_GRID.len());
        assert_eq!(secs("mc").len(), C_GRID.len());
        assert_eq!(secs("naive").len(), C_GRID.len());
        for v in secs("dt").iter().chain(secs("mc").iter()) {
            assert!(*v >= 0.0);
        }
    }
}
