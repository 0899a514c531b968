//! Figure 4: the DT stopping-threshold curve ω(inf_max) (§6.1.1).

use crate::experiments::Scale;
use crate::report::{f, Report};
use scorpion_core::dt::{ThresholdCurve, INFLECTION, TAU_MAX, TAU_MIN};

/// Samples the threshold curve at the engine's parameters.
pub fn run(_scale: &Scale) -> Vec<Report> {
    let curve = ThresholdCurve::new(TAU_MIN, TAU_MAX, INFLECTION, 0.0, 100.0);
    let mut r = Report::new(
        format!(
            "Figure 4 — threshold curve ω(inf_max), τ_min={TAU_MIN}, τ_max={TAU_MAX}, \
             p={INFLECTION}, inf range [0, 100]"
        ),
        &["inf_max", "omega", "threshold"],
    );
    for (x, w) in curve.sample(21) {
        r.push(vec![f(x, 1), f(w, 4), f(curve.threshold(x), 3)]);
    }
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_decreases_from_tau_max_to_tau_min() {
        let r = &run(&Scale::quick())[0];
        let omegas: Vec<f64> = r.rows.iter().map(|row| row[1].parse().unwrap()).collect();
        assert_eq!(omegas.len(), 21);
        assert!((omegas[0] - TAU_MAX).abs() < 1e-9);
        assert!((omegas[20] - TAU_MIN).abs() < 1e-9);
        for w in omegas.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }
}
