//! # scorpion-eval
//!
//! Experiment runners and accuracy metrics reproducing every figure of
//! the Scorpion evaluation (§8). The `figures` binary prints the
//! rows/series each figure plots:
//!
//! ```text
//! cargo run --release -p scorpion-eval --bin figures -- all
//! cargo run --release -p scorpion-eval --bin figures -- fig12 fig14 --quick
//! ```
//!
//! See DESIGN.md for the experiment index (figure → modules → harness).

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod report;

pub use experiments::Scale;
pub use metrics::{accuracy, predicate_accuracy, Accuracy};
pub use report::Report;

/// All experiment names, in presentation order.
pub const EXPERIMENTS: [&str; 14] = [
    "fig01",
    "fig04",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "intel",
    "expense",
    "ablations",
];

/// Runs one experiment by name.
pub fn run_experiment(name: &str, scale: &Scale) -> Option<Vec<Report>> {
    let reports = match name {
        "fig01" => experiments::fig01::run(scale),
        "fig04" => experiments::fig04::run(scale),
        "fig08" => experiments::fig08::run(scale),
        "fig09" => experiments::fig09::run(scale),
        "fig10" => experiments::fig10::run(scale),
        "fig11" => experiments::fig11::run(scale),
        "fig12" => experiments::fig12::run(scale),
        "fig13" => experiments::fig13::run(scale),
        "fig14" => experiments::fig14::run(scale),
        "fig15" => experiments::fig15::run(scale),
        "fig16" => experiments::fig16::run(scale),
        "intel" => experiments::intel_exp::run(scale),
        "expense" => experiments::expense_exp::run(scale),
        "ablations" => experiments::ablations::run(scale),
        _ => return None,
    };
    Some(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_registered_experiments_resolve() {
        // Only resolve the cheap ones here; heavyweight runners have their
        // own module tests.
        {
            let name = "fig04";
            assert!(run_experiment(name, &Scale::quick()).is_some());
        }
        assert!(run_experiment("nope", &Scale::quick()).is_none());
        assert_eq!(EXPERIMENTS.len(), 14);
    }
}
