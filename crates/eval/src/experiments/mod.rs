//! Experiment runners: one module per figure/table of the paper's
//! evaluation (§8). Each `run(&Scale)` regenerates the figure's
//! rows/series as [`Report`](crate::report::Report)s.

pub mod ablations;
pub mod expense_exp;
pub mod fig01;
pub mod fig04;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod intel_exp;

use std::time::Duration;

/// The `c` grid the accuracy figures sweep (paper: 0 – 0.5).
pub const C_GRID: [f64; 6] = [0.0, 0.05, 0.1, 0.2, 0.35, 0.5];

/// The `c` values of Figure 9's panels.
pub const C_FIG9: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.5];

/// Experiment scale: `full()` approximates the paper's setup; `quick()`
/// shrinks datasets and budgets for tests and smoke runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// SYNTH tuples per group (paper: 2,000).
    pub tuples_per_group: usize,
    /// Anytime budget for NAIVE runs beyond 2-D.
    pub naive_budget: Duration,
    /// Largest dimensionality swept (paper: 4).
    pub max_dims: usize,
    /// Figure 15 group-size sweep.
    pub scale_sweep: &'static [usize],
    /// INTEL hours simulated.
    pub intel_hours: usize,
    /// EXPENSE days simulated.
    pub expense_days: usize,
}

impl Scale {
    /// Paper-equivalent scale.
    pub fn full() -> Self {
        Scale {
            tuples_per_group: 2000,
            naive_budget: Duration::from_secs(8),
            max_dims: 4,
            scale_sweep: &[500, 1000, 2500, 5000, 10_000],
            intel_hours: 72,
            expense_days: 180,
        }
    }

    /// Fast smoke-test scale.
    pub fn quick() -> Self {
        Scale {
            tuples_per_group: 250,
            naive_budget: Duration::from_millis(400),
            max_dims: 3,
            scale_sweep: &[250, 500],
            intel_hours: 48,
            expense_days: 60,
        }
    }
}
