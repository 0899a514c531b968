//! Shared fixtures for the Criterion benches that regenerate the
//! runtime figures (14–16) and the ablation studies.
//!
//! Benchmarks run at a documented scale factor (1,000 tuples per group vs
//! the paper's 2,000) so `cargo bench --workspace` completes in minutes;
//! the `figures` binary reproduces the paper-scale sweeps.

use scorpion_agg::Sum;
use scorpion_core::{Algorithm, ExplainRequest, GroupSpec, InfluenceParams, Scorer, Scorpion};
use scorpion_data::synth::{self, SynthConfig, SynthDataset};
use scorpion_table::{domains_of, group_by, AttrDomain, Grouping};
use std::sync::Arc;

/// Default tuples per group for benches (scale factor 0.5 of the paper).
pub const BENCH_TUPLES_PER_GROUP: usize = 1000;

/// An owned SYNTH workload fixture.
pub struct BenchSynth {
    /// The generated dataset.
    pub ds: SynthDataset,
    /// Grouping by `Ad`.
    pub grouping: Grouping,
    /// Attribute domains.
    pub domains: Vec<AttrDomain>,
}

impl BenchSynth {
    /// Builds an Easy SYNTH fixture.
    pub fn easy(dims: usize, tuples_per_group: usize) -> Self {
        Self::from_config(SynthConfig::easy(dims).with_tuples_per_group(tuples_per_group))
    }

    /// Builds a Hard SYNTH fixture.
    pub fn hard(dims: usize, tuples_per_group: usize) -> Self {
        Self::from_config(SynthConfig::hard(dims).with_tuples_per_group(tuples_per_group))
    }

    /// Builds a fixture from an explicit [`SynthConfig`] (custom noise,
    /// cube placement, or seed — e.g. the low-noise §8.3.2 variant the
    /// approximate-mode benches use).
    pub fn from_config(cfg: SynthConfig) -> Self {
        let ds = synth::generate(cfg);
        let grouping = group_by(&ds.table, &[ds.group_attr()]).expect("group by Ad");
        let domains = domains_of(&ds.table).expect("domains");
        BenchSynth { ds, grouping, domains }
    }

    /// An owned request over this fixture running `algorithm` at `c`
    /// (λ = 0.5). Clones the table into an `Arc` per call; build once
    /// outside the measured loop.
    pub fn request(&self, algorithm: Algorithm, c: f64) -> ExplainRequest {
        Scorpion::on(self.ds.table.clone())
            .query(self.grouping.clone(), Arc::new(Sum), self.ds.agg_attr())
            .expect("bench query")
            .outliers(self.ds.outlier_groups.iter().map(|&g| (g, 1.0)))
            .holdouts(self.ds.holdout_groups.iter().copied())
            .params(0.5, c)
            .algorithm(algorithm)
            .build()
            .expect("bench request")
    }

    /// A SUM scorer at the given `c` (λ = 0.5).
    pub fn scorer(&self, c: f64) -> Scorer<'_> {
        let (outliers, holdouts) = (self.outlier_specs(), self.specs(&self.ds.holdout_groups));
        let params = InfluenceParams { lambda: 0.5, c };
        Scorer::new(&self.ds.table, &Sum, self.ds.agg_attr(), outliers, holdouts, params)
            .expect("scorer")
    }

    /// Level-of-detail hint: total rows.
    pub fn rows(&self) -> usize {
        self.ds.table.len()
    }

    /// Builds GroupSpecs for the outlier groups (for direct Scorer use).
    pub fn outlier_specs(&self) -> Vec<GroupSpec> {
        self.specs(&self.ds.outlier_groups)
    }

    fn specs(&self, groups: &[usize]) -> Vec<GroupSpec> {
        groups
            .iter()
            .map(|&g| GroupSpec { rows: self.grouping.rows(g).to_vec(), error: 1.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_and_scores() {
        let fx = BenchSynth::easy(2, 100);
        assert_eq!(fx.rows(), 1000);
        let s = fx.scorer(0.5);
        assert!(s.incremental_agg().is_some());
        let p = scorpion_table::Predicate::all();
        assert!(s.influence(&p).unwrap().is_finite());
        assert_eq!(fx.outlier_specs().len(), 5);
    }
}
