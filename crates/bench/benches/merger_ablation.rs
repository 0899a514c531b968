//! Ablation: the §6.3 Merger optimizations — cached-tuple influence
//! approximation (no Scorer calls during expansion) and top-quartile seed
//! selection — against the basic exact merger.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scorpion_bench::{BenchSynth, BENCH_TUPLES_PER_GROUP};
use scorpion_core::dt::DtPartitioner;
use scorpion_core::merger::Merger;
use scorpion_core::{DtConfig, MergerConfig, ScoredPredicate};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("merger_ablation");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));
    let fx = BenchSynth::easy(2, BENCH_TUPLES_PER_GROUP);
    let scorer = fx.scorer(0.3);
    // Produce the partitions once; every merger variant consumes clones.
    let dt =
        DtPartitioner::new(&scorer, fx.ds.dim_attrs(), fx.domains.clone(), DtConfig::default());
    let (partitions, _) = dt.partition().expect("partitions");
    let variants: [(&str, MergerConfig); 4] = [
        (
            "exact/all-seeds",
            MergerConfig {
                use_cached_tuples: false,
                top_quartile_only: false,
                ..MergerConfig::default()
            },
        ),
        (
            "exact/top-quartile",
            MergerConfig {
                use_cached_tuples: false,
                top_quartile_only: true,
                ..MergerConfig::default()
            },
        ),
        (
            "approx/all-seeds",
            MergerConfig {
                use_cached_tuples: true,
                top_quartile_only: false,
                ..MergerConfig::default()
            },
        ),
        (
            "approx/top-quartile",
            MergerConfig {
                use_cached_tuples: true,
                top_quartile_only: true,
                ..MergerConfig::default()
            },
        ),
    ];
    for (name, cfg) in variants {
        let input: Vec<ScoredPredicate> = partitions.clone();
        g.bench_with_input(BenchmarkId::from_parameter(name), &input, |b, inp| {
            let merger = Merger::new(&scorer, &fx.domains, cfg.clone());
            b.iter(|| merger.merge(inp.clone()).expect("merge"));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
