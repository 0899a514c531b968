//! Ablation: DT's §6.1.2 influence-weighted sampling (on/off, large
//! groups) and MC's §6.2 pruning (on/off).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scorpion_bench::BenchSynth;
use scorpion_core::dt::DtPartitioner;
use scorpion_core::mc::mc_search;
use scorpion_core::{DtConfig, McConfig, SamplingConfig};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("partitioner_ablation");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));

    // DT sampling: use large groups so sampling engages.
    let fx = BenchSynth::easy(2, 8000);
    let scorer = fx.scorer(0.2);
    for (name, sampling) in [
        ("dt/sampled", Some(SamplingConfig { min_rows_to_sample: 2000, ..Default::default() })),
        ("dt/unsampled", None),
    ] {
        let cfg = DtConfig { sampling, ..DtConfig::default() };
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                let dt =
                    DtPartitioner::new(&scorer, fx.ds.dim_attrs(), fx.domains.clone(), cfg.clone());
                dt.run().expect("dt")
            });
        });
    }

    // MC pruning on a 3-D workload where the candidate space matters.
    let fx3 = BenchSynth::easy(3, 1000);
    let scorer3 = fx3.scorer(0.5);
    for (name, disable_pruning) in [("mc/pruned", false), ("mc/unpruned", true)] {
        let cfg = McConfig { disable_pruning, ..McConfig::default() };
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| mc_search(&scorer3, &fx3.ds.dim_attrs(), &fx3.domains, cfg).expect("mc"));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
