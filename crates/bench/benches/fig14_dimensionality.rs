//! Figure 14 bench: DT / MC / budgeted-NAIVE cost as dimensionality
//! grows (SYNTH-Easy). Reproduces the figure's runtime series; the
//! expected shape is DT and MC one-to-two orders of magnitude below
//! NAIVE, with MC's cost growing as `c` grows (weaker pruning).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scorpion_bench::{BenchSynth, BENCH_TUPLES_PER_GROUP};
use scorpion_core::dt::DtPartitioner;
use scorpion_core::mc::mc_search;
use scorpion_core::naive::naive_search;
use scorpion_core::{DtConfig, McConfig, NaiveConfig};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig14_dimensionality");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));
    for dims in [2usize, 3, 4] {
        let fx = BenchSynth::easy(dims, BENCH_TUPLES_PER_GROUP);
        for c_param in [0.1f64, 0.4] {
            let scorer = fx.scorer(c_param);
            g.bench_with_input(BenchmarkId::new(format!("dt/c={c_param}"), dims), &dims, |b, _| {
                b.iter(|| {
                    let dt = DtPartitioner::new(
                        &scorer,
                        fx.ds.dim_attrs(),
                        fx.domains.clone(),
                        DtConfig::default(),
                    );
                    dt.run().expect("dt")
                });
            });
            g.bench_with_input(BenchmarkId::new(format!("mc/c={c_param}"), dims), &dims, |b, _| {
                b.iter(|| {
                    mc_search(&scorer, &fx.ds.dim_attrs(), &fx.domains, &McConfig::default())
                        .expect("mc")
                });
            });
        }
        // NAIVE with a short anytime budget (its full cost is the point of
        // the figure; we cap it so the bench terminates).
        let scorer = fx.scorer(0.1);
        let cfg =
            NaiveConfig { time_budget: Some(Duration::from_millis(250)), ..NaiveConfig::default() };
        g.bench_with_input(BenchmarkId::new("naive/budget=250ms/c=0.1", dims), &dims, |b, _| {
            b.iter(|| naive_search(&scorer, &fx.ds.dim_attrs(), &fx.domains, &cfg).expect("naive"));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
