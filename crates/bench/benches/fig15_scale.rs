//! Figure 15 bench: cost as the dataset grows (tuples per group 500 →
//! 5,000; Easy; c = 0.1). The expected shape is near-linear scaling for
//! both DT and MC.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scorpion_bench::BenchSynth;
use scorpion_core::dt::DtPartitioner;
use scorpion_core::mc::mc_search;
use scorpion_core::{DtConfig, McConfig};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig15_scale");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));
    for n in [500usize, 1000, 2500, 5000] {
        let fx = BenchSynth::easy(2, n);
        let scorer = fx.scorer(0.1);
        g.throughput(Throughput::Elements(fx.rows() as u64));
        g.bench_with_input(BenchmarkId::new("dt", n), &n, |b, _| {
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
        g.bench_with_input(BenchmarkId::new("mc", n), &n, |b, _| {
            b.iter(|| {
                mc_search(&scorer, &fx.ds.dim_attrs(), &fx.domains, &McConfig::default())
                    .expect("mc")
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
