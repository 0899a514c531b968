//! Ablation: the §5.1 incrementally removable fast path vs black-box
//! re-aggregation in the Scorer. The expected shape: the incremental
//! path wins by a widening margin as predicates match fewer tuples (it
//! reads only deleted tuples; the black-box path re-reads everything).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scorpion_agg::{Aggregate, BlackBox, Sum};
use scorpion_bench::{BenchSynth, BENCH_TUPLES_PER_GROUP};
use scorpion_core::{GroupSpec, InfluenceParams, Scorer};
use scorpion_table::{Clause, Predicate};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("scorer_ablation");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    let fx = BenchSynth::easy(2, BENCH_TUPLES_PER_GROUP);
    // Three selectivities: wide (half the domain), medium, narrow.
    let preds: Vec<(&str, Predicate)> = vec![
        ("wide", Predicate::conjunction([Clause::range(2, 0.0, 50.0)]).unwrap()),
        ("medium", Predicate::conjunction([Clause::range(2, 40.0, 60.0)]).unwrap()),
        (
            "narrow",
            Predicate::conjunction([Clause::range(2, 48.0, 52.0), Clause::range(3, 48.0, 52.0)])
                .unwrap(),
        ),
    ];
    let holdouts: Vec<GroupSpec> = fx
        .ds
        .holdout_groups
        .iter()
        .map(|&g| GroupSpec { rows: fx.grouping.rows(g).to_vec(), error: 1.0 })
        .collect();
    let params = InfluenceParams { lambda: 0.5, c: 0.5 };
    // The same SUM, with and without its exact state.
    let aggs: [(&str, &dyn Aggregate); 2] = [("incremental", &Sum), ("blackbox", &BlackBox(Sum))];
    for (label, agg) in aggs {
        let (table, attr) = (&fx.ds.table, fx.ds.agg_attr());
        let scorer = Scorer::new(table, agg, attr, fx.outlier_specs(), holdouts.clone(), params)
            .expect("scorer");
        for (sel, pred) in &preds {
            g.bench_with_input(BenchmarkId::new(label, sel), pred, |b, p| {
                b.iter(|| scorer.influence(p).expect("influence"));
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
