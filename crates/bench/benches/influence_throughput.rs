//! Influence hot-path throughput: row-at-a-time baseline vs the bitmap
//! kernel path, cold and clause-cache-warm.
//!
//! The workload mirrors one DT/MC re-score level: a grid of 64
//! two-clause candidates over a 100k-row SYNTH table, where the 64
//! candidates share 16 distinct clauses — exactly the shape the
//! [`scorpion_table::ClauseMaskCache`] exploits. Three variants:
//!
//! * `rowwise` — the pre-vectorization reference: every candidate walks
//!   every labeled row through the `PredicateMatcher`
//!   ([`Scorer::influence_rowwise`]).
//! * `mask_cold` — the mask path with an empty clause cache per batch
//!   (kernel passes included).
//! * `mask_warm` — the mask path with the clause cache warm: per
//!   candidate, `(n, Δ)` is a word-zip of cached bitmaps.
//!
//! Plus the two-stage approximate mode on a low-noise variant of the
//! same workload (identical row/group/candidate geometry, so the exact
//! cost matches `mask_warm` — selectivity is driven by the uniform
//! dimension columns, not the values):
//!
//! * `exact_lownoise` — `mask_warm` on the low-noise fixture: the
//!   denominator of the approximate-mode speedup claim.
//! * `approx_warm` — interval-prune then exact survivors, clause cache
//!   and sampler state warm: the steady state of a DT `best_split`
//!   re-score level (`top_k = 1`).
//! * `approx_cold` — the same batch with a cold clause cache; the
//!   sampler state is shared (engines share it across rebinds the same
//!   way, §6.4), so this isolates first-touch mask evaluation.
//!
//! No `InfluenceCache` is attached, so every variant recomputes `(n, Δ)`
//! per call — this isolates predicate evaluation, not result caching.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scorpion_bench::BenchSynth;
use scorpion_core::{ApproxConfig, Scorer};
use scorpion_data::synth::SynthConfig;
use scorpion_table::{Clause, Predicate};
use std::time::Duration;

/// Tuples per group; 10 groups → 100k rows total.
const TUPLES_PER_GROUP: usize = 10_000;

/// Grid side: SIDE × SIDE candidates from 2 × SIDE distinct clauses.
const SIDE: usize = 8;

/// `top_k` for the approximate groups: the DT `best_split` scenario —
/// only the best candidate of the level is kept.
const APPROX_TOP_K: usize = 1;

fn level_candidates(fx: &BenchSynth) -> Vec<Predicate> {
    let attrs = fx.ds.dim_attrs();
    let (ax, ay) = (attrs[0], attrs[1]);
    let step = 100.0 / SIDE as f64;
    let clause =
        |attr: usize, i: usize| Clause::range(attr, i as f64 * step, (i + 1) as f64 * step + 20.0);
    let mut out = Vec::with_capacity(SIDE * SIDE);
    for i in 0..SIDE {
        for j in 0..SIDE {
            out.push(Predicate::conjunction([clause(ax, i), clause(ay, j)]).unwrap());
        }
    }
    out
}

fn score_batch(s: &Scorer<'_>, preds: &[Predicate]) -> f64 {
    let mut acc = 0.0;
    for p in preds {
        acc += s.influence(p).expect("scoring succeeds");
    }
    acc
}

fn bench_influence(c: &mut Criterion) {
    // The flight recorder is on for the whole run: the acceptance bar is
    // that the hot path stays within noise of a recorder-less build
    // (scoring never touches the ring; there is nothing on this path to
    // slow down, and this keeps the bench honest about it).
    scorpion_obs::telemetry().enable();
    let fx = BenchSynth::easy(2, TUPLES_PER_GROUP);
    let preds = level_candidates(&fx);
    let mut g = c.benchmark_group("influence_throughput");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_millis(500))
        .throughput(Throughput::Elements(preds.len() as u64));

    // Pre-refactor baseline: row-at-a-time matcher per candidate.
    let s = fx.scorer(0.5);
    g.bench_with_input(BenchmarkId::new("rowwise", fx.rows()), &preds, |b, preds| {
        b.iter(|| {
            let mut acc = 0.0;
            for p in preds {
                acc += s.influence_rowwise(p).expect("scoring succeeds");
            }
            acc
        });
    });

    // Mask path, clause cache cold per batch: fresh scorer each round
    // (its construction is excluded from the timed region).
    g.bench_with_input(BenchmarkId::new("mask_cold", fx.rows()), &preds, |b, preds| {
        b.iter_batched(
            || fx.scorer(0.5),
            |s| score_batch(&s, preds),
            criterion::BatchSize::LargeInput,
        );
    });

    // Mask path, clause cache warm: the steady state of a DT/MC level.
    let warm = fx.scorer(0.5);
    score_batch(&warm, &preds);
    g.bench_with_input(BenchmarkId::new("mask_warm", fx.rows()), &preds, |b, preds| {
        b.iter(|| score_batch(&warm, preds));
    });

    assert_eq!(warm.mask_cache_entries() as usize, 2 * SIDE, "distinct clauses cached once");

    // ---- Approximate mode, low-noise fixture ----
    //
    // Interval pruning needs the deviant value mass to fit inside the
    // sampler's deviation stratum and the background noise to be small
    // against the signal; §8.3.2 of the paper re-runs SYNTH with zero
    // value noise for the same reason. Background σ = 1 (cube rows keep
    // the generator's fixed σ = 10) and explicit nested cubes at 4% / 1%
    // mass; everything else — rows, groups, candidate grid, shared
    // clauses — matches the exact-path fixture above.
    let mut lcfg = SynthConfig::easy(2).with_tuples_per_group(TUPLES_PER_GROUP);
    lcfg.normal_std = 1.0;
    lcfg.cubes = Some((vec![(30.0, 50.0); 2], vec![(35.0, 45.0); 2]));
    let lfx = BenchSynth::from_config(lcfg);
    let lpreds = level_candidates(&lfx);

    // The denominator of the speedup claim: mask_warm on this fixture.
    let lexact = lfx.scorer(0.5);
    score_batch(&lexact, &lpreds);
    g.bench_with_input(BenchmarkId::new("exact_lownoise", lfx.rows()), &lpreds, |b, preds| {
        b.iter(|| score_batch(&lexact, preds));
    });

    let approx = lfx
        .scorer(0.5)
        .with_approx(ApproxConfig::default())
        .expect("SUM admits the closed-form interval");
    approx.influence_batch_pruned(&lpreds, APPROX_TOP_K);
    g.bench_with_input(BenchmarkId::new("approx_warm", lfx.rows()), &lpreds, |b, preds| {
        b.iter(|| {
            let batch = approx.influence_batch_pruned(preds, APPROX_TOP_K);
            let mut acc = 0.0;
            for r in batch.scores {
                acc += r.expect("scoring succeeds");
            }
            acc
        });
    });

    let state = approx.approx_state().expect("approx attached").clone();
    g.bench_with_input(BenchmarkId::new("approx_cold", lfx.rows()), &lpreds, |b, preds| {
        b.iter_batched(
            || lfx.scorer(0.5).with_approx_state(state.clone()),
            |s| {
                let batch = s.influence_batch_pruned(preds, APPROX_TOP_K);
                let mut acc = 0.0;
                for r in batch.scores {
                    acc += r.expect("scoring succeeds");
                }
                acc
            },
            criterion::BatchSize::LargeInput,
        );
    });

    // Deterministic acceptance checks, outside the timed loops: the
    // interval pass prunes most of the level, reports a finite bound,
    // and agrees with the exact scorer on the best candidate.
    let check = approx.influence_batch_pruned(&lpreds, APPROX_TOP_K);
    assert!(
        check.pruned as usize >= lpreds.len() / 2,
        "interval pass should prune most of the level, pruned {}/{}",
        check.pruned,
        lpreds.len()
    );
    assert!(check.error_bound.is_finite() && check.error_bound >= 0.0, "honest bound");
    let argmax = |scores: &[f64]| {
        scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap()
    };
    let exact_scores: Vec<f64> = lpreds.iter().map(|p| lexact.influence(p).unwrap()).collect();
    let approx_scores: Vec<f64> = check.scores.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(argmax(&exact_scores), argmax(&approx_scores), "top-1 parity under pruning");

    g.finish();
}

criterion_group!(benches, bench_influence);
criterion_main!(benches);
