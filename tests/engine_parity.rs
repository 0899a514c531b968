//! Warm-path guarantees of the prepared-plan engines.
//!
//! Per algorithm (DT / MC / NAIVE):
//!
//! 1. **Warm runs** — a session's second run at a new `c` matches a
//!    cold run at that `c` (exactly for MC/NAIVE, whose searches are
//!    deterministic; at-least-as-good for DT, whose warm merge sees a
//!    superset of the cold inputs) while performing strictly fewer
//!    scorer calls — the §8.3.3 cache generalized to every engine.
//!
//! 2. **Shared plans** — sessions shared through the server's plan cache
//!    across threads answer exactly like a fresh single-threaded
//!    `ExplainRequest::explain` per `(algorithm, c)`. The influence
//!    cache stores per-group `(n, Δ)` pairs and replays the exact
//!    scoring arithmetic, so equality is to machine precision.
//!
//! 3. **Repeats** — a run at a `(λ, c)` the plan already answered
//!    returns that first answer bit for bit from the plan's memo, with
//!    no scoring work at all.

use scorpion::prelude::*;
use std::sync::Arc;

/// Planted workload: outlier group "o" runs hot for x ∈ [20, 60); the
/// hold-out group "h" is uniform.
fn planted(n: usize) -> Table {
    let schema = Schema::new(vec![Field::disc("g"), Field::cont("x"), Field::cont("v")]).unwrap();
    let mut b = TableBuilder::new(schema);
    for i in 0..n {
        let x = (i as f64 * 7.3) % 100.0;
        let v = if (20.0..60.0).contains(&x) { 80.0 } else { 10.0 };
        b.push_row(vec!["o".into(), Value::from(x), v.into()]).unwrap();
        b.push_row(vec!["h".into(), Value::from(x), Value::from(10.0)]).unwrap();
    }
    b.build()
}

fn algorithms() -> Vec<(&'static str, Algorithm, Arc<dyn Aggregate>)> {
    vec![
        (
            "dt",
            Algorithm::DecisionTree(DtConfig { sampling: None, ..DtConfig::default() }),
            Arc::new(Avg),
        ),
        ("mc", Algorithm::BottomUp(McConfig::default()), Arc::new(Sum)),
        (
            "naive",
            Algorithm::Naive(NaiveConfig { time_budget: None, ..NaiveConfig::default() }),
            Arc::new(Sum),
        ),
    ]
}

fn request(t: &Table, algorithm: Algorithm, agg: Arc<dyn Aggregate>, c: f64) -> ExplainRequest {
    Scorpion::on(t.clone())
        .group_by(&[0], agg, 2)
        .unwrap()
        .outlier(0, 1.0)
        .holdout(1)
        .params(0.5, c)
        .algorithm(algorithm)
        .build()
        .unwrap()
}

fn assert_same_results(name: &str, a: &Explanation, b: &Explanation) {
    assert_eq!(
        a.predicates.len(),
        b.predicates.len(),
        "[{name}] result counts differ: {} vs {}",
        a.predicates.len(),
        b.predicates.len()
    );
    for (i, (x, y)) in a.predicates.iter().zip(&b.predicates).enumerate() {
        assert_eq!(x.predicate, y.predicate, "[{name}] predicate #{i} differs");
        assert!(
            (x.influence - y.influence).abs() <= 1e-12 * x.influence.abs().max(1.0),
            "[{name}] influence #{i}: {} vs {}",
            x.influence,
            y.influence
        );
    }
}

/// Acceptance: the session accepts every engine, and a warm second run
/// at a new `c` performs strictly fewer scorer calls than the cold run
/// — for DT **and** MC **and** NAIVE.
#[test]
fn warm_second_run_is_strictly_cheaper_for_every_engine() {
    let t = planted(300);
    for (name, algo, agg) in algorithms() {
        let session = ScorpionSession::new(request(&t, algo, agg, 0.5)).unwrap();
        assert_eq!(session.algorithm(), name);
        let cold = session.run_with_c(0.5).unwrap();
        let warm = session.run_with_c(0.3).unwrap();
        assert!(
            warm.diagnostics.scorer_calls < cold.diagnostics.scorer_calls,
            "[{name}] warm {} vs cold {} scorer calls",
            warm.diagnostics.scorer_calls,
            cold.diagnostics.scorer_calls
        );
        assert!(
            warm.diagnostics.cache_hits > 0,
            "[{name}] warm run should hit the influence cache"
        );
    }
}

/// A warm run at a new `c` must match a cold run at that `c`: exactly
/// for MC and NAIVE (deterministic searches over identical prepared
/// artifacts and bit-identical cached scores), and at-least-as-good for
/// DT (the warm merge sees a superset of the cold run's inputs).
#[test]
fn warm_run_matches_cold_run_at_new_c() {
    let t = planted(300);
    for (name, algo, agg) in algorithms() {
        let warm_session =
            ScorpionSession::new(request(&t, algo.clone(), agg.clone(), 0.5)).unwrap();
        let _ = warm_session.run_with_c(0.5).unwrap();
        let warm = warm_session.run_with_c(0.3).unwrap();

        let cold_session = ScorpionSession::new(request(&t, algo, agg, 0.5)).unwrap();
        let cold = cold_session.run_with_c(0.3).unwrap();

        if name == "dt" {
            assert!(
                warm.best().influence >= cold.best().influence - 1e-9,
                "[dt] warm merge regressed: {} vs {}",
                warm.best().influence,
                cold.best().influence
            );
        } else {
            assert_same_results(name, &warm, &cold);
        }
    }
}

/// An explicit algorithm on a request overrides what `Auto` would pick.
#[test]
fn explicit_engine_override() {
    let t = planted(200);
    let req = request(&t, Algorithm::Auto, Arc::new(Sum), 0.5);
    let req = req.with_algorithm(Algorithm::BottomUp(McConfig::default()));
    let session = ScorpionSession::new(req).unwrap();
    assert_eq!(session.algorithm(), "mc");
    let ex = session.run_default().unwrap();
    assert_eq!(ex.diagnostics.algorithm, "mc");
    assert!(ex.best().influence.is_finite());
}

/// The server substrate under concurrency: N threads hammering one
/// shared `TableRegistry`/`PlanCache` must produce bit-exact results vs
/// a fresh single-threaded `explain()` per `(algorithm, c)` — the shared
/// sessions, shared influence caches, and racing plan builders may never
/// change an answer. (DT is excluded from the bit-exact check: its warm
/// merge legitimately sees a superset of the cold inputs across `c`
/// values; it is asserted at-least-as-good instead.)
#[test]
fn concurrent_shared_plan_cache_matches_fresh_explain() {
    use scorpion::server::{PlanCache, PlanEntry, PlanKey, TableRegistry};

    let t = planted(300);
    let cs = [0.5, 0.3, 0.7];

    // Single-threaded reference: a fresh request per (algo, c).
    let mut reference = std::collections::HashMap::new();
    for (name, algo, agg) in algorithms() {
        for &c in &cs {
            let fresh = request(&t, algo.clone(), agg.clone(), c).explain().unwrap();
            reference.insert((name, c.to_bits()), fresh);
        }
    }

    let registry = TableRegistry::new();
    registry.insert("planted", t.clone());
    let plans = PlanCache::with_capacity(64);
    let algos = algorithms();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|worker| {
                let registry = &registry;
                let plans = &plans;
                let algos = &algos;
                let reference = &reference;
                s.spawn(move || {
                    // Each worker walks the (algo, c) grid in a
                    // different rotation so hits and misses interleave.
                    for step in 0..algos.len() * cs.len() {
                        let idx = (step + worker) % (algos.len() * cs.len());
                        let (name, algo, agg) = &algos[idx / cs.len()];
                        let c = cs[idx % cs.len()];
                        let entry = registry.get("planted").expect("registered");
                        let key = PlanKey::new(
                            &entry,
                            "planted",
                            "group_by g avg v",
                            "o:[0]|h:[1]",
                            name,
                        );
                        let (plan, _hit) = plans
                            .get_or_create(&key, || -> Result<PlanEntry, ScorpionError> {
                                let builder = Scorpion::on(entry.table.clone())
                                    .group_by(&[0], agg.clone(), 2)?
                                    .outlier(0, 1.0)
                                    .holdout(1)
                                    .params(0.5, 0.5)
                                    .algorithm(algo.clone());
                                Ok(PlanEntry {
                                    session: ScorpionSession::new(builder.build()?)?,
                                    display_keys: Vec::new(),
                                    results: Vec::new(),
                                })
                            })
                            .unwrap();
                        let ex = plan.session.run(InfluenceParams { lambda: 0.5, c }).unwrap();
                        let want = &reference[&(*name, c.to_bits())];
                        if *name == "dt" {
                            assert!(
                                ex.best().influence >= want.best().influence - 1e-9,
                                "[dt@{c}] warm merge regressed: {} vs {}",
                                ex.best().influence,
                                want.best().influence
                            );
                        } else {
                            assert_same_results(name, want, &ex);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
    });

    let stats = plans.stats();
    // One resident plan per distinct key; racing builders may each
    // count a miss for the same key (the first insert wins and the
    // losers adopt it), so misses can exceed residency, never
    // undershoot it.
    assert_eq!(stats.entries, algos.len(), "one plan per algorithm: {stats:?}");
    assert!(stats.misses as usize >= stats.entries, "{stats:?}");
    assert!(stats.hits > 0, "concurrent workers must share warm plans: {stats:?}");

    // Acceptance: a warm repeat at a fresh c runs through the shared
    // influence cache — cache hits in its Diagnostics, cheaper than its
    // own cold run.
    for (name, _, _) in &algos {
        let entry = registry.get("planted").unwrap();
        let key = PlanKey::new(&entry, "planted", "group_by g avg v", "o:[0]|h:[1]", name);
        let (plan, hit) = plans
            .get_or_create(&key, || -> Result<PlanEntry, ScorpionError> {
                panic!("plan for {name} must already be cached")
            })
            .unwrap();
        assert!(hit);
        let warm = plan.session.run(InfluenceParams { lambda: 0.5, c: 0.9 }).unwrap();
        assert!(warm.diagnostics.cache_hits > 0, "[{name}] warm repeat missed the cache");
    }
}

/// Re-running a completed NAIVE enumeration at the *same* parameters
/// returns identical results from the plan's memo: no scorer call and
/// no influence-cache lookup.
#[test]
fn naive_rerun_at_same_c_is_pure_cache() {
    let t = planted(200);
    let req = request(
        &t,
        Algorithm::Naive(NaiveConfig { time_budget: None, ..NaiveConfig::default() }),
        Arc::new(Sum),
        0.5,
    );
    let plan = req.prepare().unwrap();
    let first = plan.run(&req.params()).unwrap();
    let second = plan.run(&req.params()).unwrap();
    assert_same_results("naive", &first, &second);
    assert_eq!(
        second.diagnostics.scorer_calls, 0,
        "a completed NAIVE enumeration re-run must be answered entirely from the memo"
    );
    assert_eq!(second.diagnostics.cache_hits, 0, "{:?}", second.diagnostics);
    assert_eq!(second.diagnostics.candidates, first.diagnostics.candidates);
}

/// A seeded random `(λ, c)` walk with repeats over one plan per engine
/// (and approx DT): every repeat returns the predicates and influence
/// bits of the first answer at its key, with no scorer call, no
/// influence-cache hit, no mask lookup and one `run.memo` phase.
#[test]
fn repeats_return_the_first_answer_from_the_memo() {
    let t = planted(300);
    let mut engines: Vec<(&str, ExplainRequest)> = algorithms()
        .into_iter()
        .map(|(name, algo, agg)| (name, request(&t, algo, agg, 0.5)))
        .collect();
    let dt = engines[0].1.clone();
    engines.push(("dt-approx", dt.with_approx(Some(ApproxConfig::default()))));
    let keys: Vec<(f64, f64)> =
        [0.2, 0.5, 0.8].iter().flat_map(|&l| [0.1, 0.3, 0.5, 0.9].map(|c| (l, c))).collect();
    let mut rng = scorpion::data::Rng::seeded(24);
    for (name, req) in engines {
        let plan = req.prepare().unwrap();
        let mut first: std::collections::HashMap<(u64, u64), Explanation> = Default::default();
        let mut repeats = 0;
        for step in 0..30 {
            let (lambda, c) = keys[rng.index(keys.len())];
            let ex = plan.run(&InfluenceParams { lambda, c }).unwrap();
            let d = &ex.diagnostics;
            let memo = d.phases.iter().filter(|p| p.name == "run.memo").count();
            let Some(want) = first.get(&(lambda.to_bits(), c.to_bits())) else {
                assert_eq!(memo, 0, "[{name}] step {step}: first visit from the memo");
                first.insert((lambda.to_bits(), c.to_bits()), ex);
                continue;
            };
            repeats += 1;
            let at = format!("[{name}] step {step} (λ = {lambda}, c = {c})");
            assert_eq!(ex.predicates.len(), want.predicates.len(), "{at}");
            for (got, want) in ex.predicates.iter().zip(&want.predicates) {
                assert_eq!(got.predicate, want.predicate, "{at}");
                assert_eq!(got.influence.to_bits(), want.influence.to_bits(), "{at}");
            }
            assert_eq!((d.scorer_calls, d.cache_hits, d.mask_cache_lookups), (0, 0, 0), "{at}");
            assert_eq!((memo, d.phases.len()), (1, 1), "{at}: {:?}", d.phases);
            let w = &want.diagnostics;
            assert_eq!((d.candidates, d.partitions), (w.candidates, w.partitions), "{at}");
            assert_eq!(d.candidates_pruned, w.candidates_pruned, "{at}");
            assert_eq!(d.approx_error_bound, w.approx_error_bound, "{at}");
            assert_eq!(d.approx_error_bound.is_some(), name == "dt-approx", "{at}");
        }
        assert!(repeats >= 10, "[{name}] the walk repeated only {repeats} keys");
    }
}

/// The DT slider walk's exact output on the `server_dashboard` table
/// shape (SYNTH-2D-Easy, seed 21, 200 tuples per group: 171 partitions,
/// every one of which each cached-tuple §6.3 estimate visits). Cold at
/// `c = 0.5`, then 0.25 (warm-started), 0.8 (a merge from scratch), a
/// revisit of 0.5 (step 0's answer, from the plan's memo), and 0.65
/// (warm-started from 0.8's merge). The expected top-3 predicates and
/// influences are the ones the row-at-a-time partition statistics and
/// predicate-building merge estimates produced; the masked walk and the
/// direct intersection volumes must reproduce them exactly.
#[test]
fn dt_slider_walk_output_is_fixed() {
    use scorpion::data::synth::{generate, SynthConfig};

    let ds = generate(SynthConfig::easy(2).with_tuples_per_group(200).with_seed(21));
    let b = Scorpion::on(ds.table.clone()).sql("SELECT avg(Av) FROM synth GROUP BY Ad").unwrap();
    let key = |g: &usize| b.index_of_key(&format!("g{g}")).unwrap();
    let outliers: Vec<(usize, f64)> = ds.outlier_groups.iter().map(|g| (key(g), 1.0)).collect();
    let holdouts: Vec<usize> = ds.holdout_groups.iter().map(key).collect();
    let req = b
        .outliers(outliers)
        .holdouts(holdouts)
        .params(0.5, 0.5)
        .algorithm(Algorithm::DecisionTree(DtConfig::default()))
        .build()
        .unwrap();
    let session = ScorpionSession::new(req).unwrap();
    let box_at = |a1: &str, a2: &str| format!("A1 in [{a1}) AND A2 in [{a2})");
    let cold = [
        (box_at("9.3521, 51.3414", "33.4460, 83.9709"), 0.7142984704600793),
        (box_at("3.4739, 9.3521", "34.8986, 83.9709"), 0.07850066849319697),
        (box_at("2.1985, 3.4739", "34.8986, 83.9709"), 0.06673646561856966),
    ];
    let (upper, lower) = (
        box_at("51.3414, 52.1293", "51.8691, 60.9018"),
        box_at("51.3414, 52.1293", "34.8986, 42.2421"),
    );
    let walk: [(f64, [(String, f64); 3]); 5] = [
        (0.5, cold.clone()),
        (
            0.25,
            [
                (box_at("0.0040, 51.3414", "29.7354, 83.9709"), 2.058739688521143),
                (upper.clone(), 0.0),
                (lower.clone(), 0.0),
            ],
        ),
        (
            0.8,
            [
                (box_at("21.7486, 46.5523", "43.1501, 67.3342"), 0.23686523309269114),
                (box_at("9.3521, 51.3414", "33.4460, 83.9709"), 0.22174225935043113),
                (box_at("2.1985, 3.4739", "34.8986, 83.9709"), 0.06045569824389166),
            ],
        ),
        (0.5, cold),
        (
            0.65,
            [
                (box_at("2.1985, 51.3414", "33.4460, 83.9709"), 0.4148316085449401),
                (upper, 0.0),
                (lower, 0.0),
            ],
        ),
    ];
    let mut tops = Vec::new();
    for (step, (c, want)) in walk.iter().enumerate() {
        let ex = session.run_with_c(*c).unwrap();
        assert!(ex.diagnostics.partitions > 150, "{}", ex.diagnostics.partitions);
        for (i, (pred, inf)) in want.iter().enumerate() {
            let got = &ex.predicates[i];
            assert_eq!(&got.predicate.display(&ds.table), pred, "step {step} (c = {c}) #{i}");
            assert!(
                (got.influence - inf).abs() <= 1e-12 * inf.abs(),
                "step {step} (c = {c}) #{i}: influence {} vs {inf}",
                got.influence
            );
        }
        let top3 = ex.predicates.iter().take(3);
        tops.push(top3.map(|p| (p.predicate.clone(), p.influence.to_bits())).collect::<Vec<_>>());
    }
    assert_eq!(tops[3], tops[0], "the revisit must return step 0's answer bit for bit");
}

/// The top-3 predicates (as displayed over `table`) and influences of
/// each step of a slider walk on one session; the first step prepares
/// the plan, so it is the cold run.
fn walk_tops(session: &ScorpionSession, table: &Table, cs: &[f64]) -> Vec<Vec<(String, f64)>> {
    cs.iter()
        .map(|&c| {
            let ex = session.run_with_c(c).unwrap();
            ex.predicates
                .iter()
                .take(3)
                .map(|p| (p.predicate.display(table), p.influence))
                .collect()
        })
        .collect()
}

/// Asserts a walk's tops equal `want` exactly: same predicates, same
/// influence bits.
fn assert_walk(got: &[Vec<(String, f64)>], want: &[(f64, [(&str, f64); 3])]) {
    assert_eq!(got.len(), want.len());
    for (step, (tops, (c, want))) in got.iter().zip(want).enumerate() {
        assert_eq!(tops.len(), 3, "step {step} (c = {c})");
        for (i, ((pred, inf), (want_pred, want_inf))) in tops.iter().zip(want).enumerate() {
            assert_eq!(pred, want_pred, "step {step} (c = {c}) #{i}");
            assert_eq!(inf.to_bits(), want_inf.to_bits(), "step {step} (c = {c}) #{i}: {inf}");
        }
    }
}

/// The DT slider walk's exact output on the `analyst_slider` table
/// shape: SYNTH-2D-Easy seed 4 at 5,000 tuples per group (50k rows).
/// The groups exceed §6.1.2's `min_rows_to_sample`, so the root samples
/// and every split tops its children's samples up; nodes range from the
/// root down to a few hundred rows. Cold at `c = 0.5`, then 0.05, 0.95
/// (a merge from scratch) and a revisit of 0.5, which returns step 0's
/// answer from the plan's memo.
#[test]
fn dt_sampled_walk_output_is_fixed() {
    use scorpion::data::synth::{generate, SynthConfig};

    let ds = generate(SynthConfig::easy(2).with_tuples_per_group(5_000).with_seed(4));
    let b = Scorpion::on(ds.table.clone()).sql("SELECT avg(Av) FROM synth GROUP BY Ad").unwrap();
    let key = |g: &usize| b.index_of_key(&format!("g{g}")).unwrap();
    let outliers: Vec<(usize, f64)> = ds.outlier_groups.iter().map(|g| (key(g), 1.0)).collect();
    let holdouts: Vec<usize> = ds.holdout_groups.iter().map(key).collect();
    let req = b
        .outliers(outliers)
        .holdouts(holdouts)
        .params(0.5, 0.5)
        .algorithm(Algorithm::DecisionTree(DtConfig::default()))
        .build()
        .unwrap();
    let session = ScorpionSession::new(req).unwrap();
    let got = walk_tops(&session, &ds.table, &[0.5, 0.05, 0.95, 0.5]);
    let box_at = |a1: &str, a2: &str| format!("A1 in [{a1}) AND A2 in [{a2})");
    let (hot, wide) = (
        box_at("13.0842, 62.9507", "21.5730, 71.4774"),
        box_at("13.0842, 65.4666", "21.5730, 74.6424"),
    );
    let (sliver, corner) = (
        box_at("71.6271, 75.1502", "24.5341, 24.5675"),
        box_at("93.7019, 95.9527", "24.5675, 24.6813"),
    );
    let cold = [(hot.as_str(), 0.1477442257279942), (&sliver, 0.0), (&corner, 0.0)];
    let want: [(f64, [(&str, f64); 3]); 4] = [
        (0.5, cold),
        (0.05, [(&wide, 3.682274684485921), (&sliver, 0.0), (&corner, 0.0)]),
        (
            0.95,
            [
                (&box_at("32.8106, 61.0199", "45.2674, 71.4774"), 0.00761440694851134),
                (&box_at("41.1373, 47.6510", "47.0434, 67.0398"), 0.007209391708121068),
                (&box_at("47.6510, 51.9582", "47.0434, 70.5178"), 0.007090906083908181),
            ],
        ),
        (0.5, cold),
    ];
    assert_walk(&got, &want);
}

/// The DT slider walk's exact output on a `stream_monitor`-shaped
/// window: 24 hourly chunks of a 100-sensor feed, so `sensorid` is a
/// discrete explanation attribute with 100 codes beside `voltage` and
/// `light`. A dropout and a drift episode make five hours outliers.
/// Cold at `c = 0.5`, then 0.2 and 0.9.
#[test]
fn dt_discrete_walk_output_is_fixed() {
    use scorpion::data::stream::{feed_schema, tick_key};
    use scorpion::data::{Episode, EpisodeKind, FeedConfig, SensorFeed};

    let mut feed = SensorFeed::new(FeedConfig {
        n_sensors: 100,
        readings_per_tick: 10,
        episodes: vec![
            Episode { sensor: 37, start: 14, duration: 4, kind: EpisodeKind::Drift },
            Episode { sensor: 81, start: 17, duration: 2, kind: EpisodeKind::Dropout },
        ],
        seed: 0xFEED,
    });
    let mut tb = TableBuilder::new(feed_schema());
    for _ in 0..24 {
        for row in feed.next_chunk().rows {
            tb.push_row(row).unwrap();
        }
    }
    let table = tb.build();
    let b = Scorpion::on(table.clone()).sql("SELECT stddev(temp) FROM feed GROUP BY hour").unwrap();
    let key = |t: usize| b.index_of_key(&tick_key(t)).unwrap();
    let outliers: Vec<(usize, f64)> = (14..19).map(|t| (key(t), 1.0)).collect();
    let holdouts = [2, 5, 8, 11, 21].map(key);
    let req = b
        .outliers(outliers)
        .holdouts(holdouts)
        .params(0.5, 0.5)
        .algorithm(Algorithm::DecisionTree(DtConfig::default()))
        .build()
        .unwrap();
    let session = ScorpionSession::new(req).unwrap();
    let got = walk_tops(&session, &table, &[0.5, 0.2, 0.9]);
    let (pair, four) = (
        "sensorid in ('s81', 's93')",
        "sensorid in ('s03', 's09', 's81', 's99') AND voltage in [2.2757, 2.6946)",
    );
    let volt = "voltage in [2.7030, 2.7603) AND light in ";
    let dark = format!("sensorid in ('s03') AND {volt}[18.5293, 29.7933)");
    let others =
        format!("sensorid in ('s01', 's02', 's04', 's94', 's97') AND {volt}[0.0092, 18.5293)");
    let want: [(f64, [(&str, f64); 3]); 3] = [
        (0.5, [(pair, 0.2886284678670035), (four, 0.22417841400367286), (&dark, 0.0)]),
        (0.2, [(pair, 0.7090031467382293), (four, 0.6365194856420056), (&dark, 0.0)]),
        (
            0.9,
            [
                ("sensorid in ('s81')", 0.16376578269193967),
                (&dark, 0.0),
                (&others, -0.00047850127353926534),
            ],
        ),
    ];
    assert_walk(&got, &want);
}

/// One approximate-mode explanation at `c = 0.5` over SYNTH-`dims`D-Easy
/// seed 4: its top-3 predicates (as displayed) with their influences,
/// and the candidates interval pruning skipped.
fn approx_explanation(
    algorithm: Algorithm,
    sql: &str,
    dims: usize,
    tuples_per_group: usize,
) -> (Vec<(String, f64)>, u64) {
    use scorpion::data::synth::{generate, SynthConfig};

    let ds = generate(SynthConfig::easy(dims).with_tuples_per_group(tuples_per_group).with_seed(4));
    let b = Scorpion::on(ds.table.clone()).sql(sql).unwrap();
    let key = |g: &usize| b.index_of_key(&format!("g{g}")).unwrap();
    let outliers: Vec<(usize, f64)> = ds.outlier_groups.iter().map(|g| (key(g), 1.0)).collect();
    let holdouts: Vec<usize> = ds.holdout_groups.iter().map(key).collect();
    let ex = b
        .outliers(outliers)
        .holdouts(holdouts)
        .params(0.5, 0.5)
        .algorithm(algorithm)
        .approx(ApproxConfig::default())
        .build()
        .unwrap()
        .explain()
        .unwrap();
    assert!(ex.diagnostics.approx_fallback.is_none(), "{:?}", ex.diagnostics);
    let tops = ex
        .predicates
        .iter()
        .take(3)
        .map(|p| (p.predicate.display(&ds.table), p.influence))
        .collect();
    (tops, ex.diagnostics.candidates_pruned)
}

/// DT's approximate-mode output on SYNTH-2D-Easy at 1,000 tuples per
/// group: every group exceeds `ApproxConfig::min_rows` (256), so the
/// partition re-score batch is interval-pruned from 10% samples. The
/// survivors are scored on one thread with the dynamic threshold, so the
/// pruned count is a function of the question, not of the host's cores.
#[test]
fn dt_approx_output_is_fixed() {
    let (tops, pruned) = approx_explanation(
        Algorithm::DecisionTree(DtConfig::default()),
        "SELECT avg(Av) FROM synth GROUP BY Ad",
        2,
        1_000,
    );
    let box_at = |a1: &str, a2: &str| format!("A1 in [{a1}) AND A2 in [{a2})");
    let want = [
        (&box_at("14.0712, 63.1902", "23.6994, 72.0276"), 0.30989017257322105),
        (&box_at("13.6910, 64.6773", "22.3695, 72.6352"), 0.309413634013443),
        (&box_at("36.0262, 64.6773", "20.4585, 24.4570"), 0.006038736603421594),
    ];
    assert_walk(&[tops], &[(0.5, want.map(|(p, inf)| (p.as_str(), inf)))]);
    assert_eq!(pruned, 28);
}

/// MC's approximate-mode output on SYNTH-3D-Easy at 500 tuples per
/// group (`sum`, an anti-monotone aggregate): the tops and the count of
/// candidates the level batches' dynamic threshold skipped.
#[test]
fn mc_approx_output_is_fixed() {
    let (tops, pruned) = approx_explanation(
        Algorithm::BottomUp(McConfig::default()),
        "SELECT sum(Av) FROM synth GROUP BY Ad",
        3,
        500,
    );
    let want = [
        ("A1 in [13.3779, 73.3163)", 151.47711417467525),
        ("A2 in [13.3400, 79.9991)", 149.3840788707311),
        ("A3 in [6.6842, 73.3377)", 144.79477781752064),
    ];
    assert_walk(&[tops], &[(0.5, want)]);
    assert_eq!(pruned, 42);
}
