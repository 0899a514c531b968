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

/// The influence cache reproduces scores bit-for-bit: re-running at the
/// *same* parameters from a warm plan returns identical results with
/// zero additional partition re-scoring cost for NAIVE (every candidate
/// hits the cache).
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
        "a completed NAIVE enumeration re-run must be answered entirely from cache"
    );
    assert_eq!(second.diagnostics.cache_hits, second.diagnostics.candidates);
}
