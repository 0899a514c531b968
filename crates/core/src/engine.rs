//! Prepared plans: the two-phase shape every algorithm runs in.
//!
//! §8.3.3 observes that DT partitioning is `c`-agnostic: prepare once,
//! re-score cheaply as the user moves the `c` slider. This module
//! generalizes that split to every algorithm:
//!
//! * [`ExplainRequest::prepare`] runs the expensive, `c`-agnostic phase
//!   of the request's algorithm — DT tree growth and carving, MC
//!   initial-unit construction, NAIVE candidate enumeration — and
//!   returns a [`PreparedPlan`].
//! * [`PreparedPlan::run`] is the cheap phase: re-score the prepared
//!   artifacts under any [`InfluenceParams`] and merge. Every plan
//!   carries a shared [`InfluenceCache`], so predicates scored in a
//!   previous run (at any `c`) are re-scored without matcher work.
//!
//! The three plans share one skeleton (`PlanCore`): the prepare
//! prologue (validation, caches, scorer, attributes, sampler state,
//! domains), the run prologue, the prepare cost charged to the first
//! run, and the [`Diagnostics`] assembly. Each engine adds only its own
//! prepare step and scoring loop.
//!
//! Plans can out-live one dataset snapshot: [`PreparedPlan::rebind`]
//! transfers the `c`-agnostic geometry onto a new, compatible request
//! (the streaming engine uses this to carry partitions across window
//! slides), dropping the influence cache whose entries the new data
//! invalidated.

use crate::approx::ApproxState;
use crate::config::{DtConfig, InfluenceParams, McConfig, NaiveConfig, SamplingConfig};
use crate::dt::DtPartitioner;
use crate::error::Result;
use crate::features::select_attributes;
use crate::mc::{initial_units, mc_search_units};
use crate::merger::Merger;
use crate::naive::{naive_candidates, naive_search_prepared, NaiveCandidates};
use crate::request::ExplainRequest;
use crate::result::{Diagnostics, Explanation, ScoredPredicate};
use crate::scorer::{resolve_threads, InfluenceCache, Scorer};
use parking_lot::Mutex;
use scorpion_obs::{merge_phases, span, PhaseTiming};
use scorpion_table::{domains_of, AttrDomain, ClauseMaskCache, OrdF64, Predicate};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The product of [`ExplainRequest::prepare`]: owned, `Send + Sync`,
/// and cheap to re-run under any [`InfluenceParams`].
pub trait PreparedPlan: Send + Sync {
    /// Diagnostic name of the producing algorithm.
    fn algorithm(&self) -> &'static str;

    /// Re-scores the prepared artifacts at `params` and returns the
    /// ranked explanation. The first run also charges the preparation's
    /// scorer calls, runtime, and phases to its diagnostics, so a
    /// prepare+run pair reports the cost of the whole explanation.
    fn run(&self, params: &InfluenceParams) -> Result<Explanation> {
        self.run_with_budget(params, None)
    }

    /// Like [`PreparedPlan::run`], but with a best-effort wall-clock
    /// budget. Anytime engines (NAIVE, MC) clamp their internal time
    /// budget to `budget` and return best-so-far results with
    /// [`Diagnostics::budget_exhausted`] set when it expires; engines
    /// without an anytime loop (DT) ignore it and run to completion, so
    /// callers enforcing a hard deadline must also check the clock after
    /// the call returns. `None` behaves exactly like [`PreparedPlan::run`].
    fn run_with_budget(
        &self,
        params: &InfluenceParams,
        budget: Option<Duration>,
    ) -> Result<Explanation>;

    /// Transfers the `c`-agnostic artifacts onto a new, compatible
    /// request — same schema and label semantics over fresher data (a
    /// slid window, an appended table). Influence caches are dropped
    /// (the data changed); candidate geometry and merge seeds survive
    /// and are re-scored exactly on the next [`PreparedPlan::run`].
    fn rebind(&self, req: &ExplainRequest) -> Result<Box<dyn PreparedPlan>>;

    /// Predicates worth seeding a successor plan's merge with (the most
    /// recent merged output, for engines that merge).
    fn seeds(&self) -> Vec<Predicate> {
        Vec::new()
    }

    /// Adds externally supplied merge seeds (re-scored exactly before
    /// use). Engines without a merge phase ignore them.
    fn absorb_seeds(&self, _seeds: Vec<Predicate>) {}
}

/// Cost of a plan's prepare phase, charged to the diagnostics of its
/// first run.
#[derive(Default)]
struct PrepCost {
    calls: u64,
    runtime: Duration,
    /// Prepare-side phase timings, merged into the first run's phases.
    phases: Vec<PhaseTiming>,
}

/// What one engine's scoring loop produced; [`PlanCore::run`] folds it
/// into the run's [`Diagnostics`].
struct RunOutput {
    /// Ranked predicates, best first (empty means "no explanation": the
    /// all-predicate is substituted).
    predicates: Vec<ScoredPredicate>,
    candidates: u64,
    partitions: usize,
    budget_exhausted: bool,
    /// The engine's run-side phases (`run.score`, `run.merge`, `mc.*`).
    phases: Vec<PhaseTiming>,
}

/// The state and bookkeeping every plan shares, whatever its algorithm.
struct PlanCore {
    req: ExplainRequest,
    /// Explanation attributes after §6.4 selection.
    attrs: Vec<usize>,
    domains: Vec<AttrDomain>,
    cache: Arc<InfluenceCache>,
    /// Clause masks for this plan's table snapshot, shared across runs.
    masks: Arc<ClauseMaskCache>,
    /// Sampler state for this plan's table snapshot, attached to every
    /// run scorer when the request opted into approximate search.
    approx_state: Option<Arc<ApproxState>>,
    /// The prepare cost the next run still owes; taken by the first run.
    prep_cost: Mutex<Option<PrepCost>>,
}

impl PlanCore {
    /// The prepare prologue: validate, build the caches and the prepare
    /// scorer, select attributes (unless `attrs` carries a selection
    /// over from a rebound plan — the §6.4 ranking is a property of the
    /// labeling, not of one window snapshot), build the sampler state
    /// and domains, then run the engine's `step`. The step returns its
    /// artifacts and its phases; the whole prepare becomes the cost the
    /// first run is charged.
    fn prepare<T>(
        req: &ExplainRequest,
        attrs: Option<Vec<usize>>,
        step: impl FnOnce(&Scorer<'_>, &[usize], &[AttrDomain]) -> Result<(T, Vec<PhaseTiming>)>,
    ) -> Result<(PlanCore, T)> {
        let _span = span!("prepare");
        let start = Instant::now();
        req.validate()?;
        let cache = Arc::new(InfluenceCache::with_capacity_bound(req.influence_cache_entries()));
        let masks = Arc::new(ClauseMaskCache::new());
        let scorer = req.scorer()?.with_cache(cache.clone()).with_mask_cache(masks.clone());
        let attrs = match attrs {
            Some(attrs) => attrs,
            None => {
                let attrs = req.resolved_attrs()?;
                match req.max_explain_attrs {
                    Some(k) if k < attrs.len() => select_attributes(&scorer, &attrs, k)?,
                    _ => attrs,
                }
            }
        };
        let approx_state = req.approx().map(|cfg| scorer.build_approx(*cfg)).transpose()?;
        let domains = domains_of(&req.table)?;
        let (artifacts, step_phases) = step(&scorer, &attrs, &domains)?;
        let runtime = start.elapsed();
        let mut phases = vec![PhaseTiming::once("prepare", runtime)];
        merge_phases(&mut phases, step_phases);
        merge_phases(&mut phases, scorer.timing_phases());
        let prep_cost = PrepCost { calls: scorer.scorer_calls(), runtime, phases };
        let core = PlanCore {
            req: req.clone(),
            attrs,
            domains,
            cache,
            masks,
            approx_state,
            prep_cost: Mutex::new(Some(prep_cost)),
        };
        Ok((core, artifacts))
    }

    /// This plan's shared state moved onto a new snapshot: attributes
    /// survive; the influence cache and clause masks (both encode the
    /// old table's rows) and the sampler state (old row ids and values)
    /// are rebuilt. Nothing is charged to the next run.
    fn rebind(&self, req: &ExplainRequest) -> Result<PlanCore> {
        req.validate()?;
        let approx_state = match req.approx() {
            Some(cfg) => Some(req.scorer()?.build_approx(*cfg)?),
            None => None,
        };
        Ok(PlanCore {
            req: req.clone(),
            attrs: self.attrs.clone(),
            domains: domains_of(&req.table)?,
            cache: Arc::new(InfluenceCache::with_capacity_bound(req.influence_cache_entries())),
            masks: Arc::new(ClauseMaskCache::new()),
            approx_state,
            prep_cost: Mutex::new(None),
        })
    }

    /// One run: build the run scorer over the plan's caches and sampler
    /// state, run the engine's scoring loop, and assemble the
    /// [`Explanation`] — charging the prepare cost if this is the first
    /// run, and substituting the all-predicate when the search produced
    /// nothing.
    fn run(
        &self,
        algorithm: &'static str,
        params: &InfluenceParams,
        score: impl FnOnce(&Scorer<'_>) -> Result<RunOutput>,
    ) -> Result<Explanation> {
        let _span = span!("run");
        let start = Instant::now();
        let mut scorer = self
            .req
            .scorer_at(*params)?
            .with_cache(self.cache.clone())
            .with_mask_cache(self.masks.clone());
        if let Some(state) = &self.approx_state {
            // Attached for every engine, so diagnostics report the knob
            // consistently even where a loop is not batch-pruned (NAIVE).
            scorer = scorer.with_approx_state(state.clone());
        }
        let out = score(&scorer)?;
        let prep = self.prep_cost.lock().take().unwrap_or_default();
        let mut phases = prep.phases;
        merge_phases(&mut phases, out.phases);
        merge_phases(&mut phases, scorer.timing_phases());
        let mut diagnostics = Diagnostics {
            algorithm,
            runtime: start.elapsed() + prep.runtime,
            scorer_calls: scorer.scorer_calls() + prep.calls,
            cache_hits: scorer.cache_hits(),
            cache_evictions: scorer.cache_evictions(),
            mask_cache_hits: scorer.mask_cache_hits(),
            mask_cache_entries: scorer.mask_cache_entries(),
            candidates: out.candidates,
            partitions: out.partitions,
            budget_exhausted: out.budget_exhausted,
            phases,
            ..Diagnostics::default()
        };
        if let Some(state) = scorer.approx_state() {
            // The bound is present whenever approximate mode was
            // requested (0.0 when nothing was pruned).
            diagnostics.candidates_pruned = scorer.candidates_pruned();
            diagnostics.approx_error_bound = Some(scorer.approx_error_bound());
            diagnostics.approx_fallback = state.fallback();
        }
        let predicates = if out.predicates.is_empty() {
            vec![ScoredPredicate::new(Predicate::all(), 0.0)]
        } else {
            out.predicates
        };
        Ok(Explanation { predicates, diagnostics })
    }
}

/// Runs an engine's scoring loop under the `score` span, timed as the
/// `run.score` phase.
fn score_phase<T>(score: impl FnOnce() -> Result<T>) -> Result<(T, PhaseTiming)> {
    let _span = span!("score");
    let start = Instant::now();
    let out = score()?;
    Ok((out, PhaseTiming::once("run.score", start.elapsed())))
}

/// An anytime engine's time budget under a caller's wall-clock budget:
/// the tighter of the two.
fn clamp_budget(own: Option<Duration>, budget: Option<Duration>) -> Option<Duration> {
    match budget {
        None => own,
        Some(b) => Some(own.map_or(b, |own| own.min(b))),
    }
}

// ---------------------------------------------------------------------
// DT
// ---------------------------------------------------------------------

/// The §6.1 decision-tree plan. `prepare` grows and carves the trees
/// (the per-tuple influences driving every split are `c`-agnostic);
/// `run` re-scores the partitions and merges, warm-starting the merge
/// from the cached output of the nearest `c' ≥ c` (the Merger is
/// monotone in `c`: decreasing `c` only merges further).
pub(crate) struct DtPlan {
    core: PlanCore,
    cfg: DtConfig,
    /// Unscored partition geometry (predicate + §6.3 stats); influence
    /// fields hold build-time scores and are re-scored per run.
    partitions: Vec<ScoredPredicate>,
    state: Mutex<DtPlanState>,
}

#[derive(Default)]
struct DtPlanState {
    /// Merged outputs keyed by `c` — each is a valid warm start for any
    /// lower `c` (§8.3.3).
    merged_by_c: BTreeMap<OrdF64, Vec<ScoredPredicate>>,
    /// Most recent merged predicates, exported as successor seeds.
    last_merged: Vec<Predicate>,
    /// Externally absorbed seeds, consumed by the next run.
    extra_seeds: Vec<Predicate>,
}

/// Number of merged predicates exported as seeds to a successor plan.
const MAX_SEEDS: usize = 8;

impl DtPlan {
    /// Prepares a DT plan: grows and carves the trees.
    pub(crate) fn prepare(
        req: &ExplainRequest,
        mut cfg: DtConfig,
    ) -> Result<Box<dyn PreparedPlan>> {
        // Approximate mode implies §6.1.2 tree-growth sampling: when the
        // DT config left it unset, derive one from the approx knobs so
        // the grow phase samples at the same rate the scorer does.
        if cfg.sampling.is_none() {
            if let Some(a) = req.approx() {
                cfg.sampling = Some(SamplingConfig {
                    min_rows_to_sample: a.min_rows,
                    min_rate: a.sample_rate,
                    seed: a.seed,
                    ..SamplingConfig::default()
                });
            }
        }
        let (core, partitions) = PlanCore::prepare(req, None, |scorer, attrs, domains| {
            let dt = DtPartitioner::new(scorer, attrs.to_vec(), domains.to_vec(), cfg.clone());
            let (partitions, _) = dt.partition()?;
            Ok((partitions, dt.take_phases()))
        })?;
        Ok(Box::new(DtPlan { core, cfg, partitions, state: Mutex::default() }))
    }
}

impl PreparedPlan for DtPlan {
    fn algorithm(&self) -> &'static str {
        "dt"
    }

    /// DT has no anytime loop: `budget` is ignored.
    fn run_with_budget(
        &self,
        params: &InfluenceParams,
        _budget: Option<Duration>,
    ) -> Result<Explanation> {
        self.core.run(self.algorithm(), params, |scorer| {
            // Re-score the cached partitions — batched across workers,
            // and free of mask work for every cache hit. Under
            // approximate mode the batch is interval-pruned first; the
            // Merger re-scores its top results exactly, so reported
            // predicates stay exact.
            let (input, score) = score_phase(|| {
                let mut input = self.partitions.clone();
                let preds: Vec<Predicate> = input.iter().map(|sp| sp.predicate.clone()).collect();
                let threads = resolve_threads(self.cfg.score_threads);
                let batch =
                    scorer.influence_batch_pruned(&preds, threads, self.cfg.merger.max_results);
                for (sp, inf) in input.iter_mut().zip(batch.scores) {
                    sp.influence = inf?;
                }
                input.sort_by(|a, b| b.influence.total_cmp(&a.influence));

                // Merge, warm-started from the nearest cached c' ≥ c plus
                // any absorbed seeds. Warm-start predicates carry stale
                // influences and stale stats; re-score exactly, stats
                // dropped.
                let (warm, extra) = {
                    let mut st = self.state.lock();
                    let warm = st
                        .merged_by_c
                        .range(OrdF64(params.c)..)
                        .next()
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default();
                    (warm, std::mem::take(&mut st.extra_seeds))
                };
                for mut sp in warm {
                    sp.influence = scorer.influence(&sp.predicate)?;
                    sp.stats = None;
                    input.push(sp);
                }
                for pred in extra {
                    let influence = scorer.influence(&pred)?;
                    input.push(ScoredPredicate::new(pred, influence));
                }
                Ok(input)
            })?;

            let merge_start = Instant::now();
            let merger = Merger::new(scorer, &self.core.domains, self.cfg.merger.clone());
            let (merged, _) = merger.merge(input)?;
            let merge = PhaseTiming::once("run.merge", merge_start.elapsed());
            {
                let mut st = self.state.lock();
                st.merged_by_c.insert(OrdF64(params.c), merged.clone());
                st.last_merged =
                    merged.iter().take(MAX_SEEDS).map(|sp| sp.predicate.clone()).collect();
            }
            let n_partitions = self.partitions.len();
            Ok(RunOutput {
                predicates: merged,
                candidates: n_partitions as u64,
                partitions: n_partitions,
                budget_exhausted: false,
                phases: vec![score, merge],
            })
        })
    }

    fn rebind(&self, req: &ExplainRequest) -> Result<Box<dyn PreparedPlan>> {
        // Geometry survives; §6.3 stats describe the old data and are
        // dropped (warm merges run exact).
        let mut partitions = self.partitions.clone();
        for sp in &mut partitions {
            sp.stats = None;
        }
        Ok(Box::new(DtPlan {
            core: self.core.rebind(req)?,
            cfg: self.cfg.clone(),
            partitions,
            state: Mutex::new(DtPlanState { extra_seeds: self.seeds(), ..DtPlanState::default() }),
        }))
    }

    fn seeds(&self) -> Vec<Predicate> {
        self.state.lock().last_merged.clone()
    }

    fn absorb_seeds(&self, seeds: Vec<Predicate>) {
        self.state.lock().extra_seeds.extend(seeds);
    }
}

// ---------------------------------------------------------------------
// MC
// ---------------------------------------------------------------------

/// The §6.2 bottom-up plan. `prepare` builds the level-1 units (bin and
/// value geometry — `c`-agnostic); `run` executes the pruned subspace
/// search. The shared influence cache makes every re-scored unit,
/// intersection, and hull from earlier runs free.
pub(crate) struct McPlan {
    core: PlanCore,
    cfg: McConfig,
    units: Vec<Predicate>,
}

impl McPlan {
    /// Prepares an MC plan; `attrs` carries a rebound plan's attribute
    /// selection over (see [`PlanCore::prepare`]).
    pub(crate) fn prepare(
        req: &ExplainRequest,
        cfg: McConfig,
        attrs: Option<Vec<usize>>,
    ) -> Result<Box<dyn PreparedPlan>> {
        let (core, units) = PlanCore::prepare(req, attrs, |scorer, attrs, domains| {
            let start = Instant::now();
            let units = initial_units(scorer, attrs, domains, &cfg)?;
            Ok((units, vec![PhaseTiming::once("mc.units", start.elapsed())]))
        })?;
        Ok(Box::new(McPlan { core, cfg, units }))
    }
}

impl PreparedPlan for McPlan {
    fn algorithm(&self) -> &'static str {
        "mc"
    }

    fn run_with_budget(
        &self,
        params: &InfluenceParams,
        budget: Option<Duration>,
    ) -> Result<Explanation> {
        let cfg = McConfig {
            time_budget: clamp_budget(self.cfg.time_budget, budget),
            ..self.cfg.clone()
        };
        self.core.run(self.algorithm(), params, |scorer| {
            let ((predicates, mdiag), score) = score_phase(|| {
                let core = &self.core;
                mc_search_units(scorer, &core.attrs, &core.domains, &cfg, self.units.clone())
            })?;
            let mut phases = vec![score];
            merge_phases(&mut phases, mdiag.phases);
            Ok(RunOutput {
                predicates,
                candidates: mdiag.scored,
                partitions: mdiag.initial_units,
                budget_exhausted: mdiag.budget_exhausted,
                phases,
            })
        })
    }

    fn rebind(&self, req: &ExplainRequest) -> Result<Box<dyn PreparedPlan>> {
        // Unit geometry is derived from domains and dictionaries, which
        // new data may have shifted; re-prepare (it is cheap for MC),
        // keeping the attribute selection — re-ranking it is the
        // expensive part of MC's prepare.
        McPlan::prepare(req, self.cfg.clone(), Some(self.core.attrs.clone()))
    }
}

// ---------------------------------------------------------------------
// NAIVE
// ---------------------------------------------------------------------

/// The §4.2 exhaustive plan. `prepare` enumerates the per-attribute
/// clause candidates (bin and value geometry — `c`-agnostic); `run`
/// walks the anytime enumeration. With the shared cache, a completed
/// first run makes later runs at new parameters pure arithmetic: every
/// enumerated predicate re-scores without a matcher pass.
pub(crate) struct NaivePlan {
    core: PlanCore,
    cfg: NaiveConfig,
    candidates: NaiveCandidates,
}

impl NaivePlan {
    /// Prepares a NAIVE plan; `attrs` as in [`McPlan::prepare`].
    pub(crate) fn prepare(
        req: &ExplainRequest,
        cfg: NaiveConfig,
        attrs: Option<Vec<usize>>,
    ) -> Result<Box<dyn PreparedPlan>> {
        let (core, candidates) = PlanCore::prepare(req, attrs, |scorer, attrs, domains| {
            let start = Instant::now();
            let candidates = naive_candidates(scorer, attrs, domains, &cfg)?;
            Ok((candidates, vec![PhaseTiming::once("naive.candidates", start.elapsed())]))
        })?;
        Ok(Box::new(NaivePlan { core, cfg, candidates }))
    }
}

impl PreparedPlan for NaivePlan {
    fn algorithm(&self) -> &'static str {
        "naive"
    }

    fn run_with_budget(
        &self,
        params: &InfluenceParams,
        budget: Option<Duration>,
    ) -> Result<Explanation> {
        let cfg = NaiveConfig {
            time_budget: clamp_budget(self.cfg.time_budget, budget),
            ..self.cfg.clone()
        };
        self.core.run(self.algorithm(), params, |scorer| {
            let (out, score) =
                score_phase(|| naive_search_prepared(scorer, &self.candidates, &cfg))?;
            Ok(RunOutput {
                predicates: vec![out.best],
                candidates: out.evaluated,
                partitions: 0,
                budget_exhausted: !out.completed,
                phases: vec![score],
            })
        })
    }

    fn rebind(&self, req: &ExplainRequest) -> Result<Box<dyn PreparedPlan>> {
        NaivePlan::prepare(req, self.cfg.clone(), Some(self.core.attrs.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::request::Scorpion;
    use scorpion_agg::{Avg, Sum};
    use scorpion_table::{Field, Schema, Table, TableBuilder, Value};

    fn planted() -> Table {
        let schema =
            Schema::new(vec![Field::disc("g"), Field::cont("x"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..200 {
            let x = (i as f64 * 7.3) % 100.0;
            let v = if (20.0..60.0).contains(&x) { 80.0 } else { 10.0 };
            b.push_row(vec!["o".into(), Value::from(x), v.into()]).unwrap();
            b.push_row(vec!["h".into(), Value::from(x), Value::from(10.0)]).unwrap();
        }
        b.build()
    }

    fn request(algorithm: Algorithm, c: f64) -> ExplainRequest {
        let agg: std::sync::Arc<dyn scorpion_agg::Aggregate> = match &algorithm {
            Algorithm::BottomUp(_) => std::sync::Arc::new(Sum),
            _ => std::sync::Arc::new(Avg),
        };
        Scorpion::on(planted())
            .group_by(&[0], agg, 2)
            .unwrap()
            .outlier(0, 1.0)
            .holdout(1)
            .params(0.5, c)
            .algorithm(algorithm)
            .build()
            .unwrap()
    }

    #[test]
    fn dt_plan_reruns_with_cache_hits() {
        let dt = DtConfig { sampling: None, ..DtConfig::default() };
        let req = request(Algorithm::DecisionTree(dt), 0.5);
        let plan = req.prepare().unwrap();
        let first = plan.run(&InfluenceParams { lambda: 0.5, c: 0.5 }).unwrap();
        let second = plan.run(&InfluenceParams { lambda: 0.5, c: 0.2 }).unwrap();
        assert_eq!(first.diagnostics.algorithm, "dt");
        assert!(second.diagnostics.cache_hits > 0, "{:?}", second.diagnostics);
        assert!(
            second.diagnostics.scorer_calls < first.diagnostics.scorer_calls,
            "warm {} vs cold {}",
            second.diagnostics.scorer_calls,
            first.diagnostics.scorer_calls
        );
    }

    #[test]
    fn dt_plan_rebinds_onto_fresh_data() {
        let dt = DtConfig { sampling: None, ..DtConfig::default() };
        let req = request(Algorithm::DecisionTree(dt), 0.3);
        let plan = req.prepare().unwrap();
        let first = plan.run(&req.params()).unwrap();
        // Rebind onto a clone of the same request (stands in for a slid
        // window with identical outlier chunks).
        let rebound = plan.rebind(&req).unwrap();
        let again = rebound.run(&req.params()).unwrap();
        assert_eq!(first.best().predicate, again.best().predicate);
        assert!((first.best().influence - again.best().influence).abs() < 1e-9);
    }

    #[test]
    fn absorbed_seeds_only_help() {
        let dt = DtConfig { sampling: None, ..DtConfig::default() };
        let req = request(Algorithm::DecisionTree(dt), 0.2);
        let baseline = req.prepare().unwrap().run(&req.params()).unwrap();
        let seeded = req.prepare().unwrap();
        seeded.absorb_seeds(vec![baseline.best().predicate.clone()]);
        let run = seeded.run(&req.params()).unwrap();
        assert!(run.best().influence >= baseline.best().influence - 1e-9);
    }

    #[test]
    fn plan_runs_attribute_phases() {
        let algorithms = [
            Algorithm::DecisionTree(DtConfig { sampling: None, ..DtConfig::default() }),
            Algorithm::BottomUp(McConfig::default()),
            Algorithm::Naive(NaiveConfig::default()),
        ];
        let prepares = |ex: &Explanation| -> u64 {
            ex.diagnostics.phases.iter().filter(|p| p.name == "prepare").map(|p| p.count).sum()
        };
        for algorithm in algorithms {
            let req = request(algorithm, 0.5);
            // `run` and the server's `run_with_budget(Some(..))` path
            // must charge the prepare cost alike: to the first run only.
            for budget in [None, Some(Duration::from_secs(3600))] {
                let plan = req.prepare().unwrap();
                let first = plan.run_with_budget(&req.params(), budget).unwrap();
                let algo = first.diagnostics.algorithm;
                let names: Vec<&str> = first.diagnostics.phases.iter().map(|p| p.name).collect();
                assert_eq!(prepares(&first), 1, "{algo}/{budget:?}: first run in {names:?}");
                assert!(
                    first.diagnostics.phases.iter().all(|p| p.count > 0),
                    "{names:?} has zero-count phases"
                );
                for later in [plan.run(&req.params()), plan.run_with_budget(&req.params(), budget)]
                {
                    let later = later.unwrap();
                    assert_eq!(prepares(&later), 0, "{algo}/{budget:?}: prepare charged twice");
                    assert!(!later.diagnostics.phases.is_empty(), "{algo}: warm run has no phases");
                }
            }
        }
    }

    #[test]
    fn run_with_budget_clamps_anytime_engines() {
        for algorithm in
            [Algorithm::BottomUp(McConfig::default()), Algorithm::Naive(NaiveConfig::default())]
        {
            let req = request(algorithm, 0.5);
            let plan = req.prepare().unwrap();
            let out = plan.run_with_budget(&req.params(), Some(Duration::ZERO)).unwrap();
            assert!(out.diagnostics.budget_exhausted, "{}", out.diagnostics.algorithm);
            assert!(!out.predicates.is_empty());
            // A generous budget does not trip the anytime exit.
            let full =
                plan.run_with_budget(&req.params(), Some(Duration::from_secs(3600))).unwrap();
            assert!(!full.diagnostics.budget_exhausted, "{}", full.diagnostics.algorithm);
        }
        // DT has no anytime loop: the budget is ignored, not an error.
        let dt = DtConfig { sampling: None, ..DtConfig::default() };
        let req = request(Algorithm::DecisionTree(dt), 0.5);
        let plan = req.prepare().unwrap();
        let out = plan.run_with_budget(&req.params(), Some(Duration::ZERO)).unwrap();
        assert!(!out.diagnostics.budget_exhausted);
    }

    #[test]
    fn mc_and_naive_plans_expose_no_seeds() {
        let req = request(Algorithm::BottomUp(McConfig::default()), 0.5);
        let plan = req.prepare().unwrap();
        let _ = plan.run(&req.params()).unwrap();
        assert!(plan.seeds().is_empty());
        plan.absorb_seeds(vec![Predicate::all()]); // no-op, must not panic
    }
}
