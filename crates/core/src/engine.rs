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
//!   previous run (at any `c`) are re-scored without mask work, and
//!   a bounded answer memo, so a repeat of a completed run's exact
//!   `(λ, c)` returns that run's answer without scoring anything.
//!
//! The three plans share one skeleton (`PlanCore`): the prepare
//! prologue (validation, caches, scorer, attributes, sampler state,
//! domains), the run prologue, the prepare cost charged to the first
//! run, and the [`Diagnostics`] assembly. Each engine adds only its own
//! prepare step and scoring loop.
//!
//! Plans can out-live one dataset snapshot: [`PreparedPlan::rebind`]
//! moves a plan onto a new, compatible request. A DT plan carries its
//! `c`-agnostic geometry over (the streaming engine uses this to carry
//! partitions across window slides), dropping the influence cache and
//! the answers whose entries the new data invalidated; MC and NAIVE
//! prepare the new request afresh.

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
use crate::scorer::{InfluenceCache, Scorer};
use parking_lot::Mutex;
use scorpion_obs::{merge_phases, span, PhaseTiming, Phases};
use scorpion_table::{domains_of, AttrDomain, ClauseMaskCache, OrdF64, Predicate};
use std::sync::Arc;
use std::time::Duration;

/// The product of [`ExplainRequest::prepare`]: owned, `Send + Sync`,
/// and cheap to re-run under any [`InfluenceParams`].
pub trait PreparedPlan: Send + Sync {
    /// Diagnostic name of the producing algorithm.
    fn algorithm(&self) -> &'static str;

    /// Re-scores the prepared artifacts at `params` and returns the
    /// ranked explanation. The first run also charges the preparation's
    /// scorer calls, runtime, and phases to its diagnostics, so a
    /// prepare+run pair reports the cost of the whole explanation.
    ///
    /// A repeat of the exact `(λ, c)` of a completed run (one that did
    /// not exhaust a budget) returns that run's predicates and answer
    /// facts from the plan's memo of its last 16 such answers: no
    /// scorer is built, and the diagnostics report zero scorer calls,
    /// cache hits and mask lookups, and one `run.memo` phase.
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

    /// A plan for a new, compatible request — same schema and label
    /// semantics over fresher data (a slid window, an appended table).
    /// By default the new request is prepared from scratch. DT
    /// overrides it: its influence cache is dropped (the data changed),
    /// while its partition geometry and merge seeds survive and are
    /// re-scored exactly on the next [`PreparedPlan::run`].
    fn rebind(&self, req: &ExplainRequest) -> Result<Box<dyn PreparedPlan>> {
        req.prepare()
    }

    /// Predicates worth seeding a successor plan's merge with (the most
    /// recent merged output, for engines that merge).
    fn seeds(&self) -> Vec<Predicate> {
        Vec::new()
    }

    /// Adds externally supplied merge seeds (re-scored exactly before
    /// use by the next run) and clears the plan's answer memo, whose
    /// answers did not see them. Engines without a merge phase ignore
    /// them and keep their memo.
    fn absorb_seeds(&self, _seeds: Vec<Predicate>) {}
}

/// Cost of a plan's prepare phase, charged to the diagnostics of its
/// first run.
#[derive(Default)]
struct PrepCost {
    calls: u64,
    runtime: Duration,
    /// Prepare-side phase timings (`prepare` first), placed ahead of
    /// the first run's phases.
    phases: Vec<PhaseTiming>,
}

/// What one engine's scoring loop produced; [`PlanCore::run`] folds it
/// into the run's [`Answer`] and [`Diagnostics`]. The loop's phases are
/// on the run scorer's phase list.
struct RunOutput {
    /// Ranked predicates, best first (empty means "no explanation": the
    /// all-predicate is substituted).
    predicates: Vec<ScoredPredicate>,
    candidates: u64,
    partitions: usize,
    budget_exhausted: bool,
}

/// A completed run's answer: what a repeat of its `(λ, c)` returns.
struct Answer {
    /// The scoring loop's predicates, stored before the all-predicate
    /// substitution, so a DT warm start never merges that stand-in.
    predicates: Vec<ScoredPredicate>,
    candidates: u64,
    partitions: usize,
    candidates_pruned: u64,
    approx_error_bound: Option<f64>,
    approx_fallback: Option<&'static str>,
}

/// Most answers a plan keeps. A long-lived plan (one in the server's
/// plan cache, which keys plans without `(λ, c)`) would otherwise grow
/// by one entry per distinct `(λ, c)` a client sends.
const MAX_ANSWERS: usize = 16;

/// The memo key of `params`: the exact bits of `(λ, c)`.
fn memo_key(params: &InfluenceParams) -> (u64, u64) {
    (params.lambda.to_bits(), params.c.to_bits())
}

/// A plan's answers to its completed runs, by [`memo_key`]: at most
/// [`MAX_ANSWERS`], the oldest write evicted first.
///
/// This memo stays first-in-first-out, not least-recently-used like the
/// clause and predicate memos ([`scorpion_table::lru::LruShard`]): DT
/// warm-starts from the entries it holds, so an eviction order that
/// followed reads would change which answers later runs start from.
#[derive(Default)]
struct AnswerMemo {
    /// Oldest write first.
    entries: Vec<((u64, u64), Arc<Answer>)>,
}

impl AnswerMemo {
    fn get(&self, key: (u64, u64)) -> Option<Arc<Answer>> {
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, answer)| answer.clone())
    }

    /// Stores `answer` at `key` unless the key already holds one, and
    /// returns what the key holds: concurrent runs at one `(λ, c)` give
    /// one answer. The entry written is the newest, so it always stays.
    fn insert(&mut self, key: (u64, u64), answer: Answer) -> Arc<Answer> {
        if let Some(stored) = self.get(key) {
            return stored;
        }
        let answer = Arc::new(answer);
        self.entries.push((key, answer.clone()));
        if self.entries.len() > MAX_ANSWERS {
            self.entries.remove(0);
        }
        answer
    }

    /// The predicates stored at the nearest `c' ≥ c`, at any λ (the
    /// latest write among equal `c'`), or none: a DT warm start for `c`.
    fn warm_start(&self, c: f64) -> Vec<ScoredPredicate> {
        let c_of = |key: &(u64, u64)| OrdF64(f64::from_bits(key.1));
        self.entries
            .iter()
            .rev()
            .filter(|(key, _)| c_of(key) >= OrdF64(c))
            .min_by_key(|(key, _)| c_of(key))
            .map(|(_, answer)| answer.predicates.clone())
            .unwrap_or_default()
    }
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
    /// Answers of this plan's completed runs.
    memo: Mutex<AnswerMemo>,
}

impl PlanCore {
    /// The prepare prologue: validate, build the caches and the prepare
    /// scorer, select attributes (§6.4, when the request asks for it),
    /// build the sampler state and domains, then run the engine's
    /// `step`, which times its own phases on the scorer. The whole
    /// prepare — the `prepare` phase and everything under it — becomes
    /// the cost the first run is charged.
    fn prepare<T>(
        req: &ExplainRequest,
        step: impl FnOnce(&Scorer<'_>, &[usize], &[AttrDomain]) -> Result<T>,
    ) -> Result<(PlanCore, T)> {
        let phases = Arc::new(Phases::new());
        let prepare = phases.enter("prepare");
        req.validate()?;
        let cache = Arc::new(InfluenceCache::new());
        let masks = Arc::new(ClauseMaskCache::new());
        let scorer = req
            .scorer()?
            .with_cache(cache.clone())
            .with_mask_cache(masks.clone())
            .with_phases(phases.clone());
        let attrs = req.resolved_attrs()?;
        let attrs = match req.max_explain_attrs {
            Some(k) if k < attrs.len() => select_attributes(&scorer, &attrs, k)?,
            _ => attrs,
        };
        let approx_state = req.approx().map(|cfg| scorer.build_approx(*cfg)).transpose()?;
        let domains = domains_of(&req.table)?;
        let artifacts = step(&scorer, &attrs, &domains)?;
        let runtime = prepare.finish();
        let prep_cost = PrepCost { calls: scorer.scorer_calls(), runtime, phases: phases.take() };
        let core = PlanCore {
            req: req.clone(),
            attrs,
            domains,
            cache,
            masks,
            approx_state,
            prep_cost: Mutex::new(Some(prep_cost)),
            memo: Mutex::default(),
        };
        Ok((core, artifacts))
    }

    /// This plan's shared state moved onto a new snapshot: attributes
    /// survive; the influence cache and clause masks (both encode the
    /// old table's rows), the sampler state (old row ids and values) and
    /// the answers (old data) are rebuilt empty. Nothing is charged to
    /// the next run.
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
            cache: Arc::new(InfluenceCache::new()),
            masks: Arc::new(ClauseMaskCache::new()),
            approx_state,
            prep_cost: Mutex::new(None),
            memo: Mutex::default(),
        })
    }

    /// One run. A repeat of a stored `(λ, c)` returns the stored answer,
    /// timed as one `run.memo` phase, without building a scorer.
    /// Otherwise build the run scorer over the plan's caches and sampler
    /// state, run the engine's scoring loop, and store its answer unless
    /// it exhausted a budget; a run whose key a concurrent run filled
    /// first returns that answer.
    fn run(
        &self,
        algorithm: &'static str,
        params: &InfluenceParams,
        score: impl FnOnce(&Scorer<'_>) -> Result<RunOutput>,
    ) -> Result<Explanation> {
        let run = span!("run");
        let key = memo_key(params);
        let stored = self.memo.lock().get(key);
        if let Some(answer) = stored {
            let phases = Phases::new();
            let predicates = phases.time("run.memo", || answer.predicates.clone());
            let diagnostics = Diagnostics {
                algorithm,
                runtime: run.finish(),
                mask_cache_entries: self.masks.len() as u64,
                phases: phases.take(),
                ..Diagnostics::default()
            };
            return Ok(self.explanation(diagnostics, &answer, predicates));
        }
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
        let diagnostics = Diagnostics {
            algorithm,
            runtime: run.finish(),
            scorer_calls: scorer.scorer_calls(),
            cache_hits: scorer.cache_hits(),
            cache_evictions: scorer.cache_evictions(),
            mask_cache_lookups: scorer.mask_cache_lookups(),
            mask_cache_hits: scorer.mask_cache_hits(),
            mask_cache_entries: scorer.mask_cache_entries(),
            budget_exhausted: out.budget_exhausted,
            phases: scorer.phases().take(),
            ..Diagnostics::default()
        };
        let mut answer = Answer {
            predicates: out.predicates,
            candidates: out.candidates,
            partitions: out.partitions,
            candidates_pruned: 0,
            approx_error_bound: None,
            approx_fallback: None,
        };
        if let Some(state) = scorer.approx_state() {
            // The bound is present whenever approximate mode was
            // requested (0.0 when nothing was pruned).
            answer.candidates_pruned = scorer.candidates_pruned();
            answer.approx_error_bound = Some(scorer.approx_error_bound());
            answer.approx_fallback = state.fallback();
        }
        let answer = if out.budget_exhausted {
            Arc::new(answer)
        } else {
            self.memo.lock().insert(key, answer)
        };
        let predicates = answer.predicates.clone();
        Ok(self.explanation(diagnostics, &answer, predicates))
    }

    /// Completes a run's [`Explanation`]: the answer's facts go into
    /// `diagnostics`, the first run is charged the prepare cost, and an
    /// empty answer becomes the all-predicate.
    fn explanation(
        &self,
        mut diagnostics: Diagnostics,
        answer: &Answer,
        predicates: Vec<ScoredPredicate>,
    ) -> Explanation {
        let prep = self.prep_cost.lock().take().unwrap_or_default();
        let mut phases = prep.phases;
        merge_phases(&mut phases, std::mem::take(&mut diagnostics.phases));
        let diagnostics = Diagnostics {
            runtime: diagnostics.runtime + prep.runtime,
            scorer_calls: diagnostics.scorer_calls + prep.calls,
            candidates: answer.candidates,
            partitions: answer.partitions,
            candidates_pruned: answer.candidates_pruned,
            approx_error_bound: answer.approx_error_bound,
            approx_fallback: answer.approx_fallback,
            phases,
            ..diagnostics
        };
        let predicates = if predicates.is_empty() {
            vec![ScoredPredicate::new(Predicate::all(), 0.0)]
        } else {
            predicates
        };
        Explanation { predicates, diagnostics }
    }
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
/// from the answer the plan's memo holds for the nearest `c' ≥ c` (the
/// Merger is monotone in `c`: decreasing `c` only merges further). A
/// repeat of a stored `(λ, c)` is answered from the memo alone.
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
    /// The most recently computed merge's top predicates, exported as
    /// successor seeds.
    last_merged: Vec<Predicate>,
    /// Externally absorbed seeds, consumed by the next computed run.
    extra_seeds: Vec<Predicate>,
}

/// Number of merged predicates exported as seeds to a successor plan.
const MAX_SEEDS: usize = 8;

impl DtPlan {
    /// Prepares a DT plan: grows and carves the trees.
    pub(crate) fn prepare(req: &ExplainRequest, mut cfg: DtConfig) -> Result<DtPlan> {
        // Approximate mode implies §6.1.2 tree-growth sampling: when the
        // DT config left it unset, derive one from the approx knobs so
        // the grow phase samples at the same rate the scorer does.
        if cfg.sampling.is_none() {
            if let Some(a) = req.approx() {
                cfg.sampling = Some(SamplingConfig {
                    min_rows_to_sample: a.min_rows,
                    min_rate: a.sample_rate,
                    seed: a.seed,
                });
            }
        }
        let (core, partitions) = PlanCore::prepare(req, |scorer, attrs, domains| {
            let dt = DtPartitioner::new(scorer, attrs.to_vec(), domains.to_vec(), cfg.clone());
            Ok(dt.partition()?.0)
        })?;
        Ok(DtPlan { core, cfg, partitions, state: Mutex::default() })
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
            // Re-score the cached partitions as one batch, free of mask
            // work for every cache hit. Under approximate mode the batch
            // is interval-pruned first; the Merger re-scores its top
            // results exactly, so reported predicates stay exact.
            let input = scorer.phases().time("run.score", || -> Result<_> {
                let mut input = self.partitions.clone();
                let preds: Vec<Predicate> = input.iter().map(|sp| sp.predicate.clone()).collect();
                let batch = scorer.influence_batch_pruned(&preds, self.cfg.merger.max_results);
                for (sp, inf) in input.iter_mut().zip(batch.scores) {
                    sp.influence = inf?;
                }
                input.sort_by(|a, b| b.influence.total_cmp(&a.influence));

                // Merge, warm-started from the answer stored at the
                // nearest c' ≥ c plus any absorbed seeds. Warm-start
                // predicates carry stale influences and stale stats;
                // re-score exactly, stats dropped.
                let warm = self.core.memo.lock().warm_start(params.c);
                let extra = std::mem::take(&mut self.state.lock().extra_seeds);
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

            let merger = Merger::new(scorer, &self.core.domains, self.cfg.merger.clone());
            let (merged, _) = scorer.phases().time("run.merge", || merger.merge(input))?;
            self.state.lock().last_merged =
                merged.iter().take(MAX_SEEDS).map(|sp| sp.predicate.clone()).collect();
            let n_partitions = self.partitions.len();
            Ok(RunOutput {
                predicates: merged,
                candidates: n_partitions as u64,
                partitions: n_partitions,
                budget_exhausted: false,
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
        *self.core.memo.lock() = AnswerMemo::default();
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
    /// Prepares an MC plan: builds the level-1 units.
    pub(crate) fn prepare(req: &ExplainRequest, cfg: McConfig) -> Result<Box<dyn PreparedPlan>> {
        let (core, units) = PlanCore::prepare(req, |scorer, attrs, domains| {
            scorer.phases().time("mc.units", || initial_units(scorer, attrs, domains))
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
            let (predicates, mdiag) = scorer.phases().time("run.score", || {
                let core = &self.core;
                mc_search_units(scorer, &core.attrs, &core.domains, &cfg, self.units.clone())
            })?;
            Ok(RunOutput {
                predicates,
                candidates: mdiag.scored,
                partitions: mdiag.initial_units,
                budget_exhausted: mdiag.budget_exhausted,
            })
        })
    }
}

// ---------------------------------------------------------------------
// NAIVE
// ---------------------------------------------------------------------

/// The §4.2 exhaustive plan. `prepare` enumerates the per-attribute
/// clause candidates (bin and value geometry — `c`-agnostic); `run`
/// walks the anytime enumeration. With the shared cache, a completed
/// first run makes later runs at new parameters pure arithmetic: every
/// enumerated predicate re-scores without a mask pass.
pub(crate) struct NaivePlan {
    core: PlanCore,
    cfg: NaiveConfig,
    candidates: NaiveCandidates,
}

impl NaivePlan {
    /// Prepares a NAIVE plan: enumerates the clause candidates.
    pub(crate) fn prepare(req: &ExplainRequest, cfg: NaiveConfig) -> Result<Box<dyn PreparedPlan>> {
        let (core, candidates) = PlanCore::prepare(req, |scorer, attrs, domains| {
            scorer
                .phases()
                .time("naive.candidates", || naive_candidates(scorer, attrs, domains, &cfg))
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
            let out = scorer
                .phases()
                .time("run.score", || naive_search_prepared(scorer, &self.candidates, &cfg))?;
            Ok(RunOutput {
                predicates: vec![out.best],
                candidates: out.evaluated,
                partitions: 0,
                budget_exhausted: !out.completed,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::request::Scorpion;
    use scorpion_agg::{Avg, Sum};
    use scorpion_table::{Field, Schema, Table, TableBuilder, Value};

    /// Group "o" runs hot for x in `hot`; group "h" is uniform.
    fn planted(hot: std::ops::Range<f64>) -> Table {
        let schema =
            Schema::new(vec![Field::disc("g"), Field::cont("x"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..200 {
            let x = (i as f64 * 7.3) % 100.0;
            let v = if hot.contains(&x) { 80.0 } else { 10.0 };
            b.push_row(vec!["o".into(), Value::from(x), v.into()]).unwrap();
            b.push_row(vec!["h".into(), Value::from(x), Value::from(10.0)]).unwrap();
        }
        b.build()
    }

    fn request(algorithm: Algorithm, c: f64) -> ExplainRequest {
        request_on(planted(20.0..60.0), algorithm, c)
    }

    fn request_on(table: Table, algorithm: Algorithm, c: f64) -> ExplainRequest {
        let agg: std::sync::Arc<dyn scorpion_agg::Aggregate> = match &algorithm {
            Algorithm::BottomUp(_) => std::sync::Arc::new(Sum),
            _ => std::sync::Arc::new(Avg),
        };
        Scorpion::on(table)
            .group_by(&[0], agg, 2)
            .unwrap()
            .outlier(0, 1.0)
            .holdout(1)
            .params(0.5, c)
            .algorithm(algorithm)
            .build()
            .unwrap()
    }

    /// True when `ex` was answered from its plan's memo.
    fn from_memo(ex: &Explanation) -> bool {
        ex.diagnostics.phases.iter().any(|p| p.name == "run.memo")
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
        // The rebound plan starts with an empty memo: it merges again.
        assert!(!from_memo(&again), "{:?}", again.diagnostics);
        assert_eq!(first.best().predicate, again.best().predicate);
        assert!((first.best().influence - again.best().influence).abs() < 1e-9);
    }

    #[test]
    fn mc_and_naive_rebind_like_a_fresh_prepare() {
        let bits = |ex: &Explanation| -> Vec<(Predicate, u64)> {
            ex.predicates.iter().map(|sp| (sp.predicate.clone(), sp.influence.to_bits())).collect()
        };
        for algorithm in
            [Algorithm::BottomUp(McConfig::default()), Algorithm::Naive(NaiveConfig::default())]
        {
            let first = request(algorithm.clone(), 0.5);
            let plan = first.prepare().unwrap();
            let before = plan.run(&first.params()).unwrap();
            // The second table runs hot over another range.
            let second = request_on(planted(50.0..90.0), algorithm, 0.5);
            let rebound = plan.rebind(&second).unwrap().run(&second.params()).unwrap();
            let fresh = second.prepare().unwrap().run(&second.params()).unwrap();
            let algo = fresh.diagnostics.algorithm;
            assert_eq!(rebound.diagnostics.algorithm, algo);
            assert_eq!(bits(&rebound), bits(&fresh), "{algo}");
            assert_ne!(bits(&rebound), bits(&before), "{algo}: the tables' answers must differ");
            let (r, f) = (&rebound.diagnostics, &fresh.diagnostics);
            assert_eq!((r.candidates, r.partitions), (f.candidates, f.partitions), "{algo}");
        }
    }

    #[test]
    fn absorbed_seeds_only_help_and_clear_the_memo() {
        let dt = DtConfig { sampling: None, ..DtConfig::default() };
        let req = request(Algorithm::DecisionTree(dt), 0.2);
        let plan = req.prepare().unwrap();
        let baseline = plan.run(&req.params()).unwrap();
        let seeded = req.prepare().unwrap();
        seeded.absorb_seeds(vec![baseline.best().predicate.clone()]);
        let run = seeded.run(&req.params()).unwrap();
        assert!(run.best().influence >= baseline.best().influence - 1e-9);
        // Seeds absorbed after a run drop the stored answers: the next
        // run at the same key merges again, with the seeds.
        assert!(from_memo(&plan.run(&req.params()).unwrap()));
        plan.absorb_seeds(vec![run.best().predicate.clone()]);
        let rerun = plan.run(&req.params()).unwrap();
        assert!(!from_memo(&rerun), "{:?}", rerun.diagnostics);
        assert!(rerun.diagnostics.cache_hits > 0, "{:?}", rerun.diagnostics);
        assert!(rerun.best().influence >= run.best().influence - 1e-9);
        assert!(from_memo(&plan.run(&req.params()).unwrap()));
    }

    #[test]
    fn answer_memo_is_bounded() {
        let dt = DtConfig { sampling: None, ..DtConfig::default() };
        let req = request(Algorithm::DecisionTree(dt.clone()), 0.5);
        let plan = DtPlan::prepare(&req, dt).unwrap();
        let keys = || -> Vec<(u64, u64)> {
            plan.core.memo.lock().entries.iter().map(|(key, _)| *key).collect()
        };
        let params: Vec<InfluenceParams> = (0..MAX_ANSWERS + 4)
            .map(|i| InfluenceParams { lambda: 0.5, c: 0.05 * (i + 1) as f64 })
            .collect();
        for p in &params {
            assert!(!from_memo(&plan.run(p).unwrap()));
            assert!(keys().len() <= MAX_ANSWERS);
        }
        // The oldest writes went; the newest `MAX_ANSWERS` stayed.
        let mut want: Vec<(u64, u64)> =
            params[params.len() - MAX_ANSWERS..].iter().map(memo_key).collect();
        assert_eq!(keys(), want);
        // A kept key is answered from the memo and writes nothing; an
        // evicted one is recomputed and evicts the oldest write.
        assert!(from_memo(&plan.run(&params[4]).unwrap()));
        assert_eq!(keys(), want);
        assert!(!from_memo(&plan.run(&params[0]).unwrap()));
        want.remove(0);
        want.push(memo_key(&params[0]));
        assert_eq!(keys(), want);
    }

    #[test]
    fn warm_start_is_the_nearest_higher_c() {
        let answer = |tag: f64| Answer {
            predicates: vec![ScoredPredicate::new(Predicate::all(), tag)],
            candidates: 0,
            partitions: 0,
            candidates_pruned: 0,
            approx_error_bound: None,
            approx_fallback: None,
        };
        let key = |lambda: f64, c: f64| memo_key(&InfluenceParams { lambda, c });
        let mut memo = AnswerMemo::default();
        memo.insert(key(0.5, 0.4), answer(1.0));
        memo.insert(key(0.3, 0.4), answer(2.0));
        memo.insert(key(0.5, 0.8), answer(3.0));
        // A filled key keeps its first answer.
        assert_eq!(memo.insert(key(0.5, 0.8), answer(4.0)).predicates[0].influence, 3.0);
        let warm = |c: f64| memo.warm_start(c).iter().map(|sp| sp.influence).collect::<Vec<_>>();
        // Among equal `c'` at different λ, the latest write.
        assert_eq!(warm(0.1), [2.0]);
        assert_eq!(warm(0.4), [2.0]);
        assert_eq!(warm(0.5), [3.0]);
        assert_eq!(warm(0.9), [] as [f64; 0]);
    }

    #[test]
    fn plan_runs_attribute_phases() {
        let algorithms = [
            Algorithm::DecisionTree(DtConfig { sampling: None, ..DtConfig::default() }),
            Algorithm::BottomUp(McConfig::default()),
            Algorithm::Naive(NaiveConfig::default()),
        ];
        let count = |ex: &Explanation, name: &str| -> u64 {
            ex.diagnostics.phases.iter().filter(|p| p.name == name).map(|p| p.count).sum()
        };
        // Every uncached evaluation, prepare-side or run-side, is timed
        // once as `scorer.mask`: the phase count is the scorer-call count.
        let mask_matches_calls = |ex: &Explanation| {
            let d = &ex.diagnostics;
            assert_eq!(count(ex, "scorer.mask"), d.scorer_calls, "{}: {:?}", d.algorithm, d.phases);
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
                assert_eq!(
                    count(&first, "prepare"),
                    1,
                    "{algo}/{budget:?}: first run in {names:?}"
                );
                assert_eq!(names[0], "prepare", "{algo}/{budget:?}: prepare not first");
                assert!(
                    first.diagnostics.phases.iter().all(|p| p.count > 0),
                    "{names:?} has zero-count phases"
                );
                mask_matches_calls(&first);
                // A repeat is answered from the memo: one `run.memo`
                // phase and no scorer call.
                for later in [plan.run(&req.params()), plan.run_with_budget(&req.params(), budget)]
                {
                    let later = later.unwrap();
                    assert_eq!(
                        count(&later, "prepare"),
                        0,
                        "{algo}/{budget:?}: prepare charged twice"
                    );
                    assert_eq!(count(&later, "run.memo"), 1, "{algo}/{budget:?}: {later:?}");
                    mask_matches_calls(&later);
                }
            }
        }
    }

    #[test]
    fn mask_cache_flag_is_off_for_a_rerun_at_a_known_c() {
        use crate::telemetry::apply_diagnostics;
        use scorpion_obs::{CacheHit, TelemetryEvent};
        let flag = |ex: &Explanation| {
            apply_diagnostics(TelemetryEvent::blank(0, "explain"), &ex.diagnostics).mask_cache
        };
        for algorithm in [
            Algorithm::DecisionTree(DtConfig { sampling: None, ..DtConfig::default() }),
            Algorithm::BottomUp(McConfig::default()),
            Algorithm::Naive(NaiveConfig::default()),
        ] {
            let req = request(algorithm, 0.5);
            let plan = req.prepare().unwrap();
            let cold = plan.run(&req.params()).unwrap();
            let d = &cold.diagnostics;
            assert!(d.mask_cache_lookups > 0, "{}: cold run looked up no mask", d.algorithm);
            assert!(d.mask_cache_hits <= d.mask_cache_lookups);
            assert_ne!(flag(&cold), CacheHit::Off, "{}", d.algorithm);
            // A rerun at the same `(λ, c)` is answered from the memo: no
            // clause mask is looked up.
            let rerun = plan.run(&req.params()).unwrap();
            assert_eq!(rerun.diagnostics.mask_cache_lookups, 0, "{:?}", rerun.diagnostics);
            assert_eq!(flag(&rerun), CacheHit::Off, "{}", d.algorithm);
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
            // A truncated answer is not stored: the next unbudgeted run
            // at the same parameters searches, completes and is stored.
            let full = plan.run(&req.params()).unwrap();
            let d = &full.diagnostics;
            assert!(!from_memo(&full) && !d.budget_exhausted, "{d:?}");
            assert!(d.scorer_calls + d.cache_hits > 0, "{d:?}");
            assert!(from_memo(&plan.run(&req.params()).unwrap()));
            // A generous budget does not trip the anytime exit.
            let generous = plan
                .run_with_budget(&req.params().with_c(0.3), Some(Duration::from_secs(3600)))
                .unwrap();
            assert!(!from_memo(&generous), "{:?}", generous.diagnostics);
            assert!(!generous.diagnostics.budget_exhausted, "{}", generous.diagnostics.algorithm);
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
