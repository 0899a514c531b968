//! DT partitioner (§6.1): top-down, synchronized regression-tree
//! partitioning over per-tuple influences, for *independent* aggregates.
//!
//! Pipeline (following §6.1.1–§6.1.4):
//!
//! 1. Per-tuple influences are computed for every labeled input group
//!    (`v_o·Δ(t)` for outlier groups, `|Δ(t)|` for hold-out groups).
//! 2. The outlier groups are partitioned by one shared recursive tree:
//!    before an attribute/split is chosen, the candidate's error metric is
//!    computed per group and combined with `max` (§6.1.3), so every group
//!    receives the same partitioning without union-ing the groups (which
//!    would over-partition). The hold-out groups get their own tree.
//! 3. Splitting stops when a partition's influence spread falls under the
//!    [`ThresholdCurve`] (§6.1.1, Figure 4), with influence-weighted
//!    stratified sampling optionally bounding the per-node work (§6.1.2).
//!    One evaluator scores the splits of both attribute kinds: a pass per
//!    node and attribute adds each sampled row's `(1, inf, inf²)` into
//!    per-(group, bucket) sums, where a bucket is the interval between
//!    two consecutive quantile candidates of a continuous attribute or
//!    one admitted code of a discrete one, and each candidate is scored
//!    from running bucket sums. A split's rows are routed to its children
//!    by a stable two-cursor write with no branch on the side.
//! 4. The outlier partitioning is carved along the influential hold-out
//!    partitions (§6.1.4) so that predicates that would perturb hold-outs
//!    are separated from those that only touch outliers. A hold-out box
//!    cuts only the partitions it meets; one it misses stays whole
//!    ([`Predicate::carve`]).
//!
//! The resulting partitions are scored exactly, tagged with the per-group
//! statistics the Merger's cached-tuple approximation needs (§6.3), and
//! handed to the [`crate::merger::Merger`]. Each partition lies inside the
//! outlier leaf it was carved from, and the tree has routed every labeled
//! row (the hold-out groups' rows ride down the outlier tree too) to its
//! leaf, so a partition is scored from its leaf's rows rather than from
//! masks over the whole table.

mod threshold;

pub use threshold::ThresholdCurve;

use crate::config::DtConfig;
use crate::error::Result;
use crate::merger::{MergeDiag, Merger};
use crate::result::{GroupStat, PartitionStats, ScoredPredicate};
use crate::scorer::{Scorer, Selection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scorpion_obs::span;
use scorpion_table::{AttrDomain, Clause, Column, Predicate, RowMask, Table};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;

/// Minimum multiplicative error threshold `τ_min` of the stopping curve
/// (§6.1.1).
pub const TAU_MIN: f64 = 0.025;

/// Maximum multiplicative error threshold `τ_max` of the stopping curve
/// (§6.1.1).
pub const TAU_MAX: f64 = 0.2;

/// Inflection point `p` of the stopping curve (paper: 0.5).
pub const INFLECTION: f64 = 0.5;

/// `ε` (§6.1.2): the assumed fraction of the dataset occupied by an
/// influential cluster; drives the initial uniform sampling rate
/// `min{ sr | 1 − (1−ε)^(sr·|D|) ≥ 0.95 }`.
const SAMPLING_EPSILON: f64 = 0.01;

/// Do not split partitions with fewer sampled tuples than this.
const MIN_PARTITION_SIZE: usize = 16;

/// Maximum tree depth.
const MAX_DEPTH: usize = 12;

/// Number of candidate split points per continuous attribute (quantiles
/// of the partition's sample).
const N_SPLIT_CANDIDATES: usize = 16;

/// Guard on the number of pieces one outlier partition may be carved
/// into when combining with hold-out partitions (§6.1.4).
const MAX_CARVE_PIECES: usize = 64;

/// Budget on leaves per tree side. Noisy (Hard) data keeps per-tuple
/// influence variance above the stopping threshold, which would grow
/// trees to the depth limit (§8.3.2 observes exactly this); once the
/// budget is reached, remaining nodes become leaves as-is.
const MAX_LEAVES: usize = 512;

/// Overall cap on combined partitions handed to the Merger (its
/// expansion scan is quadratic in the input size: each step estimates
/// every adjacent candidate, and each cached-tuple estimate visits every
/// partition once). On the 50k-row SYNTH tables of the `analyst_slider`
/// benchmark a merge gets about 171 partitions, about 44 of them pass
/// the disjoint-range filter, and an estimate costs about 5 µs on a
/// 2-vCPU x86-64 host.
const MAX_PARTITIONS: usize = 1024;

/// Counters describing one DT run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DtDiag {
    /// Leaves of the outlier-side tree.
    pub outlier_leaves: usize,
    /// Leaves of the hold-out-side tree.
    pub holdout_leaves: usize,
    /// Partitions after combining the two sides (§6.1.4).
    pub partitions: usize,
    /// Tuples sampled across all root groups divided by total tuples.
    pub sampled_fraction: f64,
}

/// The DT partitioner bound to a scorer. Its pipeline stages are timed
/// as `dt.*` phases on the scorer's phase list.
pub struct DtPartitioner<'s, 'a> {
    scorer: &'s Scorer<'a>,
    attrs: Vec<usize>,
    domains: Vec<AttrDomain>,
    cfg: DtConfig,
}

/// A column borrowed for fast attribute access.
enum Col<'t> {
    Num(&'t [f64]),
    Cat(&'t [u32]),
}

/// One labeled group's tuples, flattened for tree construction.
struct SideGroup {
    rows: Vec<u32>,
    infs: Vec<f64>,
}

/// All groups of one side (outlier or hold-out) plus the side's threshold
/// curve.
struct SideData {
    groups: Vec<SideGroup>,
    curve: ThresholdCurve,
}

/// Per-group membership of a tree node: full positions and the sampled
/// subset used for split decisions.
struct Slice {
    pos: Vec<u32>,
    sample: Vec<u32>,
}

/// A tree node spanning all groups of a side.
struct Node {
    pred: Predicate,
    slices: Vec<Slice>,
    /// On the outlier tree, each hold-out group's positions whose rows
    /// the node's splits route to it, ascending; empty on the hold-out
    /// tree.
    riders: Vec<Vec<u32>>,
    depth: usize,
}

/// A candidate split.
enum Split {
    Cont { attr: usize, x: f64 },
    Disc { attr: usize, left: BTreeSet<u32> },
}

impl<'s, 'a> DtPartitioner<'s, 'a> {
    /// Creates a partitioner over the given explanation attributes.
    pub fn new(
        scorer: &'s Scorer<'a>,
        attrs: Vec<usize>,
        domains: Vec<AttrDomain>,
        cfg: DtConfig,
    ) -> Self {
        DtPartitioner { scorer, attrs, domains, cfg }
    }

    /// Runs partitioning only: ranked, exactly scored partitions with the
    /// per-group statistics the Merger needs.
    pub fn partition(&self) -> Result<(Vec<ScoredPredicate>, DtDiag)> {
        let _span = span!("dt.partition");
        let mut diag = DtDiag::default();
        let (out_leaves, pieces) = self.carve_leaves(&mut diag)?;
        let mut scored =
            self.scorer.phases().time("dt.finalize", || self.finalize(&out_leaves, &pieces))?;
        // Bound the Merger's (quadratic) input; the ranking is exact, so
        // only the weakest partitions are dropped.
        scored.truncate(MAX_PARTITIONS);
        Ok((scored, diag))
    }

    /// Grows both trees and carves the outlier leaves along the
    /// influential hold-out leaves (§6.1.4): the outlier leaves, and each
    /// one's partitions.
    fn carve_leaves(&self, diag: &mut DtDiag) -> Result<(Vec<Node>, Vec<Vec<Predicate>>)> {
        let phases = self.scorer.phases();
        let cols = self.borrow_cols()?;
        let mut rng = StdRng::seed_from_u64(self.cfg.sampling.map(|s| s.seed).unwrap_or(0));

        // Outlier side; the hold-out groups' rows ride along.
        let out_side = phases.time("dt.influences", || self.build_side(true))?;
        let riders = (0..self.scorer.n_holdouts())
            .map(|h| (0..self.scorer.holdout_rows(h).len() as u32).collect())
            .collect();
        let out_leaves = phases.time("dt.grow", || {
            self.grow(&out_side, riders, &cols, &mut rng, &mut diag.sampled_fraction)
        });
        diag.outlier_leaves = out_leaves.len();

        // Hold-out side (if any).
        let mut hold_preds: Vec<(Predicate, f64)> = Vec::new();
        if self.scorer.n_holdouts() > 0 {
            let hold_side = phases.time("dt.influences", || self.build_side(false))?;
            let mut dummy = 0.0;
            let hold_leaves = phases
                .time("dt.grow", || self.grow(&hold_side, Vec::new(), &cols, &mut rng, &mut dummy));
            diag.holdout_leaves = hold_leaves.len();
            hold_preds = hold_leaves
                .iter()
                .map(|n| (n.pred.clone(), mean_abs_influence(&hold_side, n)))
                .collect();
        }

        // §6.1.4: carve outlier partitions along influential hold-out
        // partitions.
        let pieces = phases.time("dt.carve", || self.combine(&out_leaves, &hold_preds));
        diag.partitions = pieces.iter().map(Vec::len).sum();
        Ok((out_leaves, pieces))
    }

    /// Partition + merge: the full DT pipeline.
    pub fn run(&self) -> Result<(Vec<ScoredPredicate>, DtDiag, MergeDiag)> {
        let (parts, diag) = self.partition()?;
        let merger = Merger::new(self.scorer, &self.domains, self.cfg.merger.clone());
        let (merged, mdiag) = self.scorer.phases().time("run.merge", || merger.merge(parts))?;
        Ok((merged, diag, mdiag))
    }

    fn borrow_cols(&self) -> Result<Vec<(usize, Col<'a>)>> {
        let table = self.scorer.table();
        self.attrs
            .iter()
            .map(|&a| {
                Ok((
                    a,
                    match table.column(a)? {
                        Column::Num(v) => Col::Num(v),
                        Column::Cat(c) => Col::Cat(c.codes()),
                    },
                ))
            })
            .collect()
    }

    fn build_side(&self, outlier: bool) -> Result<SideData> {
        let n = if outlier { self.scorer.n_outliers() } else { self.scorer.n_holdouts() };
        let mut groups = Vec::with_capacity(n);
        let (mut inf_l, mut inf_u) = (f64::INFINITY, f64::NEG_INFINITY);
        for g in 0..n {
            let (rows, infs) = if outlier {
                (self.scorer.outlier_rows(g).to_vec(), self.scorer.outlier_tuple_influences(g))
            } else {
                (self.scorer.holdout_rows(g).to_vec(), self.scorer.holdout_tuple_influences(g))
            };
            for &v in &infs {
                inf_l = inf_l.min(v);
                inf_u = inf_u.max(v);
            }
            groups.push(SideGroup { rows, infs });
        }
        if inf_l > inf_u {
            (inf_l, inf_u) = (0.0, 0.0);
        }
        Ok(SideData {
            groups,
            curve: ThresholdCurve::new(TAU_MIN, TAU_MAX, INFLECTION, inf_l, inf_u),
        })
    }

    /// Initial uniform sampling rate (§6.1.2):
    /// `min{ sr | 1 − (1−ε)^(sr·|D|) ≥ 0.95 }`.
    fn initial_rate(&self, group_len: usize) -> f64 {
        let Some(s) = self.cfg.sampling else { return 1.0 };
        if group_len < s.min_rows_to_sample || group_len == 0 {
            return 1.0;
        }
        let rate = (0.05f64).ln() / (group_len as f64 * (1.0 - SAMPLING_EPSILON).ln());
        rate.max(s.min_rate).min(1.0)
    }

    /// Grows one side's tree and returns its leaves. `riders` are the
    /// root's positions of the hold-out groups whose rows ride down the
    /// tree (the outlier tree's; none on the hold-out tree).
    fn grow(
        &self,
        side: &SideData,
        riders: Vec<Vec<u32>>,
        cols: &[(usize, Col<'_>)],
        rng: &mut StdRng,
        sampled_fraction: &mut f64,
    ) -> Vec<Node> {
        let mut total = 0usize;
        let mut sampled = 0usize;
        let slices: Vec<Slice> = side
            .groups
            .iter()
            .map(|g| {
                let pos: Vec<u32> = (0..g.rows.len() as u32).collect();
                let rate = self.initial_rate(pos.len());
                let mut sample = pos.clone();
                if rate < 1.0 {
                    let k = ((rate * pos.len() as f64).ceil() as usize).max(1);
                    let k = draw_front(&mut sample, k, rng);
                    sample.truncate(k);
                }
                total += pos.len();
                sampled += sample.len();
                Slice { pos, sample }
            })
            .collect();
        if total > 0 {
            *sampled_fraction = sampled as f64 / total as f64;
        }
        // Adapt the minimum partition size to tiny inputs (the paper's
        // running example has 3-tuple groups): never demand more than a
        // quarter of the root's tuples.
        let root_total: usize = slices.iter().map(|s| s.sample.len()).sum();
        let min_size = MIN_PARTITION_SIZE.min((root_total / 4).max(2));
        let phases = self.scorer.phases();
        let mut scratch = SplitScratch::default();
        let mut leaves = Vec::new();
        let mut stack = vec![Node { pred: Predicate::all(), slices, riders, depth: 0 }];
        while let Some(node) = stack.pop() {
            // Leaf budget: on noisy data the influence spread never drops
            // under the threshold and the tree would grow to the depth
            // limit; finish the remaining frontier as leaves.
            let split = if leaves.len() + stack.len() + 1 >= MAX_LEAVES
                || self.should_stop(side, &node, &mut scratch, min_size)
            {
                None
            } else {
                phases.time("dt.split", || self.best_split(&node, cols, &mut scratch))
            };
            match split {
                Some((_, split)) => {
                    let (l, r) = phases
                        .time("dt.expand", || self.apply_split(side, cols, node, &split, rng));
                    stack.push(l);
                    stack.push(r);
                }
                // A leaf keeps its sample (hold-out leaves are weighed by
                // it) and its positions (an outlier leaf's partitions are
                // scored from them).
                None => leaves.push(node),
            }
        }
        leaves
    }

    /// Whether `node` is a leaf: too small, too deep, or with every
    /// group's influence spread under the threshold curve. It first loads
    /// the node's sampled rows into `scratch`, for [`Self::best_split`].
    fn should_stop(
        &self,
        side: &SideData,
        node: &Node,
        scratch: &mut SplitScratch,
        min_size: usize,
    ) -> bool {
        scratch.gather(side, node);
        if scratch.infs.len() < min_size || node.depth >= MAX_DEPTH {
            return true;
        }
        let sigma_max = (scratch.whole.iter().filter(|w| w[0] >= 2.0))
            .map(|&[n, s, q]| (q / n - (s / n) * (s / n)).max(0.0).sqrt())
            .fold(0.0, f64::max);
        let inf_max = scratch.infs.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        !inf_max.is_finite() || sigma_max <= side.curve.threshold(inf_max)
    }

    /// Finds the best split of `node`, whose sampled rows `scratch` has
    /// loaded, with its metric: per group, the size-weighted mean of the
    /// two children's influence variances, combined across groups with
    /// `max` (§6.1.3). Returns `None` when no candidate's metric is below
    /// the parent's.
    ///
    /// One evaluator serves both attribute kinds. A pass over the node's
    /// sampled rows adds each row's `(1, inf, inf²)` into per-(group,
    /// bucket) sums, and every candidate is scored from running bucket
    /// sums in `O(groups)` ([`SplitScratch::scan`]):
    ///
    /// - a continuous attribute's candidates are up to
    ///   [`N_SPLIT_CANDIDATES`] quantiles of the node's pooled sample, and
    ///   its buckets the intervals between consecutive candidates. A row
    ///   is left of `x` exactly when `v < x`, as [`Router`] sends it, so
    ///   NaN of either sign goes right.
    /// - a discrete attribute's candidates are prefixes of its admitted
    ///   codes ordered by pooled mean influence (stable over first
    ///   appearance), at most `max_discrete_splits` of them, and its
    ///   buckets one per admitted code.
    ///
    /// Attributes and their candidates are tried in order, and a later
    /// one wins only with a strictly smaller metric.
    fn best_split(
        &self,
        node: &Node,
        cols: &[(usize, Col<'_>)],
        scratch: &mut SplitScratch,
    ) -> Option<(f64, Split)> {
        let parent = split_metric(&scratch.whole, &scratch.whole).1;
        let mut best: Option<(f64, Split)> = None;
        for (attr, col) in cols {
            let n_cands = match col {
                Col::Num(vals) => scratch.cont_buckets(vals),
                Col::Cat(codes) => {
                    let admitted = match node.pred.clause(*attr) {
                        Some(Clause::In { codes, .. }) => Some(code_table(codes)),
                        _ => None,
                    };
                    scratch.disc_buckets(codes, admitted.as_deref(), self.cfg.max_discrete_splits)
                }
            };
            let mut bound = best.as_ref().map_or(parent, |(m, _)| *m);
            let mut found = None;
            scratch.scan(n_cands, |j, left, tot| {
                let (ok, metric) = split_metric(left, tot);
                if ok && metric < bound {
                    bound = metric;
                    found = Some(j);
                }
            });
            if let Some(j) = found {
                let split = match col {
                    Col::Num(_) => Split::Cont { attr: *attr, x: scratch.cands[j] },
                    Col::Cat(_) => {
                        let left = scratch.order[..=j].iter().map(|&b| scratch.codes[b].0);
                        Split::Disc { attr: *attr, left: left.collect() }
                    }
                };
                best = Some((bound, split));
            }
        }
        best
    }

    /// Splits `node`, partitioning full and sampled positions and the
    /// riding hold-out positions, and applying the §6.1.2 stratified
    /// resampling to the children.
    ///
    /// Each row is routed by its own value ([`Router`]), so a split
    /// costs in proportion to the node's rows, not the table's. Every
    /// list keeps its order, by a two-cursor write with no branch on the
    /// side a row takes ([`two_cursor`]); the right child reuses the
    /// parent's buffers.
    fn apply_split(
        &self,
        side: &SideData,
        cols: &[(usize, Col<'_>)],
        node: Node,
        split: &Split,
        rng: &mut StdRng,
    ) -> (Node, Node) {
        let router = Router::new(cols, split);
        let (lp, rp) = self.child_predicates(&node.pred, split);
        let mut lslices = Vec::with_capacity(node.slices.len());
        let mut rslices = Vec::with_capacity(node.slices.len());
        for (slice, group) in node.slices.into_iter().zip(&side.groups) {
            let (pos_l, pos_r) =
                two_cursor(slice.pos, |p| router.goes_left(group.rows[p as usize]));
            let (mut mass_l, mut mass_r) = (0.0f64, 0.0f64);
            let (mut sample_l, mut sample_r) = two_cursor(slice.sample, |p| {
                let left = router.goes_left(group.rows[p as usize]);
                let inf = group.infs[p as usize].abs();
                mass_l += if left { inf } else { 0.0 };
                mass_r += if left { 0.0 } else { inf };
                left
            });
            if let Some(s) = self.cfg.sampling {
                let parent_n = (sample_l.len() + sample_r.len()) as f64;
                let total_mass = mass_l + mass_r;
                let (share_l, share_r) = if total_mass > 0.0 {
                    (mass_l / total_mass, mass_r / total_mass)
                } else {
                    (0.5, 0.5)
                };
                top_up(&mut sample_l, &pos_l, share_l * parent_n, s.min_rate, rng);
                top_up(&mut sample_r, &pos_r, share_r * parent_n, s.min_rate, rng);
            }
            lslices.push(Slice { pos: pos_l, sample: sample_l });
            rslices.push(Slice { pos: pos_r, sample: sample_r });
        }
        let (mut lriders, mut rriders) = (Vec::new(), Vec::new());
        for (h, pos) in node.riders.into_iter().enumerate() {
            let rows = self.scorer.holdout_rows(h);
            let (l, r) = two_cursor(pos, |p| router.goes_left(rows[p as usize]));
            lriders.push(l);
            rriders.push(r);
        }
        let depth = node.depth + 1;
        (
            Node { pred: lp, slices: lslices, riders: lriders, depth },
            Node { pred: rp, slices: rslices, riders: rriders, depth },
        )
    }

    /// Child predicates refining the node's clause on the split attribute.
    fn child_predicates(&self, pred: &Predicate, split: &Split) -> (Predicate, Predicate) {
        match split {
            Split::Cont { attr, x } => {
                let (lo, hi) = match pred.clause(*attr) {
                    Some(Clause::Range { lo, hi, .. }) => (*lo, *hi),
                    _ => match &self.domains[*attr] {
                        AttrDomain::Continuous { lo, hi } => {
                            let span = hi - lo;
                            let pad = if span == 0.0 { 1e-9 } else { span * 1e-9 };
                            (*lo, hi + pad)
                        }
                        AttrDomain::Discrete { .. } => (0.0, 0.0),
                    },
                };
                (
                    pred.with_clause(Clause::range(*attr, lo, *x)),
                    pred.with_clause(Clause::range(*attr, *x, hi)),
                )
            }
            Split::Disc { attr, left } => {
                let all: BTreeSet<u32> = match pred.clause(*attr) {
                    Some(Clause::In { codes, .. }) => codes.clone(),
                    _ => match &self.domains[*attr] {
                        AttrDomain::Discrete { cardinality } => (0..*cardinality as u32).collect(),
                        AttrDomain::Continuous { .. } => BTreeSet::new(),
                    },
                };
                let right: BTreeSet<u32> = all.difference(left).copied().collect();
                (
                    pred.with_clause(Clause::in_set(*attr, left.iter().copied())),
                    pred.with_clause(Clause::in_set(*attr, right)),
                )
            }
        }
    }

    /// §6.1.4: carve each outlier partition along the influential hold-out
    /// partitions so hold-out-hurting regions are separated. Each
    /// influential box cuts the pieces it meets and leaves the others
    /// whole, so a leaf that no influential box meets stays one partition.
    /// Returns each leaf's pieces, in leaf order.
    fn combine(&self, out_leaves: &[Node], hold: &[(Predicate, f64)]) -> Vec<Vec<Predicate>> {
        let influential: Vec<&Predicate> = if hold.is_empty() {
            Vec::new()
        } else {
            let global_mean = hold.iter().map(|(_, m)| m).sum::<f64>() / hold.len() as f64;
            hold.iter().filter(|(_, m)| *m >= global_mean).map(|(p, _)| p).collect()
        };
        let mut out = Vec::with_capacity(out_leaves.len());
        for leaf in out_leaves {
            let mut boxes = vec![leaf.pred.clone()];
            'carve: for h in &influential {
                let mut next = Vec::with_capacity(boxes.len() + 2);
                for b in &boxes {
                    let (inter, rems) = b.carve(h, &self.domains);
                    if let Some(i) = inter {
                        next.push(i);
                    }
                    next.extend(rems);
                    if next.len() > MAX_CARVE_PIECES {
                        break 'carve;
                    }
                }
                boxes = next;
            }
            out.push(boxes);
        }
        out
    }

    /// Scores each partition exactly and attaches the per-group statistics
    /// (cardinality + mean-influence representative tuple, §6.3), leaf by
    /// leaf: `pieces[i]` are the partitions carved from `leaves[i]`.
    ///
    /// A partition selects only rows of its leaf's box, since a carve
    /// piece lies inside the box it carves, and every labeled row in that
    /// box was routed to the leaf, since a [`Router`] sends a row left
    /// exactly when it satisfies the left child's clause. So each leaf's
    /// rows are laid out once ([`LeafRows`]), and a partition's rows are
    /// the leaf rows its clauses' kernels select there, each clause's
    /// mask built once per leaf. The same walk over those bits in
    /// ascending group position gives each group's statistics and, on a
    /// cache miss, its `(n, Δ)` ([`Scorer::influence_at`]), so sums,
    /// folds and the first-closest representative see the rows in the
    /// order a table-wide mask walk would.
    ///
    /// A leaf's layout is timed as phase `dt.finalize.gather`, each
    /// partition's mask as `dt.finalize.mask` and its statistics as
    /// `dt.finalize.stats`; its score is `scorer.mask`.
    fn finalize(&self, leaves: &[Node], pieces: &[Vec<Predicate>]) -> Result<Vec<ScoredPredicate>> {
        let s = self.scorer;
        let phases = s.phases();
        let (n_out, n_hold) = (s.n_outliers(), s.n_holdouts());
        let out_infs: Vec<Vec<f64>> = (0..n_out).map(|g| s.outlier_tuple_influences(g)).collect();
        let hold_infs: Vec<Vec<f64>> = (0..n_hold).map(|g| s.holdout_tuple_influences(g)).collect();
        let mut seen = HashSet::new();
        let mut out = Vec::with_capacity(pieces.iter().map(Vec::len).sum());
        let (mut words, mut picked) = (Vec::new(), Vec::new());
        for (leaf, preds) in leaves.iter().zip(pieces) {
            // Each group's positions in the leaf, outlier groups first.
            let pos: Vec<&[u32]> = (leaf.slices.iter().map(|sl| sl.pos.as_slice()))
                .chain(leaf.riders.iter().map(Vec::as_slice))
                .collect();
            let rows = phases.time("dt.finalize.gather", || {
                let group = |k: usize| {
                    if k < n_out {
                        (s.outlier_rows(k), s.outlier_values(k), out_infs[k].as_slice())
                    } else {
                        let h = k - n_out;
                        (s.holdout_rows(h), s.holdout_values(h), hold_infs[h].as_slice())
                    }
                };
                let attrs = preds.iter().flat_map(Predicate::attrs).collect();
                LeafRows::gather(&pos, group, s.table(), &attrs)
            });
            let mut masks: HashMap<&Clause, RowMask> = HashMap::new();
            for pred in preds {
                if !seen.insert(pred.clone()) {
                    continue;
                }
                phases.time("dt.finalize.mask", || rows.select(pred, &mut masks, &mut words));
                let mut stat = |k: usize| rows.stat(k, &words, &mut picked);
                let stats = phases.time("dt.finalize.stats", || PartitionStats {
                    outlier: (0..n_out).map(&mut stat).collect(),
                    holdout: (n_out..n_out + n_hold).map(&mut stat).collect(),
                });
                let influence = s.influence_at(pred, |outlier, g| {
                    let k = if outlier { g } else { n_out + g };
                    rows.selection(k, &words, pos[k])
                })?;
                out.push(ScoredPredicate {
                    predicate: pred.clone(),
                    influence,
                    stats: Some(stats),
                });
            }
        }
        out.sort_by(|a, b| b.influence.total_cmp(&a.influence));
        Ok(out)
    }
}

/// One outlier leaf's labeled rows, laid out for the clause kernels.
///
/// Each group's rows in the leaf (outlier groups, then hold-out groups)
/// fill a segment of local rows, in ascending group position, and each
/// segment starts on a 64-row word, so a group's rows are whole words of
/// any local mask. Padding fills the gaps and the tail: a NaN value and
/// an out-of-dictionary code, which no clause kernel selects.
struct LeafRows {
    /// Each group's local rows.
    segs: Vec<Range<usize>>,
    /// The aggregate value and the tuple influence of each local row.
    vals: Vec<f64>,
    infs: Vec<f64>,
    /// Each local row's value of the attributes the leaf's partitions
    /// constrain.
    cols: HashMap<usize, LocalCol>,
    /// The local rows that hold a labeled row: the selection of a
    /// partition with no clause.
    real: Vec<u64>,
}

/// One attribute's values of a leaf's rows.
enum LocalCol {
    Num(Vec<f64>),
    /// Dictionary codes, and the dictionary's size.
    Cat(Vec<u32>, usize),
}

impl LeafRows {
    /// Lays out the rows at `pos[k]` of each group `k`, whose table rows,
    /// aggregate values and tuple influences `group(k)` gives, with their
    /// values of `attrs`.
    fn gather<'g>(
        pos: &[&[u32]],
        group: impl Fn(usize) -> (&'g [u32], &'g [f64], &'g [f64]),
        table: &Table,
        attrs: &BTreeSet<usize>,
    ) -> LeafRows {
        let mut segs = Vec::with_capacity(pos.len());
        let mut end = 0usize;
        for p in pos {
            let start = end.next_multiple_of(64);
            end = start + p.len();
            segs.push(start..end);
        }
        let len = end.next_multiple_of(64);
        let (mut rows, mut vals, mut infs) = (vec![0u32; len], vec![0.0; len], vec![0.0; len]);
        let mut real = vec![0u64; len / 64];
        for (k, (seg, p)) in segs.iter().zip(pos).enumerate() {
            let (g_rows, g_vals, g_infs) = group(k);
            let local = (rows[seg.clone()].iter_mut())
                .zip(&mut vals[seg.clone()])
                .zip(&mut infs[seg.clone()]);
            for (((row, val), inf), &q) in local.zip(p.iter()) {
                let q = q as usize;
                (*row, *val, *inf) = (g_rows[q], g_vals[q], g_infs[q]);
            }
            let (full, rest) = (seg.start / 64..seg.end / 64, seg.end % 64);
            real[full.clone()].fill(u64::MAX);
            if rest != 0 {
                real[full.end] = (1 << rest) - 1;
            }
        }
        // Padding is NaN or `u32::MAX`, which no clause kernel selects.
        let gathered = |c: &Column| match c {
            Column::Num(v) => LocalCol::Num(spread(v, &rows, &segs, f64::NAN)),
            Column::Cat(c) => {
                LocalCol::Cat(spread(c.codes(), &rows, &segs, u32::MAX), c.cardinality())
            }
        };
        let cols = (attrs.iter())
            .map(|&a| (a, gathered(table.column(a).expect("DT attributes are table columns"))))
            .collect();
        LeafRows { segs, vals, infs, cols, real }
    }

    /// Writes into `words` the local rows `pred` selects: the `AND` of
    /// its clauses' masks over the leaf, each built by its column kernel
    /// once per leaf and kept in `masks`.
    fn select<'p>(
        &self,
        pred: &'p Predicate,
        masks: &mut HashMap<&'p Clause, RowMask>,
        words: &mut Vec<u64>,
    ) {
        words.clear();
        let mut clauses = pred.clauses();
        let Some(first) = clauses.next() else {
            words.extend_from_slice(&self.real);
            return;
        };
        words.extend_from_slice(self.mask(first, masks).words());
        for clause in clauses {
            let m = self.mask(clause, masks);
            words.iter_mut().zip(m.words()).for_each(|(w, m)| *w &= m);
        }
    }

    /// `clause`'s mask over the leaf, from `masks` or built and kept
    /// there.
    fn mask<'m, 'p>(
        &self,
        clause: &'p Clause,
        masks: &'m mut HashMap<&'p Clause, RowMask>,
    ) -> &'m RowMask {
        masks.entry(clause).or_insert_with(|| {
            let mask = match &self.cols[&clause.attr()] {
                LocalCol::Num(v) => clause.eval_nums(v),
                LocalCol::Cat(c, cardinality) => clause.eval_codes(c, *cardinality),
            };
            mask.expect("a DT clause matches its column's kind")
        })
    }

    /// The words of a local mask that hold group `k`'s rows.
    fn words_of(&self, k: usize) -> Range<usize> {
        let seg = &self.segs[k];
        seg.start / 64..seg.end.div_ceil(64)
    }

    /// Group `k`'s part of a selection `words`, whose rows sit at the
    /// group positions `pos`.
    fn selection<'x>(&'x self, k: usize, words: &'x [u64], pos: &'x [u32]) -> Selection<'x> {
        let (words, vals) = (&words[self.words_of(k)], &self.vals[self.segs[k].start..]);
        Selection { words, vals, pos }
    }

    /// The §6.3 statistics of group `k` over the local rows `words`
    /// selects: their count, and the aggregate value of the first of them
    /// whose influence lies closest to their mean influence. `picked` is
    /// scratch.
    fn stat(&self, k: usize, words: &[u64], picked: &mut Vec<usize>) -> GroupStat {
        let span = self.words_of(k);
        picked.clear();
        let mut sum = 0.0;
        for (wi, &word) in span.clone().zip(&words[span]) {
            let mut w = word;
            while w != 0 {
                let j = (wi << 6) | w.trailing_zeros() as usize;
                picked.push(j);
                sum += self.infs[j];
                w &= w - 1;
            }
        }
        if picked.is_empty() {
            return GroupStat { n: 0.0, rep_value: 0.0 };
        }
        let mean = sum / picked.len() as f64;
        // The first of the least distances, as `Iterator::min_by` picks.
        let gap = |j: usize| (self.infs[j] - mean).abs();
        let (mut rep, mut least) = (picked[0], gap(picked[0]));
        for &j in &picked[1..] {
            let d = gap(j);
            if d.total_cmp(&least).is_lt() {
                (rep, least) = (j, d);
            }
        }
        GroupStat { n: picked.len() as f64, rep_value: self.vals[rep] }
    }
}

/// `col` at the table row `rows[j]` of each local row `j` of `segs`, and
/// `pad` at every other local row.
fn spread<T: Copy>(col: &[T], rows: &[u32], segs: &[Range<usize>], pad: T) -> Vec<T> {
    let mut out = vec![pad; rows.len()];
    for seg in segs {
        let local = out[seg.clone()].iter_mut().zip(&rows[seg.clone()]);
        local.for_each(|(x, &r)| *x = col[r as usize]);
    }
    out
}

/// Pooled mean |influence| of a node over all groups' samples.
fn mean_abs_influence(side: &SideData, node: &Node) -> f64 {
    let (mut sum, mut n) = (0.0, 0.0);
    for (g, slice) in node.slices.iter().enumerate() {
        for &p in &slice.sample {
            sum += side.groups[g].infs[p as usize].abs();
            n += 1.0;
        }
    }
    if n > 0.0 {
        sum / n
    } else {
        0.0
    }
}

/// `(count, Σ influence, Σ influence²)` over some sampled rows of one
/// group.
type Sums = [f64; 3];

/// Adds one row of influence `inf` to `s`.
fn add_row(s: &mut Sums, inf: f64) {
    *s = [s[0] + 1.0, s[1] + inf, s[2] + inf * inf];
}

/// Adds `b` to `a`.
fn add_sums(a: &mut Sums, b: &Sums) {
    *a = [a[0] + b[0], a[1] + b[1], a[2] + b[2]];
}

/// A candidate's split metric (§6.1.3), given each group's sums left of
/// it and in all, with whether both children have sampled rows: per
/// group, the size-weighted mean of the two children's influence
/// variances; across groups, the `max`. With `left == tot` it is the
/// node's own metric.
fn split_metric(left: &[Sums], tot: &[Sums]) -> (bool, f64) {
    let var = |[n, s, q]: Sums| if n < 1.0 { 0.0 } else { (q / n - (s / n) * (s / n)).max(0.0) };
    let (mut metric, mut n_l, mut n_r) = (0.0f64, 0.0, 0.0);
    for (&l, t) in left.iter().zip(tot) {
        let r = [t[0] - l[0], t[1] - l[1], t[2] - l[2]];
        let n = l[0] + r[0];
        if n > 0.0 {
            metric = metric.max((l[0] * var(l) + r[0] * var(r)) / n);
        }
        (n_l, n_r) = (n_l + l[0], n_r + r[0]);
    }
    (n_l > 0.0 && n_r > 0.0, metric)
}

/// A node's sampled rows and the buffers of its split search, reused
/// from node to node within one grow.
///
/// [`SplitScratch::gather`] loads a node. Per attribute,
/// [`SplitScratch::cont_buckets`] or [`SplitScratch::disc_buckets`] fills
/// the per-(bucket, group) sums and the bucket order, and
/// [`SplitScratch::scan`] walks the candidates.
#[derive(Default)]
struct SplitScratch {
    /// Table row of every sampled row, group after group, each group's
    /// in sample order.
    rows: Vec<u32>,
    /// Tuple influence of each row of `rows`.
    infs: Vec<f64>,
    /// `ends[g]` is where group `g`'s rows end in `rows` and `infs`.
    ends: Vec<usize>,
    /// Each group's sums over all its sampled rows, in sample order.
    whole: Vec<Sums>,
    /// A continuous attribute's value of each row of `rows`.
    vals: Vec<f64>,
    /// A copy of `vals` that the quantile selection reorders.
    pool: Vec<f64>,
    /// The ranks the quantile selection reads.
    ranks: Vec<usize>,
    /// A continuous attribute's candidates, ascending, padded with NaN.
    cands: [f64; N_SPLIT_CANDIDATES],
    /// Code → 1 + bucket of a discrete attribute's admitted codes (0:
    /// none yet); all 0 between attributes.
    slot: Vec<u32>,
    /// `(code, pooled Σ influence, pooled count)` of each discrete bucket,
    /// in order of first appearance.
    codes: Vec<(u32, f64, f64)>,
    /// Per-(bucket, group) sums, bucket-major: `sums[b · groups + g]`.
    sums: Vec<Sums>,
    /// The buckets in candidate order: candidate `j`'s left side is the
    /// buckets `order[..=j]`.
    order: Vec<usize>,
    /// Each group's sums over all its sampled rows, less a candidate's
    /// left sums its right ones: a continuous attribute's fold of its
    /// buckets, or a discrete attribute's copy of `whole`.
    tot: Vec<Sums>,
}

impl SplitScratch {
    /// Loads `node`: its sampled rows' table rows and influences, and each
    /// group's sums over them.
    fn gather(&mut self, side: &SideData, node: &Node) {
        self.rows.clear();
        self.infs.clear();
        self.ends.clear();
        self.whole.clear();
        for (slice, group) in node.slices.iter().zip(&side.groups) {
            let mut whole = [0.0; 3];
            for &p in &slice.sample {
                let inf = group.infs[p as usize];
                self.rows.push(group.rows[p as usize]);
                self.infs.push(inf);
                add_row(&mut whole, inf);
            }
            self.ends.push(self.rows.len());
            self.whole.push(whole);
        }
    }

    /// Buckets the node's rows by continuous column `col` and returns the
    /// number of candidates.
    ///
    /// The candidates are the values at the ranks `len·q / 17`
    /// (`q = 1..=16`) of the node's pooled sample in `f64::total_cmp`
    /// order, read by selection rather than a sort, above the pooled
    /// minimum and without repeats; a NaN candidate, which no row is left
    /// of, is dropped. Bucket `b` holds the rows left of candidate `b`
    /// but of no smaller one, and bucket `k` the rows left of none (NaN
    /// among them).
    fn cont_buckets(&mut self, col: &[f64]) -> usize {
        const N: usize = N_SPLIT_CANDIDATES;
        let len = self.rows.len();
        if len < 2 {
            return 0;
        }
        self.vals.clear();
        self.vals.extend(self.rows.iter().map(|&r| col[r as usize]));
        self.pool.clone_from(&self.vals);
        let rank = |q: usize| (len * q / (N + 1)).min(len - 1);
        self.ranks.clear();
        self.ranks.extend((0..=N).map(rank).chain([len - 1]));
        self.ranks.dedup();
        select_ranks(&mut self.pool, 0, &self.ranks);
        let (lo, hi) = (self.pool[0], self.pool[len - 1]);
        if lo == hi {
            return 0;
        }
        self.cands = [f64::NAN; N];
        let (mut k, mut seen) = (0, f64::NAN);
        for q in 1..=N {
            let x = self.pool[rank(q)];
            if x <= lo || x == seen {
                continue;
            }
            seen = x;
            if !x.is_nan() {
                self.cands[k] = x;
                k += 1;
            }
        }
        let groups = self.ends.len();
        self.sums.clear();
        self.sums.resize((k + 1) * groups, [0.0; 3]);
        // A row's bucket is the number of candidates it is not left of;
        // no row is left of a NaN pad.
        let mut start = 0;
        for (g, &end) in self.ends.iter().enumerate() {
            for (&v, &inf) in self.vals[start..end].iter().zip(&self.infs[start..end]) {
                let b = k - self.cands.iter().filter(|&&x| v < x).count();
                add_row(&mut self.sums[b * groups + g], inf);
            }
            start = end;
        }
        self.order.clear();
        self.order.extend(0..=k);
        // The totals fold the buckets in order, so a group that a
        // candidate leaves whole scores the same for every candidate.
        self.tot.clear();
        self.tot.resize(groups, [0.0; 3]);
        for bucket in self.sums.chunks_exact(groups) {
            self.tot.iter_mut().zip(bucket).for_each(|(t, s)| add_sums(t, s));
        }
        k
    }

    /// Buckets the node's rows by discrete column `col` and returns the
    /// number of candidates: prefixes of the admitted codes, at most
    /// `max_splits` and leaving at least one code out.
    ///
    /// `admitted` is the node's clause on the attribute as a
    /// [`code_table`] (`None`: every code). Each admitted code gets a
    /// bucket when first seen; a row whose code the clause does not admit
    /// is in none, and goes right of every prefix. Each code's pooled mean
    /// influence adds its rows across groups in sample order, and `order`
    /// sorts the codes by it, descending and stable. The totals are each
    /// group's sample-order sums.
    fn disc_buckets(&mut self, col: &[u32], admitted: Option<&[bool]>, max_splits: usize) -> usize {
        let groups = self.ends.len();
        self.codes.clear();
        self.sums.clear();
        let mut start = 0;
        for (g, &end) in self.ends.iter().enumerate() {
            for (&row, &inf) in self.rows[start..end].iter().zip(&self.infs[start..end]) {
                let code = col[row as usize];
                if admitted.is_some_and(|a| !in_table(a, code)) {
                    continue;
                }
                let c = code as usize;
                if c >= self.slot.len() {
                    self.slot.resize(c + 1, 0);
                }
                if self.slot[c] == 0 {
                    // −0.0 is the identity of `+`: the first sum is `inf`.
                    self.codes.push((code, -0.0, 0.0));
                    self.slot[c] = self.codes.len() as u32;
                    self.sums.resize(self.sums.len() + groups, [0.0; 3]);
                }
                let b = self.slot[c] as usize - 1;
                let e = &mut self.codes[b];
                (e.1, e.2) = (e.1 + inf, e.2 + 1.0);
                add_row(&mut self.sums[b * groups + g], inf);
            }
            start = end;
        }
        self.codes.iter().for_each(|&(code, ..)| self.slot[code as usize] = 0);
        let n = self.codes.len();
        if n < 2 {
            return 0;
        }
        let codes = &self.codes;
        self.order.clear();
        self.order.extend(0..n);
        self.order
            .sort_by(|&a, &b| (codes[b].1 / codes[b].2).total_cmp(&(codes[a].1 / codes[a].2)));
        self.tot.clone_from(&self.whole);
        (n - 1).min(max_splits)
    }

    /// Calls `visit(j, left, tot)` for each of the first `n_cands`
    /// candidates, where `left[g]` sums group `g`'s rows left of
    /// candidate `j`, its buckets `order[..=j]` added in that order, and
    /// `tot[g]` all of the group's rows.
    fn scan(&self, n_cands: usize, mut visit: impl FnMut(usize, &[Sums], &[Sums])) {
        let groups = self.ends.len();
        let mut left = vec![[0.0; 3]; groups];
        for (j, &b) in self.order[..n_cands].iter().enumerate() {
            let bucket = &self.sums[b * groups..(b + 1) * groups];
            left.iter_mut().zip(bucket).for_each(|(l, s)| add_sums(l, s));
            visit(j, &left, &self.tot);
        }
    }
}

/// Moves the values of `ranks` (ascending, distinct, offset by `base`
/// from `xs`' start) to where a sort by `f64::total_cmp` would put them:
/// one selection per rank, each over the span its neighbours leave.
fn select_ranks(xs: &mut [f64], base: usize, ranks: &[usize]) {
    let mid = ranks.len() / 2;
    let Some(&r) = ranks.get(mid) else { return };
    let (below, _, above) = xs.select_nth_unstable_by(r - base, f64::total_cmp);
    select_ranks(below, base, &ranks[..mid]);
    select_ranks(above, r + 1, &ranks[mid + 1..]);
}

/// Splits `items` into those `left` holds for and the rest, each in its
/// original order. Each item is written at both sides' cursors and only
/// its own side's cursor advances, so no branch depends on the side. The
/// right side keeps `items`' buffer.
fn two_cursor(mut items: Vec<u32>, mut left: impl FnMut(u32) -> bool) -> (Vec<u32>, Vec<u32>) {
    let mut l = vec![0; items.len()];
    let (mut n_l, mut n_r) = (0, 0);
    for i in 0..items.len() {
        let p = items[i];
        let go = left(p);
        l[n_l] = p;
        items[n_r] = p;
        n_l += usize::from(go);
        n_r += usize::from(!go);
    }
    l.truncate(n_l);
    items.truncate(n_r);
    (l, items)
}

/// Moves `k` elements drawn uniformly without replacement from `pool`
/// to its front (a partial Fisher–Yates in place) and returns how many
/// it moved: `k`, or the pool's size if that is smaller.
fn draw_front(pool: &mut [u32], k: usize, rng: &mut StdRng) -> usize {
    let k = k.min(pool.len());
    for i in 0..k {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    k
}

/// Ensures `sample` reaches the stratified target size
/// `max(target_n, min_rate·|pos|)` by drawing additional positions from
/// `pos` that are not yet sampled (§6.1.2).
///
/// `pos` is ascending (the root's positions are `0..n`, and routing
/// keeps their order), so the unsampled positions come from one merge
/// walk of `pos` against a sorted copy of `sample`, in `pos` order, and
/// the extra positions are drawn from them in place.
fn top_up(sample: &mut Vec<u32>, pos: &[u32], target_n: f64, min_rate: f64, rng: &mut StdRng) {
    if pos.is_empty() {
        return;
    }
    let target = (target_n.max(min_rate * pos.len() as f64).ceil() as usize).min(pos.len());
    if sample.len() >= target {
        return;
    }
    let mut taken = sample.clone();
    taken.sort_unstable();
    let mut unsampled = Vec::with_capacity(pos.len().saturating_sub(taken.len()));
    let mut t = 0;
    for &p in pos {
        while t < taken.len() && taken[t] < p {
            t += 1;
        }
        if t == taken.len() || taken[t] != p {
            unsampled.push(p);
        }
    }
    let k = draw_front(&mut unsampled, target - sample.len(), rng);
    sample.extend_from_slice(&unsampled[..k]);
}

/// A code-indexed membership table of `codes`: entry `c` is true iff
/// `c` is in the set. Codes past its end are not members.
fn code_table(codes: &BTreeSet<u32>) -> Vec<bool> {
    let mut table = vec![false; codes.last().map_or(0, |&c| c as usize + 1)];
    for &c in codes {
        table[c as usize] = true;
    }
    table
}

/// Whether `code` is a member of a [`code_table`].
#[inline]
fn in_table(table: &[bool], code: u32) -> bool {
    table.get(code as usize).copied().unwrap_or(false)
}

/// Which child a split sends a row to, resolved once per split: a
/// continuous split's rows go left when `v < x`, exactly the rows
/// `Clause::range(attr, −∞, x)` selects (NaN goes right; −∞ goes left
/// of any `x` above it), and a discrete split's rows go left when
/// their code is in its left set.
enum Router<'t> {
    Below { vals: &'t [f64], x: f64 },
    InLeft { codes: &'t [u32], left: Vec<bool> },
}

impl<'t> Router<'t> {
    fn new(cols: &[(usize, Col<'t>)], split: &Split) -> Self {
        let attr = match split {
            Split::Cont { attr, .. } | Split::Disc { attr, .. } => *attr,
        };
        let col =
            cols.iter().find(|(a, _)| *a == attr).map(|(_, c)| c).expect("split attr is bound");
        match (split, col) {
            (Split::Cont { x, .. }, Col::Num(vals)) => Router::Below { vals, x: *x },
            (Split::Disc { left, .. }, Col::Cat(codes)) => {
                Router::InLeft { codes, left: code_table(left) }
            }
            _ => unreachable!("a split is chosen on its own column's kind"),
        }
    }

    #[inline]
    fn goes_left(&self, row: u32) -> bool {
        match self {
            Router::Below { vals, x } => vals[row as usize] < *x,
            Router::InLeft { codes, left } => in_table(left, codes[row as usize]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InfluenceParams, SamplingConfig};
    use crate::scorer::{GroupSpec, InfluenceCache};
    use scorpion_agg::Avg;
    use scorpion_table::{
        domains_of, group_by, ClauseMaskCache, Field, Schema, Table, TableBuilder, Value,
    };
    use std::sync::Arc;

    /// 2-D planted box: outlier group has value 100 inside
    /// x ∈ [20,60) ∧ y ∈ [20,60), 10 elsewhere; hold-out group uniform 10.
    fn planted_2d(n_per_group: usize) -> Table {
        let schema = Schema::new(vec![
            Field::disc("g"),
            Field::cont("x"),
            Field::cont("y"),
            Field::cont("v"),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        // Deterministic low-discrepancy-ish grid.
        for i in 0..n_per_group {
            let x = (i as f64 * 7.3) % 100.0;
            let y = (i as f64 * 13.7) % 100.0;
            let hot = (20.0..60.0).contains(&x) && (20.0..60.0).contains(&y);
            let v = if hot { 100.0 } else { 10.0 };
            b.push_row(vec!["o".into(), Value::from(x), Value::from(y), v.into()]).unwrap();
            b.push_row(vec!["h".into(), Value::from(x), Value::from(y), Value::from(10.0)])
                .unwrap();
        }
        b.build()
    }

    fn scorer(t: &Table) -> Scorer<'_> {
        let g = group_by(t, &[0]).unwrap();
        Scorer::new(
            t,
            &Avg,
            3,
            vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
            vec![GroupSpec { rows: g.rows(1).to_vec(), error: 1.0 }],
            InfluenceParams { lambda: 0.5, c: 0.2 },
        )
        .unwrap()
    }

    fn dt_cfg() -> DtConfig {
        DtConfig { sampling: None, ..DtConfig::default() }
    }

    #[test]
    fn recovers_planted_box() {
        let t = planted_2d(600);
        let s = scorer(&t);
        let d = domains_of(&t).unwrap();
        let dt = DtPartitioner::new(&s, vec![1, 2], d.clone(), dt_cfg());
        let (merged, diag, _) = dt.run().unwrap();
        assert!(diag.outlier_leaves >= 2, "{diag:?}");
        assert!(!merged.is_empty());
        let best = &merged[0];
        // The best box must cover the hot region's core and exclude the
        // far corners.
        let m = best.predicate.mask(&t, &ClauseMaskCache::new()).unwrap();
        let x = t.num(1).unwrap();
        let y = t.num(2).unwrap();
        let rows = s.outlier_rows(0);
        let (mut hot_in, mut hot_tot, mut cold_in, mut cold_tot) = (0, 0, 0, 0);
        for &r in rows {
            let hot =
                (25.0..55.0).contains(&x[r as usize]) && (25.0..55.0).contains(&y[r as usize]);
            let cold =
                !((15.0..65.0).contains(&x[r as usize]) && (15.0..65.0).contains(&y[r as usize]));
            if hot {
                hot_tot += 1;
                if m.contains(r) {
                    hot_in += 1;
                }
            }
            if cold {
                cold_tot += 1;
                if m.contains(r) {
                    cold_in += 1;
                }
            }
        }
        assert!(hot_tot > 0 && cold_tot > 0);
        let recall = hot_in as f64 / hot_tot as f64;
        let leak = cold_in as f64 / cold_tot as f64;
        assert!(recall > 0.8, "core recall {recall}");
        assert!(leak < 0.2, "cold leak {leak}");
    }

    #[test]
    fn partitions_carry_stats() {
        let t = planted_2d(300);
        let s = scorer(&t);
        let d = domains_of(&t).unwrap();
        let dt = DtPartitioner::new(&s, vec![1, 2], d, dt_cfg());
        let (parts, diag) = dt.partition().unwrap();
        assert_eq!(diag.partitions, parts.len());
        for p in &parts {
            let st = p.stats.as_ref().expect("stats attached");
            assert_eq!(st.outlier.len(), 1);
            assert_eq!(st.holdout.len(), 1);
        }
        // Partition cardinalities cover the outlier group at most once
        // per tuple (combined partitions are disjoint boxes).
        let total: f64 = parts.iter().map(|p| p.stats.as_ref().unwrap().outlier[0].n).sum();
        assert!(total <= s.outlier_rows(0).len() as f64 + 1e-9);

        // Row-at-a-time reference: test the group's rows one by one against
        // the predicate's mask, take their mean tuple influence, and the
        // first row closest to it. The
        // fixture interleaves `o` and `h` rows, so neither group's rows are
        // contiguous and the mask walk's position mapping is exercised.
        let reference = |p: &Predicate, rows: &[u32], values: &[f64], infs: &[f64]| {
            let m = p.mask(&t, &ClauseMaskCache::new()).unwrap();
            let matched: Vec<usize> = (0..rows.len()).filter(|&i| m.contains(rows[i])).collect();
            if matched.is_empty() {
                return GroupStat { n: 0.0, rep_value: 0.0 };
            }
            let mut sum = 0.0;
            for &i in &matched {
                sum += infs[i];
            }
            let mean = sum / matched.len() as f64;
            let mut rep = matched[0];
            for &i in &matched {
                if (infs[i] - mean).abs() < (infs[rep] - mean).abs() {
                    rep = i;
                }
            }
            GroupStat { n: matched.len() as f64, rep_value: values[rep] }
        };
        let (out_infs, hold_infs) = (s.outlier_tuple_influences(0), s.holdout_tuple_influences(0));
        assert!(s.outlier_rows(0).iter().all(|r| r % 2 == 0));
        assert!(s.holdout_rows(0).iter().all(|r| r % 2 == 1));
        let mut nonempty = 0;
        for p in &parts {
            let st = p.stats.as_ref().unwrap();
            let want_o = reference(&p.predicate, s.outlier_rows(0), s.outlier_values(0), &out_infs);
            let want_h =
                reference(&p.predicate, s.holdout_rows(0), s.holdout_values(0), &hold_infs);
            assert_eq!(st.outlier[0], want_o, "outlier stats of {:?}", p.predicate);
            assert_eq!(st.holdout[0], want_h, "hold-out stats of {:?}", p.predicate);
            nonempty += usize::from(want_o.n > 0.0 && want_h.n > 0.0);
        }
        assert!(nonempty > 1, "only {nonempty} partitions select rows of both groups");
    }

    #[test]
    fn sampling_reduces_sampled_fraction_and_still_finds_box() {
        let t = planted_2d(3000);
        let s = scorer(&t);
        let d = domains_of(&t).unwrap();
        let cfg = DtConfig {
            sampling: Some(SamplingConfig { min_rows_to_sample: 500, min_rate: 0.05, seed: 42 }),
            ..DtConfig::default()
        };
        let dt = DtPartitioner::new(&s, vec![1, 2], d, cfg);
        let (merged, diag, _) = dt.run().unwrap();
        assert!(diag.sampled_fraction < 1.0, "{diag:?}");
        assert!(diag.sampled_fraction > 0.0);
        let best = &merged[0];
        let m = best.predicate.mask(&t, &ClauseMaskCache::new()).unwrap();
        let x = t.num(1).unwrap();
        let y = t.num(2).unwrap();
        let mut hot_in = 0;
        let mut hot_tot = 0;
        for &r in s.outlier_rows(0) {
            if (30.0..50.0).contains(&x[r as usize]) && (30.0..50.0).contains(&y[r as usize]) {
                hot_tot += 1;
                if m.contains(r) {
                    hot_in += 1;
                }
            }
        }
        assert!(hot_in as f64 / hot_tot as f64 > 0.7);
    }

    #[test]
    fn discrete_attribute_split() {
        // Outliers correlate with sensor "s3".
        let schema =
            Schema::new(vec![Field::disc("g"), Field::disc("sid"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..300 {
            let sid = ["s1", "s2", "s3"][i % 3];
            let v = if sid == "s3" { 100.0 } else { 10.0 };
            b.push_row(vec!["o".into(), sid.into(), v.into()]).unwrap();
            b.push_row(vec!["h".into(), sid.into(), Value::from(10.0)]).unwrap();
        }
        let t = b.build();
        let g = group_by(&t, &[0]).unwrap();
        let s = Scorer::new(
            &t,
            &Avg,
            2,
            vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
            vec![GroupSpec { rows: g.rows(1).to_vec(), error: 1.0 }],
            InfluenceParams { lambda: 0.5, c: 0.2 },
        )
        .unwrap();
        let d = domains_of(&t).unwrap();
        let dt = DtPartitioner::new(&s, vec![1], d, dt_cfg());
        let (merged, _, _) = dt.run().unwrap();
        let best = &merged[0];
        let s3 = t.cat(1).unwrap().code_of("s3").unwrap();
        let clause = best.predicate.clause(1).expect("sid clause");
        assert!(clause.matches_code(s3));
        assert!(!clause.matches_code(t.cat(1).unwrap().code_of("s1").unwrap()));
    }

    #[test]
    fn no_holdouts_is_supported() {
        let t = planted_2d(200);
        let g = group_by(&t, &[0]).unwrap();
        let s = Scorer::new(
            &t,
            &Avg,
            3,
            vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
            vec![],
            InfluenceParams::default(),
        )
        .unwrap();
        let d = domains_of(&t).unwrap();
        let dt = DtPartitioner::new(&s, vec![1, 2], d, dt_cfg());
        let (merged, diag, _) = dt.run().unwrap();
        assert_eq!(diag.holdout_leaves, 0);
        assert!(!merged.is_empty());
    }

    /// The §6.3 statistics of outlier group `g` (hold-out group `g` when
    /// `outlier` is false) over the tuples `pm` selects: their count, and
    /// the value of the first of them whose influence lies closest to
    /// their mean influence. `infs` are the group's tuple influences;
    /// `pos` is scratch.
    fn group_stat_by_mask(
        s: &Scorer<'_>,
        outlier: bool,
        g: usize,
        pm: &RowMask,
        infs: &[f64],
        pos: &mut Vec<usize>,
    ) -> GroupStat {
        let values = if outlier { s.outlier_values(g) } else { s.holdout_values(g) };
        pos.clear();
        let mut sum = 0.0;
        s.for_each_selected(outlier, g, pm, |i| {
            pos.push(i);
            sum += infs[i];
        });
        if pos.is_empty() {
            return GroupStat { n: 0.0, rep_value: 0.0 };
        }
        let mean = sum / pos.len() as f64;
        let rep = (pos.iter().copied())
            .min_by(|&a, &b| (infs[a] - mean).abs().total_cmp(&(infs[b] - mean).abs()))
            .expect("non-empty");
        GroupStat { n: pos.len() as f64, rep_value: values[rep] }
    }

    /// The retired finalize: each partition's mask over the whole table,
    /// through the Scorer's clause-mask cache; each group's statistics
    /// from a walk of `group ∧ mask`; and the mask path's score.
    fn finalize_by_masks(dt: &DtPartitioner<'_, '_>, preds: &[Predicate]) -> Vec<ScoredPredicate> {
        let s = dt.scorer;
        let out_infs: Vec<Vec<f64>> =
            (0..s.n_outliers()).map(|g| s.outlier_tuple_influences(g)).collect();
        let hold_infs: Vec<Vec<f64>> =
            (0..s.n_holdouts()).map(|g| s.holdout_tuple_influences(g)).collect();
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        let mut pos = Vec::new();
        for pred in preds {
            if !seen.insert(pred.clone()) {
                continue;
            }
            let pm = s.predicate_mask(pred).unwrap();
            let mut stat = |outlier: bool, (g, infs): (usize, &Vec<f64>)| {
                group_stat_by_mask(s, outlier, g, &pm, infs, &mut pos)
            };
            let stats = PartitionStats {
                outlier: out_infs.iter().enumerate().map(|x| stat(true, x)).collect(),
                holdout: hold_infs.iter().enumerate().map(|x| stat(false, x)).collect(),
            };
            let influence = s.influence(pred).unwrap();
            out.push(ScoredPredicate { predicate: pred.clone(), influence, stats: Some(stats) });
        }
        out.sort_by(|a, b| b.influence.total_cmp(&a.influence));
        out
    }

    /// Whether carving `leaf` along the influential hold-out boxes of
    /// `hold` stops at [`MAX_CARVE_PIECES`] (the break in `combine`).
    fn carve_is_capped(dt: &DtPartitioner<'_, '_>, leaf: &Predicate, hold: &[Predicate]) -> bool {
        let mut boxes = vec![leaf.clone()];
        for h in hold {
            let mut next = Vec::new();
            for b in &boxes {
                let (inter, rems) = b.carve(h, &dt.domains);
                next.extend(inter);
                next.extend(rems);
                if next.len() > MAX_CARVE_PIECES {
                    return true;
                }
            }
            boxes = next;
        }
        false
    }

    /// A random table for the finalize oracle: a group label `g`, two
    /// continuous attributes `x` and `y` with ties, NaN, ±∞ and ±0.0, a
    /// discrete attribute `d`, and the aggregate attribute `v`. Rows of
    /// `n_groups` groups interleave at random, so no group's rows are
    /// contiguous, and group sizes are mostly not multiples of 64. Outlier
    /// values are hot inside a random box unless `flat_outliers` (one
    /// value, so the outlier tree is its root leaf); hold-out values are
    /// noisy, so the hold-out tree grows many leaves.
    fn oracle_table(rng: &mut StdRng, n_groups: usize, n_out: usize, flat_outliers: bool) -> Table {
        let schema = Schema::new(vec![
            Field::disc("g"),
            Field::cont("x"),
            Field::cont("y"),
            Field::disc("d"),
            Field::cont("v"),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        let coord = |rng: &mut StdRng| match below(rng, 10) {
            0 => special[below(rng, special.len())],
            1..=3 => below(rng, 8) as f64 - 4.0,
            _ => below(rng, 1000) as f64 * 0.01 - 5.0,
        };
        let (bx, by) = (below(rng, 6) as f64 - 4.0, below(rng, 6) as f64 - 4.0);
        let n_rows = 40 + below(rng, 400 * n_groups);
        for _ in 0..n_rows {
            let g = below(rng, n_groups);
            let (x, y) = (coord(rng), coord(rng));
            let d = format!("d{}", below(rng, 5));
            let v = if g < n_out {
                let hot = (bx..bx + 3.0).contains(&x) && (by..by + 3.0).contains(&y);
                match () {
                    _ if flat_outliers => 1.0,
                    _ if hot => 50.0 + below(rng, 3) as f64,
                    _ => [0.0, -0.0, 1.0, 2.0][below(rng, 4)],
                }
            } else {
                below(rng, 100) as f64 * 0.37 - 3.0
            };
            let row = vec![Value::from(format!("g{g}")), x.into(), y.into(), d.into(), v.into()];
            b.push_row(row).unwrap();
        }
        b.build()
    }

    /// The leaf-row finalize gives every partition, score and statistic
    /// of the mask-path finalize bit for bit, writes the same
    /// influence-cache entries and counts the same scorer calls: over
    /// random tables with NaN, ±∞ and ±0.0 coordinates, one and two
    /// outlier groups, zero to two hold-out groups, sampled and unsampled
    /// trees, every removable aggregate and a black-box one. A sixth of
    /// the cases have one outlier value, so the outlier tree is its root
    /// leaf (`Predicate::all()`); with noisy hold-outs carving it, some of
    /// them stop at [`MAX_CARVE_PIECES`].
    #[test]
    fn leaf_finalize_matches_the_mask_path_bit_for_bit() {
        use scorpion_agg::{Aggregate, BlackBox, Count, StdDev, Sum, Variance};
        let aggs: [&dyn Aggregate; 6] = [&Avg, &Sum, &Count, &StdDev, &Variance, &BlackBox(Avg)];
        let mut rng = StdRng::seed_from_u64(0xF1A1);
        let (mut parts, mut roots, mut capped, mut hold_cases) = (0, 0, 0, 0);
        for case in 0..160 {
            let n_out = 1 + below(&mut rng, 2);
            let n_hold = below(&mut rng, 3);
            let flat = below(&mut rng, 6) == 0;
            let t = oracle_table(&mut rng, n_out + n_hold, n_out, flat);
            // Group `gi` is an outlier group for `i < n_out`, a hold-out
            // group otherwise; a group that drew no row is left out.
            let labels = t.cat(0).unwrap();
            let spec = |i: usize| {
                let code = labels.code_of(&format!("g{i}"))?;
                let rows = (0..t.len() as u32).filter(|&r| labels.codes()[r as usize] == code);
                Some(GroupSpec { rows: rows.collect(), error: 1.0 })
            };
            let outs: Vec<GroupSpec> = (0..n_out).filter_map(spec).collect();
            let holds: Vec<GroupSpec> = (n_out..n_out + n_hold).filter_map(spec).collect();
            if outs.is_empty() {
                continue;
            }
            let agg = aggs[below(&mut rng, aggs.len())];
            let params = InfluenceParams { lambda: 0.5, c: [0.0, 0.5, 1.0][below(&mut rng, 3)] };
            let scorer = |cache: &Arc<InfluenceCache>| {
                Scorer::new(&t, agg, 4, outs.clone(), holds.clone(), params)
                    .unwrap()
                    .with_cache(cache.clone())
            };
            let (cache, cache_ref) =
                (Arc::new(InfluenceCache::new()), Arc::new(InfluenceCache::new()));
            let (s, s_ref) = (scorer(&cache), scorer(&cache_ref));
            let sampling = (below(&mut rng, 3) == 0).then_some(SamplingConfig {
                min_rows_to_sample: 50,
                min_rate: 0.2,
                seed: case,
            });
            let cfg = DtConfig { sampling, ..dt_cfg() };
            let d = domains_of(&t).unwrap();
            let dt = DtPartitioner::new(&s, vec![1, 2, 3], d.clone(), cfg.clone());
            let dt_ref = DtPartitioner::new(&s_ref, vec![1, 2, 3], d, cfg);
            let mut diag = DtDiag::default();
            let (leaves, pieces) = dt.carve_leaves(&mut diag).unwrap();
            let got = dt.finalize(&leaves, &pieces).unwrap();
            let flat_pieces: Vec<Predicate> = pieces.concat();
            let want = finalize_by_masks(&dt_ref, &flat_pieces);

            assert_eq!(got.len(), want.len(), "case {case}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.predicate, b.predicate, "case {case}");
                let what = format!("case {case}, {:?}", a.predicate);
                assert_eq!(a.influence.to_bits(), b.influence.to_bits(), "{what}");
                let bits = |p: &ScoredPredicate| -> Vec<(u64, u64)> {
                    let st = p.stats.as_ref().unwrap();
                    (st.outlier.iter().chain(&st.holdout))
                        .map(|g| (g.n.to_bits(), g.rep_value.to_bits()))
                        .collect()
                };
                assert_eq!(bits(a), bits(b), "{what}");
                assert_eq!(
                    cache.pair_bits(&a.predicate),
                    cache_ref.pair_bits(&b.predicate),
                    "{what}"
                );
            }
            assert_eq!(cache.len(), cache_ref.len(), "case {case}");
            assert_eq!(s.scorer_calls(), s_ref.scorer_calls(), "case {case}");
            parts += got.len();
            hold_cases += usize::from(!holds.is_empty());
            if leaves.len() == 1 && leaves[0].pred.is_all() {
                roots += 1;
                // The hold-out leaves `combine` carves with: those at or
                // above the mean of their mean |influence|.
                if !holds.is_empty() {
                    let hold_side = dt.build_side(false).unwrap();
                    let cols = dt.borrow_cols().unwrap();
                    let mut rng = StdRng::seed_from_u64(dt.cfg.sampling.map_or(0, |s| s.seed));
                    let mut sink = 0.0;
                    dt.grow(&dt.build_side(true).unwrap(), Vec::new(), &cols, &mut rng, &mut sink);
                    let leaves = dt.grow(&hold_side, Vec::new(), &cols, &mut rng, &mut sink);
                    let means: Vec<f64> =
                        leaves.iter().map(|n| mean_abs_influence(&hold_side, n)).collect();
                    let global = means.iter().sum::<f64>() / means.len() as f64;
                    let hold: Vec<Predicate> = (leaves.iter().zip(&means))
                        .filter(|(_, &m)| m >= global)
                        .map(|(n, _)| n.pred.clone())
                        .collect();
                    capped += usize::from(carve_is_capped(&dt, &Predicate::all(), &hold));
                }
            }
        }
        assert!(parts > 5000, "only {parts} partitions compared");
        assert!(roots > 20 && capped > 2, "{roots} root-leaf cases, {capped} capped");
        assert!(hold_cases > 80, "only {hold_cases} cases with hold-outs");
    }

    /// The whole tree is its root leaf, `Predicate::all()`: with no
    /// hold-outs the root is the one partition and selects every labeled
    /// row, none of the leaf's padding; with hold-outs the carved pieces
    /// score as the mask path scores them.
    #[test]
    fn root_leaf_selects_every_labeled_row_and_no_padding() {
        let schema =
            Schema::new(vec![Field::disc("g"), Field::cont("x"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        // 70 outlier rows of one value, so their tree is its root, and 45
        // hold-out rows of spread values, so theirs splits and carves the
        // root: neither group's size is a multiple of 64.
        for i in 0..115 {
            let x = [f64::NAN, 0.0, -0.0, f64::INFINITY, i as f64][i % 5];
            let (g, v) = if i % 23 < 14 { ("o", 2.0) } else { ("h", (i % 7) as f64) };
            b.push_row(vec![g.into(), x.into(), v.into()]).unwrap();
        }
        let t = b.build();
        let g = group_by(&t, &[0]).unwrap();
        for holdouts in [false, true] {
            let hold = if holdouts {
                vec![GroupSpec { rows: g.rows(1).to_vec(), error: 1.0 }]
            } else {
                vec![]
            };
            let mk = || {
                Scorer::new(
                    &t,
                    &Avg,
                    2,
                    vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
                    hold.clone(),
                    InfluenceParams { lambda: 0.5, c: 0.5 },
                )
                .unwrap()
            };
            let (s, s_ref) = (mk(), mk());
            let d = domains_of(&t).unwrap();
            let dt = DtPartitioner::new(&s, vec![1], d.clone(), dt_cfg());
            let mut diag = DtDiag::default();
            let (leaves, pieces) = dt.carve_leaves(&mut diag).unwrap();
            assert_eq!(leaves.len(), 1);
            assert!(leaves[0].pred.is_all());
            let got = dt.finalize(&leaves, &pieces).unwrap();
            let want = finalize_by_masks(
                &DtPartitioner::new(&s_ref, vec![1], d, dt_cfg()),
                &pieces.concat(),
            );
            if !holdouts {
                assert_eq!(got.len(), 1);
                let st = got[0].stats.as_ref().unwrap();
                assert_eq!(st.outlier[0].n, s.outlier_rows(0).len() as f64);
            }
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(
                    (&a.predicate, a.influence.to_bits()),
                    (&b.predicate, b.influence.to_bits())
                );
                assert_eq!(a.stats, b.stats);
            }
        }
    }

    #[test]
    fn threshold_curve_is_exported() {
        let c = ThresholdCurve::new(0.05, 0.25, 0.5, 0.0, 1.0);
        assert!(c.omega(1.0) < c.omega(0.0));
    }

    /// A uniform draw from `0..n`.
    fn below(rng: &mut StdRng, n: usize) -> usize {
        rng.random_range(0..n)
    }

    /// A random subset of `pool` in random order, about `share` of it.
    fn shuffled_subset(rng: &mut StdRng, pool: &[u32], share: usize) -> Vec<u32> {
        let mut out: Vec<u32> = pool.iter().copied().filter(|_| below(rng, 10) < share).collect();
        for i in (1..out.len()).rev() {
            out.swap(i, below(rng, i + 1));
        }
        out
    }

    #[test]
    fn router_sends_left_exactly_what_the_clause_kernels_select() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 1e300, -1e-300];
        for _ in 0..300 {
            let n = 1 + below(&mut rng, 200);
            let vals: Vec<f64> = (0..n)
                .map(|_| match below(&mut rng, 4) {
                    0 => special[below(&mut rng, special.len())],
                    // Few distinct values, so thresholds tie with rows.
                    _ => below(&mut rng, 12) as f64 * 0.5 - 3.0,
                })
                .collect();
            let n_codes = 1 + below(&mut rng, 100);
            let codes: Vec<u32> = (0..n).map(|_| below(&mut rng, n_codes) as u32).collect();
            let x = if below(&mut rng, 4) == 0 {
                special[below(&mut rng, special.len())]
            } else {
                vals[below(&mut rng, n)]
            };
            // Left sets below the top code, so larger codes occur.
            let top = 1 + below(&mut rng, n_codes);
            let left: BTreeSet<u32> = (0..top as u32).filter(|_| below(&mut rng, 3) == 0).collect();
            let cols = [(0, Col::Num(&vals)), (1, Col::Cat(&codes))];
            let num = Column::Num(vals.clone());
            let dict = (0..n_codes).map(|c| format!("c{c}")).collect();
            let cat =
                Column::Cat(scorpion_table::CatColumn::from_parts(codes.clone(), dict).unwrap());
            let cases = [
                (
                    Split::Cont { attr: 0, x },
                    Clause::range(0, f64::NEG_INFINITY, x).eval_mask(&num),
                ),
                (
                    Split::Disc { attr: 1, left: left.clone() },
                    Clause::in_set(1, left.iter().copied()).eval_mask(&cat),
                ),
            ];
            for (split, mask) in cases {
                let (router, mask) = (Router::new(&cols, &split), mask.unwrap());
                for row in 0..n as u32 {
                    assert_eq!(router.goes_left(row), mask.contains(row), "row {row}, x {x:?}");
                }
            }
        }
    }

    /// The split metric, walked row by row: per group, the size-weighted
    /// mean of the child variances, each child summed in sample order;
    /// combined across groups with `max` (§6.1.3). Returns
    /// `(both_children_nonempty, metric)`.
    fn combined_metric(
        side: &SideData,
        node: &Node,
        goes_left: impl Fn(usize, u32) -> bool,
    ) -> (bool, f64) {
        let mut metric = 0.0f64;
        let (mut tot_l, mut tot_r) = (0usize, 0usize);
        for (g, slice) in node.slices.iter().enumerate() {
            let infs = &side.groups[g].infs;
            let (mut nl, mut sl, mut ql) = (0.0, 0.0, 0.0);
            let (mut nr, mut sr, mut qr) = (0.0, 0.0, 0.0);
            for &p in &slice.sample {
                let v = infs[p as usize];
                if goes_left(g, p) {
                    nl += 1.0;
                    sl += v;
                    ql += v * v;
                } else {
                    nr += 1.0;
                    sr += v;
                    qr += v * v;
                }
            }
            tot_l += nl as usize;
            tot_r += nr as usize;
            let var = |n: f64, s: f64, q: f64| {
                if n < 1.0 {
                    0.0
                } else {
                    (q / n - (s / n) * (s / n)).max(0.0)
                }
            };
            let n = nl + nr;
            if n > 0.0 {
                let g_metric = (nl * var(nl, sl, ql) + nr * var(nr, sr, qr)) / n;
                metric = metric.max(g_metric);
            }
        }
        (tot_l > 0 && tot_r > 0, metric)
    }

    /// A node over table rows `0..n_rows`: 1–4 groups, each a shuffled
    /// subset of the rows with influences drawn by `inf`, and a sample of
    /// each group's positions in random order.
    fn random_node(
        rng: &mut StdRng,
        n_rows: usize,
        mut inf: impl FnMut(&mut StdRng) -> f64,
    ) -> (SideData, Node) {
        let all_rows: Vec<u32> = (0..n_rows as u32).collect();
        let (mut groups, mut slices) = (Vec::new(), Vec::new());
        for _ in 0..1 + below(rng, 4) {
            let rows = shuffled_subset(rng, &all_rows, 7);
            let infs: Vec<f64> = rows.iter().map(|_| inf(rng)).collect();
            let pos: Vec<u32> = (0..rows.len() as u32).collect();
            slices.push(Slice { sample: shuffled_subset(rng, &pos, 8), pos });
            groups.push(SideGroup { rows, infs });
        }
        let side = SideData { groups, curve: ThresholdCurve::new(0.05, 0.25, 0.5, 0.0, 1.0) };
        (side, Node { pred: Predicate::all(), slices, riders: Vec::new(), depth: 0 })
    }

    /// Column values with ties, ±NaN, ±∞ and ±0.0.
    fn tied_values(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let special = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        (0..n)
            .map(|_| match below(rng, 4) {
                0 => special[below(rng, special.len())],
                _ => below(rng, 12) as f64 * 0.5 - 3.0,
            })
            .collect()
    }

    #[test]
    fn continuous_buckets_sum_what_the_router_sends_left() {
        // `"-nan".parse::<f64>()`, as a CSV cell reads, is a NaN that a
        // `total_cmp` sort puts first.
        assert!("-nan".parse::<f64>().unwrap().is_sign_negative());
        let mut rng = StdRng::seed_from_u64(0xB0C);
        let mut checked = 0;
        for case in 0..300 {
            let n_rows = 1 + below(&mut rng, 300);
            let vals = tied_values(&mut rng, n_rows);
            // Dyadic influences, so every sum below is exact in any order.
            let (side, node) = random_node(&mut rng, n_rows, |r| below(r, 9) as f64 * 0.25 - 1.0);
            let cols = [(0, Col::Num(&vals))];
            let mut scratch = SplitScratch::default();
            scratch.gather(&side, &node);
            let k = scratch.cont_buckets(&vals);
            let cands = scratch.cands;
            assert!(cands[..k].windows(2).all(|w| w[0] < w[1]), "case {case}: {cands:?}");
            let mut visited = 0;
            scratch.scan(k, |j, left, _| {
                let router = Router::new(&cols, &Split::Cont { attr: 0, x: cands[j] });
                for (g, (slice, group)) in node.slices.iter().zip(&side.groups).enumerate() {
                    let mut want = [0.0; 3];
                    for &p in &slice.sample {
                        if router.goes_left(group.rows[p as usize]) {
                            add_row(&mut want, group.infs[p as usize]);
                        }
                    }
                    assert_eq!(left[g], want, "case {case}, x {:?}, group {g}", cands[j]);
                }
                visited += 1;
            });
            assert_eq!(visited, k, "case {case}");
            checked += k;
        }
        assert!(checked > 1000, "only {checked} candidates checked");
    }

    /// The candidates the retired evaluators tried, in order: per
    /// continuous attribute, the quantiles of a full `total_cmp` sort of
    /// the pooled sample; per discrete one, the prefixes of the admitted
    /// codes by pooled mean.
    fn oracle_candidates(
        dt: &DtPartitioner<'_, '_>,
        side: &SideData,
        node: &Node,
        cols: &[(usize, Col<'_>)],
    ) -> Vec<Split> {
        let mut out = Vec::new();
        for (attr, col) in cols {
            match col {
                Col::Num(vals) => {
                    let mut xs: Vec<f64> = (node.slices.iter().zip(&side.groups))
                        .flat_map(|(s, g)| {
                            s.sample.iter().map(|&p| vals[g.rows[p as usize] as usize])
                        })
                        .collect();
                    if xs.len() < 2 {
                        continue;
                    }
                    xs.sort_by(f64::total_cmp);
                    let (lo, hi) = (xs[0], xs[xs.len() - 1]);
                    if lo == hi {
                        continue;
                    }
                    let mut seen = f64::NAN;
                    for q in 1..=N_SPLIT_CANDIDATES {
                        let x = xs[(xs.len() * q / (N_SPLIT_CANDIDATES + 1)).min(xs.len() - 1)];
                        if x <= lo || x > hi || x == seen {
                            continue;
                        }
                        seen = x;
                        out.push(Split::Cont { attr: *attr, x });
                    }
                }
                Col::Cat(codes) => out.extend(
                    linear_prefixes(dt, side, node, *attr, codes)
                        .into_iter()
                        .map(|left| Split::Disc { attr: *attr, left }),
                ),
            }
        }
        out
    }

    fn same_split(a: &Split, b: &Split) -> bool {
        match (a, b) {
            (Split::Cont { attr: a1, x: x1 }, Split::Cont { attr: a2, x: x2 }) => {
                a1 == a2 && x1.to_bits() == x2.to_bits()
            }
            (Split::Disc { attr: a1, left: l1 }, Split::Disc { attr: a2, left: l2 }) => {
                a1 == a2 && l1 == l2
            }
            _ => false,
        }
    }

    #[test]
    fn one_evaluator_picks_the_least_oracle_metric() {
        let t = planted_2d(10);
        let s = scorer(&t);
        let d = domains_of(&t).unwrap();
        let mut rng = StdRng::seed_from_u64(0x0A7C);
        let (mut split, mut kept) = (0, 0);
        for case in 0..400 {
            let cfg = DtConfig { max_discrete_splits: 1 + below(&mut rng, 20), ..dt_cfg() };
            let dt = DtPartitioner::new(&s, vec![], d.clone(), cfg);
            let n_rows = 1 + below(&mut rng, 300);
            let tied = tied_values(&mut rng, n_rows);
            let spread: Vec<f64> =
                (0..n_rows).map(|_| below(&mut rng, 1000) as f64 * 0.0137 - 4.0).collect();
            let n_codes = 1 + below(&mut rng, 40);
            let codes: Vec<u32> = (0..n_rows).map(|_| below(&mut rng, n_codes) as u32).collect();
            // One influence for every row in a sixth of the nodes, so no
            // split helps; otherwise tied influences half the time and
            // spread ones the rest.
            let flat = below(&mut rng, 6) == 0;
            let (side, mut node) = random_node(&mut rng, n_rows, |r| match below(r, 2) {
                _ if flat => 0.7,
                0 => [0.1, -2.7, 3.3][below(r, 3)],
                _ => below(r, 1000) as f64 * 0.0371 - 15.0,
            });
            if below(&mut rng, 2) == 0 {
                let admitted: BTreeSet<u32> =
                    (0..n_codes as u32).filter(|_| below(&mut rng, 3) > 0).collect();
                node.pred = Predicate::all().with_clause(Clause::In { attr: 1, codes: admitted });
            }
            let cols = [(0, Col::Num(&tied)), (1, Col::Cat(&codes)), (2, Col::Num(&spread))];
            let parent = combined_metric(&side, &node, |_, _| true).1;
            let mut scratch = SplitScratch::default();
            scratch.gather(&side, &node);
            let own = split_metric(&scratch.whole, &scratch.whole).1;
            assert_eq!(own.to_bits(), parent.to_bits(), "case {case}");

            let cands = oracle_candidates(&dt, &side, &node, &cols);
            // The quantiles come out bit for bit; only NaN ones, which no
            // row is left of, are dropped.
            for (attr, col) in &cols {
                if let Col::Num(vals) = col {
                    let k = scratch.cont_buckets(vals);
                    let want: Vec<u64> = (cands.iter())
                        .filter_map(|c| match c {
                            Split::Cont { attr: a, x } if a == attr && !x.is_nan() => {
                                Some(x.to_bits())
                            }
                            _ => None,
                        })
                        .collect();
                    let got: Vec<u64> = scratch.cands[..k].iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "case {case}, attribute {attr}");
                }
            }
            let oracle = |c: &Split| {
                let router = Router::new(&cols, c);
                combined_metric(&side, &node, |g, p| {
                    router.goes_left(side.groups[g].rows[p as usize])
                })
            };
            let scored: Vec<(bool, f64)> = cands.iter().map(oracle).collect();
            let least = (scored.iter())
                .filter(|(ok, _)| *ok)
                .map(|&(_, m)| m)
                .fold(f64::INFINITY, f64::min);
            let tol = 1e-9
                * (node.slices.iter().zip(&side.groups))
                    .filter(|(s, _)| !s.sample.is_empty())
                    .map(|(s, g)| {
                        let q: f64 = s.sample.iter().map(|&p| g.infs[p as usize].powi(2)).sum();
                        q / s.sample.len() as f64
                    })
                    .fold(0.0, f64::max);
            match dt.best_split(&node, &cols, &mut scratch) {
                Some((metric, chosen)) => {
                    let i = (cands.iter().position(|c| same_split(c, &chosen)))
                        .unwrap_or_else(|| panic!("case {case}: the split is no candidate"));
                    let (ok, m) = scored[i];
                    assert!(ok, "case {case}: a child is empty");
                    assert!(m - least <= tol, "case {case}: {m} against the least {least}");
                    assert!(m < parent + tol, "case {case}: {m} against the parent {parent}");
                    assert!(
                        (metric - m).abs() <= tol,
                        "case {case}: reported {metric}, oracle {m}"
                    );
                    split += 1;
                }
                None => {
                    assert!(
                        least >= parent - tol,
                        "case {case}: {least} beats the parent {parent}"
                    );
                    kept += 1;
                }
            }
        }
        assert!(split > 100 && kept > 20, "{split} nodes split, {kept} kept");
    }

    /// The retired `draw`: a partial Fisher–Yates over a copy of `pool`.
    fn draw_from_copy(pool: &[u32], k: usize, rng: &mut StdRng) -> Vec<u32> {
        let k = k.min(pool.len());
        let mut scratch = pool.to_vec();
        for i in 0..k {
            let j = rng.random_range(i..scratch.len());
            scratch.swap(i, j);
        }
        scratch.truncate(k);
        scratch
    }

    /// The retired `top_up`: the unsampled positions are `pos` filtered
    /// through a `HashSet` of the sample.
    fn top_up_hashed(
        sample: &mut Vec<u32>,
        pos: &[u32],
        target_n: f64,
        min_rate: f64,
        rng: &mut StdRng,
    ) {
        if pos.is_empty() {
            return;
        }
        let target = (target_n.max(min_rate * pos.len() as f64).ceil() as usize).min(pos.len());
        if sample.len() >= target {
            return;
        }
        let have: std::collections::HashSet<u32> = sample.iter().copied().collect();
        let unsampled: Vec<u32> = pos.iter().copied().filter(|p| !have.contains(p)).collect();
        let extra = draw_from_copy(&unsampled, target - sample.len(), rng);
        sample.extend(extra);
    }

    #[test]
    fn top_up_draws_what_the_hashed_top_up_drew() {
        use rand::RngCore;
        let mut gen = StdRng::seed_from_u64(11);
        let mut drew = 0;
        for case in 0..500u64 {
            let universe: Vec<u32> = (0..below(&mut gen, 400) as u32).collect();
            let pos: Vec<u32> =
                universe.iter().copied().filter(|_| below(&mut gen, 10) < 6).collect();
            let share = below(&mut gen, 11);
            let sample = shuffled_subset(&mut gen, &pos, share);
            let target_n = below(&mut gen, pos.len() + 20) as f64 * 1.1;
            let min_rate = [0.0, 0.05, 0.3, 1.0][below(&mut gen, 4)];
            let (mut new, mut old) = (sample.clone(), sample.clone());
            let mut rng_new = StdRng::seed_from_u64(case);
            let mut rng_old = rng_new.clone();
            top_up(&mut new, &pos, target_n, min_rate, &mut rng_new);
            top_up_hashed(&mut old, &pos, target_n, min_rate, &mut rng_old);
            assert_eq!(new, old, "case {case}");
            assert_eq!(rng_new.next_u64(), rng_old.next_u64(), "case {case}: RNG diverged");
            drew += usize::from(new.len() > sample.len());
        }
        assert!(drew > 100, "only {drew} cases drew");
    }

    /// The retired discrete split candidates: codes found by linear
    /// search, membership tested in `BTreeSet`s, and each prefix of the
    /// admitted codes by pooled mean influence.
    fn linear_prefixes(
        dt: &DtPartitioner<'_, '_>,
        side: &SideData,
        node: &Node,
        attr: usize,
        codes: &[u32],
    ) -> Vec<BTreeSet<u32>> {
        let allowed = match node.pred.clause(attr) {
            Some(Clause::In { codes, .. }) => Some(codes.clone()),
            _ => None,
        };
        let mut acc: Vec<(u32, f64, f64)> = Vec::new();
        for (g, slice) in node.slices.iter().enumerate() {
            for &p in &slice.sample {
                let code = codes[side.groups[g].rows[p as usize] as usize];
                if let Some(c) = &allowed {
                    if !c.contains(&code) {
                        continue;
                    }
                }
                match acc.iter_mut().find(|(k, _, _)| *k == code) {
                    Some(e) => {
                        e.1 += side.groups[g].infs[p as usize];
                        e.2 += 1.0;
                    }
                    None => acc.push((code, side.groups[g].infs[p as usize], 1.0)),
                }
            }
        }
        if acc.len() < 2 {
            return Vec::new();
        }
        acc.sort_by(|a, b| (b.1 / b.2).total_cmp(&(a.1 / a.2)));
        let max_j = (acc.len() - 1).min(dt.cfg.max_discrete_splits);
        (1..=max_j).map(|j| acc[..j].iter().map(|e| e.0).collect()).collect()
    }

    /// The retired discrete split search: the first of the
    /// [`linear_prefixes`] of least row-by-row metric below `parent`.
    fn disc_split_linear(
        dt: &DtPartitioner<'_, '_>,
        side: &SideData,
        node: &Node,
        attr: usize,
        codes: &[u32],
        parent: f64,
    ) -> Option<(f64, Split)> {
        let mut best: Option<(f64, Split)> = None;
        for left in linear_prefixes(dt, side, node, attr, codes) {
            let (ok, metric) = combined_metric(side, node, |g, p| {
                left.contains(&codes[side.groups[g].rows[p as usize] as usize])
            });
            if ok && metric < parent && best.as_ref().is_none_or(|(m, _)| metric < *m) {
                best = Some((metric, Split::Disc { attr, left }));
            }
        }
        best
    }

    #[test]
    fn dense_discrete_search_picks_the_linear_search_split() {
        let t = planted_2d(10);
        let s = scorer(&t);
        let d = domains_of(&t).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut found = 0;
        for case in 0..400 {
            let cfg = DtConfig { max_discrete_splits: 1 + below(&mut rng, 20), ..dt_cfg() };
            let dt = DtPartitioner::new(&s, vec![], d.clone(), cfg);
            let n_rows = 1 + below(&mut rng, 300);
            let n_codes = 1 + below(&mut rng, 90);
            let codes: Vec<u32> = (0..n_rows).map(|_| below(&mut rng, n_codes) as u32).collect();
            let all_rows: Vec<u32> = (0..n_rows as u32).collect();
            let (mut groups, mut slices) = (Vec::new(), Vec::new());
            for _ in 0..1 + below(&mut rng, 3) {
                let rows = shuffled_subset(&mut rng, &all_rows, 7);
                // Few distinct influences, so code means tie.
                let infs: Vec<f64> =
                    rows.iter().map(|_| below(&mut rng, 5) as f64 * 0.25 - 0.5).collect();
                let pos: Vec<u32> = (0..rows.len() as u32).collect();
                slices.push(Slice { sample: shuffled_subset(&mut rng, &pos, 8), pos });
                groups.push(SideGroup { rows, infs });
            }
            let side = SideData { groups, curve: ThresholdCurve::new(0.05, 0.25, 0.5, 0.0, 1.0) };
            let pred = if below(&mut rng, 2) == 0 {
                Predicate::all()
            } else {
                let admitted: BTreeSet<u32> =
                    (0..n_codes as u32).filter(|_| below(&mut rng, 3) > 0).collect();
                Predicate::all().with_clause(Clause::In { attr: 1, codes: admitted })
            };
            let node = Node { pred, slices, riders: Vec::new(), depth: 0 };
            let parent = combined_metric(&side, &node, |_, _| true).1;
            let mut scratch = SplitScratch::default();
            scratch.gather(&side, &node);
            let dense = dt.best_split(&node, &[(1, Col::Cat(&codes))], &mut scratch);
            let linear = disc_split_linear(&dt, &side, &node, 1, &codes, parent);
            match (dense, linear) {
                (None, None) => {}
                (
                    Some((m1, Split::Disc { left: l1, .. })),
                    Some((m2, Split::Disc { left: l2, .. })),
                ) => {
                    assert_eq!(m1.to_bits(), m2.to_bits(), "case {case}");
                    assert_eq!(l1, l2, "case {case}");
                    found += 1;
                }
                _ => panic!("case {case}: the searches disagree on whether to split"),
            }
        }
        assert!(found > 100, "only {found} cases split");
    }
}
