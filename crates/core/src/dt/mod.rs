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
//! 4. The outlier partitioning is carved along the influential hold-out
//!    partitions (§6.1.4) so that predicates that would perturb hold-outs
//!    are separated from those that only touch outliers.
//!
//! The resulting partitions are scored exactly, tagged with the per-group
//! statistics the Merger's cached-tuple approximation needs (§6.3), and
//! handed to the [`crate::merger::Merger`].

mod threshold;

pub use threshold::ThresholdCurve;

use crate::config::DtConfig;
use crate::error::Result;
use crate::merger::{MergeDiag, Merger};
use crate::result::{GroupStat, PartitionStats, ScoredPredicate};
use crate::scorer::Scorer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scorpion_obs::span;
use scorpion_table::{AttrDomain, Clause, Column, Predicate, RowMask};
use std::collections::BTreeSet;

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
#[derive(Clone)]
struct Slice {
    pos: Vec<u32>,
    sample: Vec<u32>,
}

/// A tree node spanning all groups of a side.
struct Node {
    pred: Predicate,
    slices: Vec<Slice>,
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
        let phases = self.scorer.phases();
        let mut diag = DtDiag::default();
        let cols = self.borrow_cols()?;
        let mut rng = StdRng::seed_from_u64(self.cfg.sampling.map(|s| s.seed).unwrap_or(0));

        // Outlier side.
        let out_side = phases.time("dt.influences", || self.build_side(true))?;
        let out_leaves = phases
            .time("dt.grow", || self.grow(&out_side, &cols, &mut rng, &mut diag.sampled_fraction));
        diag.outlier_leaves = out_leaves.len();

        // Hold-out side (if any).
        let mut hold_preds: Vec<(Predicate, f64)> = Vec::new();
        if self.scorer.n_holdouts() > 0 {
            let hold_side = phases.time("dt.influences", || self.build_side(false))?;
            let mut dummy = 0.0;
            let hold_leaves =
                phases.time("dt.grow", || self.grow(&hold_side, &cols, &mut rng, &mut dummy));
            diag.holdout_leaves = hold_leaves.len();
            hold_preds = hold_leaves
                .iter()
                .map(|n| (n.pred.clone(), mean_abs_influence(&hold_side, n)))
                .collect();
        }

        // §6.1.4: carve outlier partitions along influential hold-out
        // partitions.
        let combined = phases.time("dt.carve", || self.combine(&out_leaves, &hold_preds));
        diag.partitions = combined.len();

        let mut scored = phases.time("dt.finalize", || self.finalize(combined))?;
        // Bound the Merger's (quadratic) input; the ranking is exact, so
        // only the weakest partitions are dropped.
        scored.truncate(self.cfg.max_partitions.max(1));
        Ok((scored, diag))
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
            curve: ThresholdCurve::new(
                self.cfg.tau_min,
                self.cfg.tau_max,
                self.cfg.inflection,
                inf_l,
                inf_u,
            ),
        })
    }

    /// Initial uniform sampling rate (§6.1.2):
    /// `min{ sr | 1 − (1−ε)^(sr·|D|) ≥ 0.95 }`.
    fn initial_rate(&self, group_len: usize) -> f64 {
        let Some(s) = self.cfg.sampling else { return 1.0 };
        if group_len < s.min_rows_to_sample || group_len == 0 {
            return 1.0;
        }
        let rate = (0.05f64).ln() / (group_len as f64 * (1.0 - s.epsilon).ln());
        rate.max(s.min_rate).min(1.0)
    }

    /// Grows one side's tree and returns its leaves.
    fn grow(
        &self,
        side: &SideData,
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
                let sample = if rate >= 1.0 {
                    pos.clone()
                } else {
                    draw(&pos, ((rate * pos.len() as f64).ceil() as usize).max(1), rng)
                };
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
        let min_size = self.cfg.min_partition_size.min((root_total / 4).max(2));
        let phases = self.scorer.phases();
        let mut leaves = Vec::new();
        let mut stack = vec![Node { pred: Predicate::all(), slices, depth: 0 }];
        while let Some(node) = stack.pop() {
            // Leaf budget: on noisy data the influence spread never drops
            // under the threshold and the tree would grow to the depth
            // limit; finish the remaining frontier as leaves.
            if leaves.len() + stack.len() + 1 >= self.cfg.max_leaves {
                leaves.push(node);
                continue;
            }
            if self.should_stop(side, &node, min_size) {
                leaves.push(node);
                continue;
            }
            match phases.time("dt.split", || self.best_split(side, cols, &node)) {
                Some(split) => {
                    let (l, r) = phases
                        .time("dt.expand", || self.apply_split(side, cols, node, &split, rng));
                    stack.push(l);
                    stack.push(r);
                }
                None => leaves.push(node),
            }
        }
        leaves
    }

    fn should_stop(&self, side: &SideData, node: &Node, min_size: usize) -> bool {
        let total_sample: usize = node.slices.iter().map(|s| s.sample.len()).sum();
        if total_sample < min_size || node.depth >= self.cfg.max_depth {
            return true;
        }
        let mut sigma_max = 0.0f64;
        let mut inf_max = f64::NEG_INFINITY;
        for (g, slice) in node.slices.iter().enumerate() {
            let infs = &side.groups[g].infs;
            let (mut n, mut sum, mut sumsq) = (0.0, 0.0, 0.0);
            for &p in &slice.sample {
                let v = infs[p as usize];
                n += 1.0;
                sum += v;
                sumsq += v * v;
                inf_max = inf_max.max(v);
            }
            if n >= 2.0 {
                let var = (sumsq / n - (sum / n) * (sum / n)).max(0.0);
                sigma_max = sigma_max.max(var.sqrt());
            }
        }
        if !inf_max.is_finite() {
            return true;
        }
        sigma_max <= side.curve.threshold(inf_max)
    }

    /// Finds the best split, combining per-group error metrics with `max`
    /// (§6.1.3). Returns `None` when no split improves on the parent.
    fn best_split(&self, side: &SideData, cols: &[(usize, Col<'_>)], node: &Node) -> Option<Split> {
        let parent = combined_metric(side, node, |_, _| true).1;
        let mut best: Option<(f64, Split)> = None;
        for (attr, col) in cols {
            match col {
                Col::Num(vals) => {
                    // Sorted per-(node, attr) projection: each group's
                    // sampled (value, influence) pairs are sorted by value
                    // once, with prefix sums of influence and squared
                    // influence, so every candidate threshold below costs
                    // one binary search per group instead of a pass over
                    // the node's rows.
                    let mut projs: Vec<SortedProj> = Vec::with_capacity(node.slices.len());
                    let mut xs: Vec<f64> = Vec::new();
                    for (g, slice) in node.slices.iter().enumerate() {
                        let pairs: Vec<(f64, f64)> = slice
                            .sample
                            .iter()
                            .map(|&p| {
                                (
                                    vals[side.groups[g].rows[p as usize] as usize],
                                    side.groups[g].infs[p as usize],
                                )
                            })
                            .collect();
                        let proj = SortedProj::new(pairs);
                        xs.extend_from_slice(&proj.values);
                        projs.push(proj);
                    }
                    if xs.len() < 2 {
                        continue;
                    }
                    // Quantile candidates over the node's pooled sample.
                    xs.sort_by(f64::total_cmp);
                    let (lo, hi) = (xs[0], xs[xs.len() - 1]);
                    if lo == hi {
                        continue;
                    }
                    let k = self.cfg.n_split_candidates.max(1);
                    let mut seen = f64::NAN;
                    for q in 1..=k {
                        let x = xs[(xs.len() * q / (k + 1)).min(xs.len() - 1)];
                        if x <= lo || x > hi || x == seen {
                            continue;
                        }
                        seen = x;
                        let (ok, metric) = sorted_metric(&projs, x);
                        if ok && metric < parent && best.as_ref().is_none_or(|(m, _)| metric < *m) {
                            best = Some((metric, Split::Cont { attr: *attr, x }));
                        }
                    }
                }
                Col::Cat(codes) => {
                    // Order codes by pooled mean influence, try prefix
                    // splits.
                    let allowed = self.allowed_codes(node, *attr);
                    let mut acc: Vec<(u32, f64, f64)> = Vec::new(); // (code, sum, n)
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
                        continue;
                    }
                    acc.sort_by(|a, b| (b.1 / b.2).total_cmp(&(a.1 / a.2)));
                    let max_j = (acc.len() - 1).min(self.cfg.max_discrete_splits);
                    let mut left: BTreeSet<u32> = BTreeSet::new();
                    for item in acc.iter().take(max_j) {
                        left.insert(item.0);
                        let (ok, metric) = combined_metric(side, node, |g, p| {
                            left.contains(&codes[side.groups[g].rows[p as usize] as usize])
                        });
                        if ok && metric < parent && best.as_ref().is_none_or(|(m, _)| metric < *m) {
                            best = Some((metric, Split::Disc { attr: *attr, left: left.clone() }));
                        }
                    }
                }
            }
        }
        best.map(|(_, s)| s)
    }

    /// The codes the node's predicate admits on `attr` (`None` =
    /// unconstrained).
    fn allowed_codes(&self, node: &Node, attr: usize) -> Option<BTreeSet<u32>> {
        match node.pred.clause(attr) {
            Some(Clause::In { codes, .. }) => Some(codes.clone()),
            _ => None,
        }
    }

    /// Splits `node`, partitioning full and sampled positions and applying
    /// the §6.1.2 stratified resampling to the children.
    ///
    /// For nodes spanning enough rows, the chosen split is compiled
    /// once into a left-side [`scorpion_table::RowMask`] via the clause
    /// kernels (`[−∞, x)` for continuous splits, the left code set for
    /// discrete ones) and row routing is a bit test. Small nodes of
    /// large tables skip the full-column kernel pass and route through
    /// direct value compares instead — the kernel touches every table
    /// row, which would dwarf the node's own work deep in the tree.
    fn apply_split(
        &self,
        side: &SideData,
        cols: &[(usize, Col<'_>)],
        node: Node,
        split: &Split,
        rng: &mut StdRng,
    ) -> (Node, Node) {
        let table = self.scorer.table();
        let node_rows: usize = node.slices.iter().map(|s| s.pos.len()).sum();
        let left_mask = if node_rows >= table.len() / 64 {
            let left_clause = match split {
                Split::Cont { attr, x } => Clause::range(*attr, f64::NEG_INFINITY, *x),
                Split::Disc { attr, left } => Clause::in_set(*attr, left.iter().copied()),
            };
            table.column(left_clause.attr()).ok().and_then(|col| left_clause.eval_mask(col))
        } else {
            None
        };
        let table_col = |attr: usize| {
            cols.iter().find(|(a, _)| *a == attr).map(|(_, c)| c).expect("split attr is bound")
        };
        let goes_left = |g: usize, p: u32| -> bool {
            let row = side.groups[g].rows[p as usize];
            if let Some(m) = &left_mask {
                return m.contains(row);
            }
            match split {
                Split::Cont { attr, x } => match table_col(*attr) {
                    Col::Num(vals) => vals[row as usize] < *x,
                    Col::Cat(_) => false,
                },
                Split::Disc { attr, left } => match table_col(*attr) {
                    Col::Cat(codes) => left.contains(&codes[row as usize]),
                    Col::Num(_) => false,
                },
            }
        };

        let (lp, rp) = self.child_predicates(&node.pred, split);
        let mut lslices = Vec::with_capacity(node.slices.len());
        let mut rslices = Vec::with_capacity(node.slices.len());
        for (g, slice) in node.slices.into_iter().enumerate() {
            let (mut pos_l, mut pos_r) = (Vec::new(), Vec::new());
            for p in slice.pos {
                if goes_left(g, p) {
                    pos_l.push(p);
                } else {
                    pos_r.push(p);
                }
            }
            let (mut sample_l, mut sample_r) = (Vec::new(), Vec::new());
            let (mut mass_l, mut mass_r) = (0.0f64, 0.0f64);
            for p in slice.sample {
                let inf = side.groups[g].infs[p as usize].abs();
                if goes_left(g, p) {
                    sample_l.push(p);
                    mass_l += inf;
                } else {
                    sample_r.push(p);
                    mass_r += inf;
                }
            }
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
        (
            Node { pred: lp, slices: lslices, depth: node.depth + 1 },
            Node { pred: rp, slices: rslices, depth: node.depth + 1 },
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
    /// partitions so hold-out-hurting regions are separated.
    fn combine(&self, out_leaves: &[Node], hold: &[(Predicate, f64)]) -> Vec<Predicate> {
        let influential: Vec<&Predicate> = if hold.is_empty() {
            Vec::new()
        } else {
            let global_mean = hold.iter().map(|(_, m)| m).sum::<f64>() / hold.len() as f64;
            hold.iter().filter(|(_, m)| *m >= global_mean).map(|(p, _)| p).collect()
        };
        let mut out = Vec::new();
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
                    if next.len() > self.cfg.max_carve_pieces {
                        break 'carve;
                    }
                }
                boxes = next;
            }
            out.extend(boxes);
        }
        out
    }

    /// Scores each partition exactly and attaches the per-group statistics
    /// (cardinality + mean-influence representative tuple, §6.3).
    ///
    /// Partition membership is read from the Scorer's predicate masks,
    /// so sibling partitions sharing clauses (children of the same
    /// carve) reuse cached clause masks instead of re-walking rows. The
    /// tuple influences are computed once per call. Each group's
    /// statistics then come from one walk over the set bits of
    /// `group mask ∧ partition mask` ([`Scorer::for_each_selected`]),
    /// which visits the selected rows in ascending order, as a row-by-row
    /// scan would: the influence sum and the first-closest representative
    /// are the same.
    fn finalize(&self, preds: Vec<Predicate>) -> Result<Vec<ScoredPredicate>> {
        let s = self.scorer;
        let out_infs: Vec<Vec<f64>> =
            (0..s.n_outliers()).map(|g| s.outlier_tuple_influences(g)).collect();
        let hold_infs: Vec<Vec<f64>> =
            (0..s.n_holdouts()).map(|g| s.holdout_tuple_influences(g)).collect();
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::with_capacity(preds.len());
        let mut pos = Vec::new();
        for pred in preds {
            if !seen.insert(pred.clone()) {
                continue;
            }
            let pm = s.predicate_mask(&pred)?;
            let mut stats = PartitionStats::default();
            for (g, infs) in out_infs.iter().enumerate() {
                stats.outlier.push(self.group_stat(true, g, &pm, infs, &mut pos));
            }
            for (g, infs) in hold_infs.iter().enumerate() {
                stats.holdout.push(self.group_stat(false, g, &pm, infs, &mut pos));
            }
            let influence = s.influence(&pred)?;
            out.push(ScoredPredicate { predicate: pred, influence, stats: Some(stats) });
        }
        out.sort_by(|a, b| b.influence.total_cmp(&a.influence));
        Ok(out)
    }

    /// The §6.3 statistics of outlier group `g` (hold-out group `g` when
    /// `outlier` is false) over the tuples `pm` selects: their count, and
    /// the value of the first of them whose influence lies closest to
    /// their mean influence. `infs` are the group's tuple influences;
    /// `pos` is scratch.
    fn group_stat(
        &self,
        outlier: bool,
        g: usize,
        pm: &RowMask,
        infs: &[f64],
        pos: &mut Vec<usize>,
    ) -> GroupStat {
        let s = self.scorer;
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
        let rep = pos
            .iter()
            .copied()
            .min_by(|&a, &b| (infs[a] - mean).abs().total_cmp(&(infs[b] - mean).abs()))
            .expect("non-empty");
        GroupStat { n: pos.len() as f64, rep_value: values[rep] }
    }
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

/// One group's sampled rows of a (node, attribute) pair, projected to
/// value-sorted order with prefix sums of influence and squared
/// influence: the split metric at any threshold reduces to a
/// `partition_point` plus two prefix lookups.
struct SortedProj {
    /// Sampled attribute values, ascending (`total_cmp` order).
    values: Vec<f64>,
    /// `pref_s[i]` = influence sum of the `i` smallest-valued rows.
    pref_s: Vec<f64>,
    /// `pref_q[i]` = squared-influence sum of the `i` smallest-valued rows.
    pref_q: Vec<f64>,
}

impl SortedProj {
    fn new(mut pairs: Vec<(f64, f64)>) -> Self {
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut pref_s = Vec::with_capacity(pairs.len() + 1);
        let mut pref_q = Vec::with_capacity(pairs.len() + 1);
        let (mut s, mut q) = (0.0f64, 0.0f64);
        pref_s.push(0.0);
        pref_q.push(0.0);
        for &(_, inf) in &pairs {
            s += inf;
            q += inf * inf;
            pref_s.push(s);
            pref_q.push(q);
        }
        SortedProj { values: pairs.into_iter().map(|(v, _)| v).collect(), pref_s, pref_q }
    }

    /// `(count, influence sum, squared-influence sum)` of the rows with
    /// value `< x`.
    fn left_of(&self, x: f64) -> (usize, f64, f64) {
        let i = self.values.partition_point(|&v| v < x);
        (i, self.pref_s[i], self.pref_q[i])
    }
}

/// [`combined_metric`] over sorted projections: same per-group
/// size-weighted child variances combined with `max`, evaluated in
/// `O(groups · log sample)` per threshold.
fn sorted_metric(projs: &[SortedProj], x: f64) -> (bool, f64) {
    let mut metric = 0.0f64;
    let (mut tot_l, mut tot_r) = (0usize, 0usize);
    for proj in projs {
        let n_all = proj.values.len();
        let (nl_i, sl, ql) = proj.left_of(x);
        let nr_i = n_all - nl_i;
        tot_l += nl_i;
        tot_r += nr_i;
        let (nl, nr) = (nl_i as f64, nr_i as f64);
        let (sr, qr) = (proj.pref_s[n_all] - sl, proj.pref_q[n_all] - ql);
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

/// Computes the split error metric: per group, the size-weighted mean of
/// the child variances; combined across groups with `max` (§6.1.3).
/// Returns `(both_children_nonempty, metric)`.
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

/// Draws `k` distinct elements uniformly from `pool` (partial
/// Fisher–Yates over a scratch copy).
fn draw(pool: &[u32], k: usize, rng: &mut StdRng) -> Vec<u32> {
    let k = k.min(pool.len());
    let mut scratch = pool.to_vec();
    for i in 0..k {
        let j = rng.random_range(i..scratch.len());
        scratch.swap(i, j);
    }
    scratch.truncate(k);
    scratch
}

/// Ensures `sample` reaches the stratified target size
/// `max(target_n, min_rate·|pos|)` by drawing additional positions from
/// `pos` that are not yet sampled (§6.1.2).
fn top_up(sample: &mut Vec<u32>, pos: &[u32], target_n: f64, min_rate: f64, rng: &mut StdRng) {
    if pos.is_empty() {
        return;
    }
    let target = (target_n.max(min_rate * pos.len() as f64).ceil() as usize).min(pos.len());
    if sample.len() >= target {
        return;
    }
    let have: std::collections::HashSet<u32> = sample.iter().copied().collect();
    let unsampled: Vec<u32> = pos.iter().copied().filter(|p| !have.contains(p)).collect();
    let extra = draw(&unsampled, target - sample.len(), rng);
    sample.extend(extra);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InfluenceParams, SamplingConfig};
    use crate::scorer::GroupSpec;
    use scorpion_agg::Avg;
    use scorpion_table::{domains_of, group_by, Field, Schema, Table, TableBuilder, Value};

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
        let m = best.predicate.matcher(&t).unwrap();
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
                if m.matches(r) {
                    hot_in += 1;
                }
            }
            if cold {
                cold_tot += 1;
                if m.matches(r) {
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

        // Row-at-a-time reference: match the group's rows one by one, take
        // their mean tuple influence, and the first row closest to it. The
        // fixture interleaves `o` and `h` rows, so neither group's rows are
        // contiguous and the mask walk's position mapping is exercised.
        let reference = |p: &Predicate, rows: &[u32], values: &[f64], infs: &[f64]| {
            let m = p.matcher(&t).unwrap();
            let matched: Vec<usize> = (0..rows.len()).filter(|&i| m.matches(rows[i])).collect();
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
            sampling: Some(SamplingConfig {
                epsilon: 0.01,
                min_rows_to_sample: 500,
                min_rate: 0.05,
                seed: 42,
            }),
            ..DtConfig::default()
        };
        let dt = DtPartitioner::new(&s, vec![1, 2], d, cfg);
        let (merged, diag, _) = dt.run().unwrap();
        assert!(diag.sampled_fraction < 1.0, "{diag:?}");
        assert!(diag.sampled_fraction > 0.0);
        let best = &merged[0];
        let m = best.predicate.matcher(&t).unwrap();
        let x = t.num(1).unwrap();
        let y = t.num(2).unwrap();
        let mut hot_in = 0;
        let mut hot_tot = 0;
        for &r in s.outlier_rows(0) {
            if (30.0..50.0).contains(&x[r as usize]) && (30.0..50.0).contains(&y[r as usize]) {
                hot_tot += 1;
                if m.matches(r) {
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

    #[test]
    fn threshold_curve_is_exported() {
        let c = ThresholdCurve::new(0.05, 0.25, 0.5, 0.0, 1.0);
        assert!(c.omega(1.0) < c.omega(0.0));
    }
}
