//! Chunked sliding window over a row stream, maintained with per-chunk
//! summaries.
//!
//! Each ingested batch becomes an immutable *chunk*. On arrival the
//! chunk's aggregate-attribute values are summarized once per group,
//! and the summaries are merged into per-group running totals, which
//! serve [`SlidingWindow::value_of`] and [`SlidingWindow::series`].
//! The aggregate alone decides which summary a window keeps:
//!
//! * its exact state ([`scorpion_agg::IncrementalAggregate`]), when it
//!   has one;
//! * otherwise the raw values, which the black-box `compute` (MEDIAN,
//!   PERCENTILE, COUNT DISTINCT) reads at query time.
//!
//! When a chunk expires, its summaries leave the running totals in
//! O(groups-in-chunk): removable states (SUM/COUNT/AVG/STDDEV/VARIANCE)
//! are subtracted — §5.1 `remove` applied to the time dimension — and a
//! raw-value total drops its prefix, the expired chunk's values. Where
//! that cannot be exact, the total is re-merged from the surviving
//! chunks' summaries, never re-reading rows: MIN/MAX states, which
//! cannot forget an extremum, and a subtraction that may have lost the
//! survivors — the evicted state dwarfs what remains (float absorption),
//! or either holds a NaN or ±∞, which subtraction cannot take back out.
//!
//! ## Columnar chunks and the compaction tier
//!
//! Explanation needs the full relation, so each chunk keeps its rows,
//! converted once at [`SlidingWindow::push_chunk`] into columns: a
//! `Vec<f64>` per continuous attribute and a `Vec<u32>` per discrete
//! one. The codes index one window-wide dictionary per discrete
//! attribute. A dictionary slot is freed once no resident row uses it,
//! and the next new value reuses it, so each dictionary holds no more
//! slots than the most distinct values the resident chunks ever held at
//! once. [`SlidingWindow::materialize`] concatenates the resident
//! chunks' columns into a [`Table`] + provenance [`Grouping`] for the
//! engine.
//!
//! [`StreamConfig::with_compaction`] bounds the resident columns: once a
//! chunk ages past the `keep_recent` newest chunks and no flagged group
//! ever touched it ([`SlidingWindow::mark_flagged`]), the compaction
//! tier drops its columns, retaining only the per-group summaries.
//! Raw-value windows never compact: their summaries keep every value.
//! Series maintenance is unaffected (it never re-reads rows);
//! materialization and the warm-reuse signature
//! ([`SlidingWindow::chunks_of`]) simply skip compacted chunks, so
//! resident memory is O(groups · chunks) instead of O(rows) on quiet
//! streams while flagged chunks stay fully re-explainable.

use crate::error::{Result, StreamError};
use scorpion_agg::{AggState, Aggregate, IncrementalAggregate};
use scorpion_obs::Phases;
use scorpion_table::{group_by, AttrType, CatColumn, Column, Grouping, Schema, Table, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Static description of the stream relation and the continuous query.
/// [`StreamConfig::new`] and [`StreamConfig::with_compaction`] are the
/// only ways to set its fields, so every window's configuration has
/// passed their checks.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Schema every ingested row must conform to.
    schema: Schema,
    /// The group-by attribute (must be discrete).
    group_attr: usize,
    /// The aggregated attribute (must be continuous).
    pub(crate) agg_attr: usize,
    /// Window capacity in chunks; pushing beyond it evicts the oldest.
    window_chunks: usize,
    /// Compaction: keep raw rows only for the newest `keep_recent`
    /// chunks and for chunks a flagged group touched; older
    /// never-flagged chunks drop their rows (raw-value windows keep
    /// them all). `None` (default) disables compaction. Choose
    /// `keep_recent` to cover the detection horizon — a group flagged
    /// for the first time still needs raw rows somewhere.
    compact_keep_recent: Option<usize>,
}

impl StreamConfig {
    /// Validates and builds a stream configuration.
    pub fn new(
        schema: Schema,
        group_attr: usize,
        agg_attr: usize,
        window_chunks: usize,
    ) -> Result<Self> {
        if window_chunks == 0 {
            return Err(StreamError::BadConfig("window must hold at least one chunk"));
        }
        if group_attr == agg_attr {
            return Err(StreamError::BadConfig("group and aggregate attributes must differ"));
        }
        let g = schema.field(group_attr).map_err(StreamError::Table)?;
        if g.ty() != AttrType::Discrete {
            return Err(StreamError::BadConfig("group-by attribute must be discrete"));
        }
        let a = schema.field(agg_attr).map_err(StreamError::Table)?;
        if a.ty() != AttrType::Continuous {
            return Err(StreamError::BadConfig("aggregate attribute must be continuous"));
        }
        Ok(StreamConfig { schema, group_attr, agg_attr, window_chunks, compact_keep_recent: None })
    }

    /// Enables the compaction tier, always retaining raw rows for the
    /// newest `keep_recent` chunks.
    pub fn with_compaction(mut self, keep_recent: usize) -> Result<Self> {
        if keep_recent == 0 {
            return Err(StreamError::BadConfig("compaction must keep at least one recent chunk"));
        }
        self.compact_keep_recent = Some(keep_recent);
        Ok(self)
    }
}

/// One ingested batch: its rows as columns plus one summary per group of
/// its aggregate-attribute values.
struct Chunk {
    id: u64,
    /// Per attribute: the rows' numbers (continuous attributes only;
    /// empty once compacted).
    nums: Vec<Vec<f64>>,
    /// Per attribute: the rows' codes into the attribute's
    /// [`WindowDict`] (discrete attributes only; empty once compacted).
    /// Each code counts as one resident row of its dictionary slot.
    codes: Vec<Vec<u32>>,
    /// Per group key: (summary, row count).
    groups: BTreeMap<String, (Summary, usize)>,
    /// Columns dropped by the compaction tier.
    compacted: bool,
    /// A flagged group's rows live here; exempt from compaction so warm
    /// re-explanation keeps its evidence.
    flagged: bool,
}

impl Chunk {
    /// Drops the chunk's columns, releasing its codes' dictionary slots.
    fn drop_columns(&mut self, dicts: &mut [WindowDict]) {
        for (dict, codes) in dicts.iter_mut().zip(&mut self.codes) {
            dict.release(codes);
            *codes = Vec::new();
        }
        self.nums.iter_mut().for_each(|v| *v = Vec::new());
    }
}

/// The window-wide dictionary of one discrete attribute; chunk columns
/// hold codes into it. A slot is freed once no resident row uses it,
/// and the next new value reuses it.
#[derive(Default)]
struct WindowDict {
    /// Code → value; a free slot holds an empty string.
    values: Vec<String>,
    /// Code → resident rows holding it; 0 marks a free slot.
    rows: Vec<usize>,
    index: HashMap<String, u32>,
    free: Vec<u32>,
}

impl WindowDict {
    /// Codes one batch column's cells, counting each as a resident row.
    /// A cell equal to the one before reuses its code without hashing.
    fn encode<'a>(&mut self, cells: impl ExactSizeIterator<Item = &'a str>) -> Vec<u32> {
        let mut codes = Vec::with_capacity(cells.len());
        let mut prev: Option<(&str, u32)> = None;
        for cell in cells {
            let code = match prev {
                Some((p, code)) if p == cell => code,
                _ => self.intern(cell),
            };
            prev = Some((cell, code));
            self.rows[code as usize] += 1;
            codes.push(code);
        }
        codes
    }

    fn intern(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.index.get(value) {
            return code;
        }
        let code = match self.free.pop() {
            Some(code) => {
                self.values[code as usize] = value.to_owned();
                code
            }
            None => {
                let code = u32::try_from(self.values.len())
                    .expect("a window dictionary holds fewer than 2^32 values");
                self.values.push(value.to_owned());
                self.rows.push(0);
                code
            }
        };
        self.index.insert(value.to_owned(), code);
        code
    }

    /// Drops one resident row per code, freeing the slots no row holds.
    fn release(&mut self, codes: &[u32]) {
        for &code in codes {
            let rows = &mut self.rows[code as usize];
            *rows -= 1;
            if *rows == 0 {
                let value = std::mem::take(&mut self.values[code as usize]);
                self.index.remove(&value);
                self.free.push(code);
            }
        }
    }

    /// Slots, free ones included.
    fn slots(&self) -> usize {
        self.values.len()
    }

    fn value(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// Concatenates chunk code columns into one table column. Table codes
    /// go through one dense window-code → table-code array, assigned in
    /// first-appearance order, so the column equals pushing the same
    /// strings one row at a time: same codes, same dictionary order, and
    /// only the values some row uses.
    fn concat<'a>(
        &self,
        parts: impl Iterator<Item = &'a [u32]>,
        n_rows: usize,
    ) -> scorpion_table::Result<CatColumn> {
        const UNMAPPED: u32 = u32::MAX;
        let mut table_code = vec![UNMAPPED; self.slots()];
        let mut dict: Vec<String> = Vec::new();
        let mut codes = Vec::with_capacity(n_rows);
        for part in parts {
            for &code in part {
                let t = &mut table_code[code as usize];
                if *t == UNMAPPED {
                    *t = u32::try_from(dict.len()).expect("table codes number at most the slots");
                    dict.push(self.values[code as usize].clone());
                }
                codes.push(*t);
            }
        }
        CatColumn::from_parts(codes, dict)
    }

    /// Approximate bytes: each value is held twice (slot and index),
    /// plus a row count and an index code.
    fn approx_bytes(&self) -> u64 {
        self.values.iter().map(|v| 2 * (v.len() as u64 + 24) + 12).sum()
    }
}

/// Buckets each row's value by the row's code, numbering buckets by
/// first appearance through a dense code → bucket array over `slots`
/// codes: returns each bucket's code and its values in row order.
fn bucket_values(codes: &[u32], values: &[f64], slots: usize) -> (Vec<u32>, Vec<Vec<f64>>) {
    assert_eq!(codes.len(), values.len(), "one value per row");
    const UNSEEN: usize = usize::MAX;
    let mut bucket_of = vec![UNSEEN; slots];
    let mut keys = Vec::new();
    let mut buckets: Vec<Vec<f64>> = Vec::new();
    for (&code, &v) in codes.iter().zip(values) {
        let b = &mut bucket_of[code as usize];
        if *b == UNSEEN {
            *b = keys.len();
            keys.push(code);
            buckets.push(Vec::new());
        }
        buckets[*b].push(v);
    }
    (keys, buckets)
}

/// What a window keeps of one group's aggregate-attribute values, per
/// chunk and per running total.
#[derive(Clone)]
enum Summary {
    /// The aggregate's exact state.
    Exact(AggState),
    /// The raw values, in arrival order.
    Values(Vec<f64>),
}

impl Summary {
    /// Approximate bytes: an exact state's own size, or 8 per raw value.
    fn approx_bytes(&self) -> u64 {
        match self {
            Summary::Exact(state) => std::mem::size_of_val(state) as u64,
            Summary::Values(vals) => 8 * vals.len() as u64,
        }
    }
}

/// The aggregate's side of a window's summaries: which [`Summary`] the
/// window keeps, and the operator that builds, merges and reads it.
/// Fixed at construction, since it depends only on the aggregate.
#[derive(Clone, Copy)]
enum Tier<'a> {
    Exact(&'a dyn IncrementalAggregate),
    Values(&'a dyn Aggregate),
}

impl<'a> Tier<'a> {
    /// The exact state when the aggregate has one, otherwise raw values.
    fn of(agg: &'a dyn Aggregate) -> Self {
        match agg.incremental() {
            Some(exact) => Tier::Exact(exact),
            None => Tier::Values(agg),
        }
    }

    /// Summarizes one chunk's values of one group.
    fn summarize(self, vals: Vec<f64>) -> Summary {
        match self {
            Tier::Exact(exact) => Summary::Exact(exact.state_of(&vals)),
            Tier::Values(_) => Summary::Values(vals),
        }
    }

    /// Merges a chunk's summary into a running total.
    fn merge(self, total: &mut Summary, part: &Summary) {
        match (self, total, part) {
            (Tier::Exact(exact), Summary::Exact(t), Summary::Exact(p)) => exact.merge(t, p),
            (_, Summary::Values(t), Summary::Values(p)) => t.extend_from_slice(p),
            _ => unreachable!("a window keeps one kind of summary"),
        }
    }

    /// Takes the oldest chunk's summary out of a running total. Returns
    /// false when that cannot be done exactly: the caller then re-merges
    /// the total from the surviving chunks ([`remerge`]).
    fn retract(self, total: &mut Summary, part: &Summary) -> bool {
        match (self, total, part) {
            (Tier::Exact(exact), Summary::Exact(t), Summary::Exact(p)) if exact.removable() => {
                // O(1) retraction (§5.1 `remove` on the time axis) — but
                // floating-point subtraction is lossy when the evicted
                // state dwarfs what remains (absorption: 1e16 + 1 − 1e16
                // == 0), and cannot take a NaN or ±∞ back out. The error
                // would persist for the group's lifetime, so guard it.
                *t = exact.remove(t, p);
                !cancellation_suspect(p, t)
            }
            // MIN/MAX: the extremum may have left with the chunk.
            (Tier::Exact(_), ..) => false,
            // The oldest chunk's values are the total's prefix.
            (_, Summary::Values(t), Summary::Values(p)) => {
                t.drain(..p.len());
                true
            }
            _ => unreachable!("a window keeps one kind of summary"),
        }
    }

    /// The aggregate value a running total summarizes.
    fn value(self, total: &Summary) -> f64 {
        match (self, total) {
            (Tier::Exact(exact), Summary::Exact(m)) => exact.recover(m),
            (Tier::Values(agg), Summary::Values(vals)) => agg.compute(vals),
            _ => unreachable!("a window keeps one kind of summary"),
        }
    }
}

/// A group's running total over the live window.
struct GroupTotal {
    /// The merge of the group's live chunk summaries.
    summary: Summary,
    rows: usize,
}

/// Rebuilds one group's running total by merging the surviving chunks'
/// summaries, oldest first — no row is re-read.
fn remerge(tier: Tier<'_>, chunks: &VecDeque<Chunk>, key: &str) -> Summary {
    let mut parts = chunks.iter().filter_map(|c| c.groups.get(key)).map(|(part, _)| part);
    let mut total = parts.next().expect("a live group has rows in a live chunk").clone();
    for part in parts {
        tier.merge(&mut total, part);
    }
    total
}

/// True when subtracting `removed` may have destroyed `remaining`:
/// either holds a NaN or ±∞ (subtraction cannot take one back out), or
/// some component of the removed state is ≥ 2²⁰ (~10⁶) times the
/// magnitude of what is left, i.e. at least 20 of the result's 53
/// mantissa bits were cancelled away. False positives only cost a cheap
/// re-merge.
fn cancellation_suspect(removed: &AggState, remaining: &AggState) -> bool {
    const RATIO: f64 = (1u64 << 20) as f64;
    removed.as_slice().iter().zip(remaining.as_slice()).any(|(r, keep)| {
        !r.is_finite() || !keep.is_finite() || r.abs() > RATIO * keep.abs().max(f64::MIN_POSITIVE)
    })
}

/// Receipt returned by [`SlidingWindow::push_chunk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkReceipt {
    /// Id assigned to the ingested chunk (monotonically increasing).
    pub chunk_id: u64,
    /// Rows ingested.
    pub rows: usize,
    /// Id of the chunk evicted by this push, if the window was full.
    pub evicted: Option<u64>,
}

/// One point of the live result series.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAggregate {
    /// Group key (the discrete group attribute's value).
    pub key: String,
    /// Current windowed aggregate value.
    pub value: f64,
    /// Rows of this group live in the window.
    pub rows: usize,
}

/// A chunked sliding window maintaining a group-by aggregate series.
pub struct SlidingWindow {
    cfg: StreamConfig,
    agg: Arc<dyn Aggregate>,
    chunks: VecDeque<Chunk>,
    /// Per attribute: the dictionary its chunk codes index (unused for
    /// continuous attributes).
    dicts: Vec<WindowDict>,
    totals: BTreeMap<String, GroupTotal>,
    next_chunk_id: u64,
    rows_ingested: u64,
    /// Chunks the compaction tier has stripped so far (lifetime count).
    compactions: u64,
    /// Maintenance-phase attribution (`window.compact`), drained by the
    /// session layer into explanation diagnostics.
    phases: Phases,
}

impl SlidingWindow {
    /// Creates an empty window for the given continuous query.
    pub fn new(cfg: StreamConfig, agg: Arc<dyn Aggregate>) -> Self {
        let dicts = cfg.schema.iter().map(|_| WindowDict::default()).collect();
        SlidingWindow {
            cfg,
            agg,
            chunks: VecDeque::new(),
            dicts,
            totals: BTreeMap::new(),
            next_chunk_id: 0,
            rows_ingested: 0,
            compactions: 0,
            phases: Phases::new(),
        }
    }

    /// The window configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The aggregate operator.
    pub fn aggregate(&self) -> &Arc<dyn Aggregate> {
        &self.agg
    }

    /// The window's [`Tier`].
    fn tier(&self) -> Tier<'_> {
        Tier::of(self.agg.as_ref())
    }

    /// Number of live chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Number of rows resident in the window's columns. With compaction
    /// this counts only retained rows; see [`Self::series`]'s per-group
    /// `rows` for the logical count.
    pub fn n_rows(&self) -> usize {
        // The group attribute is discrete: its codes count resident rows.
        self.chunks.iter().map(|c| c.codes[self.cfg.group_attr].len()).sum()
    }

    /// Rows resident (alias of [`Self::n_rows`], the gauge exported to
    /// diagnostics).
    pub fn resident_rows(&self) -> usize {
        self.n_rows()
    }

    /// Approximate bytes resident in the window: the chunks' columns
    /// (8 bytes per number, 4 per code), the window dictionaries, and
    /// the per-group summaries.
    pub fn resident_bytes(&self) -> u64 {
        let mut bytes: u64 = self.dicts.iter().map(WindowDict::approx_bytes).sum();
        for c in &self.chunks {
            bytes += c.nums.iter().map(|v| 8 * v.len() as u64).sum::<u64>();
            bytes += c.codes.iter().map(|v| 4 * v.len() as u64).sum::<u64>();
            for (key, (summary, _)) in &c.groups {
                bytes += key.len() as u64 + summary.approx_bytes() + 16;
            }
        }
        for (key, t) in &self.totals {
            bytes += key.len() as u64 + t.summary.approx_bytes() + 24;
        }
        bytes
    }

    /// Slots of the window dictionary of attribute `attr`, free ones
    /// included (0 for a continuous attribute). Never more than the most
    /// distinct values of `attr` the resident chunks held at once.
    pub fn dictionary_slots(&self, attr: usize) -> usize {
        self.dicts.get(attr).map_or(0, WindowDict::slots)
    }

    /// Chunks whose columns the compaction tier has dropped (live).
    pub fn n_compacted_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.compacted).count()
    }

    /// Lifetime count of chunks compacted (including since-evicted
    /// ones).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Maintenance-phase timings (`window.compact`); the session layer
    /// drains these into explanation diagnostics.
    pub fn phases(&self) -> &Phases {
        &self.phases
    }

    /// Total rows ever ingested (including evicted ones).
    pub fn rows_ingested(&self) -> u64 {
        self.rows_ingested
    }

    /// Ids of the live, *uncompacted* chunks containing rows of `key`,
    /// oldest first. Compacted chunks are excluded on purpose: this
    /// feeds the warm-reuse signature, and a compacted chunk's rows are
    /// absent from [`Self::materialize`] — excluding it keeps the
    /// signature consistent with the relation the engine actually sees.
    pub fn chunks_of(&self, key: &str) -> Vec<u64> {
        self.chunks
            .iter()
            .filter(|c| !c.compacted && c.groups.contains_key(key))
            .map(|c| c.id)
            .collect()
    }

    /// Marks every live chunk holding rows of the given group keys as
    /// flagged, permanently exempting them from compaction. Returns how
    /// many chunks were newly flagged. Call when the detector labels a
    /// group so its evidence rows survive for re-explanation.
    pub fn mark_flagged<'k>(&mut self, keys: impl IntoIterator<Item = &'k str>) -> usize {
        let keys: BTreeSet<&str> = keys.into_iter().collect();
        if keys.is_empty() {
            return 0;
        }
        let mut newly = 0;
        for c in &mut self.chunks {
            if !c.flagged && keys.iter().any(|k| c.groups.contains_key(*k)) {
                c.flagged = true;
                newly += 1;
            }
        }
        newly
    }

    /// Ingests one batch as a new chunk, evicting the oldest chunk when
    /// the window is at capacity and compacting aged never-flagged
    /// chunks when the compaction tier is enabled. Every cell is checked
    /// against the schema first: a bad batch is rejected with
    /// [`StreamError::BadRow`] and leaves the window unchanged.
    pub fn push_chunk(&mut self, rows: Vec<Vec<Value>>) -> Result<ChunkReceipt> {
        self.check_rows(&rows)?;
        // Evict and compact before the batch interns its values, so the
        // dictionaries reuse the slots that left the resident set.
        let evicted = if self.chunks.len() >= self.cfg.window_chunks {
            let mut old = self.chunks.pop_front().expect("a full window has chunks");
            old.drop_columns(&mut self.dicts);
            Some(old)
        } else {
            None
        };
        self.compact();

        let (nums, codes) = self.encode(&rows);
        let group = &self.dicts[self.cfg.group_attr];
        let (keys, by_group) =
            bucket_values(&codes[self.cfg.group_attr], &nums[self.cfg.agg_attr], group.slots());
        let tier = Tier::of(self.agg.as_ref());
        let groups: BTreeMap<String, (Summary, usize)> = keys
            .iter()
            .zip(by_group)
            .map(|(&k, vals)| {
                let n = vals.len();
                (group.value(k).to_owned(), (tier.summarize(vals), n))
            })
            .collect();

        // Merge the new chunk's summaries into the running totals.
        for (key, (part, n)) in &groups {
            match self.totals.get_mut(key) {
                Some(total) => {
                    tier.merge(&mut total.summary, part);
                    total.rows += n;
                }
                None => {
                    let total = GroupTotal { summary: part.clone(), rows: *n };
                    self.totals.insert(key.clone(), total);
                }
            }
        }

        let chunk_id = self.next_chunk_id;
        self.next_chunk_id += 1;
        self.rows_ingested += rows.len() as u64;
        self.chunks.push_back(Chunk {
            id: chunk_id,
            nums,
            codes,
            groups,
            compacted: false,
            flagged: false,
        });

        // Retract after merging the new chunk: the totals' float sums
        // depend on the order, and re-merges must see the new chunk.
        if let Some(old) = &evicted {
            self.retract(old);
        }
        Ok(ChunkReceipt { chunk_id, rows: rows.len(), evicted: evicted.map(|old| old.id) })
    }

    /// Checks every cell against the schema before the window changes.
    fn check_rows(&self, rows: &[Vec<Value>]) -> Result<()> {
        let schema = &self.cfg.schema;
        for (i, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(StreamError::BadRow(format!(
                    "row {i} has {} values, schema has {}",
                    row.len(),
                    schema.len()
                )));
            }
            for (field, cell) in schema.iter().zip(row) {
                let expected = match (field.ty(), cell) {
                    (AttrType::Continuous, Value::Num(_)) | (AttrType::Discrete, Value::Str(_)) => {
                        continue
                    }
                    (AttrType::Continuous, _) => "a number",
                    (AttrType::Discrete, _) => "a string",
                };
                return Err(StreamError::BadRow(format!(
                    "row {i}: attribute `{}` must be {expected}, got {cell:?}",
                    field.name()
                )));
            }
        }
        Ok(())
    }

    /// Converts a checked batch into per-attribute columns, interning
    /// discrete cells into the window dictionaries.
    fn encode(&mut self, rows: &[Vec<Value>]) -> (Vec<Vec<f64>>, Vec<Vec<u32>>) {
        let mut nums = Vec::with_capacity(self.cfg.schema.len());
        let mut codes = Vec::with_capacity(self.cfg.schema.len());
        for (a, field) in self.cfg.schema.iter().enumerate() {
            match field.ty() {
                AttrType::Continuous => {
                    let cells = rows.iter().map(|row| row[a].as_num().expect("cells were checked"));
                    nums.push(cells.collect());
                    codes.push(Vec::new());
                }
                AttrType::Discrete => {
                    nums.push(Vec::new());
                    let cells = rows.iter().map(|row| row[a].as_str().expect("cells were checked"));
                    codes.push(self.dicts[a].encode(cells));
                }
            }
        }
        (nums, codes)
    }

    /// Removes an evicted chunk's contribution from the running totals.
    fn retract(&mut self, old: &Chunk) {
        let tier = Tier::of(self.agg.as_ref());
        for (key, (part, n)) in &old.groups {
            let Some(total) = self.totals.get_mut(key) else { continue };
            total.rows -= (*n).min(total.rows);
            if total.rows == 0 {
                self.totals.remove(key);
                continue;
            }
            if !tier.retract(&mut total.summary, part) {
                total.summary = remerge(tier, &self.chunks, key);
            }
        }
    }

    /// Strips the columns from chunks older than the `keep_recent` newest
    /// that no flagged group ever touched, leaving the per-group
    /// summaries. Runs before
    /// the incoming chunk joins the window, so that chunk counts toward
    /// the newest. Skipped for raw-value windows: their summaries keep
    /// every value, so dropping the columns would not make them
    /// row-free. Timed as `window.compact`.
    fn compact(&mut self) {
        let Some(keep) = self.cfg.compact_keep_recent else { return };
        if let Tier::Values(_) = self.tier() {
            return;
        }
        let eligible = (self.chunks.len() + 1).saturating_sub(keep);
        if eligible == 0 {
            return;
        }
        let start = Instant::now();
        let mut did = 0u64;
        for c in self.chunks.iter_mut().take(eligible) {
            if c.compacted || c.flagged {
                continue;
            }
            c.drop_columns(&mut self.dicts);
            c.compacted = true;
            did += 1;
        }
        if did > 0 {
            self.compactions += did;
            self.phases.add_nanos("window.compact", start.elapsed().as_nanos() as u64, did);
        }
    }

    /// The current windowed aggregate value of `key`, if the group is
    /// live.
    pub fn value_of(&self, key: &str) -> Option<f64> {
        let total = self.totals.get(key)?;
        Some(self.tier().value(&total.summary))
    }

    /// The live group-by result series, sorted by group key.
    pub fn series(&self) -> Vec<GroupAggregate> {
        let tier = self.tier();
        self.totals
            .iter()
            .map(|(key, total)| GroupAggregate {
                key: key.clone(),
                value: tier.value(&total.summary),
                rows: total.rows,
            })
            .collect()
    }

    /// Materializes the live window as a relation plus provenance — the
    /// substrate the explanation engine runs on. The resident chunks'
    /// columns are concatenated in arrival order: numbers slice to
    /// slice, codes through one dense window-code → table-code array
    /// per discrete attribute that assigns table codes by first
    /// appearance. The table therefore equals pushing the same rows one
    /// at a time: same codes, same dictionary order, only the values
    /// some resident row holds, same `f64` bits. Compacted chunks
    /// contribute nothing (their columns are gone); [`Self::chunks_of`]
    /// skips them symmetrically so warm-reuse signatures stay consistent
    /// with this relation.
    pub fn materialize(&self) -> Result<(Table, Grouping)> {
        let n_rows = self.n_rows();
        let mut columns = Vec::with_capacity(self.cfg.schema.len());
        for (a, field) in self.cfg.schema.iter().enumerate() {
            columns.push(match field.ty() {
                AttrType::Continuous => {
                    let mut v = Vec::with_capacity(n_rows);
                    for c in &self.chunks {
                        v.extend_from_slice(&c.nums[a]);
                    }
                    Column::Num(v)
                }
                AttrType::Discrete => Column::Cat(
                    self.dicts[a]
                        .concat(self.chunks.iter().map(|c| c.codes[a].as_slice()), n_rows)?,
                ),
            });
        }
        let table = Table::from_columns(self.cfg.schema.clone(), columns)?;
        let grouping = group_by(&table, &[self.cfg.group_attr])?;
        Ok((table, grouping))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpion_agg::aggregate_by_name;
    use scorpion_table::Field;

    fn two_col_schema() -> Schema {
        Schema::new(vec![Field::disc("g"), Field::cont("v")]).unwrap()
    }

    fn window(agg: &str, capacity: usize) -> SlidingWindow {
        let cfg = StreamConfig::new(two_col_schema(), 0, 1, capacity).unwrap();
        SlidingWindow::new(cfg, aggregate_by_name(agg).unwrap())
    }

    fn chunk(rows: &[(&str, f64)]) -> Vec<Vec<Value>> {
        rows.iter().map(|&(g, v)| vec![Value::from(g), Value::from(v)]).collect()
    }

    #[test]
    fn config_validation() {
        let s = two_col_schema;
        assert!(matches!(StreamConfig::new(s(), 0, 1, 0), Err(StreamError::BadConfig(_))));
        assert!(matches!(StreamConfig::new(s(), 1, 1, 2), Err(StreamError::BadConfig(_))));
        assert!(matches!(StreamConfig::new(s(), 1, 0, 2), Err(StreamError::BadConfig(_))));
        assert!(StreamConfig::new(s(), 0, 1, 2).is_ok());
        assert!(StreamConfig::new(s(), 0, 1, 2).unwrap().with_compaction(0).is_err());
    }

    #[test]
    fn push_and_evict_maintains_sum() {
        let mut w = window("sum", 2);
        let r1 = w.push_chunk(chunk(&[("a", 1.0), ("a", 2.0), ("b", 10.0)])).unwrap();
        assert_eq!(r1, ChunkReceipt { chunk_id: 0, rows: 3, evicted: None });
        let _ = w.push_chunk(chunk(&[("a", 4.0)])).unwrap();
        assert_eq!(w.value_of("a"), Some(7.0));
        // Third push evicts chunk 0: group b vanishes, a keeps only 4.
        let r3 = w.push_chunk(chunk(&[("c", 100.0)])).unwrap();
        assert_eq!(r3.evicted, Some(0));
        assert_eq!(w.value_of("a"), Some(4.0));
        assert_eq!(w.value_of("b"), None);
        assert_eq!(w.value_of("c"), Some(100.0));
        assert_eq!(w.n_chunks(), 2);
        assert_eq!(w.rows_ingested(), 5);
    }

    #[test]
    fn evicting_a_dominant_chunk_does_not_absorb_survivors() {
        // 1e16 + 1.0 == 1e16 in f64: a pure unmerge would leave the
        // window claiming sum 0 / avg 0 after the huge chunk leaves.
        for (agg, want) in [("sum", 2.0), ("avg", 1.0)] {
            let mut w = window(agg, 2);
            w.push_chunk(chunk(&[("a", 1e16)])).unwrap();
            w.push_chunk(chunk(&[("a", 1.0)])).unwrap();
            let r = w.push_chunk(chunk(&[("a", 1.0)])).unwrap();
            assert_eq!(r.evicted, Some(0));
            let got = w.value_of("a").unwrap();
            assert!((got - want).abs() < 1e-9, "{agg}: {got} != {want}");
        }
    }

    #[test]
    fn evicting_a_non_finite_reading_does_not_poison_the_group() {
        // NaN − NaN is NaN, and a NaN fails every comparison of the
        // absorption guard: a non-finite state must count as suspect,
        // so the survivors are re-merged.
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for agg in ["sum", "count", "avg", "stddev", "variance", "min", "max", "median"] {
                let mut w = window(agg, 2);
                w.push_chunk(chunk(&[("a", special)])).unwrap();
                w.push_chunk(chunk(&[("a", 1.0)])).unwrap();
                let r = w.push_chunk(chunk(&[("a", 2.0)])).unwrap();
                assert_eq!(r.evicted, Some(0));
                let want = w.aggregate().compute(&[1.0, 2.0]);
                assert_eq!(w.value_of("a"), Some(want), "{agg} after evicting {special}");
            }
        }
    }

    #[test]
    fn min_max_retraction_recovers_runner_up() {
        let mut w = window("max", 2);
        w.push_chunk(chunk(&[("a", 9.0)])).unwrap();
        w.push_chunk(chunk(&[("a", 5.0)])).unwrap();
        assert_eq!(w.value_of("a"), Some(9.0));
        // Evicting the chunk holding the maximum must fall back to the
        // runner-up — the case plain retraction cannot handle.
        w.push_chunk(chunk(&[("a", 7.0)])).unwrap();
        assert_eq!(w.value_of("a"), Some(7.0));
    }

    #[test]
    fn median_blackbox_fallback() {
        let mut w = window("median", 3);
        w.push_chunk(chunk(&[("a", 1.0), ("a", 50.0)])).unwrap();
        w.push_chunk(chunk(&[("a", 3.0)])).unwrap();
        assert_eq!(w.value_of("a"), Some(3.0));
        let s = w.series();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].rows, 3);
    }

    #[test]
    fn series_is_sorted_and_complete() {
        let mut w = window("avg", 4);
        w.push_chunk(chunk(&[("b", 2.0), ("a", 1.0)])).unwrap();
        w.push_chunk(chunk(&[("c", 3.0)])).unwrap();
        let s = w.series();
        let keys: Vec<&str> = s.iter().map(|g| g.key.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn chunks_of_tracks_membership() {
        let mut w = window("sum", 3);
        w.push_chunk(chunk(&[("a", 1.0)])).unwrap();
        w.push_chunk(chunk(&[("b", 1.0)])).unwrap();
        w.push_chunk(chunk(&[("a", 1.0), ("b", 1.0)])).unwrap();
        assert_eq!(w.chunks_of("a"), vec![0, 2]);
        assert_eq!(w.chunks_of("b"), vec![1, 2]);
        w.push_chunk(chunk(&[("c", 1.0)])).unwrap(); // evicts chunk 0
        assert_eq!(w.chunks_of("a"), vec![2]);
    }

    #[test]
    fn bad_rows_are_rejected() {
        let mut w = window("sum", 2);
        assert!(matches!(w.push_chunk(vec![vec![Value::from("a")]]), Err(StreamError::BadRow(_))));
        assert!(matches!(
            w.push_chunk(vec![vec![Value::from(1.0), Value::from(2.0)]]),
            Err(StreamError::BadRow(_))
        ));
        assert!(matches!(
            w.push_chunk(vec![vec![Value::from("a"), Value::from("x")]]),
            Err(StreamError::BadRow(_))
        ));
    }

    #[test]
    fn materialize_round_trips() {
        let mut w = window("avg", 2);
        w.push_chunk(chunk(&[("a", 1.0), ("b", 5.0)])).unwrap();
        w.push_chunk(chunk(&[("a", 3.0)])).unwrap();
        let (t, g) = w.materialize().unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(g.len(), 2);
        // Windowed series must agree with a fresh group-by over the
        // materialized relation.
        for i in 0..g.len() {
            let key = g.display_key(&t, i);
            let vals: Vec<f64> = g.rows(i).iter().map(|&r| t.num(1).unwrap()[r as usize]).collect();
            let want = w.aggregate().compute(&vals);
            assert_eq!(w.value_of(&key), Some(want));
        }
    }

    #[test]
    fn empty_window_series_is_empty() {
        let w = window("sum", 2);
        assert!(w.series().is_empty());
        assert_eq!(w.n_rows(), 0);
        let (t, g) = w.materialize().unwrap();
        assert_eq!(t.len(), 0);
        assert_eq!(g.len(), 0);
    }

    #[test]
    fn percentile_window_stays_exact() {
        let mut w = window("p50", 2);
        w.push_chunk(chunk(&[("a", 1.0), ("a", 2.0), ("a", 100.0)])).unwrap();
        assert_eq!(w.value_of("a"), Some(2.0));
    }

    // ---- compaction tier ------------------------------------------------

    fn compacting_window(agg: &str, capacity: usize, keep: usize) -> SlidingWindow {
        let cfg = StreamConfig::new(two_col_schema(), 0, 1, capacity)
            .unwrap()
            .with_compaction(keep)
            .unwrap();
        SlidingWindow::new(cfg, aggregate_by_name(agg).unwrap())
    }

    #[test]
    fn compaction_bounds_resident_rows() {
        let mut w = compacting_window("avg", 100, 3);
        let raw_cfg = StreamConfig::new(two_col_schema(), 0, 1, 100).unwrap();
        let mut raw = SlidingWindow::new(raw_cfg, aggregate_by_name("avg").unwrap());
        for i in 0..100 {
            let rows: Vec<(String, f64)> =
                (0..10).map(|j| (format!("g{}", j % 4), (i * 10 + j) as f64)).collect();
            let borrowed: Vec<(&str, f64)> = rows.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            w.push_chunk(chunk(&borrowed)).unwrap();
            raw.push_chunk(chunk(&borrowed)).unwrap();
        }
        assert_eq!(w.n_chunks(), 100);
        // Only the newest `keep` chunks hold raw rows; without compaction
        // every row stays resident.
        assert_eq!(w.resident_rows(), 3 * 10);
        assert_eq!(raw.resident_rows(), 1000);
        assert_eq!(w.n_compacted_chunks(), 97);
        // The series is untouched: logical rows and exact totals.
        let s = w.series();
        assert_eq!(s.iter().map(|g| g.rows).sum::<usize>(), 1000);
        let all: Vec<f64> = (0..1000).map(|k| k as f64).collect();
        // g0 holds the rows whose within-chunk position j = v mod 10 has
        // j mod 4 == 0.
        let per_group: Vec<f64> =
            all.iter().copied().filter(|v| ((*v as u64) % 10).is_multiple_of(4)).collect();
        let want = aggregate_by_name("avg").unwrap().compute(&per_group);
        assert!((w.value_of("g0").unwrap() - want).abs() < 1e-9);
        // Phase attribution recorded the work.
        let phases = w.phases().snapshot();
        let compact = phases.iter().find(|p| p.name == "window.compact").unwrap();
        assert_eq!(compact.count, 97);
    }

    #[test]
    fn flagged_chunks_keep_their_rows() {
        let mut w = compacting_window("avg", 10, 1);
        w.push_chunk(chunk(&[("hot", 9.0), ("cold", 1.0)])).unwrap();
        assert_eq!(w.mark_flagged(["hot"]), 1);
        for _ in 0..5 {
            w.push_chunk(chunk(&[("cold", 1.0)])).unwrap();
        }
        // Chunk 0 holds a flagged group: still materializable.
        assert_eq!(w.n_compacted_chunks(), 4);
        let (t, _) = w.materialize().unwrap();
        assert_eq!(t.len(), 2 + 1); // chunk 0 (2 rows) + newest chunk (1 row)
        assert_eq!(w.chunks_of("hot"), vec![0]);
    }

    #[test]
    fn compacted_chunks_exit_signatures() {
        let mut w = compacting_window("sum", 10, 1);
        w.push_chunk(chunk(&[("a", 1.0), ("b", 2.0), ("a", 3.0)])).unwrap();
        w.push_chunk(chunk(&[("a", 4.0)])).unwrap();
        w.push_chunk(chunk(&[("b", 5.0)])).unwrap();
        assert_eq!(w.n_compacted_chunks(), 2);
        // Signatures skip compacted chunks, matching materialize().
        assert_eq!(w.chunks_of("a"), Vec::<u64>::new());
        assert_eq!(w.chunks_of("b"), vec![2]);
        // Totals remain exact.
        assert_eq!(w.value_of("a"), Some(8.0));
        assert_eq!(w.value_of("b"), Some(7.0));
    }

    #[test]
    fn raw_value_windows_never_compact() {
        for agg in ["median", "p90", "count_distinct"] {
            let mut w = compacting_window(agg, 10, 1);
            for _ in 0..5 {
                w.push_chunk(chunk(&[("a", 1.0), ("a", 3.0)])).unwrap();
            }
            assert_eq!(w.n_compacted_chunks(), 0, "{agg} needs its raw values");
            let want = w.aggregate().compute(&[1.0, 3.0].repeat(5));
            assert_eq!(w.value_of("a"), Some(want), "{agg}");
        }
    }
}
