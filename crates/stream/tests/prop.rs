//! Stream/batch equivalence: a sliding window maintained with summary
//! merges and incremental retraction must agree with recomputing every
//! window state from scratch, for every aggregate and every
//! (chunk-stream, capacity, compaction) combination. The window's columnar
//! materialization must equal a row-by-row rebuild of its resident rows,
//! and its dictionaries must stay bounded by what is resident.

use proptest::prelude::*;
use scorpion_agg::aggregate_by_name;
use scorpion_stream::{SlidingWindow, StreamConfig};
use scorpion_table::{group_by, AttrType, CatColumn, Field, Schema, Table, TableBuilder, Value};
use std::collections::{BTreeMap, VecDeque};

/// All registry aggregates: removable exact states, merge-only exact
/// states (min/max), and the raw-value fallback (median, p90,
/// count_distinct).
const AGGS: &[&str] =
    &["sum", "count", "avg", "stddev", "variance", "min", "max", "median", "p90", "count_distinct"];

/// Absolute tolerance for FP-reordered evaluation, where `scale` is the
/// largest input magnitude that fed the group (not a fixed floor — the
/// tolerance must stay tight for small-valued groups, or it stops
/// guarding against real retraction drift). STDDEV is looser: the
/// moment formula cancels at ~`scale²` and the square root halves the
/// surviving precision, giving worst-case error ≈ `sqrt(n·ε)·scale`
/// (~2e-2 at scale 1e5); 1e-6·scale keeps an order of magnitude over
/// observed error while still catching drifts far below the value
/// itself.
fn tol(name: &str, scale: f64) -> f64 {
    let scale = scale.max(1.0);
    match name {
        "stddev" => 1e-6 * scale.max(1e3),
        _ => 1e-7 * scale,
    }
}

fn schema() -> Schema {
    Schema::new(vec![Field::disc("g"), Field::cont("v")]).unwrap()
}

type RawChunk = Vec<(usize, f64)>;

fn to_rows(chunk: &RawChunk) -> Vec<Vec<Value>> {
    chunk.iter().map(|&(g, v)| vec![Value::Str(format!("g{g}")), Value::Num(v)]).collect()
}

/// From-scratch reference: group the live chunks' rows and run the
/// black-box aggregate per group. Returns `(value, max |input|)` per
/// group — the latter sets the comparison tolerance.
fn batch_series(live: &VecDeque<&RawChunk>, agg_name: &str) -> BTreeMap<String, (f64, f64)> {
    let agg = aggregate_by_name(agg_name).unwrap();
    let mut groups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for chunk in live {
        for &(g, v) in chunk.iter() {
            groups.entry(format!("g{g}")).or_default().push(v);
        }
    }
    groups
        .into_iter()
        .map(|(k, vals)| {
            let max_abs = vals.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            (k, (agg.compute(&vals), max_abs))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every push, the incrementally maintained series is ε-equal
    /// to a from-scratch recomputation of the same window, with the
    /// compaction tier on or off: re-merges after an eviction read the
    /// summaries compacted chunks keep.
    #[test]
    fn sliding_window_matches_batch_recompute(
        chunks in prop::collection::vec(
            prop::collection::vec((0usize..4, -1e5f64..1e5), 0..12),
            1..14,
        ),
        capacity in 1usize..6,
        compact in any::<bool>(),
        keep in 0usize..6,
    ) {
        // With compaction on, `keep_recent` is drawn from 1..=capacity.
        let keep = 1 + keep % capacity;
        for name in AGGS {
            let mut cfg = StreamConfig::new(schema(), 0, 1, capacity).unwrap();
            if compact {
                cfg = cfg.with_compaction(keep).unwrap();
            }
            let mut w = SlidingWindow::new(cfg, aggregate_by_name(name).unwrap());
            let mut live: VecDeque<&RawChunk> = VecDeque::new();
            for chunk in &chunks {
                w.push_chunk(to_rows(chunk)).unwrap();
                live.push_back(chunk);
                if live.len() > capacity {
                    live.pop_front();
                }
                let want = batch_series(&live, name);
                let got = w.series();
                let got_keys: Vec<&String> = got.iter().map(|g| &g.key).collect();
                let want_keys: Vec<&String> = want.keys().collect();
                prop_assert_eq!(&got_keys, &want_keys, "{}: group sets differ", name);
                for ga in &got {
                    let (want_v, max_abs) = want[&ga.key];
                    prop_assert!(
                        (ga.value - want_v).abs() <= tol(name, max_abs),
                        "{}[{}]: stream {} != batch {}",
                        name, ga.key, ga.value, want_v
                    );
                }
            }
        }
    }

    /// Row counts per group always match the live chunk contents.
    #[test]
    fn window_row_accounting_matches(
        chunks in prop::collection::vec(
            prop::collection::vec((0usize..3, 0.0f64..10.0), 0..8),
            1..10,
        ),
        capacity in 1usize..4,
    ) {
        let cfg = StreamConfig::new(schema(), 0, 1, capacity).unwrap();
        let mut w = SlidingWindow::new(cfg, aggregate_by_name("sum").unwrap());
        let mut live: VecDeque<&RawChunk> = VecDeque::new();
        for chunk in &chunks {
            w.push_chunk(to_rows(chunk)).unwrap();
            live.push_back(chunk);
            if live.len() > capacity {
                live.pop_front();
            }
            let mut want: BTreeMap<String, usize> = BTreeMap::new();
            for c in &live {
                for &(g, _) in c.iter() {
                    *want.entry(format!("g{g}")).or_default() += 1;
                }
            }
            let total: usize = want.values().sum();
            prop_assert_eq!(w.n_rows(), total);
            for ga in w.series() {
                prop_assert_eq!(ga.rows, want[&ga.key]);
            }
        }
    }
}

/// Group `g`, two discrete explain attributes `s` and `t`, the
/// aggregated `v`, and a second number `w`, with the types interleaved.
fn wide_schema() -> Schema {
    Schema::new(vec![
        Field::disc("g"),
        Field::disc("s"),
        Field::cont("v"),
        Field::disc("t"),
        Field::cont("w"),
    ])
    .unwrap()
}

/// The discrete attributes of [`wide_schema`].
const WIDE_DISCRETE: [usize; 3] = [0, 1, 3];

/// `w` values whose bits a rebuild must keep: signed zeros, NaN, ±inf,
/// and a subnormal's neighbour.
const SPECIAL: [f64; 6] = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, -1.5];

/// `(g, s, t, v, w)` with `w` an index into [`SPECIAL`].
type WideRow = (usize, usize, usize, f64, usize);

fn wide_rows(chunk: &[WideRow]) -> Vec<Vec<Value>> {
    chunk
        .iter()
        .map(|&(g, s, t, v, w)| {
            vec![
                Value::Str(format!("g{g}")),
                Value::Str(format!("s{s}")),
                Value::Num(v),
                Value::Str(format!("t{t}")),
                Value::Num(SPECIAL[w]),
            ]
        })
        .collect()
}

/// The test's own account of which live chunks keep their rows: the
/// newest `keep` chunks and every chunk a flagged group touched.
struct ResidentModel {
    capacity: usize,
    keep: Option<usize>,
    /// Per live chunk: (rows, flagged, compacted).
    live: VecDeque<(Vec<Vec<Value>>, bool, bool)>,
}

impl ResidentModel {
    fn push(&mut self, rows: Vec<Vec<Value>>) {
        self.live.push_back((rows, false, false));
        if self.live.len() > self.capacity {
            self.live.pop_front();
        }
        if let Some(keep) = self.keep {
            let aged = self.live.len().saturating_sub(keep);
            for (_, flagged, compacted) in self.live.iter_mut().take(aged) {
                *compacted |= !*flagged;
            }
        }
    }

    fn flag(&mut self, key: &str) {
        for (rows, flagged, _) in &mut self.live {
            *flagged |= rows.iter().any(|r| r[0].as_str() == Some(key));
        }
    }

    /// The resident rows pushed one at a time, in arrival order.
    fn rebuild(&self) -> Table {
        let mut b = TableBuilder::new(wide_schema());
        for (rows, _, compacted) in &self.live {
            if !compacted {
                for row in rows {
                    b.push_row(row.iter().cloned()).unwrap();
                }
            }
        }
        b.build()
    }
}

fn dictionary(c: &CatColumn) -> Vec<&str> {
    (0..c.cardinality() as u32).map(|code| c.value_of(code)).collect()
}

/// Same rows, codes, dictionary order and cardinalities, and `f64` bits.
fn assert_same_table(got: &Table, want: &Table) {
    assert_eq!(got.len(), want.len());
    for (a, field) in want.schema().iter().enumerate() {
        match field.ty() {
            AttrType::Continuous => {
                let bits = |t: &Table| -> Vec<u64> {
                    t.num(a).unwrap().iter().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits(got), bits(want), "`{}` bits", field.name());
            }
            AttrType::Discrete => {
                let (g, w) = (got.cat(a).unwrap(), want.cat(a).unwrap());
                assert_eq!(g.codes(), w.codes(), "`{}` codes", field.name());
                assert_eq!(dictionary(g), dictionary(w), "`{}` dictionary", field.name());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every push (and the random flags that follow it), the
    /// columnar materialization equals a row-by-row rebuild of the same
    /// resident rows, grouping included.
    #[test]
    fn materialize_matches_row_by_row_rebuild(
        pushes in prop::collection::vec(
            (
                prop::collection::vec((0usize..4, 0usize..6, 0usize..3, -1e3f64..1e3, 0usize..6), 0..8),
                0usize..8,
            ),
            1..24,
        ),
        capacity in 1usize..6,
        keep in 0usize..3,
    ) {
        let keep = (keep > 0).then_some(keep);
        let mut cfg = StreamConfig::new(wide_schema(), 0, 2, capacity).unwrap();
        if let Some(k) = keep {
            cfg = cfg.with_compaction(k).unwrap();
        }
        let mut w = SlidingWindow::new(cfg, aggregate_by_name("sum").unwrap());
        let mut model = ResidentModel { capacity, keep, live: VecDeque::new() };
        for (chunk, flag) in &pushes {
            w.push_chunk(wide_rows(chunk)).unwrap();
            model.push(wide_rows(chunk));
            // Flag one group key half of the time.
            if *flag < 4 {
                let key = format!("g{flag}");
                w.mark_flagged([key.as_str()]);
                model.flag(&key);
            }
            let (table, grouping) = w.materialize().unwrap();
            let want = model.rebuild();
            assert_same_table(&table, &want);
            prop_assert_eq!(w.n_rows(), want.len());
            let want_grouping = group_by(&want, &[0]).unwrap();
            prop_assert_eq!(grouping.all_rows(), want_grouping.all_rows());
            for i in 0..grouping.len() {
                prop_assert_eq!(grouping.key(i), want_grouping.key(i));
            }
        }
    }

    /// A 1,000-tick stream with a new group key each tick, and explain
    /// values that appear, vanish and come back: no window dictionary
    /// ever holds more slots, freed ones included, than the most
    /// distinct values the resident chunks held at once.
    #[test]
    fn window_dictionaries_stay_bounded(
        capacity in 1usize..8,
        keep in 0usize..4,
        flag_every in 2usize..9,
        seed in any::<u64>(),
    ) {
        let mut cfg = StreamConfig::new(wide_schema(), 0, 2, capacity).unwrap();
        if keep > 0 {
            cfg = cfg.with_compaction(keep).unwrap();
        }
        let mut w = SlidingWindow::new(cfg, aggregate_by_name("avg").unwrap());
        let mut state = seed;
        let mut draw = |m: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % m
        };
        let mut peak = [0usize; 5];
        for tick in 0..1000u64 {
            let rows: Vec<WideRow> = (0..1 + draw(4))
                .map(|_| {
                    // The explain values drift through a 12-value domain.
                    let s = ((tick / 8 + draw(3)) % 12) as usize;
                    (tick as usize, s, draw(3) as usize, draw(100) as f64, 0)
                })
                .collect();
            w.push_chunk(wide_rows(&rows)).unwrap();
            if tick % flag_every as u64 == 0 {
                w.mark_flagged([format!("g{tick}").as_str()]);
            }
            let (table, _) = w.materialize().unwrap();
            for a in WIDE_DISCRETE {
                peak[a] = peak[a].max(table.cat(a).unwrap().cardinality());
            }
        }
        for a in WIDE_DISCRETE {
            prop_assert!(
                w.dictionary_slots(a) <= peak[a],
                "attribute {}: {} slots, at most {} distinct resident values",
                a,
                w.dictionary_slots(a),
                peak[a]
            );
        }
        prop_assert_eq!(w.dictionary_slots(2), 0, "continuous attributes have no dictionary");
    }
}
