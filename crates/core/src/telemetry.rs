//! Dogfooding bridge: flight-recorder events as an explainable relation.
//!
//! `scorpion-obs` owns the bounded ring of [`TelemetryEvent`]s but is
//! deliberately dependency-free, so it cannot see `scorpion-table`.
//! This module closes the loop: it maps a run's [`Diagnostics`] into an
//! event ([`apply_diagnostics`]), materializes a batch of events as a
//! [`Table`] whose categorical columns are the request dimensions and
//! whose numeric columns are the costs ([`events_to_table`], surfaced as
//! [`TelemetryTable::to_table`] on the global recorder), and round-trips
//! that table through CSV ([`table_csv`], [`telemetry_table_from_csv`])
//! so `scorpion audit` can explain an offline dump exactly the way
//! `GET /debug/slow` explains the live ring.

use crate::error::Result;
use crate::result::Diagnostics;
use scorpion_obs::{CacheHit, Telemetry, TelemetryEvent};
use scorpion_table::csv::parse_csv_with_schema;
/// Renders any table as CSV — the `GET /debug/telemetry?format=csv`
/// body and the format `scorpion audit --telemetry-csv` reads back.
pub use scorpion_table::csv::table_csv;
use scorpion_table::{Field, Schema, Table, TableBuilder, Value};
use std::collections::BTreeSet;

/// The per-event key column: `t<trace_id>`, unique per row. Never a
/// predicate dimension — it identifies rows, it does not explain them.
pub const REQ_COLUMN: &str = "req";

/// The arrival-order slice column: `s<n>`, where `n` is the event's
/// batch position divided by [`SLICE_WIDTH`]. The self-explain pipeline
/// groups by this column — `SELECT avg(latency_ms) … GROUP BY slice` —
/// so each aggregate result covers several adjacent requests, and a
/// slow slice contains both its offending and its normal tuples (the
/// within-group contrast the DT partitioner splits on, exactly the
/// paper's outlier-group shape).
pub const SLICE_COLUMN: &str = "slice";

/// Events per [`SLICE_COLUMN`] slice.
pub const SLICE_WIDTH: usize = 8;

/// The numeric measure the self-explain pipeline aggregates.
pub const LATENCY_COLUMN: &str = "latency_ms";

/// Prefix of the dynamic per-phase columns (`phase.<name>_us`).
pub const PHASE_COLUMN_PREFIX: &str = "phase.";

/// Fixed categorical dimension columns, in table order.
const DIM_COLUMNS: [&str; 8] = [
    "endpoint",
    "table",
    "algorithm",
    "aggregate",
    "status",
    "plan_cache",
    "influence_cache",
    "mask_cache",
];

/// Fixed numeric columns (besides the per-phase tail), in table order.
const NUM_COLUMNS: [&str; 6] =
    ["generation", "queue_wait_us", "rows_scanned", "resident_bytes", "predicates", LATENCY_COLUMN];

/// True when a telemetry column of this name holds numbers — the rule
/// [`telemetry_table_from_csv`] uses to rebuild the schema from a
/// header row (everything else, `status` included, stays categorical).
pub fn is_numeric_column(name: &str) -> bool {
    NUM_COLUMNS.contains(&name) || name.starts_with(PHASE_COLUMN_PREFIX)
}

/// Copies a run's engine-side facts into a flight-recorder event: the
/// resolved algorithm, influence/mask-cache observations (the mask
/// cache reads `off` for a run that looked up no clause mask), per-phase
/// microseconds, window residency, and (if the event has none yet) the
/// trace id. Surface-side fields — endpoint, table, status, queue wait,
/// total latency — stay whatever the caller put there.
pub fn apply_diagnostics(mut event: TelemetryEvent, d: &Diagnostics) -> TelemetryEvent {
    event.algorithm = d.algorithm.to_owned();
    event.influence_cache = CacheHit::from_flag(d.cache_hits > 0);
    event.mask_cache = if d.mask_cache_lookups == 0 {
        CacheHit::Off
    } else {
        CacheHit::from_flag(d.mask_cache_hits > 0)
    };
    event.resident_bytes = d.resident_bytes;
    event.phases_us = d.phases.iter().map(|p| (p.name, p.nanos / 1_000)).collect();
    if event.trace_id == 0 {
        event.trace_id = d.trace_id;
    }
    event
}

/// Materializes events as a relation: one row per event, categorical
/// dimensions first (`req`, `slice`, endpoint, table, algorithm,
/// aggregate, status, cache flags), then numeric measures (generation, queue wait,
/// rows scanned, resident bytes, predicate count, `latency_ms`), then
/// one `phase.<name>_us` column per phase name appearing anywhere in
/// the batch (0 where a run lacks the phase).
pub fn events_to_table(events: &[TelemetryEvent]) -> Result<Table> {
    let phase_names: BTreeSet<&'static str> =
        events.iter().flat_map(|e| e.phases_us.iter().map(|&(n, _)| n)).collect();
    let mut fields = vec![Field::disc(REQ_COLUMN), Field::disc(SLICE_COLUMN)];
    fields.extend(DIM_COLUMNS.iter().map(|&n| Field::disc(n)));
    fields.extend(NUM_COLUMNS.iter().map(|&n| Field::cont(n)));
    fields.extend(phase_names.iter().map(|n| Field::cont(format!("{PHASE_COLUMN_PREFIX}{n}_us"))));
    let mut b = TableBuilder::new(Schema::new(fields)?);
    b.reserve(events.len());
    for (pos, e) in events.iter().enumerate() {
        let mut row: Vec<Value> = Vec::with_capacity(16 + phase_names.len());
        row.push(format!("t{}", e.trace_id).into());
        row.push(format!("s{:04}", pos / SLICE_WIDTH).into());
        row.push(e.endpoint.as_str().into());
        row.push(e.table.as_str().into());
        row.push(e.algorithm.as_str().into());
        row.push(e.aggregate.as_str().into());
        row.push(e.status.to_string().into());
        row.push(e.plan_cache.as_str().into());
        row.push(e.influence_cache.as_str().into());
        row.push(e.mask_cache.as_str().into());
        row.push((e.generation as f64).into());
        row.push((e.queue_wait_us as f64).into());
        row.push((e.rows_scanned as f64).into());
        row.push((e.resident_bytes as f64).into());
        row.push((e.predicates as f64).into());
        row.push((e.total_us as f64 / 1_000.0).into());
        for name in &phase_names {
            let us = e.phases_us.iter().find(|&&(n, _)| n == *name).map_or(0, |&(_, us)| us);
            row.push((us as f64).into());
        }
        b.push_row(row)?;
    }
    Ok(b.build())
}

/// The flight recorder as a relation the engine can explain.
pub trait TelemetryTable {
    /// Materializes the resident events (oldest first) via
    /// [`events_to_table`]. Row count equals the number of resident
    /// events: `min(recorded, capacity)` once writers quiesce.
    fn to_table(&self) -> Result<Table>;
}

impl TelemetryTable for Telemetry {
    fn to_table(&self) -> Result<Table> {
        events_to_table(&self.snapshot())
    }
}

/// Parses a telemetry CSV dump back into the [`events_to_table`] shape,
/// deriving each column's type from its name via [`is_numeric_column`]
/// (type inference alone would misread `status` — `"200"` — and
/// all-numeric trace keys as continuous).
pub fn telemetry_table_from_csv(text: &str) -> Result<Table> {
    let header = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .ok_or(scorpion_table::TableError::Empty("telemetry CSV"))?;
    let fields: Vec<Field> = header
        .split(',')
        .map(|raw| {
            let name = raw.trim();
            if is_numeric_column(name) {
                Field::cont(name)
            } else {
                Field::disc(name)
            }
        })
        .collect();
    Ok(parse_csv_with_schema(text, Schema::new(fields)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpion_obs::{telemetry, PhaseTiming};
    use scorpion_table::AttrType;
    use std::sync::Mutex;

    fn event(id: u64, algo: &str, ms: u64) -> TelemetryEvent {
        let mut e = TelemetryEvent::blank(id, "explain");
        e.table = "sensors".into();
        e.algorithm = algo.into();
        e.aggregate = "avg".into();
        e.status = 200;
        e.total_us = ms * 1_000;
        e.phases_us = vec![("run.score", ms * 900), ("run.merge", ms * 100)];
        e
    }

    #[test]
    fn events_round_trip_through_table_and_csv() {
        let events = vec![event(1, "dt", 2), event(2, "naive", 80)];
        let t = events_to_table(&events).unwrap();
        assert_eq!(t.len(), 2);
        // Dimensions are categorical — `status` included.
        assert_eq!(t.schema().field(t.attr("status").unwrap()).unwrap().ty(), AttrType::Discrete);
        assert_eq!(t.value(1, t.attr("req").unwrap()).unwrap().as_str(), Some("t2"));
        assert_eq!(t.value(1, t.attr("latency_ms").unwrap()).unwrap().as_num(), Some(80.0));
        assert_eq!(
            t.value(0, t.attr("phase.run.score_us").unwrap()).unwrap().as_num(),
            Some(1_800.0)
        );

        let csv = table_csv(&t).unwrap();
        let back = telemetry_table_from_csv(&csv).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.schema().len(), t.schema().len());
        for attr in 0..t.schema().len() {
            assert_eq!(
                back.schema().field(attr).unwrap().ty(),
                t.schema().field(attr).unwrap().ty(),
                "column {attr} type survives the round trip"
            );
            for row in 0..t.len() {
                assert_eq!(back.value(row, attr).unwrap(), t.value(row, attr).unwrap());
            }
        }
    }

    #[test]
    fn table_names_with_newlines_and_commas_round_trip() {
        let name = "two\nlines, one comma";
        let mut e = event(1, "dt", 2);
        e.table = name.into();
        let t = events_to_table(&[e, event(2, "naive", 80)]).unwrap();
        let csv = table_csv(&t).unwrap();
        let back = telemetry_table_from_csv(&csv).unwrap();
        assert_eq!(back.value(0, back.attr("table").unwrap()).unwrap().as_str(), Some(name));
        // The writer is exact, so equal text means equal tables.
        assert_eq!(table_csv(&back).unwrap(), csv);
    }

    #[test]
    fn apply_diagnostics_copies_engine_facts() {
        let d = Diagnostics {
            algorithm: "mc",
            trace_id: 7,
            cache_hits: 3,
            mask_cache_lookups: 2,
            mask_cache_hits: 0,
            resident_bytes: 1024,
            phases: vec![PhaseTiming { name: "mc.units", nanos: 5_000, count: 1 }],
            ..Default::default()
        };
        let e = apply_diagnostics(TelemetryEvent::blank(0, "cli.explain"), &d);
        assert_eq!(e.trace_id, 7);
        assert_eq!(e.algorithm, "mc");
        assert_eq!(e.influence_cache, CacheHit::Hit);
        assert_eq!(e.mask_cache, CacheHit::Miss);
        assert_eq!(e.resident_bytes, 1024);
        assert_eq!(e.phases_us, vec![("mc.units", 5)]);
        // An event that already has an id keeps it.
        let mut pre = TelemetryEvent::blank(9, "explain");
        pre = apply_diagnostics(pre, &d);
        assert_eq!(pre.trace_id, 9);
        // Any hit reads `hit`; a run that looked up no clause mask reads
        // `off`, not `miss`.
        let hit = Diagnostics { mask_cache_hits: 1, ..d.clone() };
        assert_eq!(
            apply_diagnostics(TelemetryEvent::blank(0, "x"), &hit).mask_cache,
            CacheHit::Hit
        );
        let none = Diagnostics { mask_cache_lookups: 0, ..d };
        assert_eq!(
            apply_diagnostics(TelemetryEvent::blank(0, "x"), &none).mask_cache,
            CacheHit::Off
        );
    }

    // The ring is process-global; serialize tests that touch it.
    static RING_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn to_table_row_count_tracks_resident_events_post_wrap() {
        let _g = RING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        telemetry().enable_with_capacity(8);
        telemetry().clear();
        let cap = telemetry().capacity() as u64;
        // Fewer events than capacity: one row per recorded event.
        for i in 0..cap - 2 {
            telemetry().record(event(i + 1, "dt", 1));
        }
        assert_eq!(telemetry().to_table().unwrap().len() as u64, cap - 2);
        // Wrap the ring: row count pins to the bound.
        for i in 0..cap * 3 {
            telemetry().record(event(100 + i, "dt", 1));
        }
        assert_eq!(telemetry().recorded(), cap - 2 + cap * 3);
        assert_eq!(telemetry().to_table().unwrap().len() as u64, cap);
        telemetry().disable();
        telemetry().clear();
    }
}
