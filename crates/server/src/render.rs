//! Shared JSON renderings of engine results.
//!
//! One home for the wire shapes of explanations and diagnostics, used
//! by both the HTTP handlers and the CLI's `--json` output — so the two
//! surfaces cannot silently diverge when a diagnostics field is added.

use crate::json::Json;
use scorpion_core::{Diagnostics, ScoredPredicate};
use scorpion_table::Table;

/// `NaN`-safe number rendering: the wire has no NaN, so degenerate
/// values become `null`.
pub fn num_or_null(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// The top-`k` ranked predicates as `[{influence, predicate}]`,
/// displayed against `table`.
pub fn explanations_json(table: &Table, predicates: &[ScoredPredicate], top: usize) -> Json {
    Json::Arr(
        predicates
            .iter()
            .take(top)
            .map(|sp| {
                Json::obj([
                    ("influence", num_or_null(sp.influence)),
                    ("predicate", Json::from(sp.predicate.display(table))),
                ])
            })
            .collect(),
    )
}

/// A [`Diagnostics`] block as a JSON object.
pub fn diagnostics_json(d: &Diagnostics) -> Json {
    let phases: Vec<Json> = d
        .phases
        .iter()
        .map(|p| {
            Json::obj([
                ("name", Json::from(p.name)),
                ("ms", Json::from(p.millis())),
                ("count", Json::from(p.count)),
            ])
        })
        .collect();
    Json::obj([
        ("trace_id", Json::from(d.trace_id)),
        ("runtime_ms", Json::from(d.runtime.as_secs_f64() * 1000.0)),
        ("scorer_calls", Json::from(d.scorer_calls)),
        ("cache_hits", Json::from(d.cache_hits)),
        ("cache_evictions", Json::from(d.cache_evictions)),
        ("mask_cache_lookups", Json::from(d.mask_cache_lookups)),
        ("mask_cache_hits", Json::from(d.mask_cache_hits)),
        ("mask_cache_entries", Json::from(d.mask_cache_entries)),
        ("candidates", Json::from(d.candidates)),
        ("candidates_pruned", Json::from(d.candidates_pruned)),
        ("approx_error_bound", d.approx_error_bound.map(num_or_null).unwrap_or(Json::Null)),
        ("approx_fallback", d.approx_fallback.map(Json::from).unwrap_or(Json::Null)),
        ("partitions", Json::from(d.partitions)),
        ("budget_exhausted", Json::from(d.budget_exhausted)),
        ("resident_rows", Json::from(d.resident_rows)),
        ("resident_bytes", Json::from(d.resident_bytes)),
        ("phases", Json::Arr(phases)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpion_table::{Field, Predicate, Schema, TableBuilder};

    #[test]
    fn renders_nan_as_null_and_caps_top() {
        let schema = Schema::new(vec![Field::cont("x")]).unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![1.0.into()]).unwrap();
        let t = b.build();
        let preds = vec![
            ScoredPredicate::new(Predicate::all(), f64::NAN),
            ScoredPredicate::new(Predicate::all(), 2.0),
        ];
        let j = explanations_json(&t, &preds, 1);
        let arr = j.as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("influence"), Some(&Json::Null));
    }

    #[test]
    fn diagnostics_encode_cleanly() {
        let d = Diagnostics {
            algorithm: "dt",
            trace_id: 42,
            scorer_calls: 7,
            mask_cache_lookups: 5,
            mask_cache_hits: 3,
            mask_cache_entries: 2,
            phases: vec![scorpion_core::PhaseTiming {
                name: "dt.split",
                nanos: 2_500_000,
                count: 4,
            }],
            ..Diagnostics::default()
        };
        let j = diagnostics_json(&d);
        assert_eq!(j.get("trace_id").and_then(Json::as_f64), Some(42.0));
        assert_eq!(j.get("approx_error_bound"), Some(&Json::Null), "exact runs render null");
        assert_eq!(j.get("candidates_pruned").and_then(Json::as_f64), Some(0.0));
        assert_eq!(j.get("scorer_calls").and_then(Json::as_f64), Some(7.0));
        assert_eq!(j.get("mask_cache_lookups").and_then(Json::as_f64), Some(5.0));
        assert_eq!(j.get("mask_cache_hits").and_then(Json::as_f64), Some(3.0));
        assert_eq!(j.get("mask_cache_entries").and_then(Json::as_f64), Some(2.0));
        let phases = j.get("phases").and_then(Json::as_array).unwrap();
        assert_eq!(phases[0].get("name").and_then(Json::as_str), Some("dt.split"));
        assert_eq!(phases[0].get("ms").and_then(Json::as_f64), Some(2.5));
        assert_eq!(phases[0].get("count").and_then(Json::as_f64), Some(4.0));
        assert!(j.encode().is_ok());
    }

    #[test]
    fn approx_diagnostics_render() {
        let d = Diagnostics {
            algorithm: "mc",
            candidates_pruned: 12,
            approx_error_bound: Some(0.25),
            approx_fallback: Some("aggregate is not incrementally removable; scored exactly"),
            ..Diagnostics::default()
        };
        let j = diagnostics_json(&d);
        assert_eq!(j.get("candidates_pruned").and_then(Json::as_f64), Some(12.0));
        assert_eq!(j.get("approx_error_bound").and_then(Json::as_f64), Some(0.25));
        assert!(j.get("approx_fallback").and_then(Json::as_str).is_some());
    }
}
