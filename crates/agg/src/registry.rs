//! Name-based aggregate lookup, mirroring how a query layer would resolve
//! `SELECT stddev(temp) ...` to an operator implementation.
//!
//! Recognized names (case-insensitive):
//!
//! * exact state, removable: `sum`, `count`, `avg` (alias `mean`),
//!   `stddev` (alias `std`), `variance` (alias `var`);
//! * exact state, merge-only: `min`, `max`;
//! * exact compute, no state (black-box): `median`, `count_distinct`
//!   (alias `distinct`), and the percentile family — the shorthands
//!   `p10`/`p25`/`p50`/`p75`/`p90`/`p95`/`p99`/`p999`/`p100`, any
//!   `p<digits>` spelling (1–2 digits read as hundredths, 3 as
//!   thousandths, e.g. `p87` = 0.87, `p995` = 0.995), and the explicit
//!   form `percentile:<fraction>` with a fraction in `(0, 1]` (the SQL
//!   layer lowers `percentile(col, p)` to this spelling).
//!
//! Misses return `None`; callers surface [`registered_names`] so users
//! see the vocabulary instead of a bare failure.

use crate::arithmetic::{Avg, Count, Sum};
use crate::holistic::{CountDistinct, Percentile};
use crate::order::{Max, Median, Min};
use crate::spread::{StdDev, Variance};
use crate::traits::Aggregate;
use std::sync::Arc;

/// Resolves an aggregate operator by (case-insensitive) name.
pub fn aggregate_by_name(name: &str) -> Option<Arc<dyn Aggregate>> {
    let lower = name.to_ascii_lowercase();
    let a: Arc<dyn Aggregate> = match lower.as_str() {
        "sum" => Arc::new(Sum),
        "count" => Arc::new(Count),
        "avg" | "mean" => Arc::new(Avg),
        "stddev" | "std" => Arc::new(StdDev),
        "variance" | "var" => Arc::new(Variance),
        "min" => Arc::new(Min),
        "max" => Arc::new(Max),
        "median" => Arc::new(Median),
        "count_distinct" | "distinct" => Arc::new(CountDistinct),
        other => Arc::new(Percentile::new(parse_percentile(other)?)?),
    };
    Some(a)
}

/// Parses the percentile spellings: `p<digits>` (1–2 digits →
/// hundredths, 3 → thousandths) and `percentile:<fraction>`.
fn parse_percentile(name: &str) -> Option<f64> {
    if let Some(frac) = name.strip_prefix("percentile:") {
        return frac.parse::<f64>().ok();
    }
    let digits = name.strip_prefix('p')?;
    if digits.is_empty() || digits.len() > 3 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let v: f64 = digits.parse().ok()?;
    Some(match digits.len() {
        3 => v / 1000.0,
        _ => v / 100.0,
    })
}

/// All registered aggregate names (canonical spellings; the open-ended
/// percentile family is represented by its common shorthands).
pub fn registered_names() -> &'static [&'static str] {
    &[
        "sum",
        "count",
        "avg",
        "stddev",
        "variance",
        "min",
        "max",
        "median",
        "count_distinct",
        "p50",
        "p90",
        "p99",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_known_names() {
        for name in registered_names() {
            let agg = aggregate_by_name(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(&agg.name(), name);
        }
    }

    #[test]
    fn aliases_and_case() {
        assert_eq!(aggregate_by_name("AVG").unwrap().name(), "avg");
        assert_eq!(aggregate_by_name("mean").unwrap().name(), "avg");
        assert_eq!(aggregate_by_name("std").unwrap().name(), "stddev");
        assert_eq!(aggregate_by_name("var").unwrap().name(), "variance");
        assert_eq!(aggregate_by_name("distinct").unwrap().name(), "count_distinct");
        assert_eq!(aggregate_by_name("P99").unwrap().name(), "p99");
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(aggregate_by_name("geomean").is_none());
        assert!(aggregate_by_name("p").is_none());
        assert!(aggregate_by_name("p0").is_none());
        assert!(aggregate_by_name("p1000").is_none(), "four digits is not a percentile");
        assert!(aggregate_by_name("pxx").is_none());
        assert!(aggregate_by_name("percentile:0").is_none());
        assert!(aggregate_by_name("percentile:1.5").is_none());
        assert!(aggregate_by_name("percentile:abc").is_none());
    }

    #[test]
    fn percentile_spellings_resolve() {
        // 1-2 digits are hundredths, 3 digits are thousandths.
        assert_eq!(aggregate_by_name("p87").unwrap().name(), "percentile");
        assert_eq!(aggregate_by_name("p999").unwrap().name(), "p999");
        assert_eq!(aggregate_by_name("p5").unwrap().name(), "percentile");
        // Explicit fraction form, as lowered from SQL percentile(col, p).
        assert_eq!(aggregate_by_name("percentile:0.5").unwrap().name(), "p50");
        assert_eq!(aggregate_by_name("percentile:0.87").unwrap().name(), "percentile");
        // p50 and median agree on the lower-median convention.
        let vals = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(
            aggregate_by_name("p50").unwrap().compute(&vals),
            aggregate_by_name("median").unwrap().compute(&vals)
        );
    }

    #[test]
    fn incremental_support_matches_paper_table() {
        // §5.1: COUNT- and SUM-based arithmetic expressions are
        // incrementally removable; MAX/MIN/MEDIAN are not.
        for name in ["sum", "count", "avg", "stddev", "variance"] {
            assert!(
                aggregate_by_name(name).unwrap().incremental().is_some_and(|i| i.removable()),
                "{name} should be incrementally removable"
            );
        }
        for name in ["min", "max"] {
            assert!(
                !aggregate_by_name(name).unwrap().incremental().unwrap().removable(),
                "{name} should not be incrementally removable"
            );
        }
        for name in ["median", "p90", "count_distinct"] {
            assert!(
                aggregate_by_name(name).unwrap().incremental().is_none(),
                "{name} should not be incrementally removable"
            );
        }
    }
}
