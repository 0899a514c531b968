//! SQL-driven query preparation: parse → select → group → aggregate →
//! label, mirroring the end-to-end flow of the paper's system (Figure 2):
//! the user runs an aggregate query, sees the result series, and labels
//! result indices.

use crate::error::{Result, ScorpionError};
use scorpion_agg::{aggregate_by_name, Aggregate};
use scorpion_table::{
    aggregate_groups, apply_selection, group_by, parse_query, Grouping, Table, TableError,
};
use std::sync::Arc;

/// A parsed, executed aggregate query ready for labeling.
pub struct PreparedQuery {
    /// The (possibly WHERE-materialized) input relation `D`.
    pub table: Table,
    /// Grouping over `A_gb` — also the provenance mapping.
    pub grouping: Grouping,
    /// The resolved aggregate operator.
    pub agg: Arc<dyn Aggregate>,
    /// Aggregate attribute index in `table`.
    pub agg_attr: usize,
    /// The aggregate result series, in group order (what the user's chart
    /// shows).
    pub results: Vec<f64>,
}

impl PreparedQuery {
    /// Parses and executes a select-project-group-by query against
    /// `source`. WHERE clauses are materialized into a fresh table, as
    /// §3.1 models selections.
    pub fn new(source: &Table, sql: &str) -> Result<Self> {
        let parsed = parse_query(sql)?;
        let agg = aggregate_by_name(&parsed.agg_name)
            .ok_or_else(|| ScorpionError::UnknownAggregate { name: parsed.agg_name.clone() })?;
        let table = if parsed.selection.is_empty() {
            source.clone()
        } else {
            let rows = apply_selection(source, &parsed.selection)?;
            source.select_rows(&rows)?
        };
        if table.is_empty() {
            return Err(ScorpionError::Table(TableError::Empty("selected input")));
        }
        let gb_attrs: Vec<usize> = parsed
            .group_by
            .iter()
            .map(|name| table.attr(name))
            .collect::<std::result::Result<_, _>>()?;
        let agg_attr = table.attr(&parsed.agg_attr)?;
        let grouping = group_by(&table, &gb_attrs)?;
        let agg_ref = agg.clone();
        let results = aggregate_groups(&table, &grouping, agg_attr, move |v| agg_ref.compute(v))?;
        Ok(PreparedQuery { table, grouping, agg, agg_attr, results })
    }

    /// Convenience auto-labeling for exploration: flags the `k` results
    /// whose values deviate most from the median as outliers (error = sign
    /// of the deviation) and up to `k` of the closest as hold-outs — the
    /// two sets are always disjoint, so tiny result series (down to a
    /// single result) never produce overlapping labels. Real users label
    /// through a chart; this mirrors that for scripted runs.
    pub fn label_extremes(&self, k: usize) -> (Vec<(usize, f64)>, Vec<usize>) {
        crate::request::label_extremes(&self.results, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ExplainRequest;
    use scorpion_table::{Field, Schema, TableBuilder};

    /// Labels result indices of `q` and builds the request Scorpion
    /// consumes.
    fn labeled(
        q: PreparedQuery,
        outliers: Vec<(usize, f64)>,
        holdouts: Vec<usize>,
    ) -> Result<ExplainRequest> {
        let (table, grouping) = (Arc::new(q.table), Arc::new(q.grouping));
        ExplainRequest::from_parts(table, grouping, q.agg, q.agg_attr, outliers, holdouts)
    }

    fn sensors() -> Table {
        let schema = Schema::new(vec![
            Field::disc("time"),
            Field::disc("sensorid"),
            Field::cont("voltage"),
            Field::cont("temp"),
        ])
        .unwrap();
        let rows: [(&str, &str, f64, f64); 9] = [
            ("11AM", "1", 2.64, 34.0),
            ("11AM", "2", 2.65, 35.0),
            ("11AM", "3", 2.63, 35.0),
            ("12PM", "1", 2.70, 35.0),
            ("12PM", "2", 2.70, 35.0),
            ("12PM", "3", 2.30, 100.0),
            ("1PM", "1", 2.70, 35.0),
            ("1PM", "2", 2.70, 35.0),
            ("1PM", "3", 2.30, 80.0),
        ];
        let mut b = TableBuilder::new(schema);
        for (t, s, v, temp) in rows {
            b.push_row(vec![t.into(), s.into(), v.into(), temp.into()]).unwrap();
        }
        b.build()
    }

    #[test]
    fn prepare_and_explain_q1() {
        let t = sensors();
        let q =
            PreparedQuery::new(&t, "SELECT avg(temp), time FROM sensors GROUP BY time").unwrap();
        assert_eq!(q.results.len(), 3);
        assert!((q.results[1] - 56.6667).abs() < 1e-3);
        let req = labeled(q, vec![(1, 1.0), (2, 1.0)], vec![0]).unwrap();
        let ex = req.explain().unwrap();
        let table = req.table();
        let sel = ex
            .best()
            .predicate
            .select(table, &(0..table.len() as u32).collect::<Vec<_>>())
            .unwrap();
        assert!(sel.contains(&5) && sel.contains(&8));
    }

    #[test]
    fn where_clause_materializes() {
        let t = sensors();
        let q = PreparedQuery::new(
            &t,
            "SELECT avg(temp) FROM sensors WHERE sensorid = '3' GROUP BY time",
        )
        .unwrap();
        assert_eq!(q.table.len(), 3);
        assert_eq!(q.results.len(), 3);
        assert!((q.results[1] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn numeric_where() {
        let t = sensors();
        let q = PreparedQuery::new(
            &t,
            "SELECT avg(temp) FROM sensors WHERE voltage >= 2.5 GROUP BY time",
        )
        .unwrap();
        // The two low-voltage readings are filtered out.
        assert_eq!(q.table.len(), 7);
        assert!(q.results.iter().all(|&v| v < 40.0));
    }

    #[test]
    fn unknown_aggregate_rejected_with_vocabulary() {
        let t = sensors();
        let err = match PreparedQuery::new(&t, "SELECT geomean(temp) FROM s GROUP BY time") {
            Err(e) => e,
            Ok(_) => panic!("geomean is not registered"),
        };
        assert!(matches!(err, ScorpionError::UnknownAggregate { .. }));
        let msg = err.to_string();
        assert!(msg.contains("geomean"), "names the offender: {msg}");
        for name in scorpion_agg::registered_names() {
            assert!(msg.contains(name), "lists {name}: {msg}");
        }
    }

    #[test]
    fn empty_selection_rejected() {
        let t = sensors();
        assert!(PreparedQuery::new(
            &t,
            "SELECT avg(temp) FROM s WHERE sensorid = 'nope' GROUP BY time"
        )
        .is_err());
    }

    #[test]
    fn label_extremes_is_disjoint_on_tiny_series() {
        // Regression: with a single result, `k` clamps to 1 and the old
        // code emitted the same index as both outlier and hold-out, so
        // `explain` always failed with OverlappingLabels.
        let t = sensors();
        let q = PreparedQuery::new(
            &t,
            "SELECT avg(temp) FROM sensors WHERE time = '12PM' GROUP BY time",
        )
        .unwrap();
        assert_eq!(q.results.len(), 1);
        let (outliers, holdouts) = q.label_extremes(1);
        assert_eq!(outliers.len(), 1);
        assert!(holdouts.is_empty(), "single result must not double-label: {holdouts:?}");
        // Labeling validates, and the downstream explain must no longer
        // be doomed to fail.
        assert!(labeled(q, outliers, holdouts).unwrap().explain().is_ok());
    }

    #[test]
    fn label_extremes_flags_the_hot_hours() {
        let t = sensors();
        let q = PreparedQuery::new(&t, "SELECT avg(temp) FROM s GROUP BY time").unwrap();
        let (outliers, holdouts) = q.label_extremes(1);
        // Median result is 50 (α3); α1 (34.7) deviates most → flagged
        // "too low" (error −1).
        assert_eq!(outliers[0].0, 0);
        assert_eq!(outliers[0].1, -1.0);
        // The hold-out is the result closest to the median (α3 itself).
        assert_eq!(holdouts, vec![2]);
    }
}
