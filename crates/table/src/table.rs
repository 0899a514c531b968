//! The in-memory columnar table and its row-oriented builder.

use crate::column::{CatColumn, Column};
use crate::error::{Result, TableError};
use crate::schema::{AttrType, Schema};
use crate::value::Value;

/// An immutable, in-memory columnar relation.
///
/// This is the `D` of the paper's problem statement (§3.1): a single
/// relational table over which the group-by query runs and against which
/// explanation predicates are evaluated. Join queries are modeled by
/// materializing the join result into one `Table`, exactly as the paper
/// prescribes.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    len: usize,
}

impl Table {
    /// Builds a table from whole columns, one per schema attribute and
    /// in schema order. Errors when the column count or a column's type
    /// disagrees with the schema, or the columns differ in length.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Table> {
        if columns.len() != schema.len() {
            return Err(TableError::ArityMismatch { expected: schema.len(), got: columns.len() });
        }
        let len = columns.first().map_or(0, Column::len);
        for (field, column) in schema.iter().zip(&columns) {
            match (field.ty(), column) {
                (AttrType::Continuous, Column::Num(_)) | (AttrType::Discrete, Column::Cat(_)) => {}
                (ty, _) => {
                    return Err(TableError::TypeMismatch {
                        attr: field.name().to_owned(),
                        expected: type_name(ty),
                    })
                }
            }
            if column.len() != len {
                return Err(TableError::InvalidColumn(format!(
                    "column `{}` has {} rows, the first column has {len}",
                    field.name(),
                    column.len()
                )));
            }
        }
        Ok(Table { schema, columns, len })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resolves an attribute name to its index.
    pub fn attr(&self, name: &str) -> Result<usize> {
        self.schema.index_of(name)
    }

    /// Approximate resident bytes of the columnar payload: 8 per `f64`
    /// cell, 4 per dictionary code, plus the interned dictionary
    /// strings. A monitoring gauge, not an allocator-exact measure.
    pub fn approx_bytes(&self) -> u64 {
        self.columns
            .iter()
            .map(|c| match c {
                Column::Num(v) => 8 * v.len() as u64,
                Column::Cat(c) => {
                    let dict: u64 =
                        (0..c.cardinality() as u32).map(|i| c.value_of(i).len() as u64 + 24).sum();
                    4 * c.codes().len() as u64 + dict
                }
            })
            .sum()
    }

    /// The column at attribute index `i`.
    pub fn column(&self, i: usize) -> Result<&Column> {
        self.columns
            .get(i)
            .ok_or(TableError::AttributeOutOfBounds { index: i, len: self.columns.len() })
    }

    /// Borrows the continuous column at index `i`. The type-mismatch
    /// error string is only built on the failure path — this accessor is
    /// on several hot paths and must not allocate on success.
    pub fn num(&self, i: usize) -> Result<&[f64]> {
        match self.column(i)? {
            Column::Num(v) => Ok(v),
            Column::Cat(_) => Err(TableError::TypeMismatch {
                attr: self.schema.field(i)?.name().to_owned(),
                expected: "continuous",
            }),
        }
    }

    /// Borrows the discrete column at index `i` (allocation-free on
    /// success, like [`Table::num`]).
    pub fn cat(&self, i: usize) -> Result<&CatColumn> {
        match self.column(i)? {
            Column::Cat(c) => Ok(c),
            Column::Num(_) => Err(TableError::TypeMismatch {
                attr: self.schema.field(i)?.name().to_owned(),
                expected: "discrete",
            }),
        }
    }

    /// The cell at (`row`, `attr`) as a dynamically typed value.
    pub fn value(&self, row: usize, attr: usize) -> Result<Value> {
        if row >= self.len {
            return Err(TableError::RowOutOfBounds { index: row, len: self.len });
        }
        Ok(self.column(attr)?.value(row))
    }

    /// Materializes the sub-table containing exactly `rows` (in order)
    /// as a columnar gather: `f64` cells are copied slice-to-slice and
    /// dictionary codes are remapped in bulk — no per-cell [`Value`]
    /// boxing, no per-cell string hashing. Dictionary codes are
    /// re-interned in first-appearance order of the selected rows, so
    /// the result is self-contained and identical to a row-by-row
    /// rebuild.
    pub fn select_rows(&self, rows: &[u32]) -> Result<Table> {
        for &r in rows {
            if r as usize >= self.len {
                return Err(TableError::RowOutOfBounds { index: r as usize, len: self.len });
            }
        }
        let columns = self
            .columns
            .iter()
            .map(|c| match c {
                Column::Num(v) => Column::Num(rows.iter().map(|&r| v[r as usize]).collect()),
                Column::Cat(c) => Column::Cat(c.gather(rows)),
            })
            .collect();
        Ok(Table { schema: self.schema.clone(), columns, len: rows.len() })
    }
}

/// Row-oriented builder producing a [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Column>,
    len: usize,
}

impl TableBuilder {
    /// Creates a builder for the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema.iter().map(|f| Column::empty(f.ty())).collect();
        TableBuilder { schema, columns, len: 0 }
    }

    /// Reserves capacity for `additional` more rows in every column.
    pub fn reserve(&mut self, additional: usize) {
        for c in &mut self.columns {
            match c {
                Column::Num(v) => v.reserve(additional),
                Column::Cat(_) => {}
            }
        }
    }

    /// Appends one row; values must match the schema's arity and types.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Value>) -> Result<()> {
        let row: Vec<Value> = row.into_iter().collect();
        if row.len() != self.schema.len() {
            return Err(TableError::ArityMismatch { expected: self.schema.len(), got: row.len() });
        }
        // Validate all cells before mutating any column so a failed push
        // leaves the builder unchanged.
        for (i, v) in row.iter().enumerate() {
            let field = self.schema.field(i)?;
            let ok = matches!(
                (field.ty(), v),
                (AttrType::Continuous, Value::Num(_)) | (AttrType::Discrete, Value::Str(_))
            );
            if !ok {
                return Err(TableError::TypeMismatch {
                    attr: field.name().to_owned(),
                    expected: type_name(field.ty()),
                });
            }
        }
        for (i, v) in row.into_iter().enumerate() {
            match (&mut self.columns[i], v) {
                (Column::Num(col), Value::Num(x)) => col.push(x),
                (Column::Cat(col), Value::Str(s)) => col.push(&s),
                _ => unreachable!("validated above"),
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finalizes the table.
    pub fn build(self) -> Table {
        Table { schema: self.schema, columns: self.columns, len: self.len }
    }
}

/// The name a type-mismatch error gives the expected attribute type.
fn type_name(ty: AttrType) -> &'static str {
    match ty {
        AttrType::Continuous => "continuous",
        AttrType::Discrete => "discrete",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![Field::disc("sensor"), Field::cont("temp")]).unwrap()
    }

    fn sample() -> Table {
        let mut b = TableBuilder::new(schema());
        b.push_row(vec![Value::from("s1"), Value::from(34.0)]).unwrap();
        b.push_row(vec![Value::from("s2"), Value::from(35.0)]).unwrap();
        b.push_row(vec![Value::from("s1"), Value::from(100.0)]).unwrap();
        b.build()
    }

    #[test]
    fn build_and_access() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.num(1).unwrap(), &[34.0, 35.0, 100.0]);
        assert_eq!(t.cat(0).unwrap().codes(), &[0, 1, 0]);
        assert_eq!(t.value(2, 0).unwrap(), Value::Str("s1".into()));
        assert_eq!(t.value(2, 1).unwrap(), Value::Num(100.0));
        assert_eq!(t.attr("temp").unwrap(), 1);
    }

    #[test]
    fn arity_mismatch_rejected_atomically() {
        let mut b = TableBuilder::new(schema());
        assert!(matches!(
            b.push_row(vec![Value::from("s1")]),
            Err(TableError::ArityMismatch { expected: 2, got: 1 })
        ));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn type_mismatch_rejected_atomically() {
        let mut b = TableBuilder::new(schema());
        let res = b.push_row(vec![Value::from(1.0), Value::from(2.0)]);
        assert!(matches!(res, Err(TableError::TypeMismatch { .. })));
        assert!(b.is_empty());
        // A valid push still works afterwards.
        b.push_row(vec![Value::from("ok"), Value::from(2.0)]).unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn from_columns_matches_the_row_builder() {
        let cat = CatColumn::from_parts(vec![0, 1, 0], vec!["s1".into(), "s2".into()]).unwrap();
        let t = Table::from_columns(
            schema(),
            vec![Column::Cat(cat), Column::Num(vec![34.0, 35.0, 100.0])],
        )
        .unwrap();
        let want = sample();
        assert_eq!(t.len(), want.len());
        assert_eq!(t.num(1).unwrap(), want.num(1).unwrap());
        assert_eq!(t.cat(0).unwrap().codes(), want.cat(0).unwrap().codes());
        assert_eq!(t.value(1, 0).unwrap(), Value::Str("s2".into()));
    }

    #[test]
    fn from_columns_rejects_inconsistent_columns() {
        let cat = || Column::Cat(CatColumn::from_parts(vec![0], vec!["s1".into()]).unwrap());
        assert!(matches!(
            Table::from_columns(schema(), vec![cat()]),
            Err(TableError::ArityMismatch { expected: 2, got: 1 })
        ));
        assert!(matches!(
            Table::from_columns(schema(), vec![Column::Num(vec![1.0]), Column::Num(vec![2.0])]),
            Err(TableError::TypeMismatch { expected: "discrete", .. })
        ));
        assert!(matches!(
            Table::from_columns(schema(), vec![cat(), Column::Num(vec![1.0, 2.0])]),
            Err(TableError::InvalidColumn(_))
        ));
        let empty = Table::from_columns(Schema::new(vec![]).unwrap(), vec![]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn select_rows_preserves_values() {
        let t = sample();
        let s = t.select_rows(&[2, 0]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.num(1).unwrap(), &[100.0, 34.0]);
        assert_eq!(s.value(0, 0).unwrap(), Value::Str("s1".into()));
        assert_eq!(s.value(1, 0).unwrap(), Value::Str("s1".into()));
    }

    #[test]
    fn select_rows_out_of_bounds() {
        let t = sample();
        assert!(matches!(t.select_rows(&[5]), Err(TableError::RowOutOfBounds { .. })));
    }

    #[test]
    fn out_of_bounds_cell_access() {
        let t = sample();
        assert!(t.value(99, 0).is_err());
        assert!(t.value(0, 99).is_err());
        assert!(t.column(99).is_err());
    }
}
