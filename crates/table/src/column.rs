//! Columnar storage: unboxed `f64` columns and dictionary-encoded
//! categorical columns.

use crate::error::{Result, TableError};
use crate::schema::AttrType;
use crate::value::Value;
use std::collections::HashMap;

/// A dictionary-encoded categorical column.
///
/// Every distinct string is interned once and rows store compact `u32`
/// codes. Codes are assigned in first-appearance order and are stable for
/// the lifetime of the column, which lets predicates hold code sets rather
/// than strings.
#[derive(Debug, Clone, Default)]
pub struct CatColumn {
    codes: Vec<u32>,
    dict: Vec<String>,
    index: HashMap<String, u32>,
}

impl CatColumn {
    /// Creates an empty categorical column.
    pub fn new() -> Self {
        CatColumn::default()
    }

    /// Builds a column from per-row `codes` and the dictionary they
    /// index (code `i` stands for `dict[i]`). Errors when a code has no
    /// dictionary entry or the dictionary holds a value twice; entries
    /// no row uses are allowed, as after [`CatColumn::intern`].
    pub fn from_parts(codes: Vec<u32>, dict: Vec<String>) -> Result<CatColumn> {
        let n = u32::try_from(dict.len())
            .map_err(|_| TableError::InvalidColumn("dictionary exceeds u32 codes".to_owned()))?;
        if let Some(&c) = codes.iter().find(|&&c| c >= n) {
            return Err(TableError::InvalidColumn(format!(
                "code {c} has no entry in a {n}-value dictionary"
            )));
        }
        let mut index = HashMap::with_capacity(dict.len());
        for (code, value) in (0..n).zip(&dict) {
            if index.insert(value.clone(), code).is_some() {
                return Err(TableError::InvalidColumn(format!("dictionary holds `{value}` twice")));
            }
        }
        Ok(CatColumn { codes, dict, index })
    }

    /// Interns `value` (if new) and returns its code without appending a row.
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&c) = self.index.get(value) {
            return c;
        }
        let code = self.dict.len() as u32;
        self.dict.push(value.to_owned());
        self.index.insert(value.to_owned(), code);
        code
    }

    /// Appends a row with the given string value.
    pub fn push(&mut self, value: &str) {
        let code = self.intern(value);
        self.codes.push(code);
    }

    /// The code of `value`, if it has been seen.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// The string for `code`. Panics if the code was never assigned.
    pub fn value_of(&self, code: u32) -> &str {
        &self.dict[code as usize]
    }

    /// Per-row codes, each below [`CatColumn::cardinality`].
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of distinct values interned so far.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// Gathers the given rows into a fresh, self-contained column.
    ///
    /// Codes are remapped through a dense old→new table instead of
    /// re-hashing each row's string; the new dictionary is assigned in
    /// first-appearance order of `rows`, exactly as pushing the string
    /// values one row at a time would.
    pub fn gather(&self, rows: &[u32]) -> CatColumn {
        const UNMAPPED: u32 = u32::MAX;
        let mut map = vec![UNMAPPED; self.dict.len()];
        let mut out = CatColumn::new();
        out.codes.reserve(rows.len());
        for &r in rows {
            let old = self.codes[r as usize];
            let new = &mut map[old as usize];
            if *new == UNMAPPED {
                *new = out.intern(&self.dict[old as usize]);
            }
            out.codes.push(*new);
        }
        out
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }
}

/// A typed column of values.
#[derive(Debug, Clone)]
pub enum Column {
    /// Continuous storage.
    Num(Vec<f64>),
    /// Discrete (dictionary-encoded) storage.
    Cat(CatColumn),
}

impl Column {
    /// An empty column of the storage `ty` uses.
    pub(crate) fn empty(ty: AttrType) -> Column {
        match ty {
            AttrType::Continuous => Column::Num(Vec::new()),
            AttrType::Discrete => Column::Cat(CatColumn::new()),
        }
    }

    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Num(v) => v.len(),
            Column::Cat(c) => c.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows the numeric data, or errors for categorical columns.
    pub fn as_num(&self, attr_name: &str) -> Result<&[f64]> {
        match self {
            Column::Num(v) => Ok(v),
            Column::Cat(_) => {
                Err(TableError::TypeMismatch { attr: attr_name.to_owned(), expected: "continuous" })
            }
        }
    }

    /// Borrows the categorical data, or errors for numeric columns.
    pub fn as_cat(&self, attr_name: &str) -> Result<&CatColumn> {
        match self {
            Column::Cat(c) => Ok(c),
            Column::Num(_) => {
                Err(TableError::TypeMismatch { attr: attr_name.to_owned(), expected: "discrete" })
            }
        }
    }

    /// The cell at `row` as a dynamically typed [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Num(v) => Value::Num(v[row]),
            Column::Cat(c) => Value::Str(c.value_of(c.codes()[row]).to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cat_column_interning_is_stable() {
        let mut c = CatColumn::new();
        c.push("DC");
        c.push("NY");
        c.push("DC");
        assert_eq!(c.len(), 3);
        assert_eq!(c.cardinality(), 2);
        assert_eq!(c.codes(), &[0, 1, 0]);
        assert_eq!(c.code_of("DC"), Some(0));
        assert_eq!(c.code_of("NY"), Some(1));
        assert_eq!(c.code_of("CA"), None);
        assert_eq!(c.value_of(1), "NY");
    }

    #[test]
    fn intern_without_push_does_not_add_rows() {
        let mut c = CatColumn::new();
        let code = c.intern("x");
        assert_eq!(code, 0);
        assert!(c.is_empty());
        assert_eq!(c.cardinality(), 1);
        // Re-interning returns the same code.
        assert_eq!(c.intern("x"), 0);
    }

    #[test]
    fn gather_reinterns_in_first_appearance_order() {
        let mut c = CatColumn::new();
        for v in ["DC", "NY", "CA", "NY", "DC"] {
            c.push(v);
        }
        // Select rows so "NY" appears first: its new code must be 0.
        let g = c.gather(&[3, 4, 1]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.cardinality(), 2);
        assert_eq!(g.codes(), &[0, 1, 0]);
        assert_eq!(g.value_of(0), "NY");
        assert_eq!(g.value_of(1), "DC");
        assert_eq!(g.code_of("CA"), None);
        // Empty gathers produce empty, usable columns.
        let e = c.gather(&[]);
        assert!(e.is_empty());
        assert_eq!(e.cardinality(), 0);
    }

    #[test]
    fn from_parts_validates_codes_and_dictionary() {
        let c = CatColumn::from_parts(vec![1, 0, 1], vec!["NY".into(), "DC".into()]).unwrap();
        assert_eq!(c.codes(), &[1, 0, 1]);
        assert_eq!(c.code_of("DC"), Some(1));
        assert_eq!(c.value_of(0), "NY");
        // An entry no row uses is allowed, as after `intern`.
        let unused = CatColumn::from_parts(vec![], vec!["x".into()]).unwrap();
        assert_eq!((unused.len(), unused.cardinality()), (0, 1));
        let bad = CatColumn::from_parts(vec![0, 2], vec!["a".into(), "b".into()]);
        assert!(matches!(bad, Err(TableError::InvalidColumn(_))));
        let twice = CatColumn::from_parts(vec![0], vec!["a".into(), "a".into()]);
        assert!(matches!(twice, Err(TableError::InvalidColumn(_))));
    }

    #[test]
    fn column_type_guards() {
        let num = Column::Num(vec![1.0, 2.0]);
        assert!(num.as_num("a").is_ok());
        assert!(matches!(num.as_cat("a"), Err(TableError::TypeMismatch { .. })));
        let mut cc = CatColumn::new();
        cc.push("v");
        let cat = Column::Cat(cc);
        assert!(cat.as_cat("b").is_ok());
        assert!(matches!(cat.as_num("b"), Err(TableError::TypeMismatch { .. })));
    }

    #[test]
    fn column_value_round_trip() {
        let num = Column::Num(vec![4.5]);
        assert_eq!(num.value(0), Value::Num(4.5));
        let mut cc = CatColumn::new();
        cc.push("hello");
        let cat = Column::Cat(cc);
        assert_eq!(cat.value(0), Value::Str("hello".into()));
        assert_eq!(num.len(), 1);
        assert_eq!(cat.len(), 1);
    }
}
