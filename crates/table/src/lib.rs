//! # scorpion-table
//!
//! The relational substrate underlying the Scorpion reproduction: an
//! in-memory columnar table, a typed schema, the predicate language the
//! paper's explanations are expressed in, group-by query execution, and
//! backwards provenance from aggregate results to their input groups.
//!
//! The paper (Wu & Madden, *Scorpion: Explaining Away Outliers in Aggregate
//! Queries*, VLDB 2013) assumes a database plus a provenance component
//! (§4.1). This crate is that substrate, built from scratch:
//!
//! * [`Table`] / [`TableBuilder`] — columnar storage with continuous
//!   (`f64`) and discrete (dictionary-encoded) columns.
//! * [`Predicate`] / [`Clause`] — conjunctions of range and set-containment
//!   clauses, with the geometric algebra every Scorpion algorithm relies
//!   on: containment (`≺`), intersection, minimum-bounding-box union,
//!   adjacency, and box carving.
//! * [`query::group_by`] — group-by execution whose [`query::Grouping`]
//!   doubles as the provenance mapping `αᵢ → g_αᵢ`.
//! * [`RowMask`] / [`ClauseMaskCache`] — the bitmap execution layer, the
//!   one predicate evaluator: per-clause columnar kernels, word-wise
//!   conjunction, popcount and selection-vector iteration, with
//!   per-table clause-mask memoization.
//! * [`lru::LruShard`] — the least-recently-used map behind the clause,
//!   predicate and compressed-clause memos.
//!
//! ```
//! use scorpion_table::{Field, Schema, TableBuilder, Value};
//! use scorpion_table::query::{group_by, aggregate_groups};
//!
//! let schema = Schema::new(vec![Field::disc("time"), Field::cont("temp")]).unwrap();
//! let mut b = TableBuilder::new(schema);
//! b.push_row(vec![Value::from("11AM"), Value::from(34.0)]).unwrap();
//! b.push_row(vec![Value::from("12PM"), Value::from(100.0)]).unwrap();
//! let table = b.build();
//! let grouping = group_by(&table, &[0]).unwrap();
//! let means = aggregate_groups(&table, &grouping, 1, |v| {
//!     v.iter().sum::<f64>() / v.len() as f64
//! }).unwrap();
//! assert_eq!(means, vec![34.0, 100.0]);
//! ```

#![warn(missing_docs)]

mod column;
pub mod csv;
pub mod domain;
mod error;
pub mod lru;
pub mod predicate;
pub mod query;
pub mod rowmask;
mod schema;
pub mod sql;
mod table;
mod value;

pub use column::{CatColumn, Column};
pub use domain::{bin_edges, domains_of, AttrDomain};
pub use error::{Result, TableError};
pub use predicate::{Clause, Predicate};
pub use query::{aggregate_groups, group_by, group_values, GroupKey, Grouping, KeyPart};
pub use rowmask::{intersect_count_words, ClauseMaskCache, PredicateMask, RowMask};
pub use schema::{AttrType, Field, Schema};
pub use sql::{apply_selection, parse_query, Condition, ParsedQuery};
pub use table::{Table, TableBuilder};
pub use value::{OrdF64, Value};
