//! Group-by query execution with provenance.
//!
//! Scorpion's input is a select-project-group-by query with a single
//! aggregate (§3.1). This module materializes the grouping — which is also
//! exactly the provenance the paper's Provenance component must supply:
//! the input group `g_αᵢ` of every result tuple `αᵢ`.

use crate::column::Column;
use crate::error::{Result, TableError};
use crate::rowmask::RowMask;
use crate::table::Table;
use crate::value::OrdF64;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One component of a group key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyPart {
    /// Dictionary code of a discrete attribute.
    Code(u32),
    /// Bit-canonical continuous value.
    Num(OrdF64),
}

/// A composite group-by key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey(pub Vec<KeyPart>);

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, part) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "|")?;
            }
            match part {
                KeyPart::Code(c) => write!(f, "#{c}")?,
                KeyPart::Num(v) => write!(f, "{v}")?,
            }
        }
        Ok(())
    }
}

/// One group's shared view: its row ids as an `Arc` slice and as a row
/// bitmap over the owning table.
type SharedGroup = (Arc<[u32]>, Arc<RowMask>);

/// The result of grouping a table: keys in first-appearance order and, for
/// each key, the row ids of its input group.
#[derive(Debug, Clone)]
pub struct Grouping {
    group_attrs: Vec<usize>,
    keys: Vec<GroupKey>,
    groups: Vec<Vec<u32>>,
    /// Lazily shared views of `groups`: `Arc` row slices and row bitmaps
    /// handed to every Scorer built over this grouping, so repeated plan
    /// runs, session re-scores, and streaming rebinds stop copying each
    /// group's row ids into fresh `Vec<u32>`s.
    shared: OnceLock<Vec<SharedGroup>>,
}

impl Grouping {
    /// The attributes grouped on.
    pub fn group_attrs(&self) -> &[usize] {
        &self.group_attrs
    }

    /// Number of groups (result tuples).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the grouping has no groups.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The key of group `i`.
    pub fn key(&self, i: usize) -> &GroupKey {
        &self.keys[i]
    }

    /// The input group (row ids) of result `i` — backwards provenance.
    pub fn rows(&self, i: usize) -> &[u32] {
        &self.groups[i]
    }

    /// All input groups.
    pub fn all_rows(&self) -> &[Vec<u32>] {
        &self.groups
    }

    /// The input group of result `i` as a shared slice plus its bitmap
    /// over `0..n_rows` (the owning table's length). Built once per
    /// grouping on first use and shared by `Arc` afterwards — the
    /// zero-copy provenance handle the execution layer consumes.
    pub fn shared_group(&self, i: usize, n_rows: usize) -> (Arc<[u32]>, Arc<RowMask>) {
        let shared = self.shared.get_or_init(|| {
            self.groups
                .iter()
                .map(|rows| {
                    (Arc::from(rows.as_slice()), Arc::new(RowMask::from_rows(n_rows, rows)))
                })
                .collect()
        });
        debug_assert_eq!(shared[i].1.len(), n_rows, "grouping bound to a different table length");
        (shared[i].0.clone(), shared[i].1.clone())
    }

    /// Finds the index of the group whose key equals `key`.
    pub fn index_of(&self, key: &GroupKey) -> Option<usize> {
        self.keys.iter().position(|k| k == key)
    }

    /// Renders group `i`'s key using `table`'s dictionaries.
    pub fn display_key(&self, table: &Table, i: usize) -> String {
        let parts: Vec<String> = self.keys[i]
            .0
            .iter()
            .zip(&self.group_attrs)
            .map(|(part, &attr)| match part {
                KeyPart::Num(v) => v.to_string(),
                KeyPart::Code(c) => table
                    .cat(attr)
                    .map(|cat| cat.value_of(*c).to_owned())
                    .unwrap_or_else(|_| c.to_string()),
            })
            .collect();
        parts.join("|")
    }
}

/// Groups `table` by the given attributes, preserving first-appearance
/// order of keys (so results are deterministic).
///
/// Grouping by one discrete attribute maps its codes through a dense
/// code → group array; any other key is looked up through one reused
/// key buffer, cloned only when it starts a new group.
pub fn group_by(table: &Table, attrs: &[usize]) -> Result<Grouping> {
    if attrs.is_empty() {
        return Err(TableError::Empty("group-by attribute list"));
    }
    let columns = attrs.iter().map(|&a| table.column(a)).collect::<Result<Vec<_>>>()?;
    let mut keys: Vec<GroupKey> = Vec::new();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    if let [Column::Cat(c)] = columns[..] {
        const UNSEEN: usize = usize::MAX;
        let mut group_of = vec![UNSEEN; c.cardinality()];
        for (row, &code) in c.codes().iter().enumerate() {
            let g = &mut group_of[code as usize];
            if *g == UNSEEN {
                *g = keys.len();
                keys.push(GroupKey(vec![KeyPart::Code(code)]));
                groups.push(Vec::new());
            }
            groups[*g].push(row as u32);
        }
    } else {
        let mut index: HashMap<GroupKey, usize> = HashMap::new();
        let mut key = GroupKey(Vec::with_capacity(attrs.len()));
        for row in 0..table.len() {
            key.0.clear();
            key.0.extend(columns.iter().map(|column| match column {
                Column::Num(v) => KeyPart::Num(OrdF64(v[row])),
                Column::Cat(c) => KeyPart::Code(c.codes()[row]),
            }));
            let idx = match index.get(&key) {
                Some(&idx) => idx,
                None => {
                    index.insert(key.clone(), keys.len());
                    keys.push(key.clone());
                    groups.push(Vec::new());
                    keys.len() - 1
                }
            };
            groups[idx].push(row as u32);
        }
    }
    Ok(Grouping { group_attrs: attrs.to_vec(), keys, groups, shared: OnceLock::new() })
}

/// Runs an aggregate function over each group's `agg_attr` values.
///
/// The aggregate is passed as a plain closure so this crate stays
/// independent of the aggregate-property framework layered on top.
pub fn aggregate_groups(
    table: &Table,
    grouping: &Grouping,
    agg_attr: usize,
    agg: impl Fn(&[f64]) -> f64,
) -> Result<Vec<f64>> {
    if grouping.group_attrs().contains(&agg_attr) {
        let name = table.schema().field(agg_attr)?.name().to_owned();
        return Err(TableError::ConflictingRoles { attr: name });
    }
    let vals = table.num(agg_attr)?;
    let mut out = Vec::with_capacity(grouping.len());
    let mut scratch: Vec<f64> = Vec::new();
    for rows in grouping.all_rows() {
        scratch.clear();
        scratch.extend(rows.iter().map(|&r| vals[r as usize]));
        out.push(agg(&scratch));
    }
    Ok(out)
}

/// Extracts the `agg_attr` values of one input group.
pub fn group_values(table: &Table, rows: &[u32], agg_attr: usize) -> Result<Vec<f64>> {
    let vals = table.num(agg_attr)?;
    Ok(rows.iter().map(|&r| vals[r as usize]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::table::TableBuilder;

    fn sensors() -> Table {
        // Table 1 of the paper.
        let schema = Schema::new(vec![
            Field::disc("time"),
            Field::disc("sensorid"),
            Field::cont("voltage"),
            Field::cont("humidity"),
            Field::cont("temp"),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        let rows: [(&str, &str, f64, f64, f64); 9] = [
            ("11AM", "1", 2.64, 0.4, 34.0),
            ("11AM", "2", 2.65, 0.5, 35.0),
            ("11AM", "3", 2.63, 0.4, 35.0),
            ("12PM", "1", 2.7, 0.3, 35.0),
            ("12PM", "2", 2.7, 0.5, 35.0),
            ("12PM", "3", 2.3, 0.4, 100.0),
            ("1PM", "1", 2.7, 0.3, 35.0),
            ("1PM", "2", 2.7, 0.5, 35.0),
            ("1PM", "3", 2.3, 0.5, 80.0),
        ];
        for (t, s, v, h, temp) in rows {
            b.push_row(vec![t.into(), s.into(), v.into(), h.into(), temp.into()]).unwrap();
        }
        b.build()
    }

    #[test]
    fn group_by_time_matches_paper_table2() {
        let t = sensors();
        let g = group_by(&t, &[0]).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.rows(0), &[0, 1, 2]);
        assert_eq!(g.rows(1), &[3, 4, 5]);
        assert_eq!(g.rows(2), &[6, 7, 8]);
        assert_eq!(g.display_key(&t, 0), "11AM");
        assert_eq!(g.display_key(&t, 1), "12PM");
        assert_eq!(g.display_key(&t, 2), "1PM");

        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let res = aggregate_groups(&t, &g, 4, avg).unwrap();
        // α1 = 34.67 (paper rounds to 34.6), α2 = 56.67, α3 = 50.
        assert!((res[0] - 34.666).abs() < 0.01);
        assert!((res[1] - 56.666).abs() < 0.01);
        assert!((res[2] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn shared_groups_are_cached_and_consistent() {
        let t = sensors();
        let g = group_by(&t, &[0]).unwrap();
        let (rows, mask) = g.shared_group(1, t.len());
        assert_eq!(&*rows, g.rows(1));
        assert_eq!(mask.to_rows(), g.rows(1));
        // Second call returns the same shared allocations.
        let (rows2, mask2) = g.shared_group(1, t.len());
        assert!(Arc::ptr_eq(&rows, &rows2));
        assert!(Arc::ptr_eq(&mask, &mask2));
    }

    #[test]
    fn group_by_multiple_attrs() {
        let t = sensors();
        let g = group_by(&t, &[0, 1]).unwrap();
        assert_eq!(g.len(), 9);
        for i in 0..9 {
            assert_eq!(g.rows(i).len(), 1);
        }
    }

    #[test]
    fn group_by_continuous_attr_keys_on_exact_values() {
        let t = sensors();
        let g = group_by(&t, &[2]).unwrap(); // voltage
                                             // Distinct voltages: 2.64, 2.65, 2.63, 2.7, 2.3 -> 5 groups.
        assert_eq!(g.len(), 5);
        let key = g.key(0).clone();
        assert_eq!(g.index_of(&key), Some(0));
    }

    #[test]
    fn aggregate_on_group_attr_rejected() {
        let t = sensors();
        let g = group_by(&t, &[4]).unwrap();
        let res = aggregate_groups(&t, &g, 4, |v| v.len() as f64);
        assert!(matches!(res, Err(TableError::ConflictingRoles { .. })));
    }

    #[test]
    fn empty_attr_list_rejected() {
        let t = sensors();
        assert!(matches!(group_by(&t, &[]), Err(TableError::Empty(_))));
    }

    #[test]
    fn group_values_extracts_projection() {
        let t = sensors();
        let g = group_by(&t, &[0]).unwrap();
        let v = group_values(&t, g.rows(1), 4).unwrap();
        assert_eq!(v, vec![35.0, 35.0, 100.0]);
    }
}
