//! The dense single-attribute `group_by` path must agree with the hashed
//! path it short-cuts: grouping on a discrete attribute `a` yields the
//! same row groups, in the same first-appearance order, as grouping on
//! the composite key `(a, a)`, which always hashes.

use proptest::prelude::*;
use scorpion_table::{
    group_by, CatColumn, Column, Field, GroupKey, KeyPart, Schema, Table, TableBuilder,
};

fn schema() -> Schema {
    Schema::new(vec![Field::disc("a"), Field::disc("b"), Field::cont("x")]).unwrap()
}

/// A table whose discrete columns' dictionaries first intern `unused`
/// values no row holds, then take `rows` in order.
fn table_with_unused(rows: &[(usize, usize, f64)], unused: usize) -> Table {
    let mut a = CatColumn::new();
    let mut b = CatColumn::new();
    for u in 0..unused {
        a.intern(&format!("unused{u}"));
        b.intern(&format!("unused{u}"));
    }
    for &(va, vb, _) in rows {
        a.push(&format!("a{va}"));
        b.push(&format!("b{vb}"));
    }
    let x = rows.iter().map(|&(_, _, x)| x).collect();
    Table::from_columns(schema(), vec![Column::Cat(a), Column::Cat(b), Column::Num(x)]).unwrap()
}

/// Checks the dense grouping on `attr` against the hashed `(attr, attr)`.
fn check_dense_matches_hashed(t: &Table, attr: usize) {
    let dense = group_by(t, &[attr]).unwrap();
    let hashed = group_by(t, &[attr, attr]).unwrap();
    assert_eq!(dense.all_rows(), hashed.all_rows());
    assert_eq!(dense.group_attrs(), &[attr]);
    for i in 0..dense.len() {
        let KeyPart::Code(code) = dense.key(i).0[0] else {
            panic!("group {i} of a discrete attribute has a numeric key");
        };
        assert_eq!(dense.key(i), &GroupKey(vec![KeyPart::Code(code)]));
        assert_eq!(hashed.key(i), &GroupKey(vec![KeyPart::Code(code); 2]));
        assert_eq!(dense.index_of(dense.key(i)), Some(i));
    }
    let rows: usize = dense.all_rows().iter().map(Vec::len).sum();
    assert_eq!(rows, t.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_group_by_matches_hashed(
        rows in prop::collection::vec((0usize..6, 0usize..3, -5.0f64..5.0), 0..60),
        unused in 0usize..3,
    ) {
        let t = table_with_unused(&rows, unused);
        check_dense_matches_hashed(&t, 0);
        check_dense_matches_hashed(&t, 1);
        // The hashed path alone serves continuous and composite keys.
        let by_x = group_by(&t, &[2]).unwrap();
        let by_ab = group_by(&t, &[0, 1]).unwrap();
        prop_assert_eq!(by_x.all_rows().iter().map(Vec::len).sum::<usize>(), t.len());
        prop_assert_eq!(by_ab.all_rows().iter().map(Vec::len).sum::<usize>(), t.len());
    }
}

#[test]
fn empty_tables_and_unused_dictionary_values_make_no_groups() {
    let empty = TableBuilder::new(schema()).build();
    check_dense_matches_hashed(&empty, 0);
    assert!(group_by(&empty, &[0]).unwrap().is_empty());
    // Only unused dictionary entries: still no groups.
    let unused_only = table_with_unused(&[], 2);
    assert_eq!(unused_only.cat(0).unwrap().cardinality(), 2);
    check_dense_matches_hashed(&unused_only, 0);
    assert!(group_by(&unused_only, &[0]).unwrap().is_empty());
    // An unused value interned ahead of the rows shifts every code, but
    // not the groups.
    let t = table_with_unused(&[(1, 0, 0.0), (0, 0, 1.0), (1, 0, 2.0)], 1);
    let g = group_by(&t, &[0]).unwrap();
    assert_eq!(g.all_rows(), &[vec![0, 2], vec![1]]);
    assert_eq!(g.display_key(&t, 0), "a1");
}
