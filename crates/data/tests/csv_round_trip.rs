//! Every generated workload survives a CSV round trip bit for bit:
//! `table_csv` then the reader gives back the same codes, dictionary
//! order and f64 bits. SYNTH goes through `parse_csv`'s type inference,
//! as a CSV load of it would; INTEL and EXPENSE, whose discrete ids look
//! numeric, through `parse_csv_with_schema` with their own schema.

use scorpion_data::{expense, intel, synth, ExpenseConfig, IntelConfig, SynthConfig};
use scorpion_table::csv::{parse_csv, parse_csv_with_schema, table_csv};
use scorpion_table::{CatColumn, Column, Table};

fn assert_bit_identical(got: &Table, want: &Table, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: rows");
    assert_eq!(got.schema().len(), want.schema().len(), "{what}: arity");
    for (i, (g, w)) in got.schema().iter().zip(want.schema().iter()).enumerate() {
        assert_eq!((g.name(), g.ty()), (w.name(), w.ty()), "{what}: field {i}");
        match (got.column(i).unwrap(), want.column(i).unwrap()) {
            (Column::Num(g), Column::Num(w)) => {
                assert!(g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits()), "{what}: {i}");
            }
            (Column::Cat(g), Column::Cat(w)) => {
                let dict = |c: &CatColumn| {
                    (0..c.cardinality() as u32)
                        .map(|k| c.value_of(k).to_owned())
                        .collect::<Vec<_>>()
                };
                assert_eq!(g.codes(), w.codes(), "{what}: codes of {i}");
                assert_eq!(dict(g), dict(w), "{what}: dictionary of {i}");
            }
            _ => panic!("{what}: column {i} changed storage"),
        }
    }
}

#[test]
fn synth_pool_round_trips_with_inferred_types() {
    // The analyst benchmark's dataset pool.
    for seed in [4, 5, 6, 10, 12] {
        let ds = synth::generate(SynthConfig::easy(2).with_tuples_per_group(5_000).with_seed(seed));
        let back = parse_csv(&table_csv(&ds.table).unwrap()).unwrap();
        assert_bit_identical(&back, &ds.table, &format!("SYNTH seed {seed}"));
    }
}

#[test]
fn intel_and_expense_round_trip_with_their_schema() {
    let tables = [
        ("INTEL workload 1", intel::generate(IntelConfig::workload1()).table),
        ("INTEL workload 2", intel::generate(IntelConfig::workload2()).table),
        ("EXPENSE", expense::generate(ExpenseConfig::default()).table),
    ];
    for (what, table) in tables {
        let text = table_csv(&table).unwrap();
        let back = parse_csv_with_schema(&text, table.schema().clone()).unwrap();
        assert_bit_identical(&back, &table, what);
    }
}
