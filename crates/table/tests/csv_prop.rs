//! The column reader and writer of `scorpion_table::csv` against the
//! row-at-a-time code they replaced.
//!
//! `oracle` is the retired reader: it splits each line into `String`
//! fields, builds a `Vec<Value>` per record and pushes it through
//! `TableBuilder::push_row`. Its one change is the error it reports for
//! malformed text, `TableError::Csv` with the new reader's messages, so
//! errors compare whole. It reads line by line, so it cannot read a
//! quoted field that spans lines; where the text has one, only the new
//! reader runs, and it must not panic.
//!
//! Texts are rendered from random tables with random quoting (whole,
//! partial as in `ab"c,d"e`, with `""` escapes), space and tab padding,
//! blank and whitespace-only lines, `\r\n` endings, a missing final
//! newline, multi-byte characters beside delimiters, ragged records and
//! bad numbers; each text is also mutated byte by byte (flips,
//! truncations, splices).

use proptest::prelude::*;
use scorpion_table::csv::{parse_csv, parse_csv_with_schema, table_csv};
use scorpion_table::{AttrType, Column, Field, Schema, Table, TableBuilder, TableError, Value};

/// The row-at-a-time reader the column reader replaced.
mod oracle {
    use scorpion_table::{AttrType, Field, Result, Schema, Table, TableBuilder, TableError, Value};

    /// Splits one line, honoring double-quoted fields with `""` escapes.
    fn split_record(line: &str, line_no: usize) -> Result<Vec<String>> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            cur.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    _ => cur.push(c),
                }
            } else {
                match c {
                    '"' => in_quotes = true,
                    ',' => fields.push(std::mem::take(&mut cur)),
                    _ => cur.push(c),
                }
            }
        }
        if in_quotes {
            return Err(TableError::Csv(format!(
                "unterminated quote in the field that starts on line {line_no}"
            )));
        }
        fields.push(cur);
        Ok(fields)
    }

    /// Non-blank lines with their 1-based line numbers.
    fn lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
        text.lines().enumerate().map(|(i, l)| (i + 1, l)).filter(|(_, l)| !l.trim().is_empty())
    }

    pub fn parse_csv_with_schema(text: &str, schema: Schema) -> Result<Table> {
        let mut lines = lines(text);
        let (no, header) = lines.next().ok_or(TableError::Empty("CSV input"))?;
        let names = split_record(header, no)?;
        if names.len() != schema.len() {
            return Err(TableError::ArityMismatch { expected: schema.len(), got: names.len() });
        }
        for (i, name) in names.iter().enumerate() {
            if schema.field(i)?.name() != name.trim() {
                return Err(TableError::Csv(format!(
                    "header `{}` does not match schema attribute `{}`",
                    name.trim(),
                    schema.field(i)?.name()
                )));
            }
        }
        let types: Vec<AttrType> =
            (0..schema.len()).map(|i| schema.field(i).map(|f| f.ty())).collect::<Result<_>>()?;
        let mut b = TableBuilder::new(schema);
        for (no, line) in lines {
            let cells = split_record(line, no)?;
            if cells.len() != names.len() {
                return Err(TableError::ArityMismatch { expected: names.len(), got: cells.len() });
            }
            let mut row: Vec<Value> = Vec::with_capacity(cells.len());
            for (i, cell) in cells.iter().enumerate() {
                let cell = cell.trim();
                row.push(match types[i] {
                    AttrType::Continuous => {
                        let v: f64 = cell.parse().map_err(|_| TableError::TypeMismatch {
                            attr: names[i].trim().to_owned(),
                            expected: "continuous",
                        })?;
                        Value::Num(v)
                    }
                    AttrType::Discrete => Value::Str(cell.to_owned()),
                });
            }
            b.push_row(row)?;
        }
        Ok(b.build())
    }

    pub fn parse_csv(text: &str) -> Result<Table> {
        let mut lines = lines(text);
        let (no, header) = lines.next().ok_or(TableError::Empty("CSV input"))?;
        let names = split_record(header, no)?;
        let (no, first) = lines.next().ok_or(TableError::Empty("CSV data rows"))?;
        let first_cells = split_record(first, no)?;
        if first_cells.len() != names.len() {
            return Err(TableError::ArityMismatch {
                expected: names.len(),
                got: first_cells.len(),
            });
        }
        let fields: Vec<Field> = names
            .iter()
            .zip(&first_cells)
            .map(|(n, c)| {
                if c.trim().parse::<f64>().is_ok() {
                    Field::cont(n.trim())
                } else {
                    Field::disc(n.trim())
                }
            })
            .collect();
        let schema = Schema::new(fields)?;
        parse_csv_with_schema(text, schema)
    }

    /// The retired writer: one `Value` per cell, `format!` per number.
    pub fn table_csv(table: &Table) -> String {
        fn cell(out: &mut String, s: &str) {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                out.push('"');
                out.push_str(&s.replace('"', "\"\""));
                out.push('"');
            } else {
                out.push_str(s);
            }
        }
        let schema = table.schema();
        let mut out = String::new();
        for (i, f) in schema.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            cell(&mut out, f.name());
        }
        out.push('\n');
        for row in 0..table.len() {
            for attr in 0..schema.len() {
                if attr > 0 {
                    out.push(',');
                }
                match table.value(row, attr).unwrap() {
                    Value::Num(v) => out.push_str(&format!("{v}")),
                    Value::Str(s) => cell(&mut out, &s),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// SplitMix64, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `1/n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Pieces of discrete values: delimiters, quotes, multi-byte characters.
const PIECES: &[&str] =
    &["a", "b", "GMMB", "x y", ",", "\"", "\"\"", "é", "☃", "é,", ",☃", "'", "\t", " ", "1", "-"];

/// Numbers as a CSV file may spell them.
const NUMBERS: &[&str] =
    &["0", "-0", "1.5", "-2.25e-3", "1e300", "7", "0.1", "inf", "-inf", "NaN", "12345.678"];

/// A random discrete value: mostly non-empty, no surrounding whitespace.
fn disc_value(rng: &mut Rng, newlines: bool) -> String {
    let mut s: String = (0..1 + rng.below(3)).map(|_| rng.pick(PIECES)).collect();
    if newlines && rng.one_in(8) {
        let mid = s.char_indices().nth(s.chars().count() / 2).map_or(s.len(), |(i, _)| i);
        s.insert(mid, '\n');
    }
    if rng.one_in(20) {
        s.clear();
    }
    s.trim().to_owned()
}

fn num_value(rng: &mut Rng) -> f64 {
    match rng.below(4) {
        0 => rng.pick(NUMBERS).parse().unwrap(),
        1 => rng.below(1000) as f64 / 8.0 - 60.0,
        // Any finite bit pattern.
        _ => Some(f64::from_bits(rng.next())).filter(|x| x.is_finite()).unwrap_or(0.5),
    }
}

/// A random table: 1–4 attributes, 0–12 rows.
fn random_table(rng: &mut Rng, newlines: bool) -> Table {
    let fields: Vec<Field> = (0..1 + rng.below(4))
        .map(|i| {
            let name = format!("{}{i}", rng.pick(&["a", "é", "x,y", "q\"", "☃"]));
            if rng.one_in(2) {
                Field::cont(name)
            } else {
                Field::disc(name)
            }
        })
        .collect();
    let types: Vec<AttrType> = fields.iter().map(Field::ty).collect();
    let mut b = TableBuilder::new(Schema::new(fields).unwrap());
    for _ in 0..rng.below(13) {
        let row: Vec<Value> = types
            .iter()
            .map(|ty| match ty {
                AttrType::Continuous => Value::Num(num_value(rng)),
                AttrType::Discrete => Value::Str(disc_value(rng, newlines)),
            })
            .collect();
        b.push_row(row).unwrap();
    }
    b.build()
}

/// Renders one cell with random quoting and padding.
fn render_cell(rng: &mut Rng, value: &str, out: &mut String) {
    let pad = |rng: &mut Rng, out: &mut String| {
        if rng.one_in(4) {
            out.push_str(rng.pick(&[" ", "\t", "  ", " \t"]));
        }
    };
    pad(rng, out);
    let needs_quotes = value.contains([',', '"', '\n']);
    match rng.below(3) {
        // Plain. With a delimiter or a quote inside this splits or
        // unbalances the record, which both readers must agree on.
        _ if needs_quotes && rng.one_in(10) => out.push_str(value),
        // A quoted middle, as in `ab"c,d"e`.
        0 if !value.is_empty() => {
            let chars: Vec<char> = value.chars().collect();
            let (i, j) = (rng.below(chars.len()), rng.below(chars.len() + 1));
            let (i, j) = (i.min(j), i.max(j));
            let plain = |s: &[char]| s.iter().collect::<String>();
            // Text outside quotes keeps no delimiter or quote.
            let outside = |s: &[char]| plain(s).replace([',', '"', '\n'], "");
            out.push_str(&outside(&chars[..i]));
            out.push('"');
            out.push_str(&plain(&chars[i..j]).replace('"', "\"\""));
            out.push('"');
            out.push_str(&outside(&chars[j..]));
        }
        1 | 2 if needs_quotes || rng.one_in(2) => {
            out.push('"');
            out.push_str(&value.replace('"', "\"\""));
            out.push('"');
        }
        _ => out.push_str(value),
    }
    pad(rng, out);
}

/// Renders `table` as CSV text with random quoting, padding, blank lines,
/// line endings, ragged records and bad numbers.
fn render(rng: &mut Rng, table: &Table) -> String {
    let schema = table.schema();
    let crlf = rng.one_in(3);
    let mut out = String::new();
    let end_record = |rng: &mut Rng, out: &mut String| {
        out.push_str(if crlf || rng.one_in(10) { "\r\n" } else { "\n" });
        if rng.one_in(6) {
            out.push_str(rng.pick(&["\n", " \n", "\t\t\n", " \r\n", "\r\n"]));
        }
    };
    if rng.one_in(8) {
        out.push_str("  \n");
    }
    for (i, f) in schema.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_cell(rng, f.name(), &mut out);
    }
    end_record(rng, &mut out);
    for row in 0..table.len() {
        let mut arity = schema.len();
        if rng.one_in(25) {
            arity = if rng.one_in(2) { arity + 1 } else { arity - 1 };
        }
        for attr in 0..arity {
            if attr > 0 {
                out.push(',');
            }
            let cell = match table.value(row, attr.min(schema.len() - 1)).unwrap() {
                Value::Num(_) if rng.one_in(40) => {
                    rng.pick(&["x1", "1.2.3", "", "--1"]).to_string()
                }
                Value::Num(v) if rng.one_in(3) => {
                    rng.pick(NUMBERS).to_string().replace("NaN", &v.to_string())
                }
                Value::Num(v) => v.to_string(),
                Value::Str(s) => s,
            };
            render_cell(rng, &cell, &mut out);
        }
        end_record(rng, &mut out);
    }
    if rng.one_in(3) {
        // No final newline.
        while out.ends_with(['\n', '\r']) {
            out.pop();
        }
    }
    out
}

/// One random byte-level mutation: a flip, a truncation or a splice.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    match rng.below(3) {
        0 => {
            let i = rng.below(bytes.len());
            bytes[i] = rng.pick(b",\"\n\r \t1ax\xC3\xA9");
        }
        1 => bytes.truncate(rng.below(bytes.len())),
        _ => {
            let (a, b) = (rng.below(bytes.len()), rng.below(bytes.len()));
            let piece: Vec<u8> = bytes[a.min(b)..a.max(b)].to_vec();
            let at = rng.below(bytes.len() + 1);
            bytes.splice(at..at, piece);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// True when some quoted field holds a newline: inside quotes exactly
/// when an odd number of `"` precede (a `""` escape counts twice).
fn quote_spans_lines(text: &str) -> bool {
    let mut in_quotes = false;
    for b in text.bytes() {
        match b {
            b'"' => in_quotes = !in_quotes,
            b'\n' if in_quotes => return true,
            _ => {}
        }
    }
    false
}

/// Asserts the two tables hold the same schema, codes, dictionary
/// order and f64 bits.
fn assert_same_table(got: &Table, want: &Table, text: &str) {
    assert_eq!(got.len(), want.len(), "row count for {text:?}");
    assert_eq!(got.schema().len(), want.schema().len(), "arity for {text:?}");
    for (i, (g, w)) in got.schema().iter().zip(want.schema().iter()).enumerate() {
        assert_eq!((g.name(), g.ty()), (w.name(), w.ty()), "field {i} for {text:?}");
        match (got.column(i).unwrap(), want.column(i).unwrap()) {
            (Column::Num(g), Column::Num(w)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(g), bits(w), "column {i} bits for {text:?}");
            }
            (Column::Cat(g), Column::Cat(w)) => {
                assert_eq!(g.codes(), w.codes(), "column {i} codes for {text:?}");
                let dict = |c: &scorpion_table::CatColumn| {
                    (0..c.cardinality() as u32)
                        .map(|k| c.value_of(k).to_owned())
                        .collect::<Vec<_>>()
                };
                assert_eq!(dict(g), dict(w), "column {i} dictionary for {text:?}");
            }
            _ => panic!("column {i} storage differs for {text:?}"),
        }
    }
}

fn assert_same(got: Result<Table, TableError>, want: Result<Table, TableError>, text: &str) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_same_table(&g, &w, text),
        (Err(g), Err(w)) => assert_eq!(g, w, "error for {text:?}"),
        (g, w) => panic!("readers disagree on {text:?}: new {g:?}, retired {w:?}"),
    }
}

/// Runs both readers, with and without `schema`; where the text holds
/// no quoted newline they must agree, and the new one never panics.
/// Returns the outcome of the schema-less read when it was compared.
fn check_readers(text: &str, schema: &Schema) -> Option<&'static str> {
    let got = parse_csv(text);
    let got_schema = parse_csv_with_schema(text, schema.clone());
    if quote_spans_lines(text) {
        return None;
    }
    let outcome = match &got {
        Ok(_) => "table",
        Err(TableError::ArityMismatch { .. }) => "arity",
        Err(TableError::TypeMismatch { .. }) => "type",
        Err(TableError::Csv(_)) => "csv",
        Err(_) => "other",
    };
    assert_same(got, oracle::parse_csv(text), text);
    assert_same(got_schema, oracle::parse_csv_with_schema(text, schema.clone()), text);
    Some(outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn column_reader_matches_retired_reader(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let newlines = rng.one_in(6);
        let table = random_table(&mut rng, newlines);
        let text = render(&mut rng, &table);
        check_readers(&text, table.schema());
        for _ in 0..4 {
            let mutant = mutate(&mut rng, &text);
            check_readers(&mutant, table.schema());
        }
    }

    #[test]
    fn column_writer_matches_retired_writer(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let table = random_table(&mut rng, true);
        let text = table_csv(&table).unwrap();
        prop_assert_eq!(&text, &oracle::table_csv(&table));
        // Values are never padded, so every table reads back whole,
        // except that an empty cell alone on its line reads as a blank line.
        let lone_empty = table.schema().len() == 1
            && table.cat(0).is_ok_and(|c| (0..c.cardinality() as u32).any(|k| c.value_of(k).is_empty()));
        if !lone_empty {
            let back = parse_csv_with_schema(&text, table.schema().clone()).unwrap();
            assert_same_table(&back, &table, &text);
        }
    }
}

#[test]
fn most_cases_compare_against_the_retired_reader() {
    let mut outcomes = std::collections::BTreeMap::new();
    let mut total = 0;
    for seed in 0..300u64 {
        let mut rng = Rng(seed);
        let table = random_table(&mut rng, false);
        let text = render(&mut rng, &table);
        let mutant = mutate(&mut rng, &text);
        for t in [&text, &mutant] {
            total += 1;
            if let Some(outcome) = check_readers(t, table.schema()) {
                *outcomes.entry(outcome).or_insert(0) += 1;
            }
        }
    }
    let compared: usize = outcomes.values().sum();
    assert!(compared * 4 > total * 3, "only {compared} of {total} texts compared");
    // Tables, ragged records, bad numbers and malformed text all occur.
    for outcome in ["table", "arity", "type", "csv"] {
        assert!(outcomes.get(outcome).is_some_and(|&n| n >= 10), "{outcomes:?}");
    }
}
