//! CSV in and out: [`parse_csv`] reads text straight into a [`Table`]'s
//! columns, and [`table_csv`] writes a table as text the reader takes
//! back.
//!
//! The format is the one Scorpion's use cases start from (sensor dumps,
//! expense ledgers):
//!
//! * A header row, then one record per line, comma separated. A record
//!   ends at a `\n` outside quotes. Records holding nothing but
//!   whitespace are skipped.
//! * Any part of a field may be double-quoted (`ab"c,d"e` reads
//!   `abc,de`). Inside quotes `""` stands for one `"`, and commas and
//!   newlines are literal, so a quoted field may span lines.
//! * Every cell is trimmed of surrounding whitespace, quoted or not, so
//!   a value that starts or ends with whitespace does not survive a
//!   round trip. The `\r` of a `\r\n` ending is such whitespace, so
//!   `\r\n` files read the same as `\n` files.
//! * [`parse_csv_with_schema`] takes each attribute's type from a schema
//!   whose names the header must match, in order. [`parse_csv`] infers
//!   the types from the first data record: a cell that parses as a
//!   number makes its attribute continuous, any other cell discrete.
//! * Numbers are read by `str::parse::<f64>`, which rounds correctly.
//!
//! The reader walks the text's bytes once. A field without quotes is
//! borrowed from the text; only a field with quotes is copied out and
//! unescaped. A continuous cell is parsed where it lies, and a discrete
//! cell is interned by `&str` ([`CatColumn::push`]), so a record
//! allocates nothing unless it quotes a field or brings a new discrete
//! value.
//!
//! Malformed text — an unterminated quote (the error names the line its
//! field starts on), a header that does not match the schema, or an
//! unreadable file — is a [`TableError::Csv`]. A record with the wrong
//! number of fields is an [`TableError::ArityMismatch`], and a
//! continuous cell that is not a number a [`TableError::TypeMismatch`].
//!
//! [`CatColumn::push`]: crate::CatColumn::push

use crate::column::Column;
use crate::error::{Result, TableError};
use crate::schema::{Field, Schema};
use crate::table::Table;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Splits CSV text into records of fields, borrowing every field that
/// holds no quote.
struct Records<'a> {
    text: &'a str,
    /// Byte offset where the next record starts.
    pos: usize,
    /// The current record's fields, one buffer for every record.
    fields: Vec<Cow<'a, str>>,
}

impl<'a> Records<'a> {
    fn new(text: &'a str) -> Self {
        Records { text, pos: 0, fields: Vec::new() }
    }

    /// The fields of the next record that is not only whitespace, or
    /// `None` once the text is used up.
    fn next_record(&mut self) -> Result<Option<&[Cow<'a, str>]>> {
        while self.pos < self.text.len() {
            self.fields.clear();
            self.read_record()?;
            // A record with a comma or a quote is never blank.
            if !matches!(self.fields.as_slice(), [Cow::Borrowed(s)] if s.trim().is_empty()) {
                return Ok(Some(&self.fields));
            }
        }
        Ok(None)
    }

    /// Reads the record at `pos` into `fields` and moves past its `\n`.
    fn read_record(&mut self) -> Result<()> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        loop {
            let start = self.pos;
            let mut end = start + special_offset(&bytes[start..], false);
            if bytes.get(end) == Some(&b'"') {
                let (field, field_end) = self.quoted(start, end)?;
                self.fields.push(Cow::Owned(field));
                end = field_end;
            } else {
                self.fields.push(Cow::Borrowed(&text[start..end]));
            }
            self.pos = (end + 1).min(bytes.len());
            if bytes.get(end) != Some(&b',') {
                return Ok(());
            }
        }
    }

    /// Unescapes the field that starts at `start` and holds its first
    /// quote at `quote`. Returns the field and the offset of the `,`,
    /// `\n` or end of text that ends it.
    fn quoted(&self, start: usize, quote: usize) -> Result<(String, usize)> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        let mut out = String::from(&text[start..quote]);
        let (mut pos, mut in_quotes) = (quote, false);
        loop {
            match bytes.get(pos) {
                None if in_quotes => {
                    let line = 1 + bytes[..start].iter().filter(|&&b| b == b'\n').count();
                    return Err(TableError::Csv(format!(
                        "unterminated quote in the field that starts on line {line}"
                    )));
                }
                None => break,
                Some(b',' | b'\n') if !in_quotes => break,
                Some(b'"') if in_quotes && bytes.get(pos + 1) == Some(&b'"') => {
                    out.push('"');
                    pos += 2;
                }
                Some(b'"') => {
                    in_quotes = !in_quotes;
                    pos += 1;
                }
                Some(_) => {
                    let run = pos + 1 + special_offset(&bytes[pos + 1..], in_quotes);
                    out.push_str(&text[pos..run]);
                    pos = run;
                }
            }
        }
        Ok((out, pos))
    }
}

/// Offset of the first byte that can end a run of field text: a quote,
/// and outside quotes also a comma or a newline (the slice's length if
/// there is none). Every such byte is ASCII, so the offset is a char
/// boundary.
fn special_offset(bytes: &[u8], in_quotes: bool) -> usize {
    let special = |b: &u8| *b == b'"' || (!in_quotes && (*b == b',' || *b == b'\n'));
    bytes.iter().position(special).unwrap_or(bytes.len())
}

/// One column per schema attribute, written a record at a time.
struct ColumnWriter {
    schema: Schema,
    columns: Vec<Column>,
}

impl ColumnWriter {
    fn new(schema: Schema) -> Self {
        let columns = schema.iter().map(|f| Column::empty(f.ty())).collect();
        ColumnWriter { schema, columns }
    }

    /// Appends one record's trimmed cells, one to each column.
    fn write(&mut self, fields: &[Cow<'_, str>]) -> Result<()> {
        if fields.len() != self.columns.len() {
            return Err(TableError::ArityMismatch {
                expected: self.columns.len(),
                got: fields.len(),
            });
        }
        for ((column, cell), field) in self.columns.iter_mut().zip(fields).zip(self.schema.iter()) {
            let cell = cell.trim();
            match column {
                Column::Num(v) => v.push(cell.parse().map_err(|_| TableError::TypeMismatch {
                    attr: field.name().to_owned(),
                    expected: "continuous",
                })?),
                Column::Cat(c) => c.push(cell),
            }
        }
        Ok(())
    }

    /// Writes every remaining record, then builds the table.
    fn finish(mut self, records: &mut Records<'_>) -> Result<Table> {
        while let Some(fields) = records.next_record()? {
            self.write(fields)?;
        }
        Table::from_columns(self.schema, self.columns)
    }
}

/// Parses CSV text into a table with an explicit schema. The header row
/// must match the schema's attribute names (in order).
pub fn parse_csv_with_schema(text: &str, schema: Schema) -> Result<Table> {
    let mut records = Records::new(text);
    let names = records.next_record()?.ok_or(TableError::Empty("CSV input"))?;
    if names.len() != schema.len() {
        return Err(TableError::ArityMismatch { expected: schema.len(), got: names.len() });
    }
    for (name, field) in names.iter().zip(schema.iter()) {
        if field.name() != name.trim() {
            return Err(TableError::Csv(format!(
                "header `{}` does not match schema attribute `{}`",
                name.trim(),
                field.name()
            )));
        }
    }
    ColumnWriter::new(schema).finish(&mut records)
}

/// Parses CSV text, inferring each attribute's type from the first data
/// row (numeric cell ⇒ continuous, else discrete).
pub fn parse_csv(text: &str) -> Result<Table> {
    let mut records = Records::new(text);
    let header = records.next_record()?.ok_or(TableError::Empty("CSV input"))?;
    let names: Vec<String> = header.iter().map(|n| n.trim().to_owned()).collect();
    let first = records.next_record()?.ok_or(TableError::Empty("CSV data rows"))?;
    if first.len() != names.len() {
        return Err(TableError::ArityMismatch { expected: names.len(), got: first.len() });
    }
    let schema = Schema::new(
        names
            .into_iter()
            .zip(first)
            .map(|(name, cell)| match cell.trim().parse::<f64>() {
                Ok(_) => Field::cont(name),
                Err(_) => Field::disc(name),
            })
            .collect(),
    )?;
    let mut writer = ColumnWriter::new(schema);
    writer.write(first)?;
    writer.finish(&mut records)
}

/// Loads a CSV file from disk with inferred types.
pub fn load_csv(path: &std::path::Path) -> Result<Table> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| TableError::Csv(format!("cannot read {path:?}: {e}")))?;
    parse_csv(&text)
}

/// Renders a table as CSV: a header row, then one record per row. A
/// cell holding a comma, a quote or a newline is quoted, with each `"`
/// doubled; numbers are written as `{}` formats an `f64`, which
/// `str::parse::<f64>` reads back to the same bits. This is the
/// `GET /debug/telemetry?format=csv` body and the format
/// `scorpion audit --telemetry-csv` reads back.
pub fn table_csv(table: &Table) -> Result<String> {
    let columns = (0..table.schema().len()).map(|i| table.column(i)).collect::<Result<Vec<_>>>()?;
    let mut out = String::new();
    for (i, field) in table.schema().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_cell(&mut out, field.name());
    }
    out.push('\n');
    for row in 0..table.len() {
        for (i, column) in columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match column {
                Column::Num(v) => {
                    // Writing into a `String` cannot fail.
                    let _ = write!(out, "{}", v[row]);
                }
                Column::Cat(c) => push_cell(&mut out, c.value_of(c.codes()[row])),
            }
        }
        out.push('\n');
    }
    Ok(out)
}

/// Appends one text cell, quoted when the reader would otherwise split it.
fn push_cell(out: &mut String, s: &str) {
    if !s.bytes().any(|b| matches!(b, b',' | b'"' | b'\n')) {
        out.push_str(s);
        return;
    }
    out.push('"');
    for (i, part) in s.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    const SAMPLE: &str = "\
time,sensorid,temp
11AM,1,34.0
11AM,2,35.0
12PM,3,100.0
";

    #[test]
    fn infers_types_from_first_row() {
        let t = parse_csv(SAMPLE).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.schema().field(0).unwrap().ty(), AttrType::Discrete);
        // `sensorid` is numeric in the file → inferred continuous.
        assert_eq!(t.schema().field(1).unwrap().ty(), AttrType::Continuous);
        assert_eq!(t.num(2).unwrap(), &[34.0, 35.0, 100.0]);
    }

    #[test]
    fn explicit_schema_overrides_inference() {
        let schema = Schema::new(vec![
            Field::disc("time"),
            Field::disc("sensorid"), // keep ids discrete
            Field::cont("temp"),
        ])
        .unwrap();
        let t = parse_csv_with_schema(SAMPLE, schema).unwrap();
        assert_eq!(t.cat(1).unwrap().cardinality(), 3);
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let text = "name,amt\n\"GMMB, INC.\",5\n\"say \"\"hi\"\"\",6\n";
        let t = parse_csv(text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.value(0, 0).unwrap().as_str(), Some("GMMB, INC."));
        assert_eq!(t.value(1, 0).unwrap().as_str(), Some("say \"hi\""));
    }

    #[test]
    fn header_mismatch_rejected() {
        let schema = Schema::new(vec![Field::disc("wrong"), Field::cont("temp")]).unwrap();
        let text = "time,temp\nx,1\n";
        assert!(parse_csv_with_schema(text, schema).is_err());
    }

    #[test]
    fn ragged_rows_rejected() {
        let text = "a,b\n1,2\n3\n";
        assert!(parse_csv(text).is_err());
    }

    #[test]
    fn bad_number_rejected() {
        let schema = Schema::new(vec![Field::cont("x")]).unwrap();
        let text = "x\nnot_a_number\n";
        assert!(matches!(
            parse_csv_with_schema(text, schema),
            Err(TableError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("a,b\n").is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(parse_csv("a\n\"oops\n").is_err());
    }

    #[test]
    fn round_trip_through_file() {
        let dir = std::env::temp_dir().join("scorpion_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        std::fs::write(&path, SAMPLE).unwrap();
        let t = load_csv(&path).unwrap();
        assert_eq!(t.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_text_is_a_csv_error() {
        let open = parse_csv("a,b\n1,x\n\n2,\"oops\n3,y\n");
        match open {
            Err(TableError::Csv(msg)) => assert!(msg.ends_with("starts on line 4"), "{msg}"),
            other => panic!("expected a CSV error, got {other:?}"),
        }
        // The open field's own line, not the line of its first quote.
        let late = parse_csv("a,b\n1,\"x\ny\"z\"\n");
        assert!(matches!(late, Err(TableError::Csv(m)) if m.ends_with("starts on line 2")));
        let schema = Schema::new(vec![Field::disc("wrong"), Field::cont("temp")]).unwrap();
        let header = parse_csv_with_schema("time,temp\nx,1\n", schema).unwrap_err();
        assert!(matches!(&header, TableError::Csv(m) if m.contains("`time`")), "{header}");
        let missing = load_csv(std::path::Path::new("/nonexistent/scorpion.csv")).unwrap_err();
        assert!(matches!(missing, TableError::Csv(_)), "{missing}");
    }

    #[test]
    fn quoted_fields_span_lines_and_crlf_endings_read_alike() {
        let crlf = "name,amt\r\n\"two\r\nlines\",1\r\n  \r\nab\"c,d\"e,2\r\n";
        for (text, two_lines) in
            [(crlf.to_owned(), "two\r\nlines"), (crlf.replace('\r', ""), "two\nlines")]
        {
            let t = parse_csv(&text).unwrap();
            assert_eq!(t.len(), 2);
            assert_eq!(t.value(0, 0).unwrap().as_str(), Some(two_lines));
            assert_eq!(t.value(1, 0).unwrap().as_str(), Some("abc,de"));
            assert_eq!(t.num(1).unwrap(), &[1.0, 2.0]);
        }
    }

    #[test]
    fn writer_output_reads_back_bit_identical() {
        let schema = Schema::new(vec![Field::disc("name, \"quoted\""), Field::cont("x")]).unwrap();
        let values = ["a,b", "say \"hi\"", "\"\"", "line1\nline2", "é,☃", "plain", "a,b"];
        let xs = [0.1, -0.0, 1e300, f64::MIN_POSITIVE, 123456789.125, -7.0, 2.5e-8];
        let mut b = crate::TableBuilder::new(schema.clone());
        for (v, x) in values.iter().zip(xs) {
            b.push_row(vec![crate::Value::from(*v), crate::Value::from(x)]).unwrap();
        }
        let t = b.build();
        let text = table_csv(&t).unwrap();
        assert!(text.starts_with("\"name, \"\"quoted\"\"\",x\n"));
        let back = parse_csv_with_schema(&text, schema).unwrap();
        assert_eq!(back.cat(0).unwrap().codes(), t.cat(0).unwrap().codes());
        for code in 0..t.cat(0).unwrap().cardinality() as u32 {
            assert_eq!(back.cat(0).unwrap().value_of(code), t.cat(0).unwrap().value_of(code));
        }
        let bits = |t: &Table| t.num(1).unwrap().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&t));
    }
}
