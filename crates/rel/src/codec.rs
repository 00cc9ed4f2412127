//! Pipe-delimited text codec for rows.
//!
//! Raw data files in the simulated HDFS are line-oriented text, one record
//! per line with `|`-separated fields — the format of TPC-H `.tbl` files and
//! the "line (a record) in the raw data file" the common mapper of §VI-A
//! accepts. NULL is encoded as the empty field.

use crate::colbatch::CellRef;
use crate::error::RelError;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// Field separator used in data files.
pub const SEPARATOR: char = '|';

/// Encodes a row as a `|`-separated line (no trailing separator).
///
/// # Examples
///
/// ```
/// use ysmart_rel::{row, codec::encode_line};
/// assert_eq!(encode_line(&row![1i64, "x", 2.5f64]), "1|x|2.5");
/// ```
#[must_use]
pub fn encode_line(row: &Row) -> String {
    let mut out = String::new();
    encode_line_into(row, &mut out);
    out
}

/// Appends a row's `|`-separated encoding to an existing buffer — lets
/// callers prefix a tag (or reuse an allocation) without a second pass.
pub fn encode_line_into(row: &Row, out: &mut String) {
    encode_cells_into(row.values(), out);
}

/// [`encode_line_into`] over a record's cells wherever they lie, not
/// necessarily in a `Row`.
pub fn encode_cells_into(cells: &[Value], out: &mut String) {
    encode_cell_refs_into(cells.iter().map(CellRef::from), out);
}

/// The text line writer every record goes through: the cells
/// `|`-separated, read where they lie — a `Row`'s values or a typed
/// column's cells ([`CellRef`]).
pub fn encode_cell_refs_into<'a>(cells: impl IntoIterator<Item = CellRef<'a>>, out: &mut String) {
    use std::fmt::Write as _;
    for (i, cell) in cells.into_iter().enumerate() {
        if i > 0 {
            out.push(SEPARATOR);
        }
        // Int/Str/Bool bypass the `Formatter` machinery; Float keeps the
        // `Display` logic so the textual form (and round-trip) is unchanged.
        match cell {
            CellRef::Null => {}
            CellRef::Str(s) => out.push_str(s),
            CellRef::Int(n) => push_i64(out, n),
            CellRef::Bool(b) => out.push_str(if b { "true" } else { "false" }),
            CellRef::Float(f) => write!(out, "{}", Value::Float(f)).expect("write to String"),
        }
    }
}

/// Appends an `i64` in decimal without going through `core::fmt`.
fn push_i64(out: &mut String, v: i64) {
    // 20 bytes covers `-9223372036854775808`.
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    // Work in the negative domain so `i64::MIN` needs no special case.
    let mut n = if v > 0 { -v } else { v };
    loop {
        pos -= 1;
        buf[pos] = b'0' + (-(n % 10)) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        pos -= 1;
        buf[pos] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[pos..]).expect("ascii digits"));
}

/// Decodes a `|`-separated line into a row, typed by `schema`.
///
/// # Errors
///
/// [`RelError::FieldCount`] when the number of fields differs from the
/// schema width; [`RelError::Decode`] when a field cannot be parsed as its
/// declared type.
pub fn decode_line(line: &str, schema: &Schema) -> Result<Row, RelError> {
    decode_line_projected(line, schema, &[])
}

/// Decodes a line like [`decode_line`], but parses only the fields marked
/// in `needed` (a field past its end is needed); the rest become NULL
/// placeholders so the row keeps its schema width (and column indices)
/// without paying for values no operator reads. The field count is still
/// validated against the schema.
///
/// # Errors
///
/// As [`decode_line`], except parse errors in unneeded fields go
/// undetected (they are never parsed).
pub fn decode_line_projected(
    line: &str,
    schema: &Schema,
    needed: &[bool],
) -> Result<Row, RelError> {
    // Stream the split directly — no intermediate Vec<&str> per line.
    let mut fields = line.split(SEPARATOR);
    let mut values = Vec::with_capacity(schema.len());
    let field_count_err = |found: usize| RelError::FieldCount {
        expected: schema.len(),
        found,
    };
    for (i, field) in schema.fields().iter().enumerate() {
        let text = fields.next().ok_or_else(|| field_count_err(values.len()))?;
        values.push(if needed.get(i).copied().unwrap_or(true) {
            decode_field(text, field.data_type)?
        } else {
            Value::Null
        });
    }
    let extra = fields.count();
    if extra > 0 {
        return Err(field_count_err(schema.len() + extra));
    }
    Ok(Row::new(values))
}

/// Decodes one field as the given type. Empty text is NULL.
pub fn decode_field(text: &str, ty: DataType) -> Result<Value, RelError> {
    if text.is_empty() {
        return Ok(Value::Null);
    }
    let err = || RelError::Decode {
        text: text.to_string(),
        ty: ty.to_string(),
    };
    match ty {
        DataType::Bool => match text {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(err()),
        },
        DataType::Int => text.parse::<i64>().map(Value::Int).map_err(|_| err()),
        // Reject non-finite floats: `str::parse` happily accepts "inf" and
        // "NaN", but no valid data file contains them — corrupted bytes can
        // mutate a numeric field into one, and a NaN poisons comparisons
        // and aggregation downstream. Treat them as decode errors so the
        // bad-record machinery sees them.
        DataType::Float => text
            .parse::<f64>()
            .ok()
            .filter(|f| f.is_finite())
            .map(Value::Float)
            .ok_or_else(err),
        DataType::Str => Ok(Value::Str(text.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn schema() -> Schema {
        Schema::of(
            "t",
            &[
                ("a", DataType::Int),
                ("b", DataType::Str),
                ("c", DataType::Float),
                ("d", DataType::Bool),
            ],
        )
    }

    #[test]
    fn round_trip() {
        let r = row![42i64, "hello", 3.5f64, true];
        let line = encode_line(&r);
        assert_eq!(line, "42|hello|3.5|true");
        assert_eq!(decode_line(&line, &schema()).unwrap(), r);
    }

    #[test]
    fn null_round_trip() {
        let r = Row::new(vec![
            Value::Null,
            Value::Str("x".into()),
            Value::Null,
            Value::Bool(false),
        ]);
        let line = encode_line(&r);
        assert_eq!(line, "|x||false");
        assert_eq!(decode_line(&line, &schema()).unwrap(), r);
    }

    #[test]
    fn float_whole_number_round_trip() {
        let r = Row::new(vec![
            Value::Int(1),
            Value::Str("s".into()),
            Value::Float(2.0),
            Value::Bool(true),
        ]);
        let line = encode_line(&r);
        let back = decode_line(&line, &schema()).unwrap();
        assert_eq!(back.get(2).unwrap(), &Value::Float(2.0));
    }

    #[test]
    fn wrong_field_count() {
        assert!(matches!(
            decode_line("1|2", &schema()),
            Err(RelError::FieldCount {
                expected: 4,
                found: 2
            })
        ));
    }

    #[test]
    fn bad_int() {
        assert!(matches!(
            decode_line("xx|a|1.0|true", &schema()),
            Err(RelError::Decode { .. })
        ));
    }

    #[test]
    fn bad_bool() {
        assert!(decode_field("yes", DataType::Bool).is_err());
    }

    #[test]
    fn non_finite_floats_are_decode_errors() {
        for text in ["inf", "-inf", "infinity", "NaN", "nan", "1e999"] {
            assert!(
                decode_field(text, DataType::Float).is_err(),
                "{text:?} must not decode"
            );
        }
        assert!(decode_field("1e30", DataType::Float).is_ok());
    }

    #[test]
    fn int_encoding_extremes() {
        for n in [0i64, -1, 1, 42, -42, i64::MAX, i64::MIN] {
            assert_eq!(encode_line(&row![n]), n.to_string());
        }
    }
}
