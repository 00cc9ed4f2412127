//! Error type for the relational base layer.

use std::fmt;

/// Errors produced by expression evaluation, row decoding and schema lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// Two values had incompatible types for the attempted operation.
    TypeMismatch {
        /// Description of the operation that failed.
        op: String,
        /// Rendered left-hand operand.
        lhs: String,
        /// Rendered right-hand operand.
        rhs: String,
    },
    /// An arithmetic result does not fit its type: an `Int` past `i64`, or
    /// a `Float` past `f64`'s finite range.
    Overflow {
        /// The operator.
        op: String,
        /// Rendered left-hand operand.
        lhs: String,
        /// Rendered right-hand operand.
        rhs: String,
    },
    /// A column index was out of bounds for the row it was applied to.
    ColumnOutOfBounds {
        /// The requested column index.
        index: usize,
        /// The width of the row.
        width: usize,
    },
    /// A column name could not be resolved against a schema.
    UnknownColumn(String),
    /// A column name matched more than one field in a schema.
    AmbiguousColumn(String),
    /// A text field could not be decoded as the declared type.
    Decode {
        /// The raw text that failed to decode.
        text: String,
        /// The target type.
        ty: String,
    },
    /// A record line had the wrong number of fields.
    FieldCount {
        /// Number of fields expected by the schema.
        expected: usize,
        /// Number of fields found in the line.
        found: usize,
    },
    /// Division by zero during expression evaluation.
    DivideByZero,
    /// A columnar frame failed decoding or verification (bad magic,
    /// checksum mismatch, truncation, invalid payload).
    Frame(String),
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::TypeMismatch { op, lhs, rhs } => {
                write!(f, "type mismatch in {op}: {lhs} vs {rhs}")
            }
            RelError::Overflow { op, lhs, rhs } => {
                write!(f, "arithmetic overflow in {op}: {lhs} {op} {rhs}")
            }
            RelError::ColumnOutOfBounds { index, width } => {
                write!(
                    f,
                    "column index {index} out of bounds for row of width {width}"
                )
            }
            RelError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            RelError::AmbiguousColumn(name) => write!(f, "ambiguous column `{name}`"),
            RelError::Decode { text, ty } => write!(f, "cannot decode `{text}` as {ty}"),
            RelError::FieldCount { expected, found } => {
                write!(f, "expected {expected} fields, found {found}")
            }
            RelError::DivideByZero => write!(f, "division by zero"),
            RelError::Frame(what) => write!(f, "invalid columnar frame: {what}"),
        }
    }
}

impl std::error::Error for RelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errs = [
            RelError::TypeMismatch {
                op: "+".into(),
                lhs: "1".into(),
                rhs: "'a'".into(),
            },
            RelError::Overflow {
                op: "*".into(),
                lhs: "1e308".into(),
                rhs: "10.0".into(),
            },
            RelError::ColumnOutOfBounds { index: 3, width: 2 },
            RelError::UnknownColumn("x".into()),
            RelError::AmbiguousColumn("y".into()),
            RelError::Decode {
                text: "z".into(),
                ty: "Int".into(),
            },
            RelError::FieldCount {
                expected: 4,
                found: 2,
            },
            RelError::DivideByZero,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(RelError::DivideByZero);
        assert_eq!(e.to_string(), "division by zero");
    }
}
