//! Error type for the relational substrate.

use std::fmt;

/// Errors produced by table construction, access, and query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A row was pushed whose arity does not match the schema.
    ArityMismatch {
        /// Schema arity.
        expected: usize,
        /// Row arity.
        got: usize,
    },
    /// A value's type does not match the attribute's declared type.
    TypeMismatch {
        /// Offending attribute name.
        attr: String,
        /// The type the schema declares.
        expected: &'static str,
    },
    /// An attribute name was not found in the schema.
    UnknownAttribute(String),
    /// An attribute index is out of bounds.
    AttributeOutOfBounds {
        /// Requested index.
        index: usize,
        /// Schema length.
        len: usize,
    },
    /// A row index is out of bounds.
    RowOutOfBounds {
        /// Requested row.
        index: usize,
        /// Table length.
        len: usize,
    },
    /// The operation requires a non-empty table or group.
    Empty(&'static str),
    /// A schema declared two attributes with the same name.
    DuplicateAttribute(String),
    /// Query referenced overlapping attribute roles (e.g. aggregating a
    /// group-by attribute), which the problem statement forbids
    /// (`A_agg ∩ A_gb = ∅`).
    ConflictingRoles {
        /// The attribute claimed by two roles.
        attr: String,
    },
    /// Whole columns handed to a columnar constructor are inconsistent
    /// (unequal lengths, a code outside its dictionary, a repeated
    /// dictionary value).
    InvalidColumn(String),
    /// CSV text (or the file holding it) cannot be read as a table: an
    /// unterminated quote, a header that does not match the schema, or
    /// a failed file read.
    Csv(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ArityMismatch { expected, got } => {
                write!(f, "row arity mismatch: schema has {expected} attributes, row has {got}")
            }
            TableError::TypeMismatch { attr, expected } => {
                write!(f, "type mismatch for attribute `{attr}`: expected {expected}")
            }
            TableError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            TableError::AttributeOutOfBounds { index, len } => {
                write!(f, "attribute index {index} out of bounds for schema of length {len}")
            }
            TableError::RowOutOfBounds { index, len } => {
                write!(f, "row index {index} out of bounds for table of length {len}")
            }
            TableError::Empty(what) => write!(f, "operation requires non-empty {what}"),
            TableError::DuplicateAttribute(name) => {
                write!(f, "duplicate attribute `{name}` in schema")
            }
            TableError::ConflictingRoles { attr } => {
                write!(f, "attribute `{attr}` used in conflicting query roles")
            }
            TableError::InvalidColumn(msg) => write!(f, "invalid column: {msg}"),
            TableError::Csv(msg) => write!(f, "bad CSV: {msg}"),
        }
    }
}

impl std::error::Error for TableError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TableError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TableError::ArityMismatch { expected: 3, got: 2 };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("2"));
        let e = TableError::UnknownAttribute("voltage".into());
        assert!(e.to_string().contains("voltage"));
        let e = TableError::TypeMismatch { attr: "temp".into(), expected: "continuous" };
        assert!(e.to_string().contains("temp"));
        assert!(e.to_string().contains("continuous"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&TableError::Empty("table"));
    }
}
