//! Error type for the streaming layer.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StreamError>;

/// Errors produced by the streaming layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// Propagated from the relational substrate.
    Table(scorpion_table::TableError),
    /// Propagated from the explanation engine.
    Engine(scorpion_core::ScorpionError),
    /// A configuration value is out of range or inconsistent.
    BadConfig(&'static str),
    /// An ingested row does not conform to the stream schema.
    BadRow(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Table(e) => write!(f, "table error: {e}"),
            StreamError::Engine(e) => write!(f, "engine error: {e}"),
            StreamError::BadConfig(msg) => write!(f, "bad stream configuration: {msg}"),
            StreamError::BadRow(msg) => write!(f, "bad row: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<scorpion_table::TableError> for StreamError {
    fn from(e: scorpion_table::TableError) -> Self {
        StreamError::Table(e)
    }
}

impl From<scorpion_core::ScorpionError> for StreamError {
    fn from(e: scorpion_core::ScorpionError) -> Self {
        StreamError::Engine(e)
    }
}
