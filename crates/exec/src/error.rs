//! Execution errors.

use std::error::Error;
use std::fmt;

/// Errors raised while laying out or executing a program.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A declared parameter was not bound to a value.
    UnboundParam(String),
    /// An array extent evaluated to a non-positive value.
    BadExtent {
        /// Array name.
        array: String,
        /// The offending extent.
        extent: i64,
    },
    /// A load or store fell outside its array. (Out-of-bounds
    /// *prefetches* are legal and silently dropped.)
    OutOfBounds {
        /// Array name.
        array: String,
        /// The evaluated subscripts.
        indices: Vec<i64>,
        /// The array extents.
        extents: Vec<i64>,
    },
    /// The program failed structural validation.
    Invalid(String),
    /// The event-stream file (`--events`) could not be created. Raised
    /// when the engine is built, before any work runs, so a bad path
    /// fails fast instead of surfacing after the search.
    Telemetry {
        /// The offending path.
        path: String,
        /// The underlying I/O error.
        msg: String,
    },
    /// The persistent result store (`--store`) could not be opened.
    /// Like [`ExecError::Telemetry`], raised when the engine is built
    /// so a bad store root fails fast.
    Store {
        /// The store root.
        path: String,
        /// The underlying store error.
        msg: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnboundParam(name) => write!(f, "parameter {name} is unbound"),
            ExecError::BadExtent { array, extent } => {
                write!(f, "array {array} has non-positive extent {extent}")
            }
            ExecError::OutOfBounds {
                array,
                indices,
                extents,
            } => write!(f, "access {array}{indices:?} outside extents {extents:?}"),
            ExecError::Invalid(msg) => write!(f, "invalid program: {msg}"),
            ExecError::Telemetry { path, msg } => {
                write!(f, "cannot create events file {path}: {msg}")
            }
            ExecError::Store { path, msg } => {
                write!(f, "cannot open result store {path}: {msg}")
            }
        }
    }
}

impl Error for ExecError {}
