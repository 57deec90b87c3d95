//! Error type shared by every crate in the workspace.

use crate::time::TimePoint;
use std::fmt;
use std::io;
use std::sync::Arc;

/// Result alias used throughout the workspace.
pub type TdbResult<T> = Result<T, TdbError>;

/// Errors surfaced by the temporal database engine.
#[derive(Debug, Clone)]
pub enum TdbError {
    /// A period violated the intra-tuple constraint `ValidFrom < ValidTo`.
    InvalidPeriod {
        /// The offending `ValidFrom`.
        start: TimePoint,
        /// The offending `ValidTo`.
        end: TimePoint,
    },
    /// A stream delivered tuples out of its declared sort order.
    OrderViolation {
        /// Operator or stream where the violation was observed.
        context: &'static str,
        /// Human-readable description of the violating pair.
        detail: String,
    },
    /// An operator was configured with a sort ordering it does not support
    /// (the "-" entries of the paper's Tables 1 and 2).
    UnsupportedOrdering {
        /// Operator that rejected the configuration.
        operator: &'static str,
        /// The orderings declared vs. required.
        detail: String,
    },
    /// Underlying storage I/O failed.
    Io(Arc<io::Error>),
    /// A serialized page or tuple was malformed.
    Corrupt(String),
    /// A write-ahead-log frame failed its CRC or framing check. Carries
    /// the log file and byte offset of the first bad frame so recovery
    /// tooling can point at the torn tail precisely.
    WalCorrupt {
        /// Log file containing the bad frame.
        file: String,
        /// Byte offset of the first bad frame.
        offset: u64,
        /// What the frame check found (CRC mismatch, short frame, …).
        detail: String,
    },
    /// Schema-level problem: unknown column, arity mismatch, type mismatch.
    Schema(String),
    /// Catalog-level problem: unknown or duplicate relation.
    Catalog(String),
    /// Query-text parse error, with 1-based line/column.
    Parse {
        /// 1-based source line of the error.
        line: usize,
        /// 1-based source column of the error.
        column: usize,
        /// What the parser expected or found.
        message: String,
    },
    /// Logical-plan construction or optimization failure.
    Plan(String),
    /// Runtime evaluation failure (e.g. type error in a predicate).
    Eval(String),
    /// A tuple violated a declared integrity constraint.
    ConstraintViolation(String),
    /// A client-supplied configuration setting was rejected: unknown
    /// `\set` key, unparsable value, or a value outside the supported
    /// range. Raised at the engine API boundary so every front end (CLI
    /// and wire) reports the same typed error.
    Config(String),
}

impl fmt::Display for TdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdbError::InvalidPeriod { start, end } => {
                write!(
                    f,
                    "invalid period: ValidFrom {start} must precede ValidTo {end}"
                )
            }
            TdbError::OrderViolation { context, detail } => {
                write!(f, "sort-order violation in {context}: {detail}")
            }
            TdbError::UnsupportedOrdering { operator, detail } => {
                write!(
                    f,
                    "{operator} cannot run as a stream processor under this ordering: {detail}"
                )
            }
            TdbError::Io(e) => write!(f, "I/O error: {e}"),
            TdbError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            TdbError::WalCorrupt {
                file,
                offset,
                detail,
            } => write!(f, "wal corrupt at {file}:{offset}: {detail}"),
            TdbError::Schema(m) => write!(f, "schema error: {m}"),
            TdbError::Catalog(m) => write!(f, "catalog error: {m}"),
            TdbError::Parse {
                line,
                column,
                message,
            } => write!(f, "parse error at {line}:{column}: {message}"),
            TdbError::Plan(m) => write!(f, "planning error: {m}"),
            TdbError::Eval(m) => write!(f, "evaluation error: {m}"),
            TdbError::ConstraintViolation(m) => write!(f, "integrity constraint violated: {m}"),
            TdbError::Config(m) => write!(f, "configuration error: {m}"),
        }
    }
}

impl std::error::Error for TdbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TdbError::Io(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for TdbError {
    fn from(e: io::Error) -> Self {
        TdbError::Io(Arc::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TdbError::InvalidPeriod {
            start: TimePoint(5),
            end: TimePoint(5),
        };
        assert!(e.to_string().contains("t5"));

        let e = TdbError::Parse {
            line: 3,
            column: 14,
            message: "expected identifier".into(),
        };
        assert!(e.to_string().contains("3:14"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let ioe = io::Error::new(io::ErrorKind::UnexpectedEof, "short read");
        let e: TdbError = ioe.into();
        assert!(e.to_string().contains("short read"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn errors_are_cloneable_for_stream_fanout() {
        let e = TdbError::Plan("x".into());
        let _ = e.clone();
        let e: TdbError = io::Error::other("disk on fire").into();
        let c = e.clone();
        assert_eq!(e.to_string(), c.to_string());
    }
}
