//! Engine error type, with stable numeric codes for the wire protocol.

use std::fmt;

/// Errors surfaced by the L-Store engine.
#[derive(Debug)]
pub enum Error {
    /// Insert with a key that already exists in the primary index.
    DuplicateKey(u64),
    /// Point operation on a key absent from the primary index.
    KeyNotFound(u64),
    /// Database-level operation naming a table that does not exist.
    TableNotFound(String),
    /// `create_table` with the name of a table that already exists.
    TableExists(String),
    /// Write-write conflict detected on the indirection latch or on an
    /// uncommitted competing version (§5.1.1 `write`); the transaction must
    /// abort.
    WriteConflict { base_rid: u64 },
    /// Commit-time read validation failed (§5.1.1 `validate reads`).
    ValidationFailed { base_rid: u64 },
    /// Column index outside the table schema.
    ColumnOutOfRange { column: usize, columns: usize },
    /// Schema declared more data columns than the encoding bitmap supports.
    TooManyColumns(usize),
    /// Operation on a transaction that is no longer active.
    TxnNotActive,
    /// Commit (or another lifecycle transition) on a transaction that has
    /// already been finalized — committed or aborted. Unlike
    /// [`Error::TxnNotActive`] (an operation inside a transaction that
    /// stopped being active), this is the commit path refusing to re-enter
    /// the §5.1.1 state machine on a terminal state.
    TxnFinalized,
    /// Storage-layer failure.
    Storage(lstore_storage::StorageError),
    /// Log / recovery failure.
    Wal(lstore_wal::WalError),
    /// The service tier shed this request: the bounded in-flight budget was
    /// full and queueing it unboundedly would have hidden the overload.
    Overloaded,
    /// The service tier gave up on this request before executing it: it sat
    /// queued past the configured per-request deadline.
    RequestTimeout,
    /// Malformed or unspeakable wire traffic (bad frame, unknown request
    /// kind, protocol version mismatch, …).
    Protocol(String),
    /// An error that crossed the wire without a structured local variant —
    /// the remote's stable code plus its rendered message. `Storage` and
    /// `Wal` errors arrive as this (their payloads are host-local handles,
    /// not serializable state).
    Remote {
        /// The remote error's stable code (`Error::code`).
        code: u16,
        /// The remote error's rendered `Display` text.
        detail: String,
    },
}

/// An [`Error`] exploded into wire-serializable parts: the stable `code`,
/// two numeric payload slots, and a free-text detail. Structured variants
/// round-trip losslessly through this form ([`Error::from_parts`] ∘
/// [`Error::to_parts`] is the identity on codes and payloads); host-local
/// variants (`Storage`, `Wal`) decode as [`Error::Remote`] with the same
/// code and rendered text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorParts {
    /// Stable numeric code ([`Error::code`]).
    pub code: u16,
    /// First numeric payload (key, base rid, column, …; 0 when unused).
    pub a: u64,
    /// Second numeric payload (schema width for `ColumnOutOfRange`; 0
    /// when unused).
    pub b: u64,
    /// Free-text payload (table name, protocol detail, remote message).
    pub detail: String,
}

impl Error {
    /// Stable numeric code for this variant. Codes are wire protocol: they
    /// never change meaning and are never reused (new variants take new
    /// codes). [`Error::Remote`] reports the code it carried across.
    pub fn code(&self) -> u16 {
        match self {
            Error::DuplicateKey(_) => 1,
            Error::KeyNotFound(_) => 2,
            Error::TableNotFound(_) => 3,
            Error::WriteConflict { .. } => 4,
            Error::ValidationFailed { .. } => 5,
            Error::ColumnOutOfRange { .. } => 6,
            Error::TooManyColumns(_) => 7,
            Error::TxnNotActive => 8,
            Error::Storage(_) => 9,
            Error::Wal(_) => 10,
            Error::Overloaded => 11,
            Error::RequestTimeout => 12,
            Error::Protocol(_) => 13,
            Error::TxnFinalized => 14,
            Error::TableExists(_) => 15,
            Error::Remote { code, .. } => *code,
        }
    }

    /// Explode into wire-serializable parts (see [`ErrorParts`]).
    pub fn to_parts(&self) -> ErrorParts {
        let (a, b, detail) = match self {
            Error::DuplicateKey(k) | Error::KeyNotFound(k) => (*k, 0, String::new()),
            Error::TableNotFound(name) | Error::TableExists(name) => (0, 0, name.clone()),
            Error::WriteConflict { base_rid } | Error::ValidationFailed { base_rid } => {
                (*base_rid, 0, String::new())
            }
            Error::ColumnOutOfRange { column, columns } => {
                (*column as u64, *columns as u64, String::new())
            }
            Error::TooManyColumns(n) => (*n as u64, 0, String::new()),
            Error::TxnNotActive
            | Error::TxnFinalized
            | Error::Overloaded
            | Error::RequestTimeout => (0, 0, String::new()),
            Error::Storage(e) => (0, 0, e.to_string()),
            Error::Wal(e) => (0, 0, e.to_string()),
            Error::Protocol(detail) => (0, 0, detail.clone()),
            Error::Remote { detail, .. } => (0, 0, detail.clone()),
        };
        ErrorParts {
            code: self.code(),
            a,
            b,
            detail,
        }
    }

    /// Rebuild an [`Error`] from wire parts. Structured codes reconstruct
    /// their exact variant; `Storage`/`Wal` and unknown codes become
    /// [`Error::Remote`] carrying the code and detail unchanged, so a
    /// re-encode transmits identical parts.
    pub fn from_parts(parts: ErrorParts) -> Error {
        let ErrorParts { code, a, b, detail } = parts;
        match code {
            1 => Error::DuplicateKey(a),
            2 => Error::KeyNotFound(a),
            3 => Error::TableNotFound(detail),
            4 => Error::WriteConflict { base_rid: a },
            5 => Error::ValidationFailed { base_rid: a },
            6 => Error::ColumnOutOfRange {
                column: a as usize,
                columns: b as usize,
            },
            7 => Error::TooManyColumns(a as usize),
            8 => Error::TxnNotActive,
            11 => Error::Overloaded,
            12 => Error::RequestTimeout,
            13 => Error::Protocol(detail),
            14 => Error::TxnFinalized,
            15 => Error::TableExists(detail),
            _ => Error::Remote { code, detail },
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            Error::KeyNotFound(k) => write!(f, "key {k} not found"),
            Error::TableNotFound(name) => write!(f, "table {name:?} not found"),
            Error::TableExists(name) => write!(f, "table {name:?} already exists"),
            Error::WriteConflict { base_rid } => {
                write!(f, "write-write conflict on base rid {base_rid:#x}")
            }
            Error::ValidationFailed { base_rid } => {
                write!(f, "read validation failed for base rid {base_rid:#x}")
            }
            Error::ColumnOutOfRange { column, columns } => {
                write!(f, "column {column} out of range (table has {columns})")
            }
            Error::TooManyColumns(n) => {
                write!(
                    f,
                    "{n} data columns exceed the schema-encoding bitmap capacity"
                )
            }
            Error::TxnNotActive => write!(f, "transaction is not active"),
            Error::TxnFinalized => {
                write!(f, "transaction already finalized (committed or aborted)")
            }
            Error::Storage(e) => write!(f, "storage error: {e}"),
            Error::Wal(e) => write!(f, "wal error: {e}"),
            Error::Overloaded => write!(f, "server overloaded: request shed by in-flight budget"),
            Error::RequestTimeout => write!(f, "request timed out before execution"),
            Error::Protocol(detail) => write!(f, "protocol error: {detail}"),
            Error::Remote { code, detail } => write!(f, "remote error (code {code}): {detail}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Storage(e) => Some(e),
            Error::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lstore_storage::StorageError> for Error {
    fn from(e: lstore_storage::StorageError) -> Self {
        Error::Storage(e)
    }
}

impl From<lstore_wal::WalError> for Error {
    fn from(e: lstore_wal::WalError) -> Self {
        Error::Wal(e)
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Error> {
        vec![
            Error::DuplicateKey(7),
            Error::KeyNotFound(u64::MAX),
            Error::TableNotFound("accounts".into()),
            Error::WriteConflict { base_rid: 0x42 },
            Error::ValidationFailed { base_rid: 9 },
            Error::ColumnOutOfRange {
                column: 12,
                columns: 4,
            },
            Error::TooManyColumns(99),
            Error::TxnNotActive,
            Error::TxnFinalized,
            Error::Overloaded,
            Error::RequestTimeout,
            Error::Protocol("bad magic".into()),
            Error::TableExists("accounts".into()),
            Error::Remote {
                code: 10,
                detail: "wal error: torn record".into(),
            },
        ]
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let codes: Vec<u16> = samples().iter().map(Error::code).collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 5, 6, 7, 8, 14, 11, 12, 13, 15, 10]);
    }

    #[test]
    fn structured_variants_round_trip_exactly() {
        for err in samples() {
            let parts = err.to_parts();
            let back = Error::from_parts(parts.clone());
            // Parts are the canonical wire form: a decode/re-encode cycle
            // must transmit identical bytes for every variant.
            assert_eq!(back.to_parts(), parts, "parts drifted for {err:?}");
            assert_eq!(back.code(), err.code());
        }
    }

    #[test]
    fn host_local_variants_decode_as_remote() {
        let err = Error::Storage(lstore_storage::StorageError::Corrupt("page 3".into()));
        let parts = err.to_parts();
        assert_eq!(parts.code, 9);
        match Error::from_parts(parts.clone()) {
            Error::Remote { code, detail } => {
                assert_eq!(code, 9);
                assert_eq!(
                    detail,
                    err.to_string().trim_start_matches("storage error: ")
                );
            }
            other => panic!("expected Remote, got {other:?}"),
        }
    }
}
