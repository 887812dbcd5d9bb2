//! Error type shared by the storage layer.

use std::fmt;

/// Errors surfaced by the storage substrate.
#[derive(Debug)]
pub enum StorageError {
    /// The page store holds no page under this id.
    MissingEntry { id: u64 },
    /// A page image on disk was malformed.
    Corrupt(String),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::MissingEntry { id } => write!(f, "no stored page with id {id}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt page image: {msg}"),
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias used across the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;
