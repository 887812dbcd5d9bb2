//! The page-store file: a crash-tolerant append-only sequence of records.
//!
//! The store file must be readable *and* writable for the whole life of
//! the database, and any prefix of it must be recoverable after a crash.
//! So instead of a footer index, every record is self-framed:
//!
//! ```text
//! magic "LSPR" | u64 page id | u32 payload len | payload (one page image, `crate::disk`)
//! ```
//!
//! [`StoreFile::open`] scans records from the start and stops at the first
//! torn or unrecognizable one: the logical end is wherever the valid prefix
//! ends, and the next append overwrites any torn tail. The end offset only
//! advances after a record is completely written, so a failed append
//! (short write, `ENOSPC`) leaves the previous contents untouched.
//!
//! Re-appending a record under an existing id supersedes the earlier one —
//! the in-memory index keeps the latest offset per id; the file grows until
//! the store is compacted by rewriting it (a checkpoint into a fresh path).

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};

const RECORD_MAGIC: &[u8; 4] = b"LSPR";
const HEADER_LEN: u64 = 4 + 8 + 4;

/// Record directory recovered by [`StoreFile::open`]: one
/// `(page id, payload offset, payload len)` entry per intact record, in
/// file order (later entries for the same id supersede earlier ones).
pub(crate) type RecordDirectory = Vec<(u64, u64, u32)>;

/// An open page-store file. Appends serialize on the end offset; reads go
/// straight through positioned I/O and never block appends.
pub(crate) struct StoreFile {
    file: File,
    /// One past the last complete record.
    end: Mutex<u64>,
}

impl StoreFile {
    /// Open (creating if absent) the store file at `path` and scan its
    /// record directory: `(page id, payload offset, payload len)` in file
    /// order, truncated at the first torn record.
    pub(crate) fn open(path: &Path) -> StorageResult<(StoreFile, RecordDirectory)> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let mut entries = Vec::new();
        let mut off = 0u64;
        let mut header = [0u8; HEADER_LEN as usize];
        while off + HEADER_LEN <= len {
            if file.read_exact_at(&mut header, off).is_err() {
                break;
            }
            if &header[..4] != RECORD_MAGIC {
                break;
            }
            let id = u64::from_be_bytes(header[4..12].try_into().expect("header slice"));
            let payload_len = u32::from_be_bytes(header[12..16].try_into().expect("header slice"));
            let payload_off = off + HEADER_LEN;
            if payload_off + payload_len as u64 > len {
                break; // torn tail: the payload never finished writing
            }
            entries.push((id, payload_off, payload_len));
            off = payload_off + payload_len as u64;
        }
        Ok((
            StoreFile {
                file,
                end: Mutex::new(off),
            },
            entries,
        ))
    }

    /// Append one record; returns `(payload offset, payload len)` for the
    /// index. The end offset advances only on full success, so a partial
    /// write is invisible to `open` and overwritten by the next append.
    pub(crate) fn append(&self, id: u64, payload: &[u8]) -> StorageResult<(u64, u32)> {
        let payload_len = u32::try_from(payload.len())
            .map_err(|_| StorageError::Corrupt("page image exceeds 4 GiB record limit".into()))?;
        let mut end = self.end.lock();
        let off = *end;
        let mut header = [0u8; HEADER_LEN as usize];
        header[..4].copy_from_slice(RECORD_MAGIC);
        header[4..12].copy_from_slice(&id.to_be_bytes());
        header[12..16].copy_from_slice(&payload_len.to_be_bytes());
        self.file.write_all_at(&header, off)?;
        self.file.write_all_at(payload, off + HEADER_LEN)?;
        *end = off + HEADER_LEN + payload_len as u64;
        Ok((off + HEADER_LEN, payload_len))
    }

    /// Read one record payload by position.
    pub(crate) fn read(&self, off: u64, len: u32) -> StorageResult<Vec<u8>> {
        let mut buf = vec![0u8; len as usize];
        self.read_into(off, &mut buf)?;
        Ok(buf)
    }

    /// Fill `buf` from the file at `off` (part of a payload).
    pub(crate) fn read_into(&self, off: u64, buf: &mut [u8]) -> StorageResult<()> {
        self.file.read_exact_at(buf, off)?;
        Ok(())
    }

    /// Flush file contents and metadata to stable storage.
    pub(crate) fn sync(&self) -> StorageResult<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

impl std::fmt::Debug for StoreFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreFile")
            .field("end", &*self.end.lock())
            .finish_non_exhaustive()
    }
}
