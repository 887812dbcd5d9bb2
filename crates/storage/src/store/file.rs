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
//! A record is *whole* when its header parses, its payload lies inside
//! the file and begins its page's image, first block checksum included,
//! and — for a checkpoint manifest — its whole image decodes.
//! [`StoreFile::open`] scans records from the start and stops at the
//! first one that is not whole. Whether that is a torn tail or damage
//! depends on what follows it. A manifest record is appended only after
//! everything before it is synced (the append syncs first, under the end
//! lock, so no other record slips in between). So a whole manifest
//! further on proves the bad record was durable, and the open fails with
//! [`StorageError::Corrupt`]. Otherwise the bad record and what follows
//! were never published by a manifest: a crash may have torn them, or
//! landed their sectors out of order. The logical end is then the bad
//! record's offset, and the next append overwrites the tail.
//!
//! The end offset only advances after a record is completely written, so
//! a failed append (short write, `ENOSPC`) leaves the previous contents
//! untouched: the next append overwrites the partial record, and a reopen
//! indexes only the records that were whole. All of it goes through one
//! [`crate::io::File`] handle, which the store's [`crate::io::Fs`] opened.
//!
//! Re-appending a record under an existing id supersedes the earlier one —
//! the in-memory index keeps the latest offset per id; the file grows until
//! the store is compacted by rewriting it (a checkpoint into a fresh path).

use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use super::MANIFEST_ID_BASE;
use crate::disk::{decode_image, starts_image, BLOCK_BYTES};
use crate::error::{StorageError, StorageResult};
use crate::io::{File, Fs};

const RECORD_MAGIC: &[u8; 4] = b"LSPR";
const HEADER_LEN: u64 = 4 + 8 + 4;

/// Record directory recovered by [`StoreFile::open`]: one
/// `(page id, payload offset, payload len)` entry per intact record, in
/// file order (later entries for the same id supersede earlier ones).
pub(crate) type RecordDirectory = Vec<(u64, u64, u32)>;

/// An open page-store file. Appends serialize on the end offset; reads go
/// straight through positioned I/O and never block appends.
pub(crate) struct StoreFile {
    file: Arc<dyn File>,
    /// One past the last complete record.
    end: Mutex<u64>,
}

impl StoreFile {
    /// Open (creating if absent) the store file at `path` in `fs` and scan
    /// its record directory: `(page id, payload offset, payload len)` in
    /// file order, up to the first record that is not whole — an error
    /// when a whole manifest follows it (see the module docs).
    pub(crate) fn open(fs: &dyn Fs, path: &Path) -> StorageResult<(StoreFile, RecordDirectory)> {
        let file = fs.open(path)?;
        let len = file.len()?;
        let mut entries = Vec::new();
        let mut off = 0u64;
        while let Some(entry @ (_, payload_off, payload_len)) = whole_record(&*file, off, len)? {
            entries.push(entry);
            off = payload_off + payload_len as u64;
        }
        if let Some(at) = manifest_after(&*file, off, len)? {
            return Err(StorageError::Corrupt(format!(
                "page-store record at offset {off} is damaged, yet the manifest at {at} follows it"
            )));
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
    /// write is invisible to `open` and overwritten by the next append. A
    /// manifest is appended only after a sync of everything before it.
    pub(crate) fn append(&self, id: u64, payload: &[u8]) -> StorageResult<(u64, u32)> {
        let payload_len = u32::try_from(payload.len())
            .map_err(|_| StorageError::Corrupt("page image exceeds 4 GiB record limit".into()))?;
        let mut end = self.end.lock();
        if id & MANIFEST_ID_BASE != 0 {
            self.file.sync_all()?;
        }
        let off = *end;
        let mut header = [0u8; HEADER_LEN as usize];
        header[..4].copy_from_slice(RECORD_MAGIC);
        header[4..12].copy_from_slice(&id.to_be_bytes());
        header[12..16].copy_from_slice(&payload_len.to_be_bytes());
        self.file.write_at(&header, off)?;
        self.file.write_at(payload, off + HEADER_LEN)?;
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
        self.file.read_at(buf, off)?;
        Ok(())
    }

    /// Flush file contents and metadata to stable storage.
    pub(crate) fn sync(&self) -> StorageResult<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

/// The record at `off` as a directory entry, if it is whole (see the
/// module docs). The file's first record is an error instead when its
/// image header is neither this build's nor torn: the file is foreign.
fn whole_record(file: &dyn File, off: u64, len: u64) -> StorageResult<Option<(u64, u64, u32)>> {
    let mut header = [0u8; HEADER_LEN as usize];
    if off + HEADER_LEN > len {
        return Ok(None);
    }
    file.read_at(&mut header, off)?;
    let Some((id, payload_len)) = parse_header(&header) else {
        return Ok(None);
    };
    let payload_off = off + HEADER_LEN;
    if payload_off + payload_len as u64 > len {
        return Ok(None);
    }
    let (manifest, n) = (id & MANIFEST_ID_BASE != 0, payload_len as usize);
    let mut payload = vec![0u8; if manifest { n } else { n.min(BLOCK_BYTES) }];
    file.read_at(&mut payload, payload_off)?;
    let start = &payload[..n.min(BLOCK_BYTES)];
    let whole =
        starts_image(id, n, start, off == 0)? && (!manifest || decode_image(id, &payload).is_ok());
    Ok(whole.then_some((id, payload_off, payload_len)))
}

/// The offset of a whole manifest record starting after `from`, if any:
/// a search for the record magic at every byte, a window at a time.
fn manifest_after(file: &dyn File, from: u64, len: u64) -> StorageResult<Option<u64>> {
    const WINDOW: u64 = 1 << 20;
    let mut buf = Vec::new();
    let mut at = from + 1;
    while at + HEADER_LEN <= len {
        buf.resize(WINDOW.min(len - at) as usize, 0);
        file.read_at(&mut buf, at)?;
        for (i, w) in buf.windows(RECORD_MAGIC.len()).enumerate() {
            let off = at + i as u64;
            if w == RECORD_MAGIC {
                if let Some((id, ..)) = whole_record(file, off, len)? {
                    if id & MANIFEST_ID_BASE != 0 {
                        return Ok(Some(off));
                    }
                }
            }
        }
        // The last three bytes may start a magic the next window finishes.
        at += buf.len() as u64 - (RECORD_MAGIC.len() as u64 - 1);
    }
    Ok(None)
}

/// A record header's page id and payload length; `None` when it does not
/// start with the record magic.
fn parse_header(header: &[u8; HEADER_LEN as usize]) -> Option<(u64, u32)> {
    let (magic, rest) = header.split_first_chunk::<4>()?;
    let (id, rest) = rest.split_first_chunk::<8>()?;
    let (len, _) = rest.split_first_chunk::<4>()?;
    (magic == RECORD_MAGIC).then(|| (u64::from_be_bytes(*id), u32::from_be_bytes(*len)))
}

impl std::fmt::Debug for StoreFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreFile")
            .field("end", &*self.end.lock())
            .finish_non_exhaustive()
    }
}
