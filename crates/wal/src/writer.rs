//! Append-only log file with LSN assignment.
//!
//! §6.1 notes that naive logging "could easily become the main bottleneck
//! (unless sophisticated logging mechanisms such as group commits … are
//! employed)". The file batches appends in an in-memory buffer and flushes
//! when the buffer exceeds `flush_bytes` or when the commit path asks.
//!
//! The commit policies, and the group-commit cohorts that amortize fsyncs
//! across concurrent committers, live on top, in [`crate::log`].
//!
//! ## A failed write poisons the log
//!
//! LSNs are handed out when a record enters the buffer, so a buffer that
//! fails to reach the file leaves a hole below `next_lsn` that no later
//! flush can fill; and on Linux an `fdatasync` retried after a failed one
//! can succeed without the data. Either failure is therefore final: it is
//! stored, and every later append, flush and sync returns it. No watermark
//! is ever reported past the last sync that succeeded.

use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::record::LogRecord;
use crate::{WalError, WalResult};

/// What is kept of the failure that poisoned the log (an `io::Error` is
/// not `Clone`), enough to hand an equivalent error to every later caller.
struct Failure {
    kind: io::ErrorKind,
    message: String,
}

impl Failure {
    fn error(&self) -> WalError {
        WalError::Io(io::Error::new(
            self.kind,
            format!("log stopped by an earlier failure: {}", self.message),
        ))
    }
}

struct WalInner {
    file: File,
    buffer: Vec<u8>,
    /// Next LSN to assign. Lives under the buffer lock so that the order of
    /// LSNs matches the order of bytes in the file: after a flush, every
    /// LSN at or below the watermark is in the file (the invariant the
    /// group-commit coordinator's durable watermark rests on).
    next_lsn: u64,
    /// The first write or sync failure (see module docs).
    failed: Option<Failure>,
    /// Test hook: the next flush fails as a full device would.
    #[cfg(test)]
    fail_next_write: bool,
}

impl WalInner {
    fn check(&self) -> WalResult<()> {
        match &self.failed {
            Some(failure) => Err(failure.error()),
            None => Ok(()),
        }
    }

    /// Record `error` as the log's final state (the first failure wins) and
    /// hand it back for the caller to return.
    fn poison(&mut self, error: io::Error) -> WalError {
        self.failed.get_or_insert_with(|| Failure {
            kind: error.kind(),
            message: error.to_string(),
        });
        WalError::Io(error)
    }

    fn flush(&mut self) -> WalResult<()> {
        self.check()?;
        if self.buffer.is_empty() {
            return Ok(());
        }
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next_write) {
            return Err(self.poison(io::Error::other("injected write failure")));
        }
        let written = self.file.write_all(&self.buffer);
        self.buffer.clear();
        written.map_err(|e| self.poison(e))
    }
}

/// One log file: assigns LSNs and appends framed records.
pub(crate) struct LogFile {
    inner: Mutex<WalInner>,
    /// Duplicate handle for fsync, so durability waits never hold the
    /// buffer lock across device latency: appends (and therefore the next
    /// cohort's commit records) proceed while an fsync is in flight.
    sync_file: File,
    /// Flush the buffer once it reaches this many bytes.
    flush_bytes: usize,
    path: PathBuf,
}

impl LogFile {
    /// Create (or truncate) a log at `path` whose buffer spills to the file
    /// at `flush_bytes`.
    pub(crate) fn create(path: &Path, flush_bytes: usize) -> WalResult<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let sync_file = file.try_clone()?;
        Ok(LogFile {
            inner: Mutex::new(WalInner {
                file,
                buffer: Vec::with_capacity(flush_bytes * 2),
                next_lsn: 1,
                failed: None,
                #[cfg(test)]
                fail_next_write: false,
            }),
            sync_file,
            flush_bytes,
            path: path.to_path_buf(),
        })
    }

    /// Path of the log file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Append a record; returns its LSN. The record stays in the buffer
    /// until it fills, or until [`LogFile::flush`] or a sync: durability is the
    /// commit path's business, so one cohort fsync — not each commit record
    /// — publishes a batch.
    pub(crate) fn append(&self, record: &LogRecord) -> WalResult<u64> {
        let bytes = record.encode();
        let mut inner = self.inner.lock();
        inner.check()?;
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        inner.buffer.extend_from_slice(&bytes);
        if inner.buffer.len() >= self.flush_bytes {
            inner.flush()?;
        }
        Ok(lsn)
    }

    /// Force the buffer to the OS.
    pub(crate) fn flush(&self) -> WalResult<()> {
        self.inner.lock().flush()
    }

    /// Flush, fsync, and return the durable watermark: every LSN at or
    /// below the returned value is in the file and synced to disk (LSNs are
    /// assigned under the same lock that orders the buffer, so the
    /// watermark is exact, not a racy snapshot).
    pub(crate) fn sync_watermark(&self) -> WalResult<u64> {
        let watermark = {
            let mut inner = self.inner.lock();
            inner.flush()?;
            inner.next_lsn - 1
        };
        // fsync outside the buffer lock: everything flushed above (i.e. the
        // whole watermark) is written to the inode before the call, so the
        // guarantee holds, while concurrent appends keep buffering — the
        // next cohort forms during this fsync instead of behind it.
        match self.sync_file.sync_data() {
            Ok(()) => Ok(watermark),
            Err(e) => Err(self.inner.lock().poison(e)),
        }
    }

    /// Make the next flush fail the way a full device does.
    #[cfg(test)]
    pub(crate) fn fail_next_write(&self) {
        self.inner.lock().fail_next_write = true;
    }
}

impl Drop for LogFile {
    fn drop(&mut self) {
        let _ = self.inner.lock().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn temp_log(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lstore-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.log", std::process::id()))
    }

    #[test]
    fn lsn_is_monotone() {
        let path = temp_log("lsn");
        let wal = LogFile::create(&path, 1 << 20).unwrap();
        let a = wal.append(&LogRecord::Checkpoint { ts: 1 }).unwrap();
        let b = wal.append(&LogRecord::Checkpoint { ts: 2 }).unwrap();
        assert!(b > a);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_stays_buffered_until_sync() {
        let path = temp_log("buffered");
        let wal = LogFile::create(&path, 1 << 20).unwrap();
        let lsn = wal
            .append(&LogRecord::Commit {
                txn_id: 1 << 63 | 2,
                commit_ts: 10,
            })
            .unwrap();
        // A commit record does not force a flush on its own...
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // ...the cohort sync publishes it and reports the watermark.
        assert_eq!(wal.sync_watermark().unwrap(), lsn);
        assert!(std::fs::metadata(&path).unwrap().len() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn full_buffer_spills_to_the_file() {
        let path = temp_log("spill");
        let wal = LogFile::create(&path, 64).unwrap();
        while std::fs::metadata(&path).unwrap().len() == 0 {
            wal.append(&LogRecord::Checkpoint { ts: 1 }).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_write_poisons_every_later_call() {
        let path = temp_log("poison");
        let wal = LogFile::create(&path, 1 << 20).unwrap();
        wal.append(&LogRecord::Checkpoint { ts: 1 }).unwrap();
        wal.fail_next_write();
        assert!(wal.sync_watermark().is_err(), "the injected failure");
        // The buffer that failed is gone and its LSN with it: nothing may
        // report success from here on.
        assert!(wal.sync_watermark().is_err());
        assert!(wal.flush().is_err());
        assert!(wal.append(&LogRecord::Checkpoint { ts: 2 }).is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_appends_assign_unique_lsns() {
        let path = temp_log("concurrent");
        let wal = Arc::new(LogFile::create(&path, 1 << 20).unwrap());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    (0..500)
                        .map(|i| {
                            wal.append(&LogRecord::Checkpoint { ts: t * 1000 + i })
                                .unwrap()
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut lsns: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = lsns.len();
        lsns.sort_unstable();
        lsns.dedup();
        assert_eq!(lsns.len(), n);
        std::fs::remove_file(&path).ok();
    }
}
