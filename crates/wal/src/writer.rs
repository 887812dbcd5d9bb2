//! The log file: LSN assignment, buffered writes, syncs.
//!
//! §6.1 notes that naive logging "could easily become the main bottleneck
//! (unless sophisticated logging mechanisms such as group commits … are
//! employed)". The file batches appends in an in-memory buffer and flushes
//! when the buffer exceeds `flush_bytes` or when the commit path asks.
//!
//! The commit policies, and the group-commit cohorts that amortize fsyncs
//! across concurrent committers, live on top, in [`crate::log`].
//!
//! The file is one [`crate::io::File`] handle from the `Fs` the log was
//! created in: writes go through it under the buffer lock, syncs outside
//! it, and no call needs a second handle.
//!
//! ## Writing in place
//!
//! An `fdatasync` of a file that grew also journals its new size, which on
//! ext4 costs about a quarter of a small commit's sync. A log whose
//! committers wait on syncs is therefore created *in place*: its bytes go
//! over zeros it wrote ahead of itself, so a sync that follows a small
//! write has no size change to commit. Such a log
//!
//! * opens with a watermark frame naming the offset it opens at (0 for a
//!   new log), synced before the log is used, so that every crash image of
//!   it has one;
//! * after every sync that covered new records, buffers a watermark frame
//!   naming the offset that sync made durable ([`crate::record`]), which
//!   recovery needs because the pages of an unsynced flush over zeros may
//!   land in any order;
//! * zero-fills — writes 1 MiB of zeros at the end of the zeroed region —
//!   when a sync finds less than `FILL_BELOW` of zeros ahead and less than
//!   `SMALL_SYNC` written since the previous sync. The second condition
//!   keeps a bulk load, whose large commits grow the file anyway, from
//!   paying for zeros it would overwrite at once. The fill runs under the
//!   buffer lock, after the sync's committers have been released
//!   ([`LogFile::fill_if_due`]): appends wait for it once per MiB of log,
//!   and no flush can race a write of zeros over its records;
//! * is truncated to its write position when dropped, so a cleanly closed
//!   log carries no zeros.
//!
//! A [`crate::CommitPolicy::Buffered`] log does none of this: its bytes are
//! the records, appended, as they always were — unless it was ever opened
//! under group commit: [`crate::Wal::open`] keeps a log that has a
//! watermark frame in place under either policy, so recovery never reads
//! one part of a log by the appended rules after another part was written
//! in place.
//!
//! ## A failed write poisons the log
//!
//! LSNs are handed out when a record enters the buffer, so a buffer that
//! fails to reach the file leaves a hole below `next_lsn` that no later
//! flush can fill; and on Linux an `fdatasync` retried after a failed one
//! can succeed without the data. Either failure is therefore final: it is
//! stored, and every later append, flush and sync returns it. No watermark
//! is ever reported past the last sync that succeeded. A failed zero-fill
//! is final too: the sync before it stands, nothing after it does.

use crate::io::File;
use parking_lot::Mutex;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::record::{self, LogRecord};
use crate::{WalError, WalResult};

/// What one fill writes: static, so that no fill allocates or faults it in.
static ZEROS: [u8; 1 << 20] = [0; 1 << 20];
/// A sync fills when fewer zeros than this are left ahead...
const FILL_BELOW: u64 = 512 << 10;
/// ...and the log wrote less than this since the previous sync.
const SMALL_SYNC: u64 = 64 << 10;

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
    buffer: Vec<u8>,
    /// Next LSN to assign. Lives under the buffer lock so that the order of
    /// LSNs matches the order of bytes in the file: after a flush, every
    /// LSN at or below the watermark is in the file (the invariant the
    /// group-commit coordinator's durable watermark rests on).
    next_lsn: u64,
    /// File offset the buffer is written at.
    pos: u64,
    /// End of what the log has written, records or zeros.
    end: u64,
    /// Where the last watermark frame ends.
    named: u64,
    /// The first write or sync failure (see module docs).
    failed: Option<Failure>,
}

impl WalInner {
    fn check(&self) -> WalResult<()> {
        self.failed.as_ref().map_or(Ok(()), |f| Err(f.error()))
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

    /// Write `bytes` at `at`, poisoning the log if that fails (when the
    /// log is over anyway, so `end` need not be exact).
    fn write_at(&mut self, file: &dyn File, bytes: &[u8], at: u64) -> WalResult<()> {
        let written = file.write_at(bytes, at);
        self.end = self.end.max(at + bytes.len() as u64);
        written.map_err(|e| self.poison(e))
    }

    fn flush(&mut self, file: &dyn File) -> WalResult<()> {
        self.check()?;
        if self.buffer.is_empty() {
            return Ok(());
        }
        // On failure the buffer's records are lost, and the log with them.
        let mut buffer = std::mem::take(&mut self.buffer);
        self.write_at(file, &buffer, self.pos)?;
        self.pos += buffer.len() as u64;
        buffer.clear();
        self.buffer = buffer;
        Ok(())
    }
}

/// One log file: assigns LSNs and writes framed records.
pub(crate) struct LogFile {
    inner: Mutex<WalInner>,
    /// Written under the buffer lock, synced outside it: durability waits
    /// never hold the lock across device latency, so appends (and the next
    /// cohort's commit records) proceed while an fsync is in flight.
    file: Arc<dyn File>,
    /// Flush the buffer once it reaches this many bytes.
    flush_bytes: usize,
    /// Written in place, with watermark frames (see module docs).
    in_place: bool,
    /// A sync found the log due for a zero-fill; read without the lock on
    /// every leader's way out.
    fill_due: AtomicBool,
    path: PathBuf,
}

impl LogFile {
    /// The log in `file`, whose records end at `end`, appended from there;
    /// the buffer spills to the file at `flush_bytes`. Whatever the file
    /// holds past `end` is cut off first, and the cut synced, so that no
    /// frame is ever written in front of bytes that recovery did not read.
    /// A log written `in_place` (see module docs) then logs a watermark
    /// frame naming `end`, durable when this returns, so that every crash
    /// image of the log has one.
    pub(crate) fn open(
        file: Arc<dyn File>,
        path: &Path,
        end: u64,
        flush_bytes: usize,
        in_place: bool,
    ) -> WalResult<Self> {
        if file.len()? != end {
            file.set_len(end)?;
            file.sync_data()?;
        }
        let log = LogFile {
            inner: Mutex::new(WalInner {
                buffer: Vec::with_capacity(flush_bytes * 2),
                next_lsn: 1,
                pos: end,
                end,
                named: end,
                failed: None,
            }),
            file,
            flush_bytes,
            in_place,
            fill_due: AtomicBool::new(false),
            path: path.to_path_buf(),
        };
        if in_place {
            log.inner.lock().buffer.extend(record::watermark(end));
            log.sync_watermark()?;
        }
        Ok(log)
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
            inner.flush(&*self.file)?;
        }
        Ok(lsn)
    }

    /// Force the buffer to the OS.
    pub(crate) fn flush(&self) -> WalResult<()> {
        self.inner.lock().flush(&*self.file)
    }

    /// Flush, fsync, and return the durable watermark: every LSN at or
    /// below the returned value is in the file and synced to disk (LSNs are
    /// assigned under the same lock that orders the buffer, so the
    /// watermark is exact, not a racy snapshot).
    pub(crate) fn sync_watermark(&self) -> WalResult<u64> {
        let (watermark, upto) = {
            let mut inner = self.inner.lock();
            inner.flush(&*self.file)?;
            (inner.next_lsn - 1, inner.pos)
        };
        // fsync outside the buffer lock: everything flushed above (i.e. the
        // whole watermark) is written to the inode before the call, so the
        // guarantee holds, while concurrent appends keep buffering — the
        // next cohort forms during this fsync instead of behind it.
        if let Err(e) = self.file.sync_data() {
            return Err(self.inner.lock().poison(e));
        }
        // The watermark frame goes ahead of whatever was appended during
        // the fsync, so the next sync names those records, and a sync that
        // wrote nothing past this frame logs no other.
        let mut inner = self.inner.lock();
        if self.in_place && upto > inner.named {
            let due = upto - inner.named < SMALL_SYNC && inner.end - inner.pos < FILL_BELOW;
            self.fill_due.store(due, Ordering::Relaxed);
            inner.buffer.splice(..0, record::watermark(upto));
            inner.named = inner.pos + record::WATERMARK_LEN as u64;
        }
        Ok(watermark)
    }

    /// Zero-fill when the last sync found the log due (see module docs);
    /// whether it did. A failure poisons the log: the syncs before it
    /// stand, and every later call returns it.
    pub(crate) fn fill_if_due(&self) -> bool {
        if !self.fill_due.swap(false, Ordering::Relaxed) {
            return false;
        }
        let mut inner = self.inner.lock();
        let end = inner.end;
        let _ = inner.write_at(&*self.file, &ZEROS, end);
        true
    }
}

impl Drop for LogFile {
    fn drop(&mut self) {
        let mut inner = self.inner.lock();
        let _ = inner.flush(&*self.file);
        let _ = self.file.set_len(inner.pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{Fault, FaultFs, Fs};

    const PATH: &str = "test.log";

    /// An empty appended log in `fs`, spilling at `flush_bytes`.
    fn create(fs: &FaultFs, flush_bytes: usize) -> LogFile {
        let file = fs.create(Path::new(PATH)).unwrap();
        LogFile::open(file, Path::new(PATH), 0, flush_bytes, false).unwrap()
    }

    fn log_len(fs: &FaultFs) -> usize {
        fs.contents(Path::new(PATH)).unwrap().len()
    }

    fn abort(n: u64) -> LogRecord {
        LogRecord::Abort {
            txn_id: 1 << 63 | n,
        }
    }

    #[test]
    fn lsn_is_monotone() {
        let wal = create(&FaultFs::new(), 1 << 20);
        let a = wal.append(&abort(1)).unwrap();
        let b = wal.append(&abort(2)).unwrap();
        assert!(b > a);
    }

    #[test]
    fn append_stays_buffered_until_sync() {
        let fs = FaultFs::new();
        let wal = create(&fs, 1 << 20);
        let lsn = wal
            .append(&LogRecord::Commit {
                txn_id: 1 << 63 | 2,
                commit_ts: 10,
            })
            .unwrap();
        // A commit record does not force a flush on its own...
        assert_eq!(log_len(&fs), 0);
        // ...the cohort sync publishes it and reports the watermark.
        assert_eq!(wal.sync_watermark().unwrap(), lsn);
        assert!(log_len(&fs) > 0);
    }

    #[test]
    fn full_buffer_spills_to_the_file() {
        let fs = FaultFs::new();
        let wal = create(&fs, 64);
        while log_len(&fs) == 0 {
            wal.append(&abort(1)).unwrap();
        }
    }

    #[test]
    fn a_failed_write_poisons_every_later_call() {
        let fs = FaultFs::new();
        let wal = create(&fs, 1 << 20);
        wal.append(&abort(1)).unwrap();
        fs.fail(fs.calls() + 1, Fault::Full);
        assert!(wal.sync_watermark().is_err(), "the injected failure");
        // The buffer that failed is gone and its LSN with it: nothing may
        // report success from here on.
        assert!(wal.sync_watermark().is_err());
        assert!(wal.flush().is_err());
        assert!(wal.append(&abort(2)).is_err());
        assert_eq!(log_len(&fs), 0);
    }

    #[test]
    fn concurrent_appends_assign_unique_lsns() {
        let wal = Arc::new(create(&FaultFs::new(), 1 << 20));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    (0..500)
                        .map(|i| {
                            let commit = LogRecord::Commit {
                                txn_id: 1 << 63 | (t * 1000 + i),
                                commit_ts: t * 1000 + i,
                            };
                            wal.append(&commit).unwrap()
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
    }
}
