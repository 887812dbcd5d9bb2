//! The engine's log: one file, two commit policies, group commit.
//!
//! A durable commit costs one enrolment and one device wait: the commit
//! record is appended to the log and the committer waits until that LSN is
//! durable. [`Wal`] serves every range of every table from one file, in
//! which no framed byte is ever rewritten, and amortizes fsyncs across
//! concurrent committers with a leader/follower cohort protocol — the
//! "sophisticated logging mechanisms such as group commits" §6.1 says a
//! production deployment would employ.
//!
//! ## One file
//!
//! Every record goes to the configured path, whatever the table's
//! insert-lane count, so a transaction's records precede its commit record and a
//! recovered commit record implies its whole transaction is recoverable.
//! An older layout split the log into `<path>.s<i>` siblings; on one device
//! two files cost two serial `fdatasync`s per commit and committers on
//! different files never share a cohort. [`Wal::clear`] removes such
//! siblings and [`Wal::open`] refuses a log that still has one. Do not
//! bring several files back by routing a transaction's records *by
//! transaction*: an aborted transaction's first-update snapshot record is
//! chained onto by later writers of the same row, and only the prefix
//! durability of a shared file makes that safe.
//!
//! ## Commit durability
//!
//! [`CommitPolicy`] picks what a commit waits for:
//!
//! * [`CommitPolicy::Buffered`] — flush the log to the OS, no fsync (the
//!   benchmark setting; durability is best-effort).
//! * [`CommitPolicy::GroupCommit`] — the committer enrols in the log's
//!   commit group. The first enrollee with no leader active becomes the
//!   **leader**: it takes one flush + fsync for everyone enrolled,
//!   publishes the durable watermark and wakes the followers, who were
//!   parked until their LSN became durable. The fsync happens outside the
//!   buffer lock, so the next cohort's records accumulate *during* the
//!   device wait and its leader goes straight to the next fsync. This log
//!   is written in place over zeros laid down ahead of it, and logs the
//!   offset each sync made durable (see `writer.rs`): only the leader's own
//!   return waits for a zero-fill, after its followers are woken.
//!
//! ## The cohort rule
//!
//! There is no timer. A leader goes at once, unless the previous fsync
//! released more committers than have enrolled since: then it waits for
//! them — yielding, not parked — until they are back, `MAX_COHORT` are
//! enrolled, or `min(MAX_LEADER_WAIT, F)` has passed since the release,
//! where `F` is the measured fsync time.
//!
//! The reason: N closed-loop committers with think time τ < F commit at
//! N/(F+τ) when they share one cohort, but lock into anti-phase without a
//! wait — the committers an fsync just released are τ away from enrolling
//! when the next leader starts, so every fsync carries only the other half
//! and the rate is N/(2F). A committer that misses the cohort pays a whole
//! extra F, so F is the most a wait can be worth. A lone committer is its
//! own `released = 1` and never waits; a committer that left costs its old
//! cohort one bounded wait. Arrivals that never come back (an open loop)
//! would make every leader that queued behind an fsync wait for nothing,
//! so the leader also goes at once while the last observed release→re-enrol
//! gap is longer than F; the gap is observed whether or not anybody waited
//! for it.
//!
//! The leader yields instead of parking because being woken through the
//! condvar costs about half an fsync on the boxes measured (see
//! `docs/BENCHMARKS.md`, anomaly 8).

use crate::io::Fs;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::record::LogRecord;
use crate::recovery::{self, RecoveredState};
use crate::writer::LogFile;
use crate::WalResult;

/// The longest a leader waits for returning committers.
const MAX_LEADER_WAIT: Duration = Duration::from_micros(200);
/// A leader stops waiting once this many commits are enrolled.
const MAX_COHORT: usize = 64;
/// The log buffer spills to the file at this many bytes.
const FLUSH_BYTES: usize = 1 << 20;

/// What a commit waits for before returning (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Flush the log to the OS on commit; never fsync.
    Buffered,
    /// Leader-batched cohort fsync.
    GroupCommit,
}

crate::metric_set! {
    /// The commit-wait layer's live counters.
    struct WalCounters;
    /// Counters of the commit-wait layer since the log was created
    /// ([`Wal::stats`]). `commits_enrolled / syncs` is the mean cohort when
    /// nothing but commits syncs the log.
    pub struct WalStats {
        /// Commit records that waited for an fsync (none under
        /// [`CommitPolicy::Buffered`]).
        commits_enrolled: Counter,
        /// `fdatasync` calls issued, by commits and by [`Wal::sync`].
        syncs: Counter,
        /// Time spent in them, flush included.
        sync_ns: Counter,
        /// Times a leader waited for returning committers before its fsync.
        leader_waits: Counter,
        /// Time spent in those waits.
        leader_wait_ns: Counter,
        /// Most committers one fsync released.
        max_cohort: Counter,
        /// Zero-fills of a group-commit log: 1 MiB of zeros written ahead of
        /// its records after a small sync that found less than 512 KiB left.
        fills: Counter,
        /// Time spent in them.
        fill_ns: Counter,
    }
}

/// Group-commit state (see "The cohort rule" in the module docs).
struct Cohorts {
    /// Highest LSN known durable (flushed + fsynced).
    durable_lsn: u64,
    /// A leader is gathering a cohort or running its fsync.
    leader_active: bool,
    /// Committers enrolled and not yet durable: the next cohort.
    waiting: usize,
    /// How many committers the last completed fsync released, when, and how
    /// many have enrolled since.
    released: usize,
    release_at: Instant,
    arrivals: usize,
    /// Moving average of flush + fsync time: the most a wait can be worth.
    fsync_time: Duration,
    /// How long after `release_at` the released committers were all back,
    /// last time it was seen; `Duration::MAX` when they were not back
    /// within an fsync.
    regroup_time: Duration,
}

impl Cohorts {
    fn enrol(&mut self) {
        self.waiting += 1;
        self.arrivals += 1;
        if self.arrivals == self.released {
            self.regroup_time = self.release_at.elapsed();
        }
    }

    /// An fsync that took `took` made everything up to `watermark` durable
    /// and let `cohort` committers go.
    fn release(&mut self, watermark: u64, cohort: usize, took: Duration) {
        self.durable_lsn = self.durable_lsn.max(watermark);
        self.fsync_time = if self.fsync_time.is_zero() {
            took
        } else {
            (self.fsync_time * 7 + took) / 8
        };
        if self.arrivals < self.released {
            // A whole fsync went by and the previous cohort is not back.
            self.regroup_time = Duration::MAX;
        }
        self.released = cohort;
        self.arrivals = 0;
        self.release_at = Instant::now();
    }
}

/// The write-ahead log of a database (see module docs). All methods take
/// `&self` and are safe under full concurrency.
pub struct Wal {
    log: LogFile,
    policy: CommitPolicy,
    cohorts: Mutex<Cohorts>,
    /// Followers park here until a leader publishes a watermark.
    published: Condvar,
    counters: WalCounters,
}

/// `<path>.s<index>`: a stream file of the per-shard layout older builds
/// wrote beside the log.
pub(crate) fn sibling(path: &Path, index: usize) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".s{index}"));
    PathBuf::from(os)
}

impl Wal {
    /// Empty the log at `path` in `fs`, and remove the sibling stream files
    /// of the older layout, so that opening the new log never refuses it.
    pub fn clear(fs: &dyn Fs, path: &Path) -> WalResult<()> {
        fs.create(path)?;
        let mut stale = 1;
        while fs.remove(&sibling(path, stale)).is_ok() {
            stale += 1;
        }
        Ok(())
    }

    /// Open the log at `path` in `fs` (an absent one is created empty) and
    /// recover what it holds. Whatever lies past the last record recovery
    /// read — a torn frame, zeros laid down ahead — is cut off and the cut
    /// synced before the log appends from there. A log recovery refuses
    /// ([`crate::WalError::Corrupt`]) is left as it was. A log that has
    /// been written in place stays in place under either policy: recovery
    /// reads what follows its first watermark frame by the in-place rules
    /// (see [`crate::recovery`]).
    pub fn open(
        fs: &dyn Fs,
        path: &Path,
        policy: CommitPolicy,
    ) -> WalResult<(Self, RecoveredState)> {
        let (file, state) = recovery::recover(fs, path)?;
        let end = state.bytes_scanned as u64;
        let in_place = policy == CommitPolicy::GroupCommit || state.in_place;
        let log = LogFile::open(file, path, end, FLUSH_BYTES, in_place)?;
        let wal = Wal {
            log,
            policy,
            cohorts: Mutex::new(Cohorts {
                durable_lsn: 0,
                leader_active: false,
                waiting: 0,
                released: 0,
                release_at: Instant::now(),
                arrivals: 0,
                fsync_time: Duration::ZERO,
                regroup_time: Duration::ZERO,
            }),
            published: Condvar::new(),
            counters: WalCounters::default(),
        };
        Ok((wal, state))
    }

    /// Path of the log file.
    pub fn base_path(&self) -> &Path {
        self.log.path()
    }

    /// Append a redo/operational record; returns its LSN. Buffered:
    /// durability comes from the commit path (or an explicit [`Wal::sync`]).
    pub fn append(&self, record: &LogRecord) -> WalResult<u64> {
        self.log.append(record)
    }

    /// Log a transaction resolution (`Commit`/`Abort`), honoring the
    /// commit policy for `Commit` records: when this returns, the record
    /// and every record appended before it are as durable as the policy
    /// promises.
    pub fn commit(&self, record: &LogRecord) -> WalResult<()> {
        let lsn = self.log.append(record)?;
        match record {
            LogRecord::Commit { .. } if self.policy == CommitPolicy::GroupCommit => {
                self.counters.commits_enrolled.inc();
                self.wait_durable(lsn)
            }
            _ => self.log.flush(),
        }
    }

    /// Make every record up to `lsn` as durable as a commit record is under
    /// the policy: flushed to the OS when buffered, synced under group
    /// commit (the catalog record's wait, taken after the caller has let
    /// go of its locks).
    pub fn make_durable(&self, lsn: u64) -> WalResult<()> {
        match self.policy {
            CommitPolicy::Buffered => self.log.flush(),
            CommitPolicy::GroupCommit => self.wait_durable(lsn),
        }
    }

    /// Park until every LSN at or below `lsn` is durable, taking the leader
    /// role (cohort fsync) when no leader is active.
    fn wait_durable(&self, lsn: u64) -> WalResult<()> {
        let mut cohorts = self.cohorts.lock();
        if cohorts.durable_lsn >= lsn {
            return Ok(());
        }
        cohorts.enrol();
        loop {
            if cohorts.durable_lsn >= lsn {
                cohorts.waiting -= 1;
                return Ok(());
            }
            if cohorts.leader_active {
                self.published.wait(&mut cohorts);
                continue;
            }
            cohorts.leader_active = true;
            cohorts = self.gather(cohorts);
            // Everyone enrolled appended before enrolling, so the flush
            // below covers them all.
            let cohort = cohorts.waiting;
            drop(cohorts);
            let synced = self.timed_sync();
            cohorts = self.cohorts.lock();
            cohorts.leader_active = false;
            self.published.notify_all();
            match synced {
                // The loop re-checks: the watermark covers our LSN, which
                // was assigned before we enrolled.
                Ok((watermark, took)) => {
                    cohorts.release(watermark, cohort, took);
                    self.counters.max_cohort.max(cohort as u64);
                    drop(cohorts);
                    self.fill();
                    cohorts = self.cohorts.lock();
                }
                // The log is poisoned: whoever leads next gets the same
                // error from it, nobody is told their commit is durable.
                Err(e) => {
                    cohorts.waiting -= 1;
                    return Err(e);
                }
            }
        }
    }

    /// The leader's only wait: for the committers the previous fsync
    /// released to enrol again (see "The cohort rule" in the module docs).
    fn gather<'a>(&'a self, mut cohorts: MutexGuard<'a, Cohorts>) -> MutexGuard<'a, Cohorts> {
        if cohorts.regroup_time > cohorts.fsync_time {
            return cohorts;
        }
        let deadline = cohorts.release_at + MAX_LEADER_WAIT.min(cohorts.fsync_time);
        let mut started = None;
        while cohorts.arrivals < cohorts.released && cohorts.waiting < MAX_COHORT {
            let now = Instant::now();
            if now >= deadline {
                cohorts.regroup_time = Duration::MAX;
                break;
            }
            started.get_or_insert(now);
            drop(cohorts);
            std::thread::yield_now();
            cohorts = self.cohorts.lock();
        }
        if let Some(started) = started {
            let waited = started.elapsed().as_nanos() as u64;
            self.counters.leader_waits.inc();
            self.counters.leader_wait_ns.add(waited);
        }
        cohorts
    }

    /// Run one flush + fsync, counted and timed: the durable watermark and
    /// how long it took.
    fn timed_sync(&self) -> WalResult<(u64, Duration)> {
        let started = Instant::now();
        let watermark = self.log.sync_watermark()?;
        let took = started.elapsed();
        self.counters.syncs.inc();
        self.counters.sync_ns.add(took.as_nanos() as u64);
        Ok((watermark, took))
    }

    /// Zero-fill ahead of the records if the last sync found it due,
    /// counted and timed. A failed fill poisons the log for every later
    /// call; the commits already released stay durable.
    fn fill(&self) {
        let started = Instant::now();
        if self.log.fill_if_due() {
            self.counters.fills.inc();
            let took = started.elapsed().as_nanos() as u64;
            self.counters.fill_ns.add(took);
        }
    }

    /// Flush the buffer to the OS.
    pub fn flush(&self) -> WalResult<()> {
        self.log.flush()
    }

    /// Flush and fsync.
    pub fn sync(&self) -> WalResult<()> {
        let (watermark, _) = self.timed_sync()?;
        self.fill();
        let mut cohorts = self.cohorts.lock();
        cohorts.durable_lsn = cohorts.durable_lsn.max(watermark);
        Ok(())
    }

    /// Counters of the commit-wait layer.
    pub fn stats(&self) -> WalStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::io::{Fault, FaultFs, OsFs};
    use crate::recovery::{recover_from_bytes, RecoveredState};
    use std::sync::{Arc, Barrier};

    fn temp_base(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lstore-wal-log-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.wal", std::process::id()))
    }

    /// A new, empty log at `path` in `fs`.
    pub(crate) fn create(fs: &dyn Fs, path: &Path, policy: CommitPolicy) -> Wal {
        Wal::clear(fs, path).unwrap();
        Wal::open(fs, path, policy).unwrap().0
    }

    /// What recovery reads from the log file at `path` now.
    fn recover(path: &Path) -> RecoveredState {
        recover_from_bytes(&std::fs::read(path).unwrap()).unwrap()
    }

    fn group_commit(base: &Path) -> Wal {
        create(&OsFs, base, CommitPolicy::GroupCommit)
    }

    const LOG: &str = "test.wal";

    /// A group-commit log in memory, and what its file holds.
    fn in_memory() -> (FaultFs, Wal) {
        let fs = FaultFs::new();
        let wal = create(&fs, Path::new(LOG), CommitPolicy::GroupCommit);
        (fs, wal)
    }

    fn commit(n: u64) -> LogRecord {
        LogRecord::Commit {
            txn_id: txn(n),
            commit_ts: n,
        }
    }

    fn txn(n: u64) -> u64 {
        1 << 63 | n
    }

    fn tail_append(range_id: u32, seq: u32, txn_id: u64) -> LogRecord {
        LogRecord::TailAppend {
            table_id: 0,
            range_id,
            seq,
            txn_id,
            base_rid: 1,
            prev_rid: 1,
            schema_encoding: 1,
            columns: vec![(0, seq as u64)],
        }
    }

    /// One single-update transaction: its append, then its commit.
    fn commit_one(wal: &Wal, n: u64) {
        wal.append(&tail_append(n as u32 % 4, n as u32, txn(n)))
            .unwrap();
        wal.commit(&LogRecord::Commit {
            txn_id: txn(n),
            commit_ts: n,
        })
        .unwrap();
    }

    /// As if the last fsync, `F` long, had just released `released`
    /// committers that came back fast last time. The release is placed a
    /// little ahead, so that a leader reaches its wait before the bound has
    /// run out however late this thread is scheduled.
    fn after_a_release(wal: &Wal, released: usize) {
        let mut cohorts = wal.cohorts.lock();
        cohorts.released = released;
        cohorts.arrivals = 0;
        cohorts.release_at = Instant::now() + Duration::from_millis(5);
        cohorts.fsync_time = Duration::from_millis(20);
        cohorts.regroup_time = Duration::ZERO;
    }

    #[test]
    fn every_range_logs_to_the_base_file() {
        let base = temp_base("onefile");
        let wal = create(&OsFs, &base, CommitPolicy::Buffered);
        for range in 0..3 {
            wal.append(&tail_append(range, 1, txn(1))).unwrap();
        }
        wal.commit(&LogRecord::Commit {
            txn_id: txn(1),
            commit_ts: 9,
        })
        .unwrap();
        wal.sync().unwrap();
        let state = recover(&base);
        assert_eq!(state.records.len(), 4);
        assert_eq!(state.committed.get(&txn(1)), Some(&9));
        assert!(!sibling(&base, 1).exists());
        std::fs::remove_file(&base).ok();
    }

    #[test]
    fn create_removes_sibling_streams_of_the_old_layout() {
        let (fs, base) = (FaultFs::new(), Path::new(LOG));
        for i in 1..3 {
            fs.create(&sibling(base, i)).unwrap();
        }
        let _wal = create(&fs, base, CommitPolicy::Buffered);
        assert!(
            fs.contents(&sibling(base, 1)).is_none() && fs.contents(&sibling(base, 2)).is_none(),
            "re-create must not leave old-layout streams for recovery to refuse"
        );
    }

    #[test]
    fn group_commit_shares_fsyncs_and_is_durable_on_return() {
        let base = temp_base("group");
        let wal = Arc::new(group_commit(&base));
        const WRITERS: u64 = 4;
        const TXNS: u64 = 200;
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..TXNS {
                        let n = w * TXNS + i + 1;
                        commit_one(&wal, n);
                        // Group commit returned ⇒ the commit record is
                        // durable *now*: it must survive recovery without
                        // any further flush or sync.
                        if i % 16 == 0 {
                            let state = recover(wal.base_path());
                            assert!(
                                state.committed.contains_key(&txn(n)),
                                "commit {n} returned before it was durable"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let state = recover(wal.base_path());
        assert_eq!(state.committed.len(), (WRITERS * TXNS) as usize);
        assert!(state.in_flight.is_empty());
        let stats = wal.stats();
        assert_eq!(stats.commits_enrolled, WRITERS * TXNS);
        assert!(stats.max_cohort <= WRITERS);
        // Four closed-loop committers share fsyncs — unless the device
        // makes an fsync nearly free (tmpfs), where there is nothing to
        // share and the rule rightly does not wait.
        if stats.sync_ns / stats.syncs >= 20_000 {
            assert!(
                stats.syncs * 10 <= stats.commits_enrolled * 6,
                "cohorts did not form: {stats:?}"
            );
        }
        std::fs::remove_file(&base).ok();
    }

    #[test]
    fn a_lone_committer_never_waits() {
        let base = temp_base("lone");
        let wal = group_commit(&base);
        for n in 1..=300 {
            commit_one(&wal, n);
        }
        let stats = wal.stats();
        assert_eq!(stats.commits_enrolled, 300);
        assert_eq!(stats.syncs, 300);
        assert_eq!((stats.leader_waits, stats.leader_wait_ns), (0, 0));
        assert_eq!(stats.max_cohort, 1);
        std::fs::remove_file(&base).ok();
    }

    #[test]
    fn a_committer_that_left_costs_one_bounded_wait() {
        let base = temp_base("left");
        let wal = Arc::new(group_commit(&base));
        // Two committers in step, so that the fsyncs release both.
        let in_step = Arc::new(Barrier::new(2));
        let leaver = {
            let (wal, in_step) = (Arc::clone(&wal), Arc::clone(&in_step));
            std::thread::spawn(move || {
                for n in 1..=50 {
                    in_step.wait();
                    commit_one(&wal, 1000 + n);
                }
            })
        };
        for n in 1..=50 {
            in_step.wait();
            commit_one(&wal, n);
        }
        leaver.join().unwrap();
        let before = wal.stats();
        for n in 51..=150 {
            commit_one(&wal, n);
        }
        let after = wal.stats();
        assert!(
            after.leader_waits - before.leader_waits <= 1,
            "the survivor kept waiting for a committer that left"
        );
        // The wait ends at the first look past the bound; allow that look
        // one late wake-up of a yielding thread.
        assert!(
            Duration::from_nanos(after.leader_wait_ns - before.leader_wait_ns)
                <= MAX_LEADER_WAIT + Duration::from_millis(10),
            "the one wait is bounded"
        );
        assert_eq!(wal.cohorts.lock().released, 1, "its own cohort from now on");
        std::fs::remove_file(&base).ok();
    }

    #[test]
    fn a_returning_cohort_is_waited_for_and_a_late_one_is_not() {
        let base = temp_base("rule");
        let wal = group_commit(&base);
        commit_one(&wal, 1);
        // The first of two released committers back leads, and waits for
        // the second.
        after_a_release(&wal, 2);
        commit_one(&wal, 2);
        assert_eq!(wal.stats().leader_waits, 1);
        // The second never came: noted, and the same situation again makes
        // nobody wait.
        {
            let mut cohorts = wal.cohorts.lock();
            assert_eq!(cohorts.regroup_time, Duration::MAX);
            cohorts.released = 2;
            cohorts.arrivals = 0;
            cohorts.release_at = Instant::now();
        }
        commit_one(&wal, 3);
        assert_eq!(wal.stats().leader_waits, 1);
        std::fs::remove_file(&base).ok();
    }

    #[test]
    fn a_full_cohort_does_not_wait_for_stragglers() {
        let base = temp_base("full");
        let wal = group_commit(&base);
        commit_one(&wal, 1);
        // One more committer was released than will be back, and the
        // arriving leader completes a cohort of `MAX_COHORT`.
        after_a_release(&wal, MAX_COHORT + 1);
        wal.cohorts.lock().waiting = MAX_COHORT - 1;
        commit_one(&wal, 2);
        assert_eq!(wal.stats().leader_waits, 0);
        assert_eq!(wal.stats().max_cohort, MAX_COHORT as u64);
        std::fs::remove_file(&base).ok();
    }

    #[test]
    fn a_failed_write_is_not_acknowledged_to_the_followers() {
        let (fs, wal) = in_memory();
        // Two commit records buffered, two committers about to wait.
        let first = wal.append(&commit(1)).unwrap();
        let second = wal.append(&commit(2)).unwrap();
        fs.fail(fs.calls() + 1, Fault::Full);
        assert!(wal.wait_durable(first).is_err());
        // The buffer holding both records is lost. The next leader's flush
        // has nothing to write and its fsync succeeds — it must still not
        // report LSNs that never reached the file as durable.
        assert!(
            wal.wait_durable(second).is_err(),
            "a commit whose record was dropped was acknowledged"
        );
        assert!(wal.commit(&commit(3)).is_err());
        assert!(wal.append(&commit(4)).is_err());
        assert!(wal.sync().is_err());
        assert_eq!(wal.cohorts.lock().durable_lsn, 0);
        let log = fs.contents(Path::new(LOG)).unwrap();
        assert!(recover_from_bytes(&log).unwrap().records.is_empty());
    }

    /// A failed `fdatasync` is final: on Linux a retried one can succeed
    /// without the data. Every committer of the cohort it was to release —
    /// the leader and each follower — gets the error, and so does every
    /// later call.
    #[test]
    fn a_failed_sync_fails_its_whole_cohort_and_every_later_call() {
        let (fs, wal) = in_memory();
        let wal = Arc::new(wal);
        fs.fail(fs.calls() + 1, Fault::Eio);
        let in_step = Arc::new(Barrier::new(4));
        let committers: Vec<_> = (1..=4)
            .map(|n| {
                let (wal, in_step) = (Arc::clone(&wal), Arc::clone(&in_step));
                std::thread::spawn(move || {
                    in_step.wait();
                    wal.commit(&commit(n))
                })
            })
            .collect();
        for committer in committers {
            assert!(
                committer.join().unwrap().is_err(),
                "a commit was acknowledged past a failed sync"
            );
        }
        assert_eq!(wal.cohorts.lock().durable_lsn, 0);
        assert!(wal.commit(&commit(5)).is_err());
        assert!(wal.append(&commit(6)).is_err());
        assert!(wal.sync().is_err());
        assert!(wal.flush().is_err());
    }

    #[test]
    fn a_failed_fill_is_final() {
        let (fs, wal) = in_memory();
        // Both records reach the file before the fault is armed, so the
        // leader's sync has nothing to write and the first write it
        // attempts is the zero-fill its small sync makes due.
        let first = wal.append(&commit(1)).unwrap();
        let second = wal.append(&commit(2)).unwrap();
        wal.flush().unwrap();
        fs.fail(fs.calls() + 1, Fault::Full);
        wal.wait_durable(first).unwrap();
        assert_eq!(wal.stats().fills, 1, "the fill ran, and failed");
        // The sync before the fill stands: both records are durable...
        wal.wait_durable(second).unwrap();
        // ...and nothing enrolled after the failed fill is acknowledged.
        assert!(wal.commit(&commit(3)).is_err());
        assert!(wal.append(&commit(4)).is_err());
        assert!(wal.sync().is_err());
        assert!(wal.flush().is_err());
        drop(wal);
        let log = fs.contents(Path::new(LOG)).unwrap();
        assert_eq!(recover_from_bytes(&log).unwrap().committed.len(), 2);
    }

    /// A buffered log is its records, appended: no watermark frame, no
    /// zeros, byte for byte what the records encode to.
    #[test]
    fn a_buffered_log_holds_its_records_and_nothing_else() {
        let base = temp_base("buffered-bytes");
        let wal = create(&OsFs, &base, CommitPolicy::Buffered);
        let mut expected = Vec::new();
        for n in 1..=50 {
            let append = tail_append(n as u32 % 4, n as u32, txn(n));
            let commit = LogRecord::Commit {
                txn_id: txn(n),
                commit_ts: n,
            };
            wal.append(&append).unwrap();
            wal.commit(&commit).unwrap();
            expected.extend_from_slice(&append.encode());
            expected.extend_from_slice(&commit.encode());
            if n % 10 == 0 {
                wal.sync().unwrap();
            }
        }
        wal.sync().unwrap();
        assert_eq!(std::fs::read(&base).unwrap(), expected);
        assert_eq!(wal.stats().fills, 0);
        std::fs::remove_file(&base).ok();
    }

    /// The fill rule by count. A group-commit log opens as a watermark of
    /// 0 and, once synced, a second one naming it (34 bytes); every sync
    /// that wrote records adds a 17-byte watermark frame to the next flush.
    /// The first small sync fills 1 MiB past the records, and each later
    /// one fills again once fewer than 512 KiB of zeros are left, so a
    /// lone committer whose syncs end at `17 + i (r + 17)` for `i = 1..=n`
    /// fills `ceil((D + 512 KiB) / 1 MiB)` times, `D` being the bytes its
    /// syncs wrote after the first.
    #[test]
    fn small_syncs_fill_once_per_mib_and_a_bulk_load_never() {
        const MIB: u64 = 1 << 20;
        let base = temp_base("fill-count");
        let wal = group_commit(&base);
        let wide = |n: u64| LogRecord::TailAppend {
            table_id: 0,
            range_id: 0,
            seq: n as u32,
            txn_id: txn(n),
            base_rid: 1,
            prev_rid: 1,
            schema_encoding: 1,
            columns: (0..300).map(|c| (c, n)).collect(),
        };
        let commit = |n| LogRecord::Commit {
            txn_id: txn(n),
            commit_ts: n,
        };
        let r = (wide(1).encode().len() + commit(1).encode().len()) as u64;
        let n = 1_000;
        for i in 1..=n {
            wal.append(&wide(i)).unwrap();
            wal.commit(&commit(i)).unwrap();
        }
        let span = (n - 1) * (r + 17);
        assert_eq!(wal.stats().fills, (span + MIB / 2).div_ceil(MIB));
        assert_eq!(wal.stats().syncs, n);
        drop(wal);
        // Dropped cleanly: the zeros go, the last watermark frame ends it.
        let len = std::fs::metadata(&base).unwrap().len();
        assert_eq!(len, 17 + n * (r + 17) + 17);

        // A load's commits each write more than the 1 MiB the buffer
        // spills at, so no sync is small and none fills.
        let wal = group_commit(&base);
        for i in 1..=4 {
            for row in 0..8192 {
                let insert = LogRecord::Insert {
                    table_id: 0,
                    range_id: 0,
                    slot: row,
                    txn_id: txn(i),
                    values: vec![i; 16],
                };
                wal.append(&insert).unwrap();
            }
            wal.commit(&commit(i)).unwrap();
        }
        assert_eq!(wal.stats().fills, 0);
        std::fs::remove_file(&base).ok();
    }
}
