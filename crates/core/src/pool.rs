//! Unified merge/scan task scheduler shared by all tables of a database.
//!
//! The paper's evaluation runs "(at least) one scan thread" and one merge
//! thread (§6.1); Fig. 5's queue decouples the writers that *produce* merge
//! candidates from the consumer that processes them. Both kinds of
//! background work are embarrassingly parallel under the epoch discipline of
//! §4.1.1 — a scan's per-range partitions read immutable base snapshots, and
//! the relaxed merge (§4.1, Lemma 1) touches only stable data — so neither
//! needs a *dedicated* thread. The pool therefore runs one set of workers
//! that drain two kinds of work:
//!
//! * **Scan tasks**: type-erased closures fanned out by [`TaskPool::run`] —
//!   the partitions of analytical scans. Point reads, batched or not, and
//!   commit-time validation never come here: they run on their caller
//!   ([`crate::multi_read`]). The caller is a core too: it executes
//!   the first task itself, steals queued tasks back while its fan-out
//!   drains (never idling on work it could run), and blocks until every
//!   task finished — which is what makes handing non-`'static` borrows to
//!   the workers sound. Submission wakes a single worker and claimers
//!   chain further wakeups while tasks remain, so small fan-outs never pay
//!   a thundering herd.
//! * **Merge jobs**: queued by writers and scans on one FIFO merge queue
//!   ([`TaskPool::enqueue_merge`]) — Fig. 5's merge queue — that any idle
//!   worker pops. Jobs of different ranges need no mutual ordering, and
//!   `UpdateRange::claim_merge` keeps at most one merge per range queued
//!   or running, so workers drain the queue in parallel.
//!
//! Workers alternate between the two queues whenever both hold work (a
//! worker that just ran a scan task prefers a merge job next, and vice
//! versa), so idle scan capacity is stolen for merges under write-heavy
//! load and merge capacity for scans under read-heavy load — no thread
//! idles while the other queue is backed up, and a saturated scan pool
//! cannot starve merge progress (Fig. 8's mixed merge+scan workloads).
//!
//! [`TaskPool::shutdown`] drains the merge queue before joining the
//! workers, so dropping a database leaves every range quiesced.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// A type-erased unit of pool work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued merge job (resolves its table weakly; a no-op once dropped).
pub type MergeJob = Box<dyn FnOnce() + Send + 'static>;

/// Shared scheduler state between the pool handle and its workers.
struct Scheduler {
    /// Scan tasks, drained in FIFO order by whichever worker is free.
    scans: Mutex<VecDeque<Job>>,
    /// Scan tasks queued but not yet popped (fast lock-free empty check:
    /// spinning workers and helping callers poll this instead of taking
    /// the `scans` lock).
    scan_pending: AtomicUsize,
    /// Wakes workers when either queue gains work (paired with `scans`).
    work: Condvar,
    /// Wakes [`Scheduler::drain_merges`] waiters when a merge completes
    /// (paired with `scans`).
    quiesced: Condvar,
    /// The merge queue, drained in FIFO order by whichever worker is free.
    merges: Mutex<VecDeque<MergeJob>>,
    /// Merge jobs queued but not yet popped (fast empty check).
    merge_pending: AtomicUsize,
    /// Merge jobs popped and currently executing.
    merge_inflight: AtomicUsize,
    /// Set once at shutdown: no new merge enqueues, workers exit when both
    /// queues are empty.
    stopped: AtomicBool,
}

impl Scheduler {
    /// Pop and run one scan task; false when the scan queue is empty.
    fn run_one_scan(&self) -> bool {
        if self.scan_pending.load(Ordering::Acquire) == 0 {
            return false; // skip the lock on the (common) empty path
        }
        let job = self.scans.lock().pop_front();
        match job {
            Some(job) => {
                // Chained wakeup: each claimer wakes one more peer while
                // tasks remain, so a fan-out of n tasks costs at most n
                // one-waiter notifies — and zero when the helping caller
                // drains its own batch before any worker gets scheduled —
                // instead of an eager notify_all whose thundering herd
                // costs more than a microsecond-sized task.
                if self.scan_pending.fetch_sub(1, Ordering::AcqRel) > 1 {
                    self.work.notify_one();
                }
                job(); // panics are caught inside the closure (see `run`)
                true
            }
            None => false,
        }
    }

    /// Pop and run the front merge job; false when the merge queue is
    /// empty.
    fn run_one_merge(&self) -> bool {
        if self.merge_pending.load(Ordering::Acquire) == 0 {
            return false;
        }
        let Some(job) = self.merges.lock().pop_front() else {
            return false;
        };
        // Inflight up *before* pending down: `merges_quiesced` must never
        // observe both at zero while a popped job has yet to run.
        self.merge_inflight.fetch_add(1, Ordering::AcqRel);
        self.merge_pending.fetch_sub(1, Ordering::AcqRel);
        // A panicking merge must not kill the worker; the range-level
        // merge-pending claim is released by `process_merge`'s drop guard
        // even on unwind.
        let _ = catch_unwind(AssertUnwindSafe(job));
        self.merge_inflight.fetch_sub(1, Ordering::AcqRel);
        let _guard = self.scans.lock();
        self.quiesced.notify_all();
        true
    }

    /// True when no merge job is queued or executing.
    fn merges_quiesced(&self) -> bool {
        self.merge_pending.load(Ordering::Acquire) == 0
            && self.merge_inflight.load(Ordering::Acquire) == 0
    }

    /// Worker main loop: alternate between scan tasks and merge jobs while
    /// both queues hold work, sleep when neither does, exit once stopped
    /// *and* drained (shutdown never abandons queued merges).
    ///
    /// Workers park as soon as both queues are empty — no idle spinning.
    /// A bounded spin would keep workers hot across a stream of small
    /// point-read batches, but it burns the cores the *caller* needs on
    /// machines where workers ≈ cores (and the helping caller in
    /// [`TaskPool::run`] already covers the parked-worker latency: the
    /// batch never waits on a wakeup, it just runs on fewer threads).
    fn work_loop(&self) {
        let mut prefer_merge = false;
        loop {
            type Pick = fn(&Scheduler) -> bool;
            let order: [Pick; 2] = if prefer_merge {
                [Scheduler::run_one_merge, Scheduler::run_one_scan]
            } else {
                [Scheduler::run_one_scan, Scheduler::run_one_merge]
            };
            let did = order[0](self) || order[1](self);
            if did {
                prefer_merge = !prefer_merge;
                continue;
            }
            // Both queues publish under the scans lock, so work queued
            // after this check wakes the wait below.
            let mut scans = self.scans.lock();
            if !scans.is_empty() || self.merge_pending.load(Ordering::Acquire) > 0 {
                continue; // raced with a submission: run it
            }
            if self.stopped.load(Ordering::Acquire) {
                return;
            }
            self.work.wait(&mut scans);
        }
    }
}

/// Countdown latch: `run` waits until all fanned-out tasks reported in.
struct WaitGroup {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl WaitGroup {
    fn new(count: usize) -> Self {
        WaitGroup {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn finish_one(&self) {
        let mut remaining = self.remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// True once every task reported in (the helping caller polls this
    /// between stolen tasks).
    fn is_done(&self) -> bool {
        *self.remaining.lock() == 0
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock();
        while *remaining > 0 {
            self.done.wait(&mut remaining);
        }
    }
}

/// The unified merge/scan worker pool.
pub struct TaskPool {
    sched: Arc<Scheduler>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Scan fan-out width (counting the caller); may exceed the worker
    /// count by one, or the worker count may exceed it when a width-1
    /// configuration still runs background merges.
    scan_width: usize,
}

impl TaskPool {
    /// Spawn a pool with `workers` worker threads. `scan_width` is the
    /// fan-out width scans should plan for, counting the calling thread.
    pub fn new(scan_width: usize, workers: usize) -> TaskPool {
        let sched = Arc::new(Scheduler {
            scans: Mutex::new(VecDeque::new()),
            scan_pending: AtomicUsize::new(0),
            work: Condvar::new(),
            quiesced: Condvar::new(),
            merges: Mutex::new(VecDeque::new()),
            merge_pending: AtomicUsize::new(0),
            merge_inflight: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let sched = Arc::clone(&sched);
                std::thread::Builder::new()
                    .name(format!("lstore-pool-{i}"))
                    .spawn(move || sched.work_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        TaskPool {
            sched,
            workers: Mutex::new(handles),
            scan_width: scan_width.max(1),
        }
    }

    /// Scan-only pool for a configured fan-out width: `None` when one
    /// thread (the caller itself) is all the configuration asks for.
    pub fn for_width(scan_width: usize) -> Option<TaskPool> {
        if scan_width <= 1 {
            None
        } else {
            // The calling thread executes one partition itself.
            Some(TaskPool::new(scan_width, scan_width - 1))
        }
    }

    /// Number of threads a scan fan-out should plan for, counting the
    /// caller.
    pub fn width(&self) -> usize {
        self.scan_width
    }

    /// Queue a merge job at the back of the merge queue. Returns false
    /// (without queueing) once the pool has been stopped.
    pub fn enqueue_merge(&self, job: MergeJob) -> bool {
        // Check-and-publish under the scans lock — the same lock workers
        // hold for their exit decision and `shutdown` takes before its
        // final notify. Either this enqueue observes `stopped` and refuses,
        // or the job is visible (`merge_pending > 0`) before any worker can
        // pass its exit check, so shutdown's drain still runs it; a job can
        // never land in a pool whose workers are already gone.
        let _guard = self.sched.scans.lock();
        if self.sched.stopped.load(Ordering::Acquire) {
            return false;
        }
        self.sched.merges.lock().push_back(job);
        self.sched.merge_pending.fetch_add(1, Ordering::AcqRel);
        self.sched.work.notify_one();
        true
    }

    /// Queued merge jobs not yet claimed by a worker.
    pub fn pending_merges(&self) -> usize {
        self.sched.merge_pending.load(Ordering::Acquire)
    }

    /// Block until every queued merge job has finished executing.
    pub fn drain_merges(&self) {
        let mut scans = self.sched.scans.lock();
        while !self.sched.merges_quiesced() {
            // Timed wait: the finishing notification races with our check
            // only by a bounded poll interval.
            self.sched
                .quiesced
                .wait_for(&mut scans, Duration::from_millis(1));
        }
    }

    /// Stop the pool: no further merge enqueues are accepted, workers drain
    /// the remaining merge jobs and exit, and the calling thread joins
    /// them. Idempotent; called from `Database::drop` while tables are
    /// still alive so queued merges resolve against live state.
    pub fn shutdown(&self) {
        self.sched.stopped.store(true, Ordering::Release);
        {
            let _guard = self.sched.scans.lock();
            self.sched.work.notify_all();
        }
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Execute `tasks` across the pool plus the calling thread, returning
    /// the results in task order. Blocks until every task completed; a
    /// panicking task is resumed on the caller after all tasks drained.
    pub fn run<R, F>(&self, mut tasks: Vec<F>) -> Vec<R>
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if tasks.is_empty() {
            return Vec::new();
        }
        let first = tasks.remove(0);
        let n = tasks.len();
        let slots: Vec<Mutex<Slot<F, R>>> = tasks
            .into_iter()
            .map(|task| Mutex::new(Slot::Queued(task)))
            .collect();
        let wg = WaitGroup::new(n);
        let first_outcome = {
            let wg = &wg;
            let mut jobs = Vec::with_capacity(n);
            for slot in &slots {
                let job = Box::new(move || {
                    slot.lock().run();
                    wg.finish_one();
                });
                // SAFETY: the job borrows `slots`, `wg`, and whatever the
                // caller's task closures borrow. `wg.wait()` below does not
                // return until every submitted job has run to completion, so
                // none of those borrows can dangle; the lifetime erasure is
                // confined to this block.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
                jobs.push(job);
            }
            // Check-and-publish under the scans lock (see `enqueue_merge`):
            // either the jobs become visible before any worker can pass its
            // exit check — so a concurrent shutdown's drain still runs them
            // — or the pool is already stopped and the caller runs every
            // job inline so the wait group still reaches zero.
            let inline = {
                let mut scans = self.sched.scans.lock();
                if self.sched.stopped.load(Ordering::Acquire) {
                    Some(jobs)
                } else {
                    self.sched.scan_pending.fetch_add(n, Ordering::AcqRel);
                    scans.extend(jobs);
                    None
                }
            };
            match inline {
                Some(jobs) => {
                    for job in jobs {
                        job();
                    }
                }
                // Wake one worker outside the lock (it re-checks emptiness
                // under the lock before sleeping, so the wakeup cannot be
                // lost); claimers chain further wakeups while tasks remain
                // (see `run_one_scan`).
                None => self.sched.work.notify_one(),
            }
            // The caller is the first worker, not an idle waiter.
            let first_outcome = Slot::Queued(first).into_outcome();
            // Keep working instead of idling: steal queued scan tasks (this
            // fan-out's or a sibling's) until this batch completed or the
            // queue drains. For microsecond-sized tasks the workers' wakeup
            // latency can exceed the whole batch; helping bounds the worst
            // case at "the caller did everything itself, sequentially".
            while !wg.is_done() && self.sched.run_one_scan() {}
            wg.wait();
            first_outcome
        };
        // Every job ran before `wait` returned, so every slot is done.
        std::iter::once(first_outcome)
            .chain(
                slots
                    .into_iter()
                    .map(|slot| slot.into_inner().into_outcome()),
            )
            .map(|r| match r {
                Ok(v) => v,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

/// One fanned-out task of [`TaskPool::run`]: queued, then its outcome once
/// a worker ran it (a panic is caught into the outcome).
enum Slot<F, R> {
    Queued(F),
    Done(std::thread::Result<R>),
}

impl<F: FnOnce() -> R, R> Slot<F, R> {
    /// Run the task if still queued. (The placeholder moved in while it
    /// runs is overwritten before the caller's slot lock is released.)
    fn run(&mut self) {
        let queued = std::mem::replace(self, Slot::Done(Err(Box::new(()))));
        *self = Slot::Done(queued.into_outcome());
    }

    /// The task's outcome, running it here if it is still queued.
    fn into_outcome(self) -> std::thread::Result<R> {
        match self {
            Slot::Queued(task) => catch_unwind(AssertUnwindSafe(task)),
            Slot::Done(outcome) => outcome,
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_task_order() {
        let pool = TaskPool::for_width(4).expect("pool");
        assert_eq!(pool.width(), 4);
        let tasks: Vec<_> = (0..16u64).map(|i| move || i * i).collect();
        let got = pool.run(tasks);
        assert_eq!(got, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_can_borrow_caller_state() {
        let pool = TaskPool::for_width(3).expect("pool");
        let data: Vec<u64> = (0..1000).collect();
        let tasks: Vec<_> = data
            .chunks(250)
            .map(|chunk| move || chunk.iter().sum::<u64>())
            .collect();
        let total: u64 = pool.run(tasks).into_iter().sum();
        assert_eq!(total, data.iter().sum::<u64>());
    }

    #[test]
    fn pool_is_reusable_and_shared() {
        let pool = std::sync::Arc::new(TaskPool::for_width(2).expect("pool"));
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            let tasks: Vec<_> = (0..4)
                .map(|_| || hits.fetch_add(1, Ordering::Relaxed))
                .collect();
            pool.run(tasks);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn width_one_request_needs_no_pool() {
        assert!(TaskPool::for_width(0).is_none());
        assert!(TaskPool::for_width(1).is_none());
    }

    #[test]
    fn task_panic_propagates_after_drain() {
        let pool = TaskPool::for_width(2).expect("pool");
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
                Box::new(|| 1),
                Box::new(|| panic!("scan worker exploded")),
                Box::new(|| 3),
            ];
            pool.run(tasks)
        }));
        assert!(caught.is_err());
        // Pool still serviceable after the panic drained.
        assert_eq!(pool.run(vec![|| 7u64, || 8u64]), vec![7, 8]);
    }

    #[test]
    fn merge_jobs_run_on_workers_and_drain() {
        let pool = TaskPool::new(2, 1);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let ran = Arc::clone(&ran);
            assert!(pool.enqueue_merge(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })));
        }
        pool.drain_merges();
        assert_eq!(ran.load(Ordering::SeqCst), 32);
        assert_eq!(pool.pending_merges(), 0);
    }

    #[test]
    fn scans_and_merges_interleave_without_starvation() {
        let pool = Arc::new(TaskPool::new(3, 2));
        let merges = Arc::new(AtomicUsize::new(0));
        // Keep the scan queue warm from a second thread while merges flow.
        std::thread::scope(|s| {
            let scan_pool = Arc::clone(&pool);
            s.spawn(move || {
                for _ in 0..50 {
                    let tasks: Vec<_> = (0..4).map(|i| move || i * 2u64).collect();
                    scan_pool.run(tasks);
                }
            });
            for _ in 0..40 {
                let merges = Arc::clone(&merges);
                pool.enqueue_merge(Box::new(move || {
                    merges.fetch_add(1, Ordering::SeqCst);
                }));
            }
            pool.drain_merges();
        });
        assert_eq!(merges.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn shutdown_drains_queued_merges_then_rejects() {
        let pool = TaskPool::new(2, 1);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let ran = Arc::clone(&ran);
            pool.enqueue_merge(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 2, "shutdown drained the queue");
        // The enqueue-returns-false-when-stopped contract.
        assert!(!pool.enqueue_merge(Box::new(|| {})));
        // Scan fan-outs after shutdown run inline on the caller.
        assert_eq!(pool.run(vec![|| 1u64, || 2u64]), vec![1, 2]);
    }

    #[test]
    fn merge_panic_does_not_wedge_the_queue() {
        let pool = TaskPool::new(2, 1);
        let ran = Arc::new(AtomicUsize::new(0));
        pool.enqueue_merge(Box::new(|| panic!("merge exploded")));
        let ran2 = Arc::clone(&ran);
        pool.enqueue_merge(Box::new(move || {
            ran2.fetch_add(1, Ordering::SeqCst);
        }));
        pool.drain_merges();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "queue kept draining");
    }
}
