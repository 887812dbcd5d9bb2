//! # lstore-bench
//!
//! The micro-benchmark of the paper's evaluation (§6.1, after [18, 33]) and
//! the harness that reproduces every table and figure of §6.2.
//!
//! Workload model:
//! * a 10-column table (configurable), bulk-loaded with `rows` records;
//! * **short update transactions**: 8 reads + 2 writes over a contention-
//!   controlled *active set* (10 M / 100 K / 10 K rows at paper scale),
//!   read-committed;
//! * **analytical queries**: snapshot SUM scans over up to 10 % of the
//!   table;
//! * 40 % of columns updated on average; read/write mix sweepable.
//!
//! Every experiment has a standalone binary (`src/bin/`) that prints its
//! figure or table. Four environment variables in [`setup`] size a run to
//! the machine — `BENCH_ROWS`, `BENCH_SECONDS`, `BENCH_THREADS` and
//! `BENCH_POOL_THREADS` (default laptop scale) — and `BENCH_JSON` names a
//! JSON Lines copy of the output ([`report`]). Every other axis is a
//! constant in the runner that sweeps it.

pub mod harness;
pub mod report;
pub mod setup;
pub mod workload;

pub use harness::{
    run_mixed, run_scan_while_updating, run_throughput, scan_thread_axis, MixedResult,
    ThroughputResult,
};
pub use workload::{Contention, Workload, WorkloadConfig};
