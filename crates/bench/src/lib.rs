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
//! Every experiment has a standalone binary (`src/bin/`), sized by the
//! `BENCH_*` environment knobs in [`setup`] (default laptop scale).

pub mod harness;
pub mod report;
pub mod setup;
pub mod workload;

pub use harness::{
    run_mixed, run_scan_while_updating, run_throughput, scan_thread_axis, MixedResult,
    ThroughputResult,
};
pub use workload::{Contention, Workload, WorkloadConfig};
