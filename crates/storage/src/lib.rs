//! # lstore-storage
//!
//! Columnar page store underpinning the L-Store engine (Sadoghi et al.,
//! EDBT 2018). This crate provides the storage substrate the paper's
//! lineage-based architecture is built on:
//!
//! * **Base pages** ([`page::BasePage`]) — read-only, optionally compressed
//!   columnar pages produced by the merge process.
//! * **Tail pages** ([`tail::TailPage`], [`tail::AppendVec`]) — uncompressed,
//!   strictly append-only, write-once pages holding recent updates.
//! * **Compression codecs** ([`compress`]) — dictionary, run-length, and
//!   frame-of-reference bit-packing with random-access decode, applied to
//!   base pages at merge time and to historic tail data (§4.3).
//! * **Epoch-based reclamation** ([`epoch::EpochManager`]) — contention-free
//!   de-allocation of outdated base pages once all readers that began before
//!   the merge have drained (§4.1.1 step 5, Fig. 6).
//! * **Disk persistence** ([`disk`]) — a simple page-image file format so
//!   base and tail pages are "persisted identically" (§2.1).
//! * **Buffer-pool page store** ([`store`]) — sealed base pages live in a
//!   page file behind a capacity-budgeted buffer pool with
//!   clock/second-chance eviction, so datasets outgrow RAM while readers
//!   stay oblivious to page residency.
//! * **One metrics module** ([`metrics`]) — the relaxed `Counter` and the
//!   log₂ `Histogram` every engine counter set is built from, declared
//!   with [`metric_set!`].
//! * **One I/O seam** ([`io`]) — the `File` and `Fs` traits every file
//!   call of the log and the page store goes through, with the OS behind
//!   them in production and an in-memory `FaultFs` in tests.
//!
//! All value cells are `u64`; the paper's implicit special null ∅ is
//! represented by [`NULL_VALUE`].

pub mod compress;
pub mod disk;
pub mod epoch;
pub mod error;
pub mod io;
pub mod metrics;
pub mod page;
pub mod store;
pub mod tail;

pub use error::{StorageError, StorageResult};

/// The special null value ∅ the paper pre-assigns to non-updated columns in
/// tail pages (§2.1). Data columns must not store this value as real data.
pub const NULL_VALUE: u64 = u64::MAX;

/// Ask the processor to start loading the cache line holding `cell` — a
/// hint, issued for every cell of a row before the first one is decoded, so
/// that the misses of a point read overlap instead of queueing behind each
/// other's decode. A no-op off x86-64.
#[inline(always)]
pub fn prefetch<T>(cell: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` never faults and reads nothing the program
    // can observe; SSE is part of the x86-64 baseline, and the address
    // comes from a live reference.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(cell as *const T as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = cell;
}
