//! # lstore-txn
//!
//! Concurrency-control substrate for L-Store (§5.1 of the paper).
//!
//! L-Store "is agnostic to the underlying concurrency protocol"; the paper's
//! prototype uses the optimistic multi-version model of Sadoghi et al.
//! (VLDB'14, \[33\]) with the speculative reads of Larson et al. (VLDB'11,
//! \[18\]). This crate provides those pieces independent of storage:
//!
//! * [`clock::GlobalClock`] — the synchronized clock ("time is advanced
//!   before it is returned") issuing begin and commit timestamps.
//! * [`manager::TxnManager`] — the transaction table mapping transaction ids
//!   to their state (active → pre-commit → committed / aborted) and
//!   begin/commit times, consulted by readers — through its one resolver,
//!   [`manager::TxnManager::resolve_start_time`] — to decide visibility of
//!   records whose Start Time column still holds a transaction id.
//! * [`txn::Transaction`] — per-transaction context: id, begin time,
//!   isolation level, read-set for validation, write-set for abort handling.
//!
//! Timestamps and transaction ids share one `u64` space: transaction ids
//! have [`TXN_ID_FLAG`] (bit 63) set, so a Start Time cell can be classified
//! with a single branch ([`is_txn_id`]).

pub mod clock;
pub mod manager;
pub mod txn;

pub use clock::GlobalClock;
pub use manager::{StartTime, TxnManager, TxnStatus};
pub use txn::{IsolationLevel, ReadSetEntry, Transaction, WriteSetEntry};

/// Bit flagging a `u64` as a transaction id rather than a wall-clock
/// timestamp (§5.1.1: "The Start Time column may also hold transaction ID").
pub const TXN_ID_FLAG: u64 = 1 << 63;

/// True when a Start Time cell holds a transaction id (uncommitted or not
/// yet lazily swapped) rather than a commit timestamp.
#[inline]
pub fn is_txn_id(ts: u64) -> bool {
    ts & TXN_ID_FLAG != 0 && ts != u64::MAX
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_classification() {
        assert!(is_txn_id(TXN_ID_FLAG | 7));
        assert!(!is_txn_id(42));
        assert!(!is_txn_id(u64::MAX), "the null sentinel is not a txn id");
    }
}
