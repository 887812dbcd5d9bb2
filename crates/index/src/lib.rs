//! # lstore-index
//!
//! Index substrate for L-Store. The paper's central indexing rule (§3.1):
//!
//! > "indexes always point to base records (i.e., base RIDs), and they never
//! > directly point to any tail records … in order to avoid the index
//! > maintenance cost that arise in the absence of in-place update
//! > mechanism."
//!
//! Because base RIDs are stable for the whole life of a record, creating a
//! new version never touches indexes on unaffected columns, and affected
//! secondary indexes only gain a `(new_value, base_rid)` entry — the old
//! entry is removed *deferred*, "until the changed entries fall outside the
//! snapshot of all relevant active queries" (§3.1, footnote 3). Readers that
//! arrive at a base record through an index must re-evaluate the predicate
//! against the visible version.
//!
//! * [`primary::PrimaryIndex`] — lock-striped hash map from unique key to base
//!   RID (the "single primary index for fast point lookup" of §6.1).
//! * [`secondary::SecondaryIndex`] — ordered multimap from column value to
//!   base RIDs with epoch-deferred removal.

pub mod primary;
pub mod secondary;

pub use primary::PrimaryIndex;
pub use secondary::SecondaryIndex;
