//! The synchronized transaction clock.
//!
//! "When a transaction starts, it receives a begin time from a synchronized
//! clock (time is advanced before it is returned)" (§5.1.1). A single atomic
//! counter gives every begin and commit timestamp a unique, totally ordered
//! value — commit timestamps double as version start times, and the start
//! time of a version is "the implicit end time of the previous version".

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone logical clock shared by all transactions of a database. Every
/// begin and commit writes it, so it keeps a cache line to itself: whatever
/// sits next to it is read by everyone.
#[derive(Debug)]
#[repr(align(64))]
pub struct GlobalClock {
    now: AtomicU64,
}

impl Default for GlobalClock {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalClock {
    /// Create a clock starting at 1 (0 is reserved for "before all time",
    /// the start time of bulk-loaded records).
    pub fn new() -> Self {
        GlobalClock {
            now: AtomicU64::new(1),
        }
    }

    /// Advance the clock and return the new value (paper: "time is advanced
    /// before it is returned").
    #[inline]
    pub fn tick(&self) -> u64 {
        self.now.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Read the clock without advancing it.
    #[inline]
    pub fn peek(&self) -> u64 {
        self.now.load(Ordering::Acquire)
    }

    /// Advance the clock to at least `ts` (used by WAL replay so recovered
    /// commit timestamps stay in the past).
    pub fn advance_to(&self, ts: u64) {
        self.now.fetch_max(ts, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn tick_is_monotone_and_advances_first() {
        let c = GlobalClock::new();
        let before = c.peek();
        let t = c.tick();
        assert!(t > before);
        assert_eq!(c.peek(), t);
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        let c = Arc::new(GlobalClock::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || (0..10_000).map(|_| c.tick()).collect::<Vec<u64>>())
            })
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for t in h.join().unwrap() {
                assert!(seen.insert(t), "duplicate timestamp {t}");
            }
        }
        assert_eq!(seen.len(), 80_000);
    }
}
