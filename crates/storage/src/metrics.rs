//! The engine's instruments: a counter, a log₂ histogram, and one macro
//! that declares a set of them once.
//!
//! Every instrument is relaxed: it informs benchmarks, tests and
//! operators, never control flow, and a bump is one relaxed
//! read-modify-write. A set is declared with [`crate::metric_set!`] from one list
//! of documented fields, which yields the live struct the engine bumps, the
//! plain snapshot struct callers read, and the `snapshot()` that copies one
//! into the other.
//!
//! This file is compiled twice: here, and as `lstore_wal::metrics`, for
//! the log, so that neither crate depends on the other (as `io.rs` is).

use std::sync::atomic::{AtomicU64, Ordering};

/// A `u64` counter: monotone, or a running maximum through
/// [`Counter::max`].
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the counter to `n` if it is below.
    pub fn max(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero and return the value: for a counter kept per owner
    /// and folded into a shared one.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// Counts of values by their power of two: bucket `i` counts values in
/// `2^i ..= 2^(i+1) - 1`, bucket 0 also counts 0, and the last bucket
/// counts everything from `2^15` up.
#[derive(Debug, Default)]
pub struct Histogram([Counter; Histogram::BUCKETS]);

impl Histogram {
    /// Buckets per histogram.
    pub const BUCKETS: usize = 16;

    /// Count one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0[((value | 1).ilog2() as usize).min(Self::BUCKETS - 1)].inc();
    }

    /// The bucket counts, lowest bucket first.
    pub fn buckets(&self) -> [u64; Histogram::BUCKETS] {
        self.0.each_ref().map(Counter::get)
    }
}

/// Declare a set of instruments once:
///
/// ```text
/// metric_set! {
///     /// Docs of the live struct (its attributes go here too).
///     pub struct Live;
///     /// Docs of the snapshot struct.
///     pub struct Read {
///         /// Docs of the field, in both structs.
///         done: Counter,
///         sizes: Histogram,
///     }
///     gauges {
///         level: u64,
///     }
/// }
/// ```
///
/// Each field is a [`Counter`] (read as a `u64`) or a [`Histogram`] (read
/// as `[u64; 16]`), documented once for both structs. The live struct
/// derives `Debug` and `Default` and takes the attributes written above
/// it; the snapshot derives `Debug`, `Clone`, `Copy`, `Default`,
/// `PartialEq` and `Eq`. Fields listed under a trailing `gauges { .. }`
/// exist in the snapshot only: `snapshot()` leaves them at their default
/// for the caller to fill in.
#[macro_export]
macro_rules! metric_set {
    (@value Counter) => { u64 };
    (@value Histogram) => { [u64; $crate::metrics::Histogram::BUCKETS] };
    (@read Counter, $instrument:expr) => { $instrument.get() };
    (@read Histogram, $instrument:expr) => { $instrument.buckets() };
    (
        $(#[$live_attr:meta])*
        $live_vis:vis struct $live:ident;
        $(#[$snap_attr:meta])*
        $snap_vis:vis struct $snap:ident {
            $($(#[$doc:meta])* $field:ident: $kind:ident,)*
        }
        $(gauges {
            $($(#[$gauge_doc:meta])* $gauge:ident: $gauge_ty:ty,)*
        })?
    ) => {
        $(#[$live_attr])*
        #[derive(Debug, Default)]
        $live_vis struct $live {
            $($(#[$doc])* pub $field: $crate::metrics::$kind,)*
        }

        $(#[$snap_attr])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $snap {
            $($(#[$doc])* pub $field: $crate::metric_set!(@value $kind),)*
            $($($(#[$gauge_doc])* pub $gauge: $gauge_ty,)*)?
        }

        impl $live {
            #[doc = concat!("Read every instrument into a [`", stringify!($snap), "`].")]
            $live_vis fn snapshot(&self) -> $snap {
                $snap {
                    $($field: $crate::metric_set!(@read $kind, self.$field),)*
                    $($($gauge: Default::default(),)*)?
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_zero_to_overflow() {
        let h = Histogram::default();
        let edges = [0, 1, 2, 3, 4, 255, 256, (1 << 15) - 1, 1 << 15, u64::MAX];
        let at = edges.map(|value| {
            let before = h.buckets();
            h.record(value);
            (0..Histogram::BUCKETS)
                .position(|i| h.buckets()[i] != before[i])
                .unwrap()
        });
        assert_eq!(at, [0, 0, 1, 1, 2, 7, 8, 14, 15, 15]);
        assert_eq!(h.buckets().iter().sum::<u64>(), edges.len() as u64);
    }

    #[test]
    fn counter_max_only_raises() {
        let c = Counter::default();
        c.max(5);
        c.max(3);
        assert_eq!(c.get(), 5);
        c.add(2);
        c.inc();
        c.max(7);
        assert_eq!(c.get(), 8);
        c.max(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    crate::metric_set! {
        /// Two instruments and a gauge.
        struct Live;
        /// Their reading.
        struct Read {
            /// A counter.
            done: Counter,
            /// A histogram.
            sizes: Histogram,
        }
        gauges {
            /// Filled in by the caller.
            level: Option<u64>,
        }
    }

    #[test]
    fn a_snapshot_reads_every_instrument_and_defaults_the_gauges() {
        let live = Live::default();
        live.done.add(3);
        live.sizes.record(4);
        let mut expected = [0; Histogram::BUCKETS];
        expected[2] = 1;
        let read = live.snapshot();
        assert_eq!(
            read,
            Read {
                done: 3,
                sizes: expected,
                level: None
            }
        );
    }
}
