//! Re-exports for integration tests and examples.
pub use lstore;
pub use lstore_baselines as baselines;
pub use lstore_bench as bench;

/// Every `rust` block of the README, compiled (and run unless marked
/// `no_run`) by `cargo test` as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct Readme;
