//! Property test pinning the aggregation-kernel contract: for every codec
//! (including whatever `encode_auto` picks), every [`ColumnKernel`] method
//! must be byte-identical to decode-then-aggregate over the plain values —
//! across adversarial value shapes (constant, sorted runs, high-cardinality,
//! max-width u64) crossed with random visibility masks and random windows.
//!
//! This is the invariant that lets the scan driver pick per window between
//! kernel execution and per-row resolution (insert-phase, snapshot-straddling
//! and masked-dense windows) without changing results.

use proptest::prelude::*;

use lstore_storage::compress::{
    encode, encode_auto, CodecChoice, ColumnKernel, Compressed, RowMask,
};

/// One generated case: a column plus mask/window randomness.
#[derive(Debug, Clone)]
struct Case {
    values: Vec<u64>,
    /// Per-mille of rows to exclude (0 = all visible, ~500 = dense holes).
    exclude_per_mille: u64,
    mask_seed: u64,
    window_lo_pct: u64,
    window_hi_pct: u64,
}

fn values_strategy() -> BoxedStrategy<Vec<u64>> {
    prop_oneof![
        // Constant column: RLE collapses to one run, dict to one code.
        (0u64..1000, 1usize..600)
            .prop_map(|(v, n)| vec![v; n])
            .boxed(),
        // Sorted runs: (value, run_len) pairs expanded in order — the RLE
        // and dictionary sweet spot, with irregular run boundaries.
        prop::collection::vec((0u64..64, 1usize..70), 1..24)
            .prop_map(|runs| {
                let mut out = Vec::new();
                let mut base = 0u64;
                for (step, len) in runs {
                    base += step;
                    out.extend(std::iter::repeat_n(base, len));
                }
                out
            })
            .boxed(),
        // High-cardinality: defeats dict sampling, lands on FOR or plain.
        prop::collection::vec(0u64..1_000_000_000, 1..600).boxed(),
        // Max-width: values hugging u64::MAX exercise 64-bit packing and
        // wrapping arithmetic in every kernel.
        prop::collection::vec(0u64..4096, 1..400)
            .prop_map(|v| v.into_iter().map(|x| u64::MAX - x).collect())
            .boxed(),
    ]
    .boxed()
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        values_strategy(),
        0u64..1000,
        0u64..u64::MAX,
        (0u64..101, 0u64..101),
    )
        .prop_map(
            |(values, exclude_per_mille, mask_seed, (window_lo_pct, window_hi_pct))| Case {
                values,
                exclude_per_mille,
                mask_seed,
                window_lo_pct,
                window_hi_pct,
            },
        )
}

/// Deterministic mask from the drawn seed/density (splitmix64 stream).
fn build_mask(case: &Case) -> RowMask {
    let mut mask = RowMask::new(case.values.len());
    let mut state = case.mask_seed;
    for idx in 0..case.values.len() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        if z % 1000 < case.exclude_per_mille {
            mask.exclude(idx);
        }
    }
    mask
}

/// Reference implementation: aggregate the plain values row by row.
fn reference_sum(values: &[u64], lo: usize, hi: usize, mask: Option<&RowMask>) -> u64 {
    (lo..hi)
        .filter(|&i| mask.is_none_or(|m| !m.is_excluded(i)))
        .fold(0u64, |a, i| a.wrapping_add(values[i]))
}

fn check_column(col: &Compressed, case: &Case, mask: &RowMask, lo: usize, hi: usize) {
    let tag = format!(
        "codec={} len={} window={lo}..{hi} excl={}",
        col.codec_name(),
        case.values.len(),
        mask.excluded()
    );
    assert_eq!(col.decode(), case.values, "{tag}: decode roundtrip");
    assert_eq!(
        col.sum_range(lo, hi),
        reference_sum(&case.values, lo, hi, None),
        "{tag}: sum_range"
    );
    assert_eq!(
        col.sum_range_masked(lo, hi, mask),
        reference_sum(&case.values, lo, hi, Some(mask)),
        "{tag}: sum_range_masked"
    );
    assert_eq!(
        col.count_range_masked(lo, hi, mask),
        (lo..hi).filter(|&i| !mask.is_excluded(i)).count(),
        "{tag}: count_range_masked"
    );
    // Spot-check random access on window edges and an interior point.
    for idx in [lo, (lo + hi) / 2, hi.saturating_sub(1)] {
        if idx >= lo && idx < hi {
            assert_eq!(
                col.value_at(idx),
                case.values[idx],
                "{tag}: value_at({idx})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96, .. ProptestConfig::default()
    })]

    #[test]
    fn kernels_equal_decode_then_aggregate(case in case_strategy()) {
        let n = case.values.len();
        let mut lo = (case.window_lo_pct as usize * n) / 100;
        let mut hi = (case.window_hi_pct as usize * n) / 100;
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let mask = build_mask(&case);

        for choice in [
            CodecChoice::None,
            CodecChoice::Dictionary,
            CodecChoice::Rle,
            CodecChoice::ForPack,
        ] {
            check_column(&encode(&case.values, choice), &case, &mask, lo, hi);
        }
        check_column(&encode_auto(&case.values), &case, &mask, lo, hi);
    }
}
