//! The packed GEMM's determinism contract: [`matmul_packed_into`] is
//! **bit-identical** to the naive reference kernel — exact `to_bits`
//! equality, not tolerance — across shapes that are deliberately not
//! multiples of the block sizes (MR/NR/KC/MC/NC), so every ragged-edge
//! path in the packing and micro-kernel is hit.

use oppsla_tensor::gemm::{matmul_packed_into, pack_a, KC, MC, MR, NC, NR};
use oppsla_tensor::ops::matmul_into;
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Shared harness: multiply with both kernels, demand exact equality.
fn assert_packed_matches_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut naive = vec![f32::NAN; m * n];
    matmul_into(a, b, m, k, n, &mut naive);
    let packed = pack_a(a, m, k);
    let mut pack_buf = Vec::new();
    let mut out = vec![f32::NAN; m * n];
    matmul_packed_into(&packed, b, n, &mut pack_buf, &mut out);
    assert_eq!(
        bits(&out),
        bits(&naive),
        "packed GEMM diverged from naive at m={m} k={k} n={n}"
    );
}

fn lcg_data(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 8) as f32 / (1 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact equality on small odd shapes: every m, k, n remainder path.
    #[test]
    fn packed_matches_naive_odd_shapes(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in any::<u32>(),
    ) {
        let a = lcg_data(m * k, seed);
        let b = lcg_data(k * n, seed.wrapping_add(17));
        assert_packed_matches_naive(&a, &b, m, k, n);
    }

    /// A reused pack buffer never leaks state between differently shaped
    /// multiplications.
    #[test]
    fn pack_buf_reuse_is_stateless(
        m1 in 1usize..24, k1 in 1usize..24, n1 in 1usize..24,
        m2 in 1usize..24, k2 in 1usize..24, n2 in 1usize..24,
        seed in any::<u32>(),
    ) {
        let mut pack_buf = Vec::new();
        for (m, k, n, s) in [(m1, k1, n1, seed), (m2, k2, n2, seed ^ 0xabcd)] {
            let a = lcg_data(m * k, s);
            let b = lcg_data(k * n, s.wrapping_add(3));
            let mut naive = vec![0.0; m * n];
            matmul_into(&a, &b, m, k, n, &mut naive);
            let packed = pack_a(&a, m, k);
            let mut out = vec![0.0; m * n];
            matmul_packed_into(&packed, &b, n, &mut pack_buf, &mut out);
            prop_assert_eq!(bits(&out), bits(&naive));
        }
    }
}

/// Shapes that cross every cache-block boundary (k > KC forces multi-slab
/// accumulation with the C-tile round trip; m > MC, n > NC exercise the
/// outer blocking loops). Deterministic, one case each — these are the
/// shapes proptest's small ranges cannot reach.
#[test]
fn packed_matches_naive_across_block_boundaries() {
    for (m, k, n) in [
        (MC + 3, KC + 7, NC + 5),
        (2 * MR + 1, 2 * KC + 1, NR + 1),
        (1, KC + 1, 1),
        (MC, KC, NC),
    ] {
        let a = lcg_data(m * k, (m * 31 + k * 7 + n) as u32);
        let b = lcg_data(k * n, (m + k + n * 13) as u32);
        assert_packed_matches_naive(&a, &b, m, k, n);
    }
}

/// The degenerate k = 0 product is the zero matrix on both paths.
#[test]
fn packed_handles_empty_k() {
    let packed = pack_a(&[], 3, 0);
    let mut out = vec![f32::NAN; 6];
    matmul_packed_into(&packed, &[], 2, &mut Vec::new(), &mut out);
    assert!(out.iter().all(|&x| x == 0.0));
}
