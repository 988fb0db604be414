//! The dispatch half of the kernels' determinism contract: every SIMD
//! level the host can detect produces output **bit-identical** to the
//! naive reference — exact `to_bits` equality across ragged shapes, so
//! lane tails, partial tiles and clipped convolution windows are all
//! exercised.

use oppsla_tensor::gemm::{
    available_levels, conv2d_region_batch_into_with, linear_nt_rows_into_with, ConvLanes,
};
use oppsla_tensor::ops::{matmul_nt_into, Conv2dGeometry, Rect};
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The row-tiled Linear kernel matches the naive row-major-weights
    /// kernel bit-for-bit at every detected ISA level, for every row count
    /// up to two full row tiles plus a remainder and across ragged widths
    /// (three-, two- and one-register blocks and the column tail).
    #[test]
    fn linear_kernel_matches_naive(
        m in 0usize..=9,
        k in 1usize..96,
        n in 1usize..130,
        seed in any::<u32>(),
    ) {
        let x = lcg_data(m * k, seed); // [m, k] row-major
        let w = lcg_data(n * k, seed.wrapping_add(71)); // [n, k] row-major
        let mut wt = vec![0.0f32; k * n]; // [k, n]: the plan-compiled layout
        for j in 0..n {
            for kk in 0..k {
                wt[kk * n + j] = w[j * k + kk];
            }
        }
        let rows: Vec<&[f32]> = x.chunks_exact(k).collect();
        let mut naive = vec![f32::NAN; m * n];
        matmul_nt_into(&x, &w, m, k, n, &mut naive);
        for level in available_levels() {
            let mut out = vec![f32::NAN; m * n];
            linear_nt_rows_into_with(level, &rows, &wt, k, n, &mut out);
            prop_assert_eq!(
                bits(&out),
                bits(&naive),
                "Linear kernel diverged from naive at level={} m={} k={} n={}",
                level.as_str(), m, k, n
            );
        }
    }
}

/// The batched region kernel's reference: each output cell of `rect`
/// accumulates from `0.0` over its in-bounds taps in `(ch, ky, kx)` order,
/// `w · x` per tap, then adds its bias; out-of-bounds taps are skipped.
fn naive_region(
    image: &[f32],
    weight: &[f32],
    bias: &[f32],
    geom: &Conv2dGeometry,
    rect: Rect,
    out: &mut [f32],
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let (kh, kw, s, p) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    for (oc, wrow) in weight.chunks_exact(c * kh * kw).enumerate() {
        for oy in rect.y0..rect.y1 {
            for ox in rect.x0..rect.x1 {
                let mut acc = 0.0f32;
                for ch in 0..c {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let (iy, ix) = (oy * s + ky, ox * s + kx);
                            if iy < p || iy - p >= h || ix < p || ix - p >= w {
                                continue;
                            }
                            let x = image[(ch * h + iy - p) * w + ix - p];
                            acc += wrow[(ch * kh + ky) * kw + kx] * x;
                        }
                    }
                }
                out[(oc * oh + oy) * ow + ox] = acc + bias[oc];
            }
        }
    }
}

/// One candidate rectangle per kind: the full extent, one touching the
/// top and left edges, one touching the bottom and right edges, and one
/// anywhere. `r` supplies the corners.
fn kind_rect(kind: usize, oh: usize, ow: usize, r: &mut impl FnMut(usize) -> usize) -> Rect {
    match kind % 4 {
        0 => Rect::full(oh, ow),
        1 => Rect {
            y0: 0,
            y1: 1 + r(oh),
            x0: 0,
            x1: 1 + r(ow),
        },
        2 => Rect {
            y0: r(oh),
            y1: oh,
            x0: r(ow),
            x1: ow,
        },
        _ => {
            let (y0, x0) = (r(oh), r(ow));
            Rect {
                y0,
                y1: y0 + 1 + r(oh - y0),
                x0,
                x1: x0 + 1 + r(ow - x0),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched region-conv kernel writes, at every detected ISA level
    /// and bit for bit, what the scalar reference writes: the rectangle's
    /// cells of each candidate, and nothing else. Channel counts cross the
    /// 4/8/16-lane register widths and the 16-lane padding, rectangles
    /// touch every edge (clipped tap windows), and several candidates per
    /// call make tiles span candidates.
    #[test]
    fn region_conv_kernel_matches_reference(
        in_c in 1usize..=20,
        out_c in 1usize..=33,
        kernel_pick in 0usize..3,
        pad_pick in 0usize..=2,
        stride in 1usize..=2,
        h in 1usize..=20,
        w in 1usize..=20,
        cands in 1usize..=5,
        seed in any::<u32>(),
    ) {
        let kernel = [1, 3, 5][kernel_pick];
        let padding = pad_pick % (kernel / 2 + 1);
        prop_assume!(h + 2 * padding >= kernel && w + 2 * padding >= kernel);
        let geom = Conv2dGeometry {
            in_channels: in_c,
            in_h: h,
            in_w: w,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        };
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let k = in_c * kernel * kernel;
        let weight = lcg_data(out_c * k, seed);
        let bias = lcg_data(out_c, seed.wrapping_add(3));
        let lanes = ConvLanes::new(&weight, &bias, out_c, k);
        let mut state = seed;
        let mut r = |n: usize| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as usize % n
        };
        let images: Vec<Vec<f32>> = (0..cands)
            .map(|i| lcg_data(in_c * h * w, seed.wrapping_add(11 + i as u32)))
            .collect();
        let rects: Vec<Rect> = (0..cands)
            .map(|i| kind_rect(i + seed as usize, oh, ow, &mut r))
            .collect();
        // Untouched cells must keep this sentinel.
        let blank = vec![f32::from_bits(0x7fc0_1234); out_c * oh * ow];
        let mut want = vec![blank.clone(); cands];
        for ((image, &rect), out) in images.iter().zip(&rects).zip(want.iter_mut()) {
            naive_region(image, &weight, &bias, &geom, rect, out);
        }
        for level in available_levels() {
            let mut got = vec![blank.clone(); cands];
            let jobs = images
                .iter()
                .zip(&rects)
                .zip(got.iter_mut())
                .map(|((image, &rect), out)| (image.as_slice(), rect, out.as_mut_slice()));
            conv2d_region_batch_into_with(level, &lanes, &geom, jobs);
            for (i, (g, wv)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    bits(g),
                    bits(wv),
                    "region kernel diverged at level={} candidate {} of {} rect={:?} {:?}",
                    level.as_str(), i, cands, rects[i], geom
                );
            }
        }
    }
}
