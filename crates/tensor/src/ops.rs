//! Numeric kernels: matrix multiplication, im2col/col2im convolution
//! lowering, and pooling.
//!
//! All image tensors use the NCHW layout: `[batch, channels, height, width]`.
//!
//! Every hot kernel comes in two forms: a slice-based `_into` primitive
//! that writes into a caller-provided buffer (allocation-free, used by the
//! inference workspace in `oppsla-nn`), and an allocating [`Tensor`]
//! wrapper that performs shape checks and delegates. The `_into` variants
//! perform the exact same arithmetic in the exact same order, so both
//! paths produce bit-identical results.

use crate::gemm;
use crate::Tensor;

/// Matrix product `A · B` into `out` for `A: [m, k]`, `B: [k, n]`,
/// `out: [m, n]`. Overwrites `out`.
///
/// # Panics
///
/// Panics if a slice length disagrees with the given dimensions.
pub fn matmul_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_into lhs length");
    assert_eq!(b.len(), k * n, "matmul_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_into out length");
    out.fill(0.0);
    // ikj loop order keeps the innermost loop contiguous in both B and out
    // so it auto-vectorizes; A entries are dense weights, so no zero-skip.
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Matrix product `A · B` for `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dimensions disagree: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    matmul_into(a.data(), b.data(), m, k, n, &mut out);
    Tensor::from_vec([m, n], out)
}

/// Matrix product `Aᵀ · B` into `out` for `A: [k, m]`, `B: [k, n]`,
/// `out: [m, n]`, without materializing the transpose. Overwrites `out`.
///
/// # Panics
///
/// Panics if a slice length disagrees with the given dimensions.
pub fn matmul_tn_into(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "matmul_tn_into lhs length");
    assert_eq!(b.len(), k * n, "matmul_tn_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_tn_into out length");
    out.fill(0.0);
    // No zero-skip on A entries: they are dense trained weights (or dense
    // upstream gradients), so a `== 0.0` test is a per-element branch the
    // predictor almost never wins — there is no sparsity to exploit.
    for kk in 0..k {
        let arow = &a[kk * m..(kk + 1) * m];
        let brow = &b[kk * n..(kk + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Matrix product `Aᵀ · B` for `A: [k, m]`, `B: [k, n]` without materializing
/// the transpose.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the shared dimension disagrees.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_tn lhs");
    let (k2, n) = dims2(b, "matmul_tn rhs");
    assert_eq!(k, k2, "matmul_tn shared dimensions disagree: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    matmul_tn_into(a.data(), b.data(), k, m, n, &mut out);
    Tensor::from_vec([m, n], out)
}

/// Matrix product `A · Bᵀ` into `out` for `A: [m, k]`, `B: [n, k]`,
/// `out: [m, n]`, without materializing the transpose. Overwrites `out`.
///
/// # Panics
///
/// Panics if a slice length disagrees with the given dimensions.
pub fn matmul_nt_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_nt_into lhs length");
    assert_eq!(b.len(), n * k, "matmul_nt_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_nt_into out length");
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
}

/// Matrix product `A · Bᵀ` for `A: [m, k]`, `B: [n, k]` without materializing
/// the transpose.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the shared dimension disagrees.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_nt lhs");
    let (n, k2) = dims2(b, "matmul_nt rhs");
    assert_eq!(k, k2, "matmul_nt shared dimensions disagree: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    matmul_nt_into(a.data(), b.data(), m, k, n, &mut out);
    Tensor::from_vec([m, n], out)
}

/// Geometry of a 2-D convolution or pooling window sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Symmetric zero padding in both directions.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Output height after the sweep.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_h(&self) -> usize {
        sweep_extent(self.in_h, self.kernel_h, self.stride, self.padding)
    }

    /// Output width after the sweep.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_w(&self) -> usize {
        sweep_extent(self.in_w, self.kernel_w, self.stride, self.padding)
    }
}

fn sweep_extent(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    let padded = input + 2 * padding;
    assert!(
        padded >= kernel,
        "kernel extent {kernel} larger than padded input {padded}"
    );
    (padded - kernel) / stride + 1
}

/// A half-open spatial rectangle `[y0, y1) × [x0, x1)`, used by the
/// region-restricted kernels to recompute only a dirty window of an
/// activation plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// First row (inclusive).
    pub y0: usize,
    /// Past-the-end row.
    pub y1: usize,
    /// First column (inclusive).
    pub x0: usize,
    /// Past-the-end column.
    pub x1: usize,
}

impl Rect {
    /// The full `[0, h) × [0, w)` extent.
    pub fn full(h: usize, w: usize) -> Self {
        Rect {
            y0: 0,
            y1: h,
            x0: 0,
            x1: w,
        }
    }

    /// True when the rectangle contains no cells.
    pub fn is_empty(&self) -> bool {
        self.y0 >= self.y1 || self.x0 >= self.x1
    }

    /// True when the rectangle covers all of `[0, h) × [0, w)`.
    pub fn covers(&self, h: usize, w: usize) -> bool {
        self.y0 == 0 && self.x0 == 0 && self.y1 >= h && self.x1 >= w
    }

    /// The bounding box of two rectangles (the smallest rectangle
    /// containing both) — the conservative union used by dirty-region
    /// propagation.
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            y0: self.y0.min(other.y0),
            y1: self.y1.max(other.y1),
            x0: self.x0.min(other.x0),
            x1: self.x1.max(other.x1),
        }
    }
}

/// Direct (im2col-free) convolution of an output sub-rectangle: recomputes
/// `out[oc, oy, ox]` for every `(oy, ox)` in `rect`, leaving all other
/// output cells untouched. `weight` is the flattened kernel bank
/// `[out_c, c·kh·kw]`, `bias` is `[out_c]`, and `out` is the full
/// `[out_c, oh, ow]` buffer.
///
/// Each output element is accumulated in the exact tap order of the
/// im2col row layout (`(ch, ky, kx)`-major) with the bias added last, and
/// out-of-bounds (zero-padding) taps are skipped. Skipping is bit-exact:
/// in IEEE-754 round-to-nearest an accumulator seeded with `+0.0` can
/// never become `-0.0`, so adding `w · 0.0 = ±0.0` is always the
/// identity. Results therefore match the im2col + [`matmul_into`] +
/// bias-broadcast pipeline bit for bit (asserted in tests).
///
/// # Panics
///
/// Panics if a slice length disagrees with `geom` or the rectangle
/// exceeds the output extents.
pub fn conv2d_region_into(
    image: &[f32],
    weight: &[f32],
    bias: &[f32],
    geom: &Conv2dGeometry,
    out_c: usize,
    rect: Rect,
    out: &mut [f32],
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    assert_eq!(image.len(), c * h * w, "conv2d_region_into image length");
    let (kh, kw) = (geom.kernel_h, geom.kernel_w);
    let k = c * kh * kw;
    assert_eq!(weight.len(), out_c * k, "conv2d_region_into weight length");
    assert_eq!(bias.len(), out_c, "conv2d_region_into bias length");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    assert_eq!(out.len(), out_c * oh * ow, "conv2d_region_into out length");
    assert!(
        rect.y1 <= oh && rect.x1 <= ow,
        "rect {rect:?} exceeds output extents {oh}x{ow}"
    );
    if rect.is_empty() {
        return;
    }
    let (s, p) = (geom.stride, geom.padding);
    if s == 1 {
        // Stride 1: cells whose receptive fields are fully in bounds
        // (`oy, ox ∈ [p, extent + p - kernel + 1)`) have no per-tap
        // clamping at all, so the bulk of the rectangle runs the SIMD
        // interior-core kernel and only the padded edge strips take the
        // scalar reference path. Strips and core partition the rect, and
        // each cell computes the identical tap sequence either way.
        let yl = rect.y0.max(p);
        let yr = rect.y1.min((h + p).saturating_sub(kh - 1));
        let xl = rect.x0.max(p);
        let xr = rect.x1.min((w + p).saturating_sub(kw - 1));
        if yl < yr && xl < xr {
            let level = gemm::active_level();
            for strip in [
                Rect {
                    y0: rect.y0,
                    y1: yl,
                    x0: rect.x0,
                    x1: rect.x1,
                },
                Rect {
                    y0: yr,
                    y1: rect.y1,
                    x0: rect.x0,
                    x1: rect.x1,
                },
                Rect {
                    y0: yl,
                    y1: yr,
                    x0: rect.x0,
                    x1: xl,
                },
                Rect {
                    y0: yl,
                    y1: yr,
                    x0: xr,
                    x1: rect.x1,
                },
            ] {
                if !strip.is_empty() {
                    conv2d_region_scalar(image, weight, bias, geom, out_c, strip, out);
                }
            }
            let span = xr - xl;
            for oy in yl..yr {
                gemm::conv_direct_core_into(
                    level,
                    image,
                    c,
                    h,
                    w,
                    kh,
                    kw,
                    weight,
                    out_c,
                    oy - p,
                    xl - p,
                    span,
                    &mut out[oy * ow + xl..],
                    oh * ow,
                );
                for (oc, &b) in bias[..out_c].iter().enumerate() {
                    let obase = (oc * oh + oy) * ow;
                    for o in &mut out[obase + xl..obase + xr] {
                        *o += b;
                    }
                }
            }
            return;
        }
    }
    conv2d_region_scalar(image, weight, bias, geom, out_c, rect, out);
}

/// The scalar reference path of [`conv2d_region_into`]: per-tap bounds
/// clamping, valid-span accumulation, bias last. Kept as the fallback
/// for strided convolutions, padded edge strips, and the
/// `OPPSLA_NO_SIMD` escape hatch — and as the semantics the SIMD
/// interior core is verified against.
fn conv2d_region_scalar(
    image: &[f32],
    weight: &[f32],
    bias: &[f32],
    geom: &Conv2dGeometry,
    out_c: usize,
    rect: Rect,
    out: &mut [f32],
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let (kh, kw) = (geom.kernel_h, geom.kernel_w);
    let k = c * kh * kw;
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (s, p) = (geom.stride, geom.padding);
    for oc in 0..out_c {
        let wrow = &weight[oc * k..(oc + 1) * k];
        for oy in rect.y0..rect.y1 {
            let obase = (oc * oh + oy) * ow;
            let orow = &mut out[obase + rect.x0..obase + rect.x1];
            orow.fill(0.0);
            for ch in 0..c {
                for ky in 0..kh {
                    let iy = (oy * s + ky) as isize - p as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let irow = &image[(ch * h + iy as usize) * w..(ch * h + iy as usize + 1) * w];
                    for kx in 0..kw {
                        if kx >= w + p {
                            continue;
                        }
                        let wt = wrow[(ch * kh + ky) * kw + kx];
                        // Valid columns: 0 <= ox·s + kx − p < w, clamped
                        // to the requested rectangle.
                        let lo = if p > kx { (p - kx).div_ceil(s) } else { 0 }.max(rect.x0);
                        let hi = (w + p - kx).div_ceil(s).min(rect.x1);
                        if lo >= hi {
                            continue;
                        }
                        let ibase = lo * s + kx - p;
                        if s == 1 {
                            for (o, &x) in orow[lo - rect.x0..hi - rect.x0]
                                .iter_mut()
                                .zip(&irow[ibase..ibase + (hi - lo)])
                            {
                                *o += wt * x;
                            }
                        } else {
                            for (i, o) in orow[lo - rect.x0..hi - rect.x0].iter_mut().enumerate() {
                                *o += wt * irow[ibase + i * s];
                            }
                        }
                    }
                }
            }
            let b = bias[oc];
            for o in orow.iter_mut() {
                *o += b;
            }
        }
    }
}

/// Unfolds one NCHW image `[c, h, w]` (as a flat slice) into a
/// `[c·kh·kw, oh·ow]` column matrix written into `out`. Overwrites `out`;
/// padding positions are zero-filled.
///
/// # Panics
///
/// Panics if a slice length disagrees with `geom`.
pub fn im2col_into(image: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    assert_eq!(image.len(), c * h * w, "im2col_into image length");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = oh * ow;
    assert_eq!(out.len(), rows * cols, "im2col_into out length");
    // Zero-fill first so out-of-bounds (padding) taps stay zero.
    out.fill(0.0);
    let (s, p) = (geom.stride, geom.padding);
    for ch in 0..c {
        for ky in 0..geom.kernel_h {
            for kx in 0..geom.kernel_w {
                let row = (ch * geom.kernel_h + ky) * geom.kernel_w + kx;
                for oy in 0..oh {
                    let iy = (oy * s + ky) as isize - p as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let irow = &image[(ch * h + iy as usize) * w..(ch * h + iy as usize + 1) * w];
                    let orow = &mut out[row * cols + oy * ow..row * cols + (oy + 1) * ow];
                    if s == 1 {
                        // Stride 1: `ix = ox + kx - p` walks in lockstep
                        // with `ox`, so the in-bounds span is one copy.
                        let lo = (p as isize - kx as isize).clamp(0, ow as isize) as usize;
                        let hi =
                            (w as isize + p as isize - kx as isize).clamp(0, ow as isize) as usize;
                        if lo < hi {
                            let src = (lo + kx) as isize - p as isize;
                            orow[lo..hi]
                                .copy_from_slice(&irow[src as usize..src as usize + hi - lo]);
                        }
                    } else {
                        for (ox, o) in orow.iter_mut().enumerate() {
                            let ix = (ox * s + kx) as isize - p as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            *o = irow[ix as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Unfolds one NCHW image `[c, h, w]` into a `[c·kh·kw, oh·ow]` column
/// matrix so convolution lowers to a matrix product.
///
/// # Panics
///
/// Panics if `image` is not rank 3 or disagrees with `geom`.
pub fn im2col(image: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    assert_eq!(image.shape().rank(), 3, "im2col expects a [c,h,w] tensor");
    let (c, h, w) = (
        image.shape().dim(0),
        image.shape().dim(1),
        image.shape().dim(2),
    );
    assert_eq!((c, h, w), (geom.in_channels, geom.in_h, geom.in_w));
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = geom.out_h() * geom.out_w();
    let mut out = vec![0.0f32; rows * cols];
    im2col_into(image.data(), geom, &mut out);
    Tensor::from_vec([rows, cols], out)
}

/// Folds a `[c·kh·kw, oh·ow]` column matrix back into a `[c, h, w]` image,
/// accumulating overlapping contributions. This is the adjoint of [`im2col`]
/// and is used in the convolution backward pass.
///
/// # Panics
///
/// Panics if `cols` disagrees with `geom`.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let rows = geom.in_channels * geom.kernel_h * geom.kernel_w;
    assert_eq!(
        cols.shape().dims(),
        &[rows, oh * ow],
        "col2im input shape disagrees with geometry"
    );
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let mut out = vec![0.0f32; c * h * w];
    let data = cols.data();
    for ch in 0..c {
        for ky in 0..geom.kernel_h {
            for kx in 0..geom.kernel_w {
                let row = (ch * geom.kernel_h + ky) * geom.kernel_w + kx;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        out[(ch * h + iy as usize) * w + ix as usize] +=
                            data[row * (oh * ow) + oy * ow + ox];
                    }
                }
            }
        }
    }
    Tensor::from_vec([c, h, w], out)
}

/// Result of a max-pool forward pass: pooled values plus the flat source
/// index of every winner, needed for the backward scatter.
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled `[n, c, oh, ow]` tensor.
    pub output: Tensor,
    /// For each output element, the flat index into the input that won.
    pub argmax: Vec<usize>,
}

/// Square max pooling (stride = window) over `channels` planes of `h`×`w`,
/// written into `out`. Batched input is handled by passing `n·c` as
/// `channels`. `argmax`, when given, receives the flat winner index per
/// output element (needed only by the training backward pass).
///
/// # Panics
///
/// Panics if a slice length disagrees with the given dimensions or the
/// window does not divide a spatial extent.
pub fn max_pool2d_into(
    input: &[f32],
    channels: usize,
    h: usize,
    w: usize,
    window: usize,
    out: &mut [f32],
    mut argmax: Option<&mut [usize]>,
) {
    assert!(
        h.is_multiple_of(window) && w.is_multiple_of(window),
        "pool window {window} does not divide spatial extent {h}x{w}"
    );
    assert_eq!(
        input.len(),
        channels * h * w,
        "max_pool2d_into input length"
    );
    let (oh, ow) = (h / window, w / window);
    assert_eq!(out.len(), channels * oh * ow, "max_pool2d_into out length");
    if let Some(am) = argmax.as_deref() {
        assert_eq!(am.len(), out.len(), "max_pool2d_into argmax length");
    }
    for ch in 0..channels {
        let base = ch * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0;
                for dy in 0..window {
                    for dx in 0..window {
                        let idx = base + (oy * window + dy) * w + (ox * window + dx);
                        if input[idx] > best {
                            best = input[idx];
                            best_idx = idx;
                        }
                    }
                }
                let oidx = (ch * oh + oy) * ow + ox;
                out[oidx] = best;
                if let Some(am) = argmax.as_deref_mut() {
                    am[oidx] = best_idx;
                }
            }
        }
    }
}

/// Region-restricted square max pooling (stride = window): recomputes
/// `out[ch, oy, ox]` for every `(oy, ox)` in `rect` (output coordinates),
/// leaving all other output cells untouched. Same window scan order as
/// [`max_pool2d_into`], so recomputed cells are bit-identical.
///
/// # Panics
///
/// Panics if a slice length disagrees with the given dimensions, the
/// window does not divide a spatial extent, or the rectangle exceeds the
/// output extents.
pub fn max_pool2d_region_into(
    input: &[f32],
    channels: usize,
    h: usize,
    w: usize,
    window: usize,
    rect: Rect,
    out: &mut [f32],
) {
    assert!(
        h.is_multiple_of(window) && w.is_multiple_of(window),
        "pool window {window} does not divide spatial extent {h}x{w}"
    );
    assert_eq!(
        input.len(),
        channels * h * w,
        "max_pool2d_region_into input length"
    );
    let (oh, ow) = (h / window, w / window);
    assert_eq!(
        out.len(),
        channels * oh * ow,
        "max_pool2d_region_into out length"
    );
    assert!(
        rect.y1 <= oh && rect.x1 <= ow,
        "rect {rect:?} exceeds output extents {oh}x{ow}"
    );
    if rect.is_empty() {
        return;
    }
    if window == 2 {
        // The ubiquitous 2×2 case: hoist the two input rows per output
        // row and unroll the window so the per-cell cost is four loads
        // and three compares, not re-derived index arithmetic. Same
        // scan order and strict-greater update as the generic loop, so
        // recomputed cells stay bit-identical (including NaN handling).
        for ch in 0..channels {
            let base = ch * h * w;
            for oy in rect.y0..rect.y1 {
                let r0 = &input[base + 2 * oy * w..base + 2 * oy * w + w];
                let r1 = &input[base + (2 * oy + 1) * w..base + (2 * oy + 1) * w + w];
                let orow = &mut out[(ch * oh + oy) * ow..(ch * oh + oy + 1) * ow];
                for (o, ox) in orow[rect.x0..rect.x1].iter_mut().zip(rect.x0..) {
                    let x = 2 * ox;
                    let mut best = f32::NEG_INFINITY;
                    for v in [r0[x], r0[x + 1], r1[x], r1[x + 1]] {
                        if v > best {
                            best = v;
                        }
                    }
                    *o = best;
                }
            }
        }
        return;
    }
    for ch in 0..channels {
        let base = ch * h * w;
        for oy in rect.y0..rect.y1 {
            for ox in rect.x0..rect.x1 {
                let mut best = f32::NEG_INFINITY;
                for dy in 0..window {
                    for dx in 0..window {
                        let v = input[base + (oy * window + dy) * w + (ox * window + dx)];
                        if v > best {
                            best = v;
                        }
                    }
                }
                out[(ch * oh + oy) * ow + ox] = best;
            }
        }
    }
}

/// 2×2 (or general square) max pooling with stride equal to the window size.
///
/// # Panics
///
/// Panics if `input` is not rank 4 or a spatial extent is not divisible by
/// `window`.
pub fn max_pool2d(input: &Tensor, window: usize) -> MaxPoolOutput {
    let (n, c, h, w) = dims4(input, "max_pool2d");
    assert!(
        h.is_multiple_of(window) && w.is_multiple_of(window),
        "pool window {window} does not divide spatial extent {h}x{w}"
    );
    let (oh, ow) = (h / window, w / window);
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut argmax = vec![0usize; out.len()];
    // Flat winner indices from the batched call match the per-tensor ones
    // because `channels = n·c` preserves the flat NCHW layout.
    max_pool2d_into(
        input.data(),
        n * c,
        h,
        w,
        window,
        &mut out,
        Some(&mut argmax),
    );
    MaxPoolOutput {
        output: Tensor::from_vec([n, c, oh, ow], out),
        argmax,
    }
}

/// Scatters output gradients back through a max pool recorded by
/// [`max_pool2d`].
///
/// # Panics
///
/// Panics if `grad_out` does not have one gradient per recorded winner.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    argmax: &[usize],
    input_shape: &crate::Shape,
) -> Tensor {
    assert_eq!(
        grad_out.numel(),
        argmax.len(),
        "gradient count {} does not match pooled element count {}",
        grad_out.numel(),
        argmax.len()
    );
    let mut grad_in = Tensor::zeros(input_shape.clone());
    let gi = grad_in.data_mut();
    for (&g, &src) in grad_out.data().iter().zip(argmax.iter()) {
        gi[src] += g;
    }
    grad_in
}

/// Global average pooling over `channels` planes of `h`×`w`, written into
/// `out` (one mean per plane). Batched input passes `n·c` as `channels`.
///
/// # Panics
///
/// Panics if a slice length disagrees with the given dimensions.
pub fn global_avg_pool_into(input: &[f32], channels: usize, h: usize, w: usize, out: &mut [f32]) {
    assert_eq!(
        input.len(),
        channels * h * w,
        "global_avg_pool_into input length"
    );
    assert_eq!(out.len(), channels, "global_avg_pool_into out length");
    let area = (h * w) as f32;
    for (ch, o) in out.iter_mut().enumerate() {
        let base = ch * h * w;
        *o = input[base..base + h * w].iter().sum::<f32>() / area;
    }
}

/// Global average pooling: `[n, c, h, w] → [n, c]`.
///
/// # Panics
///
/// Panics if `input` is not rank 4.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let (n, c, h, w) = dims4(input, "global_avg_pool");
    let mut out = vec![0.0f32; n * c];
    global_avg_pool_into(input.data(), n * c, h, w, &mut out);
    Tensor::from_vec([n, c], out)
}

/// Backward pass of [`global_avg_pool`]: broadcasts each channel gradient
/// uniformly over its spatial extent.
///
/// # Panics
///
/// Panics if `grad_out` is not `[n, c]` matching `input_shape`.
pub fn global_avg_pool_backward(grad_out: &Tensor, input_shape: &crate::Shape) -> Tensor {
    assert_eq!(input_shape.rank(), 4);
    let (n, c, h, w) = (
        input_shape.dim(0),
        input_shape.dim(1),
        input_shape.dim(2),
        input_shape.dim(3),
    );
    assert_eq!(grad_out.shape().dims(), &[n, c]);
    let area = (h * w) as f32;
    let mut grad_in = Tensor::zeros(input_shape.clone());
    let gi = grad_in.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let g = grad_out.data()[img * c + ch] / area;
            let base = (img * c + ch) * h * w;
            for v in &mut gi[base..base + h * w] {
                *v = g;
            }
        }
    }
    grad_in
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "{what} expects a rank-2 tensor, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

fn dims4(t: &Tensor, what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.shape().rank(),
        4,
        "{what} expects a rank-4 tensor, got {}",
        t.shape()
    );
    (
        t.shape().dim(0),
        t.shape().dim(1),
        t.shape().dim(2),
        t.shape().dim(3),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec([3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec([3, 2], vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let b = Tensor::from_vec([3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul_tn(&a, &b);
        // aᵀ = [[1,2,3],[4,5,6]]
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec([2, 3], vec![7.0, 9.0, 11.0, 8.0, 10.0, 12.0]);
        let c = matmul_nt(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn conv_geometry_same_padding() {
        let g = Conv2dGeometry {
            in_channels: 3,
            in_h: 32,
            in_w: 32,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, no padding: im2col is just a reshape.
        let img = Tensor::from_fn([2, 2, 2], |i| i as f32);
        let g = Conv2dGeometry {
            in_channels: 2,
            in_h: 2,
            in_w: 2,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            padding: 0,
        };
        let cols = im2col(&img, &g);
        assert_eq!(cols.shape().dims(), &[2, 4]);
        assert_eq!(cols.data(), img.data());
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let img = Tensor::ones([1, 1, 1]);
        let g = Conv2dGeometry {
            in_channels: 1,
            in_h: 1,
            in_w: 1,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let cols = im2col(&img, &g);
        assert_eq!(cols.shape().dims(), &[9, 1]);
        // Only the kernel center overlaps the single real pixel.
        assert_eq!(cols.sum(), 1.0);
        assert_eq!(cols.data()[4], 1.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let g = Conv2dGeometry {
            in_channels: 2,
            in_h: 4,
            in_w: 4,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let x = Tensor::from_fn([2, 4, 4], |i| (i as f32 * 0.37).sin());
        let rows = 2 * 9;
        let cols_n = g.out_h() * g.out_w();
        let y = Tensor::from_fn([rows, cols_n], |i| (i as f32 * 0.11).cos());
        let ax = im2col(&x, &g);
        let aty = col2im(&y, &g);
        let lhs: f32 = ax.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(aty.data()).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-3,
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn max_pool_picks_window_maxima() {
        let img = Tensor::from_vec([1, 1, 2, 4], vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, -1.0, 9.0]);
        let pooled = max_pool2d(&img, 2);
        assert_eq!(pooled.output.data(), &[5.0, 9.0]);
        assert_eq!(pooled.argmax, vec![1, 7]);
    }

    #[test]
    fn max_pool_backward_scatters_to_winners() {
        let img = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let pooled = max_pool2d(&img, 2);
        let grad = Tensor::from_vec([1, 1, 1, 1], vec![10.0]);
        let gi = max_pool2d_backward(&grad, &pooled.argmax, img.shape());
        assert_eq!(gi.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let a = Tensor::from_fn([4, 3], |i| (i as f32 * 0.7).sin());
        let b = Tensor::from_fn([3, 5], |i| (i as f32 * 0.3).cos());
        let mut out = vec![f32::NAN; 4 * 5];
        matmul_into(a.data(), b.data(), 4, 3, 5, &mut out);
        assert_eq!(out, matmul(&a, &b).data());

        let at = Tensor::from_fn([3, 4], |i| (i as f32 * 0.7).sin());
        matmul_tn_into(at.data(), b.data(), 3, 4, 5, &mut out);
        assert_eq!(out, matmul_tn(&at, &b).data());

        let bt = Tensor::from_fn([5, 3], |i| (i as f32 * 0.3).cos());
        matmul_nt_into(a.data(), bt.data(), 4, 3, 5, &mut out);
        assert_eq!(out, matmul_nt(&a, &bt).data());
    }

    #[test]
    fn im2col_into_zero_fills_padding_in_reused_buffer() {
        let img = Tensor::from_fn([2, 4, 4], |i| (i as f32 * 0.37).sin());
        let g = Conv2dGeometry {
            in_channels: 2,
            in_h: 4,
            in_w: 4,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let expected = im2col(&img, &g);
        // Poison the buffer to prove padding positions are re-zeroed.
        let mut out = vec![f32::NAN; expected.numel()];
        im2col_into(img.data(), &g, &mut out);
        assert_eq!(out, expected.data());
    }

    #[test]
    fn pooling_into_matches_allocating_kernels() {
        let img = Tensor::from_fn([2, 3, 4, 4], |i| (i as f32 * 0.51).sin());
        let pooled = max_pool2d(&img, 2);
        let mut out = vec![f32::NAN; pooled.output.numel()];
        let mut argmax = vec![0usize; out.len()];
        max_pool2d_into(img.data(), 6, 4, 4, 2, &mut out, Some(&mut argmax));
        assert_eq!(out, pooled.output.data());
        assert_eq!(argmax, pooled.argmax);
        // The argmax-free form is what inference uses.
        max_pool2d_into(img.data(), 6, 4, 4, 2, &mut out, None);
        assert_eq!(out, pooled.output.data());

        let gap = global_avg_pool(&img);
        let mut gout = vec![f32::NAN; 6];
        global_avg_pool_into(img.data(), 6, 4, 4, &mut gout);
        assert_eq!(gout, gap.data());
    }

    /// The full engine's conv pipeline: im2col, matmul, bias broadcast.
    fn conv_via_im2col(
        image: &[f32],
        weight: &[f32],
        bias: &[f32],
        geom: &Conv2dGeometry,
        out_c: usize,
    ) -> Vec<f32> {
        let k = geom.in_channels * geom.kernel_h * geom.kernel_w;
        let area = geom.out_h() * geom.out_w();
        let mut cols = vec![0.0f32; k * area];
        im2col_into(image, geom, &mut cols);
        let mut out = vec![0.0f32; out_c * area];
        matmul_into(weight, &cols, out_c, k, area, &mut out);
        for oc in 0..out_c {
            let b = bias[oc];
            for v in &mut out[oc * area..(oc + 1) * area] {
                *v += b;
            }
        }
        out
    }

    #[test]
    fn conv_region_full_rect_is_bit_identical_to_im2col_pipeline() {
        for (kernel, padding, stride) in [(3, 1, 1), (5, 2, 1), (1, 0, 1), (3, 0, 2), (3, 2, 1)] {
            let geom = Conv2dGeometry {
                in_channels: 3,
                in_h: 8,
                in_w: 8,
                kernel_h: kernel,
                kernel_w: kernel,
                stride,
                padding,
            };
            let out_c = 4;
            let image: Vec<f32> = (0..3 * 8 * 8).map(|i| (i as f32 * 0.37).sin()).collect();
            let k = 3 * kernel * kernel;
            let weight: Vec<f32> = (0..out_c * k).map(|i| (i as f32 * 0.19).cos()).collect();
            let bias: Vec<f32> = (0..out_c).map(|i| i as f32 * 0.3 - 0.5).collect();
            let expected = conv_via_im2col(&image, &weight, &bias, &geom, out_c);
            let mut out = vec![f32::NAN; expected.len()];
            let full = Rect::full(geom.out_h(), geom.out_w());
            conv2d_region_into(&image, &weight, &bias, &geom, out_c, full, &mut out);
            assert_eq!(out, expected, "k={kernel} p={padding} s={stride}");
        }
    }

    #[test]
    fn conv_region_partial_rect_updates_only_the_window() {
        let geom = Conv2dGeometry {
            in_channels: 2,
            in_h: 6,
            in_w: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let out_c = 3;
        let image: Vec<f32> = (0..2 * 36).map(|i| (i as f32 * 0.51).sin()).collect();
        let weight: Vec<f32> = (0..out_c * 18).map(|i| (i as f32 * 0.23).cos()).collect();
        let bias = vec![0.1, -0.2, 0.3];
        let expected = conv_via_im2col(&image, &weight, &bias, &geom, out_c);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let rect = Rect {
            y0: 1,
            y1: 4,
            x0: 2,
            x1: 5,
        };
        let mut out = vec![f32::NAN; expected.len()];
        conv2d_region_into(&image, &weight, &bias, &geom, out_c, rect, &mut out);
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let idx = (oc * oh + oy) * ow + ox;
                    let inside = oy >= rect.y0 && oy < rect.y1 && ox >= rect.x0 && ox < rect.x1;
                    if inside {
                        assert_eq!(out[idx], expected[idx], "({oc},{oy},{ox})");
                    } else {
                        assert!(out[idx].is_nan(), "({oc},{oy},{ox}) was touched");
                    }
                }
            }
        }
    }

    #[test]
    fn pool_region_matches_full_pool() {
        let input: Vec<f32> = (0..3 * 8 * 8).map(|i| (i as f32 * 0.71).sin()).collect();
        let mut expected = vec![0.0f32; 3 * 16];
        max_pool2d_into(&input, 3, 8, 8, 2, &mut expected, None);

        let mut out = vec![f32::NAN; expected.len()];
        max_pool2d_region_into(&input, 3, 8, 8, 2, Rect::full(4, 4), &mut out);
        assert_eq!(out, expected);

        let rect = Rect {
            y0: 1,
            y1: 3,
            x0: 0,
            x1: 2,
        };
        let mut partial = vec![f32::NAN; expected.len()];
        max_pool2d_region_into(&input, 3, 8, 8, 2, rect, &mut partial);
        for ch in 0..3 {
            for oy in 0..4 {
                for ox in 0..4 {
                    let idx = (ch * 4 + oy) * 4 + ox;
                    if (1..3).contains(&oy) && ox < 2 {
                        assert_eq!(partial[idx], expected[idx]);
                    } else {
                        assert!(partial[idx].is_nan());
                    }
                }
            }
        }
    }

    #[test]
    fn rect_union_and_covers() {
        let a = Rect {
            y0: 1,
            y1: 3,
            x0: 2,
            x1: 4,
        };
        let b = Rect {
            y0: 2,
            y1: 5,
            x0: 0,
            x1: 3,
        };
        assert_eq!(
            a.union(&b),
            Rect {
                y0: 1,
                y1: 5,
                x0: 0,
                x1: 4
            }
        );
        let empty = Rect {
            y0: 2,
            y1: 2,
            x0: 0,
            x1: 4,
        };
        assert!(empty.is_empty());
        assert_eq!(empty.union(&a), a);
        assert_eq!(a.union(&empty), a);
        assert!(Rect::full(5, 7).covers(5, 7));
        assert!(!a.covers(5, 7));
    }

    #[test]
    fn global_avg_pool_and_backward() {
        let img = Tensor::from_vec([1, 2, 1, 2], vec![1.0, 3.0, 10.0, 20.0]);
        let pooled = global_avg_pool(&img);
        assert_eq!(pooled.data(), &[2.0, 15.0]);
        let grad = Tensor::from_vec([1, 2], vec![4.0, 8.0]);
        let gi = global_avg_pool_backward(&grad, img.shape());
        assert_eq!(gi.data(), &[2.0, 2.0, 4.0, 4.0]);
    }
}
