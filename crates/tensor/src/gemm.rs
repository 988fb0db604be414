//! SIMD kernels for the inference hot path: the fully connected product
//! ([`linear_nt_rows_into`]) and the convolution
//! ([`conv2d_region_batch_into`]), each dispatched at runtime to the
//! widest instruction set the host can execute.
//!
//! # Determinism contract
//!
//! Every kernel here is **bit-identical** to the naive arithmetic of
//! [`crate::ops`] that the autograd tape runs — not merely close. The
//! naive kernels give every output element the add sequence
//! `((0 + a·b)₀ + a·b)₁ …` in strictly ascending `k`, and the kernels here
//! keep that exact sequence: each accumulator starts from zero, takes its
//! terms in the same order with a separate multiply and add (Rust never
//! contracts to FMA), and the bias comes last. The SIMD lanes of a
//! register are independent output elements — columns of the fully
//! connected product, output channels of the convolution — so a lane runs
//! exactly the scalar recurrence: no horizontal reduction, no
//! reassociation. The speedup comes from register reuse across rows or
//! pixels, not from reordering a sum, so tests can (and do) assert exact
//! equality on every shape and at every level.
//!
//! # SIMD levels
//!
//! The widest level the CPU supports is picked once at runtime
//! ([`active_level`]; AVX-512F/AVX2/SSE2 on x86_64 via
//! `is_x86_feature_detected!`, NEON on aarch64, scalar anywhere else).
//! Setting `OPPSLA_NO_SIMD=1` in the environment pins the scalar kernels;
//! [`force_simd_level`] overrides the choice programmatically (tests,
//! benchmarks — safe at any time precisely because all levels agree
//! bit-for-bit).

use crate::ops::{Conv2dGeometry, Rect};
use std::sync::atomic::{AtomicU8, Ordering};

/// One ISA level of the kernels. Every level computes bit-identical
/// results (lane-wise vectorization preserves the scalar per-element
/// mul-then-add recurrence exactly); levels differ only in throughput.
/// Variants for other architectures exist everywhere so level names
/// serialize portably, but run the scalar kernels when the host cannot
/// execute them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimdLevel {
    /// Portable scalar loop (any architecture, and the `OPPSLA_NO_SIMD=1`
    /// escape hatch).
    Scalar,
    /// x86_64 SSE2: 4 f32 lanes (baseline on every x86_64).
    Sse2,
    /// x86_64 AVX2: 8 f32 lanes.
    Avx2,
    /// x86_64 AVX-512F: 16 f32 lanes — one register per tile row.
    Avx512,
    /// aarch64 NEON: 4 f32 lanes (baseline on every aarch64).
    Neon,
}

impl SimdLevel {
    /// Stable lower-case name for reports (`simd_isa` bench field).
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512f",
            SimdLevel::Neon => "neon",
        }
    }

    fn code(self) -> u8 {
        match self {
            SimdLevel::Scalar => 0,
            SimdLevel::Sse2 => 1,
            SimdLevel::Avx2 => 2,
            SimdLevel::Avx512 => 3,
            SimdLevel::Neon => 4,
        }
    }

    fn from_code(code: u8) -> SimdLevel {
        match code {
            1 => SimdLevel::Sse2,
            2 => SimdLevel::Avx2,
            3 => SimdLevel::Avx512,
            4 => SimdLevel::Neon,
            _ => SimdLevel::Scalar,
        }
    }
}

/// Every kernel level this host can execute, narrowest to widest.
/// Always starts with [`SimdLevel::Scalar`]; the last entry is the level
/// [`active_level`] picks unless overridden.
pub fn available_levels() -> Vec<SimdLevel> {
    #[allow(unused_mut)]
    let mut levels = vec![SimdLevel::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is part of the x86_64 baseline — no detection needed.
        levels.push(SimdLevel::Sse2);
        if std::arch::is_x86_feature_detected!("avx2") {
            levels.push(SimdLevel::Avx2);
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            levels.push(SimdLevel::Avx512);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is part of the aarch64 baseline.
        levels.push(SimdLevel::Neon);
    }
    levels
}

/// Whether `OPPSLA_NO_SIMD` disables SIMD. Recognized spellings: unset,
/// empty, `0`, `false` and `off` leave SIMD on; `1`, `true` and `on`
/// disable it. Anything else also disables SIMD (the conservative
/// fallback — the variable was set, so the user wanted *something*) but
/// returns a warning so a daemon operator sees the typo once on stderr.
/// Split out so the policy is unit-testable without mutating the process
/// environment.
pub(crate) fn no_simd_env(value: Option<&str>) -> (bool, Option<String>) {
    match value {
        None => (false, None),
        Some(v) => match v.to_ascii_lowercase().as_str() {
            "" | "0" | "false" | "off" => (false, None),
            "1" | "true" | "on" => (true, None),
            other => (
                true,
                Some(format!(
                    "OPPSLA_NO_SIMD={other:?} is not a recognized boolean \
                     (use 0/1); treating it as enabled and pinning the scalar kernel"
                )),
            ),
        },
    }
}

/// Every level name `OPPSLA_SIMD_LEVEL` accepts, for diagnostics.
const LEVEL_NAMES: &[&str] = &["scalar", "sse2", "avx2", "avx512f", "neon"];

/// Resolves `OPPSLA_SIMD_LEVEL` (a level name such as `avx2`) against the
/// host's available levels: the named level if the host can execute it,
/// otherwise the widest available. `None`/empty means no cap. A name this
/// host cannot execute or an unknown name falls back to the widest
/// available level and returns a warning describing the fallback. Split
/// out so the policy is unit-testable without mutating the environment.
pub(crate) fn level_cap_env(
    value: Option<&str>,
    available: &[SimdLevel],
) -> (SimdLevel, Option<String>) {
    let widest = *available.last().expect("scalar always available");
    match value {
        Some(name) if !name.is_empty() => {
            if let Some(level) = available.iter().copied().find(|l| l.as_str() == name) {
                (level, None)
            } else if LEVEL_NAMES.contains(&name) {
                (
                    widest,
                    Some(format!(
                        "OPPSLA_SIMD_LEVEL={name} is not executable on this host; \
                         falling back to the widest available level ({})",
                        widest.as_str()
                    )),
                )
            } else {
                (
                    widest,
                    Some(format!(
                        "OPPSLA_SIMD_LEVEL={name:?} is not a known level \
                         (known: {}); falling back to the widest available level ({})",
                        LEVEL_NAMES.join(", "),
                        widest.as_str()
                    )),
                )
            }
        }
        _ => (widest, None),
    }
}

/// Prints an env-var fallback warning to stderr, once per variable per
/// process (daemon logs should not repeat it on every lazy re-resolve).
fn warn_env_once(once: &std::sync::Once, warning: &Option<String>) {
    if let Some(msg) = warning {
        once.call_once(|| eprintln!("warning: {msg}"));
    }
}

/// Lazily resolved dispatch state: `SimdLevel::code() + 1` (0 = not yet
/// resolved).
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// The kernel level [`linear_nt_rows_into`] and
/// [`conv2d_region_batch_into`] dispatch to: the widest available level,
/// unless `OPPSLA_NO_SIMD=1` pinned the scalar kernels,
/// `OPPSLA_SIMD_LEVEL=<name>` pinned a specific level, or
/// [`force_simd_level`] overrode the choice.
pub fn active_level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => {
            static NO_SIMD_WARNED: std::sync::Once = std::sync::Once::new();
            static LEVEL_WARNED: std::sync::Once = std::sync::Once::new();
            let (no_simd, warning) = no_simd_env(std::env::var("OPPSLA_NO_SIMD").ok().as_deref());
            warn_env_once(&NO_SIMD_WARNED, &warning);
            let level = if no_simd {
                SimdLevel::Scalar
            } else {
                let (level, warning) = level_cap_env(
                    std::env::var("OPPSLA_SIMD_LEVEL").ok().as_deref(),
                    &available_levels(),
                );
                warn_env_once(&LEVEL_WARNED, &warning);
                level
            };
            // A racing first call resolves to the same value, so a plain
            // store is fine.
            LEVEL.store(level.code() + 1, Ordering::Relaxed);
            level
        }
        code => SimdLevel::from_code(code - 1),
    }
}

/// The detected ISA name reported in the bench JSONs.
pub fn simd_isa() -> &'static str {
    active_level().as_str()
}

/// Overrides the dispatched kernel level (tests, A/B benchmarks). Safe
/// at any time — every level is bit-identical, so concurrent kernel calls
/// merely change speed, never results. A level the host cannot execute
/// falls back to the scalar kernels.
pub fn force_simd_level(level: SimdLevel) {
    LEVEL.store(level.code() + 1, Ordering::Relaxed);
}

/// Rows per fully connected register tile: each weight register loaded
/// feeds the accumulators of up to this many rows.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
const FC_MR: usize = 4;

/// Fully connected product of one row against a **pre-transposed**
/// weight: `out[j] = Σ_k x[k] · wt[k·n + j]` for `wt: [k, n]`. This is
/// the one-row call of [`linear_nt_rows_into`], so it is bit-identical to
/// `ops::matmul_nt_into(x, w, 1, k, n, out)` against the `[n, k]`
/// original `w`.
///
/// # Panics
///
/// Panics if a slice length disagrees with `k`/`n`.
pub fn linear_nt_into(x: &[f32], wt: &[f32], k: usize, n: usize, out: &mut [f32]) {
    linear_nt_rows_into(&[x], wt, k, n, out);
}

/// Fully connected product of a batch of rows against one
/// **pre-transposed** weight: `out[i·n + j] = Σ_k xs[i][k] · wt[k·n + j]`
/// for `wt: [k, n]` and `out: [xs.len(), n]`. With `wt` the transpose of
/// a `[n, k]` row-major weight `w`, row `i` equals
/// `ops::matmul_nt_into(xs[i], w, 1, k, n, ..)` bit for bit: every output
/// element accumulates from `0.0` in ascending `k`, a separate multiply
/// then add per step (never FMA). A row's result therefore never depends
/// on which other rows share the call, and a plan may pre-transpose its
/// `Linear` weights once.
///
/// At [`active_level`] the kernel walks register tiles of up to four
/// rows × three vector registers of output columns (a lone row takes up
/// to eight registers), so each weight register loaded feeds up to
/// twelve independent accumulator chains where a single row walking one
/// register at a time runs one dependent add chain. A column tail
/// narrower than one register runs as one masked tile (AVX-512F, AVX2)
/// or as a scalar tile with one accumulator per (row, column) (SSE2,
/// NEON).
///
/// # Panics
///
/// Panics if a slice length disagrees with `k`/`n`.
pub fn linear_nt_rows_into(xs: &[&[f32]], wt: &[f32], k: usize, n: usize, out: &mut [f32]) {
    linear_nt_rows_into_with(active_level(), xs, wt, k, n, out);
}

/// [`linear_nt_rows_into`] with the kernel level given explicitly
/// (SIMD-vs-scalar equivalence tests). A level the host cannot execute
/// runs the scalar kernel; every level is bit-identical.
///
/// # Panics
///
/// Panics if a slice length disagrees with `k`/`n`.
pub fn linear_nt_rows_into_with(
    level: SimdLevel,
    xs: &[&[f32]],
    wt: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    for x in xs {
        assert_eq!(x.len(), k, "linear_nt_rows_into lhs row length");
    }
    assert_eq!(wt.len(), k * n, "linear_nt_rows_into weight length");
    assert_eq!(out.len(), xs.len() * n, "linear_nt_rows_into out length");
    if n == 0 {
        return;
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline; lengths asserted.
        SimdLevel::Sse2 => unsafe { fc_rows_sse2(xs, wt, k, n, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: guarded by the runtime feature check; lengths asserted.
            unsafe { fc_rows_avx2(xs, wt, k, n, out) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 if std::arch::is_x86_feature_detected!("avx512f") => {
            // SAFETY: guarded by the runtime feature check; lengths asserted.
            unsafe { fc_rows_avx512(xs, wt, k, n, out) }
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline; lengths asserted.
        SimdLevel::Neon => unsafe { fc_rows_neon(xs, wt, k, n, out) },
        _ => fc_rows_scalar(xs, wt, n, out),
    }
}

/// Reference FC kernel: per row, `k`-outer / `j`-inner so `wt` streams
/// once and the `out` row stays cache-hot. Per element this is the
/// ascending-`k` mul-then-add recurrence of `matmul_nt_into`; the
/// accumulator living in `out` instead of a register changes nothing —
/// f32 arithmetic rounds identically either way.
fn fc_rows_scalar(xs: &[&[f32]], wt: &[f32], n: usize, out: &mut [f32]) {
    for (x, o) in xs.iter().zip(out.chunks_exact_mut(n)) {
        o.fill(0.0);
        for (&a, row) in x.iter().zip(wt.chunks_exact(n)) {
            for (o, &b) in o.iter_mut().zip(row) {
                *o += a * b;
            }
        }
    }
}

/// Column tail of the 4-lane levels (SSE2, NEON), which have no masked
/// load: the `n - j` (1 to 3) leftover columns of an `R`-row tile as one
/// scalar tile with an independent accumulator per (row, column).
///
/// # Safety
///
/// Every `xp[r]` must point to `k` readable floats, `wt` to the `k·n`
/// weight and `out` to the tile's `R·n` output, and `j < n <= j + 3`.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline]
unsafe fn fc_tail_scalar<const R: usize>(
    xp: &[*const f32; R],
    wt: *const f32,
    k: usize,
    n: usize,
    j: usize,
    out: *mut f32,
) {
    /// The tail at a fixed width `T`, so the accumulators stay in
    /// registers.
    ///
    /// # Safety
    ///
    /// As for [`fc_tail_scalar`], with `n == j + T`.
    #[inline]
    unsafe fn cols<const R: usize, const T: usize>(
        xp: &[*const f32; R],
        wt: *const f32,
        k: usize,
        n: usize,
        j: usize,
        out: *mut f32,
    ) {
        let mut acc = [[0.0f32; T]; R];
        for kk in 0..k {
            let wp = wt.add(kk * n + j);
            for (row, &x) in acc.iter_mut().zip(xp) {
                let a = *x.add(kk);
                for (c, o) in row.iter_mut().enumerate() {
                    *o += a * *wp.add(c);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            std::ptr::copy_nonoverlapping(row.as_ptr(), out.add(r * n + j), T);
        }
    }
    debug_assert!(j < n && n <= j + 3, "4-lane column tail");
    match n - j {
        1 => cols::<R, 1>(xp, wt, k, n, j, out),
        2 => cols::<R, 2>(xp, wt, k, n, j, out),
        _ => cols::<R, 3>(xp, wt, k, n, j, out),
    }
}

/// AVX-512F column tail: the `n - j` (1 to 15) leftover columns of an
/// `R`-row tile as one masked register per row. Masked-off lanes are
/// neither read nor written.
///
/// # Safety
///
/// AVX-512F must be available. Every `xp[r]` must point to `k` readable
/// floats, `wt` to the `k·n` weight and `out` to the tile's `R·n`
/// output, and `j < n < j + 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn fc_tail_avx512<const R: usize>(
    xp: &[*const f32; R],
    wt: *const f32,
    k: usize,
    n: usize,
    j: usize,
    out: *mut f32,
) {
    use std::arch::x86_64::{_mm512_mask_storeu_ps, _mm512_maskz_loadu_ps};
    debug_assert!(j < n && n < j + 16, "AVX-512F column tail");
    let mask = ((1u32 << (n - j)) - 1) as u16;
    let mut acc = [_mm512_setzero_ps(); R];
    for kk in 0..k {
        let w = _mm512_maskz_loadu_ps(mask, wt.add(kk * n + j));
        for (v, &x) in acc.iter_mut().zip(xp) {
            *v = _mm512_add_ps(*v, _mm512_mul_ps(_mm512_set1_ps(*x.add(kk)), w));
        }
    }
    for (r, &v) in acc.iter().enumerate() {
        _mm512_mask_storeu_ps(out.add(r * n + j), mask, v);
    }
}

/// AVX2 column tail: the `n - j` (1 to 7) leftover columns of an `R`-row
/// tile as one masked register per row (`vmaskmovps`, which neither
/// reads nor writes masked-off lanes).
///
/// # Safety
///
/// AVX2 must be available. Every `xp[r]` must point to `k` readable
/// floats, `wt` to the `k·n` weight and `out` to the tile's `R·n`
/// output, and `j < n < j + 8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn fc_tail_avx2<const R: usize>(
    xp: &[*const f32; R],
    wt: *const f32,
    k: usize,
    n: usize,
    j: usize,
    out: *mut f32,
) {
    use std::arch::x86_64::{_mm256_loadu_si256, _mm256_maskload_ps, _mm256_maskstore_ps};
    /// Eight set lanes then eight clear ones: the window starting at
    /// `8 - t` sets exactly the first `t` lanes.
    static LANES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
    debug_assert!(j < n && n < j + 8, "AVX2 column tail");
    let mask = _mm256_loadu_si256(LANES.as_ptr().add(8 - (n - j)).cast());
    let mut acc = [_mm256_setzero_ps(); R];
    for kk in 0..k {
        let w = _mm256_maskload_ps(wt.add(kk * n + j), mask);
        for (v, &x) in acc.iter_mut().zip(xp) {
            *v = _mm256_add_ps(*v, _mm256_mul_ps(_mm256_set1_ps(*x.add(kk)), w));
        }
    }
    for (r, &v) in acc.iter().enumerate() {
        _mm256_maskstore_ps(out.add(r * n + j), mask, v);
    }
}

/// Generates one `fc_rows_*` SIMD kernel. Rows go in tiles of up to
/// [`FC_MR`]; each tile covers its full column registers in blocks sized
/// to the tile's row count (four registers at four rows split 2 + 2),
/// then hands the sub-register column tail to `$tail`. Within a block
/// every step loads each weight register once and multiplies it into
/// every row's accumulator with an explicit mul-then-add, so each lane
/// is bit-identical to [`fc_rows_scalar`].
macro_rules! fc_kernel {
    ($name:ident, $arch:literal, $feature:literal, $lanes:expr, $tail:ident, $set1:ident, $load:ident, $store:ident, $zero:expr, $mul:ident, $add:ident) => {
        /// # Safety
        ///
        /// The level's target feature must be available, every row of
        /// `xs` must hold `k` floats, `wt` `k·n` and `out` `xs.len()·n`.
        #[cfg(target_arch = $arch)]
        #[target_feature(enable = $feature)]
        unsafe fn $name(xs: &[&[f32]], wt: &[f32], k: usize, n: usize, out: &mut [f32]) {
            const L: usize = $lanes;

            /// One `R`-row × `C`-register block at columns `[j, j + C·L)`.
            ///
            /// # Safety
            ///
            /// As for the kernel, with `j + C·L <= n` and `out` the
            /// tile's `R·n` output.
            #[target_feature(enable = $feature)]
            #[inline]
            unsafe fn block<const R: usize, const C: usize>(
                xp: &[*const f32; R],
                wt: *const f32,
                k: usize,
                n: usize,
                j: usize,
                out: *mut f32,
            ) {
                let mut acc = [[$zero; C]; R];
                for kk in 0..k {
                    let wp = wt.add(kk * n + j);
                    let mut w = [$zero; C];
                    for (c, v) in w.iter_mut().enumerate() {
                        *v = $load(wp.add(c * L));
                    }
                    for (row, &x) in acc.iter_mut().zip(xp) {
                        let a = $set1(*x.add(kk));
                        for (v, &b) in row.iter_mut().zip(&w) {
                            *v = $add(*v, $mul(a, b));
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    for (c, &v) in row.iter().enumerate() {
                        $store(out.add(r * n + j + c * L), v);
                    }
                }
            }

            /// One `R`-row tile across all `n` columns.
            ///
            /// # Safety
            ///
            /// As for the kernel, with `xs.len() == R` and `out` the
            /// tile's `R·n` output.
            #[target_feature(enable = $feature)]
            #[inline]
            unsafe fn tile<const R: usize>(
                xs: &[&[f32]],
                wt: *const f32,
                k: usize,
                n: usize,
                out: *mut f32,
            ) {
                let mut xp = [std::ptr::null::<f32>(); R];
                for (p, x) in xp.iter_mut().zip(xs) {
                    *p = x.as_ptr();
                }
                // Registers per block: as many as sixteen vector registers
                // hold beside the rows' accumulators — eight for one row,
                // whose weight registers are used once and freed, four for
                // two rows, three beyond — split evenly into the fewest
                // blocks.
                let cap = match R {
                    1 => 8,
                    2 => 4,
                    _ => 3,
                };
                let mut j = 0;
                while n - j >= L {
                    let full = (n - j) / L;
                    let regs = full.div_ceil(full.div_ceil(cap));
                    match regs {
                        1 => block::<R, 1>(&xp, wt, k, n, j, out),
                        2 => block::<R, 2>(&xp, wt, k, n, j, out),
                        3 => block::<R, 3>(&xp, wt, k, n, j, out),
                        4 => block::<R, 4>(&xp, wt, k, n, j, out),
                        5 => block::<R, 5>(&xp, wt, k, n, j, out),
                        6 => block::<R, 6>(&xp, wt, k, n, j, out),
                        7 => block::<R, 7>(&xp, wt, k, n, j, out),
                        _ => block::<R, 8>(&xp, wt, k, n, j, out),
                    }
                    j += regs * L;
                }
                if j < n {
                    $tail::<R>(&xp, wt, k, n, j, out);
                }
            }

            let (wt, out) = (wt.as_ptr(), out.as_mut_ptr());
            for (t, rows) in xs.chunks(FC_MR).enumerate() {
                let o = out.add(t * FC_MR * n);
                match rows.len() {
                    4 => tile::<4>(rows, wt, k, n, o),
                    3 => tile::<3>(rows, wt, k, n, o),
                    2 => tile::<2>(rows, wt, k, n, o),
                    _ => tile::<1>(rows, wt, k, n, o),
                }
            }
        }
    };
}

#[cfg(target_arch = "aarch64")]
use std::arch::aarch64::{vaddq_f32, vdupq_n_f32, vld1q_f32, vmulq_f32, vst1q_f32};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_storeu_ps, _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps,
    _mm512_setzero_ps, _mm512_storeu_ps, _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps,
    _mm_setzero_ps, _mm_storeu_ps,
};

fc_kernel!(
    fc_rows_sse2,
    "x86_64",
    "sse2",
    4,
    fc_tail_scalar,
    _mm_set1_ps,
    _mm_loadu_ps,
    _mm_storeu_ps,
    _mm_setzero_ps(),
    _mm_mul_ps,
    _mm_add_ps
);
fc_kernel!(
    fc_rows_avx2,
    "x86_64",
    "avx2",
    8,
    fc_tail_avx2,
    _mm256_set1_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_setzero_ps(),
    _mm256_mul_ps,
    _mm256_add_ps
);
fc_kernel!(
    fc_rows_avx512,
    "x86_64",
    "avx512f",
    16,
    fc_tail_avx512,
    _mm512_set1_ps,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_setzero_ps(),
    _mm512_mul_ps,
    _mm512_add_ps
);
fc_kernel!(
    fc_rows_neon,
    "aarch64",
    "neon",
    4,
    fc_tail_scalar,
    vdupq_n_f32,
    vld1q_f32,
    vst1q_f32,
    vdupq_n_f32(0.0),
    vmulq_f32,
    vaddq_f32
);

/// Output-channel lanes the region-conv weights are padded to: the
/// widest register of any level (AVX-512F), so every level reads one
/// layout and no register load runs past a tap's row.
const CONV_LANES: usize = 16;

/// Most pixels in one region-conv register tile: each weight register
/// loaded per tap feeds up to this many pixels' accumulators.
const REGION_PX: usize = 8;

/// A convolution's kernel bank and bias transposed to output-channel
/// lanes for [`conv2d_region_batch_into`]: the weights tap-major as
/// `[k][width]`, so one tap's weights for every output channel form one
/// contiguous row, and the bias as one `[width]` row. `width` is `out_c`
/// rounded up to a multiple of 16, the widest register of any level, so
/// every level reads one layout; padding lanes are zero.
/// Build it once per plan: a compiled plan keeps one per convolution.
///
/// A bank may carry a fused ReLU ([`ConvLanes::set_relu`]): the kernel
/// then stores `v.max(0.0)` for each output cell `v`, the same `f32::max`
/// on the same value a separate ReLU pass would compute.
#[derive(Debug, Clone)]
pub struct ConvLanes {
    out_c: usize,
    k: usize,
    width: usize,
    weight: Vec<f32>,
    bias: Vec<f32>,
    relu: bool,
}

impl ConvLanes {
    /// Transposes the row-major `[out_c, k]` kernel bank `weight` (each
    /// row in `(ch, ky, kx)` tap order) and its `[out_c]` bias.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with `out_c`/`k`.
    pub fn new(weight: &[f32], bias: &[f32], out_c: usize, k: usize) -> Self {
        assert_eq!(weight.len(), out_c * k, "ConvLanes weight length");
        assert_eq!(bias.len(), out_c, "ConvLanes bias length");
        let width = out_c.div_ceil(CONV_LANES) * CONV_LANES;
        let mut lanes = vec![0.0f32; k * width];
        for (oc, row) in weight.chunks_exact(k.max(1)).enumerate() {
            for (tap, &v) in row.iter().enumerate() {
                lanes[tap * width + oc] = v;
            }
        }
        let mut padded = vec![0.0f32; width];
        padded[..out_c].copy_from_slice(bias);
        ConvLanes {
            out_c,
            k,
            width,
            weight: lanes,
            bias: padded,
            relu: false,
        }
    }

    /// Whether the kernel applies a fused ReLU to every stored cell.
    pub fn relu(&self) -> bool {
        self.relu
    }

    /// Fuses (or unfuses) a ReLU into every store of this bank's output.
    pub fn set_relu(&mut self, relu: bool) {
        self.relu = relu;
    }
}

/// The constants of one [`conv2d_region_batch_into`] call that every
/// tile shares. The pointers borrow the call's [`ConvLanes`].
struct RegionCtx {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    /// `oh·ow`: the distance between two output channels of one pixel.
    plane: usize,
    out_c: usize,
    width: usize,
    /// Vector registers per channel block (SIMD levels only).
    regs: usize,
    /// Store `v.max(0.0)` instead of `v` (a fused ReLU).
    relu: bool,
    weight: *const f32,
    bias: *const f32,
}

/// Up to [`REGION_PX`] output pixels that share one tap window
/// `win = [ky0, ky1, kx0, kx1]`: the taps whose input cell is in bounds
/// for every one of them. `src[i]` points at pixel `i`'s input cell for
/// tap `(0, ky0, kx0)`, `dst[i]` at its output cell in channel 0.
struct RegionTile {
    n: usize,
    win: [usize; 4],
    src: [*const f32; REGION_PX],
    dst: [*mut f32; REGION_PX],
}

/// One level's region-conv tile kernel.
type TileFn = unsafe fn(&RegionTile, &RegionCtx);

impl RegionTile {
    /// Adds a pixel of this tile's window, and runs the tile once it
    /// holds `cap` pixels.
    ///
    /// # Safety
    ///
    /// `run` must be executable on this host, and the tile's pointers,
    /// `src` and `dst` included, valid for `cx` as for
    /// [`region_tile_scalar`].
    #[inline]
    unsafe fn push(
        &mut self,
        src: *const f32,
        dst: *mut f32,
        cap: usize,
        run: TileFn,
        cx: &RegionCtx,
    ) {
        self.src[self.n] = src;
        self.dst[self.n] = dst;
        self.n += 1;
        if self.n == cap {
            run(self, cx);
            self.n = 0;
        }
    }
}

/// The taps `t < k` whose input coordinate `o·s + t − p` lies in
/// `[0, n)`: output coordinate `o`'s in-bounds tap range along one axis.
/// The others read the zero padding and are skipped.
fn tap_window(o: usize, s: usize, p: usize, k: usize, n: usize) -> (usize, usize) {
    let lo = p.saturating_sub(o * s).min(k);
    let hi = (n + p).saturating_sub(o * s).min(k);
    (lo, hi.max(lo))
}

/// Region convolution, the engine's one convolution kernel: for every
/// job `(image, rect, out)`, recomputes `out[oc, oy, ox]` for each
/// `(oy, ox)` in `rect` from the `[c, h, w]` `image` and leaves every
/// other output cell untouched — bit for bit what the tape's
/// [`crate::ops::im2col_into`] + [`crate::ops::matmul_into`] +
/// bias-broadcast pipeline computes for those cells with the
/// `[out_c, k]` weights and bias `lanes` was built from. A full forward
/// passes one full-rectangle job per convolution; the delta engine
/// passes one job per dirty candidate.
///
/// The lanes of each register are output channels. Pixels go in tiles
/// of up to eight, sized to the register file, that carry over from one
/// job to the next, so a tile spans candidates where a rectangle runs
/// short; per tap the tile loads its weight registers once for all its
/// pixels. Each pixel's accumulators start from `0.0`, take every
/// in-bounds tap in `(ch, ky, kx)` order as a separate multiply then add
/// (never FMA), then the bias, so each lane is the scalar recurrence and
/// the tile a pixel lands in never changes a bit. Pixels whose window is
/// clipped by the padding skip the out-of-bounds taps and share a tile
/// only with pixels of the same window. Skipping is bit-exact: in
/// IEEE-754 round-to-nearest an accumulator seeded with `+0.0` can never
/// become `-0.0`, so adding the padding's `w · 0.0 = ±0.0` is always the
/// identity. Padding lanes are never stored. With a fused ReLU
/// ([`ConvLanes::set_relu`]) every stored cell is `v.max(0.0)` of that
/// value instead.
///
/// # Panics
///
/// Panics if `lanes` disagrees with `geom`, a job's slice length
/// disagrees with `geom`, or a rectangle exceeds the output extents.
pub fn conv2d_region_batch_into<'a>(
    lanes: &ConvLanes,
    geom: &Conv2dGeometry,
    jobs: impl IntoIterator<Item = (&'a [f32], Rect, &'a mut [f32])>,
) {
    conv2d_region_batch_into_with(active_level(), lanes, geom, jobs);
}

/// [`conv2d_region_batch_into`] with the kernel level given explicitly
/// (SIMD-vs-scalar equivalence tests). A level the host cannot execute
/// runs the scalar kernel; every level is bit-identical.
///
/// # Panics
///
/// As for [`conv2d_region_batch_into`].
pub fn conv2d_region_batch_into_with<'a>(
    level: SimdLevel,
    lanes: &ConvLanes,
    geom: &Conv2dGeometry,
    jobs: impl IntoIterator<Item = (&'a [f32], Rect, &'a mut [f32])>,
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let (kh, kw, s, p) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    assert_eq!(
        lanes.k,
        c * kh * kw,
        "conv2d_region_batch_into weights disagree with the geometry"
    );
    // An empty kernel would make every window look unclipped.
    assert!(kh > 0 && kw > 0, "conv2d_region_batch_into empty kernel");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    // The level's tile kernel, its f32 lanes per register and the vector
    // registers it has for a tile's accumulators.
    let (tile_fn, lane_w, vregs): (TileFn, usize, usize) = match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => (region_tile_sse2, 4, 16),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if std::arch::is_x86_feature_detected!("avx2") => (region_tile_avx2, 8, 16),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 if std::arch::is_x86_feature_detected!("avx512f") => {
            (region_tile_avx512, 16, 32)
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => (region_tile_neon, 4, 32),
        _ => (region_tile_scalar, 1, 0),
    };
    // Channel registers go in the fewest even blocks of at most three
    // (sixteen-register files) or four; a block's pixel count is what the
    // register file holds beside its weights, a broadcast and a product.
    let total = lanes.out_c.div_ceil(lane_w).max(1);
    let regs = total.div_ceil(total.div_ceil(if vregs >= 32 { 4 } else { 3 }));
    let cap = if vregs == 0 {
        REGION_PX
    } else {
        ((vregs - 2 - regs) / regs).min(REGION_PX)
    };
    let cx = RegionCtx {
        c,
        h,
        w,
        kh,
        kw,
        plane: oh * ow,
        out_c: lanes.out_c,
        width: lanes.width,
        regs,
        relu: lanes.relu,
        weight: lanes.weight.as_ptr(),
        bias: lanes.bias.as_ptr(),
    };
    let full = [0, kh, 0, kw];
    let empty = || RegionTile {
        n: 0,
        win: full,
        src: [std::ptr::null(); REGION_PX],
        dst: [std::ptr::null_mut(); REGION_PX],
    };
    // Unclipped pixels from any row or job share one tile; clipped ones
    // collect in a second tile until the window changes.
    let (mut inner, mut edge) = (empty(), empty());
    // The columns whose taps are all in bounds (`ox·s ≥ p` and
    // `ox·s + kw ≤ w + p`), the same for every row and job.
    let x_lo = p.div_ceil(s);
    let x_hi = (w + p).checked_sub(kw).map_or(0, |span| span / s + 1);
    for (image, rect, out) in jobs {
        assert_eq!(
            image.len(),
            c * h * w,
            "conv2d_region_batch_into image length"
        );
        assert_eq!(
            out.len(),
            lanes.out_c * oh * ow,
            "conv2d_region_batch_into out length"
        );
        assert!(
            rect.y1 <= oh && rect.x1 <= ow,
            "rect {rect:?} exceeds output extents {oh}x{ow}"
        );
        let (src, dst) = (image.as_ptr(), out.as_mut_ptr());
        for oy in rect.y0..rect.y1 {
            let (ky0, ky1) = tap_window(oy, s, p, kh, h);
            // This row's unclipped columns, empty when the row's taps are
            // clipped; every other column is an edge pixel.
            let (lo, hi) = if (ky0, ky1) == (0, kh) {
                let lo = x_lo.clamp(rect.x0, rect.x1);
                (lo, x_hi.clamp(lo, rect.x1))
            } else {
                (rect.x1, rect.x1)
            };
            for ox in (rect.x0..lo).chain(hi..rect.x1) {
                let (kx0, kx1) = tap_window(ox, s, p, kw, w);
                let win = [ky0, ky1, kx0, kx1];
                if edge.n > 0 && edge.win != win {
                    // SAFETY: every pointer in a tile addresses a job
                    // whose borrows last for `'a`, and the cells its
                    // window reads or its channels write are in bounds
                    // (lengths asserted above).
                    unsafe { tile_fn(&edge, &cx) };
                    edge.n = 0;
                }
                edge.win = win;
                // An empty window reads nothing, so any address will do.
                let first = if ky0 < ky1 && kx0 < kx1 {
                    (oy * s + ky0 - p) * w + ox * s + kx0 - p
                } else {
                    0
                };
                // SAFETY: `first` is the in-bounds cell of tap
                // `(0, ky0, kx0)`, `oy·ow + ox < oh·ow`, and the tile's
                // pointers are valid as for the flush above.
                unsafe { edge.push(src.add(first), dst.add(oy * ow + ox), cap, tile_fn, &cx) };
            }
            if lo < hi {
                let row = (oy * s - p) * w;
                for ox in lo..hi {
                    // SAFETY: as for the edge pixels, with the first tap
                    // `(0, 0, 0)` in bounds.
                    unsafe {
                        inner.push(
                            src.add(row + ox * s - p),
                            dst.add(oy * ow + ox),
                            cap,
                            tile_fn,
                            &cx,
                        )
                    };
                }
            }
        }
    }
    for tile in [&inner, &edge] {
        if tile.n > 0 {
            // SAFETY: as for the edge flush above.
            unsafe { tile_fn(tile, &cx) };
        }
    }
}

/// Reference region-conv tile: per pixel and output channel, one
/// accumulator from `0.0` over the window's taps in `(ch, ky, kx)` order,
/// then the bias — the recurrence of `ops::matmul_into` over im2col
/// columns, less the padding's exact-zero taps — and, for a fused ReLU,
/// `max(0.0)` on the stored value.
///
/// # Safety
///
/// `t`'s pointers must be valid for `cx`: each `src` for every tap of
/// the window in each of `cx.c` channels, each `dst` for `cx.out_c`
/// channels `cx.plane` apart.
unsafe fn region_tile_scalar(t: &RegionTile, cx: &RegionCtx) {
    let [ky0, ky1, kx0, kx1] = t.win;
    for (&src, &dst) in t.src[..t.n].iter().zip(&t.dst[..t.n]) {
        for oc in 0..cx.out_c {
            let mut acc = 0.0f32;
            for ch in 0..cx.c {
                for ky in ky0..ky1 {
                    let row = src.add((ch * cx.h + ky - ky0) * cx.w);
                    let taps = cx.weight.add((ch * cx.kh + ky) * cx.kw * cx.width + oc);
                    for kx in kx0..kx1 {
                        acc += *taps.add(kx * cx.width) * *row.add(kx - kx0);
                    }
                }
            }
            let v = acc + *cx.bias.add(oc);
            *dst.add(oc * cx.plane) = if cx.relu { v.max(0.0) } else { v };
        }
    }
}

/// Generates one `region_tile_*` SIMD kernel. The tile's channel
/// registers run in blocks of `RegionCtx::regs`; within a block every
/// tap of the window loads its weight registers once and multiplies each
/// into every pixel's accumulator with an explicit mul-then-add, from
/// `0.0` in `(ch, ky, kx)` order, so each lane is bit-identical to
/// [`region_tile_scalar`]. The bias is added last, and each pixel's
/// registers go through a stack row from which only the real channels
/// are stored, a fused ReLU applied per lane in that scalar store loop:
/// `f32::max` there matches the scalar kernel and a separate ReLU pass,
/// which a vector max is not specified to do for NaN or signed zeros.
macro_rules! region_kernel {
    ($name:ident, $arch:literal, $feature:literal, $lanes:expr, $set1:ident, $load:ident, $store:ident, $zero:expr, $mul:ident, $add:ident) => {
        /// # Safety
        ///
        /// The level's target feature must be available, and `t`'s
        /// pointers valid for `cx` as for [`region_tile_scalar`].
        #[cfg(target_arch = $arch)]
        #[target_feature(enable = $feature)]
        unsafe fn $name(t: &RegionTile, cx: &RegionCtx) {
            const L: usize = $lanes;

            /// The tile's `N` pixels × `C` channel registers from
            /// register `r0` on.
            ///
            /// # Safety
            ///
            /// As for the kernel, with `t.n == N` and `r0 + C` registers
            /// within the padded width.
            #[target_feature(enable = $feature)]
            #[inline]
            unsafe fn block<const N: usize, const C: usize>(
                t: &RegionTile,
                cx: &RegionCtx,
                r0: usize,
            ) {
                let [ky0, ky1, kx0, kx1] = t.win;
                let mut acc = [[$zero; C]; N];
                for ch in 0..cx.c {
                    for ky in ky0..ky1 {
                        let row = (ch * cx.h + ky - ky0) * cx.w;
                        let mut wp = cx
                            .weight
                            .add(((ch * cx.kh + ky) * cx.kw + kx0) * cx.width + r0 * L);
                        for dx in 0..kx1 - kx0 {
                            let mut wv = [$zero; C];
                            for (c, v) in wv.iter_mut().enumerate() {
                                *v = $load(wp.add(c * L));
                            }
                            for (a, &src) in acc.iter_mut().zip(&t.src) {
                                let x = $set1(*src.add(row + dx));
                                for (v, &b) in a.iter_mut().zip(&wv) {
                                    *v = $add(*v, $mul(x, b));
                                }
                            }
                            wp = wp.add(cx.width);
                        }
                    }
                }
                let live = (cx.out_c - r0 * L).min(C * L);
                let mut cells = [0.0f32; 4 * CONV_LANES];
                for (a, &dst) in acc.iter().zip(&t.dst) {
                    for (c, &v) in a.iter().enumerate() {
                        let b = $load(cx.bias.add((r0 + c) * L));
                        $store(cells.as_mut_ptr().add(c * L), $add(v, b));
                    }
                    let dst = dst.add(r0 * L * cx.plane);
                    for (j, &v) in cells[..live].iter().enumerate() {
                        *dst.add(j * cx.plane) = if cx.relu { v.max(0.0) } else { v };
                    }
                }
            }

            /// [`block`] at `C` registers for the tile's pixel count.
            ///
            /// # Safety
            ///
            /// As for [`block`].
            #[target_feature(enable = $feature)]
            #[inline]
            unsafe fn pixels<const C: usize>(t: &RegionTile, cx: &RegionCtx, r0: usize) {
                match t.n {
                    1 => block::<1, C>(t, cx, r0),
                    2 => block::<2, C>(t, cx, r0),
                    3 => block::<3, C>(t, cx, r0),
                    4 => block::<4, C>(t, cx, r0),
                    5 => block::<5, C>(t, cx, r0),
                    6 => block::<6, C>(t, cx, r0),
                    7 => block::<7, C>(t, cx, r0),
                    _ => block::<8, C>(t, cx, r0),
                }
            }

            let total = cx.out_c.div_ceil(L);
            let mut r0 = 0;
            while r0 < total {
                let regs = cx.regs.min(total - r0);
                match regs {
                    1 => pixels::<1>(t, cx, r0),
                    2 => pixels::<2>(t, cx, r0),
                    3 => pixels::<3>(t, cx, r0),
                    _ => pixels::<4>(t, cx, r0),
                }
                r0 += regs;
            }
        }
    };
}

region_kernel!(
    region_tile_sse2,
    "x86_64",
    "sse2",
    4,
    _mm_set1_ps,
    _mm_loadu_ps,
    _mm_storeu_ps,
    _mm_setzero_ps(),
    _mm_mul_ps,
    _mm_add_ps
);
region_kernel!(
    region_tile_avx2,
    "x86_64",
    "avx2",
    8,
    _mm256_set1_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_setzero_ps(),
    _mm256_mul_ps,
    _mm256_add_ps
);
region_kernel!(
    region_tile_avx512,
    "x86_64",
    "avx512f",
    16,
    _mm512_set1_ps,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_setzero_ps(),
    _mm512_mul_ps,
    _mm512_add_ps
);
region_kernel!(
    region_tile_neon,
    "aarch64",
    "neon",
    4,
    vdupq_n_f32,
    vld1q_f32,
    vst1q_f32,
    vdupq_n_f32(0.0),
    vmulq_f32,
    vaddq_f32
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_simd_env_policy() {
        // Recognized spellings parse cleanly (no warning).
        for (value, want) in [
            (None, false),
            (Some(""), false),
            (Some("0"), false),
            (Some("false"), false),
            (Some("off"), false),
            (Some("1"), true),
            (Some("true"), true),
            (Some("ON"), true),
        ] {
            let (got, warning) = no_simd_env(value);
            assert_eq!(got, want, "{value:?}");
            assert!(warning.is_none(), "{value:?} must not warn: {warning:?}");
        }
        // Unrecognized spellings disable SIMD (conservative: the variable
        // was set) but surface a warning instead of silently guessing.
        for value in ["yes", "2", "simd off please"] {
            let (got, warning) = no_simd_env(Some(value));
            assert!(got, "{value:?} falls back to enabled");
            assert!(warning.is_some(), "{value:?} must warn");
        }
    }

    #[test]
    fn level_cap_env_parse_table() {
        let available = [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2];
        // Unset / empty: widest available, silently.
        for value in [None, Some("")] {
            let (level, warning) = level_cap_env(value, &available);
            assert_eq!(level, SimdLevel::Avx2);
            assert!(warning.is_none());
        }
        // A level this host can execute: honored, silently.
        let (level, warning) = level_cap_env(Some("sse2"), &available);
        assert_eq!(level, SimdLevel::Sse2);
        assert!(warning.is_none());
        // A known level the host cannot execute: widest, with a warning.
        let (level, warning) = level_cap_env(Some("avx512f"), &available);
        assert_eq!(level, SimdLevel::Avx2);
        assert!(warning.expect("must warn").contains("not executable"));
        // An unknown name: widest, with a warning listing valid names.
        let (level, warning) = level_cap_env(Some("avx9000"), &available);
        assert_eq!(level, SimdLevel::Avx2);
        let warning = warning.expect("must warn");
        assert!(warning.contains("known:"), "{warning}");
    }

    #[test]
    fn level_codes_round_trip() {
        for level in [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
            SimdLevel::Neon,
        ] {
            assert_eq!(SimdLevel::from_code(level.code()), level);
        }
    }

    #[test]
    fn available_levels_start_scalar_and_widen() {
        let levels = available_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        // Codes are ordered narrowest-to-widest within an architecture.
        assert!(!levels.is_empty());
    }
}
