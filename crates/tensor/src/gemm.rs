//! Cache-blocked, panel-packed matrix multiplication for the inference
//! hot path.
//!
//! [`ops::matmul_into`](crate::ops::matmul_into) walks `A` and `B` in
//! their natural row-major layouts, so for the im2col convolution shapes
//! (`A = [out_c, c·kh·kw]` weights, `B = [c·kh·kw, oh·ow]` columns) every
//! sweep over `k` re-streams both operands from memory. The kernels here
//! follow the classic BLIS decomposition instead: `A` is repacked once
//! into row panels of [`MR`] ([`pack_a`], reusable across every query
//! against the same weights), `B` is repacked per call into column panels
//! of [`NR`] inside a caller-owned scratch buffer, and a register-tiled
//! `MR×NR` micro-kernel accumulates `KC`-deep slabs that stay resident in
//! cache.
//!
//! # Determinism contract
//!
//! [`matmul_packed_into`] is **bit-identical** to
//! [`ops::matmul_into`](crate::ops::matmul_into) — not merely close. The
//! naive kernel gives every output element the add sequence
//! `((0 + a·b)₀ + a·b)₁ …` in strictly ascending `k`. The blocked kernel
//! preserves that exact sequence: `k` slabs are processed in ascending
//! order, each micro-tile accumulator starts from zero on the first slab
//! and reloads the previously stored `f32` values (an exact round trip —
//! no extended precision) on later slabs, and within a slab each element
//! accumulates in ascending `k` with a separate multiply and add (Rust
//! never contracts to FMA). The speedup comes from packing, cache
//! residency, and register reuse — not from reassociation — so tests can
//! (and do) assert exact equality on every shape, including shapes that
//! are not multiples of the block sizes.
//!
//! # SIMD microkernels
//!
//! The `MR×NR` micro-kernel is vectorized **across the `NR` output
//! columns**: each SIMD lane owns one output column of the tile, so a
//! lane runs exactly the scalar recurrence `acc += a·b` in the same
//! ascending-`k` order — independent accumulators, no horizontal
//! reduction, no reassociation, explicit mul-then-add intrinsics (never
//! FMA). IEEE-754 arithmetic is identical lane-by-lane to the scalar
//! loop, so every SIMD level is bit-identical by construction (enforced
//! against the scalar kernel by `tests/gemm_simd.rs` proptests).
//!
//! The widest level the CPU supports is picked once at runtime
//! ([`active_level`]; AVX-512F/AVX2/SSE2 on x86_64 via
//! `is_x86_feature_detected!`, NEON on aarch64, scalar anywhere else).
//! Setting `OPPSLA_NO_SIMD=1` in the environment pins the scalar kernel;
//! [`force_simd_level`] overrides the choice programmatically (tests,
//! benchmarks — safe at any time precisely because all levels agree
//! bit-for-bit).
//!
//! # Threading
//!
//! [`matmul_packed_into`] splits the outer `NC` column loop across up to
//! [`gemm_threads`] scoped workers for sufficiently large products. Each
//! worker owns a disjoint, contiguous range of `NC`-aligned output
//! columns — it packs its own `B` panels and writes only its own columns
//! — so the arithmetic per output element is exactly the serial kernel's
//! and results are byte-identical for any thread count (also proptested).
//! Threading defaults to 1 (`OPPSLA_GEMM_THREADS` or [`set_gemm_threads`]
//! raise it); threaded calls allocate one `KC·NC` pack buffer per worker,
//! which only large GEMMs amortize, so small products always run serially
//! on the caller's thread.

use crate::ops::{Conv2dGeometry, Rect};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// Micro-kernel row count: each micro-tile covers `MR` rows of `A`.
pub const MR: usize = 4;
/// Micro-kernel column count: each micro-tile covers `NR` columns of `B`.
pub const NR: usize = 16;
/// Slab depth: the shared `k` dimension is processed in blocks of `KC`.
pub const KC: usize = 256;
/// Row block: `MC` rows of packed `A` are swept per packed `B` panel.
pub const MC: usize = 64;
/// Column block: `NC` columns of `B` are packed at a time.
pub const NC: usize = 256;

/// One ISA level of the `MR×NR` micro-kernel. Every level computes
/// bit-identical results (column-lane vectorization preserves the scalar
/// per-element mul-then-add recurrence exactly); levels differ only in
/// throughput. Variants for other architectures exist everywhere so level
/// names serialize portably, but run the scalar kernel when the host
/// cannot execute them.
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

/// Every micro-kernel level this host can execute, narrowest to widest.
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

/// Upper bound on `OPPSLA_GEMM_THREADS`: far beyond any sensible host,
/// low enough that a typo (`400000`) cannot make every GEMM try to spawn
/// a small city of scoped threads.
pub(crate) const MAX_GEMM_THREADS: usize = 256;

/// Resolves `OPPSLA_GEMM_THREADS`: a positive integer up to
/// [`MAX_GEMM_THREADS`]. Unset/empty means 1 (sequential). Invalid or
/// out-of-range values fall back (0 / unparsable → 1, oversized → the
/// cap) and return a warning so the fallback is visible once on stderr
/// instead of silently swallowed. Split out so the parse table is
/// unit-testable without mutating the environment.
pub(crate) fn gemm_threads_env(value: Option<&str>) -> (usize, Option<String>) {
    match value {
        None => (1, None),
        Some("") => (1, None),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => (
                1,
                Some(
                    "OPPSLA_GEMM_THREADS=0 is out of range (minimum 1); \
                     running GEMMs sequentially"
                        .to_string(),
                ),
            ),
            Ok(n) if n > MAX_GEMM_THREADS => (
                MAX_GEMM_THREADS,
                Some(format!(
                    "OPPSLA_GEMM_THREADS={n} exceeds the supported maximum; \
                     clamping to {MAX_GEMM_THREADS}"
                )),
            ),
            Ok(n) => (n, None),
            Err(_) => (
                1,
                Some(format!(
                    "OPPSLA_GEMM_THREADS={v:?} is not a positive integer; \
                     running GEMMs sequentially"
                )),
            ),
        },
    }
}

/// Prints an env-var fallback warning to stderr, once per variable per
/// process (daemon logs should not repeat it on every lazy re-resolve).
fn warn_env_once(once: &std::sync::Once, warning: &Option<String>) {
    if let Some(msg) = warning {
        once.call_once(|| eprintln!("warning: {msg}"));
    }
}

/// Lazily resolved dispatch state. `LEVEL` holds `SimdLevel::code() + 1`
/// (0 = not yet resolved); `THREADS` holds the configured worker count
/// (0 = not yet resolved).
static LEVEL: AtomicU8 = AtomicU8::new(0);
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// The micro-kernel level [`matmul_packed_into`] dispatches to: the
/// widest available level, unless `OPPSLA_NO_SIMD=1` pinned the scalar
/// kernel, `OPPSLA_SIMD_LEVEL=<name>` pinned a specific level, or
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

/// Overrides the dispatched micro-kernel level (tests, A/B benchmarks).
/// Safe at any time — every level is bit-identical, so concurrent GEMMs
/// merely change speed, never results. A level the host cannot execute
/// falls back to the scalar kernel.
pub fn force_simd_level(level: SimdLevel) {
    LEVEL.store(level.code() + 1, Ordering::Relaxed);
}

/// The worker-thread count [`matmul_packed_into`] may fan out to
/// (default 1; `OPPSLA_GEMM_THREADS` sets the initial value — invalid or
/// out-of-range values warn once on stderr and fall back per
/// [`gemm_threads_env`]).
pub fn gemm_threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            let (n, warning) =
                gemm_threads_env(std::env::var("OPPSLA_GEMM_THREADS").ok().as_deref());
            warn_env_once(&WARNED, &warning);
            THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Sets the GEMM worker-thread count (clamped to at least 1). Results are
/// byte-identical for any value; only wall-clock time changes.
pub fn set_gemm_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Minimum multiply-add count before a GEMM fans out to worker threads:
/// below this, scoped-thread spawn and per-worker pack buffers cost more
/// than they save. 4M madds ≈ a 64×576×128-column conv product.
const PAR_MIN_MADDS: usize = 4_000_000;

/// The left-hand operand of [`matmul_packed_into`], repacked into
/// `MR`-row micro-panels (k-major within each panel, zero-padded to a
/// multiple of [`MR`] rows). Pack once per weight matrix and reuse for
/// every multiplication against it.
#[derive(Debug, Clone)]
pub struct PackedA {
    m: usize,
    k: usize,
    data: Vec<f32>,
}

impl PackedA {
    /// Row count of the original matrix.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Shared-dimension length of the original matrix.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Repacks a row-major `A: [m, k]` into [`PackedA`] panels: `KC`-deep
/// slabs outermost, then `MR`-row micro-panels, each stored k-major so
/// the micro-kernel reads both operands with unit stride.
///
/// # Panics
///
/// Panics if the slice length disagrees with the given dimensions.
pub fn pack_a(a: &[f32], m: usize, k: usize) -> PackedA {
    assert_eq!(a.len(), m * k, "pack_a input length");
    let panels = m.div_ceil(MR);
    let mut data = vec![0.0f32; panels * MR * k];
    let mut pos = 0;
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        for p in 0..panels {
            for kk in 0..kc {
                for r in 0..MR {
                    let i = p * MR + r;
                    data[pos] = if i < m { a[i * k + k0 + kk] } else { 0.0 };
                    pos += 1;
                }
            }
        }
    }
    PackedA { m, k, data }
}

/// Matrix product `A · B` into `out` for a pre-packed `A: [m, k]`,
/// row-major `B: [k, n]`, `out: [m, n]`. Overwrites `out`. Bit-identical
/// to [`ops::matmul_into`](crate::ops::matmul_into) (see the module
/// docs for why).
///
/// `pack_buf` is scratch for the `B` panels; it is grown to a fixed
/// capacity (`KC·NC` floats) on first use and never after, so reusing it
/// across calls makes the steady state allocation-free.
///
/// # Panics
///
/// Panics if a slice length disagrees with the packed dimensions.
pub fn matmul_packed_into(
    pa: &PackedA,
    b: &[f32],
    n: usize,
    pack_buf: &mut Vec<f32>,
    out: &mut [f32],
) {
    matmul_packed_into_with(active_level(), gemm_threads(), pa, b, n, pack_buf, out);
}

/// [`matmul_packed_into`] with the micro-kernel level and worker-thread
/// count given explicitly instead of read from the process-global
/// dispatch state. The workhorse behind the SIMD-vs-scalar equivalence
/// tests and the kernel microbenchmark; every `(level, threads)`
/// combination produces byte-identical output.
///
/// # Panics
///
/// Panics if a slice length disagrees with the packed dimensions.
pub fn matmul_packed_into_with(
    level: SimdLevel,
    threads: usize,
    pa: &PackedA,
    b: &[f32],
    n: usize,
    pack_buf: &mut Vec<f32>,
    out: &mut [f32],
) {
    let (m, k) = (pa.m, pa.k);
    assert_eq!(b.len(), k * n, "matmul_packed_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_packed_into out length");
    if k == 0 {
        // Degenerate: the naive kernel zero-fills and adds nothing.
        out.fill(0.0);
        return;
    }
    // Fan out only when each worker gets at least one whole NC column
    // block and the product is big enough to amortize thread spawns.
    let blocks = n.div_ceil(NC);
    let threads = threads.max(1).min(blocks);
    if threads <= 1 || m * k * n < PAR_MIN_MADDS {
        pack_buf.resize(KC * NC, 0.0);
        // SAFETY: the full column range [0, n) on the caller's thread is
        // exactly the exclusive borrow `out` already grants.
        unsafe { gemm_col_range(level, pa, b, n, 0, n, pack_buf, out.as_mut_ptr()) };
        return;
    }

    struct OutPtr(*mut f32);
    // SAFETY: workers write disjoint column ranges of `out` (see below).
    unsafe impl Send for OutPtr {}
    unsafe impl Sync for OutPtr {}
    let out_ptr = OutPtr(out.as_mut_ptr());
    let per = blocks / threads;
    let extra = blocks % threads;
    std::thread::scope(|scope| {
        let out_ptr = &out_ptr;
        let mut block0 = 0;
        for w in 0..threads {
            let nblocks = per + usize::from(w < extra);
            let j_lo = block0 * NC;
            let j_hi = ((block0 + nblocks) * NC).min(n);
            block0 += nblocks;
            scope.spawn(move || {
                let mut local_pack = vec![0.0f32; KC * NC];
                // SAFETY: each worker's [j_lo, j_hi) range is disjoint
                // (contiguous NC-aligned partition of [0, n)), and a
                // micro-tile only reads/writes `out` columns inside its
                // own range — so no two threads touch the same element.
                unsafe { gemm_col_range(level, pa, b, n, j_lo, j_hi, &mut local_pack, out_ptr.0) };
            });
        }
    });
}

/// The blocked GEMM restricted to output columns `[j_lo, j_hi)`: packs
/// `B` column panels for that range and sweeps the `KC`/`MC` blocking
/// loops over them. Column `j`'s arithmetic is independent of the range
/// it is computed in, so any partition of `[0, n)` reproduces the
/// full-range result bit for bit — this is what makes the threaded path
/// deterministic.
///
/// # Safety
///
/// `out` must point to an `m·n` f32 buffer; the caller must guarantee no
/// other thread reads or writes columns `[j_lo, j_hi)` of it for the
/// duration of the call. `j_lo` must be NC-aligned and `j_lo <= j_hi <=
/// n`.
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_col_range(
    level: SimdLevel,
    pa: &PackedA,
    b: &[f32],
    n: usize,
    j_lo: usize,
    j_hi: usize,
    pack_buf: &mut Vec<f32>,
    out: *mut f32,
) {
    let (m, k) = (pa.m, pa.k);
    let panels = m.div_ceil(MR);
    pack_buf.resize(KC * NC, 0.0);
    for jc in (j_lo..j_hi).step_by(NC) {
        let nc = NC.min(j_hi - jc);
        let npanels = nc.div_ceil(NR);
        for (kb, k0) in (0..k).step_by(KC).enumerate() {
            let kc = KC.min(k - k0);
            // Pack this B slab: `npanels` column panels, k-major, the
            // ragged last panel zero-padded to NR lanes.
            for q in 0..npanels {
                let j0 = jc + q * NR;
                let ncols = NR.min(j_hi - j0);
                let dst = &mut pack_buf[q * kc * NR..(q + 1) * kc * NR];
                for kk in 0..kc {
                    let brow = &b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + ncols];
                    let lane = &mut dst[kk * NR..(kk + 1) * NR];
                    lane[..ncols].copy_from_slice(brow);
                    lane[ncols..].fill(0.0);
                }
            }
            let first = kb == 0;
            let a_block = &pa.data[panels * MR * k0..panels * MR * (k0 + kc)];
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                for q in 0..npanels {
                    let j0 = jc + q * NR;
                    let ncols = NR.min(j_hi - j0);
                    let b_panel = &pack_buf[q * kc * NR..(q + 1) * kc * NR];
                    for ir in (0..mc).step_by(MR) {
                        let i0 = ic + ir;
                        // MC is a multiple of MR, so i0 always starts a panel.
                        let a_panel = &a_block[(i0 / MR) * kc * MR..(i0 / MR + 1) * kc * MR];
                        let nrows = MR.min(m - i0);
                        micro_kernel(
                            level, a_panel, b_panel, kc, first, out, n, i0, j0, nrows, ncols,
                        );
                    }
                }
            }
        }
    }
}

/// `MR×NR` register tile: load the partial `C` tile (zero on the first
/// `k` slab), accumulate `kc` ascending rank-1 updates via the level's
/// lane kernel, store back the valid lanes. Padded lanes compute garbage
/// that is never stored.
///
/// # Safety
///
/// `out` must point to an `m·n` buffer whose tile
/// `[i0, i0+nrows) × [j0, j0+ncols)` this thread exclusively owns.
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel(
    level: SimdLevel,
    a_panel: &[f32],
    b_panel: &[f32],
    kc: usize,
    first: bool,
    out: *mut f32,
    n: usize,
    i0: usize,
    j0: usize,
    nrows: usize,
    ncols: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (r, row) in acc.iter_mut().enumerate().take(nrows) {
            let off = (i0 + r) * n + j0;
            std::ptr::copy_nonoverlapping(out.add(off), row.as_mut_ptr(), ncols);
        }
    }
    accumulate(level, a_panel, b_panel, kc, &mut acc);
    for (r, row) in acc.iter().enumerate().take(nrows) {
        let off = (i0 + r) * n + j0;
        std::ptr::copy_nonoverlapping(row.as_ptr(), out.add(off), ncols);
    }
}

/// Dispatches the `kc` rank-1 updates of one tile to the level's lane
/// kernel. A level the host cannot execute (foreign architecture) runs
/// the scalar kernel — results are identical either way.
#[inline]
fn accumulate(
    level: SimdLevel,
    a_panel: &[f32],
    b_panel: &[f32],
    kc: usize,
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert!(a_panel.len() >= kc * MR && b_panel.len() >= kc * NR);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        SimdLevel::Sse2 => unsafe { accumulate_sse2(a_panel, b_panel, kc, acc) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: guarded by the runtime feature check.
            unsafe { accumulate_avx2(a_panel, b_panel, kc, acc) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 if std::arch::is_x86_feature_detected!("avx512f") => {
            // SAFETY: guarded by the runtime feature check.
            unsafe { accumulate_avx512(a_panel, b_panel, kc, acc) }
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline.
        SimdLevel::Neon => unsafe { accumulate_neon(a_panel, b_panel, kc, acc) },
        _ => accumulate_scalar(a_panel, b_panel, kc, acc),
    }
}

/// The reference lane kernel: per accumulator, `kc` ascending mul-then-add
/// updates. Every SIMD kernel below reproduces exactly this recurrence per
/// lane.
#[inline]
fn accumulate_scalar(a_panel: &[f32], b_panel: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    for kk in 0..kc {
        let av: &[f32; MR] = a_panel[kk * MR..(kk + 1) * MR].try_into().unwrap();
        let bv: &[f32; NR] = b_panel[kk * NR..(kk + 1) * NR].try_into().unwrap();
        for (row, &a) in acc.iter_mut().zip(av.iter()) {
            for (o, &x) in row.iter_mut().zip(bv.iter()) {
                *o += a * x;
            }
        }
    }
}

/// SSE2 lane kernel: 4 rows × four 4-lane registers. Explicit
/// `_mm_mul_ps` + `_mm_add_ps` (never FMA) in ascending `k`, so each lane
/// is bit-identical to the scalar recurrence.
///
/// # Safety
///
/// Caller must ensure the panels hold at least `kc` steps (checked by the
/// dispatcher's debug assert) and that SSE2 is available (x86_64
/// baseline).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn accumulate_sse2(a_panel: &[f32], b_panel: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    let mut c = [[_mm_setzero_ps(); 4]; MR];
    for (r, row) in acc.iter().enumerate() {
        for (v, cv) in row.chunks_exact(4).zip(c[r].iter_mut()) {
            *cv = _mm_loadu_ps(v.as_ptr());
        }
    }
    for kk in 0..kc {
        let bp = b_panel.as_ptr().add(kk * NR);
        let b = [
            _mm_loadu_ps(bp),
            _mm_loadu_ps(bp.add(4)),
            _mm_loadu_ps(bp.add(8)),
            _mm_loadu_ps(bp.add(12)),
        ];
        let ap = a_panel.as_ptr().add(kk * MR);
        for (r, crow) in c.iter_mut().enumerate() {
            let a = _mm_set1_ps(*ap.add(r));
            for (cv, &bv) in crow.iter_mut().zip(b.iter()) {
                *cv = _mm_add_ps(*cv, _mm_mul_ps(a, bv));
            }
        }
    }
    for (r, row) in acc.iter_mut().enumerate() {
        for (v, cv) in row.chunks_exact_mut(4).zip(c[r].iter()) {
            _mm_storeu_ps(v.as_mut_ptr(), *cv);
        }
    }
}

/// AVX2 lane kernel: 4 rows × two 8-lane registers, mul-then-add.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and the panels hold `kc` steps.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_avx2(a_panel: &[f32], b_panel: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    let mut c = [[_mm256_setzero_ps(); 2]; MR];
    for (r, row) in acc.iter().enumerate() {
        c[r][0] = _mm256_loadu_ps(row.as_ptr());
        c[r][1] = _mm256_loadu_ps(row.as_ptr().add(8));
    }
    for kk in 0..kc {
        let bp = b_panel.as_ptr().add(kk * NR);
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        let ap = a_panel.as_ptr().add(kk * MR);
        for (r, crow) in c.iter_mut().enumerate() {
            let a = _mm256_set1_ps(*ap.add(r));
            crow[0] = _mm256_add_ps(crow[0], _mm256_mul_ps(a, b0));
            crow[1] = _mm256_add_ps(crow[1], _mm256_mul_ps(a, b1));
        }
    }
    for (r, row) in acc.iter_mut().enumerate() {
        _mm256_storeu_ps(row.as_mut_ptr(), c[r][0]);
        _mm256_storeu_ps(row.as_mut_ptr().add(8), c[r][1]);
    }
}

/// AVX-512F lane kernel: 4 rows × one 16-lane register (a full NR tile
/// row per register), mul-then-add.
///
/// # Safety
///
/// Caller must ensure AVX-512F is available and the panels hold `kc`
/// steps.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn accumulate_avx512(
    a_panel: &[f32],
    b_panel: &[f32],
    kc: usize,
    acc: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    let mut c = [_mm512_setzero_ps(); MR];
    for (r, row) in acc.iter().enumerate() {
        c[r] = _mm512_loadu_ps(row.as_ptr());
    }
    for kk in 0..kc {
        let b = _mm512_loadu_ps(b_panel.as_ptr().add(kk * NR));
        let ap = a_panel.as_ptr().add(kk * MR);
        for (r, cv) in c.iter_mut().enumerate() {
            let a = _mm512_set1_ps(*ap.add(r));
            *cv = _mm512_add_ps(*cv, _mm512_mul_ps(a, b));
        }
    }
    for (r, row) in acc.iter_mut().enumerate() {
        _mm512_storeu_ps(row.as_mut_ptr(), c[r]);
    }
}

/// NEON lane kernel: 4 rows × four 4-lane registers, `vmulq`/`vaddq`
/// (never `vfmaq` — fused multiply-add would change the rounding).
///
/// # Safety
///
/// Caller must ensure the panels hold `kc` steps (NEON itself is aarch64
/// baseline).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn accumulate_neon(a_panel: &[f32], b_panel: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    use std::arch::aarch64::*;
    let mut c = [[vdupq_n_f32(0.0); 4]; MR];
    for (r, row) in acc.iter().enumerate() {
        for (v, cv) in row.chunks_exact(4).zip(c[r].iter_mut()) {
            *cv = vld1q_f32(v.as_ptr());
        }
    }
    for kk in 0..kc {
        let bp = b_panel.as_ptr().add(kk * NR);
        let b = [
            vld1q_f32(bp),
            vld1q_f32(bp.add(4)),
            vld1q_f32(bp.add(8)),
            vld1q_f32(bp.add(12)),
        ];
        let ap = a_panel.as_ptr().add(kk * MR);
        for (r, crow) in c.iter_mut().enumerate() {
            let a = vdupq_n_f32(*ap.add(r));
            for (cv, &bv) in crow.iter_mut().zip(b.iter()) {
                *cv = vaddq_f32(*cv, vmulq_f32(a, bv));
            }
        }
    }
    for (r, row) in acc.iter_mut().enumerate() {
        for (v, cv) in row.chunks_exact_mut(4).zip(c[r].iter()) {
            vst1q_f32(v.as_mut_ptr(), *cv);
        }
    }
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

/// Interior core of a stride-1 direct convolution: for every output
/// channel `oc < out_c` and lane `j < span`,
///
/// ```text
/// out[oc·out_stride + j] = Σ_{ch,ky,kx} weight[oc·k + tap] ·
///     image[(ch·h + iy0 + ky)·w + ix0 + j + kx]
/// ```
///
/// — `span` consecutive cells of one output row whose receptive fields
/// are fully in bounds (the caller carves off padded edge strips first).
/// Taps accumulate in the `(ch, ky, kx)`-major order of
/// [`crate::ops::conv2d_region_into`] with separate mul-then-add, and output
/// lanes are independent columns, so every level is bit-identical to the
/// scalar accumulation. Bias is **not** added here. The span is walked
/// greedily through descending vector widths (16 → 8 → 4 → scalar on
/// x86), so a span-14 row runs as one AVX2 block, one SSE2 block, and
/// two scalar lanes rather than leaving six lanes to the scalar tail —
/// the split changes nothing numerically because every lane is an
/// independent column.
///
/// # Panics
///
/// Panics if a slice length disagrees with the geometry arguments or the
/// tap window `[iy0, iy0 + kh) × [ix0, ix0 + span + kw - 1)` leaves the
/// image.
#[allow(clippy::too_many_arguments)]
pub fn conv_direct_core_into(
    level: SimdLevel,
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    weight: &[f32],
    out_c: usize,
    iy0: usize,
    ix0: usize,
    span: usize,
    out: &mut [f32],
    out_stride: usize,
) {
    assert_eq!(image.len(), c * h * w, "conv_direct_core_into image length");
    assert_eq!(
        weight.len(),
        out_c * c * kh * kw,
        "conv_direct_core_into weight length"
    );
    assert!(
        iy0 + kh <= h && ix0 + span + kw - 1 <= w,
        "tap window leaves the {h}x{w} image"
    );
    assert!(
        span > 0 && (out_c - 1) * out_stride + span <= out.len(),
        "conv_direct_core_into out range"
    );
    let mut done = 0usize;
    while done < span {
        let rem = span - done;
        // Widest level whose full register the remaining lanes fill,
        // capped at the caller's `level`. The chunk is a whole multiple
        // of that width, so the kernels' scalar lane tails never run —
        // the final sub-width remainder goes to the scalar core.
        let eff = match level {
            SimdLevel::Avx512 if rem >= 16 => SimdLevel::Avx512,
            SimdLevel::Avx512 | SimdLevel::Avx2 if rem >= 8 => SimdLevel::Avx2,
            SimdLevel::Avx512 | SimdLevel::Avx2 | SimdLevel::Sse2 if rem >= 4 => SimdLevel::Sse2,
            SimdLevel::Neon if rem >= 4 => SimdLevel::Neon,
            _ => SimdLevel::Scalar,
        };
        let chunk = match eff {
            SimdLevel::Avx512 => rem / 16 * 16,
            SimdLevel::Avx2 => 8,
            SimdLevel::Sse2 | SimdLevel::Neon => 4,
            SimdLevel::Scalar => rem,
        };
        let (ix, o) = (ix0 + done, &mut out[done..]);
        match eff {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is part of the x86_64 baseline; ranges asserted.
            SimdLevel::Sse2 => unsafe {
                conv_core_sse2(
                    image, c, h, w, kh, kw, weight, out_c, iy0, ix, chunk, o, out_stride,
                )
            },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: guarded by the runtime feature check.
                unsafe {
                    conv_core_avx2(
                        image, c, h, w, kh, kw, weight, out_c, iy0, ix, chunk, o, out_stride,
                    )
                }
            }
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 if std::arch::is_x86_feature_detected!("avx512f") => {
                // SAFETY: guarded by the runtime feature check.
                unsafe {
                    conv_core_avx512(
                        image, c, h, w, kh, kw, weight, out_c, iy0, ix, chunk, o, out_stride,
                    )
                }
            }
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is part of the aarch64 baseline; ranges asserted.
            SimdLevel::Neon => unsafe {
                conv_core_neon(
                    image, c, h, w, kh, kw, weight, out_c, iy0, ix, chunk, o, out_stride,
                )
            },
            _ => conv_core_scalar(
                image, c, h, w, kh, kw, weight, out_c, iy0, ix, chunk, o, out_stride,
            ),
        }
        done += chunk;
    }
}

/// Reference interior-core kernel: each cell accumulates its taps from
/// zero in `(ch, ky, kx)` order — exactly the scalar recurrence of
/// `ops::conv2d_region_into` for cells with no out-of-bounds taps.
#[allow(clippy::too_many_arguments)]
fn conv_core_scalar(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    weight: &[f32],
    out_c: usize,
    iy0: usize,
    ix0: usize,
    span: usize,
    out: &mut [f32],
    out_stride: usize,
) {
    let k = c * kh * kw;
    for oc in 0..out_c {
        let wrow = &weight[oc * k..(oc + 1) * k];
        let orow = &mut out[oc * out_stride..oc * out_stride + span];
        for (j, o) in orow.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            let mut t = 0;
            for ch in 0..c {
                for ky in 0..kh {
                    let base = (ch * h + iy0 + ky) * w + ix0 + j;
                    for kx in 0..kw {
                        acc += wrow[t] * image[base + kx];
                        t += 1;
                    }
                }
            }
            *o = acc;
        }
    }
}

/// Generates one `conv_core_*` SIMD kernel: four output channels at a
/// time (four independent accumulator chains hide add latency; the tap
/// load is shared) over `LANES`-wide column blocks, then scalar lane
/// tails and a single-channel remainder — all in the exact tap order of
/// [`conv_core_scalar`], so every lane is bit-identical to it.
macro_rules! conv_core_kernel {
    ($name:ident, $arch:literal, $feature:literal, $lanes:expr, $set1:ident, $load:ident, $store:ident, $zero:expr, $mul:ident, $add:ident) => {
        #[cfg(target_arch = $arch)]
        #[target_feature(enable = $feature)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $name(
            image: &[f32],
            c: usize,
            h: usize,
            w: usize,
            kh: usize,
            kw: usize,
            weight: &[f32],
            out_c: usize,
            iy0: usize,
            ix0: usize,
            span: usize,
            out: &mut [f32],
            out_stride: usize,
        ) {
            const L: usize = $lanes;
            let k = c * kh * kw;
            let img = image.as_ptr();
            let mut oc = 0;
            while oc + 4 <= out_c {
                let w0 = weight.as_ptr().add(oc * k);
                let (w1, w2, w3) = (w0.add(k), w0.add(2 * k), w0.add(3 * k));
                let o0 = out.as_mut_ptr().add(oc * out_stride);
                let (o1, o2, o3) = (
                    o0.add(out_stride),
                    o0.add(2 * out_stride),
                    o0.add(3 * out_stride),
                );
                let mut j = 0;
                while j + L <= span {
                    let (mut a0, mut a1, mut a2, mut a3) = ($zero, $zero, $zero, $zero);
                    let mut t = 0;
                    for ch in 0..c {
                        for ky in 0..kh {
                            let base = img.add((ch * h + iy0 + ky) * w + ix0 + j);
                            for kx in 0..kw {
                                let xv = $load(base.add(kx));
                                a0 = $add(a0, $mul($set1(*w0.add(t)), xv));
                                a1 = $add(a1, $mul($set1(*w1.add(t)), xv));
                                a2 = $add(a2, $mul($set1(*w2.add(t)), xv));
                                a3 = $add(a3, $mul($set1(*w3.add(t)), xv));
                                t += 1;
                            }
                        }
                    }
                    $store(o0.add(j), a0);
                    $store(o1.add(j), a1);
                    $store(o2.add(j), a2);
                    $store(o3.add(j), a3);
                    j += L;
                }
                while j < span {
                    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                    let mut t = 0;
                    for ch in 0..c {
                        for ky in 0..kh {
                            let base = img.add((ch * h + iy0 + ky) * w + ix0 + j);
                            for kx in 0..kw {
                                let xv = *base.add(kx);
                                s0 += *w0.add(t) * xv;
                                s1 += *w1.add(t) * xv;
                                s2 += *w2.add(t) * xv;
                                s3 += *w3.add(t) * xv;
                                t += 1;
                            }
                        }
                    }
                    *o0.add(j) = s0;
                    *o1.add(j) = s1;
                    *o2.add(j) = s2;
                    *o3.add(j) = s3;
                    j += 1;
                }
                oc += 4;
            }
            while oc < out_c {
                let w0 = weight.as_ptr().add(oc * k);
                let o0 = out.as_mut_ptr().add(oc * out_stride);
                let mut j = 0;
                while j + L <= span {
                    let mut a0 = $zero;
                    let mut t = 0;
                    for ch in 0..c {
                        for ky in 0..kh {
                            let base = img.add((ch * h + iy0 + ky) * w + ix0 + j);
                            for kx in 0..kw {
                                a0 = $add(a0, $mul($set1(*w0.add(t)), $load(base.add(kx))));
                                t += 1;
                            }
                        }
                    }
                    $store(o0.add(j), a0);
                    j += L;
                }
                while j < span {
                    let mut s0 = 0.0f32;
                    let mut t = 0;
                    for ch in 0..c {
                        for ky in 0..kh {
                            let base = img.add((ch * h + iy0 + ky) * w + ix0 + j);
                            for kx in 0..kw {
                                s0 += *w0.add(t) * *base.add(kx);
                                t += 1;
                            }
                        }
                    }
                    *o0.add(j) = s0;
                    j += 1;
                }
                oc += 1;
            }
        }
    };
}

conv_core_kernel!(
    conv_core_sse2,
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
conv_core_kernel!(
    conv_core_avx2,
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
conv_core_kernel!(
    conv_core_avx512,
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
conv_core_kernel!(
    conv_core_neon,
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
/// Build it once per plan, like [`PackedA`].
#[derive(Debug, Clone)]
pub struct ConvLanes {
    out_c: usize,
    k: usize,
    width: usize,
    weight: Vec<f32>,
    bias: Vec<f32>,
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
        }
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
/// These are exactly the taps [`crate::ops::conv2d_region_into`] does
/// not skip.
fn tap_window(o: usize, s: usize, p: usize, k: usize, n: usize) -> (usize, usize) {
    let lo = p.saturating_sub(o * s).min(k);
    let hi = (n + p).saturating_sub(o * s).min(k);
    (lo, hi.max(lo))
}

/// Batched region convolution: for every job `(image, rect, out)`,
/// recomputes `out[oc, oy, ox]` for each `(oy, ox)` in `rect` from the
/// `[c, h, w]` `image` and leaves every other output cell untouched —
/// bit for bit what [`crate::ops::conv2d_region_into`] writes with the
/// `[out_c, k]` weights and bias `lanes` was built from. The delta
/// engine passes one job per dirty candidate.
///
/// The lanes of each register are output channels. Pixels go in tiles
/// of up to eight, sized to the register file, that carry over from one
/// job to the next, so a tile spans candidates where a rectangle runs
/// short; per tap the tile loads its weight registers once for all its
/// pixels. Each pixel's accumulators start from `0.0`, take every
/// in-bounds tap in `(ch, ky, kx)` order as a separate multiply then add
/// (never FMA), then the bias, so each lane is the scalar recurrence and
/// the tile a pixel lands in never changes a bit. Pixels whose window is
/// clipped by the padding skip the out-of-bounds taps, as the scalar
/// kernel does; they share a tile only with pixels of the same window.
/// Padding lanes are never stored.
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
/// then the bias — the recurrence of `ops::conv2d_region_into`.
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
            *dst.add(oc * cx.plane) = acc + *cx.bias.add(oc);
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
/// are stored.
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
                        *dst.add(j * cx.plane) = v;
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
    fn gemm_threads_env_parse_table() {
        // Valid values parse cleanly.
        for (value, want) in [(None, 1), (Some(""), 1), (Some("1"), 1), (Some("4"), 4)] {
            let (got, warning) = gemm_threads_env(value);
            assert_eq!(got, want, "{value:?}");
            assert!(warning.is_none(), "{value:?} must not warn: {warning:?}");
        }
        // Out-of-range and unparsable values fall back with a warning.
        let (got, warning) = gemm_threads_env(Some("0"));
        assert_eq!(got, 1);
        assert!(warning.expect("must warn").contains("out of range"));
        let (got, warning) = gemm_threads_env(Some("1000000"));
        assert_eq!(got, MAX_GEMM_THREADS);
        assert!(warning.expect("must warn").contains("clamping"));
        for value in ["four", "-2", "3.5", "4 threads"] {
            let (got, warning) = gemm_threads_env(Some(value));
            assert_eq!(got, 1, "{value:?} falls back to sequential");
            assert!(warning.is_some(), "{value:?} must warn");
        }
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
