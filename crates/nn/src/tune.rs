//! Arch-adaptive kernel-route tuning for compiled plans.
//!
//! The inference planner has two bit-identical routes for every
//! convolution of a full forward — the fused direct kernel
//! ([`oppsla_tensor::ops::conv2d_region_into`]) and the im2col + packed
//! GEMM pipeline. Which route is faster depends on the layer shape, the
//! cache hierarchy, and the SIMD level the GEMM dispatches to, so a
//! hand-coded threshold tuned on one machine (the old
//! `DIRECT_CONV_MIN_PIXELS` constant) silently mis-routes on another —
//! the committed densenet-small `engine_speedup` 0.968 regression was
//! exactly that. The delta engine needs no tuning: its sequential route
//! always runs the region kernel and its batched route always runs the
//! channel-lane kernel ([`oppsla_tensor::gemm::conv2d_region_batch_into`]).
//!
//! This module measures instead: at plan-compile time each unique
//! `(geometry, out_c)` conv shape runs both routes on a deterministic
//! synthetic input (best-of-trials wall time) and the plan caches the
//! winner. Because the routes are bit-identical, tuning can never change
//! a score — only wall-clock time — so attack stdout stays byte-identical
//! whatever the tuner decides. `OPPSLA_TUNE=off` (or
//! [`set_policy`]`(TunePolicy::Off)`, the `--tune off` CLI flag) pins the
//! static threshold instead, making plan construction itself
//! deterministic for A/B timing comparisons.
//!
//! Decisions are recorded in the plan
//! ([`crate::infer::InferencePlan::tuner_report`]) so bench reports can
//! attribute regressions to dispatch vs kernel.

use oppsla_tensor::gemm::{self, PackedA};
use oppsla_tensor::ops::{self, Conv2dGeometry, Rect};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// How plan compilation picks conv kernel routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunePolicy {
    /// Measure both routes per unique conv shape and take the faster
    /// (the default).
    Measure,
    /// Pin the static hand-tuned threshold; no timing at compile.
    Off,
}

/// `0` = unresolved, otherwise `TunePolicy` discriminant + 1.
static POLICY: AtomicU8 = AtomicU8::new(0);

/// Resolves `OPPSLA_TUNE`: `off` or `0` (case-insensitive) pin the
/// static threshold; unset, empty, `on`, `1` and `measure` keep the
/// measuring default. Any other value also keeps the default but returns
/// a warning — in a daemon a typo like `OPPSLA_TUNE=of` should be
/// visible once on stderr, not silently interpreted as "measure". Split
/// out so the parse table is unit-testable without mutating the process
/// environment.
pub(crate) fn off_env(value: Option<&str>) -> (bool, Option<String>) {
    match value {
        None => (false, None),
        Some(v) => match v.to_ascii_lowercase().as_str() {
            "off" | "0" => (true, None),
            "" | "on" | "1" | "measure" => (false, None),
            other => (
                false,
                Some(format!(
                    "OPPSLA_TUNE={other:?} is not a recognized policy \
                     (use off or measure); keeping the measuring default"
                )),
            ),
        },
    }
}

/// The active tuning policy: [`TunePolicy::Measure`] unless
/// `OPPSLA_TUNE=off` or [`set_policy`] said otherwise. An unrecognized
/// `OPPSLA_TUNE` value warns once on stderr and keeps the default.
pub fn policy() -> TunePolicy {
    match POLICY.load(Ordering::Relaxed) {
        0 => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            let (off, warning) = off_env(std::env::var("OPPSLA_TUNE").ok().as_deref());
            if let Some(msg) = &warning {
                WARNED.call_once(|| eprintln!("warning: {msg}"));
            }
            let p = if off {
                TunePolicy::Off
            } else {
                TunePolicy::Measure
            };
            POLICY.store(code(p), Ordering::Relaxed);
            p
        }
        1 => TunePolicy::Measure,
        _ => TunePolicy::Off,
    }
}

/// Overrides the tuning policy for subsequently compiled plans. Safe at
/// any time: routes are bit-identical, so already-compiled plans remain
/// correct whichever policy chose their routes.
pub fn set_policy(p: TunePolicy) {
    POLICY.store(code(p), Ordering::Relaxed);
}

fn code(p: TunePolicy) -> u8 {
    match p {
        TunePolicy::Measure => 1,
        TunePolicy::Off => 2,
    }
}

/// The tuner's verdict for one full-forward convolution: which route the
/// plan runs and the timings (zero when the static policy decided).
#[derive(Debug, Clone)]
pub struct ConvRouteDecision {
    /// Output channels of the conv.
    pub out_c: usize,
    /// Reduction depth `in_c · kh · kw`.
    pub k: usize,
    /// Output pixels `oh · ow` (the GEMM's column count).
    pub out_pixels: usize,
    /// `true` → fused direct kernel, `false` → im2col + packed GEMM.
    pub direct: bool,
    /// Whether the routes were timed (`false` under [`TunePolicy::Off`]).
    pub measured: bool,
    /// Best-of-trials nanoseconds for the direct route (0 if unmeasured).
    pub direct_ns: u64,
    /// Best-of-trials nanoseconds for the GEMM route (0 if unmeasured).
    pub gemm_ns: u64,
}

impl ConvRouteDecision {
    /// A static (unmeasured) decision under [`TunePolicy::Off`].
    pub(crate) fn unmeasured(out_c: usize, k: usize, out_pixels: usize, direct: bool) -> Self {
        ConvRouteDecision {
            out_c,
            k,
            out_pixels,
            direct,
            measured: false,
            direct_ns: 0,
            gemm_ns: 0,
        }
    }

    /// Short route name for bench reports.
    pub fn route(&self) -> &'static str {
        if self.direct {
            "direct"
        } else {
            "gemm"
        }
    }
}

/// Timed repetitions per route; the minimum is taken. A warmup run
/// precedes timing so neither route pays first-touch page faults.
const TRIALS: usize = 2;

/// Deterministic synthetic activations for tuner probes — fixed LCG, so
/// every compile measures the same arithmetic (values only affect timing
/// through denormals, which the range here avoids).
fn probe_input(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 8) as f32 / (1 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Best-of-[`TRIALS`] wall time of `f`, after one untimed warmup.
fn best_ns<F: FnMut()>(mut f: F) -> u64 {
    f();
    let mut best = u64::MAX;
    for _ in 0..TRIALS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

/// Times the direct kernel against the im2col + packed GEMM for one full
/// conv and returns the faster route. Both routes compute the identical
/// output, so only wall time is at stake.
pub(crate) fn tune_conv_route(
    weight: &[f32],
    bias: &[f32],
    packed: &PackedA,
    geom: &Conv2dGeometry,
    out_c: usize,
) -> ConvRouteDecision {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let area = oh * ow;
    let k = geom.in_channels * geom.kernel_h * geom.kernel_w;
    let input = probe_input(geom.in_channels * geom.in_h * geom.in_w, 0x7e57);
    let mut out = vec![0.0f32; out_c * area];

    let full = Rect::full(oh, ow);
    let direct_ns = best_ns(|| {
        ops::conv2d_region_into(&input, weight, bias, geom, out_c, full, &mut out);
    });

    let mut cols = vec![0.0f32; k * area];
    let mut pack_buf = Vec::new();
    let gemm_ns = best_ns(|| {
        ops::im2col_into(&input, geom, &mut cols);
        gemm::matmul_packed_into(packed, &cols, area, &mut pack_buf, &mut out);
        for oc in 0..out_c {
            let b = bias[oc];
            for v in &mut out[oc * area..(oc + 1) * area] {
                *v += b;
            }
        }
    });

    ConvRouteDecision {
        out_c,
        k,
        out_pixels: area,
        direct: direct_ns <= gemm_ns,
        measured: true,
        direct_ns,
        gemm_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_env_policy() {
        // Recognized spellings parse cleanly (no warning).
        for (value, want_off) in [
            (None, false),
            (Some(""), false),
            (Some("1"), false),
            (Some("on"), false),
            (Some("measure"), false),
            (Some("off"), true),
            (Some("OFF"), true),
            (Some("0"), true),
        ] {
            let (off, warning) = off_env(value);
            assert_eq!(off, want_off, "{value:?}");
            assert!(warning.is_none(), "{value:?} must not warn: {warning:?}");
        }
        // Unrecognized values keep the measuring default, with a warning.
        for value in ["of", "disable", "2"] {
            let (off, warning) = off_env(Some(value));
            assert!(!off, "{value:?} keeps the default");
            assert!(warning.is_some(), "{value:?} must warn");
        }
    }
}
