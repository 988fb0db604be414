//! Glue between oracle-query sites and [`telemetry::trace`]: a helper
//! that derives the margin, predicted class, and label flip from one
//! query's scores and records the trace event. One relaxed load and a
//! branch unless a trace is armed.

use crate::goal::AttackGoal;
use crate::oracle::argmax;
use crate::pair::{Location, Pixel};
use crate::telemetry::trace;

/// Records one oracle query in the active trace.
///
/// `seq` is the query's 1-based ordinal within its per-image run (the
/// oracle's count minus the count at run start); `pixel` is the perturbed
/// pixel, or `None` for a full-image (baseline) query. Routing and
/// delta-cache tags are joined in from the thread-local pending tags the
/// oracle and inference engine set during the call.
#[inline(always)]
pub fn record_oracle_query(
    phase: &'static str,
    seq: u64,
    pixel: Option<(Location, Pixel)>,
    scores: &[f32],
    true_class: usize,
    goal: AttackGoal,
) {
    if trace::armed() {
        record_armed(phase, seq, pixel, scores, true_class, goal);
    }
}

#[cold]
#[inline(never)]
fn record_armed(
    phase: &'static str,
    seq: u64,
    pixel: Option<(Location, Pixel)>,
    scores: &[f32],
    true_class: usize,
    goal: AttackGoal,
) {
    let pred = argmax(scores);
    trace::record_query(trace::QueryInfo {
        phase,
        seq,
        pixel: pixel.map(|(loc, px)| (u32::from(loc.row), u32::from(loc.col), px.0)),
        margin: goal.margin(scores, true_class),
        pred: pred as u32,
        flip: pred != true_class,
    });
}
