//! Evaluation harness reproducing every table and figure of the OPPSLA
//! paper.
//!
//! * [`zoo`] — trains/caches the classifier zoo (the paper's pre-trained
//!   CNNs, rebuilt at laptop scale) and generates attack test sets.
//! * [`curves`] — per-image attack evaluation and success-rate-vs-budget
//!   curves (**Figure 3**).
//! * [`suite`] — per-class program synthesis and dispatch.
//! * [`prior`] — mining per-class pixel-saliency priors from trace
//!   corpora (the initial-queue reordering of `oppsla_core::prior`).
//! * [`transfer`] — the transferability matrix (**Table 1**).
//! * [`trajectory`] — synthesis-cost trajectories (**Figure 4**).
//! * [`ablation`] — conditions/search ablation (**Table 2**, Appendix C).
//! * [`plot`] — ASCII line charts for terminal figure rendering.
//! * [`report`] — ASCII tables and CSV export.
//! * [`convert`] — tensor ↔ attack-image conversions.
//! * [`obs`] — telemetry plumbing: phase-scoped metric emission and
//!   summary tables (non-zero once the recorder is armed).
//! * [`cli`] — the `--key value` parser every experiment and server
//!   binary uses.
//!
//! The experiment binaries in `oppsla-bench` are thin CLI wrappers around
//! these modules.

#![warn(missing_docs)]

pub mod ablation;
pub mod cli;
pub mod convert;
pub mod curves;
pub mod obs;
pub mod plot;
pub mod prior;
pub mod report;
pub mod suite;
pub mod trajectory;
pub mod transfer;
pub mod zoo;
