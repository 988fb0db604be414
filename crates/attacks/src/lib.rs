//! One-pixel attack implementations for the OPPSLA reproduction.
//!
//! This crate hosts the attacks the paper evaluates:
//!
//! * [`SketchProgramAttack`] — a synthesized (or baseline) adversarial
//!   program run through the core sketch; OPPSLA's own attack object and
//!   the Sketch+False / Sketch+Random ablation vehicles.
//! * [`SparseRs`] — the one-pixel instantiation of Sparse-RS (Croce et
//!   al., AAAI 2022), the state-of-the-art query-efficiency baseline.
//! * [`SuOpa`] — the original differential-evolution one-pixel attack (Su
//!   et al., 2017), which searches the continuous colour space.
//! * [`DeepSearch`] — a coarse-to-fine best-first refinement baseline in
//!   the style of DeepSearch (Zhang et al., 2019), probing image regions
//!   before pixels.
//! * [`RandomPairs`] — exhaustive enumeration in uniformly random order.
//!
//! All of them implement the [`Attack`] trait and spend queries through an
//! [`oppsla_core::oracle::Oracle`], so experiment harnesses can compare
//! them on identical footing.

#![warn(missing_docs)]

mod deepsearch;
mod random_pairs;
mod sketch_attack;
mod sparse_rs;
mod suopa;
mod traits;

pub use deepsearch::DeepSearch;
pub use random_pairs::RandomPairs;
pub use sketch_attack::SketchProgramAttack;
pub use sparse_rs::{SparseRs, SparseRsConfig};
pub use suopa::{SuOpa, SuOpaConfig};
pub use traits::{margin, Attack, AttackOutcome};
