//! # OPPSLA core
//!
//! A faithful implementation of *"One Pixel Adversarial Attacks via
//! Sketched Programs"* (Yuviler & Drachsler-Cohen, 2023): the one-pixel
//! attack [`sketch`] (Algorithm 1), the condition [`dsl`] (Figure 1), and
//! the Metropolis–Hastings [`synth`]esizer OPPSLA (Algorithm 2), together
//! with the supporting vocabulary — [`image::Image`]s,
//! location–perturbation [`pair`]s, the sketch's priority [`queue`], and
//! the black-box [`oracle`] interface with query accounting.
//!
//! This crate is deliberately independent of any particular classifier
//! implementation: everything goes through the [`oracle::Classifier`]
//! trait, mirroring the paper's black-box threat model.
//!
//! # Examples
//!
//! Attack a toy classifier with the fixed-prioritization program:
//!
//! ```
//! use oppsla_core::dsl::Program;
//! use oppsla_core::image::Image;
//! use oppsla_core::oracle::{FnClassifier, Oracle};
//! use oppsla_core::pair::{Location, Pixel};
//! use oppsla_core::sketch::run_sketch;
//!
//! // A classifier with a one-pixel weakness at (1, 1).
//! let clf = FnClassifier::new(2, |img: &Image| {
//!     if img.pixel(Location::new(1, 1)) == Pixel([1.0, 1.0, 1.0]) {
//!         vec![0.1, 0.9]
//!     } else {
//!         vec![0.9, 0.1]
//!     }
//! });
//! let image = Image::filled(3, 3, Pixel([0.5, 0.5, 0.5]));
//! let mut oracle = Oracle::new(&clf);
//! let outcome = run_sketch(&Program::constant(false), &mut oracle, &image, 0);
//! assert!(outcome.is_success());
//! ```

#![warn(missing_docs)]

pub mod dsl;
pub mod goal;
pub mod image;
pub mod oracle;
pub mod pair;
pub mod parallel;
pub mod prior;
pub mod queue;
pub mod sketch;
pub mod synth;
pub mod tracing;

/// Query-path telemetry (re-export of [`oppsla_obs`]): phase counters,
/// per-image query histograms, metric sinks, and the per-query trace.
/// Every hook is one relaxed load and a branch until
/// [`telemetry::arm`](oppsla_obs::arm) (or [`trace::start`](oppsla_obs::trace::start))
/// arms its recorder.
pub use oppsla_obs as telemetry;
