//! A/B test for the `OPPSLA_NO_SIMD` escape hatch: the scalar kernels and
//! every detected SIMD level produce bit-identical scores through the full
//! engine stack (full forward and incremental delta, both through the one
//! conv kernel and the fully connected kernel).
//!
//! The env var itself is resolved once per process, so this test drives
//! the same switch through [`force_simd_level`] — the documented
//! programmatic override the env var feeds — and CI additionally runs the
//! whole suite under `OPPSLA_NO_SIMD=1` to cover the env path end to end.

use oppsla::nn::infer::InferenceEngine;
use oppsla::nn::models::{Arch, ConvNet, InputSpec};
use oppsla::tensor::gemm::{available_levels, force_simd_level, SimdLevel};
use oppsla::tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn test_image(spec: InputSpec) -> Tensor {
    Tensor::from_fn([spec.channels, spec.height, spec.width], |i| {
        ((i as f32) * 0.173).cos().abs()
    })
}

/// Full-engine scores for one arch at one SIMD level: a fresh engine, a
/// full forward, and a few incremental pixel-delta queries.
fn scores_at_level(level: SimdLevel, net: &ConvNet, image: &Tensor) -> Vec<f32> {
    force_simd_level(level);
    let engine = InferenceEngine::new(net);
    let mut all = engine.scores(image);
    let mut out = Vec::new();
    for (row, col) in [(0, 0), (9, 21), (31, 31)] {
        engine.scores_pixel_delta_into(image, row, col, [0.7, 0.2, 0.9], &mut out);
        all.extend_from_slice(&out);
    }
    all
}

#[test]
fn scalar_and_simd_scores_are_bit_identical() {
    let image = test_image(InputSpec::RGB32);
    for arch in [Arch::VggSmall, Arch::ResNetSmall, Arch::DenseNetSmall] {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let net = ConvNet::build(arch, InputSpec::RGB32, 6, &mut rng);
        let scalar = scores_at_level(SimdLevel::Scalar, &net, &image);
        for level in available_levels() {
            let got = scores_at_level(level, &net, &image);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{arch}: {} diverged from scalar",
                level.as_str()
            );
        }
    }
    // Leave the process on its detected default for other tests.
    force_simd_level(*available_levels().last().unwrap());
}
