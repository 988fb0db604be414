//! Property test: the compiled inference plan is bit-identical to the
//! allocating tape forward pass across every model family.
//!
//! The one-pixel attack's query accounting assumes the fast path is the
//! same function as the reference path — not merely close. Exact `Vec<f32>`
//! equality (no tolerance) enforces that the plan mirrors the tape's
//! arithmetic operation-for-operation.

use oppsla_nn::infer::InferenceEngine;
use oppsla_nn::models::{Arch, ConvNet, InputSpec};
use oppsla_tensor::Tensor;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn arb_arch() -> impl Strategy<Value = Arch> {
    prop_oneof![
        Just(Arch::VggSmall),
        Just(Arch::ResNetSmall),
        Just(Arch::GoogLeNetSmall),
        Just(Arch::DenseNetSmall),
        Just(Arch::Mlp),
    ]
}

/// Both input geometries of the zoo. At 64×64 the first conv has 4,096
/// output pixels, so the larger nets (the resnet and densenet rows of
/// forward_bench) get the same exact check as the 32×32 ones.
fn arb_spec() -> impl Strategy<Value = InputSpec> {
    prop_oneof![Just(InputSpec::RGB32), Just(InputSpec::RGB64)]
}

fn random_image(spec: InputSpec, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_fn([spec.channels, spec.height, spec.width], |_| {
        rng.gen_range(0.0..1.0f32)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn plan_scores_equal_tape_scores(
        arch in arb_arch(),
        spec in arb_spec(),
        build_seed in any::<u64>(),
        image_seed in any::<u64>(),
        classes in 2usize..11,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(build_seed);
        let net = ConvNet::build(arch, spec, classes, &mut rng);
        let engine = InferenceEngine::new(&net);
        let image = random_image(spec, image_seed);
        let fast = engine.scores(&image);
        let reference = net.scores(&image);
        prop_assert_eq!(fast, reference);
    }

    #[test]
    fn repeated_queries_stay_bit_identical(
        arch in arb_arch(),
        build_seed in any::<u64>(),
    ) {
        // Workspace reuse must not leak state between queries, even when
        // images of different content alternate.
        let mut rng = ChaCha8Rng::seed_from_u64(build_seed);
        let net = ConvNet::build(arch, InputSpec::RGB32, 5, &mut rng);
        let engine = InferenceEngine::new(&net);
        let images: Vec<Tensor> = (0..3).map(|i| random_image(InputSpec::RGB32, i)).collect();
        let first: Vec<Vec<f32>> = images.iter().map(|im| engine.scores(im)).collect();
        for (im, expected) in images.iter().zip(&first).rev() {
            prop_assert_eq!(&engine.scores(im), expected);
        }
    }
}
