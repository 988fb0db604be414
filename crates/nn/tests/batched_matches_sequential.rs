//! The batched pixel-delta pass's determinism contract: it produces
//! **bit-identical** scores to the sequential delta path, per candidate,
//! across every architecture family (exercising the channel-lane conv
//! kernel at 32x32 and 64x64, residual adds, concats, and the MLP's flat
//! fallback).

use oppsla_nn::delta::{BaseActivations, DeltaBatchScratch};
use oppsla_nn::infer::InferencePlan;
use oppsla_nn::models::{Arch, ConvNet, InputSpec};
use oppsla_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const ARCHS: [Arch; 5] = [
    Arch::VggSmall,
    Arch::ResNetSmall,
    Arch::GoogLeNetSmall,
    Arch::DenseNetSmall,
    Arch::Mlp,
];

fn build(arch: Arch, spec: InputSpec) -> InferencePlan {
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    InferencePlan::compile(&ConvNet::build(arch, spec, 6, &mut rng))
}

fn test_images(spec: InputSpec, n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|b| {
            Tensor::from_fn([spec.channels, spec.height, spec.width], |i| {
                (((i + 113 * b) as f32) * 0.137).sin().abs()
            })
        })
        .collect()
}

/// Sweeps every batch size from one candidate to a full fully connected
/// stack tile plus one, so every row-tile remainder is hit.
fn check_delta(arch: Arch, spec: InputSpec) {
    let plan = build(arch, spec);
    let delta = oppsla_nn::delta::DeltaPlan::compile(&plan);
    let mut ws = plan.workspace();
    let image = test_images(spec, 1).pop().unwrap();
    let base = BaseActivations::capture(&plan, &mut ws, &image);
    let (h, w) = (spec.height, spec.width);
    let classes = plan.num_classes();
    for batch in 1..=9 {
        let candidates: Vec<(usize, usize, [f32; 3])> = (0..batch)
            .map(|i| {
                (
                    (i * 13) % h,
                    (i * 29) % w,
                    [1.0, (i % 2) as f32, 0.1 * i as f32],
                )
            })
            .collect();

        let mut batch_ws: Vec<_> = (0..batch).map(|_| delta.workspace(&base)).collect();
        let mut scratch = DeltaBatchScratch::new();
        let mut got = Vec::new();
        delta.scores_pixel_delta_batch_into(
            &plan,
            &base,
            &mut batch_ws,
            &candidates,
            &mut scratch,
            &mut got,
        );

        let mut dws = delta.workspace(&base);
        let mut want = Vec::new();
        for (i, &(row, col, rgb)) in candidates.iter().enumerate() {
            delta.scores_pixel_delta_into(&plan, &base, &mut dws, row, col, rgb, &mut want);
            assert_eq!(
                &got[i * classes..(i + 1) * classes],
                &want[..],
                "{arch} batch {batch} candidate {i} diverged in the batch"
            );
        }

        // Reusing the batch workspaces for a second batch (their pending
        // regions restored lazily) must stay exact.
        let rerun: Vec<(usize, usize, [f32; 3])> = candidates
            .iter()
            .rev()
            .map(|&(r, c, _)| (r, c, [0.25, 0.5, 0.75]))
            .collect();
        delta.scores_pixel_delta_batch_into(
            &plan,
            &base,
            &mut batch_ws,
            &rerun,
            &mut scratch,
            &mut got,
        );
        for (i, &(row, col, rgb)) in rerun.iter().enumerate() {
            delta.scores_pixel_delta_into(&plan, &base, &mut dws, row, col, rgb, &mut want);
            assert_eq!(
                &got[i * classes..(i + 1) * classes],
                &want[..],
                "{arch} batch {batch} rerun candidate {i} diverged"
            );
        }
    }
}

#[test]
fn batched_delta_matches_sequential_at_32x32() {
    for arch in ARCHS {
        check_delta(arch, InputSpec::RGB32);
    }
}

#[test]
fn batched_delta_matches_sequential_at_64x64() {
    check_delta(Arch::DenseNetSmall, InputSpec::RGB64);
}

#[test]
fn batched_delta_handles_partial_workspace_use() {
    // More workspaces than candidates: only the prefix runs.
    let plan = build(Arch::VggSmall, InputSpec::RGB32);
    let delta = oppsla_nn::delta::DeltaPlan::compile(&plan);
    let mut ws = plan.workspace();
    let image = test_images(InputSpec::RGB32, 1).pop().unwrap();
    let base = BaseActivations::capture(&plan, &mut ws, &image);
    let mut batch_ws: Vec<_> = (0..8).map(|_| delta.workspace(&base)).collect();
    let candidates = [(3usize, 4usize, [1.0f32, 0.0, 0.0])];
    let mut scratch = DeltaBatchScratch::new();
    let mut got = Vec::new();
    delta.scores_pixel_delta_batch_into(
        &plan,
        &base,
        &mut batch_ws,
        &candidates,
        &mut scratch,
        &mut got,
    );
    let mut dws = delta.workspace(&base);
    let mut want = Vec::new();
    delta.scores_pixel_delta_into(&plan, &base, &mut dws, 3, 4, [1.0, 0.0, 0.0], &mut want);
    assert_eq!(got, want);
}
