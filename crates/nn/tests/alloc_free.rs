//! Proves the compiled inference path performs zero heap allocations in
//! steady state.
//!
//! A counting wrapper around the system allocator is armed around a batch
//! of warm queries; any allocation (or reallocation) while armed fails the
//! test. This file deliberately holds a single test: the counter is
//! process-global and concurrent tests would pollute it.

use oppsla_nn::delta::{BaseActivations, DeltaBatchScratch, DeltaPlan};
use oppsla_nn::infer::InferencePlan;
use oppsla_nn::models::{Arch, ConvNet, InputSpec};
use oppsla_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_queries_do_not_allocate() {
    // A convolutional family exercises every op kind on the hot path
    // (conv, pooling, flatten aliasing, linear head).
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let net = ConvNet::build(Arch::VggSmall, InputSpec::RGB32, 10, &mut rng);
    let plan = InferencePlan::compile(&net);
    let mut ws = plan.workspace();
    let image = Tensor::from_fn([3, 32, 32], |i| ((i as f32) * 0.311).sin().abs());
    let mut scores = Vec::with_capacity(plan.num_classes());

    // Warm up: first calls may size `scores`' spare capacity.
    for _ in 0..2 {
        plan.scores_into(&mut ws, &image, &mut scores);
    }

    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..100 {
        plan.scores_into(&mut ws, &image, &mut scores);
    }
    ARMED.store(false, Ordering::SeqCst);

    let count = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        count, 0,
        "inference hot path allocated {count} times over 100 queries"
    );
    assert_eq!(scores.len(), 10);

    // The incremental pixel-delta path must be allocation-free in steady
    // state too: candidate queries against a cached base dominate the
    // attack's runtime.
    let delta = DeltaPlan::compile(&plan);
    let acts = BaseActivations::capture(&plan, &mut ws, &image);
    let mut dws = delta.workspace(&acts);
    for i in 0..2 {
        delta.scores_pixel_delta_into(
            &plan,
            &acts,
            &mut dws,
            i,
            31 - i,
            [1.0, 0.0, 0.5],
            &mut scores,
        );
    }

    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for i in 0..100 {
        let (row, col) = (i % 32, (i * 7) % 32);
        delta.scores_pixel_delta_into(
            &plan,
            &acts,
            &mut dws,
            row,
            col,
            [0.9, 0.1, 0.4],
            &mut scores,
        );
    }
    ARMED.store(false, Ordering::SeqCst);

    let count = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        count, 0,
        "pixel-delta hot path allocated {count} times over 100 queries"
    );
    assert_eq!(scores.len(), 10);

    // The batched route keeps that promise once its scratch has grown
    // (`DeltaBatchScratch`), for a conv family and for the MLP, whose
    // plan is all fully connected layers, at every batch size up to a
    // full fully connected row tile.
    for arch in [Arch::VggSmall, Arch::Mlp] {
        let net = ConvNet::build(arch, InputSpec::RGB32, 10, &mut rng);
        let plan = InferencePlan::compile(&net);
        let delta = DeltaPlan::compile(&plan);
        let mut ws = plan.workspace();
        let base = BaseActivations::capture(&plan, &mut ws, &image);
        let candidates: Vec<(usize, usize, [f32; 3])> = (0..8)
            .map(|i| ((5 * i) % 32, (31 * i + 3) % 32, [0.9, 0.1 * i as f32, 0.4]))
            .collect();
        let mut batch_ws: Vec<_> = (0..8).map(|_| delta.workspace(&base)).collect();
        let mut batch_scratch = DeltaBatchScratch::new();
        let mut run = |scores: &mut Vec<f32>| {
            for size in 1..=8 {
                delta.scores_pixel_delta_batch_into(
                    &plan,
                    &base,
                    &mut batch_ws,
                    &candidates[..size],
                    &mut batch_scratch,
                    scores,
                );
                assert_eq!(scores.len(), size * 10);
            }
        };
        // Warm up: grows the scratch and `scores` to the largest batch.
        run(&mut scores);

        ALLOCATIONS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        for _ in 0..5 {
            run(&mut scores);
        }
        ARMED.store(false, Ordering::SeqCst);

        let count = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            count, 0,
            "{arch} batched pixel-delta route allocated {count} times over 5 sweeps"
        );
    }
}
