//! The arch-adaptive dispatcher's correctness contract: whatever routes
//! the tuner picks for full forwards, full, incremental and batched
//! scores are bit-identical to the statically routed plan — tuning moves
//! wall-clock time, never a single output bit — and every compiled plan
//! carries an attributable route report.

use oppsla_nn::delta::{BaseActivations, DeltaBatchScratch, DeltaPlan};
use oppsla_nn::infer::InferencePlan;
use oppsla_nn::models::{Arch, ConvNet, InputSpec};
use oppsla_nn::tune::{set_policy, TunePolicy};
use oppsla_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

/// The tuning policy is process-global, so tests that flip it must not
/// overlap. Lock (ignoring poisoning — an assert failure elsewhere must
/// not cascade) around every policy-sensitive section.
static POLICY_LOCK: Mutex<()> = Mutex::new(());

fn test_image(spec: InputSpec) -> Tensor {
    Tensor::from_fn([spec.channels, spec.height, spec.width], |i| {
        ((i as f32) * 0.137).sin().abs()
    })
}

/// Compiles `arch` once per policy and byte-compares full, incremental,
/// and batched-delta scores across the two plans.
fn check_policies_agree(arch: Arch, spec: InputSpec) {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let net = ConvNet::build(arch, spec, 6, &mut rng);

    let (static_plan, static_delta, tuned_plan, tuned_delta) = {
        let _guard = POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_policy(TunePolicy::Off);
        let static_plan = InferencePlan::compile(&net);
        let static_delta = DeltaPlan::compile(&static_plan);
        set_policy(TunePolicy::Measure);
        let tuned_plan = InferencePlan::compile(&net);
        let tuned_delta = DeltaPlan::compile(&tuned_plan);
        (static_plan, static_delta, tuned_plan, tuned_delta)
    };

    let image = test_image(spec);
    let (mut ws_a, mut ws_b) = (static_plan.workspace(), tuned_plan.workspace());
    let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
    static_plan.scores_into(&mut ws_a, &image, &mut got_a);
    tuned_plan.scores_into(&mut ws_b, &image, &mut got_b);
    assert_eq!(got_a, got_b, "{arch}: tuned full forward diverged");

    let base_a = BaseActivations::capture(&static_plan, &mut ws_a, &image);
    let base_b = BaseActivations::capture(&tuned_plan, &mut ws_b, &image);
    let mut dws_a = static_delta.workspace(&base_a);
    let mut dws_b = tuned_delta.workspace(&base_b);
    for (row, col) in [(0, 0), (13, 7), (spec.height - 1, spec.width - 1)] {
        let rgb = [0.8, 0.1, 0.6];
        static_delta.scores_pixel_delta_into(
            &static_plan,
            &base_a,
            &mut dws_a,
            row,
            col,
            rgb,
            &mut got_a,
        );
        tuned_delta.scores_pixel_delta_into(
            &tuned_plan,
            &base_b,
            &mut dws_b,
            row,
            col,
            rgb,
            &mut got_b,
        );
        assert_eq!(got_a, got_b, "{arch}: tuned delta ({row}, {col}) diverged");
    }

    let candidates: Vec<(usize, usize, [f32; 3])> = (0..6)
        .map(|i| {
            (
                i * 5 % spec.height,
                i * 3 % spec.width,
                [0.2 * i as f32, 0.5, 0.9],
            )
        })
        .collect();
    let mut batch_a: Vec<_> = (0..candidates.len())
        .map(|_| static_delta.workspace(&base_a))
        .collect();
    let mut batch_b: Vec<_> = (0..candidates.len())
        .map(|_| tuned_delta.workspace(&base_b))
        .collect();
    let mut scratch = DeltaBatchScratch::new();
    static_delta.scores_pixel_delta_batch_into(
        &static_plan,
        &base_a,
        &mut batch_a,
        &candidates,
        &mut scratch,
        &mut got_a,
    );
    tuned_delta.scores_pixel_delta_batch_into(
        &tuned_plan,
        &base_b,
        &mut batch_b,
        &candidates,
        &mut scratch,
        &mut got_b,
    );
    assert_eq!(got_a, got_b, "{arch}: tuned batched delta diverged");
}

#[test]
fn tuned_and_static_routes_are_bit_identical() {
    for arch in [Arch::VggSmall, Arch::ResNetSmall, Arch::DenseNetSmall] {
        check_policies_agree(arch, InputSpec::RGB32);
    }
}

#[test]
fn tuner_reports_cover_every_conv() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let net = ConvNet::build(Arch::GoogLeNetSmall, InputSpec::RGB32, 5, &mut rng);
    let plan = {
        let _guard = POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_policy(TunePolicy::Measure);
        InferencePlan::compile(&net)
    };

    let convs = plan.tuner_report().len();
    assert!(convs > 0, "GoogLeNet plan should contain convolutions");
    for d in plan.tuner_report() {
        assert!(d.measured, "Measure policy must time every conv route");
        assert!(d.direct_ns > 0 && d.gemm_ns > 0);
        assert_eq!(d.direct, d.direct_ns <= d.gemm_ns);
        assert!(matches!(d.route(), "direct" | "gemm"));
    }
}

#[test]
fn off_policy_pins_the_static_thresholds() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let net = ConvNet::build(Arch::VggSmall, InputSpec::RGB32, 4, &mut rng);
    let plan = {
        let _guard = POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_policy(TunePolicy::Off);
        let plan = InferencePlan::compile(&net);
        set_policy(TunePolicy::Measure);
        plan
    };
    for d in plan.tuner_report() {
        assert!(!d.measured);
        assert_eq!((d.direct_ns, d.gemm_ns), (0, 0));
        // The static heuristic: direct only at >= 4096 output pixels.
        assert_eq!(d.direct, d.out_pixels >= 4096);
    }
    set_policy(TunePolicy::Measure);
}
