//! Thread-count invariance of the observability streams through the real
//! parallel code paths: synthesis and attack evaluation must leave the
//! telemetry counters *and* the canonical-sorted trace byte-identical for
//! any worker count. Starting the trace arms the telemetry recorder too.

use oppsla_attacks::SketchProgramAttack;
use oppsla_core::dsl::{GrammarConfig, Program};
use oppsla_core::image::Image;
use oppsla_core::oracle::FnClassifier;
use oppsla_core::pair::{Location, Pixel};
use oppsla_core::synth::{synthesize_parallel, SynthConfig};
use oppsla_core::telemetry::{self, trace};
use oppsla_eval::curves::evaluate_attack_parallel;

fn trigger_clf(target: Location) -> FnClassifier<impl Fn(&Image) -> Vec<f32> + Sync> {
    FnClassifier::new(2, move |img: &Image| {
        if img.pixel(target) == Pixel([1.0, 1.0, 1.0]) {
            vec![0.1, 0.9]
        } else {
            vec![0.9, 0.1]
        }
    })
}

fn grey_set(n: usize) -> Vec<(Image, usize)> {
    (0..n)
        .map(|i| {
            let v = 0.3 + 0.02 * i as f32;
            (Image::filled(6, 6, Pixel([v, v, v])), 0)
        })
        .collect()
}

/// Runs a synthesis plus an attack evaluation on `threads` workers inside
/// a fresh in-memory trace, returning the canonical-sorted record stream
/// and the telemetry delta of the workload.
fn workload(threads: usize) -> (Vec<trace::Record>, telemetry::Snapshot) {
    let clf = trigger_clf(Location::new(2, 3));
    let train = grey_set(4);
    let test = grey_set(6);
    let config = SynthConfig {
        max_iterations: 4,
        beta: 0.01,
        seed: 7,
        per_image_budget: Some(200),
        prefilter: true,
        grammar: GrammarConfig::paper(),
        threads,
    };

    trace::start(trace::TraceConfig {
        path: None,
        mem_cap: 0,
    })
    .expect("in-memory trace");
    let before = telemetry::snapshot();
    trace::begin_section(trace::SectionMeta {
        label: "determinism/synthesis".to_owned(),
        ..trace::SectionMeta::default()
    });
    synthesize_parallel(&clf, &train, &config);
    trace::begin_section(trace::SectionMeta {
        label: "determinism/attack".to_owned(),
        ..trace::SectionMeta::default()
    });
    let attack = SketchProgramAttack::new(Program::paper_example());
    evaluate_attack_parallel(&attack, &clf, &test, 10_000, 3, threads);
    let delta = telemetry::snapshot().since(&before);
    let mut records = trace::drain_records();
    trace::finish();
    trace::canonical_sort(&mut records);
    (records, delta)
}

// One test (not several) because the trace recorder and telemetry
// counters are process-global.
#[test]
fn parallel_observability_is_thread_count_invariant() {
    let (reference_trace, reference_delta) = workload(1);
    assert!(
        reference_trace.iter().any(|r| r.kind() == "query"),
        "the workload must actually record queries"
    );
    assert!(
        reference_trace.iter().any(|r| r.kind() == "synth"),
        "the workload must actually record synthesis steps"
    );
    for threads in [2, 4] {
        let (trace, delta) = workload(threads);
        assert_eq!(
            trace, reference_trace,
            "canonical trace diverged at {threads} threads"
        );
        assert_eq!(
            delta.counters, reference_delta.counters,
            "telemetry counters diverged at {threads} threads"
        );
        assert_eq!(
            delta.query_hist, reference_delta.query_hist,
            "query histogram diverged at {threads} threads"
        );
        assert_eq!(
            delta.op_calls, reference_delta.op_calls,
            "op call counts diverged at {threads} threads"
        );
    }
}
