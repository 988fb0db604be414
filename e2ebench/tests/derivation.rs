//! Oracle coverage and speculation waste, derived from a hand-built call
//! log replayed through the decorator and a real oracle.

use oppsla_core::image::Image;
use oppsla_core::oracle::{Classifier, FnClassifier, Oracle};
use oppsla_core::pair::{Location, Pixel};
use oppsla_e2ebench::route::{derive_oracle, RouteStats, RouteTotals, TracedSession};

fn clf() -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
    FnClassifier::new(2, |img: &Image| {
        let v = img.data()[0];
        vec![v, 1.0 - v]
    })
}

fn cands(n: u16) -> Vec<(Location, Pixel)> {
    (0..n)
        .map(|i| (Location::new(i, 0), Pixel([1.0, 0.0, 0.0])))
        .collect()
}

#[test]
fn coverage_and_waste_from_a_hand_built_log() {
    let clf = clf();
    let stats = RouteStats::default();
    let session = TracedSession::new(&clf as &dyn Classifier, &stats);
    let base = Image::filled(8, 2, Pixel([0.3, 0.3, 0.3]));
    let batch = cands(8);

    // One counted full query, a prefetched batch of 8 of which 6 are
    // consumed, and 2 candidates outside the batch.
    let mut oracle = Oracle::new(&session);
    let mut out = Vec::new();
    oracle.query_into(&base, &mut out).unwrap();
    oracle.prefetch_pixel_batch(&base, &batch);
    for &(loc, px) in &batch[..6] {
        oracle
            .query_pixel_delta_into(&base, loc, px, &mut out)
            .unwrap();
    }
    for col in 0..2 {
        let loc = Location::new(0, 1);
        let px = Pixel([0.0, col as f32, 0.0]);
        oracle
            .query_pixel_delta_into(&base, loc, px, &mut out)
            .unwrap();
    }
    assert_eq!(oracle.queries(), 9);

    let totals = stats.totals();
    assert_eq!(totals.full_calls, 1);
    assert_eq!(totals.delta_batch_calls, 1);
    assert_eq!(totals.delta_batch_cands, 8);
    assert_eq!(
        totals.delta_seq_cands, 2,
        "batch-served queries never reach the classifier again"
    );

    let fig = derive_oracle(oracle.queries(), &totals);
    assert_eq!(fig.delta_queries, 8);
    assert!((fig.batch_coverage - 6.0 / 8.0).abs() < 1e-12);
    assert!((fig.spec_waste - 2.0 / 8.0).abs() < 1e-12);
}

#[test]
fn unexercised_routes_derive_zero() {
    let sequential = RouteTotals {
        full_calls: 1,
        delta_seq_cands: 4,
        ..RouteTotals::default()
    };
    let fig = derive_oracle(5, &sequential);
    assert_eq!(fig.delta_queries, 4);
    assert_eq!(fig.batch_coverage, 0.0);
    assert_eq!(fig.spec_waste, 0.0, "no batch, nothing wasted");

    let none = derive_oracle(0, &RouteTotals::default());
    assert_eq!((none.batch_coverage, none.spec_waste), (0.0, 0.0));
}

#[test]
fn fully_batched_queries_cover_everything() {
    let clf = clf();
    let stats = RouteStats::default();
    let session = TracedSession::new(&clf as &dyn Classifier, &stats);
    let base = Image::filled(8, 2, Pixel([0.6, 0.6, 0.6]));
    let mut oracle = Oracle::new(&session);
    let mut out = Vec::new();
    assert_eq!(oracle.query_batch(&base, &cands(5), &mut out).unwrap(), 5);
    let fig = derive_oracle(oracle.queries(), &stats.totals());
    assert_eq!(fig.batch_coverage, 1.0);
    assert_eq!(fig.spec_waste, 0.0);
}
