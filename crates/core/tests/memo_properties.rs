//! Property tests of the cross-restart query memo: random images and
//! candidate streams against a reference oracle without a memo.
//!
//! Three claims, each over arbitrary inputs rather than the handful of
//! fixtures the unit tests pin down:
//!  1. round-trip — whatever was paid for once is served back
//!     bit-identical, uncounted, on every later request;
//!  2. no false hits — keys differing in the base image, the location,
//!     or the perturbation colour never alias, even though lookups go
//!     through an FNV-hashed map (full-tuple equality backs the hash);
//!  3. eviction — a capped memo holds exactly the newest `cap` distinct
//!     keys (deterministic FIFO on first-insert order), so which repeat
//!     is free is a pure function of the query stream.

use oppsla_core::image::Image;
use oppsla_core::oracle::{image_content_id, FnClassifier, Oracle, QueryMemo};
use oppsla_core::pair::{Location, Pixel};
use proptest::prelude::*;

/// A classifier whose scores depend on every channel of the perturbed
/// image, so any aliasing between distinct memo keys shows up as a
/// wrong score, not a silent coincidence.
fn content_clf() -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
    FnClassifier::new(3, |img: &Image| {
        let mut acc = [0.0f32; 3];
        for (i, v) in img.data().iter().enumerate() {
            acc[i % 3] += v * (i as f32 + 1.0);
        }
        acc.to_vec()
    })
}

/// An arbitrary small image: 2..=4 per side, channels quantized to a
/// 1/32 grid (exact in f32, so content ids are stable bit patterns).
fn image_strategy() -> impl Strategy<Value = Image> {
    (2usize..=4, 2usize..=4).prop_flat_map(|(h, w)| {
        proptest::collection::vec(0u8..=32, h * w * 3)
            .prop_map(move |vals| Image::new(h, w, vals.iter().map(|&v| v as f32 / 32.0).collect()))
    })
}

/// An arbitrary candidate on a 4x4 grid (clamped to the image inside the
/// tests), likewise quantized.
fn candidate_strategy() -> impl Strategy<Value = (Location, Pixel)> {
    (0u16..4, 0u16..4, 0u8..=32, 0u8..=32, 0u8..=32).prop_map(|(r, c, pr, pg, pb)| {
        (
            Location::new(r, c),
            Pixel([pr as f32 / 32.0, pg as f32 / 32.0, pb as f32 / 32.0]),
        )
    })
}

fn clamp(image: &Image, loc: Location) -> Location {
    Location::new(
        loc.row.min(image.height() as u16 - 1),
        loc.col.min(image.width() as u16 - 1),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round-trip: replaying an arbitrary candidate stream (repeats and
    /// all) through a warm memo costs zero queries and returns scores
    /// bit-identical to the unmemoized reference, while the cold pass
    /// pays exactly once per *distinct* key — memo-on counts never
    /// exceed memo-off counts on any stream.
    #[test]
    fn warm_memo_round_trips_bit_identically(
        image in image_strategy(),
        stream in proptest::collection::vec(candidate_strategy(), 1..40),
    ) {
        let clf = content_clf();
        let memo = QueryMemo::new();
        let mut reference = Oracle::new(&clf);
        let mut cold = Oracle::new(&clf).with_memo(&memo);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let mut distinct = std::collections::HashSet::new();
        for &(loc, px) in &stream {
            let loc = clamp(&image, loc);
            distinct.insert((loc.row, loc.col, px.0.map(f32::to_bits)));
            // The reference stands in for independent restarts: each of
            // its queries opens a fresh guard scope, so the stream's
            // repeats are legal re-queries rather than double counts.
            reference.begin_candidate_scope();
            reference.query_pixel_delta_into(&image, loc, px, &mut want).unwrap();
            cold.query_pixel_delta_into(&image, loc, px, &mut got).unwrap();
            prop_assert_eq!(&got, &want, "cold pass diverged from reference");
        }
        prop_assert_eq!(cold.queries(), distinct.len() as u64);
        prop_assert!(cold.queries() <= reference.queries());
        prop_assert_eq!(cold.queries() + cold.memo_hits(), stream.len() as u64);

        // Second restart: every candidate is already paid for.
        let mut warm = Oracle::new(&clf).with_memo(&memo);
        for &(loc, px) in &stream {
            let loc = clamp(&image, loc);
            reference.begin_candidate_scope();
            reference.query_pixel_delta_into(&image, loc, px, &mut want).unwrap();
            warm.query_pixel_delta_into(&image, loc, px, &mut got).unwrap();
            prop_assert_eq!(&got, &want, "warm pass diverged from reference");
        }
        prop_assert_eq!(warm.queries(), 0, "a warm memo pays for nothing");
        prop_assert_eq!(warm.memo_hits(), stream.len() as u64);
    }

    /// No false hits: two keys that differ anywhere — base image content,
    /// location, or perturbation colour — never serve each other's
    /// scores. A warm memo for one key must miss (and pay) for the other.
    #[test]
    fn differing_keys_never_alias(
        image_a in image_strategy(),
        image_b in image_strategy(),
        cand_a in candidate_strategy(),
        cand_b in candidate_strategy(),
    ) {
        let clf = content_clf();
        let memo = QueryMemo::new();
        let loc_a = clamp(&image_a, cand_a.0);
        let mut warm = Oracle::new(&clf).with_memo(&memo);
        let mut buf = Vec::new();
        warm.query_pixel_delta_into(&image_a, loc_a, cand_a.1, &mut buf).unwrap();
        prop_assert_eq!(warm.queries(), 1);

        // The same candidate against a different image only hits when
        // the images are bit-identical (content id, not address).
        let mut probe = Oracle::new(&clf).with_memo(&memo);
        let loc_on_b = clamp(&image_b, cand_a.0);
        probe.query_pixel_delta_into(&image_b, loc_on_b, cand_a.1, &mut buf).unwrap();
        let same_key = image_content_id(&image_a) == image_content_id(&image_b)
            && loc_on_b == loc_a;
        prop_assert_eq!(probe.memo_hits() == 1, same_key, "image identity mismatch");

        // A different candidate against the warm image only hits when
        // the (location, colour) tuple is exactly equal.
        let mut probe = Oracle::new(&clf).with_memo(&memo);
        let loc_b = clamp(&image_a, cand_b.0);
        probe.query_pixel_delta_into(&image_a, loc_b, cand_b.1, &mut buf).unwrap();
        let same_cand = loc_b == loc_a
            && cand_b.1.0.map(f32::to_bits) == cand_a.1.0.map(f32::to_bits);
        prop_assert_eq!(probe.memo_hits() == 1, same_cand, "candidate identity mismatch");
    }

    /// Eviction: with capacity `cap`, one pass over `n` distinct keys
    /// leaves exactly the newest `cap` of them cached — re-requesting
    /// the newest `cap` is free, everything older pays again. FIFO on
    /// first-insert order, a pure function of the stream.
    #[test]
    fn capped_memo_evicts_oldest_first(
        image in image_strategy(),
        cap in 1usize..6,
        extra in 1usize..6,
    ) {
        let clf = content_clf();
        // Distinct keys by construction: vary only the red channel on a
        // fixed quantized grid.
        let n = cap + extra;
        let candidates: Vec<(Location, Pixel)> = (0..n)
            .map(|i| (Location::new(0, 0), Pixel([i as f32 / 32.0, 0.5, 0.5])))
            .collect();
        let memo = QueryMemo::with_capacity(cap);
        let mut oracle = Oracle::new(&clf).with_memo(&memo);
        let mut buf = Vec::new();
        for &(loc, px) in &candidates {
            oracle.begin_candidate_scope();
            oracle.query_pixel_delta_into(&image, loc, px, &mut buf).unwrap();
        }
        prop_assert_eq!(oracle.queries(), n as u64);
        prop_assert_eq!(memo.len(), cap, "cap must hold after overflow");

        // The newest `cap` keys are hits (checked before any re-insert
        // can evict), the `extra` oldest were evicted and pay again.
        let mut probe = Oracle::new(&clf).with_memo(&memo);
        for &(loc, px) in &candidates[extra..] {
            probe.begin_candidate_scope();
            probe.query_pixel_delta_into(&image, loc, px, &mut buf).unwrap();
        }
        prop_assert_eq!(probe.queries(), 0, "newest cap keys survive");
        prop_assert_eq!(probe.memo_hits(), cap as u64);
        for &(loc, px) in &candidates[..extra] {
            probe.begin_candidate_scope();
            probe.query_pixel_delta_into(&image, loc, px, &mut buf).unwrap();
        }
        prop_assert_eq!(probe.queries(), extra as u64, "oldest keys were evicted");
    }
}
