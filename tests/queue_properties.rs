//! Model-based testing of the sketch's pair queue: the arena-backed
//! linked-list implementation must behave exactly like a naive
//! `VecDeque`-with-linear-scan reference model under arbitrary operation
//! sequences.

use oppsla::core::image::Image;
use oppsla::core::pair::{Corner, Location, Pair, Pixel};
use oppsla::core::prior::{Prior, SaliencyPrior, Uniform};
use oppsla::core::queue::PairQueue;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The obviously-correct reference model.
#[derive(Debug, Clone)]
struct NaiveQueue {
    pairs: VecDeque<Pair>,
    height: usize,
    width: usize,
}

impl NaiveQueue {
    fn from_real(real: &PairQueue, height: usize, width: usize) -> Self {
        NaiveQueue {
            pairs: real.iter().collect(),
            height,
            width,
        }
    }

    fn pop(&mut self) -> Option<Pair> {
        self.pairs.pop_front()
    }

    fn remove(&mut self, pair: Pair) -> bool {
        match self.pairs.iter().position(|&p| p == pair) {
            Some(i) => {
                self.pairs.remove(i);
                true
            }
            None => false,
        }
    }

    fn push_back(&mut self, pair: Pair) -> bool {
        if self.remove(pair) {
            self.pairs.push_back(pair);
            true
        } else {
            false
        }
    }

    fn contains(&self, pair: Pair) -> bool {
        self.pairs.contains(&pair)
    }

    fn next_at_location(&self, loc: Location) -> Option<Pair> {
        self.pairs.iter().find(|p| p.location == loc).copied()
    }

    fn location_neighbors(&self, loc: Location, corner: Corner) -> Vec<Pair> {
        loc.neighbors(self.height, self.width)
            .map(|n| Pair::new(n, corner))
            .filter(|p| self.contains(*p))
            .collect()
    }
}

/// Appendix A's initial order, transcribed from plain comparators:
/// locations by descending prior weight, then by distance from the image
/// centre, ties row-major; each location's corners by descending `L₁`
/// distance from its pixel, ties by corner index; emitted rank by rank.
/// Every key is recomputed inside its comparator, as written.
fn reference_initial_order(image: &Image, class: usize, prior: &dyn Prior) -> Vec<Pair> {
    let mut locations: Vec<Location> = (0..image.height() as u16)
        .flat_map(|row| (0..image.width() as u16).map(move |col| Location::new(row, col)))
        .collect();
    locations.sort_by(|a, b| {
        let (wa, wb) = (
            prior.location_weight(class, image, *a),
            prior.location_weight(class, image, *b),
        );
        wb.partial_cmp(&wa)
            .unwrap()
            .then(
                image
                    .center_distance(*a)
                    .partial_cmp(&image.center_distance(*b))
                    .unwrap(),
            )
            .then(a.cmp(b))
    });
    let ranked = |pixel: Pixel| {
        let mut corners = Corner::ALL;
        corners.sort_by(|a, b| {
            let da = pixel.distance(a.as_pixel());
            let db = pixel.distance(b.as_pixel());
            db.partial_cmp(&da).unwrap().then(a.index().cmp(&b.index()))
        });
        corners
    };
    (0..8)
        .flat_map(|rank| {
            locations
                .iter()
                .map(move |&loc| Pair::new(loc, ranked(image.pixel(loc))[rank]))
        })
        .collect()
}

/// An image with every channel on the grid {0, ¼, ½, ¾, 1}, where many
/// corner distances tie, and weight tables drawn from {−0, 0, 1, 2},
/// where many location weights tie (−0 and 0 compare equal).
fn arb_order_case() -> impl Strategy<Value = (Image, usize, Vec<f64>)> {
    (1usize..=12, 1usize..=40).prop_flat_map(|(h, w)| {
        (
            proptest::collection::vec(0u8..5, 3 * h * w),
            1usize..=4,
            proptest::collection::vec(0u8..4, 16),
        )
            .prop_map(move |(channels, grid, weights)| {
                let data = channels.iter().map(|&c| f32::from(c) / 4.0).collect();
                let table = weights[..grid * grid]
                    .iter()
                    .map(|&w| [-0.0, 0.0, 1.0, 2.0][w as usize])
                    .collect();
                (Image::new(h, w, data), grid, table)
            })
    })
}

#[derive(Debug, Clone)]
enum Op {
    Pop,
    Remove(Pair),
    PushBack(Pair),
    CheckNextAt(Location),
    CheckNeighbors(Location, Corner),
}

fn arb_pair(h: u16, w: u16) -> impl Strategy<Value = Pair> {
    (0..h, 0..w, 0u8..8).prop_map(|(r, c, k)| Pair::new(Location::new(r, c), Corner::new(k)))
}

fn arb_op(h: u16, w: u16) -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Pop),
        3 => arb_pair(h, w).prop_map(Op::Remove),
        3 => arb_pair(h, w).prop_map(Op::PushBack),
        1 => (0..h, 0..w).prop_map(|(r, c)| Op::CheckNextAt(Location::new(r, c))),
        1 => arb_pair(h, w).prop_map(|p| Op::CheckNeighbors(p.location, p.corner)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queue_matches_reference_model(
        ops in proptest::collection::vec(arb_op(4, 4), 0..120),
        fill in 1u8..9,
    ) {
        let v = fill as f32 / 10.0;
        let image = Image::filled(4, 4, Pixel([v, v, v]));
        let mut real = PairQueue::for_image(&image);
        let mut model = NaiveQueue::from_real(&real, 4, 4);
        prop_assert_eq!(real.len(), model.pairs.len());

        for op in ops {
            match op {
                Op::Pop => {
                    prop_assert_eq!(real.pop(), model.pop());
                }
                Op::Remove(p) => {
                    prop_assert_eq!(real.remove(p), model.remove(p));
                }
                Op::PushBack(p) => {
                    prop_assert_eq!(real.push_back(p), model.push_back(p));
                }
                Op::CheckNextAt(loc) => {
                    prop_assert_eq!(real.next_at_location(loc), model.next_at_location(loc));
                }
                Op::CheckNeighbors(loc, corner) => {
                    prop_assert_eq!(
                        real.location_neighbors(loc, corner).to_vec(),
                        model.location_neighbors(loc, corner)
                    );
                }
            }
            prop_assert_eq!(real.len(), model.pairs.len());
        }
        // Final drains agree element-for-element (total order preserved).
        let real_rest: Vec<Pair> = real.iter().collect();
        let model_rest: Vec<Pair> = model.pairs.iter().copied().collect();
        prop_assert_eq!(real_rest, model_rest);
    }

    /// The initial ordering satisfies the paper's two sort keys.
    #[test]
    fn initial_order_keys_hold(fill in 0u8..11) {
        let v = (fill as f32 / 10.0).min(1.0);
        let image = Image::filled(5, 5, Pixel([v, v, v]));
        let queue = PairQueue::for_image(&image);
        let pairs: Vec<Pair> = queue.iter().collect();
        prop_assert_eq!(pairs.len(), 8 * 25);
        // Primary key: blocks of d1*d2 pairs with non-increasing pixel
        // distance of the corner from the (uniform) image pixel.
        let pix = Pixel([v, v, v]);
        for block in 0..8 {
            let d0 = pix.distance(pairs[block * 25].corner.as_pixel());
            for p in &pairs[block * 25..(block + 1) * 25] {
                prop_assert_eq!(pix.distance(p.corner.as_pixel()), d0,
                    "block {} mixes corner distances", block);
            }
            if block > 0 {
                let prev = pix.distance(pairs[(block - 1) * 25].corner.as_pixel());
                prop_assert!(prev >= d0, "blocks not sorted farthest-first");
            }
            // Secondary key: centre-out within the block.
            for w in pairs[block * 25..(block + 1) * 25].windows(2) {
                prop_assert!(
                    image.center_distance(w[0].location)
                        <= image.center_distance(w[1].location),
                    "block {} not centre-out", block
                );
            }
        }
    }

    /// The initial order equals the plain transcription of Appendix A
    /// pair for pair, over extents from 1×1 to 12×40 (single rows and
    /// columns, odd, even and non-square), under the uniform prior, a
    /// saliency prior with tied weights, and a class the saliency prior
    /// has no table for.
    #[test]
    fn initial_order_matches_the_plain_comparators(case in arb_order_case()) {
        let (image, grid, table) = case;
        let saliency = SaliencyPrior::new(grid, vec![table]);
        for (class, prior) in [(0, &Uniform as &dyn Prior), (0, &saliency), (1, &saliency)] {
            let queue: Vec<Pair> = PairQueue::for_image_with_prior(&image, class, prior)
                .iter()
                .collect();
            prop_assert_eq!(
                queue,
                reference_initial_order(&image, class, prior),
                "{}x{} image, prior {}, class {}",
                image.height(),
                image.width(),
                prior.name(),
                class
            );
        }
    }
}
