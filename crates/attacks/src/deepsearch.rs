//! DeepSearch-style coarse-to-fine one-pixel attack (Zhang et al.,
//! arXiv:1910.06296), adapted to the corner candidate space.
//!
//! DeepSearch attacks by refinement: probe coarse image regions, keep the
//! region that hurts the classifier most, and recursively split it until a
//! single pixel remains. Our one-pixel adaptation runs a deterministic
//! best-first quadtree search: every region is summarized by one probe
//! (its centre pixel swapped to the centre's top-ranked corner), regions
//! are expanded in ascending goal-margin order, and a 1×1 region is
//! finished by scanning its remaining corners in rank order. Because every
//! pixel of a split region is covered by exactly one child, the search is
//! exhaustive — like the sketch it finds a corner attack whenever one
//! exists — but it spends its early queries on the coarse structure of the
//! image instead of a fixed pixel order.

use crate::traits::{Attack, AttackOutcome};
use oppsla_core::goal::AttackGoal;
use oppsla_core::image::Image;
use oppsla_core::oracle::{argmax, BudgetExhausted, Oracle};
use oppsla_core::pair::{Corner, Location, Pixel};
use oppsla_core::telemetry::{self, Counter};
use oppsla_core::tracing::record_oracle_query;
use rand::RngCore;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// An axis-aligned sub-rectangle of the image, in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Region {
    row: u16,
    col: u16,
    height: u16,
    width: u16,
}

impl Region {
    fn center(self) -> Location {
        Location::new(self.row + self.height / 2, self.col + self.width / 2)
    }

    fn is_pixel(self) -> bool {
        self.height == 1 && self.width == 1
    }

    /// Quadrant split; every pixel of `self` lands in exactly one child.
    fn split(self) -> impl Iterator<Item = Region> {
        let top = self.height.div_ceil(2);
        let left = self.width.div_ceil(2);
        let quads = [
            (self.row, self.col, top, left),
            (self.row, self.col + left, top, self.width - left),
            (self.row + top, self.col, self.height - top, left),
            (
                self.row + top,
                self.col + left,
                self.height - top,
                self.width - left,
            ),
        ];
        quads
            .into_iter()
            .filter(|&(_, _, h, w)| h > 0 && w > 0)
            .map(|(row, col, height, width)| Region {
                row,
                col,
                height,
                width,
            })
            // A 1×n or n×1 region yields its parent's shape as one child;
            // dropping it would lose pixels, so keep every non-empty quad
            // except an exact duplicate of the parent (impossible once
            // h > 1 or w > 1 on the split axis).
            .filter(move |r| *r != self)
    }
}

/// Best-first frontier entry: regions pop in ascending margin order, ties
/// broken by insertion sequence so the search is fully deterministic.
#[derive(Debug, Clone, Copy)]
struct Node {
    margin: f32,
    seq: u64,
    region: Region,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Node {}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Node {
    // BinaryHeap is a max-heap: reverse both keys so the smallest margin
    // (earliest insertion on ties) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .margin
            .total_cmp(&self.margin)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// What probing one candidate produced.
enum Probe {
    /// Goal margin of the perturbed image (lower = closer to adversarial).
    Margin(f32),
    /// The candidate flipped the classifier.
    Adversarial,
}

/// Deterministic best-first coarse-to-fine search over the corner space.
///
/// The `rng` argument is ignored: like the sketch, two runs on the same
/// image and classifier spend identical queries in identical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeepSearch {
    goal: AttackGoal,
}

impl DeepSearch {
    /// Sets the attack goal (untargeted by default).
    pub fn with_goal(mut self, goal: AttackGoal) -> Self {
        self.goal = goal;
        self
    }

    /// Probes `location` swapped to `corner`, deduplicating against
    /// `probed` so no candidate is ever submitted twice (region centres
    /// recur as their own quadrant's centre). Each query is traced and
    /// attributed to `phase`.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &self,
        oracle: &mut Oracle<'_>,
        image: &Image,
        true_class: usize,
        start: u64,
        location: Location,
        corner: Corner,
        phase: (&'static str, Counter),
        probed: &mut HashMap<(u16, u16, u8), f32>,
        scores: &mut Vec<f32>,
    ) -> Result<Probe, BudgetExhausted> {
        let key = (location.row, location.col, corner.index());
        if let Some(&m) = probed.get(&key) {
            return Ok(Probe::Margin(m));
        }
        oracle.query_pixel_delta_into(image, location, corner.as_pixel(), scores)?;
        telemetry::count(phase.1);
        record_oracle_query(
            phase.0,
            oracle.queries() - start,
            Some((location, corner.as_pixel())),
            scores,
            true_class,
            self.goal,
        );
        if self.goal.is_adversarial(scores, true_class) {
            return Ok(Probe::Adversarial);
        }
        let m = self.goal.margin(scores, true_class);
        probed.insert(key, m);
        Ok(Probe::Margin(m))
    }

    /// Arms the speculative batch with the candidates about to be probed,
    /// skipping already-scored ones (they never reach the classifier).
    fn prefetch(
        &self,
        oracle: &mut Oracle<'_>,
        image: &Image,
        group: &[(Location, Corner)],
        probed: &HashMap<(u16, u16, u8), f32>,
    ) {
        if oracle.has_prefetched() {
            return;
        }
        let fresh: Vec<(Location, Pixel)> = group
            .iter()
            .filter(|(loc, c)| !probed.contains_key(&(loc.row, loc.col, c.index())))
            .map(|&(loc, c)| (loc, c.as_pixel()))
            .collect();
        if !fresh.is_empty() {
            oracle.prefetch_pixel_batch(image, &fresh);
        }
    }
}

impl Attack for DeepSearch {
    fn name(&self) -> &'static str {
        "deepsearch"
    }

    fn attack(
        &self,
        oracle: &mut Oracle<'_>,
        image: &Image,
        true_class: usize,
        _rng: &mut dyn RngCore,
    ) -> AttackOutcome {
        let start = oracle.queries();
        let spent = |oracle: &Oracle<'_>| oracle.queries() - start;

        let clean = match oracle.query(image) {
            Ok(s) => s,
            Err(_) => {
                return AttackOutcome::Failure {
                    queries: spent(oracle),
                }
            }
        };
        telemetry::count(Counter::QueryBaseline);
        record_oracle_query(
            "baseline",
            spent(oracle),
            None,
            &clean,
            true_class,
            self.goal,
        );
        self.goal.validate(oracle.num_classes(), true_class);
        if argmax(&clean) != true_class {
            return AttackOutcome::AlreadyMisclassified {
                queries: spent(oracle),
            };
        }

        // Deduplication (not re-proposal) guarantees every classifier
        // submission is unique, so the whole run shares one guard scope.
        oracle.begin_run();
        let mut probed: HashMap<(u16, u16, u8), f32> = HashMap::new();
        let mut scores: Vec<f32> = Vec::with_capacity(clean.len());
        let mut frontier: BinaryHeap<Node> = BinaryHeap::new();
        let mut seq: u64 = 0;

        let root = Region {
            row: 0,
            col: 0,
            height: image.height() as u16,
            width: image.width() as u16,
        };
        // Seed the frontier with the root's quadrants (the root's own
        // probe would be split immediately anyway). On a 1×1 image the
        // root has no proper children, so it seeds itself.
        let seeds: Vec<Region> = if root.is_pixel() {
            vec![root]
        } else {
            root.split().collect()
        };

        let enqueue = |regions: &[Region],
                       oracle: &mut Oracle<'_>,
                       probed: &mut HashMap<(u16, u16, u8), f32>,
                       scores: &mut Vec<f32>,
                       frontier: &mut BinaryHeap<Node>,
                       seq: &mut u64|
         -> Result<Option<(Location, Pixel)>, BudgetExhausted> {
            let group: Vec<(Location, Corner)> = regions
                .iter()
                .map(|r| {
                    let c = r.center();
                    (c, Corner::ranked_by_distance(image.pixel(c))[0])
                })
                .collect();
            self.prefetch(oracle, image, &group, probed);
            for (region, &(loc, corner)) in regions.iter().zip(&group) {
                match self.probe(
                    oracle,
                    image,
                    true_class,
                    start,
                    loc,
                    corner,
                    ("init_scan", Counter::QueryInitScan),
                    probed,
                    scores,
                )? {
                    Probe::Adversarial => return Ok(Some((loc, corner.as_pixel()))),
                    Probe::Margin(m) => {
                        frontier.push(Node {
                            margin: m,
                            seq: *seq,
                            region: *region,
                        });
                        *seq += 1;
                    }
                }
            }
            Ok(None)
        };

        match enqueue(
            &seeds,
            oracle,
            &mut probed,
            &mut scores,
            &mut frontier,
            &mut seq,
        ) {
            Ok(Some((location, pixel))) => {
                return AttackOutcome::Success {
                    location,
                    pixel,
                    queries: spent(oracle),
                }
            }
            Ok(None) => {}
            Err(_) => {
                return AttackOutcome::Failure {
                    queries: spent(oracle),
                }
            }
        }

        while let Some(node) = frontier.pop() {
            if node.region.is_pixel() {
                // Finish the pixel: remaining corners in rank order (the
                // top corner was already spent as the region's probe).
                let loc = node.region.center();
                let ranked = Corner::ranked_by_distance(image.pixel(loc));
                let group: Vec<(Location, Corner)> = ranked.iter().map(|&c| (loc, c)).collect();
                self.prefetch(oracle, image, &group, &probed);
                for &(loc, corner) in &group {
                    match self.probe(
                        oracle,
                        image,
                        true_class,
                        start,
                        loc,
                        corner,
                        ("refine", Counter::QueryRefine),
                        &mut probed,
                        &mut scores,
                    ) {
                        Ok(Probe::Adversarial) => {
                            return AttackOutcome::Success {
                                location: loc,
                                pixel: corner.as_pixel(),
                                queries: spent(oracle),
                            }
                        }
                        Ok(Probe::Margin(_)) => {}
                        Err(_) => {
                            return AttackOutcome::Failure {
                                queries: spent(oracle),
                            }
                        }
                    }
                }
            } else {
                let children: Vec<Region> = node.region.split().collect();
                match enqueue(
                    &children,
                    oracle,
                    &mut probed,
                    &mut scores,
                    &mut frontier,
                    &mut seq,
                ) {
                    Ok(Some((location, pixel))) => {
                        return AttackOutcome::Success {
                            location,
                            pixel,
                            queries: spent(oracle),
                        }
                    }
                    Ok(None) => {}
                    Err(_) => {
                        return AttackOutcome::Failure {
                            queries: spent(oracle),
                        }
                    }
                }
            }
        }

        AttackOutcome::Failure {
            queries: spent(oracle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppsla_core::oracle::FnClassifier;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0)
    }

    #[test]
    fn split_partitions_every_region() {
        for (h, w) in [(1u16, 2u16), (2, 1), (2, 2), (3, 3), (5, 7), (1, 1)] {
            let root = Region {
                row: 0,
                col: 0,
                height: h,
                width: w,
            };
            if root.is_pixel() {
                assert_eq!(root.split().count(), 0);
                continue;
            }
            let mut covered = vec![vec![0u32; w as usize]; h as usize];
            let mut stack = vec![root];
            while let Some(r) = stack.pop() {
                if r.is_pixel() {
                    covered[r.row as usize][r.col as usize] += 1;
                } else {
                    stack.extend(r.split());
                }
            }
            for (i, row) in covered.iter().enumerate() {
                for (j, &n) in row.iter().enumerate() {
                    assert_eq!(n, 1, "pixel ({i}, {j}) covered {n} times in {h}x{w}");
                }
            }
        }
    }

    #[test]
    fn exhaustive_hence_always_finds_existing_attack() {
        for (r, c) in [(0u16, 0u16), (3, 3), (1, 2), (3, 0)] {
            let target = Location::new(r, c);
            let clf = FnClassifier::new(2, move |img: &Image| {
                if img.pixel(target) == Pixel([1.0, 1.0, 1.0]) {
                    vec![0.1, 0.9]
                } else {
                    vec![0.9, 0.1]
                }
            });
            let img = Image::filled(4, 4, Pixel([0.2, 0.2, 0.2]));
            let mut oracle = Oracle::new(&clf);
            match DeepSearch::default().attack(&mut oracle, &img, 0, &mut rng()) {
                AttackOutcome::Success {
                    location, pixel, ..
                } => {
                    assert_eq!(location, target);
                    assert_eq!(pixel, Pixel([1.0, 1.0, 1.0]));
                }
                other => panic!("target ({r}, {c}): expected success, got {other:?}"),
            }
        }
    }

    #[test]
    fn exhausts_whole_space_without_duplicate_queries() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let img = Image::filled(3, 3, Pixel([0.5, 0.5, 0.5]));
        let mut oracle = Oracle::new(&clf);
        let outcome = DeepSearch::default().attack(&mut oracle, &img, 0, &mut rng());
        // Deduplication makes exhaustion exactly the candidate count:
        // 1 baseline + 8 corners x 9 pixels, like the sketch.
        assert_eq!(outcome, AttackOutcome::Failure { queries: 73 });
    }

    #[test]
    fn deterministic_across_runs_and_ignores_the_rng() {
        let target = Location::new(2, 4);
        let clf = FnClassifier::new(3, move |img: &Image| {
            let d = img.pixel(target).distance(Pixel([0.0, 0.0, 0.0]));
            if d < 0.05 {
                vec![0.1, 0.8, 0.1]
            } else {
                vec![0.6, 0.2, 0.2]
            }
        });
        let img = Image::filled(6, 6, Pixel([0.4, 0.4, 0.4]));
        let runs: Vec<AttackOutcome> = (0..3)
            .map(|seed| {
                let mut oracle = Oracle::new(&clf);
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                DeepSearch::default().attack(&mut oracle, &img, 0, &mut rng)
            })
            .collect();
        assert!(runs[0].is_success());
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn coarse_structure_beats_uniform_order_on_an_off_centre_target() {
        // A target far from the centre in a large image: best-first
        // refinement homes in via region probes instead of sweeping the
        // centre-out order past thousands of dead candidates.
        let target = Location::new(1, 14);
        let clf = FnClassifier::new(2, move |img: &Image| {
            // Margin shrinks as the perturbed pixel nears the target, so
            // region probes near it look promising; only the target pixel
            // itself flips the decision.
            let mut d_min = u16::MAX;
            for row in 0..img.height() as u16 {
                for col in 0..img.width() as u16 {
                    let loc = Location::new(row, col);
                    if img.pixel(loc).distance(Pixel([0.25; 3])) > 0.4 {
                        d_min = d_min.min(loc.distance(target));
                    }
                }
            }
            if d_min == 0 {
                vec![0.2, 0.8]
            } else {
                let m = if d_min == u16::MAX {
                    0.9
                } else {
                    (0.1 + 0.02 * d_min as f32).min(0.9)
                };
                vec![0.5 + m / 2.0, 0.5 - m / 2.0]
            }
        });
        let img = Image::filled(16, 16, Pixel([0.25, 0.25, 0.25]));
        let mut oracle = Oracle::new(&clf);
        let outcome = DeepSearch::default().attack(&mut oracle, &img, 0, &mut rng());
        assert!(outcome.is_success(), "got {outcome:?}");
        let full_scan = 8 * 16 * 16;
        assert!(
            outcome.queries() < full_scan / 4,
            "best-first spent {} queries, worse than a quarter of the {full_scan} scan",
            outcome.queries()
        );
    }

    #[test]
    fn already_misclassified_short_circuits() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.1, 0.9]);
        let img = Image::filled(4, 4, Pixel([0.5, 0.5, 0.5]));
        let mut oracle = Oracle::new(&clf);
        let outcome = DeepSearch::default().attack(&mut oracle, &img, 0, &mut rng());
        assert_eq!(outcome, AttackOutcome::AlreadyMisclassified { queries: 1 });
    }

    #[test]
    fn budget_exhaustion_reports_failure() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let img = Image::filled(5, 5, Pixel([0.5, 0.5, 0.5]));
        let mut oracle = Oracle::with_budget(&clf, 10);
        let outcome = DeepSearch::default().attack(&mut oracle, &img, 0, &mut rng());
        assert_eq!(outcome, AttackOutcome::Failure { queries: 10 });
    }
}
