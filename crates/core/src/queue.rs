//! The sketch's priority queue over location–perturbation pairs.
//!
//! Appendix A prescribes the initial order (primary: pixel distance of the
//! corner from the image's pixel, farthest first; secondary: location
//! distance from the image centre, closest first) and four operations that
//! dominate the inner loop: pop-front, push-back (re-prioritize), arbitrary
//! remove (eager checking), and "next pair at a location in queue order"
//! (`closest_pert`). This implementation is an arena-backed intrusive
//! doubly-linked list — every operation is O(1) except neighbour lookups,
//! which are O(8).

use crate::image::Image;
use crate::pair::{Corner, Location, Pair};

/// Dense id of a pair: `(row·width + col)·8 + corner`.
type PairId = u32;

#[derive(Debug, Clone, Copy)]
struct Entry {
    prev: Option<PairId>,
    next: Option<PairId>,
    alive: bool,
}

/// Queue of remaining location–perturbation candidates (`L` in
/// Algorithm 1).
///
/// # Examples
///
/// ```
/// use oppsla_core::image::Image;
/// use oppsla_core::pair::Pixel;
/// use oppsla_core::queue::PairQueue;
///
/// let img = Image::filled(3, 3, Pixel([0.0, 0.0, 0.0]));
/// let mut queue = PairQueue::for_image(&img);
/// assert_eq!(queue.len(), 8 * 9);
/// let first = queue.pop().unwrap();
/// // Black image → the farthest corner is white, and the centre comes first.
/// assert_eq!(first.corner.as_pixel().0, [1.0, 1.0, 1.0]);
/// assert_eq!((first.location.row, first.location.col), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct PairQueue {
    height: usize,
    width: usize,
    entries: Vec<Entry>,
    head: Option<PairId>,
    tail: Option<PairId>,
    /// Per location: the corner ids still in the queue, in queue-relative
    /// order (initial order = farthness rank; push-back moves to the end).
    per_location: Vec<Vec<u8>>,
    len: usize,
}

impl PairQueue {
    /// Builds the initial queue for `image` with the paper's ordering.
    pub fn for_image(image: &Image) -> Self {
        // The uniform prior weighs every location equally, so this is
        // exactly the paper's order (and byte-identical to the
        // pre-prior implementation).
        Self::for_image_with_prior(image, 0, &crate::prior::Uniform)
    }

    /// Builds the initial queue for an `image` of class `class`, with
    /// locations ordered by descending `prior` weight. Ties (and the
    /// [`Uniform`](crate::prior::Uniform) prior, where everything ties)
    /// fall back to the paper's centre-out order, ties row-major.
    pub fn for_image_with_prior(
        image: &Image,
        class: usize,
        prior: &dyn crate::prior::Prior,
    ) -> Self {
        let (h, w) = (image.height(), image.width());
        let num_pairs = 8 * h * w;
        let mut queue = PairQueue {
            height: h,
            width: w,
            entries: vec![
                Entry {
                    prev: None,
                    next: None,
                    alive: false,
                };
                num_pairs
            ],
            head: None,
            tail: None,
            per_location: vec![Vec::with_capacity(8); h * w],
            len: 0,
        };

        // Locations sorted by descending prior weight (primary among
        // locations), centre-out (secondary), ties row-major. Weights
        // are precomputed once per location: priors are pure, but table
        // lookups inside a sort comparator would still be paid O(n log n)
        // times.
        let mut locations: Vec<(Location, f64)> = (0..h as u16)
            .flat_map(|row| (0..w as u16).map(move |col| Location::new(row, col)))
            .map(|loc| {
                let weight = prior.location_weight(class, image, loc);
                assert!(weight.is_finite(), "prior weight for {loc:?} not finite");
                (loc, weight)
            })
            .collect();
        locations.sort_by(|(a, wa), (b, wb)| {
            wb.partial_cmp(wa)
                .expect("prior weights are finite")
                .then(
                    image
                        .center_distance(*a)
                        .partial_cmp(&image.center_distance(*b))
                        .expect("centre distances are finite"),
                )
                .then(a.cmp(b))
        });
        let locations: Vec<Location> = locations.into_iter().map(|(loc, _)| loc).collect();

        // Farthness ranking per location (primary key).
        let rankings: Vec<[Corner; 8]> = locations
            .iter()
            .map(|&loc| Corner::ranked_by_distance(image.pixel(loc)))
            .collect();

        // Emit: for each rank (farthest first), all locations centre-out.
        for rank in 0..8 {
            for (loc, ranking) in locations.iter().zip(&rankings) {
                queue.append(Pair::new(*loc, ranking[rank]));
            }
        }
        queue
    }

    /// The number of pairs remaining.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the queue is exhausted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `pair` is still in the queue.
    pub fn contains(&self, pair: Pair) -> bool {
        self.entries[self.id(pair) as usize].alive
    }

    /// Pops the front pair.
    pub fn pop(&mut self) -> Option<Pair> {
        let id = self.head?;
        let pair = self.pair(id);
        self.detach(id);
        Some(pair)
    }

    /// Removes an arbitrary pair. Returns `true` when it was present.
    pub fn remove(&mut self, pair: Pair) -> bool {
        let id = self.id(pair);
        if !self.entries[id as usize].alive {
            return false;
        }
        self.detach(id);
        true
    }

    /// Moves a present pair to the back of the queue. Returns `true` when
    /// it was present (absent pairs are left absent).
    pub fn push_back(&mut self, pair: Pair) -> bool {
        if !self.remove(pair) {
            return false;
        }
        self.append(pair);
        true
    }

    /// The paper's `closest_pert(L, l)`: the next pair in queue order whose
    /// location is `l`, if any.
    pub fn next_at_location(&self, loc: Location) -> Option<Pair> {
        self.pairs_at_location(loc).next()
    }

    /// The pairs still in the queue whose location is `loc`, in queue
    /// order (at most 8; the first is [`PairQueue::next_at_location`]).
    pub fn pairs_at_location(&self, loc: Location) -> impl Iterator<Item = Pair> + '_ {
        self.per_location[self.loc_index(loc)]
            .iter()
            .map(move |&c| Pair::new(loc, Corner::new(c)))
    }

    /// The paper's `closest_loc(l, p)`: all pairs still in the queue whose
    /// location is at `L∞` distance 1 from `loc` and whose perturbation is
    /// `corner` (at most 8).
    pub fn location_neighbors(&self, loc: Location, corner: Corner) -> Vec<Pair> {
        loc.neighbors(self.height, self.width)
            .map(|n| Pair::new(n, corner))
            .filter(|&p| self.contains(p))
            .collect()
    }

    /// Remaining pairs in queue order (O(n); for tests and diagnostics).
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            queue: self,
            cursor: self.head,
        }
    }

    fn id(&self, pair: Pair) -> PairId {
        debug_assert!(
            (pair.location.row as usize) < self.height && (pair.location.col as usize) < self.width,
            "pair location out of bounds"
        );
        ((self.loc_index(pair.location) * 8) + pair.corner.index() as usize) as PairId
    }

    fn pair(&self, id: PairId) -> Pair {
        let corner = Corner::new((id % 8) as u8);
        let li = (id / 8) as usize;
        let loc = Location::new((li / self.width) as u16, (li % self.width) as u16);
        Pair::new(loc, corner)
    }

    fn loc_index(&self, loc: Location) -> usize {
        loc.row as usize * self.width + loc.col as usize
    }

    /// Links a currently-absent pair at the tail.
    fn append(&mut self, pair: Pair) {
        let id = self.id(pair);
        debug_assert!(!self.entries[id as usize].alive, "append of a live pair");
        self.entries[id as usize] = Entry {
            prev: self.tail,
            next: None,
            alive: true,
        };
        match self.tail {
            Some(t) => self.entries[t as usize].next = Some(id),
            None => self.head = Some(id),
        }
        self.tail = Some(id);
        let li = self.loc_index(pair.location);
        self.per_location[li].push(pair.corner.index());
        self.len += 1;
    }

    /// Unlinks a live pair.
    fn detach(&mut self, id: PairId) {
        let entry = self.entries[id as usize];
        debug_assert!(entry.alive, "detach of a dead pair");
        match entry.prev {
            Some(p) => self.entries[p as usize].next = entry.next,
            None => self.head = entry.next,
        }
        match entry.next {
            Some(n) => self.entries[n as usize].prev = entry.prev,
            None => self.tail = entry.prev,
        }
        self.entries[id as usize].alive = false;
        let pair = self.pair(id);
        let li = self.loc_index(pair.location);
        let corners = &mut self.per_location[li];
        let pos = corners
            .iter()
            .position(|&c| c == pair.corner.index())
            .expect("per-location list out of sync");
        corners.remove(pos);
        self.len -= 1;
    }
}

/// Iterator over the remaining pairs in queue order.
#[derive(Debug)]
pub struct Iter<'a> {
    queue: &'a PairQueue,
    cursor: Option<PairId>,
}

impl Iterator for Iter<'_> {
    type Item = Pair;

    fn next(&mut self) -> Option<Pair> {
        let id = self.cursor?;
        self.cursor = self.queue.entries[id as usize].next;
        Some(self.queue.pair(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::Pixel;

    fn black3() -> Image {
        Image::filled(3, 3, Pixel([0.0, 0.0, 0.0]))
    }

    #[test]
    fn initial_queue_has_all_pairs() {
        let q = PairQueue::for_image(&black3());
        assert_eq!(q.len(), 72);
        let all: Vec<Pair> = q.iter().collect();
        assert_eq!(all.len(), 72);
        let mut dedup = all.clone();
        dedup.sort_by_key(|p| (p.location, p.corner));
        dedup.dedup();
        assert_eq!(dedup.len(), 72, "all pairs distinct");
    }

    #[test]
    fn initial_order_is_farthest_rank_then_center_out() {
        // Black image: first 9 pairs are white (farthest), centre first.
        let img = black3();
        let q = PairQueue::for_image(&img);
        let pairs: Vec<Pair> = q.iter().collect();
        for p in &pairs[..9] {
            assert_eq!(
                p.corner,
                Corner::new(7),
                "first block is the farthest corner"
            );
        }
        assert_eq!(pairs[0].location, Location::new(1, 1), "centre first");
        // Within a block, centre distance is non-decreasing.
        for w in pairs[..9].windows(2) {
            assert!(
                img.center_distance(w[0].location) <= img.center_distance(w[1].location),
                "centre-out ordering violated"
            );
        }
        // Last block is the closest corner (black itself, distance 0).
        for p in &pairs[63..] {
            assert_eq!(p.corner, Corner::new(0));
        }
    }

    #[test]
    fn pop_drains_in_order_and_empties() {
        let mut q = PairQueue::for_image(&black3());
        let mut n = 0;
        let mut last: Option<Pair> = None;
        while let Some(p) = q.pop() {
            n += 1;
            last = Some(p);
        }
        assert_eq!(n, 72);
        assert!(q.is_empty());
        assert_eq!(last.unwrap().corner, Corner::new(0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn remove_then_contains_is_false() {
        let mut q = PairQueue::for_image(&black3());
        let p = Pair::new(Location::new(0, 0), Corner::new(3));
        assert!(q.contains(p));
        assert!(q.remove(p));
        assert!(!q.contains(p));
        assert!(!q.remove(p), "double remove reports absence");
        assert_eq!(q.len(), 71);
    }

    #[test]
    fn push_back_moves_to_tail() {
        let mut q = PairQueue::for_image(&black3());
        let first = q.iter().next().unwrap();
        assert!(q.push_back(first));
        let all: Vec<Pair> = q.iter().collect();
        assert_eq!(*all.last().unwrap(), first);
        assert_eq!(all.len(), 72, "push_back preserves the element count");
        assert_ne!(all[0], first);
    }

    #[test]
    fn push_back_of_absent_pair_is_noop() {
        let mut q = PairQueue::for_image(&black3());
        let p = Pair::new(Location::new(2, 2), Corner::new(5));
        q.remove(p);
        assert!(!q.push_back(p));
        assert!(!q.contains(p));
    }

    #[test]
    fn next_at_location_follows_queue_order() {
        let img = black3();
        let mut q = PairQueue::for_image(&img);
        let loc = Location::new(1, 1);
        // Black pixel: order is white (7) first … black (0) last.
        assert_eq!(q.next_at_location(loc).unwrap().corner, Corner::new(7));
        q.remove(Pair::new(loc, Corner::new(7)));
        let second = q.next_at_location(loc).unwrap().corner;
        let ranked = Corner::ranked_by_distance(img.pixel(loc));
        assert_eq!(second, ranked[1]);
        // Push the second to the back: the third in the ranking surfaces.
        q.push_back(Pair::new(loc, second));
        assert_eq!(q.next_at_location(loc).unwrap().corner, ranked[2]);
    }

    #[test]
    fn next_at_location_none_when_exhausted() {
        let mut q = PairQueue::for_image(&black3());
        let loc = Location::new(0, 1);
        for c in Corner::ALL {
            q.remove(Pair::new(loc, c));
        }
        assert!(q.next_at_location(loc).is_none());
    }

    #[test]
    fn location_neighbors_filters_removed() {
        let mut q = PairQueue::for_image(&black3());
        let loc = Location::new(1, 1);
        let c = Corner::new(7);
        assert_eq!(q.location_neighbors(loc, c).len(), 8);
        q.remove(Pair::new(Location::new(0, 0), c));
        q.remove(Pair::new(Location::new(2, 1), c));
        let n = q.location_neighbors(loc, c);
        assert_eq!(n.len(), 6);
        assert!(n.iter().all(|p| p.corner == c));
        assert!(n.iter().all(|p| p.location.distance(loc) == 1));
    }

    #[test]
    fn corner_location_has_three_neighbors() {
        let q = PairQueue::for_image(&black3());
        assert_eq!(
            q.location_neighbors(Location::new(0, 0), Corner::new(2))
                .len(),
            3
        );
    }

    #[test]
    fn uniform_prior_reproduces_the_paper_order_exactly() {
        let img = black3();
        let plain: Vec<Pair> = PairQueue::for_image(&img).iter().collect();
        let uniform: Vec<Pair> = PairQueue::for_image_with_prior(&img, 2, &crate::prior::Uniform)
            .iter()
            .collect();
        assert_eq!(plain, uniform);
    }

    #[test]
    fn saliency_prior_orders_hot_cells_first() {
        // 3x3 image on a 3x3 grid: each location is its own cell. Make
        // the top-left corner the hottest for class 0.
        let img = black3();
        let mut table = vec![0.0; 9];
        table[0] = 10.0;
        let prior = crate::prior::SaliencyPrior::new(3, vec![table]);
        let q = PairQueue::for_image_with_prior(&img, 0, &prior);
        let pairs: Vec<Pair> = q.iter().collect();
        // Every rank block (9 locations each) leads with (0, 0).
        for rank in 0..8 {
            assert_eq!(
                pairs[rank * 9].location,
                Location::new(0, 0),
                "rank {rank} must lead with the hot cell"
            );
        }
        // Remaining locations keep the centre-out tie-break: the centre
        // is second.
        assert_eq!(pairs[1].location, Location::new(1, 1));
        // A class without a table falls back to the uniform order.
        let fallback: Vec<Pair> = PairQueue::for_image_with_prior(&img, 5, &prior)
            .iter()
            .collect();
        let plain: Vec<Pair> = PairQueue::for_image(&img).iter().collect();
        assert_eq!(fallback, plain);
    }

    #[test]
    fn interleaved_operations_preserve_invariants() {
        let mut q = PairQueue::for_image(&black3());
        let mut expected = 72usize;
        // Pop 10, push 5 survivors back, remove 7 arbitrary pairs.
        for _ in 0..10 {
            q.pop().unwrap();
            expected -= 1;
        }
        let survivors: Vec<Pair> = q.iter().take(5).collect();
        for p in &survivors {
            assert!(q.push_back(*p));
        }
        let victims: Vec<Pair> = q.iter().skip(3).take(7).collect();
        for p in &victims {
            assert!(q.remove(*p));
            expected -= 1;
        }
        assert_eq!(q.len(), expected);
        assert_eq!(q.iter().count(), expected);
        // Every iterated pair reports contained.
        for p in q.iter() {
            assert!(q.contains(p));
        }
    }
}
