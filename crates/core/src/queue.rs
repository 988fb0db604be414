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
use std::ops::Deref;

/// Dense id of a pair: `(location index << 3) | corner`, where a
/// location's index is `(row << col_bits) | col` and `1 << col_bits` is
/// the width rounded up to a power of two, so ids decode with shifts and
/// masks instead of a division by the width.
type PairId = u32;

/// The link of an entry without a predecessor or successor.
const NIL: PairId = PairId::MAX;

/// A pair's links in the queue; meaningful only while the pair is queued.
#[derive(Debug, Clone, Copy)]
struct Entry {
    prev: PairId,
    next: PairId,
}

const UNLINKED: Entry = Entry {
    prev: NIL,
    next: NIL,
};

/// The corners still queued at one location, held inline: their ids in
/// queue-relative order (initial order = farthness rank; push-back moves
/// to the end), and a bit per corner for membership.
#[derive(Debug, Clone, Copy, Default)]
struct Corners {
    ids: [u8; 8],
    len: u8,
    queued: u8,
}

impl Corners {
    fn as_slice(&self) -> &[u8] {
        &self.ids[..self.len as usize]
    }

    fn contains(&self, corner: u8) -> bool {
        self.queued & (1 << corner) != 0
    }

    fn push(&mut self, corner: u8) {
        debug_assert!(!self.contains(corner), "append of a live pair");
        self.ids[self.len as usize] = corner;
        self.len += 1;
        self.queued |= 1 << corner;
    }

    fn remove(&mut self, corner: u8) {
        let pos = self
            .as_slice()
            .iter()
            .position(|&c| c == corner)
            .expect("per-location list out of sync");
        self.ids.copy_within(pos + 1..self.len as usize, pos);
        self.len -= 1;
        self.queued &= !(1 << corner);
    }
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
    /// Bits of the column in a location index (see [`PairId`]).
    col_bits: u32,
    entries: Vec<Entry>,
    head: PairId,
    tail: PairId,
    /// Per location index: the corners still in the queue.
    per_location: Vec<Corners>,
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
    ///
    /// # Panics
    ///
    /// Panics if a prior weight is not finite, or the image has more
    /// pairs than 32-bit ids can name.
    pub fn for_image_with_prior(
        image: &Image,
        class: usize,
        prior: &dyn crate::prior::Prior,
    ) -> Self {
        let (h, w) = (image.height(), image.width());
        let col_bits = w.next_power_of_two().trailing_zeros();
        let num_ids = (h << col_bits) * 8;
        assert!(num_ids <= NIL as usize, "{h}x{w} image overflows pair ids");
        let mut queue = PairQueue {
            height: h,
            width: w,
            col_bits,
            entries: vec![UNLINKED; num_ids],
            head: NIL,
            tail: NIL,
            per_location: vec![Corners::default(); h << col_bits],
            len: 0,
        };

        // Each location's sort key, computed once: descending prior
        // weight (primary among locations), centre-out (secondary), ties
        // row-major. The centre sits on a pixel or halfway between two,
        // so twice a location's L∞ distance from it is an exact integer
        // with the order of `Image::center_distance`; packed above the
        // row and column, one integer compare settles all but the weight.
        let mut keys: Vec<(f64, u64)> = Vec::with_capacity(h * w);
        for row in 0..h {
            for col in 0..w {
                let loc = Location::new(row as u16, col as u16);
                let weight = prior.location_weight(class, image, loc);
                assert!(weight.is_finite(), "prior weight for {loc:?} not finite");
                let centre2 = (2 * row).abs_diff(h - 1).max((2 * col).abs_diff(w - 1));
                keys.push((
                    weight,
                    (centre2 as u64) << 32 | (row as u64) << 16 | col as u64,
                ));
            }
        }
        keys.sort_unstable_by(|(wa, a), (wb, b)| {
            wb.partial_cmp(wa)
                .expect("prior weights are finite")
                .then(a.cmp(b))
        });

        // Farthness ranking per location (primary key), stored as the
        // location's queued corners; then emit, for each rank (farthest
        // first), all locations in key order.
        let locations: Vec<usize> = keys
            .iter()
            .map(|&(_, key)| {
                let loc = Location::new((key >> 16) as u16, key as u16);
                let li = queue.loc_index(loc);
                let ranking = Corner::ranked_by_distance(image.pixel(loc));
                queue.per_location[li] = Corners {
                    ids: ranking.map(Corner::index),
                    len: 8,
                    queued: u8::MAX,
                };
                li
            })
            .collect();
        for rank in 0..8 {
            for &li in &locations {
                let corner = queue.per_location[li].ids[rank];
                queue.link_tail(((li << 3) | corner as usize) as PairId);
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
        self.per_location[self.loc_index(pair.location)].contains(pair.corner.index())
    }

    /// Pops the front pair.
    pub fn pop(&mut self) -> Option<Pair> {
        let id = self.head;
        if id == NIL {
            return None;
        }
        let pair = self.pair(id);
        self.detach(id);
        Some(pair)
    }

    /// Removes an arbitrary pair. Returns `true` when it was present.
    pub fn remove(&mut self, pair: Pair) -> bool {
        if !self.contains(pair) {
            return false;
        }
        self.detach(self.id(pair));
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
            .as_slice()
            .iter()
            .map(move |&c| Pair::new(loc, Corner::new(c)))
    }

    /// The paper's `closest_loc(l, p)`: all pairs still in the queue whose
    /// location is at `L∞` distance 1 from `loc` and whose perturbation is
    /// `corner` (at most 8, in [`Location::neighbors`] order).
    pub fn location_neighbors(&self, loc: Location, corner: Corner) -> Neighbors {
        let mut out = Neighbors {
            pairs: [Pair::new(loc, corner); 8],
            len: 0,
        };
        for n in loc.neighbors(self.height, self.width) {
            let pair = Pair::new(n, corner);
            if self.contains(pair) {
                out.pairs[out.len as usize] = pair;
                out.len += 1;
            }
        }
        out
    }

    /// Remaining pairs in queue order (O(n); for tests and diagnostics).
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            queue: self,
            cursor: self.head,
        }
    }

    fn id(&self, pair: Pair) -> PairId {
        ((self.loc_index(pair.location) << 3) | pair.corner.index() as usize) as PairId
    }

    fn pair(&self, id: PairId) -> Pair {
        let li = id >> 3;
        let loc = Location::new(
            (li >> self.col_bits) as u16,
            (li & ((1 << self.col_bits) - 1)) as u16,
        );
        Pair::new(loc, Corner::new((id & 7) as u8))
    }

    fn loc_index(&self, loc: Location) -> usize {
        debug_assert!(
            (loc.row as usize) < self.height && (loc.col as usize) < self.width,
            "pair location out of bounds"
        );
        (loc.row as usize) << self.col_bits | loc.col as usize
    }

    /// Links a currently-absent pair at the tail.
    fn append(&mut self, pair: Pair) {
        let li = self.loc_index(pair.location);
        self.per_location[li].push(pair.corner.index());
        self.link_tail(self.id(pair));
    }

    /// Links the entry `id` at the tail of the list (its location's
    /// corner list is the caller's).
    fn link_tail(&mut self, id: PairId) {
        self.entries[id as usize] = Entry {
            prev: self.tail,
            next: NIL,
        };
        match self.tail {
            NIL => self.head = id,
            t => self.entries[t as usize].next = id,
        }
        self.tail = id;
        self.len += 1;
    }

    /// Unlinks a live pair.
    fn detach(&mut self, id: PairId) {
        let entry = self.entries[id as usize];
        match entry.prev {
            NIL => self.head = entry.next,
            p => self.entries[p as usize].next = entry.next,
        }
        match entry.next {
            NIL => self.tail = entry.prev,
            n => self.entries[n as usize].prev = entry.prev,
        }
        self.per_location[(id >> 3) as usize].remove((id & 7) as u8);
        self.len -= 1;
    }
}

/// The pairs [`PairQueue::location_neighbors`] found, at most eight, held
/// inline so the sketch's per-failure neighbour lists allocate nothing.
/// Dereferences to a slice; iterating by value yields the pairs in order.
#[derive(Debug, Clone, Copy)]
pub struct Neighbors {
    pairs: [Pair; 8],
    len: u8,
}

impl Deref for Neighbors {
    type Target = [Pair];

    fn deref(&self) -> &[Pair] {
        &self.pairs[..self.len as usize]
    }
}

impl IntoIterator for Neighbors {
    type Item = Pair;
    type IntoIter = std::iter::Take<std::array::IntoIter<Pair, 8>>;

    fn into_iter(self) -> Self::IntoIter {
        self.pairs.into_iter().take(self.len as usize)
    }
}

/// Iterator over the remaining pairs in queue order.
#[derive(Debug)]
pub struct Iter<'a> {
    queue: &'a PairQueue,
    cursor: PairId,
}

impl Iterator for Iter<'_> {
    type Item = Pair;

    fn next(&mut self) -> Option<Pair> {
        let id = self.cursor;
        if id == NIL {
            return None;
        }
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
