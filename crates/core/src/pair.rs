//! Locations, pixels, RGB-cube corners and location–perturbation pairs —
//! the candidate space of the one-pixel attack, together with the two
//! distance metrics the sketch is built on (Section 3.1 of the paper).

use std::fmt;

/// A pixel location `(row, col)` in an image (`l = (i, j)` in the paper).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Location {
    /// Row index (`i`).
    pub row: u16,
    /// Column index (`j`).
    pub col: u16,
}

impl Location {
    /// Creates a location.
    pub fn new(row: u16, col: u16) -> Self {
        Location { row, col }
    }

    /// The paper's location distance: `L∞` (`max(|i₁−i₂|, |j₁−j₂|)`).
    pub fn distance(self, other: Location) -> u16 {
        let dr = self.row.abs_diff(other.row);
        let dc = self.col.abs_diff(other.col);
        dr.max(dc)
    }

    /// The up-to-eight locations at `L∞` distance exactly 1, within a
    /// `height × width` grid.
    pub fn neighbors(self, height: usize, width: usize) -> impl Iterator<Item = Location> {
        let (row, col) = (self.row as i32, self.col as i32);
        let (h, w) = (height as i32, width as i32);
        DELTAS.iter().filter_map(move |&(dr, dc)| {
            let (nr, nc) = (row + dr, col + dc);
            (nr >= 0 && nr < h && nc >= 0 && nc < w).then(|| Location::new(nr as u16, nc as u16))
        })
    }
}

const DELTAS: [(i32, i32); 8] = [
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -1),
    (0, 1),
    (1, -1),
    (1, 0),
    (1, 1),
];

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// An RGB pixel value in `[0, 1]³`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Pixel(pub [f32; 3]);

impl Pixel {
    /// The paper's pixel distance: `L₁`
    /// (`|r₁−r₂| + |g₁−g₂| + |b₁−b₂|`).
    pub fn distance(self, other: Pixel) -> f32 {
        (self.0[0] - other.0[0]).abs()
            + (self.0[1] - other.0[1]).abs()
            + (self.0[2] - other.0[2]).abs()
    }

    /// Maximum channel value.
    pub fn max_channel(self) -> f32 {
        self.0[0].max(self.0[1]).max(self.0[2])
    }

    /// Minimum channel value.
    pub fn min_channel(self) -> f32 {
        self.0[0].min(self.0[1]).min(self.0[2])
    }

    /// Mean channel value.
    pub fn avg_channel(self) -> f32 {
        (self.0[0] + self.0[1] + self.0[2]) / 3.0
    }
}

impl fmt::Display for Pixel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2}, {:.2})", self.0[0], self.0[1], self.0[2])
    }
}

/// One of the eight corners of the RGB colour cube, `S = {0, 1}³`.
///
/// Sparse-RS observed (and this paper adopts) that almost all successful
/// one-pixel perturbations use a cube corner, shrinking the candidate space
/// to `8 · d₁ · d₂`. The index encodes the channels bitwise: bit 2 = red,
/// bit 1 = green, bit 0 = blue.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Corner(u8);

impl Corner {
    /// All eight corners, in index order.
    pub const ALL: [Corner; 8] = [
        Corner(0),
        Corner(1),
        Corner(2),
        Corner(3),
        Corner(4),
        Corner(5),
        Corner(6),
        Corner(7),
    ];

    /// Creates a corner from its 3-bit index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 8`.
    pub fn new(index: u8) -> Self {
        assert!(index < 8, "corner index {index} out of range");
        Corner(index)
    }

    /// The corner's 3-bit index.
    pub fn index(self) -> u8 {
        self.0
    }

    /// The corner as a pixel value.
    pub fn as_pixel(self) -> Pixel {
        Pixel([
            ((self.0 >> 2) & 1) as f32,
            ((self.0 >> 1) & 1) as f32,
            (self.0 & 1) as f32,
        ])
    }

    /// Ranks all eight corners by decreasing `L₁` distance from `pixel`
    /// (the paper's "farthest pixel, second farthest pixel, …" ordering).
    /// Ties break by corner index so the ranking is total and
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if a channel of `pixel` is NaN.
    pub fn ranked_by_distance(pixel: Pixel) -> [Corner; 8] {
        // Each distance once, then a stable sort on them: ties keep index
        // order.
        let dist = Corner::ALL.map(|c| pixel.distance(c.as_pixel()));
        let mut ranked = Corner::ALL;
        ranked.sort_by(|a, b| {
            dist[b.index() as usize]
                .partial_cmp(&dist[a.index() as usize])
                .expect("pixel distances are finite")
        });
        ranked
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.as_pixel();
        write!(f, "({}, {}, {})", p.0[0] as u8, p.0[1] as u8, p.0[2] as u8)
    }
}

/// A location–perturbation candidate: perturb the pixel at `location` to
/// the colour-cube `corner`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Pair {
    /// Where to perturb.
    pub location: Location,
    /// What to perturb to.
    pub corner: Corner,
}

impl Pair {
    /// Creates a pair.
    pub fn new(location: Location, corner: Corner) -> Self {
        Pair { location, corner }
    }
}

impl fmt::Display for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ← {}", self.location, self.corner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_distance_is_l_infinity() {
        let a = Location::new(3, 4);
        assert_eq!(a.distance(Location::new(3, 4)), 0);
        assert_eq!(a.distance(Location::new(4, 4)), 1);
        assert_eq!(a.distance(Location::new(5, 2)), 2);
        assert_eq!(a.distance(Location::new(0, 4)), 3);
    }

    #[test]
    fn neighbors_interior_has_eight() {
        let n: Vec<_> = Location::new(5, 5).neighbors(10, 10).collect();
        assert_eq!(n.len(), 8);
        assert!(n.iter().all(|l| l.distance(Location::new(5, 5)) == 1));
    }

    #[test]
    fn neighbors_corner_has_three() {
        let n: Vec<_> = Location::new(0, 0).neighbors(10, 10).collect();
        assert_eq!(n.len(), 3);
    }

    #[test]
    fn neighbors_edge_has_five() {
        let n: Vec<_> = Location::new(0, 5).neighbors(10, 10).collect();
        assert_eq!(n.len(), 5);
    }

    #[test]
    fn pixel_distance_is_l1() {
        let a = Pixel([0.0, 0.5, 1.0]);
        let b = Pixel([1.0, 0.5, 0.0]);
        assert_eq!(a.distance(b), 2.0);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn corner_bit_encoding() {
        assert_eq!(Corner::new(0).as_pixel(), Pixel([0.0, 0.0, 0.0]));
        assert_eq!(Corner::new(7).as_pixel(), Pixel([1.0, 1.0, 1.0]));
        assert_eq!(Corner::new(4).as_pixel(), Pixel([1.0, 0.0, 0.0]));
        assert_eq!(Corner::new(1).as_pixel(), Pixel([0.0, 0.0, 1.0]));
    }

    #[test]
    fn ranking_starts_with_farthest_corner() {
        // A black pixel: farthest corner is white (distance 3).
        let ranked = Corner::ranked_by_distance(Pixel([0.0, 0.0, 0.0]));
        assert_eq!(ranked[0], Corner::new(7));
        assert_eq!(ranked[7], Corner::new(0));
        // Distances must be non-increasing.
        let black = Pixel([0.0, 0.0, 0.0]);
        for w in ranked.windows(2) {
            assert!(
                black.distance(w[0].as_pixel()) >= black.distance(w[1].as_pixel()),
                "ranking not monotone"
            );
        }
    }

    #[test]
    fn ranking_is_a_permutation() {
        let ranked = Corner::ranked_by_distance(Pixel([0.3, 0.7, 0.5]));
        let mut seen = [false; 8];
        for c in ranked {
            assert!(!seen[c.index() as usize], "corner repeated");
            seen[c.index() as usize] = true;
        }
    }

    #[test]
    fn ranking_ties_break_by_index() {
        // Grey pixel (0.5,0.5,0.5): all corners at distance 1.5 → index order.
        let ranked = Corner::ranked_by_distance(Pixel([0.5, 0.5, 0.5]));
        assert_eq!(ranked, Corner::ALL);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn corner_rejects_large_index() {
        Corner::new(8);
    }
}
