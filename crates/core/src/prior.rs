//! Pluggable candidate priors over the sketch's initial queue order.
//!
//! Appendix A's initial order is uniform over locations (centre-out is
//! only a tie-break heuristic). *Guessing Smart* (arXiv:1812.09803)
//! shows that biasing black-box search with cheap priors cuts queries;
//! here a [`Prior`] reorders the initial [`PairQueue`](crate::queue::PairQueue)
//! by per-location promise — typically per-class pixel-saliency
//! statistics mined offline from successful attack traces. The prior
//! only permutes the *starting* order: the sketch's B1–B4 runtime
//! re-prioritization, the removal discipline, and the per-location
//! corner ranking are untouched, so query accounting semantics are
//! identical for every prior.

use crate::image::Image;
use crate::pair::Location;

/// A deterministic prior over candidate locations.
///
/// Higher weights order a location *earlier* in the initial queue; ties
/// fall back to the paper's centre-out order, so the [`Uniform`] prior
/// (all weights equal) reproduces the paper's queue exactly,
/// byte-for-byte. Implementations must return finite weights and be a
/// pure function of their arguments — the queue order, and therefore
/// every downstream query count, must not depend on call order or
/// thread count.
pub trait Prior: Send + Sync {
    /// The relative promise of perturbing `location` on `image`, whose
    /// true class is `class`.
    fn location_weight(&self, class: usize, image: &Image, location: Location) -> f64;

    /// A short stable name for reports and CLI display.
    fn name(&self) -> &'static str {
        "prior"
    }
}

/// The default prior: every location equally promising, reproducing the
/// paper's centre-out initial order exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Uniform;

impl Prior for Uniform {
    fn location_weight(&self, _class: usize, _image: &Image, _location: Location) -> f64 {
        0.0
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// A per-class pixel-saliency prior on a fixed grid of normalized
/// coordinates.
///
/// Each class holds a `grid × grid` table of weights; a location maps
/// to the cell containing its normalized `(row + 0.5)/height,
/// (col + 0.5)/width` coordinate, so one table serves every input
/// geometry. Classes without a table (or an empty `per_class`) fall
/// back to uniform weight 0. Tables are typically mined from a
/// `trace_report` corpus by counting where successful flips landed —
/// see `oppsla-eval`'s prior miner.
#[derive(Debug, Clone, PartialEq)]
pub struct SaliencyPrior {
    grid: usize,
    per_class: Vec<Vec<f64>>,
}

impl SaliencyPrior {
    /// Builds a prior from per-class weight tables, each of length
    /// `grid * grid` in row-major cell order.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is zero or its square overflows `usize`, any
    /// table has the wrong length, or any weight is non-finite (a NaN
    /// weight would make the queue order undefined).
    pub fn new(grid: usize, per_class: Vec<Vec<f64>>) -> Self {
        assert!(grid > 0, "saliency grid must be at least 1x1");
        let cells = grid
            .checked_mul(grid)
            .expect("saliency grid^2 overflows usize");
        for (class, table) in per_class.iter().enumerate() {
            assert_eq!(table.len(), cells, "class {class} table length != grid^2");
            assert!(
                table.iter().all(|w| w.is_finite()),
                "class {class} has a non-finite weight"
            );
        }
        SaliencyPrior { grid, per_class }
    }

    /// Bins per axis.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// The per-class tables, row-major, as passed to [`SaliencyPrior::new`].
    pub fn tables(&self) -> &[Vec<f64>] {
        &self.per_class
    }

    /// The row-major cell index of `location` on an `height × width`
    /// image.
    pub fn cell(&self, height: usize, width: usize, location: Location) -> usize {
        // Cell of the pixel centre; clamp covers the `coord == 1.0` edge
        // that exact arithmetic cannot reach but rounding could.
        let bin = |i: usize, n: usize| {
            (((i as f64 + 0.5) / n as f64) * self.grid as f64).min(self.grid as f64 - 1.0) as usize
        };
        bin(location.row as usize, height) * self.grid + bin(location.col as usize, width)
    }
}

impl Prior for SaliencyPrior {
    fn location_weight(&self, class: usize, image: &Image, location: Location) -> f64 {
        match self.per_class.get(class) {
            Some(table) => table[self.cell(image.height(), image.width(), location)],
            None => 0.0,
        }
    }

    fn name(&self) -> &'static str {
        "saliency"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::Pixel;

    #[test]
    fn uniform_weighs_everything_equally() {
        let img = Image::filled(4, 4, Pixel([0.5; 3]));
        let p = Uniform;
        assert_eq!(p.location_weight(0, &img, Location::new(0, 0)), 0.0);
        assert_eq!(p.location_weight(7, &img, Location::new(3, 3)), 0.0);
        assert_eq!(p.name(), "uniform");
    }

    #[test]
    fn saliency_cells_cover_the_image() {
        let prior = SaliencyPrior::new(4, vec![]);
        // Every location of a 32x32 image maps into [0, 16).
        for row in 0..32u16 {
            for col in 0..32u16 {
                let c = prior.cell(32, 32, Location::new(row, col));
                assert!(c < 16, "({row},{col}) -> {c}");
            }
        }
        // Corner pixels land in corner cells.
        assert_eq!(prior.cell(32, 32, Location::new(0, 0)), 0);
        assert_eq!(prior.cell(32, 32, Location::new(31, 31)), 15);
    }

    #[test]
    fn saliency_serves_per_class_tables_with_uniform_fallback() {
        let mut hot_center = vec![0.0; 4];
        hot_center[3] = 5.0; // bottom-right cell of a 2x2 grid
        let prior = SaliencyPrior::new(2, vec![vec![1.0; 4], hot_center]);
        let img = Image::filled(8, 8, Pixel([0.5; 3]));
        let br = Location::new(7, 7);
        let tl = Location::new(0, 0);
        assert_eq!(prior.location_weight(1, &img, br), 5.0);
        assert_eq!(prior.location_weight(1, &img, tl), 0.0);
        assert_eq!(prior.location_weight(0, &img, br), 1.0);
        // Class without a table: uniform.
        assert_eq!(prior.location_weight(9, &img, br), 0.0);
    }

    #[test]
    #[should_panic(expected = "table length")]
    fn saliency_rejects_misshapen_tables() {
        SaliencyPrior::new(3, vec![vec![0.0; 8]]);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn saliency_rejects_a_grid_whose_square_overflows() {
        // Unchecked, the square wraps to 0 in a release build and the
        // empty table passes.
        SaliencyPrior::new(1 << (usize::BITS / 2), vec![vec![]]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn saliency_rejects_nan_weights() {
        SaliencyPrior::new(1, vec![vec![f64::NAN]]);
    }
}
