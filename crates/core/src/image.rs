//! Images and one-pixel perturbations.

use crate::pair::{Location, Pixel};
use std::fmt;

/// An RGB image in `[0, 1]`, stored CHW (channel-major) to match the
//  network substrate's layout so classifier adapters can copy it directly.
/// Pixel access is by `(row, col)` [`Location`].
///
/// # Examples
///
/// ```
/// use oppsla_core::image::Image;
/// use oppsla_core::pair::{Location, Pixel};
///
/// let img = Image::filled(4, 4, Pixel([0.5, 0.5, 0.5]));
/// let loc = Location::new(1, 2);
/// let adv = img.with_pixel(loc, Pixel([1.0, 0.0, 0.0]));
/// assert_eq!(adv.pixel(loc), Pixel([1.0, 0.0, 0.0]));
/// assert_eq!(img.pixel(loc), Pixel([0.5, 0.5, 0.5])); // original untouched
/// ```
#[derive(Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Image {
    height: usize,
    width: usize,
    /// CHW data: `data[c*h*w + row*w + col]`.
    data: Vec<f32>,
}

impl Image {
    /// Creates an image from CHW data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != 3·height·width`, the extents are zero, any
    /// value lies outside `[0, 1]`, or an extent exceeds `u16::MAX`
    /// (locations are 16-bit).
    pub fn new(height: usize, width: usize, data: Vec<f32>) -> Self {
        assert!(height > 0 && width > 0, "image extents must be positive");
        assert!(
            height <= u16::MAX as usize && width <= u16::MAX as usize,
            "image extents exceed the 16-bit location space"
        );
        assert_eq!(
            data.len(),
            3 * height * width,
            "expected {} CHW values, got {}",
            3 * height * width,
            data.len()
        );
        assert!(
            data.iter().all(|v| (0.0..=1.0).contains(v)),
            "image values must lie in [0, 1]"
        );
        Image {
            height,
            width,
            data,
        }
    }

    /// Creates a solid-colour image.
    pub fn filled(height: usize, width: usize, pixel: Pixel) -> Self {
        let area = height * width;
        let mut data = Vec::with_capacity(3 * area);
        for c in pixel.0 {
            assert!((0.0..=1.0).contains(&c), "pixel values must lie in [0, 1]");
            data.extend(std::iter::repeat_n(c, area));
        }
        Image::new(height, width, data)
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total pixel count (`d1 · d2` in the paper).
    pub fn num_pixels(&self) -> usize {
        self.height * self.width
    }

    /// The raw CHW data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The pixel at `loc` (`x_l` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of bounds.
    pub fn pixel(&self, loc: Location) -> Pixel {
        let (row, col) = (loc.row as usize, loc.col as usize);
        assert!(
            row < self.height && col < self.width,
            "location out of bounds"
        );
        let area = self.height * self.width;
        let off = row * self.width + col;
        Pixel([
            self.data[off],
            self.data[area + off],
            self.data[2 * area + off],
        ])
    }

    /// Returns a copy with the pixel at `loc` replaced (`x[l ← p]`).
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of bounds or `pixel` has values outside
    /// `[0, 1]`.
    pub fn with_pixel(&self, loc: Location, pixel: Pixel) -> Image {
        let mut out = self.clone();
        out.set_pixel(loc, pixel);
        out
    }

    /// Replaces the pixel at `loc` in place.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of bounds or `pixel` has values outside
    /// `[0, 1]`.
    pub fn set_pixel(&mut self, loc: Location, pixel: Pixel) {
        let (row, col) = (loc.row as usize, loc.col as usize);
        assert!(
            row < self.height && col < self.width,
            "location out of bounds"
        );
        assert!(
            pixel.0.iter().all(|v| (0.0..=1.0).contains(v)),
            "pixel values must lie in [0, 1]"
        );
        let area = self.height * self.width;
        let off = row * self.width + col;
        self.data[off] = pixel.0[0];
        self.data[area + off] = pixel.0[1];
        self.data[2 * area + off] = pixel.0[2];
    }

    /// True when `other` has the same extents and every channel value
    /// has the same bit pattern (so `-0.0` and `+0.0` differ, unlike
    /// `==`). One pass without an early exit, which the compiler
    /// vectorises: it is meant for images that are usually equal.
    pub fn same_bits(&self, other: &Image) -> bool {
        self.height == other.height
            && self.width == other.width
            && self
                .data
                .iter()
                .zip(&other.data)
                .fold(0, |diff, (a, b)| diff | (a.to_bits() ^ b.to_bits()))
                == 0
    }

    /// The L∞ distance of `loc` from the image centre (`center(l)` in the
    /// condition language). For even extents the centre falls between
    /// pixels, so the distance is fractional.
    pub fn center_distance(&self, loc: Location) -> f64 {
        let cr = (self.height as f64 - 1.0) / 2.0;
        let cc = (self.width as f64 - 1.0) / 2.0;
        (loc.row as f64 - cr).abs().max((loc.col as f64 - cc).abs())
    }
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Image({}x{})", self.height, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_round_trip() {
        let mut img = Image::filled(3, 4, Pixel([0.2, 0.4, 0.6]));
        let loc = Location::new(2, 3);
        assert_eq!(img.pixel(loc), Pixel([0.2, 0.4, 0.6]));
        img.set_pixel(loc, Pixel([1.0, 0.0, 0.5]));
        assert_eq!(img.pixel(loc), Pixel([1.0, 0.0, 0.5]));
        // Other pixels untouched.
        assert_eq!(img.pixel(Location::new(0, 0)), Pixel([0.2, 0.4, 0.6]));
    }

    #[test]
    fn with_pixel_leaves_original_untouched() {
        let img = Image::filled(2, 2, Pixel([0.0, 0.0, 0.0]));
        let adv = img.with_pixel(Location::new(1, 1), Pixel([1.0, 1.0, 1.0]));
        assert_eq!(img.pixel(Location::new(1, 1)), Pixel([0.0, 0.0, 0.0]));
        assert_eq!(adv.pixel(Location::new(1, 1)), Pixel([1.0, 1.0, 1.0]));
        // Exactly one pixel differs → a valid one-pixel perturbation.
        let diffs = img
            .data()
            .iter()
            .zip(adv.data())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 3, "one pixel = three channel values");
    }

    #[test]
    fn same_bits_compares_extents_and_bit_patterns() {
        let img = Image::filled(2, 3, Pixel([0.0, 0.5, 1.0]));
        assert!(img.same_bits(&img.clone()));
        let moved = img.with_pixel(Location::new(1, 2), Pixel([0.0, 0.5, 0.75]));
        assert!(!img.same_bits(&moved));
        // Same data, other extents.
        assert!(!img.same_bits(&Image::new(3, 2, img.data().to_vec())));
        // `==` equates the two zeros; the bit patterns differ.
        let negative = img.with_pixel(Location::new(0, 0), Pixel([-0.0, 0.5, 1.0]));
        assert!(img == negative);
        assert!(!img.same_bits(&negative));
    }

    #[test]
    fn center_distance_is_l_infinity() {
        let img = Image::filled(5, 5, Pixel([0.0; 3]));
        assert_eq!(img.center_distance(Location::new(2, 2)), 0.0);
        assert_eq!(img.center_distance(Location::new(0, 2)), 2.0);
        assert_eq!(img.center_distance(Location::new(0, 0)), 2.0);
        assert_eq!(img.center_distance(Location::new(4, 1)), 2.0);
    }

    #[test]
    fn center_distance_even_extent_is_fractional() {
        let img = Image::filled(4, 4, Pixel([0.0; 3]));
        assert_eq!(img.center_distance(Location::new(0, 0)), 1.5);
        assert_eq!(img.center_distance(Location::new(2, 2)), 0.5);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn rejects_out_of_range_values() {
        Image::new(1, 1, vec![0.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "location out of bounds")]
    fn rejects_out_of_bounds_access() {
        Image::filled(2, 2, Pixel([0.0; 3])).pixel(Location::new(2, 0));
    }

    #[test]
    fn chw_layout_matches_tensor_convention() {
        // data[c*h*w + row*w + col]
        let mut data = vec![0.0; 12];
        data[3] = 0.1; // channel 0 (R), offset row*w+col = 3
        data[4 + 3] = 0.2; // channel 1 (G)
        data[2 * 4 + 3] = 0.3; // channel 2 (B)
        let img = Image::new(2, 2, data);
        assert_eq!(img.pixel(Location::new(1, 1)), Pixel([0.1, 0.2, 0.3]));
    }
}
