//! Tensor shapes and row-major stride computation.

use std::fmt;

/// The shape of a dense row-major tensor: a list of dimension extents.
///
/// A `Shape` is a thin, validated wrapper around `Vec<usize>`. Rank-0
/// (scalar) shapes are allowed and have one element.
///
/// # Examples
///
/// ```
/// use oppsla_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, serde::Serialize)]
pub struct Shape(Vec<usize>);

/// Why `dims` make no shape, if they do not: an extent of zero (empty
/// tensors are not supported) or an element count that overflows
/// `usize`.
fn check_dims(dims: &[usize]) -> Result<(), String> {
    let mut numel = 1usize;
    for (i, &d) in dims.iter().enumerate() {
        if d == 0 {
            return Err(format!("shape dimension {i} is zero"));
        }
        numel = numel
            .checked_mul(d)
            .ok_or_else(|| "shape element count overflows usize".to_string())?;
    }
    Ok(())
}

impl Shape {
    /// Creates a shape from dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero (empty tensors are not supported) or if
    /// the total element count would overflow `usize`.
    pub fn new(dims: Vec<usize>) -> Self {
        if let Err(why) = check_dims(&dims) {
            panic!("{why}");
        }
        Shape(dims)
    }

    /// The number of dimensions (rank) of the shape.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// The extent of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// All dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// The total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides, innermost dimension last.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// The flat row-major offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.0.len()
        );
        let mut off = 0;
        let strides = self.strides();
        for (axis, (&i, &d)) in index.iter().zip(self.0.iter()).enumerate() {
            assert!(
                i < d,
                "index {i} out of bounds for axis {axis} (extent {d})"
            );
            off += i * strides[axis];
        }
        off
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Reads the extents the derived `Serialize` writes, with the checks of
/// [`Shape::new`] as errors: a shape read from a file can be damaged.
impl serde::Deserialize for Shape {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let dims = Vec::<usize>::from_value(v)?;
        check_dims(&dims).map_err(serde::Error)?;
        Ok(Shape(dims))
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(vec![]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert!(s.strides().is_empty());
    }

    #[test]
    fn deserialize_rejects_what_new_would_panic_on() {
        use serde::{Deserialize, Serialize, Value};
        let dims = |d: &[i128]| Value::Arr(d.iter().map(|&d| Value::Int(d)).collect());
        let s = Shape::new(vec![2, 3]);
        assert_eq!(Shape::from_value(&s.to_value()), Ok(s));
        let zero = Shape::from_value(&dims(&[2, 0])).unwrap_err();
        assert!(zero.0.contains("dimension 1 is zero"), "{zero}");
        let huge = Shape::from_value(&dims(&[1 << 40, 1 << 40])).unwrap_err();
        assert!(huge.0.contains("overflows"), "{huge}");
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_walks_row_major() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.offset(&[0, 0]), 0);
        assert_eq!(s.offset(&[0, 2]), 2);
        assert_eq!(s.offset(&[1, 0]), 3);
        assert_eq!(s.offset(&[1, 2]), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_rejects_out_of_bounds() {
        Shape::new(vec![2, 3]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "dimension 1 is zero")]
    fn zero_dim_rejected() {
        Shape::new(vec![2, 0]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Shape::new(vec![3, 32, 32]).to_string(), "[3x32x32]");
    }
}
