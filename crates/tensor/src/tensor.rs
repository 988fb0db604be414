//! The dense `f32` tensor type.

use crate::Shape;
use std::fmt;

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// `Tensor` is the value type flowing through the network substrate. It is
/// deliberately simple: contiguous storage, eager operations, panics on
/// shape mismatches (mismatches are programming errors in this codebase,
/// not recoverable conditions).
///
/// # Examples
///
/// ```
/// use oppsla_tensor::Tensor;
///
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Tensor::full([2, 2], 10.0);
/// let c = a.add(&b);
/// assert_eq!(c.data(), &[11.0, 12.0, 13.0, 14.0]);
/// ```
#[derive(Clone, PartialEq, serde::Serialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.numel()];
        Tensor { shape, data }
    }

    /// Creates a tensor from existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        if let Err(why) = check_len(&shape, &data) {
            panic!("{why}");
        }
        Tensor { shape, data }
    }

    /// Creates a tensor by evaluating `f` at every flat index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(&mut f).collect();
        Tensor { shape, data }
    }

    /// Creates a rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(vec![]),
            data: vec![value],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// A view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is invalid.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// A mutable reference to the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is invalid.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// The single element of a rank-0 or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with {} elements",
            self.numel()
        );
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} elements into shape {}",
            self.numel(),
            shape
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other);
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Adds `other * s` into `self` in place (`axpy`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, s: f32) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * s;
        }
    }

    /// The sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// The arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// The maximum element.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// The minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// The flat index of the maximum element (first on ties).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// True when every element is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    fn assert_same_shape(&self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
    }
}

/// Reads the object the derived `Serialize` writes, with the checks of
/// [`Tensor::from_vec`] as errors: a tensor read from a file can be
/// damaged, and one whose data disagrees with its shape would panic in
/// the first kernel that trusts the shape.
impl serde::Deserialize for Tensor {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_obj()
            .ok_or_else(|| serde::Error::expected("object", "Tensor"))?;
        let shape = Shape::from_value(serde::field(obj, "shape")?)?;
        let data = Vec::<f32>::from_value(serde::field(obj, "data")?)?;
        check_len(&shape, &data).map_err(serde::Error)?;
        Ok(Tensor { shape, data })
    }
}

/// Why `data` cannot fill `shape`, if it cannot.
fn check_len(shape: &Shape, data: &[f32]) -> Result<(), String> {
    if data.len() == shape.numel() {
        return Ok(());
    }
    Err(format!(
        "data length {} does not match shape {} ({} elements)",
        data.len(),
        shape,
        shape.numel()
    ))
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor({}, [", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_as_expected() {
        assert!(Tensor::zeros([2, 2]).data().iter().all(|&v| v == 0.0));
        assert!(Tensor::ones([3]).data().iter().all(|&v| v == 1.0));
        assert_eq!(Tensor::full([2], 7.0).data(), &[7.0, 7.0]);
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn from_fn_uses_flat_index() {
        let t = Tensor::from_fn([2, 2], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec([2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.at(&[1, 1]), 4.0);
        let mut t = t;
        *t.at_mut(&[0, 2]) = 9.0;
        assert_eq!(t.at(&[0, 2]), 9.0);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec([2], vec![1.0, 2.0]);
        let b = Tensor::from_vec([2], vec![3.0, 5.0]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn add_scaled_inplace_is_axpy() {
        let mut a = Tensor::from_vec([2], vec![1.0, 1.0]);
        let b = Tensor::from_vec([2], vec![2.0, 4.0]);
        a.add_scaled_inplace(&b, 0.5);
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![-1.0, 3.0, 2.0, 3.0]);
        assert_eq!(t.sum(), 7.0);
        assert_eq!(t.mean(), 1.75);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.argmax(), 1, "argmax returns the first maximum");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let r = t.reshape([3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape().dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_shape_mismatch() {
        Tensor::zeros([2]).add(&Tensor::zeros([3]));
    }

    #[test]
    fn deserialize_rejects_what_from_vec_would_panic_on() {
        use serde::{Deserialize, Serialize, Value};
        let t = Tensor::from_vec([2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(Tensor::from_value(&t.to_value()), Ok(t));
        let tensor = |dims: &[i128], len: usize| {
            Value::Obj(vec![
                (
                    "shape".into(),
                    Value::Arr(dims.iter().map(|&d| Value::Int(d)).collect()),
                ),
                ("data".into(), Value::Arr(vec![Value::Num(0.5); len])),
            ])
        };
        assert!(Tensor::from_value(&tensor(&[2, 3], 6)).is_ok());
        assert!(Tensor::from_value(&tensor(&[], 1)).is_ok());
        for (dims, len) in [
            (&[2, 3][..], 5),
            (&[2, 3], 7),
            (&[], 0),
            (&[2, 0], 0),
            (&[1 << 40, 1 << 40], 1),
        ] {
            let err = Tensor::from_value(&tensor(dims, len));
            assert!(err.is_err(), "{dims:?} with {len} elements loaded");
        }
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::zeros([2]);
        assert!(t.is_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(!t.is_finite());
    }
}
