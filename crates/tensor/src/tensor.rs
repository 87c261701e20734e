//! The dense `f32` tensor type.

use crate::rng::SeededRng;
use crate::shape::{Shape, ShapeError};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Minimum element count before elementwise ops switch to rayon.
///
/// Below this the splitting overhead dominates; the value was picked so a
/// single 100×100×4 patch stays sequential while batched activations go wide.
const PAR_THRESHOLD: usize = 1 << 14;

/// A dense, contiguous, row-major `f32` tensor.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

/// A tensor as serialized, before its shape is checked against its data.
#[derive(Deserialize)]
struct RawTensor {
    shape: Shape,
    data: Vec<f32>,
}

/// Deserialization holds the invariant [`Tensor::from_vec`] enforces: the
/// shape's element count, computed without overflow, equals the data length.
impl Deserialize for Tensor {
    fn deserialize(value: &serde::Value) -> Result<Tensor, serde::DeError> {
        let RawTensor { shape, data } = RawTensor::deserialize(value)?;
        let numel = shape
            .dims()
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d));
        if numel != Some(data.len()) {
            return Err(serde::DeError::new(format!(
                "tensor shape {:?} does not match its {} elements",
                shape.dims(),
                data.len()
            )));
        }
        Ok(Tensor { shape, data })
    }
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// All-zero tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = vec![0.0; shape.numel()];
        Tensor { shape, data }
    }

    /// Tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.numel()];
        Tensor { shape, data }
    }

    /// All-one tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Builds a tensor from an existing buffer, checking the element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, ShapeError> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(ShapeError {
                expected: shape.numel(),
                actual: data.len(),
                dims: shape.dims().to_vec(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// I.i.d. uniform samples in `[lo, hi)`.
    pub fn uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut SeededRng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel())
            .map(|_| rng.uniform_range(lo, hi))
            .collect();
        Tensor { shape, data }
    }

    /// I.i.d. normal samples with the given mean and standard deviation.
    pub fn randn(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut SeededRng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel())
            .map(|_| mean + std * rng.normal())
            .collect();
        Tensor { shape, data }
    }

    /// Kaiming/He initialization for a layer with `fan_in` inputs — the
    /// standard init for ReLU networks, used by every conv/linear layer here.
    pub fn kaiming(shape: impl Into<Shape>, fan_in: usize, rng: &mut SeededRng) -> Self {
        let std = (2.0 / fan_in as f32).sqrt();
        Self::randn(shape, 0.0, std, rng)
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes (shorthand for `shape().dims()`).
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the backing buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    #[inline]
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    // -------------------------------------------------------- shape surgery

    /// Reinterprets the buffer under a new shape with the same element count.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.data.len(),
            "reshape to {shape} changes element count from {}",
            self.data.len()
        );
        self.shape = shape;
        self
    }

    /// Returns the `i`-th slice along axis 0 (e.g. one sample of a batch),
    /// copied into a new tensor with the leading axis removed.
    pub fn index_axis0(&self, i: usize) -> Tensor {
        let dims = self.shape.dims();
        assert!(!dims.is_empty(), "cannot index a scalar");
        assert!(
            i < dims[0],
            "index {i} out of bounds for axis 0 of size {}",
            dims[0]
        );
        let inner: usize = dims[1..].iter().product();
        let data = self.data[i * inner..(i + 1) * inner].to_vec();
        Tensor {
            shape: Shape::new(dims[1..].to_vec()),
            data,
        }
    }

    /// Stacks tensors of identical shape along a new leading axis.
    pub fn stack(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack of zero tensors");
        let inner = parts[0].shape.clone();
        let mut data = Vec::with_capacity(parts.len() * inner.numel());
        for p in parts {
            assert_eq!(p.shape, inner, "stack requires identical shapes");
            data.extend_from_slice(&p.data);
        }
        let mut dims = vec![parts.len()];
        dims.extend_from_slice(inner.dims());
        Tensor {
            shape: Shape::new(dims),
            data,
        }
    }

    /// Concatenates tensors along `axis`; all other axes must agree.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let rank = parts[0].shape.rank();
        assert!(
            axis < rank,
            "concat axis {axis} out of range for rank {rank}"
        );
        for p in parts {
            assert_eq!(p.shape.rank(), rank, "concat rank mismatch");
            for a in 0..rank {
                if a != axis {
                    assert_eq!(
                        p.shape.dim(a),
                        parts[0].shape.dim(a),
                        "concat: axis {a} disagrees"
                    );
                }
            }
        }
        let outer: usize = parts[0].dims()[..axis].iter().product();
        let inner: usize = parts[0].dims()[axis + 1..].iter().product();
        let total_axis: usize = parts.iter().map(|p| p.shape.dim(axis)).sum();

        let mut dims = parts[0].dims().to_vec();
        dims[axis] = total_axis;
        let mut data = Vec::with_capacity(outer * total_axis * inner);
        for o in 0..outer {
            for p in parts {
                let chunk = p.shape.dim(axis) * inner;
                data.extend_from_slice(&p.data[o * chunk..(o + 1) * chunk]);
            }
        }
        Tensor {
            shape: Shape::new(dims),
            data,
        }
    }

    /// Transposes a rank-2 tensor.
    pub fn transpose2d(&self) -> Tensor {
        let (r, c) = self.shape.matrix();
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor {
            shape: Shape::from([c, r]),
            data: out,
        }
    }

    // ----------------------------------------------------------- elementwise

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let data = if self.data.len() >= PAR_THRESHOLD {
            self.data.par_iter().map(|&x| f(x)).collect()
        } else {
            self.data.iter().map(|&x| f(x)).collect()
        };
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        if self.data.len() >= PAR_THRESHOLD {
            self.data.par_iter_mut().for_each(|x| *x = f(*x));
        } else {
            self.data.iter_mut().for_each(|x| *x = f(*x));
        }
    }

    /// Combines two same-shaped tensors elementwise.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        let data = if self.data.len() >= PAR_THRESHOLD {
            self.data
                .par_iter()
                .zip(other.data.par_iter())
                .map(|(&a, &b)| f(a, b))
                .collect()
        } else {
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect()
        };
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|x| k * x)
    }

    /// `self += alpha * other`, the SGD update primitive.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        if self.data.len() >= PAR_THRESHOLD {
            self.data
                .par_iter_mut()
                .zip(other.data.par_iter())
                .for_each(|(x, &y)| *x += alpha * y);
        } else {
            self.data
                .iter_mut()
                .zip(other.data.iter())
                .for_each(|(x, &y)| *x += alpha * y);
        }
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        if self.data.len() >= PAR_THRESHOLD {
            self.data.par_iter().sum()
        } else {
            self.data.iter().sum()
        }
    }

    /// Arithmetic mean (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element. Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "max of empty tensor");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element (first occurrence).
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        if self.data.len() >= PAR_THRESHOLD {
            self.data.par_iter().map(|x| x * x).sum()
        } else {
            self.data.iter().map(|x| x * x).sum()
        }
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Maximum absolute difference against another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros([2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones([2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full([3], 2.5).sum(), 7.5);
    }

    #[test]
    fn deserialize_checks_len() {
        let t = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]).unwrap();
        let back: Tensor = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(back, t);
        let short = r#"{"shape":[2,2],"data":[1.0,2.0,3.0]}"#;
        assert!(serde_json::from_str::<Tensor>(short).is_err());
        let huge = format!(r#"{{"shape":[{},{}],"data":[]}}"#, usize::MAX, 2);
        assert!(serde_json::from_str::<Tensor>(&huge).is_err());
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec([2, 2], vec![1.0; 3]).unwrap_err();
        assert_eq!(err.expected, 4);
        assert_eq!(err.actual, 3);
    }

    #[test]
    fn at_and_set_roundtrip() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 5.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.data()[5], 5.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        let r = t.clone().reshape([3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_bad_count() {
        Tensor::zeros([2, 3]).reshape([4, 2]);
    }

    #[test]
    fn index_axis0_extracts_sample() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        let s = t.index_axis0(1);
        assert_eq!(s.dims(), &[3]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn stack_roundtrips_index_axis0() {
        let a = Tensor::full([2, 2], 1.0);
        let b = Tensor::full([2, 2], 2.0);
        let s = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(s.dims(), &[2, 2, 2]);
        assert_eq!(s.index_axis0(0), a);
        assert_eq!(s.index_axis0(1), b);
    }

    #[test]
    fn concat_axis1_channels() {
        // Two [1,2,2] tensors concatenated along channel axis -> [1,4,2].
        let a = Tensor::from_vec([1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let b = Tensor::from_vec([1, 2, 2], vec![5., 6., 7., 8.]).unwrap();
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.dims(), &[1, 4, 2]);
        assert_eq!(c.data(), &[1., 2., 3., 4., 5., 6., 7., 8.]);
    }

    #[test]
    fn concat_last_axis_interleaves() {
        let a = Tensor::from_vec([2, 1], vec![1., 2.]).unwrap();
        let b = Tensor::from_vec([2, 2], vec![3., 4., 5., 6.]).unwrap();
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.data(), &[1., 3., 4., 2., 5., 6.]);
    }

    #[test]
    fn transpose2d_involution() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        let tt = t.transpose2d();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert_eq!(tt.transpose2d(), t);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec([3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec([3], vec![4., 5., 6.]).unwrap();
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Tensor::from_vec([2], vec![1., 1.]).unwrap();
        let g = Tensor::from_vec([2], vec![10., 20.]).unwrap();
        a.axpy(-0.1, &g);
        assert!((a.data()[0] - 0.0).abs() < 1e-6);
        assert!((a.data()[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![-1., 3., 2., 0.]).unwrap();
        assert_eq!(t.sum(), 4.0);
        assert_eq!(t.mean(), 1.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.argmax(), 1);
        assert_eq!(t.sq_norm(), 14.0);
    }

    #[test]
    fn parallel_path_matches_sequential() {
        // Large enough to take the rayon path.
        let n = PAR_THRESHOLD * 2;
        let t = Tensor::from_vec([n], (0..n).map(|x| (x % 17) as f32).collect()).unwrap();
        let seq_sum: f32 = t.data().iter().sum();
        assert!((t.sum() - seq_sum).abs() <= 1e-3 * seq_sum.abs());
        let doubled = t.map(|x| 2.0 * x);
        assert_eq!(doubled.data()[12345], t.data()[12345] * 2.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros([4]);
        assert!(!t.has_non_finite());
        t.set(&[2], f32::NAN);
        assert!(t.has_non_finite());
    }

    #[test]
    fn kaiming_scale_tracks_fan_in() {
        let mut rng = SeededRng::new(0);
        let w = Tensor::kaiming([64, 36], 36, &mut rng);
        let std = (w.sq_norm() / w.numel() as f32).sqrt();
        let expect = (2.0f32 / 36.0).sqrt();
        assert!((std - expect).abs() < 0.05, "std {std} vs {expect}");
    }

    #[test]
    fn serde_roundtrip() {
        let t = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
