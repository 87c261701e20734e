//! The SPP-Net op list and the per-op training state.
//!
//! [`SppNetConfig::ops`](crate::SppNetConfig::ops) describes the network
//! once, as an ordered list of named [`Op`]s. [`crate::SppNet`] holds one
//! [`Node`] per op and walks that list: forward for `forward`, in reverse
//! for `backward`, and forward again with each conv or linear op fused with
//! the ReLU after it for `forward_inference`.

use crate::param::Param;
use dcd_tensor::{
    adaptive_max_pool2d, adaptive_max_pool2d_backward, adaptive_max_pool2d_values, conv2d,
    conv2d_backward, conv2d_relu, gemm_bias, gemm_bias_relu, max_pool2d, max_pool2d_backward,
    max_pool2d_values, AdaptiveMaxIndices, MaxIndices, SeededRng, Shape, Tensor,
};

/// What an op computes, with its dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// 2-D convolution (NCHW) with weights `[c_out, c_in, kernel, kernel]`.
    Conv {
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Square filter size.
        kernel: usize,
        /// Spatial stride.
        stride: usize,
        /// Zero padding on each side.
        pad: usize,
    },
    /// Rectified linear unit.
    Relu,
    /// Fixed-window max pooling.
    MaxPool {
        /// Square window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Spatial pyramid pooling (He et al., TPAMI 2015): one adaptive max
    /// pool per level, flattened and concatenated level-major into
    /// `[N, C·Σ level²]` whatever the input's spatial size.
    Spp {
        /// Pyramid bin counts, e.g. `[4, 2, 1]` for `SPP_{4,2,1}`.
        levels: Vec<usize>,
    },
    /// Fully-connected layer `y = x·W + b` with `W: [in_f, out_f]`.
    Linear {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
    },
    /// A fully-connected output head. Every head reads the trunk, the
    /// output of the last op before the heads; in list order the heads are
    /// the objectness logit and the box regression.
    Head {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
    },
}

/// One named op of the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Stable name (`conv1`, `pool3`, `spp`, `fc1_relu`, `head_box`, …),
    /// shared with the IOS graph.
    pub name: &'static str,
    /// What the op computes.
    pub kind: OpKind,
}

impl Op {
    /// Parameter shapes, weight then bias; empty for stateless ops.
    pub fn param_shapes(&self) -> Vec<Vec<usize>> {
        match self.kind {
            OpKind::Conv {
                c_in,
                c_out,
                kernel,
                ..
            } => vec![vec![c_out, c_in, kernel, kernel], vec![c_out]],
            OpKind::Linear { in_f, out_f } | OpKind::Head { in_f, out_f } => {
                vec![vec![in_f, out_f], vec![out_f]]
            }
            OpKind::Relu | OpKind::MaxPool { .. } | OpKind::Spp { .. } => Vec::new(),
        }
    }

    /// Fresh parameter values: a Kaiming-initialized weight drawn from
    /// `rng` and a zero bias.
    pub fn init_params(&self, rng: &mut SeededRng) -> Vec<Tensor> {
        let fan_in = match self.kind {
            OpKind::Conv { c_in, kernel, .. } => c_in * kernel * kernel,
            OpKind::Linear { in_f, .. } | OpKind::Head { in_f, .. } => in_f,
            OpKind::Relu | OpKind::MaxPool { .. } | OpKind::Spp { .. } => return Vec::new(),
        };
        let [weight, bias]: [Vec<usize>; 2] =
            self.param_shapes().try_into().expect("weight and bias");
        vec![Tensor::kaiming(weight, fan_in, rng), Tensor::zeros(bias)]
    }
}

/// What `forward` keeps for `backward`.
#[derive(Debug)]
enum Cache {
    Empty,
    /// Conv and linear ops: the input.
    Input(Tensor),
    /// ReLU: the `{0, 1}` mask.
    Mask(Tensor),
    /// Max pooling: the argmax indices.
    Pool(MaxIndices),
    /// SPP: each level's argmax indices and the input shape.
    Pyramid(Vec<AdaptiveMaxIndices>, Shape),
}

/// One op with its trainable parameters and the state its backward pass
/// needs. Calling [`Node::backward`] before [`Node::forward`] panics.
#[derive(Debug)]
pub struct Node {
    /// The op this node computes.
    pub op: Op,
    /// Weight then bias for conv and linear ops, empty otherwise.
    pub params: Vec<Param>,
    cache: Cache,
}

impl Node {
    /// A node holding `values` (shaped as [`Op::param_shapes`]) as its
    /// parameters. Weights take weight decay, biases do not.
    pub fn new(op: Op, values: Vec<Tensor>) -> Node {
        let params = values
            .into_iter()
            .enumerate()
            .map(|(i, value)| Param::new(value, i == 0))
            .collect();
        Node {
            op,
            params,
            cache: Cache::Empty,
        }
    }

    /// Computes the op's output, caching what `backward` needs.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        match &self.op.kind {
            OpKind::Conv { stride, pad, .. } => {
                self.cache = Cache::Input(x.clone());
                conv2d(
                    x,
                    &self.params[0].value,
                    &self.params[1].value,
                    *stride,
                    *pad,
                )
            }
            OpKind::Relu => {
                let mask = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                let y = x.mul(&mask);
                self.cache = Cache::Mask(mask);
                y
            }
            OpKind::MaxPool { kernel, stride } => {
                let (y, ix) = max_pool2d(x, *kernel, *stride);
                self.cache = Cache::Pool(ix);
                y
            }
            OpKind::Spp { levels } => {
                let (parts, saved): (Vec<Tensor>, Vec<AdaptiveMaxIndices>) = levels
                    .iter()
                    .map(|&level| adaptive_max_pool2d(x, level))
                    .unzip();
                self.cache = Cache::Pyramid(saved, x.shape().clone());
                concat_levels(parts)
            }
            OpKind::Linear { .. } | OpKind::Head { .. } => {
                self.cache = Cache::Input(x.clone());
                self.linear(x, false)
            }
        }
    }

    /// Propagates `grad_out` to the input gradient, accumulating parameter
    /// gradients along the way.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let params = &mut self.params;
        match (&self.op.kind, &self.cache) {
            (OpKind::Conv { stride, pad, .. }, Cache::Input(x)) => {
                let grads = conv2d_backward(x, &params[0].value, grad_out, *stride, *pad);
                params[0].grad.axpy(1.0, &grads.weight);
                params[1].grad.axpy(1.0, &grads.bias);
                grads.input
            }
            (OpKind::Relu, Cache::Mask(mask)) => grad_out.mul(mask),
            (OpKind::MaxPool { .. }, Cache::Pool(ix)) => max_pool2d_backward(grad_out, ix),
            (OpKind::Spp { levels }, Cache::Pyramid(saved, shape)) => {
                let (n, c, h, w) = shape.nchw();
                let mut gx = Tensor::zeros([n, c, h, w]);
                let mut col = 0usize;
                let total_cols = grad_out.dims()[1];
                for (&level, ix) in levels.iter().zip(saved) {
                    let f = c * level * level;
                    // Slice columns [col, col+f) of grad_out into [n, c, level, level].
                    let mut g = Tensor::zeros([n, c, level, level]);
                    for s in 0..n {
                        let src = &grad_out.data()[s * total_cols + col..s * total_cols + col + f];
                        g.data_mut()[s * f..(s + 1) * f].copy_from_slice(src);
                    }
                    gx.axpy(1.0, &adaptive_max_pool2d_backward(&g, ix));
                    col += f;
                }
                gx
            }
            (OpKind::Linear { .. } | OpKind::Head { .. }, Cache::Input(x)) => {
                let (m, k) = x.shape().matrix();
                let n = params[1].numel();
                // gw = xᵀ (k×m) · go (m×n), read straight from x's [m, k] storage.
                let gw = dcd_tensor::gemm_at(x.data(), grad_out.data(), k, m, n);
                params[0]
                    .grad
                    .axpy(1.0, &Tensor::from_vec([k, n], gw).expect("gw"));
                // gb = column sums of go
                let mut gb = vec![0.0f32; n];
                for row in grad_out.data().chunks(n) {
                    for (g, &v) in gb.iter_mut().zip(row.iter()) {
                        *g += v;
                    }
                }
                params[1]
                    .grad
                    .axpy(1.0, &Tensor::from_vec([n], gb).expect("gb"));
                // gx = go (m×n) · Wᵀ, read straight from W's [k, n] storage.
                let gx = dcd_tensor::gemm_bt(grad_out.data(), params[0].value.data(), m, n, k);
                Tensor::from_vec([m, k], gx).expect("gx")
            }
            _ => panic!("{}: backward before forward", self.op.name),
        }
    }

    /// Inference-only output: values-only pooling, nothing cached. With
    /// `relu` set, a conv or linear op applies the ReLU that follows it in
    /// its GEMM epilogue; other ops ignore the flag.
    pub fn infer(&self, x: &Tensor, relu: bool) -> Tensor {
        match &self.op.kind {
            OpKind::Conv { stride, pad, .. } => {
                let conv = if relu { conv2d_relu } else { conv2d };
                conv(
                    x,
                    &self.params[0].value,
                    &self.params[1].value,
                    *stride,
                    *pad,
                )
            }
            OpKind::Relu => x.map(|v| v.max(0.0)),
            OpKind::MaxPool { kernel, stride } => max_pool2d_values(x, *kernel, *stride),
            OpKind::Spp { levels } => concat_levels(
                levels
                    .iter()
                    .map(|&level| adaptive_max_pool2d_values(x, level))
                    .collect(),
            ),
            OpKind::Linear { .. } | OpKind::Head { .. } => self.linear(x, relu),
        }
    }

    /// `x·W + b`, with a fused ReLU when `relu` is set.
    fn linear(&self, x: &Tensor, relu: bool) -> Tensor {
        let (weight, bias) = (&self.params[0].value, &self.params[1].value);
        let (m, k) = x.shape().matrix();
        assert_eq!(
            k,
            weight.dims()[0],
            "{}: input features mismatch",
            self.op.name
        );
        let n = bias.numel();
        let gemm = if relu { gemm_bias_relu } else { gemm_bias };
        let y = gemm(x.data(), weight.data(), bias.data(), m, k, n);
        Tensor::from_vec([m, n], y).expect("linear output")
    }
}

/// Flattens each pyramid level `[N, C, l, l]` to `[N, C·l²]` and
/// concatenates them level-major.
fn concat_levels(parts: Vec<Tensor>) -> Tensor {
    let parts: Vec<Tensor> = parts
        .into_iter()
        .map(|y| {
            let n = y.dims()[0];
            let f = y.numel() / n;
            y.reshape([n, f])
        })
        .collect();
    let refs: Vec<&Tensor> = parts.iter().collect();
    Tensor::concat(&refs, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_tensor::grad_check::numeric_grad;

    fn rng() -> SeededRng {
        SeededRng::new(1234)
    }

    fn node(kind: OpKind, rng: &mut SeededRng) -> Node {
        let op = Op { name: "test", kind };
        let params = op.init_params(rng);
        Node::new(op, params)
    }

    fn conv_kind(c_in: usize, c_out: usize, kernel: usize) -> OpKind {
        OpKind::Conv {
            c_in,
            c_out,
            kernel,
            stride: 1,
            pad: kernel / 2,
        }
    }

    fn spp_kind(levels: &[usize]) -> OpKind {
        OpKind::Spp {
            levels: levels.to_vec(),
        }
    }

    #[test]
    fn conv2d_layer_forward_shape() {
        let mut r = rng();
        let mut conv = node(conv_kind(4, 64, 5), &mut r);
        let x = Tensor::randn([2, 4, 10, 10], 0.0, 1.0, &mut r);
        let y = conv.forward(&x);
        assert_eq!(y.dims(), &[2, 64, 10, 10]);
    }

    #[test]
    fn conv2d_layer_backward_accumulates_param_grads() {
        let mut r = rng();
        let mut conv = node(conv_kind(1, 2, 3), &mut r);
        let x = Tensor::randn([1, 1, 5, 5], 0.0, 1.0, &mut r);
        let y = conv.forward(&x);
        conv.backward(&Tensor::ones(y.shape().clone()));
        assert!(conv.params[0].grad.sq_norm() > 0.0);
        assert!(conv.params[1].grad.sq_norm() > 0.0);
        // Second backward accumulates (does not overwrite).
        let g1 = conv.params[0].grad.clone();
        conv.forward(&x);
        conv.backward(&Tensor::ones(y.shape().clone()));
        assert!(conv.params[0].grad.max_abs_diff(&g1.scale(2.0)) < 1e-4);
    }

    #[test]
    fn relu_zeroes_negatives_and_masks_grads() {
        let mut relu = node(OpKind::Relu, &mut rng());
        let x = Tensor::from_vec([4], vec![-1., 2., -3., 4.]).unwrap();
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0., 2., 0., 4.]);
        let g = relu.backward(&Tensor::ones([4]));
        assert_eq!(g.data(), &[0., 1., 0., 1.]);
    }

    #[test]
    fn linear_layer_matches_manual_affine() {
        let mut r = rng();
        let mut lin = node(OpKind::Linear { in_f: 3, out_f: 2 }, &mut r);
        lin.params[0].value = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        lin.params[1].value = Tensor::from_vec([2], vec![0.5, -0.5]).unwrap();
        let x = Tensor::from_vec([1, 3], vec![1., 1., 1.]).unwrap();
        let y = lin.forward(&x);
        assert_eq!(y.data(), &[9.5, 11.5]);
    }

    #[test]
    fn linear_backward_matches_numeric() {
        let mut r = rng();
        let mut lin = node(OpKind::Linear { in_f: 4, out_f: 3 }, &mut r);
        let x = Tensor::randn([2, 4], 0.0, 1.0, &mut r);
        let y = lin.forward(&x);
        let gx = lin.backward(&Tensor::ones(y.shape().clone()));

        let w = lin.params[0].value.clone();
        let b = lin.params[1].value.clone();
        let f = |xp: &Tensor| {
            let v = dcd_tensor::gemm_bias(xp.data(), w.data(), b.data(), 2, 4, 3);
            v.iter().sum::<f32>()
        };
        let num = numeric_grad(&x, 1e-2, f);
        assert!(
            gx.max_abs_diff(&num) < 0.02,
            "diff {}",
            gx.max_abs_diff(&num)
        );

        let x2 = x.clone();
        let fw = |wp: &Tensor| {
            let v = dcd_tensor::gemm_bias(x2.data(), wp.data(), b.data(), 2, 4, 3);
            v.iter().sum::<f32>()
        };
        let num_w = numeric_grad(&lin.params[0].value, 1e-2, fw);
        assert!(lin.params[0].grad.max_abs_diff(&num_w) < 0.02);
    }

    #[test]
    fn spp_layer_fixed_output_for_any_input_size() {
        let mut r = rng();
        let mut spp = node(spp_kind(&[4, 2, 1]), &mut r);
        for &(h, w) in &[(12usize, 12usize), (25, 25), (7, 13)] {
            let x = Tensor::randn([2, 8, h, w], 0.0, 1.0, &mut r);
            let y = spp.forward(&x);
            assert_eq!(y.dims(), &[2, 8 * 21]);
        }
    }

    #[test]
    fn spp_backward_matches_numeric() {
        let mut r = rng();
        let x = Tensor::randn([1, 2, 6, 6], 0.0, 1.0, &mut r);
        let mut spp = node(spp_kind(&[3, 1]), &mut r);
        let y = spp.forward(&x);
        let gx = spp.backward(&Tensor::ones(y.shape().clone()));
        let num = numeric_grad(&x, 1e-3, |xp| {
            node(spp_kind(&[3, 1]), &mut rng()).forward(xp).sum()
        });
        assert!(
            gx.max_abs_diff(&num) < 1e-2,
            "diff {}",
            gx.max_abs_diff(&num)
        );
    }

    #[test]
    fn spp_concat_order_is_level_major() {
        // One channel; levels [1, 2]: first column is the global max, the
        // remaining four are the 2x2 adaptive maxima.
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let mut spp = node(spp_kind(&[1, 2]), &mut rng());
        let y = spp.forward(&x);
        assert_eq!(y.data(), &[4., 1., 2., 3., 4.]);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_before_forward_panics() {
        let mut relu = node(OpKind::Relu, &mut rng());
        relu.backward(&Tensor::ones([1]));
    }
}
