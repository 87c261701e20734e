//! The SPP-Net drainage-crossing detector (paper §2.2, §4.2, Table 1).
//!
//! Architecture (paper notation):
//!
//! ```text
//! C_{64,k,1} − P_{2,2} − C_{128,3,1} − P_{2,2} − C_{256,3,1} − P_{2,2}
//!   − SPP_{l,2,1} − F_{fc1} [− F_{fc2}] − {objectness logit, bbox}
//! ```
//!
//! The NAS axes of §4.2 are `k ∈ {1,3,5,7,9}` (first conv filter size),
//! `l ∈ {1..5}` (first SPP pyramid level) and the fully-connected sizes
//! `∈ {128, 256, 512, 1024, 2048, 4096, 8192}`.

use crate::detect::Detection;
use crate::loss::sigmoid;
use crate::op::{Node, Op, OpKind};
use crate::param::Param;
use crate::BBox;
use dcd_tensor::{SeededRng, Tensor};
use serde::{Deserialize, Serialize};

/// Sizes explored for the fully-connected layers (§4.2).
pub const FC_CHOICES: [usize; 7] = [128, 256, 512, 1024, 2048, 4096, 8192];
/// Filter sizes explored for the first convolution (§4.2).
pub const CONV1_KERNEL_CHOICES: [usize; 5] = [1, 3, 5, 7, 9];
/// Pyramid top levels explored for the SPP layer (§4.2).
pub const SPP_TOP_CHOICES: [usize; 5] = [1, 2, 3, 4, 5];

/// Hyper-parameters of one SPP-Net candidate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SppNetConfig {
    /// Filter size of the first convolution (`k` above).
    pub conv1_kernel: usize,
    /// Top pyramid level of the SPP layer; the pyramid is the deduplicated
    /// descending sequence of `{top, 2, 1}` (e.g. 4 → `[4,2,1]`, 2 → `[2,1]`).
    pub spp_top_level: usize,
    /// First fully-connected layer width.
    pub fc1: usize,
    /// Optional second fully-connected layer width.
    pub fc2: Option<usize>,
    /// Input bands (4 for NAIP R,G,B,NIR).
    pub in_channels: usize,
    /// Channel widths of the three conv blocks (paper: `[64, 128, 256]`).
    pub channels: [usize; 3],
}

impl SppNetConfig {
    /// The paper's "Original SPP-Net" row of Table 1.
    pub fn original() -> Self {
        SppNetConfig {
            conv1_kernel: 3,
            spp_top_level: 4,
            fc1: 1024,
            fc2: None,
            in_channels: 4,
            channels: [64, 128, 256],
        }
    }

    /// Table 1, SPP-Net #1: first conv filter widened to 5.
    pub fn candidate1() -> Self {
        SppNetConfig {
            conv1_kernel: 5,
            ..Self::original()
        }
    }

    /// Table 1, SPP-Net #2: SPP top level 5, FC 4096 (the paper's final pick).
    pub fn candidate2() -> Self {
        SppNetConfig {
            spp_top_level: 5,
            fc1: 4096,
            ..Self::original()
        }
    }

    /// Table 1, SPP-Net #3: SPP top level 5, FC 2048 (best AP).
    pub fn candidate3() -> Self {
        SppNetConfig {
            spp_top_level: 5,
            fc1: 2048,
            ..Self::original()
        }
    }

    /// All four Table 1 rows in paper order, with their printed names.
    pub fn table1() -> Vec<(&'static str, SppNetConfig)> {
        vec![
            ("Original SPP-Net", Self::original()),
            ("SPP-Net # 1", Self::candidate1()),
            ("SPP-Net # 2", Self::candidate2()),
            ("SPP-Net # 3", Self::candidate3()),
        ]
    }

    /// A deliberately tiny configuration for unit tests.
    pub fn tiny() -> Self {
        SppNetConfig {
            conv1_kernel: 3,
            spp_top_level: 2,
            fc1: 32,
            fc2: None,
            in_channels: 1,
            channels: [4, 8, 8],
        }
    }

    /// SPP pyramid levels: deduplicated descending `{top, 2, 1}`.
    pub fn spp_levels(&self) -> Vec<usize> {
        let mut levels = vec![self.spp_top_level, 2, 1];
        levels.sort_unstable_by(|a, b| b.cmp(a));
        levels.dedup();
        levels
    }

    /// SPP output feature count (input to the first FC layer).
    pub fn spp_features(&self) -> usize {
        let bins: usize = self.spp_levels().iter().map(|l| l * l).sum();
        self.channels[2] * bins
    }

    /// The paper's compact architecture string (Table 1 notation).
    pub fn summary(&self) -> String {
        let [c1, c2, c3] = self.channels;
        let spp = self
            .spp_levels()
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut s = format!(
            "C_{{{c1},{k},1}}-P_{{2,2}}-C_{{{c2},3,1}}-P_{{2,2}}-C_{{{c3},3,1}}-P_{{2,2}}-SPP_{{{spp}}}-F_{{{f}}}",
            k = self.conv1_kernel,
            f = self.fc1
        );
        if let Some(f2) = self.fc2 {
            s.push_str(&format!("-F_{{{f2}}}"));
        }
        s
    }

    /// The network as an ordered list of named ops: the one definition of
    /// the architecture. Training, fused inference, IOS lowering and
    /// checkpoint validation are all derived from it.
    ///
    /// The list is the conv backbone, `spp`, the FC trunk and the two heads:
    ///
    /// ```text
    /// conv1 relu1 pool1 conv2 relu2 pool2 conv3 relu3 pool3 spp
    ///   fc1 fc1_relu [fc2 fc2_relu] head_obj head_box
    /// ```
    ///
    /// Fails if a width, kernel size or pyramid level is zero, or if a
    /// layer's size overflows `usize`; nothing is allocated per weight.
    pub fn ops(&self) -> Result<Vec<Op>, ConfigError> {
        let [c1, c2, c3] = self.channels;
        let sizes = [
            ("in_channels", self.in_channels),
            ("channels", c1.min(c2).min(c3)),
            ("conv1_kernel", self.conv1_kernel),
            ("spp_top_level", self.spp_top_level),
            ("fc1", self.fc1),
            ("fc2", self.fc2.unwrap_or(1)),
        ];
        if let Some((field, _)) = sizes.iter().find(|(_, size)| *size == 0) {
            return Err(ConfigError::Zero(field));
        }
        let levels = self.spp_levels();
        let spp_features = levels
            .iter()
            .try_fold(0usize, |bins, &l| bins.checked_add(l.checked_mul(l)?))
            .and_then(|bins| bins.checked_mul(c3))
            .ok_or(ConfigError::Overflow("spp"))?;

        let op = |name, kind| Op { name, kind };
        let relu = |name| op(name, OpKind::Relu);
        let pool = |name| {
            let (kernel, stride) = (2, 2);
            op(name, OpKind::MaxPool { kernel, stride })
        };
        let conv = |name, c_in, c_out, kernel: usize| {
            let (stride, pad) = (1, kernel / 2);
            let kind = OpKind::Conv {
                c_in,
                c_out,
                kernel,
                stride,
                pad,
            };
            op(name, kind)
        };
        let linear = |name, in_f, out_f| op(name, OpKind::Linear { in_f, out_f });
        let head = |name, in_f, out_f| op(name, OpKind::Head { in_f, out_f });
        let mut ops = vec![
            conv("conv1", self.in_channels, c1, self.conv1_kernel),
            relu("relu1"),
            pool("pool1"),
            conv("conv2", c1, c2, 3),
            relu("relu2"),
            pool("pool2"),
            conv("conv3", c2, c3, 3),
            relu("relu3"),
            pool("pool3"),
            op("spp", OpKind::Spp { levels }),
            linear("fc1", spp_features, self.fc1),
            relu("fc1_relu"),
        ];
        let mut trunk = self.fc1;
        if let Some(f2) = self.fc2 {
            ops.extend([linear("fc2", trunk, f2), relu("fc2_relu")]);
            trunk = f2;
        }
        ops.extend([head("head_obj", trunk, 1), head("head_box", trunk, 4)]);
        for op in &ops {
            for shape in op.param_shapes() {
                shape
                    .iter()
                    .try_fold(1usize, |n, &d| n.checked_mul(d))
                    .ok_or(ConfigError::Overflow(op.name))?;
            }
        }
        Ok(ops)
    }
}

/// Why an [`SppNetConfig`] does not describe a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The named size is zero.
    Zero(&'static str),
    /// The named op's size overflows `usize`.
    Overflow(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero(field) => write!(f, "`{field}` must be positive"),
            ConfigError::Overflow(op) => write!(f, "`{op}` is too large"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Output of one detection forward pass.
#[derive(Debug, Clone)]
pub struct DetectionOutput {
    /// Objectness logits, `[N]`.
    pub obj_logits: Tensor,
    /// Box regressions `[N, 4]` as `(cx, cy, w, h)`.
    pub boxes: Tensor,
}

impl DetectionOutput {
    /// Assembles the output from the heads' outputs in list order:
    /// objectness `[N, 1]`, then boxes `[N, 4]`.
    fn from_heads(heads: Vec<Tensor>) -> DetectionOutput {
        let [obj, boxes]: [Tensor; 2] = heads.try_into().expect("objectness and box heads");
        let n = obj.dims()[0];
        DetectionOutput {
            obj_logits: obj.reshape([n]),
            boxes,
        }
    }
}

/// The order in which [`SppNet::new`] draws parameters from the RNG.
///
/// It is the evaluation order of the struct literal that built the model
/// before the op list existed. Keeping it keeps every seeded model's
/// weights bit for bit.
const INIT_ORDER: [&str; 7] = [
    "fc1", "fc2", "head_box", "conv1", "conv2", "conv3", "head_obj",
];

/// Box-head bias prior: a centred, culvert-sized box.
const BOX_PRIOR: [f32; 4] = [0.5, 0.5, 0.2, 0.2];

/// The SPP-Net model: one [`Node`] per op of [`SppNetConfig::ops`].
pub struct SppNet {
    /// The hyper-parameters this instance was built from.
    pub config: SppNetConfig,
    nodes: Vec<Node>,
}

impl SppNet {
    /// Builds a freshly initialized model. Panics if `config` is invalid
    /// (see [`SppNetConfig::ops`]).
    pub fn new(config: SppNetConfig, rng: &mut SeededRng) -> Self {
        let ops = config
            .ops()
            .unwrap_or_else(|e| panic!("invalid SppNetConfig: {e}"));
        let mut values = vec![Vec::new(); ops.len()];
        for name in INIT_ORDER {
            let Some(i) = ops.iter().position(|op| op.name == name) else {
                continue;
            };
            values[i] = ops[i].init_params(rng);
            if name == "head_box" {
                // Box-head prior: start from a centred, culvert-sized box
                // with near-zero weights (the detectron-style regression-head
                // init), so the prediction stays anchored while the trunk
                // reorganizes for objectness and regression learns only the
                // residual. The Kaiming draw above is discarded.
                let shape = values[i][0].shape().clone();
                values[i] = vec![
                    Tensor::randn(shape, 0.0, 1e-3, rng),
                    Tensor::from_vec([4], BOX_PRIOR.to_vec()).expect("prior"),
                ];
            }
        }
        Self::from_params(config, ops, values.into_iter().flatten())
    }

    /// Builds a model from parameter values in [`SppNet::params_mut`]
    /// order. The caller has checked them against `ops`' parameter shapes.
    pub(crate) fn from_params(
        config: SppNetConfig,
        ops: Vec<Op>,
        params: impl IntoIterator<Item = Tensor>,
    ) -> Self {
        let mut params = params.into_iter();
        let nodes = ops
            .into_iter()
            .map(|op| {
                let count = op.param_shapes().len();
                Node::new(op, params.by_ref().take(count).collect())
            })
            .collect();
        SppNet { config, nodes }
    }

    /// Forward pass producing objectness logits and box regressions.
    pub fn forward(&mut self, x: &Tensor) -> DetectionOutput {
        let _span = dcd_obs::span("sppnet.forward", dcd_obs::Category::Nn);
        let mut trunk: Option<Tensor> = None;
        let mut heads = Vec::new();
        for node in &mut self.nodes {
            let y = node.forward(trunk.as_ref().unwrap_or(x));
            if matches!(node.op.kind, OpKind::Head { .. }) {
                heads.push(y);
            } else {
                trunk = Some(y);
            }
        }
        DetectionOutput::from_heads(heads)
    }

    /// Backward pass from head gradients; returns `d loss / d input`.
    pub fn backward(&mut self, grad_obj: &Tensor, grad_box: &Tensor) -> Tensor {
        let n = grad_obj.dims()[0];
        let grad_obj = grad_obj.clone().reshape([n, 1]);
        let mut head_grads = vec![&grad_obj, grad_box];
        let mut grad: Option<Tensor> = None;
        for node in self.nodes.iter_mut().rev() {
            grad = Some(if matches!(node.op.kind, OpKind::Head { .. }) {
                // The heads share the trunk: their input gradients add up.
                let g = node.backward(head_grads.pop().expect("one gradient per head"));
                match grad {
                    Some(later_heads) => g.add(&later_heads),
                    None => g,
                }
            } else {
                node.backward(grad.as_ref().expect("the op list ends in heads"))
            });
        }
        grad.expect("non-empty op list")
    }

    /// All trainable parameters, node by node in op-list order. This order
    /// is the checkpoint format.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.nodes
            .iter_mut()
            .flat_map(|node| node.params.iter_mut())
            .collect()
    }

    /// Total scalar parameter count.
    pub fn num_params(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.numel()).sum()
    }

    /// Inference-only forward pass.
    ///
    /// Walks the op list with the fused kernels — each conv or linear op
    /// applies the ReLU after it in its GEMM epilogue, pooling keeps values
    /// only (no argmax bookkeeping) — and caches nothing, so it needs only
    /// `&self` and allocates no backward state. Numerically identical to
    /// [`SppNet::forward`]: the fused ReLU yields `+0.0` where the mask path
    /// yields `-0.0`, which no downstream comparison, sum or sigmoid can
    /// distinguish.
    pub fn forward_inference(&self, x: &Tensor) -> DetectionOutput {
        self.forward_from(0, x)
    }

    /// [`SppNet::forward_inference`] from op `from` on, where `x` is the
    /// output of op `from - 1`. A whole-scene scan computes the conv trunk
    /// once per scene ([`crate::SharedTrunk`]) and runs only the tail, from
    /// [`SppNet::tail_start`], per window.
    pub fn forward_from(&self, from: usize, x: &Tensor) -> DetectionOutput {
        let _span = dcd_obs::span("sppnet.forward_inference", dcd_obs::Category::Nn);
        let mut trunk: Option<Tensor> = None;
        let mut heads = Vec::new();
        let mut nodes = self.nodes[from..].iter().peekable();
        while let Some(node) = nodes.next() {
            let relu = matches!(node.op.kind, OpKind::Conv { .. } | OpKind::Linear { .. })
                && nodes.next_if(|next| next.op.kind == OpKind::Relu).is_some();
            let y = node.infer(trunk.as_ref().unwrap_or(x), relu);
            if matches!(node.op.kind, OpKind::Head { .. }) {
                heads.push(y);
            } else {
                trunk = Some(y);
            }
        }
        DetectionOutput::from_heads(heads)
    }

    /// Index of the first op after the conv trunk: the op after the last
    /// convolution and the ReLU fused into it (`pool3` for SPP-Net).
    pub fn tail_start(&self) -> usize {
        let last_conv = self
            .nodes
            .iter()
            .rposition(|node| matches!(node.op.kind, OpKind::Conv { .. }))
            .expect("the op list has a convolution");
        match self.nodes.get(last_conv + 1) {
            Some(next) if next.op.kind == OpKind::Relu => last_conv + 2,
            _ => last_conv + 1,
        }
    }

    /// The nodes, in op-list order.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Runs inference on a batch and decodes per-image detections.
    pub fn predict(&mut self, x: &Tensor) -> Vec<Detection> {
        self.predict_from(0, x)
    }

    /// [`SppNet::predict`] through [`SppNet::forward_from`].
    pub fn predict_from(&self, from: usize, x: &Tensor) -> Vec<Detection> {
        let out = self.forward_from(from, x);
        let n = out.obj_logits.numel();
        (0..n)
            .map(|i| Detection {
                score: sigmoid(out.obj_logits.data()[i]),
                bbox: BBox::from_slice(&out.boxes.data()[i * 4..(i + 1) * 4]),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SeededRng {
        SeededRng::new(99)
    }

    #[test]
    fn table1_configs_match_paper_notation() {
        let rows = SppNetConfig::table1();
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows[0].1.summary(),
            "C_{64,3,1}-P_{2,2}-C_{128,3,1}-P_{2,2}-C_{256,3,1}-P_{2,2}-SPP_{4,2,1}-F_{1024}"
        );
        assert_eq!(
            rows[1].1.summary(),
            "C_{64,5,1}-P_{2,2}-C_{128,3,1}-P_{2,2}-C_{256,3,1}-P_{2,2}-SPP_{4,2,1}-F_{1024}"
        );
        assert_eq!(
            rows[2].1.summary(),
            "C_{64,3,1}-P_{2,2}-C_{128,3,1}-P_{2,2}-C_{256,3,1}-P_{2,2}-SPP_{5,2,1}-F_{4096}"
        );
        assert_eq!(
            rows[3].1.summary(),
            "C_{64,3,1}-P_{2,2}-C_{128,3,1}-P_{2,2}-C_{256,3,1}-P_{2,2}-SPP_{5,2,1}-F_{2048}"
        );
    }

    #[test]
    fn spp_levels_deduplicate() {
        let mut c = SppNetConfig::original();
        c.spp_top_level = 1;
        assert_eq!(c.spp_levels(), vec![2, 1]);
        c.spp_top_level = 2;
        assert_eq!(c.spp_levels(), vec![2, 1]);
        c.spp_top_level = 5;
        assert_eq!(c.spp_levels(), vec![5, 2, 1]);
    }

    #[test]
    fn spp_features_match_pyramid() {
        let c = SppNetConfig::original(); // [4,2,1] → 21 bins × 256
        assert_eq!(c.spp_features(), 256 * 21);
        let c2 = SppNetConfig::candidate2(); // [5,2,1] → 30 bins × 256
        assert_eq!(c2.spp_features(), 256 * 30);
    }

    #[test]
    fn forward_shapes_are_input_size_independent() {
        let mut r = rng();
        let mut net = SppNet::new(SppNetConfig::tiny(), &mut r);
        for &size in &[16usize, 24, 33] {
            let x = Tensor::randn([2, 1, size, size], 0.0, 1.0, &mut r);
            let out = net.forward(&x);
            assert_eq!(out.obj_logits.dims(), &[2]);
            assert_eq!(out.boxes.dims(), &[2, 4]);
        }
    }

    #[test]
    fn backward_produces_input_gradient() {
        let mut r = rng();
        let mut net = SppNet::new(SppNetConfig::tiny(), &mut r);
        let x = Tensor::randn([2, 1, 16, 16], 0.0, 1.0, &mut r);
        net.forward(&x);
        let gx = net.backward(&Tensor::ones([2]), &Tensor::ones([2, 4]));
        assert_eq!(gx.dims(), x.dims());
        assert!(gx.sq_norm() > 0.0);
        // Parameter grads were accumulated.
        assert!(net.params_mut().iter().any(|p| p.grad.sq_norm() > 0.0));
    }

    #[test]
    fn fc2_adds_a_trunk_layer() {
        let mut r = rng();
        let mut cfg = SppNetConfig::tiny();
        cfg.fc2 = Some(16);
        let mut net = SppNet::new(cfg.clone(), &mut r);
        let x = Tensor::randn([1, 1, 16, 16], 0.0, 1.0, &mut r);
        let out = net.forward(&x);
        assert_eq!(out.boxes.dims(), &[1, 4]);
        // two more params (fc2 w+b) than the single-FC version
        let mut net1 = SppNet::new(SppNetConfig::tiny(), &mut r);
        assert_eq!(net.params_mut().len(), net1.params_mut().len() + 2);
        assert!(cfg.summary().ends_with("-F_{32}-F_{16}"));
    }

    #[test]
    fn predict_scores_are_probabilities() {
        let mut r = rng();
        let mut net = SppNet::new(SppNetConfig::tiny(), &mut r);
        let x = Tensor::randn([3, 1, 16, 16], 0.0, 1.0, &mut r);
        let dets = net.predict(&x);
        assert_eq!(dets.len(), 3);
        for d in dets {
            assert!((0.0..=1.0).contains(&d.score));
        }
    }

    #[test]
    fn forward_inference_matches_training_forward() {
        let mut r = rng();
        let mut cfg = SppNetConfig::tiny();
        cfg.fc2 = Some(16);
        let mut net = SppNet::new(cfg, &mut r);
        let x = Tensor::randn([3, 1, 20, 20], 0.0, 1.0, &mut r);
        let train = net.forward(&x);
        let infer = net.forward_inference(&x);
        // `==` tolerates the fused ReLU's +0.0 vs the mask path's -0.0.
        assert_eq!(train.obj_logits.data(), infer.obj_logits.data());
        assert_eq!(train.boxes.data(), infer.boxes.data());
    }

    #[test]
    fn op_names_follow_the_architecture() {
        let mut cfg = SppNetConfig::tiny();
        let names = |cfg: &SppNetConfig| -> Vec<&str> {
            cfg.ops().unwrap().iter().map(|op| op.name).collect()
        };
        let backbone = [
            "conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "conv3", "relu3", "pool3", "spp",
            "fc1", "fc1_relu",
        ];
        assert_eq!(
            names(&cfg),
            [&backbone[..], &["head_obj", "head_box"]].concat()
        );
        cfg.fc2 = Some(16);
        assert_eq!(
            names(&cfg),
            [&backbone[..], &["fc2", "fc2_relu", "head_obj", "head_box"]].concat()
        );
    }

    #[test]
    fn sppnet_end_to_end_gradient_check() {
        // backward's input gradient of sum(obj) + sum(boxes) against central
        // differences through the whole op list.
        let mut r = rng();
        let mut net = SppNet::new(SppNetConfig::tiny(), &mut r);
        let x = Tensor::randn([1, 1, 8, 8], 0.0, 1.0, &mut r);
        net.forward(&x);
        let gx = net.backward(&Tensor::ones([1]), &Tensor::ones([1, 4]));
        assert!(gx.max() > 0.1, "max {}", gx.max());
        let num = dcd_tensor::grad_check::numeric_grad(&x, 1e-2, |xp| {
            let out = net.forward_inference(xp);
            out.obj_logits.sum() + out.boxes.sum()
        });
        assert!(
            gx.max_abs_diff(&num) < 0.05,
            "diff {}",
            gx.max_abs_diff(&num)
        );
    }

    #[test]
    fn num_params_counts_everything() {
        let mut r = rng();
        let cfg = SppNetConfig::tiny();
        let mut net = SppNet::new(cfg.clone(), &mut r);
        // conv1: 4·1·3·3+4; conv2: 8·4·3·3+8; conv3: 8·8·3·3+8;
        // fc1: (8·5)·32+32; heads: 32·1+1 + 32·4+4
        let spp_f = cfg.spp_features();
        let expect = (4 * 9 + 4)
            + (8 * 4 * 9 + 8)
            + (8 * 8 * 9 + 8)
            + (spp_f * 32 + 32)
            + (32 + 1)
            + (32 * 4 + 4);
        assert_eq!(net.num_params(), expect);
    }

    #[test]
    fn same_seed_same_model() {
        let mut r1 = SeededRng::new(5);
        let mut r2 = SeededRng::new(5);
        let mut a = SppNet::new(SppNetConfig::tiny(), &mut r1);
        let mut b = SppNet::new(SppNetConfig::tiny(), &mut r2);
        let x = Tensor::randn([1, 1, 16, 16], 0.0, 1.0, &mut SeededRng::new(0));
        let ya = a.forward(&x);
        let yb = b.forward(&x);
        assert_eq!(ya.obj_logits.data(), yb.obj_logits.data());
        assert_eq!(ya.boxes.data(), yb.boxes.data());
    }
}
