//! # dcd-nn
//!
//! A from-scratch CNN stack (ops, backprop, SGD) sufficient to train and
//! run the SPP-Net drainage-crossing detector of the SC-W 2023 paper.
//!
//! The crate deliberately avoids a general autograd tape. The network is
//! defined once, as the static op list [`SppNetConfig::ops`]: [`SppNet`]
//! walks it forward and backward for training and forward with fused
//! kernels for inference, [`Checkpoint`] validates against its parameter
//! shapes, and the Inter-Operator Scheduler (`dcd-ios`) converts it to its
//! graph IR.
//!
//! Layout conventions follow `dcd-tensor` (NCHW activations).

pub mod detect;
pub mod loss;
pub mod metrics;
pub mod op;
pub mod param;
pub mod serialize;
pub mod sgd;
pub mod sppnet;
pub mod trainer;
pub mod trunk;

pub use detect::{BBox, Detection, Sample};
pub use loss::{bce_with_logits, smooth_l1, softmax_cross_entropy};
pub use metrics::{average_precision, iou, PrPoint};
pub use op::{Node, Op, OpKind};
pub use param::Param;
pub use serialize::{Checkpoint, CheckpointError};
pub use sgd::Sgd;
pub use sppnet::{ConfigError, SppNet, SppNetConfig};
pub use trainer::{EpochStats, TrainConfig, Trainer};
pub use trunk::{SharedTrunk, TrunkError};
