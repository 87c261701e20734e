//! Model checkpointing: save/load SPP-Net weights.
//!
//! A checkpoint is the architecture config plus the parameter tensors in
//! `params_mut()` order, which is op-list order. Loading validates the
//! tensors against the config's op list before building anything, so a
//! checkpoint is portable across processes and (being JSON) across versions
//! that keep the op list stable.

use crate::sppnet::{ConfigError, SppNet, SppNetConfig};
use dcd_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A serializable model snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Architecture the weights belong to.
    pub config: SppNetConfig,
    /// Parameter values in `SppNet::params_mut()` order.
    pub params: Vec<Tensor>,
}

/// Errors when restoring a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The config does not describe a network.
    Config(ConfigError),
    /// Parameter count differs from what the config's model expects.
    ParamCount {
        /// Parameters the model has.
        expected: usize,
        /// Parameters the checkpoint holds.
        actual: usize,
    },
    /// A parameter tensor has the wrong shape.
    ParamShape {
        /// Index in `params_mut()` order.
        index: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Config(e) => write!(f, "checkpoint config is invalid: {e}"),
            CheckpointError::ParamCount { expected, actual } => {
                write!(
                    f,
                    "checkpoint has {actual} parameters, model expects {expected}"
                )
            }
            CheckpointError::ParamShape { index } => {
                write!(f, "checkpoint parameter {index} has the wrong shape")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Snapshots a model's weights.
    pub fn save(model: &mut SppNet) -> Checkpoint {
        Checkpoint {
            config: model.config.clone(),
            params: model.params_mut().iter().map(|p| p.value.clone()).collect(),
        }
    }

    /// Restores a model from the snapshot. The config and every tensor
    /// shape are checked against the op list before the model is built
    /// from the checkpoint's tensors.
    pub fn load(&self) -> Result<SppNet, CheckpointError> {
        let ops = self.config.ops().map_err(CheckpointError::Config)?;
        let shapes: Vec<Vec<usize>> = ops.iter().flat_map(|op| op.param_shapes()).collect();
        if shapes.len() != self.params.len() {
            return Err(CheckpointError::ParamCount {
                expected: shapes.len(),
                actual: self.params.len(),
            });
        }
        let mismatch = self
            .params
            .iter()
            .zip(&shapes)
            .position(|(t, s)| t.dims() != s);
        if let Some(index) = mismatch {
            return Err(CheckpointError::ParamShape { index });
        }
        Ok(SppNet::from_params(
            self.config.clone(),
            ops,
            self.params.iter().cloned(),
        ))
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serializes")
    }

    /// Deserializes from JSON.
    pub fn from_json(s: &str) -> Result<Checkpoint, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_tensor::SeededRng;

    fn trained_ish_model() -> SppNet {
        let mut rng = SeededRng::new(33);
        let mut model = SppNet::new(SppNetConfig::tiny(), &mut rng);
        // Perturb weights so the snapshot is distinguishable from init.
        for p in model.params_mut() {
            p.value.map_inplace(|v| v + 0.123);
        }
        model
    }

    #[test]
    fn roundtrip_preserves_outputs() {
        let mut model = trained_ish_model();
        let x = Tensor::randn([2, 1, 16, 16], 0.0, 1.0, &mut SeededRng::new(1));
        let before = model.forward(&x);
        let ckpt = Checkpoint::save(&mut model);
        let mut restored = ckpt.load().expect("valid checkpoint");
        let after = restored.forward(&x);
        assert_eq!(before.obj_logits.data(), after.obj_logits.data());
        assert_eq!(before.boxes.data(), after.boxes.data());
    }

    #[test]
    fn json_roundtrip() {
        let mut model = trained_ish_model();
        let ckpt = Checkpoint::save(&mut model);
        let json = ckpt.to_json();
        let back = Checkpoint::from_json(&json).expect("valid json");
        let mut restored = back.load().expect("valid checkpoint");
        let x = Tensor::randn([1, 1, 16, 16], 0.0, 1.0, &mut SeededRng::new(2));
        let a = model.forward(&x);
        let b = restored.forward(&x);
        assert_eq!(a.obj_logits.data(), b.obj_logits.data());
    }

    #[test]
    fn param_count_mismatch_rejected() {
        let mut model = trained_ish_model();
        let mut ckpt = Checkpoint::save(&mut model);
        ckpt.params.pop();
        assert!(matches!(
            ckpt.load(),
            Err(CheckpointError::ParamCount { .. })
        ));
    }

    #[test]
    fn param_shape_mismatch_rejected() {
        let mut model = trained_ish_model();
        let mut ckpt = Checkpoint::save(&mut model);
        ckpt.params[0] = Tensor::zeros([1, 1]);
        assert!(matches!(
            ckpt.load(),
            Err(CheckpointError::ParamShape { index: 0 })
        ));
    }

    #[test]
    fn checkpoint_carries_architecture() {
        let mut rng = SeededRng::new(5);
        let mut cfg = SppNetConfig::tiny();
        cfg.fc2 = Some(16);
        let mut model = SppNet::new(cfg.clone(), &mut rng);
        let ckpt = Checkpoint::save(&mut model);
        assert_eq!(ckpt.config, cfg);
        let restored = ckpt.load().expect("valid");
        assert_eq!(restored.config, cfg);
    }

    #[test]
    fn loaded_params_keep_decay_flags() {
        let mut model = trained_ish_model();
        let mut restored = Checkpoint::save(&mut model).load().expect("valid");
        let flags =
            |m: &mut SppNet| -> Vec<bool> { m.params_mut().iter().map(|p| p.decay).collect() };
        assert_eq!(flags(&mut restored), flags(&mut model));
    }

    #[test]
    fn zero_spp_top_level_is_a_typed_error() {
        let mut ckpt = Checkpoint::save(&mut trained_ish_model());
        ckpt.config.spp_top_level = 0;
        assert_eq!(
            ckpt.load().err(),
            Some(CheckpointError::Config(ConfigError::Zero("spp_top_level")))
        );
    }

    #[test]
    fn zero_channel_width_is_a_typed_error() {
        let mut ckpt = Checkpoint::save(&mut trained_ish_model());
        ckpt.config.channels[1] = 0;
        assert_eq!(
            ckpt.load().err(),
            Some(CheckpointError::Config(ConfigError::Zero("channels")))
        );
    }

    #[test]
    fn huge_fc1_is_rejected_before_allocating() {
        // fc1 weights of 2^40 floats would need 4 TiB; the shape check
        // must fail without building the model.
        let mut ckpt = Checkpoint::save(&mut trained_ish_model());
        ckpt.config.fc1 = 1 << 40;
        assert!(matches!(
            ckpt.load(),
            Err(CheckpointError::ParamShape { index: 6 })
        ));
        ckpt.config.fc1 = usize::MAX;
        assert_eq!(
            ckpt.load().err(),
            Some(CheckpointError::Config(ConfigError::Overflow("fc1")))
        );
    }

    #[test]
    fn truncated_tensor_json_is_an_error() {
        let json = Checkpoint::save(&mut trained_ish_model()).to_json();
        // Drop the last element of the first tensor's data array.
        let start = json.find("\"data\":[").expect("data field") + "\"data\":[".len();
        let end = start + json[start..].find(']').expect("end of data");
        let cut = start + json[start..end].rfind(',').expect("several elements");
        let truncated = format!("{}{}", &json[..cut], &json[end..]);
        assert!(Checkpoint::from_json(&truncated).is_err());
    }
}
