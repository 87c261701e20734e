//! Bit-level checksums of seeded SPP-Net values.
//!
//! Each checksum covers the exact bit patterns of a seeded model's initial
//! parameters, its `forward` and `forward_inference` outputs, and the
//! gradients `backward` leaves on every parameter and on the input. The
//! pinned values were recorded from the hand-wired per-layer model that the
//! op-list model replaced; any change to the RNG draw order, a kernel call
//! or an accumulation order fails here instead of drifting silently.

use dcd_nn::{SppNet, SppNetConfig};
use dcd_tensor::{SeededRng, Tensor};

/// FNV-1a over the bit patterns of `values`, continuing from `h`.
fn fnv(mut h: u64, values: &[f32]) -> u64 {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Checksums of a seeded `config` model, in the order
/// `[init params, forward, forward_inference, gradients]`.
fn checksums(config: SppNetConfig) -> [u64; 4] {
    let mut rng = SeededRng::new(42);
    let mut model = SppNet::new(config.clone(), &mut rng);
    let x = Tensor::randn([2, config.in_channels, 40, 40], 0.0, 1.0, &mut rng);
    let grad_obj = Tensor::randn([2], 0.0, 1.0, &mut rng);
    let grad_box = Tensor::randn([2, 4], 0.0, 1.0, &mut rng);

    let init = model.params_mut().iter().fold(FNV_OFFSET, |h, p| {
        let dims: Vec<f32> = p.value.dims().iter().map(|&d| d as f32).collect();
        fnv(fnv(h, &dims), p.value.data())
    });
    let train = model.forward(&x);
    let forward = fnv(fnv(FNV_OFFSET, train.obj_logits.data()), train.boxes.data());
    let infer = model.forward_inference(&x);
    let inference = fnv(fnv(FNV_OFFSET, infer.obj_logits.data()), infer.boxes.data());
    let gx = model.backward(&grad_obj, &grad_box);
    let grads = model
        .params_mut()
        .iter()
        .fold(fnv(FNV_OFFSET, gx.data()), |h, p| fnv(h, p.grad.data()));
    [init, forward, inference, grads]
}

#[test]
fn tiny_values_are_pinned() {
    let got = checksums(SppNetConfig::tiny());
    assert_eq!(
        got,
        [
            0x8cf7_4cce_f51e_5716,
            0x875f_45cb_0476_ce43,
            0x875f_45cb_0476_ce43,
            0x1376_0679_7147_ccf4,
        ]
    );
}

#[test]
fn tiny_fc2_values_are_pinned() {
    let mut config = SppNetConfig::tiny();
    config.fc2 = Some(16);
    let got = checksums(config);
    assert_eq!(
        got,
        [
            0x3b04_cc68_669d_4440,
            0x2a3a_43cd_51e9_85d6,
            0x2a3a_43cd_51e9_85d6,
            0x7d2b_8000_3aa2_5e09,
        ]
    );
}

#[test]
fn candidate2_values_are_pinned() {
    let got = checksums(SppNetConfig::candidate2());
    assert_eq!(
        got,
        [
            0xee66_c85e_276b_17df,
            0x09c4_a890_f4be_d763,
            0x09c4_a890_f4be_d763,
            0x19d2_b80b_04f1_ac1d,
        ]
    );
}
