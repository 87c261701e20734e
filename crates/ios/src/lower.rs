//! Lowering an [`SppNetConfig`] to the graph IR.
//!
//! [`SppNetConfig`]: dcd_nn::SppNetConfig

use crate::graph::{Graph, OpKind};
use dcd_nn::{OpKind as NnOp, SppNetConfig};

/// Lowers an SPP-Net configuration to the operator graph the scheduler and
/// the GPU simulator consume, by converting its op list
/// ([`SppNetConfig::ops`]) op for op.
///
/// `input_hw` is the patch size (the paper uses 100×100). The resulting DAG
/// is the conv backbone chain, the parallel SPP pyramid branches converging
/// in a `Concat`, the FC trunk, and the two parallel detection heads
/// converging in the output `Concat`:
///
/// ```text
/// in → c1 → r → p → c2 → r → p → c3 → r → p →  {spp_a, spp_b, spp_c} →
///   concat → fc1 → r [→ fc2 → r] → {head_obj, head_box} → out
/// ```
///
/// Panics if `config` is invalid (see [`SppNetConfig::ops`]).
pub fn lower_sppnet(config: &SppNetConfig, input_hw: (usize, usize)) -> Graph {
    let ops = config
        .ops()
        .unwrap_or_else(|e| panic!("invalid SppNetConfig: {e}"));
    let mut g = Graph::new();
    let mut trunk = g.add_input("input", (config.in_channels, input_hw.0, input_hw.1));
    let mut heads = Vec::new();
    for op in ops {
        match op.kind {
            NnOp::Conv {
                c_in,
                c_out,
                kernel,
                stride,
                pad,
            } => {
                let kind = OpKind::Conv {
                    c_in,
                    c_out,
                    kernel,
                    stride,
                    pad,
                };
                trunk = g.add(op.name, kind, vec![trunk]);
            }
            NnOp::Relu => trunk = g.add(op.name, OpKind::Relu, vec![trunk]),
            NnOp::MaxPool { kernel, stride } => {
                trunk = g.add(op.name, OpKind::MaxPool { kernel, stride }, vec![trunk]);
            }
            NnOp::Spp { levels } => {
                // One adaptive-pool branch per level — the branched block
                // IOS parallelizes.
                let branches = levels
                    .into_iter()
                    .map(|level| {
                        let name = format!("{}{level}", op.name);
                        g.add(name, OpKind::AdaptivePool { out_size: level }, vec![trunk])
                    })
                    .collect();
                trunk = g.add(format!("{}_concat", op.name), OpKind::Concat, branches);
            }
            NnOp::Linear { in_f, out_f } => {
                trunk = g.add(op.name, OpKind::Gemm { in_f, out_f }, vec![trunk]);
            }
            NnOp::Head { in_f, out_f } => {
                // Detection heads: parallel GEMVs converging in the output.
                heads.push(g.add(op.name, OpKind::Gemm { in_f, out_f }, vec![trunk]));
            }
        }
    }
    g.add("output", OpKind::Concat, heads);
    g
}

/// Builds a synthetic Inception-style block: `branches` parallel conv→pool
/// chains over a shared input, converging in a concat — the graph family the
/// IOS paper originally targets, where branch parallelism (not just chain
/// grouping) carries the win.
///
/// `input` is `(channels, h, w)`; each branch convolves to `branch_width`
/// channels and adaptive-pools to 1×1.
pub fn branched_graph(branches: usize, input: (usize, usize, usize), branch_width: usize) -> Graph {
    assert!(branches >= 1, "need at least one branch");
    let mut g = Graph::new();
    let inp = g.add_input("input", input);
    let outs: Vec<_> = (0..branches)
        .map(|b| {
            let conv = g.add(
                format!("branch{b}_conv"),
                OpKind::Conv {
                    c_in: input.0,
                    c_out: branch_width,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                vec![inp],
            );
            let relu = g.add(format!("branch{b}_relu"), OpKind::Relu, vec![conv]);
            g.add(
                format!("branch{b}_pool"),
                OpKind::AdaptivePool { out_size: 1 },
                vec![relu],
            )
        })
        .collect();
    g.add("merge", OpKind::Concat, outs);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_tensor::SeededRng;

    #[test]
    fn branched_graph_shape() {
        let g = branched_graph(4, (16, 32, 32), 32);
        // input + 4×(conv, relu, pool) + merge
        assert_eq!(g.len(), 1 + 12 + 1);
        assert_eq!(g.ops.last().unwrap().out_shape, (4 * 32, 1, 1));
    }

    #[test]
    fn branched_graph_wavefront_is_wide() {
        let g = branched_graph(3, (8, 16, 16), 16);
        let s = crate::dp::greedy_schedule(&g);
        assert_eq!(s.validate(&g), Ok(()));
        // First wavefront: all three convs.
        assert_eq!(s.stages[0].width(), 3);
    }

    #[test]
    fn original_sppnet_lowers_to_expected_size() {
        let g = lower_sppnet(&SppNetConfig::original(), (100, 100));
        // input + 3×(conv,relu,pool) + 3 spp + concat + fc1 + relu +
        // 2 heads + output = 1 + 9 + 3 + 1 + 2 + 2 + 1 = 19
        assert_eq!(g.len(), 19);
    }

    #[test]
    fn fc2_adds_two_ops() {
        let mut cfg = SppNetConfig::original();
        let base = lower_sppnet(&cfg, (100, 100)).len();
        cfg.fc2 = Some(512);
        assert_eq!(lower_sppnet(&cfg, (100, 100)).len(), base + 2);
    }

    #[test]
    fn spp_branch_count_follows_levels() {
        let mut cfg = SppNetConfig::original();
        cfg.spp_top_level = 5; // [5,2,1]
        let g = lower_sppnet(&cfg, (100, 100));
        let branches = g
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::AdaptivePool { .. }))
            .count();
        assert_eq!(branches, 3);
        cfg.spp_top_level = 2; // [2,1]
        let g2 = lower_sppnet(&cfg, (100, 100));
        let branches2 = g2
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::AdaptivePool { .. }))
            .count();
        assert_eq!(branches2, 2);
    }

    #[test]
    fn backbone_shrinks_100_to_12() {
        let g = lower_sppnet(&SppNetConfig::original(), (100, 100));
        let pool3 = g.ops.iter().find(|o| o.name == "pool3").unwrap();
        assert_eq!(pool3.out_shape, (256, 12, 12));
    }

    #[test]
    fn param_count_matches_nn_model() {
        // The lowered graph must account for exactly the same parameters as
        // the executable dcd-nn model.
        let cfg = SppNetConfig::tiny();
        let g = lower_sppnet(&cfg, (16, 16));
        let mut rng = SeededRng::new(0);
        let mut model = dcd_nn::SppNet::new(cfg, &mut rng);
        assert_eq!(g.param_count(), model.num_params());
    }

    #[test]
    fn output_concat_is_five_wide() {
        let g = lower_sppnet(&SppNetConfig::original(), (100, 100));
        let out = g.ops.last().unwrap();
        assert_eq!(out.out_shape, (5, 1, 1)); // objectness + 4 box coords
    }

    /// FNV-1a fingerprint of every op's name, kind, inputs and output shape.
    fn fingerprint(g: &Graph) -> u64 {
        g.ops
            .iter()
            .map(|op| {
                format!(
                    "{} {:?} {:?} {:?}\n",
                    op.name, op.kind, op.inputs, op.out_shape
                )
            })
            .flat_map(String::into_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn table1_lowerings_are_pinned() {
        // Recorded from the hand-written lowering the op-list conversion
        // replaced: same names, kinds, wiring and shapes, op for op.
        let got: Vec<u64> = SppNetConfig::table1()
            .iter()
            .map(|(_, cfg)| fingerprint(&lower_sppnet(cfg, (100, 100))))
            .collect();
        assert_eq!(
            got,
            [
                0xdd4d_599a_32af_c7de,
                0xd209_8422_0008_5d63,
                0x255f_20bb_dfbd_6a33,
                0x5567_a717_e0d9_1796,
            ]
        );
    }

    #[test]
    fn table1_configs_all_lower() {
        for (name, cfg) in SppNetConfig::table1() {
            let g = lower_sppnet(&cfg, (100, 100));
            assert!(g.len() >= 19, "{name} lowered to {} ops", g.len());
            assert!(g.param_count() > 100_000, "{name} has real weights");
        }
    }
}
