//! The paper's benchmark networks (§VI-A) as operator graphs.

use crate::ops::{ConvSpec, InputRef, Op, OpKind};

/// A network plus the batch size it is evaluated with.
#[derive(Debug, Clone)]
pub struct Model {
    /// Display name used in the figures.
    pub name: &'static str,
    /// Operator graph in execution order.
    pub ops: Vec<Op>,
    /// Samples per run.
    pub batch: u64,
}

#[allow(clippy::vec_init_then_push)] // layer lists read as an execution schedule
impl Model {
    /// Total weight elements (network size).
    pub fn weight_elems(&self) -> u64 {
        self.ops.iter().map(Op::weight_elems).sum()
    }

    /// Total MACs per sample.
    pub fn macs_per_sample(&self) -> u64 {
        self.ops.iter().map(Op::macs).sum()
    }

    /// `true` if the model has gather-style embedding ops (DLRM).
    pub fn has_embeddings(&self) -> bool {
        self.ops.iter().any(|o| matches!(o.kind, OpKind::Embedding { .. }))
    }

    /// AlexNet (227×227×3 input).
    pub fn alexnet(batch: u64) -> Model {
        let mut ops = Vec::new();
        let conv = |name: &str, c: ConvSpec| Op::new(name, OpKind::Conv(c));
        let pool = |name: &str, c: u64, h: u64, w: u64, oh: u64, ow: u64| {
            Op::new(name, OpKind::Stream { in_elems: c * h * w, out_elems: c * oh * ow })
        };
        ops.push(conv(
            "conv1",
            ConvSpec { c_in: 3, h: 227, w: 227, k: 96, r: 11, s: 11, stride: 4, pad: 0 },
        ));
        ops.push(pool("pool1", 96, 55, 55, 27, 27));
        ops.push(conv(
            "conv2",
            ConvSpec { c_in: 96, h: 27, w: 27, k: 256, r: 5, s: 5, stride: 1, pad: 2 },
        ));
        ops.push(pool("pool2", 256, 27, 27, 13, 13));
        ops.push(conv(
            "conv3",
            ConvSpec { c_in: 256, h: 13, w: 13, k: 384, r: 3, s: 3, stride: 1, pad: 1 },
        ));
        ops.push(conv(
            "conv4",
            ConvSpec { c_in: 384, h: 13, w: 13, k: 384, r: 3, s: 3, stride: 1, pad: 1 },
        ));
        ops.push(conv(
            "conv5",
            ConvSpec { c_in: 384, h: 13, w: 13, k: 256, r: 3, s: 3, stride: 1, pad: 1 },
        ));
        ops.push(pool("pool5", 256, 13, 13, 6, 6));
        ops.push(Op::new("fc6", OpKind::Dense { c_in: 9216, c_out: 4096 }));
        ops.push(Op::new("fc7", OpKind::Dense { c_in: 4096, c_out: 4096 }));
        ops.push(Op::new("fc8", OpKind::Dense { c_in: 4096, c_out: 1000 }));
        Model { name: "AlexNet", ops, batch }
    }

    /// VGG-16 (224×224×3 input).
    pub fn vgg16(batch: u64) -> Model {
        let mut ops = Vec::new();
        let mut c_in = 3u64;
        let mut hw = 224u64;
        let stages: [(u64, u64); 5] = [(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)];
        for (si, &(convs, k)) in stages.iter().enumerate() {
            for ci in 0..convs {
                ops.push(Op::new(
                    format!("conv{}_{}", si + 1, ci + 1),
                    OpKind::Conv(ConvSpec { c_in, h: hw, w: hw, k, r: 3, s: 3, stride: 1, pad: 1 }),
                ));
                c_in = k;
            }
            ops.push(Op::new(
                format!("pool{}", si + 1),
                OpKind::Stream { in_elems: k * hw * hw, out_elems: k * (hw / 2) * (hw / 2) },
            ));
            hw /= 2;
        }
        ops.push(Op::new("fc6", OpKind::Dense { c_in: 512 * 7 * 7, c_out: 4096 }));
        ops.push(Op::new("fc7", OpKind::Dense { c_in: 4096, c_out: 4096 }));
        ops.push(Op::new("fc8", OpKind::Dense { c_in: 4096, c_out: 1000 }));
        Model { name: "VGG", ops, batch }
    }

    /// ResNet-50 (224×224×3 input).
    pub fn resnet50(batch: u64) -> Model {
        let mut ops: Vec<Op> = Vec::new();
        ops.push(Op::new(
            "conv1",
            OpKind::Conv(ConvSpec {
                c_in: 3,
                h: 224,
                w: 224,
                k: 64,
                r: 7,
                s: 7,
                stride: 2,
                pad: 3,
            }),
        ));
        ops.push(Op::new(
            "maxpool",
            OpKind::Stream { in_elems: 64 * 112 * 112, out_elems: 64 * 56 * 56 },
        ));
        // (blocks, mid channels, out channels, spatial size of the stage)
        let stages: [(u64, u64, u64, u64); 4] =
            [(3, 64, 256, 56), (4, 128, 512, 28), (6, 256, 1024, 14), (3, 512, 2048, 7)];
        let mut c_in = 64u64;
        for (si, &(blocks, mid, out, size)) in stages.iter().enumerate() {
            for b in 0..blocks {
                let stride = if si > 0 && b == 0 { 2 } else { 1 };
                let in_size = if stride == 2 { size * 2 } else { size };
                let block_input = ops.len().checked_sub(1);
                ops.push(Op::new(
                    format!("res{}_{}a", si + 2, b + 1),
                    OpKind::Conv(ConvSpec {
                        c_in,
                        h: in_size,
                        w: in_size,
                        k: mid,
                        r: 1,
                        s: 1,
                        stride,
                        pad: 0,
                    }),
                ));
                ops.push(Op::new(
                    format!("res{}_{}b", si + 2, b + 1),
                    OpKind::Conv(ConvSpec {
                        c_in: mid,
                        h: size,
                        w: size,
                        k: mid,
                        r: 3,
                        s: 3,
                        stride: 1,
                        pad: 1,
                    }),
                ));
                ops.push(Op::new(
                    format!("res{}_{}c", si + 2, b + 1),
                    OpKind::Conv(ConvSpec {
                        c_in: mid,
                        h: size,
                        w: size,
                        k: out,
                        r: 1,
                        s: 1,
                        stride: 1,
                        pad: 0,
                    }),
                ));
                if b == 0 {
                    // Projection shortcut from the block input.
                    let proj_in = block_input.map(InputRef::Op).unwrap_or(InputRef::External);
                    ops.push(Op::with_input(
                        format!("res{}_{}p", si + 2, b + 1),
                        OpKind::Conv(ConvSpec {
                            c_in,
                            h: in_size,
                            w: in_size,
                            k: out,
                            r: 1,
                            s: 1,
                            stride,
                            pad: 0,
                        }),
                        proj_in,
                    ));
                    let proj_idx = ops.len() - 1;
                    ops.push(Op::with_input(
                        format!("res{}_{}add", si + 2, b + 1),
                        OpKind::Add { elems: out * size * size, extra: InputRef::Op(proj_idx) },
                        InputRef::Op(proj_idx - 1),
                    ));
                } else {
                    let skip = ops.len() - 4; // output of the previous add
                    ops.push(Op::new(
                        format!("res{}_{}add", si + 2, b + 1),
                        OpKind::Add { elems: out * size * size, extra: InputRef::Op(skip) },
                    ));
                }
                c_in = out;
            }
        }
        ops.push(Op::new("avgpool", OpKind::Stream { in_elems: 2048 * 7 * 7, out_elems: 2048 }));
        ops.push(Op::new("fc", OpKind::Dense { c_in: 2048, c_out: 1000 }));
        Model { name: "ResNet", ops, batch }
    }

    /// GoogLeNet / Inception-v1 (224×224×3 input).
    pub fn googlenet(batch: u64) -> Model {
        let mut ops: Vec<Op> = Vec::new();
        ops.push(Op::new(
            "conv1",
            OpKind::Conv(ConvSpec {
                c_in: 3,
                h: 224,
                w: 224,
                k: 64,
                r: 7,
                s: 7,
                stride: 2,
                pad: 3,
            }),
        ));
        ops.push(Op::new(
            "pool1",
            OpKind::Stream { in_elems: 64 * 112 * 112, out_elems: 64 * 56 * 56 },
        ));
        ops.push(Op::new(
            "conv2a",
            OpKind::Conv(ConvSpec { c_in: 64, h: 56, w: 56, k: 64, r: 1, s: 1, stride: 1, pad: 0 }),
        ));
        ops.push(Op::new(
            "conv2b",
            OpKind::Conv(ConvSpec {
                c_in: 64,
                h: 56,
                w: 56,
                k: 192,
                r: 3,
                s: 3,
                stride: 1,
                pad: 1,
            }),
        ));
        ops.push(Op::new(
            "pool2",
            OpKind::Stream { in_elems: 192 * 56 * 56, out_elems: 192 * 28 * 28 },
        ));

        // (name, c_in, size, 1x1, 3x3red, 3x3, 5x5red, 5x5, poolproj)
        type Inc = (&'static str, u64, u64, u64, u64, u64, u64, u64, u64);
        let incs: [Inc; 9] = [
            ("3a", 192, 28, 64, 96, 128, 16, 32, 32),
            ("3b", 256, 28, 128, 128, 192, 32, 96, 64),
            ("4a", 480, 14, 192, 96, 208, 16, 48, 64),
            ("4b", 512, 14, 160, 112, 224, 24, 64, 64),
            ("4c", 512, 14, 128, 128, 256, 24, 64, 64),
            ("4d", 512, 14, 112, 144, 288, 32, 64, 64),
            ("4e", 528, 14, 256, 160, 320, 32, 128, 128),
            ("5a", 832, 7, 256, 160, 320, 32, 128, 128),
            ("5b", 832, 7, 384, 192, 384, 48, 128, 128),
        ];
        for (i, &(nm, c_in, sz, b1, b3r, b3, b5r, b5, bp)) in incs.iter().enumerate() {
            // Pools between inception stages.
            if nm == "4a" {
                ops.push(Op::new(
                    "pool3",
                    OpKind::Stream { in_elems: 480 * 28 * 28, out_elems: 480 * 14 * 14 },
                ));
            }
            if nm == "5a" {
                ops.push(Op::new(
                    "pool4",
                    OpKind::Stream { in_elems: 832 * 14 * 14, out_elems: 832 * 7 * 7 },
                ));
            }
            let src = ops.len() - 1;
            let c = |k: u64, r: u64, cin: u64| ConvSpec {
                c_in: cin,
                h: sz,
                w: sz,
                k,
                r,
                s: r,
                stride: 1,
                pad: r / 2,
            };
            ops.push(Op::with_input(
                format!("inc{nm}.1x1"),
                OpKind::Conv(c(b1, 1, c_in)),
                InputRef::Op(src),
            ));
            ops.push(Op::with_input(
                format!("inc{nm}.3x3r"),
                OpKind::Conv(c(b3r, 1, c_in)),
                InputRef::Op(src),
            ));
            ops.push(Op::new(format!("inc{nm}.3x3"), OpKind::Conv(c(b3, 3, b3r))));
            ops.push(Op::with_input(
                format!("inc{nm}.5x5r"),
                OpKind::Conv(c(b5r, 1, c_in)),
                InputRef::Op(src),
            ));
            ops.push(Op::new(format!("inc{nm}.5x5"), OpKind::Conv(c(b5, 5, b5r))));
            ops.push(Op::with_input(
                format!("inc{nm}.pool"),
                OpKind::Conv(c(bp, 1, c_in)),
                InputRef::Op(src),
            ));
            // Concatenation is free (adjacent buffers); model as a stream
            // copy of the branch outputs into the concat tensor.
            let out = b1 + b3 + b5 + bp;
            ops.push(Op::new(
                format!("inc{nm}.concat"),
                OpKind::Stream { in_elems: out * sz * sz, out_elems: out * sz * sz },
            ));
            let _ = i;
        }
        ops.push(Op::new("avgpool", OpKind::Stream { in_elems: 1024 * 7 * 7, out_elems: 1024 }));
        ops.push(Op::new("fc", OpKind::Dense { c_in: 1024, c_out: 1000 }));
        Model { name: "GoogleNet", ops, batch }
    }

    /// BERT-base encoder stack (12 layers, hidden 768, 12 heads) at
    /// sequence length `seq`.
    pub fn bert_base(batch: u64, seq: u64) -> Model {
        let hidden = 768u64;
        let heads = 12u64;
        let head_dim = hidden / heads;
        let ffn = 3072u64;
        let mut ops = Vec::new();
        // Token+position embedding lookup: stream (small vs the matmuls).
        ops.push(Op::new(
            "embed",
            OpKind::Stream { in_elems: seq * hidden, out_elems: seq * hidden },
        ));
        for l in 0..12 {
            // Dense ops below process seq tokens each: fold seq into the
            // batch dimension at trace time via `tokens_per_sample`.
            ops.push(Op::new(format!("l{l}.q"), OpKind::Dense { c_in: hidden, c_out: hidden }));
            ops.push(Op::new(format!("l{l}.k"), OpKind::Dense { c_in: hidden, c_out: hidden }));
            ops.push(Op::new(format!("l{l}.v"), OpKind::Dense { c_in: hidden, c_out: hidden }));
            ops.push(Op::new(
                format!("l{l}.scores"),
                OpKind::BatchedMatmul { b: heads, m: seq, k: head_dim, n: seq },
            ));
            ops.push(Op::new(
                format!("l{l}.softmax"),
                OpKind::Stream { in_elems: heads * seq * seq, out_elems: heads * seq * seq },
            ));
            ops.push(Op::new(
                format!("l{l}.context"),
                OpKind::BatchedMatmul { b: heads, m: seq, k: seq, n: head_dim },
            ));
            ops.push(Op::new(format!("l{l}.proj"), OpKind::Dense { c_in: hidden, c_out: hidden }));
            ops.push(Op::new(
                format!("l{l}.ln1"),
                OpKind::Stream { in_elems: seq * hidden, out_elems: seq * hidden },
            ));
            ops.push(Op::new(format!("l{l}.ffn1"), OpKind::Dense { c_in: hidden, c_out: ffn }));
            ops.push(Op::new(format!("l{l}.ffn2"), OpKind::Dense { c_in: ffn, c_out: hidden }));
            ops.push(Op::new(
                format!("l{l}.ln2"),
                OpKind::Stream { in_elems: seq * hidden, out_elems: seq * hidden },
            ));
        }
        Model { name: "BERT", ops, batch }
    }

    /// Tokens each "sample" of a model carries (sequence length for BERT,
    /// 1 for everything else). Dense layers process `batch × tokens` rows.
    pub fn tokens_per_sample(&self) -> u64 {
        if self.name == "BERT" {
            // The embed op records seq×hidden elements.
            if let OpKind::Stream { in_elems, .. } = self.ops[0].kind {
                return in_elems / 768;
            }
        }
        1
    }

    /// DLRM-style recommendation model: bottom MLP, 26 embedding tables,
    /// feature interaction, top MLP.
    pub fn dlrm(batch: u64) -> Model {
        let tables = 26u64;
        let dim = 64u64;
        let rows = 1 << 20; // 1 Mi rows per table (256 MiB at f32×64)
        let mut ops = Vec::new();
        ops.push(Op::new("bot1", OpKind::Dense { c_in: 13, c_out: 512 }));
        ops.push(Op::new("bot2", OpKind::Dense { c_in: 512, c_out: 256 }));
        ops.push(Op::new("bot3", OpKind::Dense { c_in: 256, c_out: dim }));
        ops.push(Op::with_input(
            "embeddings",
            OpKind::Embedding { tables, rows_per_table: rows, dim, lookups: 1 },
            InputRef::External,
        ));
        let interact_in = dim * (tables + 1);
        let pairs = (tables + 1) * tables / 2;
        ops.push(Op::new(
            "interact",
            OpKind::Stream { in_elems: interact_in, out_elems: pairs + dim },
        ));
        let top_in = pairs + dim;
        ops.push(Op::new("top1", OpKind::Dense { c_in: top_in, c_out: 512 }));
        ops.push(Op::new("top2", OpKind::Dense { c_in: 512, c_out: 256 }));
        ops.push(Op::new("top3", OpKind::Dense { c_in: 256, c_out: 1 }));
        Model { name: "DLRM", ops, batch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_parameter_count() {
        // ~61 M parameters (we model weights only, no biases): 60.9 M.
        let m = Model::alexnet(1);
        let p = m.weight_elems();
        assert!((58_000_000..63_000_000).contains(&p), "AlexNet params {p}");
    }

    #[test]
    fn vgg16_parameter_count() {
        // 138 M with biases; 138.3 M weights-only.
        let p = Model::vgg16(1).weight_elems();
        assert!((134_000_000..140_000_000).contains(&p), "VGG params {p}");
    }

    #[test]
    fn resnet50_parameters_and_macs() {
        let m = Model::resnet50(1);
        let p = m.weight_elems();
        // 25.5 M params; conv weights only ≈ 23.5 M.
        assert!((21_000_000..27_000_000).contains(&p), "ResNet params {p}");
        let macs = m.macs_per_sample();
        // ≈ 4.1 G MACs.
        assert!((3_500_000_000..4_500_000_000).contains(&macs), "ResNet MACs {macs}");
    }

    #[test]
    fn googlenet_parameter_count() {
        // ~7 M (6.9 M) parameters.
        let p = Model::googlenet(1).weight_elems();
        assert!((5_500_000..8_000_000).contains(&p), "GoogLeNet params {p}");
    }

    #[test]
    fn bert_base_parameter_count() {
        // Encoder-only weights: 12 × (4×768² + 2×768×3072) ≈ 85 M.
        let p = Model::bert_base(1, 128).weight_elems();
        assert!((80_000_000..90_000_000).contains(&p), "BERT params {p}");
    }

    #[test]
    fn vgg_conv_shapes_chain() {
        let m = Model::vgg16(1);
        // The conv chain must agree on spatial sizes: conv5_3 is 14×14×512.
        let last_conv = m
            .ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Conv(c) => Some(c),
                _ => None,
            })
            .next_back()
            .unwrap();
        assert_eq!((last_conv.h, last_conv.w, last_conv.k), (14, 14, 512));
    }

    #[test]
    fn resnet_input_refs_are_backward_only() {
        let m = Model::resnet50(4);
        for (i, op) in m.ops.iter().enumerate() {
            let check = |r: InputRef| {
                if let InputRef::Op(j) = r {
                    assert!(j < i, "op {i} ({}) references future op {j}", op.name)
                }
            };
            check(op.input);
            if let OpKind::Add { extra, .. } = op.kind {
                check(extra);
            }
        }
    }

    #[test]
    fn dlrm_has_embeddings_others_do_not() {
        assert!(Model::dlrm(32).has_embeddings());
        assert!(!Model::resnet50(1).has_embeddings());
        assert!(!Model::bert_base(1, 128).has_embeddings());
    }

    #[test]
    fn bert_tokens_per_sample_is_seq() {
        assert_eq!(Model::bert_base(2, 128).tokens_per_sample(), 128);
        assert_eq!(Model::resnet50(2).tokens_per_sample(), 1);
    }
}
