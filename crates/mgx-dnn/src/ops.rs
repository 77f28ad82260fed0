//! Operator definitions and shape math.

use mgx_scalesim::Gemm;

/// A convolution layer's static shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Input channels.
    pub c_in: u64,
    /// Input height.
    pub h: u64,
    /// Input width.
    pub w: u64,
    /// Output channels (filter count).
    pub k: u64,
    /// Filter height.
    pub r: u64,
    /// Filter width.
    pub s: u64,
    /// Stride (same in both dimensions).
    pub stride: u64,
    /// Zero padding (same on all sides).
    pub pad: u64,
}

impl ConvSpec {
    /// Output height.
    pub fn out_h(&self) -> u64 {
        (self.h + 2 * self.pad - self.r) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> u64 {
        (self.w + 2 * self.pad - self.s) / self.stride + 1
    }

    /// Output elements per sample.
    pub fn out_elems(&self) -> u64 {
        self.k * self.out_h() * self.out_w()
    }

    /// Input elements per sample.
    pub fn in_elems(&self) -> u64 {
        self.c_in * self.h * self.w
    }

    /// Weight elements.
    pub fn weight_elems(&self) -> u64 {
        self.k * self.c_in * self.r * self.s
    }

    /// The im2col GEMM for a batch.
    pub fn to_gemm(&self, batch: u64) -> Gemm {
        Gemm { m: batch * self.out_h() * self.out_w(), k: self.c_in * self.r * self.s, n: self.k }
    }
}

/// Which earlier tensor feeds an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputRef {
    /// The previous op's output (the common chain case).
    Prev,
    /// The output of op `i` (skip connections, inception branches).
    Op(usize),
    /// The model's external input.
    External,
}

/// The operator kinds the trace builder understands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// Convolution (lowered to GEMM).
    Conv(ConvSpec),
    /// Fully connected layer: `c_in → c_out` per sample.
    Dense {
        /// Input features.
        c_in: u64,
        /// Output features.
        c_out: u64,
    },
    /// Batched activation×activation matmul (attention): `b` independent
    /// `m×k · k×n` products per sample. Neither operand is a weight.
    BatchedMatmul {
        /// Matrices per sample (e.g. attention heads).
        b: u64,
        /// Rows per matrix.
        m: u64,
        /// Reduction dim.
        k: u64,
        /// Columns per matrix.
        n: u64,
    },
    /// Memory-streaming op (pooling, softmax, layer-norm, interaction…):
    /// reads `in_elems`, writes `out_elems` per sample, negligible compute.
    Stream {
        /// Elements read per sample.
        in_elems: u64,
        /// Elements written per sample.
        out_elems: u64,
    },
    /// Element-wise residual add: reads the chain input *and* one extra
    /// tensor, writes `elems` per sample.
    Add {
        /// Elements per input tensor per sample.
        elems: u64,
        /// The second operand.
        extra: InputRef,
    },
    /// DLRM-style embedding gather: `lookups` random rows of `dim` floats
    /// from each of `tables` tables per sample.
    Embedding {
        /// Number of embedding tables.
        tables: u64,
        /// Rows per table.
        rows_per_table: u64,
        /// Embedding dimension (f32 elements per row).
        dim: u64,
        /// Lookups per table per sample.
        lookups: u64,
    },
}

/// One node of the operator graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Diagnostic name (`"conv3_2"`, `"fc6"`, …).
    pub name: String,
    /// The operator.
    pub kind: OpKind,
    /// Where its input comes from.
    pub input: InputRef,
}

impl Op {
    /// Chain-input constructor.
    pub fn new(name: impl Into<String>, kind: OpKind) -> Self {
        Self { name: name.into(), kind, input: InputRef::Prev }
    }

    /// Constructor with an explicit input.
    pub fn with_input(name: impl Into<String>, kind: OpKind, input: InputRef) -> Self {
        Self { name: name.into(), kind, input }
    }

    /// Output elements per sample.
    pub fn out_elems(&self) -> u64 {
        match self.kind {
            OpKind::Conv(c) => c.out_elems(),
            OpKind::Dense { c_out, .. } => c_out,
            OpKind::BatchedMatmul { b, m, n, .. } => b * m * n,
            OpKind::Stream { out_elems, .. } => out_elems,
            OpKind::Add { elems, .. } => elems,
            OpKind::Embedding { tables, dim, lookups, .. } => tables * dim * lookups,
        }
    }

    /// Weight elements (zero for weight-less ops).
    pub fn weight_elems(&self) -> u64 {
        match self.kind {
            OpKind::Conv(c) => c.weight_elems(),
            OpKind::Dense { c_in, c_out } => c_in * c_out,
            _ => 0,
        }
    }

    /// Multiply–accumulates per sample.
    pub fn macs(&self) -> u64 {
        match self.kind {
            OpKind::Conv(c) => c.to_gemm(1).macs(),
            OpKind::Dense { c_in, c_out } => c_in * c_out,
            OpKind::BatchedMatmul { b, m, k, n } => b * m * k * n,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_shape() {
        // AlexNet conv1: 227×227×3, 96 11×11 filters, stride 4, no pad.
        let c = ConvSpec { c_in: 3, h: 227, w: 227, k: 96, r: 11, s: 11, stride: 4, pad: 0 };
        assert_eq!(c.out_h(), 55);
        assert_eq!(c.out_w(), 55);
        assert_eq!(c.out_elems(), 96 * 55 * 55);
        let g = c.to_gemm(2);
        assert_eq!(g, Gemm { m: 2 * 55 * 55, k: 3 * 121, n: 96 });
    }

    #[test]
    fn same_padding_conv_preserves_size() {
        let c = ConvSpec { c_in: 64, h: 56, w: 56, k: 64, r: 3, s: 3, stride: 1, pad: 1 };
        assert_eq!((c.out_h(), c.out_w()), (56, 56));
        assert_eq!(c.weight_elems(), 64 * 64 * 9);
    }

    #[test]
    fn op_accounting() {
        let d = Op::new("fc", OpKind::Dense { c_in: 4096, c_out: 1000 });
        assert_eq!(d.out_elems(), 1000);
        assert_eq!(d.weight_elems(), 4096 * 1000);
        assert_eq!(d.macs(), 4096 * 1000);
        let s = Op::new("pool", OpKind::Stream { in_elems: 100, out_elems: 25 });
        assert_eq!(s.weight_elems(), 0);
        assert_eq!(s.macs(), 0);
        let e = Op::new(
            "emb",
            OpKind::Embedding { tables: 26, rows_per_table: 1 << 20, dim: 64, lookups: 1 },
        );
        assert_eq!(e.out_elems(), 26 * 64);
    }
}
