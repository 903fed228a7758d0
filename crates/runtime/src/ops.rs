//! The executable operator set of a lowered network.
//!
//! A lowered graph is a straight-line sequence of [`Op`]s (residual
//! blocks nest two sub-sequences). Every op is immutable and `Sync`, so
//! one compiled graph serves arbitrarily many concurrent inference
//! requests — unlike the trainable `pcnn_nn::Model`, whose forward pass
//! requires `&mut self` for gradient caches. The one sequence serves
//! both precisions: a pattern convolution runs the weight copy the
//! call's [`Precision`] names, every other op runs in f32.

use crate::pattern_conv::PatternConv;
use crate::profile::LayerStats;
use crate::quant_conv::Precision;
use pcnn_tensor::conv::{conv2d_forward, Conv2dShape};
use pcnn_tensor::{ops as tops, pool, Tensor};
use std::time::Instant;

/// One executable operator.
#[derive(Debug, Clone)]
pub enum Op {
    /// Dense im2col convolution (optionally with folded BN bias and
    /// fused ReLU).
    DenseConv {
        /// OIHW weights (already BN-scaled when folded).
        weight: Tensor,
        /// Per-output-channel bias.
        bias: Option<Tensor>,
        /// Convolution geometry.
        shape: Conv2dShape,
        /// Fused ReLU epilogue.
        relu: bool,
    },
    /// Pattern-sparse convolution through the compiled kernel registry,
    /// at either precision.
    PatternConv(PatternConv),
    /// Per-channel affine `y = scale·x + shift` (unfused eval-mode BN).
    Affine {
        /// Per-channel scale.
        scale: Vec<f32>,
        /// Per-channel shift.
        shift: Vec<f32>,
    },
    /// Standalone ReLU.
    Relu,
    /// Non-overlapping max pooling.
    MaxPool {
        /// Window side = stride.
        window: usize,
    },
    /// Global average pooling (NCHW → NC11).
    GlobalAvgPool,
    /// NCHW → `N × (C·H·W)`.
    Flatten,
    /// Fully-connected layer.
    Linear {
        /// `out × in` weights.
        weight: Tensor,
        /// `out` bias.
        bias: Tensor,
    },
    /// Residual block: `relu(main(x) + shortcut(x))`; an empty shortcut
    /// is the identity.
    Residual {
        /// The conv1→bn1→relu→conv2→bn2 path, lowered.
        main: Vec<Op>,
        /// The optional 1×1 downsample path, lowered.
        shortcut: Vec<Op>,
    },
}

/// How an op walk executes its pattern convolutions: at a precision
/// ([`run_ops`]) or on the int8 oracle
/// ([`crate::ExecutableGraph::run_int8_reference`]).
type ConvFn<'a> = &'a dyn Fn(&PatternConv, &Tensor) -> Tensor;

impl Op {
    /// Executes the op on an input activation at f32.
    pub fn run(&self, x: &Tensor) -> Tensor {
        self.run_at(x, Precision::F32)
    }

    /// Executes the op at `precision`: pattern convolutions run that
    /// weight copy, every other op runs in f32.
    ///
    /// # Panics
    ///
    /// Panics for `Int8` on a pattern convolution without int8 weights.
    pub fn run_at(&self, x: &Tensor, precision: Precision) -> Tensor {
        self.run_by(x, &|conv, x| conv.forward_with(x, precision))
    }

    fn run_by(&self, x: &Tensor, conv: ConvFn<'_>) -> Tensor {
        match self {
            Op::DenseConv {
                weight,
                bias,
                shape,
                relu,
            } => {
                let mut y = conv2d_forward(x, weight, bias.as_ref(), shape);
                if *relu {
                    for v in y.as_mut_slice() {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                }
                y
            }
            Op::PatternConv(c) => conv(c, x),
            Op::Affine { scale, shift } => {
                let dims = x.shape();
                assert_eq!(dims.len(), 4, "affine expects NCHW");
                let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
                assert_eq!(c, scale.len(), "affine channel mismatch");
                let plane = h * w;
                let mut y = x.clone();
                for ni in 0..n {
                    for ci in 0..c {
                        let off = (ni * c + ci) * plane;
                        let (s, t) = (scale[ci], shift[ci]);
                        for v in y.as_mut_slice()[off..off + plane].iter_mut() {
                            *v = s * *v + t;
                        }
                    }
                }
                y
            }
            Op::Relu => tops::relu_forward(x),
            Op::MaxPool { window } => pool::maxpool2d_infer(x, *window),
            Op::GlobalAvgPool => pool::global_avgpool_forward(x),
            Op::Flatten => {
                let n = x.shape()[0];
                let rest: usize = x.shape()[1..].iter().product();
                x.reshaped(&[n, rest])
            }
            Op::Linear { weight, bias } => tops::linear_forward(x, weight, Some(bias)),
            Op::Residual { main, shortcut } => {
                let mut m = run_seq(main, x, conv);
                let s = if shortcut.is_empty() {
                    x.clone()
                } else {
                    run_seq(shortcut, x, conv)
                };
                m.axpy(1.0, &s);
                m.map_inplace(|v| v.max(0.0));
                m
            }
        }
    }

    /// A one-line description for graph summaries: pattern convolutions
    /// report their int8 weight scale and skip count when they carry
    /// int8 weights.
    pub fn describe(&self) -> String {
        match self {
            Op::DenseConv { shape, relu, .. } => format!(
                "DenseConv {}x{}x{}x{} s{} p{}{}",
                shape.out_c,
                shape.in_c,
                shape.kernel,
                shape.kernel,
                shape.stride,
                shape.pad,
                if *relu { " +relu" } else { "" }
            ),
            Op::PatternConv(c) => {
                let s = c.shape();
                let skip = |p| match c.skipped_kernels_at(p) {
                    0 => String::new(),
                    k => format!(" (skip {k})"),
                };
                let int8 = c.weight_params().map_or(String::new(), |wp| {
                    format!(" | int8 s_w={:.2e}{}", wp.scale, skip(Precision::Int8))
                });
                format!(
                    "PatternConv {}x{}x{}x{} n={} |P|={}{}{}{int8}",
                    s.out_c,
                    s.in_c,
                    s.kernel,
                    s.kernel,
                    c.spm().nonzeros_per_kernel(),
                    c.spm().pattern_set().len(),
                    if c.has_relu() { " +relu" } else { "" },
                    skip(Precision::F32),
                )
            }
            Op::Affine { scale, .. } => format!("Affine c={}", scale.len()),
            Op::Relu => "ReLU".to_string(),
            Op::MaxPool { window } => format!("MaxPool {window}x{window}"),
            Op::GlobalAvgPool => "GlobalAvgPool".to_string(),
            Op::Flatten => "Flatten".to_string(),
            Op::Linear { weight, .. } => {
                format!("Linear {}->{}", weight.shape()[1], weight.shape()[0])
            }
            Op::Residual { main, shortcut } => format!(
                "Residual [{} main ops, {} shortcut ops]",
                main.len(),
                shortcut.len()
            ),
        }
    }
}

/// Runs a sequence of ops at `precision`. The input is only cloned when
/// `ops` is empty; otherwise the first op reads `x` directly (keeps a
/// per-request full-tensor copy off the serving hot path).
///
/// # Panics
///
/// As [`Op::run_at`].
pub fn run_ops(ops: &[Op], x: &Tensor, precision: Precision) -> Tensor {
    run_seq(ops, x, &|conv, x| conv.forward_with(x, precision))
}

/// The one op walk under [`run_ops`] and the int8 oracle, so the two
/// can never drift.
pub(crate) fn run_seq(ops: &[Op], x: &Tensor, conv: ConvFn<'_>) -> Tensor {
    match ops.split_first() {
        None => x.clone(),
        Some((first, rest)) => rest
            .iter()
            .fold(first.run_by(x, conv), |cur, op| op.run_by(&cur, conv)),
    }
}

/// [`run_ops`] with per-layer instrumentation: each op's wall time is
/// recorded into its [`LayerStats`] slot, with pattern convolutions
/// additionally splitting pad/kernel phases.
///
/// `idx` threads the flat slot cursor through residual recursion; the
/// slot order is `crate::profile::ExecProfiler::for_graph`'s flatten
/// order (main ops, shortcut ops, then one combine slot per residual
/// block) and the two must never drift.
pub fn run_ops_profiled(
    ops: &[Op],
    x: &Tensor,
    precision: Precision,
    stats: &[LayerStats],
    idx: &mut usize,
) -> Tensor {
    let mut cur: Option<Tensor> = None;
    for op in ops {
        let x = cur.as_ref().unwrap_or(x);
        let images = x.shape().first().copied().unwrap_or(1) as u64;
        let y = match op {
            Op::Residual { main, shortcut } => {
                let mut m = run_ops_profiled(main, x, precision, stats, idx);
                let s = if shortcut.is_empty() {
                    x.clone()
                } else {
                    run_ops_profiled(shortcut, x, precision, stats, idx)
                };
                // The combine's slot follows the block's inner ones.
                let t0 = Instant::now();
                m.axpy(1.0, &s);
                m.map_inplace(|v| v.max(0.0));
                stats[*idx].record_pass(images, t0.elapsed().as_nanos() as u64);
                m
            }
            Op::PatternConv(conv) => {
                conv.forward_tensor(x, precision, Some((&stats[*idx], Instant::now())))
            }
            other => {
                let t0 = Instant::now();
                let y = other.run(x);
                stats[*idx].record_pass(images, t0.elapsed().as_nanos() as u64);
                y
            }
        };
        *idx += 1;
        cur = Some(y);
    }
    cur.unwrap_or_else(|| x.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_matches_manual() {
        let x = Tensor::ones(&[1, 2, 2, 2]);
        let op = Op::Affine {
            scale: vec![2.0, -1.0],
            shift: vec![0.5, 1.0],
        };
        let y = op.run(&x);
        assert_eq!(&y.as_slice()[..4], &[2.5; 4]);
        assert_eq!(&y.as_slice()[4..], &[0.0; 4]);
    }

    #[test]
    fn relu_and_flatten() {
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[1, 1, 2, 2]);
        let y = Op::Relu.run(&x);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let f = Op::Flatten.run(&x);
        assert_eq!(f.shape(), &[1, 4]);
    }

    #[test]
    fn residual_identity_relu_of_doubled() {
        // main = empty shortcut + empty main: relu(x + x) with main = [].
        let x = Tensor::from_vec(vec![-2.0, 1.0], &[1, 1, 1, 2]);
        let op = Op::Residual {
            main: vec![],
            shortcut: vec![],
        };
        let y = op.run(&x);
        assert_eq!(y.as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn dense_conv_fused_relu_clamps() {
        let shape = Conv2dShape::new(1, 1, 1, 1, 0);
        let w = Tensor::from_vec(vec![-1.0], &[1, 1, 1, 1]);
        let op = Op::DenseConv {
            weight: w,
            bias: None,
            shape,
            relu: true,
        };
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = op.run(&x);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }
}
