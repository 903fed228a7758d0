//! The executable operator set of a lowered network.
//!
//! A lowered graph is a straight-line sequence of [`Op`]s (residual
//! blocks nest two sub-sequences). Every op is immutable and `Sync`, so
//! one compiled graph serves arbitrarily many concurrent inference
//! requests — unlike the trainable `pcnn_nn::Model`, whose forward pass
//! requires `&mut self` for gradient caches.

use crate::pattern_conv::PatternConv;
use crate::profile::LayerStats;
use crate::quant_conv::QuantPatternConv;
use pcnn_tensor::conv::{conv2d_forward, Conv2dShape};
use pcnn_tensor::{ops as tops, pool, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// One executable operator.
#[derive(Debug, Clone)]
pub enum Op {
    /// Dense im2col convolution (optionally with folded BN bias and
    /// fused ReLU).
    DenseConv {
        /// OIHW weights (already BN-scaled when folded). Behind an
        /// `Arc`: dense fallback layers carry over unchanged into the
        /// int8 lowering, so both op sequences of a dual-precision
        /// graph share one copy of these tensors.
        weight: Arc<Tensor>,
        /// Per-output-channel bias (shared like the weights).
        bias: Option<Arc<Tensor>>,
        /// Convolution geometry.
        shape: Conv2dShape,
        /// Fused ReLU epilogue.
        relu: bool,
    },
    /// Pattern-sparse convolution through the compiled kernel registry.
    PatternConv(PatternConv),
    /// Quantised pattern-sparse convolution: i8 weights × i8
    /// activations, i32 accumulation, requantised in the epilogue.
    QuantConv(QuantPatternConv),
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
        /// `out × in` weights (shared across lowerings like
        /// `DenseConv`'s).
        weight: Arc<Tensor>,
        /// `out` bias.
        bias: Arc<Tensor>,
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

impl Op {
    /// Executes the op on an input activation.
    pub fn run(&self, x: &Tensor) -> Tensor {
        match self {
            Op::DenseConv {
                weight,
                bias,
                shape,
                relu,
            } => {
                let mut y = conv2d_forward(x, weight, bias.as_deref(), shape);
                if *relu {
                    for v in y.as_mut_slice() {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                }
                y
            }
            Op::PatternConv(conv) => conv.forward(x),
            Op::QuantConv(conv) => conv.forward(x),
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
            Op::Residual { main, shortcut } => run_residual(main, shortcut, x, run_ops),
        }
    }

    /// Executes the op on the *reference* datapath: quantised
    /// convolutions run their dequantise-then-f32 reference
    /// ([`QuantPatternConv::forward_reference`]) instead of the integer
    /// kernels; every other op runs normally. The integer path must
    /// match this within float rounding — the parity suite's oracle.
    pub fn run_reference(&self, x: &Tensor) -> Tensor {
        match self {
            Op::QuantConv(conv) => conv.forward_reference(x),
            Op::Residual { main, shortcut } => run_residual(main, shortcut, x, run_ops_reference),
            other => other.run(x),
        }
    }

    /// A one-line description for graph summaries.
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
                format!(
                    "PatternConv {}x{}x{}x{} n={} |P|={}{}{}",
                    s.out_c,
                    s.in_c,
                    s.kernel,
                    s.kernel,
                    c.spm().nonzeros_per_kernel(),
                    c.spm().pattern_set().len(),
                    if c.has_relu() { " +relu" } else { "" },
                    if c.skipped_kernels() > 0 {
                        format!(" (skip {})", c.skipped_kernels())
                    } else {
                        String::new()
                    }
                )
            }
            Op::QuantConv(c) => {
                let s = c.shape();
                format!(
                    "QuantConv int8 {}x{}x{}x{} n={} |P|={} s_w={:.2e}{}{}",
                    s.out_c,
                    s.in_c,
                    s.kernel,
                    s.kernel,
                    c.nonzeros_per_kernel(),
                    c.pattern_count(),
                    c.weight_params().scale,
                    if c.has_relu() { " +relu" } else { "" },
                    if c.skipped_kernels() > 0 {
                        format!(" (skip {})", c.skipped_kernels())
                    } else {
                        String::new()
                    }
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

/// The residual combinator shared by both datapaths:
/// `relu(main(x) + shortcut(x))`, with an empty shortcut meaning
/// identity. `run_seq` is [`run_ops`] on the executing path and
/// [`run_ops_reference`] on the parity oracle — one implementation, so
/// the two can never drift.
fn run_residual(
    main: &[Op],
    shortcut: &[Op],
    x: &Tensor,
    run_seq: impl Fn(&[Op], &Tensor) -> Tensor,
) -> Tensor {
    let mut m = run_seq(main, x);
    let s = if shortcut.is_empty() {
        x.clone()
    } else {
        run_seq(shortcut, x)
    };
    m.axpy(1.0, &s);
    m.map_inplace(|v| v.max(0.0));
    m
}

/// Runs a sequence of ops. The input is only cloned when `ops` is
/// empty; otherwise the first op reads `x` directly (keeps a
/// per-request full-tensor copy off the serving hot path).
pub fn run_ops(ops: &[Op], x: &Tensor) -> Tensor {
    match ops.split_first() {
        None => x.clone(),
        Some((first, rest)) => {
            let mut cur = first.run(x);
            for op in rest {
                cur = op.run(&cur);
            }
            cur
        }
    }
}

/// [`run_ops`] with per-layer instrumentation: each op's wall time is
/// recorded into its [`LayerStats`] slot, with pattern/quant
/// convolutions additionally splitting pad/kernel/epilogue phases.
///
/// `idx` threads the flat slot cursor through residual recursion; the
/// slot order is `crate::profile::ExecProfiler::for_graph`'s flatten
/// order (main ops, shortcut ops, then one combine slot per residual
/// block) and the two must never drift.
pub fn run_ops_profiled(ops: &[Op], x: &Tensor, stats: &[LayerStats], idx: &mut usize) -> Tensor {
    match ops.split_first() {
        None => x.clone(),
        Some((first, rest)) => {
            let mut cur = run_op_profiled(first, x, stats, idx);
            for op in rest {
                cur = run_op_profiled(op, &cur, stats, idx);
            }
            cur
        }
    }
}

fn run_op_profiled(op: &Op, x: &Tensor, stats: &[LayerStats], idx: &mut usize) -> Tensor {
    let images = x.shape().first().copied().unwrap_or(1) as u64;
    match op {
        Op::Residual { main, shortcut } => {
            let mut m = run_ops_profiled(main, x, stats, idx);
            let s = if shortcut.is_empty() {
                x.clone()
            } else {
                run_ops_profiled(shortcut, x, stats, idx)
            };
            let slot = &stats[*idx];
            *idx += 1;
            let t0 = Instant::now();
            m.axpy(1.0, &s);
            m.map_inplace(|v| v.max(0.0));
            slot.record_pass(images, t0.elapsed().as_nanos() as u64);
            m
        }
        Op::PatternConv(conv) => {
            let slot = &stats[*idx];
            *idx += 1;
            conv.forward_profiled(x, slot)
        }
        Op::QuantConv(conv) => {
            let slot = &stats[*idx];
            *idx += 1;
            conv.forward_profiled(x, slot)
        }
        other => {
            let slot = &stats[*idx];
            *idx += 1;
            let t0 = Instant::now();
            let y = other.run(x);
            slot.record_pass(images, t0.elapsed().as_nanos() as u64);
            y
        }
    }
}

/// [`run_ops`] on the reference datapath (see [`Op::run_reference`]).
pub fn run_ops_reference(ops: &[Op], x: &Tensor) -> Tensor {
    match ops.split_first() {
        None => x.clone(),
        Some((first, rest)) => {
            let mut cur = first.run_reference(x);
            for op in rest {
                cur = op.run_reference(&cur);
            }
            cur
        }
    }
}

/// Maps an f32 op sequence to its int8 lowering: pattern-sparse
/// convolutions quantise ([`QuantPatternConv::from_pattern_conv`],
/// reusing their compiled codes and registries), residual blocks map
/// recursively, and every other op — dense 1×1 convolutions, pooling,
/// linear heads — carries over on the f32 path (their weights are a
/// sliver of the network next to the SPM layers, which is exactly why
/// the paper quantises the SPM sequences).
pub fn quantize_ops(ops: &[Op], opts: &crate::quant_conv::QuantOptions) -> Vec<Op> {
    ops.iter()
        .map(|op| match op {
            Op::PatternConv(pc) => Op::QuantConv(QuantPatternConv::from_pattern_conv(pc, opts)),
            Op::Residual { main, shortcut } => Op::Residual {
                main: quantize_ops(main, opts),
                shortcut: quantize_ops(shortcut, opts),
            },
            other => other.clone(),
        })
        .collect()
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
            weight: Arc::new(w),
            bias: None,
            shape,
            relu: true,
        };
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = op.run(&x);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }
}
