//! The layer compiler: lowering a (pruned) `pcnn_nn::Model` into an
//! executable graph.
//!
//! Lowering walks the model's layers and peephole-fuses the standard
//! conv→BN→ReLU triple into a single convolution op:
//!
//! * eval-mode batch norm is an affine `y = s·x + t` per channel, so the
//!   scale `s` folds into the convolution weights (and the SPM non-zero
//!   sequences) and the shift `t` becomes the conv bias;
//! * the ReLU becomes the convolution's epilogue.
//!
//! Every *prunable* convolution (3×3, in `Model::prunable_convs` order)
//! is paired with its distilled [`PatternSet`] and lowered to a
//! [`PatternConv`] through the kernel registry; non-prunable 1×1
//! convolutions and encode fallbacks lower to dense im2col ops. Kernels
//! zeroed by an orthogonal coarse-grained pass (see `pcnn_core::fuse`)
//! are skipped by the sparse executor, so fused coarse+pattern pruning
//! compounds at runtime exactly as it does in the paper's storage
//! accounting.

use crate::graph::ExecutableGraph;
use crate::ops::Op;
use crate::pattern_conv::PatternConv;
use crate::quant_conv::QuantOptions;
use pcnn_core::pattern::PatternSet;
use pcnn_core::plan::PrunePlan;
use pcnn_core::pruner;
use pcnn_core::spm::{EncodeSpmError, SpmLayer};
use pcnn_nn::layers::{BatchNorm2d, Conv2d};
use pcnn_nn::model::{Layer, Model};
use pcnn_tensor::Tensor;
use std::error::Error;
use std::fmt;

/// Lowering failures.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The pattern-set list does not match the model's prunable layers.
    PlanMismatch {
        /// Prunable convolutions in the model.
        expected: usize,
        /// Pattern sets supplied.
        got: usize,
    },
    /// Strict mode: a layer's weights fit no pattern of its set.
    Encode {
        /// The offending layer's name.
        layer: String,
        /// The underlying SPM encode error.
        error: EncodeSpmError,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::PlanMismatch { expected, got } => write!(
                f,
                "pattern-set list covers {got} layers but the model has {expected} prunable convolutions"
            ),
            CompileError::Encode { layer, error } => {
                write!(f, "layer {layer} cannot be SPM-encoded: {error}")
            }
        }
    }
}

impl Error for CompileError {}

/// Compiler options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Fold eval-mode batch norm into the preceding convolution.
    pub fuse_batchnorm: bool,
    /// Fuse a following ReLU into the convolution epilogue.
    pub fuse_relu: bool,
    /// Lower every convolution densely (the reference path used by the
    /// parity tests and speedup baselines).
    pub force_dense: bool,
    /// Fail compilation when a prunable layer cannot be SPM-encoded
    /// instead of falling back to a dense op.
    pub strict: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            fuse_batchnorm: true,
            fuse_relu: true,
            force_dense: false,
            strict: false,
        }
    }
}

impl CompileOptions {
    /// Options lowering everything to the dense reference path.
    pub fn dense_reference() -> Self {
        CompileOptions {
            force_dense: true,
            ..Default::default()
        }
    }
}

/// What the compiler did, plus SPM storage accounting over the sparse
/// layers (the runtime-side view of the paper's compression tables).
#[derive(Debug, Clone, Default)]
pub struct CompileReport {
    /// Layers lowered to pattern-sparse execution.
    pub sparse_layers: usize,
    /// Layers lowered densely (1×1, unpruned, or forced).
    pub dense_layers: usize,
    /// Prunable layers that fell back to dense because encoding failed.
    pub dense_fallbacks: usize,
    /// Kernels skipped as all-zero (orthogonal coarse pruning).
    pub skipped_kernels: usize,
    /// Total kernels across sparse layers.
    pub total_kernels: usize,
    /// Bits of packed non-zero weights (fp32) across sparse layers.
    pub spm_weight_bits: u64,
    /// Bits of per-kernel SPM codes across sparse layers.
    pub spm_index_bits: u64,
    /// Bits of pattern mapping tables across sparse layers.
    pub spm_table_bits: u64,
    /// Bits the same layers would cost dense (fp32).
    pub dense_bits: u64,
}

impl CompileReport {
    /// Weight compression of the sparse layers including index and
    /// table overhead (the paper's "with index" number, at fp32).
    pub fn compression(&self) -> f64 {
        let sparse = self.spm_weight_bits + self.spm_index_bits + self.spm_table_bits;
        if sparse == 0 {
            1.0
        } else {
            self.dense_bits as f64 / sparse as f64
        }
    }
}

/// Compiles a model whose prunable convolutions follow `sets` (one
/// [`PatternSet`] per prunable layer, in network order — the `sets`
/// field of [`pcnn_core::pruner::PruneOutcome`]).
///
/// # Errors
///
/// [`CompileError::PlanMismatch`] when `sets` does not cover the model's
/// prunable convolutions; [`CompileError::Encode`] in strict mode when a
/// layer's weights fit no pattern.
pub fn compile(
    model: &Model,
    sets: &[PatternSet],
    opts: &CompileOptions,
) -> Result<(ExecutableGraph, CompileReport), CompileError> {
    let prunable = model.prunable_convs().len();
    if sets.len() != prunable {
        return Err(CompileError::PlanMismatch {
            expected: prunable,
            got: sets.len(),
        });
    }
    let mut report = CompileReport::default();
    let mut next_set = 0usize;
    let ops = lower_layers(model.layers(), sets, &mut next_set, opts, &mut report)?;
    debug_assert_eq!(next_set, sets.len(), "every set consumed");
    Ok((ExecutableGraph::new(ops), report))
}

/// Compiles a model entirely onto the dense reference path (no pattern
/// sets required) — the baseline the benches and parity tests compare
/// against.
pub fn compile_dense(model: &Model) -> ExecutableGraph {
    let mut report = CompileReport::default();
    let mut next_set = 0usize;
    let opts = CompileOptions::dense_reference();
    let sets: Vec<PatternSet> = Vec::new();
    let ops = lower_layers_dense(model.layers(), &sets, &mut next_set, &opts, &mut report);
    ExecutableGraph::new(ops)
}

/// Hard-prunes `model` under `plan` (distillation + projection + masks,
/// via [`pcnn_core::pruner::prune_model`]) and compiles the result in
/// one step. Returns the graph, the compile report, and the prune
/// outcome for inspection.
///
/// # Errors
///
/// Propagates [`compile`] errors.
pub fn prune_and_compile(
    model: &mut Model,
    plan: &PrunePlan,
    opts: &CompileOptions,
) -> Result<(ExecutableGraph, CompileReport, pruner::PruneOutcome), CompileError> {
    let outcome = pruner::prune_model(model, plan);
    let (graph, report) = compile(model, &outcome.sets, opts)?;
    Ok((graph, report, outcome))
}

/// [`compile`] plus the int8 weights: the f32 graph compiles as usual,
/// then every pattern convolution gains an int8 copy of its non-zero
/// weights, quantised per layer through `pcnn_core::quant`
/// ([`ExecutableGraph::with_int8`]). The returned graph runs at
/// **either** [`crate::Precision`] — one compiled op list, two weight
/// widths.
///
/// # Errors
///
/// Propagates [`compile`] errors.
pub fn compile_quant(
    model: &Model,
    sets: &[PatternSet],
    opts: &CompileOptions,
    qopts: &QuantOptions,
) -> Result<(ExecutableGraph, CompileReport), CompileError> {
    let (graph, report) = compile(model, sets, opts)?;
    Ok((graph.with_int8(qopts), report))
}

/// [`prune_and_compile`] with the int8 weights compiled — the one-call
/// path from a trainable model to a dual-precision engine.
///
/// # Errors
///
/// Propagates [`compile`] errors.
pub fn prune_and_compile_quant(
    model: &mut Model,
    plan: &PrunePlan,
    opts: &CompileOptions,
    qopts: &QuantOptions,
) -> Result<(ExecutableGraph, CompileReport, pruner::PruneOutcome), CompileError> {
    let outcome = pruner::prune_model(model, plan);
    let (graph, report) = compile_quant(model, &outcome.sets, opts, qopts)?;
    Ok((graph, report, outcome))
}

fn lower_layers(
    layers: &[Layer],
    sets: &[PatternSet],
    next_set: &mut usize,
    opts: &CompileOptions,
    report: &mut CompileReport,
) -> Result<Vec<Op>, CompileError> {
    let mut ops = Vec::new();
    let mut i = 0;
    while i < layers.len() {
        match &layers[i] {
            Layer::Conv2d(conv) => {
                // Peephole: conv [+ BN] [+ ReLU].
                let bn = match layers.get(i + 1) {
                    Some(Layer::BatchNorm2d(b)) => Some(b),
                    _ => None,
                };
                let relu_at = i + 1 + usize::from(bn.is_some());
                let relu = matches!(layers.get(relu_at), Some(Layer::Relu(_)));
                let set = take_set_for(conv, sets, next_set);
                ops.extend(lower_conv(conv, set, bn, relu, opts, report)?);
                i = relu_at + usize::from(relu);
            }
            Layer::BatchNorm2d(bn) => {
                let (scale, shift) = bn.eval_scale_shift();
                ops.push(Op::Affine { scale, shift });
                i += 1;
            }
            Layer::Relu(_) => {
                ops.push(Op::Relu);
                i += 1;
            }
            Layer::MaxPool2d(p) => {
                ops.push(Op::MaxPool { window: p.window() });
                i += 1;
            }
            Layer::GlobalAvgPool(_) => {
                ops.push(Op::GlobalAvgPool);
                i += 1;
            }
            Layer::Flatten(_) => {
                ops.push(Op::Flatten);
                i += 1;
            }
            Layer::Linear(l) => {
                ops.push(Op::Linear {
                    weight: l.weight().clone(),
                    bias: l.bias().clone(),
                });
                i += 1;
            }
            Layer::Residual(block) => {
                let (conv1, bn1, conv2, bn2, downsample) = block.parts();
                let set1 = take_set_for(conv1, sets, next_set);
                let mut main = lower_conv(conv1, set1, Some(bn1), true, opts, report)?;
                let set2 = take_set_for(conv2, sets, next_set);
                // The block's final ReLU runs after the skip add, so
                // conv2 carries none.
                main.extend(lower_conv(conv2, set2, Some(bn2), false, opts, report)?);
                let shortcut = match downsample {
                    Some((ds, ds_bn)) => lower_conv(ds, None, Some(ds_bn), false, opts, report)?,
                    None => Vec::new(),
                };
                ops.push(Op::Residual { main, shortcut });
                i += 1;
            }
        }
    }
    Ok(ops)
}

/// Infallible dense-only walk used by [`compile_dense`].
fn lower_layers_dense(
    layers: &[Layer],
    sets: &[PatternSet],
    next_set: &mut usize,
    opts: &CompileOptions,
    report: &mut CompileReport,
) -> Vec<Op> {
    lower_layers(layers, sets, next_set, opts, report)
        .expect("dense lowering cannot fail: no sets are consumed")
}

/// Pops the next pattern set when `conv` is a prunable (k ≥ 2) layer —
/// mirroring `Model::prunable_convs` order exactly.
fn take_set_for<'a>(
    conv: &Conv2d,
    sets: &'a [PatternSet],
    next_set: &mut usize,
) -> Option<&'a PatternSet> {
    if conv.shape().kernel >= 2 && *next_set < sets.len() {
        let s = &sets[*next_set];
        *next_set += 1;
        Some(s)
    } else {
        None
    }
}

/// Lowers one convolution (+ optional BN fold, + optional ReLU) to ops.
fn lower_conv(
    conv: &Conv2d,
    set: Option<&PatternSet>,
    bn: Option<&BatchNorm2d>,
    relu: bool,
    opts: &CompileOptions,
    report: &mut CompileReport,
) -> Result<Vec<Op>, CompileError> {
    let shape = *conv.shape();
    let mut weight = conv.weight().clone();
    let mut bias: Option<Vec<f32>> = conv.bias().map(|b| b.as_slice().to_vec());

    let fold_bn = bn.is_some() && opts.fuse_batchnorm;
    if let (Some(bn), true) = (bn, fold_bn) {
        let (scale, shift) = bn.eval_scale_shift();
        let per_oc = shape.in_c * shape.kernel_area();
        for (oc, chunk) in weight.as_mut_slice().chunks_mut(per_oc).enumerate() {
            for w in chunk.iter_mut() {
                *w *= scale[oc];
            }
        }
        let folded: Vec<f32> = match &bias {
            Some(b) => b
                .iter()
                .zip(scale.iter().zip(&shift))
                .map(|(&b, (&s, &t))| s * b + t)
                .collect(),
            None => shift,
        };
        bias = Some(folded);
    }

    // The conv op can only absorb the ReLU when nothing sits between it
    // and the activation (i.e. BN was folded or absent).
    let epilogue_relu = relu && opts.fuse_relu && (fold_bn || bn.is_none());

    let mut ops = Vec::with_capacity(3);
    let sparse = match (set, opts.force_dense) {
        (Some(set), false) if set.area() == shape.kernel_area() => {
            match SpmLayer::encode(&weight, set) {
                Ok(spm) => {
                    report.sparse_layers += 1;
                    report.total_kernels += spm.kernel_count();
                    report.spm_weight_bits += spm.weight_bits(32);
                    report.spm_index_bits += spm.index_bits();
                    report.spm_table_bits += spm.table_bits();
                    report.dense_bits += spm.dense_bits(32);
                    let mut pc = PatternConv::from_spm(spm, shape).with_relu(epilogue_relu);
                    if let Some(b) = bias.clone() {
                        pc = pc.with_bias(b);
                    }
                    report.skipped_kernels += pc.skipped_kernels();
                    Some(Op::PatternConv(pc))
                }
                Err(error) => {
                    if opts.strict {
                        return Err(CompileError::Encode {
                            layer: conv.name.clone(),
                            error,
                        });
                    }
                    report.dense_fallbacks += 1;
                    None
                }
            }
        }
        _ => None,
    };
    match sparse {
        Some(op) => ops.push(op),
        None => {
            report.dense_layers += 1;
            ops.push(Op::DenseConv {
                weight,
                bias: bias.map(|b| {
                    let len = b.len();
                    Tensor::from_vec(b, &[len])
                }),
                shape,
                relu: epilogue_relu,
            });
        }
    }

    if let (Some(bn), false) = (bn, fold_bn) {
        let (scale, shift) = bn.eval_scale_shift();
        ops.push(Op::Affine { scale, shift });
    }
    if relu && !epilogue_relu {
        ops.push(Op::Relu);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_nn::models;

    #[test]
    fn dense_compile_matches_model_eval() {
        let mut model = models::tiny_cnn(4, 4, 3);
        let graph = compile_dense(&model);
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let want = model.forward(&x, false);
        let got = graph.run(&x);
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
    }

    #[test]
    fn plan_mismatch_is_reported() {
        let model = models::tiny_cnn(4, 4, 3);
        let err = compile(&model, &[], &CompileOptions::default()).unwrap_err();
        match err {
            CompileError::PlanMismatch { expected, got } => {
                assert_eq!(expected, 2);
                assert_eq!(got, 0);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn pruned_compile_produces_sparse_layers() {
        let mut model = models::tiny_cnn(4, 4, 3);
        let plan = PrunePlan::uniform(2, 2, 32);
        let (graph, report, _outcome) =
            prune_and_compile(&mut model, &plan, &CompileOptions::default()).expect("compile");
        assert_eq!(report.sparse_layers, 2);
        assert_eq!(report.dense_fallbacks, 0);
        assert!(report.compression() > 1.0);
        let x = Tensor::ones(&[1, 3, 8, 8]);
        let want = model.forward(&x, false);
        let got = graph.run(&x);
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-4);
    }

    #[test]
    fn unfused_compile_still_matches() {
        let mut model = models::tiny_cnn(3, 4, 5);
        let plan = PrunePlan::uniform(2, 4, 16);
        let opts = CompileOptions {
            fuse_batchnorm: false,
            fuse_relu: false,
            ..Default::default()
        };
        let (graph, _report, _) = prune_and_compile(&mut model, &plan, &opts).expect("compile");
        let x = Tensor::ones(&[1, 3, 8, 8]);
        let want = model.forward(&x, false);
        let got = graph.run(&x);
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
    }
}
