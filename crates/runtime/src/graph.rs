//! The executable inference graph.
//!
//! An [`ExecutableGraph`] is the immutable product of the layer
//! compiler: a straight-line op sequence that is `Send + Sync`, so a
//! single compiled network can be shared (via `Arc`) by every worker of
//! the batched [`crate::engine::Engine`] with zero per-request setup.
//!
//! One op sequence serves **both precisions**.
//! [`ExecutableGraph::with_int8`] gives every pattern convolution an
//! int8 copy of its non-zero weights next to the f32 one (codes,
//! registry, bias and ReLU are the layer's own), and
//! [`ExecutableGraph::run_with`] selects the [`Precision`] per call —
//! how one engine serves mixed-precision traffic without compiling the
//! network twice. Every other op runs in f32 at either precision.

use crate::ops::{run_ops, run_ops_profiled, run_seq, Op};
use crate::pattern_conv::PatternConv;
use crate::profile::ExecProfiler;
use crate::quant_conv::{Precision, QuantOptions};
use pcnn_tensor::Tensor;

/// A compiled, immutable, thread-safe inference graph.
#[derive(Debug, Clone)]
pub struct ExecutableGraph {
    ops: Vec<Op>,
    /// Whether [`ExecutableGraph::with_int8`] has run.
    int8: bool,
}

impl ExecutableGraph {
    /// Wraps a lowered op sequence (f32 only).
    pub fn new(ops: Vec<Op>) -> Self {
        ExecutableGraph { ops, int8: false }
    }

    /// Gives every pattern convolution, inside residual blocks too, its
    /// int8 weight copy ([`PatternConv::with_int8`]); every other op
    /// stays on the f32 path. The f32 weights are untouched — both
    /// precisions remain runnable.
    pub fn with_int8(mut self, opts: &QuantOptions) -> Self {
        fn fill(ops: &mut [Op], opts: &QuantOptions) {
            for op in ops {
                match op {
                    Op::PatternConv(pc) => pc.quantize(opts),
                    Op::Residual { main, shortcut } => {
                        fill(main, opts);
                        fill(shortcut, opts);
                    }
                    _ => {}
                }
            }
        }
        fill(&mut self.ops, opts);
        self.int8 = true;
        self
    }

    /// Whether `precision` can be executed on this graph.
    pub fn supports(&self, precision: Precision) -> bool {
        precision == Precision::F32 || self.int8
    }

    fn assert_supports(&self, precision: Precision) {
        assert!(
            self.supports(precision),
            "int8 weights not compiled: call with_int8 first"
        );
    }

    /// The op sequence, shared by both precisions.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Runs the graph on an NCHW input (any batch size) at f32,
    /// producing the network output.
    pub fn run(&self, x: &Tensor) -> Tensor {
        run_ops(&self.ops, x, Precision::F32)
    }

    /// Runs the graph at the requested precision.
    ///
    /// # Panics
    ///
    /// Panics if `Precision::Int8` is requested on a graph compiled
    /// without [`ExecutableGraph::with_int8`].
    pub fn run_with(&self, x: &Tensor, precision: Precision) -> Tensor {
        self.assert_supports(precision);
        run_ops(&self.ops, x, precision)
    }

    /// [`ExecutableGraph::run_with`] with per-layer instrumentation:
    /// each op records wall time (convolutions split by phase) into the
    /// profiler's slots for `precision`. The profiler must have been
    /// built for this graph ([`ExecProfiler::for_graph`]) so the slot
    /// order matches the op walk.
    ///
    /// # Panics
    ///
    /// Panics if `Precision::Int8` is requested on a graph compiled
    /// without [`ExecutableGraph::with_int8`].
    pub fn run_profiled(
        &self,
        x: &Tensor,
        precision: Precision,
        profiler: &ExecProfiler,
    ) -> Tensor {
        self.assert_supports(precision);
        run_ops_profiled(&self.ops, x, precision, profiler.layers(precision), &mut 0)
    }

    /// Runs the int8 weights on their dequantise-then-f32 **reference**
    /// datapath ([`PatternConv::forward_reference`]): identical
    /// quantisation decisions, float arithmetic. The integer path
    /// ([`ExecutableGraph::run_with`] at `Int8`) must match this within
    /// 1e-5 — the parity suite's oracle.
    ///
    /// # Panics
    ///
    /// Panics if the int8 weights are not compiled.
    pub fn run_int8_reference(&self, x: &Tensor) -> Tensor {
        self.assert_supports(Precision::Int8);
        run_seq(&self.ops, x, &PatternConv::forward_reference)
    }

    /// One description line per op (residual blocks annotate their
    /// sub-op counts; pattern convolutions their int8 weights).
    pub fn summary(&self) -> Vec<String> {
        self.ops.iter().map(Op::describe).collect()
    }

    /// Number of pattern-sparse convolution ops, recursing into
    /// residual blocks.
    pub fn sparse_op_count(&self) -> usize {
        count_pattern_convs(&self.ops, &|_| true)
    }

    /// Number of pattern convolutions carrying int8 weights (zero
    /// before [`ExecutableGraph::with_int8`]), recursing into residual
    /// blocks.
    pub fn quant_op_count(&self) -> usize {
        count_pattern_convs(&self.ops, &|pc| pc.weight_params().is_some())
    }
}

fn count_pattern_convs(ops: &[Op], keep: &dyn Fn(&PatternConv) -> bool) -> usize {
    ops.iter()
        .map(|op| match op {
            Op::PatternConv(pc) => usize::from(keep(pc)),
            Op::Residual { main, shortcut } => {
                count_pattern_convs(main, keep) + count_pattern_convs(shortcut, keep)
            }
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;

    #[test]
    fn empty_graph_is_identity() {
        let g = ExecutableGraph::new(vec![]);
        let x = Tensor::from_vec(vec![1.0, -2.0], &[1, 1, 1, 2]);
        assert_eq!(g.run(&x).as_slice(), x.as_slice());
        assert!(g.summary().is_empty());
        assert_eq!(g.sparse_op_count(), 0);
    }

    #[test]
    fn precision_support_and_panics() {
        let g = ExecutableGraph::new(vec![Op::Relu]);
        assert!(g.supports(Precision::F32));
        assert!(!g.supports(Precision::Int8));
        assert_eq!(g.quant_op_count(), 0);
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 1, 1, 2]);
        let unsupported = std::panic::catch_unwind(|| g.run_with(&x, Precision::Int8));
        assert!(unsupported.is_err(), "int8 without with_int8 must panic");
        let g = g.with_int8(&QuantOptions::default());
        assert!(g.supports(Precision::Int8));
        // No pattern convs in this graph, so both precisions agree exactly.
        assert_eq!(
            g.run_with(&x, Precision::Int8).as_slice(),
            g.run_with(&x, Precision::F32).as_slice()
        );
        assert_eq!(g.run_int8_reference(&x).as_slice(), g.run(&x).as_slice());
        assert_eq!(g.summary(), vec!["ReLU".to_string()]);
    }

    #[test]
    fn summary_and_run_compose() {
        let g = ExecutableGraph::new(vec![Op::Relu, Op::Flatten]);
        assert_eq!(g.summary(), vec!["ReLU".to_string(), "Flatten".to_string()]);
        let x = Tensor::from_vec(vec![-1.0, 3.0, -4.0, 2.0], &[1, 1, 2, 2]);
        let y = g.run(&x);
        assert_eq!(y.shape(), &[1, 4]);
        assert_eq!(y.as_slice(), &[0.0, 3.0, 0.0, 2.0]);
    }
}
