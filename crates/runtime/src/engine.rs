//! The batched inference engine: many concurrent requests over one
//! compiled graph.
//!
//! An [`Engine`] pins an [`ExecutableGraph`] behind an `Arc` next to a
//! persistent [`ThreadPool`] from `pcnn_tensor::parallel`. The graph
//! compiles once and the worker threads live as long as the engine.
//! A single request runs on the calling thread ([`Engine::infer`]).
//! Many same-shape requests are coalesced ([`Engine::infer_coalesced`]):
//! they are stacked into at most one NCHW sub-batch per worker, each
//! sub-batch is one batched graph pass on the pool, and the outputs are
//! split back into per-request tensors in submission order.

use crate::graph::ExecutableGraph;
use crate::profile::{ExecProfile, ExecProfiler};
use crate::quant_conv::Precision;
use pcnn_tensor::parallel::ThreadPool;
use pcnn_tensor::Tensor;
use std::sync::Arc;

/// The engine's single graph-pass seam: every inference entry point
/// funnels through here, so enabling the profiler instruments all of
/// them at once.
fn run_graph(
    graph: &ExecutableGraph,
    profiler: &ExecProfiler,
    x: &Tensor,
    precision: Precision,
) -> Tensor {
    if profiler.is_enabled() {
        graph.run_profiled(x, precision, profiler)
    } else {
        graph.run_with(x, precision)
    }
}

/// A serving engine: one compiled graph + a persistent worker pool.
///
/// # Example
///
/// ```
/// use pcnn_nn::models;
/// use pcnn_runtime::compile::compile_dense;
/// use pcnn_runtime::engine::Engine;
/// use pcnn_tensor::Tensor;
///
/// let model = models::tiny_cnn(4, 4, 1);
/// let engine = Engine::new(compile_dense(&model), 2);
/// let out = engine.infer(&Tensor::ones(&[1, 3, 8, 8]));
/// assert_eq!(out.shape(), &[1, 4]);
/// ```
pub struct Engine {
    graph: Arc<ExecutableGraph>,
    pool: ThreadPool,
    profiler: Arc<ExecProfiler>,
}

impl Engine {
    /// Builds an engine with `threads` workers (minimum 1).
    pub fn new(graph: ExecutableGraph, threads: usize) -> Self {
        let graph = Arc::new(graph);
        Engine {
            profiler: Arc::new(ExecProfiler::for_graph(&graph)),
            graph,
            pool: ThreadPool::new(threads),
        }
    }

    /// Builds an engine sized by `pcnn_tensor::parallel::num_threads`.
    pub fn with_default_threads(graph: ExecutableGraph) -> Self {
        let graph = Arc::new(graph);
        Engine {
            profiler: Arc::new(ExecProfiler::for_graph(&graph)),
            graph,
            pool: ThreadPool::with_default_threads(),
        }
    }

    /// Builds an engine around an already-shared compiled graph — the
    /// constructor shard builders use, so `n` shards hold one graph, not
    /// `n` copies of its weights and offset tables.
    pub fn from_shared(graph: Arc<ExecutableGraph>, threads: usize) -> Self {
        Engine {
            profiler: Arc::new(ExecProfiler::for_graph(&graph)),
            graph,
            pool: ThreadPool::new(threads),
        }
    }

    /// Splits this engine into `n` independent shards over the **same**
    /// compiled graph, partitioning the existing worker budget: each
    /// shard gets `threads() / n` workers (remainder spread from shard
    /// 0, minimum 1 per shard), and this engine's pool is torn down in
    /// exchange. Shards share weights through the `Arc` but own their
    /// worker pools, so a sharded server's dispatchers never contend on
    /// one pool's injector.
    pub fn into_shards(self, n: usize) -> Vec<Engine> {
        let n = n.max(1);
        let total = self.threads();
        let Engine {
            graph,
            pool,
            profiler,
        } = self;
        drop(pool); // join the old workers before spawning shard pools
        (0..n)
            .map(|i| {
                let threads = (total / n + usize::from(i < total % n)).max(1);
                let mut shard = Engine::from_shared(graph.clone(), threads);
                // Shards aggregate into one execution profile, exactly
                // like they share one compiled graph.
                shard.profiler = profiler.clone();
                shard
            })
            .collect()
    }

    /// Rebuilds this engine from scratch around the **same** shared
    /// compiled graph and execution profiler, with a fresh worker pool
    /// of the same size — the respawn seam a serving supervisor uses to
    /// replace a crashed or wedged shard. The old engine is untouched
    /// (its pool tears down whenever its last owner drops it); weights,
    /// offset tables, and accumulated profile data are shared, not
    /// copied, so a respawn costs thread spawns and nothing else.
    pub fn respawn(&self) -> Engine {
        Engine {
            graph: self.graph.clone(),
            profiler: self.profiler.clone(),
            pool: ThreadPool::new(self.threads()),
        }
    }

    /// The shared handle to the compiled graph — what a respawned shard
    /// is rebuilt from.
    pub fn shared_graph(&self) -> Arc<ExecutableGraph> {
        self.graph.clone()
    }

    /// The shared handle to the execution profiler (the `Arc` behind
    /// [`Engine::profiler`]), for owners that must outlive this engine
    /// — a serving incident recorder keeps this instead of the engine
    /// itself so a dead shard's pool is never pinned alive.
    pub fn profiler_handle(&self) -> Arc<ExecProfiler> {
        self.profiler.clone()
    }

    /// The compiled graph.
    pub fn graph(&self) -> &ExecutableGraph {
        &self.graph
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Whether this engine's graph can execute `precision` (f32 always;
    /// int8 when the graph was compiled with its int8 weights).
    pub fn supports(&self, precision: Precision) -> bool {
        self.graph.supports(precision)
    }

    /// Turns on per-layer execution profiling: every subsequent graph
    /// pass — through any inference entry point — records per-layer
    /// phase timings into [`Engine::exec_profile`]. Takes `&self`: the
    /// switch is live on a serving engine.
    pub fn enable_profiling(&self) {
        self.profiler.set_enabled(true);
    }

    /// The engine's execution profiler (shared across shards created by
    /// [`Engine::into_shards`]).
    pub fn profiler(&self) -> &ExecProfiler {
        &self.profiler
    }

    /// The aggregated per-layer execution profile.
    pub fn exec_profile(&self) -> ExecProfile {
        self.profiler.snapshot()
    }

    /// Runs one request synchronously on the calling thread (f32).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        run_graph(&self.graph, &self.profiler, x, Precision::F32)
    }

    /// Runs one request synchronously at the requested precision.
    ///
    /// # Panics
    ///
    /// Panics if the graph cannot run the requested precision (see
    /// [`Engine::supports`]).
    pub fn infer_with(&self, x: &Tensor, precision: Precision) -> Tensor {
        run_graph(&self.graph, &self.profiler, x, precision)
    }

    /// Coalesced execution: stacks same-shape single-image requests
    /// into contiguous NCHW sub-batches (at most one per worker), runs
    /// each sub-batch through the graph as **one** batched pass, and
    /// splits the outputs back into per-request tensors in submission
    /// order.
    ///
    /// This is the dispatch hook for dynamic micro-batchers
    /// (`pcnn-serve`): a batched graph pass amortises padded-plane
    /// construction, offset-table derivation, and per-op dispatch across
    /// the whole batch (see [`crate::PatternConv::forward_batch_at`]).
    /// `scratch` holds the stacking buffers and is reused across calls, so a
    /// steady-state batcher performs no stacking allocations.
    ///
    /// # Panics
    ///
    /// Panics if any input is not `1 × C × H × W` or the shapes differ
    /// across requests.
    pub fn infer_coalesced(&self, inputs: Vec<Tensor>, scratch: &mut BatchScratch) -> Vec<Tensor> {
        self.infer_coalesced_at(Precision::F32, inputs, scratch)
    }

    /// [`Engine::infer_coalesced`] at an explicit precision: the whole
    /// coalesced batch runs at the selected precision of the shared
    /// graph.
    ///
    /// # Panics
    ///
    /// Panics on mixed/bad request shapes, or if the graph lacks the
    /// requested precision.
    pub fn infer_coalesced_at(
        &self,
        precision: Precision,
        inputs: Vec<Tensor>,
        scratch: &mut BatchScratch,
    ) -> Vec<Tensor> {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        let mut stacked = self.stack_requests(inputs, &mut scratch.buffers);

        let batched: Vec<(Tensor, Vec<f32>)> = if stacked.len() == 1 {
            // A 1-chunk dispatch degenerates to one batched pass on the
            // calling thread.
            let x = stacked.pop().expect("one chunk");
            vec![(
                run_graph(&self.graph, &self.profiler, &x, precision),
                x.into_vec(),
            )]
        } else {
            let jobs: Vec<_> = stacked
                .into_iter()
                .map(|x| {
                    let graph = self.graph.clone();
                    let profiler = self.profiler.clone();
                    move || (run_graph(&graph, &profiler, &x, precision), x.into_vec())
                })
                .collect();
            self.pool.run_batch(jobs)
        };

        let mut outputs = Vec::with_capacity(n);
        for (y, buf) in batched {
            split_rows(&y, &mut outputs);
            scratch.buffers.push(buf);
        }
        outputs
    }

    /// Validates that `inputs` are same-shape `1 × C × H × W` requests
    /// and stacks them into at most one contiguous NCHW sub-batch per
    /// worker, drawing stacking storage from `buffers` (refilled by the
    /// caller once the batched tensors come back).
    fn stack_requests(&self, inputs: Vec<Tensor>, buffers: &mut Vec<Vec<f32>>) -> Vec<Tensor> {
        let n = inputs.len();
        let img_shape = inputs[0].shape().to_vec();
        assert_eq!(img_shape.len(), 4, "requests must be NCHW");
        assert_eq!(img_shape[0], 1, "requests must be single-image");
        for x in &inputs[1..] {
            assert_eq!(x.shape(), &img_shape[..], "mixed request shapes");
        }
        let img_len: usize = img_shape[1..].iter().product();

        let chunks = self.threads().min(n);
        let per = n.div_ceil(chunks);
        let mut stacked: Vec<Tensor> = Vec::with_capacity(chunks);
        for group in inputs.chunks(per) {
            let mut buf = buffers.pop().unwrap_or_default();
            buf.clear();
            buf.reserve(group.len() * img_len);
            for x in group {
                buf.extend_from_slice(x.as_slice());
            }
            let mut shape = img_shape.clone();
            shape[0] = group.len();
            stacked.push(Tensor::from_vec(buf, &shape));
        }
        stacked
    }

    /// Asynchronous [`Engine::infer_coalesced_at`]: stacks the same-shape
    /// single-image requests into chunked batches, submits the chunk
    /// passes to the worker pool, and **returns immediately**; `on_done`
    /// runs on the worker that finishes the last chunk, receiving the
    /// per-request outputs in submission order plus the stacking buffers
    /// for reuse. Every chunk runs at `precision` on the shared graph.
    ///
    /// This is the pipelined dispatch hook for `pcnn-serve`: the
    /// batcher thread hands a batch to the engine and goes straight
    /// back to coalescing the next one, so queue management overlaps
    /// execution. `buffers` may be empty or hold recycled stacking
    /// buffers from earlier completions (any count; missing ones are
    /// allocated).
    ///
    /// Failure is attributed **per chunk**: chunk boundaries are
    /// deterministic (`threads().min(n)` chunks of `n.div_ceil(chunks)`
    /// requests in submission order), so when one chunk's graph pass
    /// panics, exactly that chunk's requests come back as `None` while
    /// every other request keeps its output — and the failed chunk's
    /// stacking buffer is still reclaimed, so the caller's buffer pool
    /// never shrinks.
    ///
    /// # Panics
    ///
    /// Panics if any input is not `1 × C × H × W` or shapes differ
    /// across requests. Missing int8 weights surface as per-chunk
    /// failures (`None` outputs), not a panic of the caller.
    pub fn infer_coalesced_async_at<F>(
        &self,
        precision: Precision,
        inputs: Vec<Tensor>,
        buffers: Vec<Vec<f32>>,
        on_done: F,
    ) where
        F: FnOnce(Vec<Option<Tensor>>, Vec<Vec<f32>>) + Send + 'static,
    {
        let profiler = self.profiler.clone();
        self.coalesced_async_with(
            inputs,
            buffers,
            move |graph, x| run_graph(graph, &profiler, x, precision),
            on_done,
        )
    }

    /// [`Engine::infer_coalesced_async_at`] with the chunk pass injected —
    /// the seam that lets tests drive the completion machinery with a
    /// deterministically panicking pass.
    fn coalesced_async_with<R, F>(
        &self,
        inputs: Vec<Tensor>,
        mut buffers: Vec<Vec<f32>>,
        run_chunk: R,
        on_done: F,
    ) where
        R: Fn(&ExecutableGraph, &Tensor) -> Tensor + Clone + Send + 'static,
        F: FnOnce(Vec<Option<Tensor>>, Vec<Vec<f32>>) + Send + 'static,
    {
        let n = inputs.len();
        if n == 0 {
            on_done(Vec::new(), buffers);
            return;
        }
        let stacked = self.stack_requests(inputs, &mut buffers);

        struct Pending {
            /// Per-chunk `(batched_output_or_failure, reclaimed_stack_buffer)`.
            #[allow(clippy::type_complexity)]
            slots: Vec<Option<(Option<Tensor>, Vec<f32>)>>,
            /// Requests in each chunk, for expanding a failed chunk into
            /// per-request `None`s.
            rows: Vec<usize>,
            remaining: usize,
            spare_buffers: Vec<Vec<f32>>,
            #[allow(clippy::type_complexity)]
            on_done: Option<Box<dyn FnOnce(Vec<Option<Tensor>>, Vec<Vec<f32>>) + Send>>,
        }
        let total = stacked.len();
        let pending = Arc::new(std::sync::Mutex::new(Pending {
            slots: (0..total).map(|_| None).collect(),
            rows: stacked.iter().map(|x| x.shape()[0]).collect(),
            remaining: total,
            spare_buffers: buffers,
            on_done: Some(Box::new(on_done)),
        }));

        for (c, x) in stacked.into_iter().enumerate() {
            let graph = self.graph.clone();
            let pending = pending.clone();
            let run_chunk = run_chunk.clone();
            self.pool.execute(move || {
                // Contain a model panic so the completion callback always
                // fires; only this chunk's requests fail, and the chunk's
                // stacking buffer survives for reuse either way.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_chunk(&graph, &x)
                }));
                let mut p = pending.lock().expect("pending poisoned");
                p.slots[c] = Some((result.ok(), x.into_vec()));
                p.remaining -= 1;
                if p.remaining > 0 {
                    return;
                }
                let slots = std::mem::take(&mut p.slots);
                let rows = std::mem::take(&mut p.rows);
                let mut buffers = std::mem::take(&mut p.spare_buffers);
                let cb = p.on_done.take().expect("completion fires once");
                drop(p);
                let mut outputs = Vec::new();
                for (slot, rows) in slots.into_iter().zip(rows) {
                    let (y, buf) = slot.expect("every chunk reports");
                    match y {
                        Some(y) => {
                            let mut split = Vec::with_capacity(rows);
                            split_rows(&y, &mut split);
                            outputs.extend(split.into_iter().map(Some));
                        }
                        None => outputs.extend(std::iter::repeat_with(|| None).take(rows)),
                    }
                    buffers.push(buf);
                }
                cb(outputs, buffers);
            });
        }
    }
}

/// Reusable stacking buffers for [`Engine::infer_coalesced`].
///
/// A dynamic batcher keeps one `BatchScratch` for the lifetime of its
/// dispatch loop; the per-chunk `Vec<f32>` buffers cycle through the
/// stacked input tensors and come back after every dispatch, so
/// steady-state serving allocates nothing to assemble batches.
#[derive(Debug, Default)]
pub struct BatchScratch {
    buffers: Vec<Vec<f32>>,
}

impl BatchScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }
}

/// Splits a batched `N × …` output into per-row `1 × …` tensors,
/// appended to `outputs` in row order.
fn split_rows(y: &Tensor, outputs: &mut Vec<Tensor>) {
    let rows = y.shape()[0];
    let mut out_shape = y.shape().to_vec();
    out_shape[0] = 1;
    let row_len: usize = out_shape[1..].iter().product();
    let data = y.as_slice();
    for r in 0..rows {
        outputs.push(Tensor::from_vec(
            data[r * row_len..(r + 1) * row_len].to_vec(),
            &out_shape,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_dense;
    use pcnn_nn::models;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn random_input(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = shape.iter().product();
        Tensor::from_vec(
            (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            shape,
        )
    }

    #[test]
    fn infer_coalesced_matches_single_requests() {
        let model = models::tiny_cnn(4, 4, 5);
        let engine = Engine::new(compile_dense(&model), 3);
        let inputs: Vec<Tensor> = (0..7)
            .map(|i| random_input(&[1, 3, 8, 8], 50 + i))
            .collect();
        let single: Vec<Tensor> = inputs.iter().map(|x| engine.infer(x)).collect();
        let mut scratch = BatchScratch::new();
        let coalesced = engine.infer_coalesced(inputs, &mut scratch);
        assert_eq!(coalesced.len(), 7);
        for (a, b) in single.iter().zip(&coalesced) {
            assert_eq!(a.shape(), b.shape());
            pcnn_tensor::assert_slices_close(a.as_slice(), b.as_slice(), 1e-5);
        }
    }

    #[test]
    fn infer_coalesced_reuses_scratch_and_handles_edge_sizes() {
        let model = models::tiny_cnn(2, 4, 6);
        let engine = Engine::new(compile_dense(&model), 2);
        let mut scratch = BatchScratch::new();
        assert!(engine.infer_coalesced(Vec::new(), &mut scratch).is_empty());
        // Repeated dispatches of varying size through one scratch.
        for size in [1usize, 5, 2, 8] {
            let inputs: Vec<Tensor> = (0..size)
                .map(|i| random_input(&[1, 3, 8, 8], 90 + i as u64))
                .collect();
            let want: Vec<Tensor> = inputs.iter().map(|x| engine.infer(x)).collect();
            let got = engine.infer_coalesced(inputs, &mut scratch);
            for (a, b) in want.iter().zip(&got) {
                pcnn_tensor::assert_slices_close(a.as_slice(), b.as_slice(), 1e-5);
            }
        }
    }

    #[test]
    fn coalesced_async_matches_sync_and_returns_buffers() {
        let model = models::tiny_cnn(3, 4, 8);
        let engine = Engine::new(compile_dense(&model), 2);
        let inputs: Vec<Tensor> = (0..5)
            .map(|i| random_input(&[1, 3, 8, 8], 70 + i))
            .collect();
        let want: Vec<Tensor> = inputs.iter().map(|x| engine.infer(x)).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        engine.infer_coalesced_async_at(
            Precision::F32,
            inputs,
            Vec::new(),
            move |outputs, buffers| {
                tx.send((outputs, buffers)).expect("receiver alive");
            },
        );
        let (outputs, buffers) = rx.recv().expect("completion fires");
        assert_eq!(outputs.len(), 5);
        assert_eq!(buffers.len(), 2, "both chunk buffers recycle");
        for (a, b) in want.iter().zip(&outputs) {
            let b = b.as_ref().expect("chunk pass succeeded");
            pcnn_tensor::assert_slices_close(a.as_slice(), b.as_slice(), 1e-5);
        }
    }

    /// A panicking chunk fails exactly its own requests: with 5 requests
    /// over 2 workers the chunks are [0..3) and [3..5), so a pass that
    /// dies on the 2-row chunk must return real outputs for requests
    /// 0–2, `None` for 3–4, and still hand back **both** stacking
    /// buffers. The pre-fix code emptied the whole batch and leaked the
    /// failed chunk's buffer.
    #[test]
    fn coalesced_async_panicking_chunk_fails_only_its_requests() {
        let model = models::tiny_cnn(3, 4, 8);
        let engine = Engine::new(compile_dense(&model), 2);
        let inputs: Vec<Tensor> = (0..5)
            .map(|i| random_input(&[1, 3, 8, 8], 80 + i))
            .collect();
        let want: Vec<Tensor> = inputs.iter().map(|x| engine.infer(x)).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        engine.coalesced_async_with(
            inputs,
            vec![Vec::new()], // one recycled buffer seeds the pool
            |graph, x| {
                assert!(x.shape()[0] != 2, "chunk of 2 dies mid-pass");
                graph.run(x)
            },
            move |outputs, buffers| {
                tx.send((outputs, buffers)).expect("receiver alive");
            },
        );
        let (outputs, buffers) = rx.recv().expect("completion fires despite the panic");
        assert_eq!(outputs.len(), 5, "every request is attributed");
        for (i, out) in outputs.iter().enumerate() {
            if i < 3 {
                let y = out.as_ref().expect("surviving chunk keeps its outputs");
                pcnn_tensor::assert_slices_close(y.as_slice(), want[i].as_slice(), 1e-5);
            } else {
                assert!(out.is_none(), "request {i} belonged to the failed chunk");
            }
        }
        assert_eq!(
            buffers.len(),
            2,
            "the failed chunk's stacking buffer must be reclaimed too"
        );
    }

    #[test]
    fn precision_routes_to_the_right_lowering() {
        use crate::compile::{prune_and_compile_quant, CompileOptions};
        use crate::quant_conv::QuantOptions;
        use pcnn_core::PrunePlan;
        let mut model = models::tiny_cnn(4, 4, 3);
        let plan = PrunePlan::uniform(2, 2, 32);
        let (graph, _, _) = prune_and_compile_quant(
            &mut model,
            &plan,
            &CompileOptions::default(),
            &QuantOptions::default(),
        )
        .expect("compile");
        assert!(graph.quant_op_count() > 0);
        let engine = Engine::new(graph, 2);
        assert!(engine.supports(Precision::Int8));
        let inputs: Vec<Tensor> = (0..5)
            .map(|i| random_input(&[1, 3, 8, 8], 200 + i))
            .collect();
        // Int8 inference matches the dequantise-then-f32 reference …
        for x in &inputs {
            let got = engine.infer_with(x, Precision::Int8);
            let want = engine.graph().run_int8_reference(x);
            pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
        }
        // … and the coalesced path routes whole batches through int8.
        let want: Vec<Tensor> = inputs
            .iter()
            .map(|x| engine.infer_with(x, Precision::Int8))
            .collect();
        let mut scratch = BatchScratch::new();
        let got = engine.infer_coalesced_at(Precision::Int8, inputs.clone(), &mut scratch);
        for (a, b) in want.iter().zip(&got) {
            pcnn_tensor::assert_slices_close(a.as_slice(), b.as_slice(), 1e-6);
        }
        // The async variant agrees too.
        let (tx, rx) = std::sync::mpsc::channel();
        engine.infer_coalesced_async_at(Precision::Int8, inputs, Vec::new(), move |outs, bufs| {
            tx.send((outs, bufs)).expect("receiver alive");
        });
        let (outs, _) = rx.recv().expect("completion fires");
        for (a, b) in want.iter().zip(&outs) {
            let b = b.as_ref().expect("chunk pass succeeded");
            pcnn_tensor::assert_slices_close(a.as_slice(), b.as_slice(), 1e-6);
        }
    }

    #[test]
    fn into_shards_partitions_workers_and_preserves_outputs() {
        let model = models::tiny_cnn(4, 4, 5);
        let engine = Engine::new(compile_dense(&model), 5);
        let x = random_input(&[1, 3, 8, 8], 123);
        let want = engine.infer(&x);
        let shards = engine.into_shards(3);
        assert_eq!(shards.len(), 3);
        // 5 workers over 3 shards: 2 + 2 + 1, nothing lost, each >= 1.
        let threads: Vec<usize> = shards.iter().map(Engine::threads).collect();
        assert_eq!(threads.iter().sum::<usize>(), 5);
        assert_eq!(threads, vec![2, 2, 1]);
        for shard in &shards {
            let got = shard.infer(&x);
            pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 0.0);
        }
        // More shards than workers still yields one worker per shard.
        let shards = shards.into_iter().next().expect("shard 0").into_shards(4);
        assert!(shards.iter().all(|s| s.threads() == 1));
    }
}
