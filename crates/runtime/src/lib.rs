//! # `pcnn-runtime` — pattern-aware sparse CNN inference engine
//!
//! The rest of the workspace *models* PCNN: `pcnn-core` prunes networks
//! into pattern/SPM form and `pcnn-accel` simulates the paper's
//! accelerator cycle by cycle. This crate *runs* them: it consumes a
//! pruned `pcnn-nn` model (or its SPM-encoded weights) and executes it
//! on the CPU through kernels specialised per sparsity pattern — the
//! software analogue of the paper's pattern-aware PE array, in the
//! spirit of PCONV's compiler-assisted runtime.
//!
//! ## Architecture
//!
//! The engine is a four-stage pipeline, one module per stage:
//!
//! 1. **Kernel registry** ([`registry`]). Each 3×3 sparsity pattern is
//!    compiled once into tap coordinates, and execution dispatches onto
//!    monomorphised kernels built on the explicit SIMD tiles of
//!    [`pcnn_tensor::simd`] (AVX2 + FMA detected at runtime, scalar fallback
//!    under `PCNN_FORCE_SCALAR=1` — bit-identical either way) — the
//!    regularity of pattern pruning is what makes a fixed unrolled
//!    kernel per pattern possible at all. A registry can cover a
//!    distilled [`PatternSet`] (one kernel per SPM code) or the full 2⁹
//!    pattern space, and keeps one flat per-code tap-offset table for
//!    the padded width its layer runs at. Both precisions execute a
//!    layer with **one band-resident, output-stationary walk**
//!    ([`pcnn_tensor::direct::band_walk_at`]). Loop order: image → row
//!    band → output channel → register tile → live kernel. Entering a
//!    band, its rows of all `in_c` input planes are padded (f32: a
//!    copy; int8: quantised at that image's scale) into a band-sized
//!    scratch; then every output channel runs over it — a register
//!    tile of the output plane is seeded with the bias, every live
//!    input-channel kernel streams its taps through it in ascending
//!    `ic` (SPM order as stored — nothing is reordered or repacked),
//!    and the fused ReLU / int8 requantisation runs on the registers
//!    before a single store. A band is a whole number of tiles, as
//!    many as keep its `rows + 2` padded rows of all input planes
//!    inside 32 KiB ([`pcnn_tensor::direct::BAND_BYTES`]) and never
//!    fewer than one: f32 at 64 channels × 16 wide is one 4-row tile
//!    (27 KiB), int8 and thin layers hold the whole plane. The band is
//!    the operand every output channel re-reads, so it is the one
//!    sized to live in L1; the weights are read once per band and
//!    stream from L2 (each kernel's `n` values feed `n × rows × ow`
//!    MACs per read), and partial sums never leave registers.
//!    Geometries without a tile (stride ≠ 1, kernels other than 3×3
//!    pad 1, untiled widths, more than 9 taps) pad the whole batch and
//!    run a channel loop one kernel per dispatch; geometry alone
//!    chooses, and the two agree bit for bit.
//!
//! 2. **Layer compiler** ([`compile`]). A pruned model lowers to an
//!    immutable [`graph::ExecutableGraph`] of ops ([`ops::Op`]):
//!    pattern-sparse convolutions ([`pattern_conv::PatternConv`]) for
//!    the 3×3 layers, dense im2col for the rest, with eval-mode batch
//!    norm folded into the conv weights and ReLU fused into the conv
//!    epilogue. Kernels zeroed by orthogonal coarse-grained pruning
//!    (`pcnn_core::fuse`) are skipped at run time, so fused
//!    coarse+pattern sparsity compounds exactly as in the paper's
//!    storage model.
//!
//! 3. **Batched executor** ([`engine`]). An [`engine::Engine`] shares
//!    the compiled graph with a persistent thread pool
//!    ([`pcnn_tensor::parallel::ThreadPool`]). One request runs on the
//!    calling thread ([`engine::Engine::infer`]). Many same-shape
//!    single-image requests are coalesced
//!    ([`engine::Engine::infer_coalesced`], and
//!    [`engine::Engine::infer_coalesced_async_at`] for dynamic
//!    batchers): they stack into at most one batched graph pass per
//!    worker, which amortises per-op dispatch, offset tables and
//!    scratch across the batch ([`PatternConv::forward_batch_at`]).
//!
//! 4. **Quantised backend** ([`quant_conv`], [`quant_kernels`]). Each
//!    compiled [`PatternConv`] can carry a second, **int8** copy of its
//!    weights ([`graph::ExecutableGraph::with_int8`], or
//!    [`compile::compile_quant`] in one step): SPM non-zero sequences
//!    quantise per layer through `pcnn_core::quant` while the pattern
//!    codes, registry, offset tables, bias and ReLU stay the layer's
//!    own — the economy the paper's SPM format exists for. One op list
//!    serves both precisions; [`quant_conv::Precision`] selects the
//!    weight copy per call ([`engine::Engine::infer_with`],
//!    [`engine::Engine::infer_coalesced_async_at`]). At int8 the same
//!    walk quantises activations per image (fused into its band
//!    padding), accumulates `i8 × i8` MACs in an `i32` register tile,
//!    and requantises it in registers with the folded BN shift and
//!    fused ReLU.
//!
//! The online serving layer on top of this crate — bounded request
//! queue, micro-batching, tickets, latency percentiles — is
//! `pcnn-serve`.
//!
//! ## Quickstart
//!
//! ```
//! use pcnn_core::PrunePlan;
//! use pcnn_nn::models;
//! use pcnn_runtime::compile::{prune_and_compile, CompileOptions};
//! use pcnn_runtime::engine::{BatchScratch, Engine};
//! use pcnn_tensor::Tensor;
//!
//! // 1. Train-or-load a model, then prune it with a PCNN plan (n = 2).
//! let mut model = models::tiny_cnn(10, 4, 1);
//! let plan = PrunePlan::uniform(2, 2, 32);
//!
//! // 2. Lower through the pattern compiler (BN folded, ReLU fused).
//! let (graph, report, _outcome) =
//!     prune_and_compile(&mut model, &plan, &CompileOptions::default()).unwrap();
//! assert_eq!(report.sparse_layers, 2);
//!
//! // 3. Coalesce single-image requests into batched passes.
//! let engine = Engine::new(graph, 4);
//! let requests: Vec<Tensor> = (0..8).map(|_| Tensor::ones(&[1, 3, 8, 8])).collect();
//! let outputs = engine.infer_coalesced(requests, &mut BatchScratch::new());
//! assert_eq!(outputs.len(), 8);
//! assert_eq!(outputs[0].shape(), &[1, 10]);
//! ```
//!
//! ## Correctness
//!
//! The parity suite (`tests/parity.rs`) checks sparse execution against
//! the dense im2col reference to 1e-5 for every proxy network of the
//! paper's zoo at n = 2 and n = 4, fused and unfused, and holds the
//! band walk against the per-kernel walk bit for bit on every proxy
//! layer; property tests do the same over generated geometries (every
//! band shape included) and round-trip random pattern assignments
//! through the kernel registry; `tests/bit_identity.rs` pins the
//! outputs of two proxies to checksums recorded before the band walk
//! existed.
//!
//! [`PatternSet`]: pcnn_core::PatternSet

pub mod compile;
pub mod engine;
pub mod graph;
pub mod json;
pub mod ops;
pub mod pattern_conv;
pub mod profile;
pub mod quant_conv;
pub mod quant_kernels;
pub mod registry;

pub use compile::{
    compile, compile_dense, compile_quant, prune_and_compile, prune_and_compile_quant,
    CompileOptions, CompileReport,
};
pub use engine::Engine;
pub use graph::ExecutableGraph;
pub use pattern_conv::{ConvScratch, PatternConv, Walk};
pub use profile::{ExecProfile, ExecProfiler, LayerProfile, PhaseSplit, PrecisionProfile};
pub use quant_conv::{Precision, QuantOptions};
pub use registry::KernelRegistry;
