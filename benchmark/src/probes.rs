//! Per-layer probes of the traced run: each times calls into one
//! crate's **public** functions from here, or reads a public counter.
//! They are independent of the workload, so every traced run carries the
//! whole per-layer budget next to that workload's own spans.
//!
//! Which end-to-end metric each number should move, and on which
//! workload, is written down in the README before anything is measured.

use crate::alloc;
use crate::fixtures::{
    self, build_graph, plan_n4, random_tensor, request_pool, stream, wide_cfg, ENGINE_THREADS,
    PRUNABLE,
};
use crate::spans::{intern, median_ms, Recorder, Span};
use crate::stats::median;
use crate::workloads::engine::{direct_batches, BATCH};
use crate::workloads::pipeline::{self, PassFacts};
use pcnn_core::PrunePlan;
use pcnn_nn::models::vgg16_proxy;
use pcnn_runtime::compile::compile_dense;
use pcnn_runtime::ops::Op;
use pcnn_runtime::{Engine, Precision};
use pcnn_tensor::direct::{
    accumulate_plane_batch_dyn, accumulate_plane_batch_dyn_i8, pad_plane_overwrite,
    pad_quant_plane_overwrite, padded_dims, BatchPlanes,
};
use pcnn_tensor::parallel::ThreadPool;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Root of the serial op walk's spans; its children are
/// `runtime.op.<idx>`.
pub const OP_WALK: &str = "bench.op_walk";
/// Traced pipeline passes behind the `core.*`, `runtime.compile_*` and
/// `accel.*` timings.
const PIPELINE_PASSES: u64 = 5;
/// Interleaved rounds behind each `runtime.*_x` ratio.
const RATIO_ROUNDS: usize = 3;

/// Median over five legs of the mean seconds per call of `f`. Calls are
/// grouped so the clock is read at most every ~50 µs.
fn per_call_s(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut group = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..group {
            f();
        }
        if t.elapsed() >= Duration::from_micros(50) || group >= 1 << 20 {
            break;
        }
        group *= 2;
    }
    let leg = budget / 5;
    let mut legs = [0.0f64; 5];
    for l in &mut legs {
        let t = Instant::now();
        let mut calls = 0u64;
        loop {
            for _ in 0..group {
                f();
            }
            calls += group;
            if t.elapsed() >= leg {
                break;
            }
        }
        *l = t.elapsed().as_secs_f64() / calls as f64;
    }
    median(&legs)
}

/// The kernel geometry of the `tensor.*_gmacs` probes: one kernel
/// applied to the same channel of a batch of 8 padded 16×16 planes.
struct KernelGeometry {
    geo: BatchPlanes,
    hw: usize,
    pw: usize,
}

impl KernelGeometry {
    fn new() -> Self {
        let hw = 16;
        let (ph, pw) = padded_dims(hw, hw, 1);
        KernelGeometry {
            geo: BatchPlanes {
                out_base: 0,
                out_stride: hw * hw,
                in_base: 0,
                in_stride: ph * pw,
                plane_len: ph * pw,
                n: BATCH,
            },
            hw,
            pw,
        }
    }

    /// Padded-plane offsets of 3×3 kernel positions.
    fn offsets(&self, positions: &[usize]) -> Vec<usize> {
        positions
            .iter()
            .map(|p| (p / 3) * self.pw + p % 3)
            .collect()
    }

    fn macs(&self, taps: usize) -> f64 {
        (taps * self.hw * self.hw * self.geo.n) as f64
    }
}

/// Useful f32 GMAC/s of the batch kernel with the given taps.
fn f32_gmacs(k: &KernelGeometry, positions: &[usize], seed: u64, budget: Duration) -> f64 {
    let offsets = k.offsets(positions);
    let weights = random_tensor(&[positions.len()], seed).into_vec();
    let padded = random_tensor(&[k.geo.n * k.geo.plane_len], seed + 1).into_vec();
    let mut out = vec![0.0f32; k.geo.n * k.hw * k.hw];
    let s = per_call_s(budget, || {
        accumulate_plane_batch_dyn(
            black_box(&mut out),
            black_box(&padded),
            k.geo,
            k.hw,
            k.hw,
            k.pw,
            &offsets,
            &weights,
            1,
        );
    });
    k.macs(positions.len()) / s / 1e9
}

/// The int8 twin. Codes are ±1 so the i32 accumulators cannot overflow
/// within any budget the time cap allows.
fn i8_gmacs(k: &KernelGeometry, positions: &[usize], budget: Duration) -> f64 {
    let offsets = k.offsets(positions);
    let weights: Vec<i8> = (0..positions.len())
        .map(|i| if i % 2 == 0 { 1 } else { -1 })
        .collect();
    let padded: Vec<i8> = (0..k.geo.n * k.geo.plane_len)
        .map(|i| if i % 3 == 0 { -1 } else { 1 })
        .collect();
    let mut out = vec![0i32; k.geo.n * k.hw * k.hw];
    let s = per_call_s(budget, || {
        accumulate_plane_batch_dyn_i8(
            black_box(&mut out),
            black_box(&padded),
            k.geo,
            k.hw,
            k.hw,
            k.pw,
            &offsets,
            &weights,
            1,
        );
    });
    k.macs(positions.len()) / s / 1e9
}

fn pad_ns(hw: usize, seed: u64, budget: Duration) -> (f64, f64) {
    let plane = random_tensor(&[hw * hw], seed).into_vec();
    let (ph, pw) = padded_dims(hw, hw, 1);
    let mut buf = vec![0.0f32; ph * pw];
    let f32_ns = per_call_s(budget, || {
        pad_plane_overwrite(black_box(&plane), hw, hw, 1, black_box(&mut buf));
    }) * 1e9;
    let mut qbuf = vec![0i8; ph * pw];
    let quant_ns = per_call_s(budget, || {
        pad_quant_plane_overwrite(
            black_box(&plane),
            hw,
            hw,
            1,
            1.0 / 127.0,
            127,
            black_box(&mut qbuf),
        );
    }) * 1e9;
    (f32_ns, quant_ns)
}

fn tensor_probes(seed: u64, budget: Duration, m: &mut Vec<(&'static str, f64)>) {
    let k = KernelGeometry::new();
    // Four taps as the paper's default plan keeps; nine is the dense
    // kernel through the same machinery. Their ratio is Mao et al.'s
    // yardstick: regular sparsity should cost the same per surviving MAC.
    m.push((
        "tensor.f32_sparse_gmacs",
        f32_gmacs(&k, &[0, 2, 4, 7], seed, budget),
    ));
    m.push((
        "tensor.f32_dense9_gmacs",
        f32_gmacs(&k, &[0, 1, 2, 3, 4, 5, 6, 7, 8], seed, budget),
    ));
    m.push((
        "tensor.i8_sparse_gmacs",
        i8_gmacs(&k, &[0, 2, 4, 7], budget),
    ));
    let (p16, q16) = pad_ns(16, seed + 2, budget);
    let (p4, q4) = pad_ns(4, seed + 3, budget);
    m.push(("tensor.pad_plane_ns", p16));
    m.push(("tensor.pad_quant_plane_ns", q16));
    m.push(("tensor.pad_plane_4x4_ns", p4));
    m.push(("tensor.pad_quant_plane_4x4_ns", q4));

    let pool = ThreadPool::with_default_threads();
    let roundtrip = per_call_s(budget, || {
        let jobs: Vec<_> = (0..pool.threads()).map(|_| || ()).collect();
        black_box(pool.run_batch(jobs));
    });
    m.push(("tensor.pool_roundtrip_us", roundtrip * 1e6));
}

fn nn_probe(seed: u64, budget: Duration, m: &mut Vec<(&'static str, f64)>) {
    let mut model = vgg16_proxy(&wide_cfg(), stream(seed, 1));
    let x = random_tensor(&[BATCH, 3, 16, 16], stream(seed, 6));
    let s = per_call_s(budget, || {
        black_box(model.forward(black_box(&x), false));
    });
    m.push(("nn.dense_forward_ms", s * 1e3));
}

/// `core.*`, `runtime.compile_*`, the exact compile counters and
/// `accel.*`, from a few traced pipeline passes.
///
/// # Errors
///
/// A pass that fails one of its correctness checks.
fn pipeline_probes(seed: u64, m: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let fx = pipeline::Fixture::new(seed);
    let mut rec = Recorder::new(Instant::now());
    let mut facts: Option<PassFacts> = None;
    for i in 0..PIPELINE_PASSES {
        // The same weights every pass: the counters below are exact.
        let f = pipeline::pass(&fx, stream(seed, 100), &mut rec, true, i)?;
        if facts.get_or_insert_with(|| f.clone()) != &f {
            return Err("pipeline counters moved between passes on the same weights".into());
        }
    }
    let f = facts.expect("at least one pass ran");
    let sim_host_ms = median_ms(&rec.spans, pipeline::SIMULATE);
    let ideal = 9.0 / 4.0;
    m.extend([
        ("core.distill_ms", median_ms(&rec.spans, pipeline::DISTILL)),
        ("core.project_ms", median_ms(&rec.spans, pipeline::PROJECT)),
        (
            "core.spm_encode_ms",
            median_ms(&rec.spans, pipeline::ENCODE),
        ),
        ("core.kernels", f.kernels as f64),
        ("core.patterns_used", f.patterns_used as f64),
        ("core.index_overhead_pct", f.index_overhead_pct),
        (
            "runtime.compile_f32_ms",
            median_ms(&rec.spans, pipeline::COMPILE_F32),
        ),
        (
            "runtime.compile_int8_ms",
            median_ms(&rec.spans, pipeline::COMPILE_INT8),
        ),
        ("runtime.pattern_groups", f.pattern_groups as f64),
        (
            "runtime.dispatches_per_image",
            f.dispatches_per_image as f64,
        ),
        ("runtime.skipped_kernels", f.skipped_kernels as f64),
        ("compression_x", f.compression),
        ("sim_speedup_x", f.sim_speedup),
        ("accel.sim_host_ms", sim_host_ms),
        (
            "accel.sim_gmacs_per_host_s",
            f.sim_macs as f64 / (sim_host_ms / 1e3) / 1e9,
        ),
        ("accel.sim_cycles", f.sim_cycles as f64),
        ("accel.dense_cycles", f.dense_cycles as f64),
        ("accel.utilization", f.sim_utilization),
        // The only reference in the repo is the ideal 9/n; the cycle
        // model is otherwise unvalidated against silicon.
        (
            "accel.speedup_err_vs_ideal_pct",
            (f.sim_speedup - ideal).abs() / ideal * 100.0,
        ),
        (
            "accel.exec_conv_host_ms",
            median_ms(&rec.spans, pipeline::EXECUTE),
        ),
        ("accel.exec_conv_cycles", f.exec_cycles as f64),
        ("accel.exec_conv_max_abs_err", f.exec_max_abs_err),
    ]);
    Ok(())
}

/// Images per second of `infer_coalesced_at` with batches of 8.
fn rate(engine: &Engine, precision: Precision, pool: &[pcnn_tensor::Tensor], b: Duration) -> f64 {
    direct_batches(engine, precision, pool, BATCH, b).images_per_s
}

fn runtime_probes(
    seed: u64,
    budget: Duration,
    m: &mut Vec<(&'static str, f64)>,
    walk_spans: &mut Vec<Span>,
) {
    let weights = stream(seed, 1);
    let (graph, _) = build_graph(&wide_cfg(), weights, &plan_n4(), true);
    let graph = Arc::new(graph);
    let pool = request_pool(stream(seed, 2), BATCH);
    let x1 = &pool[0];

    let b1 = per_call_s(budget, || {
        black_box(graph.run(black_box(x1)));
    });
    let b1_int8 = per_call_s(budget, || {
        black_box(graph.run_with(black_box(x1), Precision::Int8));
    });
    m.push(("runtime.graph_run_b1_ms", b1 * 1e3));
    m.push(("runtime.graph_run_b1_int8_ms", b1_int8 * 1e3));

    // Armed only around `run` on this thread, every pool idle: exact.
    let (_, counts) = alloc::counting(|| black_box(graph.run(black_box(x1))));
    m.push(("runtime.allocs_per_image", counts.calls as f64));
    m.push(("runtime.alloc_bytes_per_image", counts.bytes as f64));

    // Serial walk of the public ops: which part of a pass a kernel PR
    // can reach.
    let names: Vec<&'static str> = (0..graph.ops().len())
        .map(|i| intern(format!("runtime.op.{i}")))
        .collect();
    let mut rec = Recorder::new(Instant::now());
    let (mut conv_ms, mut other_ms) = (Vec::new(), Vec::new());
    let begin = Instant::now();
    let mut walk = 0u64;
    while walk < 3 || begin.elapsed() < budget {
        let t0 = Instant::now();
        let (mut conv, mut other) = (0.0f64, 0.0f64);
        let mut cur = x1.clone();
        for (i, op) in graph.ops().iter().enumerate() {
            let s = Instant::now();
            cur = op.run(&cur);
            let e = Instant::now();
            rec.push(names[i], Some(OP_WALK), walk, s, e);
            let ms = (e - s).as_secs_f64() * 1e3;
            if matches!(op, Op::PatternConv(_)) {
                conv += ms;
            } else {
                other += ms;
            }
        }
        black_box(&cur);
        rec.push(OP_WALK, None, walk, t0, Instant::now());
        conv_ms.push(conv);
        other_ms.push(other);
        walk += 1;
    }
    m.push(("runtime.op_ms.conv3x3", median(&conv_ms)));
    m.push(("runtime.op_ms.other", median(&other_ms)));
    walk_spans.append(&mut rec.spans);

    let sparse = Engine::from_shared(graph.clone(), ENGINE_THREADS);
    m.push((
        "runtime.infer_coalesced_b8_ms",
        direct_batches(&sparse, Precision::F32, &pool, BATCH, budget).p50_ms,
    ));

    // The same machinery with all nine taps kept, and the im2col
    // lowering of the unpruned model: interleaved so drift hits every
    // side of a ratio alike.
    let (nine, _) = build_graph(
        &wide_cfg(),
        weights,
        &PrunePlan::uniform(PRUNABLE, 9, 1),
        false,
    );
    let nine = fixtures::engine(nine);
    let dense = fixtures::engine(compile_dense(&vgg16_proxy(&wide_cfg(), weights)));
    let (mut vs_nine, mut vs_dense, mut int8_vs_f32) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..RATIO_ROUNDS {
        let f = rate(&sparse, Precision::F32, &pool, budget);
        vs_nine.push(f / rate(&nine, Precision::F32, &pool, budget));
        vs_dense.push(f / rate(&dense, Precision::F32, &pool, budget));
        int8_vs_f32.push(rate(&sparse, Precision::Int8, &pool, budget) / f);
    }
    m.push(("runtime.ideal_fraction", median(&vs_nine) / (9.0 / 4.0)));
    m.push(("runtime.vs_im2col_x", median(&vs_dense)));
    m.push(("runtime.int8_vs_f32_x", median(&int8_vs_f32)));
}

/// What the probes measured.
pub struct Probed {
    /// Every workload-independent per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// The op walk's spans.
    pub walk_spans: Vec<Span>,
}

/// Runs every probe, `budget` each.
///
/// # Errors
///
/// A pipeline pass that fails a correctness check.
pub fn run_all(seed: u64, budget: Duration) -> Result<Probed, String> {
    let mut p = Probed {
        metrics: Vec::new(),
        walk_spans: Vec::new(),
    };
    tensor_probes(stream(seed, 7), budget, &mut p.metrics);
    nn_probe(seed, budget, &mut p.metrics);
    pipeline_probes(seed, &mut p.metrics)?;
    runtime_probes(seed, budget, &mut p.metrics, &mut p.walk_spans);
    Ok(p)
}
