//! Kernel microbenchmark: how much of the paper's ideal `9/n` layer
//! speedup the compiled pattern kernels actually realize, and where
//! each optimisation tier gets it.
//!
//! For every (dtype ∈ {f32, int8}) × (n ∈ {2, 4}) × (plane width ∈
//! {2, 4, 8, 16, 32}) cell, one pattern-sparse layer (32×32 channels,
//! 3×3 kernels, pad 1, batch 8) runs in three execution tiers:
//!
//! * `scalar` — SIMD pinned to the scalar fallback, per-kernel walk;
//! * `simd`   — the active SIMD tier (AVX2 where detected), per-kernel
//!   walk (what every geometry without a tile runs);
//! * `tiled`  — active SIMD tier on the band-resident tile walk, the
//!   production path (width 2 has no tile and repeats `simd`).
//!
//! Each tier's *layer speedup* is measured against a dense baseline
//! running the **same machinery** with the full 9-tap pattern
//! (`PatternSet::full(9, 9)`) in the same tier — so the ratio isolates
//! what pattern sparsity buys, exactly the paper's `9/n` ideal — and is
//! reported as the achieved fraction of that ideal. The int8 cells also
//! record `int8_vs_f32`: tiled int8 throughput relative to tiled f32
//! on the identical geometry (the tiny-plane deficit tracker).
//!
//! Writes `BENCH_kernels.json` at the repo root so the trajectory is
//! comparable across PRs. `PCNN_BENCH_SMOKE=1` caps iteration counts.
//!
//! ```text
//! cargo bench -p pcnn-bench --bench kernel_microbench
//! ```

use pcnn_core::pattern::PatternSet;
use pcnn_core::project::project_onto_set;
use pcnn_runtime::ops::Op;
use pcnn_runtime::{
    json, ConvScratch, Engine, ExecutableGraph, PatternConv, Precision, QuantOptions, Walk,
};
use pcnn_tensor::conv::Conv2dShape;
use pcnn_tensor::simd::{self, SimdLevel};
use pcnn_tensor::Tensor;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::time::Instant;

const CHANNELS: usize = 32;
const BATCH: usize = 8;
const WIDTHS: [usize; 5] = [2, 4, 8, 16, 32];
const NS: [usize; 2] = [2, 4];

fn random_pruned(out_c: usize, in_c: usize, set: &PatternSet, seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut w = Tensor::from_vec(
        (0..out_c * in_c * 9)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
        &[out_c, in_c, 3, 3],
    );
    for kernel in w.as_mut_slice().chunks_mut(9) {
        let _ = project_onto_set(kernel, set);
    }
    w
}

fn random_input(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// One sparse layer plus its same-geometry dense (9-tap) twin, both
/// carrying int8 weights next to their f32 ones.
struct Layer {
    sparse: PatternConv,
    dense: PatternConv,
    hw: usize,
    input: Vec<f32>,
    out_len: usize,
}

fn build_layer(n: usize, hw: usize) -> Layer {
    let shape = Conv2dShape::new(CHANNELS, CHANNELS, 3, 1, 1);
    let sparse_set = PatternSet::full(9, n);
    let dense_set = PatternSet::full(9, 9);
    let ws = random_pruned(CHANNELS, CHANNELS, &sparse_set, 11 + n as u64);
    let wd = random_pruned(CHANNELS, CHANNELS, &dense_set, 13);
    let qopts = QuantOptions::default();
    let sparse = PatternConv::from_dense(&ws, shape, &sparse_set).expect("encode sparse");
    let dense = PatternConv::from_dense(&wd, shape, &dense_set).expect("encode dense");
    let (oh, ow) = shape.out_hw(hw, hw);
    Layer {
        sparse: sparse.with_int8(&qopts),
        dense: dense.with_int8(&qopts),
        hw,
        input: random_input(BATCH * CHANNELS * hw * hw, 17 + hw as u64),
        out_len: BATCH * CHANNELS * oh * ow,
    }
}

/// Calibrates an iteration count so one measurement leg lasts about
/// `budget_ms`.
fn calibrate(budget_ms: f64, run: &mut impl FnMut()) -> usize {
    run(); // warm caches and scratch
    let probe = Instant::now();
    run();
    let once = probe.elapsed().as_secs_f64() * 1e3;
    ((budget_ms / once.max(1e-4)).ceil() as usize).clamp(3, 20_000)
}

fn leg_ms(iters: usize, run: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        run();
    }
    t.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// Times two closures in **paired rounds**: each round runs `a` then
/// `b` back-to-back, so co-tenant load on this shared box tends to hit
/// a pair together rather than skewing one side. Returns the per-leg
/// minima and the **median** per-round `a/b` ratio — the median (not
/// the best) because with short legs a burst of interference can land
/// on one leg alone and inflate a single round's ratio either way.
fn time_pair(budget_ms: f64, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64, f64) {
    let ia = calibrate(budget_ms, &mut a);
    let ib = calibrate(budget_ms, &mut b);
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = [0.0f64; 5];
    for r in &mut ratios {
        let ta = leg_ms(ia, &mut a);
        let tb = leg_ms(ib, &mut b);
        best_a = best_a.min(ta);
        best_b = best_b.min(tb);
        *r = ta / tb;
    }
    ratios.sort_by(f64::total_cmp);
    (best_a, best_b, ratios[2])
}

/// Runs the production path of one layer op at `precision` through the
/// engine's per-layer profiler and returns the **median round's**
/// `LayerProfile` record — the same schema `ExecProfile` emits, so the
/// microbench trajectory and live serving profiles line up key-for-key.
fn profiled_layer_record(op: Op, precision: Precision, input: &Tensor, iters: usize) -> String {
    let graph = ExecutableGraph::new(vec![op]).with_int8(&QuantOptions::default());
    let engine = Engine::new(graph, 1);
    engine.enable_profiling();
    let _ = engine.infer_with(input, precision); // warm caches and scratch
    let mut rounds: Vec<(u64, String)> = (0..5)
        .map(|_| {
            engine.profiler().reset();
            for _ in 0..iters {
                let _ = engine.infer_with(input, precision);
            }
            let profile = engine.exec_profile();
            let slice = profile
                .precisions
                .iter()
                .find(|p| p.precision == precision.label())
                .expect("the graph carries both precisions");
            let layer = &slice.layers[0];
            (layer.total_ns, layer.to_json())
        })
        .collect();
    rounds.sort_by_key(|r| r.0);
    rounds.swap_remove(rounds.len() / 2).1
}

struct Tier {
    key: &'static str,
    level: SimdLevel,
    walk: Walk,
}

const TILED: &str = "tiled";

fn tiers() -> [Tier; 3] {
    [
        Tier {
            key: "scalar",
            level: SimdLevel::Scalar,
            walk: Walk::PerKernel,
        },
        Tier {
            key: "simd",
            level: simd::active(),
            walk: Walk::PerKernel,
        },
        Tier {
            key: TILED,
            level: simd::active(),
            walk: Walk::Tiled,
        },
    ]
}

/// A rerunnable forward pass at a pinned tier and precision.
fn run<'a>(
    conv: &'a PatternConv,
    precision: Precision,
    layer: &'a Layer,
    tier: &Tier,
) -> impl FnMut() + 'a {
    let mut out = vec![0.0f32; layer.out_len];
    let mut scratch = ConvScratch::default();
    let (level, walk) = (tier.level, tier.walk);
    move || {
        conv.forward_batch_at(
            level,
            walk,
            precision,
            &layer.input,
            BATCH,
            layer.hw,
            layer.hw,
            &mut out,
            &mut scratch,
        );
    }
}

fn main() {
    let smoke = std::env::var("PCNN_BENCH_SMOKE").is_ok();
    let budget_ms = if smoke { 8.0 } else { 80.0 };
    let level = simd::active();
    println!(
        "kernel microbench: {CHANNELS}x{CHANNELS} channels, batch {BATCH}, simd tier {level}\n"
    );

    let mut cells = Vec::new();
    let mut layer_records = Vec::new();
    let mut summary: Vec<(String, f64)> = Vec::new();
    for &n in &NS {
        let ideal = 9.0 / n as f64;
        for &hw in &WIDTHS {
            let layer = build_layer(n, hw);
            for precision in Precision::ALL {
                let dtype = precision.label();
                let mut tier_blocks: Vec<(&str, String)> = Vec::new();
                let mut tiled_sparse_ms = f64::INFINITY;
                println!("== {dtype} n={n} plane {hw}x{hw} (ideal {ideal:.2}x) ==");
                for tier in tiers() {
                    // Paired rounds: dense and sparse legs run
                    // back-to-back, the speedup is the best per-round
                    // ratio (interference only deflates it).
                    let (dense_ms, sparse_ms, speedup) = time_pair(
                        budget_ms,
                        run(&layer.dense, precision, &layer, &tier),
                        run(&layer.sparse, precision, &layer, &tier),
                    );
                    let fraction = speedup / ideal;
                    println!(
                        "  {:>7}: sparse {sparse_ms:8.4} ms  dense {dense_ms:8.4} ms  \
                         speedup {speedup:5.2}x  ({:5.1}% of ideal)",
                        tier.key,
                        fraction * 100.0
                    );
                    if tier.key == TILED {
                        summary.push((format!("{dtype}_n{n}_w{hw}_speedup"), speedup));
                        tiled_sparse_ms = sparse_ms;
                    }
                    let block = json::object(|o| {
                        o.fixed("sparse_ms", sparse_ms, 5)
                            .fixed("dense_ms", dense_ms, 5)
                            .fixed("speedup", speedup, 3)
                            .fixed("ideal", ideal, 3)
                            .fixed("fraction", fraction, 3);
                    });
                    tier_blocks.push((tier.key, block));
                }
                let cell = json::object(|o| {
                    o.str("dtype", dtype).int("n", n).int("width", hw);
                    for (tier, block) in &tier_blocks {
                        o.raw(tier, block);
                    }
                });
                cells.push((format!("{dtype}_n{n}_w{hw}"), cell));
                // The same cell once more through the engine's
                // per-layer profiler (the production path), emitted in
                // the ExecProfile layer-record schema.
                let x = Tensor::from_vec(layer.input.clone(), &[BATCH, CHANNELS, hw, hw]);
                let op = Op::PatternConv(layer.sparse.clone());
                let iters =
                    ((budget_ms / tiled_sparse_ms.max(1e-4)).ceil() as usize).clamp(3, 2000);
                layer_records.push((
                    format!("{dtype}_n{n}_w{hw}"),
                    profiled_layer_record(op, precision, &x, iters),
                ));
            }
            // The deficit tracker: tiled f32 vs tiled int8, paired.
            let [_, _, tiled] = tiers();
            let (_, _, ratio) = time_pair(
                budget_ms,
                run(&layer.sparse, Precision::F32, &layer, &tiled),
                run(&layer.sparse, Precision::Int8, &layer, &tiled),
            );
            println!("  int8 vs f32 (tiled): {ratio:.2}x\n");
            summary.push((format!("int8_over_f32_n{n}_w{hw}"), ratio));
        }
    }

    let json = json::object(|o| {
        o.str("bench", "kernel_microbench")
            .str("simd_level", level.label())
            .int("batch", BATCH)
            .int("channels", CHANNELS)
            .bool("smoke", smoke)
            .str(
                "note",
                "speedup = dense(9-tap, same tier) / sparse(n-tap); fraction = speedup / (9/n); \
                 int8_over_f32 compares tiled int8 vs tiled f32 on identical geometry",
            )
            .object("cells", |c| {
                for (key, cell) in &cells {
                    c.raw(key, cell);
                }
            })
            .object("layer_records", |r| {
                for (key, record) in &layer_records {
                    r.raw(key, record);
                }
            })
            .object("summary", |s| {
                for (key, value) in &summary {
                    s.fixed(key, *value, 3);
                }
            });
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, &json).expect("write BENCH_kernels.json");
    println!("wrote {path}");
}
