//! `engine_batch_wide`: no server. One caller thread loops
//! `Engine::infer_coalesced` with batches of 8 over the wide f32 proxy
//! at the paper's Table I plan (n = 4). `runtime` and the `tensor`
//! kernels do all the work, `serve` none: the `9/n` gap must show here,
//! and a serve-only change must show nothing.
//!
//! One operation is one image; one latency sample is one batch call.

use super::{RunOutput, RunPlan, WARMUP_OPS};
use crate::fixtures::{
    self, bits_equal, build_graph, plan_n4, reference_outputs, request_pool, stream, wide_cfg,
};
use crate::spans::{Recorder, ROOT};
use crate::stats::percentile;
use pcnn_runtime::engine::BatchScratch;
use pcnn_runtime::{Engine, Precision};
use pcnn_tensor::Tensor;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Images per `infer_coalesced` call.
pub const BATCH: usize = 8;
const POOL: usize = 64;
const INFER: &str = "runtime.infer_coalesced";

/// Batch-call latency and image rate of an engine driven directly.
#[derive(Debug, Clone, Copy)]
pub struct Direct {
    pub p50_ms: f64,
    pub images_per_s: f64,
}

/// Loops `infer_coalesced_at` with batches of `batch` for `budget`
/// (at least three calls, the first one untimed).
pub fn direct_batches(
    engine: &Engine,
    precision: Precision,
    pool: &[Tensor],
    batch: usize,
    budget: Duration,
) -> Direct {
    let mut scratch = BatchScratch::new();
    let take = |cursor: &mut usize| -> Vec<Tensor> {
        (0..batch)
            .map(|_| {
                *cursor = (*cursor + 1) % pool.len();
                pool[*cursor].clone()
            })
            .collect()
    };
    let mut cursor = 0usize;
    black_box(engine.infer_coalesced_at(precision, take(&mut cursor), &mut scratch));
    let mut lat_ms = Vec::new();
    let begin = Instant::now();
    while lat_ms.len() < 3 || begin.elapsed() < budget {
        let inputs = take(&mut cursor);
        let t0 = Instant::now();
        black_box(engine.infer_coalesced_at(precision, inputs, &mut scratch));
        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let wall = begin.elapsed().as_secs_f64();
    let images = (lat_ms.len() * batch) as f64;
    lat_ms.sort_by(f64::total_cmp);
    Direct {
        p50_ms: percentile(&lat_ms, 0.5),
        images_per_s: images / wall,
    }
}

struct Fixture {
    engine: Engine,
    pool: Vec<Tensor>,
    expected: Vec<Tensor>,
}

fn setup(seed: u64, pool: usize) -> Fixture {
    let (graph, _) = build_graph(&wide_cfg(), stream(seed, 1), &plan_n4(), false);
    let pool = request_pool(stream(seed, 2), pool);
    let expected = reference_outputs(&graph, &pool, Precision::F32);
    Fixture {
        engine: fixtures::engine(graph),
        pool,
        expected,
    }
}

pub fn cold_start(seed: u64) -> Result<(), String> {
    let fx = setup(seed, BATCH);
    let outs = fx
        .engine
        .infer_coalesced(fx.pool.clone(), &mut BatchScratch::new());
    if outs.len() == BATCH && outs.iter().zip(&fx.expected).all(|(y, w)| bits_equal(y, w)) {
        Ok(())
    } else {
        Err("cold start: batched output differs from the single-image runs".to_string())
    }
}

pub fn run(seed: u64, plan: &RunPlan) -> RunOutput {
    let fx = setup(seed, POOL);
    let mut out = RunOutput::new(plan);
    let mut scratch = BatchScratch::new();
    let mut cursor = 0usize;
    let batch_of = |cursor: &mut usize| -> (usize, Vec<Tensor>) {
        let first = *cursor;
        *cursor = (*cursor + BATCH) % POOL;
        (first, fx.pool[first..first + BATCH].to_vec())
    };
    for _ in 0..WARMUP_OPS / BATCH {
        let (_, inputs) = batch_of(&mut cursor);
        black_box(fx.engine.infer_coalesced(inputs, &mut scratch));
    }

    let begin = Instant::now();
    let mut rec = Recorder::new(begin);
    let deadline_ns = plan.duration_ns();
    loop {
        let op_start = Instant::now();
        let at_ns = (op_start - begin).as_nanos() as u64;
        if at_ns >= deadline_ns {
            break;
        }
        let traced = plan.traced_at(at_ns);
        let op = out.attempted;
        out.attempted += BATCH as u64;
        let (first, inputs) = batch_of(&mut cursor);
        let t0 = Instant::now();
        let outs = fx.engine.infer_coalesced(inputs, &mut scratch);
        let t1 = Instant::now();
        let right = outs.len() == BATCH
            && outs
                .iter()
                .zip(&fx.expected[first..first + BATCH])
                .all(|(y, w)| bits_equal(y, w));
        if right {
            out.samples.record(
                (t1 - begin).as_nanos() as u64,
                (t1 - t0).as_nanos() as u64,
                BATCH as u32,
            );
        } else {
            out.failed += BATCH as u64;
            if out.failed == BATCH as u64 {
                out.notes.push(
                    "first failed operation: batched output differs from the single-image runs"
                        .to_string(),
                );
            }
        }
        if traced {
            rec.push(INFER, Some(ROOT), op, t0, t1);
            rec.push(ROOT, None, op, op_start, Instant::now());
        }
    }
    out.spans = rec.spans;
    out
}
