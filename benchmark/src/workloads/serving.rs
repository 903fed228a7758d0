//! The two serving workloads: the same `serve::Server` used two ways.
//!
//! * `serve_closed_tiny` — one client keeps 16 requests in flight on the
//!   tiny f32 proxy. ~80 µs of compute per image, so queue, batcher,
//!   tickets, telemetry and per-call allocation dominate.
//! * `serve_open_wide_int8` — a seeded burst schedule at a fixed rate on
//!   the wide int8 proxy; each request is timed from its due time. Sparse
//!   arrivals, partial batches and the coalescing window set latency.
//!
//! Every served output is compared bit for bit with the single-image
//! `ExecutableGraph::run_with` result of the same input (the repo's
//! batch-split guarantee; int8 quantises activations per image, so it
//! holds there too). The references are computed once before timing.

use super::engine::direct_batches;
use super::{RunOutput, RunPlan, WARMUP_OPS};
use crate::alloc;
use crate::fixtures::{
    self, bits_equal, build_graph, plan_n4, reference_outputs, request_pool, stream, tiny_cfg,
    wide_cfg, PRUNABLE,
};
use crate::schedule::{burst_schedule, tick_ns, MAX_BURST};
use crate::spans::{median_ms, Recorder, ROOT};
use crate::stats::{percentile_or_zero, Windows};
use pcnn_core::PrunePlan;
use pcnn_nn::models::VggProxyConfig;
use pcnn_runtime::{Engine, Precision};
use pcnn_serve::{ServeConfig, Server, ShutdownMode, Ticket};
use pcnn_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Requests the closed-loop client keeps outstanding.
pub const IN_FLIGHT: usize = 16;
/// The open loop's offered rate, fixed here and in `BENCHMARK.json`:
/// about 40 % of the batched int8 capacity of one engine worker on this
/// box (see the README for the measurement).
pub const OPEN_RATE_RPS: f64 = 120.0;

/// One block of the burst schedule: eight bursts, 36 requests.
pub fn open_block_ns() -> u64 {
    u64::from(MAX_BURST) * tick_ns(OPEN_RATE_RPS)
}

const CLOSED_POOL: usize = 256;
const OPEN_POOL: usize = 64;

const SUBMIT: &str = "serve.submit";
const WAIT: &str = "serve.wait";

fn tiny_plan() -> PrunePlan {
    PrunePlan::uniform(PRUNABLE, 2, 32)
}

struct Serving {
    server: Server,
    pool: Vec<Tensor>,
    expected: Vec<Tensor>,
    precision: Precision,
}

fn serve_config(precision: Precision) -> ServeConfig {
    ServeConfig {
        precision,
        ..ServeConfig::default()
    }
}

fn start(
    cfg: &VggProxyConfig,
    seed: u64,
    plan: &PrunePlan,
    precision: Precision,
    pool: usize,
) -> Serving {
    let (graph, _) = build_graph(cfg, stream(seed, 1), plan, precision == Precision::Int8);
    let pool = request_pool(stream(seed, 2), pool);
    let expected = reference_outputs(&graph, &pool, precision);
    let server = Server::start(fixtures::engine(graph), serve_config(precision));
    Serving {
        server,
        pool,
        expected,
        precision,
    }
}

fn cold_start(
    cfg: &VggProxyConfig,
    seed: u64,
    plan: &PrunePlan,
    precision: Precision,
) -> Result<(), String> {
    let s = start(cfg, seed, plan, precision, 1);
    let got = s
        .server
        .submit(s.pool[0].clone())
        .map_err(|e| format!("cold start: submit refused: {e}"))?
        .wait()
        .map_err(|e| format!("cold start: request failed: {e}"))?;
    let report = s.server.shutdown(ShutdownMode::Drain);
    if !bits_equal(&got, &s.expected[0]) {
        return Err("cold start: served output differs from the single-image run".to_string());
    }
    if report.failed + report.aborted > 0 {
        return Err(format!(
            "cold start: drain reported {} failed, {} aborted",
            report.failed, report.aborted
        ));
    }
    Ok(())
}

pub fn closed_cold_start(seed: u64) -> Result<(), String> {
    cold_start(&tiny_cfg(), seed, &tiny_plan(), Precision::F32)
}

pub fn open_cold_start(seed: u64) -> Result<(), String> {
    cold_start(&wide_cfg(), seed, &plan_n4(), Precision::Int8)
}

/// Warm-up, then a fresh queue-depth watermark so `serve.queue_depth_hwm`
/// reads the timed run and not the warm-up's rounds of sixteen.
fn warm_up(s: &Serving) {
    rounds(s, WARMUP_OPS / IN_FLIGHT);
    let _ = s.server.metrics().snapshot_and_reset();
}

/// Submits `rounds × IN_FLIGHT` requests in rounds, waiting each round
/// out. Outcomes are ignored: a fault here recurs in the timed run.
fn rounds(s: &Serving, rounds: usize) {
    let mut cursor = 0usize;
    for _ in 0..rounds {
        let tickets: Vec<Ticket> = (0..IN_FLIGHT)
            .filter_map(|_| {
                cursor = (cursor + 1) % s.pool.len();
                s.server.submit(s.pool[cursor].clone()).ok()
            })
            .collect();
        for t in tickets {
            let _ = t.wait();
        }
    }
}

fn note_first(out: &mut RunOutput, what: String) {
    if out.failed == 1 {
        out.notes.push(format!("first failed operation: {what}"));
    }
}

struct InFlight {
    ticket: Ticket,
    t0: Instant,
    idx: usize,
    op: u64,
    traced: bool,
}

pub fn closed_run(seed: u64, plan: &RunPlan) -> RunOutput {
    let s = start(&tiny_cfg(), seed, &tiny_plan(), Precision::F32, CLOSED_POOL);
    let mut out = RunOutput::new(plan);
    warm_up(&s);

    let begin = Instant::now();
    let mut rec = Recorder::new(begin);
    let deadline_ns = plan.duration_ns();
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(IN_FLIGHT);
    let mut cursor = 0usize;
    loop {
        if (begin.elapsed().as_nanos() as u64) < deadline_ns {
            while inflight.len() < IN_FLIGHT {
                let t0 = Instant::now();
                let traced = plan.traced_at((t0 - begin).as_nanos() as u64);
                let op = out.attempted;
                out.attempted += 1;
                cursor = (cursor + 1) % s.pool.len();
                match s.server.submit(s.pool[cursor].clone()) {
                    Ok(ticket) => {
                        if traced {
                            rec.push(SUBMIT, Some(ROOT), op, t0, Instant::now());
                        }
                        inflight.push_back(InFlight {
                            ticket,
                            t0,
                            idx: cursor,
                            op,
                            traced,
                        });
                    }
                    Err(e) => {
                        out.failed += 1;
                        note_first(&mut out, format!("submit refused: {e}"));
                        break;
                    }
                }
            }
        }
        let Some(f) = inflight.pop_front() else {
            if (begin.elapsed().as_nanos() as u64) < deadline_ns {
                continue; // every submit of this round was refused
            }
            break;
        };
        let w0 = f.traced.then(Instant::now);
        let result = f.ticket.wait();
        let end = Instant::now();
        match result {
            Ok(y) if bits_equal(&y, &s.expected[f.idx]) => out.samples.record(
                (end - begin).as_nanos() as u64,
                (end - f.t0).as_nanos() as u64,
                1,
            ),
            Ok(_) => {
                out.failed += 1;
                note_first(&mut out, "output differs from the single-image run".into());
            }
            Err(e) => {
                out.failed += 1;
                note_first(&mut out, format!("request failed: {e}"));
            }
        }
        if let Some(w0) = w0 {
            rec.push(WAIT, Some(ROOT), f.op, w0, end);
            rec.push(ROOT, None, f.op, f.t0, end);
        }
    }
    out.spans = rec.spans;
    finish(s, plan, &mut out, 0.0);
    out
}

struct Sent {
    ticket: Ticket,
    due: Instant,
    idx: usize,
    op: u64,
    traced: bool,
}

pub fn open_run(seed: u64, plan: &RunPlan) -> RunOutput {
    let s = start(&wide_cfg(), seed, &plan_n4(), Precision::Int8, OPEN_POOL);
    let mut out = RunOutput::new(plan);
    warm_up(&s);

    let bursts = burst_schedule(stream(seed, 3), OPEN_RATE_RPS, plan.duration_ns());
    let begin = Instant::now();
    let mut rec = Recorder::new(begin);
    let mut lags_ms: Vec<f64> = Vec::new();
    let (tx, rx) = mpsc::channel::<Sent>();
    // Two load-generator threads, the box's `nproc`: this one submits on
    // the schedule, the scoped one collects.
    let collected = std::thread::scope(|scope| {
        let expected = &s.expected;
        let collector = scope.spawn(move || {
            let mut rec = Recorder::new(begin);
            let mut samples = Windows::new(plan.window_ns, plan.traced.len());
            let mut failures: Vec<String> = Vec::new();
            for m in rx {
                let w0 = Instant::now();
                let result = m.ticket.wait();
                let end = Instant::now();
                match result {
                    // From the due time: a stall delays every request
                    // queued behind it, and that wait counts.
                    Ok(y) if bits_equal(&y, &expected[m.idx]) => samples.record_at(
                        (m.due - begin).as_nanos() as u64,
                        (end - begin).as_nanos() as u64,
                        (end - m.due).as_nanos() as u64,
                        1,
                    ),
                    Ok(_) => failures.push("output differs from the single-image run".into()),
                    Err(e) => failures.push(format!("request failed: {e}")),
                }
                if m.traced {
                    rec.push(WAIT, Some(ROOT), m.op, w0, end);
                    rec.push(ROOT, None, m.op, m.due, end);
                }
            }
            (samples, failures, rec.spans)
        });

        let mut cursor = 0usize;
        for burst in &bursts {
            let due = begin + Duration::from_nanos(burst.due_ns);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let traced = plan.traced_at(burst.due_ns);
            for _ in 0..burst.size {
                let t0 = Instant::now();
                lags_ms.push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
                let op = out.attempted;
                out.attempted += 1;
                cursor = (cursor + 1) % s.pool.len();
                match s.server.submit(s.pool[cursor].clone()) {
                    Ok(ticket) => {
                        if traced {
                            rec.push(SUBMIT, Some(ROOT), op, t0, Instant::now());
                        }
                        tx.send(Sent {
                            ticket,
                            due,
                            idx: cursor,
                            op,
                            traced,
                        })
                        .expect("the collector outlives the schedule");
                    }
                    Err(e) => {
                        out.failed += 1;
                        note_first(&mut out, format!("submit refused: {e}"));
                    }
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let (samples, failures, collector_spans) = collected;
    out.samples = samples;
    for f in failures {
        out.failed += 1;
        note_first(&mut out, f);
    }
    out.spans = rec.spans;
    out.spans.extend(collector_spans);

    lags_ms.sort_by(f64::total_cmp);
    let lag_p50 = percentile_or_zero(&lags_ms, 0.5);
    let lag_p99 = percentile_or_zero(&lags_ms, 0.99);
    out.notes.push(format!(
        "open loop: {} bursts, {} requests offered at {OPEN_RATE_RPS} req/s; \
         generator lag p50 {lag_p50:.3} ms, p99 {lag_p99:.3} ms (part of each latency: \
         requests are timed from their due time)",
        bursts.len(),
        out.attempted,
    ));
    finish(s, plan, &mut out, lag_p99);
    out
}

/// Drains the server and, on a traced run, measures what only a serving
/// workload can: the server's own counters, and the same graph driven
/// without the front-end.
fn finish(s: Serving, plan: &RunPlan, out: &mut RunOutput, lag_p99_ms: f64) {
    let traced = plan.any_traced();
    let snap = s.server.metrics().snapshot();
    let graph = s.server.engine().shared_graph();
    let threads = s.server.engine().threads();
    // Approximate by construction: client, batcher and engine threads
    // all allocate while the counters are armed.
    let allocs_per_request = if traced {
        const ROUNDS: usize = 32;
        let ((), counts) = alloc::counting(|| rounds(&s, ROUNDS));
        counts.calls as f64 / (ROUNDS * IN_FLIGHT) as f64
    } else {
        0.0
    };
    let Serving {
        server,
        pool,
        precision,
        ..
    } = s;
    let t = Instant::now();
    let report = server.shutdown(ShutdownMode::Drain);
    let drain_ms = t.elapsed().as_secs_f64() * 1e3;
    if report.failed + report.aborted + report.expired > 0 {
        out.notes.push(format!(
            "drain report: {} failed, {} aborted, {} expired over the server's lifetime",
            report.failed, report.aborted, report.expired
        ));
    }
    if !traced {
        return;
    }

    // The served side at its quietest tenth, like the end-to-end figures,
    // so the comparison with the bare engine is not a comparison of noise.
    let quiet = out.samples.quiet(|_| true);
    let (served_rate, request_p50_ms) = quiet.map_or((0.0, 0.0), |q| (q.rate, q.p50_ms));
    let latencies = out.samples.all_latencies_ms();
    let engine = Engine::from_shared(graph, threads);
    let mean_batch = (snap.mean_batch.round() as usize).clamp(1, 8);
    let at_mean = direct_batches(&engine, precision, &pool, mean_batch, plan.probe_budget);
    let at_8 = direct_batches(&engine, precision, &pool, 8, plan.probe_budget);
    out.layer.extend([
        ("serve.submit_us", median_ms(&out.spans, SUBMIT) * 1e3),
        ("serve.overhead_ms", request_p50_ms - at_mean.p50_ms),
        ("serve.vs_engine_x", served_rate / at_8.images_per_s),
        ("serve.mean_batch", snap.mean_batch),
        ("serve.batches", snap.batches as f64),
        (
            "serve.queue_wait_p50_ms",
            snap.queue_wait_p50.as_secs_f64() * 1e3,
        ),
        ("serve.queue_depth_hwm", snap.queue_depth_hwm as f64),
        ("serve.rejected", snap.rejected as f64),
        ("serve.failed", snap.failed as f64),
        ("serve.expired", snap.expired as f64),
        ("serve.retries", snap.retries as f64),
        ("serve.latency_p99_ms", percentile_or_zero(&latencies, 0.99)),
        ("serve.schedule_lag_p99_ms", lag_p99_ms),
        ("serve.drain_ms", drain_ms),
        ("serve.allocs_per_request", allocs_per_request),
    ]);
}
