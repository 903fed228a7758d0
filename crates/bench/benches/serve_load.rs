//! Load-generator benchmark for the `pcnn-serve` front-end, in two
//! canonical shapes:
//!
//! * **closed loop** — N client threads, each submit-and-wait in a
//!   tight loop: measures saturated throughput, and the value of
//!   dynamic batching by running the identical load at `max_batch = 1`
//!   and a tuned batched configuration (half the clients per batch, so
//!   one batch coalesces while another executes);
//! * **open loop** — requests arrive on a fixed clock regardless of
//!   completions (the arrival process real services see): measures
//!   latency percentiles at a target rate and counts what admission
//!   control sheds.
//!
//! Both shapes then repeat **sharded** (`ServeConfig::shards`, auto by
//! default, overridable with `PCNN_BENCH_SHARDS`): the same admission
//! queue fans out to one batcher per engine shard, and each sharded
//! round is paired with a single-shard round on the same machine state
//! so the reported ratio isolates the topology change.
//!
//! Results print human-readably and are written machine-readably to
//! `BENCH_serve.json` at the workspace root, so the serving perf
//! trajectory is tracked across PRs.
//!
//! ```text
//! cargo bench -p pcnn-bench --bench serve_load
//! ```

use pcnn_core::PrunePlan;
use pcnn_nn::models::{vgg16_proxy, VggProxyConfig};
use pcnn_runtime::compile::{prune_and_compile, CompileOptions};
use pcnn_runtime::json::{self, Obj};
use pcnn_runtime::Engine;
use pcnn_serve::{
    ServeConfig, ServeError, Server, SupervisorConfig, TelemetrySnapshot, TraceConfig,
};
use pcnn_tensor::Tensor;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn random_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        shape,
    )
}

fn build_engine() -> Engine {
    let cfg = VggProxyConfig::default();
    let mut model = vgg16_proxy(&cfg, 7);
    let plan = PrunePlan::uniform(13, 2, 32);
    let (graph, _, _) = prune_and_compile(&mut model, &plan, &CompileOptions::default())
        .expect("proxy lowers cleanly");
    Engine::with_default_threads(graph)
}

struct ClosedLoopResult {
    rps: f64,
    /// Resolved shard count (auto expands to a concrete number).
    shards: usize,
    snapshot: TelemetrySnapshot,
}

/// `clients` threads submit-and-wait `per_client` times each.
fn closed_loop(config: ServeConfig, clients: usize, per_client: usize) -> ClosedLoopResult {
    let hw = VggProxyConfig::default().input_hw;
    // Pre-generate every client's inputs so the measured loop has no
    // think time: submit → wait → submit, as fast as the server allows.
    let mut request_sets: Vec<Vec<Tensor>> = (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|i| random_tensor(&[1, 3, hw, hw], (c * 100_000 + i) as u64))
                .collect()
        })
        .collect();
    // Start the server only now: its telemetry clock begins at start(),
    // and dead setup time must not deflate the recorded throughput.
    let server = Arc::new(Server::start(build_engine(), config));
    let start = Instant::now();
    let workers: Vec<_> = request_sets
        .drain(..)
        .map(|inputs| {
            let server = server.clone();
            std::thread::spawn(move || {
                for x in inputs {
                    server
                        .submit(x)
                        .expect("closed loop never overflows the queue")
                        .wait()
                        .expect("request served");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let wall = start.elapsed();
    let snapshot = server.metrics().snapshot();
    assert_eq!(
        snapshot.completed as usize,
        clients * per_client,
        "no ticket may be lost"
    );
    ClosedLoopResult {
        rps: (clients * per_client) as f64 / wall.as_secs_f64(),
        shards: server.shards(),
        snapshot,
    }
}

struct OpenLoopResult {
    offered_rps: f64,
    accepted: u64,
    rejected: u64,
    snapshot: TelemetrySnapshot,
}

/// One submitter on a fixed clock (`rate` req/s), one collector waiting
/// tickets — arrivals do not depend on completions.
fn open_loop(config: ServeConfig, rate: f64, total: usize) -> OpenLoopResult {
    let hw = VggProxyConfig::default().input_hw;
    let inputs: Vec<Tensor> = (0..total)
        .map(|i| random_tensor(&[1, 3, hw, hw], 7_000_000 + i as u64))
        .collect();
    let server = Arc::new(Server::start(build_engine(), config));
    let (tx, rx) = std::sync::mpsc::channel();
    let collector = std::thread::spawn(move || {
        let mut served = 0u64;
        while let Ok(ticket) = rx.recv() {
            let ticket: pcnn_serve::Ticket = ticket;
            if ticket.wait().is_ok() {
                served += 1;
            }
        }
        served
    });
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for (i, x) in inputs.into_iter().enumerate() {
        // Fixed-clock arrivals; sleep (not spin) so the submitter does
        // not starve the batcher of the CPU.
        let deadline = start + period * i as u32;
        let now = Instant::now();
        if now < deadline {
            std::thread::sleep(deadline - now);
        }
        match server.submit(x) {
            Ok(t) => {
                accepted += 1;
                tx.send(t).expect("collector alive");
            }
            Err(ServeError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let offered_rps = total as f64 / start.elapsed().as_secs_f64();
    drop(tx);
    let served = collector.join().expect("collector");
    assert_eq!(served, accepted, "every accepted ticket must resolve");
    OpenLoopResult {
        offered_rps,
        accepted,
        rejected,
        snapshot: server.metrics().snapshot(),
    }
}

/// Coalescing window of the batched configuration (override with
/// PCNN_BENCH_MAX_WAIT_US for tuning sweeps). With pipelined dispatch
/// the window overlaps the in-flight batch's execution, so a window on
/// the order of the batch service time fills batches without idling
/// the engine.
fn batched_max_wait() -> Duration {
    Duration::from_micros(
        std::env::var("PCNN_BENCH_MAX_WAIT_US")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2000),
    )
}

/// Batch cap of the batched configuration (override with
/// PCNN_BENCH_MAX_BATCH). Smaller than the client count on purpose:
/// with pipelined dispatch, one batch coalesces while another executes,
/// and a moderate batch keeps the padded-plane working set cache-sized.
fn batched_max_batch() -> usize {
    std::env::var("PCNN_BENCH_MAX_BATCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

/// Shard count of the sharded section (override with PCNN_BENCH_SHARDS;
/// 0 = auto, one shard per core capped at the engine's worker count).
fn bench_shards() -> usize {
    std::env::var("PCNN_BENCH_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn closed_loop_block(o: &mut Obj<'_>, tag: &str, r: &ClosedLoopResult) {
    o.object(tag, |b| {
        b.fixed("throughput_rps", r.rps, 3)
            .raw("telemetry", &r.snapshot.to_json());
    });
}

fn open_loop_block(o: &mut Obj<'_>, r: &OpenLoopResult) {
    o.object("open_loop", |b| {
        b.fixed("offered_rps", r.offered_rps, 3)
            .int("accepted", r.accepted)
            .int("rejected", r.rejected)
            .raw("telemetry", &r.snapshot.to_json());
    });
}

/// One paired on-vs-off overhead measurement: best per-leg throughput
/// and the best pair's ratio.
struct Overhead {
    off_rps: f64,
    on_rps: f64,
    ratio: f64,
    pct: f64,
}

fn overhead_members(o: &mut Obj<'_>, v: &Overhead) {
    o.fixed("off_rps", v.off_rps, 3)
        .fixed("on_rps", v.on_rps, 3)
        .fixed("ratio", v.ratio, 4)
        .fixed("overhead_pct", v.pct, 3);
}

fn main() {
    let smoke = std::env::var("PCNN_BENCH_SMOKE").is_ok();
    let clients = 12usize;
    let per_client = if smoke { 25 } else { 150 };

    let rounds = if smoke { 2 } else { 3 };
    println!(
        "== closed loop: {clients} clients x {per_client} requests, best of {rounds} rounds =="
    );
    // The two configurations run as back-to-back pairs so each pair
    // sees the same machine state (the box this runs on is shared, and
    // co-tenant load comes and goes mid-run); the reported speedup is
    // the BEST per-pair ratio — external contention only ever deflates
    // a pair, so the cleanest pair is the best estimate of the true
    // capacity ratio.
    let mut batch1: Option<ClosedLoopResult> = None;
    let mut batched: Option<ClosedLoopResult> = None;
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let r1 = closed_loop(
            ServeConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
                ..ServeConfig::default()
            },
            clients,
            per_client,
        );
        let r8 = closed_loop(
            ServeConfig {
                max_batch: batched_max_batch(),
                max_wait: batched_max_wait(),
                ..ServeConfig::default()
            },
            clients,
            per_client,
        );
        println!(
            "  round {round}: batch-1 {:7.1} req/s   batched {:7.1} req/s   ratio {:.2}x",
            r1.rps,
            r8.rps,
            r8.rps / r1.rps
        );
        ratios.push(r8.rps / r1.rps);
        if batch1.as_ref().is_none_or(|b| r1.rps > b.rps) {
            batch1 = Some(r1);
        }
        if batched.as_ref().is_none_or(|b| r8.rps > b.rps) {
            batched = Some(r8);
        }
    }
    let batch1 = batch1.expect("at least one round");
    let batched = batched.expect("at least one round");
    println!(
        "max_batch=1 : {:8.1} req/s   p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
        batch1.rps,
        ms(batch1.snapshot.latency_p50),
        ms(batch1.snapshot.latency_p95),
        ms(batch1.snapshot.latency_p99),
    );
    println!(
        "max_batch={}: {:8.1} req/s   p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms   (mean batch {:.2})",
        batched_max_batch(),
        batched.rps,
        ms(batched.snapshot.latency_p50),
        ms(batched.snapshot.latency_p95),
        ms(batched.snapshot.latency_p99),
        batched.snapshot.mean_batch,
    );
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    let speedup = *ratios.last().expect("at least one round");
    println!(
        "dynamic batching speedup: {speedup:.2}x best paired round ({median:.2}x median of {rounds})"
    );

    println!("\n== open loop: fixed-rate arrivals at ~70% of batched capacity ==");
    let rate = batched.rps * 0.7;
    let open = open_loop(
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(500),
            ..ServeConfig::default()
        },
        rate,
        if smoke { 200 } else { 1500 },
    );
    println!(
        "offered {:.1} req/s: {} accepted, {} rejected   p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
        open.offered_rps,
        open.accepted,
        open.rejected,
        ms(open.snapshot.latency_p50),
        ms(open.snapshot.latency_p95),
        ms(open.snapshot.latency_p99),
    );

    // == Sharded: same batched load, N batchers on one queue ============
    let shards_cfg = |shards: usize| ServeConfig {
        shards,
        max_batch: batched_max_batch(),
        max_wait: batched_max_wait(),
        ..ServeConfig::default()
    };
    let mut single: Option<ClosedLoopResult> = None;
    let mut sharded: Option<ClosedLoopResult> = None;
    let mut shard_ratios = Vec::with_capacity(rounds);
    println!(
        "\n== sharded closed loop: shards = {} (0 = auto), paired vs single shard ==",
        bench_shards()
    );
    for round in 0..rounds {
        // Paired per round like the batching comparison: co-tenant load
        // deflates a pair, never inflates one side of it.
        let r1 = closed_loop(shards_cfg(1), clients, per_client);
        let rn = closed_loop(shards_cfg(bench_shards()), clients, per_client);
        println!(
            "  round {round}: 1 shard {:7.1} req/s   {} shards {:7.1} req/s   ratio {:.2}x",
            r1.rps,
            rn.shards,
            rn.rps,
            rn.rps / r1.rps
        );
        shard_ratios.push(rn.rps / r1.rps);
        if single.as_ref().is_none_or(|b| r1.rps > b.rps) {
            single = Some(r1);
        }
        if sharded.as_ref().is_none_or(|b| rn.rps > b.rps) {
            sharded = Some(rn);
        }
    }
    let single = single.expect("at least one round");
    let sharded = sharded.expect("at least one round");
    shard_ratios.sort_by(f64::total_cmp);
    // When auto resolves to 1 shard (single-core host), both sides of a
    // pair ran the same topology: any measured ratio is run-to-run
    // noise, not a sharding effect. Report 1.0 and say so, instead of
    // publishing the noisiest pair as a speedup.
    let distinct_topologies = sharded.shards > 1;
    let (shard_ratio, shard_ratio_median) = if distinct_topologies {
        (
            *shard_ratios.last().expect("at least one round"),
            shard_ratios[shard_ratios.len() / 2],
        )
    } else {
        println!("  (auto resolved to 1 shard on this host: topologies are identical, ratio pinned to 1.0)");
        (1.0, 1.0)
    };
    println!(
        "{} shards: {:8.1} req/s   p50 {:.3} ms  p99 {:.3} ms   vs 1 shard {:.2}x best pair \
         ({:.2}x median of {rounds})",
        sharded.shards,
        sharded.rps,
        ms(sharded.snapshot.latency_p50),
        ms(sharded.snapshot.latency_p99),
        shard_ratio,
        shard_ratio_median,
    );
    for s in &sharded.snapshot.shards {
        println!(
            "  shard {}: {} completed, {} batches ({:.2} images/batch)",
            s.shard, s.completed, s.batches, s.mean_batch
        );
    }

    println!("\n== sharded open loop: fixed-rate arrivals at ~70% of sharded capacity ==");
    let sharded_open = open_loop(
        ServeConfig {
            shards: bench_shards(),
            max_batch: 8,
            max_wait: Duration::from_micros(500),
            ..ServeConfig::default()
        },
        sharded.rps * 0.7,
        if smoke { 200 } else { 1500 },
    );
    println!(
        "offered {:.1} req/s: {} accepted, {} rejected   p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
        sharded_open.offered_rps,
        sharded_open.accepted,
        sharded_open.rejected,
        ms(sharded_open.snapshot.latency_p50),
        ms(sharded_open.snapshot.latency_p95),
        ms(sharded_open.snapshot.latency_p99),
    );

    // == Tracing overhead: default sampling vs tracing off ==============
    // The observability tentpole's acceptance bar: request-lifecycle
    // tracing at the default 1-in-64 sampling must cost < 2% of
    // closed-loop throughput. Paired rounds like every other comparison
    // here; the BEST pair ratio is the estimate (co-tenant noise only
    // ever deflates a pair).
    println!("\n== tracing overhead: default sampling (1-in-64) vs tracing off ==");
    let trace_cfg = |trace: TraceConfig| ServeConfig {
        max_batch: batched_max_batch(),
        max_wait: batched_max_wait(),
        trace,
        ..ServeConfig::default()
    };
    let mut trace_ratios = Vec::with_capacity(rounds);
    let mut trace_off_best = 0f64;
    let mut trace_on_best = 0f64;
    for round in 0..rounds {
        let off = closed_loop(
            trace_cfg(TraceConfig {
                sample_every: 0, // IDs still assigned; no span capture
                ..TraceConfig::default()
            }),
            clients,
            per_client,
        );
        let on = closed_loop(trace_cfg(TraceConfig::default()), clients, per_client);
        println!(
            "  round {round}: tracing off {:7.1} req/s   on {:7.1} req/s   ratio {:.3}",
            off.rps,
            on.rps,
            on.rps / off.rps
        );
        trace_ratios.push(on.rps / off.rps);
        trace_off_best = trace_off_best.max(off.rps);
        trace_on_best = trace_on_best.max(on.rps);
    }
    trace_ratios.sort_by(f64::total_cmp);
    let trace_ratio = *trace_ratios.last().expect("at least one round");
    let trace_overhead_pct = ((1.0 - trace_ratio) * 100.0).max(0.0);
    println!(
        "tracing overhead: {trace_overhead_pct:.2}% of throughput at default sampling \
         (best pair ratio {trace_ratio:.3}, median {:.3})",
        trace_ratios[trace_ratios.len() / 2],
    );
    // Smoke runs are too short for a stable ratio; they only guard
    // against gross regressions (tracing accidentally always-on, a lock
    // on the submit path, ...).
    let floor = if smoke { 0.80 } else { 0.98 };
    assert!(
        trace_ratio >= floor,
        "tracing at default sampling cost {trace_overhead_pct:.2}% of closed-loop \
         throughput (ratio {trace_ratio:.3} < {floor}): the <2% observability budget is blown"
    );

    // == Resilience overhead: supervision on (default) vs off ===========
    // The fault-tolerance acceptance bar: the supervisor thread, shard
    // heartbeats, registry bookkeeping, and retry budget must cost < 2%
    // of closed-loop throughput when no fault ever fires. The hot path
    // pays one heartbeat store per loop trip plus a registry insert and
    // claim per request; the supervisor itself only wakes on its tick.
    // Paired rounds, best pair, like the other overhead comparisons.
    println!("\n== resilience overhead: supervision on (default) vs off ==");
    let resilience_cfg = |enabled: bool| ServeConfig {
        max_batch: batched_max_batch(),
        max_wait: batched_max_wait(),
        supervision: SupervisorConfig {
            enabled,
            ..SupervisorConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut resilience_ratios = Vec::with_capacity(rounds);
    let mut supervision_off_best = 0f64;
    let mut supervision_on_best = 0f64;
    for round in 0..rounds {
        let off = closed_loop(resilience_cfg(false), clients, per_client);
        let on = closed_loop(resilience_cfg(true), clients, per_client);
        println!(
            "  round {round}: supervision off {:7.1} req/s   on {:7.1} req/s   ratio {:.3}",
            off.rps,
            on.rps,
            on.rps / off.rps
        );
        resilience_ratios.push(on.rps / off.rps);
        supervision_off_best = supervision_off_best.max(off.rps);
        supervision_on_best = supervision_on_best.max(on.rps);
    }
    resilience_ratios.sort_by(f64::total_cmp);
    let resilience_ratio = *resilience_ratios.last().expect("at least one round");
    let resilience_overhead_pct = ((1.0 - resilience_ratio) * 100.0).max(0.0);
    println!(
        "resilience overhead: {resilience_overhead_pct:.2}% of throughput when idle \
         (best pair ratio {resilience_ratio:.3}, median {:.3})",
        resilience_ratios[resilience_ratios.len() / 2],
    );
    assert!(
        resilience_ratio >= floor,
        "shard supervision cost {resilience_overhead_pct:.2}% of closed-loop throughput \
         with no fault armed (ratio {resilience_ratio:.3} < {floor}): the <2% \
         fault-tolerance budget is blown"
    );

    // Machine-readable trajectory: BENCH_serve.json at the workspace root.
    let tracing = Overhead {
        off_rps: trace_off_best,
        on_rps: trace_on_best,
        ratio: trace_ratio,
        pct: trace_overhead_pct,
    };
    let resilience = Overhead {
        off_rps: supervision_off_best,
        on_rps: supervision_on_best,
        ratio: resilience_ratio,
        pct: resilience_overhead_pct,
    };
    let json = json::object(|o| {
        o.str("bench", "serve_load")
            .int("clients", clients)
            .int("per_client", per_client);
        closed_loop_block(o, "closed_loop_batch1", &batch1);
        closed_loop_block(o, "closed_loop_batched", &batched);
        o.fixed("batching_speedup", speedup, 3)
            .fixed("batching_speedup_median", median, 3);
        open_loop_block(o, &open);
        o.object("sharded", |s| {
            s.int("shards", sharded.shards)
                .bool("distinct_topologies", distinct_topologies);
            closed_loop_block(s, "closed_loop_single_shard", &single);
            closed_loop_block(s, "closed_loop_sharded", &sharded);
            s.fixed("sharded_speedup", shard_ratio, 3).fixed(
                "sharded_speedup_median",
                shard_ratio_median,
                3,
            );
            open_loop_block(s, &sharded_open);
        });
        o.object("tracing", |t| {
            t.int("sample_every", TraceConfig::default().sample_every);
            overhead_members(t, &tracing);
        })
        .object("resilience", |r| overhead_members(r, &resilience));
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("\nwrote {path}");
}
