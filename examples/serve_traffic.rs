//! Live traffic against the async serving front-end.
//!
//! ```text
//! cargo run --release --example serve_traffic                 # full demo
//! cargo run --release --example serve_traffic -- --smoke      # CI-sized
//! cargo run --release --example serve_traffic -- --shards 2   # sharded topology
//! cargo run --release --example serve_traffic -- --trace      # observability demo
//! cargo run --release --example serve_traffic -- --attribution # where did the latency go?
//! cargo run --release --example serve_traffic -- --incident    # black-box forensics demo
//! cargo run --release --example serve_traffic -- --chaos       # fault-injection drill
//! ```
//!
//! 1. Prunes the VGG-16-topology proxy at n = 2 and compiles it through
//!    the pattern compiler, exactly as `sparse_inference.rs` does.
//! 2. Drives the `pcnn-serve` front-end with N concurrent closed-loop
//!    client threads and prints the telemetry report: throughput plus
//!    p50/p95/p99 of queue wait and end-to-end latency.
//! 3. Repeats the run with `max_batch = 1` to show what dynamic
//!    batching buys (the batched configuration must win).
//! 4. Repeats the batched run sharded (`--shards N`, `auto`/`0` = one
//!    shard per core): the same queue feeds one batcher per engine
//!    shard, and the telemetry report grows a per-shard breakdown.
//! 5. Demonstrates backpressure: a burst at a tiny queue capacity gets
//!    `QueueFull` rejections instead of unbounded queueing.
//! 6. Shuts down gracefully and prints the drain report.

use pcnn::core::PrunePlan;
use pcnn::nn::models::{vgg16_proxy, VggProxyConfig};
use pcnn::runtime::compile::{prune_and_compile, CompileOptions};
use pcnn::runtime::{json, Engine};
use pcnn::serve::{
    AttributionReport, BreakerState, EventCode, FaultPlan, HealthState, IncidentTrigger,
    RetryPolicy, ServeConfig, ServeError, Server, ShutdownMode, SloConfig, SupervisorConfig,
    TelemetrySnapshot, TraceConfig,
};
use pcnn::tensor::Tensor;
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
    let mut model = vgg16_proxy(&cfg, 3);
    let plan = PrunePlan::uniform(13, 2, 32);
    let (graph, report, _) = prune_and_compile(&mut model, &plan, &CompileOptions::default())
        .expect("proxy lowers cleanly");
    println!(
        "engine: pruned VGG-16 proxy, {} sparse + {} dense ops, SPM compression {:.2}x",
        report.sparse_layers,
        report.dense_layers,
        report.compression()
    );
    Engine::with_default_threads(graph)
}

/// Closed-loop run: `clients` threads each submit-and-wait
/// `requests_per_client` times. Returns (wall, telemetry, dropped).
fn closed_loop(
    server: &Arc<Server>,
    clients: usize,
    requests_per_client: usize,
    hw: usize,
) -> (Duration, TelemetrySnapshot, usize) {
    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut dropped = 0usize;
                for i in 0..requests_per_client {
                    let x = random_tensor(&[1, 3, hw, hw], (c * 10_000 + i) as u64);
                    match server.submit(x) {
                        Ok(ticket) => {
                            ticket.wait().expect("drain never aborts in this demo");
                        }
                        Err(ServeError::QueueFull) => dropped += 1,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
                dropped
            })
        })
        .collect();
    let dropped: usize = workers.into_iter().map(|w| w.join().expect("client")).sum();
    (start.elapsed(), server.metrics().snapshot(), dropped)
}

/// Parses `--shards <n>` (`auto` or `0` = one shard per core, capped at
/// the engine's workers). Defaults to 2 so the plain demo exercises the
/// sharded topology.
fn shards_arg() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--shards" {
            let v = args.next().expect("--shards takes a value");
            if v == "auto" {
                return 0;
            }
            return v.parse().expect("--shards takes a number or 'auto'");
        }
    }
    2
}

/// Rejects anything that is not valid Prometheus text exposition
/// format: every line is a `# HELP`/`# TYPE` comment or a
/// `name{labels} value` sample whose value parses as a float. Returns
/// the number of sample lines.
fn validate_prometheus(text: &str) -> usize {
    assert!(!text.is_empty(), "exporter produced no output");
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("HELP ") || comment.starts_with("TYPE "),
                "unknown comment line: {line}"
            );
            if let Some(type_line) = comment.strip_prefix("TYPE ") {
                let kind = type_line.rsplit(' ').next().unwrap();
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown metric type in: {line}"
                );
            }
            continue;
        }
        // Label values may contain spaces, so split on the *last* one.
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(!series.is_empty(), "empty series name in: {line}");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable sample value in: {line}"
        );
        samples += 1;
    }
    assert!(samples > 0, "exporter rendered zero samples");
    samples
}

/// `--trace`: the observability demo. Every request is traced
/// (`sample_every = 1`), the per-layer profiler is on, and the run ends
/// by validating the Prometheus rendering, dumping span timelines from
/// the flight recorder, and writing the execution profile to
/// `PROFILE_serve.json` for CI to parse.
fn trace_demo(smoke: bool, shards: usize) {
    let hw = VggProxyConfig::default().input_hw;
    let clients = if smoke { 4 } else { 6 };
    let per_client = if smoke { 12 } else { 60 };
    let engine = build_engine();
    engine.enable_profiling();
    let server = Arc::new(Server::start(
        engine,
        ServeConfig {
            shards,
            max_batch: (clients / 2).max(4),
            input_chw: Some([3, hw, hw]),
            trace: TraceConfig {
                sample_every: 1, // trace every request for the demo
                ring_capacity: 512,
            },
            ..ServeConfig::default()
        },
    ));
    println!(
        "\n[trace] {clients} clients x {per_client} requests, every request traced, profiler on"
    );
    let (wall, snap, dropped) = closed_loop(&server, clients, per_client, hw);
    let total = clients * per_client;
    assert_eq!(dropped, 0);
    assert_eq!(snap.completed as usize, total);
    println!(
        "wall-clock throughput: {:.1} req/s over {total} requests",
        total as f64 / wall.as_secs_f64()
    );

    // --- Prometheus exporter ---------------------------------------------
    let prom = server.render_prometheus();
    let samples = validate_prometheus(&prom);
    println!("render_prometheus: {samples} samples, all lines well-formed");

    // --- Flight recorder: span timelines ---------------------------------
    let recorder = server.flight_recorder();
    assert_eq!(recorder.requests(), total as u64);
    let spans = recorder.spans();
    assert!(!spans.is_empty(), "traced run must retain spans");
    for span in &spans {
        assert!(span.is_monotone(), "span {} not monotone", span.id);
    }
    let last = spans.last().unwrap();
    println!(
        "flight recorder: {} spans retained ({} recorded, {} dropped); last span: {}",
        spans.len(),
        recorder.spans_recorded(),
        recorder.spans_dropped(),
        last.to_json()
    );

    // --- Per-layer execution profile --------------------------------------
    let profile = server.engine().exec_profile();
    assert_eq!(profile.simd_level, pcnn::tensor::simd::active().label());
    let f32_ns = profile.total_ns(pcnn::runtime::Precision::F32);
    assert!(f32_ns > 0, "profiler must have recorded the f32 lowering");
    let layers = &profile.precisions[0].layers;
    println!(
        "profiler: {} f32 layers, {:.2} ms total ({} SIMD tier)",
        layers.len(),
        f32_ns as f64 / 1e6,
        profile.simd_level
    );
    let json = profile.to_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/PROFILE_serve.json");
    std::fs::write(path, &json).expect("write PROFILE_serve.json");
    println!("profile written to {path}");

    let report = match Arc::try_unwrap(server) {
        Ok(s) => s.shutdown(ShutdownMode::Drain),
        Err(_) => unreachable!("all clients joined"),
    };
    println!("\n{report}");
    assert_eq!(report.completed as usize, total);
    println!("serve_traffic --trace: OK");
}

/// `--attribution`: where did the end-to-end time go? Every request is
/// traced, the profiler is on, and the run decomposes recorded spans
/// into queue-wait / coalesce / dispatch-wait / execute /
/// completion-notify segments per rolling window and percentile band,
/// cross-references the engine's pad/kernel phase split,
/// checks the health engine reports `Healthy` at this (comfortable)
/// load, and writes the attribution + health blocks into
/// `PROFILE_serve.json`.
fn attribution_demo(smoke: bool, shards: usize) {
    let hw = VggProxyConfig::default().input_hw;
    let clients = if smoke { 4 } else { 6 };
    let per_client = if smoke { 12 } else { 60 };
    let engine = build_engine();
    engine.enable_profiling();
    let server = Arc::new(Server::start(
        engine,
        ServeConfig {
            shards,
            max_batch: (clients / 2).max(4),
            input_chw: Some([3, hw, hw]),
            trace: TraceConfig {
                sample_every: 1, // attribution wants every timeline
                ring_capacity: 1024,
            },
            // A deliberately lenient SLO: closed-loop smoke load must
            // grade Healthy, which is asserted below.
            slo: SloConfig {
                latency_target: Duration::from_secs(5),
                ..SloConfig::default()
            },
            ..ServeConfig::default()
        },
    ));
    println!("\n[attribution] {clients} clients x {per_client} requests, every request traced");
    let (wall, snap, dropped) = closed_loop(&server, clients, per_client, hw);
    let total = clients * per_client;
    assert_eq!(dropped, 0);
    assert_eq!(snap.completed as usize, total);
    println!(
        "wall-clock throughput: {:.1} req/s over {total} requests",
        total as f64 / wall.as_secs_f64()
    );

    // --- Health: smoke load against the lenient SLO must be Healthy ------
    let health = server.health();
    println!("{health}");
    assert_eq!(
        health.state,
        HealthState::Healthy,
        "closed-loop smoke load must stay inside a 5 s latency SLO"
    );

    // --- Span-driven latency attribution ----------------------------------
    let spans = server.flight_recorder().spans();
    let mut report = AttributionReport::analyze(&spans);
    assert!(report.analyzed > 0, "traced run must retain spans");
    let labels: Vec<&str> = report.windows.iter().map(|w| w.label.as_str()).collect();
    assert_eq!(labels, ["1s", "10s", "60s", "overall"]);
    assert!(
        report.windows.iter().all(|w| w.segments.len() == 5),
        "every window splits into the five segments"
    );
    let profile = server.engine().exec_profile();
    report.attach_exec_profile(&profile);
    assert!(
        !report.exec_phases.is_empty(),
        "profiler was on, so the execute segment cross-references"
    );
    print!("{report}");
    println!(
        "dominant contributor overall: {}",
        report.dominant().expect("analyzed > 0")
    );

    // --- Exporter sanity ---------------------------------------------------
    let prom = server.render_prometheus();
    validate_prometheus(&prom);
    assert!(
        prom.contains("pcnn_health_state 0"),
        "healthy at smoke load"
    );
    assert!(prom.contains("pcnn_window_completed{window=\"60s\"}"));
    assert!(prom.contains("pcnn_build_info{version="));

    // --- PROFILE_serve.json with attribution + health blocks --------------
    let json = json::object(|o| {
        o.extend(&profile.to_json())
            .raw("attribution", &report.to_json())
            .raw("health", &health.to_json());
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/PROFILE_serve.json");
    std::fs::write(path, &json).expect("write PROFILE_serve.json");
    println!("profile + attribution written to {path}");

    let drain = match Arc::try_unwrap(server) {
        Ok(s) => s.shutdown(ShutdownMode::Drain),
        Err(_) => unreachable!("all clients joined"),
    };
    assert_eq!(drain.completed as usize, total);
    println!("serve_traffic --attribution: OK");
}

/// `--incident`: the black-box forensics demo. Every request is traced
/// and the profiler is on; an SLO every completion violates drives the
/// health engine into `Degraded` under an explicit evaluation, which
/// trips the incident recorder exactly once (the follow-up `Overloaded`
/// step lands inside the capture cooldown). The run validates the event
/// journal's Prometheus families, prints the captured incident, and
/// writes the on-demand `Server::diagnostics()` snapshot plus the
/// incident into `PROFILE_serve.json`.
fn incident_demo(smoke: bool, shards: usize) {
    let hw = VggProxyConfig::default().input_hw;
    let clients = if smoke { 4 } else { 6 };
    let per_client = if smoke { 12 } else { 60 };
    let engine = build_engine();
    engine.enable_profiling();
    let server = Arc::new(Server::start(
        engine,
        ServeConfig {
            shards,
            max_batch: (clients / 2).max(4),
            input_chw: Some([3, hw, hw]),
            trace: TraceConfig {
                sample_every: 1, // forensics wants every timeline
                ring_capacity: 512,
            },
            // A 1 ns target: every real completion violates the SLO,
            // so the explicit evaluations below are deterministic. The
            // huge eval_interval keeps the submit path from evaluating
            // on its own mid-burst.
            slo: SloConfig {
                latency_target: Duration::from_nanos(1),
                fast_window: Duration::from_secs(5),
                slow_window: Duration::from_secs(60),
                min_samples: 1,
                eval_interval: Duration::from_secs(3600),
                ..SloConfig::default()
            },
            ..ServeConfig::default()
        },
    ));
    println!("\n[incident] {clients} clients x {per_client} requests against a 1 ns SLO");
    let (wall, snap, dropped) = closed_loop(&server, clients, per_client, hw);
    let total = clients * per_client;
    assert_eq!(dropped, 0);
    assert_eq!(snap.completed as usize, total);
    println!(
        "wall-clock throughput: {:.1} req/s over {total} requests",
        total as f64 / wall.as_secs_f64()
    );

    // --- Deterministic deterioration: exactly one incident ----------------
    let health = server.health_engine();
    let metrics = server.metrics();
    let now = metrics.now_ns();
    let r1 = health.evaluate_at(metrics, now);
    assert_eq!(r1.state, HealthState::Degraded, "every request violated");
    let r2 = health.evaluate_at(metrics, now);
    assert_eq!(r2.state, HealthState::Overloaded);
    let recorder = server.incidents();
    assert_eq!(recorder.captured(), 1, "Degraded captures, cooldown holds");
    assert_eq!(recorder.suppressed(), 1);
    let incidents = recorder.incidents();
    let incident = &incidents[0];
    assert_eq!(incident.trigger, IncidentTrigger::HealthDegraded);
    assert_eq!(incident.health.state, HealthState::Degraded);
    assert!(!incident.events.is_empty(), "event tail rides along");
    assert!(incident.attribution.analyzed > 0, "no spans attributed");
    println!("\n{incident}");

    // --- Event journal in the exporter -------------------------------------
    let prom = server.render_prometheus();
    validate_prometheus(&prom);
    assert!(prom.contains("pcnn_events_total{code=\"health_transition\""));
    assert!(prom.contains("pcnn_events_suppressed_total"));
    let journal = metrics.events();
    println!(
        "event journal: {} emitted, {} coalesced, {} dropped",
        journal.emitted(),
        journal.suppressed(),
        journal.dropped()
    );

    // --- PROFILE_serve.json with diagnostics + incident blocks ------------
    let diag = server.diagnostics();
    assert_eq!(diag.trigger, IncidentTrigger::OnDemand);
    assert!(!diag.version.is_empty(), "diagnostics carry build info");
    let json = json::object(|o| {
        o.extend(&server.engine().exec_profile().to_json())
            .raw("diagnostics", &diag.to_json())
            .raw("incident", &incident.to_json());
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/PROFILE_serve.json");
    std::fs::write(path, &json).expect("write PROFILE_serve.json");
    println!("profile + diagnostics + incident written to {path}");

    let drain = match Arc::try_unwrap(server) {
        Ok(s) => s.shutdown(ShutdownMode::Drain),
        Err(_) => unreachable!("all clients joined"),
    };
    assert_eq!(drain.completed as usize, total);
    println!("serve_traffic --incident: OK");
}

/// `--chaos`: the fault-injection drill. A sharded server takes
/// closed-loop load while the drill injects one batcher crash and one
/// batcher stall into shard 0; the supervisor must restart the shard
/// both times (panic detected structurally, stall detected by
/// heartbeat), every admitted request must resolve exactly once, and
/// traffic afterwards must run at full parity with the health engine
/// reporting `Healthy`. The run writes `CHAOS_serve.json` — journal,
/// telemetry, shard supervision status — as the drill's artifact.
fn chaos_demo(smoke: bool, shards: usize) {
    let hw = VggProxyConfig::default().input_hw;
    // The drill needs a surviving shard while shard 0 is down.
    let shards = if shards == 0 { 2 } else { shards.max(2) };
    let clients = if smoke { 4 } else { 6 };
    let per_client = if smoke { 12 } else { 40 };
    let faults = FaultPlan::new();
    let server = Arc::new(Server::start(
        build_engine(),
        ServeConfig {
            shards,
            max_batch: (clients / 2).max(4),
            input_chw: Some([3, hw, hw]),
            supervision: SupervisorConfig {
                stall_timeout: Duration::from_millis(300),
                ..SupervisorConfig::default()
            },
            retry: RetryPolicy {
                max_attempts: 2,
                budget_ratio: 1.0,
                ..RetryPolicy::default()
            },
            // Lenient on both axes: the drill's handful of attributed
            // failures must not keep the health engine degraded, so
            // "recovered" is observable as a plain Healthy read.
            slo: SloConfig {
                latency_target: Duration::from_secs(5),
                availability_target: 0.5,
                ..SloConfig::default()
            },
            faults: Some(faults.clone()),
            ..ServeConfig::default()
        },
    ));
    println!("\n[chaos] {clients} clients x {per_client} requests across {shards} shards, crash + stall injected into shard 0");

    // --- Phase 1: a batcher crash under load ------------------------------
    let total = clients * per_client;
    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let server = server.clone();
            let faults = faults.clone();
            std::thread::spawn(move || {
                let (mut ok, mut failed) = (0usize, 0usize);
                for i in 0..per_client {
                    if c == 0 && i == per_client / 4 {
                        faults.crash_batcher(0, 1);
                    }
                    let x = random_tensor(&[1, 3, hw, hw], (c * 10_000 + i) as u64);
                    match server.submit(x).expect("admitted").wait() {
                        Ok(_) => ok += 1,
                        Err(ServeError::ShardFailed | ServeError::EngineFault) => failed += 1,
                        Err(e) => panic!("unexpected outcome: {e}"),
                    }
                }
                (ok, failed)
            })
        })
        .collect();
    let (ok, failed) = workers
        .into_iter()
        .map(|w| w.join().expect("client"))
        .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));
    assert_eq!(ok + failed, total, "every submit resolved exactly once");
    assert_eq!(faults.crashes_fired(), 1, "the crash fired under load");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.shard_status(0).restarts < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.shard_status(0).restarts >= 1, "crash restart");
    println!(
        "crash drill: {ok} completed, {failed} failed with attribution, shard 0 restarted ({:.1} req/s)",
        total as f64 / start.elapsed().as_secs_f64()
    );

    // --- Phase 2: a wedged batcher (stall past the heartbeat timeout) -----
    faults.stall_batcher(0, Duration::from_millis(700));
    let deadline = Instant::now() + Duration::from_secs(15);
    while server.shard_status(0).restarts < 2 && Instant::now() < deadline {
        // Keep traffic flowing so shard 0 trips the armed stall at its
        // next loop top; stalled-era tickets may fail with attribution.
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                server
                    .submit(random_tensor(&[1, 3, hw, hw], 7_000_000 + i))
                    .expect("admitted")
            })
            .collect();
        for t in tickets {
            match t.wait() {
                Ok(_) | Err(ServeError::ShardFailed) | Err(ServeError::EngineFault) => {}
                Err(e) => panic!("unexpected outcome: {e}"),
            }
        }
    }
    assert_eq!(faults.stalls_fired(), 1, "the stall fired");
    assert!(
        server.shard_status(0).restarts >= 2,
        "the wedged batcher was detected by heartbeat and replaced"
    );
    println!("stall drill: shard 0 declared wedged and replaced");

    // --- Phase 3: full parity after recovery ------------------------------
    let after: Vec<_> = (0..clients * 2)
        .map(|i| {
            server
                .submit(random_tensor(&[1, 3, hw, hw], 8_000_000 + i as u64))
                .expect("admitted")
        })
        .collect();
    for t in after {
        t.wait().expect("post-recovery traffic completes");
    }
    let health = server.health();
    assert_eq!(
        health.state,
        HealthState::Healthy,
        "health recovered after the drill"
    );
    for i in 0..server.shards() {
        assert_eq!(server.shard_status(i).breaker, BreakerState::Closed);
    }
    let journal = server.metrics().events();
    let restart_events = journal
        .events()
        .iter()
        .filter(|e| e.code == EventCode::ShardRestart)
        .count();
    assert!(restart_events >= 2, "both restarts journaled");
    println!(
        "recovery: {} post-drill requests served, health {}, {} shard_restart events journaled",
        clients * 2,
        health.state,
        restart_events
    );

    // --- CHAOS_serve.json for CI ------------------------------------------
    let snap = server.metrics().snapshot();
    assert!(snap.shard_restarts >= 2, "telemetry counts both restarts");
    let json = json::object(|o| {
        o.int("crashes_fired", faults.crashes_fired())
            .int("stalls_fired", faults.stalls_fired())
            .str("health", health.state.label())
            .array("shards", |a| {
                for i in 0..server.shards() {
                    let s = server.shard_status(i);
                    a.object(|o| {
                        o.int("shard", s.shard)
                            .int("generation", s.generation)
                            .int("restarts", s.restarts)
                            .str("breaker", &s.breaker.to_string());
                    });
                }
            })
            .raw("telemetry", &snap.to_json())
            .raw("events", &journal.to_json());
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/CHAOS_serve.json");
    std::fs::write(path, &json).expect("write CHAOS_serve.json");
    println!("chaos drill report written to {path}");

    let report = match Arc::try_unwrap(server) {
        Ok(s) => s.shutdown(ShutdownMode::Drain),
        Err(_) => unreachable!("all clients joined"),
    };
    println!("\n{report}");
    assert_eq!(report.completed, snap.completed);
    println!("serve_traffic --chaos: OK");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shards = shards_arg();
    if std::env::args().any(|a| a == "--chaos") {
        chaos_demo(smoke, shards);
        return;
    }
    if std::env::args().any(|a| a == "--incident") {
        incident_demo(smoke, shards);
        return;
    }
    if std::env::args().any(|a| a == "--attribution") {
        attribution_demo(smoke, shards);
        return;
    }
    if std::env::args().any(|a| a == "--trace") {
        trace_demo(smoke, shards);
        return;
    }
    let hw = VggProxyConfig::default().input_hw;
    let clients = if smoke { 4 } else { 6 };
    let per_client = if smoke { 12 } else { 60 };

    // --- 1. Dynamic batching, tuned for the closed-loop client count ----
    // max_batch of half the clients: with pipelined dispatch one batch
    // coalesces while another executes, so the engine never idles
    // waiting for the full client cohort to resubmit.
    let server = Arc::new(Server::start(
        build_engine(),
        ServeConfig {
            max_batch: (clients / 2).max(4),
            input_chw: Some([3, hw, hw]),
            ..ServeConfig::default()
        },
    ));
    println!(
        "\n[batched] {clients} clients x {per_client} requests, capacity {}, max_batch {}, max_wait {:?}",
        server.config().queue_capacity,
        server.config().max_batch,
        server.config().max_wait,
    );
    let (wall, snap, dropped) = closed_loop(&server, clients, per_client, hw);
    println!("{snap}");
    let total = clients * per_client;
    let batched_rps = total as f64 / wall.as_secs_f64();
    println!("wall-clock throughput: {batched_rps:.1} req/s over {total} requests");
    assert_eq!(
        dropped, 0,
        "default capacity must not shed closed-loop load"
    );
    assert_eq!(snap.completed as usize, total, "zero dropped tickets");
    assert!(
        snap.mean_batch >= 1.0,
        "telemetry must report batch occupancy"
    );

    // --- 2. The same load without batching (max_batch = 1) --------------
    let single = Arc::new(Server::start(
        build_engine(),
        ServeConfig {
            max_batch: 1,
            input_chw: Some([3, hw, hw]),
            ..ServeConfig::default()
        },
    ));
    println!("\n[batch-1] same load, max_batch = 1");
    let (wall1, snap1, dropped1) = closed_loop(&single, clients, per_client, hw);
    let single_rps = total as f64 / wall1.as_secs_f64();
    println!(
        "wall-clock throughput: {single_rps:.1} req/s (p99 e2e {:.2} ms)",
        snap1.latency_p99.as_secs_f64() * 1e3
    );
    assert_eq!(dropped1, 0);
    println!(
        "\ndynamic batching speedup: {:.2}x (mean batch {:.1} images)",
        batched_rps / single_rps,
        snap.mean_batch
    );

    // --- 3. The same load sharded: N batchers on one queue ---------------
    let sharded = Arc::new(Server::start(
        build_engine(),
        ServeConfig {
            shards,
            max_batch: (clients / 2).max(4),
            input_chw: Some([3, hw, hw]),
            ..ServeConfig::default()
        },
    ));
    let shard_workers: Vec<usize> = (0..sharded.shards())
        .map(|i| sharded.engine_shard(i).threads())
        .collect();
    println!(
        "\n[sharded] same load, {} engine shards with {:?} workers ({} total), one shared queue",
        sharded.shards(),
        shard_workers,
        shard_workers.iter().sum::<usize>(),
    );
    let (wall_s, snap_s, dropped_s) = closed_loop(&sharded, clients, per_client, hw);
    let sharded_rps = total as f64 / wall_s.as_secs_f64();
    println!("{snap_s}");
    println!(
        "wall-clock throughput: {sharded_rps:.1} req/s ({:.2}x the single-shard batched run)",
        sharded_rps / batched_rps
    );
    assert_eq!(dropped_s, 0);
    assert_eq!(snap_s.completed as usize, total, "zero dropped tickets");
    assert_eq!(
        snap_s.shards.iter().map(|s| s.completed).sum::<u64>(),
        total as u64,
        "per-shard telemetry accounts for every request"
    );

    // --- 4. Backpressure: burst into a tiny queue ------------------------
    let tiny = Server::start(
        build_engine(),
        ServeConfig {
            queue_capacity: 4,
            max_batch: 4,
            input_chw: Some([3, hw, hw]),
            ..ServeConfig::default()
        },
    );
    let burst = 64usize;
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for i in 0..burst {
        match tiny.submit(random_tensor(&[1, 3, hw, hw], 999 + i as u64)) {
            Ok(t) => accepted.push(t),
            Err(ServeError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    for t in accepted {
        t.wait().expect("accepted requests complete");
    }
    println!(
        "\n[backpressure] burst of {burst} into capacity 4: {} accepted, {rejected} rejected with QueueFull",
        burst - rejected
    );
    assert!(rejected > 0, "a 64-burst must trip a capacity-4 queue");
    let tiny_report = tiny.shutdown(ShutdownMode::Drain);
    println!("{tiny_report}");

    // --- 5. Graceful shutdown -------------------------------------------
    let report = match Arc::try_unwrap(server) {
        Ok(s) => s.shutdown(ShutdownMode::Drain),
        Err(_) => unreachable!("all clients joined"),
    };
    println!("\n{report}");
    let sharded_report = match Arc::try_unwrap(sharded) {
        Ok(s) => s.shutdown(ShutdownMode::Drain),
        Err(_) => unreachable!("all clients joined"),
    };
    println!("{sharded_report}");
    assert_eq!(sharded_report.completed as usize, total);
    drop(Arc::try_unwrap(single).map(|s| s.shutdown(ShutdownMode::Drain)));
    println!("serve_traffic: OK");
}
