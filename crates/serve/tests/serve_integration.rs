//! Deterministic chaos suite for the fault-tolerant serving stack.
//!
//! Every test drives real servers through injected failures from
//! [`FaultPlan`] — batcher crashes, stalls, engine faults, forced
//! admission rejections — and asserts the supervision contract: **every
//! admitted request resolves exactly once** (success, attributed
//! failure, expiry, cancellation, or abort — never a hung ticket),
//! restarts are journaled and incident-captured, and traffic after
//! recovery runs at full parity.
//!
//! The injection points are deterministic (consumed at fixed spots in
//! the batcher loop / completion callback); the cross-thread timing
//! around them is real. Tests therefore poll observable state with
//! generous timeouts rather than sleeping fixed amounts, and assert
//! outcomes that hold on every interleaving.

use std::time::{Duration, Instant};

use pcnn_nn::models;
use pcnn_runtime::compile::compile_dense;
use pcnn_runtime::Engine;
use pcnn_serve::{
    BreakerState, DrainReport, EventCode, FaultPlan, Priority, RetryPolicy, ServeConfig,
    ServeError, Server, ShutdownMode, SupervisorConfig, Ticket,
};
use pcnn_tensor::Tensor;

fn server_with(threads: usize, config: ServeConfig) -> Server {
    let engine = Engine::new(compile_dense(&models::tiny_cnn(3, 4, 1)), threads);
    Server::start(engine, config)
}

fn input() -> Tensor {
    Tensor::ones(&[1, 3, 8, 8])
}

/// Polls `pred` until it holds or `timeout` elapses; returns whether it
/// held.
fn wait_for(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    pred()
}

/// Redeems a ticket that must resolve (any outcome) within `timeout` —
/// the "no ticket lost" assertion.
fn must_resolve(t: Ticket, timeout: Duration) -> Result<Tensor, ServeError> {
    match t.wait_timeout(timeout) {
        Ok(result) => result,
        Err(_) => panic!("ticket never resolved within {timeout:?} — a request was lost"),
    }
}

fn restart_count(server: &Server, shard: usize) -> u64 {
    server.shard_status(shard).restarts
}

/// Every lifetime total of a drain report is the sum of its
/// per-precision breakdown: one ledger, two views.
fn assert_totals_are_precision_sums(report: &DrainReport) {
    let sum = |get: fn(&pcnn_serve::PrecisionSnapshot) -> u64| -> u64 {
        report.precisions.iter().map(get).sum()
    };
    assert_eq!(report.completed, sum(|p| p.completed));
    assert_eq!(report.failed, sum(|p| p.failed));
    assert_eq!(report.aborted, sum(|p| p.aborted));
    assert_eq!(report.expired, sum(|p| p.expired));
    assert_eq!(report.cancelled, sum(|p| p.cancelled));
}

fn journal_has(server: &Server, code: EventCode) -> bool {
    server
        .metrics()
        .events()
        .events()
        .iter()
        .any(|e| e.code == code)
}

/// The acceptance scenario: a shard batcher crash under load. Every
/// in-flight ticket resolves (completed by a callback that won the
/// claim race, or failed with `ShardFailed` by the supervisor's drain),
/// the restart lands in the journal and the incident ring, and traffic
/// after the respawn completes at full parity.
#[test]
fn shard_crash_under_load_loses_no_ticket_and_recovers() {
    let faults = FaultPlan::new();
    let server = server_with(
        2,
        ServeConfig {
            shards: 2,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_capacity: 1024,
            supervision: SupervisorConfig {
                stall_timeout: Duration::from_millis(500),
                ..SupervisorConfig::default()
            },
            faults: Some(faults.clone()),
            ..ServeConfig::default()
        },
    );
    let mut tickets = Vec::new();
    for i in 0..96 {
        if i == 32 {
            // Armed mid-load: shard 0's batcher panics at its next trip
            // through the loop top, with registered requests in flight.
            faults.crash_batcher(0, 1);
        }
        tickets.push(server.submit(input()).expect("admitted"));
    }
    let (mut completed, mut shard_failed) = (0u64, 0u64);
    for t in tickets {
        match must_resolve(t, Duration::from_secs(10)) {
            Ok(_) => completed += 1,
            Err(ServeError::ShardFailed) => shard_failed += 1,
            Err(e) => panic!("unexpected outcome: {e}"),
        }
    }
    assert_eq!(completed + shard_failed, 96, "every submit resolved");
    assert!(
        wait_for(Duration::from_secs(5), || restart_count(&server, 0) >= 1),
        "the supervisor restarted the crashed shard"
    );
    assert_eq!(faults.crashes_fired(), 1);
    assert!(journal_has(&server, EventCode::ShardRestart));
    // The supervisor journals the restart before it builds the
    // incident snapshot, so the capture can trail the event.
    assert!(
        wait_for(Duration::from_secs(5), || server.incidents().captured()
            >= 1),
        "the restart triggered an incident capture"
    );
    assert_eq!(server.shard_status(0).breaker, BreakerState::Closed);
    // Full parity after recovery: both shards serve again.
    let after: Vec<Ticket> = (0..16).map(|_| server.submit(input()).unwrap()).collect();
    for t in after {
        must_resolve(t, Duration::from_secs(10)).expect("post-recovery traffic completes");
    }
    let report = server.shutdown(ShutdownMode::Drain);
    assert_eq!(report.completed, completed + 16);
    assert_eq!(report.failed, shard_failed);
}

/// A forced crash loop: deaths past the restart budget trip the
/// breaker; after `open_duration` a half-open probe respawns, serves,
/// and closes it again. The request queued while the (only) shard was
/// down is served by the probe — delayed, not lost.
#[test]
fn crash_loop_trips_breaker_and_half_open_probe_recovers() {
    let faults = FaultPlan::new();
    // Two crashes against a budget of one death per window: the first
    // death respawns, the second opens the breaker.
    faults.crash_batcher(0, 2);
    let server = server_with(
        1,
        ServeConfig {
            shards: 1,
            supervision: SupervisorConfig {
                stall_timeout: Duration::from_millis(200),
                max_restarts: 1,
                restart_window: Duration::from_secs(30),
                open_duration: Duration::from_millis(150),
                probe_batches: 1,
            },
            faults: Some(faults.clone()),
            ..ServeConfig::default()
        },
    );
    assert!(
        wait_for(Duration::from_secs(5), || {
            server.shard_status(0).breaker == BreakerState::Open
        }),
        "two deaths inside the window open the breaker"
    );
    assert_eq!(faults.crashes_fired(), 2);
    // Admission stays open while the breaker is: the request waits in
    // the queue for the probe.
    let queued = server
        .submit(input())
        .expect("admission outlives the shard");
    let out = must_resolve(queued, Duration::from_secs(10));
    assert!(
        out.is_ok(),
        "the half-open probe served the backlog: {out:?}"
    );
    assert!(
        wait_for(Duration::from_secs(5), || {
            server.shard_status(0).breaker == BreakerState::Closed
        }),
        "a successful probe closes the breaker"
    );
    let status = server.shard_status(0);
    assert!(
        status.restarts >= 2,
        "one budgeted respawn plus the half-open probe (got {})",
        status.restarts
    );
    assert!(journal_has(&server, EventCode::CircuitBreaker));
    assert!(journal_has(&server, EventCode::ShardRestart));
    // Closed again means normal service.
    let t = server.submit(input()).unwrap();
    must_resolve(t, Duration::from_secs(10)).expect("served after recovery");
    let report = server.shutdown(ShutdownMode::Drain);
    assert!(report.completed >= 2);
}

/// A wedged batcher (no heartbeat progress while active) is declared
/// dead at the stall timeout and replaced; the stale thread retires via
/// the generation check when its stall ends.
#[test]
fn wedged_batcher_is_detected_and_replaced() {
    let faults = FaultPlan::new();
    let server = server_with(
        1,
        ServeConfig {
            shards: 1,
            supervision: SupervisorConfig {
                stall_timeout: Duration::from_millis(150),
                ..SupervisorConfig::default()
            },
            faults: Some(faults.clone()),
            ..ServeConfig::default()
        },
    );
    // Prime: one served request parks the batcher just past the fault
    // check, blocked on the empty queue.
    server.submit(input()).unwrap().wait().expect("primed");
    // The next request drags the batcher through a dispatch and back to
    // the loop top, where the armed stall holds it — active, beat going
    // stale — for far longer than the stall timeout.
    faults.stall_batcher(0, Duration::from_secs(1));
    let during = server.submit(input()).unwrap();
    match must_resolve(during, Duration::from_secs(10)) {
        Ok(_) | Err(ServeError::ShardFailed) => {}
        Err(e) => panic!("unexpected outcome: {e}"),
    }
    assert!(
        wait_for(Duration::from_secs(5), || restart_count(&server, 0) >= 1),
        "the stalled shard was declared wedged and replaced"
    );
    assert_eq!(faults.stalls_fired(), 1);
    assert!(journal_has(&server, EventCode::ShardRestart));
    // The replacement generation serves.
    let after = server.submit(input()).unwrap();
    must_resolve(after, Duration::from_secs(10)).expect("served by the new generation");
    server.shutdown(ShutdownMode::Drain);
}

/// A request whose deadline elapses before dispatch resolves with
/// `DeadlineExceeded` instead of occupying an engine pass, and the
/// expiry is visible in the journal, the metrics, and the drain report.
#[test]
fn expired_deadline_fails_fast_without_an_engine_pass() {
    let faults = FaultPlan::new();
    // Hold the batcher at startup so the deadline expires while queued.
    faults.stall_batcher(0, Duration::from_millis(400));
    let server = server_with(
        1,
        ServeConfig {
            shards: 1,
            faults: Some(faults),
            ..ServeConfig::default()
        },
    );
    let t = server
        .submit_with_deadline(
            input(),
            Priority::Normal,
            pcnn_serve::Precision::F32,
            Duration::from_millis(50),
        )
        .expect("admitted");
    match must_resolve(t, Duration::from_secs(10)) {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(journal_has(&server, EventCode::DeadlineExceeded));
    let snap = server.metrics().snapshot();
    assert_eq!(snap.expired, 1);
    assert_eq!(snap.completed, 0, "no engine pass was spent on it");
    let report = server.shutdown(ShutdownMode::Drain);
    assert_eq!(report.expired, 1);
    assert_totals_are_precision_sums(&report);
}

/// `ServeConfig::default_deadline` stamps every plain `submit`.
#[test]
fn default_deadline_applies_to_plain_submits() {
    let faults = FaultPlan::new();
    faults.stall_batcher(0, Duration::from_millis(400));
    let server = server_with(
        1,
        ServeConfig {
            shards: 1,
            default_deadline: Some(Duration::from_millis(50)),
            faults: Some(faults),
            ..ServeConfig::default()
        },
    );
    let t = server.submit(input()).expect("admitted");
    assert!(matches!(
        must_resolve(t, Duration::from_secs(10)),
        Err(ServeError::DeadlineExceeded)
    ));
    let report = server.shutdown(ShutdownMode::Drain);
    assert_eq!(report.expired, 1);
    assert_totals_are_precision_sums(&report);
}

/// A cancelled ticket is reclaimed at dequeue: the input is dropped
/// without an engine pass and the cancellation is counted.
#[test]
fn cancelled_ticket_is_reclaimed_at_dequeue() {
    let faults = FaultPlan::new();
    faults.stall_batcher(0, Duration::from_millis(300));
    let server = server_with(
        1,
        ServeConfig {
            shards: 1,
            faults: Some(faults),
            ..ServeConfig::default()
        },
    );
    let t = server.submit(input()).expect("admitted");
    assert!(
        t.cancel().is_none(),
        "cancel before dispatch finds the ticket unresolved"
    );
    assert!(
        wait_for(Duration::from_secs(5), || {
            server.metrics().snapshot().cancelled == 1
        }),
        "the batcher reclaimed the cancelled request at dequeue"
    );
    assert_eq!(server.metrics().snapshot().completed, 0);
    let report = server.shutdown(ShutdownMode::Drain);
    assert_eq!(report.cancelled, 1);
    assert_totals_are_precision_sums(&report);
}

/// A transient engine fault retries on a different shard and succeeds:
/// the client sees plain success, the retry is metered and journaled.
#[test]
fn transient_fault_retries_on_another_shard_and_succeeds() {
    let faults = FaultPlan::new();
    // Trace IDs are 1-based in admission order: fault the first request
    // exactly once.
    faults.fail_request(1, 1);
    let server = server_with(
        2,
        ServeConfig {
            shards: 2,
            retry: RetryPolicy {
                max_attempts: 2,
                budget_ratio: 1.0,
                budget_burst: 4,
            },
            faults: Some(faults.clone()),
            ..ServeConfig::default()
        },
    );
    let t = server.submit(input()).expect("admitted");
    let out = must_resolve(t, Duration::from_secs(10));
    assert!(out.is_ok(), "the retry masked the fault: {out:?}");
    assert_eq!(faults.engine_faults_fired(), 1);
    assert!(wait_for(Duration::from_secs(2), || {
        server.metrics().snapshot().retries == 1
    }));
    assert!(journal_has(&server, EventCode::Retry));
    let report = server.shutdown(ShutdownMode::Drain);
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 0, "a masked fault is not a failure");
}

/// With retries off (the default), the same injected fault surfaces as
/// `EngineFault` — the pre-existing contract is unchanged.
#[test]
fn without_retries_an_injected_fault_surfaces_to_the_client() {
    let faults = FaultPlan::new();
    faults.fail_request(1, 1);
    let server = server_with(
        1,
        ServeConfig {
            shards: 1,
            faults: Some(faults),
            ..ServeConfig::default()
        },
    );
    let t = server.submit(input()).expect("admitted");
    assert!(matches!(
        must_resolve(t, Duration::from_secs(10)),
        Err(ServeError::EngineFault)
    ));
    let report = server.shutdown(ShutdownMode::Drain);
    assert_eq!(report.failed, 1);
}

/// A fault that outlives the retry budget degrades to a plain failure
/// — retries never amplify a persistent fault indefinitely.
#[test]
fn persistent_fault_exhausts_attempts_and_fails() {
    let faults = FaultPlan::new();
    // Both attempts of request 1 fault.
    faults.fail_request(1, 2);
    let server = server_with(
        2,
        ServeConfig {
            shards: 2,
            retry: RetryPolicy {
                max_attempts: 2,
                budget_ratio: 1.0,
                budget_burst: 4,
            },
            faults: Some(faults.clone()),
            ..ServeConfig::default()
        },
    );
    let t = server.submit(input()).expect("admitted");
    assert!(matches!(
        must_resolve(t, Duration::from_secs(10)),
        Err(ServeError::EngineFault)
    ));
    assert_eq!(faults.engine_faults_fired(), 2);
    let report = server.shutdown(ShutdownMode::Drain);
    assert_eq!(report.failed, 1, "one request, one failure — not two");
    assert_totals_are_precision_sums(&report);
}

/// Forced admission rejections consume exactly their budget.
#[test]
fn forced_queue_full_rejects_exactly_n_submissions() {
    let faults = FaultPlan::new();
    faults.force_queue_full(2);
    let server = server_with(
        1,
        ServeConfig {
            shards: 1,
            faults: Some(faults.clone()),
            ..ServeConfig::default()
        },
    );
    assert!(matches!(server.submit(input()), Err(ServeError::QueueFull)));
    assert!(matches!(server.submit(input()), Err(ServeError::QueueFull)));
    let t = server
        .submit(input())
        .expect("budget exhausted, admission resumes");
    must_resolve(t, Duration::from_secs(10)).expect("served");
    assert!(faults.exhausted());
    server.shutdown(ShutdownMode::Drain);
}

/// The Prometheus rendering carries the new fault-tolerance series.
#[test]
fn prometheus_rendering_exposes_fault_metrics() {
    let server = server_with(1, ServeConfig::default());
    server.submit(input()).unwrap().wait().expect("served");
    let text = server.render_prometheus();
    for name in [
        "pcnn_shard_restarts_total",
        "pcnn_retries_total",
        "pcnn_deadline_exceeded_total",
        "pcnn_requests_cancelled_total",
        "pcnn_shard_breaker_state",
    ] {
        assert!(text.contains(name), "missing series {name}:\n{text}");
    }
    server.shutdown(ShutdownMode::Drain);
}
