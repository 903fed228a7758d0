//! Golden-output test for every public JSON emitter of the serving
//! stack: each type is built from literal field values and its
//! `to_json()` must equal, byte for byte, the string stored under
//! `tests/golden/` — the schema (keys, nesting, key order, decimal
//! counts) that `ci.yml`'s validators and downstream dashboards parse.
//!
//! The stored strings are what the hand-written `format!` emitters
//! printed before the JSON writer replaced them, minus the keys removed
//! with their fields (`windowed`, `events.enabled` and the journal's
//! `enabled`; the always-zero `epilogue_ns`, `pattern_groups`,
//! `epilogue_fraction` and `execute_mean_ns.epilogue`; the five config
//! knobs nothing set: `slo.latency_percentile`, the SLO's degraded and
//! overloaded `*_burn` thresholds, the retry's back-off delay in ms, and
//! `supervision.enabled`).

use pcnn_runtime::profile::{LayerProfile, PrecisionProfile};
use pcnn_runtime::{ExecProfile, Precision};
use pcnn_serve::attribution::{BandAttribution, ExecPhaseShare, SegmentStats, WindowAttribution};
use pcnn_serve::health::BurnWindow;
use pcnn_serve::metrics::Outcome;
use pcnn_serve::{
    AttributionReport, DiagnosticSnapshot, EventCode, EventConfig, EventJournal, HealthReport,
    HealthState, IncidentTrigger, PrecisionSnapshot, RecordedEvent, RecordedSpan, ServeConfig,
    ServerMetrics, Severity, ShardSnapshot, SpanOutcome, TelemetrySnapshot, WindowSnapshot,
    WindowStats,
};
use std::time::{Duration, Instant};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn span() -> RecordedSpan {
    RecordedSpan {
        id: 42,
        shard: 1,
        precision: Precision::Int8,
        outcome: SpanOutcome::Expired,
        batch_len: 6,
        admitted_ns: 1_000,
        dequeued_ns: 2_500,
        coalesced_ns: 2_750,
        dispatched_ns: 3_000,
        executed_ns: 9_000,
        completed_ns: 9_125,
    }
}

fn event() -> RecordedEvent {
    RecordedEvent {
        seq: 7,
        code: EventCode::ShardRestart,
        severity: Severity::Error,
        t_ns: 123_456_789,
        a: 1,
        b: 3,
        repeats: 12,
    }
}

fn precision_snapshot() -> PrecisionSnapshot {
    PrecisionSnapshot {
        precision: "int8",
        completed: 900,
        failed: 3,
        aborted: 2,
        expired: 5,
        cancelled: 1,
        batches: 160,
        mean_batch: 5.625,
        latency_p50: us(1_482),
        latency_p99: us(5_931),
        latency_mean: us(1_777),
    }
}

fn shard_snapshot() -> ShardSnapshot {
    ShardSnapshot {
        shard: 1,
        completed: 450,
        aborted: 1,
        failed: 2,
        expired: 3,
        cancelled: 4,
        retries: 5,
        batches: 80,
        batched_images: 455,
        inflight_batches: 2,
        mean_batch: 5.6875,
        queue_wait_p50: us(370),
        queue_wait_p99: us(2_965),
        latency_p50: us(1_482),
        latency_p99: us(5_931),
        service_mean: us(812),
    }
}

fn window_stats(label: &str) -> WindowStats {
    WindowStats {
        label: label.to_string(),
        window: Duration::from_secs(10),
        completed: 640,
        failed: 4,
        aborted: 1,
        throughput_rps: 64.0,
        error_rate: 4.0 / 645.0,
        abort_rate: 1.0 / 645.0,
        latency_p50: us(1_482),
        latency_p95: us(2_965),
        latency_p99: us(5_931),
        latency_mean: us(1_777),
    }
}

fn window_snapshot() -> WindowSnapshot {
    WindowSnapshot {
        window: Duration::from_secs(10),
        total: window_stats("total"),
        shards: vec![window_stats("shard-0"), window_stats("shard-1")],
        precisions: vec![window_stats("f32"), window_stats("int8")],
    }
}

fn telemetry() -> TelemetrySnapshot {
    TelemetrySnapshot {
        submitted: 1_000,
        completed: 900,
        rejected: 40,
        rejected_shutdown: 2,
        aborted: 3,
        failed: 4,
        expired: 5,
        cancelled: 6,
        retries: 7,
        shard_restarts: 1,
        queue_depth: 12,
        queue_depth_hwm: 200,
        shed: 9,
        inflight_batches: 3,
        batches: 160,
        mean_batch: 5.625,
        elapsed: Duration::from_millis(12_345),
        throughput_rps: 72.904_009_7,
        queue_wait_p50: us(370),
        queue_wait_p95: us(1_482),
        queue_wait_p99: us(2_965),
        queue_wait_mean: us(501),
        latency_p50: us(1_482),
        latency_p95: us(2_965),
        latency_p99: us(5_931),
        latency_mean: us(1_777),
        service_mean: us(812),
        precisions: vec![precision_snapshot()],
        shards: vec![shard_snapshot()],
        windows: vec![window_snapshot()],
        events_emitted: 30,
        events_suppressed: 12,
        events_dropped: 1,
        event_tail: vec![event()],
    }
}

fn health() -> HealthReport {
    HealthReport {
        state: HealthState::Degraded,
        fast: BurnWindow {
            window: Duration::from_secs(1),
            burn: 12.345_678,
            attempts: 64,
            error_rate: 0.015_625,
            slow_fraction: 0.123_456_789,
        },
        slow: BurnWindow {
            window: Duration::from_secs(10),
            burn: 1.5,
            attempts: 645,
            error_rate: 4.0 / 645.0,
            slow_fraction: 0.015,
        },
        transitions: 3,
        shed: 9,
    }
}

fn segment(name: &'static str, total_ns: u64, share: f64) -> SegmentStats {
    SegmentStats {
        name,
        total_ns,
        mean_ns: total_ns as f64 / 7.0,
        p50_ns: total_ns / 8,
        p95_ns: total_ns / 5,
        p99_ns: total_ns / 4,
        share,
    }
}

fn attribution() -> AttributionReport {
    AttributionReport {
        analyzed: 7,
        skipped: 2,
        windows: vec![WindowAttribution {
            label: "overall".to_string(),
            spans: 7,
            e2e: segment("e2e", 70_000, 1.0),
            segments: vec![
                segment("queue_wait", 10_000, 1.0 / 7.0),
                segment("execute", 60_000, 6.0 / 7.0),
            ],
            dominant: "execute",
        }],
        bands: vec![BandAttribution {
            band: "p99-p100",
            spans: 1,
            mean_e2e_ns: 25_000.25,
            mean_segment_ns: [5_000.0, 10.5, 20.25, 19_000.125, 969.375],
            dominant: "execute",
        }],
        exec_phases: vec![ExecPhaseShare {
            precision: "f32",
            pad_fraction: 0.123_45,
            kernel_fraction: 0.876_55,
            execute_mean_ns: (1_058.06, 7_513.37),
        }],
    }
}

fn layer(layer: usize, label: &str) -> LayerProfile {
    LayerProfile {
        layer,
        label: label.to_string(),
        calls: 12,
        images: 96,
        pad_ns: 41_500,
        kernel_ns: 167_700,
        total_ns: 209_200,
        kernel_dispatches: 384,
        zero_kernels_skipped: 17,
        padded_bytes: 1_327_104,
        simd_level: "avx2",
        walk: "band_vnni",
    }
}

fn exec_profile() -> ExecProfile {
    ExecProfile {
        simd_level: "avx2",
        precisions: vec![PrecisionProfile {
            precision: "f32",
            layers: vec![
                layer(0, "PatternConv 3->32 3x3 s1 p1 n=2 [relu]"),
                layer(1, "MaxPool 2x2"),
            ],
        }],
    }
}

fn diagnostics(exec_profile: Option<ExecProfile>) -> DiagnosticSnapshot {
    DiagnosticSnapshot {
        trigger: IncidentTrigger::HealthDegraded,
        captured_at_ns: 987_654_321,
        version: "0.1.0",
        simd: "avx2",
        shards: 2,
        precision: "f32",
        config: ServeConfig::default().to_json(),
        telemetry: telemetry(),
        health: health(),
        attribution: attribution(),
        spans: vec![span()],
        events: vec![event()],
        exec_profile,
    }
}

/// Compares `actual` with the stored golden string (trailing newline
/// of the file aside) and names the first diverging byte on mismatch.
fn assert_golden(name: &str, golden: &str, actual: &str) {
    let golden = golden.trim_end_matches('\n');
    if golden != actual {
        let at = golden
            .bytes()
            .zip(actual.bytes())
            .position(|(g, a)| g != a)
            .unwrap_or(golden.len().min(actual.len()));
        let lo = at.saturating_sub(40);
        panic!(
            "{name}: JSON diverges from tests/golden/{name}.json at byte {at}\n golden: …{}\n actual: …{}",
            &golden[lo..(at + 40).min(golden.len())],
            &actual[lo..(at + 40).min(actual.len())],
        );
    }
}

macro_rules! golden {
    ($name:literal, $actual:expr) => {
        assert_golden(
            $name,
            include_str!(concat!("golden/", $name, ".json")),
            &$actual,
        )
    };
}

#[test]
fn every_json_emitter_matches_its_golden_output() {
    golden!("recorded_span", span().to_json());
    golden!("recorded_event", event().to_json());
    golden!("precision_snapshot", precision_snapshot().to_json());
    golden!("shard_snapshot", shard_snapshot().to_json());
    golden!("window_stats", window_stats("total").to_json());
    golden!("window_snapshot", window_snapshot().to_json());
    golden!("telemetry_snapshot", telemetry().to_json());
    golden!("health_report", health().to_json());
    golden!("attribution_report", attribution().to_json());
    golden!("serve_config_default", ServeConfig::default().to_json());
    golden!("layer_profile", layer(3, "Linear 512->10").to_json());
    golden!("exec_profile", exec_profile().to_json());
    golden!(
        "diagnostic_snapshot",
        diagnostics(Some(exec_profile())).to_json()
    );
    golden!(
        "diagnostic_snapshot_no_profile",
        diagnostics(None).to_json()
    );
}

#[test]
fn journal_dump_matches_its_golden_output() {
    // Explicit stamps and a burst of 1 make the dump deterministic:
    // the second queue_full coalesces into the third's `repeats`.
    let journal = EventJournal::new(
        &EventConfig {
            ring_capacity: 4,
            rate_window: Duration::from_nanos(1_000),
            rate_burst: 1,
        },
        Instant::now(),
    );
    journal.emit_at(100, EventCode::QueueFull, Severity::Warn, 256, 256);
    journal.emit_at(200, EventCode::QueueFull, Severity::Warn, 257, 256);
    journal.emit_at(1_500, EventCode::QueueFull, Severity::Warn, 258, 256);
    journal.emit_at(1_600, EventCode::DrainBegin, Severity::Info, 0, 3);
    golden!("event_journal", journal.to_json());
}

/// A fixed synthetic state with every counter distinct enough that a
/// crossed accessor or a reordered family shows in the text. Window
/// traffic is recorded "just now", so all three trailing windows hold
/// it whenever the render happens. Completions, failures and batches go
/// through `record` / `record_batch`, like a server's; the aborted,
/// expired and cancelled counts go straight into the ledger, as if
/// recorded more than 60 s ago, so they reach no trailing window.
fn synthetic_metrics() -> ServerMetrics {
    let m = ServerMetrics::new(2);
    m.submitted.add(40);
    m.rejected.add(3);
    m.rejected_shutdown.add(1);
    m.queue_depth.set(5);
    m.queue_depth_hwm.observe(17);
    m.shed.add(2);
    m.shard_restarts.add(1);
    for (i, n) in [12u64, 6].into_iter().enumerate() {
        let s = m.shard(i);
        let p = if i == 0 {
            Precision::F32
        } else {
            Precision::Int8
        };
        s.retries.add(5);
        s.inflight_batches.inc();
        for _ in 0..n / 3 {
            s.record_batch(p, 3);
        }
        for k in 0..n {
            s.record(p, Outcome::Completed(Duration::from_micros(100 + 40 * k)));
            s.queue_wait.record(Duration::from_micros(10 + k));
            s.service.record(Duration::from_micros(50));
        }
        s.record(p, Outcome::Failed);
        let pm = s.precision(p);
        pm.aborted.add(2);
        pm.expired.add(3);
        pm.cancelled.add(4);
    }
    m.events()
        .emit_at(500, EventCode::QueueFull, Severity::Warn, 256, 256);
    m
}

#[test]
fn prometheus_exposition_matches_golden_plus_the_two_new_families() {
    // `server_metrics.prom` is the hand-written renderer's output on
    // this state. The table-driven renderer must reproduce it line for
    // line, adding only the two per-precision families the hand-kept
    // list had dropped.
    let text = synthetic_metrics().render_prometheus();
    let added = [
        "pcnn_precision_expired_total",
        "pcnn_precision_cancelled_total",
    ];
    let is_added = |line: &&str| {
        added.iter().any(|name| {
            line.starts_with(&format!("{name}{{"))
                || line.starts_with(&format!("# HELP {name} "))
                || line.starts_with(&format!("# TYPE {name} "))
        })
    };
    assert_eq!(text.lines().filter(is_added).count(), 2 * 4);
    assert!(text.contains("pcnn_precision_expired_total{precision=\"int8\"} 3\n"));
    assert!(text.contains("pcnn_precision_cancelled_total{precision=\"f32\"} 4\n"));
    let kept: Vec<&str> = text.lines().filter(|l| !is_added(l)).collect();
    let golden: Vec<&str> = include_str!("golden/server_metrics.prom").lines().collect();
    for (i, (g, k)) in golden.iter().zip(&kept).enumerate() {
        assert_eq!(g, k, "exposition diverges at line {}", i + 1);
    }
    assert_eq!(golden.len(), kept.len());
}
