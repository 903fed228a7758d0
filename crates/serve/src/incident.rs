//! The black-box incident recorder: when the server crosses into a
//! failure mode, capture *everything diagnosable* at that instant —
//! before the windows roll, the rings overwrite, and the evidence is
//! gone.
//!
//! A [`DiagnosticSnapshot`] is the union of every observability tier
//! the stack has: build info, the effective [`crate::ServeConfig`],
//! the full telemetry snapshot (counters, histograms, rolling
//! windows), the [`HealthReport`] that pulled the trigger, a
//! span-driven [`AttributionReport`], the recent span and event tails,
//! and (when profiling is on) the engine's [`ExecProfile`]. The
//! [`IncidentRecorder`] captures one automatically on:
//!
//! * a health transition **into** `Degraded` or `Overloaded`
//!   (recoveries are journal events, not incidents),
//! * the **first** `EngineFault` a server ever serves,
//! * every supervisor shard restart (rate-limited by the cooldown, so
//!   a crash-loop produces one report, not one per respawn), and
//! * a drain that finishes with failures
//!   ([`DrainReport::has_failures`]).
//!
//! Captures are expensive relative to the datapath (they sort span
//! dumps and merge histograms), so a **cooldown** turns a trigger
//! storm — the queue-full/shed/degrade avalanche of one overload —
//! into exactly one report; suppressed triggers are counted, never
//! recorded. Reports land in a small in-memory ring (newest last) and,
//! when `PCNN_INCIDENT_DIR` is set in the server's environment at
//! start, are also written there as standalone JSON files,
//! best-effort: persistence failures never propagate into serving.
//!
//! The same snapshot is available on demand — without a trigger,
//! without the cooldown, and without occupying the ring — via
//! `Server::diagnostics()`, the one-call "what is going on right now"
//! dump.

use crate::attribution::AttributionReport;
use crate::events::RecordedEvent;
use crate::health::{BurnWindow, HealthReport, HealthState};
use crate::metrics::{Counter, ServerMetrics, TelemetrySnapshot};
use crate::shutdown::DrainReport;
use crate::trace::{FlightRecorder, RecordedSpan};
use crate::ServeConfig;
use pcnn_runtime::{json, ExecProfile, ExecProfiler};
use pcnn_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use pcnn_sync::{Arc, Mutex};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Duration;

/// Incidents retained in memory; older reports are evicted.
const INCIDENT_RING_CAPACITY: usize = 8;
/// Newest spans carried inside a snapshot (the full dump stays in the
/// flight recorder).
const SPAN_TAIL: usize = 32;
/// Newest journal events carried inside a snapshot.
const EVENT_TAIL: usize = 32;
/// Default spacing between automatic captures.
const DEFAULT_COOLDOWN: Duration = Duration::from_secs(5);

/// Why a snapshot was captured. Labels are stable — they name the
/// persisted files and the JSON `"trigger"` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentTrigger {
    /// Health stepped into `Degraded`.
    HealthDegraded,
    /// Health stepped into `Overloaded`.
    HealthOverloaded,
    /// The server's first `EngineFault`.
    EngineFault,
    /// The supervisor tore down and respawned a dead shard.
    ShardRestart,
    /// Shutdown drained with lifetime failures on the books.
    DrainFailures,
    /// Explicit `Server::diagnostics()` call — never stored in the
    /// incident ring.
    OnDemand,
}

impl IncidentTrigger {
    /// The stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            IncidentTrigger::HealthDegraded => "health_degraded",
            IncidentTrigger::HealthOverloaded => "health_overloaded",
            IncidentTrigger::EngineFault => "engine_fault",
            IncidentTrigger::ShardRestart => "shard_restart",
            IncidentTrigger::DrainFailures => "drain_failures",
            IncidentTrigger::OnDemand => "on_demand",
        }
    }
}

impl std::fmt::Display for IncidentTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything diagnosable about a server at one instant — the payload
/// of an incident and of `Server::diagnostics()`.
#[derive(Debug, Clone)]
pub struct DiagnosticSnapshot {
    /// Why the snapshot was captured.
    pub trigger: IncidentTrigger,
    /// Nanoseconds on the metrics' epoch clock at capture.
    pub captured_at_ns: u64,
    /// Crate version (`pcnn_build_info`'s `version` label).
    pub version: &'static str,
    /// Active SIMD dispatch level.
    pub simd: &'static str,
    /// Engine shards serving the queue.
    pub shards: usize,
    /// The server's default execution precision.
    pub precision: &'static str,
    /// The effective [`ServeConfig`], serialized
    /// ([`ServeConfig::to_json`]).
    pub config: String,
    /// Counters, histograms, and rolling windows at capture.
    pub telemetry: TelemetrySnapshot,
    /// The health evaluation that pulled the trigger (the last known
    /// one for fault/drain/on-demand captures).
    pub health: HealthReport,
    /// Latency attribution over the flight recorder's current dump,
    /// with the engine phase cross-reference when profiling is on.
    pub attribution: AttributionReport,
    /// The newest sampled span timelines (up to 32).
    pub spans: Vec<RecordedSpan>,
    /// The newest journal events (up to 32).
    pub events: Vec<RecordedEvent>,
    /// The engine's per-layer profile, when profiling was enabled.
    pub exec_profile: Option<ExecProfile>,
}

impl DiagnosticSnapshot {
    /// The snapshot as one JSON object — the schema documented in the
    /// README's "Forensics & incidents" section.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("trigger", self.trigger.label())
                .int("captured_at_ns", self.captured_at_ns)
                .object("build", |b| {
                    b.str("version", self.version)
                        .str("simd", self.simd)
                        .int("shards", self.shards)
                        .str("precision", self.precision);
                })
                .raw("config", &self.config)
                .raw("telemetry", &self.telemetry.to_json())
                .raw("health", &self.health.to_json())
                .raw("attribution", &self.attribution.to_json())
                .raw_array("spans", &self.spans, RecordedSpan::to_json)
                .raw_array("events", &self.events, RecordedEvent::to_json);
            match &self.exec_profile {
                Some(profile) => o.raw("exec_profile", &profile.to_json()),
                None => o.null("exec_profile"),
            };
        })
    }
}

impl std::fmt::Display for DiagnosticSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "incident[{}] at {:.3} ms (v{}, simd {}, {} shard(s), {} default)",
            self.trigger,
            self.captured_at_ns as f64 / 1e6,
            self.version,
            self.simd,
            self.shards,
            self.precision,
        )?;
        writeln!(f, "{}", self.health)?;
        writeln!(f, "{}", self.telemetry)?;
        write!(f, "{}", self.attribution)?;
        writeln!(f, "event tail ({} events):", self.events.len())?;
        for e in &self.events {
            writeln!(f, "  {e}")?;
        }
        write!(
            f,
            "span tail: {} spans{}",
            self.spans.len(),
            if self.exec_profile.is_some() {
                "; exec profile attached"
            } else {
                ""
            }
        )
    }
}

/// Watches for failure-mode triggers and captures
/// [`DiagnosticSnapshot`]s into a bounded ring, with a cooldown so
/// trigger storms produce one report.
pub struct IncidentRecorder {
    config: ServeConfig,
    /// The exec profiler shared by every engine generation of the
    /// server (restarts replace the worker pool, never the profiler),
    /// so captures stay valid across supervisor respawns.
    profiler: Arc<ExecProfiler>,
    shards: usize,
    metrics: Arc<ServerMetrics>,
    recorder: Arc<FlightRecorder>,
    cooldown: Duration,
    /// Epoch-clock stamp of the last capture; 0 = never captured.
    last_capture_ns: AtomicU64,
    /// Whether the first-fault trigger already fired.
    fault_seen: AtomicBool,
    captured: AtomicU64,
    suppressed: Counter,
    /// The most recent health evaluation, for captures whose trigger
    /// carries no report of its own (faults, drains, on-demand).
    last_health: Mutex<Option<HealthReport>>,
    ring: Mutex<VecDeque<Arc<DiagnosticSnapshot>>>,
    /// JSON persistence target (`PCNN_INCIDENT_DIR`), when set.
    dir: Option<PathBuf>,
}

impl IncidentRecorder {
    /// A recorder over a server's observability surfaces. Reads
    /// `PCNN_INCIDENT_DIR` from the environment once, here: persistence
    /// is decided at server start, not per incident.
    pub(crate) fn new(
        config: &ServeConfig,
        profiler: Arc<ExecProfiler>,
        shards: usize,
        metrics: Arc<ServerMetrics>,
        recorder: Arc<FlightRecorder>,
    ) -> IncidentRecorder {
        IncidentRecorder {
            config: config.clone(),
            profiler,
            shards,
            metrics,
            recorder,
            cooldown: DEFAULT_COOLDOWN,
            last_capture_ns: AtomicU64::new(0),
            fault_seen: AtomicBool::new(false),
            captured: AtomicU64::new(0),
            suppressed: Counter::default(),
            last_health: Mutex::new(None),
            ring: Mutex::new(VecDeque::new()),
            dir: std::env::var_os("PCNN_INCIDENT_DIR").map(PathBuf::from),
        }
    }

    /// Overrides the persistence directory (tests; production uses the
    /// environment variable).
    #[cfg(test)]
    pub(crate) fn set_dir(&mut self, dir: Option<PathBuf>) {
        self.dir = dir;
    }

    /// The spacing automatic captures are rate-limited to.
    pub fn cooldown(&self) -> Duration {
        self.cooldown
    }

    /// Incidents captured since the server started.
    pub fn captured(&self) -> u64 {
        // ordering: statistics read; snapshot readers tolerate lag.
        self.captured.load(Ordering::Relaxed)
    }

    /// Triggers swallowed by the cooldown.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.get()
    }

    /// The retained incidents, oldest first.
    pub fn incidents(&self) -> Vec<Arc<DiagnosticSnapshot>> {
        self.ring
            .lock()
            .expect("incident ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Caches the most recent health evaluation for captures whose
    /// trigger has no report of its own.
    pub(crate) fn note_health(&self, report: &HealthReport) {
        *self.last_health.lock().expect("health cache poisoned") = Some(report.clone());
    }

    /// Health-transition hook: deteriorations into `Degraded` /
    /// `Overloaded` are incidents; recoveries only refresh the cache.
    pub(crate) fn on_health_transition(
        &self,
        from: HealthState,
        to: HealthState,
        report: &HealthReport,
    ) {
        self.note_health(report);
        if to <= from {
            return; // recoveries are journal events, not incidents
        }
        let trigger = match to {
            HealthState::Degraded => IncidentTrigger::HealthDegraded,
            HealthState::Overloaded => IncidentTrigger::HealthOverloaded,
            HealthState::Healthy => return,
        };
        self.record(trigger, report.clone());
    }

    /// Engine-fault hook: the **first** fault a server serves is an
    /// incident; later ones are (rate-limited) journal events only.
    pub(crate) fn on_engine_fault(&self) {
        // ordering: the swap's atomicity elects exactly one first-fault
        // capturer; nothing else is published through the flag.
        if self.fault_seen.swap(true, Ordering::Relaxed) {
            return;
        }
        self.record(IncidentTrigger::EngineFault, self.health_or_default());
    }

    /// Shard-restart hook: every supervisor respawn wants its forensic
    /// context, but a crash-loop must not flood the ring — the regular
    /// cooldown coalesces the storm into one report.
    pub(crate) fn on_shard_restart(&self) {
        self.record(IncidentTrigger::ShardRestart, self.health_or_default());
    }

    /// Drain hook: a shutdown that finishes with failures on the books
    /// is the last chance to capture why.
    pub(crate) fn on_drain(&self, report: &DrainReport) {
        if !report.has_failures() {
            return;
        }
        self.record(IncidentTrigger::DrainFailures, self.health_or_default());
    }

    /// The on-demand snapshot: no trigger, no cooldown, not stored.
    pub fn diagnostics(&self) -> DiagnosticSnapshot {
        self.build(IncidentTrigger::OnDemand, self.health_or_default())
    }

    fn health_or_default(&self) -> HealthReport {
        self.last_health
            .lock()
            .expect("health cache poisoned")
            .clone()
            .unwrap_or_else(|| self.empty_health())
    }

    /// A structurally complete report for captures that fire before any
    /// health evaluation ran (e.g. a fault on the very first batch).
    fn empty_health(&self) -> HealthReport {
        let empty = |window: Duration| BurnWindow {
            window,
            ..BurnWindow::default()
        };
        HealthReport {
            state: HealthState::Healthy,
            fast: empty(self.config.slo.fast_window),
            slow: empty(self.config.slo.slow_window),
            transitions: 0,
            shed: self.metrics.shed.get(),
        }
    }

    /// Claims the cooldown slot: at most one automatic capture per
    /// [`IncidentRecorder::cooldown`], decided by one CAS so racing
    /// triggers elect a single capturer.
    fn try_claim(&self) -> bool {
        let now = self.metrics.now_ns().max(1);
        let cooldown = self.cooldown.as_nanos().min(u64::MAX as u128) as u64;
        // ordering: the stamp only rate-limits captures — the snapshot
        // a winner builds reads its data through the metrics' and
        // rings' own synchronization, so the whole gate stays relaxed.
        let last = self.last_capture_ns.load(Ordering::Relaxed);
        if last != 0 && now.saturating_sub(last) < cooldown {
            return false;
        }
        // ordering: covered by the gate contract above; losers of the
        // race count as suppressed.
        self.last_capture_ns
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    fn record(&self, trigger: IncidentTrigger, health: HealthReport) {
        if !self.try_claim() {
            self.suppressed.inc();
            return;
        }
        let snap = Arc::new(self.build(trigger, health));
        // ordering: statistics counter; the ring mutex below is what
        // publishes the snapshot itself.
        let n = self.captured.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut ring = self.ring.lock().expect("incident ring poisoned");
            if ring.len() == INCIDENT_RING_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(Arc::clone(&snap));
        }
        self.persist(n, &snap);
    }

    /// Best-effort JSON persistence: a missing directory or full disk
    /// must never take down serving, so every error is swallowed.
    fn persist(&self, n: u64, snap: &DiagnosticSnapshot) {
        let Some(dir) = &self.dir else { return };
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("incident-{:04}-{}.json", n, snap.trigger.label()));
        let _ = std::fs::write(path, snap.to_json());
    }

    /// Assembles the full snapshot from every observability tier.
    fn build(&self, trigger: IncidentTrigger, health: HealthReport) -> DiagnosticSnapshot {
        let spans = self.recorder.spans();
        let mut attribution = AttributionReport::analyze(&spans);
        let exec_profile = self.profiler.snapshot_if_enabled();
        if let Some(profile) = &exec_profile {
            attribution.attach_exec_profile(profile);
        }
        let span_skip = spans.len().saturating_sub(SPAN_TAIL);
        DiagnosticSnapshot {
            trigger,
            captured_at_ns: self.metrics.now_ns(),
            version: env!("CARGO_PKG_VERSION"),
            simd: pcnn_tensor::simd::active().label(),
            shards: self.shards,
            precision: self.config.precision.label(),
            config: self.config.to_json(),
            telemetry: self.metrics.snapshot(),
            health,
            attribution,
            spans: spans[span_skip..].to_vec(),
            events: self.metrics.events().tail(EVENT_TAIL),
            exec_profile,
        }
    }
}

impl std::fmt::Debug for IncidentRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncidentRecorder")
            .field("captured", &self.captured())
            .field("suppressed", &self.suppressed())
            .field("cooldown", &self.cooldown)
            .field("dir", &self.dir)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventCode, Severity};
    use crate::health::{HealthEngine, SloConfig};
    use crate::metrics::Outcome;
    use crate::shutdown::ShutdownMode;
    use crate::trace::TraceConfig;
    use pcnn_nn::models;
    use pcnn_runtime::compile::compile_dense;
    use pcnn_runtime::{Engine, Precision};

    /// A recorder over freshly built (trafficless) surfaces, plus the
    /// profiler handle it observes.
    fn recorder_with_profiler() -> (IncidentRecorder, Arc<ExecProfiler>) {
        let config = ServeConfig::default();
        let engine = Engine::new(compile_dense(&models::tiny_cnn(3, 4, 1)), 1);
        let profiler = engine.profiler_handle();
        let metrics = Arc::new(ServerMetrics::with_config(1, config.events.clone()));
        let recorder = Arc::new(FlightRecorder::new(&TraceConfig::default(), 1, None));
        let mut r = IncidentRecorder::new(&config, profiler.clone(), 1, metrics, recorder);
        r.set_dir(None); // tests must not inherit PCNN_INCIDENT_DIR
        (r, profiler)
    }

    fn recorder_under_test() -> IncidentRecorder {
        recorder_with_profiler().0
    }

    /// A degraded-state report produced by a real evaluation against
    /// violating traffic.
    fn degraded_report(r: &IncidentRecorder) -> HealthReport {
        let h = HealthEngine::new(SloConfig {
            latency_target: Duration::from_nanos(1),
            min_samples: 5,
            ..SloConfig::default()
        });
        let slow = Outcome::Completed(Duration::from_millis(5));
        for _ in 0..50 {
            r.metrics.shard(0).record(Precision::F32, slow);
        }
        h.evaluate_at(&r.metrics, r.metrics.now_ns())
    }

    #[test]
    fn deterioration_captures_once_and_the_cooldown_absorbs_the_storm() {
        let r = recorder_under_test();
        let report = degraded_report(&r);
        assert_eq!(report.state, HealthState::Degraded);
        r.on_health_transition(HealthState::Healthy, HealthState::Degraded, &report);
        assert_eq!(r.captured(), 1);
        // The follow-up Overloaded step lands inside the cooldown.
        r.on_health_transition(HealthState::Degraded, HealthState::Overloaded, &report);
        assert_eq!(r.captured(), 1, "storm coalesced into one report");
        assert_eq!(r.suppressed(), 1);
        // Recoveries never capture, cooldown or not.
        r.on_health_transition(HealthState::Overloaded, HealthState::Degraded, &report);
        assert_eq!(r.captured(), 1);
        assert_eq!(r.suppressed(), 1, "recovery is not even a trigger");
        let incidents = r.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].trigger, IncidentTrigger::HealthDegraded);
        assert_eq!(incidents[0].health.state, HealthState::Degraded);
    }

    #[test]
    fn only_the_first_engine_fault_is_an_incident() {
        let r = recorder_under_test();
        r.on_engine_fault();
        r.on_engine_fault();
        r.on_engine_fault();
        assert_eq!(r.captured(), 1);
        assert_eq!(
            r.incidents()[0].trigger,
            IncidentTrigger::EngineFault,
            "fault captures carry the fault trigger"
        );
        assert_eq!(
            r.incidents()[0].health.state,
            HealthState::Healthy,
            "no evaluation yet: the structural default report is used"
        );
    }

    #[test]
    fn drains_capture_only_when_they_failed() {
        let drain = |failed: u64| DrainReport {
            mode: ShutdownMode::Drain,
            completed: 10,
            aborted: 0,
            failed,
            expired: 0,
            cancelled: 0,
            rejected_at_shutdown: 0,
            precisions: Vec::new(),
            spans: Vec::new(),
            wall: Duration::ZERO,
        };
        let clean = recorder_under_test();
        clean.on_drain(&drain(0));
        assert_eq!(clean.captured(), 0);
        let dirty = recorder_under_test();
        dirty.on_drain(&drain(3));
        assert_eq!(dirty.captured(), 1);
        assert_eq!(dirty.incidents()[0].trigger, IncidentTrigger::DrainFailures);
    }

    #[test]
    fn diagnostics_bypasses_cooldown_and_never_occupies_the_ring() {
        let r = recorder_under_test();
        let snap = r.diagnostics();
        assert_eq!(snap.trigger, IncidentTrigger::OnDemand);
        let again = r.diagnostics();
        assert_eq!(again.trigger, IncidentTrigger::OnDemand);
        assert_eq!(r.captured(), 0, "on-demand snapshots are not incidents");
        assert!(r.incidents().is_empty());
    }

    #[test]
    fn snapshot_json_carries_the_documented_schema() {
        let r = recorder_under_test();
        r.metrics
            .events()
            .emit_at(500, EventCode::QueueFull, Severity::Warn, 256, 256);
        let report = degraded_report(&r);
        r.on_health_transition(HealthState::Healthy, HealthState::Degraded, &report);
        let snap = &r.incidents()[0];
        assert!(!snap.events.is_empty(), "event tail rides along");
        let json = snap.to_json();
        for key in [
            "\"trigger\":\"health_degraded\"",
            "\"captured_at_ns\":",
            "\"build\":{\"version\":\"",
            "\"config\":{\"queue_capacity\":256",
            "\"telemetry\":{",
            "\"health\":{\"state\":\"degraded\"",
            "\"attribution\":{\"analyzed\":",
            "\"spans\":[",
            "\"events\":[{\"seq\":1,\"code\":\"queue_full\"",
            "\"exec_profile\":null",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        let text = format!("{snap}");
        assert!(text.contains("incident[health_degraded]"));
        // Two events ride along: the seeded queue_full plus the
        // health_transition the evaluation itself journaled.
        assert!(text.contains("event tail (2 events):"));
        assert!(json.contains("\"code\":\"health_transition\""));
    }

    #[test]
    fn enabled_profiler_attaches_the_exec_profile() {
        let (r, profiler) = recorder_with_profiler();
        profiler.set_enabled(true);
        let snap = r.diagnostics();
        assert!(snap.exec_profile.is_some());
        assert!(snap.to_json().contains("\"exec_profile\":{"));
    }

    #[test]
    fn shard_restarts_capture_with_the_restart_trigger_under_cooldown() {
        let r = recorder_under_test();
        r.on_shard_restart();
        r.on_shard_restart();
        r.on_shard_restart();
        assert_eq!(r.captured(), 1, "crash-loop coalesced by the cooldown");
        assert_eq!(r.suppressed(), 2);
        assert_eq!(r.incidents()[0].trigger, IncidentTrigger::ShardRestart);
        assert!(r.incidents()[0]
            .to_json()
            .contains("\"trigger\":\"shard_restart\""));
    }

    #[test]
    fn incident_dir_persists_one_json_file_per_capture() {
        let dir = std::env::temp_dir().join(format!(
            "pcnn-incident-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut r = recorder_under_test();
        r.set_dir(Some(dir.clone()));
        let report = degraded_report(&r);
        r.on_health_transition(HealthState::Healthy, HealthState::Degraded, &report);
        let path = dir.join("incident-0001-health_degraded.json");
        let body = std::fs::read_to_string(&path).expect("incident persisted");
        assert!(body.starts_with("{\"trigger\":\"health_degraded\""));
        assert!(body.ends_with('}'));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
