//! The structured event journal: the forensics layer between metrics
//! (which count) and spans (which time). Discrete control-plane
//! happenings — a queue-full rejection, a shed decision, an engine
//! fault, a health transition — are **events**: rare, individually
//! meaningful, and exactly what a 3am postmortem wants in order, with
//! timestamps, after the fact.
//!
//! Writers never block and never allocate: an emission is a handful of
//! relaxed counter bumps, one CAS on the per-code rate limiter, and a
//! seqlock publication into a bounded `SeqRing` (the ring
//! [`crate::trace`]'s span recorder shares). A writer that loses a ring
//! slot to a lap-racing writer drops its record and ticks a counter
//! instead of spinning, so the journal can sit on the admission path
//! and inside completion callbacks without ever stalling them.
//!
//! **Rate limiting with coalesced repeats.** Event storms are the
//! norm, not the exception: a saturated queue rejects thousands of
//! times per second, and each rejection is the *same* fact. Each
//! [`EventCode`] therefore carries an `EpochCell` rate limiter (one
//! packed `window_tag << 32 | count` word, rotated and bumped in a
//! single CAS — the cell `crate::window`'s counters are built from): at
//! most [`EventConfig::rate_burst`] records of a code are published
//! per [`EventConfig::rate_window`], and suppressed occurrences
//! accumulate into the **`repeats`** field of that code's next
//! published record, so the journal keeps the full count while the
//! ring keeps only the interesting edges. The per-`(code, severity)`
//! totals (`pcnn_events_total`) count every occurrence regardless.
//!
//! Timestamps are nanoseconds on the owning
//! [`crate::metrics::ServerMetrics`]' epoch — the same monotonic clock
//! the rolling windows and health evaluations read — so an event tail
//! lines up with window snapshots and span timelines without clock
//! translation.

use crate::metrics::Counter;
use crate::seqring::SeqRing;
use crate::window::EpochCell;
use pcnn_runtime::json;
use pcnn_sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Stable identities of the journalled control-plane events. The
/// snake_case labels are the `code` label values of
/// `pcnn_events_total` and the `"code"` field of the JSON tail —
/// append new codes, never renumber or rename existing ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventCode {
    /// Admission rejected a request because the queue was at capacity
    /// (`a` = queue length, `b` = capacity).
    QueueFull = 0,
    /// The health engine shed a low-priority request while Overloaded
    /// (`a` = total shed so far, `b` = health state code).
    Shed = 1,
    /// A request failed because its engine pass faulted
    /// (`a` = shard, `b` = total failed so far).
    EngineFault = 2,
    /// An abort shutdown failed a coalesced batch
    /// (`a` = shard, `b` = batch length).
    BatchAbort = 3,
    /// The health state machine moved
    /// (`a` = from-state code, `b` = to-state code).
    HealthTransition = 4,
    /// The flight recorder lost a span to ring-slot contention
    /// (`a` = shard, `b` = total spans dropped so far).
    TraceRingOverwrite = 5,
    /// Shutdown began (`a` = mode: 0 drain, 1 abort; `b` = queue
    /// length at close).
    DrainBegin = 6,
    /// Shutdown finished (`a` = mode, `b` = lifetime failed count).
    DrainEnd = 7,
    /// A request's deadline passed before it dispatched; the batcher
    /// dropped it at dequeue (`a` = shard, `b` = total expired so far).
    DeadlineExceeded = 8,
    /// A transiently-faulted request was re-queued for another attempt
    /// on a different shard (`a` = the shard that failed it, `b` = the
    /// attempt number being retried).
    Retry = 9,
    /// The supervisor declared a shard dead and respawned its engine
    /// pool and batcher (`a` = shard, `b` = the shard's new
    /// generation).
    ShardRestart = 10,
    /// A shard's circuit breaker changed state (`a` = shard, `b` =
    /// state code: 0 closed, 1 open, 2 half-open).
    CircuitBreaker = 11,
}

/// Number of event codes — the size of every per-code table.
pub const EVENT_CODES: usize = 12;

impl EventCode {
    /// Every code, in discriminant order (the iteration order of the
    /// Prometheus rendering).
    pub const ALL: [EventCode; EVENT_CODES] = [
        EventCode::QueueFull,
        EventCode::Shed,
        EventCode::EngineFault,
        EventCode::BatchAbort,
        EventCode::HealthTransition,
        EventCode::TraceRingOverwrite,
        EventCode::DrainBegin,
        EventCode::DrainEnd,
        EventCode::DeadlineExceeded,
        EventCode::Retry,
        EventCode::ShardRestart,
        EventCode::CircuitBreaker,
    ];

    /// The stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            EventCode::QueueFull => "queue_full",
            EventCode::Shed => "shed",
            EventCode::EngineFault => "engine_fault",
            EventCode::BatchAbort => "batch_abort",
            EventCode::HealthTransition => "health_transition",
            EventCode::TraceRingOverwrite => "trace_ring_overwrite",
            EventCode::DrainBegin => "drain_begin",
            EventCode::DrainEnd => "drain_end",
            EventCode::DeadlineExceeded => "deadline_exceeded",
            EventCode::Retry => "retry",
            EventCode::ShardRestart => "shard_restart",
            EventCode::CircuitBreaker => "circuit_breaker",
        }
    }

    fn from_index(i: u64) -> EventCode {
        EventCode::ALL[(i as usize) % EVENT_CODES]
    }
}

impl std::fmt::Display for EventCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How alarming an event is, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Expected lifecycle fact (a drain beginning, a recovery).
    Info = 0,
    /// Load or capacity pressure (rejections, sheds, degradations).
    Warn = 1,
    /// Something failed (an engine fault, an overload transition).
    Error = 2,
}

/// Number of severities — the size of every per-severity table.
pub const SEVERITIES: usize = 3;

impl Severity {
    /// Every severity, in ascending order.
    pub const ALL: [Severity; SEVERITIES] = [Severity::Info, Severity::Warn, Severity::Error];

    /// The stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    fn from_index(i: u64) -> Severity {
        Severity::ALL[(i as usize) % SEVERITIES]
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Journal knobs of a server ([`crate::ServeConfig::events`]).
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Records retained in the ring; older records are overwritten.
    pub ring_capacity: usize,
    /// The rate-limit window each code's burst budget refills on.
    /// Windows are numbered modulo 2^32 (`EpochCell`), so a code
    /// silent for more than 2^31 windows (6.8 years at the default) can
    /// read as stale when it next fires.
    pub rate_window: Duration,
    /// Records of one code published per window; further occurrences
    /// of that code coalesce into the next record's `repeats`. `0`
    /// disables rate limiting (every occurrence publishes).
    pub rate_burst: u32,
}

impl Default for EventConfig {
    /// 256 records, at most 16 records per code per 100 ms.
    fn default() -> Self {
        EventConfig {
            ring_capacity: 256,
            rate_window: Duration::from_millis(100),
            rate_burst: 16,
        }
    }
}

/// Number of atomic words one encoded event occupies in a ring slot.
const EVENT_WORDS: usize = 6;

/// One published journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Publication sequence number (1-based, strictly increasing) —
    /// the journal's total order.
    pub seq: u64,
    /// What happened.
    pub code: EventCode,
    /// How alarming it was.
    pub severity: Severity,
    /// Nanoseconds since the owning metrics' epoch.
    pub t_ns: u64,
    /// First payload word (meaning is per-code, see [`EventCode`]).
    pub a: u64,
    /// Second payload word (meaning is per-code, see [`EventCode`]).
    pub b: u64,
    /// Occurrences of this code suppressed by the rate limiter since
    /// the previous published record of the code.
    pub repeats: u64,
}

impl RecordedEvent {
    /// The record as one JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.int("seq", self.seq)
                .str("code", self.code.label())
                .str("severity", self.severity.label())
                .int("t_ns", self.t_ns)
                .int("a", self.a)
                .int("b", self.b)
                .int("repeats", self.repeats);
        })
    }

    fn encode(&self) -> [u64; EVENT_WORDS] {
        let meta = ((self.code as u64) << 8) | self.severity as u64;
        [self.seq, meta, self.t_ns, self.a, self.b, self.repeats]
    }

    fn decode(words: &[u64; EVENT_WORDS]) -> RecordedEvent {
        let meta = words[1];
        RecordedEvent {
            seq: words[0],
            code: EventCode::from_index(meta >> 8),
            severity: Severity::from_index(meta & 0xff),
            t_ns: words[2],
            a: words[3],
            b: words[4],
            repeats: words[5],
        }
    }
}

impl std::fmt::Display for RecordedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{} [{}] {} at {:.3} ms (a={}, b={}",
            self.seq,
            self.severity,
            self.code,
            self.t_ns as f64 / 1e6,
            self.a,
            self.b,
        )?;
        if self.repeats > 0 {
            write!(f, ", +{} coalesced", self.repeats)?;
        }
        f.write_str(")")
    }
}

/// The lock-free, bounded, rate-limited structured event journal.
pub struct EventJournal {
    epoch: Instant,
    window_ns: u64,
    burst: u64,
    ring: SeqRing<EVENT_WORDS>,
    /// Records published in the current rate window, one cell per code.
    limiter: [EpochCell; EVENT_CODES],
    /// Occurrences suppressed since each code's last published record,
    /// drained into that record's `repeats`.
    pending_repeats: [AtomicU64; EVENT_CODES],
    /// Every occurrence, by (code, severity) — `pcnn_events_total`.
    totals: [[Counter; SEVERITIES]; EVENT_CODES],
    /// Publication sequence numbers (the `seq` of published records).
    next_seq: AtomicU64,
    emitted: Counter,
    published: Counter,
    suppressed: Counter,
    dropped: Counter,
}

impl EventJournal {
    /// A journal stamping timestamps against `epoch` (the owning
    /// metrics' start instant).
    pub fn new(config: &EventConfig, epoch: Instant) -> EventJournal {
        EventJournal {
            epoch,
            window_ns: config.rate_window.as_nanos().min(u64::MAX as u128) as u64,
            burst: config.rate_burst as u64,
            ring: SeqRing::new(config.ring_capacity),
            limiter: Default::default(),
            pending_repeats: std::array::from_fn(|_| AtomicU64::new(0)),
            totals: Default::default(),
            next_seq: AtomicU64::new(0),
            emitted: Counter::default(),
            published: Counter::default(),
            suppressed: Counter::default(),
            dropped: Counter::default(),
        }
    }

    /// Nanoseconds since the journal's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Journals one event at the current instant.
    pub fn emit(&self, code: EventCode, severity: Severity, a: u64, b: u64) {
        self.emit_at(self.now_ns(), code, severity, a, b);
    }

    /// Journals one event at an explicit timestamp (nanoseconds on the
    /// epoch clock) — the deterministic entry point tests and the
    /// health engine (which already carries an explicit `now_ns`) use.
    pub fn emit_at(&self, t_ns: u64, code: EventCode, severity: Severity, a: u64, b: u64) {
        self.emitted.inc();
        self.totals[code as usize][severity as usize].inc();
        if !self.admit(code, t_ns) {
            self.suppressed.inc();
            // ordering: the pending count is drained by `swap` in the
            // next publication, whose atomicity alone keeps repeats
            // exactly-once.
            self.pending_repeats[code as usize].fetch_add(1, Ordering::Relaxed);
            return;
        }
        // ordering: the swap's atomicity guarantees each suppressed
        // occurrence is folded into exactly one record's repeats.
        let repeats = self.pending_repeats[code as usize].swap(0, Ordering::Relaxed);
        // ordering: uniqueness comes from the RMW itself; the seq
        // carries no payload to publish (the ring protocol does that).
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let event = RecordedEvent {
            seq,
            code,
            severity,
            t_ns,
            a,
            b,
            repeats,
        };
        if self.ring.push(event.encode()) {
            self.published.inc();
        } else {
            self.dropped.inc();
        }
    }

    /// The rate-limit decision: at most `burst` publications per code
    /// per window, counted in the code's [`EpochCell`] — one CAS both
    /// rotates the window and bumps the count, so a publication racing
    /// the rotation is never absorbed by a separate zeroing store. A
    /// stamp from an already-superseded window (two emitters reading
    /// the clock either side of a boundary) coalesces instead of
    /// refilling the budget.
    fn admit(&self, code: EventCode, t_ns: u64) -> bool {
        if self.burst == 0 || self.window_ns == 0 {
            return true;
        }
        self.limiter[code as usize].deposit(t_ns / self.window_ns, 1, self.burst)
    }

    /// Occurrences journalled (published, suppressed, or dropped).
    pub fn emitted(&self) -> u64 {
        self.emitted.get()
    }

    /// Records published into the ring.
    pub fn published(&self) -> u64 {
        self.published.get()
    }

    /// Occurrences coalesced away by the per-code rate limiter.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.get()
    }

    /// Records lost to ring-slot contention (never by blocking).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Occurrences of one `(code, severity)` cell — the value of
    /// `pcnn_events_total{code,severity}`.
    pub fn total(&self, code: EventCode, severity: Severity) -> u64 {
        self.totals[code as usize][severity as usize].get()
    }

    /// The retained records, oldest first (sorted by publication
    /// sequence).
    pub fn events(&self) -> Vec<RecordedEvent> {
        let mut out = Vec::new();
        self.ring
            .for_each(|words| out.push(RecordedEvent::decode(words)));
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The newest `n` retained records, oldest of them first — the
    /// event tail telemetry snapshots and diagnostics carry.
    pub fn tail(&self, n: usize) -> Vec<RecordedEvent> {
        let mut all = self.events();
        let skip = all.len().saturating_sub(n);
        all.drain(..skip);
        all
    }

    /// The journal as one JSON object (counters plus the full retained
    /// record list).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.int("emitted", self.emitted())
                .int("published", self.published())
                .int("suppressed", self.suppressed())
                .int("dropped", self.dropped())
                .raw_array("events", &self.events(), RecordedEvent::to_json);
        })
    }
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("emitted", &self.emitted())
            .field("published", &self.published())
            .field("suppressed", &self.suppressed())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_sync::Arc;

    fn journal(config: EventConfig) -> EventJournal {
        EventJournal::new(&config, Instant::now())
    }

    #[test]
    fn records_round_trip_and_order_by_sequence() {
        let j = journal(EventConfig {
            rate_burst: 0,
            ..EventConfig::default()
        });
        j.emit_at(300, EventCode::Shed, Severity::Warn, 1, 2);
        j.emit_at(100, EventCode::QueueFull, Severity::Warn, 10, 16);
        j.emit_at(200, EventCode::DrainBegin, Severity::Info, 0, 4);
        let got = j.events();
        assert_eq!(got.len(), 3);
        // Order is publication order, not timestamp order.
        assert_eq!(got[0].code, EventCode::Shed);
        assert_eq!(got[1].code, EventCode::QueueFull);
        assert_eq!(got[2].code, EventCode::DrainBegin);
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[2].seq, 3);
        assert_eq!(got[1].a, 10);
        assert_eq!(got[1].b, 16);
        assert_eq!(j.published(), 3);
        assert_eq!(j.emitted(), 3);
        assert_eq!(j.total(EventCode::QueueFull, Severity::Warn), 1);
        assert_eq!(j.total(EventCode::QueueFull, Severity::Error), 0);
    }

    #[test]
    fn encode_decode_is_lossless_at_the_extremes() {
        let e = RecordedEvent {
            seq: u64::MAX / 5,
            code: EventCode::DrainEnd,
            severity: Severity::Error,
            t_ns: u64::MAX / 7,
            a: u64::MAX,
            b: 0,
            repeats: u64::MAX / 3,
        };
        assert_eq!(RecordedEvent::decode(&e.encode()), e);
    }

    #[test]
    fn rate_limiter_coalesces_repeats_within_a_window() {
        let j = journal(EventConfig {
            rate_window: Duration::from_nanos(1_000),
            rate_burst: 2,
            ..EventConfig::default()
        });
        // Five occurrences inside one window: two publish, three
        // coalesce.
        for i in 0..5u64 {
            j.emit_at(100 + i, EventCode::QueueFull, Severity::Warn, i, 16);
        }
        assert_eq!(j.published(), 2);
        assert_eq!(j.suppressed(), 3);
        assert_eq!(j.emitted(), 5);
        assert_eq!(j.total(EventCode::QueueFull, Severity::Warn), 5);
        // The next window refills the budget, and its first record
        // carries the three coalesced occurrences.
        j.emit_at(2_500, EventCode::QueueFull, Severity::Warn, 9, 16);
        let got = j.events();
        assert_eq!(got.len(), 3);
        assert_eq!(got[2].repeats, 3, "suppressed occurrences coalesce");
        assert_eq!(got[0].repeats, 0);
        // Another code's budget is untouched.
        j.emit_at(150, EventCode::Shed, Severity::Warn, 0, 2);
        assert_eq!(j.published(), 4);
    }

    #[test]
    fn ring_keeps_the_newest_records_and_tail_trims() {
        let j = journal(EventConfig {
            ring_capacity: 4,
            rate_burst: 0,
            ..EventConfig::default()
        });
        for i in 0..10u64 {
            j.emit_at(i, EventCode::EngineFault, Severity::Error, i, 0);
        }
        let got = j.events();
        assert_eq!(got.len(), 4, "capacity bounds retention");
        let seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "oldest records evicted");
        let tail = j.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 9);
        assert_eq!(tail[1].seq, 10);
        assert!(j.tail(100).len() == 4, "tail clamps to what is retained");
    }

    #[test]
    fn stale_stamp_coalesces_instead_of_refilling_the_budget() {
        // Two emitters straddling a window boundary: once the newer
        // window has claimed the limiter, a stamp from the older one
        // must not rotate it back (which would let the pair ping-pong
        // past the burst forever).
        let j = journal(EventConfig {
            rate_window: Duration::from_nanos(1_000),
            rate_burst: 1,
            ..EventConfig::default()
        });
        j.emit_at(1_010, EventCode::QueueFull, Severity::Warn, 1, 16);
        j.emit_at(990, EventCode::QueueFull, Severity::Warn, 2, 16);
        j.emit_at(1_020, EventCode::QueueFull, Severity::Warn, 3, 16);
        assert_eq!(j.published(), 1, "window 1's budget of one is spent");
        assert_eq!(j.suppressed(), 2);
        assert_eq!(j.total(EventCode::QueueFull, Severity::Warn), 3);
        j.emit_at(2_000, EventCode::QueueFull, Severity::Warn, 4, 16);
        assert_eq!(
            j.events()[1].repeats,
            2,
            "both coalesced occurrences fold in"
        );
    }

    #[test]
    fn json_dump_is_brace_balanced_and_labeled() {
        let j = journal(EventConfig::default());
        j.emit_at(1_000, EventCode::HealthTransition, Severity::Warn, 0, 1);
        j.emit_at(2_000, EventCode::TraceRingOverwrite, Severity::Warn, 0, 7);
        let json = j.to_json();
        assert!(json.contains("\"code\":\"health_transition\""));
        assert!(json.contains("\"code\":\"trace_ring_overwrite\""));
        assert!(json.contains("\"severity\":\"warn\""));
        let depth = json.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "balanced braces");
        let line = format!("{}", j.events()[0]);
        assert!(line.contains("health_transition"));
        assert!(line.contains("[warn]"));
    }

    #[test]
    fn concurrent_emitters_account_for_every_occurrence() {
        let j = Arc::new(journal(EventConfig {
            ring_capacity: 32,
            rate_window: Duration::from_millis(1),
            rate_burst: 4,
        }));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let code = EventCode::ALL[(w % 4) as usize];
                        j.emit_at(i * 10, code, Severity::Warn, w, i);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer");
        }
        assert_eq!(j.emitted(), 2000);
        assert_eq!(
            j.published() + j.suppressed() + j.dropped(),
            2000,
            "every occurrence is published, coalesced, or counted as dropped"
        );
        // Repeats folded into surviving records never exceed the
        // suppressed total.
        let folded: u64 = j.events().iter().map(|e| e.repeats).sum();
        assert!(folded <= j.suppressed());
    }
}

/// Interleaving tests for the journal under the deterministic model
/// checker: the single-CAS rate limiter never loses an occurrence below
/// the burst threshold (the lost-update shape a separate zeroing store
/// would reintroduce); the ring protocol itself is checked in
/// [`crate::seqring`]. Compiled only under the `model-check` facade.
#[cfg(all(test, any(pcnn_model_check, feature = "model-check")))]
mod model_tests {
    use super::*;
    use pcnn_sync::model::{check, CheckOptions};
    use pcnn_sync::{thread, Arc};

    fn opts() -> CheckOptions {
        CheckOptions {
            exhaustive_schedules: 2_000,
            random_schedules: 1_000,
            ..CheckOptions::default()
        }
    }

    #[test]
    fn concurrent_emits_below_the_burst_all_publish() {
        let report = check("events-no-loss-below-burst", opts(), || {
            // Two writers, burst 4, capacity 4: both emissions are
            // under every limit, so no interleaving of the limiter CAS
            // or the ring claim may lose either record.
            let j = Arc::new(EventJournal::new(
                &EventConfig {
                    ring_capacity: 4,
                    rate_window: Duration::from_nanos(1_000),
                    rate_burst: 4,
                    ..EventConfig::default()
                },
                Instant::now(),
            ));
            let writers: Vec<_> = (0..2u64)
                .map(|w| {
                    let j = Arc::clone(&j);
                    thread::spawn(move || j.emit_at(100, EventCode::Shed, Severity::Warn, w, 0))
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            assert_eq!(j.suppressed(), 0, "below the burst nothing coalesces");
            assert_eq!(j.dropped(), 0, "below capacity nothing drops");
            assert_eq!(j.published(), 2, "an emission below every limit was lost");
            let got = j.events();
            assert_eq!(got.len(), 2);
            let mut payloads: Vec<u64> = got.iter().map(|e| e.a).collect();
            payloads.sort_unstable();
            assert_eq!(payloads, vec![0, 1], "both writers' records survive");
        });
        assert!(report.schedules_run > 0);
    }

    #[test]
    fn limiter_rotation_never_loses_the_racing_occurrence() {
        let report = check("events-limiter-rotation", opts(), || {
            // Two writers race the window rotation (stamps in two
            // different windows, burst 1). Whoever wins, both
            // occurrences are accounted: published or coalesced into a
            // pending repeat, never vanished.
            let j = Arc::new(EventJournal::new(
                &EventConfig {
                    ring_capacity: 8,
                    rate_window: Duration::from_nanos(100),
                    rate_burst: 1,
                    ..EventConfig::default()
                },
                Instant::now(),
            ));
            let writers: Vec<_> = [50u64, 250]
                .into_iter()
                .map(|t| {
                    let j = Arc::clone(&j);
                    thread::spawn(move || j.emit_at(t, EventCode::QueueFull, Severity::Warn, t, 0))
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            assert_eq!(j.emitted(), 2);
            let folded: u64 = j.events().iter().map(|e| e.repeats).sum();
            assert_eq!(
                j.published() + j.suppressed(),
                2,
                "an occurrence racing the rotation was lost"
            );
            assert!(folded <= j.suppressed());
        });
        assert!(report.schedules_run > 0);
    }
}
