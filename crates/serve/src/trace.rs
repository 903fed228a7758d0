//! Request-lifecycle tracing: request IDs, span events, and a lock-free
//! per-shard ring-buffer **flight recorder**.
//!
//! Every request admitted by [`crate::Server::submit`] gets a unique ID
//! and ticks the always-on trace counters. One in
//! [`TraceConfig::sample_every`] requests additionally carries an
//! active span through its whole lifecycle — admitted → dequeued →
//! coalesced → dispatched-to-shard → executed → completed/failed/
//! aborted — and publishes a [`RecordedSpan`] into its shard's ring
//! when it resolves. The ring keeps the last K spans per shard, so a
//! postmortem (including an abort drain) can always reconstruct recent
//! timelines: [`crate::Server::flight_recorder`] dumps them as JSON,
//! and [`crate::DrainReport`] carries the final dump out of shutdown.
//!
//! Each ring is a `SeqRing` — a seqlock over plain atomic words,
//! shared with the event journal: a writer that loses a lap collision
//! drops its span and ticks the drop counter instead of spinning, and
//! readers discard torn copies. No locks anywhere, so recording can
//! never stall the batcher or the completion callbacks it instruments.

use pcnn_runtime::json;
use pcnn_runtime::Precision;
use pcnn_sync::atomic::{AtomicU64, Ordering};
use pcnn_sync::Arc;
use std::time::Instant;

use crate::events::{EventCode, EventJournal, Severity};
use crate::metrics::Counter;
use crate::seqring::SeqRing;

/// Sampling and retention knobs of the flight recorder.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Record the full span of every N-th request: `1` traces every
    /// request, `0` disables span recording entirely. Request IDs and
    /// the trace counters stay on regardless — sampling only gates the
    /// per-request timeline capture.
    pub sample_every: u64,
    /// Spans retained per shard ring; older spans are overwritten.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    /// 1-in-64 sampling into 256-span shard rings: cheap enough to
    /// leave on in production (the `benchmark/` serving workloads run
    /// with it on), deep enough for a useful postmortem.
    fn default() -> Self {
        TraceConfig {
            sample_every: 64,
            ring_capacity: 256,
        }
    }
}

/// How a traced request's lifecycle ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The ticket resolved with an output tensor.
    Completed = 0,
    /// The engine failed the request ([`crate::ServeError::EngineFault`]),
    /// or its shard died mid-flight ([`crate::ServeError::ShardFailed`]).
    Failed = 1,
    /// An abort shutdown resolved the ticket ([`crate::ServeError::Aborted`]).
    Aborted = 2,
    /// The request's deadline passed before dispatch
    /// ([`crate::ServeError::DeadlineExceeded`]).
    Expired = 3,
    /// The client cancelled the request before dispatch
    /// ([`crate::ServeError::Cancelled`]).
    Cancelled = 4,
}

impl SpanOutcome {
    /// Stable label for JSON and Prometheus output.
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Completed => "completed",
            SpanOutcome::Failed => "failed",
            SpanOutcome::Aborted => "aborted",
            SpanOutcome::Expired => "expired",
            SpanOutcome::Cancelled => "cancelled",
        }
    }

    fn from_code(code: u64) -> SpanOutcome {
        match code {
            0 => SpanOutcome::Completed,
            1 => SpanOutcome::Failed,
            3 => SpanOutcome::Expired,
            4 => SpanOutcome::Cancelled,
            _ => SpanOutcome::Aborted,
        }
    }
}

/// One fully resolved request timeline, timestamps in nanoseconds since
/// the recorder's epoch (the server's start).
///
/// Every event is always stamped: an aborted request that never reached
/// the engine carries the abort instant for its dispatch/execute/
/// complete events, so timelines stay complete and monotone in every
/// outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedSpan {
    /// The request ID handed back on the ticket.
    pub id: u64,
    /// The shard whose batcher dispatched (or aborted) the request.
    pub shard: u32,
    /// The lowering the request executed on.
    pub precision: Precision,
    /// How the lifecycle ended.
    pub outcome: SpanOutcome,
    /// Size of the coalesced batch this request rode in.
    pub batch_len: u32,
    /// Admission: `Server::submit` accepted the request into the queue.
    pub admitted_ns: u64,
    /// A batcher popped the request off the shared queue.
    pub dequeued_ns: u64,
    /// The batch being built around (or including) the request closed.
    pub coalesced_ns: u64,
    /// The batch was handed to the shard's engine.
    pub dispatched_ns: u64,
    /// The engine pass finished.
    pub executed_ns: u64,
    /// The ticket resolved.
    pub completed_ns: u64,
}

/// Number of atomic words one encoded span occupies in a ring slot.
const SPAN_WORDS: usize = 8;

impl RecordedSpan {
    /// Whether the six lifecycle events are in order — the invariant
    /// the span property tests pin across multi-shard contention.
    pub fn is_monotone(&self) -> bool {
        self.admitted_ns <= self.dequeued_ns
            && self.dequeued_ns <= self.coalesced_ns
            && self.coalesced_ns <= self.dispatched_ns
            && self.dispatched_ns <= self.executed_ns
            && self.executed_ns <= self.completed_ns
    }

    /// The span as one JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.int("id", self.id)
                .int("shard", self.shard)
                .str("precision", self.precision.label())
                .str("outcome", self.outcome.label())
                .int("batch_len", self.batch_len)
                .int("admitted_ns", self.admitted_ns)
                .int("dequeued_ns", self.dequeued_ns)
                .int("coalesced_ns", self.coalesced_ns)
                .int("dispatched_ns", self.dispatched_ns)
                .int("executed_ns", self.executed_ns)
                .int("completed_ns", self.completed_ns);
        })
    }

    fn encode(&self) -> [u64; SPAN_WORDS] {
        let meta = ((self.shard as u64) << 48)
            | ((self.precision.index() as u64) << 40)
            | ((self.outcome as u64) << 32)
            | self.batch_len as u64;
        [
            self.id,
            meta,
            self.admitted_ns,
            self.dequeued_ns,
            self.coalesced_ns,
            self.dispatched_ns,
            self.executed_ns,
            self.completed_ns,
        ]
    }

    fn decode(words: &[u64; SPAN_WORDS]) -> RecordedSpan {
        let meta = words[1];
        RecordedSpan {
            id: words[0],
            shard: (meta >> 48) as u32,
            precision: Precision::ALL[((meta >> 40) & 0xff) as usize % 2],
            outcome: SpanOutcome::from_code((meta >> 32) & 0xff),
            batch_len: meta as u32,
            admitted_ns: words[2],
            dequeued_ns: words[3],
            coalesced_ns: words[4],
            dispatched_ns: words[5],
            executed_ns: words[6],
            completed_ns: words[7],
        }
    }
}

/// The pre-dispatch stamps a sampled request carries through the queue
/// and the batcher; the dispatch path fills in the rest and publishes.
#[derive(Debug)]
pub(crate) struct ActiveSpan {
    pub id: u64,
    pub admitted_ns: u64,
    /// Stamped by the first pop off the queue; 0 = not yet dequeued.
    pub dequeued_ns: u64,
}

/// The per-server flight recorder: request IDs, always-on trace
/// counters, and one span ring per shard.
pub struct FlightRecorder {
    epoch: Instant,
    sample_every: u64,
    next_id: AtomicU64,
    rings: Vec<SeqRing<SPAN_WORDS>>,
    recorded: Counter,
    dropped: AtomicU64,
    /// Forensics feed: every lap-race span drop emits a
    /// `trace_ring_overwrite` event here; the journal's per-code rate
    /// limiter coalesces overwrite storms.
    journal: Option<Arc<EventJournal>>,
}

impl FlightRecorder {
    /// A recorder for `shards` shard rings, reporting span overwrites
    /// to `journal`.
    pub(crate) fn new(
        config: &TraceConfig,
        shards: usize,
        journal: Option<Arc<EventJournal>>,
    ) -> FlightRecorder {
        FlightRecorder {
            epoch: Instant::now(),
            sample_every: config.sample_every,
            next_id: AtomicU64::new(0),
            rings: (0..shards.max(1))
                .map(|_| SeqRing::new(config.ring_capacity))
                .collect(),
            recorded: Counter::default(),
            dropped: AtomicU64::new(0),
            journal,
        }
    }

    /// Assigns the next request ID (IDs start at 1).
    pub(crate) fn begin(&self) -> u64 {
        // ordering: uniqueness comes from the atomic RMW itself; IDs
        // carry no payload to publish.
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Whether request `id` carries a sampled span.
    pub fn is_sampled(&self, id: u64) -> bool {
        self.sample_every > 0 && id.is_multiple_of(self.sample_every)
    }

    /// Nanoseconds since the recorder's epoch — the clock every span
    /// event is stamped on.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Publishes a resolved span into its shard's ring.
    pub(crate) fn record(&self, shard: usize, span: &RecordedSpan) {
        let ring = &self.rings[shard.min(self.rings.len() - 1)];
        if ring.push(span.encode()) {
            self.recorded.inc();
        } else {
            // ordering: monotone statistics counter, read independently
            // of the span data it counts; the RMW's own value numbers
            // the overwrite event.
            let dropped = self.dropped.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(journal) = &self.journal {
                journal.emit(
                    EventCode::TraceRingOverwrite,
                    Severity::Info,
                    shard as u64,
                    dropped,
                );
            }
        }
    }

    /// The configured 1-in-N sampling rate (0 = spans off).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Requests assigned an ID so far.
    pub fn requests(&self) -> u64 {
        // ordering: statistics read; staleness is acceptable.
        self.next_id.load(Ordering::Relaxed)
    }

    /// Spans successfully published.
    pub fn spans_recorded(&self) -> u64 {
        self.recorded.get()
    }

    /// Spans lost to lap-racing writers (never by blocking).
    pub fn spans_dropped(&self) -> u64 {
        // ordering: statistics read; staleness is acceptable.
        self.dropped.load(Ordering::Relaxed)
    }

    /// The retained spans across every shard ring, sorted by admission
    /// timestamp (ties broken by ID) — the order requests entered the
    /// server, which is what timeline reconstruction and latency
    /// attribution want. Retention is still completion-driven: each
    /// ring holds the last K spans *published* on its shard and
    /// overwrites oldest-publication-first, so after a wrap the
    /// surviving spans are the most recently resolved ones, whose
    /// admission order can differ from their slot order.
    pub fn spans(&self) -> Vec<RecordedSpan> {
        let mut out = Vec::new();
        for ring in &self.rings {
            ring.for_each(|words| out.push(RecordedSpan::decode(words)));
        }
        out.sort_by_key(|s| (s.admitted_ns, s.id));
        out
    }

    /// The flight-recorder dump as one JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.int("requests", self.requests())
                .int("sample_every", self.sample_every)
                .int("spans_recorded", self.spans_recorded())
                .int("spans_dropped", self.spans_dropped())
                .raw_array("spans", &self.spans(), RecordedSpan::to_json);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn span(id: u64, t0: u64) -> RecordedSpan {
        RecordedSpan {
            id,
            shard: 0,
            precision: Precision::F32,
            outcome: SpanOutcome::Completed,
            batch_len: 3,
            admitted_ns: t0,
            dequeued_ns: t0 + 1,
            coalesced_ns: t0 + 2,
            dispatched_ns: t0 + 3,
            executed_ns: t0 + 4,
            completed_ns: t0 + 5,
        }
    }

    #[test]
    fn spans_round_trip_through_the_ring() {
        let rec = FlightRecorder::new(
            &TraceConfig {
                sample_every: 1,
                ring_capacity: 8,
            },
            1,
            None,
        );
        for i in 0..5u64 {
            rec.record(0, &span(i + 1, 100 * i));
        }
        let got = rec.spans();
        assert_eq!(got.len(), 5);
        assert_eq!(rec.spans_recorded(), 5);
        assert_eq!(rec.spans_dropped(), 0);
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s.id, i as u64 + 1, "sorted by admission");
            assert_eq!(
                *s,
                span(s.id, 100 * i as u64),
                "fields survive encode/decode"
            );
            assert!(s.is_monotone());
        }
    }

    #[test]
    fn ring_keeps_the_last_k_spans() {
        let rec = FlightRecorder::new(
            &TraceConfig {
                sample_every: 1,
                ring_capacity: 4,
            },
            1,
            None,
        );
        for i in 0..10u64 {
            rec.record(0, &span(i + 1, 100 * i));
        }
        let got = rec.spans();
        assert_eq!(got.len(), 4, "capacity bounds retention");
        let ids: Vec<u64> = got.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10], "the oldest spans were evicted");
    }

    #[test]
    fn wrapped_ring_sorts_by_admission_not_slot_order() {
        let rec = FlightRecorder::new(
            &TraceConfig {
                sample_every: 1,
                ring_capacity: 4,
            },
            1,
            None,
        );
        // Publish in *reverse* admission order so that after the ring
        // wraps, slot order disagrees with admission order: spans
        // admitted at t = 900, 800, ..., 100 published in that
        // sequence leave slots holding admissions 500..200 with the
        // oldest publication (t=500) in the lowest slot.
        for i in 0..9u64 {
            rec.record(0, &span(i + 1, 100 * (9 - i)));
        }
        let got = rec.spans();
        assert_eq!(got.len(), 4, "the ring wrapped: publications 1-5 evicted");
        let admitted: Vec<u64> = got.iter().map(|s| s.admitted_ns).collect();
        assert_eq!(admitted, vec![100, 200, 300, 400], "admission order");
        let ids: Vec<u64> = got.iter().map(|s| s.id).collect();
        assert_eq!(
            ids,
            vec![9, 8, 7, 6],
            "the survivors are the last published"
        );
    }

    #[test]
    fn sampling_gates_spans_but_not_ids() {
        let rec = FlightRecorder::new(
            &TraceConfig {
                sample_every: 4,
                ring_capacity: 8,
            },
            1,
            None,
        );
        let sampled: Vec<u64> = (0..16)
            .map(|_| rec.begin())
            .filter(|&id| rec.is_sampled(id))
            .collect();
        assert_eq!(rec.requests(), 16, "every request gets an id");
        assert_eq!(sampled, vec![4, 8, 12, 16], "one in four carries a span");
        let off = FlightRecorder::new(
            &TraceConfig {
                sample_every: 0,
                ring_capacity: 8,
            },
            1,
            None,
        );
        assert!(!(1..100).any(|id| off.is_sampled(id)), "0 disables spans");
    }

    #[test]
    fn decode_of_a_mixed_outcome_span_is_lossless() {
        let s = RecordedSpan {
            id: u64::MAX / 3,
            shard: 7,
            precision: Precision::Int8,
            outcome: SpanOutcome::Aborted,
            batch_len: u32::MAX,
            admitted_ns: 1,
            dequeued_ns: 2,
            coalesced_ns: 3,
            dispatched_ns: 4,
            executed_ns: 5,
            completed_ns: 6,
        };
        assert_eq!(RecordedSpan::decode(&s.encode()), s);
    }

    #[test]
    fn concurrent_writers_account_for_every_span() {
        let rec = Arc::new(FlightRecorder::new(
            &TraceConfig {
                sample_every: 1,
                ring_capacity: 32,
            },
            2,
            None,
        ));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        rec.record((w % 2) as usize, &span(w * 1000 + i, i));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer");
        }
        assert_eq!(rec.spans_recorded() + rec.spans_dropped(), 2000);
        let spans = rec.spans();
        assert!(spans.len() <= 64, "two rings of 32");
        assert!(spans.iter().all(|s| s.is_monotone()), "no torn reads");
    }

    #[test]
    fn json_dump_is_brace_balanced_and_carries_the_counters() {
        let rec = FlightRecorder::new(&TraceConfig::default(), 2, None);
        let id = rec.begin();
        let mut s = span(id, 50);
        s.shard = 1;
        rec.record(1, &s);
        let json = rec.to_json();
        assert_eq!(
            json,
            concat!(
                r#"{"requests":1,"sample_every":64,"spans_recorded":1,"spans_dropped":0,"#,
                r#""spans":[{"id":1,"shard":1,"precision":"f32","outcome":"completed","#,
                r#""batch_len":3,"admitted_ns":50,"dequeued_ns":51,"coalesced_ns":52,"#,
                r#""dispatched_ns":53,"executed_ns":54,"completed_ns":55}]}"#
            ),
            "the dump's exact schema (keys, order) is what postmortem tooling parses"
        );
        assert!(json.contains("\"requests\":1"));
        assert!(json.contains("\"sample_every\":64"));
        assert!(json.contains("\"spans_recorded\":1"));
        assert!(json.contains("\"outcome\":\"completed\""));
        let depth = json.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "balanced braces");
    }
}

/// The recorder's counters under the deterministic model checker (the
/// ring protocol itself is checked in [`crate::seqring`]). Compiled only
/// under the `model-check` facade.
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

    fn span(id: u64, t0: u64) -> RecordedSpan {
        RecordedSpan {
            id,
            shard: 0,
            precision: Precision::F32,
            outcome: SpanOutcome::Completed,
            batch_len: 3,
            admitted_ns: t0,
            dequeued_ns: t0 + 1,
            coalesced_ns: t0 + 2,
            dispatched_ns: t0 + 3,
            executed_ns: t0 + 4,
            completed_ns: t0 + 5,
        }
    }

    #[test]
    fn recorder_counters_match_push_outcomes() {
        let report = check("trace-recorder-counters", opts(), || {
            // Two concurrent records into a single-slot shard: however
            // the lap race resolves, recorded + dropped == 2.
            let rec = Arc::new(FlightRecorder::new(
                &TraceConfig {
                    sample_every: 1,
                    ring_capacity: 1,
                },
                1,
                None,
            ));
            let writers: Vec<_> = (0..2u64)
                .map(|i| {
                    let rec = Arc::clone(&rec);
                    thread::spawn(move || rec.record(0, &span(i + 1, 100 * (i + 1))))
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            assert_eq!(rec.spans_recorded() + rec.spans_dropped(), 2);
            assert!(rec.spans_recorded() >= 1, "the first claim always lands");
        });
        assert!(report.schedules_run > 0);
    }
}
