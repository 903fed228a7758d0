//! Span-driven latency attribution: *where* did the end-to-end time go?
//!
//! The flight recorder ([`crate::trace::FlightRecorder`]) stamps every
//! sampled request at six lifecycle events. This module's analyzer
//! decomposes the gaps between consecutive stamps into five named
//! segments:
//!
//! | segment             | interval                  | owned by            |
//! |---------------------|---------------------------|---------------------|
//! | `queue_wait`        | admitted → dequeued       | shared request queue|
//! | `coalesce`          | dequeued → coalesced      | batch formation     |
//! | `dispatch_wait`     | coalesced → dispatched    | batcher hand-off    |
//! | `execute`           | dispatched → executed     | engine pass         |
//! | `completion_notify` | executed → completed      | ticket resolution   |
//!
//! and reports, per trailing window (1 s / 10 s / 60 s, anchored at the
//! newest completion) and overall: per-segment distributions (exact
//! quantiles — spans are bounded by ring capacity, so the read side can
//! afford to sort), each segment's share of total time, and the
//! **dominant contributor** — the segment with the largest pooled time.
//! A percentile-band breakdown then answers the tail question directly:
//! for the p95–p99 requests specifically, was it queueing or kernels?
//!
//! When an [`ExecProfile`] is attached, the opaque `execute` segment is
//! cross-referenced with the engine's own pad/kernel phase
//! split, scaling the mean execute time into engine phases — the bridge
//! between serving-side spans and runtime-side layer profiling.
//!
//! Everything here is read-side analysis over an immutable span dump;
//! the recording path stays wait-free and untouched.

use crate::trace::{RecordedSpan, SpanOutcome};
use crate::window::WINDOWS;
use pcnn_runtime::{json, ExecProfile, Precision};

/// The five attribution segments, in lifecycle order.
pub const SEGMENTS: [&str; 5] = [
    "queue_wait",
    "coalesce",
    "dispatch_wait",
    "execute",
    "completion_notify",
];

/// The percentile bands of the tail breakdown, in ascending-latency
/// order.
pub const BANDS: [&str; 4] = ["p0-p50", "p50-p95", "p95-p99", "p99-p100"];

/// A span's five segment durations, in [`SEGMENTS`] order. Saturating:
/// a span whose stamps tie (an abort filled the tail events with one
/// instant) contributes zeros, never underflows.
fn segments_of(s: &RecordedSpan) -> [u64; 5] {
    [
        s.dequeued_ns.saturating_sub(s.admitted_ns),
        s.coalesced_ns.saturating_sub(s.dequeued_ns),
        s.dispatched_ns.saturating_sub(s.coalesced_ns),
        s.executed_ns.saturating_sub(s.dispatched_ns),
        s.completed_ns.saturating_sub(s.executed_ns),
    ]
}

fn e2e_of(s: &RecordedSpan) -> u64 {
    s.completed_ns.saturating_sub(s.admitted_ns)
}

/// Exact quantile over an ascending-sorted slice (nearest-rank).
fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() as f64 * q).ceil() as usize;
    sorted[idx.saturating_sub(1).min(sorted.len() - 1)]
}

/// One segment's (or the e2e total's) distribution within a window.
#[derive(Debug, Clone)]
pub struct SegmentStats {
    /// Segment name from [`SEGMENTS`], or `"e2e"` for the total.
    pub name: &'static str,
    /// Pooled nanoseconds across the window's spans.
    pub total_ns: u64,
    /// Mean nanoseconds per span.
    pub mean_ns: f64,
    /// Exact median.
    pub p50_ns: u64,
    /// Exact 95th percentile.
    pub p95_ns: u64,
    /// Exact 99th percentile.
    pub p99_ns: u64,
    /// This segment's share of the window's pooled e2e time
    /// (1.0 for the `"e2e"` row itself).
    pub share: f64,
}

impl SegmentStats {
    fn compute(name: &'static str, mut samples: Vec<u64>, e2e_total: u64) -> SegmentStats {
        samples.sort_unstable();
        let total: u64 = samples.iter().sum();
        let mean = if samples.is_empty() {
            0.0
        } else {
            total as f64 / samples.len() as f64
        };
        SegmentStats {
            name,
            total_ns: total,
            mean_ns: mean,
            p50_ns: quantile_sorted(&samples, 0.50),
            p95_ns: quantile_sorted(&samples, 0.95),
            p99_ns: quantile_sorted(&samples, 0.99),
            share: if e2e_total == 0 {
                0.0
            } else {
                total as f64 / e2e_total as f64
            },
        }
    }

    fn to_json(&self) -> String {
        json::object(|o| {
            o.str("name", self.name)
                .int("total_ns", self.total_ns)
                .fixed("mean_ns", self.mean_ns, 1)
                .int("p50_ns", self.p50_ns)
                .int("p95_ns", self.p95_ns)
                .int("p99_ns", self.p99_ns)
                .fixed("share", self.share, 4);
        })
    }
}

/// Attribution over one trailing window (or the whole dump).
#[derive(Debug, Clone)]
pub struct WindowAttribution {
    /// `"1s"` / `"10s"` / `"60s"` / `"overall"`.
    pub label: String,
    /// Completed spans inside the window.
    pub spans: usize,
    /// The end-to-end distribution.
    pub e2e: SegmentStats,
    /// Per-segment distributions, in [`SEGMENTS`] order.
    pub segments: Vec<SegmentStats>,
    /// The segment with the largest pooled time — the window's answer
    /// to "where is latency coming from".
    pub dominant: &'static str,
}

impl WindowAttribution {
    fn analyze(label: String, spans: &[&RecordedSpan]) -> WindowAttribution {
        let e2e_samples: Vec<u64> = spans.iter().map(|s| e2e_of(s)).collect();
        let e2e_total: u64 = e2e_samples.iter().sum();
        let e2e = SegmentStats::compute("e2e", e2e_samples, e2e_total);
        let segments: Vec<SegmentStats> = (0..SEGMENTS.len())
            .map(|i| {
                let samples: Vec<u64> = spans.iter().map(|s| segments_of(s)[i]).collect();
                SegmentStats::compute(SEGMENTS[i], samples, e2e_total)
            })
            .collect();
        let dominant = segments
            .iter()
            .max_by_key(|s| s.total_ns)
            .map_or(SEGMENTS[0], |s| s.name);
        WindowAttribution {
            label,
            spans: spans.len(),
            e2e,
            segments,
            dominant,
        }
    }

    fn to_json(&self) -> String {
        json::object(|o| {
            o.str("label", &self.label)
                .int("spans", self.spans)
                .str("dominant", self.dominant)
                .raw("e2e", &self.e2e.to_json())
                .raw_array("segments", &self.segments, SegmentStats::to_json);
        })
    }
}

/// Mean segment breakdown of one latency percentile band.
#[derive(Debug, Clone)]
pub struct BandAttribution {
    /// Band name from [`BANDS`].
    pub band: &'static str,
    /// Spans that fell in the band.
    pub spans: usize,
    /// Mean end-to-end nanoseconds in the band.
    pub mean_e2e_ns: f64,
    /// Mean nanoseconds per segment, in [`SEGMENTS`] order.
    pub mean_segment_ns: [f64; 5],
    /// The segment with the largest mean in this band.
    pub dominant: &'static str,
}

impl BandAttribution {
    fn to_json(&self) -> String {
        json::object(|o| {
            o.str("band", self.band)
                .int("spans", self.spans)
                .fixed("mean_e2e_ns", self.mean_e2e_ns, 1)
                .str("dominant", self.dominant)
                .object("mean_segment_ns", |m| {
                    for (name, ns) in SEGMENTS.iter().zip(self.mean_segment_ns) {
                        m.fixed(name, ns, 1);
                    }
                });
        })
    }
}

/// The `execute` segment cross-referenced with one lowering's engine
/// phase split: the mean execute time scaled by the profiler's
/// pad/kernel shares (the fused ReLU / requantisation is part of the
/// kernel walk).
#[derive(Debug, Clone)]
pub struct ExecPhaseShare {
    /// Lowering label (`"f32"` / `"int8"`).
    pub precision: &'static str,
    /// Engine-side phase fractions, summing to 1.
    pub pad_fraction: f64,
    /// See `pad_fraction`.
    pub kernel_fraction: f64,
    /// The overall mean execute segment, split by those fractions, in
    /// `(pad, kernel)` order.
    pub execute_mean_ns: (f64, f64),
}

impl ExecPhaseShare {
    fn to_json(&self) -> String {
        json::object(|o| {
            o.str("precision", self.precision)
                .fixed("pad_fraction", self.pad_fraction, 4)
                .fixed("kernel_fraction", self.kernel_fraction, 4)
                .object("execute_mean_ns", |e| {
                    e.fixed("pad", self.execute_mean_ns.0, 1).fixed(
                        "kernel",
                        self.execute_mean_ns.1,
                        1,
                    );
                });
        })
    }
}

/// The full latency-attribution report over a flight-recorder dump.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// Completed spans analyzed.
    pub analyzed: usize,
    /// Failed/aborted spans excluded (their timelines measure shutdown,
    /// not serving latency).
    pub skipped: usize,
    /// One entry per trailing window in [`WINDOWS`] order (windows are
    /// anchored at the newest completion), plus a final `"overall"`.
    pub windows: Vec<WindowAttribution>,
    /// Non-empty percentile bands over the whole dump, ascending.
    pub bands: Vec<BandAttribution>,
    /// Engine phase cross-reference; empty until
    /// [`AttributionReport::attach_exec_profile`].
    pub exec_phases: Vec<ExecPhaseShare>,
}

impl AttributionReport {
    /// Analyzes a span dump (as returned by
    /// [`crate::trace::FlightRecorder::spans`]). Only completed spans
    /// contribute; windows are anchored at the newest completion
    /// timestamp so the report is deterministic for a fixed dump.
    pub fn analyze(spans: &[RecordedSpan]) -> AttributionReport {
        let completed: Vec<&RecordedSpan> = spans
            .iter()
            .filter(|s| s.outcome == SpanOutcome::Completed)
            .collect();
        let skipped = spans.len() - completed.len();
        let anchor = completed.iter().map(|s| s.completed_ns).max().unwrap_or(0);

        let mut windows = Vec::with_capacity(WINDOWS.len() + 1);
        for w in WINDOWS {
            let w_ns = w.as_nanos().min(u64::MAX as u128) as u64;
            let inside: Vec<&RecordedSpan> = completed
                .iter()
                .filter(|s| s.completed_ns + w_ns > anchor)
                .copied()
                .collect();
            windows.push(WindowAttribution::analyze(
                format!("{}s", w.as_secs()),
                &inside,
            ));
        }
        windows.push(WindowAttribution::analyze(
            "overall".to_string(),
            &completed,
        ));

        AttributionReport {
            analyzed: completed.len(),
            skipped,
            windows,
            bands: Self::bands_of(&completed),
            exec_phases: Vec::new(),
        }
    }

    fn bands_of(completed: &[&RecordedSpan]) -> Vec<BandAttribution> {
        let mut by_e2e: Vec<&RecordedSpan> = completed.to_vec();
        by_e2e.sort_by_key(|s| (e2e_of(s), s.id));
        let n = by_e2e.len();
        let cut = |q: f64| ((n as f64) * q).round() as usize;
        let edges = [0, cut(0.50), cut(0.95), cut(0.99), n];
        let mut bands = Vec::new();
        for (b, name) in BANDS.iter().enumerate() {
            let (lo, hi) = (edges[b], edges[b + 1].max(edges[b]));
            let slice = &by_e2e[lo..hi];
            if slice.is_empty() {
                continue; // tiny dumps have no distinct tail bands
            }
            let mut mean_segment_ns = [0.0f64; 5];
            let mut e2e_sum = 0u64;
            for s in slice {
                e2e_sum += e2e_of(s);
                for (acc, ns) in mean_segment_ns.iter_mut().zip(segments_of(s)) {
                    *acc += ns as f64;
                }
            }
            for acc in &mut mean_segment_ns {
                *acc /= slice.len() as f64;
            }
            let dominant = mean_segment_ns
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(SEGMENTS[0], |(i, _)| SEGMENTS[i]);
            bands.push(BandAttribution {
                band: name,
                spans: slice.len(),
                mean_e2e_ns: e2e_sum as f64 / slice.len() as f64,
                mean_segment_ns,
                dominant,
            });
        }
        bands
    }

    /// Cross-references the opaque `execute` segment with the engine's
    /// own phase split: for each lowering the profiler recorded, the
    /// overall mean execute time is scaled by the engine's pad/kernel
    /// fractions.
    pub fn attach_exec_profile(&mut self, profile: &ExecProfile) {
        let execute_mean = self
            .windows
            .last() // the "overall" entry
            .and_then(|w| w.segments.iter().find(|s| s.name == "execute"))
            .map_or(0.0, |s| s.mean_ns);
        self.exec_phases = Precision::ALL
            .iter()
            .filter_map(|&p| {
                let split = profile.phase_split(p)?;
                let (pad, kernel) = split.fractions();
                Some(ExecPhaseShare {
                    precision: p.label(),
                    pad_fraction: pad,
                    kernel_fraction: kernel,
                    execute_mean_ns: (execute_mean * pad, execute_mean * kernel),
                })
            })
            .collect();
    }

    /// The dominant contributor of the whole dump (`None` when no
    /// completed span was analyzed).
    pub fn dominant(&self) -> Option<&'static str> {
        self.windows
            .last()
            .filter(|w| w.spans > 0)
            .map(|w| w.dominant)
    }

    /// The report as one JSON object — the `"attribution"` block of
    /// `PROFILE_serve.json`.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.int("analyzed", self.analyzed)
                .int("skipped", self.skipped)
                .raw_array("windows", &self.windows, WindowAttribution::to_json)
                .raw_array("bands", &self.bands, BandAttribution::to_json)
                .raw_array("exec_phases", &self.exec_phases, ExecPhaseShare::to_json);
        })
    }
}

impl std::fmt::Display for AttributionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "latency attribution: {} spans analyzed, {} skipped",
            self.analyzed, self.skipped
        )?;
        for w in &self.windows {
            if w.spans == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:>7}: {:>5} spans, e2e mean {:>9.1} µs, dominant {}",
                w.label,
                w.spans,
                w.e2e.mean_ns / 1e3,
                w.dominant
            )?;
            for s in &w.segments {
                writeln!(
                    f,
                    "    {:<17} {:>5.1}%  mean {:>9.1} µs  p99 {:>9.1} µs",
                    s.name,
                    s.share * 100.0,
                    s.mean_ns / 1e3,
                    s.p99_ns as f64 / 1e3
                )?;
            }
        }
        for b in &self.bands {
            writeln!(
                f,
                "  band {:<8} {:>5} spans, e2e mean {:>9.1} µs, dominant {}",
                b.band,
                b.spans,
                b.mean_e2e_ns / 1e3,
                b.dominant
            )?;
        }
        for e in &self.exec_phases {
            writeln!(
                f,
                "  execute[{}]: pad {:.1}% kernel {:.1}% of engine time",
                e.precision,
                e.pad_fraction * 100.0,
                e.kernel_fraction * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A completed span with the given segment durations, admitted at
    /// `t0`.
    fn span_with(id: u64, t0: u64, segs: [u64; 5]) -> RecordedSpan {
        RecordedSpan {
            id,
            shard: 0,
            precision: Precision::F32,
            outcome: SpanOutcome::Completed,
            batch_len: 1,
            admitted_ns: t0,
            dequeued_ns: t0 + segs[0],
            coalesced_ns: t0 + segs[0] + segs[1],
            dispatched_ns: t0 + segs[0] + segs[1] + segs[2],
            executed_ns: t0 + segs[0] + segs[1] + segs[2] + segs[3],
            completed_ns: t0 + segs.iter().sum::<u64>(),
        }
    }

    #[test]
    fn segments_decompose_the_e2e_exactly() {
        let segs = [100, 20, 30, 800, 50];
        let s = span_with(1, 5_000, segs);
        assert_eq!(segments_of(&s), segs);
        assert_eq!(e2e_of(&s), 1000);
        assert!(s.is_monotone());
        let r = AttributionReport::analyze(&[s]);
        assert_eq!(r.analyzed, 1);
        let overall = r.windows.last().unwrap();
        assert_eq!(overall.label, "overall");
        assert_eq!(overall.e2e.total_ns, 1000);
        assert_eq!(overall.dominant, "execute");
        // Shares recompose to 1.
        let share_sum: f64 = overall.segments.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        assert_eq!(r.dominant(), Some("execute"));
    }

    #[test]
    fn windows_anchor_at_the_newest_completion() {
        // Two queue-dominated spans 30 s apart: the 1 s and 10 s
        // windows only see the recent one, 60 s and overall see both.
        let old = span_with(1, 0, [900, 10, 10, 50, 30]);
        let new = span_with(2, 30_000_000_000, [900, 10, 10, 50, 30]);
        let r = AttributionReport::analyze(&[old, new]);
        assert_eq!(r.windows[0].label, "1s");
        assert_eq!(r.windows[0].spans, 1);
        assert_eq!(r.windows[1].label, "10s");
        assert_eq!(r.windows[1].spans, 1);
        assert_eq!(r.windows[2].label, "60s");
        assert_eq!(r.windows[2].spans, 2);
        assert_eq!(r.windows[3].spans, 2);
        assert_eq!(r.windows[0].dominant, "queue_wait");
    }

    #[test]
    fn failed_and_aborted_spans_are_skipped() {
        let ok = span_with(1, 0, [10, 10, 10, 10, 10]);
        let mut failed = span_with(2, 0, [10, 10, 10, 10, 10]);
        failed.outcome = SpanOutcome::Failed;
        let mut aborted = span_with(3, 0, [10, 10, 10, 10, 10]);
        aborted.outcome = SpanOutcome::Aborted;
        let r = AttributionReport::analyze(&[ok, failed, aborted]);
        assert_eq!(r.analyzed, 1);
        assert_eq!(r.skipped, 2);
        assert_eq!(r.windows.last().unwrap().spans, 1);
    }

    #[test]
    fn empty_dump_produces_an_empty_but_valid_report() {
        let r = AttributionReport::analyze(&[]);
        assert_eq!(r.analyzed, 0);
        assert_eq!(r.dominant(), None);
        assert!(r.bands.is_empty());
        assert!(r.to_json().contains("\"analyzed\":0"));
    }

    #[test]
    fn bands_single_out_the_tail() {
        // 99 fast execute-bound spans and one huge queue-bound outlier:
        // the top band must finger queue_wait while the body says
        // execute.
        let mut spans: Vec<RecordedSpan> = (0..99)
            .map(|i| span_with(i, 1000 * i, [10, 5, 5, 500, 10]))
            .collect();
        spans.push(span_with(99, 990_000, [5_000_000, 5, 5, 500, 10]));
        let r = AttributionReport::analyze(&spans);
        assert_eq!(r.bands.len(), 4, "100 spans populate every band");
        let body = &r.bands[0];
        assert_eq!(body.band, "p0-p50");
        assert_eq!(body.dominant, "execute");
        let tail = r.bands.last().unwrap();
        assert_eq!(tail.band, "p99-p100");
        assert_eq!(tail.spans, 1);
        assert_eq!(tail.dominant, "queue_wait");
        assert!(tail.mean_e2e_ns > 5_000_000.0);
        // Whole-dump dominant follows the pooled outlier too.
        assert_eq!(r.dominant(), Some("queue_wait"));
    }

    #[test]
    fn quantiles_are_exact_over_the_window() {
        let spans: Vec<RecordedSpan> = (1..=100)
            .map(|i| span_with(i, 10 * i, [0, 0, 0, i * 1000, 0]))
            .collect();
        let r = AttributionReport::analyze(&spans);
        let overall = r.windows.last().unwrap();
        let exec = &overall.segments[3];
        assert_eq!(exec.name, "execute");
        assert_eq!(exec.p50_ns, 50_000);
        assert_eq!(exec.p95_ns, 95_000);
        assert_eq!(exec.p99_ns, 99_000);
        assert!((exec.mean_ns - 50_500.0).abs() < 1e-6);
    }

    #[test]
    fn tied_stamps_saturate_to_zero_segments() {
        // An abort-style span where the tail events share one instant.
        let mut s = span_with(1, 100, [50, 0, 0, 0, 0]);
        s.coalesced_ns = s.dequeued_ns;
        s.dispatched_ns = s.dequeued_ns;
        s.executed_ns = s.dequeued_ns;
        s.completed_ns = s.dequeued_ns;
        assert_eq!(segments_of(&s), [50, 0, 0, 0, 0]);
        let r = AttributionReport::analyze(&[s]);
        assert_eq!(r.windows.last().unwrap().dominant, "queue_wait");
    }

    #[test]
    fn json_carries_the_documented_schema() {
        let spans: Vec<RecordedSpan> = (0..10)
            .map(|i| span_with(i, 100 * i, [10, 5, 5, 200, 10]))
            .collect();
        let r = AttributionReport::analyze(&spans);
        let json = r.to_json();
        for key in [
            "\"analyzed\":10",
            "\"windows\":[",
            "\"label\":\"1s\"",
            "\"label\":\"overall\"",
            "\"dominant\":\"execute\"",
            "\"bands\":[",
            "\"exec_phases\":[]",
            "\"queue_wait\"",
            "\"completion_notify\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = format!("{r}");
        assert!(text.contains("latency attribution: 10 spans"));
        assert!(text.contains("dominant execute"));
    }
}
