//! Spans recorded from the benchmark's own files, around each call into
//! a layer's public functions (in-program tracing is a later change).
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`. Spans of one
//! operation share its `op_id`; within an operation a name occurs once,
//! so `parent` names the causing span by its name and needs no
//! cross-thread id (the open loop records `serve.submit` on the
//! submitter thread and its root on the collector). Each load-generator
//! thread owns a [`Recorder`]; the vectors are merged, reduced to self
//! times and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The root span of every operation.
pub const ROOT: &str = "bench.op";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Name of the causing span within the same `op_id`; `None` = root.
    pub parent: Option<&'static str>,
    pub op_id: u64,
}

/// One thread's in-memory span vector on a shared clock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`. Threads of one
    /// run share the epoch so their spans line up.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            parent,
            op_id,
        });
    }

    /// Times `f` as a child span when `on`, and just runs it otherwise.
    pub fn time<R>(
        &mut self,
        on: bool,
        name: &'static str,
        parent: &'static str,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.push(name, Some(parent), op_id, start, Instant::now());
        out
    }
}

/// A `'static` name for a span whose name is built at run time
/// (`runtime.op.<idx>`). Leaks one small string per distinct name; the
/// callers intern a bounded set once per run.
pub fn intern(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name, plus the closure check's two sides.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelfTimes {
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Sum of root span durations.
    pub root_ns: u64,
    /// Sum of every span's self time. Equals `root_ns` when children lie
    /// inside their parents and siblings do not overlap.
    pub self_ns: u64,
    /// Root spans seen (operations traced).
    pub roots: u64,
}

impl SelfTimes {
    /// `|Σ self − Σ root| / Σ root`, in percent.
    pub fn closure_err_pct(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            (self.self_ns as f64 - self.root_ns as f64).abs() / self.root_ns as f64 * 100.0
        }
    }

    /// Mean self time per traced operation of every span whose name
    /// starts with `layer.`, in ms.
    pub fn layer_self_ms_per_op(&self, layer: &str) -> f64 {
        if self.roots == 0 {
            return 0.0;
        }
        let ns: u64 = self
            .by_name
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, t)| t.self_ns)
            .sum();
        ns as f64 / 1e6 / self.roots as f64
    }
}

/// Length of the union of `intervals` (already clipped by the caller).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// A span's self time is its duration minus the part of that interval
/// its child spans cover. A span whose parent was not recorded counts as
/// a root, so nothing recorded is dropped from the closure.
pub fn self_times(spans: &mut [Span]) -> SelfTimes {
    spans.sort_unstable_by_key(|s| s.op_id);
    let mut out = SelfTimes::default();
    let mut children: Vec<(u64, u64)> = Vec::new();
    for group in spans.chunk_by(|a, b| a.op_id == b.op_id) {
        for s in group {
            children.clear();
            children.extend(
                group
                    .iter()
                    .filter(|c| c.parent == Some(s.name))
                    .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                    .filter(|(a, b)| b > a),
            );
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur - union_len(&mut children);
            let t = out.by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += own;
            out.self_ns += own;
            let is_root = match s.parent {
                None => true,
                Some(p) => !group.iter().any(|g| g.name == p),
            };
            if is_root {
                out.root_ns += dur;
                out.roots += 1;
            }
        }
    }
    out
}

/// Median duration of the spans called `name`, in ms (0 when there are
/// none).
pub fn median_ms(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        crate::stats::median(&d)
    }
}

/// Writes one span per line as JSON.
///
/// # Errors
///
/// Any I/O error, including the final flush.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        // Span names are identifiers the benchmark chose: no escaping.
        match s.parent {
            Some(p) => writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":\"{}\",\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, p, s.op_id
            )?,
            None => writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":null,\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?,
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, op: u64, s: u64, e: u64) -> Span {
        Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            op_id: op,
        }
    }

    #[test]
    fn self_times_close_on_a_synthetic_tree() {
        // op 1: root 0..100; a 10..40 with grandchild a1 20..30; b 50..90.
        // op 2: root 200..260 with one child covering 210..250.
        let mut spans = vec![
            span("bench.op", None, 1, 0, 100),
            span("serve.a", Some("bench.op"), 1, 10, 40),
            span("runtime.a1", Some("serve.a"), 1, 20, 30),
            span("serve.b", Some("bench.op"), 1, 50, 90),
            span("serve.a", Some("bench.op"), 2, 210, 250),
            span("bench.op", None, 2, 200, 260),
        ];
        let st = self_times(&mut spans);
        assert_eq!(st.roots, 2);
        assert_eq!(st.root_ns, 160);
        assert_eq!(st.self_ns, 160, "self times sum to the root durations");
        assert_eq!(st.closure_err_pct(), 0.0);
        assert_eq!(st.by_name["bench.op"].self_ns, 30 + 20);
        assert_eq!(st.by_name["serve.a"].self_ns, 20 + 40);
        assert_eq!(st.by_name["serve.a"].count, 2);
        assert_eq!(st.by_name["runtime.a1"].self_ns, 10);
        assert_eq!(st.by_name["serve.b"].self_ns, 40);
        // Two operations: serve self = 20 + 40 + 40 ns over 2 ops.
        assert!((st.layer_self_ms_per_op("serve") - 50e-6).abs() < 1e-12);
        assert_eq!(st.layer_self_ms_per_op("accel"), 0.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped_not_double_counted() {
        let mut spans = vec![
            span("bench.op", None, 7, 100, 200),
            span("x.a", Some("bench.op"), 7, 90, 150),
            span("x.b", Some("bench.op"), 7, 140, 180),
        ];
        let st = self_times(&mut spans);
        // Children cover 100..180 of the root.
        assert_eq!(st.by_name["bench.op"].self_ns, 20);
        // Overlap breaks closure, and the check says so.
        assert!(st.closure_err_pct() > 0.0);
    }

    #[test]
    fn an_orphan_counts_as_a_root() {
        let mut spans = vec![span("serve.submit", Some("bench.op"), 3, 0, 10)];
        let st = self_times(&mut spans);
        assert_eq!((st.roots, st.root_ns, st.self_ns), (1, 10, 10));
    }

    #[test]
    fn recorder_times_only_when_on() {
        let mut rec = Recorder::new(Instant::now());
        assert_eq!(rec.time(false, "x.y", ROOT, 1, || 5), 5);
        assert!(rec.spans.is_empty());
        assert_eq!(rec.time(true, "x.y", ROOT, 1, || 6), 6);
        assert_eq!(rec.spans.len(), 1);
        assert_eq!(rec.spans[0].parent, Some(ROOT));
        assert!(rec.spans[0].end_ns >= rec.spans[0].start_ns);
    }
}
