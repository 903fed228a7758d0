//! Lock-free serving telemetry: counters and log-bucketed latency
//! histograms, kept in **one per-precision ledger per shard** and
//! summed or merged on read.
//!
//! Every hot-path record is a single relaxed atomic increment, so the
//! batchers and an arbitrary number of client threads can publish
//! telemetry without contending on a lock. Latencies land in
//! [`LogHistogram`] — one bucket per power of two of nanoseconds — which
//! is coarse (quantiles are exact to within ~2×, reported at the bucket's
//! geometric midpoint) but constant-size, allocation-free, and mergeable
//! ([`LogHistogram::merge_from`], which is how the ledgers roll up into
//! shard and server-wide views).
//!
//! A sharded server gives each batcher its own [`ShardMetrics`], so no
//! two shards share a cache line. Each request outcome is recorded
//! exactly once, into its precision's [`PrecisionMetrics`] (counters,
//! latency, rolling window) through [`ShardMetrics::record`]; every
//! shard and server total is derived as the f32 + int8 sum. Only the
//! queue-wait and service histograms, the retry counter and the
//! in-flight gauge are kept per shard, and admission-side counters
//! (submitted / rejected) stay server-global because `submit` runs
//! before shard assignment. [`ServerMetrics::snapshot`] merges
//! everything into one [`TelemetrySnapshot`] and also carries the
//! per-shard breakdown ([`ShardSnapshot`]).
//!
//! A [`TelemetrySnapshot`] carries throughput plus p50/p95/p99 of both
//! **queue wait** (admission → dispatch, the cost of batching) and
//! **end-to-end latency** (admission → ticket fulfilment, what the
//! client observes).

use crate::events::{EventCode, EventConfig, EventJournal, RecordedEvent, Severity};
use crate::window::{pool, WindowSet, WindowSnapshot, WindowStats, WINDOWS};
use pcnn_runtime::{json, Precision};
use pcnn_sync::atomic::{AtomicI64, AtomicU64, Ordering};
use pcnn_sync::Arc;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A relaxed atomic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ordering: monotone statistics counter, no payload published.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: statistics read; snapshot readers tolerate lag.
        self.0.load(Ordering::Relaxed)
    }
}

/// A relaxed atomic point-in-time gauge (queue depth, in-flight
/// batches). Signed internally so a racing `dec` before the matching
/// `inc` becomes visible can dip below zero without wrapping; reads
/// clamp at zero.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        // ordering: gauge updates are independent events; the signed
        // representation already absorbs inc/dec reordering.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        // ordering: see `inc` — dips below zero are clamped on read.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Overwrites with a sampled value.
    pub fn set(&self, v: u64) {
        // ordering: point-in-time sample, last writer wins is fine.
        self.0
            .store(v.min(i64::MAX as u64) as i64, Ordering::Relaxed);
    }

    /// Current value, clamped at zero.
    pub fn get(&self) -> u64 {
        // ordering: statistics read; snapshot readers tolerate lag.
        self.0.load(Ordering::Relaxed).max(0) as u64
    }
}

/// A high-watermark register: writers race [`Watermark::observe`] (one
/// relaxed `fetch_max`); readers observe it non-destructively with
/// [`Watermark::peek`], and only the explicit interval-reset path
/// ([`ServerMetrics::snapshot_and_reset`]) drains it with
/// [`Watermark::take`] — so concurrent snapshot consumers (Prometheus
/// scrape, Display/JSON, health evaluation) never clobber each other's
/// reading. A sampled gauge only shows the depth at scrape instants;
/// the watermark catches the transient saturation spikes in between.
#[derive(Debug, Default)]
pub struct Watermark(AtomicU64);

impl Watermark {
    /// Raises the watermark to `v` when higher.
    pub fn observe(&self, v: u64) {
        // ordering: the RMW keeps the max correct; no payload rides on
        // the watermark value.
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current watermark without resetting it — every observe-only
    /// reader (plain snapshots, the Prometheus render path), so no
    /// consumer can steal the spike another reader was about to see.
    pub fn peek(&self) -> u64 {
        // ordering: statistics read; snapshot readers tolerate lag.
        self.0.load(Ordering::Relaxed)
    }

    /// Returns the watermark and resets it to zero — the explicit
    /// opt-in interval reset ([`ServerMetrics::snapshot_and_reset`]);
    /// every other reader uses [`Watermark::peek`].
    pub fn take(&self) -> u64 {
        // ordering: the swap's atomicity alone guarantees each spike is
        // reported exactly once; no ordering with other state needed.
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// Events carried in a [`TelemetrySnapshot`]'s tail — enough to show
/// the recent control-plane edges in Display/JSON without dumping the
/// whole ring (that's the incident recorder's job).
const SNAPSHOT_EVENT_TAIL: usize = 8;

/// Number of power-of-two buckets: bucket `i > 0` holds durations in
/// `[2^i, 2^(i+1))` ns, bucket 0 spans `[0, 2)` ns (it catches both the
/// 0 ns and 1 ns values), and the last bucket catches everything from
/// `2^33` ns ≈ 8.6 s up.
const BUCKETS: usize = 34;

/// A lock-free latency histogram with logarithmic (power-of-two ns)
/// buckets.
///
/// # Example
///
/// ```
/// use pcnn_serve::metrics::LogHistogram;
/// use std::time::Duration;
///
/// let h = LogHistogram::new();
/// for ms in [1u64, 2, 4, 100] {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 4);
/// // p50 lands in the bucket holding 2ms, within its 2x resolution.
/// let p50 = h.quantile(0.5);
/// assert!(p50 >= Duration::from_millis(1) && p50 <= Duration::from_millis(4));
/// ```
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Sum of recorded nanoseconds, for exact means.
    total_ns: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }

    fn bucket_of(ns: u64) -> usize {
        (ns.max(1).ilog2() as usize).min(BUCKETS - 1)
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one duration given in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        // ordering: the three fields are deliberately not published
        // atomically as a group — readers document a one-sample skew
        // tolerance, so each increment can stay relaxed.
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        // ordering: statistics read; snapshot readers tolerate lag.
        self.count.load(Ordering::Relaxed)
    }

    /// Folds every sample of `other` into `self` — the roll-up half of
    /// the histogram's mergeability (identical fixed buckets mean a
    /// merge is 34 additions, no re-binning). Concurrent `record`s on
    /// either side are safe; a merge taken mid-record is off by at most
    /// the in-flight sample, same as any relaxed read.
    pub fn merge_from(&self, other: &LogHistogram) {
        // Count and total are read BEFORE the buckets, mirroring
        // `record_ns`'s bucket-then-count write order so a racing
        // record usually lands as a harmless one-sample undercount.
        // This is best-effort, not a memory-model guarantee —
        // `quantile` clamps to the slowest non-empty bucket for the
        // case where count still runs ahead of the copied bucket mass.
        // ordering: everything relaxed by design, per the above.
        let count = other.count.load(Ordering::Relaxed);
        let total_ns = other.total_ns.load(Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            // ordering: covered by the merge contract above.
            let v = theirs.load(Ordering::Relaxed);
            if v > 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        // ordering: covered by the merge contract above.
        self.count.fetch_add(count, Ordering::Relaxed);
        self.total_ns.fetch_add(total_ns, Ordering::Relaxed);
    }

    /// Exact mean of the recorded durations (zero when empty).
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        // ordering: statistics read; a racing record skews the mean by
        // at most one in-flight sample.
        Duration::from_nanos(self.total_ns.load(Ordering::Relaxed) / n)
    }

    /// The `q`-quantile (`0.0..=1.0`), reported at the geometric
    /// midpoint of the bucket containing it — exact to within the 2×
    /// bucket resolution. Zero when empty.
    ///
    /// All histogram loads are relaxed, so a quantile taken while
    /// records (or merges) race can observe a `count` slightly ahead of
    /// the summed bucket mass. When the scan runs out of mass before
    /// reaching the rank, the quantile clamps to the slowest non-empty
    /// bucket — off by at most the in-flight samples — rather than
    /// reporting the end-of-range sentinel (~8.6 s) for a histogram
    /// whose real tail may be microseconds.
    pub fn quantile(&self, q: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut slowest_nonempty = None;
        for (i, bucket) in self.buckets.iter().enumerate() {
            // ordering: statistics read; the slowest-non-empty clamp
            // below absorbs count running ahead of bucket mass.
            let mass = bucket.load(Ordering::Relaxed);
            if mass > 0 {
                slowest_nonempty = Some(i);
            }
            seen += mass;
            if seen >= rank {
                return Self::bucket_midpoint(i);
            }
        }
        match slowest_nonempty {
            Some(i) => Self::bucket_midpoint(i),
            None => Duration::ZERO,
        }
    }

    /// Geometric midpoint of bucket `i`, the value quantiles report.
    fn bucket_midpoint(i: usize) -> Duration {
        let lo = (1u64 << i) as f64;
        Duration::from_nanos((lo * std::f64::consts::SQRT_2) as u64)
    }

    /// A relaxed copy of every bucket count, in bucket order — the raw
    /// series the Prometheus exporter renders cumulatively.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        // ordering: statistics read; snapshot readers tolerate lag.
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Sum of all recorded nanoseconds (the exporter's `_sum`).
    pub fn total_ns(&self) -> u64 {
        // ordering: statistics read; snapshot readers tolerate lag.
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Exclusive upper bound of bucket `i` in nanoseconds, `None` for
    /// the open-ended last bucket (`+Inf` in the exporter).
    pub fn bucket_upper_ns(i: usize) -> Option<u64> {
        (i + 1 < BUCKETS).then(|| 2u64 << i)
    }

    /// Fraction of recorded samples strictly slower than the bucket
    /// containing `ns` — the SLO-violation estimator the health engine
    /// burns against. A bucket-resolution approximation: samples
    /// sharing `ns`'s own bucket count as *within* target, so the
    /// estimate errs toward compliance by at most one 2× bucket. Zero
    /// when empty.
    pub fn fraction_above(&self, ns: u64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let cutoff = Self::bucket_of(ns);
        // ordering: statistics read; the estimator is already bucket-
        // resolution approximate.
        let above: u64 = self.buckets[cutoff + 1..]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        (above as f64 / n as f64).min(1.0)
    }

    /// Resets every bucket, the count, and the total to zero (relaxed
    /// stores) — how the windowed rings recycle a slot when it rotates
    /// to a new time bucket. Not atomic as a whole: a concurrent record
    /// may partially survive the wipe, which the rotation-race contract
    /// (`crate::window`) already allows.
    pub(crate) fn clear(&self) {
        // The wipe is not atomic as a whole and the rotation-race
        // contract allows partial survival; publication rides on the
        // window's epoch protocol.
        // ordering: relaxed stores suffice, per the contract above.
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

/// How one request left the server. Every resolution path records its
/// outcome through [`ShardMetrics::record`], the one place that knows
/// which counter and which rolling window an outcome feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fulfilled with an output, after this end-to-end latency.
    Completed(Duration),
    /// Failed by an engine fault or by the death of its shard.
    Failed,
    /// Aborted by shutdown.
    Aborted,
    /// Dropped because its deadline elapsed before dispatch. Windowed
    /// as a failure: a deadline miss is an SLO violation.
    Expired,
    /// Cancelled by its client before dispatch. Not windowed: the
    /// client walked away, the server did nothing wrong.
    Cancelled,
}

/// The outcome ledger of one precision class (f32 or int8) within a
/// shard. Shard and server totals are sums of these, never kept twice.
#[derive(Debug, Default)]
pub struct PrecisionMetrics {
    /// Requests of this precision fulfilled with an output.
    pub completed: Counter,
    /// Requests of this precision failed by engine faults.
    pub failed: Counter,
    /// Requests of this precision aborted by shutdown.
    pub aborted: Counter,
    /// Requests of this precision whose deadline elapsed before
    /// dispatch.
    pub expired: Counter,
    /// Requests of this precision cancelled by their clients.
    pub cancelled: Counter,
    /// Batches of this precision dispatched to the engine.
    pub batches: Counter,
    /// Total images across this precision's dispatched batches.
    pub batched_images: Counter,
    /// Admission → ticket fulfilment of this precision's requests.
    pub latency: LogHistogram,
    /// The rolling-window twin of the outcome counters, clocked against
    /// the server's shared epoch so every shard's rings rotate in phase
    /// (which is what makes the pooled reads in
    /// [`ServerMetrics::merged_window`] exact up to bucket granularity).
    pub window: WindowSet,
}

/// The dispatch-side metrics of **one** shard, written only by that
/// shard's batcher thread, the engine workers running its completions,
/// and the supervisor failing its orphans.
#[derive(Debug)]
pub struct ShardMetrics {
    /// Transient engine faults this shard re-queued for another shard
    /// under the retry policy (`pcnn_retries_total`).
    pub retries: Counter,
    /// Admission → dispatch wait.
    pub queue_wait: LogHistogram,
    /// Dispatch → batch completion (engine time per batch).
    pub service: LogHistogram,
    /// Batches dispatched to the engine and not yet completed.
    pub inflight_batches: Gauge,
    /// The outcome ledger, by execution precision (indexed by
    /// [`Precision::index`]).
    pub by_precision: [PrecisionMetrics; 2],
    epoch: Instant,
}

impl ShardMetrics {
    /// Shard metrics clocked against the server's shared `epoch`.
    pub fn with_epoch(epoch: Instant) -> Self {
        ShardMetrics {
            retries: Counter::default(),
            queue_wait: LogHistogram::new(),
            service: LogHistogram::new(),
            inflight_batches: Gauge::default(),
            by_precision: Default::default(),
            epoch,
        }
    }

    /// Records how one request of precision `p` left the server.
    pub fn record(&self, p: Precision, outcome: Outcome) {
        let pm = self.precision(p);
        let now = || self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        match outcome {
            Outcome::Completed(latency) => {
                pm.completed.inc();
                pm.latency.record(latency);
                let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
                pm.window.on_completed(now(), ns);
            }
            Outcome::Failed => {
                pm.failed.inc();
                pm.window.on_failed(now());
            }
            Outcome::Expired => {
                pm.expired.inc();
                pm.window.on_failed(now());
            }
            Outcome::Aborted => {
                pm.aborted.inc();
                pm.window.on_aborted(now());
            }
            Outcome::Cancelled => pm.cancelled.inc(),
        }
    }

    /// Records one dispatched batch of `images` requests at precision `p`.
    pub fn record_batch(&self, p: Precision, images: usize) {
        let pm = self.precision(p);
        pm.batches.inc();
        pm.batched_images.add(images as u64);
    }

    /// The metrics of one precision class.
    pub fn precision(&self, p: Precision) -> &PrecisionMetrics {
        &self.by_precision[p.index()]
    }

    /// `live` summed over both precisions: every shard-level outcome and
    /// batch count is derived this way.
    pub(crate) fn total(&self, live: fn(&PrecisionMetrics) -> u64) -> u64 {
        self.by_precision.iter().map(live).sum()
    }

    /// Folds both precisions' end-to-end latency into `into`.
    pub(crate) fn merge_latency_into(&self, into: &LogHistogram) {
        for pm in &self.by_precision {
            into.merge_from(&pm.latency);
        }
    }

    /// A point-in-time reading of this shard.
    pub fn snapshot(&self, shard: usize) -> ShardSnapshot {
        let latency = LogHistogram::new();
        self.merge_latency_into(&latency);
        let mut snap = ShardSnapshot {
            shard,
            queue_wait_p50: self.queue_wait.quantile(0.50),
            queue_wait_p99: self.queue_wait.quantile(0.99),
            latency_p50: latency.quantile(0.50),
            latency_p99: latency.quantile(0.99),
            service_mean: self.service.mean(),
            ..ShardSnapshot::default()
        };
        for m in &METRICS {
            if let Scope::Shard(live, field, _) = &m.scope {
                (field.set)(&mut snap, live(self));
            }
        }
        snap.mean_batch = mean_batch(snap.batched_images, snap.batches);
        snap
    }
}

fn mean_batch(images: u64, batches: u64) -> f64 {
    if batches == 0 {
        0.0
    } else {
        images as f64 / batches as f64
    }
}

/// The Prometheus sample type of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Monotone since server start.
    Counter,
    /// A point-in-time value that moves both ways.
    Gauge,
    /// Cumulative `_bucket` / `_sum` / `_count` series.
    Histogram,
}

/// One metric family being rendered in the Prometheus text exposition
/// format: [`family`] writes the `# HELP` / `# TYPE` header, every
/// [`Family::sample`] one series line under it. All exporters in this
/// crate go through here, so the line syntax lives in one place.
pub(crate) struct Family<'a> {
    out: &'a mut String,
    name: &'a str,
}

/// Starts the family `name` in `out`.
pub(crate) fn family<'a>(out: &'a mut String, name: &'a str, help: &str, kind: Kind) -> Family<'a> {
    let kind = match kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
        Kind::Histogram => "histogram",
    };
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
    Family { out, name }
}

impl Family<'_> {
    /// One series: `labels` is the text between the braces
    /// (`shard="0"`), empty for an unlabeled family.
    pub(crate) fn sample(&mut self, labels: &str, value: impl std::fmt::Display) -> &mut Self {
        let name = self.name;
        let _ = if labels.is_empty() {
            writeln!(self.out, "{name} {value}")
        } else {
            writeln!(self.out, "{name}{{{labels}}} {value}")
        };
        self
    }

    /// One histogram as a cumulative series: `_bucket` lines for every
    /// finite power-of-two upper bound, the `+Inf` bucket, `_sum`
    /// (seconds), and `_count`.
    fn histogram(&mut self, labels: &str, h: &LogHistogram) -> &mut Self {
        let (o, name) = (&mut *self.out, self.name);
        let mut cum = 0u64;
        for (i, c) in h.bucket_counts().iter().enumerate() {
            cum += c;
            if let Some(upper_ns) = LogHistogram::bucket_upper_ns(i) {
                let le = upper_ns as f64 * 1e-9;
                let _ = writeln!(o, "{name}_bucket{{{labels},le=\"{le}\"}} {cum}");
            }
        }
        let _ = writeln!(o, "{name}_bucket{{{labels},le=\"+Inf\"}} {cum}");
        let _ = writeln!(o, "{name}_sum{{{labels}}} {}", h.total_ns() as f64 * 1e-9);
        let _ = writeln!(o, "{name}_count{{{labels}}} {}", h.count());
        self
    }
}

/// A named `u64` field of a snapshot struct, addressable from the
/// metric table: the JSON key (the field's own name), its position in
/// the struct's JSON counter block, and its accessors.
///
/// `at` exists because the JSON key order predates the table and is
/// frozen (consumers diff the text), while the table itself is in
/// Prometheus exposition order.
#[derive(Debug)]
pub(crate) struct Field<S> {
    /// The JSON key.
    key: &'static str,
    at: u8,
    get: fn(&S) -> u64,
    set: fn(&mut S, u64),
}

impl<S> Field<S> {
    /// Writes `snap`'s counter block — every field the table declares
    /// for `S`, in JSON order — into `o`.
    fn write_all(pick: fn(&'static Scope) -> Option<&'static Field<S>>, snap: &S, o: &mut json::Obj)
    where
        S: 'static,
    {
        let mut fields: Vec<_> = METRICS.iter().filter_map(|m| pick(&m.scope)).collect();
        fields.sort_by_key(|f| f.at);
        for f in fields {
            o.int(f.key, (f.get)(snap));
        }
    }
}

macro_rules! field {
    ($f:ident @ $at:literal) => {
        Field {
            key: stringify!($f),
            at: $at,
            get: |s| s.$f,
            set: |s, v| s.$f = v,
        }
    };
}

type Rows = fn(&WindowSnapshot) -> &[WindowStats];

/// Where a family's values live: how to read them live, which label
/// they are spread over, and which snapshot fields carry them.
#[derive(Debug)]
pub(crate) enum Scope {
    /// One value per server (admission-side, written by `submit` before
    /// any shard is involved), and the [`TelemetrySnapshot`] field
    /// carrying it.
    Server(fn(&ServerMetrics) -> u64, Option<Field<TelemetrySnapshot>>),
    /// One value per shard (label `shard`), the [`ShardSnapshot`] field
    /// carrying it, and the [`TelemetrySnapshot`] field carrying the
    /// sum over shards when the server-wide reading has one.
    Shard(
        fn(&ShardMetrics) -> u64,
        Field<ShardSnapshot>,
        Option<Field<TelemetrySnapshot>>,
    ),
    /// One value per execution precision (label `precision`), summed
    /// over shards, and the [`PrecisionSnapshot`] field carrying it.
    Precision(
        fn(&PrecisionMetrics) -> u64,
        Option<Field<PrecisionSnapshot>>,
    ),
    /// One histogram per shard, folded into the one it is handed.
    ShardHistogram(fn(&ShardMetrics, &LogHistogram)),
    /// One histogram per execution precision, merged over shards.
    PrecisionHistogram(fn(&PrecisionMetrics) -> &LogHistogram),
    /// The event journal's totals (labels `code`, `severity`).
    Events,
    /// One value per trailing window (label `window`), read off the
    /// window's pooled statistics.
    Window(fn(&WindowStats) -> f64),
    /// The pooled latency quantiles of each trailing window (labels
    /// `window`, `quantile`).
    WindowQuantiles,
    /// One value per trailing window and per shard or precision: the
    /// second label's key, the rows it ranges over, and the cell text.
    WindowBreakdown(&'static str, Rows, fn(&WindowStats) -> String),
}

/// One row of the metric table.
#[derive(Debug)]
pub(crate) struct Metric {
    /// Prometheus family name.
    name: &'static str,
    /// Prometheus `# HELP` text.
    help: &'static str,
    /// Prometheus `# TYPE`.
    kind: Kind,
    /// Where the values live.
    scope: Scope,
}

// Row constructors for `METRICS`. `row!` takes the scope as written;
// the other three spell the common counter/gauge scopes as
// `[sum] <field>[.<reader>] @ <JSON position> [, total @ <JSON position>]`,
// where `sum` reads a shard value as the sum of its two precisions.
macro_rules! row {
    ($kind:ident $name:literal, $help:literal, $scope:expr) => {
        Metric {
            name: $name,
            help: $help,
            kind: Kind::$kind,
            scope: $scope,
        }
    };
}
macro_rules! server {
    ($f:ident.$read:ident @ $at:literal => $kind:ident $name:literal, $help:literal) => {
        row!($kind $name, $help, Scope::Server(|m| m.$f.$read(), Some(field!($f @ $at))))
    };
}
macro_rules! shard {
    ($f:ident @ $at:literal, total @ $tat:literal => $kind:ident $name:literal, $help:literal) => {
        row!($kind $name, $help,
            Scope::Shard(|s| s.$f.get(), field!($f @ $at), Some(field!($f @ $tat))))
    };
    (sum $f:ident @ $at:literal, total @ $tat:literal => $kind:ident $name:literal, $help:literal) => {
        row!($kind $name, $help,
            Scope::Shard(|s| s.total(|p| p.$f.get()), field!($f @ $at), Some(field!($f @ $tat))))
    };
}
macro_rules! precision {
    ($f:ident @ $at:literal => $name:literal, $help:literal) => {
        row!(Counter $name, $help, Scope::Precision(|p| p.$f.get(), Some(field!($f @ $at))))
    };
}

fn throughput_cell(s: &WindowStats) -> String {
    format!("{:.3}", s.throughput_rps)
}

fn p99_cell(s: &WindowStats) -> String {
    s.latency_p99.as_secs_f64().to_string()
}

/// Every metric family of the serving telemetry, declared once, in
/// Prometheus exposition order. [`ServerMetrics::render_prometheus`]
/// is one loop over this table; the snapshot builders
/// ([`ServerMetrics::snapshot`], [`ShardMetrics::snapshot`]) and the
/// counter blocks of the three snapshot JSON renderers iterate its
/// [`Field`]s — so a counter added here appears in every one of them.
#[rustfmt::skip]
pub(crate) static METRICS: [Metric; 41] = [
    server!(submitted.get @ 0 => Counter "pcnn_requests_submitted_total",
        "Requests admitted into the queue."),
    server!(rejected.get @ 2 => Counter "pcnn_requests_rejected_total",
        "Requests refused by admission control (queue full)."),
    server!(rejected_shutdown.get @ 3 => Counter "pcnn_requests_rejected_shutdown_total",
        "Requests refused because the server was shutting down."),
    server!(queue_depth.get @ 10 => Gauge "pcnn_queue_depth",
        "Requests queued right now (sampled at push/pop)."),
    server!(queue_depth_hwm.peek @ 11 => Gauge "pcnn_queue_depth_hwm",
        "Highest queue depth observed since the last explicit reset (non-destructive read)."),
    server!(shed.get @ 12 => Counter "pcnn_requests_shed_total",
        "Low-priority requests shed by the health engine while Overloaded."),
    server!(shard_restarts.get @ 9 => Counter "pcnn_shard_restarts_total",
        "Batcher generations torn down and respawned by the supervisor."),
    shard!(sum completed @ 0, total @ 1 => Counter "pcnn_requests_completed_total",
        "Requests fulfilled with an output."),
    shard!(sum failed @ 2, total @ 5 => Counter "pcnn_requests_failed_total",
        "Requests failed by engine faults."),
    shard!(sum aborted @ 1, total @ 4 => Counter "pcnn_requests_aborted_total",
        "Requests aborted by shutdown."),
    shard!(sum expired @ 3, total @ 6 => Counter "pcnn_deadline_exceeded_total",
        "Requests dropped because their deadline elapsed before dispatch."),
    shard!(sum cancelled @ 4, total @ 7 => Counter "pcnn_requests_cancelled_total",
        "Requests cancelled by their clients before dispatch."),
    shard!(retries @ 5, total @ 8 => Counter "pcnn_retries_total",
        "Transient engine faults re-queued for another shard under the retry policy."),
    shard!(sum batches @ 6, total @ 14 => Counter "pcnn_batches_dispatched_total",
        "Batches dispatched to the engine."),
    row!(Counter "pcnn_batched_images_total", "Images across dispatched batches.",
        Scope::Shard(|s| s.total(|p| p.batched_images.get()), field!(batched_images @ 7), None)),
    shard!(inflight_batches @ 8, total @ 13 => Gauge "pcnn_inflight_batches",
        "Batches dispatched and not yet completed."),
    row!(Histogram "pcnn_queue_wait_seconds", "Admission to dispatch wait.",
        Scope::ShardHistogram(|s, h| h.merge_from(&s.queue_wait))),
    row!(Histogram "pcnn_latency_seconds", "Admission to ticket fulfilment (end-to-end).",
        Scope::ShardHistogram(ShardMetrics::merge_latency_into)),
    row!(Histogram "pcnn_service_seconds", "Engine time per dispatched batch.",
        Scope::ShardHistogram(|s, h| h.merge_from(&s.service))),
    precision!(completed @ 0 => "pcnn_precision_completed_total",
        "Requests fulfilled, by execution precision."),
    precision!(failed @ 1 => "pcnn_precision_failed_total",
        "Requests failed by engine faults, by execution precision."),
    precision!(aborted @ 2 => "pcnn_precision_aborted_total",
        "Requests aborted by shutdown, by execution precision."),
    precision!(expired @ 3 => "pcnn_precision_expired_total",
        "Requests dropped at their deadline before dispatch, by execution precision."),
    precision!(cancelled @ 4 => "pcnn_precision_cancelled_total",
        "Requests cancelled by their clients before dispatch, by execution precision."),
    precision!(batches @ 5 => "pcnn_precision_batches_total",
        "Batches dispatched, by execution precision."),
    row!(Counter "pcnn_precision_batched_images_total",
        "Images across dispatched batches, by execution precision.",
        Scope::Precision(|p| p.batched_images.get(), None)),
    row!(Histogram "pcnn_precision_latency_seconds", "End-to-end latency, by execution precision.",
        Scope::PrecisionHistogram(|p| &p.latency)),
    row!(Counter "pcnn_events_total",
        "Structured control-plane events recorded, by code and severity (every occurrence, coalesced or not).",
        Scope::Events),
    row!(Counter "pcnn_events_suppressed_total",
        "Event occurrences coalesced by per-code rate limiting (counted in totals, kept out of the ring).",
        Scope::Server(|m| m.events.suppressed(), None)),
    row!(Counter "pcnn_events_dropped_total", "Events lost to ring slot contention (writers never wait).",
        Scope::Server(|m| m.events.dropped(), None)),
    // The rolling-window families. All are gauges — a trailing window's
    // value moves both ways. Per-shard and per-precision series carry
    // only throughput and p99 to bound cardinality; the full breakdown
    // lives in the JSON snapshot.
    row!(Gauge "pcnn_window_completed", "Requests completed inside the trailing window.",
        Scope::Window(|t| t.completed as f64)),
    row!(Gauge "pcnn_window_failed", "Requests failed inside the trailing window.",
        Scope::Window(|t| t.failed as f64)),
    row!(Gauge "pcnn_window_aborted", "Requests aborted inside the trailing window.",
        Scope::Window(|t| t.aborted as f64)),
    row!(Gauge "pcnn_window_throughput_rps", "Completions per second over the trailing window.",
        Scope::Window(|t| t.throughput_rps)),
    row!(Gauge "pcnn_window_error_rate", "failed / (completed+failed+aborted) over the trailing window.",
        Scope::Window(|t| t.error_rate)),
    row!(Gauge "pcnn_window_abort_rate", "aborted / (completed+failed+aborted) over the trailing window.",
        Scope::Window(|t| t.abort_rate)),
    row!(Gauge "pcnn_window_latency_seconds", "End-to-end latency quantiles over the trailing window.",
        Scope::WindowQuantiles),
    row!(Gauge "pcnn_window_shard_throughput_rps",
        "Per-shard completions per second over the trailing window.",
        Scope::WindowBreakdown("shard", |w| &w.shards, throughput_cell)),
    row!(Gauge "pcnn_window_shard_latency_p99_seconds",
        "Per-shard p99 end-to-end latency over the trailing window.",
        Scope::WindowBreakdown("shard", |w| &w.shards, p99_cell)),
    row!(Gauge "pcnn_window_precision_throughput_rps",
        "Per-precision completions per second over the trailing window.",
        Scope::WindowBreakdown("precision", |w| &w.precisions, throughput_cell)),
    row!(Gauge "pcnn_window_precision_latency_p99_seconds",
        "Per-precision p99 end-to-end latency over the trailing window.",
        Scope::WindowBreakdown("precision", |w| &w.precisions, p99_cell)),
];

fn shard_field(scope: &'static Scope) -> Option<&'static Field<ShardSnapshot>> {
    match scope {
        Scope::Shard(_, field, _) => Some(field),
        _ => None,
    }
}

fn precision_field(scope: &'static Scope) -> Option<&'static Field<PrecisionSnapshot>> {
    match scope {
        Scope::Precision(_, field) => field.as_ref(),
        _ => None,
    }
}

fn telemetry_field(scope: &'static Scope) -> Option<&'static Field<TelemetrySnapshot>> {
    match scope {
        Scope::Server(_, total) | Scope::Shard(_, _, total) => total.as_ref(),
        _ => None,
    }
}

/// All metrics of one server: admission-side counters (written by
/// `submit`, before any shard is involved) plus one [`ShardMetrics`]
/// per batcher, merged on [`ServerMetrics::snapshot`].
#[derive(Debug)]
pub struct ServerMetrics {
    /// Requests admitted into the queue.
    pub submitted: Counter,
    /// Requests refused by admission control (queue full).
    pub rejected: Counter,
    /// Requests refused because the server was shutting down.
    pub rejected_shutdown: Counter,
    /// Requests queued right now, sampled at queue push and pop.
    pub queue_depth: Gauge,
    /// Highest queue depth observed since the last explicit reset
    /// ([`ServerMetrics::snapshot_and_reset`]) — catches transient
    /// saturation spikes the sampled gauge misses.
    pub queue_depth_hwm: Watermark,
    /// Low-priority requests shed by the health engine while the
    /// server was `Overloaded` (the opt-in shedding hook).
    pub shed: Counter,
    /// Batcher generations the supervisor tore down and respawned
    /// (`pcnn_shard_restarts_total`).
    pub shard_restarts: Counter,
    events: Arc<EventJournal>,
    shards: Vec<Arc<ShardMetrics>>,
    started: Instant,
}

impl ServerMetrics {
    /// Fresh metrics for a server of `shards` dispatchers (minimum 1);
    /// the throughput clock starts now.
    pub fn new(shards: usize) -> Self {
        Self::with_config(shards, EventConfig::default())
    }

    /// [`ServerMetrics::new`] with the event journal's knobs made
    /// explicit. The journal shares this server's telemetry epoch, so
    /// event timestamps, span timestamps, and window reads all live on
    /// one monotonic clock.
    pub fn with_config(shards: usize, events: EventConfig) -> Self {
        let started = Instant::now();
        ServerMetrics {
            submitted: Counter::default(),
            rejected: Counter::default(),
            rejected_shutdown: Counter::default(),
            queue_depth: Gauge::default(),
            queue_depth_hwm: Watermark::default(),
            shed: Counter::default(),
            shard_restarts: Counter::default(),
            events: Arc::new(EventJournal::new(&events, started)),
            shards: (0..shards.max(1))
                .map(|_| Arc::new(ShardMetrics::with_epoch(started)))
                .collect(),
            started,
        }
    }

    /// Nanoseconds since this server's telemetry epoch — the clock
    /// every rolling window is recorded and read against.
    pub fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Time since the server started (`pcnn_uptime_seconds`).
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The structured event journal sharing this server's telemetry
    /// epoch — the control-plane forensics feed (queue-full, shed,
    /// faults, health transitions, drains).
    pub fn events(&self) -> &Arc<EventJournal> {
        &self.events
    }

    /// Every precision ledger's rolling windows, across all shards.
    fn all_windows(&self) -> impl Iterator<Item = &WindowSet> {
        self.shards
            .iter()
            .flat_map(|s| s.by_precision.iter().map(|p| &p.window))
    }

    /// Pools every shard's rolling window ending at `now_ns` into one
    /// reading: the merged latency histogram plus `(completed, failed,
    /// aborted)` counts. This is the signal the health engine computes
    /// burn rates from — `now_ns` is explicit so burn evaluation is
    /// deterministic under test.
    pub fn merged_window(&self, now_ns: u64, window: Duration) -> (LogHistogram, u64, u64, u64) {
        let (hist, s) = pool(self.all_windows(), now_ns, window, "total");
        (hist, s.completed, s.failed, s.aborted)
    }

    /// The per-window readings (total + per-shard + per-precision) for
    /// every standard window ([`WINDOWS`]), each pooled from the
    /// precision ledgers it covers. All three windows read against one
    /// `now`, so they nest: the 60 s totals always cover the 10 s totals.
    pub fn window_snapshots(&self) -> Vec<WindowSnapshot> {
        let now = self.now_ns();
        WINDOWS
            .iter()
            .map(|&w| WindowSnapshot {
                window: w,
                total: pool(self.all_windows(), now, w, "total").1,
                shards: self
                    .shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let sets = s.by_precision.iter().map(|p| &p.window);
                        pool(sets, now, w, &format!("shard-{i}")).1
                    })
                    .collect(),
                precisions: Precision::ALL
                    .iter()
                    .map(|&p| {
                        let sets = self.shards.iter().map(|s| &s.precision(p).window);
                        pool(sets, now, w, p.label()).1
                    })
                    .collect(),
            })
            .collect()
    }

    /// Number of shards this server's metrics track.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s metrics handle (the batcher keeps a clone).
    pub fn shard(&self, i: usize) -> &Arc<ShardMetrics> {
        &self.shards[i]
    }

    /// One precision class's reading, summed and merged across shards.
    fn precision_snapshot(&self, p: Precision) -> PrecisionSnapshot {
        let lat = LogHistogram::new();
        for shard in &self.shards {
            lat.merge_from(&shard.precision(p).latency);
        }
        let sum = |live: fn(&PrecisionMetrics) -> u64| -> u64 {
            self.shards.iter().map(|s| live(s.precision(p))).sum()
        };
        let mut snap = PrecisionSnapshot {
            precision: p.label(),
            latency_p50: lat.quantile(0.50),
            latency_p99: lat.quantile(0.99),
            latency_mean: lat.mean(),
            ..PrecisionSnapshot::default()
        };
        for m in &METRICS {
            if let Scope::Precision(live, Some(field)) = &m.scope {
                (field.set)(&mut snap, sum(*live));
            }
        }
        snap.mean_batch = mean_batch(sum(|pm| pm.batched_images.get()), snap.batches);
        snap
    }

    /// A point-in-time reading of every metric: the shard histograms
    /// merge ([`LogHistogram::merge_from`]) into the server-wide
    /// percentiles, and the per-shard breakdown rides along. The merged
    /// counters are derived from the **same** reads that build the
    /// per-shard breakdown, so `completed == shards.iter().sum()` holds
    /// even for a snapshot taken mid-traffic.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let queue_wait = LogHistogram::new();
        let latency = LogHistogram::new();
        let service = LogHistogram::new();
        let mut shards = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            queue_wait.merge_from(&shard.queue_wait);
            shard.merge_latency_into(&latency);
            service.merge_from(&shard.service);
            shards.push(shard.snapshot(i));
        }
        let elapsed = self.started.elapsed();
        let mut snap = TelemetrySnapshot {
            elapsed,
            queue_wait_p50: queue_wait.quantile(0.50),
            queue_wait_p95: queue_wait.quantile(0.95),
            queue_wait_p99: queue_wait.quantile(0.99),
            queue_wait_mean: queue_wait.mean(),
            latency_p50: latency.quantile(0.50),
            latency_p95: latency.quantile(0.95),
            latency_p99: latency.quantile(0.99),
            latency_mean: latency.mean(),
            service_mean: service.mean(),
            precisions: Precision::ALL
                .iter()
                .map(|&p| self.precision_snapshot(p))
                .collect(),
            windows: self.window_snapshots(),
            events_emitted: self.events.emitted(),
            events_suppressed: self.events.suppressed(),
            events_dropped: self.events.dropped(),
            event_tail: self.events.tail(SNAPSHOT_EVENT_TAIL),
            ..TelemetrySnapshot::default()
        };
        for m in &METRICS {
            match &m.scope {
                Scope::Server(live, Some(total)) => (total.set)(&mut snap, live(self)),
                Scope::Shard(_, shard, Some(total)) => {
                    (total.set)(&mut snap, shards.iter().map(shard.get).sum());
                }
                _ => {}
            }
        }
        let images: u64 = shards.iter().map(|s| s.batched_images).sum();
        snap.mean_batch = mean_batch(images, snap.batches);
        if !elapsed.is_zero() {
            snap.throughput_rps = snap.completed as f64 / elapsed.as_secs_f64();
        }
        snap.shards = shards;
        snap
    }

    /// [`ServerMetrics::snapshot`] plus the interval reset: drains the
    /// queue-depth watermark so the *next* reading reports the high
    /// water since this one. This is the only consumer allowed to
    /// reset — plain snapshots and the Prometheus render are
    /// observe-only, so concurrent readers never clobber each other.
    pub fn snapshot_and_reset(&self) -> TelemetrySnapshot {
        let mut snap = self.snapshot();
        // `take` after the peek inside `snapshot` can only see an
        // equal-or-higher mark (observe is monotone within an
        // interval), so report the drained value.
        snap.queue_depth_hwm = self.queue_depth_hwm.take();
        snap
    }

    /// Renders every counter, gauge, and histogram in the Prometheus
    /// text exposition format — the machine-scrapable sibling of
    /// [`TelemetrySnapshot::to_json`]: one family per `METRICS` row,
    /// in table order. Metric names are stable and documented in the
    /// README's Observability section.
    pub fn render_prometheus(&self) -> String {
        let mut o = String::with_capacity(16 * 1024);
        let windows = self.window_snapshots();
        let wlabel = |w: &WindowSnapshot| format!("window=\"{}s\"", w.window.as_secs());
        let plabel = |p: Precision| format!("precision=\"{}\"", p.label());
        let shards = || {
            let labelled = |(i, s)| (format!("shard=\"{i}\""), s);
            self.shards
                .iter()
                .map(Arc::as_ref)
                .enumerate()
                .map(labelled)
        };
        for m in &METRICS {
            let mut f = family(&mut o, m.name, m.help, m.kind);
            match &m.scope {
                Scope::Server(live, _) => {
                    f.sample("", live(self));
                }
                Scope::Shard(live, ..) => {
                    for (label, s) in shards() {
                        f.sample(&label, live(s));
                    }
                }
                Scope::ShardHistogram(fold) => {
                    for (label, s) in shards() {
                        let h = LogHistogram::new();
                        fold(s, &h);
                        f.histogram(&label, &h);
                    }
                }
                Scope::Precision(live, _) => {
                    for p in Precision::ALL {
                        let v: u64 = self.shards.iter().map(|s| live(s.precision(p))).sum();
                        f.sample(&plabel(p), v);
                    }
                }
                Scope::PrecisionHistogram(get) => {
                    for p in Precision::ALL {
                        let merged = LogHistogram::new();
                        for s in &self.shards {
                            merged.merge_from(get(s.precision(p)));
                        }
                        f.histogram(&plabel(p), &merged);
                    }
                }
                Scope::Events => {
                    for code in EventCode::ALL {
                        for severity in Severity::ALL {
                            let (c, s) = (code.label(), severity.label());
                            let labels = format!("code=\"{c}\",severity=\"{s}\"");
                            f.sample(&labels, self.events.total(code, severity));
                        }
                    }
                }
                Scope::Window(get) => {
                    for w in &windows {
                        f.sample(&wlabel(w), get(&w.total));
                    }
                }
                Scope::WindowQuantiles => {
                    for w in &windows {
                        for (q, v) in [
                            ("0.5", w.total.latency_p50),
                            ("0.95", w.total.latency_p95),
                            ("0.99", w.total.latency_p99),
                        ] {
                            let labels = format!("{},quantile=\"{q}\"", wlabel(w));
                            f.sample(&labels, v.as_secs_f64());
                        }
                    }
                }
                // A shard row's label is `shard-<i>`; the series
                // carries the bare index.
                Scope::WindowBreakdown(key, rows, cell) => {
                    for w in &windows {
                        for s in rows(w) {
                            let value = s.label.strip_prefix("shard-").unwrap_or(&s.label);
                            f.sample(&format!("{},{key}=\"{value}\"", wlabel(w)), cell(s));
                        }
                    }
                }
            }
        }
        o
    }
}

/// A point-in-time telemetry reading: throughput and mean latency, tail
/// percentiles, and admission counters.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests completed with an output.
    pub completed: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// Requests rejected during shutdown.
    pub rejected_shutdown: u64,
    /// Requests aborted by shutdown.
    pub aborted: u64,
    /// Requests failed by engine faults (a chunk pass panicked).
    pub failed: u64,
    /// Requests dropped because their deadline elapsed before
    /// dispatch.
    pub expired: u64,
    /// Requests whose client cancelled the ticket before dispatch.
    pub cancelled: u64,
    /// Transient faults re-queued for another shard under the retry
    /// policy.
    pub retries: u64,
    /// Batcher generations torn down and respawned by the supervisor.
    pub shard_restarts: u64,
    /// Requests queued at snapshot time (sampled at push/pop).
    pub queue_depth: u64,
    /// Highest queue depth observed since the last explicit reset
    /// ([`ServerMetrics::snapshot_and_reset`]); plain snapshots read
    /// the watermark non-destructively.
    pub queue_depth_hwm: u64,
    /// Low-priority requests shed by the health engine while
    /// `Overloaded`.
    pub shed: u64,
    /// Batches dispatched and not yet completed, across every shard.
    pub inflight_batches: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean images per dispatched batch.
    pub mean_batch: f64,
    /// Time since the server started.
    pub elapsed: Duration,
    /// Completed requests per second of server lifetime.
    pub throughput_rps: f64,
    /// Median admission → dispatch wait.
    pub queue_wait_p50: Duration,
    /// 95th-percentile queue wait.
    pub queue_wait_p95: Duration,
    /// 99th-percentile queue wait.
    pub queue_wait_p99: Duration,
    /// Mean queue wait (exact).
    pub queue_wait_mean: Duration,
    /// Median end-to-end latency.
    pub latency_p50: Duration,
    /// 95th-percentile end-to-end latency.
    pub latency_p95: Duration,
    /// 99th-percentile end-to-end latency.
    pub latency_p99: Duration,
    /// Mean end-to-end latency (exact).
    pub latency_mean: Duration,
    /// Mean engine time per dispatched batch (exact).
    pub service_mean: Duration,
    /// Per-precision breakdown (one entry per [`Precision`], in
    /// `Precision::ALL` order), merged across shards.
    pub precisions: Vec<PrecisionSnapshot>,
    /// Per-shard breakdown (one entry per batcher, in shard order).
    pub shards: Vec<ShardSnapshot>,
    /// Rolling-window readings (1 s / 10 s / 60 s trailing).
    pub windows: Vec<WindowSnapshot>,
    /// Structured events recorded, counting every occurrence (the
    /// rate limiter only gates ring publication, not this count).
    pub events_emitted: u64,
    /// Event occurrences coalesced by per-code rate limiting.
    pub events_suppressed: u64,
    /// Events lost to ring slot contention (writers never wait).
    pub events_dropped: u64,
    /// The most recent structured events, oldest first.
    pub event_tail: Vec<RecordedEvent>,
}

/// A point-in-time reading of one precision class's traffic.
#[derive(Debug, Clone, Default)]
pub struct PrecisionSnapshot {
    /// Precision label (`"f32"` or `"int8"`).
    pub precision: &'static str,
    /// Requests of this precision completed with an output.
    pub completed: u64,
    /// Requests of this precision failed by engine faults.
    pub failed: u64,
    /// Requests of this precision aborted by shutdown.
    pub aborted: u64,
    /// Requests of this precision expired at their deadline.
    pub expired: u64,
    /// Requests of this precision cancelled by their clients.
    pub cancelled: u64,
    /// Batches of this precision dispatched.
    pub batches: u64,
    /// Mean images per dispatched batch.
    pub mean_batch: f64,
    /// Median end-to-end latency of this precision's requests.
    pub latency_p50: Duration,
    /// 99th-percentile end-to-end latency.
    pub latency_p99: Duration,
    /// Mean end-to-end latency (exact).
    pub latency_mean: Duration,
}

impl PrecisionSnapshot {
    /// Renders the precision reading as a flat JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("precision", self.precision);
            Field::write_all(precision_field, self, o);
            o.fixed("mean_batch", self.mean_batch, 3)
                .object("latency_ms", |l| {
                    l.fixed("p50", ms(self.latency_p50), 6)
                        .fixed("p99", ms(self.latency_p99), 6)
                        .fixed("mean", ms(self.latency_mean), 6);
                });
        })
    }
}

/// A point-in-time reading of one shard's dispatch metrics.
#[derive(Debug, Clone, Default)]
pub struct ShardSnapshot {
    /// Shard index (batcher `pcnn-serve-batcher-<shard>`).
    pub shard: usize,
    /// Requests this shard completed with an output.
    pub completed: u64,
    /// Requests this shard failed during an abort shutdown.
    pub aborted: u64,
    /// Requests this shard failed on engine faults.
    pub failed: u64,
    /// Requests this shard expired at their deadline.
    pub expired: u64,
    /// Requests this shard dropped as client-cancelled.
    pub cancelled: u64,
    /// Transient faults this shard re-queued for retry elsewhere.
    pub retries: u64,
    /// Batches this shard dispatched.
    pub batches: u64,
    /// Total images across this shard's dispatched batches.
    pub batched_images: u64,
    /// Batches this shard dispatched and not yet completed.
    pub inflight_batches: u64,
    /// Mean images per dispatched batch.
    pub mean_batch: f64,
    /// Median admission → dispatch wait of this shard's requests.
    pub queue_wait_p50: Duration,
    /// 99th-percentile queue wait.
    pub queue_wait_p99: Duration,
    /// Median end-to-end latency.
    pub latency_p50: Duration,
    /// 99th-percentile end-to-end latency.
    pub latency_p99: Duration,
    /// Mean engine time per dispatched batch.
    pub service_mean: Duration,
}

impl ShardSnapshot {
    /// Renders the shard reading as a flat JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.int("shard", self.shard);
            Field::write_all(shard_field, self, o);
            o.fixed("mean_batch", self.mean_batch, 3)
                .object("queue_wait_ms", |q| {
                    q.fixed("p50", ms(self.queue_wait_p50), 6).fixed(
                        "p99",
                        ms(self.queue_wait_p99),
                        6,
                    );
                })
                .object("latency_ms", |l| {
                    l.fixed("p50", ms(self.latency_p50), 6)
                        .fixed("p99", ms(self.latency_p99), 6);
                })
                .fixed("service_mean_ms", ms(self.service_mean), 6);
        })
    }
}

/// Writes the `{"p50","p95","p99","mean"}` millisecond object every
/// full latency reading shares.
pub(crate) fn quantiles_ms(o: &mut json::Obj<'_>, [p50, p95, p99, mean]: [Duration; 4]) {
    o.fixed("p50", ms(p50), 6)
        .fixed("p95", ms(p95), 6)
        .fixed("p99", ms(p99), 6)
        .fixed("mean", ms(mean), 6);
}

/// A duration in (fractional) milliseconds — the unit of every latency
/// the JSON and `Display` renderers print.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl std::fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests: {} submitted, {} completed, {} rejected ({} at shutdown), {} aborted, {} failed",
            self.submitted,
            self.completed,
            self.rejected,
            self.rejected_shutdown,
            self.aborted,
            self.failed
        )?;
        if self.expired + self.cancelled + self.retries + self.shard_restarts > 0 {
            writeln!(
                f,
                "faults:   {} expired, {} cancelled, {} retried, {} shard restart(s)",
                self.expired, self.cancelled, self.retries, self.shard_restarts
            )?;
        }
        writeln!(
            f,
            "batches:  {} dispatched, {:.2} images/batch mean",
            self.batches, self.mean_batch
        )?;
        writeln!(
            f,
            "pressure: queue depth {}, {} batches in flight, queue hwm {}",
            self.queue_depth, self.inflight_batches, self.queue_depth_hwm
        )?;
        writeln!(f, "throughput: {:.1} req/s", self.throughput_rps)?;
        writeln!(
            f,
            "queue wait: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  (mean {:.3} ms)",
            ms(self.queue_wait_p50),
            ms(self.queue_wait_p95),
            ms(self.queue_wait_p99),
            ms(self.queue_wait_mean)
        )?;
        writeln!(
            f,
            "e2e latency: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  (mean {:.3} ms)",
            ms(self.latency_p50),
            ms(self.latency_p95),
            ms(self.latency_p99),
            ms(self.latency_mean)
        )?;
        write!(
            f,
            "engine service: {:.3} ms mean per batch",
            ms(self.service_mean)
        )?;
        for p in &self.precisions {
            if p.completed > 0 {
                write!(
                    f,
                    "\n[{}] {} completed in {} batches ({:.2} images/batch), \
                     e2e p50 {:.3} ms p99 {:.3} ms",
                    p.precision,
                    p.completed,
                    p.batches,
                    p.mean_batch,
                    ms(p.latency_p50),
                    ms(p.latency_p99)
                )?;
            }
        }
        if self.shards.len() > 1 {
            for s in &self.shards {
                write!(
                    f,
                    "\nshard {}: {} completed in {} batches ({:.2} images/batch), \
                     e2e p50 {:.3} ms p99 {:.3} ms, service {:.3} ms mean",
                    s.shard,
                    s.completed,
                    s.batches,
                    s.mean_batch,
                    ms(s.latency_p50),
                    ms(s.latency_p99),
                    ms(s.service_mean)
                )?;
            }
        }
        for w in &self.windows {
            let t = &w.total;
            if t.completed + t.failed + t.aborted > 0 {
                write!(
                    f,
                    "\nwindow {:>3}s: {:.1} req/s, e2e p50 {:.3} ms p99 {:.3} ms, \
                     err {:.2}% abort {:.2}%",
                    w.window.as_secs(),
                    t.throughput_rps,
                    ms(t.latency_p50),
                    ms(t.latency_p99),
                    t.error_rate * 100.0,
                    t.abort_rate * 100.0
                )?;
            }
        }
        if self.events_emitted > 0 {
            write!(
                f,
                "\nevents: {} recorded ({} coalesced, {} dropped)",
                self.events_emitted, self.events_suppressed, self.events_dropped
            )?;
            for e in &self.event_tail {
                write!(f, "\n  {e}")?;
            }
        }
        Ok(())
    }
}

impl TelemetrySnapshot {
    /// Renders the snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        let queue_wait = [
            self.queue_wait_p50,
            self.queue_wait_p95,
            self.queue_wait_p99,
            self.queue_wait_mean,
        ];
        let latency = [
            self.latency_p50,
            self.latency_p95,
            self.latency_p99,
            self.latency_mean,
        ];
        json::object(|o| {
            Field::write_all(telemetry_field, self, o);
            o.fixed("mean_batch", self.mean_batch, 3)
                .fixed("elapsed_s", self.elapsed.as_secs_f64(), 6)
                .fixed("throughput_rps", self.throughput_rps, 3)
                .object("queue_wait_ms", |q| quantiles_ms(q, queue_wait))
                .object("latency_ms", |l| quantiles_ms(l, latency))
                .fixed("service_mean_ms", ms(self.service_mean), 6)
                .raw_array("windows", &self.windows, WindowSnapshot::to_json)
                .object("events", |e| {
                    e.int("emitted", self.events_emitted)
                        .int("suppressed", self.events_suppressed)
                        .int("dropped", self.events_dropped)
                        .raw_array("tail", &self.event_tail, RecordedEvent::to_json);
                })
                .raw_array("precisions", &self.precisions, PrecisionSnapshot::to_json)
                .raw_array("shards", &self.shards, ShardSnapshot::to_json);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(1024), 10);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_samples() {
        let h = LogHistogram::new();
        for us in 1..=1000u64 {
            h.record_ns(us * 1000);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99);
        // p50 of 1..=1000 µs is ~500 µs; bucket resolution is 2x.
        assert!(p50 >= Duration::from_micros(250) && p50 <= Duration::from_micros(1000));
        assert!(p99 >= Duration::from_micros(500) && p99 <= Duration::from_micros(2000));
        assert_eq!(h.mean(), Duration::from_nanos(500_500 * 1000 / 1000));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = std::sync::Arc::new(LogHistogram::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    h.record_ns((t + 1) * 1000 + i);
                }
            }));
        }
        for j in handles {
            j.join().expect("recorder");
        }
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn quantile_clamps_to_slowest_bucket_when_count_runs_ahead() {
        // Simulate the benign snapshot-vs-record race: `count` observes
        // one more sample than the bucket mass (all loads are relaxed).
        let h = LogHistogram::new();
        for us in [10u64, 20, 40] {
            h.record(Duration::from_micros(us));
        }
        h.count.fetch_add(1, Ordering::Relaxed);
        let p99 = h.quantile(0.99);
        assert!(
            p99 <= Duration::from_micros(80),
            "must clamp to the slowest recorded bucket, not the ~8.6 s sentinel (got {p99:?})"
        );
        assert!(p99 >= Duration::from_micros(20));
    }

    #[test]
    fn merge_from_folds_counts_buckets_and_totals() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for us in [1u64, 10, 100] {
            a.record(Duration::from_micros(us));
        }
        for us in [5u64, 50, 500, 5000] {
            b.record(Duration::from_micros(us));
        }
        let merged = LogHistogram::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.count(), 7);
        // Exact mean survives the merge: total_ns adds up.
        let want_ns = (1 + 10 + 100 + 5 + 50 + 500 + 5000) * 1000 / 7;
        assert_eq!(merged.mean(), Duration::from_nanos(want_ns));
        // Quantiles of the merged histogram bracket the pooled samples.
        let p50 = merged.quantile(0.5);
        assert!(p50 >= Duration::from_micros(25) && p50 <= Duration::from_micros(100));
        // Merging an empty histogram is a no-op.
        merged.merge_from(&LogHistogram::new());
        assert_eq!(merged.count(), 7);
    }

    #[test]
    fn snapshot_and_json_are_consistent() {
        let m = ServerMetrics::new(1);
        m.submitted.add(10);
        m.rejected.inc();
        let shard = m.shard(0);
        for _ in 0..3 {
            shard.record_batch(Precision::F32, 3);
        }
        for i in 1..=9u64 {
            shard.queue_wait.record(Duration::from_micros(i * 10));
            let latency = Duration::from_micros(i * 100);
            shard.record(Precision::F32, Outcome::Completed(latency));
        }
        let snap = m.snapshot();
        assert_eq!(snap.submitted, 10);
        assert_eq!(snap.completed, 9);
        assert_eq!(snap.rejected, 1);
        assert!((snap.mean_batch - 3.0).abs() < 1e-9);
        assert!(snap.latency_p50 >= snap.queue_wait_p50);
        assert_eq!(snap.shards.len(), 1);
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"completed\":9"));
        assert!(json.contains("\"latency_ms\""));
        assert!(json.contains("\"shards\":[{\"shard\":0"));
        let rendered = format!("{snap}");
        assert!(rendered.contains("p99"));
    }

    #[test]
    fn sharded_snapshot_merges_and_keeps_per_shard_breakdown() {
        let m = ServerMetrics::new(3);
        m.submitted.add(30);
        for (i, per_shard) in [10u64, 15, 5].into_iter().enumerate() {
            let shard = m.shard(i);
            for _ in 0..per_shard / 5 {
                shard.record_batch(Precision::F32, 5);
            }
            for k in 0..per_shard {
                // Distinct latency scales per shard so the merged
                // percentiles provably pool all three.
                let latency = Duration::from_micros(10u64.pow(i as u32 + 1) + k);
                shard.record(Precision::F32, Outcome::Completed(latency));
            }
        }
        let snap = m.snapshot();
        assert_eq!(snap.completed, 30);
        assert_eq!(snap.shards.len(), 3);
        assert_eq!(snap.shards[1].completed, 15);
        assert_eq!(snap.shards[2].shard, 2);
        // The merged p99 reflects the slowest shard's scale (~1 ms),
        // which no single fast shard would report.
        assert!(snap.latency_p99 >= Duration::from_micros(500));
        assert!(snap.shards[0].latency_p99 <= Duration::from_micros(50));
        let display = format!("{snap}");
        assert!(display.contains("shard 2:"));
        assert!(snap.to_json().contains("\"shard\":2"));
    }

    #[test]
    fn gauges_clamp_and_land_in_snapshot() {
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // racing dec past zero must not wrap
        assert_eq!(g.get(), 0);
        g.set(7);
        assert_eq!(g.get(), 7);

        let m = ServerMetrics::new(2);
        m.queue_depth.set(5);
        m.shard(0).inflight_batches.inc();
        m.shard(1).inflight_batches.inc();
        m.shard(1).inflight_batches.inc();
        let snap = m.snapshot();
        assert_eq!(snap.queue_depth, 5);
        assert_eq!(snap.inflight_batches, 3);
        assert_eq!(snap.shards[1].inflight_batches, 2);
        assert!(format!("{snap}").contains("queue depth 5, 3 batches in flight"));
        assert!(snap.to_json().contains("\"queue_depth\":5"));
        assert!(snap.to_json().contains("\"inflight_batches\":3"));
    }

    /// A line-level validator of the Prometheus text exposition format:
    /// every non-comment line must be `name{labels} value` (or bare
    /// `name value`) with a parseable float value, and every sample
    /// must be preceded by HELP/TYPE metadata for its metric family.
    fn validate_prometheus(text: &str) {
        let mut typed: Vec<String> = Vec::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                let mut parts = rest.splitn(3, ' ');
                let kw = parts.next().unwrap();
                let name = parts.next().unwrap_or_default();
                assert!(kw == "HELP" || kw == "TYPE", "bad comment line: {line}");
                assert!(!name.is_empty(), "metadata without a metric name: {line}");
                if kw == "TYPE" {
                    typed.push(name.to_string());
                }
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value in: {line}"
            );
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in: {line}"
            );
            if let Some(labels) = series
                .strip_prefix(name)
                .and_then(|l| l.strip_prefix('{'))
                .map(|l| l.strip_suffix('}').expect("labels close"))
            {
                for pair in labels.split(',') {
                    let (k, v) = pair.split_once('=').expect("label is key=value");
                    assert!(!k.is_empty() && v.starts_with('"') && v.ends_with('"'));
                }
            }
            assert!(
                typed.iter().any(|t| {
                    name == t
                        || ["_bucket", "_sum", "_count"]
                            .iter()
                            .any(|sfx| name == format!("{t}{sfx}"))
                }),
                "sample without TYPE metadata: {line}"
            );
        }
    }

    #[test]
    fn prometheus_rendering_is_well_formed_and_cumulative() {
        let m = ServerMetrics::new(2);
        m.submitted.add(20);
        m.rejected.add(2);
        m.queue_depth.set(3);
        for (i, n) in [12u64, 6].into_iter().enumerate() {
            let s = m.shard(i);
            for _ in 0..n / 3 {
                s.record_batch(Precision::F32, 3);
            }
            for k in 0..n {
                let latency = Duration::from_micros(100 + 40 * k);
                s.record(Precision::F32, Outcome::Completed(latency));
                s.queue_wait.record(Duration::from_micros(10 + k));
                s.service.record(Duration::from_micros(50));
            }
        }
        let text = m.render_prometheus();
        validate_prometheus(&text);
        assert!(text.contains("pcnn_requests_submitted_total 20"));
        assert!(text.contains("pcnn_requests_completed_total{shard=\"0\"} 12"));
        assert!(text.contains("pcnn_precision_completed_total{precision=\"f32\"} 18"));
        assert!(text.contains("pcnn_precision_completed_total{precision=\"int8\"} 0"));
        assert!(text.contains("pcnn_queue_depth 3"));
        // The histogram series is cumulative and self-consistent: the
        // +Inf bucket equals _count.
        let inf = text
            .lines()
            .find(|l| l.starts_with("pcnn_latency_seconds_bucket{shard=\"0\",le=\"+Inf\"}"))
            .expect("+Inf bucket rendered");
        assert!(inf.ends_with(" 12"));
        let count = text
            .lines()
            .find(|l| l.starts_with("pcnn_latency_seconds_count{shard=\"0\"}"))
            .expect("_count rendered");
        assert!(count.ends_with(" 12"));
        // Bucket counts never decrease as `le` grows.
        let mut last = 0u64;
        for l in text
            .lines()
            .filter(|l| l.starts_with("pcnn_latency_seconds_bucket{shard=\"1\""))
        {
            let v: u64 = l.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative buckets must be monotone: {l}");
            last = v;
        }
        assert_eq!(last, 6);
    }

    #[test]
    fn watermark_peeks_on_snapshot_and_resets_only_on_explicit_take() {
        let w = Watermark::default();
        w.observe(3);
        w.observe(9);
        w.observe(5); // lower observations never pull the mark down
        assert_eq!(w.peek(), 9);
        assert_eq!(w.peek(), 9, "peek does not consume");
        assert_eq!(w.take(), 9);
        assert_eq!(w.peek(), 0, "take resets for the next interval");

        let m = ServerMetrics::new(1);
        m.queue_depth_hwm.observe(17);
        m.queue_depth.set(2);
        let snap = m.snapshot();
        assert_eq!(snap.queue_depth_hwm, 17);
        assert_eq!(snap.queue_depth, 2);
        assert!(snap.to_json().contains("\"queue_depth_hwm\":17"));
        // Plain snapshots are observe-only: the spike survives...
        assert_eq!(m.snapshot().queue_depth_hwm, 17);
        // ...until the one explicit reset consumer drains it.
        assert_eq!(m.snapshot_and_reset().queue_depth_hwm, 17);
        assert_eq!(m.snapshot().queue_depth_hwm, 0);
    }

    #[test]
    fn concurrent_snapshot_readers_never_clobber_the_watermark() {
        // Regression for the reset-on-read race: when `snapshot`
        // drained the watermark, whichever of two concurrent readers
        // lost the race reported 0 and the spike was missed.
        let m = std::sync::Arc::new(ServerMetrics::new(1));
        m.queue_depth_hwm.observe(41);
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || m.snapshot().queue_depth_hwm)
            })
            .collect();
        for r in readers {
            assert_eq!(
                r.join().expect("snapshot reader"),
                41,
                "every observe-only snapshot must see the spike"
            );
        }
        // The Prometheus render is non-destructive too.
        assert!(m.render_prometheus().contains("pcnn_queue_depth_hwm 41"));
        assert_eq!(m.snapshot_and_reset().queue_depth_hwm, 41);
        assert_eq!(m.snapshot().queue_depth_hwm, 0);
    }

    #[test]
    fn events_land_in_snapshot_display_json_and_prometheus() {
        let m = ServerMetrics::new(1);
        m.events()
            .emit(EventCode::QueueFull, Severity::Warn, 256, 256);
        m.events().emit(EventCode::Shed, Severity::Info, 1, 3);
        let snap = m.snapshot();
        assert_eq!(snap.events_emitted, 2);
        assert_eq!(snap.events_dropped, 0);
        assert_eq!(snap.event_tail.len(), 2);
        assert_eq!(snap.event_tail[0].code, EventCode::QueueFull);
        let json = snap.to_json();
        assert!(json.contains("\"events\":{\"emitted\":2"));
        assert!(json.contains("\"code\":\"queue_full\""));
        let display = format!("{snap}");
        assert!(display.contains("events: 2 recorded"));
        assert!(display.contains("queue_full"));
        let text = m.render_prometheus();
        validate_prometheus(&text);
        assert!(text.contains("pcnn_events_total{code=\"queue_full\",severity=\"warn\"} 1"));
        assert!(text.contains("pcnn_events_total{code=\"shed\",severity=\"info\"} 1"));
        assert!(text.contains("pcnn_events_total{code=\"engine_fault\",severity=\"error\"} 0"));
        assert!(text.contains("pcnn_events_dropped_total 0"));
        assert!(text.contains("pcnn_events_suppressed_total 0"));
    }

    #[test]
    fn fraction_above_counts_only_slower_buckets() {
        let h = LogHistogram::new();
        assert_eq!(h.fraction_above(1_000), 0.0, "empty histogram");
        for us in [10u64, 10, 10, 100, 100, 1000, 10_000, 100_000] {
            h.record(Duration::from_micros(us));
        }
        // Everything is slower than 1 µs...
        assert_eq!(h.fraction_above(1_000), 1.0);
        // ...nothing is slower than the slowest bucket...
        assert_eq!(h.fraction_above(200_000_000), 0.0);
        // ...and a mid cutoff counts the strictly-slower buckets only:
        // 10 µs samples share the cutoff bucket, so 5 of 8 are above.
        assert!((h.fraction_above(10_000) - 5.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_traffic_lands_in_snapshot_and_prometheus() {
        let m = ServerMetrics::new(2);
        let completed = |ms| Outcome::Completed(Duration::from_millis(ms));
        for _ in 0..40 {
            m.shard(0).record(Precision::F32, completed(2));
        }
        for _ in 0..10 {
            m.shard(1).record(Precision::F32, completed(8));
        }
        m.shard(1).record(Precision::F32, Outcome::Failed);
        let snap = m.snapshot();
        assert_eq!(snap.windows.len(), WINDOWS.len());
        // Everything above happened "just now": the 1 s window holds it
        // all, and so do the larger nesting windows.
        for w in &snap.windows {
            assert_eq!(w.total.completed, 50, "window {:?}", w.window);
            assert_eq!(w.total.failed, 1);
            assert_eq!(w.shards.len(), 2);
            assert_eq!(w.shards[0].completed, 40);
            assert_eq!(w.shards[1].failed, 1);
            assert_eq!(w.precisions[Precision::F32.index()].completed, 50);
            assert_eq!(w.precisions[Precision::Int8.index()].completed, 0);
            // The pooled p99 reflects shard 1's slower scale.
            assert!(w.total.latency_p99 >= Duration::from_millis(4));
        }
        let json = snap.to_json();
        assert!(json.contains("\"windows\":[{\"window_s\":1.000"));
        assert!(json.contains("\"label\":\"shard-1\""));
        let text = m.render_prometheus();
        validate_prometheus(&text);
        assert!(text.contains("pcnn_window_completed{window=\"10s\"} 50"));
        assert!(text.contains("pcnn_window_latency_seconds{window=\"60s\",quantile=\"0.99\"}"));
        assert!(text.contains("pcnn_window_shard_throughput_rps{window=\"1s\",shard=\"1\"}"));
        assert!(text.contains(
            "pcnn_window_precision_latency_p99_seconds{window=\"1s\",precision=\"f32\"}"
        ));
        let display = format!("{snap}");
        assert!(display.contains("window   1s:"));
    }

    #[test]
    fn every_table_metric_reaches_prometheus_and_its_snapshot_json() {
        // One walk over the table: a declared metric can neither be
        // missing from the exposition nor from the JSON of the snapshot
        // that carries it.
        let m = ServerMetrics::new(1);
        let snap = m.snapshot();
        let text = m.render_prometheus();
        validate_prometheus(&text);
        let has = |json: &str, key: &str| json.contains(&format!("\"{key}\":"));
        for metric in &METRICS {
            let (name, help) = (metric.name, metric.help);
            let header = format!("# HELP {name} {help}\n# TYPE {name} ");
            assert_eq!(text.matches(&header).count(), 1, "{name}");
            let sample = format!("\n{name}");
            assert!(text.contains(&sample), "{name} renders no series");
        }
        for field in METRICS.iter().filter_map(|m| telemetry_field(&m.scope)) {
            assert!(has(&snap.to_json(), field.key), "{}", field.key);
        }
        for field in METRICS.iter().filter_map(|m| shard_field(&m.scope)) {
            assert!(has(&snap.shards[0].to_json(), field.key), "{}", field.key);
        }
        for field in METRICS.iter().filter_map(|m| precision_field(&m.scope)) {
            assert!(
                has(&snap.precisions[0].to_json(), field.key),
                "{}",
                field.key
            );
        }
        // JSON positions are a permutation per snapshot type: two rows
        // claiming one slot would reorder a frozen schema silently.
        fn is_permutation(mut at: Vec<u8>) -> bool {
            at.sort_unstable();
            at.iter().enumerate().all(|(i, &a)| a as usize == i)
        }
        assert!(is_permutation(
            METRICS
                .iter()
                .filter_map(|m| telemetry_field(&m.scope).map(|f| f.at))
                .collect()
        ));
        assert!(is_permutation(
            METRICS
                .iter()
                .filter_map(|m| shard_field(&m.scope).map(|f| f.at))
                .collect()
        ));
        assert!(is_permutation(
            METRICS
                .iter()
                .filter_map(|m| precision_field(&m.scope).map(|f| f.at))
                .collect()
        ));
    }

    #[test]
    fn readme_documents_every_table_metric() {
        // The README's Observability tables are the operator-facing
        // list of stable names; a family added to the table without a
        // README row (or renamed in one place only) fails here.
        let readme = include_str!("../../../README.md");
        for metric in &METRICS {
            assert!(
                readme.contains(&format!("`{}`", metric.name)),
                "README.md does not document {}",
                metric.name
            );
        }
    }

    #[test]
    fn per_precision_expired_and_cancelled_reach_the_exposition() {
        // Counted and in the JSON since deadlines/cancellation landed,
        // but missing from the hand-kept Prometheus list until the
        // table replaced it. Every outcome is recorded once, into its
        // precision's ledger; the shard series are derived from it.
        let m = ServerMetrics::new(2);
        let recorded = |shard: usize, p, outcome, n| {
            for _ in 0..n {
                m.shard(shard).record(p, outcome);
            }
        };
        let done = Outcome::Completed(Duration::from_micros(300));
        recorded(0, Precision::F32, done, 7);
        recorded(0, Precision::Int8, Outcome::Expired, 2);
        recorded(1, Precision::Int8, Outcome::Expired, 3);
        recorded(1, Precision::F32, Outcome::Cancelled, 4);
        recorded(1, Precision::Int8, done, 5);
        recorded(0, Precision::Int8, Outcome::Failed, 1);
        recorded(1, Precision::F32, Outcome::Aborted, 6);
        let text = m.render_prometheus();
        assert!(text.contains("pcnn_precision_expired_total{precision=\"int8\"} 5\n"));
        assert!(text.contains("pcnn_precision_expired_total{precision=\"f32\"} 0\n"));
        assert!(text.contains("pcnn_precision_cancelled_total{precision=\"f32\"} 4\n"));
        let snap = m.snapshot();
        assert_eq!(snap.precisions[Precision::Int8.index()].expired, 5);
        assert_eq!(snap.precisions[Precision::F32.index()].cancelled, 4);
        // Expired is a window failure, cancelled lands in no window.
        for w in &snap.windows {
            assert_eq!(w.total.completed, 12, "window {:?}", w.window);
            assert_eq!(w.total.failed, 1 + 5, "window {:?}", w.window);
            assert_eq!(w.total.aborted, 6, "window {:?}", w.window);
            assert_eq!(w.shards[1].failed, 3);
            assert_eq!(w.precisions[Precision::F32.index()].failed, 0);
        }
        // Shard series and precision series are two views of one
        // ledger: they sum to the same totals, in the snapshot and in
        // the exposition.
        type Pick<S> = fn(&S) -> u64;
        #[rustfmt::skip]
        let outcomes: [(&str, &str, Pick<ShardSnapshot>, Pick<PrecisionSnapshot>); 5] = [
            ("completed", "pcnn_requests_completed_total", |s| s.completed, |p| p.completed),
            ("failed", "pcnn_requests_failed_total", |s| s.failed, |p| p.failed),
            ("aborted", "pcnn_requests_aborted_total", |s| s.aborted, |p| p.aborted),
            ("expired", "pcnn_deadline_exceeded_total", |s| s.expired, |p| p.expired),
            ("cancelled", "pcnn_requests_cancelled_total", |s| s.cancelled, |p| p.cancelled),
        ];
        let series_sum = |family: &str| -> u64 {
            text.lines()
                .filter(|l| l.starts_with(&format!("{family}{{")))
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        for (name, shard_family, shard, precision) in outcomes {
            let by_shard: u64 = snap.shards.iter().map(shard).sum();
            let by_precision: u64 = snap.precisions.iter().map(precision).sum();
            assert_eq!(by_shard, by_precision, "{name}");
            assert_eq!(series_sum(shard_family), by_shard, "{shard_family}");
            let precision_family = format!("pcnn_precision_{name}_total");
            assert_eq!(series_sum(&precision_family), by_shard, "{name}");
        }
        assert_eq!(snap.completed, 12);
        assert_eq!(snap.expired, 5);
    }

    #[test]
    fn merged_window_pools_shards_for_burn_evaluation() {
        let m = ServerMetrics::new(2);
        let completed = Outcome::Completed(Duration::from_millis(1));
        for _ in 0..30 {
            m.shard(0).record(Precision::F32, completed);
            m.shard(1).record(Precision::F32, completed);
        }
        m.shard(0).record(Precision::F32, Outcome::Failed);
        m.shard(1).record(Precision::F32, Outcome::Aborted);
        let (hist, completed, failed, aborted) =
            m.merged_window(m.now_ns(), Duration::from_secs(10));
        assert_eq!(completed, 60);
        assert_eq!(failed, 1);
        assert_eq!(aborted, 1);
        assert_eq!(hist.count(), 60);
        // A read far past every bucket sees an empty window.
        let far = m.now_ns() + 600 * 1_000_000_000;
        let (hist, c, f, a) = m.merged_window(far, Duration::from_secs(10));
        assert_eq!((c, f, a), (0, 0, 0));
        assert_eq!(hist.count(), 0);
    }
}
