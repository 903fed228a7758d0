//! Rolling-window telemetry: rotating rings of time buckets over the
//! lock-free primitives of [`crate::metrics`].
//!
//! PR 6's counters and histograms are cumulative-since-start — great
//! for totals, useless for "what is p99 over the last 10 seconds". This
//! module adds the windowed view without giving up the wait-free
//! writer property: a [`WindowedHistogram`] (or [`WindowedCounter`]) is
//! a fixed ring of time buckets, each an ordinary [`LogHistogram`]
//! (resp. atomic counter) tagged with the absolute bucket index
//! (*epoch*) it currently holds. A write computes its bucket from the
//! sample's timestamp, claims the slot with **one** CAS when the slot
//! still carries a previous lap, and then records exactly like the
//! cumulative path — no locks, no retry loops, no allocation. All
//! merging, expiry, and quantile math happens on the read side:
//! a reader walks the slots covering the window and folds every slot
//! whose epoch tag proves it belongs to the window into a scratch
//! [`LogHistogram`].
//!
//! ## Geometry
//!
//! The default ring is 256 buckets of 250 ms — 64 s of history, enough
//! for the standard 1 s / 10 s / 60 s windows ([`WINDOWS`]) with 16
//! buckets of slack between the largest window and the wrap-around
//! point, so a reader is never chasing a slot that a concurrent writer
//! is lapping. Windows are *trailing* and rounded up to bucket
//! granularity: a 1 s window covers between 1.0 s and 1.25 s of wall
//! time depending on the rotation phase. That ±one-bucket fuzz is the
//! price of wait-free writers and is well inside the 2× resolution of
//! the log-bucketed histograms the windows are built from.
//!
//! ## Clocking
//!
//! Nothing in this module reads a clock. Every record and every read
//! takes an explicit `now_ns` — nanoseconds since the owner's epoch
//! (the server uses [`crate::metrics::ServerMetrics`]'s start instant,
//! shared by every shard so per-shard windows rotate in phase). That
//! makes rotation edge cases — expiry across idle gaps, snapshots taken
//! mid-rotation, merges of rings with skewed phases — deterministic
//! unit-test territory instead of sleep-and-hope territory.
//!
//! ## Rotation races
//!
//! When two writers land in a slot at the instant its bucket goes
//! stale, both see the old epoch and both try the claiming CAS; the
//! winner zeroes the slot, the loser just records into the freshly
//! claimed bucket. A sample recorded between the winner's CAS and its
//! zeroing stores can be wiped — a bounded, rotation-instant-only loss,
//! the same order of fuzz as the relaxed-atomic races the cumulative
//! histograms already accept. Writers never wait and never loop.

use crate::metrics::{quantiles_ms, LogHistogram};
use pcnn_runtime::json;
use pcnn_sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The standard rolling windows every snapshot reports, smallest first.
pub const WINDOWS: [Duration; 3] = [
    Duration::from_secs(1),
    Duration::from_secs(10),
    Duration::from_secs(60),
];

/// Width of one time bucket in the default ring geometry.
pub(crate) const BUCKET_WIDTH_NS: u64 = 250_000_000;

/// Slots in the default ring: 64 s of history for a 60 s max window.
pub(crate) const RING_SLOTS: usize = 256;

/// Epoch tag for bucket index `abs` (0 is the never-written sentinel).
#[inline]
fn tag_of(abs: u64) -> u64 {
    abs + 1
}

/// Claims `slot_epoch` for bucket `abs` if it still carries an older
/// lap. Returns `true` when the caller should record into the slot
/// (it is current, or was just claimed by us or a racing writer for
/// the same bucket), `false` when the sample must be dropped (the slot
/// already belongs to a *newer* bucket — the writer's timestamp is a
/// full ring behind, only possible with a wildly stale `now_ns`).
/// The winner of the claiming CAS must zero the slot's payload.
///
/// Because the epoch tag and the payload live in separate cells, a
/// `Current` racer can deposit into the payload between the winner's
/// claiming CAS and its zeroing — and be swept away. That loss is
/// bounded to samples in flight at a single rotation instant, which
/// the histogram ring accepts for latency statistics. The counter
/// ring, where exact counts matter, does NOT use this helper: its
/// [`EpochCell`]s pack tag and count into one word precisely to close
/// that window (the model checker's rotation test exposes it otherwise).
fn claim(slot_epoch: &AtomicU64, abs: u64) -> Claim {
    let tag = tag_of(abs);
    let cur = slot_epoch.load(Ordering::Acquire);
    if cur == tag {
        return Claim::Current;
    }
    if cur > tag {
        return Claim::Stale;
    }
    match slot_epoch.compare_exchange(cur, tag, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => Claim::Won,
        // Somebody else rotated the slot; record only if they rotated
        // it to *our* bucket.
        Err(now) if now == tag => Claim::Current,
        Err(_) => Claim::Stale,
    }
}

enum Claim {
    /// The slot already holds our bucket.
    Current,
    /// We claimed the slot; zero the payload before recording.
    Won,
    /// The slot belongs to a different bucket; drop the sample.
    Stale,
}

/// Bits of a packed [`EpochCell`] word holding the count; the epoch's
/// (truncated) tag occupies the rest.
const COUNT_BITS: u32 = 32;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;

/// One `tag << 32 | count` word: a count that belongs to one epoch (a
/// time bucket, a rate-limit window) and restarts when a newer epoch
/// arrives. Both users — [`WindowedCounter`]'s slots and the event
/// journal's per-code rate limiter — need the same guarantee: the
/// rotation to a new epoch *and* the rotating writer's deposit happen
/// in one CAS, so a concurrent depositor either observes the new tag
/// (and folds its own count in) or loses the race and retries against
/// the updated word. An earlier two-cell scheme (separate epoch + value
/// atomics, as the histogram ring still uses for its multi-word
/// payload) had a lost-update window between the winner's epoch CAS and
/// its zeroing store; the model checker's rotation tests expose it.
///
/// The tag is `epoch + 1` truncated to 32 bits and compared with
/// serial-number arithmetic: epochs 2^32 apart alias (34 years of
/// 250 ms buckets), an epoch more than 2^31 ahead of the cell's reads
/// as stale, and the all-zero initial word matches no epoch.
#[derive(Debug, Default)]
pub(crate) struct EpochCell(AtomicU64);

impl EpochCell {
    fn tag_of(epoch: u64) -> u64 {
        tag_of(epoch) & COUNT_MASK
    }

    /// Adds `n` to `epoch`'s count, clamped at `cap` (at most
    /// 2^32 − 1). Returns `false` — leaving the word untouched — when
    /// the count already sits at `cap`, or when the cell has moved on
    /// to a newer epoch (a stale stamp must not reclaim it). One CAS
    /// when uncontended; retries only while racing another depositor.
    pub(crate) fn deposit(&self, epoch: u64, n: u64, cap: u64) -> bool {
        let tag = Self::tag_of(epoch);
        let cap = cap.min(COUNT_MASK);
        // ordering: Relaxed throughout — tag and count travel in one
        // word, so there is no cross-cell publication to order; the
        // CAS only has to be atomic, not a release point.
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let (cur_tag, count) = (cur >> COUNT_BITS, cur & COUNT_MASK);
            let next = if cur_tag == tag {
                if count >= cap {
                    return false;
                }
                (count + n).min(cap)
            } else if cur == 0 || (tag.wrapping_sub(cur_tag) & COUNT_MASK) < (1 << 31) {
                // Never written, or serial-number "newer": rotate the
                // cell to our epoch and deposit in the same word — the
                // step that must be indivisible for rotation to be
                // lossless.
                n.min(cap)
            } else {
                return false;
            };
            // ordering: Relaxed per the single-word protocol above.
            match self.0.compare_exchange_weak(
                cur,
                (tag << COUNT_BITS) | next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The count deposited for `epoch`, zero when the cell holds any
    /// other epoch.
    pub(crate) fn count_at(&self, epoch: u64) -> u64 {
        // ordering: Relaxed — one load reads tag and count together,
        // so a torn tag/count pair is impossible and nothing else is
        // published through this word.
        let word = self.0.load(Ordering::Relaxed);
        if word >> COUNT_BITS == Self::tag_of(epoch) {
            word & COUNT_MASK
        } else {
            0
        }
    }
}

/// A rolling event counter: a ring of time buckets, each one
/// `EpochCell` holding the bucket's event count, summed over a
/// trailing window on read.
#[derive(Debug)]
pub struct WindowedCounter {
    width_ns: u64,
    slots: Vec<EpochCell>,
}

impl Default for WindowedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowedCounter {
    /// A counter ring with the default geometry (250 ms × 256 buckets).
    pub fn new() -> Self {
        Self::with_geometry(BUCKET_WIDTH_NS, RING_SLOTS)
    }

    /// A counter ring with explicit bucket width and slot count — the
    /// test hook for exercising rotation without 60 s of wall time.
    pub fn with_geometry(width_ns: u64, slots: usize) -> Self {
        assert!(width_ns > 0 && slots > 1, "degenerate ring geometry");
        WindowedCounter {
            width_ns,
            slots: (0..slots).map(|_| EpochCell::default()).collect(),
        }
    }

    /// Adds `n` events at time `now_ns` (nanoseconds since the owner's
    /// epoch). Lock-free (`EpochCell::deposit`); per-bucket counts
    /// saturate at 2^32 − 1, and a sample stamped a full ring behind
    /// its slot's current bucket is dropped.
    pub fn add_at(&self, now_ns: u64, n: u64) {
        let abs = now_ns / self.width_ns;
        let i = (abs % self.slots.len() as u64) as usize;
        self.slots[i].deposit(abs, n, COUNT_MASK);
    }

    /// Sum of the events recorded in the trailing `window` ending at
    /// `now_ns`. Buckets older than the ring (idle gaps longer than the
    /// ring span) are naturally excluded by their stale epoch tags.
    pub fn sum_over(&self, now_ns: u64, window: Duration) -> u64 {
        let len = self.slots.len() as u64;
        let abs_now = now_ns / self.width_ns;
        let lo =
            now_ns.saturating_sub(window.as_nanos().min(u64::MAX as u128) as u64) / self.width_ns;
        let lo = lo.max(abs_now.saturating_sub(len - 1));
        (lo..=abs_now)
            .map(|abs| self.slots[(abs % len) as usize].count_at(abs))
            .sum()
    }
}

/// A rolling latency histogram: a ring of time buckets, each a
/// [`LogHistogram`], merged over a trailing window on read.
#[derive(Debug)]
pub struct WindowedHistogram {
    width_ns: u64,
    epochs: Vec<AtomicU64>,
    hists: Vec<LogHistogram>,
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowedHistogram {
    /// A histogram ring with the default geometry (250 ms × 256 buckets).
    pub fn new() -> Self {
        Self::with_geometry(BUCKET_WIDTH_NS, RING_SLOTS)
    }

    /// A histogram ring with explicit bucket width and slot count.
    pub fn with_geometry(width_ns: u64, slots: usize) -> Self {
        assert!(width_ns > 0 && slots > 1, "degenerate ring geometry");
        WindowedHistogram {
            width_ns,
            epochs: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..slots).map(|_| LogHistogram::new()).collect(),
        }
    }

    /// Records one sample of `ns` nanoseconds at time `now_ns`.
    /// Wait-free: at most one CAS plus the plain histogram increments.
    /// A sample racing the rotation instant of its bucket can be swept
    /// by the rotating writer's clear — bounded, documented loss the
    /// latency statistics accept (see [`claim`]).
    pub fn record_at(&self, now_ns: u64, ns: u64) {
        let abs = now_ns / self.width_ns;
        let i = (abs % self.epochs.len() as u64) as usize;
        match claim(&self.epochs[i], abs) {
            Claim::Won => {
                self.hists[i].clear();
                self.hists[i].record_ns(ns);
            }
            Claim::Current => self.hists[i].record_ns(ns),
            Claim::Stale => {}
        }
    }

    /// Folds every bucket of the trailing `window` ending at `now_ns`
    /// into `into`. Callers merge several rings (shards with skewed
    /// rotation phases, precisions) into one scratch histogram and read
    /// quantiles off that.
    pub fn merge_over(&self, now_ns: u64, window: Duration, into: &LogHistogram) {
        let len = self.epochs.len() as u64;
        let abs_now = now_ns / self.width_ns;
        let lo =
            now_ns.saturating_sub(window.as_nanos().min(u64::MAX as u128) as u64) / self.width_ns;
        let lo = lo.max(abs_now.saturating_sub(len - 1));
        for abs in lo..=abs_now {
            let i = (abs % len) as usize;
            if self.epochs[i].load(Ordering::Acquire) == tag_of(abs) {
                into.merge_from(&self.hists[i]);
            }
        }
    }
}

/// The windowed signals of one traffic class: rolling latency plus
/// rolling completion/failure/abort counts — enough to derive
/// throughput, error rate, abort rate, and tail quantiles over any
/// trailing window.
#[derive(Debug, Default)]
pub struct WindowSet {
    /// End-to-end latency of completed requests.
    pub latency: WindowedHistogram,
    /// Requests fulfilled with an output.
    pub completed: WindowedCounter,
    /// Requests failed by engine faults.
    pub failed: WindowedCounter,
    /// Requests aborted by shutdown.
    pub aborted: WindowedCounter,
}

impl WindowSet {
    /// A fresh set with the default ring geometry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completion and its end-to-end latency.
    pub fn on_completed(&self, now_ns: u64, latency_ns: u64) {
        self.latency.record_at(now_ns, latency_ns);
        self.completed.add_at(now_ns, 1);
    }

    /// Records one engine-fault failure.
    pub fn on_failed(&self, now_ns: u64) {
        self.failed.add_at(now_ns, 1);
    }

    /// Records one shutdown abort.
    pub fn on_aborted(&self, now_ns: u64) {
        self.aborted.add_at(now_ns, 1);
    }

    /// Folds this set's trailing `window` into `hist` and returns the
    /// `(completed, failed, aborted)` counts — the merge half used to
    /// pool several sets (per-shard, per-precision) into one reading.
    pub fn accumulate(
        &self,
        now_ns: u64,
        window: Duration,
        hist: &LogHistogram,
    ) -> (u64, u64, u64) {
        self.latency.merge_over(now_ns, window, hist);
        (
            self.completed.sum_over(now_ns, window),
            self.failed.sum_over(now_ns, window),
            self.aborted.sum_over(now_ns, window),
        )
    }
}

/// Pools `sets` over the trailing `window` ending at `now_ns` into one
/// merged latency histogram and one reading labelled `label` — how the
/// per-precision rings roll up into shard, precision and server views.
pub fn pool<'a>(
    sets: impl IntoIterator<Item = &'a WindowSet>,
    now_ns: u64,
    window: Duration,
    label: &str,
) -> (LogHistogram, WindowStats) {
    let hist = LogHistogram::new();
    let (mut c, mut f, mut a) = (0u64, 0u64, 0u64);
    for set in sets {
        let (sc, sf, sa) = set.accumulate(now_ns, window, &hist);
        c += sc;
        f += sf;
        a += sa;
    }
    let stats = WindowStats::compute(label.to_string(), window, &hist, c, f, a);
    (hist, stats)
}

/// Derived statistics of one traffic class over one trailing window.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// What was pooled: `"total"`, `"shard-<i>"`, or a precision label.
    pub label: String,
    /// The trailing window these statistics cover.
    pub window: Duration,
    /// Requests completed inside the window.
    pub completed: u64,
    /// Requests failed by engine faults inside the window.
    pub failed: u64,
    /// Requests aborted by shutdown inside the window.
    pub aborted: u64,
    /// Completions per second of window.
    pub throughput_rps: f64,
    /// `failed / (completed + failed + aborted)`, zero when idle.
    pub error_rate: f64,
    /// `aborted / (completed + failed + aborted)`, zero when idle.
    pub abort_rate: f64,
    /// Median end-to-end latency inside the window.
    pub latency_p50: Duration,
    /// 95th-percentile end-to-end latency inside the window.
    pub latency_p95: Duration,
    /// 99th-percentile end-to-end latency inside the window.
    pub latency_p99: Duration,
    /// Mean end-to-end latency inside the window (exact).
    pub latency_mean: Duration,
}

impl WindowStats {
    /// Derives the rates and quantiles from pooled counts and a pooled
    /// histogram.
    pub fn compute(
        label: String,
        window: Duration,
        hist: &LogHistogram,
        completed: u64,
        failed: u64,
        aborted: u64,
    ) -> Self {
        let attempts = completed + failed + aborted;
        let rate = |n: u64| {
            if attempts == 0 {
                0.0
            } else {
                n as f64 / attempts as f64
            }
        };
        WindowStats {
            label,
            window,
            completed,
            failed,
            aborted,
            throughput_rps: if window.is_zero() {
                0.0
            } else {
                completed as f64 / window.as_secs_f64()
            },
            error_rate: rate(failed),
            abort_rate: rate(aborted),
            latency_p50: hist.quantile(0.50),
            latency_p95: hist.quantile(0.95),
            latency_p99: hist.quantile(0.99),
            latency_mean: hist.mean(),
        }
    }

    /// Renders the reading as a flat JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("label", &self.label)
                .int("completed", self.completed)
                .int("failed", self.failed)
                .int("aborted", self.aborted)
                .fixed("throughput_rps", self.throughput_rps, 3)
                .fixed("error_rate", self.error_rate, 6)
                .fixed("abort_rate", self.abort_rate, 6)
                .object("latency_ms", |l| {
                    let latency = [
                        self.latency_p50,
                        self.latency_p95,
                        self.latency_p99,
                        self.latency_mean,
                    ];
                    quantiles_ms(l, latency)
                });
        })
    }
}

/// One trailing window of a [`crate::TelemetrySnapshot`]: the pooled
/// server-wide reading plus the per-shard and per-precision breakdowns.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// The trailing window this snapshot covers.
    pub window: Duration,
    /// Every shard and precision pooled.
    pub total: WindowStats,
    /// One entry per shard, in shard order.
    pub shards: Vec<WindowStats>,
    /// One entry per precision, in `Precision::ALL` order.
    pub precisions: Vec<WindowStats>,
}

impl WindowSnapshot {
    /// Renders this window (total + breakdowns) as a JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.fixed("window_s", self.window.as_secs_f64(), 3)
                .raw("total", &self.total.to_json())
                .raw_array("shards", &self.shards, WindowStats::to_json)
                .raw_array("precisions", &self.precisions, WindowStats::to_json);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 1_000_000; // 1 ms buckets for fast deterministic tests
    const SEC: u64 = 1_000_000_000;

    #[test]
    fn counter_sums_only_the_trailing_window() {
        let c = WindowedCounter::with_geometry(W, 16);
        // One event per bucket for 8 buckets.
        for b in 0..8u64 {
            c.add_at(b * W, 1);
        }
        let now = 7 * W; // inside bucket 7
        assert_eq!(c.sum_over(now, Duration::from_nanos(8 * W)), 8);
        // A 3 ms window ending in bucket 7 covers buckets 4..=7 (the
        // oldest is partial — trailing windows round up to bucket
        // granularity).
        assert_eq!(c.sum_over(now, Duration::from_nanos(3 * W)), 4);
        assert_eq!(c.sum_over(now, Duration::ZERO), 1);
    }

    #[test]
    fn buckets_expire_across_idle_gaps() {
        let c = WindowedCounter::with_geometry(W, 16);
        c.add_at(0, 5);
        assert_eq!(c.sum_over(0, Duration::from_nanos(W)), 5);
        // An idle gap much longer than the ring: the old bucket's epoch
        // tag no longer matches any bucket in range, so reads at the
        // far side see nothing — without any background sweeper.
        let later = 100 * 16 * W;
        assert_eq!(c.sum_over(later, Duration::from_nanos(4 * W)), 0);
        // Writing after the gap reclaims the slot for the new lap.
        c.add_at(later, 3);
        assert_eq!(c.sum_over(later, Duration::from_nanos(4 * W)), 3);
        // And the pre-gap reading is gone for good (its slot was
        // recycled or out-tagged).
        assert_eq!(c.sum_over(later, Duration::from_nanos(later)), 3);
    }

    #[test]
    fn lap_collision_reclaims_the_slot() {
        // Ring of 4: bucket 0 and bucket 4 share slot 0.
        let c = WindowedCounter::with_geometry(W, 4);
        c.add_at(0, 7);
        c.add_at(4 * W, 2); // same slot, next lap: must zero the 7
        assert_eq!(c.sum_over(4 * W, Duration::from_nanos(W)), 2);
        // A straggling write stamped with the *old* bucket is dropped,
        // not folded into the new lap.
        c.add_at(0, 100);
        assert_eq!(c.sum_over(4 * W, Duration::from_nanos(4 * W)), 2);
    }

    #[test]
    fn snapshot_mid_rotation_sees_both_buckets() {
        let h = WindowedHistogram::with_geometry(W, 16);
        // Samples land just before and just after a bucket boundary.
        h.record_at(2 * W - 1, 1_000);
        h.record_at(2 * W, 8_000);
        // A window straddling the boundary pools both...
        let pooled = LogHistogram::new();
        h.merge_over(2 * W, Duration::from_nanos(W), &pooled);
        assert_eq!(pooled.count(), 2);
        // ...while a zero-width window taken mid-rotation sees only the
        // current bucket.
        let current = LogHistogram::new();
        h.merge_over(2 * W, Duration::ZERO, &current);
        assert_eq!(current.count(), 1);
        assert!(current.mean() >= Duration::from_nanos(4_000));
    }

    #[test]
    fn skewed_shard_phases_merge_into_one_pooled_reading() {
        // Two "shards" whose traffic lands at different phases within
        // the same wall-clock window — the pooled merge must count all
        // of it exactly once, using one shared `now`.
        let a = WindowSet::default();
        let b = WindowSet::default();
        let now = 10 * SEC;
        for k in 0..50u64 {
            a.on_completed(now - k * 17 * W, 1_000); // every 17 ms
            b.on_completed(now - k * 23 * W - W / 2, 4_000); // every 23 ms, offset
        }
        b.on_failed(now - 3 * W);
        let pooled = LogHistogram::new();
        let window = Duration::from_secs(2);
        let (ca, fa, _) = a.accumulate(now, window, &pooled);
        let (cb, fb, _) = b.accumulate(now, window, &pooled);
        // 2 s / 17 ms ≈ 118 ticks capped at 50 samples each; exact
        // counts depend only on arithmetic, not timing.
        let expect_a = (0..50u64).filter(|k| k * 17 * W <= 2 * SEC).count() as u64;
        let expect_b = (0..50u64).filter(|k| k * 23 * W + W / 2 <= 2 * SEC).count() as u64;
        assert_eq!(ca, expect_a);
        assert_eq!(cb, expect_b);
        assert_eq!(fa + fb, 1);
        assert_eq!(pooled.count(), ca + cb);
        // The pooled quantiles span both shards' latency scales (the
        // log buckets report geometric midpoints, exact within 2x).
        assert!(pooled.quantile(0.99) >= Duration::from_nanos(2_000));
        assert!(pooled.quantile(0.01) <= Duration::from_nanos(2_000));
    }

    #[test]
    fn default_geometry_covers_the_standard_windows() {
        let h = WindowedHistogram::new();
        // 60 s of traffic at 4 samples per bucket width.
        let mut n = 0u64;
        let mut t = 0u64;
        while t < 60 * SEC {
            h.record_at(t, 1_000_000);
            n += 1;
            t += BUCKET_WIDTH_NS; // one sample per bucket
        }
        let pooled = LogHistogram::new();
        h.merge_over(t, WINDOWS[2], &pooled);
        assert_eq!(pooled.count(), n);
        let recent = LogHistogram::new();
        h.merge_over(t, WINDOWS[0], &recent);
        assert!(recent.count() >= 4 && recent.count() <= 6);
    }

    #[test]
    fn stats_derive_rates_and_quantiles() {
        let s = WindowSet::default();
        let now = 5 * SEC;
        // 90 completions at 2 ms spread over ~0.9 s, 9 failures spread
        // over the same second, 1 abort right now.
        for k in 0..90u64 {
            s.on_completed(now - k * 10 * W, 2_000_000);
        }
        for k in 0..9u64 {
            s.on_failed(now - k * 100 * W);
        }
        s.on_aborted(now);
        let stats = pool([&s], now, Duration::from_secs(1), "total").1;
        assert_eq!(stats.completed, 90);
        assert_eq!(stats.failed, 9);
        assert_eq!(stats.aborted, 1);
        assert!((stats.throughput_rps - 90.0).abs() < 1e-9);
        assert!((stats.error_rate - 0.09).abs() < 1e-9);
        assert!((stats.abort_rate - 0.01).abs() < 1e-9);
        // All samples were 2 ms; the log buckets report within 2x.
        assert!(stats.latency_p50 >= Duration::from_millis(1));
        assert!(stats.latency_p99 <= Duration::from_millis(4));
        assert_eq!(stats.latency_mean, Duration::from_millis(2));
        // A tiny window sees only the most recent slice.
        let recent = pool([&s], now, Duration::ZERO, "total").1;
        assert!(recent.completed < 90 && recent.completed >= 1);
    }

    #[test]
    fn empty_window_stats_are_all_zero() {
        let s = WindowSet::default();
        let stats = pool([&s], 42 * SEC, Duration::from_secs(10), "total").1;
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.error_rate, 0.0);
        assert_eq!(stats.abort_rate, 0.0);
        assert_eq!(stats.throughput_rps, 0.0);
        assert_eq!(stats.latency_p99, Duration::ZERO);
        let json = stats.to_json();
        assert!(json.contains("\"completed\":0"));
    }

    #[test]
    fn concurrent_writers_rotate_without_losing_whole_buckets() {
        use std::sync::Arc;
        let c = Arc::new(WindowedCounter::with_geometry(1_000, 8));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for t in 0..4_000u64 {
                    c.add_at(t * 2, 1); // sweeps every bucket many laps
                }
            }));
        }
        for h in handles {
            h.join().expect("writer");
        }
        // The final bucket (t near 8000) saw the tail of all 4 writers.
        // Rotation-instant losses are bounded; the last bucket alone
        // received 4 × 500 writes and must retain the vast majority.
        let last = c.sum_over(7_999, Duration::from_nanos(999));
        assert!(last > 0, "final bucket must not be empty");
    }
}
