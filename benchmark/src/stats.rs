//! Exact order statistics over the benchmark's own per-operation
//! timings, and the window protocol built on them.
//!
//! Every latency figure the benchmark prints comes from sorted
//! `Instant` differences — never from `serve`'s `LogHistogram`, whose
//! power-of-two buckets put p50, p95 and p99 on one bucket edge.
//!
//! # Why the quietest tenth
//!
//! A run is cut into short windows. On the shared 2-core sandbox this
//! was written on, co-tenant interference arrives in phases of seconds
//! and slows a window by up to 1.7×; it never speeds one up. Medians
//! over ten 2-s windows moved 11–33 % between ten identical runs in a
//! noisy hour. The end-to-end figures therefore pool the quietest tenth
//! of the windows (ranked by mean latency) and read throughput, p50 and
//! p90 from that pool: the same ten runs then agreed within 1–3 % on
//! throughput and p50 of the closed loops (see the README for every
//! spread). The plain median-of-windows figures are still computed and
//! reported per layer, so a change that stalls some windows and spares
//! others shows there.

/// Share of the windows the end-to-end figures pool: the quietest
/// `1 / QUIET_SHARE`, rounded up.
pub const QUIET_SHARE: usize = 10;

/// What completed in one window.
#[derive(Debug, Clone, Default)]
struct Window {
    /// Latency of each completion, nanoseconds (saturating at 4.29 s).
    latency_ns: Vec<u32>,
    /// Operations those completions carried (8 per batch-of-8 call).
    ops: u64,
    /// Time of the last completion, nanoseconds since the run began.
    last_end_ns: u64,
}

/// Completions of a timed run, bucketed into consecutive windows by
/// completion time. Four bytes per completion, so the recorder's own
/// memory stays a small part of `peak_rss_mb` whatever the throughput.
#[derive(Debug, Clone)]
pub struct Windows {
    window_ns: u64,
    wins: Vec<Window>,
}

/// Figures reduced from a set of windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reduced {
    /// Operations per second.
    pub rate: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Latency samples behind the percentiles (for the quiet reduction,
    /// the pooled count; for the typical one, the fewest in a window).
    pub samples: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `q` of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`], reading 0 for an empty sample.
pub fn percentile_or_zero(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, q)
    }
}

/// Median of an unsorted sample (mean of the two middle elements for an
/// even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn sorted_ms(latency_ns: impl Iterator<Item = u32>) -> Vec<f64> {
    let mut ms: Vec<f64> = latency_ns.map(|ns| f64::from(ns) / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

impl Windows {
    pub fn new(window_ns: u64, windows: usize) -> Self {
        Windows {
            window_ns,
            wins: vec![Window::default(); windows],
        }
    }

    /// Records one completion at `end_ns` in the window it completed in.
    /// Completions after the last window are dropped: the run was over.
    pub fn record(&mut self, end_ns: u64, latency_ns: u64, ops: u32) {
        self.record_at(end_ns, end_ns, latency_ns, ops);
    }

    /// Records one completion at `end_ns` in the window holding
    /// `bucket_ns`. The open loop buckets by **due** time, so a window
    /// holds whole schedule blocks however late their requests finish.
    pub fn record_at(&mut self, bucket_ns: u64, end_ns: u64, latency_ns: u64, ops: u32) {
        if let Some(w) = self.wins.get_mut((bucket_ns / self.window_ns) as usize) {
            w.latency_ns
                .push(u32::try_from(latency_ns).unwrap_or(u32::MAX));
            w.ops += u64::from(ops);
            w.last_end_ns = w.last_end_ns.max(end_ns);
        }
    }

    /// Latency samples recorded.
    #[cfg(test)]
    pub fn samples(&self) -> usize {
        self.wins.iter().map(|w| w.latency_ns.len()).sum()
    }

    /// Operations completed inside the windows.
    #[cfg(test)]
    pub fn completed_ops(&self) -> u64 {
        self.wins.iter().map(|w| w.ops).sum()
    }

    /// Every recorded latency, ascending, in ms.
    pub fn all_latencies_ms(&self) -> Vec<f64> {
        sorted_ms(self.wins.iter().flat_map(|w| w.latency_ns.iter().copied()))
    }

    /// Seconds each window's operations took: from the previous
    /// completion (in any window) to the window's own last one. Snapping
    /// to completions keeps the rate of a slow workload from being
    /// quantised to whole operations per window.
    fn durations_s(&self) -> Vec<f64> {
        let mut prev = 0u64;
        self.wins
            .iter()
            .map(|w| {
                if w.latency_ns.is_empty() {
                    return 0.0;
                }
                let d = w.last_end_ns.saturating_sub(prev);
                prev = w.last_end_ns;
                d as f64 / 1e9
            })
            .collect()
    }

    /// The end-to-end reduction: of the windows `pick` selects, pool the
    /// quietest tenth (lowest mean latency; empty windows are never
    /// quiet) and read rate, p50 and p90 from the pool. `None` when no
    /// selected window holds a sample.
    pub fn quiet(&self, pick: impl Fn(usize) -> bool) -> Option<Reduced> {
        let durations = self.durations_s();
        let mut ranked: Vec<(f64, usize)> = self
            .wins
            .iter()
            .enumerate()
            .filter(|(i, w)| pick(*i) && !w.latency_ns.is_empty())
            .map(|(i, w)| {
                let sum: f64 = w.latency_ns.iter().map(|&ns| f64::from(ns)).sum();
                (sum / w.latency_ns.len() as f64, i)
            })
            .collect();
        if ranked.is_empty() {
            return None;
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let selected = (0..self.wins.len()).filter(|i| pick(*i)).count();
        ranked.truncate(selected.div_ceil(QUIET_SHARE).max(1));
        let pool = sorted_ms(
            ranked
                .iter()
                .flat_map(|(_, i)| self.wins[*i].latency_ns.iter().copied()),
        );
        let ops: u64 = ranked.iter().map(|(_, i)| self.wins[*i].ops).sum();
        let seconds: f64 = ranked.iter().map(|(_, i)| durations[*i]).sum();
        Some(Reduced {
            rate: if seconds > 0.0 {
                ops as f64 / seconds
            } else {
                0.0
            },
            p50_ms: percentile(&pool, 0.5),
            p90_ms: percentile(&pool, 0.9),
            samples: pool.len(),
        })
    }

    /// The plain protocol, kept as a diagnostic: medians over the
    /// selected windows of per-window rate, p50 and p90. A window
    /// nothing completed in counts as rate 0, so a stall shows.
    pub fn typical(&self, pick: impl Fn(usize) -> bool) -> Option<Reduced> {
        let durations = self.durations_s();
        let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
        let mut fewest = usize::MAX;
        for (i, w) in self.wins.iter().enumerate().filter(|(i, _)| pick(*i)) {
            fewest = fewest.min(w.latency_ns.len());
            if w.latency_ns.is_empty() {
                rates.push(0.0);
                continue;
            }
            let ms = sorted_ms(w.latency_ns.iter().copied());
            rates.push(w.ops as f64 / durations[i]);
            p50s.push(percentile(&ms, 0.5));
            p90s.push(percentile(&ms, 0.9));
        }
        if p50s.is_empty() {
            return None;
        }
        Some(Reduced {
            rate: median(&rates),
            p50_ms: median(&p50s),
            p90_ms: median(&p90s),
            samples: fewest,
        })
    }

    /// Per-window `(rate, p50_ms, samples)` for the result file.
    pub fn per_window(&self) -> Vec<Option<(f64, f64, usize)>> {
        let durations = self.durations_s();
        self.wins
            .iter()
            .zip(durations)
            .map(|(w, d)| {
                if w.latency_ns.is_empty() {
                    return None;
                }
                let ms = sorted_ms(w.latency_ns.iter().copied());
                Some((w.ops as f64 / d, percentile(&ms, 0.5), ms.len()))
            })
            .collect()
    }
}

/// `|a − b|` as a share of `a` (the first run is the base).
pub fn relative_diff(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    const SEC: u64 = 1_000_000_000;
    const MS: u64 = 1_000_000;

    /// Twenty 1-s windows of ten completions each, one every 100 ms,
    /// two operations per completion. Window `w` has latency `lat(w)`.
    fn run(lat: impl Fn(u64) -> u64) -> Windows {
        let mut ws = Windows::new(SEC, 20);
        for w in 0..20u64 {
            for i in 1..=10u64 {
                ws.record(w * SEC + i * 100 * MS - 1, lat(w) * MS, 2);
            }
        }
        // A straggler past the last window is dropped.
        ws.record(20 * SEC + 5, 999 * MS, 2);
        ws
    }

    #[test]
    fn the_quiet_reduction_pools_the_quietest_tenth() {
        // Windows 3 and 11 are quiet (1 ms, 2 ms); the rest are slow.
        let ws = run(|w| match w {
            3 => 1,
            11 => 2,
            _ => 9,
        });
        assert_eq!(ws.samples(), 200);
        assert_eq!(ws.completed_ops(), 400);
        let q = ws.quiet(|_| true).unwrap();
        assert_eq!(q.samples, 20, "two of twenty windows, ten samples each");
        assert_eq!(q.p50_ms, 1.0);
        assert_eq!(q.p90_ms, 2.0);
        assert!(
            (q.rate - 20.0).abs() < 1e-6,
            "2 ops every 100 ms: {}",
            q.rate
        );
        // The plain protocol reads the slow majority.
        let t = ws.typical(|_| true).unwrap();
        assert_eq!((t.p50_ms, t.p90_ms, t.samples), (9.0, 9.0, 10));
        assert!((t.rate - 20.0).abs() < 1e-6);
    }

    #[test]
    fn picking_windows_restricts_both_the_pool_and_its_size() {
        let ws = run(|w| if w % 2 == 0 { 4 } else { 8 });
        let even = ws.quiet(|i| i % 2 == 0).unwrap();
        let odd = ws.quiet(|i| i % 2 == 1).unwrap();
        assert_eq!((even.p50_ms, odd.p50_ms), (4.0, 8.0));
        assert_eq!(even.samples, 10, "a tenth of ten windows is one window");
    }

    #[test]
    fn rates_snap_to_completions_not_window_edges() {
        // One completion every 0.7 s: windows hold one or two, but the
        // snapped rate is 1/0.7 in every window that holds any.
        let mut ws = Windows::new(SEC, 10);
        for i in 1..=14u64 {
            ws.record(i * 700 * MS, 700 * MS, 1);
        }
        for (rate, _, _) in ws.per_window().into_iter().flatten() {
            assert!((rate - 1.0 / 0.7).abs() < 1e-9, "{rate}");
        }
        assert!((ws.quiet(|_| true).unwrap().rate - 1.0 / 0.7).abs() < 1e-9);
    }

    #[test]
    fn an_empty_window_is_never_quiet_and_reads_as_rate_zero() {
        let mut ws = Windows::new(SEC, 3);
        ws.record(10, 5 * MS, 1);
        assert!(ws.per_window()[1].is_none());
        assert_eq!(ws.quiet(|_| true).unwrap().p50_ms, 5.0);
        let t = ws.typical(|_| true).unwrap();
        assert_eq!(t.rate, 0.0, "two of three windows were silent");
        assert_eq!(t.samples, 0);
        assert!(ws.quiet(|i| i > 0).is_none());
        assert!(ws.typical(|i| i > 0).is_none());
    }

    #[test]
    fn huge_latencies_saturate_instead_of_wrapping() {
        let mut ws = Windows::new(SEC, 1);
        ws.record(1, 10 * SEC, 1);
        assert_eq!(ws.all_latencies_ms(), vec![f64::from(u32::MAX) / 1e6]);
    }

    #[test]
    fn relative_diff_uses_the_first_run_as_base() {
        assert_eq!(relative_diff(10.0, 11.0), 0.1);
        assert_eq!(relative_diff(0.0, 0.0), 0.0);
        assert!(relative_diff(0.0, 1.0).is_infinite());
    }
}
