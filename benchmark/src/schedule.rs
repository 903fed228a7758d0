//! The open loop's deterministic arrival schedule.
//!
//! Bursts of 1..=8 requests arrive on a fixed clock; every request of a
//! burst is due at the burst's tick. Sizes come in seeded permutations
//! of `1..=8`, so each block of eight bursts offers exactly 36 requests:
//! the mean rate is exact over a block and every window offers nearly
//! the same load, whichever seed is used. (A prototype with Poisson
//! arrivals moved p50 by 20 % between identical runs.)

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Requests in the largest burst; also the length of one block.
pub const MAX_BURST: u32 = 8;
/// Mean burst size of a permutation of `1..=MAX_BURST`.
pub const MEAN_BURST: f64 = (MAX_BURST as f64 + 1.0) / 2.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Due time, nanoseconds after the run starts.
    pub due_ns: u64,
    /// Requests due at that instant.
    pub size: u32,
}

/// Nanoseconds between bursts at `rate_rps` requests per second.
pub fn tick_ns(rate_rps: f64) -> u64 {
    (MEAN_BURST / rate_rps * 1e9).round() as u64
}

/// Every burst due in `[0, duration_ns)` at a mean of `rate_rps`.
///
/// # Panics
///
/// Panics unless `rate_rps` is positive and finite.
pub fn burst_schedule(seed: u64, rate_rps: f64, duration_ns: u64) -> Vec<Burst> {
    assert!(
        rate_rps.is_finite() && rate_rps > 0.0,
        "open-loop rate must be positive"
    );
    let tick = tick_ns(rate_rps);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut block: Vec<u32> = (1..=MAX_BURST).collect();
    let mut out = Vec::with_capacity((duration_ns / tick) as usize + 1);
    let mut k = 0u64;
    while k * tick < duration_ns {
        if k.is_multiple_of(u64::from(MAX_BURST)) {
            block.shuffle(&mut rng);
        }
        out.push(Burst {
            due_ns: k * tick,
            size: block[(k % u64::from(MAX_BURST)) as usize],
        });
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_other_seed_differs() {
        let a = burst_schedule(11, 200.0, 4_000_000_000);
        let b = burst_schedule(11, 200.0, 4_000_000_000);
        let c = burst_schedule(12, 200.0, 4_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Only the sizes are seeded: the clock is fixed.
        assert!(a.iter().zip(&c).all(|(x, y)| x.due_ns == y.due_ns));
    }

    #[test]
    fn mean_rate_is_the_requested_rate() {
        let secs = 18u64; // 800 ticks of 22.5 ms: a whole number of blocks
        let s = burst_schedule(5, 200.0, secs * 1_000_000_000);
        assert_eq!(s.len(), 800);
        let total: u64 = s.iter().map(|b| u64::from(b.size)).sum();
        assert_eq!(total, 200 * secs);
        assert!(s.iter().all(|b| (1..=MAX_BURST).contains(&b.size)));
        assert!(s
            .windows(2)
            .all(|w| w[1].due_ns - w[0].due_ns == 22_500_000));
    }

    #[test]
    fn every_block_is_a_permutation() {
        let s = burst_schedule(99, 300.0, 3_000_000_000);
        for block in s.chunks_exact(MAX_BURST as usize) {
            let mut sizes: Vec<u32> = block.iter().map(|b| b.size).collect();
            sizes.sort_unstable();
            assert_eq!(sizes, (1..=MAX_BURST).collect::<Vec<_>>());
        }
    }
}
