//! A counting global allocator for the benchmark binary.
//!
//! Disarmed it costs one relaxed flag load per allocation; armed it
//! counts calls and requested bytes process-wide. It feeds
//! `runtime.allocs_per_image` (armed around `ExecutableGraph::run` on
//! the caller thread while every pool is idle, so the count is exact)
//! and `serve.allocs_per_request` (armed across a serving window, so
//! approximate: client, batcher and engine threads all count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters.
pub struct CountingAlloc;

#[inline]
fn note(size: usize) {
    // Relaxed throughout: the counters are statistics that publish no
    // other data, and the flag only gates whether they move.
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and requested bytes seen while armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Runs `f` with the counters armed and returns what every thread of
/// the process allocated meanwhile. Not reentrant: one measurement at a
/// time.
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, AllocCounts) {
    let (calls0, bytes0) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    let counts = AllocCounts {
        calls: CALLS.load(Ordering::Relaxed) - calls0,
        bytes: BYTES.load(Ordering::Relaxed) - bytes0,
    };
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_counts_and_disarmed_does_not() {
        // Tests run on parallel threads and the counters are
        // process-wide, so only lower bounds are exact here.
        let (v, counts) = counting(|| std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(v.len(), 4096);
        assert!(counts.calls >= 1);
        assert!(counts.bytes >= 4096);
    }
}
