//! Graceful shutdown: close the door, drain the hall, count heads.
//!
//! Shutdown is two queue-level facts plus one report. Closing the
//! bounded queue atomically (a) rejects every later `submit` with
//! [`crate::ServeError::ShuttingDown`] and (b) lets every shard's
//! batcher keep popping until the queue is empty, at which point each
//! loop exits on its own — there is no second drain code path that
//! could disagree with the serving one, and no per-shard shutdown
//! protocol because the shared queue *is* the protocol.
//! [`ShutdownMode::Abort`] additionally flips the batchers into
//! fail-fast: still-queued requests get their tickets fulfilled with
//! [`crate::ServeError::Aborted`] instead of an inference pass,
//! bounding shutdown time by one in-flight batch per shard.

use crate::metrics::PrecisionSnapshot;
use crate::trace::RecordedSpan;
use std::time::Duration;

/// What to do with requests still queued when shutdown begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Serve everything already admitted, then stop (default).
    Drain,
    /// Fail queued requests with [`crate::ServeError::Aborted`]; only
    /// the batch already inside the engine completes.
    Abort,
}

/// What shutdown did, assembled from the final metrics (summed across
/// every shard of a sharded server).
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Mode the shutdown ran under.
    pub mode: ShutdownMode,
    /// Requests completed over the server's whole lifetime.
    pub completed: u64,
    /// Requests failed with `Aborted` during shutdown.
    pub aborted: u64,
    /// Requests failed with `EngineFault` over the server's lifetime.
    pub failed: u64,
    /// Requests whose deadline elapsed before dispatch, over the
    /// server's lifetime.
    pub expired: u64,
    /// Requests cancelled by their clients over the server's lifetime.
    pub cancelled: u64,
    /// Submissions refused because shutdown had begun.
    pub rejected_at_shutdown: u64,
    /// Per-precision breakdown of the lifetime counts above, from the
    /// final snapshot (one entry per precision, in `Precision::ALL`
    /// order). The totals above are its sums.
    pub precisions: Vec<PrecisionSnapshot>,
    /// The flight recorder's final contents — the sampled span
    /// timelines still in the rings when the last batcher exited, for
    /// shutdown postmortems (aborted requests included).
    pub spans: Vec<RecordedSpan>,
    /// Wall-clock from the shutdown call to the last batcher's exit.
    pub wall: Duration,
}

impl DrainReport {
    /// Whether any request failed with `EngineFault` over the server's
    /// lifetime — the condition under which a drain triggers an
    /// incident capture.
    pub fn has_failures(&self) -> bool {
        self.failed > 0
    }
}

impl std::fmt::Display for DrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shutdown({:?}): {} served lifetime, {} aborted, {} failed, \
             {} expired, {} cancelled, {} rejected at shutdown, drained in {:.2} ms",
            self.mode,
            self.completed,
            self.aborted,
            self.failed,
            self.expired,
            self.cancelled,
            self.rejected_at_shutdown,
            self.wall.as_secs_f64() * 1e3
        )?;
        for p in &self.precisions {
            if p.completed + p.failed + p.aborted + p.expired + p.cancelled > 0 {
                write!(
                    f,
                    "\n  [{}] {} served, {} aborted, {} failed, {} expired, {} cancelled",
                    p.precision, p.completed, p.aborted, p.failed, p.expired, p.cancelled
                )?;
            }
        }
        Ok(())
    }
}
