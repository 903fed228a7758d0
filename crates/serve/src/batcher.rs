//! The dynamic micro-batcher: one consumer of the shared request queue
//! and one dispatcher into its engine shard.
//!
//! A server runs `shards` batcher threads, all popping the **same**
//! [`BoundedQueue`] — admission control, priorities, and backpressure
//! are queue properties and stay identical at any shard count — and
//! each dispatching into its own `Engine` shard with its own in-flight
//! cap, buffer pool, and [`ShardMetrics`]. Every request a batcher
//! resolves is recorded once, into that shard's per-precision ledger
//! ([`ShardMetrics::record`]).
//!
//! The coalescing rule is the classic serving trade-off dial: after the
//! first request of a batch arrives, the batcher keeps popping until it
//! holds `max_batch` requests **or** the first request's coalescing
//! budget (`max_wait` from its **admission**, not from the moment the
//! batcher got around to it) runs out, whichever comes first. Anchoring
//! the deadline at admission is what makes `max_wait` a real bound on
//! added latency: when the engine is saturated, the batcher blocks in
//! [`InFlight::acquire`] first, and a request that already burned its
//! budget waiting there dispatches with whatever is queued instead of
//! waiting `max_wait` again. `max_wait == 0` degenerates to
//! batch-as-available (never waits, still coalesces whatever is already
//! queued); `max_batch == 1` degenerates to per-request dispatch.
//!
//! Dispatch is **pipelined**: a coalesced batch is handed to the
//! engine's worker pool via `Engine::infer_coalesced_async_at` and the
//! batcher immediately goes back to coalescing, so queue management
//! overlaps execution. At most `engine.threads() + 1` batches are in
//! flight per shard — past that the batcher blocks, the queue fills,
//! and admission control sheds load, which is exactly the backpressure
//! chain the front-end promises. Stacking buffers recycle through the
//! completion callbacks, so steady-state dispatch performs no stacking
//! allocations.
//!
//! Batches must be shape-uniform for the engine's coalesced stacking, so
//! a request whose shape differs from the batch being built closes that
//! batch and opens the next one (no reordering, no starvation).
//!
//! ## Fault tolerance
//!
//! The batcher participates in the supervision protocol
//! ([`crate::supervisor`]) through four obligations:
//!
//! * **Registry.** Every popped request is registered in its shard's
//!   in-flight registry and resolved only after a successful `claim` —
//!   the handoff that keeps resolution exactly-once when the supervisor
//!   tears a dead shard down concurrently with an engine callback.
//! * **Heartbeat.** The loop publishes `idle` before parking on an
//!   empty queue and `active` + a beat timestamp whenever it holds
//!   work; a drop guard flips the phase to `dead` on panic. While
//!   blocked on the in-flight cap it beats on every completion wakeup,
//!   so only a genuinely wedged engine lets the beat go stale.
//! * **Generation.** A batcher that observes a newer generation on its
//!   slot was declared dead (wedged) and replaced: it disposes of any
//!   carried request through the registry and exits without touching
//!   the queue.
//! * **Screening.** Requests are screened at dequeue and again after
//!   coalescing: client-cancelled tickets are dropped, deadline-expired
//!   requests fail with [`ServeError::DeadlineExceeded`], and a retry
//!   that bounced back to the shard it is avoiding re-queues itself
//!   once for a different shard.
//!
//! Transient engine faults retry on a different shard under the
//! server's [`crate::RetryPolicy`]: the completion callback re-queues
//! the request at high priority (marking the failing shard as avoided)
//! when attempts, the retry budget, and the health state all allow it.

use crate::events::{EventCode, Severity};
use crate::faults::FaultPlan;
use crate::health::{HealthEngine, HealthState};
use crate::incident::IncidentRecorder;
use crate::metrics::{Outcome, ServerMetrics, ShardMetrics};
use crate::queue::{BoundedQueue, Pop, Priority};
use crate::supervisor::{HeartbeatGuard, InflightEntry, ShardSlot, PHASE_ACTIVE, PHASE_IDLE};
use crate::ticket::{ServeError, TicketCell};
use crate::trace::{ActiveSpan, FlightRecorder, RecordedSpan, SpanOutcome};
use crate::RetryPolicy;
use pcnn_runtime::engine::Engine;
use pcnn_runtime::Precision;
use pcnn_sync::atomic::{AtomicBool, Ordering};
use pcnn_sync::{thread, Arc, Condvar, Mutex};
use pcnn_tensor::Tensor;
use std::time::{Duration, Instant};

/// One queued inference request.
pub(crate) struct Request {
    /// The `1 × C × H × W` input.
    pub input: Tensor,
    /// Where the result goes.
    pub cell: Arc<TicketCell>,
    /// Admission timestamp, for queue-wait and e2e latency — and the
    /// anchor of the coalescing deadline.
    pub submitted: Instant,
    /// The lowering this request executes on. A batch is
    /// precision-uniform: a mismatching request closes the batch being
    /// built, exactly like a shape change.
    pub precision: Precision,
    /// The sampled lifecycle span, when this request drew the 1-in-N
    /// tracing lot; `None` requests still tick every counter. The span
    /// carries the trace ID assigned at admission.
    pub span: Option<Box<ActiveSpan>>,
    /// The trace ID assigned at admission — the registry key and the
    /// fault-injection predicate input, present for every request
    /// (sampled or not).
    pub id: u64,
    /// Absolute point after which the request must not be dispatched;
    /// `None` means no deadline.
    pub deadline: Option<Instant>,
    /// Zero-based attempt number (0 = the original submission).
    pub attempt: u32,
    /// The shard whose fault this request is retrying away from.
    pub avoid_shard: Option<usize>,
    /// Whether the avoid-shard bounce was already taken (a retry gets
    /// exactly one re-queue to find a different shard; after that it is
    /// served wherever it lands, so a single-live-shard server still
    /// makes progress).
    pub bounced: bool,
}

impl Request {
    /// Stamps the span's dequeued event at the first pop off the queue
    /// (idempotent — a carried request keeps its original pop stamp).
    fn mark_dequeued(&mut self, recorder: &FlightRecorder) {
        if let Some(span) = &mut self.span {
            if span.dequeued_ns == 0 {
                span.dequeued_ns = recorder.now_ns();
            }
        }
    }
}

/// Everything one batcher thread needs, bundled for the spawn.
pub(crate) struct BatcherContext {
    /// This batcher's engine shard (the generation's own handle — the
    /// slot's current engine may already be newer).
    pub engine: Arc<Engine>,
    /// The queue shared by every shard's batcher.
    pub queue: Arc<BoundedQueue<Request>>,
    /// This shard's metrics.
    pub shard: Arc<ShardMetrics>,
    /// This shard's index, for span attribution.
    pub shard_index: usize,
    /// The server-wide metrics (queue-depth gauge sampling).
    pub metrics: Arc<ServerMetrics>,
    /// The server's flight recorder: span clock and ring sink.
    pub recorder: Arc<FlightRecorder>,
    /// The black-box incident recorder: notified on the first engine
    /// fault so the telemetry that explains it is captured in time.
    pub incidents: Arc<IncidentRecorder>,
    /// When set, drain-by-failing: remaining requests get
    /// [`ServeError::Aborted`] instead of an inference pass.
    pub abort: Arc<AtomicBool>,
    /// This shard's supervision slot: heartbeat, generation, in-flight
    /// registry, retry budget.
    pub slot: Arc<ShardSlot>,
    /// The generation this thread runs as; a newer value on the slot
    /// retires it.
    pub generation: u64,
    /// The health engine, consulted before retrying (no retries while
    /// `Overloaded` — retry amplification is the last thing an
    /// overloaded server needs).
    pub health: Arc<HealthEngine>,
    /// The armed chaos plan, when the server runs with fault injection.
    pub faults: Option<Arc<FaultPlan>>,
    /// Total shards serving the queue (a retry only bounces when a
    /// *different* shard exists to bounce to).
    pub shards_total: usize,
    /// The retry policy, present when it enables retries.
    pub retry: Option<RetryPolicy>,
    pub max_batch: usize,
    pub max_wait: Duration,
}

/// Counter of dispatched-but-incomplete batches, with a condvar for the
/// batcher to block on (dispatch cap, final drain).
struct InFlight {
    count: Mutex<usize>,
    changed: Condvar,
}

impl InFlight {
    /// Blocks until a slot frees up, invoking `on_wake` on every
    /// completion wakeup — the batcher heartbeats there, so a wait on a
    /// *healthy* (progressing) engine never looks like a stall.
    fn acquire(&self, limit: usize, mut on_wake: impl FnMut()) {
        let mut n = self.count.lock().expect("inflight poisoned");
        while *n >= limit {
            n = self.changed.wait(n).expect("inflight wait poisoned");
            on_wake();
        }
        *n += 1;
    }

    fn release(&self) {
        *self.count.lock().expect("inflight poisoned") -= 1;
        self.changed.notify_all();
    }

    fn wait_zero(&self) {
        let mut n = self.count.lock().expect("inflight poisoned");
        while *n > 0 {
            n = self.changed.wait(n).expect("inflight wait poisoned");
        }
    }
}

/// Records a span for a request that terminated without dispatching
/// (expired, cancelled, aborted): the events it never reached all carry
/// the termination instant, keeping timelines complete and monotone.
fn record_terminal_span(
    ctx: &BatcherContext,
    span: &ActiveSpan,
    precision: Precision,
    outcome: SpanOutcome,
    batch_len: u32,
) {
    let now_ns = ctx.recorder.now_ns();
    ctx.recorder.record(
        ctx.shard_index,
        &RecordedSpan {
            id: span.id,
            shard: ctx.shard_index as u32,
            precision,
            outcome,
            batch_len,
            admitted_ns: span.admitted_ns,
            dequeued_ns: span.dequeued_ns.max(span.admitted_ns),
            coalesced_ns: now_ns,
            dispatched_ns: now_ns,
            executed_ns: now_ns,
            completed_ns: now_ns,
        },
    );
}

/// Screens one popped request before it may join a batch. Returns
/// `None` when the request was consumed here (cancelled, expired, or
/// bounced to another shard) — every consuming path claims the request
/// from the registry first, so a racing supervisor teardown and this
/// screen resolve each ticket exactly once.
fn screen(ctx: &BatcherContext, r: Request) -> Option<Request> {
    // Client-side cancellation: the ticket is already resolved, so the
    // only work left is accounting and dropping the input.
    if r.cell.is_resolved() {
        if ctx.slot.registry.claim(r.id).is_some() {
            ctx.shard.record(r.precision, Outcome::Cancelled);
            if let Some(span) = r.span {
                record_terminal_span(ctx, &span, r.precision, SpanOutcome::Cancelled, 0);
            }
        }
        return None;
    }
    // Deadline: a request that cannot dispatch in time is dropped here
    // rather than wasting an engine pass its client stopped waiting
    // for. Expirations feed the windowed error rates — a deadline miss
    // is an SLO violation, not bookkeeping.
    if r.deadline.is_some_and(|d| Instant::now() >= d) {
        if ctx.slot.registry.claim(r.id).is_some() {
            ctx.shard.record(r.precision, Outcome::Expired);
            ctx.metrics.events().emit(
                EventCode::DeadlineExceeded,
                Severity::Warn,
                ctx.shard_index as u64,
                ctx.shard.total(|p| p.expired.get()),
            );
            if let Some(span) = r.span {
                record_terminal_span(ctx, &span, r.precision, SpanOutcome::Expired, 0);
            }
            r.cell.complete(Err(ServeError::DeadlineExceeded));
        }
        return None;
    }
    // Retry bounce: this request is retrying away from *this* shard.
    // Re-queue it once at high priority so a different shard picks it
    // up; if the push fails (or there is no other shard), serve it
    // locally — a retry on the faulty shard still beats no retry.
    if r.avoid_shard == Some(ctx.shard_index) && !r.bounced && ctx.shards_total > 1 {
        match ctx.slot.registry.claim(r.id) {
            // The supervisor already failed this ticket mid-teardown.
            None => return None,
            Some(_) => {
                let mut r = r;
                r.bounced = true;
                match ctx.queue.try_push(r, Priority::High) {
                    Ok(()) => return None,
                    Err(crate::queue::PushError::Full(r))
                    | Err(crate::queue::PushError::Closed(r)) => {
                        ctx.slot.registry.register(
                            r.id,
                            InflightEntry {
                                cell: r.cell.clone(),
                                precision: r.precision,
                            },
                        );
                        return Some(r);
                    }
                }
            }
        }
    }
    Some(r)
}

/// Registers a popped request in the shard's in-flight registry —
/// called at every pop, so from dequeue to resolution the supervisor
/// can always find (and fail) the ticket if this batcher dies.
fn register(slot: &ShardSlot, r: &Request) {
    slot.registry.register(
        r.id,
        InflightEntry {
            cell: r.cell.clone(),
            precision: r.precision,
        },
    );
}

/// Resolves a request held by a batcher that discovered it was retired
/// (a newer generation is serving): the supervisor drained the registry
/// during teardown, so usually the claim fails and the ticket is
/// already failed — but a carried request popped *after* the drain is
/// still ours to fail.
fn dispose_stale(ctx: &BatcherContext, r: Request) {
    if ctx.slot.registry.claim(r.id).is_some() {
        ctx.shard.record(r.precision, Outcome::Failed);
        r.cell.complete(Err(ServeError::ShardFailed));
    }
}

/// The batcher thread body: coalesce → dispatch until the queue closes
/// and drains, then wait for in-flight batches to land.
pub(crate) fn run_batcher(ctx: BatcherContext) {
    // The unwind guard: a panic anywhere below publishes `dead` so the
    // supervisor reacts on its next tick instead of waiting out the
    // stall timeout.
    let _guard = HeartbeatGuard::new(Arc::clone(&ctx.slot), ctx.generation);
    // One more batch in flight than this shard's workers: every worker
    // busy plus one batch coalesced and ready.
    let max_inflight = ctx.engine.threads() + 1;
    let inflight = Arc::new(InFlight {
        count: Mutex::new(0),
        changed: Condvar::new(),
    });
    let buffer_pool: Arc<Mutex<Vec<Vec<f32>>>> = Arc::new(Mutex::new(Vec::new()));
    // A request popped while building a batch but belonging to the
    // *next* one (shape change): it seeds the following iteration.
    let mut carried: Option<Request> = None;
    loop {
        // A newer generation exists: this thread was declared wedged
        // and replaced. Dispose of anything still held and exit without
        // touching the queue — the replacement owns it now.
        if ctx.slot.current_generation() != ctx.generation {
            if let Some(r) = carried.take() {
                dispose_stale(&ctx, r);
            }
            return;
        }
        // Chaos hooks, at a deterministic point: the top of the loop,
        // before any request is held.
        if let Some(faults) = &ctx.faults {
            if faults.take_crash(ctx.shard_index) {
                panic!("injected batcher crash (shard {})", ctx.shard_index);
            }
            if let Some(stall) = faults.take_stall(ctx.shard_index) {
                thread::sleep(stall);
                continue; // re-check the generation after the stall
            }
        }
        let mut first = match carried.take() {
            Some(r) => r,
            None => {
                // Parked on an empty queue is healthy, not wedged:
                // publish `idle` so the supervisor exempts the
                // unbounded wait from stall detection.
                ctx.slot.heartbeat.set_phase(PHASE_IDLE);
                match ctx.queue.pop_wait(None) {
                    Pop::Item(mut r) => {
                        register(&ctx.slot, &r);
                        r.mark_dequeued(&ctx.recorder);
                        r
                    }
                    Pop::Closed => break,
                    Pop::TimedOut => unreachable!("untimed pop cannot time out"),
                }
            }
        };
        ctx.slot.heartbeat.beat(ctx.metrics.now_ns());
        ctx.slot.heartbeat.set_phase(PHASE_ACTIVE);
        first.mark_dequeued(&ctx.recorder);
        let Some(first) = screen(&ctx, first) else {
            continue;
        };
        // Claim an engine slot BEFORE coalescing: while the batcher
        // waits here for the engine to free up, new requests keep
        // queueing, so batch size adapts to engine busyness — idle
        // engine means tiny batches and minimal latency, saturated
        // engine means full batches and maximal amortisation. Each
        // completion wakeup beats the heartbeat, so only an engine that
        // stopped completing lets the beat go stale.
        inflight.acquire(max_inflight, || {
            ctx.slot.heartbeat.beat(ctx.metrics.now_ns());
        });
        ctx.slot.heartbeat.beat(ctx.metrics.now_ns());
        ctx.shard.inflight_batches.inc();
        let batch = coalesce(
            &ctx.queue,
            first,
            &mut carried,
            ctx.max_batch,
            ctx.max_wait,
            &ctx.recorder,
            &ctx.slot,
        );
        ctx.metrics.queue_depth.set(ctx.queue.len() as u64);
        // Second screen, batch-wide: deadlines that expired *during*
        // coalescing (and cancellations that landed meanwhile) drop
        // here, the last gate before the engine.
        let batch: Vec<Request> = batch.into_iter().filter_map(|r| screen(&ctx, r)).collect();
        if batch.is_empty() {
            ctx.shard.inflight_batches.dec();
            inflight.release();
            continue;
        }
        dispatch(&ctx, batch, &inflight, &buffer_pool);
    }
    inflight.wait_zero();
}

/// Builds one batch around `first`: pops shape-compatible requests until
/// `max_batch` or the coalescing deadline, whichever comes first. Every
/// popped request is registered in the shard's in-flight registry as it
/// comes off the queue.
///
/// The deadline anchors at the **first request's admission** (clamped to
/// now, in case clocks ever hand us an admission instant ahead of this
/// thread's view), so time the request already spent queued or blocked
/// behind the in-flight cap counts against its coalescing budget —
/// `max_wait` bounds *added* wait, not wait-after-the-batcher-was-ready.
#[allow(clippy::too_many_arguments)]
fn coalesce(
    queue: &BoundedQueue<Request>,
    first: Request,
    carried: &mut Option<Request>,
    max_batch: usize,
    max_wait: Duration,
    recorder: &FlightRecorder,
    slot: &ShardSlot,
) -> Vec<Request> {
    let anchor = first.submitted.min(Instant::now());
    let deadline = anchor + max_wait;
    let mut batch = vec![first];
    while batch.len() < max_batch && carried.is_none() {
        let now = Instant::now();
        if now >= deadline {
            // Deadline passed: take only what is already queued.
            match queue.try_pop() {
                Some(mut r) => {
                    register(slot, &r);
                    r.mark_dequeued(recorder);
                    accept(&mut batch, carried, r);
                }
                None => break,
            }
        } else {
            match queue.pop_wait(Some(deadline - now)) {
                Pop::Item(mut r) => {
                    register(slot, &r);
                    r.mark_dequeued(recorder);
                    accept(&mut batch, carried, r);
                }
                Pop::TimedOut => break,
                Pop::Closed => break,
            }
        }
    }
    batch
}

/// Adds `r` to the batch when shape- and precision-compatible, else
/// carries it over as the seed of the next batch.
fn accept(batch: &mut Vec<Request>, carried: &mut Option<Request>, r: Request) {
    if r.input.shape() == batch[0].input.shape() && r.precision == batch[0].precision {
        batch.push(r);
    } else {
        *carried = Some(r);
    }
}

/// Per-request state carried through the engine callback.
struct BatchItem {
    id: u64,
    cell: Arc<TicketCell>,
    submitted: Instant,
    span: Option<Box<ActiveSpan>>,
    deadline: Option<Instant>,
    attempt: u32,
    /// A clone of the input, kept only while another attempt is still
    /// allowed — the retry re-queues it without re-reading the original
    /// (which the engine consumed).
    retry_input: Option<Tensor>,
}

/// Hands one coalesced batch to the engine pool (the caller has already
/// claimed the in-flight slot, released by the completion callback) and
/// returns immediately; tickets complete from the callback.
fn dispatch(
    ctx: &BatcherContext,
    batch: Vec<Request>,
    inflight: &Arc<InFlight>,
    buffer_pool: &Arc<Mutex<Vec<Vec<f32>>>>,
) {
    let shard_index = ctx.shard_index as u32;
    let batch_len = batch.len() as u32;
    // ordering: Acquire pairs with shutdown's Release store (downgraded
    // from SeqCst — no other atomic participates in the decision, so a
    // total order buys nothing). Missing one in-flight flip only means
    // this batch executes normally before the drain completes, which
    // the abort contract allows.
    if ctx.abort.load(Ordering::Acquire) {
        // Aborted timelines stay complete and monotone: the events the
        // request never reached all carry the abort instant.
        ctx.metrics.events().emit(
            EventCode::BatchAbort,
            Severity::Warn,
            shard_index as u64,
            batch_len as u64,
        );
        for r in batch {
            // Claim before resolving: a supervisor teardown racing the
            // abort drain must not double-account the ticket.
            if ctx.slot.registry.claim(r.id).is_none() {
                continue;
            }
            ctx.shard.record(r.precision, Outcome::Aborted);
            // Span first, ticket second: a woken waiter always finds
            // its span already recorded.
            if let Some(span) = r.span {
                record_terminal_span(ctx, &span, r.precision, SpanOutcome::Aborted, batch_len);
            }
            r.cell.complete(Err(ServeError::Aborted));
        }
        ctx.shard.inflight_batches.dec();
        inflight.release();
        return;
    }
    let coalesced_ns = ctx.recorder.now_ns();
    let dispatch_at = Instant::now();
    let precision = batch[0].precision;
    // Retry-eligible items keep an input clone for the re-queue; when
    // retries are off (the default) nothing is cloned.
    let max_attempts = ctx.retry.as_ref().map_or(1, |r| r.max_attempts.max(1));
    let mut inputs = Vec::with_capacity(batch.len());
    let mut items = Vec::with_capacity(batch.len());
    for r in batch {
        debug_assert_eq!(r.precision, precision, "batches are precision-uniform");
        ctx.shard.queue_wait.record(dispatch_at - r.submitted);
        let retry_input = (r.attempt + 1 < max_attempts).then(|| r.input.clone());
        items.push(BatchItem {
            id: r.id,
            cell: r.cell,
            submitted: r.submitted,
            span: r.span,
            deadline: r.deadline,
            attempt: r.attempt,
            retry_input,
        });
        inputs.push(r.input);
    }
    ctx.shard.record_batch(precision, items.len());

    let buffers = std::mem::take(&mut *buffer_pool.lock().expect("buffer pool poisoned"));
    let shard = ctx.shard.clone();
    let inflight = inflight.clone();
    let buffer_pool = buffer_pool.clone();
    let recorder = ctx.recorder.clone();
    let metrics = ctx.metrics.clone();
    // Weak on purpose: this callback runs on an engine pool thread, and
    // the recorder transitively owns the engines. A strong clone could
    // make a pool worker the last owner of its own engine at shutdown —
    // dropping it would have the pool join itself.
    let incidents = Arc::downgrade(&ctx.incidents);
    let shard_slot = ctx.shard_index;
    // Weak for the same reason: the slot owns the shard's engine, and
    // this closure's captures are dropped on an engine pool thread after
    // the body returns — a strong capture could make that worker the
    // engine's last owner and have the pool join itself.
    let slot = Arc::downgrade(&ctx.slot);
    let health = Arc::clone(&ctx.health);
    let faults = ctx.faults.clone();
    let queue = Arc::clone(&ctx.queue);
    let retry = ctx.retry.clone();
    let dispatched_ns = ctx.recorder.now_ns();
    ctx.engine
        .infer_coalesced_async_at(precision, inputs, buffers, move |outputs, spare| {
            // Injected chunk latency: the deadline/backpressure chaos
            // knob, applied before any ticket resolves.
            if let Some(delay) = faults.as_ref().and_then(|f| f.chunk_delay()) {
                thread::sleep(delay);
            }
            let done_at = Instant::now();
            let executed_ns = recorder.now_ns();
            shard.service.record(done_at - dispatch_at);
            // Upgrade for the body only. A dead upgrade means the server
            // is already torn down: every registered ticket was failed by
            // the teardown drain (first-write-wins cells make stragglers
            // harmless), so just recycle the buffers and bow out.
            let Some(slot) = slot.upgrade() else {
                *buffer_pool.lock().expect("buffer pool poisoned") = spare;
                shard.inflight_batches.dec();
                inflight.release();
                return;
            };
            debug_assert_eq!(outputs.len(), items.len(), "one output slot per request");
            let mut outputs = outputs.into_iter();
            for item in items {
                // `next()` past the end yields `None`: a short output
                // vector (an engine attribution bug, impossible today)
                // fails the surplus tickets instead of silently dropping
                // them and hanging their waiters forever.
                let mut output = outputs.next().flatten();
                // Claim decides ownership: `None` means the supervisor
                // tore this shard down mid-batch and already failed the
                // ticket — skip everything, including accounting.
                if slot.registry.claim(item.id).is_none() {
                    continue;
                }
                // Injected engine fault: forces this request onto the
                // failure/retry path (consumed *after* the iterator
                // advanced, so the rest of the batch stays aligned).
                if faults
                    .as_ref()
                    .is_some_and(|f| f.take_engine_fault(item.id))
                {
                    output = None;
                }
                let outcome = match &output {
                    Some(_) => {
                        shard.record(precision, Outcome::Completed(done_at - item.submitted));
                        slot.budget.on_success();
                        SpanOutcome::Completed
                    }
                    // This request's chunk pass panicked (or the engine
                    // failed to attribute an output to it): retry on a
                    // different shard when the policy, the budget, and
                    // the health state allow; fail otherwise.
                    None => {
                        if try_retry(
                            &item, precision, &slot, &health, &queue, &retry, &shard, &metrics,
                            shard_slot,
                        ) {
                            continue;
                        }
                        shard.record(precision, Outcome::Failed);
                        metrics.events().emit(
                            EventCode::EngineFault,
                            Severity::Error,
                            shard_slot as u64,
                            shard.total(|p| p.failed.get()),
                        );
                        if let Some(incidents) = incidents.upgrade() {
                            incidents.on_engine_fault();
                        }
                        SpanOutcome::Failed
                    }
                };
                // Publish the span *before* completing the ticket so a
                // waiter that wakes on `Ticket::wait` is guaranteed to
                // find its span already in the flight recorder.
                if let Some(span) = item.span {
                    recorder.record(
                        shard_slot,
                        &RecordedSpan {
                            id: span.id,
                            shard: shard_index,
                            precision,
                            outcome,
                            batch_len,
                            admitted_ns: span.admitted_ns,
                            dequeued_ns: span.dequeued_ns.max(span.admitted_ns),
                            coalesced_ns,
                            dispatched_ns,
                            executed_ns,
                            completed_ns: recorder.now_ns(),
                        },
                    );
                }
                match output {
                    Some(y) => item.cell.complete(Ok(y)),
                    None => item.cell.complete(Err(ServeError::EngineFault)),
                }
            }
            // Drop the upgraded slot *before* releasing the in-flight
            // permit: the release unblocks shutdown, which drops the
            // server's strong references — if this local outlived it,
            // this worker could again end up the engine's last owner.
            drop(slot);
            *buffer_pool.lock().expect("buffer pool poisoned") = spare;
            shard.inflight_batches.dec();
            inflight.release();
        });
}

/// Attempts to re-queue a faulted request for another shard. Returns
/// `true` when the retry was queued —
/// the item's claim has been consumed and the caller must not touch the
/// ticket again.
#[allow(clippy::too_many_arguments)]
fn try_retry(
    item: &BatchItem,
    precision: Precision,
    slot: &Arc<ShardSlot>,
    health: &HealthEngine,
    queue: &Arc<BoundedQueue<Request>>,
    retry: &Option<RetryPolicy>,
    shard: &ShardMetrics,
    metrics: &ServerMetrics,
    shard_index: usize,
) -> bool {
    let Some(retry) = retry else { return false };
    let next_attempt = item.attempt + 1;
    if next_attempt >= retry.max_attempts.max(1) {
        return false;
    }
    let Some(input) = &item.retry_input else {
        return false;
    };
    // A request past its deadline is not worth a second engine pass.
    if item.deadline.is_some_and(|d| Instant::now() >= d) {
        return false;
    }
    // No retry amplification while the server is shedding load.
    if health.state() == HealthState::Overloaded {
        return false;
    }
    if !slot.budget.try_acquire() {
        return false;
    }
    let request = Request {
        input: input.clone(),
        cell: item.cell.clone(),
        submitted: item.submitted,
        precision,
        // The span stays with the retry: its final resolution records
        // the full story under the original trace ID.
        span: None,
        id: item.id,
        deadline: item.deadline,
        attempt: next_attempt,
        avoid_shard: Some(shard_index),
        bounced: false,
    };
    let accepted = queue.try_push(request, Priority::High).is_ok();
    if accepted {
        shard.retries.inc();
        metrics.events().emit(
            EventCode::Retry,
            Severity::Warn,
            shard_index as u64,
            u64::from(next_attempt),
        );
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Priority;
    use crate::trace::TraceConfig;
    use pcnn_nn::models;
    use pcnn_runtime::compile::compile_dense;

    fn recorder() -> FlightRecorder {
        FlightRecorder::new(&TraceConfig::default(), 1, None)
    }

    fn slot() -> Arc<ShardSlot> {
        let engine = Arc::new(Engine::new(compile_dense(&models::tiny_cnn(3, 4, 1)), 1));
        ShardSlot::new(0, engine, &RetryPolicy::default())
    }

    fn request(shape: &[usize], submitted: Instant) -> Request {
        request_at(shape, submitted, Precision::F32)
    }

    fn request_at(shape: &[usize], submitted: Instant, precision: Precision) -> Request {
        static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        Request {
            input: Tensor::ones(shape),
            cell: TicketCell::new(),
            submitted,
            precision,
            span: None,
            id: NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            deadline: None,
            attempt: 0,
            avoid_shard: None,
            bounced: false,
        }
    }

    /// The coalescing budget anchors at admission: a first request that
    /// already waited longer than `max_wait` (queued behind the
    /// in-flight cap) must dispatch with what is queued *right now*,
    /// not hold the batch open another `max_wait`. The pre-fix code
    /// anchored at `Instant::now()` after `acquire` returned, so this
    /// call blocked the full 200 ms.
    #[test]
    fn stale_first_request_dispatches_without_new_wait() {
        let queue: BoundedQueue<Request> = BoundedQueue::new(16);
        let max_wait = Duration::from_millis(200);
        for _ in 0..2 {
            assert!(queue
                .try_push(request(&[1, 3, 8, 8], Instant::now()), Priority::Normal)
                .is_ok());
        }
        // The first request was admitted well over max_wait ago.
        let first = request(&[1, 3, 8, 8], Instant::now() - 2 * max_wait);
        let mut carried = None;
        let t0 = Instant::now();
        let batch = coalesce(
            &queue,
            first,
            &mut carried,
            8,
            max_wait,
            &recorder(),
            &slot(),
        );
        assert_eq!(batch.len(), 3, "queued requests still coalesce");
        assert!(carried.is_none());
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "expired budget must not buy a fresh {max_wait:?} wait (took {:?})",
            t0.elapsed()
        );
    }

    /// A precision change closes the batch being built exactly like a
    /// shape change: the mismatching request seeds the next batch, and
    /// the two batches stay precision-uniform.
    #[test]
    fn precision_change_splits_the_batch() {
        let queue: BoundedQueue<Request> = BoundedQueue::new(16);
        let stale = Instant::now() - Duration::from_secs(1);
        for _ in 0..2 {
            assert!(queue
                .try_push(
                    request_at(&[1, 3, 8, 8], Instant::now(), Precision::F32),
                    Priority::Normal
                )
                .is_ok());
        }
        assert!(queue
            .try_push(
                request_at(&[1, 3, 8, 8], Instant::now(), Precision::Int8),
                Priority::Normal
            )
            .is_ok());
        let mut carried = None;
        let rec = recorder();
        let slot = slot();
        let batch = coalesce(
            &queue,
            request_at(&[1, 3, 8, 8], stale, Precision::F32),
            &mut carried,
            8,
            Duration::ZERO,
            &rec,
            &slot,
        );
        assert_eq!(batch.len(), 3, "same-precision requests coalesce");
        assert!(batch.iter().all(|r| r.precision == Precision::F32));
        let int8 = carried.take().expect("the int8 request carried over");
        assert_eq!(int8.precision, Precision::Int8);
        let batch = coalesce(&queue, int8, &mut carried, 8, Duration::ZERO, &rec, &slot);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].precision, Precision::Int8);
    }

    /// A fresh first request still gets its full coalescing window.
    #[test]
    fn fresh_first_request_waits_out_its_budget() {
        let queue: BoundedQueue<Request> = BoundedQueue::new(16);
        let max_wait = Duration::from_millis(30);
        let first = request(&[1, 3, 8, 8], Instant::now());
        let mut carried = None;
        let t0 = Instant::now();
        let batch = coalesce(
            &queue,
            first,
            &mut carried,
            8,
            max_wait,
            &recorder(),
            &slot(),
        );
        assert_eq!(batch.len(), 1);
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "an empty queue holds the batch open until the deadline"
        );
    }

    /// `max_batch` still closes a batch before the deadline, and a
    /// shape change carries over to seed the next batch even when the
    /// first request's budget is spent.
    #[test]
    fn expired_budget_still_respects_max_batch_and_shape_splits() {
        let queue: BoundedQueue<Request> = BoundedQueue::new(16);
        let stale = Instant::now() - Duration::from_secs(1);
        for _ in 0..3 {
            assert!(queue
                .try_push(request(&[1, 3, 8, 8], Instant::now()), Priority::Normal)
                .is_ok());
        }
        assert!(queue
            .try_push(request(&[1, 3, 10, 10], Instant::now()), Priority::Normal)
            .is_ok());
        let mut carried = None;
        let rec = recorder();
        let slot = slot();
        let batch = coalesce(
            &queue,
            request(&[1, 3, 8, 8], stale),
            &mut carried,
            3,
            Duration::from_millis(50),
            &rec,
            &slot,
        );
        assert_eq!(batch.len(), 3, "max_batch caps the greedy drain");
        assert!(carried.is_none(), "cap hit before the shape change");
        let batch = coalesce(
            &queue,
            queue.try_pop().expect("one 8x8 left"),
            &mut carried,
            8,
            Duration::ZERO,
            &rec,
            &slot,
        );
        assert_eq!(batch.len(), 1);
        assert!(
            carried.is_some(),
            "the 10x10 request seeds the next batch instead of joining"
        );
        let batch = coalesce(
            &queue,
            carried.take().expect("carried seed"),
            &mut carried,
            8,
            Duration::ZERO,
            &rec,
            &slot,
        );
        assert_eq!(batch[0].input.shape(), &[1, 3, 10, 10]);
    }

    /// Coalescing registers every pop: whatever the batch holds, the
    /// supervisor can find each ticket in the registry.
    #[test]
    fn coalesce_registers_every_popped_request() {
        let queue: BoundedQueue<Request> = BoundedQueue::new(16);
        let stale = Instant::now() - Duration::from_secs(1);
        for _ in 0..3 {
            assert!(queue
                .try_push(request(&[1, 3, 8, 8], Instant::now()), Priority::Normal)
                .is_ok());
        }
        let slot = slot();
        let mut carried = None;
        let batch = coalesce(
            &queue,
            request(&[1, 3, 8, 8], stale),
            &mut carried,
            8,
            Duration::ZERO,
            &recorder(),
            &slot,
        );
        assert_eq!(batch.len(), 4);
        // `first` is registered by the caller at its own pop; the three
        // coalesced here must all be present.
        assert_eq!(slot.registry.len(), 3);
        for r in &batch[1..] {
            assert!(slot.registry.claim(r.id).is_some());
        }
    }
}
