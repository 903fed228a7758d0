//! The four workloads. Names are normative: `BENCHMARK.json` and every
//! later PR refer to them.

pub mod engine;
pub mod pipeline;
pub mod serving;

use crate::spans::Span;
use crate::stats::Windows;
use std::time::Duration;

/// Operations run untimed before the windows start. The pipeline
/// workload warms with [`pipeline::WARMUP_PASSES`] instead: at ~9 passes
/// per second 64 of them would spend 7 s of the time cap on a loop whose
/// caches are warm after one pass.
pub const WARMUP_OPS: usize = 64;

/// How long to measure, and which windows record spans.
#[derive(Debug, Clone)]
pub struct RunPlan {
    pub window_ns: u64,
    /// One flag per window: record spans for operations begun in it.
    pub traced: Vec<bool>,
    /// Time each post-run probe of a traced run may take.
    pub probe_budget: Duration,
}

impl RunPlan {
    pub fn duration_ns(&self) -> u64 {
        self.window_ns * self.traced.len() as u64
    }

    /// Whether an operation begun `ns` into the run records spans.
    pub fn traced_at(&self, ns: u64) -> bool {
        self.traced
            .get((ns / self.window_ns) as usize)
            .copied()
            .unwrap_or(false)
    }

    pub fn any_traced(&self) -> bool {
        self.traced.iter().any(|&t| t)
    }
}

/// What one timed run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Completed-and-correct operations, by window of completion.
    pub samples: Windows,
    /// Operations begun in the timed run.
    pub attempted: u64,
    /// Rejected + failed + expired + aborted + wrong-output operations.
    pub failed: u64,
    pub spans: Vec<Span>,
    /// Per-layer metrics only this workload can measure (`serve.*`),
    /// filled on traced runs.
    pub layer: Vec<(&'static str, f64)>,
    /// Human-readable facts for the report (first failure, sizes).
    pub notes: Vec<String>,
}

impl RunOutput {
    pub fn new(plan: &RunPlan) -> Self {
        RunOutput {
            samples: Windows::new(plan.window_ns, plan.traced.len()),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            layer: Vec::new(),
            notes: Vec::new(),
        }
    }
}

/// One row of the workload table.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    /// Arrivals follow the burst schedule. Throughput is then the
    /// offered rate by construction, so tracing overhead is read from the
    /// p50 latency; and windows are whole schedule blocks
    /// ([`serving::open_block_ns`]), so every window is offered the same
    /// mix of burst sizes and the quietest are not simply the lightest.
    pub open_loop: bool,
    /// Build → prune → compile → start → first correct result →
    /// shutdown, once, from nothing.
    pub cold_start: fn(seed: u64) -> Result<(), String>,
    pub run: fn(seed: u64, plan: &RunPlan) -> RunOutput,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_closed_tiny",
        why: "closed loop, 16 in flight on the tiny f32 proxy: queue, batcher, tickets and per-call costs dominate; kernels do little",
        open_loop: false,
        cold_start: serving::closed_cold_start,
        run: serving::closed_run,
    },
    Workload {
        name: "serve_open_wide_int8",
        why: "open loop, seeded bursts at a fixed 120 req/s on the wide int8 proxy: partial batches and the coalescing window set latency",
        open_loop: true,
        cold_start: serving::open_cold_start,
        run: serving::open_run,
    },
    Workload {
        name: "engine_batch_wide",
        why: "no server: one caller loops Engine::infer_coalesced with batches of 8 on the wide f32 proxy; runtime and tensor kernels do all the work",
        open_loop: false,
        cold_start: engine::cold_start,
        run: engine::run,
    },
    Workload {
        name: "prune_compile_sim",
        why: "the write side: fresh weights, distill, project, SPM encode, compile f32+int8, cycle-simulate; core, compile and accel do all the work",
        open_loop: false,
        cold_start: pipeline::cold_start,
        run: pipeline::run,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_maps_time_to_windows() {
        let plan = RunPlan {
            window_ns: 100,
            traced: vec![false, true, false],
            probe_budget: Duration::ZERO,
        };
        assert_eq!(plan.duration_ns(), 300);
        assert!(!plan.traced_at(99));
        assert!(plan.traced_at(100));
        assert!(plan.traced_at(199));
        assert!(!plan.traced_at(200));
        assert!(!plan.traced_at(10_000), "past the end nothing is traced");
        assert!(plan.any_traced());
    }
}
