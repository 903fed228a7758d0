//! `prune_compile_sim`: the "write" side beside the three "read" sides.
//!
//! One operation is one full pass: seeded fresh wide-proxy weights →
//! `core::distill_pattern_sets` → `prune_model_with_sets` →
//! `SpmLayer::encode` per layer → `runtime::compile` → `with_int8` →
//! `accel::sim::simulate_network(vgg16_cifar, n = 4, act 1.0)` → one
//! `accel::sim::execute_sparse_conv` on the first 32→32 layer. Passes run
//! back to back on one thread. Work a kernel PR moves into `compile` is
//! paid here.
//!
//! Each pass checks `decode(encode(w)) == w` on every layer, the
//! simulated datapath's output against the dense convolution (≤ 1e-4),
//! and that the network simulation's cycle counts equal the first
//! pass's (the simulation draws synthetic patterns from a fixed seed, so
//! fresh weights must not move it).

use super::{RunOutput, RunPlan};
use crate::fixtures::{max_abs_diff, plan_n4, random_tensor, stream, wide_cfg};
use crate::spans::{Recorder, ROOT};
use pcnn_accel::config::AccelConfig;
use pcnn_accel::sim::{execute_sparse_conv, simulate_network};
use pcnn_core::pruner::{distill_pattern_sets, prune_model_with_sets};
use pcnn_core::sparse::SparseConv;
use pcnn_core::spm::SpmLayer;
use pcnn_core::PrunePlan;
use pcnn_nn::models::{vgg16_proxy, VggProxyConfig};
use pcnn_nn::zoo::{vgg16_cifar, NetworkShape};
use pcnn_runtime::compile::{compile, CompileOptions};
use pcnn_runtime::ops::Op;
use pcnn_runtime::QuantOptions;
use pcnn_tensor::conv::conv2d_forward;
use pcnn_tensor::Tensor;
use std::collections::BTreeSet;
use std::time::Instant;

/// Untimed passes before the windows start.
pub const WARMUP_PASSES: usize = 4;
/// The prunable layer executed through the simulated datapath: the
/// first 32→32 convolution.
const EXEC_LAYER: usize = 1;
/// `execute_sparse_conv` must match the dense convolution this closely.
const EXEC_TOLERANCE: f64 = 1e-4;

pub const BUILD: &str = "nn.build_model";
pub const DISTILL: &str = "core.distill";
pub const PROJECT: &str = "core.project";
pub const ENCODE: &str = "core.spm_encode";
pub const COMPILE_F32: &str = "runtime.compile_f32";
pub const COMPILE_INT8: &str = "runtime.compile_int8";
pub const SIMULATE: &str = "accel.simulate_network";
pub const EXECUTE: &str = "accel.execute_sparse_conv";

/// Everything a pass needs besides weights.
pub struct Fixture {
    cfg: VggProxyConfig,
    plan: PrunePlan,
    net: NetworkShape,
    accel: AccelConfig,
    conv_input: Tensor,
    sim_seed: u64,
}

impl Fixture {
    pub fn new(seed: u64) -> Self {
        let cfg = wide_cfg();
        let in_c = cfg.widths[EXEC_LAYER - 1];
        Fixture {
            conv_input: random_tensor(&[1, in_c, cfg.input_hw, cfg.input_hw], stream(seed, 4)),
            cfg,
            plan: plan_n4(),
            net: vgg16_cifar(),
            accel: AccelConfig::default(),
            sim_seed: stream(seed, 5),
        }
    }
}

/// The counts and simulated statistics of one pass. All of it repeats
/// exactly for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct PassFacts {
    pub compression: f64,
    pub kernels: u64,
    pub patterns_used: u64,
    pub index_overhead_pct: f64,
    pub pattern_groups: u64,
    pub dispatches_per_image: u64,
    pub skipped_kernels: u64,
    pub sim_cycles: u64,
    pub dense_cycles: u64,
    pub sim_speedup: f64,
    pub sim_utilization: f64,
    pub sim_macs: u64,
    pub exec_cycles: u64,
    pub exec_max_abs_err: f64,
}

/// One full pass on the weights `weight_seed` draws.
///
/// # Errors
///
/// The first correctness check that fails, as a message.
pub fn pass(
    fx: &Fixture,
    weight_seed: u64,
    rec: &mut Recorder,
    traced: bool,
    op: u64,
) -> Result<PassFacts, String> {
    let mut model = rec.time(traced, BUILD, ROOT, op, || {
        vgg16_proxy(&fx.cfg, weight_seed)
    });
    let sets = rec.time(traced, DISTILL, ROOT, op, || {
        distill_pattern_sets(&model, &fx.plan)
    });
    rec.time(traced, PROJECT, ROOT, op, || {
        prune_model_with_sets(&mut model, &fx.plan, &sets)
    });
    let convs = model.prunable_convs();
    let spms = rec.time(traced, ENCODE, ROOT, op, || {
        convs
            .iter()
            .zip(&sets)
            .map(|(conv, set)| SpmLayer::encode(conv.weight(), set))
            .collect::<Result<Vec<_>, _>>()
    });
    let spms = spms.map_err(|e| format!("SPM encode failed: {e}"))?;
    for (conv, spm) in convs.iter().zip(&spms) {
        if spm.decode().as_slice() != conv.weight().as_slice() {
            return Err(format!("decode(encode(w)) != w on {}", conv.name));
        }
    }

    let compiled = rec.time(traced, COMPILE_F32, ROOT, op, || {
        compile(&model, &sets, &CompileOptions::default())
    });
    let (graph, report) = compiled.map_err(|e| format!("compile failed: {e}"))?;
    let graph = rec.time(traced, COMPILE_INT8, ROOT, op, || {
        graph.with_int8(&QuantOptions::default())
    });
    if report.sparse_layers != convs.len() || graph.quant_op_count() != convs.len() {
        return Err(format!(
            "lowering covered {} f32 / {} int8 of {} layers",
            report.sparse_layers,
            graph.quant_op_count(),
            convs.len()
        ));
    }

    let sim = rec.time(traced, SIMULATE, ROOT, op, || {
        simulate_network(&fx.net, Some(&fx.plan), 1.0, &fx.accel, fx.sim_seed)
    });

    let conv = convs[EXEC_LAYER];
    let sparse = SparseConv::from_dense(conv.weight(), *conv.shape(), &sets[EXEC_LAYER])
        .map_err(|e| format!("SparseConv encode failed: {e}"))?;
    let (exec_out, exec_sim) = rec.time(traced, EXECUTE, ROOT, op, || {
        execute_sparse_conv(&sparse, &fx.conv_input, &fx.accel)
    });
    let dense_out = conv2d_forward(&fx.conv_input, conv.weight(), None, conv.shape());
    let exec_max_abs_err = max_abs_diff(&exec_out, &dense_out);
    if exec_max_abs_err > EXEC_TOLERANCE {
        return Err(format!(
            "execute_sparse_conv differs from the dense convolution by {exec_max_abs_err:e}"
        ));
    }

    let (mut index_bits, mut table_bits, mut weight_bits) = (0u64, 0u64, 0u64);
    let (mut kernels, mut patterns_used) = (0u64, 0u64);
    for spm in &spms {
        kernels += spm.kernel_count() as u64;
        patterns_used += spm.codes().iter().collect::<BTreeSet<_>>().len() as u64;
        index_bits += spm.index_bits();
        table_bits += spm.table_bits();
        weight_bits += spm.weight_bits(32);
    }
    let (mut pattern_groups, mut dispatches) = (0u64, 0u64);
    for op in graph.ops() {
        if let Op::PatternConv(pc) = op {
            pattern_groups += pc.schedule().entries().len() as u64;
            dispatches += pc.schedule().slot_count() as u64;
        }
    }
    Ok(PassFacts {
        compression: report.compression(),
        kernels,
        patterns_used,
        index_overhead_pct: (index_bits + table_bits) as f64 / weight_bits as f64 * 100.0,
        pattern_groups,
        dispatches_per_image: dispatches,
        skipped_kernels: report.skipped_kernels as u64,
        sim_cycles: sim.cycles(),
        dense_cycles: sim.dense_cycles(),
        sim_speedup: sim.speedup(),
        sim_utilization: sim.utilization(),
        sim_macs: sim.layers.iter().map(|l| l.stats.used_macs).sum(),
        exec_cycles: exec_sim.cycles,
        exec_max_abs_err,
    })
}

/// Weights of pass `i` of a run.
fn weight_seed(seed: u64, i: u64) -> u64 {
    stream(seed, 100 + i)
}

pub fn cold_start(seed: u64) -> Result<(), String> {
    let fx = Fixture::new(seed);
    pass(
        &fx,
        weight_seed(seed, 0),
        &mut Recorder::new(Instant::now()),
        false,
        0,
    )
    .map(|_| ())
}

pub fn run(seed: u64, plan: &RunPlan) -> RunOutput {
    let fx = Fixture::new(seed);
    let mut out = RunOutput::new(plan);
    let mut scratch = Recorder::new(Instant::now());
    let mut first: Option<(u64, u64)> = None;
    for i in 0..WARMUP_PASSES as u64 {
        if let Ok(f) = pass(&fx, weight_seed(seed, i), &mut scratch, false, 0) {
            first.get_or_insert((f.sim_cycles, f.dense_cycles));
        }
    }

    let begin = Instant::now();
    let mut rec = Recorder::new(begin);
    let deadline_ns = plan.duration_ns();
    loop {
        let t0 = Instant::now();
        let at_ns = (t0 - begin).as_nanos() as u64;
        if at_ns >= deadline_ns {
            break;
        }
        let traced = plan.traced_at(at_ns);
        let op = out.attempted;
        out.attempted += 1;
        let result = pass(
            &fx,
            weight_seed(seed, WARMUP_PASSES as u64 + op),
            &mut rec,
            traced,
            op,
        )
        .and_then(|f| {
            let cycles = (f.sim_cycles, f.dense_cycles);
            if *first.get_or_insert(cycles) == cycles {
                Ok(())
            } else {
                Err(format!(
                    "simulated cycles moved between passes: {cycles:?} vs {first:?}"
                ))
            }
        });
        let t1 = Instant::now();
        match result {
            Ok(()) => out.samples.record(
                (t1 - begin).as_nanos() as u64,
                (t1 - t0).as_nanos() as u64,
                1,
            ),
            Err(e) => {
                out.failed += 1;
                if out.failed == 1 {
                    out.notes.push(format!("first failed operation: {e}"));
                }
            }
        }
        if traced {
            rec.push(ROOT, None, op, t0, t1);
        }
    }
    out.spans = rec.spans;
    out
}
