//! Opt-in per-layer execution profiling.
//!
//! An [`ExecProfiler`] is built alongside every [`crate::Engine`] from
//! its compiled graph: one [`LayerStats`] slot per executable op and
//! per precision, so f32 and int8 aggregate separately. Profiling is
//! **off by default** — the slots exist but no timestamps are taken —
//! and flips on with [`ExecProfiler::set_enabled`] (or
//! `Engine::enable_profiling`), at which point every graph pass records
//! per-layer wall time split by phase:
//!
//! * **pad** — everything before the first kernel of the pass (output
//!   allocation, the int8 path's per-image scale derivation) plus
//!   padded-plane construction, activation quantisation included. The
//!   band walk pads one row band at a time between kernel runs, so its
//!   share is the sum over bands, each timed only while profiling;
//! * **kernel** — the rest of the pass: the kernel walk, fused ReLU /
//!   requantisation included. The epilogue runs on the output tile's
//!   registers, so there is no separate phase to time and
//!   `pad + kernel = total`.
//!
//! Convolution layers additionally count kernel dispatches (one per
//! band-walk call, i.e. per layer pass; live kernels on geometries
//! without a tile), zero kernels skipped at the pass's precision (int8
//! can skip more than f32), bytes written by padding, the SIMD tier
//! actually dispatched, and the walk that ran (`ConvWalk`): an int8
//! layer on the AVX-VNNI walk and one on the AVX2 tile both report the
//! `avx2` tier, and only the walk label tells them apart. The aggregate
//! snapshot ([`ExecProfile`]) is the measured per-layer cost model the
//! bench-driven kernel-plan work consumes — the same role profiled
//! execution plays in the PatDNN/PCONV compiler line.
//!
//! All counters are relaxed atomics: recording from concurrent engine
//! workers never takes a lock, and the steady-state cost with profiling
//! disabled is one relaxed load per graph pass.

use crate::graph::ExecutableGraph;
use crate::json;
use crate::ops::Op;
use crate::quant_conv::Precision;
use pcnn_sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use pcnn_tensor::simd::{self, SimdLevel};

/// Lock-free accumulation cell for one executable layer at one precision.
#[derive(Debug, Default)]
pub struct LayerStats {
    calls: AtomicU64,
    images: AtomicU64,
    pad_ns: AtomicU64,
    kernel_ns: AtomicU64,
    kernel_dispatches: AtomicU64,
    zero_kernels_skipped: AtomicU64,
    padded_bytes: AtomicU64,
    /// SIMD tier last dispatched: 0 = none recorded, 1 = scalar,
    /// 2 = AVX2.
    simd: AtomicU8,
    /// Walk last run: 0 = none recorded, else `ConvWalk` + 1.
    walk: AtomicU8,
}

/// Which walk a convolution pass ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConvWalk {
    /// `band_walk_at`: the band-resident register-tile walk.
    Band,
    /// `band_walk_vnni`: the int8 walk on AVX-VNNI.
    BandVnni,
    /// One dispatch per live kernel (geometries without a tile).
    PerKernel,
}

impl ConvWalk {
    const ALL: [ConvWalk; 3] = [ConvWalk::Band, ConvWalk::BandVnni, ConvWalk::PerKernel];

    fn label(self) -> &'static str {
        match self {
            ConvWalk::Band => "band",
            ConvWalk::BandVnni => "band_vnni",
            ConvWalk::PerKernel => "per_kernel",
        }
    }
}

/// One instrumented convolution pass, handed to
/// [`LayerStats::record_conv`] by the pattern conv layer.
pub(crate) struct ConvPass {
    pub images: u64,
    pub pad_ns: u64,
    pub kernel_ns: u64,
    pub kernel_dispatches: u64,
    pub zero_kernels_skipped: u64,
    pub padded_bytes: u64,
    pub level: SimdLevel,
    pub walk: ConvWalk,
}

impl LayerStats {
    /// Records a non-convolution op pass: the whole duration counts as
    /// the kernel phase.
    pub(crate) fn record_pass(&self, images: u64, total_ns: u64) {
        // ordering: Relaxed — independent statistics counters. Snapshot
        // readers tolerate torn cross-counter views (a pass may appear
        // in `calls` before its time lands in `kernel_ns`); only the
        // eventual totals matter.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.images.fetch_add(images, Ordering::Relaxed);
        self.kernel_ns.fetch_add(total_ns, Ordering::Relaxed);
    }

    /// Records one instrumented convolution pass.
    pub(crate) fn record_conv(&self, p: &ConvPass) {
        // ordering: Relaxed — independent statistics counters; snapshot
        // readers accept torn cross-counter views, only eventual totals
        // matter. No payload is published through these cells.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.images.fetch_add(p.images, Ordering::Relaxed);
        self.pad_ns.fetch_add(p.pad_ns, Ordering::Relaxed);
        self.kernel_ns.fetch_add(p.kernel_ns, Ordering::Relaxed);
        // ordering: Relaxed — same statistics contract as above.
        self.kernel_dispatches
            .fetch_add(p.kernel_dispatches, Ordering::Relaxed);
        // A static per-layer property: store, don't accumulate.
        // ordering: Relaxed — every pass writes the same value, so
        // which writer wins is immaterial.
        self.zero_kernels_skipped
            .store(p.zero_kernels_skipped, Ordering::Relaxed);
        // ordering: Relaxed — same statistics contract as above.
        self.padded_bytes
            .fetch_add(p.padded_bytes, Ordering::Relaxed);
        let tier = match p.level {
            SimdLevel::Scalar => 1,
            SimdLevel::Avx2 => 2,
        };
        // ordering: Relaxed — last-writer-wins tier and walk tags, no
        // payload.
        self.simd.store(tier, Ordering::Relaxed);
        self.walk.store(p.walk as u8 + 1, Ordering::Relaxed);
    }

    fn reset(&self) {
        // ordering: Relaxed — reset is not atomic across cells by
        // design; a concurrent recorder may land between the zeroing
        // stores and the next snapshot simply reflects that.
        self.calls.store(0, Ordering::Relaxed);
        self.images.store(0, Ordering::Relaxed);
        self.pad_ns.store(0, Ordering::Relaxed);
        self.kernel_ns.store(0, Ordering::Relaxed);
        // ordering: Relaxed — covered by the reset contract above.
        self.kernel_dispatches.store(0, Ordering::Relaxed);
        self.zero_kernels_skipped.store(0, Ordering::Relaxed);
        self.padded_bytes.store(0, Ordering::Relaxed);
        self.simd.store(0, Ordering::Relaxed);
        self.walk.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self, layer: usize, label: &str) -> LayerProfile {
        // ordering: Relaxed — the snapshot is an admittedly-racy
        // statistical read; cross-counter consistency is not promised
        // to callers, so no acquire pairing is needed.
        let pad_ns = self.pad_ns.load(Ordering::Relaxed);
        let kernel_ns = self.kernel_ns.load(Ordering::Relaxed);
        LayerProfile {
            layer,
            label: label.to_string(),
            // ordering: Relaxed — covered by the snapshot contract above.
            calls: self.calls.load(Ordering::Relaxed),
            images: self.images.load(Ordering::Relaxed),
            pad_ns,
            kernel_ns,
            total_ns: pad_ns + kernel_ns,
            // ordering: Relaxed — covered by the snapshot contract above.
            kernel_dispatches: self.kernel_dispatches.load(Ordering::Relaxed),
            zero_kernels_skipped: self.zero_kernels_skipped.load(Ordering::Relaxed),
            padded_bytes: self.padded_bytes.load(Ordering::Relaxed),
            simd_level: match self.simd.load(Ordering::Relaxed) {
                1 => "scalar",
                2 => "avx2",
                _ => "-",
            },
            // ordering: Relaxed — covered by the snapshot contract above.
            walk: match self.walk.load(Ordering::Relaxed) {
                0 => "-",
                w => ConvWalk::ALL[usize::from(w - 1)].label(),
            },
        }
    }
}

/// One precision's profiling slots, in execution order.
#[derive(Debug, Default)]
struct PrecisionSlice {
    labels: Vec<String>,
    stats: Vec<LayerStats>,
}

/// Flattens an op sequence into profiling-slot order: pre-order, with
/// a residual block contributing its main ops, then its shortcut ops,
/// then one slot for the add+ReLU combine. `run_ops_profiled` walks
/// slots in exactly this order — the two must never drift.
fn flatten_labels(ops: &[Op], out: &mut Vec<String>) {
    for op in ops {
        if let Op::Residual { main, shortcut } = op {
            flatten_labels(main, out);
            flatten_labels(shortcut, out);
            out.push(format!(
                "Residual(combine) [{} main ops, {} shortcut ops]",
                main.len(),
                shortcut.len()
            ));
        } else {
            out.push(op.describe());
        }
    }
}

/// The per-engine execution profiler: one [`LayerStats`] per op per
/// precision, plus the master enable switch.
///
/// Engine shards created by `Engine::into_shards` share one profiler,
/// so a sharded server still aggregates into a single profile.
#[derive(Debug)]
pub struct ExecProfiler {
    enabled: AtomicBool,
    slices: [PrecisionSlice; 2],
}

impl ExecProfiler {
    /// Builds the (disabled) profiler for a compiled graph, with one
    /// slot per op for each precision the graph supports. Both
    /// precisions walk the graph's one op list, so their slot layouts
    /// agree by construction.
    pub fn for_graph(graph: &ExecutableGraph) -> Self {
        let mut labels = Vec::new();
        flatten_labels(graph.ops(), &mut labels);
        let slice_for = |precision| {
            if !graph.supports(precision) {
                return PrecisionSlice::default();
            }
            PrecisionSlice {
                labels: labels.clone(),
                stats: (0..labels.len()).map(|_| LayerStats::default()).collect(),
            }
        };
        ExecProfiler {
            enabled: AtomicBool::new(false),
            slices: Precision::ALL.map(slice_for),
        }
    }

    /// Whether graph passes currently record per-layer timings.
    pub fn is_enabled(&self) -> bool {
        // ordering: Relaxed — the switch gates only whether timings are
        // taken; a pass observing a stale value records (or skips) one
        // extra pass, which the profiling contract allows.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns profiling on or off. Takes `&self` — the switch is live on
    /// a served engine without exclusive access.
    pub fn set_enabled(&self, on: bool) {
        // ordering: Relaxed — flag-only toggle; no data is published
        // through it (see `is_enabled`).
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Zeroes every accumulated counter (the enable switch is kept).
    pub fn reset(&self) {
        for slice in &self.slices {
            for s in &slice.stats {
                s.reset();
            }
        }
    }

    /// The profiling slots of one precision, in execution order.
    pub(crate) fn layers(&self, precision: Precision) -> &[LayerStats] {
        &self.slices[precision.index()].stats
    }

    /// Aggregates the counters into an immutable [`ExecProfile`].
    pub fn snapshot(&self) -> ExecProfile {
        ExecProfile {
            simd_level: simd::active().label(),
            precisions: Precision::ALL
                .iter()
                .filter_map(|&p| {
                    let slice = &self.slices[p.index()];
                    if slice.stats.is_empty() {
                        return None;
                    }
                    Some(PrecisionProfile {
                        precision: p.label(),
                        layers: slice
                            .stats
                            .iter()
                            .zip(&slice.labels)
                            .enumerate()
                            .map(|(i, (s, label))| s.snapshot(i, label))
                            .collect(),
                    })
                })
                .collect(),
        }
    }

    /// [`ExecProfiler::snapshot`] gated on the enable switch — the
    /// accessor diagnostic snapshots use: `None` while profiling is
    /// off, so a forensics consumer never serializes a profile of
    /// zeros as if it were a measurement.
    pub fn snapshot_if_enabled(&self) -> Option<ExecProfile> {
        self.is_enabled().then(|| self.snapshot())
    }
}

/// Aggregated per-layer timings of one precision.
#[derive(Debug, Clone)]
pub struct PrecisionProfile {
    /// Precision label (`"f32"` / `"int8"`).
    pub precision: &'static str,
    /// Per-layer records in execution order.
    pub layers: Vec<LayerProfile>,
}

/// Aggregated profile of one executable layer.
#[derive(Debug, Clone)]
pub struct LayerProfile {
    /// Execution-order index within the precision's slots.
    pub layer: usize,
    /// The op's summary line (`Op::describe`).
    pub label: String,
    /// Graph passes that executed this layer.
    pub calls: u64,
    /// Images processed across those passes.
    pub images: u64,
    /// Wall time in the pad/quantise phase: the pass's prologue plus,
    /// for the band walk, the sum over its bands.
    pub pad_ns: u64,
    /// Wall time in the kernel walk, fused ReLU / requantisation
    /// included (whole-op time for non-convolution layers).
    pub kernel_ns: u64,
    /// `pad_ns + kernel_ns`.
    pub total_ns: u64,
    /// Kernel dispatches issued: band-walk calls (one per pass), or
    /// live kernels where the geometry has no tile.
    pub kernel_dispatches: u64,
    /// All-zero kernels skipped per pass.
    pub zero_kernels_skipped: u64,
    /// Bytes written by padding across passes: every band of every
    /// image for the band walk (a halo row counts once per band that
    /// holds it), the whole padded batch where the geometry has no
    /// tile.
    pub padded_bytes: u64,
    /// SIMD tier last dispatched (`"-"` until a conv pass records).
    pub simd_level: &'static str,
    /// Walk last run: `"band"`, `"band_vnni"` or `"per_kernel"` (`"-"`
    /// until a conv pass records).
    pub walk: &'static str,
}

impl LayerProfile {
    /// One JSON object: one element of a precision's `layers` array in
    /// [`ExecProfile::to_json`].
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.int("layer", self.layer)
                .str("label", &self.label)
                .int("calls", self.calls)
                .int("images", self.images)
                .int("pad_ns", self.pad_ns)
                .int("kernel_ns", self.kernel_ns)
                .int("total_ns", self.total_ns)
                .int("kernel_dispatches", self.kernel_dispatches)
                .int("zero_kernels_skipped", self.zero_kernels_skipped)
                .int("padded_bytes", self.padded_bytes)
                .str("simd_level", self.simd_level)
                .str("walk", self.walk);
        })
    }
}

/// One precision's wall time pooled across layers, split by phase —
/// the engine-side counterpart of a serving span's execute segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSplit {
    /// Padded-plane construction (incl. quantisation on int8).
    pub pad_ns: u64,
    /// The kernel walk, fused ReLU / requantisation included.
    pub kernel_ns: u64,
}

impl PhaseSplit {
    /// Sum of the two phases.
    pub fn total_ns(&self) -> u64 {
        self.pad_ns + self.kernel_ns
    }

    /// Each phase's share of the total, in `(pad, kernel)` order; both
    /// zero when nothing was recorded.
    pub fn fractions(&self) -> (f64, f64) {
        let total = self.total_ns();
        if total == 0 {
            return (0.0, 0.0);
        }
        let t = total as f64;
        (self.pad_ns as f64 / t, self.kernel_ns as f64 / t)
    }
}

/// Immutable aggregate snapshot of an [`ExecProfiler`].
#[derive(Debug, Clone)]
pub struct ExecProfile {
    /// The process-wide SIMD tier (`pcnn_tensor::simd::active`).
    pub simd_level: &'static str,
    /// Per-precision layer records (precisions the graph supports).
    pub precisions: Vec<PrecisionProfile>,
}

impl ExecProfile {
    /// Sum of per-layer `total_ns` for one precision (0 when absent).
    pub fn total_ns(&self, precision: Precision) -> u64 {
        self.precisions
            .iter()
            .find(|p| p.precision == precision.label())
            .map_or(0, |p| p.layers.iter().map(|l| l.total_ns).sum())
    }

    /// The precision's phase totals pooled across layers, or `None` when
    /// it recorded nothing. This is the read-side summary the
    /// serving-side latency attribution cross-references: it splits a
    /// span's opaque execute segment into pad/kernel shares.
    pub fn phase_split(&self, precision: Precision) -> Option<PhaseSplit> {
        let p = self
            .precisions
            .iter()
            .find(|p| p.precision == precision.label())?;
        let mut split = PhaseSplit {
            pad_ns: 0,
            kernel_ns: 0,
        };
        for l in &p.layers {
            split.pad_ns += l.pad_ns;
            split.kernel_ns += l.kernel_ns;
        }
        (split.total_ns() > 0).then_some(split)
    }

    /// The whole profile as one JSON document.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("simd_level", self.simd_level)
                .array("precisions", |a| {
                    for p in &self.precisions {
                        a.object(|o| {
                            o.str("precision", p.precision).raw_array(
                                "layers",
                                &p.layers,
                                LayerProfile::to_json,
                            );
                        });
                    }
                });
        })
    }

    /// The profile in Prometheus text exposition format, appended to the
    /// serving metrics by `pcnn_serve::Server::render_prometheus`.
    pub fn render_prometheus(&self) -> String {
        let mut o = String::new();
        o.push_str(
            "# HELP pcnn_profile_layer_seconds_total Per-layer wall time by phase \
             (pad/quantise, kernel).\n",
        );
        o.push_str("# TYPE pcnn_profile_layer_seconds_total counter\n");
        for p in &self.precisions {
            for l in &p.layers {
                for (phase, ns) in [("pad", l.pad_ns), ("kernel", l.kernel_ns)] {
                    o.push_str(&format!(
                        "pcnn_profile_layer_seconds_total{{precision=\"{}\",layer=\"{}\",phase=\"{}\"}} {}\n",
                        p.precision,
                        l.layer,
                        phase,
                        ns as f64 * 1e-9
                    ));
                }
            }
        }
        o.push_str("# HELP pcnn_profile_layer_calls_total Graph passes that executed the layer.\n");
        o.push_str("# TYPE pcnn_profile_layer_calls_total counter\n");
        for p in &self.precisions {
            for l in &p.layers {
                o.push_str(&format!(
                    "pcnn_profile_layer_calls_total{{precision=\"{}\",layer=\"{}\"}} {}\n",
                    p.precision, l.layer, l.calls
                ));
            }
        }
        o.push_str(
            "# HELP pcnn_profile_layer_kernel_dispatches_total Compiled kernel dispatches issued.\n",
        );
        o.push_str("# TYPE pcnn_profile_layer_kernel_dispatches_total counter\n");
        for p in &self.precisions {
            for l in &p.layers {
                o.push_str(&format!(
                    "pcnn_profile_layer_kernel_dispatches_total{{precision=\"{}\",layer=\"{}\"}} {}\n",
                    p.precision, l.layer, l.kernel_dispatches
                ));
            }
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_dense;
    use crate::quant_conv::QuantOptions;
    use pcnn_nn::models;
    use pcnn_tensor::Tensor;

    #[test]
    fn profiled_run_matches_plain_and_fills_every_slot() {
        let graph = compile_dense(&models::tiny_cnn(4, 4, 3));
        let profiler = ExecProfiler::for_graph(&graph);
        profiler.set_enabled(true);
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let want = graph.run(&x);
        let got = graph.run_profiled(&x, Precision::F32, &profiler);
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 0.0);
        let profile = profiler.snapshot();
        let f32p = &profile.precisions[0];
        assert_eq!(f32p.precision, "f32");
        assert_eq!(f32p.layers.len(), graph.ops().len());
        for l in &f32p.layers {
            assert_eq!(l.calls, 1, "layer {} ({})", l.layer, l.label);
            assert_eq!(l.images, 2);
        }
        assert!(profile.total_ns(Precision::F32) > 0);
    }

    #[test]
    fn dual_precision_graphs_profile_both_lowerings() {
        let graph = compile_dense(&models::tiny_cnn(4, 4, 3)).with_int8(&QuantOptions::default());
        let profiler = ExecProfiler::for_graph(&graph);
        profiler.set_enabled(true);
        let x = Tensor::ones(&[1, 3, 8, 8]);
        let _ = graph.run_profiled(&x, Precision::F32, &profiler);
        let _ = graph.run_profiled(&x, Precision::Int8, &profiler);
        let profile = profiler.snapshot();
        assert_eq!(profile.precisions.len(), 2);
        assert!(profile.total_ns(Precision::Int8) > 0);
        // Both precisions walk one op list, so the slot counts agree.
        assert_eq!(
            profile.precisions[0].layers.len(),
            profile.precisions[1].layers.len()
        );
        profiler.reset();
        let profile = profiler.snapshot();
        assert_eq!(profile.total_ns(Precision::F32), 0);
    }

    #[test]
    fn residual_blocks_flatten_with_a_combine_slot() {
        let graph = compile_dense(&models::resnet18_proxy(
            &models::ResNetProxyConfig::default(),
            3,
        ));
        let profiler = ExecProfiler::for_graph(&graph);
        profiler.set_enabled(true);
        let combines = profiler.slices[0]
            .labels
            .iter()
            .filter(|l| l.starts_with("Residual(combine)"))
            .count();
        assert!(combines > 0, "proxy carries residual blocks");
        let x = Tensor::ones(&[1, 3, 16, 16]);
        let want = graph.run(&x);
        let got = graph.run_profiled(&x, Precision::F32, &profiler);
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 0.0);
        // Every slot — residual internals included — saw the pass.
        for l in &profiler.snapshot().precisions[0].layers {
            assert_eq!(l.calls, 1, "slot {} ({})", l.layer, l.label);
        }
    }

    #[test]
    fn phase_split_pools_layers_and_reports_fractions() {
        let graph = compile_dense(&models::tiny_cnn(4, 4, 3));
        let profiler = ExecProfiler::for_graph(&graph);
        profiler.set_enabled(true);
        let _ = graph.run_profiled(&Tensor::ones(&[1, 3, 8, 8]), Precision::F32, &profiler);
        let profile = profiler.snapshot();
        let split = profile.phase_split(Precision::F32).expect("f32 recorded");
        assert_eq!(split.total_ns(), profile.total_ns(Precision::F32));
        let (pad, kernel) = split.fractions();
        assert!((pad + kernel - 1.0).abs() < 1e-9);
        assert!(kernel > 0.0, "conv kernels always record kernel time");
        // The int8 weights were never compiled, let alone run.
        assert!(profile.phase_split(Precision::Int8).is_none());
    }

    #[test]
    fn conv_layers_name_the_walk_they_ran() {
        // The narrow proxy's 16-, 8- and 4-wide planes have a tile, its
        // 2- and 1-wide ones run one dispatch per kernel. int8 takes the
        // AVX-VNNI walk where `has_vnni` holds for the process's tier —
        // never at the scalar one `PCNN_FORCE_SCALAR=1` pins — on layers
        // of at least `VNNI_MIN_OUT_C` (16) output channels: all but the
        // first two, which have 8.
        use crate::compile::{prune_and_compile_quant, CompileOptions};
        use pcnn_tensor::direct::has_vnni;
        let mut model = models::vgg16_proxy(&models::VggProxyConfig::default(), 7);
        let (graph, _, _) = prune_and_compile_quant(
            &mut model,
            &pcnn_core::PrunePlan::uniform(13, 4, 8),
            &CompileOptions::default(),
            &QuantOptions::default(),
        )
        .expect("the proxy lowers");
        let profiler = ExecProfiler::for_graph(&graph);
        profiler.set_enabled(true);
        let x = Tensor::ones(&[2, 3, 16, 16]);
        for precision in Precision::ALL {
            let _ = graph.run_profiled(&x, precision, &profiler);
        }
        let int8_band = if has_vnni(simd::active()) {
            "band_vnni"
        } else {
            "band"
        };
        let profile = profiler.snapshot();
        for (p, band) in profile.precisions.iter().zip(["band", int8_band]) {
            let walks: Vec<&str> = p
                .layers
                .iter()
                .filter(|l| l.label.starts_with("PatternConv"))
                .map(|l| l.walk)
                .collect();
            assert_eq!(walks.len(), 13);
            assert_eq!(walks[..2], ["band"; 2], "{}", p.precision);
            assert_eq!(walks[2..7], [band; 5], "{}", p.precision);
            assert_eq!(walks[7..], ["per_kernel"; 6], "{}", p.precision);
            assert!(p.layers.iter().any(|l| l.walk == "-"), "pools record none");
        }
        assert!(profile
            .to_json()
            .contains(&format!("\"walk\":\"{int8_band}\"")));
    }

    #[test]
    fn profile_json_is_brace_balanced() {
        let graph = compile_dense(&models::tiny_cnn(4, 4, 2));
        let profiler = ExecProfiler::for_graph(&graph);
        profiler.set_enabled(true);
        let _ = graph.run_profiled(&Tensor::ones(&[1, 3, 8, 8]), Precision::F32, &profiler);
        let json = profiler.snapshot().to_json();
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(json.contains("\"simd_level\""));
        assert!(json.contains("\"pad_ns\""));
        let prom = profiler.snapshot().render_prometheus();
        assert!(prom.contains(
            "pcnn_profile_layer_seconds_total{precision=\"f32\",layer=\"0\",phase=\"kernel\"}"
        ));
    }
}
