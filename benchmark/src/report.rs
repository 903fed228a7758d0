//! Metric tables (names are normative), the run header, and the result
//! line and files.

use crate::json::Json;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a PR is rejected.
    pub bound: f64,
}

/// One per-layer metric of the traced run. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats bit for bit for a seed: a count, or simulated time.
    pub exact: bool,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, with the bounds `BENCHMARK.json` repeats.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
];

const fn timed(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// The per-layer metrics, layer by layer. `serve.*` read 0 on the two
/// workloads that bypass `serve`: that the layer did nothing is the
/// measurement.
pub const PER_LAYER: [PerLayer; 72] = [
    timed("tensor.f32_sparse_gmacs", "GMAC/s", Higher),
    timed("tensor.f32_dense9_gmacs", "GMAC/s", Higher),
    timed("tensor.i8_sparse_gmacs", "GMAC/s", Higher),
    timed("tensor.pad_plane_ns", "ns/plane", Lower),
    timed("tensor.pad_quant_plane_ns", "ns/plane", Lower),
    timed("tensor.pad_plane_4x4_ns", "ns/plane", Lower),
    timed("tensor.pad_quant_plane_4x4_ns", "ns/plane", Lower),
    timed("tensor.pool_roundtrip_us", "us", Lower),
    timed("nn.dense_forward_ms", "ms", Lower),
    timed("core.distill_ms", "ms", Lower),
    timed("core.project_ms", "ms", Lower),
    timed("core.spm_encode_ms", "ms", Lower),
    exact("core.kernels", "count", Lower),
    exact("core.patterns_used", "count", Lower),
    exact("core.index_overhead_pct", "%", Lower),
    timed("runtime.compile_f32_ms", "ms", Lower),
    timed("runtime.compile_int8_ms", "ms", Lower),
    exact("runtime.pattern_groups", "count", Lower),
    exact("runtime.dispatches_per_image", "count", Lower),
    exact("runtime.skipped_kernels", "count", Higher),
    exact("compression_x", "x", Higher),
    exact("sim_speedup_x", "x", Higher),
    timed("accel.sim_host_ms", "ms", Lower),
    timed("accel.sim_gmacs_per_host_s", "GMAC/s", Higher),
    exact("accel.sim_cycles", "cycles", Lower),
    exact("accel.dense_cycles", "cycles", Lower),
    exact("accel.utilization", "ratio", Higher),
    exact("accel.speedup_err_vs_ideal_pct", "%", Lower),
    timed("accel.exec_conv_host_ms", "ms", Lower),
    exact("accel.exec_conv_cycles", "cycles", Lower),
    exact("accel.exec_conv_max_abs_err", "abs", Lower),
    timed("runtime.graph_run_b1_ms", "ms", Lower),
    timed("runtime.graph_run_b1_int8_ms", "ms", Lower),
    exact("runtime.allocs_per_image", "count", Lower),
    exact("runtime.alloc_bytes_per_image", "bytes", Lower),
    timed("runtime.op_ms.conv3x3", "ms", Lower),
    timed("runtime.op_ms.other", "ms", Lower),
    timed("runtime.infer_coalesced_b8_ms", "ms", Lower),
    timed("runtime.ideal_fraction", "ratio", Higher),
    timed("runtime.vs_im2col_x", "x", Higher),
    timed("runtime.int8_vs_f32_x", "x", Higher),
    timed("serve.submit_us", "us", Lower),
    timed("serve.overhead_ms", "ms", Lower),
    timed("serve.vs_engine_x", "ratio", Higher),
    timed("serve.mean_batch", "count", Higher),
    timed("serve.batches", "count", Lower),
    timed("serve.queue_wait_p50_ms", "ms", Lower),
    timed("serve.queue_depth_hwm", "count", Lower),
    timed("serve.rejected", "count", Lower),
    timed("serve.failed", "count", Lower),
    timed("serve.expired", "count", Lower),
    timed("serve.retries", "count", Lower),
    timed("serve.latency_p99_ms", "ms", Lower),
    timed("serve.schedule_lag_p99_ms", "ms", Lower),
    timed("serve.drain_ms", "ms", Lower),
    timed("serve.allocs_per_request", "count", Lower),
    timed("span_self_ms.bench", "ms", Lower),
    timed("span_self_ms.serve", "ms", Lower),
    timed("span_self_ms.runtime", "ms", Lower),
    timed("span_self_ms.core", "ms", Lower),
    timed("span_self_ms.accel", "ms", Lower),
    timed("span_self_ms.nn", "ms", Lower),
    timed("bench.trace_overhead_pct", "%", Lower),
    timed("bench.span_closure_err_pct", "%", Lower),
    timed("bench.traced_ops", "count", Higher),
    timed("bench.quiet_pool_samples", "count", Higher),
    timed("bench.quiet_throughput_ops_s", "ops/s", Higher),
    timed("bench.quiet_latency_p50_ms", "ms", Lower),
    timed("bench.typical_throughput_ops_s", "ops/s", Higher),
    timed("bench.typical_latency_p50_ms", "ms", Lower),
    timed("bench.typical_latency_p90_ms", "ms", Lower),
    timed("failed_share", "fraction", Lower),
];

/// Layers that record spans (the prefixes of span names), each with the
/// metric that carries its self time per operation.
pub const SPAN_LAYERS: [(&str, &str); 6] = [
    ("bench", "span_self_ms.bench"),
    ("serve", "span_self_ms.serve"),
    ("runtime", "span_self_ms.runtime"),
    ("core", "span_self_ms.core"),
    ("accel", "span_self_ms.accel"),
    ("nn", "span_self_ms.nn"),
];

/// Who ran what, stamped on every result.
#[derive(Debug, Clone)]
pub struct Header {
    pub workload: String,
    pub cpu_model: String,
    pub nproc: usize,
    pub simd: &'static str,
    pub git_sha: String,
    pub rustc: String,
    pub seed: u64,
    pub window_s: f64,
    pub windows: usize,
    pub trace: bool,
    pub smoke: bool,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout in the working directory, read from
/// `.git` directly (the benchmark reads nothing outside its checkout,
/// and a driver's checkout has no `.git`).
fn git_sha() -> String {
    let git = Path::new(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Header {
    pub fn collect(
        workload: &str,
        seed: u64,
        window_s: f64,
        windows: usize,
        trace: bool,
        smoke: bool,
    ) -> Self {
        Header {
            workload: workload.to_string(),
            cpu_model: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: pcnn_tensor::simd::active().label(),
            git_sha: git_sha(),
            rustc: rustc_version(),
            seed,
            window_s,
            windows,
            trace,
            smoke,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("simd", Json::str(self.simd)),
            ("git_sha", Json::str(&self.git_sha)),
            ("rustc", Json::str(&self.rustc)),
            ("seed", Json::Num(self.seed as f64)),
            ("window_s", Json::Num(self.window_s)),
            ("windows", Json::Num(self.windows as f64)),
            ("trace", Json::Bool(self.trace)),
            ("smoke", Json::Bool(self.smoke)),
        ])
    }

    pub fn banner(&self) -> String {
        format!(
            "# {} | {} | nproc {} | simd {} | git {} | {} | seed {} | {} windows x {} s | trace {} | smoke {}",
            self.workload,
            self.cpu_model,
            self.nproc,
            self.simd,
            self.git_sha,
            self.rustc,
            self.seed,
            self.windows,
            self.window_s,
            self.trace,
            self.smoke
        )
    }
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(*value)),
                                ("unit", Json::str(unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Where results and traces go: under the build's target directory,
/// never the repo root; smoke runs in their own subdirectory so they can
/// never be mistaken for, or overwrite, a full run.
pub fn output_dir(smoke: bool) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let dir = target.join("benchmark");
    if smoke {
        dir.join("smoke")
    } else {
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        for w in &crate::workloads::WORKLOADS {
            assert!(valid_name(w.name));
            assert!(seen.insert(w.name), "{} clashes with a metric", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` repeats these tables for the driver; the two
    /// must not drift.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.label());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.label());
        }
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }

    #[test]
    fn result_line_round_trips_with_exactly_four_keys() {
        let line = result_json(
            true,
            1000,
            0,
            &[
                ("latency_p50_ms".to_string(), 1.203_456_789_012, "ms"),
                ("setup_s".to_string(), 0.8127, "s"),
            ],
        )
        .render();
        let back = Json::parse(&line).unwrap();
        let keys: Vec<&str> = back
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("attempted").and_then(Json::as_f64), Some(1000.0));
        let p50 = back
            .get("metrics")
            .and_then(|m| m.get("latency_p50_ms"))
            .unwrap();
        assert_eq!(
            p50.get("value").and_then(Json::as_f64),
            Some(1.203_456_789_012)
        );
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn smoke_results_live_apart() {
        assert!(output_dir(true).ends_with("benchmark/smoke"));
        assert!(output_dir(false).ends_with("benchmark"));
    }
}
