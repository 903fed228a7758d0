//! Output checksums pinned across kernel changes.
//!
//! Each checksum folds `f32::to_bits` of the outputs
//! [`Engine::infer_coalesced_at`] returns and then of every op's
//! activations along a stepwise walk of the same batch, so a difference
//! a later ReLU or max-pool would hide still shows. A kernel change that
//! keeps every output's rounding sequence must leave the table alone.
//!
//! The `Int8` rows were recorded on the commit before the band-resident
//! walk (oc-major tile walk over a whole-batch padded scratch) and have
//! not moved since: integer sums are exact, and the requantisation step
//! is unchanged. They hold across all three int8 walks — the AVX2 tile,
//! the scalar tile and, on CPUs with AVX-VNNI, `band_walk_vnni`, which
//! the wide proxy's layers take there (every one has at least 16 output
//! channels). The `F32` rows were re-recorded once, when every f32
//! pattern-conv accumulation became one fused multiply-add per tap
//! (seed with the bias, then for each live kernel in ascending `ic`
//! fuse each tap in pattern order into the running value). That
//! changes the rounding on purpose; `tests/proptests.rs` holds the
//! fused sums to an f64 reference and to the unfused sums they
//! replaced.
//!
//! Both tiers produce the same bits (one kernel source, and a fused
//! multiply-add is correctly rounded on both), so one table serves AVX2
//! and `PCNN_FORCE_SCALAR=1`; the second test re-runs the first in a
//! child process with the variable exported, because the dispatch
//! decision is cached per process.

use pcnn_core::PrunePlan;
use pcnn_nn::models::{vgg16_proxy, VggProxyConfig};
use pcnn_runtime::compile::{prune_and_compile_quant, CompileOptions};
use pcnn_runtime::engine::BatchScratch;
use pcnn_runtime::{Engine, ExecutableGraph, Precision, QuantOptions};
use pcnn_tensor::Tensor;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// `(network, n, batch, precision, checksum)`, recorded as the module
/// docs say.
const PINNED: [(&str, usize, usize, Precision, u64); 8] = [
    ("wide", 4, 1, Precision::F32, 0xef3e_d5ef_1de8_aba3),
    ("wide", 4, 1, Precision::Int8, 0x1533_886f_b6f7_e0d0),
    ("wide", 4, 8, Precision::F32, 0x0c8d_282e_f8c5_4a3b),
    ("wide", 4, 8, Precision::Int8, 0x88c2_ae2c_e8b3_37d2),
    ("tiny", 2, 1, Precision::F32, 0xaa6f_5b7c_f80c_8a48),
    ("tiny", 2, 1, Precision::Int8, 0xb38a_df1e_2691_237e),
    ("tiny", 2, 8, Precision::F32, 0x55cd_4229_ed67_c439),
    ("tiny", 2, 8, Precision::Int8, 0xbe55_0aeb_9ae1_69af),
];

/// The CIFAR-width proxy of the benchmark's wide workloads.
fn wide_cfg() -> VggProxyConfig {
    VggProxyConfig {
        widths: [32, 32, 48, 48, 64, 64, 64, 96, 96, 96, 96, 96, 96],
        pools_after: vec![7, 10],
        input_hw: 16,
        num_classes: 10,
    }
}

fn graph(network: &str, n: usize) -> ExecutableGraph {
    let (cfg, seed) = match network {
        "wide" => (wide_cfg(), 0x5eed_0001),
        _ => (VggProxyConfig::default(), 0x5eed_0002),
    };
    let mut model = vgg16_proxy(&cfg, seed);
    let (graph, report, _) = prune_and_compile_quant(
        &mut model,
        &PrunePlan::uniform(13, n, 32),
        &CompileOptions::default(),
        &QuantOptions::default(),
    )
    .expect("the VGG-16 proxy lowers cleanly");
    assert_eq!(report.sparse_layers, 13);
    graph
}

fn fnv1a(hash: &mut u64, values: &[f32]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn checksum(graph: &ExecutableGraph, batch: usize, precision: Precision) -> u64 {
    let mut rng = SmallRng::seed_from_u64(0x000b_171d + batch as u64);
    let requests: Vec<Tensor> = (0..batch)
        .map(|_| {
            Tensor::from_vec(
                (0..3 * 16 * 16)
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect(),
                &[1, 3, 16, 16],
            )
        })
        .collect();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;

    let engine = Engine::new(graph.clone(), 1);
    let outputs = engine.infer_coalesced_at(precision, requests.clone(), &mut BatchScratch::new());
    assert_eq!(outputs.len(), batch);
    for y in &outputs {
        fnv1a(&mut hash, y.as_slice());
    }

    let stacked: Vec<f32> = requests
        .iter()
        .flat_map(|x| x.as_slice().iter().copied())
        .collect();
    let mut cur = Tensor::from_vec(stacked, &[batch, 3, 16, 16]);
    for op in graph.ops() {
        cur = op.run_at(&cur, precision);
        fnv1a(&mut hash, cur.as_slice());
    }
    hash
}

#[test]
fn outputs_are_bit_identical_to_the_parent_commit() {
    let mut failures = Vec::new();
    for network in ["wide", "tiny"] {
        let n = PINNED
            .iter()
            .find(|case| case.0 == network)
            .expect("network has cases")
            .1;
        let graph = graph(network, n);
        for &(_, _, batch, precision, want) in PINNED.iter().filter(|case| case.0 == network) {
            let got = checksum(&graph, batch, precision);
            // A `PINNED` row, for re-recording with `--nocapture`.
            println!("(\"{network}\", {n}, {batch}, Precision::{precision:?}, {got:#018x}),");
            if got != want {
                failures.push(format!(
                    "{network} n={n} batch={batch} {precision}: {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "outputs differ from the pinned checksums on tier {}:\n{}",
        pcnn_tensor::simd::active(),
        failures.join("\n")
    );
}

#[test]
fn outputs_are_bit_identical_to_the_parent_commit_forced_scalar() {
    let exe = std::env::current_exe().expect("test binary path");
    let child = std::process::Command::new(exe)
        .args(["--exact", "outputs_are_bit_identical_to_the_parent_commit"])
        .env("PCNN_FORCE_SCALAR", "1")
        .output()
        .expect("re-run the test binary");
    assert!(
        child.status.success(),
        "forced-scalar run failed:\n{}\n{}",
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr)
    );
}
