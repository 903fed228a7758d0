//! End-to-end **quantised** pattern-sparse inference through
//! `pcnn-runtime` and `pcnn-serve`.
//!
//! ```text
//! cargo run --release --example quant_inference [-- --smoke]
//! ```
//!
//! 1. Takes a real VGG-16 convolution layer (conv2: 64→64 at 32×32 from
//!    the paper's shape zoo), prunes it onto the full n = 2 pattern set,
//!    quantises the SPM sequences to int8, and times the integer kernels
//!    against both the f32 pattern kernels and dense im2col.
//! 2. Lowers the VGG-16-topology proxy through `compile_quant` (one
//!    compiled topology, two precisions), reports int8 accuracy against
//!    the f32 path and the dequantise-then-f32 reference, the SPM
//!    storage win of 8-bit weights, and per layer the walk each
//!    precision ran (`band`, `band_vnni` on CPUs with AVX-VNNI, or
//!    `per_kernel`) with its int8/f32 time ratio.
//! 3. Serves mixed-precision traffic through `pcnn-serve`, printing the
//!    precision-labeled telemetry.

use pcnn::core::project::project_onto_set;
use pcnn::core::{PatternSet, PrunePlan};
use pcnn::nn::models::{vgg16_proxy, VggProxyConfig};
use pcnn::nn::zoo::vgg16_cifar;
use pcnn::runtime::compile::{prune_and_compile_quant, CompileOptions};
use pcnn::runtime::{Engine, PatternConv, Precision, QuantOptions};
use pcnn::serve::{Priority, ServeConfig, Server, ShutdownMode};
use pcnn::tensor::conv::{conv2d_forward, Conv2dShape};
use pcnn::tensor::Tensor;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::time::Instant;

fn random_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        shape,
    )
}

fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn rel_error(got: &Tensor, want: &Tensor) -> f32 {
    let num: f32 = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .map(|(a, b)| (a - b).powi(2))
        .sum();
    (num / want.sq_norm().max(1e-12)).sqrt()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 2 } else { 10 };

    // --- 1. One real VGG-16 layer: f32 vs int8 pattern kernels --------
    let net = vgg16_cifar();
    let spec = &net.convs[1]; // conv2: 64 -> 64 at 32x32
    let shape = Conv2dShape::new(spec.in_c, spec.out_c, 3, spec.stride, spec.pad);
    let n = 2usize;
    let set = PatternSet::full(9, n);
    let mut weight = random_tensor(&[spec.out_c, spec.in_c, 3, 3], 1);
    for kernel in weight.as_mut_slice().chunks_mut(9) {
        let _ = project_onto_set(kernel, &set);
    }
    let x = random_tensor(&[1, spec.in_c, spec.in_h, spec.in_w], 2);

    let sparse = PatternConv::from_dense(&weight, shape, &set)
        .expect("projected weights conform")
        .with_int8(&QuantOptions::default());
    println!(
        "layer {} ({}x{}x3x3 at {}x{}, n={n}): weight scale {:.3e}, {} kernels",
        spec.name,
        spec.out_c,
        spec.in_c,
        spec.in_h,
        spec.in_w,
        sparse.weight_params().expect("int8 weights").scale,
        spec.kernels(),
    );
    let dense_s = time(reps, || conv2d_forward(&x, &weight, None, &shape));
    let f32_s = time(reps, || sparse.forward(&x));
    let int8_s = time(reps, || sparse.forward_with(&x, Precision::Int8));
    println!(
        "dense im2col {:7.2} ms   f32 pattern {:7.2} ms   int8 pattern {:7.2} ms   (int8 vs f32: {:.2}x)",
        dense_s * 1e3,
        f32_s * 1e3,
        int8_s * 1e3,
        f32_s / int8_s
    );
    let err = rel_error(
        &sparse.forward_with(&x, Precision::Int8),
        &sparse.forward(&x),
    );
    println!("int8 vs f32 relative error: {err:.2e} (quantisation noise)\n");

    // --- 2. Whole network through compile_quant ------------------------
    let cfg = VggProxyConfig::default();
    let mut model = vgg16_proxy(&cfg, 3);
    let plan = PrunePlan::uniform(13, n, 32);
    let (graph, report, _) = prune_and_compile_quant(
        &mut model,
        &plan,
        &CompileOptions::default(),
        &QuantOptions::default(),
    )
    .expect("proxy lowers cleanly");
    // 8-bit weights shrink only the weight bits; codes and tables stay.
    let spm8 = report.spm_weight_bits / 4 + report.spm_index_bits + report.spm_table_bits;
    println!(
        "compiled VGG-16 proxy: {} pattern conv ops, {} carrying int8 weights",
        report.sparse_layers,
        graph.quant_op_count(),
    );
    println!(
        "SPM storage: {:.2}x at fp32, {:.2}x with int8 weight sequences (vs fp32 dense)",
        report.compression(),
        report.dense_bits as f64 / spm8 as f64,
    );
    let xb = random_tensor(&[4, 3, cfg.input_hw, cfg.input_hw], 7);
    let f32_out = graph.run_with(&xb, Precision::F32);
    let int8_out = graph.run_with(&xb, Precision::Int8);
    let reference = graph.run_int8_reference(&xb);
    println!(
        "int8 vs dequantised reference: max |Δ| {:.2e} (must be < 1e-5)   int8 vs f32: rel {:.2e}",
        int8_out
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max),
        rel_error(&int8_out, &f32_out),
    );
    assert!(int8_out
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .all(|(a, b)| (a - b).abs() < 1e-5));
    let g_f32 = time(reps, || graph.run_with(&xb, Precision::F32));
    let g_int8 = time(reps, || graph.run_with(&xb, Precision::Int8));
    println!(
        "batch-4 graph pass: f32 {:.2} ms   int8 {:.2} ms   ({:.2}x)",
        g_f32 * 1e3,
        g_int8 * 1e3,
        g_f32 / g_int8
    );
    // Per layer, from the engine's execution profile: which walk each
    // precision ran, and int8 time over f32 time (below 1 = int8 wins).
    let profiled = Engine::new(graph.clone(), 1);
    profiled.enable_profiling();
    for _ in 0..reps {
        for precision in Precision::ALL {
            std::hint::black_box(profiled.infer_with(&xb, precision));
        }
    }
    let profile = profiled.exec_profile();
    let layers = |p: Precision| {
        let slot = profile.precisions.iter().find(|s| s.precision == p.label());
        slot.expect("both precisions profiled").layers.clone()
    };
    println!(
        "{:<46} {:>10} {:>10} {:>10}",
        "conv layer", "f32 walk", "int8 walk", "int8/f32"
    );
    for (f, q) in layers(Precision::F32).iter().zip(&layers(Precision::Int8)) {
        if f.label.starts_with("PatternConv") {
            let label: String = f.label.chars().take(46).collect();
            let ratio = q.total_ns as f64 / f.total_ns.max(1) as f64;
            println!("{label:<46} {:>10} {:>10} {ratio:>10.2}", f.walk, q.walk);
        }
    }
    println!();

    // --- 3. Mixed-precision serving ------------------------------------
    let engine = Engine::new(graph, 2);
    let server = Server::start(
        engine,
        ServeConfig {
            precision: Precision::Int8,
            ..ServeConfig::default()
        },
    );
    let requests = if smoke { 8 } else { 48 };
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            let x = random_tensor(&[1, 3, cfg.input_hw, cfg.input_hw], 100 + i as u64);
            // Default precision is int8; every third request opts back
            // into f32 per request.
            if i % 3 == 0 {
                server
                    .submit_with(x, Priority::Normal, Precision::F32)
                    .expect("admitted")
            } else {
                server.submit(x).expect("admitted")
            }
        })
        .collect();
    for t in tickets {
        t.wait().expect("served");
    }
    let snap = server.metrics().snapshot();
    println!("served {requests} mixed-precision requests:\n{snap}");
    for p in &snap.precisions {
        assert!(p.completed > 0, "both precisions saw traffic");
    }
    let report = server.shutdown(ShutdownMode::Drain);
    assert_eq!(report.completed as usize, requests);
    println!(
        "\ndrained: {} completed, {} aborted",
        report.completed, report.aborted
    );
}
