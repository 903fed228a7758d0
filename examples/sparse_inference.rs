//! End-to-end pattern-sparse inference through `pcnn-runtime`.
//!
//! ```text
//! cargo run --release --example sparse_inference
//! ```
//!
//! 1. Takes a real VGG-16 convolution layer (conv2: 64→64 at 32×32 from
//!    the paper's shape zoo), prunes its weights onto the full n = 2
//!    pattern set, and times the compiled pattern kernels against the
//!    same layer unpruned (n = 9) through the same walk — the software
//!    analogue of the paper's `9/n` accelerator speedup claim. The dense
//!    im2col path is timed too, labelled as such: it is a different,
//!    slower algorithm, so its ratio says nothing about `9/n`.
//! 2. Prunes the VGG-16-topology proxy network with a `PrunePlan`,
//!    lowers it through the layer compiler (BN folded, ReLU fused), and
//!    runs 16 requests through the engine as coalesced batches.

use pcnn::core::project::project_onto_set;
use pcnn::core::{PatternSet, PrunePlan};
use pcnn::nn::models::{vgg16_proxy, VggProxyConfig};
use pcnn::nn::zoo::vgg16_cifar;
use pcnn::runtime::compile::{prune_and_compile, CompileOptions};
use pcnn::runtime::engine::BatchScratch;
use pcnn::runtime::{Engine, PatternConv};
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

fn main() {
    // --- 1. One real VGG-16 layer at n = 2 -----------------------------
    let net = vgg16_cifar();
    let spec = &net.convs[1]; // conv2: 64 -> 64 at 32x32, the first heavy layer
    println!(
        "layer {} ({}x{}x3x3 at {}x{}, {:.1} MMACs dense)",
        spec.name,
        spec.out_c,
        spec.in_c,
        spec.in_h,
        spec.in_w,
        spec.macs() as f64 / 1e6
    );

    let shape = Conv2dShape::new(spec.in_c, spec.out_c, 3, spec.stride, spec.pad);
    let n = 2usize;
    let set = PatternSet::full(9, n);
    let mut weight = random_tensor(&[spec.out_c, spec.in_c, 3, 3], 1);
    // The unpruned layer is the one 9-tap pattern: the same walk at n = 9.
    let full = PatternConv::from_dense(&weight, shape, &PatternSet::full(9, 9))
        .expect("a dense 3x3 kernel is the 9-tap pattern");
    for kernel in weight.as_mut_slice().chunks_mut(9) {
        let _ = project_onto_set(kernel, &set);
    }
    let x = random_tensor(&[1, spec.in_c, spec.in_h, spec.in_w], 2);

    let sparse = PatternConv::from_dense(&weight, shape, &set).expect("projected weights conform");
    let reps = 5;
    let full_s = time(reps, || full.forward(&x));
    let sparse_s = time(reps, || sparse.forward(&x));
    let im2col_s = time(reps, || conv2d_forward(&x, &weight, None, &shape));
    println!(
        "pattern walk, n=9: {:7.2} ms   n={n}: {:7.2} ms   speedup: {:.2}x (ideal 9/n = {:.2}x)",
        full_s * 1e3,
        sparse_s * 1e3,
        full_s / sparse_s,
        9.0 / n as f64
    );
    println!(
        "dense im2col:      {:7.2} ms   speedup vs im2col: {:.2}x (a different algorithm, not 9/n)\n",
        im2col_s * 1e3,
        im2col_s / sparse_s
    );

    // --- 2. Whole network: prune, lower, run ---------------------------
    let cfg = VggProxyConfig::default();
    let mut model = vgg16_proxy(&cfg, 3);
    let plan = PrunePlan::uniform(13, n, 32);
    let (graph, report, _) = prune_and_compile(&mut model, &plan, &CompileOptions::default())
        .expect("proxy lowers cleanly");
    println!(
        "compiled VGG-16 proxy: {} sparse + {} dense ops, SPM compression {:.2}x",
        report.sparse_layers,
        report.dense_layers,
        report.compression()
    );
    for line in graph.summary().iter().take(4) {
        println!("  {line}");
    }
    println!("  ...");

    let engine = Engine::with_default_threads(graph);
    let batch: Vec<Tensor> = (0..16)
        .map(|i| random_tensor(&[1, 3, cfg.input_hw, cfg.input_hw], 10 + i))
        .collect();
    let start = Instant::now();
    let outputs = engine.infer_coalesced(batch, &mut BatchScratch::new());
    let wall = start.elapsed().as_secs_f64();
    println!(
        "ran {} requests as coalesced batches on {} workers: {:.1} req/s",
        outputs.len(),
        engine.threads(),
        outputs.len() as f64 / wall,
    );
    assert_eq!(outputs.len(), 16);
}
