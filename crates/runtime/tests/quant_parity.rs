//! Int8 parity suite: the quantised engine must match the
//! dequantise-then-f32 reference within 1e-5 for every proxy network of
//! the paper's zoo (VGG-16, ResNet-18, tiny CNN topologies) at n = 2 and
//! n = 4 — including layers with coarse-pruned (all-zero) kernels, whose
//! skip path must agree between the integer and reference datapaths.
//!
//! The reference executes the **same** quantisation decisions (per-layer
//! weight codes, per-image activation codes) in f32 arithmetic
//! ([`pcnn_runtime::ExecutableGraph::run_int8_reference`]), so any
//! disagreement beyond float rounding is a bug in the integer kernels,
//! not quantisation noise.

use pcnn_core::PrunePlan;
use pcnn_nn::models::{resnet18_proxy, tiny_cnn, vgg16_proxy, ResNetProxyConfig, VggProxyConfig};
use pcnn_nn::Model;
use pcnn_runtime::compile::{prune_and_compile_quant, CompileOptions};
use pcnn_runtime::{Engine, Precision, QuantOptions};
use pcnn_tensor::Tensor;
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn random_input(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        shape,
    )
}

/// Moves the batch-norm running statistics off their initial values so
/// the folded BN scales/shifts the quantiser sees are non-trivial.
fn warm_batchnorm(model: &mut Model, input_hw: usize, seed: u64) {
    for i in 0..3 {
        let x = random_input(&[2, 3, input_hw, input_hw], seed + i);
        let _ = model.forward(&x, true);
    }
}

fn assert_int8_parity(mut model: Model, prunable: usize, n: usize, input_hw: usize, seed: u64) {
    warm_batchnorm(&mut model, input_hw, seed);
    let plan = PrunePlan::uniform(prunable, n, 32);
    let (graph, report, _) = prune_and_compile_quant(
        &mut model,
        &plan,
        &CompileOptions::default(),
        &QuantOptions::default(),
    )
    .unwrap_or_else(|e| panic!("compile: {e}"));
    assert_eq!(report.sparse_layers, prunable);
    assert_eq!(
        graph.quant_op_count(),
        prunable,
        "every pattern conv carries int8 weights"
    );

    // Batched (n=2) input: per-image activation scales must hold inside
    // a batch too.
    let x = random_input(&[2, 3, input_hw, input_hw], seed + 50);
    let got = graph.run_with(&x, Precision::Int8);
    let want = graph.run_int8_reference(&x);
    assert_eq!(got.shape(), want.shape());
    pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);

    // The f32 weights are untouched by enabling int8.
    let f32_out = graph.run_with(&x, Precision::F32);
    let f32_want = graph.run(&x);
    pcnn_tensor::assert_slices_close(f32_out.as_slice(), f32_want.as_slice(), 0.0);
}

#[test]
fn vgg16_proxy_int8_parity_n2() {
    let cfg = VggProxyConfig::default();
    assert_int8_parity(vgg16_proxy(&cfg, 1), 13, 2, cfg.input_hw, 110);
}

#[test]
fn vgg16_proxy_int8_parity_n4() {
    let cfg = VggProxyConfig::default();
    assert_int8_parity(vgg16_proxy(&cfg, 2), 13, 4, cfg.input_hw, 120);
}

#[test]
fn resnet18_proxy_int8_parity_n2() {
    let cfg = ResNetProxyConfig::default();
    assert_int8_parity(resnet18_proxy(&cfg, 3), 17, 2, cfg.input_hw, 130);
}

#[test]
fn resnet18_proxy_int8_parity_n4() {
    let cfg = ResNetProxyConfig::default();
    assert_int8_parity(resnet18_proxy(&cfg, 4), 17, 4, cfg.input_hw, 140);
}

#[test]
fn tiny_cnn_int8_parity_n2() {
    assert_int8_parity(tiny_cnn(10, 8, 5), 2, 2, 8, 150);
}

#[test]
fn tiny_cnn_int8_parity_n4() {
    assert_int8_parity(tiny_cnn(10, 8, 6), 2, 4, 8, 160);
}

/// Coarse-pruned (all-zero) kernels: zero out two output channels of
/// the first prunable conv *before* compiling, so both precisions carry
/// skip flags, and check int8 still matches the reference — and that
/// the skips really registered.
#[test]
fn int8_parity_with_zero_kernel_layers() {
    let mut model = tiny_cnn(6, 8, 7);
    warm_batchnorm(&mut model, 8, 170);
    let plan = PrunePlan::uniform(2, 2, 32);
    // Prune first, then coarse-prune on top (the orthogonal fusion the
    // runtime skip path exists for), then compile the mutated model.
    let outcome = pcnn_core::pruner::prune_model(&mut model, &plan);
    {
        let mut convs = model.prunable_convs_mut();
        let conv = &mut convs[0];
        let per_oc = {
            let s = conv.shape();
            s.in_c * s.kernel_area()
        };
        let w = conv.weight_mut().as_mut_slice();
        w[..2 * per_oc].fill(0.0); // output channels 0 and 1
    }
    let (graph, _report) = pcnn_runtime::compile::compile_quant(
        &model,
        &outcome.sets,
        &CompileOptions::default(),
        &QuantOptions::default(),
    )
    .expect("compile");
    let summaries = graph.summary();
    assert!(
        summaries.iter().any(|s| s
            .split_once("int8")
            .is_some_and(|(_, q)| q.contains("skip"))),
        "the int8 weights record skipped kernels: {summaries:?}"
    );
    let x = random_input(&[2, 3, 8, 8], 171);
    let got = graph.run_with(&x, Precision::Int8);
    let want = graph.run_int8_reference(&x);
    pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
}

/// Engine-level: batched int8 through the coalescing path equals
/// per-request int8 bit-for-bit (per-image activation scales make the
/// result batch-composition independent).
#[test]
fn engine_int8_coalescing_is_batch_invariant() {
    let mut model = vgg16_proxy(&VggProxyConfig::default(), 9);
    warm_batchnorm(&mut model, 16, 180);
    let plan = PrunePlan::uniform(13, 2, 32);
    let (graph, _, _) = prune_and_compile_quant(
        &mut model,
        &plan,
        &CompileOptions::default(),
        &QuantOptions::default(),
    )
    .expect("compile");
    let engine = Engine::new(graph, 3);
    let inputs: Vec<Tensor> = (0..7)
        .map(|i| random_input(&[1, 3, 16, 16], 190 + i))
        .collect();
    let single: Vec<Tensor> = inputs
        .iter()
        .map(|x| engine.infer_with(x, Precision::Int8))
        .collect();
    let mut scratch = pcnn_runtime::engine::BatchScratch::new();
    let coalesced = engine.infer_coalesced_at(Precision::Int8, inputs, &mut scratch);
    for (a, b) in single.iter().zip(&coalesced) {
        pcnn_tensor::assert_slices_close(a.as_slice(), b.as_slice(), 0.0);
    }
}
