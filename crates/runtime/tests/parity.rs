//! Parity suite: pattern-sparse execution must match the dense im2col
//! reference within 1e-5 for every proxy network of the paper's zoo
//! (VGG-16, ResNet-18, tiny CNN topologies) at n = 2 and n = 4, with
//! fusion on and off.

use pcnn_core::PrunePlan;
use pcnn_nn::models::{resnet18_proxy, tiny_cnn, vgg16_proxy, ResNetProxyConfig, VggProxyConfig};
use pcnn_nn::Model;
use pcnn_runtime::compile::{prune_and_compile, prune_and_compile_quant, CompileOptions};
use pcnn_runtime::ops::Op;
use pcnn_runtime::{ConvScratch, Precision, QuantOptions, Walk};
use pcnn_tensor::simd::SimdLevel;
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
/// BN folding is exercised non-trivially.
fn warm_batchnorm(model: &mut Model, input_hw: usize, seed: u64) {
    for i in 0..3 {
        let x = random_input(&[2, 3, input_hw, input_hw], seed + i);
        let _ = model.forward(&x, true);
    }
}

fn assert_parity(mut model: Model, prunable: usize, n: usize, input_hw: usize, seed: u64) {
    warm_batchnorm(&mut model, input_hw, seed);
    let plan = PrunePlan::uniform(prunable, n, 32);

    for (fused, opts) in [
        (true, CompileOptions::default()),
        (
            false,
            CompileOptions {
                fuse_batchnorm: false,
                fuse_relu: false,
                ..Default::default()
            },
        ),
    ] {
        let mut m = model.clone();
        let (graph, report, _) = prune_and_compile(&mut m, &plan, &opts)
            .unwrap_or_else(|e| panic!("compile (fused={fused}): {e}"));
        assert_eq!(
            report.sparse_layers, prunable,
            "every prunable layer lowered sparse (fused={fused})"
        );
        assert_eq!(report.dense_fallbacks, 0);

        let x = random_input(&[2, 3, input_hw, input_hw], seed + 50);
        let want = m.forward(&x, false);
        let got = graph.run(&x);
        assert_eq!(got.shape(), want.shape());
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
    }
}

#[test]
fn vgg16_proxy_parity_n2() {
    let cfg = VggProxyConfig::default();
    assert_parity(vgg16_proxy(&cfg, 1), 13, 2, cfg.input_hw, 10);
}

#[test]
fn vgg16_proxy_parity_n4() {
    let cfg = VggProxyConfig::default();
    assert_parity(vgg16_proxy(&cfg, 2), 13, 4, cfg.input_hw, 20);
}

#[test]
fn resnet18_proxy_parity_n2() {
    let cfg = ResNetProxyConfig::default();
    assert_parity(resnet18_proxy(&cfg, 3), 17, 2, cfg.input_hw, 30);
}

#[test]
fn resnet18_proxy_parity_n4() {
    let cfg = ResNetProxyConfig::default();
    assert_parity(resnet18_proxy(&cfg, 4), 17, 4, cfg.input_hw, 40);
}

#[test]
fn tiny_cnn_parity_n2() {
    assert_parity(tiny_cnn(10, 8, 5), 2, 2, 8, 50);
}

#[test]
fn tiny_cnn_parity_n4() {
    assert_parity(tiny_cnn(10, 8, 6), 2, 4, 8, 60);
}

#[test]
fn paper_various_plans_lower_end_to_end() {
    // The paper's Table I/II "various" rows: mixed n per layer.
    let cfg = VggProxyConfig::default();
    let mut model = vgg16_proxy(&cfg, 7);
    warm_batchnorm(&mut model, cfg.input_hw, 70);
    let plan = PrunePlan::vgg16_various();
    let (graph, report, _) =
        prune_and_compile(&mut model, &plan, &CompileOptions::default()).expect("compile");
    assert_eq!(report.sparse_layers, 13);
    let x = random_input(&[1, 3, cfg.input_hw, cfg.input_hw], 71);
    let want = model.forward(&x, false);
    let got = graph.run(&x);
    pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
}

/// Coalesced execution is bit-exact whatever the batch split: 7 requests
/// over 1, 2, 3 and 7 workers are stacked into 1, 2, 3 and 7 chunks, and
/// every request's output must equal both the 1-chunk pass and its own
/// single-request pass, at f32 and at int8.
#[test]
fn batched_engine_matches_sequential_graph() {
    use pcnn_runtime::engine::{BatchScratch, Engine};
    use std::sync::Arc;
    let mut model = tiny_cnn(4, 8, 9);
    warm_batchnorm(&mut model, 8, 80);
    let plan = PrunePlan::uniform(2, 2, 32);
    let (graph, _, _) = prune_and_compile_quant(
        &mut model,
        &plan,
        &CompileOptions::default(),
        &QuantOptions::default(),
    )
    .expect("compile");
    assert!(graph.quant_op_count() > 0);
    let graph = Arc::new(graph);
    let inputs: Vec<Tensor> = (0..7)
        .map(|i| random_input(&[1, 3, 8, 8], 90 + i))
        .collect();
    for precision in [Precision::F32, Precision::Int8] {
        let mut one_chunk: Option<Vec<Tensor>> = None;
        for workers in [1usize, 2, 3, 7] {
            let engine = Engine::from_shared(graph.clone(), workers);
            let got =
                engine.infer_coalesced_at(precision, inputs.clone(), &mut BatchScratch::new());
            assert_eq!(got.len(), inputs.len());
            let want = one_chunk.get_or_insert_with(|| got.clone());
            for (i, (x, y)) in inputs.iter().zip(&got).enumerate() {
                let single = engine.infer_with(x, precision);
                assert_eq!(y.shape(), single.shape());
                assert_eq!(
                    y.as_slice(),
                    want[i].as_slice(),
                    "{precision:?}, {workers} chunks, request {i} vs 1 chunk"
                );
                assert_eq!(
                    y.as_slice(),
                    single.as_slice(),
                    "{precision:?}, {workers} chunks, request {i} vs infer_with"
                );
            }
        }
    }
}

/// One pattern layer at a pinned SIMD tier, kernel walk and precision
/// (`None` for every other op).
fn run_pinned(
    op: &Op,
    x: &Tensor,
    level: SimdLevel,
    walk: Walk,
    precision: Precision,
) -> Option<Vec<f32>> {
    let Op::PatternConv(c) = op else {
        return None;
    };
    let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
    let (oh, ow) = c.shape().out_hw(h, w);
    let mut out = vec![f32::NAN; n * c.shape().out_c * oh * ow];
    let scratch = &mut ConvScratch::default();
    c.forward_batch_at(
        level,
        walk,
        precision,
        x.as_slice(),
        n,
        h,
        w,
        &mut out,
        scratch,
    );
    Some(out)
}

/// Holds every pattern layer of `ops` against itself at the activation
/// it really sees at `precision`: the band-resident tile walk and the
/// per-kernel walk, on both SIMD tiers and through the production entry
/// point, must agree **bit for bit** (f32 — the same rounding sequence
/// per output element) and exactly (int8). Returns the sequence's
/// output.
fn assert_walks_agree(ops: &[Op], x: &Tensor, precision: Precision) -> Tensor {
    let mut cur = x.clone();
    for op in ops {
        if let Op::Residual { main, shortcut } = op {
            assert_walks_agree(main, &cur, precision);
            assert_walks_agree(shortcut, &cur, precision);
        }
        let next = op.run_at(&cur, precision);
        let pinned = |level, walk| run_pinned(op, &cur, level, walk, precision);
        if let Some(want) = pinned(SimdLevel::Scalar, Walk::PerKernel) {
            let mut runs = vec![("production".to_string(), next.as_slice().to_vec())];
            for (level, walk) in [
                (SimdLevel::Scalar, Walk::Tiled),
                (SimdLevel::Avx2.effective(), Walk::PerKernel),
                (SimdLevel::Avx2.effective(), Walk::Tiled),
            ] {
                let got = pinned(level, walk).expect("a pattern layer");
                runs.push((format!("{walk:?} on {level}"), got));
            }
            for (what, got) in &runs {
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{what} diverges from the scalar per-kernel walk at {i} \
                         ({a} vs {b}) at {precision} in {}",
                        op.describe()
                    );
                }
            }
        }
        cur = next;
    }
    cur
}

/// Tile-walk versus per-kernel-walk parity over a zoo proxy, both
/// precisions of the same ops, at the layers' real activations.
fn assert_grouping_parity(mut model: Model, prunable: usize, n: usize, input_hw: usize, seed: u64) {
    warm_batchnorm(&mut model, input_hw, seed);
    let plan = PrunePlan::uniform(prunable, n, 32);
    let (graph, _, _) = prune_and_compile_quant(
        &mut model,
        &plan,
        &CompileOptions::default(),
        &QuantOptions::default(),
    )
    .expect("compile");
    for batch in [1usize, 3] {
        let x = random_input(&[batch, 3, input_hw, input_hw], seed + 77 + batch as u64);
        for precision in Precision::ALL {
            assert_walks_agree(graph.ops(), &x, precision);
        }
    }
}

#[test]
fn vgg16_proxy_grouping_parity_n2() {
    let cfg = VggProxyConfig::default();
    assert_grouping_parity(vgg16_proxy(&cfg, 11), 13, 2, cfg.input_hw, 110);
}

#[test]
fn vgg16_proxy_grouping_parity_n4() {
    let cfg = VggProxyConfig::default();
    assert_grouping_parity(vgg16_proxy(&cfg, 12), 13, 4, cfg.input_hw, 120);
}

#[test]
fn resnet18_proxy_grouping_parity_n2() {
    let cfg = ResNetProxyConfig::default();
    assert_grouping_parity(resnet18_proxy(&cfg, 13), 17, 2, cfg.input_hw, 130);
}

#[test]
fn resnet18_proxy_grouping_parity_n4() {
    let cfg = ResNetProxyConfig::default();
    assert_grouping_parity(resnet18_proxy(&cfg, 14), 17, 4, cfg.input_hw, 140);
}

#[test]
fn tiny_cnn_grouping_parity_n2() {
    assert_grouping_parity(tiny_cnn(10, 8, 15), 2, 2, 8, 150);
}

#[test]
fn tiny_cnn_grouping_parity_n4() {
    assert_grouping_parity(tiny_cnn(10, 8, 16), 2, 4, 8, 160);
}
