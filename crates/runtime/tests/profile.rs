//! Profiler accounting suite: for every proxy network of the paper's
//! zoo, the per-layer phase times recorded by [`ExecProfiler`] must sum
//! to within 10% of the engine service time measured around the same
//! calls — the profiler is only trustworthy if its phase split accounts
//! for (essentially) all of the wall clock it claims to explain.

use pcnn_core::PrunePlan;
use pcnn_nn::models::{resnet18_proxy, tiny_cnn, vgg16_proxy, ResNetProxyConfig, VggProxyConfig};
use pcnn_nn::Model;
use pcnn_runtime::compile::{prune_and_compile, CompileOptions};
use pcnn_runtime::engine::Engine;
use pcnn_runtime::quant_conv::{Precision, QuantOptions};
use pcnn_tensor::{simd, Tensor};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::time::Instant;

fn random_input(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        shape,
    )
}

/// Compiles `model`, serves `iters` single-image passes at `precision`
/// with profiling on, and checks the profiler's books against the
/// measured service time.
fn assert_profile_accounts(
    mut model: Model,
    prunable: usize,
    input_hw: usize,
    precision: Precision,
    iters: u32,
    seed: u64,
) {
    let plan = PrunePlan::uniform(prunable, 2, 32);
    let (graph, _, _) =
        prune_and_compile(&mut model, &plan, &CompileOptions::default()).expect("compile");
    let graph = match precision {
        Precision::F32 => graph,
        Precision::Int8 => graph.with_int8(&QuantOptions::default()),
    };
    let engine = Engine::new(graph, 2);
    engine.enable_profiling();
    assert!(engine.profiler().is_enabled());

    let x = random_input(&[1, 3, input_hw, input_hw], seed);
    // Warm-up pass outside the measurement, then reset so the books
    // cover exactly the timed window.
    let _ = engine.infer_with(&x, precision);
    engine.profiler().reset();

    let start = Instant::now();
    for _ in 0..iters {
        let _ = engine.infer_with(&x, precision);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;

    let profile = engine.exec_profile();
    let total_ns = profile.total_ns(precision);
    assert!(total_ns > 0, "profiled time recorded");
    // The phases are nested strictly inside the measured window, so the
    // sum can never exceed it (beyond clock granularity) and must cover
    // at least 90% of it — the acceptance bar.
    assert!(
        total_ns <= wall_ns + wall_ns / 50,
        "phase sum {total_ns}ns exceeds measured service time {wall_ns}ns"
    );
    assert!(
        total_ns * 10 >= wall_ns * 9,
        "phase sum {total_ns}ns covers <90% of measured service time {wall_ns}ns"
    );

    let slice = profile
        .precisions
        .iter()
        .find(|p| p.precision == precision.label())
        .expect("profiled lowering present");
    assert!(!slice.layers.is_empty());
    for layer in &slice.layers {
        assert_eq!(
            layer.calls,
            u64::from(iters),
            "layer {} ({}) ran once per pass",
            layer.layer,
            layer.label
        );
        assert_eq!(layer.images, u64::from(iters), "one image per pass");
        assert_eq!(
            layer.total_ns,
            layer.pad_ns + layer.kernel_ns,
            "phase split sums to the layer total"
        );
        // Convolution layers must attribute their SIMD tier; everything
        // else stays on the "-" placeholder.
        if layer.simd_level != "-" {
            assert_eq!(layer.simd_level, simd::active().label());
        }
    }
    assert_eq!(profile.simd_level, simd::active().label());
}

#[test]
fn vgg16_proxy_profile_accounts_for_service_time() {
    let cfg = VggProxyConfig::default();
    assert_profile_accounts(
        vgg16_proxy(&cfg, 3),
        13,
        cfg.input_hw,
        Precision::F32,
        40,
        11,
    );
}

#[test]
fn resnet18_proxy_profile_accounts_for_service_time() {
    let cfg = ResNetProxyConfig::default();
    assert_profile_accounts(
        resnet18_proxy(&cfg, 4),
        17,
        cfg.input_hw,
        Precision::F32,
        40,
        12,
    );
}

#[test]
fn tiny_cnn_profile_accounts_for_service_time() {
    assert_profile_accounts(tiny_cnn(10, 4, 5), 2, 8, Precision::F32, 200, 13);
}

#[test]
fn int8_lowering_profile_accounts_for_service_time() {
    let cfg = VggProxyConfig::default();
    assert_profile_accounts(
        vgg16_proxy(&cfg, 6),
        13,
        cfg.input_hw,
        Precision::Int8,
        40,
        14,
    );
}

#[test]
fn profiler_disabled_records_nothing() {
    let mut model = tiny_cnn(4, 4, 9);
    let (graph, _, _) = prune_and_compile(
        &mut model,
        &PrunePlan::uniform(2, 2, 32),
        &CompileOptions::default(),
    )
    .expect("compile");
    let engine = Engine::new(graph, 2);
    let x = random_input(&[1, 3, 8, 8], 21);
    let _ = engine.infer(&x);
    let profile = engine.exec_profile();
    assert_eq!(profile.total_ns(Precision::F32), 0);
    assert!(profile
        .precisions
        .iter()
        .all(|p| p.layers.iter().all(|l| l.calls == 0)));
}
