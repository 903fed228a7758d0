//! End-to-end quantised serving: a pruned proxy network compiled with
//! its int8 lowering, served through `pcnn-serve` with per-server and
//! per-request precision selection, checked against the engine's own
//! outputs and the dequantise-then-f32 reference.

use pcnn::core::PrunePlan;
use pcnn::nn::models::{vgg16_proxy, VggProxyConfig};
use pcnn::runtime::compile::{prune_and_compile_quant, CompileOptions};
use pcnn::runtime::{Engine, Precision, QuantOptions};
use pcnn::serve::{Priority, ServeConfig, Server, ShutdownMode};
use pcnn::tensor::Tensor;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::time::Duration;

fn random_input(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        shape,
    )
}

fn quant_engine(threads: usize, seed: u64) -> (Engine, usize) {
    let cfg = VggProxyConfig::default();
    let mut model = vgg16_proxy(&cfg, seed);
    let plan = PrunePlan::uniform(13, 2, 32);
    let (graph, report, _) = prune_and_compile_quant(
        &mut model,
        &plan,
        &CompileOptions::default(),
        &QuantOptions::default(),
    )
    .expect("proxy lowers cleanly");
    assert_eq!(report.sparse_layers, 13);
    assert_eq!(graph.quant_op_count(), 13);
    (Engine::new(graph, threads), cfg.input_hw)
}

/// An int8-default server: every request runs the quantised datapath,
/// outputs match the engine's own int8 inference, and telemetry labels
/// the traffic as int8.
#[test]
fn int8_server_serves_quantized_traffic() {
    let (engine, hw) = quant_engine(2, 21);
    let server = Server::start(
        engine,
        ServeConfig {
            precision: Precision::Int8,
            max_wait: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );
    let inputs: Vec<Tensor> = (0..10)
        .map(|i| random_input(&[1, 3, hw, hw], 300 + i))
        .collect();
    let want: Vec<Tensor> = inputs
        .iter()
        .map(|x| server.engine().infer_with(x, Precision::Int8))
        .collect();
    let tickets: Vec<_> = inputs
        .into_iter()
        .map(|x| server.submit(x).expect("admitted"))
        .collect();
    for (t, want) in tickets.into_iter().zip(&want) {
        let got = t.wait().expect("served");
        // Per-image activation scales: batching must not perturb the
        // result at all.
        pcnn::tensor::assert_slices_close(got.as_slice(), want.as_slice(), 0.0);
    }
    let snap = server.metrics().snapshot();
    let int8 = &snap.precisions[Precision::Int8.index()];
    assert_eq!(int8.completed, 10);
    assert_eq!(snap.precisions[Precision::F32.index()].completed, 0);
    assert!(snap.to_json().contains("\"precision\":\"int8\""));
    let report = server.shutdown(ShutdownMode::Drain);
    assert_eq!(report.completed, 10);
}

/// Mixed per-request precision on a sharded server: f32 and int8
/// requests interleave, each precision's outputs match its datapath,
/// and the int8 outputs stay within quantisation noise of f32 (proving
/// the two datapaths genuinely differ but agree on the network).
#[test]
fn mixed_precision_traffic_routes_each_request_to_its_datapath() {
    let (engine, hw) = quant_engine(4, 23);
    let server = Server::start(
        engine,
        ServeConfig {
            shards: 2,
            max_wait: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );
    let inputs: Vec<Tensor> = (0..16)
        .map(|i| random_input(&[1, 3, hw, hw], 400 + i))
        .collect();
    let mut tickets = Vec::new();
    for (i, x) in inputs.iter().enumerate() {
        let p = if i % 2 == 0 {
            Precision::Int8
        } else {
            Precision::F32
        };
        tickets.push((
            p,
            x.clone(),
            server
                .submit_with(x.clone(), Priority::Normal, p)
                .expect("admitted"),
        ));
    }
    for (p, x, t) in tickets {
        let got = t.wait().expect("served");
        let want = server.engine().infer_with(&x, p);
        pcnn::tensor::assert_slices_close(got.as_slice(), want.as_slice(), 0.0);
        if p == Precision::Int8 {
            // Quantisation noise exists (the datapaths are distinct) but
            // stays small at 8 bits.
            let f32_out = server.engine().infer(&x);
            let num: f32 = got
                .as_slice()
                .iter()
                .zip(f32_out.as_slice())
                .map(|(a, b)| (a - b).powi(2))
                .sum();
            let rel = (num / f32_out.sq_norm().max(1e-12)).sqrt();
            assert!(rel < 0.1, "int8 vs f32 relative error {rel}");
            assert!(rel > 0.0, "int8 output identical to f32: not quantised?");
        }
    }
    let snap = server.metrics().snapshot();
    assert_eq!(snap.completed, 16);
    assert_eq!(snap.precisions[Precision::Int8.index()].completed, 8);
    assert_eq!(snap.precisions[Precision::F32.index()].completed, 8);
    // Per-precision batch counts cover all dispatched batches.
    let batches: u64 = snap.precisions.iter().map(|p| p.batches).sum();
    assert_eq!(batches, snap.batches);
}

/// The quantised engine output stays within 1e-5 of the
/// dequantise-then-f32 reference when driven through the serving stack
/// (the acceptance bar, end to end).
#[test]
fn served_int8_matches_dequantized_reference() {
    let (engine, hw) = quant_engine(2, 29);
    let server = Server::start(
        engine,
        ServeConfig {
            precision: Precision::Int8,
            ..ServeConfig::default()
        },
    );
    let x = random_input(&[1, 3, hw, hw], 500);
    let want = server.engine().graph().run_int8_reference(&x);
    let got = server.submit(x).expect("admitted").wait().expect("served");
    pcnn::tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
}
