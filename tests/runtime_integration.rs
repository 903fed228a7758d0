//! Cross-crate integration: prune a proxy network with `pcnn::core`,
//! lower it through `pcnn::runtime`, and serve it — checking agreement
//! with the trainable model, the SPM software reference, and the
//! deployment-container round trip.

use pcnn::core::export::{export_spm_layers, import_spm_layers};
use pcnn::core::sparse::SparseConv;
use pcnn::core::PrunePlan;
use pcnn::nn::models::{tiny_cnn, vgg16_proxy, VggProxyConfig};
use pcnn::runtime::compile::{prune_and_compile, CompileOptions};
use pcnn::runtime::engine::BatchScratch;
use pcnn::runtime::{Engine, PatternConv};
use pcnn::tensor::conv::Conv2dShape;
use pcnn::tensor::Tensor;
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn random_input(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        shape,
    )
}

#[test]
fn pruned_vgg_proxy_serves_through_the_engine() {
    let cfg = VggProxyConfig::default();
    let mut model = vgg16_proxy(&cfg, 11);
    let plan = PrunePlan::uniform(13, 2, 32);
    let (graph, report, outcome) =
        prune_and_compile(&mut model, &plan, &CompileOptions::default()).expect("compile");
    assert_eq!(report.sparse_layers, 13);
    assert_eq!(outcome.reports.len(), 13);
    // n=2 of 9 positions ⇒ ~7/9 weight sparsity per layer.
    for r in &outcome.reports {
        assert!(r.sparsity > 0.7, "{}: {}", r.name, r.sparsity);
    }

    let engine = Engine::new(graph, 2);
    let requests: Vec<Tensor> = (0..6)
        .map(|i| random_input(&[1, 3, cfg.input_hw, cfg.input_hw], 100 + i))
        .collect();
    let outputs = engine.infer_coalesced(requests.clone(), &mut BatchScratch::new());
    assert_eq!(outputs.len(), 6);
    for (x, y) in requests.iter().zip(&outputs) {
        let want = model.forward(x, false);
        pcnn::tensor::assert_slices_close(y.as_slice(), want.as_slice(), 1e-5);
    }
}

#[test]
fn runtime_agrees_with_core_sparse_reference() {
    // The runtime's compiled kernels and core's SparseConv functional
    // model must compute the same convolution.
    let set = pcnn::core::PatternSet::full(9, 2);
    let shape = Conv2dShape::new(4, 6, 3, 1, 1);
    let mut w = random_input(&[6, 4, 3, 3], 7);
    for kernel in w.as_mut_slice().chunks_mut(9) {
        let _ = pcnn::core::project::project_onto_set(kernel, &set);
    }
    let x = random_input(&[2, 4, 7, 7], 9);
    let runtime_conv = PatternConv::from_dense(&w, shape, &set).expect("encode");
    let reference = SparseConv::from_dense(&w, shape, &set).expect("encode");
    pcnn::tensor::assert_slices_close(
        runtime_conv.forward(&x).as_slice(),
        reference.forward(&x).as_slice(),
        1e-4,
    );
}

#[test]
fn deployment_container_roundtrips_into_the_runtime() {
    // Export the pruned weights to the PCNN container, re-import, and
    // execute the imported SPM layer — the host-driver deployment path.
    let set = pcnn::core::PatternSet::full(9, 4);
    let shape = Conv2dShape::new(3, 5, 3, 1, 1);
    let mut w = random_input(&[5, 3, 3, 3], 13);
    for kernel in w.as_mut_slice().chunks_mut(9) {
        let _ = pcnn::core::project::project_onto_set(kernel, &set);
    }
    let spm = pcnn::core::spm::SpmLayer::encode(&w, &set).expect("encode");
    let bytes = export_spm_layers(std::slice::from_ref(&spm));
    let imported = import_spm_layers(&bytes).expect("import");
    assert_eq!(imported.len(), 1);

    let direct = PatternConv::from_spm(spm, shape);
    let via_container = PatternConv::from_spm(imported.into_iter().next().unwrap(), shape);
    let x = random_input(&[1, 3, 6, 6], 17);
    pcnn::tensor::assert_slices_close(
        via_container.forward(&x).as_slice(),
        direct.forward(&x).as_slice(),
        0.0,
    );
}

#[test]
fn orthogonal_coarse_pruning_skips_kernels_at_runtime() {
    // Kernel-prune (coarse) on top of PCNN: zeroed kernels vanish from
    // the runtime's work entirely, and outputs stay correct.
    let mut model = tiny_cnn(4, 6, 19);
    let plan = PrunePlan::uniform(2, 2, 32);
    // Coarsely zero half the kernels of conv1 before pattern pruning.
    {
        let mut convs = model.prunable_convs_mut();
        let conv1 = &mut convs[0];
        let area = conv1.shape().kernel_area();
        let kernels = conv1.shape().kernel_count();
        let w = conv1.weight_mut();
        for ki in 0..kernels / 2 {
            w.as_mut_slice()[ki * area..(ki + 1) * area].fill(0.0);
        }
    }
    let (graph, report, _) =
        prune_and_compile(&mut model, &plan, &CompileOptions::default()).expect("compile");
    assert!(
        report.skipped_kernels >= 9,
        "half of conv1's 18 kernels skip: {}",
        report.skipped_kernels
    );
    let x = random_input(&[1, 3, 8, 8], 23);
    let want = model.forward(&x, false);
    let got = graph.run(&x);
    pcnn::tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
}
