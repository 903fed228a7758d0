//! Seeded inputs and compiled networks shared by the workloads and the
//! layer probes. Everything random derives from `--seed`; the programs
//! under test receive only the generated tensors and weights.

use pcnn_core::PrunePlan;
use pcnn_nn::models::{vgg16_proxy, VggProxyConfig};
use pcnn_runtime::compile::{prune_and_compile, prune_and_compile_quant, CompileOptions};
use pcnn_runtime::{CompileReport, Engine, ExecutableGraph, Precision, QuantOptions};
use pcnn_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Prunable 3×3 layers of the VGG-16 topology.
pub const PRUNABLE: usize = 13;
/// Input images are `1 × 3 × 16 × 16` for both proxies.
pub const INPUT_CHW: [usize; 3] = [3, 16, 16];

/// The default VGG-16 proxy: 8–32 channels, ~80 µs of compute per
/// image, so fixed per-call costs dominate.
pub fn tiny_cfg() -> VggProxyConfig {
    VggProxyConfig::default()
}

/// The CIFAR-width VGG-16 proxy of `quant_throughput.rs`: 32–96
/// channels with seven layers on 16×16 planes, the compute-bound regime.
pub fn wide_cfg() -> VggProxyConfig {
    VggProxyConfig {
        widths: [32, 32, 48, 48, 64, 64, 64, 96, 96, 96, 96, 96, 96],
        pools_after: vec![7, 10],
        input_hw: 16,
        num_classes: 10,
    }
}

/// Workers every engine under test gets.
///
/// `Engine::with_default_threads` would give this 2-vCPU sandbox two,
/// and that is what makes a run unrepeatable here: for most of a noisy
/// hour two AVX-heavy threads together deliver no more than one (the
/// vCPUs float over shared host cores). Ten interleaved 20-s runs of
/// `engine_batch_wide` gave a throughput spread of 25 % with two workers
/// and 1.9 % with one; `serve_closed_tiny` 6.6 % against 2.6 %. One
/// worker measures the code and not the neighbours. The pool's own
/// dispatch cost is still measured alone (`tensor.pool_roundtrip_us`)
/// and exercised by both servers, whose batcher hands every batch to it.
pub const ENGINE_THREADS: usize = 1;

/// The engine every workload and probe runs on.
pub fn engine(graph: ExecutableGraph) -> Engine {
    Engine::new(graph, ENGINE_THREADS)
}

/// Paper Table I default: four taps kept per 3×3 kernel, ≤ 32 patterns.
pub fn plan_n4() -> PrunePlan {
    PrunePlan::uniform(PRUNABLE, 4, 32)
}

/// Splits one run seed into independent streams (weights, inputs,
/// schedule, ...), so changing one consumer never shifts another. The
/// top byte stays clear: `vgg16_proxy` adds the layer index to its seed.
pub fn stream(seed: u64, lane: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(lane.wrapping_mul(0xD1B5_4A32_D192_ED03))
        >> 8
}

/// A tensor of uniform `[-1, 1)` values.
pub fn random_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        shape,
    )
}

/// `count` single-image requests.
pub fn request_pool(seed: u64, count: usize) -> Vec<Tensor> {
    let [c, h, w] = INPUT_CHW;
    (0..count)
        .map(|i| random_tensor(&[1, c, h, w], stream(seed, 1000 + i as u64)))
        .collect()
}

/// Builds the seeded proxy, prunes it under `plan` and compiles it, with
/// the int8 lowering when `quant`.
///
/// # Panics
///
/// Panics if the proxy fails to lower: that is a bug in the program
/// under test that no workload can run past.
pub fn build_graph(
    cfg: &VggProxyConfig,
    weight_seed: u64,
    plan: &PrunePlan,
    quant: bool,
) -> (ExecutableGraph, CompileReport) {
    let mut model = vgg16_proxy(cfg, weight_seed);
    let opts = CompileOptions::default();
    let (graph, report, _) = if quant {
        prune_and_compile_quant(&mut model, plan, &opts, &QuantOptions::default())
    } else {
        prune_and_compile(&mut model, plan, &opts)
    }
    .expect("the VGG-16 proxy lowers cleanly");
    (graph, report)
}

/// The single-image reference output of every pooled request: what a
/// served or batched result must equal bit for bit.
pub fn reference_outputs(
    graph: &ExecutableGraph,
    pool: &[Tensor],
    precision: Precision,
) -> Vec<Tensor> {
    pool.iter().map(|x| graph.run_with(x, precision)).collect()
}

/// Bit-for-bit equality of two tensors (NaN-safe, sign-of-zero strict).
pub fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest absolute element difference (infinite on a shape mismatch).
pub fn max_abs_diff(a: &Tensor, b: &Tensor) -> f64 {
    if a.shape() != b.shape() {
        return f64::INFINITY;
    }
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| f64::from((x - y).abs()))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_repeat_per_seed_and_differ_across_seeds() {
        let a = request_pool(3, 4);
        let b = request_pool(3, 4);
        let c = request_pool(4, 4);
        assert!(a.iter().zip(&b).all(|(x, y)| bits_equal(x, y)));
        assert!(!bits_equal(&a[0], &c[0]));
        assert!(!bits_equal(&a[0], &a[1]));
        assert_eq!(a[0].shape(), &[1, 3, 16, 16]);
    }

    #[test]
    fn bits_equal_is_strict() {
        let a = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        let b = Tensor::from_vec(vec![-0.0, 1.0], &[2]);
        assert!(bits_equal(&a, &a));
        assert!(!bits_equal(&a, &b));
        assert!(!bits_equal(&a, &a.reshaped(&[1, 2])));
        assert_eq!(max_abs_diff(&a, &b), 0.0);
    }
}
