//! Compression and FLOPs accounting for pruned networks.
//!
//! Reproduces the arithmetic behind the paper's Tables I–IV: weight-only
//! compression (`k²/n` per pruned layer), weight+index compression under
//! the SPM format (per-kernel `⌈log2 |P_l|⌉`-bit codes plus the per-layer
//! mapping table), the CSC/EIE comparison (4-bit index per non-zero),
//! and FLOPs reduction (1 MAC = 1 FLOP, convolution layers only).

use crate::plan::PrunePlan;
use pcnn_nn::zoo::NetworkShape;

/// Bit-level storage model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageModel {
    /// Bits per stored weight (32 matches the paper's weight+idx column;
    /// 8 matches the accelerator's SRAM sizing).
    pub weight_bits: u32,
    /// Bits per non-zero index in the CSC/EIE baseline (4 in EIE).
    pub csc_index_bits: u32,
    /// Whether the per-layer SPM mapping table is charged to the model.
    pub include_table: bool,
}

impl Default for StorageModel {
    fn default() -> Self {
        StorageModel {
            weight_bits: 32,
            csc_index_bits: 4,
            include_table: true,
        }
    }
}

/// Per-layer compression accounting row.
#[derive(Debug, Clone)]
pub struct LayerCompression {
    /// Layer name.
    pub name: String,
    /// Non-zeros per kernel (`k²` for unpruned layers).
    pub n: usize,
    /// Pattern-set size (`0` for unpruned layers).
    pub patterns: usize,
    /// Dense weight count.
    pub dense_weights: u64,
    /// Weights kept after pruning.
    pub kept_weights: u64,
    /// Dense storage, bits.
    pub dense_bits: u64,
    /// SPM storage: non-zero sequences, bits.
    pub spm_weight_bits: u64,
    /// SPM storage: per-kernel codes, bits.
    pub spm_index_bits: u64,
    /// SPM storage: mapping table, bits.
    pub spm_table_bits: u64,
}

/// Whole-network compression report.
#[derive(Debug, Clone)]
pub struct CompressionReport {
    /// Per-layer rows in network order (including unpruned layers).
    pub layers: Vec<LayerCompression>,
    /// Weight-count compression: dense weights / kept weights
    /// (the paper's "Compression (weight)" column).
    pub weight_only: f64,
    /// Bit compression including SPM indices and tables
    /// (the paper's "Compression (weight+idx)" column).
    pub weight_plus_index: f64,
    /// Total SPM index+table bits (the accelerator's index overhead).
    pub index_bits: u64,
    /// Total stored bits under SPM (weights + indices + tables).
    pub total_bits: u64,
    /// Total dense bits.
    pub dense_bits: u64,
    /// Parameters kept (the paper's "CONV Parameters" column).
    pub params_after: u64,
}

impl CompressionReport {
    /// Index overhead as a fraction of total stored bits.
    pub fn index_overhead(&self) -> f64 {
        self.index_bits as f64 / self.total_bits.max(1) as f64
    }
}

/// Computes PCNN compression of `net` under `plan`.
///
/// The plan's entries map to `net`'s *prunable* layers in order;
/// unprunable layers (1×1 downsample convolutions) are stored dense.
///
/// # Panics
///
/// Panics if the plan's layer count differs from the network's prunable
/// layer count.
pub fn pcnn_compression(
    net: &NetworkShape,
    plan: &PrunePlan,
    storage: &StorageModel,
) -> CompressionReport {
    let prunable: Vec<bool> = net.convs.iter().map(|c| c.prunable).collect();
    let n_prunable = prunable.iter().filter(|&&p| p).count();
    assert_eq!(
        plan.layers().len(),
        n_prunable,
        "plan covers {} layers, net has {} prunable",
        plan.layers().len(),
        n_prunable
    );

    let wb = storage.weight_bits as u64;
    let mut rows = Vec::with_capacity(net.convs.len());
    let mut plan_it = plan.layers().iter();
    for conv in &net.convs {
        let dense_weights = conv.weights();
        let dense_bits = dense_weights * wb;
        if conv.prunable {
            let lp = plan_it.next().expect("plan exhausted");
            let area = conv.kernel_area();
            assert!(lp.n <= area, "n = {} exceeds kernel area {area}", lp.n);
            let patterns = lp.effective_patterns(area);
            let kept = conv.kernels() * lp.n as u64;
            let bits_per_code = if patterns <= 1 {
                1
            } else {
                (usize::BITS - (patterns - 1).leading_zeros()) as u64
            };
            let table_bits = if storage.include_table {
                (patterns * area) as u64
            } else {
                0
            };
            rows.push(LayerCompression {
                name: conv.name.clone(),
                n: lp.n,
                patterns,
                dense_weights,
                kept_weights: kept,
                dense_bits,
                spm_weight_bits: kept * wb,
                spm_index_bits: conv.kernels() * bits_per_code,
                spm_table_bits: table_bits,
            });
        } else {
            rows.push(LayerCompression {
                name: conv.name.clone(),
                n: conv.kernel_area(),
                patterns: 0,
                dense_weights,
                kept_weights: dense_weights,
                dense_bits,
                spm_weight_bits: dense_bits,
                spm_index_bits: 0,
                spm_table_bits: 0,
            });
        }
    }

    let dense_w: u64 = rows.iter().map(|r| r.dense_weights).sum();
    let kept_w: u64 = rows.iter().map(|r| r.kept_weights).sum();
    let dense_bits: u64 = rows.iter().map(|r| r.dense_bits).sum();
    let index_bits: u64 = rows
        .iter()
        .map(|r| r.spm_index_bits + r.spm_table_bits)
        .sum();
    let total_bits: u64 = rows.iter().map(|r| r.spm_weight_bits).sum::<u64>() + index_bits;

    CompressionReport {
        weight_only: dense_w as f64 / kept_w.max(1) as f64,
        weight_plus_index: dense_bits as f64 / total_bits.max(1) as f64,
        index_bits,
        total_bits,
        dense_bits,
        params_after: kept_w,
        layers: rows,
    }
}

/// Compression of irregular (magnitude) pruning at the *same* per-layer
/// densities as `plan`, stored in CSC/EIE format: every non-zero carries
/// a `csc_index_bits` relative index.
///
/// Returns `(weight_plus_index_ratio, index_bits)`.
pub fn csc_compression(net: &NetworkShape, plan: &PrunePlan, storage: &StorageModel) -> (f64, u64) {
    let n_prunable = net.convs.iter().filter(|c| c.prunable).count();
    assert_eq!(plan.layers().len(), n_prunable, "plan/net mismatch");
    let wb = storage.weight_bits as u64;
    let ib = storage.csc_index_bits as u64;
    let mut dense_bits = 0u64;
    let mut stored_bits = 0u64;
    let mut index_bits = 0u64;
    let mut plan_it = plan.layers().iter();
    for conv in &net.convs {
        dense_bits += conv.weights() * wb;
        if conv.prunable {
            let lp = plan_it.next().expect("plan exhausted");
            let kept = conv.kernels() * lp.n as u64;
            stored_bits += kept * wb;
            index_bits += kept * ib;
        } else {
            stored_bits += conv.weights() * wb;
        }
    }
    stored_bits += index_bits;
    (dense_bits as f64 / stored_bits.max(1) as f64, index_bits)
}

/// FLOPs accounting for a PCNN-pruned network.
#[derive(Debug, Clone, Copy)]
pub struct FlopsReport {
    /// Dense convolution MACs per image.
    pub baseline: u64,
    /// MACs remaining after pruning.
    pub pruned: u64,
    /// Fraction of FLOPs removed (the paper's "FLOPs Pruned" column).
    pub reduction: f64,
}

/// Computes the FLOPs report of `net` under `plan` (prunable layers keep
/// `n/k²` of their MACs; unprunable layers are unchanged).
///
/// # Panics
///
/// Panics on plan/net layer-count mismatch.
pub fn flops_after_pcnn(net: &NetworkShape, plan: &PrunePlan) -> FlopsReport {
    let n_prunable = net.convs.iter().filter(|c| c.prunable).count();
    assert_eq!(plan.layers().len(), n_prunable, "plan/net mismatch");
    let baseline = net.conv_macs();
    let mut pruned = 0u64;
    let mut plan_it = plan.layers().iter();
    for conv in &net.convs {
        let macs = conv.macs();
        if conv.prunable {
            let lp = plan_it.next().expect("plan exhausted");
            pruned += macs * lp.n as u64 / conv.kernel_area() as u64;
        } else {
            pruned += macs;
        }
    }
    FlopsReport {
        baseline,
        pruned,
        reduction: 1.0 - pruned as f64 / baseline.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_nn::zoo::{resnet18_cifar, vgg16_cifar};

    fn storage() -> StorageModel {
        StorageModel::default()
    }

    #[test]
    fn table1_weight_compression_exact() {
        // Paper Table I "Compression (weight)": 2.3 / 3.0 / 4.5 / 9.0 for
        // n = 4 / 3 / 2 / 1 (k²/n exactly, since all layers are 3×3).
        let net = vgg16_cifar();
        for (n, expect) in [(4usize, 2.25), (3, 3.0), (2, 4.5), (1, 9.0)] {
            let plan = PrunePlan::uniform(13, n, if n == 1 { 8 } else { 32 });
            let rep = pcnn_compression(&net, &plan, &storage());
            assert!(
                (rep.weight_only - expect).abs() < 1e-9,
                "n={n}: {}",
                rep.weight_only
            );
        }
    }

    #[test]
    fn table1_params_after_exact() {
        // Paper Table I "CONV Parameters": 0.65/0.49/0.33/0.16 ×10⁷.
        let net = vgg16_cifar();
        for (n, expect) in [
            (4usize, 6_537_984u64),
            (3, 4_903_488),
            (2, 3_268_992),
            (1, 1_634_496),
        ] {
            let plan = PrunePlan::uniform(13, n, 32);
            let rep = pcnn_compression(&net, &plan, &storage());
            assert_eq!(rep.params_after, expect, "n={n}");
        }
    }

    #[test]
    fn table1_weight_plus_index_close_to_paper() {
        // Paper: 2.2 / 2.9 / 4.1 / 8.4. Our fp32+code+table model gives
        // 2.16 / 2.85 / 4.16 / 8.2 — same shape, small offsets.
        let net = vgg16_cifar();
        let expect = [
            (4usize, 32usize, 2.2f64),
            (3, 32, 2.9),
            (2, 32, 4.1),
            (1, 8, 8.4),
        ];
        for (n, pats, paper) in expect {
            let plan = PrunePlan::uniform(13, n, pats);
            let rep = pcnn_compression(&net, &plan, &storage());
            assert!(
                (rep.weight_plus_index - paper).abs() / paper < 0.04,
                "n={n}: ours {} vs paper {paper}",
                rep.weight_plus_index
            );
            // Index always costs something: weight+idx < weight-only bits ratio.
            assert!(rep.weight_plus_index < rep.weight_only);
        }
    }

    #[test]
    fn csc_matches_paper_example() {
        // Paper §IV-B: "for irregular pruning, taking VGG-16 with n = 4 as
        // an example, the actual compression rate is 2.0×".
        let net = vgg16_cifar();
        let plan = PrunePlan::uniform(13, 4, 32);
        let (ratio, csc_idx_bits) = csc_compression(&net, &plan, &storage());
        assert!((ratio - 2.0).abs() < 1e-9, "{ratio}");
        // "...three times as low as ours": CSC index bits ≈ 3× SPM's.
        let rep = pcnn_compression(&net, &plan, &storage());
        let factor = csc_idx_bits as f64 / rep.index_bits as f64;
        assert!(factor > 2.5 && factor < 3.5, "index-bits factor {factor}");
    }

    #[test]
    fn table1_flops_exact() {
        // Paper Table I FLOPs: 1.39 / 1.04 / (0.70) / 0.35 ×10⁸.
        // (The paper prints 0.30 for n=2, but its own "77.8% pruned"
        // column keeps 2/9 of the 3.13×10⁸ dense count, which is 0.70.)
        let net = vgg16_cifar();
        for (n, expect) in [
            (4usize, 139_198_464u64),
            (3, 104_398_848),
            (2, 69_599_232),
            (1, 34_799_616),
        ] {
            let plan = PrunePlan::uniform(13, n, 32);
            let rep = flops_after_pcnn(&net, &plan);
            assert_eq!(rep.pruned, expect, "n={n}");
        }
        let plan = PrunePlan::uniform(13, 1, 8);
        let rep = flops_after_pcnn(&net, &plan);
        assert!((rep.reduction - 8.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn table2_resnet_matches_paper() {
        // Paper Table II, n = 4: FLOPs 2.50×10⁸, params 0.51×10⁷,
        // weight compression 2.2×.
        let net = resnet18_cifar();
        let plan = PrunePlan::uniform(17, 4, 32);
        let flops = flops_after_pcnn(&net, &plan);
        assert_eq!(flops.pruned, 250_347_520);
        let rep = pcnn_compression(&net, &plan, &storage());
        assert_eq!(rep.params_after, 5_055_232);
        assert!((rep.weight_only - 2.207).abs() < 0.01);
        // n = 1: params 0.14×10⁷, compression ≈ 8.0 (paper rounds 7.9).
        let plan1 = PrunePlan::uniform(17, 1, 8);
        let rep1 = pcnn_compression(&net, &plan1, &storage());
        assert_eq!(rep1.params_after, 1_392_832);
        assert!((rep1.weight_only - 8.01).abs() < 0.02);
    }

    #[test]
    fn various_settings_match_footnotes() {
        // VGG various: ~9.0× weight compression, same params as n=1.
        let net = vgg16_cifar();
        let rep = pcnn_compression(&net, &PrunePlan::vgg16_various(), &storage());
        assert!((rep.weight_only - 9.0).abs() < 0.01, "{}", rep.weight_only);
        // ResNet various: params ≈ 0.14×10⁷, compression ≈ 7.9–8.0×.
        let net = resnet18_cifar();
        let rep = pcnn_compression(&net, &PrunePlan::resnet18_various(), &storage());
        assert_eq!(rep.params_after, 1_401_216);
        assert!(
            rep.weight_only > 7.9 && rep.weight_only < 8.0,
            "{}",
            rep.weight_only
        );
        let flops = flops_after_pcnn(&net, &PrunePlan::resnet18_various());
        assert!(
            (flops.reduction - 0.845).abs() < 0.02,
            "{}",
            flops.reduction
        );
    }

    #[test]
    fn fewer_patterns_increase_compression() {
        // Paper Table IV: compression grows monotonically as |P| shrinks.
        let net = vgg16_cifar();
        let mut prev = 0.0;
        for pats in [126usize, 32, 16, 8, 4] {
            let plan = PrunePlan::uniform(13, 4, pats);
            let rep = pcnn_compression(&net, &plan, &storage());
            assert!(rep.weight_plus_index > prev, "|P|={pats}");
            prev = rep.weight_plus_index;
        }
        // And the n=4 full-pattern value ≈ paper's 2.14 baseline.
        let rep = pcnn_compression(&net, &PrunePlan::uniform(13, 4, 126), &storage());
        assert!(
            (rep.weight_plus_index - 2.14).abs() < 0.02,
            "{}",
            rep.weight_plus_index
        );
    }

    #[test]
    fn eight_bit_storage_model() {
        // With 8-bit weights the relative index overhead quadruples.
        let net = vgg16_cifar();
        let plan = PrunePlan::uniform(13, 4, 16);
        let s32 = pcnn_compression(
            &net,
            &plan,
            &StorageModel {
                weight_bits: 32,
                ..Default::default()
            },
        );
        let s8 = pcnn_compression(
            &net,
            &plan,
            &StorageModel {
                weight_bits: 8,
                ..Default::default()
            },
        );
        assert!(s8.index_overhead() > s32.index_overhead() * 3.0);
        assert_eq!(s8.params_after, s32.params_after);
    }

    #[test]
    fn unprunable_layers_stay_dense() {
        let net = resnet18_cifar();
        let plan = PrunePlan::uniform(17, 1, 8);
        let rep = pcnn_compression(&net, &plan, &storage());
        for row in rep.layers.iter().filter(|r| r.name.ends_with(".ds")) {
            assert_eq!(row.kept_weights, row.dense_weights);
            assert_eq!(row.spm_index_bits, 0);
        }
    }
}
