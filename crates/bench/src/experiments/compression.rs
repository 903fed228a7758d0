//! Tables I–III: pruning-rate / accuracy sweeps over `n`.

use super::accuracy::{accuracy_sweep, train_baseline, Proxy};
use super::Options;
use crate::table::{pct, ratio, sci, Table};
use pcnn_core::compress::{flops_after_pcnn, pcnn_compression, StorageModel};
use pcnn_core::PrunePlan;
use pcnn_nn::zoo::{resnet18_cifar, vgg16_cifar, vgg16_imagenet, NetworkShape};

/// Paper-reported reference cells for one row.
struct PaperRow {
    acc_loss: &'static str,
    comp_w: &'static str,
    comp_widx: &'static str,
}

fn sweep_table(
    title: &str,
    net: &NetworkShape,
    plans: Vec<(String, PrunePlan)>,
    paper: &[PaperRow],
    proxy: Option<Proxy>,
    opt: &Options,
) -> Table {
    let mut t = Table::new(
        title,
        &[
            "Config",
            "CONV FLOPs",
            "FLOPs pruned",
            "CONV params",
            "Comp (w)",
            "Comp (w+idx)",
            "Proxy acc",
            "Proxy acc loss",
            "Paper acc loss",
            "Paper comp (w / w+idx)",
        ],
    );

    // Baseline row.
    let base_acc = if opt.train {
        proxy.map(|p| train_baseline(p, opt))
    } else {
        None
    };
    t.row(vec![
        "Baseline".into(),
        sci(net.conv_macs() as f64),
        "-".into(),
        sci(net.conv_params() as f64),
        "-".into(),
        "-".into(),
        base_acc
            .as_ref()
            .map_or("-".into(), |b| pct(b.accuracy as f64)),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    // Accuracy sweep (optional, expensive).
    let sweep = base_acc.as_ref().map(|b| accuracy_sweep(b, &plans, opt));

    for (i, (label, plan)) in plans.iter().enumerate() {
        let flops = flops_after_pcnn(net, plan);
        let comp = pcnn_compression(net, plan, &StorageModel::default());
        let (acc_cell, loss_cell) = match (&sweep, &base_acc) {
            (Some(points), Some(_)) => {
                let p = &points[i];
                (pct(p.accuracy as f64), format!("{:+.2}%", p.delta * 100.0))
            }
            _ => ("-".into(), "-".into()),
        };
        let pr = paper.get(i);
        t.row(vec![
            label.clone(),
            sci(flops.pruned as f64),
            pct(flops.reduction),
            sci(comp.params_after as f64),
            ratio(comp.weight_only),
            ratio(comp.weight_plus_index),
            acc_cell,
            loss_cell,
            pr.map_or("-".into(), |p| p.acc_loss.into()),
            pr.map_or("-".into(), |p| format!("{} / {}", p.comp_w, p.comp_widx)),
        ]);
    }
    if !opt.train {
        t.note("proxy accuracy columns need a training run: `tables -- table1 --train`");
    }
    t
}

/// Table I: pruning rate and accuracy of different `n` for VGG-16 on
/// CIFAR-10.
pub fn table1(opt: &Options) -> Table {
    let net = vgg16_cifar();
    let plans = vec![
        ("n = 4".to_string(), PrunePlan::uniform(13, 4, 32)),
        ("n = 3".to_string(), PrunePlan::uniform(13, 3, 32)),
        ("n = 2".to_string(), PrunePlan::uniform(13, 2, 32)),
        ("n = 1".to_string(), PrunePlan::uniform(13, 1, 8)),
        ("Various".to_string(), PrunePlan::vgg16_various()),
    ];
    let paper = [
        PaperRow {
            acc_loss: "+0.25%",
            comp_w: "2.3x",
            comp_widx: "2.2x",
        },
        PaperRow {
            acc_loss: "+0.04%",
            comp_w: "3.0x",
            comp_widx: "2.9x",
        },
        PaperRow {
            acc_loss: "-0.02%",
            comp_w: "4.5x",
            comp_widx: "4.1x",
        },
        PaperRow {
            acc_loss: "-0.21%",
            comp_w: "9.0x",
            comp_widx: "8.4x",
        },
        PaperRow {
            acc_loss: "-0.21%",
            comp_w: "9.0x",
            comp_widx: "8.4x",
        },
    ];
    let mut t = sweep_table(
        "Table I: pruning rate and accuracy of different n for VGG-16 on CIFAR-10",
        &net,
        plans,
        &paper,
        Some(Proxy::Vgg16),
        opt,
    );
    t.note("paper's n = 2 FLOPs cell (0.30e8) conflicts with its own 77.8% pruned column; computed value is 0.70e8");
    t
}

/// Table II: pruning rate and accuracy of different `n` for ResNet-18 on
/// CIFAR-10 (only 3×3 layers pruned; 1×1 downsamples skipped).
pub fn table2(opt: &Options) -> Table {
    let net = resnet18_cifar();
    let plans = vec![
        ("n = 4".to_string(), PrunePlan::uniform(17, 4, 32)),
        ("n = 3".to_string(), PrunePlan::uniform(17, 3, 32)),
        ("n = 2".to_string(), PrunePlan::uniform(17, 2, 32)),
        ("n = 1".to_string(), PrunePlan::uniform(17, 1, 8)),
        ("Various".to_string(), PrunePlan::resnet18_various()),
    ];
    let paper = [
        PaperRow {
            acc_loss: "+0.06%",
            comp_w: "2.2x",
            comp_widx: "2.1x",
        },
        PaperRow {
            acc_loss: "-0.20%",
            comp_w: "3.0x",
            comp_widx: "2.8x",
        },
        PaperRow {
            acc_loss: "-0.43%",
            comp_w: "4.3x",
            comp_widx: "4.0x",
        },
        PaperRow {
            acc_loss: "-1.03%",
            comp_w: "7.9x",
            comp_widx: "7.3x",
        },
        PaperRow {
            acc_loss: "-0.75%",
            comp_w: "7.9x",
            comp_widx: "7.3x",
        },
    ];
    sweep_table(
        "Table II: pruning rate and accuracy of different n for ResNet-18 on CIFAR-10",
        &net,
        plans,
        &paper,
        Some(Proxy::ResNet18),
        opt,
    )
}

/// Table III: VGG-16 on ImageNet, `n ∈ {5, 4}`.
pub fn table3(opt: &Options) -> Table {
    let net = vgg16_imagenet();
    let plans = vec![
        ("n = 5".to_string(), PrunePlan::uniform(13, 5, 32)),
        ("n = 4".to_string(), PrunePlan::uniform(13, 4, 32)),
    ];
    let paper = [
        PaperRow {
            acc_loss: "+0.37%",
            comp_w: "1.8x",
            comp_widx: "1.7x",
        },
        PaperRow {
            acc_loss: "+0.35%",
            comp_w: "2.3x",
            comp_widx: "2.2x",
        },
    ];
    let mut t = sweep_table(
        "Table III: pruning rate and accuracy of different n for VGG-16 on ImageNet",
        &net,
        plans,
        &paper,
        None, // no ImageNet-scale proxy; accuracy cells stay analytic
        opt,
    );
    t.note("paper baseline FLOPs 6.82e9 vs standard 224x224 count 1.53e10; its per-row FLOPs cells conflict with its pruned-% column — computed values shown");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_analytic_matches_paper_columns() {
        let t = table1(&Options::default());
        assert_eq!(t.rows.len(), 6);
        let joined = t.to_string();
        // Weight compression ladder from the paper.
        assert!(joined.contains("2.25x"));
        assert!(joined.contains("3.00x"));
        assert!(joined.contains("4.50x"));
        assert!(joined.contains("9.00x"));
        // Exact FLOPs cells.
        assert!(joined.contains("3.13e8"));
        assert!(joined.contains("1.39e8"));
    }

    #[test]
    fn table2_analytic_matches_paper_columns() {
        let t = table2(&Options::default());
        let joined = t.to_string();
        assert!(joined.contains("5.55e8"));
        assert!(joined.contains("2.50e8"));
        assert!(joined.contains("2.21x")); // 2.207 ≈ paper 2.2
    }

    #[test]
    fn table3_has_two_configs() {
        let t = table3(&Options::default());
        assert_eq!(t.rows.len(), 3);
        assert!(t.to_string().contains("1.80x"));
    }
}
