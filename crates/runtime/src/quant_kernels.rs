//! The integer-side kernels of the quantised execution path: activation
//! quantisation and the requantisation epilogue.
//!
//! The int8 contract is the standard one (and the one the paper's
//! accelerator SRAM sizing assumes): weights quantise per layer at
//! compile time, activations **per image** at run time, MACs accumulate
//! in `i32`, and one multiply by `s_w · s_a` returns to real values — at
//! which point the folded batch-norm shift (the conv bias) adds and the
//! fused ReLU clamps, so the whole float epilogue is a single pass over
//! the finished accumulator plane. Per-image (rather than per-batch)
//! activation scales matter for serving: a request's output must not
//! depend on which other requests the dynamic batcher happened to
//! coalesce it with.
//!
//! Activation quantisation is *fused into plane padding*: the band walk
//! quantises each row band as it pads it
//! ([`pcnn_tensor::direct::band_walk_at`]), and geometries without a
//! tile quantise-and-pad the whole batch up front
//! ([`quantize_batch_planes_at`] over
//! [`pcnn_tensor::direct::pad_quant_plane_overwrite`]) — either way the
//! i8 activations exist only in padded form and cost no extra pass.
//! Both go through one row quantiser. The scale derivation goes through
//! [`QuantParams::for_max_abs`], guaranteeing codes bit-identical to
//! `pcnn_core::quant::quantize_symmetric` — which is what lets the
//! parity suite compare the integer path against the
//! dequantise-then-f32 reference at 1e-5.

use pcnn_core::quant::QuantParams;
use pcnn_tensor::direct::{max_abs_at, pad_quant_plane_overwrite_at, padded_dims, requantize};
use pcnn_tensor::simd::SimdLevel;

/// Symmetric activation parameters for one image: the scale maps the
/// image's maximum absolute activation to the top code of `bits` bits
/// (all-zero inputs get scale 1.0, same as `quantize_symmetric`). The
/// max-abs reduction runs on the SIMD tier `level`
/// ([`pcnn_tensor::direct::max_abs_at`]) — exact on every tier, since
/// `max`/`abs` have no rounding.
///
/// # Panics
///
/// Panics if `bits` is outside `2..=8`.
pub fn activation_params_at(level: SimdLevel, data: &[f32], bits: u32) -> QuantParams {
    QuantParams::for_max_abs(max_abs_at(level, data), bits)
}

/// Activation parameters for each image of an `n`-image batch,
/// **independently** — the scale an image quantises at must not depend
/// on which requests it happened to coalesce with, so a request's int8
/// output is bit-identical whether it runs alone or inside any batch.
///
/// # Panics
///
/// Panics if `input.len()` is not a multiple of `n` or `bits` is
/// outside `2..=8`.
pub fn per_image_activation_params_at(
    level: SimdLevel,
    input: &[f32],
    n: usize,
    bits: u32,
) -> Vec<QuantParams> {
    assert_eq!(input.len() % n.max(1), 0, "input length not divisible");
    let img = input.len() / n.max(1);
    (0..n)
        .map(|ni| activation_params_at(level, &input[ni * img..(ni + 1) * img], bits))
        .collect()
}

/// Quantises and pads every plane of an `n × in_c × h × w` batch into
/// `buf` (resized to `n · in_c` padded i8 planes, fully overwritten):
/// image `ni`'s channel `ic` lands at plane index `ni · in_c + ic`,
/// quantised at that image's own scale (`params[ni]`).
///
/// # Panics
///
/// Panics if `input.len() != n · in_c · h · w` or `params.len() != n`.
#[allow(clippy::too_many_arguments)] // batch-plane geometry is irreducible
pub fn quantize_batch_planes_at(
    level: SimdLevel,
    input: &[f32],
    n: usize,
    in_c: usize,
    h: usize,
    w: usize,
    pad: usize,
    params: &[QuantParams],
    buf: &mut Vec<i8>,
) {
    assert_eq!(input.len(), n * in_c * h * w, "input length mismatch");
    assert_eq!(params.len(), n, "one QuantParams per image");
    let (ph, pw) = padded_dims(h, w, pad);
    let plane_len = ph * pw;
    let need = n * in_c * plane_len;
    if buf.len() < need {
        buf.resize(need, 0);
    }
    let img = in_c * h * w;
    for (ni, p) in params.iter().enumerate() {
        let q_max = p.q_max();
        for ic in 0..in_c {
            pad_quant_plane_overwrite_at(
                level,
                &input[ni * img + ic * h * w..ni * img + (ic + 1) * h * w],
                h,
                w,
                pad,
                p.scale,
                q_max,
                &mut buf[(ni * in_c + ic) * plane_len..(ni * in_c + ic + 1) * plane_len],
            );
        }
    }
}

/// The requantisation epilogue: maps one finished `i32` accumulator
/// plane back to real values in a single pass —
/// `out[i] = acc[i] · scale + bias`, optionally clamped at zero (the
/// fused ReLU). `scale` is the product of the weight and activation
/// scales. The arithmetic is identical on both tiers (convert,
/// multiply, add, max — one rounding each, no FMA); the AVX2
/// instantiation just runs it 8-wide.
///
/// # Panics
///
/// Panics if `acc.len() != out.len()`.
pub fn requantize_plane_at(
    level: SimdLevel,
    acc: &[i32],
    scale: f32,
    bias: f32,
    relu: bool,
    out: &mut [f32],
) {
    match level.effective() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `effective()` returns Avx2 only after a positive
            // (cached) CPUID check on this host.
            unsafe { requantize_plane_avx2(acc, scale, bias, relu, out) }
        }
        _ => requantize_plane_impl(acc, scale, bias, relu, out),
    }
}

/// # Safety
///
/// AVX2 must be available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn requantize_plane_avx2(acc: &[i32], scale: f32, bias: f32, relu: bool, out: &mut [f32]) {
    requantize_plane_impl(acc, scale, bias, relu, out);
}

#[inline(always)]
fn requantize_plane_impl(acc: &[i32], scale: f32, bias: f32, relu: bool, out: &mut [f32]) {
    assert_eq!(acc.len(), out.len(), "plane length mismatch");
    for (o, &a) in out.iter_mut().zip(acc) {
        *o = requantize(a, scale, bias, relu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_core::quant::{dequantize, quantize_symmetric};
    use pcnn_tensor::simd;

    #[test]
    fn activation_params_match_quantize_symmetric() {
        let data: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let (_, want) = quantize_symmetric(&data, 8);
        for level in [SimdLevel::Scalar, simd::active()] {
            assert_eq!(activation_params_at(level, &data, 8), want);
            assert_eq!(activation_params_at(level, &[0.0; 4], 8).scale, 1.0);
        }
    }

    #[test]
    fn quantize_batch_planes_codes_match_quantize_symmetric_per_image() {
        // 2 images × 2 channels of 3×3, pad 1: each image's interior
        // codes must equal the flat quantiser's run on that image alone,
        // and borders must be the zero code.
        let input: Vec<f32> = (0..2 * 2 * 9)
            .map(|i| (i as f32 * 0.11).cos() * (1.0 + i as f32 * 0.05))
            .collect();
        let img = 2 * 9;
        let params = per_image_activation_params_at(simd::active(), &input, 2, 8);
        // Distinct max-abs per image → distinct scales, proving the
        // independence property.
        assert_ne!(params[0].scale, params[1].scale);
        let mut buf = Vec::new();
        quantize_batch_planes_at(simd::active(), &input, 2, 2, 3, 3, 1, &params, &mut buf);
        let (ph, pw) = padded_dims(3, 3, 1);
        assert_eq!(buf.len(), 4 * ph * pw);
        for ni in 0..2 {
            let (flat, flat_params) = quantize_symmetric(&input[ni * img..(ni + 1) * img], 8);
            assert_eq!(params[ni], flat_params);
            for ic in 0..2 {
                let plane = ni * 2 + ic;
                for y in 0..3 {
                    for x in 0..3 {
                        let padded = buf[plane * ph * pw + (y + 1) * pw + (x + 1)];
                        assert_eq!(padded, flat[ic * 9 + y * 3 + x]);
                    }
                }
                // Top border row is all zero codes.
                assert!(buf[plane * ph * pw..plane * ph * pw + pw]
                    .iter()
                    .all(|&q| q == 0));
            }
        }
    }

    #[test]
    fn pad_quant_codes_match_quantize_symmetric_at_the_edges_on_both_tiers() {
        // A 127.0 pins the scale at exactly 1, so every ±x.5 below is a
        // true tie (round half away from zero) and the neighbours of
        // one half sit one ulp either side of it. Width 19 runs two
        // vector steps and a 3-element scalar tail per row.
        let ties: Vec<f32> = (0..56)
            .map(|i| (i as f32 + 0.5) * if i % 2 == 0 { 1.0 } else { -1.0 })
            .chain([127.0, -127.0, 126.5, -126.5, 0.0, -0.0])
            .chain([0.499_999_97, -0.499_999_97, 0.500_000_06, -0.500_000_06])
            .chain((0..10).map(|i| i as f32 * 0.37 - 1.9))
            .collect();
        let (h, w) = (4usize, 19usize);
        assert_eq!(ties.len(), h * w);
        let (want, params) = quantize_symmetric(&ties, 8);
        assert_eq!(params.scale, 1.0);
        assert_eq!(&want[..4], &[1, -2, 3, -4]);

        // Beyond the top code, infinite and not a number: the formula's
        // clamp saturates the first two and `NaN as i8` is the zero
        // code. (`quantize_symmetric` cannot be handed these — an
        // infinity would become the scale — so the oracle is its
        // formula at the scale above.)
        let wild = [
            127.49f32,
            127.5,
            -127.5,
            128.0,
            -300.0,
            1.0e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            f32::MIN,
        ];
        let wild: Vec<f32> = wild.iter().cycle().take(h * w).copied().collect();
        let formula = |v: f32| (v * (1.0 / params.scale)).round().clamp(-127.0, 127.0) as i8;
        assert_eq!(formula(f32::NAN), 0);
        assert_eq!(formula(f32::NEG_INFINITY), -127);

        let (ph, pw) = padded_dims(h, w, 1);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            for (plane, want) in [
                (&ties, want.clone()),
                (&wild, wild.iter().map(|&v| formula(v)).collect()),
            ] {
                let mut buf = vec![55i8; ph * pw];
                pad_quant_plane_overwrite_at(level, plane, h, w, 1, params.scale, 127, &mut buf);
                for y in 0..ph {
                    for x in 0..pw {
                        let interior = (1..=h).contains(&y) && (1..=w).contains(&x);
                        let code = if interior {
                            want[(y - 1) * w + x - 1]
                        } else {
                            0
                        };
                        assert_eq!(buf[y * pw + x], code, "({y}, {x}) on {level}");
                    }
                }
            }
        }
    }

    #[test]
    fn requantize_recovers_dequantized_products() {
        // acc = qw·qa for a few hand values; requant must equal the
        // dequantised float product plus bias.
        let (qw, wp) = quantize_symmetric(&[0.5, -0.25, 0.125], 8);
        let (qa, ap) = quantize_symmetric(&[0.75, 0.1, -0.6], 8);
        let acc: Vec<i32> = qw
            .iter()
            .zip(&qa)
            .map(|(&w, &a)| w as i32 * a as i32)
            .collect();
        let level = simd::active();
        let mut out = vec![0.0f32; 3];
        requantize_plane_at(level, &acc, wp.scale * ap.scale, 0.05, false, &mut out);
        let wd = dequantize(&qw, wp);
        let ad = dequantize(&qa, ap);
        for i in 0..3 {
            assert!((out[i] - (wd[i] * ad[i] + 0.05)).abs() < 1e-6);
        }
        // ReLU clamps the negative product.
        requantize_plane_at(level, &acc, wp.scale * ap.scale, 0.0, true, &mut out);
        assert_eq!(out[2], 0.0);
        assert!(out[0] > 0.0);
    }
}
