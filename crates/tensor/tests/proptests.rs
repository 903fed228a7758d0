//! Property-based tests for the tensor substrate: linear-operator laws
//! of the convolution kernels and structural invariants of pooling.

use pcnn_tensor::conv::{col2im, conv2d_direct, conv2d_forward, im2col, Conv2dShape};
use pcnn_tensor::ops::{relu_forward, softmax};
use pcnn_tensor::pool::{global_avgpool_forward, maxpool2d_backward, maxpool2d_forward};
use pcnn_tensor::Tensor;
use proptest::prelude::*;

fn small_tensor(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_is_linear_in_input(
        x1 in small_tensor(2 * 18),
        x2 in small_tensor(2 * 18),
        w in small_tensor(3 * 2 * 9),
        alpha in -2.0f32..2.0,
    ) {
        let shape = Conv2dShape::new(2, 3, 3, 1, 1);
        let xa = Tensor::from_vec(x1.clone(), &[1, 2, 3, 6]);
        let xb = Tensor::from_vec(x2.clone(), &[1, 2, 3, 6]);
        let wt = Tensor::from_vec(w, &[3, 2, 3, 3]);
        // conv(x1 + a·x2) == conv(x1) + a·conv(x2)
        let mut sum = xa.clone();
        sum.axpy(alpha, &xb);
        let lhs = conv2d_forward(&sum, &wt, None, &shape);
        let mut rhs = conv2d_forward(&xa, &wt, None, &shape);
        rhs.axpy(alpha, &conv2d_forward(&xb, &wt, None, &shape));
        for (a, b) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn im2col_forward_equals_direct(
        x in small_tensor(2 * 25),
        w in small_tensor(4 * 2 * 9),
        stride in 1usize..=2,
    ) {
        let shape = Conv2dShape::new(2, 4, 3, stride, 1);
        let xt = Tensor::from_vec(x, &[1, 2, 5, 5]);
        let wt = Tensor::from_vec(w, &[4, 2, 3, 3]);
        let fast = conv2d_forward(&xt, &wt, None, &shape);
        let slow = conv2d_direct(&xt, &wt, None, &shape);
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn im2col_col2im_adjoint_property(
        x in small_tensor(3 * 16),
        y_seed in small_tensor(3 * 9 * 16),
    ) {
        // <im2col(x), y> == <x, col2im(y)> for any y.
        let shape = Conv2dShape::new(3, 1, 3, 1, 1);
        let (h, w) = (4, 4);
        let mut cx = vec![0.0f32; 3 * 9 * 16];
        im2col(&x, h, w, &shape, &mut cx);
        let lhs: f32 = cx.iter().zip(&y_seed).map(|(a, b)| a * b).sum();
        let mut aty = vec![0.0f32; 3 * 16];
        col2im(&y_seed, h, w, &shape, &mut aty);
        let rhs: f32 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn maxpool_output_dominates_inputs(x in small_tensor(16)) {
        let xt = Tensor::from_vec(x.clone(), &[1, 1, 4, 4]);
        let out = maxpool2d_forward(&xt, 2);
        let global_max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // The pooled maximum equals the global maximum.
        let pooled_max = out.output.as_slice().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert_eq!(pooled_max, global_max);
        // Every pooled value is one of the inputs.
        for &v in out.output.as_slice() {
            prop_assert!(x.contains(&v));
        }
    }

    #[test]
    fn maxpool_backward_conserves_gradient_mass(x in small_tensor(16), g in small_tensor(4)) {
        let xt = Tensor::from_vec(x, &[1, 1, 4, 4]);
        let fwd = maxpool2d_forward(&xt, 2);
        let go = Tensor::from_vec(g.clone(), &[1, 1, 2, 2]);
        let gi = maxpool2d_backward(&go, &fwd.argmax, &[1, 1, 4, 4]);
        let sum_in: f32 = gi.sum();
        let sum_out: f32 = g.iter().sum();
        prop_assert!((sum_in - sum_out).abs() < 1e-4);
    }

    #[test]
    fn gap_equals_mean(x in small_tensor(2 * 9)) {
        let xt = Tensor::from_vec(x.clone(), &[1, 2, 3, 3]);
        let out = global_avgpool_forward(&xt);
        let mean0: f32 = x[..9].iter().sum::<f32>() / 9.0;
        prop_assert!((out.as_slice()[0] - mean0).abs() < 1e-5);
    }

    #[test]
    fn relu_idempotent_and_nonnegative(x in small_tensor(32)) {
        let xt = Tensor::from_vec(x, &[32]);
        let once = relu_forward(&xt);
        let twice = relu_forward(&once);
        prop_assert_eq!(once.as_slice(), twice.as_slice());
        prop_assert!(once.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn softmax_is_shift_invariant(x in small_tensor(6), shift in -5.0f32..5.0) {
        let a = softmax(&Tensor::from_vec(x.clone(), &[1, 6]));
        let shifted: Vec<f32> = x.iter().map(|v| v + shift).collect();
        let b = softmax(&Tensor::from_vec(shifted, &[1, 6]));
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((p - q).abs() < 1e-5);
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD tier parity: the AVX2 instantiation of the batched pattern
// kernels must equal the scalar fallback *exactly* — bit-for-bit for
// f32 (shared kernel source; every tap one fused multiply-add, `vfmadd`
// on AVX2 and `f32::mul_add` on scalar, both correctly rounded) and
// 0 ULP for i32 accumulation — across random plane shapes (masked tails
// and widths outside the const-width set included), strides, batch
// sizes, and pattern masks. On hosts without AVX2 and FMA the
// comparison degenerates to scalar-vs-scalar, which keeps the suite
// meaningful under `PCNN_FORCE_SCALAR=1` too.
// ---------------------------------------------------------------------------

use pcnn_tensor::direct::{
    accumulate_plane_batch_dyn_at, accumulate_plane_batch_dyn_i8_at, max_abs_at,
    pad_quant_plane_overwrite_at, padded_dims, BatchPlanes,
};
use pcnn_tensor::simd::SimdLevel;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// The widest tier this host can execute (scalar without AVX2 and FMA).
fn vector_level() -> SimdLevel {
    SimdLevel::Avx2.effective()
}

/// Pattern geometry shared by the two kernel parity tests: tap offsets
/// for the 3×3 positions of `mask` on a padded plane of width `pw`.
fn mask_offsets(mask: u16, pw: usize) -> Vec<usize> {
    (0..9)
        .filter(|p| mask & (1 << p) != 0)
        .map(|p| (p / 3) * pw + (p % 3))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simd_batch_kernel_equals_scalar_bitwise_f32(
        oh in 1usize..=7,
        ow in 1usize..=34,
        stride in 1usize..=2,
        mask in 0u16..512u16,
        nimg in 1usize..=3,
        seed in 0u64..1_000_000u64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pw = (ow - 1) * stride + 3;
        let ph = (oh - 1) * stride + 3;
        let plane_len = ph * pw;
        let padded: Vec<f32> = (0..nimg * plane_len)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect();
        let offsets = mask_offsets(mask, pw);
        let weights: Vec<f32> = (0..offsets.len())
            .map(|_| rng.gen_range(-1.5f32..1.5))
            .collect();
        // Output planes pre-seeded (the runtime seeds them with the
        // channel bias), identically for both tiers.
        let seeded: Vec<f32> = (0..nimg * oh * ow)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let geo = BatchPlanes {
            out_base: 0,
            out_stride: oh * ow,
            in_base: 0,
            in_stride: plane_len,
            plane_len,
            n: nimg,
        };
        let mut scalar_out = seeded.clone();
        let mut simd_out = seeded;
        accumulate_plane_batch_dyn_at(
            SimdLevel::Scalar, &mut scalar_out, &padded, geo, oh, ow,
            stride * pw, &offsets, &weights, stride,
        );
        accumulate_plane_batch_dyn_at(
            vector_level(), &mut simd_out, &padded, geo, oh, ow,
            stride * pw, &offsets, &weights, stride,
        );
        for (i, (a, b)) in scalar_out.iter().zip(&simd_out).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "f32 tier mismatch at {} ({} vs {}): oh={} ow={} stride={} mask={}",
                i, a, b, oh, ow, stride, mask
            );
        }
    }

    #[test]
    fn simd_batch_kernel_equals_scalar_exact_i8(
        oh in 1usize..=7,
        ow in 1usize..=34,
        stride in 1usize..=2,
        mask in 0u16..512u16,
        nimg in 1usize..=3,
        seed in 0u64..1_000_000u64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5);
        let pw = (ow - 1) * stride + 3;
        let ph = (oh - 1) * stride + 3;
        let plane_len = ph * pw;
        let padded: Vec<i8> = (0..nimg * plane_len)
            .map(|_| rng.gen_range(-127i32..=127) as i8)
            .collect();
        let offsets = mask_offsets(mask, pw);
        let weights: Vec<i8> = (0..offsets.len())
            .map(|_| rng.gen_range(-127i32..=127) as i8)
            .collect();
        let seeded: Vec<i32> = (0..nimg * oh * ow)
            .map(|_| rng.gen_range(-1000i32..1000))
            .collect();
        let geo = BatchPlanes {
            out_base: 0,
            out_stride: oh * ow,
            in_base: 0,
            in_stride: plane_len,
            plane_len,
            n: nimg,
        };
        let mut scalar_out = seeded.clone();
        let mut simd_out = seeded;
        accumulate_plane_batch_dyn_i8_at(
            SimdLevel::Scalar, &mut scalar_out, &padded, geo, oh, ow,
            stride * pw, &offsets, &weights, stride,
        );
        accumulate_plane_batch_dyn_i8_at(
            vector_level(), &mut simd_out, &padded, geo, oh, ow,
            stride * pw, &offsets, &weights, stride,
        );
        prop_assert_eq!(
            scalar_out, simd_out,
            "i32 tier mismatch: oh={} ow={} stride={} mask={}", oh, ow, stride, mask
        );
    }

    #[test]
    fn simd_quant_pad_and_max_abs_equal_scalar(
        h in 1usize..=9,
        w in 1usize..=19,
        pad in 0usize..=2,
        seed in 0u64..1_000_000u64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5A5A);
        let plane: Vec<f32> = (0..h * w).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
        prop_assert_eq!(
            max_abs_at(SimdLevel::Scalar, &plane).to_bits(),
            max_abs_at(vector_level(), &plane).to_bits()
        );
        let (ph, pw) = padded_dims(h, w, pad);
        let scale = max_abs_at(SimdLevel::Scalar, &plane).max(1e-6) / 127.0;
        let mut scalar_buf = vec![7i8; ph * pw];
        let mut simd_buf = vec![-7i8; ph * pw];
        pad_quant_plane_overwrite_at(
            SimdLevel::Scalar, &plane, h, w, pad, scale, 127, &mut scalar_buf,
        );
        pad_quant_plane_overwrite_at(
            vector_level(), &plane, h, w, pad, scale, 127, &mut simd_buf,
        );
        prop_assert_eq!(scalar_buf, simd_buf, "quant-pad tier mismatch: h={} w={} pad={}", h, w, pad);
    }
}
