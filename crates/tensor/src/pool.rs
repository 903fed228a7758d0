//! Pooling layers: 2×2 max pooling (VGG) and global average pooling
//! (ResNet head), with explicit backward passes, plus the
//! inference-only max pool the runtime executes.

#[cfg(target_arch = "x86_64")]
use crate::simd::Avx2Token;
use crate::simd::{self, ScalarToken, SimdLevel, SimdToken};
use crate::Tensor;

/// Result of a max-pool forward pass: the pooled output plus the argmax
/// indices needed by the backward pass.
#[derive(Debug, Clone)]
pub struct MaxPoolOut {
    /// Pooled NCHW output.
    pub output: Tensor,
    /// Flat input offset of the winning element for every output element.
    pub argmax: Vec<usize>,
}

/// `window`-sized, stride-`window` (non-overlapping) max pooling.
///
/// # Panics
///
/// Panics if the spatial dimensions are not divisible by `window`.
pub fn maxpool2d_forward(input: &Tensor, window: usize) -> MaxPoolOut {
    let dims = input.shape();
    assert_eq!(dims.len(), 4, "input must be NCHW");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert!(
        window > 0 && h % window == 0 && w % window == 0,
        "{h}x{w} not divisible by window {window}"
    );
    let (oh, ow) = (h / window, w / window);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let data = input.as_slice();

    let mut oi = 0;
    for ni in 0..n {
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..window {
                        for dx in 0..window {
                            let idx = plane + (oy * window + dy) * w + ox * window + dx;
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out.as_mut_slice()[oi] = best;
                    argmax[oi] = best_idx;
                    oi += 1;
                }
            }
        }
    }
    MaxPoolOut {
        output: out,
        argmax,
    }
}

/// Inference-only [`maxpool2d_forward`]: the pooled output alone, with
/// no argmax vector built. Bit-equal to `maxpool2d_forward(..).output`
/// on every input and both SIMD tiers — each window is scanned in the
/// same order with the same strict `>`, so a NaN never wins, ties
/// (signed zeros included) keep the first element seen, and an all-NaN
/// window yields `-inf`.
///
/// # Panics
///
/// Panics if the spatial dimensions are not divisible by `window`.
pub fn maxpool2d_infer(input: &Tensor, window: usize) -> Tensor {
    maxpool2d_infer_at(simd::active(), input, window)
}

/// [`maxpool2d_infer`] with the SIMD tier pinned by the caller.
pub fn maxpool2d_infer_at(level: SimdLevel, input: &Tensor, window: usize) -> Tensor {
    let dims = input.shape();
    assert_eq!(dims.len(), 4, "input must be NCHW");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert!(
        window > 0 && h % window == 0 && w % window == 0,
        "{h}x{w} not divisible by window {window}"
    );
    let mut out = Tensor::zeros(&[n, c, h / window, w / window]);
    match level.effective() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `effective()` returns Avx2 only after a positive
            // (cached) CPUID check on this host.
            unsafe { maxpool_planes_avx2(input.as_slice(), out.as_mut_slice(), h, w, window) }
        }
        _ => maxpool_planes(
            ScalarToken,
            input.as_slice(),
            out.as_mut_slice(),
            h,
            w,
            window,
        ),
    }
    out
}

/// The AVX2 instantiation of [`maxpool_planes`].
///
/// # Safety
///
/// AVX2 and FMA must be available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn maxpool_planes_avx2(data: &[f32], out: &mut [f32], h: usize, w: usize, window: usize) {
    // SAFETY: the function's own contract guarantees AVX2 and FMA.
    let token = unsafe { Avx2Token::assert_available() };
    maxpool_planes(token, data, out, h, w, window);
}

/// One running-maximum step of the window scan.
#[inline(always)]
fn keep_max(best: f32, v: f32) -> f32 {
    if v > best {
        v
    } else {
        best
    }
}

/// Pools every `h × w` plane of `data` into `out`. The 2×2 window —
/// the only one the model zoo uses — pools a pair of input rows eight
/// outputs at a time; other windows take the scalar scan.
#[inline(always)]
fn maxpool_planes<S: SimdToken>(
    t: S,
    data: &[f32],
    out: &mut [f32],
    h: usize,
    w: usize,
    window: usize,
) {
    let (oh, ow) = (h / window, w / window);
    if out.is_empty() {
        return;
    }
    let planes = data.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow));
    for (plane, pooled) in planes {
        let bands = plane
            .chunks_exact(window * w)
            .zip(pooled.chunks_exact_mut(ow));
        for (rows, orow) in bands {
            if window == 2 {
                let (top, bottom) = rows.split_at(w);
                maxpool_row_pair(t, top, bottom, orow);
                continue;
            }
            for (ox, o) in orow.iter_mut().enumerate() {
                let mut best = f32::NEG_INFINITY;
                for row in rows.chunks_exact(w) {
                    for &v in &row[ox * window..(ox + 1) * window] {
                        best = keep_max(best, v);
                    }
                }
                *o = best;
            }
        }
    }
}

/// One output row of a 2×2 pool. The scan order of a window is top
/// left, top right, bottom left, bottom right, so the vector path folds
/// the even columns of the top row, its odd columns, then the bottom
/// row's, each through the same `new > best` step.
#[inline(always)]
fn maxpool_row_pair<S: SimdToken>(t: S, top: &[f32], bottom: &[f32], out: &mut [f32]) {
    let ow = out.len();
    let mut ox = 0;
    while ox + 8 <= ow {
        let mut best = t.f32x8_splat(f32::NEG_INFINITY);
        for row in [top, bottom] {
            let (even, odd) = t.f32x8_deinterleave(
                t.f32x8_load(&row[2 * ox..]),
                t.f32x8_load(&row[2 * ox + 8..]),
            );
            best = t.f32x8_max_keep(even, best);
            best = t.f32x8_max_keep(odd, best);
        }
        t.f32x8_store(best, &mut out[ox..]);
        ox += 8;
    }
    for (x, o) in out.iter_mut().enumerate().skip(ox) {
        let window = [top[2 * x], top[2 * x + 1], bottom[2 * x], bottom[2 * x + 1]];
        *o = window.into_iter().fold(f32::NEG_INFINITY, keep_max);
    }
}

/// Backward max pooling: routes each output gradient to its argmax input.
pub fn maxpool2d_backward(grad_out: &Tensor, argmax: &[usize], input_shape: &[usize]) -> Tensor {
    assert_eq!(grad_out.len(), argmax.len(), "argmax length mismatch");
    let mut grad_in = Tensor::zeros(input_shape);
    let gi = grad_in.as_mut_slice();
    for (&g, &idx) in grad_out.as_slice().iter().zip(argmax.iter()) {
        gi[idx] += g;
    }
    grad_in
}

/// Global average pooling: NCHW → NC11.
pub fn global_avgpool_forward(input: &Tensor) -> Tensor {
    let dims = input.shape();
    assert_eq!(dims.len(), 4, "input must be NCHW");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let area = (h * w) as f32;
    let mut out = Tensor::zeros(&[n, c, 1, 1]);
    for ni in 0..n {
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            let s: f32 = input.as_slice()[plane..plane + h * w].iter().sum();
            out.as_mut_slice()[ni * c + ci] = s / area;
        }
    }
    out
}

/// Backward global average pooling: spreads each gradient uniformly.
pub fn global_avgpool_backward(grad_out: &Tensor, input_shape: &[usize]) -> Tensor {
    let (n, c, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    assert_eq!(grad_out.len(), n * c, "grad_out must be NC11");
    let area = (h * w) as f32;
    let mut grad_in = Tensor::zeros(input_shape);
    for ni in 0..n {
        for ci in 0..c {
            let g = grad_out.as_slice()[ni * c + ci] / area;
            let plane = (ni * c + ci) * h * w;
            for v in grad_in.as_mut_slice()[plane..plane + h * w].iter_mut() {
                *v = g;
            }
        }
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn maxpool_picks_maxima() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                0.0, -1.0, 9.0, 1.0, //
                -2.0, -3.0, 2.0, 0.5,
            ],
            &[1, 1, 4, 4],
        );
        let out = maxpool2d_forward(&x, 2);
        assert_eq!(out.output.as_slice(), &[4.0, 8.0, 0.0, 9.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let fwd = maxpool2d_forward(&x, 2);
        let go = Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]);
        let gi = maxpool2d_backward(&go, &fwd.argmax, &[1, 1, 2, 2]);
        assert_eq!(gi.as_slice(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn maxpool_ties_and_negatives() {
        // All-negative window still selects the max (strictly greater wins,
        // first occurrence kept on ties).
        let x = Tensor::from_vec(vec![-5.0, -5.0, -7.0, -6.0], &[1, 1, 2, 2]);
        let out = maxpool2d_forward(&x, 2);
        assert_eq!(out.output.as_slice(), &[-5.0]);
        assert_eq!(out.argmax, vec![0]);
    }

    /// Inputs that tell a faithful scan from a plain maximum: NaNs
    /// (never win, wherever they sit), signed zeros (the first one seen
    /// wins) and all-NaN windows (`-inf`).
    fn awkward_input(shape: &[usize], seed: u64, mode: u8) -> Tensor {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = shape.iter().product();
        let data = (0..len)
            .map(|_| match mode {
                0 => rng.gen_range(-4.0f32..4.0),
                // One element in three is a NaN of either sign.
                1 => match rng.gen_range(0..6u32) {
                    0 => f32::NAN,
                    1 => -f32::NAN,
                    _ => rng.gen_range(-32.0f32..32.0).round(),
                },
                // Zeros of both signs, with the odd negative.
                2 => [0.0, -0.0, -0.0, 0.0, -1.0][rng.gen_range(0..5usize)],
                // Nothing but NaN and -inf.
                _ => [f32::NAN, f32::NEG_INFINITY][rng.gen_range(0..2usize)],
            })
            .collect();
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn maxpool_infer_is_bit_equal_to_the_training_forward_on_both_tiers() {
        // Widths on both sides of the 8-output vector step (with and
        // without a scalar tail), a 3×3 window for the generic scan.
        let cases: [(&[usize], usize); 6] = [
            (&[2, 3, 16, 16], 2),
            (&[1, 2, 8, 8], 2),
            (&[1, 1, 4, 36], 2),
            (&[3, 1, 2, 2], 2),
            (&[1, 2, 6, 52], 2),
            (&[1, 2, 6, 9], 3),
        ];
        for (shape, window) in cases {
            for mode in 0..4u8 {
                for seed in 0..4u64 {
                    let x = awkward_input(shape, seed * 4 + u64::from(mode) + 1, mode);
                    let want = maxpool2d_forward(&x, window).output;
                    for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                        let got = maxpool2d_infer_at(level, &x, window);
                        assert_eq!(got.shape(), want.shape());
                        let bits = |t: &Tensor| -> Vec<u32> {
                            t.as_slice().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{shape:?} window {window} mode {mode} seed {seed} on {level}"
                        );
                    }
                }
            }
        }
        let empty = Tensor::zeros(&[0, 3, 4, 4]);
        assert_eq!(maxpool2d_infer(&empty, 2).shape(), &[0, 3, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn maxpool_rejects_ragged() {
        let x = Tensor::zeros(&[1, 1, 5, 4]);
        let _ = maxpool2d_forward(&x, 2);
    }

    #[test]
    fn global_avgpool_roundtrip() {
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]);
        let out = global_avgpool_forward(&x);
        assert_eq!(out.shape(), &[1, 2, 1, 1]);
        assert_eq!(out.as_slice(), &[1.5, 5.5]);
        let go = Tensor::from_vec(vec![4.0, 8.0], &[1, 2, 1, 1]);
        let gi = global_avgpool_backward(&go, &[1, 2, 2, 2]);
        assert_eq!(gi.as_slice(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn avgpool_gradient_sums_to_output_gradient() {
        let go = Tensor::from_vec(vec![3.0], &[1, 1, 1, 1]);
        let gi = global_avgpool_backward(&go, &[1, 1, 4, 4]);
        assert!((gi.sum() - 3.0).abs() < 1e-6);
    }
}
