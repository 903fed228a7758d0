//! The int8 half of the pattern-sparse convolution layer.
//!
//! Quantisation changes only the width of a pattern layer's weights,
//! never its index structure — the economy the paper's SPM format was
//! designed for. So int8 is not a second layer type:
//! [`PatternConv::with_int8`] (or [`crate::ExecutableGraph::with_int8`]
//! for a whole graph) gives a compiled [`PatternConv`] an int8 copy of
//! its packed non-zero sequences, quantised per layer through
//! `pcnn_core::quant` ([`Int8Weights`]), and every call names its
//! [`Precision`]. The SPM codes, kernel registry, tap offset tables,
//! bias and fused ReLU are the layer's own and serve both precisions.
//! The int8 copy keeps its own zero-kernel skip flags: a kernel whose
//! weights all round to the zero code is skipped in int8 while f32
//! still runs it.
//!
//! Execution follows the standard integer-inference contract on the
//! same band walk as f32 ([`PatternConv::forward_batch_at`]):
//!
//! 1. activations quantise per image (`i8`, symmetric, scale from that
//!    image's max-abs — so a request's result never depends on its
//!    batch peers), fused into the walk's band padding: an i8 band holds
//!    four times the rows of an f32 one, so most layers quantise each
//!    image's planes whole, once;
//! 2. every surviving tap contributes an `i8 × i8` MAC into an `i32`
//!    register tile of the output plane — on the AVX2 or scalar tile,
//!    one tap per widening multiply, or, where the CPU has AVX-VNNI and
//!    the layer at least [`pcnn_tensor::direct::VNNI_MIN_OUT_C`] output
//!    channels, up to four taps per `vpdpbusd` lane
//!    ([`pcnn_tensor::direct::band_walk_vnni`]): each band is packed one
//!    64-output tile at a time into three dword planes per input channel
//!    (taps 0–3, 4–7 and 8 of the 3×3 window, codes shifted to u8), and
//!    `Int8Weights::new` lays each kernel out as one packed `i32` of
//!    weights per tap group plus a per-channel seed that cancels the
//!    shift. All three walks produce equal sums;
//! 3. requantisation maps the tile back to `f32` (`acc · s_w · s_a`),
//!    adds the folded batch-norm shift, and applies the fused ReLU
//!    before its single store — the `i32` sums never reach memory.
//!
//! Geometries without a tile quantise-and-pad the whole batch, sum one
//! output channel at a time into `i32` planes, one kernel per dispatch,
//! and requantise those; the results are equal.
//! [`PatternConv::forward_reference`] is the oracle: the same
//! quantisation decisions in f32 arithmetic.

use crate::pattern_conv::PatternConv;
use pcnn_core::quant::{dequantize, quantize_symmetric, QuantParams};
use pcnn_core::spm::SpmLayer;
use pcnn_tensor::conv::conv2d_direct;
use pcnn_tensor::direct::{has_vnni, DwordTaps, SpmKernels, VNNI_MIN_OUT_C};
use pcnn_tensor::simd::SimdLevel;
use pcnn_tensor::Tensor;

/// The numeric precision an executable graph runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// The f32 path: pattern kernels over float planes.
    #[default]
    F32,
    /// The quantised path: i8 weights × i8 activations, i32 accumulation.
    Int8,
}

impl Precision {
    /// Both precisions, in [`Precision::index`] order.
    pub const ALL: [Precision; 2] = [Precision::F32, Precision::Int8];

    /// Dense index (0 = f32, 1 = int8) for per-precision metric arrays.
    pub fn index(self) -> usize {
        match self {
            Precision::F32 => 0,
            Precision::Int8 => 1,
        }
    }

    /// Short label for telemetry and bench output.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Bit widths of the int8 weight copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantOptions {
    /// Weight bits (2..=8); weights quantise per layer at compile time.
    pub weight_bits: u32,
    /// Activation bits (2..=8); activations quantise per image at run
    /// time.
    pub act_bits: u32,
}

impl Default for QuantOptions {
    /// The paper's "8-bit quantization for common cases".
    fn default() -> Self {
        QuantOptions {
            weight_bits: 8,
            act_bits: 8,
        }
    }
}

/// A pattern layer's int8 weight copy (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Int8Weights {
    /// Packed quantised non-zero sequences, kernel-major (`n` per kernel).
    pub(crate) qweights: Vec<i8>,
    pub(crate) wparams: QuantParams,
    pub(crate) act_bits: u32,
    /// Per-kernel skip flags: all-zero quantised sequences. A superset
    /// of the f32 flags, since small weights may round to the zero code.
    pub(crate) skip: Vec<bool>,
    /// The live kernels as the AVX-VNNI walk reads them, built where
    /// that walk runs: on CPUs with AVX-VNNI, for 3×3 kernels and at
    /// least `VNNI_MIN_OUT_C` output channels.
    pub(crate) dwords: Option<DwordTaps>,
}

impl Int8Weights {
    /// Quantises `spm`'s non-zero sequences per layer.
    ///
    /// # Panics
    ///
    /// Panics if either bit width is outside `2..=8`.
    pub(crate) fn new(spm: &SpmLayer, opts: &QuantOptions) -> Self {
        assert!(
            (2..=8).contains(&opts.act_bits),
            "act_bits must be in 2..=8"
        );
        let n = spm.nonzeros_per_kernel();
        let (qweights, wparams) = quantize_symmetric(spm.nonzeros(), opts.weight_bits);
        let skip: Vec<bool> = (0..spm.kernel_count())
            .map(|ki| qweights[ki * n..(ki + 1) * n].iter().all(|&q| q == 0))
            .collect();
        let set = spm.pattern_set();
        let vnni = has_vnni(SimdLevel::Avx2) && spm.out_channels() >= VNNI_MIN_OUT_C;
        let dwords = (vnni && set.area() == 9 && n > 0).then(|| {
            // A 3×3 position is already the walk's tap number 3·ky + kx.
            let positions: Vec<u8> = set
                .iter()
                .flat_map(|p| p.positions())
                .map(|t| t as u8)
                .collect();
            let kernels = SpmKernels {
                codes: spm.codes(),
                weights: &qweights,
                skip: &skip,
                offsets: &[],
                taps: n,
                in_c: spm.in_channels(),
            };
            DwordTaps::new(&kernels, &positions)
        });
        Int8Weights {
            qweights,
            wparams,
            act_bits: opts.act_bits,
            skip,
            dwords,
        }
    }
}

impl PatternConv {
    /// Dequantises the int8 sequences back to a dense OIHW tensor — the
    /// weights [`PatternConv::forward_reference`] executes.
    ///
    /// # Panics
    ///
    /// Panics when the layer carries no int8 weights.
    pub fn dequantized_weights(&self) -> Tensor {
        let q = self.int8();
        let (shape, n) = (self.shape(), self.spm().nonzeros_per_kernel());
        let (k, area) = (shape.kernel, shape.kernel_area());
        let mut out = Tensor::zeros(&[shape.out_c, shape.in_c, k, k]);
        let data = out.as_mut_slice();
        for (ki, &code) in self.spm().codes().iter().enumerate() {
            for (rank, &(ky, kx)) in self.registry().get(code as usize).taps().iter().enumerate() {
                data[ki * area + ky * k + kx] = q.qweights[ki * n + rank] as f32 * q.wparams.scale;
            }
        }
        out
    }

    /// The dequantise-then-f32 reference of the int8 path: quantises the
    /// activations with the *same* per-image parameters the integer path
    /// derives, dequantises codes and weights back to f32, and runs the
    /// dense float convolution. The integer path must match this within
    /// float rounding — the contract the parity suite enforces at 1e-5.
    ///
    /// # Panics
    ///
    /// Panics when the layer carries no int8 weights.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        let act_bits = self.int8().act_bits;
        let n = input.shape()[0];
        let img = input.len() / n.max(1);
        let mut deq = Vec::with_capacity(input.len());
        for ni in 0..n {
            let (qa, aparams) =
                quantize_symmetric(&input.as_slice()[ni * img..(ni + 1) * img], act_bits);
            deq.extend(dequantize(&qa, aparams));
        }
        let xq = Tensor::from_vec(deq, input.shape());
        let bias_t = self
            .bias()
            .map(|b| Tensor::from_vec(b.to_vec(), &[b.len()]));
        let mut y = conv2d_direct(
            &xq,
            &self.dequantized_weights(),
            bias_t.as_ref(),
            self.shape(),
        );
        if self.has_relu() {
            y.map_inplace(|v| v.max(0.0));
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern_conv::{ConvScratch, Walk};
    use pcnn_core::pattern::PatternSet;
    use pcnn_core::project::project_onto_set;
    use pcnn_tensor::conv::Conv2dShape;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn random_pruned(out_c: usize, in_c: usize, set: &PatternSet, seed: u64) -> Tensor {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut w = Tensor::from_vec(
            (0..out_c * in_c * 9)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect(),
            &[out_c, in_c, 3, 3],
        );
        for kernel in w.as_mut_slice().chunks_mut(9) {
            let _ = project_onto_set(kernel, set);
        }
        w
    }

    fn random_input(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = shape.iter().product();
        Tensor::from_vec(
            (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            shape,
        )
    }

    fn quantized(w: &Tensor, shape: Conv2dShape, set: &PatternSet) -> PatternConv {
        PatternConv::from_dense(w, shape, set)
            .expect("encode")
            .with_int8(&QuantOptions::default())
    }

    fn int8(q: &PatternConv, x: &Tensor) -> Tensor {
        q.forward_with(x, Precision::Int8)
    }

    #[test]
    fn int8_matches_dequantized_reference() {
        for n in [1usize, 2, 4] {
            let set = PatternSet::full(9, n);
            let shape = Conv2dShape::new(3, 5, 3, 1, 1);
            let w = random_pruned(5, 3, &set, 7 + n as u64);
            let x = random_input(&[2, 3, 6, 6], 11);
            let q = quantized(&w, shape, &set);
            let got = int8(&q, &x);
            let want = q.forward_reference(&x);
            pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
        }
    }

    #[test]
    fn int8_close_to_float_original() {
        // Against the *unquantised* float conv the error is the quant
        // noise: small but way above 1e-5 — sanity that the integer path
        // actually computes the convolution.
        let set = PatternSet::full(9, 4);
        let shape = Conv2dShape::new(4, 6, 3, 1, 1);
        let w = random_pruned(6, 4, &set, 3);
        let x = random_input(&[1, 4, 8, 8], 5);
        let q = quantized(&w, shape, &set);
        let got = int8(&q, &x);
        let want = conv2d_direct(&x, &w, None, &shape);
        let num: f32 = got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .map(|(a, b)| (a - b).powi(2))
            .sum();
        let rel = (num / want.sq_norm().max(1e-12)).sqrt();
        assert!(rel < 0.05, "relative error {rel}");
        assert!(rel > 1e-7, "suspiciously exact: quantisation not applied?");
    }

    #[test]
    fn strided_bias_relu_epilogue_matches_reference() {
        let set = PatternSet::full(9, 2);
        let shape = Conv2dShape::new(2, 4, 3, 2, 1);
        let w = random_pruned(4, 2, &set, 13);
        let x = random_input(&[3, 2, 9, 9], 17);
        let bias: Vec<f32> = (0..4).map(|i| 0.2 * i as f32 - 0.3).collect();
        let q = PatternConv::from_dense(&w, shape, &set)
            .expect("encode")
            .with_bias(bias)
            .with_relu(true)
            .with_int8(&QuantOptions::default());
        let got = int8(&q, &x);
        let want = q.forward_reference(&x);
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
        assert!(got.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn zero_kernels_stay_skipped_after_quantisation() {
        let set = PatternSet::full(9, 2);
        let mut w = random_pruned(4, 3, &set, 21);
        for ic in 0..3 {
            let ki = 3 + ic; // coarse-prune output channel 1
            w.as_mut_slice()[ki * 9..(ki + 1) * 9].fill(0.0);
        }
        let shape = Conv2dShape::new(3, 4, 3, 1, 1);
        let q = quantized(&w, shape, &set);
        assert!(q.skipped_kernels_at(Precision::Int8) >= 3);
        let x = random_input(&[1, 3, 6, 6], 23);
        let got = int8(&q, &x);
        let want = q.forward_reference(&x);
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
        // Channel 1's planes are exactly zero (no bias, kernels skipped).
        let (oh, ow) = shape.out_hw(6, 6);
        let plane = &got.as_slice()[oh * ow..2 * oh * ow];
        assert!(plane.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn int8_skips_kernels_that_f32_keeps() {
        // Kernel (oc 1, ic 0) holds weights far below half an int8 step
        // (the step is max|w| / 127 ≈ 0.008): int8 zeroes and skips it,
        // f32 must still run it. Both the tiled (8×8) and the untiled
        // (stride 2) geometry.
        let set = PatternSet::full(9, 3);
        for stride in [1usize, 2] {
            let mut w = random_pruned(3, 2, &set, 61);
            for v in &mut w.as_mut_slice()[2 * 9..3 * 9] {
                *v *= 1e-3;
            }
            let shape = Conv2dShape::new(2, 3, 3, stride, 1);
            let q = quantized(&w, shape, &set);
            assert!(q.skipped_kernels_at(Precision::Int8) > q.skipped_kernels());
            let x = random_input(&[2, 2, 8, 8], 67);
            let want_q = q.forward_reference(&x);
            pcnn_tensor::assert_slices_close(int8(&q, &x).as_slice(), want_q.as_slice(), 1e-5);
            let want_f = conv2d_direct(&x, &w, None, &shape);
            pcnn_tensor::assert_slices_close(q.forward(&x).as_slice(), want_f.as_slice(), 1e-5);
        }
    }

    #[test]
    fn pruned_weights_quantise_to_zero_codes() {
        let set = PatternSet::full(9, 3);
        let shape = Conv2dShape::new(3, 4, 3, 1, 1);
        let w = random_pruned(4, 3, &set, 29);
        let q = quantized(&w, shape, &set);
        // Decoding the quantised layer puts zeros exactly where the
        // pruned weights were: pattern positions preserved, zero exact.
        let decoded = q.dequantized_weights();
        for (a, b) in w.as_slice().iter().zip(decoded.as_slice()) {
            if *a == 0.0 {
                assert_eq!(*b, 0.0, "pruned position must stay exactly zero");
            }
        }
    }

    #[test]
    fn tiled_scratch_is_one_band_not_one_batch() {
        // 8 images × 96 planes of 16×16: the padded batch would be
        // 248 832 codes; one band is 96 × 18 × 18 — a whole plane each,
        // since i8 rows are a quarter the size of f32 ones.
        let set = PatternSet::full(9, 4);
        let shape = Conv2dShape::new(96, 2, 3, 1, 1);
        let w = random_pruned(2, 96, &set, 51);
        let q = quantized(&w, shape, &set);
        let x = random_input(&[8, 96, 16, 16], 53);
        let mut out = vec![0.0f32; 8 * 2 * 16 * 16];
        let mut scratch = ConvScratch::default();
        let (level, walk) = (pcnn_tensor::simd::active(), Walk::Tiled);
        let xs = x.as_slice();
        q.forward_batch_at(
            level,
            walk,
            Precision::Int8,
            xs,
            8,
            16,
            16,
            &mut out,
            &mut scratch,
        );
        assert_eq!(scratch.qpadded.len(), 96 * 18 * 18);
        assert!(scratch.qpadded.len() <= pcnn_tensor::direct::BAND_BYTES);
        assert!(scratch.acc.is_empty(), "the i32 sums never reach memory");
        assert!(scratch.padded.is_empty(), "no f32 band at int8");
        let want = q.forward_reference(&x);
        pcnn_tensor::assert_slices_close(&out, want.as_slice(), 1e-4);
    }

    #[test]
    fn scratch_reuse_across_batch_sizes_is_clean() {
        // One scratch through both precisions and shrinking and growing
        // batches.
        let set = PatternSet::full(9, 2);
        let shape = Conv2dShape::new(2, 3, 3, 1, 1);
        let w = random_pruned(3, 2, &set, 31);
        let q = quantized(&w, shape, &set);
        let mut scratch = ConvScratch::default();
        for (size, seed) in [(4usize, 41u64), (1, 43), (6, 47)] {
            let x = random_input(&[size, 2, 5, 5], seed);
            let (oh, ow) = shape.out_hw(5, 5);
            let mut out = vec![0.0f32; size * 3 * oh * ow];
            let mut run = |precision| {
                let (level, walk) = (pcnn_tensor::simd::active(), Walk::Tiled);
                let xs = x.as_slice();
                q.forward_batch_at(
                    level,
                    walk,
                    precision,
                    xs,
                    size,
                    5,
                    5,
                    &mut out,
                    &mut scratch,
                );
                out.clone()
            };
            let want = q.forward_reference(&x);
            pcnn_tensor::assert_slices_close(&run(Precision::Int8), want.as_slice(), 1e-5);
            let want = q.forward(&x);
            pcnn_tensor::assert_slices_close(&run(Precision::F32), want.as_slice(), 0.0);
        }
    }
}
