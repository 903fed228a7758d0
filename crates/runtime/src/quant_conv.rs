//! The executable **quantised** pattern-sparse convolution layer.
//!
//! [`QuantPatternConv`] is the int8 twin of
//! [`crate::pattern_conv::PatternConv`]: the same compiled topology —
//! SPM codes, kernel registry, tap offset tables, zero-kernel skip flags
//! — but the packed non-zero sequences quantised per layer to `i8`
//! through `pcnn_core::quant`. This is exactly the economy the paper's
//! SPM format was designed for: quantisation shrinks the *weight* bits
//! while the pattern codes (the index structure) stay fixed, so the
//! compiled kernels and their offset tables are shared verbatim with the
//! f32 path.
//!
//! Execution follows the standard integer-inference contract:
//!
//! 1. activations quantise per image (`i8`, symmetric, scale from that
//!    image's max-abs — so a request's result never depends on its
//!    batch peers), fused into the band padding of the walk
//!    ([`pcnn_tensor::direct::band_walk_at`], the walk
//!    [`crate::pattern_conv::PatternConv`] runs in f32): an i8 band
//!    holds four times the rows of an f32 one, so most layers quantise
//!    each image's planes whole, once;
//! 2. every surviving tap contributes an `i8 × i8` MAC into an `i32`
//!    accumulator — a register tile of the output plane that every
//!    live kernel of the output channel streams through;
//! 3. requantisation maps the tile back to `f32` (`acc · s_w · s_a`),
//!    adds the folded batch-norm shift, and applies the fused ReLU
//!    before its single store — the `i32` sums never reach memory.
//!    Geometries without a tile quantise-and-pad the whole batch up
//!    front ([`crate::quant_kernels::quantize_batch_planes`]),
//!    accumulate one output channel at a time into `i32` planes, one
//!    kernel per dispatch
//!    ([`pcnn_tensor::direct::accumulate_plane_batch_dyn_i8`]), and
//!    requantise those ([`crate::quant_kernels::requantize_plane`]);
//!    the results are equal.
//!
//! Kernels whose quantised sequence is entirely zero are skipped — the
//! orthogonal coarse-pruning economy survives quantisation (and can only
//! grow, since tiny weights may round to the zero code).

use crate::pattern_conv::{PatternConv, Walk};
use crate::profile::{ConvPass, LayerStats};
use crate::quant_kernels::{
    per_image_activation_params_at, quantize_batch_planes_at, requantize_plane_at,
};
use crate::registry::KernelRegistry;
use pcnn_core::quant::{dequantize, quantize_symmetric, QuantParams};
use pcnn_tensor::conv::{conv2d_direct, Conv2dShape};
use pcnn_tensor::direct::{
    accumulate_plane_batch_dyn_i8_at, band_walk_at, has_tile, padded_dims, BatchPlanes, Requant,
    SpmKernels,
};
use pcnn_tensor::simd::{self, SimdLevel};
use pcnn_tensor::Tensor;
use std::time::Instant;

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

/// Bit widths of the quantised lowering.
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

/// Reusable scratch of the quantised batch path: the i8 padded planes
/// (one band of them where the geometry has a tile, the whole batch's
/// where it has none), the per-image scales, and — only for geometries
/// without a tile — one output channel's i32 accumulator planes. Grown
/// on first use and recycled across calls.
#[derive(Debug, Default)]
pub struct QuantScratch {
    padded: Vec<i8>,
    scales: Vec<f32>,
    acc: Vec<i32>,
}

impl QuantScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        QuantScratch::default()
    }
}

/// A compiled, immutable, thread-safe int8 sparse convolution.
#[derive(Debug, Clone)]
pub struct QuantPatternConv {
    registry: KernelRegistry,
    shape: Conv2dShape,
    /// Per-kernel SPM codes, shared verbatim with the f32 lowering.
    codes: Vec<u16>,
    /// Packed quantised non-zero sequences, kernel-major (`n` per kernel).
    qweights: Vec<i8>,
    /// Non-zeros per kernel (the paper's `n`).
    n: usize,
    wparams: QuantParams,
    act_bits: u32,
    /// Per-output-channel bias added in the requant epilogue (folded
    /// batch-norm shift and/or the conv's own bias) — kept in f32.
    bias: Option<Vec<f32>>,
    /// Fused ReLU applied in the requant epilogue.
    relu: bool,
    /// Per-kernel skip flags: all-zero quantised sequences.
    skip: Vec<bool>,
    /// Pattern-table size, for summaries.
    set_len: usize,
}

impl QuantPatternConv {
    /// Quantises a compiled [`PatternConv`] into its int8 twin: the SPM
    /// non-zero sequences quantise per layer to `weight_bits` while the
    /// pattern codes, registry, bias, and ReLU epilogue carry over
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if either bit width is outside `2..=8`.
    pub fn from_pattern_conv(pc: &PatternConv, opts: &QuantOptions) -> Self {
        assert!(
            (2..=8).contains(&opts.act_bits),
            "act_bits must be in 2..=8"
        );
        let spm = pc.spm();
        let n = spm.nonzeros_per_kernel();
        let shape = *pc.shape();
        let (qweights, wparams) = quantize_symmetric(spm.nonzeros(), opts.weight_bits);
        let skip: Vec<bool> = (0..spm.kernel_count())
            .map(|ki| qweights[ki * n..(ki + 1) * n].iter().all(|&q| q == 0))
            .collect();
        QuantPatternConv {
            registry: pc.registry().clone(),
            shape,
            codes: spm.codes().to_vec(),
            qweights,
            n,
            wparams,
            act_bits: opts.act_bits,
            bias: pc.bias().map(<[f32]>::to_vec),
            relu: pc.has_relu(),
            skip,
            set_len: spm.pattern_set().len(),
        }
    }

    /// The convolution shape.
    pub fn shape(&self) -> &Conv2dShape {
        &self.shape
    }

    /// The per-layer weight quantisation parameters.
    pub fn weight_params(&self) -> QuantParams {
        self.wparams
    }

    /// Activation bit width.
    pub fn act_bits(&self) -> u32 {
        self.act_bits
    }

    /// Non-zeros per kernel (the paper's `n`).
    pub fn nonzeros_per_kernel(&self) -> usize {
        self.n
    }

    /// Size of the layer's pattern table.
    pub fn pattern_count(&self) -> usize {
        self.set_len
    }

    /// Whether a ReLU is fused into the requant epilogue.
    pub fn has_relu(&self) -> bool {
        self.relu
    }

    /// Number of kernels skipped as all-zero after quantisation.
    pub fn skipped_kernels(&self) -> usize {
        self.skip.iter().filter(|&&s| s).count()
    }

    /// Dequantises the packed sequences back to a dense OIHW tensor —
    /// the weights the f32 reference path executes.
    pub fn decode_weights(&self) -> Tensor {
        let k = self.shape.kernel;
        let area = self.shape.kernel_area();
        let mut out = Tensor::zeros(&[self.shape.out_c, self.shape.in_c, k, k]);
        let data = out.as_mut_slice();
        for (ki, &code) in self.codes.iter().enumerate() {
            for (rank, &(ky, kx)) in self.registry.get(code as usize).taps().iter().enumerate() {
                data[ki * area + ky * k + kx] =
                    self.qweights[ki * self.n + rank] as f32 * self.wparams.scale;
            }
        }
        out
    }

    /// Executes the integer datapath on an NCHW input, allocating fresh
    /// scratch. Batch callers with a dispatch loop should hold a
    /// [`QuantScratch`] and use [`QuantPatternConv::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics on input shape mismatch.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        self.forward_tensor(input, None)
    }

    /// The batched integer execution path, mirroring
    /// [`PatternConv::forward_batch`]: one walk over the whole batch,
    /// each image's bands quantised at its own scale on the way in and
    /// each tile requantised in registers at that scale on the way out.
    ///
    /// `input` is `n` contiguous `in_c × h × w` f32 images; `out` is `n`
    /// contiguous `out_c × oh × ow` f32 outputs, fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `out` have the wrong length.
    pub fn forward_batch(
        &self,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
        scratch: &mut QuantScratch,
    ) {
        self.forward_batch_at(simd::active(), Walk::Tiled, input, n, h, w, out, scratch);
    }

    /// The fully pinned batched integer entry point: SIMD tier and
    /// kernel walk chosen by the caller, for benches and the parity
    /// suites (the results are equal on every combination).
    ///
    /// # Panics
    ///
    /// Panics if `input` or `out` have the wrong length.
    #[allow(clippy::too_many_arguments)] // bench/test entry point: every axis is load-bearing
    pub fn forward_batch_at(
        &self,
        level: SimdLevel,
        walk: Walk,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
        scratch: &mut QuantScratch,
    ) {
        self.forward_batch_impl(level, walk, input, n, h, w, out, scratch, None);
    }

    /// [`QuantPatternConv::forward`] with per-phase instrumentation into
    /// a profiler slot — the profiled graph walk's entry point. The pad
    /// phase covers everything before the first kernel (output
    /// allocation, the per-image scale derivation) plus every band's
    /// quantise-and-pad; requantisation is part of the kernel phase.
    pub(crate) fn forward_profiled(&self, input: &Tensor, stats: &LayerStats) -> Tensor {
        self.forward_tensor(input, Some((stats, Instant::now())))
    }

    fn forward_tensor(&self, input: &Tensor, profile: Option<(&LayerStats, Instant)>) -> Tensor {
        let dims = input.shape();
        assert_eq!(dims.len(), 4, "input must be NCHW");
        let (n, in_c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(in_c, self.shape.in_c, "input channel mismatch");
        let (oh, ow) = self.shape.out_hw(h, w);
        let mut out = Tensor::zeros(&[n, self.shape.out_c, oh, ow]);
        let mut scratch = QuantScratch::new();
        self.forward_batch_impl(
            simd::active(),
            Walk::Tiled,
            input.as_slice(),
            n,
            h,
            w,
            out.as_mut_slice(),
            &mut scratch,
            profile,
        );
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn forward_batch_impl(
        &self,
        level: SimdLevel,
        walk: Walk,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
        scratch: &mut QuantScratch,
        profile: Option<(&LayerStats, Instant)>,
    ) {
        let shape = &self.shape;
        let (oh, ow) = shape.out_hw(h, w);
        let in_img = shape.in_c * h * w;
        let out_img = shape.out_c * oh * ow;
        let out_plane_len = oh * ow;
        assert_eq!(input.len(), n * in_img, "input length mismatch");
        assert_eq!(out.len(), n * out_img, "output length mismatch");

        // Per-image activation scales: each request keeps its own, so
        // batching never changes its result.
        let aparams = per_image_activation_params_at(level, input, n, self.act_bits);
        let (ph, pw) = padded_dims(h, w, shape.pad);
        let plane_len = ph * pw;
        let in_c = shape.in_c;
        let offsets = self.registry.offset_table(pw);
        let record = |pad_ns: u64, dispatches: u64, padded: usize| {
            if let Some((stats, start)) = profile {
                let total = start.elapsed().as_nanos() as u64;
                stats.record_conv(&ConvPass {
                    images: n as u64,
                    pad_ns,
                    kernel_ns: total.saturating_sub(pad_ns),
                    kernel_dispatches: dispatches,
                    zero_kernels_skipped: self.skipped_kernels() as u64,
                    padded_bytes: padded as u64,
                    level,
                });
            }
        };
        // Everything before the first kernel is the pad phase.
        let since_entry = || profile.map_or(0, |(_, start)| start.elapsed().as_nanos() as u64);

        if walk == Walk::Tiled && has_tile(shape, self.n, oh, ow) {
            scratch.scales.clear();
            scratch.scales.extend(aparams.iter().map(|ap| ap.scale));
            let kernels = SpmKernels {
                codes: &self.codes,
                weights: &self.qweights,
                skip: &self.skip,
                offsets: &offsets,
                taps: self.n,
                in_c,
            };
            let epilogue = Requant {
                act_scales: &scratch.scales,
                // Every image quantises at `act_bits`: one top code.
                q_max: aparams.first().map_or(0, QuantParams::q_max),
                weight_scale: self.wparams.scale,
                bias: self.bias.as_deref(),
                relu: self.relu,
            };
            let prologue_ns = since_entry();
            let pass = band_walk_at(
                level,
                &kernels,
                epilogue,
                input,
                out,
                oh,
                ow,
                &mut scratch.padded,
                profile.is_some(),
            );
            record(prologue_ns + pass.pad_ns, 1, pass.padded);
            return;
        }

        // No tile for this geometry: quantise and pad every plane of
        // every image up front.
        quantize_batch_planes_at(
            level,
            input,
            n,
            shape.in_c,
            h,
            w,
            shape.pad,
            &aparams,
            &mut scratch.padded,
        );
        scratch.scales.clear();
        scratch
            .scales
            .extend(aparams.iter().map(|ap| self.wparams.scale * ap.scale));
        let padded = &scratch.padded[..n * in_c * plane_len];
        let scales = &scratch.scales[..];
        let pad_ns = since_entry();

        let mut dispatches = 0u64;
        for oc in 0..shape.out_c {
            let bias = self.bias.as_ref().map_or(0.0, |b| b[oc]);
            // Sum the channel's kernels one at a time into i32 planes,
            // then requantise those.
            let acc = &mut scratch.acc;
            acc.clear();
            acc.resize(n * out_plane_len, 0);
            for ic in 0..in_c {
                let ki = oc * in_c + ic;
                if self.skip[ki] {
                    continue;
                }
                let code = self.codes[ki] as usize;
                dispatches += 1;
                accumulate_plane_batch_dyn_i8_at(
                    level,
                    acc,
                    padded,
                    BatchPlanes {
                        out_base: 0,
                        out_stride: out_plane_len,
                        in_base: ic * plane_len,
                        in_stride: in_c * plane_len,
                        plane_len,
                        n,
                    },
                    oh,
                    ow,
                    shape.stride * pw,
                    &offsets[code * self.n..(code + 1) * self.n],
                    &self.qweights[ki * self.n..(ki + 1) * self.n],
                    shape.stride,
                );
            }
            for (ni, &scale) in scales.iter().enumerate() {
                let base = ni * out_img + oc * out_plane_len;
                requantize_plane_at(
                    level,
                    &acc[ni * out_plane_len..(ni + 1) * out_plane_len],
                    scale,
                    bias,
                    self.relu,
                    &mut out[base..base + out_plane_len],
                );
            }
        }
        record(pad_ns, dispatches, n * in_c * plane_len);
    }

    /// The dequantise-then-f32 reference: quantises the activations with
    /// the *same* per-image parameters the integer path derives,
    /// dequantises codes and weights back to f32, and runs the dense
    /// float convolution. The integer path must match this within float
    /// rounding — the contract the parity suite enforces at 1e-5.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        let n = input.shape()[0];
        let img = input.len() / n.max(1);
        let mut deq = Vec::with_capacity(input.len());
        for ni in 0..n {
            let (qa, aparams) =
                quantize_symmetric(&input.as_slice()[ni * img..(ni + 1) * img], self.act_bits);
            deq.extend(dequantize(&qa, aparams));
        }
        let xq = Tensor::from_vec(deq, input.shape());
        let weights = self.decode_weights();
        let bias_t = self
            .bias
            .as_ref()
            .map(|b| Tensor::from_vec(b.clone(), &[b.len()]));
        let mut y = conv2d_direct(&xq, &weights, bias_t.as_ref(), &self.shape);
        if self.relu {
            y.map_inplace(|v| v.max(0.0));
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_core::pattern::PatternSet;
    use pcnn_core::project::project_onto_set;
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

    fn quantized(w: &Tensor, shape: Conv2dShape, set: &PatternSet) -> QuantPatternConv {
        let pc = PatternConv::from_dense(w, shape, set).expect("encode");
        QuantPatternConv::from_pattern_conv(&pc, &QuantOptions::default())
    }

    #[test]
    fn int8_matches_dequantized_reference() {
        for n in [1usize, 2, 4] {
            let set = PatternSet::full(9, n);
            let shape = Conv2dShape::new(3, 5, 3, 1, 1);
            let w = random_pruned(5, 3, &set, 7 + n as u64);
            let x = random_input(&[2, 3, 6, 6], 11);
            let q = quantized(&w, shape, &set);
            let got = q.forward(&x);
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
        let got = q.forward(&x);
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
        let pc = PatternConv::from_dense(&w, shape, &set)
            .expect("encode")
            .with_bias(bias)
            .with_relu(true);
        let q = QuantPatternConv::from_pattern_conv(&pc, &QuantOptions::default());
        assert!(q.has_relu());
        let got = q.forward(&x);
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
        assert!(q.skipped_kernels() >= 3);
        let x = random_input(&[1, 3, 6, 6], 23);
        let got = q.forward(&x);
        let want = q.forward_reference(&x);
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
        // Channel 1's planes are exactly zero (no bias, kernels skipped).
        let (oh, ow) = shape.out_hw(6, 6);
        let plane = &got.as_slice()[oh * ow..2 * oh * ow];
        assert!(plane.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pruned_weights_quantise_to_zero_codes() {
        let set = PatternSet::full(9, 3);
        let shape = Conv2dShape::new(3, 4, 3, 1, 1);
        let w = random_pruned(4, 3, &set, 29);
        let q = quantized(&w, shape, &set);
        // Decoding the quantised layer puts zeros exactly where the
        // pruned weights were: pattern positions preserved, zero exact.
        let decoded = q.decode_weights();
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
        let mut scratch = QuantScratch::new();
        q.forward_batch(x.as_slice(), 8, 16, 16, &mut out, &mut scratch);
        assert_eq!(scratch.padded.len(), 96 * 18 * 18);
        assert!(scratch.padded.len() <= pcnn_tensor::direct::BAND_BYTES);
        assert!(scratch.acc.is_empty(), "the i32 sums never reach memory");
        let want = q.forward_reference(&x);
        pcnn_tensor::assert_slices_close(&out, want.as_slice(), 1e-4);
    }

    #[test]
    fn scratch_reuse_across_batch_sizes_is_clean() {
        let set = PatternSet::full(9, 2);
        let shape = Conv2dShape::new(2, 3, 3, 1, 1);
        let w = random_pruned(3, 2, &set, 31);
        let q = quantized(&w, shape, &set);
        let mut scratch = QuantScratch::new();
        for (size, seed) in [(4usize, 41u64), (1, 43), (6, 47)] {
            let x = random_input(&[size, 2, 5, 5], seed);
            let (oh, ow) = shape.out_hw(5, 5);
            let mut out = vec![0.0f32; size * 3 * oh * ow];
            q.forward_batch(x.as_slice(), size, 5, 5, &mut out, &mut scratch);
            let want = q.forward_reference(&x);
            pcnn_tensor::assert_slices_close(&out, want.as_slice(), 1e-5);
        }
    }
}
