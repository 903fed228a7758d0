//! The executable pattern-sparse convolution layer, at either precision.
//!
//! [`PatternConv`] owns an SPM-encoded weight layer plus its compiled
//! [`KernelRegistry`] and, once [`PatternConv::with_int8`] has run, an
//! int8 copy of its non-zero weights ([`crate::quant_conv`]). Every
//! call names its [`Precision`], and both run one **band-resident,
//! output-stationary walk** ([`pcnn_tensor::direct::band_walk_at`]),
//! differing only in the epilogue handed to it ([`BiasRelu`] or
//! [`Requant`]): image by image, one row band of all `in_c` input
//! planes — sized to stay in L1 — is zero-padded (int8: quantised at
//! that image's scale) into a band-sized scratch, and every output
//! channel then runs over it: a register tile of the output plane is
//! seeded with the bias, every live input-channel kernel of that
//! channel streams its `n` taps through it in ascending `ic`, and the
//! fused ReLU (int8: requantisation) runs on the registers on the way
//! to a single store. The band is the operand read `out_c` times, so it
//! is the one kept close; the weights stream past once per band. At
//! int8, on CPUs with AVX-VNNI and from
//! [`pcnn_tensor::direct::VNNI_MIN_OUT_C`] output channels up, the walk
//! is [`pcnn_tensor::direct::band_walk_vnni`] instead: each tile of the
//! band packed into tap quads, equal sums (`crate::quant_conv` has the
//! layout).
//! Geometries without a tile (stride ≠ 1, kernels other than 3×3 pad 1,
//! untiled widths, more than 9 taps) pad the whole batch once and run a
//! channel loop one kernel at a time through
//! [`pcnn_tensor::direct::accumulate_plane_batch_dyn_at`] (int8: into
//! `i32` planes through `accumulate_plane_batch_dyn_i8_at`, requantised
//! afterwards); both produce bit-identical results. Compared with dense
//! im2col this touches `n/k²` of the weights and never materialises the
//! column matrix.
//!
//! Kernels whose non-zero sequence is entirely zero — the signature of
//! an *orthogonal* coarse-grained pruning pass (kernel/channel pruning
//! on top of PCNN, `pcnn_core::fuse`) — are skipped outright, so fused
//! coarse+pattern sparsity shows up as real runtime savings. Each
//! precision keeps its own skip flags: quantisation can zero more
//! kernels than f32 has.

use crate::profile::{ConvPass, ConvWalk, LayerStats};
use crate::quant_conv::{Int8Weights, Precision, QuantOptions};
use crate::quant_kernels::{
    per_image_activation_params_at, quantize_batch_planes_at, requantize_plane_at,
};
use crate::registry::{KernelRegistry, PatternSchedule};
use pcnn_core::pattern::PatternSet;
use pcnn_core::quant::QuantParams;
use pcnn_core::spm::{EncodeSpmError, SpmLayer};
use pcnn_tensor::conv::Conv2dShape;
use pcnn_tensor::direct::{
    accumulate_plane_batch_dyn_at, accumulate_plane_batch_dyn_i8_at, band_walk_at, band_walk_vnni,
    has_tile, has_vnni, pad_plane_overwrite, padded_dims, relu_in_place_at, BatchPlanes, BiasRelu,
    Requant, SpmKernels,
};
use pcnn_tensor::simd::{self, SimdLevel};
use pcnn_tensor::Tensor;
use std::time::Instant;

/// Which kernel walk a level-pinned call runs. Production entry points
/// always ask for [`Walk::Tiled`]; benches and the parity suites pin
/// [`Walk::PerKernel`] to hold the two against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// The band-resident tile walk wherever the geometry has a tile
    /// ([`pcnn_tensor::direct::has_tile`]), per-kernel elsewhere.
    Tiled,
    /// One dispatch per live `(oc, ic)` kernel on every geometry.
    PerKernel,
}

/// Reusable scratch of the batched entry points, for either precision:
/// padded planes (one band of them where the geometry has a tile, the
/// whole batch's where it has none), the int8 path's per-image scales,
/// the AVX-VNNI walk's packed tile and, only for int8 geometries without
/// a tile, one output channel's `i32` sums. Grown on first use and
/// recycled across calls.
#[derive(Debug, Default)]
pub struct ConvScratch {
    pub(crate) padded: Vec<f32>,
    pub(crate) qpadded: Vec<i8>,
    pub(crate) packed: Vec<u32>,
    pub(crate) scales: Vec<f32>,
    pub(crate) acc: Vec<i32>,
}

/// A compiled, immutable, thread-safe sparse convolution.
#[derive(Debug, Clone)]
pub struct PatternConv {
    spm: SpmLayer,
    registry: KernelRegistry,
    shape: Conv2dShape,
    /// Per-output-channel bias added after accumulation (folded
    /// batch-norm shift and/or the conv's own bias).
    bias: Option<Vec<f32>>,
    /// Fused ReLU applied to the finished output plane.
    relu: bool,
    /// Per-kernel skip flags for all-zero (coarsely pruned) kernels.
    skip: Vec<bool>,
    /// Live kernels counted by `(ic, pattern)` group (a statistic).
    schedule: PatternSchedule,
    /// The int8 weight copy, once [`PatternConv::with_int8`] has run
    /// (boxed: an `Op` holds the layer inline).
    int8: Option<Box<Int8Weights>>,
}

impl PatternConv {
    /// Compiles an SPM layer into an executable sparse convolution.
    ///
    /// # Panics
    ///
    /// Panics if the SPM geometry disagrees with `shape`.
    pub fn from_spm(spm: SpmLayer, shape: Conv2dShape) -> Self {
        assert_eq!(spm.out_channels(), shape.out_c, "out_c mismatch");
        assert_eq!(spm.in_channels(), shape.in_c, "in_c mismatch");
        assert_eq!(
            spm.pattern_set().area(),
            shape.kernel_area(),
            "kernel area mismatch"
        );
        let registry = KernelRegistry::for_set(spm.pattern_set());
        let skip: Vec<bool> = (0..spm.kernel_count())
            .map(|ki| spm.kernel_is_zero(ki))
            .collect();
        let schedule = PatternSchedule::build(spm.codes(), &skip, shape.out_c, shape.in_c);
        PatternConv {
            spm,
            registry,
            shape,
            bias: None,
            relu: false,
            skip,
            schedule,
            int8: None,
        }
    }

    /// Encodes a pattern-conformant dense OIHW weight and compiles it.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeSpmError`] when a kernel's support fits no
    /// pattern of `set`.
    pub fn from_dense(
        weight: &Tensor,
        shape: Conv2dShape,
        set: &PatternSet,
    ) -> Result<Self, EncodeSpmError> {
        Ok(Self::from_spm(SpmLayer::encode(weight, set)?, shape))
    }

    /// Attaches a per-output-channel bias (folded BN shift).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != out_c`.
    pub fn with_bias(mut self, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), self.shape.out_c, "bias length mismatch");
        self.bias = Some(bias);
        self
    }

    /// Fuses a ReLU into the layer's epilogue.
    pub fn with_relu(mut self, relu: bool) -> Self {
        self.relu = relu;
        self
    }

    /// Adds the int8 weight copy: the non-zero sequences quantise per
    /// layer to `opts.weight_bits`, everything else is shared and the
    /// f32 weights stay. Call it after [`PatternConv::with_bias`] /
    /// [`PatternConv::with_relu`] or before — the epilogue is shared.
    ///
    /// # Panics
    ///
    /// Panics if either bit width is outside `2..=8`.
    pub fn with_int8(mut self, opts: &QuantOptions) -> Self {
        self.quantize(opts);
        self
    }

    /// [`PatternConv::with_int8`] in place, for a compiled graph.
    pub(crate) fn quantize(&mut self, opts: &QuantOptions) {
        self.int8 = Some(Box::new(Int8Weights::new(&self.spm, opts)));
    }

    /// The int8 weight copy.
    ///
    /// # Panics
    ///
    /// Panics when [`PatternConv::with_int8`] has not run.
    pub(crate) fn int8(&self) -> &Int8Weights {
        self.int8
            .as_ref()
            .expect("int8 weights not compiled: call with_int8 first")
    }

    /// The per-layer weight quantisation parameters, when the layer
    /// carries int8 weights.
    pub fn weight_params(&self) -> Option<QuantParams> {
        self.int8.as_ref().map(|q| q.wparams)
    }

    /// The layer's live kernels counted by `(ic, pattern)` group.
    pub fn schedule(&self) -> &PatternSchedule {
        &self.schedule
    }

    /// The underlying SPM encoding.
    pub fn spm(&self) -> &SpmLayer {
        &self.spm
    }

    /// The compiled kernel registry.
    pub fn registry(&self) -> &KernelRegistry {
        &self.registry
    }

    /// The convolution shape.
    pub fn shape(&self) -> &Conv2dShape {
        &self.shape
    }

    /// Whether a ReLU is fused into this layer.
    pub fn has_relu(&self) -> bool {
        self.relu
    }

    /// The per-output-channel bias, when one is attached.
    pub fn bias(&self) -> Option<&[f32]> {
        self.bias.as_deref()
    }

    /// Number of kernels skipped as all-zero at f32 (orthogonal coarse
    /// pruning).
    pub fn skipped_kernels(&self) -> usize {
        self.skipped_kernels_at(Precision::F32)
    }

    /// Number of kernels `precision` skips as all-zero.
    ///
    /// # Panics
    ///
    /// Panics for `Int8` when the layer carries no int8 weights.
    pub fn skipped_kernels_at(&self, precision: Precision) -> usize {
        self.skip_flags(precision).iter().filter(|&&s| s).count()
    }

    fn skip_flags(&self, precision: Precision) -> &[bool] {
        match precision {
            Precision::F32 => &self.skip,
            Precision::Int8 => &self.int8().skip,
        }
    }

    /// Executes on an NCHW input at f32 with batch-level amortisation.
    ///
    /// # Panics
    ///
    /// Panics on input shape mismatch.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        self.forward_with(input, Precision::F32)
    }

    /// [`PatternConv::forward`] at the requested precision.
    ///
    /// # Panics
    ///
    /// Panics on input shape mismatch, and for `Int8` when the layer
    /// carries no int8 weights.
    pub fn forward_with(&self, input: &Tensor, precision: Precision) -> Tensor {
        self.forward_tensor(input, precision, None)
    }

    /// The batched execution path: one walk over the whole batch (see
    /// the module docs), so the offset table, the dispatch and the
    /// scratch are paid once per layer rather than once per image —
    /// what makes dynamic batching in `pcnn-serve` cheaper than
    /// per-image dispatch even on a single core. At int8 each image's
    /// bands quantise at its own scale on the way in and each tile
    /// requantises in registers at that scale on the way out. The SIMD
    /// tier and kernel walk are the caller's (production passes
    /// `simd::active()` and [`Walk::Tiled`]; benches and property suites
    /// diff the four combinations against each other).
    ///
    /// `input` is `n` contiguous `in_c × h × w` images; `out` is `n`
    /// contiguous `out_c × oh × ow` outputs, fully overwritten.
    /// `scratch` is reused across calls: it grows to one band of padded
    /// planes (at most [`pcnn_tensor::direct::BAND_BYTES`] unless one
    /// tile's rows exceed that), or to `n · in_c` padded planes where
    /// the geometry has no tile.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `out` have the wrong length, and for `Int8`
    /// when the layer carries no int8 weights.
    #[allow(clippy::too_many_arguments)] // bench/test entry point: every axis is load-bearing
    pub fn forward_batch_at(
        &self,
        level: SimdLevel,
        walk: Walk,
        precision: Precision,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        self.forward_batch_impl(level, walk, precision, input, n, h, w, out, scratch, None);
    }

    /// [`PatternConv::forward_with`], instrumented into a profiler slot
    /// when `profile` is given — the profiled graph walk's entry point.
    /// The caller's entry time anchors the pass: the pad phase is
    /// everything before the first kernel (output allocation and the
    /// int8 scale derivation included) plus every band's padding.
    pub(crate) fn forward_tensor(
        &self,
        input: &Tensor,
        precision: Precision,
        profile: Option<(&LayerStats, Instant)>,
    ) -> Tensor {
        let dims = input.shape();
        assert_eq!(dims.len(), 4, "input must be NCHW");
        let (n, in_c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(in_c, self.shape.in_c, "input channel mismatch");
        let (oh, ow) = self.shape.out_hw(h, w);
        let mut out = Tensor::zeros(&[n, self.shape.out_c, oh, ow]);
        self.forward_batch_impl(
            simd::active(),
            Walk::Tiled,
            precision,
            input.as_slice(),
            n,
            h,
            w,
            out.as_mut_slice(),
            &mut ConvScratch::default(),
            profile,
        );
        out
    }

    /// The walk's view of one precision's weights.
    fn kernels<'a, W>(
        &'a self,
        weights: &'a [W],
        skip: &'a [bool],
        offsets: &'a [usize],
    ) -> SpmKernels<'a, W> {
        SpmKernels {
            codes: self.spm.codes(),
            weights,
            skip,
            offsets,
            taps: self.spm.nonzeros_per_kernel(),
            in_c: self.shape.in_c,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn forward_batch_impl(
        &self,
        level: SimdLevel,
        walk: Walk,
        precision: Precision,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
        scratch: &mut ConvScratch,
        profile: Option<(&LayerStats, Instant)>,
    ) {
        let shape = &self.shape;
        let (oh, ow) = shape.out_hw(h, w);
        let in_c = shape.in_c;
        let out_plane_len = oh * ow;
        let out_img = shape.out_c * out_plane_len;
        assert_eq!(input.len(), n * in_c * h * w, "input length mismatch");
        assert_eq!(out.len(), n * out_img, "output length mismatch");

        let int8 = (precision == Precision::Int8).then(|| self.int8());
        let skip = self.skip_flags(precision);
        // Per-image activation scales: each request keeps its own, so
        // batching never changes its result.
        let aparams = int8.map_or_else(Vec::new, |q| {
            per_image_activation_params_at(level, input, n, q.act_bits)
        });
        let (ph, pw) = padded_dims(h, w, shape.pad);
        let plane_len = ph * pw;
        let nz = self.spm.nonzeros_per_kernel();
        let offsets = self.registry.offset_table(pw);
        let elem_bytes = int8.map_or(size_of::<f32>(), |_| size_of::<i8>());
        let record = |pad_ns: u64, dispatches: u64, padded: usize, walk: ConvWalk| {
            if let Some((stats, start)) = profile {
                let total = start.elapsed().as_nanos() as u64;
                stats.record_conv(&ConvPass {
                    images: n as u64,
                    pad_ns,
                    kernel_ns: total.saturating_sub(pad_ns),
                    kernel_dispatches: dispatches,
                    zero_kernels_skipped: skip.iter().filter(|&&s| s).count() as u64,
                    padded_bytes: (padded * elem_bytes) as u64,
                    level,
                    walk,
                });
            }
        };
        // Everything before the first kernel is the pad phase.
        let since_entry = || profile.map_or(0, |(_, start)| start.elapsed().as_nanos() as u64);

        if walk == Walk::Tiled && has_tile(shape, nz, oh, ow) {
            let (bias, relu, timed) = (self.bias.as_deref(), self.relu, profile.is_some());
            let prologue_ns;
            let (pass, ran) = match int8 {
                None => {
                    let kernels = self.kernels(self.spm.nonzeros(), skip, &offsets);
                    prologue_ns = since_entry();
                    let epilogue = BiasRelu { bias, relu };
                    let scratch = &mut scratch.padded;
                    let pass = band_walk_at(
                        level, &kernels, epilogue, input, out, oh, ow, scratch, timed,
                    );
                    (pass, ConvWalk::Band)
                }
                Some(q) => {
                    scratch.scales.clear();
                    scratch.scales.extend(aparams.iter().map(|ap| ap.scale));
                    let kernels = self.kernels(&q.qweights, skip, &offsets);
                    let epilogue = Requant {
                        act_scales: &scratch.scales,
                        // Every image quantises at `act_bits`: one top code.
                        q_max: aparams.first().map_or(0, QuantParams::q_max),
                        weight_scale: q.wparams.scale,
                        bias,
                        relu,
                    };
                    prologue_ns = since_entry();
                    let band = &mut scratch.qpadded;
                    match &q.dwords {
                        Some(dwords) if has_vnni(level) => {
                            let packed = &mut scratch.packed;
                            let pass = band_walk_vnni(
                                dwords, epilogue, input, out, oh, ow, band, packed, timed,
                            );
                            (pass, ConvWalk::BandVnni)
                        }
                        _ => {
                            let pass = band_walk_at(
                                level, &kernels, epilogue, input, out, oh, ow, band, timed,
                            );
                            (pass, ConvWalk::Band)
                        }
                    }
                }
            };
            record(prologue_ns + pass.pad_ns, 1, pass.padded, ran);
            return;
        }

        // No tile for this geometry: pad (int8: quantise and pad) each
        // input plane once per batch, all images up front. The overwrite
        // variants tolerate stale scratch contents, so a reused buffer
        // costs one write per element, not two.
        let padded_len = n * in_c * plane_len;
        match int8 {
            None => {
                if scratch.padded.len() < padded_len {
                    scratch.padded.resize(padded_len, 0.0);
                }
                for pi in 0..n * in_c {
                    pad_plane_overwrite(
                        &input[pi * h * w..(pi + 1) * h * w],
                        h,
                        w,
                        shape.pad,
                        &mut scratch.padded[pi * plane_len..(pi + 1) * plane_len],
                    );
                }
            }
            Some(q) => {
                let qpadded = &mut scratch.qpadded;
                quantize_batch_planes_at(level, input, n, in_c, h, w, shape.pad, &aparams, qpadded);
                scratch.scales.clear();
                scratch
                    .scales
                    .extend(aparams.iter().map(|ap| q.wparams.scale * ap.scale));
            }
        }
        let pad_ns = since_entry();

        // Input channel `ic` of every image's padded planes, into output
        // planes `out_stride` apart from `out_base`.
        let geo = |ic: usize, out_base: usize, out_stride: usize| BatchPlanes {
            out_base,
            out_stride,
            in_base: ic * plane_len,
            in_stride: in_c * plane_len,
            plane_len,
            n,
        };
        let taps = |ki: usize| {
            let code = self.spm.code(ki) as usize;
            &offsets[code * nz..(code + 1) * nz]
        };
        let row_stride = shape.stride * pw;
        let mut dispatches = 0u64;
        for oc in 0..shape.out_c {
            let bias = self.bias.as_ref().map_or(0.0, |b| b[oc]);
            let live = (0..in_c).filter(|&ic| !skip[oc * in_c + ic]);
            match int8 {
                None => {
                    // Seed the channel's planes with the bias, add one
                    // kernel at a time, then the ReLU.
                    for ni in 0..n {
                        let base = ni * out_img + oc * out_plane_len;
                        out[base..base + out_plane_len].fill(bias);
                    }
                    for ic in live {
                        let ki = oc * in_c + ic;
                        dispatches += 1;
                        accumulate_plane_batch_dyn_at(
                            level,
                            out,
                            &scratch.padded[..padded_len],
                            geo(ic, oc * out_plane_len, out_img),
                            oh,
                            ow,
                            row_stride,
                            taps(ki),
                            self.spm.kernel_nonzeros(ki),
                            shape.stride,
                        );
                    }
                    if self.relu {
                        for ni in 0..n {
                            let base = ni * out_img + oc * out_plane_len;
                            relu_in_place_at(level, &mut out[base..base + out_plane_len]);
                        }
                    }
                }
                Some(q) => {
                    // Sum the channel's kernels one at a time into i32
                    // planes, then requantise those.
                    let acc = &mut scratch.acc;
                    acc.clear();
                    acc.resize(n * out_plane_len, 0);
                    for ic in live {
                        let ki = oc * in_c + ic;
                        dispatches += 1;
                        accumulate_plane_batch_dyn_i8_at(
                            level,
                            acc,
                            &scratch.qpadded[..padded_len],
                            geo(ic, 0, out_plane_len),
                            oh,
                            ow,
                            row_stride,
                            taps(ki),
                            &q.qweights[ki * nz..(ki + 1) * nz],
                            shape.stride,
                        );
                    }
                    for (ni, &scale) in scratch.scales.iter().enumerate() {
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
            }
        }
        record(pad_ns, dispatches, padded_len, ConvWalk::PerKernel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_core::project::project_onto_set;
    use pcnn_tensor::conv::conv2d_direct;
    use pcnn_tensor::direct::BAND_BYTES;
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

    /// Runs each image of `batch` alone through
    /// [`PatternConv::forward_batch_at`] (one scratch for all) and holds
    /// it bit for bit to its slice of the whole-batch output.
    fn assert_images_match_batch(conv: &PatternConv, batch: &Tensor) {
        let dims = batch.shape();
        let (h, w) = (dims[2], dims[3]);
        let whole = conv.forward(batch);
        let (oh, ow) = conv.shape().out_hw(h, w);
        let out_len = conv.shape().out_c * oh * ow;
        let img_len = dims[1] * h * w;
        let mut scratch = ConvScratch::default();
        for ni in 0..dims[0] {
            let mut single = vec![0.0f32; out_len];
            conv.forward_batch_at(
                simd::active(),
                Walk::Tiled,
                Precision::F32,
                &batch.as_slice()[ni * img_len..(ni + 1) * img_len],
                1,
                h,
                w,
                &mut single,
                &mut scratch,
            );
            assert_eq!(single, &whole.as_slice()[ni * out_len..(ni + 1) * out_len]);
        }
    }

    #[test]
    fn matches_dense_reference_padded() {
        for n in [1usize, 2, 4] {
            let set = PatternSet::full(9, n);
            let shape = Conv2dShape::new(3, 5, 3, 1, 1);
            let w = random_pruned(5, 3, &set, 7 + n as u64);
            let x = random_input(&[2, 3, 6, 6], 11);
            let conv = PatternConv::from_dense(&w, shape, &set).expect("encode");
            let got = conv.forward(&x);
            let want = conv2d_direct(&x, &w, None, &shape);
            pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
        }
    }

    #[test]
    fn matches_dense_reference_strided() {
        let set = PatternSet::full(9, 3);
        let shape = Conv2dShape::new(2, 4, 3, 2, 1);
        let w = random_pruned(4, 2, &set, 3);
        let x = random_input(&[1, 2, 9, 9], 5);
        let conv = PatternConv::from_dense(&w, shape, &set).expect("encode");
        let got = conv.forward(&x);
        let want = conv2d_direct(&x, &w, None, &shape);
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
    }

    #[test]
    fn bias_and_relu_epilogue() {
        let set = PatternSet::full(9, 2);
        let shape = Conv2dShape::new(1, 2, 3, 1, 1);
        let w = random_pruned(2, 1, &set, 9);
        let x = random_input(&[1, 1, 5, 5], 13);
        let bias = vec![0.7f32, -0.9];
        let conv = PatternConv::from_dense(&w, shape, &set)
            .expect("encode")
            .with_bias(bias.clone())
            .with_relu(true);
        let got = conv.forward(&x);
        let bias_t = Tensor::from_vec(bias, &[2]);
        let want = conv2d_direct(&x, &w, Some(&bias_t), &shape).map(|v| v.max(0.0));
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
        assert!(got.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn zero_kernels_are_skipped() {
        let set = PatternSet::full(9, 2);
        let mut w = random_pruned(4, 3, &set, 21);
        // Coarse-prune output channel 1: all its kernels become zero.
        let area = 9;
        for ic in 0..3 {
            let ki = 3 + ic;
            w.as_mut_slice()[ki * area..(ki + 1) * area].fill(0.0);
        }
        let shape = Conv2dShape::new(3, 4, 3, 1, 1);
        let conv = PatternConv::from_dense(&w, shape, &set).expect("encode");
        assert_eq!(conv.skipped_kernels(), 3);
        let x = random_input(&[1, 3, 6, 6], 23);
        let got = conv.forward(&x);
        let want = conv2d_direct(&x, &w, None, &shape);
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
    }

    #[test]
    fn batched_padding_matches_per_image_path_with_epilogue() {
        // A batch must agree bit for bit with its images run one at a
        // time, including strided geometry and the bias+ReLU epilogue.
        for (stride, relu) in [(1usize, false), (1, true), (2, true)] {
            let set = PatternSet::full(9, 2);
            let shape = Conv2dShape::new(3, 4, 3, stride, 1);
            let w = random_pruned(4, 3, &set, 41 + stride as u64);
            let bias: Vec<f32> = (0..4).map(|i| 0.3 * i as f32 - 0.4).collect();
            let conv = PatternConv::from_dense(&w, shape, &set)
                .expect("encode")
                .with_bias(bias)
                .with_relu(relu);
            assert_images_match_batch(&conv, &random_input(&[5, 3, 7, 9], 43));
        }
    }

    #[test]
    fn tiled_scratch_is_one_band_not_one_batch() {
        // 8 images × 64 planes of 16×16: the padded batch would be
        // 165 888 floats (648 KiB); one band is 64 × 6 × 18.
        let set = PatternSet::full(9, 4);
        let shape = Conv2dShape::new(64, 2, 3, 1, 1);
        let w = random_pruned(2, 64, &set, 51);
        let conv = PatternConv::from_dense(&w, shape, &set).expect("encode");
        let batch = random_input(&[8, 64, 16, 16], 53);
        let mut out = vec![0.0f32; 8 * 2 * 16 * 16];
        let mut scratch = ConvScratch::default();
        conv.forward_batch_at(
            simd::active(),
            Walk::Tiled,
            Precision::F32,
            batch.as_slice(),
            8,
            16,
            16,
            &mut out,
            &mut scratch,
        );
        assert_eq!(scratch.padded.len(), 64 * 6 * 18);
        assert!(scratch.padded.len() <= BAND_BYTES / std::mem::size_of::<f32>());
        assert!(scratch.qpadded.is_empty(), "no i8 band at f32");
        let want = conv2d_direct(&batch, &w, None, &shape);
        pcnn_tensor::assert_slices_close(&out, want.as_slice(), 1e-4);
    }

    #[test]
    fn batch_processing_matches_per_image() {
        let set = PatternSet::full(9, 4);
        let shape = Conv2dShape::new(2, 3, 3, 1, 1);
        let w = random_pruned(3, 2, &set, 31);
        let conv = PatternConv::from_dense(&w, shape, &set).expect("encode");
        assert_images_match_batch(&conv, &random_input(&[3, 2, 5, 5], 37));
    }
}
