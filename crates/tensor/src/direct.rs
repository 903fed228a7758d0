//! Direct (im2col-free) convolution primitives.
//!
//! The pattern-aware runtime in `pcnn-runtime` executes pruned 3×3
//! convolutions as a handful of shifted row accumulations — one per
//! surviving pattern position — over a zero-padded input plane. This
//! module provides the two building blocks that make that fast and
//! bounds-check-free:
//!
//! * [`pad_plane`] / [`padded_dims`] — copy one channel plane into a
//!   zero-padded buffer, so every kernel tap lands in-bounds and the
//!   inner loops need no edge handling;
//! * [`accumulate_rows`] — the unrolled micro-kernel: for a compile-time
//!   number of taps `N`, accumulate `Σ_j w_j · padded[base + off_j + ox·s]`
//!   across an output row. Monomorphising over `N` unrolls the tap loop
//!   and lets the compiler vectorise across `ox`, which is exactly the
//!   "compiled pattern kernel" trick of PCONV-style runtimes.
//!
//! On top of them sits the walk the runtime actually executes tiled
//! geometries with, [`band_walk_at`] — band-resident and
//! output-stationary:
//!
//! * **loop order** — image → row band → output channel → register
//!   tile → live kernel. Entering a band, its rows (plus one halo row
//!   either side) of all `in_c` input planes are padded into a
//!   band-sized scratch — copied for f32, quantised at the image's scale
//!   for int8 — and every output channel then runs over that band;
//! * **band height** — as many whole tiles as keep
//!   `in_c · (rows + 2) · pw · size_of(element)` inside [`BAND_BYTES`]
//!   (32 KiB), never fewer than one, never more than the plane;
//! * **what lives in L1** — the band: it is re-read by every output
//!   channel, `out_c` times, so it is the operand sized to stay close.
//!   Partial sums live in registers and each output is stored once;
//! * **why the weights stream** — a kernel's `n` values are read once
//!   per (image, band) and feed `n · rows · ow` MACs, so streaming the
//!   layer's weights from L2 costs little next to re-reading the input,
//!   which is what the earlier oc-major walk did: it padded the whole
//!   batch up front and pulled all of it through L1 once per output
//!   channel.
//!
//! The int8 walk has a second form for CPUs with AVX-VNNI,
//! [`band_walk_vnni`]: each band is packed, one 64-output tile at a
//! time, into fixed tap quads, so that one `vpdpbusd` applies up to four
//! taps of a kernel to eight outputs (section comment above it).
//!
//! The padded-offset convention: for a tap at kernel position
//! `(ky, kx)`, `off = ky · pw + kx` where `pw = w + 2·pad`, and an
//! output row `oy` reads from `base = oy · stride · pw`. With the output
//! size from [`crate::conv::Conv2dShape::out_hw`] every access stays
//! inside the padded plane, so the hot loop is pure arithmetic.

use crate::conv::Conv2dShape;
#[cfg(target_arch = "x86_64")]
use crate::simd::Avx2Token;
use crate::simd::{self, ScalarToken, SimdLevel, SimdToken};
use std::time::Instant;

/// Padded plane dimensions `(ph, pw)` for an `h × w` plane.
pub fn padded_dims(h: usize, w: usize, pad: usize) -> (usize, usize) {
    (h + 2 * pad, w + 2 * pad)
}

/// Copies one `h × w` channel plane into `buf` with a `pad`-wide zero
/// border. `buf` is resized to `ph · pw` and fully overwritten.
pub fn pad_plane(plane: &[f32], h: usize, w: usize, pad: usize, buf: &mut Vec<f32>) {
    let (ph, pw) = padded_dims(h, w, pad);
    buf.clear();
    buf.resize(ph * pw, 0.0);
    pad_plane_into(plane, h, w, pad, buf);
}

/// Copies one `h × w` channel plane into a **pre-zeroed** `ph · pw`
/// slice with a `pad`-wide border — the allocation-free variant of
/// [`pad_plane`] for callers that manage a shared scratch buffer.
///
/// # Panics
///
/// Panics if `buf.len() != ph · pw`. Border elements are left as-is,
/// so the caller must have zeroed `buf` beforehand.
pub fn pad_plane_into(plane: &[f32], h: usize, w: usize, pad: usize, buf: &mut [f32]) {
    assert_eq!(plane.len(), h * w, "plane length mismatch");
    let (ph, pw) = padded_dims(h, w, pad);
    assert_eq!(buf.len(), ph * pw, "padded buffer length mismatch");
    for y in 0..h {
        let src = &plane[y * w..(y + 1) * w];
        let dst = (y + pad) * pw + pad;
        buf[dst..dst + w].copy_from_slice(src);
    }
}

/// Writes one `h × w` channel plane into a `ph · pw` slice with a
/// `pad`-wide zero border, **fully overwriting** `buf` in a single pass
/// — border zeros and interior copies together, with no pre-zeroing
/// required. This is the batched-serving variant of [`pad_plane_into`]:
/// a reused scratch buffer holds stale planes from the previous batch,
/// and overwriting costs one write per element instead of the
/// zero-everything-then-copy double write.
///
/// # Panics
///
/// Panics if `plane.len() != h · w` or `buf.len() != ph · pw`.
pub fn pad_plane_overwrite(plane: &[f32], h: usize, w: usize, pad: usize, buf: &mut [f32]) {
    assert_eq!(plane.len(), h * w, "plane length mismatch");
    let (ph, pw) = padded_dims(h, w, pad);
    assert_eq!(buf.len(), ph * pw, "padded buffer length mismatch");
    buf[..pad * pw].fill(0.0);
    for y in 0..h {
        let row = &mut buf[(y + pad) * pw..(y + pad + 1) * pw];
        row[..pad].fill(0.0);
        row[pad..pad + w].copy_from_slice(&plane[y * w..(y + 1) * w]);
        row[pad + w..].fill(0.0);
    }
    buf[(h + pad) * pw..].fill(0.0);
}

/// The band walk's f32 pad: overwrites `dst` with rows
/// `first .. first + dst.len() / (w + 2)` of the plane's one-wide
/// zero-bordered twin (row `p` of the twin is input row `p − 1`, or
/// zeros outside the plane). Rows of [`pad_plane_overwrite`]'s output at
/// `pad = 1`, with plain stores for the two border elements; that
/// function keeps its own loop because its timing is a benchmark probe
/// (`tensor.pad_plane_ns`) the band walk was not meant to move.
#[inline(always)]
fn pad_band_rows(plane: &[f32], h: usize, w: usize, first: usize, dst: &mut [f32]) {
    let pw = w + 2;
    for (p, row) in (first..).zip(dst.chunks_exact_mut(pw)) {
        if p == 0 || p > h {
            row.fill(0.0);
            continue;
        }
        row[0] = 0.0;
        row[1..=w].copy_from_slice(&plane[(p - 1) * w..p * w]);
        row[pw - 1] = 0.0;
    }
}

/// Zeroes one border run of codes. A 3×3 layer's border is a single
/// element, which deserves a plain store rather than a `memset` call.
#[inline(always)]
fn zero_border(border: &mut [i8]) {
    match border {
        [one] => *one = 0,
        run => run.fill(0),
    }
}

/// Accumulates one output row from `N` weighted taps of a padded plane:
///
/// `out[ox] += Σ_j weights[j] · padded[base + offsets[j] + ox · stride]`
///
/// Each tap is one fused multiply-add straight into the running value,
/// taps in order — the rounding sequence of every f32 walk in this
/// module. `N` is a compile-time constant so the tap loop fully
/// unrolls; the `stride == 1` path is written as `N` slice-zips the
/// optimiser can vectorise.
///
/// # Panics
///
/// Panics (via slice indexing) if an offset reaches outside `padded`;
/// callers are expected to have validated geometry once at compile time.
#[inline]
pub fn accumulate_rows<const N: usize>(
    out: &mut [f32],
    padded: &[f32],
    base: usize,
    offsets: &[usize; N],
    weights: &[f32; N],
    stride: usize,
) {
    let ow = out.len();
    if stride == 1 {
        for j in 0..N {
            let w = weights[j];
            let src = &padded[base + offsets[j]..base + offsets[j] + ow];
            for (o, &x) in out.iter_mut().zip(src) {
                *o = w.mul_add(x, *o);
            }
        }
    } else {
        for (ox, o) in out.iter_mut().enumerate() {
            let x = ox * stride;
            for j in 0..N {
                *o = weights[j].mul_add(padded[base + offsets[j] + x], *o);
            }
        }
    }
}

/// Accumulates a whole output plane (`oh` rows of `ow`) from `N`
/// weighted taps of a padded plane. Row `oy` reads from
/// `base = oy · row_stride` where `row_stride = stride · pw`. Keeping
/// the row loop inside the monomorphisation amortises dispatch to once
/// per (kernel, plane).
#[inline]
pub fn accumulate_plane<const N: usize>(
    out_plane: &mut [f32],
    padded: &[f32],
    ow: usize,
    row_stride: usize,
    offsets: &[usize; N],
    weights: &[f32; N],
    stride: usize,
) {
    for (oy, out_row) in out_plane.chunks_mut(ow).enumerate() {
        accumulate_rows::<N>(out_row, padded, oy * row_stride, offsets, weights, stride);
    }
}

/// Runtime-`n` dispatcher onto the monomorphised [`accumulate_plane`]
/// instances (3×3 kernels have 0..=9 taps). Patterns wider than 9 taps
/// (larger kernels) fall back to a generic loop.
#[inline]
pub fn accumulate_plane_dyn(
    out_plane: &mut [f32],
    padded: &[f32],
    ow: usize,
    row_stride: usize,
    offsets: &[usize],
    weights: &[f32],
    stride: usize,
) {
    debug_assert_eq!(offsets.len(), weights.len());
    macro_rules! arm {
        ($n:literal) => {{
            let offs: &[usize; $n] = offsets.try_into().expect("length checked by match");
            let wts: &[f32; $n] = weights.try_into().expect("length checked by match");
            accumulate_plane::<$n>(out_plane, padded, ow, row_stride, offs, wts, stride)
        }};
    }
    match offsets.len() {
        0 => {}
        1 => arm!(1),
        2 => arm!(2),
        3 => arm!(3),
        4 => arm!(4),
        5 => arm!(5),
        6 => arm!(6),
        7 => arm!(7),
        8 => arm!(8),
        9 => arm!(9),
        _ => {
            for (oy, out_row) in out_plane.chunks_mut(ow).enumerate() {
                accumulate_rows_dyn(out_row, padded, oy * row_stride, offsets, weights, stride);
            }
        }
    }
}

/// Geometry of one kernel application repeated across a batch of
/// images, for [`accumulate_plane_batch_dyn`]: image `i`'s output plane
/// starts at `out_base + i · out_stride` (an `oh × ow` plane) and its
/// padded input plane at `in_base + i · in_stride` (a `plane_len`-long
/// padded plane).
#[derive(Debug, Clone, Copy)]
pub struct BatchPlanes {
    /// Offset of image 0's output plane.
    pub out_base: usize,
    /// Element distance between consecutive images' output planes.
    pub out_stride: usize,
    /// Offset of image 0's padded input plane.
    pub in_base: usize,
    /// Element distance between consecutive images' padded planes.
    pub in_stride: usize,
    /// Length of one padded input plane.
    pub plane_len: usize,
    /// Number of images.
    pub n: usize,
}

/// Batched variant of [`accumulate_plane_dyn`]: applies **one** kernel
/// to the same channel slot of every image in a batch with a single
/// monomorphisation dispatch, tap offsets and weights hoisted into
/// registers for the whole batch. Dispatches once per call onto the
/// active [`SimdLevel`] — explicit 8-lane AVX2 tiles on hosts that have
/// them, the bit-identical scalar instantiation everywhere else (and
/// under `PCNN_FORCE_SCALAR=1`). See [`accumulate_plane_batch_dyn_at`]
/// for the level-pinned entry point benches and property tests use.
#[inline]
#[allow(clippy::too_many_arguments)] // kernel geometry is irreducible
pub fn accumulate_plane_batch_dyn(
    out: &mut [f32],
    padded: &[f32],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offsets: &[usize],
    weights: &[f32],
    stride: usize,
) {
    accumulate_plane_batch_dyn_at(
        simd::active(),
        out,
        padded,
        geo,
        oh,
        ow,
        row_stride,
        offsets,
        weights,
        stride,
    );
}

/// [`accumulate_plane_batch_dyn`] with the SIMD tier pinned by the
/// caller instead of read from [`simd::active`]. Safe for any level on
/// any host: the request passes through [`SimdLevel::effective`], which
/// downgrades AVX2 to the scalar instantiation when this CPU cannot
/// execute it. Both tiers compute **bit-identical** f32 results — one
/// kernel source, two instantiations, and each output element's taps
/// fused into it one correctly rounded multiply-add at a time, in
/// pattern order.
#[inline]
#[allow(clippy::too_many_arguments)] // kernel geometry is irreducible
pub fn accumulate_plane_batch_dyn_at(
    level: SimdLevel,
    out: &mut [f32],
    padded: &[f32],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offsets: &[usize],
    weights: &[f32],
    stride: usize,
) {
    debug_assert_eq!(offsets.len(), weights.len());
    match level.effective() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `effective()` returns Avx2 only after a positive
            // (cached) CPUID check on this host.
            unsafe {
                batch_f32_avx2(
                    out, padded, geo, oh, ow, row_stride, offsets, weights, stride,
                )
            }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Scalar if hardware_fma() => {
            // SAFETY: `hardware_fma()` is a positive (cached) CPUID
            // check for FMA on this host.
            unsafe {
                batch_f32_fma(
                    out, padded, geo, oh, ow, row_stride, offsets, weights, stride,
                )
            }
        }
        _ => batch_f32(
            ScalarToken,
            out,
            padded,
            geo,
            oh,
            ow,
            row_stride,
            offsets,
            weights,
            stride,
        ),
    }
}

/// The AVX2 instantiation of [`batch_f32`]. The `#[target_feature]`
/// boundary is here so every `#[inline(always)]` token op below it
/// compiles with AVX2 and FMA enabled.
///
/// # Safety
///
/// AVX2 and FMA must be available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn batch_f32_avx2(
    out: &mut [f32],
    padded: &[f32],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offsets: &[usize],
    weights: &[f32],
    stride: usize,
) {
    // SAFETY: the function's own contract guarantees AVX2 and FMA.
    let token = unsafe { Avx2Token::assert_available() };
    batch_f32(
        token, out, padded, geo, oh, ow, row_stride, offsets, weights, stride,
    );
}

/// The scalar instantiation of [`batch_f32`] where the CPU has FMA (see
/// [`hardware_fma`]).
///
/// # Safety
///
/// FMA must be available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn batch_f32_fma(
    out: &mut [f32],
    padded: &[f32],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offsets: &[usize],
    weights: &[f32],
    stride: usize,
) {
    batch_f32(
        ScalarToken,
        out,
        padded,
        geo,
        oh,
        ow,
        row_stride,
        offsets,
        weights,
        stride,
    );
}

/// Whether the scalar tier's f32 kernels can be compiled for FMA.
/// [`f32::mul_add`] is one instruction in an `fma`-enabled function and
/// a libm call everywhere else — the same correctly rounded value at
/// about a twentieth of the speed — so on x86-64 the scalar tier runs an
/// `fma`-enabled instantiation of each f32 kernel when CPUID reports
/// FMA, and the plain one only on hosts without it.
#[cfg(target_arch = "x86_64")]
#[inline]
fn hardware_fma() -> bool {
    std::is_x86_feature_detected!("fma")
}

/// The shared f32 batch kernel: monomorphises the tap count and routes
/// each plane shape to its tile form. One source for both SIMD tiers.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn batch_f32<S: SimdToken>(
    t: S,
    out: &mut [f32],
    padded: &[f32],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offsets: &[usize],
    weights: &[f32],
    stride: usize,
) {
    macro_rules! arm {
        ($n:literal) => {{
            let offs: &[usize; $n] = offsets.try_into().expect("length checked by match");
            let wts: &[f32; $n] = weights.try_into().expect("length checked by match");
            batch_f32_n::<S, $n>(t, out, padded, geo, oh, ow, row_stride, offs, wts, stride)
        }};
    }
    match offsets.len() {
        0 => {}
        1 => arm!(1),
        2 => arm!(2),
        3 => arm!(3),
        4 => arm!(4),
        5 => arm!(5),
        6 => arm!(6),
        7 => arm!(7),
        8 => arm!(8),
        9 => arm!(9),
        _ => {
            // Patterns wider than 9 taps (larger kernels): generic
            // per-image fallback.
            for i in 0..geo.n {
                let ob = geo.out_base + i * geo.out_stride;
                let ib = geo.in_base + i * geo.in_stride;
                accumulate_plane_dyn(
                    &mut out[ob..ob + oh * ow],
                    &padded[ib..ib + geo.plane_len],
                    ow,
                    row_stride,
                    offsets,
                    weights,
                    stride,
                );
            }
        }
    }
}

/// Tap-monomorphised f32 batch kernel. Stride-1 planes route by width:
///
/// * `ow == 1 | 2` — scalar const-width rows (vector overhead would
///   dominate 1–2 useful lanes);
/// * `ow == 4` — **two-row tiles**: a full 8-lane vector spans rows
///   `oy, oy+1`, so even a 4×4 plane fills the vector width;
/// * `ow == 8 | 16 | 32` — const-width rows of 1/2/4 full vectors (the
///   16/32-wide dispatch the int8 path already had);
/// * anything else — full 8-lane chunks plus a **masked tail** covering
///   `ow % 8` lanes ([`SimdToken::f32x8_load_partial`]).
///
/// Strided planes fall back to the scalar slice kernel (identical on
/// both tiers). Every form seeds its accumulators from the output plane
/// and fuses the `N` taps into them in order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn batch_f32_n<S: SimdToken, const N: usize>(
    t: S,
    out: &mut [f32],
    padded: &[f32],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offs: &[usize; N],
    wts: &[f32; N],
    stride: usize,
) {
    if stride != 1 {
        for i in 0..geo.n {
            let ob = geo.out_base + i * geo.out_stride;
            let ib = geo.in_base + i * geo.in_stride;
            accumulate_plane::<N>(
                &mut out[ob..ob + oh * ow],
                &padded[ib..ib + geo.plane_len],
                ow,
                row_stride,
                offs,
                wts,
                stride,
            );
        }
        return;
    }
    match ow {
        1 => tiny_rows_f32::<S, N, 1>(t, out, padded, geo, oh, row_stride, offs, wts),
        2 => tiny_rows_f32::<S, N, 2>(t, out, padded, geo, oh, row_stride, offs, wts),
        4 => tile_f32_ow4::<S, N>(t, out, padded, geo, oh, row_stride, offs, wts),
        8 => rows_f32_const::<S, N, 8>(t, out, padded, geo, oh, row_stride, offs, wts),
        16 => rows_f32_const::<S, N, 16>(t, out, padded, geo, oh, row_stride, offs, wts),
        32 => rows_f32_const::<S, N, 32>(t, out, padded, geo, oh, row_stride, offs, wts),
        _ => rows_f32_dyn::<S, N>(t, out, padded, geo, oh, ow, row_stride, offs, wts),
    }
}

/// Scalar const-width rows for 1- and 2-wide planes (deepest layers):
/// the output row as fixed-size accumulators, taps fully unrolled.
/// Identical on both tiers by construction.
#[inline(always)]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn tiny_rows_f32<S: SimdToken, const N: usize, const OW: usize>(
    _t: S,
    out: &mut [f32],
    padded: &[f32],
    geo: BatchPlanes,
    oh: usize,
    row_stride: usize,
    offs: &[usize; N],
    wts: &[f32; N],
) {
    for i in 0..geo.n {
        let ob = geo.out_base + i * geo.out_stride;
        let ib = geo.in_base + i * geo.in_stride;
        for oy in 0..oh {
            let rb = ib + oy * row_stride;
            let orow: &mut [f32; OW] = (&mut out[ob + oy * OW..ob + (oy + 1) * OW])
                .try_into()
                .expect("row length is OW");
            let mut acc = *orow;
            for j in 0..N {
                let src: &[f32; OW] = (&padded[rb + offs[j]..rb + offs[j] + OW])
                    .try_into()
                    .expect("row length is OW");
                for k in 0..OW {
                    acc[k] = wts[j].mul_add(src[k], acc[k]);
                }
            }
            *orow = acc;
        }
    }
}

/// Two-row tiles for 4-wide planes: one 8-lane vector covers output
/// rows `oy, oy+1` (their `2·4` outputs are contiguous), the tap loads
/// compose the matching 4-wide segments of the two padded input rows.
/// An odd final row runs as a 4-lane masked vector.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_f32_ow4<S: SimdToken, const N: usize>(
    t: S,
    out: &mut [f32],
    padded: &[f32],
    geo: BatchPlanes,
    oh: usize,
    row_stride: usize,
    offs: &[usize; N],
    wts: &[f32; N],
) {
    let wsplat: [simd::F32x8; N] = std::array::from_fn(|j| t.f32x8_splat(wts[j]));
    for i in 0..geo.n {
        let ob = geo.out_base + i * geo.out_stride;
        let ib = geo.in_base + i * geo.in_stride;
        let mut oy = 0;
        while oy + 1 < oh {
            let rb0 = ib + oy * row_stride;
            let rb1 = rb0 + row_stride;
            let orow = &mut out[ob + oy * 4..];
            let mut acc = t.f32x8_load(orow);
            for j in 0..N {
                let x = t.f32x8_load_2x4(&padded[rb0 + offs[j]..], &padded[rb1 + offs[j]..]);
                acc = t.f32x8_fma(acc, wsplat[j], x);
            }
            t.f32x8_store(acc, orow);
            oy += 2;
        }
        if oy < oh {
            let rb = ib + oy * row_stride;
            let orow = &mut out[ob + oy * 4..];
            let mut acc = t.f32x8_load_partial(orow, 4);
            for j in 0..N {
                let x = t.f32x8_load_partial(&padded[rb + offs[j]..], 4);
                acc = t.f32x8_fma(acc, wsplat[j], x);
            }
            t.f32x8_store_partial(acc, orow, 4);
        }
    }
}

/// Const-width vector rows: `OW / 8` full 8-lane chunks per output row
/// with compile-time trip counts (OW ∈ {8, 16, 32}).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rows_f32_const<S: SimdToken, const N: usize, const OW: usize>(
    t: S,
    out: &mut [f32],
    padded: &[f32],
    geo: BatchPlanes,
    oh: usize,
    row_stride: usize,
    offs: &[usize; N],
    wts: &[f32; N],
) {
    let wsplat: [simd::F32x8; N] = std::array::from_fn(|j| t.f32x8_splat(wts[j]));
    for i in 0..geo.n {
        let ob = geo.out_base + i * geo.out_stride;
        let ib = geo.in_base + i * geo.in_stride;
        for oy in 0..oh {
            let rb = ib + oy * row_stride;
            for c in 0..OW / 8 {
                let orow = &mut out[ob + oy * OW + c * 8..];
                let mut acc = t.f32x8_load(orow);
                for j in 0..N {
                    let x = t.f32x8_load(&padded[rb + offs[j] + c * 8..]);
                    acc = t.f32x8_fma(acc, wsplat[j], x);
                }
                t.f32x8_store(acc, orow);
            }
        }
    }
}

/// Runtime-width vector rows: full 8-lane chunks plus a masked tail of
/// `ow % 8` lanes — the path for widths outside the const set.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rows_f32_dyn<S: SimdToken, const N: usize>(
    t: S,
    out: &mut [f32],
    padded: &[f32],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offs: &[usize; N],
    wts: &[f32; N],
) {
    let wsplat: [simd::F32x8; N] = std::array::from_fn(|j| t.f32x8_splat(wts[j]));
    let full = ow / 8;
    let tail = ow % 8;
    for i in 0..geo.n {
        let ob = geo.out_base + i * geo.out_stride;
        let ib = geo.in_base + i * geo.in_stride;
        for oy in 0..oh {
            let rb = ib + oy * row_stride;
            for c in 0..full {
                let orow = &mut out[ob + oy * ow + c * 8..];
                let mut acc = t.f32x8_load(orow);
                for j in 0..N {
                    let x = t.f32x8_load(&padded[rb + offs[j] + c * 8..]);
                    acc = t.f32x8_fma(acc, wsplat[j], x);
                }
                t.f32x8_store(acc, orow);
            }
            if tail > 0 {
                let orow = &mut out[ob + oy * ow + full * 8..];
                let mut acc = t.f32x8_load_partial(orow, tail);
                for j in 0..N {
                    let x = t.f32x8_load_partial(&padded[rb + offs[j] + full * 8..], tail);
                    acc = t.f32x8_fma(acc, wsplat[j], x);
                }
                t.f32x8_store_partial(acc, orow, tail);
            }
        }
    }
}

/// Writes one `h × w` **f32** channel plane into a `ph · pw` **i8**
/// slice, symmetrically quantising while padding: interior elements
/// become `clamp(round(v / scale), ±q_max)` and the `pad`-wide border is
/// the zero code, fully overwriting `buf` in a single pass. This is the
/// int8 twin of [`pad_plane_overwrite`], fusing activation quantisation
/// into the padding copy the batched runtime already performs — the
/// activations are never materialised as a separate i8 tensor.
///
/// The quantisation formula is exactly `pcnn_core::quant`'s
/// (`(v · (1/scale)).round()` then clamp), so a runtime that derives
/// `scale` the same way produces bit-identical codes to
/// `quantize_symmetric`.
///
/// # Panics
///
/// Panics if `plane.len() != h · w` or `buf.len() != ph · pw`.
pub fn pad_quant_plane_overwrite(
    plane: &[f32],
    h: usize,
    w: usize,
    pad: usize,
    scale: f32,
    q_max: i32,
    buf: &mut [i8],
) {
    pad_quant_plane_overwrite_at(simd::active(), plane, h, w, pad, scale, q_max, buf);
}

/// [`pad_quant_plane_overwrite`] with the SIMD tier pinned by the
/// caller. The codes are identical on both tiers; the AVX2
/// instantiation quantises eight activations per step
/// ([`SimdToken::f32x8_quantize_store`]), where the baseline x86-64
/// build pays a libm `roundf` call per element.
///
/// # Panics
///
/// Panics if `plane.len() != h · w` or `buf.len() != ph · pw`.
#[allow(clippy::too_many_arguments)] // quant-plane geometry is irreducible
pub fn pad_quant_plane_overwrite_at(
    level: SimdLevel,
    plane: &[f32],
    h: usize,
    w: usize,
    pad: usize,
    scale: f32,
    q_max: i32,
    buf: &mut [i8],
) {
    assert_eq!(plane.len(), h * w, "plane length mismatch");
    let (ph, pw) = padded_dims(h, w, pad);
    assert_eq!(buf.len(), ph * pw, "padded buffer length mismatch");
    match level.effective() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `effective()` returns Avx2 only after a positive
            // (cached) CPUID check on this host.
            unsafe { pad_quant_avx2(plane, h, w, pad, scale, q_max, buf) }
        }
        _ => pad_quant_rows(ScalarToken, plane, h, w, pad, 0, scale, q_max, buf),
    }
}

/// The AVX2 instantiation of [`pad_quant_rows`] over a whole plane.
///
/// # Safety
///
/// AVX2 and FMA must be available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn pad_quant_avx2(
    plane: &[f32],
    h: usize,
    w: usize,
    pad: usize,
    scale: f32,
    q_max: i32,
    buf: &mut [i8],
) {
    // SAFETY: the function's own contract guarantees AVX2 and FMA.
    let token = unsafe { Avx2Token::assert_available() };
    pad_quant_rows(token, plane, h, w, pad, 0, scale, q_max, buf);
}

/// Overwrites `dst` with rows `first .. first + dst.len() / pw` of the
/// plane's quantised, `pad`-wide zero-bordered twin (row `p` of the twin
/// is input row `p − pad`, or zero codes outside the plane) — the whole
/// twin for [`pad_quant_plane_overwrite`], one row band of it for the
/// band walk — the interior as codes
/// `clamp(round(v / scale), ±q_max)` — eight per step through the token,
/// a tail of `w % 8` by the same formula in scalar.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pad_quant_rows<S: SimdToken>(
    t: S,
    plane: &[f32],
    h: usize,
    w: usize,
    pad: usize,
    first: usize,
    scale: f32,
    q_max: i32,
    dst: &mut [i8],
) {
    let pw = w + 2 * pad;
    let q_max_f = q_max as f32;
    let inv = 1.0 / scale;
    let (inv_v, q_max_v) = (t.f32x8_splat(inv), t.f32x8_splat(q_max_f));
    for (p, row) in (first..).zip(dst.chunks_exact_mut(pw)) {
        if p < pad || p >= h + pad {
            row.fill(0);
            continue;
        }
        let y = p - pad;
        zero_border(&mut row[..pad]);
        let src = &plane[y * w..(y + 1) * w];
        let codes = &mut row[pad..pad + w];
        let mut x = 0;
        while x + 8 <= w {
            t.f32x8_quantize_store(t.f32x8_load(&src[x..]), inv_v, q_max_v, &mut codes[x..]);
            x += 8;
        }
        for (q, &v) in codes[x..].iter_mut().zip(&src[x..]) {
            *q = (v * inv).round().clamp(-q_max_f, q_max_f) as i8;
        }
        zero_border(&mut row[pad + w..]);
    }
}

/// Maximum absolute value of `data` (0 for an empty slice), dispatched
/// like the kernels — the activation-scale derivation is a whole-image
/// pass that deserves vector width too. `max` is associative and
/// commutative and `abs` is exact, so the blocked reduction returns the
/// same value as a sequential fold on every tier.
pub fn max_abs(data: &[f32]) -> f32 {
    max_abs_at(simd::active(), data)
}

/// [`max_abs`] with the SIMD tier pinned by the caller.
pub fn max_abs_at(level: SimdLevel, data: &[f32]) -> f32 {
    match level.effective() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `effective()` returns Avx2 only after a positive
            // (cached) CPUID check on this host.
            unsafe { max_abs_avx2(data) }
        }
        _ => max_abs_impl(data),
    }
}

/// # Safety
///
/// AVX2 must be available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn max_abs_avx2(data: &[f32]) -> f32 {
    max_abs_impl(data)
}

/// Clamps every element of `data` at zero in place — the ReLU the
/// per-kernel walk runs over an output channel's planes after its last
/// kernel — dispatched like the kernels. `max(v, 0)`
/// is exact, so the tiers agree bitwise.
pub fn relu_in_place_at(level: SimdLevel, data: &mut [f32]) {
    match level.effective() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `effective()` returns Avx2 only after a positive
            // (cached) CPUID check on this host.
            unsafe { relu_avx2(data) }
        }
        _ => relu_impl(ScalarToken, data),
    }
}

/// # Safety
///
/// AVX2 and FMA must be available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn relu_avx2(data: &mut [f32]) {
    // SAFETY: the function's own contract guarantees AVX2 and FMA.
    let token = unsafe { Avx2Token::assert_available() };
    relu_impl(token, data);
}

#[inline(always)]
fn relu_impl<S: SimdToken>(t: S, data: &mut [f32]) {
    let mut i = 0;
    while i + 8 <= data.len() {
        let v = t.f32x8_relu(t.f32x8_load(&data[i..]));
        t.f32x8_store(v, &mut data[i..]);
        i += 8;
    }
    let tail = data.len() - i;
    if tail > 0 {
        let v = t.f32x8_relu(t.f32x8_load_partial(&data[i..], tail));
        t.f32x8_store_partial(v, &mut data[i..], tail);
    }
}

#[inline(always)]
fn max_abs_impl(data: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        for k in 0..8 {
            lanes[k] = lanes[k].max(c[k].abs());
        }
    }
    let mut m = 0.0f32;
    for &v in chunks.remainder() {
        m = m.max(v.abs());
    }
    for &l in &lanes {
        m = m.max(l);
    }
    m
}

/// Integer twin of [`accumulate_rows`]: accumulates one output row of
/// `i32` sums from `N` weighted taps of an i8-quantised padded plane:
///
/// `out[ox] += Σ_j weights[j] · padded[base + off_j + ox · stride]`
///
/// Weights arrive pre-widened to `i32` (done once per kernel dispatch).
/// Unlike the f32 kernel, the stride-1 path walks **pixels outer, taps
/// inner** (all `N` tap products fused per pixel): integer widening
/// multiplies vectorise far better as one fused reduction per lane than
/// as `N` separate widen-multiply-add sweeps.
#[inline]
pub fn accumulate_rows_i8<const N: usize>(
    out: &mut [i32],
    padded: &[i8],
    base: usize,
    offsets: &[usize; N],
    weights: &[i32; N],
    stride: usize,
) {
    let ow = out.len();
    if stride == 1 {
        // Fixed-size blocks of 16 pixels: the compile-time block width
        // lets the vectoriser emit straight-line widening MACs (the
        // runtime-`ow` loop alone costs ~3× on AVX2). The tail runs the
        // same fused form scalar — real plane widths are overwhelmingly
        // multiples of 16 or tiny.
        const B: usize = 16;
        let srcs: [&[i8]; N] =
            std::array::from_fn(|j| &padded[base + offsets[j]..base + offsets[j] + ow]);
        let blocks = ow / B;
        for b in 0..blocks {
            let o: &mut [i32; B] = (&mut out[b * B..(b + 1) * B])
                .try_into()
                .expect("block length is B");
            let mut acc = [0i32; B];
            for j in 0..N {
                let s: &[i8; B] = (&srcs[j][b * B..(b + 1) * B])
                    .try_into()
                    .expect("block length is B");
                for k in 0..B {
                    acc[k] += weights[j] * s[k] as i32;
                }
            }
            for k in 0..B {
                o[k] += acc[k];
            }
        }
        for i in blocks * B..ow {
            let mut acc = out[i];
            for j in 0..N {
                acc += weights[j] * srcs[j][i] as i32;
            }
            out[i] = acc;
        }
    } else {
        for (ox, o) in out.iter_mut().enumerate() {
            let x = ox * stride;
            let mut acc = 0i32;
            for j in 0..N {
                acc += weights[j] * padded[base + offsets[j] + x] as i32;
            }
            *o += acc;
        }
    }
}

/// Integer twin of [`accumulate_plane`]: a whole `oh × ow` plane of
/// `i32` accumulators from `N` taps of an i8 padded plane.
#[inline]
pub fn accumulate_plane_i8<const N: usize>(
    out_plane: &mut [i32],
    padded: &[i8],
    ow: usize,
    row_stride: usize,
    offsets: &[usize; N],
    weights: &[i32; N],
    stride: usize,
) {
    for (oy, out_row) in out_plane.chunks_mut(ow).enumerate() {
        accumulate_rows_i8::<N>(out_row, padded, oy * row_stride, offsets, weights, stride);
    }
}

/// Runtime-`n` dispatcher onto the monomorphised [`accumulate_plane_i8`]
/// instances, mirroring [`accumulate_plane_dyn`]. Weights arrive as the
/// layer's packed `i8` codes and widen once per dispatch.
#[inline]
pub fn accumulate_plane_dyn_i8(
    out_plane: &mut [i32],
    padded: &[i8],
    ow: usize,
    row_stride: usize,
    offsets: &[usize],
    weights: &[i8],
    stride: usize,
) {
    debug_assert_eq!(offsets.len(), weights.len());
    macro_rules! arm {
        ($n:literal) => {{
            let offs: &[usize; $n] = offsets.try_into().expect("length checked by match");
            let mut wts = [0i32; $n];
            for (w, &q) in wts.iter_mut().zip(weights) {
                *w = q as i32;
            }
            accumulate_plane_i8::<$n>(out_plane, padded, ow, row_stride, offs, &wts, stride)
        }};
    }
    match offsets.len() {
        0 => {}
        1 => arm!(1),
        2 => arm!(2),
        3 => arm!(3),
        4 => arm!(4),
        5 => arm!(5),
        6 => arm!(6),
        7 => arm!(7),
        8 => arm!(8),
        9 => arm!(9),
        _ => {
            for (oy, out_row) in out_plane.chunks_mut(ow).enumerate() {
                let base = oy * row_stride;
                for (ox, o) in out_row.iter_mut().enumerate() {
                    let x = ox * stride;
                    let mut acc = 0i32;
                    for (&off, &w) in offsets.iter().zip(weights) {
                        acc += w as i32 * padded[base + off + x] as i32;
                    }
                    *o += acc;
                }
            }
        }
    }
}

/// Integer twin of [`accumulate_plane_batch_dyn`]: applies one
/// i8-quantised kernel to the same channel slot of every image in a
/// batch with a single monomorphisation dispatch, accumulating into
/// `i32` planes. Dispatches once per call onto the active
/// [`SimdLevel`]; results are identical across tiers (integer
/// accumulation is associative — 0 ULP by construction).
#[inline]
#[allow(clippy::too_many_arguments)] // kernel geometry is irreducible
pub fn accumulate_plane_batch_dyn_i8(
    out: &mut [i32],
    padded: &[i8],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offsets: &[usize],
    weights: &[i8],
    stride: usize,
) {
    accumulate_plane_batch_dyn_i8_at(
        simd::active(),
        out,
        padded,
        geo,
        oh,
        ow,
        row_stride,
        offsets,
        weights,
        stride,
    );
}

/// [`accumulate_plane_batch_dyn_i8`] with the SIMD tier pinned by the
/// caller — the int8 twin of [`accumulate_plane_batch_dyn_at`].
#[inline]
#[allow(clippy::too_many_arguments)] // kernel geometry is irreducible
pub fn accumulate_plane_batch_dyn_i8_at(
    level: SimdLevel,
    out: &mut [i32],
    padded: &[i8],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offsets: &[usize],
    weights: &[i8],
    stride: usize,
) {
    debug_assert_eq!(offsets.len(), weights.len());
    match level.effective() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `effective()` returns Avx2 only after a positive
            // (cached) CPUID check on this host.
            unsafe {
                batch_i8_avx2(
                    out, padded, geo, oh, ow, row_stride, offsets, weights, stride,
                )
            }
        }
        _ => batch_i8(
            ScalarToken,
            out,
            padded,
            geo,
            oh,
            ow,
            row_stride,
            offsets,
            weights,
            stride,
        ),
    }
}

/// The AVX2 instantiation of [`batch_i8`].
///
/// # Safety
///
/// AVX2 and FMA must be available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn batch_i8_avx2(
    out: &mut [i32],
    padded: &[i8],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offsets: &[usize],
    weights: &[i8],
    stride: usize,
) {
    // SAFETY: the function's own contract guarantees AVX2 and FMA.
    let token = unsafe { Avx2Token::assert_available() };
    batch_i8(
        token, out, padded, geo, oh, ow, row_stride, offsets, weights, stride,
    );
}

/// The shared int8 batch kernel: tap-count monomorphisation + width
/// routing, one source for both SIMD tiers. The vector paths widen i8
/// activations to 16 i16 lanes, multiply by the splat i16 weight
/// (products fit i16: |w·x| ≤ 127² < 2¹⁵), and widen-accumulate into
/// two 8-lane i32 vectors — the accumulators are **seeded from the
/// output plane**, so the final add-back costs nothing.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn batch_i8<S: SimdToken>(
    t: S,
    out: &mut [i32],
    padded: &[i8],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offsets: &[usize],
    weights: &[i8],
    stride: usize,
) {
    macro_rules! arm {
        ($n:literal) => {{
            let offs: &[usize; $n] = offsets.try_into().expect("length checked by match");
            let wts: &[i8; $n] = weights.try_into().expect("length checked by match");
            batch_i8_n::<S, $n>(t, out, padded, geo, oh, ow, row_stride, offs, wts, stride)
        }};
    }
    match offsets.len() {
        0 => {}
        1 => arm!(1),
        2 => arm!(2),
        3 => arm!(3),
        4 => arm!(4),
        5 => arm!(5),
        6 => arm!(6),
        7 => arm!(7),
        8 => arm!(8),
        9 => arm!(9),
        _ => {
            for i in 0..geo.n {
                let ob = geo.out_base + i * geo.out_stride;
                let ib = geo.in_base + i * geo.in_stride;
                accumulate_plane_dyn_i8(
                    &mut out[ob..ob + oh * ow],
                    &padded[ib..ib + geo.plane_len],
                    ow,
                    row_stride,
                    offsets,
                    weights,
                    stride,
                );
            }
        }
    }
}

/// Tap-monomorphised int8 batch kernel. Stride-1 planes route by width:
///
/// * `ow == 1 | 2` — scalar const-width rows;
/// * `ow == 4` — **four-row tiles**: 16 i16 lanes span rows
///   `oy..oy+4`, so a whole 4×4 plane is one vector step;
/// * `ow == 8` — two-row tiles (16 lanes = 2 × 8);
/// * `ow == 16 | 32` — const-width rows of 1/2 16-lane blocks;
/// * anything else — 16-lane blocks with a scalar tail (`i32` sums are
///   exact regardless of chunking).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn batch_i8_n<S: SimdToken, const N: usize>(
    t: S,
    out: &mut [i32],
    padded: &[i8],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offs: &[usize; N],
    wts: &[i8; N],
    stride: usize,
) {
    if stride != 1 {
        let mut wide = [0i32; N];
        for (w, &q) in wide.iter_mut().zip(wts.iter()) {
            *w = q as i32;
        }
        for i in 0..geo.n {
            let ob = geo.out_base + i * geo.out_stride;
            let ib = geo.in_base + i * geo.in_stride;
            accumulate_plane_i8::<N>(
                &mut out[ob..ob + oh * ow],
                &padded[ib..ib + geo.plane_len],
                ow,
                row_stride,
                offs,
                &wide,
                stride,
            );
        }
        return;
    }
    match ow {
        1 => tiny_rows_i8::<S, N, 1>(t, out, padded, geo, oh, row_stride, offs, wts),
        2 => tiny_rows_i8::<S, N, 2>(t, out, padded, geo, oh, row_stride, offs, wts),
        4 => tile_i8_ow4::<S, N>(t, out, padded, geo, oh, row_stride, offs, wts),
        8 => tile_i8_ow8::<S, N>(t, out, padded, geo, oh, row_stride, offs, wts),
        16 => rows_i8_const::<S, N, 16>(t, out, padded, geo, oh, row_stride, offs, wts),
        32 => rows_i8_const::<S, N, 32>(t, out, padded, geo, oh, row_stride, offs, wts),
        _ => rows_i8_dyn::<S, N>(t, out, padded, geo, oh, ow, row_stride, offs, wts),
    }
}

/// Scalar const-width rows for 1- and 2-wide int8 planes.
#[inline(always)]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn tiny_rows_i8<S: SimdToken, const N: usize, const OW: usize>(
    _t: S,
    out: &mut [i32],
    padded: &[i8],
    geo: BatchPlanes,
    oh: usize,
    row_stride: usize,
    offs: &[usize; N],
    wts: &[i8; N],
) {
    let mut wide = [0i32; N];
    for (w, &q) in wide.iter_mut().zip(wts.iter()) {
        *w = q as i32;
    }
    for i in 0..geo.n {
        let ob = geo.out_base + i * geo.out_stride;
        let ib = geo.in_base + i * geo.in_stride;
        for oy in 0..oh {
            let rb = ib + oy * row_stride;
            let orow: &mut [i32; OW] = (&mut out[ob + oy * OW..ob + (oy + 1) * OW])
                .try_into()
                .expect("row length is OW");
            let mut acc = [0i32; OW];
            for j in 0..N {
                let src: &[i8; OW] = (&padded[rb + offs[j]..rb + offs[j] + OW])
                    .try_into()
                    .expect("row length is OW");
                for k in 0..OW {
                    acc[k] += wide[j] * src[k] as i32;
                }
            }
            for k in 0..OW {
                orow[k] += acc[k];
            }
        }
    }
}

/// Scalar remainder rows shared by the int8 tile kernels: plain
/// pixel-outer accumulation for the `oh % tile` tail rows.
#[inline(always)]
fn scalar_row_i8<const N: usize>(
    orow: &mut [i32],
    padded: &[i8],
    rb: usize,
    offs: &[usize; N],
    wts: &[i8; N],
) {
    for (ox, o) in orow.iter_mut().enumerate() {
        let mut acc = 0i32;
        for j in 0..N {
            acc += wts[j] as i32 * padded[rb + offs[j] + ox] as i32;
        }
        *o += acc;
    }
}

/// Four-row tiles for 4-wide int8 planes: one widen covers output rows
/// `oy..oy+4` (16 contiguous outputs), so a whole 4×4 plane — the
/// vector-width-starved case of the old kernel — fills the full 16-lane
/// width in a single step.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_i8_ow4<S: SimdToken, const N: usize>(
    t: S,
    out: &mut [i32],
    padded: &[i8],
    geo: BatchPlanes,
    oh: usize,
    row_stride: usize,
    offs: &[usize; N],
    wts: &[i8; N],
) {
    let wsplat: [simd::I16x16; N] = std::array::from_fn(|j| t.i16x16_splat(wts[j] as i16));
    // Byte-shuffle indices for the packed tile load: rows 0..2 of a
    // tile all sit inside one 16-byte window whenever row_stride ≤ 6
    // (always true for 3×3 stride-1 geometry, where row_stride = 6);
    // row 3 rides in as a separate dword. Lanes 12..15 of the shuffle
    // are unused (overwritten by the insert) and index 0.
    let packable = 2 * row_stride + 4 <= 16;
    let idx: [u8; 16] = std::array::from_fn(|k| {
        if packable && k < 12 {
            ((k / 4) * row_stride + k % 4) as u8
        } else {
            0
        }
    });
    for i in 0..geo.n {
        let ob = geo.out_base + i * geo.out_stride;
        let ib = geo.in_base + i * geo.in_stride;
        let mut oy = 0;
        while oy + 3 < oh {
            let rb = ib + oy * row_stride;
            let orow = &mut out[ob + oy * 4..];
            let mut lo = t.i32x8_load(orow);
            let mut hi = t.i32x8_load(&orow[8..]);
            for j in 0..N {
                let base = rb + offs[j];
                // The packed load reads a full 16-byte window; near the
                // buffer end (final image's final tile) fall back to
                // the four-row gather, which reads only live bytes.
                let x = if packable && base + 16 <= padded.len() {
                    t.i16x16_widen_4x4_packed(
                        &padded[base..],
                        &idx,
                        &padded[base + 3 * row_stride..],
                    )
                } else {
                    t.i16x16_widen_4x4(
                        &padded[base..],
                        &padded[base + row_stride..],
                        &padded[base + 2 * row_stride..],
                        &padded[base + 3 * row_stride..],
                    )
                };
                let p = t.i16x16_mul(x, wsplat[j]);
                lo = t.i32x8_add_widen_lo(lo, p);
                hi = t.i32x8_add_widen_hi(hi, p);
            }
            t.i32x8_store(lo, orow);
            t.i32x8_store(hi, &mut orow[8..]);
            oy += 4;
        }
        for ty in oy..oh {
            let rb = ib + ty * row_stride;
            scalar_row_i8::<N>(
                &mut out[ob + ty * 4..ob + (ty + 1) * 4],
                padded,
                rb,
                offs,
                wts,
            );
        }
    }
}

/// Two-row tiles for 8-wide int8 planes: 16 i16 lanes = rows `oy, oy+1`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_i8_ow8<S: SimdToken, const N: usize>(
    t: S,
    out: &mut [i32],
    padded: &[i8],
    geo: BatchPlanes,
    oh: usize,
    row_stride: usize,
    offs: &[usize; N],
    wts: &[i8; N],
) {
    let wsplat: [simd::I16x16; N] = std::array::from_fn(|j| t.i16x16_splat(wts[j] as i16));
    for i in 0..geo.n {
        let ob = geo.out_base + i * geo.out_stride;
        let ib = geo.in_base + i * geo.in_stride;
        let mut oy = 0;
        while oy + 1 < oh {
            let rb0 = ib + oy * row_stride;
            let rb1 = rb0 + row_stride;
            let orow = &mut out[ob + oy * 8..];
            let mut lo = t.i32x8_load(orow);
            let mut hi = t.i32x8_load(&orow[8..]);
            for j in 0..N {
                let x = t.i16x16_widen_2x8(&padded[rb0 + offs[j]..], &padded[rb1 + offs[j]..]);
                let p = t.i16x16_mul(x, wsplat[j]);
                lo = t.i32x8_add_widen_lo(lo, p);
                hi = t.i32x8_add_widen_hi(hi, p);
            }
            t.i32x8_store(lo, orow);
            t.i32x8_store(hi, &mut orow[8..]);
            oy += 2;
        }
        if oy < oh {
            let rb = ib + oy * row_stride;
            scalar_row_i8::<N>(
                &mut out[ob + oy * 8..ob + (oy + 1) * 8],
                padded,
                rb,
                offs,
                wts,
            );
        }
    }
}

/// Const-width int8 rows: `OW / 16` full 16-lane widen blocks per row
/// with compile-time trip counts (OW ∈ {16, 32}).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rows_i8_const<S: SimdToken, const N: usize, const OW: usize>(
    t: S,
    out: &mut [i32],
    padded: &[i8],
    geo: BatchPlanes,
    oh: usize,
    row_stride: usize,
    offs: &[usize; N],
    wts: &[i8; N],
) {
    let wsplat: [simd::I16x16; N] = std::array::from_fn(|j| t.i16x16_splat(wts[j] as i16));
    for i in 0..geo.n {
        let ob = geo.out_base + i * geo.out_stride;
        let ib = geo.in_base + i * geo.in_stride;
        for oy in 0..oh {
            let rb = ib + oy * row_stride;
            for c in 0..OW / 16 {
                let orow = &mut out[ob + oy * OW + c * 16..];
                let mut lo = t.i32x8_load(orow);
                let mut hi = t.i32x8_load(&orow[8..]);
                for j in 0..N {
                    let x = t.i16x16_widen(&padded[rb + offs[j] + c * 16..]);
                    let p = t.i16x16_mul(x, wsplat[j]);
                    lo = t.i32x8_add_widen_lo(lo, p);
                    hi = t.i32x8_add_widen_hi(hi, p);
                }
                t.i32x8_store(lo, orow);
                t.i32x8_store(hi, &mut orow[8..]);
            }
        }
    }
}

/// Runtime-width int8 rows: full 16-lane blocks plus a scalar tail of
/// `ow % 16` pixels (exact — i32 accumulation is associative).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rows_i8_dyn<S: SimdToken, const N: usize>(
    t: S,
    out: &mut [i32],
    padded: &[i8],
    geo: BatchPlanes,
    oh: usize,
    ow: usize,
    row_stride: usize,
    offs: &[usize; N],
    wts: &[i8; N],
) {
    let wsplat: [simd::I16x16; N] = std::array::from_fn(|j| t.i16x16_splat(wts[j] as i16));
    let full = ow / 16;
    let tail = ow % 16;
    for i in 0..geo.n {
        let ob = geo.out_base + i * geo.out_stride;
        let ib = geo.in_base + i * geo.in_stride;
        for oy in 0..oh {
            let rb = ib + oy * row_stride;
            for c in 0..full {
                let orow = &mut out[ob + oy * ow + c * 16..];
                let mut lo = t.i32x8_load(orow);
                let mut hi = t.i32x8_load(&orow[8..]);
                for j in 0..N {
                    let x = t.i16x16_widen(&padded[rb + offs[j] + c * 16..]);
                    let p = t.i16x16_mul(x, wsplat[j]);
                    lo = t.i32x8_add_widen_lo(lo, p);
                    hi = t.i32x8_add_widen_hi(hi, p);
                }
                t.i32x8_store(lo, orow);
                t.i32x8_store(hi, &mut orow[8..]);
            }
            if tail > 0 {
                scalar_row_i8::<N>(
                    &mut out[ob + oy * ow + full * 16..ob + (oy + 1) * ow],
                    padded,
                    rb + full * 16,
                    offs,
                    wts,
                );
            }
        }
    }
}

/// Runtime-`n` dispatcher onto the monomorphised [`accumulate_rows`]
/// instances (3×3 kernels have 0..=9 taps). Patterns wider than 9 taps
/// (larger kernels) fall back to a generic loop.
#[inline]
pub fn accumulate_rows_dyn(
    out: &mut [f32],
    padded: &[f32],
    base: usize,
    offsets: &[usize],
    weights: &[f32],
    stride: usize,
) {
    debug_assert_eq!(offsets.len(), weights.len());
    macro_rules! arm {
        ($n:literal) => {{
            let offs: &[usize; $n] = offsets.try_into().expect("length checked by match");
            let wts: &[f32; $n] = weights.try_into().expect("length checked by match");
            accumulate_rows::<$n>(out, padded, base, offs, wts, stride)
        }};
    }
    match offsets.len() {
        0 => {}
        1 => arm!(1),
        2 => arm!(2),
        3 => arm!(3),
        4 => arm!(4),
        5 => arm!(5),
        6 => arm!(6),
        7 => arm!(7),
        8 => arm!(8),
        9 => arm!(9),
        _ => {
            for (ox, o) in out.iter_mut().enumerate() {
                let x = ox * stride;
                for (&off, &w) in offsets.iter().zip(weights) {
                    *o = w.mul_add(padded[base + off + x], *o);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The band-resident, output-stationary walk.
//
// The per-kernel entry points above re-load, update and re-store a whole
// output plane once per (oc, ic) kernel, over a padded copy of the whole
// batch. The walk below turns both inside out, the way the paper's PE
// keeps partial sums local and its input buffer small:
//
//   for each image
//     for each row band of the plane
//       pad the band's rows of all `in_c` input planes into the scratch
//       for each output channel
//         for each register tile of the band
//           seed the tile · stream the channel's live kernels through
//           it in ascending `ic` · epilogue on the registers · one store
//
// (Band height, what lives in L1 and why the weights stream: module
// docs.) Partial sums never leave registers, the outputs are written
// exactly once, and the padded input never exists beyond one band.
//
// A tile is `G` row groups × `C` blocks; one block is one SIMD register
// of outputs gathered from `R` consecutive rows (`R > 1` packs narrow
// planes: `C · LANES / R` is the plane width). Tap count, plane width
// and tile shape are compile-time constants, so each tap's window of
// the padded band is sliced — and bounds-checked — once per kernel and
// every load inside it is at a constant offset.
// ---------------------------------------------------------------------------

/// One layer's kernels as the band walk reads them: SPM order (kernel
/// `oc · in_c + ic`), `taps` non-zeros per kernel, and one flat row of
/// `taps` padded-plane offsets per pattern code.
#[derive(Debug, Clone, Copy)]
pub struct SpmKernels<'a, W> {
    /// Per-kernel pattern codes.
    pub codes: &'a [u16],
    /// Per-kernel non-zero sequences, `taps` each.
    pub weights: &'a [W],
    /// Per-kernel "all zero, skip it" flags.
    pub skip: &'a [bool],
    /// Tap offsets into a padded plane, `taps` per pattern code.
    pub offsets: &'a [usize],
    /// Non-zeros per kernel (the paper's `n`).
    pub taps: usize,
    /// Input channels.
    pub in_c: usize,
}

/// The f32 walk's two ends: bands are zero-bordered copies of the input
/// rows, tiles are seeded with their channel's bias and clamped at zero
/// on the way out when `relu`.
#[derive(Debug, Clone, Copy)]
pub struct BiasRelu<'a> {
    /// One bias per output channel; `None` seeds every tile with zero.
    pub bias: Option<&'a [f32]>,
    /// Fused ReLU.
    pub relu: bool,
}

/// The int8 walk's two ends: image `i`'s bands are quantised at
/// `act_scales[i]` on the way in, and its `i32` sums return to f32 at
/// `weight_scale · act_scales[i]` through [`requantize`] on the way out.
/// The tile walk sums two taps' products in i16 before widening, so
/// weight and activation codes must lie within ±127 — what symmetric
/// quantisation produces; a −128 code can wrap a pair. [`band_walk_vnni`]
/// takes the same epilogue.
#[derive(Debug, Clone, Copy)]
pub struct Requant<'a> {
    /// One activation scale per image of the batch.
    pub act_scales: &'a [f32],
    /// The top activation code (at most 127).
    pub q_max: i32,
    /// The layer's weight scale.
    pub weight_scale: f32,
    /// One bias per output channel; `None` adds zero.
    pub bias: Option<&'a [f32]>,
    /// Fused ReLU.
    pub relu: bool,
}

/// The requantisation formula, one rounding per step and no FMA (the
/// int8 path's only f32 arithmetic): `a · scale + bias`, clamped at
/// zero when `relu`.
#[inline(always)]
pub fn requantize(a: i32, scale: f32, bias: f32, relu: bool) -> f32 {
    let v = a as f32 * scale + bias;
    if relu {
        v.max(0.0)
    } else {
        v
    }
}

/// Output rows one register tile covers at plane width `ow` (the
/// shapes in the two [`TileEpilogue::walk`] tables), or `None` when that
/// width has no tile.
fn tile_rows(ow: usize) -> Option<usize> {
    match ow {
        4 | 16 => Some(4),
        8 => Some(8),
        32 => Some(2),
        _ => None,
    }
}

/// Whether the band walk has a tile for this geometry: a 3×3 stride-1
/// pad-1 convolution with 1..=9 taps per kernel onto a plane of a tiled
/// width and at least one tile of rows. Everything else runs the
/// per-kernel entry points.
pub fn has_tile(shape: &Conv2dShape, taps: usize, oh: usize, ow: usize) -> bool {
    shape.kernel == 3
        && shape.stride == 1
        && shape.pad == 1
        && (1..=9).contains(&taps)
        && tile_rows(ow).is_some_and(|rows| oh >= rows)
}

/// Bytes of padded input one band may hold, set against the 32–48 KiB
/// L1 data caches of current x86 cores: most of L1 goes to the one
/// operand the walk re-reads `out_c` times, the rest to the weights and
/// outputs streaming past it.
pub const BAND_BYTES: usize = 32 * 1024;

/// Output rows per band: as many whole tiles as keep the band's
/// `rows + 2` padded rows of all input planes (`row_bytes` each) inside
/// [`BAND_BYTES`], never fewer than one tile and never more than the
/// plane. f32 at 64 channels × 16 wide is one 4-row tile (27 KiB); int8
/// and thin layers take the whole plane.
fn band_rows(row_bytes: usize, tile_rows: usize, oh: usize) -> usize {
    let fit = (BAND_BYTES / row_bytes).saturating_sub(2);
    ((fit / tile_rows).max(1) * tile_rows).min(oh)
}

/// What a band walk did besides writing the outputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandPass {
    /// Nanoseconds spent padding bands; 0 unless the walk was asked to
    /// time them.
    pub pad_ns: u64,
    /// Band elements written by padding, summed over every band of
    /// every image (a halo row counts once per band that holds it).
    pub padded: usize,
}

/// Runs one pattern-convolution layer over a batch, band by band (loop
/// order and band height: module docs). `input` is `n`
/// contiguous `in_c × oh × ow` f32 images, `out` `n` contiguous
/// `out_c × oh × ow` outputs, each written exactly once; `scratch`
/// grows to one band of padded input planes — at most [`BAND_BYTES`]
/// unless a single tile's rows already exceed that — and is otherwise
/// left alone. The epilogue picks the precision: [`BiasRelu`] walks f32
/// bands, [`Requant`] quantises them to i8.
///
/// Per output element the f32 arithmetic is that of seeding the plane
/// with the bias and applying [`accumulate_plane_batch_dyn`] per live
/// kernel in ascending `ic`, then the ReLU: each tap, in pattern order,
/// is one fused multiply-add straight into the running value, so the
/// result is bit-identical to that walk on both tiers. The int8 sums
/// never reach memory; they equal [`accumulate_plane_batch_dyn_i8`]'s
/// (integer sums are exact in any order) and go through [`requantize`].
///
/// The clock is read around each band's padding only when `time_pad`.
///
/// # Panics
///
/// Panics unless [`has_tile`] holds for the geometry, or if a slice's
/// length disagrees with it.
#[allow(clippy::too_many_arguments)] // kernel geometry is irreducible
pub fn band_walk_at<E: TileEpilogue>(
    level: SimdLevel,
    kernels: &SpmKernels<'_, E::Wt>,
    epilogue: E,
    input: &[f32],
    out: &mut [f32],
    oh: usize,
    ow: usize,
    scratch: &mut Vec<E::In>,
    time_pad: bool,
) -> BandPass {
    match level.effective() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `effective()` returns Avx2 only after a positive
            // (cached) CPUID check on this host.
            unsafe { band_walk_avx2(kernels, epilogue, input, out, oh, ow, scratch, time_pad) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Scalar if hardware_fma() => {
            // SAFETY: `hardware_fma()` is a positive (cached) CPUID
            // check for FMA on this host.
            unsafe { band_walk_fma(kernels, epilogue, input, out, oh, ow, scratch, time_pad) }
        }
        _ => band_walk_taps(
            ScalarToken,
            kernels,
            epilogue,
            input,
            out,
            oh,
            ow,
            scratch,
            time_pad,
        ),
    }
}

/// The AVX2 instantiation of [`band_walk_taps`].
///
/// # Safety
///
/// AVX2 and FMA must be available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn band_walk_avx2<E: TileEpilogue>(
    kernels: &SpmKernels<'_, E::Wt>,
    epilogue: E,
    input: &[f32],
    out: &mut [f32],
    oh: usize,
    ow: usize,
    scratch: &mut Vec<E::In>,
    time_pad: bool,
) -> BandPass {
    // SAFETY: the function's own contract guarantees AVX2 and FMA.
    let token = unsafe { Avx2Token::assert_available() };
    band_walk_taps(
        token, kernels, epilogue, input, out, oh, ow, scratch, time_pad,
    )
}

/// The scalar instantiation of [`band_walk_taps`] where the CPU has FMA
/// (see [`hardware_fma`]).
///
/// # Safety
///
/// FMA must be available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn band_walk_fma<E: TileEpilogue>(
    kernels: &SpmKernels<'_, E::Wt>,
    epilogue: E,
    input: &[f32],
    out: &mut [f32],
    oh: usize,
    ow: usize,
    scratch: &mut Vec<E::In>,
    time_pad: bool,
) -> BandPass {
    band_walk_taps(
        ScalarToken,
        kernels,
        epilogue,
        input,
        out,
        oh,
        ow,
        scratch,
        time_pad,
    )
}

/// Monomorphises the tap count.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn band_walk_taps<S: SimdToken, E: TileEpilogue>(
    t: S,
    k: &SpmKernels<'_, E::Wt>,
    e: E,
    input: &[f32],
    out: &mut [f32],
    oh: usize,
    ow: usize,
    scratch: &mut Vec<E::In>,
    time_pad: bool,
) -> BandPass {
    match k.taps {
        1 => e.walk::<S, 1>(t, k, input, out, oh, ow, scratch, time_pad),
        2 => e.walk::<S, 2>(t, k, input, out, oh, ow, scratch, time_pad),
        3 => e.walk::<S, 3>(t, k, input, out, oh, ow, scratch, time_pad),
        4 => e.walk::<S, 4>(t, k, input, out, oh, ow, scratch, time_pad),
        5 => e.walk::<S, 5>(t, k, input, out, oh, ow, scratch, time_pad),
        6 => e.walk::<S, 6>(t, k, input, out, oh, ow, scratch, time_pad),
        7 => e.walk::<S, 7>(t, k, input, out, oh, ow, scratch, time_pad),
        8 => e.walk::<S, 8>(t, k, input, out, oh, ow, scratch, time_pad),
        9 => e.walk::<S, 9>(t, k, input, out, oh, ow, scratch, time_pad),
        n => panic!("{n} taps per kernel have no tile"),
    }
}

/// The precision-specific half of the band walk — how a band of input
/// rows is padded, and how one block of outputs is seeded, fed one
/// kernel, and stored — and the tile shape per plane width. Implemented
/// by the two epilogues, [`BiasRelu`] (f32) and [`Requant`] (int8), and
/// by nothing else.
pub trait TileEpilogue: Copy {
    /// Padded-band element.
    type In: Copy + Default;
    /// Stored weight element.
    type Wt: Copy;
    /// A weight broadcast across a register.
    type Splat: Copy;
    /// One block's running outputs.
    type Acc: Copy;
    /// Outputs per block.
    const LANES: usize;

    /// Routes plane width `ow` to this precision's tile shape.
    #[allow(clippy::too_many_arguments)]
    fn walk<S: SimdToken, const N: usize>(
        self,
        t: S,
        k: &SpmKernels<'_, Self::Wt>,
        input: &[f32],
        out: &mut [f32],
        oh: usize,
        ow: usize,
        scratch: &mut Vec<Self::In>,
        time_pad: bool,
    ) -> BandPass;

    /// The band-pad half: overwrites `dst` with rows
    /// `first .. first + dst.len() / (w + 2)` of the one-wide
    /// zero-bordered twin of `plane`, an `h × w` input plane of image
    /// `image`, in this precision's band element.
    #[allow(clippy::too_many_arguments)]
    fn pad_rows<S: SimdToken>(
        self,
        t: S,
        image: usize,
        plane: &[f32],
        h: usize,
        w: usize,
        first: usize,
        dst: &mut [Self::In],
    );

    /// A block of output channel `oc` before its first kernel.
    fn seed<S: SimdToken>(self, t: S, oc: usize) -> Self::Acc;

    /// Broadcasts one weight.
    fn splat<S: SimdToken>(t: S, w: Self::Wt) -> Self::Splat;

    /// `acc` plus one kernel's `N` taps. Tap `j` reads the block at
    /// `at` of `win[j]`: `R` row segments, `pw` apart.
    fn mac<S: SimdToken, const N: usize, const R: usize>(
        t: S,
        acc: Self::Acc,
        w: &[Self::Splat; N],
        win: &[&[Self::In]; N],
        at: usize,
        pw: usize,
    ) -> Self::Acc;

    /// Epilogue and store of one finished block of image `image`,
    /// output channel `oc`.
    fn finish<S: SimdToken>(self, t: S, acc: Self::Acc, image: usize, oc: usize, out: &mut [f32]);
}

impl TileEpilogue for BiasRelu<'_> {
    type In = f32;
    type Wt = f32;
    type Splat = simd::F32x8;
    type Acc = simd::F32x8;
    const LANES: usize = 8;

    /// Eight accumulator registers per tile: a whole 4×4 plane as two
    /// two-row vectors, 8 rows × 1 vector, 4 × 2, 2 × 4.
    #[inline(always)]
    fn walk<S: SimdToken, const N: usize>(
        self,
        t: S,
        k: &SpmKernels<'_, f32>,
        input: &[f32],
        out: &mut [f32],
        oh: usize,
        ow: usize,
        scratch: &mut Vec<f32>,
        time_pad: bool,
    ) -> BandPass {
        match ow {
            4 => band_walk::<S, Self, N, 2, 1, 2>(t, self, k, input, out, oh, scratch, time_pad),
            8 => band_walk::<S, Self, N, 1, 1, 8>(t, self, k, input, out, oh, scratch, time_pad),
            16 => band_walk::<S, Self, N, 1, 2, 4>(t, self, k, input, out, oh, scratch, time_pad),
            32 => band_walk::<S, Self, N, 1, 4, 2>(t, self, k, input, out, oh, scratch, time_pad),
            _ => panic!("plane width {ow} has no tile"),
        }
    }

    #[inline(always)]
    fn pad_rows<S: SimdToken>(
        self,
        _t: S,
        _image: usize,
        plane: &[f32],
        h: usize,
        w: usize,
        first: usize,
        dst: &mut [f32],
    ) {
        pad_band_rows(plane, h, w, first, dst);
    }

    #[inline(always)]
    fn seed<S: SimdToken>(self, t: S, oc: usize) -> simd::F32x8 {
        t.f32x8_splat(self.bias.map_or(0.0, |b| b[oc]))
    }

    #[inline(always)]
    fn splat<S: SimdToken>(t: S, w: f32) -> simd::F32x8 {
        t.f32x8_splat(w)
    }

    #[inline(always)]
    fn mac<S: SimdToken, const N: usize, const R: usize>(
        t: S,
        acc: simd::F32x8,
        w: &[simd::F32x8; N],
        win: &[&[f32]; N],
        at: usize,
        pw: usize,
    ) -> simd::F32x8 {
        // Each tap fused straight into the running value, in pattern
        // order: the rounding sequence of the per-kernel entry points.
        let mut acc = acc;
        for j in 0..N {
            let x = match R {
                1 => t.f32x8_load(&win[j][at..]),
                2 => t.f32x8_load_2x4(&win[j][at..], &win[j][at + pw..]),
                _ => unreachable!("f32 blocks span one or two rows"),
            };
            acc = t.f32x8_fma(acc, w[j], x);
        }
        acc
    }

    #[inline(always)]
    fn finish<S: SimdToken>(
        self,
        t: S,
        acc: simd::F32x8,
        _image: usize,
        _oc: usize,
        out: &mut [f32],
    ) {
        let v = if self.relu { t.f32x8_relu(acc) } else { acc };
        t.f32x8_store(v, out);
    }
}

/// Byte-shuffle indices of the packed 4×4 tile load on a 6-wide padded
/// plane: rows 0..3 sit at bytes 0, 6 and 12 of one 16-byte window, row
/// 3 rides in separately (lanes 12..16 are overwritten by it).
const PACK_4X4_PW6: [u8; 16] = [0, 1, 2, 3, 6, 7, 8, 9, 12, 13, 14, 15, 0, 0, 0, 0];

impl TileEpilogue for Requant<'_> {
    type In = i8;
    type Wt = i8;
    type Splat = simd::I16x16;
    type Acc = (simd::I32x8, simd::I32x8);
    const LANES: usize = 16;

    /// Sixteen outputs (a lo/hi `I32x8` pair) per block: a whole 4×4
    /// plane as one four-row block, 8 rows as four two-row blocks,
    /// 4 rows × 1 block, 2 × 2. Same rows per tile as f32.
    #[inline(always)]
    fn walk<S: SimdToken, const N: usize>(
        self,
        t: S,
        k: &SpmKernels<'_, i8>,
        input: &[f32],
        out: &mut [f32],
        oh: usize,
        ow: usize,
        scratch: &mut Vec<i8>,
        time_pad: bool,
    ) -> BandPass {
        match ow {
            4 => band_walk::<S, Self, N, 4, 1, 1>(t, self, k, input, out, oh, scratch, time_pad),
            8 => band_walk::<S, Self, N, 2, 1, 4>(t, self, k, input, out, oh, scratch, time_pad),
            16 => band_walk::<S, Self, N, 1, 1, 4>(t, self, k, input, out, oh, scratch, time_pad),
            32 => band_walk::<S, Self, N, 1, 2, 2>(t, self, k, input, out, oh, scratch, time_pad),
            _ => panic!("plane width {ow} has no tile"),
        }
    }

    #[inline(always)]
    fn pad_rows<S: SimdToken>(
        self,
        t: S,
        image: usize,
        plane: &[f32],
        h: usize,
        w: usize,
        first: usize,
        dst: &mut [i8],
    ) {
        let scale = self.act_scales[image];
        pad_quant_rows(t, plane, h, w, 1, first, scale, self.q_max, dst);
    }

    #[inline(always)]
    fn seed<S: SimdToken>(self, _t: S, _oc: usize) -> Self::Acc {
        (simd::I32x8::zero(), simd::I32x8::zero())
    }

    #[inline(always)]
    fn splat<S: SimdToken>(t: S, w: i8) -> simd::I16x16 {
        t.i16x16_splat(w as i16)
    }

    #[inline(always)]
    fn mac<S: SimdToken, const N: usize, const R: usize>(
        t: S,
        (mut lo, mut hi): Self::Acc,
        w: &[simd::I16x16; N],
        win: &[&[i8]; N],
        at: usize,
        pw: usize,
    ) -> Self::Acc {
        let product = |j: usize| {
            let x = match R {
                1 => t.i16x16_widen(&win[j][at..]),
                2 => t.i16x16_widen_2x8(&win[j][at..], &win[j][at + pw..]),
                // Four-row blocks only exist at plane width 4.
                4 => {
                    t.i16x16_widen_4x4_packed(&win[j][at..], &PACK_4X4_PW6, &win[j][at + 3 * pw..])
                }
                _ => unreachable!("int8 blocks span one, two or four rows"),
            };
            t.i16x16_mul(x, w[j])
        };
        // Two taps share one widening: codes are within ±127, so a pair
        // of products still fits i16.
        for j in (0..N).step_by(2) {
            let mut p = product(j);
            if j + 1 < N {
                p = t.i16x16_add(p, product(j + 1));
            }
            lo = t.i32x8_add_widen_lo(lo, p);
            hi = t.i32x8_add_widen_hi(hi, p);
        }
        (lo, hi)
    }

    #[inline(always)]
    fn finish<S: SimdToken>(
        self,
        t: S,
        (lo, hi): Self::Acc,
        image: usize,
        oc: usize,
        out: &mut [f32],
    ) {
        let scale = self.weight_scale * self.act_scales[image];
        let bias = self.bias.map_or(0.0, |b| b[oc]);
        let f = |v: simd::I32x8| {
            simd::F32x8(std::array::from_fn(|k| {
                requantize(v.0[k], scale, bias, self.relu)
            }))
        };
        t.f32x8_store(f(lo), out);
        t.f32x8_store(f(hi), &mut out[8..]);
    }
}

/// The walk itself, once for both precisions and both tiers (loop order
/// in the section comment above). Within a band every output channel
/// seeds its tiles, streams its live kernels through them in ascending
/// `ic` (pattern code → offset row → `N` splatted weights → `N` tap
/// windows of the band), then finishes and stores. A band — or, inside
/// one, a tile — that would overrun its end slides back to end on it and
/// recomputes the overlap: every output is computed whole, so the
/// rewrite stores the same value.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn band_walk<
    S: SimdToken,
    E: TileEpilogue,
    const N: usize,
    const R: usize,
    const C: usize,
    const G: usize,
>(
    t: S,
    e: E,
    k: &SpmKernels<'_, E::Wt>,
    input: &[f32],
    out: &mut [f32],
    oh: usize,
    scratch: &mut Vec<E::In>,
    time_pad: bool,
) -> BandPass {
    let ow = C * E::LANES / R;
    let pw = ow + 2;
    let rows = G * R;
    // One tap's footprint under a tile: `rows` rows, the last `ow` wide.
    let window = (rows - 1) * pw + ow;
    let in_c = k.in_c;
    let out_c = k.codes.len() / in_c;
    let plane = oh * ow;
    let n = out.len() / (out_c * plane);
    assert!(
        oh >= rows && out.len() == n * out_c * plane && input.len() == n * in_c * plane,
        "geometry has no tile"
    );
    assert!(
        k.codes.len() == out_c * in_c
            && k.skip.len() == k.codes.len()
            && k.weights.len() == k.codes.len() * N,
        "kernel table length mismatch"
    );

    let band = band_rows(in_c * pw * std::mem::size_of::<E::In>(), rows, oh);
    let band_plane = (band + 2) * pw;
    if scratch.len() < in_c * band_plane {
        scratch.resize(in_c * band_plane, E::In::default());
    }
    let planes = &mut scratch[..in_c * band_plane];

    let mut pass = BandPass::default();
    for (image, (image_in, image_out)) in input
        .chunks_exact(in_c * plane)
        .zip(out.chunks_exact_mut(out_c * plane))
        .enumerate()
    {
        let mut next = 0;
        while next < oh {
            // Output rows y0..y1, read from padded rows y0..y1 + 2.
            let y0 = next.min(oh - rows);
            let y1 = (next + band).min(oh);
            next = y1;
            let pad_start = time_pad.then(Instant::now);
            for (src, dst) in image_in
                .chunks_exact(plane)
                .zip(planes.chunks_exact_mut(band_plane))
            {
                e.pad_rows(t, image, src, oh, ow, y0, &mut dst[..(y1 - y0 + 2) * pw]);
            }
            if let Some(start) = pad_start {
                pass.pad_ns += start.elapsed().as_nanos() as u64;
            }
            pass.padded += in_c * (y1 - y0 + 2) * pw;

            for (oc, plane_out) in image_out.chunks_exact_mut(plane).enumerate() {
                let oc_codes = &k.codes[oc * in_c..(oc + 1) * in_c];
                let oc_skip = &k.skip[oc * in_c..(oc + 1) * in_c];
                let oc_weights = &k.weights[oc * in_c * N..(oc + 1) * in_c * N];
                let mut tile = y0;
                while tile < y1 {
                    let y = tile.min(y1 - rows);
                    tile += rows;
                    let mut acc = [[e.seed(t, oc); C]; G];
                    for (ic, ((&code, &skip), wts)) in oc_codes
                        .iter()
                        .zip(oc_skip)
                        .zip(oc_weights.chunks_exact(N))
                        .enumerate()
                    {
                        if skip {
                            continue;
                        }
                        let code = code as usize;
                        let offs: &[usize; N] = k.offsets[code * N..(code + 1) * N]
                            .try_into()
                            .expect("an offset row is N long");
                        let w: [E::Splat; N] = std::array::from_fn(|j| E::splat(t, wts[j]));
                        let origin = ic * band_plane + (y - y0) * pw;
                        let win: [&[E::In]; N] = std::array::from_fn(|j| {
                            &planes[origin + offs[j]..origin + offs[j] + window]
                        });
                        for (g, row) in acc.iter_mut().enumerate() {
                            for (c, block) in row.iter_mut().enumerate() {
                                let at = g * R * pw + c * E::LANES;
                                *block = E::mac::<S, N, R>(t, *block, &w, &win, at, pw);
                            }
                        }
                    }
                    for (g, row) in acc.iter().enumerate() {
                        for (c, &block) in row.iter().enumerate() {
                            let at = y * ow + (g * C + c) * E::LANES;
                            e.finish(t, block, image, oc, &mut plane_out[at..]);
                        }
                    }
                }
            }
        }
    }
    pass
}

// ---------------------------------------------------------------------------
// The int8 walk on AVX-VNNI.
//
// `vpdpbusd` multiplies four u8 × i8 byte pairs and adds their sum into
// one i32 lane: 32 MACs per 256-bit instruction. [`band_walk_vnni`] runs
// image → row band → tile → output channel (the band walk's order with
// the tile moved outside the channel loop, so one packing serves every
// channel) over a *tap-quad packed band*:
//
// * **fixed tap groups** — the nine taps of a 3×3 window, numbered
//   `t = 3·ky + kx`, fall into three groups whatever a kernel's pattern
//   is: g0 = taps 0–3, g1 = taps 4–7, g2 = tap 8. Tap `t` is byte `t % 4`
//   of group `t / 4`, so every tap count 1..=9 fits without padding a
//   pattern to four taps;
// * **the packed tile** — a tile is 64 output positions, eight i32x8
//   accumulators. Entering it, the quantised band of every input channel
//   is rewritten as three dword planes of 64 dwords: each dword holds the
//   four activation codes of one group at one position, stored as
//   `u8 = code + 128`. Every output channel reads the same planes, so the
//   packing is paid once per tile and spread over `out_c` kernels;
// * **dword taps** — at compile time each live kernel becomes one entry
//   per group its pattern touches: the plane it reads (`3·ic + g`) and
//   its four i8 weights packed into one i32, zero where the pattern has
//   no tap ([`DwordTaps`]). One broadcast and one `vpdpbusd` per
//   accumulator apply an entry;
// * **the seed** — the +128 shift adds `128 · Σw` to every sum, so each
//   output channel's accumulators start at `−128 · Σw` over its live
//   weights. Both are exact in i32, for padding (code 0) and for the
//   signed input of a first layer alike: `Σ (x + 128)·w − 128·Σw = Σ x·w`.
//
// Integer sums are exact in any order, so every output equals the band
// walk's bit for bit, and it leaves through the same [`requantize`].
// A width-4 plane's tile rows hold only 16 outputs of one image, so
// there one tile spans up to four images of the batch.
// ---------------------------------------------------------------------------

/// Output positions one VNNI tile holds.
const VNNI_TILE: usize = 64;

/// i32x8 accumulators one VNNI tile holds.
const VNNI_ACCS: usize = VNNI_TILE / 8;

/// One layer's int8 kernels as [`band_walk_vnni`] reads them: per output
/// channel, a run of dword taps — each a `u16` plane index and an `i32`
/// of four weights, six bytes in two arrays — and one seed.
#[derive(Debug, Clone)]
pub struct DwordTaps {
    /// Output channel `oc`'s dword taps are `starts[oc]..starts[oc + 1]`.
    starts: Vec<u32>,
    /// The packed plane each dword tap reads: `3 · ic + group`.
    planes: Vec<u16>,
    /// Its four i8 weights, byte `k` for tap `4 · group + k`.
    weights: Vec<i32>,
    /// Per output channel: −128 · Σ of its live weights.
    seeds: Vec<i32>,
    /// Input channels.
    in_c: usize,
}

impl DwordTaps {
    /// Flattens a layer's live kernels into dword taps, ascending `ic`
    /// then group; a group whose four weights are all zero gets none.
    /// `positions` holds, per pattern code, the `taps` kernel positions
    /// `3·ky + kx` of its non-zeros in the order `k.weights` lists them.
    /// `k.offsets` is not read.
    ///
    /// # Panics
    ///
    /// Panics unless a kernel has 1..=9 taps and there is at least one
    /// input channel, if `3 · in_c` planes overflow a `u16` index, if a
    /// position lies outside the 3×3 window, or if the tables disagree in
    /// length.
    pub fn new(k: &SpmKernels<'_, i8>, positions: &[u8]) -> Self {
        let (n, in_c) = (k.taps, k.in_c);
        assert!((1..=9).contains(&n), "{n} taps per kernel");
        assert!(
            (1..=(usize::from(u16::MAX) + 1) / 3).contains(&in_c),
            "{in_c} input channels: none, or too many for a u16 plane index"
        );
        assert!(
            k.weights.len() == k.codes.len() * n && k.skip.len() == k.codes.len(),
            "kernel table length mismatch"
        );
        let out_c = k.codes.len() / in_c;
        // Each non-zero of each pattern code as (group, byte shift).
        let slots: Vec<(usize, u32)> = positions
            .iter()
            .map(|&t| {
                assert!(t < 9, "tap position {t} outside the 3×3 window");
                (usize::from(t / 4), 8 * u32::from(t % 4))
            })
            .collect();
        // Room for three dword taps per live kernel; the tables stay
        // resident for the layer's lifetime, so they are shrunk to fit.
        let room = 3 * k.skip.iter().filter(|&&s| !s).count();
        let mut d = DwordTaps {
            starts: Vec::with_capacity(out_c + 1),
            planes: Vec::with_capacity(room),
            weights: Vec::with_capacity(room),
            seeds: Vec::with_capacity(out_c),
            in_c,
        };
        d.starts.push(0);
        // Zipped chunks rather than indices: no bounds check per kernel.
        for ((oc_codes, oc_skip), oc_weights) in k
            .codes
            .chunks_exact(in_c)
            .zip(k.skip.chunks_exact(in_c))
            .zip(k.weights.chunks_exact(in_c * n))
        {
            let mut sum = 0i32;
            for (ic, ((&code, &skip), w)) in oc_codes
                .iter()
                .zip(oc_skip)
                .zip(oc_weights.chunks_exact(n))
                .enumerate()
            {
                if skip {
                    continue;
                }
                let code = usize::from(code);
                let mut quads = [0u32; 3];
                for (&(g, shift), &w) in slots[code * n..(code + 1) * n].iter().zip(w) {
                    quads[g] |= u32::from(w as u8) << shift;
                    sum += i32::from(w);
                }
                for (g, &quad) in quads.iter().enumerate() {
                    // Push, then drop a zero quad again: whether a group
                    // is live follows the pattern codes, which a branch
                    // predicts badly.
                    d.planes.push((3 * ic + g) as u16);
                    d.weights.push(quad as i32);
                    let kept = d.planes.len() - usize::from(quad == 0);
                    d.planes.truncate(kept);
                    d.weights.truncate(kept);
                }
            }
            d.seeds.push(-128 * sum);
            d.starts
                .push(u32::try_from(d.planes.len()).expect("dword taps fit u32"));
        }
        d.planes.shrink_to_fit();
        d.weights.shrink_to_fit();
        d
    }
}

/// The fewest output channels [`band_walk_vnni`] pays off at. Packing
/// costs the same per input channel and tile whatever `out_c` is, and
/// narrower layers do not spread it thinly enough. On the narrow VGG-16
/// proxy (batch 5, n = 2 and 4, a Xeon with AVX-VNNI) the walk ran
/// 8-channel layers at 0.75–0.93× the AVX2 tile's speed, 16-channel ones
/// at 0.87–1.28× and 24-channel ones at 1.19–1.8×.
pub const VNNI_MIN_OUT_C: usize = 16;

/// Whether [`band_walk_vnni`] runs at `level` on this host: the tier is
/// AVX2 and CPUID reports AVX-VNNI. Never at [`SimdLevel::Scalar`], the
/// tier `PCNN_FORCE_SCALAR=1` pins. The CPUID test is cached by `std`.
pub fn has_vnni(level: SimdLevel) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        level.effective() == SimdLevel::Avx2 && std::is_x86_feature_detected!("avxvnni")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = level;
        false
    }
}

/// The int8 band walk on AVX-VNNI (section comment above): the outputs
/// and [`BandPass`] of [`band_walk_at`] with this [`Requant`] epilogue,
/// from `taps` rather than per-kernel weights. `band` grows to one band
/// of quantised rows, as [`band_walk_at`]'s scratch does (times the
/// images a width-4 tile spans); `packed` to one tile's dword planes,
/// `3 · in_c · 64` of them. Packing counts as padding time.
///
/// # Panics
///
/// Panics unless [`has_vnni`] holds at [`SimdLevel::Avx2`] and
/// [`has_tile`] for the geometry, or if a slice's length disagrees with
/// it.
#[allow(clippy::too_many_arguments)] // kernel geometry is irreducible
pub fn band_walk_vnni(
    taps: &DwordTaps,
    epilogue: Requant<'_>,
    input: &[f32],
    out: &mut [f32],
    oh: usize,
    ow: usize,
    band: &mut Vec<i8>,
    packed: &mut Vec<u32>,
    time_pad: bool,
) -> BandPass {
    assert!(has_vnni(SimdLevel::Avx2), "this CPU has no AVX-VNNI");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `has_vnni` just confirmed AVX2, FMA and AVX-VNNI on
        // this host.
        unsafe { vnni_walk(taps, epilogue, input, out, oh, ow, band, packed, time_pad) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("AVX-VNNI is x86-64 only")
}

/// The body of [`band_walk_vnni`].
///
/// # Safety
///
/// AVX2, FMA and AVX-VNNI must be available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avxvnni")]
#[allow(clippy::too_many_arguments)]
unsafe fn vnni_walk(
    taps: &DwordTaps,
    e: Requant<'_>,
    input: &[f32],
    out: &mut [f32],
    oh: usize,
    ow: usize,
    band: &mut Vec<i8>,
    packed: &mut Vec<u32>,
    time_pad: bool,
) -> BandPass {
    // SAFETY: the function's own contract guarantees AVX2 and FMA.
    let t = unsafe { Avx2Token::assert_available() };
    let rows = tile_rows(ow).unwrap_or_else(|| panic!("plane width {ow} has no tile"));
    let (in_c, out_c) = (taps.in_c, taps.seeds.len());
    let plane = oh * ow;
    let n = out.len() / (out_c * plane);
    assert!(
        oh >= rows && out.len() == n * out_c * plane && input.len() == n * in_c * plane,
        "geometry has no tile"
    );
    // Accumulators one image fills per tile (2 at width 4, else 8), and
    // the images one tile spans.
    let per_image = rows * ow / 8;
    let slots = (VNNI_ACCS / per_image).min(n.max(1));
    let pw = ow + 2;
    let band_height = band_rows(slots * in_c * pw, rows, oh);
    let band_plane = (band_height + 2) * pw;
    if band.len() < slots * in_c * band_plane {
        band.resize(slots * in_c * band_plane, 0);
    }
    let band = &mut band[..slots * in_c * band_plane];
    if packed.len() < 3 * in_c * VNNI_TILE {
        packed.resize(3 * in_c * VNNI_TILE, 0);
    }
    let packed = &mut packed[..3 * in_c * VNNI_TILE];

    let mut pass = BandPass::default();
    for first in (0..n).step_by(slots) {
        let live = slots.min(n - first);
        let accs = live * per_image;
        let mut next = 0;
        while next < oh {
            // Output rows y0..y1, read from padded rows y0..y1 + 2.
            let y0 = next.min(oh - rows);
            let y1 = (next + band_height).min(oh);
            next = y1;
            let pad_start = time_pad.then(Instant::now);
            for (s, image_band) in band
                .chunks_exact_mut(in_c * band_plane)
                .take(live)
                .enumerate()
            {
                let image = first + s;
                let image_in = &input[image * in_c * plane..(image + 1) * in_c * plane];
                for (src, dst) in image_in
                    .chunks_exact(plane)
                    .zip(image_band.chunks_exact_mut(band_plane))
                {
                    e.pad_rows(t, image, src, oh, ow, y0, &mut dst[..(y1 - y0 + 2) * pw]);
                }
            }
            if let Some(start) = pad_start {
                pass.pad_ns += start.elapsed().as_nanos() as u64;
            }
            pass.padded += live * in_c * (y1 - y0 + 2) * pw;

            let mut tile = y0;
            while tile < y1 {
                let y = tile.min(y1 - rows);
                tile += rows;
                // Accumulator `a` covers positions p..p + 8 of image slot
                // s's tile rows: two quads of four, read from input
                // channel 0's band at `quads[a]`, stored to output
                // channel 0 at `dst[a]`.
                let mut quads = [(0usize, 0usize); VNNI_ACCS];
                let mut dst = [0usize; VNNI_ACCS];
                let mut scale = [0.0f32; VNNI_ACCS];
                for a in 0..accs {
                    let (s, p) = (a / per_image, (a % per_image) * 8);
                    let quad = |p: usize| s * in_c * band_plane + (y - y0 + p / ow) * pw + p % ow;
                    quads[a] = (quad(p), quad(p + 4));
                    dst[a] = (first + s) * out_c * plane + y * ow + p;
                    scale[a] = e.weight_scale * e.act_scales[first + s];
                }
                let pack_start = time_pad.then(Instant::now);
                for (ic, planes) in packed.chunks_exact_mut(3 * VNNI_TILE).enumerate() {
                    let base = ic * band_plane;
                    for (a, &(lo, hi)) in quads[..accs].iter().enumerate() {
                        pack_quads(band, base + lo, base + hi, pw, planes, a * 8);
                    }
                }
                if let Some(start) = pack_start {
                    pass.pad_ns += start.elapsed().as_nanos() as u64;
                }
                for oc in 0..out_c {
                    let run = taps.starts[oc] as usize..taps.starts[oc + 1] as usize;
                    let ch = VnniChannel {
                        planes: &taps.planes[run.clone()],
                        weights: &taps.weights[run],
                        seed: taps.seeds[oc],
                        bias: e.bias.map_or(0.0, |b| b[oc]),
                        relu: e.relu,
                    };
                    let at = oc * plane;
                    match accs {
                        2 => vnni_channel::<2>(&ch, packed, &scale, &dst, at, out),
                        4 => vnni_channel::<4>(&ch, packed, &scale, &dst, at, out),
                        6 => vnni_channel::<6>(&ch, packed, &scale, &dst, at, out),
                        _ => vnni_channel::<8>(&ch, packed, &scale, &dst, at, out),
                    }
                }
            }
        }
    }
    pass
}

/// `vpshufb` indices that gather each group's four taps for one quad of
/// output positions (the same in both 128-bit lanes): in a lane holding
/// padded row `r` at bytes 0..8 and row `r + 1` at bytes 8..16, dword
/// `j` of group g0 is taps (0,0) (0,1) (0,2) (1,0) of position `j` — in
/// one holding rows `r + 1` and `r + 2`, groups g1 and g2. Index −128
/// gathers zero: tap 8's group has one live byte.
#[cfg(target_arch = "x86_64")]
static TAP_QUADS: [[i8; 32]; 3] = {
    let mut idx = [[0i8; 32]; 3];
    let mut k = 0;
    while k < 32 {
        let (j, b) = (((k % 16) / 4) as i8, k % 4);
        idx[0][k] = [j, j + 1, j + 2, 8 + j][b];
        idx[1][k] = [j + 1, j + 2, 8 + j, 9 + j][b];
        idx[2][k] = [10 + j, -128, -128, -128][b];
        k += 1;
    }
    idx
};

/// Eight bytes of `band` from `at` as the low half of a vector; past the
/// band's end the missing bytes read as zero — no dword uses them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avxvnni")]
#[inline]
fn load8(band: &[i8], at: usize) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::_mm_loadl_epi64;
    let mut tail = [0i8; 8];
    let bytes = match band.get(at..at + 8) {
        Some(bytes) => bytes,
        None => {
            let live = &band[at..];
            tail[..live.len()].copy_from_slice(live);
            &tail
        }
    };
    // SAFETY: `bytes` holds eight readable bytes; the load is unaligned.
    unsafe { _mm_loadl_epi64(bytes.as_ptr().cast()) }
}

/// Packs two quads of output positions — four each, starting at padded
/// offsets `lo ≤ hi` of `band` — into dwords `at..at + 8` of the three
/// group planes in `planes` (64 dwords each), as `code + 128`. Each quad
/// reads eight bytes of three padded rows, two more than its six live
/// ones: only the band's last quad reads past its end.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avxvnni")]
#[inline]
fn pack_quads(band: &[i8], lo: usize, hi: usize, pw: usize, planes: &mut [u32], at: usize) {
    use std::arch::x86_64::*;
    debug_assert!(lo <= hi);
    let at_rows = [lo, lo + pw, lo + 2 * pw, hi, hi + pw, hi + 2 * pw];
    let mut rows = [_mm_setzero_si128(); 6];
    if hi + 2 * pw + 8 <= band.len() {
        for (row, &o) in rows.iter_mut().zip(&at_rows) {
            // SAFETY: eight bytes from an offset of at most `hi + 2·pw`,
            // and `hi + 2·pw + 8 ≤ band.len()`; the load is unaligned.
            *row = unsafe { _mm_loadl_epi64(band.as_ptr().add(o).cast()) };
        }
    } else {
        for (row, &o) in rows.iter_mut().zip(&at_rows) {
            *row = load8(band, o);
        }
    }
    let [r0, s0, u0, r1, s1, u1] = rows;
    let rs = _mm256_set_m128i(_mm_unpacklo_epi64(r1, s1), _mm_unpacklo_epi64(r0, s0));
    let su = _mm256_set_m128i(_mm_unpacklo_epi64(s1, u1), _mm_unpacklo_epi64(s0, u0));
    let flip = _mm256_set1_epi8(-128);
    for (g, (rows, idx)) in [rs, su, su].into_iter().zip(&TAP_QUADS).enumerate() {
        // SAFETY: `idx` is 32 readable bytes.
        let idx = unsafe { _mm256_loadu_si256(idx.as_ptr().cast()) };
        let quad = _mm256_xor_si256(_mm256_shuffle_epi8(rows, idx), flip);
        let dst = &mut planes[g * VNNI_TILE + at..g * VNNI_TILE + at + 8];
        // SAFETY: `dst` is eight writable dwords; the store is unaligned.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), quad) };
    }
}

/// One output channel's share of a VNNI tile.
#[cfg(target_arch = "x86_64")]
struct VnniChannel<'a> {
    planes: &'a [u16],
    weights: &'a [i32],
    seed: i32,
    bias: f32,
    relu: bool,
}

/// Runs one output channel over a packed tile of `A` accumulators:
/// seed, one `vpdpbusd` per accumulator per dword tap, then
/// [`requantize`] at `scale[a]` into `out[at + dst[a]..][..8]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avxvnni")]
#[inline]
fn vnni_channel<const A: usize>(
    ch: &VnniChannel<'_>,
    packed: &[u32],
    scale: &[f32; VNNI_ACCS],
    dst: &[usize; VNNI_ACCS],
    at: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_set1_epi32(ch.seed); A];
    for (&plane, &w) in ch.planes.iter().zip(ch.weights) {
        let src = &packed[usize::from(plane) * VNNI_TILE..][..A * 8];
        let w = _mm256_set1_epi32(w);
        for (a, acc) in acc.iter_mut().enumerate() {
            let x = &src[a * 8..a * 8 + 8];
            // SAFETY: `x` is eight readable dwords; the load is unaligned.
            let x = unsafe { _mm256_loadu_si256(x.as_ptr().cast()) };
            *acc = _mm256_dpbusd_avx_epi32(*acc, x, w);
        }
    }
    for (a, &acc) in acc.iter().enumerate() {
        let mut sums = [0i32; 8];
        // SAFETY: `sums` is eight writable i32s; the store is unaligned.
        unsafe { _mm256_storeu_si256(sums.as_mut_ptr().cast(), acc) };
        let o = &mut out[at + dst[a]..at + dst[a] + 8];
        for (o, &s) in o.iter_mut().zip(&sums) {
            *o = requantize(s, scale[a], ch.bias, ch.relu);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_plane_centers_data() {
        let plane: Vec<f32> = (1..=6).map(|v| v as f32).collect(); // 2×3
        let mut buf = Vec::new();
        pad_plane(&plane, 2, 3, 1, &mut buf);
        let (ph, pw) = padded_dims(2, 3, 1);
        assert_eq!((ph, pw), (4, 5));
        assert_eq!(buf.len(), 20);
        // Row 1: 0 1 2 3 0; row 2: 0 4 5 6 0; borders zero.
        assert_eq!(&buf[5..10], &[0.0, 1.0, 2.0, 3.0, 0.0]);
        assert_eq!(&buf[10..15], &[0.0, 4.0, 5.0, 6.0, 0.0]);
        assert!(buf[0..5].iter().all(|&v| v == 0.0));
        assert!(buf[15..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pad_plane_zero_pad_is_copy() {
        let plane = vec![1.0, 2.0, 3.0, 4.0];
        let mut buf = vec![9.0; 100];
        pad_plane(&plane, 2, 2, 0, &mut buf);
        assert_eq!(buf, plane);
    }

    #[test]
    fn accumulate_rows_matches_naive() {
        // 4×5 padded plane, 2 taps, stride 1.
        let padded: Vec<f32> = (0..20).map(|v| v as f32).collect();
        let offsets = [0usize, 6];
        let weights = [2.0f32, -1.0];
        let mut out = vec![0.5f32; 3];
        accumulate_rows::<2>(&mut out, &padded, 5, &offsets, &weights, 1);
        for (ox, &o) in out.iter().enumerate() {
            let want = 0.5 + 2.0 * padded[5 + ox] - padded[11 + ox];
            assert!((o - want).abs() < 1e-6, "ox {ox}: {o} vs {want}");
        }
    }

    #[test]
    fn accumulate_rows_strided() {
        let padded: Vec<f32> = (0..30).map(|v| v as f32).collect();
        let offsets = [1usize];
        let weights = [3.0f32];
        let mut out = vec![0.0f32; 4];
        accumulate_rows::<1>(&mut out, &padded, 0, &offsets, &weights, 2);
        for (ox, &o) in out.iter().enumerate() {
            assert_eq!(o, 3.0 * padded[1 + 2 * ox]);
        }
    }

    #[test]
    fn pad_quant_plane_quantises_and_borders_zero() {
        let plane = vec![0.0f32, 1.0, -1.0, 0.5, 0.26, -0.26];
        let mut buf = vec![7i8; 4 * 5]; // 2×3 plane, pad 1, stale contents
        pad_quant_plane_overwrite(&plane, 2, 3, 1, 1.0 / 127.0, 127, &mut buf);
        // Row 1 interior: 0, 127 (clamped from 127), -127; row 2: 64
        // (0.5·127 = 63.5 rounds to 64), 33, -33.
        assert_eq!(&buf[6..9], &[0, 127, -127]);
        assert_eq!(&buf[11..14], &[64, 33, -33]);
        assert!(buf[0..5].iter().all(|&q| q == 0));
        assert!(buf[15..].iter().all(|&q| q == 0));
        assert_eq!(buf[5], 0);
        assert_eq!(buf[9], 0);
    }

    #[test]
    fn accumulate_rows_i8_matches_naive() {
        let padded: Vec<i8> = (0i32..20).map(|v| (v - 10) as i8).collect();
        let offsets = [0usize, 6];
        let weights = [2i32, -3];
        let mut out = vec![5i32; 3];
        accumulate_rows_i8::<2>(&mut out, &padded, 5, &offsets, &weights, 1);
        for (ox, &o) in out.iter().enumerate() {
            let want = 5 + 2 * padded[5 + ox] as i32 - 3 * padded[11 + ox] as i32;
            assert_eq!(o, want, "ox {ox}");
        }
    }

    #[test]
    fn i8_dyn_dispatch_equals_naive_all_tap_counts() {
        let padded: Vec<i8> = (0..64).map(|v| ((v * 7) % 251 - 125) as i8).collect();
        for n in 0..=9usize {
            let offsets: Vec<usize> = (0..n).map(|j| j * 5).collect();
            let weights: Vec<i8> = (0..n).map(|j| (j as i32 * 13 - 40) as i8).collect();
            for stride in [1usize, 2] {
                let mut got = vec![0i32; 2 * 4]; // 2 rows of 4
                accumulate_plane_dyn_i8(
                    &mut got,
                    &padded,
                    4,
                    8 * stride,
                    &offsets,
                    &weights,
                    stride,
                );
                let mut want = vec![0i32; 2 * 4];
                for oy in 0..2 {
                    for ox in 0..4 {
                        for j in 0..n {
                            want[oy * 4 + ox] += weights[j] as i32
                                * padded[oy * 8 * stride + offsets[j] + ox * stride] as i32;
                        }
                    }
                }
                assert_eq!(got, want, "n={n} stride={stride}");
            }
        }
    }

    #[test]
    fn i8_batch_dispatch_matches_per_image_planes() {
        // 3 images, padded planes of 6×6, output 4×4 (tiny-rows path)
        // and 4×3 (slice path) — both must equal per-image dispatch.
        let plane_len = 36usize;
        let padded: Vec<i8> = (0..3 * plane_len as i32)
            .map(|v| ((v * 11) % 199 - 99) as i8)
            .collect();
        let offsets = vec![0usize, 7, 14];
        let weights = vec![3i8, -5, 9];
        for ow in [4usize, 3] {
            let oh = 4usize;
            let geo = BatchPlanes {
                out_base: 0,
                out_stride: oh * ow,
                in_base: 0,
                in_stride: plane_len,
                plane_len,
                n: 3,
            };
            let mut got = vec![0i32; 3 * oh * ow];
            accumulate_plane_batch_dyn_i8(&mut got, &padded, geo, oh, ow, 6, &offsets, &weights, 1);
            let mut want = vec![0i32; 3 * oh * ow];
            for i in 0..3 {
                accumulate_plane_dyn_i8(
                    &mut want[i * oh * ow..(i + 1) * oh * ow],
                    &padded[i * plane_len..(i + 1) * plane_len],
                    ow,
                    6,
                    &offsets,
                    &weights,
                    1,
                );
            }
            assert_eq!(got, want, "ow={ow}");
        }
    }

    #[test]
    fn dyn_dispatch_equals_monomorphic() {
        let padded: Vec<f32> = (0..64).map(|v| (v as f32).sin()).collect();
        for n in 0..=9usize {
            let offsets: Vec<usize> = (0..n).map(|j| j * 5).collect();
            let weights: Vec<f32> = (0..n).map(|j| j as f32 - 1.5).collect();
            let mut a = vec![0.0f32; 8];
            let mut b = vec![0.0f32; 8];
            accumulate_rows_dyn(&mut a, &padded, 2, &offsets, &weights, 1);
            for (ox, o) in b.iter_mut().enumerate() {
                for j in 0..n {
                    *o += weights[j] * padded[2 + offsets[j] + ox];
                }
            }
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn i8_tile_walk_is_exact_at_the_code_extremes() {
        // Every code is ±127, the largest a symmetric quantiser emits:
        // a pair of products is then 2 · 127², the most the i16 pair sum
        // must hold, and the VNNI walk's shifted codes span 1..=255. Two
        // output channels over three input channels, kernel (oc 1, ic 0)
        // skipped; heights make the last tile slide.
        let images = 2usize;
        let act_scales = [1.0f32, 2.0];
        let weight_scale = 0.25f32;
        let bias = [-1.5f32, 40_000.0];
        let codes = [0u16, 1, 2, 1, 0, 2];
        let skip = [false, false, false, true, false, false];
        for (oh, ow, n) in [(6usize, 4usize, 9usize), (9, 8, 4), (5, 16, 5), (3, 32, 2)] {
            let pw = ow + 2;
            let plane_len = (oh + 2) * pw;
            // Image i's activations are ±127 of its own scale.
            let input: Vec<f32> = (0..images * 3 * oh * ow)
                .map(|i| {
                    let code = if i % 5 == 0 { -127.0 } else { 127.0 };
                    code * act_scales[i / (3 * oh * ow)]
                })
                .collect();
            let mut padded = vec![0i8; images * 3 * plane_len];
            for (pi, (plane, buf)) in input
                .chunks_exact(oh * ow)
                .zip(padded.chunks_exact_mut(plane_len))
                .enumerate()
            {
                pad_quant_plane_overwrite(plane, oh, ow, 1, act_scales[pi / 3], 127, buf);
            }
            assert!(padded.iter().all(|&q| q == 0 || q.abs() == 127));
            let weights: Vec<i8> = (0..6 * n)
                .map(|i| if i % 7 == 3 { -127 } else { 127 })
                .collect();
            // Code c keeps kernel positions c, c+2, c+4, … of the 3×3 grid.
            let positions: Vec<u8> = (0..3)
                .flat_map(|c| (0..n).map(move |j| ((c + 2 * j) % 9) as u8))
                .collect();
            let offsets: Vec<usize> = positions
                .iter()
                .map(|&p| usize::from(p / 3) * pw + usize::from(p % 3))
                .collect();
            let kernels = SpmKernels {
                codes: &codes,
                weights: &weights,
                skip: &skip,
                offsets: &offsets,
                taps: n,
                in_c: 3,
            };
            for relu in [false, true] {
                let e = Requant {
                    act_scales: &act_scales,
                    q_max: 127,
                    weight_scale,
                    bias: Some(&bias),
                    relu,
                };
                let mut got = vec![f32::NAN; images * 2 * oh * ow];
                let mut scratch = Vec::new();
                band_walk_at(
                    simd::active(),
                    &kernels,
                    e,
                    &input,
                    &mut got,
                    oh,
                    ow,
                    &mut scratch,
                    false,
                );
                let vnni = vnni_walk_or_notice(&kernels, &positions, e, &input, oh, ow);
                let mut want = vec![f32::NAN; got.len()];
                for oc in 0..2 {
                    let geo = BatchPlanes {
                        out_base: 0,
                        out_stride: oh * ow,
                        in_base: 0,
                        in_stride: 3 * plane_len,
                        plane_len,
                        n: images,
                    };
                    let mut acc = vec![0i32; images * oh * ow];
                    for ic in 0..3 {
                        let ki = oc * 3 + ic;
                        if skip[ki] {
                            continue;
                        }
                        let code = codes[ki] as usize;
                        accumulate_plane_batch_dyn_i8(
                            &mut acc,
                            &padded,
                            BatchPlanes {
                                in_base: ic * plane_len,
                                ..geo
                            },
                            oh,
                            ow,
                            pw,
                            &offsets[code * n..(code + 1) * n],
                            &weights[ki * n..(ki + 1) * n],
                            1,
                        );
                    }
                    for (i, &act) in act_scales.iter().enumerate() {
                        for p in 0..oh * ow {
                            want[(i * 2 + oc) * oh * ow + p] = requantize(
                                acc[i * oh * ow + p],
                                weight_scale * act,
                                bias[oc],
                                relu,
                            );
                        }
                    }
                }
                assert_eq!(got, want, "oh={oh} ow={ow} n={n} relu={relu}");
                if let Some(vnni) = vnni {
                    assert_eq!(vnni, want, "VNNI: oh={oh} ow={ow} n={n} relu={relu}");
                }
            }
        }
    }

    /// [`band_walk_vnni`] over `kernels`, or `None` with a printed
    /// notice on a CPU without AVX-VNNI — skipped, never passed silently.
    fn vnni_walk_or_notice(
        kernels: &SpmKernels<'_, i8>,
        positions: &[u8],
        e: Requant<'_>,
        input: &[f32],
        oh: usize,
        ow: usize,
    ) -> Option<Vec<f32>> {
        if !has_vnni(SimdLevel::Avx2) {
            eprintln!("SKIPPED: this CPU has no AVX-VNNI; the VNNI walk is not checked");
            return None;
        }
        let out_c = kernels.codes.len() / kernels.in_c;
        let n = input.len() / (kernels.in_c * oh * ow);
        let mut got = vec![f32::NAN; n * out_c * oh * ow];
        let taps = DwordTaps::new(kernels, positions);
        let (mut band, mut packed) = (Vec::new(), Vec::new());
        let pass = band_walk_vnni(
            &taps,
            e,
            input,
            &mut got,
            oh,
            ow,
            &mut band,
            &mut packed,
            false,
        );
        assert!(pass.padded > 0 || n == 0);
        Some(got)
    }

    /// A random int8 layer: `out_c × in_c` kernels of `n` taps over
    /// three pattern codes, each `n` distinct positions of the 3×3
    /// window, with the given kernels skipped (their weights zero).
    struct I8Layer {
        codes: Vec<u16>,
        weights: Vec<i8>,
        skip: Vec<bool>,
        positions: Vec<u8>,
        n: usize,
        in_c: usize,
    }

    impl I8Layer {
        fn random(out_c: usize, in_c: usize, n: usize, rng: &mut impl rand::Rng) -> Self {
            let positions: Vec<u8> = (0..3)
                .flat_map(|_| {
                    let mut all: Vec<u8> = (0..9).collect();
                    for i in 0..n {
                        let j = rng.gen_range(i..9);
                        all.swap(i, j);
                    }
                    all.truncate(n);
                    all
                })
                .collect();
            let kernels = out_c * in_c;
            let codes = (0..kernels).map(|_| rng.gen_range(0u16..3)).collect();
            let skip: Vec<bool> = (0..kernels).map(|ki| ki % 5 == 3).collect();
            let weights = (0..kernels * n)
                .map(|i| {
                    if skip[i / n] {
                        0
                    } else {
                        rng.gen_range(-127i32..=127) as i8
                    }
                })
                .collect();
            I8Layer {
                codes,
                weights,
                skip,
                positions,
                n,
                in_c,
            }
        }

        fn offsets(&self, pw: usize) -> Vec<usize> {
            self.positions
                .iter()
                .map(|&p| usize::from(p / 3) * pw + usize::from(p % 3))
                .collect()
        }

        fn kernels<'a>(&'a self, offsets: &'a [usize]) -> SpmKernels<'a, i8> {
            SpmKernels {
                codes: &self.codes,
                weights: &self.weights,
                skip: &self.skip,
                offsets,
                taps: self.n,
                in_c: self.in_c,
            }
        }
    }

    /// Per-image symmetric activation scales at `q_max`: `max|x| / q_max`,
    /// or 1.0 for an all-zero image.
    fn act_scales(input: &[f32], images: usize, q_max: i32) -> Vec<f32> {
        input
            .chunks_exact(input.len() / images)
            .map(|img| match max_abs(img) {
                0.0 => 1.0,
                m => m / q_max as f32,
            })
            .collect()
    }

    /// Runs the scalar tile, the AVX2 tile and (where the CPU has it)
    /// the VNNI walk over one layer and asserts all three bit-equal.
    #[allow(clippy::too_many_arguments)]
    fn assert_three_walks_agree(
        layer: &I8Layer,
        input: &[f32],
        images: usize,
        oh: usize,
        ow: usize,
        act_bits: u32,
        bias: Option<&[f32]>,
        relu: bool,
    ) {
        let offsets = layer.offsets(ow + 2);
        let kernels = layer.kernels(&offsets);
        let q_max = (1 << (act_bits - 1)) - 1;
        let scales = act_scales(input, images, q_max);
        let e = Requant {
            act_scales: &scales,
            q_max,
            weight_scale: 0.0123,
            bias,
            relu,
        };
        let out_c = layer.codes.len() / layer.in_c;
        let walk = |level| {
            let mut got = vec![f32::NAN; images * out_c * oh * ow];
            band_walk_at(
                level,
                &kernels,
                e,
                input,
                &mut got,
                oh,
                ow,
                &mut Vec::new(),
                false,
            );
            got
        };
        let scalar = walk(SimdLevel::Scalar);
        let what = format!(
            "n={} {oh}x{ow} images={images} bits={act_bits} bias={} relu={relu}",
            layer.n,
            bias.is_some()
        );
        assert!(scalar.iter().all(|v| v.is_finite()), "{what}");
        assert_eq!(walk(SimdLevel::Avx2), scalar, "AVX2 tile: {what}");
        if let Some(vnni) = vnni_walk_or_notice(&kernels, &layer.positions, e, input, oh, ow) {
            assert_eq!(vnni, scalar, "VNNI walk: {what}");
        }
    }

    #[test]
    fn vnni_walk_equals_both_tiles_for_every_tap_count_and_width() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x7a9_0001);
        let geometries = [(4usize, 4usize), (6, 4), (8, 8), (9, 8), (5, 16), (3, 32)];
        for n in 1..=9 {
            for (gi, &(oh, ow)) in geometries.iter().enumerate() {
                // One, three and five images: width-4 tiles span four
                // images, so these leave a partial tile of 1, 3 and 1.
                let images = [1usize, 3, 5][(n + gi) % 3];
                let (out_c, in_c) = (3, 4);
                let layer = I8Layer::random(out_c, in_c, n, &mut rng);
                // Signed input as a first layer sees; ReLU'd otherwise.
                let signed = (n + gi) % 2 == 0;
                let input: Vec<f32> = (0..images * in_c * oh * ow)
                    .map(|_| {
                        let v = rng.gen_range(-1.0f32..1.0);
                        if signed {
                            v
                        } else {
                            v.abs()
                        }
                    })
                    .collect();
                let bias: Vec<f32> = (0..out_c).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
                for act_bits in [2, 8] {
                    for (with_bias, relu) in [(true, true), (false, false)] {
                        let bias = with_bias.then_some(&bias[..]);
                        assert_three_walks_agree(
                            &layer, &input, images, oh, ow, act_bits, bias, relu,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vnni_walk_is_exact_on_an_all_zero_image_and_at_plus_minus_q_max() {
        use rand::SeedableRng;
        // Image 0 is all zeros (scale 1.0, every code 0); image 1 holds
        // only ±q_max codes; every weight is ±127.
        let (oh, ow, in_c, out_c, images) = (8usize, 8usize, 5usize, 4usize, 2usize);
        let plane = in_c * oh * ow;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x7a9_0002);
        for act_bits in [2u32, 8] {
            for n in [1usize, 4, 9] {
                let mut layer = I8Layer::random(out_c, in_c, n, &mut rng);
                for (i, w) in layer.weights.iter_mut().enumerate() {
                    if *w != 0 {
                        *w = if i % 3 == 0 { -127 } else { 127 };
                    }
                }
                let input: Vec<f32> = (0..images * plane)
                    .map(|i| match (i / plane, i % 7) {
                        (0, _) => 0.0,
                        (_, 0) => -3.0,
                        _ => 3.0,
                    })
                    .collect();
                assert_three_walks_agree(&layer, &input, images, oh, ow, act_bits, None, false);
            }
        }
    }

    #[test]
    fn vnni_is_never_taken_at_the_scalar_tier() {
        // `PCNN_FORCE_SCALAR=1` pins `SimdLevel::Scalar`.
        assert!(!has_vnni(SimdLevel::Scalar));
        #[cfg(target_arch = "x86_64")]
        let cpu = std::is_x86_feature_detected!("avxvnni");
        #[cfg(not(target_arch = "x86_64"))]
        let cpu = false;
        assert_eq!(
            has_vnni(SimdLevel::Avx2),
            cpu && SimdLevel::Avx2.effective() == SimdLevel::Avx2
        );
    }

    #[test]
    fn dword_taps_pack_each_group_once_and_seed_minus_128_sum() {
        // One output channel, two input channels: kernel 0 has taps 0, 4
        // and 8 (groups g0, g1, g2), kernel 1 taps 1 and 2 (g0 only).
        let positions = [0u8, 4, 8, 1, 2, 0];
        let kernels = SpmKernels {
            codes: &[0, 1],
            weights: &[5, -6, 7, -1, 2, 0],
            skip: &[false, false],
            offsets: &[],
            taps: 3,
            in_c: 2,
        };
        let d = DwordTaps::new(&kernels, &positions);
        assert_eq!(d.starts, [0, 4]);
        assert_eq!(d.planes, [0, 1, 2, 3]);
        let byte = |w: i8, k: u32| i32::from(w as u8) << (8 * k);
        // Kernel 1's third tap (position 0, weight 0) adds nothing.
        assert_eq!(
            d.weights,
            [
                byte(5, 0),
                byte(-6, 0),
                byte(7, 0),
                byte(-1, 1) | byte(2, 2)
            ]
        );
        assert_eq!(d.seeds, [-128 * (5 - 6 + 7 - 1 + 2)]);
    }

    #[test]
    fn band_rows_hold_the_budget_and_never_drop_below_one_tile() {
        // f32, 64 channels × 16 wide: 64 · 18 · 4 B = 4.5 KiB per row —
        // one 4-row tile (6 rows, 27 KiB).
        assert_eq!(band_rows(64 * 18 * 4, 4, 16), 4);
        // The same layer in int8 holds the whole plane (18 rows, 20 KiB).
        assert_eq!(band_rows(64 * 18, 4, 16), 16);
        // 32 channels: 14 rows fit, three tiles do.
        assert_eq!(band_rows(32 * 18 * 4, 4, 16), 12);
        // 96 channels × 8 wide, f32: one 8-row tile is already 37.5 KiB.
        assert_eq!(band_rows(96 * 10 * 4, 8, 8), 8);
        for (row_bytes, tile, oh) in [(4608usize, 4usize, 16usize), (2304, 4, 11), (72, 2, 9)] {
            let rows = band_rows(row_bytes, tile, oh);
            assert!(rows == oh || rows.is_multiple_of(tile));
            assert!(rows == tile || (rows + 2) * row_bytes <= BAND_BYTES);
        }
    }

    #[test]
    fn pad_rows_of_a_band_are_rows_of_the_whole_padded_plane() {
        let (h, w) = (5usize, 4usize);
        let plane: Vec<f32> = (0..h * w).map(|v| v as f32 - 7.5).collect();
        let (ph, pw) = padded_dims(h, w, 1);
        let mut whole = vec![9.0f32; ph * pw];
        pad_plane_overwrite(&plane, h, w, 1, &mut whole);
        let mut whole_q = vec![9i8; ph * pw];
        pad_quant_plane_overwrite(&plane, h, w, 1, 0.1, 127, &mut whole_q);
        for first in 0..ph {
            for rows in 1..=ph - first {
                let mut band = vec![3.0f32; rows * pw];
                pad_band_rows(&plane, h, w, first, &mut band);
                assert_eq!(band, &whole[first * pw..(first + rows) * pw]);
                let mut band_q = vec![3i8; rows * pw];
                pad_quant_rows(ScalarToken, &plane, h, w, 1, first, 0.1, 127, &mut band_q);
                assert_eq!(band_q, &whole_q[first * pw..(first + rows) * pw]);
            }
        }
    }
}
