//! Portable SIMD substrate for the pattern kernels.
//!
//! The compiled pattern kernels in [`crate::direct`] are written **once**
//! against the lane types and token trait of this module, and compiled
//! **twice**: a scalar instantiation (plain per-lane loops) and an AVX2
//! instantiation whose token methods lower to `std::arch` intrinsics
//! inside a `#[target_feature(enable = "avx2,fma")]` entry point. Which
//! copy runs is decided once per process by [`active`]:
//!
//! * `PCNN_FORCE_SCALAR=1` in the environment pins the scalar fallback
//!   (the testing escape hatch — the property suites diff the two
//!   instantiations against each other);
//! * otherwise the AVX2 tier runs on hosts that report both `avx2` and
//!   `fma`, the scalar tier everywhere else (non-x86_64 builds compile
//!   the scalar token only).
//!
//! Both instantiations share one kernel source and every token op is
//! **lane-wise with identical per-element semantics**. The one f32
//! multiply-accumulate, [`SimdToken::f32x8_fma`], is a fused
//! multiply-add on both tiers — `vfmadd` on AVX2, [`f32::mul_add`] per
//! lane on scalar — and a fused multiply-add is correctly rounded, so
//! the f32 paths agree *bit for bit*. The integer paths are exact by
//! associativity. That is what lets the proptests assert `SIMD ==
//! scalar` exactly rather than within a tolerance.
//!
//! ## Lane types
//!
//! | type | lanes | role |
//! |------|-------|------|
//! | [`F32x8`] | 8 × f32 | f32 pattern-kernel accumulators |
//! | [`I16x16`] | 16 × i16 | widened i8 activations / weight products |
//! | [`I32x8`] | 8 × i32 | int8-path accumulators (two per `I16x16`) |
//!
//! All three are `#[repr(transparent)]` wrappers over plain arrays, so
//! the AVX2 token can reinterpret them as `__m256`/`__m256i` for free
//! while the scalar token indexes them directly.

use std::sync::OnceLock;

/// The instruction tier the pattern kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Per-lane loops, no ISA assumptions — the portable fallback.
    Scalar,
    /// 256-bit AVX2 kernels with FMA through `std::arch` intrinsics.
    Avx2,
}

impl SimdLevel {
    /// Short label for bench output and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// The level this host can actually execute: downgrades
    /// [`SimdLevel::Avx2`] to scalar when the CPU lacks AVX2 or FMA (or
    /// off x86-64). Every dispatch site goes through this, so requesting a
    /// tier the host cannot run is **safe** — it falls back rather than
    /// reaching `#[target_feature]` code the CPU cannot execute. The
    /// check is a cached-CPUID flag test, noise next to a kernel
    /// dispatch.
    #[inline]
    pub fn effective(self) -> SimdLevel {
        match self {
            SimdLevel::Scalar => SimdLevel::Scalar,
            SimdLevel::Avx2 if avx2_fma_detected() => SimdLevel::Avx2,
            SimdLevel::Avx2 => SimdLevel::Scalar,
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether this CPU has everything the AVX2 tier executes: AVX2 and
/// FMA. A cached-CPUID flag test after the first call.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_fma_detected() -> bool {
    std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
}

/// Off x86-64 only the scalar tier exists.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn avx2_fma_detected() -> bool {
    false
}

/// Uncached detection: `PCNN_FORCE_SCALAR=1` wins, then CPUID.
///
/// Exposed separately from [`active`] so tests can assert the detection
/// logic without being pinned by the process-wide cache.
pub fn detect() -> SimdLevel {
    detect_with(std::env::var_os("PCNN_FORCE_SCALAR").is_some_and(|v| v == "1"))
}

/// The pure core of [`detect`], with the escape-hatch flag supplied by
/// the caller — testable without mutating the process environment
/// (`env::set_var` races `env::var_os` on other test threads).
pub fn detect_with(force_scalar: bool) -> SimdLevel {
    if !force_scalar && avx2_fma_detected() {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

/// The process-wide dispatch decision, computed once on first use.
pub fn active() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

/// Eight f32 lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct F32x8(pub [f32; 8]);

/// Sixteen i16 lanes (widened i8 activations; i8×i8 products fit — the
/// extreme |−128 · −128| = 16384 < 32767).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct I16x16(pub [i16; 16]);

/// Eight i32 lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct I32x8(pub [i32; 8]);

impl I32x8 {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        I32x8([0; 8])
    }
}

/// The backend contract the pattern kernels are generic over.
///
/// Every method is lane-wise and total: the scalar and AVX2
/// implementations produce identical results per lane (the one f32
/// multiply-accumulate is fused on both, so even rounding agrees).
/// Slice arguments must be at least as long as the lanes consumed; the
/// `*_partial` ops take an explicit `len < 8` and treat the missing
/// lanes as zero (load) or leave them untouched (store) — the masked
/// tails of odd plane widths.
///
/// Tokens are zero-sized proof objects: [`Avx2Token`] can only be
/// obtained inside the `#[target_feature(enable = "avx2,fma")]`
/// dispatch wrappers of [`crate::direct`] and [`crate::pool`], which is
/// what makes its intrinsic calls sound.
pub trait SimdToken: Copy {
    /// Loads 8 f32 lanes from the front of `s`.
    fn f32x8_load(self, s: &[f32]) -> F32x8;
    /// Loads `len < 8` lanes from the front of `s`, upper lanes zero.
    fn f32x8_load_partial(self, s: &[f32], len: usize) -> F32x8;
    /// Loads lanes 0..4 from `a` and lanes 4..8 from `b` — the two-row
    /// tile load for 4-wide planes.
    fn f32x8_load_2x4(self, a: &[f32], b: &[f32]) -> F32x8;
    /// Stores all 8 lanes to the front of `s`.
    fn f32x8_store(self, v: F32x8, s: &mut [f32]);
    /// Stores lanes `0..len` (`len < 8`) to the front of `s`.
    fn f32x8_store_partial(self, v: F32x8, s: &mut [f32], len: usize);
    /// Broadcasts `x` to all lanes.
    fn f32x8_splat(self, x: f32) -> F32x8;
    /// Lane-wise `w · x + acc` as one **fused** multiply-add: the exact
    /// value, rounded once. Correct rounding leaves no latitude, so
    /// scalar ([`f32::mul_add`]) and AVX2 (`vfmadd`) agree bit for bit.
    fn f32x8_fma(self, acc: F32x8, w: F32x8, x: F32x8) -> F32x8;
    /// Lane-wise ReLU with the executor's exact legacy semantics:
    /// `if v < 0 { +0.0 } else { v }` — strictly negative lanes become
    /// `+0.0`, and `-0.0` (which is not `< 0`) passes through, so every
    /// tier and every walk order agrees bitwise.
    fn f32x8_relu(self, v: F32x8) -> F32x8;
    /// Lane-wise `if new > best { new } else { best }` — one step of a
    /// running-maximum scan: a NaN in `new` never wins and equal values
    /// (signed zeros included) keep `best`.
    fn f32x8_max_keep(self, new: F32x8, best: F32x8) -> F32x8;
    /// Splits the 16 consecutive lanes `a ‖ b` into their even-indexed
    /// and odd-indexed halves — the column pairs of a 2-wide pooling
    /// window.
    fn f32x8_deinterleave(self, a: F32x8, b: F32x8) -> (F32x8, F32x8);
    /// Quantises 8 lanes to i8 codes at the front of `dst`, lane-wise
    /// `clamp(round(v · inv), ±q_max) as i8`: one multiply, round half
    /// away from zero, NaN to the zero code — `pcnn_core::quant`'s
    /// formula. `q_max` lanes must not exceed 127.
    fn f32x8_quantize_store(self, v: F32x8, inv: F32x8, q_max: F32x8, dst: &mut [i8]);

    /// Widens 16 i8 lanes from the front of `s` to i16.
    fn i16x16_widen(self, s: &[i8]) -> I16x16;
    /// Widens four 4-byte row segments (the 4×4-plane tile load).
    fn i16x16_widen_4x4(self, r0: &[i8], r1: &[i8], r2: &[i8], r3: &[i8]) -> I16x16;
    /// The packed 4×4 tile load: lanes `0..12` gather `s[idx[k]]` from
    /// the first 16 bytes of `s` (a byte shuffle — callers guarantee
    /// `idx[k] < 16` there), lanes `12..16` widen the 4 leading bytes
    /// of `r3`. Replaces the four-load gather of
    /// [`SimdToken::i16x16_widen_4x4`] when rows 0..3 of a tile sit
    /// inside one 16-byte window (`row_stride ≤ 6`), breaking its
    /// serial insert chain.
    fn i16x16_widen_4x4_packed(self, s: &[i8], idx: &[u8; 16], r3: &[i8]) -> I16x16;
    /// Widens two 8-byte row segments (the 8-wide two-row tile load).
    fn i16x16_widen_2x8(self, r0: &[i8], r1: &[i8]) -> I16x16;
    /// Broadcasts `x` to all 16 lanes.
    fn i16x16_splat(self, x: i16) -> I16x16;
    /// Lane-wise i16 product (callers guarantee no overflow: i8-range
    /// operands only).
    fn i16x16_mul(self, a: I16x16, b: I16x16) -> I16x16;
    /// Lane-wise wrapping i16 sum (callers guarantee no overflow: two
    /// products of ±127 codes fit, 2 · 127² < 2¹⁵).
    fn i16x16_add(self, a: I16x16, b: I16x16) -> I16x16;

    /// Loads 8 i32 lanes from the front of `s`.
    fn i32x8_load(self, s: &[i32]) -> I32x8;
    /// Stores all 8 lanes to the front of `s`.
    fn i32x8_store(self, v: I32x8, s: &mut [i32]);
    /// Widens lanes 0..8 of `p` to i32 and adds them to `acc`.
    fn i32x8_add_widen_lo(self, acc: I32x8, p: I16x16) -> I32x8;
    /// Widens lanes 8..16 of `p` to i32 and adds them to `acc`.
    fn i32x8_add_widen_hi(self, acc: I32x8, p: I16x16) -> I32x8;
}

/// The portable fallback token: every op is a per-lane loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarToken;

impl SimdToken for ScalarToken {
    #[inline(always)]
    fn f32x8_load(self, s: &[f32]) -> F32x8 {
        let mut v = [0.0f32; 8];
        v.copy_from_slice(&s[..8]);
        F32x8(v)
    }

    #[inline(always)]
    fn f32x8_load_partial(self, s: &[f32], len: usize) -> F32x8 {
        debug_assert!(len < 8);
        let mut v = [0.0f32; 8];
        v[..len].copy_from_slice(&s[..len]);
        F32x8(v)
    }

    #[inline(always)]
    fn f32x8_load_2x4(self, a: &[f32], b: &[f32]) -> F32x8 {
        let mut v = [0.0f32; 8];
        v[..4].copy_from_slice(&a[..4]);
        v[4..].copy_from_slice(&b[..4]);
        F32x8(v)
    }

    #[inline(always)]
    fn f32x8_store(self, v: F32x8, s: &mut [f32]) {
        s[..8].copy_from_slice(&v.0);
    }

    #[inline(always)]
    fn f32x8_store_partial(self, v: F32x8, s: &mut [f32], len: usize) {
        debug_assert!(len < 8);
        s[..len].copy_from_slice(&v.0[..len]);
    }

    #[inline(always)]
    fn f32x8_splat(self, x: f32) -> F32x8 {
        F32x8([x; 8])
    }

    #[inline(always)]
    fn f32x8_fma(self, acc: F32x8, w: F32x8, x: F32x8) -> F32x8 {
        // A plain loop, not a closure: `mul_add` is one instruction only
        // where it inlines into an `fma`-enabled caller, and a libm call
        // anywhere else.
        let mut v = acc.0;
        for ((lane, &w), &x) in v.iter_mut().zip(&w.0).zip(&x.0) {
            *lane = w.mul_add(x, *lane);
        }
        F32x8(v)
    }

    #[inline(always)]
    fn f32x8_relu(self, v: F32x8) -> F32x8 {
        F32x8(std::array::from_fn(
            |k| if v.0[k] < 0.0 { 0.0 } else { v.0[k] },
        ))
    }

    #[inline(always)]
    fn f32x8_max_keep(self, new: F32x8, best: F32x8) -> F32x8 {
        F32x8(std::array::from_fn(|k| {
            if new.0[k] > best.0[k] {
                new.0[k]
            } else {
                best.0[k]
            }
        }))
    }

    #[inline(always)]
    fn f32x8_deinterleave(self, a: F32x8, b: F32x8) -> (F32x8, F32x8) {
        let lane = |i: usize| if i < 8 { a.0[i] } else { b.0[i - 8] };
        (
            F32x8(std::array::from_fn(|k| lane(2 * k))),
            F32x8(std::array::from_fn(|k| lane(2 * k + 1))),
        )
    }

    #[inline(always)]
    fn f32x8_quantize_store(self, v: F32x8, inv: F32x8, q_max: F32x8, dst: &mut [i8]) {
        for (k, q) in dst[..8].iter_mut().enumerate() {
            *q = (v.0[k] * inv.0[k]).round().clamp(-q_max.0[k], q_max.0[k]) as i8;
        }
    }

    #[inline(always)]
    fn i16x16_widen(self, s: &[i8]) -> I16x16 {
        I16x16(std::array::from_fn(|k| s[k] as i16))
    }

    #[inline(always)]
    fn i16x16_widen_4x4(self, r0: &[i8], r1: &[i8], r2: &[i8], r3: &[i8]) -> I16x16 {
        let rows = [r0, r1, r2, r3];
        I16x16(std::array::from_fn(|k| rows[k / 4][k % 4] as i16))
    }

    #[inline(always)]
    fn i16x16_widen_4x4_packed(self, s: &[i8], idx: &[u8; 16], r3: &[i8]) -> I16x16 {
        I16x16(std::array::from_fn(|k| {
            if k < 12 {
                s[idx[k] as usize] as i16
            } else {
                r3[k - 12] as i16
            }
        }))
    }

    #[inline(always)]
    fn i16x16_widen_2x8(self, r0: &[i8], r1: &[i8]) -> I16x16 {
        let rows = [r0, r1];
        I16x16(std::array::from_fn(|k| rows[k / 8][k % 8] as i16))
    }

    #[inline(always)]
    fn i16x16_splat(self, x: i16) -> I16x16 {
        I16x16([x; 16])
    }

    #[inline(always)]
    fn i16x16_mul(self, a: I16x16, b: I16x16) -> I16x16 {
        I16x16(std::array::from_fn(|k| a.0[k].wrapping_mul(b.0[k])))
    }

    #[inline(always)]
    fn i16x16_add(self, a: I16x16, b: I16x16) -> I16x16 {
        I16x16(std::array::from_fn(|k| a.0[k].wrapping_add(b.0[k])))
    }

    #[inline(always)]
    fn i32x8_load(self, s: &[i32]) -> I32x8 {
        let mut v = [0i32; 8];
        v.copy_from_slice(&s[..8]);
        I32x8(v)
    }

    #[inline(always)]
    fn i32x8_store(self, v: I32x8, s: &mut [i32]) {
        s[..8].copy_from_slice(&v.0);
    }

    #[inline(always)]
    fn i32x8_add_widen_lo(self, acc: I32x8, p: I16x16) -> I32x8 {
        I32x8(std::array::from_fn(|k| acc.0[k] + p.0[k] as i32))
    }

    #[inline(always)]
    fn i32x8_add_widen_hi(self, acc: I32x8, p: I16x16) -> I32x8 {
        I32x8(std::array::from_fn(|k| acc.0[k] + p.0[k + 8] as i32))
    }
}

#[cfg(target_arch = "x86_64")]
pub use avx2::Avx2Token;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{F32x8, I16x16, I32x8, SimdToken};
    use std::arch::x86_64::*;
    use std::mem::transmute;

    /// The AVX2 token. Constructing one asserts AVX2 and FMA are
    /// available — only the `#[target_feature(enable = "avx2,fma")]`
    /// dispatch wrappers in [`crate::direct`] and [`crate::pool`] do so,
    /// after the runtime check in [`super::SimdLevel::effective`].
    #[derive(Debug, Clone, Copy)]
    pub struct Avx2Token(());

    impl Avx2Token {
        /// # Safety
        ///
        /// The caller must have verified AVX2 and FMA support (the
        /// methods of the returned token execute AVX2 and FMA
        /// instructions).
        #[inline(always)]
        pub unsafe fn assert_available() -> Self {
            Avx2Token(())
        }
    }

    /// Per-`len` lane masks for `_mm256_maskload_ps`/`_mm256_maskstore_ps`
    /// (lane enabled when the top bit of its i32 is set).
    static TAIL_MASKS: [[i32; 8]; 8] = {
        let mut m = [[0i32; 8]; 8];
        let mut len = 0;
        while len < 8 {
            let mut k = 0;
            while k < len {
                m[len][k] = -1;
                k += 1;
            }
            len += 1;
        }
        m
    };

    #[inline(always)]
    fn f(v: F32x8) -> __m256 {
        // SAFETY: `F32x8` is `#[repr(transparent)]` over `[f32; 8]`,
        // which is layout-identical to `__m256`.
        unsafe { transmute::<F32x8, __m256>(v) }
    }

    #[inline(always)]
    fn uf(v: __m256) -> F32x8 {
        // SAFETY: see `f`.
        unsafe { transmute::<__m256, F32x8>(v) }
    }

    #[inline(always)]
    fn i16v(v: I16x16) -> __m256i {
        // SAFETY: `I16x16` is `#[repr(transparent)]` over `[i16; 16]`.
        unsafe { transmute::<I16x16, __m256i>(v) }
    }

    #[inline(always)]
    fn i32v(v: I32x8) -> __m256i {
        // SAFETY: `I32x8` is `#[repr(transparent)]` over `[i32; 8]`.
        unsafe { transmute::<I32x8, __m256i>(v) }
    }

    #[inline(always)]
    fn ui32(v: __m256i) -> I32x8 {
        // SAFETY: see `i32v`.
        unsafe { transmute::<__m256i, I32x8>(v) }
    }

    // lint: allow(gated-intrinsics) — the token is the gate: an
    // `Avx2Token` only exists behind `assert_available()`, whose
    // callers (the `#[target_feature]` dispatch wrappers in
    // `crate::direct`) have already passed the runtime AVX2 + FMA check, so
    // every method on it executes with the feature proven. The methods
    // stay `#[inline(always)]` rather than `#[target_feature]` so they
    // fold into their gated callers without call overhead.
    impl SimdToken for Avx2Token {
        #[inline(always)]
        fn f32x8_load(self, s: &[f32]) -> F32x8 {
            assert!(s.len() >= 8);
            // SAFETY: 8 in-bounds f32 reads; token proves AVX.
            unsafe { uf(_mm256_loadu_ps(s.as_ptr())) }
        }

        #[inline(always)]
        fn f32x8_load_partial(self, s: &[f32], len: usize) -> F32x8 {
            assert!(len < 8 && s.len() >= len);
            // SAFETY: maskload touches only the first `len` lanes, all
            // in bounds; disabled lanes read as zero.
            unsafe {
                let mask = _mm256_loadu_si256(TAIL_MASKS[len].as_ptr() as *const __m256i);
                uf(_mm256_maskload_ps(s.as_ptr(), mask))
            }
        }

        #[inline(always)]
        fn f32x8_load_2x4(self, a: &[f32], b: &[f32]) -> F32x8 {
            assert!(a.len() >= 4 && b.len() >= 4);
            // SAFETY: two 4-wide in-bounds loads combined into one ymm.
            unsafe {
                uf(_mm256_set_m128(
                    _mm_loadu_ps(b.as_ptr()),
                    _mm_loadu_ps(a.as_ptr()),
                ))
            }
        }

        #[inline(always)]
        fn f32x8_store(self, v: F32x8, s: &mut [f32]) {
            assert!(s.len() >= 8);
            // SAFETY: 8 in-bounds f32 writes.
            unsafe { _mm256_storeu_ps(s.as_mut_ptr(), f(v)) }
        }

        #[inline(always)]
        fn f32x8_store_partial(self, v: F32x8, s: &mut [f32], len: usize) {
            assert!(len < 8 && s.len() >= len);
            // SAFETY: maskstore writes only the first `len` lanes.
            unsafe {
                let mask = _mm256_loadu_si256(TAIL_MASKS[len].as_ptr() as *const __m256i);
                _mm256_maskstore_ps(s.as_mut_ptr(), mask, f(v));
            }
        }

        #[inline(always)]
        fn f32x8_splat(self, x: f32) -> F32x8 {
            // SAFETY: register-only op; token proves AVX.
            unsafe { uf(_mm256_set1_ps(x)) }
        }

        #[inline(always)]
        fn f32x8_fma(self, acc: F32x8, w: F32x8, x: F32x8) -> F32x8 {
            // vfmadd: one rounding, the scalar token's `mul_add`.
            // SAFETY: register-only op; token proves FMA.
            unsafe { uf(_mm256_fmadd_ps(f(w), f(x), f(acc))) }
        }

        #[inline(always)]
        fn f32x8_relu(self, v: F32x8) -> F32x8 {
            // Clear lanes where v < 0 (andnot of the comparison mask):
            // exactly the scalar token's `if v < 0 { 0 } else { v }`,
            // including `-0.0` passing through. (`max_ps(v, 0)` would
            // instead canonicalise `-0.0` to `+0.0` and diverge.)
            // SAFETY: register-only ops.
            unsafe {
                let mask = _mm256_cmp_ps::<_CMP_LT_OQ>(f(v), _mm256_setzero_ps());
                uf(_mm256_andnot_ps(mask, f(v)))
            }
        }

        #[inline(always)]
        fn f32x8_max_keep(self, new: F32x8, best: F32x8) -> F32x8 {
            // vmaxps is `a > b ? a : b` with the second operand
            // returned on a NaN or on equal zeros of either sign —
            // exactly the scalar token's comparison.
            // SAFETY: register-only op.
            unsafe { uf(_mm256_max_ps(f(new), f(best))) }
        }

        #[inline(always)]
        fn f32x8_deinterleave(self, a: F32x8, b: F32x8) -> (F32x8, F32x8) {
            // vshufps picks lanes (0,2 | 0,2) or (1,3 | 1,3) of each
            // 128-bit half of (a, b); vpermpd then puts the four
            // 64-bit pairs back in memory order.
            // SAFETY: register-only ops.
            unsafe {
                let even = _mm256_castps_pd(_mm256_shuffle_ps::<0b10_00_10_00>(f(a), f(b)));
                let odd = _mm256_castps_pd(_mm256_shuffle_ps::<0b11_01_11_01>(f(a), f(b)));
                (
                    uf(_mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(
                        even,
                    ))),
                    uf(_mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(
                        odd,
                    ))),
                )
            }
        }

        #[inline(always)]
        fn f32x8_quantize_store(self, v: F32x8, inv: F32x8, q_max: F32x8, dst: &mut [i8]) {
            assert!(dst.len() >= 8);
            // Round half away from zero is `trunc(x + copysign(0.5 − ulp,
            // x))`, which is exact where `x + 0.5` would round up across
            // a tie. vminps/vmaxps return their second operand on a NaN,
            // so with the value second a NaN lane survives the clamp and
            // the ordered-compare mask then zeroes it (`NaN as i8` is
            // 0). The clamped lanes are integers within ±127, so both
            // saturating packs are exact.
            // SAFETY: register-only ops, then one 8-byte store into the
            // 8 bytes asserted in bounds above.
            unsafe {
                let x = _mm256_mul_ps(f(v), f(inv));
                let sign = _mm256_and_ps(x, _mm256_set1_ps(-0.0));
                let half = _mm256_or_ps(sign, _mm256_set1_ps(0.499_999_97));
                let r = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(
                    _mm256_add_ps(x, half),
                );
                let top = f(q_max);
                let bottom = _mm256_xor_ps(top, _mm256_set1_ps(-0.0));
                let clamped = _mm256_max_ps(bottom, _mm256_min_ps(top, r));
                let ordered = _mm256_cmp_ps::<_CMP_ORD_Q>(clamped, clamped);
                let codes = _mm256_cvtps_epi32(_mm256_and_ps(clamped, ordered));
                let words = _mm_packs_epi32(
                    _mm256_castsi256_si128(codes),
                    _mm256_extracti128_si256::<1>(codes),
                );
                _mm_storel_epi64(
                    dst.as_mut_ptr() as *mut __m128i,
                    _mm_packs_epi16(words, words),
                );
            }
        }

        #[inline(always)]
        fn i16x16_widen(self, s: &[i8]) -> I16x16 {
            assert!(s.len() >= 16);
            // SAFETY: 16 in-bounds byte reads, then vpmovsxbw.
            unsafe {
                let bytes = _mm_loadu_si128(s.as_ptr() as *const __m128i);
                transmute::<__m256i, I16x16>(_mm256_cvtepi8_epi16(bytes))
            }
        }

        #[inline(always)]
        fn i16x16_widen_4x4(self, r0: &[i8], r1: &[i8], r2: &[i8], r3: &[i8]) -> I16x16 {
            assert!(r0.len() >= 4 && r1.len() >= 4 && r2.len() >= 4 && r3.len() >= 4);
            // SAFETY: four unaligned 4-byte in-bounds reads packed into
            // one xmm (little-endian keeps lane order = memory order),
            // then vpmovsxbw.
            unsafe {
                let bytes = _mm_setr_epi32(
                    (r0.as_ptr() as *const i32).read_unaligned(),
                    (r1.as_ptr() as *const i32).read_unaligned(),
                    (r2.as_ptr() as *const i32).read_unaligned(),
                    (r3.as_ptr() as *const i32).read_unaligned(),
                );
                transmute::<__m256i, I16x16>(_mm256_cvtepi8_epi16(bytes))
            }
        }

        #[inline(always)]
        fn i16x16_widen_4x4_packed(self, s: &[i8], idx: &[u8; 16], r3: &[i8]) -> I16x16 {
            assert!(s.len() >= 16 && r3.len() >= 4);
            debug_assert!(idx[..12].iter().all(|&i| i < 16));
            // SAFETY: one 16-byte in-bounds load, a byte shuffle (all
            // consumed indices < 16 per the contract), a 4-byte
            // unaligned in-bounds read inserted as dword 3, then
            // vpmovsxbw. Replaces a 4-load serial insert chain.
            unsafe {
                let bytes = _mm_loadu_si128(s.as_ptr() as *const __m128i);
                let mask = _mm_loadu_si128(idx.as_ptr() as *const __m128i);
                let gathered = _mm_shuffle_epi8(bytes, mask);
                let merged =
                    _mm_insert_epi32::<3>(gathered, (r3.as_ptr() as *const i32).read_unaligned());
                transmute::<__m256i, I16x16>(_mm256_cvtepi8_epi16(merged))
            }
        }

        #[inline(always)]
        fn i16x16_widen_2x8(self, r0: &[i8], r1: &[i8]) -> I16x16 {
            assert!(r0.len() >= 8 && r1.len() >= 8);
            // SAFETY: two unaligned 8-byte in-bounds reads; `set_epi64x`
            // takes (high, low).
            unsafe {
                let bytes = _mm_set_epi64x(
                    (r1.as_ptr() as *const i64).read_unaligned(),
                    (r0.as_ptr() as *const i64).read_unaligned(),
                );
                transmute::<__m256i, I16x16>(_mm256_cvtepi8_epi16(bytes))
            }
        }

        #[inline(always)]
        fn i16x16_splat(self, x: i16) -> I16x16 {
            // SAFETY: register-only op.
            unsafe { transmute::<__m256i, I16x16>(_mm256_set1_epi16(x)) }
        }

        #[inline(always)]
        fn i16x16_mul(self, a: I16x16, b: I16x16) -> I16x16 {
            // SAFETY: register-only op (vpmullw — low 16 bits, which is
            // exact for i8-range operands).
            unsafe { transmute::<__m256i, I16x16>(_mm256_mullo_epi16(i16v(a), i16v(b))) }
        }

        #[inline(always)]
        fn i16x16_add(self, a: I16x16, b: I16x16) -> I16x16 {
            // SAFETY: register-only op (vpaddw, wrapping like the
            // scalar token).
            unsafe { transmute::<__m256i, I16x16>(_mm256_add_epi16(i16v(a), i16v(b))) }
        }

        #[inline(always)]
        fn i32x8_load(self, s: &[i32]) -> I32x8 {
            assert!(s.len() >= 8);
            // SAFETY: 8 in-bounds i32 reads.
            unsafe { ui32(_mm256_loadu_si256(s.as_ptr() as *const __m256i)) }
        }

        #[inline(always)]
        fn i32x8_store(self, v: I32x8, s: &mut [i32]) {
            assert!(s.len() >= 8);
            // SAFETY: 8 in-bounds i32 writes.
            unsafe { _mm256_storeu_si256(s.as_mut_ptr() as *mut __m256i, i32v(v)) }
        }

        #[inline(always)]
        fn i32x8_add_widen_lo(self, acc: I32x8, p: I16x16) -> I32x8 {
            // SAFETY: register-only ops (vpmovsxwd + vpaddd).
            unsafe {
                ui32(_mm256_add_epi32(
                    i32v(acc),
                    _mm256_cvtepi16_epi32(_mm256_castsi256_si128(i16v(p))),
                ))
            }
        }

        #[inline(always)]
        fn i32x8_add_widen_hi(self, acc: I32x8, p: I16x16) -> I32x8 {
            // SAFETY: register-only ops.
            unsafe {
                ui32(_mm256_add_epi32(
                    i32v(acc),
                    _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(i16v(p))),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_honors_dispatch_rules() {
        // Whatever this host is, the active level is one of the two
        // tiers, it is cached, and scalar is always a valid fallback.
        let l = active();
        assert!(matches!(l, SimdLevel::Scalar | SimdLevel::Avx2));
        assert_eq!(active(), l, "active() must be stable across calls");
        if !avx2_fma_detected() {
            assert_eq!(
                detect(),
                SimdLevel::Scalar,
                "hosts without AVX2 and FMA must select the scalar fallback"
            );
        }

        // The PCNN_FORCE_SCALAR=1 escape hatch pins the scalar fallback
        // regardless of what the CPU offers — asserted on the pure core
        // (mutating the real environment would race `env::var_os` calls
        // on concurrently running test threads). CI additionally runs
        // the whole suite with the real variable exported.
        assert_eq!(detect_with(true), SimdLevel::Scalar);
        // detect() is detect_with(env flag) — read the flag the same
        // way so this holds both with and without PCNN_FORCE_SCALAR
        // exported for the whole test run.
        let env_forced = std::env::var_os("PCNN_FORCE_SCALAR").is_some_and(|v| v == "1");
        assert_eq!(detect_with(env_forced), detect());

        // Requesting the AVX2 tier is safe everywhere: `effective`
        // downgrades it to scalar when the host can't execute it.
        assert_eq!(SimdLevel::Scalar.effective(), SimdLevel::Scalar);
        assert_eq!(SimdLevel::Avx2.effective(), detect_with(false));
    }

    /// The AVX2 tier executes `vfmadd`, so it needs FMA as well as AVX2:
    /// detection and `effective` both pick it exactly when CPUID
    /// reports the two, and the label stays `avx2` either way.
    #[test]
    fn avx2_tier_requires_both_avx2_and_fma() {
        #[cfg(target_arch = "x86_64")]
        let both = std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let both = false;
        let want = if both {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        };
        assert_eq!(detect_with(false), want);
        assert_eq!(SimdLevel::Avx2.effective(), want);
        assert_eq!(SimdLevel::Avx2.label(), "avx2");
    }

    #[test]
    fn scalar_token_ops_match_reference() {
        let t = ScalarToken;
        let a: Vec<f32> = (0..12).map(|i| i as f32 * 0.5 - 2.0).collect();
        let v = t.f32x8_load(&a);
        assert_eq!(v.0, [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]);
        let p = t.f32x8_load_partial(&a, 3);
        assert_eq!(p.0, [-2.0, -1.5, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let two = t.f32x8_load_2x4(&a[0..4], &a[8..12]);
        assert_eq!(two.0, [-2.0, -1.5, -1.0, -0.5, 2.0, 2.5, 3.0, 3.5]);
        let acc = t.f32x8_fma(t.f32x8_splat(1.0), t.f32x8_splat(2.0), v);
        assert_eq!(acc.0, [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
        // One rounding, not two: (1 + 2⁻²³)(1 − 2⁻²³) − 1 = −2⁻⁴⁶ exactly,
        // where a rounded product would be 1 and leave 0.
        let (above, below) = (1.0 + f32::EPSILON, 1.0 - f32::EPSILON);
        let fused = t.f32x8_fma(
            t.f32x8_splat(-1.0),
            t.f32x8_splat(above),
            t.f32x8_splat(below),
        );
        assert_eq!(fused.0, [-(2.0f32.powi(-46)); 8]);
        assert_eq!(t.f32x8_relu(acc).0[..3], [0.0, 0.0, 0.0]);
        let kept = t.f32x8_max_keep(
            F32x8([1.0, f32::NAN, 0.0, -0.0, 2.0, -1.0, f32::NAN, 5.0]),
            F32x8([0.5, 3.0, -0.0, 0.0, 2.0, 4.0, f32::NEG_INFINITY, f32::NAN]),
        );
        let want = [
            1.0f32,
            3.0,
            -0.0,
            0.0,
            2.0,
            4.0,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        assert_eq!(kept.0.map(f32::to_bits), want.map(f32::to_bits));
        let (even, odd) = t.f32x8_deinterleave(t.f32x8_load(&a), t.f32x8_load(&a[4..]));
        assert_eq!(even.0, [-2.0, -1.0, 0.0, 1.0, 0.0, 1.0, 2.0, 3.0]);
        assert_eq!(odd.0, [-1.5, -0.5, 0.5, 1.5, 0.5, 1.5, 2.5, 3.5]);
        let mut codes = [9i8; 9];
        t.f32x8_quantize_store(
            F32x8([
                0.5,
                -0.5,
                1.5,
                2.4,
                300.0,
                f32::NEG_INFINITY,
                f32::NAN,
                -0.2,
            ]),
            t.f32x8_splat(1.0),
            t.f32x8_splat(127.0),
            &mut codes,
        );
        assert_eq!(codes, [1, -1, 2, 2, 127, -127, 0, 0, 9]);
        let mut out = [9.0f32; 10];
        t.f32x8_store_partial(acc, &mut out, 2);
        assert_eq!(&out[..3], &[-3.0, -2.0, 9.0]);

        let bytes: Vec<i8> = (0..16).map(|i| (i * 9 - 70) as i8).collect();
        let w = t.i16x16_widen(&bytes);
        assert_eq!(w.0[0], -70);
        assert_eq!(w.0[15], 65);
        let q = t.i16x16_widen_4x4(&bytes[0..4], &bytes[4..8], &bytes[8..12], &bytes[12..16]);
        assert_eq!(q, w, "4x4 tile load of contiguous rows equals flat widen");
        let h = t.i16x16_widen_2x8(&bytes[0..8], &bytes[8..16]);
        assert_eq!(h, w);
        let prod = t.i16x16_mul(w, t.i16x16_splat(-3));
        assert_eq!(prod.0[0], 210);
        assert_eq!(
            t.i16x16_add(prod, t.i16x16_splat(i16::MAX)).0[0],
            i16::MIN + 209
        );
        let lo = t.i32x8_add_widen_lo(I32x8::zero(), prod);
        let hi = t.i32x8_add_widen_hi(I32x8::zero(), prod);
        for k in 0..8 {
            assert_eq!(lo.0[k], prod.0[k] as i32);
            assert_eq!(hi.0[k], prod.0[k + 8] as i32);
        }
    }

    /// The contract everything else rests on: the AVX2 token computes
    /// exactly what the scalar token computes, lane for lane.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_token_matches_scalar_token_exactly() {
        if !avx2_fma_detected() {
            return;
        }
        // SAFETY: only called after the AVX2 + FMA check above confirms
        // the CPU supports every instruction this fn (and the token it
        // constructs) may execute.
        #[target_feature(enable = "avx2,fma")]
        unsafe fn check() {
            let s = ScalarToken;
            // SAFETY: AVX2 and FMA were runtime-verified by the caller's
            // guard.
            let a = unsafe { Avx2Token::assert_available() };
            let xs: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
            let ys: Vec<f32> = (0..16).map(|i| (i as f32 * 1.3).cos() * 2.0).collect();
            assert_eq!(s.f32x8_load(&xs), a.f32x8_load(&xs));
            for len in 0..8 {
                assert_eq!(
                    s.f32x8_load_partial(&xs, len),
                    a.f32x8_load_partial(&xs, len)
                );
                let mut so = [7.0f32; 8];
                let mut ao = [7.0f32; 8];
                s.f32x8_store_partial(s.f32x8_load(&ys), &mut so, len);
                a.f32x8_store_partial(a.f32x8_load(&ys), &mut ao, len);
                assert_eq!(so, ao);
            }
            assert_eq!(s.f32x8_load_2x4(&xs, &ys), a.f32x8_load_2x4(&xs, &ys));
            let (sv, sw) = (s.f32x8_load(&xs), s.f32x8_load(&ys));
            assert_eq!(
                s.f32x8_fma(sv, sw, s.f32x8_splat(0.37)),
                a.f32x8_fma(sv, sw, a.f32x8_splat(0.37))
            );
            assert_eq!(s.f32x8_relu(sv), a.f32x8_relu(sv));
            assert_eq!(s.f32x8_deinterleave(sv, sw), a.f32x8_deinterleave(sv, sw));
            // Values that separate a correct quantiser and running
            // maximum from a near miss: ties, the largest value below
            // one half, the clamp edges, signed zeros, ±Inf and NaN.
            let edge = [
                0.5f32,
                -0.5,
                1.5,
                -2.5,
                0.499_999_97,
                -0.499_999_97,
                126.5,
                -126.5,
                127.49,
                -127.5,
                1.0e9,
                -1.0e9,
                8_388_607.5,
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                -f32::NAN,
                f32::MIN_POSITIVE,
                3.0,
                -7.0,
                63.5,
                -64.5,
            ];
            for (inv, q_max) in [(1.0f32, 127.0f32), (0.5, 7.0), (f32::INFINITY, 127.0)] {
                for chunk in edge.chunks_exact(8) {
                    let v = s.f32x8_load(chunk);
                    let (mut sq, mut aq) = ([3i8; 8], [4i8; 8]);
                    s.f32x8_quantize_store(v, s.f32x8_splat(inv), s.f32x8_splat(q_max), &mut sq);
                    a.f32x8_quantize_store(v, a.f32x8_splat(inv), a.f32x8_splat(q_max), &mut aq);
                    assert_eq!(sq, aq, "inv={inv} q_max={q_max} {chunk:?}");
                }
            }
            for new in edge.chunks_exact(8) {
                for best in edge.chunks_exact(8).rev() {
                    let (n, b) = (s.f32x8_load(new), s.f32x8_load(best));
                    assert_eq!(
                        s.f32x8_max_keep(n, b).0.map(f32::to_bits),
                        a.f32x8_max_keep(n, b).0.map(f32::to_bits)
                    );
                }
            }

            let bytes: Vec<i8> = (0..32).map(|i| (i * 17 % 251 - 125) as i8).collect();
            assert_eq!(s.i16x16_widen(&bytes), a.i16x16_widen(&bytes));
            assert_eq!(
                s.i16x16_widen_4x4(&bytes[1..], &bytes[6..], &bytes[11..], &bytes[16..]),
                a.i16x16_widen_4x4(&bytes[1..], &bytes[6..], &bytes[11..], &bytes[16..])
            );
            assert_eq!(
                s.i16x16_widen_2x8(&bytes[3..], &bytes[13..]),
                a.i16x16_widen_2x8(&bytes[3..], &bytes[13..])
            );
            let w = s.i16x16_widen(&bytes);
            let prod_s = s.i16x16_mul(w, s.i16x16_splat(-113));
            let prod_a = a.i16x16_mul(w, a.i16x16_splat(-113));
            assert_eq!(prod_s, prod_a);
            assert_eq!(s.i16x16_add(prod_s, w), a.i16x16_add(prod_a, w));
            let acc: Vec<i32> = (0..8).map(|i| i * 1000 - 4000).collect();
            assert_eq!(
                s.i32x8_add_widen_lo(s.i32x8_load(&acc), prod_s),
                a.i32x8_add_widen_lo(a.i32x8_load(&acc), prod_a)
            );
            assert_eq!(
                s.i32x8_add_widen_hi(s.i32x8_load(&acc), prod_s),
                a.i32x8_add_widen_hi(a.i32x8_load(&acc), prod_a)
            );
            let mut so = [0i32; 8];
            let mut ao = [0i32; 8];
            s.i32x8_store(s.i32x8_load(&acc), &mut so);
            a.i32x8_store(a.i32x8_load(&acc), &mut ao);
            assert_eq!(so, ao);
        }
        // SAFETY: guarded by the runtime AVX2 + FMA check above.
        unsafe { check() }
    }
}
