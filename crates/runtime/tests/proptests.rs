//! Property tests for the runtime: kernel-registry round-trips over
//! arbitrary pattern assignments, and sparse/dense execution
//! equivalence under random geometry and weights.

use pcnn_core::pattern::{Pattern, PatternSet};
use pcnn_core::project::project_onto_set;
use pcnn_runtime::pattern_conv::{PatternConv, Walk};
use pcnn_runtime::registry::{CompiledPattern, KernelRegistry};
use pcnn_runtime::{ConvScratch, Precision, QuantOptions};
use pcnn_tensor::conv::{conv2d_direct, Conv2dShape};
use pcnn_tensor::simd::SimdLevel;
use pcnn_tensor::Tensor;
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Plane widths of the walk-parity property: the four tiled widths and
/// five that have no tile.
const WIDTHS: [usize; 9] = [1, 2, 3, 4, 5, 8, 12, 16, 32];
const BATCHES: [usize; 3] = [1, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_pattern_roundtrips_through_the_registry(mask in 0u16..512) {
        let p = Pattern::new(mask, 9);
        let compiled = CompiledPattern::compile(p);
        prop_assert_eq!(compiled.reconstruct(), p);
        prop_assert_eq!(compiled.tap_count(), p.weight());
        // Tap order is SPM rank order: ascending kernel positions.
        let positions: Vec<usize> = compiled
            .taps()
            .iter()
            .map(|&(ky, kx)| ky * 3 + kx)
            .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&positions, &sorted);
        prop_assert_eq!(positions, p.positions());
    }

    #[test]
    fn random_assignment_executes_exactly(
        codes in prop::collection::vec(0usize..126, 6),
        vals in prop::collection::vec(-1.0f32..1.0, 6 * 9),
        xvals in prop::collection::vec(-1.0f32..1.0, 2 * 36),
    ) {
        // Assign each of the 3×2 kernels an arbitrary n=4 pattern, build
        // the conforming weight, and check sparse == dense execution.
        let set = PatternSet::full(9, 4);
        let mut w = Tensor::from_vec(vals, &[3, 2, 3, 3]);
        for (ki, kernel) in w.as_mut_slice().chunks_mut(9).enumerate() {
            set.get(codes[ki]).apply(kernel);
        }
        let shape = Conv2dShape::new(2, 3, 3, 1, 1);
        let x = Tensor::from_vec(xvals, &[1, 2, 6, 6]);
        let conv = PatternConv::from_dense(&w, shape, &set).expect("conforming weights");
        let got = conv.forward(&x);
        let want = conv2d_direct(&x, &w, None, &shape);
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4, "{} vs {}", a, b);
        }
    }

    #[test]
    fn projected_weights_execute_exactly_for_all_n(
        vals in prop::collection::vec(-1.0f32..1.0, 4 * 2 * 9),
        xvals in prop::collection::vec(-1.0f32..1.0, 2 * 25),
        n in 1usize..=5,
        stride in 1usize..=2,
    ) {
        let set = PatternSet::full(9, n);
        let mut w = Tensor::from_vec(vals, &[4, 2, 3, 3]);
        for kernel in w.as_mut_slice().chunks_mut(9) {
            let _ = project_onto_set(kernel, &set);
        }
        let shape = Conv2dShape::new(2, 4, 3, stride, 1);
        let x = Tensor::from_vec(xvals, &[1, 2, 5, 5]);
        let conv = PatternConv::from_dense(&w, shape, &set).expect("projected weights conform");
        let got = conv.forward(&x);
        let want = conv2d_direct(&x, &w, None, &shape);
        prop_assert_eq!(got.shape(), want.shape());
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4, "{} vs {}", a, b);
        }
    }

    #[test]
    fn full_registry_offsets_are_consistent(pw in 3usize..64) {
        let reg = KernelRegistry::full_3x3();
        for code in [0usize, 1, 7, 100, 511] {
            let c = reg.get(code);
            let offs = c.offsets(pw);
            for (&off, &(ky, kx)) in offs.iter().zip(c.taps()) {
                prop_assert_eq!(off, ky * pw + kx);
            }
        }
    }
}

/// Runs one generated layer through both walks on both SIMD tiers and
/// both precisions and holds them to the scalar per-kernel walk: bit
/// for bit in f32 (the same rounding sequence per output element),
/// exactly in int8. The layer carries an all-zero kernel and a fully
/// pruned output channel with a negative bias, which only the epilogue
/// ever touches. One scratch is reused across every run of both
/// precisions, so a band walk also has to cope with whatever the
/// previous walk left behind.
#[allow(clippy::too_many_arguments)] // one axis of the property each
fn assert_walks_agree(
    in_c: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    batch: usize,
    n: usize,
    relu: bool,
    seed: u64,
) {
    let out_c = 4usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    let set = PatternSet::full(9, n);
    let mut w = Tensor::from_vec(
        (0..out_c * in_c * 9)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
        &[out_c, in_c, 3, 3],
    );
    for kernel in w.as_mut_slice().chunks_mut(9) {
        let _ = project_onto_set(kernel, &set);
    }
    // Kernel (oc 0, ic 1) and all of output channel 2 are pruned.
    w.as_mut_slice()[9..18].fill(0.0);
    w.as_mut_slice()[2 * in_c * 9..3 * in_c * 9].fill(0.0);
    let shape = Conv2dShape::new(in_c, out_c, 3, stride, 1);
    let conv = PatternConv::from_dense(&w, shape, &set)
        .expect("projected weights conform")
        .with_bias(vec![0.3, -0.2, -0.75, 0.1])
        .with_relu(relu)
        .with_int8(&QuantOptions::default());
    assert!(conv.skipped_kernels() > in_c);

    // The input size that yields an `oh × ow` output.
    let (h, wd) = ((oh - 1) * stride + 1, (ow - 1) * stride + 1);
    assert_eq!(shape.out_hw(h, wd), (oh, ow));
    let x: Vec<f32> = (0..batch * in_c * h * wd)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let out_len = batch * out_c * oh * ow;
    let mut scratch = ConvScratch::default();
    let mut run = |level: SimdLevel, walk: Walk| {
        Precision::ALL.map(|precision| {
            let mut y = vec![f32::NAN; out_len];
            conv.forward_batch_at(
                level,
                walk,
                precision,
                &x,
                batch,
                h,
                wd,
                &mut y,
                &mut scratch,
            );
            y
        })
    };
    let [want_f, want_q] = run(SimdLevel::Scalar, Walk::PerKernel);
    if relu {
        // The pruned channel is its negative bias, clamped.
        let plane = oh * ow;
        assert!(want_f[2 * plane..3 * plane].iter().all(|&v| v == 0.0));
    }
    for (level, walk) in [
        (SimdLevel::Scalar, Walk::Tiled),
        (SimdLevel::Avx2.effective(), Walk::PerKernel),
        (SimdLevel::Avx2.effective(), Walk::Tiled),
    ] {
        let [got_f, got_q] = run(level, walk);
        for (what, got, want) in [("f32", &got_f, &want_f), ("int8", &got_q, &want_q)] {
            for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} {:?} on {} diverges at {} ({} vs {}): in_c={} n={} oh={} ow={} stride={} batch={}",
                    what, walk, level, i, a, b, in_c, n, oh, ow, stride, batch
                );
            }
        }
    }
}

/// Input-channel counts on both sides of the band budget
/// (`pcnn_tensor::direct::BAND_BYTES`, 32 KiB of padded rows): 3 keeps
/// every plane whole in both precisions; 24 makes f32 bands of several
/// tiles at widths 16 and 32; 64 makes f32 bands of a single tile at
/// widths 8, 16 and 32 and int8 bands of several tiles at width 32.
const IN_CHANNELS: [usize; 3] = [3, 24, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The band-resident walk against the per-kernel walk it replaced
    /// (see [`assert_walks_agree`]). Heights run past, short of and
    /// between multiples of every tile and band height, so last bands
    /// and last tiles slide back; stride 2 and the untiled widths have
    /// no tile and must route to the per-kernel walk on their own.
    #[test]
    fn band_walk_equals_per_kernel_walk_bitwise(
        n in 1usize..=9,
        channels in 0usize..IN_CHANNELS.len(),
        width in 0usize..WIDTHS.len(),
        oh in 1usize..=19,
        strided in 0usize..4,
        batch in 0usize..BATCHES.len(),
        relu in prop::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let stride = if strided == 0 { 2 } else { 1 };
        assert_walks_agree(
            IN_CHANNELS[channels], oh, WIDTHS[width], stride, BATCHES[batch], n, relu, seed,
        );
    }
}

/// Every band shape, by construction rather than by luck of the draw.
/// `rows` below is the band height `band_rows` picks for the f32 walk
/// (int8 bands hold four times the rows).
#[test]
fn band_walk_covers_every_band_shape() {
    // (in_c, oh, ow, batch, taps)
    let cases = [
        // One-tile bands: 64 × 18 × 4 B a row, 4 rows + halo = 27 KiB.
        (64, 16, 16, 1, 4),
        // ... whose fifth band holds 3 new rows and slides back to 15.
        (64, 19, 16, 3, 2),
        // `oh` equal to one tile: a single band, nothing slides.
        (64, 4, 16, 8, 9),
        (3, 2, 32, 1, 5),
        // Two-tile bands (8 rows), then a slid one-tile band (rows 8..11).
        (40, 11, 16, 3, 4),
        // A 16-row band, then 3 rows short of a tile: the band slides.
        (24, 19, 16, 1, 3),
        // Whole-plane bands with a tile that slides inside the band.
        (3, 11, 32, 8, 1),
        (5, 9, 4, 3, 6),
        // A single 8-row tile already over budget (37.5 KiB).
        (96, 8, 8, 1, 4),
        (64, 13, 8, 1, 7),
        // int8 one-tile bands: 300 × 34 B a row, 2 rows + halo = 40 KiB.
        (300, 5, 32, 1, 4),
    ];
    for (case, &(in_c, oh, ow, batch, taps)) in cases.iter().enumerate() {
        for relu in [false, true] {
            assert_walks_agree(in_c, oh, ow, 1, batch, taps, relu, 7 + case as u64);
        }
    }
}

/// Every tap count 1..=9 through both walks on both tiers, on every
/// plane kind, by construction rather than by luck of the draw: the
/// four tiled widths (where the band walk and the per-kernel walk
/// really differ), odd widths 5 and 7, stride 2, and 1×1 and 2×2
/// planes (which have no tile).
#[test]
fn walks_and_tiers_agree_for_every_tap_count() {
    // (oh, ow, stride)
    let planes = [
        (4, 4, 1),
        (8, 8, 1),
        (4, 16, 1),
        (2, 32, 1),
        (3, 5, 1),
        (5, 7, 1),
        (3, 5, 2),
        (1, 1, 1),
        (2, 2, 1),
    ];
    for n in 1..=9 {
        for (case, &(oh, ow, stride)) in planes.iter().enumerate() {
            let seed = 1_000 + 10 * n as u64 + case as u64;
            assert_walks_agree(3, oh, ow, stride, 2, n, n % 2 == 0, seed);
        }
    }
}

/// The evidence for fusing every f32 tap into one multiply-add. Each
/// layer's outputs are computed in f64 (products of two f32 values are
/// exact there, and the sums carry ~2⁻⁵³ relative error), next to an
/// f32 mul-then-add reference in the walks' own order (bias, then
/// ascending `ic`, then taps in pattern order). Every walk on every
/// tier must then satisfy:
///
/// * **a bound per output**: its error is within
///   `n · in_c · ε · (|bias| + Σ|w·x|)`, the classic bound for
///   `n · in_c` rounded accumulations;
/// * **no loss against mul-then-add**: over the whole layer set, the
///   root-mean-square error in units of each output's `ε · (|bias| +
///   Σ|w·x|)` is at most the unfused reference's. Fusing removes the
///   product roundings and keeps the accumulation roundings, which
///   dominate at hundreds of taps, so one layer's largest error can
///   land on either side: the fused maximum was the larger in 24 of
///   these 96 layers, by more than one ULP in 3. Pooled, the fused
///   error is 0.185 against 0.200.
///
/// The layers cover the untiled geometries — odd widths 5 and 7,
/// stride 2, 1×1 and 2×2 planes — plus one tiled width, at `in_c` 3
/// and 64, n ∈ {1, 2, 4, 9}, with and without a bias.
#[test]
fn fused_taps_are_at_least_as_accurate_as_mul_then_add() {
    // (h, w, stride) of the input.
    let planes = [
        (3, 5, 1),
        (5, 7, 1),
        (7, 7, 2),
        (1, 1, 1),
        (2, 2, 1),
        (8, 8, 1),
    ];
    let runs = [
        (SimdLevel::Scalar, Walk::PerKernel),
        (SimdLevel::Scalar, Walk::Tiled),
        (SimdLevel::Avx2.effective(), Walk::PerKernel),
        (SimdLevel::Avx2.effective(), Walk::Tiled),
    ];
    // Squared errors in units of `ε · (|bias| + Σ|w·x|)`, summed over
    // every output of every layer: the unfused reference's, then each
    // run's.
    let mut unfused_sq = 0f64;
    let mut fused_sq = [0f64; 4];
    let mut outputs = 0usize;
    for (case, &(h, w, stride)) in planes.iter().enumerate() {
        for in_c in [3usize, 64] {
            for n in [1usize, 2, 4, 9] {
                for with_bias in [false, true] {
                    let seed = 0xacc0 + (case * 1000 + in_c * 10 + n) as u64;
                    let layer = AccuracyLayer::new(h, w, stride, in_c, n, with_bias, seed);
                    outputs += layer.exact.len();
                    unfused_sq += layer.scaled_sq_error(&layer.unfused);
                    for (run, &(level, walk)) in runs.iter().enumerate() {
                        let y = layer.run(level, walk);
                        layer.assert_within_bound(&y, &format!("{walk:?} on {level}"));
                        fused_sq[run] += layer.scaled_sq_error(&y);
                    }
                }
            }
        }
    }
    let rms = |sq: f64| (sq / outputs as f64).sqrt();
    for (&(level, walk), &sq) in runs.iter().zip(&fused_sq) {
        assert!(
            rms(sq) <= rms(unfused_sq),
            "{walk:?} on {level}: fused RMS error {} exceeds the unfused {}",
            rms(sq),
            rms(unfused_sq)
        );
    }
}

/// One layer of [`fused_taps_are_at_least_as_accurate_as_mul_then_add`]:
/// a random `4 × in_c` 3×3 layer projected onto the full `n`-tap
/// pattern set, a batch of two inputs, and per output its f64 value,
/// its unfused f32 sum and the `|bias| + Σ|w·x|` its error scales with.
struct AccuracyLayer {
    conv: PatternConv,
    x: Vec<f32>,
    h: usize,
    w: usize,
    /// Rounded accumulations per output: `n · in_c`.
    steps: usize,
    what: String,
    exact: Vec<f64>,
    unfused: Vec<f32>,
    mag: Vec<f64>,
}

impl AccuracyLayer {
    const OUT_C: usize = 4;
    const BATCH: usize = 2;

    fn new(
        h: usize,
        w: usize,
        stride: usize,
        in_c: usize,
        n: usize,
        with_bias: bool,
        seed: u64,
    ) -> Self {
        let (out_c, batch) = (Self::OUT_C, Self::BATCH);
        let mut rng = SmallRng::seed_from_u64(seed);
        let set = PatternSet::full(9, n);
        let mut weights = Tensor::from_vec(
            (0..out_c * in_c * 9)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect(),
            &[out_c, in_c, 3, 3],
        );
        for kernel in weights.as_mut_slice().chunks_mut(9) {
            let _ = project_onto_set(kernel, &set);
        }
        let mut bias = vec![0.0f32; out_c];
        if with_bias {
            bias.iter_mut()
                .for_each(|b| *b = rng.gen_range(-1.0f32..1.0));
        }
        let shape = Conv2dShape::new(in_c, out_c, 3, stride, 1);
        let mut conv =
            PatternConv::from_dense(&weights, shape, &set).expect("projected weights conform");
        if with_bias {
            conv = conv.with_bias(bias.clone());
        }
        let x: Vec<f32> = (0..batch * in_c * h * w)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();

        let (oh, ow) = shape.out_hw(h, w);
        let len = batch * out_c * oh * ow;
        let (mut exact, mut unfused, mut mag) = (vec![0f64; len], vec![0f32; len], vec![0f64; len]);
        let ws = weights.as_slice();
        for (i, ((e, u), m)) in exact.iter_mut().zip(&mut unfused).zip(&mut mag).enumerate() {
            let (img, oc) = (i / (out_c * oh * ow), i / (oh * ow) % out_c);
            let (oy, ox) = (i / ow % oh, i % ow);
            let b = bias[oc];
            (*e, *u, *m) = (f64::from(b), b, f64::from(b.abs()));
            // Bias, then ascending `ic`, then taps in pattern order
            // (ascending kernel position); padding contributes zero.
            for ic in 0..in_c {
                for p in 0..9 {
                    let wv = ws[(oc * in_c + ic) * 9 + p];
                    let (py, px) = (oy * stride + p / 3, ox * stride + p % 3);
                    if wv == 0.0 || py == 0 || px == 0 || py > h || px > w {
                        continue;
                    }
                    let xv = x[((img * in_c + ic) * h + py - 1) * w + px - 1];
                    let prod = f64::from(wv) * f64::from(xv);
                    *e += prod;
                    *m += prod.abs();
                    // A rounded product, then a rounded sum.
                    *u += wv * xv;
                }
            }
        }
        AccuracyLayer {
            conv,
            x,
            h,
            w,
            steps: n * in_c,
            what: format!("h={h} w={w} stride={stride} in_c={in_c} n={n} bias={with_bias}"),
            exact,
            unfused,
            mag,
        }
    }

    fn run(&self, level: SimdLevel, walk: Walk) -> Vec<f32> {
        let mut y = vec![f32::NAN; self.exact.len()];
        self.conv.forward_batch_at(
            level,
            walk,
            Precision::F32,
            &self.x,
            Self::BATCH,
            self.h,
            self.w,
            &mut y,
            &mut ConvScratch::default(),
        );
        y
    }

    /// Every output within `n · in_c · ε · (|bias| + Σ|w·x|)` of its
    /// f64 value.
    fn assert_within_bound(&self, y: &[f32], run: &str) {
        let eps = f64::from(f32::EPSILON);
        for (i, (&v, (&e, &m))) in y.iter().zip(self.exact.iter().zip(&self.mag)).enumerate() {
            let (err, bound) = ((f64::from(v) - e).abs(), self.steps as f64 * eps * m);
            assert!(
                err <= bound,
                "{run}: output {i} off by {err:e}, bound {bound:e}, at {}",
                self.what
            );
        }
    }

    /// Σ over outputs of the squared error in units of
    /// `ε · (|bias| + Σ|w·x|)` (an output with nothing to sum is exact).
    fn scaled_sq_error(&self, y: &[f32]) -> f64 {
        let eps = f64::from(f32::EPSILON);
        y.iter()
            .zip(self.exact.iter().zip(&self.mag))
            .filter(|(_, (_, &m))| m > 0.0)
            .map(|(&v, (&e, &m))| ((f64::from(v) - e) / (eps * m)).powi(2))
            .sum()
    }
}
