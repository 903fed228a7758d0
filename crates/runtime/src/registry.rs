//! The compiled-pattern kernel registry.
//!
//! PCONV-style runtimes get their speed from a simple observation: a
//! 3×3 kernel pruned to pattern `p` is a *fixed* set of `n` taps, so the
//! convolution inner loop for that kernel can be specialised — no mask
//! tests, no index indirection, just `n` shifted multiply-adds. This
//! module performs that specialisation once per pattern:
//!
//! * [`CompiledPattern`] — a pattern lowered to `(ky, kx)` tap
//!   coordinates in SPM rank order (the order of the kernel's packed
//!   non-zero sequence);
//! * [`KernelRegistry`] — the table of compiled patterns for one layer's
//!   [`PatternSet`], indexed by SPM code, with the flat padded-plane
//!   offset rows of the input geometry the layer runs at.
//!
//! The unrolled executors themselves live in [`pcnn_tensor::direct`]:
//! the band-resident, output-stationary walk
//! ([`pcnn_tensor::direct::band_walk_at`]) and, for geometries
//! without a tile, the per-kernel
//! [`pcnn_tensor::direct::accumulate_plane_batch_dyn`].

use pcnn_core::pattern::{Pattern, PatternSet};
use std::borrow::Cow;
use std::sync::OnceLock;

/// One pattern lowered to tap coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPattern {
    pattern: Pattern,
    side: usize,
    /// `(ky, kx)` per tap, ascending kernel-position order — exactly the
    /// rank order of the SPM non-zero sequence.
    taps: Vec<(usize, usize)>,
}

impl CompiledPattern {
    /// Compiles a square-area pattern into tap coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's area is not a perfect square.
    pub fn compile(pattern: Pattern) -> Self {
        let area = pattern.area();
        let side = (area as f64).sqrt() as usize;
        assert_eq!(side * side, area, "pattern area {area} is not square");
        let taps = pattern
            .positions()
            .into_iter()
            .map(|pos| (pos / side, pos % side))
            .collect();
        CompiledPattern {
            pattern,
            side,
            taps,
        }
    }

    /// The source pattern.
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// Kernel side length (3 for 3×3).
    pub fn side(&self) -> usize {
        self.side
    }

    /// Number of taps (`n`, the pattern weight).
    pub fn tap_count(&self) -> usize {
        self.taps.len()
    }

    /// The `(ky, kx)` taps in SPM rank order.
    pub fn taps(&self) -> &[(usize, usize)] {
        &self.taps
    }

    /// Flat offsets into a padded plane of width `pw`, in rank order.
    pub fn offsets(&self, pw: usize) -> Vec<usize> {
        self.taps.iter().map(|&(ky, kx)| ky * pw + kx).collect()
    }

    /// Rebuilds the pattern from the compiled taps — the registry
    /// round-trip checked by the property tests.
    pub fn reconstruct(&self) -> Pattern {
        let positions: Vec<usize> = self
            .taps
            .iter()
            .map(|&(ky, kx)| ky * self.side + kx)
            .collect();
        Pattern::from_positions(&positions, self.side * self.side)
    }
}

/// The compiled-kernel table of one layer: one [`CompiledPattern`] per
/// SPM code of the layer's [`PatternSet`].
///
/// # Example
///
/// ```
/// use pcnn_core::PatternSet;
/// use pcnn_runtime::registry::KernelRegistry;
///
/// let set = PatternSet::full(9, 2);
/// let reg = KernelRegistry::for_set(&set);
/// assert_eq!(reg.len(), 36);
/// assert_eq!(reg.get(0).tap_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct KernelRegistry {
    by_code: Vec<CompiledPattern>,
    area: usize,
    /// The offset table of the first padded width this registry ran
    /// at, with that width.
    offsets: OnceLock<(usize, Vec<usize>)>,
}

impl KernelRegistry {
    /// Compiles every pattern of `set`, in SPM-code order.
    pub fn for_set(set: &PatternSet) -> Self {
        KernelRegistry {
            by_code: set
                .patterns()
                .iter()
                .map(|&p| CompiledPattern::compile(p))
                .collect(),
            area: set.area(),
            offsets: OnceLock::new(),
        }
    }

    /// Compiles the *entire* 3×3 pattern space (all `2⁹ = 512` masks) —
    /// the "pre-compile everything" configuration for engines that must
    /// accept arbitrary pattern assignments without a distillation step.
    pub fn full_3x3() -> Self {
        KernelRegistry {
            by_code: (0..512u16)
                .map(|mask| CompiledPattern::compile(Pattern::new(mask, 9)))
                .collect(),
            area: 9,
            offsets: OnceLock::new(),
        }
    }

    /// Number of compiled kernels.
    pub fn len(&self) -> usize {
        self.by_code.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.by_code.is_empty()
    }

    /// Kernel area the registry covers.
    pub fn area(&self) -> usize {
        self.area
    }

    /// The compiled kernel for SPM code `code`.
    ///
    /// # Panics
    ///
    /// Panics if `code` is out of range.
    pub fn get(&self, code: usize) -> &CompiledPattern {
        &self.by_code[code]
    }

    /// The flat padded-plane offsets of every code for plane width
    /// `pw`: code `c`'s `n` taps sit at `[c · n..(c + 1) · n]`. A
    /// compiled layer sees one input geometry, so the table of the
    /// first width asked for is kept and later calls borrow it; any
    /// other width is built for that call.
    ///
    /// # Panics
    ///
    /// Panics if the patterns differ in tap count (an SPM layer's set
    /// never does).
    pub fn offset_table(&self, pw: usize) -> Cow<'_, [usize]> {
        let build = || -> Vec<usize> {
            let n = self.by_code.first().map_or(0, CompiledPattern::tap_count);
            assert!(
                self.by_code.iter().all(|c| c.tap_count() == n),
                "offset rows need one tap count"
            );
            let mut table = Vec::with_capacity(self.by_code.len() * n);
            for c in &self.by_code {
                table.extend(c.taps.iter().map(|&(ky, kx)| ky * pw + kx));
            }
            table
        };
        let (cached_pw, table) = self.offsets.get_or_init(|| (pw, build()));
        if *cached_pw == pw {
            Cow::Borrowed(table)
        } else {
            Cow::Owned(build())
        }
    }
}

/// One `(ic, pattern)` group of a layer: the live kernels on input
/// channel `ic` that carry pattern `code`. See [`PatternSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupEntry {
    /// The input channel the group's kernels read.
    pub ic: u32,
    /// The shared SPM pattern code.
    pub code: u16,
    /// The group's first live-kernel slot.
    pub start: u32,
    /// Exclusive end of the slot range.
    pub end: u32,
}

/// A layer's live kernels counted by `(ic, pattern)` group — a
/// compile-time statistic of how much pattern sharing the layer offers
/// (`entries().len()` groups over `slot_count()` live kernels). No
/// executor walks it: the output-stationary walk reads the SPM arrays
/// in their own oc-major order.
#[derive(Debug, Clone, Default)]
pub struct PatternSchedule {
    entries: Vec<GroupEntry>,
}

impl PatternSchedule {
    /// Groups a layer's live kernels from its per-kernel SPM codes and
    /// skip flags (`codes[oc * in_c + ic]`, kernel-major like
    /// `SpmLayer`).
    ///
    /// # Panics
    ///
    /// Panics if `codes` / `skip` are not `out_c · in_c` long.
    pub fn build(codes: &[u16], skip: &[bool], out_c: usize, in_c: usize) -> Self {
        assert_eq!(codes.len(), out_c * in_c, "codes length mismatch");
        assert_eq!(skip.len(), out_c * in_c, "skip length mismatch");
        let mut entries: Vec<GroupEntry> = Vec::new();
        let mut slots = 0u32;
        let mut live: Vec<u16> = Vec::with_capacity(out_c);
        for ic in 0..in_c {
            live.clear();
            live.extend((0..out_c).filter_map(|oc| {
                let ki = oc * in_c + ic;
                (!skip[ki]).then_some(codes[ki])
            }));
            live.sort_unstable();
            for run in live.chunk_by(|a, b| a == b) {
                entries.push(GroupEntry {
                    ic: ic as u32,
                    code: run[0],
                    start: slots,
                    end: slots + run.len() as u32,
                });
                slots += run.len() as u32;
            }
        }
        PatternSchedule { entries }
    }

    /// The groups, ic-major then code-ascending.
    pub fn entries(&self) -> &[GroupEntry] {
        &self.entries
    }

    /// Total live kernels.
    pub fn slot_count(&self) -> usize {
        self.entries.last().map_or(0, |e| e.end as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_orders_taps_by_rank() {
        // Pattern positions {1, 3, 8} on 3×3: taps (0,1), (1,0), (2,2).
        let p = Pattern::from_positions(&[1, 3, 8], 9);
        let c = CompiledPattern::compile(p);
        assert_eq!(c.taps(), &[(0, 1), (1, 0), (2, 2)]);
        assert_eq!(c.tap_count(), 3);
    }

    #[test]
    fn offsets_respect_padded_width() {
        let p = Pattern::from_positions(&[0, 4, 8], 9);
        let c = CompiledPattern::compile(p);
        assert_eq!(c.offsets(10), vec![0, 11, 22]);
        assert_eq!(c.offsets(7), vec![0, 8, 16]);
    }

    #[test]
    fn reconstruct_roundtrips_every_3x3_pattern() {
        for mask in 0..512u16 {
            let p = Pattern::new(mask, 9);
            assert_eq!(CompiledPattern::compile(p).reconstruct(), p);
        }
    }

    #[test]
    fn registry_matches_set_order() {
        let set = PatternSet::full(9, 4);
        let reg = KernelRegistry::for_set(&set);
        assert_eq!(reg.len(), set.len());
        for code in 0..set.len() {
            assert_eq!(reg.get(code).pattern(), set.get(code));
        }
    }

    #[test]
    fn full_registry_covers_the_whole_space() {
        let reg = KernelRegistry::full_3x3();
        assert_eq!(reg.len(), 512);
        for (mask, c) in (0..512u16).zip(0..512) {
            assert_eq!(reg.get(c).pattern().mask(), mask);
        }
    }

    #[test]
    fn schedule_covers_every_live_kernel_once_in_ic_order() {
        // 3 out × 4 in, codes chosen so groups form and skip bites.
        let codes: Vec<u16> = vec![
            0, 1, 0, 2, // oc 0
            1, 1, 0, 0, // oc 1
            2, 0, 0, 1, // oc 2
        ];
        let mut skip = vec![false; 12];
        skip[1] = true; // (oc 0, ic 1)
        skip[8] = true; // (oc 2, ic 0)
        let s = PatternSchedule::build(&codes, &skip, 3, 4);
        assert_eq!(s.slot_count(), 10);
        // ic-major, code-ascending within an ic, slots contiguous.
        let keys: Vec<(u32, u16)> = s.entries().iter().map(|e| (e.ic, e.code)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.entries()[0].start, 0);
        assert!(s.entries().windows(2).all(|w| w[0].end == w[1].start));
        // Each group holds exactly the live kernels of its (ic, code).
        for e in s.entries() {
            let want = (0..3)
                .filter(|oc| {
                    let ki = oc * 4 + e.ic as usize;
                    !skip[ki] && codes[ki] == e.code
                })
                .count();
            assert_eq!((e.end - e.start) as usize, want, "{e:?}");
        }
        // A fully pruned layer has no groups.
        let none = PatternSchedule::build(&codes, &[true; 12], 3, 4);
        assert!(none.entries().is_empty());
        assert_eq!(none.slot_count(), 0);
    }

    #[test]
    fn offset_table_is_per_code() {
        let set = PatternSet::full(9, 1);
        let reg = KernelRegistry::for_set(&set);
        let table = reg.offset_table(6);
        assert_eq!(table.len(), 9);
        for (code, offs) in table.chunks(1).enumerate() {
            assert_eq!(offs, &reg.get(code).offsets(6)[..]);
        }
        // The first width is kept; another is built for the call.
        assert!(matches!(reg.offset_table(6), Cow::Borrowed(_)));
        let wider = PatternSet::full(9, 3);
        let reg = KernelRegistry::for_set(&wider);
        let _ = reg.offset_table(6);
        let other = reg.offset_table(10);
        assert!(matches!(other, Cow::Owned(_)));
        for (code, offs) in other.chunks(3).enumerate() {
            assert_eq!(offs, &reg.get(code).offsets(10)[..]);
        }
    }
}
