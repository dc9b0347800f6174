//! Batched estimation kernel for the uniform mixture model.
//!
//! Planner-scale serving estimates *batches* — B candidate-plan
//! rectangles against the same m subpopulations — and there the memory
//! layout dominates. [`UniformMixtureModel::estimate_many`] and
//! [`UniformMixtureModel::estimate_gather`] run a blocked rect×subpop
//! intersection kernel straight over the model's shared support
//! columns (see [`crate::model`]): dimension-major bounds, so the inner
//! loops stream contiguous memory for a fixed dimension, and the same
//! `1 / |G_z|` the scalar path reads. Those are laid out once per cold
//! build, so neither a published snapshot nor an estimate call copies
//! the model into another layout.
//!
//! # Exactness contract
//!
//! The kernel is **term-order identical** to the scalar path
//! ([`UniformMixtureModel::estimate_raw`]): subpopulations are visited in
//! index order, each term is evaluated as `w * overlap * inv` with the
//! same association, and each overlap is the same left-to-right product
//! of per-dimension `(hi.min(q_hi) - lo.max(q_lo)).max(0.0)` lengths.
//! The scalar path's skip branches (`w == 0`, `overlap <= 0`) become a
//! branch-free select (both tests evaluated, the product's bits masked)
//! whose masked-out terms contribute exactly `+0.0` — which changes no
//! partial sum's value (at most the sign of a zero sum, and
//! `0.0 == -0.0`). Every contributing IEEE-754 operation therefore
//! rounds identically and [`UniformMixtureModel::estimate_many`]
//! **compares equal** (`==`, which is bitwise up to zero signs) to the
//! scalar estimate — the equivalence suite in `tests/batch_equivalence.rs`
//! asserts exact equality, not a tolerance.
//!
//! # Blocking
//!
//! `estimate_many` tiles the batch ([`RECT_TILE`] rectangles at a time)
//! and blocks the subpopulation axis ([`SUBPOP_BLOCK`] entries at a
//! time): each subpopulation block is loaded once and intersected with
//! every rectangle of the tile before moving on, so a large model
//! streams through cache `B / RECT_TILE` times instead of `B` times.
//!
//! # One source, two builds
//!
//! The tile loop behind `estimate_many` and `estimate_gather` is written
//! once, as portable Rust, and compiled twice on x86-64: the second
//! build enables AVX2 and runs whenever the host has it, so the overlap
//! loops work four lanes wide instead of two. Neither build enables
//! FMA, and Rust neither contracts `a*b + c` nor reorders float
//! operations, so both compute the same bits: an estimate does not
//! depend on the host.

use crate::model::UniformMixtureModel;
use quicksel_geometry::Rect;

/// Subpopulations processed per kernel block: long enough to amortize
/// loop overhead and fill vector lanes, short enough that the per-block
/// overlap scratch stays in registers/L1.
pub const SUBPOP_BLOCK: usize = 64;

/// Rectangles processed per batch tile (see the module docs on blocking).
pub const RECT_TILE: usize = 16;

/// Minimum whole [`RECT_TILE`] groups per parallel chunk: planner-scale
/// batches (hundreds+ of rects) fan out across the workspace pool,
/// while small batches keep the serial kernel and its zero dispatch
/// overhead. Each chunk writes its own disjoint slice of the output, so
/// the fan-out cannot change a single result bit.
const PAR_MIN_TILES: usize = 4;

impl UniformMixtureModel {
    /// Batched estimation: clamped selectivities for every rectangle, in
    /// input order. Compares equal (`==`) to mapping
    /// [`estimate`](Self::estimate) — see the module docs' exactness
    /// contract — evaluated through the blocked kernel.
    ///
    /// # Panics
    /// Panics when a rect's dimensionality mismatches the model's.
    pub fn estimate_many(&self, rects: &[Rect]) -> Vec<f64> {
        for rect in rects {
            self.check_dim(rect);
        }
        self.kernel(rects.len(), &|i| &rects[i])
    }

    /// Gather form of [`estimate_many`](Self::estimate_many): estimates
    /// `rects[indexes[k]]` for each `k`, in `indexes` order. This is
    /// what routed batch dispatch uses — regrouping a batch by shard
    /// becomes index shuffling instead of cloning rectangles.
    ///
    /// # Panics
    /// Panics when an index is out of bounds or a gathered rect's
    /// dimensionality mismatches the model's.
    pub fn estimate_gather(&self, rects: &[Rect], indexes: &[usize]) -> Vec<f64> {
        for &i in indexes {
            self.check_dim(&rects[i]);
        }
        self.kernel(indexes.len(), &|k| &rects[indexes[k]])
    }

    /// Hard dimensionality guard at every kernel entry point: a
    /// mismatched probe must fail loudly here — in release builds too —
    /// instead of being read against the wrong column slices. (An empty
    /// model has no supports to define a dimensionality; its kernel
    /// loops never run, so any probe is accepted and estimates 0.)
    #[inline]
    fn check_dim(&self, rect: &Rect) {
        let dim = self.supports().dim();
        assert!(
            self.is_empty() || rect.dim() == dim,
            "probe dimensionality {} does not match the model's {dim}",
            rect.dim()
        );
    }

    /// The blocked kernel over `count` rects resolved through `rect_at`
    /// (a direct slice index for `estimate_many`, an index-gather for
    /// `estimate_gather`). Callers have already dim-checked every rect
    /// `rect_at` can return.
    ///
    /// Batches above the parallel gate split into chunks of whole
    /// [`RECT_TILE`] groups across the workspace pool; each chunk runs
    /// the identical serial kernel over its own disjoint output slice,
    /// so batched results stay equal (`==`) to the scalar path at any
    /// thread count.
    fn kernel<'a, F>(&self, count: usize, rect_at: &F) -> Vec<f64>
    where
        F: Fn(usize) -> &'a Rect + Sync,
    {
        let cols = Columns::of(self);
        let pieces = if self.is_empty() {
            1
        } else {
            quicksel_parallel::current().chunks_for(count.div_ceil(RECT_TILE), PAR_MIN_TILES)
        };
        if pieces <= 1 {
            // Serial: extend straight into the reserved capacity, with
            // no zero-fill pass.
            let mut out = Vec::with_capacity(count);
            cols.kernel_tiles(0, count, rect_at, |accs| {
                out.extend(accs.iter().map(|a| a.clamp(0.0, 1.0)));
            });
            return out;
        }
        let mut out = vec![0.0; count];
        let tiles = count.div_ceil(RECT_TILE);
        quicksel_parallel::current().scope(|s| {
            let mut rest = out.as_mut_slice();
            let mut start = 0;
            for tile_range in quicksel_parallel::split_even(tiles, pieces) {
                let end = (tile_range.end * RECT_TILE).min(count);
                let (slab, tail) = rest.split_at_mut(end - start);
                rest = tail;
                let base = start;
                s.spawn(move || {
                    let mut off = 0;
                    cols.kernel_tiles(base, slab.len(), rect_at, |accs| {
                        for (slot, acc) in slab[off..off + accs.len()].iter_mut().zip(accs) {
                            *slot = acc.clamp(0.0, 1.0);
                        }
                        off += accs.len();
                    });
                });
                start = end;
            }
        });
        out
    }
}

/// The kernel's operands as plain slices: the shared support columns
/// and the model's weights, bound once per call instead of reached
/// through the model's shared pointer per element.
#[derive(Clone, Copy)]
struct Columns<'a> {
    len: usize,
    dim: usize,
    lo: &'a [f64],
    hi: &'a [f64],
    weights: &'a [f64],
    inv_volumes: &'a [f64],
}

impl<'a> Columns<'a> {
    fn of(model: &'a UniformMixtureModel) -> Self {
        let s = model.supports();
        Self {
            len: model.len(),
            dim: s.dim(),
            lo: s.lo(),
            hi: s.hi(),
            weights: model.weights(),
            inv_volumes: s.inv_volumes(),
        }
    }

    /// The serial blocked kernel over the rects `base..base + count`
    /// (as resolved through `rect_at`), handing each finished tile's
    /// raw accumulators to `sink` in order — the one tile loop behind
    /// both the serial extend path and the parallel slab path. Runs the
    /// AVX2 build of the loop where the host has AVX2; it computes the
    /// same bits as the portable one.
    fn kernel_tiles<'r, F>(self, base: usize, count: usize, rect_at: &F, sink: impl FnMut(&[f64]))
    where
        F: Fn(usize) -> &'r Rect + Sync,
    {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host has AVX2, the clone's only target feature.
            return unsafe { self.kernel_tiles_avx2(base, count, rect_at, sink) };
        }
        self.kernel_tiles_portable(base, count, rect_at, sink)
    }

    /// [`kernel_tiles_portable`](Self::kernel_tiles_portable) compiled
    /// for AVX2, without FMA (see the module docs for why the bits
    /// match).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn kernel_tiles_avx2<'r, F>(
        self,
        base: usize,
        count: usize,
        rect_at: &F,
        sink: impl FnMut(&[f64]),
    ) where
        F: Fn(usize) -> &'r Rect + Sync,
    {
        self.kernel_tiles_portable(base, count, rect_at, sink)
    }

    /// The one source of the tile loop, inlined into both builds.
    #[inline(always)]
    fn kernel_tiles_portable<'r, F>(
        self,
        base: usize,
        count: usize,
        rect_at: &F,
        mut sink: impl FnMut(&[f64]),
    ) where
        F: Fn(usize) -> &'r Rect + Sync,
    {
        let mut ov = [0.0f64; SUBPOP_BLOCK];
        let mut t0 = 0;
        while t0 < count {
            let tile_len = RECT_TILE.min(count - t0);
            let mut accs = [0.0f64; RECT_TILE];
            let mut z0 = 0;
            while z0 < self.len {
                let c = SUBPOP_BLOCK.min(self.len - z0);
                for (j, acc) in accs[..tile_len].iter_mut().enumerate() {
                    self.overlap_block(rect_at(base + t0 + j), z0, &mut ov[..c]);
                    self.accumulate_block(z0, &ov[..c], acc);
                }
                z0 += c;
            }
            sink(&accs[..tile_len]);
            t0 += tile_len;
        }
    }

    /// Fills `ov[i]` with `|G_{z0+i} ∩ rect|` for one subpopulation
    /// block, as the left-to-right product of per-dimension overlap
    /// lengths: branch-free min/max arithmetic over contiguous columns,
    /// written so LLVM auto-vectorizes it — two lanes in the portable
    /// build, four in the AVX2 clone of
    /// [`kernel_tiles`](Self::kernel_tiles), which inlines it. Each lane
    /// does the same operations either way, so the lengths and products
    /// are the same bits.
    ///
    /// The compare-select idiom (instead of `f64::min`/`max`) lowers
    /// directly to `minpd`/`maxpd`; for the finite bounds a model can
    /// hold the selected values are identical to the scalar path's
    /// `minNum`/`maxNum` semantics (they differ only on NaN inputs,
    /// which positive-volume supports cannot produce).
    #[inline(always)]
    fn overlap_block(self, rect: &Rect, z0: usize, ov: &mut [f64]) {
        debug_assert_eq!(rect.dim(), self.dim);
        if self.dim == 0 {
            // Zero-dimensional supports: |G ∩ B| is the empty product,
            // 1 — matching the scalar `intersection_volume`. Without
            // this, the unwritten buffer would mask every term.
            ov.fill(1.0);
            return;
        }

        #[inline(always)]
        fn overlap(lo: f64, hi: f64, q_lo: f64, q_hi: f64) -> f64 {
            let h = if hi < q_hi { hi } else { q_hi };
            let l = if lo > q_lo { lo } else { q_lo };
            let len = h - l;
            if len > 0.0 {
                len
            } else {
                0.0
            }
        }
        let m = self.len;
        for (d, side) in rect.sides().iter().enumerate() {
            let base = d * m + z0;
            let lows = &self.lo[base..base + ov.len()];
            let highs = &self.hi[base..base + ov.len()];
            if d == 0 {
                for ((o, &l), &h) in ov.iter_mut().zip(lows).zip(highs) {
                    *o = overlap(l, h, side.lo, side.hi);
                }
            } else {
                for ((o, &l), &h) in ov.iter_mut().zip(lows).zip(highs) {
                    *o *= overlap(l, h, side.lo, side.hi);
                }
            }
        }
    }

    /// Adds one block's terms into `acc` sequentially, with the scalar
    /// path's term association (`w * overlap * inv`) and its skip
    /// conditions expressed as a select (see the exactness contract).
    #[inline(always)]
    fn accumulate_block(self, z0: usize, ov: &[f64], acc: &mut f64) {
        let ws = &self.weights[z0..z0 + ov.len()];
        let invs = &self.inv_volumes[z0..z0 + ov.len()];
        for ((&w, &inv), &o) in ws.iter().zip(invs).zip(ov) {
            // Branch-free select instead of the scalar path's skips: both
            // comparisons are evaluated (no short-circuit) and the
            // product's bits are masked, because about one term in three
            // survives, in no predictable order. A masked-out term adds
            // exactly +0.0, which leaves every partial sum's *value*
            // unchanged (only the sign of a zero sum could differ, and
            // 0.0 == -0.0), so results still compare equal to the scalar
            // path. The mask also keeps speculative `w * o * inv` NaNs
            // (zero × infinite reciprocal volume) out of the accumulator,
            // exactly like the skips do.
            let keep = (w != 0.0) & (o > 0.0);
            let term = w * o * inv;
            *acc += f64::from_bits(term.to_bits() & 0u64.wrapping_sub(u64::from(keep)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_2d() -> UniformMixtureModel {
        let rects = vec![
            Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
            Rect::from_bounds(&[(2.0, 3.0), (2.0, 3.0)]),
            Rect::from_bounds(&[(0.5, 2.5), (0.5, 2.5)]),
        ];
        UniformMixtureModel::new(rects, vec![0.3, 0.5, 0.2])
    }

    /// Raw accumulators for `rects` from the dispatched tile loop, or
    /// from the portable body called by name.
    fn raw_bits(m: &UniformMixtureModel, rects: &[Rect], portable: bool) -> Vec<u64> {
        let mut out = Vec::new();
        let sink = |accs: &[f64]| out.extend(accs.iter().map(|a| a.to_bits()));
        let cols = Columns::of(m);
        if portable {
            cols.kernel_tiles_portable(0, rects.len(), &|i| &rects[i], sink);
        } else {
            cols.kernel_tiles(0, rects.len(), &|i| &rects[i], sink);
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn kernel_matches_scalar_bit_for_bit() {
        let m = model_2d();
        let probes = [
            Rect::from_bounds(&[(0.0, 3.0), (0.0, 3.0)]),
            Rect::from_bounds(&[(0.25, 0.75), (0.25, 0.75)]),
            Rect::from_bounds(&[(5.0, 6.0), (5.0, 6.0)]),
            Rect::from_bounds(&[(1.0, 1.0), (0.0, 3.0)]), // zero volume
            Rect::from_bounds(&[(-100.0, 100.0), (-100.0, 100.0)]),
        ];
        // The raw (unclamped) accumulators against the scalar raw sum.
        for (p, raw) in probes.iter().zip(raw_bits(&m, &probes, false)) {
            assert_eq!(f64::from_bits(raw), m.estimate_raw(p));
        }
        let batched = m.estimate_many(&probes);
        for (p, b) in probes.iter().zip(&batched) {
            assert_eq!(m.estimate(p), *b);
        }
    }

    #[test]
    fn empty_model_and_empty_batch() {
        let m = UniformMixtureModel::new(Vec::new(), Vec::new());
        assert_eq!(m.estimate_many(&[Rect::from_bounds(&[(0.0, 1.0)])]), vec![0.0]);
        assert!(model_2d().estimate_many(&[]).is_empty());
    }

    #[test]
    fn blocked_paths_cross_block_boundaries() {
        // More subpops than one block, batch longer than one tile.
        let m_count = SUBPOP_BLOCK * 2 + 7;
        let rects: Vec<Rect> = (0..m_count)
            .map(|z| {
                let lo = (z % 13) as f64 * 0.7;
                Rect::from_bounds(&[(lo, lo + 1.5), (0.0, (z % 5 + 1) as f64)])
            })
            .collect();
        let weights: Vec<f64> = (0..m_count)
            .map(|z| if z % 7 == 0 { 0.0 } else { (z % 3) as f64 * 0.01 - 0.01 })
            .collect();
        let model = UniformMixtureModel::new(rects, weights);
        let probes: Vec<Rect> = (0..RECT_TILE * 2 + 3)
            .map(|i| {
                let lo = (i % 9) as f64;
                Rect::from_bounds(&[(lo, lo + 2.0), (0.5, 4.5)])
            })
            .collect();
        let batched = model.estimate_many(&probes);
        assert_eq!(batched.len(), probes.len());
        for (p, b) in probes.iter().zip(&batched) {
            assert_eq!(model.estimate(p), *b);
        }
    }

    #[test]
    fn dispatched_kernel_equals_the_portable_body_bit_for_bit() {
        // On an AVX2 host the batched entry points run the AVX2 clone;
        // calling the portable body by name keeps the non-AVX2 build
        // under test too.
        let model = |len: usize, dim: usize| {
            let supports = (0..len)
                .map(|z| {
                    let bounds: Vec<(f64, f64)> = (0..dim)
                        .map(|d| {
                            let lo = ((z * (d + 3)) % 13) as f64 * 0.7 - 1.0;
                            (lo, lo + 0.5 + ((z + d) % 5) as f64 * 0.4)
                        })
                        .collect();
                    Rect::from_bounds(&bounds)
                })
                .collect();
            // Zero, negative and positive weights.
            let weights = (0..len).map(|z| ((z % 7) as f64 - 2.0) * 0.013).collect();
            UniformMixtureModel::new(supports, weights)
        };
        let probes = |count: usize, dim: usize| -> Vec<Rect> {
            (0..count)
                .map(|i| {
                    let bounds: Vec<(f64, f64)> = (0..dim)
                        .map(|d| match (i + d) % 5 {
                            0 => (-100.0, 100.0),
                            1 => (50.0, 60.0), // out of domain
                            2 => (1.5, 1.5),   // zero volume
                            _ => {
                                let lo = ((i * 3 + d) % 9) as f64 * 0.6 - 1.0;
                                (lo, lo + 1.0 + (i % 4) as f64)
                            }
                        })
                        .collect();
                    Rect::from_bounds(&bounds)
                })
                .collect()
        };
        let cases = [(1, 2), (SUBPOP_BLOCK, 1), (SUBPOP_BLOCK * 2 + 7, 3), (5, 0)];
        for (len, dim) in cases {
            let m = model(len, dim);
            for count in [1, RECT_TILE, RECT_TILE * 2 + 3, RECT_TILE * 9 + 5] {
                let rects = probes(count, dim);
                let portable = raw_bits(&m, &rects, true);
                assert_eq!(raw_bits(&m, &rects, false), portable, "len={len} dim={dim} B={count}");
                for (r, &raw) in rects.iter().zip(&portable) {
                    assert_eq!(f64::from_bits(raw), m.estimate_raw(r), "raw len={len} dim={dim}");
                }
                let clamped: Vec<u64> =
                    portable.iter().map(|&b| f64::from_bits(b).clamp(0.0, 1.0).to_bits()).collect();
                assert_eq!(bits(&m.estimate_many(&rects)), clamped, "len={len} dim={dim}");
                let indexes: Vec<usize> = (0..count).rev().chain(0..count.min(3)).collect();
                let gathered: Vec<u64> = indexes.iter().map(|&i| clamped[i]).collect();
                assert_eq!(bits(&m.estimate_gather(&rects, &indexes)), gathered, "len={len}");
            }
        }
    }
}
