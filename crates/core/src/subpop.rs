//! Subpopulation generation from observed queries (§3.3).
//!
//! The paper's recipe:
//!
//! 1. generate 10 random points inside every observed predicate rectangle
//!    ("workload-aware points"),
//! 2. simple-random-sample the pool down to `m = min(4n, 4000)` centers,
//! 3. size each subpopulation from the average distance to its 10 nearest
//!    sibling centers so neighbours slightly overlap,
//!
//! clipping everything to the domain box `B0`. Distances are computed in
//! **domain-normalized** coordinates (each column rescaled to `[0,1]`) so
//! that wildly different column scales — e.g. DMV's `model_year` (spanning
//! 60) vs. `registration_date` (spanning 8000) — do not drown each other.

use quicksel_geometry::{Domain, Interval, Rect};
use rand::seq::SliceRandom;
use rand::Rng;

/// Generates `points_per_query` uniform points inside a predicate rect.
///
/// Degenerate (zero-volume) rectangles yield no points.
pub fn workload_points<R: Rng>(rect: &Rect, points_per_query: usize, rng: &mut R) -> Vec<Vec<f64>> {
    if rect.is_empty() {
        return Vec::new();
    }
    (0..points_per_query)
        .map(|_| rect.sides().iter().map(|s| rng.gen_range(s.lo..s.hi)).collect())
        .collect()
}

/// Simple random sampling without replacement down to `m` centers
/// (§3.3 step 2). Returns the pool itself when it is already small enough.
pub fn sample_centers<R: Rng>(pool: &[Vec<f64>], m: usize, rng: &mut R) -> Vec<Vec<f64>> {
    if pool.len() <= m {
        return pool.to_vec();
    }
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    idx.shuffle(rng);
    idx.truncate(m);
    idx.into_iter().map(|i| pool[i].clone()).collect()
}

/// Sizes each center into a hyperrectangle `G_z` (§3.3 step 3).
///
/// For each center, the scalar size is the mean normalized Euclidean
/// distance to the `k` nearest sibling centers; the rectangle's normalized
/// half-width is `overlap_factor · size / 2` in every dimension, mapped
/// back to column units and clipped to `B0`.
///
/// The k-nearest-neighbour search bins the normalized centers into a
/// uniform grid and expands Chebyshev cell rings around each center
/// until the kth-smallest candidate distance is provably smaller than
/// anything an unvisited ring could hold; the k smallest are then taken
/// with `select_nth_unstable` partial selection instead of a full sort —
/// O(m·k)-ish against the reference's O(m² log m). Results are pinned
/// **identical** to [`size_subpopulations_reference`] by the proptest in
/// `tests/incremental_refine.rs`: the candidate superset always contains
/// the true k nearest, and the selected k values are re-sorted before
/// the mean so the summation order matches the reference exactly.
pub fn size_subpopulations(
    domain: &Domain,
    centers: &[Vec<f64>],
    k_neighbors: usize,
    overlap_factor: f64,
) -> Vec<Rect> {
    let m = centers.len();
    if m == 0 {
        return Vec::new();
    }
    let ctx = SizingContext::new(domain, centers);
    let mut rects = Vec::with_capacity(m);
    let mut search = NeighborSearch::new(&ctx);
    for zi in 0..m {
        let half_norm = if m == 1 {
            // Single subpopulation: cover a quarter of each dimension.
            0.25
        } else {
            let k = k_neighbors.min(m - 1);
            let mean = search.mean_knn_distance(&ctx, zi, k);
            (overlap_factor * mean * 0.5).max(1e-6)
        };
        rects.push(ctx.build_rect(domain, centers, zi, half_norm));
    }
    rects
}

/// The pre-optimization sizing path: exact k-NN by computing **all**
/// m−1 distances per center and fully sorting them. Kept as the
/// equivalence reference for [`size_subpopulations`] (the unit tests
/// here and `tests/incremental_refine.rs`).
pub fn size_subpopulations_reference(
    domain: &Domain,
    centers: &[Vec<f64>],
    k_neighbors: usize,
    overlap_factor: f64,
) -> Vec<Rect> {
    let m = centers.len();
    if m == 0 {
        return Vec::new();
    }
    let ctx = SizingContext::new(domain, centers);
    let mut rects = Vec::with_capacity(m);
    let mut dists: Vec<f64> = Vec::with_capacity(m.saturating_sub(1));
    for zi in 0..m {
        let half_norm = if m == 1 {
            // Single subpopulation: cover a quarter of each dimension.
            0.25
        } else {
            dists.clear();
            for zj in 0..m {
                if zi == zj {
                    continue;
                }
                dists.push(ctx.dist(zi, zj));
            }
            let k = k_neighbors.min(dists.len());
            dists.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            let mean: f64 = dists[..k].iter().sum::<f64>() / k as f64;
            (overlap_factor * mean * 0.5).max(1e-6)
        };
        rects.push(ctx.build_rect(domain, centers, zi, half_norm));
    }
    rects
}

/// Shared sizing state: centers normalized into the unit cube plus the
/// rect-construction step both paths share verbatim.
struct SizingContext {
    dim: usize,
    lengths: Vec<f64>,
    /// Normalized coordinates, flattened point-major (`norm[z*d + i]`).
    norm: Vec<f64>,
}

impl SizingContext {
    fn new(domain: &Domain, centers: &[Vec<f64>]) -> Self {
        let d = domain.dim();
        let lengths: Vec<f64> = (0..d).map(|i| domain.bounds(i).length()).collect();
        let lows: Vec<f64> = (0..d).map(|i| domain.bounds(i).lo).collect();
        let mut norm = Vec::with_capacity(centers.len() * d);
        for c in centers {
            for ((&x, &l), &lo) in c.iter().zip(&lengths).zip(&lows) {
                norm.push((x - lo) / l);
            }
        }
        Self { dim: d, lengths, norm }
    }

    fn point(&self, z: usize) -> &[f64] {
        &self.norm[z * self.dim..(z + 1) * self.dim]
    }

    fn dist(&self, a: usize, b: usize) -> f64 {
        let d2: f64 = self.point(a).iter().zip(self.point(b)).map(|(x, y)| (x - y) * (x - y)).sum();
        d2.sqrt()
    }

    /// Maps a normalized half-width back to column units, clips to `B0`,
    /// and re-inflates collapsed sides — identical in both paths.
    fn build_rect(&self, domain: &Domain, centers: &[Vec<f64>], zi: usize, half_norm: f64) -> Rect {
        let sides: Vec<Interval> = (0..self.dim)
            .map(|dim| {
                let half = half_norm * self.lengths[dim];
                Interval::new(centers[zi][dim] - half, centers[zi][dim] + half)
                    .clamp_to(&domain.bounds(dim))
            })
            .collect();
        let mut rect = Rect::new(sides);
        // Clamping at the domain edge can collapse a side; re-inflate
        // minimally so every support has positive volume.
        for (dim, &len) in self.lengths.iter().enumerate() {
            if rect.side(dim).is_empty() {
                let b = domain.bounds(dim);
                let eps = 1e-6 * len;
                let c = centers[zi][dim].clamp(b.lo + eps, b.hi - eps);
                *rect.side_mut(dim) = Interval::new(c - eps, c + eps);
            }
        }
        rect
    }
}

/// Grid-accelerated exact k-NN over normalized centers.
struct NeighborSearch {
    /// Cells per dimension (uniform).
    res: usize,
    /// CSR cell lists over flattened indexes.
    start: Vec<usize>,
    items: Vec<u32>,
    /// Per-center cell coordinates, point-major.
    cell: Vec<usize>,
    cand: Vec<f64>,
    /// Ring-sweep scratch (in-bounds box bounds + odometer state), so
    /// the hot sizing loop allocates nothing per ring.
    lo: Vec<usize>,
    hi: Vec<usize>,
    cur: Vec<usize>,
}

impl NeighborSearch {
    fn new(ctx: &SizingContext) -> Self {
        let m = ctx.norm.len() / ctx.dim.max(1);
        let d = ctx.dim.max(1);
        // ~one center per cell, bounded per dimension AND in total: the
        // ring sweep iterates cell boxes, so `res^d` must stay O(m) or
        // high-dimensional domains would explode the per-ring odometer
        // (res collapses to 1 there and the search gracefully degrades
        // to the all-pairs scan over one cell).
        let mut res = if ctx.dim == 0 {
            1
        } else {
            ((m as f64).powf(1.0 / d as f64).round() as usize).clamp(1, 64)
        };
        let cell_budget = (4 * m.max(16)) as f64;
        while res > 1 && (res as f64).powi(ctx.dim as i32) > cell_budget {
            res -= 1;
        }
        let cells = res.pow(ctx.dim as u32).max(1);
        let mut cell = vec![0usize; m * ctx.dim];
        let mut counts = vec![0usize; cells + 1];
        for z in 0..m {
            let mut flat = 0usize;
            for (i, &x) in ctx.point(z).iter().enumerate() {
                let c = ((x * res as f64) as usize).min(res - 1);
                cell[z * ctx.dim + i] = c;
                flat = flat * res + c;
            }
            counts[flat + 1] += 1;
        }
        for c in 0..cells {
            counts[c + 1] += counts[c];
        }
        let mut items = vec![0u32; m];
        let mut cursor = counts.clone();
        for z in 0..m {
            let flat = ctx
                .point(z)
                .iter()
                .enumerate()
                .fold(0usize, |acc, (i, _)| acc * res + cell[z * ctx.dim + i]);
            items[cursor[flat]] = z as u32;
            cursor[flat] += 1;
        }
        Self {
            res,
            start: counts,
            items,
            cell,
            cand: Vec::new(),
            lo: vec![0; ctx.dim],
            hi: vec![0; ctx.dim],
            cur: vec![0; ctx.dim],
        }
    }

    /// Mean distance to the exact `k` nearest siblings of center `zi`
    /// (`k ≤ m − 1`), summed in ascending order like the reference.
    fn mean_knn_distance(&mut self, ctx: &SizingContext, zi: usize, k: usize) -> f64 {
        if k == 0 {
            // `k_neighbors = 0`: the reference's empty-sum/0 mean is
            // NaN, which the caller's `.max(1e-6)` resolves to the
            // floor half-width — reproduce that instead of underflowing
            // the selection index.
            return f64::NAN;
        }
        let d = ctx.dim;
        self.cand.clear();
        if d == 0 {
            // All centers coincide in a 0-dimensional space.
            return 0.0;
        }
        // Minimum separation a center in an unvisited ring can have:
        // ring ρ is at least (ρ−1) cells away in some dimension.
        let cell_w = 1.0 / self.res as f64;
        let max_ring = self.res; // ring res covers every cell from any home
        let mut ring = 0usize;
        loop {
            self.gather_ring(ctx, zi, ring);
            if self.cand.len() >= k {
                let kth = {
                    let (_, kth, _) = self.cand.select_nth_unstable_by(k - 1, |a, b| {
                        a.partial_cmp(b).expect("finite distances")
                    });
                    *kth
                };
                if ring >= max_ring || kth <= ring as f64 * cell_w {
                    break;
                }
            } else if ring >= max_ring {
                break;
            }
            ring += 1;
        }
        let k = k.min(self.cand.len());
        let (head, _, _) = self
            .cand
            .select_nth_unstable_by(k - 1, |a, b| a.partial_cmp(b).expect("finite distances"));
        // Re-sort the selected k ascending so the sum's term order (and
        // therefore its rounding) matches the fully-sorted reference.
        head.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        let mut sum = 0.0;
        for &v in head.iter() {
            sum += v;
        }
        sum += self.cand[k - 1];
        sum / k as f64
    }

    /// Pushes the distances from `zi` to every center in cells at
    /// Chebyshev ring distance exactly `ring` from `zi`'s home cell.
    fn gather_ring(&mut self, ctx: &SizingContext, zi: usize, ring: usize) {
        let d = ctx.dim;
        let res = self.res;
        let r = ring as isize;
        // Destructure for disjoint field borrows: `home` reads `cell`
        // while the scratch buffers and `cand` mutate.
        let Self { start, items, cell, cand, lo, hi, cur, .. } = self;
        let home = &cell[zi * d..(zi + 1) * d];
        // Iterate only the in-bounds part of the cell box
        // [home − r, home + r]^d (never the out-of-grid coordinates —
        // clamping keeps each ring's iteration within the O(m) cell
        // budget), keeping the cells on the shell (Chebyshev distance
        // exactly `ring`).
        for (i, &h) in home.iter().enumerate() {
            lo[i] = (h as isize - r).max(0) as usize;
            hi[i] = ((h as isize + r) as usize).min(res - 1);
            cur[i] = lo[i];
        }
        'outer: loop {
            let on_shell = cur.iter().zip(home).any(|(&c, &h)| c.abs_diff(h) == ring);
            if on_shell {
                let flat = cur.iter().fold(0usize, |acc, &c| acc * res + c);
                for &z in &items[start[flat]..start[flat + 1]] {
                    if z as usize != zi {
                        cand.push(ctx.dist(zi, z as usize));
                    }
                }
            }
            // Odometer.
            let mut i = d;
            loop {
                if i == 0 {
                    break 'outer;
                }
                i -= 1;
                cur[i] += 1;
                if cur[i] <= hi[i] {
                    break;
                }
                cur[i] = lo[i];
                if i == 0 {
                    break 'outer;
                }
            }
        }
    }
}

/// Full §3.3 pipeline: per-query point clouds → sampled centers → sized
/// supports.
pub fn build_subpopulations<R: Rng>(
    domain: &Domain,
    point_pool: &[Vec<f64>],
    m: usize,
    k_neighbors: usize,
    overlap_factor: f64,
    rng: &mut R,
) -> Vec<Rect> {
    let centers = sample_centers(point_pool, m, rng);
    size_subpopulations(domain, &centers, k_neighbors, overlap_factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(17)
    }

    fn domain() -> Domain {
        Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
    }

    #[test]
    fn points_fall_inside_their_predicate() {
        let r = Rect::from_bounds(&[(2.0, 4.0), (6.0, 9.0)]);
        let pts = workload_points(&r, 10, &mut rng());
        assert_eq!(pts.len(), 10);
        for p in &pts {
            assert!(r.contains_point(p), "{p:?} outside {r}");
        }
    }

    #[test]
    fn empty_rect_yields_no_points() {
        let r = Rect::from_bounds(&[(2.0, 2.0), (6.0, 9.0)]);
        assert!(workload_points(&r, 10, &mut rng()).is_empty());
    }

    #[test]
    fn sampling_caps_pool_size() {
        let pool: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 0.0]).collect();
        let s = sample_centers(&pool, 30, &mut rng());
        assert_eq!(s.len(), 30);
        // All sampled points come from the pool (no duplicates fabricated).
        for p in &s {
            assert!(pool.contains(p));
        }
        // Small pools are passed through.
        let s2 = sample_centers(&pool[..5], 30, &mut rng());
        assert_eq!(s2.len(), 5);
    }

    #[test]
    fn sized_supports_have_positive_volume_inside_domain() {
        let d = domain();
        let pool: Vec<Vec<f64>> =
            (0..50).map(|i| vec![(i % 10) as f64 + 0.5, (i / 10) as f64 + 0.5]).collect();
        let rects = build_subpopulations(&d, &pool, 20, 10, 1.2, &mut rng());
        assert_eq!(rects.len(), 20);
        let b0 = d.full_rect();
        for r in &rects {
            assert!(r.volume() > 0.0);
            assert!(b0.contains_rect(r), "{r} escapes domain");
        }
    }

    #[test]
    fn single_center_covers_a_chunk_of_domain() {
        let d = domain();
        let rects = size_subpopulations(&d, &[vec![5.0, 5.0]], 10, 1.2);
        assert_eq!(rects.len(), 1);
        // Quarter-width per dimension → half the length per side.
        assert!((rects[0].volume() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn denser_clusters_get_smaller_supports() {
        let d = domain();
        // Tight cluster near the origin + one far outlier.
        let mut centers: Vec<Vec<f64>> =
            (0..10).map(|i| vec![0.5 + 0.01 * i as f64, 0.5 + 0.01 * i as f64]).collect();
        centers.push(vec![9.0, 9.0]);
        let rects = size_subpopulations(&d, &centers, 5, 1.2);
        let cluster_vol = rects[0].volume();
        let outlier_vol = rects[10].volume();
        assert!(outlier_vol > 10.0 * cluster_vol, "outlier {outlier_vol} vs cluster {cluster_vol}");
    }

    #[test]
    fn zero_k_neighbors_falls_back_to_floor_like_reference() {
        // `size_subpopulations` is public and takes any k, 0 included:
        // the reference path's 0/0 mean is NaN, resolved to the 1e-6
        // floor; the grid path must not panic and must produce identical
        // rects.
        let d = domain();
        let centers = vec![vec![2.0, 2.0], vec![7.0, 7.0], vec![4.0, 6.0]];
        let fast = size_subpopulations(&d, &centers, 0, 1.2);
        let reference = size_subpopulations_reference(&d, &centers, 0, 1.2);
        assert_eq!(fast.len(), reference.len());
        for (f, r) in fast.iter().zip(&reference) {
            for dim in 0..2 {
                assert_eq!(f.side(dim).lo, r.side(dim).lo);
                assert_eq!(f.side(dim).hi, r.side(dim).hi);
            }
            assert!(f.volume() > 0.0);
        }
    }

    #[test]
    fn edge_centers_are_clamped_not_dropped() {
        let d = domain();
        let centers = vec![vec![0.0, 0.0], vec![10.0, 10.0], vec![5.0, 5.0]];
        let rects = size_subpopulations(&d, &centers, 2, 1.2);
        for r in &rects {
            assert!(r.volume() > 0.0);
            assert!(d.full_rect().contains_rect(r));
        }
    }

    #[test]
    fn high_dimensional_domains_stay_fast_and_exact() {
        // At d=16 the cell budget collapses the grid toward res=1, so
        // the ring sweep degrades to the all-pairs cell instead of
        // iterating a (2r+1)^16 odometer box; results must still match
        // the reference exactly (and finish instantly).
        let d = 16usize;
        let names: Vec<String> = (0..d).map(|i| format!("c{i}")).collect();
        let cols: Vec<(&str, f64, f64)> = names.iter().map(|n| (n.as_str(), 0.0, 10.0)).collect();
        let domain = Domain::of_reals(&cols);
        let centers: Vec<Vec<f64>> = (0..150)
            .map(|z| (0..d).map(|i| ((z * 31 + i * 17) % 100) as f64 * 0.1).collect())
            .collect();
        let fast = size_subpopulations(&domain, &centers, 10, 1.2);
        let reference = size_subpopulations_reference(&domain, &centers, 10, 1.2);
        assert_eq!(fast.len(), reference.len());
        for (f, r) in fast.iter().zip(&reference) {
            for dim in 0..d {
                assert_eq!(f.side(dim).lo, r.side(dim).lo);
                assert_eq!(f.side(dim).hi, r.side(dim).hi);
            }
        }
    }

    #[test]
    fn anisotropic_domains_scale_per_dimension() {
        // One dimension is 1000× wider; supports should follow suit.
        let d = Domain::of_reals(&[("narrow", 0.0, 1.0), ("wide", 0.0, 1000.0)]);
        let centers: Vec<Vec<f64>> =
            (0..20).map(|i| vec![0.05 * i as f64, 50.0 * i as f64]).collect();
        let rects = size_subpopulations(&d, &centers, 5, 1.2);
        for r in &rects {
            let ratio = r.side(1).length() / r.side(0).length();
            assert!(ratio > 100.0, "aspect ratio {ratio} too small");
        }
    }
}
