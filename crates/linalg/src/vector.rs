//! Small dense-vector kernels used across the solvers.
//!
//! [`dot`], [`dot4`] and [`axpy`] carry the blocked Cholesky factor, the
//! Gram product and every triangular solve. Each is written once: a
//! plain unfused loop below 16 elements (8 for `axpy`), and from there on
//! four-element lane groups accumulated with [`f64::mul_add`] and summed
//! in a fixed order. On x86-64 each is also compiled with AVX2 and FMA
//! enabled, and that build runs whenever the host has both. The Cholesky
//! trailing update inlines `dot4`'s body into an AVX2+FMA clone of its
//! own loop instead, because a call per four outputs cost the factor
//! about 8%.
//!
//! Rust specifies `mul_add` as IEEE 754 fusedMultiplyAdd, rounded once on
//! every target, and neither contracts `a*b + c` nor reorders float
//! operations, so both builds, and every host, compute the same bits.
//! The plain build's `mul_add` calls libm's `fma`. On an x86-64 host
//! whose glibc `fma` uses the FMA unit, that made the plain `dot` 4–5×
//! slower than an unfused loop at n = 64 and 600. On a CPU without FMA,
//! libm computes `fma` in software; that cost is not measured.

/// Dot product `xᵀy`.
///
/// From 16 elements on, sixteen fused chains: chain `j` takes the
/// elements at positions ≡ `j` (mod 16), and the 4-blocks left after the
/// last full 16-block go to chains 0–3. The chains combine lane by lane,
/// `(c[l] + c[4+l]) + (c[8+l] + c[12+l])`, then across lanes,
/// `(l0 + l2) + (l1 + l3)`, and the last `len % 4` products unfused.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot operand length mismatch");
    #[cfg(target_arch = "x86_64")]
    if fma_clones() {
        // SAFETY: the host has AVX2 and FMA, the clone's only target features.
        return unsafe { dot_fma(x, y) };
    }
    dot_body(x, y)
}

/// [`dot_body`] compiled for AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn dot_fma(x: &[f64], y: &[f64]) -> f64 {
    dot_body(x, y)
}

/// The one source of [`dot`], inlined into both builds.
#[inline(always)]
fn dot_body(x: &[f64], y: &[f64]) -> f64 {
    let (xb, xt) = x.as_chunks::<4>();
    let (yb, yt) = y.as_chunks::<4>();
    let mut s = if x.len() < 16 {
        let mut acc = [0.0f64; 4];
        for (xs, ys) in xb.iter().zip(yb) {
            for l in 0..4 {
                acc[l] += xs[l] * ys[l];
            }
        }
        acc[0] + acc[1] + acc[2] + acc[3]
    } else {
        let (x16, x4) = xb.as_chunks::<4>();
        let (y16, y4) = yb.as_chunks::<4>();
        let mut c = [[0.0f64; 4]; 4];
        for (xs, ys) in x16.iter().zip(y16) {
            for g in 0..4 {
                fma_lanes(&mut c[g], &xs[g], &ys[g]);
            }
        }
        for (xs, ys) in x4.iter().zip(y4) {
            fma_lanes(&mut c[0], xs, ys);
        }
        let lanes = std::array::from_fn(|l| (c[0][l] + c[1][l]) + (c[2][l] + c[3][l]));
        lane_sum(std::hint::black_box(lanes))
    };
    for (xi, yi) in xt.iter().zip(yt) {
        s += xi * yi;
    }
    s
}

/// Four dot products sharing one left-hand side, `x·y0 .. x·y3`: the
/// trailing update's panel row against four output rows, so each load
/// of `x` feeds four fused groups. From 16 elements on, each output is
/// one fused 4-lane group over the 4-blocks, summed as in [`dot`], plus
/// its unfused tail; below that, each is [`dot`]'s unfused loop.
#[inline]
pub fn dot4(x: &[f64], y0: &[f64], y1: &[f64], y2: &[f64], y3: &[f64]) -> [f64; 4] {
    #[cfg(target_arch = "x86_64")]
    if fma_clones() {
        // SAFETY: the host has AVX2 and FMA, the clone's only target features.
        return unsafe { dot4_fma(x, y0, y1, y2, y3) };
    }
    dot4_body(x, y0, y1, y2, y3)
}

/// [`dot4_body`] compiled for AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn dot4_fma(x: &[f64], y0: &[f64], y1: &[f64], y2: &[f64], y3: &[f64]) -> [f64; 4] {
    dot4_body(x, y0, y1, y2, y3)
}

/// The one source of [`dot4`], inlined into both builds and into both
/// builds of the Cholesky trailing update.
#[inline(always)]
pub(crate) fn dot4_body(x: &[f64], y0: &[f64], y1: &[f64], y2: &[f64], y3: &[f64]) -> [f64; 4] {
    let n = x.len();
    assert!([y0, y1, y2, y3].iter().all(|y| y.len() == n), "dot4 operand length mismatch");
    if n < 16 {
        return [dot_body(x, y0), dot_body(x, y1), dot_body(x, y2), dot_body(x, y3)];
    }
    let (xb, xt) = x.as_chunks::<4>();
    let (b0, t0) = y0.as_chunks::<4>();
    let (b1, t1) = y1.as_chunks::<4>();
    let (b2, t2) = y2.as_chunks::<4>();
    let (b3, t3) = y3.as_chunks::<4>();
    let mut c = [[0.0f64; 4]; 4];
    for ((((xs, a0), a1), a2), a3) in xb.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
        fma_lanes(&mut c[0], xs, a0);
        fma_lanes(&mut c[1], xs, a1);
        fma_lanes(&mut c[2], xs, a2);
        fma_lanes(&mut c[3], xs, a3);
    }
    let mut out = std::hint::black_box(c).map(lane_sum);
    for ((((xi, a0), a1), a2), a3) in xt.iter().zip(t0).zip(t1).zip(t2).zip(t3) {
        out[0] += xi * a0;
        out[1] += xi * a1;
        out[2] += xi * a2;
        out[3] += xi * a3;
    }
    out
}

/// Whether the host runs the AVX2+FMA clones (`std` caches the answer).
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn fma_clones() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// `acc[l] = x[l]·y[l] + acc[l]`, each rounded once.
#[inline(always)]
fn fma_lanes(acc: &mut [f64; 4], x: &[f64; 4], y: &[f64; 4]) {
    for l in 0..4 {
        acc[l] = x[l].mul_add(y[l], acc[l]);
    }
}

/// The sum across one 4-lane group: `(l0 + l2) + (l1 + l3)`. The fused
/// bodies pass their groups through memory ([`std::hint::black_box`])
/// first: otherwise LLVM's SLP vectorizer builds the loop outward from
/// this sum, in 128-bit halves for [`dot`] and across the four outputs
/// for [`dot4`]. Same bits, but a 1.3–3× slower loop.
#[inline(always)]
fn lane_sum(l: [f64; 4]) -> f64 {
    (l[0] + l[2]) + (l[1] + l[3])
}

/// `y += alpha * x`: from 8 elements on, `y = alpha·x + y` fused per
/// element in 4-blocks (the Gram product is a wall of these), with an
/// unfused tail.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy operand length mismatch");
    #[cfg(target_arch = "x86_64")]
    if fma_clones() {
        // SAFETY: the host has AVX2 and FMA, the clone's only target features.
        return unsafe { axpy_fma(alpha, x, y) };
    }
    axpy_body(alpha, x, y)
}

/// [`axpy_body`] compiled for AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn axpy_fma(alpha: f64, x: &[f64], y: &mut [f64]) {
    axpy_body(alpha, x, y)
}

/// The one source of [`axpy`], inlined into both builds.
#[inline(always)]
fn axpy_body(alpha: f64, x: &[f64], y: &mut [f64]) {
    if x.len() < 8 {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
        return;
    }
    let (xb, xt) = x.as_chunks::<4>();
    let (yb, yt) = y.as_chunks_mut::<4>();
    for (ys, xs) in yb.iter_mut().zip(xb) {
        for l in 0..4 {
            ys[l] = alpha.mul_add(xs[l], ys[l]);
        }
    }
    for (yi, xi) in yt.iter_mut().zip(xt) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Max norm `‖x‖∞`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

/// Element-wise clamp of `x` into `[lo_i, hi_i]`.
#[inline]
pub fn clamp_box(x: &mut [f64], lo: &[f64], hi: &[f64]) {
    debug_assert_eq!(x.len(), lo.len());
    debug_assert_eq!(x.len(), hi.len());
    for i in 0..x.len() {
        x[i] = x[i].max(lo[i]).min(hi[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_of_small_vectors() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_handles_remainder_lengths() {
        // Length 7 exercises both the unrolled body and the tail.
        let x = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(dot(&x, &x), 7.0);
    }

    /// Deterministic values whose products round, so that a changed
    /// rounding or summation order shows in the low bits.
    fn wide(n: usize, seed: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7919 + seed * 104_729) % 1013) as f64 / 97.0 - 5.0).collect()
    }

    #[test]
    fn kernels_give_the_same_bits_in_every_build() {
        // Lengths 0–200 reach every branch: the unfused short loops, the
        // 16-blocks, each count of leftover 4-blocks and each scalar
        // tail. The dispatched calls run the AVX2+FMA clones where the
        // host has both; the bodies called by name are the plain build,
        // whose `mul_add` calls libm's `fma`. On such a host this is the
        // cross-host check.
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for n in (0..=200).chain([1000, 1003, 4099]) {
            let x = wide(n, 1);
            let [y0, y1, y2, y3] = [2, 3, 4, 5].map(|seed| wide(n, seed));
            assert_eq!(dot(&x, &y0).to_bits(), dot_body(&x, &y0).to_bits(), "dot n={n}");
            let four = dot4(&x, &y0, &y1, &y2, &y3);
            assert_eq!(bits(&four), bits(&dot4_body(&x, &y0, &y1, &y2, &y3)), "dot4 n={n}");
            let alpha = y2.first().map_or(0.5, |a| a * 1e3);
            let (mut fused, mut plain) = (y1.clone(), y1);
            axpy(alpha, &x, &mut fused);
            axpy_body(alpha, &x, &mut plain);
            assert_eq!(bits(&fused), bits(&plain), "axpy n={n}");
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_inf(&[-7.0, 3.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn clamp_box_clamps_each_element() {
        let mut x = vec![-1.0, 0.5, 9.0];
        clamp_box(&mut x, &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(x, vec![0.0, 0.5, 1.0]);
    }

    proptest! {
        #[test]
        fn prop_dot_symmetric(x in prop::collection::vec(-10.0..10.0f64, 0..40)) {
            let y: Vec<f64> = x.iter().rev().cloned().collect();
            prop_assert!((dot(&x, &y) - dot(&y, &x)).abs() < 1e-9);
        }

        #[test]
        fn prop_norm2_nonnegative_and_scales(x in prop::collection::vec(-10.0..10.0f64, 1..40), a in -3.0..3.0f64) {
            let n = norm2(&x);
            prop_assert!(n >= 0.0);
            let mut ax = x.clone();
            scale(a, &mut ax);
            prop_assert!((norm2(&ax) - a.abs() * n).abs() < 1e-8);
        }
    }
}
