//! Small dense-vector kernels used across the solvers.

/// Dot product `xᵀy`.
///
/// On x86-64 hosts with AVX2+FMA this dispatches (runtime-detected,
/// memoized) to a 4×256-bit fused-multiply-add kernel — the blocked
/// Cholesky's trailing update is a wall of these dots, and the default
/// SSE2 codegen leaves ~4× of its throughput on the table. The portable
/// fallback is the 4-way unrolled accumulation. The two paths differ
/// by FP reassociation and fusion, so a result is bit-stable only
/// across hosts with the same AVX2+FMA support. The cold Cholesky
/// factor (through this and [`dot4`]) and every triangular solve
/// (through this and [`axpy`]) inherit that: a restart or a replica
/// that replays a WAL tail matches the primary's weights bit for bit
/// only on a host with the same AVX2+FMA support as the primary's.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    // Unconditional: the SIMD path reads y through raw pointers bounded
    // by x.len(), so a mismatch must fail loudly in release builds too,
    // never read out of bounds.
    assert_eq!(x.len(), y.len(), "dot operand length mismatch");
    #[cfg(target_arch = "x86_64")]
    if x.len() >= 16 && x86::fma_enabled() {
        // SAFETY: gated on runtime AVX2+FMA detection; lengths checked
        // equal above.
        return unsafe { x86::dot_avx2_fma(x, y) };
    }
    dot_portable(x, y)
}

/// Four dot products sharing one left-hand side: `x·y0, x·y1, x·y2,
/// x·y3`. The blocked Cholesky's trailing update calls this with the
/// panel row as `x` and four neighbouring output rows as `y*` — the
/// shared `x` loads amortize across four accumulator chains, which is
/// worth another ~1.5× over four independent [`dot`] calls.
#[inline]
pub fn dot4(x: &[f64], y0: &[f64], y1: &[f64], y2: &[f64], y3: &[f64]) -> [f64; 4] {
    // Unconditional for the same reason as in [`dot`].
    let n = x.len();
    assert!(
        y0.len() == n && y1.len() == n && y2.len() == n && y3.len() == n,
        "dot4 operand length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if n >= 16 && x86::fma_enabled() {
        // SAFETY: gated on runtime AVX2+FMA detection; lengths checked
        // equal above.
        return unsafe { x86::dot4_avx2_fma(x, y0, y1, y2, y3) };
    }
    [dot_portable(x, y0), dot_portable(x, y1), dot_portable(x, y2), dot_portable(x, y3)]
}

/// Portable multi-accumulator dot; also the non-x86 / pre-AVX2 path.
#[inline]
fn dot_portable(x: &[f64], y: &[f64]) -> f64 {
    // 4-way unrolled accumulation; keeps the compiler free to vectorize.
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..x.len() {
        s += x[i] * y[i];
    }
    s
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Explicit AVX2+FMA lanes for the dot kernel, picked at run time by
    //! CPU feature detection (no cargo feature needed).

    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_fmadd_pd,
        _mm256_loadu_pd, _mm256_setzero_pd, _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_unpackhi_pd,
    };
    use std::sync::OnceLock;

    /// Runtime AVX2+FMA detection, memoized.
    #[inline]
    pub(super) fn fma_enabled() -> bool {
        static FMA: OnceLock<bool> = OnceLock::new();
        *FMA.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }

    /// 4-accumulator FMA dot (16 doubles per iteration) with a scalar
    /// tail.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (see
    /// [`fma_enabled`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot_avx2_fma(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + 4)),
                _mm256_loadu_pd(yp.add(i + 4)),
                acc1,
            );
            acc2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + 8)),
                _mm256_loadu_pd(yp.add(i + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + 12)),
                _mm256_loadu_pd(yp.add(i + 12)),
                acc3,
            );
            i += 16;
        }
        while i + 4 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
            i += 4;
        }
        let acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
        let mut s = hsum(acc);
        while i < n {
            s += *xp.add(i) * *yp.add(i);
            i += 1;
        }
        s
    }

    /// 4-wide FMA `y += alpha·x`.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (see
    /// [`fma_enabled`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn axpy_avx2_fma(alpha: f64, x: &[f64], y: &mut [f64]) {
        use std::arch::x86_64::{_mm256_set1_pd, _mm256_storeu_pd};
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let av = _mm256_set1_pd(alpha);
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), v);
            i += 4;
        }
        while i < n {
            *yp.add(i) += alpha * *xp.add(i);
            i += 1;
        }
    }

    /// Horizontal sum of a 256-bit accumulator.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(acc: std::arch::x86_64::__m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd::<1>(acc);
        let pair = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)))
    }

    /// Four FMA dots sharing the `x` loads (see [`super::dot4`]).
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (see
    /// [`fma_enabled`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot4_avx2_fma(
        x: &[f64],
        y0: &[f64],
        y1: &[f64],
        y2: &[f64],
        y3: &[f64],
    ) -> [f64; 4] {
        let n = x.len();
        let xp = x.as_ptr();
        let (p0, p1, p2, p3) = (y0.as_ptr(), y1.as_ptr(), y2.as_ptr(), y3.as_ptr());
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut a2 = _mm256_setzero_pd();
        let mut a3 = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 4 <= n {
            let xv = _mm256_loadu_pd(xp.add(i));
            a0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(p0.add(i)), a0);
            a1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(p1.add(i)), a1);
            a2 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(p2.add(i)), a2);
            a3 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(p3.add(i)), a3);
            i += 4;
        }
        let mut out = [hsum(a0), hsum(a1), hsum(a2), hsum(a3)];
        while i < n {
            let xv = *xp.add(i);
            out[0] += xv * *p0.add(i);
            out[1] += xv * *p1.add(i);
            out[2] += xv * *p2.add(i);
            out[3] += xv * *p3.add(i);
            i += 1;
        }
        out
    }
}

/// `y += alpha * x`.
///
/// Runtime-dispatched to 4-wide FMA on capable x86-64 hosts (the Gram
/// accumulation is a wall of these); portable loop elsewhere.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    // Unconditional for the same reason as in [`dot`] — the SIMD path
    // *writes* through raw pointers bounded by x.len().
    assert_eq!(x.len(), y.len(), "axpy operand length mismatch");
    #[cfg(target_arch = "x86_64")]
    if x.len() >= 8 && x86::fma_enabled() {
        // SAFETY: gated on runtime AVX2+FMA detection; lengths checked
        // equal above.
        unsafe { x86::axpy_avx2_fma(alpha, x, y) };
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x) {
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

    #[test]
    fn dispatched_dot_matches_portable() {
        // Long enough to engage the explicit-SIMD path where available;
        // results agree to reassociation tolerance.
        for n in [16usize, 17, 64, 133] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.37 - 20.0).collect();
            let y: Vec<f64> = (0..n).map(|i| 5.0 - (i as f64) * 0.11).collect();
            let d = dot(&x, &y);
            let p = dot_portable(&x, &y);
            assert!((d - p).abs() <= 1e-9 * p.abs().max(1.0), "n={n}: {d} vs {p}");
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
