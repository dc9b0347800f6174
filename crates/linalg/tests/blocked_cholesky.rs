//! Blocked-vs-reference Cholesky equivalence at sizes that actually
//! cross panel boundaries (the in-module proptests stay small for
//! speed; this suite covers n ≫ CHOL_BLOCK and the QuickSel-shaped
//! `Q + λAᵀA` system structure).

use proptest::prelude::*;
use quicksel_linalg::{factor_spd, CholeskyFactor, DMatrix, UpdatableCholesky, CHOL_BLOCK};

/// Deterministic diagonally-dominant SPD matrix of order `n`.
fn spd(n: usize, seed: u64) -> DMatrix {
    let mut a = DMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let h = ((i * 31 + j * 17 + seed as usize * 7) % 29) as f64 * 0.03;
            let v = h / (1.0 + 0.25 * (i as f64 - j as f64).abs());
            a.add_to(i, j, v);
            if i != j {
                a.add_to(j, i, v);
            }
        }
        a.add_to(i, i, 4.0);
    }
    a
}

/// A QuickSel-shaped system: `Q`-like sparse symmetric part plus
/// `λ·AᵀA` from a short fat constraint matrix — PSD + ridge.
fn quicksel_shaped(m: usize, n_rows: usize, lambda: f64) -> DMatrix {
    let mut q = DMatrix::zeros(m, m);
    for i in 0..m {
        q.set(i, i, 1.0 + (i % 5) as f64);
        if i + 1 < m {
            q.set(i, i + 1, 0.3);
            q.set(i + 1, i, 0.3);
        }
    }
    let mut a = DMatrix::zeros(n_rows, m);
    for r in 0..n_rows {
        for c in 0..m {
            if (r * 13 + c) % 4 == 0 {
                a.set(r, c, ((r * 7 + c * 3) % 10) as f64 * 0.1);
            }
        }
    }
    let mut sys = q;
    sys.add_scaled(lambda, &a.gram());
    sys.add_diagonal(sys.trace() * 1e-8 / m as f64);
    sys
}

#[test]
fn blocked_matches_reference_across_boundary_sizes() {
    // One below, exactly at, one above, and well past a block boundary.
    for n in [CHOL_BLOCK - 1, CHOL_BLOCK, CHOL_BLOCK + 1, 3 * CHOL_BLOCK + 17] {
        let a = spd(n, n as u64);
        let blocked = CholeskyFactor::new(&a).unwrap();
        let reference = CholeskyFactor::new_reference(&a).unwrap();
        let dl = blocked.l().max_abs_diff(reference.l());
        assert!(dl < 1e-9, "n={n}: factor diverged by {dl}");

        let b: Vec<f64> = (0..n).map(|i| ((i * 11 % 17) as f64) - 8.0).collect();
        let xb = blocked.solve(&b);
        let xr = reference.solve_reference(&b);
        for (u, v) in xb.iter().zip(&xr) {
            assert!((u - v).abs() < 1e-8, "n={n}: solve diverged {u} vs {v}");
        }
        // Residual check against the original matrix, not just the
        // reference: ‖Ax − b‖∞ small relative to ‖b‖∞.
        let r = a.matvec(&xb);
        let resid = r.iter().zip(&b).fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
        assert!(resid < 1e-8, "n={n}: residual {resid}");
    }
}

#[test]
fn quicksel_shaped_system_factors_and_solves() {
    let m = 2 * CHOL_BLOCK + 5;
    let sys = quicksel_shaped(m, m / 4, 1e6);
    let f = factor_spd(&sys).unwrap();
    let x_true: Vec<f64> = (0..m).map(|i| ((i % 9) as f64) * 0.1).collect();
    let b = sys.matvec(&x_true);
    let x = f.solve(&b);
    for (u, v) in x.iter().zip(&x_true) {
        assert!((u - v).abs() < 1e-6, "{u} vs {v}");
    }
}

#[test]
fn in_place_updates_match_refactor_at_scale() {
    // Six rows folded in (fused passes of four and two), then two of
    // them folded back out, against a refactor of the dense system.
    let m = CHOL_BLOCK + 33;
    let lambda = 1e3;
    let sys = quicksel_shaped(m, 10, lambda);
    let rows: Vec<f64> = (0..6)
        .flat_map(|r| {
            (0..m).map(move |c| if (c + r) % 3 == 0 { ((c * 5 + r) % 7) as f64 * 0.1 } else { 0.0 })
        })
        .collect();
    let mut factor = UpdatableCholesky::factor(sys.clone()).unwrap();
    factor.update(&rows, lambda);
    let mut dense = sys;
    for (r, row) in rows.chunks(m).enumerate() {
        if r % 3 == 1 {
            factor.downdate(row, lambda).unwrap();
            continue;
        }
        for (i, &ri) in row.iter().enumerate() {
            for (j, &rj) in row.iter().enumerate() {
                dense.add_to(i, j, lambda * ri * rj);
            }
        }
    }
    let b: Vec<f64> = (0..m).map(|i| 0.01 * (i as f64) - 0.5).collect();
    let updated = factor.solve(&b);
    let refactored = factor_spd(&dense).unwrap().solve(&b);
    for (u, v) in updated.iter().zip(&refactored) {
        assert!((u - v).abs() < 1e-7, "{u} vs {v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random SPD matrices straddling one block boundary: blocked factor
    /// and solves agree with the reference to fp-reassociation tolerance.
    #[test]
    fn prop_blocked_equivalence_medium(
        seed in 0u64..1024,
        extra in 0usize..24,
        x in prop::collection::vec(-2.0..2.0f64, CHOL_BLOCK + 24),
    ) {
        let n = CHOL_BLOCK + extra;
        let a = spd(n, seed);
        let blocked = CholeskyFactor::new(&a).unwrap();
        let reference = CholeskyFactor::new_reference(&a).unwrap();
        prop_assert!(blocked.l().max_abs_diff(reference.l()) < 1e-9);
        let b = a.matvec(&x[..n]);
        let xb = blocked.solve(&b);
        let xr = reference.solve_reference(&b);
        for (u, v) in xb.iter().zip(&xr) {
            prop_assert!((u - v).abs() < 1e-7, "{} vs {}", u, v);
        }
    }
}
