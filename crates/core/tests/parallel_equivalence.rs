//! Parallel-vs-serial exact-equality suite for the core hot paths.
//!
//! The contract under test (see `quicksel_parallel` and the module docs
//! of `quicksel_core::assembly` / `quicksel_core::batch`): driving the
//! grid-pruned QP assembly and the batched estimation kernel through
//! the workspace pool at **any** thread count produces results that
//! compare equal (`==`) to the serial path — chunks write disjoint
//! output slices and per-entry arithmetic is unchanged, so there is no
//! tolerance to allow, only bitwise agreement to assert.

use proptest::prelude::*;
use quicksel_core::train::build_qp;
use quicksel_core::{SubpopGrid, UniformMixtureModel};
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Rect};
use quicksel_linalg::{CsrMatrix, UpdatableCholesky};
use quicksel_parallel::{with_pool, ThreadPool};

/// Thread counts exercised per case: serial, even split, odd split, and
/// oversubscribed relative to the host.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn domain(dim: usize) -> Domain {
    let cols: Vec<(&str, f64, f64)> =
        ["x", "y", "z", "w"][..dim].iter().map(|&name| (name, 0.0, 10.0)).collect();
    Domain::of_reals(&cols)
}

/// Deterministic pseudo-random supports: enough of them (several
/// hundred) that the parallel gates in `assemble_q`/`assemble_a`
/// actually fire at 2+ threads.
fn supports(dim: usize, m: usize) -> Vec<Rect> {
    let d = domain(dim);
    let b0 = d.full_rect();
    (0..m)
        .map(|z| {
            let bounds: Vec<(f64, f64)> = (0..dim)
                .map(|k| {
                    let lo = ((z * 13 + k * 29) % 97) as f64 * 0.1 - 0.2;
                    let len = 0.3 + ((z * 7 + k * 11) % 31) as f64 * 0.11;
                    (lo, lo + len)
                })
                .collect();
            Rect::from_bounds(&bounds).clamp_to(&b0)
        })
        .filter(|r| r.volume() > 0.0)
        .collect()
}

fn queries(dim: usize, n: usize) -> Vec<ObservedQuery> {
    (0..n)
        .map(|i| {
            let bounds: Vec<(f64, f64)> = (0..dim)
                .map(|k| {
                    let lo = ((i * 5 + k * 3) % 83) as f64 * 0.11 - 1.0;
                    // Every 7th query degenerate, every 11th disjoint
                    // from the domain.
                    let len = if i % 7 == 0 {
                        0.0
                    } else if i % 11 == 0 {
                        (lo - 20.0).abs()
                    } else {
                        0.4 + ((i + k) % 17) as f64 * 0.5
                    };
                    if i % 11 == 0 {
                        (20.0, 20.0 + len)
                    } else {
                        (lo, lo + len)
                    }
                })
                .collect();
            ObservedQuery::new(Rect::from_bounds(&bounds), (i % 9) as f64 * 0.1)
        })
        .collect()
}

/// Asserts the full assembly (`Q`, `A`, `s`) is identical at every
/// thread count, and identical to the naive all-pairs reference.
fn assert_assembly_parallel_equivalent(subpops: &[Rect], obs: &[ObservedQuery]) {
    let serial = with_pool(&ThreadPool::new(1), || SubpopGrid::new(subpops).assemble_qp(obs));
    let naive = build_qp(subpops, obs);
    assert_eq!(naive.q.max_abs_diff(&serial.q), 0.0, "serial diverged from naive Q");
    assert_eq!(naive.a.max_abs_diff(&serial.a), 0.0, "serial diverged from naive A");
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let parallel = with_pool(&pool, || SubpopGrid::new(subpops).assemble_qp(obs));
        assert!(serial.q == parallel.q, "Q diverged at {threads} threads");
        assert!(serial.a == parallel.a, "A diverged at {threads} threads");
        assert_eq!(serial.s, parallel.s, "s diverged at {threads} threads");
        // Each slab's sparse rows are exactly its dense rows' nonzeros,
        // appended in row order.
        let (_, sparse, _) = with_pool(&pool, || SubpopGrid::new(subpops).assemble_a(obs));
        assert!(
            sparse == CsrMatrix::from_dense(&serial.a),
            "sparse A diverged at {threads} threads"
        );
    }
}

#[test]
fn assembly_is_thread_count_invariant() {
    let subpops = supports(2, 400);
    let obs = queries(2, 160);
    assert_assembly_parallel_equivalent(&subpops, &obs);
}

#[test]
fn assembly_three_dims_odd_sizes() {
    // Sizes deliberately not multiples of any chunk count.
    let subpops = supports(3, 257);
    let obs = queries(3, 67);
    assert_assembly_parallel_equivalent(&subpops, &obs);
}

#[test]
fn batched_estimation_is_thread_count_invariant() {
    let rects = supports(2, 300);
    let weights: Vec<f64> = (0..rects.len())
        .map(|z| match z % 9 {
            0 => 0.0,
            1 => -0.002,
            _ => 1.0 / rects.len() as f64,
        })
        .collect();
    let model = UniformMixtureModel::new(rects, weights);
    let probes: Vec<Rect> = queries(2, 500).into_iter().map(|q| q.rect).collect();
    let scalar: Vec<f64> = probes.iter().map(|r| model.estimate(r)).collect();
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let batched = with_pool(&pool, || model.estimate_many(&probes));
        assert_eq!(scalar, batched, "batched kernel diverged at {threads} threads");
        let indexes: Vec<usize> = (0..probes.len()).rev().collect();
        let gathered = with_pool(&pool, || model.estimate_gather(&probes, &indexes));
        for (k, &i) in indexes.iter().enumerate() {
            assert_eq!(scalar[i], gathered[k], "gather diverged at {threads} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random support/query sets, sized so the parallel gates fire:
    /// identical assembly at every thread count.
    #[test]
    fn prop_assembly_thread_count_invariant(
        dim in 1..4usize,
        m in 64..200usize,
        n in 33..90usize,
        seed in 0..1000u64,
    ) {
        let mut subpops = supports(dim, m);
        // Perturb deterministically from the seed so cases differ.
        let b0 = domain(dim).full_rect();
        for (z, r) in subpops.iter_mut().enumerate() {
            let shift = ((seed.wrapping_mul(z as u64 + 1) % 100) as f64) * 0.013;
            let bounds: Vec<(f64, f64)> =
                r.sides().iter().map(|s| (s.lo + shift, s.hi + shift)).collect();
            *r = Rect::from_bounds(&bounds).clamp_to(&b0);
        }
        subpops.retain(|r| r.volume() > 0.0);
        if subpops.is_empty() {
            return Ok(());
        }
        let obs = queries(dim, n);
        assert_assembly_parallel_equivalent(&subpops, &obs);
    }

    /// Random models and batches: the blocked kernel equals the scalar
    /// map at every thread count.
    #[test]
    fn prop_batched_thread_count_invariant(
        dim in 1..3usize,
        m in 70..200usize,
        b in 80..300usize,
    ) {
        let rects = supports(dim, m);
        let weights: Vec<f64> =
            (0..rects.len()).map(|z| ((z % 5) as f64 - 1.0) * 0.004).collect();
        let model = UniformMixtureModel::new(rects, weights);
        let probes: Vec<Rect> = queries(dim, b).into_iter().map(|q| q.rect).collect();
        let scalar: Vec<f64> = probes.iter().map(|r| model.estimate(r)).collect();
        for threads in THREAD_COUNTS {
            let batched =
                with_pool(&ThreadPool::new(threads), || model.estimate_many(&probes));
            prop_assert_eq!(&scalar, &batched, "diverged at {} threads", threads);
        }
    }
}

/// Warm (incremental) refines append each batch to the sparse `A` and
/// fold it into the factor in place, on top of a cold build whose
/// assembly, Gram and factorization fan out over the pool. The whole
/// warm-refine trajectory — `A`, `Aᵀs`, factor, weights, estimates —
/// must be bit-identical at every thread count.
#[test]
fn warm_refine_trajectory_is_thread_count_invariant() {
    use quicksel_core::{QuickSel, RefinePolicy};
    use quicksel_data::{Estimate, Learn};

    let drive = || {
        let mut est = QuickSel::builder(domain(2))
            .refine_policy(RefinePolicy::Manual)
            .fixed_subpops(600)
            .seed(17)
            .build();
        est.observe_batch(&queries(2, 150));
        est.refine().expect("cold train");
        for round in 0..3 {
            let batch: Vec<ObservedQuery> =
                queries(2, 64 * (round + 2)).split_off(64 * (round + 1));
            est.observe_batch(&batch);
            est.refine().expect("warm refine");
            assert!(
                est.last_report().expect("refine ran").assembly_reused,
                "round {round} fell back to a cold rebuild"
            );
        }
        let probes: Vec<Rect> = queries(2, 200).into_iter().map(|q| q.rect).collect();
        let estimates: Vec<f64> = probes.iter().map(|r| est.estimate(r)).collect();
        let state = est.export_state();
        let trainer = state.trainer.expect("trained");
        let weights = state.model.expect("model").1;
        (estimates, trainer.a, trainer.ats, trainer.factor_lower, weights)
    };

    let serial = with_pool(&ThreadPool::new(1), drive);
    for threads in THREAD_COUNTS {
        let parallel = with_pool(&ThreadPool::new(threads), drive);
        assert_eq!(serial.0, parallel.0, "estimates diverged at {threads} threads");
        assert!(serial.1 == parallel.1, "A diverged at {threads} threads");
        assert_eq!(serial.2, parallel.2, "AᵀS diverged at {threads} threads");
        assert!(serial.3 == parallel.3, "factor diverged at {threads} threads");
        assert_eq!(serial.4, parallel.4, "weights diverged at {threads} threads");
    }
}

/// The cold build keeps neither `Q` nor `AᵀA`: it forms its system in
/// `Q`'s buffer and drops the Gram product. Its factor and weights must
/// still equal, bit for bit, a factorization of the dense reference
/// `Q + λ·gram(A) + εI` assembled from the grid, at every thread count.
#[test]
fn cold_factor_equals_the_dense_reference_factorization() {
    use quicksel_core::IncrementalTrainer;

    let (lambda, ridge_rel) = (1e6, 1e-5);
    let subpops = supports(2, 400);
    let obs = queries(2, 160);
    let (factor, weights) = with_pool(&ThreadPool::new(1), || {
        let qp = SubpopGrid::new(&subpops).assemble_qp(&obs);
        let mut system = qp.q.clone();
        system.add_scaled(lambda, &qp.a.gram());
        system.add_diagonal(system.trace() / subpops.len() as f64 * ridge_rel);
        let factor = UpdatableCholesky::factor(system).expect("reference factors");
        let rhs: Vec<f64> = qp.a.t_matvec(&qp.s).iter().map(|v| v * lambda).collect();
        (factor.lower(), factor.solve(&rhs))
    });
    for threads in THREAD_COUNTS {
        let (trainer, model, _) = with_pool(&ThreadPool::new(threads), || {
            IncrementalTrainer::cold(subpops.clone(), &obs, lambda, ridge_rel).expect("cold")
        });
        assert!(
            trainer.export_state().factor_lower == factor,
            "factor diverged at {threads} threads"
        );
        assert_eq!(model.weights(), &weights[..], "weights diverged at {threads} threads");
    }
}
