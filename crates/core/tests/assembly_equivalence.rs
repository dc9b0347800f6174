//! Equivalence suite for the grid-pruned SoA QP assembly.
//!
//! The contract under test (see `quicksel_core::assembly`): for any
//! subpopulation set and any observed-query set, the grid-pruned
//! `SubpopGrid::assemble_qp` produces the same `Q`, `A`, and `s` as the naive
//! all-pairs `build_qp` — within the issue-level `1e-12` bound, and in
//! fact comparing equal, because every written entry is the same
//! dimension-ordered product and every pruned pair is a zero the naive
//! path also leaves at zero. Inputs deliberately include touching
//! supports, degenerate (zero-volume) query rects, out-of-domain rects,
//! and supports clamped against the domain edge.

use proptest::prelude::*;
use quicksel_core::subpop::size_subpopulations;
use quicksel_core::train::build_qp;
use quicksel_core::SubpopGrid;
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Rect};

fn domain(dim: usize) -> Domain {
    let cols: Vec<(&str, f64, f64)> =
        ["x", "y", "z", "w"][..dim].iter().map(|&name| (name, 0.0, 10.0)).collect();
    Domain::of_reals(&cols)
}

/// Builds clamped supports from `(lo, len)` pairs chunked per dim; the
/// clamp against `B0` produces the edge-collapsed shapes §3.3 generates.
fn supports_from_raw(d: &Domain, raw: &[(f64, f64)], dim: usize) -> Vec<Rect> {
    let b0 = d.full_rect();
    raw.chunks_exact(dim)
        .map(|c| {
            let bounds: Vec<(f64, f64)> =
                c.iter().map(|&(lo, len)| (lo, lo + len.max(1e-3))).collect();
            Rect::from_bounds(&bounds).clamp_to(&b0)
        })
        .filter(|r| r.volume() > 0.0)
        .collect()
}

fn queries_from_raw(raw: &[(f64, f64, f64)], dim: usize) -> Vec<ObservedQuery> {
    raw.chunks_exact(dim)
        .map(|c| {
            // `len` may sample exactly 0.0 ⇒ genuine degenerate rects.
            let bounds: Vec<(f64, f64)> = c.iter().map(|&(lo, len, _)| (lo, lo + len)).collect();
            let sel = c[0].2;
            ObservedQuery::new(Rect::from_bounds(&bounds), sel)
        })
        .collect()
}

fn assert_assembly_equivalent(subpops: &[Rect], queries: &[ObservedQuery]) {
    let naive = build_qp(subpops, queries);
    let pruned = SubpopGrid::new(subpops).assemble_qp(queries);
    assert_eq!(naive.num_params(), pruned.num_params());
    assert_eq!(naive.num_constraints(), pruned.num_constraints());
    let dq = naive.q.max_abs_diff(&pruned.q);
    let da = naive.a.max_abs_diff(&pruned.a);
    assert!(dq <= 1e-12, "Q diverged by {dq}");
    assert!(da <= 1e-12, "A diverged by {da}");
    // The pruned path recomputes identical products, so it is in fact
    // exact — keep the strict check behind the readable tolerance one.
    assert_eq!(dq, 0.0, "Q not bit-identical");
    assert_eq!(da, 0.0, "A not bit-identical");
    assert_eq!(naive.s, pruned.s);
}

#[test]
fn touching_and_identical_supports() {
    // A row of supports that exactly touch (zero-measure overlap), plus
    // exact duplicates and one containing the others.
    let subpops = vec![
        Rect::from_bounds(&[(0.0, 2.0), (0.0, 2.0)]),
        Rect::from_bounds(&[(2.0, 4.0), (0.0, 2.0)]), // touches the first
        Rect::from_bounds(&[(4.0, 6.0), (0.0, 2.0)]),
        Rect::from_bounds(&[(0.0, 2.0), (0.0, 2.0)]), // duplicate
        Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]), // contains all
    ];
    let queries = vec![
        ObservedQuery::new(Rect::from_bounds(&[(2.0, 2.0), (0.0, 10.0)]), 0.0), // degenerate
        ObservedQuery::new(Rect::from_bounds(&[(0.0, 2.0), (0.0, 2.0)]), 0.2),  // == support
        ObservedQuery::new(Rect::from_bounds(&[(-3.0, 0.0), (0.0, 2.0)]), 0.0), // touches edge
    ];
    assert_assembly_equivalent(&subpops, &queries);
}

#[test]
fn clamped_edge_supports() {
    let d = domain(3);
    // Centers on the domain boundary: §3.3's clamp + re-inflate produces
    // sliver supports hugging the edge.
    let centers: Vec<Vec<f64>> = vec![
        vec![0.0, 0.0, 0.0],
        vec![10.0, 10.0, 10.0],
        vec![0.0, 10.0, 5.0],
        vec![5.0, 5.0, 5.0],
        vec![10.0, 0.0, 2.5],
    ];
    let subpops = size_subpopulations(&d, &centers, 3, 1.2);
    let queries = vec![
        ObservedQuery::new(Rect::from_bounds(&[(0.0, 1.0), (9.0, 10.0), (0.0, 10.0)]), 0.1),
        ObservedQuery::new(Rect::from_bounds(&[(9.9, 10.0), (0.0, 0.1), (2.0, 3.0)]), 0.01),
    ];
    assert_assembly_equivalent(&subpops, &queries);
}

#[test]
fn grid_handles_many_duplicated_cells() {
    // All supports piled into one small region: the grid degenerates to
    // a few hot cells and candidate lists approach all-pairs — values
    // must still match.
    let subpops: Vec<Rect> = (0..40)
        .map(|i| {
            let off = (i % 5) as f64 * 0.01;
            Rect::from_bounds(&[(1.0 + off, 1.5 + off), (1.0, 1.5)])
        })
        .collect();
    assert_assembly_equivalent(&subpops, &[]);
}

#[test]
fn scratch_reuse_across_rows_is_clean() {
    // Re-using one scratch across rows must not leak candidates between
    // gathers (the stamp generation must isolate them).
    let d = domain(2);
    let subpops = vec![
        Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
        Rect::from_bounds(&[(8.0, 9.0), (8.0, 9.0)]),
    ];
    let grid = SubpopGrid::new(&subpops);
    let mut scratch = grid.scratch();
    let mut row = vec![0.0; 2];
    grid.constraint_row_into(&Rect::from_bounds(&[(0.0, 2.0), (0.0, 2.0)]), &mut row, &mut scratch);
    assert!(row[0] > 0.0 && row[1] == 0.0);
    grid.constraint_row_into(&Rect::from_bounds(&[(7.0, 9.0), (7.0, 9.0)]), &mut row, &mut scratch);
    assert!(row[0] == 0.0 && row[1] > 0.0, "stale candidate leaked: {row:?}");
    let _ = d;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random clamped supports × random queries (degenerate and
    /// out-of-domain included): pruned assembly equals naive assembly.
    #[test]
    fn prop_pruned_assembly_matches_naive(
        dim in 1..4usize,
        support_raw in prop::collection::vec((-2.0..10.0f64, 0.0..6.0f64), 1..61),
        query_raw in prop::collection::vec((-15.0..15.0f64, 0.0..20.0f64, 0.0..1.0f64), 0..31),
    ) {
        let d = domain(dim);
        let subpops = supports_from_raw(&d, &support_raw, dim);
        if subpops.is_empty() {
            return Ok(());
        }
        let queries = queries_from_raw(&query_raw, dim);
        assert_assembly_equivalent(&subpops, &queries);
    }

    /// §3.3-shaped supports (sized from random centers, so touching and
    /// clamped shapes arise naturally) against workload-shaped queries.
    #[test]
    fn prop_sized_supports_assembly_matches_naive(
        dim in 1..3usize,
        center_raw in prop::collection::vec(0.0..10.0f64, 2..80),
        query_raw in prop::collection::vec((0.0..9.0f64, 0.0..5.0f64, 0.0..1.0f64), 0..21),
    ) {
        let d = domain(dim);
        let centers: Vec<Vec<f64>> =
            center_raw.chunks_exact(dim).map(|c| c.to_vec()).collect();
        if centers.is_empty() {
            return Ok(());
        }
        let subpops = size_subpopulations(&d, &centers, 4, 1.2);
        let queries = queries_from_raw(&query_raw, dim);
        assert_assembly_equivalent(&subpops, &queries);
    }
}
