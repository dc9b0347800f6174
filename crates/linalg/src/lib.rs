//! Dense linear algebra and quadratic-program solvers for QuickSel.
//!
//! The QuickSel paper trains its mixture model by solving the penalized
//! quadratic program of §4.2 (Problem 3):
//!
//! ```text
//! argmin_w  wᵀQw + λ‖Aw − s‖²      ⇒      w* = (Q + λAᵀA)⁻¹ λAᵀs
//! ```
//!
//! The numeric ecosystem is kept in-repo: this crate provides the dense
//! [`DMatrix`] type, the sparse [`CsrMatrix`] that holds the constraint
//! matrix, blocked matrix multiplication, Gram products,
//! [`cholesky`] and [`lu`] factorizations, and two QP solvers:
//!
//! * [`qp::solve_analytic`] — the closed-form solution above (one
//!   factorization, no iterations); what QuickSel ships.
//! * [`qp::AdmmQp`] — an OSQP-style iterative operator-splitting solver for
//!   the *standard* constrained program `min wᵀQw s.t. Aw = s, w ⪰ 0`;
//!   the baseline of §5.4 / Figure 6.

pub mod cholesky;
pub mod lu;
pub mod matrix;
pub mod qp;
pub mod sparse;
pub mod update;
pub mod vector;

pub use cholesky::{factor_spd, solve_spd, CholeskyFactor, CHOL_BLOCK};
pub use lu::LuFactor;
pub use matrix::DMatrix;
pub use qp::{solve_analytic, AdmmQp, AdmmReport, QpProblem};
pub use sparse::CsrMatrix;
pub use update::UpdatableCholesky;

/// Errors surfaced by factorizations and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix was not positive definite even after jitter retries.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// The matrix was singular to working precision.
    Singular {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// Operand shapes do not conform.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        context: &'static str,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite at pivot {pivot}")
            }
            LinalgError::Singular { pivot } => write!(f, "singular matrix at pivot {pivot}"),
            LinalgError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
        }
    }
}

impl std::error::Error for LinalgError {}
