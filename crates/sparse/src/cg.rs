//! Conjugate-gradient solver for symmetric positive-definite systems.

use crate::csr::CsrMatrix;
use crate::vec_ops::{axpy, dot, norm2, xpby};

/// Result of a CG solve.
#[derive(Debug, Clone)]
pub struct CgOutcome {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖`.
    pub relative_residual: f64,
    /// Whether the tolerance was reached within the iteration budget.
    pub converged: bool,
}

/// Solve `A x = b` by conjugate gradients from a zero initial guess.
pub fn cg_solve(a: &CsrMatrix, b: &[f64], tol: f64, max_iters: usize) -> CgOutcome {
    assert_eq!(a.rows(), a.cols(), "CG needs a square matrix");
    assert_eq!(b.len(), a.rows());
    let n = b.len();
    let bnorm = norm2(b).max(f64::MIN_POSITIVE);
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rsold = dot(&r, &r);
    let mut iterations = 0;
    let mut converged = rsold.sqrt() / bnorm <= tol;
    while !converged && iterations < max_iters {
        a.spmv(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            break; // not SPD (or breakdown); bail out with current iterate
        }
        let alpha = rsold / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let rsnew = dot(&r, &r);
        iterations += 1;
        if rsnew.sqrt() / bnorm <= tol {
            converged = true;
            break;
        }
        xpby(&r, rsnew / rsold, &mut p);
        rsold = rsnew;
    }
    // True residual for reporting.
    let mut ax = vec![0.0; n];
    a.spmv(&x, &mut ax);
    let res: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
    CgOutcome {
        x,
        iterations,
        relative_residual: norm2(&res) / bnorm,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{laplacian_2d, ones};

    #[test]
    fn solves_laplacian_to_tolerance() {
        let a = laplacian_2d(12, 12);
        let b = ones(a.rows());
        let out = cg_solve(&a, &b, 1e-8, 1000);
        assert!(out.converged, "iters={}", out.iterations);
        assert!(out.relative_residual < 1e-7);
        // Verify the solution: A x ≈ b.
        let mut ax = vec![0.0; a.rows()];
        a.spmv(&out.x, &mut ax);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-6);
        }
    }

    #[test]
    fn iteration_budget_is_respected() {
        let a = laplacian_2d(30, 30);
        let b = ones(a.rows());
        let out = cg_solve(&a, &b, 1e-14, 5);
        assert!(!out.converged);
        assert_eq!(out.iterations, 5);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian_2d(4, 4);
        let out = cg_solve(&a, &[0.0; 16], 1e-10, 100);
        assert_eq!(out.iterations, 0);
        assert!(out.converged);
        assert!(out.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn clustered_matrix_is_solvable() {
        let a = crate::gen::clustered_blocks(&[20, 60, 20], 0.6, 5);
        let b = ones(a.rows());
        let out = cg_solve(&a, &b, 1e-8, 2000);
        assert!(out.converged, "residual={}", out.relative_residual);
    }
}
