//! Matrix and problem generators.
//!
//! * [`laplacian_2d`] builds the standard five-point finite-difference
//!   Laplacian on an `nx × ny` grid — the PDE matrix class behind the
//!   paper's PETSc examples (`145² = 21,025` and `301² = 90,601` unknowns).
//! * [`clustered_blocks`] builds matrices whose nonzeros form dense
//!   diagonal clusters of uneven sizes, the structure sketched in
//!   Figure 2(a) where an even 4-way row split cuts dense blocks across
//!   partitions and a tuned uneven split does not.

use crate::csr::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Five-point Laplacian on an `nx × ny` grid (row-major numbering):
/// 4 on the diagonal, −1 for each grid neighbour. Symmetric positive
/// definite, `nx·ny` rows.
pub fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
    assert!(nx > 0 && ny > 0);
    let n = nx * ny;
    let mut t = Vec::with_capacity(5 * n);
    for j in 0..ny {
        for i in 0..nx {
            let r = j * nx + i;
            t.push((r, r, 4.0));
            if i > 0 {
                t.push((r, r - 1, -1.0));
            }
            if i + 1 < nx {
                t.push((r, r + 1, -1.0));
            }
            if j > 0 {
                t.push((r, r - nx, -1.0));
            }
            if j + 1 < ny {
                t.push((r, r + nx, -1.0));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &t)
}

/// A block-clustered sparse matrix in the spirit of Figure 2(a): `sizes`
/// dense diagonal blocks (with `density` fill), connected by a sparse
/// tridiagonal-style coupling so the matrix is irreducible. Made symmetric
/// and diagonally dominant so CG converges.
pub fn clustered_blocks(sizes: &[usize], density: f64, seed: u64) -> CsrMatrix {
    assert!(!sizes.is_empty());
    assert!((0.0..=1.0).contains(&density));
    let n: usize = sizes.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t: Vec<(usize, usize, f64)> = Vec::new();
    let mut start = 0usize;
    for &sz in sizes {
        for i in 0..sz {
            for j in (i + 1)..sz {
                if rng.gen_bool(density) {
                    let v = -rng.gen_range(0.1..1.0);
                    t.push((start + i, start + j, v));
                    t.push((start + j, start + i, v));
                }
            }
        }
        start += sz;
    }
    // Sparse coupling between consecutive rows across the whole matrix.
    for r in 0..n - 1 {
        t.push((r, r + 1, -0.05));
        t.push((r + 1, r, -0.05));
    }
    // Diagonal dominance: diag = 1 + sum |off-diag| per row.
    let mut row_abs = vec![0.0f64; n];
    for &(r, _, v) in &t {
        row_abs[r] += v.abs();
    }
    for (r, &abs) in row_abs.iter().enumerate() {
        t.push((r, r, 1.0 + abs));
    }
    CsrMatrix::from_triplets(n, n, &t)
}

/// A right-hand side of all ones, the conventional test RHS.
pub fn ones(n: usize) -> Vec<f64> {
    vec![1.0; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplacian_dimensions_and_stencil() {
        let a = laplacian_2d(4, 3);
        assert_eq!(a.rows(), 12);
        // Interior point (1,1) = row 5 has all 5 stencil entries.
        assert_eq!(a.row_nnz(5), 5);
        // Corner has 3.
        assert_eq!(a.row_nnz(0), 3);
        // nnz = 5n - 2nx - 2ny boundary corrections.
        assert_eq!(a.nnz(), 5 * 12 - 2 * 4 - 2 * 3);
    }

    #[test]
    fn laplacian_is_symmetric() {
        let a = laplacian_2d(5, 7);
        assert_eq!(a.transpose(), a);
    }

    #[test]
    fn laplacian_row_sums_nonnegative() {
        // Diagonal dominance (weak in the interior, strict at boundaries).
        let a = laplacian_2d(6, 6);
        for r in 0..a.rows() {
            let (_, vals) = a.row(r);
            let sum: f64 = vals.iter().sum();
            assert!(sum >= -1e-12);
        }
    }

    #[test]
    fn clustered_blocks_shape() {
        let a = clustered_blocks(&[10, 40, 10, 20], 0.8, 1);
        assert_eq!(a.rows(), 80);
        assert_eq!(a.transpose(), a);
        // Dense 40-block rows are much heavier than small-block rows.
        let heavy: usize = (10..50).map(|r| a.row_nnz(r)).sum();
        let light: usize = (0..10).map(|r| a.row_nnz(r)).sum();
        assert!(heavy / 40 > light / 10);
    }

    #[test]
    fn clustered_blocks_deterministic_by_seed() {
        let a = clustered_blocks(&[8, 8], 0.5, 42);
        let b = clustered_blocks(&[8, 8], 0.5, 42);
        let c = clustered_blocks(&[8, 8], 0.5, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rhs_generators() {
        assert_eq!(ones(3), vec![1.0, 1.0, 1.0]);
    }
}
