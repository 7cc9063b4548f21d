//! Compressed sparse row matrices.

/// A square or rectangular sparse matrix in CSR format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointers: `indices[row_ptr[r]..row_ptr[r+1]]` are row `r`'s
    /// column indices.
    row_ptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from coordinate triplets. Duplicate entries are summed;
    /// out-of-range indices panic.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        for &(r, c, _) in &sorted {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
        }
        // Sort with the value as a total-order tiebreaker so duplicate
        // entries are summed in a canonical order — without it, transposing
        // a matrix with 3+ duplicates of one entry could change the
        // floating-point summation order and break exact symmetry.
        sorted.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in sorted {
            if last == Some((r, c)) {
                *values.last_mut().expect("entry exists for duplicate") += v;
            } else {
                indices.push(c);
                values.push(v);
                row_ptr[r + 1] += 1;
                last = Some((r, c));
            }
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices and values of one row.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// Number of nonzeros in one row.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// `y = A·x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "x length mismatch");
        assert_eq!(y.len(), self.rows, "y length mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c];
            }
            *yr = acc;
        }
    }

    /// Iterate all `(row, col, value)` triplets.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Transpose (used to symmetry-check generators in tests).
    pub fn transpose(&self) -> CsrMatrix {
        let t: Vec<(usize, usize, f64)> = self.triplets().map(|(r, c, v)| (c, r, v)).collect();
        CsrMatrix::from_triplets(self.cols, self.rows, &t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
    }

    #[test]
    fn construction_and_access() {
        let a = small();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.row_nnz(1), 3);
        let (cols, vals) = a.row(0);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[2.0, -1.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.row(0).1, &[3.5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_triplet_panics() {
        CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 4.0]);
    }

    #[test]
    fn transpose_of_symmetric_matrix_is_identical() {
        let a = small();
        assert_eq!(a.transpose(), a);
    }

    #[test]
    fn triplets_roundtrip() {
        let a = small();
        let t: Vec<_> = a.triplets().collect();
        let b = CsrMatrix::from_triplets(3, 3, &t);
        assert_eq!(a, b);
    }
}
