//! Dense linear algebra for MNA systems.
//!
//! LU with partial pivoting factors every netlist with a diode or MOSFET
//! (the bandgap cores), retries a sparse solve whose static pivot vanished,
//! builds the SC array's step operators, and is the tests' oracle for the
//! sparse path. The module accepts stamp-style (row, col, value)
//! accumulation so the assembly code reads like classic MNA.
//!
//! # Examples
//!
//! ```
//! use symbist_circuit::matrix::Matrix;
//!
//! // Solve a 2x2 system: [2 1; 1 3] x = [3; 5]
//! let mut a = Matrix::zeros(2, 2);
//! a.set(0, 0, 2.0);
//! a.set(0, 1, 1.0);
//! a.set(1, 0, 1.0);
//! a.set(1, 1, 3.0);
//! let x = a.lu().expect("nonsingular").solve(&[3.0, 5.0]);
//! assert!((x[0] - 0.8).abs() < 1e-12);
//! assert!((x[1] - 1.4).abs() < 1e-12);
//! ```

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Error returned when a factorization encounters a (numerically) singular
/// matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Pivot column at which elimination broke down.
    pub column: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular at pivot column {}", self.column)
    }
}

impl std::error::Error for SingularMatrixError {}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
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

    /// Returns the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to the element at `(r, c)` — the MNA "stamp" primitive.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] += v;
    }

    /// Resets every element to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Matrix–vector product `A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *yr = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Computes an LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a pivot smaller than `1e-13` times
    /// the largest absolute entry is encountered.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn lu(&self) -> Result<Lu, SingularMatrixError> {
        assert_eq!(self.rows, self.cols, "LU requires a square matrix");
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = self
            .data
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        let tol = 1e-13 * scale;

        for k in 0..n {
            // Partial pivot: find the largest entry in column k at/below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for r in (k + 1)..n {
                let v = lu[r * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= tol {
                return Err(SingularMatrixError { column: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    lu.swap(k * n + c, pivot_row * n + c);
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[k * n + k];
            for r in (k + 1)..n {
                let factor = lu[r * n + k] / pivot;
                lu[r * n + k] = factor;
                if factor != 0.0 {
                    for c in (k + 1)..n {
                        lu[r * n + c] -= factor * lu[k * n + c];
                    }
                }
            }
        }
        Ok(Lu { n, lu, perm })
    }

    /// Convenience: factor and solve `A x = b` in one call.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if the matrix is singular.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
        Ok(self.lu()?.solve(b))
    }

    /// Infinity-norm of the matrix (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| {
                self.data[r * self.cols..(r + 1) * self.cols]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.5e} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// An LU factorization with row permutation, reusable across multiple
/// right-hand sides (the transient solver refactors only when the topology
/// or a companion conductance changes).
#[derive(Debug, Clone)]
pub struct Lu {
    n: usize,
    /// Combined L (strict lower, unit diagonal implicit) and U (upper).
    lu: Vec<f64>,
    /// Row permutation: solve uses `b[perm[i]]`.
    perm: Vec<usize>,
}

impl Lu {
    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "rhs dimension mismatch");
        let n = self.n;
        // Forward substitution with permutation applied.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[self.perm[i]];
            for (j, yj) in y.iter().enumerate().take(i) {
                sum -= self.lu[i * n + j] * yj;
            }
            y[i] = sum;
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                sum -= self.lu[i * n + j] * xj;
            }
            x[i] = sum / self.lu[i * n + i];
        }
        x
    }

    /// Determinant of the original matrix (product of pivots times
    /// permutation sign).
    pub fn det(&self) -> f64 {
        let n = self.n;
        let mut det: f64 = (0..n).map(|i| self.lu[i * n + i]).product();
        // Count permutation parity.
        let mut seen = vec![false; n];
        let mut transpositions = 0usize;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut len = 0usize;
            let mut i = start;
            while !seen[i] {
                seen[i] = true;
                i = self.perm[i];
                len += 1;
            }
            transpositions += len - 1;
        }
        if transpositions % 2 == 1 {
            det = -det;
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn identity_solve() {
        let m = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let x = m.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn requires_pivoting() {
        // Zero on the diagonal; solvable only with row exchange.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn random_roundtrip() {
        let mut rng = Rng::seed_from_u64(5);
        for n in [1usize, 2, 3, 5, 10, 30] {
            // Diagonally dominated random matrix: always well conditioned.
            let mut a = Matrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    a.set(r, c, rng.uniform(-1.0, 1.0));
                }
                a.add(r, r, n as f64);
            }
            let x_true: Vec<f64> = (0..n).map(|_| rng.uniform(-10.0, 10.0)).collect();
            let b = a.mul_vec(&x_true);
            let x = a.solve(&b).unwrap();
            for (xs, xt) in x.iter().zip(&x_true) {
                assert!((xs - xt).abs() < 1e-8, "n={n}: {xs} vs {xt}");
            }
        }
    }

    #[test]
    fn det_matches_2x2_formula() {
        let a = Matrix::from_rows(&[vec![3.0, 1.0], vec![4.0, 2.0]]);
        let det = a.lu().unwrap().det();
        assert!((det - 2.0).abs() < 1e-12);
    }

    #[test]
    fn det_with_permutation_sign() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let det = a.lu().unwrap().det();
        assert!((det + 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_inf_max_row_sum() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 0.25]]);
        assert!((a.norm_inf() - 3.0).abs() < 1e-15);
    }

    #[test]
    fn stamp_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        a.add(0, 0, 1.0);
        a.add(0, 0, 2.0);
        assert_eq!(a.get(0, 0), 3.0);
        a.clear();
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_get_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }
}
