//! Sparse linear algebra for MNA systems with symbolic-factorization reuse.
//!
//! MNA matrices of the linear circuits in this reproduction (reference
//! ladders, dividers) are >95 % structurally sparse and their sparsity
//! pattern is fixed per topology: it never changes across solves,
//! transient steps, Monte-Carlo samples, or injected parametric defects.
//! This module exploits that with a KLU-style split:
//!
//! 1. [`Symbolic::analyze`] — run **once per topology**: a fill-reducing
//!    minimum-degree ordering of the symmetrized structure followed by a
//!    symbolic elimination that fixes the fill-in pattern of `L + U`.
//! 2. [`Numeric::refactor`] — run **per solve**: a numeric LU restricted to
//!    the precomputed pattern (no pivot search, no pattern discovery), which
//!    costs `O(flops on the static pattern)` instead of the dense `O(n³)`.
//! 3. [`Numeric::solve`] — forward/back substitution on the sparse factors.
//!
//! The factorization uses static (diagonal) pivoting. Node rows carry
//! `gmin` on the diagonal, and a branch row's diagonal fills in when an
//! incident node is eliminated before it; when a pivot still vanishes,
//! [`Numeric::refactor`] reports it and the caller retries on the dense
//! partially-pivoted path in [`crate::matrix`].
//!
//! # Examples
//!
//! ```
//! use symbist_circuit::sparse::{Numeric, Symbolic};
//!
//! // Solve the 2x2 system [2 1; 1 3] x = [3; 5] sparsely.
//! let sym = Symbolic::analyze(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
//! let mut vals = sym.zero_values();
//! *sym.value_mut(&mut vals, 0, 0) += 2.0;
//! *sym.value_mut(&mut vals, 0, 1) += 1.0;
//! *sym.value_mut(&mut vals, 1, 0) += 1.0;
//! *sym.value_mut(&mut vals, 1, 1) += 3.0;
//! let mut num = Numeric::new(&sym);
//! num.refactor(&sym, &vals).expect("nonsingular");
//! let x = num.solve(&sym, &[3.0, 5.0]);
//! assert!((x[0] - 0.8).abs() < 1e-12);
//! assert!((x[1] - 1.4).abs() < 1e-12);
//! ```

use crate::matrix::SingularMatrixError;

/// One-time symbolic analysis of a sparse square matrix: fill-reducing
/// ordering plus the static fill-in pattern of `L + U`.
///
/// The analysis is computed per *structure*; any matrix with the same
/// nonzero positions (every Newton iterate, every transient step, every
/// Monte-Carlo sample of one topology) reuses it unchanged.
#[derive(Debug, Clone)]
pub struct Symbolic {
    n: usize,
    /// `order[k]` = original index eliminated at step `k`.
    order: Vec<usize>,
    /// `inv_order[orig]` = elimination position of original index `orig`.
    inv_order: Vec<usize>,
    /// CSR row pointers over the permuted `L + U` pattern.
    row_ptr: Vec<usize>,
    /// CSR column indices (permuted space), ascending within each row.
    col_idx: Vec<usize>,
    /// Slot of the diagonal entry within each row.
    diag_slot: Vec<usize>,
}

impl Symbolic {
    /// Analyzes the structure given by `entries` (original `(row, col)`
    /// positions, duplicates allowed) of an `n × n` matrix.
    ///
    /// All diagonal positions are implicitly part of the structure: static
    /// pivoting needs a diagonal slot in every row.
    ///
    /// # Panics
    ///
    /// Panics if any entry is out of bounds.
    pub fn analyze(n: usize, entries: &[(usize, usize)]) -> Self {
        // Symmetrized adjacency (undirected graph, no self loops). The LU
        // fill of an unsymmetric matrix under a symmetric permutation is a
        // subset of the symbolic-Cholesky fill of `A + Aᵀ`, so analysing
        // the symmetrized structure gives a safe (slightly padded) pattern.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(r, c) in entries {
            assert!(r < n && c < n, "entry ({r},{c}) out of bounds for n={n}");
            if r != c {
                adj[r].push(c);
                adj[c].push(r);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }

        // Minimum-degree ordering with explicit elimination-graph updates.
        // At each step the uneliminated neighbor set of the pivot is turned
        // into a clique; those neighbor sets are exactly the per-step fill
        // pattern, so ordering and symbolic factorization come out of the
        // same loop. Ties break on the smallest index for determinism.
        let mut eliminated = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut step_neighbors: Vec<Vec<usize>> = Vec::with_capacity(n);
        for _ in 0..n {
            let v = (0..n)
                .filter(|&i| !eliminated[i])
                .min_by_key(|&i| (adj[i].iter().filter(|&&j| !eliminated[j]).count(), i))
                .expect("uneliminated vertex exists");
            eliminated[v] = true;
            let nbrs: Vec<usize> = adj[v].iter().copied().filter(|&j| !eliminated[j]).collect();
            // Clique the neighbors (this is the fill).
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in &nbrs[i + 1..] {
                    // The adjacency is kept symmetric, so b ∉ adj[a]
                    // implies a ∉ adj[b].
                    if let Err(pos) = adj[a].binary_search(&b) {
                        adj[a].insert(pos, b);
                        if let Err(pos) = adj[b].binary_search(&a) {
                            adj[b].insert(pos, a);
                        }
                    }
                }
            }
            order.push(v);
            step_neighbors.push(nbrs);
        }
        let mut inv_order = vec![0usize; n];
        for (k, &v) in order.iter().enumerate() {
            inv_order[v] = k;
        }

        // Assemble the permuted CSR pattern of `L + U`. Row `i` holds:
        // the L part `{k < i : i ∈ nbrs(step k)}`, the diagonal, and the
        // U part `nbrs(step i)` (all positions > i once permuted).
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, nbrs) in step_neighbors.iter().enumerate() {
            rows[k].push(k);
            for &orig in nbrs {
                let i = inv_order[orig];
                debug_assert!(i > k);
                rows[k].push(i); // U entry (k, i)
                rows[i].push(k); // L entry (i, k)
            }
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut diag_slot = Vec::with_capacity(n);
        row_ptr.push(0);
        for (i, row) in rows.iter_mut().enumerate() {
            row.sort_unstable();
            diag_slot.push(col_idx.len() + row.binary_search(&i).expect("diagonal present"));
            col_idx.extend_from_slice(row);
            row_ptr.push(col_idx.len());
        }

        Self {
            n,
            order,
            inv_order,
            row_ptr,
            col_idx,
            diag_slot,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries in the `L + U` pattern (structural nonzeros
    /// plus fill-in).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// A zeroed value vector matching the pattern; stamp through
    /// [`Symbolic::slot`] / [`Symbolic::value_mut`] and hand it to
    /// [`Numeric::refactor`].
    pub fn zero_values(&self) -> Vec<f64> {
        vec![0.0; self.nnz()]
    }

    /// Value-vector slot of original position `(r, c)`, or `None` if the
    /// position is outside the analyzed pattern.
    pub fn slot(&self, r: usize, c: usize) -> Option<usize> {
        if r >= self.n || c >= self.n {
            return None;
        }
        let pi = self.inv_order[r];
        let pj = self.inv_order[c];
        let row = &self.col_idx[self.row_ptr[pi]..self.row_ptr[pi + 1]];
        row.binary_search(&pj).ok().map(|k| self.row_ptr[pi] + k)
    }

    /// Mutable reference to the value at original position `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the pattern or `values` has the
    /// wrong length.
    pub fn value_mut<'a>(&self, values: &'a mut [f64], r: usize, c: usize) -> &'a mut f64 {
        assert_eq!(values.len(), self.nnz(), "value vector length mismatch");
        let slot = self
            .slot(r, c)
            .unwrap_or_else(|| panic!("position ({r},{c}) not in sparse pattern"));
        &mut values[slot]
    }
}

/// Reusable numeric LU factorization over a [`Symbolic`] pattern.
///
/// Construction allocates the factor and scratch buffers once;
/// [`Numeric::refactor`] then refreshes the factor in place for each new
/// set of values without touching the pattern.
#[derive(Debug, Clone)]
pub struct Numeric {
    /// Combined `L` (strict lower, unit diagonal implicit) and `U` values
    /// in the pattern's CSR slots.
    lu: Vec<f64>,
    /// Reciprocal diagonal of `U` (cached for the row-elimination inner
    /// loop and the back substitution).
    inv_diag: Vec<f64>,
    /// Dense scatter workspace, kept zeroed between refactorizations.
    scratch: Vec<f64>,
    /// Substitution workspace for [`Numeric::solve_into`]; the forward pass
    /// writes `y` here and the backward pass overwrites it in place.
    sol: Vec<f64>,
}

impl Numeric {
    /// Allocates workspace for the given pattern.
    pub fn new(symbolic: &Symbolic) -> Self {
        Self {
            lu: vec![0.0; symbolic.nnz()],
            inv_diag: vec![0.0; symbolic.dim()],
            scratch: vec![0.0; symbolic.dim()],
            sol: vec![0.0; symbolic.dim()],
        }
    }

    /// Refactors the matrix whose pattern-aligned values are `values`.
    ///
    /// Row-wise (up-looking Doolittle) elimination restricted to the static
    /// pattern: each row is scattered into a dense workspace, updated by the
    /// already-factored rows its L part touches, and gathered back.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when a diagonal pivot is smaller than
    /// `1e-13` times the largest absolute input value — the caller should
    /// fall back to the dense partially-pivoted factorization.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the pattern size.
    pub fn refactor(&mut self, sym: &Symbolic, values: &[f64]) -> Result<(), SingularMatrixError> {
        assert_eq!(values.len(), sym.nnz(), "value vector length mismatch");
        let n = sym.dim();
        let scale = values
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        let tol = 1e-13 * scale;

        for i in 0..n {
            let (lo, hi) = (sym.row_ptr[i], sym.row_ptr[i + 1]);
            // Scatter row i.
            for (v, &c) in values[lo..hi].iter().zip(&sym.col_idx[lo..hi]) {
                self.scratch[c] = *v;
            }
            // Eliminate with each factored row k < i in this row's pattern.
            for s in lo..sym.diag_slot[i] {
                let k = sym.col_idx[s];
                let f = self.scratch[k] * self.inv_diag[k];
                self.scratch[k] = f;
                if f != 0.0 {
                    for us in (sym.diag_slot[k] + 1)..sym.row_ptr[k + 1] {
                        self.scratch[sym.col_idx[us]] -= f * self.lu[us];
                    }
                }
            }
            let pivot = self.scratch[i];
            if pivot.abs() <= tol {
                // Re-zero the workspace before bailing so a later refactor
                // starts clean.
                for s in lo..hi {
                    self.scratch[sym.col_idx[s]] = 0.0;
                }
                return Err(SingularMatrixError {
                    column: sym.order[i],
                });
            }
            self.inv_diag[i] = 1.0 / pivot;
            // Gather row i and re-zero the workspace.
            for s in lo..hi {
                let c = sym.col_idx[s];
                self.lu[s] = self.scratch[c];
                self.scratch[c] = 0.0;
            }
        }
        Ok(())
    }

    /// Solves `A x = b` with the current factorization.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension.
    pub fn solve(&mut self, sym: &Symbolic, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; sym.dim()];
        self.solve_into(sym, b, &mut x);
        x
    }

    /// Solves `A x = b` into `x` without allocating — the hot path for
    /// repeated transient/Newton solves on a fixed factorization.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` does not match the factored
    /// dimension.
    pub fn solve_into(&mut self, sym: &Symbolic, b: &[f64], x: &mut [f64]) {
        let n = sym.dim();
        assert_eq!(b.len(), n, "rhs dimension mismatch");
        assert_eq!(x.len(), n, "solution dimension mismatch");
        // Forward substitution on L (unit diagonal) with the permutation
        // applied: we solve (P A Pᵀ)(P x) = P b.
        let y = &mut self.sol;
        for i in 0..n {
            let mut sum = b[sym.order[i]];
            for s in sym.row_ptr[i]..sym.diag_slot[i] {
                sum -= self.lu[s] * y[sym.col_idx[s]];
            }
            y[i] = sum;
        }
        // Back substitution on U, overwriting `y` in place: entry `i` only
        // reads entries above it, which are already back-substituted.
        for i in (0..n).rev() {
            let mut sum = y[i];
            for s in (sym.diag_slot[i] + 1)..sym.row_ptr[i + 1] {
                sum -= self.lu[s] * y[sym.col_idx[s]];
            }
            y[i] = sum * self.inv_diag[i];
        }
        // Un-permute.
        for i in 0..n {
            x[sym.order[i]] = y[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::rng::Rng;

    /// Builds a random sparse diagonally-dominant matrix, returns it both
    /// dense and as (symbolic, values).
    fn random_sparse(
        n: usize,
        extra_per_row: usize,
        rng: &mut Rng,
    ) -> (Matrix, Symbolic, Vec<f64>) {
        let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for r in 0..n {
            for _ in 0..extra_per_row {
                let c = rng.below(n as u64) as usize;
                entries.push((r, c));
                entries.push((c, r)); // keep it structurally symmetric-ish
            }
        }
        let sym = Symbolic::analyze(n, &entries);
        let mut vals = sym.zero_values();
        let mut dense = Matrix::zeros(n, n);
        for &(r, c) in &entries {
            let v = if r == c { 0.0 } else { rng.uniform(-1.0, 1.0) };
            *sym.value_mut(&mut vals, r, c) += v;
            dense.add(r, c, v);
        }
        for i in 0..n {
            let d = n as f64 + 1.0;
            *sym.value_mut(&mut vals, i, i) += d;
            dense.add(i, i, d);
        }
        (dense, sym, vals)
    }

    #[test]
    fn matches_dense_on_random_matrices() {
        let mut rng = Rng::seed_from_u64(42);
        for n in [1usize, 2, 5, 13, 40, 90] {
            let (dense, sym, vals) = random_sparse(n, 3, &mut rng);
            let b: Vec<f64> = (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let mut num = Numeric::new(&sym);
            num.refactor(&sym, &vals).unwrap();
            let xs = num.solve(&sym, &b);
            let xd = dense.solve(&b).unwrap();
            for (a, b) in xs.iter().zip(&xd) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn refactor_reuses_pattern() {
        let mut rng = Rng::seed_from_u64(7);
        let (_, sym, mut vals) = random_sparse(25, 2, &mut rng);
        let mut num = Numeric::new(&sym);
        let b: Vec<f64> = (0..25).map(|_| rng.uniform(-1.0, 1.0)).collect();
        // Same pattern, several value sets: refactor must track each.
        for round in 0..5 {
            for v in vals.iter_mut() {
                if *v != 0.0 {
                    *v *= 1.0 + 0.01 * round as f64;
                }
            }
            num.refactor(&sym, &vals).unwrap();
            let x = num.solve(&sym, &b);
            // Verify A x = b directly.
            let mut dense = Matrix::zeros(25, 25);
            for r in 0..25 {
                for c in 0..25 {
                    if let Some(s) = sym.slot(r, c) {
                        dense.add(r, c, vals[s]);
                    }
                }
            }
            let ax = dense.mul_vec(&x);
            for (got, want) in ax.iter().zip(&b) {
                assert!((got - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn singular_reported() {
        let sym = Symbolic::analyze(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let mut vals = sym.zero_values();
        *sym.value_mut(&mut vals, 0, 0) += 1.0;
        *sym.value_mut(&mut vals, 0, 1) += 2.0;
        *sym.value_mut(&mut vals, 1, 0) += 2.0;
        *sym.value_mut(&mut vals, 1, 1) += 4.0;
        let mut num = Numeric::new(&sym);
        assert!(num.refactor(&sym, &vals).is_err());
        // The workspace must be clean afterwards: a good matrix factors.
        *sym.value_mut(&mut vals, 1, 1) += 1.0;
        assert!(num.refactor(&sym, &vals).is_ok());
    }

    #[test]
    fn zero_diagonal_pivot_filled_by_elimination() {
        // MNA-style: branch row with structurally zero diagonal, filled in
        // when the incident node is eliminated first. [g 1; 1 0].
        let sym = Symbolic::analyze(2, &[(0, 0), (0, 1), (1, 0)]);
        let mut vals = sym.zero_values();
        *sym.value_mut(&mut vals, 0, 0) += 1e-3;
        *sym.value_mut(&mut vals, 0, 1) += 1.0;
        *sym.value_mut(&mut vals, 1, 0) += 1.0;
        let mut num = Numeric::new(&sym);
        num.refactor(&sym, &vals).unwrap();
        // A x = [0, 2]: row1 says x0 = 2; row0: 1e-3·2 + x1 = 0.
        let x = num.solve(&sym, &[0.0, 2.0]);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] + 2e-3).abs() < 1e-12);
    }

    #[test]
    fn slot_outside_pattern_is_none() {
        let sym = Symbolic::analyze(3, &[(0, 0), (1, 1), (2, 2)]);
        assert!(sym.slot(0, 0).is_some());
        assert!(sym.slot(0, 2).is_none());
        assert!(sym.slot(5, 0).is_none());
    }

    #[test]
    fn fill_reducing_ordering_beats_natural_on_arrow() {
        // Arrow matrix: dense first row/col. Natural order fills the whole
        // matrix; eliminating the hub last keeps the factor linear-sized.
        let n = 30;
        let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for i in 1..n {
            entries.push((0, i));
            entries.push((i, 0));
        }
        let sym = Symbolic::analyze(n, &entries);
        // Perfect elimination keeps nnz at the structural 3n−2; allow a
        // little slack but reject anything near the dense n² fill.
        assert!(
            sym.nnz() <= 3 * n,
            "min-degree should avoid arrow fill: nnz={}",
            sym.nnz()
        );
    }
}
