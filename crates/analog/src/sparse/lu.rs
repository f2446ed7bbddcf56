//! Sparse LU factorization with reusable symbolic structure.
//!
//! The factorization is left-looking Gilbert–Peierls: each column's fill
//! pattern is discovered by a depth-first reachability search over the
//! partially built `L`, values are scattered into a dense workspace, and a
//! partial (largest-magnitude) pivot is chosen among the not-yet-pivotal
//! rows. The first factorization therefore produces, as a side effect, the
//! complete **symbolic structure**: the fill-reducing column order it was
//! given, the pivot row sequence it chose, and the exact sparsity patterns
//! of `L` and `U` in pivot coordinates — everything a later factorization
//! of a matrix with the *same pattern but different values* needs.
//!
//! [`SparseLu::refactor`] is that later factorization: a pivot-free replay
//! over the frozen structure, one tight loop per column with no search, no
//! allocation and no graph traversal. This is the KLU/SPICE "refactor"
//! operation, and it is what makes switch-topology-stable transients cheap:
//! the ReSiPE datapath changes element *values* (switch states, held source
//! levels) many times per run but never its *structure*, so one symbolic
//! analysis serves every time step — and, via
//! [`crate::transient::SolverSession`], every run of a parameter sweep.
//!
//! If a frozen pivot goes numerically bad (a value change makes the stored
//! pivot sequence unstable), `refactor` reports [`SparseLuError::PivotLost`]
//! and the caller falls back to a fresh pivoting factorization.
//!
//! The factors also power two diagnostics for near-singular systems:
//! pivot growth `max|U| / max|A|` (tracked for free during factorization)
//! and a Hager-style 1-norm condition estimate ([`SparseLu::rcond_estimate`])
//! that needs only a handful of forward/transposed solves.

use std::fmt;

use super::matrix::CsrMatrix;

/// Failure modes of the sparse factorizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseLuError {
    /// A fresh pivoting factorization found no usable pivot: the matrix is
    /// (numerically) singular.
    Singular {
        /// The elimination position at which no pivot survived.
        position: usize,
    },
    /// A pivot frozen by a previous factorization collapsed during a
    /// value-only refactorization; the caller should re-pivot from scratch.
    PivotLost {
        /// The elimination position whose stored pivot went bad.
        position: usize,
    },
}

impl fmt::Display for SparseLuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseLuError::Singular { position } => {
                write!(f, "sparse LU: singular at elimination position {position}")
            }
            SparseLuError::PivotLost { position } => {
                write!(
                    f,
                    "sparse LU: stored pivot lost at position {position} during refactorization"
                )
            }
        }
    }
}

impl std::error::Error for SparseLuError {}

/// The structure discovered by the first pivoting factorization.
///
/// Everything is stored in *pivot coordinates*: rows are renumbered by the
/// pivot sequence so `L` is strictly lower and `U` strictly upper
/// triangular, and the original matrix's CSR values are routed in through a
/// precomputed scatter plan (`a_*`), making refactorization search-free.
#[derive(Debug, Clone)]
struct SymbolicLu {
    n: usize,
    /// `col_perm[k]` = original column eliminated at position `k`.
    col_perm: Vec<usize>,
    /// `row_perm[k]` = original row chosen as pivot at position `k`.
    row_perm: Vec<usize>,
    /// Strictly-lower `L` pattern, CSC in pivot coordinates, rows sorted.
    l_colptr: Vec<usize>,
    l_rows: Vec<u32>,
    /// Strictly-upper `U` pattern, CSC in pivot coordinates, rows sorted.
    u_colptr: Vec<usize>,
    u_rows: Vec<u32>,
    /// Scatter plan: for position `j`, the A entries landing in that
    /// column as `(pivot_row, index into CsrMatrix::vals)`.
    a_colptr: Vec<usize>,
    a_rows: Vec<u32>,
    a_src: Vec<u32>,
}

/// A sparse LU factorization (`P A Q = L U`) whose symbolic structure is
/// reusable across value-only matrix changes.
#[derive(Debug, Clone)]
pub struct SparseLu {
    sym: SymbolicLu,
    l_vals: Vec<f64>,
    u_vals: Vec<f64>,
    diag: Vec<f64>,
    max_abs_a: f64,
    max_abs_u: f64,
}

/// Pivot magnitudes below this are treated as singular — the same
/// threshold as the dense solver, for error parity.
const SINGULAR_EPS: f64 = 1e-300;

impl SparseLu {
    /// Fresh pivoting factorization of `a` under the column order `order`.
    ///
    /// Discovers the fill pattern and pivot sequence (the symbolic
    /// analysis) as a side effect; subsequent matrices with the same
    /// pattern can be handled by [`SparseLu::refactor`].
    ///
    /// # Errors
    ///
    /// Returns [`SparseLuError::Singular`] if no usable pivot exists at
    /// some elimination position.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..a.n()`.
    pub fn factor(a: &CsrMatrix, order: &[usize]) -> Result<SparseLu, SparseLuError> {
        let n = a.n();
        assert_eq!(order.len(), n, "column order must cover every column");
        let (csc_colptr, csc_rows, csc_vals) = csc_of(a);

        const UNSET: usize = usize::MAX;
        let mut pinv = vec![UNSET; n]; // original row -> pivot position
        let mut row_perm = vec![0usize; n];
        // Per-position L columns as (original row, value); U as
        // (pivot position, value).
        let mut l_cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
        let mut u_cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
        let mut diag = vec![0.0f64; n];

        let mut x = vec![0.0f64; n];
        let mut flag = vec![UNSET; n];
        let mut topo: Vec<u32> = Vec::new();
        let mut stack: Vec<(u32, usize)> = Vec::new();
        let mut max_abs_u = 0.0f64;

        for j in 0..n {
            let col = order[j];
            // Symbolic: reach of A[:, col] through the finished L columns,
            // collected in DFS postorder (reverse = topological).
            topo.clear();
            for &r in &csc_rows[csc_colptr[col]..csc_colptr[col + 1]] {
                let r = r as usize;
                if flag[r] == j {
                    continue;
                }
                flag[r] = j;
                stack.push((r as u32, 0));
                while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                    let node = node as usize;
                    let succ: &[(u32, f64)] = match pinv[node] {
                        UNSET => &[],
                        k => &l_cols[k],
                    };
                    let mut descended = false;
                    while *child < succ.len() {
                        let s = succ[*child].0 as usize;
                        *child += 1;
                        if flag[s] != j {
                            flag[s] = j;
                            stack.push((s as u32, 0));
                            descended = true;
                            break;
                        }
                    }
                    if !descended {
                        topo.push(node as u32);
                        stack.pop();
                    }
                }
            }

            // Numeric: scatter A[:, col], eliminate in topological order.
            for idx in csc_colptr[col]..csc_colptr[col + 1] {
                x[csc_rows[idx] as usize] = csc_vals[idx];
            }
            for &r in topo.iter().rev() {
                let r = r as usize;
                let k = pinv[r];
                if k == UNSET {
                    continue;
                }
                let ukj = x[r];
                for &(rr, lv) in &l_cols[k] {
                    x[rr as usize] -= ukj * lv;
                }
            }

            // Partial pivot among the not-yet-pivotal reach rows.
            let mut pivot_row = UNSET;
            let mut pivot_mag = 0.0f64;
            for &r in &topo {
                let r = r as usize;
                if pinv[r] == UNSET {
                    let mag = x[r].abs();
                    if mag > pivot_mag || (mag == pivot_mag && pivot_row != UNSET && r < pivot_row)
                    {
                        pivot_mag = mag;
                        pivot_row = r;
                    }
                }
            }
            if pivot_row == UNSET || pivot_mag < SINGULAR_EPS || !pivot_mag.is_finite() {
                // Leave the workspace clean for no particular caller —
                // factor() owns all of it — and report the position.
                return Err(SparseLuError::Singular { position: j });
            }
            let piv = x[pivot_row];
            diag[j] = piv;
            max_abs_u = max_abs_u.max(pivot_mag);

            let mut ucol: Vec<(u32, f64)> = Vec::new();
            let mut lcol: Vec<(u32, f64)> = Vec::new();
            for &r in &topo {
                let r = r as usize;
                match pinv[r] {
                    UNSET => {
                        if r != pivot_row {
                            lcol.push((r as u32, x[r] / piv));
                        }
                    }
                    k => {
                        max_abs_u = max_abs_u.max(x[r].abs());
                        ucol.push((k as u32, x[r]));
                    }
                }
                x[r] = 0.0;
            }
            pinv[pivot_row] = j;
            row_perm[j] = pivot_row;
            u_cols.push(ucol);
            l_cols.push(lcol);
        }

        // Pack into pivot coordinates, sorted for deterministic replay.
        let mut l_colptr = vec![0usize; n + 1];
        let mut u_colptr = vec![0usize; n + 1];
        let mut l_rows = Vec::new();
        let mut l_vals = Vec::new();
        let mut u_rows = Vec::new();
        let mut u_vals = Vec::new();
        for j in 0..n {
            let mut lcol: Vec<(u32, f64)> = l_cols[j]
                .iter()
                .map(|&(r, v)| (pinv[r as usize] as u32, v))
                .collect();
            lcol.sort_unstable_by_key(|&(r, _)| r);
            let mut ucol = u_cols[j].clone();
            ucol.sort_unstable_by_key(|&(r, _)| r);
            for (r, v) in lcol {
                l_rows.push(r);
                l_vals.push(v);
            }
            for (r, v) in ucol {
                u_rows.push(r);
                u_vals.push(v);
            }
            l_colptr[j + 1] = l_rows.len();
            u_colptr[j + 1] = u_rows.len();
        }

        // Scatter plan: route every CSR value index to its (position,
        // pivot row) destination so refactor never searches.
        let mut col_pos = vec![0usize; n];
        for (k, &c) in order.iter().enumerate() {
            col_pos[c] = k;
        }
        let pattern = a.pattern();
        let mut a_entries: Vec<(u32, u32, u32)> = Vec::with_capacity(pattern.nnz());
        for (r, &prow) in pinv.iter().enumerate() {
            for idx in pattern.row_ptr()[r]..pattern.row_ptr()[r + 1] {
                let c = pattern.cols()[idx];
                a_entries.push((col_pos[c] as u32, prow as u32, idx as u32));
            }
        }
        a_entries.sort_unstable();
        let mut a_colptr = vec![0usize; n + 1];
        let mut a_rows = Vec::with_capacity(a_entries.len());
        let mut a_src = Vec::with_capacity(a_entries.len());
        for &(pos, prow, src) in &a_entries {
            a_colptr[pos as usize + 1] += 1;
            a_rows.push(prow);
            a_src.push(src);
        }
        for j in 0..n {
            a_colptr[j + 1] += a_colptr[j];
        }

        Ok(SparseLu {
            sym: SymbolicLu {
                n,
                col_perm: order.to_vec(),
                row_perm,
                l_colptr,
                l_rows,
                u_colptr,
                u_rows,
                a_colptr,
                a_rows,
                a_src,
            },
            l_vals,
            u_vals,
            diag,
            max_abs_a: a.max_abs(),
            max_abs_u,
        })
    }

    /// Value-only refactorization over the frozen symbolic structure.
    ///
    /// `a` must have the same sparsity pattern as the matrix this
    /// factorization was created from.
    ///
    /// # Errors
    ///
    /// Returns [`SparseLuError::PivotLost`] if a stored pivot has become
    /// numerically unusable; the caller should fall back to
    /// [`SparseLu::factor`].
    ///
    /// # Panics
    ///
    /// Panics (or produces garbage caught by `PivotLost`) if `a`'s pattern
    /// differs from the factored one; the transient solver guards this by
    /// comparing [`crate::sparse::CsrPattern`]s before reuse.
    pub fn refactor(&mut self, a: &CsrMatrix) -> Result<(), SparseLuError> {
        let n = self.sym.n;
        assert_eq!(a.n(), n, "refactor dimension mismatch");
        let sym = &self.sym;
        let vals = a.vals();
        let mut x = vec![0.0f64; n];
        let mut max_abs_u = 0.0f64;
        for j in 0..n {
            for t in sym.a_colptr[j]..sym.a_colptr[j + 1] {
                x[sym.a_rows[t] as usize] += vals[sym.a_src[t] as usize];
            }
            for t in sym.u_colptr[j]..sym.u_colptr[j + 1] {
                let k = sym.u_rows[t] as usize;
                let ukj = x[k];
                self.u_vals[t] = ukj;
                max_abs_u = max_abs_u.max(ukj.abs());
                if ukj != 0.0 {
                    for s in sym.l_colptr[k]..sym.l_colptr[k + 1] {
                        x[sym.l_rows[s] as usize] -= ukj * self.l_vals[s];
                    }
                }
            }
            let piv = x[j];
            if piv.abs() < SINGULAR_EPS || !piv.is_finite() {
                return Err(SparseLuError::PivotLost { position: j });
            }
            self.diag[j] = piv;
            max_abs_u = max_abs_u.max(piv.abs());
            x[j] = 0.0;
            for t in sym.u_colptr[j]..sym.u_colptr[j + 1] {
                x[sym.u_rows[t] as usize] = 0.0;
            }
            for s in sym.l_colptr[j]..sym.l_colptr[j + 1] {
                let r = sym.l_rows[s] as usize;
                self.l_vals[s] = x[r] / piv;
                x[r] = 0.0;
            }
        }
        self.max_abs_a = a.max_abs();
        self.max_abs_u = max_abs_u;
        Ok(())
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.sym.n;
        let mut scratch = vec![0.0f64; n];
        let mut out = vec![0.0f64; n];
        self.solve_into(b, &mut scratch, &mut out);
        out
    }

    /// Solves `A x = b` into `out` without allocating, using `scratch`
    /// for the permuted intermediate — the transient step loop's solve.
    /// Bit-identical to [`SparseLu::solve`], which calls it.
    ///
    /// # Panics
    ///
    /// Panics if `b`, `scratch` or `out` does not match the factored
    /// dimension.
    pub fn solve_into(&self, b: &[f64], scratch: &mut [f64], out: &mut [f64]) {
        let sym = &self.sym;
        let n = sym.n;
        assert!(
            b.len() == n && scratch.len() == n && out.len() == n,
            "dimension mismatch in sparse LU solve"
        );
        let y = scratch;
        for (yk, &r) in y.iter_mut().zip(&sym.row_perm) {
            *yk = b[r];
        }
        // Forward: L has unit diagonal, strictly-lower entries stored CSC.
        for k in 0..n {
            let yk = y[k];
            if yk != 0.0 {
                for s in sym.l_colptr[k]..sym.l_colptr[k + 1] {
                    y[sym.l_rows[s] as usize] -= self.l_vals[s] * yk;
                }
            }
        }
        // Backward: U diagonal + strictly-upper entries stored CSC.
        for k in (0..n).rev() {
            y[k] /= self.diag[k];
            let yk = y[k];
            if yk != 0.0 {
                for t in sym.u_colptr[k]..sym.u_colptr[k + 1] {
                    y[sym.u_rows[t] as usize] -= self.u_vals[t] * yk;
                }
            }
        }
        for (&yk, &c) in y.iter().zip(&sym.col_perm) {
            out[c] = yk;
        }
    }

    /// Solves `Aᵀ x = b` — needed by the 1-norm condition estimator.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension.
    pub fn solve_transposed(&self, b: &[f64]) -> Vec<f64> {
        let sym = &self.sym;
        let n = sym.n;
        assert_eq!(b.len(), n, "dimension mismatch in sparse LU solve");
        let mut w: Vec<f64> = sym.col_perm.iter().map(|&c| b[c]).collect();
        // Uᵀ is lower triangular: row k of Uᵀ is column k of U (gather).
        for k in 0..n {
            let mut sum = w[k];
            for t in sym.u_colptr[k]..sym.u_colptr[k + 1] {
                sum -= self.u_vals[t] * w[sym.u_rows[t] as usize];
            }
            w[k] = sum / self.diag[k];
        }
        // Lᵀ is unit upper triangular: row k of Lᵀ is column k of L.
        for k in (0..n).rev() {
            let mut sum = w[k];
            for s in sym.l_colptr[k]..sym.l_colptr[k + 1] {
                sum -= self.l_vals[s] * w[sym.l_rows[s] as usize];
            }
            w[k] = sum;
        }
        let mut out = vec![0.0f64; n];
        for k in 0..n {
            out[sym.row_perm[k]] = w[k];
        }
        out
    }

    /// The dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// The column order this factorization eliminated in — what a fresh
    /// re-pivoting factorization of the same pattern reuses instead of
    /// recomputing a fill-reducing order.
    pub(crate) fn column_order(&self) -> &[usize] {
        &self.sym.col_perm
    }

    /// Stored factor entries, `(nnz(L), nnz(U))`: `L`'s strictly-lower
    /// entries (its unit diagonal is implicit) and `U`'s entries including
    /// its diagonal.
    #[cfg(test)]
    pub(crate) fn factor_nnz(&self) -> (usize, usize) {
        (self.sym.l_rows.len(), self.sym.u_rows.len() + self.sym.n)
    }

    /// Pivot growth `max|U| / max|A|` of the most recent factorization —
    /// large values mean the (possibly frozen) pivot sequence is shedding
    /// precision.
    pub fn pivot_growth(&self) -> f64 {
        if self.max_abs_a > 0.0 {
            self.max_abs_u / self.max_abs_a
        } else {
            1.0
        }
    }

    /// Hager-style lower-bound estimate of `1 / (‖A‖₁ · ‖A⁻¹‖₁)`.
    ///
    /// Costs a handful of solves; `a_norm_one` is the 1-norm of the matrix
    /// the current factors were computed from (see
    /// [`CsrMatrix::norm_one`]). Returns a value in `[0, 1]`; near-zero
    /// means solving with these factors loses most of the mantissa.
    pub fn rcond_estimate(&self, a_norm_one: f64) -> f64 {
        let n = self.sym.n;
        if a_norm_one <= 0.0 || n == 0 {
            return 0.0;
        }
        let mut x = vec![1.0 / n as f64; n];
        let mut est = 0.0f64;
        for _ in 0..5 {
            let y = self.solve(&x);
            est = y.iter().map(|v| v.abs()).sum();
            let xi: Vec<f64> = y
                .iter()
                .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
                .collect();
            let z = self.solve_transposed(&xi);
            let (j, zmax) = z
                .iter()
                .enumerate()
                .map(|(i, &v)| (i, v.abs()))
                .fold((0, 0.0), |acc, it| if it.1 > acc.1 { it } else { acc });
            let dot: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
            if zmax <= dot.abs() {
                break;
            }
            x.iter_mut().for_each(|v| *v = 0.0);
            x[j] = 1.0;
        }
        if est <= 0.0 || !est.is_finite() {
            return 0.0;
        }
        (1.0 / (a_norm_one * est)).min(1.0)
    }
}

/// Builds a CSC copy of `a` (column pointers, row indices, values).
fn csc_of(a: &CsrMatrix) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let n = a.n();
    let pattern = a.pattern();
    let mut colptr = vec![0usize; n + 1];
    for &c in pattern.cols() {
        colptr[c + 1] += 1;
    }
    for j in 0..n {
        colptr[j + 1] += colptr[j];
    }
    let mut next = colptr.clone();
    let mut rows = vec![0u32; pattern.nnz()];
    let mut vals = vec![0.0f64; pattern.nnz()];
    for r in 0..n {
        for idx in pattern.row_ptr()[r]..pattern.row_ptr()[r + 1] {
            let c = pattern.cols()[idx];
            rows[next[c]] = r as u32;
            vals[next[c]] = a.vals()[idx];
            next[c] += 1;
        }
    }
    (colptr, rows, vals)
}

#[cfg(test)]
mod tests {
    use super::super::matrix::{MnaStamp, PatternBuilder};
    use super::super::order::min_degree_order;
    use super::*;

    fn build(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut b = PatternBuilder::new(n);
        for &(r, c, _) in entries {
            b.add(r, c, 0.0);
        }
        let mut m = CsrMatrix::from_pattern(b.finish());
        for &(r, c, v) in entries {
            m.add(r, c, v);
        }
        m
    }

    #[test]
    fn solves_small_system() {
        let a = build(2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let order = min_degree_order(a.pattern());
        let lu = SparseLu::factor(&a, &order).expect("non-singular");
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivots_through_zero_diagonal() {
        // MNA voltage-source shape: a structurally zero diagonal block.
        let a = build(2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let order = min_degree_order(a.pattern());
        let lu = SparseLu::factor(&a, &order).expect("pivoting handles it");
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_is_detected() {
        let a = build(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]);
        let order = min_degree_order(a.pattern());
        assert!(matches!(
            SparseLu::factor(&a, &order),
            Err(SparseLuError::Singular { .. })
        ));
    }

    #[test]
    fn refactor_matches_fresh_factor() {
        let entries = [
            (0usize, 0usize, 4.0),
            (0, 2, -1.0),
            (1, 1, 3.0),
            (1, 2, -1.0),
            (2, 0, -1.0),
            (2, 1, -1.0),
            (2, 2, 5.0),
        ];
        let a = build(3, &entries);
        let order = min_degree_order(a.pattern());
        let mut lu = SparseLu::factor(&a, &order).expect("spd-ish");
        // Same pattern, new values.
        let scaled: Vec<_> = entries.iter().map(|&(r, c, v)| (r, c, v * 2.5)).collect();
        let a2 = build(3, &scaled);
        lu.refactor(&a2).expect("pivot survives a uniform scale");
        let b = [1.0, -2.0, 0.5];
        let x = lu.solve(&b);
        let back = a2.mul_vec(&x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        // Transposed solve round-trips too (A is symmetric here, but the
        // code path is independent).
        let xt = lu.solve_transposed(&b);
        for (got, want) in a2.mul_vec(&xt).iter().zip(&b) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_into_reuses_buffers_bit_identically() {
        let a = build(2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let lu = SparseLu::factor(&a, &min_degree_order(a.pattern())).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Buffers left dirty by a previous solve must not leak into the next.
        let (mut scratch, mut out) = (vec![f64::NAN; 2], vec![f64::NAN; 2]);
        for b in [[3.0, 5.0], [-0.5, 7.25]] {
            lu.solve_into(&b, &mut scratch, &mut out);
            assert_eq!(bits(&out), bits(&lu.solve(&b)));
        }
    }

    #[test]
    fn refactor_reports_lost_pivot() {
        let a = build(2, &[(0, 0, 1.0), (1, 1, 1.0), (0, 1, 0.5), (1, 0, 0.5)]);
        let order = min_degree_order(a.pattern());
        let mut lu = SparseLu::factor(&a, &order).expect("fine");
        // Annihilate the matrix: every stored pivot collapses.
        let zeroish = build(2, &[(0, 0, 0.0), (1, 1, 0.0), (0, 1, 0.0), (1, 0, 0.0)]);
        assert!(matches!(
            lu.refactor(&zeroish),
            Err(SparseLuError::PivotLost { .. })
        ));
    }

    #[test]
    fn diagnostics_flag_near_singularity() {
        let healthy = build(2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let order = min_degree_order(healthy.pattern());
        let lu = SparseLu::factor(&healthy, &order).unwrap();
        let rc = lu.rcond_estimate(healthy.norm_one());
        assert!(rc > 1e-3, "healthy rcond {rc}");
        let growth = lu.pivot_growth();
        assert!(
            growth > 0.1 && growth < 10.0 && growth.is_finite(),
            "benign growth, got {growth}"
        );

        // Nearly linearly dependent rows: rcond collapses.
        let sick = build(
            2,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0 + 1e-12)],
        );
        let lu = SparseLu::factor(&sick, &order).unwrap();
        let rc = lu.rcond_estimate(sick.norm_one());
        assert!(rc < 1e-9, "sick rcond {rc}");
    }

    #[test]
    fn error_display() {
        let e = SparseLuError::Singular { position: 3 };
        assert!(e.to_string().contains("singular"));
        let e = SparseLuError::PivotLost { position: 1 };
        assert!(e.to_string().contains("refactorization"));
    }
}
