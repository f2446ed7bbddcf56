//! Dense linear algebra: the reference LU solver.
//!
//! Every transient solves its MNA system with the sparse LU in
//! [`crate::sparse`]. This dense LU with partial pivoting is not a
//! transient backend; it is the independent oracle the sparse solver is
//! property-tested against (plain and transposed solves on random
//! MNA-shaped and `AnalogMac`-shaped systems).
//!
//! ```
//! use resipe_analog::linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
//! let x = a.solve(&[3.0, 5.0]).expect("non-singular");
//! assert!((x[0] - 0.8).abs() < 1e-12);
//! assert!((x[1] - 1.4).abs() < 1e-12);
//! ```

use std::fmt;

/// A dense, row-major square-capable matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Matrix {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        let mut m = Matrix::zeros(rows.len(), cols);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Adds `value` to entry `(row, col)` — the MNA "stamping" primitive.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn stamp(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] += value;
    }

    /// Matrix–vector product `A · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        self.data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Solves `A x = b` by LU decomposition with partial pivoting.
    ///
    /// Returns `None` if the matrix is (numerically) singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len()` differs from the row count.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        let lu = LuFactors::factor(self)?;
        Some(lu.solve(b))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.5e}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A reusable LU factorization (`P A = L U`) of a square matrix.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Combined L (below diagonal, unit diagonal implied) and U storage.
    lu: Vec<f64>,
    /// Row permutation applied to the right-hand side.
    perm: Vec<usize>,
}

impl LuFactors {
    /// Pivot magnitudes below this are treated as singular.
    const SINGULAR_EPS: f64 = 1e-300;

    /// Factors a square matrix; returns `None` if singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn factor(a: &Matrix) -> Option<LuFactors> {
        assert_eq!(a.rows, a.cols, "LU factorization requires a square matrix");
        let n = a.rows;
        let mut lu = a.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivot: pick the largest magnitude in column k.
            let mut pivot_row = k;
            let mut pivot_mag = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let mag = lu[i * n + k].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if pivot_mag < Self::SINGULAR_EPS {
                return None;
            }
            if pivot_row != k {
                for j in 0..n {
                    lu.swap(k * n + j, pivot_row * n + j);
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                for j in (k + 1)..n {
                    lu[i * n + j] -= factor * lu[k * n + j];
                }
            }
        }
        Some(LuFactors { n, lu, perm })
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension.
    #[allow(clippy::needless_range_loop)] // in-place substitution over x
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "dimension mismatch in LU solve");
        let n = self.n;
        // Apply permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.lu[i * n + j] * x[j];
            }
            x[i] = sum;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.lu[i * n + j] * x[j];
            }
            x[i] = sum / self.lu[i * n + i];
        }
        x
    }

    /// Solves `Aᵀ x = b` — the reference for
    /// [`crate::sparse::SparseLu::solve_transposed`].
    ///
    /// With `P A = L U`, `Aᵀ = Uᵀ Lᵀ P`: forward-substitute through `Uᵀ`,
    /// back-substitute through the unit-diagonal `Lᵀ`, then undo the row
    /// permutation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension.
    #[allow(clippy::needless_range_loop)] // in-place substitution over w
    pub fn solve_transposed(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "dimension mismatch in LU solve");
        let n = self.n;
        let mut w = b.to_vec();
        for i in 0..n {
            let mut sum = w[i];
            for j in 0..i {
                sum -= self.lu[j * n + i] * w[j];
            }
            w[i] = sum / self.lu[i * n + i];
        }
        for i in (0..n).rev() {
            let mut sum = w[i];
            for j in (i + 1)..n {
                sum -= self.lu[j * n + i] * w[j];
            }
            w[i] = sum;
        }
        let mut x = vec![0.0; n];
        for (i, &p) in self.perm.iter().enumerate() {
            x[p] = w[i];
        }
        x
    }

    /// The dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve() {
        let a = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        let x = a.solve(&b).expect("identity is non-singular");
        assert_eq!(x, b);
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[3.0, 5.0]).expect("non-singular");
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).expect("non-singular after pivot");
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_matches_mul() {
        let a = Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let x_true = vec![1.0, 2.0, 3.0];
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).expect("spd matrix");
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn factors_are_reusable() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let lu = LuFactors::factor(&a).expect("non-singular");
        assert_eq!(lu.dim(), 2);
        for rhs in [[1.0, 0.0], [0.0, 1.0], [5.0, -3.0]] {
            let x = lu.solve(&rhs);
            let back = a.mul_vec(&x);
            assert!((back[0] - rhs[0]).abs() < 1e-12);
            assert!((back[1] - rhs[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn transposed_solve_round_trips() {
        // Asymmetric on purpose so Aᵀ ≠ A and pivoting kicks in.
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, -1.0, 0.5], &[3.0, 0.0, -2.0]]);
        let lu = LuFactors::factor(&a).expect("non-singular");
        let b = vec![1.0, -2.0, 0.25];
        let x = lu.solve_transposed(&b);
        // Check Aᵀ x = b, i.e. for each column c: Σ_r A[r][c]·x[r] = b[c].
        for c in 0..3 {
            let got: f64 = (0..3).map(|r| a[(r, c)] * x[r]).sum();
            assert!((got - b[c]).abs() < 1e-12, "col {c}: {got} vs {}", b[c]);
        }
    }

    #[test]
    fn stamp_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.stamp(0, 0, 1.5);
        m.stamp(0, 0, 0.5);
        assert_eq!(m[(0, 0)], 2.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::identity(2);
        let s = format!("{m}");
        assert!(s.contains("1.00000e0"));
    }
}
