//! Compressed-sparse-row storage for MNA system matrices.
//!
//! The transient solver stamps every netlist element on every assembly —
//! open switches stamp their (tiny) off-conductance rather than vanishing —
//! so the **sparsity pattern of the MNA matrix is a pure function of the
//! circuit topology**: it never changes between time steps, between switch
//! events, or between runs of structurally identical netlists. This module
//! exploits that invariant by splitting assembly into two phases:
//!
//! 1. a [`PatternBuilder`] collects the `(row, col)` positions touched by
//!    one symbolic stamping pass and freezes them into a [`CsrPattern`];
//! 2. a [`CsrMatrix`] owns the pattern plus a value array, and every
//!    subsequent assembly is a zero-allocation value refresh
//!    ([`CsrMatrix::clear`] + [`MnaStamp::add`] calls).
//!
//! The pattern also carries `PartialEq`, which is how
//! [`crate::transient::SolverSession`] decides whether a cached symbolic
//! factorization (the `SymbolicLu` inside a [`crate::sparse::SparseLu`])
//! can be reused for a new run.

use crate::linalg::Matrix;

/// Sink for MNA stamping: anything that can accumulate `A[row, col] += v`.
///
/// Implemented by [`PatternBuilder`] (which records positions and ignores
/// values), by [`CsrMatrix`] (which requires the position to exist in its
/// frozen pattern), and by the dense reference [`Matrix`]. The transient
/// solver's symbolic and numeric assembly passes share one generic
/// stamping routine, and the sparse ≡ dense property tests stamp the same
/// entries into both matrix kinds through it.
pub trait MnaStamp {
    /// Adds `value` at `(row, col)`.
    fn add(&mut self, row: usize, col: usize, value: f64);
}

impl MnaStamp for Matrix {
    fn add(&mut self, row: usize, col: usize, value: f64) {
        self.stamp(row, col, value);
    }
}

/// Records the set of positions touched by a symbolic stamping pass.
#[derive(Debug, Clone, Default)]
pub struct PatternBuilder {
    n: usize,
    entries: Vec<(usize, usize)>,
}

impl PatternBuilder {
    /// Creates a builder for an `n × n` system.
    pub fn new(n: usize) -> PatternBuilder {
        PatternBuilder {
            n,
            entries: Vec::new(),
        }
    }

    /// Freezes the collected positions into a deduplicated CSR pattern.
    ///
    /// Only stamped positions are structural. A diagonal nobody stamps —
    /// a voltage-source branch row's — would hold an exact zero that can
    /// never win a pivot, yet the factorization's reach search would
    /// follow it and fill every row it links; partial pivoting picks each
    /// pivot from the stamped entries instead.
    pub fn finish(mut self) -> CsrPattern {
        self.entries.sort_unstable();
        self.entries.dedup();
        let mut row_ptr = vec![0usize; self.n + 1];
        let mut cols = Vec::with_capacity(self.entries.len());
        for &(r, c) in &self.entries {
            row_ptr[r + 1] += 1;
            cols.push(c);
        }
        for i in 0..self.n {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrPattern {
            n: self.n,
            row_ptr,
            cols,
        }
    }
}

impl MnaStamp for PatternBuilder {
    fn add(&mut self, row: usize, col: usize, _value: f64) {
        assert!(
            row < self.n && col < self.n,
            "stamp ({row}, {col}) outside {n}×{n} system",
            n = self.n
        );
        self.entries.push((row, col));
    }
}

/// The frozen sparsity pattern of a CSR matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrPattern {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
}

impl CsrPattern {
    /// System dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Row start offsets (length `n + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, sorted within each row.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The value index of `(row, col)`, if the position is structural.
    pub fn index_of(&self, row: usize, col: usize) -> Option<usize> {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.cols[lo..hi]
            .binary_search(&col)
            .ok()
            .map(|off| lo + off)
    }
}

/// A sparse matrix over a frozen [`CsrPattern`].
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    pattern: CsrPattern,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Creates a zero matrix over `pattern`.
    pub fn from_pattern(pattern: CsrPattern) -> CsrMatrix {
        let vals = vec![0.0; pattern.nnz()];
        CsrMatrix { pattern, vals }
    }

    /// The matrix's pattern.
    pub fn pattern(&self) -> &CsrPattern {
        &self.pattern
    }

    /// System dimension.
    pub fn n(&self) -> usize {
        self.pattern.n
    }

    /// The value array, indexed per [`CsrPattern::index_of`].
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Resets every value to zero, keeping pattern and allocation.
    pub fn clear(&mut self) {
        self.vals.fill(0.0);
    }

    /// Largest absolute entry (0 for an all-zero matrix).
    pub fn max_abs(&self) -> f64 {
        self.vals.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// The matrix 1-norm: the largest absolute column sum.
    pub fn norm_one(&self) -> f64 {
        let mut col_sums = vec![0.0f64; self.pattern.n];
        for (idx, &c) in self.pattern.cols.iter().enumerate() {
            col_sums[c] += self.vals[idx].abs();
        }
        col_sums.iter().fold(0.0f64, |m, &v| m.max(v))
    }

    /// Matrix–vector product `A · x` (used by tests and diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.pattern.n, "dimension mismatch in mul_vec");
        let mut y = vec![0.0; self.pattern.n];
        for (r, out) in y.iter_mut().enumerate() {
            let mut sum = 0.0;
            for idx in self.pattern.row_ptr[r]..self.pattern.row_ptr[r + 1] {
                sum += self.vals[idx] * x[self.pattern.cols[idx]];
            }
            *out = sum;
        }
        y
    }
}

impl MnaStamp for CsrMatrix {
    fn add(&mut self, row: usize, col: usize, value: f64) {
        let idx = self
            .pattern
            .index_of(row, col)
            .unwrap_or_else(|| panic!("stamp ({row}, {col}) not in the frozen sparsity pattern"));
        self.vals[idx] += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern_3x3() -> CsrPattern {
        let mut b = PatternBuilder::new(3);
        b.add(0, 0, 0.0);
        b.add(0, 1, 0.0);
        b.add(1, 0, 0.0);
        b.add(2, 1, 0.0);
        b.add(2, 1, 0.0); // duplicate collapses
        b.finish()
    }

    #[test]
    fn pattern_holds_only_stamped_positions_deduplicated() {
        let p = pattern_3x3();
        assert_eq!(p.n(), 3);
        // 4 distinct stamped positions; the unstamped diagonals (1, 1)
        // and (2, 2) stay out.
        assert_eq!(p.nnz(), 4);
        assert_eq!(p.row_ptr(), &[0, 2, 3, 4]);
        assert_eq!(p.cols(), &[0, 1, 0, 1]);
        assert!(p.index_of(0, 0).is_some());
        assert!(p.index_of(1, 1).is_none());
        assert!(p.index_of(2, 2).is_none());
        assert!(p.index_of(0, 2).is_none());
    }

    #[test]
    fn stamping_accumulates_into_pattern() {
        let mut m = CsrMatrix::from_pattern(pattern_3x3());
        m.add(2, 1, 1.5);
        m.add(2, 1, 0.5);
        m.add(0, 0, 3.0);
        assert_eq!(m.vals()[m.pattern().index_of(2, 1).unwrap()], 2.0);
        assert_eq!(m.max_abs(), 3.0);
        let y = m.mul_vec(&[1.0, 2.0, 0.0]);
        assert_eq!(y, vec![3.0, 0.0, 4.0]);
        // 1-norm: column 0 sums |3.0| + |0.0|, column 1 |0.0| + |2.0|.
        assert_eq!(m.norm_one(), 3.0);
        m.clear();
        assert_eq!(m.max_abs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "not in the frozen sparsity pattern")]
    fn stamp_outside_pattern_panics() {
        let mut m = CsrMatrix::from_pattern(pattern_3x3());
        m.add(0, 2, 1.0);
    }

    #[test]
    fn patterns_compare_by_structure() {
        assert_eq!(pattern_3x3(), pattern_3x3());
        let mut b = PatternBuilder::new(3);
        b.add(0, 2, 0.0);
        assert_ne!(pattern_3x3(), b.finish());
    }
}
