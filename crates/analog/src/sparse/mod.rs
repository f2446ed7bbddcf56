//! Sparse MNA solver family: pattern-frozen CSR assembly, fill-reducing
//! ordering, and LU factorization with reusable symbolic structure.
//!
//! The ReSiPE analog datapath is **switch-topology-stable**: switches stamp
//! `r_on` or `r_off` conductances but never appear or vanish, so the MNA
//! sparsity pattern is fixed by the circuit topology alone. The modules
//! here split the solve pipeline along that invariant:
//!
//! - [`matrix`] — [`PatternBuilder`] freezes one symbolic stamping pass
//!   into a [`CsrPattern`]; [`CsrMatrix`] then supports zero-allocation
//!   value refreshes. The [`MnaStamp`] trait lets the symbolic and numeric
//!   assembly passes (and the dense reference in the tests) share a single
//!   stamping routine.
//! - [`order`] — [`min_degree_order`] computes a fill-reducing elimination
//!   order, once per topology: a factorization keeps its column order,
//!   and later factorizations of the same pattern reuse it.
//! - [`lu`] — [`SparseLu::factor`] performs one pivoting Gilbert–Peierls
//!   factorization (the symbolic analysis), after which
//!   [`SparseLu::refactor`] replays value-only changes over the frozen
//!   structure and [`SparseLu::solve_into`] back-substitutes per
//!   right-hand side into caller-owned buffers. Pivot-growth and 1-norm
//!   condition diagnostics ride along.
//!
//! This is the only linear solver the transient engine
//! ([`crate::transient`]) uses, for a two-node RC check and a 128×128
//! tile alike. It reuses factorizations across timesteps, and its
//! `SolverSession` extends the reuse across whole parameter-sweep
//! batches. The dense LU in [`crate::linalg`] remains only as the
//! property-test oracle.

pub mod lu;
pub mod matrix;
pub mod order;

pub use lu::{SparseLu, SparseLuError};
pub use matrix::{CsrMatrix, CsrPattern, MnaStamp, PatternBuilder};
pub use order::min_degree_order;
