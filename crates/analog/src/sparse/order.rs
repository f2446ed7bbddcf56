//! Fill-reducing elimination ordering.
//!
//! A greedy minimum-degree ordering over the symmetrized sparsity pattern.
//! MNA matrices are structurally symmetric (conductance stamps and source
//! incidence rows both come in `(i, j)`/`(j, i)` pairs), so ordering on
//! `pattern(A) = pattern(A + Aᵀ)` is exact for our inputs; the symmetrize
//! step below only defends against hand-built asymmetric test matrices.
//!
//! Minimum degree is the classic SPICE choice (Markowitz with symmetric
//! tie-breaking). A crossbar's MNA graph contains a dense bipartite
//! wordline×bitline block, but that block needs no fill: every wordline
//! is pinned by its held voltage source, so the factor stores the block
//! once, in `U`, and `nnz(L) + nnz(U)` stays at about `nnz(A)`. What
//! would fill it is a *structural* zero on a source branch row's
//! diagonal: the reach search follows that exact zero from each
//! held-node pivot to the branch rows, and every bitline column's reach
//! then spans all of them. [`super::PatternBuilder`] therefore freezes
//! only stamped positions. Min-degree still decides the fill where fill
//! is real — bitline wire ladders, the `AnalogMac` wordline nodes between
//! a switch and a cell — by eliminating the cheap periphery first.
//!
//! The implementation is the straightforward quadratic-ish greedy loop
//! with a lazy binary heap — exact degrees, no supernode detection or
//! element absorption. On the 387-unknown 128×128 tile it costs tens of
//! milliseconds — more than a fresh factorization, and far more than a
//! numeric refactorization — so the transient computes an order only
//! when a fresh factorization needs one and no earlier factorization of
//! the same pattern can lend its own: once per symbolic analysis, never
//! on a run that reuses a [`crate::transient::SolverSession`]'s cached
//! analysis.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::matrix::CsrPattern;

/// Computes a greedy minimum-degree elimination order for `pattern`.
///
/// Returns a permutation `order` such that `order[k]` is the index of the
/// `k`-th pivot. Deterministic: ties break toward the smaller node index.
pub fn min_degree_order(pattern: &CsrPattern) -> Vec<usize> {
    let n = pattern.n();
    // Symmetrized adjacency, diagonal excluded, sorted + deduplicated.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for r in 0..n {
        for idx in pattern.row_ptr()[r]..pattern.row_ptr()[r + 1] {
            let c = pattern.cols()[idx];
            if c != r {
                adj[r].push(c as u32);
                adj[c].push(r as u32);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }

    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Lazy heap of (degree, node); stale entries are skipped on pop.
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((adj[v].len(), v))).collect();

    let mut neighbors: Vec<u32> = Vec::new();
    while let Some(Reverse((deg, v))) = heap.pop() {
        if eliminated[v] || deg != adj[v].len() {
            continue; // stale entry
        }
        eliminated[v] = true;
        order.push(v);

        // Live neighbors of the pivot form a clique in the filled graph.
        neighbors.clear();
        neighbors.extend(adj[v].iter().copied().filter(|&u| !eliminated[u as usize]));
        adj[v] = Vec::new();
        for &u in &neighbors {
            let u = u as usize;
            // Drop the pivot, merge in the clique, keep sorted + unique.
            let mut merged: Vec<u32> = Vec::with_capacity(adj[u].len() + neighbors.len());
            merged.extend(
                adj[u]
                    .iter()
                    .copied()
                    .filter(|&w| w as usize != v && !eliminated[w as usize]),
            );
            merged.extend(neighbors.iter().copied().filter(|&w| w as usize != u));
            merged.sort_unstable();
            merged.dedup();
            adj[u] = merged;
            heap.push(Reverse((adj[u].len(), u)));
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

#[cfg(test)]
mod tests {
    use super::super::matrix::{MnaStamp, PatternBuilder};
    use super::*;

    fn star_pattern(n: usize) -> CsrPattern {
        // Node 0 is the hub; 1..n are leaves.
        let mut b = PatternBuilder::new(n);
        for leaf in 1..n {
            b.add(0, leaf, 0.0);
            b.add(leaf, 0, 0.0);
        }
        b.finish()
    }

    #[test]
    fn order_is_a_permutation() {
        let order = min_degree_order(&star_pattern(6));
        let mut seen = [false; 6];
        for &v in &order {
            assert!(!seen[v]);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hub_of_a_star_is_deferred() {
        // Eliminating the hub early would create a clique over all leaves;
        // min-degree must defer it until its degree has collapsed. (It ties
        // with the final leaf at degree 1, and the smaller-index tie-break
        // then takes the hub second-to-last.)
        let order = min_degree_order(&star_pattern(8));
        assert!(
            order[6] == 0 || order[7] == 0,
            "hub eliminated at position {}",
            order.iter().position(|&v| v == 0).unwrap()
        );
    }

    #[test]
    fn chain_orders_from_the_ends() {
        // A path graph: min-degree starts at a degree-1 endpoint.
        let mut b = PatternBuilder::new(5);
        for i in 0..4 {
            b.add(i, i + 1, 0.0);
            b.add(i + 1, i, 0.0);
        }
        let order = min_degree_order(&b.finish());
        assert!(order[0] == 0 || order[0] == 4);
    }

    #[test]
    fn empty_coupling_is_fine() {
        // No off-diagonal coupling at all: an empty pattern orders by index.
        let b = PatternBuilder::new(3);
        let order = min_degree_order(&b.finish());
        assert_eq!(order, vec![0, 1, 2]);
    }
}
