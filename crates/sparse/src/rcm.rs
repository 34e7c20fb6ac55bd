//! Reverse Cuthill–McKee (RCM) bandwidth-reducing ordering.
//!
//! The exact sub-domain solver of the DDM-LU baseline factorises each
//! `Rᵢ A Rᵢᵀ` once per global solve.  Those matrices come from planar FEM
//! meshes, so an envelope (skyline) Cholesky after an RCM reordering has a
//! near-optimal fill for a fraction of the implementation complexity of a
//! general sparse direct solver.  This module computes the permutation; the
//! factorisation lives in [`crate::cholesky`].

use crate::CsrMatrix;

/// Compute the reverse Cuthill–McKee ordering of the symmetric sparsity
/// pattern of `a`.
///
/// Returns `perm` such that `perm[new] = old`: position `new` of the reordered
/// matrix holds original row/column `perm[new]`.  Disconnected components are
/// each ordered separately (the mesh sub-domains produced by the partitioner
/// are connected, but the ordering must not rely on it).
pub(crate) fn reverse_cuthill_mckee(a: &CsrMatrix) -> Vec<usize> {
    let n = a.nrows();
    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let degree = |v: usize| a.row(v).0.len();

    // Start-node selection: the next component starts at the unvisited node
    // of minimal degree (ties broken by smallest index — exactly what a
    // `(0..n).filter(!visited).min_by_key(degree)` scan would pick, since
    // `min_by_key` keeps the first minimum).  A fresh O(n) scan per
    // component is O(n²) on decompositions with many tiny components (the
    // legitimate `k == n` singleton-part shape), so the candidates are
    // sorted by `(degree, index)` once and consumed through a cursor: each
    // node is skipped at most once, making all start selections O(n log n)
    // total while returning the identical ordering.
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_unstable_by_key(|&v| (degree(v), v));
    let mut cursor = 0usize;

    while order.len() < n {
        while visited[by_degree[cursor]] {
            cursor += 1;
        }
        let start = by_degree[cursor];
        // Refine the start by a couple of BFS sweeps towards a peripheral node.
        let start = pseudo_peripheral(a, start);

        let mut queue = std::collections::VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let (cols, _) = a.row(v);
            let mut neighbours: Vec<usize> =
                cols.iter().copied().filter(|&u| u != v && !visited[u]).collect();
            neighbours.sort_unstable_by_key(|&u| degree(u));
            for u in neighbours {
                if !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order.reverse();
    order
}

/// A few BFS sweeps to find an approximately peripheral node starting from
/// `start` (George–Liu heuristic, two iterations are enough in practice).
fn pseudo_peripheral(a: &CsrMatrix, mut start: usize) -> usize {
    let n = a.nrows();
    let mut level = vec![usize::MAX; n];
    for _ in 0..2 {
        for l in level.iter_mut() {
            *l = usize::MAX;
        }
        let mut queue = std::collections::VecDeque::new();
        level[start] = 0;
        queue.push_back(start);
        let mut last = start;
        let mut last_level = 0;
        while let Some(v) = queue.pop_front() {
            let (cols, _) = a.row(v);
            for &u in cols {
                if u != v && level[u] == usize::MAX {
                    level[u] = level[v] + 1;
                    if level[u] > last_level
                        || (level[u] == last_level && a.row(u).0.len() < a.row(last).0.len())
                    {
                        last = u;
                        last_level = level[u];
                    }
                    queue.push_back(u);
                }
            }
        }
        if last == start {
            break;
        }
        start = last;
    }
    start
}

/// Apply a symmetric permutation to a square CSR matrix: returns
/// `B = P A Pᵀ` where `perm[new] = old`.
pub(crate) fn permute_symmetric(a: &CsrMatrix, perm: &[usize]) -> CsrMatrix {
    let n = a.nrows();
    assert_eq!(perm.len(), n, "permutation length mismatch");
    // inverse permutation: old -> new
    let mut inv = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    row_ptr.push(0);
    let mut scratch: Vec<(usize, f64)> = Vec::new();
    for new_r in 0..n {
        let old_r = perm[new_r];
        let (cols, vals) = a.row(old_r);
        scratch.clear();
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            scratch.push((inv[c], v));
        }
        scratch.sort_unstable_by_key(|&(c, _)| c);
        for &(c, v) in &scratch {
            col_idx.push(c);
            values.push(v);
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw_parts(n, n, row_ptr, col_idx, values)
        .expect("symmetric permutation produced an invalid matrix; this is a bug")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    /// Bandwidth of a symmetric sparsity pattern: `max |i - j|` over stored entries.
    fn bandwidth(a: &CsrMatrix) -> usize {
        let mut bw = 0;
        for r in 0..a.nrows() {
            let (cols, _) = a.row(r);
            for &c in cols {
                bw = bw.max(r.abs_diff(c));
            }
        }
        bw
    }

    /// 1D Laplacian (tridiagonal) on `n` nodes but with a scrambled node order,
    /// so RCM has something to improve.
    fn scrambled_path(n: usize) -> (CsrMatrix, Vec<usize>) {
        // map path node i -> scrambled label (i * 7) % n with n coprime to 7
        let label: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(label[i], label[i], 2.0).unwrap();
            if i + 1 < n {
                coo.push(label[i], label[i + 1], -1.0).unwrap();
                coo.push(label[i + 1], label[i], -1.0).unwrap();
            }
        }
        (coo.to_csr(), label)
    }

    #[test]
    fn rcm_is_a_permutation() {
        let (a, _) = scrambled_path(20);
        let perm = reverse_cuthill_mckee(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_reduces_bandwidth_of_scrambled_path() {
        let (a, _) = scrambled_path(50);
        let before = bandwidth(&a);
        let perm = reverse_cuthill_mckee(&a);
        let b = permute_symmetric(&a, &perm);
        let after = bandwidth(&b);
        assert!(after <= before, "bandwidth should not increase: {before} -> {after}");
        // A path graph admits bandwidth 1.
        assert_eq!(after, 1, "RCM should recover the optimal path bandwidth");
    }

    #[test]
    fn permute_symmetric_preserves_spectrum_action() {
        let (a, _) = scrambled_path(10);
        let perm = reverse_cuthill_mckee(&a);
        let b = permute_symmetric(&a, &perm);
        // For any x: (P A Pᵀ) (P x) = P (A x)
        let x: Vec<f64> = (0..10).map(|i| (i as f64 + 1.0).ln()).collect();
        let px: Vec<f64> = perm.iter().map(|&old| x[old]).collect();
        let lhs = b.spmv(&px);
        let ax = a.spmv(&x);
        let rhs: Vec<f64> = perm.iter().map(|&old| ax[old]).collect();
        for (l, r) in lhs.iter().zip(rhs.iter()) {
            assert!((l - r).abs() < 1e-12);
        }
    }

    #[test]
    fn handles_disconnected_components() {
        // Two disjoint edges: {0-1}, {2-3}
        let mut coo = CooMatrix::new(4, 4);
        for &(i, j) in &[(0usize, 1usize), (2, 3)] {
            coo.push(i, i, 2.0).unwrap();
            coo.push(j, j, 2.0).unwrap();
            coo.push(i, j, -1.0).unwrap();
            coo.push(j, i, -1.0).unwrap();
        }
        let a = coo.to_csr();
        let perm = reverse_cuthill_mckee(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bandwidth_of_diagonal_matrix_is_zero() {
        let a = CsrMatrix::identity(5);
        assert_eq!(bandwidth(&a), 0);
    }

    /// The per-component start selection used to rescan all nodes
    /// (`(0..n).filter(!visited).min_by_key(degree)`): O(n) per component,
    /// O(n²) over the `k == n` singleton-part shapes the partitioner
    /// legitimately produces.  The cursor replacement must return the exact
    /// same ordering; this reference reproduces the original scan.
    fn reference_rcm(a: &CsrMatrix) -> Vec<usize> {
        let n = a.nrows();
        let mut visited = vec![false; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let degree = |v: usize| a.row(v).0.len();
        while order.len() < n {
            let start =
                (0..n).filter(|&v| !visited[v]).min_by_key(|&v| degree(v)).expect("unvisited");
            let start = pseudo_peripheral(a, start);
            let mut queue = std::collections::VecDeque::new();
            visited[start] = true;
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                order.push(v);
                let (cols, _) = a.row(v);
                let mut neighbours: Vec<usize> =
                    cols.iter().copied().filter(|&u| u != v && !visited[u]).collect();
                neighbours.sort_unstable_by_key(|&u| degree(u));
                for u in neighbours {
                    if !visited[u] {
                        visited[u] = true;
                        queue.push_back(u);
                    }
                }
            }
        }
        order.reverse();
        order
    }

    #[test]
    fn many_singleton_components_order_unchanged_and_fast() {
        // 4000 isolated diagonal nodes — one component each.  The old scan is
        // quadratic here; the cursor version must stay linear-ish while
        // producing the identical ordering.
        let n = 4000;
        let a = {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 1.0).unwrap();
            }
            coo.to_csr()
        };
        let perm = reverse_cuthill_mckee(&a);
        assert_eq!(perm, reference_rcm(&a));
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn ordering_matches_reference_on_mixed_graphs() {
        // Connected inputs and mixed-size multi-component inputs: the cursor
        // start selection must reproduce the original ordering exactly.
        let cases: Vec<CsrMatrix> = vec![scrambled_path(57).0, scrambled_path(200).0, {
            // Three components of different sizes and degree profiles:
            // a path of 10, a star of 6, and 5 singletons.
            let mut coo = CooMatrix::new(21, 21);
            for i in 0..10 {
                coo.push(i, i, 2.0).unwrap();
                if i + 1 < 10 {
                    coo.push(i, i + 1, -1.0).unwrap();
                    coo.push(i + 1, i, -1.0).unwrap();
                }
            }
            for i in 10..16 {
                coo.push(i, i, 2.0).unwrap();
            }
            for leaf in 11..16 {
                coo.push(10, leaf, -1.0).unwrap();
                coo.push(leaf, 10, -1.0).unwrap();
            }
            for i in 16..21 {
                coo.push(i, i, 1.0).unwrap();
            }
            coo.to_csr()
        }];
        for a in &cases {
            assert_eq!(reverse_cuthill_mckee(a), reference_rcm(a), "n = {}", a.nrows());
        }
    }
}
