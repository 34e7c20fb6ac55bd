//! Graph representation of one local (sub-domain) Poisson problem.
//!
//! Following the paper's modified DSS architecture (Eq. 17), a local problem
//! is presented to the network as the sub-mesh geometry plus the normalised
//! source vector: edge attributes are the relative node positions and their
//! Euclidean length, and each node carries the input `c_j = (Rᵢ r)_j / ‖Rᵢ r‖`.
//! The local operator `Rᵢ A Rᵢᵀ` is kept alongside because the
//! physics-informed training loss (Eq. 11) needs it; it is not used during
//! inference.
//!
//! The message-passing graph is kept fully undirected (every stored coupling
//! of the local operator yields messages in both directions).  The paper
//! additionally orients the edges of boundary nodes towards the interior; in
//! this reproduction the sub-domain operators are the plain principal
//! sub-matrices `Rᵢ A Rᵢᵀ`, whose interface nodes carry genuine unknowns, so
//! the symmetric graph is the faithful choice (see DESIGN.md).  The boundary
//! mask is still recorded and exposed for ablations.

use meshgen::Point2;
use sparse::CsrMatrix;

/// A directed edge of the message-passing graph.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    /// Destination node (the node whose message sum this edge feeds).
    pub(crate) dst: usize,
    /// Source node (the neighbour the message comes from).
    pub(crate) src: usize,
    /// Relative position `pos[src] - pos[dst]`.
    pub(crate) delta: [f64; 2],
    /// Euclidean length of `delta`.
    pub(crate) dist: f64,
}

/// One local Poisson problem expressed as a graph.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    /// Node coordinates.
    pub positions: Vec<Point2>,
    /// Directed edges (dst receives from src).
    pub(crate) edges: Vec<Edge>,
    /// CSR-style destination-sorted edge incidence: node `j` aggregates the
    /// messages of edges `edge_order[edge_ptr[j]..edge_ptr[j+1]]`.  Built by
    /// a *stable* counting sort, so each node's edges keep their relative
    /// order from `edges` — summing along `edge_order` is bit-identical to
    /// the per-edge scatter it replaces, while turning the aggregation into
    /// a contiguous per-node gather.  Cached state derived from `edges`,
    /// which only [`LocalGraph::new`] writes.
    pub(crate) edge_ptr: Vec<usize>,
    /// Permutation from destination-sorted edge slots to indices in `edges`.
    pub(crate) edge_order: Vec<usize>,
    /// Normalised node input `c` (the DSS input).
    pub input: Vec<f64>,
    /// Norm of the un-normalised right-hand side (`‖Rᵢ r‖`), needed to rescale
    /// the network output when gluing sub-domain corrections.
    pub rhs_norm: f64,
    /// Whether a node lies on the local Dirichlet boundary.
    pub boundary: Vec<bool>,
    /// The local operator (used by the training loss).
    pub matrix: CsrMatrix,
}

impl LocalGraph {
    /// Build a local graph from the sub-domain operator, node positions,
    /// right-hand side and boundary mask.
    ///
    /// The right-hand side is normalised internally; `rhs_norm` records the
    /// original norm (graphs built from a zero rhs keep `rhs_norm = 0` and an
    /// all-zero input).
    pub fn new(
        matrix: CsrMatrix,
        positions: Vec<Point2>,
        rhs: &[f64],
        boundary: Vec<bool>,
    ) -> Self {
        let n = matrix.nrows();
        assert_eq!(matrix.ncols(), n, "local operator must be square");
        assert_eq!(positions.len(), n, "positions length mismatch");
        assert_eq!(rhs.len(), n, "rhs length mismatch");
        assert_eq!(boundary.len(), n, "boundary mask length mismatch");

        let rhs_norm = sparse::vector::norm2(rhs);
        let input: Vec<f64> =
            if rhs_norm > 0.0 { rhs.iter().map(|v| v / rhs_norm).collect() } else { vec![0.0; n] };

        // Directed edges from the sparsity pattern of the operator (both
        // directions of every coupling).
        let mut edges = Vec::with_capacity(matrix.nnz());
        for dst in 0..n {
            let (cols, _) = matrix.row(dst);
            for &src in cols {
                if src == dst {
                    continue;
                }
                let delta =
                    [positions[src].x - positions[dst].x, positions[src].y - positions[dst].y];
                let dist = (delta[0] * delta[0] + delta[1] * delta[1]).sqrt();
                edges.push(Edge { dst, src, delta, dist });
            }
        }

        let (edge_ptr, edge_order) = build_incidence(n, &edges);
        LocalGraph { positions, edges, edge_ptr, edge_order, input, rhs_norm, boundary, matrix }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Number of directed edges.
    pub(crate) fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Source node of every destination-sorted edge, as the `u32` the
    /// inference plans gather through (half the index traffic of `usize`).
    pub(crate) fn sorted_edge_sources(&self) -> Vec<u32> {
        self.edge_order
            .iter()
            .map(|&ei| {
                u32::try_from(self.edges[ei].src).expect("sub-domain graph exceeds u32 nodes")
            })
            .collect()
    }

    /// In-degree of every node (the length of its run in the
    /// destination-sorted edge list).
    pub(crate) fn in_degrees(&self) -> Vec<u32> {
        self.edge_ptr
            .windows(2)
            .map(|w| u32::try_from(w[1] - w[0]).expect("sub-domain graph exceeds u32 edges"))
            .collect()
    }

    /// Replace the right-hand side (renormalising), keeping the structure:
    /// how dataset extraction turns one graph template into many samples.
    pub(crate) fn set_rhs(&mut self, rhs: &[f64]) {
        assert_eq!(rhs.len(), self.num_nodes());
        self.rhs_norm = sparse::vector::norm2(rhs);
        if self.rhs_norm > 0.0 {
            for (c, &r) in self.input.iter_mut().zip(rhs.iter()) {
                *c = r / self.rhs_norm;
            }
        } else {
            for c in self.input.iter_mut() {
                *c = 0.0;
            }
        }
    }
}

/// Stable counting sort of the edges by destination node.
fn build_incidence(num_nodes: usize, edges: &[Edge]) -> (Vec<usize>, Vec<usize>) {
    let mut edge_ptr = vec![0usize; num_nodes + 1];
    for edge in edges {
        edge_ptr[edge.dst + 1] += 1;
    }
    for j in 0..num_nodes {
        edge_ptr[j + 1] += edge_ptr[j];
    }
    let mut next = edge_ptr.clone();
    let mut edge_order = vec![0usize; edges.len()];
    for (ei, edge) in edges.iter().enumerate() {
        edge_order[next[edge.dst]] = ei;
        next[edge.dst] += 1;
    }
    (edge_ptr, edge_order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::CooMatrix;

    fn chain_graph(n: usize) -> LocalGraph {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let positions: Vec<Point2> = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        let rhs: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let mut boundary = vec![false; n];
        boundary[0] = true;
        boundary[n - 1] = true;
        LocalGraph::new(coo.to_csr(), positions, &rhs, boundary)
    }

    #[test]
    fn input_is_normalised() {
        let g = chain_graph(5);
        let norm = sparse::vector::norm2(&g.input);
        assert!((norm - 1.0).abs() < 1e-12);
        let expected_norm = (1.0 + 4.0 + 9.0 + 16.0 + 25.0_f64).sqrt();
        assert!((g.rhs_norm - expected_norm).abs() < 1e-12);
    }

    #[test]
    fn every_coupling_produces_messages_in_both_directions() {
        let g = chain_graph(6);
        // Interior node 2 receives from 1 and 3.
        let dsts: Vec<usize> = g.edges.iter().filter(|e| e.dst == 2).map(|e| e.src).collect();
        assert_eq!(dsts.len(), 2);
        assert!(dsts.contains(&1) && dsts.contains(&3));
        // The chain ends (boundary nodes) each receive exactly one message.
        assert_eq!(g.edges.iter().filter(|e| e.dst == 0).count(), 1);
        assert_eq!(g.edges.iter().filter(|e| e.dst == 5).count(), 1);
        // Symmetry: for every edge (dst, src) the reverse edge exists.
        for e in &g.edges {
            assert!(g.edges.iter().any(|f| f.dst == e.src && f.src == e.dst));
        }
    }

    #[test]
    fn edge_features_are_geometric() {
        let g = chain_graph(4);
        for e in &g.edges {
            assert!((e.dist - 1.0).abs() < 1e-12, "chain nodes are 1 apart");
            assert!((e.delta[0].abs() - 1.0).abs() < 1e-12);
            assert_eq!(e.delta[1], 0.0);
        }
    }

    #[test]
    fn zero_rhs_keeps_zero_input() {
        let mut g = chain_graph(4);
        g.set_rhs(&[0.0; 4]);
        assert_eq!(g.rhs_norm, 0.0);
        assert!(g.input.iter().all(|&c| c == 0.0));
        // And set back to something non-trivial.
        g.set_rhs(&[3.0, 0.0, 4.0, 0.0]);
        assert!((g.rhs_norm - 5.0).abs() < 1e-12);
        assert!((g.input[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn residual_loss_zero_for_exact_normalised_solution() {
        let g = chain_graph(8);
        let lu = sparse::LuFactor::factor_csr(&g.matrix).unwrap();
        let u = lu.solve(&g.input).unwrap();
        let loss = |u: &[f64]| crate::loss::residual_loss(&g.matrix, &g.input, u);
        assert!(loss(&u) < 1e-20);
        assert!(loss(&[0.0; 8]) > 0.0);
    }

    #[test]
    fn counts() {
        let g = chain_graph(5);
        assert_eq!(g.num_nodes(), 5);
        // A 5-node chain has 4 undirected couplings = 8 directed edges.
        assert_eq!(g.num_edges(), 8);
    }

    #[test]
    fn incidence_covers_every_edge_grouped_by_destination() {
        let g = chain_graph(6);
        assert_eq!(g.edge_ptr.len(), g.num_nodes() + 1);
        assert_eq!(g.edge_ptr[0], 0);
        assert_eq!(*g.edge_ptr.last().unwrap(), g.num_edges());
        let mut seen = vec![false; g.num_edges()];
        for j in 0..g.num_nodes() {
            for &ei in &g.edge_order[g.edge_ptr[j]..g.edge_ptr[j + 1]] {
                assert_eq!(g.edges[ei].dst, j, "edge {ei} listed under the wrong node");
                assert!(!seen[ei], "edge {ei} listed twice");
                seen[ei] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every edge appears exactly once");
    }

    #[test]
    fn incidence_is_stable_and_rebuildable() {
        let mut g = chain_graph(6);
        // LocalGraph::new emits edges already grouped by destination, so the
        // stable sort must be the identity permutation.
        assert_eq!(g.edge_order, (0..g.num_edges()).collect::<Vec<_>>());
        // Reversing the edge list still groups per destination while keeping
        // each node's edges in (new) relative order.
        g.edges.reverse();
        (g.edge_ptr, g.edge_order) = build_incidence(g.num_nodes(), &g.edges);
        for j in 0..g.num_nodes() {
            let slots = &g.edge_order[g.edge_ptr[j]..g.edge_ptr[j + 1]];
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "stable order violated for node {j}");
            assert!(slots.iter().all(|&ei| g.edges[ei].dst == j));
        }
    }
}
