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
//! the symmetric graph is the faithful choice and no boundary mask is kept.
//!
//! A [`LocalGraph`] is one shared sub-domain structure plus its own input.
//! The structure is the incidence in the one layout every consumer reads — a
//! `u32` in-degree per node, and a `u32` source and the f64 geometry
//! `[dx, dy, dist]` per destination-grouped edge (28 bytes per edge, 4 per
//! node) — and the operator, each behind an [`Arc`].  Only the input `c`
//! changes between applies and between training samples, so a clone copies
//! the input alone: the training samples of one sub-domain and the
//! [`crate::InferencePlan`]s built from its graph all hold the graph's one
//! copy of the structure, and training walks the same arrays in the same
//! order.

use std::sync::Arc;

use meshgen::Point2;
use sparse::CsrMatrix;

/// One local Poisson problem expressed as a graph.
///
/// The incidence is stored in the layout the inference plans run on: the
/// directed edges (destination `j` receives from source `l`) are grouped by
/// destination, node `j`'s run following node `j − 1`'s, and each carries
/// its source index and its geometry `[dx, dy, dist]`, the relative
/// position `pos[l] − pos[j]` and its Euclidean length.  Within a run the
/// sources keep the column order of the operator row, so summing a node's
/// run adds in a fixed order.  The positions themselves are not kept:
/// nothing after construction reads them.
///
/// Everything but `input` is shared structure: a clone shares it and copies
/// only the input.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    /// In-degree of every node: the length of its run in the edge arrays.
    pub(crate) in_degree: Arc<[u32]>,
    /// Source node of every destination-grouped edge.
    pub(crate) edge_src: Arc<[u32]>,
    /// `[dx, dy, dist]` of every destination-grouped edge.
    pub(crate) edge_geo: Arc<[[f64; 3]]>,
    /// Normalised node input `c` (the DSS input).
    pub input: Vec<f64>,
    /// The local operator (used by the training loss).
    pub matrix: Arc<CsrMatrix>,
}

impl LocalGraph {
    /// Build a local graph from the sub-domain operator, node positions and
    /// right-hand side.
    ///
    /// The right-hand side is normalised internally (a zero rhs gives an
    /// all-zero input).
    pub fn new(matrix: CsrMatrix, positions: Vec<Point2>, rhs: &[f64]) -> Self {
        let n = matrix.nrows();
        assert_eq!(matrix.ncols(), n, "local operator must be square");
        assert_eq!(positions.len(), n, "positions length mismatch");
        let index = |v: usize| u32::try_from(v).expect("sub-domain graph exceeds u32 indices");

        // Directed edges from the sparsity pattern of the operator (both
        // directions of every coupling), grouped by destination.
        let mut in_degree = Vec::with_capacity(n);
        let mut edge_src = Vec::with_capacity(matrix.nnz().saturating_sub(n));
        let mut edge_geo = Vec::with_capacity(edge_src.capacity());
        for dst in 0..n {
            let (cols, _) = matrix.row(dst);
            let run = edge_src.len();
            for &src in cols {
                if src == dst {
                    continue;
                }
                let dx = positions[src].x - positions[dst].x;
                let dy = positions[src].y - positions[dst].y;
                edge_src.push(index(src));
                edge_geo.push([dx, dy, (dx * dx + dy * dy).sqrt()]);
            }
            in_degree.push(index(edge_src.len() - run));
        }

        let mut graph = LocalGraph {
            in_degree: in_degree.into(),
            edge_src: edge_src.into(),
            edge_geo: edge_geo.into(),
            input: vec![0.0; n],
            matrix: Arc::new(matrix),
        };
        graph.set_rhs(rhs);
        graph
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.input.len()
    }

    /// Number of directed edges.
    pub(crate) fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Destination node of every edge, in edge order: node `j` repeated
    /// `in_degree[j]` times.
    pub(crate) fn edge_dsts(&self) -> impl Iterator<Item = usize> + '_ {
        self.in_degree.iter().enumerate().flat_map(|(j, &deg)| std::iter::repeat_n(j, deg as usize))
    }

    /// Replace the right-hand side (renormalising), keeping the structure:
    /// how dataset extraction turns one graph template into many samples.
    pub(crate) fn set_rhs(&mut self, rhs: &[f64]) {
        assert_eq!(rhs.len(), self.num_nodes(), "rhs length mismatch");
        let rhs_norm = sparse::vector::norm2(rhs);
        if rhs_norm > 0.0 {
            for (c, &r) in self.input.iter_mut().zip(rhs.iter()) {
                *c = r / rhs_norm;
            }
        } else {
            for c in self.input.iter_mut() {
                *c = 0.0;
            }
        }
    }
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
        LocalGraph::new(coo.to_csr(), positions, &rhs)
    }

    #[test]
    fn input_is_normalised() {
        let g = chain_graph(5);
        let norm = sparse::vector::norm2(&g.input);
        assert!((norm - 1.0).abs() < 1e-12);
        let rhs_norm = (1.0 + 4.0 + 9.0 + 16.0 + 25.0_f64).sqrt();
        assert!((g.input[4] - 5.0 / rhs_norm).abs() < 1e-12);
    }

    /// Every edge as `(dst, src, geometry)`, in edge order.
    fn edges(g: &LocalGraph) -> Vec<(usize, usize, [f64; 3])> {
        let srcs = g.edge_src.iter().map(|&s| s as usize);
        g.edge_dsts()
            .zip(srcs)
            .zip(g.edge_geo.iter().copied())
            .map(|((d, s), x)| (d, s, x))
            .collect()
    }

    #[test]
    fn every_coupling_produces_messages_in_both_directions() {
        let g = chain_graph(6);
        let edges = edges(&g);
        // Interior node 2 receives from 1 and 3.
        let dsts: Vec<usize> = edges.iter().filter(|e| e.0 == 2).map(|e| e.1).collect();
        assert_eq!(dsts, [1, 3]);
        // The chain ends (boundary nodes) each receive exactly one message.
        assert_eq!(*g.in_degree, [1, 2, 2, 2, 2, 1]);
        // Symmetry: for every edge (dst, src) the reverse edge exists.
        for e in &edges {
            assert!(edges.iter().any(|f| f.0 == e.1 && f.1 == e.0));
        }
    }

    #[test]
    fn edge_features_are_geometric() {
        let g = chain_graph(4);
        for (dst, src, [dx, dy, dist]) in edges(&g) {
            assert_eq!(dx, src as f64 - dst as f64, "pos[src] - pos[dst]");
            assert_eq!(dy, 0.0);
            assert!((dist - 1.0).abs() < 1e-12, "chain nodes are 1 apart");
        }
    }

    #[test]
    fn zero_rhs_keeps_zero_input() {
        let mut g = chain_graph(4);
        g.set_rhs(&[0.0; 4]);
        assert!(g.input.iter().all(|&c| c == 0.0));
        // And set back to something non-trivial.
        g.set_rhs(&[3.0, 0.0, 4.0, 0.0]);
        assert!((g.input[0] - 0.6).abs() < 1e-12);
        assert!((g.input[2] - 0.8).abs() < 1e-12);
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
        assert_eq!(g.in_degree.len(), g.num_nodes());
        assert_eq!(g.edge_geo.len(), g.num_edges());
        // The runs cover the edge arrays exactly once.
        let runs: u32 = g.in_degree.iter().sum();
        assert_eq!(runs as usize, g.num_edges());
        assert_eq!(g.edge_dsts().count(), g.num_edges());
    }

    #[test]
    fn incidence_is_stable_and_rebuildable() {
        let g = chain_graph(6);
        // Each node's run lists its sources in the operator row's column
        // order (minus the diagonal), so the per-node sum adds in a fixed order.
        let mut slot = 0;
        for (j, &deg) in g.in_degree.iter().enumerate() {
            let (cols, _) = g.matrix.row(j);
            let row: Vec<u32> = cols.iter().filter(|&&c| c != j).map(|&c| c as u32).collect();
            let run = &g.edge_src[slot..slot + deg as usize];
            assert_eq!(run, row, "node {j}'s run is out of row order");
            slot += deg as usize;
        }
        // A clone — a training sample — shares the structure and owns its
        // input: a new rhs on the clone leaves the original's input alone.
        let mut sample = g.clone();
        assert!(Arc::ptr_eq(&sample.in_degree, &g.in_degree));
        assert!(Arc::ptr_eq(&sample.edge_src, &g.edge_src));
        assert!(Arc::ptr_eq(&sample.edge_geo, &g.edge_geo));
        assert!(Arc::ptr_eq(&sample.matrix, &g.matrix));
        sample.set_rhs(&[1.0, -2.0, 0.5, 0.0, 3.0, 1.0]);
        assert_ne!(sample.input, g.input);
        assert_eq!(g.input, chain_graph(6).input);
        // Rebuilding from the same operator and positions reproduces the
        // same incidence.
        let positions = (0..6).map(|i| Point2::new(i as f64, 0.0)).collect();
        let rebuilt = LocalGraph::new(CsrMatrix::clone(&g.matrix), positions, &[1.0; 6]);
        assert_eq!(rebuilt.in_degree, g.in_degree);
        assert_eq!(rebuilt.edge_src, g.edge_src);
        assert_eq!(rebuilt.edge_geo, g.edge_geo);
    }
}
