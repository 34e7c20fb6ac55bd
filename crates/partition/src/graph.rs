//! Compact undirected graph used by the partitioner.

use meshgen::Mesh;

/// An undirected graph in CSR-like adjacency storage.
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbours: Vec<usize>,
}

impl Graph {
    /// Build from explicit adjacency lists (they are sorted/deduplicated
    /// internally; self-loops are dropped).
    // detlint::allow(unreferenced-pub): builds the graphs no mesh produces that tests/partition_pins.rs pins
    pub fn from_adjacency(adjacency: &[Vec<usize>]) -> Self {
        let mut offsets = vec![0];
        for list in adjacency {
            offsets.push(offsets[offsets.len() - 1] + list.len());
        }
        Self::from_raw_rows(offsets, adjacency.concat())
    }

    /// Build the node graph of a mesh (nodes connected by mesh edges).
    pub(crate) fn from_mesh(mesh: &Mesh) -> Self {
        // Every triangle holds two sides at each of its corners: count, place,
        // and let `from_raw_rows` merge the copies of the interior edges.
        let n = mesh.num_nodes();
        let mut offsets = vec![0usize; n + 1];
        for t in &mesh.triangles {
            for &a in t {
                offsets[a + 1] += 2;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut neighbours = vec![0usize; offsets[n]];
        for t in &mesh.triangles {
            for k in 0..3 {
                let (a, b) = (t[k], t[(k + 1) % 3]);
                neighbours[cursor[a]] = b;
                cursor[a] += 1;
                neighbours[cursor[b]] = a;
                cursor[b] += 1;
            }
        }
        Self::from_raw_rows(offsets, neighbours)
    }

    /// Sort every row `neighbours[offsets[v]..offsets[v + 1]]`, drop its
    /// duplicates and self-loops, and close the gaps — all in place.
    fn from_raw_rows(mut offsets: Vec<usize>, mut neighbours: Vec<usize>) -> Self {
        let n = offsets.len() - 1;
        let mut len = 0;
        for v in 0..n {
            let (start, end) = (offsets[v], offsets[v + 1]);
            neighbours[start..end].sort_unstable();
            offsets[v] = len;
            for i in start..end {
                let u = neighbours[i];
                if u != v && (len == offsets[v] || neighbours[len - 1] != u) {
                    neighbours[len] = u;
                    len += 1;
                }
            }
        }
        offsets[n] = len;
        neighbours.truncate(len);
        Graph { offsets, neighbours }
    }

    /// Number of vertices.
    pub(crate) fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbours.len() / 2
    }

    /// Neighbours of vertex `v`.
    pub fn neighbours(&self, v: usize) -> &[usize] {
        &self.neighbours[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Breadth-first distances from a source (usize::MAX for unreachable).
    #[cfg(test)]
    pub(crate) fn bfs_distances(&self, source: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.num_vertices()];
        self.relax_distances(source, &mut dist, &mut Vec::new());
        dist
    }

    /// Lower `dist` to `min(dist, bfs_distances(from))` in place.  `queue` is
    /// overwritten with the vertices whose entry fell, in BFS order starting
    /// with `from` itself; its length is the number of queue pops.
    ///
    /// `dist` must be `usize::MAX` everywhere or a minimum of BFS distance
    /// fields of this graph.  Such a field changes by at most 1 along an edge
    /// (an unreachable vertex has only unreachable neighbours), so every
    /// vertex on a shortest path from `from` to a vertex it improves is
    /// improved as well: the search may stop at each vertex it does not bring
    /// closer and still finds the exact minimum.
    pub(crate) fn relax_distances(&self, from: usize, dist: &mut [usize], queue: &mut Vec<usize>) {
        queue.clear();
        dist[from] = 0;
        queue.push(from);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let d = dist[v] + 1;
            for &u in self.neighbours(v) {
                if d < dist[u] {
                    dist[u] = d;
                    queue.push(u);
                }
            }
        }
    }

    /// Whether the graph is connected (true for the empty graph).
    #[cfg(test)]
    fn is_connected(&self) -> bool {
        let n = self.num_vertices();
        if n == 0 {
            return true;
        }
        self.bfs_distances(0).iter().all(|&d| d != usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshgen::{generate_mesh, MeshingOptions, RectangleDomain};

    fn path_graph(n: usize) -> Graph {
        let adjacency: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut list = Vec::new();
                if i > 0 {
                    list.push(i - 1);
                }
                if i + 1 < n {
                    list.push(i + 1);
                }
                list
            })
            .collect();
        Graph::from_adjacency(&adjacency)
    }

    #[test]
    fn construction_and_degrees() {
        let g = path_graph(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.neighbours(2), &[1, 3]);
        assert!(g.is_connected());
    }

    #[test]
    fn self_loops_and_duplicates_are_removed() {
        let adjacency = vec![vec![0, 1, 1, 2], vec![0, 0], vec![0]];
        let g = Graph::from_adjacency(&adjacency);
        assert_eq!(g.neighbours(0), &[1, 2]);
        assert_eq!(g.neighbours(1), &[0]);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(6);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn disconnected_graph_detected() {
        let adjacency = vec![vec![1], vec![0], vec![3], vec![2]];
        let g = Graph::from_adjacency(&adjacency);
        assert!(!g.is_connected());
        let d = g.bfs_distances(0);
        assert_eq!(d[2], usize::MAX);
    }

    #[test]
    fn mesh_graph_matches_mesh_adjacency() {
        let d = RectangleDomain::new(0.0, 0.0, 1.0, 1.0);
        let mesh = generate_mesh(&d, &MeshingOptions::with_element_size(0.2));
        let g = Graph::from_mesh(&mesh);
        assert_eq!(g.num_vertices(), mesh.num_nodes());
        assert!(g.is_connected());
        // Every triangle side, both ways, sorted and deduplicated per node.
        let mut adj = vec![Vec::new(); mesh.num_nodes()];
        for t in &mesh.triangles {
            for k in 0..3 {
                let (a, b) = (t[k], t[(k + 1) % 3]);
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for (v, list) in adj.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            assert_eq!(g.neighbours(v), &list[..]);
        }
    }
}
