//! The unstructured triangular mesh data structure.
//!
//! A [`Mesh`] stores node coordinates, triangles (counter-clockwise vertex
//! triples), and a boundary marker per node, detected from the triangle
//! topology.

use crate::geometry::{triangle_area, Point2};

/// An unstructured triangular mesh.
#[derive(Debug, Clone)]
pub struct Mesh {
    /// Node coordinates.
    pub points: Vec<Point2>,
    /// Triangles as counter-clockwise triples of node indices.
    pub triangles: Vec<[usize; 3]>,
    /// `true` for nodes on the domain boundary (outer boundary or holes).
    pub boundary: Vec<bool>,
}

impl Mesh {
    /// Build a mesh and detect its boundary nodes from the triangle topology:
    /// a node is a boundary node when it belongs to an edge used by exactly
    /// one triangle.
    pub fn new(points: Vec<Point2>, triangles: Vec<[usize; 3]>) -> Self {
        let boundary = detect_boundary(&points, &triangles);
        Mesh { points, triangles, boundary }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of triangles.
    pub fn num_triangles(&self) -> usize {
        self.triangles.len()
    }

    /// Number of boundary nodes.
    pub fn num_boundary_nodes(&self) -> usize {
        self.boundary.iter().filter(|&&b| b).count()
    }

    /// Node-to-node adjacency through mesh edges, as a vector of sorted
    /// neighbour lists (self-loops excluded).
    #[cfg(test)]
    fn node_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.num_nodes()];
        for t in &self.triangles {
            for k in 0..3 {
                let a = t[k];
                let b = t[(k + 1) % 3];
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }

    /// Total mesh area.
    pub fn area(&self) -> f64 {
        self.triangles
            .iter()
            .map(|t| triangle_area(&self.points[t[0]], &self.points[t[1]], &self.points[t[2]]))
            .sum()
    }

    /// Smallest triangle angle over the whole mesh, in radians (π/2 for an
    /// empty mesh).
    #[cfg(test)]
    pub(crate) fn min_angle(&self) -> f64 {
        self.triangles
            .iter()
            .map(|t| {
                crate::geometry::min_angle(
                    &self.points[t[0]],
                    &self.points[t[1]],
                    &self.points[t[2]],
                )
            })
            .fold(std::f64::consts::FRAC_PI_2, f64::min)
    }

    /// Average edge length (a proxy for the element size `h`).
    #[cfg(test)]
    pub(crate) fn mean_edge_length(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for t in &self.triangles {
            for k in 0..3 {
                let a = &self.points[t[k]];
                let b = &self.points[t[(k + 1) % 3]];
                total += a.distance(b);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Whether the node graph is connected.
    #[cfg(test)]
    pub(crate) fn is_connected(&self) -> bool {
        if self.num_nodes() == 0 {
            return true;
        }
        let adj = self.node_adjacency();
        let mut seen = vec![false; adj.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &u in &adj[v] {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == adj.len()
    }

    /// Remove nodes not referenced by any triangle and re-index.
    pub(crate) fn compact(&self) -> Mesh {
        let mut used = vec![false; self.num_nodes()];
        for t in &self.triangles {
            for &v in t {
                used[v] = true;
            }
        }
        let mut remap = vec![usize::MAX; self.num_nodes()];
        let mut points = Vec::new();
        for (i, &u) in used.iter().enumerate() {
            if u {
                remap[i] = points.len();
                points.push(self.points[i]);
            }
        }
        let triangles: Vec<[usize; 3]> =
            self.triangles.iter().map(|t| [remap[t[0]], remap[t[1]], remap[t[2]]]).collect();
        Mesh::new(points, triangles)
    }
}

/// Boundary detection: nodes incident to an edge that belongs to exactly one
/// triangle.
fn detect_boundary(points: &[Point2], triangles: &[[usize; 3]]) -> Vec<bool> {
    // BTreeMap so the edge sweep below visits edges in key order: the result
    // is order-insensitive today, but hash-order iteration is banned from the
    // deterministic pipeline (detlint `nondet-iteration`) so a later change
    // cannot silently become seed-dependent.
    use std::collections::BTreeMap;
    let mut edge_count: BTreeMap<(usize, usize), u32> = BTreeMap::new();
    for t in triangles {
        for k in 0..3 {
            let a = t[k];
            let b = t[(k + 1) % 3];
            let key = (a.min(b), a.max(b));
            *edge_count.entry(key).or_insert(0) += 1;
        }
    }
    let mut boundary = vec![false; points.len()];
    for (&(a, b), &count) in &edge_count {
        if count == 1 {
            boundary[a] = true;
            boundary[b] = true;
        }
    }
    boundary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles forming the unit square.
    fn square_mesh() -> Mesh {
        let points = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ];
        let triangles = vec![[0, 1, 2], [0, 2, 3]];
        Mesh::new(points, triangles)
    }

    /// Structured triangulated grid on [0,1]² with (n+1)² nodes.
    fn grid_mesh(n: usize) -> Mesh {
        let mut points = Vec::new();
        for i in 0..=n {
            for j in 0..=n {
                points.push(Point2::new(i as f64 / n as f64, j as f64 / n as f64));
            }
        }
        let idx = |i: usize, j: usize| i * (n + 1) + j;
        let mut triangles = Vec::new();
        for i in 0..n {
            for j in 0..n {
                triangles.push([idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)]);
                triangles.push([idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)]);
            }
        }
        Mesh::new(points, triangles)
    }

    #[test]
    fn basic_counts_and_area() {
        let m = square_mesh();
        assert_eq!(m.num_nodes(), 4);
        assert_eq!(m.num_triangles(), 2);
        assert!((m.area() - 1.0).abs() < 1e-12);
        assert!(m.is_connected());
        // All four nodes of a single square are boundary nodes.
        assert_eq!(m.num_boundary_nodes(), 4);
    }

    #[test]
    fn grid_boundary_and_interior() {
        let m = grid_mesh(4); // 25 nodes, 16 boundary, 9 interior
        assert_eq!(m.num_nodes(), 25);
        assert_eq!(m.num_boundary_nodes(), 16);
        assert_eq!(m.num_nodes() - m.num_boundary_nodes(), 9);
        assert!((m.area() - 1.0).abs() < 1e-12);
        assert!(m.is_connected());
    }

    #[test]
    fn adjacency_is_symmetric_and_deduplicated() {
        let m = grid_mesh(3);
        let adj = m.node_adjacency();
        for (v, list) in adj.iter().enumerate() {
            let mut sorted = list.clone();
            sorted.dedup();
            assert_eq!(&sorted, list, "adjacency list must be sorted+deduped");
            for &u in list {
                assert!(adj[u].contains(&v), "adjacency must be symmetric");
                assert_ne!(u, v, "no self loops");
            }
        }
    }

    #[test]
    fn min_angle_of_structured_grid() {
        let m = grid_mesh(4);
        // Right isoceles triangles: min angle = 45 degrees.
        assert!((m.min_angle() - std::f64::consts::FRAC_PI_4).abs() < 1e-10);
        assert!(m.mean_edge_length() > 0.0);
    }

    #[test]
    fn compact_removes_orphan_nodes() {
        let mut m = square_mesh();
        m.points.push(Point2::new(5.0, 5.0)); // orphan node
        m.boundary.push(false);
        let c = m.compact();
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.num_triangles(), 2);
        assert!((c.area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_mesh_detected() {
        let points = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(5.0, 5.0),
            Point2::new(6.0, 5.0),
            Point2::new(5.0, 6.0),
        ];
        let triangles = vec![[0, 1, 2], [3, 4, 5]];
        let m = Mesh::new(points, triangles);
        assert!(!m.is_connected());
    }
}
