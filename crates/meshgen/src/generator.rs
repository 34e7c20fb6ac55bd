//! Mesh generation: the GMSH substitute.
//!
//! The pipeline mirrors what the paper obtains from GMSH:
//!
//! 1. sample the domain boundary loops at the target element size `h`,
//! 2. seed interior points on a jittered hexagonal lattice of pitch `h`,
//!    discarding points too close to the boundary,
//! 3. Delaunay-triangulate boundary + interior points,
//! 4. discard triangles whose centroid falls outside the domain (this carves
//!    holes and concave features out of the convex-hull triangulation),
//! 5. drop orphan nodes, re-index, and detect boundary nodes.
//!
//! The jitter keeps the point set in general position (protecting the
//! floating-point incircle predicate) and produces the irregular node degrees
//! of a genuinely unstructured mesh.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::delaunay::triangulate;
use crate::domain::Domain;
use crate::geometry::{resample_closed_polyline, triangle_area, Point2};
use crate::mesh::Mesh;

/// Relative jitter applied to interior lattice points (fraction of `h`).
const JITTER: f64 = 0.25;
/// Minimum distance from interior points to the boundary, in units of `h`.
const BOUNDARY_CLEARANCE: f64 = 0.6;

/// Options controlling mesh generation.
#[derive(Debug, Clone)]
pub struct MeshingOptions {
    /// Target element size (edge length).
    pub element_size: f64,
    /// RNG seed for the jitter.
    pub seed: u64,
}

impl Default for MeshingOptions {
    fn default() -> Self {
        MeshingOptions { element_size: 0.05, seed: 0 }
    }
}

impl MeshingOptions {
    /// Options with the given element size and otherwise defaults.
    pub fn with_element_size(element_size: f64) -> Self {
        MeshingOptions { element_size, ..Default::default() }
    }

    /// Builder-style seed setter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generate an unstructured triangular mesh of `domain`.
pub fn generate_mesh(domain: &dyn Domain, options: &MeshingOptions) -> Mesh {
    let h = options.element_size;
    assert!(h > 0.0, "element size must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(options.seed);

    // 1. Boundary points: every loop resampled at spacing ~h.
    let loops = domain.boundary_loops();
    let mut points: Vec<Point2> = Vec::new();
    for l in &loops {
        let resampled = resample_closed_polyline(l, h);
        points.extend(resampled);
    }
    let boundary_point_count = points.len();

    // 2. Interior points on a jittered hexagonal lattice.
    let (min, max) = domain.bounding_box();
    let dy = h * 3.0_f64.sqrt() / 2.0;
    let clearance = BOUNDARY_CLEARANCE * h;
    let mut row = 0usize;
    let mut y = min.y + 0.5 * h;
    while y < max.y {
        let offset = if row.is_multiple_of(2) { 0.0 } else { 0.5 * h };
        let mut x = min.x + 0.5 * h + offset;
        while x < max.x {
            let jx = rng.gen_range(-JITTER..JITTER) * h;
            let jy = rng.gen_range(-JITTER..JITTER) * h;
            let p = Point2::new(x + jx, y + jy);
            if domain.contains(&p) && domain.distance_to_boundary(&p) > clearance {
                points.push(p);
            }
            x += h;
        }
        y += dy;
        row += 1;
    }

    // 3. Delaunay triangulation of all points.
    let raw_triangles = triangulate(&points);

    // 4. Keep triangles whose centroid is inside the domain and whose area is
    //    non-degenerate.
    let area_floor = 1e-6 * h * h;
    let triangles: Vec<[usize; 3]> = raw_triangles
        .into_iter()
        .filter(|t| {
            let a = &points[t[0]];
            let b = &points[t[1]];
            let c = &points[t[2]];
            if triangle_area(a, b, c) < area_floor {
                return false;
            }
            let centroid = Point2::new((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0);
            domain.contains(&centroid)
        })
        .collect();

    // 5. Compact (drops any orphan points, e.g. boundary samples of a hole so
    //    small that no triangle survived near it) and detect the boundary.
    let mesh = Mesh::new(points, triangles);
    let mesh = mesh.compact();
    debug_assert!(mesh.num_nodes() <= boundary_point_count + mesh.num_nodes());
    mesh
}

/// Estimate the element size needed for a mesh of roughly `target_nodes`
/// nodes on `domain`.
///
/// For an isotropic triangulation the node count scales like `area / h²`
/// (with a hexagonal-lattice constant of ≈ 1.15), so
/// `h ≈ sqrt(1.15 · area / target)`.
pub fn element_size_for_target_nodes(domain: &dyn Domain, target_nodes: usize) -> f64 {
    assert!(target_nodes > 3);
    let area = domain.area().max(1e-12);
    (1.15 * area / target_nodes as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{CircleDomain, FormulaOneDomain, RandomBlobDomain, RectangleDomain};

    #[test]
    fn rectangle_mesh_covers_area() {
        let d = RectangleDomain::new(0.0, 0.0, 2.0, 1.0);
        let mesh = generate_mesh(&d, &MeshingOptions::with_element_size(0.1));
        assert!(mesh.num_nodes() > 150, "nodes: {}", mesh.num_nodes());
        assert!(mesh.is_connected());
        let area = mesh.area();
        assert!((area - 2.0).abs() < 0.1, "area {area}");
        // Element size is respected within a factor.
        let h = mesh.mean_edge_length();
        assert!(h > 0.05 && h < 0.2, "mean edge length {h}");
    }

    #[test]
    fn circle_mesh_is_reasonable() {
        let d = CircleDomain::new(Point2::new(0.0, 0.0), 1.0);
        let mesh = generate_mesh(&d, &MeshingOptions::with_element_size(0.08));
        assert!(mesh.is_connected());
        let area = mesh.area();
        assert!((area - std::f64::consts::PI).abs() < 0.15, "area {area}");
        // Mesh quality: no triangle with a pathologically small angle.
        assert!(mesh.min_angle() > 0.05, "min angle {}", mesh.min_angle());
        assert!(mesh.num_boundary_nodes() > 20);
    }

    #[test]
    fn random_blob_mesh_node_count_tracks_target() {
        let d = RandomBlobDomain::generate(3, 20, 1.0);
        let h = element_size_for_target_nodes(&d, 1500);
        let mesh = generate_mesh(&d, &MeshingOptions::with_element_size(h));
        let n = mesh.num_nodes();
        assert!(n > 900 && n < 2400, "expected roughly 1500 nodes, got {n} (h = {h})");
        assert!(mesh.is_connected());
    }

    #[test]
    fn scaling_domain_scales_node_count() {
        // Paper: problems grow by increasing the radius at fixed element size.
        let small = RandomBlobDomain::generate(5, 20, 1.0);
        let large = RandomBlobDomain::generate(5, 20, 2.0);
        let opts = MeshingOptions::with_element_size(0.07);
        let m_small = generate_mesh(&small, &opts);
        let m_large = generate_mesh(&large, &opts);
        let ratio = m_large.num_nodes() as f64 / m_small.num_nodes() as f64;
        assert!(ratio > 2.8 && ratio < 5.5, "node ratio {ratio}");
    }

    #[test]
    fn formula_one_mesh_has_holes() {
        let d = FormulaOneDomain::new(1.0);
        let h = element_size_for_target_nodes(&d, 3000);
        let mesh = generate_mesh(&d, &MeshingOptions::with_element_size(h));
        assert!(mesh.is_connected());
        assert!(mesh.num_nodes() > 1500, "nodes {}", mesh.num_nodes());
        // The mesh area must be close to the domain area (which excludes holes).
        let rel = (mesh.area() - d.area()).abs() / d.area();
        assert!(rel < 0.1, "relative area error {rel}");
        // Hole boundaries add extra boundary nodes compared to a simply
        // connected domain of the same size: at least the outer loop plus the
        // cockpit must be represented.
        assert!(mesh.num_boundary_nodes() > 100);
    }

    #[test]
    fn meshing_is_deterministic_for_fixed_seed() {
        let d = CircleDomain::new(Point2::new(0.0, 0.0), 1.0);
        let opts = MeshingOptions::with_element_size(0.1).seed(42);
        let m1 = generate_mesh(&d, &opts);
        let m2 = generate_mesh(&d, &opts);
        assert_eq!(m1.num_nodes(), m2.num_nodes());
        assert_eq!(m1.triangles, m2.triangles);
    }

    #[test]
    fn element_size_estimate_is_monotone() {
        let d = CircleDomain::new(Point2::new(0.0, 0.0), 1.0);
        let h1 = element_size_for_target_nodes(&d, 1000);
        let h2 = element_size_for_target_nodes(&d, 4000);
        assert!(h2 < h1);
        assert!((h1 / h2 - 2.0).abs() < 1e-9, "quadrupling nodes halves h");
    }
}
