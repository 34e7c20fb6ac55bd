//! Unstructured 2D triangular mesh generation.
//!
//! The paper generates its datasets with GMSH: random 2D domains whose
//! boundary interpolates 20 points sampled around the unit circle with smooth
//! curves, meshed into unstructured triangles of roughly constant element
//! size, plus one large "Formula-1" shaped domain with holes for the
//! out-of-distribution experiment (Fig. 5).  This crate reproduces that
//! pipeline without external tools:
//!
//! * [`geometry`] — points, orientation/incircle predicates, polygons,
//! * [`domain`] — the [`domain::Domain`] trait and concrete domains (random
//!   smooth blobs, circles, rectangles, and the Formula-1 caricature with
//!   holes),
//! * `delaunay` — Bowyer–Watson Delaunay triangulation with walking point
//!   location, suitable for hundreds of thousands of points,
//! * [`mesh`] — the [`mesh::Mesh`] data structure (nodes, triangles, boundary
//!   markers, adjacency, quality metrics),
//! * [`generator`] — boundary sampling + interior seeding + triangulation +
//!   clipping, the GMSH substitute used by every experiment.

mod delaunay;
pub mod domain;
pub mod generator;
pub mod geometry;
pub mod mesh;

pub use domain::{CircleDomain, Domain, FormulaOneDomain, RandomBlobDomain, RectangleDomain};
pub use generator::{generate_mesh, MeshingOptions};
pub use geometry::Point2;
pub use mesh::Mesh;
