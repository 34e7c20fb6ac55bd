//! Computational domains: the geometric regions that get meshed.
//!
//! The paper's dataset uses random 2D domains whose boundary interpolates 20
//! points sampled around the unit circle with smooth curves (Section IV-A),
//! scaled up for larger problems, plus a "caricatural Formula 1" domain with
//! holes for the Fig. 5 out-of-distribution experiment.  Every domain exposes
//! its boundary as closed polygon loops (outer boundary first, then holes) and
//! an inside test; the mesh generator consumes nothing else.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::geometry::{
    catmull_rom_closed, distance_to_polygon, point_in_polygon, polygon_area, Point2,
};

/// A bounded 2D region described by closed boundary loops.
pub trait Domain {
    /// Closed boundary loops: the first loop is the outer boundary
    /// (counter-clockwise), subsequent loops are holes.
    fn boundary_loops(&self) -> Vec<Vec<Point2>>;

    /// Whether a point lies inside the domain (inside the outer loop and
    /// outside every hole).
    fn contains(&self, p: &Point2) -> bool {
        let loops = self.boundary_loops();
        if loops.is_empty() {
            return false;
        }
        if !point_in_polygon(p, &loops[0]) {
            return false;
        }
        for hole in &loops[1..] {
            if point_in_polygon(p, hole) {
                return false;
            }
        }
        true
    }

    /// Distance from `p` to the nearest boundary (outer or hole).
    fn distance_to_boundary(&self, p: &Point2) -> f64 {
        self.boundary_loops()
            .iter()
            .map(|l| distance_to_polygon(p, l))
            .fold(f64::INFINITY, f64::min)
    }

    /// Axis-aligned bounding box `(min, max)` of the outer boundary.
    fn bounding_box(&self) -> (Point2, Point2) {
        let loops = self.boundary_loops();
        let mut min = Point2::new(f64::INFINITY, f64::INFINITY);
        let mut max = Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        if let Some(outer) = loops.first() {
            for p in outer {
                min.x = min.x.min(p.x);
                min.y = min.y.min(p.y);
                max.x = max.x.max(p.x);
                max.y = max.y.max(p.y);
            }
        }
        (min, max)
    }

    /// Approximate area of the domain (outer loop minus holes).
    fn area(&self) -> f64 {
        let loops = self.boundary_loops();
        let mut area = 0.0;
        for (i, l) in loops.iter().enumerate() {
            let a = polygon_area(l).abs();
            if i == 0 {
                area += a;
            } else {
                area -= a;
            }
        }
        area.max(0.0)
    }
}

/// A circular domain.
#[derive(Debug, Clone)]
// detlint::allow(unreferenced-pub): a mesh fixture the fem assembly tests share
pub struct CircleDomain {
    /// Center of the circle.
    pub center: Point2,
    /// Radius.
    pub radius: f64,
    /// Number of polygon segments used to approximate the boundary.
    pub segments: usize,
}

impl CircleDomain {
    /// Unit-ish circle with a default boundary resolution.
    pub fn new(center: Point2, radius: f64) -> Self {
        CircleDomain { center, radius, segments: 256 }
    }
}

impl Domain for CircleDomain {
    fn boundary_loops(&self) -> Vec<Vec<Point2>> {
        let pts = (0..self.segments)
            .map(|i| {
                let t = i as f64 / self.segments as f64 * std::f64::consts::TAU;
                Point2::new(
                    self.center.x + self.radius * t.cos(),
                    self.center.y + self.radius * t.sin(),
                )
            })
            .collect();
        vec![pts]
    }

    fn contains(&self, p: &Point2) -> bool {
        p.distance(&self.center) < self.radius
    }

    fn distance_to_boundary(&self, p: &Point2) -> f64 {
        (self.radius - p.distance(&self.center)).abs()
    }
}

/// An axis-aligned rectangle.
#[derive(Debug, Clone)]
// detlint::allow(unreferenced-pub): the unit-square mesh fixture the fem and partition tests share
pub struct RectangleDomain {
    /// Lower-left corner.
    pub min: Point2,
    /// Upper-right corner.
    pub max: Point2,
}

impl RectangleDomain {
    /// Rectangle `[x0, x1] × [y0, y1]`.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        RectangleDomain { min: Point2::new(x0, y0), max: Point2::new(x1, y1) }
    }
}

impl Domain for RectangleDomain {
    fn boundary_loops(&self) -> Vec<Vec<Point2>> {
        vec![vec![
            Point2::new(self.min.x, self.min.y),
            Point2::new(self.max.x, self.min.y),
            Point2::new(self.max.x, self.max.y),
            Point2::new(self.min.x, self.max.y),
        ]]
    }

    fn contains(&self, p: &Point2) -> bool {
        p.x > self.min.x && p.x < self.max.x && p.y > self.min.y && p.y < self.max.y
    }
}

/// The paper's random smooth domain: `n_control` points sampled around the
/// unit circle with random radii, joined by a smooth closed spline, scaled by
/// `radius_scale`.
///
/// Increasing `radius_scale` while keeping the element size fixed is exactly
/// how the paper grows problems from ~2k to ~600k nodes.
#[derive(Debug, Clone)]
pub struct RandomBlobDomain {
    polygon: Vec<Point2>,
}

impl RandomBlobDomain {
    /// Sample a random smooth domain.
    ///
    /// * `seed` — RNG seed (each seed is one "global domain" of the dataset),
    /// * `n_control` — number of boundary control points (the paper uses 20),
    /// * `radius_scale` — multiplicative scale applied to the whole domain.
    pub fn generate(seed: u64, n_control: usize, radius_scale: f64) -> Self {
        assert!(n_control >= 4, "need at least 4 control points");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Sorted random angles with a minimum gap, random radii in [0.6, 1.3].
        let mut angles: Vec<f64> =
            (0..n_control).map(|_| rng.gen_range(0.0..std::f64::consts::TAU)).collect();
        angles.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Enforce a minimum angular gap to avoid self-intersecting splines.
        let min_gap = 0.2 * std::f64::consts::TAU / n_control as f64;
        for i in 1..n_control {
            if angles[i] - angles[i - 1] < min_gap {
                angles[i] = angles[i - 1] + min_gap;
            }
        }
        let control: Vec<Point2> = angles
            .iter()
            .map(|&t| {
                let r = rng.gen_range(0.6..1.3) * radius_scale;
                Point2::new(r * t.cos(), r * t.sin())
            })
            .collect();
        let polygon = catmull_rom_closed(&control, 12);
        RandomBlobDomain { polygon }
    }

    /// The underlying boundary polygon.
    #[cfg(test)]
    fn polygon(&self) -> &[Point2] {
        &self.polygon
    }
}

impl Domain for RandomBlobDomain {
    fn boundary_loops(&self) -> Vec<Vec<Point2>> {
        vec![self.polygon.clone()]
    }
}

/// A caricatural Formula-1 car silhouette with holes (cockpit and wing
/// stripes), reproducing the out-of-distribution geometry of Fig. 5.
///
/// The silhouette is a long, low body with a front and rear wing; the holes
/// are the cockpit opening and two stripe slots in the wings.
#[derive(Debug, Clone)]
pub struct FormulaOneDomain {
    scale: f64,
}

impl FormulaOneDomain {
    /// Create the domain.  `scale` multiplies all coordinates (the nominal
    /// body is about 6 × 1.6 units).
    pub fn new(scale: f64) -> Self {
        FormulaOneDomain { scale }
    }

    fn body_outline(&self) -> Vec<Point2> {
        // A hand-drawn closed outline of a side-view F1 car: front wing, nose,
        // cockpit hump, engine cover, rear wing.  Counter-clockwise.
        let raw = [
            (0.0, 0.0),
            (0.8, -0.05),
            (1.6, -0.08),
            (2.4, -0.08),
            (3.2, -0.08),
            (4.0, -0.08),
            (4.8, -0.05),
            (5.6, 0.0),
            (6.0, 0.05),
            (6.05, 0.5),
            (5.9, 0.55),
            (5.6, 0.35),
            (5.2, 0.3),
            (4.8, 0.45),
            (4.4, 0.7),
            (4.0, 0.85),
            (3.6, 0.9),
            (3.2, 0.95),
            (2.8, 1.0),
            (2.5, 1.05),
            (2.2, 0.95),
            (1.9, 0.7),
            (1.6, 0.5),
            (1.2, 0.35),
            (0.8, 0.3),
            (0.4, 0.35),
            (0.1, 0.5),
            (-0.05, 0.55),
            (-0.1, 0.3),
            (-0.05, 0.1),
        ];
        raw.iter().map(|&(x, y)| Point2::new(x * self.scale, y * self.scale)).collect()
    }

    fn cockpit_hole(&self) -> Vec<Point2> {
        // An oval cockpit opening near the middle of the car.
        let cx = 2.6 * self.scale;
        let cy = 0.55 * self.scale;
        let rx = 0.35 * self.scale;
        let ry = 0.18 * self.scale;
        (0..40)
            .map(|i| {
                let t = i as f64 / 40.0 * std::f64::consts::TAU;
                Point2::new(cx + rx * t.cos(), cy + ry * t.sin())
            })
            .collect()
    }

    fn wing_stripe(&self, x0: f64, x1: f64, y0: f64, y1: f64) -> Vec<Point2> {
        vec![
            Point2::new(x0 * self.scale, y0 * self.scale),
            Point2::new(x1 * self.scale, y0 * self.scale),
            Point2::new(x1 * self.scale, y1 * self.scale),
            Point2::new(x0 * self.scale, y1 * self.scale),
        ]
    }
}

impl Domain for FormulaOneDomain {
    fn boundary_loops(&self) -> Vec<Vec<Point2>> {
        vec![
            self.body_outline(),
            self.cockpit_hole(),
            // Front wing stripe and rear wing stripe.
            self.wing_stripe(0.15, 0.65, 0.1, 0.2),
            self.wing_stripe(5.45, 5.85, 0.12, 0.25),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle_contains_and_distance() {
        let c = CircleDomain::new(Point2::new(0.0, 0.0), 2.0);
        assert!(c.contains(&Point2::new(1.0, 0.0)));
        assert!(!c.contains(&Point2::new(2.5, 0.0)));
        assert!((c.distance_to_boundary(&Point2::new(1.0, 0.0)) - 1.0).abs() < 1e-12);
        assert!((c.area() - std::f64::consts::PI * 4.0).abs() < 0.05);
        let (min, max) = c.bounding_box();
        assert!(min.x < -1.99 && max.x > 1.99);
    }

    #[test]
    fn rectangle_contains() {
        let r = RectangleDomain::new(0.0, 0.0, 2.0, 1.0);
        assert!(r.contains(&Point2::new(1.0, 0.5)));
        assert!(!r.contains(&Point2::new(3.0, 0.5)));
        assert!((r.area() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn random_blob_is_reasonable_and_deterministic() {
        let d1 = RandomBlobDomain::generate(7, 20, 1.0);
        let d2 = RandomBlobDomain::generate(7, 20, 1.0);
        assert_eq!(d1.polygon().len(), d2.polygon().len());
        for (a, b) in d1.polygon().iter().zip(d2.polygon().iter()) {
            assert_eq!(a, b);
        }
        // The centroid-ish point must be inside and the area positive and
        // bounded by the enclosing circle of radius 1.3.
        assert!(d1.area() > 0.3);
        assert!(d1.area() < std::f64::consts::PI * 1.3 * 1.3 * 1.2);
        // Scaling the radius scales the area quadratically.
        let big = RandomBlobDomain::generate(7, 20, 3.0);
        let ratio = big.area() / d1.area();
        assert!((ratio - 9.0).abs() < 0.5, "area ratio {ratio}");
    }

    #[test]
    fn different_seeds_give_different_domains() {
        let d1 = RandomBlobDomain::generate(1, 20, 1.0);
        let d2 = RandomBlobDomain::generate(2, 20, 1.0);
        let same = d1.polygon().iter().zip(d2.polygon().iter()).all(|(a, b)| a.distance(b) < 1e-12);
        assert!(!same);
    }

    #[test]
    fn formula_one_has_holes() {
        let f1 = FormulaOneDomain::new(1.0);
        let loops = f1.boundary_loops();
        assert_eq!(loops.len(), 4, "outline + cockpit + 2 stripes");
        // A point in the body is inside, a point in the cockpit hole is not.
        assert!(f1.contains(&Point2::new(3.0, 0.2)));
        assert!(!f1.contains(&Point2::new(2.6, 0.55)), "cockpit is a hole");
        assert!(!f1.contains(&Point2::new(0.4, 0.15)), "front wing stripe is a hole");
        assert!(!f1.contains(&Point2::new(10.0, 10.0)));
        assert!(f1.area() > 0.0);
    }
}
