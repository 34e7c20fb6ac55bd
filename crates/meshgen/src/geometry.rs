//! Planar geometry primitives and predicates.

/// A point (or vector) in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Construct a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to another point.
    pub(crate) fn distance(&self, other: &Point2) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Squared distance (avoids the square root in hot loops).
    pub(crate) fn distance_sq(&self, other: &Point2) -> f64 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }

    /// Vector difference `self - other`.
    pub(crate) fn sub(&self, other: &Point2) -> Point2 {
        Point2::new(self.x - other.x, self.y - other.y)
    }

    /// Scale by a scalar.
    pub fn scale(&self, s: f64) -> Point2 {
        Point2::new(self.x * s, self.y * s)
    }

    /// Euclidean norm when interpreted as a vector.
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

/// Twice the signed area of triangle `(a, b, c)`.
///
/// Positive when the vertices are in counter-clockwise order.
#[inline]
pub(crate) fn orient2d(a: &Point2, b: &Point2, c: &Point2) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Whether point `d` lies strictly inside the circumcircle of the
/// counter-clockwise triangle `(a, b, c)`.
///
/// This is the standard 3×3 determinant incircle predicate evaluated in
/// floating point; the mesh generator protects it by jittering lattice points
/// so near-degenerate configurations are rare.
#[inline]
pub(crate) fn in_circumcircle(a: &Point2, b: &Point2, c: &Point2, d: &Point2) -> bool {
    let adx = a.x - d.x;
    let ady = a.y - d.y;
    let bdx = b.x - d.x;
    let bdy = b.y - d.y;
    let cdx = c.x - d.x;
    let cdy = c.y - d.y;

    let ad = adx * adx + ady * ady;
    let bd = bdx * bdx + bdy * bdy;
    let cd = cdx * cdx + cdy * cdy;

    let det =
        adx * (bdy * cd - bd * cdy) - ady * (bdx * cd - bd * cdx) + ad * (bdx * cdy - bdy * cdx);
    det > 0.0
}

/// Circumcenter and squared circumradius of a triangle.  Returns `None` for
/// (numerically) degenerate triangles.
#[cfg(test)]
pub(crate) fn circumcircle(a: &Point2, b: &Point2, c: &Point2) -> Option<(Point2, f64)> {
    let d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y));
    if d.abs() < 1e-300 {
        return None;
    }
    let a2 = a.x * a.x + a.y * a.y;
    let b2 = b.x * b.x + b.y * b.y;
    let c2 = c.x * c.x + c.y * c.y;
    let ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d;
    let uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d;
    let center = Point2::new(ux, uy);
    let r2 = center.distance_sq(a);
    Some((center, r2))
}

/// Area of a triangle (always non-negative).
pub(crate) fn triangle_area(a: &Point2, b: &Point2, c: &Point2) -> f64 {
    0.5 * orient2d(a, b, c).abs()
}

/// Smallest interior angle of a triangle, in radians.
#[cfg(test)]
pub(crate) fn min_angle(a: &Point2, b: &Point2, c: &Point2) -> f64 {
    let la = b.distance(c);
    let lb = a.distance(c);
    let lc = a.distance(b);
    if la == 0.0 || lb == 0.0 || lc == 0.0 {
        return 0.0;
    }
    let angle_a = ((lb * lb + lc * lc - la * la) / (2.0 * lb * lc)).clamp(-1.0, 1.0).acos();
    let angle_b = ((la * la + lc * lc - lb * lb) / (2.0 * la * lc)).clamp(-1.0, 1.0).acos();
    let angle_c = std::f64::consts::PI - angle_a - angle_b;
    angle_a.min(angle_b).min(angle_c)
}

/// Even–odd (crossing number) point-in-polygon test for a closed polyline.
///
/// The polygon is given as an ordered list of vertices without repetition of
/// the first vertex at the end.
pub(crate) fn point_in_polygon(p: &Point2, polygon: &[Point2]) -> bool {
    let n = polygon.len();
    if n < 3 {
        return false;
    }
    let mut inside = false;
    let mut j = n - 1;
    for i in 0..n {
        let pi = &polygon[i];
        let pj = &polygon[j];
        let crosses = (pi.y > p.y) != (pj.y > p.y);
        if crosses {
            let x_at_y = pj.x + (p.y - pj.y) / (pi.y - pj.y) * (pi.x - pj.x);
            if p.x < x_at_y {
                inside = !inside;
            }
        }
        j = i;
    }
    inside
}

/// Signed area of a simple polygon (positive when counter-clockwise).
pub(crate) fn polygon_area(polygon: &[Point2]) -> f64 {
    let n = polygon.len();
    let mut acc = 0.0;
    for i in 0..n {
        let j = (i + 1) % n;
        acc += polygon[i].x * polygon[j].y - polygon[j].x * polygon[i].y;
    }
    0.5 * acc
}

/// Distance from a point to a segment `[a, b]`.
pub(crate) fn distance_to_segment(p: &Point2, a: &Point2, b: &Point2) -> f64 {
    let ab = b.sub(a);
    let ap = p.sub(a);
    let len2 = ab.x * ab.x + ab.y * ab.y;
    if len2 <= 0.0 {
        return p.distance(a);
    }
    let t = ((ap.x * ab.x + ap.y * ab.y) / len2).clamp(0.0, 1.0);
    let proj = Point2::new(a.x + t * ab.x, a.y + t * ab.y);
    p.distance(&proj)
}

/// Minimum distance from a point to a closed polygon boundary.
pub(crate) fn distance_to_polygon(p: &Point2, polygon: &[Point2]) -> f64 {
    let n = polygon.len();
    let mut best = f64::INFINITY;
    for i in 0..n {
        let j = (i + 1) % n;
        best = best.min(distance_to_segment(p, &polygon[i], &polygon[j]));
    }
    best
}

/// Closed Catmull–Rom spline through `control` points, sampled with
/// `samples_per_segment` points per control segment.  Used to turn the
/// paper's "20 points connected with Bezier curves" into a smooth polygon.
pub(crate) fn catmull_rom_closed(control: &[Point2], samples_per_segment: usize) -> Vec<Point2> {
    let n = control.len();
    assert!(n >= 3, "need at least 3 control points");
    assert!(samples_per_segment >= 1);
    let mut out = Vec::with_capacity(n * samples_per_segment);
    for i in 0..n {
        let p0 = control[(i + n - 1) % n];
        let p1 = control[i];
        let p2 = control[(i + 1) % n];
        let p3 = control[(i + 2) % n];
        for s in 0..samples_per_segment {
            let t = s as f64 / samples_per_segment as f64;
            let t2 = t * t;
            let t3 = t2 * t;
            let x = 0.5
                * ((2.0 * p1.x)
                    + (-p0.x + p2.x) * t
                    + (2.0 * p0.x - 5.0 * p1.x + 4.0 * p2.x - p3.x) * t2
                    + (-p0.x + 3.0 * p1.x - 3.0 * p2.x + p3.x) * t3);
            let y = 0.5
                * ((2.0 * p1.y)
                    + (-p0.y + p2.y) * t
                    + (2.0 * p0.y - 5.0 * p1.y + 4.0 * p2.y - p3.y) * t2
                    + (-p0.y + 3.0 * p1.y - 3.0 * p2.y + p3.y) * t3);
            out.push(Point2::new(x, y));
        }
    }
    out
}

/// Resample a closed polygon so consecutive vertices are approximately
/// `target_spacing` apart.
pub(crate) fn resample_closed_polyline(polygon: &[Point2], target_spacing: f64) -> Vec<Point2> {
    assert!(target_spacing > 0.0);
    let n = polygon.len();
    if n < 3 {
        return polygon.to_vec();
    }
    let mut perimeter = 0.0;
    for i in 0..n {
        perimeter += polygon[i].distance(&polygon[(i + 1) % n]);
    }
    let count = ((perimeter / target_spacing).round() as usize).max(3);
    let step = perimeter / count as f64;
    let mut out = Vec::with_capacity(count);
    let mut seg = 0usize;
    let mut seg_start = polygon[0];
    let mut seg_end = polygon[1 % n];
    let mut seg_len = seg_start.distance(&seg_end);
    let mut along = 0.0;
    let mut travelled = 0.0;
    for k in 0..count {
        let target = k as f64 * step;
        while travelled + (seg_len - along) < target && seg < n {
            travelled += seg_len - along;
            along = 0.0;
            seg += 1;
            seg_start = polygon[seg % n];
            seg_end = polygon[(seg + 1) % n];
            seg_len = seg_start.distance(&seg_end);
        }
        let need = target - travelled;
        let t = if seg_len > 0.0 { (along + need) / seg_len } else { 0.0 };
        out.push(Point2::new(
            seg_start.x + t * (seg_end.x - seg_start.x),
            seg_start.y + t * (seg_end.y - seg_start.y),
        ));
        along += need;
        travelled = target;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(4.0, 6.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
        assert_eq!(b.sub(&a), Point2::new(3.0, 4.0));
        assert_eq!(a.scale(2.0), Point2::new(2.0, 4.0));
        assert_eq!(b.sub(&a).norm(), 5.0);
    }

    #[test]
    fn orientation_sign() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        assert!(orient2d(&a, &b, &c) > 0.0);
        assert!(orient2d(&a, &c, &b) < 0.0);
        assert_eq!(orient2d(&a, &b, &Point2::new(2.0, 0.0)), 0.0);
    }

    #[test]
    fn incircle_predicate() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        assert!(in_circumcircle(&a, &b, &c, &Point2::new(0.3, 0.3)));
        assert!(!in_circumcircle(&a, &b, &c, &Point2::new(2.0, 2.0)));
    }

    #[test]
    fn circumcircle_of_right_triangle() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 0.0);
        let c = Point2::new(0.0, 2.0);
        let (center, r2) = circumcircle(&a, &b, &c).unwrap();
        assert!((center.x - 1.0).abs() < 1e-12);
        assert!((center.y - 1.0).abs() < 1e-12);
        assert!((r2 - 2.0).abs() < 1e-12);
        // Degenerate (collinear) triangle
        assert!(circumcircle(&a, &b, &Point2::new(4.0, 0.0)).is_none());
    }

    #[test]
    fn areas_and_angles() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        assert!((triangle_area(&a, &b, &c) - 0.5).abs() < 1e-12);
        let angle = min_angle(&a, &b, &c);
        assert!((angle - std::f64::consts::FRAC_PI_4).abs() < 1e-10);
        // Equilateral triangle: min angle 60 degrees.
        let eq = min_angle(
            &Point2::new(0.0, 0.0),
            &Point2::new(1.0, 0.0),
            &Point2::new(0.5, 3.0_f64.sqrt() / 2.0),
        );
        assert!((eq - std::f64::consts::FRAC_PI_3).abs() < 1e-10);
    }

    #[test]
    fn polygon_tests() {
        let square = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ];
        assert!(point_in_polygon(&Point2::new(0.5, 0.5), &square));
        assert!(!point_in_polygon(&Point2::new(1.5, 0.5), &square));
        assert!((polygon_area(&square) - 1.0).abs() < 1e-12);
        let reversed: Vec<Point2> = square.iter().rev().copied().collect();
        assert!((polygon_area(&reversed) + 1.0).abs() < 1e-12);
        assert!((distance_to_polygon(&Point2::new(0.5, 0.5), &square) - 0.5).abs() < 1e-12);
        assert!((distance_to_polygon(&Point2::new(2.0, 0.5), &square) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segment_distance() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        assert!((distance_to_segment(&Point2::new(0.5, 1.0), &a, &b) - 1.0).abs() < 1e-12);
        assert!((distance_to_segment(&Point2::new(-1.0, 0.0), &a, &b) - 1.0).abs() < 1e-12);
        assert!((distance_to_segment(&Point2::new(0.3, 0.0), &a, &a) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn catmull_rom_interpolates_control_points() {
        let control = vec![
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(-1.0, 0.0),
            Point2::new(0.0, -1.0),
        ];
        let curve = catmull_rom_closed(&control, 8);
        assert_eq!(curve.len(), 32);
        // The spline passes exactly through the control points at t = 0.
        for (i, c) in control.iter().enumerate() {
            let sampled = curve[i * 8];
            assert!(sampled.distance(c) < 1e-12);
        }
    }

    #[test]
    fn resample_spacing_is_roughly_uniform() {
        let square = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ];
        let pts = resample_closed_polyline(&square, 0.1);
        assert!(pts.len() >= 35 && pts.len() <= 45, "got {}", pts.len());
        for i in 0..pts.len() {
            let d = pts[i].distance(&pts[(i + 1) % pts.len()]);
            assert!(d < 0.2, "spacing too large: {d}");
        }
    }
}
