//! Bowyer–Watson Delaunay triangulation with walking point location.
//!
//! The generator inserts points in Morton (Z-curve) order and locates each new
//! point by walking from the most recently created triangle, which keeps the
//! expected cost per insertion close to constant.  The triangulation begins
//! from a large super-triangle whose vertices are removed at the end.

use crate::geometry::{in_circumcircle, orient2d, Point2};

/// A triangle of the triangulation: vertex indices plus neighbour triangle
/// indices (`usize::MAX` marks "no neighbour").  Neighbour `k` is opposite to
/// vertex `k`.
#[derive(Debug, Clone, Copy)]
struct Triangle {
    v: [usize; 3],
    n: [usize; 3],
    alive: bool,
}

const NONE: usize = usize::MAX;

/// Delaunay triangulation of a point set.
///
/// Returns triangles as triples of indices into `points`, oriented
/// counter-clockwise.  Duplicate points are tolerated (the duplicate is simply
/// skipped), collinear degenerate inputs with fewer than 3 distinct points
/// return an empty triangulation.
pub(crate) fn triangulate(points: &[Point2]) -> Vec<[usize; 3]> {
    let n = points.len();
    if n < 3 {
        return Vec::new();
    }

    // Bounding box and super-triangle.
    let (mut min_x, mut min_y, mut max_x, mut max_y) =
        (f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in points {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    let dx = (max_x - min_x).max(1e-9);
    let dy = (max_y - min_y).max(1e-9);
    let dmax = dx.max(dy);
    let cx = 0.5 * (min_x + max_x);
    let cy = 0.5 * (min_y + max_y);

    // The working vertex array: original points followed by the 3 super vertices.
    let mut verts: Vec<Point2> = points.to_vec();
    let s0 = verts.len();
    verts.push(Point2::new(cx - 20.0 * dmax, cy - 10.0 * dmax));
    verts.push(Point2::new(cx + 20.0 * dmax, cy - 10.0 * dmax));
    verts.push(Point2::new(cx, cy + 20.0 * dmax));

    let mut tris: Vec<Triangle> = Vec::with_capacity(2 * n);
    tris.push(Triangle { v: [s0, s0 + 1, s0 + 2], n: [NONE, NONE, NONE], alive: true });

    // Insert points in Morton order for locality.
    let order = morton_order(points, min_x, min_y, dmax);

    let mut last_alive = 0usize;
    // Scratch buffers reused across insertions.
    let mut bad: Vec<usize> = Vec::new();
    let mut cavity_edges: Vec<(usize, usize, usize)> = Vec::new(); // (a, b, outer_neighbour)
    let mut stack: Vec<usize> = Vec::new();
    let mut visited_mark: Vec<u32> = Vec::new();
    let mut mark_epoch: u32 = 0;

    for &pi in &order {
        let p = verts[pi];
        // Locate a triangle whose circumcircle contains p (start from last_alive).
        let start = locate(&tris, &verts, last_alive, &p);
        let start = match start {
            Some(t) => t,
            None => {
                // Walking failed (should not happen with the huge super-triangle);
                // fall back to a linear scan.
                match tris.iter().position(|t| t.alive && contains(&verts, t, &p)) {
                    Some(t) => t,
                    None => continue,
                }
            }
        };

        // Skip exact/near duplicates of an existing vertex: re-inserting them
        // would create degenerate, overlapping triangles.
        let dup_tol = 1e-24; // squared distance
        if tris[start].v.iter().any(|&v| verts[v].distance_sq(&p) < dup_tol) {
            continue;
        }

        // Grow the cavity: all alive triangles whose circumcircle contains p,
        // connected to `start`.
        mark_epoch += 1;
        if visited_mark.len() < tris.len() {
            visited_mark.resize(tris.len(), 0);
        }
        bad.clear();
        stack.clear();
        stack.push(start);
        visited_mark[start] = mark_epoch;
        while let Some(t) = stack.pop() {
            let tri = &tris[t];
            if !tri.alive {
                continue;
            }
            let a = &verts[tri.v[0]];
            let b = &verts[tri.v[1]];
            let c = &verts[tri.v[2]];
            if in_circumcircle(a, b, c, &p) || t == start {
                bad.push(t);
                for &nb in &tri.n {
                    if nb != NONE && visited_mark[nb] != mark_epoch {
                        visited_mark[nb] = mark_epoch;
                        stack.push(nb);
                    }
                }
            }
        }
        if bad.is_empty() {
            continue;
        }

        // Boundary of the cavity: edges of bad triangles whose neighbour is not bad.
        mark_epoch += 1;
        for &t in &bad {
            visited_mark[t] = mark_epoch;
        }
        cavity_edges.clear();
        for &t in &bad {
            let tri = tris[t];
            for k in 0..3 {
                let nb = tri.n[k];
                let is_bad_nb = nb != NONE && visited_mark[nb] == mark_epoch;
                if !is_bad_nb {
                    // Edge opposite to vertex k: (v[k+1], v[k+2])
                    let a = tri.v[(k + 1) % 3];
                    let b = tri.v[(k + 2) % 3];
                    cavity_edges.push((a, b, nb));
                }
            }
            tris[t].alive = false;
        }

        // Re-triangulate the cavity: one new triangle per boundary edge.
        let first_new = tris.len();
        for &(a, b, outer) in &cavity_edges {
            let mut v = [a, b, pi];
            // Ensure counter-clockwise orientation.
            if orient2d(&verts[v[0]], &verts[v[1]], &verts[v[2]]) < 0.0 {
                v.swap(0, 1);
            }
            tris.push(Triangle { v, n: [NONE, NONE, outer], alive: true });
        }
        // Fix the neighbour links.
        let new_count = tris.len() - first_new;
        for i in 0..new_count {
            let ti = first_new + i;
            // Link to the outer neighbour (stored in n[2] temporarily) across
            // the edge that does not contain pi.
            let outer = tris[ti].n[2];
            let v = tris[ti].v;
            // Find which vertex of the new triangle is pi; the edge opposite
            // to it is the cavity-boundary edge.
            let pi_pos = v.iter().position(|&x| x == pi).unwrap();
            let mut n = [NONE; 3];
            n[pi_pos] = outer;
            tris[ti].n = n;
            if outer != NONE {
                // Update the outer triangle to point back at ti.
                let edge_a = v[(pi_pos + 1) % 3];
                let edge_b = v[(pi_pos + 2) % 3];
                let out_tri = tris[outer];
                for k in 0..3 {
                    let oa = out_tri.v[(k + 1) % 3];
                    let ob = out_tri.v[(k + 2) % 3];
                    if (oa == edge_a && ob == edge_b) || (oa == edge_b && ob == edge_a) {
                        tris[outer].n[k] = ti;
                        break;
                    }
                }
            }
        }
        // Link the new triangles to each other: they share edges containing pi.
        for i in 0..new_count {
            let ti = first_new + i;
            for j in (i + 1)..new_count {
                let tj = first_new + j;
                link_if_shared(&mut tris, ti, tj);
            }
        }
        last_alive = first_new;
    }

    // Collect alive triangles that avoid the super-triangle vertices.
    let mut out = Vec::new();
    for tri in &tris {
        if tri.alive && tri.v.iter().all(|&v| v < s0) {
            let mut v = tri.v;
            if orient2d(&verts[v[0]], &verts[v[1]], &verts[v[2]]) < 0.0 {
                v.swap(1, 2);
            }
            out.push(v);
        }
    }
    out
}

/// Link two triangles as neighbours if they share an edge.
fn link_if_shared(tris: &mut [Triangle], ti: usize, tj: usize) {
    let vi = tris[ti].v;
    let vj = tris[tj].v;
    for a in 0..3 {
        let ea = (vi[(a + 1) % 3], vi[(a + 2) % 3]);
        for b in 0..3 {
            let eb = (vj[(b + 1) % 3], vj[(b + 2) % 3]);
            if ea == eb || ea == (eb.1, eb.0) {
                tris[ti].n[a] = tj;
                tris[tj].n[b] = ti;
                return;
            }
        }
    }
}

/// Does triangle `t` contain point `p` (inclusive of edges)?
fn contains(verts: &[Point2], t: &Triangle, p: &Point2) -> bool {
    let a = &verts[t.v[0]];
    let b = &verts[t.v[1]];
    let c = &verts[t.v[2]];
    let eps = -1e-12;
    orient2d(a, b, p) >= eps && orient2d(b, c, p) >= eps && orient2d(c, a, p) >= eps
}

/// Walk from triangle `start` towards the triangle containing `p`.
fn locate(tris: &[Triangle], verts: &[Point2], start: usize, p: &Point2) -> Option<usize> {
    let mut current = start;
    if !tris[current].alive {
        // find any alive triangle near the end of the list
        current = tris.iter().rposition(|t| t.alive)?;
    }
    let max_steps = tris.len() * 4 + 16;
    for _ in 0..max_steps {
        let tri = &tris[current];
        let a = &verts[tri.v[0]];
        let b = &verts[tri.v[1]];
        let c = &verts[tri.v[2]];
        // Find an edge that strictly separates p from the triangle.
        let o0 = orient2d(b, c, p); // opposite vertex 0
        let o1 = orient2d(c, a, p); // opposite vertex 1
        let o2 = orient2d(a, b, p); // opposite vertex 2
        let (worst, val) = {
            let mut worst = 0;
            let mut val = o0;
            if o1 < val {
                worst = 1;
                val = o1;
            }
            if o2 < val {
                worst = 2;
                val = o2;
            }
            (worst, val)
        };
        if val >= -1e-12 {
            return Some(current);
        }
        let next = tri.n[worst];
        if next == NONE || !tris[next].alive {
            return Some(current);
        }
        current = next;
    }
    None
}

/// Sort point indices along a Morton (Z-order) curve for insertion locality.
fn morton_order(points: &[Point2], min_x: f64, min_y: f64, extent: f64) -> Vec<usize> {
    let scale = 65535.0 / extent.max(1e-12);
    let mut keyed: Vec<(u64, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let ix = (((p.x - min_x) * scale).clamp(0.0, 65535.0)) as u32;
            let iy = (((p.y - min_y) * scale).clamp(0.0, 65535.0)) as u32;
            (interleave(ix) | (interleave(iy) << 1), i)
        })
        .collect();
    keyed.sort_unstable_by_key(|&(k, _)| k);
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Interleave the lower 16 bits of `x` with zeros.
fn interleave(mut x: u32) -> u64 {
    x &= 0xFFFF;
    let mut z = x as u64;
    z = (z | (z << 8)) & 0x00FF00FF;
    z = (z | (z << 4)) & 0x0F0F0F0F;
    z = (z | (z << 2)) & 0x33333333;
    z = (z | (z << 1)) & 0x55555555;
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn triangulation_area(points: &[Point2], tris: &[[usize; 3]]) -> f64 {
        tris.iter()
            .map(|t| crate::geometry::triangle_area(&points[t[0]], &points[t[1]], &points[t[2]]))
            .sum()
    }

    /// Every triangle of a Delaunay triangulation must have an empty
    /// circumcircle (up to tolerance for near-degenerate configurations).
    fn check_delaunay_property(points: &[Point2], tris: &[[usize; 3]]) {
        for t in tris {
            let a = &points[t[0]];
            let b = &points[t[1]];
            let c = &points[t[2]];
            if let Some((center, r2)) = crate::geometry::circumcircle(a, b, c) {
                for (i, p) in points.iter().enumerate() {
                    if i == t[0] || i == t[1] || i == t[2] {
                        continue;
                    }
                    let d2 = center.distance_sq(p);
                    assert!(
                        d2 >= r2 * (1.0 - 1e-9),
                        "point {i} violates empty-circumcircle property"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(triangulate(&[]).is_empty());
        assert!(triangulate(&[Point2::new(0.0, 0.0)]).is_empty());
        assert!(triangulate(&[Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)]).is_empty());
    }

    #[test]
    fn single_triangle() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), Point2::new(0.0, 1.0)];
        let tris = triangulate(&pts);
        assert_eq!(tris.len(), 1);
        let t = tris[0];
        assert!(orient2d(&pts[t[0]], &pts[t[1]], &pts[t[2]]) > 0.0);
    }

    #[test]
    fn unit_square_grid() {
        // 4x4 grid of points covering the unit square: total triangulated area = 1.
        let mut pts = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                pts.push(Point2::new(i as f64 / 3.0, j as f64 / 3.0 + 1e-6 * (i as f64)));
            }
        }
        let tris = triangulate(&pts);
        let area = triangulation_area(&pts, &tris);
        assert!((area - 1.0).abs() < 1e-6, "area {area}");
        check_delaunay_property(&pts, &tris);
    }

    #[test]
    fn random_points_satisfy_delaunay_property() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let pts: Vec<Point2> = (0..120)
            .map(|_| Point2::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let tris = triangulate(&pts);
        assert!(!tris.is_empty());
        check_delaunay_property(&pts, &tris);
        // Euler: for a triangulation of a point set (convex hull), T = 2n - 2 - h
        // where h is hull size; only sanity-check the order of magnitude here.
        assert!(tris.len() > pts.len());
    }

    #[test]
    fn convex_hull_area_is_covered() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let pts: Vec<Point2> = (0..300)
            .map(|_| {
                let r: f64 = rng.gen_range(0.0..1.0);
                let t: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                Point2::new(r.sqrt() * t.cos(), r.sqrt() * t.sin())
            })
            .collect();
        let tris = triangulate(&pts);
        let area = triangulation_area(&pts, &tris);
        // The convex hull of many random points in the unit disk approaches
        // the disk area π; the triangulation must cover the hull exactly, so
        // the area must be close to (slightly below) π.
        assert!(area > 2.6 && area < std::f64::consts::PI + 1e-9, "area {area}");
    }

    #[test]
    fn duplicate_points_are_tolerated() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
        ];
        let tris = triangulate(&pts);
        let area = triangulation_area(&pts, &tris);
        assert!((area - 1.0).abs() < 1e-9);
    }

    #[test]
    fn larger_random_set_is_consistent() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let pts: Vec<Point2> = (0..5000)
            .map(|_| Point2::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..7.0)))
            .collect();
        let tris = triangulate(&pts);
        // All triangles positively oriented and no degenerate areas.
        for t in &tris {
            let area = crate::geometry::triangle_area(&pts[t[0]], &pts[t[1]], &pts[t[2]]);
            assert!(area > 0.0);
        }
        // Total area approaches the bounding rectangle area (70) from below.
        let area = triangulation_area(&pts, &tris);
        assert!(area > 65.0 && area < 70.0 + 1e-6, "area {area}");
    }
}
