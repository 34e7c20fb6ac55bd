//! Multi-seed greedy graph growing partitioner with balancing refinement.
//!
//! The algorithm follows the classic graph-growing heuristic METIS uses for
//! its initial partitions:
//!
//! 1. pick `K` seeds by farthest-point sampling (BFS metric),
//! 2. grow all parts simultaneously with a multi-source BFS, always expanding
//!    the currently smallest part so sizes stay balanced,
//! 3. assign any stragglers (nodes unreachable during growth) to the smallest
//!    neighbouring part,
//! 4. run a boundary-refinement pass that moves nodes from oversized parts to
//!    adjacent undersized parts when doing so does not disconnect coverage.
//!
//! # Cost
//!
//! `O((n + e)·log n)` on a graph of bounded degree, with at most
//! `n·(2 + log₂ K)` BFS queue pops for the seeds of a mesh graph (a unit test
//! counts them): no step does `Θ(n)` work per seed or per part.  Outside that
//! bound, and negligible on meshes: growth rescans the adjacency of a
//! frontier vertex once per neighbour it hands out (`Σ degree²`), and a
//! straggler without an assigned neighbour scans all `K` part sizes.
//!
//! # Tie-breaks
//!
//! The output is a pure function of the graph and [`PartitionOptions`] and
//! every downstream hash depends on it, so the rules that settle ties are
//! contract (`tests/partition_pins.rs` pins them):
//!
//! * **seeds** — a vertex no seed reaches is farther than any finite distance
//!   (`usize::MAX`, clamped to `usize::MAX − 1`), and among equally far
//!   vertices the **highest index** is taken;
//! * **growth** — among the smallest parts that still have a frontier the
//!   **lowest part index** expands, by the first unassigned neighbour (in
//!   adjacency order) of its oldest frontier vertex that has one;
//! * **stragglers** — the smallest neighbouring part, the first in adjacency
//!   order among equals; failing that the smallest part overall, the lowest
//!   index among equals.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::graph::Graph;
use crate::Partition;

/// Options for [`partition_graph`].
#[derive(Debug, Clone)]
pub struct PartitionOptions {
    /// Number of parts to create.
    pub num_parts: usize,
    /// RNG seed used for seed-vertex selection tie breaking.
    pub seed: u64,
    /// Number of boundary refinement sweeps.
    pub refinement_sweeps: usize,
    /// Maximum tolerated imbalance (max part size / ideal size) targeted by
    /// the refinement pass.
    pub balance_tolerance: f64,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions { num_parts: 2, seed: 0, refinement_sweeps: 4, balance_tolerance: 1.10 }
    }
}

/// Partition the graph into `opts.num_parts` parts of roughly equal size.
///
/// Returns the part index of every vertex (`result[v] ∈ 0..num_parts`), a
/// pure function of the graph and `opts` computed in `O((n + e)·log n)`; the
/// [module docs](self) give the exact cost and the tie-break rules that make
/// the result reproducible index for index.
/// This function **never panics**; the degenerate shapes are defined as:
///
/// * an **empty graph** returns an empty assignment (regardless of
///   `num_parts`),
/// * `num_parts == 0` is treated as 1 (every vertex lands in part 0),
/// * `num_parts >= num_vertices` degenerates to one vertex per part —
///   vertex `v` is assigned to part `v` — so with `k > n` the parts
///   `n..k` are **empty**.  Downstream consumers receive empty node lists
///   for those parts: [`crate::overlap::grow_overlap`] returns empty
///   sub-domains for them (BFS from an empty core), and callers building
///   Schwarz restrictions or a Nicolaides coarse space must either
///   tolerate or filter empty sub-domains.  Part indices are always in
///   range, so no consumer ever sees an out-of-bounds part.
///
/// (Note: [`crate::partition_mesh_with_overlap`] always requests
/// `k = ceil(n / target_size) ≤ n` parts, so the empty-part shape only
/// arises when calling this function directly.)
// detlint::allow(unreferenced-pub): the stage tests/partition_pins.rs pins on graphs no mesh produces
pub fn partition_graph(graph: &Graph, opts: &PartitionOptions) -> Partition {
    let n = graph.num_vertices();
    let k = opts.num_parts.max(1);
    if n == 0 {
        return Vec::new();
    }
    if k == 1 {
        return vec![0; n];
    }
    if k >= n {
        // One vertex per part (extra parts stay empty).
        return (0..n).collect();
    }

    let (seeds, _) = select_seeds(graph, k, opts.seed);
    let (mut assignment, mut sizes, _) = grow_parts(graph, &seeds);

    // Stragglers: nodes in components not reached by any seed.  Attach each to
    // the smallest part among its neighbours, or the globally smallest part.
    for v in 0..n {
        if assignment[v] == usize::MAX {
            let neighbour_part = graph
                .neighbours(v)
                .iter()
                .filter(|&&u| assignment[u] != usize::MAX)
                .map(|&u| assignment[u])
                .min_by_key(|&p| sizes[p]);
            let p = neighbour_part.unwrap_or_else(|| (0..k).min_by_key(|&p| sizes[p]).unwrap());
            assignment[v] = p;
            sizes[p] += 1;
        }
    }

    refine_balance(graph, &mut assignment, &mut sizes, opts);
    assignment
}

/// Farthest-point sampling of `k < n` seed vertices: the first is the one
/// ChaCha8 draw, each next one the vertex farthest (BFS metric) from all
/// seeds so far.  Unreachable vertices keep `usize::MAX`, clamped to
/// `usize::MAX − 1`, and so win — that spreads seeds across disconnected
/// components — and among equally far vertices the **highest index** wins.
///
/// Returns the seeds and the number of BFS queue pops spent: `O(n·log k)` on
/// a mesh graph instead of `k·n`, because each new seed only
/// [relaxes](Graph::relax_distances) the vertices it is nearest to.
///
/// The arg-max is a bucket queue.  Bucket `d` lists the vertices whose
/// distance is or once was `d`, bucket `n` the unreachable ones, and `top` is
/// the highest bucket that can still hold a vertex at its current distance.
/// Distances only fall and always to below `top`, so a bucket is complete
/// when `top` arrives at it: it is sorted once and popped from the back —
/// highest index first — skipping the entries that have moved on since.
fn select_seeds(graph: &Graph, k: usize, seed: u64) -> (Vec<usize>, usize) {
    let n = graph.num_vertices();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let first = rng.gen_range(0..n);
    let mut seeds = vec![first];
    // Distance of every vertex to its nearest selected seed, and the vertices
    // the latest seed lowered it for (that seed first).
    let mut min_dist = vec![usize::MAX; n];
    let mut nearer = Vec::new();
    graph.relax_distances(first, &mut min_dist, &mut nearer);
    let mut pops = nearer.len();
    let bucket = |d: usize| d.min(n);
    let mut buckets = vec![Vec::new(); n + 1];
    for v in (0..n).filter(|&v| v != first) {
        buckets[bucket(min_dist[v])].push(v);
    }
    let mut top = n;
    while seeds.len() < k {
        let Some(v) = buckets[top].pop() else {
            // k < n, so a non-seed vertex is always left in a lower bucket.
            let Some(lower) = top.checked_sub(1) else { break };
            top = lower;
            buckets[top].sort_unstable();
            continue;
        };
        if bucket(min_dist[v]) == top {
            seeds.push(v);
            graph.relax_distances(v, &mut min_dist, &mut nearer);
            pops += nearer.len();
            for &u in &nearer[1..] {
                buckets[min_dist[u]].push(u);
            }
        }
    }
    (seeds, pops)
}

/// Multi-source BFS growth from distinct `seeds`, always expanding the
/// smallest part that still has a frontier — the **lowest part index** on
/// equal sizes — by one vertex: the first unassigned neighbour, in adjacency
/// order, of the oldest frontier vertex that has one.
///
/// A step changes only the size and frontier of the part it expands and an
/// emptied frontier never refills, so a min-heap on `(size, part)` that
/// re-pushes the popped part while its frontier is non-empty visits the
/// parts in exactly the order a scan over all of them would.  Returns the
/// assignment (`usize::MAX` where no frontier reached), the part sizes and
/// the number of heap pushes (≤ n: one per seed or assigned vertex).
fn grow_parts(graph: &Graph, seeds: &[usize]) -> (Partition, Vec<usize>, usize) {
    let (n, k) = (graph.num_vertices(), seeds.len());
    let mut assignment = vec![usize::MAX; n];
    let mut frontiers: Vec<VecDeque<usize>> = vec![VecDeque::new(); k];
    let mut sizes = vec![1usize; k];
    for (p, &s) in seeds.iter().enumerate() {
        assignment[s] = p;
        frontiers[p].push_back(s);
    }
    let mut smallest: BinaryHeap<_> = (0..k).map(|p| Reverse((1, p))).collect();
    let mut pushes = k;
    let mut assigned = k;
    while assigned < n {
        // All frontiers exhausted: disconnected leftovers remain.
        let Some(Reverse((_, p))) = smallest.pop() else { break };
        while let Some(v) = frontiers[p].pop_front() {
            if let Some(&u) = graph.neighbours(v).iter().find(|&&u| assignment[u] == usize::MAX) {
                assignment[u] = p;
                sizes[p] += 1;
                assigned += 1;
                frontiers[p].push_back(u);
                // v may still have other unassigned neighbours.
                frontiers[p].push_front(v);
                break;
            }
            // v exhausted: drop it from the frontier.
        }
        if !frontiers[p].is_empty() {
            smallest.push(Reverse((sizes[p], p)));
            pushes += 1;
        }
    }
    (assignment, sizes, pushes)
}

/// Boundary refinement: move nodes from oversized parts to adjacent
/// undersized parts.
fn refine_balance(
    graph: &Graph,
    assignment: &mut [usize],
    sizes: &mut [usize],
    opts: &PartitionOptions,
) {
    let n = graph.num_vertices();
    let k = sizes.len();
    if k < 2 {
        return;
    }
    let ideal = n as f64 / k as f64;
    let max_allowed = (ideal * opts.balance_tolerance).ceil() as usize;

    for _ in 0..opts.refinement_sweeps {
        let mut moved = 0usize;
        for v in 0..n {
            let p = assignment[v];
            if sizes[p] <= max_allowed {
                continue;
            }
            // Candidate target: the smallest adjacent part different from p.
            let mut best: Option<usize> = None;
            for &u in graph.neighbours(v) {
                let q = assignment[u];
                if q != p {
                    best = match best {
                        None => Some(q),
                        Some(b) if sizes[q] < sizes[b] => Some(q),
                        other => other,
                    };
                }
            }
            if let Some(q) = best {
                if sizes[q] + 1 < sizes[p] {
                    assignment[v] = q;
                    sizes[p] -= 1;
                    sizes[q] += 1;
                    moved += 1;
                }
            }
        }
        if moved == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{balance_factor, edge_cut};
    use meshgen::{generate_mesh, MeshingOptions, RandomBlobDomain, RectangleDomain};

    fn grid_graph(nx: usize, ny: usize) -> Graph {
        let idx = |i: usize, j: usize| i * ny + j;
        let mut adjacency = vec![Vec::new(); nx * ny];
        for i in 0..nx {
            for j in 0..ny {
                let me = idx(i, j);
                if i > 0 {
                    adjacency[me].push(idx(i - 1, j));
                }
                if i + 1 < nx {
                    adjacency[me].push(idx(i + 1, j));
                }
                if j > 0 {
                    adjacency[me].push(idx(i, j - 1));
                }
                if j + 1 < ny {
                    adjacency[me].push(idx(i, j + 1));
                }
            }
        }
        Graph::from_adjacency(&adjacency)
    }

    #[test]
    fn trivial_cases() {
        let g = grid_graph(4, 4);
        let p1 = partition_graph(&g, &PartitionOptions { num_parts: 1, ..Default::default() });
        assert!(p1.iter().all(|&p| p == 0));
        let empty = Graph::from_adjacency(&[]);
        assert!(partition_graph(&empty, &PartitionOptions::default()).is_empty());
    }

    #[test]
    fn all_parts_are_nonempty_and_cover() {
        let g = grid_graph(20, 20);
        let opts = PartitionOptions { num_parts: 8, ..Default::default() };
        let parts = partition_graph(&g, &opts);
        assert_eq!(parts.len(), 400);
        let mut counts = vec![0usize; 8];
        for &p in &parts {
            assert!(p < 8);
            counts[p] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "part sizes {counts:?}");
    }

    #[test]
    fn partition_is_reasonably_balanced() {
        let g = grid_graph(30, 30);
        let opts = PartitionOptions { num_parts: 9, ..Default::default() };
        let parts = partition_graph(&g, &opts);
        let bf = balance_factor(&parts, 9);
        assert!(bf < 1.35, "balance factor {bf}");
    }

    #[test]
    fn edge_cut_is_much_smaller_than_total_edges() {
        let g = grid_graph(30, 30);
        let opts = PartitionOptions { num_parts: 4, ..Default::default() };
        let parts = partition_graph(&g, &opts);
        let cut = edge_cut(&g, &parts);
        // A 30x30 grid has 1740 edges; a sane 4-way partition cuts a small fraction.
        assert!(cut < 300, "edge cut {cut}");
        assert!(cut > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = grid_graph(15, 15);
        let opts = PartitionOptions { num_parts: 5, seed: 3, ..Default::default() };
        let p1 = partition_graph(&g, &opts);
        let p2 = partition_graph(&g, &opts);
        assert_eq!(p1, p2);
    }

    #[test]
    fn more_parts_than_vertices_degenerates_gracefully() {
        let g = grid_graph(2, 2);
        let opts = PartitionOptions { num_parts: 10, ..Default::default() };
        let parts = partition_graph(&g, &opts);
        assert_eq!(parts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_parts_is_treated_as_one() {
        let g = grid_graph(3, 3);
        let parts = partition_graph(&g, &PartitionOptions { num_parts: 0, ..Default::default() });
        assert!(parts.iter().all(|&p| p == 0));
        // Empty graph + zero parts: still just an empty assignment.
        let empty = Graph::from_adjacency(&[]);
        assert!(partition_graph(&empty, &PartitionOptions { num_parts: 0, ..Default::default() })
            .is_empty());
    }

    #[test]
    fn exactly_one_part_per_vertex_when_k_equals_n() {
        let g = grid_graph(3, 2);
        let parts = partition_graph(&g, &PartitionOptions { num_parts: 6, ..Default::default() });
        assert_eq!(parts, vec![0, 1, 2, 3, 4, 5], "k == n assigns vertex v to part v");
    }

    #[test]
    fn k_greater_than_n_part_indices_stay_in_range() {
        // The doc contract: part indices are always < num_parts, even in the
        // degenerate one-vertex-per-part shape with empty tail parts.
        let g = grid_graph(2, 3);
        let k = 17;
        let parts = partition_graph(&g, &PartitionOptions { num_parts: k, ..Default::default() });
        assert_eq!(parts.len(), 6);
        assert!(parts.iter().all(|&p| p < k), "part index out of range: {parts:?}");
        let mut counts = vec![0usize; k];
        for &p in &parts {
            counts[p] += 1;
        }
        assert!(counts[..6].iter().all(|&c| c == 1));
        assert!(counts[6..].iter().all(|&c| c == 0), "tail parts must be empty, not aliased");
    }

    #[test]
    fn disconnected_graph_is_fully_assigned() {
        // Two disjoint paths.
        let adjacency = vec![vec![1], vec![0, 2], vec![1], vec![4], vec![3, 5], vec![4]];
        let g = Graph::from_adjacency(&adjacency);
        let opts = PartitionOptions { num_parts: 2, ..Default::default() };
        let parts = partition_graph(&g, &opts);
        assert!(parts.iter().all(|&p| p < 2));
    }

    fn blob_mesh_graph(target_nodes: usize) -> Graph {
        let domain = RandomBlobDomain::generate(4, 20, 1.0);
        let h = meshgen::generator::element_size_for_target_nodes(&domain, target_nodes);
        Graph::from_mesh(&generate_mesh(&domain, &MeshingOptions::with_element_size(h)))
    }

    /// The complexity contract, counted rather than timed (a count repeats
    /// exactly): one full BFS per seed would pop `k·n` vertices, one scan of
    /// the parts per assigned vertex would be `k·n` comparisons.
    #[test]
    fn seed_and_growth_work_is_near_linear() {
        for (target_nodes, target_size) in [(2_000, 300), (24_000, 300)] {
            let g = blob_mesh_graph(target_nodes);
            let n = g.num_vertices();
            let k = n.div_ceil(target_size);
            let (seeds, pops) = select_seeds(&g, k, 0);
            assert_eq!(seeds.len(), k);
            let bound = n as f64 * (2.0 + (k as f64).log2());
            assert!(pops >= n && (pops as f64) <= bound, "n = {n}, k = {k}: {pops} BFS pops");
            let (assignment, sizes, pushes) = grow_parts(&g, &seeds);
            assert!(assignment.iter().all(|&p| p < k), "a connected mesh leaves no straggler");
            assert_eq!(sizes.iter().sum::<usize>(), n);
            assert!(pushes <= 2 * n, "n = {n}, k = {k}: {pushes} heap pushes");
        }
    }

    /// The farthest-point sampling as first written: a full BFS per seed and
    /// a scan of all vertices for the arg-max.
    fn reference_seeds(graph: &Graph, k: usize, seed: u64) -> Vec<usize> {
        let n = graph.num_vertices();
        let first = ChaCha8Rng::seed_from_u64(seed).gen_range(0..n);
        let mut seeds = vec![first];
        let mut min_dist = graph.bfs_distances(first);
        while seeds.len() < k {
            let next = (0..n)
                .filter(|v| !seeds.contains(v))
                .max_by_key(|&v| min_dist[v].min(usize::MAX - 1))
                .unwrap();
            seeds.push(next);
            for (m, d) in min_dist.iter_mut().zip(graph.bfs_distances(next)) {
                *m = (*m).min(d);
            }
        }
        seeds
    }

    /// The growth loop as first written: a scan over all parts per step.
    fn reference_growth(graph: &Graph, seeds: &[usize]) -> (Partition, Vec<usize>) {
        let mut assignment = vec![usize::MAX; graph.num_vertices()];
        let mut frontiers = vec![VecDeque::new(); seeds.len()];
        for (p, &s) in seeds.iter().enumerate() {
            assignment[s] = p;
            frontiers[p].push_back(s);
        }
        let mut sizes = vec![1usize; seeds.len()];
        loop {
            let candidates = (0..seeds.len()).filter(|&p| !frontiers[p].is_empty());
            let Some(p) = candidates.min_by_key(|&p| sizes[p]) else { break };
            while let Some(v) = frontiers[p].pop_front() {
                let free = graph.neighbours(v).iter().find(|&&u| assignment[u] == usize::MAX);
                if let Some(&u) = free {
                    assignment[u] = p;
                    sizes[p] += 1;
                    frontiers[p].push_back(u);
                    frontiers[p].push_front(v);
                    break;
                }
            }
        }
        (assignment, sizes)
    }

    /// Sparse random graphs: several components, isolated vertices, ties.
    fn random_graph(n: usize, edges: usize, rng: &mut ChaCha8Rng) -> Graph {
        let mut adjacency = vec![Vec::new(); n];
        for _ in 0..edges {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        Graph::from_adjacency(&adjacency)
    }

    #[test]
    fn seeds_and_growth_match_the_quadratic_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut graphs = vec![grid_graph(9, 7), grid_graph(30, 1), blob_mesh_graph(400)];
        for _ in 0..40 {
            let n = rng.gen_range(2..60);
            let edges = rng.gen_range(0..2 * n);
            graphs.push(random_graph(n, edges, &mut rng));
        }
        for g in &graphs {
            let n = g.num_vertices();
            for k in [2, 3, n / 4, n / 2, n - 1] {
                if !(2..n).contains(&k) {
                    continue;
                }
                for seed in [0, 7] {
                    let (seeds, _) = select_seeds(g, k, seed);
                    assert_eq!(seeds, reference_seeds(g, k, seed), "n = {n}, k = {k}");
                    let (assignment, sizes, _) = grow_parts(g, &seeds);
                    let grown = (assignment, sizes);
                    assert_eq!(grown, reference_growth(g, &seeds), "n = {n}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn mesh_partition_sizes_track_target() {
        // The paper partitions ~7000-node meshes into sub-domains of ~1000.
        let domain = RandomBlobDomain::generate(4, 20, 1.0);
        let h = meshgen::generator::element_size_for_target_nodes(&domain, 2000);
        let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h));
        let g = Graph::from_mesh(&mesh);
        let k = mesh.num_nodes().div_ceil(500);
        let parts = partition_graph(&g, &PartitionOptions { num_parts: k, ..Default::default() });
        let mut counts = vec![0usize; k];
        for &p in &parts {
            counts[p] += 1;
        }
        let ideal = mesh.num_nodes() as f64 / k as f64;
        for &c in &counts {
            assert!(
                (c as f64) > 0.5 * ideal && (c as f64) < 1.6 * ideal,
                "part size {c} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn rectangle_mesh_partition_quality() {
        let d = RectangleDomain::new(0.0, 0.0, 4.0, 1.0);
        let mesh = generate_mesh(&d, &MeshingOptions::with_element_size(0.07));
        let g = Graph::from_mesh(&mesh);
        let parts = partition_graph(&g, &PartitionOptions { num_parts: 4, ..Default::default() });
        let bf = balance_factor(&parts, 4);
        assert!(bf < 1.3, "balance {bf}");
        let cut = edge_cut(&g, &parts);
        assert!((cut as f64) < 0.2 * g.num_edges() as f64, "cut {cut} of {}", g.num_edges());
    }
}
