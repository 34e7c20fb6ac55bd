//! Overlap expansion: turn a non-overlapping partition into the overlapping
//! sub-domains of the Additive Schwarz Method.
//!
//! The paper uses an overlap of 2 (and 4 in the ablation of Table I): each
//! sub-domain is the set of nodes of its part plus all nodes at graph distance
//! ≤ overlap from that part.

use crate::graph::Graph;
use crate::Partition;

/// Expand every part of `partition` by `overlap` BFS layers.
///
/// Returns one sorted node list per part.  With `overlap == 0` the lists are
/// exactly the parts themselves.  The cost is `O(n + Σ|sub-domain|·degree)`:
/// one BFS level array serves every part and is reset only where a part
/// touched it.
// detlint::allow(unreferenced-pub): the stage tests/partition_pins.rs pins on graphs no mesh produces
pub fn grow_overlap(
    graph: &Graph,
    partition: &Partition,
    num_parts: usize,
    overlap: usize,
) -> Vec<Vec<usize>> {
    let n = graph.num_vertices();
    assert_eq!(partition.len(), n, "partition length mismatch");

    // Collect the core node lists.
    let mut subdomains: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
    for (v, &p) in partition.iter().enumerate() {
        assert!(p < num_parts, "partition index {p} out of range");
        subdomains[p].push(v);
    }

    // Expand each part in turn.  The member list is its own BFS queue: it
    // holds the core, then every discovered node in discovery order.
    let mut level = vec![usize::MAX; n];
    for members in &mut subdomains {
        for &v in members.iter() {
            level[v] = 0;
        }
        let mut head = 0;
        while head < members.len() {
            let v = members[head];
            head += 1;
            if level[v] >= overlap {
                break; // levels never decrease along the queue
            }
            for &u in graph.neighbours(v) {
                if level[u] == usize::MAX {
                    level[u] = level[v] + 1;
                    members.push(u);
                }
            }
        }
        for &v in members.iter() {
            level[v] = usize::MAX;
        }
        members.sort_unstable();
    }
    subdomains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::{partition_graph, PartitionOptions};

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
    fn zero_overlap_returns_parts() {
        let g = grid_graph(10, 10);
        let parts = partition_graph(&g, &PartitionOptions { num_parts: 4, ..Default::default() });
        let sds = grow_overlap(&g, &parts, 4, 0);
        let total: usize = sds.iter().map(|s| s.len()).sum();
        assert_eq!(total, 100);
        // Each node exactly once.
        let mut seen = vec![0usize; 100];
        for sd in &sds {
            for &v in sd {
                seen[v] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn overlap_grows_subdomains_monotonically() {
        let g = grid_graph(16, 16);
        let parts = partition_graph(&g, &PartitionOptions { num_parts: 4, ..Default::default() });
        let sd0 = grow_overlap(&g, &parts, 4, 0);
        let sd2 = grow_overlap(&g, &parts, 4, 2);
        let sd4 = grow_overlap(&g, &parts, 4, 4);
        for i in 0..4 {
            assert!(sd2[i].len() > sd0[i].len());
            assert!(sd4[i].len() > sd2[i].len());
            // Larger overlaps contain smaller ones.
            for v in &sd0[i] {
                assert!(sd2[i].binary_search(v).is_ok());
            }
            for v in &sd2[i] {
                assert!(sd4[i].binary_search(v).is_ok());
            }
        }
    }

    #[test]
    fn overlap_nodes_are_within_graph_distance() {
        let g = grid_graph(12, 12);
        let parts = partition_graph(&g, &PartitionOptions { num_parts: 3, ..Default::default() });
        let overlap = 2;
        let sds = grow_overlap(&g, &parts, 3, overlap);
        for (p, sd) in sds.iter().enumerate() {
            // BFS from the core of part p.
            let core: Vec<usize> = (0..144).filter(|&v| parts[v] == p).collect();
            let mut dist = vec![usize::MAX; 144];
            let mut queue = std::collections::VecDeque::new();
            for &v in &core {
                dist[v] = 0;
                queue.push_back(v);
            }
            while let Some(v) = queue.pop_front() {
                for &u in g.neighbours(v) {
                    if dist[u] == usize::MAX {
                        dist[u] = dist[v] + 1;
                        queue.push_back(u);
                    }
                }
            }
            for &v in sd {
                assert!(dist[v] <= overlap, "node {v} is too far from part {p}");
            }
        }
    }

    #[test]
    fn sorted_and_unique_members() {
        let g = grid_graph(8, 8);
        let parts = partition_graph(&g, &PartitionOptions { num_parts: 2, ..Default::default() });
        let sds = grow_overlap(&g, &parts, 2, 3);
        for sd in &sds {
            let mut sorted = sd.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(&sorted, sd);
        }
    }

    #[test]
    fn degenerate_k_ge_n_partition_flows_through_overlap() {
        // `partition_graph` with k >= n yields one vertex per part and empty
        // tail parts; `grow_overlap` must accept that assignment (all indices
        // are in range) and return empty node lists for the empty parts
        // instead of panicking or fabricating members.
        let g = grid_graph(2, 2);
        let k = 9;
        let parts = partition_graph(&g, &PartitionOptions { num_parts: k, ..Default::default() });
        let sds = grow_overlap(&g, &parts, k, 1);
        assert_eq!(sds.len(), k);
        for (p, sd) in sds.iter().enumerate().take(4) {
            // Singleton core + 1 overlap layer = the vertex and its
            // neighbours; every grid vertex has degree 2 here.
            assert_eq!(sd.len(), 3, "part {p}: {sd:?}");
            assert!(sd.contains(&p), "part {p} must contain its core vertex");
            assert!(sd.windows(2).all(|w| w[0] < w[1]), "sorted/unique");
        }
        for sd in &sds[4..] {
            assert!(sd.is_empty(), "tail parts past the vertex count must stay empty");
        }
    }
}
