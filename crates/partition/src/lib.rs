//! Graph partitioning for domain decomposition — the METIS substitute.
//!
//! The paper partitions every mesh into sub-domains of ~500–2000 nodes with
//! METIS and then adds an overlap of 2 or 4 element layers (Section IV-A).
//! This crate reproduces that pipeline on the mesh node graph:
//!
//! * [`graph::Graph`] — a compact adjacency structure built from a mesh,
//! * [`partitioner`] — multi-seed greedy graph growing with farthest-point
//!   seeding and a balancing refinement pass,
//! * [`overlap`] — BFS expansion of each part by a configurable number of
//!   layers, producing the overlapping sub-domain node sets that the Schwarz
//!   restriction operators consume,
//! * `quality` — edge cut and balance metrics the tests judge partitions by.
//!
//! Setup is part of time-to-solution, so the whole pipeline is near-linear —
//! `O((n + e)·log n)` for `n` nodes and `e` edges, no `O(n)` work or
//! allocation per seed, part or sub-domain — and a pure function of its
//! inputs.  Every solver hash downstream depends on the exact node lists, so
//! the tie-break rules documented in [`partitioner`] are contract, pinned
//! list by list: on graphs no mesh produces by this crate's tests, on the
//! benchmark meshes by the umbrella crate's `tests/partition_pins.rs`.

pub mod graph;
pub mod overlap;
pub mod partitioner;
#[cfg(test)]
mod quality;

pub use graph::Graph;
use overlap::grow_overlap;
use partitioner::partition_graph;

/// A partition assignment: `part[v]` is the sub-domain index of node `v`.
pub(crate) type Partition = Vec<usize>;

/// Partition a mesh into sub-domains of approximately `target_size` nodes and
/// grow each part by `overlap` layers.  Convenience wrapper used by the
/// higher-level crates: returns the overlapping node sets (sorted, one per
/// sub-domain).
///
/// An empty mesh has no sub-domains, and a `target_size` of 0 is treated as 1
/// (one node per part).
pub fn partition_mesh_with_overlap(
    mesh: &meshgen::Mesh,
    target_size: usize,
    overlap: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    let graph = Graph::from_mesh(mesh);
    let k = mesh.num_nodes().div_ceil(target_size.max(1));
    let parts = partition_graph(&graph, k, seed);
    grow_overlap(&graph, &parts, k, overlap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshgen::{generate_mesh, MeshingOptions, RandomBlobDomain};

    #[test]
    fn mesh_partition_with_overlap_covers_all_nodes() {
        let domain = RandomBlobDomain::generate(1, 20, 1.0);
        let h = meshgen::generator::element_size_for_target_nodes(&domain, 1200);
        let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h));
        let subdomains = partition_mesh_with_overlap(&mesh, 300, 2, 0);
        assert!(subdomains.len() >= 3, "expected several sub-domains");
        // Every node appears in at least one sub-domain.
        let mut covered = vec![false; mesh.num_nodes()];
        for sd in &subdomains {
            for &v in sd {
                covered[v] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        // Overlap means the total is strictly larger than the node count.
        let total: usize = subdomains.iter().map(|s| s.len()).sum();
        assert!(total > mesh.num_nodes());
        // Sub-domain sizes should be in the right ballpark.
        for sd in &subdomains {
            assert!(sd.len() > 100 && sd.len() < 900, "sub-domain size {}", sd.len());
        }
    }

    #[test]
    fn empty_mesh_has_no_subdomains() {
        // `(0 + target - 1) / target` used to underflow at target 0: an
        // overflow panic in debug, `usize::MAX` parts in release.
        let empty = meshgen::Mesh::new(Vec::new(), Vec::new());
        for target_size in [0, 1, 300] {
            assert!(partition_mesh_with_overlap(&empty, target_size, 2, 0).is_empty());
        }
    }

    #[test]
    fn zero_target_size_means_one_node_per_part() {
        // Target 0 used to ask for n − 1 parts where target 1 asks for n.
        let d = meshgen::RectangleDomain::new(0.0, 0.0, 1.0, 1.0);
        let mesh = generate_mesh(&d, &MeshingOptions::with_element_size(0.25));
        let subdomains = partition_mesh_with_overlap(&mesh, 0, 1, 0);
        assert_eq!(subdomains.len(), mesh.num_nodes());
        assert_eq!(subdomains, partition_mesh_with_overlap(&mesh, 1, 1, 0));
    }

    /// FNV-1a over a list of node lists' complete content — every length,
    /// every member, in order — the hash the umbrella crate's
    /// `tests/partition_pins.rs` pins the mesh sub-domains with.
    fn hash_lists(lists: &[Vec<usize>]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for list in lists {
            h = (h ^ list.len() as u64).wrapping_mul(0x100000001b3);
            for &v in list {
                h = (h ^ v as u64).wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    // ---- graphs the meshes never produce ----------------------------------
    //
    // Pins of `partition_graph` and `grow_overlap` on shapes the mesh
    // generator never produces — several components, isolated vertices, a
    // path, a star, `k = n − 1`, more components than parts — which is where
    // seed selection (unreachable vertices clamp to `usize::MAX − 1` and win,
    // the *highest* index wins a tie) and the growth loop (lowest part index
    // wins a size tie, the straggler branch) have corner cases an equivalent
    // rewrite must keep.  Recorded before the near-linear rewrite.

    type Adjacency = Vec<Vec<usize>>;

    fn grid(nx: usize, ny: usize) -> Adjacency {
        let mut adjacency = vec![Vec::new(); nx * ny];
        for i in 0..nx {
            for j in 0..ny {
                if i + 1 < nx {
                    adjacency[i * ny + j].push((i + 1) * ny + j);
                    adjacency[(i + 1) * ny + j].push(i * ny + j);
                }
                if j + 1 < ny {
                    adjacency[i * ny + j].push(i * ny + j + 1);
                    adjacency[i * ny + j + 1].push(i * ny + j);
                }
            }
        }
        adjacency
    }

    fn path(n: usize) -> Adjacency {
        grid(n, 1)
    }

    fn star(leaves: usize) -> Adjacency {
        let mut adjacency = vec![(1..=leaves).collect::<Vec<_>>()];
        adjacency.extend((0..leaves).map(|_| vec![0]));
        adjacency
    }

    /// The disjoint union of the given graphs, vertices renumbered in order.
    fn union(components: &[Adjacency]) -> Adjacency {
        let mut adjacency = Vec::new();
        for component in components {
            let offset = adjacency.len();
            adjacency.extend(component.iter().map(|l| l.iter().map(|&u| u + offset).collect()));
        }
        adjacency
    }

    /// Direct pins on one graph, one `(num_parts, seed, overlap, assignment,
    /// sub-domains)` row each: the hash of the assignment `partition_graph`
    /// returns (as a single list) and of the lists `grow_overlap` makes of it.
    fn check_graph(name: &str, adjacency: &Adjacency, pins: &[(usize, u64, usize, u64, u64)]) {
        let graph = Graph::from_adjacency(adjacency);
        for &(num_parts, seed, overlap, assignment_hash, subdomains_hash) in pins {
            let assignment = partition_graph(&graph, num_parts, seed);
            let subdomains = grow_overlap(&graph, &assignment, num_parts, overlap);
            let (a, s) = (hash_lists(&[assignment]), hash_lists(&subdomains));
            assert_eq!(
                (a, s),
                (assignment_hash, subdomains_hash),
                "{name}, k = {num_parts}, seed {seed}, overlap {overlap}: \
                 assignment {a:016x}, sub-domains {s:016x}"
            );
        }
    }

    #[test]
    fn disconnected_graphs_are_pinned() {
        check_graph(
            "two components of unequal size",
            &union(&[grid(7, 6), path(11)]),
            &[
                (5, 0, 1, 0xb52ccf01046d100f, 0x176a3c32e3e01470),
                (5, 7, 2, 0x21e66f3c14d80a67, 0x60a44fd6daa0a40e),
            ],
        );
        check_graph(
            "small component first",
            &union(&[path(4), grid(9, 5)]),
            &[(5, 0, 1, 0x19fd9d291b8ebcb8, 0x62fc8393220b0663)],
        );
        check_graph(
            "isolated vertex last",
            &union(&[grid(6, 6), path(1)]),
            &[(4, 0, 1, 0x3bf49674a3522c2d, 0xd5173a789d5d3abb)],
        );
        check_graph(
            "isolated vertex first",
            &union(&[path(1), grid(6, 6)]),
            &[(4, 7, 2, 0xbd194ab1e2db192f, 0x57add43b1034ec8a)],
        );
        // Components no seed lands in: the straggler branch assigns them.
        check_graph(
            "more components than parts",
            &union(&[path(5), path(1), path(1), path(4), path(1), grid(3, 3)]),
            &[(3, 0, 1, 0x2c95511cfb3d8a47, 0x1f2328bd4740a8ea)],
        );
    }

    #[test]
    fn path_star_and_grid_are_pinned() {
        check_graph(
            "path",
            &path(50),
            &[
                (6, 0, 2, 0x091dbe686a1c2535, 0x2a19152167915a80),
                (6, 7, 0, 0xbafbaed0714bc292, 0xddae36c83f18f6c8),
            ],
        );
        check_graph("star", &star(29), &[(4, 0, 1, 0x6821274502fc0647, 0xe2ffd9023a271515)]);
        // Every BFS level of a grid is a tie for the farthest vertex.
        check_graph(
            "grid",
            &grid(40, 25),
            &[
                (37, 0, 2, 0xa8a178ff09f43a80, 0x83384ea45a728d38),
                (2, 7, 4, 0xb14c032f9b1a17fb, 0x42ad65ff020251b5),
            ],
        );
    }

    #[test]
    fn all_but_one_vertex_a_seed_is_pinned() {
        check_graph("grid", &grid(4, 3), &[(11, 0, 1, 0xaf691229385fc469, 0xee3d4f814952527f)]);
        check_graph("path", &path(9), &[(8, 7, 1, 0xeb3174644587aed0, 0x274c10bd7a924a0b)]);
    }
}
