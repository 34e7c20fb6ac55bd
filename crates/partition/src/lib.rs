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
//! list by list in the umbrella crate's `tests/partition_pins.rs`.

pub mod graph;
pub mod overlap;
pub mod partitioner;
#[cfg(test)]
mod quality;

pub use graph::Graph;
pub use overlap::grow_overlap;
pub use partitioner::{partition_graph, PartitionOptions};

/// A partition assignment: `part[v]` is the sub-domain index of node `v`.
pub type Partition = Vec<usize>;

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
    let opts = PartitionOptions { num_parts: k, seed, ..Default::default() };
    let parts = partition_graph(&graph, &opts);
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
}
