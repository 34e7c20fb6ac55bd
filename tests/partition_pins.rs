//! Byte-for-byte pins of the setup front end, `partition_mesh_with_overlap`,
//! on the benchmark meshes.
//!
//! Every value below was recorded on the quadratic-seed-scan partitioner
//! (commit `b7fcfde`) **before** it was rewritten, and a rewrite may not
//! change one: the sub-domain lists feed every `solution_hash` and iteration
//! count the benchmark and the determinism suites pin.  A list of node lists
//! is hashed FNV-1a style over its complete content — every length, every
//! member, in order:
//!
//! ```text
//! h = 0xcbf29ce484222325
//! per list:    h = (h ^ len).wrapping_mul(0x100000001b3)
//! per member:  h = (h ^ v).wrapping_mul(0x100000001b3)
//! ```
//!
//! The mesh pins cover the three benchmark meshes and the parameter
//! directions of `partition_mesh_with_overlap` (target size, overlap,
//! partition seed).  The `partition` crate's own tests pin its two stages,
//! `partition_graph` and `grow_overlap`, with the same hash on graphs the
//! mesh generator never produces.

use ddm_gnn_suite::ddm_gnn::generate_problem;
use ddm_gnn_suite::partition::partition_mesh_with_overlap;

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

/// One `partition_mesh_with_overlap(mesh, target_size, overlap, seed)` pin:
/// the number of sub-domains and the hash of their node lists.
struct MeshPin {
    target_size: usize,
    overlap: usize,
    seed: u64,
    subdomains: usize,
    hash: u64,
}

const fn pin(
    target_size: usize,
    overlap: usize,
    seed: u64,
    subdomains: usize,
    hash: u64,
) -> MeshPin {
    MeshPin { target_size, overlap, seed, subdomains, hash }
}

fn check_mesh(problem_seed: u64, target_nodes: usize, num_nodes: usize, pins: &[MeshPin]) {
    let mesh = generate_problem(problem_seed, target_nodes).mesh;
    assert_eq!(mesh.num_nodes(), num_nodes, "the pinned mesh itself moved");
    for p in pins {
        let subdomains = partition_mesh_with_overlap(&mesh, p.target_size, p.overlap, p.seed);
        let what = format!(
            "n = {num_nodes}, target {}, overlap {}, seed {}",
            p.target_size, p.overlap, p.seed
        );
        assert_eq!(subdomains.len(), p.subdomains, "sub-domain count at {what}");
        let hash = hash_lists(&subdomains);
        assert_eq!(hash, p.hash, "sub-domain lists moved at {what}: {hash:016x}");
    }
}

#[test]
fn mesh_3k_subdomains_are_pinned() {
    check_mesh(
        1,
        3_000,
        3_090,
        &[
            pin(300, 2, 0, 11, 0x29d0f17e10b03c74),
            pin(300, 0, 0, 11, 0x07985c043198ed52),
            pin(300, 4, 0, 11, 0x821a888c8952b3c3),
            pin(150, 2, 0, 21, 0x4bb5a03872c940d8),
            pin(1_000, 2, 0, 4, 0xa57fbfd86ff8da6e),
            pin(300, 2, 7, 11, 0xfb960dfdcec13938),
        ],
    );
}

#[test]
fn mesh_24k_subdomains_are_pinned() {
    check_mesh(
        3,
        24_000,
        24_346,
        &[
            pin(300, 2, 0, 82, 0x2c93c20f1c15336d),
            pin(300, 0, 0, 82, 0x5e0dc4be3e4b6974),
            pin(300, 4, 0, 82, 0x70c44ff4819e2eb3),
            pin(150, 2, 0, 163, 0x8497fa2ab303deb8),
            pin(1_000, 2, 0, 25, 0xf5f48fd8ca4a16dd),
            pin(300, 2, 7, 82, 0xf9f90d6f45fb644c),
        ],
    );
}

#[test]
#[ignore = "n ≈ 101k mesh: opt in with `cargo test --release -- --include-ignored`"]
fn mesh_100k_subdomains_are_pinned() {
    check_mesh(5, 100_000, 100_892, &[pin(300, 2, 0, 337, 0x4ba7ee5214ff1d6f)]);
}
