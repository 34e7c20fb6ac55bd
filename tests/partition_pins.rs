//! Byte-for-byte pins of the setup front end: `partition_graph` →
//! `grow_overlap` → `partition_mesh_with_overlap`.
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
//! partition seed).  The graph pins cover shapes the mesh generator never
//! produces — several components, isolated vertices, a path, a star,
//! `k = n − 1`, more components than parts — which is where seed selection
//! (unreachable vertices clamp to `usize::MAX − 1` and win, the *highest*
//! index wins a tie) and the growth loop (lowest part index wins a size tie,
//! the straggler branch) have corner cases an equivalent rewrite must keep.

use ddm_gnn_suite::ddm_gnn::generate_problem;
use ddm_gnn_suite::partition::{
    grow_overlap, partition_graph, partition_mesh_with_overlap, Graph, PartitionOptions,
};

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

// ---- graphs the meshes never produce --------------------------------------

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
        let opts = PartitionOptions { num_parts, seed, ..Default::default() };
        let assignment = partition_graph(&graph, &opts);
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
