//! Training-set extraction (Section IV-A of the paper).
//!
//! The paper's dataset is built by solving many global Poisson problems with
//! PCG preconditioned by the classic two-level ASM, and recording, at every
//! PCG iteration and for every sub-domain, the local problem the
//! preconditioner had to solve: the sub-domain operator together with the
//! restricted (and normalised) residual as right-hand side.  This module
//! reproduces that pipeline: the produced [`LocalGraph`]s are exactly the
//! inputs the DSS model later sees inside the DDM-GNN preconditioner.  The
//! solve is the workspace's one PCG driver,
//! [`krylov::preconditioned_conjugate_gradient`], and the recording is a
//! preconditioner wrapped around the one that generates the data.

use ddm::{AdditiveSchwarz, AsmLevel, Decomposition, Restriction};
use fem::PoissonProblem;
use krylov::{preconditioned_conjugate_gradient, Preconditioner, SolverOptions};
use meshgen::{generate_mesh, MeshingOptions, RandomBlobDomain};
use partition::partition_mesh_with_overlap;
use sanitizer::TrackedMutex;
use sparse::CsrMatrix;

use crate::graph::LocalGraph;

/// A training sample: one local Poisson problem presented as a graph.  The
/// samples of one sub-domain share its graph's structure and operator; each
/// owns only its input.
pub type TrainingSample = LocalGraph;

/// Relative residual tolerance of the data-generating PCG solve.
const TOLERANCE: f64 = 1e-6;
/// Global problems solved per sub-domain size.
const PROBLEMS_PER_SIZE: usize = 4;
/// Every global problem has this many times the largest sub-domain size in
/// nodes.
const NODES_PER_LARGEST_SUBDOMAIN: usize = 4;
/// Overlap layers of the data-generating decomposition.
const OVERLAP: usize = 2;
/// Iteration cap of the data-generating PCG solve: it applies the
/// preconditioner, and so records, at most once more than this.
const PCG_ITERATIONS: usize = 15;
/// Seed of the first size's problems; size `i` of the list seeds from
/// `SEED + 1000 i` and its problem `p` from that plus `1013 p`.
const SEED: u64 = 1;

/// Build the per-sub-domain graph templates (geometry and operator) of
/// a decomposed problem from its sub-domains and their local operators
/// `Rᵢ A Rᵢᵀ`, which move into the graphs.  The right-hand sides start at
/// zero; dataset extraction fills them in.
pub fn build_local_graphs(
    problem: &PoissonProblem,
    subdomains: &[Vec<usize>],
    local_matrices: Vec<CsrMatrix>,
) -> Vec<LocalGraph> {
    subdomains
        .iter()
        .zip(local_matrices)
        .map(|(subdomain, local_matrix)| {
            let positions = subdomain.iter().map(|&g| problem.mesh.points[g]).collect();
            let zero_rhs = vec![0.0; subdomain.len()];
            LocalGraph::new(local_matrix, positions, &zero_rhs)
        })
        .collect()
}

/// Extract local training problems: for each sub-domain size, run
/// two-level ASM-preconditioned PCG on random global problems and record
/// every sub-domain right-hand side at every iteration, up to `max_samples`
/// samples per size.
///
/// The sizes' samples are interleaved round-robin, so that a held-back tail
/// of the set (and any truncation of it) spans every size rather than only
/// the last one.
pub fn extract_local_problems(
    subdomain_sizes: &[usize],
    max_samples: usize,
) -> Vec<TrainingSample> {
    let target_nodes = NODES_PER_LARGEST_SUBDOMAIN * subdomain_sizes.iter().max().unwrap_or(&0);
    let mut queues: Vec<std::vec::IntoIter<TrainingSample>> = subdomain_sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let seed = SEED.wrapping_add(1000 * i as u64);
            extract_one_size(size, target_nodes, max_samples, seed).into_iter()
        })
        .collect();
    let total: usize = queues.iter().map(|q| q.len()).sum();
    let mut samples = Vec::with_capacity(total);
    while samples.len() < total {
        for queue in &mut queues {
            samples.extend(queue.next());
        }
    }
    samples
}

/// The samples of one sub-domain size, at most `max_samples` of them.
fn extract_one_size(
    subdomain_size: usize,
    target_nodes: usize,
    max_samples: usize,
    seed: u64,
) -> Vec<TrainingSample> {
    let opts = SolverOptions::with_tolerance(TOLERANCE).max_iterations(PCG_ITERATIONS);
    let mut samples = Vec::new();
    for p in 0..PROBLEMS_PER_SIZE {
        if samples.len() >= max_samples {
            break;
        }
        let problem_seed = seed.wrapping_add(p as u64 * 1013);
        let domain = RandomBlobDomain::generate(problem_seed, 20, 1.0);
        let h = meshgen::generator::element_size_for_target_nodes(&domain, target_nodes);
        let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(problem_seed));
        let subdomains = partition_mesh_with_overlap(&mesh, subdomain_size, OVERLAP, problem_seed);
        let problem = PoissonProblem::with_random_data(mesh, problem_seed.wrapping_add(7));
        // A problem whose set-up fails contributes no samples.
        let Ok(Decomposition { subdomains, restrictions, local_matrices }) =
            Decomposition::new(&problem.matrix, subdomains)
        else {
            continue;
        };
        let templates = build_local_graphs(&problem, &subdomains, local_matrices);
        let Ok(asm) = AdditiveSchwarz::new(&problem.matrix, subdomains, AsmLevel::TwoLevel) else {
            continue;
        };
        let recorder = Recorder {
            inner: &asm,
            restrictions: &restrictions,
            templates: &templates,
            samples: TrackedMutex::new(Vec::new(), "gnn::dataset::Recorder::samples"),
        };
        preconditioned_conjugate_gradient(&problem.matrix, &problem.rhs, None, &recorder, &opts);
        samples.append(&mut recorder.samples.lock());
        samples.truncate(max_samples);
    }
    samples
}

/// The data-generating preconditioner `inner`, recording before each of
/// its applies one sample per sub-domain of the residual it is applied to
/// (the red step of Algorithm 1).
struct Recorder<'a> {
    inner: &'a dyn Preconditioner,
    restrictions: &'a [Restriction],
    templates: &'a [LocalGraph],
    samples: TrackedMutex<Vec<TrainingSample>>,
}

impl Preconditioner for Recorder<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let recorded =
            self.restrictions.iter().zip(self.templates).filter_map(|(restriction, template)| {
                let local_rhs = restriction.restrict(r);
                // Skip (numerically) zero local residuals — they carry no signal.
                // A clone of the template shares its structure; the restricted
                // residual becomes its input.
                (sparse::vector::norm2(&local_rhs) > 1e-14).then(|| {
                    let mut graph = template.clone();
                    graph.set_rhs(&local_rhs);
                    graph
                })
            });
        self.samples.lock().extend(recorded);
        self.inner.apply(r, z);
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_samples() -> Vec<TrainingSample> {
        extract_local_problems(&[120], 40)
    }

    #[test]
    fn extraction_produces_normalised_samples() {
        let samples = tiny_samples();
        assert!(!samples.is_empty(), "dataset must not be empty");
        assert!(samples.len() <= 40);
        for s in &samples {
            // Inputs are normalised (‖c‖ = 1) and sizes are consistent.
            let norm = sparse::vector::norm2(&s.input);
            assert!((norm - 1.0).abs() < 1e-10, "input norm {norm}");
            assert_eq!(s.matrix.nrows(), s.num_nodes());
            assert_eq!(s.in_degree.len(), s.num_nodes());
            assert!(s.num_edges() > 0);
            // Sub-domain sizes track the requested size.
            assert!(s.num_nodes() > 40 && s.num_nodes() < 400, "size {}", s.num_nodes());
        }
    }

    #[test]
    fn samples_come_from_multiple_iterations() {
        // A sub-domain recorded at two PCG iterations appears in two samples
        // that share its operator but carry different residuals, matching the
        // paper's construction.  This holds whatever the number of problems.
        let samples = tiny_samples();
        let first = &samples[0];
        let same_subdomain: Vec<_> =
            samples.iter().filter(|s| std::sync::Arc::ptr_eq(&s.matrix, &first.matrix)).collect();
        assert!(
            same_subdomain.len() >= 2,
            "sub-domain of the first sample recorded {} time(s), expected at least 2",
            same_subdomain.len()
        );
        assert!(
            same_subdomain[1..].iter().any(|s| s.input != first.input),
            "every recording of the first sample's sub-domain has the same input"
        );
    }

    #[test]
    fn extraction_is_deterministic() {
        let s1 = tiny_samples();
        let s2 = tiny_samples();
        assert_eq!(s1.len(), s2.len());
        for (a, b) in s1.iter().zip(s2.iter()) {
            assert_eq!(a.num_nodes(), b.num_nodes());
            assert_eq!(a.input, b.input);
        }
    }
}
