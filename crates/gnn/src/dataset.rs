//! Training-set extraction (Section IV-A of the paper).
//!
//! The paper's dataset is built by solving many global Poisson problems with
//! PCG preconditioned by the classic two-level ASM, and recording, at every
//! PCG iteration and for every sub-domain, the local problem the
//! preconditioner had to solve: the sub-domain operator together with the
//! restricted (and normalised) residual as right-hand side.  This module
//! reproduces that pipeline: the produced [`LocalGraph`]s are exactly the
//! inputs the DSS model later sees inside the DDM-GNN preconditioner.

use ddm::{AdditiveSchwarz, AsmLevel, Decomposition, Restriction};
use fem::PoissonProblem;
use krylov::Preconditioner;
use meshgen::{generate_mesh, MeshingOptions, RandomBlobDomain};
use partition::partition_mesh_with_overlap;
use sparse::CsrMatrix;

use crate::graph::LocalGraph;

/// A training sample: one local Poisson problem presented as a graph.  The
/// samples of one sub-domain share its graph's structure and operator; each
/// owns only its input.
pub type TrainingSample = LocalGraph;

/// Relative residual tolerance of the data-generating PCG solve.
const TOLERANCE: f64 = 1e-6;

/// Configuration for dataset extraction.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Number of global Poisson problems to solve.
    pub num_global_problems: usize,
    /// Approximate node count of each global problem (the paper uses
    /// 6000–8000; the CPU-sized default is smaller).
    pub target_nodes: usize,
    /// Approximate sub-domain size (the paper trains on ~1000-node
    /// sub-domains).
    pub subdomain_size: usize,
    /// Overlap layers.
    pub overlap: usize,
    /// Hard cap on the number of PCG iterations recorded per global problem.
    pub max_iterations_per_problem: usize,
    /// Optional cap on the total number of samples.
    pub max_samples: Option<usize>,
    /// Base RNG seed (domains, data and partitions derive from it).
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            num_global_problems: 4,
            target_nodes: 1200,
            subdomain_size: 300,
            overlap: 2,
            max_iterations_per_problem: 60,
            max_samples: None,
            seed: 0,
        }
    }
}

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

/// Extract local training problems by running two-level ASM-preconditioned
/// PCG on random global problems and recording every sub-domain right-hand
/// side at every iteration.
pub fn extract_local_problems(config: &DatasetConfig) -> Vec<TrainingSample> {
    let mut samples = Vec::new();
    'problems: for p in 0..config.num_global_problems {
        let problem_seed = config.seed.wrapping_add(p as u64 * 1013);
        let domain = RandomBlobDomain::generate(problem_seed, 20, 1.0);
        let h = meshgen::generator::element_size_for_target_nodes(&domain, config.target_nodes);
        let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(problem_seed));
        let subdomains =
            partition_mesh_with_overlap(&mesh, config.subdomain_size, config.overlap, problem_seed);
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

        // PCG loop (Algorithm 1), recording the residual before each
        // preconditioner application.
        let a = &problem.matrix;
        let b = &problem.rhs;
        let n = b.len();
        let bnorm = sparse::vector::norm2(b);
        let threshold = TOLERANCE * bnorm.max(f64::MIN_POSITIVE);
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let mut z = vec![0.0; n];
        let mut q = vec![0.0; n];
        asm.apply(&r, &mut z);
        record_samples(&restrictions, &templates, &r, &mut samples, config.max_samples);
        let mut pvec = z.clone();
        let mut rho = sparse::vector::dot(&r, &z);
        for _iter in 0..config.max_iterations_per_problem {
            a.spmv_into(&pvec, &mut q);
            let alpha = rho / sparse::vector::dot(&pvec, &q);
            sparse::vector::axpy(alpha, &pvec, &mut x);
            sparse::vector::axpy(-alpha, &q, &mut r);
            if sparse::vector::norm2(&r) <= threshold {
                break;
            }
            record_samples(&restrictions, &templates, &r, &mut samples, config.max_samples);
            if let Some(cap) = config.max_samples {
                if samples.len() >= cap {
                    break 'problems;
                }
            }
            asm.apply(&r, &mut z);
            let rho_new = sparse::vector::dot(&r, &z);
            let beta = rho_new / rho;
            rho = rho_new;
            sparse::vector::axpby(1.0, &z, beta, &mut pvec);
        }
    }
    samples
}

/// Record one sample per sub-domain for the current global residual: a
/// clone of the sub-domain's template, which shares its structure, with the
/// restricted residual as input.
fn record_samples(
    restrictions: &[Restriction],
    templates: &[LocalGraph],
    residual: &[f64],
    out: &mut Vec<TrainingSample>,
    cap: Option<usize>,
) {
    for (restriction, template) in restrictions.iter().zip(templates.iter()) {
        if let Some(c) = cap {
            if out.len() >= c {
                return;
            }
        }
        let local_rhs = restriction.restrict(residual);
        // Skip (numerically) zero local residuals — they carry no signal.
        if sparse::vector::norm2(&local_rhs) <= 1e-14 {
            continue;
        }
        let mut graph = template.clone();
        graph.set_rhs(&local_rhs);
        out.push(graph);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> DatasetConfig {
        DatasetConfig {
            num_global_problems: 1,
            target_nodes: 400,
            subdomain_size: 120,
            overlap: 2,
            max_iterations_per_problem: 8,
            max_samples: Some(40),
            seed: 3,
        }
    }

    #[test]
    fn extraction_produces_normalised_samples() {
        let samples = extract_local_problems(&tiny_config());
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
        // More samples than sub-domains means at least two PCG iterations were
        // recorded, matching the paper's construction.
        let config = tiny_config();
        let samples = extract_local_problems(&config);
        let k_estimate = config.target_nodes.div_ceil(config.subdomain_size);
        assert!(
            samples.len() > k_estimate,
            "expected more than {k_estimate} samples, got {}",
            samples.len()
        );
    }

    #[test]
    fn extraction_is_deterministic() {
        let s1 = extract_local_problems(&tiny_config());
        let s2 = extract_local_problems(&tiny_config());
        assert_eq!(s1.len(), s2.len());
        for (a, b) in s1.iter().zip(s2.iter()) {
            assert_eq!(a.num_nodes(), b.num_nodes());
            assert_eq!(a.input, b.input);
        }
    }
}
