//! Training-set extraction (Section IV-A of the paper).
//!
//! The paper's dataset is built by solving many global Poisson problems with
//! PCG preconditioned by the classic two-level ASM, and recording, at every
//! PCG iteration and for every sub-domain, the local problem the
//! preconditioner had to solve: the sub-domain operator together with the
//! restricted (and normalised) residual as right-hand side.  This module
//! reproduces that pipeline: the produced [`LocalGraph`]s are exactly the
//! inputs the DSS model later sees inside the DDM-GNN preconditioner.

use ddm::{AdditiveSchwarz, AsmLevel, Decomposition};
use fem::PoissonProblem;
use krylov::Preconditioner;
use meshgen::{generate_mesh, MeshingOptions, RandomBlobDomain};
use partition::partition_mesh_with_overlap;
use sparse::CsrMatrix;

use crate::graph::LocalGraph;

/// A training sample: one local Poisson problem presented as a graph.
pub type TrainingSample = LocalGraph;

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
    /// Relative residual tolerance of the data-generating PCG solve.
    pub tolerance: f64,
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
            tolerance: 1e-6,
            max_iterations_per_problem: 60,
            max_samples: None,
            seed: 0,
        }
    }
}

/// Compute the local Dirichlet-boundary mask of a sub-domain: global Dirichlet
/// nodes plus nodes coupled to the exterior of the sub-domain (the artificial
/// interface on which the Schwarz local problems impose homogeneous Dirichlet
/// conditions).
pub(crate) fn local_boundary_mask(
    matrix: &CsrMatrix,
    subdomain: &[usize],
    global_dirichlet: &[bool],
) -> Vec<bool> {
    let mut in_subdomain = vec![false; matrix.nrows()];
    for &g in subdomain {
        in_subdomain[g] = true;
    }
    subdomain
        .iter()
        .map(|&g| {
            if global_dirichlet[g] {
                return true;
            }
            let (cols, _) = matrix.row(g);
            cols.iter().any(|&c| !in_subdomain[c])
        })
        .collect()
}

/// Build the per-sub-domain graph templates (geometry, operator, boundary) of
/// a decomposed problem.  The right-hand sides start at zero; dataset
/// extraction fills them in.
pub fn build_local_graphs(
    problem: &PoissonProblem,
    decomposition: &Decomposition,
) -> Vec<LocalGraph> {
    decomposition
        .subdomains
        .iter()
        .zip(decomposition.local_matrices.iter())
        .map(|(subdomain, local_matrix)| {
            let positions = subdomain.iter().map(|&g| problem.mesh.points[g]).collect();
            let boundary = local_boundary_mask(&problem.matrix, subdomain, &problem.dirichlet);
            let zero_rhs = vec![0.0; subdomain.len()];
            LocalGraph::new(local_matrix.clone(), positions, &zero_rhs, boundary)
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
        let decomposition = Decomposition::new(&problem.matrix, subdomains);
        let templates = build_local_graphs(&problem, &decomposition);
        let asm = match AdditiveSchwarz::new(
            &problem.matrix,
            decomposition.subdomains.clone(),
            AsmLevel::TwoLevel,
        ) {
            Ok(asm) => asm,
            Err(_) => continue,
        };

        // PCG loop (Algorithm 1), recording the residual before each
        // preconditioner application.
        let a = &problem.matrix;
        let b = &problem.rhs;
        let n = b.len();
        let bnorm = sparse::vector::norm2(b);
        let threshold = config.tolerance * bnorm.max(f64::MIN_POSITIVE);
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let mut z = vec![0.0; n];
        let mut q = vec![0.0; n];
        asm.apply(&r, &mut z);
        record_samples(&decomposition, &templates, &r, &mut samples, config.max_samples);
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
            record_samples(&decomposition, &templates, &r, &mut samples, config.max_samples);
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

/// Record one sample per sub-domain for the current global residual.
fn record_samples(
    decomposition: &Decomposition,
    templates: &[LocalGraph],
    residual: &[f64],
    out: &mut Vec<TrainingSample>,
    cap: Option<usize>,
) {
    for (restriction, template) in decomposition.restrictions.iter().zip(templates.iter()) {
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
            tolerance: 1e-6,
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
            assert!(s.rhs_norm > 0.0);
            assert_eq!(s.matrix.nrows(), s.num_nodes());
            assert_eq!(s.positions.len(), s.num_nodes());
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
    fn local_boundary_mask_flags_interface_nodes() {
        use sparse::CooMatrix;
        // 1D chain of 6 nodes; sub-domain = nodes 1..=3; node 1 and 3 touch the
        // exterior, node 2 is interior; node 0 is a global Dirichlet node.
        let n = 6;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let mut dirichlet = vec![false; n];
        dirichlet[0] = true;
        let mask = local_boundary_mask(&a, &[1, 2, 3], &dirichlet);
        assert_eq!(mask, vec![true, false, true]);
        // If the whole domain is one sub-domain, only the Dirichlet node is
        // boundary.
        let mask_all = local_boundary_mask(&a, &[0, 1, 2, 3, 4, 5], &dirichlet);
        assert_eq!(mask_all, vec![true, false, false, false, false, false]);
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
