//! Boolean restriction/extension operators `Rᵢ` and `Rᵢᵀ`.
//!
//! A restriction is fully described by the sorted list of global node indices
//! of its sub-domain; applying `Rᵢ` gathers those entries, applying `Rᵢᵀ`
//! scatters local values back (adding, because the Schwarz sum composes
//! contributions from overlapping sub-domains).

/// The restriction operator of one sub-domain.
#[derive(Debug, Clone)]
pub struct Restriction {
    indices: Vec<usize>,
    num_global: usize,
}

impl Restriction {
    /// Build from the (sorted, unique) global indices of the sub-domain.
    pub fn new(indices: Vec<usize>, num_global: usize) -> Self {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "indices must be sorted/unique");
        debug_assert!(indices.iter().all(|&i| i < num_global));
        Restriction { indices, num_global }
    }

    /// Number of local (sub-domain) degrees of freedom.
    pub fn num_local(&self) -> usize {
        self.indices.len()
    }

    /// Number of global degrees of freedom.
    pub fn num_global(&self) -> usize {
        self.num_global
    }

    /// The global indices of the sub-domain nodes.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Apply `Rᵢ`: gather the sub-domain entries of a global vector.
    pub fn restrict(&self, global: &[f64]) -> Vec<f64> {
        debug_assert_eq!(global.len(), self.num_global);
        self.indices.iter().map(|&g| global[g]).collect()
    }

    /// Apply `Rᵢ` into a preallocated local buffer.
    pub fn restrict_into(&self, global: &[f64], local: &mut [f64]) {
        debug_assert_eq!(global.len(), self.num_global);
        debug_assert_eq!(local.len(), self.indices.len());
        for (l, &g) in local.iter_mut().zip(self.indices.iter()) {
            *l = global[g];
        }
    }

    /// Apply `Rᵢᵀ` to column `c` of a column-interleaved `num_local × b`
    /// panel and accumulate: `global[gⱼ] += panel[j*b + c]`.
    ///
    /// A plain local vector is the `b = 1, c = 0` panel, and each
    /// accumulation is the same scalar add whatever `b` is, so the batched
    /// gluing stays bit-identical to the unbatched one.
    pub(crate) fn extend_add_strided(&self, panel: &[f64], b: usize, c: usize, global: &mut [f64]) {
        debug_assert_eq!(global.len(), self.num_global);
        debug_assert_eq!(panel.len(), self.indices.len() * b);
        debug_assert!(c < b);
        for (j, &g) in self.indices.iter().enumerate() {
            global[g] += panel[j * b + c];
        }
    }
}

/// Multiplicity of every global node across a set of restrictions (how many
/// sub-domains contain it).  Used to build partition-of-unity weights for the
/// coarse space.
pub(crate) fn node_multiplicity(restrictions: &[Restriction], num_global: usize) -> Vec<usize> {
    let mut mult = vec![0usize; num_global];
    for r in restrictions {
        for &g in r.indices() {
            mult[g] += 1;
        }
    }
    mult
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restrict_and_extend_roundtrip() {
        let r = Restriction::new(vec![1, 3, 4], 6);
        assert_eq!(r.num_local(), 3);
        assert_eq!(r.num_global(), 6);
        let global = vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0];
        let local = r.restrict(&global);
        assert_eq!(local, vec![11.0, 13.0, 14.0]);
        let mut out = vec![0.0; 6];
        r.extend_add_strided(&local, 1, 0, &mut out);
        assert_eq!(out, vec![0.0, 11.0, 0.0, 13.0, 14.0, 0.0]);
        let mut buffer = vec![0.0; 3];
        r.restrict_into(&global, &mut buffer);
        assert_eq!(buffer, local);
    }

    #[test]
    fn extend_add_accumulates_overlap() {
        let r1 = Restriction::new(vec![0, 1, 2], 4);
        let r2 = Restriction::new(vec![1, 2, 3], 4);
        let mut global = vec![0.0; 4];
        r1.extend_add_strided(&[1.0, 1.0, 1.0], 1, 0, &mut global);
        r2.extend_add_strided(&[1.0, 1.0, 1.0], 1, 0, &mut global);
        assert_eq!(global, vec![1.0, 2.0, 2.0, 1.0]);
        r1.extend_add_strided(&[2.0, 2.0, 2.0], 1, 0, &mut global);
        assert_eq!(global, vec![3.0, 4.0, 4.0, 1.0]);
    }

    #[test]
    fn strided_panel_variants_match_contiguous_ones() {
        let r = Restriction::new(vec![1, 3, 4], 6);
        let global = vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0];
        let b = 3;
        let contiguous = r.restrict(&global);
        // Column-interleaved panel whose every column is the restriction.
        let panel: Vec<f64> = contiguous.iter().flat_map(|&v| std::iter::repeat_n(v, b)).collect();
        let mut out_strided = vec![0.5; 6];
        let mut out_plain = vec![0.5; 6];
        r.extend_add_strided(&panel, b, 1, &mut out_strided);
        r.extend_add_strided(&contiguous, 1, 0, &mut out_plain);
        assert_eq!(out_strided, out_plain);
    }

    #[test]
    fn multiplicity_counts_overlaps() {
        let r1 = Restriction::new(vec![0, 1, 2], 5);
        let r2 = Restriction::new(vec![2, 3], 5);
        let mult = node_multiplicity(&[r1, r2], 5);
        assert_eq!(mult, vec![1, 1, 2, 1, 0]);
    }

    #[test]
    fn restriction_matches_csr_submatrix_semantics() {
        // R A Rᵀ of the restriction must equal principal_submatrix on the CSR side:
        // verified through the action on vectors.
        use sparse::CooMatrix;
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 0..3 {
            coo.push(i, i + 1, -1.0).unwrap();
            coo.push(i + 1, i, -1.0).unwrap();
        }
        let a = coo.to_csr();
        let idx = vec![1, 2];
        let r = Restriction::new(idx.clone(), 4);
        let a_local = a.principal_submatrix(&idx);
        // For any local x: a_local x == R A Rᵀ x
        let x_local = vec![1.0, -2.0];
        let mut x_global = vec![0.0; 4];
        r.extend_add_strided(&x_local, 1, 0, &mut x_global);
        let ax = a.spmv(&x_global);
        let expected = r.restrict(&ax);
        // expected includes couplings to nodes outside the sub-domain, which are
        // zero in x_global, so it equals the local product.
        assert_eq!(a_local.spmv(&x_local), expected);
    }
}
