//! What decides pass or fail: the per-solve verdict, the determinism hashes
//! and the tally behind `failed_share`.

use krylov::{true_relative_residual, SolveResult};
use sparse::CsrMatrix;

/// Largest true relative residual `‖b − Ax‖/‖b‖` a solve at tolerance 1e-6
/// may end with (the recurrence residual the drivers stop on drifts a little
/// from the true one).
pub const TRUE_RESIDUAL_LIMIT: f64 = 2e-6;

/// FNV-1a over the bit patterns of a float sequence — the determinism
/// witness used throughout the repository's BENCH files.
pub fn hash_f64s(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Whether a preconditioner name is the tier a workload names.  `*` in the
/// pattern stands for one or more digits (`ddm-gnn-ml*` accepts
/// `ddm-gnn-ml3` but neither `ddm-gnn-ml3-f32` nor `ddm-gnn-2level`).
pub fn tier_matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((prefix, suffix)) => name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
            .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())),
    }
}

/// What one finished solve looked like, reduced to what the checks need.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRecord {
    pub converged: bool,
    pub iterations: usize,
    pub true_rel_residual: f64,
    /// FNV-1a of (residual history ‖ x).
    pub hash: u64,
}

impl SolveRecord {
    pub fn of(a: &CsrMatrix, b: &[f64], result: &SolveResult) -> SolveRecord {
        SolveRecord {
            converged: result.stats.converged(),
            iterations: result.stats.iterations,
            true_rel_residual: true_relative_residual(a, &result.x, b),
            hash: hash_f64s(
                result.stats.history.norms().iter().copied().chain(result.x.iter().copied()),
            ),
        }
    }

    /// `Err(reason)` when the solve counts as failed: not converged, true
    /// residual above [`TRUE_RESIDUAL_LIMIT`], or run by another tier than
    /// `tier` names (`None` skips the tier check, for the classical
    /// baselines).
    pub fn judge(&self, tier: Option<(&str, &str)>) -> Result<(), String> {
        if !self.converged {
            return Err(format!("did not converge in {} iterations", self.iterations));
        }
        if self.true_rel_residual.is_nan() || self.true_rel_residual > TRUE_RESIDUAL_LIMIT {
            return Err(format!(
                "true relative residual {:e} above {TRUE_RESIDUAL_LIMIT:e}",
                self.true_rel_residual
            ));
        }
        if let Some((pattern, name)) = tier {
            if !tier_matches(pattern, name) {
                return Err(format!("ran on tier `{name}`, workload names `{pattern}`"));
            }
        }
        Ok(())
    }
}

/// `Err` unless a result is bit-identical to its reference (another sample of
/// the same run, another thread count, the unbatched column).
pub fn same_hash(reference: u64, got: u64) -> Result<(), String> {
    if reference == got {
        Ok(())
    } else {
        Err(format!("hash {got:016x} differs from reference {reference:016x}"))
    }
}

/// Combined hash of the solves of one sample (one per right-hand side).
pub fn combined_hash(records: &[SolveRecord]) -> u64 {
    hash_f64s(records.iter().map(|r| f64::from_bits(r.hash)))
}

/// Solves attempted and failed, with the reason for each failure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one solve and its verdict.
    pub fn solve(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            self.reasons.push(format!("{what}: {reason}"));
        }
    }

    /// A workload that could not run at all counts as one failed solve.
    pub fn refused(reason: String) -> Tally {
        Tally { attempted: 1, failed: 1, reasons: vec![reason] }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> SolveRecord {
        SolveRecord { converged: true, iterations: 26, true_rel_residual: 9.1e-7, hash: 7 }
    }

    #[test]
    fn tier_patterns_accept_only_the_named_tier() {
        assert!(tier_matches("ddm-gnn-ml*", "ddm-gnn-ml3"));
        assert!(tier_matches("ddm-gnn-ml*", "ddm-gnn-ml12"));
        assert!(!tier_matches("ddm-gnn-ml*", "ddm-gnn-ml3-f32"));
        assert!(!tier_matches("ddm-gnn-ml*", "ddm-gnn-ml"));
        assert!(!tier_matches("ddm-gnn-ml*", "ddm-gnn-2level"));
        assert!(tier_matches("ddm-gnn-ml*-f32", "ddm-gnn-ml3-f32"));
        assert!(tier_matches("ddm-gnn-2level-f32", "ddm-gnn-2level-f32"));
        assert!(!tier_matches("ddm-gnn-2level-f32", "ddm-gnn-2level"));
        assert!(tier_matches("ddm-lu-ml*", "ddm-lu-ml4"));
    }

    #[test]
    fn a_clean_solve_passes_and_each_defect_fails() {
        let tier = Some(("ddm-gnn-ml*", "ddm-gnn-ml3"));
        assert_eq!(good().judge(tier), Ok(()));
        assert_eq!(good().judge(None), Ok(()));
        let stalled = SolveRecord { converged: false, iterations: 4000, ..good() };
        assert!(stalled.judge(tier).unwrap_err().contains("did not converge"));
        let drifted = SolveRecord { true_rel_residual: 2.1e-6, ..good() };
        assert!(drifted.judge(tier).unwrap_err().contains("true relative residual"));
        let nan = SolveRecord { true_rel_residual: f64::NAN, ..good() };
        assert!(nan.judge(tier).is_err());
        let downgraded = good().judge(Some(("ddm-gnn-ml*", "ddm-lu-ml3")));
        assert!(downgraded.unwrap_err().contains("ran on tier"));
    }

    #[test]
    fn every_kind_of_failure_raises_failed_share() {
        let tier = Some(("ddm-gnn-ml*", "ddm-gnn-ml3"));
        let mut tally = Tally::default();
        tally.solve("sample 0", good().judge(tier));
        tally.solve("sample 1", good().judge(tier).and(same_hash(7, 7)));
        assert_eq!((tally.attempted, tally.failed, tally.failed_share()), (2, 0, 0.0));

        tally.solve("stalled", SolveRecord { converged: false, ..good() }.judge(tier));
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        tally.solve("wrong tier", good().judge(Some(("ddm-gnn-ml*", "jacobi"))));
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        tally.solve("thread invariance", good().judge(tier).and(same_hash(7, 8)));
        assert_eq!((tally.attempted, tally.failed), (5, 3));
        assert_eq!(tally.failed_share(), 0.6);
        assert_eq!(tally.reasons.len(), 3);
        assert!(tally.reasons[2].starts_with("thread invariance: hash"));

        let refused = Tally::refused("needs 2 CPUs".to_string());
        assert_eq!(refused.failed_share(), 1.0);
    }

    #[test]
    fn hashes_depend_on_every_bit_and_on_order() {
        assert_eq!(hash_f64s([]), 0xcbf29ce484222325);
        assert_ne!(hash_f64s([1.0, 2.0]), hash_f64s([2.0, 1.0]));
        assert_ne!(hash_f64s([0.0]), hash_f64s([-0.0]));
        let (a, b) = (good(), SolveRecord { hash: 8, ..good() });
        assert_ne!(combined_hash(&[a.clone(), b.clone()]), combined_hash(&[b, a]));
    }
}
