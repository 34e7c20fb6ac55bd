//! The four named workloads and the metric names every run reports.
//!
//! `BENCHMARK.json` at the repository root carries the same names (plus each
//! metric's direction and bound); `tests/smoke.rs` checks the two agree.

/// Which preconditioner a workload constructs — explicitly, never through
/// `HybridSolver`'s defaults, so a later change of default tier cannot
/// silently change what a workload measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `DdmGnnPreconditioner::with_multilevel_coarse`, f64 plans.
    GnnMultilevelF64,
    /// `AdditiveSchwarz::with_multilevel` (exact local solves).
    LuMultilevel,
    /// `DdmGnnPreconditioner::with_precision(.., two_level = true, F32)`.
    GnnTwoLevelF32,
}

impl Tier {
    /// Pattern `Preconditioner::name()` must match (see
    /// [`crate::checks::tier_matches`]).
    pub fn name_pattern(self) -> &'static str {
        match self {
            Tier::GnnMultilevelF64 => "ddm-gnn-ml*",
            Tier::LuMultilevel => "ddm-lu-ml*",
            Tier::GnnTwoLevelF32 => "ddm-gnn-2level-f32",
        }
    }

    pub fn is_gnn(self) -> bool {
        self != Tier::LuMultilevel
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line on what this workload stresses that the others do not.
    pub why: &'static str,
    pub tier: Tier,
    /// `generate_problem(problem_seed, target_nodes)` — the mesh is pinned;
    /// `--seed` draws the right-hand sides (see [`crate::measure::right_hand_sides`]).
    pub problem_seed: u64,
    pub target_nodes: usize,
    pub threads: usize,
    /// Right-hand sides per solve sample.
    pub rhs: usize,
    /// Solve all right-hand sides in one lockstep `solve_batch` rather than
    /// one after another.
    pub batched: bool,
    /// Also time the f32 and int8 tiers on this workload's problem (traced
    /// pass only).
    pub probe_other_tiers: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "gnn-ml-f64-24k",
        why: "The paper's hybrid solver at the size every ROADMAP target quotes: GNN \
              inference is >99% of solve time, the 594 MB plan set streams from DRAM; also \
              the 1-thread baseline of the -t2 row.",
        tier: Tier::GnnMultilevelF64,
        problem_seed: 3,
        target_nodes: 24_000,
        threads: 1,
        rhs: 1,
        batched: false,
        probe_other_tiers: true,
    },
    Workload {
        name: "gnn-ml-f64-24k-t2",
        why: "Same problem and solver on 2 threads: only the thread pool and per-sub-domain \
              granularity differ, so solve_s of the row above over solve_s here is \
              strong-scaling speed-up.",
        tier: Tier::GnnMultilevelF64,
        problem_seed: 3,
        target_nodes: 24_000,
        threads: 2,
        rhs: 1,
        batched: false,
        probe_other_tiers: false,
    },
    Workload {
        name: "lu-ml-8rhs-100k",
        why: "Legacy DDM-LU baseline, 8 right-hand sides on one setup: bypasses every gnn \
              change (prediction: no movement); the superlinear partitioner dominates setup, \
              ddm/krylov/sparse share the solve.",
        tier: Tier::LuMultilevel,
        problem_seed: 5,
        target_nodes: 100_000,
        threads: 1,
        rhs: 8,
        batched: false,
        probe_other_tiers: false,
    },
    Workload {
        name: "gnn-2l-f32-batch4-3k",
        why: "Same gnn/ddm-gnn/krylov layers used differently: 4-column batched panels, f32, \
              Nicolaides coarse space, a 32 MB plan set resident in the last-level cache \
              instead of streaming from DRAM.",
        tier: Tier::GnnTwoLevelF32,
        problem_seed: 1,
        target_nodes: 3_000,
        threads: 1,
        rhs: 4,
        batched: true,
        probe_other_tiers: false,
    },
];

/// Problem size of every workload under `--smoke`.
pub const SMOKE_TARGET_NODES: usize = 800;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `(name, unit)` of a reported metric.
pub type MetricDef = (&'static str, &'static str);

/// What a user of the solver sees; printed by the untraced pass.
/// (`failed_share` is reported beside these as `failed / attempted`.)
pub const END_TO_END: [MetricDef; 4] =
    [("time_to_solution_s", "s"), ("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB")];

/// Single-layer metrics, named `<crate>.<what>`; printed by the traced pass.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 46] = [
    ("host.cpus", "count"),
    ("host.llc_mb", "MB"),
    ("host.triad_gbs", "GB/s"),
    ("host.triad_array_mb", "MB"),
    ("meshgen.generate_s", "s"),
    ("partition.partition_s", "s"),
    ("partition.subdomains", "count"),
    ("partition.size_max_over_mean", "ratio"),
    ("sparse.spmv_us", "us"),
    ("sparse.spmv_gbs_computed", "GB/s"),
    ("krylov.iterations", "count"),
    ("krylov.true_rel_residual", "ratio"),
    ("krylov.precond_share", "ratio"),
    ("krylov.self_ms_per_iter", "ms"),
    ("krylov.cg_solve_s", "s"),
    ("krylov.cg_iterations", "count"),
    ("krylov.ic0_solve_s", "s"),
    ("krylov.ic0_iterations", "count"),
    ("ddm.asm_build_s", "s"),
    ("ddm.asm_apply_us", "us"),
    ("ddm.hierarchy_build_s", "s"),
    ("ddm.hierarchy_levels", "count"),
    ("ddm.operator_complexity", "ratio"),
    ("ddm.vcycle_us", "us"),
    ("ddm.lu_time_to_solution_s", "s"),
    ("ddm-gnn.slowdown_vs_lu", "ratio"),
    ("ddm-gnn.build_s", "s"),
    ("ddm-gnn.build_cold_s", "s"),
    ("ddm-gnn.apply_ms", "ms"),
    ("ddm-gnn.apply_f32_ms", "ms"),
    ("ddm-gnn.apply_int8_ms", "ms"),
    ("ddm-gnn.plan_mb_f32", "MB"),
    ("ddm-gnn.plan_mb_int8", "MB"),
    ("ddm-gnn.batch_ms_per_column", "ms"),
    ("ddm-gnn.batch_speedup_vs_sequential", "ratio"),
    ("gnn.plan_build_ms", "ms"),
    ("gnn.infer_us", "us"),
    ("gnn.infer_max_over_median", "ratio"),
    ("gnn.plan_mb", "MB"),
    ("gnn.stream_gbs_computed", "GB/s"),
    ("gnn.roof_fraction", "ratio"),
    ("rayon.threads", "count"),
    ("rayon.speedup_vs_t1", "ratio"),
    ("rayon.efficiency", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_time_gap", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let well_formed = |s: &str, extra: &str| {
            !s.is_empty()
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name, "_.-") && w.name.len() <= 64, "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(name, "_.-") && name.len() <= 64, "{name}");
            assert!(well_formed(unit, "_/%.-") && unit.len() <= 16, "{unit}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn the_two_24k_rows_differ_only_in_threads() {
        let (a, b) = (&WORKLOADS[0], &WORKLOADS[1]);
        assert_eq!(
            (a.tier, a.problem_seed, a.target_nodes, a.rhs, a.batched),
            (b.tier, b.problem_seed, b.target_nodes, b.rhs, b.batched)
        );
        assert_eq!((a.threads, b.threads), (1, 2));
        assert_eq!(find("lu-ml-8rhs-100k").map(|w| w.rhs), Some(8));
        assert!(find("nope").is_none());
    }
}
