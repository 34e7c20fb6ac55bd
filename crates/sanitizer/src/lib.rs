//! `detsan` — the workspace's deterministic concurrency sanitizer.
//!
//! detlint (PR 9) machine-checks the *source-level* determinism contracts;
//! this crate checks the *runtime* concurrency behaviour those contracts
//! rest on.  It has three parts:
//!
//! 1. **[`TrackedMutex`]** — a drop-in, poison-recovering wrapper over
//!    [`std::sync::Mutex`] that registers each lock site (label + file +
//!    line).  When tracking is on, every acquisition is recorded into a
//!    per-thread held-lock stack and a global lock-order graph with cycle
//!    detection: a lock-order inversion anywhere in the workspace becomes a
//!    reported potential deadlock naming both acquisition chains.
//! 2. **Parallel-batch contention tracking** — the `shims/rayon` pool tags
//!    every job with a (batch, job) identity.  If two *distinct* jobs of
//!    the same batch acquire the same `TrackedMutex` during that batch, the
//!    site is flagged as an order-sensitivity hazard (the runtime analogue
//!    of detlint's `float-reduce` rule) unless it carries a reviewed
//!    [`TrackedMutex::new_commutative`] annotation.  The definition is
//!    acquisition-based, not blocking-based, so it is schedule-independent
//!    and fires even on a single-thread pool.
//! 3. **Seeded schedule fuzzing** — [`schedule_seed`] (env
//!    `DETSAN_SCHEDULE_SEED`, or [`set_schedule_seed`] in-process) drives a
//!    ChaCha8 stream that the pool uses to deterministically permute job
//!    execution order and force submitter/worker handoffs, so the
//!    determinism suite can assert residual-history hashes are
//!    **schedule-invariant**, not merely thread-count-invariant.
//!
//! # Gating: zero cost when off
//!
//! All instrumentation is compiled in only under `--cfg detsan` (set via
//! `RUSTFLAGS`; the CI `sanitizer` job does this).  Without the cfg,
//! [`TrackedMutex`] is a `#[repr(transparent)]` newtype over `Mutex<T>`
//! whose `lock()` is exactly the poison-recovering lock the call sites used
//! before — no extra field, no extra branch (pinned by the
//! `tests/zero_cost.rs` size/type assertions).  Under the cfg, tracking
//! additionally requires the runtime switch (`DETSAN=1` or
//! [`force_tracking`]); schedule fuzzing requires a seed.
//!
//! # Findings
//!
//! Findings reuse `crates/lint`'s report machinery ([`report`] renders a
//! [`lint::Report`], human or `--json`).  Hazard classes:
//!
//! | rule                      | meaning                                                    |
//! |---------------------------|------------------------------------------------------------|
//! | `lock-order-cycle`        | inverted acquisition order between lock sites              |
//! | `batch-order-sensitivity` | same-batch contention on an unannotated site               |
//! | `unreviewed-commutative`  | `new_commutative` label not in the reviewed list           |
//!
//! A clean workspace reports zero findings; `commutative`-annotated
//! contention is reported as suppressed (with its reason), mirroring
//! `detlint::allow`.

pub mod mutex;
// Outside `--cfg detsan` nothing calls the engine's lock hooks; its unit
// tests still do.
#[cfg_attr(not(detsan), allow(dead_code))]
pub mod runtime;
pub mod schedule;

#[cfg(detsan)]
pub use mutex::TrackedGuard;
pub use mutex::TrackedMutex;
pub use runtime::{
    enter_job, findings, force_tracking, next_batch_id, report, tracking_enabled, Finding, JobScope,
};
pub use schedule::{batch_rng, clear_schedule_seed, schedule_seed, set_schedule_seed, BatchRng};

/// Whether the worker pool should route work through its instrumented path
/// (job identities and/or schedule fuzzing).  Only meaningful under
/// `--cfg detsan`; the pool never calls this otherwise.
pub fn pool_hooks_active() -> bool {
    tracking_enabled() || schedule_seed().is_some()
}
