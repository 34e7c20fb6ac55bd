//! Fault containment, classification and graceful degradation for
//! preconditioned solves.
//!
//! The flexible-PCG safeguard in [`crate::pcg`] already tolerates a
//! *numerically wrong* preconditioner; this module extends the guarantee to a
//! preconditioner that panics, emits NaN/inf, returns identically zero
//! corrections, or stops making progress.  Two pieces:
//!
//! * [`DegradationLadder`] — a stack of tiers (e.g. GNN-int8 → GNN-f32 →
//!   GNN-f64 → ASM → Jacobi) that runs every apply under guards — it rejects
//!   wrong-length vectors, contains panics (`catch_unwind`), scans outputs
//!   for non-finite and identically-zero values, tracks stagnation over a
//!   fixed window of applies, and classifies every event into a
//!   [`FaultKind`] recorded on a [`FaultLog`] — and downgrades *in place* on
//!   a classified fault, without restarting the outer solve (the flexible
//!   PCG update tolerates a preconditioner that changes between
//!   iterations).  A one-tier ladder is a plain guard with the identity
//!   fallback;
//! * [`FaultInjectingPreconditioner`] — a deterministic test double whose
//!   faults are scheduled by apply-count (optionally drawn from a seeded
//!   ChaCha8 stream), so fault-injection runs are bit-reproducible at every
//!   thread count.
//!
//! Guards never perturb a healthy apply: they only *read* the output vector,
//! so a fault-free solve is bit-identical to an unguarded one (hash-pinned by
//! the end-to-end resilience suite).  Every decision is made on data alone —
//! the apply's output and the residual norms it is given, never a clock — so
//! a faulted solve's bits do not depend on machine load either.

use sanitizer::TrackedMutex;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sparse::vector::dot;
use sparse::SparseError;

use crate::preconditioner::Preconditioner;

/// Classification of a contained preconditioner fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The preconditioner panicked during `apply` (contained by
    /// `catch_unwind`).
    Panic,
    /// The output vector contained a NaN or infinite component.
    NonFinite,
    /// The output vector was identically zero for a nonzero residual.
    ZeroOutput,
    /// No residual reduction over the stagnation window of applies.
    Stagnation,
    /// A Krylov recurrence denominator vanished or left the real line.
    Breakdown,
    /// A fallible operation reported a classified numerical error
    /// (dimension mismatch, singular local factor, ...).
    NumericalError,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Panic => "panic",
            FaultKind::NonFinite => "non-finite-output",
            FaultKind::ZeroOutput => "zero-output",
            FaultKind::Stagnation => "stagnation",
            FaultKind::Breakdown => "breakdown",
            FaultKind::NumericalError => "numerical-error",
        };
        f.write_str(s)
    }
}

/// One classified fault: what happened, at which apply, in which tier.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// Classification of the fault.
    pub kind: FaultKind,
    /// The preconditioner apply count (≈ outer iteration) at which it fired.
    pub apply_index: u64,
    /// Name of the tier (or solver) in which the fault was observed.
    pub tier: String,
    /// Free-form human-readable description.
    pub detail: String,
}

impl FaultEvent {
    /// Construct an event.
    pub fn new(kind: FaultKind, apply_index: u64, tier: &str, detail: impl Into<String>) -> Self {
        FaultEvent { kind, apply_index, tier: tier.to_string(), detail: detail.into() }
    }
}

/// Record of every contained fault observed during a solve, and the tier that
/// finished it.  A ladder downgrades once per fault in a tier that has a
/// successor, so the events are the downgrades too.
///
/// Carried by [`crate::SolveStats`]; empty (and allocation-free) on the
/// healthy path.
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
    final_tier: Option<String>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        FaultLog::default()
    }

    /// Append a classified fault.
    pub fn record(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// Set the tier that finished the solve.
    fn set_final_tier(&mut self, tier: &str) {
        self.final_tier = Some(tier.to_string());
    }

    /// The tier that finished the solve, when a supervisor reported one.
    // detlint::allow(unreferenced-pub): the ddm-gnn ladder tests read which tier finished a faulted solve
    pub fn final_tier(&self) -> Option<&str> {
        self.final_tier.as_deref()
    }

    /// All classified faults, oldest first.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when nothing was recorded (the healthy path).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Absorb another log (events appended; `other`'s final tier wins when
    /// set).
    pub fn merge(&mut self, other: FaultLog) {
        self.events.extend(other.events);
        if other.final_tier.is_some() {
            self.final_tier = other.final_tier;
        }
    }
}

/// Number of consecutive applies without residual-norm improvement before a
/// [`FaultKind::Stagnation`] fires.
const STAGNATION_WINDOW: usize = 64;

/// Renders a contained panic payload for the fault log.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Scan the output of an apply and classify it, if faulty.
fn classify_output(r: &[f64], z: &[f64]) -> Option<(FaultKind, String)> {
    if let Some(i) = z.iter().position(|v| !v.is_finite()) {
        return Some((
            FaultKind::NonFinite,
            format!("output component {i} is {} after apply", z[i]),
        ));
    }
    if z.iter().all(|&v| v == 0.0) && r.iter().any(|&v| v != 0.0) {
        return Some((
            FaultKind::ZeroOutput,
            "identically zero output for a nonzero residual".to_string(),
        ));
    }
    None
}

/// Run one apply of `p` over the `b = rs.len()` columns under the guards.
///
/// The columns are one guarded unit: a column whose `r` or `z` is not `dim`
/// long, a panic anywhere, or a classified output in any column fails the
/// whole apply.  Returns the classified fault, if any.  `AssertUnwindSafe`
/// is sound here: the scratch buffers the wrapped preconditioners share
/// across threads sit behind mutexes that already recover from poisoning,
/// and `zs` is overwritten by any fallback.
fn run_guarded(
    p: &dyn Preconditioner,
    dim: usize,
    rs: &[&[f64]],
    zs: &mut [&mut [f64]],
) -> Result<(), (FaultKind, String)> {
    for (c, (r, z)) in rs.iter().zip(zs.iter()).enumerate() {
        if r.len() != dim || z.len() != dim {
            let e = SparseError::DimensionMismatch {
                op: "guarded apply",
                expected: (dim, dim),
                found: (r.len(), z.len()),
            };
            return Err((FaultKind::NumericalError, format!("column {c}: {e}")));
        }
    }
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| p.apply_batch(rs, zs))) {
        return Err((FaultKind::Panic, panic_message(payload.as_ref())));
    }
    for (c, (r, z)) in rs.iter().zip(zs.iter()).enumerate() {
        if let Some((kind, detail)) = classify_output(r, z) {
            return Err((kind, format!("column {c}: {detail}")));
        }
    }
    Ok(())
}

/// `sqrt(Σ_c r_c·r_c)`, the residual norm fed to the stagnation tracker: at
/// `b = 1` it is `norm2(r)` bit for bit.
fn panel_norm(rs: &[&[f64]]) -> f64 {
    rs.iter().map(|r| dot(r, r)).sum::<f64>().sqrt()
}

/// Detects "no residual reduction over a window of applies".
#[derive(Debug)]
struct StagnationTracker {
    best: f64,
    since_best: usize,
}

impl StagnationTracker {
    fn new() -> Self {
        StagnationTracker { best: f64::INFINITY, since_best: 0 }
    }

    /// Observe the residual norm of the incoming apply; `true` when the
    /// window elapsed without improvement (the counter then restarts so the
    /// check can fire again one window later).
    fn observe(&mut self, rnorm: f64) -> bool {
        if rnorm < self.best {
            self.best = rnorm;
            self.since_best = 0;
            return false;
        }
        self.since_best += 1;
        if self.since_best >= STAGNATION_WINDOW {
            self.since_best = 0;
            return true;
        }
        false
    }
}

/// A supervisor over a stack of preconditioner tiers that downgrades in
/// place on a classified fault, without restarting the outer solve.
///
/// Tier 0 is the preferred (fastest / most aggressive) operator; the last
/// tier is the most conservative (typically diagonal Jacobi).  A fault in
/// the active tier advances to the next one *within the same apply* — the
/// output always comes from a healthy tier, or from the identity fallback
/// `z = r` when even the last tier faults.  Downgrades are monotone and
/// permanent for the lifetime of the ladder.
///
/// `apply` is `apply_batch` at `b = 1`.  A batch is one guarded unit: a
/// fault in any column retries the *entire* batch one rung down, and the
/// identity fallback covers every column.
pub struct DegradationLadder {
    tiers: Vec<Box<dyn Preconditioner>>,
    active: AtomicUsize,
    applies: AtomicU64,
    log: TrackedMutex<FaultLog>,
    stagnation: TrackedMutex<StagnationTracker>,
    name: String,
    dim: usize,
}

impl DegradationLadder {
    /// Build a ladder from an ordered, non-empty stack of tiers sharing one
    /// dimension.
    pub fn new(tiers: Vec<Box<dyn Preconditioner>>) -> Self {
        assert!(!tiers.is_empty(), "degradation ladder needs at least one tier");
        let dim = tiers[0].dim();
        for t in &tiers {
            assert_eq!(t.dim(), dim, "every ladder tier must share the system dimension");
        }
        let name = format!(
            "resilient[{}]",
            tiers.iter().map(|t| t.name()).collect::<Vec<_>>().join(" -> ")
        );
        DegradationLadder {
            tiers,
            active: AtomicUsize::new(0),
            applies: AtomicU64::new(0),
            log: TrackedMutex::new(FaultLog::new(), "krylov::resilience::DegradationLadder::log"),
            stagnation: TrackedMutex::new(
                StagnationTracker::new(),
                "krylov::resilience::DegradationLadder::stagnation",
            ),
            name,
            dim,
        }
    }

    /// Index of the currently active tier.
    fn active_tier(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Name of the currently active tier.
    fn active_tier_name(&self) -> &str {
        self.tiers[self.active_tier()].name()
    }

    /// Snapshot of the faults and downgrades recorded so far (with the
    /// current tier as the final tier).
    fn fault_log(&self) -> FaultLog {
        let mut log = self.log.lock().clone();
        log.set_final_tier(self.active_tier_name());
        log
    }

    /// Record a fault in `tier` and advance the active tier past it.
    /// Returns the tier to retry with, or `None` when `tier` was the last.
    fn downgrade(
        &self,
        tier: usize,
        kind: FaultKind,
        apply_index: u64,
        detail: String,
    ) -> Option<usize> {
        let mut log = self.log.lock();
        log.record(FaultEvent::new(kind, apply_index, self.tiers[tier].name(), detail));
        if tier + 1 >= self.tiers.len() {
            return None;
        }
        // Monotone: a concurrent apply may already have downgraded further.
        self.active.fetch_max(tier + 1, Ordering::SeqCst);
        Some(tier + 1)
    }
}

impl Preconditioner for DegradationLadder {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_batch(&[r], &mut [z]);
    }

    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        assert_eq!(rs.len(), zs.len(), "batched apply: rs/zs column count mismatch");
        let idx = self.applies.fetch_add(1, Ordering::SeqCst);
        let mut tier = self.active_tier();
        if tier + 1 < self.tiers.len() {
            let rnorm = panel_norm(rs);
            let fired = self.stagnation.lock().observe(rnorm);
            if fired {
                if let Some(next) = self.downgrade(
                    tier,
                    FaultKind::Stagnation,
                    idx,
                    format!(
                        "no residual reduction over {STAGNATION_WINDOW} applies (‖r‖ = {rnorm:.3e})"
                    ),
                ) {
                    tier = next;
                }
            }
        }
        loop {
            match run_guarded(self.tiers[tier].as_ref(), self.dim, rs, zs) {
                Ok(()) => return,
                Err((kind, detail)) => match self.downgrade(tier, kind, idx, detail) {
                    Some(next) => tier = next,
                    None => {
                        // Even the most conservative tier faulted: identity
                        // fallback keeps the flexible outer iteration alive.
                        for (r, z) in rs.iter().zip(zs.iter_mut()) {
                            z.copy_from_slice(r);
                        }
                        return;
                    }
                },
            }
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn collect_faults(&self, into: &mut FaultLog) {
        for t in &self.tiers {
            t.collect_faults(into);
        }
        into.merge(self.fault_log());
    }
}

/// A fault the test double can inject at a scheduled apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic before touching the output.
    Panic,
    /// Run the inner apply, then corrupt one component to NaN.
    NanOutput,
    /// Run the inner apply, then corrupt one component to +inf.
    InfOutput,
    /// Overwrite the output with zeros.
    ZeroOutput,
}

/// Deterministic fault-injection wrapper for resilience tests.
///
/// Faults are keyed by the apply count — one per `apply` or `apply_batch`
/// call, which the outer Krylov driver makes sequentially — so a given
/// schedule reproduces bit-identically at every thread count and batch
/// width.  The random constructor draws the schedule from a
/// seeded ChaCha8 stream *at construction time*; the apply path itself is
/// deterministic.
pub struct FaultInjectingPreconditioner<P> {
    inner: P,
    schedule: BTreeMap<u64, InjectedFault>,
    applies: AtomicU64,
    name: String,
}

impl<P: Preconditioner> FaultInjectingPreconditioner<P> {
    /// Inject the given faults at the given apply counts.
    // detlint::allow(unreferenced-pub): the ddm-gnn fault-injection suites schedule their faults through it
    pub fn scheduled(inner: P, schedule: impl IntoIterator<Item = (u64, InjectedFault)>) -> Self {
        let name = format!("inject({})", inner.name());
        FaultInjectingPreconditioner {
            inner,
            schedule: schedule.into_iter().collect(),
            applies: AtomicU64::new(0),
            name,
        }
    }

    /// Draw `num_faults` distinct apply counts in `0..within_applies` and a
    /// fault from `menu` for each, from a ChaCha8 stream seeded with `seed`.
    // detlint::allow(unreferenced-pub): the seeded schedule the ddm-gnn resilience tests share
    pub fn random(
        inner: P,
        seed: u64,
        num_faults: usize,
        within_applies: u64,
        menu: &[InjectedFault],
    ) -> Self {
        assert!(!menu.is_empty(), "fault menu must not be empty");
        let span = within_applies.max(1);
        let wanted = num_faults.min(span as usize);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut schedule = BTreeMap::new();
        while schedule.len() < wanted {
            let at = rng.next_u64() % span;
            let what = menu[(rng.next_u64() % menu.len() as u64) as usize];
            schedule.entry(at).or_insert(what);
        }
        Self::scheduled(inner, schedule)
    }

    /// The injection schedule, apply-count → fault.
    pub fn schedule(&self) -> &BTreeMap<u64, InjectedFault> {
        &self.schedule
    }
}

impl<P: Preconditioner> Preconditioner for FaultInjectingPreconditioner<P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_batch(&[r], &mut [z]);
    }

    /// One scheduled apply per call, whatever the batch width: `Panic` and
    /// `ZeroOutput` hit the whole batch, `NanOutput` and `InfOutput` corrupt
    /// column 0.
    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        let idx = self.applies.fetch_add(1, Ordering::SeqCst);
        let corrupt = |zs: &mut [&mut [f64]], value: f64| {
            if let Some(v) = zs.first_mut().and_then(|z| z.first_mut()) {
                *v = value;
            }
        };
        match self.schedule.get(&idx) {
            // detlint::allow(panic-in-guarded): deliberate fault injection — this panic IS the feature under test
            Some(InjectedFault::Panic) => panic!("injected panic at apply {idx}"),
            Some(InjectedFault::NanOutput) => {
                self.inner.apply_batch(rs, zs);
                corrupt(zs, f64::NAN);
            }
            Some(InjectedFault::InfOutput) => {
                self.inner.apply_batch(rs, zs);
                corrupt(zs, f64::INFINITY);
            }
            Some(InjectedFault::ZeroOutput) => {
                for z in zs.iter_mut() {
                    z.fill(0.0);
                }
            }
            None => self.inner.apply_batch(rs, zs),
        }
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn collect_faults(&self, into: &mut FaultLog) {
        self.inner.collect_faults(into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preconditioner::{IdentityPreconditioner, JacobiPreconditioner};
    use crate::test_matrices::laplacian_2d;
    use crate::{preconditioned_conjugate_gradient, SolverOptions};

    fn has_kind(log: &FaultLog, kind: FaultKind) -> bool {
        log.events.iter().any(|e| e.kind == kind)
    }

    /// A preconditioner that always panics.
    struct AlwaysPanics(usize);
    impl Preconditioner for AlwaysPanics {
        fn apply(&self, _r: &[f64], _z: &mut [f64]) {
            panic!("intentional test panic");
        }
        fn dim(&self) -> usize {
            self.0
        }
        fn name(&self) -> &str {
            "always-panics"
        }
    }

    /// A preconditioner that always writes NaN.
    struct AlwaysNan(usize);
    impl Preconditioner for AlwaysNan {
        fn apply(&self, _r: &[f64], z: &mut [f64]) {
            for v in z.iter_mut() {
                *v = f64::NAN;
            }
        }
        fn dim(&self) -> usize {
            self.0
        }
        fn name(&self) -> &str {
            "always-nan"
        }
    }

    /// A one-tier ladder: a plain guard with the identity fallback.
    fn guard(tier: impl Preconditioner + 'static) -> DegradationLadder {
        DegradationLadder::new(vec![Box::new(tier)])
    }

    #[test]
    fn guard_is_bit_transparent_when_healthy() {
        let a = laplacian_2d(8, 8);
        let jacobi = JacobiPreconditioner::new(&a);
        let guarded = guard(JacobiPreconditioner::new(&a));
        let r: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut z_plain = vec![0.0; 64];
        let mut z_guarded = vec![0.0; 64];
        jacobi.apply(&r, &mut z_plain);
        guarded.apply(&r, &mut z_guarded);
        assert_eq!(z_plain, z_guarded, "guard must not perturb a healthy apply");
        let log = guarded.fault_log();
        assert!(log.is_empty());
        assert_eq!(log.final_tier(), Some("jacobi"));
    }

    #[test]
    fn guard_contains_panics_with_identity_fallback() {
        let guarded = guard(AlwaysPanics(4));
        let r = [1.0, -2.0, 3.0, -4.0];
        let mut z = [9.0; 4];
        guarded.apply(&r, &mut z);
        assert_eq!(z, r, "fallback must be the identity correction");
        let log = guarded.fault_log();
        assert!(has_kind(&log, FaultKind::Panic));
        assert_eq!(log.events()[0].tier, "always-panics");
        assert_eq!(log.events()[0].apply_index, 0);
        assert_eq!(log.final_tier(), Some("always-panics"), "a one-tier ladder has nowhere to go");
    }

    #[test]
    fn guard_classifies_nonfinite_output() {
        let guarded = guard(AlwaysNan(3));
        let r = [1.0, 2.0, 3.0];
        let mut z = [0.0; 3];
        guarded.apply(&r, &mut z);
        assert_eq!(z, r);
        assert!(has_kind(&guarded.fault_log(), FaultKind::NonFinite));
    }

    #[test]
    fn ladder_downgrades_in_order_and_reports_final_tier() {
        let tiers: Vec<Box<dyn Preconditioner>> = vec![
            Box::new(AlwaysPanics(4)),
            Box::new(AlwaysNan(4)),
            Box::new(IdentityPreconditioner::new(4)),
        ];
        let ladder = DegradationLadder::new(tiers);
        let r = [1.0, 2.0, 3.0, 4.0];
        let mut z = [0.0; 4];
        ladder.apply(&r, &mut z);
        // Both broken tiers fault within the same apply; the identity tier
        // produces the output.
        assert_eq!(z, r);
        assert_eq!(ladder.active_tier(), 2);
        let log = ladder.fault_log();
        assert!(has_kind(&log, FaultKind::Panic));
        assert!(has_kind(&log, FaultKind::NonFinite));
        let tiers: Vec<&str> = log.events().iter().map(|e| e.tier.as_str()).collect();
        assert_eq!(tiers, ["always-panics", "always-nan"]);
        assert_eq!(log.final_tier(), Some("identity"));
        // Subsequent applies start directly at the healthy tier.
        let mut z2 = [0.0; 4];
        ladder.apply(&r, &mut z2);
        assert_eq!(z2, r);
        assert_eq!(ladder.fault_log().events().len(), 2);
    }

    #[test]
    fn ladder_identity_fallback_when_every_tier_faults() {
        let tiers: Vec<Box<dyn Preconditioner>> =
            vec![Box::new(AlwaysPanics(3)), Box::new(AlwaysNan(3))];
        let ladder = DegradationLadder::new(tiers);
        let r = [1.0, -1.0, 2.0];
        let mut z = [0.0; 3];
        ladder.apply(&r, &mut z);
        assert_eq!(z, r);
        assert_eq!(ladder.active_tier(), 1, "downgrades stop at the last tier");
    }

    #[test]
    fn ladder_stagnation_fires_after_window() {
        let tiers: Vec<Box<dyn Preconditioner>> = vec![
            Box::new(IdentityPreconditioner::new(2)),
            Box::new(IdentityPreconditioner::new(2)),
        ];
        let ladder = DegradationLadder::new(tiers);
        let r = [1.0, 1.0]; // constant residual: no improvement after the first
        let mut z = [0.0; 2];
        for _ in 0..STAGNATION_WINDOW {
            ladder.apply(&r, &mut z);
        }
        assert!(ladder.fault_log().is_empty(), "the window has not elapsed yet");
        ladder.apply(&r, &mut z);
        let log = ladder.fault_log();
        assert!(has_kind(&log, FaultKind::Stagnation));
        assert_eq!(log.events()[0].apply_index, STAGNATION_WINDOW as u64);
        assert_eq!(ladder.active_tier(), 1);
    }

    #[test]
    fn injector_is_deterministic_for_a_seed() {
        let a = FaultInjectingPreconditioner::random(
            IdentityPreconditioner::new(4),
            42,
            3,
            50,
            &[InjectedFault::Panic, InjectedFault::NanOutput, InjectedFault::ZeroOutput],
        );
        let b = FaultInjectingPreconditioner::random(
            IdentityPreconditioner::new(4),
            42,
            3,
            50,
            &[InjectedFault::Panic, InjectedFault::NanOutput, InjectedFault::ZeroOutput],
        );
        assert_eq!(a.schedule(), b.schedule());
        assert_eq!(a.schedule().len(), 3);
        let c = FaultInjectingPreconditioner::random(
            IdentityPreconditioner::new(4),
            43,
            3,
            50,
            &[InjectedFault::Panic],
        );
        assert_ne!(a.schedule(), c.schedule());
    }

    #[test]
    fn injector_fires_by_apply_count() {
        let inj = FaultInjectingPreconditioner::scheduled(
            IdentityPreconditioner::new(2),
            [(1, InjectedFault::ZeroOutput)],
        );
        let r = [3.0, 4.0];
        let mut z = [0.0; 2];
        inj.apply(&r, &mut z);
        assert_eq!(z, r, "apply 0 is healthy");
        inj.apply(&r, &mut z);
        assert_eq!(z, [0.0, 0.0], "apply 1 injects the zero output");
        inj.apply(&r, &mut z);
        assert_eq!(z, r, "apply 2 is healthy again");
    }

    #[test]
    fn pcg_converges_through_an_injected_panic() {
        let a = laplacian_2d(12, 12);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let opts = SolverOptions::with_tolerance(1e-8);
        let clean =
            preconditioned_conjugate_gradient(&a, &b, None, &JacobiPreconditioner::new(&a), &opts);
        let tiers: Vec<Box<dyn Preconditioner>> = vec![
            Box::new(FaultInjectingPreconditioner::scheduled(
                JacobiPreconditioner::new(&a),
                [(3, InjectedFault::Panic)],
            )),
            Box::new(JacobiPreconditioner::new(&a)),
        ];
        let ladder = DegradationLadder::new(tiers);
        let faulted = preconditioned_conjugate_gradient(&a, &b, None, &ladder, &opts);
        assert!(faulted.stats.converged());
        assert!(
            faulted.stats.iterations <= 2 * clean.stats.iterations.max(1),
            "fault recovery overhead too large: {} vs {}",
            faulted.stats.iterations,
            clean.stats.iterations
        );
        assert!(has_kind(&faulted.stats.faults, FaultKind::Panic));
        assert_eq!(faulted.stats.faults.final_tier(), Some("jacobi"));
        assert_eq!(faulted.stats.faults.events().len(), 1);
    }

    /// The injector counts one apply per call, batched or not: key 5 fires
    /// during ladder apply 5 of a 3-column lockstep solve.
    #[test]
    fn injector_keys_count_batched_applies_once() {
        let a = laplacian_2d(12, 12);
        let n = a.nrows();
        let rhs: Vec<Vec<f64>> =
            (0..3).map(|c| (0..n).map(|i| ((i * (c + 2)) % 7) as f64 - 3.0).collect()).collect();
        let bs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
        let tiers: Vec<Box<dyn Preconditioner>> = vec![
            Box::new(FaultInjectingPreconditioner::scheduled(
                JacobiPreconditioner::new(&a),
                [(5, InjectedFault::Panic)],
            )),
            Box::new(JacobiPreconditioner::new(&a)),
        ];
        let ladder = DegradationLadder::new(tiers);
        let opts = SolverOptions::with_tolerance(1e-8);
        for result in crate::solve_batch(&a, &bs, None, &ladder, &opts) {
            assert!(result.stats.converged());
            let events = result.stats.faults.events();
            assert_eq!(events.len(), 1, "{events:?}");
            assert_eq!(events[0].kind, FaultKind::Panic);
            assert_eq!(events[0].tier, "inject(jacobi)");
            assert_eq!(events[0].apply_index, 5);
        }
    }

    #[test]
    fn fault_log_merge_keeps_order_and_final_tier() {
        let mut a = FaultLog::new();
        a.record(FaultEvent::new(FaultKind::Panic, 0, "t0", "first"));
        let mut b = FaultLog::new();
        b.record(FaultEvent::new(FaultKind::Breakdown, 5, "t1", "second"));
        b.set_final_tier("t1");
        a.merge(b);
        assert_eq!(a.events().len(), 2);
        assert_eq!(a.events()[1].kind, FaultKind::Breakdown);
        assert_eq!(a.final_tier(), Some("t1"));
        assert_eq!(a.events.iter().filter(|e| e.kind == FaultKind::Panic).count(), 1);
        assert!(!a.is_empty());
    }
}
