//! [`TrackedMutex`]: the drop-in, poison-recovering mutex the workspace's
//! shared-scratch sites use.
//!
//! Both builds expose the identical API (`new` / `new_commutative` /
//! `lock`), so call sites carry no `cfg` noise:
//!
//! * **Without `--cfg detsan`** it is a `#[repr(transparent)]` newtype over
//!   [`std::sync::Mutex`] whose `lock()` is exactly the
//!   `lock().unwrap_or_else(PoisonError::into_inner)` idiom the sites used
//!   before — same size, same guard type, no branch (pinned by
//!   `tests/zero_cost.rs`).
//! * **With `--cfg detsan`** each constructor registers a lock *site*
//!   (label + construction file/line, deduplicated so a `Vec` of mutexes
//!   built in a loop is one site class) and, when tracking is switched on
//!   at runtime (`DETSAN=1` or [`crate::force_tracking`]), every `lock()`
//!   feeds the lock-order graph and the same-batch contention tracker in
//!   [`crate::runtime`].
//!
//! Poison recovery is deliberate and uniform: the protected values are
//! solver scratch that is rebuilt or validated by the owner, so a panicked
//! peer must degrade (the resilience ladder's job), not wedge the solve.

use std::sync::{Mutex, PoisonError};

#[cfg(detsan)]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(detsan)]
use std::sync::MutexGuard;

#[cfg(detsan)]
use crate::runtime::{
    self, note_contention, on_acquire, on_release, register_site, ContentionState, SiteId,
};

// ---------------------------------------------------------------------------
// Disabled build: transparent newtype
// ---------------------------------------------------------------------------

/// See the module docs.  Under `cfg(not(detsan))` this is layout- and
/// behaviour-identical to a bare poison-recovering `Mutex<T>`.
#[cfg(not(detsan))]
#[repr(transparent)]
pub struct TrackedMutex<T> {
    inner: Mutex<T>,
}

#[cfg(not(detsan))]
impl<T> TrackedMutex<T> {
    /// Wrap `value`; `label` documents the site (e.g.
    /// `"ddm::asm::Schwarz::faults"`) and is only consumed by detsan
    /// builds.
    #[inline]
    #[track_caller]
    pub fn new(value: T, _label: &'static str) -> Self {
        TrackedMutex { inner: Mutex::new(value) }
    }

    /// Like [`TrackedMutex::new`], additionally declaring the protected
    /// update commutative within a parallel batch (suppresses the
    /// `batch-order-sensitivity` finding; the label must be in
    /// `sanitizer::runtime::REVIEWED_COMMUTATIVE`).
    #[inline]
    #[track_caller]
    pub fn new_commutative(value: T, _label: &'static str, _reason: &'static str) -> Self {
        TrackedMutex { inner: Mutex::new(value) }
    }

    /// Acquire, recovering from poison (a panicked holder does not wedge
    /// subsequent users; see the module docs for why that is sound here).
    #[inline]
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(not(detsan))]
impl<T: std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

// ---------------------------------------------------------------------------
// detsan build: instrumented
// ---------------------------------------------------------------------------

#[cfg(detsan)]
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// See the module docs.  Under `cfg(detsan)` each mutex carries its site
/// identity, a process-unique instance id and the per-instance contention
/// state.
#[cfg(detsan)]
pub struct TrackedMutex<T> {
    inner: Mutex<T>,
    site: SiteId,
    instance: u64,
    contention: ContentionState,
}

#[cfg(detsan)]
impl<T> TrackedMutex<T> {
    /// Wrap `value`, registering the construction point as a lock site.
    #[track_caller]
    pub fn new(value: T, label: &'static str) -> Self {
        let loc = std::panic::Location::caller();
        TrackedMutex {
            inner: Mutex::new(value),
            site: register_site(label, loc.file(), loc.line(), None),
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            contention: ContentionState::new(),
        }
    }

    /// Like [`TrackedMutex::new`], additionally declaring the protected
    /// update commutative within a parallel batch.  `reason` is the audit
    /// trail (rendered like a `detlint::allow` reason); unreviewed labels
    /// are themselves reported (`unreviewed-commutative`).
    #[track_caller]
    pub fn new_commutative(value: T, label: &'static str, reason: &'static str) -> Self {
        let loc = std::panic::Location::caller();
        TrackedMutex {
            inner: Mutex::new(value),
            site: register_site(label, loc.file(), loc.line(), Some(reason)),
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            contention: ContentionState::new(),
        }
    }

    /// Acquire, recovering from poison.  When tracking is on, the
    /// acquisition is recorded into the lock-order graph *before* blocking
    /// (so a would-deadlock inversion is still reported) and into the
    /// contention tracker after (while the lock is held, which serializes
    /// the per-instance state).
    pub fn lock(&self) -> TrackedGuard<'_, T> {
        let tracked = runtime::tracking_enabled();
        if tracked {
            on_acquire(self.site, self.instance);
        }
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if tracked {
            note_contention(self.site, &self.contention);
        }
        TrackedGuard { guard, site: self.site, instance: self.instance, tracked }
    }
}

#[cfg(detsan)]
impl<T: std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// Guard returned by the detsan build's [`TrackedMutex::lock`]; releases the
/// runtime's held-lock record on drop.
#[cfg(detsan)]
pub struct TrackedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    site: SiteId,
    instance: u64,
    tracked: bool,
}

#[cfg(detsan)]
impl<T> std::ops::Deref for TrackedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

#[cfg(detsan)]
impl<T> std::ops::DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(detsan)]
impl<T> Drop for TrackedGuard<'_, T> {
    fn drop(&mut self) {
        if self.tracked {
            on_release(self.site, self.instance);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_round_trips_a_value() {
        let m = TrackedMutex::new(41usize, "test::mutex-roundtrip");
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn poison_is_recovered_not_propagated() {
        let m = std::sync::Arc::new(TrackedMutex::new(vec![1, 2, 3], "test::mutex-poison"));
        let m2 = m.clone();
        let joined = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert!(joined.is_err());
        assert!(m.inner.is_poisoned());
        assert_eq!(m.lock().len(), 3, "recovered access still sees the data");
    }

    #[test]
    fn commutative_constructor_round_trips() {
        let m = TrackedMutex::new_commutative(7i64, "test::mutex-commut", "fixture");
        assert_eq!(*m.lock(), 7);
    }
}
