//! Offline stand-in for the `rayon` crate — with **real** multithreading.
//!
//! The build environment has no network access, so this workspace vendors an
//! API-compatible subset of rayon.  Unlike the original sequential shim, this
//! implementation executes parallel iterators on a persistent
//! [`std::thread`]-based worker pool:
//!
//! * **Pool sizing** — `RAYON_NUM_THREADS` (read once at first use), falling
//!   back to [`std::thread::available_parallelism`].  A pool of size 1 runs
//!   everything inline with zero synchronisation.
//! * **Chunked scheduling** — every `par_iter`/`par_iter_mut`/`into_par_iter`
//!   splits its source into at most [`iter::NUM_CHUNKS`] contiguous chunks
//!   whose boundaries depend only on the data length, never on the pool size
//!   (see the [`iter`] module docs).
//! * **Determinism** — per-chunk reductions run sequentially and partials are
//!   combined in chunk order, so `sum`/`collect`/`reduce` results are
//!   bit-identical at every `RAYON_NUM_THREADS` setting.  This is what keeps
//!   the solver residual histories reproducible across machines and thread
//!   counts.
//! * **Panic propagation** — a panic inside a worker is captured and re-raised
//!   on the submitting thread after the batch finishes; the pool survives.
//!
//! Supported API: the `prelude` entry-point traits for slices, `Vec<T>` and
//! `Range<usize>`, the adapter chains used in this workspace (`map`, `zip`,
//! `enumerate`, `filter_map`, `for_each`, `sum`, `collect`, `count`,
//! `reduce`), plus [`join`] and [`current_num_threads`].
//! Swapping in the registry rayon is still a one-line `[workspace.dependencies]`
//! change; no source edits are needed.

pub mod iter;
pub mod pool;

/// The adapter-chain entry points (`par_iter`, `par_iter_mut`,
/// `into_par_iter`), mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
    };
}

pub use iter::{FilterMap, Par, Producer};
pub use pool::ThreadPool;

/// Run both closures, potentially in parallel, and return both results.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let mut ra: Option<RA> = None;
    let mut rb: Option<RB> = None;
    {
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> =
            vec![Box::new(|| ra = Some(oper_a())), Box::new(|| rb = Some(oper_b()))];
        pool::global().run_batch(jobs);
    }
    (ra.expect("join: first closure did not run"), rb.expect("join: second closure did not run"))
}

/// Number of threads the global pool executes parallel sections on.
pub fn current_num_threads() -> usize {
    pool::global().num_threads()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_matches_iter() {
        // An array receiver also checks the unsized-coercion method lookup.
        let v = [1, 2, 3, 4];
        let s: i32 = v.par_iter().map(|x| x * 2).sum();
        assert_eq!(s, 20);
    }

    #[test]
    fn par_iter_mut_mutates() {
        let mut v = vec![1.0, 2.0];
        v.par_iter_mut().for_each(|x| *x += 1.0);
        assert_eq!(v, vec![2.0, 3.0]);
    }

    #[test]
    fn into_par_iter_consumes() {
        let v: Vec<usize> = (0usize..4).into_par_iter().collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = super::join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn join_can_borrow_mutably() {
        let mut left = vec![0.0; 128];
        let mut right = vec![0.0; 128];
        super::join(
            || left.iter_mut().for_each(|x| *x = 1.0),
            || right.iter_mut().for_each(|x| *x = 2.0),
        );
        assert!(left.iter().all(|&x| x == 1.0));
        assert!(right.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }
}
