//! The always-compiled sanitizer engine: lock-site registry, per-thread
//! held-lock stacks, the global lock-order graph with cycle detection,
//! same-batch contention tracking and the findings store.
//!
//! The engine itself carries no `cfg(detsan)` gates — it is plain, unit-
//! testable code.  What the cfg controls is whether anything *calls* it:
//! [`crate::TrackedMutex`] and the `shims/rayon` pool only hook in when the
//! workspace is compiled with `--cfg detsan` (and, for tracking, the
//! `DETSAN=1` runtime switch or [`force_tracking`]).
//!
//! All global state uses poison-recovering `std` mutexes (never a
//! `TrackedMutex` — the engine must not recurse into itself) and `BTreeMap`
//! storage so reports are deterministic.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use lint::{Report, Violation};

// ---------------------------------------------------------------------------
// Runtime switch
// ---------------------------------------------------------------------------

static FORCE_TRACKING: AtomicBool = AtomicBool::new(false);
static ENV_TRACKING: OnceLock<bool> = OnceLock::new();

/// Whether lock-order / contention tracking is on.  Under `--cfg detsan`
/// this is consulted on every `TrackedMutex::lock`; it is `true` when the
/// process was started with `DETSAN=1` (read once) or after
/// [`force_tracking`]`(true)`.
pub fn tracking_enabled() -> bool {
    *ENV_TRACKING
        .get_or_init(|| std::env::var("DETSAN").map(|v| v == "1" || v == "true").unwrap_or(false))
        || FORCE_TRACKING.load(Ordering::Relaxed)
}

/// Programmatic override of the `DETSAN` env switch (for tests).
/// `force_tracking(false)` only clears the override, not the env switch.
// detlint::allow(unreferenced-pub): the switch the sanitizer and pool contention tests turn tracking on with
pub fn force_tracking(on: bool) {
    FORCE_TRACKING.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Lock-site registry
// ---------------------------------------------------------------------------

/// Identity of one lock *site* (a `TrackedMutex` construction point).  All
/// instances created at the same labelled site — e.g. every element of a
/// `Vec<TrackedMutex<Scratch>>` — share a `SiteId`; lock ordering is a
/// property of site classes, while contention is tracked per instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SiteId(u32);

#[derive(Clone, Debug)]
struct SiteInfo {
    label: &'static str,
    file: &'static str,
    line: u32,
    commutative: Option<&'static str>,
}

/// Labels that have been *reviewed* as safe to annotate commutative: the
/// protected state must be order-insensitive within one parallel batch.
/// An unknown commutative label is itself a finding
/// (`unreviewed-commutative`) — annotations are auditable, like
/// `detlint::allow`.  The `test::` prefix is reserved for test fixtures.
pub(crate) const REVIEWED_COMMUTATIVE: &[&str] = &["ddm::asm::Schwarz::faults"];

fn sites() -> &'static Mutex<Vec<SiteInfo>> {
    static SITES: OnceLock<Mutex<Vec<SiteInfo>>> = OnceLock::new();
    SITES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register (or look up) the lock site for a construction point.  Sites are
/// deduplicated by `(label, file, line)` so a loop constructing many
/// instances yields one site.
pub(crate) fn register_site(
    label: &'static str,
    file: &'static str,
    line: u32,
    commutative: Option<&'static str>,
) -> SiteId {
    let mut sites = sites().lock().unwrap_or_else(PoisonError::into_inner);
    for (i, s) in sites.iter().enumerate() {
        if s.label == label && s.file == file && s.line == line {
            return SiteId(i as u32);
        }
    }
    if commutative.is_some()
        && !REVIEWED_COMMUTATIVE.contains(&label)
        && !label.starts_with("test::")
    {
        push_finding(Finding {
            rule: "unreviewed-commutative",
            label: label.to_string(),
            file: file.to_string(),
            line,
            message: format!(
                "commutative annotation on `{label}` is not in \
                 sanitizer::runtime::REVIEWED_COMMUTATIVE; review the site and add its \
                 label (annotations are audited like detlint::allow)"
            ),
            allow_reason: None,
        });
    }
    let id = SiteId(sites.len() as u32);
    sites.push(SiteInfo { label, file, line, commutative });
    id
}

fn site_info(id: SiteId) -> SiteInfo {
    let sites = sites().lock().unwrap_or_else(PoisonError::into_inner);
    sites.get(id.0 as usize).cloned().unwrap_or(SiteInfo {
        label: "<unregistered>",
        file: "<unknown>",
        line: 0,
        commutative: None,
    })
}

fn describe(id: SiteId) -> String {
    let s = site_info(id);
    format!("`{}` ({}:{})", s.label, s.file, s.line)
}

// ---------------------------------------------------------------------------
// Batch / job identity
// ---------------------------------------------------------------------------

static NEXT_BATCH: AtomicU64 = AtomicU64::new(1);

/// Allocate the identity of one pool batch (ids start at 1; 0 is the
/// "no batch yet" sentinel in the contention state).
pub fn next_batch_id() -> u64 {
    NEXT_BATCH.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Innermost-last stack of (batch, job) identities; a stack because a
    /// job that runs a nested parallel section helps drain inner jobs on
    /// the same thread.
    static JOBS: RefCell<Vec<(u64, u32)>> = const { RefCell::new(Vec::new()) };
    /// Per-thread stack of currently held tracked locks (site, instance).
    static HELD: RefCell<Vec<(SiteId, u64)>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one job's identity on the executing thread.
pub struct JobScope(());

impl Drop for JobScope {
    fn drop(&mut self) {
        JOBS.with(|j| {
            j.borrow_mut().pop();
        });
    }
}

/// Mark the current thread as executing job `job` of batch `batch` until
/// the returned scope drops.  Called by the pool around each job.
pub fn enter_job(batch: u64, job: u32) -> JobScope {
    JOBS.with(|j| j.borrow_mut().push((batch, job)));
    JobScope(())
}

/// The (batch, job) identity the current thread is executing, if any.
pub(crate) fn current_job() -> Option<(u64, u32)> {
    JOBS.with(|j| j.borrow().last().copied())
}

// ---------------------------------------------------------------------------
// Lock-order graph
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Graph {
    /// `from -> {to}`: `to` was acquired while `from` was held.
    adj: BTreeMap<SiteId, BTreeSet<SiteId>>,
    /// Representative acquisition context per edge, for reporting.
    chains: BTreeMap<(SiteId, SiteId), String>,
    /// Canonicalised node sets of cycles already reported.
    reported: BTreeSet<Vec<SiteId>>,
}

fn graph() -> &'static Mutex<Graph> {
    static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
    GRAPH.get_or_init(|| Mutex::new(Graph::default()))
}

/// Record an acquisition of `site` (instance `instance`) on this thread:
/// adds a lock-order edge from the currently held top lock (if any), runs
/// cycle detection, then pushes onto the held stack.
pub(crate) fn on_acquire(site: SiteId, instance: u64) {
    let held: Vec<(SiteId, u64)> = HELD.with(|h| h.borrow().clone());
    if let Some(&(top, _)) = held.last() {
        record_edge(top, site, &held);
    }
    HELD.with(|h| h.borrow_mut().push((site, instance)));
}

/// Record the release of `site` / `instance` (called from the guard's
/// `Drop`; tolerates out-of-LIFO release orders).
pub(crate) fn on_release(site: SiteId, instance: u64) {
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        if let Some(pos) = h.iter().rposition(|&(s, i)| s == site && i == instance) {
            h.remove(pos);
        }
    });
}

fn chain_text(held: &[(SiteId, u64)], acquiring: SiteId) -> String {
    let held_txt: Vec<String> = held.iter().map(|&(s, _)| describe(s)).collect();
    format!("holding [{}] then acquiring {}", held_txt.join(", "), describe(acquiring))
}

/// Deterministic DFS for a node path `start -> … -> goal` in `adj`.
fn find_path(
    adj: &BTreeMap<SiteId, BTreeSet<SiteId>>,
    start: SiteId,
    goal: SiteId,
) -> Option<Vec<SiteId>> {
    if start == goal {
        return Some(vec![start]);
    }
    let mut visited = BTreeSet::new();
    visited.insert(start);
    let mut stack = vec![(start, vec![start])];
    while let Some((node, path)) = stack.pop() {
        let Some(nexts) = adj.get(&node) else { continue };
        for &n in nexts {
            let mut p = path.clone();
            p.push(n);
            if n == goal {
                return Some(p);
            }
            if visited.insert(n) {
                stack.push((n, p));
            }
        }
    }
    None
}

fn record_edge(from: SiteId, to: SiteId, held: &[(SiteId, u64)]) {
    let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
    if g.adj.get(&from).is_some_and(|s| s.contains(&to)) {
        return;
    }
    let new_chain = chain_text(held, to);
    // A pre-existing path `to -> … -> from` means the new edge closes a
    // lock-order cycle: two code paths acquire these sites in opposite
    // orders, which can deadlock under an adversarial schedule.
    if let Some(path) = find_path(&g.adj, to, from) {
        let mut key: Vec<SiteId> = path.clone();
        key.sort_unstable();
        key.dedup();
        if g.reported.insert(key) {
            let mut msg = format!(
                "lock-order inversion: acquiring {} while holding {} conflicts with the \
                 previously recorded order {}",
                describe(to),
                describe(from),
                path.iter().map(|&s| describe(s)).collect::<Vec<_>>().join(" -> "),
            );
            msg.push_str(&format!("; chain 1 (new): {new_chain}"));
            for w in path.windows(2) {
                if let Some(chain) = g.chains.get(&(w[0], w[1])) {
                    msg.push_str(&format!(
                        "; chain 2 (recorded, {} -> {}): {}",
                        describe(w[0]),
                        describe(w[1]),
                        chain
                    ));
                }
            }
            if path.len() == 1 {
                msg.push_str(
                    "; (self-cycle: two locks of the same site class held simultaneously \
                     — instances of one class must never nest)",
                );
            }
            let info = site_info(to);
            push_finding(Finding {
                rule: "lock-order-cycle",
                label: info.label.to_string(),
                file: info.file.to_string(),
                line: info.line,
                message: msg,
                allow_reason: None,
            });
        }
    }
    g.adj.entry(from).or_default().insert(to);
    g.chains.insert((from, to), new_chain);
}

// ---------------------------------------------------------------------------
// Same-batch contention
// ---------------------------------------------------------------------------

/// Per-`TrackedMutex`-instance contention state.  Accesses are serialized
/// by the tracked mutex itself (the owner records *while holding it*), so
/// relaxed atomics suffice.
pub(crate) struct ContentionState {
    batch: AtomicU64,
    first_job: AtomicU32,
    flagged_batch: AtomicBool,
    reported: AtomicBool,
}

impl ContentionState {
    pub(crate) const fn new() -> Self {
        ContentionState {
            batch: AtomicU64::new(0),
            first_job: AtomicU32::new(0),
            flagged_batch: AtomicBool::new(false),
            reported: AtomicBool::new(false),
        }
    }
}

impl Default for ContentionState {
    fn default() -> Self {
        Self::new()
    }
}

/// Record an acquisition of `site` by the current job (must be called while
/// holding the tracked mutex).  Two *distinct* jobs of the same batch
/// acquiring the same instance is an order-sensitivity hazard: whichever
/// job gets the lock first is schedule-dependent.  The check is
/// acquisition-set based (not blocking-based), so it is deterministic and
/// fires even on a single-thread pool.
pub(crate) fn note_contention(site: SiteId, st: &ContentionState) {
    let Some((batch, job)) = current_job() else { return };
    if st.batch.load(Ordering::Relaxed) != batch {
        st.batch.store(batch, Ordering::Relaxed);
        st.first_job.store(job, Ordering::Relaxed);
        st.flagged_batch.store(false, Ordering::Relaxed);
        return;
    }
    if st.first_job.load(Ordering::Relaxed) == job || st.flagged_batch.load(Ordering::Relaxed) {
        return;
    }
    st.flagged_batch.store(true, Ordering::Relaxed);
    if st.reported.swap(true, Ordering::Relaxed) {
        return; // one finding per instance per process
    }
    let info = site_info(site);
    let (message, allow_reason) = match info.commutative {
        Some(reason) => (
            format!(
                "same-batch contention on commutative site `{}` (jobs {} and {} of batch \
                 {} both acquired it) — suppressed by reviewed annotation",
                info.label,
                st.first_job.load(Ordering::Relaxed),
                job,
                batch
            ),
            Some(reason.to_string()),
        ),
        None => (
            format!(
                "order-sensitivity hazard: jobs {} and {} of parallel batch {} both \
                 acquired `{}` — the acquisition order is schedule-dependent; make the \
                 protected update commutative and annotate the site with \
                 TrackedMutex::new_commutative, or restructure so each job touches \
                 disjoint state",
                st.first_job.load(Ordering::Relaxed),
                job,
                batch,
                info.label
            ),
            None,
        ),
    };
    push_finding(Finding {
        rule: "batch-order-sensitivity",
        label: info.label.to_string(),
        file: info.file.to_string(),
        line: info.line,
        message,
        allow_reason,
    });
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// One sanitizer finding (live, or suppressed by a reviewed `commutative`
/// annotation — the runtime analogue of a suppressed detlint violation).
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: &'static str,
    pub label: String,
    pub file: String,
    pub line: u32,
    pub message: String,
    pub allow_reason: Option<String>,
}

fn findings_store() -> &'static Mutex<Vec<Finding>> {
    static FINDINGS: OnceLock<Mutex<Vec<Finding>>> = OnceLock::new();
    FINDINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn push_finding(f: Finding) {
    findings_store().lock().unwrap_or_else(PoisonError::into_inner).push(f);
}

/// Snapshot of all findings recorded so far in this process.
pub fn findings() -> Vec<Finding> {
    findings_store().lock().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Render the findings through `crates/lint`'s report machinery.
/// `files_scanned` is the number of distinct files with registered lock
/// sites; suppressed (commutative) findings land in the report's `allowed`
/// section with their annotation reason.
pub fn report() -> Report {
    let mut files: BTreeSet<&'static str> = BTreeSet::new();
    {
        let sites = sites().lock().unwrap_or_else(PoisonError::into_inner);
        for s in sites.iter() {
            files.insert(s.file);
        }
    }
    let mut report = Report {
        files_scanned: files.len(),
        findings: findings()
            .into_iter()
            .map(|f| Violation {
                rule: f.rule.to_string(),
                file: f.file,
                line: f.line,
                message: f.message,
                snippet: f.label,
                allow_reason: f.allow_reason,
            })
            .collect(),
    };
    report.findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_label<'a>(fs: &'a [Finding], label: &str) -> Vec<&'a Finding> {
        fs.iter().filter(|f| f.message.contains(label)).collect()
    }

    #[test]
    fn sites_deduplicate_by_construction_point() {
        let a = register_site("test::dedup-a", "f.rs", 1, None);
        let b = register_site("test::dedup-a", "f.rs", 1, None);
        let c = register_site("test::dedup-c", "f.rs", 2, None);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn inverted_lock_pair_is_reported_as_a_cycle() {
        let a = register_site("test::cycle-a", "cycle.rs", 10, None);
        let b = register_site("test::cycle-b", "cycle.rs", 20, None);
        // Order A -> B …
        on_acquire(a, 1);
        on_acquire(b, 2);
        on_release(b, 2);
        on_release(a, 1);
        // … then the inversion B -> A.
        on_acquire(b, 2);
        on_acquire(a, 1);
        on_release(a, 1);
        on_release(b, 2);
        let fs = findings();
        let hits = by_label(&fs, "test::cycle-a");
        assert_eq!(hits.len(), 1, "exactly one cycle finding expected: {hits:?}");
        assert_eq!(hits[0].rule, "lock-order-cycle");
        assert!(
            hits[0].message.contains("test::cycle-b"),
            "both chains named: {}",
            hits[0].message
        );
        assert!(hits[0].message.contains("chain 1"), "{}", hits[0].message);
        assert!(hits[0].message.contains("chain 2"), "{}", hits[0].message);
    }

    #[test]
    fn consistent_order_is_not_a_cycle() {
        let a = register_site("test::order-a", "order.rs", 1, None);
        let b = register_site("test::order-b", "order.rs", 2, None);
        for _ in 0..3 {
            on_acquire(a, 1);
            on_acquire(b, 2);
            on_release(b, 2);
            on_release(a, 1);
        }
        assert!(by_label(&findings(), "test::order-a").is_empty());
    }

    #[test]
    fn transitive_inversion_is_detected() {
        let a = register_site("test::tri-a", "tri.rs", 1, None);
        let b = register_site("test::tri-b", "tri.rs", 2, None);
        let c = register_site("test::tri-c", "tri.rs", 3, None);
        // A -> B, B -> C, then C -> A closes the 3-cycle.
        on_acquire(a, 1);
        on_acquire(b, 2);
        on_release(b, 2);
        on_release(a, 1);
        on_acquire(b, 2);
        on_acquire(c, 3);
        on_release(c, 3);
        on_release(b, 2);
        on_acquire(c, 3);
        on_acquire(a, 1);
        on_release(a, 1);
        on_release(c, 3);
        let fs = findings();
        let hits = by_label(&fs, "test::tri-c");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "lock-order-cycle");
    }

    #[test]
    fn nesting_two_instances_of_one_site_class_is_a_self_cycle() {
        let a = register_site("test::selfloop", "selfloop.rs", 1, None);
        on_acquire(a, 1);
        on_acquire(a, 2);
        on_release(a, 2);
        on_release(a, 1);
        let fs = findings();
        let hits = by_label(&fs, "test::selfloop");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("self-cycle"), "{}", hits[0].message);
    }

    #[test]
    fn same_batch_contention_is_flagged_once() {
        let s = register_site("test::contend", "contend.rs", 1, None);
        let st = ContentionState::new();
        let batch = next_batch_id();
        {
            let _j = enter_job(batch, 0);
            note_contention(s, &st);
        }
        {
            let _j = enter_job(batch, 1);
            note_contention(s, &st);
        }
        {
            let _j = enter_job(batch, 2);
            note_contention(s, &st);
        }
        let fs = findings();
        let hits = by_label(&fs, "test::contend");
        assert_eq!(hits.len(), 1, "one finding per instance: {hits:?}");
        assert_eq!(hits[0].rule, "batch-order-sensitivity");
        assert!(hits[0].allow_reason.is_none(), "unannotated site must be live");
    }

    #[test]
    fn same_job_reacquisition_is_not_contention() {
        let s = register_site("test::samejob", "samejob.rs", 1, None);
        let st = ContentionState::new();
        let batch = next_batch_id();
        let _j = enter_job(batch, 4);
        note_contention(s, &st);
        note_contention(s, &st);
        assert!(by_label(&findings(), "test::samejob").is_empty());
    }

    #[test]
    fn distinct_batches_do_not_contend() {
        let s = register_site("test::twobatch", "twobatch.rs", 1, None);
        let st = ContentionState::new();
        for job in [0u32, 1, 2] {
            let batch = next_batch_id();
            let _j = enter_job(batch, job);
            note_contention(s, &st);
        }
        assert!(by_label(&findings(), "test::twobatch").is_empty());
    }

    #[test]
    fn commutative_contention_is_suppressed_with_reason() {
        let s = register_site("test::commut", "commut.rs", 1, Some("interchangeable buffers"));
        let st = ContentionState::new();
        let batch = next_batch_id();
        {
            let _j = enter_job(batch, 0);
            note_contention(s, &st);
        }
        {
            let _j = enter_job(batch, 1);
            note_contention(s, &st);
        }
        let fs = findings();
        let hits = by_label(&fs, "test::commut");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].allow_reason.as_deref(), Some("interchangeable buffers"));
    }

    #[test]
    fn unreviewed_commutative_label_is_a_finding() {
        register_site("rogue::unreviewed-site", "rogue.rs", 7, Some("trust me"));
        let fs = findings();
        let hits = by_label(&fs, "rogue::unreviewed-site");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "unreviewed-commutative");
        // A test:: label is exempt.
        register_site("test::reviewed-enough", "ok.rs", 8, Some("fixture"));
        assert!(by_label(&findings(), "test::reviewed-enough").is_empty());
    }

    #[test]
    fn every_reviewed_commutative_label_is_constructed_somewhere() {
        // A reviewed label no `new_commutative` call passes any more is a
        // standing exemption waiting for an unreviewed mutex to claim it.
        fn labels_in(dir: &std::path::Path, found: &mut Vec<String>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() && !path.ends_with("target") {
                    labels_in(&path, found);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let text = std::fs::read_to_string(&path).unwrap();
                    // The label is the first string literal of the call.
                    for call in text.split("new_commutative(").skip(1) {
                        found.extend(call.split('"').nth(1).map(str::to_string));
                    }
                }
            }
        }
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut constructed = Vec::new();
        for dir in ["crates", "shims"] {
            labels_in(&root.join(dir), &mut constructed);
        }
        for label in REVIEWED_COMMUTATIVE {
            assert!(
                constructed.iter().any(|c| c == label),
                "`{label}` is reviewed but no new_commutative call passes it"
            );
        }
    }

    #[test]
    fn outside_a_job_nothing_is_recorded_for_contention() {
        let s = register_site("test::nojob", "nojob.rs", 1, None);
        let st = ContentionState::new();
        note_contention(s, &st);
        note_contention(s, &st);
        assert!(by_label(&findings(), "test::nojob").is_empty());
    }

    #[test]
    fn report_converts_findings_to_lint_violations() {
        let r = report();
        // Whatever other tests recorded, the conversion must be structurally
        // sound: every violation carries rule/file/snippet, and suppressed
        // entries carry reasons.
        for v in r.findings.iter() {
            assert!(!v.rule.is_empty());
            assert!(!v.file.is_empty());
        }
        let _ = r.render_human();
        let _ = r.render_json();
    }
}
