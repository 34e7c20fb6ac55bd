//! The repository's benchmark: four named workloads, end-to-end metrics with
//! regression bounds, and per-layer metrics from an outside-in trace.  See
//! `README.md` in this directory and `BENCHMARK.json` at the repository root.

pub mod checks;
pub mod compare;
pub mod host;
pub mod json;
pub mod measure;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

/// `benchmark/out/`, or `benchmark/out/smoke/` so that a smoke run (the
/// integration test runs one) never overwrites measured results.
pub fn out_dir(smoke: bool) -> std::path::PathBuf {
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if smoke {
        out.join("smoke")
    } else {
        out
    }
}
