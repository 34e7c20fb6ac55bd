//! What the numbers were measured on: CPU, caches, memory, sustainable
//! bandwidth, toolchain and commit.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::json::{obj, Value};

/// Static facts about the machine, read from `/proc` and sysfs (0 / "unknown"
/// where the platform does not say).
#[derive(Debug, Clone)]
pub struct Host {
    pub cpu_model: String,
    /// CPUs this process may run on — the limit for every thread count.
    pub cpus: usize,
    pub l1d_kb: f64,
    pub l2_kb: f64,
    /// Last-level cache (largest level sysfs reports for cpu0).
    pub llc_mb: f64,
    pub ram_mb: f64,
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Value of a `Key:   123 kB` line of a `/proc` status file, in kB.
fn proc_kb(path: &str, key: &str) -> Option<f64> {
    let text = read(path)?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim_start_matches(':').split_whitespace().next()?.parse().ok()
}

/// sysfs cache size such as `48K` or `266240K`, in KiB.
fn cache_kb(text: &str) -> Option<f64> {
    let text = text.trim();
    match text.strip_suffix('M') {
        Some(mb) => mb.parse::<f64>().ok().map(|v| v * 1024.0),
        None => text.trim_end_matches('K').parse().ok(),
    }
}

impl Host {
    pub fn detect() -> Host {
        let cpu_model = read("/proc/cpuinfo")
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let (mut l1d_kb, mut l2_kb, mut llc) = (0.0, 0.0, (0u32, 0.0));
        for index in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let (Some(level), Some(kind), Some(size)) = (
                read(&format!("{dir}/level")).and_then(|l| l.trim().parse::<u32>().ok()),
                read(&format!("{dir}/type")),
                read(&format!("{dir}/size")).and_then(|s| cache_kb(&s)),
            ) else {
                continue;
            };
            match (level, kind.trim()) {
                (_, "Instruction") => {}
                (1, _) => l1d_kb = size,
                (2, _) => l2_kb = size,
                _ => {}
            }
            if kind.trim() != "Instruction" && level > llc.0 {
                llc = (level, size);
            }
        }
        Host {
            cpu_model,
            cpus,
            l1d_kb,
            l2_kb,
            llc_mb: llc.1 / 1024.0,
            ram_mb: proc_kb("/proc/meminfo", "MemTotal").unwrap_or(0.0) / 1024.0,
        }
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("cpu_model", Value::from(self.cpu_model.as_str())),
            ("cpus", Value::from(self.cpus)),
            ("l1d_kb", Value::from(self.l1d_kb)),
            ("l2_kb", Value::from(self.l2_kb)),
            ("llc_mb", Value::from(self.llc_mb)),
            ("ram_mb", Value::from(self.ram_mb)),
        ])
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_kb("/proc/self/status", "VmHWM").unwrap_or(0.0) / 1024.0
}

/// A one-thread STREAM triad and the array size it ran on.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    /// Best of three passes, counting 24 bytes per element (two loads and a
    /// store; write-allocate traffic is not counted, as in STREAM).
    pub gbs: f64,
    /// Size of each of the three arrays.
    pub array_mb: f64,
    /// Whether each array is at least four times the last-level cache, the
    /// condition for calling the result sustainable bandwidth.
    pub beyond_cache: bool,
}

/// Measure `a[i] = b[i] + s·c[i]` on one thread.  The arrays are four times
/// the last-level cache unless `small` is set or memory forbids: three of
/// them must fit in half of what `/proc/meminfo` calls available.
pub fn triad(host: &Host, small: bool) -> Triad {
    let wanted_mb = if small { 8.0 } else { (4.0 * host.llc_mb).max(64.0) };
    let available_mb = proc_kb("/proc/meminfo", "MemAvailable").unwrap_or(1024.0) / 1024.0;
    let array_mb = wanted_mb.min(available_mb / 6.0);
    let len = (array_mb * 1024.0 * 1024.0 / 8.0) as usize;
    let b = black_box(vec![1.5f64; len]);
    let c = black_box(vec![2.5f64; len]);
    let mut a = vec![0.0f64; len];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        black_box(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    Triad {
        gbs: 24.0 * len as f64 / best / 1e9,
        array_mb,
        beyond_cache: host.llc_mb > 0.0 && array_mb >= 4.0 * host.llc_mb,
    }
}

/// [`triad`] at full size, measured once per checkout: first-touching its
/// 3 GB costs 5–20 s on a VM whose memory the host backs lazily, and the
/// result is a property of the host, not of the run.  The measurement is kept
/// in `cache` and reused while the host fingerprint beside it still matches.
pub fn triad_cached(host: &Host, cache: &Path) -> Triad {
    let fingerprint = host.to_json();
    let cached = std::fs::read_to_string(cache).ok().and_then(|text| {
        let doc = Value::parse(&text).ok()?;
        (doc.get("host") == Some(&fingerprint)).then_some(())?;
        Some(Triad {
            gbs: doc.get("gbs")?.as_f64()?,
            array_mb: doc.get("array_mb")?.as_f64()?,
            beyond_cache: doc.get("beyond_cache")?.as_bool()?,
        })
    });
    cached.unwrap_or_else(|| {
        let measured = triad(host, false);
        let doc = obj([
            ("host", fingerprint),
            ("gbs", Value::from(measured.gbs)),
            ("array_mb", Value::from(measured.array_mb)),
            ("beyond_cache", Value::from(measured.beyond_cache)),
        ]);
        // Best effort: without the file the next run measures again.
        let _ = cache.parent().map(std::fs::create_dir_all);
        let _ = std::fs::write(cache, doc.to_pretty());
        measured
    })
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// `git rev-parse HEAD` and whether the work tree differs from it; `unknown`
/// outside a git checkout.
pub fn git_state() -> Value {
    let rev = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    obj([
        ("rev", Value::from(rev.unwrap_or_else(|| "unknown".to_string()))),
        ("dirty", Value::from(dirty)),
    ])
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_in_both_units() {
        assert_eq!(cache_kb("48K\n"), Some(48.0));
        assert_eq!(cache_kb("266240K"), Some(266240.0));
        assert_eq!(cache_kb("32M"), Some(32768.0));
        assert_eq!(cache_kb("big"), None);
    }

    #[test]
    fn detection_never_reports_zero_cpus() {
        let host = Host::detect();
        assert!(host.cpus >= 1);
        assert!(peak_rss_mb() >= 0.0);
    }

    #[test]
    fn a_cached_triad_is_reused_only_on_the_same_host() {
        let host = Host { cpus: 2, llc_mb: 0.0, ..Host::detect() };
        let cache = std::env::temp_dir().join(format!("triad-test-{}.json", std::process::id()));
        let doc = |h: &Host| {
            obj([
                ("host", h.to_json()),
                ("gbs", Value::from(12.5)),
                ("array_mb", Value::from(1040.0)),
                ("beyond_cache", Value::from(true)),
            ])
        };
        std::fs::write(&cache, doc(&host).to_pretty()).unwrap();
        let reused = triad_cached(&host, &cache);
        assert_eq!((reused.gbs, reused.array_mb, reused.beyond_cache), (12.5, 1040.0, true));
        // Another host's measurement is not this host's roof: measure again
        // (64 MB arrays, since this fingerprint claims no cache) and replace it.
        let other = Host { cpus: 64, ..host.clone() };
        std::fs::write(&cache, doc(&other).to_pretty()).unwrap();
        let measured = triad_cached(&host, &cache);
        assert!(measured.array_mb <= 64.0 && !measured.beyond_cache);
        let rewritten = Value::parse(&std::fs::read_to_string(&cache).unwrap()).unwrap();
        assert_eq!(rewritten.get("host"), Some(&host.to_json()));
        std::fs::remove_file(&cache).unwrap();
    }

    #[test]
    fn small_triad_moves_data() {
        let host = Host::detect();
        let t = triad(&host, true);
        assert!(t.gbs > 0.0 && t.array_mb <= 8.0);
    }
}
