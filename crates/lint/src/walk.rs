//! Finding the workspace and reading the files detlint scans.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::Config;

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.canonicalize().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if fs::read_to_string(&manifest).is_ok_and(|text| text.contains("[workspace]")) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Every `.rs` file under `paths` outside the excluded directories, as
/// sorted, de-duplicated `(workspace-relative path, source)` pairs.
/// Directory entries are visited in sorted order so output is
/// deterministic.  An error names the path it came from.
pub fn read_sources(
    paths: &[PathBuf],
    root: &Path,
    cfg: &Config,
) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for p in paths {
        collect_rs_files(p, root, cfg, &mut files).map_err(|e| at(p, e))?;
    }
    files.sort();
    files.dedup();
    files
        .into_iter()
        .map(|f| Ok((rel_path(&f, root), fs::read_to_string(&f).map_err(|e| at(&f, e))?)))
        .collect()
}

/// `e`, naming the path it came from.
fn at(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

fn collect_rs_files(
    path: &Path,
    root: &Path,
    cfg: &Config,
    out: &mut Vec<PathBuf>,
) -> io::Result<()> {
    let rel = rel_path(path, root);
    if cfg.is_excluded(&format!("{rel}/")) {
        return Ok(());
    }
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(path)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with('.') {
                continue;
            }
            collect_rs_files(&entry, root, cfg, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs")
            && !cfg.is_excluded(&rel_path(&entry, root))
        {
            out.push(entry);
        }
    }
    Ok(())
}

/// Workspace-relative, forward-slash path for reporting and scoping.
fn rel_path(p: &Path, root: &Path) -> String {
    let canon = p.canonicalize().unwrap_or_else(|_| p.to_path_buf());
    let rel = canon.strip_prefix(root).unwrap_or(&canon);
    rel.to_string_lossy().replace('\\', "/")
}
