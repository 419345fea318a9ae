//! Provenance: what machine and which source a result was measured on.

use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

use crate::workloads::Fnv;

/// `std::thread::available_parallelism`, or 1 when it cannot be read.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` of `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process in MiB (`VmHWM`), when the
/// platform reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit checked out in `root`, read from `.git` without running
/// git; `None` outside a git checkout.
pub fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_owned()))
}

/// FNV-1a over the path and bytes of every file the benchmark binary is
/// built from: the manifests and lock files, and the `src/` trees of the
/// repository's crates and of this package.  Identifies the measured
/// source where no commit is available; documentation and tests do not
/// change it.
pub fn source_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    let mut tops = vec![
        root.join("Cargo.toml"),
        root.join("Cargo.lock"),
        root.join("perfbench/Cargo.toml"),
        root.join("perfbench/Cargo.lock"),
        root.join("perfbench/src"),
    ];
    if let Ok(crates) = fs::read_dir(root.join("crates")) {
        for krate in crates.flatten() {
            tops.push(krate.path().join("Cargo.toml"));
            tops.push(krate.path().join("src"));
        }
    }
    for top in tops {
        collect(&top, &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for file in files {
        if let Ok(bytes) = fs::read(&file) {
            file.strip_prefix(root).unwrap_or(&file).hash(&mut h);
            bytes.hash(&mut h);
        }
    }
    h.finish()
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        collect(&entry.path(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_facts_are_readable() {
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
        if let Some(rss) = peak_rss_mib() {
            assert!(rss > 0.0);
        }
    }

    #[test]
    fn fingerprint_is_stable() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        assert_eq!(source_fingerprint(&root), source_fingerprint(&root));
    }
}
