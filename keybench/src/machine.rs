//! What the result ran on: cores, program version, toolchain, memory.

use std::path::Path;
use std::process::Command;

/// Cores available to the process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Trimmed standard output of a command, when it runs and succeeds.
/// The child is waited for.
fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The git commit of the working directory, when it is the root of a
/// git checkout (a parent directory's repository is not asked).
#[must_use]
pub fn commit() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    output_of("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "none".into())
}

/// The `rustc` that is on the path.
#[must_use]
pub fn rustc() -> String {
    output_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and contents of the program's sources under
/// `crates/` — identifies the program where there is no git commit.
#[must_use]
pub fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{hash:016x} ({} files)", files.len())
}

/// Peak resident set size of this process in MiB: `VmHWM` of its own
/// address space. (`getrusage` would report the larger peak of the
/// process that spawned it: Linux keeps `ru_maxrss` across `exec`.)
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
