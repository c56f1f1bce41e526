//! `noise-sweep` runs every cell as a fleet session keyed by its
//! label, so a rerun on the same `--dir` dedups the finished cells
//! instead of attacking again.

use std::path::{Path, PathBuf};
use std::process::Command;

fn sweep(dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_noise-sweep"))
        .args(["--smoke", "--dir"])
        .arg(dir)
        .output()
        .expect("noise-sweep runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The table row and the totals line: everything a rerun must repeat.
fn results(stdout: &str) -> Vec<&str> {
    stdout.lines().filter(|l| l.contains("1.00%") || l.starts_with("sweep totals:")).collect()
}

fn session_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root)
        .expect("fleet root")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

#[test]
fn a_rerun_dedups_the_finished_cell_and_repeats_its_row() {
    let dir = std::env::temp_dir().join(format!("noise-sweep-rerun-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let first = sweep(&dir);
    assert!(!first.contains("resumed:"), "a fresh root resumes nothing:\n{first}");
    let row = results(&first);
    assert_eq!(row.len(), 2, "one cell row plus the totals:\n{first}");
    assert!(row[0].contains("| yes |"), "the floor cell recovers the key:\n{first}");
    let sessions = session_dirs(&dir);
    assert_eq!(sessions.len(), 1, "one session directory per cell");
    assert!(sessions[0].join("trace.ndjson").is_file(), "the cell's trace lives in its session");

    let second = sweep(&dir);
    assert!(second.contains("resumed: 1 cell(s)"), "the rerun dedups:\n{second}");
    assert_eq!(results(&second), row, "the rerun repeats the row and totals");
    assert_eq!(session_dirs(&dir), sessions, "the rerun adds no session");

    let _ = std::fs::remove_dir_all(&dir);
}
