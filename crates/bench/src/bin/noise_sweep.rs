//! Noise sweep: the full key-recovery attack across a grid of fault
//! rates, with fixed seeds — the robustness experiment behind the
//! EXPERIMENTS.md table.
//!
//! ```text
//! noise-sweep [--smoke] [--seed N] [--votes N] [--dir DIR] [--encrypted]
//! ```
//!
//! Each cell wraps the victim in an unreliable board at a (per-bit
//! keystream glitch, transient load failure) rate pair, runs the
//! attack through the resilience layer, and reports whether the
//! Test Set 1 key was recovered plus the physical query cost.
//! `--smoke` runs a single noisy cell (for CI). With `--encrypted`
//! every cell runs over the Fig. 1 secure container: candidate loads
//! go through the seekable CBC patch oracle and the device-side
//! verifier before the noisy board sees them — the recovered keys and
//! query traces must match the plaintext sweep cell for cell.
//!
//! The grid is built by the validating [`SweepGrid`] builder and every
//! cell is one session on a [`Fleet`] rooted at `--dir` (a temporary
//! root, removed on exit, without it). Each cell's label is its submit
//! token, so rerunning on the same root dedups finished cells and
//! resumes interrupted ones mid-attack from their journals; each
//! session directory holds the cell's journal and NDJSON trace. A
//! panicking cell becomes a failed row, not a dead sweep.

use std::path::PathBuf;
use std::process::ExitCode;

use bitmod::fleet::wire::{number_field, string_field};
use bitmod::fleet::{Fleet, FleetConfig, SessionState, SweepGrid};

/// Board faults injected over one session, from the `board` events of
/// its NDJSON trace.
fn faults_injected(trace: &std::path::Path) -> u64 {
    let text = std::fs::read_to_string(trace).unwrap_or_default();
    text.lines()
        .filter(|line| string_field(line, "ev").as_deref() == Some("board"))
        .filter_map(|line| number_field(line, "injected"))
        .sum()
}

fn run(grid: &SweepGrid, root: PathBuf) -> Result<bool, String> {
    let fleet = Fleet::start(FleetConfig::new(root)).map_err(|e| e.to_string())?;
    let mut handles = Vec::with_capacity(grid.len());
    let mut resumed = 0;
    for cell in grid.cells() {
        let (handle, deduped) = fleet
            .submit_with_token(cell.spec.clone(), Some(&cell.label))
            .map_err(|e| e.to_string())?;
        resumed += usize::from(deduped);
        handles.push(handle);
    }
    if resumed > 0 {
        println!("resumed: {resumed} cell(s) from {}", fleet.root().display());
    }
    println!("glitch/bit | load-fail | key | physical | logical | retries | backoff(vms)");
    // Cells outside the envelope failing is a *finding*, not a
    // harness error; only the acceptance-floor cell (1% glitch, 10%
    // load failure) gates the exit code.
    let mut floor_ok = true;
    let (mut physical, mut logical, mut retries) = (0, 0, 0);
    for (cell, handle) in grid.cells().iter().zip(&handles) {
        let status = handle.wait();
        let recovered = status.state == SessionState::Recovered;
        if (cell.glitch, cell.load_fail) == (0.01, 0.10) {
            floor_ok = recovered;
        }
        let stats = &status.stats;
        println!(
            "{:>9.2}% | {:>8.1}% | {} | {:>8} | {:>7} | {:>7} | {:>12}{}{}",
            cell.glitch * 100.0,
            cell.load_fail * 100.0,
            if recovered { "yes" } else { "NO " },
            stats.physical,
            stats.logical,
            stats.retries,
            stats.backoff_ms,
            if status.note.is_empty() { "" } else { "  # " },
            status.note
        );
        physical += stats.physical;
        logical += stats.logical;
        retries += stats.retries;
    }
    // Joining the workers drops every session's recorder, which
    // flushes its trace.
    let _ = fleet.shutdown();
    let injected: u64 = handles.iter().map(|h| faults_injected(&h.layout().trace())).sum();
    println!(
        "sweep totals: {physical} physical loads, {logical} logical queries, {retries} retries, \
         {injected} board faults injected"
    );
    Ok(floor_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let encrypted = args.iter().any(|a| a == "--encrypted");
    let mut seed = 7u64;
    let mut votes = 5u32;
    let mut dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().map(|v| v.parse()) {
                Some(Ok(v)) => seed = v,
                _ => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--votes" => match it.next().map(|v| v.parse()) {
                Some(Ok(v)) => votes = v,
                _ => {
                    eprintln!("--votes needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--dir" => match it.next() {
                Some(path) => dir = Some(path.into()),
                None => {
                    eprintln!("--dir needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--smoke" | "--encrypted" => {}
            other => {
                eprintln!(
                    "unknown option '{other}'; usage: \
                     noise-sweep [--smoke] [--seed N] [--votes N] [--dir DIR] [--encrypted]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let mut builder = SweepGrid::builder().seed(seed).votes(votes).encrypted(encrypted);
    if smoke {
        // One genuinely noisy cell at the acceptance floor.
        builder = builder.smoke();
    }
    let grid = match builder.build() {
        Ok(grid) => grid,
        Err(e) => {
            eprintln!("noise-sweep: invalid sweep grid: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "noise sweep: seed {seed}, {votes} votes, {} cell(s){}",
        grid.len(),
        if encrypted { ", encrypted container" } else { "" }
    );
    let result = match dir {
        Some(root) => run(&grid, root),
        // Without `--dir` the fleet root is scratch: a stale root from
        // a recycled pid must not dedup this run's cells.
        None => {
            let root = std::env::temp_dir().join(format!("noise-sweep-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let result = run(&grid, root.clone());
            let _ = std::fs::remove_dir_all(&root);
            result
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("noise-sweep: the acceptance-floor cell (1% glitch, 10% load-fail) failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("noise-sweep: {e}");
            ExitCode::FAILURE
        }
    }
}
