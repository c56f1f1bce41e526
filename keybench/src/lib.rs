//! `keybench`: the end-to-end key-recovery benchmark.
//!
//! ```text
//! cargo run --release --manifest-path keybench/Cargo.toml -- \
//!     --workload headline|noisy|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric with
//! its unit and sample count, then one JSON line with the metrics
//! `BENCHMARK.json` names. A traced run (`--trace 1`) pairs every
//! session with a traced twin, times each oracle layer from outside,
//! checks the twin reproduced the untraced session exactly, and prints
//! the per-layer metrics. Any wrong key or mismatch exits non-zero.
//! See `keybench/README.md` for the workloads and what they show.

pub mod fleet;
pub mod floor;
pub mod layers;
pub mod local;
pub mod machine;
pub mod record;
pub mod report;
pub mod shim;
pub mod specs;
pub mod stats;

use std::path::{Path, PathBuf};

use floor::StageFloor;
use record::Tally;
use report::Metric;
use specs::Workload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of session time to measure.
    pub seconds: f64,
    /// Run the per-layer traced run instead of the untraced one.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
///
/// # Errors
///
/// A message naming the bad or missing argument.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10.0_f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload '{value}' (headline, noisy or fleet)")
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Set-up segments of a local run: one every two seconds or so, so
/// set-up samples spread over the run while each segment holds several
/// sessions.
#[must_use]
pub fn segments(seconds: f64) -> usize {
    ((seconds / 2.0).round() as usize).clamp(2, 30)
}

/// Where runs keep their working files (fleet roots, the socket):
/// under the cargo target directory, relative to the working directory
/// when possible so the socket path stays short.
#[must_use]
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("keybench/target"), PathBuf::from);
    let dir = target.join("keybench-work");
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir),
        Err(_) => dir,
    }
}

/// What a run measured, whichever workload ran it.
struct Measured {
    tally: Tally,
    floor: StageFloor,
    measured_s: f64,
    setup_s: Vec<f64>,
    layers: layers::LayerValues,
    traced_sessions: usize,
    mismatches: Vec<String>,
}

fn measure(args: &Args) -> Result<Measured, String> {
    if args.workload == Workload::Fleet {
        let work = work_dir();
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let run = fleet::run(args.seed, args.seconds, machine::nproc(), args.trace, &work)?;
        return Ok(Measured {
            layers: run.layer_values(),
            traced_sessions: run.traced.len(),
            tally: run.tally,
            floor: run.floor,
            measured_s: run.measured_s,
            setup_s: run.setup_s,
            mismatches: run.mismatches,
        });
    }
    let run =
        local::run(args.workload, args.seed, args.seconds, segments(args.seconds), args.trace)?;
    Ok(Measured {
        layers: run.layer_values(),
        traced_sessions: run.traced.len(),
        tally: run.tally,
        floor: run.floor,
        measured_s: run.measured_s,
        setup_s: run.setup_s,
        mismatches: run.mismatches,
    })
}

/// Runs the benchmark and returns its standard output and whether the
/// run was correct.
///
/// # Errors
///
/// A set-up failure, or a JSON metric that could not be measured.
pub fn run(args: &Args) -> Result<(String, bool), String> {
    let m = measure(args)?;
    let rss = machine::peak_rss_mb().unwrap_or(0.0);
    let e2e = report::end_to_end(&m.tally, &m.floor, m.measured_s, &m.setup_s, rss);
    let correct = m.tally.wrong_keys == 0 && m.mismatches.is_empty();

    let mut out = format!(
        "# keybench workload={} seed={} seconds={} trace={}\n\
         # machine nproc={} commit={} source={} rustc={}\n\
         # samples sessions={} keys={} failed={} traced={} setups={} measured_s={:.3}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine::nproc(),
        machine::commit(),
        machine::source_fingerprint(Path::new(".")),
        machine::rustc(),
        m.tally.attempted,
        m.tally.recovered,
        m.tally.failed(),
        m.traced_sessions,
        m.setup_s.len(),
        m.measured_s,
    );
    for note in &m.tally.notes {
        out.push_str(&format!("# failure {note}\n"));
    }
    for mismatch in &m.mismatches {
        out.push_str(&format!("# MISMATCH {mismatch}\n"));
    }
    if m.tally.wrong_keys > 0 {
        out.push_str(&format!("# WRONG KEY in {} sessions\n", m.tally.wrong_keys));
    }
    out.push_str(&report::table(&e2e));
    let line = if args.trace {
        let layer_metrics: Vec<Metric> = report::per_layer(&m.layers, m.traced_sessions);
        out.push_str(&report::table(&layer_metrics));
        report::json(
            correct,
            m.tally.attempted,
            m.tally.failed(),
            &layer_metrics,
            &layers::PER_LAYER,
        )
    } else {
        report::json(correct, m.tally.attempted, m.tally.failed(), &e2e, &report::END_TO_END)
    }
    .map_err(|name| format!("metric {name} was not measured ({} keys)", m.tally.recovered))?;
    out.push_str(&line);
    out.push('\n');
    Ok((out, correct))
}
