//! Telemetry overhead gate: runs the full clean-board attack with the
//! recorder off and on (NDJSON streaming to a temp file — the real
//! deployment shape) in one process, and reports the relative cost.
//!
//! ```text
//! telemetry-overhead [--iterations N]
//! telemetry-overhead --write BENCH_telemetry.json
//! telemetry-overhead --check BENCH_telemetry.json
//! ```
//!
//! `--write` records the measurement and the overhead ceiling into a
//! committed baseline; `--check` re-measures and exits non-zero if
//! the overhead exceeds the baseline's `max_overhead_pct` — the CI
//! regression gate keeping the recorder honest about being cheap.
//! The gate statistic is the median *paired* on/off ratio across
//! interleaved iterations (after a warmup run), so transient machine
//! load — which hits both arms of an iteration about equally —
//! cancels in the quotient instead of inflating either the baseline
//! or the check.

use std::process::ExitCode;
use std::time::Instant;

use bitmod::resilient::ResilienceConfig;
use bitmod::{Attack, Telemetry};
use snow3g::vectors::TEST_SET_1_KEY;

/// The ceiling written into fresh baselines (the acceptance bound).
const MAX_OVERHEAD_PCT: f64 = 5.0;

/// One full clean-board attack; returns the wall-clock milliseconds.
///
/// With `traced`, the recorder streams NDJSON to a scratch file and
/// is torn down inside the timed region — the fair end-to-end cost.
fn timed_run(traced: bool, scratch: &std::path::Path) -> Result<f64, String> {
    let board = bench::test_board(false);
    let golden = board.extract_bitstream();
    let start = Instant::now();
    let telemetry = if traced {
        Telemetry::to_path(scratch).map_err(|e| e.to_string())?
    } else {
        Telemetry::off()
    };
    let report = Attack::instrumented(
        &board,
        golden,
        bitstream::FRAME_BYTES,
        ResilienceConfig::off(),
        telemetry.clone(),
    )
    .and_then(Attack::run)
    .map_err(|e| e.to_string())?;
    if traced {
        telemetry.finish().map_err(|e| e.to_string())?;
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    if report.recovered.key != TEST_SET_1_KEY {
        return Err("attack did not recover the Test Set 1 key".into());
    }
    Ok(elapsed)
}

struct Measurement {
    off_ms: f64,
    on_ms: f64,
    overhead_pct: f64,
}

fn measure(iterations: u32) -> Result<Measurement, String> {
    let scratch = std::env::temp_dir()
        .join(format!("bitmod-telemetry-overhead-{}.ndjson", std::process::id()));
    // One untimed warmup run pays the cold costs (page cache, lazy
    // allocator pools) that would otherwise bias whichever arm runs
    // first.
    timed_run(false, &scratch)?;
    let mut off_ms = f64::INFINITY;
    let mut on_ms = f64::INFINITY;
    let mut ratios = Vec::with_capacity(iterations as usize);
    // The gate statistic is the *median paired* ratio: a transient
    // load spike hits both arms of the same interleaved iteration
    // about equally and cancels in the quotient, while min-of-N over
    // the arms separately can compare a loaded window against a calm
    // one and report phantom overhead either way; the median then
    // shrugs off the remaining per-pair outliers in both directions.
    for _ in 0..iterations {
        let off = timed_run(false, &scratch)?;
        let on = timed_run(true, &scratch)?;
        off_ms = off_ms.min(off);
        on_ms = on_ms.min(on);
        ratios.push(on / off);
    }
    let _ = std::fs::remove_file(&scratch);
    ratios.sort_by(|a, b| a.total_cmp(b));
    let overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    Ok(Measurement { off_ms, on_ms, overhead_pct })
}

fn baseline_json(m: &Measurement, iterations: u32) -> String {
    format!(
        "{{\n  \"bench\": \"telemetry-overhead\",\n  \
         \"workload\": \"clean-board full attack, NDJSON trace to a file\",\n  \
         \"iterations\": {iterations},\n  \
         \"max_overhead_pct\": {MAX_OVERHEAD_PCT},\n  \
         \"recorded_off_ms\": {:.2},\n  \
         \"recorded_on_ms\": {:.2},\n  \
         \"recorded_overhead_pct\": {:.2}\n}}\n",
        m.off_ms, m.on_ms, m.overhead_pct
    )
}

/// Pulls `"max_overhead_pct": <float>` out of the baseline file
/// without a JSON dependency.
fn parse_ceiling(text: &str) -> Option<f64> {
    let rest = text.split("\"max_overhead_pct\"").nth(1)?;
    let rest = rest.trim_start().strip_prefix(':')?;
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iterations = 5u32;
    let mut write: Option<String> = None;
    let mut check: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--iterations" => {
                iterations = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--iterations needs an integer")?;
            }
            "--write" => write = Some(it.next().ok_or("--write needs a path")?.clone()),
            "--check" => check = Some(it.next().ok_or("--check needs a path")?.clone()),
            other => {
                return Err(format!(
                    "unknown option '{other}'; usage: telemetry-overhead \
                     [--iterations N] [--write PATH | --check PATH]"
                ));
            }
        }
    }

    let m = measure(iterations)?;
    println!(
        "telemetry overhead: off {:.2} ms, on {:.2} ms, overhead {:+.2}%",
        m.off_ms, m.on_ms, m.overhead_pct
    );

    if let Some(path) = write {
        std::fs::write(&path, baseline_json(&m, iterations))
            .map_err(|e| format!("cannot write baseline {path}: {e}"))?;
        println!("baseline written to {path} (ceiling {MAX_OVERHEAD_PCT}%)");
    }
    if let Some(path) = check {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let ceiling =
            parse_ceiling(&text).ok_or(format!("no max_overhead_pct in baseline {path}"))?;
        if m.overhead_pct > ceiling {
            eprintln!(
                "telemetry-overhead: {:.2}% exceeds the {ceiling}% ceiling from {path}",
                m.overhead_pct
            );
            return Ok(ExitCode::FAILURE);
        }
        println!("within the {ceiling}% ceiling from {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("telemetry-overhead: {e}");
            ExitCode::FAILURE
        }
    }
}
