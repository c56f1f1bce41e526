//! Adaptive-resilience overhead gate: runs the full clean-board
//! attack with the policy controller off and on in one process, and
//! reports the relative cost.
//!
//! ```text
//! resilience-overhead [--iterations N]
//! resilience-overhead --write BENCH_resilience.json
//! resilience-overhead --check BENCH_resilience.json
//! ```
//!
//! The adaptive controller promises to be free when nothing is wrong:
//! on a clean board the EWMA never crosses the escalation threshold,
//! so the effective vote count and retry policy stay at the
//! configured floor and the only cost is the controller's own
//! bookkeeping (one fault sample and EWMA update per query, plus the
//! loss of the pass-through fast path). `--write` records the
//! measurement and the overhead ceiling into a committed baseline;
//! `--check` re-measures and exits non-zero when the overhead exceeds
//! the baseline's `max_overhead_pct` — the CI gate keeping the
//! adaptive layer honest about that promise. The gate statistic is
//! the median *paired* on/off ratio across interleaved iterations
//! (after a warmup run), so transient machine load — which hits both
//! arms of an iteration about equally — cancels in the quotient.

use std::process::ExitCode;
use std::time::Instant;

use bitmod::resilient::ResilienceConfig;
use bitmod::{Attack, Telemetry};
use snow3g::vectors::TEST_SET_1_KEY;

/// The ceiling written into fresh baselines (the acceptance bound
/// from the adaptive-resilience design: < 5% on clean runs).
const MAX_OVERHEAD_PCT: f64 = 5.0;

/// One full clean-board attack; returns the wall-clock milliseconds.
fn timed_run(adaptive: bool) -> Result<f64, String> {
    let board = bench::test_board(false);
    let golden = board.extract_bitstream();
    let config =
        if adaptive { ResilienceConfig::off().with_adaptive() } else { ResilienceConfig::off() };
    let start = Instant::now();
    let report =
        Attack::instrumented(&board, golden, bitstream::FRAME_BYTES, config, Telemetry::off())
            .and_then(Attack::run)
            .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    if report.recovered.key != TEST_SET_1_KEY {
        return Err("attack did not recover the Test Set 1 key".into());
    }
    Ok(elapsed)
}

struct Measurement {
    fixed_ms: f64,
    adaptive_ms: f64,
    overhead_pct: f64,
}

fn measure(iterations: u32) -> Result<Measurement, String> {
    // One untimed warmup run pays the cold costs that would otherwise
    // bias whichever arm runs first.
    timed_run(false)?;
    let mut fixed_ms = f64::INFINITY;
    let mut adaptive_ms = f64::INFINITY;
    let mut ratios = Vec::with_capacity(iterations as usize);
    for _ in 0..iterations {
        let fixed = timed_run(false)?;
        let adaptive = timed_run(true)?;
        fixed_ms = fixed_ms.min(fixed);
        adaptive_ms = adaptive_ms.min(adaptive);
        ratios.push(adaptive / fixed);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    Ok(Measurement { fixed_ms, adaptive_ms, overhead_pct })
}

fn baseline_json(m: &Measurement, iterations: u32) -> String {
    format!(
        "{{\n  \"bench\": \"resilience-overhead\",\n  \
         \"workload\": \"clean-board full attack, adaptive policy on vs off\",\n  \
         \"iterations\": {iterations},\n  \
         \"max_overhead_pct\": {MAX_OVERHEAD_PCT},\n  \
         \"recorded_fixed_ms\": {:.2},\n  \
         \"recorded_adaptive_ms\": {:.2},\n  \
         \"recorded_overhead_pct\": {:.2}\n}}\n",
        m.fixed_ms, m.adaptive_ms, m.overhead_pct
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
                    "unknown option '{other}'; usage: resilience-overhead \
                     [--iterations N] [--write PATH | --check PATH]"
                ));
            }
        }
    }

    let m = measure(iterations)?;
    println!(
        "adaptive-resilience overhead: fixed {:.2} ms, adaptive {:.2} ms, overhead {:+.2}%",
        m.fixed_ms, m.adaptive_ms, m.overhead_pct
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
                "resilience-overhead: {:.2}% exceeds the {ceiling}% ceiling from {path}",
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
            eprintln!("resilience-overhead: {e}");
            ExitCode::FAILURE
        }
    }
}
