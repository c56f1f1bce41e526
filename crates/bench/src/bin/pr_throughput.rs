//! Partial-reconfiguration throughput gate: runs the full clean-board
//! attack with full-bitstream loads and with frame-delta partial
//! loads in one process, and reports the configuration-traffic
//! reduction and the wall-clock speedup.
//!
//! ```text
//! pr-throughput [--iterations N]
//! pr-throughput --write BENCH_pr.json
//! pr-throughput --check BENCH_pr.json
//! ```
//!
//! `--write` records the measurement and both floors into a committed
//! baseline; `--check` re-measures and exits non-zero if either the
//! bytes-shipped reduction falls below `min_bytes_ratio` or the
//! wall-clock speedup falls below `min_speedup` — the CI regression
//! gate keeping delta loading honest about being the fast path. The
//! bytes ratio is deterministic (same candidate schedule every run);
//! the wall-clock statistic is the median *paired* full/partial ratio
//! across interleaved iterations (after a warmup run), so transient
//! machine load — which hits both arms of an iteration about equally
//! — cancels in the quotient. Both arms must recover the Test Set 1
//! key and report identical oracle load counts, so the gate doubles
//! as a cheap equivalence smoke test.

use std::process::ExitCode;
use std::time::Instant;

use bitmod::fleet::CancelToken;
use bitmod::fleet::{ResumePolicy, SessionIo, SessionSpec};
use bitmod::telemetry::names;
use bitmod::Telemetry;
use snow3g::vectors::TEST_SET_1_KEY;

/// The traffic-reduction floor written into fresh baselines: partial
/// loads must ship less than a tenth of the full-load byte volume
/// (the measured reduction is well over 100×, so 10× is a regression
/// gate, not a target).
const MIN_BYTES_RATIO: f64 = 10.0;

/// The wall-clock floor written into fresh baselines: the delta path
/// must not be materially slower than full loading. The measured
/// speedup sits just above parity (the simulated device applies
/// fewer frames per delta, but forging costs a diff per candidate),
/// so the floor is set below 1.0 to gate against the forge overhead
/// ever eating the win without flaking on scheduler noise.
const MIN_SPEEDUP: f64 = 0.85;

/// One full clean-board attack; returns wall-clock milliseconds, the
/// number of oracle loads, and the configuration bytes shipped.
fn timed_run(partial: bool) -> Result<(f64, usize, u64), String> {
    let board = bench::test_board(false);
    let golden = board.extract_bitstream();
    let golden_len = golden.len() as u64;
    let telemetry = Telemetry::new();
    let io = SessionIo {
        journal: None,
        resume: ResumePolicy::Never,
        telemetry: telemetry.clone(),
        cancel: CancelToken::new(),
        expected_key: Some(TEST_SET_1_KEY),
    };
    let spec = SessionSpec::builder().partial(partial).build().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let report = spec.run_harnessed(&board, golden, &io).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    let attack = report.attack.ok_or("session produced no attack report")?;
    if attack.recovered.key != TEST_SET_1_KEY {
        return Err("attack did not recover the Test Set 1 key".into());
    }
    let bytes = if partial {
        report.metrics.counter(names::PR_BYTES_SHIPPED)
    } else {
        attack.oracle_loads as u64 * golden_len
    };
    Ok((elapsed, attack.oracle_loads, bytes))
}

struct Measurement {
    full_ms: f64,
    partial_ms: f64,
    loads: usize,
    full_bytes: u64,
    partial_bytes: u64,
    bytes_ratio: f64,
    speedup: f64,
}

fn measure(iterations: u32) -> Result<Measurement, String> {
    // One untimed warmup run pays the cold costs (page cache, lazy
    // allocator pools) that would otherwise bias whichever arm runs
    // first.
    timed_run(false)?;
    let mut full_ms = f64::INFINITY;
    let mut partial_ms = f64::INFINITY;
    let mut loads = None;
    let mut full_bytes = 0;
    let mut partial_bytes = 0;
    let mut ratios = Vec::with_capacity(iterations as usize);
    // Median paired ratio, same rationale as attack-throughput: a
    // transient load spike hits both arms of one interleaved
    // iteration about equally and cancels in the quotient.
    for _ in 0..iterations {
        let (full, full_loads, fb) = timed_run(false)?;
        let (part, partial_loads, pb) = timed_run(true)?;
        if full_loads != partial_loads {
            return Err(format!(
                "load accounting diverged: full {full_loads}, partial {partial_loads}"
            ));
        }
        loads = Some(full_loads);
        full_bytes = fb;
        partial_bytes = pb;
        full_ms = full_ms.min(full);
        partial_ms = partial_ms.min(part);
        ratios.push(full / part);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    if partial_bytes == 0 {
        return Err("partial arm shipped zero bytes — telemetry is broken".into());
    }
    Ok(Measurement {
        full_ms,
        partial_ms,
        loads: loads.unwrap_or(0),
        full_bytes,
        partial_bytes,
        bytes_ratio: full_bytes as f64 / partial_bytes as f64,
        speedup: ratios[ratios.len() / 2],
    })
}

fn baseline_json(m: &Measurement, iterations: u32) -> String {
    format!(
        "{{\n  \"bench\": \"pr-throughput\",\n  \
         \"workload\": \"clean-board full attack, full loads vs frame-delta partial loads\",\n  \
         \"iterations\": {iterations},\n  \
         \"min_bytes_ratio\": {MIN_BYTES_RATIO},\n  \
         \"min_speedup\": {MIN_SPEEDUP},\n  \
         \"oracle_loads\": {},\n  \
         \"full_bytes_shipped\": {},\n  \
         \"partial_bytes_shipped\": {},\n  \
         \"recorded_bytes_ratio\": {:.2},\n  \
         \"recorded_full_ms\": {:.2},\n  \
         \"recorded_partial_ms\": {:.2},\n  \
         \"recorded_speedup\": {:.2}\n}}\n",
        m.loads, m.full_bytes, m.partial_bytes, m.bytes_ratio, m.full_ms, m.partial_ms, m.speedup
    )
}

/// Pulls `"<key>": <float>` out of the baseline file without a JSON
/// dependency.
fn parse_floor(text: &str, key: &str) -> Option<f64> {
    let rest = text.split(&format!("\"{key}\"")).nth(1)?;
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
                    "unknown option '{other}'; usage: pr-throughput \
                     [--iterations N] [--write PATH | --check PATH]"
                ));
            }
        }
    }

    let m = measure(iterations)?;
    println!(
        "pr throughput: full {:.2} ms / {} bytes, partial {:.2} ms / {} bytes — \
         {:.1}x less traffic, {:.2}x wall-clock ({} oracle loads in both arms)",
        m.full_ms, m.full_bytes, m.partial_ms, m.partial_bytes, m.bytes_ratio, m.speedup, m.loads
    );

    if let Some(path) = write {
        std::fs::write(&path, baseline_json(&m, iterations))
            .map_err(|e| format!("cannot write baseline {path}: {e}"))?;
        println!("baseline written to {path} (floors {MIN_BYTES_RATIO}x bytes, {MIN_SPEEDUP}x wall-clock)");
    }
    if let Some(path) = check {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let bytes_floor =
            parse_floor(&text, "min_bytes_ratio").ok_or(format!("no min_bytes_ratio in {path}"))?;
        let speed_floor =
            parse_floor(&text, "min_speedup").ok_or(format!("no min_speedup in {path}"))?;
        if m.bytes_ratio < bytes_floor {
            eprintln!(
                "pr-throughput: {:.2}x traffic reduction is below the {bytes_floor}x floor \
                 from {path}",
                m.bytes_ratio
            );
            return Ok(ExitCode::FAILURE);
        }
        if m.speedup < speed_floor {
            eprintln!(
                "pr-throughput: {:.2}x wall-clock is below the {speed_floor}x floor from {path}",
                m.speedup
            );
            return Ok(ExitCode::FAILURE);
        }
        println!("above the {bytes_floor}x bytes and {speed_floor}x wall-clock floors from {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pr-throughput: {e}");
            ExitCode::FAILURE
        }
    }
}
