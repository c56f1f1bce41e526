//! Attack throughput gate: runs the full clean-board attack at width 1
//! and at width 64 of the one attack path (`Attack::with_batch`) in
//! one process, and reports the speedup. Width 1 issues one scalar
//! device load per query; width 64 fills the 64-lane gang simulator.
//!
//! ```text
//! attack-throughput [--iterations N]
//! attack-throughput --write BENCH_attack.json
//! attack-throughput --check BENCH_attack.json
//! ```
//!
//! `--write` records the measurement and the speedup floor into a
//! committed baseline; `--check` re-measures and exits non-zero if
//! the speedup falls below the baseline's `min_speedup` — the CI
//! regression gate keeping the gang simulator honest about being
//! fast. The gate statistic is the median *paired* width-1/width-64
//! ratio across interleaved iterations (after a warmup run), so
//! transient machine load — which hits both arms of an iteration
//! about equally — cancels in the quotient instead of inflating
//! either the baseline or the check. Both arms must recover the
//! Test Set 1 key and report identical oracle load counts, so the
//! gate doubles as a cheap equivalence smoke test.

use std::process::ExitCode;
use std::time::Instant;

use bitmod::Attack;
use fpga_sim::GANG_LANES;
use snow3g::vectors::TEST_SET_1_KEY;

/// The floor written into fresh baselines (the acceptance bound).
const MIN_SPEEDUP: f64 = 8.0;

/// One full clean-board attack; returns wall-clock milliseconds and
/// the number of oracle loads it issued.
fn timed_run(batch: usize) -> Result<(f64, usize), String> {
    let board = bench::test_board(false);
    let golden = board.extract_bitstream();
    let start = Instant::now();
    let report = Attack::new(&board, golden)
        .map_err(|e| e.to_string())?
        .with_batch(batch)
        .run()
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    if report.recovered.key != TEST_SET_1_KEY {
        return Err("attack did not recover the Test Set 1 key".into());
    }
    Ok((elapsed, report.oracle_loads))
}

struct Measurement {
    narrow_ms: f64,
    wide_ms: f64,
    loads: usize,
    speedup: f64,
}

fn measure(iterations: u32) -> Result<Measurement, String> {
    // One untimed warmup run pays the cold costs (page cache, lazy
    // allocator pools) that would otherwise bias whichever arm runs
    // first.
    timed_run(1)?;
    let mut narrow_ms = f64::INFINITY;
    let mut wide_ms = f64::INFINITY;
    let mut loads = None;
    let mut ratios = Vec::with_capacity(iterations as usize);
    // The gate statistic is the *median paired* ratio: a transient
    // load spike hits both arms of the same interleaved iteration
    // about equally and cancels in the quotient, while min-of-N over
    // the arms separately can compare a loaded window against a calm
    // one and report a phantom speedup either way; the median then
    // shrugs off the remaining per-pair outliers in both directions.
    for _ in 0..iterations {
        let (narrow, narrow_loads) = timed_run(1)?;
        let (wide, wide_loads) = timed_run(GANG_LANES)?;
        if narrow_loads != wide_loads {
            return Err(format!(
                "load accounting diverged: width 1 {narrow_loads}, width {GANG_LANES} {wide_loads}"
            ));
        }
        loads = Some(narrow_loads);
        narrow_ms = narrow_ms.min(narrow);
        wide_ms = wide_ms.min(wide);
        ratios.push(narrow / wide);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    Ok(Measurement {
        narrow_ms,
        wide_ms,
        loads: loads.unwrap_or(0),
        speedup: ratios[ratios.len() / 2],
    })
}

/// The baseline keeps its historical key names: `serial` is width 1,
/// `batched` is width 64.
fn baseline_json(m: &Measurement, iterations: u32) -> String {
    format!(
        "{{\n  \"bench\": \"attack-throughput\",\n  \
         \"workload\": \"clean-board full attack, width 1 vs width 64\",\n  \
         \"iterations\": {iterations},\n  \
         \"batch_width\": {GANG_LANES},\n  \
         \"min_speedup\": {MIN_SPEEDUP},\n  \
         \"oracle_loads\": {},\n  \
         \"recorded_serial_ms\": {:.2},\n  \
         \"recorded_batched_ms\": {:.2},\n  \
         \"recorded_speedup\": {:.2}\n}}\n",
        m.loads, m.narrow_ms, m.wide_ms, m.speedup
    )
}

/// Pulls `"min_speedup": <float>` out of the baseline file without a
/// JSON dependency.
fn parse_floor(text: &str) -> Option<f64> {
    let rest = text.split("\"min_speedup\"").nth(1)?;
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
                    "unknown option '{other}'; usage: attack-throughput \
                     [--iterations N] [--write PATH | --check PATH]"
                ));
            }
        }
    }

    let m = measure(iterations)?;
    println!(
        "attack throughput: width 1 {:.2} ms, width {GANG_LANES} {:.2} ms, speedup {:.2}x \
         ({} oracle loads in both arms)",
        m.narrow_ms, m.wide_ms, m.speedup, m.loads
    );

    if let Some(path) = write {
        std::fs::write(&path, baseline_json(&m, iterations))
            .map_err(|e| format!("cannot write baseline {path}: {e}"))?;
        println!("baseline written to {path} (floor {MIN_SPEEDUP}x)");
    }
    if let Some(path) = check {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let floor = parse_floor(&text).ok_or(format!("no min_speedup in baseline {path}"))?;
        if m.speedup < floor {
            eprintln!(
                "attack-throughput: {:.2}x is below the {floor}x floor from {path}",
                m.speedup
            );
            return Ok(ExitCode::FAILURE);
        }
        println!("above the {floor}x floor from {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("attack-throughput: {e}");
            ExitCode::FAILURE
        }
    }
}
