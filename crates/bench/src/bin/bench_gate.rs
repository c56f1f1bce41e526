//! The CI timing gates: each gate runs one clean-board workload two
//! ways in one process — a *base* arm and a *candidate* arm — and
//! bounds the median paired ratio of their wall-clock times.
//!
//! | gate         | base arm   | candidate arm    | bound                      |
//! |--------------|------------|------------------|----------------------------|
//! | `attack`     | width 1    | width 64         | speedup ≥ 8×               |
//! | `encrypted`  | plaintext  | Fig. 1 container | cost ≤ 1.5×                |
//! | `partial`    | full loads | frame deltas     | speedup ≥ 0.85×            |
//! | `resilience` | fixed      | adaptive policy  | overhead ≤ 5%              |
//! | `telemetry`  | untraced   | NDJSON trace     | overhead ≤ 5%              |
//! | `campaign`   | 1 worker   | 4 workers        | speedup ≥ 3×, core-clamped |
//!
//! ```text
//! bench-gate [GATE...]                      measure and check (default: every gate)
//! bench-gate --write BENCH.json [GATE...]   ... and record arms, ratios, nproc, commit
//! ```
//!
//! The statistic is the median *paired* ratio: after one untimed
//! warm-up run, the two arms run back to back in each of N pairs, so
//! a transient load spike hits both arms of a pair about equally and
//! cancels in the quotient; the median then shrugs off the remaining
//! per-pair outliers in both directions. The first arm alternates
//! from pair to pair, so whatever the first run of a pair pays (or
//! saves) is split evenly between the arms. Every arm must recover the
//! Test Set 1 key, and both arms of a pair must report the same oracle
//! loads, so each gate doubles as an equivalence smoke test. Bounds
//! live only in [`GATES`]; the check reads no file.

use std::num::NonZeroUsize;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use bitmod::fleet::{Fleet, FleetConfig, SessionIo, SessionSpec, SessionState};
use bitmod::resilient::ResilienceConfig;
use bitmod::{Attack, AttackReport, SessionOutcome, Telemetry};
use bitstream::Bitstream;
use fpga_sim::{Snow3gBoard, GANG_LANES};
use snow3g::vectors::TEST_SET_1_KEY;

/// One timed arm run: wall-clock milliseconds, and the oracle loads
/// the two arms of a pair must agree on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Run {
    ms: f64,
    loads: u64,
}

type Arm = fn() -> Result<Run, String>;

/// What a gate bounds, as a function of the median paired ratio
/// `r = candidate ms / base ms`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Bound {
    /// The speedup `1 / r` is at least this.
    Speedup(f64),
    /// The cost `r` is at most this.
    Cost(f64),
    /// The overhead `(r − 1) × 100` percent is at most this.
    OverheadPct(f64),
    /// The speedup is at least `speedup`, the bound for `workers`
    /// workers on at least as many cores. With fewer cores even a
    /// perfect scheduler cannot scale past the core count, so the
    /// floor in force is `0.75 × min(workers, nproc)` when that is
    /// lower — at 1 core, "do not lose throughput to the scheduler".
    Scaling { speedup: f64, workers: usize },
}

impl Bound {
    /// The gate statistic for the median paired ratio `r`.
    fn statistic(self, r: f64) -> f64 {
        match self {
            Self::Speedup(_) | Self::Scaling { .. } => 1.0 / r,
            Self::Cost(_) => r,
            Self::OverheadPct(_) => (r - 1.0) * 100.0,
        }
    }

    /// The limit in force on a host with `nproc` cores.
    fn limit(self, nproc: usize) -> f64 {
        match self {
            Self::Speedup(limit) | Self::Cost(limit) | Self::OverheadPct(limit) => limit,
            Self::Scaling { speedup, workers } => speedup.min(0.75 * workers.min(nproc) as f64),
        }
    }

    fn passes(self, statistic: f64, nproc: usize) -> bool {
        match self {
            Self::Speedup(_) | Self::Scaling { .. } => statistic >= self.limit(nproc),
            Self::Cost(_) | Self::OverheadPct(_) => statistic <= self.limit(nproc),
        }
    }

    /// `"speedup 10.02x >= 8x"`-style text for a statistic.
    fn describe(self, statistic: f64, nproc: usize) -> String {
        let limit = self.limit(nproc);
        match self {
            Self::Speedup(_) => format!("speedup {statistic:.2}x >= {limit}x"),
            Self::Scaling { speedup, workers } => format!(
                "speedup {statistic:.2}x >= {limit:.2}x ({speedup}x at >= {workers} cores, \
                 {nproc} available)"
            ),
            Self::Cost(_) => format!("cost {statistic:.2}x <= {limit}x"),
            Self::OverheadPct(_) => format!("overhead {statistic:+.2}% <= {limit}%"),
        }
    }
}

/// One gate: a workload run as a base arm and a candidate arm.
struct Gate {
    name: &'static str,
    /// Base and candidate arm labels.
    labels: [&'static str; 2],
    /// Base and candidate arms.
    arms: [Arm; 2],
    pairs: NonZeroUsize,
    bound: Bound,
}

const FIVE: NonZeroUsize = NonZeroUsize::new(5).expect("non-zero");

/// Pairs for the resilience gate: its two arms differ by ~0% against a
/// 5% ceiling, so a loaded host's per-pair spread needs more pairs; an
/// odd count makes the median one paired ratio.
const ELEVEN: NonZeroUsize = NonZeroUsize::new(11).expect("non-zero");

/// Sessions per campaign arm.
const CAMPAIGN_SESSIONS: usize = 256;

/// Workers in the campaign's candidate arm.
const CAMPAIGN_WORKERS: usize = 4;

/// Per-arm completion deadline for a campaign.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(600);

/// Every gate, in run order. The bounds are the acceptance bounds of
/// the fast paths they keep honest: the 64-lane gang simulator, the
/// seekable patch oracle, frame-delta loading, the adaptive policy
/// controller, the trace recorder and the work-stealing fleet.
const GATES: [Gate; 6] = [
    Gate {
        name: "attack",
        labels: ["width 1", "width 64"],
        arms: [|| batched(1), || batched(GANG_LANES)],
        pairs: FIVE,
        bound: Bound::Speedup(8.0),
    },
    Gate {
        name: "encrypted",
        labels: ["plaintext", "encrypted"],
        arms: [|| sealed(false), || sealed(true)],
        pairs: FIVE,
        bound: Bound::Cost(1.5),
    },
    Gate {
        name: "partial",
        labels: ["full loads", "partial loads"],
        arms: [|| partial(false), || partial(true)],
        pairs: FIVE,
        bound: Bound::Speedup(0.85),
    },
    Gate {
        name: "resilience",
        labels: ["fixed", "adaptive"],
        arms: [|| adaptive(false), || adaptive(true)],
        pairs: ELEVEN,
        bound: Bound::OverheadPct(5.0),
    },
    Gate {
        name: "telemetry",
        labels: ["untraced", "traced"],
        arms: [|| traced(false), || traced(true)],
        pairs: FIVE,
        bound: Bound::OverheadPct(5.0),
    },
    Gate {
        name: "campaign",
        labels: ["1 worker", "4 workers"],
        arms: [|| campaign(1), || campaign(CAMPAIGN_WORKERS)],
        pairs: NonZeroUsize::MIN,
        bound: Bound::Scaling { speedup: 3.0, workers: CAMPAIGN_WORKERS },
    },
];

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Stops the clock started at `start` and checks the recovered key.
fn checked(start: Instant, report: &AttackReport) -> Result<Run, String> {
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if report.recovered.key != TEST_SET_1_KEY {
        return Err("attack did not recover the Test Set 1 key".into());
    }
    Ok(Run { ms, loads: report.oracle_loads as u64 })
}

/// Times one clean-board attack; the board and its golden bitstream
/// are built before the clock starts.
fn timed_attack(
    attack: impl FnOnce(&Snow3gBoard, Bitstream) -> Result<AttackReport, String>,
) -> Result<Run, String> {
    let board = bench::test_board(false);
    let golden = board.extract_bitstream();
    let start = Instant::now();
    let report = attack(&board, golden)?;
    checked(start, &report)
}

fn batched(width: usize) -> Result<Run, String> {
    timed_attack(|board, golden| {
        Attack::new(board, golden).map_err(err)?.with_batch(width).run().map_err(err)
    })
}

/// The whole session through the facade, board build included, so the
/// container tax is measured against everything a user waits for.
fn sealed(encrypted: bool) -> Result<Run, String> {
    let spec = SessionSpec::builder().encrypted(encrypted).build().map_err(err)?;
    let start = Instant::now();
    let report = spec.run_local().map_err(err)?;
    match (&report.outcome, &report.attack) {
        (SessionOutcome::Recovered(_), Some(attack)) => checked(start, attack),
        (other, _) => Err(format!("attack did not recover the key: {other:?}")),
    }
}

fn partial(partial: bool) -> Result<Run, String> {
    let spec = SessionSpec::builder().partial(partial).build().map_err(err)?;
    let io = SessionIo { expected_key: Some(TEST_SET_1_KEY), ..SessionIo::default() };
    timed_attack(|board, golden| {
        let report = spec.run_harnessed(board, golden, &io).map_err(err)?;
        report.attack.ok_or_else(|| "session produced no attack report".into())
    })
}

fn instrumented(
    board: &Snow3gBoard,
    golden: Bitstream,
    config: ResilienceConfig,
    telemetry: Telemetry,
) -> Result<AttackReport, String> {
    Attack::instrumented(board, golden, bitstream::FRAME_BYTES, config, telemetry)
        .and_then(Attack::run)
        .map_err(err)
}

fn adaptive(adaptive: bool) -> Result<Run, String> {
    let config =
        if adaptive { ResilienceConfig::off().with_adaptive() } else { ResilienceConfig::off() };
    timed_attack(|board, golden| instrumented(board, golden, config, Telemetry::off()))
}

/// With `traced`, the recorder streams NDJSON to a scratch file — the
/// real deployment shape — and is opened and torn down inside the
/// timed region, the fair end-to-end cost.
fn traced(traced: bool) -> Result<Run, String> {
    let scratch =
        std::env::temp_dir().join(format!("bench-gate-trace-{}.ndjson", std::process::id()));
    let run = timed_attack(|board, golden| {
        if !traced {
            return instrumented(board, golden, ResilienceConfig::off(), Telemetry::off());
        }
        let telemetry = Telemetry::to_path(&scratch).map_err(err)?;
        let report = instrumented(board, golden, ResilienceConfig::off(), telemetry.clone())?;
        telemetry.finish().map_err(err)?;
        Ok(report)
    });
    let _ = std::fs::remove_file(&scratch);
    run
}

/// Runs [`CAMPAIGN_SESSIONS`] identical clean batched sessions through
/// a fleet of `workers` workers. Every session must end `recovered`;
/// the loads are summed over all sessions.
fn campaign(workers: usize) -> Result<Run, String> {
    let spec = SessionSpec::builder().batch(GANG_LANES).build().map_err(err)?;
    let root =
        std::env::temp_dir().join(format!("bench-gate-campaign-w{workers}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let fleet = Fleet::start(FleetConfig::new(&root).workers(workers)).map_err(err)?;
    let start = Instant::now();
    for _ in 0..CAMPAIGN_SESSIONS {
        fleet.submit(spec.clone()).map_err(err)?;
    }
    if !fleet.wait_idle(CAMPAIGN_TIMEOUT) {
        return Err(format!(
            "fleet did not drain {CAMPAIGN_SESSIONS} sessions in {CAMPAIGN_TIMEOUT:?}"
        ));
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let mut loads = 0;
    for handle in fleet.sessions() {
        let status = handle.status();
        if status.state != SessionState::Recovered {
            return Err(format!(
                "session {} ended {} ({}) — the gate requires every session recovered",
                status.id,
                status.state.as_str(),
                status.note
            ));
        }
        loads += status.stats.physical;
    }
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    Ok(Run { ms, loads })
}

/// What one gate measured.
#[derive(Debug, PartialEq)]
struct Measurement {
    /// The fastest run of the base and the candidate arm.
    best_ms: [f64; 2],
    /// Oracle loads per arm run (equal in every pair).
    loads: u64,
    /// The median paired `candidate / base` ratio.
    ratio: f64,
}

/// The middle element of `values` once sorted (the upper one of the
/// two middles for an even count).
///
/// # Panics
///
/// Panics on an empty slice; [`measure`] always passes at least one
/// ratio, since pair counts are [`NonZeroUsize`].
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The arm that runs first in pair `pair`: the base arm (0) in even
/// pairs, the candidate arm (1) in odd ones.
fn first_arm(pair: usize) -> usize {
    pair % 2
}

/// The paired-arm loop: one untimed warm-up run of the base arm (it
/// pays the cold costs — page cache, allocator pools — that would
/// otherwise bias the first timed run), then `pairs` interleaved pairs
/// whose first arm alternates, then the median of the paired ratios.
/// `run(arm)` runs arm 0 (base) or 1 (candidate).
fn measure(
    pairs: NonZeroUsize,
    mut run: impl FnMut(usize) -> Result<Run, String>,
) -> Result<Measurement, String> {
    run(0)?;
    let mut best_ms = [f64::INFINITY; 2];
    let mut loads = 0;
    let mut ratios = Vec::with_capacity(pairs.get());
    for pair in 0..pairs.get() {
        let first = first_arm(pair);
        let mut runs = [Run::default(); 2];
        for arm in [first, 1 - first] {
            runs[arm] = run(arm)?;
            best_ms[arm] = best_ms[arm].min(runs[arm].ms);
        }
        if runs[0].loads != runs[1].loads {
            return Err(format!(
                "load accounting diverged: base {} loads, candidate {}",
                runs[0].loads, runs[1].loads
            ));
        }
        loads = runs[0].loads;
        ratios.push(runs[1].ms / runs[0].ms);
    }
    Ok(Measurement { best_ms, loads, ratio: median(&mut ratios) })
}

/// The pair order as text, e.g. `"AB BA AB"` (A = base, B = candidate).
fn order(pairs: NonZeroUsize) -> String {
    let orders: Vec<&str> =
        (0..pairs.get()).map(|pair| if first_arm(pair) == 0 { "AB" } else { "BA" }).collect();
    orders.join(" ")
}

/// One measured and checked gate.
struct Outcome {
    gate: &'static Gate,
    measurement: Measurement,
    pass: bool,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// The checked-out commit, or `unknown` outside a git work tree.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The `BENCH.json` record: the machine, then every measured gate.
fn record(outcomes: &[Outcome], nproc: usize, commit: &str) -> String {
    let gates: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let (gate, m) = (o.gate, &o.measurement);
            format!(
                "    {{\"gate\": \"{}\", \"pairs\": {}, \"arms_best_ms\": {{\"{}\": {:.2}, \
                 \"{}\": {:.2}}}, \"loads\": {}, \"ratio\": {:.4}, \"bound\": \"{}\", \
                 \"pass\": {}}}",
                gate.name,
                gate.pairs,
                gate.labels[0],
                m.best_ms[0],
                gate.labels[1],
                m.best_ms[1],
                m.loads,
                m.ratio,
                gate.bound.describe(gate.bound.statistic(m.ratio), nproc),
                o.pass
            )
        })
        .collect();
    format!(
        "{{\n  \"nproc\": {nproc},\n  \"commit\": \"{commit}\",\n  \"gates\": [\n{}\n  ]\n}}\n",
        gates.join(",\n")
    )
}

fn run() -> Result<ExitCode, String> {
    let mut write = None;
    let mut named = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--write" {
            write = Some(args.next().ok_or("--write needs a path")?);
        } else if GATES.iter().any(|gate| gate.name == arg) {
            named.push(arg);
        } else {
            let names: Vec<&str> = GATES.iter().map(|gate| gate.name).collect();
            return Err(format!(
                "unknown gate or option '{arg}'; usage: bench-gate [--write PATH] [GATE...] \
                 with GATE one of {}",
                names.join(", ")
            ));
        }
    }

    let nproc = nproc();
    let mut outcomes = Vec::new();
    for gate in GATES.iter().filter(|gate| named.is_empty() || named.iter().any(|n| n == gate.name))
    {
        let measurement = measure(gate.pairs, |arm| gate.arms[arm]())
            .map_err(|e| format!("{}: {e}", gate.name))?;
        let statistic = gate.bound.statistic(measurement.ratio);
        let pass = gate.bound.passes(statistic, nproc);
        println!(
            "{:<10} {} {:.2} ms, {} {:.2} ms, {} loads per run; {} pairs ({}); {} — {}",
            gate.name,
            gate.labels[0],
            measurement.best_ms[0],
            gate.labels[1],
            measurement.best_ms[1],
            measurement.loads,
            gate.pairs,
            order(gate.pairs),
            gate.bound.describe(statistic, nproc),
            if pass { "pass" } else { "FAIL" }
        );
        outcomes.push(Outcome { gate, measurement, pass });
    }

    if let Some(path) = write {
        std::fs::write(&path, record(&outcomes, nproc, &commit()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("recorded {} gate(s) to {path} ({nproc} cores)", outcomes.len());
    }
    Ok(if outcomes.iter().all(|o| o.pass) { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench-gate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_median_is_the_middle_of_the_sorted_ratios() {
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&mut [2.0, 1.0]), 2.0);
    }

    #[test]
    fn pairs_alternate_their_first_arm_after_a_base_warm_up() {
        let pairs = NonZeroUsize::new(4).expect("non-zero");
        let mut calls = Vec::new();
        let m = measure(pairs, |arm| {
            calls.push(arm);
            Ok(Run { ms: if arm == 0 { 10.0 } else { 5.0 }, loads: 545 })
        })
        .expect("measures");
        assert_eq!(calls, [0, 0, 1, 1, 0, 0, 1, 1, 0]);
        assert_eq!(order(pairs), "AB BA AB BA");
        assert_eq!(m, Measurement { best_ms: [10.0, 5.0], loads: 545, ratio: 0.5 });
    }

    #[test]
    fn the_paired_median_ignores_one_outlier_pair() {
        let candidate_ms = [1.0, 40.0, 1.0, 1.0, 2.0];
        let mut calls = 0usize;
        let m = measure(FIVE, |arm| {
            // Call 0 is the warm-up; calls 2p+1 and 2p+2 make pair p.
            let pair = calls.saturating_sub(1) / 2;
            calls += 1;
            Ok(Run { ms: if arm == 0 { 10.0 } else { candidate_ms[pair] }, loads: 1 })
        })
        .expect("measures");
        assert_eq!(m.ratio, 0.1);
        assert_eq!(m.best_ms, [10.0, 1.0]);
    }

    #[test]
    fn diverging_loads_fail_the_pair() {
        let e = measure(NonZeroUsize::MIN, |arm| Ok(Run { ms: 1.0, loads: 545 + arm as u64 }))
            .expect_err("loads differ");
        assert!(e.contains("load accounting diverged"), "{e}");
    }

    #[test]
    fn a_failing_arm_stops_the_gate() {
        let e = measure(FIVE, |_| Err("attack did not recover".into())).expect_err("arm fails");
        assert_eq!(e, "attack did not recover");
    }

    #[test]
    fn the_campaign_floor_clamps_to_the_cores() {
        let bound = GATES.iter().find(|g| g.name == "campaign").expect("campaign gate").bound;
        assert_eq!(bound.limit(1), 0.75);
        assert_eq!(bound.limit(2), 1.5);
        assert_eq!(bound.limit(4), 3.0);
        assert_eq!(bound.limit(64), 3.0);
        assert!(bound.passes(1.01, 1));
        assert!(!bound.passes(1.01, 2));
    }

    #[test]
    fn bounds_keep_their_values_and_directions() {
        let bounds: Vec<(&str, Bound)> = GATES.iter().map(|g| (g.name, g.bound)).collect();
        assert_eq!(
            bounds,
            [
                ("attack", Bound::Speedup(8.0)),
                ("encrypted", Bound::Cost(1.5)),
                ("partial", Bound::Speedup(0.85)),
                ("resilience", Bound::OverheadPct(5.0)),
                ("telemetry", Bound::OverheadPct(5.0)),
                ("campaign", Bound::Scaling { speedup: 3.0, workers: 4 }),
            ]
        );
        // r = candidate / base: width 64 at a tenth of width 1 is 10x.
        assert!(Bound::Speedup(8.0).passes(Bound::Speedup(8.0).statistic(0.1), 1));
        assert!(!Bound::Cost(1.5).passes(Bound::Cost(1.5).statistic(1.6), 1));
        let overhead = Bound::OverheadPct(5.0).statistic(1.06);
        assert!((overhead - 6.0).abs() < 1e-9);
        assert!(!Bound::OverheadPct(5.0).passes(overhead, 1));
    }

    #[test]
    fn the_record_holds_nproc_commit_and_every_gate() {
        let outcomes = [Outcome {
            gate: &GATES[0],
            measurement: Measurement { best_ms: [660.0, 61.0], loads: 545, ratio: 0.1 },
            pass: true,
        }];
        let json = record(&outcomes, 3, "abc123");
        assert!(json.contains("\"nproc\": 3"), "{json}");
        assert!(json.contains("\"commit\": \"abc123\""), "{json}");
        assert!(json.contains("\"gate\": \"attack\""), "{json}");
        assert!(json.contains("\"width 1\": 660.00"), "{json}");
        assert!(json.contains("\"loads\": 545"), "{json}");
        assert!(json.contains("\"pass\": true"), "{json}");
        let commit = commit();
        assert!(commit == "unknown" || commit.len() == 40, "{commit}");
    }
}
