//! The closed-loop single-thread workloads (`headline`, `noisy`): one
//! session at a time against a board built in set-up.
//!
//! A run is cut into segments. Each segment sets up anew (board
//! build, golden extract, and for `headline` the seal and side-channel
//! open) and then runs sessions until its share of the measuring time
//! is spent, so the set-up samples spread over the whole run. Set-up
//! times back to back move together on a contended host; set-ups
//! seconds apart sample more of its states.
//!
//! Every untraced headline session runs through a [`Stamps`] shim
//! above the container layer, which cuts it into the stages of
//! `key_ms.floor` (see [`crate::floor`]).
//!
//! The traced run alternates an untraced session with a traced one of
//! the same spec. The traced session runs against a stack the benchmark
//! builds itself, with a timing shim above each layer, and must match
//! its untraced twin counter for counter.

use std::collections::BTreeMap;
use std::time::Instant;

use bitmod::encrypted::{demo_sca, demo_seal, open_with_sca, SCA_TRACES_REQUIRED};
use bitmod::fleet::{SessionError, SessionIo, SessionReport};
use bitmod::telemetry::names;
use bitmod::{EncryptedOracle, PrOracle, Telemetry};
use bitstream::{Bitstream, PatchOracle, SecureBitstream};
use fpga_sim::{Snow3gBoard, UnreliableBoard};

use crate::floor::StageFloor;
use crate::layers::{self, LayerSample, LayerValues};
use crate::record::{MemorySink, SessionRecord, Tally, TraceDigest};
use crate::shim::{LayerClock, Stamps, Timed};
use crate::specs::{self, Workload};
use crate::stats::median;

/// What a local run measured.
#[derive(Debug, Default)]
pub struct LocalRun {
    /// Untraced sessions.
    pub tally: Tally,
    /// The stages of the untraced recovered sessions.
    pub floor: StageFloor,
    /// Seconds of each segment's set-up.
    pub setup_s: Vec<f64>,
    /// Milliseconds of each segment's board build.
    pub board_build_ms: Vec<f64>,
    /// Host seconds spent running sessions.
    pub measured_s: f64,
    /// Traced sessions (traced runs only).
    pub traced: Vec<LayerSample>,
    /// Traced sessions that did not reproduce their untraced twin.
    pub mismatches: Vec<String>,
}

impl LocalRun {
    /// The per-layer values of a traced run.
    #[must_use]
    pub fn layer_values(&self) -> LayerValues {
        let mut out = layers::local(&self.traced);
        out.insert("setup.board_build_ms", median(&self.board_build_ms).unwrap_or(0.0));
        let traced: Vec<f64> =
            self.traced.iter().filter(|s| s.record.recovered()).map(|s| s.record.ms).collect();
        if let (Some(on), Some(off)) = (median(&traced), median(&self.tally.key_ms)) {
            out.insert("trace.overhead_pct", 100.0 * (on / off - 1.0));
        }
        out
    }
}

/// Builds the Test Set 1 victim board.
///
/// # Errors
///
/// The board build error, rendered.
pub fn build_board() -> Result<Snow3gBoard, String> {
    let config = netlist::snow3g_circuit::Snow3gCircuitConfig::unprotected(
        snow3g::vectors::TEST_SET_1_KEY,
        snow3g::vectors::TEST_SET_1_IV,
    );
    Snow3gBoard::build(config, &fpga_sim::ImplementOptions::default()).map_err(|e| e.to_string())
}

/// Runs `workload` (`headline` or `noisy`) for about `seconds` of
/// session time in `segments` set-up segments.
///
/// # Errors
///
/// A set-up failure; session failures are tallied, not returned.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    segments: usize,
    traced: bool,
) -> Result<LocalRun, String> {
    let mut run = LocalRun::default();
    let mut next = 0u64;
    for segment in 1..=segments {
        // Each segment runs to its share of the run's end, so a long
        // session's overshoot shortens the next segment.
        let budget = seconds * segment as f64 / segments as f64 - run.measured_s;
        match workload {
            Workload::Headline => headline_segment(seed, budget, traced, &mut run)?,
            Workload::Noisy => noisy_segment(seed, budget, traced, &mut next, &mut run)?,
            Workload::Fleet => unreachable!("the fleet workload runs in crate::fleet"),
        }
    }
    Ok(run)
}

/// Runs sessions while the segment's budget lasts: a session starts
/// only if half the previous one still fits, so a run overshoots its
/// budget by half a session on average, not a whole one.
fn session_loop(budget_s: f64, run: &mut LocalRun, mut one: impl FnMut(&mut LocalRun) -> f64) {
    let mut spent = 0.0;
    let mut last = 0.0;
    while spent + last / 2.0 < budget_s {
        last = one(run);
        spent += last;
    }
    run.measured_s += spent;
}

fn io(telemetry: Telemetry) -> SessionIo {
    SessionIo {
        telemetry,
        expected_key: Some(snow3g::vectors::TEST_SET_1_KEY),
        ..SessionIo::default()
    }
}

/// Runs one session, timing it from submission to result.
fn timed(
    f: impl FnOnce() -> Result<SessionReport, SessionError>,
) -> (Result<SessionReport, SessionError>, f64) {
    let t0 = Instant::now();
    let result = f();
    (result, t0.elapsed().as_secs_f64() * 1e3)
}

/// Counter deltas of a recorder shared across sessions.
fn counter_delta(telemetry: &Telemetry, before: &bitmod::Metrics) -> BTreeMap<String, u64> {
    telemetry
        .metrics()
        .counters()
        .map(|(name, v)| (name.to_string(), v - before.counter(name)))
        .filter(|(_, v)| *v > 0)
        .collect()
}

/// Checks a traced session against its untraced twin.
fn compare(untraced: &SessionRecord, traced: &SessionRecord, what: &str, run: &mut LocalRun) {
    let same = untraced.ending == traced.ending
        && untraced.wrong_key == traced.wrong_key
        && untraced.physical == traced.physical
        && untraced.counters == traced.counters;
    if !same {
        run.mismatches.push(format!(
            "{what}: traced session differs from untraced (ending {:?} vs {:?}, loads {} vs {}, \
             counters {:?} vs {:?})",
            untraced.ending,
            traced.ending,
            untraced.physical,
            traced.physical,
            untraced.counters,
            traced.counters
        ));
    }
}

/// Flushes a traced session's recorder and digests its NDJSON.
fn digest(telemetry: &Telemetry, sink: &MemorySink) -> TraceDigest {
    let _ = telemetry.finish();
    TraceDigest::parse(sink.text().lines())
}

fn occupancy(result: &Result<SessionReport, SessionError>) -> Option<f64> {
    result.as_ref().ok()?.metrics.histogram(names::BATCH_OCCUPANCY)?.mean()
}

/// Opens the sealed golden container with the side-channel key.
fn open_container(sealed: &SecureBitstream) -> Result<PatchOracle, String> {
    open_with_sca(sealed, &demo_sca(), SCA_TRACES_REQUIRED)
        .map_err(|e| format!("side-channel open: {e}"))
}

/// The headline set-up, timed: board build, golden extract, the
/// vendor-side seal and the attacker's side-channel open.
fn headline_setup(
    run: &mut LocalRun,
) -> Result<(Snow3gBoard, SecureBitstream, PatchOracle), String> {
    let t0 = Instant::now();
    let board = build_board()?;
    run.board_build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let sealed = demo_seal(&board.extract_bitstream());
    let patcher = open_container(&sealed)?;
    run.setup_s.push(t0.elapsed().as_secs_f64());
    Ok((board, sealed, patcher))
}

/// The noisy set-up, timed: board build and golden extract.
fn noisy_setup(run: &mut LocalRun) -> Result<(Snow3gBoard, Bitstream), String> {
    let t0 = Instant::now();
    let board = build_board()?;
    run.board_build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let golden = board.extract_bitstream();
    run.setup_s.push(t0.elapsed().as_secs_f64());
    Ok((board, golden))
}

fn headline_segment(
    seed: u64,
    budget_s: f64,
    traced: bool,
    run: &mut LocalRun,
) -> Result<(), String> {
    let spec = specs::headline(seed);
    let (board, sealed, patcher) = headline_setup(run)?;
    let golden = patcher.golden().clone();
    let seal_telemetry = Telemetry::new();
    let enc = EncryptedOracle::new(&board, patcher).with_telemetry(seal_telemetry.clone());
    let stamps = Stamps::default();
    let stamped = Timed::new(&enc, &stamps);

    // The traced stack: device shim, container, container shim; the
    // delta layer is rebuilt per session (it latches device state).
    let (device_clock, seal_clock, pr_clock) =
        (LayerClock::default(), LayerClock::default(), LayerClock::default());
    let timed_device = Timed::new(&board, &device_clock);
    let traced_seal_telemetry = Telemetry::new();
    let traced_enc = if traced {
        Some(
            EncryptedOracle::new(&timed_device, open_container(&sealed)?)
                .with_telemetry(traced_seal_telemetry.clone()),
        )
    } else {
        None
    };
    let timed_enc = traced_enc.as_ref().map(|enc| Timed::new(enc, &seal_clock));

    session_loop(budget_s, run, |run| {
        let before = seal_telemetry.metrics();
        let mut cuts = vec![Instant::now()];
        let result = spec.run_against(&stamped, golden.clone(), &io(Telemetry::off()));
        let end = Instant::now();
        let ms = (end - cuts[0]).as_secs_f64() * 1e3;
        let untraced =
            SessionRecord::from_result(&result, ms, counter_delta(&seal_telemetry, &before));
        cuts.extend(stamps.take());
        cuts.push(end);
        if untraced.recovered() {
            run.floor.add_cuts(&cuts);
        }
        run.tally.add(&untraced);
        let Some(timed_enc) = &timed_enc else { return ms / 1e3 };

        let sink = MemorySink::default();
        let telemetry = Telemetry::with_sink(Box::new(sink.clone()));
        let before = traced_seal_telemetry.metrics();
        let clocks = (device_clock.read(), seal_clock.read(), pr_clock.read());
        let (result, traced_ms) = timed(|| {
            let pr = PrOracle::new(timed_enc, true).with_telemetry(telemetry.clone());
            let timed_pr = Timed::hiding_partial_port(&pr, &pr_clock);
            spec.run_against(&timed_pr, golden.clone(), &io(telemetry.clone()))
        });
        let record = SessionRecord::from_result(
            &result,
            traced_ms,
            counter_delta(&traced_seal_telemetry, &before),
        );
        compare(&untraced, &record, "headline", run);
        run.traced.push(LayerSample {
            device: device_clock.read().since(clocks.0),
            seal: Some(seal_clock.read().since(clocks.1)),
            pr: Some(pr_clock.read().since(clocks.2)),
            occupancy: occupancy(&result),
            trace: digest(&telemetry, &sink),
            record,
        });
        (ms + traced_ms) / 1e3
    });
    Ok(())
}

/// Counts a noisy session's loads on the board itself: a session that
/// ends in a `SessionError` reports no effort, but its loads were made.
fn device_loads(mut record: SessionRecord, board: &UnreliableBoard) -> SessionRecord {
    record.physical = board.fault_stats().loads_attempted;
    record
}

fn noisy_segment(
    seed: u64,
    budget_s: f64,
    traced: bool,
    next: &mut u64,
    run: &mut LocalRun,
) -> Result<(), String> {
    let (board, golden) = noisy_setup(run)?;
    let mut board = Some(board);

    // Each session wraps the pooled board in its own fault model and
    // unwraps it afterwards, as a fleet worker does.
    let device_clock = LayerClock::default();
    session_loop(budget_s, run, |run| {
        let spec = specs::noisy(seed, *next);
        *next += 1;
        let noisy = UnreliableBoard::new(board.take().expect("pooled board"), spec.fault_profile());
        let (result, ms) =
            timed(|| spec.run_against(&noisy, golden.clone(), &io(Telemetry::off())));
        let untraced =
            device_loads(SessionRecord::from_result(&result, ms, BTreeMap::new()), &noisy);
        board = Some(noisy.into_inner());
        // Fault draws differ from session to session, so noisy sessions
        // share no stages: each is one.
        if untraced.recovered() {
            run.floor.add(&[ms]);
        }
        run.tally.add(&untraced);
        if !traced {
            return ms / 1e3;
        }

        let sink = MemorySink::default();
        let telemetry = Telemetry::with_sink(Box::new(sink.clone()));
        let noisy = UnreliableBoard::new(board.take().expect("pooled board"), spec.fault_profile());
        let clock = device_clock.read();
        let (result, traced_ms) = timed(|| {
            let timed_device = Timed::new(&noisy, &device_clock);
            spec.run_against(&timed_device, golden.clone(), &io(telemetry.clone()))
        });
        let record =
            device_loads(SessionRecord::from_result(&result, traced_ms, BTreeMap::new()), &noisy);
        board = Some(noisy.into_inner());
        compare(&untraced, &record, &format!("noisy seed {}", spec.seed()), run);
        run.traced.push(LayerSample {
            device: device_clock.read().since(clock),
            seal: None,
            pr: None,
            occupancy: occupancy(&result),
            trace: digest(&telemetry, &sink),
            record,
        });
        (ms + traced_ms) / 1e3
    });
    Ok(())
}
