//! The `fleet` workload: an in-process `FleetServer` on a Unix socket,
//! one client connection submitting fixed-size bursts.
//!
//! Each burst is submitted over the wire; completion is read from the
//! fleet's session handles (one blocked waiter per session, no
//! polling), and the next burst goes out only when every session of the
//! last one is terminal. Every burst gets a fresh fleet root; its
//! set-up is `Fleet::start`, the server bind and one warm-up session
//! per worker, which builds the worker's board pool.
//!
//! A fleet headline session's stages for `key_ms.floor` (see
//! [`crate::floor`]) are its attack-phase spans, read from its trace,
//! and the rest of its submission-to-result time. The noisy sessions
//! run other work in the same phases (plaintext, and with retries), so
//! they stay out of the floor.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use bitmod::fleet::session::stats_from;
use bitmod::fleet::{
    Endpoint, Fleet, FleetClient, FleetConfig, FleetServer, SessionIo, SessionSpec, SessionState,
    SessionStatus,
};
use bitmod::telemetry::names;
use bitmod::Telemetry;
use fpga_sim::UnreliableBoard;

use crate::floor::StageFloor;
use crate::layers::{self, LayerValues};
use crate::local::build_board;
use crate::record::{Ending, SessionRecord, Tally, TraceDigest, WRONG_KEY_NOTE};
use crate::specs;
use crate::stats::{mean, median};

/// What a fleet run measured.
#[derive(Debug, Default)]
pub struct FleetRun {
    /// Every burst session.
    pub tally: Tally,
    /// The stages of the recovered headline sessions.
    pub floor: StageFloor,
    /// Seconds of each burst's set-up.
    pub setup_s: Vec<f64>,
    /// Milliseconds of one board build per burst (the fleet builds
    /// boards inside its workers, so this is timed beside it).
    pub board_build_ms: Vec<f64>,
    /// Host seconds spent in bursts.
    pub measured_s: f64,
    /// `FleetClient::submit` round trips, ms.
    pub submit_ms: Vec<f64>,
    /// Submission-to-result ms minus the session's `attack` span.
    pub queue_wait_ms: Vec<f64>,
    /// The sessions' `attack` spans, ms.
    pub service_ms: Vec<f64>,
    /// Worker utilisation observations, percent.
    pub worker_util_pct: Vec<f64>,
    /// Sessions stolen between workers.
    pub steals: u64,
    /// The burst sessions' records and traces (traced runs only).
    pub traced: Vec<(SessionRecord, TraceDigest)>,
    /// Fleet sessions that did not reproduce a local run of their spec.
    pub mismatches: Vec<String>,
}

impl FleetRun {
    /// The per-layer values of a traced run.
    #[must_use]
    pub fn layer_values(&self) -> LayerValues {
        let mut out = LayerValues::new();
        out.insert("setup.board_build_ms", median(&self.board_build_ms).unwrap_or(0.0));
        layers::add_fleet_phases(&mut out, &self.traced);
        let records: Vec<&SessionRecord> = self.traced.iter().map(|(r, _)| r).collect();
        layers::add_per_key(&mut out, &records);
        let keys = records.iter().filter(|r| r.recovered()).count().max(1) as f64;
        let journal = |f: fn(&TraceDigest) -> u64| {
            self.traced.iter().map(|(_, t)| f(t)).sum::<u64>() as f64 / keys
        };
        out.insert("journal.writes_per_key", journal(|t| t.journal_writes));
        out.insert("journal.bytes_per_key", journal(|t| t.journal_bytes));
        out.insert("fleet.queue_wait_ms.p50", median(&self.queue_wait_ms).unwrap_or(0.0));
        out.insert("fleet.service_ms.p50", median(&self.service_ms).unwrap_or(0.0));
        out.insert("fleet.worker_util_pct", mean(&self.worker_util_pct).unwrap_or(0.0));
        out.insert("fleet.steals", self.steals as f64);
        out.insert("wire.submit_ms.p50", median(&self.submit_ms).unwrap_or(0.0));
        out
    }
}

/// One running fleet: the server thread, a client on the socket, and
/// the fleet the server owns.
struct Serving {
    fleet: Arc<Fleet>,
    client: FleetClient,
    server: thread::JoinHandle<()>,
    root: PathBuf,
}

impl Serving {
    fn start(root: PathBuf, socket: &Path, workers: usize) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&root);
        let fleet = Fleet::start(FleetConfig::new(&root).workers(workers))
            .map_err(|e| format!("fleet start: {e}"))?;
        let endpoint = Endpoint::Unix(socket.to_path_buf());
        let server =
            FleetServer::bind(&endpoint, fleet).map_err(|e| format!("fleet server bind: {e}"))?;
        let fleet = server.fleet().clone();
        let server = server.spawn();
        let client = FleetClient::connect(&endpoint).map_err(|e| format!("fleet connect: {e}"))?;
        Ok(Self { fleet, client, server, root })
    }

    /// Submits `specs` and waits until every one is terminal. Returns,
    /// per spec, its id, the submit round trip and submission-to-result
    /// host time (ms), and its final status.
    fn burst(&mut self, specs: &[SessionSpec]) -> Result<Vec<Finished>, String> {
        let mut submitted = Vec::with_capacity(specs.len());
        for spec in specs {
            let t0 = Instant::now();
            let id = self.client.submit(spec).map_err(|e| format!("submit: {e}"))?;
            submitted.push((id, t0, t0.elapsed().as_secs_f64() * 1e3));
        }
        let fleet = &self.fleet;
        thread::scope(|scope| {
            let waiters: Vec<_> = submitted
                .iter()
                .map(|(id, t0, submit_ms)| {
                    scope.spawn(move || {
                        let handle = fleet.handle(id).ok_or(format!("unknown session {id}"))?;
                        let status = handle.wait();
                        Ok(Finished {
                            id: id.clone(),
                            submit_ms: *submit_ms,
                            ms: t0.elapsed().as_secs_f64() * 1e3,
                            status,
                        })
                    })
                })
                .collect();
            waiters.into_iter().map(|w| w.join().expect("waiter thread")).collect()
        })
    }

    /// Shuts the server down, joins it, and removes the fleet root.
    fn stop(mut self) -> bitmod::Metrics {
        let _ = self.client.shutdown();
        drop(self.client);
        let _ = self.server.join();
        let counters = self.fleet.counters();
        drop(self.fleet);
        let _ = std::fs::remove_dir_all(&self.root);
        counters
    }
}

struct Finished {
    id: String,
    submit_ms: f64,
    ms: f64,
    status: SessionStatus,
}

fn record_of(f: &Finished) -> SessionRecord {
    let ending = match f.status.state {
        SessionState::Recovered => Ending::Recovered,
        state => Ending::NotRecovered { state: state.as_str().into(), note: f.status.note.clone() },
    };
    // The fleet reports a session's effort, not its counters; these are
    // the resilience counters that effort is made of.
    let stats = &f.status.stats;
    let counters = [
        (names::ORACLE_LOADS, stats.physical),
        (names::ORACLE_QUERIES, stats.logical),
        (names::ORACLE_RETRIES, stats.retries),
        (names::ORACLE_BACKOFF_MS, stats.backoff_ms),
    ];
    SessionRecord {
        ending,
        wrong_key: f.status.note == WRONG_KEY_NOTE,
        ms: f.ms,
        physical: stats.physical,
        counters: counters.into_iter().map(|(name, v)| (name.to_string(), v)).collect(),
    }
}

/// Runs the fleet workload for about `seconds` of burst time with
/// `workers` workers under `work`. Every burst runs on a fresh fleet,
/// so each burst is preceded by a timed set-up and leaves the same
/// state behind.
///
/// # Errors
///
/// A set-up or transport failure.
pub fn run(
    seed: u64,
    seconds: f64,
    workers: usize,
    traced: bool,
    work: &Path,
) -> Result<FleetRun, String> {
    let mut run = FleetRun::default();
    let socket = work.join("fleet.sock");
    let mut checked = BTreeSet::new();
    let (mut burst_index, mut last) = (0u64, 0.0);
    while run.measured_s + last / 2.0 < seconds {
        let mut serving =
            setup(&work.join(format!("fleet-{burst_index}")), &socket, workers, &mut run)?;
        if traced {
            let t0 = Instant::now();
            build_board()?;
            run.board_build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let specs = specs::fleet_burst(seed, burst_index);
        burst_index += 1;
        let t0 = Instant::now();
        let finished = serving.burst(&specs)?;
        last = t0.elapsed().as_secs_f64();
        run.measured_s += last;
        for (spec, f) in specs.iter().zip(&finished) {
            let record = record_of(f);
            run.tally.add(&record);
            run.submit_ms.push(f.submit_ms);
            let handle = serving.fleet.handle(&f.id).ok_or("session vanished")?;
            let lines = handle.tap_lines();
            let trace = TraceDigest::parse(lines.iter().map(String::as_str));
            if record.recovered() && !spec.is_noisy() {
                run.floor.add(&stages(&trace, f.ms));
            }
            if traced {
                let service = trace.span_ms("attack");
                run.service_ms.push(service);
                run.queue_wait_ms.push(f.ms - service);
                // One session of each kind is replayed locally.
                if checked.insert(spec.is_noisy()) {
                    check_against_local(spec, &f.status, &mut run.mismatches);
                }
                run.traced.push((record, trace));
            }
        }
        let counters = serving.stop();
        run.steals += counters.counter(names::FLEET_STEAL_COUNT);
        if let Some(h) = counters.histogram(names::FLEET_WORKER_UTILISATION_PCT) {
            run.worker_util_pct.extend(h.mean());
        }
    }
    Ok(run)
}

/// A fleet session's stages, ms: its attack-phase spans in close
/// order, then everything outside them (wire, queue, the worker's
/// session set-up and bookkeeping).
fn stages(trace: &TraceDigest, ms: f64) -> Vec<f64> {
    let mut stages: Vec<f64> = trace
        .spans
        .iter()
        .filter(|(name, _)| name.starts_with("phase:"))
        .map(|(_, us)| *us as f64 / 1e3)
        .collect();
    let inside: f64 = stages.iter().sum();
    stages.push(ms - inside);
    stages
}

/// The fleet set-up, timed: a fresh root, `Fleet::start`, the server
/// bind and a warm-up session on every worker.
fn setup(
    root: &Path,
    socket: &Path,
    workers: usize,
    run: &mut FleetRun,
) -> Result<Serving, String> {
    let t0 = Instant::now();
    let mut serving = Serving::start(root.to_path_buf(), socket, workers)?;
    warm_up(&mut serving, workers)?;
    run.setup_s.push(t0.elapsed().as_secs_f64());
    Ok(serving)
}

/// Submits warm-up sessions until every worker has run one (and so
/// built its board).
fn warm_up(serving: &mut Serving, workers: usize) -> Result<(), String> {
    let mut warmed = BTreeSet::new();
    for _ in 0..8 {
        let specs = vec![specs::warm_up(); workers];
        for f in serving.burst(&specs)? {
            if f.status.state != SessionState::Recovered {
                return Err(format!("warm-up session {} ended {}", f.id, f.status.state.as_str()));
            }
            warmed.extend(f.status.worker);
        }
        if warmed.len() >= workers {
            return Ok(());
        }
    }
    Err(format!("only {} of {workers} fleet workers picked up a warm-up session", warmed.len()))
}

/// Runs `spec` locally the way a fleet worker runs it — the same
/// harness, and on an error the effort its recorder saw — and checks
/// the fleet reported the same ending and effort.
fn check_against_local(spec: &SessionSpec, fleet: &SessionStatus, mismatches: &mut Vec<String>) {
    let io = SessionIo {
        telemetry: Telemetry::new(),
        expected_key: Some(snow3g::vectors::TEST_SET_1_KEY),
        ..SessionIo::default()
    };
    let board = match build_board() {
        Ok(board) => board,
        Err(e) => {
            mismatches.push(format!("local replay of fleet session {}: {e}", fleet.id));
            return;
        }
    };
    let golden = board.extract_bitstream();
    let result = if spec.is_noisy() {
        let noisy = UnreliableBoard::new(board, spec.fault_profile());
        spec.run_harnessed(&noisy, golden, &io)
    } else {
        spec.run_harnessed(&board, golden, &io)
    };
    let (state, stats) = match &result {
        Ok(report) => (report.outcome.state_str(), report.outcome.stats()),
        Err(_) => ("failed", stats_from(&io.telemetry)),
    };
    if state != fleet.state.as_str() || stats != fleet.stats {
        mismatches.push(format!(
            "fleet session {} ({}) ended {} with {:?}; a local run ends {state} with {stats:?}",
            fleet.id,
            spec.to_wire(),
            fleet.state.as_str(),
            fleet.stats
        ));
    }
}
