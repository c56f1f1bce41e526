//! The work-stealing worker pool: N board-backed workers sharding
//! attack sessions, with kill-and-steal recovery over the crash-safe
//! journals.
//!
//! Scheduling is deliberately simple — one mutex over an injector
//! queue plus per-worker queues, a condvar, and steal-back-half when
//! a worker runs dry — because the unit of work (a full key-recovery
//! session, hundreds of physical loads) is enormous compared to the
//! cost of a queue operation. What makes the pool a *fleet* rather
//! than a thread pool is the recovery contract: every session is
//! journalled write-ahead into its own
//! [`SessionLayout`](super::layout::SessionLayout), so a worker that
//! dies mid-session (the in-process kill switch here, `SIGKILL` of
//! the whole daemon in the serve smoke test) leaves a journal a peer
//! picks up and resumes to the *bit-identical* query trace — the same
//! guarantee `tests/resume.rs` pins for single runs, lifted to the
//! fleet.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::oracle::KeystreamOracle;
use crate::telemetry::{names, Metrics, Telemetry};

use super::health::{self, BoardScore, WorkerHealth};
use super::session::{
    stats_from, test_set_1_board, BoardFate, CancelToken, CellStats, ResumePolicy, SessionError,
    SessionIo, SessionOutcome, SessionSpec,
};
use super::store::{unpoisoned, SessionHandle, SessionStore, TeeSink};

/// How a [`Fleet`] is dimensioned.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    root: PathBuf,
    workers: usize,
    /// Board-local pathology: `pathology[i]` kills worker `i`'s board
    /// permanently at that load index. Chaos-testing hook — the spec
    /// deliberately cannot express this
    /// ([`SessionSpec::fault_profile`] owns only the ambient noise).
    pathology: Vec<Option<u64>>,
}

impl FleetConfig {
    /// A fleet rooted at `root` (session directories live underneath)
    /// with one worker per available core.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let workers = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self { root: root.into(), workers, pathology: Vec::new() }
    }

    /// Overrides the worker count (clamped to ≥ 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Dooms worker `index`'s board to die permanently at noisy load
    /// number `load` (counting this boot's loads on that board). The
    /// chaos hook behind the board-death tests; sessions on the dying
    /// board migrate to healthy peers.
    #[must_use]
    pub fn board_dies_at(mut self, index: usize, load: u64) -> Self {
        if self.pathology.len() <= index {
            self.pathology.resize(index + 1, None);
        }
        self.pathology[index] = Some(load);
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers
    }
}

/// The scheduler state under the one lock.
#[derive(Debug)]
struct Sched {
    /// Overflow + recovery queue every worker drains from.
    injector: VecDeque<String>,
    /// Per-worker queues (submissions go to the least loaded).
    queues: Vec<VecDeque<String>>,
    /// Workers that exited after a kill.
    dead: Vec<bool>,
    /// Sessions currently executing.
    active: usize,
}

impl Sched {
    fn queued(&self) -> usize {
        self.injector.len() + self.queues.iter().map(VecDeque::len).sum::<usize>()
    }
}

#[derive(Debug)]
struct Shared {
    store: SessionStore,
    sched: Mutex<Sched>,
    changed: Condvar,
    shutdown: AtomicBool,
    /// A graceful drain is in flight: workers are being stopped via
    /// their kill switches, but the requeues are parked checkpoints,
    /// not steals — the counters (and the next boot) must tell the
    /// difference.
    draining: AtomicBool,
    /// Per-worker kill switches, enforced at each worker's device
    /// boundary.
    kills: Vec<CancelToken>,
    telemetry: Telemetry,
    /// Per-worker board-health scores, folded in after every noisy
    /// session from the board's own fault accounting.
    boards: Mutex<Vec<BoardScore>>,
    /// Per-worker board pathology (see
    /// [`FleetConfig::board_dies_at`]).
    pathology: Vec<Option<u64>>,
}

/// The work-stealing fleet: submit [`SessionSpec`]s, get
/// [`SessionHandle`]s, let the pool shard the load.
#[derive(Debug)]
pub struct Fleet {
    shared: Arc<Shared>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Fleet {
    /// Opens the fleet root, requeues every interrupted session found
    /// there (they resume from their journals), and starts the worker
    /// pool.
    ///
    /// # Errors
    ///
    /// [`SessionError::Layout`] when the root cannot be opened.
    pub fn start(config: FleetConfig) -> Result<Self, SessionError> {
        let (store, pending) = SessionStore::open(&config.root)?;
        let workers = config.workers;
        let shared = Arc::new(Shared {
            store,
            sched: Mutex::new(Sched {
                injector: pending.iter().map(|h| h.id().to_string()).collect(),
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                dead: vec![false; workers],
                active: 0,
            }),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            kills: (0..workers).map(|_| CancelToken::new()).collect(),
            telemetry: Telemetry::new(),
            boards: Mutex::new(vec![BoardScore::default(); workers]),
            pathology: {
                let mut pathology = config.pathology.clone();
                pathology.resize(workers.max(pathology.len()), None);
                pathology
            },
        });
        // Boot rescan: re-probe every board quarantined by a previous
        // boot. A board that answers a probe read again (replaced or
        // recovered hardware) rejoins the pool; its marker is cleared
        // so this boot's health report starts clean.
        for index in health::scan_quarantined(shared.store.root()) {
            if test_set_1_board().map(|board| probe_board(&board)).unwrap_or(false) {
                health::clear_quarantine(shared.store.root(), index);
                shared.telemetry.incr(names::FLEET_BOARDS_REPROBED, 1);
            } else if let Some(score) = unpoisoned(shared.boards.lock()).get_mut(index) {
                score.dead = true;
            }
        }
        let threads = (0..workers)
            .map(|index| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("fleet-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("worker thread spawns")
            })
            .collect();
        Ok(Self { shared, threads: Mutex::new(threads) })
    }

    /// Admits a session and queues it on the least-loaded live
    /// worker.
    ///
    /// # Errors
    ///
    /// [`SessionError::Layout`] when the session directory cannot be
    /// created.
    pub fn submit(&self, spec: SessionSpec) -> Result<SessionHandle, SessionError> {
        self.submit_with_token(spec, None).map(|(handle, _)| handle)
    }

    /// [`Fleet::submit`] with an optional client idempotency token: a
    /// token the store has already admitted returns the original
    /// session's handle and `true` without queueing anything — the
    /// dedup behind retried `submit`s on a flaky link.
    ///
    /// # Errors
    ///
    /// [`SessionError::Layout`] when the session directory cannot be
    /// created.
    pub fn submit_with_token(
        &self,
        spec: SessionSpec,
        token: Option<&str>,
    ) -> Result<(SessionHandle, bool), SessionError> {
        let (handle, deduped) = self.shared.store.admit_with_token(spec, token)?;
        if deduped {
            return Ok((handle, true));
        }
        let mut sched = unpoisoned(self.shared.sched.lock());
        let target = (0..sched.queues.len())
            .filter(|&i| !sched.dead[i])
            .min_by_key(|&i| sched.queues[i].len());
        match target {
            Some(i) => sched.queues[i].push_back(handle.id().to_string()),
            // Every worker killed: park on the injector; the session
            // stays durable and runs on the next boot.
            None => sched.injector.push_back(handle.id().to_string()),
        }
        drop(sched);
        self.shared.telemetry.incr(names::FLEET_SESSIONS_SUBMITTED, 1);
        self.shared.changed.notify_all();
        Ok((handle, false))
    }

    /// The fleet's telemetry registry (where the server folds in its
    /// transport counters, so `counters` reports wire health next to
    /// scheduling health).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// The handle of session `id`, when known.
    #[must_use]
    pub fn handle(&self, id: &str) -> Option<SessionHandle> {
        self.shared.store.get(id)
    }

    /// Every known session, in id order.
    #[must_use]
    pub fn sessions(&self) -> Vec<SessionHandle> {
        self.shared.store.all()
    }

    /// The fleet root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        self.shared.store.root()
    }

    /// A snapshot of the fleet-level counters
    /// (`fleet.sessions_submitted`, `fleet.steal_count`, …).
    #[must_use]
    pub fn counters(&self) -> Metrics {
        self.shared.telemetry.metrics()
    }

    /// Per-worker board health, in worker order: the rolling
    /// injected-fault score of each worker's board and its health
    /// band. Surfaces in `bitmod status`.
    #[must_use]
    pub fn health(&self) -> Vec<WorkerHealth> {
        unpoisoned(self.shared.boards.lock())
            .iter()
            .enumerate()
            .map(|(worker, score)| WorkerHealth { worker, score: *score })
            .collect()
    }

    /// Flips worker `index`'s kill switch: its in-flight session is
    /// rejected at the next oracle query and requeued (journal intact
    /// — a peer resumes it bit-identically), its queue drains to the
    /// injector, and the thread exits. The chaos hook behind the
    /// kill-and-steal tests.
    pub fn kill_worker(&self, index: usize) -> bool {
        let Some(kill) = self.shared.kills.get(index) else { return false };
        kill.cancel();
        self.shared.changed.notify_all();
        true
    }

    /// Blocks until no session is queued or running (or `timeout`).
    /// Returns whether the fleet went idle.
    #[must_use]
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut sched = unpoisoned(self.shared.sched.lock());
        loop {
            if sched.queued() == 0 && sched.active == 0 {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else { return false };
            let (guard, _) = unpoisoned(
                self.shared.changed.wait_timeout(sched, left.min(Duration::from_millis(100))),
            );
            sched = guard;
        }
    }

    /// Graceful shutdown: workers finish every queued session, then
    /// exit; returns the final counter snapshot. Sessions submitted
    /// after this call park durably and run on the next boot.
    pub fn shutdown(&self) -> Metrics {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.changed.notify_all();
        let threads: Vec<_> = unpoisoned(self.threads.lock()).drain(..).collect();
        for thread in threads {
            let _ = thread.join();
        }
        self.shared.telemetry.metrics()
    }

    /// Graceful *drain*: stop now, lose nothing. Running sessions are
    /// interrupted at their next oracle query and requeued with their
    /// journals intact (a checkpoint, counted as
    /// `fleet.drain_parked`); queued sessions stay durable on disk
    /// (no `result.json`). The next [`Fleet::start`] on the same root
    /// rescans and resumes every one of them bit-identically. This is
    /// what the serve daemon runs on `shutdown` — unlike
    /// [`Fleet::shutdown`], it does not wait for the backlog.
    pub fn drain(&self) -> Metrics {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for kill in &self.shared.kills {
            kill.cancel();
        }
        self.shared.changed.notify_all();
        let threads: Vec<_> = unpoisoned(self.threads.lock()).drain(..).collect();
        for thread in threads {
            let _ = thread.join();
        }
        self.shared.telemetry.metrics()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One probe read against a candidate board: does it still answer?
fn probe_board(board: &fpga_sim::Snow3gBoard) -> bool {
    KeystreamOracle::keystream(board, &board.extract_bitstream(), 1).is_ok()
}

/// How one session run left its worker.
enum Verdict {
    /// Terminal outcome recorded; the worker keeps working.
    Continue,
    /// The kill switch interrupted the session: requeue it and exit
    /// (kill-and-steal).
    Requeue,
    /// The board died mid-session and is quarantined: migrate the
    /// session to a healthy peer and retire the worker.
    Migrate,
    /// The board died but the session still reached a terminal state:
    /// retire the worker without requeueing anything.
    Retire,
}

fn worker_loop(shared: &Shared, index: usize) {
    let started = Instant::now();
    let mut busy = Duration::ZERO;
    // The worker's board pool: one built board, reused across
    // sessions (clean sessions borrow it, noisy sessions wrap it in
    // the fault model and unwrap it back). Lost to a panicked
    // session, rebuilt lazily.
    let mut pool: Option<fpga_sim::Snow3gBoard> = None;
    let kill = shared.kills[index].clone();

    while let Some(id) = next_session(shared, index, &kill) {
        let Some(handle) = shared.store.get(&id) else {
            session_done(shared);
            continue;
        };
        let t0 = Instant::now();
        let verdict = run_session(shared, index, &mut pool, &kill, &handle);
        busy += t0.elapsed();
        session_done(shared);
        match verdict {
            Verdict::Continue => {}
            // Interrupted mid-session: hand the session back (its
            // journal stays on disk, so the peer resumes it
            // bit-identically), then exit. A kill and a board death
            // ride the same requeue path; only the counter differs.
            Verdict::Requeue | Verdict::Migrate => {
                handle.mark_requeued();
                let mut sched = unpoisoned(shared.sched.lock());
                sched.injector.push_back(id);
                drop(sched);
                let counter = match verdict {
                    Verdict::Migrate => names::FLEET_SESSIONS_MIGRATED,
                    // A drain's requeue is a parked checkpoint, not a
                    // steal: no peer will pick it up this boot.
                    _ if shared.draining.load(Ordering::SeqCst) => names::FLEET_DRAIN_PARKED,
                    _ => names::FLEET_STEAL_COUNT,
                };
                shared.telemetry.incr(counter, 1);
                shared.changed.notify_all();
                break;
            }
            Verdict::Retire => break,
        }
    }

    // Exit bookkeeping: drain the queue so peers can steal the work,
    // record utilisation, mark the slot dead.
    let mut sched = unpoisoned(shared.sched.lock());
    let leftover: Vec<String> = sched.queues[index].drain(..).collect();
    sched.injector.extend(leftover);
    sched.dead[index] = true;
    drop(sched);
    if kill.is_cancelled() && !shared.draining.load(Ordering::SeqCst) {
        shared.telemetry.incr(names::FLEET_WORKERS_KILLED, 1);
    }
    let total = started.elapsed().max(Duration::from_micros(1));
    let pct = (100 * busy.as_micros() / total.as_micros()) as u64;
    shared.telemetry.observe(names::FLEET_WORKER_UTILISATION_PCT, pct.min(100));
    shared.changed.notify_all();
}

/// Blocks until this worker has a session to run; `None` means exit
/// (killed, or shut down with nothing left to do).
fn next_session(shared: &Shared, index: usize, kill: &CancelToken) -> Option<String> {
    let mut sched = unpoisoned(shared.sched.lock());
    loop {
        if kill.is_cancelled() {
            return None;
        }
        if let Some(id) = sched.queues[index].pop_front() {
            sched.active += 1;
            observe_active(shared, sched.active);
            return Some(id);
        }
        if let Some(id) = sched.injector.pop_front() {
            sched.active += 1;
            observe_active(shared, sched.active);
            return Some(id);
        }
        // Steal the back half of the longest peer queue.
        let victim = (0..sched.queues.len())
            .filter(|&j| j != index && !sched.queues[j].is_empty())
            .max_by_key(|&j| sched.queues[j].len());
        if let Some(j) = victim {
            let take = sched.queues[j].len().div_ceil(2);
            let at = sched.queues[j].len() - take;
            let stolen: Vec<String> = sched.queues[j].split_off(at).into();
            shared.telemetry.incr(names::FLEET_STEAL_COUNT, stolen.len() as u64);
            for id in &stolen {
                if let Some(handle) = shared.store.get(id) {
                    handle.mark_requeued();
                }
            }
            sched.queues[index].extend(stolen);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) && sched.queued() == 0 {
            return None;
        }
        let (guard, _) = unpoisoned(shared.changed.wait_timeout(sched, Duration::from_millis(50)));
        sched = guard;
    }
}

fn observe_active(shared: &Shared, active: usize) {
    shared.telemetry.observe(names::FLEET_SESSIONS_ACTIVE, active as u64);
}

fn session_done(shared: &Shared) {
    let mut sched = unpoisoned(shared.sched.lock());
    sched.active -= 1;
    observe_active(shared, sched.active);
    drop(sched);
    shared.telemetry.incr(names::FLEET_SESSIONS_DONE, 1);
    shared.changed.notify_all();
}

/// Runs one session on this worker and reports how it left the
/// worker (see [`Verdict`]).
fn run_session(
    shared: &Shared,
    index: usize,
    pool: &mut Option<fpga_sim::Snow3gBoard>,
    kill: &CancelToken,
    handle: &SessionHandle,
) -> Verdict {
    let spec = handle.spec().clone();
    let layout = handle.layout().clone();
    handle.mark_running(index);
    if layout.journal().exists() {
        shared.telemetry.incr(names::FLEET_SESSIONS_RESUMED, 1);
    }

    let telemetry = match TeeSink::create(&layout.trace(), handle.tap()) {
        Ok(sink) => Telemetry::with_sink(Box::new(sink)),
        // A broken trace sink must not fail the session; metrics
        // still accumulate in memory.
        Err(_) => Telemetry::new(),
    };
    let io = SessionIo {
        journal: Some(layout.journal()),
        resume: ResumePolicy::IfJournalExists,
        telemetry,
        cancel: handle.cancel_token(),
        expected_key: Some(snow3g::vectors::TEST_SET_1_KEY),
    };

    let board = match pool.take().map(Ok).unwrap_or_else(test_set_1_board) {
        Ok(board) => board,
        Err(e) => {
            handle.finish(&SessionOutcome::Failed {
                stats: CellStats::default(),
                note: e.to_string(),
            });
            return Verdict::Continue;
        }
    };

    // The spec owns the ambient noise; the fleet owns which board is
    // pathological (`same_ambient` keeps the two separable, so a
    // migrated session replays identically on the healthy peer).
    let dies_at = shared.pathology.get(index).copied().flatten();
    let run = catch_unwind(AssertUnwindSafe(|| spec.run_on_board(board, dies_at, kill, &io)));
    // Close the leg's trace with the `summary` event, as a local
    // traced run does: every counter, including the full/partial load
    // split, for `tail` readers and the trace file. A broken sink
    // stays non-fatal.
    let _ = io.telemetry.finish();

    match run {
        Ok((result, board, fate)) => {
            // Torn-checkpoint discards happen inside the session run,
            // against its own telemetry; roll them up where
            // `bitmod status` and the fleet counters can see them.
            let torn = io.telemetry.metrics().counter(names::JOURNAL_TORN_DISCARDED);
            if torn > 0 {
                shared.telemetry.incr(names::JOURNAL_TORN_DISCARDED, torn);
            }
            // Fold the board's own fault accounting into its health
            // score; a dead board is quarantined (durably) instead of
            // returning to the pool.
            let mut board_dead = false;
            if let Some(BoardFate { session, local, dead }) = fate {
                // Roll this run's observed-vs-injected gap — faults
                // the board injected that never surfaced as retries,
                // absorbed by voting — up into the fleet counters,
                // where `bitmod status` reads it.
                let observed = io.telemetry.metrics().counter(names::ORACLE_RETRIES);
                shared
                    .telemetry
                    .incr(names::BOARD_FAULT_GAP, session.injected().saturating_sub(observed));
                let score = {
                    let mut boards = unpoisoned(shared.boards.lock());
                    boards[index].observe(&local, dead);
                    boards[index]
                };
                if dead {
                    board_dead = true;
                    health::mark_quarantined(shared.store.root(), index, &score);
                    shared.telemetry.incr(names::FLEET_BOARDS_QUARANTINED, 1);
                }
            }
            if board_dead {
                // The physical board is out of service; its inner
                // simulator does not return to the pool.
                drop(board);
            } else {
                *pool = Some(board);
            }
            match result {
                Ok(report) => {
                    handle.finish(&report.outcome);
                    if board_dead {
                        Verdict::Retire
                    } else {
                        Verdict::Continue
                    }
                }
                Err(e) => {
                    if kill.is_cancelled() {
                        return Verdict::Requeue;
                    }
                    if board_dead {
                        // Board death is board-local, not
                        // session-local: the journal stays on disk and
                        // a healthy peer resumes the exact trace.
                        return Verdict::Migrate;
                    }
                    let outcome = if io.cancel.is_cancelled() {
                        SessionOutcome::Cancelled
                    } else {
                        SessionOutcome::Failed {
                            stats: stats_from(&io.telemetry),
                            note: e.to_string(),
                        }
                    };
                    handle.finish(&outcome);
                    Verdict::Continue
                }
            }
        }
        Err(panic) => {
            // The board moved into the panicked closure and is gone;
            // the pool rebuilds lazily.
            let message = panic
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "session panicked".to_string());
            handle.finish(&SessionOutcome::Failed {
                stats: stats_from(&io.telemetry),
                note: format!("panicked: {message}"),
            });
            Verdict::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::store::SessionState;
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bitmod-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_clean_session_recovers_through_the_fleet() {
        let root = temp_root("clean");
        let fleet = Fleet::start(FleetConfig::new(&root).workers(1)).expect("starts");
        let spec = SessionSpec::builder().batch(fpga_sim::GANG_LANES).build().expect("valid");
        let handle = fleet.submit(spec).expect("submits");
        let status = handle.wait();
        assert_eq!(status.state, SessionState::Recovered, "note: {}", status.note);
        assert!(status.stats.physical > 0, "physical loads accounted");
        assert!(handle.layout().result().exists(), "result.json persisted");
        assert!(!handle.layout().journal().exists(), "journal removed on success");
        let counters = fleet.shutdown();
        assert_eq!(counters.counter(names::FLEET_SESSIONS_SUBMITTED), 1);
        assert_eq!(counters.counter(names::FLEET_SESSIONS_DONE), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cancelling_a_session_reaches_a_cancelled_terminal_state() {
        let root = temp_root("cancel");
        let fleet = Fleet::start(FleetConfig::new(&root).workers(1)).expect("starts");
        // Cancel before submission can win the race with the worker:
        // cancel the handle immediately; whichever query it lands on,
        // the terminal state must be Cancelled, never a wrong result.
        let spec = SessionSpec::builder().build().expect("valid");
        let handle = fleet.submit(spec).expect("submits");
        handle.cancel();
        let status = handle.wait();
        assert!(
            matches!(status.state, SessionState::Cancelled | SessionState::Recovered),
            "cancel races completion, got {:?} ({})",
            status.state,
            status.note
        );
        let _ = fleet.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
