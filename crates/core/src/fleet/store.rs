//! The fleet's session table: durable admission, live handles, and
//! terminal results.
//!
//! Every submitted session gets a [`SessionSlot`] (shared in-memory
//! state guarded by one mutex + condvar) and a
//! [`SessionLayout`] directory on disk
//! holding its spec, crash-safe journal, NDJSON trace and — once the
//! session ends — a one-line `result.json`. The directory is the
//! durable truth: on boot the store rescans the fleet root, rebuilds
//! terminal slots from their results, and hands sessions *without* a
//! result back to the scheduler, which resumes them from their
//! journals exactly as it resumes sessions stolen from a killed
//! worker.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::time::Duration;

use crate::journal;

use super::layout::{SessionLayout, SPEC_FILE, TOKEN_FILE};
use super::session::{CancelToken, CellStats, SessionError, SessionOutcome, SessionSpec};
use super::wire;

/// Takes a lock (or condvar wait) result whether or not a panicking
/// thread poisoned it. The fleet's locks guard plain data (status
/// fields, queues, maps) that a panic cannot leave half-built, so one
/// panicking thread must not take `status`, `tail` or the scheduler
/// down with it.
pub(super) fn unpoisoned<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Where a session is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted, waiting in a worker queue (or waiting to be stolen).
    Queued,
    /// Executing on a worker.
    Running,
    /// Terminal: the key was recovered and verified.
    Recovered,
    /// Terminal: the physical-query budget ran out (the journal holds
    /// the partial result).
    Exhausted,
    /// Terminal: completed without the key, or aborted on an error or
    /// a panic.
    Failed,
    /// Terminal: cancelled.
    Cancelled,
}

impl SessionState {
    /// Whether this state is terminal.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        !matches!(self, SessionState::Queued | SessionState::Running)
    }

    /// The wire string (`queued`, `running`, `recovered`, …).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Recovered => "recovered",
            SessionState::Exhausted => "exhausted",
            SessionState::Failed => "failed",
            SessionState::Cancelled => "cancelled",
        }
    }

    /// Parses the wire string back.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "queued" => SessionState::Queued,
            "running" => SessionState::Running,
            "recovered" => SessionState::Recovered,
            "exhausted" => SessionState::Exhausted,
            "failed" => SessionState::Failed,
            "cancelled" => SessionState::Cancelled,
            _ => return None,
        })
    }
}

/// A point-in-time view of one session, as reported by
/// [`SessionHandle::status`] and the `status` wire verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStatus {
    /// The session id (`s000042`).
    pub id: String,
    /// Life-cycle state.
    pub state: SessionState,
    /// The worker currently (or last) running it.
    pub worker: Option<usize>,
    /// How many times the session changed hands (steals + boot
    /// resumes).
    pub steals: u64,
    /// Effort accounting (final for terminal sessions, zero before).
    pub stats: CellStats,
    /// Failure note / exhaustion summary, when any.
    pub note: String,
}

/// The live NDJSON telemetry of a session, shared between the
/// worker's tee sink and `tail` readers.
#[derive(Debug, Clone, Default)]
pub struct TapBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl TapBuffer {
    /// The complete NDJSON lines captured so far.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        let bytes = unpoisoned(self.bytes.lock());
        let text = String::from_utf8_lossy(&bytes);
        let mut lines: Vec<String> = text.split('\n').map(str::to_string).collect();
        // A trailing partial line (no newline yet) is not complete.
        if let Some(last) = lines.last() {
            if last.is_empty() || !text.ends_with('\n') {
                lines.pop();
            }
        }
        lines.retain(|l| !l.is_empty());
        lines
    }

    fn append(&self, buf: &[u8]) {
        unpoisoned(self.bytes.lock()).extend_from_slice(buf);
    }
}

/// A telemetry sink that tees every NDJSON event to the session's
/// on-disk trace file and its in-memory [`TapBuffer`] (what `tail`
/// streams).
#[derive(Debug)]
pub struct TeeSink {
    file: fs::File,
    tap: TapBuffer,
}

impl TeeSink {
    /// A sink writing `path` (truncated) and `tap`.
    ///
    /// # Errors
    ///
    /// The underlying `File::create` error.
    pub fn create(path: &Path, tap: TapBuffer) -> io::Result<Self> {
        Ok(Self { file: fs::File::create(path)?, tap })
    }
}

impl Write for TeeSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tap.append(buf);
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

#[derive(Debug)]
struct SlotState {
    state: SessionState,
    worker: Option<usize>,
    steals: u64,
    stats: CellStats,
    note: String,
}

/// The shared record of one session.
#[derive(Debug)]
pub struct SessionSlot {
    id: String,
    spec: SessionSpec,
    layout: SessionLayout,
    cancel: CancelToken,
    tap: TapBuffer,
    state: Mutex<SlotState>,
    changed: Condvar,
}

/// A clonable handle to one fleet session: poll, await, cancel, tap
/// telemetry. This (plus [`SessionSpec`]) is the redesigned public
/// face of running an attack — CLI, server and tests all hold these.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    slot: Arc<SessionSlot>,
}

impl SessionHandle {
    /// The session id (`s000042`).
    #[must_use]
    pub fn id(&self) -> &str {
        &self.slot.id
    }

    /// The submitted spec.
    #[must_use]
    pub fn spec(&self) -> &SessionSpec {
        &self.slot.spec
    }

    /// The session's on-disk layout.
    #[must_use]
    pub fn layout(&self) -> &SessionLayout {
        &self.slot.layout
    }

    /// A point-in-time status snapshot.
    #[must_use]
    pub fn status(&self) -> SessionStatus {
        let s = unpoisoned(self.slot.state.lock());
        SessionStatus {
            id: self.slot.id.clone(),
            state: s.state,
            worker: s.worker,
            steals: s.steals,
            stats: s.stats.clone(),
            note: s.note.clone(),
        }
    }

    /// The current life-cycle state.
    #[must_use]
    pub fn state(&self) -> SessionState {
        unpoisoned(self.slot.state.lock()).state
    }

    /// Requests cooperative cancellation (takes effect at the next
    /// oracle query).
    pub fn cancel(&self) {
        self.slot.cancel.cancel();
    }

    /// Blocks until the session reaches a terminal state.
    #[must_use]
    pub fn wait(&self) -> SessionStatus {
        let mut s = unpoisoned(self.slot.state.lock());
        while !s.state.is_terminal() {
            s = unpoisoned(self.slot.changed.wait(s));
        }
        drop(s);
        self.status()
    }

    /// Blocks until terminal or `timeout`; `None` on timeout.
    #[must_use]
    pub fn wait_timeout(&self, timeout: Duration) -> Option<SessionStatus> {
        let deadline = std::time::Instant::now() + timeout;
        let mut s = unpoisoned(self.slot.state.lock());
        while !s.state.is_terminal() {
            let left = deadline.checked_duration_since(std::time::Instant::now())?;
            let (guard, result) = unpoisoned(self.slot.changed.wait_timeout(s, left));
            s = guard;
            if result.timed_out() && !s.state.is_terminal() {
                return None;
            }
        }
        drop(s);
        Some(self.status())
    }

    /// The complete NDJSON telemetry lines captured so far (the
    /// `tail` stream source).
    #[must_use]
    pub fn tap_lines(&self) -> Vec<String> {
        self.slot.tap.lines()
    }

    /// The tap buffer a worker's tee sink writes into.
    #[must_use]
    pub(crate) fn tap(&self) -> TapBuffer {
        self.slot.tap.clone()
    }

    /// The cancellation token the worker threads through
    /// [`SessionIo`](super::session::SessionIo).
    #[must_use]
    pub(crate) fn cancel_token(&self) -> CancelToken {
        self.slot.cancel.clone()
    }

    /// Marks the session running on `worker`.
    pub(crate) fn mark_running(&self, worker: usize) {
        let mut s = unpoisoned(self.slot.state.lock());
        s.state = SessionState::Running;
        s.worker = Some(worker);
        drop(s);
        self.slot.changed.notify_all();
    }

    /// Returns the session to the queued state after a steal or a
    /// worker death, counting the hand-over.
    pub(crate) fn mark_requeued(&self) {
        let mut s = unpoisoned(self.slot.state.lock());
        s.state = SessionState::Queued;
        s.steals += 1;
        drop(s);
        self.slot.changed.notify_all();
    }

    /// Finishes the session: records the outcome, persists the
    /// one-line `result.json` (atomic sibling-rename write), and
    /// wakes every waiter. Persistence failure is folded into the
    /// note rather than escalated — the in-memory outcome stands.
    pub(crate) fn finish(&self, outcome: &SessionOutcome) {
        let stats = outcome.stats();
        let state = match outcome {
            SessionOutcome::Recovered(_) => SessionState::Recovered,
            SessionOutcome::Exhausted { .. } => SessionState::Exhausted,
            SessionOutcome::Failed { .. } => SessionState::Failed,
            SessionOutcome::Cancelled => SessionState::Cancelled,
        };
        let mut note = outcome.note().to_string();
        let line = wire::result_json(state, &stats, outcome.note());
        if let Err(e) = journal::write_atomic(&self.slot.layout.result(), line.as_bytes()) {
            note = format!("{note} [result.json not persisted: {e}]");
        }
        let mut s = unpoisoned(self.slot.state.lock());
        s.state = state;
        s.stats = stats;
        s.note = note;
        drop(s);
        self.slot.changed.notify_all();
    }
}

/// The session table plus its durable root directory.
#[derive(Debug)]
pub struct SessionStore {
    root: PathBuf,
    slots: Mutex<BTreeMap<String, Arc<SessionSlot>>>,
    next: Mutex<u64>,
    /// Submit idempotency: token → session id. Rebuilt from the
    /// per-session token files on boot, so a client retrying a submit
    /// across a daemon restart still dedupes.
    tokens: Mutex<BTreeMap<String, String>>,
}

impl SessionStore {
    /// Opens (or creates) the store rooted at `root` and rescans it:
    /// session directories with a `result.json` come back as terminal
    /// slots; directories without one are returned as the second
    /// element — interrupted sessions the scheduler must requeue and
    /// resume from their journals.
    ///
    /// # Errors
    ///
    /// [`SessionError::Layout`] when the root cannot be created or
    /// read.
    pub fn open(root: impl Into<PathBuf>) -> Result<(Self, Vec<SessionHandle>), SessionError> {
        let root = root.into();
        let io_err = |source| {
            SessionError::Layout(super::layout::LayoutError::Io { dir: root.clone(), source })
        };
        fs::create_dir_all(&root).map_err(io_err)?;
        let store = Self {
            root: root.clone(),
            slots: Mutex::new(BTreeMap::new()),
            next: Mutex::new(1),
            tokens: Mutex::new(BTreeMap::new()),
        };
        let mut pending = Vec::new();
        let mut max_id = 0u64;
        for entry in fs::read_dir(&root).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(seq) = parse_session_id(&name) else { continue };
            max_id = max_id.max(seq);
            let layout = SessionLayout::for_session(&root, &name);
            let Ok(spec_line) = fs::read_to_string(layout.spec()) else { continue };
            let Ok(spec) = SessionSpec::from_wire(spec_line.trim()) else { continue };
            if let Ok(token) = fs::read_to_string(layout.token()) {
                let token = token.trim().to_string();
                if !token.is_empty() {
                    unpoisoned(store.tokens.lock()).insert(token, name.clone());
                }
            }
            let (state, stats, note, requeue) = match fs::read_to_string(layout.result()) {
                // A result that exists but does not parse is a torn
                // write (crash mid-rename): the truth it recorded is
                // gone, so requeue and let the deterministic attack
                // re-derive it — same seed, same totals.
                Ok(line) => match wire::parse_result_json(&line) {
                    Some((state, stats, note)) => (state, stats, note, false),
                    None => {
                        let _ = fs::remove_file(layout.result());
                        (SessionState::Queued, CellStats::default(), String::new(), true)
                    }
                },
                // No result: the session was interrupted — requeue it.
                Err(_) => (SessionState::Queued, CellStats::default(), String::new(), true),
            };
            let slot = Arc::new(SessionSlot {
                id: name.clone(),
                spec,
                layout,
                cancel: CancelToken::new(),
                tap: TapBuffer::default(),
                state: Mutex::new(SlotState { state, worker: None, steals: 0, stats, note }),
                changed: Condvar::new(),
            });
            let handle = SessionHandle { slot: slot.clone() };
            unpoisoned(store.slots.lock()).insert(name, slot);
            if requeue {
                pending.push(handle);
            }
        }
        *unpoisoned(store.next.lock()) = max_id + 1;
        Ok((store, pending))
    }

    /// The fleet root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Admits a new session: assigns the next id, atomically creates
    /// its directory seeded with the wire-form spec, and returns the
    /// handle (state [`SessionState::Queued`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::Layout`] when the directory cannot be created.
    pub fn admit(&self, spec: SessionSpec) -> Result<SessionHandle, SessionError> {
        self.admit_with_token(spec, None).map(|(handle, _)| handle)
    }

    /// [`SessionStore::admit`] with an optional client idempotency
    /// token. A token the store has already admitted returns the
    /// *original* session's handle and `true` — a client retrying a
    /// submit whose acknowledgement was lost mid-frame never enqueues
    /// a twin. The token is persisted inside the session directory so
    /// dedup survives a daemon restart.
    ///
    /// # Errors
    ///
    /// [`SessionError::Layout`] when the directory cannot be created.
    pub fn admit_with_token(
        &self,
        spec: SessionSpec,
        token: Option<&str>,
    ) -> Result<(SessionHandle, bool), SessionError> {
        // Held across id allocation + directory creation so two racing
        // submits with one token cannot both miss the map.
        let mut tokens = unpoisoned(self.tokens.lock());
        if let Some(token) = token {
            if let Some(id) = tokens.get(token) {
                if let Some(handle) = self.get(id) {
                    return Ok((handle, true));
                }
            }
        }
        let id = {
            let mut next = unpoisoned(self.next.lock());
            let id = format!("s{:06}", *next);
            *next += 1;
            id
        };
        let layout = SessionLayout::for_session(&self.root, &id);
        let spec_line = format!("{}\n", spec.to_wire());
        let token_line;
        let mut seed_files = vec![(SPEC_FILE, spec_line.as_str())];
        if let Some(token) = token {
            token_line = format!("{token}\n");
            seed_files.push((TOKEN_FILE, token_line.as_str()));
        }
        layout.create(&seed_files)?;
        if let Some(token) = token {
            tokens.insert(token.to_string(), id.clone());
        }
        drop(tokens);
        let slot = Arc::new(SessionSlot {
            id: id.clone(),
            spec,
            layout,
            cancel: CancelToken::new(),
            tap: TapBuffer::default(),
            state: Mutex::new(SlotState {
                state: SessionState::Queued,
                worker: None,
                steals: 0,
                stats: CellStats::default(),
                note: String::new(),
            }),
            changed: Condvar::new(),
        });
        unpoisoned(self.slots.lock()).insert(id, slot.clone());
        Ok((SessionHandle { slot }, false))
    }

    /// The handle of session `id`, when known.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<SessionHandle> {
        unpoisoned(self.slots.lock()).get(id).map(|slot| SessionHandle { slot: slot.clone() })
    }

    /// Every known session, in id order.
    #[must_use]
    pub fn all(&self) -> Vec<SessionHandle> {
        unpoisoned(self.slots.lock())
            .values()
            .map(|slot| SessionHandle { slot: slot.clone() })
            .collect()
    }
}

/// Parses `s000042`-style ids back to their sequence number.
fn parse_session_id(name: &str) -> Option<u64> {
    let digits = name.strip_prefix('s')?;
    if digits.len() != 6 {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bitmod-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn admit_creates_a_seeded_directory_and_sequential_ids() {
        let root = temp_root("admit");
        let (store, pending) = SessionStore::open(&root).expect("opens");
        assert!(pending.is_empty());
        let spec = SessionSpec::builder().seed(9).build().expect("valid");
        let a = store.admit(spec.clone()).expect("admits");
        let b = store.admit(spec).expect("admits");
        assert_eq!(a.id(), "s000001");
        assert_eq!(b.id(), "s000002");
        assert_eq!(a.state(), SessionState::Queued);
        let on_disk = fs::read_to_string(a.layout().spec()).expect("spec file");
        assert_eq!(SessionSpec::from_wire(on_disk.trim()).expect("parses"), *a.spec());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn boot_scan_rebuilds_terminal_slots_and_requeues_interrupted_ones() {
        let root = temp_root("boot");
        {
            let (store, _) = SessionStore::open(&root).expect("opens");
            let spec = SessionSpec::builder().build().expect("valid");
            let done = store.admit(spec.clone()).expect("admits");
            let _interrupted = store.admit(spec).expect("admits");
            done.finish(&SessionOutcome::Recovered(CellStats {
                physical: 545,
                logical: 100,
                retries: 0,
                backoff_ms: 0,
            }));
        }
        // "New process": reopen the same root.
        let (store, pending) = SessionStore::open(&root).expect("reopens");
        assert_eq!(pending.len(), 1, "only the resultless session is requeued");
        assert_eq!(pending[0].id(), "s000002");
        let done = store.get("s000001").expect("terminal slot rebuilt");
        let status = done.status();
        assert_eq!(status.state, SessionState::Recovered);
        assert_eq!(status.stats.physical, 545);
        // Fresh ids continue past the scanned maximum.
        let next = store.admit(SessionSpec::builder().build().unwrap()).expect("admits");
        assert_eq!(next.id(), "s000003");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tokened_admission_dedupes_within_and_across_boots() {
        let root = temp_root("token");
        let spec = SessionSpec::builder().seed(4).build().expect("valid");
        {
            let (store, _) = SessionStore::open(&root).expect("opens");
            let (a, deduped) = store.admit_with_token(spec.clone(), Some("tok-1")).expect("admits");
            assert!(!deduped);
            let (b, deduped) = store.admit_with_token(spec.clone(), Some("tok-1")).expect("dedups");
            assert!(deduped);
            assert_eq!(a.id(), b.id());
            let (c, deduped) = store.admit_with_token(spec.clone(), Some("tok-2")).expect("admits");
            assert!(!deduped);
            assert_ne!(a.id(), c.id());
            assert_eq!(store.all().len(), 2);
        }
        // The token file survives the restart and still dedupes.
        let (store, pending) = SessionStore::open(&root).expect("reopens");
        assert_eq!(pending.len(), 2, "both interrupted sessions requeue");
        let (again, deduped) = store.admit_with_token(spec, Some("tok-1")).expect("dedups");
        assert!(deduped);
        assert_eq!(again.id(), "s000001");
        assert_eq!(store.all().len(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_torn_result_json_requeues_instead_of_reporting_garbage() {
        let root = temp_root("torn-result");
        {
            let (store, _) = SessionStore::open(&root).expect("opens");
            let handle = store.admit(SessionSpec::builder().build().unwrap()).expect("admits");
            handle.finish(&SessionOutcome::Recovered(CellStats {
                physical: 545,
                logical: 100,
                retries: 0,
                backoff_ms: 0,
            }));
            // Tear the result mid-line, as a crash between write and
            // fsync would.
            let full = fs::read_to_string(handle.layout().result()).expect("result");
            fs::write(handle.layout().result(), &full[..full.len() / 2]).expect("tears");
        }
        let (store, pending) = SessionStore::open(&root).expect("reopens");
        assert_eq!(pending.len(), 1, "the torn session is requeued, not marked failed");
        assert_eq!(pending[0].state(), SessionState::Queued);
        assert!(!pending[0].layout().result().exists(), "the torn record is cleared");
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wait_timeout_times_out_on_a_queued_session() {
        let root = temp_root("wait");
        let (store, _) = SessionStore::open(&root).expect("opens");
        let handle = store.admit(SessionSpec::builder().build().unwrap()).expect("admits");
        assert!(handle.wait_timeout(Duration::from_millis(20)).is_none());
        handle.finish(&SessionOutcome::Cancelled);
        let status = handle.wait_timeout(Duration::from_millis(20)).expect("terminal");
        assert_eq!(status.state, SessionState::Cancelled);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_panic_holding_a_slot_lock_leaves_the_session_answering() {
        let root = temp_root("poison");
        let (store, _) = SessionStore::open(&root).expect("opens");
        let handle = store.admit(SessionSpec::builder().build().unwrap()).expect("admits");
        let slot = Arc::clone(&handle.slot);
        let panicked = std::thread::spawn(move || {
            let _held = slot.state.lock();
            panic!("worker panics while holding the slot lock");
        })
        .join();
        assert!(panicked.is_err(), "the holder panicked");
        assert!(handle.slot.state.is_poisoned(), "the slot lock is poisoned");

        assert_eq!(handle.status().state, SessionState::Queued);
        assert!(handle.wait_timeout(Duration::from_millis(20)).is_none());
        handle.finish(&SessionOutcome::Cancelled);
        let status = handle.wait_timeout(Duration::from_millis(20)).expect("terminal");
        assert_eq!(status.state, SessionState::Cancelled);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tap_buffer_returns_only_complete_lines() {
        let tap = TapBuffer::default();
        tap.append(b"{\"seq\":0}\n{\"seq\":1}\n{\"par");
        assert_eq!(tap.lines(), vec!["{\"seq\":0}".to_string(), "{\"seq\":1}".to_string()]);
        tap.append(b"tial\":true}\n");
        assert_eq!(tap.lines().len(), 3);
    }
}
