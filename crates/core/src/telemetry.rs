//! Attack-phase telemetry: spans, counters, histograms and an NDJSON
//! event sink.
//!
//! The paper's evaluation is an *effort* story — candidate counts per
//! round, keystream queries per phase, overhead of the countermeasure
//! — yet the attack pipeline only ever reported totals. This module
//! records where the work actually goes:
//!
//! * **hierarchical spans** over the attack phases (candidate search,
//!   z-path verification, feedback recovery, key-independent
//!   configuration / lattice inference, pair disambiguation, key
//!   extraction), each closing with the oracle-effort delta it
//!   consumed;
//! * **counters and histograms** hung at the oracle chokepoints
//!   ([`crate::resilient::ResilientOracle`] and
//!   [`crate::fleet::SupervisedOracle`]): bitstream loads,
//!   keystream reads, retries, virtual-clock backoff, journal writes,
//!   and board faults observed vs. injected;
//! * an **NDJSON event sink** (`bitmod attack --trace out.ndjson`)
//!   plus an end-of-run [`Telemetry::summary_table`].
//!
//! ## Inertness
//!
//! The recorder is *provably inert*: it never draws from any RNG,
//! never advances the virtual clock, and never changes the order or
//! count of oracle queries. It only reads counter deltas that the
//! instrumented code already maintains and writes to its own sink.
//! An instrumented run therefore produces a bit-identical query trace
//! — same keys, same stats, same journal bytes — as an uninstrumented
//! one (pinned by the differential test in `tests/telemetry.rs`).
//! Wall-clock span durations appear **only** in the NDJSON events,
//! never in [`Metrics`], so the metrics map itself is deterministic.
//!
//! ## Merge algebra
//!
//! [`Metrics::merge`] is associative and commutative (counters add,
//! histogram buckets add bucket-wise, min/max combine by min/max), so
//! sessions and sweep cells can be rolled up in any split order — the property
//! the proptests at the bottom of this file pin.

use core::fmt;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Well-known metric names. Free-form names are allowed everywhere;
/// these constants are the ones the built-in instrumentation emits.
pub mod names {
    /// Logical oracle queries (majority-voted reads).
    pub const ORACLE_QUERIES: &str = "oracle.queries";
    /// Physical bitstream loads (what the budget caps).
    pub const ORACLE_LOADS: &str = "oracle.loads";
    /// Successful full keystream reads (majority-vote ballots).
    pub const ORACLE_READS: &str = "oracle.reads";
    /// Transient faults observed and absorbed by retry.
    pub const ORACLE_RETRIES: &str = "oracle.retries";
    /// Virtual milliseconds spent backing off.
    pub const ORACLE_BACKOFF_MS: &str = "oracle.backoff_ms";
    /// Histogram: physical loads per logical query.
    pub const ORACLE_LOADS_PER_QUERY: &str = "oracle.loads_per_query";
    /// Histogram: backoff milliseconds per logical query.
    pub const ORACLE_BACKOFF_PER_QUERY: &str = "oracle.backoff_ms_per_query";
    /// Crash-safe journal writes.
    pub const JOURNAL_WRITES: &str = "journal.writes";
    /// Bytes written to the crash-safe journal (cumulative).
    pub const JOURNAL_BYTES: &str = "journal.bytes";
    /// Histogram: bytes per journal write.
    pub const JOURNAL_BYTES_PER_WRITE: &str = "journal.bytes_per_write";
    /// Keystream calls seen by the session's supervised oracle.
    pub const SUPERVISED_CALLS: &str = "supervised.keystream_calls";
    /// Queries rejected by cancellation or a session deadline.
    pub const SUPERVISED_REJECTIONS: &str = "supervised.rejections";
    /// Board: load attempts the (simulated) device saw.
    pub const BOARD_LOADS: &str = "board.loads_attempted";
    /// Board: transient load failures injected.
    pub const BOARD_TRANSIENT: &str = "board.faults.transient_load";
    /// Board: configuration timeouts injected.
    pub const BOARD_TIMEOUTS: &str = "board.faults.timeout";
    /// Board: truncated keystream reads injected.
    pub const BOARD_TRUNCATED: &str = "board.faults.truncated_read";
    /// Board: keystream bits flipped by glitch injection.
    pub const BOARD_BITS_FLIPPED: &str = "board.faults.bits_flipped";
    /// Board: total faults injected across all classes.
    pub const BOARD_INJECTED: &str = "board.faults.injected";
    /// Board: faults the board injected that the oracle layer never
    /// observed as retries — the observed-vs-injected gap. Truncations
    /// surface as short reads (observed), but bit glitches only show
    /// up when a majority ballot is outvoted, so a persistent gap on a
    /// glitchy board means the vote count is too low to *see* the
    /// noise it is absorbing.
    pub const BOARD_FAULT_GAP: &str = "board.faults.unobserved_gap";
    /// Adaptive policy: escalation transitions.
    pub const POLICY_ESCALATIONS: &str = "policy.escalations";
    /// Adaptive policy: de-escalation transitions.
    pub const POLICY_DEESCALATIONS: &str = "policy.de_escalations";
    /// Histogram: policy level after each transition.
    pub const POLICY_LEVEL: &str = "policy.level";
    /// FINDLUT candidates found (phase 1, all shapes).
    pub const SCAN_CANDIDATES: &str = "scan.candidates";
    /// Batched oracle calls issued (each covers many candidates).
    pub const ORACLE_BATCHES: &str = "oracle.batches";
    /// Logical queries served through the batched path.
    pub const ORACLE_BATCHED_QUERIES: &str = "oracle.batched_queries";
    /// Histogram: candidates per batched oracle call.
    pub const ORACLE_BATCH_SIZE: &str = "oracle.batch_size";
    /// Histogram: percent of gang lanes occupied per batched call
    /// (`100 × items / (gang passes × lanes per pass)`).
    pub const ORACLE_LANE_UTILISATION_PCT: &str = "oracle.lane_utilisation_pct";
    /// Fleet: sessions admitted to the scheduler.
    pub const FLEET_SESSIONS_SUBMITTED: &str = "fleet.sessions_submitted";
    /// Fleet: histogram of concurrently-running sessions, observed at
    /// every session start and finish.
    pub const FLEET_SESSIONS_ACTIVE: &str = "fleet.sessions_active";
    /// Fleet: sessions driven to a terminal state.
    pub const FLEET_SESSIONS_DONE: &str = "fleet.sessions_done";
    /// Fleet: sessions that changed hands — stolen from a busy or
    /// killed worker's queue.
    pub const FLEET_STEAL_COUNT: &str = "fleet.steal_count";
    /// Fleet: sessions that started from an existing journal (a boot
    /// recovery or a kill-and-steal resume).
    pub const FLEET_SESSIONS_RESUMED: &str = "fleet.sessions_resumed";
    /// Fleet: histogram of per-worker busy-time percentages, observed
    /// once per worker at shutdown.
    pub const FLEET_WORKER_UTILISATION_PCT: &str = "fleet.worker_utilisation_pct";
    /// Fleet: workers that exited after a kill switch.
    pub const FLEET_WORKERS_KILLED: &str = "fleet.workers_killed";
    /// Fleet: boards quarantined after failing a health check.
    pub const FLEET_BOARDS_QUARANTINED: &str = "fleet.boards_quarantined";
    /// Fleet: sessions migrated off a quarantined board to a healthy
    /// peer.
    pub const FLEET_SESSIONS_MIGRATED: &str = "fleet.sessions_migrated";
    /// Fleet: quarantined boards that answered the boot re-probe and
    /// rejoined the pool.
    pub const FLEET_BOARDS_REPROBED: &str = "fleet.boards_reprobed";
    /// Fleet wire: connections the server accepted.
    pub const FLEET_NET_CONNECTIONS: &str = "fleet.net.connections";
    /// Fleet wire: request frames rejected before dispatch — torn
    /// (unterminated) lines, oversized lines, invalid UTF-8, unknown
    /// verbs and malformed specs all count here.
    pub const FLEET_NET_FRAMES_REJECTED: &str = "fleet.net.frames_rejected";
    /// Fleet wire: reconnect-shaped arrivals — deduplicated submit
    /// retries and cursor-resumed tails, the server-side shadow of
    /// client reconnect loops.
    pub const FLEET_NET_RECONNECTS: &str = "fleet.net.reconnects";
    /// Fleet wire: submit retries answered with an existing session id
    /// via the idempotency token instead of a double enqueue.
    pub const FLEET_NET_SUBMIT_DEDUPED: &str = "fleet.net.submit_deduped";
    /// Fleet wire: tail streams opened (leases granted).
    pub const FLEET_NET_TAILS_OPENED: &str = "fleet.net.tails_opened";
    /// Fleet wire: tail leases reaped after a dead subscriber stopped
    /// acknowledging writes (the heartbeat surfaced the broken pipe).
    pub const FLEET_NET_LEASES_REAPED: &str = "fleet.net.leases_reaped";
    /// Fleet wire: connections closed by the per-connection read
    /// deadline (idle or stalled peers).
    pub const FLEET_NET_IDLE_CLOSED: &str = "fleet.net.idle_closed";
    /// Fleet wire: faults the chaos transport layer injected
    /// (partial/garbled/duplicated writes, drops, delays).
    pub const FLEET_NET_CHAOS_FAULTS: &str = "fleet.net.chaos_faults";
    /// Fleet: running sessions parked (checkpointed and requeued) by a
    /// graceful drain, as distinct from steals and kills.
    pub const FLEET_DRAIN_PARKED: &str = "fleet.drain_parked";
    /// Journals discarded as torn (corruption-class load failure under
    /// the fleet resume policy); the session restarts fresh, which the
    /// counter-keyed fault streams make trace-identical.
    pub const JOURNAL_TORN_DISCARDED: &str = "journal.torn_discarded";
    /// Encrypted path: side-channel power traces collected before
    /// `K_E` was recovered (recorded once per encrypted session).
    pub const SCA_TRACES: &str = "sca.traces_collected";
    /// Encrypted path: candidate loads shipped through the container
    /// (patch-seal + device-side open round trips).
    pub const ENCRYPTED_LOADS: &str = "encrypted.loads";
    /// Encrypted path: CBC blocks re-encrypted across all patches (the
    /// dirty windows).
    pub const ENCRYPTED_BLOCKS_REENCRYPTED: &str = "encrypted.blocks_reencrypted";
    /// Encrypted path: ciphertext blocks reused untouched from the
    /// golden container (the clean prefixes the seekable oracle never
    /// re-processes).
    pub const ENCRYPTED_BLOCKS_REUSED: &str = "encrypted.blocks_reused";
    /// Encrypted path: CBC blocks the device-side seekable verifier
    /// actually decrypted.
    pub const ENCRYPTED_BLOCKS_DECRYPTED: &str = "encrypted.blocks_decrypted";
    /// Encrypted path: body bytes absorbed by incremental re-MACs
    /// (midstate checkpoints make this a suffix, not the whole body).
    pub const ENCRYPTED_MAC_BYTES: &str = "encrypted.mac_bytes";
    /// Partial reconfiguration: loads shipped as frame-delta partial
    /// bitstreams instead of full configurations.
    pub const PR_PARTIAL_LOADS: &str = "pr.partial_loads";
    /// Partial reconfiguration: loads that fell back to (or started
    /// as) full configurations.
    pub const PR_FULL_LOADS: &str = "pr.full_loads";
    /// Partial reconfiguration: configuration frames written through
    /// the partial port (cumulative).
    pub const PR_FRAMES_WRITTEN: &str = "pr.frames_written";
    /// Configuration bytes shipped over the wire, partial and full
    /// loads combined — the quantity delta loading exists to shrink.
    pub const PR_BYTES_SHIPPED: &str = "pr.bytes_shipped";
    /// Histogram: logical queries occupying each gang pass of a
    /// batched call — the per-pass companion of
    /// [`ORACLE_LANE_UTILISATION_PCT`], which averages over the whole
    /// batch and hides the ragged final pass.
    pub const BATCH_OCCUPANCY: &str = "batch.occupancy";
}

/// Number of histogram buckets: bucket 0 holds the value 0; bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket power-of-two histogram of `u64` observations.
///
/// The bucket layout never changes, so merging two histograms is a
/// bucket-wise add — the associativity/commutativity and bucket-count
/// conservation that metric rollup relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value falls into.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram in. Associative and commutative.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the observations (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }
}

/// A mergeable bag of named counters and histograms.
///
/// `merge` forms a commutative monoid with [`Metrics::new`] as the
/// identity, which is what makes per-session rollup
/// order-independent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty metrics bag (the merge identity).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to a counter (creating it at 0).
    pub fn incr(&mut self, name: &str, by: u64) {
        let slot = self.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(by);
    }

    /// Records one observation into a histogram (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_string()).or_default().observe(value);
    }

    /// A counter's value (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram, when present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds another metrics bag in: counters add, histograms merge
    /// bucket-wise. Associative and commutative, with the empty bag
    /// as identity — sessions may be rolled up in any order.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, v) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Renders the end-of-run summary table: every counter, then every
    /// histogram's count, min, max and mean (empty string when nothing
    /// was recorded).
    #[must_use]
    pub fn summary_table(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        use fmt::Write as _;
        let _ = writeln!(out, "telemetry summary");
        let width = self.counters().map(|(n, _)| n.len()).max().unwrap_or(7).max("counter".len());
        let _ = writeln!(out, "  {:width$} | {:>12}", "counter", "value");
        for (name, v) in self.counters() {
            let _ = writeln!(out, "  {name:width$} | {v:>12}");
        }
        if self.histograms().next().is_some() {
            let hwidth =
                self.histograms().map(|(n, _)| n.len()).max().unwrap_or(9).max("histogram".len());
            let _ = writeln!(
                out,
                "  {:hwidth$} | {:>8} | {:>8} | {:>8} | {:>10}",
                "histogram", "count", "min", "max", "mean"
            );
            for (name, h) in self.histograms() {
                let _ = writeln!(
                    out,
                    "  {:hwidth$} | {:>8} | {:>8} | {:>8} | {:>10.1}",
                    name,
                    h.count(),
                    h.min().unwrap_or(0),
                    h.max().unwrap_or(0),
                    h.mean().unwrap_or(0.0)
                );
            }
        }
        out
    }
}

/// A typed telemetry-sink failure: opening the trace file or writing
/// an event to it. Recording APIs never return errors (they are
/// called from oracle chokepoints that must stay inert); the first
/// write failure is captured and surfaced by [`Telemetry::finish`].
#[derive(Debug)]
#[non_exhaustive]
pub enum TelemetryError {
    /// The NDJSON sink could not be created.
    Open {
        /// The path that failed to open.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A write to the sink failed mid-run.
    Sink(io::Error),
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Open { path, source } => {
                write!(f, "cannot open trace sink {}: {source}", path.display())
            }
            TelemetryError::Sink(e) => write!(f, "trace sink write failed: {e}"),
        }
    }
}

impl std::error::Error for TelemetryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TelemetryError::Open { source, .. } => Some(source),
            TelemetryError::Sink(e) => Some(e),
        }
    }
}

/// One open span's bookkeeping.
struct SpanFrame {
    id: u64,
    name: String,
    opened: Instant,
    /// Oracle-effort counters at open, for the close-event delta.
    counters_at_open: BTreeMap<String, u64>,
}

/// The shared recorder state behind an enabled [`Telemetry`] handle.
struct State {
    metrics: Metrics,
    sink: Option<BufWriter<Box<dyn Write + Send>>>,
    sink_error: Option<io::Error>,
    spans: Vec<SpanFrame>,
    next_span_id: u64,
    seq: u64,
}

impl State {
    fn new(sink: Option<Box<dyn Write + Send>>) -> Self {
        Self {
            metrics: Metrics::new(),
            sink: sink.map(BufWriter::new),
            sink_error: None,
            spans: Vec::new(),
            next_span_id: 1,
            seq: 0,
        }
    }

    /// Writes one NDJSON line; the first failure is latched.
    fn emit(&mut self, line: &str) {
        let Some(sink) = &mut self.sink else { return };
        if self.sink_error.is_some() {
            return;
        }
        if let Err(e) = sink.write_all(line.as_bytes()).and_then(|()| sink.write_all(b"\n")) {
            self.sink_error = Some(e);
        }
    }
}

/// A minimal single-line JSON object builder (no escaping surprises:
/// keys are static, strings go through `escape_default`).
struct Json(String);

impl Json {
    fn event(seq: u64, ev: &str) -> Self {
        Self(format!("{{\"seq\":{seq},\"ev\":\"{ev}\""))
    }

    fn num(mut self, key: &str, v: u64) -> Self {
        use fmt::Write as _;
        let _ = write!(self.0, ",\"{key}\":{v}");
        self
    }

    fn opt_num(self, key: &str, v: Option<u64>) -> Self {
        match v {
            Some(v) => self.num(key, v),
            None => self,
        }
    }

    fn str(mut self, key: &str, v: &str) -> Self {
        use fmt::Write as _;
        let _ = write!(self.0, ",\"{key}\":\"{}\"", v.escape_default());
        self
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// The oracle-effort counters whose per-span deltas the span-close
/// events report.
const SPAN_DELTA_COUNTERS: [&str; 5] = [
    names::ORACLE_QUERIES,
    names::ORACLE_LOADS,
    names::ORACLE_READS,
    names::ORACLE_RETRIES,
    names::ORACLE_BACKOFF_MS,
];

/// A cloneable, thread-safe telemetry handle. [`Telemetry::off`] is a
/// free no-op at every recording site (a single `Option` check), so
/// instrumented code pays nothing when tracing is disabled.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<State>>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(_) => f.write_str("Telemetry(on)"),
            None => f.write_str("Telemetry(off)"),
        }
    }
}

impl Telemetry {
    /// The disabled recorder: every call is a no-op.
    #[must_use]
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// An enabled recorder accumulating metrics in memory, with no
    /// event sink.
    #[must_use]
    pub fn new() -> Self {
        Self { inner: Some(Arc::new(Mutex::new(State::new(None)))) }
    }

    /// An enabled recorder that also streams NDJSON events to `sink`.
    #[must_use]
    pub fn with_sink(sink: Box<dyn Write + Send>) -> Self {
        let t = Self { inner: Some(Arc::new(Mutex::new(State::new(Some(sink))))) };
        t.with_state(|s| {
            let line =
                Json::event(s.seq, "trace_start").num("schema", TRACE_SCHEMA_VERSION).finish();
            s.seq += 1;
            s.emit(&line);
        });
        t
    }

    /// An enabled recorder streaming NDJSON to a file at `path`
    /// (created or truncated).
    ///
    /// # Errors
    ///
    /// [`TelemetryError::Open`] when the file cannot be created —
    /// typed, so CLI surfaces can report the path instead of
    /// panicking.
    pub fn to_path(path: impl AsRef<Path>) -> Result<Self, TelemetryError> {
        let path = path.as_ref();
        let file = File::create(path)
            .map_err(|source| TelemetryError::Open { path: path.to_path_buf(), source })?;
        Ok(Self::with_sink(Box::new(file)))
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` on the state when enabled.
    fn with_state<R>(&self, f: impl FnOnce(&mut State) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        let mut state = inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Some(f(&mut state))
    }

    /// A snapshot of the accumulated metrics (empty when disabled).
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.with_state(|s| s.metrics.clone()).unwrap_or_default()
    }

    /// Adds `by` to a counter.
    pub fn incr(&self, name: &str, by: u64) {
        self.with_state(|s| s.metrics.incr(name, by));
    }

    /// Records one histogram observation.
    pub fn observe(&self, name: &str, value: u64) {
        self.with_state(|s| s.metrics.observe(name, value));
    }

    /// Opens a hierarchical span. The returned guard closes it on
    /// drop, emitting a `span_close` event carrying the span's
    /// wall-clock time and oracle-effort delta.
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        let id = self
            .with_state(|s| {
                let id = s.next_span_id;
                s.next_span_id += 1;
                let parent = s.spans.last().map(|f| f.id);
                let line = Json::event(s.seq, "span_open")
                    .num("id", id)
                    .opt_num("parent", parent)
                    .str("name", name)
                    .finish();
                s.seq += 1;
                s.emit(&line);
                s.spans.push(SpanFrame {
                    id,
                    name: name.to_string(),
                    opened: Instant::now(),
                    counters_at_open: s.metrics.counters.clone(),
                });
                id
            })
            .unwrap_or(0);
        Span { telemetry: self.clone(), id }
    }

    /// Closes the span with `id` (invoked by the guard's drop).
    fn close_span(&self, id: u64) {
        self.with_state(|s| {
            let Some(pos) = s.spans.iter().rposition(|f| f.id == id) else { return };
            // Close abandoned inner frames first (a guard leaked by
            // an early return); closing strictly inner-to-outer keeps
            // the event stream well nested.
            while s.spans.len() > pos {
                let frame = s.spans.pop().expect("pos < len");
                let wall_us = u64::try_from(frame.opened.elapsed().as_micros()).unwrap_or(u64::MAX);
                let mut line = Json::event(s.seq, "span_close")
                    .num("id", frame.id)
                    .str("name", &frame.name)
                    .num("wall_us", wall_us);
                for name in SPAN_DELTA_COUNTERS {
                    let now = s.metrics.counter(name);
                    let then = frame.counters_at_open.get(name).copied().unwrap_or(0);
                    let short = name.rsplit('.').next().unwrap_or(name);
                    line = line.num(short, now - then);
                }
                let line = line.finish();
                s.seq += 1;
                s.emit(&line);
            }
        });
    }

    /// Records one logical oracle query: the per-query effort deltas
    /// and its outcome. Called from the resilience layer *after* the
    /// query completed — the recorder observes, never participates.
    pub fn record_query(
        &self,
        loads: u64,
        reads: u64,
        retries: u64,
        backoff_ms: u64,
        outcome: &str,
    ) {
        self.with_state(|s| {
            s.metrics.incr(names::ORACLE_QUERIES, 1);
            s.metrics.incr(names::ORACLE_LOADS, loads);
            s.metrics.incr(names::ORACLE_READS, reads);
            s.metrics.incr(names::ORACLE_RETRIES, retries);
            s.metrics.incr(names::ORACLE_BACKOFF_MS, backoff_ms);
            s.metrics.observe(names::ORACLE_LOADS_PER_QUERY, loads);
            s.metrics.observe(names::ORACLE_BACKOFF_PER_QUERY, backoff_ms);
            let span = s.spans.last().map(|f| f.id);
            let line = Json::event(s.seq, "query")
                .opt_num("span", span)
                .num("loads", loads)
                .num("reads", reads)
                .num("retries", retries)
                .num("backoff_ms", backoff_ms)
                .str("outcome", outcome)
                .finish();
            s.seq += 1;
            s.emit(&line);
        });
    }

    /// Records one batched oracle call of `items` logical queries
    /// dispatched over gang passes of `lanes` lanes each. Like every
    /// recorder entry point this is called *after* the batch
    /// completed and never feeds back into control flow.
    pub fn record_batch(&self, items: u64, lanes: u64) {
        self.with_state(|s| {
            s.metrics.incr(names::ORACLE_BATCHES, 1);
            s.metrics.incr(names::ORACLE_BATCHED_QUERIES, items);
            s.metrics.observe(names::ORACLE_BATCH_SIZE, items);
            // Occupancy across the gang passes the batch needed:
            // a 64-lane device running 65 items takes two passes at
            // ~51% average occupancy.
            let lanes = lanes.max(1);
            let passes = items.div_ceil(lanes).max(1);
            let utilisation = (items * 100) / (passes * lanes);
            s.metrics.observe(names::ORACLE_LANE_UTILISATION_PCT, utilisation);
            // Per-pass occupancy: every full pass carries `lanes`
            // queries; the last carries the remainder.
            let remainder = items - (passes - 1) * lanes;
            for _ in 1..passes {
                s.metrics.observe(names::BATCH_OCCUPANCY, lanes);
            }
            s.metrics.observe(names::BATCH_OCCUPANCY, remainder);
            let span = s.spans.last().map(|f| f.id);
            let line = Json::event(s.seq, "batch")
                .opt_num("span", span)
                .num("items", items)
                .num("lanes", lanes)
                .num("utilisation_pct", utilisation)
                .finish();
            s.seq += 1;
            s.emit(&line);
        });
    }

    /// Records one crash-safe journal write of `bytes` bytes.
    pub fn record_journal_write(&self, bytes: u64) {
        self.with_state(|s| {
            s.metrics.incr(names::JOURNAL_WRITES, 1);
            s.metrics.incr(names::JOURNAL_BYTES, bytes);
            s.metrics.observe(names::JOURNAL_BYTES_PER_WRITE, bytes);
            let line = Json::event(s.seq, "journal_write").num("bytes", bytes).finish();
            s.seq += 1;
            s.emit(&line);
        });
    }

    /// Records the board-side fault accounting (faults *injected*, to
    /// set against the `oracle.retries` faults *observed*). Call once
    /// at end of run with the board's final counters, or with deltas
    /// when metering incrementally.
    pub fn record_board_faults(
        &self,
        loads_attempted: u64,
        transient: u64,
        timeouts: u64,
        truncated: u64,
        bits_flipped: u64,
    ) {
        self.with_state(|s| {
            let injected = transient + timeouts + truncated + bits_flipped;
            s.metrics.incr(names::BOARD_LOADS, loads_attempted);
            s.metrics.incr(names::BOARD_TRANSIENT, transient);
            s.metrics.incr(names::BOARD_TIMEOUTS, timeouts);
            s.metrics.incr(names::BOARD_TRUNCATED, truncated);
            s.metrics.incr(names::BOARD_BITS_FLIPPED, bits_flipped);
            s.metrics.incr(names::BOARD_INJECTED, injected);
            // The observed-vs-injected gap, against the retries this
            // same recorder saw at the oracle chokepoint. Recompute
            // the cumulative gap rather than a per-call delta so the
            // counter stays right however the calls interleave.
            let observed = s.metrics.counter(names::ORACLE_RETRIES);
            let injected_total = s.metrics.counter(names::BOARD_INJECTED);
            let gap = injected_total.saturating_sub(observed);
            s.metrics.counters.insert(names::BOARD_FAULT_GAP.to_string(), gap);
            let line = Json::event(s.seq, "board")
                .num("loads_attempted", loads_attempted)
                .num("transient", transient)
                .num("timeouts", timeouts)
                .num("truncated", truncated)
                .num("bits_flipped", bits_flipped)
                .num("injected", injected)
                .num("unobserved_gap", gap)
                .finish();
            s.seq += 1;
            s.emit(&line);
        });
    }

    /// Records one adaptive-policy transition (called from the
    /// resilience layer *after* the controller already switched —
    /// observation only, never a control input).
    pub fn record_policy(&self, at_query: u64, from_level: u8, to_level: u8, ewma_milli: u32) {
        self.with_state(|s| {
            let name = if to_level > from_level {
                names::POLICY_ESCALATIONS
            } else {
                names::POLICY_DEESCALATIONS
            };
            s.metrics.incr(name, 1);
            s.metrics.observe(names::POLICY_LEVEL, u64::from(to_level));
            let line = Json::event(s.seq, "policy")
                .num("at_query", at_query)
                .num("from_level", u64::from(from_level))
                .num("to_level", u64::from(to_level))
                .num("ewma_milli", u64::from(ewma_milli))
                .finish();
            s.seq += 1;
            s.emit(&line);
        });
    }

    /// Records the phase-1 candidate counts as one event plus a
    /// total counter.
    pub fn record_candidates(&self, counts: &[(&'static str, usize)]) {
        self.with_state(|s| {
            let total: usize = counts.iter().map(|(_, n)| n).sum();
            s.metrics.incr(names::SCAN_CANDIDATES, total as u64);
            let mut line = Json::event(s.seq, "candidates").num("total", total as u64);
            for (name, n) in counts {
                line = line.num(name, *n as u64);
            }
            let line = line.finish();
            s.seq += 1;
            s.emit(&line);
        });
    }

    /// Emits the `summary` event, flushes the sink, and surfaces the
    /// first sink error (if any) — the typed alternative to panicking
    /// inside a recording chokepoint.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::Sink`] if any event write or the final flush
    /// failed.
    pub fn finish(&self) -> Result<(), TelemetryError> {
        self.with_state(|s| {
            let mut line = Json::event(s.seq, "summary");
            let counters: Vec<(String, u64)> =
                s.metrics.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
            for (name, v) in counters {
                line = line.num(&name, v);
            }
            let line = line.finish();
            s.seq += 1;
            s.emit(&line);
            if let Some(sink) = &mut s.sink {
                if let Err(e) = sink.flush() {
                    if s.sink_error.is_none() {
                        s.sink_error = Some(e);
                    }
                }
            }
            match s.sink_error.take() {
                Some(e) => Err(TelemetryError::Sink(e)),
                None => Ok(()),
            }
        })
        .unwrap_or(Ok(()))
    }

    /// Renders the end-of-run summary table of the accumulated metrics
    /// (empty string when disabled or nothing was recorded; see
    /// [`Metrics::summary_table`]).
    #[must_use]
    pub fn summary_table(&self) -> String {
        self.metrics().summary_table()
    }
}

/// The `--trace` NDJSON schema version (the `trace_start` event's
/// `schema` field). Bump on breaking event-shape changes.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// A span guard: closes its span when dropped. Obtained from
/// [`Telemetry::span`]; inert when the telemetry is disabled.
pub struct Span {
    telemetry: Telemetry,
    id: u64,
}

impl Span {
    /// The span's id (0 for the inert guard of a disabled recorder).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id != 0 {
            self.telemetry.close_span(self.id);
        }
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Span({})", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A sink that hands every write to a channel (so the test can
    /// inspect what was emitted) and optionally fails.
    struct ChannelSink {
        tx: mpsc::Sender<Vec<u8>>,
        fail: bool,
    }

    impl Write for ChannelSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.fail {
                return Err(io::Error::other("sink full"));
            }
            self.tx.send(buf.to_vec()).expect("receiver alive");
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            if self.fail {
                Err(io::Error::other("sink full"))
            } else {
                Ok(())
            }
        }
    }

    fn collect_lines(rx: &mpsc::Receiver<Vec<u8>>) -> Vec<String> {
        let mut bytes = Vec::new();
        while let Ok(chunk) = rx.try_recv() {
            bytes.extend(chunk);
        }
        String::from_utf8(bytes).expect("events are UTF-8").lines().map(str::to_string).collect()
    }

    #[test]
    fn histogram_bucket_layout() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1 << 20), 21);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[2], 2, "2 and 3 share bucket [2,4)");
        assert_eq!(h.buckets().iter().sum::<u64>(), h.count(), "buckets partition observations");
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn disabled_telemetry_is_a_no_op() {
        let t = Telemetry::off();
        assert!(!t.is_enabled());
        t.incr("x", 5);
        t.observe("y", 7);
        t.record_query(3, 1, 2, 40, "ok");
        let span = t.span("phase");
        assert_eq!(span.id(), 0);
        drop(span);
        assert!(t.metrics().is_empty());
        assert!(t.summary_table().is_empty());
        t.finish().expect("no sink, no error");
    }

    #[test]
    fn record_query_updates_counters_and_histograms() {
        let t = Telemetry::new();
        t.record_query(3, 1, 2, 40, "ok");
        t.record_query(1, 1, 0, 0, "ok");
        let m = t.metrics();
        assert_eq!(m.counter(names::ORACLE_QUERIES), 2);
        assert_eq!(m.counter(names::ORACLE_LOADS), 4);
        assert_eq!(m.counter(names::ORACLE_READS), 2);
        assert_eq!(m.counter(names::ORACLE_RETRIES), 2);
        assert_eq!(m.counter(names::ORACLE_BACKOFF_MS), 40);
        let h = m.histogram(names::ORACLE_LOADS_PER_QUERY).expect("histogram exists");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(3));
    }

    #[test]
    fn spans_nest_and_emit_effort_deltas() {
        let (tx, rx) = mpsc::channel();
        let t = Telemetry::with_sink(Box::new(ChannelSink { tx, fail: false }));
        {
            let _outer = t.span("attack");
            t.record_query(2, 1, 1, 10, "ok");
            {
                let _inner = t.span("phase:z-path-verification");
                t.record_query(5, 1, 4, 100, "ok");
            }
        }
        t.finish().expect("sink healthy");
        let lines = collect_lines(&rx);
        assert!(lines[0].contains("\"ev\":\"trace_start\""), "{}", lines[0]);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')), "NDJSON lines");
        let open_inner = lines
            .iter()
            .find(|l| l.contains("span_open") && l.contains("z-path"))
            .expect("inner span opened");
        assert!(open_inner.contains("\"parent\":1"), "inner span nests under outer: {open_inner}");
        let close_inner = lines
            .iter()
            .find(|l| l.contains("span_close") && l.contains("z-path"))
            .expect("closed");
        assert!(close_inner.contains("\"loads\":5"), "inner delta is inner-only: {close_inner}");
        let close_outer = lines
            .iter()
            .find(|l| l.contains("span_close") && l.contains("\"name\":\"attack\""))
            .expect("outer closed");
        assert!(close_outer.contains("\"loads\":7"), "outer delta spans both: {close_outer}");
        assert!(lines.last().expect("summary").contains("\"ev\":\"summary\""));
        // Sequence numbers are strictly increasing from 0.
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i},")), "line {i}: {line}");
        }
    }

    #[test]
    fn leaked_inner_spans_are_closed_with_their_parent() {
        let (tx, rx) = mpsc::channel();
        let t = Telemetry::with_sink(Box::new(ChannelSink { tx, fail: false }));
        let outer = t.span("outer");
        let inner = t.span("inner");
        // Drop out of order: outer first. The recorder must close the
        // abandoned inner frame to keep the event stream well nested.
        drop(outer);
        drop(inner);
        t.finish().expect("sink healthy");
        let lines = collect_lines(&rx);
        let closes: Vec<&String> = lines.iter().filter(|l| l.contains("span_close")).collect();
        assert_eq!(closes.len(), 2);
        assert!(closes[0].contains("\"name\":\"inner\""), "inner closes first: {closes:?}");
        assert!(closes[1].contains("\"name\":\"outer\""));
    }

    #[test]
    fn sink_failures_are_latched_and_typed_not_panics() {
        let (tx, _rx) = mpsc::channel();
        let t = Telemetry::with_sink(Box::new(ChannelSink { tx, fail: true }));
        t.record_query(1, 1, 0, 0, "ok"); // must not panic
        let err = t.finish().expect_err("sink failed");
        assert!(matches!(err, TelemetryError::Sink(_)), "{err:?}");
        assert!(err.to_string().contains("sink"), "{err}");
        // Metrics still accumulated despite the dead sink.
        assert_eq!(t.metrics().counter(names::ORACLE_QUERIES), 1);
    }

    #[test]
    fn to_path_reports_unwritable_sinks_as_typed_errors() {
        let dir = std::env::temp_dir().join(format!("bitmod-no-such-dir-{}", std::process::id()));
        let err = Telemetry::to_path(dir.join("trace.ndjson")).expect_err("directory missing");
        assert!(matches!(err, TelemetryError::Open { .. }), "{err:?}");
        assert!(err.to_string().contains("trace.ndjson"), "{err}");
        use std::error::Error as _;
        assert!(err.source().is_some());
    }

    #[test]
    fn summary_table_lists_counters_and_histograms() {
        let t = Telemetry::new();
        t.incr(names::JOURNAL_WRITES, 3);
        t.observe(names::JOURNAL_BYTES_PER_WRITE, 100);
        t.observe(names::JOURNAL_BYTES_PER_WRITE, 300);
        let table = t.summary_table();
        assert!(table.contains("journal.writes"), "{table}");
        assert!(table.contains("journal.bytes_per_write"), "{table}");
        assert!(table.contains("200.0"), "mean rendered: {table}");
    }

    #[test]
    fn board_faults_expose_the_observed_vs_injected_gap() {
        let t = Telemetry::new();
        // The oracle observed 3 retries; the board injected 10 faults
        // (2 transient + 1 timeout + 3 truncated + 4 flipped bits):
        // 7 slipped past the retry layer.
        t.record_query(4, 1, 3, 30, "ok");
        t.record_board_faults(20, 2, 1, 3, 4);
        let m = t.metrics();
        assert_eq!(m.counter(names::BOARD_INJECTED), 10);
        assert_eq!(m.counter(names::BOARD_FAULT_GAP), 7);
        assert!(t.summary_table().contains("board.faults.unobserved_gap"));
        // A later delta call refreshes the cumulative gap.
        t.record_board_faults(5, 0, 0, 0, 2);
        assert_eq!(t.metrics().counter(names::BOARD_FAULT_GAP), 9);
    }

    #[test]
    fn policy_transitions_are_counted_by_direction() {
        let (tx, rx) = mpsc::channel();
        let t = Telemetry::with_sink(Box::new(ChannelSink { tx, fail: false }));
        t.record_policy(10, 0, 1, 240);
        t.record_policy(25, 1, 2, 310);
        t.record_policy(80, 2, 1, 40);
        t.finish().expect("sink healthy");
        let m = t.metrics();
        assert_eq!(m.counter(names::POLICY_ESCALATIONS), 2);
        assert_eq!(m.counter(names::POLICY_DEESCALATIONS), 1);
        let h = m.histogram(names::POLICY_LEVEL).expect("level histogram");
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Some(2));
        let lines = collect_lines(&rx);
        let policy_line = lines.iter().find(|l| l.contains("\"ev\":\"policy\"")).expect("event");
        assert!(policy_line.contains("\"ewma_milli\":240"), "{policy_line}");
    }

    #[test]
    fn merge_is_identity_on_empty() {
        let mut a = Metrics::new();
        a.incr("x", 2);
        a.observe("h", 9);
        let mut b = a.clone();
        b.merge(&Metrics::new());
        assert_eq!(a, b);
        let mut c = Metrics::new();
        c.merge(&a);
        assert_eq!(a, c);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One recording operation, drawn from a small name alphabet so
    /// merges actually collide on keys.
    fn apply_ops(ops: &[(u8, u8, u64)]) -> Metrics {
        let mut m = Metrics::new();
        for &(kind, name, value) in ops {
            let name = ["a", "b", "c", "d"][name as usize % 4];
            if kind % 2 == 0 {
                m.incr(name, value);
            } else {
                m.observe(name, value);
            }
        }
        m
    }

    fn merged(a: &Metrics, b: &Metrics) -> Metrics {
        let mut out = a.clone();
        out.merge(b);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn merge_is_commutative(
            xs in prop::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000), 0..24),
            ys in prop::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000), 0..24),
        ) {
            let (a, b) = (apply_ops(&xs), apply_ops(&ys));
            prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        }

        #[test]
        fn merge_is_associative(
            xs in prop::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000), 0..16),
            ys in prop::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000), 0..16),
            zs in prop::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000), 0..16),
        ) {
            let (a, b, c) = (apply_ops(&xs), apply_ops(&ys), apply_ops(&zs));
            prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        }

        #[test]
        fn histogram_buckets_are_conserved_under_arbitrary_splits(
            values in prop::collection::vec(any::<u64>(), 1..64),
            cut_a in 0usize..64,
            cut_b in 0usize..64,
            reverse in any::<bool>(),
        ) {
            // Reference: all observations into one histogram.
            let mut reference = Histogram::new();
            for &v in &values {
                reference.observe(v);
            }
            // Split the same observations into three chunks, build a
            // histogram per chunk, and merge in an arbitrary order.
            let i = cut_a % (values.len() + 1);
            let j = cut_b % (values.len() + 1);
            let (i, j) = (i.min(j), i.max(j));
            let chunks = [&values[..i], &values[i..j], &values[j..]];
            let mut parts: Vec<Histogram> = chunks
                .iter()
                .map(|chunk| {
                    let mut h = Histogram::new();
                    for &v in *chunk {
                        h.observe(v);
                    }
                    h
                })
                .collect();
            if reverse {
                parts.reverse();
            }
            let mut rebuilt = Histogram::new();
            for part in &parts {
                rebuilt.merge(part);
            }
            prop_assert_eq!(&rebuilt, &reference);
            prop_assert_eq!(rebuilt.buckets().iter().sum::<u64>(), values.len() as u64);
        }

        #[test]
        fn counter_totals_survive_split_merge(
            ops in prop::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000), 1..48),
            cut in 0usize..48,
        ) {
            let whole = apply_ops(&ops);
            let i = cut % (ops.len() + 1);
            let split = merged(&apply_ops(&ops[..i]), &apply_ops(&ops[i..]));
            prop_assert_eq!(whole, split);
        }
    }
}
