//! The `bitmod serve` daemon: a line-protocol front end over a
//! [`Fleet`].
//!
//! One thread accepts connections (TCP or — on Unix — a Unix-domain
//! socket); each connection gets a thread speaking the
//! [`wire`] protocol: newline-framed requests in, one
//! JSON line out per request, except `tail`, which streams the
//! session's NDJSON telemetry until the session is terminal. The
//! daemon is deliberately boring: all scheduling intelligence lives
//! in the [`Fleet`], all framing in [`wire`], so the server is a
//! dispatch table.
//!
//! The connection layer is hardened against a hostile wire: every
//! connection carries a read deadline (an idle peer is closed and
//! counted, never leaked), a torn frame — bytes without their
//! newline, the signature of a mid-frame disconnect — is rejected
//! *without being parsed*, over-cap and non-UTF-8 frames fail typed
//! and close only their own connection, and `tail` subscribers hold a
//! lease: the stream heartbeats when idle, and a subscriber whose
//! socket stops accepting writes is reaped. `shutdown` drains rather
//! than waits — running sessions checkpoint into their journals,
//! queued sessions stay durable, and the next boot resumes both.
//! With [`FleetServer::with_chaos`], every accepted connection is
//! wrapped in a seeded [`ChaosStream`](super::chaos::ChaosStream) —
//! the self-hosted fault injection the chaos-net tests drive.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::telemetry::names;

use super::chaos::{ChaosListener, ChaosProfile, NetStream};
use super::scheduler::Fleet;
use super::store::SessionState;
use super::wire::{self, Request, WireError};

/// Default per-connection read deadline: a peer quiet for this long
/// is closed (and counted as `fleet.net.idle_closed`).
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Where a fleet server listens (and a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address (`127.0.0.1:7545`; port 0 binds an ephemeral
    /// port, printed at startup).
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an `--addr` argument: anything containing a path
    /// separator (or prefixed `unix:`) is a Unix socket path,
    /// everything else a TCP address.
    #[must_use]
    pub fn parse(addr: &str) -> Self {
        #[cfg(unix)]
        {
            if let Some(path) = addr.strip_prefix("unix:") {
                return Endpoint::Unix(PathBuf::from(path));
            }
            if addr.contains('/') {
                return Endpoint::Unix(PathBuf::from(addr));
            }
        }
        Endpoint::Tcp(addr.to_string())
    }
}

impl core::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// The serving front end: bind, then [`FleetServer::run`] until a
/// `shutdown` request arrives.
#[derive(Debug)]
pub struct FleetServer {
    fleet: Arc<Fleet>,
    listener: Listener,
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    chaos: Option<Arc<ChaosListener>>,
    read_timeout: Duration,
}

impl FleetServer {
    /// Binds the endpoint. With `Tcp("…:0")` the kernel assigns a
    /// port — read the bound address back with
    /// [`FleetServer::endpoint`].
    ///
    /// # Errors
    ///
    /// The underlying bind error.
    pub fn bind(endpoint: &Endpoint, fleet: Fleet) -> io::Result<Self> {
        let (listener, endpoint) = match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let bound = Endpoint::Tcp(listener.local_addr()?.to_string());
                (Listener::Tcp(listener), bound)
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // A stale socket file from a killed daemon would make
                // every restart fail; remove it first (connect-level
                // liveness is the client's problem, not bind's).
                let _ = std::fs::remove_file(path);
                (Listener::Unix(UnixListener::bind(path)?), Endpoint::Unix(path.clone()))
            }
        };
        Ok(Self {
            fleet: Arc::new(fleet),
            listener,
            endpoint,
            stop: Arc::new(AtomicBool::new(false)),
            chaos: None,
            read_timeout: DEFAULT_READ_TIMEOUT,
        })
    }

    /// Wraps every accepted connection in a seeded
    /// [`ChaosStream`](super::chaos::ChaosStream) injecting `profile`
    /// — self-hosted wire-fault injection for chaos tests and the
    /// `--chaos-*` serve flags. Faults injected to date surface as
    /// `fleet.net.chaos_faults` in the `counters` verb.
    #[must_use]
    pub fn with_chaos(mut self, profile: ChaosProfile) -> Self {
        self.chaos = Some(Arc::new(ChaosListener::new(profile)));
        self
    }

    /// Overrides the per-connection read deadline (see
    /// [`DEFAULT_READ_TIMEOUT`]).
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// The bound endpoint (with the real port when bound to port 0).
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The fleet behind the server.
    #[must_use]
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// The chaos wrapper, when configured with
    /// [`FleetServer::with_chaos`].
    #[must_use]
    pub fn chaos(&self) -> Option<&Arc<ChaosListener>> {
        self.chaos.as_ref()
    }

    /// Accepts and serves connections until a `shutdown` request,
    /// then *drains* the fleet — running sessions checkpoint into
    /// their journals and requeue, queued sessions stay durable on
    /// disk, and the next boot on the same root resumes both — and
    /// returns.
    pub fn run(self) {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let timeout = self.read_timeout;
            let conn: io::Result<Box<dyn NetStream>> = match &self.listener {
                Listener::Tcp(listener) => listener.accept().and_then(|(s, _)| {
                    s.set_read_timeout(Some(timeout))?;
                    s.set_write_timeout(Some(timeout))?;
                    Ok(Box::new(s) as Box<dyn NetStream>)
                }),
                #[cfg(unix)]
                Listener::Unix(listener) => listener.accept().and_then(|(s, _)| {
                    s.set_read_timeout(Some(timeout))?;
                    s.set_write_timeout(Some(timeout))?;
                    Ok(Box::new(s) as Box<dyn NetStream>)
                }),
            };
            let Ok(conn) = conn else { continue };
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            self.fleet.telemetry().incr(names::FLEET_NET_CONNECTIONS, 1);
            let conn: Box<dyn NetStream> = match &self.chaos {
                Some(chaos) => Box::new(chaos.wrap(conn)),
                None => conn,
            };
            let ctx = ConnCtx {
                fleet: self.fleet.clone(),
                stop: self.stop.clone(),
                endpoint: self.endpoint.clone(),
                chaos: self.chaos.clone(),
            };
            let _ = thread::Builder::new().name("fleet-conn".into()).spawn(move || {
                let _ = serve_connection(&ctx, conn);
            });
        }
        let _ = self.fleet.drain();
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Runs the accept loop on a background thread — the test/embed
    /// entry point. The returned handle joins it.
    #[must_use]
    pub fn spawn(self) -> thread::JoinHandle<()> {
        thread::Builder::new()
            .name("fleet-server".into())
            .spawn(move || self.run())
            .expect("server thread spawns")
    }
}

/// Everything one connection thread needs — bundled so the accept
/// loop hands a single owned context across the spawn.
struct ConnCtx {
    fleet: Arc<Fleet>,
    stop: Arc<AtomicBool>,
    endpoint: Endpoint,
    chaos: Option<Arc<ChaosListener>>,
}

/// Whether an I/O error is a read-deadline expiry (the two kinds the
/// platforms use for socket timeouts).
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

fn serve_connection(ctx: &ConnCtx, conn: Box<dyn NetStream>) -> io::Result<()> {
    let fleet = &ctx.fleet;
    let stop = ctx.stop.as_ref();
    let mut writer = conn.try_clone_stream()?;
    let mut reader = BufReader::new(conn);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Byte-level framing with a hard cap: read_until on a take()
        // adapter bounds what one request can buffer, and keeps the
        // raw bytes so a torn or garbled frame is rejected *before*
        // any parsing.
        let n = match (&mut reader).take(wire::MAX_LINE as u64 + 2).read_until(b'\n', &mut buf) {
            Ok(n) => n,
            Err(e) if is_timeout(&e) => {
                // The peer went quiet past the read deadline: close
                // the connection rather than leak its thread. Running
                // sessions are untouched.
                fleet.telemetry().incr(names::FLEET_NET_IDLE_CLOSED, 1);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Ok(());
        }
        if buf.last() != Some(&b'\n') {
            // No newline: either the peer disconnected mid-frame (a
            // torn frame — the bytes must NOT be parsed as a request,
            // or a partial `submit` becomes a phantom session) or the
            // line blew past the cap. Reject and close.
            fleet.telemetry().incr(names::FLEET_NET_FRAMES_REJECTED, 1);
            if buf.len() > wire::MAX_LINE {
                let message = WireError::LineTooLong(buf.len()).to_string();
                let _ = writeln!(writer, "{}", wire::error_json(&message));
                let _ = writer.flush();
            }
            return Ok(());
        }
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        let request = match wire::decode_line(&buf) {
            Ok(request) => request,
            Err(e) => {
                fleet.telemetry().incr(names::FLEET_NET_FRAMES_REJECTED, 1);
                writeln!(writer, "{}", wire::error_json(&e.to_string()))?;
                writer.flush()?;
                match e {
                    // A garbled or oversized frame means the stream
                    // itself is unreliable — the framing may be
                    // desynchronised, so close instead of guessing at
                    // the next boundary.
                    WireError::NotUtf8 | WireError::LineTooLong(_) => return Ok(()),
                    _ => continue,
                }
            }
        };
        match request {
            Request::Submit { spec, token } => {
                let response = match fleet.submit_with_token(spec, token.as_deref()) {
                    Ok((handle, true)) => {
                        // A replayed token is a client retrying after
                        // a lost acknowledgement: a reconnect in all
                        // but name.
                        fleet.telemetry().incr(names::FLEET_NET_SUBMIT_DEDUPED, 1);
                        fleet.telemetry().incr(names::FLEET_NET_RECONNECTS, 1);
                        wire::submit_deduped_json(handle.id())
                    }
                    Ok((handle, false)) => wire::submit_json(handle.id()),
                    Err(e) => wire::error_json(&e.to_string()),
                };
                writeln!(writer, "{response}")?;
            }
            Request::Status(id) => {
                let response = match fleet.handle(&id) {
                    Some(handle) => wire::status_json(&handle.status()),
                    None => wire::error_json(&format!("unknown session '{id}'")),
                };
                writeln!(writer, "{response}")?;
            }
            Request::List => {
                let statuses: Vec<_> =
                    fleet.sessions().iter().map(super::store::SessionHandle::status).collect();
                writeln!(writer, "{}", wire::list_json(&statuses))?;
            }
            Request::Tail { id, from } => match fleet.handle(&id) {
                Some(handle) => {
                    fleet.telemetry().incr(names::FLEET_NET_TAILS_OPENED, 1);
                    if from > 0 {
                        // A non-zero cursor is a subscriber resuming a
                        // dropped stream.
                        fleet.telemetry().incr(names::FLEET_NET_RECONNECTS, 1);
                    }
                    stream_tail(fleet, &mut writer, stop, &handle, from)?;
                }
                None => {
                    writeln!(writer, "{}", wire::error_json(&format!("unknown session '{id}'")))?
                }
            },
            Request::Cancel(id) => {
                let response = match fleet.handle(&id) {
                    Some(handle) => {
                        handle.cancel();
                        wire::submit_json(handle.id())
                    }
                    None => wire::error_json(&format!("unknown session '{id}'")),
                };
                writeln!(writer, "{response}")?;
            }
            Request::Counters => {
                let metrics = fleet.counters();
                let mut counters: Vec<(String, u64)> =
                    metrics.counters().map(|(name, v)| (name.to_string(), v)).collect();
                if let Some(chaos) = &ctx.chaos {
                    counters
                        .push((names::FLEET_NET_CHAOS_FAULTS.to_string(), chaos.faults_injected()));
                    counters.sort();
                }
                writeln!(writer, "{}", wire::counters_json(&counters))?;
            }
            Request::Health => {
                // The gap counter lives in the merged fleet metrics:
                // injected minus observed, folded per session.
                let gap = fleet.counters().counter(crate::telemetry::names::BOARD_FAULT_GAP);
                writeln!(writer, "{}", wire::health_json(&fleet.health(), gap))?;
            }
            Request::Ping => writeln!(writer, "{{\"ok\":true,\"pong\":true}}")?,
            Request::Shutdown => {
                writeln!(writer, "{{\"ok\":true,\"shutdown\":true}}")?;
                writer.flush()?;
                stop.store(true, Ordering::SeqCst);
                wake_accept(&ctx.endpoint);
                return Ok(());
            }
        }
        writer.flush()?;
    }
}

/// How many idle 20 ms polls a `tail` stream waits before sending a
/// heartbeat (~500 ms cadence).
const HEARTBEAT_IDLE_TICKS: u32 = 25;

/// Streams a session's NDJSON telemetry to `writer` — starting after
/// the subscriber's `from` cursor — until the session is terminal (or
/// the server stops), then sends the `done` terminator. The stream is
/// a *lease*: idle stretches carry heartbeats, and the first write
/// the subscriber's socket refuses reaps the subscription (counted as
/// `fleet.net.leases_reaped`) instead of leaking the thread against a
/// dead peer.
fn stream_tail(
    fleet: &Fleet,
    writer: &mut Box<dyn NetStream>,
    stop: &AtomicBool,
    handle: &super::store::SessionHandle,
    from: u64,
) -> io::Result<()> {
    let mut sent = usize::try_from(from).unwrap_or(usize::MAX);
    let mut idle_ticks = 0u32;
    let mut heartbeats = 0u64;
    let reap = |fleet: &Fleet| {
        fleet.telemetry().incr(names::FLEET_NET_LEASES_REAPED, 1);
        Ok(())
    };
    loop {
        let lines = handle.tap_lines();
        let fresh = &lines[sent.min(lines.len())..];
        idle_ticks = if fresh.is_empty() { idle_ticks + 1 } else { 0 };
        for line in fresh {
            if writeln!(writer, "{line}").is_err() {
                return reap(fleet);
            }
        }
        sent = sent.max(lines.len());
        if writer.flush().is_err() {
            return reap(fleet);
        }
        let state = handle.state();
        if state.is_terminal() {
            // One final drain so nothing between the last poll and
            // the terminal transition is lost.
            let lines = handle.tap_lines();
            for line in &lines[sent.min(lines.len())..] {
                if writeln!(writer, "{line}").is_err() {
                    return reap(fleet);
                }
            }
            if writeln!(writer, "{}", wire::tail_done_json(&handle.status())).is_err() {
                return reap(fleet);
            }
            let _ = writer.flush();
            return Ok(());
        }
        if stop.load(Ordering::SeqCst) {
            let status =
                super::store::SessionStatus { state: SessionState::Queued, ..handle.status() };
            let _ = writeln!(writer, "{}", wire::tail_done_json(&status));
            let _ = writer.flush();
            return Ok(());
        }
        if idle_ticks >= HEARTBEAT_IDLE_TICKS {
            idle_ticks = 0;
            heartbeats += 1;
            if writeln!(writer, "{}", wire::heartbeat_json(heartbeats)).is_err()
                || writer.flush().is_err()
            {
                return reap(fleet);
            }
        }
        thread::sleep(Duration::from_millis(20));
    }
}

/// Unblocks the accept loop after `stop` flips: one throwaway
/// self-connection.
fn wake_accept(endpoint: &Endpoint) {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let _ = TcpStream::connect(addr);
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_distinguishes_tcp_and_unix() {
        assert_eq!(Endpoint::parse("127.0.0.1:7545"), Endpoint::Tcp("127.0.0.1:7545".into()));
        #[cfg(unix)]
        {
            assert_eq!(
                Endpoint::parse("/tmp/bitmod.sock"),
                Endpoint::Unix(PathBuf::from("/tmp/bitmod.sock"))
            );
            assert_eq!(
                Endpoint::parse("unix:relative.sock"),
                Endpoint::Unix(PathBuf::from("relative.sock"))
            );
            assert_eq!(Endpoint::parse("unix:rel.sock").to_string(), "unix:rel.sock");
        }
    }
}
