//! The fleet's framed line protocol.
//!
//! Requests are single text lines (≤ [`MAX_LINE`] bytes), responses
//! single JSON lines — the same NDJSON discipline the telemetry trace
//! uses, so `bitmod tail` can interleave the two streams without a
//! second framing layer. The verbs:
//!
//! | request                     | response                                |
//! |-----------------------------|-----------------------------------------|
//! | `submit [token=<t>] <k=v ...>` | `{"ok":true,"id":"s000042"}` (`,"deduped":true` on an idempotent replay) |
//! | `status <id>`               | `{"ok":true,"id":…,"state":…,…}`        |
//! | `list`                      | `{"ok":true,"sessions":[…]}`            |
//! | `tail <id> [from=N]`        | telemetry NDJSON…, then `{"ok":true,"done":true,…}` |
//! | `cancel <id>`               | `{"ok":true,"id":…}`                    |
//! | `counters`                  | `{"ok":true,"counters":{…}}`            |
//! | `health`                    | `{"ok":true,"fault_gap":…,"boards":[…]}` |
//! | `ping`                      | `{"ok":true,"pong":true}`               |
//! | `shutdown`                  | `{"ok":true,"shutdown":true}`           |
//!
//! Every failure is `{"ok":false,"error":"…"}`. The submit payload is
//! exactly [`SessionSpec::to_wire`], so a spec that validates in the
//! CLI validates on the server — one construction path.
//!
//! Two affordances exist for flaky links: a client-generated submit
//! `token` makes retried submits idempotent (the server dedupes
//! against the session store instead of double-enqueuing), and the
//! `tail` cursor (`from=N`, events already seen) lets a dropped
//! stream resume without replaying or losing events. Idle `tail`
//! streams carry `{"ok":true,"hb":N}` heartbeats so both ends can
//! tell a quiet session from a dead peer.

use super::health::WorkerHealth;
use super::session::{CellStats, ConfigError, SessionSpec};
use super::store::{SessionState, SessionStatus};

/// Hard cap on a protocol line: a submit line is well under 200
/// bytes, so anything near this is garbage or abuse.
pub const MAX_LINE: usize = 8 * 1024;

/// Hard cap on a submit idempotency token.
pub const MAX_TOKEN: usize = 64;

/// A malformed request line.
#[derive(Debug, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// The line exceeded [`MAX_LINE`] bytes.
    LineTooLong(usize),
    /// The verb is not part of the protocol.
    UnknownVerb(String),
    /// The verb needs an argument (`status`/`tail`/`cancel` need an
    /// id, `submit` a spec).
    MissingArgument(&'static str),
    /// The submit payload failed spec validation.
    BadSpec(ConfigError),
    /// The request bytes are not UTF-8 — a garbled or binary frame.
    NotUtf8,
    /// The submit idempotency token is malformed (must be 1 to
    /// [`MAX_TOKEN`] ASCII alphanumeric/`-`/`_` characters).
    BadToken(String),
    /// The `tail` cursor is not a number.
    BadCursor(String),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::LineTooLong(n) => write!(f, "request line of {n} bytes exceeds {MAX_LINE}"),
            WireError::UnknownVerb(v) => write!(f, "unknown verb '{v}'"),
            WireError::MissingArgument(what) => write!(f, "missing {what}"),
            WireError::BadSpec(e) => write!(f, "invalid spec: {e}"),
            WireError::NotUtf8 => write!(f, "request is not valid UTF-8"),
            WireError::BadToken(t) => write!(f, "malformed submit token '{t}'"),
            WireError::BadCursor(c) => write!(f, "malformed tail cursor '{c}'"),
        }
    }
}

impl std::error::Error for WireError {}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a new session. The optional client-generated `token`
    /// makes retried submits idempotent: a token the store has seen
    /// returns the original session id instead of enqueuing a twin.
    Submit {
        /// The validated session spec.
        spec: SessionSpec,
        /// The client's idempotency token, if it sent one.
        token: Option<String>,
    },
    /// One session's status.
    Status(String),
    /// Every session's status.
    List,
    /// Stream a session's NDJSON telemetry until it is terminal,
    /// skipping the first `from` events (already seen by a resuming
    /// subscriber).
    Tail {
        /// The session id.
        id: String,
        /// Events already delivered to this subscriber.
        from: u64,
    },
    /// Cancel a session.
    Cancel(String),
    /// The fleet-level counters.
    Counters,
    /// Per-worker board health and the observed-vs-injected fault
    /// gap.
    Health,
    /// Liveness probe.
    Ping,
    /// Stop the server (sessions still queued stay journalled on disk
    /// and resume on the next boot).
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`]; the server renders it into the standard
    /// error response.
    pub fn parse(line: &str) -> Result<Self, WireError> {
        if line.len() > MAX_LINE {
            return Err(WireError::LineTooLong(line.len()));
        }
        let line = line.trim();
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((verb, rest)) => (verb, rest.trim()),
            None => (line, ""),
        };
        let id = |what| {
            if rest.is_empty() {
                Err(WireError::MissingArgument(what))
            } else {
                Ok(rest.to_string())
            }
        };
        Ok(match verb {
            "submit" => {
                if rest.is_empty() {
                    return Err(WireError::MissingArgument("session spec"));
                }
                let (token, spec_text) = match rest.strip_prefix("token=") {
                    Some(tail) => {
                        let (token, spec_text) = match tail.split_once(char::is_whitespace) {
                            Some((token, spec_text)) => (token, spec_text.trim()),
                            None => (tail, ""),
                        };
                        if token.is_empty()
                            || token.len() > MAX_TOKEN
                            || !token
                                .bytes()
                                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
                        {
                            return Err(WireError::BadToken(token.to_string()));
                        }
                        (Some(token.to_string()), spec_text)
                    }
                    None => (None, rest),
                };
                if spec_text.is_empty() {
                    return Err(WireError::MissingArgument("session spec"));
                }
                Request::Submit {
                    spec: SessionSpec::from_wire(spec_text).map_err(WireError::BadSpec)?,
                    token,
                }
            }
            "status" => Request::Status(id("session id")?),
            "list" => Request::List,
            "tail" => {
                let (id, from) = match rest.split_once(char::is_whitespace) {
                    Some((id, cursor)) => {
                        let cursor = cursor.trim();
                        let digits = cursor
                            .strip_prefix("from=")
                            .ok_or_else(|| WireError::BadCursor(cursor.to_string()))?;
                        let from =
                            digits.parse().map_err(|_| WireError::BadCursor(cursor.to_string()))?;
                        (id, from)
                    }
                    None => (rest, 0),
                };
                if id.is_empty() {
                    return Err(WireError::MissingArgument("session id"));
                }
                Request::Tail { id: id.to_string(), from }
            }
            "cancel" => Request::Cancel(id("session id")?),
            "counters" => Request::Counters,
            "health" => Request::Health,
            "ping" => Request::Ping,
            "shutdown" => Request::Shutdown,
            other => return Err(WireError::UnknownVerb(other.to_string())),
        })
    }

    /// Renders the request back to its line form (what the client
    /// sends).
    #[must_use]
    pub fn to_line(&self) -> String {
        match self {
            Request::Submit { spec, token: None } => format!("submit {}", spec.to_wire()),
            Request::Submit { spec, token: Some(token) } => {
                format!("submit token={token} {}", spec.to_wire())
            }
            Request::Status(id) => format!("status {id}"),
            Request::List => "list".to_string(),
            Request::Tail { id, from: 0 } => format!("tail {id}"),
            Request::Tail { id, from } => format!("tail {id} from={from}"),
            Request::Cancel(id) => format!("cancel {id}"),
            Request::Counters => "counters".to_string(),
            Request::Health => "health".to_string(),
            Request::Ping => "ping".to_string(),
            Request::Shutdown => "shutdown".to_string(),
        }
    }
}

/// Decodes one raw request frame (without its trailing newline) into
/// a [`Request`]: total over arbitrary bytes. The length cap is
/// checked *before* UTF-8 validation so an oversized binary blast is
/// rejected without inspecting it, and a garbled frame (chaos flips a
/// high bit) fails typed as [`WireError::NotUtf8`] instead of being
/// parsed as an imposter request.
///
/// # Errors
///
/// A typed [`WireError`] for oversized, non-UTF-8, or malformed
/// frames; never panics, never allocates beyond the frame itself.
pub fn decode_line(bytes: &[u8]) -> Result<Request, WireError> {
    if bytes.len() > MAX_LINE {
        return Err(WireError::LineTooLong(bytes.len()));
    }
    let line = std::str::from_utf8(bytes).map_err(|_| WireError::NotUtf8)?;
    Request::parse(line)
}

/// Escapes a string for embedding in a JSON literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The standard error response.
#[must_use]
pub fn error_json(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(message))
}

/// The submit acknowledgement.
#[must_use]
pub fn submit_json(id: &str) -> String {
    format!("{{\"ok\":true,\"id\":\"{}\"}}", json_escape(id))
}

/// The submit acknowledgement for an idempotent replay: the token was
/// already admitted, so the original session id comes back instead of
/// a twin being enqueued.
#[must_use]
pub fn submit_deduped_json(id: &str) -> String {
    format!("{{\"ok\":true,\"id\":\"{}\",\"deduped\":true}}", json_escape(id))
}

/// A `tail` heartbeat: emitted on an idle stream so a subscriber can
/// tell a quiet session from a dead peer (and the server can reap
/// subscribers whose socket stops accepting them).
#[must_use]
pub fn heartbeat_json(n: u64) -> String {
    format!("{{\"ok\":true,\"hb\":{n}}}")
}

/// Whether a line is a `tail` heartbeat (not a telemetry event — a
/// cursor-counting subscriber must skip it).
#[must_use]
pub fn is_heartbeat(line: &str) -> bool {
    is_ok(line) && line.contains("\"hb\":")
}

/// One status object (without the `ok` envelope — `status` wraps it,
/// `list` embeds many).
#[must_use]
pub fn status_object(status: &SessionStatus) -> String {
    let worker = match status.worker {
        Some(w) => w.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"id\":\"{}\",\"state\":\"{}\",\"worker\":{worker},\"steals\":{},\
         \"physical\":{},\"logical\":{},\"retries\":{},\"backoff_ms\":{},\"note\":\"{}\"}}",
        json_escape(&status.id),
        status.state.as_str(),
        status.steals,
        status.stats.physical,
        status.stats.logical,
        status.stats.retries,
        status.stats.backoff_ms,
        json_escape(&status.note),
    )
}

/// The `status` response.
#[must_use]
pub fn status_json(status: &SessionStatus) -> String {
    let object = status_object(status);
    format!("{{\"ok\":true,{}", &object[1..])
}

/// The `list` response.
#[must_use]
pub fn list_json(statuses: &[SessionStatus]) -> String {
    let sessions: Vec<String> = statuses.iter().map(status_object).collect();
    format!("{{\"ok\":true,\"sessions\":[{}]}}", sessions.join(","))
}

/// The `tail` terminator, carrying the terminal state.
#[must_use]
pub fn tail_done_json(status: &SessionStatus) -> String {
    format!(
        "{{\"ok\":true,\"done\":true,\"id\":\"{}\",\"state\":\"{}\"}}",
        json_escape(&status.id),
        status.state.as_str()
    )
}

/// The `counters` response from name/value pairs.
#[must_use]
pub fn counters_json(counters: &[(String, u64)]) -> String {
    let fields: Vec<String> =
        counters.iter().map(|(name, v)| format!("\"{}\":{v}", json_escape(name))).collect();
    format!("{{\"ok\":true,\"counters\":{{{}}}}}", fields.join(","))
}

/// The `health` response: one object per worker board plus the
/// fleet-wide observed-vs-injected fault gap (faults the board
/// injected that the attack never saw — absorbed by voting and
/// retries).
#[must_use]
pub fn health_json(rows: &[WorkerHealth], fault_gap: u64) -> String {
    let boards: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "{{\"worker\":{},\"health\":\"{}\",\"sessions\":{},\"loads\":{},\
                 \"faults\":{},\"fault_milli\":{}}}",
                row.worker,
                row.health(),
                row.score.sessions,
                row.score.loads,
                row.score.faults,
                row.score.fault_milli(),
            )
        })
        .collect();
    format!("{{\"ok\":true,\"fault_gap\":{fault_gap},\"boards\":[{}]}}", boards.join(","))
}

/// The one-line terminal `result.json` a finished session persists.
#[must_use]
pub fn result_json(state: SessionState, stats: &CellStats, note: &str) -> String {
    format!(
        "{{\"state\":\"{}\",\"physical\":{},\"logical\":{},\"retries\":{},\
         \"backoff_ms\":{},\"note\":\"{}\"}}\n",
        state.as_str(),
        stats.physical,
        stats.logical,
        stats.retries,
        stats.backoff_ms,
        json_escape(note),
    )
}

/// Parses a `result.json` line back (boot-time slot rebuild).
#[must_use]
pub fn parse_result_json(line: &str) -> Option<(SessionState, CellStats, String)> {
    let state = SessionState::from_str(&string_field(line, "state")?)?;
    let stats = CellStats {
        physical: number_field(line, "physical")?,
        logical: number_field(line, "logical")?,
        retries: number_field(line, "retries")?,
        backoff_ms: number_field(line, "backoff_ms")?,
    };
    Some((state, stats, string_field(line, "note").unwrap_or_default()))
}

/// Extracts `"name":"value"` from a flat JSON line, un-escaping the
/// common sequences [`json_escape`] produces.
#[must_use]
pub fn string_field(line: &str, name: &str) -> Option<String> {
    let key = format!("\"{name}\":\"");
    let start = line.find(&key)? + key.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                escaped => out.push(escaped),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extracts `"name":1234` from a flat JSON line.
#[must_use]
pub fn number_field(line: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let start = line.find(&key)? + key.len();
    let digits: String = line[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Whether a response line reports success.
#[must_use]
pub fn is_ok(line: &str) -> bool {
    line.starts_with("{\"ok\":true")
}

/// Whether a line is a `tail` terminator.
#[must_use]
pub fn is_tail_done(line: &str) -> bool {
    is_ok(line) && line.contains("\"done\":true")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_their_line_form() {
        let spec = SessionSpec::builder().noisy(true).seed(3).batch(8).build().unwrap();
        let requests = [
            Request::Submit { spec: spec.clone(), token: None },
            Request::Submit { spec, token: Some("c1a2-0007".into()) },
            Request::Status("s000001".into()),
            Request::List,
            Request::Tail { id: "s000002".into(), from: 0 },
            Request::Tail { id: "s000002".into(), from: 1234 },
            Request::Cancel("s000003".into()),
            Request::Counters,
            Request::Health,
            Request::Ping,
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.to_line();
            assert_eq!(Request::parse(&line).expect("parses"), request, "{line}");
        }
    }

    #[test]
    fn malformed_requests_fail_typed() {
        assert_eq!(Request::parse("status").unwrap_err(), WireError::MissingArgument("session id"));
        assert_eq!(Request::parse("frob x").unwrap_err(), WireError::UnknownVerb("frob".into()));
        assert!(matches!(Request::parse("submit votes=2").unwrap_err(), WireError::BadSpec(_)));
        let long = format!("status {}", "x".repeat(MAX_LINE));
        assert!(matches!(Request::parse(&long).unwrap_err(), WireError::LineTooLong(_)));
    }

    #[test]
    fn submit_tokens_and_tail_cursors_are_validated() {
        assert!(matches!(
            Request::parse("submit token= seed=1").unwrap_err(),
            WireError::BadToken(_)
        ));
        assert!(matches!(
            Request::parse("submit token=no/slash seed=1").unwrap_err(),
            WireError::BadToken(_)
        ));
        let oversized = format!("submit token={} seed=1", "t".repeat(MAX_TOKEN + 1));
        assert!(matches!(Request::parse(&oversized).unwrap_err(), WireError::BadToken(_)));
        assert_eq!(
            Request::parse("submit token=abc").unwrap_err(),
            WireError::MissingArgument("session spec")
        );
        assert!(matches!(
            Request::parse("tail s000001 from=xyz").unwrap_err(),
            WireError::BadCursor(_)
        ));
        assert!(matches!(Request::parse("tail s000001 99").unwrap_err(), WireError::BadCursor(_)));
    }

    #[test]
    fn decode_line_rejects_binary_and_oversized_frames_typed() {
        assert_eq!(decode_line(b"ping").expect("decodes"), Request::Ping);
        assert_eq!(decode_line(b"pin\x87g").unwrap_err(), WireError::NotUtf8);
        let oversized = vec![0xFFu8; MAX_LINE + 1];
        assert!(matches!(decode_line(&oversized).unwrap_err(), WireError::LineTooLong(_)));
    }

    #[test]
    fn heartbeats_are_ok_but_not_events_or_terminators() {
        let hb = heartbeat_json(3);
        assert!(is_ok(&hb));
        assert!(is_heartbeat(&hb));
        assert!(!is_tail_done(&hb));
        assert!(!is_heartbeat("{\"seq\":0,\"event\":\"trace_start\"}"));
        let deduped = submit_deduped_json("s000001");
        assert!(is_ok(&deduped));
        assert!(deduped.contains("\"deduped\":true"));
    }

    #[test]
    fn result_json_round_trips() {
        let stats = CellStats { physical: 545, logical: 123, retries: 4, backoff_ms: 90 };
        let line = result_json(SessionState::Exhausted, &stats, "budget \"cut\"\nat phase 4");
        let (state, parsed, note) = parse_result_json(&line).expect("parses");
        assert_eq!(state, SessionState::Exhausted);
        assert_eq!(parsed, stats);
        assert_eq!(note, "budget \"cut\"\nat phase 4");
    }

    #[test]
    fn status_json_carries_the_accounting() {
        let status = SessionStatus {
            id: "s000007".into(),
            state: SessionState::Running,
            worker: Some(2),
            steals: 1,
            stats: CellStats { physical: 10, logical: 4, retries: 0, backoff_ms: 0 },
            note: String::new(),
        };
        let line = status_json(&status);
        assert!(is_ok(&line));
        assert_eq!(string_field(&line, "id").as_deref(), Some("s000007"));
        assert_eq!(string_field(&line, "state").as_deref(), Some("running"));
        assert_eq!(number_field(&line, "worker"), Some(2));
        assert_eq!(number_field(&line, "physical"), Some(10));
        let list = list_json(&[status.clone(), status]);
        assert!(is_ok(&list));
        assert_eq!(list.matches("s000007").count(), 2);
    }

    #[test]
    fn health_json_carries_bands_and_the_fault_gap() {
        use super::super::health::BoardScore;
        let rows = [
            WorkerHealth { worker: 0, score: BoardScore::default() },
            WorkerHealth {
                worker: 1,
                score: BoardScore { sessions: 2, loads: 100, faults: 40, dead: true },
            },
        ];
        let line = health_json(&rows, 17);
        assert!(is_ok(&line));
        assert_eq!(number_field(&line, "fault_gap"), Some(17));
        assert!(line.contains("\"health\":\"healthy\""));
        assert!(line.contains("\"health\":\"dead\""));
        assert!(line.contains("\"fault_milli\":400"));
    }

    #[test]
    fn tail_terminator_is_distinguishable_from_telemetry_events() {
        let status = SessionStatus {
            id: "s000001".into(),
            state: SessionState::Recovered,
            worker: None,
            steals: 0,
            stats: CellStats::default(),
            note: String::new(),
        };
        let done = tail_done_json(&status);
        assert!(is_tail_done(&done));
        assert!(!is_tail_done("{\"seq\":0,\"event\":\"trace_start\"}"));
    }
}
