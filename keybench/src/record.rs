//! One session's result as the benchmark sees it, and the run tally.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use bitmod::fleet::{SessionError, SessionOutcome, SessionReport};
use snow3g::vectors::TEST_SET_1_KEY;

/// How a session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ending {
    /// The key was recovered and equals the Test Set 1 key.
    Recovered,
    /// The session ended without the key (`exhausted`, `failed`,
    /// `cancelled`), with the program's note.
    NotRecovered {
        /// The session state.
        state: String,
        /// The program's failure note.
        note: String,
    },
    /// The session harness returned a `SessionError`.
    Error(String),
}

/// One session: ending, host time, device loads, program counters.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// How it ended.
    pub ending: Ending,
    /// A key other than the Test Set 1 key was reported.
    pub wrong_key: bool,
    /// Host milliseconds from submission to result.
    pub ms: f64,
    /// Physical device loads the session burned.
    pub physical: u64,
    /// The program's counters for the session (empty on an error).
    pub counters: BTreeMap<String, u64>,
}

/// The note the program attaches to a session whose key differs from
/// the expected one.
pub const WRONG_KEY_NOTE: &str = "recovered a wrong key";

impl SessionRecord {
    /// Reads a local session's result. `extra` adds counters kept
    /// outside the session's own recorder (the container layer's).
    #[must_use]
    pub fn from_result(
        result: &Result<SessionReport, SessionError>,
        ms: f64,
        extra: BTreeMap<String, u64>,
    ) -> Self {
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                return Self {
                    ending: Ending::Error(e.to_string()),
                    wrong_key: false,
                    ms,
                    physical: 0,
                    counters: BTreeMap::new(),
                }
            }
        };
        let key_differs = report.attack.as_ref().is_some_and(|a| a.recovered.key != TEST_SET_1_KEY);
        let wrong_key = key_differs || report.outcome.note() == WRONG_KEY_NOTE;
        let ending = match &report.outcome {
            SessionOutcome::Recovered(_) if !wrong_key => Ending::Recovered,
            other => Ending::NotRecovered {
                state: other.state_str().to_string(),
                note: other.note().to_string(),
            },
        };
        let mut counters: BTreeMap<String, u64> =
            report.metrics.counters().map(|(name, v)| (name.to_string(), v)).collect();
        counters.extend(extra);
        Self { ending, wrong_key, ms, physical: report.outcome.stats().physical, counters }
    }

    /// Whether the session recovered the right key.
    #[must_use]
    pub fn recovered(&self) -> bool {
        self.ending == Ending::Recovered
    }

    /// A counter, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Sessions of a run, folded.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions that recovered the right key.
    pub recovered: u64,
    /// Sessions that reported a key other than Test Set 1's.
    pub wrong_keys: u64,
    /// Physical device loads of all sessions.
    pub physical: u64,
    /// Host milliseconds of each recovered session.
    pub key_ms: Vec<f64>,
    /// The first few failure notes, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Folds one session in.
    pub fn add(&mut self, r: &SessionRecord) {
        self.attempted += 1;
        self.physical += r.physical;
        if r.wrong_key {
            self.wrong_keys += 1;
        }
        match &r.ending {
            Ending::Recovered => {
                self.recovered += 1;
                self.key_ms.push(r.ms);
            }
            Ending::NotRecovered { state, note } if self.notes.len() < 4 => {
                self.notes.push(format!("{state}: {note}"));
            }
            Ending::Error(e) if self.notes.len() < 4 => self.notes.push(format!("error: {e}")),
            _ => {}
        }
    }

    /// Sessions not ending with the right key.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.attempted - self.recovered
    }

    /// Failed sessions / attempted sessions.
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Physical loads of all sessions per recovered key.
    #[must_use]
    pub fn loads_per_key(&self) -> Option<f64> {
        (self.recovered > 0).then(|| self.physical as f64 / self.recovered as f64)
    }
}

/// An in-memory NDJSON sink for a session's telemetry.
#[derive(Debug, Clone, Default)]
pub struct MemorySink(Arc<Mutex<Vec<u8>>>);

impl MemorySink {
    /// Everything written so far, as text.
    #[must_use]
    pub fn text(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

impl Write for MemorySink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What one session's NDJSON trace says: closed spans (name, wall
/// µs) and journal writes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDigest {
    /// `(name, wall_us)` of every closed span, in close order.
    pub spans: Vec<(String, u64)>,
    /// Journal writes.
    pub journal_writes: u64,
    /// Journal bytes written.
    pub journal_bytes: u64,
}

impl TraceDigest {
    /// Digests NDJSON trace lines.
    pub fn parse<'a>(lines: impl IntoIterator<Item = &'a str>) -> Self {
        let mut digest = Self::default();
        for line in lines {
            if line.contains("\"ev\":\"span_close\"") {
                if let (Some(name), Some(us)) =
                    (str_field(line, "name"), num_field(line, "wall_us"))
                {
                    digest.spans.push((name.to_string(), us));
                }
            } else if line.contains("\"ev\":\"journal_write\"") {
                digest.journal_writes += 1;
                digest.journal_bytes += num_field(line, "bytes").unwrap_or(0);
            }
        }
        digest
    }

    /// Total milliseconds in spans named `name`.
    #[must_use]
    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|(n, _)| n == name).map(|(_, us)| *us as f64 / 1e3).sum()
    }
}

fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

fn num_field(line: &str, key: &str) -> Option<u64> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_reads_spans_and_journal_writes() {
        let lines = [
            r#"{"seq":0,"ev":"trace_start","schema":1}"#,
            r#"{"seq":1,"ev":"span_open","id":1,"name":"attack"}"#,
            r#"{"seq":2,"ev":"journal_write","bytes":120}"#,
            r#"{"seq":3,"ev":"span_close","id":1,"name":"attack","wall_us":2500,"queries":3}"#,
        ];
        let d = TraceDigest::parse(lines);
        assert_eq!(d.spans, vec![("attack".to_string(), 2500)]);
        assert_eq!((d.journal_writes, d.journal_bytes), (1, 120));
        assert_eq!(d.span_ms("attack"), 2.5);
    }
}
