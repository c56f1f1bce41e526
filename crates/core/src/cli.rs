//! The command-line surface of the tool: text-mode operations over
//! bitstream files. The `bitmod` binary is a thin wrapper; the logic
//! lives here so it can be tested.
//!
//! The paper describes the artifact as "a tool which automatically
//! finds a k-input LUT implementing a given k-variable Boolean
//! function and all Boolean functions within the same P equivalence
//! class in the bitstream ... intended to assist in evaluating
//! resistance of FPGAs to reverse engineering and bitstream
//! modification".

use core::fmt;

use boolfn::expr::Expr;
use boolfn::TruthTable;

use bitstream::{Bitstream, Packet, FRAME_BYTES};

use crate::attack::AttackError;
use crate::candidates::Catalogue;
use crate::countermeasure::xor_half_scan;
use crate::findlut::{LutHit, ScanConfigError, Scanner};
use crate::fleet::{ConfigError, SessionError, SessionOutcome, SessionSpec};

/// An error from a CLI operation.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// The function argument was neither a catalogue name nor a
    /// parsable formula.
    BadFunction {
        /// The offending argument.
        arg: String,
        /// The parser's complaint.
        parse: boolfn::expr::ParseExprError,
    },
    /// The bitstream has no FDRI payload.
    NoPayload,
    /// Malformed command-line usage.
    Usage(String),
    /// The requested scan configuration was invalid.
    Config(ScanConfigError),
    /// Building the simulated victim board failed.
    Board(fpga_sim::BoardError),
    /// The attack pipeline aborted.
    Attack(AttackError),
    /// The telemetry trace sink could not be opened or written.
    Telemetry(crate::telemetry::TelemetryError),
    /// The attack flags did not form a valid session spec.
    Spec(ConfigError),
    /// The session harness failed outside the attack pipeline.
    Session(SessionError),
    /// The session ran to completion without the key: a wrong key was
    /// recovered, or the attack stopped on a typed error. Carries the
    /// outcome's note.
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::BadFunction { arg, parse } => {
                write!(f, "'{arg}' is not a candidate name or formula ({parse})")
            }
            CliError::NoPayload => write!(f, "bitstream has no FDRI payload"),
            CliError::Usage(msg) => write!(f, "usage: {msg}"),
            CliError::Config(e) => write!(f, "invalid scan configuration: {e}"),
            CliError::Board(e) => write!(f, "victim board construction failed: {e}"),
            CliError::Attack(e) => write!(f, "attack failed: {e}"),
            CliError::Telemetry(e) => write!(f, "telemetry failure: {e}"),
            CliError::Spec(e) => write!(f, "invalid session spec: {e}"),
            CliError::Session(e) => write!(f, "session failed: {e}"),
            CliError::Failed(note) => write!(f, "session failed: {note}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::BadFunction { parse, .. } => Some(parse),
            CliError::Config(e) => Some(e),
            CliError::Board(e) => Some(e),
            CliError::Attack(e) => Some(e),
            CliError::Telemetry(e) => Some(e),
            CliError::Spec(e) => Some(e),
            CliError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScanConfigError> for CliError {
    fn from(e: ScanConfigError) -> Self {
        CliError::Config(e)
    }
}

impl From<fpga_sim::BoardError> for CliError {
    fn from(e: fpga_sim::BoardError) -> Self {
        CliError::Board(e)
    }
}

impl From<AttackError> for CliError {
    fn from(e: AttackError) -> Self {
        CliError::Attack(e)
    }
}

impl From<crate::telemetry::TelemetryError> for CliError {
    fn from(e: crate::telemetry::TelemetryError) -> Self {
        CliError::Telemetry(e)
    }
}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> Self {
        CliError::Spec(e)
    }
}

impl From<SessionError> for CliError {
    fn from(e: SessionError) -> Self {
        // Unwrap the variants with established CLI renderings so
        // error text stays stable across the facade migration.
        match e {
            SessionError::Board(e) => CliError::Board(e),
            SessionError::Attack(e) => CliError::Attack(e),
            SessionError::Telemetry(e) => CliError::Telemetry(e),
            other => CliError::Session(other),
        }
    }
}

/// Resolves a function argument: a catalogue shape name (`f2`, `m0b`,
/// ...) or a formula over `a1..a6` (`"(a1^a2^a3) a4 a5 ~a6"`).
///
/// # Errors
///
/// Returns [`CliError::BadFunction`] if neither interpretation works.
pub fn resolve_function(arg: &str) -> Result<(String, TruthTable), CliError> {
    if let Some(shape) = Catalogue::full().shape(arg) {
        return Ok((format!("{} = {}", shape.name, shape.formula), shape.truth));
    }
    match arg.parse::<Expr>() {
        Ok(e) => Ok((format!("{e}"), e.truth_table(6))),
        Err(parse) => Err(CliError::BadFunction { arg: arg.to_string(), parse }),
    }
}

/// Serializes one [`LutHit`] as a stable single-line JSON record.
///
/// The field set and order are part of the CLI contract (consumers
/// may line-split and parse): `candidate`, `l`, `file_offset`,
/// `order`, `perm`, `init`.
#[must_use]
pub fn lut_hit_json(candidate: &str, file_offset: usize, hit: &LutHit) -> String {
    let perm: Vec<String> = hit.perm.as_slice().iter().map(u8::to_string).collect();
    format!(
        "{{\"candidate\":\"{}\",\"l\":{},\"file_offset\":{},\"order\":\"{:?}\",\"perm\":[{}],\"init\":\"{:#018x}\"}}",
        candidate.escape_default(),
        hit.l,
        file_offset,
        hit.order,
        perm.join(","),
        hit.init.init()
    )
}

/// `findlut`: searches a bitstream for a function's P class; returns a
/// printable report, or (with `json`) one JSON record per hit.
///
/// # Errors
///
/// Propagates argument and payload errors.
pub fn cmd_findlut(
    bs: &Bitstream,
    function: &str,
    d: usize,
    json: bool,
) -> Result<String, CliError> {
    let (label, truth) = resolve_function(function)?;
    let range = bs.fdri_data_range().ok_or(CliError::NoPayload)?;
    let payload = &bs.as_bytes()[range.clone()];
    let scanner = Scanner::builder().k(6).stride(d).candidate(truth).build()?;
    let t0 = std::time::Instant::now();
    let hits = scanner.scan(payload);
    let dt = t0.elapsed();
    let mut out = String::new();
    use fmt::Write;
    if json {
        let name = function;
        for h in &hits {
            let _ = writeln!(out, "{}", lut_hit_json(name, range.start + h.hit.l, &h.hit));
        }
        return Ok(out);
    }
    let _ = writeln!(out, "searching for {label}");
    let _ = writeln!(
        out,
        "payload: {} bytes at file offset {}; d = {d}, r = 4, k = 6",
        payload.len(),
        range.start
    );
    let _ = writeln!(out, "{} hit(s) in {:.1} ms:", hits.len(), dt.as_secs_f64() * 1e3);
    for h in &hits {
        let h = &h.hit;
        let _ = writeln!(
            out,
            "  l = {:>8}  (file offset {:>8})  order = {:?}  perm = {}  init = {}",
            h.l,
            range.start + h.l,
            h.order,
            h.perm,
            h.init
        );
    }
    Ok(out)
}

/// `table2`: the full candidate sweep over a bitstream — the whole
/// catalogue in a single [`Scanner`] pass. With `json`, emits one
/// record per hit instead of the count table.
///
/// # Errors
///
/// Propagates payload errors.
pub fn cmd_table2(bs: &Bitstream, d: usize, json: bool) -> Result<String, CliError> {
    let range = bs.fdri_data_range().ok_or(CliError::NoPayload)?;
    let payload = &bs.as_bytes()[range.clone()];
    let catalogue = Catalogue::full();
    let scanner = Scanner::builder().k(6).stride(d).catalogue(&catalogue).build()?;
    let mut out = String::new();
    use fmt::Write;
    if json {
        for h in scanner.scan(payload) {
            let name = catalogue.shapes[h.candidate].name;
            let _ = writeln!(out, "{}", lut_hit_json(name, range.start + h.hit.l, &h.hit));
        }
        return Ok(out);
    }
    let _ = writeln!(out, "candidate sweep (Table II analog):");
    let _ = writeln!(out, "  shape |  hits | formula");
    for (shape, hits) in catalogue.shapes.iter().zip(scanner.scan_grouped(payload)) {
        let _ = writeln!(out, "  {:>5} | {:>5} | {}", shape.name, hits.len(), shape.formula);
    }
    Ok(out)
}

/// `xorscan`: the Section VII-B dual-output XOR-half scan.
///
/// # Errors
///
/// Propagates payload errors.
pub fn cmd_xorscan(
    bs: &Bitstream,
    d: usize,
    window: Option<(usize, usize)>,
) -> Result<String, CliError> {
    let range = bs.fdri_data_range().ok_or(CliError::NoPayload)?;
    let payload = &bs.as_bytes()[range];
    let w = window.map_or(0..payload.len(), |(a, b)| a..b.min(payload.len()));
    let hits = xor_half_scan(payload, d, w.clone());
    let mut out = String::new();
    use fmt::Write;
    let _ = writeln!(
        out,
        "XOR-half scan over bytes {}..{}: {} candidate LUT(s)",
        w.start,
        w.end,
        hits.len()
    );
    for h in hits.iter().take(20) {
        let halves = [h.init.o5(), h.init.o6_fractured()];
        let desc: Vec<String> = halves
            .iter()
            .map(|t| match t.as_xor_pair() {
                Some((x, y)) => format!("a{x}^a{y}"),
                None => format!("{t}"),
            })
            .collect();
        let _ = writeln!(
            out,
            "  l = {:>8}  order = {:?}  O5 = {}, O6 = {}",
            h.l, h.order, desc[0], desc[1]
        );
    }
    if hits.len() > 20 {
        let _ = writeln!(out, "  ... and {} more", hits.len() - 20);
    }
    Ok(out)
}

/// `packets`: decodes the configuration packet stream.
#[must_use]
pub fn cmd_packets(bs: &Bitstream) -> String {
    let mut out = String::new();
    use fmt::Write;
    for (offset, p) in bs.packets() {
        match &p {
            Packet::Nop => {} // keep the listing short
            other => {
                let _ = writeln!(out, "  {offset:>8}: {other}");
            }
        }
    }
    out
}

/// `crc`: repairs or disables the configuration CRC; returns the
/// modified bitstream and a message.
#[must_use]
pub fn cmd_crc(bs: &Bitstream, disable: bool) -> (Bitstream, String) {
    let mut out = bs.clone();
    if disable {
        let n = out.disable_crc();
        (out, format!("zeroed {n} CRC packet(s)"))
    } else {
        let ok = out.recompute_crc();
        (out, if ok { "CRC recomputed".into() } else { "no CRC packet found".into() })
    }
}

/// `diff`: lists the byte ranges where two bitstreams differ.
#[must_use]
pub fn cmd_diff(a: &Bitstream, b: &Bitstream) -> String {
    use fmt::Write;
    let ranges = a.diff(b);
    let mut out = String::new();
    let total: usize = ranges.iter().map(|r| r.len()).sum();
    let _ = writeln!(out, "{} differing range(s), {total} byte(s):", ranges.len());
    for r in &ranges {
        let _ = writeln!(out, "  bytes {:>8}..{:<8} ({} byte(s))", r.start, r.end, r.len());
    }
    out
}

/// The default sub-vector stride.
#[must_use]
pub fn default_stride() -> usize {
    FRAME_BYTES
}

/// `attack`: runs the session through [`SessionSpec::run_local`] (the
/// simulated SNOW 3G victim, ETSI Test Set 1) and renders its report.
/// With `noisy`, the board is wrapped in the seeded fault model and
/// the attack queries through the resilience layer (retry + majority
/// vote + budget). Budget exhaustion is reported as a structured
/// partial result, not an error; a session that ends without the Test
/// Set 1 key is a [`CliError::Failed`].
///
/// With `journal`, the attack persists a crash-safe checkpoint after
/// every completed work item; with `resume`, it continues a previous
/// run from that journal instead of starting over (the journalled
/// resilience configuration is authoritative, except that a fresh
/// `budget` may raise the cap of the resumed run).
///
/// # Errors
///
/// Propagates board-construction, journal, trace and attack failures;
/// [`CliError::Session`] when the spec/run-site combination is
/// invalid (e.g. `--resume` pointing at a journal that does not
/// exist); [`CliError::Failed`] when the session ends `Failed`.
pub fn cmd_attack(spec: &SessionSpec) -> Result<String, CliError> {
    use fmt::Write;
    let mut out = String::new();
    if let Some(path) = spec.trace_path() {
        let _ = writeln!(out, "tracing to {}", path.display());
    }
    if spec.noisy {
        let _ = writeln!(
            out,
            "noisy mode: glitch {:.2}%/bit, load failure {:.1}%, {} votes, seed {}",
            spec.glitch * 100.0,
            spec.load_fail * 100.0,
            spec.votes,
            spec.seed
        );
    }
    if spec.encrypted {
        let _ = writeln!(
            out,
            "encrypted container: Fig. 1 seal (AES-256-CBC + HMAC-SHA-256), \
             {} SCA traces budgeted",
            spec.sca_traces
        );
    }
    if spec.resume {
        // A validated spec cannot carry `resume` without a journal.
        let path = spec.journal_path().expect("spec validation ties resume to a journal");
        let _ = writeln!(out, "resuming from journal {}", path.display());
    } else if let Some(path) = spec.journal_path() {
        let _ = writeln!(out, "journalling to {}", path.display());
    }
    if spec.batch > 1 {
        let _ = writeln!(out, "batched oracle: up to {} queries per pass", spec.batch);
    }
    if spec.partial {
        let _ = writeln!(
            out,
            "partial reconfiguration: candidates ship as frame-delta streams \
             (first load full, rollbacks ride the next delta)"
        );
    }

    let report = spec.run_local()?;
    attack_verdict(&report.outcome)?;
    match (&report.outcome, &report.attack, &report.checkpoint) {
        (SessionOutcome::Recovered(_), Some(report), _) => {
            let _ = writeln!(out, "recovered key: {}", report.recovered.key);
            let _ = writeln!(out, "recovered iv:  {}", report.recovered.iv);
            let _ = writeln!(
                out,
                "oracle loads: {} physical ({} logical queries, {} retries absorbed, \
                 {} ballots, {} virtual ms backing off)",
                report.oracle_loads,
                report.resilience.queries,
                report.resilience.transient_errors,
                report.resilience.votes_cast,
                report.resilience.backoff_ms
            );
            let _ = writeln!(
                out,
                "verified: {} keystream-path LUTs, {} feedback LUTs, {} dead candidates",
                report.z_luts.len(),
                report.feedback_luts.len(),
                report.dead_candidates
            );
        }
        (SessionOutcome::Exhausted { summary, .. }, _, Some(checkpoint)) => {
            let _ = writeln!(out, "query budget exhausted: {summary}");
            let _ = writeln!(out, "partial result: {checkpoint}");
            let _ = writeln!(
                out,
                "  verified z-path bits: {:032b}",
                checkpoint.z_luts.iter().fold(0u32, |m, z| m | 1 << z.bit)
            );
            if let Some(path) = spec.journal_path() {
                let _ = writeln!(
                    out,
                    "journal saved: rerun with --journal {} --resume --budget N to continue",
                    path.display()
                );
            }
        }
        // A cancellation, or an outcome without its report: the
        // outcome carries the note.
        (outcome, _, _) => {
            let _ = writeln!(out, "session {outcome}");
        }
    }
    if spec.trace_path().is_some() {
        out.push_str(&report.metrics.summary_table());
    }
    Ok(out)
}

/// How `attack` exits on a finished session: a `Failed` outcome is an
/// error (non-zero exit, like every other attack failure); an
/// exhausted budget is a partial result the journal resumes from, so
/// it reports and exits 0 like a recovered key.
fn attack_verdict(outcome: &SessionOutcome) -> Result<(), CliError> {
    match outcome {
        SessionOutcome::Failed { note, .. } => Err(CliError::Failed(note.clone())),
        SessionOutcome::Recovered(_)
        | SessionOutcome::Exhausted { .. }
        | SessionOutcome::Cancelled => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstream::{codec, BitstreamBuilder, FrameData, LutLocation, SubVectorOrder};
    use boolfn::DualOutputInit;

    /// Tests propagate failures with `?` instead of unwrapping: a
    /// failing assertion should name the failed step, not panic in a
    /// combinator.
    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn sample() -> Result<Bitstream, Box<dyn std::error::Error>> {
        let mut frames = FrameData::new(8);
        let f2 = Catalogue::full().shape("f2").ok_or("f2 missing from catalogue")?.truth;
        codec::write_lut(
            frames.as_mut_bytes(),
            LutLocation { l: 42, d: FRAME_BYTES, order: SubVectorOrder::SliceM },
            DualOutputInit::from_single(f2),
        );
        Ok(BitstreamBuilder::new(frames).build())
    }

    #[test]
    fn only_a_failed_session_is_an_attack_error() {
        use crate::fleet::CellStats;
        let failed = SessionOutcome::Failed {
            stats: CellStats::default(),
            note: "recovered a wrong key".into(),
        };
        let err = attack_verdict(&failed).expect_err("a failed session exits non-zero");
        assert!(matches!(&err, CliError::Failed(note) if note == "recovered a wrong key"));
        assert_eq!(err.to_string(), "session failed: recovered a wrong key");
        let exhausted =
            SessionOutcome::Exhausted { stats: CellStats::default(), summary: "budget".into() };
        assert!(attack_verdict(&exhausted).is_ok(), "exhaustion reports and exits 0");
        assert!(attack_verdict(&SessionOutcome::Recovered(CellStats::default())).is_ok());
    }

    #[test]
    fn resolve_by_name_and_formula() -> TestResult {
        let (label, t1) = resolve_function("f2")?;
        assert!(label.starts_with("f2 ="));
        let (_, t2) = resolve_function("(a1^a2^a3) a4 a5 ~a6")?;
        assert_eq!(t1, t2);
        assert!(resolve_function("not-a-function!!").is_err());
        Ok(())
    }

    #[test]
    fn findlut_reports_the_plant() -> TestResult {
        let bs = sample()?;
        let report = cmd_findlut(&bs, "f2", FRAME_BYTES, false)?;
        assert!(report.contains("l =       42"), "{report}");
        assert!(report.contains("SliceM"), "{report}");
        Ok(())
    }

    #[test]
    fn findlut_json_record_format_is_stable() -> TestResult {
        let bs = sample()?;
        let out = cmd_findlut(&bs, "f2", FRAME_BYTES, true)?;
        let line =
            out.lines().find(|l| l.contains("\"l\":42,")).ok_or("planted hit missing from JSON")?;
        // The exact record is part of the CLI contract.
        let file_offset = bs.fdri_data_range().ok_or(CliError::NoPayload)?.start + 42;
        let f2 = Catalogue::full().shape("f2").ok_or("f2 missing from catalogue")?.truth;
        let init = DualOutputInit::from_single(f2).init();
        assert_eq!(
            line,
            format!(
                "{{\"candidate\":\"f2\",\"l\":42,\"file_offset\":{file_offset},\
                 \"order\":\"SliceM\",\"perm\":[0,1,2,3,4,5],\"init\":\"{init:#018x}\"}}"
            )
        );
        Ok(())
    }

    #[test]
    fn table2_lists_all_shapes() -> TestResult {
        let bs = sample()?;
        let report = cmd_table2(&bs, FRAME_BYTES, false)?;
        for name in ["f2", "m0b", "f21"] {
            assert!(report.contains(name), "{report}");
        }
        Ok(())
    }

    #[test]
    fn table2_json_names_the_candidate() -> TestResult {
        let bs = sample()?;
        let out = cmd_table2(&bs, FRAME_BYTES, true)?;
        assert!(
            out.lines().any(|l| l.contains("\"candidate\":\"f2\"") && l.contains("\"l\":42,")),
            "{out}"
        );
        Ok(())
    }

    #[test]
    fn config_errors_surface_with_source() -> TestResult {
        use std::error::Error;
        let bs = sample()?;
        let Err(err) = cmd_findlut(&bs, "f2", 0, false) else {
            return Err("zero stride must be rejected".into());
        };
        assert!(matches!(err, CliError::Config(_)));
        assert!(err.source().is_some());
        Ok(())
    }

    #[test]
    fn xorscan_runs() -> TestResult {
        let bs = sample()?;
        let report = cmd_xorscan(&bs, FRAME_BYTES, None)?;
        assert!(report.contains("XOR-half scan"));
        let windowed = cmd_xorscan(&bs, FRAME_BYTES, Some((0, 100)))?;
        assert!(windowed.contains("bytes 0..100"));
        Ok(())
    }

    #[test]
    fn packets_lists_writes() -> TestResult {
        let bs = sample()?;
        let listing = cmd_packets(&bs);
        assert!(listing.contains("write Fdri"), "{listing}");
        assert!(listing.contains("write Crc"), "{listing}");
        Ok(())
    }

    #[test]
    fn diff_command() -> TestResult {
        let a = sample()?;
        let mut b = a.clone();
        let range = b.fdri_data_range().ok_or(CliError::NoPayload)?;
        b.as_mut_bytes()[range.start + 5] ^= 1;
        let report = cmd_diff(&a, &b);
        assert!(report.contains("1 differing range(s), 1 byte(s)"), "{report}");
        Ok(())
    }

    #[test]
    fn crc_commands() -> TestResult {
        let bs = sample()?;
        let (disabled, msg) = cmd_crc(&bs, true);
        assert!(msg.contains("zeroed 1"));
        assert!(!disabled.parse()?.crc_checked);

        let mut broken = bs.clone();
        let range = broken.fdri_data_range().ok_or(CliError::NoPayload)?;
        broken.as_mut_bytes()[range.start] ^= 1;
        let (fixed, msg) = cmd_crc(&broken, false);
        assert!(msg.contains("recomputed"));
        assert!(fixed.parse()?.crc_checked);
        Ok(())
    }

    #[test]
    fn a_traced_attack_prints_the_key_and_finishes_its_trace() -> TestResult {
        let path =
            std::env::temp_dir().join(format!("bitmod-cli-attack-{}.ndjson", std::process::id()));
        let spec = SessionSpec::builder().batch(fpga_sim::GANG_LANES).trace(&path).build()?;
        let out = cmd_attack(&spec);
        let trace = std::fs::read_to_string(&path);
        let _ = std::fs::remove_file(&path);
        let (out, trace) = (out?, trace?);
        let key = format!("recovered key: {}", snow3g::vectors::TEST_SET_1_KEY);
        assert!(out.contains(&key), "{out}");
        assert!(out.contains("telemetry summary"), "{out}");
        let last = trace.lines().last().ok_or("the trace is empty")?;
        assert!(last.contains("\"ev\":\"summary\""), "{last}");
        Ok(())
    }

    #[test]
    fn attack_error_conversions_chain() {
        use std::error::Error;
        let e: CliError = AttackError::NoFdriPayload.into();
        assert!(matches!(e, CliError::Attack(_)));
        assert!(e.source().is_some());
        let e: crate::error::Error = CliError::NoPayload.into();
        assert!(e.to_string().starts_with("cli:"));
    }
}
