//! Chaos tests: the adaptive fleet under compound failure — burst
//! (Gilbert–Elliott) keystream noise, a board that dies permanently
//! mid-session, and a SIGKILL'd daemon — must still recover the
//! Test Set 1 key with effort totals bit-identical to an
//! uninterrupted run of the same seed-pinned spec.
//!
//! The determinism claim composes three layers pinned separately
//! elsewhere: ambient noise is a pure function of (seed, query index,
//! lane) so any board replays it; `dies_at` pathology is board-local
//! and excluded from the ambient profile, so a migrated session sees
//! none of it on the healthy peer; and the write-ahead journal
//! restores the resilience layer (stats, clock, adaptive policy)
//! exactly. Here the three are exercised together.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bitmod::fleet::{
    health, BoardHealth, Fleet, FleetConfig, SessionOutcome, SessionSpec, SessionState,
};
use bitmod::telemetry::names;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bitmod-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The chaos spec: ambient burst noise on top of the flaky floor,
/// with the adaptive policy riding the fault rate.
fn chaos_spec() -> SessionSpec {
    SessionSpec::builder()
        .noisy(true)
        .seed(11)
        .burst(0.02, 0.30, 0.08)
        .adaptive(true)
        .build()
        .expect("valid chaos spec")
}

#[test]
fn burst_noise_plus_board_death_migrates_and_recovers_to_serial_totals() {
    let spec = chaos_spec();

    // Ground truth: one uninterrupted local run of the same spec.
    let baseline = spec.run_local().expect("serial baseline completes");
    let SessionOutcome::Recovered(serial_stats) = baseline.outcome else {
        panic!("serial baseline did not recover: {:?}", baseline.outcome);
    };

    // Doom *both* boards at 60% of the baseline's physical loads:
    // whichever worker picks the session up dies mid-run. The fuse
    // counts board-local wear (not the restored session position), so
    // the peer resumes with a fresh fuse and the migrated remainder
    // (~40% of the loads) burns well under it.
    let dies_at = (serial_stats.physical * 3 / 5).max(10);
    let root = temp_root("death");
    let fleet = Fleet::start(
        FleetConfig::new(&root).workers(2).board_dies_at(0, dies_at).board_dies_at(1, dies_at),
    )
    .expect("fleet starts");
    let handle = fleet.submit(spec).expect("submits");

    let status = handle.wait_timeout(Duration::from_secs(600)).expect("session terminates");
    assert_eq!(
        status.state,
        SessionState::Recovered,
        "migrated session recovers ({})",
        status.note
    );
    assert!(status.steals >= 1, "the session changed hands");
    assert_eq!(
        status.stats, serial_stats,
        "migrated-and-resumed totals must be identical to the uninterrupted serial run"
    );

    let counters = fleet.counters();
    assert_eq!(counters.counter(names::FLEET_BOARDS_QUARANTINED), 1, "one board died");
    assert_eq!(counters.counter(names::FLEET_SESSIONS_MIGRATED), 1, "one migration");

    // Exactly one board is dead, and it is durably quarantined.
    let report = fleet.health();
    let dead: Vec<_> = report.iter().filter(|w| w.health() == BoardHealth::Dead).collect();
    assert_eq!(dead.len(), 1, "exactly one dead board: {report:?}");
    let victim = dead[0].worker;
    assert!(dead[0].score.loads >= dies_at, "the fuse burned through real loads");
    let marker = health::marker_path(fleet.root(), victim);
    assert!(marker.exists(), "quarantine marker persisted at {}", marker.display());
    let survivor = report.iter().find(|w| w.worker != victim).expect("two workers");
    assert_eq!(survivor.health(), BoardHealth::Healthy, "the peer stayed healthy");
    assert!(survivor.score.sessions >= 1, "the peer ran the migrated session");
    fleet.shutdown();

    // Reboot on the same root: the boot re-probe finds the marker,
    // probes a working board behind the slot (the simulated fleet
    // rebuilds it — "replaced hardware"), clears the quarantine and
    // counts the re-probe.
    let fleet = Fleet::start(FleetConfig::new(&root).workers(2)).expect("fleet reboots");
    assert!(!marker.exists(), "re-probe cleared the quarantine marker");
    assert_eq!(fleet.counters().counter(names::FLEET_BOARDS_REPROBED), 1);
    assert!(
        fleet.health().iter().all(|w| w.health() == BoardHealth::Healthy),
        "all boards healthy after the re-probe: {:?}",
        fleet.health()
    );
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// SIGKILLs a `bitmod serve` daemon mid-way through an adaptive
/// burst-noise session; a fresh daemon on the same root must resume
/// it from the journal to key recovery with serial-identical totals,
/// and the wire protocol must expose the board-health report.
#[cfg(unix)]
#[test]
fn a_sigkilled_daemon_resumes_an_adaptive_noisy_session_to_serial_totals() {
    use std::process::{Child, Command, Stdio};

    use bitmod::fleet::{wire, Endpoint, FleetClient, SessionLayout};

    let spec = chaos_spec();
    let baseline = spec.run_local().expect("serial baseline completes");
    let SessionOutcome::Recovered(serial_stats) = baseline.outcome else {
        panic!("serial baseline did not recover: {:?}", baseline.outcome);
    };

    let root = temp_root("sigkill");
    std::fs::create_dir_all(&root).expect("test root");
    let fleet_root = root.join("fleet");
    let sock = |n: u32| root.join(format!("serve-{n}.sock"));

    let serve = |sock_path: &std::path::Path| -> Child {
        Command::new(env!("CARGO_BIN_EXE_bitmod"))
            .args([
                "serve",
                "--addr",
                &format!("unix:{}", sock_path.display()),
                "--root",
                &fleet_root.display().to_string(),
                "--workers",
                "1",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("bitmod serve spawns")
    };
    let connect = |sock_path: &std::path::Path| -> FleetClient {
        let endpoint = Endpoint::Unix(sock_path.to_path_buf());
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Ok(mut client) = FleetClient::connect(&endpoint) {
                if client.ping().is_ok() {
                    return client;
                }
            }
            assert!(Instant::now() < deadline, "server never came up on {}", sock_path.display());
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    let mut first = serve(&sock(1));
    let mut client = connect(&sock(1));
    let id = client.submit(&spec).expect("submits the chaos spec over the wire");

    // The health verb answers before any session ran: one healthy
    // board, zero gap.
    let health_line = client.health().expect("health");
    assert!(health_line.contains("\"boards\":["), "health rows exposed: {health_line}");
    assert!(health_line.contains("\"health\":\"healthy\""), "fresh board healthy: {health_line}");

    // Wait for the first write-ahead checkpoint, then SIGKILL the
    // whole daemon — no drop handlers, no cleanup.
    let journal = SessionLayout::for_session(&fleet_root, &id).journal();
    let deadline = Instant::now() + Duration::from_secs(600);
    while !journal.exists() {
        assert!(Instant::now() < deadline, "session never journalled");
        let status = client.status(&id).expect("status");
        assert!(
            !status.contains("\"state\":\"recovered\""),
            "session finished before the SIGKILL could land"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    first.kill().expect("SIGKILL delivered");
    let _ = first.wait();

    let mut second = serve(&sock(2));
    let mut client = connect(&sock(2));
    let deadline = Instant::now() + Duration::from_secs(600);
    let status = loop {
        let status = client.status(&id).expect("status after restart");
        if status.contains("\"state\":\"recovered\"") {
            break status;
        }
        for terminal in ["failed", "cancelled", "exhausted"] {
            assert!(
                !status.contains(&format!("\"state\":\"{terminal}\"")),
                "resumed session must recover, ended: {status}"
            );
        }
        assert!(Instant::now() < deadline, "resumed session never finished");
        std::thread::sleep(Duration::from_millis(50));
    };

    // Seed-pinned determinism across the SIGKILL: the resumed run's
    // effort totals equal the uninterrupted serial baseline's.
    assert_eq!(wire::number_field(&status, "physical"), Some(serial_stats.physical));
    assert_eq!(wire::number_field(&status, "logical"), Some(serial_stats.logical));
    assert_eq!(wire::number_field(&status, "retries"), Some(serial_stats.retries));

    // After a noisy session, the health report carries its loads and
    // the fault gap counter is present in the counter dump.
    let health_line = client.health().expect("health after the run");
    assert!(
        wire::number_field(&health_line, "loads").is_some_and(|loads| loads > 0),
        "board loads accounted: {health_line}"
    );
    let counters = client.counters().expect("counters");
    assert!(
        counters.contains(names::BOARD_FAULT_GAP),
        "observed-vs-injected gap surfaced: {counters}"
    );

    client.shutdown().expect("clean shutdown");
    let _ = second.wait();
    let _ = std::fs::remove_dir_all(&root);
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("copy target");
    for entry in std::fs::read_dir(from).expect("readable source") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("file copies");
        }
    }
}

/// Parks one mid-flight noisy session via a graceful drain and
/// returns (root, session id, journal bytes, serial-baseline stats):
/// the shared fixture for the torn-write recovery sweeps below.
fn parked_session(tag: &str) -> (PathBuf, String, Vec<u8>, bitmod::fleet::CellStats) {
    let spec = SessionSpec::builder().noisy(true).seed(7).build().expect("valid spec");
    let baseline = spec.run_local().expect("serial baseline completes");
    let SessionOutcome::Recovered(serial_stats) = baseline.outcome else {
        panic!("serial baseline did not recover: {:?}", baseline.outcome);
    };

    let root = temp_root(tag);
    let fleet = Fleet::start(FleetConfig::new(&root).workers(1)).expect("fleet starts");
    let handle = fleet.submit(spec).expect("submits");
    let journal = handle.layout().journal();
    let deadline = Instant::now() + Duration::from_secs(600);
    while !journal.exists() {
        assert!(Instant::now() < deadline, "session never journalled");
        assert!(!handle.state().is_terminal(), "session outran the drain");
        std::thread::sleep(Duration::from_millis(2));
    }
    let metrics = fleet.drain();
    assert!(metrics.counter(names::FLEET_DRAIN_PARKED) >= 1, "drain parked the session");
    let bytes = std::fs::read(&journal).expect("parked journal readable");
    let id = handle.id().to_string();
    drop((handle, fleet));
    (root, id, bytes, serial_stats)
}

/// Journal decode totality: a checkpoint truncated at *every* byte
/// boundary — every possible torn tail — comes back as a typed
/// corruption error; only the complete frame decodes. No panic, no
/// misdecode, at any cut.
#[test]
fn a_journal_truncated_at_every_byte_boundary_decodes_to_typed_errors() {
    use bitmod::journal;

    let (root, _, bytes, _) = parked_session("torn-sweep");
    assert!(journal::decode_frame(&bytes).is_ok(), "the untorn frame decodes");
    for cut in 0..bytes.len() {
        match journal::decode_frame(&bytes[..cut]) {
            Ok(doc) => panic!("a {cut}-byte torn prefix decoded to {doc:?}"),
            Err(e) => {
                assert!(e.is_corruption(), "typed corruption at cut {cut}, got {e:?}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Torn-write recovery, end to end: representative crash states of
/// the journal write path (mid-frame truncations of the journal
/// itself, plus the atomic-rename states a crash mid-`save` leaves
/// behind) are each planted under a fresh boot, and every boot must
/// finish the session to key recovery with effort totals
/// bit-identical to the uninterrupted serial run — a torn checkpoint
/// is discarded and restarted, an intact one is resumed, and neither
/// path changes a single count.
#[test]
fn every_torn_write_crash_state_boots_to_serial_identical_totals() {
    use bitmod::fleet::chaos::{simulate_torn_write, truncate_at, TornWritePoint};
    use bitmod::fleet::SessionLayout;

    let (root, id, bytes, serial_stats) = parked_session("torn-boot");

    // (tag, journal truncation, tmp-file state, torn checkpoint?)
    let states: &[(&str, Option<u64>, Option<TornWritePoint>, bool)] = &[
        ("mid-frame", Some(bytes.len() as u64 / 2), None, true),
        ("one-short", Some(bytes.len() as u64 - 1), None, true),
        ("header-only", Some(10), None, true),
        ("empty", Some(0), None, true),
        // A crash mid-save: the tmp file is torn or complete but the
        // rename never happened — the *previous* checkpoint is intact
        // and must be resumed, tmp debris notwithstanding.
        ("tmp-partial", None, Some(TornWritePoint::TempPartial(7)), false),
        ("tmp-complete", None, Some(TornWritePoint::TempComplete), false),
    ];

    for (tag, cut, tmp, torn) in states {
        let boot_root = temp_root(&format!("torn-boot-{tag}"));
        copy_dir(&root, &boot_root);
        let journal = SessionLayout::for_session(&boot_root, &id).journal();
        if let Some(cut) = cut {
            truncate_at(&journal, *cut).expect("truncates the checkpoint");
        }
        if let Some(point) = tmp {
            simulate_torn_write(&journal, &bytes, *point).expect("plants tmp debris");
        }

        let fleet = Fleet::start(FleetConfig::new(&boot_root).workers(1)).expect("boots");
        let handle = fleet.handle(&id).expect("boot rescan readmits the session");
        let status = handle.wait_timeout(Duration::from_secs(600)).expect("terminates");
        assert_eq!(
            status.state,
            SessionState::Recovered,
            "crash state '{tag}' recovers ({})",
            status.note
        );
        assert_eq!(
            status.stats, serial_stats,
            "crash state '{tag}' reaches serial-identical totals"
        );
        let discarded = fleet.counters().counter(names::JOURNAL_TORN_DISCARDED);
        if *torn {
            assert!(discarded >= 1, "crash state '{tag}' discarded the torn checkpoint");
        } else {
            assert_eq!(discarded, 0, "crash state '{tag}' must resume, not discard");
            assert!(
                fleet.counters().counter(names::FLEET_SESSIONS_RESUMED) >= 1,
                "crash state '{tag}' resumed from the intact checkpoint"
            );
        }
        fleet.shutdown();
        let _ = std::fs::remove_dir_all(&boot_root);
    }
    let _ = std::fs::remove_dir_all(&root);
}
