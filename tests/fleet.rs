//! Fleet-layer integration tests: kill-and-steal recovery through the
//! work-stealing scheduler, the loopback line-protocol server/client
//! pair, and a SIGKILL'd `bitmod serve` process whose sessions resume
//! on restart.
//!
//! The central claim under test extends tests/resume.rs one layer up:
//! a session interrupted *by worker death* and stolen by a peer must
//! recover the key with effort totals bit-identical to an
//! uninterrupted serial run of the same spec — the fleet journals
//! write-ahead and the steal replays the exact query trace.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bitmod::fleet::{
    ClientError, Endpoint, Fleet, FleetClient, FleetConfig, FleetServer, SessionLayout,
    SessionOutcome, SessionSpec, SessionState,
};
use bitmod::telemetry::names;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bitmod-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Submits `spec` to a two-worker fleet, kills the worker running it
/// after its first write-ahead checkpoint, and asserts that a peer
/// steals it and recovers the key with effort totals identical to an
/// uninterrupted serial run. Returns the session's NDJSON telemetry
/// (every leg, in order).
fn kill_and_steal(tag: &str, spec: SessionSpec) -> Vec<String> {
    // The ground truth: one uninterrupted serial run of the same spec.
    let baseline = spec.run_local().expect("serial baseline completes");
    let SessionOutcome::Recovered(serial_stats) = baseline.outcome else {
        panic!("serial baseline did not recover: {:?}", baseline.outcome);
    };

    let root = temp_root(tag);
    let fleet = Fleet::start(FleetConfig::new(&root).workers(2)).expect("fleet starts");
    let handle = fleet.submit(spec).expect("submits");

    // Wait for the first write-ahead checkpoint, then kill the worker
    // running the session mid-attack.
    let deadline = Instant::now() + Duration::from_secs(600);
    let worker = loop {
        assert!(Instant::now() < deadline, "session never wrote a journal checkpoint");
        let status = handle.status();
        assert!(
            !status.state.is_terminal(),
            "session finished before the kill could land ({})",
            status.state.as_str()
        );
        if handle.layout().journal().exists() {
            if let Some(worker) = status.worker {
                break worker;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(fleet.kill_worker(worker), "the kill switch reaches worker {worker}");

    let status = handle.wait_timeout(Duration::from_secs(600)).expect("session terminates");
    assert_eq!(status.state, SessionState::Recovered, "stolen session recovers ({})", status.note);
    assert!(status.steals >= 1, "the session changed hands");
    assert_eq!(
        status.stats, serial_stats,
        "stolen-and-resumed totals must be identical to the uninterrupted serial run"
    );
    assert!(handle.layout().result().exists(), "terminal result.json persisted");
    assert!(!handle.layout().journal().exists(), "journal removed after success");

    let counters = fleet.counters();
    assert!(counters.counter(names::FLEET_STEAL_COUNT) >= 1, "steal counted");
    assert!(counters.counter(names::FLEET_WORKERS_KILLED) >= 1, "worker death counted");
    assert!(counters.counter(names::FLEET_SESSIONS_RESUMED) >= 1, "resume-from-journal counted");
    fleet.shutdown();
    let lines = handle.tap_lines();
    let _ = std::fs::remove_dir_all(&root);
    lines
}

#[test]
fn a_killed_workers_session_is_stolen_and_resumes_to_serial_totals() {
    kill_and_steal("steal", SessionSpec::builder().noisy(true).seed(7).build().expect("valid"));
}

#[test]
fn a_partial_session_keeps_the_partial_port_through_kill_and_steal() {
    let spec = SessionSpec::builder().noisy(true).seed(7).partial(true).build().expect("valid");
    let lines = kill_and_steal("partial", spec);
    let summary = lines
        .iter()
        .rev()
        .find(|l| l.contains("\"ev\":\"summary\""))
        .expect("the finishing leg closes its trace with a summary");
    let key = format!("\"{}\":", names::PR_PARTIAL_LOADS);
    let at = summary.find(&key).expect("the summary counts partial loads") + key.len();
    let partial: u64 = summary[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("a count");
    assert!(partial > 0, "the fleet must ship frame deltas, not full loads: {summary}");
}

#[test]
fn the_loopback_server_round_trips_the_line_protocol() {
    let root = temp_root("serve");
    let fleet = Fleet::start(FleetConfig::new(&root).workers(1)).expect("fleet starts");
    let server = FleetServer::bind(&Endpoint::parse("127.0.0.1:0"), fleet).expect("binds");
    let endpoint = server.endpoint().clone();
    let join = server.spawn();

    let mut client = FleetClient::connect(&endpoint).expect("connects");
    client.ping().expect("pong");

    let spec = SessionSpec::builder().batch(fpga_sim::GANG_LANES).build().expect("valid spec");
    let id = client.submit(&spec).expect("submits");
    assert!(id.starts_with('s'), "session ids are s-prefixed: {id}");

    // `tail` streams the worker's live NDJSON telemetry until the
    // session is terminal, then reports the terminal state.
    let mut tailed = Vec::new();
    let state = client.tail(&id, &mut tailed).expect("tails to completion");
    assert_eq!(state, "recovered");
    assert!(!tailed.is_empty(), "telemetry was streamed");

    let status = client.status(&id).expect("status");
    assert!(status.contains("\"state\":\"recovered\""), "unexpected status: {status}");
    let list = client.list().expect("list");
    assert!(list.contains(&id), "list carries the session: {list}");
    let counters = client.counters().expect("counters");
    assert!(counters.contains(names::FLEET_SESSIONS_DONE), "fleet counters exposed: {counters}");

    match client.cancel("s999999") {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("unknown session"), "typed refusal: {message}");
        }
        other => panic!("cancelling an unknown id must fail on the server, got {other:?}"),
    }

    client.shutdown().expect("shutdown acknowledged");
    join.join().expect("server thread exits");
    let _ = std::fs::remove_dir_all(&root);
}

/// SIGKILLs a live `bitmod serve` daemon mid-session and asserts a
/// fresh daemon on the same root boot-scans the fleet directory and
/// resumes the orphaned session from its journal to key recovery.
#[cfg(unix)]
#[test]
fn a_sigkilled_daemon_resumes_its_sessions_on_restart() {
    use std::process::{Child, Command, Stdio};

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
    let spec = SessionSpec::builder().seed(3).build().expect("valid spec");
    let id = client.submit(&spec).expect("submits");

    // Wait for the session's first write-ahead checkpoint, then
    // SIGKILL the whole daemon — no drop handlers, no cleanup.
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
    loop {
        let status = client.status(&id).expect("status after restart");
        if status.contains("\"state\":\"recovered\"") {
            break;
        }
        for terminal in ["failed", "cancelled", "exhausted"] {
            assert!(
                !status.contains(&format!("\"state\":\"{terminal}\"")),
                "resumed session must recover, ended: {status}"
            );
        }
        assert!(Instant::now() < deadline, "resumed session never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
    client.shutdown().expect("clean shutdown");
    let _ = second.wait();
    let _ = std::fs::remove_dir_all(&root);
}
