//! The benchmark's own checks: inputs and simulated counts are a pure
//! function of the seed, traced runs reproduce untraced ones, and a
//! harness error is tallied as a failed session.

use bitmod::fleet::{SessionIo, SessionSpec};
use bitstream::Bitstream;
use keybench::local::{self, build_board};
use keybench::record::{Ending, SessionRecord, Tally};
use keybench::specs::{self, Workload};
use keybench::{fleet, layers};

#[test]
fn the_seed_alone_fixes_the_specs() {
    assert_eq!(specs::fleet_burst(7, 3), specs::fleet_burst(7, 3));
    assert_eq!(specs::noisy(7, 0), specs::noisy(7, 0));
    assert_ne!(specs::noisy(7, 0).seed(), specs::noisy(8, 0).seed());
    assert_ne!(specs::noisy(7, 0).seed(), specs::noisy(7, 1).seed());
    let burst = specs::fleet_burst(7, 0);
    assert_eq!(burst.len(), specs::BURST);
    assert_eq!(burst.iter().filter(|s| s.is_noisy()).count(), specs::NOISY_PER_BURST);
    assert!(burst.iter().filter(|s| !s.is_noisy()).all(|s| *s == specs::headline(7)));
}

/// The simulated counts of a run: per session, ending, loads and every
/// program counter.
type Simulated = Vec<(Ending, u64, Vec<(String, u64)>)>;

fn simulated(run: &local::LocalRun) -> Simulated {
    run.traced
        .iter()
        .map(|s| {
            let r = &s.record;
            (r.ending.clone(), r.physical, r.counters.clone().into_iter().collect())
        })
        .collect()
}

#[test]
fn headline_counts_repeat_and_tracing_is_inert() {
    let a = local::run(Workload::Headline, 11, 0.01, 1, true).expect("runs");
    let b = local::run(Workload::Headline, 11, 0.01, 1, true).expect("runs");
    assert!(a.mismatches.is_empty(), "{:?}", a.mismatches);
    assert_eq!(a.tally.recovered, 1);
    assert_eq!(a.tally.loads_per_key(), Some(545.0));
    assert_eq!(simulated(&a), simulated(&b));
    let (la, lb) = (a.layer_values(), b.layer_values());
    for name in [
        "pr.bytes_per_key",
        "pr.partial_share",
        "seal.blocks_reencrypted_per_key",
        "seal.mac_bytes_per_key",
        "attack.batches",
    ] {
        assert!(la[name] > 0.0, "{name} measured");
        assert_eq!(la[name], lb[name], "{name} repeats");
    }
}

#[test]
fn noisy_counts_repeat_per_seed_and_move_with_it() {
    let a = local::run(Workload::Noisy, 3, 0.01, 1, true).expect("runs");
    let b = local::run(Workload::Noisy, 3, 0.01, 1, true).expect("runs");
    assert!(a.mismatches.is_empty(), "{:?}", a.mismatches);
    assert_eq!(simulated(&a), simulated(&b));
    assert_eq!((a.tally.physical, a.tally.fail_ratio()), (b.tally.physical, b.tally.fail_ratio()));
    let c = local::run(Workload::Noisy, 4, 0.01, 1, false).expect("runs");
    assert_ne!(a.tally.physical, c.tally.physical, "another seed draws other faults");
}

#[test]
fn fleet_counts_repeat_per_seed() {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("keybench-fleet-test");
    let digest = |run: &fleet::FleetRun| {
        let records: Vec<_> = run
            .traced
            .iter()
            .map(|(r, t)| (r.ending.clone(), r.physical, t.journal_writes, t.journal_bytes))
            .collect();
        (records, run.tally.loads_per_key(), run.tally.fail_ratio())
    };
    let a = fleet::run(5, 0.01, 2, true, &work.join("a")).expect("runs");
    let b = fleet::run(5, 0.01, 2, true, &work.join("b")).expect("runs");
    let _ = std::fs::remove_dir_all(&work);
    assert!(a.mismatches.is_empty(), "{:?}", a.mismatches);
    assert_eq!(a.tally.attempted, specs::BURST as u64);
    assert_eq!(digest(&a), digest(&b));
    let values = a.layer_values();
    assert!(values["journal.writes_per_key"] > 0.0);
    assert!(values["fleet.service_ms.p50"] > 0.0);
    assert_eq!(layers::PER_LAYER.len(), 30);
}

#[test]
fn a_session_error_is_a_failure_not_a_crash() {
    let board = build_board().expect("board");
    let io =
        SessionIo { expected_key: Some(snow3g::vectors::TEST_SET_1_KEY), ..SessionIo::default() };
    let garbage = Bitstream::from_bytes(vec![0; 64]);
    let result = SessionSpec::builder().build().expect("spec").run_against(&board, garbage, &io);
    assert!(result.is_err(), "a golden bitstream of zeros cannot be attacked");
    let record = SessionRecord::from_result(&result, 1.0, Default::default());
    assert!(matches!(record.ending, Ending::Error(_)));
    let mut tally = Tally::default();
    tally.add(&record);
    assert_eq!((tally.attempted, tally.failed(), tally.fail_ratio()), (1, 1, 1.0));
    assert_eq!(tally.loads_per_key(), None);
}
