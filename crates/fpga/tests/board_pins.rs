//! Pins the golden bitstream of both victim boards byte for byte.
//!
//! The attack reads the exact LUT covers, pin orders and INITs that
//! technology mapping produces, and a fleet session migrated between
//! workers resumes its journal on a peer's board, so every build of a
//! board, on any thread, must emit the same bytes. Three boards are
//! built at once here, so that any state shared between builds shows
//! up as a mismatch.

use std::sync::Barrier;

use bitstream::secure::sha256;
use fpga_sim::{ImplementOptions, Snow3gBoard};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

const UNPROTECTED: (usize, &str) =
    (19_528, "0c2c8041e108280b6ac21f2f71aee389a29afe2d399063dc82314b14b1077b8a");
const PROTECTED: (usize, &str) =
    (24_376, "d640656f1d88c96cf90292a041ff1c4ef8e45e44e7deed552959975f4ea1426b");

/// Builds a board and returns its golden bitstream's length and
/// SHA-256 (hex).
fn golden(protected: bool) -> (usize, String) {
    let config = if protected {
        Snow3gCircuitConfig::protected(TEST_SET_1_KEY, TEST_SET_1_IV)
    } else {
        Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV)
    };
    let board = Snow3gBoard::build(config, &ImplementOptions::default()).expect("board builds");
    let bytes = board.extract_bitstream();
    let hex = sha256(bytes.as_bytes()).iter().map(|b| format!("{b:02x}")).collect();
    (bytes.len(), hex)
}

fn pin((len, sha): (usize, &str)) -> (usize, String) {
    (len, sha.to_string())
}

#[test]
fn golden_bitstreams_are_pinned_across_threads() {
    // Three builds released together by a barrier: two unprotected
    // and one protected, the test thread's own among them.
    let start = Barrier::new(3);
    let build = |protected| {
        start.wait();
        golden(protected)
    };
    let (here, unprotected, protected) = std::thread::scope(|s| {
        let protected = s.spawn(|| build(true));
        let unprotected = s.spawn(|| build(false));
        let here = build(false);
        (here, unprotected.join().expect("no panic"), protected.join().expect("no panic"))
    });
    assert_eq!(here, pin(UNPROTECTED), "unprotected board, test thread");
    assert_eq!(unprotected, pin(UNPROTECTED), "unprotected board, spawned thread");
    assert_eq!(protected, pin(PROTECTED), "protected board, spawned thread");
}
