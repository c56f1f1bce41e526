//! The per-layer metrics of a traced run.

use std::collections::BTreeMap;

use bitmod::telemetry::names;

use crate::record::{SessionRecord, TraceDigest};
use crate::shim::ClockReading;
use crate::stats::{mean, median};

/// Every per-layer metric a traced run reports, with its unit. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("setup.board_build_ms", "ms"),
    ("findlut.scan_ms", "ms"),
    ("attack.z_path_ms", "ms"),
    ("attack.feedback_ms", "ms"),
    ("attack.key_independent_ms", "ms"),
    ("attack.disambiguation_ms", "ms"),
    ("attack.extraction_ms", "ms"),
    ("attack.batches", "count"),
    ("attack.lane_occupancy", "lanes"),
    ("attack.above_device_ms", "ms"),
    ("pr.forge_ms", "ms"),
    ("pr.bytes_per_key", "bytes"),
    ("pr.partial_share", "ratio"),
    ("seal.ms", "ms"),
    ("seal.blocks_reencrypted_per_key", "count"),
    ("seal.mac_bytes_per_key", "bytes"),
    ("device.ms", "ms"),
    ("device.calls", "count"),
    ("device.us_per_load", "us"),
    ("resilient.loads_per_query", "ratio"),
    ("resilient.retries_per_key", "count"),
    ("resilient.backoff_vms_per_key", "vms"),
    ("journal.writes_per_key", "count"),
    ("journal.bytes_per_key", "bytes"),
    ("fleet.queue_wait_ms.p50", "ms"),
    ("fleet.service_ms.p50", "ms"),
    ("fleet.worker_util_pct", "pct"),
    ("fleet.steals", "count"),
    ("wire.submit_ms.p50", "ms"),
    ("trace.overhead_pct", "pct"),
];

/// The attack-phase spans the program's telemetry closes, and the
/// metric each one feeds.
pub const PHASES: [(&str, &str); 6] = [
    ("phase:candidate-search", "findlut.scan_ms"),
    ("phase:z-path-verification", "attack.z_path_ms"),
    ("phase:feedback-hypothesis", "attack.feedback_ms"),
    ("phase:key-independent", "attack.key_independent_ms"),
    ("phase:pair-disambiguation", "attack.disambiguation_ms"),
    ("phase:key-extraction", "attack.extraction_ms"),
];

/// One traced session: its record, the clocks of the timed layer
/// boundaries, and its trace.
#[derive(Debug, Clone)]
pub struct LayerSample {
    /// The traced session's record.
    pub record: SessionRecord,
    /// Time below the device boundary.
    pub device: ClockReading,
    /// Time below the container boundary, when the session is sealed.
    pub seal: Option<ClockReading>,
    /// Time below the partial-reconfiguration boundary, when on.
    pub pr: Option<ClockReading>,
    /// The session's NDJSON trace, digested.
    pub trace: TraceDigest,
    /// Mean gang-pass occupancy (lanes), when batched.
    pub occupancy: Option<f64>,
}

/// Per-layer values, keyed by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Adds the phase-span medians of `traces` to `out`.
pub fn add_phases(out: &mut LayerValues, traces: &[&TraceDigest]) {
    for (span, metric) in PHASES {
        let per_session: Vec<f64> = traces.iter().map(|t| t.span_ms(span)).collect();
        out.insert(metric, median(&per_session).unwrap_or(0.0));
    }
}

/// Adds counter totals per recovered key (per session when nothing was
/// recovered).
pub fn add_per_key(out: &mut LayerValues, records: &[&SessionRecord]) {
    let keys = records.iter().filter(|r| r.recovered()).count().max(1) as f64;
    let total = |name: &str| records.iter().map(|r| r.counter(name)).sum::<u64>() as f64;
    let partial = total(names::PR_PARTIAL_LOADS);
    let shipped = partial + total(names::PR_FULL_LOADS);
    out.insert("pr.bytes_per_key", total(names::PR_BYTES_SHIPPED) / keys);
    out.insert("pr.partial_share", if shipped > 0.0 { partial / shipped } else { 0.0 });
    out.insert(
        "seal.blocks_reencrypted_per_key",
        total(names::ENCRYPTED_BLOCKS_REENCRYPTED) / keys,
    );
    out.insert("seal.mac_bytes_per_key", total(names::ENCRYPTED_MAC_BYTES) / keys);
    out.insert("attack.batches", total(names::ORACLE_BATCHES) / keys);
    let queries = total(names::ORACLE_QUERIES);
    let loads = total(names::ORACLE_LOADS);
    out.insert("resilient.loads_per_query", if queries > 0.0 { loads / queries } else { 0.0 });
    out.insert("resilient.retries_per_key", total(names::ORACLE_RETRIES) / keys);
    out.insert("resilient.backoff_vms_per_key", total(names::ORACLE_BACKOFF_MS) / keys);
}

/// The sessions per-session medians are taken over: the recovered
/// ones, since a failed session stops early; all of them when none
/// recovered.
fn keyed<T>(items: &[T], recovered: impl Fn(&T) -> bool) -> Vec<&T> {
    let keyed: Vec<&T> = items.iter().filter(|i| recovered(i)).collect();
    if keyed.is_empty() {
        items.iter().collect()
    } else {
        keyed
    }
}

/// The per-layer values of a local traced run: per-session medians
/// over recovered sessions, counts per recovered key over all sessions.
#[must_use]
pub fn local(samples: &[LayerSample]) -> LayerValues {
    let mut out = LayerValues::new();
    let keyed = keyed(samples, |s| s.record.recovered());
    let med = |f: &dyn Fn(&LayerSample) -> f64| {
        median(&keyed.iter().map(|s| f(s)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.insert("device.ms", med(&|s| ms(s.device.ns)));
    out.insert("device.calls", med(&|s| s.device.calls as f64));
    let (dev_ns, dev_loads) =
        keyed.iter().fold((0, 0), |(ns, n), s| (ns + s.device.ns, n + s.device.loads));
    out.insert("device.us_per_load", dev_ns as f64 / 1e3 / dev_loads.max(1) as f64);
    out.insert("seal.ms", med(&|s| s.seal.map_or(0.0, |e| ms(e.ns - s.device.ns))));
    out.insert(
        "pr.forge_ms",
        med(&|s| s.pr.map_or(0.0, |p| ms(p.ns - s.seal.unwrap_or(s.device).ns))),
    );
    out.insert(
        "attack.above_device_ms",
        med(&|s| s.record.ms - ms(s.pr.or(s.seal).unwrap_or(s.device).ns)),
    );
    let occupancy: Vec<f64> = keyed.iter().filter_map(|s| s.occupancy).collect();
    out.insert("attack.lane_occupancy", mean(&occupancy).unwrap_or(0.0));
    add_phases(&mut out, &keyed.iter().map(|s| &s.trace).collect::<Vec<_>>());
    add_per_key(&mut out, &samples.iter().map(|s| &s.record).collect::<Vec<_>>());
    out
}

/// The per-session phase medians of fleet sessions, over recovered
/// sessions.
pub fn add_fleet_phases(out: &mut LayerValues, sessions: &[(SessionRecord, TraceDigest)]) {
    let keyed = keyed(sessions, |(r, _)| r.recovered());
    add_phases(out, &keyed.iter().map(|(_, t)| t).collect::<Vec<_>>());
}
