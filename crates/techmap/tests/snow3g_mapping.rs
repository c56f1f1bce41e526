//! Mapping the full SNOW 3G circuit: functional equivalence and the
//! LUT-cover shapes the attack relies on.
//!
//! The paper reports that the target node `v` is absorbed into three
//! kinds of LUTs: `LUT₁` (f2, keystream path, 32×) and `LUT₂`/`LUT₃`
//! (f8/f19, feedback path, 24+8×) — the feedback split caused by the
//! `α`/`α⁻¹` byte shifts. Our mapper reproduces the same phenomenon
//! with its own split: the middle 16 bits fold `v` into the `s₁₅`
//! load multiplexer together with the key constant (shapes `m0`/`m0b`,
//! the analog of the paper's f19 with its gated linear term `a3·a6`),
//! and the outer bytes absorb `v` into gated-XOR covers (`g4` plus
//! two carry-edge variants, one of which is exactly the paper's f7).

use boolfn::expr::var;
use boolfn::pclass;
use boolfn::TruthTable;
use netlist::snow3g_circuit::{Snow3gCircuit, Snow3gCircuitConfig, WARMUP_CYCLES};
use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};
use snow3g::Snow3g;
use std::collections::{HashMap, HashSet};
use techmap::{map, DelayModel, MapConfig, TimingReport};

fn circuit(protected: bool) -> Snow3gCircuit {
    Snow3gCircuit::generate(Snow3gCircuitConfig {
        key: TEST_SET_1_KEY,
        iv: TEST_SET_1_IV,
        protected,
    })
}

fn mapped_keystream(design: &techmap::MappedDesign, c: &Snow3gCircuit, words: usize) -> Vec<u32> {
    let probes = c.z_out.clone();
    let rows = design.simulate(&[(c.run, true)], WARMUP_CYCLES + words, &probes);
    rows[WARMUP_CYCLES..]
        .iter()
        .map(|bits| bits.iter().enumerate().fold(0u32, |acc, (i, &b)| acc | (u32::from(b) << i)))
        .collect()
}

/// The implementation-family cover shapes (see module docs).
fn family() -> Vec<(&'static str, TruthTable)> {
    let v = || var(1) ^ var(2);
    let x3 = || var(1) ^ var(2) ^ var(3);
    vec![
        ("f2", (x3() & var(4) & var(5) & !var(6)).truth_table(6)),
        ("m0", (!var(3) & ((v() & var(4) & var(5)) ^ var(6))).truth_table(6)),
        ("m0b", (var(3) | ((v() & var(4) & var(5)) ^ var(6))).truth_table(6)),
        ("g4", ((var(1) ^ var(2) ^ var(3) ^ var(4)) & var(5) & var(6)).truth_table(6)),
        ("f7", (x3() & var(4) & var(5)).truth_table(6)),
        ("g3c", ((var(1) ^ (var(2) & var(3)) ^ var(4)) & var(5) & var(6)).truth_table(6)),
    ]
}

/// Classifies every cover whose cone strictly contains a `v` node.
fn v_cover_classes(
    c: &Snow3gCircuit,
    design: &techmap::MappedDesign,
) -> HashMap<&'static str, usize> {
    let vset: HashSet<_> = c.v_nodes.iter().copied().collect();
    let fam = family();
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    for cov in &design.covers {
        let leaves: HashSet<_> = cov.leaves.iter().copied().collect();
        let mut stack = vec![cov.root];
        let mut seen = HashSet::new();
        let mut vhit = false;
        let mut gates = 0;
        while let Some(id) = stack.pop() {
            if leaves.contains(&id) || !seen.insert(id) {
                continue;
            }
            if vset.contains(&id) {
                vhit = true;
            }
            let node = c.network.node(id);
            if node.kind.is_gate() {
                gates += 1;
                stack.extend(node.fanin.iter().copied());
            }
        }
        // A trivial LUT implementing v alone does not *hide* v; only
        // composite covers count.
        if vhit && gates > 1 {
            let t6 = cov.truth.extend(6);
            let name =
                fam.iter().find(|(_, ft)| pclass::equivalent(*ft, t6)).map_or("other", |(n, _)| n);
            *counts.entry(name).or_insert(0) += 1;
        }
    }
    counts
}

#[test]
fn mapped_unprotected_matches_software_model() {
    let c = circuit(false);
    let design = map(&c.network, &MapConfig::default()).expect("mapping succeeds");
    let hw = mapped_keystream(&design, &c, 4);
    let sw = Snow3g::new(TEST_SET_1_KEY, TEST_SET_1_IV).keystream(4);
    assert_eq!(hw, sw);
}

#[test]
fn mapped_protected_matches_software_model() {
    let c = circuit(true);
    let design = map(&c.network, &MapConfig::default()).expect("mapping succeeds");
    let hw = mapped_keystream(&design, &c, 4);
    let sw = Snow3g::new(TEST_SET_1_KEY, TEST_SET_1_IV).keystream(4);
    assert_eq!(hw, sw);
}

#[test]
fn unprotected_v_cover_distribution() {
    // The frozen ground truth of the reproduction: 32 f2 covers on
    // the keystream path; on the feedback path 16 mux-folded covers
    // (m0 + m0b, split by the γ(K, IV) constant of stage s15) and 16
    // gated-XOR covers (14 g4 + the two carry-edge variants f7/g3c).
    let c = circuit(false);
    let design = map(&c.network, &MapConfig::default()).expect("mapping succeeds");
    let counts = v_cover_classes(&c, &design);
    assert_eq!(counts.get("f2"), Some(&32), "z-path covers: {counts:?}");
    let m0 = counts.get("m0").copied().unwrap_or(0);
    let m0b = counts.get("m0b").copied().unwrap_or(0);
    assert_eq!(m0 + m0b, 16, "mux-folded feedback covers: {counts:?}");
    // The m0/m0b split equals the weight of the middle 16 bits of
    // γ15 = k3 ⊕ iv0.
    let gamma15_mid = (c.gamma[15] >> 8) & 0xffff;
    assert_eq!(m0b as u32, gamma15_mid.count_ones(), "{counts:?}");
    assert_eq!(counts.get("g4"), Some(&14), "outer-byte feedback covers: {counts:?}");
    assert_eq!(counts.get("f7"), Some(&1), "bit-0 cover (no carry): {counts:?}");
    assert_eq!(counts.get("g3c"), Some(&1), "bit-1 cover (first carry): {counts:?}");
    assert_eq!(counts.get("other"), None, "no unexplained shapes: {counts:?}");
}

#[test]
fn every_v_bit_absorbed_on_both_paths() {
    let c = circuit(false);
    let design = map(&c.network, &MapConfig::default()).expect("mapping succeeds");
    // No v node may be realised as its own LUT or used as a pin: the
    // attack relies on v living strictly inside LUTs.
    let idx = design.cover_index();
    for &v in &c.v_nodes {
        assert!(!idx.contains_key(&v), "v node {v} must not be a cover root");
    }
    for cov in &design.covers {
        for l in &cov.leaves {
            assert!(!c.v_nodes.contains(l), "v node {l} must not be a LUT pin");
        }
    }
    // Each v bit appears inside exactly two covers (z path and
    // feedback path).
    let vset: HashSet<_> = c.v_nodes.iter().copied().collect();
    let mut per_v: HashMap<netlist::NodeId, usize> = HashMap::new();
    for cov in &design.covers {
        let leaves: HashSet<_> = cov.leaves.iter().copied().collect();
        let mut stack = vec![cov.root];
        let mut seen = HashSet::new();
        while let Some(id) = stack.pop() {
            if leaves.contains(&id) || !seen.insert(id) {
                continue;
            }
            if vset.contains(&id) {
                *per_v.entry(id).or_insert(0) += 1;
            }
            let node = c.network.node(id);
            if node.kind.is_gate() {
                stack.extend(node.fanin.iter().copied());
            }
        }
    }
    assert_eq!(per_v.len(), 32);
    assert!(per_v.values().all(|&n| n == 2), "each v bit in exactly 2 covers: {per_v:?}");
}

#[test]
fn protected_kills_composite_covers() {
    let c = circuit(true);
    let design = map(&c.network, &MapConfig::default()).expect("mapping succeeds");
    let counts = v_cover_classes(&c, &design);
    assert!(counts.is_empty(), "no LUT may absorb v in the protected design: {counts:?}");
}

#[test]
fn protected_produces_trivial_xor_population() {
    let c = circuit(true);
    let design = map(&c.network, &MapConfig::default()).expect("mapping succeeds");
    let idx = design.cover_index();
    let mut xors = 0;
    let mut buffers = 0;
    for (id, node) in c.network.iter() {
        if node.keep {
            let cov = &design.covers[idx[&id]];
            match cov.leaves.len() {
                2 => {
                    assert_eq!(cov.truth.as_xor_pair(), Some((1, 2)), "keep node {id}");
                    xors += 1;
                }
                // XOR gates with one constant-folded input (the byte
                // shift edges of α·s0) become buffers.
                1 => buffers += 1,
                n => panic!("keep node {id} mapped with {n} pins"),
            }
        }
    }
    assert_eq!(xors + buffers, 192, "six 32-bit XOR vectors kept");
    assert_eq!(buffers, 8, "the 8 const-shifted bits of α·s0");
}

#[test]
fn protected_design_is_slower() {
    let model = DelayModel::default();
    let unprot = circuit(false);
    let prot = circuit(true);
    let t_unprot =
        TimingReport::analyze(&map(&unprot.network, &MapConfig::default()).unwrap(), &model);
    let t_prot = TimingReport::analyze(&map(&prot.network, &MapConfig::default()).unwrap(), &model);
    assert!(
        t_prot.critical_ns > t_unprot.critical_ns,
        "countermeasure must cost delay: {:.3} vs {:.3}",
        t_prot.critical_ns,
        t_unprot.critical_ns
    );
    assert!(t_prot.depth >= t_unprot.depth);
}

#[test]
fn depth_objective_maps_snow3g_correctly() {
    // The attack's frozen cover shapes assume the Area objective, but
    // the Depth objective must still produce a functionally correct,
    // no-deeper mapping of the full cipher.
    use techmap::MapObjective;
    let c = circuit(false);
    let area = map(&c.network, &MapConfig::default()).expect("area maps");
    let depth =
        map(&c.network, &MapConfig { objective: MapObjective::Depth, ..MapConfig::default() })
            .expect("depth maps");
    assert!(depth.logic_depth() <= area.logic_depth());
    let hw = mapped_keystream(&depth, &c, 2);
    assert_eq!(hw, vec![0xABEE9704, 0x7AC31373]);
}

#[test]
fn lut_counts_are_plausible() {
    let c = circuit(false);
    let design = map(&c.network, &MapConfig::default()).expect("mapping succeeds");
    let n = design.lut_count();
    assert!(n > 300 && n < 5000, "LUT count {n} out of expected range");
    assert!(design.fractured_count() > 0, "some LUTs should pack in pairs");
    assert_eq!(design.brams.len(), 10, "8 T-table + MULα + DIVα block RAMs");
    // The protected design needs more LUTs.
    let p = circuit(true);
    let pdesign = map(&p.network, &MapConfig::default()).expect("mapping succeeds");
    assert!(pdesign.covers.len() > design.covers.len(), "countermeasure costs area");
}

#[test]
fn automated_protect_pass_defeats_composite_covers() {
    // The generic netlist::protect pass (the paper's "can be
    // automated and incorporated into industrial design tools")
    // applied to an *unprotected* circuit with the Lemma VII-A decoy
    // budget must remove every composite cover of v, just like the
    // hand-annotated protected circuit.
    let mut c = circuit(false);
    let budget = netlist::protect::decoys_for_security(32, 128.0);
    let report = netlist::protect::protect(&mut c.network, &c.v_nodes.clone(), budget as usize)
        .expect("protect pass runs");
    assert_eq!(report.targets, 32);
    assert!(report.decoys as u64 >= budget.min(report.population as u64));
    let design = map(&c.network, &MapConfig::default()).expect("maps");
    let counts = v_cover_classes(&c, &design);
    assert!(counts.is_empty(), "composite covers must disappear: {counts:?}");
    // Functionality preserved end to end.
    let hw = mapped_keystream(&design, &c, 2);
    assert_eq!(hw, vec![0xABEE9704, 0x7AC31373]);
}

/// FNV-1a over every field of `covers` and `luts` that placement and
/// bitstream emission read: each root, each pin in pin order, each
/// truth table (arity and bits), each INIT and each `O6`/`O5` net.
fn design_digest(design: &techmap::MappedDesign) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(design.covers.len() as u64);
    for c in &design.covers {
        eat(u64::from(c.root.0));
        eat(c.leaves.len() as u64);
        c.leaves.iter().for_each(|l| eat(u64::from(l.0)));
        eat(u64::from(c.truth.num_vars()));
        eat(c.truth.bits());
    }
    eat(design.luts.len() as u64);
    for l in &design.luts {
        eat(l.inputs.len() as u64);
        l.inputs.iter().for_each(|p| eat(u64::from(p.0)));
        eat(l.init.init());
        eat(u64::from(l.o6.0));
        eat(l.o5.map_or(u64::MAX, |n| u64::from(n.0)));
    }
    h
}

#[test]
fn mapped_designs_are_pinned() {
    // The attack depends on the exact covers, pin orders and INITs, so
    // a change to enumeration order, cut pruning, cover tie-breaks or
    // pair packing must leave every digest untouched. The `max_cuts`
    // rows are the settings of `paper-tables ablation`.
    use techmap::MapObjective::Depth;
    let depth = MapConfig { objective: Depth, ..MapConfig::default() };
    let cuts = |max_cuts| MapConfig { max_cuts, ..MapConfig::default() };
    let cases = [
        ("unprotected area", false, MapConfig::default(), 0xbf48_9fbf_8a1d_f486, 890, 588),
        ("unprotected depth", false, depth, 0x39f0_b7ef_7e43_1af9, 897, 592),
        ("protected area", true, MapConfig::default(), 0x3f66_2cb0_d861_80e7, 1056, 640),
        ("protected depth", true, depth, 0x3f66_2cb0_d861_80e7, 1056, 640),
        ("max_cuts 4", false, cuts(4), 0x25d3_1b63_ba77_0a98, 856, 570),
        ("max_cuts 8", false, cuts(8), 0x93f7_6c52_7df6_b280, 863, 575),
        ("max_cuts 32", false, cuts(32), 0xffd4_a84d_e12c_38ee, 918, 616),
    ];
    let (unprotected, protected) = (circuit(false), circuit(true));
    for (name, prot, config, digest, covers, luts) in cases {
        let c = if prot { &protected } else { &unprotected };
        let design = map(&c.network, &config).expect("mapping succeeds");
        assert_eq!(
            (design_digest(&design), design.covers.len(), design.luts.len()),
            (digest, covers, luts),
            "{name}"
        );
    }
}
