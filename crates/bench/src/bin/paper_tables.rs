//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin paper-tables [SECTION...]
//! ```
//!
//! Sections: `xi` (Table I), `table2`, `table3`, `table4`, `table5`,
//! `table6`, `fig4`, `fig5`, `timing`, `xorscan`, `complexity`,
//! `bifi` (the untargeted-baseline ablation; only with an explicit arg),
//! `ablation` (mapper design-choice sweeps).
//! With no arguments, everything is printed. See EXPERIMENTS.md for
//! the recorded paper-vs-measured comparison.

use std::collections::BTreeMap;
use std::time::Instant;

use bench::{payload_of, test_board};
use bitmod::countermeasure::{self, complexity};
use bitmod::{Attack, Catalogue, Scanner};
use bitstream::{xi, FRAME_BYTES};
use snow3g::vectors::{PAPER_TABLE_III, PAPER_TABLE_IV, PAPER_TABLE_V};
use techmap::{map, DelayModel, MapConfig, TimingReport};

fn want(sections: &[String], name: &str) -> bool {
    sections.is_empty() || sections.iter().any(|s| s == name)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sections: Vec<String> = std::env::args().skip(1).collect();

    if want(&sections, "xi") {
        print_xi();
    }

    // Sections that need the unprotected board / attack run.
    let need_attack =
        ["table2", "table3", "table4", "table5", "fig5"].iter().any(|s| want(&sections, s));
    if need_attack {
        let board = test_board(false);
        let report = Attack::new(&board, board.extract_bitstream())?.run()?;
        if want(&sections, "table2") {
            print_table2(&report);
        }
        if want(&sections, "table3") {
            print_words(
                "TABLE III — key-independent keystream",
                &report.key_independent_keystream,
                &PAPER_TABLE_III,
            );
        }
        if want(&sections, "table4") {
            print_words(
                "TABLE IV — keystream under fault α (= S³³)",
                &report.alpha_keystream,
                &PAPER_TABLE_IV,
            );
        }
        if want(&sections, "table5") {
            print_words(
                "TABLE V — recovered initial state S⁰",
                &report.recovered.initial_state,
                &PAPER_TABLE_V,
            );
            println!("recovered key: 0x{}", report.recovered.key);
        }
        if want(&sections, "fig5") {
            print_fig5(&report);
        }
    }

    if want(&sections, "fig4") {
        print_fig4();
    }
    if want(&sections, "timing") {
        print_timing();
    }
    if want(&sections, "table6") || want(&sections, "xorscan") {
        print_protected(&sections)?;
    }
    if want(&sections, "complexity") {
        print_complexity();
    }
    if sections.iter().any(|s| s == "bifi") {
        print_bifi()?;
    }
    if want(&sections, "ablation") {
        print_ablation();
    }
    Ok(())
}

fn print_ablation() {
    use techmap::MapObjective;
    println!("\n== Ablation — mapper design choices (DESIGN.md §3) ==");
    let board = test_board(false);
    let net = &board.circuit.network;
    println!("priority cuts per node (Area objective):");
    println!("  max_cuts |  LUT covers | depth");
    for max_cuts in [4usize, 8, 16, 32] {
        let cfg = MapConfig { max_cuts, ..MapConfig::default() };
        let design = map(net, &cfg).expect("maps");
        println!("  {max_cuts:>8} | {:>11} | {:>5}", design.covers.len(), design.logic_depth());
    }
    println!("cover-selection objective (max_cuts = 16):");
    for (name, objective) in [("area", MapObjective::Area), ("depth", MapObjective::Depth)] {
        let cfg = MapConfig { objective, ..MapConfig::default() };
        let design = map(net, &cfg).expect("maps");
        println!(
            "  {name:>8} | covers {:>5} | physical LUTs {:>5} | depth {:>3}",
            design.covers.len(),
            design.lut_count(),
            design.logic_depth()
        );
    }
    println!("(the attack's frozen cover shapes assume Area, max_cuts = 16)");
}

fn print_bifi() -> Result<(), Box<dyn std::error::Error>> {
    use bitmod::bifi::{self, BifiConfig};
    println!("\n== Ablation — untargeted BiFI baseline (paper ref. [23]) ==");
    let board = test_board(false);
    let golden = board.extract_bitstream();
    let t0 = Instant::now();
    let config = BifiConfig { max_trials: Some(3000), ..BifiConfig::default() };
    let report = bifi::run(&board, &golden, &config)?;
    println!(
        "{} single-LUT mutations in {:.1} s: {} changed the keystream, {} were dead, {} keys recovered",
        report.trials,
        t0.elapsed().as_secs_f64(),
        report.keystream_changed,
        report.keystream_unchanged,
        report.recovered_keys.len()
    );
    println!("(the targeted attack recovers the key in ~520 loads; BiFI cannot, because");
    println!(" linearising SNOW 3G needs 64 coordinated LUT faults)");
    Ok(())
}

fn print_xi() {
    println!("== TABLE I — the ξ permutation of the 7-series LUT bitstream format ==");
    println!("  i (a6..a1) | B = ξ(F[i])");
    for i in 0..64u8 {
        println!("  F[{i:>2}] {:06b} | B[{:>2}]", i, xi::xi(i));
    }
    println!("(64 rows; closed form: start from 63, toggle masks 10/01/02/30/04/08 per input bit)");
}

fn print_table2(report: &bitmod::AttackReport) {
    println!("\n== TABLE II analog — candidate LUTs in the unprotected bitstream ==");
    println!("   shape | hits | note");
    let notes: BTreeMap<&str, &str> = [
        ("f2", "LUT1: z-path cover (paper: 81 hits, 32 true)"),
        ("m0", "LUT2 analog: s15 mux + v, γ=0 (paper's f8/f19 role)"),
        ("m0b", "LUT2 analog: s15 mux + v, γ=1"),
        ("g4", "LUT3 analog: outer-byte gated XOR4"),
        ("f7", "outer-byte edge cover (paper's f7 row: n = 1)"),
        ("g3c", "bit-1 carry-edge cover"),
        ("m1", "s15 mux, lin side, γ=0 (no v)"),
        ("m1b", "s15 mux, lin side, γ=1 (no v)"),
    ]
    .into_iter()
    .collect();
    for (name, count) in &report.candidate_counts {
        let note = notes.get(name).copied().unwrap_or("paper Table II row");
        println!("   {name:>5} | {count:>4} | {note}");
    }
    println!("verified z-path LUTs: {}", report.z_luts.len());
    let mut by_shape: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &report.feedback_luts {
        *by_shape.entry(f.shape).or_default() += 1;
    }
    println!("feedback covers by shape (paper: 24 f8 + 8 f19): {by_shape:?}");
}

fn print_words(title: &str, ours: &[u32], paper: &[u32]) {
    println!("\n== {title} ==");
    println!("   t | measured  | paper     | match");
    for (i, (a, b)) in ours.iter().zip(paper).enumerate() {
        println!("  {:>2} | {a:08x}  | {b:08x}  | {}", i + 1, if a == b { "yes" } else { "NO" });
    }
}

fn print_fig4() {
    println!("\n== FIG. 4 analog — dual-output LUT packing statistics ==");
    let board = test_board(false);
    let design = &board.design;
    let total = design.lut_count();
    let fractured = design.fractured_count();
    println!(
        "physical LUTs: {total}, fractured (two outputs): {fractured}, single: {}",
        total - fractured
    );
    let pboard = test_board(true);
    println!(
        "protected design: {} LUTs, {} fractured (the trivial XOR pairs of Section VII-A)",
        pboard.design.lut_count(),
        pboard.design.fractured_count()
    );
}

fn print_fig5(report: &bitmod::AttackReport) {
    println!("\n== FIG. 5 analog — recovered covers of the target node v ==");
    let cat = Catalogue::full();
    println!("LUT1 (keystream path, 32 LUTs): f2 = {}", cat.shape("f2").unwrap().formula);
    println!("  α₂ pair variants used:");
    let mut pairs: BTreeMap<(u8, u8), usize> = BTreeMap::new();
    for z in &report.z_luts {
        if let Some(p) = z.pair {
            *pairs.entry(p).or_default() += 1;
        }
    }
    for (pair, n) in pairs {
        println!("    v = (a{}, a{}) in {n} LUTs", pair.0, pair.1);
    }
    let mut shapes: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &report.feedback_luts {
        *shapes.entry(f.shape).or_default() += 1;
    }
    println!("feedback path covers:");
    for (name, n) in shapes {
        let s = cat.shape(name).unwrap();
        println!("  {name} x {n}: {}", s.formula);
    }
    println!("(byte-shift split: middle 16 bits fold into the s15 load mux, outer bytes into gated XORs;");
    println!(" the paper saw the same mechanism as its 24 f8 + 8 f19 split)");
}

fn print_timing() {
    println!("\n== Section VII-A — countermeasure timing cost ==");
    let model = DelayModel::default();
    for (name, protected) in [("unprotected", false), ("protected", true)] {
        let board = test_board(protected);
        let t = TimingReport::analyze(
            &map(&board.circuit.network, &MapConfig::default()).expect("maps"),
            &model,
        );
        println!("  {name:>12}: critical path {:.3} ns, LUT depth {}", t.critical_ns, t.depth);
    }
    println!("  (paper: 6.313 ns → 7.514 ns; MULα→s15 becomes critical in the protected design)");
}

fn print_protected(sections: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let board = test_board(true);
    let golden = board.extract_bitstream();
    if want(sections, "table6") {
        println!("\n== TABLE VI analog — candidates in the protected bitstream ==");
        let payload = payload_of(&golden);
        let cat = Catalogue::full();
        println!("   shape | hits");
        let scanner = Scanner::builder().stride(FRAME_BYTES).catalogue(&cat).build()?;
        for (shape, hits) in cat.shapes.iter().zip(scanner.scan_grouped(&payload)) {
            println!("   {:>5} | {}", shape.name, hits.len());
        }
        println!("(paper: all feedback rows 0; stray z-path-class matches remain but are \"not useful\")");
    }
    if want(sections, "xorscan") {
        println!("\n== Section VII-B — XOR-half scan of the protected bitstream ==");
        let payload = payload_of(&golden);
        let t0 = Instant::now();
        let full = countermeasure::xor_half_scan(&payload, FRAME_BYTES, 0..payload.len())?;
        let dt = t0.elapsed();
        let windowed = countermeasure::xor_half_scan(&payload, FRAME_BYTES, 0..payload.len() / 2)?;
        println!(
            "unconstrained scan: {} hits in {:.1} ms (paper: 481 hits)",
            full.len(),
            dt.as_secs_f64() * 1e3
        );
        println!(
            "constrained scan (half-payload window): {} hits (paper: 203 in a 200k window)",
            windowed.len()
        );
        let report = countermeasure::evaluate(&board, &golden, Some(0..payload.len() / 2))?;
        println!(
            "after pruning {} z-path XORs: {} candidates remain → search 2^{:.1} (paper: C(171,32) ≈ 2^115)",
            report.z_path_pruned, report.remaining, report.search_bits
        );
    }
    Ok(())
}

fn print_complexity() {
    println!("\n== Section VII-C / Lemma VII-A — complexity figures ==");
    println!(
        "C(171, 32) = 2^{:.1} ≈ 10^{:.1}   (paper: ≈ 4.9×10³⁴ ≈ 2¹¹⁵)",
        complexity::log2_binomial(171, 32),
        complexity::ln_binomial(171, 32) / std::f64::consts::LN_10
    );
    println!(
        "decoy sizing for 2¹²⁸: x ≥ {:.3}   (paper: 16/e − 1 ≈ 4.9)",
        complexity::required_decoy_multiple(128.0)
    );
    println!("  m = 32, r = 32x:");
    for x in [1u64, 2, 3, 5, 8] {
        println!(
            "    x = {x}: exact C(32+32x, 32) = 2^{:>6.1}, Stirling bound = 2^{:>6.1}",
            complexity::log2_binomial(32 + 32 * x, 32),
            complexity::log2_stirling_bound(32, 32 * x)
        );
    }
}
