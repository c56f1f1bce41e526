//! Random devices shared by the fabric property tests.

use fpga_sim::fabric::{BramCellDb, FfCell, LutCell, RoutingDb};
use fpga_sim::{Fpga, Geometry, SiteId};
use netlist::NodeId;

/// A deterministic splitmix-style generator so the whole device is a
/// pure function of one proptest-drawn seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Builds a random layered (hence cycle-free) device on either INIT
/// layout: primary inputs and FF outputs feed LUT layers placed on
/// random distinct sites; a BRAM sits mid-cone; FF D inputs close the
/// sequential loop over arbitrary nets.
pub fn random_device(seed: u64) -> (Fpga, Vec<NodeId>) {
    let mut rng = Rng(seed);
    let geometry = if rng.below(2) == 0 {
        Geometry::with_columns(2)
    } else {
        Geometry::with_columns_quarter(2)
    };
    let mut sites: Vec<SiteId> = geometry.sites().collect();
    let mut next_net = 0u32;
    let mut fresh = || {
        next_net += 1;
        NodeId(next_net - 1)
    };
    let n_inputs = 2 + rng.below(3);
    let inputs: Vec<NodeId> = (0..n_inputs).map(|_| fresh()).collect();
    let n_ffs = 2 + rng.below(4);
    let ff_q: Vec<NodeId> = (0..n_ffs).map(|_| fresh()).collect();
    let tie = fresh();
    // The pool of nets a later cell may read.
    let mut pool: Vec<NodeId> = inputs.iter().chain(&ff_q).copied().collect();
    pool.push(tie);

    let mut luts = Vec::new();
    let mut brams = Vec::new();
    let n_luts = 3 + rng.below(6);
    for k in 0..n_luts {
        let n_pins = 1 + rng.below(6);
        let ins: Vec<NodeId> = (0..n_pins).map(|_| pool[rng.below(pool.len())]).collect();
        let o6 = fresh();
        let fractured = n_pins <= 5 && rng.below(3) == 0;
        let o5 = fractured.then(&mut fresh);
        // Partial Fisher-Yates: site `k` is a fresh uniform pick.
        let pick = k + rng.below(sites.len() - k);
        sites.swap(k, pick);
        luts.push(LutCell { site: sites[k], inputs: ins, o6, o5 });
        pool.push(o6);
        if let Some(o5) = o5 {
            pool.push(o5);
        }
    }
    if rng.below(2) == 0 {
        let mut table = Box::new([0u32; 256]);
        for w in table.iter_mut() {
            *w = rng.next() as u32;
        }
        let addr: Vec<NodeId> = (0..8).map(|_| pool[rng.below(pool.len())]).collect();
        let data: Vec<NodeId> = (0..32).map(|_| fresh()).collect();
        pool.extend(&data);
        brams.push(BramCellDb { table, addr, data });
    }
    let ffs: Vec<FfCell> = ff_q
        .iter()
        .map(|&q| FfCell { q, d: pool[rng.below(pool.len())], init: rng.below(2) == 0 })
        .collect();
    let db = RoutingDb {
        luts,
        ffs,
        brams,
        inputs: inputs.iter().map(|&n| (format!("i{}", n.index()), n)).collect(),
        ties: vec![(tie, rng.below(2) == 0)],
    };
    (Fpga::new(geometry, db), inputs)
}
