//! The plain reference simulator the gang is checked against: one
//! boolean per net, each LUT read as a truth table at its pin address
//! and each block RAM as a ROM at its address, with every cell
//! re-evaluated in database order until no net changes. The
//! combinational logic is acyclic, so this settles to the unique
//! stable state without an evaluation order of its own.

use boolfn::DualOutputInit;
use fpga_sim::fabric::RoutingDb;
use fpga_sim::Fpga;
use netlist::NodeId;

/// One configured device, one boolean per net.
pub struct Reference<'a> {
    db: &'a RoutingDb,
    inits: Vec<DualOutputInit>,
    values: Vec<bool>,
}

impl<'a> Reference<'a> {
    /// The device configured with `inits` (one per LUT cell), just out
    /// of global set/reset: every FF at its power-up value, ties
    /// driven, nothing evaluated yet.
    pub fn new(fpga: &'a Fpga, inits: Vec<DualOutputInit>) -> Self {
        let db = fpga.routing_db();
        let mut values = vec![false; net_count(db)];
        for ff in &db.ffs {
            values[ff.q.index()] = ff.init;
        }
        for &(net, v) in &db.ties {
            values[net.index()] = v;
        }
        Self { db, inits, values }
    }

    /// Number of nets the device uses (ids `0..nets()`).
    pub fn nets(&self) -> usize {
        self.values.len()
    }

    /// Drives a primary input net.
    pub fn set_input(&mut self, net: NodeId, value: bool) {
        self.values[net.index()] = value;
    }

    /// The current value of a net.
    pub fn net(&self, net: NodeId) -> bool {
        self.values[net.index()]
    }

    /// One clock cycle: settle, latch every FF's D input at once,
    /// settle.
    pub fn step(&mut self) {
        self.settle();
        let latched: Vec<bool> = self.db.ffs.iter().map(|ff| self.net(ff.d)).collect();
        for (ff, v) in self.db.ffs.iter().zip(latched) {
            self.values[ff.q.index()] = v;
        }
        self.settle();
    }

    fn settle(&mut self) {
        loop {
            let before = self.values.clone();
            for (cell, init) in self.db.luts.iter().zip(&self.inits) {
                let addr = self.address(&cell.inputs) as u8;
                match cell.o5 {
                    // Single-output mode: O6 reads the full 6-input
                    // table (unconnected pins low).
                    None => self.values[cell.o6.index()] = init.o6().eval(addr),
                    // Fractured: both halves share pins a1..a5.
                    Some(o5) => {
                        let a = addr & 0x1F;
                        self.values[o5.index()] = init.o5().eval(a);
                        self.values[cell.o6.index()] = init.o6_fractured().eval(a);
                    }
                }
            }
            for bram in &self.db.brams {
                let word = bram.table[self.address(&bram.addr)];
                for (bit, net) in bram.data.iter().enumerate() {
                    self.values[net.index()] = (word >> bit) & 1 == 1;
                }
            }
            if self.values == before {
                return;
            }
        }
    }

    /// The nets' values as an address, first net LSB.
    fn address(&self, nets: &[NodeId]) -> usize {
        nets.iter().enumerate().map(|(p, &net)| usize::from(self.net(net)) << p).sum()
    }
}

/// One past the highest net id the routing database names.
fn net_count(db: &RoutingDb) -> usize {
    let lut_nets = db.luts.iter().flat_map(|l| l.inputs.iter().copied().chain([l.o6]).chain(l.o5));
    let ff_nets = db.ffs.iter().flat_map(|f| [f.q, f.d]);
    let bram_nets = db.brams.iter().flat_map(|b| b.addr.iter().chain(&b.data).copied());
    let edge_nets = db.ties.iter().map(|&(n, _)| n).chain(db.inputs.iter().map(|&(_, n)| n));
    lut_nets
        .chain(ff_nets)
        .chain(bram_nets)
        .chain(edge_nets)
        .map(|n| n.index() + 1)
        .max()
        .unwrap_or(0)
}
