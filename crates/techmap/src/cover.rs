//! Cover selection: turning cut sets into a LUT network.

use core::cmp::Reverse;
use core::fmt;
use std::collections::HashMap;

use boolfn::TruthTable;
use netlist::{Network, NetworkError, NodeId, NodeKind};

use crate::cut::{Cut, CutParams, CutSets};
use crate::design::{BramCell, Cover, DffCell, MappedDesign};
use crate::pack::{self, splitmix64};

/// The optimization objective of cover selection (Section II-B of the
/// paper surveys mappers for "minimal area \[32\] or depth \[33\], or
/// both \[34\]").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapObjective {
    /// Maximise the logic absorbed per LUT (fewest LUTs).
    #[default]
    Area,
    /// Minimise LUT levels via DAG-Map-style depth labels computed
    /// over the enumerated priority cuts, breaking ties by area.
    Depth,
}

/// Mapping options.
#[derive(Debug, Clone, Copy)]
pub struct MapConfig {
    /// LUT input count of the target architecture (at most 6).
    pub k: usize,
    /// Cuts retained per node during enumeration.
    pub max_cuts: usize,
    /// Seed for the deterministic pin-order scrambling.
    pub scramble_seed: u64,
    /// Cover-selection objective.
    pub objective: MapObjective,
}

impl Default for MapConfig {
    fn default() -> Self {
        Self {
            k: 6,
            max_cuts: 16,
            scramble_seed: 0x00B1_7D0D_5EED_u64,
            objective: MapObjective::Area,
        }
    }
}

/// An error from [`map`].
#[derive(Debug)]
pub enum MapError {
    /// The input network failed validation.
    Network(NetworkError),
    /// `k` is out of the supported range `3..=6` (the structural
    /// mapper does not decompose gates, so `k` must cover the widest
    /// primitive — the 3-input multiplexer).
    BadK {
        /// The offending value.
        k: usize,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Network(e) => write!(f, "invalid network: {e}"),
            MapError::BadK { k } => write!(f, "unsupported LUT size k = {k} (need 3..=6)"),
        }
    }
}

impl std::error::Error for MapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapError::Network(e) => Some(e),
            MapError::BadK { .. } => None,
        }
    }
}

impl From<NetworkError> for MapError {
    fn from(e: NetworkError) -> Self {
        MapError::Network(e)
    }
}

/// Technology-maps `network` into a k-LUT design.
///
/// The algorithm is the classical area-greedy cover with node reuse
/// (Section II-B of the paper): starting from the sinks (primary
/// outputs, flip-flop data inputs, BRAM address bits), each required
/// gate is realised by its maximum-volume k-feasible cut; the cut's
/// gate leaves become required in turn. Nodes marked `keep` are
/// covered by their trivial cut and are never absorbed into another
/// LUT (the Section VII-A countermeasure).
///
/// # Errors
///
/// Returns [`MapError::Network`] if the network is invalid, or
/// [`MapError::BadK`] for an unsupported LUT size.
pub fn map(network: &Network, config: &MapConfig) -> Result<MappedDesign, MapError> {
    if !(3..=6).contains(&config.k) {
        return Err(MapError::BadK { k: config.k });
    }
    let order = network.validated_order()?;

    let cut_sets =
        CutSets::enumerate(network, &order, CutParams { k: config.k, max_cuts: config.max_cuts });

    // Depth labels (DAG-Map [33] over the priority cuts): label(v) is
    // the minimum LUT level at which v can be realised.
    let labels = match config.objective {
        MapObjective::Area => None,
        MapObjective::Depth => Some(depth_labels(network, &order, &cut_sets, config.k)),
    };

    // Sinks: nets that must exist physically.
    let mut required: Vec<NodeId> = Vec::new();
    let mut seen = vec![false; network.len()];
    let require = |id: NodeId, required: &mut Vec<NodeId>, seen: &mut [bool]| {
        if network.node(id).kind.is_gate() && !std::mem::replace(&mut seen[id.index()], true) {
            required.push(id);
        }
    };
    for (_, id) in network.outputs() {
        require(*id, &mut required, &mut seen);
    }
    for (_, node) in network.iter() {
        match node.kind {
            NodeKind::Dff { .. } => {
                require(node.fanin[0], &mut required, &mut seen);
            }
            NodeKind::RomOut { .. } => {
                for &a in &node.fanin {
                    require(a, &mut required, &mut seen);
                }
            }
            _ => {}
        }
    }

    // Greedy covering.
    let mut scratch = ConeScratch::new(network.len());
    let mut covers: Vec<Cover> = Vec::new();
    let mut head = 0;
    while head < required.len() {
        let root = required[head];
        head += 1;
        let cut = choose_cut(network, &cut_sets, root, config.k, labels.as_deref(), &mut scratch);
        let mut leaves: Vec<NodeId> = cut.leaves().to_vec();
        // Deterministic pin scrambling (placement-like pin rotation).
        leaves.sort_by_key(|l| {
            splitmix64(config.scramble_seed ^ (u64::from(root.0) << 32) ^ u64::from(l.0))
        });
        let truth = cone_truth(network, root, &leaves, &mut scratch);
        for &l in &leaves {
            require(l, &mut required, &mut seen);
        }
        covers.push(Cover { root, leaves, truth });
    }
    // Deterministic output order regardless of traversal.
    covers.sort_by_key(|c| c.root);

    // Sequential cells pass through.
    let mut dffs = Vec::new();
    let mut brams: Vec<BramCell> = Vec::new();
    let mut bram_index: HashMap<(u32, Vec<NodeId>), usize> = HashMap::new();
    for (id, node) in network.iter() {
        match &node.kind {
            NodeKind::Dff { init } => {
                dffs.push(DffCell { q: id, d: node.fanin[0], init: *init });
            }
            NodeKind::RomOut { rom, bit } => {
                let key = (rom.0, node.fanin.clone());
                let idx = *bram_index.entry(key).or_insert_with(|| {
                    brams.push(BramCell {
                        rom: *rom,
                        addr: node.fanin.clone(),
                        data: vec![NodeId(u32::MAX); 32],
                    });
                    brams.len() - 1
                });
                brams[idx].data[*bit as usize] = id;
            }
            _ => {}
        }
    }
    // Any ROM data bit that has no node (cannot happen with
    // Network::rom_outputs, which always creates 32) would be a hole;
    // assert in debug builds.
    debug_assert!(brams.iter().all(|b| b.data.iter().all(|d| d.0 != u32::MAX)));

    let luts = pack::pack(&covers, config.scramble_seed);

    Ok(MappedDesign { network: network.clone(), covers, luts, dffs, brams })
}

/// Computes DAG-Map depth labels over the enumerated cut sets:
/// sources are 0; a gate's label is `1 + min over cuts of the max
/// leaf label`; a ROM output costs one level above its address.
fn depth_labels(network: &Network, order: &[NodeId], cut_sets: &CutSets, k: usize) -> Vec<usize> {
    let mut label = vec![0usize; network.len()];
    for &id in order {
        let node = network.node(id);
        if let NodeKind::RomOut { .. } = node.kind {
            label[id.index()] = node.fanin.iter().map(|f| label[f.index()]).max().unwrap_or(0) + 1;
            continue;
        }
        if !node.kind.is_gate() {
            continue;
        }
        let mut best = usize::MAX;
        for ranked in cut_sets.cuts(id) {
            let cut = &ranked.cut;
            if cut.len() > k || cut.leaves().contains(&id) {
                continue;
            }
            let depth = cut.leaves().iter().map(|l| label[l.index()]).max().unwrap_or(0) + 1;
            best = best.min(depth);
        }
        label[id.index()] = if best == usize::MAX {
            // Only the immediate-fanin cut remains (keep nodes).
            node.fanin.iter().map(|f| label[f.index()]).max().unwrap_or(0) + 1
        } else {
            best
        };
    }
    label
}

/// Chooses the cover cut for `root`: trivial for `keep` nodes,
/// otherwise by the configured objective (maximum volume, or minimum
/// depth label with volume as the tie-break).
fn choose_cut(
    network: &Network,
    cut_sets: &CutSets,
    root: NodeId,
    k: usize,
    labels: Option<&[usize]>,
    scratch: &mut ConeScratch,
) -> Cut {
    if network.node(root).keep {
        return Cut::trivial(network, root);
    }
    // Selection key: under the Area objective — exact volume first,
    // then fewer leaves, then more register/input leaves (prefer
    // absorbing logic back toward sequential boundaries, like slice
    // packers do), then the lexicographically smallest leaf set for
    // determinism. Under the Depth objective a "smaller arrival
    // label" criterion is prepended.
    let mut best: Option<(usize, usize, usize, Cut)> = None;
    for ranked in cut_sets.cuts(root) {
        let cut = &ranked.cut;
        if cut.leaves().contains(&root) {
            continue; // the leaf form of the node itself
        }
        if cut.len() > k {
            continue;
        }
        let depth = match labels {
            Some(l) => cut.leaves().iter().map(|x| l[x.index()]).max().unwrap_or(0) + 1,
            None => 0,
        };
        let vol = cone_volume(network, root, cut, scratch);
        let srcs = cut.leaves().iter().filter(|l| network.node(**l).kind.is_source()).count();
        let better = match &best {
            None => true,
            Some((bd, bv, bs, bc)) => {
                (Reverse(depth), vol, Reverse(cut.len()), srcs, Reverse(cut.leaves()))
                    > (Reverse(*bd), *bv, Reverse(bc.len()), *bs, Reverse(bc.leaves()))
            }
        };
        if better {
            best = Some((depth, vol, srcs, *cut));
        }
    }
    // Fallback (cannot normally happen): immediate fanin cut.
    best.map_or_else(|| Cut::trivial(network, root), |(_, _, _, c)| c)
}

/// Reusable state for the cone walks of one [`map`] call: a per-node
/// epoch stamp marks a node visited (or its truth table computed) in
/// the current walk, so no walk allocates or clears anything.
struct ConeScratch {
    stamp: Vec<u32>,
    truth: Vec<u64>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl ConeScratch {
    fn new(nodes: usize) -> Self {
        Self { stamp: vec![0; nodes], truth: vec![0; nodes], epoch: 0, stack: Vec::new() }
    }

    /// Starts a new walk: every node reads as unvisited.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `id` visited in this walk; `false` if it already was.
    fn visit(&mut self, id: NodeId) -> bool {
        std::mem::replace(&mut self.stamp[id.index()], self.epoch) != self.epoch
    }

    /// The truth table computed for `id` in this walk, if any.
    fn truth(&self, id: NodeId) -> Option<u64> {
        (self.stamp[id.index()] == self.epoch).then(|| self.truth[id.index()])
    }

    fn set_truth(&mut self, id: NodeId, bits: u64) {
        self.stamp[id.index()] = self.epoch;
        self.truth[id.index()] = bits;
    }
}

/// Number of gate nodes inside the cone of `root` bounded by `cut`.
fn cone_volume(network: &Network, root: NodeId, cut: &Cut, scratch: &mut ConeScratch) -> usize {
    scratch.begin();
    scratch.stack.clear();
    scratch.stack.push(root);
    let mut count = 0;
    while let Some(id) = scratch.stack.pop() {
        if cut.leaves().contains(&id) || !scratch.visit(id) {
            continue;
        }
        let node = network.node(id);
        match node.kind {
            NodeKind::Const(_) => continue,
            ref k if k.is_gate() => {
                count += 1;
                scratch.stack.extend_from_slice(&node.fanin);
            }
            // A source inside the cone that is not a leaf means the
            // cut is not actually a cut; the enumerator never
            // produces this.
            _ => debug_assert!(false, "non-leaf source {id} inside cone of {root}"),
        }
    }
    count
}

/// Computes the truth table of the cone of `root` with respect to the
/// ordered `leaves` (pin `a1` = `leaves\[0\]`).
///
/// # Panics
///
/// Panics if the cone reaches a non-constant source that is not a
/// leaf (invalid cut), or if there are more than 6 leaves.
fn cone_truth(
    network: &Network,
    root: NodeId,
    leaves: &[NodeId],
    scratch: &mut ConeScratch,
) -> TruthTable {
    assert!(leaves.len() <= 6, "at most 6 LUT inputs");
    let k = leaves.len() as u8;
    scratch.begin();
    for (p, &l) in leaves.iter().enumerate() {
        scratch.set_truth(l, TruthTable::var(6, p as u8 + 1).bits());
    }
    let bits = eval_cone(network, root, scratch) & TruthTable::mask(k);
    TruthTable::new(k, bits)
}

fn eval_cone(network: &Network, id: NodeId, scratch: &mut ConeScratch) -> u64 {
    if let Some(v) = scratch.truth(id) {
        return v;
    }
    let node = network.node(id);
    let mut fanin = |i: usize| eval_cone(network, node.fanin[i], scratch);
    let v = match node.kind {
        NodeKind::Const(b) => {
            if b {
                u64::MAX
            } else {
                0
            }
        }
        NodeKind::Not => !fanin(0),
        NodeKind::And => fanin(0) & fanin(1),
        NodeKind::Or => fanin(0) | fanin(1),
        NodeKind::Xor => fanin(0) ^ fanin(1),
        NodeKind::Mux => {
            let (s, a, b) = (fanin(0), fanin(1), fanin(2));
            (s & a) | (!s & b)
        }
        _ => panic!("cone of a cut reached non-leaf source {id}"),
    };
    scratch.set_truth(id, v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::Network;

    /// Tests propagate failures with `?` instead of unwrapping: a
    /// failing assertion should name the failed step, not panic in a
    /// combinator.
    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn xor_chain(n: usize) -> (Network, Vec<NodeId>, NodeId) {
        let mut net = Network::new();
        let inputs: Vec<NodeId> = (0..n).map(|i| net.input(format!("i{i}"))).collect();
        let mut acc = inputs[0];
        for &i in &inputs[1..] {
            acc = net.xor(acc, i);
        }
        net.set_output("o", acc);
        (net, inputs, acc)
    }

    #[test]
    fn small_network_single_lut() -> TestResult {
        let (net, inputs, root) = xor_chain(5);
        let design = map(&net, &MapConfig::default())?;
        assert_eq!(design.covers.len(), 1, "a 5-input XOR fits one LUT");
        let c = &design.covers[0];
        assert_eq!(c.root, root);
        let mut leaves = c.leaves.clone();
        leaves.sort_unstable();
        assert_eq!(leaves, inputs);
        Ok(())
    }

    #[test]
    fn wide_xor_splits() -> TestResult {
        let (net, _, _) = xor_chain(12);
        let design = map(&net, &MapConfig::default())?;
        assert!(design.covers.len() >= 2 && design.covers.len() <= 3);
        Ok(())
    }

    #[test]
    fn mapping_preserves_function_combinational() -> TestResult {
        // f = ((a ^ b) & c) | (!d & (b ^ c)).
        let mut net = Network::new();
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let d = net.input("d");
        let x1 = net.xor(a, b);
        let g1 = net.and(x1, c);
        let nd = net.not(d);
        let x2 = net.xor(b, c);
        let g2 = net.and(nd, x2);
        let o = net.or(g1, g2);
        net.set_output("o", o);
        let design = map(&net, &MapConfig::default())?;
        for v in 0..16u8 {
            let inputs = [(a, v & 1 != 0), (b, v & 2 != 0), (c, v & 4 != 0), (d, v & 8 != 0)];
            let want = {
                let (va, vb, vc, vd) = (v & 1 != 0, v & 2 != 0, v & 4 != 0, v & 8 != 0);
                ((va ^ vb) && vc) || (!vd && (vb ^ vc))
            };
            let got = design.simulate(&inputs, 1, &[o]);
            assert_eq!(got[0][0], want, "v = {v:04b}");
        }
        Ok(())
    }

    #[test]
    fn keep_node_gets_trivial_cover() -> TestResult {
        let mut net = Network::new();
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let x = net.xor(a, b);
        net.set_keep(x);
        let g = net.and(x, c);
        net.set_output("o", g);
        let design = map(&net, &MapConfig::default())?;
        let idx = design.cover_index();
        let cx = &design.covers[idx[&x]];
        assert_eq!(cx.leaves.len(), 2);
        assert_eq!(cx.truth.as_xor_pair(), Some((1, 2)), "trivial 2-input XOR LUT");
        // And the downstream LUT uses x as a pin rather than absorbing it.
        let cg = &design.covers[idx[&g]];
        assert!(cg.leaves.contains(&x));
        Ok(())
    }

    #[test]
    fn unkept_xor_gets_absorbed() -> TestResult {
        let mut net = Network::new();
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let x = net.xor(a, b);
        let g = net.and(x, c);
        net.set_output("o", g);
        let design = map(&net, &MapConfig::default())?;
        assert_eq!(design.covers.len(), 1, "x folds into g's LUT");
        assert_eq!(design.covers[0].root, g);
        Ok(())
    }

    #[test]
    fn bad_k_rejected() {
        let (net, _, _) = xor_chain(3);
        assert!(matches!(
            map(&net, &MapConfig { k: 9, ..MapConfig::default() }),
            Err(MapError::BadK { k: 9 })
        ));
        assert!(matches!(
            map(&net, &MapConfig { k: 2, ..MapConfig::default() }),
            Err(MapError::BadK { .. })
        ));
    }

    #[test]
    fn scramble_seed_changes_pin_order_not_function() -> TestResult {
        let mut net = Network::new();
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let x = net.xor(a, b);
        let g = net.and(x, c);
        net.set_output("o", g);
        let d1 = map(&net, &MapConfig { scramble_seed: 1, ..MapConfig::default() })?;
        let d2 = map(&net, &MapConfig { scramble_seed: 99, ..MapConfig::default() })?;
        for v in 0..8u8 {
            let inputs = [(a, v & 1 != 0), (b, v & 2 != 0), (c, v & 4 != 0)];
            assert_eq!(
                d1.simulate(&inputs, 1, &[g]),
                d2.simulate(&inputs, 1, &[g]),
                "same function regardless of pin order"
            );
        }
        Ok(())
    }

    #[test]
    fn depth_objective_reduces_levels() -> TestResult {
        // A 24-input XOR chain: area covering follows the chain shape;
        // depth labels rebalance toward ceil(log_6-ish) levels.
        let mut net = Network::new();
        let inputs: Vec<NodeId> = (0..24).map(|i| net.input(format!("i{i}"))).collect();
        let mut acc = inputs[0];
        for &i in &inputs[1..] {
            acc = net.xor(acc, i);
        }
        net.set_output("o", acc);
        let area = map(&net, &MapConfig::default())?;
        let depth =
            map(&net, &MapConfig { objective: MapObjective::Depth, ..MapConfig::default() })?;
        assert!(
            depth.logic_depth() <= area.logic_depth(),
            "depth {} vs area {}",
            depth.logic_depth(),
            area.logic_depth()
        );
        // Both remain functionally identical.
        for assignment in [0u32, 1, 0xFFFFFF, 0xA5A5A5] {
            let drive: Vec<(NodeId, bool)> = inputs
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, (assignment >> i) & 1 == 1))
                .collect();
            assert_eq!(
                area.simulate(&drive, 1, &[acc]),
                depth.simulate(&drive, 1, &[acc]),
                "assignment {assignment:x}"
            );
        }
        Ok(())
    }

    #[test]
    fn depth_objective_respects_keep() -> TestResult {
        let mut net = Network::new();
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let x = net.xor(a, b);
        net.set_keep(x);
        let g = net.and(x, c);
        net.set_output("o", g);
        let design =
            map(&net, &MapConfig { objective: MapObjective::Depth, ..MapConfig::default() })?;
        let idx = design.cover_index();
        assert_eq!(design.covers[idx[&x]].leaves.len(), 2, "trivial cover preserved");
        Ok(())
    }

    #[test]
    fn sequential_design_maps() -> TestResult {
        let mut net = Network::new();
        let a = net.input("a");
        let ff = net.dff(false);
        let x = net.xor(ff, a);
        net.connect_dff(ff, x);
        net.set_output("q", ff);
        let design = map(&net, &MapConfig::default())?;
        assert_eq!(design.dffs.len(), 1);
        // Toggle behaviour: q accumulates XOR of the input.
        let rows = design.simulate(&[(a, true)], 3, &[ff]);
        assert_eq!(rows, vec![vec![true], vec![false], vec![true]]);
        Ok(())
    }
}
