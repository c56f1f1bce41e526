//! k-feasible cut enumeration.
//!
//! A set of nodes `C` is a *cut* of node `v` if every path from a
//! primary input to `v` passes through a node in `C`; it is
//! `k`-feasible if `|C| ≤ k` (Section II-B). Cuts are enumerated
//! bottom-up: the cut set of a gate is the cross-merge of its fanins'
//! cut sets (each fanin contributing either one of its own cuts or
//! itself as a leaf), pruned to a bounded number of candidates.
//!
//! A [`Cut`] is a `Copy` value holding its at most six leaves inline,
//! and every node's ranked cuts sit back to back in one arena, so the
//! enumeration allocates nothing per cut: the arena and two reused
//! cross-merge buffers are the only growing storage.

use netlist::{Network, NodeId, NodeKind};

/// The most leaves a cut can hold (`MapError::BadK` bounds `k` to
/// `3..=6`).
const MAX_LEAVES: usize = 6;

/// A cut: a sorted, deduplicated set of at most six leaf nodes.
///
/// Slots past `len` always hold `NodeId(0)`, so the derived equality
/// is equality of leaf sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cut {
    leaves: [NodeId; MAX_LEAVES],
    len: u8,
}

impl Cut {
    /// The empty cut (a cone of constants).
    pub(crate) const EMPTY: Self = Self { leaves: [NodeId(0); MAX_LEAVES], len: 0 };

    /// The singleton cut `{n}`.
    pub(crate) fn singleton(n: NodeId) -> Self {
        let mut cut = Self::EMPTY;
        cut.leaves[0] = n;
        cut.len = 1;
        cut
    }

    /// The trivial cut of gate `id`: its non-constant fanins.
    pub(crate) fn trivial(network: &Network, id: NodeId) -> Self {
        let mut cut = Self::EMPTY;
        for &f in &network.node(id).fanin {
            if matches!(network.node(f).kind, NodeKind::Const(_)) {
                continue;
            }
            if let Err(at) = cut.leaves().binary_search(&f) {
                let len = cut.len();
                cut.leaves.copy_within(at..len, at + 1);
                cut.leaves[at] = f;
                cut.len += 1;
            }
        }
        cut
    }

    /// The leaves, sorted ascending.
    pub(crate) fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len()]
    }

    /// Number of leaves.
    pub(crate) fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Merges two cuts; returns `None` as soon as the union exceeds
    /// `k` leaves.
    pub(crate) fn merge(&self, other: &Self, k: usize) -> Option<Self> {
        let (a, b) = (self.leaves(), other.leaves());
        let mut out = Self::EMPTY;
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (_, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!("loop condition"),
            };
            if out.len() == k {
                return None;
            }
            out.leaves[out.len()] = next;
            out.len += 1;
        }
        Some(out)
    }
}

/// Enumeration limits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CutParams {
    /// Maximum leaves per cut (`k` of the target LUT architecture).
    pub(crate) k: usize,
    /// Maximum cuts retained per node (priority cuts).
    pub(crate) max_cuts: usize,
}

/// A cut together with its estimated covered volume (number of gates
/// the corresponding LUT would absorb; an upper estimate under
/// reconvergence, used only as a pruning priority).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankedCut {
    /// The cut.
    pub(crate) cut: Cut,
    /// Estimated covered gate count.
    pub(crate) vol: u32,
}

/// All k-feasible cuts for every node, indexed by node id.
///
/// For mapping-boundary nodes (inputs, flip-flops, ROM outputs) the
/// set is just the singleton cut. For `keep`-marked nodes the set
/// *visible to fanouts* is also just the singleton — that is how the
/// countermeasure prevents the node from being absorbed into a larger
/// LUT.
#[derive(Debug)]
pub(crate) struct CutSets {
    /// Every node's ranked cuts, back to back.
    arena: Vec<RankedCut>,
    /// Node `id`'s cuts are `arena[span[id].0..span[id].1]`.
    span: Vec<(u32, u32)>,
}

impl CutSets {
    /// Enumerates cut sets for the whole network, visiting nodes in
    /// `order` (a topological order of `network`).
    pub(crate) fn enumerate(network: &Network, order: &[NodeId], params: CutParams) -> Self {
        let mut arena: Vec<RankedCut> = Vec::with_capacity(4 * network.len());
        let mut span = vec![(0, 0); network.len()];
        let (mut merged, mut next): (Vec<RankedCut>, Vec<RankedCut>) = (Vec::new(), Vec::new());
        for &id in order {
            let node = network.node(id);
            let start = arena.len();
            match &node.kind {
                NodeKind::Input { .. } | NodeKind::Dff { .. } | NodeKind::RomOut { .. } => {
                    arena.push(RankedCut { cut: Cut::singleton(id), vol: 0 });
                }
                NodeKind::Const(_) => arena.push(RankedCut { cut: Cut::EMPTY, vol: 0 }),
                _ if node.keep => {
                    // Covered by its trivial cut only; fanouts may use
                    // it only as a leaf (the countermeasure).
                    arena.push(RankedCut { cut: Cut::singleton(id), vol: 0 });
                }
                _gate => {
                    merged.clear();
                    merged.push(RankedCut { cut: Cut::EMPTY, vol: 1 });
                    for f in &node.fanin {
                        let (lo, hi) = span[f.index()];
                        next.clear();
                        for base in &merged {
                            for c in &arena[lo as usize..hi as usize] {
                                if let Some(m) = base.cut.merge(&c.cut, params.k) {
                                    next.push(RankedCut { cut: m, vol: base.vol + c.vol });
                                }
                            }
                        }
                        std::mem::swap(&mut merged, &mut next);
                        if merged.is_empty() {
                            break;
                        }
                    }
                    // Keep the highest-volume cuts plus a few of the
                    // smallest ones (so modular "immediate fanin"
                    // chains survive for higher merges); fanouts can
                    // still choose the node itself as a leaf.
                    prune(&mut merged, params.max_cuts);
                    // The immediate-fanin cut is always available.
                    let trivial = Cut::trivial(network, id);
                    if !merged.iter().any(|r| r.cut == trivial) {
                        merged.push(RankedCut { cut: trivial, vol: 1 });
                    }
                    merged.push(RankedCut { cut: Cut::singleton(id), vol: 0 });
                    arena.extend_from_slice(&merged);
                }
            }
            span[id.index()] = (start as u32, arena.len() as u32);
        }
        Self { arena, span }
    }

    /// The ranked cut set of `id` (includes the singleton leaf cut for
    /// gates, with volume 0).
    pub(crate) fn cuts(&self, id: NodeId) -> &[RankedCut] {
        let (lo, hi) = self.span[id.index()];
        &self.arena[lo as usize..hi as usize]
    }
}

/// Prunes `cuts` in place to at most `max` entries. Every ordering
/// below is total once leaf sets are distinct (and entries equal under
/// the first are identical), so unstable sorts decide nothing.
fn prune(cuts: &mut Vec<RankedCut>, max: usize) {
    // Deduplicate by leaf set, keeping the best volume estimate (the
    // first of each run).
    cuts.sort_unstable_by(|a, b| a.cut.leaves().cmp(b.cut.leaves()).then(b.vol.cmp(&a.vol)));
    cuts.dedup_by(|b, a| a.cut == b.cut);
    // Priority: largest estimated volume first, then fewer leaves,
    // then lexicographically smallest leaf set for determinism.
    cuts.sort_unstable_by(|a, b| {
        b.vol
            .cmp(&a.vol)
            .then(a.cut.len().cmp(&b.cut.len()))
            .then_with(|| a.cut.leaves().cmp(b.cut.leaves()))
    });
    if cuts.len() > max {
        // Reserve the tail slots for the smallest cuts so that
        // shallow, modular cuts survive for further merging.
        let reserve = (max / 4).max(1);
        cuts[max - reserve..].sort_unstable_by(|a, b| {
            a.cut
                .len()
                .cmp(&b.cut.len())
                .then(b.vol.cmp(&a.vol))
                .then_with(|| a.cut.leaves().cmp(b.cut.leaves()))
        });
        cuts.truncate(max);
        cuts.sort_unstable_by(|a, b| a.cut.leaves().cmp(b.cut.leaves()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::Network;

    fn cut(leaves: &[NodeId]) -> Cut {
        leaves.iter().fold(Cut::EMPTY, |c, &l| c.merge(&Cut::singleton(l), MAX_LEAVES).unwrap())
    }

    fn enumerate(n: &Network, max_cuts: usize) -> CutSets {
        let order = n.validated_order().unwrap();
        CutSets::enumerate(n, &order, CutParams { k: 6, max_cuts })
    }

    #[test]
    fn merge_respects_k() {
        let a = cut(&[NodeId(1), NodeId(2), NodeId(3)]);
        let b = cut(&[NodeId(5), NodeId(4), NodeId(3)]);
        let m = a.merge(&b, 6).unwrap();
        assert_eq!(m.leaves(), [1, 2, 3, 4, 5].map(NodeId));
        assert_eq!(m, cut(&[5, 4, 3, 2, 1].map(NodeId)), "equality is leaf-set equality");
        assert!(a.merge(&b, 4).is_none());
        assert_eq!(a.merge(&b, 5), Some(m));
    }

    #[test]
    fn enumerate_xor_tree() {
        // x = (a ^ b) ^ (c ^ d): the root must have a cut {a,b,c,d}.
        let mut n = Network::new();
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let d = n.input("d");
        let x1 = n.xor(a, b);
        let x2 = n.xor(c, d);
        let root = n.xor(x1, x2);
        let sets = enumerate(&n, 16);
        let has = |c: &Cut| sets.cuts(root).iter().any(|r| &r.cut == c);
        let want = cut(&[a, b, c, d]);
        assert!(has(&want), "missing the full 4-leaf cut");
        // And the two-leaf cut {x1, x2}.
        let two = cut(&[x1, x2]);
        assert!(has(&two));
        // The 4-leaf cut must be ranked with the larger volume.
        let v4 = sets.cuts(root).iter().find(|r| r.cut == want).unwrap().vol;
        let v2 = sets.cuts(root).iter().find(|r| r.cut == two).unwrap().vol;
        assert!(v4 > v2);
    }

    #[test]
    fn keep_nodes_are_barriers() {
        let mut n = Network::new();
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let x = n.xor(a, b);
        n.set_keep(x);
        let y = n.and(x, c);
        let sets = enumerate(&n, 16);
        // Every cut of y must use x as a leaf, never {a, b, c}.
        let absorbed = cut(&[a, b, c]);
        assert!(!sets.cuts(y).iter().any(|r| r.cut == absorbed));
        let want = cut(&[x, c]);
        assert!(sets.cuts(y).iter().any(|r| r.cut == want));
    }

    #[test]
    fn const_fanins_fold_away() {
        let mut n = Network::new();
        let a = n.input("a");
        let z = n.constant(false);
        let x = n.xor(a, z);
        let sets = enumerate(&n, 16);
        let want = Cut::singleton(a);
        assert!(sets.cuts(x).iter().any(|r| r.cut == want), "constant folded out of the cut");
        assert_eq!(Cut::trivial(&n, x), want);
    }

    #[test]
    fn cut_count_is_bounded() {
        // A chain of XORs: cut sets must stay within max_cuts + leaf.
        let mut n = Network::new();
        let mut prev = n.input("i0");
        for i in 1..40 {
            let x = n.input(format!("i{i}"));
            prev = n.xor(prev, x);
        }
        let sets = enumerate(&n, 8);
        for (id, node) in n.iter() {
            if node.kind.is_gate() {
                assert!(sets.cuts(id).len() <= 8 + 1, "node {id}");
            }
        }
    }
}
