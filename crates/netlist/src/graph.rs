//! The Boolean-network representation `N = (V, E)`.

use core::fmt;

/// Identifier of a node in a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index into [`Network::nodes`].
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a ROM table attached to a [`Network`] (modelling a
/// block RAM configured as a 256-entry, 32-bit-wide ROM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RomId(pub u32);

/// The operation a node computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A primary input with a diagnostic name.
    Input {
        /// Signal name.
        name: String,
    },
    /// A constant driver.
    Const(bool),
    /// Logical complement of the single fanin.
    Not,
    /// Two-input AND.
    And,
    /// Two-input OR.
    Or,
    /// Two-input XOR.
    Xor,
    /// Three-fanin multiplexer `fanin[0] ? fanin[1] : fanin[2]`.
    Mux,
    /// A D flip-flop; its value is the state latched at the previous
    /// clock edge, `fanin[0]` is the D input. `init` is the power-up
    /// (configuration-time) value.
    Dff {
        /// Power-up value, set by the configuration logic (GSR).
        init: bool,
    },
    /// Output bit `bit` of the ROM `rom`, addressed by the eight fanin
    /// bits (`fanin[0]` is address bit 0). Reads are modelled as
    /// asynchronous; see DESIGN.md for the substitution note.
    RomOut {
        /// Which ROM table.
        rom: RomId,
        /// Which of the 32 data bits.
        bit: u8,
    },
}

impl NodeKind {
    /// Number of fanins this kind requires, if fixed.
    #[must_use]
    pub fn arity(&self) -> Option<usize> {
        match self {
            NodeKind::Input { .. } | NodeKind::Const(_) => Some(0),
            NodeKind::Not | NodeKind::Dff { .. } => Some(1),
            NodeKind::And | NodeKind::Or | NodeKind::Xor => Some(2),
            NodeKind::Mux => Some(3),
            NodeKind::RomOut { .. } => Some(8),
        }
    }

    /// Whether the node is a combinational gate (to be covered by
    /// LUTs during technology mapping).
    #[must_use]
    pub fn is_gate(&self) -> bool {
        matches!(self, NodeKind::Not | NodeKind::And | NodeKind::Or | NodeKind::Xor | NodeKind::Mux)
    }

    /// Whether the node starts a combinational timing path (inputs,
    /// constants, flip-flops and ROM outputs are all mapping
    /// boundaries; ROM reads are block-RAM lookups, not LUT logic).
    #[must_use]
    pub fn is_source(&self) -> bool {
        !self.is_gate()
    }
}

/// A node of the network.
#[derive(Debug, Clone)]
pub struct Node {
    /// Operation.
    pub kind: NodeKind,
    /// Fanin node ids, in operand order.
    pub fanin: Vec<NodeId>,
    /// `KEEP`/`DONT_TOUCH` attribute: when set, technology mapping
    /// must cover this node with a trivial cut (the countermeasure of
    /// Section VII-A).
    pub keep: bool,
}

/// An error reported by [`Network`] validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A node references a fanin id that does not exist (forward
    /// reference or out of range).
    DanglingFanin {
        /// The offending node.
        node: NodeId,
        /// The missing fanin.
        fanin: NodeId,
    },
    /// A node has the wrong number of fanins for its kind.
    BadArity {
        /// The offending node.
        node: NodeId,
        /// Expected fanin count.
        expected: usize,
        /// Actual fanin count.
        got: usize,
    },
    /// The combinational part of the network contains a cycle through
    /// the given node.
    CombinationalCycle {
        /// A node on the cycle.
        node: NodeId,
    },
    /// A `RomOut` node references a ROM id that was never registered.
    UnknownRom {
        /// The offending node.
        node: NodeId,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::DanglingFanin { node, fanin } => {
                write!(f, "node {node} references missing fanin {fanin}")
            }
            NetworkError::BadArity { node, expected, got } => {
                write!(f, "node {node} has {got} fanins, expected {expected}")
            }
            NetworkError::CombinationalCycle { node } => {
                write!(f, "combinational cycle through node {node}")
            }
            NetworkError::UnknownRom { node } => {
                write!(f, "node {node} references an unregistered ROM")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// A Boolean network: gates, sequential elements, ROMs and the nets
/// connecting them.
///
/// Nodes are created append-only; fanins must reference existing
/// nodes, except for flip-flops whose D input may be connected later
/// with [`Network::connect_dff`] (sequential loops are legal).
///
/// # Example
///
/// ```
/// use netlist::{Network, NodeKind};
///
/// let mut n = Network::new();
/// let a = n.input("a");
/// let b = n.input("b");
/// let x = n.xor(a, b);
/// n.set_output("y", x);
/// assert_eq!(n.gate_count(), 1);
/// n.validate().unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct Network {
    nodes: Vec<Node>,
    roms: Vec<[u32; 256]>,
    inputs: Vec<NodeId>,
    outputs: Vec<(String, NodeId)>,
}

impl Network {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, kind: NodeKind, fanin: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, fanin, keep: false });
        id
    }

    /// Adds a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.push(NodeKind::Input { name: name.into() }, Vec::new());
        self.inputs.push(id);
        id
    }

    /// Adds a constant driver.
    pub fn constant(&mut self, value: bool) -> NodeId {
        self.push(NodeKind::Const(value), Vec::new())
    }

    /// Adds a NOT gate.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.push(NodeKind::Not, vec![a])
    }

    /// Adds a two-input AND gate.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(NodeKind::And, vec![a, b])
    }

    /// Adds a two-input OR gate.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(NodeKind::Or, vec![a, b])
    }

    /// Adds a two-input XOR gate.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(NodeKind::Xor, vec![a, b])
    }

    /// Adds a multiplexer `sel ? a : b`.
    pub fn mux(&mut self, sel: NodeId, a: NodeId, b: NodeId) -> NodeId {
        self.push(NodeKind::Mux, vec![sel, a, b])
    }

    /// Adds a D flip-flop with power-up value `init` and an
    /// unconnected D input (connect it later with
    /// [`Network::connect_dff`]).
    pub fn dff(&mut self, init: bool) -> NodeId {
        self.push(NodeKind::Dff { init }, Vec::new())
    }

    /// Connects the D input of flip-flop `ff`.
    ///
    /// # Panics
    ///
    /// Panics if `ff` is not a flip-flop or is already connected.
    pub fn connect_dff(&mut self, ff: NodeId, d: NodeId) {
        let node = &mut self.nodes[ff.index()];
        assert!(matches!(node.kind, NodeKind::Dff { .. }), "{ff} is not a flip-flop");
        assert!(node.fanin.is_empty(), "{ff} is already connected");
        node.fanin.push(d);
    }

    /// Registers a 256×32 ROM table and returns its id.
    pub fn add_rom(&mut self, table: [u32; 256]) -> RomId {
        let id = RomId(self.roms.len() as u32);
        self.roms.push(table);
        id
    }

    /// Adds the 32 output-bit nodes of ROM `rom`, addressed by the
    /// 8-bit address `addr` (`addr[0]` is address bit 0).
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not have exactly 8 elements.
    pub fn rom_outputs(&mut self, rom: RomId, addr: &[NodeId]) -> Vec<NodeId> {
        assert_eq!(addr.len(), 8, "ROM address must be 8 bits");
        (0..32).map(|bit| self.push(NodeKind::RomOut { rom, bit }, addr.to_vec())).collect()
    }

    /// The ROM table registered under `rom`.
    #[must_use]
    pub fn rom_table(&self, rom: RomId) -> &[u32; 256] {
        &self.roms[rom.0 as usize]
    }

    /// Number of registered ROMs.
    #[must_use]
    pub fn rom_count(&self) -> usize {
        self.roms.len()
    }

    /// Marks a node with the `KEEP`/`DONT_TOUCH` attribute.
    pub fn set_keep(&mut self, id: NodeId) {
        self.nodes[id.index()].keep = true;
    }

    /// Declares a named primary output.
    pub fn set_output(&mut self, name: impl Into<String>, id: NodeId) {
        self.outputs.push((name.into(), id));
    }

    /// The node with id `id`.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All nodes in id order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterates over `(id, node)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Total number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of combinational gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_gate()).count()
    }

    /// Number of flip-flops.
    #[must_use]
    pub fn dff_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n.kind, NodeKind::Dff { .. })).count()
    }

    /// Primary inputs in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Named primary outputs in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Finds a primary output by name.
    #[must_use]
    pub fn output(&self, name: &str) -> Option<NodeId> {
        self.outputs.iter().find(|(n, _)| n == name).map(|&(_, id)| id)
    }

    /// The fanout map: for each node, which nodes consume it.
    #[must_use]
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (id, node) in self.iter() {
            for &f in &node.fanin {
                out[f.index()].push(id);
            }
        }
        out
    }

    /// A topological order of the *combinational* nodes: every gate
    /// and ROM output appears after all of its fanins, with inputs,
    /// constants and flip-flops treated as sources. The returned order
    /// contains every node exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::CombinationalCycle`] if the
    /// combinational logic is cyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NetworkError> {
        // Kahn's algorithm over combinational dependencies only: a
        // combinational node (gate or ROM output) depends on each of
        // its fanins that is itself combinational; inputs, constants
        // and flip-flop outputs are sources.
        let n = self.nodes.len();
        let mut deg = vec![0usize; n];
        for (i, node) in self.nodes.iter().enumerate() {
            if matches!(
                node.kind,
                NodeKind::Dff { .. } | NodeKind::Input { .. } | NodeKind::Const(_)
            ) {
                deg[i] = 0;
            } else {
                deg[i] = node
                    .fanin
                    .iter()
                    .filter(|f| {
                        !matches!(
                            self.nodes[f.index()].kind,
                            NodeKind::Dff { .. } | NodeKind::Input { .. } | NodeKind::Const(_)
                        )
                    })
                    .count();
            }
        }
        let fanouts = self.fanouts();
        let mut queue: Vec<NodeId> =
            (0..n).filter(|&i| deg[i] == 0).map(|i| NodeId(i as u32)).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            // Only edges out of combinational nodes were counted in
            // `deg`; edges out of sources must not be relaxed.
            if matches!(
                self.nodes[id.index()].kind,
                NodeKind::Dff { .. } | NodeKind::Input { .. } | NodeKind::Const(_)
            ) {
                continue;
            }
            for &succ in &fanouts[id.index()] {
                let snode = &self.nodes[succ.index()];
                if matches!(
                    snode.kind,
                    NodeKind::Dff { .. } | NodeKind::Input { .. } | NodeKind::Const(_)
                ) {
                    continue;
                }
                deg[succ.index()] -= 1;
                if deg[succ.index()] == 0 {
                    queue.push(succ);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| {
                    deg[i] > 0
                        && !matches!(
                            self.nodes[i].kind,
                            NodeKind::Dff { .. } | NodeKind::Input { .. } | NodeKind::Const(_)
                        )
                })
                .map(|i| NodeId(i as u32))
                .unwrap_or(NodeId(0));
            return Err(NetworkError::CombinationalCycle { node: stuck });
        }
        Ok(order)
    }

    /// Validates structural invariants: arities, fanin existence,
    /// ROM references and combinational acyclicity.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetworkError> {
        for (id, node) in self.iter() {
            if let Some(expected) = node.kind.arity() {
                // Dffs may legitimately be declared before connection,
                // but a *finished* network must have them wired.
                if node.fanin.len() != expected {
                    return Err(NetworkError::BadArity {
                        node: id,
                        expected,
                        got: node.fanin.len(),
                    });
                }
            }
            for &f in &node.fanin {
                if f.index() >= self.nodes.len() {
                    return Err(NetworkError::DanglingFanin { node: id, fanin: f });
                }
            }
            if let NodeKind::RomOut { rom, .. } = node.kind {
                if rom.0 as usize >= self.roms.len() {
                    return Err(NetworkError::UnknownRom { node: id });
                }
            }
        }
        self.topo_order().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate_small_network() {
        let mut n = Network::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor(a, b);
        let g = n.and(x, a);
        n.set_output("y", g);
        n.validate().expect("valid network");
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.output("y"), Some(g));
        assert_eq!(n.output("nope"), None);
    }

    #[test]
    fn dff_loops_are_legal() {
        let mut n = Network::new();
        let ff = n.dff(false);
        let inv = n.not(ff);
        n.connect_dff(ff, inv); // toggle flip-flop
        n.validate().expect("sequential loop is fine");
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut n = Network::new();
        let a = n.input("a");
        // Manually create a cycle: x = and(a, y), y = not(x).
        let x = n.and(a, a); // placeholder fanin, patched below
        let y = n.not(x);
        n.nodes[x.index()].fanin[1] = y;
        assert!(matches!(n.validate(), Err(NetworkError::CombinationalCycle { .. })));
    }

    #[test]
    fn unconnected_dff_fails_validation() {
        let mut n = Network::new();
        let _ff = n.dff(true);
        assert!(matches!(n.validate(), Err(NetworkError::BadArity { .. })));
    }

    #[test]
    fn rom_outputs_have_eight_fanins() {
        let mut n = Network::new();
        let addr: Vec<NodeId> = (0..8).map(|i| n.input(format!("a{i}"))).collect();
        let rom = n.add_rom([0u32; 256]);
        let outs = n.rom_outputs(rom, &addr);
        assert_eq!(outs.len(), 32);
        n.validate().expect("valid");
        assert_eq!(n.node(outs[0]).fanin.len(), 8);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut n = Network::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor(a, b);
        let y = n.and(x, b);
        let order = n.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&o| o == id).expect("node present in order");
        assert!(pos(x) < pos(y));
    }

    #[test]
    fn fanouts_inverse_of_fanins() {
        let mut n = Network::new();
        let a = n.input("a");
        let x = n.not(a);
        let y = n.not(a);
        let fo = n.fanouts();
        assert_eq!(fo[a.index()], vec![x, y]);
    }
}
