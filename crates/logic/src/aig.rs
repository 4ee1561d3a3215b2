//! And-Inverter Graph with structural hashing and constant folding.
//!
//! Representation follows the AIGER convention: a literal is
//! `2 * node_index + complement`. Node 0 is the constant-false node, so
//! literal `0` is `false` and literal `1` is `true`. Every other node is
//! either a primary input or a two-input AND gate. Inversion is free
//! (encoded in the literal), which keeps the graph small and makes
//! structural hashing effective.
//!
//! The builder API ([`Aig::and`], [`Aig::or`], [`Aig::xor`], [`Aig::mux`],
//! …) performs local simplification (constant folding, idempotence,
//! complement annihilation) and structural hashing with commutative
//! normalization, so semantically identical sub-circuits are shared.

use std::collections::HashMap;

/// A literal: a reference to an AIG node together with a complement flag.
///
/// `AigLit::FALSE` / `AigLit::TRUE` are the two constant literals.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AigLit(u32);

impl AigLit {
    /// The constant-false literal.
    pub const FALSE: AigLit = AigLit(0);
    /// The constant-true literal.
    pub const TRUE: AigLit = AigLit(1);

    fn new(node: u32, complement: bool) -> Self {
        AigLit(node << 1 | complement as u32)
    }

    /// Index of the node this literal refers to.
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the literal is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 != 0
    }

    /// The complement of this literal.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        AigLit(self.0 ^ 1)
    }

    /// Whether this is one of the two constant literals.
    pub fn is_const(self) -> bool {
        self.node() == 0
    }

    /// Raw AIGER-style encoding (`2 * node + complement`).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Debug for AigLit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == AigLit::FALSE {
            write!(f, "0")
        } else if *self == AigLit::TRUE {
            write!(f, "1")
        } else if self.is_complement() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Node {
    /// The constant-false node (index 0 only).
    False,
    /// A primary input; the payload is the input ordinal.
    Input(u32),
    /// A two-input AND gate over the two literals.
    And(AigLit, AigLit),
}

/// An And-Inverter Graph.
///
/// Nodes are created in topological order, so any pass that walks
/// `0..len()` sees definitions before uses.
///
/// # Examples
///
/// ```
/// use gqed_logic::aig::Aig;
///
/// let mut g = Aig::new();
/// let a = g.input();
/// let b = g.input();
/// let y = g.xor(a, b);
/// assert_eq!(g.eval(y, &[false, true]), true);
/// assert_eq!(g.eval(y, &[true, true]), false);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    /// Ordinal → node index for primary inputs, in creation order.
    inputs: Vec<u32>,
    strash: HashMap<(AigLit, AigLit), u32>,
}

impl Aig {
    /// Creates an empty graph containing only the constant node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::False],
            inputs: Vec::new(),
            strash: HashMap::new(),
        }
    }

    /// Number of nodes, including the constant node.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph contains only the constant node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Number of AND gates (the standard AIG size metric).
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::And(..)))
            .count()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Creates a fresh primary input and returns its (positive) literal.
    pub fn input(&mut self) -> AigLit {
        let idx = self.nodes.len() as u32;
        let ordinal = self.inputs.len() as u32;
        self.nodes.push(Node::Input(ordinal));
        self.inputs.push(idx);
        AigLit::new(idx, false)
    }

    /// The positive literal of the input created `ordinal`-th.
    ///
    /// # Panics
    ///
    /// Panics if `ordinal` is out of range.
    pub fn input_lit(&self, ordinal: usize) -> AigLit {
        AigLit::new(self.inputs[ordinal], false)
    }

    /// Fanins of an AND node, if `node` is an AND.
    pub fn and_fanins(&self, node: u32) -> Option<(AigLit, AigLit)> {
        match self.nodes[node as usize] {
            Node::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// AND of two literals, with constant folding, local simplification
    /// and structural hashing.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Constant folding and trivial cases.
        if a == AigLit::FALSE || b == AigLit::FALSE || a == b.not() {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE || a == b {
            return b;
        }
        if b == AigLit::TRUE {
            return a;
        }
        // Commutative normalization for structural hashing.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&idx) = self.strash.get(&(a, b)) {
            return AigLit::new(idx, false);
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node::And(a, b));
        self.strash.insert((a, b), idx);
        AigLit::new(idx, false)
    }

    /// OR of two literals.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.and(a.not(), b.not()).not()
    }

    /// XOR of two literals.
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // (a & !b) | (!a & b)
        let l = self.and(a, b.not());
        let r = self.and(a.not(), b);
        self.or(l, r)
    }

    /// XNOR (equivalence) of two literals.
    pub fn xnor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.xor(a, b).not()
    }

    /// If-then-else: `c ? t : e`.
    pub fn mux(&mut self, c: AigLit, t: AigLit, e: AigLit) -> AigLit {
        if t == e {
            return t;
        }
        let l = self.and(c, t);
        let r = self.and(c.not(), e);
        self.or(l, r)
    }

    /// Implication `a → b`.
    pub fn implies(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.or(a.not(), b)
    }

    /// Conjunction over a slice of literals (true for the empty slice).
    pub fn and_all(&mut self, lits: &[AigLit]) -> AigLit {
        let mut acc = AigLit::TRUE;
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// Disjunction over a slice of literals (false for the empty slice).
    pub fn or_all(&mut self, lits: &[AigLit]) -> AigLit {
        let mut acc = AigLit::FALSE;
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Evaluates a literal under a complete input assignment
    /// (`inputs[ordinal]` is the value of the input created `ordinal`-th).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than [`Aig::num_inputs`].
    pub fn eval(&self, lit: AigLit, inputs: &[bool]) -> bool {
        let values = self.eval_all(inputs);
        values[lit.node() as usize] ^ lit.is_complement()
    }

    /// Evaluates every node under a complete input assignment; entry `i` is
    /// the value of node `i` (un-complemented).
    pub fn eval_all(&self, inputs: &[bool]) -> Vec<bool> {
        assert!(
            inputs.len() >= self.inputs.len(),
            "input assignment too short: got {}, need {}",
            inputs.len(),
            self.inputs.len()
        );
        let mut values = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match *node {
                Node::False => false,
                Node::Input(ord) => inputs[ord as usize],
                Node::And(a, b) => {
                    let va = values[a.node() as usize] ^ a.is_complement();
                    let vb = values[b.node() as usize] ^ b.is_complement();
                    va && vb
                }
            };
        }
        values
    }

    /// Collects the set of nodes in the transitive fanin cone of `roots`
    /// (including the roots' own nodes), as a sorted vector of node indices.
    pub fn cone(&self, roots: &[AigLit]) -> Vec<u32> {
        let mut mark = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = roots.iter().map(|l| l.node()).collect();
        while let Some(n) = stack.pop() {
            if mark[n as usize] {
                continue;
            }
            mark[n as usize] = true;
            if let Node::And(a, b) = self.nodes[n as usize] {
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        (0..self.nodes.len() as u32)
            .filter(|&n| mark[n as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(AigLit::FALSE.not(), AigLit::TRUE);
        assert!(AigLit::FALSE.is_const());
        assert!(AigLit::TRUE.is_const());
        assert!(!AigLit::TRUE.not().is_complement());
    }

    #[test]
    fn and_folding() {
        let mut g = Aig::new();
        let a = g.input();
        assert_eq!(g.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(g.and(AigLit::TRUE, a), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, a.not()), AigLit::FALSE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn xor_truth_table() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let y = g.xor(a, b);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(g.eval(y, &[va, vb]), va ^ vb);
        }
    }

    #[test]
    fn mux_truth_table() {
        let mut g = Aig::new();
        let c = g.input();
        let t = g.input();
        let e = g.input();
        let y = g.mux(c, t, e);
        for i in 0..8u8 {
            let (vc, vt, ve) = (i & 1 != 0, i & 2 != 0, i & 4 != 0);
            assert_eq!(g.eval(y, &[vc, vt, ve]), if vc { vt } else { ve });
        }
    }

    #[test]
    fn mux_same_branches_collapses() {
        let mut g = Aig::new();
        let c = g.input();
        let t = g.input();
        assert_eq!(g.mux(c, t, t), t);
    }

    #[test]
    fn and_or_all() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let all = g.and_all(&[a, b, c]);
        let any = g.or_all(&[a, b, c]);
        assert_eq!(g.and_all(&[]), AigLit::TRUE);
        assert_eq!(g.or_all(&[]), AigLit::FALSE);
        assert!(g.eval(all, &[true, true, true]));
        assert!(!g.eval(all, &[true, false, true]));
        assert!(g.eval(any, &[false, false, true]));
        assert!(!g.eval(any, &[false, false, false]));
    }

    #[test]
    fn cone_includes_only_reachable() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input(); // not in the cone of y
        let y = g.and(a, b);
        let _z = g.and(a, c);
        let cone = g.cone(&[y]);
        assert!(cone.contains(&a.node()));
        assert!(cone.contains(&b.node()));
        assert!(cone.contains(&y.node()));
        assert!(!cone.contains(&c.node()));
    }

    #[test]
    fn implies_truth_table() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let y = g.implies(a, b);
        assert!(g.eval(y, &[false, false]));
        assert!(g.eval(y, &[false, true]));
        assert!(!g.eval(y, &[true, false]));
        assert!(g.eval(y, &[true, true]));
    }
}
