//! Gate-level circuit capture and two-valued simulation.
//!
//! A [`GateCircuit`] is a synchronous design: primary inputs, gates, D
//! flip-flops, primary outputs. Combinational evaluation runs in
//! levelized (topological) order; one [`GateCircuit::tick`] evaluates the
//! cloud and advances the flip-flops.

use std::collections::HashMap;
use std::fmt;

/// A signal net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Net(pub(crate) usize);

impl Net {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Combinational gate kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Logical AND of all inputs.
    And,
    /// Logical OR.
    Or,
    /// NOT-AND.
    Nand,
    /// NOT-OR.
    Nor,
    /// Exclusive OR (2 inputs).
    Xor,
    /// Exclusive NOR (2 inputs).
    Xnor,
    /// Inverter (1 input).
    Inv,
    /// Buffer (1 input).
    Buf,
}

impl GateKind {
    /// Evaluates the gate on boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics if the input count is invalid for the kind.
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::And => inputs.iter().all(|x| *x),
            GateKind::Or => inputs.iter().any(|x| *x),
            GateKind::Nand => !inputs.iter().all(|x| *x),
            GateKind::Nor => !inputs.iter().any(|x| *x),
            GateKind::Xor => {
                assert_eq!(inputs.len(), 2, "XOR takes 2 inputs");
                inputs[0] ^ inputs[1]
            }
            GateKind::Xnor => {
                assert_eq!(inputs.len(), 2, "XNOR takes 2 inputs");
                !(inputs[0] ^ inputs[1])
            }
            GateKind::Inv => {
                assert_eq!(inputs.len(), 1, "INV takes 1 input");
                !inputs[0]
            }
            GateKind::Buf => {
                assert_eq!(inputs.len(), 1, "BUF takes 1 input");
                inputs[0]
            }
        }
    }
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Kind.
    pub kind: GateKind,
    /// Input nets.
    pub inputs: Vec<Net>,
    /// Output net (each net is driven at most once).
    pub output: Net,
}

/// One D flip-flop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dff {
    /// Data input net.
    pub d: Net,
    /// Output net.
    pub q: Net,
}

/// A gate-level synchronous circuit.
#[derive(Debug, Clone, Default)]
pub struct GateCircuit {
    net_count: usize,
    names: HashMap<String, Net>,
    inputs: Vec<Net>,
    outputs: Vec<Net>,
    gates: Vec<Gate>,
    ffs: Vec<Dff>,
    /// Gate evaluation order (indices into `gates`), rebuilt on seal.
    order: Vec<usize>,
    sealed: bool,
}

impl GateCircuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh net, optionally named.
    pub fn net(&mut self, name: &str) -> Net {
        if let Some(&n) = self.names.get(name) {
            return n;
        }
        let n = Net(self.net_count);
        self.net_count += 1;
        self.names.insert(name.to_string(), n);
        n
    }

    /// Allocates an anonymous net.
    pub fn fresh(&mut self) -> Net {
        let n = Net(self.net_count);
        self.net_count += 1;
        n
    }

    /// Looks up a named net.
    pub fn find(&self, name: &str) -> Option<Net> {
        self.names.get(name).copied()
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: &str) -> Net {
        let n = self.net(name);
        self.inputs.push(n);
        n
    }

    /// Declares a primary output.
    pub fn output(&mut self, net: Net) {
        self.outputs.push(net);
    }

    /// Adds a gate; returns its output net.
    ///
    /// # Panics
    ///
    /// Panics after sealing, or if the output net is already driven.
    pub fn gate(&mut self, kind: GateKind, inputs: &[Net], output: Net) -> Net {
        assert!(!self.sealed, "circuit already sealed");
        assert!(
            !self.gates.iter().any(|g| g.output == output)
                && !self.ffs.iter().any(|f| f.q == output),
            "net {output} is already driven"
        );
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
        output
    }

    /// Convenience: adds a gate with a fresh output net.
    pub fn g(&mut self, kind: GateKind, inputs: &[Net]) -> Net {
        let out = self.fresh();
        self.gate(kind, inputs, out)
    }

    /// Adds a D flip-flop; returns its Q net.
    ///
    /// # Panics
    ///
    /// Panics after sealing or on a doubly-driven Q.
    pub fn dff(&mut self, d: Net, q: Net) -> Net {
        assert!(!self.sealed, "circuit already sealed");
        assert!(
            !self.gates.iter().any(|g| g.output == q) && !self.ffs.iter().any(|f| f.q == q),
            "net {q} is already driven"
        );
        self.ffs.push(Dff { d, q });
        q
    }

    /// Finalizes the circuit: levelizes the combinational cloud.
    ///
    /// # Panics
    ///
    /// Panics on a combinational loop or an undriven non-input net.
    pub fn seal(&mut self) {
        assert!(!self.sealed, "already sealed");
        // Driver map: net -> gate index (PIs and FF Qs are sources).
        let mut driver: Vec<Option<usize>> = vec![None; self.net_count];
        for (gi, g) in self.gates.iter().enumerate() {
            driver[g.output.0] = Some(gi);
        }
        let mut source = vec![false; self.net_count];
        for n in &self.inputs {
            source[n.0] = true;
        }
        for f in &self.ffs {
            source[f.q.0] = true;
        }
        // Kahn levelization.
        let mut indeg = vec![0usize; self.gates.len()];
        let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); self.gates.len()];
        for (gi, g) in self.gates.iter().enumerate() {
            for inp in &g.inputs {
                if let Some(di) = driver[inp.0] {
                    indeg[gi] += 1;
                    fanout[di].push(gi);
                } else {
                    assert!(source[inp.0], "net {} is used but never driven", inp);
                }
            }
        }
        let mut queue: Vec<usize> = indeg
            .iter()
            .enumerate()
            .filter(|(_, d)| **d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(self.gates.len());
        let mut head = 0;
        while head < queue.len() {
            let gi = queue[head];
            head += 1;
            order.push(gi);
            for &next in &fanout[gi] {
                indeg[next] -= 1;
                if indeg[next] == 0 {
                    queue.push(next);
                }
            }
        }
        assert_eq!(order.len(), self.gates.len(), "combinational loop detected");
        self.order = order;
        self.sealed = true;
    }

    /// Primary inputs.
    pub fn inputs(&self) -> &[Net] {
        &self.inputs
    }

    /// Primary outputs.
    pub fn outputs(&self) -> &[Net] {
        &self.outputs
    }

    /// Flip-flops.
    pub fn ffs(&self) -> &[Dff] {
        &self.ffs
    }

    /// Gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Levelized gate order (sealed circuits only).
    pub(crate) fn order(&self) -> &[usize] {
        assert!(self.sealed, "circuit not sealed");
        &self.order
    }

    /// Evaluates the combinational cloud for given PI values and FF state,
    /// returning all net values. `state[i]` corresponds to `ffs()[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is unsealed or slice lengths mismatch.
    pub fn evaluate(&self, pi: &[bool], state: &[bool]) -> Vec<bool> {
        assert!(self.sealed, "seal the circuit before evaluating");
        assert_eq!(pi.len(), self.inputs.len(), "PI count mismatch");
        assert_eq!(state.len(), self.ffs.len(), "state count mismatch");
        let mut values = vec![false; self.net_count];
        for (n, v) in self.inputs.iter().zip(pi) {
            values[n.0] = *v;
        }
        for (f, v) in self.ffs.iter().zip(state) {
            values[f.q.0] = *v;
        }
        let mut buf = Vec::with_capacity(8);
        for &gi in &self.order {
            let g = &self.gates[gi];
            buf.clear();
            buf.extend(g.inputs.iter().map(|n| values[n.0]));
            values[g.output.0] = g.kind.eval(&buf);
        }
        values
    }

    /// One clock tick: evaluates and returns `(outputs, next_state)`.
    pub fn tick(&self, pi: &[bool], state: &[bool]) -> (Vec<bool>, Vec<bool>) {
        let values = self.evaluate(pi, state);
        let outs = self.outputs.iter().map(|n| values[n.0]).collect();
        let next = self.ffs.iter().map(|f| values[f.d.0]).collect();
        (outs, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-bit full adder out of primitive gates.
    fn full_adder() -> GateCircuit {
        let mut c = GateCircuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let cin = c.input("cin");
        let axb = c.g(GateKind::Xor, &[a, b]);
        let sum = c.g(GateKind::Xor, &[axb, cin]);
        let t1 = c.g(GateKind::And, &[a, b]);
        let t2 = c.g(GateKind::And, &[axb, cin]);
        let cout = c.g(GateKind::Or, &[t1, t2]);
        c.output(sum);
        c.output(cout);
        c.seal();
        c
    }

    #[test]
    fn full_adder_truth_table() {
        let c = full_adder();
        for bits in 0..8u8 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let cin = bits & 4 != 0;
            let (outs, _) = c.tick(&[a, b, cin], &[]);
            let expect = u8::from(a) + u8::from(b) + u8::from(cin);
            assert_eq!(outs[0], expect & 1 != 0, "sum at {bits:03b}");
            assert_eq!(outs[1], expect >= 2, "cout at {bits:03b}");
        }
    }

    #[test]
    fn dff_shifts_state() {
        // 3-stage shift register.
        let mut c = GateCircuit::new();
        let din = c.input("din");
        let q0 = c.net("q0");
        let q1 = c.net("q1");
        let q2 = c.net("q2");
        c.dff(din, q0);
        c.dff(q0, q1);
        c.dff(q1, q2);
        c.output(q2);
        c.seal();
        let mut state = vec![false; 3];
        let seq = [true, false, true, true, false, false];
        let mut got = Vec::new();
        for &bit in &seq {
            let (outs, next) = c.tick(&[bit], &state);
            got.push(outs[0]);
            state = next;
        }
        // Output is the input delayed by 3.
        assert_eq!(got[3..], [true, false, true]);
    }

    #[test]
    #[should_panic]
    fn combinational_loop_detected() {
        let mut c = GateCircuit::new();
        let a = c.net("a");
        let b = c.net("b");
        c.gate(GateKind::Inv, &[a], b);
        c.gate(GateKind::Inv, &[b], a);
        c.seal();
    }

    #[test]
    #[should_panic]
    fn double_drive_rejected() {
        let mut c = GateCircuit::new();
        let a = c.input("a");
        let o = c.net("o");
        c.gate(GateKind::Buf, &[a], o);
        c.gate(GateKind::Inv, &[a], o);
    }

    #[test]
    #[should_panic]
    fn undriven_net_rejected() {
        let mut c = GateCircuit::new();
        let ghost = c.net("ghost");
        let o = c.g(GateKind::Inv, &[ghost]);
        c.output(o);
        c.seal();
    }

    #[test]
    fn gate_eval_primitives() {
        assert!(GateKind::And.eval(&[true, true, true]));
        assert!(!GateKind::And.eval(&[true, false]));
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(GateKind::Nor.eval(&[false, false]));
        assert!(GateKind::Xor.eval(&[true, false]));
        assert!(GateKind::Xnor.eval(&[true, true]));
        assert!(GateKind::Inv.eval(&[false]));
        assert!(GateKind::Buf.eval(&[true]));
    }
}
