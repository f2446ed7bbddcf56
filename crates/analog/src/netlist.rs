//! Circuit description: nodes and elements.
//!
//! A [`Netlist`] is a flat list of two-terminal elements between named nodes:
//! resistors, capacitors (every one starts at 0 V), ideal voltage sources
//! and switches — the elements the ReSiPE datapath is built from. Node 0 is
//! always ground. The two elements whose value can change during a
//! transient run (switch state, source level) are mutated through the typed
//! handles ([`SwitchId`], [`VSourceId`]) returned at construction time —
//! this is how behavioural controllers express sample-and-hold stages and
//! comparators.
//!
//! ```
//! use resipe_analog::netlist::{Netlist, Node};
//! use resipe_analog::units::{Farads, Ohms, Volts};
//!
//! let mut net = Netlist::new();
//! let a = net.node("a");
//! net.voltage_source(Node::GROUND, a, Volts(1.0));
//! let b = net.node("b");
//! net.resistor(a, b, Ohms(1e3));
//! net.capacitor(b, Node::GROUND, Farads(1e-12));
//! assert_eq!(net.node_count(), 3); // ground + a + b
//! ```

use crate::units::{Farads, Ohms, Volts};

/// A node in the circuit. `Node::GROUND` (index 0) is the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Node(pub(crate) usize);

impl Node {
    /// The ground (reference) node, always present.
    pub const GROUND: Node = Node(0);

    /// The raw index of this node (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// `true` if this is the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_ground() {
            write!(f, "gnd")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Handle to a voltage source, for runtime level changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VSourceId(pub(crate) usize);

/// Handle to a switch, for runtime open/close.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchId(pub(crate) usize);

/// State of an ideal (finite on/off resistance) switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwitchState {
    /// Conducting, `r_on` between terminals.
    Closed,
    /// Blocking, `r_off` between terminals.
    #[default]
    Open,
}

#[derive(Debug, Clone)]
pub(crate) struct Resistor {
    pub a: Node,
    pub b: Node,
    pub ohms: Ohms,
}

#[derive(Debug, Clone)]
pub(crate) struct Capacitor {
    pub a: Node,
    pub b: Node,
    pub farads: Farads,
}

#[derive(Debug, Clone)]
pub(crate) struct VoltageSource {
    /// Negative terminal.
    pub a: Node,
    /// Positive terminal.
    pub b: Node,
    pub volts: Volts,
}

#[derive(Debug, Clone)]
pub(crate) struct Switch {
    pub a: Node,
    pub b: Node,
    pub r_on: Ohms,
    pub r_off: Ohms,
    pub state: SwitchState,
}

impl Switch {
    pub(crate) fn resistance(&self) -> Ohms {
        match self.state {
            SwitchState::Closed => self.r_on,
            SwitchState::Open => self.r_off,
        }
    }
}

/// The circuit under simulation.
///
/// [`Netlist::switch`] and [`Netlist::voltage_source`] return typed handles
/// that controllers use to retune those elements mid-run; see
/// [`crate::transient::Controller`].
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    node_names: Vec<String>,
    pub(crate) resistors: Vec<Resistor>,
    pub(crate) capacitors: Vec<Capacitor>,
    pub(crate) vsources: Vec<VoltageSource>,
    pub(crate) switches: Vec<Switch>,
}

impl Netlist {
    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Netlist {
        Netlist {
            node_names: vec!["gnd".to_owned()],
            ..Netlist::default()
        }
    }

    /// Allocates a fresh node with a debugging name.
    pub fn node(&mut self, name: &str) -> Node {
        self.node_names.push(name.to_owned());
        Node(self.node_names.len() - 1)
    }

    /// Total number of nodes, including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// The debugging name of a node, if it exists.
    pub fn node_name(&self, node: Node) -> Option<&str> {
        self.node_names.get(node.0).map(String::as_str)
    }

    /// Number of voltage sources (each adds one MNA branch unknown).
    pub fn vsource_count(&self) -> usize {
        self.vsources.len()
    }

    fn check_node(&self, node: Node) {
        assert!(
            node.0 < self.node_names.len(),
            "node {} does not belong to this netlist",
            node.0
        );
    }

    /// Adds a resistor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either node is unknown or the resistance is not positive
    /// and finite.
    pub fn resistor(&mut self, a: Node, b: Node, ohms: Ohms) {
        self.check_node(a);
        self.check_node(b);
        assert!(
            ohms.0 > 0.0 && ohms.0.is_finite(),
            "resistance must be positive and finite, got {ohms}"
        );
        self.resistors.push(Resistor { a, b, ohms });
    }

    /// Adds a capacitor between `a` and `b` with zero initial voltage.
    ///
    /// # Panics
    ///
    /// Panics if either node is unknown or the capacitance is not positive
    /// and finite.
    pub fn capacitor(&mut self, a: Node, b: Node, farads: Farads) {
        self.check_node(a);
        self.check_node(b);
        assert!(
            farads.0 > 0.0 && farads.0.is_finite(),
            "capacitance must be positive and finite, got {farads}"
        );
        self.capacitors.push(Capacitor { a, b, farads });
    }

    /// Adds an ideal voltage source driving `V(b) − V(a) = volts`.
    ///
    /// # Panics
    ///
    /// Panics if either node is unknown.
    pub fn voltage_source(&mut self, a: Node, b: Node, volts: Volts) -> VSourceId {
        self.check_node(a);
        self.check_node(b);
        self.vsources.push(VoltageSource { a, b, volts });
        VSourceId(self.vsources.len() - 1)
    }

    /// Adds a switch (initially open) with the given on/off resistances.
    ///
    /// # Panics
    ///
    /// Panics if either node is unknown, or `r_on`/`r_off` are not positive
    /// and finite, or `r_on >= r_off`.
    pub fn switch(&mut self, a: Node, b: Node, r_on: Ohms, r_off: Ohms) -> SwitchId {
        self.check_node(a);
        self.check_node(b);
        assert!(
            r_on.0 > 0.0 && r_on.0.is_finite() && r_off.0 > 0.0 && r_off.0.is_finite(),
            "switch resistances must be positive and finite"
        );
        assert!(
            r_on.0 < r_off.0,
            "switch r_on ({r_on}) must be smaller than r_off ({r_off})"
        );
        self.switches.push(Switch {
            a,
            b,
            r_on,
            r_off,
            state: SwitchState::Open,
        });
        SwitchId(self.switches.len() - 1)
    }

    /// Sets a switch's state. Returns the previous state.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this netlist.
    pub fn set_switch(&mut self, id: SwitchId, state: SwitchState) -> SwitchState {
        let sw = self
            .switches
            .get_mut(id.0)
            .expect("switch handle does not belong to this netlist");
        std::mem::replace(&mut sw.state, state)
    }

    /// Current state of a switch.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this netlist.
    pub fn switch_state(&self, id: SwitchId) -> SwitchState {
        self.switches
            .get(id.0)
            .expect("switch handle does not belong to this netlist")
            .state
    }

    /// Sets a voltage source's level. Returns the previous level.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this netlist.
    pub fn set_voltage(&mut self, id: VSourceId, volts: Volts) -> Volts {
        let vs = self
            .vsources
            .get_mut(id.0)
            .expect("voltage source handle does not belong to this netlist");
        std::mem::replace(&mut vs.volts, volts)
    }

    /// Current level of a voltage source.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this netlist.
    pub fn voltage(&self, id: VSourceId) -> Volts {
        self.vsources
            .get(id.0)
            .expect("voltage source handle does not belong to this netlist")
            .volts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_is_preallocated() {
        let net = Netlist::new();
        assert_eq!(net.node_count(), 1);
        assert!(Node::GROUND.is_ground());
        assert_eq!(net.node_name(Node::GROUND), Some("gnd"));
    }

    #[test]
    fn node_names_round_trip() {
        let mut net = Netlist::new();
        let a = net.node("vin");
        assert_eq!(net.node_name(a), Some("vin"));
        assert_eq!(a.index(), 1);
        assert_eq!(format!("{a}"), "n1");
        assert_eq!(format!("{}", Node::GROUND), "gnd");
    }

    #[test]
    fn switch_state_toggles() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let sw = net.switch(Node::GROUND, a, Ohms(100.0), Ohms(1e12));
        assert_eq!(net.switch_state(sw), SwitchState::Open);
        let prev = net.set_switch(sw, SwitchState::Closed);
        assert_eq!(prev, SwitchState::Open);
        assert_eq!(net.switch_state(sw), SwitchState::Closed);
    }

    #[test]
    fn vsource_level_changes() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let vs = net.voltage_source(Node::GROUND, a, Volts(1.0));
        let prev = net.set_voltage(vs, Volts(0.5));
        assert_eq!(prev, Volts(1.0));
        assert_eq!(net.voltage(vs), Volts(0.5));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn negative_resistance_rejected() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.resistor(Node::GROUND, a, Ohms(-1.0));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_capacitance_rejected() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.capacitor(Node::GROUND, a, Farads(0.0));
    }

    #[test]
    #[should_panic(expected = "r_on")]
    fn switch_on_resistance_must_be_smaller() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.switch(Node::GROUND, a, Ohms(1e12), Ohms(100.0));
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_node_rejected() {
        let mut net = Netlist::new();
        let mut other = Netlist::new();
        let a = other.node("a");
        let b = other.node("b");
        let _ = (a, b);
        // `a`/`b` have indices 1 and 2, which don't exist in `net`.
        net.resistor(a, b, Ohms(1.0));
    }
}
