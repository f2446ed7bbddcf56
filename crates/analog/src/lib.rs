//! # resipe-analog
//!
//! A small, dependency-light analog transient circuit simulator built around
//! [modified nodal analysis] (MNA) with backward-Euler integration. It is the
//! substitute for the Cadence Virtuoso transient simulations used by the
//! ReSiPE paper (DAC 2020): the ReSiPE datapath is an RC network with ideal
//! switches, voltage sources, sample-and-hold stages and a comparator, all of
//! which this crate models.
//!
//! The crate is deliberately scoped to what a ReRAM processing-in-memory
//! datapath needs:
//!
//! * linear elements — resistors, capacitors (starting at 0 V) and voltage
//!   sources (see [`netlist::Netlist`]'s constructor methods);
//! * time-controlled ideal switches (finite on/off resistance);
//! * behavioural controllers ([`transient::Controller`]) that observe node
//!   voltages every step and may retune element values — this is how
//!   sample-and-hold stages and comparators are expressed;
//! * waveform capture and post-processing ([`waveform::Waveform`]), including
//!   threshold-crossing detection used to locate output spikes.
//!
//! # Example
//!
//! Simulate the charging of the ReSiPE timing-reference capacitor `C_gd`
//! through `R_gd` and compare against the closed-form exponential:
//!
//! ```
//! use resipe_analog::netlist::{Netlist, Node};
//! use resipe_analog::transient::{Transient, TransientConfig};
//! use resipe_analog::units::{Farads, Ohms, Seconds, Volts};
//!
//! # fn main() -> Result<(), resipe_analog::AnalogError> {
//! let mut net = Netlist::new();
//! let vdd = net.node("vdd");
//! let cap = net.node("cap");
//! net.voltage_source(Node::GROUND, vdd, Volts(1.0));
//! net.resistor(vdd, cap, Ohms(100e3));
//! net.capacitor(cap, Node::GROUND, Farads(100e-15));
//!
//! let cfg = TransientConfig::new(Seconds(100e-9)).with_step(Seconds(10e-12));
//! let result = Transient::new(&net, cfg)?.run()?;
//! let wave = result.waveform(cap)?;
//! let expected = 1.0 - (-100e-9_f64 / (100e3 * 100e-15)).exp();
//! assert!((wave.last_value() - expected).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```
//!
//! [modified nodal analysis]: https://en.wikipedia.org/wiki/Modified_nodal_analysis

// `!(x > 0.0)` deliberately rejects NaN alongside non-positive values
// when validating physical parameters; the clippy lint would obscure that.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod error;
pub mod linalg;
pub mod netlist;
pub mod sparse;
pub mod transient;
pub mod units;
pub mod waveform;

pub use error::AnalogError;
pub use netlist::{Netlist, Node};
pub use transient::{SolverSession, SolverStats, Transient, TransientConfig, TransientResult};
pub use units::{Amps, Farads, Hertz, Ohms, Seconds, Siemens, Volts};
pub use waveform::Waveform;
