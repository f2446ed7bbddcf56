//! # resipe
//!
//! Reproduction of **ReSiPE: ReRAM-based Single-Spiking Processing-In-Memory
//! Engine** (Li, Yan, Li — DAC 2020).
//!
//! ReSiPE encodes every datum as the **arrival time of a single spike**
//! within a fixed time slice. A matrix–vector multiplication is then three
//! steps:
//!
//! 1. **S1** (one slice, 100 ns) — the Global Decoder (GD) converts each
//!    input spike time `t_in` into a held voltage
//!    `V_in = V_s (1 − e^(−t_in/R_gd C_gd))` (paper Eq. 1,
//!    `engine::ramp_voltage`);
//! 2. **computation stage** (Δt = 1 ns) — the held voltages drive the
//!    crossbar and each bitline's Column Output Generator (COG) charges
//!    its capacitor to `V_out = V_eq (1 − e^(−Δt/R_eq C_cog))` with
//!    `V_eq = Σ V_i G_i / Σ G_i` (Eqs. 2–3, `engine::charge_factor` and
//!    `engine::charged_v_out`);
//! 3. **S2** (one slice) — each COG compares the re-ramped `V(C_gd)`
//!    against `V_out` and fires a spike at the crossing time `t_out`
//!    (Eq. 4, `engine::crossing_time`), giving
//!    `t_out ≈ (Δt / C_cog) Σ t_in,i G_i` (Eqs. 5–6).
//!
//! Each equation is one function in [`engine`], and every module that
//! evaluates one calls it. [`engine::ResipeEngine`] runs them as the
//! exact (exponential) MAC and MVM;
//! [`circuit`] rebuilds the same datapath as an RC netlist on the
//! [`resipe_analog`] MNA simulator and is used to validate the closed-form
//! engine (and to regenerate the paper's Fig. 3 waveforms). [`mapping`]
//! and [`inference`] map trained [`resipe_nn`] networks onto differential
//! crossbar pairs and evaluate classification accuracy under the circuit
//! non-linearity and ReRAM process variation (the paper's Fig. 7);
//! [`power`] implements the energy/power breakdown behind Table II.
//!
//! # Quickstart
//!
//! ```
//! use resipe::prelude::*;
//! use resipe_analog::units::{Seconds, Siemens};
//!
//! # fn main() -> Result<(), resipe::ResipeError> {
//! let engine = ResipeEngine::new(ResipeConfig::paper());
//! // Two early spikes through small conductances — the doubly-linear
//! // regime where Eq. 5's `t_out = (Δt/C_cog) Σ t_in G` holds.
//! let t_in = [Seconds::from_nanos(1.0), Seconds::from_nanos(2.0)];
//! let g = [Siemens(4e-6), Siemens(6e-6)];
//! let mac = engine.mac(&t_in, &g)?;
//! let ideal = engine.mac_linear(&t_in, &g)?;
//! let rel_err = (mac.t_out.0 - ideal.0).abs() / ideal.0;
//! assert!(rel_err < 0.2, "relative error {rel_err}");
//! # Ok(())
//! # }
//! ```

// `!(x > 0.0)` deliberately rejects NaN alongside non-positive values
// when validating physical parameters; the clippy lint would obscure that.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod circuit;
pub mod config;
pub mod engine;
pub mod error;
pub mod inference;
pub mod mapping;
pub mod parasitics;
pub mod pipeline;
pub mod power;
pub mod prelude;
pub mod repair;
pub mod scrub;
pub mod seeds;
pub mod spike;
pub mod telemetry;

// The GD (Eqs. 1, 4) and COG (Eqs. 2–4) unit checks, run on the
// equation functions in `engine`.
#[cfg(test)]
#[path = "cog_tests.rs"]
mod cog;
#[cfg(test)]
#[path = "gd_tests.rs"]
mod gd;

pub use config::ResipeConfig;
pub use engine::{MacResult, ResipeEngine};
pub use error::ResipeError;
pub use spike::SpikeTime;
