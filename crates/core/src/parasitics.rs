//! Wire-parasitic (IR-drop) analysis of the computation stage.
//!
//! The paper's 32×32 array is small enough that it neglects interconnect
//! resistance; its conclusion nevertheless calls for "elaborated circuit
//! designs ... to achieve better robustness". This module quantifies the
//! first robustness limit a larger ReSiPE array would hit: **bitline IR
//! drop** during the Δt computation stage.
//!
//! [`ParasiticColumn`] renders one bitline as a full RC ladder on the MNA
//! simulator: every cell injects through its own resistance into a tap of
//! the bitline, consecutive taps are separated by the wire's segment
//! resistance, and `C_cog` hangs at the column's sense end. With zero
//! wire resistance the sampled voltage converges to the ideal Eq. 2–3
//! value; with realistic segment resistance, cells far from the sense
//! end are attenuated — a *position-dependent* weight error no
//! per-column decode constant can remove.

use resipe_analog::netlist::{Netlist, Node};
use resipe_analog::transient::{Transient, TransientConfig};
use resipe_analog::units::{Ohms, Seconds, Siemens, Volts};

use crate::config::ResipeConfig;
use crate::engine::ResipeEngine;
use crate::error::ResipeError;

/// Typical 65 nm mid-level metal wire resistance per crossbar cell pitch.
pub const TYPICAL_SEGMENT_RESISTANCE: Ohms = Ohms(2.5);

/// One bitline with explicit wire segments.
#[derive(Debug, Clone)]
pub struct ParasiticColumn {
    config: ResipeConfig,
    conductances: Vec<Siemens>,
    segment_resistance: Ohms,
}

/// Result of one parasitic computation-stage simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParasiticSample {
    /// The voltage sampled on `C_cog` at the end of the stage.
    pub v_out: Volts,
    /// The ideal (zero-wire-resistance) Eq. 2–3 value.
    pub v_ideal: Volts,
}

impl ParasiticSample {
    /// The relative IR-drop error `(v_ideal − v_out) / v_ideal`.
    pub fn relative_error(&self) -> f64 {
        if self.v_ideal.0 == 0.0 {
            0.0
        } else {
            (self.v_ideal.0 - self.v_out.0) / self.v_ideal.0
        }
    }
}

impl ParasiticColumn {
    /// Builds a column model. Cell index 0 sits farthest from the sense
    /// end (worst IR drop), the last cell adjacent to `C_cog`.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::InvalidConfig`] for an invalid engine
    /// configuration, an empty column, non-positive conductances, or a
    /// negative segment resistance.
    pub fn new(
        config: ResipeConfig,
        conductances: &[Siemens],
        segment_resistance: Ohms,
    ) -> Result<ParasiticColumn, ResipeError> {
        config.validate()?;
        if conductances.is_empty() {
            return Err(ResipeError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        for g in conductances {
            if !(g.0 > 0.0) || !g.0.is_finite() {
                return Err(ResipeError::InvalidConfig {
                    reason: format!("cell conductance must be positive, got {g}"),
                });
            }
        }
        if segment_resistance.0 < 0.0 || !segment_resistance.0.is_finite() {
            return Err(ResipeError::InvalidConfig {
                reason: format!(
                    "segment resistance must be non-negative, got {segment_resistance}"
                ),
            });
        }
        Ok(ParasiticColumn {
            config,
            conductances: conductances.to_vec(),
            segment_resistance,
        })
    }

    /// Simulates the Δt computation stage with the given held wordline
    /// voltages, returning the sampled `V(C_cog)` and the ideal value.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] for a length mismatch or
    /// propagated analog errors.
    pub fn compute(&self, v_in: &[Volts]) -> Result<ParasiticSample, ResipeError> {
        if v_in.len() != self.conductances.len() {
            return Err(ResipeError::DimensionMismatch {
                expected: self.conductances.len(),
                got: v_in.len(),
            });
        }

        // Build: held source -> cell resistor -> bitline tap; taps chained
        // by wire segments; C_cog at the last tap.
        let mut net = Netlist::new();
        let mut prev_tap: Option<Node> = None;
        let mut sense = Node::GROUND;
        for (i, (g, v)) in self.conductances.iter().zip(v_in).enumerate() {
            let held = net.node(&format!("held{i}"));
            net.voltage_source(Node::GROUND, held, *v);
            let tap = net.node(&format!("bl{i}"));
            net.resistor(held, tap, g.recip());
            if let Some(prev) = prev_tap {
                if self.segment_resistance.0 > 0.0 {
                    net.resistor(prev, tap, self.segment_resistance);
                } else {
                    // Zero wire resistance: model as a very small residual
                    // to keep the MNA system well posed.
                    net.resistor(prev, tap, Ohms(1e-3));
                }
            }
            prev_tap = Some(tap);
            sense = tap;
        }
        net.capacitor(sense, Node::GROUND, self.config.c_cog());

        // Integrate exactly the computation stage.
        let dt = self.config.dt();
        let cfg = TransientConfig::new(dt).with_step(Seconds(dt.0 / 2000.0));
        let result = Transient::new(&net, cfg)?.run()?;
        let v_out = result.final_voltage(sense)?;

        // The ideal value: the engine's computation stage on a one-column
        // matrix.
        let g: Vec<f64> = self.conductances.iter().map(|g| g.0).collect();
        let held: Vec<f64> = v_in.iter().map(|v| v.0).collect();
        let ideal = ResipeEngine::try_new(self.config)?.mvm_held_cm(&g, g.len(), 1, &held)?[0];
        Ok(ParasiticSample {
            v_out,
            v_ideal: Volts(ideal),
        })
    }

    /// Sweeps the wire segment resistance, returning the relative error
    /// at each point — the robustness curve for scaling the array.
    ///
    /// # Errors
    ///
    /// Propagates [`ParasiticColumn::compute`] errors.
    pub fn sweep_segment_resistance(
        config: ResipeConfig,
        conductances: &[Siemens],
        v_in: &[Volts],
        resistances: &[Ohms],
    ) -> Result<Vec<(Ohms, f64)>, ResipeError> {
        resistances
            .iter()
            .map(|&r| {
                let col = ParasiticColumn::new(config, conductances, r)?;
                let sample = col.compute(v_in)?;
                Ok((r, sample.relative_error()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(n: usize) -> (Vec<Siemens>, Vec<Volts>) {
        let g = (0..n)
            .map(|i| Siemens(5e-6 + 1e-6 * (i % 7) as f64))
            .collect();
        let v = (0..n)
            .map(|i| Volts(0.2 + 0.02 * (i % 30) as f64))
            .collect();
        (g, v)
    }

    #[test]
    fn zero_wire_resistance_matches_ideal() {
        let (g, v) = column(8);
        let col = ParasiticColumn::new(ResipeConfig::paper(), &g, Ohms(0.0)).unwrap();
        let s = col.compute(&v).unwrap();
        assert!(
            s.relative_error().abs() < 0.02,
            "error {} (v_out {}, ideal {})",
            s.relative_error(),
            s.v_out,
            s.v_ideal
        );
    }

    #[test]
    fn ir_drop_attenuates_output() {
        let (g, v) = column(32);
        let clean = ParasiticColumn::new(ResipeConfig::paper(), &g, Ohms(0.0))
            .unwrap()
            .compute(&v)
            .unwrap();
        let wired = ParasiticColumn::new(ResipeConfig::paper(), &g, Ohms(500.0))
            .unwrap()
            .compute(&v)
            .unwrap();
        assert!(
            wired.v_out.0 < clean.v_out.0,
            "wire {} vs clean {}",
            wired.v_out,
            clean.v_out
        );
        assert!(wired.relative_error() > 0.005);
    }

    #[test]
    fn error_grows_with_segment_resistance() {
        let (g, v) = column(16);
        let sweep = ParasiticColumn::sweep_segment_resistance(
            ResipeConfig::paper(),
            &g,
            &v,
            &[Ohms(0.0), Ohms(50.0), Ohms(500.0)],
        )
        .unwrap();
        assert_eq!(sweep.len(), 3);
        assert!(sweep[0].1 <= sweep[1].1 + 1e-3);
        assert!(sweep[1].1 < sweep[2].1);
    }

    #[test]
    fn typical_wire_resistance_is_negligible_at_32_cells() {
        // The paper's implicit assumption: at 32×32 and 65 nm wire pitch,
        // IR drop is a sub-percent effect.
        let (g, v) = column(32);
        let col =
            ParasiticColumn::new(ResipeConfig::paper(), &g, TYPICAL_SEGMENT_RESISTANCE).unwrap();
        let s = col.compute(&v).unwrap();
        assert!(
            s.relative_error().abs() < 0.03,
            "error {}",
            s.relative_error()
        );
    }

    #[test]
    fn validation_errors() {
        let cfg = ResipeConfig::paper();
        assert!(ParasiticColumn::new(cfg, &[], Ohms(1.0)).is_err());
        assert!(ParasiticColumn::new(cfg, &[Siemens(0.0)], Ohms(1.0)).is_err());
        assert!(ParasiticColumn::new(cfg, &[Siemens(1e-5)], Ohms(-1.0)).is_err());
        let col = ParasiticColumn::new(cfg, &[Siemens(1e-5); 2], Ohms(1.0)).unwrap();
        assert!(col.compute(&[Volts(0.5)]).is_err());
    }
}
