//! Netlist-level model of the single-spiking MAC (paper Fig. 2 / Fig. 3).
//!
//! This module rebuilds the ReSiPE datapath as an RC circuit on the
//! [`resipe_analog`] MNA transient simulator — the stand-in for the
//! paper's Cadence Virtuoso runs. It serves two purposes:
//!
//! * **validation** — the closed-form [`crate::engine::ResipeEngine`] is
//!   checked against this circuit (see the tests below and the
//!   `engine_vs_circuit` integration test);
//! * **Fig. 3 reproduction** — the `fig3` bench binary dumps the captured
//!   waveforms (S1 ramp + sample-and-hold, computation-stage `V(C_cog)`,
//!   S2 ramp/comparator crossing).
//!
//! The circuit timeline per the paper:
//!
//! | window | ramp (`C_gd`) | crossbar switches | `C_cog` |
//! |---|---|---|---|
//! | S1 `[0, T−Δt)` | charging | open | held reset (0 V) |
//! | comp `[T−Δt, T)` | discharged by `M_gd` | closed (held voltages drive column) | charging |
//! | S2 `[T, 2T)` | recharging from 0 | open | holds `V_out` |

use resipe_analog::netlist::{Netlist, Node, SwitchState};
use resipe_analog::transient::{SolverSession, SolverStats, StepView, Transient, TransientConfig};
use resipe_analog::units::{Joules, Ohms, Seconds, Siemens, Volts};
use resipe_analog::waveform::{Edge, Waveform};

use crate::config::ResipeConfig;
use crate::error::ResipeError;

/// On-resistance used for the ideal reset/discharge/compute switches.
const SWITCH_R_ON: Ohms = Ohms(10.0);
/// Off-resistance of the switches (effectively open).
const SWITCH_R_OFF: Ohms = Ohms(1e15);

/// An M-input single-spiking MAC rendered as an RC netlist.
#[derive(Debug, Clone)]
pub struct AnalogMac {
    config: ResipeConfig,
    conductances: Vec<Siemens>,
}

/// Waveforms and extracted quantities from one analog MAC run.
#[derive(Debug, Clone)]
pub struct AnalogMacResult {
    /// The output spike time, measured from the start of S2.
    pub t_out: Seconds,
    /// The bitline voltage held on `C_cog` at the end of the computation
    /// stage.
    pub v_out: Volts,
    /// `true` if the S2 ramp never crossed `V_out` within the slice.
    pub saturated: bool,
    /// The `V(C_gd)` ramp across both slices.
    pub ramp: Waveform,
    /// The `V(C_cog)` bitline voltage across both slices.
    pub cog: Waveform,
    /// The sample-and-hold outputs, one per input.
    pub held: Vec<Waveform>,
    /// Total energy delivered by all sources over the run.
    pub source_energy: Joules,
}

impl AnalogMac {
    /// Builds the circuit model for the given column conductances.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::InvalidConfig`] for an invalid engine
    /// configuration, non-positive conductances, or an empty column.
    pub fn new(config: ResipeConfig, conductances: &[Siemens]) -> Result<AnalogMac, ResipeError> {
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
        Ok(AnalogMac {
            config,
            conductances: conductances.to_vec(),
        })
    }

    /// Runs a full two-slice transient with the given input spike times and
    /// integration step.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::SpikeOutOfSlice`] for inputs outside the
    /// slice, [`ResipeError::DimensionMismatch`] for a count mismatch, or
    /// analog-substrate errors.
    pub fn run(&self, t_in: &[Seconds], step: Seconds) -> Result<AnalogMacResult, ResipeError> {
        self.run_with_session(t_in, step, &mut SolverSession::new())
    }

    /// Runs the full two-slice transient, reusing `session`'s cached
    /// sparse symbolic analysis when the column's topology matches the
    /// previous run — as [`AnalogMvm::run_with_session`] does for a whole
    /// crossbar. MACs with the same number of inputs share one analysis.
    ///
    /// # Errors
    ///
    /// Same as [`AnalogMac::run`].
    pub fn run_with_session(
        &self,
        t_in: &[Seconds],
        step: Seconds,
        session: &mut SolverSession,
    ) -> Result<AnalogMacResult, ResipeError> {
        if t_in.len() != self.conductances.len() {
            return Err(ResipeError::DimensionMismatch {
                expected: self.conductances.len(),
                got: t_in.len(),
            });
        }
        let slice = self.config.slice();
        for t in t_in {
            if t.0 < 0.0 || t.0 > slice.0 {
                return Err(ResipeError::SpikeOutOfSlice {
                    time: t.0,
                    slice: slice.0,
                });
            }
        }

        // ---- Build the netlist (Fig. 2). ----
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        net.voltage_source(Node::GROUND, vdd, self.config.vs());
        let ramp = net.node("ramp");
        net.resistor(vdd, ramp, self.config.r_gd());
        net.capacitor(ramp, Node::GROUND, self.config.c_gd());
        // M_gd: discharges the ramp during the computation stage.
        let ramp_discharge = net.switch(ramp, Node::GROUND, SWITCH_R_ON, SWITCH_R_OFF);

        let cog = net.node("cog");
        net.capacitor(cog, Node::GROUND, self.config.c_cog());
        // RST2: holds C_cog at 0 V outside the computation stage of S1.
        let cog_reset = net.switch(cog, Node::GROUND, SWITCH_R_ON, SWITCH_R_OFF);

        // Per input: an S/H output source, a compute switch, and the cell.
        let mut held_nodes = Vec::new();
        let mut held_sources = Vec::new();
        let mut compute_switches = Vec::new();
        for (i, g) in self.conductances.iter().enumerate() {
            let held = net.node(&format!("held{i}"));
            let src = net.voltage_source(Node::GROUND, held, Volts(0.0));
            let mid = net.node(&format!("wl{i}"));
            let sw = net.switch(held, mid, SWITCH_R_ON, SWITCH_R_OFF);
            net.resistor(mid, cog, g.recip());
            held_nodes.push(held);
            held_sources.push(src);
            compute_switches.push(sw);
        }

        self.run_inner(
            net,
            ramp,
            cog,
            held_nodes,
            held_sources,
            compute_switches,
            ramp_discharge,
            cog_reset,
            t_in,
            step,
            session,
        )
    }

    /// The actual transient run; separated so the controller closure can
    /// capture node/source handles cleanly.
    #[allow(clippy::too_many_arguments)]
    fn run_inner(
        &self,
        net: Netlist,
        ramp: Node,
        cog: Node,
        held_nodes: Vec<Node>,
        held_sources: Vec<resipe_analog::netlist::VSourceId>,
        compute_switches: Vec<resipe_analog::netlist::SwitchId>,
        ramp_discharge: resipe_analog::netlist::SwitchId,
        cog_reset: resipe_analog::netlist::SwitchId,
        t_in: &[Seconds],
        step: Seconds,
        session: &mut SolverSession,
    ) -> Result<AnalogMacResult, ResipeError> {
        let slice = self.config.slice();
        let comp_start = slice.0 - self.config.dt().0;
        let s2_start = slice.0;
        let total = Seconds(2.0 * slice.0);

        let spike_times: Vec<f64> = t_in.iter().map(|t| t.0).collect();
        let mut sampled = vec![false; spike_times.len()];
        let mut phase = 0u8; // 0 = S1, 1 = comp, 2 = S2
        let mut reset_applied = false;

        let controller = move |view: &StepView<'_>, net: &mut Netlist| -> bool {
            let t = view.time.0;
            let mut dirty = false;
            if !reset_applied {
                // Hold C_cog at 0 during S1.
                net.set_switch(cog_reset, SwitchState::Closed);
                reset_applied = true;
                dirty = true;
            }
            if phase == 0 {
                // Sample-and-hold each input at its spike arrival.
                for (i, (&ts, done)) in spike_times.iter().zip(sampled.iter_mut()).enumerate() {
                    if !*done && t >= ts {
                        net.set_voltage(held_sources[i], view.voltage(ramp));
                        *done = true;
                        dirty = true;
                    }
                }
                if t >= comp_start {
                    // Enter the computation stage: discharge the ramp,
                    // release C_cog, connect the held voltages.
                    net.set_switch(ramp_discharge, SwitchState::Closed);
                    net.set_switch(cog_reset, SwitchState::Open);
                    for &sw in &compute_switches {
                        net.set_switch(sw, SwitchState::Closed);
                    }
                    phase = 1;
                    dirty = true;
                }
            } else if phase == 1 && t >= s2_start {
                // Enter S2: recharge the ramp, isolate C_cog.
                net.set_switch(ramp_discharge, SwitchState::Open);
                for &sw in &compute_switches {
                    net.set_switch(sw, SwitchState::Open);
                }
                phase = 2;
                dirty = true;
            }
            dirty
        };

        let cfg = TransientConfig::new(total).with_step(step);
        let result = Transient::new(&net, cfg)?.run_with_session(controller, session)?;

        let ramp_wave = result.waveform(ramp)?.clone();
        let cog_wave = result.waveform(cog)?.clone();
        let held_waves: Vec<Waveform> = held_nodes
            .iter()
            .map(|&n| result.waveform(n).cloned())
            .collect::<Result<_, _>>()?;

        // V_out: the C_cog voltage at the start of S2 (end of computation).
        let v_out = cog_wave
            .sample(Seconds(s2_start))
            .map(|v| Volts(v.0))
            .unwrap_or(Volts(0.0));

        // Output spike: first S2 time where the ramp crosses V_out. If the
        // ramp already sits at/above the threshold when S2 begins (V_out ≈
        // 0 for silent columns), the comparator fires immediately.
        let crossing = ramp_wave.crossing(v_out, Edge::Rising, Seconds(s2_start + step.0));
        let ramp_at_s2 = ramp_wave
            .sample(Seconds(s2_start + 2.0 * step.0))
            .map(|v| v.0)
            .unwrap_or(0.0);
        let (t_out, saturated) = match crossing {
            Some(t) => (Seconds(t.0 - s2_start), false),
            None if ramp_at_s2 >= v_out.0 => (Seconds(0.0), false),
            None => (slice, true),
        };

        Ok(AnalogMacResult {
            t_out,
            v_out,
            saturated,
            ramp: ramp_wave,
            cog: cog_wave,
            held: held_waves,
            source_energy: result.total_source_energy(),
        })
    }
}

/// A full M×N single-spiking MVM rendered as one RC netlist: one shared
/// GD ramp and sample-and-hold bank driving N bitlines, each with its own
/// `C_cog` and comparator readout — the architecture of paper Fig. 4 at
/// netlist level.
///
/// Node count grows as `M + N + const` (plus `M·N` bitline-segment nodes
/// when [`AnalogMvm::with_wire_resistance`] is armed). The transient
/// solves every crossbar size on the sparse reusable-factorization path,
/// which is what makes the full 128×128 `engine_vs_circuit` oracle and
/// the `circuit_sweep` campaigns tractable; pass a [`SolverSession`] via
/// [`AnalogMvm::run_with_session`] to share one symbolic analysis across
/// a batch of structurally identical runs.
#[derive(Debug, Clone)]
pub struct AnalogMvm {
    config: ResipeConfig,
    /// Row-major effective conductances, `rows × cols`.
    conductances: Vec<Siemens>,
    rows: usize,
    cols: usize,
    min_rcond: Option<f64>,
    wire_resistance: Option<Ohms>,
}

/// Per-column results of one analog MVM run.
#[derive(Debug, Clone)]
pub struct AnalogMvmResult {
    /// One MAC-style result per bitline.
    pub columns: Vec<AnalogMacResult>,
    /// Total energy delivered by all sources over the run.
    pub source_energy: Joules,
    /// Linear-solver counters of the underlying transient (symbolic
    /// analyses, refactorizations, reused-factor solves).
    pub solver_stats: SolverStats,
}

impl AnalogMvm {
    /// Builds the crossbar circuit from a row-major conductance matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] for a shape mismatch or
    /// [`ResipeError::InvalidConfig`] for non-positive conductances.
    pub fn new(
        config: ResipeConfig,
        conductances: &[Siemens],
        rows: usize,
        cols: usize,
    ) -> Result<AnalogMvm, ResipeError> {
        config.validate()?;
        if conductances.len() != rows * cols || rows == 0 || cols == 0 {
            return Err(ResipeError::DimensionMismatch {
                expected: rows * cols,
                got: conductances.len(),
            });
        }
        for g in conductances {
            if !(g.0 > 0.0) || !g.0.is_finite() {
                return Err(ResipeError::InvalidConfig {
                    reason: format!("cell conductance must be positive, got {g}"),
                });
            }
        }
        Ok(AnalogMvm {
            config,
            conductances: conductances.to_vec(),
            rows,
            cols,
            min_rcond: None,
            wire_resistance: None,
        })
    }

    /// Arms the transient's condition gate: the run fails with an
    /// actionable error instead of silently losing precision if the MNA
    /// system's estimated reciprocal condition drops below `min_rcond`.
    /// See `TransientConfig::with_min_rcond` for threshold guidance.
    pub fn with_min_rcond(mut self, min_rcond: f64) -> AnalogMvm {
        self.min_rcond = Some(min_rcond);
        self
    }

    /// Models bitline wire resistance: each column becomes an RC ladder
    /// with `ohms` per cell-to-cell segment (sense amplifier at the far
    /// end, so row 0's cell current crosses `rows` segments). `None`
    /// (the default) keeps the ideal zero-resistance bitline and exactly
    /// the original netlist topology.
    ///
    /// This is the circuit-fidelity counterpart of
    /// [`crate::parasitics`]'s analytical IR-drop model and the knob the
    /// `circuit_sweep` campaign sweeps.
    pub fn with_wire_resistance(mut self, ohms: Ohms) -> AnalogMvm {
        self.wire_resistance = Some(ohms);
        self
    }

    /// Runs the full two-slice transient.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::SpikeOutOfSlice`] /
    /// [`ResipeError::DimensionMismatch`] for bad inputs, or analog
    /// errors.
    pub fn run(&self, t_in: &[Seconds], step: Seconds) -> Result<AnalogMvmResult, ResipeError> {
        self.run_with_session(t_in, step, &mut SolverSession::new())
    }

    /// Runs the full two-slice transient, reusing `session`'s cached
    /// sparse symbolic analysis when the crossbar topology matches the
    /// previous run — the batched-sweep entry point: a sweep over
    /// conductances, spike times, `Vth`, or wire resistance *values* pays
    /// for symbolic analysis once across the whole batch.
    ///
    /// # Errors
    ///
    /// Same as [`AnalogMvm::run`].
    pub fn run_with_session(
        &self,
        t_in: &[Seconds],
        step: Seconds,
        session: &mut SolverSession,
    ) -> Result<AnalogMvmResult, ResipeError> {
        let slice = self.config.slice();
        if t_in.len() != self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: self.rows,
                got: t_in.len(),
            });
        }
        for t in t_in {
            if t.0 < 0.0 || t.0 > slice.0 {
                return Err(ResipeError::SpikeOutOfSlice {
                    time: t.0,
                    slice: slice.0,
                });
            }
        }

        // Shared GD ramp.
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        net.voltage_source(Node::GROUND, vdd, self.config.vs());
        let ramp = net.node("ramp");
        net.resistor(vdd, ramp, self.config.r_gd());
        net.capacitor(ramp, Node::GROUND, self.config.c_gd());
        let ramp_discharge = net.switch(ramp, Node::GROUND, SWITCH_R_ON, SWITCH_R_OFF);

        // Bitlines.
        let mut cog_nodes = Vec::with_capacity(self.cols);
        let mut cog_resets = Vec::with_capacity(self.cols);
        for j in 0..self.cols {
            let cog = net.node(&format!("cog{j}"));
            net.capacitor(cog, Node::GROUND, self.config.c_cog());
            cog_resets.push(net.switch(cog, Node::GROUND, SWITCH_R_ON, SWITCH_R_OFF));
            cog_nodes.push(cog);
        }

        // Wordlines: one held source per row, fanning out through the
        // row's cells to every bitline. Each cell is modelled as a
        // two-state resistor (its 1T1R access transistor in series):
        // conducting at the cell resistance during the computation stage,
        // open otherwise — which is also what prevents bitline-to-bitline
        // sneak paths while `C_cog` holds its value through S2.
        // Optional bitline wire ladder: cell (i, j) taps column j's wire
        // at segment node `bl(i, j)`, and the sense end (`C_cog`) hangs
        // off the far end, so row 0's current crosses all `rows` wire
        // segments. Without wire resistance every cell taps the `cog`
        // node directly — exactly the original ideal topology.
        let cell_taps: Vec<Vec<Node>> = match self.wire_resistance {
            None => (0..self.rows).map(|_| cog_nodes.clone()).collect(),
            Some(r_seg) => {
                let mut taps = vec![Vec::with_capacity(self.cols); self.rows];
                for (j, &cog) in cog_nodes.iter().enumerate() {
                    let mut toward_sense = cog;
                    for i in (0..self.rows).rev() {
                        let bl = net.node(&format!("bl{i}_{j}"));
                        net.resistor(bl, toward_sense, r_seg);
                        taps[i].push(bl);
                        toward_sense = bl;
                    }
                }
                // The inner loop walked rows in reverse but columns in
                // order, so taps[i][j] is already correctly indexed.
                taps
            }
        };

        let mut held_sources = Vec::with_capacity(self.rows);
        let mut cell_switches = Vec::with_capacity(self.rows * self.cols);
        for (i, row_taps) in cell_taps.iter().enumerate() {
            let held = net.node(&format!("held{i}"));
            held_sources.push(net.voltage_source(Node::GROUND, held, Volts(0.0)));
            for (j, &tap) in row_taps.iter().enumerate() {
                let r_cell = self.conductances[i * self.cols + j].recip();
                cell_switches.push(net.switch(held, tap, r_cell, SWITCH_R_OFF));
            }
        }

        let comp_start = slice.0 - self.config.dt().0;
        let s2_start = slice.0;
        let spike_times: Vec<f64> = t_in.iter().map(|t| t.0).collect();
        let mut sampled = vec![false; spike_times.len()];
        let mut phase = 0u8;
        let mut reset_applied = false;
        let cog_resets_c = cog_resets.clone();
        let controller = move |view: &StepView<'_>, net: &mut Netlist| -> bool {
            let t = view.time.0;
            let mut dirty = false;
            if !reset_applied {
                for &r in &cog_resets_c {
                    net.set_switch(r, SwitchState::Closed);
                }
                reset_applied = true;
                dirty = true;
            }
            if phase == 0 {
                for (i, (&ts, done)) in spike_times.iter().zip(sampled.iter_mut()).enumerate() {
                    if !*done && t >= ts {
                        net.set_voltage(held_sources[i], view.voltage(ramp));
                        *done = true;
                        dirty = true;
                    }
                }
                if t >= comp_start {
                    net.set_switch(ramp_discharge, SwitchState::Closed);
                    for &r in &cog_resets_c {
                        net.set_switch(r, SwitchState::Open);
                    }
                    for &sw in &cell_switches {
                        net.set_switch(sw, SwitchState::Closed);
                    }
                    phase = 1;
                    dirty = true;
                }
            } else if phase == 1 && t >= s2_start {
                net.set_switch(ramp_discharge, SwitchState::Open);
                for &sw in &cell_switches {
                    net.set_switch(sw, SwitchState::Open);
                }
                phase = 2;
                dirty = true;
            }
            dirty
        };

        let mut cfg = TransientConfig::new(Seconds(2.0 * slice.0)).with_step(step);
        if let Some(r) = self.min_rcond {
            cfg = cfg.with_min_rcond(r);
        }
        let result = Transient::new(&net, cfg)?.run_with_session(controller, session)?;

        let ramp_wave = result.waveform(ramp)?;
        let ramp_at_s2 = ramp_wave
            .sample(Seconds(s2_start + 2.0 * step.0))
            .map(|v| v.0)
            .unwrap_or(0.0);
        let mut columns = Vec::with_capacity(self.cols);
        for &cog in &cog_nodes {
            let cog_wave = result.waveform(cog)?;
            let v_out = cog_wave
                .sample(Seconds(s2_start))
                .map(|v| Volts(v.0))
                .unwrap_or(Volts(0.0));
            let crossing = ramp_wave.crossing(v_out, Edge::Rising, Seconds(s2_start + step.0));
            let (t_out, saturated) = match crossing {
                Some(t) => (Seconds(t.0 - s2_start), false),
                None if ramp_at_s2 >= v_out.0 => (Seconds(0.0), false),
                None => (slice, true),
            };
            columns.push(AnalogMacResult {
                t_out,
                v_out,
                saturated,
                ramp: ramp_wave.clone(),
                cog: cog_wave.clone(),
                held: Vec::new(),
                source_energy: Joules(0.0),
            });
        }
        Ok(AnalogMvmResult {
            columns,
            source_energy: result.total_source_energy(),
            solver_stats: result.solver_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ResipeEngine;

    const STEP: Seconds = Seconds(20e-12);

    #[test]
    fn circuit_matches_engine_two_inputs() {
        let cfg = ResipeConfig::paper();
        let g = [Siemens(100e-6), Siemens(50e-6)];
        let t_in = [Seconds(20e-9), Seconds(50e-9)];
        let analog = AnalogMac::new(cfg, &g).unwrap().run(&t_in, STEP).unwrap();
        let engine = ResipeEngine::new(cfg).mac(&t_in, &g).unwrap();
        assert!(!analog.saturated);
        let dv = (analog.v_out.0 - engine.v_out.0).abs();
        assert!(
            dv < 5e-3,
            "v_out analog {} vs engine {}",
            analog.v_out,
            engine.v_out
        );
        let dt_rel = (analog.t_out.0 - engine.t_out.0).abs() / engine.t_out.0.max(1e-12);
        assert!(
            dt_rel < 0.02,
            "t_out analog {} ns vs engine {} ns",
            analog.t_out.as_nanos(),
            engine.t_out.as_nanos()
        );
    }

    #[test]
    fn ramp_discharges_during_computation() {
        let cfg = ResipeConfig::paper();
        let analog = AnalogMac::new(cfg, &[Siemens(1e-4)])
            .unwrap()
            .run(&[Seconds(30e-9)], STEP)
            .unwrap();
        // Just before the computation stage the ramp is near its S1 peak;
        // at the start of S2 it has been discharged to ~0.
        let near_peak = analog.ramp.sample(Seconds(98e-9)).unwrap().0;
        let at_s2 = analog.ramp.sample(Seconds(100.2e-9)).unwrap().0;
        assert!(near_peak > 0.9, "peak {near_peak}");
        assert!(at_s2 < 0.1, "discharged {at_s2}");
    }

    #[test]
    fn cog_holds_vout_through_s2() {
        let cfg = ResipeConfig::paper();
        let analog = AnalogMac::new(cfg, &[Siemens(2e-4)])
            .unwrap()
            .run(&[Seconds(40e-9)], STEP)
            .unwrap();
        let at_start = analog.cog.sample(Seconds(100.5e-9)).unwrap().0;
        let at_end = analog.cog.sample(Seconds(199e-9)).unwrap().0;
        assert!(at_start > 0.1, "charged to {at_start}");
        assert!(
            (at_end - at_start).abs() / at_start < 0.05,
            "held {at_start} -> {at_end}"
        );
    }

    #[test]
    fn held_sources_track_sample_times() {
        let cfg = ResipeConfig::paper();
        let analog = AnalogMac::new(cfg, &[Siemens(1e-4), Siemens(1e-4)])
            .unwrap()
            .run(&[Seconds(10e-9), Seconds(60e-9)], STEP)
            .unwrap();
        // Before its spike, a held source is 0; after, it equals the ramp
        // value at the spike time.
        let h0_before = analog.held[0].sample(Seconds(5e-9)).unwrap().0;
        let h0_after = analog.held[0].sample(Seconds(50e-9)).unwrap().0;
        assert!(h0_before.abs() < 1e-6);
        let expected = 1.0 - (-10e-9_f64 / 10e-9).exp(); // V(10 ns), τ = 10 ns
        assert!(
            (h0_after - expected).abs() < 0.01,
            "held {h0_after} vs {expected}"
        );
        let h1_after = analog.held[1].sample(Seconds(80e-9)).unwrap().0;
        let expected1 = 1.0 - (-60e-9_f64 / 10e-9).exp();
        assert!((h1_after - expected1).abs() < 0.01);
    }

    #[test]
    fn input_validation() {
        let cfg = ResipeConfig::paper();
        assert!(AnalogMac::new(cfg, &[]).is_err());
        assert!(AnalogMac::new(cfg, &[Siemens(0.0)]).is_err());
        let mac = AnalogMac::new(cfg, &[Siemens(1e-4)]).unwrap();
        assert!(mac.run(&[Seconds(200e-9)], STEP).is_err());
        assert!(mac.run(&[Seconds(1e-9), Seconds(2e-9)], STEP).is_err());
    }

    #[test]
    fn source_energy_is_positive() {
        let cfg = ResipeConfig::paper();
        let analog = AnalogMac::new(cfg, &[Siemens(1e-4)])
            .unwrap()
            .run(&[Seconds(30e-9)], STEP)
            .unwrap();
        assert!(analog.source_energy.0 > 0.0);
    }

    #[test]
    fn full_crossbar_matches_engine_per_column() {
        let cfg = ResipeConfig::paper();
        let (rows, cols) = (4, 3);
        let g: Vec<Siemens> = (0..rows * cols)
            .map(|i| Siemens(20e-6 + 10e-6 * (i % 5) as f64))
            .collect();
        let t_in = [
            Seconds(15e-9),
            Seconds(35e-9),
            Seconds(55e-9),
            Seconds(75e-9),
        ];
        let analog = AnalogMvm::new(cfg, &g, rows, cols)
            .unwrap()
            .run(&t_in, STEP)
            .unwrap();
        assert_eq!(analog.columns.len(), cols);
        let g_flat: Vec<f64> = g.iter().map(|g| g.0).collect();
        let engine = ResipeEngine::new(cfg)
            .mvm_matrix(&g_flat, rows, cols, &t_in)
            .unwrap();
        for (j, (a, e)) in analog.columns.iter().zip(&engine).enumerate() {
            let dv = (a.v_out.0 - e.v_out.0).abs();
            assert!(dv < 0.01, "col {j}: v_out {} vs {}", a.v_out, e.v_out);
            let rel = (a.t_out.0 - e.t_out.0).abs() / e.t_out.0.max(1e-10);
            assert!(
                rel < 0.05,
                "col {j}: t_out {} ns vs {} ns",
                a.t_out.as_nanos(),
                e.t_out.as_nanos()
            );
        }
        assert!(analog.source_energy.0 > 0.0);
    }

    #[test]
    fn crossbar_columns_are_isolated_in_s2() {
        // Two columns with very different conductances: each must hold its
        // own V_out through S2 (the 1T1R access gating blocks bitline-to-
        // bitline sneak paths).
        let cfg = ResipeConfig::paper();
        let g = [
            Siemens(200e-6),
            Siemens(5e-6),
            Siemens(200e-6),
            Siemens(5e-6),
        ]; // 2x2: col0 strong, col1 weak
        let analog = AnalogMvm::new(cfg, &g, 2, 2)
            .unwrap()
            .run(&[Seconds(60e-9), Seconds(60e-9)], STEP)
            .unwrap();
        let c0 = &analog.columns[0];
        let c1 = &analog.columns[1];
        assert!(
            c0.v_out.0 > 3.0 * c1.v_out.0,
            "{} vs {}",
            c0.v_out,
            c1.v_out
        );
        // Each cog holds through S2 within a few percent.
        for c in [c0, c1] {
            let start = c.cog.sample(Seconds(101e-9)).unwrap().0;
            let end = c.cog.sample(Seconds(199e-9)).unwrap().0;
            assert!(
                (end - start).abs() <= 0.05 * start.max(1e-3),
                "cog drift {start} -> {end}"
            );
        }
    }

    /// The sparse solver reproduces the per-column outputs and energy the
    /// dense LU solver produced for this 2×3 crossbar, recorded as
    /// `(v_out, t_out, saturated)` before dense LU stopped being a
    /// transient backend.
    #[test]
    fn forced_sparse_backend_matches_dense_mvm() {
        const DENSE_COLUMNS: [(f64, f64, bool); 3] = [
            (0.6160474853556773, 9.580933053677914e-9, false),
            (0.6973286081180629, 1.196202373598926e-8, false),
            (0.7574791048054246, 1.4179835237653075e-8, false),
        ];
        const DENSE_ENERGY: f64 = 4.076208339760988e-13;
        let cfg = ResipeConfig::paper();
        let g: Vec<Siemens> = (0..6).map(|i| Siemens(30e-6 + 15e-6 * i as f64)).collect();
        let t_in = [Seconds(20e-9), Seconds(45e-9)];
        let sparse = AnalogMvm::new(cfg, &g, 2, 3)
            .unwrap()
            .run(&t_in, STEP)
            .unwrap();
        assert_eq!(sparse.columns.len(), DENSE_COLUMNS.len());
        for (s, (v_out, t_out, saturated)) in sparse.columns.iter().zip(DENSE_COLUMNS) {
            assert!((s.v_out.0 - v_out).abs() < 1e-9);
            assert!((s.t_out.0 - t_out).abs() < 1e-15);
            assert_eq!(s.saturated, saturated);
        }
        assert!((sparse.source_energy.0 - DENSE_ENERGY).abs() < 1e-18);
    }

    #[test]
    fn session_shares_symbolic_analysis_across_mvm_runs() {
        let cfg = ResipeConfig::paper();
        let g = vec![Siemens(50e-6); 4];
        let mvm = AnalogMvm::new(cfg, &g, 2, 2).unwrap();
        let mut session = SolverSession::new();
        // Quantized spike times keep the sample-and-hold event count equal
        // across runs; only values differ.
        for t in [20e-9, 40e-9, 60e-9] {
            mvm.run_with_session(&[Seconds(t), Seconds(t)], STEP, &mut session)
                .unwrap();
        }
        let totals = session.stats();
        assert_eq!(totals.symbolic_analyses, 1, "{totals:?}");
        assert_eq!(totals.symbolic_reuses, 2, "{totals:?}");
        assert!(totals.numeric_refactors >= 2, "{totals:?}");
        assert!(totals.reused_factor_solves > totals.numeric_refactors * 100);
    }

    #[test]
    fn wire_resistance_causes_ir_drop() {
        let cfg = ResipeConfig::paper();
        // Strong cells so bitline current (and thus IR drop) is visible.
        let g = vec![Siemens(200e-6); 8 * 2];
        let t_in = vec![Seconds(20e-9); 8];
        let ideal = AnalogMvm::new(cfg, &g, 8, 2)
            .unwrap()
            .run(&t_in, STEP)
            .unwrap();
        let wired = AnalogMvm::new(cfg, &g, 8, 2)
            .unwrap()
            .with_wire_resistance(Ohms(50.0))
            .run(&t_in, STEP)
            .unwrap();
        for (i, (w, id)) in wired.columns.iter().zip(&ideal.columns).enumerate() {
            assert!(
                w.v_out.0 < id.v_out.0,
                "col {i}: wire {} should sit below ideal {}",
                w.v_out,
                id.v_out
            );
            // 50 Ω segments against 5 kΩ cells: a few percent, not a
            // collapse.
            assert!(
                w.v_out.0 > 0.8 * id.v_out.0,
                "col {i}: wire drop too large ({} vs {})",
                w.v_out,
                id.v_out
            );
        }
    }

    #[test]
    fn mvm_min_rcond_gate_passes_healthy_tile() {
        let cfg = ResipeConfig::paper();
        let g = vec![Siemens(50e-6); 4];
        let res = AnalogMvm::new(cfg, &g, 2, 2)
            .unwrap()
            .with_min_rcond(1e-20)
            .run(&[Seconds(20e-9), Seconds(40e-9)], STEP)
            .unwrap();
        let rc = res.solver_stats.min_rcond_seen.expect("gate armed");
        assert!(rc >= 1e-20, "healthy tile rcond {rc}");
    }

    #[test]
    fn analog_mvm_validation() {
        let cfg = ResipeConfig::paper();
        assert!(AnalogMvm::new(cfg, &[Siemens(1e-5); 3], 2, 2).is_err());
        assert!(AnalogMvm::new(cfg, &[Siemens(-1.0); 4], 2, 2).is_err());
        let mvm = AnalogMvm::new(cfg, &[Siemens(1e-5); 4], 2, 2).unwrap();
        assert!(mvm.run(&[Seconds(1e-9)], STEP).is_err());
        assert!(mvm.run(&[Seconds(1e-9), Seconds(200e-9)], STEP).is_err());
    }
}
