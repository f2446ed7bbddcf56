//! The ReSiPE engine: the paper's equations and the single-spiking MAC
//! and MVM built from them.
//!
//! The engine is the Global Decoder (GD) that one crossbar shares plus
//! one Column Output Generator (COG) per bitline (Sec. III-C). Each
//! paper equation is one function here, and every module that evaluates
//! one calls it:
//!
//! * `ramp_fraction` and `ramp_voltage`: the GD ramp
//!   `V_s (1 − e^(−t/τ))`, `τ = R_gd C_gd`, sampled in S1 at each input
//!   spike's arrival (Eq. 1);
//! * `charge_factor` and `charged_v_out`: the bitline capacitor
//!   charged for Δt towards the Thevenin voltage
//!   `V_eq = Σ V_i G_i / Σ G_i` of the column (Eqs. 2–3),
//!   `V_out = V_eq (1 − e^(−(Δt/C_cog) Σ G))`;
//! * `crossing_time`: the S2 comparator firing where the re-ramped
//!   `V(C_gd)` crosses `V_out`, `t_out = −τ ln(1 − V_out/V_s)` (Eq. 4).
//!   S1 and S2 share the one ramp, which is what largely cancels its
//!   exponential non-linearity (Sec. III-D);
//! * `decode_constant`: the column constant `k = charge(ΣG) / ΣG`
//!   the digital decode divides a read-back voltage by.
//!
//! Each function takes its configuration scalars (`V_s`, `τ`,
//! `Δt/C_cog`) already hoisted, so a hot loop reads them once.
//!
//! [`ResipeEngine`] evaluates them exactly, which is what the silicon
//! produces and what all accuracy results use: [`ResipeEngine::mac`] is
//! one column of [`ResipeEngine::mvm_matrix`], and the voltage-domain
//! kernels behind the inference path run the same functions.
//! [`ResipeEngine::mac_linear`] / [`ResipeEngine::mvm_linear`] are the
//! **ideal** linear MAC of Eqs. 5–6, `t_out = (Δt/C_cog) Σ t_in G`, the
//! reference when quantifying non-linearity (Fig. 5).
//!
//! The exact path is validated against the MNA transient simulator in
//! [`crate::circuit`].

use serde::{Deserialize, Serialize};

use resipe_analog::units::{Seconds, Siemens, Volts};
use resipe_reram::crossbar::Crossbar;

use crate::config::ResipeConfig;
use crate::error::ResipeError;
use crate::spike::SpikeTime;

/// The fraction of `V_s` the GD ramp reaches `t` seconds into a slice,
/// `1 − e^(−t/τ)` (Eq. 1).
#[inline]
pub(crate) fn ramp_fraction(t: f64, tau: f64) -> f64 {
    1.0 - (-t / tau).exp()
}

/// The GD ramp voltage `t` seconds into a slice, `V_s (1 − e^(−t/τ))`:
/// the wordline voltage S1 holds for a spike arriving at `t` (Eq. 1).
#[inline]
pub(crate) fn ramp_voltage(t: f64, vs: f64, tau: f64) -> f64 {
    vs * ramp_fraction(t, tau)
}

/// The time the GD ramp reaches `v`, `−τ ln(1 − v/V_s)`: the S2
/// comparator crossing (Eq. 4), the inverse of [`ramp_voltage`]. It is
/// `+∞` at `v = V_s` and NaN above, so callers clamp `v` below `V_s`
/// first.
#[inline]
pub(crate) fn crossing_time(v: f64, vs: f64, tau: f64) -> f64 {
    -tau * (1.0 - v / vs).ln()
}

/// The COG charge factor `1 − e^(−(Δt/C_cog)·ΣG)` of a column with total
/// conductance `g_total` (Eq. 3): the part of `V_out` that does not
/// depend on the inputs. `dt_over_c` is [`ResipeConfig::gain`].
#[inline]
pub(crate) fn charge_factor(g_total: f64, dt_over_c: f64) -> f64 {
    1.0 - (-dt_over_c * g_total).exp()
}

/// The decode constant `k = charge(ΣG) / ΣG` of a column with total
/// conductance `g_total`: the column's `V_out` is `k · Σ V_i G_i`
/// (Eqs. 2–3), so a read-back voltage divided by `k` is the weighted
/// input sum.
#[inline]
pub(crate) fn decode_constant(g_total: f64, dt_over_c: f64) -> f64 {
    charge_factor(g_total, dt_over_c) / g_total
}

/// The sampled bitline voltage of one column (Eqs. 2–3): the Thevenin
/// voltage `weighted / g_total` times the column's [`charge_factor`]. A
/// column with no conductance does not charge.
#[inline]
pub(crate) fn charged_v_out(weighted: f64, g_total: f64, charge: f64) -> f64 {
    if g_total == 0.0 {
        0.0
    } else {
        (weighted / g_total) * charge
    }
}

/// The outcome of one single-spiking MAC (one bitline of one MVM).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MacResult {
    /// The output spike time within S2.
    pub t_out: Seconds,
    /// The sampled bitline voltage `V_out` that produced the spike.
    pub v_out: Volts,
    /// `true` if the GD ramp never reached `V_out` within the slice (the
    /// output clamped to the slice end).
    pub saturated: bool,
}

impl MacResult {
    /// The output as a [`SpikeTime`].
    pub fn spike(&self) -> SpikeTime {
        SpikeTime(self.t_out)
    }
}

/// A ReSiPE processing engine for a fixed circuit configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResipeEngine {
    config: ResipeConfig,
}

impl ResipeEngine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`ResipeEngine::try_new`] for fallible construction.
    pub fn new(config: ResipeConfig) -> ResipeEngine {
        ResipeEngine::try_new(config).expect("invalid ReSiPE configuration")
    }

    /// Creates an engine, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::InvalidConfig`] for invalid parameters.
    pub fn try_new(config: ResipeConfig) -> Result<ResipeEngine, ResipeError> {
        config.validate()?;
        Ok(ResipeEngine { config })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ResipeConfig {
        &self.config
    }

    fn check_times(&self, t_in: &[Seconds]) -> Result<(), ResipeError> {
        for t in t_in {
            if t.0 < 0.0 || t.0 > self.config.slice().0 || !t.0.is_finite() {
                return Err(ResipeError::SpikeOutOfSlice {
                    time: t.0,
                    slice: self.config.slice().0,
                });
            }
        }
        Ok(())
    }

    /// One exact single-spiking MAC: input spike times `t_in` through
    /// cell conductances `g`, producing the output spike time. The same
    /// arithmetic as one column of [`ResipeEngine::mvm_matrix`].
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] for mismatched or empty
    /// inputs, [`ResipeError::SpikeOutOfSlice`] for out-of-slice times, or
    /// [`ResipeError::InvalidConfig`] for a negative or non-finite
    /// conductance.
    pub fn mac(&self, t_in: &[Seconds], g: &[Siemens]) -> Result<MacResult, ResipeError> {
        if t_in.len() != g.len() || t_in.is_empty() {
            return Err(ResipeError::DimensionMismatch {
                expected: t_in.len().max(1),
                got: g.len(),
            });
        }
        self.check_times(t_in)?;
        if let Some(bad) = g.iter().find(|gi| gi.0 < 0.0 || !gi.0.is_finite()) {
            return Err(ResipeError::InvalidConfig {
                reason: format!("negative or non-finite conductance {bad}"),
            });
        }
        let g_col: Vec<f64> = g.iter().map(|gi| gi.0).collect();
        Ok(self.mvm_matrix(&g_col, g_col.len(), 1, t_in)?[0])
    }

    /// The ideal linear MAC of Eq. 5: `t_out = (Δt/C_cog) Σ t_in,i G_i`.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] for mismatched or empty
    /// inputs, or [`ResipeError::SpikeOutOfSlice`] for out-of-slice times.
    pub fn mac_linear(&self, t_in: &[Seconds], g: &[Siemens]) -> Result<Seconds, ResipeError> {
        if t_in.len() != g.len() || t_in.is_empty() {
            return Err(ResipeError::DimensionMismatch {
                expected: t_in.len().max(1),
                got: g.len(),
            });
        }
        self.check_times(t_in)?;
        let dot: f64 = t_in.iter().zip(g).map(|(t, gi)| t.0 * gi.0).sum();
        Ok(Seconds(self.config.gain().0 * dot))
    }

    /// One exact MVM over a programmed crossbar: every bitline's spike.
    ///
    /// The crossbar's effective conductances are gathered once into a
    /// column-major buffer, and every column then runs
    /// [`ResipeEngine::mac`] on its contiguous slice.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `t_in.len() == crossbar.rows()`.
    pub fn mvm(
        &self,
        crossbar: &Crossbar,
        t_in: &[Seconds],
    ) -> Result<Vec<MacResult>, ResipeError> {
        if t_in.len() != crossbar.rows() {
            return Err(ResipeError::DimensionMismatch {
                expected: crossbar.rows(),
                got: t_in.len(),
            });
        }
        let rows = crossbar.rows();
        let g_cols = crossbar.effective_column_major()?;
        (0..crossbar.cols())
            .map(|col| self.mac(t_in, &g_cols[col * rows..(col + 1) * rows]))
            .collect()
    }

    /// The ideal linear MVM of Eq. 6 over a crossbar.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResipeEngine::mvm`].
    pub fn mvm_linear(
        &self,
        crossbar: &Crossbar,
        t_in: &[Seconds],
    ) -> Result<Vec<Seconds>, ResipeError> {
        if t_in.len() != crossbar.rows() {
            return Err(ResipeError::DimensionMismatch {
                expected: crossbar.rows(),
                got: t_in.len(),
            });
        }
        let rows = crossbar.rows();
        let g_cols = crossbar.effective_column_major()?;
        (0..crossbar.cols())
            .map(|col| self.mac_linear(t_in, &g_cols[col * rows..(col + 1) * rows]))
            .collect()
    }

    /// Fast exact MVM over a raw conductance matrix (row-major
    /// `rows × cols`, effective conductances in siemens): the S1 samples
    /// are computed once and reused across all columns, exactly as the
    /// shared GD does in hardware.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] for shape mismatches or
    /// [`ResipeError::SpikeOutOfSlice`] for out-of-slice times.
    pub fn mvm_matrix(
        &self,
        g_matrix: &[f64],
        rows: usize,
        cols: usize,
        t_in: &[Seconds],
    ) -> Result<Vec<MacResult>, ResipeError> {
        check_shape(g_matrix.len(), rows, cols, t_in.len())?;
        self.check_times(t_in)?;
        let (vs, tau) = (self.config.vs().0, self.config.tau_gd().0);
        let v_in: Vec<f64> = t_in.iter().map(|t| ramp_voltage(t.0, vs, tau)).collect();
        let mut out = Vec::with_capacity(cols);
        for col in 0..cols {
            let mut g_total = 0.0;
            let mut weighted = 0.0;
            for row in 0..rows {
                let g = g_matrix[row * cols + col];
                g_total += g;
                weighted += v_in[row] * g;
            }
            out.push(self.spike_for_v_out(self.column_v_out(weighted, g_total)));
        }
        Ok(out)
    }

    /// The computation stage over a **column-major** conductance matrix,
    /// in the voltage domain: held S1 wordline voltages `v_in` (volts, in
    /// `[0, V_s)`) in, the sampled bitline voltage `V_out` of every column
    /// out (Eqs. 2–3). No output spike time is derived, since a caller
    /// that reads the voltage back from the spike (the S1/S2
    /// cancellation, see [`crate::mapping::VoltageCodec`]) never needs
    /// it. The inner loop reads both operands at unit stride and adds
    /// products in row order, the accumulation order of
    /// [`ResipeEngine::mvm_matrix`].
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] for shape mismatches.
    pub fn mvm_held_cm(
        &self,
        g_cols: &[f64],
        rows: usize,
        cols: usize,
        v_in: &[f64],
    ) -> Result<Vec<f64>, ResipeError> {
        check_shape(g_cols.len(), rows, cols, v_in.len())?;
        Ok((0..cols)
            .map(|col| {
                let g_col = &g_cols[col * rows..(col + 1) * rows];
                let mut g_total = 0.0;
                let mut weighted = 0.0;
                for (&g, &v) in g_col.iter().zip(v_in) {
                    g_total += g;
                    weighted += v * g;
                }
                self.column_v_out(weighted, g_total)
            })
            .collect())
    }

    /// The sampled bitline voltages of every one-hot probe of a row-major
    /// `rows × cols` conductance matrix: entry `p * cols + c` is column
    /// `c`'s `V_out` when wordline `p` spikes at `t_probe` and every other
    /// wordline at `t = 0` (held at 0 V).
    ///
    /// Bit-identical to `mvm_matrix(g_matrix, rows, cols, t_in)[c].v_out`
    /// for that one-hot `t_in`, at a fraction of the cost of `rows` such
    /// calls. In the kernel's row-order sums every silent wordline adds
    /// `0 V · g = +0.0`, which leaves the weighted sum exactly
    /// `v_probe · g[p][c]`, and the column total is the same sum for every
    /// `p`. So each column's total and COG charge factor are computed once,
    /// and each probe costs one multiply, one divide and one multiply: no
    /// `rows × rows` multiply-accumulate and no per-probe `exp` or `ln`.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] for a shape mismatch or
    /// [`ResipeError::SpikeOutOfSlice`] for an out-of-slice `t_probe`.
    pub(crate) fn one_hot_v_out(
        &self,
        g_matrix: &[f64],
        rows: usize,
        cols: usize,
        t_probe: Seconds,
    ) -> Result<Vec<f64>, ResipeError> {
        check_shape(g_matrix.len(), rows, cols, rows)?;
        self.check_times(&[t_probe])?;
        let v_probe = ramp_voltage(t_probe.0, self.config.vs().0, self.config.tau_gd().0);
        let mut g_total = vec![0.0; cols];
        for g_row in g_matrix.chunks_exact(cols.max(1)) {
            for (total, &g) in g_total.iter_mut().zip(g_row) {
                *total += g;
            }
        }
        let dt_over_c = self.config.gain().0;
        let charge: Vec<f64> = g_total
            .iter()
            .map(|&g| charge_factor(g, dt_over_c))
            .collect();
        let mut v_out = Vec::with_capacity(rows * cols);
        for g_row in g_matrix.chunks_exact(cols.max(1)) {
            for (c, &g) in g_row.iter().enumerate() {
                // `0.0 +` keeps the kernel's exact sum even for g = -0.0.
                let weighted = 0.0 + v_probe * g;
                v_out.push(charged_v_out(weighted, g_total[c], charge[c]));
            }
        }
        Ok(v_out)
    }

    /// The sampled bitline voltage of one column from its row-order sums.
    fn column_v_out(&self, weighted: f64, g_total: f64) -> f64 {
        let charge = charge_factor(g_total, self.config.gain().0);
        charged_v_out(weighted, g_total, charge)
    }

    /// The output spike of a sampled bitline voltage: the ramp crossing,
    /// clamped to the slice end when the ramp never reaches `v_out`.
    pub(crate) fn spike_for_v_out(&self, v_out: f64) -> MacResult {
        let vs = self.config.vs().0;
        let slice = self.config.slice().0;
        let (t_out, saturated) = if v_out >= vs {
            (slice, true)
        } else {
            let t = crossing_time(v_out, vs, self.config.tau_gd().0);
            if t > slice {
                (slice, true)
            } else {
                (t, false)
            }
        };
        MacResult {
            t_out: Seconds(t_out),
            v_out: Volts(v_out),
            saturated,
        }
    }
}

/// Rejects a conductance matrix that is not `rows × cols`, then an input
/// vector that is not `rows` long.
fn check_shape(g_len: usize, rows: usize, cols: usize, inputs: usize) -> Result<(), ResipeError> {
    if g_len != rows * cols {
        return Err(ResipeError::DimensionMismatch {
            expected: rows * cols,
            got: g_len,
        });
    }
    if inputs != rows {
        return Err(ResipeError::DimensionMismatch {
            expected: rows,
            got: inputs,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use resipe_reram::device::ResistanceWindow;

    fn engine() -> ResipeEngine {
        ResipeEngine::new(ResipeConfig::paper())
    }

    #[test]
    fn single_input_identity_like() {
        // With one input and a strongly-saturating conductance, V_out ≈
        // V_in, and the S1/S2 calibration cancellation makes t_out ≈ t_in.
        let e = engine();
        let t_in = Seconds(40e-9);
        let mac = e.mac(&[t_in], &[Siemens(1.6e-3)]).unwrap();
        assert!(!mac.saturated);
        assert!(
            (mac.t_out.0 - t_in.0).abs() < 0.5e-9,
            "t_out {} ns",
            mac.t_out.as_nanos()
        );
    }

    #[test]
    fn exact_tracks_linear_at_small_signals() {
        // Eq. 5 is the doubly-linearized limit: it needs BOTH RC stages in
        // their linear regions — t_in ≪ τ_gd = 10 ns AND
        // Δt·ΣG/C_cog ≪ 1 (ΣG ≪ 0.1 mS for the paper's values).
        let e = engine();
        let t_in = [Seconds(1e-9), Seconds(2e-9)];
        let g = [Siemens(4e-6), Siemens(6e-6)];
        let exact = e.mac(&t_in, &g).unwrap().t_out;
        let linear = e.mac_linear(&t_in, &g).unwrap();
        let rel = (exact.0 - linear.0).abs() / linear.0;
        assert!(rel < 0.2, "relative error {rel}");
    }

    #[test]
    fn exact_saturates_below_linear_at_high_conductance() {
        // The Fig. 5 effect: for ΣG > 1.6 mS the exact t_out falls below
        // the linear prediction; relative shortfall grows with ΣG.
        let e = engine();
        let t_in = [Seconds(60e-9); 2];
        let shortfall = |g_each: f64| {
            let g = [Siemens(g_each); 2];
            let exact = e.mac(&t_in, &g).unwrap().t_out.0;
            let linear = e.mac_linear(&t_in, &g).unwrap().0;
            (linear - exact) / linear
        };
        let low = shortfall(0.16e-3); // ΣG = 0.32 mS
        let high = shortfall(1.6e-3); // ΣG = 3.2 mS
        assert!(high > low, "shortfall {high} vs {low}");
    }

    #[test]
    fn monotonic_in_input_time() {
        let e = engine();
        let g = [Siemens(1e-4), Siemens(2e-4)];
        let mut prev = -1.0;
        for t_ns in [0.0, 10.0, 20.0, 40.0, 60.0, 80.0] {
            let mac = e.mac(&[Seconds(t_ns * 1e-9), Seconds(30e-9)], &g).unwrap();
            assert!(mac.t_out.0 > prev, "monotonic at t={t_ns} ns");
            prev = mac.t_out.0;
        }
    }

    #[test]
    fn zero_inputs_fire_at_zero() {
        let e = engine();
        let mac = e
            .mac(&[Seconds(0.0), Seconds(0.0)], &[Siemens(1e-4); 2])
            .unwrap();
        assert!(mac.t_out.0.abs() < 1e-15);
        assert_eq!(mac.v_out, Volts(0.0));
    }

    #[test]
    fn mvm_matches_per_column_mac() {
        let e = engine();
        let mut xb = Crossbar::new(4, 3, ResistanceWindow::WIDE);
        for r in 0..4 {
            for c in 0..3 {
                xb.program_fraction(r, c, ((r + c) as f64 / 6.0).min(1.0))
                    .unwrap();
            }
        }
        let t_in: Vec<Seconds> = (0..4).map(|i| Seconds(10e-9 * (i + 1) as f64)).collect();
        let mvm = e.mvm(&xb, &t_in).unwrap();
        assert_eq!(mvm.len(), 3);
        for (col, result) in mvm.iter().enumerate() {
            let g = xb.column_conductances(col).unwrap();
            let mac = e.mac(&t_in, &g).unwrap();
            assert_eq!(mac.t_out, result.t_out, "column {col}");
        }
    }

    #[test]
    fn mvm_matrix_matches_mvm() {
        let e = engine();
        let mut xb = resipe_reram::Crossbar::with_access_resistance(
            3,
            2,
            ResistanceWindow::WIDE,
            resipe_analog::units::Ohms(1e3),
        );
        xb.program_matrix(&[0.1, 0.9, 0.5, 0.3, 1.0, 0.0]).unwrap();
        let t_in = [Seconds(10e-9), Seconds(40e-9), Seconds(70e-9)];
        let via_crossbar = e.mvm(&xb, &t_in).unwrap();
        // Flatten effective conductances row-major.
        let mut g_flat = vec![0.0; 6];
        for r in 0..3 {
            for c in 0..2 {
                g_flat[r * 2 + c] = xb.effective_conductance(r, c).unwrap().0;
            }
        }
        let via_matrix = e.mvm_matrix(&g_flat, 3, 2, &t_in).unwrap();
        for (a, b) in via_crossbar.iter().zip(&via_matrix) {
            assert_eq!(a.t_out.0.to_bits(), b.t_out.0.to_bits());
            assert_eq!(a.v_out.0.to_bits(), b.v_out.0.to_bits());
            assert_eq!(a.saturated, b.saturated);
        }
    }

    #[test]
    fn mvm_held_cm_is_bit_identical_to_mvm_matrix() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let e = engine();
        let (vs, tau) = (e.config().vs().0, e.config().tau_gd().0);
        let mut rng = StdRng::seed_from_u64(23);
        for &(rows, cols) in &[(1usize, 1usize), (3, 2), (32, 7), (17, 33)] {
            let g_rm: Vec<f64> = (0..rows * cols)
                .map(|_| rng.gen_range(1e-6..20e-6))
                .collect();
            let mut g_cm = vec![0.0; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    g_cm[c * rows + r] = g_rm[r * cols + c];
                }
            }
            let t_in: Vec<Seconds> = (0..rows)
                .map(|_| Seconds(rng.gen_range(0.0..80e-9)))
                .collect();
            let v_in: Vec<f64> = t_in.iter().map(|t| ramp_voltage(t.0, vs, tau)).collect();
            let rm = e.mvm_matrix(&g_rm, rows, cols, &t_in).unwrap();
            let cm = e.mvm_held_cm(&g_cm, rows, cols, &v_in).unwrap();
            for (a, b) in rm.iter().zip(&cm) {
                assert_eq!(a.v_out.0.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn one_hot_v_out_is_bit_identical_to_mvm_matrix() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let e = engine();
        let mut rng = StdRng::seed_from_u64(29);
        for &(rows, cols) in &[(1usize, 1usize), (3, 2), (32, 7), (64, 19)] {
            // Zero cells and one all-zero column exercise the g_total = 0
            // branch and the zero products.
            let g: Vec<f64> = (0..rows * cols)
                .map(|i| {
                    if i % cols == cols - 1 || rng.gen_range(0.0..1.0) < 0.1 {
                        0.0
                    } else {
                        rng.gen_range(1e-6..20e-6)
                    }
                })
                .collect();
            let t_probe = Seconds(rng.gen_range(0.0..80e-9));
            let one_hot = e.one_hot_v_out(&g, rows, cols, t_probe).unwrap();
            let mut t_in = vec![Seconds(0.0); rows];
            for p in 0..rows {
                t_in[p] = t_probe;
                let full = e.mvm_matrix(&g, rows, cols, &t_in).unwrap();
                for (c, mac) in full.iter().enumerate() {
                    assert_eq!(one_hot[p * cols + c].to_bits(), mac.v_out.0.to_bits());
                }
                t_in[p] = Seconds(0.0);
            }
        }
        assert!(e.one_hot_v_out(&[1e-4; 3], 2, 2, Seconds(1e-9)).is_err());
        assert!(e.one_hot_v_out(&[1e-4; 4], 2, 2, Seconds(-1e-9)).is_err());
    }

    #[test]
    fn one_hot_v_out_golden_bits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0e4);
        let (rows, cols) = (12, 5);
        let g: Vec<f64> = (0..rows * cols)
            .map(|_| rng.gen_range(1e-6..120e-6))
            .collect();
        let v_out = engine()
            .one_hot_v_out(&g, rows, cols, Seconds(63e-9))
            .unwrap();
        // FNV-1a over the output bits, recorded from the per-site
        // equations the engine's shared ones replaced.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in v_out {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x6407_7250_AB1A_942D);
    }

    #[test]
    fn dimension_and_range_validation() {
        let e = engine();
        assert!(e.mac(&[Seconds(1e-9)], &[]).is_err());
        assert!(e.mac(&[], &[]).is_err());
        assert!(e.mac(&[Seconds(200e-9)], &[Siemens(1e-4)]).is_err());
        assert!(e.mac(&[Seconds(-1e-9)], &[Siemens(1e-4)]).is_err());
        let mismatch =
            |expected: usize, got: usize| ResipeError::DimensionMismatch { expected, got };
        // A short input vector reports the row count it needed…
        assert_eq!(
            e.mvm_matrix(&[1e-4; 4], 2, 2, &[Seconds(1e-9)])
                .unwrap_err(),
            mismatch(2, 1)
        );
        assert_eq!(
            e.mvm_held_cm(&[1e-4; 4], 2, 2, &[0.5]).unwrap_err(),
            mismatch(2, 1)
        );
        // …and a short matrix the element count it needed.
        assert_eq!(
            e.mvm_matrix(&[1e-4; 3], 2, 2, &[Seconds(1e-9); 2])
                .unwrap_err(),
            mismatch(4, 3)
        );
        assert_eq!(
            e.mvm_held_cm(&[1e-4; 3], 2, 2, &[0.5; 2]).unwrap_err(),
            mismatch(4, 3)
        );
    }

    #[test]
    fn linear_gain_is_dt_over_ccog() {
        let e = engine();
        // t_out = 10 kΩ · (20 ns · 50 µS) = 10e3 · 1e-12 = 10 ns.
        let t = e.mac_linear(&[Seconds(20e-9)], &[Siemens(50e-6)]).unwrap();
        assert!((t.as_nanos() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn saturation_flag_set_when_ramp_cannot_reach() {
        // Force a huge V_out by using a tiny C_cog (strong charging) and
        // late arrivals -> V_out near V_s, crossing after slice end.
        let cfg = ResipeConfig::paper();
        let e = ResipeEngine::new(cfg);
        let mac = e.mac(&[Seconds(99e-9)], &[Siemens(3.2e-3)]).unwrap();
        // V(99 ns) = 1 − e^(−9.9) ≈ 0.99995; crossing needs t ≈ 99 ns,
        // still within slice — not saturated.
        assert!(!mac.saturated);
        // But a config with t_max == slice and input at the very end plus
        // full charge can clamp:
        let e2 = ResipeEngine::new(
            ResipeConfig::paper()
                .with_slice(Seconds(50e-9))
                .with_t_max(Seconds(50e-9)),
        );
        let mac2 = e2.mac(&[Seconds(50e-9)], &[Siemens(3.2e-3)]).unwrap();
        // The charging factor (1 − e^−32) ≈ 1, so V_out ≈ V_in and the
        // crossing is at ≈ 50 ns = slice end; allow either flag but the
        // clamp must hold.
        assert!(mac2.t_out.0 <= 50e-9 + 1e-15);
    }

    #[test]
    fn try_new_rejects_bad_config() {
        let bad = ResipeConfig::paper().with_dt(Seconds(1e-6));
        assert!(ResipeEngine::try_new(bad).is_err());
    }
}
