//! Unit checks of the Column Output Generator's equations as the engine
//! evaluates them: the Thevenin voltage and charge factor of a column
//! (Eqs. 2–3), the S2 spike (Eq. 4) and the inputs a MAC accepts.

mod tests {
    use resipe_analog::units::{Seconds, Siemens, Volts};

    use crate::config::ResipeConfig;
    use crate::engine::{charge_factor, charged_v_out, ramp_voltage, ResipeEngine};

    fn engine() -> ResipeEngine {
        ResipeEngine::new(ResipeConfig::paper())
    }

    fn dt_over_c() -> f64 {
        ResipeConfig::paper().gain().0
    }

    #[test]
    fn equal_inputs_give_v_eq() {
        // With a full charge the column reads its Thevenin voltage.
        let v_eq = charged_v_out(0.5 * 1e-4 + 0.5 * 1e-4, 2e-4, 1.0);
        assert!((v_eq - 0.5).abs() < 1e-12);
        // Equal inputs charge towards their common voltage, never past it.
        let e = engine();
        let t = Seconds(30e-9);
        let mac = e.mac(&[t, t], &[Siemens(1e-4); 2]).unwrap();
        let v_in = ramp_voltage(t.0, e.config().vs().0, e.config().tau_gd().0);
        assert!(mac.v_out.0 <= v_in);
        assert!((mac.v_out.0 - v_in * charge_factor(2e-4, dt_over_c())).abs() < 1e-15);
    }

    #[test]
    fn weighted_average() {
        let v_eq = charged_v_out(1.0 * 3e-4 + 0.0 * 1e-4, 4e-4, 1.0);
        assert!((v_eq - 0.75).abs() < 1e-12);
    }

    #[test]
    fn charge_exponent_matches_paper_magnitudes() {
        // ΣG = 1.6 mS, Δt = 1 ns, C_cog = 100 fF -> exponent 16 (well
        // saturated); ΣG = 0.32 mS -> exponent 3.2.
        assert!((dt_over_c() * 1.6e-3 - 16.0).abs() < 1e-9);
        assert!((dt_over_c() * 0.32e-3 - 3.2).abs() < 1e-9);
        let full = charge_factor(1.6e-3, dt_over_c());
        assert!((full - (1.0 - (-16.0f64).exp())).abs() < 1e-12);
        let partial = charge_factor(0.32e-3, dt_over_c());
        assert!((partial - (1.0 - (-3.2f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn larger_conductance_charges_closer_to_v_eq() {
        let weighted = |g: f64| 0.8 * g;
        let low = charged_v_out(weighted(1e-5), 1e-5, charge_factor(1e-5, dt_over_c()));
        let high = charged_v_out(weighted(1e-3), 1e-3, charge_factor(1e-3, dt_over_c()));
        assert!(high > low);
        assert!(high / 0.8 > 0.99);
    }

    #[test]
    fn zero_conductance_column_is_silent() {
        assert_eq!(charge_factor(0.0, dt_over_c()), 0.0);
        assert_eq!(
            charged_v_out(0.0, 0.0, charge_factor(0.0, dt_over_c())),
            0.0
        );
        let silent = engine().mac(&[Seconds(80e-9)], &[Siemens(0.0)]).unwrap();
        assert_eq!((silent.v_out, silent.t_out), (Volts(0.0), Seconds(0.0)));
    }

    #[test]
    fn dimension_checks() {
        let e = engine();
        assert!(e.mac(&[Seconds(1e-9)], &[]).is_err());
        assert!(e.mac(&[], &[]).is_err());
        assert!(e.mac(&[Seconds(1e-9)], &[Siemens(-1.0)]).is_err());
        assert!(e.mac(&[Seconds(1e-9)], &[Siemens(f64::INFINITY)]).is_err());
    }

    #[test]
    fn spike_for_normal_and_saturated() {
        let e = engine();
        let spike = e.spike_for_v_out(0.5);
        assert!(!spike.saturated);
        assert!(spike.t_out.0 > 0.0 && spike.t_out.0 < 100e-9);
        let spike = e.spike_for_v_out(1.5);
        assert!(spike.saturated);
        assert_eq!(spike.t_out, Seconds(100e-9));
    }
}
