//! Unit checks of the Global Decoder's equations as the engine evaluates
//! them: the S1 ramp (Eq. 1), its S2 inversion (Eq. 4) and the spike-time
//! range S1 accepts.

mod tests {
    use resipe_analog::units::{Seconds, Siemens};

    use crate::config::ResipeConfig;
    use crate::engine::{crossing_time, ramp_voltage, ResipeEngine};

    fn vs_tau() -> (f64, f64) {
        let cfg = ResipeConfig::paper();
        (cfg.vs().0, cfg.tau_gd().0)
    }

    #[test]
    fn ramp_starts_at_zero() {
        let (vs, tau) = vs_tau();
        assert_eq!(ramp_voltage(0.0, vs, tau), 0.0);
    }

    #[test]
    fn ramp_matches_exponential() {
        // τ = 10 ns; at t = 10 ns, V = V_s (1 − 1/e).
        let (vs, tau) = vs_tau();
        let v = ramp_voltage(10e-9, vs, tau);
        let expected = 1.0 - (-1.0f64).exp();
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn ramp_is_monotonic_and_bounded() {
        let (vs, tau) = vs_tau();
        let mut prev = -1.0;
        for i in 0..=100 {
            let v = ramp_voltage(i as f64 * 1e-9, vs, tau);
            assert!(v > prev, "monotonic at {i} ns");
            assert!(v < vs, "bounded by V_s at {i} ns");
            prev = v;
        }
    }

    #[test]
    fn crossing_inverts_ramp() {
        let (vs, tau) = vs_tau();
        for t_ns in [1.0, 5.0, 20.0, 50.0, 80.0] {
            let t = t_ns * 1e-9;
            let back = crossing_time(ramp_voltage(t, vs, tau), vs, tau);
            assert!((back - t).abs() < 1e-18, "t = {t_ns} ns");
        }
    }

    #[test]
    fn crossing_saturates_above_vs() {
        let e = ResipeEngine::new(ResipeConfig::paper());
        // At or above V_s the ramp never gets there; V(100 ns) =
        // 1 − e^(−10) ≈ 0.9999546, so 0.99996 is reached only after the
        // slice. All three clamp to the slice end.
        for v in [1.0, 1.5, 0.99996] {
            let out = e.spike_for_v_out(v);
            assert!(out.saturated, "V_out {v}");
            assert_eq!(out.t_out, e.config().slice());
        }
    }

    #[test]
    fn out_of_slice_rejected() {
        let e = ResipeEngine::new(ResipeConfig::paper());
        for t in [-1e-9, 101e-9, f64::NAN] {
            assert!(e.mac(&[Seconds(t)], &[Siemens(1e-4)]).is_err(), "t = {t}");
        }
    }
}
