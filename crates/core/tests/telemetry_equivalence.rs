//! The telemetry observability contract, end to end.
//!
//! Recording must be a pure observer: enabling telemetry must not change
//! a single output bit on either execution path, the unified
//! [`HardwareNetwork::run`] API must be bit-identical to the legacy
//! `forward`/`forward_batch` wrappers, and the counters it reports must
//! agree exactly with the network's static `dense_mvms_per_sample` /
//! `crossbar_layer_count` figures. Invalid [`CompileOptions`] must fail
//! with [`ResipeError::InvalidOptions`] instead of panicking.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use resipe::inference::{CompileOptions, FaultInjection, HardwareNetwork, RunOptions};
use resipe::mapping::TileMapper;
use resipe::power::EnergyModel;
use resipe::telemetry::Telemetry;
use resipe::ResipeError;
use resipe_analog::units::Seconds;
use resipe_nn::data::synth_digits;
use resipe_nn::layers::{im2col, Conv2d, Dense};
use resipe_nn::models;
use resipe_nn::network::Network;
use resipe_nn::tensor::Tensor;
use resipe_nn::train::{Sgd, TrainConfig};
use resipe_reram::variation::VariationModel;

fn assert_bit_identical(a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape());
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "element {i}: {x:e} vs {y:e} differ in bits"
        );
    }
}

fn trained_mlp() -> (Network, Tensor, Tensor) {
    let train = synth_digits(120, 1).unwrap();
    let mut net = models::mlp1(7).unwrap();
    Sgd::new(TrainConfig::new(2).with_learning_rate(0.1))
        .fit(&mut net, &train)
        .unwrap();
    let (calib, _) = train.batch(&(0..16).collect::<Vec<_>>()).unwrap();
    let (x, _) = train.batch(&(0..12).collect::<Vec<_>>()).unwrap();
    (net, calib, x)
}

/// The full non-ideality chain, so the equivalence claims cover the
/// repair ladder, comparator offsets and quantization — not just the
/// clean path.
fn nonideal_options() -> CompileOptions {
    CompileOptions::paper()
        .with_mapper(TileMapper::paper().with_spare_cols(2))
        .with_variation(VariationModel::device_to_device(0.15).unwrap())
        .with_seed(42)
        .with_faults(FaultInjection::clustered(0.01, 4, 17))
        .with_repair(resipe::repair::RepairPolicy::full())
        .with_comparator_sigma(0.01)
        .with_time_quantization(Seconds(1e-9))
}

#[test]
fn enabled_telemetry_is_bit_identical_to_disabled() {
    let (net, calib, x) = trained_mlp();
    let opts = nonideal_options();
    let plain = HardwareNetwork::compile(&net, &calib, &opts).unwrap();
    let traced =
        HardwareNetwork::compile_with_telemetry(&net, &calib, &opts, Telemetry::enabled()).unwrap();
    assert!(!plain.telemetry().is_enabled());
    assert!(traced.telemetry().is_enabled());
    // Same compile seed, telemetry never feeds the RNG: outputs must not
    // differ in a single bit, on either execution path.
    assert_bit_identical(&plain.forward(&x).unwrap(), &traced.forward(&x).unwrap());
    assert_bit_identical(
        &plain.forward_batch(&x).unwrap(),
        &traced.forward_batch(&x).unwrap(),
    );
}

#[test]
fn run_matches_legacy_wrappers_bit_identically() {
    let (net, calib, x) = trained_mlp();
    let hw = HardwareNetwork::compile_with_telemetry(
        &net,
        &calib,
        &nonideal_options(),
        Telemetry::enabled(),
    )
    .unwrap();
    let seq = hw.run(&x, &RunOptions::per_sample()).unwrap();
    let bat = hw.run(&x, &RunOptions::planned()).unwrap();
    assert_bit_identical(&seq.outputs, &hw.forward(&x).unwrap());
    assert_bit_identical(&bat.outputs, &hw.forward_batch(&x).unwrap());
    // And the two modes agree with each other (the PR 2 contract).
    assert_bit_identical(&seq.outputs, &bat.outputs);
}

#[test]
fn sequential_and_planned_report_identical_counters() {
    let (net, calib, x) = trained_mlp();
    let samples = x.shape()[0] as u64;
    let opts = nonideal_options();

    let hw = HardwareNetwork::compile(&net, &calib, &opts).unwrap();
    let mut seq_hw = hw.clone();
    seq_hw.set_telemetry(Telemetry::enabled());
    let seq = seq_hw.run(&x, &RunOptions::per_sample()).unwrap().telemetry;

    let mut bat_hw = hw.clone();
    bat_hw.set_telemetry(Telemetry::enabled());
    let bat = bat_hw.run(&x, &RunOptions::planned()).unwrap().telemetry;

    let expected_mvms = samples * hw.dense_mvms_per_sample() as u64;
    assert_eq!(seq.counters.mvms, expected_mvms);
    assert_eq!(bat.counters.mvms, expected_mvms);
    assert_eq!(seq.layers.len(), hw.crossbar_layer_count());
    assert_eq!(bat.layers.len(), hw.crossbar_layer_count());
    for (s, b) in seq.layers.iter().zip(&bat.layers) {
        assert_eq!(s.layer, b.layer);
        assert_eq!(s.calls, samples, "layer {} calls", s.layer);
        assert_eq!(s.mvms, b.mvms, "layer {} MVM totals", s.layer);
    }
    // Per-layer MVMs sum to the global counter on both paths.
    let sum: u64 = seq.layers.iter().map(|l| l.mvms).sum();
    assert_eq!(sum, expected_mvms);
    // The planned path also populates the spike-time / saturation
    // histograms: one decode per differential column pair per tile.
    assert!(bat.t_out.total() > 0, "t_out histogram must be populated");
    assert_eq!(bat.t_out.total(), bat.v_out.total());
    // The telemetry MVM counter tracks the hardware counter exactly, and
    // the per-stage energy attribution is the MVM count times the
    // per-MVM energy, regrouped: the stage split is the component split
    // (crossbar stage = crossbar component, same totals), so the two
    // agree up to rounding only.
    assert_eq!(bat.counters.mvms, bat_hw.mvm_count());
    let model = EnergyModel::paper();
    let (stages, parts) = (model.stage_energy(), model.mvm_energy());
    assert_rel_eq(stages.crossbar.0, parts.crossbar.0, "crossbar stage");
    assert_rel_eq(stages.total().0, parts.total().0, "stage total");
    let attributed = bat.attributed_energy(&model).total().0;
    let measured = bat_hw.mvm_count() as f64 * parts.total().0;
    assert!(measured > 0.0);
    assert_rel_eq(attributed, measured, "attributed vs measured");
}

/// `got` equals `want` to 1e-12 relative: the same joules summed in a
/// different order, with no room for a misattributed stage.
fn assert_rel_eq(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-12 * want.abs(),
        "{what}: {got:e} J vs {want:e} J"
    );
}

#[test]
fn run_snapshot_carries_spans_and_compile_counters() {
    let (net, calib, x) = trained_mlp();
    let telemetry = Telemetry::enabled();
    let hw = HardwareNetwork::compile_with_telemetry(
        &net,
        &calib,
        &nonideal_options(),
        telemetry.clone(),
    )
    .unwrap();
    let snap = hw.run(&x, &RunOptions::planned()).unwrap().telemetry;
    assert!(snap.enabled);
    assert!(snap.span("compile").is_some(), "compile span missing");
    assert!(snap.span("forward").is_some(), "forward span missing");
    assert!(
        snap.spans
            .iter()
            .any(|s| s.path.starts_with("forward/layer") && s.path.ends_with("/crossbar")),
        "per-stage forward span missing"
    );
    assert!(
        snap.spans.iter().any(|s| s.path.ends_with("/repair")),
        "repair spans missing under compile"
    );
    assert!(
        snap.counters.repair_pulses > 0,
        "faulty compile must record repair pulses"
    );
    let (s1, xb, s2) = snap.stage_nanos();
    assert!(s1 > 0 && xb > 0 && s2 > 0, "stage timings must be nonzero");
}

/// The planned path encodes each conv input pixel once and gathers held
/// voltages into every window that reads it; its counters must still be
/// the per-window figures: one call per output pixel, the per-sample
/// run's MVMs, and one zero-activation skip per window wordline held at
/// 0 V — the zero entries of im2col's windows, padding included — with
/// the encode timed into S1.
#[test]
fn planned_conv_counters_are_per_window() {
    let (c_in, k, padding) = (2usize, 3usize, 1usize);
    let (n, h, w) = (3usize, 5usize, 6usize);
    let mut rng = StdRng::seed_from_u64(27);
    let mut net = Network::new("conv-counters");
    net.push(Conv2d::new(c_in, 4, k, padding, &mut rng));
    let mut input = |batch: usize| {
        let data = (0..batch * c_in * h * w)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.35 {
                    0.0
                } else {
                    rng.gen_range(0.2..1.0f32)
                }
            })
            .collect();
        Tensor::from_vec(data, &[batch, c_in, h, w]).unwrap()
    };
    let calib = input(2);
    let x = input(n);
    let hw = HardwareNetwork::compile(&net, &calib, &CompileOptions::paper()).unwrap();
    let run = |options: &RunOptions| {
        let mut traced = hw.clone();
        traced.set_telemetry(Telemetry::enabled());
        traced.run(&x, options).unwrap().telemetry.layers[0]
    };
    let planned = run(&RunOptions::planned().with_block_size(7));
    let per_sample = run(&RunOptions::per_sample());

    let n_pix = h * w; // padding 1 keeps a 3 × 3 conv's output size
    assert_eq!(planned.calls, (n * n_pix) as u64);
    assert_eq!(planned.mvms, per_sample.mvms);
    let window_zeros: usize = (0..n)
        .map(|b| {
            let cols = im2col(&x, b, k, padding).unwrap();
            assert_eq!(cols.shape(), &[c_in * k * k, n_pix]);
            cols.data().iter().filter(|&&v| v == 0.0).count()
        })
        .sum();
    let pixel_zeros = x.data().iter().filter(|&&v| v == 0.0).count();
    assert_ne!(window_zeros, pixel_zeros);
    assert_eq!(planned.zero_activation_skips, window_zeros as u64);
    assert!(
        planned.s1_encode_nanos > 0,
        "the encode must be timed into S1"
    );
}

#[test]
fn reset_clears_the_sink_between_runs() {
    let (net, calib, x) = trained_mlp();
    let telemetry = Telemetry::enabled();
    let hw = HardwareNetwork::compile_with_telemetry(
        &net,
        &calib,
        &CompileOptions::paper(),
        telemetry.clone(),
    )
    .unwrap();
    hw.run(&x, &RunOptions::planned()).unwrap();
    telemetry.reset();
    let snap = hw.run(&x, &RunOptions::planned()).unwrap().telemetry;
    let samples = x.shape()[0] as u64;
    assert_eq!(
        snap.counters.mvms,
        samples * hw.dense_mvms_per_sample() as u64,
        "reset must zero the counters, not accumulate across runs"
    );
    assert!(snap.span("compile").is_none(), "reset must drop old spans");
}

#[test]
fn invalid_options_fail_without_panicking() {
    let cases: Vec<(&str, CompileOptions)> = vec![
        (
            "negative fault rate",
            CompileOptions::paper().with_faults(FaultInjection::clustered(-0.5, 4, 1)),
        ),
        (
            "fault rate above one",
            CompileOptions::paper().with_faults(FaultInjection::clustered(1.5, 4, 1)),
        ),
        (
            "zero fault cluster",
            CompileOptions::paper().with_faults(FaultInjection::clustered(0.01, 0, 1)),
        ),
        (
            "drift without elapsed time",
            CompileOptions::paper().with_faults(FaultInjection::clustered(0.01, 4, 1).with_drift(
                resipe_reram::faults::RetentionDrift::new(Seconds(3600.0)).unwrap(),
                Seconds(0.0),
            )),
        ),
        (
            "negative comparator sigma",
            CompileOptions::paper().with_comparator_sigma(-0.1),
        ),
        (
            "NaN comparator sigma",
            CompileOptions::paper().with_comparator_sigma(f64::NAN),
        ),
        (
            "zero time quantization",
            CompileOptions::paper().with_time_quantization(Seconds(0.0)),
        ),
    ];
    // (A zero-row tile mapper is unconstructible through the public API:
    // `TileMapper::try_with_max_rows(0)` already fails with the same
    // error — covered in `mapping`'s unit tests.)
    let (net, calib, _) = trained_mlp();
    for (what, opts) in cases {
        let err = opts.build().expect_err(what);
        assert!(
            matches!(err, ResipeError::InvalidOptions { .. }),
            "{what}: expected InvalidOptions, got {err:?}"
        );
        // compile() performs the same validation up front.
        let err = HardwareNetwork::compile(&net, &calib, &opts).expect_err(what);
        assert!(matches!(err, ResipeError::InvalidOptions { .. }), "{what}");
    }
}

#[test]
fn build_accepts_valid_options() {
    nonideal_options().build().expect("valid options must pass");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For arbitrary small dense networks and batch sizes, the telemetry
    /// counters pin exactly to the static MVM arithmetic — and enabling
    /// them never perturbs the outputs.
    #[test]
    fn telemetry_counters_pin_to_static_figures(
        in_features in 1usize..40,
        out_features in 1usize..6,
        batch in 1usize..7,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new("prop");
        net.push(Dense::new(in_features, out_features, &mut rng));
        let calib = Tensor::from_vec(
            (0..2 * in_features).map(|_| rng.gen_range(0.0..1.0f32)).collect(),
            &[2, in_features],
        ).expect("shape");
        let x = Tensor::from_vec(
            (0..batch * in_features).map(|_| rng.gen_range(0.0..1.0f32)).collect(),
            &[batch, in_features],
        ).expect("shape");
        let opts = CompileOptions::paper();
        let plain = HardwareNetwork::compile(&net, &calib, &opts).expect("compile");
        let traced = HardwareNetwork::compile_with_telemetry(
            &net, &calib, &opts, Telemetry::enabled(),
        ).expect("compile");

        let expected = (batch * plain.dense_mvms_per_sample()) as u64;
        for mode in [RunOptions::per_sample(), RunOptions::planned()] {
            let p = plain.run(&x, &mode).expect("plain run");
            let t = traced.run(&x, &mode).expect("traced run");
            for (a, b) in p.outputs.data().iter().zip(t.outputs.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert!(!p.telemetry.enabled);
            prop_assert_eq!(t.telemetry.counters.mvms, expected);
            prop_assert_eq!(t.telemetry.layers.len(), traced.crossbar_layer_count());
            let span = t.telemetry.span("forward").expect("forward span");
            prop_assert!(span.count >= 1);
            traced.telemetry().reset();
        }
    }
}
