//! Bit-level pins of the paper's equations on the inference path.
//!
//! The equivalence suites check that the planned path equals the
//! per-sample reference, but both evaluate Eqs. 1, 3 and 4 through the
//! same functions, so neither can see a drift in those functions. These
//! tests hold the codec, seeded networks run end to end, the built-in
//! self-test, the telemetry histograms and the engine's matrix kernel to
//! bits recorded from an implementation that wrote each equation out at
//! every call site.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use resipe::inference::{CompileOptions, FaultInjection, HardwareNetwork, RunOptions};
use resipe::mapping::{linear_time_distortion, SpikeEncoding, TileMapper, VoltageCodec};
use resipe::repair::{run_bist, BistConfig, RepairPolicy};
use resipe::telemetry::Telemetry;
use resipe::{ResipeConfig, ResipeEngine};
use resipe_analog::units::Seconds;
use resipe_nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use resipe_nn::network::Network;
use resipe_nn::tensor::Tensor;
use resipe_reram::VariationModel;

/// FNV-1a over a stream of 64-bit words.
fn hash(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn tensor_hash(t: &Tensor) -> u64 {
    hash(t.data().iter().map(|x| u64::from(x.to_bits())))
}

/// Activations in `[0, 1)` with exact zeros.
fn input(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    let data = (0..len)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < 0.3 {
                0.0
            } else {
                rng.gen_range(0.0..1.0f32)
            }
        })
        .collect();
    Tensor::from_vec(data, shape).expect("shape")
}

/// The ideal compile and the full non-ideality chain with quantized
/// spike times, so both decode branches of the codec run.
fn option_sets(seed: u64) -> [CompileOptions; 2] {
    [
        CompileOptions::paper(),
        CompileOptions::paper()
            .with_mapper(TileMapper::paper().with_spare_cols(2))
            .with_variation(VariationModel::device_to_device(0.1).unwrap())
            .with_seed(seed)
            .with_faults(FaultInjection::clustered(0.02, 4, seed ^ 0x5eed))
            .with_repair(RepairPolicy::full())
            .with_comparator_sigma(0.01)
            .with_time_quantization(Seconds(1e-9)),
    ]
}

/// Output hashes of `net` on both option sets, planned and reference.
fn run_hashes(net: &Network, calib: &Tensor, x: &Tensor, seed: u64) -> Vec<u64> {
    let mut hashes = Vec::new();
    for options in option_sets(seed) {
        let hw = HardwareNetwork::compile(net, calib, &options).expect("compile");
        for run in [RunOptions::planned(), RunOptions::per_sample()] {
            hashes.push(tensor_hash(&hw.run(x, &run).expect("run").outputs));
        }
    }
    hashes
}

#[test]
fn voltage_codec_bits() {
    let cfg = ResipeConfig::paper();
    let codec = VoltageCodec::new(&cfg, None);
    let quantized = VoltageCodec::new(&cfg, Some(Seconds(1e-9)));
    let activations = [0.013, 0.25, 0.5, 0.777, 1.0];
    let linear: Vec<u64> = activations
        .iter()
        .map(|&a| codec.held_voltage(SpikeEncoding::LinearTime, a).to_bits())
        .collect();
    let pass: Vec<u64> = activations
        .iter()
        .map(|&a| codec.held_voltage(SpikeEncoding::PassThrough, a).to_bits())
        .collect();
    let distortion: Vec<u64> = activations
        .iter()
        .map(|&a| linear_time_distortion(&cfg, a).to_bits())
        .collect();
    let decoded: Vec<(u64, u64)> = [0.05, 0.31, 0.62, 0.999_99]
        .iter()
        .map(|&v| {
            let d = quantized.decode(v, 0.0);
            (d.v_hat.to_bits(), d.t_obs.expect("quantized").to_bits())
        })
        .collect();
    assert_eq!(codec.v_ref().to_bits(), 0x3FEF_FD40_7BDF_7DFB);
    assert_eq!(codec.v_sat().to_bits(), 0x3FEF_FFA0_CA19_2A6E);
    assert_eq!(
        linear,
        [
            0x3FB9_494C_853F_8058,
            0x3FEB_AB55_5710_1F8D,
            0x3FEF_69F5_523E_F618,
            0x3FEF_EFA3_87AD_E626,
            0x3FEF_FD40_7BDF_7DFB,
        ]
    );
    assert_eq!(
        pass,
        [
            0x3F8A_9D75_237A_751A,
            0x3FCF_FD40_7BDF_7DFB,
            0x3FDF_FD40_7BDF_7DFB,
            0x3FE8_DB0C_78D3_490E,
            0x3FEF_FD40_7BDF_7DFB,
        ]
    );
    assert_eq!(
        distortion,
        [
            0x3FB9_4B78_9FB2_7883,
            0x3FEB_ADB5_D98B_CF12,
            0x3FEF_6CA8_2F0D_E1EA,
            0x3FEF_F261_E06C_6861,
            0x3FF0_0000_0000_0000,
        ]
    );
    assert_eq!(
        decoded,
        [
            (0x3FB8_5C93_3156_A630, 0x3E11_2E0B_E826_D695),
            (0x3FD5_1979_F31B_1E24, 0x3E31_2E0B_E826_D695),
            (0x3FE4_3A54_E4E9_8864, 0x3E45_798E_E230_8C3A),
            (0x3FEF_FFA0_CA19_2A6E, 0x3E7A_D7F2_9ABC_AF48),
        ]
    );
}

#[test]
fn seeded_networks_run_to_recorded_bits() {
    let mut rng = StdRng::seed_from_u64(0x6e7);
    let mut mlp = Network::new("golden-mlp");
    mlp.push(Dense::new(40, 12, &mut rng));
    mlp.push(Relu::new());
    mlp.push(Dense::new(12, 5, &mut rng));
    let calib = input(&mut rng, &[4, 40]);
    let x = input(&mut rng, &[6, 40]);
    assert_eq!(
        run_hashes(&mlp, &calib, &x, 17),
        [
            0x16EE_BD8E_665A_2FE9,
            0x16EE_BD8E_665A_2FE9,
            0x0F37_A4E1_D9D2_0EF0,
            0x0F37_A4E1_D9D2_0EF0
        ]
    );

    let mut conv = Network::new("golden-conv");
    conv.push(Conv2d::new(1, 3, 3, 1, &mut rng));
    conv.push(Relu::new());
    conv.push(MaxPool2d::new(2));
    conv.push(Flatten::new());
    conv.push(Dense::new(3 * 4 * 4, 4, &mut rng));
    let calib = input(&mut rng, &[3, 1, 8, 8]);
    let x = input(&mut rng, &[4, 1, 8, 8]);
    assert_eq!(
        run_hashes(&conv, &calib, &x, 29),
        [
            0x05B6_4C17_4FFD_FA2C,
            0x05B6_4C17_4FFD_FA2C,
            0x00B6_3055_5A76_6663,
            0x00B6_3055_5A76_6663
        ]
    );
}

#[test]
fn probed_run_histograms() {
    let mut rng = StdRng::seed_from_u64(0x7e1);
    let mut net = Network::new("golden-probe");
    net.push(Dense::new(48, 10, &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(10, 6, &mut rng));
    let calib = input(&mut rng, &[4, 48]);
    let x = input(&mut rng, &[16, 48]);
    let mut hw = HardwareNetwork::compile(&net, &calib, &option_sets(5)[1]).expect("compile");
    hw.set_telemetry(Telemetry::enabled());
    let snap = hw
        .run(&x, &RunOptions::planned())
        .expect("probed run")
        .telemetry;
    assert_eq!(
        (
            snap.t_out.bins.clone(),
            snap.v_out.bins.clone(),
            snap.counters.saturated_decodes
        ),
        (
            vec![
                745, 87, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0
            ],
            vec![
                84, 55, 57, 78, 95, 84, 102, 90, 76, 48, 35, 22, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0
            ],
            0
        )
    );
}

#[test]
fn faulty_tile_bist_deviations() {
    let mut rng = StdRng::seed_from_u64(0xb157);
    let (rows, cols) = (40, 7);
    let weights: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mapped = TileMapper::paper()
        .with_spare_cols(2)
        .map(&weights, rows, cols)
        .unwrap()
        .perturbed(&VariationModel::device_to_device(0.1).unwrap(), 3)
        .with_faults(0.08, 4, 0xfa17)
        .unwrap();
    let engine = ResipeEngine::new(ResipeConfig::paper());
    let worst: Vec<u64> = mapped
        .tiles()
        .iter()
        .flat_map(|tile| {
            run_bist(&engine, tile, mapped.window(), &BistConfig::default())
                .unwrap()
                .columns
                .into_iter()
                .map(|c| c.worst_deviation.to_bits())
        })
        .collect();
    assert_eq!(
        worst,
        [
            0x3FED_B4E8_3961_BD33,
            0x3FE8_6828_D476_BB30,
            0x3FF5_2C80_3C08_F74A,
            0x3FF2_A55D_6CA4_74D6,
            0x3FEE_E274_0AB3_C381,
            0x3FF0_250E_F194_31CD,
            0x3FF2_5999_E66E_5F2A,
            0x3FB0_F627_B38A_91F1,
            0x3FB8_7B90_EAA6_6549,
            0x3FC2_98F1_6C59_5551,
            0x3FC7_6F1D_680E_B3CF,
            0x3FEC_AD51_4595_8B23,
            0x3FE9_DDB9_19C6_63FE,
            0x3FED_5B1C_2981_931F,
        ]
    );
}

#[test]
fn mvm_matrix_bits() {
    let mut rng = StdRng::seed_from_u64(0x3a7);
    let (rows, cols) = (24, 9);
    let g: Vec<f64> = (0..rows * cols)
        .map(|_| rng.gen_range(1e-6..120e-6))
        .collect();
    let t_in: Vec<Seconds> = (0..rows)
        .map(|_| Seconds(rng.gen_range(0.0..100e-9)))
        .collect();
    let engine = ResipeEngine::new(ResipeConfig::paper());
    let macs = engine.mvm_matrix(&g, rows, cols, &t_in).unwrap();
    let h = hash(macs.iter().flat_map(|m| {
        [
            m.t_out.0.to_bits(),
            m.v_out.0.to_bits(),
            u64::from(m.saturated),
        ]
    }));
    assert_eq!(h, 0x6408_77DC_1905_110D);
}
