//! Bit-identity of the cache-blocked kernel layer, end to end.
//!
//! The blocked planned path (`BatchPlan::forward_block` under
//! `RunOptions::with_block_size`, probed or not) re-orders *memory traffic* — tile
//! conductances are streamed once per sample block instead of once per
//! sample — but must never re-order a floating-point accumulation. These
//! tests pin that contract across random layer shapes, batch sizes,
//! block sizes, rayon thread counts, and the full non-ideality chain
//! (process variation, hard faults, the repair ladder, comparator
//! offsets and time quantization): the outputs must equal the
//! per-sample reference path to the last bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use resipe::batch::BatchPlan;
use resipe::inference::{CompileOptions, FaultInjection, HardwareNetwork, RunOptions};
use resipe::mapping::{MappedWeights, SpikeEncoding, TileMapper};
use resipe::repair::{repair_layer, RepairPolicy};
use resipe::telemetry::Telemetry;
use resipe::{ResipeConfig, ResipeEngine};
use resipe_analog::units::Seconds;
use resipe_nn::layers::{Conv2d, Dense};
use resipe_nn::network::Network;
use resipe_nn::tensor::Tensor;
use resipe_reram::faults::{CellFault, FaultMap};
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

/// The full non-ideality chain — faults and repair included — so the
/// blocked kernel's equivalence claim covers remapped spare columns,
/// permuted wordlines and every readout non-ideality at once.
fn nonideal_options(seed: u64) -> CompileOptions {
    CompileOptions::paper()
        .with_mapper(TileMapper::paper().with_spare_cols(2))
        .with_variation(VariationModel::device_to_device(0.15).unwrap())
        .with_seed(seed)
        .with_faults(FaultInjection::clustered(0.02, 4, seed ^ 0x5eed))
        .with_repair(resipe::repair::RepairPolicy::full())
        .with_comparator_sigma(0.01)
        .with_time_quantization(Seconds(1e-9))
}

/// Sparse activations in `[0, 1]` — exact zeros exercise the encode
/// zero-skip path whose bit-exactness the kernel relies on.
fn sparse_input(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.4 {
                    0.0
                } else {
                    rng.gen_range(0.0..1.0f32)
                }
            })
            .collect(),
        shape,
    )
    .expect("shape")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary dense layers under the full non-ideality chain, the
    /// blocked planned path equals the per-sample reference path to the
    /// bit — for any block size, any thread count, and the auto-sized
    /// block, with and without a telemetry probe (which switches the
    /// kernel to its staged loop order) — and the MVM counters stay
    /// pinned to the static figure.
    #[test]
    fn blocked_planned_path_is_bit_identical_to_per_sample(
        in_features in 1usize..60,
        out_features in 1usize..8,
        batch in 1usize..12,
        block_idx in 0usize..7,
        threads_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let block = [1usize, 2, 3, 5, 8, 32, 64][block_idx];
        let threads = [1usize, 2, 4][threads_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new("block-prop");
        net.push(Dense::new(in_features, out_features, &mut rng));
        let calib = sparse_input(&mut rng, &[2, in_features]);
        let x = sparse_input(&mut rng, &[batch, in_features]);
        let hw = HardwareNetwork::compile(&net, &calib, &nonideal_options(seed))
            .expect("compile");
        let reference = hw.run(&x, &RunOptions::per_sample()).expect("reference").outputs;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let pinned = pool
            .install(|| hw.run(&x, &RunOptions::planned().with_block_size(block)))
            .expect("blocked run")
            .outputs;
        let auto = pool
            .install(|| hw.run(&x, &RunOptions::planned()))
            .expect("auto-blocked run")
            .outputs;
        for (a, b) in reference.data().iter().zip(pinned.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in reference.data().iter().zip(auto.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut traced = hw.clone();
        traced.set_telemetry(Telemetry::enabled());
        let probed = pool
            .install(|| traced.run(&x, &RunOptions::planned().with_block_size(block)))
            .expect("probed run");
        for (a, b) in reference.data().iter().zip(probed.outputs.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(
            probed.telemetry.counters.mvms,
            (batch * hw.dense_mvms_per_sample()) as u64
        );
        prop_assert_eq!(
            hw.mvm_count(),
            3 * (batch * hw.dense_mvms_per_sample()) as u64,
            "three runs must issue exactly three batches of MVMs"
        );
    }
}

/// A deeper network (two crossbar layers with an interleaved digital
/// ReLU) stays bit-identical under blocking, including when the block
/// does not divide the batch.
#[test]
fn two_layer_network_blocks_bit_identically() {
    let mut rng = StdRng::seed_from_u64(91);
    let mut net = Network::new("two-layer");
    net.push(Dense::new(33, 9, &mut rng));
    net.push(resipe_nn::layers::Relu::new());
    net.push(Dense::new(9, 4, &mut rng));
    let calib = sparse_input(&mut rng, &[4, 33]);
    let x = sparse_input(&mut rng, &[11, 33]);
    let hw = HardwareNetwork::compile(&net, &calib, &nonideal_options(7)).expect("compile");
    let reference = hw.run(&x, &RunOptions::per_sample()).expect("reference");
    for block in [1usize, 2, 4, 7, 64] {
        let blocked = hw
            .run(&x, &RunOptions::planned().with_block_size(block))
            .expect("blocked");
        assert_bit_identical(&reference.outputs, &blocked.outputs);
    }
}

/// A convolution routes every output pixel through the blocked kernel;
/// its planned path must match the per-sample reference too.
#[test]
fn conv_layer_blocks_bit_identically() {
    let mut rng = StdRng::seed_from_u64(55);
    let mut net = Network::new("conv-block");
    net.push(Conv2d::new(1, 3, 3, 1, &mut rng));
    let calib = sparse_input(&mut rng, &[2, 1, 6, 6]);
    let x = sparse_input(&mut rng, &[3, 1, 6, 6]);
    let hw = HardwareNetwork::compile(&net, &calib, &nonideal_options(3)).expect("compile");
    let reference = hw.run(&x, &RunOptions::per_sample()).expect("reference");
    for block in [1usize, 5, 32] {
        let blocked = hw
            .run(&x, &RunOptions::planned().with_block_size(block))
            .expect("blocked");
        assert_bit_identical(&reference.outputs, &blocked.outputs);
    }
}

/// Conv inputs with exact zeros, negatives and values up to 1.6× the
/// `[0, 1)` calibration range, so the activation clamp fires at both
/// ends.
fn clamping_input(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len)
            .map(|_| match rng.gen_range(0..10u32) {
                0..=2 => 0.0,
                3 => -rng.gen_range(0.0..1.0f32),
                _ => rng.gen_range(0.0..1.6f32),
            })
            .collect(),
        shape,
    )
    .expect("shape")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The planned path gathers each conv pixel's window straight from
    /// the input; over random channel counts, kernels, paddings up to
    /// the kernel size, non-square inputs down to the smallest valid
    /// side and batch sizes (so a block packs several samples' windows
    /// and the last task runs short), it must equal the im2col-based
    /// per-sample reference to the bit for every block size and with a
    /// telemetry probe attached.
    #[test]
    fn conv_shapes_block_bit_identically(
        c_in in 1usize..4,
        c_out in 1usize..5,
        k_idx in 0usize..4,
        padding in 0usize..6,
        dh in 0usize..3,
        dw in 0usize..3,
        batch in 1usize..10,
        seed in 0u64..1000,
    ) {
        let k = [1usize, 2, 3, 5][k_idx];
        let padding = padding.min(k);
        let min_side = k.saturating_sub(2 * padding).max(1);
        let h = min_side + dh;
        let mut w = min_side + dw;
        if w == h {
            w += 1;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new("conv-shapes");
        net.push(Conv2d::new(c_in, c_out, k, padding, &mut rng));
        let calib = sparse_input(&mut rng, &[2, c_in, h, w]);
        let x = clamping_input(&mut rng, &[batch, c_in, h, w]);
        let hw = HardwareNetwork::compile(&net, &calib, &nonideal_options(seed))
            .expect("compile");
        let reference = hw.run(&x, &RunOptions::per_sample()).expect("reference").outputs;
        for options in [
            RunOptions::planned().with_block_size(1),
            RunOptions::planned().with_block_size(3),
            RunOptions::planned(),
        ] {
            let planned = hw.run(&x, &options).expect("planned run").outputs;
            prop_assert_eq!(reference.shape(), planned.shape());
            for (a, b) in reference.data().iter().zip(planned.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let mut traced = hw.clone();
        traced.set_telemetry(Telemetry::enabled());
        let probed = traced
            .run(&x, &RunOptions::planned().with_block_size(3))
            .expect("probed run")
            .outputs;
        for (a, b) in reference.data().iter().zip(probed.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// A `rows × cols` layer (`rows > 64`, paper 32-row tiles) whose repair
/// ladder, run on targeted faults, both permuted tile 0's wordlines and
/// remapped a column of tile 1 onto its spare bitline:
///
/// * tile 0's wordline 31 is stuck at HRS on every bitline, under a row
///   of full-scale weights, so every column fails and no spare helps;
///   logical row 0 is all zeros, so the permutation moves it onto the
///   dead wordline, where HRS is its target;
/// * one cell of tile 1 is stuck at LRS where its column's positive
///   target is HRS, which only the healthy spare can recover.
fn remapped_and_permuted(
    engine: &ResipeEngine,
    rows: usize,
    cols: usize,
    rng: &mut StdRng,
) -> MappedWeights {
    let dead_col = rng.gen_range(0..cols);
    let weights: Vec<f64> = (0..rows * cols)
        .map(|i| match (i / cols, i % cols) {
            (0, _) => 0.0,
            (31, _) => {
                if rng.gen_range(0.0..1.0) < 0.5 {
                    -1.0
                } else {
                    1.0
                }
            }
            (32, c) if c == dead_col => -0.5,
            _ => rng.gen_range(-0.5..0.5),
        })
        .collect();
    let phys = cols + 1;
    let mut dead_row = FaultMap::healthy(32, phys);
    for c in 0..phys {
        dead_row.set(31, c, CellFault::StuckHrs);
    }
    let mut dead_cell = FaultMap::healthy(32, phys);
    dead_cell.set(0, dead_col, CellFault::StuckLrs);
    let mut mapped = TileMapper::paper()
        .with_spare_cols(1)
        .map(&weights, rows, cols)
        .expect("map")
        .with_fault_maps(0, dead_row.clone(), dead_row)
        .expect("tile 0 faults")
        .with_fault_maps(1, dead_cell, FaultMap::healthy(32, phys))
        .expect("tile 1 faults");
    repair_layer(engine, &mut mapped, 0, &RepairPolicy::full(), rng.gen()).expect("repair");
    assert!(mapped.tiles()[0].is_permuted(), "tile 0 must be permuted");
    assert!(
        mapped.tiles()[1]
            .col_map()
            .iter()
            .enumerate()
            .any(|(j, &pc)| j != pc),
        "tile 1 must route a column onto its spare"
    );
    mapped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The kernel walks four columns per pass over a sample's non-zero
    /// wordlines and the `cols % 4` tail one at a time. For every tail
    /// length, several tiles, a spare-column remap and a wordline
    /// permutation, `BatchPlan::forward_block` must equal
    /// `MappedWeights::forward` to the bit — at blocks of 1, 3 and the
    /// plan's preferred size, with and without a probe.
    #[test]
    fn grouped_walk_is_bit_identical_to_mapped_forward(
        cols in 1usize..=13,
        rows in 65usize..=110,
        batch in 1usize..=10,
        pass_through in any::<bool>(),
        quantized in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let engine = ResipeEngine::new(ResipeConfig::paper());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mapped = remapped_and_permuted(&engine, rows, cols, &mut rng)
            .with_comparator_offsets(0.01, seed);
        if quantized {
            mapped = mapped.with_time_quantization(Seconds(1e-9));
        }
        let encoding = if pass_through {
            SpikeEncoding::PassThrough
        } else {
            SpikeEncoding::LinearTime
        };
        let a: Vec<f64> = (0..batch * rows)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.3 {
                    0.0
                } else {
                    rng.gen_range(0.0..1.0)
                }
            })
            .collect();
        let mut reference = Vec::with_capacity(batch * cols);
        for x in a.chunks_exact(rows) {
            reference.extend(mapped.forward(&engine, x, encoding).expect("reference"));
        }
        let plan = BatchPlan::new(&engine, &mapped, encoding);
        let telemetry = Telemetry::enabled();
        let probe = telemetry
            .layer_probe(0, engine.config())
            .expect("enabled probe");
        let mut scratch = plan.scratch();
        for block in [1, 3, plan.preferred_block()] {
            for probe in [None, Some(&probe)] {
                let mut out = vec![f64::NAN; batch * cols];
                for start in (0..batch).step_by(block) {
                    let n = block.min(batch - start);
                    plan.forward_block(
                        &a[start * rows..(start + n) * rows],
                        n,
                        &mut out[start * cols..(start + n) * cols],
                        &mut scratch,
                        probe,
                    )
                    .expect("forward_block");
                }
                for (x, y) in reference.iter().zip(&out) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}

/// An activation from the edge cases of the S1 encode: signed zeros,
/// the clamp's ends, subnormals, a tiny positive whose `LinearTime`
/// voltage rounds to exactly 0 V, and ordinary values.
fn edge_activation(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10u32) {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => 1.0 + rng.gen_range(0.0..2.0),
        4 => f64::MIN_POSITIVE * rng.gen_range(0.0..1.0),
        5 => 1e-18,
        6 => -rng.gen_range(0.0..1.0),
        _ => rng.gen_range(0.0..1.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The kernel takes held voltages: `forward_held` on
    /// `encode_into`'s voltages, `forward_block` on the raw activations
    /// and `MappedWeights::forward` must agree to the bit over the
    /// encode's edge cases, a wordline permutation and a spare-column
    /// remap, at blocks of 1, 3 and the preferred size, with and
    /// without a probe. A probed call counts exactly the gathered
    /// wordlines held at 0 V as zero-activation skips.
    #[test]
    fn held_entry_is_bit_identical_to_block_and_mapped_forward(
        cols in 1usize..=9,
        rows in 65usize..=100,
        batch in 1usize..=7,
        pass_through in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let engine = ResipeEngine::new(ResipeConfig::paper());
        let mut rng = StdRng::seed_from_u64(seed);
        let mapped = remapped_and_permuted(&engine, rows, cols, &mut rng)
            .with_comparator_offsets(0.01, seed);
        let encoding = if pass_through {
            SpikeEncoding::PassThrough
        } else {
            SpikeEncoding::LinearTime
        };
        let a: Vec<f64> = (0..batch * rows).map(|_| edge_activation(&mut rng)).collect();
        let mut reference = Vec::with_capacity(batch * cols);
        for x in a.chunks_exact(rows) {
            reference.extend(mapped.forward(&engine, x, encoding).expect("reference"));
        }
        let plan = BatchPlan::new(&engine, &mapped, encoding);
        let mut held = Vec::new();
        plan.encode_into(a.iter().copied(), &mut held, None);
        prop_assert_eq!(held.len(), a.len());
        if !pass_through {
            let mut tiny = Vec::new();
            plan.encode_into([1e-18], &mut tiny, None);
            prop_assert_eq!(tiny[0].to_bits(), 0.0f64.to_bits());
        }
        // Every tile's wordline routing is a permutation of its rows, so
        // the gathered 0 V wordlines are the 0 V entries of `held`.
        let zero_volt = held.iter().filter(|&&v| v == 0.0).count() as u64;
        let mut scratch = plan.scratch();
        for block in [1, 3, plan.preferred_block()] {
            for probed in [false, true] {
                let telemetry = Telemetry::enabled();
                let probe = telemetry
                    .layer_probe(0, engine.config())
                    .expect("enabled probe");
                let probe = probed.then_some(&probe);
                let mut from_held = vec![f64::NAN; batch * cols];
                let mut from_block = vec![f64::NAN; batch * cols];
                for start in (0..batch).step_by(block) {
                    let n = block.min(batch - start);
                    let out = start * cols..(start + n) * cols;
                    let mut encoded = Vec::new();
                    plan.encode_into(
                        a[start * rows..(start + n) * rows].iter().copied(),
                        &mut encoded,
                        probe,
                    );
                    plan.forward_held(&encoded, n, &mut from_held[out.clone()], &mut scratch, probe)
                        .expect("forward_held");
                    plan.forward_block(
                        &a[start * rows..(start + n) * rows],
                        n,
                        &mut from_block[out],
                        &mut scratch,
                        None,
                    )
                    .expect("forward_block");
                }
                for ((x, y), z) in reference.iter().zip(&from_held).zip(&from_block) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                    prop_assert_eq!(x.to_bits(), z.to_bits());
                }
                let snap = telemetry.snapshot();
                if probed {
                    let l = snap.layers[0];
                    prop_assert_eq!(l.calls, batch as u64);
                    prop_assert_eq!(l.zero_activation_skips, zero_volt);
                    prop_assert_eq!(snap.counters.zero_activation_skips, zero_volt);
                } else {
                    prop_assert_eq!(snap.layers[0].calls, 0);
                }
            }
        }
    }
}
