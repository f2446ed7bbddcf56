//! The registry contract end to end: two models served simultaneously
//! from one server, each replicated, each bit-identical to its own
//! local oracle under concurrent load; a replica drained mid-load
//! without a single reject; and a byte-level client — frames built by
//! hand from the documented wire layout, with no resipe-serve client
//! code — getting bit-identical answers from both the default and a
//! named model.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use resipe::inference::{CompileOptions, HardwareNetwork};
use resipe_nn::data::synth_digits;
use resipe_nn::models;
use resipe_nn::network::Network;
use resipe_nn::tensor::Tensor;
use resipe_nn::train::{Sgd, TrainConfig};
use resipe_serve::{Client, ModelSpec, ReplicaHealth, Server, ServerConfig};

fn trained_mlp1(init_seed: u64) -> (Network, Tensor, Vec<usize>) {
    let train = synth_digits(48, 1).unwrap();
    let mut net = models::mlp1(init_seed).unwrap();
    Sgd::new(TrainConfig::new(1).with_learning_rate(0.1))
        .fit(&mut net, &train)
        .unwrap();
    let (calib, _) = train.batch(&(0..16).collect::<Vec<_>>()).unwrap();
    (net, calib, train.sample_shape().to_vec())
}

fn assert_bits(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs");
    }
}

#[test]
fn two_models_with_replicas_serve_concurrently_bit_identical() {
    // Two *different* MLP-1 instances (distinct init seeds → distinct
    // weights), registered under distinct names with 2 replicas each.
    let (net_a, calib_a, shape) = trained_mlp1(7);
    let (net_b, calib_b, _) = trained_mlp1(13);
    let opts = CompileOptions::paper();

    // Local per-model oracles, compiled independently of the server.
    let oracle_a = HardwareNetwork::compile(&net_a, &calib_a, &opts).unwrap();
    let oracle_b = HardwareNetwork::compile(&net_b, &calib_b, &opts).unwrap();

    let server = Server::builder()
        .config(
            ServerConfig::default()
                .with_max_batch(8)
                .with_max_wait(Duration::from_micros(300)),
        )
        .register_model("mlp1-a", ModelSpec::network(net_a, calib_a, opts, &shape))
        .replicas(2)
        .register_model("mlp1-b", ModelSpec::network(net_b, calib_b, opts, &shape))
        .replicas(2)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // Registry surface before any inference: both models listed, every
    // configured replica counted healthy.
    let mut probe = Client::connect(addr).unwrap();
    let infos = probe.list_models().unwrap();
    assert_eq!(infos.len(), 2);
    for info in &infos {
        assert_eq!(info.replicas, 2, "{}", info.name);
        assert_eq!(info.healthy, 2, "{}", info.name);
        assert_eq!(info.sample_shape, shape, "{}", info.name);
    }

    let corpus = synth_digits(24, 2).unwrap();
    let (samples, _) = corpus.batch(&(0..24).collect::<Vec<_>>()).unwrap();
    let width: usize = shape.iter().product();
    let ref_a = oracle_a.forward(&samples).unwrap();
    let ref_b = oracle_b.forward(&samples).unwrap();
    let out_width = ref_a.len() / 24;

    // Concurrent clients: two per model, interleaved over the same
    // connection pool the drain below runs against.
    const PER_CLIENT: usize = 12;
    let mut joins = Vec::new();
    for (c, model) in ["mlp1-a", "mlp1-b", "mlp1-a", "mlp1-b"]
        .into_iter()
        .enumerate()
    {
        let samples = samples.clone();
        let shape = shape.clone();
        joins.push(thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut outputs = Vec::new();
            for r in 0..PER_CLIENT {
                let idx = (c / 2) * PER_CLIENT + r;
                let data = samples.data()[idx * width..(idx + 1) * width].to_vec();
                let t = Tensor::from_vec(data, &shape).unwrap();
                let out = client.model(model).infer(&t).unwrap();
                outputs.push((idx, out));
            }
            (model, outputs)
        }));
    }

    // Mid-load: drain replica 0 of mlp1-a. Traffic must keep flowing
    // to replica 1 with zero rejects.
    thread::sleep(Duration::from_millis(5));
    server
        .set_replica_health("mlp1-a", 0, ReplicaHealth::Draining)
        .unwrap();

    for j in joins {
        let (model, outputs) = j.join().unwrap();
        let reference = if model == "mlp1-a" { &ref_a } else { &ref_b };
        for (idx, served) in outputs {
            let expected = &reference.data()[idx * out_width..(idx + 1) * out_width];
            assert_bits(served.data(), expected, model);
        }
    }

    // Zero rejects through the drain, per model and globally.
    let stats = probe.stats().unwrap();
    assert_eq!(stats.rejected_busy, 0);
    assert_eq!(stats.engine_errors, 0);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.models.len(), 2);
    let block_a = stats.model("mlp1-a").unwrap();
    let block_b = stats.model("mlp1-b").unwrap();
    assert_eq!(block_a.completed, 2 * PER_CLIENT as u64);
    assert_eq!(block_b.completed, 2 * PER_CLIENT as u64);
    assert_eq!(block_a.rejected_busy, 0);
    assert_eq!(block_b.rejected_busy, 0);
    for block in [block_a, block_b] {
        assert_eq!(block.replicas.len(), 2, "{}", block.name);
        let per_replica: u64 = block.replicas.iter().map(|r| r.completed).sum();
        assert_eq!(
            per_replica, block.completed,
            "{}: per-replica completions sum to the model total",
            block.name
        );
    }
    assert_eq!(
        block_a.replicas[0].health_name(),
        "draining",
        "the drained replica reports its state"
    );
    assert_eq!(block_a.replicas[1].health_name(), "healthy");

    // ModelStats over the wire agrees with the aggregate snapshot.
    let wire_block = probe.model_stats("mlp1-a").unwrap();
    assert_eq!(wire_block.name, "mlp1-a");
    assert_eq!(wire_block.completed, block_a.completed);

    // Unknown models are a clean NoSuchModel, not a dropped connection.
    match probe.model_stats("nope") {
        Err(resipe_serve::ServeError::NoSuchModel(name)) => assert_eq!(name, "nope"),
        other => panic!("expected NoSuchModel, got {other:?}"),
    }
    assert!(probe.ping().is_ok(), "connection survives NoSuchModel");
}

/// Encodes an Infer frame byte by byte from the documented layout:
/// `[u32 len][0xA5][version=2][verb=1][u64 id][u32 deadline=0]
/// [u8 model_len][model][hint_flag=0][tensor]`.
fn hand_rolled_infer_frame(id: u64, model: &str, sample: &Tensor) -> Vec<u8> {
    let mut payload = vec![0xA5u8, 2, 1];
    payload.extend_from_slice(&id.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.push(model.len() as u8);
    payload.extend_from_slice(model.as_bytes());
    payload.push(0);
    payload.push(sample.shape().len() as u8);
    for &d in sample.shape() {
        payload.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &v in sample.data() {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

#[test]
fn hand_rolled_frames_talk_to_the_server_bit_identically() {
    // Raw bytes on a TcpStream, no resipe-serve client code at all: the
    // request and reply layouts are pinned byte for byte, for both
    // default routing (empty model name) and a named model.
    let (net, calib, shape) = trained_mlp1(7);
    let opts = CompileOptions::paper();
    let oracle = HardwareNetwork::compile(&net, &calib, &opts).unwrap();

    let server = Server::builder()
        .register_model("mlp1", ModelSpec::network(net, calib, opts, &shape))
        .replicas(2)
        .bind("127.0.0.1:0")
        .unwrap();

    let corpus = synth_digits(4, 3).unwrap();
    let (samples, _) = corpus.batch(&[0, 1, 2, 3]).unwrap();
    let width: usize = shape.iter().product();
    let reference = oracle.forward(&samples).unwrap();
    let out_width = reference.len() / 4;

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    for idx in 0..4u64 {
        let data = samples.data()[idx as usize * width..(idx as usize + 1) * width].to_vec();
        let sample = Tensor::from_vec(data, &shape).unwrap();
        let model = if idx % 2 == 0 { "" } else { "mlp1" };
        stream
            .write_all(&hand_rolled_infer_frame(idx + 1, model, &sample))
            .unwrap();

        // Read the response frame by hand:
        // [u32 len][0xA5][version=2][status][u64 id][body].
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).unwrap();
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut payload).unwrap();
        assert_eq!(payload[..2], [0xA5, 2], "magic + version preamble");
        assert_eq!(payload[2], 0, "status Ok");
        assert_eq!(
            u64::from_le_bytes(payload[3..11].try_into().unwrap()),
            idx + 1
        );

        // Body: tensor [ndim][dims...][f32 data]; batch dim must be 1.
        let body = &payload[11..];
        let ndim = body[0] as usize;
        let mut dims = Vec::new();
        for d in 0..ndim {
            dims.push(u32::from_le_bytes(body[1 + 4 * d..5 + 4 * d].try_into().unwrap()) as usize);
        }
        assert_eq!(dims[0], 1, "single-sample reply has batch dim 1");
        let data_at = 1 + 4 * ndim;
        let served: Vec<f32> = body[data_at..]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(served.len() * 4, body.len() - data_at, "no trailing bytes");
        let expected = &reference.data()[idx as usize * out_width..(idx as usize + 1) * out_width];
        assert_bits(
            &served,
            expected,
            &format!("hand-rolled bytes, model {model:?}"),
        );
    }
}
