//! Property tests of the wire protocol: every well-formed request
//! survives an encode → parse round trip bit-identically (including
//! NaN/infinity/denormal payload bits), arbitrary garbage never panics
//! the parser, and the incremental [`FrameAccum`] decoder recovers
//! exactly the frames the blocking reader sees no matter how the byte
//! stream is sliced.

use proptest::prelude::*;

use resipe_nn::tensor::Tensor;
use resipe_serve::protocol::{
    encode_request, parse_request, read_frame, write_request, write_response, FrameAccum, Request,
    Status, Verb, MAGIC, MAX_MODEL_NAME,
};

const VERBS: [Verb; 6] = [
    Verb::Infer,
    Verb::InferBatch,
    Verb::Ping,
    Verb::Stats,
    Verb::ListModels,
    Verb::ModelStats,
];

/// Builds a tensor whose element *bits* are fully arbitrary — NaNs,
/// infinities, denormals, negative zero — so the round trip is checked
/// at the bit level, not through float equality.
fn tensor_from(rank: usize, dim: usize, bits: &[u32]) -> Tensor {
    let dims = vec![dim; rank];
    let len: usize = dims.iter().product();
    let data: Vec<f32> = (0..len)
        .map(|i| f32::from_bits(bits.get(i).copied().unwrap_or(0x7fc0_0000 + i as u32)))
        .collect();
    Tensor::from_vec(data, &dims).unwrap()
}

fn model_name(len: usize, seed: u64) -> String {
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_.";
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            CHARSET[(state >> 33) as usize % CHARSET.len()] as char
        })
        .collect()
}

const STATUSES: [Status; 8] = [
    Status::Ok,
    Status::Busy,
    Status::Expired,
    Status::BadRequest,
    Status::ShuttingDown,
    Status::EngineError,
    Status::Malformed,
    Status::NoSuchModel,
];

/// Feeds `stream` to a fresh [`FrameAccum`] sliced into the given
/// chunk sizes (cycled; sizes are clamped to at least one byte) and
/// returns the complete frames it produced.
fn accum_frames(stream: &[u8], chunk_sizes: &[usize]) -> Vec<Vec<u8>> {
    let mut accum = FrameAccum::new();
    let mut frames = Vec::new();
    let mut offset = 0usize;
    let mut chunk_idx = 0usize;
    while offset < stream.len() {
        let size = chunk_sizes
            .get(chunk_idx % chunk_sizes.len().max(1))
            .copied()
            .unwrap_or(1)
            .max(1)
            .min(stream.len() - offset);
        chunk_idx += 1;
        let mut chunk = &stream[offset..offset + size];
        offset += size;
        // A single chunk may complete several frames; drain it fully.
        while !chunk.is_empty() {
            let (used, frame) = accum.feed(chunk).unwrap();
            chunk = &chunk[used..];
            if let Some(frame) = frame {
                frames.push(frame);
            }
        }
    }
    assert!(!accum.mid_frame(), "stream must end at a frame boundary");
    frames
}

/// The same stream read by the blocking frame reader, as the oracle.
fn blocking_frames(stream: &[u8]) -> Vec<Vec<u8>> {
    let mut cursor = std::io::Cursor::new(stream);
    let mut frames = Vec::new();
    while let Some(frame) = read_frame(&mut cursor).unwrap() {
        frames.push(frame);
    }
    frames
}

fn assert_tensor_bits(a: &Option<Tensor>, b: &Option<Tensor>) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        _ => panic!("tensor presence changed across the round trip"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// v2 requests — model names, replica hints, the new verbs —
    /// round-trip bit-identically through the v2 wire.
    #[test]
    fn v2_requests_round_trip(
        verb_sel in 0usize..6,
        id in any::<u64>(),
        deadline_us in 0u32..=u32::MAX,
        name_len in 0usize..40,
        name_seed in any::<u64>(),
        hint in any::<u32>(),
        has_hint in any::<bool>(),
        rank in 1usize..4,
        dim in 1usize..5,
        bits in proptest::collection::vec(any::<u32>(), 0..128),
        has_tensor in any::<bool>(),
    ) {
        let verb = VERBS[verb_sel];
        let model = model_name(name_len, name_seed);
        let tensor = (verb.carries_tensor() && has_tensor)
            .then(|| tensor_from(rank, dim, &bits));
        let mut req = Request::v2(verb, id, deadline_us, &model, tensor);
        if has_hint {
            req = req.with_replica_hint(hint);
        }
        let bytes = encode_request(&req).unwrap();
        let back = parse_request(&bytes).unwrap();
        prop_assert_eq!(back.verb, verb);
        prop_assert_eq!(back.id, id);
        prop_assert_eq!(back.deadline_us, deadline_us);
        prop_assert_eq!(&back.model, &model);
        prop_assert_eq!(back.replica_hint, has_hint.then_some(hint));
        assert_tensor_bits(&back.tensor, &req.tensor);
    }

    /// Arbitrary bytes never panic the parser; anything that fails to
    /// parse yields a clean error, and a payload whose first byte is
    /// not the magic is *always* rejected.
    #[test]
    fn arbitrary_bytes_never_panic(
        payload in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let parsed = parse_request(&payload);
        let first = payload.first().copied();
        if let Some(b) = first {
            if b != MAGIC {
                prop_assert!(parsed.is_err(), "junk preamble {b:#04x} accepted");
            }
        } else {
            prop_assert!(parsed.is_err(), "empty payload accepted");
        }
    }

    /// Model names beyond the wire limit are refused at encode time,
    /// never truncated silently.
    #[test]
    fn oversized_model_names_refuse_to_encode(extra in 1usize..64) {
        let name = "m".repeat(MAX_MODEL_NAME + extra);
        let req = Request::v2(Verb::Ping, 1, 0, &name, None);
        prop_assert!(encode_request(&req).is_err());
    }

    /// A stream of request frames fed to [`FrameAccum`]
    /// one byte at a time AND in random-sized chunks yields exactly the
    /// frames the blocking reader sees, and each parses to the original
    /// request bit-identically.
    #[test]
    fn frame_accum_recovers_request_streams_under_any_slicing(
        specs in proptest::collection::vec(
            ((0usize..4, any::<u64>(), any::<u32>(), 0usize..20, any::<u64>()),
             (1usize..3, 1usize..4,
              proptest::collection::vec(any::<u32>(), 0..32),
              any::<bool>())),
            1..6,
        ),
        chunk_sizes in proptest::collection::vec(1usize..64, 1..16),
    ) {
        let mut stream = Vec::new();
        let mut originals = Vec::new();
        for ((verb_sel, id, deadline_us, name_len, name_seed), (rank, dim, bits, has_tensor))
            in &specs
        {
            let verb = VERBS[*verb_sel];
            let tensor = (verb.carries_tensor() && *has_tensor)
                .then(|| tensor_from(*rank, *dim, bits));
            let req =
                Request::v2(verb, *id, *deadline_us, &model_name(*name_len, *name_seed), tensor);
            write_request(&mut stream, &req).unwrap();
            originals.push(req);
        }

        let golden = blocking_frames(&stream);
        prop_assert_eq!(golden.len(), originals.len());
        for (chunks, label) in [(&chunk_sizes[..], "random chunks"), (&[1usize][..], "byte at a time")] {
            let frames = accum_frames(&stream, chunks);
            prop_assert_eq!(&frames, &golden, "frame bytes diverged ({})", label);
            for (frame, original) in frames.iter().zip(&originals) {
                let back = parse_request(frame).unwrap();
                prop_assert_eq!(back.verb, original.verb);
                prop_assert_eq!(back.id, original.id);
                prop_assert_eq!(back.deadline_us, original.deadline_us);
                prop_assert_eq!(&back.model, &original.model);
                prop_assert_eq!(back.replica_hint, original.replica_hint);
                assert_tensor_bits(&back.tensor, &original.tensor);
            }
        }
    }

    /// A stream of *response* frames — every status code,
    /// arbitrary bodies — fed to [`FrameAccum`] under arbitrary slicing
    /// yields byte-identical frames to the blocking reader.
    #[test]
    fn frame_accum_recovers_reply_streams_under_any_slicing(
        specs in proptest::collection::vec(
            (0usize..8, any::<u64>(),
             proptest::collection::vec(any::<u8>(), 0..200)),
            1..8,
        ),
        chunk_sizes in proptest::collection::vec(1usize..48, 1..16),
    ) {
        let mut stream = Vec::new();
        for (status_sel, id, body) in &specs {
            write_response(&mut stream, STATUSES[*status_sel], *id, body).unwrap();
        }

        let golden = blocking_frames(&stream);
        prop_assert_eq!(golden.len(), specs.len());
        for chunks in [&chunk_sizes[..], &[1usize][..]] {
            let frames = accum_frames(&stream, chunks);
            prop_assert_eq!(&frames, &golden, "reply frame bytes diverged");
        }
    }
}
