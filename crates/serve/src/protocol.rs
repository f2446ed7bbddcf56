//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is one **frame**:
//!
//! ```text
//! [u32 LE payload_len][payload bytes]
//! ```
//!
//! Every payload opens with the preamble `[MAGIC][version]`
//! ([`MAGIC`] = `0xA5`, version = [`PROTOCOL_V2`]). A payload whose
//! first byte is not [`MAGIC`], or whose version byte is not
//! [`PROTOCOL_V2`], is a **malformed preamble**, answered with
//! [`Status::Malformed`] *without* attempting a tensor decode. A request
//! payload is
//!
//! ```text
//! [u8 MAGIC][u8 version=2][u8 verb][u64 LE id][u32 LE deadline_us]
//! [u8 model_len][model utf-8][u8 hint_flag][u32 LE replica_hint?][tensor?]
//! ```
//!
//! where `model` addresses a registered model by name (empty = the
//! default model) and `replica_hint`, when `hint_flag == 1`, asks the
//! server to prefer a specific engine replica. `id` is a client-chosen
//! correlation token echoed verbatim in the response, `deadline_us` is a
//! relative deadline in microseconds (`0` = none) measured from server
//! admission, and the tensor is present for the inference verbs only.
//!
//! A response payload is
//!
//! ```text
//! [u8 MAGIC][u8 version=2][u8 status][u64 LE id][body]
//! ```
//!
//! with the body depending on `(verb, status)`: an encoded tensor for a
//! successful inference, an encoded [`crate::metrics::ServerStats`] blob
//! for a successful `Stats`, a [`ModelInfo`] list for `ListModels`, a
//! [`crate::metrics::ModelStatsBlock`] for `ModelStats`, empty for
//! `Ping`, and a UTF-8 diagnostic message for every non-[`Status::Ok`]
//! status.
//!
//! Tensors travel as
//!
//! ```text
//! [u8 ndim][u32 LE dim_0]..[u32 LE dim_{ndim-1}][f32 LE data…]
//! ```
//!
//! `f32` little-endian bytes round-trip bit-exactly, so the serving
//! path preserves the engine's bit-identity guarantee end to end.
//! Frames larger than [`MAX_FRAME_BYTES`] are rejected on read — a
//! malformed or hostile peer cannot make the server allocate
//! unboundedly.

use std::io::{self, Read, Write};

use resipe_nn::tensor::Tensor;

use crate::error::ServeError;

/// Upper bound on one frame's payload (64 MiB) — an admission guard, not
/// a tuning knob.
pub const MAX_FRAME_BYTES: u32 = 1 << 26;

/// Maximum tensor rank accepted on the wire.
pub const MAX_TENSOR_RANK: usize = 8;

/// First payload byte of every frame, requests and responses alike.
pub const MAGIC: u8 = 0xA5;

/// The protocol version byte that follows [`MAGIC`].
pub const PROTOCOL_V2: u8 = 2;

/// Longest model name accepted on the wire (its length is a `u8`).
pub const MAX_MODEL_NAME: usize = 255;

/// Request verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Verb {
    /// Infer one sample; the tensor carries the per-sample shape.
    Infer = 1,
    /// Infer a batch; the tensor's first dimension is the batch size.
    InferBatch = 2,
    /// Liveness probe; empty body both ways.
    Ping = 3,
    /// Health/metrics snapshot: returns a serialized
    /// [`crate::metrics::ServerStats`] (queue depth, in-flight count,
    /// reject/expiry counters, latency percentiles, per-model and
    /// per-replica blocks, and the engine's telemetry snapshot).
    Stats = 4,
    /// Enumerate the registered models ([`ModelInfo`] list).
    ListModels = 5,
    /// One model's [`crate::metrics::ModelStatsBlock`]; the
    /// request's `model` field names the model.
    ModelStats = 6,
}

impl Verb {
    fn from_u8(v: u8) -> Option<Verb> {
        match v {
            1 => Some(Verb::Infer),
            2 => Some(Verb::InferBatch),
            3 => Some(Verb::Ping),
            4 => Some(Verb::Stats),
            5 => Some(Verb::ListModels),
            6 => Some(Verb::ModelStats),
            _ => None,
        }
    }

    /// Whether this verb carries an input tensor.
    pub fn carries_tensor(self) -> bool {
        matches!(self, Verb::Infer | Verb::InferBatch)
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; the body is the verb's payload.
    Ok = 0,
    /// Admission control rejected the request: the model's queue is full.
    Busy = 1,
    /// The request's deadline passed before execution.
    Expired = 2,
    /// The request was well-framed but invalid (bad shape, bad body).
    BadRequest = 3,
    /// The server is draining and refuses new work.
    ShuttingDown = 4,
    /// The engine failed while executing the batch.
    EngineError = 5,
    /// The frame's preamble was not `[MAGIC][PROTOCOL_V2][known verb]`
    /// and was rejected before any tensor decode was attempted. The
    /// reply carries id 0: the request's id was never parsed.
    Malformed = 6,
    /// The request addressed a model name the server does not serve.
    NoSuchModel = 7,
}

impl Status {
    fn from_u8(v: u8) -> Option<Status> {
        match v {
            0 => Some(Status::Ok),
            1 => Some(Status::Busy),
            2 => Some(Status::Expired),
            3 => Some(Status::BadRequest),
            4 => Some(Status::ShuttingDown),
            5 => Some(Status::EngineError),
            6 => Some(Status::Malformed),
            7 => Some(Status::NoSuchModel),
            _ => None,
        }
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// What the client asked for.
    pub verb: Verb,
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Relative deadline in microseconds from admission; `0` = none.
    pub deadline_us: u32,
    /// Addressed model name; empty = the server's default model.
    pub model: String,
    /// Preferred engine replica, honored when that replica is healthy.
    pub replica_hint: Option<u32>,
    /// Input tensor for the inference verbs.
    pub tensor: Option<Tensor>,
}

impl Request {
    /// A request addressing `model` (empty = default model).
    pub fn v2(
        verb: Verb,
        id: u64,
        deadline_us: u32,
        model: &str,
        tensor: Option<Tensor>,
    ) -> Request {
        Request {
            verb,
            id,
            deadline_us,
            model: model.to_owned(),
            replica_hint: None,
            tensor,
        }
    }

    /// Sets the replica hint.
    pub fn with_replica_hint(mut self, replica: u32) -> Request {
        self.replica_hint = Some(replica);
        self
    }
}

/// A parsed response frame. The body stays raw bytes — its
/// interpretation depends on the verb the client sent.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Outcome code.
    pub status: Status,
    /// The request's correlation id, echoed.
    pub id: u64,
    /// Verb-dependent body (tensor, stats blob, or diagnostic text).
    pub payload: Vec<u8>,
}

/// One registered model, as reported by the `ListModels` verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// The model's registry name (what requests address).
    pub name: String,
    /// Per-sample input shape (without the batch dimension).
    pub sample_shape: Vec<usize>,
    /// Configured engine replicas.
    pub replicas: u32,
    /// Replicas currently in the `Healthy` state.
    pub healthy: u32,
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32, ServeError> {
    let end = at
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| ServeError::Protocol("truncated u32".into()))?;
    let v = u32::from_le_bytes(bytes[*at..end].try_into().expect("4 bytes"));
    *at = end;
    Ok(v)
}

pub(crate) fn take_u64(bytes: &[u8], at: &mut usize) -> Result<u64, ServeError> {
    let end = at
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| ServeError::Protocol("truncated u64".into()))?;
    let v = u64::from_le_bytes(bytes[*at..end].try_into().expect("8 bytes"));
    *at = end;
    Ok(v)
}

/// Appends a tensor's wire form to `buf`.
pub fn encode_tensor_into(buf: &mut Vec<u8>, t: &Tensor) {
    debug_assert!(t.shape().len() <= MAX_TENSOR_RANK, "tensor rank too high");
    buf.push(t.shape().len() as u8);
    for &d in t.shape() {
        put_u32(buf, d as u32);
    }
    buf.reserve(t.data().len() * 4);
    for &v in t.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encodes a tensor as a standalone byte vector.
pub fn encode_tensor(t: &Tensor) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + t.shape().len() * 4 + t.data().len() * 4);
    encode_tensor_into(&mut buf, t);
    buf
}

/// Decodes a tensor from `bytes` starting at `*at`, advancing `*at`.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] for truncation, excessive rank, or
/// an element count that disagrees with the dimensions.
pub fn decode_tensor_from(bytes: &[u8], at: &mut usize) -> Result<Tensor, ServeError> {
    let ndim = *bytes
        .get(*at)
        .ok_or_else(|| ServeError::Protocol("truncated tensor rank".into()))?
        as usize;
    *at += 1;
    if ndim == 0 || ndim > MAX_TENSOR_RANK {
        return Err(ServeError::Protocol(format!(
            "tensor rank {ndim} outside [1, {MAX_TENSOR_RANK}]"
        )));
    }
    let mut shape = Vec::with_capacity(ndim);
    let mut elems: usize = 1;
    for _ in 0..ndim {
        let d = take_u32(bytes, at)? as usize;
        elems = elems
            .checked_mul(d)
            .ok_or_else(|| ServeError::Protocol("tensor element count overflow".into()))?;
        shape.push(d);
    }
    let byte_len = elems
        .checked_mul(4)
        .ok_or_else(|| ServeError::Protocol("tensor byte count overflow".into()))?;
    let end = at
        .checked_add(byte_len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| ServeError::Protocol("truncated tensor data".into()))?;
    let mut data = Vec::with_capacity(elems);
    for chunk in bytes[*at..end].chunks_exact(4) {
        data.push(f32::from_le_bytes(chunk.try_into().expect("4 bytes")));
    }
    *at = end;
    Tensor::from_vec(data, &shape).map_err(|e| ServeError::Protocol(e.to_string()))
}

/// Decodes a tensor that fills `bytes` exactly.
///
/// # Errors
///
/// As [`decode_tensor_from`], plus trailing garbage after the tensor.
pub fn decode_tensor(bytes: &[u8]) -> Result<Tensor, ServeError> {
    let mut at = 0usize;
    let t = decode_tensor_from(bytes, &mut at)?;
    if at != bytes.len() {
        return Err(ServeError::Protocol(format!(
            "{} trailing bytes after tensor",
            bytes.len() - at
        )));
    }
    Ok(t)
}

fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_BYTES as usize, "frame too big");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. Returns `Ok(None)` on clean EOF at a frame
/// boundary — the peer closed the connection between messages.
///
/// # Errors
///
/// Returns [`ServeError::Io`] for a mid-frame disconnect or socket
/// failure, and [`ServeError::Protocol`] for an oversized frame.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ServeError> {
    let mut len_bytes = [0u8; 4];
    // A clean EOF before any length byte is a normal close, not an error.
    let mut filled = 0usize;
    while filled < 4 {
        let n = r.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(ServeError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "disconnect inside frame header",
            )));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental frame accumulator: the non-blocking twin of
/// [`read_frame`] used by the event loop, accepting arbitrary partial
/// reads (down to one byte at a time) and emitting complete frame
/// payloads byte-identical to what the blocking path would have
/// produced.
///
/// Feed it whatever a non-blocking read returned; it consumes up to one
/// frame's worth of bytes per call and reports how many it took, so a
/// single read that spans several frames is drained by calling
/// [`FrameAccum::feed`] in a loop on the remainder.
#[derive(Debug, Default)]
pub struct FrameAccum {
    header: [u8; 4],
    header_filled: usize,
    target: usize,
    payload: Vec<u8>,
}

impl FrameAccum {
    /// An empty accumulator, positioned at a frame boundary.
    pub fn new() -> FrameAccum {
        FrameAccum::default()
    }

    /// Whether bytes of an unfinished frame are buffered — an EOF here
    /// is a mid-frame disconnect, not a clean close.
    pub fn mid_frame(&self) -> bool {
        self.header_filled > 0
    }

    /// Consumes bytes from `input` toward the current frame. Returns
    /// `(consumed, Some(payload))` once a frame completes (leaving the
    /// accumulator ready for the next frame, with `input[consumed..]`
    /// unread), or `(consumed, None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] as soon as the length header
    /// completes with a value above [`MAX_FRAME_BYTES`] — the oversized
    /// payload is never buffered.
    pub fn feed(&mut self, input: &[u8]) -> Result<(usize, Option<Vec<u8>>), ServeError> {
        let mut used = 0usize;
        while self.header_filled < 4 {
            let Some(&b) = input.get(used) else {
                return Ok((used, None));
            };
            self.header[self.header_filled] = b;
            self.header_filled += 1;
            used += 1;
            if self.header_filled == 4 {
                let len = u32::from_le_bytes(self.header);
                if len > MAX_FRAME_BYTES {
                    return Err(ServeError::Protocol(format!(
                        "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
                    )));
                }
                self.target = len as usize;
                // Capacity is claimed lazily: a peer that advertises a
                // huge frame but sends nothing holds no allocation.
                self.payload = Vec::with_capacity(self.target.min(64 * 1024));
            }
        }
        let need = self.target - self.payload.len();
        let take = need.min(input.len() - used);
        self.payload.extend_from_slice(&input[used..used + take]);
        used += take;
        if self.payload.len() == self.target {
            let frame = std::mem::take(&mut self.payload);
            self.header_filled = 0;
            self.target = 0;
            Ok((used, Some(frame)))
        } else {
            Ok((used, None))
        }
    }
}

/// Encodes a request payload.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] for a model name longer than
/// [`MAX_MODEL_NAME`].
pub fn encode_request(req: &Request) -> Result<Vec<u8>, ServeError> {
    if req.model.len() > MAX_MODEL_NAME {
        return Err(ServeError::Protocol(format!(
            "model name of {} bytes exceeds the {MAX_MODEL_NAME}-byte limit",
            req.model.len()
        )));
    }
    let mut payload = Vec::with_capacity(24 + req.model.len());
    payload.push(MAGIC);
    payload.push(PROTOCOL_V2);
    payload.push(req.verb as u8);
    put_u64(&mut payload, req.id);
    put_u32(&mut payload, req.deadline_us);
    payload.push(req.model.len() as u8);
    payload.extend_from_slice(req.model.as_bytes());
    match req.replica_hint {
        Some(r) => {
            payload.push(1);
            put_u32(&mut payload, r);
        }
        None => payload.push(0),
    }
    if let Some(t) = &req.tensor {
        encode_tensor_into(&mut payload, t);
    }
    Ok(payload)
}

/// Writes one request frame.
///
/// # Errors
///
/// As [`encode_request`]; socket errors propagate as [`ServeError::Io`].
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), ServeError> {
    let payload = encode_request(req)?;
    write_frame(w, &payload).map_err(ServeError::Io)
}

/// Parses a request payload (one frame, already read).
///
/// # Errors
///
/// Returns [`ServeError::Malformed`] when the preamble is not
/// `[MAGIC][PROTOCOL_V2][known verb]` — **before** any tensor decode is
/// attempted — and [`ServeError::Protocol`] for a recognizable frame
/// with invalid content (truncation, malformed tensor, trailing bytes).
pub fn parse_request(payload: &[u8]) -> Result<Request, ServeError> {
    let first = *payload
        .first()
        .ok_or_else(|| ServeError::Malformed("empty request frame".into()))?;
    if first != MAGIC {
        return Err(ServeError::Malformed(format!(
            "preamble byte {first:#04x} is not the magic {MAGIC:#04x}"
        )));
    }
    let ver = *payload
        .get(1)
        .ok_or_else(|| ServeError::Malformed("magic byte without version".into()))?;
    if ver != PROTOCOL_V2 {
        return Err(ServeError::Malformed(format!(
            "unsupported protocol version {ver}"
        )));
    }
    let verb_byte = *payload
        .get(2)
        .ok_or_else(|| ServeError::Malformed("preamble without verb".into()))?;
    let verb = Verb::from_u8(verb_byte)
        .ok_or_else(|| ServeError::Malformed(format!("unknown verb {verb_byte}")))?;
    let mut at = 3usize;
    let id = take_u64(payload, &mut at)?;
    let deadline_us = take_u32(payload, &mut at)?;
    let name_len = *payload
        .get(at)
        .ok_or_else(|| ServeError::Protocol("truncated model name length".into()))?
        as usize;
    at += 1;
    let end = at
        .checked_add(name_len)
        .filter(|&e| e <= payload.len())
        .ok_or_else(|| ServeError::Protocol("truncated model name".into()))?;
    let model = String::from_utf8(payload[at..end].to_vec())
        .map_err(|e| ServeError::Protocol(format!("model name not UTF-8: {e}")))?;
    at = end;
    let flag = *payload
        .get(at)
        .ok_or_else(|| ServeError::Protocol("truncated replica hint flag".into()))?;
    at += 1;
    let replica_hint = match flag {
        0 => None,
        1 => Some(take_u32(payload, &mut at)?),
        f => {
            return Err(ServeError::Protocol(format!(
                "replica hint flag must be 0 or 1, got {f}"
            )))
        }
    };
    // A tensor-carrying verb without payload bytes parses as
    // tensor-less; admission answers it BadRequest under the request's
    // own id.
    let tensor = if verb.carries_tensor() && at < payload.len() {
        Some(decode_tensor_from(payload, &mut at)?)
    } else {
        None
    };
    if at != payload.len() {
        return Err(ServeError::Protocol(format!(
            "{} trailing bytes after request",
            payload.len() - at
        )));
    }
    Ok(Request {
        verb,
        id,
        deadline_us,
        model,
        replica_hint,
        tensor,
    })
}

/// Reads and parses one request. `Ok(None)` on clean EOF.
///
/// # Errors
///
/// As [`read_frame`] and [`parse_request`].
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, ServeError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => parse_request(&payload).map(Some),
    }
}

/// Writes one response frame.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_response(w: &mut impl Write, status: Status, id: u64, body: &[u8]) -> io::Result<()> {
    let payload = encode_response(status, id, body);
    write_frame(w, &payload)
}

/// Encodes a response *payload* (no frame header) — the single source of
/// the response byte layout, shared by the blocking [`write_response`]
/// and the event loop's outbound buffers.
pub fn encode_response(status: Status, id: u64, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(11 + body.len());
    payload.push(MAGIC);
    payload.push(PROTOCOL_V2);
    payload.push(status as u8);
    put_u64(&mut payload, id);
    payload.extend_from_slice(body);
    payload
}

/// Encodes a complete response frame (`[u32 LE len][payload]`) ready to
/// append to a connection's outbound buffer.
pub fn encode_response_frame(status: Status, id: u64, body: &[u8]) -> Vec<u8> {
    let payload = encode_response(status, id, body);
    debug_assert!(payload.len() <= MAX_FRAME_BYTES as usize, "frame too big");
    let mut frame = Vec::with_capacity(4 + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    frame.extend_from_slice(&payload);
    frame
}

/// Reads and parses one response. `Ok(None)` on clean EOF.
///
/// # Errors
///
/// As [`read_frame`], plus [`ServeError::Protocol`] for a missing magic
/// byte, an unsupported version, an unknown status byte, or a truncated
/// header.
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>, ServeError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    match payload.get(..2) {
        Some(&[MAGIC, PROTOCOL_V2]) => {}
        Some(&[MAGIC, ver]) => {
            return Err(ServeError::Protocol(format!(
                "unsupported response version {ver}"
            )))
        }
        _ => {
            return Err(ServeError::Protocol(
                "response frame does not open with the magic preamble".into(),
            ))
        }
    }
    let mut at = 2usize;
    let status_byte = *payload
        .get(at)
        .ok_or_else(|| ServeError::Protocol("truncated response status".into()))?;
    at += 1;
    let status = Status::from_u8(status_byte)
        .ok_or_else(|| ServeError::Protocol(format!("unknown status {status_byte}")))?;
    let id = take_u64(&payload, &mut at)?;
    Ok(Some(Response {
        status,
        id,
        payload: payload[at..].to_vec(),
    }))
}

/// Encodes a `ListModels` response body: `[u32 count]` then per model
/// `[u8 name_len][name][u8 ndim][u32 dims…][u32 replicas][u32 healthy]`.
pub fn encode_model_list(models: &[ModelInfo]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, models.len() as u32);
    for m in models {
        debug_assert!(m.name.len() <= MAX_MODEL_NAME);
        buf.push(m.name.len() as u8);
        buf.extend_from_slice(m.name.as_bytes());
        buf.push(m.sample_shape.len() as u8);
        for &d in &m.sample_shape {
            put_u32(&mut buf, d as u32);
        }
        put_u32(&mut buf, m.replicas);
        put_u32(&mut buf, m.healthy);
    }
    buf
}

/// Decodes a `ListModels` response body.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] for truncation or trailing bytes.
pub fn decode_model_list(bytes: &[u8]) -> Result<Vec<ModelInfo>, ServeError> {
    let mut at = 0usize;
    let count = take_u32(bytes, &mut at)? as usize;
    let mut models = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name_len = *bytes
            .get(at)
            .ok_or_else(|| ServeError::Protocol("truncated model name length".into()))?
            as usize;
        at += 1;
        let end = at
            .checked_add(name_len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| ServeError::Protocol("truncated model name".into()))?;
        let name = String::from_utf8(bytes[at..end].to_vec())
            .map_err(|e| ServeError::Protocol(format!("model name not UTF-8: {e}")))?;
        at = end;
        let ndim = *bytes
            .get(at)
            .ok_or_else(|| ServeError::Protocol("truncated sample rank".into()))?
            as usize;
        at += 1;
        let mut sample_shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            sample_shape.push(take_u32(bytes, &mut at)? as usize);
        }
        let replicas = take_u32(bytes, &mut at)?;
        let healthy = take_u32(bytes, &mut at)?;
        models.push(ModelInfo {
            name,
            sample_shape,
            replicas,
            healthy,
        });
    }
    if at != bytes.len() {
        return Err(ServeError::Protocol(
            "trailing bytes after model list".into(),
        ));
    }
    Ok(models)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25 - 1.0).collect();
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn tensor_round_trip_is_bit_exact() {
        for shape in [&[3usize][..], &[2, 5], &[1, 2, 3, 4]] {
            let t = tensor(shape);
            let back = decode_tensor(&encode_tensor(&t)).unwrap();
            assert_eq!(back.shape(), t.shape());
            for (a, b) in t.data().iter().zip(back.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Signed zero and subnormals survive too.
        let t = Tensor::from_vec(vec![-0.0, f32::MIN_POSITIVE / 2.0], &[2]).unwrap();
        let back = decode_tensor(&encode_tensor(&t)).unwrap();
        assert_eq!(back.data()[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn v2_request_round_trip() {
        let req =
            Request::v2(Verb::Infer, 99, 777, "vgg16-s", Some(tensor(&[3]))).with_replica_hint(2);
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let back = read_request(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(back, req);
        // v2-only verbs round-trip.
        for verb in [Verb::ListModels, Verb::ModelStats] {
            let req = Request::v2(verb, 5, 0, "mlp1", None);
            let mut wire = Vec::new();
            write_request(&mut wire, &req).unwrap();
            assert_eq!(read_request(&mut wire.as_slice()).unwrap().unwrap(), req);
        }
    }

    #[test]
    fn response_round_trip_both_versions() {
        let mut wire = Vec::new();
        write_response(&mut wire, Status::Busy, 9, b"queue full").unwrap();
        let back = read_response(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(back.status, Status::Busy);
        assert_eq!(back.id, 9);
        assert_eq!(back.payload, b"queue full");
    }

    #[test]
    fn clean_eof_is_none_mid_frame_is_error() {
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
        let mut wire = Vec::new();
        write_response(&mut wire, Status::Ok, 1, b"xyz").unwrap();
        let truncated = &wire[..wire.len() - 1];
        assert!(matches!(
            read_response(&mut &truncated[..]),
            Err(ServeError::Io(_))
        ));
        let header_cut = &wire[..2];
        assert!(matches!(
            read_frame(&mut &header_cut[..]),
            Err(ServeError::Io(_))
        ));
    }

    #[test]
    fn oversized_frame_rejected() {
        let wire = (MAX_FRAME_BYTES + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn garbage_preambles_are_malformed_not_decoded() {
        // Not the MAGIC byte: Malformed.
        assert!(matches!(parse_request(&[]), Err(ServeError::Malformed(_))));
        assert!(matches!(
            parse_request(&[0x7f, 1, 2, 3]),
            Err(ServeError::Malformed(_))
        ));
        assert!(matches!(
            parse_request(&[99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ServeError::Malformed(_))
        ));
        // Magic with a bogus version: Malformed.
        assert!(matches!(
            parse_request(&[MAGIC, 9, 1]),
            Err(ServeError::Malformed(_))
        ));
        // Magic with an unknown verb: Malformed.
        assert!(matches!(
            parse_request(&[MAGIC, PROTOCOL_V2, 200]),
            Err(ServeError::Malformed(_))
        ));
        // A verb byte with no preamble — the former single-model frame
        // layout `[verb][u64 id][u32 deadline]` — is Malformed too.
        for verb in 1..=6u8 {
            assert!(matches!(
                parse_request(&[verb, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
                Err(ServeError::Malformed(_))
            ));
        }
    }

    #[test]
    fn random_bytes_never_panic_and_are_rejected() {
        // A deterministic xorshift stream of garbage payloads; none may
        // panic, and any that parse must carry a valid verb (the odds of
        // random bytes forming a valid frame are astronomically small,
        // but the contract is "no panic, clean error", not "always Err").
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..256usize {
            let payload: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
            match parse_request(&payload) {
                Ok(req) => assert!(matches!(
                    req.verb,
                    Verb::Infer
                        | Verb::InferBatch
                        | Verb::Ping
                        | Verb::Stats
                        | Verb::ListModels
                        | Verb::ModelStats
                )),
                Err(ServeError::Malformed(_)) | Err(ServeError::Protocol(_)) => {}
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
    }

    #[test]
    fn malformed_payloads_rejected() {
        // Rank 0 and excessive rank.
        assert!(decode_tensor(&[0]).is_err());
        assert!(decode_tensor(&[(MAX_TENSOR_RANK + 1) as u8]).is_err());
        // Element count mismatch with data length.
        let mut bytes = vec![1u8];
        put_u32(&mut bytes, 3);
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(decode_tensor(&bytes).is_err());
        // Trailing garbage.
        let mut ok = encode_tensor(&tensor(&[2]));
        ok.push(0);
        assert!(decode_tensor(&ok).is_err());
        // A valid preamble with trailing garbage is Protocol, not
        // Malformed — the frame was recognizable.
        let mut wire = encode_request(&Request::v2(Verb::Ping, 1, 0, "", None)).unwrap();
        wire.push(0xee);
        assert!(matches!(parse_request(&wire), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn frame_accum_matches_blocking_reader_byte_at_a_time() {
        let req = Request::v2(Verb::Infer, 42, 100, "mlp1", Some(tensor(&[2, 3])));
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        // Two back-to-back frames in one stream.
        let second = Request::v2(Verb::Ping, 7, 0, "", None);
        write_request(&mut wire, &second).unwrap();
        let blocking_first = read_frame(&mut wire.as_slice()).unwrap().unwrap();

        let mut accum = FrameAccum::new();
        let mut frames = Vec::new();
        for &b in &wire {
            let (used, done) = accum.feed(&[b]).unwrap();
            assert_eq!(used, 1);
            if let Some(f) = done {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], blocking_first);
        assert_eq!(parse_request(&frames[0]).unwrap(), req);
        assert_eq!(parse_request(&frames[1]).unwrap(), second);
        assert!(!accum.mid_frame());
    }

    #[test]
    fn frame_accum_drains_multi_frame_buffer() {
        let mut wire = Vec::new();
        write_response(&mut wire, Status::Ok, 1, b"ab").unwrap();
        write_response(&mut wire, Status::Busy, 2, b"").unwrap();
        let mut accum = FrameAccum::new();
        let mut at = 0usize;
        let mut frames = Vec::new();
        while at < wire.len() {
            let (used, done) = accum.feed(&wire[at..]).unwrap();
            at += used;
            if let Some(f) = done {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], encode_response(Status::Ok, 1, b"ab"));
        assert_eq!(frames[1], encode_response(Status::Busy, 2, b""));
    }

    #[test]
    fn frame_accum_rejects_oversized_header_before_buffering() {
        let mut accum = FrameAccum::new();
        let header = (MAX_FRAME_BYTES + 1).to_le_bytes();
        // First three bytes are fine; the fourth completes the header.
        assert!(accum.feed(&header[..3]).unwrap().1.is_none());
        assert!(matches!(
            accum.feed(&header[3..]),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn frame_accum_reports_mid_frame() {
        let mut accum = FrameAccum::new();
        assert!(!accum.mid_frame());
        accum.feed(&[3, 0]).unwrap();
        assert!(accum.mid_frame(), "partial header is mid-frame");
        accum.feed(&[0, 0, 0xaa]).unwrap();
        assert!(accum.mid_frame(), "partial payload is mid-frame");
        let (_, done) = accum.feed(&[0xbb, 0xcc]).unwrap();
        assert_eq!(done.unwrap(), vec![0xaa, 0xbb, 0xcc]);
        assert!(!accum.mid_frame());
    }

    #[test]
    fn encode_response_frame_matches_write_response() {
        let mut wire = Vec::new();
        write_response(&mut wire, Status::Expired, 88, b"late").unwrap();
        assert_eq!(wire, encode_response_frame(Status::Expired, 88, b"late"));
    }

    #[test]
    fn model_list_round_trip() {
        let models = vec![
            ModelInfo {
                name: "mlp1".into(),
                sample_shape: vec![1, 28, 28],
                replicas: 3,
                healthy: 2,
            },
            ModelInfo {
                name: "vgg19-s".into(),
                sample_shape: vec![3, 32, 32],
                replicas: 1,
                healthy: 1,
            },
        ];
        let back = decode_model_list(&encode_model_list(&models)).unwrap();
        assert_eq!(back, models);
        assert!(decode_model_list(&[1, 2, 3]).is_err());
        let mut extra = encode_model_list(&models);
        extra.push(0);
        assert!(decode_model_list(&extra).is_err());
    }
}
