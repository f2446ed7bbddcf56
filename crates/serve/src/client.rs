//! A blocking TCP client for the serving protocol.
//!
//! [`Client`]'s own inference verbs (`infer`, `infer_batch`) address the
//! server's default model; [`Client::model`] returns a [`ModelHandle`]
//! that addresses a named model (and optionally a pinned replica).

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use resipe_nn::tensor::Tensor;

use crate::error::ServeError;
use crate::metrics::{ModelStatsBlock, ServerStats};
use crate::protocol::{
    decode_model_list, decode_tensor, read_response, write_request, ModelInfo, Request, Response,
    Status, Verb,
};

/// A blocking client over one TCP connection.
///
/// Requests are issued synchronously — each call writes one frame and
/// waits for the matching reply (ids are verified). For concurrent load,
/// open one `Client` per thread; the server coalesces across
/// connections, which is exactly where the batched-serving speedup
/// comes from.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    deadline_us: u32,
}

impl Client {
    /// Connects to a [`Server`](crate::server::Server).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Connects with a bound on how long the TCP handshake may take.
    /// A server whose accept backlog is full (or a blackholed route)
    /// fails here with [`std::io::ErrorKind::TimedOut`] instead of
    /// hanging for the OS connect timeout (minutes on most stacks).
    ///
    /// # Errors
    ///
    /// Propagates connection failures, including the timeout.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Client, ServeError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Client::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> Result<Client, ServeError> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            next_id: 1,
            deadline_us: 0,
        })
    }

    /// Bounds how long any subsequent call waits for the server's
    /// reply bytes (`None` restores blocking forever). When the server
    /// goes silent mid-reply the pending call fails with an
    /// [`ServeError::Io`] whose kind is `WouldBlock` or `TimedOut`
    /// (platform-dependent) instead of wedging the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates socket option failures (e.g. a zero duration).
    pub fn with_read_timeout(self, timeout: Option<Duration>) -> Result<Client, ServeError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(self)
    }

    /// Sets a per-request relative deadline applied to subsequent
    /// inference calls (`Duration::ZERO` clears it). The server drops
    /// requests still queued when the deadline passes and answers
    /// [`ServeError::Expired`].
    pub fn with_deadline(mut self, deadline: Duration) -> Client {
        self.deadline_us = deadline.as_micros().min(u128::from(u32::MAX)) as u32;
        self
    }

    /// Addresses the named model (empty = the server's default model).
    /// The handle borrows this client's connection; requests through it
    /// interleave with direct calls.
    pub fn model<'c>(&'c mut self, name: &str) -> ModelHandle<'c> {
        ModelHandle {
            client: self,
            model: name.to_owned(),
            replica_hint: None,
        }
    }

    /// Lists the models the server registers, with replica counts and
    /// health.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol failures.
    pub fn list_models(&mut self) -> Result<Vec<ModelInfo>, ServeError> {
        let resp = self.request(Verb::ListModels, "", None, None)?;
        decode_model_list(&resp.payload)
    }

    /// Fetches one model's stats block.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchModel`] when the model is unknown; socket
    /// and protocol failures propagate.
    pub fn model_stats(&mut self, name: &str) -> Result<ModelStatsBlock, ServeError> {
        let resp = self.request(Verb::ModelStats, name, None, None)?;
        ModelStatsBlock::decode(&resp.payload)
    }

    /// Sends one request under a fresh id — the inference verbs carry
    /// the client's deadline — and waits for its reply.
    fn request(
        &mut self,
        verb: Verb,
        model: &str,
        replica_hint: Option<u32>,
        tensor: Option<Tensor>,
    ) -> Result<Response, ServeError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let deadline_us = if verb.carries_tensor() {
            self.deadline_us
        } else {
            0
        };
        let mut req = Request::v2(verb, id, deadline_us, model, tensor);
        req.replica_hint = replica_hint;
        self.round_trip(req)
    }

    fn round_trip(&mut self, req: Request) -> Result<Response, ServeError> {
        write_request(&mut self.writer, &req)?;
        let resp = read_response(&mut self.reader)?.ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ))
        })?;
        if resp.id != req.id {
            return Err(ServeError::Protocol(format!(
                "response id {} does not match request id {}",
                resp.id, req.id
            )));
        }
        match resp.status {
            Status::Ok => Ok(resp),
            Status::Busy => Err(ServeError::Busy),
            Status::Expired => Err(ServeError::Expired),
            Status::ShuttingDown => Err(ServeError::ShuttingDown),
            Status::BadRequest => Err(ServeError::BadRequest(
                String::from_utf8_lossy(&resp.payload).into_owned(),
            )),
            Status::EngineError => Err(ServeError::Engine(
                String::from_utf8_lossy(&resp.payload).into_owned(),
            )),
            Status::Malformed => Err(ServeError::Malformed(
                String::from_utf8_lossy(&resp.payload).into_owned(),
            )),
            Status::NoSuchModel => Err(ServeError::NoSuchModel(
                String::from_utf8_lossy(&resp.payload).into_owned(),
            )),
        }
    }

    /// Runs one sample (shape = the default model's per-sample shape)
    /// and returns its output with the leading batch dimension
    /// stripped, routed to the server's default model.
    ///
    /// # Errors
    ///
    /// Admission-control statuses map to their [`ServeError`] variants;
    /// socket and protocol failures propagate.
    pub fn infer(&mut self, sample: &Tensor) -> Result<Tensor, ServeError> {
        self.model("").infer(sample)
    }

    /// Runs a batch (first dimension = sample count) against the
    /// default model; the reply keeps the batch dimension.
    ///
    /// # Errors
    ///
    /// As [`Client::infer`].
    pub fn infer_batch(&mut self, batch: &Tensor) -> Result<Tensor, ServeError> {
        self.model("").infer_batch(batch)
    }

    /// Liveness probe; returns the measured round-trip time.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol failures.
    pub fn ping(&mut self) -> Result<Duration, ServeError> {
        let start = Instant::now();
        self.request(Verb::Ping, "", None, None)?;
        Ok(start.elapsed())
    }

    /// Fetches the server's health/metrics snapshot, including the
    /// per-model blocks.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol failures.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        let resp = self.request(Verb::Stats, "", None, None)?;
        ServerStats::decode(&resp.payload)
    }
}

fn strip_batch_dim(payload: &[u8]) -> Result<Tensor, ServeError> {
    let out = decode_tensor(payload)?;
    let shape = out.shape();
    if shape.first() != Some(&1) {
        return Err(ServeError::Protocol(format!(
            "single-sample reply has batch dimension {:?}",
            shape.first()
        )));
    }
    let inner: Vec<usize> = shape[1..].to_vec();
    Tensor::from_vec(out.data().to_vec(), &inner).map_err(ServeError::from)
}

/// Addresses one named model, borrowing a [`Client`]'s connection.
/// Obtained from [`Client::model`].
///
/// ```no_run
/// # use resipe_serve::Client;
/// # fn demo(client: &mut Client, sample: &resipe_nn::tensor::Tensor) {
/// let out = client.model("mlp1").infer(sample).unwrap();
/// # let _ = out;
/// # }
/// ```
#[derive(Debug)]
pub struct ModelHandle<'c> {
    client: &'c mut Client,
    model: String,
    replica_hint: Option<u32>,
}

impl ModelHandle<'_> {
    /// Pins subsequent requests to one replica (useful for comparing
    /// replicas compiled with variation enabled, where each replica's
    /// conductance draw differs). The server honors the hint only
    /// while that replica is healthy.
    pub fn with_replica_hint(mut self, replica: u32) -> Self {
        self.replica_hint = Some(replica);
        self
    }

    fn request(&mut self, verb: Verb, tensor: Option<Tensor>) -> Result<Response, ServeError> {
        self.client
            .request(verb, &self.model, self.replica_hint, tensor)
    }

    /// Runs one sample against this model; the leading batch dimension
    /// is stripped from the reply.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchModel`] when the model is unknown; otherwise
    /// as [`Client::infer`].
    pub fn infer(&mut self, sample: &Tensor) -> Result<Tensor, ServeError> {
        let resp = self.request(Verb::Infer, Some(sample.clone()))?;
        strip_batch_dim(&resp.payload)
    }

    /// Runs a batch against this model; the reply keeps the batch
    /// dimension.
    ///
    /// # Errors
    ///
    /// As [`ModelHandle::infer`].
    pub fn infer_batch(&mut self, batch: &Tensor) -> Result<Tensor, ServeError> {
        let resp = self.request(Verb::InferBatch, Some(batch.clone()))?;
        decode_tensor(&resp.payload)
    }

    /// Fetches this model's stats block (queue/latency/replica
    /// health).
    ///
    /// # Errors
    ///
    /// As [`Client::model_stats`].
    pub fn stats(&mut self) -> Result<ModelStatsBlock, ServeError> {
        let resp = self.request(Verb::ModelStats, None)?;
        ModelStatsBlock::decode(&resp.payload)
    }
}
