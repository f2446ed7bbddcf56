//! Error type for the serving layer.

use std::error::Error;
use std::fmt;
use std::io;

use resipe::ResipeError;

/// Errors produced by the server, the client, and the wire protocol.
///
/// The admission-control outcomes ([`ServeError::Busy`],
/// [`ServeError::Expired`], [`ServeError::ShuttingDown`]) are expected
/// operating conditions, not failures: an overloaded server answers
/// `Busy` instead of queueing unboundedly, and a draining server answers
/// `ShuttingDown` instead of accepting work it will not finish.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A socket operation failed.
    Io(io::Error),
    /// A frame violated the wire protocol (bad magic, truncated payload,
    /// unknown verb or status, oversized frame, malformed tensor).
    Protocol(String),
    /// The server's bounded request queue was full — back off and retry.
    Busy,
    /// The request's deadline passed before the server executed it.
    Expired,
    /// The request was well-framed but invalid (e.g. a sample shape that
    /// does not match the served network's input).
    BadRequest(String),
    /// The server is draining and refuses new work.
    ShuttingDown,
    /// The hardware engine failed while executing the batch
    /// (server-side [`ResipeError`], carried as text over the wire).
    Engine(String),
    /// The frame's preamble was not the magic+version pair (or named an
    /// unknown verb). Unlike
    /// [`ServeError::Protocol`] (a recognizable frame with invalid
    /// content), a malformed preamble is answered without any attempt
    /// to decode the rest of the payload.
    Malformed(String),
    /// The request addressed a model name the server does not serve.
    NoSuchModel(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Busy => write!(f, "server busy: request queue full"),
            ServeError::Expired => write!(f, "request deadline expired before execution"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Engine(msg) => write!(f, "engine error: {msg}"),
            ServeError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            ServeError::NoSuchModel(name) => write!(f, "no such model: {name}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<ResipeError> for ServeError {
    fn from(e: ResipeError) -> ServeError {
        ServeError::Engine(e.to_string())
    }
}

impl From<resipe_nn::NnError> for ServeError {
    fn from(e: resipe_nn::NnError) -> ServeError {
        ServeError::Protocol(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ServeError::Busy.to_string().contains("queue full"));
        assert!(ServeError::Expired.to_string().contains("deadline"));
        assert!(ServeError::ShuttingDown.to_string().contains("shutting"));
        assert!(ServeError::BadRequest("shape".into())
            .to_string()
            .contains("shape"));
    }

    #[test]
    fn io_errors_convert_and_source() {
        let e = ServeError::from(io::Error::other("boom"));
        assert!(matches!(e, ServeError::Io(_)));
        assert!(e.source().is_some());
    }
}
