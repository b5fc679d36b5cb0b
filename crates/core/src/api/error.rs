//! The typed error surface of the matching protocol.
//!
//! Every failure a client or server can hit on the protocol path
//! is a [`MatchError`] variant — panics are reserved for programmer errors
//! inside the engines (violated internal invariants), never for malformed
//! input or misconfiguration.

use cm_bfv::DecodeError;

use crate::api::Backend;

/// Everything that can go wrong on the secure-matching protocol path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// No database has been loaded into the matcher yet.
    NoDatabase,
    /// A serialized database or ciphertext failed to decode.
    Decode(DecodeError),
    /// The query is empty; an empty pattern has no well-defined matches.
    EmptyQuery,
    /// A configuration value is invalid for the selected backend.
    InvalidConfig(&'static str),
    /// A search worker thread panicked; the batch cannot be trusted.
    WorkerPanicked,
    /// A query arrived in a backend's native wire format, but this backend
    /// defines no such format (only the CIPHERMATCH family does; Plain
    /// takes its query as bits).
    WireQueryUnsupported(Backend),
    /// A backend name failed to parse (see [`Backend::parse`]).
    UnknownBackend(String),
    /// A request named a tenant the serving process has not registered.
    UnknownTenant(String),
    /// The serving process is at one of its admission caps — open
    /// sockets (`max_open_sockets`) or concurrently queued request
    /// frames (`max_inflight_frames`) — and rejected the work with this
    /// typed error instead of growing past the bound.
    ServerBusy {
        /// The admission cap the server enforced (whichever of the two
        /// was exceeded). Renamed from `max_connections`; the wire slot
        /// is positional, so old peers decode it unchanged.
        max_open_sockets: usize,
    },
    /// A wire frame or message violated the protocol framing rules.
    Frame(&'static str),
    /// The transport under the wire protocol failed (socket I/O).
    Transport(String),
    /// The request failed its authorization check: a channel-key proof did
    /// not verify, a channel key did not match the tenant's provisioned
    /// key, or an upload nonce was replayed. The registry state is left
    /// untouched.
    Unauthorized(&'static str),
    /// Admitting a database would exceed the host memory budget even
    /// after every evictable tenant was demoted to the cold tier.
    QuotaExceeded {
        /// The configured host memory budget in bytes.
        budget: u64,
        /// The bytes the rejected database needed.
        required: u64,
    },
    /// A chunked database upload violated its declared shape: a chunk out
    /// of order or duplicated, data overrunning the declared size, or a
    /// commit before every declared chunk arrived.
    UploadIncomplete(&'static str),
    /// The peer closed the connection before answering the in-flight
    /// request (e.g. the server hung up mid-upload).
    ConnectionClosed,
    /// A server-side internal invariant did not hold, or the OS refused
    /// a worker thread (the typed stand-in for what would otherwise be a
    /// panic on the serving path: request handling must answer with a
    /// wire error frame, never unwind a worker).
    Internal(&'static str),
}

impl std::fmt::Display for MatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchError::NoDatabase => {
                write!(f, "no database loaded; call load_database first")
            }
            MatchError::Decode(e) => write!(f, "malformed encrypted database: {e}"),
            MatchError::EmptyQuery => write!(f, "query must be non-empty"),
            MatchError::InvalidConfig(what) => write!(f, "invalid matcher configuration: {what}"),
            MatchError::WorkerPanicked => write!(f, "a search worker thread panicked"),
            MatchError::WireQueryUnsupported(backend) => write!(
                f,
                "backend {backend} has no native encrypted-query wire format"
            ),
            MatchError::UnknownBackend(name) => write!(f, "unknown backend name {name:?}"),
            MatchError::UnknownTenant(id) => write!(f, "unknown tenant {id:?}"),
            MatchError::ServerBusy { max_open_sockets } => write!(
                f,
                "server is at its admission cap of {max_open_sockets}; retry later"
            ),
            MatchError::Frame(what) => write!(f, "malformed wire frame: {what}"),
            MatchError::Transport(what) => write!(f, "transport failure: {what}"),
            MatchError::Unauthorized(what) => write!(f, "unauthorized: {what}"),
            MatchError::QuotaExceeded { budget, required } => write!(
                f,
                "database of {required} bytes exceeds the {budget}-byte host memory budget"
            ),
            MatchError::UploadIncomplete(what) => write!(f, "incomplete upload: {what}"),
            MatchError::ConnectionClosed => {
                write!(f, "the peer closed the connection mid-request")
            }
            MatchError::Internal(what) => {
                write!(f, "internal server invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for MatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MatchError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for MatchError {
    fn from(e: DecodeError) -> Self {
        MatchError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(MatchError::QuotaExceeded {
            budget: 8,
            required: 9
        }
        .to_string()
        .contains("9 bytes"));
        let e: MatchError = DecodeError::Truncated.into();
        assert!(e.to_string().contains("truncated"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
