//! The blocking wire-protocol client.
//!
//! [`MatchClient`] speaks the framed binary protocol over one TCP
//! connection. Queries go out either as plaintext bits (hosted-key
//! tenants: the server sees the pattern, by design) or as pre-encrypted
//! CIPHERMATCH wire bytes produced by a [`crate::QueryKit`] (client-key
//! tenants: what travels is the query's *length* and its ciphertexts —
//! no alignment class, mask or segment derived from the pattern); sealed
//! index lists come back and are opened with the tenant's AES channel
//! key ([`TenantAccess`]) — the client never sees another tenant's
//! results in the clear.
//!
//! Every request is encoded once, behind its frame header, into a send
//! buffer the client keeps, and leaves in one write on a socket with
//! `TCP_NODELAY` always set: a request/response protocol has nothing to
//! coalesce with, and a header sent ahead of its payload (or a small
//! frame held back by Nagle's algorithm) waits out the peer's delayed
//! ACK — ≈ 40 ms per call on loopback. The reply is read into a receive
//! buffer kept the same way.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use cm_core::{BitString, MatchError, MatchStats};
use cm_ssd::SecureIndexChannel;

use crate::wire::{
    auth_tag, begin_frame, content_digest, finish_frame, read_frame_into, upload_tag, write_framed,
    DatabaseInfoReply, EvictAuth, QueryPayload, Request, Response, TenantInfo, TenantSpec,
    UploadAuth, UploadPhase, OP_EVICT,
};

/// A tenant's client-side credentials: the id plus the AES-256 channel
/// key delivered offline (paper §7.2). The key both opens sealed index
/// lists and proves ownership for the lifecycle operations
/// ([`MatchClient::upload_database`], [`MatchClient::evict_database`]).
pub struct TenantAccess {
    id: String,
    key: [u8; 32],
    channel: SecureIndexChannel,
}

impl std::fmt::Debug for TenantAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantAccess")
            .field("id", &self.id)
            .finish()
    }
}

impl TenantAccess {
    /// Binds a tenant id to its AES channel key.
    pub fn new(id: &str, channel_key: &[u8; 32]) -> Self {
        Self {
            id: id.to_string(),
            key: *channel_key,
            channel: SecureIndexChannel::new(channel_key),
        }
    }

    /// The tenant id.
    pub fn id(&self) -> &str {
        &self.id
    }
}

/// One opened match result.
#[derive(Debug, Clone)]
pub struct MatchReply {
    /// Matching global bit offsets, ascending.
    pub indices: Vec<usize>,
    /// Statistics the query added on the server.
    pub stats: MatchStats,
    /// Per-shard breakdown of `stats` (one entry for unsharded tenants).
    pub shard_stats: Vec<MatchStats>,
    /// Modeled hardware latency of the AES sealing step.
    pub seal_latency: Duration,
}

/// A blocking client over one connection.
#[derive(Debug)]
pub struct MatchClient {
    stream: TcpStream,
    /// The outgoing frame, header included; reused by every call.
    send: Vec<u8>,
    /// The payload of the last reply; reused by every call.
    recv: Vec<u8>,
}

impl MatchClient {
    /// Default per-operation socket timeout: generous enough for a
    /// paper-parameter homomorphic sweep, bounded enough that a stalled
    /// server fails the call instead of hanging the process.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(120);

    /// Connects to a serving process with [`Self::DEFAULT_TIMEOUT`] on
    /// reads and writes (tune with [`Self::set_timeout`]) and
    /// `TCP_NODELAY` set.
    ///
    /// # Errors
    ///
    /// [`MatchError::Transport`] if the connection fails or the socket
    /// refuses an option.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, MatchError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| MatchError::Transport(format!("connect: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| MatchError::Transport(format!("set TCP_NODELAY: {e}")))?;
        let client = Self {
            stream,
            send: Vec::new(),
            recv: Vec::new(),
        };
        client.set_timeout(Some(Self::DEFAULT_TIMEOUT))?;
        Ok(client)
    }

    /// Sets the read/write timeout for every subsequent operation
    /// (`None` blocks indefinitely).
    ///
    /// # Errors
    ///
    /// [`MatchError::Transport`] if the socket rejects the option.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> Result<(), MatchError> {
        self.stream
            .set_read_timeout(timeout)
            .and_then(|()| self.stream.set_write_timeout(timeout))
            .map_err(|e| MatchError::Transport(format!("set timeout: {e}")))
    }

    /// One request/response exchange: `request` is encoded into the send
    /// buffer, behind the reserved frame header, and leaves in one write.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, MatchError> {
        begin_frame(&mut self.send);
        // A request that does not encode or frame (a length past its
        // prefix, a payload past the frame cap) fails here, typed, with
        // nothing written: the connection stays at a frame boundary.
        request.encode_into(&mut self.send)?;
        finish_frame(&mut self.send)?;
        // The server may reject the connection outright (e.g. a typed
        // `ServerBusy` past its connection cap) by sending one error frame
        // and closing before ever reading a request — which can break this
        // write. Always try to read the pending frame: a typed rejection
        // beats a bare broken-pipe transport error.
        let wrote = write_framed(&mut self.stream, &self.send);
        match read_frame_into(&mut self.stream, &mut self.recv) {
            Ok(true) => Response::decode(&self.recv),
            // The server hung up instead of answering — whether our write
            // got through (clean hangup) or broke mid-frame (half-written
            // request, e.g. a connection dropped mid-upload). Either way
            // the caller gets the typed [`MatchError::ConnectionClosed`],
            // never a raw io-error string it would have to parse.
            // (A peer that closes with part of the request unread resets
            // the connection: the read then fails instead of ending, and
            // `read_frame_into` types that the same way.)
            Ok(false) | Err(MatchError::ConnectionClosed) => Err(MatchError::ConnectionClosed),
            Err(MatchError::Transport(_)) if wrote.is_err() => Err(MatchError::ConnectionClosed),
            Err(read_err) => {
                wrote?;
                Err(read_err)
            }
        }
    }

    /// Pings the server, returning the backends it can serve (the
    /// [`cm_core::Backend::ALL`] names, `ifp` included).
    ///
    /// # Errors
    ///
    /// Transport/framing errors, or the server's reported [`MatchError`].
    pub fn backends(&mut self) -> Result<Vec<String>, MatchError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong { backends } => Ok(backends),
            Response::Error(e) => Err(e),
            _ => Err(MatchError::Frame("unexpected response kind")),
        }
    }

    /// Liveness probe: one `Ping`/`Pong` round trip, discarding the
    /// backend listing. An idle connection answering this proves it is
    /// still admitted and live — under the reactor front-end, without
    /// ever having held a worker slot while idle.
    ///
    /// # Errors
    ///
    /// Transport/framing errors, or the server's reported [`MatchError`].
    pub fn ping(&mut self) -> Result<(), MatchError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong { .. } => Ok(()),
            Response::Error(e) => Err(e),
            _ => Err(MatchError::Frame("unexpected response kind")),
        }
    }

    /// Lists the registered tenants.
    ///
    /// # Errors
    ///
    /// Transport/framing errors, or the server's reported [`MatchError`].
    pub fn tenants(&mut self) -> Result<Vec<TenantInfo>, MatchError> {
        match self.roundtrip(&Request::ListTenants)? {
            Response::Tenants(tenants) => Ok(tenants),
            Response::Error(e) => Err(e),
            _ => Err(MatchError::Frame("unexpected response kind")),
        }
    }

    /// Reads a tenant's lifetime statistics and query count.
    ///
    /// # Errors
    ///
    /// Transport/framing errors, or the server's reported [`MatchError`].
    pub fn tenant_stats(&mut self, tenant: &str) -> Result<(MatchStats, u64), MatchError> {
        let request = Request::TenantStats {
            tenant: tenant.to_string(),
        };
        match self.roundtrip(&request)? {
            Response::TenantStats { stats, queries } => Ok((stats, queries)),
            Response::Error(e) => Err(e),
            _ => Err(MatchError::Frame("unexpected response kind")),
        }
    }

    /// Chunk size [`Self::upload_database`] splits a serialized database
    /// into (1 MiB — far below the frame cap, so progress acks flow
    /// regularly during a large upload).
    pub const UPLOAD_CHUNK_BYTES: usize = 1 << 20;

    /// Uploads a serialized encrypted database
    /// ([`cm_core::ErasedMatcher::export_database`]) for `access.id`,
    /// chunked, and registers the tenant on the server with the matcher
    /// described by `spec`. `nonce` must strictly exceed every nonce this
    /// tenant id has used before (replays are rejected). Returns the
    /// server's accounting charge and any tenants the admission demoted.
    ///
    /// The first upload for an id binds it to `access`'s channel key;
    /// later uploads and evictions must present the same key.
    ///
    /// # Errors
    ///
    /// Transport/framing errors, [`MatchError::ConnectionClosed`] if the
    /// server hangs up mid-upload, or the server's reported
    /// [`MatchError`] ([`MatchError::Unauthorized`],
    /// [`MatchError::QuotaExceeded`], [`MatchError::UploadIncomplete`],
    /// decode failures, …).
    pub fn upload_database(
        &mut self,
        access: &TenantAccess,
        spec: &TenantSpec,
        database: &[u8],
        nonce: u64,
    ) -> Result<(u64, Vec<String>), MatchError> {
        let total_bytes = database.len() as u64;
        let chunks: Vec<&[u8]> = if database.is_empty() {
            vec![&[]]
        } else {
            database.chunks(Self::UPLOAD_CHUNK_BYTES).collect()
        };
        // The tag binds the tenant, nonce, declared size, the full spec,
        // and a digest of the payload bytes — the server rejects a
        // commit whose received bytes do not hash to `content`.
        let content = content_digest(&access.key, database);
        let begin = Request::LoadDatabase {
            tenant: access.id.clone(),
            phase: UploadPhase::Begin {
                auth: UploadAuth {
                    nonce,
                    channel_key: access.key,
                    content,
                    tag: upload_tag(&access.key, &access.id, nonce, total_bytes, spec, &content),
                },
                spec: spec.clone(),
                total_bytes,
                chunk_count: u32::try_from(chunks.len())
                    .map_err(|_| MatchError::Frame("upload chunk count exceeds the wire u32"))?,
            },
        };
        Self::expect_progress(self.roundtrip(&begin)?)?;
        for (index, chunk) in (0..).zip(&chunks) {
            let request = Request::LoadDatabase {
                tenant: access.id.clone(),
                phase: UploadPhase::Chunk {
                    index,
                    data: chunk.to_vec(),
                },
            };
            Self::expect_progress(self.roundtrip(&request)?)?;
        }
        let commit = Request::LoadDatabase {
            tenant: access.id.clone(),
            phase: UploadPhase::Commit,
        };
        match self.roundtrip(&commit)? {
            Response::DatabaseLoaded { bytes, demoted } => Ok((bytes, demoted)),
            Response::Error(e) => Err(e),
            _ => Err(MatchError::Frame("unexpected response kind")),
        }
    }

    fn expect_progress(response: Response) -> Result<(), MatchError> {
        match response {
            Response::UploadProgress { .. } => Ok(()),
            Response::Error(e) => Err(e),
            _ => Err(MatchError::Frame("unexpected response kind")),
        }
    }

    /// Evicts `access.id`'s database from the serving host entirely,
    /// proving ownership with a channel-key MAC (the key itself never
    /// travels). Returns the hot-tier bytes the server released.
    ///
    /// # Errors
    ///
    /// Transport/framing errors, or the server's reported [`MatchError`]
    /// ([`MatchError::Unauthorized`], [`MatchError::UnknownTenant`]).
    pub fn evict_database(&mut self, access: &TenantAccess, nonce: u64) -> Result<u64, MatchError> {
        let request = Request::EvictDatabase {
            tenant: access.id.clone(),
            auth: EvictAuth {
                nonce,
                tag: auth_tag(&access.key, OP_EVICT, &access.id, 0, nonce, &[]),
            },
        };
        match self.roundtrip(&request)? {
            Response::Evicted { freed_bytes } => Ok(freed_bytes),
            Response::Error(e) => Err(e),
            _ => Err(MatchError::Frame("unexpected response kind")),
        }
    }

    /// Reads the server's full telemetry snapshot — every counter,
    /// gauge, and histogram from the reactor event loop down to the
    /// compute pool (see `cm_telemetry::metric_names` for the
    /// catalog). Render it with
    /// [`cm_telemetry::MetricsSnapshot::render_text`] or query single
    /// series with its `counter`/`gauge`/`histogram` accessors.
    ///
    /// # Errors
    ///
    /// Transport/framing errors, or the server's reported [`MatchError`].
    pub fn metrics(&mut self) -> Result<cm_telemetry::MetricsSnapshot, MatchError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            Response::Error(e) => Err(e),
            _ => Err(MatchError::Frame("unexpected response kind")),
        }
    }

    /// Reads a tenant database's lifecycle state (tier, accounting
    /// charge, pinning, lifetime query count).
    ///
    /// # Errors
    ///
    /// Transport/framing errors, or the server's reported [`MatchError`].
    pub fn database_info(&mut self, tenant: &str) -> Result<DatabaseInfoReply, MatchError> {
        let request = Request::DatabaseInfo {
            tenant: tenant.to_string(),
        };
        match self.roundtrip(&request)? {
            Response::DatabaseInfo(info) => Ok(info),
            Response::Error(e) => Err(e),
            _ => Err(MatchError::Frame("unexpected response kind")),
        }
    }

    /// Runs a plaintext-bits query against a hosted-key tenant.
    ///
    /// # Errors
    ///
    /// Transport/framing errors, or the server's reported [`MatchError`].
    pub fn search_bits(
        &mut self,
        access: &TenantAccess,
        query: &BitString,
    ) -> Result<MatchReply, MatchError> {
        self.search(access, QueryPayload::Bits(query.clone()))
    }

    /// Runs a pre-encrypted CIPHERMATCH wire query (built with a
    /// [`crate::QueryKit`]) against a client-key tenant.
    ///
    /// # Errors
    ///
    /// Transport/framing errors, or the server's reported [`MatchError`].
    pub fn search_encoded(
        &mut self,
        access: &TenantAccess,
        encoded_query: &[u8],
    ) -> Result<MatchReply, MatchError> {
        self.search(access, QueryPayload::CmWire(encoded_query.to_vec()))
    }

    /// One Match exchange for `query` against `access.id`.
    fn search(
        &mut self,
        access: &TenantAccess,
        query: QueryPayload,
    ) -> Result<MatchReply, MatchError> {
        let request = Request::Match {
            tenant: access.id.clone(),
            query,
        };
        match self.roundtrip(&request)? {
            Response::Matched {
                nonce,
                mut sealed_indices,
                stats,
                shard_stats,
                seal_latency,
            } => {
                // The seal nonce is server-assigned (unique per tenant, so
                // AES-CTR keystreams never repeat under one channel key)
                // and travels with the reply. A hostile or buggy peer's
                // list surfaces as a typed error.
                let indices = access
                    .channel
                    .try_open(&mut sealed_indices, nonce)
                    .map_err(|_| MatchError::Frame("sealed index list is malformed"))?;
                Ok(MatchReply {
                    indices,
                    stats,
                    shard_stats,
                    seal_latency,
                })
            }
            Response::Error(e) => Err(e),
            _ => Err(MatchError::Frame("unexpected response kind")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connected_sockets_have_nodelay_set() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = MatchClient::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.stream.nodelay().unwrap());
    }

    #[test]
    fn over_long_tenant_ids_fail_typed_and_send_nothing() {
        let server = crate::MatchServer::new(crate::TenantRegistry::new())
            .spawn("127.0.0.1:0")
            .unwrap();
        let mut client = MatchClient::connect(server.addr()).unwrap();
        // Past the u16 length prefix: no id check of the client's own,
        // only the codec's width rule.
        let id = "x".repeat(70_000);
        let access = TenantAccess::new(&id, &[7; 32]);
        let spec = TenantSpec {
            backend: "plain".into(),
            seed: 1,
            insecure: true,
            workers: 1,
        };
        let frame_error = |result: Result<(), MatchError>| {
            assert!(matches!(result, Err(MatchError::Frame(_))), "{result:?}");
        };
        frame_error(client.tenant_stats(&id).map(drop));
        frame_error(client.database_info(&id).map(drop));
        frame_error(client.upload_database(&access, &spec, b"db", 1).map(drop));
        frame_error(client.evict_database(&access, 1).map(drop));
        frame_error(
            client
                .search_bits(&access, &BitString::from_ascii("q"))
                .map(drop),
        );
        // Nothing reached the socket: the connection is still at a frame
        // boundary and answers the next request.
        client.ping().unwrap();
        server.shutdown();
    }
}
