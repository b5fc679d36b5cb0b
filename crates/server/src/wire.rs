//! The length-prefixed binary wire protocol.
//!
//! Framing: every message travels as `magic("CMS1") | len:u32-le |
//! payload`, with `len` capped at [`MAX_FRAME_BYTES`] so a lying header
//! can never drive an allocation. A frame is built in one buffer —
//! [`begin_frame`] reserves the eight header bytes, the message encodes
//! itself behind them, [`finish_frame`] patches magic and length in — and
//! leaves in one write, so a small request is one TCP segment and never
//! waits on the peer's delayed ACK. Payloads are tag-discriminated
//! [`Request`]/[`Response`] messages encoded with fixed-width
//! little-endian integers; encrypted queries ride in the `cm-bfv`-backed
//! [`cm_core::EncryptedQuery::encode`] format (the query length and the
//! variant ciphertexts, nothing else) and match results return as
//! AES-sealed index lists ([`cm_ssd::SecureIndexChannel`]), so neither
//! queries nor results cross the socket in the clear for
//! CIPHERMATCH-family tenants.
//!
//! Every decode path returns a typed [`MatchError`] — truncated,
//! oversized, or garbage bytes must never panic the peer (extending the
//! `EncryptedDatabase::decode` hardening to the whole wire surface; the
//! crate's proptests fuzz exactly this contract).

use std::io::{Read, Write};
use std::time::Duration;

use cm_core::{Backend, BitString, MatchError, MatchStats};
use cm_telemetry::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};

/// Frame magic: "CMS1".
const FRAME_MAGIC: [u8; 4] = *b"CMS1";

/// Hard cap on one frame's payload (64 MiB) — large enough for an
/// encrypted query at paper parameters, small enough that a hostile
/// length prefix cannot balloon memory.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Longest tenant id the protocol accepts.
pub const MAX_TENANT_ID: usize = 255;

/// Hard cap on one uploaded database's declared size (1 GiB). A `Begin`
/// frame declaring more is rejected at decode time — before any buffer
/// for the upload exists.
pub const MAX_DATABASE_BYTES: u64 = 1 << 30;

/// Hard cap on the number of chunks one upload may declare.
pub const MAX_UPLOAD_CHUNKS: u32 = 1 << 16;

/// Widest matcher pool a remote tenant may request.
pub const MAX_TENANT_WORKERS: u32 = 64;

/// A client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness + capability probe; answered by [`Response::Pong`] with
    /// the full [`Backend::WIRE`] listing.
    Ping,
    /// Lists the registered tenants; answered by [`Response::Tenants`].
    ListTenants,
    /// Runs one match query for `tenant`; answered by
    /// [`Response::Matched`]. The AES-CTR nonce sealing the index list is
    /// *server-assigned* (monotonic per tenant) and returned in the
    /// response — client-chosen nonces would let two connections reuse
    /// one keystream.
    Match {
        /// Target tenant id.
        tenant: String,
        /// The query itself.
        query: QueryPayload,
    },
    /// Reads a tenant's lifetime statistics; answered by
    /// [`Response::TenantStats`].
    TenantStats {
        /// Target tenant id.
        tenant: String,
    },
    /// One step of a chunked encrypted-database upload (the remote
    /// lifecycle's placement path). The three phases travel on one
    /// connection: `Begin` (authorization + declared shape), `Chunk`
    /// (payload, strictly in order), `Commit` (registers the tenant).
    /// `Begin`/`Chunk` are answered by [`Response::UploadProgress`],
    /// `Commit` by [`Response::DatabaseLoaded`].
    LoadDatabase {
        /// Target tenant id.
        tenant: String,
        /// Which upload step this frame carries.
        phase: UploadPhase,
    },
    /// Retires a tenant's database from the serving host entirely (hot
    /// tier, cold tier, and accounting); answered by
    /// [`Response::Evicted`]. Authorized by proof-of-possession of the
    /// tenant's channel key — a non-owner cannot evict.
    EvictDatabase {
        /// Target tenant id.
        tenant: String,
        /// The owner's proof of possession.
        auth: EvictAuth,
    },
    /// Reads a tenant database's lifecycle state (tier, accounting
    /// charge, pinning); answered by [`Response::DatabaseInfo`].
    DatabaseInfo {
        /// Target tenant id.
        tenant: String,
    },
    /// Reads the server's full telemetry snapshot — every counter,
    /// gauge, and histogram the process has registered, from the
    /// reactor event loop down to the compute pool; answered by
    /// [`Response::Metrics`].
    Metrics,
}

/// One step of a chunked [`Request::LoadDatabase`] upload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UploadPhase {
    /// Opens an upload: authorization, the matcher description the server
    /// will rebuild the tenant from, and the declared payload shape.
    /// A `Begin` abandons any upload already in progress on the
    /// connection.
    Begin {
        /// Proof of possession of the tenant's channel key.
        auth: UploadAuth,
        /// How to rebuild the tenant's matcher (backend, seed, knobs).
        spec: TenantSpec,
        /// Total serialized-database bytes the chunks will carry.
        total_bytes: u64,
        /// How many chunks will follow, in order, before `Commit`.
        chunk_count: u32,
    },
    /// One chunk of the serialized database. Chunks must arrive strictly
    /// in index order; a duplicate or out-of-order index aborts the
    /// upload with a typed [`MatchError::UploadIncomplete`].
    Chunk {
        /// Zero-based chunk index.
        index: u32,
        /// The chunk's bytes.
        data: Vec<u8>,
    },
    /// Closes the upload: every declared chunk must have arrived and the
    /// received bytes must equal the declared total, or the upload fails
    /// with [`MatchError::UploadIncomplete`] and nothing is registered.
    Commit,
}

/// Authorization for [`UploadPhase::Begin`].
///
/// The channel key plays the paper's role of the offline-provisioned
/// tenant credential: the first *completed* upload (at `Commit`) binds
/// the tenant id to this key (standing in for the paper's offline
/// step), and every later lifecycle operation on that id must present
/// the same key — the registry keeps the binding even after the
/// database is evicted, so an id can never be hijacked by
/// re-registering it. `nonce` must strictly increase per tenant id; a
/// replayed nonce is rejected with [`MatchError::Unauthorized`] at
/// `Commit` time. `tag` is an AES-CBC-MAC under the channel key over
/// the operation, tenant id, nonce, declared size, the full
/// [`TenantSpec`], and the payload digest — none of the authorized
/// values (spec knobs included) can be spliced, and the committed bytes
/// must hash to `content` or the commit is rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UploadAuth {
    /// Strictly increasing per-tenant upload nonce.
    pub nonce: u64,
    /// The tenant's AES-256 channel key (bound at the first committed
    /// upload, verified afterwards).
    pub channel_key: [u8; 32],
    /// [`content_digest`] of the full serialized database the chunks
    /// will carry; the server recomputes it over the received bytes at
    /// `Commit` and rejects a mismatch as [`MatchError::Unauthorized`].
    pub content: [u8; 16],
    /// [`upload_tag`] over (tenant, nonce, total_bytes, spec,
    /// `content`).
    pub tag: [u8; 16],
}

/// Authorization for [`Request::EvictDatabase`]: possession of the
/// channel key is proven by the MAC alone — the key itself never
/// travels in an evict frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictAuth {
    /// Strictly increasing per-tenant nonce (shared counter with upload
    /// nonces).
    pub nonce: u64,
    /// [`auth_tag`] over ([`OP_EVICT`], tenant, 0, nonce, no context).
    pub tag: [u8; 16],
}

/// Operation byte for upload authorization tags.
pub const OP_UPLOAD: u8 = 1;

/// Operation byte for evict authorization tags.
pub const OP_EVICT: u8 = 2;

/// Operation byte for upload payload digests ([`content_digest`]).
pub const OP_CONTENT: u8 = 3;

/// The lifecycle MAC: an AES-256 CBC-MAC under the tenant's channel key
/// over the length-prefixed message `op || tenant || extra || nonce ||
/// context`. Only the key holder can produce a valid tag, domain
/// separation comes from `op`, the leading total-length block prevents
/// extension splices, and the nonce makes every tag single-use once the
/// registry's per-tenant high-water mark passes it. Compare tags with
/// [`tags_match`], never `==`.
pub fn auth_tag(
    channel_key: &[u8; 32],
    op: u8,
    tenant: &str,
    extra: u64,
    nonce: u64,
    context: &[u8],
) -> [u8; 16] {
    let aes = cm_aes::Aes::new_256(channel_key);
    // Length-prefixed message: no two distinct (op, tenant, extra,
    // nonce, context) tuples serialize to the same byte stream.
    let mut message = Vec::with_capacity(64 + tenant.len() + context.len());
    message.extend_from_slice(&(tenant.len() as u64).to_le_bytes());
    message.extend_from_slice(&(context.len() as u64).to_le_bytes());
    message.push(op);
    message.extend_from_slice(tenant.as_bytes());
    message.extend_from_slice(&extra.to_le_bytes());
    message.extend_from_slice(&nonce.to_le_bytes());
    message.extend_from_slice(context);
    let mut state = [0u8; 16];
    for block in message.chunks(16) {
        for (s, b) in state.iter_mut().zip(block) {
            *s ^= b;
        }
        state = aes.encrypt_block(&state);
    }
    state
}

/// The keyed digest of an upload's full serialized database, bound into
/// the `Begin` tag so the committed bytes cannot be substituted
/// mid-upload.
pub fn content_digest(channel_key: &[u8; 32], data: &[u8]) -> [u8; 16] {
    auth_tag(channel_key, OP_CONTENT, "", data.len() as u64, 0, data)
}

/// The `Begin` authorization tag: binds the tenant id, nonce, declared
/// size, every [`TenantSpec`] knob, and the payload digest under one
/// MAC.
pub fn upload_tag(
    channel_key: &[u8; 32],
    tenant: &str,
    nonce: u64,
    total_bytes: u64,
    spec: &TenantSpec,
    content: &[u8; 16],
) -> [u8; 16] {
    let mut context = Vec::new();
    put_spec(&mut context, spec);
    context.extend_from_slice(content);
    auth_tag(channel_key, OP_UPLOAD, tenant, total_bytes, nonce, &context)
}

pub use crate::secrecy::{keys_match, tags_match};

/// The wire-tag registry: every discriminant byte the codecs emit or
/// accept, by family (`REQ_` request tags, `RESP_` response tags,
/// `QUERY_` query-payload sub-tags, `PHASE_` upload-phase sub-tags,
/// `ERR_` error tags, `DECODE_` [`cm_bfv::DecodeError`] sub-codes).
///
/// The codecs below use these constants exclusively — a raw integer tag
/// in an encoder or decoder fails the workspace lint (`cargo run -p
/// cm_analyze`, rule `wire-tags`), which also checks each family for
/// duplicate values and each constant for use on both the encode and
/// decode side.
pub mod tags {
    /// [`super::Request::Ping`].
    pub const REQ_PING: u8 = 0;
    /// [`super::Request::ListTenants`].
    pub const REQ_LIST_TENANTS: u8 = 1;
    /// [`super::Request::Match`].
    pub const REQ_MATCH: u8 = 2;
    /// [`super::Request::TenantStats`].
    pub const REQ_TENANT_STATS: u8 = 3;
    /// [`super::Request::LoadDatabase`].
    pub const REQ_LOAD_DATABASE: u8 = 4;
    /// [`super::Request::EvictDatabase`].
    pub const REQ_EVICT_DATABASE: u8 = 5;
    /// [`super::Request::DatabaseInfo`].
    pub const REQ_DATABASE_INFO: u8 = 6;
    /// [`super::Request::Metrics`].
    pub const REQ_METRICS: u8 = 7;

    /// [`super::Response::Pong`].
    pub const RESP_PONG: u8 = 0;
    /// [`super::Response::Tenants`].
    pub const RESP_TENANTS: u8 = 1;
    /// [`super::Response::Matched`].
    pub const RESP_MATCHED: u8 = 2;
    /// [`super::Response::TenantStats`].
    pub const RESP_TENANT_STATS: u8 = 3;
    /// [`super::Response::Error`].
    pub const RESP_ERROR: u8 = 4;
    /// [`super::Response::UploadProgress`].
    pub const RESP_UPLOAD_PROGRESS: u8 = 5;
    /// [`super::Response::DatabaseLoaded`].
    pub const RESP_DATABASE_LOADED: u8 = 6;
    /// [`super::Response::Evicted`].
    pub const RESP_EVICTED: u8 = 7;
    /// [`super::Response::DatabaseInfo`].
    pub const RESP_DATABASE_INFO: u8 = 8;
    /// [`super::Response::Metrics`].
    pub const RESP_METRICS: u8 = 9;

    /// [`super::QueryPayload::Bits`].
    pub const QUERY_BITS: u8 = 0;
    /// [`super::QueryPayload::CmWire`].
    pub const QUERY_CM_WIRE: u8 = 1;

    /// [`super::UploadPhase::Begin`].
    pub const PHASE_BEGIN: u8 = 0;
    /// [`super::UploadPhase::Chunk`].
    pub const PHASE_CHUNK: u8 = 1;
    /// [`super::UploadPhase::Commit`].
    pub const PHASE_COMMIT: u8 = 2;

    /// [`cm_core::MatchError::NoIndexGenerator`].
    pub const ERR_NO_INDEX_GENERATOR: u8 = 0;
    /// [`cm_core::MatchError::NoDatabase`].
    pub const ERR_NO_DATABASE: u8 = 1;
    /// [`cm_core::MatchError::EmptyQuery`].
    pub const ERR_EMPTY_QUERY: u8 = 2;
    /// [`cm_core::MatchError::QueryTooLong`].
    pub const ERR_QUERY_TOO_LONG: u8 = 3;
    /// [`cm_core::MatchError::WindowMismatch`].
    pub const ERR_WINDOW_MISMATCH: u8 = 4;
    /// [`cm_core::MatchError::WorkerPanicked`].
    pub const ERR_WORKER_PANICKED: u8 = 5;
    /// [`cm_core::MatchError::InvalidConfig`].
    pub const ERR_INVALID_CONFIG: u8 = 6;
    /// [`cm_core::MatchError::Decode`] (sub-code in `a`, one of the
    /// `DECODE_` constants).
    pub const ERR_DECODE: u8 = 7;
    /// [`cm_core::MatchError::WireQueryUnsupported`].
    pub const ERR_WIRE_QUERY_UNSUPPORTED: u8 = 8;
    /// [`cm_core::MatchError::UnknownBackend`].
    pub const ERR_UNKNOWN_BACKEND: u8 = 9;
    /// [`cm_core::MatchError::UnknownTenant`].
    pub const ERR_UNKNOWN_TENANT: u8 = 10;
    /// [`cm_core::MatchError::Frame`].
    pub const ERR_FRAME: u8 = 11;
    /// [`cm_core::MatchError::Transport`].
    pub const ERR_TRANSPORT: u8 = 12;
    /// [`cm_core::MatchError::ServerBusy`].
    pub const ERR_SERVER_BUSY: u8 = 13;
    /// [`cm_core::MatchError::Unauthorized`].
    pub const ERR_UNAUTHORIZED: u8 = 14;
    /// [`cm_core::MatchError::QuotaExceeded`].
    pub const ERR_QUOTA_EXCEEDED: u8 = 15;
    /// [`cm_core::MatchError::UploadIncomplete`].
    pub const ERR_UPLOAD_INCOMPLETE: u8 = 16;
    /// [`cm_core::MatchError::WireDatabaseUnsupported`].
    pub const ERR_WIRE_DATABASE_UNSUPPORTED: u8 = 17;
    /// [`cm_core::MatchError::ConnectionClosed`].
    pub const ERR_CONNECTION_CLOSED: u8 = 18;
    /// [`cm_core::MatchError::Internal`].
    pub const ERR_INTERNAL: u8 = 19;

    /// [`cm_bfv::DecodeError::Truncated`].
    pub const DECODE_TRUNCATED: u8 = 0;
    /// [`cm_bfv::DecodeError::BadMagic`].
    pub const DECODE_BAD_MAGIC: u8 = 1;
    /// [`cm_bfv::DecodeError::BadHeader`].
    pub const DECODE_BAD_HEADER: u8 = 2;
    /// [`cm_bfv::DecodeError::CoefficientOverflow`].
    pub const DECODE_COEFFICIENT_OVERFLOW: u8 = 3;
}

/// How a serving host rebuilds a remote tenant's matcher: the
/// wire-transportable subset of [`cm_core::MatcherConfig`]. Key
/// generation is deterministic in `seed`, so a client that built its
/// matcher from the same description holds the same key material — the
/// uploaded ciphertexts decrypt server-side without the secret key ever
/// crossing the wire as bytes of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Backend name ([`Backend::name`]).
    pub backend: String,
    /// Key-generation / query-encryption seed.
    pub seed: u64,
    /// Query window in bits (window-bound backends).
    pub window: u32,
    /// [`cm_core::MatcherConfig::threads`]: the Boolean backend's
    /// per-search window fan-out, in `1..=`[`MAX_TENANT_WORKERS`]. It
    /// does not apply to CM-SW, whose intra-query parallelism is
    /// polynomial-range shards on the compute pool.
    pub threads: u32,
    /// Whether the insecure test parameter sets are selected.
    pub insecure: bool,
    /// Matcher-pool size K (how many of the tenant's queries run
    /// concurrently); at most [`MAX_TENANT_WORKERS`].
    pub workers: u32,
}

impl TenantSpec {
    /// Describes `config` with a pool of `workers`.
    ///
    /// Pinning (exemption from budget-driven demotion) is an
    /// operator-level resource decision and deliberately *not* part of
    /// the wire spec — a remote tenant must not be able to monopolize
    /// the hot tier; operators pin server-side with
    /// `TenantRegistry::set_pinned`.
    pub fn from_config(config: &cm_core::MatcherConfig, workers: u32) -> Self {
        Self {
            backend: config.backend().name().to_string(),
            seed: config.seed_value(),
            window: config.window_bits() as u32,
            threads: config.thread_count() as u32,
            insecure: config.is_insecure_test(),
            workers,
        }
    }

    /// Names the count, if any, outside `1..=`[`MAX_TENANT_WORKERS`]:
    /// the one bound both entry points of a spec — the wire decoder and
    /// `TenantRegistry::register_remote` — refuse it by.
    pub(crate) fn out_of_range(&self) -> Option<&'static str> {
        let in_range = |count: u32| (1..=MAX_TENANT_WORKERS).contains(&count);
        if !in_range(self.workers) {
            Some("tenant worker count out of range")
        } else if !in_range(self.threads) {
            Some("tenant thread count out of range")
        } else {
            None
        }
    }

    /// Rebuilds the [`cm_core::MatcherConfig`] this spec describes.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownBackend`] for an unparseable backend name.
    pub fn to_config(&self) -> Result<cm_core::MatcherConfig, MatchError> {
        let mut config = cm_core::MatcherConfig::new(Backend::parse(&self.backend)?)
            .seed(self.seed)
            .window(self.window as usize)
            .threads(self.threads as usize);
        if self.insecure {
            config = config.insecure_test();
        }
        Ok(config)
    }
}

/// A tenant database's lifecycle state, as reported by
/// [`Request::DatabaseInfo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseInfoReply {
    /// The backend serving this tenant (a [`Backend::name`] string).
    pub backend: String,
    /// Whether the database is hot (a live matcher pool holds it) or
    /// demoted to the cold tier awaiting re-materialization.
    pub resident: bool,
    /// Whether the tenant is exempt from budget-driven demotion.
    pub pinned: bool,
    /// The registry's accounting charge for this database in bytes.
    pub bytes: u64,
    /// Matcher-pool size K when hot.
    pub workers: u32,
    /// Queries served over the tenant's lifetime (survives demotion).
    pub queries: u64,
    /// Where the master copy of the database lives: `"flash"` for
    /// flash-native (`ifp`) tenants and for any demoted tenant (the cold
    /// store's simulated SSD holds the only copy), `"dram"` for a hot
    /// tenant on every other backend.
    pub tier: String,
}

/// How a query travels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryPayload {
    /// Plaintext query bits, for hosted-key tenants: the server-side
    /// matcher owns the keys and encrypts the query itself (every
    /// [`Backend`] supports this mode).
    Bits(BitString),
    /// An already-encrypted query in the CIPHERMATCH wire format
    /// ([`cm_core::EncryptedQuery::encode`]: the query length and the
    /// variant ciphertexts), for client-key tenants: the server learns
    /// the pattern's length and nothing else about it (`ciphermatch` and
    /// `ifp`).
    CmWire(Vec<u8>),
}

/// Identity and backend of a registered tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantInfo {
    /// The tenant id used in [`Request::Match`].
    pub id: String,
    /// The backend serving this tenant (a [`Backend::name`] string).
    pub backend: String,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer: every backend this server build can serve.
    Pong {
        /// [`Backend::WIRE`] names.
        backends: Vec<String>,
    },
    /// The registered tenants.
    Tenants(Vec<TenantInfo>),
    /// One query's result.
    Matched {
        /// The server-assigned AES-CTR nonce the index list was sealed
        /// with — unique per tenant, so no two replies under one channel
        /// key ever share a keystream.
        nonce: u64,
        /// The AES-sealed index list
        /// ([`cm_ssd::SecureIndexChannel::seal`] under `nonce`).
        sealed_indices: Vec<u8>,
        /// Statistics this query added to the tenant's matcher.
        stats: MatchStats,
        /// Per-shard breakdown; field-wise sums to `stats` for sharded
        /// tenants, a single entry equal to `stats` otherwise.
        shard_stats: Vec<MatchStats>,
        /// Modeled hardware latency of sealing the index list.
        seal_latency: Duration,
    },
    /// A tenant's lifetime statistics.
    TenantStats {
        /// Field-wise totals since registration.
        stats: MatchStats,
        /// Queries served.
        queries: u64,
    },
    /// Acknowledges an upload `Begin` or `Chunk` step.
    UploadProgress {
        /// Bytes received so far in this upload.
        received: u64,
        /// The declared total from `Begin`.
        expected: u64,
    },
    /// An upload `Commit` succeeded: the tenant is registered and hot.
    DatabaseLoaded {
        /// The registry's accounting charge for the database in bytes.
        bytes: u64,
        /// Tenants the admission demoted to the cold tier (LRU order).
        demoted: Vec<String>,
    },
    /// An [`Request::EvictDatabase`] succeeded.
    Evicted {
        /// Hot-tier bytes the eviction released from the accounting (0
        /// if the database was already cold).
        freed_bytes: u64,
    },
    /// A tenant database's lifecycle state.
    DatabaseInfo(DatabaseInfoReply),
    /// The server's telemetry snapshot ([`Request::Metrics`]): every
    /// registered counter, gauge, and histogram at one instant, sorted
    /// by name then labels. Histogram buckets travel sparse (index,
    /// count), so an idle server's snapshot stays small.
    Metrics(cm_telemetry::MetricsSnapshot),
    /// The request failed; `error` is the server-side [`MatchError`]
    /// (static-string payloads survive as `"remote"`).
    Error(MatchError),
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

fn io_err(what: &str, e: std::io::Error) -> MatchError {
    MatchError::Transport(format!("{what}: {e}"))
}

/// Bytes of the frame header: magic, then the payload length.
const FRAME_HEADER_BYTES: usize = 8;

/// Starts a frame in `buf`, dropping whatever it held: reserves the
/// header, which [`finish_frame`] fills in once the payload has been
/// appended behind it.
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
}

/// Completes the frame [`begin_frame`] started in `buf`: everything past
/// the reserved header is the payload, and magic and length are patched
/// in front of it.
///
/// # Errors
///
/// [`MatchError::Frame`] if the payload exceeds [`MAX_FRAME_BYTES`] (or
/// `buf` is shorter than a header, i.e. no frame was begun).
pub fn finish_frame(buf: &mut [u8]) -> Result<(), MatchError> {
    let payload = buf
        .len()
        .checked_sub(FRAME_HEADER_BYTES)
        .ok_or(MatchError::Frame("frame buffer holds no header"))?;
    if payload > MAX_FRAME_BYTES {
        return Err(MatchError::Frame("payload exceeds the frame size cap"));
    }
    buf[..4].copy_from_slice(&FRAME_MAGIC);
    buf[4..FRAME_HEADER_BYTES].copy_from_slice(&(payload as u32).to_le_bytes());
    Ok(())
}

/// Writes one frame as a single `write_all` of header and payload
/// together (see [`frame_bytes`]); callers that encode their own messages
/// build the frame in place instead and pay no copy.
///
/// # Errors
///
/// [`MatchError::Frame`] if the payload exceeds [`MAX_FRAME_BYTES`];
/// [`MatchError::Transport`] on socket failure.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), MatchError> {
    write_framed(w, &frame_bytes(payload)?)
}

/// Sends a finished frame: one `write_all`, then a flush.
pub(crate) fn write_framed<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), MatchError> {
    w.write_all(frame).map_err(|e| io_err("write frame", e))?;
    w.flush().map_err(|e| io_err("flush frame", e))
}

/// Reads exactly `buf.len()` bytes; `Ok(false)` means the peer closed the
/// connection cleanly before the first byte (only honored when
/// `eof_ok`).
fn read_fully<R: Read>(r: &mut R, buf: &mut [u8], eof_ok: bool) -> Result<bool, MatchError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 && eof_ok => return Ok(false),
            Ok(0) => return Err(MatchError::Transport("unexpected end of stream".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // The peer dropped the connection with our bytes still unread
            // (a reset, where a drained socket would have read as EOF):
            // a hangup, typed as one.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
                ) =>
            {
                return Err(MatchError::ConnectionClosed)
            }
            Err(e) => return Err(io_err("read", e)),
        }
    }
    Ok(true)
}

/// Reads one frame; `Ok(None)` is a clean end of stream at a frame
/// boundary.
///
/// # Errors
///
/// [`MatchError::Frame`] on bad magic or an oversized length prefix,
/// [`MatchError::ConnectionClosed`] if the peer reset the connection,
/// [`MatchError::Transport`] on any other socket failure or mid-frame
/// EOF.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, MatchError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// [`read_frame`] into a caller-owned buffer, which then holds exactly
/// the payload; `Ok(false)` is a clean end of stream at a frame boundary
/// (and leaves `payload` empty).
pub(crate) fn read_frame_into<R: Read>(
    r: &mut R,
    payload: &mut Vec<u8>,
) -> Result<bool, MatchError> {
    payload.clear();
    let mut header = [0u8; FRAME_HEADER_BYTES];
    if !read_fully(r, &mut header, true)? {
        return Ok(false);
    }
    if header[..4] != FRAME_MAGIC {
        return Err(MatchError::Frame("bad frame magic"));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(MatchError::Frame("frame length exceeds the size cap"));
    }
    payload.resize(len, 0);
    read_fully(r, payload, false)?;
    Ok(true)
}

/// Encodes one frame (header + payload) into an owned buffer, for
/// transports that write asynchronously instead of into a `Write` sink
/// (the reactor queues these byte-for-byte).
///
/// # Errors
///
/// [`MatchError::Frame`] if the payload exceeds [`MAX_FRAME_BYTES`].
pub fn frame_bytes(payload: &[u8]) -> Result<Vec<u8>, MatchError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(MatchError::Frame("payload exceeds the frame size cap"));
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    begin_frame(&mut out);
    out.extend_from_slice(payload);
    finish_frame(&mut out)?;
    Ok(out)
}

/// Incremental frame reassembly: feed bytes in whatever chunks the
/// transport yields, drain complete frame payloads out. Byte-for-byte
/// equivalent to repeated [`read_frame`] calls over the same stream
/// (the crate's proptests assert this at every split point), with the
/// same hostile-header guarantees — magic and length are validated the
/// moment the 8-byte header completes, *before* any payload is
/// buffered, so a lying length prefix can never drive an allocation.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// Bytes of the in-progress frame (header first, then payload).
    buf: Vec<u8>,
    /// Complete payloads not yet handed out.
    ready: std::collections::VecDeque<Vec<u8>>,
    /// Sticky failure: once the stream violates framing it stays bad.
    failed: Option<&'static str>,
}

impl FrameBuffer {
    /// An empty buffer at a frame boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs `bytes`, queueing every frame that completes.
    ///
    /// # Errors
    ///
    /// [`MatchError::Frame`] on bad magic or an oversized length
    /// prefix; the failure is sticky and every later call returns it
    /// again.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), MatchError> {
        if let Some(reason) = self.failed {
            return Err(MatchError::Frame(reason));
        }
        let mut rest = bytes;
        loop {
            // Complete the 8-byte header first; validate it before a
            // single payload byte is accepted.
            if self.buf.len() < 8 {
                let need = 8 - self.buf.len();
                let take = need.min(rest.len());
                self.buf.extend_from_slice(&rest[..take]);
                rest = &rest[take..];
                if self.buf.len() < 8 {
                    return Ok(());
                }
                if self.buf[..4] != FRAME_MAGIC {
                    return Err(self.fail("bad frame magic"));
                }
                let len = u32::from_le_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]]);
                if len as usize > MAX_FRAME_BYTES {
                    return Err(self.fail("frame length exceeds the size cap"));
                }
            }
            let len =
                u32::from_le_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]]) as usize;
            let need = len - (self.buf.len() - 8);
            let take = need.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() - 8 < len {
                return Ok(());
            }
            let payload = self.buf.split_off(8);
            self.buf.clear();
            self.ready.push_back(payload);
            if rest.is_empty() {
                return Ok(());
            }
        }
    }

    fn fail(&mut self, reason: &'static str) -> MatchError {
        self.failed = Some(reason);
        self.buf = Vec::new(); // hostile bytes are dropped, not kept
        MatchError::Frame(reason)
    }

    /// Pops the next fully reassembled frame payload, if any.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        self.ready.pop_front()
    }

    /// Bytes of the in-progress (incomplete) frame currently buffered.
    /// Stays at most `8 + MAX_FRAME_BYTES` by construction, and stays
    /// below 8 until a header has passed validation.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }
}

impl cm_reactor::FrameDecoder for FrameBuffer {
    fn feed(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        FrameBuffer::feed(self, bytes).map_err(|e| match e {
            MatchError::Frame(reason) => reason,
            _ => "invalid frame stream",
        })
    }

    fn next_frame(&mut self) -> Option<Vec<u8>> {
        FrameBuffer::next_frame(self)
    }
}

// ---------------------------------------------------------------------------
// Message encoding primitives
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(data);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bits(out: &mut Vec<u8>, bits: &BitString) {
    put_u64(out, bits.len() as u64);
    let start = out.len();
    out.resize(start + bits.len().div_ceil(8), 0);
    for (i, &b) in bits.bits().iter().enumerate() {
        if b {
            out[start + i / 8] |= 1 << (7 - i % 8);
        }
    }
}

fn put_stats(out: &mut Vec<u8>, s: &MatchStats) {
    for v in [
        s.hom_adds,
        s.hom_muls,
        s.rotations,
        s.bootstraps,
        s.bytes_moved,
        s.flash_wear,
        s.add_time.as_nanos() as u64,
        s.mul_time.as_nanos() as u64,
    ] {
        put_u64(out, v);
    }
}

fn put_spec(out: &mut Vec<u8>, spec: &TenantSpec) {
    put_str(out, &spec.backend);
    put_u64(out, spec.seed);
    out.extend_from_slice(&spec.window.to_le_bytes());
    out.extend_from_slice(&spec.threads.to_le_bytes());
    out.push(spec.insecure as u8);
    out.extend_from_slice(&spec.workers.to_le_bytes());
}

fn read_spec(r: &mut Reader<'_>) -> Result<TenantSpec, MatchError> {
    let backend = r.str()?;
    if backend.is_empty() || backend.len() > 32 {
        return Err(MatchError::Frame("backend name length out of range"));
    }
    let seed = r.u64()?;
    let window = r.u32()?;
    let threads = r.u32()?;
    let insecure = r.bool()?;
    let workers = r.u32()?;
    let spec = TenantSpec {
        backend,
        seed,
        window,
        threads,
        insecure,
        workers,
    };
    match spec.out_of_range() {
        Some(why) => Err(MatchError::Frame(why)),
        None => Ok(spec),
    }
}

/// Bounds-checked message reader; every failure is a typed
/// [`MatchError::Frame`].
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], MatchError> {
        if len > self.remaining() {
            return Err(MatchError::Frame("message truncated"));
        }
        let out = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, MatchError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a fixed-width byte array; a short message is a typed
    /// [`MatchError::Frame`], never a slice-conversion panic.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], MatchError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, MatchError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn bool(&mut self) -> Result<bool, MatchError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(MatchError::Frame("boolean byte out of range")),
        }
    }

    fn u32(&mut self) -> Result<u32, MatchError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, MatchError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, MatchError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn str(&mut self) -> Result<String, MatchError> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| MatchError::Frame("string is not UTF-8"))
    }

    fn tenant_id(&mut self) -> Result<String, MatchError> {
        let id = self.str()?;
        if id.is_empty() || id.len() > MAX_TENANT_ID {
            return Err(MatchError::Frame("tenant id length out of range"));
        }
        Ok(id)
    }

    fn bits(&mut self) -> Result<BitString, MatchError> {
        let bit_len = self.u64()? as usize;
        let byte_len = bit_len.div_ceil(8);
        if byte_len > self.remaining() {
            return Err(MatchError::Frame("bit string longer than its frame"));
        }
        let packed = self.take(byte_len)?;
        let mut out = BitString::new();
        for i in 0..bit_len {
            out.push(packed[i / 8] >> (7 - i % 8) & 1 == 1);
        }
        Ok(out)
    }

    fn stats(&mut self) -> Result<MatchStats, MatchError> {
        Ok(MatchStats {
            hom_adds: self.u64()?,
            hom_muls: self.u64()?,
            rotations: self.u64()?,
            bootstraps: self.u64()?,
            bytes_moved: self.u64()?,
            flash_wear: self.u64()?,
            add_time: Duration::from_nanos(self.u64()?),
            mul_time: Duration::from_nanos(self.u64()?),
        })
    }

    fn finish(self) -> Result<(), MatchError> {
        if self.remaining() != 0 {
            return Err(MatchError::Frame("trailing bytes after message"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Telemetry snapshot codec
// ---------------------------------------------------------------------------

fn put_labels(out: &mut Vec<u8>, labels: &[(String, String)]) {
    out.extend_from_slice(&(labels.len() as u16).to_le_bytes());
    for (k, v) in labels {
        put_str(out, k);
        put_str(out, v);
    }
}

fn read_labels(r: &mut Reader<'_>) -> Result<Vec<(String, String)>, MatchError> {
    let count = r.u16()? as usize;
    // Each label pair costs at least its two length prefixes.
    if count > r.remaining() / 4 {
        return Err(MatchError::Frame("implausible label count"));
    }
    let mut labels = Vec::with_capacity(count);
    for _ in 0..count {
        labels.push((r.str()?, r.str()?));
    }
    Ok(labels)
}

fn put_snapshot(out: &mut Vec<u8>, snap: &MetricsSnapshot) {
    out.extend_from_slice(&(snap.counters.len() as u32).to_le_bytes());
    for c in &snap.counters {
        put_str(out, &c.name);
        put_labels(out, &c.labels);
        put_u64(out, c.value);
    }
    out.extend_from_slice(&(snap.gauges.len() as u32).to_le_bytes());
    for g in &snap.gauges {
        put_str(out, &g.name);
        put_labels(out, &g.labels);
        // Two's-complement round trip: i64 travels as its u64 bits.
        put_u64(out, g.value as u64);
    }
    out.extend_from_slice(&(snap.histograms.len() as u32).to_le_bytes());
    for h in &snap.histograms {
        put_str(out, &h.name);
        put_labels(out, &h.labels);
        put_u64(out, h.count);
        put_u64(out, h.sum);
        out.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
        for &(index, count) in &h.buckets {
            out.extend_from_slice(&index.to_le_bytes());
            put_u64(out, count);
        }
    }
}

fn read_snapshot(r: &mut Reader<'_>) -> Result<MetricsSnapshot, MatchError> {
    // A counter or gauge sample costs at least its name prefix, label
    // count, and fixed-width value (12 bytes); a histogram header costs
    // 24 and each sparse bucket 12. Bounding every count by the actual
    // payload keeps a lying header from driving an allocation.
    let count = r.u32()? as usize;
    if count > r.remaining() / 12 {
        return Err(MatchError::Frame("implausible counter count"));
    }
    let mut counters = Vec::with_capacity(count);
    for _ in 0..count {
        counters.push(CounterSample {
            name: r.str()?,
            labels: read_labels(r)?,
            value: r.u64()?,
        });
    }
    let count = r.u32()? as usize;
    if count > r.remaining() / 12 {
        return Err(MatchError::Frame("implausible gauge count"));
    }
    let mut gauges = Vec::with_capacity(count);
    for _ in 0..count {
        gauges.push(GaugeSample {
            name: r.str()?,
            labels: read_labels(r)?,
            value: r.u64()? as i64,
        });
    }
    let count = r.u32()? as usize;
    if count > r.remaining() / 24 {
        return Err(MatchError::Frame("implausible histogram count"));
    }
    let mut histograms = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.str()?;
        let labels = read_labels(r)?;
        let total = r.u64()?;
        let sum = r.u64()?;
        let bucket_count = r.u32()? as usize;
        if bucket_count > r.remaining() / 12 {
            return Err(MatchError::Frame("implausible bucket count"));
        }
        let mut buckets: Vec<(u32, u64)> = Vec::with_capacity(bucket_count);
        for _ in 0..bucket_count {
            let index = r.u32()?;
            // Out-of-range or out-of-order indices would break the
            // bucket-geometry functions downstream (`bucket_lo` shifts
            // by the bucket's magnitude) and the sparse-merge
            // invariant; reject them structurally.
            if index >= cm_telemetry::HISTOGRAM_BUCKETS as u32 {
                return Err(MatchError::Frame("histogram bucket index out of range"));
            }
            if buckets.last().is_some_and(|&(prev, _)| prev >= index) {
                return Err(MatchError::Frame("histogram buckets out of order"));
            }
            buckets.push((index, r.u64()?));
        }
        histograms.push(HistogramSample {
            name,
            labels,
            count: total,
            sum,
            buckets,
        });
    }
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

// ---------------------------------------------------------------------------
// Error codec
// ---------------------------------------------------------------------------

/// `&'static str` payloads cannot round-trip a wire hop; they surface on
/// the client as this placeholder.
const REMOTE: &str = "remote";

fn put_error(out: &mut Vec<u8>, e: &MatchError) {
    use cm_bfv::DecodeError;
    let (tag, a, b, text): (u8, u64, u64, &str) = match e {
        MatchError::NoIndexGenerator => (tags::ERR_NO_INDEX_GENERATOR, 0, 0, ""),
        MatchError::NoDatabase => (tags::ERR_NO_DATABASE, 0, 0, ""),
        MatchError::EmptyQuery => (tags::ERR_EMPTY_QUERY, 0, 0, ""),
        MatchError::QueryTooLong { max, got } => {
            (tags::ERR_QUERY_TOO_LONG, *max as u64, *got as u64, "")
        }
        MatchError::WindowMismatch { expected, got } => {
            (tags::ERR_WINDOW_MISMATCH, *expected as u64, *got as u64, "")
        }
        MatchError::WorkerPanicked => (tags::ERR_WORKER_PANICKED, 0, 0, ""),
        MatchError::InvalidConfig(what) => (tags::ERR_INVALID_CONFIG, 0, 0, *what),
        MatchError::Decode(d) => {
            let code = match d {
                DecodeError::Truncated => tags::DECODE_TRUNCATED,
                DecodeError::BadMagic => tags::DECODE_BAD_MAGIC,
                DecodeError::BadHeader(_) => tags::DECODE_BAD_HEADER,
                DecodeError::CoefficientOverflow => tags::DECODE_COEFFICIENT_OVERFLOW,
            };
            (tags::ERR_DECODE, u64::from(code), 0, "")
        }
        MatchError::WireQueryUnsupported(backend) => {
            (tags::ERR_WIRE_QUERY_UNSUPPORTED, 0, 0, backend.name())
        }
        MatchError::UnknownBackend(name) => (tags::ERR_UNKNOWN_BACKEND, 0, 0, name.as_str()),
        MatchError::UnknownTenant(id) => (tags::ERR_UNKNOWN_TENANT, 0, 0, id.as_str()),
        MatchError::Frame(what) => (tags::ERR_FRAME, 0, 0, *what),
        MatchError::Transport(what) => (tags::ERR_TRANSPORT, 0, 0, what.as_str()),
        MatchError::ServerBusy { max_open_sockets } => {
            (tags::ERR_SERVER_BUSY, *max_open_sockets as u64, 0, "")
        }
        MatchError::Unauthorized(what) => (tags::ERR_UNAUTHORIZED, 0, 0, *what),
        MatchError::QuotaExceeded { budget, required } => {
            (tags::ERR_QUOTA_EXCEEDED, *budget, *required, "")
        }
        MatchError::UploadIncomplete(what) => (tags::ERR_UPLOAD_INCOMPLETE, 0, 0, *what),
        MatchError::WireDatabaseUnsupported(backend) => {
            (tags::ERR_WIRE_DATABASE_UNSUPPORTED, 0, 0, backend.name())
        }
        MatchError::ConnectionClosed => (tags::ERR_CONNECTION_CLOSED, 0, 0, ""),
        MatchError::Internal(what) => (tags::ERR_INTERNAL, 0, 0, *what),
    };
    out.push(tag);
    put_u64(out, a);
    put_u64(out, b);
    // Never slice mid-codepoint: an overlong message is summarized.
    let text = if text.len() <= u16::MAX as usize {
        text
    } else {
        "error message too long for the wire"
    };
    put_str(out, text);
}

fn read_error(r: &mut Reader<'_>) -> Result<MatchError, MatchError> {
    use cm_bfv::DecodeError;
    let tag = r.u8()?;
    let a = r.u64()? as usize;
    let b = r.u64()? as usize;
    let text = r.str()?;
    Ok(match tag {
        tags::ERR_NO_INDEX_GENERATOR => MatchError::NoIndexGenerator,
        tags::ERR_NO_DATABASE => MatchError::NoDatabase,
        tags::ERR_EMPTY_QUERY => MatchError::EmptyQuery,
        tags::ERR_QUERY_TOO_LONG => MatchError::QueryTooLong { max: a, got: b },
        tags::ERR_WINDOW_MISMATCH => MatchError::WindowMismatch {
            expected: a,
            got: b,
        },
        tags::ERR_WORKER_PANICKED => MatchError::WorkerPanicked,
        tags::ERR_INVALID_CONFIG => MatchError::InvalidConfig(REMOTE),
        tags::ERR_DECODE => MatchError::Decode(match a as u8 {
            tags::DECODE_TRUNCATED => DecodeError::Truncated,
            tags::DECODE_BAD_MAGIC => DecodeError::BadMagic,
            tags::DECODE_BAD_HEADER => DecodeError::BadHeader(REMOTE),
            tags::DECODE_COEFFICIENT_OVERFLOW => DecodeError::CoefficientOverflow,
            // An unknown sub-code still decodes; overflow is the most
            // conservative reading of a corrupt ciphertext.
            _ => DecodeError::CoefficientOverflow,
        }),
        tags::ERR_WIRE_QUERY_UNSUPPORTED => MatchError::WireQueryUnsupported(
            Backend::parse(&text).map_err(|_| MatchError::Frame("unknown backend in error"))?,
        ),
        tags::ERR_UNKNOWN_BACKEND => MatchError::UnknownBackend(text),
        tags::ERR_UNKNOWN_TENANT => MatchError::UnknownTenant(text),
        tags::ERR_FRAME => MatchError::Frame(REMOTE),
        tags::ERR_TRANSPORT => MatchError::Transport(text),
        tags::ERR_SERVER_BUSY => MatchError::ServerBusy {
            max_open_sockets: a,
        },
        tags::ERR_UNAUTHORIZED => MatchError::Unauthorized(REMOTE),
        tags::ERR_QUOTA_EXCEEDED => MatchError::QuotaExceeded {
            budget: a as u64,
            required: b as u64,
        },
        tags::ERR_UPLOAD_INCOMPLETE => MatchError::UploadIncomplete(REMOTE),
        tags::ERR_WIRE_DATABASE_UNSUPPORTED => MatchError::WireDatabaseUnsupported(
            Backend::parse(&text).map_err(|_| MatchError::Frame("unknown backend in error"))?,
        ),
        tags::ERR_CONNECTION_CLOSED => MatchError::ConnectionClosed,
        tags::ERR_INTERNAL => MatchError::Internal(REMOTE),
        _ => return Err(MatchError::Frame("unknown error tag")),
    })
}

// ---------------------------------------------------------------------------
// Request / Response codecs
// ---------------------------------------------------------------------------

/// Appends a [`Request::Match`] carrying [`QueryPayload::Bits`], from
/// borrowed parts.
pub(crate) fn put_match_bits(out: &mut Vec<u8>, tenant: &str, bits: &BitString) {
    out.push(tags::REQ_MATCH);
    put_str(out, tenant);
    out.push(tags::QUERY_BITS);
    put_bits(out, bits);
}

/// Appends a [`Request::Match`] carrying [`QueryPayload::CmWire`], from
/// borrowed parts.
pub(crate) fn put_match_wire(out: &mut Vec<u8>, tenant: &str, encoded_query: &[u8]) {
    out.push(tags::REQ_MATCH);
    put_str(out, tenant);
    out.push(tags::QUERY_CM_WIRE);
    put_bytes(out, encoded_query);
}

/// Appends the part every [`Request::LoadDatabase`] starts with: request
/// tag, tenant, phase tag.
fn put_upload_phase(out: &mut Vec<u8>, tenant: &str, phase_tag: u8) {
    out.push(tags::REQ_LOAD_DATABASE);
    put_str(out, tenant);
    out.push(phase_tag);
}

/// Appends a [`Request::LoadDatabase`] in [`UploadPhase::Chunk`], from
/// borrowed parts.
pub(crate) fn put_upload_chunk(out: &mut Vec<u8>, tenant: &str, index: u32, data: &[u8]) {
    put_upload_phase(out, tenant, tags::PHASE_CHUNK);
    out.extend_from_slice(&index.to_le_bytes());
    put_bytes(out, data);
}

impl Request {
    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Self::encode`]'s bytes to `out` (behind a reserved frame
    /// header, typically).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(tags::REQ_PING),
            Request::ListTenants => out.push(tags::REQ_LIST_TENANTS),
            Request::Match { tenant, query } => match query {
                QueryPayload::Bits(bits) => put_match_bits(out, tenant, bits),
                QueryPayload::CmWire(bytes) => put_match_wire(out, tenant, bytes),
            },
            Request::TenantStats { tenant } => {
                out.push(tags::REQ_TENANT_STATS);
                put_str(out, tenant);
            }
            Request::LoadDatabase { tenant, phase } => match phase {
                UploadPhase::Begin {
                    auth,
                    spec,
                    total_bytes,
                    chunk_count,
                } => {
                    put_upload_phase(out, tenant, tags::PHASE_BEGIN);
                    put_u64(out, auth.nonce);
                    out.extend_from_slice(&auth.channel_key);
                    out.extend_from_slice(&auth.content);
                    out.extend_from_slice(&auth.tag);
                    put_spec(out, spec);
                    put_u64(out, *total_bytes);
                    out.extend_from_slice(&chunk_count.to_le_bytes());
                }
                UploadPhase::Chunk { index, data } => put_upload_chunk(out, tenant, *index, data),
                UploadPhase::Commit => put_upload_phase(out, tenant, tags::PHASE_COMMIT),
            },
            Request::EvictDatabase { tenant, auth } => {
                out.push(tags::REQ_EVICT_DATABASE);
                put_str(out, tenant);
                put_u64(out, auth.nonce);
                out.extend_from_slice(&auth.tag);
            }
            Request::DatabaseInfo { tenant } => {
                out.push(tags::REQ_DATABASE_INFO);
                put_str(out, tenant);
            }
            Request::Metrics => out.push(tags::REQ_METRICS),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::Frame`] on truncated, oversized, or garbage
    /// bytes; never panics.
    pub fn decode(data: &[u8]) -> Result<Self, MatchError> {
        let mut r = Reader::new(data);
        let req = match r.u8()? {
            tags::REQ_PING => Request::Ping,
            tags::REQ_LIST_TENANTS => Request::ListTenants,
            tags::REQ_MATCH => {
                let tenant = r.tenant_id()?;
                let query = match r.u8()? {
                    tags::QUERY_BITS => QueryPayload::Bits(r.bits()?),
                    tags::QUERY_CM_WIRE => QueryPayload::CmWire(r.bytes()?),
                    _ => return Err(MatchError::Frame("unknown query payload tag")),
                };
                Request::Match { tenant, query }
            }
            tags::REQ_TENANT_STATS => Request::TenantStats {
                tenant: r.tenant_id()?,
            },
            tags::REQ_LOAD_DATABASE => {
                let tenant = r.tenant_id()?;
                let phase = match r.u8()? {
                    tags::PHASE_BEGIN => {
                        let nonce = r.u64()?;
                        let channel_key: [u8; 32] = r.array()?;
                        let content: [u8; 16] = r.array()?;
                        let tag: [u8; 16] = r.array()?;
                        let spec = read_spec(&mut r)?;
                        let total_bytes = r.u64()?;
                        if total_bytes > MAX_DATABASE_BYTES {
                            return Err(MatchError::Frame(
                                "declared database size exceeds the cap",
                            ));
                        }
                        let chunk_count = r.u32()?;
                        if chunk_count == 0 || chunk_count > MAX_UPLOAD_CHUNKS {
                            return Err(MatchError::Frame("chunk count out of range"));
                        }
                        UploadPhase::Begin {
                            auth: UploadAuth {
                                nonce,
                                channel_key,
                                content,
                                tag,
                            },
                            spec,
                            total_bytes,
                            chunk_count,
                        }
                    }
                    tags::PHASE_CHUNK => UploadPhase::Chunk {
                        index: r.u32()?,
                        data: r.bytes()?,
                    },
                    tags::PHASE_COMMIT => UploadPhase::Commit,
                    _ => return Err(MatchError::Frame("unknown upload phase tag")),
                };
                Request::LoadDatabase { tenant, phase }
            }
            tags::REQ_EVICT_DATABASE => Request::EvictDatabase {
                tenant: r.tenant_id()?,
                auth: EvictAuth {
                    nonce: r.u64()?,
                    tag: r.array()?,
                },
            },
            tags::REQ_DATABASE_INFO => Request::DatabaseInfo {
                tenant: r.tenant_id()?,
            },
            tags::REQ_METRICS => Request::Metrics,
            _ => return Err(MatchError::Frame("unknown request tag")),
        };
        r.finish()?;
        Ok(req)
    }
}

/// The `DatabaseLoaded` demoted-tenant count as the wire's `u32`, or a
/// typed [`MatchError::Frame`] when the list is too long to count —
/// mirroring the decoder, which already rejects implausible counts. The
/// encoder must never cast-truncate: a wrong count desyncs the decoder
/// from the ids that follow it.
fn demoted_count(len: usize) -> Result<u32, MatchError> {
    u32::try_from(len).map_err(|_| MatchError::Frame("demoted-tenant count exceeds the wire u32"))
}

impl Response {
    /// Serializes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong { backends } => {
                out.push(tags::RESP_PONG);
                out.extend_from_slice(&(backends.len() as u16).to_le_bytes());
                for b in backends {
                    put_str(&mut out, b);
                }
            }
            // The registry has no tenant cap, so the list can outgrow
            // the wire's u16 count; like `DatabaseLoaded` below, such a
            // reply degrades to a typed Frame error instead of a wrapped
            // count the decoder would desync on.
            Response::Tenants(tenants) => match u16::try_from(tenants.len()) {
                Ok(count) => {
                    out.push(tags::RESP_TENANTS);
                    out.extend_from_slice(&count.to_le_bytes());
                    for t in tenants {
                        put_str(&mut out, &t.id);
                        put_str(&mut out, &t.backend);
                    }
                }
                Err(_) => {
                    out.push(tags::RESP_ERROR);
                    put_error(
                        &mut out,
                        &MatchError::Frame("tenant count exceeds the wire u16"),
                    );
                }
            },
            Response::Matched {
                nonce,
                sealed_indices,
                stats,
                shard_stats,
                seal_latency,
            } => {
                out.push(tags::RESP_MATCHED);
                put_u64(&mut out, *nonce);
                put_bytes(&mut out, sealed_indices);
                put_stats(&mut out, stats);
                out.extend_from_slice(&(shard_stats.len() as u16).to_le_bytes());
                for s in shard_stats {
                    put_stats(&mut out, s);
                }
                put_u64(&mut out, seal_latency.as_nanos() as u64);
            }
            Response::TenantStats { stats, queries } => {
                out.push(tags::RESP_TENANT_STATS);
                put_stats(&mut out, stats);
                put_u64(&mut out, *queries);
            }
            Response::Error(e) => {
                out.push(tags::RESP_ERROR);
                put_error(&mut out, e);
            }
            Response::UploadProgress { received, expected } => {
                out.push(tags::RESP_UPLOAD_PROGRESS);
                put_u64(&mut out, *received);
                put_u64(&mut out, *expected);
            }
            Response::DatabaseLoaded { bytes, demoted } => {
                // u32: one admission can demote far more tenants than a
                // u16 could count. A count past u32 must not be cast
                // down — a silently truncated count would desync the
                // decoder from the ids that follow — so an overflowing
                // reply degrades to a typed Frame error instead.
                match demoted_count(demoted.len()) {
                    Ok(count) => {
                        out.push(tags::RESP_DATABASE_LOADED);
                        put_u64(&mut out, *bytes);
                        out.extend_from_slice(&count.to_le_bytes());
                        for id in demoted {
                            put_str(&mut out, id);
                        }
                    }
                    Err(e) => {
                        out.push(tags::RESP_ERROR);
                        put_error(&mut out, &e);
                    }
                }
            }
            Response::Evicted { freed_bytes } => {
                out.push(tags::RESP_EVICTED);
                put_u64(&mut out, *freed_bytes);
            }
            Response::DatabaseInfo(info) => {
                out.push(tags::RESP_DATABASE_INFO);
                put_str(&mut out, &info.backend);
                out.push(info.resident as u8);
                out.push(info.pinned as u8);
                put_u64(&mut out, info.bytes);
                out.extend_from_slice(&info.workers.to_le_bytes());
                put_u64(&mut out, info.queries);
                put_str(&mut out, &info.tier);
            }
            Response::Metrics(snapshot) => {
                out.push(tags::RESP_METRICS);
                put_snapshot(&mut out, snapshot);
            }
        }
        out
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::Frame`] on truncated, oversized, or garbage
    /// bytes; never panics.
    pub fn decode(data: &[u8]) -> Result<Self, MatchError> {
        let mut r = Reader::new(data);
        let resp = match r.u8()? {
            tags::RESP_PONG => {
                let count = r.u16()? as usize;
                if count > Backend::WIRE.len() * 4 {
                    return Err(MatchError::Frame("implausible backend count"));
                }
                let mut backends = Vec::with_capacity(count);
                for _ in 0..count {
                    backends.push(r.str()?);
                }
                Response::Pong { backends }
            }
            tags::RESP_TENANTS => {
                let count = r.u16()? as usize;
                // Each listed tenant costs at least its two length
                // prefixes; bound the allocation by the actual payload.
                if count > r.remaining() / 4 {
                    return Err(MatchError::Frame("implausible tenant count"));
                }
                let mut tenants = Vec::with_capacity(count);
                for _ in 0..count {
                    tenants.push(TenantInfo {
                        id: r.str()?,
                        backend: r.str()?,
                    });
                }
                Response::Tenants(tenants)
            }
            tags::RESP_MATCHED => {
                let nonce = r.u64()?;
                let sealed_indices = r.bytes()?;
                let stats = r.stats()?;
                let count = r.u16()? as usize;
                // One serialized MatchStats is 64 bytes.
                if count > r.remaining() / 64 {
                    return Err(MatchError::Frame("implausible shard count"));
                }
                let mut shard_stats = Vec::with_capacity(count);
                for _ in 0..count {
                    shard_stats.push(r.stats()?);
                }
                let seal_latency = Duration::from_nanos(r.u64()?);
                Response::Matched {
                    nonce,
                    sealed_indices,
                    stats,
                    shard_stats,
                    seal_latency,
                }
            }
            tags::RESP_TENANT_STATS => Response::TenantStats {
                stats: r.stats()?,
                queries: r.u64()?,
            },
            tags::RESP_ERROR => Response::Error(read_error(&mut r)?),
            tags::RESP_UPLOAD_PROGRESS => Response::UploadProgress {
                received: r.u64()?,
                expected: r.u64()?,
            },
            tags::RESP_DATABASE_LOADED => {
                let bytes = r.u64()?;
                let count = r.u32()? as usize;
                // Each demoted id costs at least its length prefix.
                if count > r.remaining() / 2 {
                    return Err(MatchError::Frame("implausible demoted-tenant count"));
                }
                let mut demoted = Vec::with_capacity(count);
                for _ in 0..count {
                    demoted.push(r.str()?);
                }
                Response::DatabaseLoaded { bytes, demoted }
            }
            tags::RESP_EVICTED => Response::Evicted {
                freed_bytes: r.u64()?,
            },
            tags::RESP_DATABASE_INFO => Response::DatabaseInfo(DatabaseInfoReply {
                backend: r.str()?,
                resident: r.bool()?,
                pinned: r.bool()?,
                bytes: r.u64()?,
                workers: r.u32()?,
                queries: r.u64()?,
                tier: r.str()?,
            }),
            tags::RESP_METRICS => Response::Metrics(read_snapshot(&mut r)?),
            _ => return Err(MatchError::Frame("unknown response tag")),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let payload = b"the payload".to_vec();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    /// A sink that takes at most `limit` bytes per `write` and counts the
    /// calls.
    struct CountingSink {
        limit: usize,
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let take = buf.len().min(self.limit);
            self.writes += 1;
            self.bytes.extend_from_slice(&buf[..take]);
            Ok(take)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        for len in [0usize, 1, 1_400, 1_048_576] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            let mut sink = CountingSink {
                limit: usize::MAX,
                writes: 0,
                bytes: Vec::new(),
            };
            write_frame(&mut sink, &payload).unwrap();
            assert_eq!(sink.writes, 1, "{len}-byte payload");
            assert_eq!(sink.bytes, frame_bytes(&payload).unwrap());
            assert_eq!(
                read_frame(&mut &sink.bytes[..]).unwrap(),
                Some(payload.clone())
            );
            // A sink that takes 1 000 bytes at a time still ends up with
            // the whole frame, byte for byte.
            let mut slow = CountingSink {
                limit: 1_000,
                writes: 0,
                bytes: Vec::new(),
            };
            write_frame(&mut slow, &payload).unwrap();
            assert_eq!(slow.writes, (len + 8).div_ceil(1_000));
            assert_eq!(slow.bytes, sink.bytes);
        }
        // The cap is enforced before anything is written.
        let mut sink = CountingSink {
            limit: usize::MAX,
            writes: 0,
            bytes: Vec::new(),
        };
        let oversized = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(matches!(
            write_frame(&mut sink, &oversized),
            Err(MatchError::Frame(_))
        ));
        assert_eq!(sink.writes, 0);
        let mut unbegun = vec![0u8; 3];
        assert!(finish_frame(&mut unbegun).is_err());
    }

    #[test]
    fn borrowed_encoders_equal_the_owned_requests() {
        let framed = |encode: &dyn Fn(&mut Vec<u8>)| {
            let mut buf = vec![0xEE; 5]; // stale contents are dropped
            begin_frame(&mut buf);
            encode(&mut buf);
            finish_frame(&mut buf).unwrap();
            buf
        };
        let owned = |request: Request| frame_bytes(&request.encode()).unwrap();
        let bits = BitString::from_ascii("needle!");
        let wire: Vec<u8> = (0..=255u8).cycle().take(3_000).collect();
        for bits in [BitString::new(), bits.slice(0, 13), bits] {
            assert_eq!(
                framed(&|out| put_match_bits(out, "alice", &bits)),
                owned(Request::Match {
                    tenant: "alice".into(),
                    query: QueryPayload::Bits(bits.clone()),
                })
            );
        }
        for wire in [&wire[..0], &wire[..1], &wire[..]] {
            assert_eq!(
                framed(&|out| put_match_wire(out, "bob", wire)),
                owned(Request::Match {
                    tenant: "bob".into(),
                    query: QueryPayload::CmWire(wire.to_vec()),
                })
            );
            assert_eq!(
                framed(&|out| put_upload_chunk(out, "carol", 7, wire)),
                owned(Request::LoadDatabase {
                    tenant: "carol".into(),
                    phase: UploadPhase::Chunk {
                        index: 7,
                        data: wire.to_vec(),
                    },
                })
            );
        }
        assert_eq!(
            framed(&|out| Request::Ping.encode_into(out)),
            owned(Request::Ping)
        );
    }

    #[test]
    fn lying_frame_lengths_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CMS1");
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(MatchError::Frame(_))
        ));
        // Bad magic.
        let mut bad = Vec::new();
        write_frame(&mut bad, b"x").unwrap();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(MatchError::Frame(_))
        ));
        // Mid-frame EOF.
        let mut trunc = Vec::new();
        write_frame(&mut trunc, b"four bytes short").unwrap();
        trunc.truncate(trunc.len() - 4);
        assert!(matches!(
            read_frame(&mut &trunc[..]),
            Err(MatchError::Transport(_))
        ));
    }

    #[test]
    fn requests_round_trip() {
        let samples = [
            Request::Ping,
            Request::ListTenants,
            Request::Match {
                tenant: "alice".into(),
                query: QueryPayload::Bits(BitString::from_ascii("needle")),
            },
            Request::Match {
                tenant: "bob".into(),
                query: QueryPayload::CmWire(vec![1, 2, 3, 255]),
            },
            Request::TenantStats {
                tenant: "carol".into(),
            },
            Request::Metrics,
        ];
        for req in samples {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let stats = MatchStats {
            hom_adds: 10,
            bytes_moved: 4096,
            flash_wear: 0,
            add_time: Duration::from_micros(123),
            ..MatchStats::default()
        };
        let samples = [
            Response::Pong {
                backends: Backend::WIRE.iter().map(|b| b.name().to_string()).collect(),
            },
            Response::Tenants(vec![TenantInfo {
                id: "alice".into(),
                backend: "ciphermatch".into(),
            }]),
            Response::Matched {
                nonce: u64::MAX,
                sealed_indices: vec![9; 40],
                stats,
                shard_stats: vec![stats, MatchStats::default()],
                seal_latency: Duration::from_nanos(126),
            },
            Response::TenantStats { stats, queries: 3 },
            Response::Error(MatchError::QueryTooLong { max: 8, got: 99 }),
            Response::Error(MatchError::UnknownTenant("mallory".into())),
            Response::Error(MatchError::ServerBusy {
                max_open_sockets: 64,
            }),
            Response::Metrics(sample_snapshot()),
            Response::Metrics(MetricsSnapshot::default()),
        ];
        for resp in samples {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let registry = cm_telemetry::MetricsRegistry::new();
        registry
            .register_counter(
                cm_telemetry::metric_names::SERVER_REQUESTS,
                &[("tag", "match")],
            )
            .add(17);
        registry
            .register_gauge(
                cm_telemetry::metric_names::EXEC_QUEUE_DEPTH,
                &[("pool", "frames")],
            )
            .add(-3);
        let h =
            registry.register_histogram(cm_telemetry::metric_names::SERVER_REQUEST_LATENCY_US, &[]);
        for v in [0, 1, 9, 100, 5000, u64::MAX] {
            h.record(v);
        }
        registry.snapshot()
    }

    #[test]
    fn hostile_snapshot_buckets_are_rejected() {
        // Baseline: a well-formed single-bucket histogram decodes.
        let mut snap = MetricsSnapshot::default();
        snap.histograms.push(cm_telemetry::HistogramSample {
            name: "cm_x_us".into(),
            labels: vec![],
            count: 1,
            sum: 4,
            buckets: vec![(4, 1)],
        });
        let good = Response::Metrics(snap.clone()).encode();
        assert_eq!(
            Response::decode(&good).unwrap(),
            Response::Metrics(snap.clone())
        );
        // An index past the bucket table would make quantile math shift
        // out of range; it must fail as a typed frame error.
        snap.histograms[0].buckets = vec![(cm_telemetry::HISTOGRAM_BUCKETS as u32, 1)];
        assert!(matches!(
            Response::decode(&Response::Metrics(snap.clone()).encode()),
            Err(MatchError::Frame(_))
        ));
        // Out-of-order (or duplicate) indices break the sparse-merge
        // invariant.
        snap.histograms[0].buckets = vec![(5, 1), (5, 2)];
        assert!(matches!(
            Response::decode(&Response::Metrics(snap).encode()),
            Err(MatchError::Frame(_))
        ));
    }

    fn sample_spec() -> TenantSpec {
        TenantSpec {
            backend: "ciphermatch".into(),
            seed: 0xDEAD_BEEF,
            window: 32,
            threads: 2,
            insecure: true,
            workers: 4,
        }
    }

    #[test]
    fn lifecycle_requests_round_trip() {
        let key = [0x42u8; 32];
        let content = content_digest(&key, b"the serialized database");
        let samples = [
            Request::LoadDatabase {
                tenant: "alice".into(),
                phase: UploadPhase::Begin {
                    auth: UploadAuth {
                        nonce: 7,
                        channel_key: key,
                        content,
                        tag: upload_tag(&key, "alice", 7, 1000, &sample_spec(), &content),
                    },
                    spec: sample_spec(),
                    total_bytes: 1000,
                    chunk_count: 3,
                },
            },
            Request::LoadDatabase {
                tenant: "alice".into(),
                phase: UploadPhase::Chunk {
                    index: 2,
                    data: vec![1, 2, 3, 255, 0],
                },
            },
            Request::LoadDatabase {
                tenant: "alice".into(),
                phase: UploadPhase::Commit,
            },
            Request::EvictDatabase {
                tenant: "bob".into(),
                auth: EvictAuth {
                    nonce: 9,
                    tag: auth_tag(&key, OP_EVICT, "bob", 0, 9, &[]),
                },
            },
            Request::DatabaseInfo {
                tenant: "carol".into(),
            },
        ];
        for req in samples {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn lifecycle_responses_round_trip() {
        let samples = [
            Response::UploadProgress {
                received: 512,
                expected: 4096,
            },
            Response::DatabaseLoaded {
                bytes: 4096,
                demoted: vec!["old-tenant".into(), "older-tenant".into()],
            },
            Response::Evicted { freed_bytes: 4096 },
            Response::DatabaseInfo(DatabaseInfoReply {
                backend: "ciphermatch".into(),
                resident: true,
                pinned: false,
                bytes: 4096,
                workers: 4,
                queries: 17,
                tier: "dram".into(),
            }),
            Response::DatabaseInfo(DatabaseInfoReply {
                backend: "ifp".into(),
                resident: false,
                pinned: false,
                bytes: 8192,
                workers: 2,
                queries: 3,
                tier: "flash".into(),
            }),
            Response::Error(MatchError::Unauthorized("replayed upload nonce")),
            Response::Error(MatchError::QuotaExceeded {
                budget: 1 << 20,
                required: 1 << 21,
            }),
            Response::Error(MatchError::UploadIncomplete("missing chunks")),
            Response::Error(MatchError::WireDatabaseUnsupported(Backend::Boolean)),
            Response::Error(MatchError::ConnectionClosed),
        ];
        for resp in samples {
            let decoded = Response::decode(&resp.encode()).unwrap();
            // Static strings survive the hop as the REMOTE placeholder.
            match (&decoded, &resp) {
                (
                    Response::Error(MatchError::Unauthorized(a)),
                    Response::Error(MatchError::Unauthorized(_)),
                ) => assert_eq!(*a, REMOTE),
                (
                    Response::Error(MatchError::UploadIncomplete(a)),
                    Response::Error(MatchError::UploadIncomplete(_)),
                ) => assert_eq!(*a, REMOTE),
                _ => assert_eq!(decoded, resp, "{resp:?}"),
            }
        }
    }

    #[test]
    fn demoted_counts_past_u32_become_frame_errors_not_truncation() {
        assert_eq!(demoted_count(0).unwrap(), 0);
        assert_eq!(demoted_count(u32::MAX as usize).unwrap(), u32::MAX);
        // One past u32::MAX must refuse, not wrap to 0 — a wrapped count
        // would desync the decoder from the ids that follow it.
        let overflowing = u32::MAX as usize + 1;
        assert!(matches!(
            demoted_count(overflowing),
            Err(MatchError::Frame(_))
        ));
    }

    #[test]
    fn tenant_lists_past_u16_become_frame_errors_not_truncation() {
        let list = |n: usize| {
            Response::Tenants(
                (0..n)
                    .map(|i| TenantInfo {
                        id: format!("t{i}"),
                        backend: "plain".into(),
                    })
                    .collect(),
            )
        };
        let full = list(u16::MAX as usize);
        assert_eq!(Response::decode(&full.encode()).unwrap(), full);
        // One more must refuse, not wrap the count to 0 and leave every
        // entry behind as trailing bytes.
        assert!(matches!(
            Response::decode(&list(u16::MAX as usize + 1).encode()),
            Ok(Response::Error(MatchError::Frame(_)))
        ));
    }

    #[test]
    fn oversized_upload_declarations_are_rejected_at_decode() {
        let key = [0u8; 32];
        let mk = |total_bytes: u64, chunk_count: u32| Request::LoadDatabase {
            tenant: "t".into(),
            phase: UploadPhase::Begin {
                auth: UploadAuth {
                    nonce: 1,
                    channel_key: key,
                    content: [0; 16],
                    tag: [0; 16],
                },
                spec: sample_spec(),
                total_bytes,
                chunk_count,
            },
        };
        assert!(matches!(
            Request::decode(&mk(MAX_DATABASE_BYTES + 1, 1).encode()),
            Err(MatchError::Frame(_))
        ));
        assert!(matches!(
            Request::decode(&mk(100, 0).encode()),
            Err(MatchError::Frame(_))
        ));
        assert!(matches!(
            Request::decode(&mk(100, MAX_UPLOAD_CHUNKS + 1).encode()),
            Err(MatchError::Frame(_))
        ));
        // In-range declarations still decode.
        assert!(Request::decode(&mk(MAX_DATABASE_BYTES, MAX_UPLOAD_CHUNKS).encode()).is_ok());
        // A worker count past the pool cap is rejected structurally.
        let mut wide = sample_spec();
        wide.workers = MAX_TENANT_WORKERS + 1;
        let req = Request::LoadDatabase {
            tenant: "t".into(),
            phase: UploadPhase::Begin {
                auth: UploadAuth {
                    nonce: 1,
                    channel_key: key,
                    content: [0; 16],
                    tag: [0; 16],
                },
                spec: wide,
                total_bytes: 100,
                chunk_count: 1,
            },
        };
        assert!(matches!(
            Request::decode(&req.encode()),
            Err(MatchError::Frame(_))
        ));
    }

    #[test]
    fn auth_tags_bind_every_authorized_value() {
        let key = [0x11u8; 32];
        let tag = auth_tag(&key, OP_UPLOAD, "alice", 1000, 7, b"ctx");
        assert_eq!(tag, auth_tag(&key, OP_UPLOAD, "alice", 1000, 7, b"ctx"));
        assert!(tags_match(&tag, &tag));
        for other in [
            auth_tag(&[0x12u8; 32], OP_UPLOAD, "alice", 1000, 7, b"ctx"),
            auth_tag(&key, OP_EVICT, "alice", 1000, 7, b"ctx"),
            auth_tag(&key, OP_UPLOAD, "alicf", 1000, 7, b"ctx"),
            auth_tag(&key, OP_UPLOAD, "alice", 1001, 7, b"ctx"),
            auth_tag(&key, OP_UPLOAD, "alice", 1000, 8, b"ctx"),
            auth_tag(&key, OP_UPLOAD, "alice", 1000, 7, b"ctX"),
            auth_tag(&key, OP_UPLOAD, "alice", 1000, 7, b"ctx0"),
        ] {
            assert_ne!(tag, other);
            assert!(!tags_match(&tag, &other));
        }
        // Length prefixes prevent boundary splices: moving a byte
        // between the tenant id and the context changes the tag.
        assert_ne!(
            auth_tag(&key, OP_UPLOAD, "ab", 0, 0, b"c"),
            auth_tag(&key, OP_UPLOAD, "a", 0, 0, b"bc"),
        );

        // The upload tag also pins the spec and the payload digest.
        let content = content_digest(&key, b"payload");
        let full = upload_tag(&key, "alice", 7, 1000, &sample_spec(), &content);
        let mut other_spec = sample_spec();
        other_spec.seed ^= 1;
        assert_ne!(
            full,
            upload_tag(&key, "alice", 7, 1000, &other_spec, &content)
        );
        let other_content = content_digest(&key, b"payloae");
        assert_ne!(content, other_content);
        assert_ne!(
            full,
            upload_tag(&key, "alice", 7, 1000, &sample_spec(), &other_content)
        );
    }

    #[test]
    fn message_decoders_reject_trailing_garbage() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        let mut bytes = Response::Pong { backends: vec![] }.encode();
        bytes.push(7);
        assert!(Response::decode(&bytes).is_err());
    }
}
