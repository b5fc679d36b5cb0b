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
//! little-endian integers. A client-key query rides as opaque packed
//! bytes ([`cm_core::PackedQuery`], `CMQ3`: the query length and `⌈V/n⌉`
//! ciphertexts holding every negated segment once), the one form CM-SW
//! and in-flash tenants both take — and match results return as
//! AES-sealed index lists ([`cm_ssd::SecureIndexChannel`]), so neither
//! queries nor results cross the socket in the clear for
//! CIPHERMATCH-family tenants.
//!
//! Each message is one declaration. A `wire_enum!` declares [`Request`],
//! [`Response`], [`QueryPayload`] and [`UploadPhase`]: every variant with
//! its fields, list widths and tag (`Ping = REQ_PING: 0`), written once,
//! from which the macro builds both codec directions. A `wire_errors!`
//! table does the same for [`MatchError`] and [`cm_bfv::DecodeError`],
//! and `wire_struct!` for the structs a message carries. The workspace
//! lint (`cargo run -p cm_analyze`, rule `wire-tags`) holds every tag to
//! exactly one declaration, distinct within its family, and no codec
//! body to a raw integer tag.
//!
//! Each wire type has one codec, encoder and decoder side by side, under
//! three rules: a length or count that does not fit its prefix is a typed
//! [`MatchError::Frame`] on encode, never a truncating cast; a declared
//! count is bounded by what the rest of the message could hold before it
//! sizes an allocation; and every decode path returns a typed
//! [`MatchError`] — truncated, oversized, or garbage bytes must never
//! panic the peer (the crate's proptests fuzz exactly this contract, and
//! `tests/wire_golden.rs` pins every message byte for byte).

use std::io::{Read, Write};
use std::time::Duration;

use cm_bfv::DecodeError;
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

/// Most concurrent queries (K) a remote tenant may request.
pub const MAX_TENANT_WORKERS: u32 = 64;

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
    // Length-prefixed message: no two distinct (op, tenant, extra,
    // nonce, context) tuples serialize to the same byte stream. The
    // header is assembled; the context, which may be a whole upload, is
    // streamed into the MAC where it lies.
    let mut header = Vec::with_capacity(33 + tenant.len());
    header.extend_from_slice(&widen(tenant.len()).to_le_bytes());
    header.extend_from_slice(&widen(context.len()).to_le_bytes());
    header.push(op);
    header.extend_from_slice(tenant.as_bytes());
    header.extend_from_slice(&extra.to_le_bytes());
    header.extend_from_slice(&nonce.to_le_bytes());
    let mut mac = CbcMac {
        aes: cm_aes::Aes::new_256(channel_key),
        state: [0; 16],
        filled: 0,
    };
    mac.absorb(&header);
    mac.absorb(context);
    mac.finish()
}

/// An AES-256 CBC-MAC over a message fed in pieces: the same tag as
/// over the pieces concatenated, the final partial block zero-padded.
struct CbcMac {
    aes: cm_aes::Aes,
    state: [u8; 16],
    /// Bytes of the current block already XORed into `state`.
    filled: usize,
}

impl CbcMac {
    fn absorb(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let take = (16 - self.filled).min(data.len());
            let (block, rest) = data.split_at(take);
            for (s, b) in self.state[self.filled..].iter_mut().zip(block) {
                *s ^= b;
            }
            self.filled += take;
            if self.filled == 16 {
                self.state = self.aes.encrypt_block(&self.state);
                self.filled = 0;
            }
            data = rest;
        }
    }

    fn finish(mut self) -> [u8; 16] {
        if self.filled > 0 {
            self.state = self.aes.encrypt_block(&self.state);
        }
        self.state
    }
}

/// The keyed digest of an upload's full serialized database, bound into
/// the `Begin` tag so the committed bytes cannot be substituted
/// mid-upload.
pub fn content_digest(channel_key: &[u8; 32], data: &[u8]) -> [u8; 16] {
    auth_tag(channel_key, OP_CONTENT, "", widen(data.len()), 0, data)
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
    // A spec that does not encode (a backend name past the u16 prefix)
    // has no `Begin` frame either — the client refuses it before sending
    // — so its tag is never checked.
    let _ = spec.put(&mut context);
    context.extend_from_slice(content);
    auth_tag(channel_key, OP_UPLOAD, tenant, total_bytes, nonce, &context)
}

pub use crate::secrecy::{keys_match, tags_match};

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
    /// Whether the insecure test parameter sets are selected.
    pub insecure: bool,
    /// K: how many of the tenant's queries run concurrently on its one
    /// matcher; at most [`MAX_TENANT_WORKERS`].
    pub workers: u32,
}

impl TenantSpec {
    /// Describes `config` with a K of `workers`.
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
            insecure: config.is_insecure_test(),
            workers,
        }
    }

    /// Names K if it is outside `1..=`[`MAX_TENANT_WORKERS`]: the one
    /// bound both entry points of a spec — the wire decoder and
    /// `TenantRegistry::register_remote` — refuse it by.
    pub(crate) fn out_of_range(&self) -> Option<&'static str> {
        (!(1..=MAX_TENANT_WORKERS).contains(&self.workers))
            .then_some("tenant worker count out of range")
    }

    /// Rebuilds the [`cm_core::MatcherConfig`] this spec describes.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownBackend`] for an unparseable backend name.
    pub fn to_config(&self) -> Result<cm_core::MatcherConfig, MatchError> {
        let mut config =
            cm_core::MatcherConfig::new(Backend::parse(&self.backend)?).seed(self.seed);
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
    /// Whether the database is hot (a live matcher holds it) or
    /// demoted to the cold tier awaiting re-materialization.
    pub resident: bool,
    /// Whether the tenant is exempt from budget-driven demotion.
    pub pinned: bool,
    /// The registry's accounting charge for this database in bytes.
    pub bytes: u64,
    /// K: how many of the tenant's queries may run at once.
    pub workers: u32,
    /// Queries served over the tenant's lifetime (survives demotion).
    pub queries: u64,
    /// Where the master copy of the database lives: `"flash"` for
    /// flash-native (`ifp`) tenants and for any demoted tenant (the cold
    /// store's simulated SSD holds the only copy), `"dram"` for a hot
    /// tenant on every other backend.
    pub tier: String,
}

/// Identity and backend of a registered tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantInfo {
    /// The tenant id used in [`Request::Match`].
    pub id: String,
    /// The backend serving this tenant (a [`Backend::name`] string).
    pub backend: String,
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
    let len = u32::try_from(payload)
        .ok()
        .filter(|_| payload <= MAX_FRAME_BYTES)
        .ok_or(MatchError::Frame("payload exceeds the frame size cap"))?;
    buf[..4].copy_from_slice(&FRAME_MAGIC);
    buf[4..FRAME_HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Validates a frame header — magic, then the declared length against
/// [`MAX_FRAME_BYTES`] — and returns the payload length. The one check
/// [`read_frame`] and [`FrameBuffer`] both apply, before a single payload
/// byte is accepted. `header` holds at least [`FRAME_HEADER_BYTES`].
fn payload_len(header: &[u8]) -> Result<usize, &'static str> {
    if header[..4] != FRAME_MAGIC {
        return Err("bad frame magic");
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    usize::try_from(len)
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or("frame length exceeds the size cap")
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
    payload.resize(payload_len(&header).map_err(MatchError::Frame)?, 0);
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
        // Moves bytes from `rest` into the frame until it holds `target`;
        // whether it does.
        let fill = |buf: &mut Vec<u8>, rest: &mut &[u8], target: usize| {
            let (head, tail) = rest.split_at(target.saturating_sub(buf.len()).min(rest.len()));
            buf.extend_from_slice(head);
            *rest = tail;
            buf.len() >= target
        };
        loop {
            // The header first, validated before a payload byte is taken.
            if !fill(&mut self.buf, &mut rest, FRAME_HEADER_BYTES) {
                return Ok(());
            }
            let len = match payload_len(&self.buf) {
                Ok(len) => len,
                Err(reason) => return Err(self.fail(reason)),
            };
            if !fill(&mut self.buf, &mut rest, FRAME_HEADER_BYTES + len) {
                return Ok(());
            }
            let payload = self.buf.split_off(FRAME_HEADER_BYTES);
            self.buf.clear();
            self.ready.push_back(payload);
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
// The message codec
// ---------------------------------------------------------------------------

/// One wire type's codec, encoder and decoder side by side.
trait Wire: Sized {
    /// The fewest bytes one encoded value occupies (at least 1):
    /// [`read_list`] bounds a declared count by it.
    const MIN_BYTES: usize;

    fn put(&self, out: &mut Vec<u8>) -> Result<(), MatchError>;

    fn read(r: &mut Reader<'_>) -> Result<Self, MatchError>;
}

/// The unread rest of a message; running short is a typed
/// [`MatchError::Frame`], never a slice panic.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], MatchError> {
        let (head, tail) = self
            .rest
            .split_at_checked(len)
            .ok_or(MatchError::Frame("message truncated"))?;
        self.rest = tail;
        Ok(head)
    }

    fn read<T: Wire>(&mut self) -> Result<T, MatchError> {
        T::read(self)
    }
}

/// Decodes one whole message; bytes left over are an error.
fn decode_message<T: Wire>(data: &[u8]) -> Result<T, MatchError> {
    let mut r = Reader { rest: data };
    let message = r.read()?;
    if !r.rest.is_empty() {
        return Err(MatchError::Frame("trailing bytes after message"));
    }
    Ok(message)
}

/// The width of a length or count prefix: `u16` (strings, short lists),
/// `u32` (byte strings, long lists) or `u64` (bit lengths).
trait Width: Wire + TryFrom<usize> + TryInto<usize> {}

impl Width for u16 {}
impl Width for u32 {}
impl Width for u64 {}

/// Writes `len` as a `W`. A length that does not fit is a typed error
/// that writes nothing, never a truncating cast — a wrapped count would
/// desync the decoder from whatever follows it.
fn put_len<W: Width>(out: &mut Vec<u8>, len: usize) -> Result<(), MatchError> {
    W::try_from(len)
        .map_err(|_| MatchError::Frame("length or count exceeds its wire width"))?
        .put(out)
}

fn read_len<W: Width>(r: &mut Reader<'_>) -> Result<usize, MatchError> {
    r.read::<W>()?
        .try_into()
        .map_err(|_| MatchError::Frame("length exceeds the address space"))
}

/// Writes a list behind its `W` count.
fn put_list<W: Width, T: Wire>(out: &mut Vec<u8>, items: &[T]) -> Result<(), MatchError> {
    put_len::<W>(out, items.len())?;
    items.iter().try_for_each(|item| item.put(out))
}

/// Reads a `W`-counted list. The declared count is bounded by what the
/// rest of the message could hold before it sizes an allocation, so a
/// lying count is a typed error, never a huge `Vec`.
fn read_list<W: Width, T: Wire>(r: &mut Reader<'_>) -> Result<Vec<T>, MatchError> {
    let count = read_len::<W>(r)?;
    if count > r.rest.len() / T::MIN_BYTES {
        return Err(MatchError::Frame("declared count exceeds the message"));
    }
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(r.read()?);
    }
    Ok(items)
}

/// Writes a byte string behind its `W` length.
fn put_bytes<W: Width>(out: &mut Vec<u8>, bytes: &[u8]) -> Result<(), MatchError> {
    put_len::<W>(out, bytes.len())?;
    out.extend_from_slice(bytes);
    Ok(())
}

fn read_bytes<'a, W: Width>(r: &mut Reader<'a>) -> Result<&'a [u8], MatchError> {
    let len = read_len::<W>(r)?;
    r.take(len)
}

/// A `usize` operand as the wire's u64: lossless on every target this
/// builds for, saturating otherwise.
fn widen(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// A wire u64 as a `usize` operand, saturating where `usize` is narrower.
fn narrow(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

macro_rules! little_endian {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            const MIN_BYTES: usize = std::mem::size_of::<$int>();

            fn put(&self, out: &mut Vec<u8>) -> Result<(), MatchError> {
                out.extend_from_slice(&self.to_le_bytes());
                Ok(())
            }

            fn read(r: &mut Reader<'_>) -> Result<Self, MatchError> {
                r.read().map(<$int>::from_le_bytes)
            }
        }
    )*};
}

// An i64 travels as its two's-complement bits.
little_endian!(u8, u16, u32, u64, i64);

impl<const N: usize> Wire for [u8; N] {
    const MIN_BYTES: usize = N;

    fn put(&self, out: &mut Vec<u8>) -> Result<(), MatchError> {
        out.extend_from_slice(self);
        Ok(())
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, MatchError> {
        let mut array = [0; N];
        array.copy_from_slice(r.take(N)?);
        Ok(array)
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) -> Result<(), MatchError> {
        u8::from(*self).put(out)
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, MatchError> {
        let byte: u8 = r.read()?;
        (byte <= 1)
            .then_some(byte == 1)
            .ok_or(MatchError::Frame("boolean byte out of range"))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) -> Result<(), MatchError> {
        self.0.put(out)?;
        self.1.put(out)
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, MatchError> {
        Ok((r.read()?, r.read()?))
    }
}

/// UTF-8 behind a u16 length.
impl Wire for String {
    const MIN_BYTES: usize = u16::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) -> Result<(), MatchError> {
        put_bytes::<u16>(out, self.as_bytes())
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, MatchError> {
        let bytes = read_bytes::<u16>(r)?.to_vec();
        String::from_utf8(bytes).map_err(|_| MatchError::Frame("string is not UTF-8"))
    }
}

/// A byte string, behind a u32 length.
impl Wire for Vec<u8> {
    const MIN_BYTES: usize = u32::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) -> Result<(), MatchError> {
        put_bytes::<u32>(out, self)
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, MatchError> {
        read_bytes::<u32>(r).map(<[u8]>::to_vec)
    }
}

/// Whole nanoseconds as a u64 (saturating past ≈ 584 years).
impl Wire for Duration {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) -> Result<(), MatchError> {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX).put(out)
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, MatchError> {
        r.read().map(Duration::from_nanos)
    }
}

/// The bit length as a u64, then the bits packed most-significant first.
impl Wire for BitString {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) -> Result<(), MatchError> {
        put_len::<u64>(out, self.len())?;
        let start = out.len();
        out.resize(start + self.len().div_ceil(8), 0);
        for (i, &bit) in self.bits().iter().enumerate() {
            if bit {
                out[start + i / 8] |= 1 << (7 - i % 8);
            }
        }
        Ok(())
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, MatchError> {
        let len = read_len::<u64>(r)?;
        let packed = r.take(len.div_ceil(8))?;
        let mut bits = BitString::new();
        for i in 0..len {
            bits.push(packed[i / 8] >> (7 - i % 8) & 1 == 1);
        }
        Ok(bits)
    }
}

/// Implements [`Wire`] for a struct as its fields in declaration order:
/// each by its type's codec or — written `field: Vec<T> as W` — as a
/// `W`-counted list. `check` names a test the decoded value must pass.
macro_rules! wire_struct {
    (@min $ty:ty) => { <$ty as Wire>::MIN_BYTES };
    (@min $ty:ty, $width:ty) => { <$width as Wire>::MIN_BYTES };
    (@put $out:ident, $field:expr) => { $field.put($out)? };
    (@put $out:ident, $field:expr, $width:ty) => { put_list::<$width, _>($out, $field)? };
    (@read $r:ident, $ty:ty) => { $r.read::<$ty>()? };
    (@read $r:ident, $ty:ty, $width:ty) => { read_list::<$width, _>($r)? };
    ($name:ident { $($field:ident: $ty:ty $(as $width:ty)?),+ $(,)? } $(check $check:path)?) => {
        impl Wire for $name {
            const MIN_BYTES: usize = 0 $(+ wire_struct!(@min $ty $(, $width)?))+;

            fn put(&self, out: &mut Vec<u8>) -> Result<(), MatchError> {
                $(wire_struct!(@put out, &self.$field $(, $width)?);)+
                Ok(())
            }

            fn read(r: &mut Reader<'_>) -> Result<Self, MatchError> {
                let value = $name { $($field: wire_struct!(@read r, $ty $(, $width)?)),+ };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    };
}

wire_struct! { TenantInfo { id: String, backend: String } }

wire_struct! {
    MatchStats {
        hom_adds: u64, hom_muls: u64, rotations: u64, bootstraps: u64, bytes_moved: u64,
        flash_wear: u64, add_time: Duration, mul_time: Duration,
    }
}

wire_struct! {
    TenantSpec {
        backend: String, seed: u64, insecure: bool, workers: u32,
    } check check_spec
}

wire_struct! {
    UploadAuth { nonce: u64, channel_key: [u8; 32], content: [u8; 16], tag: [u8; 16] }
}

wire_struct! { EvictAuth { nonce: u64, tag: [u8; 16] } }

wire_struct! {
    DatabaseInfoReply {
        backend: String, resident: bool, pinned: bool, bytes: u64, workers: u32, queries: u64,
        tier: String,
    }
}

// Telemetry: every list u32-counted, labels u16-counted.
wire_struct! {
    CounterSample { name: String, labels: Vec<(String, String)> as u16, value: u64 }
}

wire_struct! {
    GaugeSample { name: String, labels: Vec<(String, String)> as u16, value: i64 }
}

wire_struct! {
    HistogramSample {
        name: String, labels: Vec<(String, String)> as u16, count: u64, sum: u64,
        buckets: Vec<(u32, u64)> as u32,
    } check check_buckets
}

wire_struct! {
    MetricsSnapshot {
        counters: Vec<CounterSample> as u32, gauges: Vec<GaugeSample> as u32,
        histograms: Vec<HistogramSample> as u32,
    }
}

/// A spec arrives with a plausible backend name and K in range.
fn check_spec(spec: &TenantSpec) -> Result<(), MatchError> {
    if spec.backend.is_empty() || spec.backend.len() > 32 {
        return Err(MatchError::Frame("backend name length out of range"));
    }
    spec.out_of_range()
        .map_or(Ok(()), |why| Err(MatchError::Frame(why)))
}

/// Buckets travel sparse, as (index, count) pairs. Out-of-order or
/// out-of-range indices would break the sparse-merge invariant and the
/// bucket-geometry functions downstream (`bucket_lo` shifts by the
/// bucket's magnitude); in ascending order, only the last can be too big.
fn check_buckets(sample: &HistogramSample) -> Result<(), MatchError> {
    let buckets = &sample.buckets;
    if buckets.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
        return Err(MatchError::Frame("histogram buckets out of order"));
    }
    if buckets
        .last()
        .is_some_and(|&(index, _)| narrow(index.into()) >= cm_telemetry::HISTOGRAM_BUCKETS)
    {
        return Err(MatchError::Frame("histogram bucket index out of range"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Error codec
// ---------------------------------------------------------------------------

/// `&'static str` payloads cannot round-trip a wire hop; they surface on
/// the client as this placeholder.
const REMOTE: &str = "remote";

/// An error's wire form behind its tag: two u64 operands and a text.
#[derive(Default)]
struct ErrorParts {
    a: u64,
    b: u64,
    text: String,
}

wire_struct! { ErrorParts { a: u64, b: u64, text: String } }

/// An error enum's codec: its tag and [`ErrorParts`], both ways.
trait ErrorCodec: Sized {
    fn to_parts(&self) -> (u8, ErrorParts);

    fn from_parts(tag: u8, parts: ErrorParts) -> Result<Self, MatchError>;
}

/// How an error field rides in the [`ErrorParts`] slot of type `S` that
/// its declaration names, both ways.
trait Slot<S>: Sized {
    fn to_slot(&self) -> S;

    fn from_slot(slot: S) -> Result<Self, MatchError>;
}

/// Implements [`Slot`] for each `field type: slot type`, from its two
/// conversions.
macro_rules! slots {
    ($($ty:ty: $slot:ty = |$x:ident| $to:expr, |$y:pat_param| $from:expr;)+) => {$(
        impl Slot<$slot> for $ty {
            fn to_slot(&self) -> $slot {
                let $x = self;
                $to
            }

            fn from_slot($y: $slot) -> Result<Self, MatchError> {
                $from
            }
        }
    )+};
}

slots! {
    usize: u64 = |n| widen(*n), |n| Ok(narrow(n));
    u64: u64 = |n| *n, |n| Ok(n);
    &'static str: String = |s| s.to_string(), |_| Ok(REMOTE);
    String: String = |s| s.clone(), |s| Ok(s);
    Backend: String = |backend| backend.name().to_string(), |name| {
        Backend::parse(&name).map_err(|_| MatchError::Frame("unknown backend in error"))
    };
    // A decode error crosses as its tag alone. An unknown sub-code — one
    // past a byte included — still decodes: overflow is the most
    // conservative reading of a corrupt ciphertext.
    DecodeError: u64 = |error| error.to_parts().0.into(), |code| {
        let known = u8::try_from(code).map(|tag| DecodeError::from_parts(tag, Default::default()));
        Ok(known.ok().and_then(Result::ok).unwrap_or(DecodeError::CoefficientOverflow))
    };
}

/// Implements [`ErrorCodec`] for each error enum from one table: every
/// variant's tag, declared once (`Variant = NAME: value`), and the
/// [`ErrorParts`] slot (`a`, `b` or `text`) each of its fields rides in.
macro_rules! wire_errors {
    ($($name:ident {
        $($variant:ident $({ $($field:ident: $slot:ident),+ })? $(($only:ident))?
            = $tag:ident: $value:literal),+ $(,)?
    })+) => {$(
        impl ErrorCodec for $name {
            fn to_parts(&self) -> (u8, ErrorParts) {
                match self {
                    $($name::$variant { $($($field: $slot),+)? $(0: $only)? } => ($value, ErrorParts {
                        $($($slot: Slot::to_slot($slot),)+)? $($only: Slot::to_slot($only),)?
                        ..ErrorParts::default()
                    }),)+
                }
            }

            fn from_parts(tag: u8, parts: ErrorParts) -> Result<Self, MatchError> {
                Ok(match tag {
                    $($value => $name::$variant {
                        $($($field: Slot::from_slot(parts.$slot)?),+)?
                        $(0: Slot::from_slot(parts.$only)?)?
                    },)+
                    _ => return Err(MatchError::Frame(concat!("unknown ", stringify!($name), " tag"))),
                })
            }
        }
    )+};
}

// Tags 4 (a query off a fixed window) and 17 (a backend without a
// wire database) were the unserved baselines' errors; tag 0 (no index
// generator installed) had no constructor left, and tag 3 (a query
// longer than a sharded search took) went when every range came to
// reach as far past its owned bits as the query needs. They are
// retired: they decode as unknown and are never reused.
wire_errors! {
    MatchError {
        NoDatabase = ERR_NO_DATABASE: 1,
        EmptyQuery = ERR_EMPTY_QUERY: 2,
        WorkerPanicked = ERR_WORKER_PANICKED: 5,
        InvalidConfig(text) = ERR_INVALID_CONFIG: 6,
        Decode(a) = ERR_DECODE: 7,
        WireQueryUnsupported(text) = ERR_WIRE_QUERY_UNSUPPORTED: 8,
        UnknownBackend(text) = ERR_UNKNOWN_BACKEND: 9,
        UnknownTenant(text) = ERR_UNKNOWN_TENANT: 10,
        Frame(text) = ERR_FRAME: 11,
        Transport(text) = ERR_TRANSPORT: 12,
        ServerBusy { max_open_sockets: a } = ERR_SERVER_BUSY: 13,
        Unauthorized(text) = ERR_UNAUTHORIZED: 14,
        QuotaExceeded { budget: a, required: b } = ERR_QUOTA_EXCEEDED: 15,
        UploadIncomplete(text) = ERR_UPLOAD_INCOMPLETE: 16,
        ConnectionClosed = ERR_CONNECTION_CLOSED: 18,
        Internal(text) = ERR_INTERNAL: 19,
    }
    DecodeError {
        Truncated = DECODE_TRUNCATED: 0,
        BadMagic = DECODE_BAD_MAGIC: 1,
        BadHeader(text) = DECODE_BAD_HEADER: 2,
        CoefficientOverflow = DECODE_COEFFICIENT_OVERFLOW: 3,
    }
}

/// An error travels as its tag, then its [`ErrorParts`].
impl Wire for MatchError {
    const MIN_BYTES: usize = <(u8, ErrorParts)>::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) -> Result<(), MatchError> {
        let (tag, mut parts) = self.to_parts();
        // A message past the u16 prefix is summarized, so an error
        // always encodes.
        if parts.text.len() > usize::from(u16::MAX) {
            parts.text = "error message too long for the wire".into();
        }
        (tag, parts).put(out)
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, MatchError> {
        let (tag, parts) = r.read()?;
        Self::from_parts(tag, parts)
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Declares a message enum and implements [`Wire`] for it. A variant is
/// its tag byte — declared once, as `Variant = NAME: value`, which also
/// makes `NAME` an associated constant — then its fields in declaration
/// order, each by its type's codec or — written `Vec<T> as W` — as a
/// `W`-counted list. `check` names a test the decoded value must pass.
macro_rules! wire_enum {
    (@codec $name:ident $(check $check:path)? [$(
        $variant:ident { $($key:tt: $bind:ident: $ty:ty $(as $width:ty)?),* } = $tag:ident
    ),+]) => {
        impl Wire for $name {
            const MIN_BYTES: usize = 1;

            fn put(&self, out: &mut Vec<u8>) -> Result<(), MatchError> {
                self.tag().put(out)?;
                match self {
                    $(Self::$variant { $($key: $bind),* } => {
                        $(wire_struct!(@put out, $bind $(, $width)?);)*
                    })+
                }
                Ok(())
            }

            fn read(r: &mut Reader<'_>) -> Result<Self, MatchError> {
                let message = match r.read::<u8>()? {
                    $(Self::$tag => Self::$variant {
                        $($key: wire_struct!(@read r, $ty $(, $width)?)),*
                    },)+
                    _ => return Err(MatchError::Frame(concat!("unknown ", stringify!($name), " tag"))),
                };
                $($check(&message)?;)?
                Ok(message)
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident {$(
            $(#[$doc:meta])*
            $variant:ident
            $({ $($(#[$field_doc:meta])* $field:ident: $field_ty:ty $(as $field_width:ty)?),+ $(,)? })?
            $(($ty:ty $(as $width:ty)?))?
            = $tag:ident: $value:literal
        ),+ $(,)?} $(check $check:path)?
    ) => {
        $(#[$meta])*
        pub enum $name {$(
            $(#[$doc])*
            $variant $({ $($(#[$field_doc])* $field: $field_ty),+ })? $(($ty))?,
        )+}

        impl $name {
            $(const $tag: u8 = $value;)+

            /// The message's wire tag.
            pub(crate) fn tag(&self) -> u8 {
                match self {
                    $(Self::$variant { .. } => Self::$tag,)+
                }
            }
        }

        wire_enum!(@codec $name $(check $check)? [$($variant {
            $($($field: $field: $field_ty $(as $field_width)?),+)? $(0: value: $ty $(as $width)?)?
        } = $tag),+]);
    };
}

wire_enum! {
    /// A client→server message.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request {
        /// Liveness + capability probe; answered by [`Response::Pong`] with
        /// the full [`Backend::ALL`] listing.
        Ping = REQ_PING: 0,
        /// Lists the registered tenants; answered by [`Response::Tenants`].
        ListTenants = REQ_LIST_TENANTS: 1,
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
        } = REQ_MATCH: 2,
        /// Reads a tenant's lifetime statistics; answered by
        /// [`Response::TenantStats`].
        TenantStats {
            /// Target tenant id.
            tenant: String,
        } = REQ_TENANT_STATS: 3,
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
        } = REQ_LOAD_DATABASE: 4,
        /// Retires a tenant's database from the serving host entirely (hot
        /// tier, cold tier, and accounting); answered by
        /// [`Response::Evicted`]. Authorized by proof-of-possession of the
        /// tenant's channel key — a non-owner cannot evict.
        EvictDatabase {
            /// Target tenant id.
            tenant: String,
            /// The owner's proof of possession.
            auth: EvictAuth,
        } = REQ_EVICT_DATABASE: 5,
        /// Reads a tenant database's lifecycle state (tier, accounting
        /// charge, pinning); answered by [`Response::DatabaseInfo`].
        DatabaseInfo {
            /// Target tenant id.
            tenant: String,
        } = REQ_DATABASE_INFO: 6,
        /// Reads the server's full telemetry snapshot — every counter,
        /// gauge, and histogram the process has registered, from the
        /// reactor event loop down to the compute pool; answered by
        /// [`Response::Metrics`].
        Metrics = REQ_METRICS: 7,
    } check check_request
}

/// A tenant-addressed request names an id the registry could hold.
fn check_request(request: &Request) -> Result<(), MatchError> {
    match request.tenant() {
        Some(id) if id.is_empty() || id.len() > MAX_TENANT_ID => {
            Err(MatchError::Frame("tenant id length out of range"))
        }
        _ => Ok(()),
    }
}

wire_enum! {
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
        } = PHASE_BEGIN: 0,
        /// One chunk of the serialized database. Chunks must arrive strictly
        /// in index order; a duplicate or out-of-order index aborts the
        /// upload with a typed [`MatchError::UploadIncomplete`].
        Chunk {
            /// Zero-based chunk index.
            index: u32,
            /// The chunk's bytes.
            data: Vec<u8>,
        } = PHASE_CHUNK: 1,
        /// Closes the upload: every declared chunk must have arrived and the
        /// received bytes must equal the declared total, or the upload fails
        /// with [`MatchError::UploadIncomplete`] and nothing is registered.
        Commit = PHASE_COMMIT: 2,
    } check check_phase
}

/// A `Begin` declares a size and a chunk count within the caps — refused
/// before any buffer for the upload exists.
fn check_phase(phase: &UploadPhase) -> Result<(), MatchError> {
    match phase {
        UploadPhase::Begin { total_bytes, .. } if *total_bytes > MAX_DATABASE_BYTES => {
            Err(MatchError::Frame("declared database size exceeds the cap"))
        }
        UploadPhase::Begin { chunk_count, .. }
            if !(1..=MAX_UPLOAD_CHUNKS).contains(chunk_count) =>
        {
            Err(MatchError::Frame("chunk count out of range"))
        }
        _ => Ok(()),
    }
}

wire_enum! {
    /// How a query travels.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum QueryPayload {
        /// Plaintext query bits, for hosted-key tenants: the server-side
        /// matcher owns the keys and encrypts the query itself (every
        /// [`Backend`] supports this mode).
        Bits(BitString) = QUERY_BITS: 0,
        /// An already-encrypted query, for client-key tenants, as the tenant's
        /// [`cm_core::QueryKit`] builds it: packed ([`cm_core::PackedQuery`],
        /// `CMQ3`: the query length and `⌈V/n⌉` ciphertexts) for `ciphermatch`
        /// and `ifp` alike, whose servers replicate the variants themselves.
        /// The server learns the pattern's length and nothing else about it.
        CmWire(Vec<u8>) = QUERY_CM_WIRE: 1,
    }
}

wire_enum! {
    /// A server→client message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Liveness answer: every backend this server build can serve.
        Pong {
            /// [`Backend::ALL`] names.
            backends: Vec<String> as u16,
        } = RESP_PONG: 0,
        /// The registered tenants.
        Tenants(Vec<TenantInfo> as u16) = RESP_TENANTS: 1,
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
            shard_stats: Vec<MatchStats> as u16,
            /// Modeled hardware latency of sealing the index list.
            seal_latency: Duration,
        } = RESP_MATCHED: 2,
        /// A tenant's lifetime statistics.
        TenantStats {
            /// Field-wise totals since registration.
            stats: MatchStats,
            /// Queries served.
            queries: u64,
        } = RESP_TENANT_STATS: 3,
        /// Acknowledges an upload `Begin` or `Chunk` step.
        UploadProgress {
            /// Bytes received so far in this upload.
            received: u64,
            /// The declared total from `Begin`.
            expected: u64,
        } = RESP_UPLOAD_PROGRESS: 5,
        /// An upload `Commit` succeeded: the tenant is registered and hot.
        DatabaseLoaded {
            /// The registry's accounting charge for the database in bytes.
            bytes: u64,
            /// Tenants the admission demoted to the cold tier (LRU order).
            // u32: one admission can demote more tenants than a u16 counts.
            demoted: Vec<String> as u32,
        } = RESP_DATABASE_LOADED: 6,
        /// An [`Request::EvictDatabase`] succeeded.
        Evicted {
            /// Hot-tier bytes the eviction released from the accounting (0
            /// if the database was already cold).
            freed_bytes: u64,
        } = RESP_EVICTED: 7,
        /// A tenant database's lifecycle state.
        DatabaseInfo(DatabaseInfoReply) = RESP_DATABASE_INFO: 8,
        /// The server's telemetry snapshot ([`Request::Metrics`]): every
        /// registered counter, gauge, and histogram at one instant, sorted
        /// by name then labels. Histogram buckets travel sparse (index,
        /// count), so an idle server's snapshot stays small.
        Metrics(cm_telemetry::MetricsSnapshot) = RESP_METRICS: 9,
        /// The request failed; `error` is the server-side [`MatchError`]
        /// (static-string payloads survive as `"remote"`).
        Error(MatchError) = RESP_ERROR: 4,
    } check check_response
}

/// A `Pong` lists no more names than a server build could serve.
fn check_response(response: &Response) -> Result<(), MatchError> {
    match response {
        Response::Pong { backends } if backends.len() > 4 * Backend::ALL.len() => {
            Err(MatchError::Frame("implausible backend count"))
        }
        _ => Ok(()),
    }
}

impl Request {
    /// The tenant the request addresses, if it addresses one.
    pub(crate) fn tenant(&self) -> Option<&str> {
        match self {
            Request::Match { tenant, .. }
            | Request::TenantStats { tenant }
            | Request::LoadDatabase { tenant, .. }
            | Request::EvictDatabase { tenant, .. }
            | Request::DatabaseInfo { tenant } => Some(tenant),
            Request::Ping | Request::ListTenants | Request::Metrics => None,
        }
    }

    /// Serializes the request into a frame payload.
    ///
    /// A request that cannot be encoded — a tenant id, query or chunk
    /// longer than its length prefix can count — encodes as the empty
    /// payload, which [`Self::decode`] refuses; [`crate::MatchClient`]
    /// reports such a request as [`MatchError::Frame`] and sends nothing.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if self.put(&mut out).is_err() {
            out.clear();
        }
        out
    }

    /// Appends [`Self::encode`]'s bytes to `out` (behind a reserved frame
    /// header, typically).
    ///
    /// # Errors
    ///
    /// [`MatchError::Frame`] if a length does not fit its prefix; `out`
    /// then holds a partial payload that must not be sent.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), MatchError> {
        self.put(out)
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::Frame`] on truncated, oversized, or garbage
    /// bytes; never panics.
    pub fn decode(data: &[u8]) -> Result<Self, MatchError> {
        decode_message(data)
    }
}

impl Response {
    /// Serializes the response into a frame payload. A response that
    /// cannot be encoded — a list or string longer than its prefix can
    /// count — encodes as [`Response::Error`] with the
    /// [`MatchError::Frame`] that says so.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Self::encode`]'s bytes to `out` (behind a reserved frame
    /// header, typically).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        if let Err(e) = self.put(out) {
            out.truncate(start);
            // An error always encodes: its text is summarized past the
            // u16 prefix.
            let _ = Response::Error(e).put(out);
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::Frame`] on truncated, oversized, or garbage
    /// bytes; never panics.
    pub fn decode(data: &[u8]) -> Result<Self, MatchError> {
        decode_message(data)
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
            // A frame built in a reused buffer drops its stale contents.
            let mut buf = vec![0xEE; 5];
            begin_frame(&mut buf);
            buf.extend_from_slice(&payload);
            finish_frame(&mut buf).unwrap();
            assert_eq!(buf, sink.bytes);
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
                backends: Backend::ALL.iter().map(|b| b.name().to_string()).collect(),
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
            Response::Error(MatchError::QuotaExceeded {
                budget: 8,
                required: 99,
            }),
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
                cm_telemetry::metric_names::SERVER_BUSY_REJECTIONS,
                &[("cap", "frames")],
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
            Response::Error(MatchError::WireQueryUnsupported(Backend::Plain)),
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

    /// The width check every length and count goes through: `MAX` fits,
    /// `MAX + 1` is a typed error that writes nothing — never a wrapped
    /// count that desyncs the decoder from what follows it.
    fn assert_width<W: Width>(max: usize) {
        let mut out = vec![0xEE];
        put_len::<W>(&mut out, max).unwrap();
        assert_eq!(out.len(), 1 + W::MIN_BYTES);
        assert_eq!(read_len::<W>(&mut Reader { rest: &out[1..] }).unwrap(), max);
        assert!(matches!(
            put_len::<W>(&mut out, max + 1),
            Err(MatchError::Frame(_))
        ));
        assert_eq!(out.len(), 1 + W::MIN_BYTES, "a refused length wrote bytes");
    }

    #[test]
    fn demoted_counts_past_u32_become_frame_errors_not_truncation() {
        assert_width::<u32>(u32::MAX as usize);
        // `DatabaseLoaded` counts its demoted ids with that u32.
        let reply = Response::DatabaseLoaded {
            bytes: 1,
            demoted: vec!["a".into(); 3],
        };
        assert_eq!(reply.encode()[1 + 8..1 + 8 + 4], 3u32.to_le_bytes());
    }

    #[test]
    fn tenant_lists_past_u16_become_frame_errors_not_truncation() {
        assert_width::<u16>(u16::MAX as usize);
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
    fn over_long_strings_are_typed_errors_not_wrapped_prefixes() {
        let long = "x".repeat(70_000);
        // A request refuses to encode: `encode_into` says why, and
        // `encode` hands back the empty payload `decode` refuses.
        let request = Request::TenantStats {
            tenant: long.clone(),
        };
        assert!(matches!(
            request.encode_into(&mut Vec::new()),
            Err(MatchError::Frame(_))
        ));
        assert!(request.encode().is_empty());
        assert!(Request::decode(&request.encode()).is_err());
        // A reply degrades to a typed error frame.
        for reply in [
            Response::Tenants(vec![TenantInfo {
                id: long.clone(),
                backend: "plain".into(),
            }]),
            Response::DatabaseLoaded {
                bytes: 1,
                demoted: vec![long],
            },
        ] {
            assert!(matches!(
                Response::decode(&reply.encode()),
                Ok(Response::Error(MatchError::Frame(_)))
            ));
        }
    }

    #[test]
    fn decode_sub_codes_past_a_byte_read_as_coefficient_overflow() {
        let error_with_sub_code = |code: u64| {
            let mut bytes = Response::Error(MatchError::Decode(DecodeError::Truncated)).encode();
            bytes.truncate(2);
            bytes.extend_from_slice(&code.to_le_bytes());
            bytes.extend_from_slice(&[0; 8 + 2]); // b, empty text
            Response::decode(&bytes).unwrap()
        };
        assert_eq!(
            error_with_sub_code(1),
            Response::Error(MatchError::Decode(DecodeError::BadMagic))
        );
        // 256 and 257 are 0 and 1 in their low byte: a truncating cast
        // reads them as `Truncated` and `BadMagic`.
        for code in [256, 257, u64::MAX] {
            assert_eq!(
                error_with_sub_code(code),
                Response::Error(MatchError::Decode(DecodeError::CoefficientOverflow)),
                "sub-code {code}"
            );
        }
    }

    #[test]
    fn declared_counts_are_bounded_by_the_message() {
        // Each declares more entries than the bytes behind it could hold:
        // refused before anything is allocated for them.
        for lying in [
            [&[Response::RESP_TENANTS][..], &[0xFF; 2], &[0; 4]].concat(),
            [&[Response::RESP_DATABASE_LOADED][..], &[0; 8], &[0xFF; 4]].concat(),
            [&[Response::RESP_METRICS][..], &[0xFF; 4], &[0; 4]].concat(),
        ] {
            assert!(matches!(
                Response::decode(&lying),
                Err(MatchError::Frame("declared count exceeds the message"))
            ));
        }
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
    fn decoders_refuse_unknown_tags_bad_tenant_ids_and_long_pongs() {
        let refused = |bytes: &[u8], response: bool| {
            let err = if response {
                Response::decode(bytes).err()
            } else {
                Request::decode(bytes).err()
            };
            assert!(matches!(err, Some(MatchError::Frame(_))), "{bytes:?}");
        };
        // The byte one past each family's last tag.
        refused(&[8], false);
        refused(&[10], true);
        let mut query = Request::Match {
            tenant: "t".into(),
            query: QueryPayload::CmWire(vec![]),
        }
        .encode();
        query[1 + 2 + 1] = 2;
        refused(&query, false);
        let mut phase = Request::LoadDatabase {
            tenant: "t".into(),
            phase: UploadPhase::Commit,
        }
        .encode();
        phase[1 + 2 + 1] = 3;
        refused(&phase, false);
        // One past the last error tag, and the four retired ones.
        for tag in [20, 0, 3, 4, 17] {
            let mut error = Response::Error(MatchError::NoDatabase).encode();
            error[1] = tag;
            assert_eq!(
                Response::decode(&error),
                Err(MatchError::Frame("unknown MatchError tag")),
                "{tag}"
            );
        }
        // Tenant ids outside 1..=MAX_TENANT_ID, on both request shapes
        // that carry one first; the bounds themselves decode.
        for len in [0, MAX_TENANT_ID + 1, 1, MAX_TENANT_ID] {
            let tenant = "x".repeat(len);
            let requests = [
                Request::Match {
                    tenant: tenant.clone(),
                    query: QueryPayload::Bits(BitString::from_ascii("q")),
                },
                Request::TenantStats { tenant },
            ];
            for request in requests {
                let bytes = request.encode();
                if (1..=MAX_TENANT_ID).contains(&len) {
                    assert_eq!(Request::decode(&bytes).unwrap(), request);
                } else {
                    refused(&bytes, false);
                }
            }
        }
        // A Pong lists at most four names per servable backend.
        let pong = |n: usize| Response::Pong {
            backends: vec!["plain".to_string(); n],
        };
        let cap = 4 * Backend::ALL.len();
        assert_eq!(Response::decode(&pong(cap).encode()).unwrap(), pong(cap));
        refused(&pong(cap + 1).encode(), true);
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
