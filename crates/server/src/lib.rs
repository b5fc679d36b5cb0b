#![warn(missing_docs)]
// Serving paths answer with typed `MatchError`s, never a panic: the
// `cm_analyze` `no-panic` lint enforces this lexically, and clippy
// cross-checks it here (test code is exempt via clippy.toml; CI's
// `static-analysis` job promotes these to errors with `-D warnings`).
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! # cm-server
//!
//! The match-serving subsystem: one process answering encrypted
//! string-matching queries for many key owners — CM-SW sharded across
//! one per-core compute pool on the host, CM-IFP inside the (simulated)
//! SSD — which is the deployment the paper's Figure 6 sketches.
//!
//! Every concurrent layer runs on the shared [`cm_core::exec`] work-pool
//! runtime — no per-layer threading schemes. The layers, bottom up:
//!
//! * [`cm_core::CiphermatchMatcher`] — the one CM-SW matcher: a search
//!   plans the database into contiguous polynomial ranges
//!   for the query ([`cm_core::ShardPlan`]: a range's view reaches
//!   `k − 1` bits past the polynomials it owns and reports the windows
//!   that start in them, so the remapped lists concatenate), cuts each
//!   as a view of the one ciphertext allocation — sharding copies
//!   nothing — and runs one [`cm_core::ShardScratch::run_pooled`] job per
//!   range, a one-range plan inline, more on the process-wide
//!   [`cm_core::compute_pool`]; per-range [`cm_core::MatchStats`] sum to
//!   the total, and loading a database spawns nothing. Its queries are
//!   *packed* ([`cm_core::PackedQuery`], wire form `CMQ3`): every negated
//!   segment once, in `⌈V/n⌉` ciphertexts, and each range job tests the
//!   `V` shifted variants itself, one alignment class per pass over the
//!   range's decryption phases;
//! * [`ShardedCmMatcher`] — that matcher behind
//!   [`cm_core::ErasedMatcher`] under its serving name, built with a
//!   shard count: what an operator registers in-process. Uploaded
//!   tenants get the same type with one range;
//! * [`IfpMatcher`] — the paper's in-flash engine
//!   ([`cm_ssd::CmIfpServer`]) behind [`cm_core::SecureMatcher`],
//!   registered *from this crate* so the `cm_core`↔`cm_ssd` dependency
//!   arrow stays inverted. It takes the same packed query: the
//!   controller replicates each variant into the latches, checks the
//!   sums the flash adds, and scans the range's phases as a CM-SW range
//!   job does ([`cm_core::ShardScratch::run_with_adder`]); a search's
//!   `flash_wear` stays zero because
//!   `bop_add` never programs or erases;
//! * [`TenantRegistry`] / [`Tenant`] — tenant id → one shared erased
//!   matcher + key material ([`cm_ssd::SecureIndexChannel`]), one key
//!   domain per tenant, many tenants per process; up to K queries per
//!   tenant run concurrently on that matcher (a counting limit — a
//!   search takes `&self` and returns its own stats). The
//!   registry owns the **remote database lifecycle**: serialized
//!   encrypted databases are uploaded chunked over the wire
//!   ([`Request::LoadDatabase`], authorized by proof-of-possession of
//!   the channel key), accounted byte-exactly against a host memory
//!   budget ([`ServerConfig::memory_budget`]), demoted to a cold tier in
//!   LRU order when the budget fills (pinned tenants exempt),
//!   re-materialized on demand on the requesting frame worker, and
//!   retired with [`Request::EvictDatabase`];
//! * [`wire`] — the length-prefixed binary protocol (encrypted queries
//!   in, AES-sealed index lists out), hardened against truncated,
//!   oversized, and garbage frames. A client-key query is its length `k`
//!   and ciphertexts and nothing else — packed (`CMQ3`, every negated
//!   segment once), for CM-SW and [`IfpMatcher`] alike: the alignment
//!   geometry is rebuilt from `k` on arrival, and no class, mask or
//!   segment derived from the pattern is ever serialized. A frame is
//!   encoded once, behind its reserved header, and sent in one write —
//!   requests and replies alike;
//! * [`MatchServer`] / [`MatchClient`] — a readiness-driven
//!   `cm_reactor` front-end that admits *frames, not connections*: one
//!   reactor thread owns every socket (thousands of cheap idle
//!   connections under [`ServerConfig::max_open_sockets`]) and submits
//!   each complete request frame to a frame pool of one worker per core
//!   (admission is a counter, [`ServerConfig::max_inflight_frames`];
//!   typed [`cm_core::MatchError::ServerBusy`] rejection past either
//!   cap, drain-then-join shutdown) — plus the blocking client, with
//!   [`QueryKit`] carrying the public material a remote key owner needs
//!   to pack and encrypt queries (Algorithm 1's explicit form, one
//!   ciphertext per variant, is the test oracle and has no wire form: a
//!   `CMQ2` magic is a typed `BadMagic`). Both ends set `TCP_NODELAY` on
//!   every socket, unconditionally: each message is one whole frame in
//!   one write, so there is nothing for Nagle's algorithm to coalesce and
//!   a delayed ACK (≈ 40 ms per call) to lose.
//!
//! ## Example
//!
//! ```
//! use cm_core::{Backend, BitString, MatcherConfig};
//! use cm_server::{MatchClient, MatchServer, ShardedCmMatcher, TenantAccess, TenantRegistry};
//!
//! // Provision two tenants with different key material.
//! let mut registry = TenantRegistry::new();
//! let alice_db = BitString::from_ascii("alice's needle lives here");
//! let alice = ShardedCmMatcher::new(cm_bfv::BfvParams::insecure_test_add(), 2, 1).unwrap();
//! registry.register("alice", Box::new(alice), &[0xA1; 32], &alice_db).unwrap();
//! let bob = MatcherConfig::new(Backend::Plain).build().unwrap();
//! let bob_db = BitString::from_ascii("bob searches plaintext");
//! registry.register("bob", bob, &[0xB0; 32], &bob_db).unwrap();
//!
//! // Serve on an ephemeral port; query over TCP.
//! let server = MatchServer::new(registry).spawn("127.0.0.1:0").unwrap();
//! let mut client = MatchClient::connect(server.addr()).unwrap();
//! let reply = client
//!     .search_bits(&TenantAccess::new("alice", &[0xA1; 32]), &BitString::from_ascii("needle"))
//!     .unwrap();
//! assert_eq!(reply.indices, alice_db.find_all(&BitString::from_ascii("needle")));
//! server.shutdown();
//! ```

pub mod client;
pub mod ifp;
pub mod secrecy;
pub mod server;
pub mod tenant;
pub mod wire;

mod telemetry;

pub use client::{MatchClient, MatchReply, TenantAccess};
pub use cm_core::QueryKit;
pub use ifp::{IfpDatabase, IfpMatcher};
pub use secrecy::{keys_match, tags_match};
pub use server::{MatchServer, RunningServer, ServerConfig};
pub use sharded::ShardedCmMatcher;
pub use tenant::{MatchedReply, Tenant, TenantRegistry, DEFAULT_TENANT_WORKERS};
pub use wire::{
    DatabaseInfoReply, EvictAuth, FrameBuffer, QueryPayload, Request, Response, TenantInfo,
    TenantSpec, UploadAuth, UploadPhase, MAX_DATABASE_BYTES, MAX_FRAME_BYTES, MAX_TENANT_WORKERS,
};

mod sharded;
