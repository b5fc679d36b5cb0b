#![warn(missing_docs)]

//! # cm-core
//!
//! The CIPHERMATCH algorithm (Kabra et al., ASPLOS 2025): a
//! memory-efficient BFV data packing scheme and a secure exact string
//! matching algorithm that uses **only homomorphic addition**, plus the
//! paper's Boolean and arithmetic baselines.
//!
//! ## The idea in one paragraph
//!
//! Pack 16 database bits into each plaintext coefficient (so encryption
//! only costs 4x in space), negate the query, and add it homomorphically:
//! wherever the database equals the query, `d + !q` is the all-ones
//! "match polynomial" value — detectable per coefficient without a single
//! homomorphic multiplication or rotation. Arbitrary query lengths and bit
//! offsets are handled with shifted/replicated query variants and
//! don't-care masks.
//!
//! ## Example
//!
//! Every served backend sits behind the unified [`SecureMatcher`] API:
//! pick a [`Backend`], build it with [`MatcherConfig`], load a database,
//! search. The baselines ([`YasudaEngine`], [`BatchedEngine`],
//! [`BooleanEngine`]) are the paper's comparison points, not served
//! backends: callers drive those engines directly with their own keys.
//!
//! ```
//! use cm_core::{Backend, BitString, MatcherConfig};
//!
//! let mut matcher = MatcherConfig::new(Backend::Ciphermatch)
//!     .insecure_test() // small test parameters; drop for the paper's set
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let data = BitString::from_ascii("find the needle in this haystack");
//! matcher.load_database(&data).unwrap();
//! let (hits, per_range) = matcher.find_all(&BitString::from_ascii("needle")).unwrap();
//! assert_eq!(hits, vec![9 * 8]);
//! // CM-SW's server ran additions only — visible in the search's stats.
//! let stats: cm_core::MatchStats = per_range.iter().sum();
//! assert!(stats.hom_adds > 0);
//! assert_eq!(stats.hom_muls + stats.rotations + stats.bootstraps, 0);
//! ```
//!
//! The client/server split of Algorithm 1 is [`QueryKit`] (the client
//! half: [`Erased::query_kit`] hands out the public key material,
//! [`QueryKit::encode_query`] packs and encrypts a query) and
//! [`ErasedMatcher::find_all_wire`] (the server half, one
//! [`ShardScratch::run`] per polynomial range).
//!
//! The served path departs from Algorithm 1 lines 4–9 in one place, and
//! says so: the client does not encrypt the `V` shifted, replicated
//! variants (47 ciphertexts for a 32-bit query, every one a replication
//! of the same 47 segment values) but the segments themselves, once —
//! a [`PackedQuery`] of `⌈V/n⌉` ciphertexts, one up to `k ≈ n` bits —
//! and the *server* derives the variants next to the data, where the
//! [`TrustedIndexGenerator`] tests them. A CM-SW range job
//! ([`ShardScratch::run`]) takes the decryption phase of each range
//! polynomial — its `c1` kept in the evaluation domain since load
//! ([`ResidentDatabase`]), so that is a point-wise product and one
//! inverse transform — and of each packed segment once, and tests every variant of
//! an alignment class in one pass over the range's phases: entry
//! `(v, j)`'s phase is `phase(db_j) + phase(v)`, and the variants of a
//! class read disjoint coefficients. In flash
//! ([`ShardScratch::run_with_adder`]) the controller gathers variant
//! `(r, p)` out of the packed ciphertext's coefficients and streams it
//! into the latches, so the flash runs every Hom-Add; the range's phases
//! come from the first variant's sums, every later sum is checked on both
//! halves against them, and the range is scanned exactly as a CM-SW range
//! job scans its own. Neither writes out the `V` variants or a `V × P`
//! result table. Deriving variants after encryption is valid because
//! that test reads decryption *phases* coefficient by coefficient and a
//! phase is linear and coefficient-wise; a gathered `c1` is not a ring
//! element anyone could decrypt by, so whoever decrypts result
//! ciphertexts somewhere else uses the explicit [`EncryptedQuery`]
//! (Algorithm 1 to the letter: the conservative flow's
//! [`CiphermatchEngine::search`] and every test oracle; it has no wire
//! form). The derived variants are a public function of what the client
//! sent: the server learns nothing 47 fresh encryptions would have
//! hidden. A result that arrives whole from somewhere else goes through
//! [`CiphermatchEngine::generate_indices`], which decrypts it ciphertext
//! by ciphertext into a [`MatchTable`] and scans that.
//! A search takes `&self` and returns its own [`MatchStats`], so one
//! matcher answers every concurrent query on its database; [`exec`] is
//! the work-pool runtime every concurrent layer of the stack (CM-SW
//! range jobs, connection handling) runs on.

pub mod api;
mod bits;
pub mod exec;
mod index_gen;
mod kit;
pub mod matchers;
mod packing;
mod query;
mod shard;

pub use api::{
    erase, Backend, CiphermatchMatcher, Erased, ErasedMatcher, MatchError, MatchStats,
    MatcherConfig, PlainMatcher, SecureMatcher, StatsAccumulator,
};
pub use bits::BitString;
pub use exec::{compute_pool, fan_out, wait_all, CompletionHandle, PoolMetrics, WorkerPool};
pub use index_gen::{generate_indices, MatchTable};
pub use kit::QueryKit;
pub use matchers::batched::{BatchedDatabase, BatchedEngine, BatchedQuery};
pub use matchers::boolean::{BooleanDatabase, BooleanEngine, BooleanGateCount};
pub use matchers::ciphermatch::{
    CiphermatchEngine, EncryptedDatabase, EncryptedQuery, PackedQuery, ResidentCiphertext,
    ResidentDatabase, SearchResult, ShardScratch, TrustedIndexGenerator,
};
pub use matchers::plain::{bitwise_find_all, PackedBits};
pub use matchers::yasuda::{YasudaDatabase, YasudaEngine, YasudaQuery};
pub use matchers::{table1_profiles, ApproachProfile, CostClass};
pub use packing::{DensePacking, SingleBitPacking};
pub use query::{
    alignment_classes, alignment_geometry, build_variants, pack_segments, segment_matches,
    stream_variants, variant_count, AlignmentClass, NegatedClass, QueryVariant,
};
pub use shard::{ShardPlan, ShardRange};
