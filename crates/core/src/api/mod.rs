//! The serving API: one trait over the backends the serving stack
//! serves.
//!
//! The paper serves CM-SW and CM-IFP; this module gives them (plus the
//! unencrypted reference) one surface. The paper's three baselines
//! (Yasuda, Batched, Boolean) are only its comparison points: their
//! engines in [`crate::matchers`] are called directly.
//!
//! * [`SecureMatcher`] — the backend-agnostic trait: encrypt a database,
//!   prepare a query, find all matching bit offsets with the unified
//!   [`MatchStats`] that search spent;
//! * the key-owning adapters in [`backends`] ([`CiphermatchMatcher`],
//!   [`PlainMatcher`]) implementing it; `cm_server::IfpMatcher`
//!   implements it for the in-flash engine;
//! * [`Backend`] + [`MatcherConfig`] — dynamic selection and
//!   construction, yielding a `Box<dyn `[`ErasedMatcher`]`>` whose
//!   database/query types are erased so heterogeneous backends fit one
//!   registry;
//! * [`MatchError`] — the typed error surface of the protocol path (no
//!   panics on malformed input or misconfiguration);
//! * [`MatchStats`] — one statistics shape for every backend.
//!
//! One erased matcher serves concurrent queries over its loaded
//! database: every search takes `&self` and returns its own statistics.
//!
//! ```
//! use cm_core::{Backend, BitString, MatcherConfig};
//!
//! // The same four lines drive any backend.
//! for backend in [Backend::Ciphermatch, Backend::Plain] {
//!     let mut m = MatcherConfig::new(backend).insecure_test().build().unwrap();
//!     m.load_database(&BitString::from_ascii("needle in haystack")).unwrap();
//!     let (hits, _stats) = m.find_all(&BitString::from_ascii("needle")).unwrap();
//!     assert_eq!(hits, vec![0]);
//! }
//! ```

pub mod backends;
mod config;
mod error;
mod stats;

pub use backends::{CiphermatchMatcher, PlainMatcher};
pub use config::{erase, Backend, Erased, ErasedMatcher, MatcherConfig};
pub use error::MatchError;
pub use stats::{MatchStats, StatsAccumulator};

use rand::Rng;

use crate::bits::BitString;

/// A secure string-matching backend: database encryption, query
/// preparation, and exact search, with unified statistics.
///
/// Implementations own whatever key material their protocol role needs,
/// so the trait surface is key-free; randomness is threaded explicitly so
/// callers stay deterministic under a fixed seed. All inputs are bit
/// strings and all results are **bit offsets** into the database,
/// whatever the backend's native alphabet.
///
/// Every method takes `&self`: a search is a function of the encrypted
/// database and one prepared query, and returns the statistics it spent,
/// so one matcher serves any number of concurrent searches.
///
/// The trait is not object-safe (the methods are generic over the RNG);
/// [`ErasedMatcher`] is the object-safe wrapper for heterogeneous
/// registries — see [`erase`] and [`MatcherConfig::build`].
pub trait SecureMatcher {
    /// The backend's encrypted-database representation.
    type Database;
    /// The backend's prepared-query representation.
    type Query;

    /// Which [`Backend`] this matcher implements.
    fn backend(&self) -> Backend;

    /// Packs and encrypts `data` (client side, done once per database).
    fn encrypt_database<R: Rng + ?Sized>(
        &self,
        data: &BitString,
        rng: &mut R,
    ) -> Result<Self::Database, MatchError>;

    /// Prepares (encrypts) one query (client side, per query). Whatever
    /// randomness the search needs is drawn here.
    fn prepare_query<R: Rng + ?Sized>(
        &self,
        query: &BitString,
        rng: &mut R,
    ) -> Result<Self::Query, MatchError>;

    /// Searches `db` for `query`, returning all matching bit offsets in
    /// ascending order, and appends this search's statistics to `stats`:
    /// one entry per polynomial range for CM-SW, one entry for every
    /// other backend. The entries sum field-wise to the search's total;
    /// a caller that reuses `stats` allocates nothing for them.
    fn find_all(
        &self,
        db: &Self::Database,
        query: &Self::Query,
        stats: &mut Vec<MatchStats>,
    ) -> Result<Vec<usize>, MatchError>;

    /// Decodes a query that arrived in this backend's native wire format
    /// (already encrypted by the remote key owner). Plain has no such
    /// format and keeps this default, which returns
    /// [`MatchError::WireQueryUnsupported`].
    fn decode_query(&self, encoded: &[u8]) -> Result<Self::Query, MatchError> {
        let _ = encoded;
        Err(MatchError::WireQueryUnsupported(self.backend()))
    }

    /// Serializes `db` into this backend's native wire/storage format —
    /// what a key owner ships to a serving host with
    /// `Request::LoadDatabase`, and what the host's cold tier stores for
    /// an evicted tenant.
    fn encode_database(&self, db: &Self::Database) -> Result<Vec<u8>, MatchError>;

    /// Decodes **and validates** a database that arrived in this backend's
    /// native wire format: hostile bytes must surface as a typed error
    /// before any ciphertext can reach the search path.
    fn decode_database(&self, encoded: &[u8]) -> Result<Self::Database, MatchError>;

    /// Encrypted footprint of `db` in bytes (Fig. 2a's y-axis).
    fn database_bytes(&self, db: &Self::Database) -> u64;
}
