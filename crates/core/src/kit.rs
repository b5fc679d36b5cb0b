//! The client-side query kit: the public material a key owner needs to
//! encrypt queries for a remote CIPHERMATCH-family tenant.
//!
//! Provisioning mirrors the paper's offline step: the tenant's owner keeps
//! the secret key, hands the server a delegated index-generation
//! capability and an AES channel key, and keeps (or distributes) this kit
//! so query encryption can happen *away* from the serving process. The
//! kit holds only public material — context parameters and the public
//! key, the latter already prepared for encryption.
//!
//! [`QueryKit::encode_query`] produces one form for every tenant that
//! takes encrypted queries, CM-SW ([`crate::CiphermatchMatcher::query_kit`])
//! and the in-flash matcher alike: the *packed* form
//! ([`crate::PackedQuery::encode`], `CMQ3`) — the query's length `k` and
//! `⌈V/n⌉` ciphertexts holding every negated segment once: one
//! ciphertext, ≈ 8 KB, for a 32-bit query at `n = 1024`. The server
//! replicates the `V` variants itself, on ciphertext coefficients — in a
//! range job's memory, or on their way into the flash latches. That
//! departs from Algorithm 1 lines 4–9 and is valid because the trusted
//! index generator next to the data tests decryption phases coefficient
//! by coefficient; the replicated variants are a public function of what
//! was sent, so the server learns nothing `V` fresh encryptions would
//! have hidden.
//!
//! The alignment geometry the server needs is a function of `k` and is
//! rebuilt there; the negated pattern segments exist only inside the
//! call, on this side. Algorithm 1's explicit form
//! ([`crate::EncryptedQuery`], one fresh ciphertext per shifted variant)
//! is the test oracle and has no wire encoding: any magic but `CMQ3` —
//! its old `CMQ2` and the retired `CMQ1` included — is a
//! [`cm_bfv::DecodeError::BadMagic`].

use cm_bfv::Encryptor;
use rand::Rng;

use crate::api::MatchError;
use crate::bits::BitString;
use crate::matchers::ciphermatch::CiphermatchEngine;

/// Public query-encryption material for one tenant: the engine and the
/// encryptor, both built once when the kit is.
#[derive(Clone)]
pub struct QueryKit {
    engine: CiphermatchEngine,
    enc: Encryptor,
}

impl std::fmt::Debug for QueryKit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryKit")
            .field("params", &self.enc.context().params().name)
            .finish()
    }
}

impl QueryKit {
    /// The kit of a matcher that takes packed queries (`CMQ3`, every
    /// negated segment once) and replicates the variants itself — every
    /// matcher that takes encrypted queries.
    pub fn new(engine: CiphermatchEngine, enc: Encryptor) -> Self {
        Self { engine, enc }
    }

    /// Packs, encrypts and serializes `query`, ready for
    /// `cm_server::MatchClient::search_encoded`.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::EmptyQuery`] for the empty pattern.
    pub fn encode_query<R: Rng + ?Sized>(
        &self,
        query: &BitString,
        rng: &mut R,
    ) -> Result<Vec<u8>, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        let packed = self.engine.pack_query(&self.enc, query, rng);
        Ok(packed.encode(self.enc.context().params().coeff_bits()))
    }
}
