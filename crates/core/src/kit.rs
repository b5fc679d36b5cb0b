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
//! What [`QueryKit::encode_query`] produces, and so what travels in a
//! client-key Match, depends on which matcher built the kit — never on
//! the caller:
//!
//! * a CM-SW matcher ([`crate::CiphermatchMatcher::query_kit`]) takes the
//!   *packed* form ([`crate::PackedQuery::encode`], `CMQ3`): the query's
//!   length `k` and `⌈V/n⌉` ciphertexts holding every negated segment
//!   once — one ciphertext, ≈ 8 KB, for a 32-bit query at `n = 1024`.
//!   The server replicates the `V` variants itself, on ciphertext
//!   coefficients. That departs from Algorithm 1 lines 4–9 and is valid
//!   because the trusted index generator next to the data tests
//!   decryption phases coefficient by coefficient; the replicated
//!   variants are a public function of what was sent, so the server
//!   learns nothing `V` fresh encryptions would have hidden.
//! * anything that decrypts result ciphertexts somewhere else — the
//!   in-flash matcher — takes the *explicit* form
//!   ([`crate::EncryptedQuery::encode`], `CMQ2`): `k` and one fresh
//!   ciphertext per shifted variant, Algorithm 1 to the letter (47
//!   ciphertexts, ≈ 386 KB, for the same query).
//!
//! Either way the alignment geometry the server needs is a function of
//! `k` and is rebuilt there; the negated pattern segments exist only
//! inside the call, on this side. A matcher refuses the other form's
//! bytes as [`cm_bfv::DecodeError::BadMagic`].

use cm_bfv::Encryptor;
use rand::Rng;

use crate::api::MatchError;
use crate::bits::BitString;
use crate::matchers::ciphermatch::CiphermatchEngine;

/// Public query-encryption material for one tenant: the engine and the
/// encryptor, both built once when the kit is, and the wire form the
/// tenant's matcher takes.
#[derive(Clone)]
pub struct QueryKit {
    engine: CiphermatchEngine,
    enc: Encryptor,
    packed: bool,
}

impl std::fmt::Debug for QueryKit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryKit")
            .field("params", &self.enc.context().params().name)
            .finish()
    }
}

impl QueryKit {
    /// The kit of a matcher that takes explicit queries (`CMQ2`, one
    /// ciphertext per variant).
    pub fn new(engine: CiphermatchEngine, enc: Encryptor) -> Self {
        Self {
            engine,
            enc,
            packed: false,
        }
    }

    /// The kit of a matcher that takes packed queries (`CMQ3`, every
    /// negated segment once) and replicates the variants itself.
    pub fn packed(engine: CiphermatchEngine, enc: Encryptor) -> Self {
        Self {
            engine,
            enc,
            packed: true,
        }
    }

    /// Encrypts `query` and serializes it into the wire form the kit's
    /// matcher takes, ready for `cm_server::MatchClient::search_encoded`.
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
        if self.packed {
            let q_bits = 64 - self.enc.context().params().q.leading_zeros();
            let packed = self.engine.pack_query(&self.enc, query, rng);
            return Ok(packed.encode(q_bits));
        }
        Ok(self.engine.prepare_query_encoded(&self.enc, query, rng))
    }
}
