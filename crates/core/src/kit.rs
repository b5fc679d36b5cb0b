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
//! client-key Match, is the query's length `k` and one ciphertext per
//! shifted variant ([`crate::EncryptedQuery::encode`]). The alignment
//! geometry the server needs is a function of `k` and is rebuilt there;
//! the negated pattern segments the variants are made of exist only
//! inside the call, on this side.

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
    /// What a key-holding matcher's `query_kit()` hands out.
    pub fn new(engine: CiphermatchEngine, enc: Encryptor) -> Self {
        Self { engine, enc }
    }

    /// Encrypts `query` and serializes it into the CIPHERMATCH wire format
    /// ([`crate::EncryptedQuery::encode`]) ready for
    /// `cm_server::MatchClient::search_encoded` — each variant encrypted
    /// straight into the output bytes.
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
        Ok(self.engine.prepare_query_encoded(&self.enc, query, rng))
    }
}
