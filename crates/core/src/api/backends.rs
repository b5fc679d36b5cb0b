//! The two key-owning adapters implementing [`SecureMatcher`]: the
//! served in-process backends.
//!
//! Each adapter bundles an engine with the key material its protocol role
//! needs, normalizes every input and output to *bit* strings and *bit*
//! offsets, and converts the engine's failure modes into [`MatchError`]
//! values. [`CiphermatchMatcher`] is the only CM-SW matcher, on one
//! polynomial range for hosted tenants and on several
//! (`cm_server::ShardedCmMatcher`, the same type) for in-process ones;
//! [`PlainMatcher`] is the unencrypted reference. The paper's baselines
//! (Yasuda, Batched, Boolean) are engines only, in [`crate::matchers`]:
//! nothing serves them.

use std::sync::Arc;

use cm_bfv::{BfvContext, BfvParams, Encryptor, KeyGenerator};
use rand::Rng;

use crate::api::{Backend, MatchError, MatchStats, SecureMatcher};
use crate::bits::BitString;
use crate::exec::{compute_pool, wait_all};
use crate::kit::QueryKit;
use crate::matchers::ciphermatch::{
    EncryptedDatabase, PackedQuery, ResidentDatabase, ShardScratch, TrustedIndexGenerator,
};
use crate::matchers::plain::PackedBits;
use crate::shard::{ShardPlan, ShardRange};

/// CM-SW behind the unified API: dense packing, `Hom-Add`-only search,
/// arbitrary query lengths and bit offsets (the paper's contribution) —
/// the one CM-SW matcher, hosted or sharded.
///
/// A search plans the database into at most `shards` contiguous
/// polynomial ranges for the query's length ([`ShardPlan::ranges`]) and
/// runs the served job ([`ShardScratch::run_pooled`]) once per range,
/// each over a view of the one ciphertext allocation
/// ([`EncryptedDatabase::subrange`]) that reaches `k − 1` bits past the
/// range's owned bits. A range reports exactly the windows that start
/// in its owned bits, so the search concatenates the remapped lists.
/// The database is held in its resident form ([`ResidentDatabase`])
/// only: the wire bytes are the explicit form's, transformed at load and
/// back at export. A one-range plan — all [`crate::MatcherConfig::build`]
/// makes — runs inline on the calling thread, more as one job each on
/// the process-wide [`compute_pool`], CM-SW's one intra-query parallel
/// mechanism. A search reports one [`MatchStats`] per range.
#[derive(Debug, Clone)]
pub struct CiphermatchMatcher {
    ctx: BfvContext,
    /// Prepared once with the keys; every client-side encryption goes
    /// through it.
    enc: Encryptor,
    /// The engine and the prepared decryptor, as the served job takes
    /// them; shared with the range jobs in flight.
    index_gen: Arc<TrustedIndexGenerator>,
    shards: usize,
}

impl CiphermatchMatcher {
    /// Generates keys and an engine for `params`; a search runs on at
    /// most `shards` polynomial ranges, for a query of any length.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::InvalidConfig`] for a zero shard count or a
    /// parameter set a served job cannot use: a non-power-of-two `t`
    /// (dense packing), or `q` above `2³²` (a job holds its phases in
    /// 32-bit words, see [`ShardScratch::run`]).
    pub fn new<R: Rng + ?Sized>(
        params: BfvParams,
        shards: usize,
        rng: &mut R,
    ) -> Result<Self, MatchError> {
        if shards == 0 {
            return Err(MatchError::InvalidConfig("shard count must be positive"));
        }
        if !params.t.is_power_of_two() {
            return Err(MatchError::InvalidConfig(
                "dense packing requires a power-of-two plaintext modulus",
            ));
        }
        if params.q > 1 << 32 {
            return Err(MatchError::InvalidConfig(
                "a served job holds phases in 32-bit words: q must be at most 2^32",
            ));
        }
        let ctx = BfvContext::new(params);
        let kg = KeyGenerator::new(&ctx, rng);
        let pk = kg.public_key(rng);
        let index_gen = TrustedIndexGenerator::from_secret(&ctx, kg.secret_key());
        Ok(Self {
            enc: Encryptor::new(&ctx, pk),
            index_gen: Arc::new(index_gen),
            ctx,
            shards,
        })
    }

    /// The public query-encryption material a remote client needs to ship
    /// wire queries to this matcher — in the packed form, the one
    /// [`Self::decode_query`] takes.
    pub fn query_kit(&self) -> QueryKit {
        QueryKit::new(self.index_gen.engine().clone(), self.enc.clone())
    }

    fn bits_per_poly(&self) -> usize {
        self.index_gen.engine().packing().bits_per_poly()
    }

    /// How a search cuts `db` into ranges; an empty database has no plan
    /// ([`MatchError::InvalidConfig`]) and is refused when it is loaded.
    pub fn plan<C>(&self, db: &EncryptedDatabase<C>) -> Result<ShardPlan, MatchError> {
        let bpp = self.bits_per_poly();
        ShardPlan::new(db.poly_count(), db.total_bits(), bpp, self.shards)
    }
}

impl SecureMatcher for CiphermatchMatcher {
    /// The resident form: `c0` in coefficients, `c1` in the evaluation
    /// domain, transformed once when the database is encrypted or
    /// decoded and back only when it is encoded.
    type Database = ResidentDatabase;
    /// Shared, so every range job of a search holds the one query — in
    /// the packed form, whose variants each job derives for itself.
    type Query = Arc<PackedQuery>;

    fn backend(&self) -> Backend {
        Backend::Ciphermatch
    }

    fn encrypt_database<R: Rng + ?Sized>(
        &self,
        data: &BitString,
        rng: &mut R,
    ) -> Result<Self::Database, MatchError> {
        let db = self
            .index_gen
            .engine()
            .encrypt_database(&self.enc, data, rng);
        // An empty database is refused here, not at every search.
        self.plan(&db)?;
        Ok(db.into_resident(&self.ctx))
    }

    fn prepare_query<R: Rng + ?Sized>(
        &self,
        query: &BitString,
        rng: &mut R,
    ) -> Result<Self::Query, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        Ok(Arc::new(
            self.index_gen.engine().pack_query(&self.enc, query, rng),
        ))
    }

    fn find_all(
        &self,
        db: &Self::Database,
        query: &Self::Query,
        stats: &mut Vec<MatchStats>,
    ) -> Result<Vec<usize>, MatchError> {
        let plan = self.plan(db)?;
        let query_bytes = query.byte_size(self.ctx.params().coeff_bits()) as u64;
        // A range job's global match offsets and its own counters plus the
        // query broadcast to it (every range receives the packed query's
        // ciphertexts).
        let job = |range: ShardRange| {
            let shard = db.subrange(range.held, range.bits);
            let (query, index_gen) = (Arc::clone(query), Arc::clone(&self.index_gen));
            move || {
                let (mut indices, mut swept) = ShardScratch::run_pooled(&shard, &query, &index_gen);
                indices.iter_mut().for_each(|i| *i += range.start_bit);
                swept.bytes_moved += query_bytes;
                (indices, swept)
            }
        };
        let mut ranges = plan.ranges(query.k());
        if plan.shard_count() == 1 {
            let (indices, swept) = job(ranges.next().expect("a plan has a range"))();
            stats.push(swept);
            return Ok(indices);
        }
        let handles = ranges.map(|r| compute_pool().submit(job(r))).collect();
        // Each range reports the windows starting in its owned bits: the
        // lists are disjoint and, in range order, ascending.
        let mut indices = Vec::new();
        for (hits, swept) in wait_all(handles)? {
            stats.push(swept);
            indices.extend(hits);
        }
        Ok(indices)
    }

    fn decode_query(&self, encoded: &[u8]) -> Result<Self::Query, MatchError> {
        Ok(Arc::new(PackedQuery::decode(
            encoded,
            self.ctx.params().n,
            self.index_gen.engine().packing().seg_bits(),
            self.ctx.params().q,
        )?))
    }

    fn encode_database(&self, db: &Self::Database) -> Result<Vec<u8>, MatchError> {
        Ok(db.encode(&self.ctx, self.ctx.params().coeff_bits()))
    }

    fn decode_database(&self, encoded: &[u8]) -> Result<Self::Database, MatchError> {
        let db = EncryptedDatabase::decode(encoded)?;
        db.validate(
            self.ctx.params().n,
            self.ctx.params().q,
            self.bits_per_poly(),
        )?;
        self.plan(&db)?;
        Ok(db.into_resident(&self.ctx))
    }

    fn database_bytes(&self, db: &Self::Database) -> u64 {
        db.byte_size(self.ctx.params().coeff_bits()) as u64
    }
}

/// The unencrypted word-packed reference matcher (§2.2 / §3.1's "5.9 µs
/// unencrypted" comparison point) behind the unified API.
#[derive(Debug, Clone, Default)]
pub struct PlainMatcher;

impl PlainMatcher {
    /// Creates the reference matcher (no keys, no parameters).
    pub fn new() -> Self {
        Self
    }
}

impl SecureMatcher for PlainMatcher {
    /// Packed once here, scanned by every query.
    type Database = PackedBits;
    type Query = BitString;

    fn backend(&self) -> Backend {
        Backend::Plain
    }

    fn encrypt_database<R: Rng + ?Sized>(
        &self,
        data: &BitString,
        _rng: &mut R,
    ) -> Result<Self::Database, MatchError> {
        Ok(PackedBits::from_bits(data))
    }

    fn prepare_query<R: Rng + ?Sized>(
        &self,
        query: &BitString,
        _rng: &mut R,
    ) -> Result<Self::Query, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        Ok(query.clone())
    }

    fn find_all(
        &self,
        db: &Self::Database,
        query: &Self::Query,
        stats: &mut Vec<MatchStats>,
    ) -> Result<Vec<usize>, MatchError> {
        stats.push(MatchStats {
            bytes_moved: db.len().div_ceil(8) as u64,
            ..MatchStats::default()
        });
        Ok(db.find_all(query))
    }

    fn encode_database(&self, db: &Self::Database) -> Result<Vec<u8>, MatchError> {
        // A minimal serialized form (bit count + MSB-first packed bytes)
        // so the unencrypted reference participates in the remote
        // database lifecycle — and gives the serving tests a fast wire
        // database format.
        let mut out = Vec::with_capacity(8 + db.len().div_ceil(8));
        out.extend_from_slice(&(db.len() as u64).to_le_bytes());
        out.extend_from_slice(&db.to_bytes());
        Ok(out)
    }

    fn decode_database(&self, encoded: &[u8]) -> Result<Self::Database, MatchError> {
        use cm_bfv::DecodeError;
        let header: [u8; 8] = encoded
            .get(..8)
            .and_then(|h| h.try_into().ok())
            .ok_or(MatchError::Decode(DecodeError::Truncated))?;
        // The length is checked against the payload *before* anything is
        // sized by it: a lying bit count must not balloon memory.
        usize::try_from(u64::from_le_bytes(header))
            .ok()
            .and_then(|bit_len| PackedBits::from_bytes(&encoded[8..], bit_len))
            .ok_or(MatchError::Decode(DecodeError::BadHeader(
                "bit count vs payload length",
            )))
    }

    fn database_bytes(&self, db: &Self::Database) -> u64 {
        db.len().div_ceil(8) as u64
    }
}
