//! Key-owning adapters implementing [`SecureMatcher`] for every engine.
//!
//! Each adapter bundles an engine with the key material its protocol role
//! needs (mirroring how TFHE-style libraries expose one client/server-key
//! API over interchangeable ciphertext backends), normalizes every input
//! and output to *bit* strings and *bit* offsets, and converts the
//! engine-specific failure modes into [`MatchError`] values.
//! One adapter per engine: [`CiphermatchMatcher`] is the only CM-SW
//! matcher, on one polynomial range for hosted tenants and on several
//! (`cm_server::ShardedCmMatcher`, the same type) for in-process ones.

use std::sync::Arc;

use cm_bfv::{
    BfvContext, BfvParams, Decryptor, Encryptor, GaloisKeys, KeyGenerator, RelinKey, SecretKey,
};
use cm_tfhe::{BitCiphertext, ClientKey, ServerKey, TfheParams};
use rand::Rng;

use crate::api::{Backend, MatchError, MatchStats, SecureMatcher};
use crate::bits::BitString;
use crate::exec::{compute_pool, wait_all};
use crate::kit::QueryKit;
use crate::matchers::batched::{BatchedDatabase, BatchedEngine, BatchedQuery};
use crate::matchers::boolean::{BooleanDatabase, BooleanEngine, BooleanGateCount};
use crate::matchers::ciphermatch::{
    EncryptedDatabase, PackedQuery, ResidentDatabase, ShardScratch, TrustedIndexGenerator,
};
use crate::matchers::plain::PackedBits;
use crate::matchers::yasuda::{YasudaDatabase, YasudaEngine, YasudaQuery};
use crate::shard::ShardPlan;

/// The BFV key bundle shared by the three BFV-based adapters: context,
/// secret key, the two prepared key holders, and the modulus width used
/// for footprint accounting.
#[derive(Debug, Clone)]
struct BfvKeys {
    ctx: BfvContext,
    sk: SecretKey,
    /// Prepared once with the keys; every query encrypts through it …
    enc: Encryptor,
    /// … and decrypts through this.
    dec: Decryptor,
    q_bits: u32,
}

impl BfvKeys {
    fn generate<R: Rng + ?Sized>(params: BfvParams, rng: &mut R) -> Self {
        let ctx = BfvContext::new(params);
        let kg = KeyGenerator::new(&ctx, rng);
        let sk = kg.secret_key();
        let pk = kg.public_key(rng);
        let q_bits = ctx.params().coeff_bits();
        Self {
            enc: Encryptor::new(&ctx, pk),
            dec: Decryptor::new(&ctx, sk.clone()),
            ctx,
            sk,
            q_bits,
        }
    }

    fn encryptor(&self) -> &Encryptor {
        &self.enc
    }

    fn decryptor(&self) -> &Decryptor {
        &self.dec
    }
}

/// CM-SW behind the unified API: dense packing, `Hom-Add`-only search,
/// arbitrary query lengths and bit offsets (the paper's contribution) —
/// the one CM-SW matcher, hosted or sharded.
///
/// A search plans the database into at most `shards` contiguous
/// polynomial ranges ([`ShardPlan`], one polynomial of overlap) and runs
/// the served job ([`ShardScratch::run_pooled`]) once per range, each
/// over a view of the one ciphertext allocation
/// ([`EncryptedDatabase::subrange`]). The database is held in its
/// resident form ([`ResidentDatabase`]) only: the wire bytes are the
/// explicit form's, transformed at load and back at export. A one-range
/// plan — all [`crate::MatcherConfig::build`] makes — runs inline on the
/// calling thread, more as one job each on the process-wide
/// [`compute_pool`], CM-SW's one intra-query parallel mechanism. A search reports one
/// [`MatchStats`] per range.
#[derive(Debug, Clone)]
pub struct CiphermatchMatcher {
    keys: BfvKeys,
    /// The engine and the prepared decryptor, as the served job takes
    /// them; shared with the range jobs in flight.
    index_gen: Arc<TrustedIndexGenerator>,
    shards: usize,
}

impl CiphermatchMatcher {
    /// Generates keys and an engine for `params`; a search runs on at
    /// most `shards` polynomial ranges. With more than one, a window must
    /// end inside the polynomial of overlap a range holds past those it
    /// owns, so queries are limited to one polynomial's worth of bits.
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
        let keys = BfvKeys::generate(params, rng);
        let index_gen = TrustedIndexGenerator::from_secret(&keys.ctx, keys.sk.clone());
        Ok(Self {
            index_gen: Arc::new(index_gen),
            keys,
            shards,
        })
    }

    /// The public query-encryption material a remote client needs to ship
    /// wire queries to this matcher — in the packed form, the one
    /// [`Self::decode_query`] takes.
    pub fn query_kit(&self) -> QueryKit {
        QueryKit::new(self.index_gen.engine().clone(), self.keys.enc.clone())
    }

    fn bits_per_poly(&self) -> usize {
        self.index_gen.engine().packing().bits_per_poly()
    }

    /// How a search cuts `db` into ranges; an empty database has no plan
    /// ([`MatchError::InvalidConfig`]) and is refused when it is loaded.
    pub fn plan<C>(&self, db: &EncryptedDatabase<C>) -> Result<ShardPlan, MatchError> {
        let bpp = self.bits_per_poly();
        ShardPlan::new(db.poly_count(), db.total_bits(), bpp, self.shards, 1)
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
            .encrypt_database(self.keys.encryptor(), data, rng);
        // An empty database is refused here, not at every search.
        self.plan(&db)?;
        Ok(db.into_resident(&self.keys.ctx))
    }

    fn prepare_query<R: Rng + ?Sized>(
        &self,
        query: &BitString,
        rng: &mut R,
    ) -> Result<Self::Query, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        // Refused before anything is encrypted; `find_all` holds wire
        // queries to the same limit through the plan.
        let (max, got) = (self.bits_per_poly(), query.len());
        if self.shards > 1 && got > max {
            return Err(MatchError::QueryTooLong { max, got });
        }
        Ok(Arc::new(self.index_gen.engine().pack_query(
            self.keys.encryptor(),
            query,
            rng,
        )))
    }

    fn find_all(
        &self,
        db: &Self::Database,
        query: &Self::Query,
        stats: &mut Vec<MatchStats>,
    ) -> Result<Vec<usize>, MatchError> {
        let plan = self.plan(db)?;
        let query_bytes = query.byte_size(self.keys.q_bits) as u64;
        // A range job's own counters plus the query broadcast to it (every
        // range receives the packed query's ciphertexts).
        let job = |shard: ResidentDatabase| {
            let (query, index_gen) = (Arc::clone(query), Arc::clone(&self.index_gen));
            move || {
                let (indices, mut swept) = ShardScratch::run_pooled(&shard, &query, &index_gen);
                swept.bytes_moved += query_bytes;
                (indices, swept)
            }
        };
        if plan.shard_count() == 1 {
            let (indices, swept) = job(db.clone())();
            stats.push(swept);
            return Ok(indices);
        }
        let (max, got, bpp) = (plan.max_query_bits(), query.k(), self.bits_per_poly());
        if got > max {
            return Err(MatchError::QueryTooLong { max, got });
        }
        let handles = plan
            .ranges()
            .map(|r| compute_pool().submit(job(db.subrange(r.held, bpp))))
            .collect();
        let mut per_range = Vec::with_capacity(plan.shard_count());
        for (indices, swept) in wait_all(handles)? {
            stats.push(swept);
            per_range.push(indices);
        }
        Ok(plan.merge_indices(&per_range))
    }

    fn decode_query(&self, encoded: &[u8]) -> Result<Self::Query, MatchError> {
        Ok(Arc::new(PackedQuery::decode(
            encoded,
            self.keys.ctx.params().n,
            self.index_gen.engine().packing().seg_bits(),
            self.keys.ctx.params().q,
        )?))
    }

    fn encode_database(&self, db: &Self::Database) -> Result<Vec<u8>, MatchError> {
        Ok(db.encode(&self.keys.ctx, self.keys.q_bits))
    }

    fn decode_database(&self, encoded: &[u8]) -> Result<Self::Database, MatchError> {
        let db = EncryptedDatabase::decode(encoded)?;
        db.validate(
            self.keys.ctx.params().n,
            self.keys.ctx.params().q,
            self.bits_per_poly(),
        )?;
        self.plan(&db)?;
        Ok(db.into_resident(&self.keys.ctx))
    }

    fn database_bytes(&self, db: &Self::Database) -> u64 {
        db.byte_size(self.keys.q_bits) as u64
    }
}

/// Yasuda et al. \[27\] behind the unified API: Hamming-distance matching
/// with a *fixed* query window — queries of any other length return
/// [`MatchError::WindowMismatch`], the Table 1 inflexibility made typed.
#[derive(Debug, Clone)]
pub struct YasudaMatcher {
    keys: BfvKeys,
    engine: YasudaEngine,
    window: usize,
}

impl YasudaMatcher {
    /// Generates keys and an engine; database blocks will be laid out for
    /// queries of exactly `window` bits.
    pub fn new<R: Rng + ?Sized>(
        params: BfvParams,
        window: usize,
        rng: &mut R,
    ) -> Result<Self, MatchError> {
        if window == 0 {
            return Err(MatchError::InvalidConfig("window must be positive"));
        }
        if window > params.n {
            return Err(MatchError::InvalidConfig("window exceeds the ring degree"));
        }
        let keys = BfvKeys::generate(params, rng);
        Ok(Self {
            engine: YasudaEngine::new(&keys.ctx),
            keys,
            window,
        })
    }
}

impl SecureMatcher for YasudaMatcher {
    type Database = YasudaDatabase;
    type Query = YasudaQuery;

    fn backend(&self) -> Backend {
        Backend::Yasuda
    }

    fn encrypt_database<R: Rng + ?Sized>(
        &self,
        data: &BitString,
        rng: &mut R,
    ) -> Result<Self::Database, MatchError> {
        Ok(self
            .engine
            .encrypt_database(self.keys.encryptor(), data, self.window, rng))
    }

    fn prepare_query<R: Rng + ?Sized>(
        &self,
        query: &BitString,
        rng: &mut R,
    ) -> Result<Self::Query, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        if query.len() != self.window {
            return Err(MatchError::WindowMismatch {
                expected: self.window,
                got: query.len(),
            });
        }
        Ok(self.engine.prepare_query(self.keys.encryptor(), query, rng))
    }

    fn find_all(
        &self,
        db: &Self::Database,
        query: &Self::Query,
        stats: &mut Vec<MatchStats>,
    ) -> Result<Vec<usize>, MatchError> {
        if query.k() != db.window() {
            return Err(MatchError::WindowMismatch {
                expected: db.window(),
                got: query.k(),
            });
        }
        let (hits, mut searched) = self
            .engine
            .search_prepared(self.keys.decryptor(), db, query, 0);
        searched.bytes_moved += query.byte_size(self.keys.q_bits) as u64;
        stats.push(searched);
        Ok(hits.into_iter().map(|(offset, _)| offset).collect())
    }

    fn database_bytes(&self, db: &Self::Database) -> u64 {
        db.byte_size(self.keys.q_bits) as u64
    }
}

/// The SIMD-batched baseline \[34, 29\] behind the unified API.
///
/// The adapter runs the engine at **bit granularity** (one slot symbol per
/// database bit) so that, like every other backend, it returns exact bit
/// offsets for arbitrary bit patterns up to the provisioned window. The
/// symbol-level engine remains available directly for byte-alphabet
/// workloads. Cost profile is unchanged in kind: one rotation + one
/// squaring per query bit per block.
#[derive(Debug, Clone)]
pub struct BatchedMatcher {
    keys: BfvKeys,
    rk: RelinKey,
    gk: GaloisKeys,
    engine: BatchedEngine,
    window: usize,
}

impl BatchedMatcher {
    /// Generates keys (relinearization plus Galois keys for rotations
    /// `1..window`) and an engine; queries may be up to `window` bits.
    pub fn new<R: Rng + ?Sized>(
        params: BfvParams,
        window: usize,
        rng: &mut R,
    ) -> Result<Self, MatchError> {
        let keys = BfvKeys::generate(params, rng);
        let slots = keys.ctx.params().n / 2;
        if window == 0 {
            return Err(MatchError::InvalidConfig("window must be positive"));
        }
        if window > slots {
            return Err(MatchError::InvalidConfig(
                "window exceeds the usable slots per block",
            ));
        }
        let kg = KeyGenerator::from_secret(&keys.ctx, keys.sk.clone());
        let rk = kg.relin_key(rng);
        let gk = kg.galois_keys(&kg.galois_elements_for_rotations(window), rng);
        Ok(Self {
            engine: BatchedEngine::new(&keys.ctx),
            keys,
            rk,
            gk,
            window,
        })
    }
}

impl SecureMatcher for BatchedMatcher {
    type Database = BatchedDatabase;
    type Query = BatchedQuery;

    fn backend(&self) -> Backend {
        Backend::Batched
    }

    fn encrypt_database<R: Rng + ?Sized>(
        &self,
        data: &BitString,
        rng: &mut R,
    ) -> Result<Self::Database, MatchError> {
        let symbols: Vec<u64> = data.bits().iter().map(|&b| b as u64).collect();
        Ok(self
            .engine
            .encrypt_database(self.keys.encryptor(), &symbols, self.window, rng))
    }

    fn prepare_query<R: Rng + ?Sized>(
        &self,
        query: &BitString,
        rng: &mut R,
    ) -> Result<Self::Query, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        if query.len() > self.window {
            return Err(MatchError::QueryTooLong {
                max: self.window,
                got: query.len(),
            });
        }
        // In this baseline the query stays plaintext on the server (the
        // scheme hides the database, not the pattern).
        let symbols: Vec<u64> = query.bits().iter().map(|&b| b as u64).collect();
        Ok(self.engine.prepare_query(&symbols, rng))
    }

    fn find_all(
        &self,
        db: &Self::Database,
        query: &Self::Query,
        stats: &mut Vec<MatchStats>,
    ) -> Result<Vec<usize>, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        if query.len() > db.max_query() {
            return Err(MatchError::QueryTooLong {
                max: db.max_query(),
                got: query.len(),
            });
        }
        let dec = self.keys.decryptor();
        let (hits, searched) = self.engine.search(dec, &self.rk, &self.gk, db, query);
        stats.push(searched);
        Ok(hits)
    }

    fn database_bytes(&self, db: &Self::Database) -> u64 {
        db.byte_size(self.keys.q_bits) as u64
    }
}

/// The Boolean TFHE baseline \[17, 33\] behind the unified API: one LWE
/// ciphertext per bit, `2k - 1` bootstrapped gates per window.
///
/// `bootstraps` is counted analytically via [`BooleanGateCount`], which
/// the engine's tests pin to the executed gate count.
#[derive(Debug)]
pub struct BooleanMatcher {
    client: ClientKey,
    server: ServerKey,
}

impl BooleanMatcher {
    /// Generates client and server TFHE keys. A search evaluates its
    /// windows on [`crate::exec::compute_workers`] scoped threads.
    pub fn new<R: Rng + ?Sized>(params: TfheParams, rng: &mut R) -> Self {
        let client = ClientKey::generate(params, rng);
        let server = ServerKey::generate(&client, rng);
        Self { client, server }
    }
}

impl SecureMatcher for BooleanMatcher {
    type Database = BooleanDatabase;
    type Query = Vec<BitCiphertext>;

    fn backend(&self) -> Backend {
        Backend::Boolean
    }

    fn encrypt_database<R: Rng + ?Sized>(
        &self,
        data: &BitString,
        rng: &mut R,
    ) -> Result<Self::Database, MatchError> {
        let engine = BooleanEngine::new(&self.client, &self.server);
        Ok(engine.encrypt_database(data, rng))
    }

    fn prepare_query<R: Rng + ?Sized>(
        &self,
        query: &BitString,
        rng: &mut R,
    ) -> Result<Self::Query, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        Ok(self.client.encrypt_bits(query.bits(), rng))
    }

    fn find_all(
        &self,
        db: &Self::Database,
        query: &Self::Query,
        stats: &mut Vec<MatchStats>,
    ) -> Result<Vec<usize>, MatchError> {
        let k = query.len();
        if k == 0 {
            return Err(MatchError::EmptyQuery);
        }
        if db.len() < k {
            stats.push(MatchStats::default());
            return Ok(Vec::new());
        }
        stats.push(MatchStats {
            bytes_moved: (query.len() * self.client.params().lwe_ciphertext_bytes()) as u64,
            bootstraps: BooleanGateCount::for_search(db.len(), k).total(),
            ..MatchStats::default()
        });
        BooleanEngine::new(&self.client, &self.server).find_all(
            db,
            query,
            crate::exec::compute_workers(),
        )
    }

    fn database_bytes(&self, db: &Self::Database) -> u64 {
        db.byte_size(self.client.params().lwe_dim) as u64
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
