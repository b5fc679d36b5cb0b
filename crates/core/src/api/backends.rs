//! Key-owning adapters implementing [`SecureMatcher`] for every engine.
//!
//! Each adapter bundles an engine with the key material its protocol role
//! needs (mirroring how TFHE-style libraries expose one client/server-key
//! API over interchangeable ciphertext backends), normalizes every input
//! and output to *bit* strings and *bit* offsets, and converts the
//! engine-specific failure modes into [`MatchError`] values.

use std::sync::Arc;

use cm_bfv::{
    BfvContext, BfvParams, Decryptor, Encryptor, GaloisKeys, KeyGenerator, RelinKey, SecretKey,
};
use cm_tfhe::{BitCiphertext, ClientKey, ServerKey, TfheParams};
use rand::Rng;

use crate::api::{Backend, MatchError, MatchStats, SecureMatcher};
use crate::bits::BitString;
use crate::matchers::batched::{BatchedDatabase, BatchedEngine};
use crate::matchers::boolean::{BooleanDatabase, BooleanEngine, BooleanGateCount};
use crate::matchers::ciphermatch::{EncryptedDatabase, EncryptedQuery, ShardScratch};
use crate::matchers::plain::PackedBits;
use crate::matchers::yasuda::{YasudaDatabase, YasudaEngine, YasudaQuery};
use crate::protocol::TrustedIndexGenerator;

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
        let q_bits = 64 - ctx.params().q.leading_zeros();
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

/// Engine counters plus the adapter-level extras, in one value.
fn merged(engine_stats: MatchStats, extra: &MatchStats) -> MatchStats {
    let mut s = engine_stats;
    s.merge(extra);
    s
}

/// CM-SW behind the unified API: dense packing, `Hom-Add`-only search,
/// arbitrary query lengths and bit offsets (the paper's contribution).
///
/// A query runs the served CM-SW job ([`ShardScratch::run_pooled`]) over
/// the whole database, inline on the calling thread; intra-query
/// parallelism is what polynomial-range shards are for
/// (`cm_server::ShardedCmMatcher`).
#[derive(Debug, Clone)]
pub struct CiphermatchMatcher {
    keys: BfvKeys,
    /// The engine and the prepared decryptor, as the served job takes them.
    index_gen: TrustedIndexGenerator,
    stats: MatchStats,
}

impl CiphermatchMatcher {
    /// Generates keys and an engine for `params`.
    pub fn new<R: Rng + ?Sized>(params: BfvParams, rng: &mut R) -> Self {
        let keys = BfvKeys::generate(params, rng);
        Self {
            index_gen: TrustedIndexGenerator::from_secret(&keys.ctx, keys.sk.clone()),
            keys,
            stats: MatchStats::default(),
        }
    }
}

impl SecureMatcher for CiphermatchMatcher {
    type Database = EncryptedDatabase;
    type Query = EncryptedQuery;
    type Stats = MatchStats;

    fn backend(&self) -> Backend {
        Backend::Ciphermatch
    }

    fn encrypt_database<R: Rng + ?Sized>(
        &mut self,
        data: &BitString,
        rng: &mut R,
    ) -> Result<Self::Database, MatchError> {
        Ok(self
            .index_gen
            .engine()
            .encrypt_database(self.keys.encryptor(), data, rng))
    }

    fn prepare_query<R: Rng + ?Sized>(
        &mut self,
        query: &BitString,
        rng: &mut R,
    ) -> Result<Self::Query, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        Ok(self
            .index_gen
            .engine()
            .prepare_query(self.keys.encryptor(), query, rng))
    }

    fn find_all<R: Rng + ?Sized>(
        &mut self,
        db: &Self::Database,
        query: &Self::Query,
        _rng: &mut R,
    ) -> Result<Vec<usize>, MatchError> {
        self.stats.bytes_moved += query.byte_size(self.keys.q_bits) as u64;
        let (indices, swept) = ShardScratch::run_pooled(db, query, &self.index_gen);
        self.stats.merge(&swept);
        Ok(indices)
    }

    fn decode_query(&self, encoded: &[u8]) -> Result<Self::Query, MatchError> {
        Ok(EncryptedQuery::decode_validated(
            encoded,
            self.keys.ctx.params().n,
            self.index_gen.engine().packing().seg_bits(),
            self.keys.ctx.params().q,
        )?)
    }

    fn encode_database(&self, db: &Self::Database) -> Result<Vec<u8>, MatchError> {
        Ok(db.encode(self.keys.q_bits))
    }

    fn decode_database(&self, encoded: &[u8]) -> Result<Self::Database, MatchError> {
        let db = EncryptedDatabase::decode(encoded)?;
        db.validate(
            self.keys.ctx.params().n,
            self.keys.ctx.params().q,
            self.index_gen.engine().packing().bits_per_poly(),
        )?;
        Ok(db)
    }

    fn database_bytes(&self, db: &Self::Database) -> u64 {
        db.byte_size(self.keys.q_bits) as u64
    }

    fn stats(&self) -> MatchStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MatchStats::default();
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
    extra: MatchStats,
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
            extra: MatchStats::default(),
        })
    }
}

impl SecureMatcher for YasudaMatcher {
    type Database = YasudaDatabase;
    type Query = YasudaQuery;
    type Stats = MatchStats;

    fn backend(&self) -> Backend {
        Backend::Yasuda
    }

    fn encrypt_database<R: Rng + ?Sized>(
        &mut self,
        data: &BitString,
        rng: &mut R,
    ) -> Result<Self::Database, MatchError> {
        Ok(self
            .engine
            .encrypt_database(self.keys.encryptor(), data, self.window, rng))
    }

    fn prepare_query<R: Rng + ?Sized>(
        &mut self,
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

    fn find_all<R: Rng + ?Sized>(
        &mut self,
        db: &Self::Database,
        query: &Self::Query,
        _rng: &mut R,
    ) -> Result<Vec<usize>, MatchError> {
        if query.k() != db.window() {
            return Err(MatchError::WindowMismatch {
                expected: db.window(),
                got: query.k(),
            });
        }
        self.extra.bytes_moved += query.byte_size(self.keys.q_bits) as u64;
        Ok(self
            .engine
            .search_prepared(self.keys.decryptor(), db, query, 0)
            .into_iter()
            .map(|(offset, _)| offset)
            .collect())
    }

    fn database_bytes(&self, db: &Self::Database) -> u64 {
        db.byte_size(self.keys.q_bits) as u64
    }

    fn stats(&self) -> MatchStats {
        merged(self.engine.stats(), &self.extra)
    }

    fn reset_stats(&mut self) {
        self.engine.reset_stats();
        self.extra = MatchStats::default();
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
    extra: MatchStats,
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
            extra: MatchStats::default(),
        })
    }
}

impl SecureMatcher for BatchedMatcher {
    type Database = BatchedDatabase;
    type Query = Vec<u64>;
    type Stats = MatchStats;

    fn backend(&self) -> Backend {
        Backend::Batched
    }

    fn encrypt_database<R: Rng + ?Sized>(
        &mut self,
        data: &BitString,
        rng: &mut R,
    ) -> Result<Self::Database, MatchError> {
        let symbols: Vec<u64> = data.bits().iter().map(|&b| b as u64).collect();
        Ok(self
            .engine
            .encrypt_database(self.keys.encryptor(), &symbols, self.window, rng))
    }

    fn prepare_query<R: Rng + ?Sized>(
        &mut self,
        query: &BitString,
        _rng: &mut R,
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
        Ok(query.bits().iter().map(|&b| b as u64).collect())
    }

    fn find_all<R: Rng + ?Sized>(
        &mut self,
        db: &Self::Database,
        query: &Self::Query,
        rng: &mut R,
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
        let enc = self.keys.encryptor();
        let dec = self.keys.decryptor();
        Ok(self
            .engine
            .find_all(enc, dec, &self.rk, &self.gk, db, query, rng))
    }

    fn database_bytes(&self, db: &Self::Database) -> u64 {
        db.byte_size(self.keys.q_bits) as u64
    }

    fn stats(&self) -> MatchStats {
        merged(self.engine.stats(), &self.extra)
    }

    fn reset_stats(&mut self) {
        self.engine.reset_stats();
        self.extra = MatchStats::default();
    }
}

/// The Boolean TFHE baseline \[17, 33\] behind the unified API: one LWE
/// ciphertext per bit, `2k - 1` bootstrapped gates per window.
///
/// Key material is shared behind [`Arc`] so cloned workers reuse the same
/// (expensive) bootstrapping key; `bootstraps` is counted analytically via
/// [`BooleanGateCount`], which the engine's tests pin to the executed gate
/// count.
#[derive(Debug, Clone)]
pub struct BooleanMatcher {
    client: Arc<ClientKey>,
    server: Arc<ServerKey>,
    threads: usize,
    stats: MatchStats,
}

impl BooleanMatcher {
    /// Generates client and server TFHE keys; `threads > 1` evaluates
    /// windows on that many scoped worker threads.
    pub fn new<R: Rng + ?Sized>(
        params: TfheParams,
        threads: usize,
        rng: &mut R,
    ) -> Result<Self, MatchError> {
        if threads == 0 {
            return Err(MatchError::InvalidConfig("threads must be positive"));
        }
        let client = ClientKey::generate(params, rng);
        let server = ServerKey::generate(&client, rng);
        Ok(Self {
            client: Arc::new(client),
            server: Arc::new(server),
            threads,
            stats: MatchStats::default(),
        })
    }
}

impl SecureMatcher for BooleanMatcher {
    type Database = BooleanDatabase;
    type Query = Vec<BitCiphertext>;
    type Stats = MatchStats;

    fn backend(&self) -> Backend {
        Backend::Boolean
    }

    fn encrypt_database<R: Rng + ?Sized>(
        &mut self,
        data: &BitString,
        rng: &mut R,
    ) -> Result<Self::Database, MatchError> {
        let engine = BooleanEngine::new(self.client.as_ref(), self.server.as_ref());
        Ok(engine.encrypt_database(data, rng))
    }

    fn prepare_query<R: Rng + ?Sized>(
        &mut self,
        query: &BitString,
        rng: &mut R,
    ) -> Result<Self::Query, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        Ok(self.client.encrypt_bits(query.bits(), rng))
    }

    fn find_all<R: Rng + ?Sized>(
        &mut self,
        db: &Self::Database,
        query: &Self::Query,
        _rng: &mut R,
    ) -> Result<Vec<usize>, MatchError> {
        let k = query.len();
        if k == 0 {
            return Err(MatchError::EmptyQuery);
        }
        if db.len() < k {
            return Ok(Vec::new());
        }
        self.stats.bytes_moved +=
            (query.len() * self.client.params().lwe_ciphertext_bytes()) as u64;
        self.stats.bootstraps += BooleanGateCount::for_search(db.len(), k).total();
        let engine = BooleanEngine::new(self.client.as_ref(), self.server.as_ref());
        let windows: Vec<usize> = (0..=db.len() - k).collect();
        if self.threads <= 1 {
            return Ok(windows
                .into_iter()
                .filter(|&o| self.client.decrypt(&engine.match_window(db, query, o)))
                .collect());
        }
        let engine = &engine;
        let client = &self.client;
        let mut matches: Vec<usize> = crate::exec::fan_out(&windows, self.threads, |chunk| {
            chunk
                .iter()
                .filter(|&&o| client.decrypt(&engine.match_window(db, query, o)))
                .copied()
                .collect::<Vec<_>>()
        })?
        .into_iter()
        .flatten()
        .collect();
        matches.sort_unstable();
        Ok(matches)
    }

    fn database_bytes(&self, db: &Self::Database) -> u64 {
        db.byte_size(self.client.params().lwe_dim) as u64
    }

    fn stats(&self) -> MatchStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MatchStats::default();
    }
}

/// The unencrypted word-packed reference matcher (§2.2 / §3.1's "5.9 µs
/// unencrypted" comparison point) behind the unified API.
#[derive(Debug, Clone, Default)]
pub struct PlainMatcher {
    stats: MatchStats,
}

impl PlainMatcher {
    /// Creates the reference matcher (no keys, no parameters).
    pub fn new() -> Self {
        Self::default()
    }
}

impl SecureMatcher for PlainMatcher {
    /// Packed once here, scanned by every query.
    type Database = PackedBits;
    type Query = BitString;
    type Stats = MatchStats;

    fn backend(&self) -> Backend {
        Backend::Plain
    }

    fn encrypt_database<R: Rng + ?Sized>(
        &mut self,
        data: &BitString,
        _rng: &mut R,
    ) -> Result<Self::Database, MatchError> {
        Ok(PackedBits::from_bits(data))
    }

    fn prepare_query<R: Rng + ?Sized>(
        &mut self,
        query: &BitString,
        _rng: &mut R,
    ) -> Result<Self::Query, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        Ok(query.clone())
    }

    fn find_all<R: Rng + ?Sized>(
        &mut self,
        db: &Self::Database,
        query: &Self::Query,
        _rng: &mut R,
    ) -> Result<Vec<usize>, MatchError> {
        self.stats.bytes_moved += db.len().div_ceil(8) as u64;
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

    fn stats(&self) -> MatchStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MatchStats::default();
    }
}
