//! The client–server protocol of Algorithm 1 / Figure 6.
//!
//! Six steps: ① the client packs + encrypts the query variants and the
//! match check material, ② sends them to the server, ③–④ the server runs
//! `Hom-Add` against the stored encrypted database, ⑤ index generation
//! locates matches, ⑥ the (encrypted) index list returns to the client.
//!
//! Index generation requires seeing whether result coefficients equal the
//! match polynomial, which randomized HE ciphertexts do not reveal. The
//! paper implicitly performs this inside the SSD controller; we model that
//! as [`IndexMode::TrustedController`] and also offer the
//! cryptographically conservative [`IndexMode::ClientSide`] where the
//! server returns result ciphertexts for the client to decrypt (the
//! communication-heavy behaviour the paper criticizes in \[27\]).

use cm_bfv::{BfvContext, Decryptor, Encryptor, KeyGenerator, SecretKey};
use rand::Rng;

use crate::api::{Backend, ErasedMatcher, MatchError, MatchStats, MatcherConfig};
use crate::bits::BitString;
use crate::exec::{wait_all, WorkerPool};
use crate::matchers::ciphermatch::{
    CiphermatchEngine, EncryptedDatabase, EncryptedQuery, IndexScratch, SearchResult,
};

/// Where index generation happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMode {
    /// The paper's model: a trusted unit co-located with the data (the SSD
    /// controller in CM-IFP) checks match-polynomial equality and returns
    /// only the indices.
    TrustedController,
    /// The conservative model: all result ciphertexts travel back and the
    /// client decrypts (scales with database size, like \[27\]).
    ClientSide,
}

/// The client: owns the secret key, prepares queries, reads results.
/// Engine, encryptor and decryptor are prepared once with the keys.
pub struct Client {
    ctx: BfvContext,
    sk: SecretKey,
    engine: CiphermatchEngine,
    enc: Encryptor,
    dec: Decryptor,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("params", &self.ctx.params().name)
            .finish()
    }
}

impl Client {
    /// Generates a client with fresh keys.
    pub fn new<R: Rng + ?Sized>(ctx: &BfvContext, rng: &mut R) -> Self {
        let kg = KeyGenerator::new(ctx, rng);
        let sk = kg.secret_key();
        let pk = kg.public_key(rng);
        Self {
            ctx: ctx.clone(),
            engine: CiphermatchEngine::new(ctx),
            enc: Encryptor::new(ctx, pk),
            dec: Decryptor::new(ctx, sk.clone()),
            sk,
        }
    }

    /// Packs and encrypts the database for upload (done once; Algorithm 1
    /// lines 1–3).
    pub fn encrypt_database<R: Rng + ?Sized>(
        &self,
        data: &BitString,
        rng: &mut R,
    ) -> EncryptedDatabase {
        self.engine.encrypt_database(&self.enc, data, rng)
    }

    /// Prepares an encrypted query (Algorithm 1 lines 4–9).
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::EmptyQuery`] for the empty pattern, which has
    /// no well-defined matches.
    pub fn prepare_query<R: Rng + ?Sized>(
        &self,
        query: &BitString,
        rng: &mut R,
    ) -> Result<EncryptedQuery, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        Ok(self.engine.prepare_query(&self.enc, query, rng))
    }

    /// Decrypts a full search response (ClientSide mode).
    pub fn decrypt_matches(&self, result: &SearchResult) -> Vec<usize> {
        self.engine.generate_indices(&self.dec, result)
    }

    /// Hands a decryption capability to a trusted controller (the paper's
    /// implicit trust model for in-storage index generation).
    pub fn delegate_index_generation(&self) -> TrustedIndexGenerator {
        TrustedIndexGenerator::from_secret(&self.ctx, self.sk.clone())
    }
}

/// The trusted index-generation capability living next to the data
/// (the SSD controller in CM-IFP): an engine and a decryptor prepared
/// once when the key is provisioned, not per query; the pool members of a
/// hosted tenant and their range jobs share one.
#[derive(Clone)]
pub struct TrustedIndexGenerator {
    params: &'static str,
    engine: CiphermatchEngine,
    dec: Decryptor,
}

impl std::fmt::Debug for TrustedIndexGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedIndexGenerator")
            .field("params", &self.params)
            .finish()
    }
}

impl TrustedIndexGenerator {
    /// Builds the capability directly from a secret key (used when the
    /// key was provisioned to the controller out of band).
    pub fn from_secret(ctx: &BfvContext, sk: SecretKey) -> Self {
        Self {
            params: ctx.params().name,
            engine: CiphermatchEngine::new(ctx),
            dec: Decryptor::new(ctx, sk),
        }
    }

    /// The engine of the capability's parameter set (it runs the sweep of
    /// a served job, see [`crate::ShardScratch::run`]).
    pub(crate) fn engine(&self) -> &CiphermatchEngine {
        &self.engine
    }

    /// Runs index generation on a search result, returning matching bit
    /// offsets.
    pub fn generate(&self, result: &SearchResult) -> Vec<usize> {
        self.engine.generate_indices(&self.dec, result)
    }

    /// [`Self::generate`] on caller-owned working memory (see
    /// [`CiphermatchEngine::generate_indices_with`]).
    pub fn generate_with(&self, result: &SearchResult, scratch: &mut IndexScratch) -> Vec<usize> {
        self.engine
            .generate_indices_with(&self.dec, result, scratch)
    }
}

/// The server: stores the encrypted database and runs addition-only
/// searches.
pub struct Server {
    ctx: BfvContext,
    db: EncryptedDatabase,
    engine: CiphermatchEngine,
    index_gen: Option<TrustedIndexGenerator>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("params", &self.ctx.params().name)
            .field("db_polys", &self.db.poly_count())
            .finish()
    }
}

impl Server {
    /// Creates a server holding an uploaded encrypted database.
    pub fn new(ctx: &BfvContext, db: EncryptedDatabase) -> Self {
        Self {
            ctx: ctx.clone(),
            db,
            engine: CiphermatchEngine::new(ctx),
            index_gen: None,
        }
    }

    /// Installs a trusted index-generation capability
    /// ([`IndexMode::TrustedController`]).
    pub fn install_index_generator(&mut self, gen: TrustedIndexGenerator) {
        self.index_gen = Some(gen);
    }

    /// Runs the search, returning raw result ciphertexts
    /// (ClientSide mode; Algorithm 1 lines 10–11).
    pub fn search(&mut self, query: &EncryptedQuery) -> SearchResult {
        self.engine.search(&self.db, query)
    }

    /// Runs the search and generates indices server-side
    /// (TrustedController mode; Algorithm 1 line 12).
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::NoIndexGenerator`] if no trusted index
    /// generator was installed.
    pub fn search_indices(&mut self, query: &EncryptedQuery) -> Result<Vec<usize>, MatchError> {
        let result = self.engine.search(&self.db, query);
        let index_gen = self
            .index_gen
            .as_ref()
            .ok_or(MatchError::NoIndexGenerator)?;
        Ok(index_gen.generate(&result))
    }

    /// Homomorphic additions executed so far.
    pub fn hom_adds(&self) -> u64 {
        self.engine.stats().hom_adds
    }
}

/// The result of one [`MatchSession::run_batch`]: per-query outcomes in
/// input order plus the statistics aggregated across all workers.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One result per query, in the order the queries were submitted.
    pub per_query: Vec<Result<Vec<usize>, MatchError>>,
    /// Statistics aggregated over every worker for this batch.
    pub stats: MatchStats,
}

impl BatchReport {
    /// Unwraps the per-query index lists, surfacing the first per-query
    /// error if any query failed.
    pub fn into_indices(self) -> Result<Vec<Vec<usize>>, MatchError> {
        self.per_query.into_iter().collect()
    }
}

/// The multi-query service layer a multi-tenant server would call: owns a
/// backend (keys included) built from a [`MatcherConfig`], accepts
/// batches of queries, fans them out across a session-owned
/// [`WorkerPool`] of long-lived threads (each job a clone of the matcher
/// with its own randomness stream), and returns per-query indices plus
/// aggregated [`MatchStats`] taken from the job outcomes.
///
/// ```
/// use cm_core::{Backend, BitString, MatchSession, MatcherConfig};
///
/// let config = MatcherConfig::new(Backend::Ciphermatch)
///     .insecure_test()
///     .threads(2);
/// let mut session = MatchSession::new(&config).unwrap();
/// session
///     .load_database(&BitString::from_ascii("the needle in the haystack"))
///     .unwrap();
/// let queries = [BitString::from_ascii("the"), BitString::from_ascii("needle")];
/// let report = session.run_batch(&queries).unwrap();
/// assert_eq!(report.per_query.len(), 2);
/// assert_eq!(report.per_query[1].as_ref().unwrap(), &vec![4 * 8]);
/// assert!(report.stats.hom_adds > 0);
/// ```
pub struct MatchSession {
    matcher: Box<dyn ErasedMatcher>,
    pool: WorkerPool,
    seed: u64,
    batches: u64,
    stats: MatchStats,
}

impl std::fmt::Debug for MatchSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchSession")
            .field("backend", &self.matcher.backend())
            .field("threads", &self.pool.worker_count())
            .finish()
    }
}

impl MatchSession {
    /// Builds the configured backend (generating its keys) and a session
    /// around it. The config's thread count becomes the session's
    /// [`WorkerPool`] width — its *batch fan-out*; each worker searches
    /// serially, so the total number of concurrent search threads is
    /// bounded by that one knob rather than multiplying with the
    /// matcher's internal parallelism.
    pub fn new(config: &MatcherConfig) -> Result<Self, MatchError> {
        if config.thread_count() == 0 {
            return Err(MatchError::InvalidConfig("threads must be positive"));
        }
        let worker_config = config.clone().threads(1);
        Ok(Self::from_matcher(
            worker_config.build()?,
            config.thread_count(),
            config.seed_value(),
        ))
    }

    /// Wraps an existing matcher (e.g. one taken from a heterogeneous
    /// registry) in a session whose worker pool has `threads` long-lived
    /// batch workers.
    pub fn from_matcher(matcher: Box<dyn ErasedMatcher>, threads: usize, seed: u64) -> Self {
        Self {
            matcher,
            pool: WorkerPool::new(threads.max(1)).expect("positive worker count"),
            seed,
            batches: 0,
            stats: MatchStats::default(),
        }
    }

    /// Which backend this session serves.
    pub fn backend(&self) -> Backend {
        self.matcher.backend()
    }

    /// Encrypts and stores the database every subsequent query searches.
    pub fn load_database(&mut self, data: &BitString) -> Result<(), MatchError> {
        self.matcher.load_database(data)
    }

    /// Encrypted footprint in bytes of the loaded database, if any.
    pub fn database_bytes(&self) -> Option<u64> {
        self.matcher.database_bytes()
    }

    /// Runs a single query (no fan-out) and folds its cost into the
    /// session statistics.
    pub fn find_all(&mut self, query: &BitString) -> Result<Vec<usize>, MatchError> {
        self.matcher.reset_stats();
        let result = self.matcher.find_all(query);
        self.stats.merge(&self.matcher.stats());
        result
    }

    /// Runs a batch of queries, fanned out as up to
    /// `min(threads, queries.len())` jobs on the session's [`WorkerPool`].
    /// Per-query failures (e.g. a [`MatchError::WindowMismatch`] on one
    /// malformed query) are reported in the [`BatchReport`] without
    /// failing the batch; only a panicked worker or a missing database
    /// fails the whole call.
    pub fn run_batch(&mut self, queries: &[BitString]) -> Result<BatchReport, MatchError> {
        if !self.matcher.has_database() {
            return Err(MatchError::NoDatabase);
        }
        if queries.is_empty() {
            return Ok(BatchReport {
                per_query: Vec::new(),
                stats: MatchStats::default(),
            });
        }
        self.batches += 1;
        let workers = self.pool.worker_count().min(queries.len());
        let chunk_size = queries.len().div_ceil(workers);
        // One clone of the matcher per job, each with a distinct
        // randomness stream and zeroed counters so the per-batch
        // aggregate taken from the job outcomes is exact. Clones share
        // the encrypted database (an Arc), so a job costs key material
        // and engine state only.
        let handles: Vec<_> = queries
            .chunks(chunk_size)
            .enumerate()
            .map(|(w, chunk)| {
                let mut m = self.matcher.boxed_clone();
                m.reseed(self.seed ^ (self.batches << 20) ^ (w as u64 + 1));
                m.reset_stats();
                let chunk = chunk.to_vec();
                self.pool.submit_measured(move || {
                    let results: Vec<_> = chunk.iter().map(|q| m.find_all(q)).collect();
                    (results, m.stats())
                })
            })
            .collect();
        let mut per_query = Vec::with_capacity(queries.len());
        let mut stats = MatchStats::default();
        for outcome in wait_all(handles)? {
            per_query.extend(outcome.result);
            stats.merge(&outcome.stats);
        }
        self.stats.merge(&stats);
        Ok(BatchReport { per_query, stats })
    }

    /// Statistics aggregated across everything this session has run.
    pub fn stats(&self) -> MatchStats {
        self.stats
    }

    /// Resets the session-level statistics.
    pub fn reset_stats(&mut self) {
        self.stats = MatchStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_bfv::BfvParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn end_to_end_trusted_controller_mode() {
        let ctx = BfvContext::new(BfvParams::insecure_test_add());
        let mut rng = StdRng::seed_from_u64(5150);
        let client = Client::new(&ctx, &mut rng);
        let data = BitString::from_ascii("protocol round trip test data");
        let mut server = Server::new(&ctx, client.encrypt_database(&data, &mut rng));
        server.install_index_generator(client.delegate_index_generation());

        let pattern = BitString::from_ascii("round trip");
        let q = client
            .prepare_query(&pattern, &mut rng)
            .expect("non-empty query");
        let got = server.search_indices(&q).expect("generator installed");
        assert_eq!(got, data.find_all(&pattern));
        assert!(server.hom_adds() > 0);
    }

    #[test]
    fn end_to_end_client_side_mode() {
        let ctx = BfvContext::new(BfvParams::insecure_test_add());
        let mut rng = StdRng::seed_from_u64(5151);
        let client = Client::new(&ctx, &mut rng);
        let data = BitString::from_ascii("client side decryption flow");
        let mut server = Server::new(&ctx, client.encrypt_database(&data, &mut rng));

        let pattern = BitString::from_ascii("side");
        let q = client
            .prepare_query(&pattern, &mut rng)
            .expect("non-empty query");
        let result = server.search(&q);
        assert_eq!(client.decrypt_matches(&result), data.find_all(&pattern));
    }

    #[test]
    fn trusted_mode_requires_installation() {
        let ctx = BfvContext::new(BfvParams::insecure_test_add());
        let mut rng = StdRng::seed_from_u64(5152);
        let client = Client::new(&ctx, &mut rng);
        let data = BitString::from_ascii("x");
        let mut server = Server::new(&ctx, client.encrypt_database(&data, &mut rng));
        let q = client
            .prepare_query(&BitString::from_ascii("x"), &mut rng)
            .expect("non-empty query");
        assert_eq!(server.search_indices(&q), Err(MatchError::NoIndexGenerator));
    }

    #[test]
    fn empty_query_is_a_typed_error_not_a_panic() {
        let ctx = BfvContext::new(BfvParams::insecure_test_add());
        let mut rng = StdRng::seed_from_u64(5153);
        let client = Client::new(&ctx, &mut rng);
        assert_eq!(
            client.prepare_query(&BitString::new(), &mut rng).err(),
            Some(MatchError::EmptyQuery)
        );
    }

    #[test]
    fn session_batch_matches_ground_truth_across_thread_counts() {
        let data = BitString::from_ascii("batching queries over one shared encrypted database");
        let queries: Vec<BitString> = ["que", "shared", "database", "absent!", "e"]
            .iter()
            .map(|s| BitString::from_ascii(s))
            .collect();
        let mut baseline: Option<Vec<Vec<usize>>> = None;
        for threads in [1usize, 2, 5] {
            let config = MatcherConfig::new(Backend::Ciphermatch)
                .insecure_test()
                .seed(42)
                .threads(threads);
            let mut session = MatchSession::new(&config).unwrap();
            session.load_database(&data).unwrap();
            let report = session.run_batch(&queries).unwrap();
            let got = report.into_indices().expect("no per-query errors");
            for (q, indices) in queries.iter().zip(&got) {
                assert_eq!(indices, &data.find_all(q), "threads = {threads}");
            }
            match &baseline {
                None => baseline = Some(got),
                Some(b) => assert_eq!(&got, b, "fan-out must not change results"),
            }
            assert!(session.stats().hom_adds > 0);
        }
    }

    #[test]
    fn session_reports_per_query_errors_without_failing_the_batch() {
        let config = MatcherConfig::new(Backend::Yasuda)
            .insecure_test()
            .window(16)
            .threads(2);
        let mut session = MatchSession::new(&config).unwrap();
        let data = BitString::from_ascii("window mismatch handling");
        session.load_database(&data).unwrap();
        let good = data.slice(8, 16);
        let bad = data.slice(0, 9); // wrong length for the fixed window
        let report = session
            .run_batch(&[good.clone(), bad, good.clone()])
            .unwrap();
        assert_eq!(report.per_query[0].as_ref().unwrap(), &data.find_all(&good));
        assert_eq!(
            report.per_query[1],
            Err(MatchError::WindowMismatch {
                expected: 16,
                got: 9
            })
        );
        assert_eq!(report.per_query[2].as_ref().unwrap(), &data.find_all(&good));
    }

    #[test]
    fn session_requires_a_database() {
        let config = MatcherConfig::new(Backend::Plain);
        let mut session = MatchSession::new(&config).unwrap();
        assert_eq!(
            session.run_batch(&[BitString::from_ascii("q")]).err(),
            Some(MatchError::NoDatabase)
        );
    }
}
