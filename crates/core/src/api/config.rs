//! Dynamic backend selection: the [`Backend`] enum, the [`MatcherConfig`]
//! builder, and the object-safe [`ErasedMatcher`] wrapper that lets
//! heterogeneous matchers live in one registry (`Vec<Box<dyn
//! ErasedMatcher>>`), each shared by every query that reaches it.

use std::sync::{Mutex, PoisonError};

use cm_bfv::BfvParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::api::backends::{CiphermatchMatcher, PlainMatcher};
use crate::api::{MatchError, MatchStats, SecureMatcher};
use crate::bits::BitString;
use crate::kit::QueryKit;

/// The served matching backends: the paper's two engines plus the
/// unencrypted reference. The paper's baselines (Yasuda, Batched,
/// Boolean) are not served; they are engines in [`crate::matchers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// CM-SW: dense packing + `Hom-Add`-only search (this paper).
    Ciphermatch,
    /// The unencrypted word-packed reference.
    Plain,
    /// CM-IFP: the paper's in-flash engine (§4.3). Constructed by
    /// `cm_server::IfpMatcher` (it needs an SSD device), not by
    /// [`MatcherConfig::build`] — `cm_core` deliberately does not depend
    /// on the SSD crate.
    Ifp,
}

impl Backend {
    /// Every backend: what [`Backend::parse`] accepts and a wire
    /// `ListBackends` reply lists. [`MatcherConfig::build`] makes the
    /// first two; the serving layer (`cm_server`), which owns the SSD
    /// device, makes [`Backend::Ifp`].
    pub const ALL: [Backend; 3] = [Backend::Ciphermatch, Backend::Plain, Backend::Ifp];

    /// A short stable identifier (usable in CLI arguments and bench IDs).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Ciphermatch => "ciphermatch",
            Backend::Plain => "plain",
            Backend::Ifp => "ifp",
        }
    }

    /// Parses the identifiers produced by [`Backend::name`]
    /// (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::UnknownBackend`] for any other string.
    pub fn parse(name: &str) -> Result<Backend, MatchError> {
        let lower = name.to_ascii_lowercase();
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == lower)
            .ok_or_else(|| MatchError::UnknownBackend(name.to_string()))
    }
}

impl std::str::FromStr for Backend {
    type Err = MatchError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Backend::parse(s)
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builder that selects and constructs a backend dynamically.
///
/// ```
/// use cm_core::{Backend, BitString, MatcherConfig};
///
/// let mut matcher = MatcherConfig::new(Backend::Ciphermatch)
///     .insecure_test()
///     .seed(7)
///     .build()
///     .unwrap();
/// matcher
///     .load_database(&BitString::from_ascii("abcabc"))
///     .unwrap();
/// let (hits, _stats) = matcher.find_all(&BitString::from_ascii("bc")).unwrap();
/// assert_eq!(hits, vec![8, 32]);
/// ```
#[derive(Debug, Clone)]
pub struct MatcherConfig {
    backend: Backend,
    seed: u64,
    insecure: bool,
}

impl MatcherConfig {
    /// Starts a configuration for `backend` with the defaults: seed 0
    /// and the paper's parameter set.
    pub fn new(backend: Backend) -> Self {
        Self {
            backend,
            seed: 0,
            insecure: false,
        }
    }

    /// Seeds key generation and query encryption (determinism for tests
    /// and reproducible benchmarks).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets nothing: no backend takes a thread count. CM-SW parallelises
    /// by polynomial-range shards on [`crate::exec::compute_pool`], sized
    /// to the machine. Kept so existing callers still compile.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Switches to the small, fast, **insecure** test parameter sets —
    /// for unit tests and CI only.
    pub fn insecure_test(mut self) -> Self {
        self.insecure = true;
        self
    }

    /// The selected backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The configured seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// Whether [`Self::insecure_test`] parameter sets are selected —
    /// needed to re-create an identical matcher from a wire-transported
    /// description of this configuration.
    pub fn is_insecure_test(&self) -> bool {
        self.insecure
    }

    /// Generates keys and constructs the configured backend behind the
    /// object-safe [`ErasedMatcher`] interface.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::InvalidConfig`] for [`Backend::Ifp`].
    pub fn build(&self) -> Result<Box<dyn ErasedMatcher>, MatchError> {
        Ok(match self.backend {
            Backend::Ciphermatch => {
                let params = if self.insecure {
                    BfvParams::insecure_test_add()
                } else {
                    BfvParams::ciphermatch_1024()
                };
                Box::new(Erased::<CiphermatchMatcher>::new(params, 1, self.seed)?)
            }
            Backend::Plain => erase(PlainMatcher::new(), self.seed),
            Backend::Ifp => {
                return Err(MatchError::InvalidConfig(
                    "the ifp backend needs an SSD device; build it via cm_server::IfpMatcher",
                ))
            }
        })
    }
}

/// The object-safe face of a [`SecureMatcher`]: database and query types
/// erased, randomness owned, so heterogeneous backends can share a
/// registry. Searches take `&self` and return their own statistics, so
/// one matcher answers every concurrent query of its tenant.
pub trait ErasedMatcher: Send + Sync {
    /// Which backend this matcher is.
    fn backend(&self) -> Backend;

    /// Encrypts `data` with this matcher's keys and stores it as *the*
    /// database subsequent [`Self::find_all`] calls search.
    fn load_database(&mut self, data: &BitString) -> Result<(), MatchError>;

    /// True once a database has been loaded.
    fn has_database(&self) -> bool;

    /// Encrypted footprint in bytes of the loaded database (Fig. 2a's
    /// y-axis), if one is loaded.
    fn database_bytes(&self) -> Option<u64>;

    /// Prepares (encrypts) `query` and searches the loaded database,
    /// returning the matching bit offsets with this search's statistics:
    /// one entry per range it ran on ([`SecureMatcher::find_all`]),
    /// summing field-wise to its total.
    fn find_all(&self, query: &BitString) -> Result<(Vec<usize>, Vec<MatchStats>), MatchError>;

    /// Searches the loaded database with a query that is *already
    /// encrypted* in the backend's native wire format (the serving path:
    /// the key-owning client encrypted the query remotely and shipped the
    /// bytes), returning what [`Self::find_all`] returns. Backends
    /// without a native wire format (Plain) return
    /// [`MatchError::WireQueryUnsupported`].
    fn find_all_wire(
        &self,
        encoded_query: &[u8],
    ) -> Result<(Vec<usize>, Vec<MatchStats>), MatchError> {
        let _ = encoded_query;
        Err(MatchError::WireQueryUnsupported(self.backend()))
    }

    /// Serializes the loaded database into the backend's native
    /// wire/storage format — the bytes a key owner uploads with
    /// `Request::LoadDatabase`, and the cold-tier representation of an
    /// evicted tenant; [`MatchError::NoDatabase`] if nothing is loaded.
    fn export_database(&self) -> Result<Vec<u8>, MatchError>;

    /// Loads a database that is *already encrypted* in the backend's
    /// native wire format (the remote-lifecycle path: the key owner
    /// encrypted the database offline and shipped the bytes). The bytes
    /// are validated against this matcher's parameter set before any
    /// ciphertext can reach the search path.
    fn load_database_wire(&mut self, encoded: &[u8]) -> Result<(), MatchError>;
}

/// Boxes a [`SecureMatcher`] behind [`ErasedMatcher`]; `seed` starts the
/// randomness the matcher encrypts with.
pub fn erase<M>(matcher: M, seed: u64) -> Box<dyn ErasedMatcher>
where
    M: SecureMatcher + Send + Sync + 'static,
    M::Database: Send + Sync,
{
    Box::new(Erased::wrap(matcher, seed))
}

/// A [`SecureMatcher`] with its loaded database and its randomness: the
/// concrete [`ErasedMatcher`] behind [`erase`].
///
/// The randomness is one stream behind a lock. A database load draws from
/// it directly; a [`ErasedMatcher::find_all`] query takes the lock only
/// to draw the seed of a fresh stream of its own, so concurrent queries
/// never share randomness. A wire query arrives encrypted and draws none.
pub struct Erased<M: SecureMatcher> {
    matcher: M,
    db: Option<M::Database>,
    rng: Mutex<StdRng>,
}

impl<M: SecureMatcher> Erased<M> {
    fn wrap(matcher: M, seed: u64) -> Self {
        Self {
            matcher,
            db: None,
            rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15)),
        }
    }

    fn database(&self) -> Result<&M::Database, MatchError> {
        self.db.as_ref().ok_or(MatchError::NoDatabase)
    }

    fn search(&self, query: &M::Query) -> Result<(Vec<usize>, Vec<MatchStats>), MatchError> {
        let mut stats = Vec::new();
        let indices = self.matcher.find_all(self.database()?, query, &mut stats)?;
        Ok((indices, stats))
    }
}

/// CM-SW as an in-process serving tenant is provisioned (the type
/// `cm_server` names `ShardedCmMatcher`).
impl Erased<CiphermatchMatcher> {
    /// [`CiphermatchMatcher::new`] with keys from `seed`, as
    /// [`MatcherConfig::build`] derives them: the same seed and
    /// parameters give the same keys, so a database exported here loads
    /// there.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::InvalidConfig`] for a zero shard count or a
    /// parameter set dense packing cannot use (non-power-of-two `t`).
    pub fn new(params: BfvParams, shards: usize, seed: u64) -> Result<Self, MatchError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let matcher = CiphermatchMatcher::new(params, shards, &mut rng)?;
        Ok(Self::wrap(matcher, seed))
    }

    /// The public query-encryption material a remote client needs to ship
    /// wire queries to this matcher.
    pub fn query_kit(&self) -> QueryKit {
        self.matcher.query_kit()
    }

    /// How many ranges a search of the loaded database runs, if one is
    /// loaded.
    pub fn shard_count(&self) -> Option<usize> {
        let plan = self.matcher.plan(self.db.as_ref()?).ok()?;
        Some(plan.shard_count())
    }
}

impl<M> ErasedMatcher for Erased<M>
where
    M: SecureMatcher + Send + Sync + 'static,
    M::Database: Send + Sync,
{
    fn backend(&self) -> Backend {
        self.matcher.backend()
    }

    fn load_database(&mut self, data: &BitString) -> Result<(), MatchError> {
        let rng = self.rng.get_mut().unwrap_or_else(PoisonError::into_inner);
        self.db = Some(self.matcher.encrypt_database(data, rng)?);
        Ok(())
    }

    fn has_database(&self) -> bool {
        self.db.is_some()
    }

    fn database_bytes(&self) -> Option<u64> {
        self.db.as_ref().map(|db| self.matcher.database_bytes(db))
    }

    fn find_all(&self, query: &BitString) -> Result<(Vec<usize>, Vec<MatchStats>), MatchError> {
        // Refused before a query is encrypted for nothing.
        self.database()?;
        let seed = self
            .rng
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .gen();
        let q = self
            .matcher
            .prepare_query(query, &mut StdRng::seed_from_u64(seed))?;
        self.search(&q)
    }

    fn find_all_wire(
        &self,
        encoded_query: &[u8],
    ) -> Result<(Vec<usize>, Vec<MatchStats>), MatchError> {
        self.search(&self.matcher.decode_query(encoded_query)?)
    }

    fn export_database(&self) -> Result<Vec<u8>, MatchError> {
        self.matcher.encode_database(self.database()?)
    }

    fn load_database_wire(&mut self, encoded: &[u8]) -> Result<(), MatchError> {
        self.db = Some(self.matcher.decode_database(encoded)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_knobs_are_rejected() {
        // Dense packing needs a power-of-two `t`; a served job holds its
        // phases in 32-bit words, so `q` must be at most 2^32.
        for params in [
            BfvParams::insecure_test_batch(),
            BfvParams::insecure_test_mul(),
        ] {
            let name = params.name;
            assert!(
                matches!(
                    Erased::<CiphermatchMatcher>::new(params, 1, 0).err(),
                    Some(MatchError::InvalidConfig(_))
                ),
                "{name}"
            );
        }
    }

    #[test]
    fn searching_before_loading_is_a_typed_error() {
        let m = MatcherConfig::new(Backend::Plain).build().unwrap();
        assert_eq!(
            m.find_all(&BitString::from_ascii("x")).err(),
            Some(MatchError::NoDatabase)
        );
    }

    #[test]
    fn empty_queries_are_a_typed_error_on_every_backend() {
        for backend in [Backend::Ciphermatch, Backend::Plain] {
            let mut m = MatcherConfig::new(backend).insecure_test().build().unwrap();
            m.load_database(&BitString::from_ascii("ab")).unwrap();
            assert_eq!(
                m.find_all(&BitString::new()).err(),
                Some(MatchError::EmptyQuery),
                "backend {backend}"
            );
        }
    }

    #[test]
    fn backend_names_round_trip_including_ifp() {
        for backend in Backend::ALL {
            assert_eq!(Backend::parse(backend.name()), Ok(backend));
            assert_eq!(backend.name().parse::<Backend>(), Ok(backend));
            assert_eq!(
                Backend::parse(&backend.name().to_ascii_uppercase()),
                Ok(backend)
            );
        }
        assert!(Backend::ALL.contains(&Backend::Ifp));
        // The paper's baselines are engines, not served backends.
        for name in ["not-a-backend", "yasuda", "batched", "boolean"] {
            assert_eq!(
                Backend::parse(name),
                Err(MatchError::UnknownBackend(name.to_string()))
            );
        }
    }

    #[test]
    fn ifp_backend_is_not_buildable_in_process() {
        assert!(matches!(
            MatcherConfig::new(Backend::Ifp).insecure_test().build(),
            Err(MatchError::InvalidConfig(_))
        ));
    }

    #[test]
    fn wire_queries_reject_backends_without_a_format() {
        let mut m = MatcherConfig::new(Backend::Plain).build().unwrap();
        m.load_database(&BitString::from_ascii("plain data"))
            .unwrap();
        assert_eq!(
            m.find_all_wire(&[1, 2, 3]).err(),
            Some(MatchError::WireQueryUnsupported(Backend::Plain))
        );
    }

    #[test]
    fn ciphermatch_accepts_its_own_wire_queries() {
        use crate::matchers::ciphermatch::CiphermatchEngine;
        use cm_bfv::{BfvContext, BfvParams, Encryptor, KeyGenerator};

        // The server-side matcher owns the keys; a remote client encrypts
        // under the same public key and ships the encoded query.
        let mut m = MatcherConfig::new(Backend::Ciphermatch)
            .insecure_test()
            .seed(11)
            .build()
            .unwrap();
        let data = BitString::from_ascii("wire queries reach the same engine");
        m.load_database(&data).unwrap();

        // A self-contained client with its own context: the decoded query
        // must be *validated*, then searched. We reuse the matcher's own
        // parameter set via a fresh matcher sharing the seed so the key
        // material matches — here we instead exercise the full decode
        // path through a structurally valid query built client-side.
        let ctx = BfvContext::new(BfvParams::insecure_test_add());
        let mut rng = StdRng::seed_from_u64(7);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let pk = kg.public_key(&mut rng);
        let enc = Encryptor::new(&ctx, pk);
        let engine = CiphermatchEngine::new(&ctx);
        let q_bits = ctx.params().coeff_bits();
        let pattern = BitString::from_ascii("engine");
        let encoded = engine.pack_query(&enc, &pattern, &mut rng).encode(q_bits);
        // The explicit form is Algorithm 1's oracle; no tenant takes its
        // magic.
        let mut explicit = encoded.clone();
        explicit[..4].copy_from_slice(b"CMQ2");
        assert_eq!(
            m.find_all_wire(&explicit).unwrap_err(),
            MatchError::Decode(cm_bfv::DecodeError::BadMagic)
        );

        // Encrypted under a *different* key pair the decode path still
        // accepts the bytes (they are well-formed); the indices are then
        // garbage-free but meaningless, so we only assert it does not
        // error or panic. The true end-to-end equality lives in the
        // cm_server tests where client and tenant share keys.
        let _ = m.find_all_wire(&encoded).unwrap();

        // Truncations and garbage must surface as typed errors.
        for cut in [0usize, 3, 9, encoded.len() - 1] {
            assert!(matches!(
                m.find_all_wire(&encoded[..cut]).unwrap_err(),
                MatchError::Decode(_)
            ));
        }
    }

    #[test]
    fn exported_databases_reload_through_the_wire_path() {
        // The remote-lifecycle primitive: a key owner encrypts locally,
        // exports the bytes, and a matcher rebuilt from the same seed
        // loads them *without re-encrypting* — searches agree exactly.
        let hosted = |backend| MatcherConfig::new(backend).insecure_test().seed(41);
        // The third owner is an in-process CM-SW tenant as an operator
        // provisions it, three ranges per search: same seed and
        // parameters, so same keys, and its export is the same format.
        let sharded =
            Erased::<CiphermatchMatcher>::new(BfvParams::insecure_test_add(), 3, 41).unwrap();
        let owners: [(Backend, Box<dyn ErasedMatcher>); 3] = [
            (
                Backend::Ciphermatch,
                hosted(Backend::Ciphermatch).build().unwrap(),
            ),
            (Backend::Plain, hosted(Backend::Plain).build().unwrap()),
            (Backend::Ciphermatch, Box::new(sharded)),
        ];
        // Four polynomials under the test parameters.
        let data = BitString::from_ascii(&"export, ship, reload, search. ".repeat(30));
        for (backend, mut owner) in owners {
            assert_eq!(owner.backend(), backend);
            assert_eq!(
                owner.export_database().err(),
                Some(MatchError::NoDatabase),
                "{backend}: nothing to export before load"
            );
            owner.load_database(&data).unwrap();
            let encoded = owner.export_database().unwrap();

            let mut host = hosted(backend).build().unwrap();
            host.load_database_wire(&encoded).unwrap();
            assert!(host.has_database());
            for q in [BitString::from_ascii("reload"), data.slice(2040, 24)] {
                assert_eq!(host.find_all(&q).unwrap().0, data.find_all(&q), "{backend}");
                assert_eq!(
                    owner.find_all(&q).unwrap().0,
                    data.find_all(&q),
                    "{backend}"
                );
            }
            // Re-export round-trips byte-exact: the registry's accounting
            // charge is stable across reloads.
            assert_eq!(host.export_database().unwrap(), encoded, "{backend}");

            // Hostile bytes are typed errors, never panics.
            for cut in [0usize, 5, encoded.len().saturating_sub(3)] {
                assert!(matches!(
                    host.load_database_wire(&encoded[..cut]).unwrap_err(),
                    MatchError::Decode(_)
                ));
            }
            let mut lying = encoded.clone();
            lying[..8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(host.load_database_wire(&lying).is_err());
        }
    }

    #[test]
    fn a_resident_database_exports_the_bytes_it_was_loaded_from() {
        // CM-SW holds `c1` only in the evaluation domain: the bytes come
        // from the explicit engine, never through that form, and must
        // come back out of a load and an export unchanged — on an NTT
        // ring at paper and test size, and on a ring without an NTT.
        use crate::CiphermatchEngine;
        use cm_bfv::{BfvContext, Encryptor, KeyGenerator};
        for params in [
            BfvParams::ciphermatch_1024(),
            BfvParams::insecure_test_add(),
            BfvParams::insecure_test_pow2(),
        ] {
            let name = params.name;
            let ctx = BfvContext::new(params.clone());
            let mut rng = StdRng::seed_from_u64(0xB17E5);
            let kg = KeyGenerator::new(&ctx, &mut rng);
            let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
            let engine = CiphermatchEngine::new(&ctx);
            let bits = 2 * engine.packing().bits_per_poly() + 77;
            let data = BitString::from_bits(&(0..bits).map(|i| i % 3 == 0).collect::<Vec<_>>());
            let bytes = engine
                .encrypt_database(&enc, &data, &mut rng)
                .encode(ctx.params().coeff_bits());

            let mut m = Erased::<CiphermatchMatcher>::new(params, 1, 5).unwrap();
            m.load_database_wire(&bytes).unwrap();
            assert!(m.export_database().unwrap() == bytes, "{name}");
        }
    }

    #[test]
    fn a_shared_matcher_reports_exact_per_query_stats() {
        let mut m = MatcherConfig::new(Backend::Ciphermatch)
            .insecure_test()
            .seed(9)
            .build()
            .unwrap();
        let data = BitString::from_ascii("exact per-query attribution");
        m.load_database(&data).unwrap();
        let q = BitString::from_ascii("query");
        let (first, first_stats) = m.find_all(&q).unwrap();
        let (second, second_stats) = m.find_all(&q).unwrap();
        assert_eq!(first, data.find_all(&q));
        assert_eq!(second, data.find_all(&q));
        // Same query, each search's own figures: identical exact stats,
        // not an ever-growing lifetime aggregate.
        let adds = |stats: &[MatchStats]| stats.iter().sum::<MatchStats>().hom_adds;
        assert!(adds(&first_stats) > 0);
        assert_eq!(adds(&first_stats), adds(&second_stats));
    }

    /// CM-SW that keeps the wire bytes of every query it prepares.
    struct Recording {
        inner: CiphermatchMatcher,
        prepared: Mutex<Vec<Vec<u8>>>,
    }

    impl SecureMatcher for Recording {
        type Database = <CiphermatchMatcher as SecureMatcher>::Database;
        type Query = <CiphermatchMatcher as SecureMatcher>::Query;

        fn backend(&self) -> Backend {
            self.inner.backend()
        }

        fn encrypt_database<R: Rng + ?Sized>(
            &self,
            data: &BitString,
            rng: &mut R,
        ) -> Result<Self::Database, MatchError> {
            self.inner.encrypt_database(data, rng)
        }

        fn prepare_query<R: Rng + ?Sized>(
            &self,
            query: &BitString,
            rng: &mut R,
        ) -> Result<Self::Query, MatchError> {
            let q = self.inner.prepare_query(query, rng)?;
            self.prepared.lock().unwrap().push(q.encode(32));
            Ok(q)
        }

        fn find_all(
            &self,
            db: &Self::Database,
            query: &Self::Query,
            stats: &mut Vec<MatchStats>,
        ) -> Result<Vec<usize>, MatchError> {
            self.inner.find_all(db, query, stats)
        }

        fn encode_database(&self, db: &Self::Database) -> Result<Vec<u8>, MatchError> {
            self.inner.encode_database(db)
        }

        fn decode_database(&self, encoded: &[u8]) -> Result<Self::Database, MatchError> {
            self.inner.decode_database(encoded)
        }

        fn database_bytes(&self, db: &Self::Database) -> u64 {
            self.inner.database_bytes(db)
        }
    }

    #[test]
    fn shared_bits_queries_draw_their_own_query_streams() {
        let mut rng = StdRng::seed_from_u64(3);
        let inner = CiphermatchMatcher::new(BfvParams::insecure_test_add(), 1, &mut rng).unwrap();
        let prepared = Mutex::default();
        let mut m = Erased::wrap(Recording { inner, prepared }, 3);
        let data = BitString::from_ascii("one matcher, two queries, two streams");
        m.load_database(&data).unwrap();
        let q = BitString::from_ascii("streams");
        let m = &m;
        std::thread::scope(|scope| {
            let searches: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| m.find_all(&q).unwrap().0))
                .collect();
            for search in searches {
                assert_eq!(search.join().unwrap(), data.find_all(&q));
            }
        });
        // The same pattern encrypted twice: under one reused stream the
        // two ciphertexts would be byte-identical.
        let prepared = m.matcher.prepared.lock().unwrap();
        assert_eq!(prepared.len(), 2);
        assert_ne!(prepared[0], prepared[1]);
    }
}
