//! CM-IFP behind the unified matcher API: the paper's in-flash engine as
//! a first-class backend.
//!
//! [`IfpMatcher`] wraps [`cm_ssd::CmIfpServer`] in a [`SecureMatcher`], so
//! the in-flash pipeline is selectable wherever the other two backends
//! are — erased registries, sessions, and the `cm_server` wire protocol.
//! Registering it from this crate (rather than `cm_core`) keeps the
//! dependency arrow pointing the right way: the algorithm crate knows the
//! [`Backend::Ifp`] *name*, the serving crate owns the SSD device.
//!
//! Queries arrive *packed* ([`PackedQuery`], `CMQ3`), as they do for
//! CM-SW: one ciphertext holding every negated segment once. The
//! controller replicates each shifted variant out of it into the latches
//! ([`CmIfpServer::cm_search_command`]). Index generation takes the
//! range's phases from the first variant's sums, checks both halves of
//! every later sum against them (what that check proves is stated at
//! [`cm_core::ShardScratch::run_with_adder`]), and tests the range one
//! pass per alignment class, as a CM-SW range job does.
//!
//! A search's [`MatchStats`] gain meaning here: `hom_adds` counts the
//! additions executed *inside the flash array* (one per variant ×
//! polynomial, exactly like CM-SW), and `flash_wear` counts program/erase
//! cycles — which the latch-only `bop_add` µ-program keeps at **zero**,
//! the property the paper's endurance argument rests on.

use std::sync::{Arc, Mutex};

use cm_bfv::{BfvContext, BfvParams, Encryptor, KeyGenerator};
use cm_core::{
    Backend, BitString, EncryptedDatabase, MatchError, MatchStats, PackedQuery, QueryKit,
    SecureMatcher, TrustedIndexGenerator,
};
use cm_flash::{FlashGeometry, FlashLedger};
use cm_ssd::{CmIfpServer, Ssd, TransposeMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An encrypted database resident in a simulated SSD's CIPHERMATCH
/// region. Clones share the device (the flash array holds one copy of the
/// ciphertexts; `bop_add` is read-only latch compute).
#[derive(Clone)]
pub struct IfpDatabase {
    server: Arc<Mutex<CmIfpServer>>,
    total_bits: usize,
    poly_count: usize,
    bytes: u64,
}

impl std::fmt::Debug for IfpDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IfpDatabase")
            .field("total_bits", &self.total_bits)
            .field("polys", &self.poly_count)
            .finish()
    }
}

impl IfpDatabase {
    /// Lifetime primitive-op ledger of the simulated device holding this
    /// database: the programs that loaded it, and every read, latch
    /// operation and DMA its searches have cost since.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::WorkerPanicked`] if a search panicked while
    /// holding the device.
    pub fn ledger(&self) -> Result<FlashLedger, MatchError> {
        let server = self.server.lock().map_err(|_| MatchError::WorkerPanicked)?;
        Ok(server.ssd().ledger())
    }
}

/// The in-flash engine as a [`SecureMatcher`].
#[derive(Clone)]
pub struct IfpMatcher {
    ctx: BfvContext,
    /// The controller's index-generation capability (engine and
    /// decryptor) and the encryptor, prepared once with the keys.
    index_gen: TrustedIndexGenerator,
    enc: Encryptor,
    q_bits: u32,
    geometry: FlashGeometry,
    mode: TransposeMode,
}

impl std::fmt::Debug for IfpMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IfpMatcher")
            .field("params", &self.ctx.params().name)
            .field("mode", &self.mode)
            .finish()
    }
}

impl IfpMatcher {
    /// Generates keys for an in-flash matcher over `geometry`.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::InvalidConfig`] unless `params` uses the
    /// power-of-two modulus `q = 2^32` (wrapping 32-bit addition must
    /// *be* `Hom-Add` for the in-flash adder; use
    /// [`BfvParams::ciphermatch_ifp_1024`] or
    /// [`BfvParams::insecure_test_pow2`]) and a power-of-two `t`.
    pub fn new<R: Rng + ?Sized>(
        params: BfvParams,
        geometry: FlashGeometry,
        mode: TransposeMode,
        rng: &mut R,
    ) -> Result<Self, MatchError> {
        if params.q != 1 << 32 {
            return Err(MatchError::InvalidConfig(
                "CM-IFP needs q = 2^32 (BfvParams::ciphermatch_ifp_1024)",
            ));
        }
        if !params.t.is_power_of_two() {
            return Err(MatchError::InvalidConfig(
                "dense packing requires a power-of-two plaintext modulus",
            ));
        }
        let ctx = BfvContext::new(params);
        let kg = KeyGenerator::new(&ctx, rng);
        let index_gen = TrustedIndexGenerator::from_secret(&ctx, kg.secret_key());
        let pk = kg.public_key(rng);
        Ok(Self {
            index_gen,
            enc: Encryptor::new(&ctx, pk),
            q_bits: ctx.params().coeff_bits(),
            ctx,
            geometry,
            mode,
        })
    }

    /// The matcher a remote `TenantSpec` with backend `"ifp"` describes:
    /// deterministic keys from the spec's seed, the test or paper
    /// parameter set by the `insecure` flag, software transposition.
    /// Client and server derive identical matchers from identical specs,
    /// which is what makes uploaded IFP databases decryptable.
    pub fn for_spec(seed: u64, insecure: bool) -> Result<Self, MatchError> {
        let (params, geometry) = if insecure {
            (BfvParams::insecure_test_pow2(), FlashGeometry::tiny_test())
        } else {
            (
                BfvParams::ciphermatch_ifp_1024(),
                FlashGeometry::paper_default(),
            )
        };
        let mut rng = StdRng::seed_from_u64(seed);
        Self::new(params, geometry, TransposeMode::Software, &mut rng)
    }

    /// The public query-encryption material a remote client needs to ship
    /// wire queries to this matcher — in the packed form, as for CM-SW:
    /// one ciphertext for a query of up to about `n` bits, every shifted
    /// variant of which the controller replicates on its way into the
    /// latches.
    pub fn query_kit(&self) -> QueryKit {
        QueryKit::new(self.index_gen.engine().clone(), self.enc.clone())
    }

    /// Programs `db` into a fresh device: the one way a database reaches
    /// flash, whether encrypted in-process or decoded from an upload.
    ///
    /// # Errors
    ///
    /// [`MatchError::InvalidConfig`] for an empty database, or one larger
    /// than the SSD's CIPHERMATCH region — refused before the device
    /// model would run out of blocks.
    fn program(&self, db: &EncryptedDatabase) -> Result<IfpDatabase, MatchError> {
        if db.total_bits() == 0 {
            return Err(MatchError::InvalidConfig("cannot serve an empty database"));
        }
        let needed = CmIfpServer::required_words(db, self.ctx.params().n);
        if needed > Ssd::cm_capacity_words(&self.geometry) {
            return Err(MatchError::InvalidConfig(
                "database exceeds the SSD's CIPHERMATCH region",
            ));
        }
        let server = CmIfpServer::new(&self.ctx, self.geometry.clone(), self.mode, db);
        Ok(IfpDatabase {
            server: Arc::new(Mutex::new(server)),
            total_bits: db.total_bits(),
            poly_count: db.poly_count(),
            bytes: db.byte_size(self.q_bits) as u64,
        })
    }
}

impl SecureMatcher for IfpMatcher {
    type Database = IfpDatabase;
    type Query = PackedQuery;

    fn backend(&self) -> Backend {
        Backend::Ifp
    }

    fn encrypt_database<R: Rng + ?Sized>(
        &self,
        data: &BitString,
        rng: &mut R,
    ) -> Result<Self::Database, MatchError> {
        self.program(
            &self
                .index_gen
                .engine()
                .encrypt_database(&self.enc, data, rng),
        )
    }

    fn prepare_query<R: Rng + ?Sized>(
        &self,
        query: &BitString,
        rng: &mut R,
    ) -> Result<Self::Query, MatchError> {
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        Ok(self.index_gen.engine().pack_query(&self.enc, query, rng))
    }

    fn decode_query(&self, encoded: &[u8]) -> Result<Self::Query, MatchError> {
        Ok(PackedQuery::decode(
            encoded,
            self.ctx.params().n,
            self.index_gen.engine().packing().seg_bits(),
            self.ctx.params().q,
        )?)
    }

    fn find_all(
        &self,
        db: &Self::Database,
        query: &Self::Query,
        stats: &mut Vec<MatchStats>,
    ) -> Result<Vec<usize>, MatchError> {
        let (indices, reports) = {
            let mut server = db.server.lock().map_err(|_| MatchError::WorkerPanicked)?;
            server.cm_search_command(query, &self.index_gen)?
        };
        stats.push(MatchStats {
            bytes_moved: query.byte_size(self.q_bits) as u64,
            // In-flash additions are Hom-Adds: one per variant ×
            // polynomial, the same count CM-SW's software sweep reports.
            hom_adds: (reports.len() * db.poly_count) as u64,
            flash_wear: reports.iter().map(|r| r.ledger.wear()).sum(),
            ..MatchStats::default()
        });
        Ok(indices)
    }

    fn encode_database(&self, db: &Self::Database) -> Result<Vec<u8>, MatchError> {
        // The device is the master copy: export reads every group back out
        // of the flash array (wear-free) rather than returning a host-side
        // cache that does not exist.
        let mut server = db.server.lock().map_err(|_| MatchError::WorkerPanicked)?;
        Ok(server.export_database().encode(self.q_bits))
    }

    fn decode_database(&self, encoded: &[u8]) -> Result<Self::Database, MatchError> {
        let db = EncryptedDatabase::decode(encoded)?;
        db.validate(
            self.ctx.params().n,
            self.ctx.params().q,
            self.index_gen.engine().packing().bits_per_poly(),
        )?;
        self.program(&db)
    }

    fn database_bytes(&self, db: &Self::Database) -> u64 {
        db.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::erase;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn new_matcher(seed: u64) -> IfpMatcher {
        let mut rng = StdRng::seed_from_u64(seed);
        IfpMatcher::new(
            BfvParams::insecure_test_pow2(),
            FlashGeometry::tiny_test(),
            TransposeMode::Software,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn non_pow2_modulus_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            IfpMatcher::new(
                BfvParams::insecure_test_add(),
                FlashGeometry::tiny_test(),
                TransposeMode::Software,
                &mut rng,
            ),
            Err(MatchError::InvalidConfig(_))
        ));
    }

    #[test]
    fn ifp_matcher_searches_with_zero_wear_behind_the_erased_api() {
        let mut erased = erase(new_matcher(5), 5);
        assert_eq!(erased.backend(), Backend::Ifp);
        let data = BitString::from_ascii("the flash array adds without wearing out");
        erased.load_database(&data).unwrap();
        let pattern = BitString::from_ascii("without");
        let (hits, per_range) = erased.find_all(&pattern).unwrap();
        assert_eq!(hits, data.find_all(&pattern));
        let [stats] = per_range[..] else {
            panic!("one device, one entry: {per_range:?}")
        };
        assert!(stats.hom_adds > 0, "in-flash additions are counted");
        assert_eq!(stats.flash_wear, 0, "bop_add must not program or erase");
        assert_eq!(stats.hom_muls + stats.rotations + stats.bootstraps, 0);
    }

    #[test]
    fn ifp_accepts_wire_queries_from_its_kit() {
        let matcher = new_matcher(6);
        let kit = matcher.query_kit();
        let mut erased = erase(matcher, 6);
        let data = BitString::from_ascii("wire query into the flash pipeline");
        erased.load_database(&data).unwrap();
        let mut rng = StdRng::seed_from_u64(60);
        let pattern = BitString::from_ascii("flash");
        let encoded = kit.encode_query(&pattern, &mut rng).unwrap();
        assert_eq!(
            erased.find_all_wire(&encoded).unwrap().0,
            data.find_all(&pattern)
        );
        assert!(matches!(
            erased.find_all_wire(&encoded[..7]).unwrap_err(),
            MatchError::Decode(_)
        ));
        // The kit packs: one ciphertext, where Algorithm 1's explicit form
        // is one per variant — and that form is refused.
        let sender = new_matcher(6);
        assert_eq!(sender.decode_query(&encoded).unwrap().ciphertext_count(), 1);
        let mut explicit = encoded.clone();
        explicit[..4].copy_from_slice(b"CMQ2");
        assert_eq!(
            erased.find_all_wire(&explicit).unwrap_err(),
            MatchError::Decode(cm_bfv::DecodeError::BadMagic)
        );
    }

    #[test]
    fn coefficients_take_four_bytes_and_old_encodings_still_decode() {
        // q = 2^32: every coefficient is below 2^32 and ships in 4 bytes.
        let mut owner = erase(IfpMatcher::for_spec(44, true).unwrap(), 44);
        let data = BitString::from_ascii("four bytes a coefficient, not five");
        owner.load_database(&data).unwrap();
        let encoded = owner.export_database().unwrap();
        let db = EncryptedDatabase::decode(&encoded).unwrap();
        let n = 256;
        assert_eq!(encoded.len(), 12 + db.poly_count() * (16 + 2 * n * 4));
        assert_eq!(owner.database_bytes(), Some(db.byte_size(32) as u64));

        // Encodings at the 33-bit width used before are self-describing:
        // the database and a packed query both decode and search.
        let mut server = erase(IfpMatcher::for_spec(44, true).unwrap(), 45);
        server.load_database_wire(&db.encode(33)).unwrap();
        let pattern = BitString::from_ascii("bytes");
        let client = IfpMatcher::for_spec(44, true).unwrap();
        let mut rng = StdRng::seed_from_u64(46);
        let old_query = client
            .index_gen
            .engine()
            .pack_query(&client.enc, &pattern, &mut rng)
            .encode(33);
        assert_eq!(
            server.find_all_wire(&old_query).unwrap().0,
            data.find_all(&pattern)
        );
        // Re-exported, the database takes the 4-byte width.
        assert_eq!(server.export_database().unwrap(), encoded);
    }

    #[test]
    fn database_survives_the_wire_roundtrip_through_flash() {
        // export_database reads flash, decode_database programs a fresh
        // device — an upload from a client-side matcher with the same spec
        // must land searchable on the server side.
        let mut client = erase(IfpMatcher::for_spec(42, true).unwrap(), 42);
        let data = BitString::from_ascii("the master copy lives in the array");
        client.load_database(&data).unwrap();
        let encoded = client.export_database().unwrap();

        let mut server = erase(IfpMatcher::for_spec(42, true).unwrap(), 43);
        server.load_database_wire(&encoded).unwrap();
        let pattern = BitString::from_ascii("master");
        assert_eq!(
            server.find_all(&pattern).unwrap().0,
            data.find_all(&pattern)
        );
        // Re-export is bit-identical: the read-back path is lossless.
        assert_eq!(server.export_database().unwrap(), encoded);
    }

    #[test]
    fn decode_rejects_garbage_and_oversized_databases() {
        let matcher = IfpMatcher::for_spec(9, true).unwrap();
        assert!(matcher.decode_database(&[0u8; 7]).is_err());
        // A database larger than tiny_test's CIPHERMATCH region must be
        // refused before the device model panics: replicate a legitimate
        // ciphertext until the stream no longer fits.
        let n = matcher.ctx.params().n;
        let capacity = Ssd::cm_capacity_words(&FlashGeometry::tiny_test());
        let polys = capacity / (2 * n) + 1;
        let mut seeded = erase(IfpMatcher::for_spec(9, true).unwrap(), 9);
        seeded
            .load_database(&BitString::from_ascii("seed"))
            .unwrap();
        let small = EncryptedDatabase::decode(&seeded.export_database().unwrap()).unwrap();
        let cts = vec![small.ciphertexts()[0].clone(); polys];
        let bits_per_poly = matcher.index_gen.engine().packing().bits_per_poly();
        let big = EncryptedDatabase::from_ciphertexts(cts, polys * bits_per_poly);
        let encoded = big.encode(matcher.q_bits);
        assert!(matches!(
            matcher.decode_database(&encoded).unwrap_err(),
            MatchError::InvalidConfig(_)
        ));
        // The same size loaded in-process is refused alike, as is an
        // empty database.
        let bits = BitString::from_bits(&vec![true; polys * bits_per_poly]);
        for data in [bits, BitString::new()] {
            assert!(matches!(
                seeded.load_database(&data).unwrap_err(),
                MatchError::InvalidConfig(_)
            ));
        }
    }
}
