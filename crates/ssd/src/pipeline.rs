//! The end-to-end CM-IFP pipeline (paper Fig. 6).
//!
//! ① the client packs and encrypts the query — one ciphertext holding
//! every negated segment once ([`PackedQuery`], `CMQ3`), ② sends it to the
//! server, ③ the server forwards it to the SSD, whose controller
//! replicates each shifted variant out of it (a public coefficient
//! permutation; no key) into the latches and triggers the `bop_add`
//! µ-program, ④ the flash array executes the homomorphic additions with
//! array- and bit-level parallelism, ⑤ the controller's index-generation
//! unit checks each variant's sums as they leave the latches and, once
//! all are in, tests the range's phases — taken from the first variant's
//! sums — one pass per alignment class, as a CM-SW range job does, ⑥ the
//! AES-encrypted index list returns to the client
//! ([`CmIfpServer::cm_search_command`]).
//!
//! The pipeline is bit-exact: the in-flash adder output is the same sum
//! CM-SW computes, coefficient for coefficient (enforced by the
//! integration tests). This requires the power-of-two modulus parameters
//! ([`cm_bfv::BfvParams::ciphermatch_ifp_1024`]), under which wrapping
//! 32-bit addition *is* `Hom-Add`. [`CmIfpServer::search`] runs Algorithm 1
//! to the letter on the explicit query form and returns every sum — the
//! oracle the served command is tested against.

use cm_bfv::{BfvContext, Ciphertext};
use cm_core::{
    EncryptedDatabase, EncryptedQuery, MatchError, PackedQuery, SearchResult, ShardScratch,
    TrustedIndexGenerator,
};
use cm_flash::FlashGeometry;
use cm_hemath::Poly;

use crate::ssd::{IfpReport, Ssd};
use crate::transpose::TransposeMode;

/// Appends a fresh ciphertext to a flat `u32` coefficient stream, the
/// layout of the CIPHERMATCH region: `c0` coefficients then `c1`.
fn put_words(words: &mut Vec<u32>, ct: &Ciphertext) {
    assert_eq!(ct.size(), 2, "only fresh (size-2) ciphertexts are stored");
    for part in ct.parts() {
        words.extend(part.coeffs().iter().map(|&c| {
            debug_assert!(c < (1 << 32), "coefficient exceeds 32 bits");
            c as u32
        }));
    }
}

/// Serializes ciphertexts into the flat `u32` coefficient stream stored in
/// the CIPHERMATCH region.
fn ct_stream(cts: &[Ciphertext]) -> Vec<u32> {
    let mut words = Vec::new();
    for ct in cts {
        put_words(&mut words, ct);
    }
    words
}

/// Rebuilds ciphertexts from a flat coefficient stream.
fn stream_to_cts(words: &[u32], n: usize) -> Vec<Ciphertext> {
    assert_eq!(words.len() % (2 * n), 0, "stream is not ciphertext-aligned");
    words
        .chunks(2 * n)
        .map(|chunk| {
            let c0 = Poly::from_coeffs(chunk[..n].iter().map(|&w| w as u64).collect());
            let c1 = Poly::from_coeffs(chunk[n..].iter().map(|&w| w as u64).collect());
            Ciphertext::from_parts(vec![c0, c1])
        })
        .collect()
}

/// The CM-IFP server: an SSD whose CIPHERMATCH region holds the encrypted
/// database, and the controller's working memory.
pub struct CmIfpServer {
    ssd: Ssd,
    ctx: BfvContext,
    total_bits: usize,
    poly_count: usize,
    stream_words: usize,
    /// Index generation's working memory, kept between commands: the
    /// variant in hand, its tile of sums, the query's segment phases and
    /// the range's phases.
    scratch: ShardScratch,
    /// The variant in hand as the `u32` stream the latches take.
    variant_words: Vec<u32>,
}

impl std::fmt::Debug for CmIfpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CmIfpServer")
            .field("params", &self.ctx.params().name)
            .field("polys", &self.poly_count)
            .finish()
    }
}

impl CmIfpServer {
    /// Stores an encrypted database in a fresh SSD.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext modulus exceeds 32 bits (the adder width)
    /// or is not `2^32` (wrapping addition must equal `Hom-Add`).
    pub fn new(
        ctx: &BfvContext,
        geometry: FlashGeometry,
        mode: TransposeMode,
        db: &EncryptedDatabase,
    ) -> Self {
        assert_eq!(
            ctx.params().q,
            1 << 32,
            "CM-IFP needs q = 2^32 (use BfvParams::ciphermatch_ifp_1024)"
        );
        let mut ssd = Ssd::new(geometry, mode);
        let mut stream = ct_stream(db.ciphertexts());
        let stream_words = stream.len();
        // Pad the stream to group granularity (zero ciphertext words).
        let bitlines = ssd.geometry().page_bits();
        let padded = stream_words.div_ceil(bitlines) * bitlines;
        stream.resize(padded, 0);
        ssd.cm_write_words(&stream);
        Self {
            ssd,
            ctx: ctx.clone(),
            total_bits: db.total_bits(),
            poly_count: db.poly_count(),
            stream_words,
            scratch: ShardScratch::default(),
            variant_words: Vec::new(),
        }
    }

    /// Access to the underlying SSD (for ledger inspection).
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// Mutable access to the underlying SSD (fault injection through
    /// [`Ssd::handle_dirty_writeback`]).
    pub fn ssd_mut(&mut self) -> &mut Ssd {
        &mut self.ssd
    }

    /// Reads the stored database back out of the flash array (`CM-read`
    /// over every group, reverse transposition, stream reassembly) — the
    /// honest export path: the device is the master copy, so serializing
    /// the database means reading flash, not returning a cached host copy.
    /// Reads are wear-free.
    pub fn export_database(&mut self) -> EncryptedDatabase {
        let n = self.ctx.params().n;
        let bitlines = self.ssd.geometry().page_bits();
        let groups = self.stream_words.div_ceil(bitlines);
        let mut words = Vec::with_capacity(groups * bitlines);
        for g in 0..groups {
            words.extend(self.ssd.cm_read_group(g));
        }
        words.truncate(self.stream_words);
        EncryptedDatabase::from_ciphertexts(stream_to_cts(&words, n), self.total_bits)
    }

    /// `u32` coefficients a database occupies in the CIPHERMATCH region
    /// (before group padding): two polynomials of `n` coefficients per
    /// ciphertext.
    pub fn required_words(db: &EncryptedDatabase, n: usize) -> usize {
        db.poly_count() * 2 * n
    }

    /// Algorithm 1 to the letter: runs the in-flash search for every
    /// variant of an explicit query and returns every sum as a search
    /// result, with one cost report per variant. The oracle of
    /// [`Self::cm_search_command`]; no serving path calls it.
    pub fn search(&mut self, query: &EncryptedQuery) -> (SearchResult, Vec<IfpReport>) {
        let n = self.ctx.params().n;
        let mut per_variant = Vec::new();
        let mut reports = Vec::new();
        for (r, phase, ct) in query.variant_cts() {
            let qstream = ct_stream(std::slice::from_ref(ct));
            let mut sums = Vec::with_capacity(self.ssd.stored_words());
            let report = self
                .ssd
                .cm_search(&qstream, |group| sums.extend_from_slice(group));
            let cts = stream_to_cts(&sums[..self.stream_words], n);
            assert_eq!(cts.len(), self.poly_count);
            per_variant.push(((r, phase), cts));
            reports.push(report);
        }
        let result = SearchResult::from_raw(
            per_variant,
            self.total_bits,
            query.k(),
            query.classes().to_vec(),
        );
        (result, reports)
    }

    /// The full `CM-search` command on a packed query: for each variant
    /// `(r, phase)` the controller gathers it out of the packed ciphertext
    /// (the public coefficient permutation a CM-SW range job applies) and
    /// streams it into the latches for the same `bop_add`s an explicit
    /// variant gets; index generation checks the sums as they come back
    /// and tests the range's phases, taken from the first variant's sums
    /// ([`ShardScratch::run_with_adder`]) — one cost report per variant,
    /// and the matching bit offsets (the paper's trust model).
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::Internal`] when the sums fail the additivity
    /// check: some variant did not get the column every other one got,
    /// or got something other than what the controller sent.
    pub fn cm_search_command(
        &mut self,
        query: &PackedQuery,
        index_gen: &TrustedIndexGenerator,
    ) -> Result<(Vec<usize>, Vec<IfpReport>), MatchError> {
        let Self {
            ssd,
            scratch,
            variant_words,
            poly_count,
            total_bits,
            ..
        } = self;
        let mut reports = Vec::with_capacity(query.variant_count());
        let indices = scratch.run_with_adder(
            query,
            index_gen,
            *poly_count,
            *total_bits,
            |variant, tile| {
                variant_words.clear();
                put_words(variant_words, variant);
                // The region is padded to whole groups; the tile ends at
                // the last stored coefficient.
                let mut slots = tile.iter_mut();
                reports.push(ssd.cm_search(variant_words, |sums| {
                    for (&sum, slot) in sums.iter().zip(slots.by_ref()) {
                        *slot = u64::from(sum);
                    }
                }));
            },
        )?;
        Ok((indices, reports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_bfv::{BfvParams, Decryptor, Encryptor, KeyGenerator};
    use cm_core::{BitString, CiphermatchEngine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn stream_roundtrip() {
        let n = 4;
        let c0 = Poly::from_coeffs(vec![1, 2, 3, 4]);
        let c1 = Poly::from_coeffs(vec![5, 6, 7, 8]);
        let ct = Ciphertext::from_parts(vec![c0, c1]);
        let words = ct_stream(std::slice::from_ref(&ct));
        assert_eq!(words, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(stream_to_cts(&words, n), vec![ct]);
    }

    #[test]
    fn ifp_search_equals_software_search() {
        let ctx = BfvContext::new(BfvParams::insecure_test_pow2());
        let mut rng = StdRng::seed_from_u64(2025);
        let (sk, pk) = {
            let kg = KeyGenerator::new(&ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk.clone());
        let engine = CiphermatchEngine::new(&ctx);

        let data = BitString::from_ascii("in flash processing equals software");
        let db = engine.encrypt_database(&enc, &data, &mut rng);
        let pattern = BitString::from_ascii("flash");
        let query = engine.prepare_query(&enc, &pattern, &mut rng);

        // Software result.
        let sw_result = engine.search(&db, &query);
        let sw_indices = engine.generate_indices(&dec, &sw_result);

        // In-flash result.
        let mut server = CmIfpServer::new(
            &ctx,
            FlashGeometry::tiny_test(),
            TransposeMode::Software,
            &db,
        );
        let (ifp_result, reports) = server.search(&query);
        let ifp_indices = engine.generate_indices(&dec, &ifp_result);

        assert_eq!(ifp_indices, sw_indices);
        assert_eq!(ifp_indices, data.find_all(&pattern));
        assert!(reports.iter().all(|r| r.ledger.wear() == 0));
        // The raw hom-add outputs must be bit-identical, not just
        // decrypt-identical.
        assert_eq!(ifp_result, sw_result);
    }

    #[test]
    fn packed_command_equals_the_explicit_oracle_across_seams() {
        // Four polynomials, four groups of tiny_test's 512 bitlines. Per
        // query length the pattern is planted across every polynomial
        // seam, then repeatedly at a stride of `8·⌈(k+1)/8⌉ + 1` bits, so
        // the plants walk through every bit-offset class and, a segment
        // further each time, through the phases of each class. The packed
        // command, the explicit oracle and the plaintext search must agree
        // on the whole list, and the flash does the same work either way.
        let ctx = BfvContext::new(BfvParams::insecure_test_pow2());
        let mut rng = StdRng::seed_from_u64(0x5EA);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let dec = Decryptor::new(&ctx, kg.secret_key());
        let index_gen = TrustedIndexGenerator::from_secret(&ctx, kg.secret_key());
        let engine = CiphermatchEngine::new(&ctx);
        let (n, bpp) = (ctx.params().n, engine.packing().bits_per_poly());
        // k = 260 has V = 267 > n segments: two packed ciphertexts.
        for k in [1usize, 9, 33, 260] {
            let pattern: Vec<bool> = (0..k).map(|_| rng.gen()).collect();
            let mut bits: Vec<bool> = (0..4 * bpp).map(|_| rng.gen()).collect();
            let step = 8 * (k + 1).div_ceil(8) + 1;
            let walk = (0..8 * k.div_ceil(8) + 8).map(|i| 5 + i * step);
            for at in (1..4).map(|j| j * bpp - k / 2).chain(walk) {
                if at + k <= bits.len() {
                    bits[at..at + k].copy_from_slice(&pattern);
                }
            }
            let (data, pattern) = (BitString::from_bits(&bits), BitString::from_bits(&pattern));
            let db = engine.encrypt_database(&enc, &data, &mut rng);
            assert_eq!(db.poly_count(), 4);
            let mut server = CmIfpServer::new(
                &ctx,
                FlashGeometry::tiny_test(),
                TransposeMode::Software,
                &db,
            );

            let explicit = engine.prepare_query(&enc, &pattern, &mut rng);
            let (result, oracle_reports) = server.search(&explicit);
            let oracle = engine.generate_indices(&dec, &result);
            let packed = engine.pack_query(&enc, &pattern, &mut rng);
            let v = packed.variant_count();
            assert_eq!(packed.ciphertext_count(), v.div_ceil(n), "k={k}");
            let (indices, reports) = server.cm_search_command(&packed, &index_gen).unwrap();
            assert_eq!(indices, oracle, "k={k}: packed vs explicit");
            assert_eq!(indices, data.find_all(&pattern), "k={k}: vs plaintext");
            assert!(indices.len() > 3, "k={k}: the plants are found");
            assert_eq!(reports.len(), v);
            for (packed, explicit) in reports.iter().zip(&oracle_reports) {
                assert_eq!(packed.ledger, explicit.ledger, "k={k}");
                assert_eq!(packed.bop_adds, 4);
            }
        }
    }

    #[test]
    fn export_reads_the_database_back_from_flash() {
        let ctx = BfvContext::new(BfvParams::insecure_test_pow2());
        let mut rng = StdRng::seed_from_u64(77);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let pk = kg.public_key(&mut rng);
        let enc = Encryptor::new(&ctx, pk);
        let engine = CiphermatchEngine::new(&ctx);
        let data = BitString::from_ascii("round trip through the array");
        let db = engine.encrypt_database(&enc, &data, &mut rng);

        let mut server = CmIfpServer::new(
            &ctx,
            FlashGeometry::tiny_test(),
            TransposeMode::Software,
            &db,
        );
        let wear_before = server.ssd().ledger().wear();
        let exported = server.export_database();
        assert_eq!(server.ssd().ledger().wear(), wear_before);
        assert_eq!(exported.total_bits(), db.total_bits());
        assert_eq!(exported.poly_count(), db.poly_count());
        let q_bits = ctx.params().coeff_bits();
        assert_eq!(
            exported.encode(q_bits),
            db.encode(q_bits),
            "flash read-back must be bit-identical to the original"
        );
    }
}
