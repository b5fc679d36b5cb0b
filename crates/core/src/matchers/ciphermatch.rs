//! CM-SW: the CIPHERMATCH secure matcher (paper §4.2, Algorithm 1).
//!
//! Database and query are packed with [`DensePacking`], the server runs
//! **only `Hom-Add`** (one per database-polynomial × query-variant pair),
//! and index generation compares result coefficients against the all-ones
//! match value under the alignment masks.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cm_bfv::{BfvContext, Ciphertext, Decryptor, EncryptScratch, Encryptor, Evaluator, SecretKey};
use cm_hemath::{kernels, Poly, PreparedPoly, RingContext};
use rand::Rng;

use crate::api::{MatchError, MatchStats};
use crate::bits::BitString;
use crate::index_gen::{generate_indices, scan_phases, MatchTable};
use crate::packing::DensePacking;
use crate::query::{
    alignment_classes, alignment_geometry, pack_segments, stream_variants, variant_count,
    AlignmentClass,
};

/// The encrypted, densely packed database stored on the server
/// (Algorithm 1 lines 1–3), one ciphertext per polynomial.
///
/// A value is a *view*: a contiguous polynomial range of one shared,
/// immutable ciphertext allocation. [`Clone`] and [`Self::subrange`] hand
/// out further views — no ciphertext is copied — and a view owns its
/// share of the allocation, so a pool job can hold one.
///
/// The ciphertexts come in one of two forms. The *explicit* form `C =`
/// [`Ciphertext`], every component in coefficients, is what the wire
/// carries, the flash stores and the explicit engine
/// ([`CiphermatchEngine`]) takes. The *resident* form
/// ([`ResidentDatabase`]) is what a served CM-SW job reads
/// ([`ShardScratch::run`]); [`Self::into_resident`] converts one way
/// and [`ResidentDatabase::encode`] writes the explicit bytes back,
/// exactly.
#[derive(Debug, Clone)]
pub struct EncryptedDatabase<C = Ciphertext> {
    /// The allocation every view cut from this database shares.
    cts: Arc<[C]>,
    /// The polynomials of `cts` this view covers.
    polys: Range<usize>,
    pub(crate) total_bits: usize,
}

/// A database in the form a served CM-SW job reads: every ciphertext a
/// [`ResidentCiphertext`]. A CM-SW matcher holds nothing else — no
/// coefficient copy of a component past `c0`.
pub type ResidentDatabase = EncryptedDatabase<ResidentCiphertext>;

/// One database polynomial as a served job reads it: a fresh pair, `c0`
/// in coefficients and `c1` kept in the evaluation domain
/// ([`cm_hemath::RingContext::prepare`]). `c1` is public, never changes,
/// and only ever meets the secret key in a product, so it is
/// transformed once, at load, and each key product is then a point-wise
/// product and one inverse transform
/// ([`Decryptor::key_product_prepared_into`]). On a ring whose modulus
/// has no NTT of its own a prepared `c1` is `2n` words.
#[derive(Debug, Clone)]
pub struct ResidentCiphertext {
    c0: Poly,
    c1: PreparedPoly,
}

impl ResidentCiphertext {
    /// Takes the buffers of a ciphertext's two components: `c0` as is,
    /// `c1` transformed in place.
    ///
    /// # Panics
    ///
    /// Panics unless `parts` is a pair: every ciphertext a database is
    /// encrypted or decoded into is ([`check_fresh`]).
    fn take(rq: &RingContext, parts: &mut [Poly]) -> Self {
        let [c0, c1] = parts else {
            panic!("a served ciphertext is a pair, not {} parts", parts.len());
        };
        Self {
            c0: std::mem::take(c0),
            c1: rq.prepare(std::mem::take(c1)),
        }
    }

    /// The explicit ciphertext: `c1` transformed back.
    fn to_explicit(&self, rq: &RingContext) -> Ciphertext {
        let mut c1 = vec![0; rq.n()];
        rq.unprepare_into(&self.c1, &mut c1);
        Ciphertext::from_parts(vec![self.c0.clone(), Poly::from_coeffs(c1)])
    }
}

impl<C> EncryptedDatabase<C> {
    /// Reassembles a database from raw ciphertexts — the inverse of the
    /// coefficient-stream flattening the SSD pipeline performs, so an
    /// in-flash copy can be read back as the canonical representation.
    pub fn from_ciphertexts(cts: Vec<C>, total_bits: usize) -> Self {
        Self {
            polys: 0..cts.len(),
            cts: cts.into(),
            total_bits,
        }
    }

    /// Number of ciphertexts.
    pub fn poly_count(&self) -> usize {
        self.polys.len()
    }

    /// Database length in bits.
    pub fn total_bits(&self) -> usize {
        self.total_bits
    }

    /// The database ciphertexts in storage order (used by the SSD pipeline
    /// to lay the coefficient stream out in flash).
    pub fn ciphertexts(&self) -> &[C] {
        &self.cts[self.polys.clone()]
    }

    /// The contiguous polynomial sub-range `polys` as a database of its
    /// own, `total_bits` long — the shard primitive of the serving layer.
    /// The result is a view of this database's allocation, not a copy of
    /// it.
    ///
    /// `total_bits` counts from the first bit of `polys` and is at most
    /// what those polynomials hold of this database: a search of the view
    /// reports the windows that fit in it, at offsets relative to that
    /// first bit. [`crate::ShardPlan::ranges`] gives both arguments for a
    /// query length ([`crate::ShardRange::held`] and
    /// [`crate::ShardRange::bits`]).
    ///
    /// # Panics
    ///
    /// Panics if `polys` is empty or out of range (programmer error in
    /// the shard planner).
    pub fn subrange(&self, polys: Range<usize>, total_bits: usize) -> Self {
        assert!(
            !polys.is_empty() && polys.end <= self.poly_count(),
            "shard polynomial range {polys:?} outside 0..{}",
            self.poly_count()
        );
        Self {
            cts: Arc::clone(&self.cts),
            polys: self.polys.start + polys.start..self.polys.start + polys.end,
            total_bits,
        }
    }

    /// The wire encoding's frame: the bit count and the ciphertext count,
    /// then `put` once per ciphertext. `len` is the exact output length.
    fn encode_with(&self, len: usize, mut put: impl FnMut(&mut Vec<u8>, &C)) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&(self.total_bits as u64).to_le_bytes());
        out.extend_from_slice(&(self.poly_count() as u32).to_le_bytes());
        for ct in self.ciphertexts() {
            put(&mut out, ct);
        }
        debug_assert_eq!(out.len(), len);
        out
    }
}

impl ResidentDatabase {
    /// [`EncryptedDatabase::encode`] of the explicit form, byte for byte:
    /// the bytes the database was loaded from. Each ciphertext is
    /// transformed back on its own as it is written, so the database is
    /// never held twice.
    pub fn encode(&self, ctx: &BfvContext, q_bits: u32) -> Vec<u8> {
        let rq = ctx.rq();
        let len = 12 + 16 * self.poly_count() + self.byte_size(q_bits);
        self.encode_with(len, |out, ct| {
            put_ciphertext(out, &ct.to_explicit(rq), q_bits);
        })
    }

    /// Total encrypted footprint in bytes, as the explicit form counts it
    /// ([`EncryptedDatabase::byte_size`]): what the database holds, not
    /// the working form it is held in.
    pub fn byte_size(&self, q_bits: u32) -> usize {
        let bytes = q_bits.div_ceil(8) as usize;
        let cts = self.ciphertexts();
        cts.iter().map(|ct| 2 * ct.c0.len() * bytes).sum()
    }
}

impl EncryptedDatabase {
    /// Total encrypted footprint in bytes (Fig. 2a's y-axis).
    pub fn byte_size(&self, q_bits: u32) -> usize {
        let cts = self.ciphertexts();
        cts.iter().map(|ct| ct.byte_size(q_bits)).sum()
    }

    /// The resident form of this view ([`ResidentDatabase`]): `c0` as is,
    /// every later component transformed once; [`ResidentDatabase::encode`]
    /// gives the explicit form's bytes back exactly. A view that is alone
    /// on its allocation gives its buffers up and they are transformed
    /// where they lie, so the database is never held twice; a shared one
    /// is copied.
    pub fn into_resident(mut self, ctx: &BfvContext) -> ResidentDatabase {
        let rq = ctx.rq();
        let total_bits = self.total_bits;
        let cts = match Arc::get_mut(&mut self.cts) {
            Some(cts) => cts[self.polys.clone()]
                .iter_mut()
                .map(|ct| ResidentCiphertext::take(rq, ct.parts_mut()))
                .collect(),
            None => self
                .ciphertexts()
                .iter()
                .map(|ct| ResidentCiphertext::take(rq, &mut ct.parts().to_vec()))
                .collect(),
        };
        EncryptedDatabase::from_ciphertexts(cts, total_bits)
    }

    /// Serializes the database for upload/storage: a small header plus
    /// every ciphertext in the compact `cm-bfv` wire format. The output is
    /// exactly [`Self::encoded_len`] bytes.
    pub fn encode(&self, q_bits: u32) -> Vec<u8> {
        let len = self.encoded_len(q_bits);
        self.encode_with(len, |out, ct| put_ciphertext(out, ct, q_bits))
    }

    /// Exact byte length of [`Self::encode`]'s output, computed without
    /// serializing — the registry-accounting charge of hosting this
    /// database (12-byte database header, then per ciphertext a 4-byte
    /// length prefix, the 12-byte `cm-bfv` header, and the packed
    /// coefficients).
    pub fn encoded_len(&self, q_bits: u32) -> usize {
        12 + self
            .ciphertexts()
            .iter()
            .map(|ct| 16 + ct.byte_size(q_bits))
            .sum::<usize>()
    }

    /// Checks that a decoded database is well-formed *for this parameter
    /// set*: every ciphertext is a fresh size-2 ciphertext over ring
    /// degree `n` with coefficients below `q`, and the declared bit count
    /// is consistent with the ciphertext count at `bits_per_poly` packing
    /// density. Run this on every untrusted upload before the ciphertexts
    /// can reach the search or index-generation paths.
    ///
    /// # Errors
    ///
    /// Returns a [`cm_bfv::DecodeError`] naming the violated invariant.
    pub fn validate(
        &self,
        n: usize,
        q: u64,
        bits_per_poly: usize,
    ) -> Result<(), cm_bfv::DecodeError> {
        use cm_bfv::DecodeError;
        let cts = self.ciphertexts();
        if cts.is_empty() {
            return if self.total_bits == 0 {
                Ok(())
            } else {
                Err(DecodeError::BadHeader("bit count without ciphertexts"))
            };
        }
        let max_bits = cts.len().saturating_mul(bits_per_poly);
        let min_bits = (cts.len() - 1).saturating_mul(bits_per_poly);
        // The packer emits one (possibly empty) polynomial even for zero
        // bits, so a single ciphertext may carry any count up to the
        // packing density; beyond one, every non-final polynomial must be
        // full.
        if self.total_bits > max_bits || (cts.len() > 1 && self.total_bits <= min_bits) {
            return Err(DecodeError::BadHeader("bit count vs ciphertext count"));
        }
        for ct in cts {
            check_fresh(ct, n, q, "database ciphertext size", "database ring degree")?;
        }
        Ok(())
    }

    /// Decodes a database serialized with [`Self::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`cm_bfv::DecodeError`] on malformed input, bytes left
    /// after the last ciphertext included.
    pub fn decode(data: &[u8]) -> Result<Self, cm_bfv::DecodeError> {
        use cm_bfv::DecodeError;
        let mut cur = Cursor { data, pos: 0 };
        let total_bits = cur.u64()? as usize;
        let count = cur.u32()? as usize;
        // Each ciphertext needs at least its 4-byte length prefix, so a
        // count the buffer cannot possibly hold is a lie told by the
        // header — reject it before trusting it for an allocation.
        if count > cur.remaining() / 4 {
            return Err(DecodeError::BadHeader("ciphertext count"));
        }
        let mut cts = Vec::with_capacity(count);
        for _ in 0..count {
            let len = cur.u32()? as usize;
            cts.push(cm_bfv::decode_ciphertext(cur.take(len)?)?);
        }
        if cur.remaining() != 0 {
            return Err(DecodeError::BadHeader(
                "trailing bytes after the ciphertexts",
            ));
        }
        Ok(Self::from_ciphertexts(cts, total_bits))
    }
}

/// The encrypted query in its *explicit* form: all shifted/replicated
/// variants, one fresh ciphertext each (Algorithm 1 lines 4–9, to the
/// letter).
///
/// Besides the ciphertexts it holds the query *length* `k` and the
/// alignment geometry that follows from it ([`alignment_geometry`]) —
/// nothing else about the pattern exists outside the ciphertexts.
///
/// Every Hom-Add result of this form is a decryptable ciphertext, so it
/// is the form of whoever decrypts results somewhere else — the
/// conservative flow ([`CiphermatchEngine::search`] +
/// [`CiphermatchEngine::generate_indices`]) — and the oracle both served
/// paths are tested against. No serving path takes it: CM-SW and the
/// in-flash controller both take a [`PackedQuery`], and this form has no
/// wire encoding — it lives in the process that made it.
#[derive(Debug, Clone)]
pub struct EncryptedQuery {
    pub(crate) variants: Vec<EncryptedVariant>,
    pub(crate) classes: Vec<AlignmentClass>,
    pub(crate) k: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct EncryptedVariant {
    pub r: usize,
    pub phase: usize,
    pub ct: Ciphertext,
}

/// Checks that `ct` is a fresh two-component ciphertext over ring degree
/// `n` with coefficients below `q` — what every untrusted ciphertext is
/// held to before it can reach the sweep or index generation. The two
/// labels name the violated invariant for the caller's container.
fn check_fresh(
    ct: &Ciphertext,
    n: usize,
    q: u64,
    size_err: &'static str,
    degree_err: &'static str,
) -> Result<(), cm_bfv::DecodeError> {
    use cm_bfv::DecodeError;
    if ct.size() != 2 {
        return Err(DecodeError::BadHeader(size_err));
    }
    for part in ct.parts() {
        if part.len() != n {
            return Err(DecodeError::BadHeader(degree_err));
        }
        if part.coeffs().iter().any(|&c| c >= q) {
            return Err(DecodeError::CoefficientOverflow);
        }
    }
    Ok(())
}

/// Appends one length-prefixed ciphertext in the compact `cm-bfv`
/// format, serialized in place (the prefix is patched in afterwards).
fn put_ciphertext(out: &mut Vec<u8>, ct: &Ciphertext, q_bits: u32) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    cm_bfv::encode_ciphertext_into(ct, q_bits, out);
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

impl EncryptedQuery {
    /// Number of encrypted variants (`sum_r ceil((r+k)/seg_bits)`).
    pub fn variant_count(&self) -> usize {
        self.variants.len()
    }

    /// Query length in bits.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total encrypted footprint in bytes.
    pub fn byte_size(&self, q_bits: u32) -> usize {
        self.variants.iter().map(|v| v.ct.byte_size(q_bits)).sum()
    }

    /// Iterates over the variants as `(r, phase, ciphertext)` (used by the
    /// SSD pipeline, which runs each variant through the in-flash adder).
    pub fn variant_cts(&self) -> impl Iterator<Item = (usize, usize, &Ciphertext)> + '_ {
        self.variants.iter().map(|v| (v.r, v.phase, &v.ct))
    }

    /// The alignment geometry of this query's length (needed to rebuild a
    /// [`SearchResult`] from externally computed sums).
    pub fn classes(&self) -> &[AlignmentClass] {
        &self.classes
    }
}

/// The encrypted query in its *packed* form, the one every serving path
/// takes — CM-SW's range jobs and the in-flash controller alike: the
/// `V = Σ_r s_r` negated segments encrypted once, laid out class-major
/// over `⌈V/n⌉` ciphertexts ([`pack_segments`]) — one ciphertext up to
/// `k ≈ n` bits — instead of `V` ciphertexts that each replicate the same
/// `V` values across all coefficients.
///
/// This departs from Algorithm 1 lines 4–9: the replication happens on
/// the server, after encryption, on ciphertext coefficients — in a range
/// job's phase scan ([`ShardScratch::run`]) or on its way into the flash
/// latches ([`ShardScratch::run_with_adder`]). That is valid *because*
/// the trusted index generator tests decryption phases coefficient by
/// coefficient — a phase `c0 + s·c1` is linear and coefficient-wise, so
/// gathering the coefficients of `c0` and of `s·c1` gives exactly the
/// phase a fresh encryption of the replicated plaintext would have, noise
/// included. The gathered `c1` itself is not a ring element anyone can
/// decrypt by; whoever must decrypt result ciphertexts elsewhere uses
/// [`EncryptedQuery`]. Every derived variant is a public function of what
/// the client sent, so the server learns nothing `V` fresh encryptions
/// would have hidden.
///
/// A value exists only as [`CiphermatchEngine::pack_query`] or
/// [`Self::decode`] made it: two-component ciphertexts of one ring
/// degree, their count the one `k` implies.
#[derive(Debug, Clone)]
pub struct PackedQuery {
    cts: Vec<Ciphertext>,
    classes: Vec<AlignmentClass>,
    k: usize,
}

impl PackedQuery {
    /// Query length in bits.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of ciphertexts, `⌈V/n⌉`.
    pub fn ciphertext_count(&self) -> usize {
        self.cts.len()
    }

    /// Number of variants the server derives (`sum_r ceil((r+k)/seg_bits)`),
    /// one Hom-Add per database polynomial each.
    pub fn variant_count(&self) -> usize {
        self.classes.iter().map(|c| c.window_segs).sum()
    }

    /// Total encrypted footprint in bytes.
    pub fn byte_size(&self, q_bits: u32) -> usize {
        self.cts.iter().map(|ct| ct.byte_size(q_bits)).sum()
    }

    /// Serializes the query for the wire (`CMQ3`): the magic, the query
    /// length `k`, the ciphertext count, and every ciphertext
    /// length-prefixed in the compact `cm-bfv` format. Outside the
    /// ciphertext bodies every byte is a function of `k` and the parameter
    /// set.
    pub fn encode(&self, q_bits: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.cts.len() * 16 + self.byte_size(q_bits));
        out.extend_from_slice(&PACKED_MAGIC.to_be_bytes());
        out.extend_from_slice(&(self.k as u64).to_le_bytes());
        out.extend_from_slice(&(self.cts.len() as u32).to_le_bytes());
        for ct in &self.cts {
            put_ciphertext(&mut out, ct, q_bits);
        }
        out
    }

    /// Decodes and validates a query serialized with [`Self::encode`] for
    /// ring degree `n`, segments of `seg_bits` bits and modulus `q`,
    /// rebuilding the alignment geometry from the encoded length.
    ///
    /// Nothing is sized by a header field before the buffer vouches for
    /// it: the ciphertext count must fit the bytes that follow, `k` must
    /// fit the count (`V(k) ≥ k` segments need `k ≤ count·n`), and only
    /// then is the geometry of `k` derived and the count held to
    /// `⌈V(k)/n⌉`. Every ciphertext must be two-component over degree `n`
    /// with coefficients below `q` — all of them, the unused tail of the
    /// last one included, because the key product `s·c1` runs over the
    /// whole polynomial; what those tail coefficients *hold* is never read.
    ///
    /// # Errors
    ///
    /// Returns a [`cm_bfv::DecodeError`] on malformed input — the
    /// explicit `CMQ2` form and the retired `CMQ1` are
    /// [`cm_bfv::DecodeError::BadMagic`]; never panics. Ciphertexts
    /// encoded at any coefficient width decode (each carries its own), so
    /// a `q = 2³²` query packed at 33 bits, as before
    /// [`cm_bfv::BfvParams::coeff_bits`], is still accepted.
    pub fn decode(
        data: &[u8],
        n: usize,
        seg_bits: usize,
        q: u64,
    ) -> Result<Self, cm_bfv::DecodeError> {
        use cm_bfv::DecodeError;
        // A segment is a coefficient of at most 63 bits.
        if !(1..=63).contains(&seg_bits) {
            return Err(DecodeError::BadHeader("segment width"));
        }
        let mut cur = Cursor { data, pos: 0 };
        if cur.u32_be()? != PACKED_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let k = usize::try_from(cur.u64()?).map_err(|_| DecodeError::BadHeader("query length"))?;
        let count =
            usize::try_from(cur.u32()?).map_err(|_| DecodeError::BadHeader("ciphertext count"))?;
        // A two-component degree-`n` ciphertext is at least its 4-byte
        // length prefix, its 12-byte header and one byte per coefficient.
        let min_ct_bytes = n.saturating_mul(2).saturating_add(16);
        let held = count.checked_mul(min_ct_bytes);
        if count == 0 || held.is_none_or(|bytes| bytes > cur.remaining()) {
            return Err(DecodeError::BadHeader("ciphertext count"));
        }
        if k == 0 {
            return Err(DecodeError::BadHeader("empty query"));
        }
        // `count · n` is below the buffer length by now, so neither it nor
        // anything derived from a `k` it bounds can overflow or outgrow
        // the message by more than a constant factor.
        if k > count * n || variant_count(k, seg_bits).div_ceil(n) != count {
            return Err(DecodeError::BadHeader("ciphertext count vs query length"));
        }
        let mut cts = Vec::with_capacity(count);
        for _ in 0..count {
            let len = usize::try_from(cur.u32()?).map_err(|_| DecodeError::Truncated)?;
            let ct = cm_bfv::decode_ciphertext(cur.take(len)?)?;
            check_fresh(&ct, n, q, "query ciphertext size", "query ring degree")?;
            cts.push(ct);
        }
        if cur.remaining() != 0 {
            return Err(DecodeError::BadHeader(
                "trailing bytes after the ciphertexts",
            ));
        }
        Ok(Self {
            cts,
            classes: alignment_geometry(k, seg_bits),
            k,
        })
    }

    /// Coefficient `at % n` of component `part` of ciphertext `at / n`:
    /// the packed layout read by flat segment index.
    #[inline]
    fn flat(&self, part: usize, at: usize, n: usize) -> u64 {
        self.cts[at / n].part(part).coeffs()[at % n]
    }
}

/// Magic bytes of the packed serialized-query format ("CMQ3"), the only
/// one a server decodes: the retired `CMQ1` carried the alignment classes
/// — the negated pattern included — in the clear next to the ciphertexts,
/// and the explicit form's `CMQ2` codec is gone.
const PACKED_MAGIC: u32 = 0x434D_5133;

/// Minimal bounds-checked reader over a byte slice (decode helper).
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], cm_bfv::DecodeError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.data.len())
            .ok_or(cm_bfv::DecodeError::Truncated)?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, cm_bfv::DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u32_be(&mut self) -> Result<u32, cm_bfv::DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, cm_bfv::DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// One query variant's Hom-Add sweep output, stored as a single flat
/// coefficient arena instead of `poly_count` heap-allocated ciphertexts.
///
/// Layout is polynomial-major: result ciphertext `j` occupies
/// `arena[j * ct_size * n .. (j + 1) * ct_size * n]`, with component
/// `p` at offset `p * n` inside that window. The flat layout is what
/// lets the search sweep write every Hom-Add straight into one
/// allocation that the next query of the same shape rewrites in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VariantSums {
    /// The variant's `(r, phase)` alignment key.
    key: (usize, usize),
    /// `ct_count * ct_size * n` reduced coefficients.
    arena: Vec<u64>,
    /// Components per result ciphertext (2 for fresh CM-SW results).
    ct_size: usize,
    /// Ring degree.
    n: usize,
}

impl VariantSums {
    /// Flattens per-polynomial result ciphertexts into an arena,
    /// zero-padding any ciphertext smaller than the widest one.
    fn from_cts(key: (usize, usize), cts: &[Ciphertext]) -> Self {
        let ct_size = cts.iter().map(Ciphertext::size).max().unwrap_or(0);
        let n = cts.first().map_or(0, |ct| ct.part(0).len());
        let stride = ct_size * n;
        let mut arena = vec![0u64; cts.len() * stride];
        for (ct, slot) in cts.iter().zip(arena.chunks_exact_mut(stride.max(1))) {
            for (part, window) in ct.parts().iter().zip(slot.chunks_exact_mut(n.max(1))) {
                window.copy_from_slice(part.coeffs());
            }
        }
        Self {
            key,
            arena,
            ct_size,
            n,
        }
    }

    /// The result ciphertexts in the arena, `ct_size × n` words each.
    fn ciphertexts(&self) -> std::slice::ChunksExact<'_, u64> {
        self.arena.chunks_exact((self.ct_size * self.n).max(1))
    }
}

/// The server's raw search output: one result ciphertext per
/// (variant, database polynomial) pair (Algorithm 1 lines 10–11),
/// held as one flat coefficient arena per variant.
/// The default value is the empty result [`CiphermatchEngine::search_into`]
/// grows on first use.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchResult {
    pub(crate) per_variant: Vec<VariantSums>,
    pub(crate) total_bits: usize,
    pub(crate) k: usize,
    pub(crate) classes: Vec<AlignmentClass>,
}

impl SearchResult {
    /// Number of result ciphertexts.
    pub fn ciphertext_count(&self) -> usize {
        self.per_variant.iter().map(|v| v.ciphertexts().len()).sum()
    }

    /// Assembles a search result from externally computed Hom-Add outputs
    /// (e.g. the in-flash pipeline): `per_variant` maps `(r, phase)` to the
    /// per-polynomial result ciphertexts.
    pub fn from_raw(
        per_variant: Vec<((usize, usize), Vec<Ciphertext>)>,
        total_bits: usize,
        k: usize,
        classes: Vec<AlignmentClass>,
    ) -> Self {
        Self {
            per_variant: per_variant
                .into_iter()
                .map(|(key, cts)| VariantSums::from_cts(key, &cts))
                .collect(),
            total_bits,
            k,
            classes,
        }
    }
}

/// The CM-SW engine: packing + addition-only matching.
#[derive(Debug, Clone)]
pub struct CiphermatchEngine {
    ctx: BfvContext,
    packing: DensePacking,
    evaluator: Evaluator,
}

impl CiphermatchEngine {
    /// Creates an engine for a dense-packing-capable context
    /// (power-of-two `t`; use [`cm_bfv::BfvParams::ciphermatch_1024`]).
    pub fn new(ctx: &BfvContext) -> Self {
        Self {
            ctx: ctx.clone(),
            packing: DensePacking::new(ctx),
            evaluator: Evaluator::new(ctx),
        }
    }

    /// The packing scheme.
    pub fn packing(&self) -> &DensePacking {
        &self.packing
    }

    /// Packs and encrypts a database (client side, done once).
    pub fn encrypt_database<R: Rng + ?Sized>(
        &self,
        enc: &Encryptor,
        data: &BitString,
        rng: &mut R,
    ) -> EncryptedDatabase {
        let cts = self
            .packing
            .pack(data)
            .iter()
            .map(|pt| enc.encrypt(pt, rng))
            .collect();
        EncryptedDatabase::from_ciphertexts(cts, data.len())
    }

    /// Prepares and encrypts all query variants (client side, per query):
    /// one plaintext buffer refilled per `(r, phase)`, one fresh
    /// ciphertext — fresh `u`, `e1`, `e2` — per variant.
    ///
    /// # Panics
    ///
    /// Panics if the query is empty.
    pub fn prepare_query<R: Rng + ?Sized>(
        &self,
        enc: &Encryptor,
        query: &BitString,
        rng: &mut R,
    ) -> EncryptedQuery {
        let n = self.ctx.params().n;
        let seg_bits = self.packing.seg_bits();
        let mut variants = Vec::with_capacity(variant_count(query.len(), seg_bits));
        let mut scratch = EncryptScratch::default();
        stream_variants(&alignment_classes(query, seg_bits), n, |r, phase, pt| {
            let mut ct = Ciphertext::zero(2, n);
            enc.encrypt_into(pt, rng, &mut scratch, &mut ct);
            variants.push(EncryptedVariant { r, phase, ct });
        });
        EncryptedQuery {
            variants,
            classes: alignment_geometry(query.len(), seg_bits),
            k: query.len(),
        }
    }

    /// Packs and encrypts a query for the served path (client side, per
    /// query): the negated segments of every alignment class once, in
    /// `⌈V/n⌉` fresh ciphertexts — one for any query up to about `n` bits
    /// — instead of [`Self::prepare_query`]'s `V`. See [`PackedQuery`] for
    /// why the server can derive the variants from it.
    ///
    /// # Panics
    ///
    /// Panics if the query is empty.
    pub fn pack_query<R: Rng + ?Sized>(
        &self,
        enc: &Encryptor,
        query: &BitString,
        rng: &mut R,
    ) -> PackedQuery {
        let seg_bits = self.packing.seg_bits();
        let classes = alignment_classes(query, seg_bits);
        let cts = pack_segments(&classes, self.ctx.params().n)
            .iter()
            .map(|pt| enc.encrypt(pt, rng))
            .collect();
        PackedQuery {
            cts,
            classes: alignment_geometry(query.len(), seg_bits),
            k: query.len(),
        }
    }

    /// Server-side secure search: one `Hom-Add` per (variant, polynomial).
    /// No multiplications, no rotations — the paper's core claim.
    ///
    /// The allocating one-shot convenience over [`Self::search_into`] for
    /// library callers and measurements; every serving path runs
    /// [`ShardScratch::run`], which keeps no sum at all.
    pub fn search(&self, db: &EncryptedDatabase, query: &EncryptedQuery) -> SearchResult {
        let mut out = SearchResult::default();
        self.search_into(db, query, &mut out);
        out
    }

    /// The CM-SW sweep into a caller-owned result that keeps every sum
    /// (for a key holder elsewhere to decrypt): the whole sweep for a
    /// variant writes into one flat coefficient arena via
    /// [`Evaluator::add_into`], so the vectorized slice kernels run over
    /// long contiguous spans, and when `out` comes
    /// from a previous search of the same shape its arenas are rewritten
    /// in place with **zero** heap allocations — a per-query
    /// multi-megabyte allocate/zero/fault/free cycle would otherwise
    /// rival the Hom-Add work itself. Returns the sweep's statistics:
    /// only `hom_adds` and `add_time` are ever non-zero, because CM-SW's
    /// server runs no other homomorphic operation — the paper's core
    /// claim.
    pub fn search_into(
        &self,
        db: &EncryptedDatabase,
        query: &EncryptedQuery,
        out: &mut SearchResult,
    ) -> MatchStats {
        let mut stats = MatchStats::default();
        let db_cts = db.ciphertexts();
        let db_size = db_cts.iter().map(Ciphertext::size).max().unwrap_or(0);
        out.per_variant
            .resize_with(query.variants.len(), || VariantSums {
                key: (0, 0),
                arena: Vec::new(),
                ct_size: 0,
                n: 0,
            });
        for (v, sums) in query.variants.iter().zip(&mut out.per_variant) {
            sums.key = (v.r, v.phase);
            sums.ct_size = db_size.max(v.ct.size());
            sums.n = self.ctx.params().n;
            sums.arena.resize(db_cts.len() * sums.ct_size * sums.n, 0);
            self.sweep_variant(db_cts, &v.ct, sums.ct_size, &mut sums.arena, &mut stats);
        }
        out.total_bits = db.total_bits;
        out.k = query.k;
        out.classes.clone_from(&query.classes);
        stats
    }

    /// The Hom-Adds of one query variant: `db_cts[j] + variant`, every
    /// component of it, into `arena[j * ct_size * n ..]` (`db_cts.len()`
    /// sums of `ct_size` components) — the sweep of a result whose every
    /// sum is kept for a key holder to decrypt ([`Self::search_into`]: the
    /// conservative flow, and the oracle the served job is held to). A
    /// served CM-SW job ([`ShardScratch::run`]) adds phases instead.
    fn sweep_variant(
        &self,
        db_cts: &[Ciphertext],
        variant: &Ciphertext,
        ct_size: usize,
        arena: &mut [u64],
        stats: &mut MatchStats,
    ) {
        let n = self.ctx.params().n;
        let stride = ct_size * n;
        let t0 = Instant::now();
        for (dbct, slot) in db_cts.iter().zip(arena.chunks_exact_mut(stride.max(1))) {
            let pair = dbct.size().max(variant.size()) * n;
            self.evaluator.add_into(dbct, variant, &mut slot[..pair]);
            // Padding components past the pair width must read as
            // zero even when the arena is being reused.
            slot[pair..].fill(0);
        }
        stats.add_time += t0.elapsed();
        stats.hom_adds += db_cts.len() as u64;
    }

    /// Index generation with a decryption capability (the paper's
    /// trusted-controller model, or the client after receiving results):
    /// decrypt every result ciphertext on its own, straight out of the
    /// flat arenas via [`Decryptor::decrypt_slices`] — one key
    /// multiplication per component past the first — into a
    /// [`MatchTable`], then scan the table once with [`generate_indices`].
    /// This is the explicit form's one decrypt path and the oracle the
    /// served jobs are tested against; do not optimize.
    pub fn generate_indices(&self, dec: &Decryptor, result: &SearchResult) -> Vec<usize> {
        let polys = result.per_variant.iter().map(|v| v.ciphertexts().len());
        let polys = polys.max().unwrap_or(0);
        let mut table = MatchTable::new();
        let (seg_bits, n) = (self.packing.seg_bits(), self.ctx.params().n);
        table.reset(&result.classes, seg_bits, polys, n);
        for v in &result.per_variant {
            for (j, ct) in v.ciphertexts().enumerate() {
                let parts: Vec<&[u64]> = ct.chunks_exact(v.n).collect();
                let sums = dec.decrypt_slices(&parts);
                table.store(v.key.0, v.key.1, j, sums.coeffs());
            }
        }
        generate_indices(&table, result.total_bits, result.k)
    }

    /// Convenience end-to-end search (encrypt query → search → index gen).
    pub fn find_all<R: Rng + ?Sized>(
        &self,
        enc: &Encryptor,
        dec: &Decryptor,
        db: &EncryptedDatabase,
        query: &BitString,
        rng: &mut R,
    ) -> Vec<usize> {
        let q = self.prepare_query(enc, query, rng);
        let result = self.search(db, &q);
        self.generate_indices(dec, &result)
    }
}

/// The trusted index-generation capability living next to the data
/// (the SSD controller in CM-IFP): an engine and a decryptor prepared
/// once when the key is provisioned, not per query; a hosted tenant's
/// matcher and its range jobs share one.
///
/// Index generation requires seeing whether result coefficients equal the
/// match polynomial, which randomized HE ciphertexts do not reveal. The
/// paper implicitly performs this inside the SSD controller; this type is
/// that trust model. The cryptographically conservative alternative —
/// every result ciphertext travels back and the key holder decrypts, the
/// communication-heavy behaviour the paper criticizes in \[27\] — is
/// [`CiphermatchEngine::search`] followed by
/// [`CiphermatchEngine::generate_indices`].
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

    /// The engine of the capability's parameter set (its ring is the one
    /// a served CM-SW job adds and tests in, see [`ShardScratch::run`],
    /// and it packs and encrypts for whoever holds the capability).
    pub fn engine(&self) -> &CiphermatchEngine {
        &self.engine
    }
}

/// Everything one served job works in, kept between jobs. Every job holds
/// the decryption *phases* of its range — `db_j.c0 + s·db_j.c1` per
/// polynomial, `P × n` 32-bit words — and of the packed query's segments,
/// `⌈V/n⌉ × n` words, and ends in the same scan: one pass over the
/// range's phases per alignment class, which tests every variant of the
/// class, across the polynomial seams too. A CM-SW job
/// ([`Self::run`]) takes the range's phases from its ciphertexts and
/// gathers no variant. A job whose sums are added in flash
/// ([`Self::run_with_adder`]) takes them from the first variant's sums,
/// and also holds one *variant* — a ciphertext-sized buffer the packed
/// query is gathered into, rewritten for every `(r, phase)` — one *tile*
/// of that variant's `P` two-component sums, checked where the adder left
/// them and overwritten by the next, and the first variant's `P`
/// differences the check holds them to. No job keeps a table of all
/// `V × P` results or a list of the `V` variants, so what a job retains
/// does not grow with `V`.
/// It is capacity, not state — every buffer is rewritten before it is
/// read, and the key products, phases and the scan's candidate window
/// starts are zeroed when a job ends, however it ends (a drop guard does
/// it, on return and on unwind) — so a scratch that served one parameter
/// set is safe for any other, and a parked one holds no part of a
/// decryption.
#[derive(Debug, Default)]
pub struct ShardScratch {
    /// The variant in hand of a job whose sums are added in flash,
    /// replicated from the packed query, both components.
    variant: Option<Ciphertext>,
    /// That variant's sums over the job's polynomials: `P × 2 × n` words,
    /// `c0` then `c1` per polynomial.
    tile: Vec<u64>,
    /// The packed query's segment phases `c0 + s·c1`, `⌈V/n⌉ × n` words
    /// in the flat segment layout of [`pack_segments`].
    psi: Vec<u64>,
    /// The range's phases `db_j.c0 + s·db_j.c1`, `P × n` words of 32 bits:
    /// every served `q` is at most `2³²`.
    phases: Vec<u32>,
    /// The window starts of the class in hand whose filter segment passed
    /// ([`scan_phases`]): which windows nearly match, so zeroed with the
    /// phases.
    candidates: Vec<usize>,
    /// One polynomial of working space: the key product of the polynomial
    /// in hand, or a sum the in-flash check rebuilds.
    line: Vec<u64>,
    /// The in-flash job's columns `sum[v₀][j] − v₀`, both halves, `c0`
    /// then `c1` per polynomial.
    columns: Vec<u64>,
    key_muls: u64,
}

/// Scratches parked between jobs, process-wide: at most one per
/// worker of [`crate::exec::compute_pool`], so retained
/// memory is bounded by cores, not by tenants, queries or
/// ranges.
static FREE_SCRATCHES: Mutex<Vec<ShardScratch>> = Mutex::new(Vec::new());

/// A job's hold on its scratch: when it drops — the job returned or
/// unwound — every key product, phase and candidate the job took is
/// zeroed.
struct Job<'a>(&'a mut ShardScratch);

impl Drop for Job<'_> {
    fn drop(&mut self) {
        let ShardScratch {
            psi,
            phases,
            candidates,
            line,
            ..
        } = &mut *self.0;
        psi.fill(0);
        line.fill(0);
        phases.fill(0);
        candidates.fill(0);
    }
}

/// `d = key + c0 mod q`, narrowed to 32 bits: a polynomial's decryption
/// phase from its `c0` and its key part (`key` is overwritten).
fn fold_phase(q: &cm_hemath::Modulus, key: &mut [u64], c0: &[u64], d: &mut [u32]) {
    kernels::add_assign_slices(q, key, c0);
    for (d, &phase) in d.iter_mut().zip(key.iter()) {
        *d = phase as u32;
    }
}

/// The phase scan every served job ends in: takes the packed query's
/// segment phases `Q.c0 + s·Q.c1` into `psi` (`⌈V/n⌉` key
/// multiplications, each a forward transform, a point-wise product
/// against the prepared key and an inverse transform: the query arrives
/// in coefficients), then tests every alignment class in one pass over
/// the range's phases `phases` ([`scan_phases`]). The phase of entry
/// `(v, j)` is `phases[j] + ψ` gathered as variant `v` is: a phase is
/// linear and coefficient-wise.
fn scan_range(
    index_gen: &TrustedIndexGenerator,
    query: &PackedQuery,
    total_bits: usize,
    scratch: &mut ShardScratch,
) -> Vec<usize> {
    let (ctx, dec) = (&index_gen.engine.ctx, &index_gen.dec);
    let (n, q) = (ctx.params().n, ctx.rq().modulus());
    let ShardScratch {
        psi,
        phases,
        candidates,
        key_muls,
        ..
    } = scratch;
    psi.resize(query.cts.len() * n, 0);
    for (ct, segs) in query.cts.iter().zip(psi.chunks_exact_mut(n)) {
        dec.key_product_into(ct.part(1).coeffs(), segs);
        kernels::add_assign_slices(q, segs, ct.part(0).coeffs());
    }
    *key_muls += query.cts.len() as u64;
    let shape = (total_bits, query.k);
    scan_phases(dec, ctx, &query.classes, (phases, psi), shape, candidates)
}

/// `dst[c] = src((c − phase) mod s)` for every coefficient `c`: window
/// segment `i` of a class replicated with period `s`, as
/// [`crate::query::build_variants`] lays a variant out — the first period
/// gathered, the rest doubled from it. `phase < s`.
fn replicate(dst: &mut [u64], s: usize, phase: usize, src: impl Fn(usize) -> u64) {
    let n = dst.len();
    let period = s.min(n);
    let mut i = (s - phase) % s;
    for d in &mut dst[..period] {
        *d = src(i);
        i = if i + 1 == s { 0 } else { i + 1 };
    }
    // `filled` stays a multiple of the period, so what is copied lands
    // one whole number of periods further on.
    let mut filled = period;
    while filled < n {
        let len = filled.min(n - filled);
        dst.copy_within(..len, filled);
        filled += len;
    }
}

impl ShardScratch {
    /// The way a CM-SW query executes on every serving path: index
    /// generation next to the data (paper §4.2.2), over `shard` (a whole
    /// database, or one polynomial-range shard of it), with the variants
    /// derived from the packed query where they are tested.
    ///
    /// The test reads decryption phases, and a phase is linear: entry
    /// `(v, j)`, variant `v` Hom-Added to polynomial `j`, has the phase
    /// `(db_j.c0 + s·db_j.c1) + (v.c0 + s·v.c1)`, and variant `v`'s
    /// coefficients are packed-query segments. So the job takes the key
    /// product of every polynomial of `shard` (`s·db_j.c1`) and of every
    /// packed-query ciphertext once — `⌈V/n⌉ + P` key
    /// multiplications ([`Self::key_muls`]) where the explicit form's
    /// `V × P` result ciphertexts take one each. `shard` is in the
    /// resident form, `db_j.c1` already in the evaluation domain, so each
    /// polynomial's phase costs a point-wise product against the
    /// prepared key and one inverse transform; only the
    /// query's `⌈V/n⌉` ciphertexts, which arrive in coefficients, are
    /// transformed forward as well. The job folds each `c0` into
    /// its product, and tests all variants of a class in one pass over
    /// the range's phases: the variants of class `r` read disjoint
    /// coefficients and add the same segment at their filter
    /// coefficients, and a window across a seam reads consecutive phases
    /// like any other. Each `(variant, polynomial)` still counts as
    /// one Hom-Add, and `add_time` times the fold. The returned statistics
    /// are this job's alone. Once the scratch has seen the shape, the
    /// index list is the only allocation.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext modulus exceeds `2³²`: the phases are held
    /// in 32-bit words.
    pub fn run(
        &mut self,
        shard: &ResidentDatabase,
        query: &PackedQuery,
        index_gen: &TrustedIndexGenerator,
    ) -> (Vec<usize>, MatchStats) {
        let (engine, dec) = (index_gen.engine(), &index_gen.dec);
        let rq = engine.ctx.rq();
        let (n, q) = (engine.ctx.params().n, rq.modulus());
        assert!(q.value() <= 1 << 32, "served phases are 32-bit words");
        let db_cts = shard.ciphertexts();
        let job = Job(self);
        let ShardScratch {
            phases,
            line,
            key_muls,
            ..
        } = &mut *job.0;
        *key_muls = db_cts.len() as u64;
        line.resize(n, 0);
        phases.resize(db_cts.len() * n, 0);
        let mut stats = MatchStats {
            hom_adds: (query.variant_count() * db_cts.len()) as u64,
            ..MatchStats::default()
        };
        for (ct, d) in db_cts.iter().zip(phases.chunks_exact_mut(n)) {
            dec.key_product_prepared_into(&ct.c1, line);
            let t0 = Instant::now();
            fold_phase(q, line, ct.c0.coeffs(), d);
            stats.add_time += t0.elapsed();
        }
        let indices = scan_range(index_gen, query, shard.total_bits, job.0);
        (indices, stats)
    }

    /// The served job for sums added where this process cannot see the
    /// database — the in-flash controller, whose `add` streams each
    /// variant through the device's `bop_add`s and writes the `polys`
    /// two-component sums into the tile, `c0` then `c1` per polynomial.
    ///
    /// Per variant `(r, p)` the job gathers both components out of the
    /// packed query — coefficient `c` takes flat segment
    /// `base_r + (c − p) mod s_r` — and hands them to `add`, so the device
    /// runs every one of the `V × P` Hom-Adds. The first variant's sums
    /// give the columns `sum[v₀][j] − v₀`, which are the stored database
    /// polynomials exactly because the adder works mod `q` (for `q = 2³²`,
    /// wrapping 32-bit addition *is* that), and from them the range's
    /// phases `(sum.c0 − v₀.c0) + s·(sum.c1 − v₀.c1)`: `P` key
    /// multiplications, `⌈V/n⌉ + P` with the query's, as for CM-SW. Every
    /// later sum is checked on both halves against them:
    /// `sum[v][j] = v + (sum[v₀][j] − v₀)`. The job wrote each variant
    /// itself, so that proves two things: the adder added one and the
    /// same column to every variant, and what it added to variant `v` is
    /// exactly `v`. It does not prove the column is the stored database
    /// polynomial: a corrupted stored coefficient is corrupted the same
    /// way under every variant, as a corrupted word of a CM-SW range
    /// would be in DRAM. Then the range is scanned as a CM-SW job scans
    /// its own, by the same code, so the answer is a function of checked
    /// sums only, and the same as [`Self::run`]'s on the same range.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::Internal`] when a sum fails the check —
    /// never an index list computed from it.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext modulus exceeds `2³²`, as [`Self::run`].
    pub fn run_with_adder(
        &mut self,
        query: &PackedQuery,
        index_gen: &TrustedIndexGenerator,
        polys: usize,
        total_bits: usize,
        mut add: impl FnMut(&Ciphertext, &mut [u64]),
    ) -> Result<Vec<usize>, MatchError> {
        let (engine, dec) = (index_gen.engine(), &index_gen.dec);
        let (n, q) = (engine.ctx.params().n, engine.ctx.rq().modulus());
        assert!(q.value() <= 1 << 32, "served phases are 32-bit words");
        let job = Job(self);
        let ShardScratch {
            variant,
            tile,
            phases,
            line,
            columns,
            key_muls,
            ..
        } = &mut *job.0;
        *key_muls = 0;
        line.resize(n, 0);
        columns.resize(polys * 2 * n, 0);
        tile.resize(polys * 2 * n, 0);
        phases.resize(polys * n, 0);
        let variant = match variant {
            Some(v) if v.part(0).len() == n => v,
            stale => stale.insert(Ciphertext::zero(2, n)),
        };

        // First flat segment index of the class in hand.
        let mut base = 0;
        let mut first = true;
        for class in &query.classes {
            let s = class.window_segs;
            for phase in 0..s {
                for (part, poly) in variant.parts_mut().iter_mut().enumerate() {
                    let segment = |i| query.flat(part, base + i, n);
                    replicate(poly.coeffs_mut(), s, phase, segment);
                }
                add(variant, tile);
                // Tile and columns alike alternate `c0` and `c1` halves.
                let halves = tile.chunks_exact(n).zip(columns.chunks_exact_mut(n));
                for (h, (sum, column)) in halves.enumerate() {
                    let v = variant.part(h % 2).coeffs();
                    if first {
                        kernels::sub_slices(q, sum, v, column);
                        continue;
                    }
                    kernels::add_slices(q, v, column, line);
                    if line[..] != *sum {
                        return Err(MatchError::Internal(
                            "a sum is not its variant plus the column every other variant got",
                        ));
                    }
                }
                if first {
                    for (column, d) in columns.chunks_exact(2 * n).zip(phases.chunks_exact_mut(n)) {
                        dec.key_product_into(&column[n..], line);
                        fold_phase(q, line, &column[..n], d);
                    }
                    *key_muls += polys as u64;
                    first = false;
                }
            }
            base += s;
        }
        Ok(scan_range(index_gen, query, total_bits, job.0))
    }

    /// [`Self::run`] on a scratch from the process-wide free list (or a
    /// fresh one when none is parked), checked back in afterwards unless
    /// the list is full. A job that panics drops its scratch instead.
    pub fn run_pooled(
        shard: &ResidentDatabase,
        query: &PackedQuery,
        index_gen: &TrustedIndexGenerator,
    ) -> (Vec<usize>, MatchStats) {
        // A poisoned list (a panic inside a one-line critical section,
        // which neither can cause) only costs reuse.
        let parked = FREE_SCRATCHES.lock().ok().and_then(|mut free| free.pop());
        let mut scratch = parked.unwrap_or_default();
        let out = scratch.run(shard, query, index_gen);
        if let Ok(mut free) = FREE_SCRATCHES.lock() {
            if free.len() < crate::exec::compute_workers() {
                free.push(scratch);
            }
        }
        out
    }

    /// Scratches currently parked in the process-wide free list.
    pub fn parked() -> usize {
        FREE_SCRATCHES.lock().map_or(0, |free| free.len())
    }

    /// Secret-key multiplications the last job took: `⌈V/n⌉ + P`, one per
    /// query ciphertext and one per database polynomial.
    pub fn key_muls(&self) -> u64 {
        self.key_muls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_bfv::{BfvParams, KeyGenerator};
    use cm_hemath::Poly;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        ctx: BfvContext,
    }

    impl Fixture {
        fn new() -> Self {
            Self {
                ctx: BfvContext::new(BfvParams::insecure_test_add()),
            }
        }
    }

    fn run_search(db_bits: &BitString, query_bits: &BitString) -> (Vec<usize>, MatchStats) {
        let f = Fixture::new();
        let mut rng = StdRng::seed_from_u64(777);
        let (sk, pk) = {
            let kg = KeyGenerator::new(&f.ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&f.ctx, pk);
        let dec = Decryptor::new(&f.ctx, sk);
        let engine = CiphermatchEngine::new(&f.ctx);
        let db = engine.encrypt_database(&enc, db_bits, &mut rng);
        let query = engine.prepare_query(&enc, query_bits, &mut rng);
        let mut result = SearchResult::default();
        let stats = engine.search_into(&db, &query, &mut result);
        (engine.generate_indices(&dec, &result), stats)
    }

    #[test]
    fn finds_aligned_and_unaligned_matches() {
        let db = BitString::from_ascii("encrypted search over packed data");
        for (start, len) in [(0usize, 16usize), (9 * 8, 24), (3, 13), (21, 40)] {
            let q = db.slice(start, len);
            let (got, _) = run_search(&db, &q);
            assert_eq!(got, db.find_all(&q), "slice ({start}, {len})");
        }
    }

    #[test]
    fn reports_absence_without_false_positives() {
        let db = BitString::from_ascii("aaaaaaaaaaaaaaaa");
        let q = BitString::from_ascii("ab");
        let (got, _) = run_search(&db, &q);
        assert!(got.is_empty());
    }

    #[test]
    fn uses_only_additions() {
        let db = BitString::from_ascii("some database content here");
        let q = BitString::from_ascii("base");
        let (_, stats) = run_search(&db, &q);
        assert!(stats.hom_adds > 0);
        // The engine exposes no multiply path at all; the stat proves the
        // server loop ran adds exactly once per (variant, polynomial).
    }

    /// The scalar-reference search sweep: the pre-vectorization baseline
    /// kept as the oracle of `reference_sweep_equals_vectorized_sweep`.
    /// One fresh heap allocation per (variant, polynomial, component) and
    /// one branchy [`cm_hemath::Modulus`] reduction per coefficient —
    /// deliberately boring; do not optimize.
    fn search_reference(
        engine: &CiphermatchEngine,
        db: &EncryptedDatabase,
        query: &EncryptedQuery,
    ) -> SearchResult {
        let n = engine.ctx.params().n;
        let modulus = *engine.ctx.rq().modulus();
        let zero = vec![0u64; n];
        let per_variant = query
            .variants
            .iter()
            .map(|v| {
                let results: Vec<Ciphertext> = db
                    .ciphertexts()
                    .iter()
                    .map(|dbct| {
                        let size = dbct.size().max(v.ct.size());
                        let parts: Vec<Poly> = (0..size)
                            .map(|p| {
                                let a = dbct.parts().get(p).map_or(&zero[..], |x| x.coeffs());
                                let b = v.ct.parts().get(p).map_or(&zero[..], |x| x.coeffs());
                                let mut out = vec![0u64; n];
                                kernels::scalar_ref::add_slices(&modulus, a, b, &mut out);
                                Poly::from_coeffs(out)
                            })
                            .collect();
                        Ciphertext::from_parts(parts)
                    })
                    .collect();
                VariantSums::from_cts((v.r, v.phase), &results)
            })
            .collect();
        SearchResult {
            per_variant,
            total_bits: db.total_bits,
            k: query.k,
            classes: query.classes.clone(),
        }
    }

    #[test]
    fn reference_sweep_equals_vectorized_sweep() {
        let f = Fixture::new();
        let mut rng = StdRng::seed_from_u64(777);
        let pk = {
            let kg = KeyGenerator::new(&f.ctx, &mut rng);
            kg.public_key(&mut rng)
        };
        let enc = Encryptor::new(&f.ctx, pk);
        let engine = CiphermatchEngine::new(&f.ctx);
        let data = BitString::from_ascii("scalar baseline must agree with the fast path");
        let db = engine.encrypt_database(&enc, &data, &mut rng);
        let query = engine.prepare_query(&enc, &BitString::from_ascii("fast"), &mut rng);
        let fast = engine.search(&db, &query);
        let slow = search_reference(&engine, &db, &query);
        assert_eq!(fast, slow);
    }

    #[test]
    fn search_into_reuses_buffers_correctly() {
        let f = Fixture::new();
        let mut rng = StdRng::seed_from_u64(555);
        let (sk, pk) = {
            let kg = KeyGenerator::new(&f.ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&f.ctx, pk);
        let dec = Decryptor::new(&f.ctx, sk);
        let engine = CiphermatchEngine::new(&f.ctx);
        let data = BitString::from_ascii("reused arenas must not leak stale coefficients");
        let db = engine.encrypt_database(&enc, &data, &mut rng);
        let q1 = engine.prepare_query(&enc, &BitString::from_ascii("stale"), &mut rng);
        let q2 = engine.prepare_query(&enc, &BitString::from_ascii("arenas"), &mut rng);
        // Fill the buffer with q1's result, then rewrite it with q2's:
        // the reused buffer must be indistinguishable from a fresh one.
        let mut reused = engine.search(&db, &q1);
        engine.search_into(&db, &q2, &mut reused);
        assert_eq!(reused, engine.search(&db, &q2));
        assert_eq!(
            engine.generate_indices(&dec, &reused),
            data.find_all(&BitString::from_ascii("arenas"))
        );
    }

    #[test]
    fn served_job_retains_one_phase_plane_whatever_the_variant_count() {
        let ctx = BfvContext::new(BfvParams::ciphermatch_1024());
        let mut rng = StdRng::seed_from_u64(0x711E);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let index_gen = TrustedIndexGenerator::from_secret(&ctx, kg.secret_key());
        let engine = CiphermatchEngine::new(&ctx);
        let (n, bpp) = (ctx.params().n, engine.packing().bits_per_poly());
        let bits: Vec<bool> = (0..2 * bpp + 100).map(|_| rng.gen()).collect();
        let data = BitString::from_bits(&bits);
        let db = engine.encrypt_database(&enc, &data, &mut rng);
        let polys = db.poly_count();
        assert_eq!(polys, 3);

        let mut scratch = ShardScratch::default();
        let retained = |scratch: &ShardScratch, cts: usize, k: usize| {
            // P × n 32-bit phases, ⌈V/n⌉ × n query phases and one line:
            // nothing the job keeps grows with V.
            assert_eq!(scratch.phases.len(), polys * n, "k={k}");
            assert_eq!(
                scratch.psi.len(),
                cts * n,
                "k={k}: a row of query phases per ciphertext"
            );
            assert_eq!(scratch.line.len(), n, "k={k}");
            // No variant gathered, no tile and no in-flash columns.
            assert!(
                scratch.variant.is_none() && scratch.tile.is_empty(),
                "k={k}"
            );
            assert!(scratch.columns.is_empty(), "k={k}");
            // ⌈V/n⌉ + P, where the explicit form's table takes V × P.
            assert_eq!(scratch.key_muls(), (cts + polys) as u64, "k={k}");
        };
        for (k, variants) in [(32usize, 47usize), (200, 16 * 13 + 7)] {
            let pattern = data.slice(bpp - 5, k);
            let query = engine.pack_query(&enc, &pattern, &mut rng);
            assert_eq!(query.variant_count(), variants);
            assert_eq!(query.ciphertext_count(), 1, "V <= n: one ciphertext");
            let (indices, stats) =
                scratch.run(&db.clone().into_resident(&engine.ctx), &query, &index_gen);
            assert_eq!(indices, data.find_all(&pattern));
            assert_eq!(stats.hom_adds, (variants * polys) as u64);
            retained(&scratch, 1, k);
        }

        // V past n: a second ciphertext, a second row of query phases.
        let k = 16 * 64 + 1;
        let pattern = data.slice(bpp - 5, k);
        let query = engine.pack_query(&enc, &pattern, &mut rng);
        assert_eq!((query.variant_count(), query.ciphertext_count()), (1040, 2));
        let (indices, stats) =
            scratch.run(&db.clone().into_resident(&engine.ctx), &query, &index_gen);
        assert_eq!(indices, data.find_all(&pattern));
        assert_eq!(stats.hom_adds, (1040 * polys) as u64);
        retained(&scratch, 2, k);
    }

    #[test]
    fn served_job_gathers_no_variant() {
        let (enc, index_gen, db, data, mut rng) =
            served_fixture(BfvParams::insecure_test_pow2(), 0xC0C0);
        let engine = index_gen.engine();
        let (n, polys) = (engine.ctx.params().n, db.poly_count());
        let pattern = data.slice(300, 29);
        let query = engine.pack_query(&enc, &pattern, &mut rng);
        let mut scratch = ShardScratch::default();

        // A CM-SW job: the range's phases and the query's, folded once;
        // every entry still counts as one Hom-Add, and the fold is timed.
        let (indices, stats) =
            scratch.run(&db.clone().into_resident(&engine.ctx), &query, &index_gen);
        assert_eq!(indices, data.find_all(&pattern));
        assert_eq!(stats.hom_adds, (query.variant_count() * polys) as u64);
        assert!(stats.add_time > std::time::Duration::ZERO);
        assert_eq!(scratch.phases.len(), polys * n);
        assert!(scratch.variant.is_none() && scratch.tile.is_empty());

        // Sums added elsewhere on the same scratch gather both halves of
        // every variant into a tile of two-component sums, and then scan
        // the range's phases as the CM-SW job does.
        let got = scratch.run_with_adder(&query, &index_gen, polys, data.len(), |v, tile| {
            engine.sweep_variant(db.ciphertexts(), v, 2, tile, &mut MatchStats::default());
        });
        assert_eq!(got, Ok(indices.clone()));
        assert_eq!(scratch.tile.len(), 2 * polys * n);
        let variant = scratch.variant.as_ref().expect("one variant buffer");
        assert!(variant
            .parts()
            .iter()
            .all(|p| p.coeffs().iter().any(|&c| c != 0)));
        assert_eq!(scratch.phases.len(), polys * n);
        // And a CM-SW job after it reads none of what that left.
        assert_eq!(
            scratch
                .run(&db.clone().into_resident(&engine.ctx), &query, &index_gen)
                .0,
            indices
        );
    }

    #[test]
    fn multi_polynomial_database() {
        // n = 256 coefficients x 8 bits = 2048 bits per polynomial; use a
        // database bigger than that so windows cross ciphertext borders.
        let bytes: Vec<u8> = (0..400u32).map(|i| (i * 31 % 253) as u8).collect();
        let db = BitString::from_bytes(&bytes);
        let q = db.slice(2040, 24); // straddles the polynomial boundary
        let (got, _) = run_search(&db, &q);
        assert_eq!(got, db.find_all(&q));
    }

    #[test]
    fn database_serialization_roundtrips_and_searches() {
        let f = Fixture::new();
        let mut rng = StdRng::seed_from_u64(999);
        let (sk, pk) = {
            let kg = KeyGenerator::new(&f.ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&f.ctx, pk);
        let dec = Decryptor::new(&f.ctx, sk);
        let engine = CiphermatchEngine::new(&f.ctx);
        let data = BitString::from_ascii("persist the encrypted database to disk and back");
        let db = engine.encrypt_database(&enc, &data, &mut rng);
        let q_bits = f.ctx.params().coeff_bits();
        let bytes = db.encode(q_bits);
        let restored = EncryptedDatabase::decode(&bytes).expect("roundtrip");
        assert_eq!(restored.total_bits(), db.total_bits());
        assert_eq!(restored.ciphertexts(), db.ciphertexts());
        // And the restored database searches identically.
        let pattern = BitString::from_ascii("disk");
        let got = engine.find_all(&enc, &dec, &restored, &pattern, &mut rng);
        assert_eq!(got, data.find_all(&pattern));
        // Malformed input errors instead of panicking.
        assert!(EncryptedDatabase::decode(&bytes[..bytes.len() - 3]).is_err());
        assert!(EncryptedDatabase::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn nothing_outside_the_ciphertexts_depends_on_the_pattern() {
        let f = Fixture::new();
        let mut rng = StdRng::seed_from_u64(8181);
        let pk = KeyGenerator::new(&f.ctx, &mut rng).public_key(&mut rng);
        let enc = Encryptor::new(&f.ctx, pk);
        let engine = CiphermatchEngine::new(&f.ctx);
        let q_bits = f.ctx.params().coeff_bits();
        let seg_bits = engine.packing().seg_bits();
        // The wire form: header, then per ciphertext a length prefix and
        // the 12-byte ciphertext header — 16 bytes each before the body.
        let (n, q) = (f.ctx.params().n, f.ctx.params().q);
        for k in [1usize, 7, 8, 9, 29, 64, 300] {
            let mut clear: Vec<Vec<u8>> = Vec::new();
            for _ in 0..4 {
                let bits: Vec<bool> = (0..k).map(|_| rng.gen()).collect();
                let query = engine.pack_query(&enc, &BitString::from_bits(&bits), &mut rng);
                let bytes = query.encode(q_bits);
                let restored = PackedQuery::decode(&bytes, n, seg_bits, q).unwrap();
                assert_eq!(restored.classes, alignment_geometry(k, seg_bits));
                assert_eq!(restored.cts, query.cts);
                let count = variant_count(k, seg_bits).div_ceil(n);
                let body = query.byte_size(q_bits) / count;
                assert_eq!(bytes.len(), 16 + count * (16 + body), "k={k}");
                let mut kept = bytes[..16].to_vec();
                for i in 0..count {
                    let at = 16 + i * (16 + body);
                    kept.extend_from_slice(&bytes[at..at + 16]);
                }
                clear.push(kept);
                assert_eq!(clear[0], clear[clear.len() - 1], "k={k}");
            }
        }
    }

    #[test]
    fn retired_and_lying_query_headers_are_refused() {
        use cm_bfv::DecodeError;
        let f = Fixture::new();
        let mut rng = StdRng::seed_from_u64(8282);
        let pk = KeyGenerator::new(&f.ctx, &mut rng).public_key(&mut rng);
        let enc = Encryptor::new(&f.ctx, pk);
        let engine = CiphermatchEngine::new(&f.ctx);
        let q_bits = f.ctx.params().coeff_bits();
        let seg_bits = engine.packing().seg_bits();
        let pattern = BitString::from_ascii("ab");
        // The wire form (CMQ3), held to the parameter set as it decodes.
        let (n, q) = (f.ctx.params().n, f.ctx.params().q);
        let decode = |bytes: &[u8]| PackedQuery::decode(bytes, n, seg_bits, q);
        let header = |bytes: &[u8]| matches!(decode(bytes), Err(DecodeError::BadHeader(_)));
        let packed = engine.pack_query(&enc, &pattern, &mut rng).encode(q_bits);
        assert_eq!(decode(&packed).unwrap().k(), pattern.len());
        // The format that carried the negated pattern in the clear, and
        // the explicit form's, are refused by their magic alone.
        for magic in [b"CMQ1", b"CMQ2"] {
            let mut retired = packed.clone();
            retired[..4].copy_from_slice(magic);
            assert_eq!(decode(&retired).unwrap_err(), DecodeError::BadMagic);
        }
        // One ciphertext holds up to n segments: a length past that, one
        // whose segments would need a second ciphertext, and lengths
        // whose geometry would be astronomically large are all refused
        // before any geometry is built.
        let fits = (1..)
            .take_while(|&k| variant_count(k, seg_bits) <= n)
            .count();
        for k in [0, n + 1, fits + 1, 1 << 40, u64::MAX as usize] {
            let mut lying = packed.clone();
            lying[4..12].copy_from_slice(&(k as u64).to_le_bytes());
            assert!(header(&lying), "k={k}");
        }
        // Any length that does fit one ciphertext decodes: the bodies say
        // nothing about `k`.
        let mut other = packed.clone();
        other[4..12].copy_from_slice(&(fits as u64).to_le_bytes());
        assert_eq!(decode(&other).unwrap().k(), fits);
        // No ciphertexts, more than the query needs, more than the buffer
        // holds.
        for count in [0, 2, u32::MAX] {
            let mut lying = packed.clone();
            lying[12..16].copy_from_slice(&count.to_le_bytes());
            assert!(header(&lying), "count={count}");
        }
        // Nine ciphertexts, well-formed, behind a length that asks for one.
        let long = engine
            .pack_query(&enc, &BitString::from_bits(&vec![true; 8 * n]), &mut rng)
            .encode(q_bits);
        assert_eq!(decode(&long).unwrap().ciphertext_count(), 9);
        let mut lying = long.clone();
        lying[4..12].copy_from_slice(&(pattern.len() as u64).to_le_bytes());
        assert!(header(&lying));
        let mut trailing = packed.clone();
        trailing.push(0);
        assert!(header(&trailing));
        // Another ring degree, segment width or modulus than the sender's.
        assert!(PackedQuery::decode(&packed, n * 2, seg_bits, q).is_err());
        assert!(PackedQuery::decode(&packed, n / 2, seg_bits, q).is_err());
        assert!(PackedQuery::decode(&packed, n, 0, q).is_err());
        assert!(PackedQuery::decode(&packed, n, 64, q).is_err());
        assert_eq!(
            PackedQuery::decode(&packed, n, seg_bits, 2).unwrap_err(),
            DecodeError::CoefficientOverflow
        );
        // A three-component ciphertext is not a fresh query.
        let wide = {
            let mut ct = Ciphertext::zero(3, n);
            ct.parts_mut()[0] = Poly::from_coeffs(vec![1; n]);
            let mut out = packed[..16].to_vec();
            put_ciphertext(&mut out, &ct, q_bits);
            out
        };
        assert!(header(&wide));
    }

    #[test]
    fn streamed_preparation_encrypts_the_listed_variants() {
        // Decrypting what `prepare_query` streams gives back, plaintext
        // for plaintext, the variant list of the reference construction.
        let f = Fixture::new();
        let mut rng = StdRng::seed_from_u64(8383);
        let (sk, pk) = {
            let kg = KeyGenerator::new(&f.ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&f.ctx, pk);
        let dec = Decryptor::new(&f.ctx, sk);
        let engine = CiphermatchEngine::new(&f.ctx);
        let (n, seg_bits) = (f.ctx.params().n, engine.packing().seg_bits());
        for k in [1usize, 15, 16, 17, 32, 257] {
            let bits: Vec<bool> = (0..k).map(|_| rng.gen()).collect();
            let pattern = BitString::from_bits(&bits);
            let query = engine.prepare_query(&enc, &pattern, &mut rng);
            let listed = crate::query::build_variants(&alignment_classes(&pattern, seg_bits), n);
            assert_eq!(query.variant_count(), listed.len(), "k={k}");
            for (want, (r, phase, ct)) in listed.iter().zip(query.variant_cts()) {
                assert_eq!((want.r, want.phase), (r, phase), "k={k}");
                assert_eq!(dec.decrypt(ct), want.plaintext, "k={k} r={r} phase={phase}");
            }
        }
    }

    /// Keys, a three-polynomial database of random bits, and its
    /// plaintext, under `params`.
    fn served_fixture(
        params: BfvParams,
        seed: u64,
    ) -> (
        Encryptor,
        TrustedIndexGenerator,
        EncryptedDatabase,
        BitString,
        StdRng,
    ) {
        let ctx = BfvContext::new(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let index_gen = TrustedIndexGenerator::from_secret(&ctx, kg.secret_key());
        let bpp = index_gen.engine().packing().bits_per_poly();
        let bits: Vec<bool> = (0..2 * bpp + 77).map(|_| rng.gen()).collect();
        let data = BitString::from_bits(&bits);
        let db = index_gen.engine().encrypt_database(&enc, &data, &mut rng);
        assert_eq!(db.poly_count(), 3);
        (enc, index_gen, db, data, rng)
    }

    #[test]
    fn sums_added_elsewhere_answer_like_the_served_job() {
        // The sweep as the adder: what a device that adds faithfully
        // writes into the tile.
        for params in [
            BfvParams::insecure_test_pow2(),
            BfvParams::ciphermatch_1024(),
        ] {
            let (enc, index_gen, db, data, mut rng) = served_fixture(params, 0xADD5);
            let engine = index_gen.engine();
            let (n, bpp) = (engine.ctx.params().n, engine.packing().bits_per_poly());
            let polys = db.poly_count();
            let mut scratch = ShardScratch::default();
            for (start, k) in [(bpp - 13, 29), (0, 1), (2 * bpp - 3, 40)] {
                let pattern = data.slice(start, k);
                let query = engine.pack_query(&enc, &pattern, &mut rng);
                let mut adds = 0;
                let got =
                    scratch.run_with_adder(&query, &index_gen, polys, data.len(), |v, tile| {
                        engine.sweep_variant(
                            db.ciphertexts(),
                            v,
                            2,
                            tile,
                            &mut MatchStats::default(),
                        );
                        adds += 1;
                    });
                assert_eq!(got, Ok(data.find_all(&pattern)), "k={k}");
                assert_eq!(adds, query.variant_count());
                // The first variant's sums give the columns, both halves:
                // ⌈V/n⌉ + P.
                assert_eq!(scratch.key_muls(), (1 + polys) as u64);
                assert_eq!(scratch.columns.len(), 2 * polys * n);
                assert_eq!(
                    scratch
                        .run(&db.clone().into_resident(&engine.ctx), &query, &index_gen)
                        .0,
                    got.unwrap()
                );
            }
        }
    }

    #[test]
    fn a_sum_the_controller_did_not_send_is_a_typed_error() {
        let (enc, index_gen, db, data, mut rng) =
            served_fixture(BfvParams::insecure_test_pow2(), 0xF11B);
        let engine = index_gen.engine();
        let (n, polys) = (engine.ctx.params().n, db.poly_count());
        let pattern = data.slice(100, 29);
        let query = engine.pack_query(&enc, &pattern, &mut rng);
        let variants = query.variant_count();
        let mut scratch = ShardScratch::default();
        // `bad` flips one tile word of one variant's sums.
        let mut run = |db_cts: &[Ciphertext], bad: Option<(usize, usize)>| {
            let mut call = 0;
            scratch.run_with_adder(&query, &index_gen, polys, data.len(), |v, tile| {
                engine.sweep_variant(db_cts, v, 2, tile, &mut MatchStats::default());
                if let Some((_, word)) = bad.filter(|&(variant, _)| variant == call) {
                    tile[word] ^= 1;
                }
                call += 1;
            })
        };
        // One word of sum 1, in its `c0` half and in its `c1` half, of one
        // variant: the first (which fixes the columns), one in the
        // middle, the last.
        for word in [2 * n + 7, 2 * n + n + 7] {
            for variant in [0, variants / 2, variants - 1] {
                assert!(
                    matches!(
                        run(db.ciphertexts(), Some((variant, word))),
                        Err(MatchError::Internal(_))
                    ),
                    "variant {variant}, word {word}"
                );
            }
        }
        assert_eq!(run(db.ciphertexts(), None), Ok(data.find_all(&pattern)));
        // A corrupted *stored* coefficient, in either half, reads the same
        // under every variant: the check cannot see it, as it cannot see
        // DRAM's.
        for part in [0, 1] {
            let mut stored = db.ciphertexts().to_vec();
            stored[1].parts_mut()[part].coeffs_mut()[7] ^= 1;
            assert!(run(&stored, None).is_ok(), "part {part}");
        }
    }

    /// Whether every key product, phase and candidate window start a job
    /// can leave in `scratch` is zero.
    fn cleared(scratch: &ShardScratch) -> bool {
        let products = [&scratch.line, &scratch.psi];
        products.iter().all(|words| words.iter().all(|&w| w == 0))
            && scratch.phases.iter().all(|&w| w == 0)
            && scratch.candidates.iter().all(|&w| w == 0)
    }

    #[test]
    fn a_finished_job_leaves_no_key_product_behind() {
        let (enc, index_gen, db, data, mut rng) =
            served_fixture(BfvParams::insecure_test_pow2(), 0x2E40);
        let engine = index_gen.engine();
        let (n, polys) = (engine.ctx.params().n, db.poly_count());
        // A match in the last alignment class scanned (offset ≡ 7 mod 8):
        // the job ends holding at least that window start as a candidate.
        let pattern = data.slice(199, 29);
        let query = engine.pack_query(&enc, &pattern, &mut rng);
        let mut scratch = ShardScratch::default();

        let (indices, _) = scratch.run(&db.clone().into_resident(&engine.ctx), &query, &index_gen);
        assert_eq!(indices, data.find_all(&pattern));
        assert_eq!(
            scratch.phases.len(),
            polys * n,
            "the range's phases were taken"
        );
        assert!(!scratch.psi.is_empty() && !scratch.line.is_empty());
        assert!(
            !scratch.candidates.is_empty(),
            "the last class had candidates"
        );
        assert!(cleared(&scratch), "CM-SW job");

        // Sums added elsewhere: a faithful adder, then one that corrupts
        // the second variant's sums after the columns were taken.
        for bad in [None, Some(1)] {
            let mut call = 0;
            let got = scratch.run_with_adder(&query, &index_gen, polys, data.len(), |v, tile| {
                engine.sweep_variant(db.ciphertexts(), v, 2, tile, &mut MatchStats::default());
                if Some(call) == bad {
                    tile[n + 7] ^= 1;
                }
                call += 1;
            });
            match bad {
                None => assert_eq!(got, Ok(indices.clone())),
                Some(_) => assert!(matches!(got, Err(MatchError::Internal(_)))),
            }
            // The range's phases were taken.
            assert_eq!(scratch.phases.len(), polys * n, "{bad:?}");
            assert!(cleared(&scratch), "in-flash job, corrupted variant {bad:?}");
        }
    }

    #[test]
    fn an_unwound_job_leaves_no_key_product_behind() {
        // An adder that panics on its second call: the range's phases are
        // taken by then, and the job unwinds past its own return.
        let (enc, index_gen, db, data, mut rng) =
            served_fixture(BfvParams::insecure_test_pow2(), 0x0D1E);
        let engine = index_gen.engine();
        let (n, polys) = (engine.ctx.params().n, db.poly_count());
        let query = engine.pack_query(&enc, &data.slice(120, 29), &mut rng);
        let mut scratch = ShardScratch::default();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut call = 0;
            scratch.run_with_adder(&query, &index_gen, polys, data.len(), |v, tile| {
                assert!(call < 1, "the device failed mid-command");
                engine.sweep_variant(db.ciphertexts(), v, 2, tile, &mut MatchStats::default());
                call += 1;
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(
            scratch.phases.len(),
            polys * n,
            "the range's phases were taken"
        );
        assert!(cleared(&scratch));
    }

    #[test]
    fn subrange_extracts_searchable_shards() {
        // A database spanning several polynomials, split at polynomial
        // granularity: each shard must be independently searchable. How
        // long a view is comes from the plan (`shard.rs`'s tests).
        let f = Fixture::new();
        let mut rng = StdRng::seed_from_u64(5353);
        let (sk, pk) = {
            let kg = KeyGenerator::new(&f.ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&f.ctx, pk);
        let dec = Decryptor::new(&f.ctx, sk);
        let engine = CiphermatchEngine::new(&f.ctx);
        let bpp = engine.packing().bits_per_poly();
        let bytes: Vec<u8> = (0..(bpp / 8) * 2 + 100)
            .map(|i| (i * 37 % 251) as u8)
            .collect();
        let data = BitString::from_bytes(&bytes);
        let db = engine.encrypt_database(&enc, &data, &mut rng);
        assert!(db.poly_count() >= 3);

        let shard = db.subrange(1..2, bpp);
        assert_eq!(shard.poly_count(), 1);
        assert_eq!(shard.total_bits(), bpp);

        // Searching the shard finds exactly the shard-local occurrences.
        let pattern = data.slice(bpp + 40, 24);
        let query = engine.prepare_query(&enc, &pattern, &mut rng);
        let result = engine.search(&shard, &query);
        let local = engine.generate_indices(&dec, &result);
        let shard_bits = data.slice(bpp, bpp);
        assert_eq!(local, shard_bits.find_all(&pattern));
        assert!(local.contains(&40));
    }

    #[test]
    fn encoded_len_matches_encode_and_validate_pins_geometry() {
        let f = Fixture::new();
        let mut rng = StdRng::seed_from_u64(6464);
        let (_, pk) = {
            let kg = KeyGenerator::new(&f.ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&f.ctx, pk);
        let engine = CiphermatchEngine::new(&f.ctx);
        let q_bits = f.ctx.params().coeff_bits();
        let n = f.ctx.params().n;
        let q = f.ctx.params().q;
        let bpp = engine.packing().bits_per_poly();

        // Single- and multi-polynomial databases: encoded_len is exact.
        for len in [40usize, bpp, bpp + 1, bpp * 2 + 100] {
            let data = BitString::from_bits(&vec![true; len]);
            let db = engine.encrypt_database(&enc, &data, &mut rng);
            assert_eq!(
                db.encode(q_bits).len(),
                db.encoded_len(q_bits),
                "{len} bits"
            );
            let restored = EncryptedDatabase::decode(&db.encode(q_bits)).unwrap();
            restored.validate(n, q, bpp).expect("well-formed");
            // The wrong geometry is rejected before the engine sees it.
            assert!(restored.validate(n * 2, q, bpp).is_err());
            assert!(restored.validate(n, 2, bpp).is_err());
            if restored.poly_count() > 1 {
                // Only a multi-polynomial database pins the packing
                // density (one polynomial holds any count up to bpp).
                assert!(restored.validate(n, q, bpp * 2).is_err());
            }
        }

        // A lying bit count (more bits than the ciphertexts can hold, or
        // few enough that the last polynomial would be empty) fails.
        let data = BitString::from_bits(&vec![false; bpp + 9]);
        let db = engine.encrypt_database(&enc, &data, &mut rng);
        let mut lying = db.clone();
        lying.total_bits = bpp * 3;
        assert!(lying.validate(n, q, bpp).is_err());
        lying.total_bits = bpp;
        assert!(lying.validate(n, q, bpp).is_err());

        // The empty database is representable (the packer pads to one
        // polynomial).
        let empty = engine.encrypt_database(&enc, &BitString::new(), &mut rng);
        assert!(empty.poly_count() <= 1);
        empty.validate(n, q, bpp).expect("empty database");
        assert_eq!(empty.encode(q_bits).len(), empty.encoded_len(q_bits));
    }

    /// Fuzz-ish regression for the decode path: every truncation of a
    /// valid encoding, headers shorter than 12 bytes, absurd ciphertext
    /// counts, lying length prefixes, and byte-flipped garbage must all
    /// return `Err`, never panic (and never allocate by a lying header).
    #[test]
    fn decode_rejects_truncated_and_garbage_buffers() {
        let f = Fixture::new();
        let mut rng = StdRng::seed_from_u64(1234);
        let (_, pk) = {
            let kg = KeyGenerator::new(&f.ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&f.ctx, pk);
        let engine = CiphermatchEngine::new(&f.ctx);
        let data = BitString::from_ascii("decode must never panic");
        let db = engine.encrypt_database(&enc, &data, &mut rng);
        let q_bits = f.ctx.params().coeff_bits();
        let good = db.encode(q_bits);

        // Every proper prefix (includes the sub-header cases) fails cleanly.
        for cut in 0..good.len() {
            assert!(
                EncryptedDatabase::decode(&good[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }

        // A header claiming u32::MAX ciphertexts in a 12-byte buffer must
        // not be trusted for an allocation.
        let mut lying_count = good[..12].to_vec();
        lying_count[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(EncryptedDatabase::decode(&lying_count).is_err());

        // A ciphertext length prefix pointing far past the end.
        let mut lying_len = good.clone();
        lying_len[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(EncryptedDatabase::decode(&lying_len).is_err());

        // Junk after the last ciphertext is refused, not carried along.
        let mut padded = good.clone();
        padded.push(0);
        assert!(matches!(
            EncryptedDatabase::decode(&padded),
            Err(cm_bfv::DecodeError::BadHeader(
                "trailing bytes after the ciphertexts"
            ))
        ));

        // Deterministic byte flips across the whole buffer: decoding
        // either fails cleanly or (for flips in ciphertext payload bytes
        // below the coefficient limit) succeeds — it must never panic.
        for i in (0..good.len()).step_by(7) {
            let mut flipped = good.clone();
            flipped[i] ^= 0xA5;
            let _ = EncryptedDatabase::decode(&flipped);
        }

        // Pure garbage of various lengths.
        for len in [0usize, 1, 11, 12, 13, 64, 257] {
            let garbage: Vec<u8> = (0..len).map(|i| (i * 131 + 17) as u8).collect();
            let _ = EncryptedDatabase::decode(&garbage);
        }

        // The packed query, one ciphertext and three: every cut point
        // fails cleanly, every flip decodes or fails but never panics,
        // and so does garbage behind a good magic.
        let (n, q, seg_bits) = (
            f.ctx.params().n,
            f.ctx.params().q,
            engine.packing().seg_bits(),
        );
        let decode = |bytes: &[u8]| PackedQuery::decode(bytes, n, seg_bits, q);
        for k in [13usize, 2 * n] {
            let pattern = BitString::from_bits(&vec![false; k]);
            let good = engine.pack_query(&enc, &pattern, &mut rng).encode(q_bits);
            assert_eq!(decode(&good).unwrap().k(), k);
            for cut in 0..good.len() {
                assert!(
                    decode(&good[..cut]).is_err(),
                    "k={k}: prefix of {cut} bytes"
                );
            }
            for i in (0..good.len()).step_by(7) {
                let mut flipped = good.clone();
                flipped[i] ^= 0xA5;
                let _ = decode(&flipped);
            }
            // A length prefix pointing far past the end.
            let mut lying_len = good.clone();
            lying_len[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode(&lying_len).is_err());
        }
        for len in [0usize, 3, 4, 11, 12, 15, 16, 17, 64, 5000] {
            let mut garbage: Vec<u8> = (0..len).map(|i| (i * 131 + 17) as u8).collect();
            for (byte, magic) in garbage.iter_mut().zip(b"CMQ3") {
                *byte = *magic;
            }
            assert!(decode(&garbage).is_err(), "{len} bytes of garbage");
        }
    }

    #[test]
    fn encrypted_footprint_is_4x_plain_with_paper_params() {
        // The 4x bound (paper §4.2.1) holds for the paper's parameters:
        // 16 packed bits become one 32-bit coefficient (2x) in each of the
        // two ciphertext polynomials (2x).
        let ctx = BfvContext::new(BfvParams::ciphermatch_1024());
        let mut rng = StdRng::seed_from_u64(1);
        let (_, pk) = {
            let kg = KeyGenerator::new(&ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&ctx, pk);
        let engine = CiphermatchEngine::new(&ctx);
        // Exactly one full polynomial of data.
        let bits_per_poly = engine.packing().bits_per_poly();
        let db_bits = BitString::from_bits(&vec![true; bits_per_poly]);
        let db = engine.encrypt_database(&enc, &db_bits, &mut rng);
        let q_bits = ctx.params().coeff_bits();
        let plain_bytes = bits_per_poly / 8;
        assert_eq!(db.byte_size(q_bits), 4 * plain_bytes);
    }
}
