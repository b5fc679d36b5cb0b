//! The SSD device model: flash array + FTL + controller units.
//!
//! Implements the host-visible commands of §4.3.2: conventional
//! `read`/`write`, the vertical-layout `CM-read`/`CM-write` (which run the
//! transposition unit), and `CM-search` (which drives the `bop_add`
//! µ-program across every allocated group and returns the coefficient-wise
//! sums to the index-generation unit).

use cm_flash::{
    bop_add_into, BitBuf, FlashArray, FlashEnergy, FlashGeometry, FlashLedger, FlashTimings,
    PageAddr,
};

use crate::ftl::{Ftl, GroupAddr, GROUP_WORDLINES};
use crate::transpose::{TransposeMode, TranspositionUnit};

/// SSD controller characteristics (Table 3: 5x ARM Cortex-R5 @ 1.5 GHz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerModel {
    /// Number of controller cores.
    pub cores: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Index-generation latency per result page (paper §4.3.2: 3.42 µs,
    /// overlappable with flash reads).
    pub index_gen_per_page: f64,
}

impl ControllerModel {
    /// Table 3 values.
    pub fn paper_default() -> Self {
        Self {
            cores: 5,
            clock_hz: 1.5e9,
            index_gen_per_page: 3.42e-6,
        }
    }
}

/// Cost report for one `CM-search` invocation.
#[derive(Debug, Clone, Copy)]
pub struct IfpReport {
    /// Primitive-op deltas incurred by this search.
    pub ledger: FlashLedger,
    /// `bop_add` invocations (group × variant granularity).
    pub bop_adds: u64,
    /// Controller transposition busy time (seconds).
    pub transpose_time: f64,
}

impl IfpReport {
    /// Paper-model execution time (Eq. 9): every `bop_add` costs
    /// `32 × T_bit_add`, with all planes computing in parallel.
    pub fn time_eq9(&self, geometry: &FlashGeometry, timings: &FlashTimings) -> f64 {
        let rounds = (self.bop_adds as f64 / geometry.total_planes() as f64).ceil();
        rounds * GROUP_WORDLINES as f64 * timings.t_bit_add()
    }

    /// Energy from the op ledger (Eq. 11 components).
    pub fn energy(&self, geometry: &FlashGeometry, energy: &FlashEnergy) -> f64 {
        let page_kb = geometry.page_bytes as f64 / 1024.0;
        let idx = self.ledger.dmas as f64 / 2.0 * energy.e_index_gen_per_page;
        self.ledger.energy(energy, page_kb) + idx
    }
}

/// Controller buffers reused by every group of every `CM-search` and
/// `CM-read`: capacity only, overwritten before they are read.
#[derive(Debug, Default)]
struct GroupBuffers {
    /// One group's worth of the query stream, horizontal.
    window: Vec<u32>,
    /// The same window as bit-plane pages, streamed into the latches.
    query_planes: Vec<BitBuf>,
    /// Bit-plane pages coming back from the array (sums, or a read group).
    array_planes: Vec<BitBuf>,
    /// `array_planes` transposed back to coefficients.
    words: Vec<u32>,
}

/// The SSD device.
#[derive(Debug)]
pub struct Ssd {
    flash: FlashArray,
    ftl: Ftl,
    transpose: TranspositionUnit,
    timings: FlashTimings,
    energy: FlashEnergy,
    controller: ControllerModel,
    stored_words: usize,
    buffers: GroupBuffers,
}

/// A horizontal page: byte `i` of `data` occupies bitlines `8i..8i + 8`,
/// most significant bit first; bytes past `data` read as zero.
fn page_from_bytes(data: &[u8], page_bytes: usize) -> BitBuf {
    let mut page = BitBuf::zeros(page_bytes * 8);
    for (word, chunk) in page.words_mut().iter_mut().zip(data.chunks(8)) {
        let mut bytes = [0u8; 8];
        bytes[..chunk.len()].copy_from_slice(chunk);
        // Bitline `k` of a page word is bit `k` of it: the first byte
        // goes lowest, each byte bit-reversed.
        *word = u64::from_be_bytes(bytes).reverse_bits();
    }
    page
}

/// Inverse of [`page_from_bytes`] over the whole page.
fn page_to_bytes(page: &BitBuf) -> Vec<u8> {
    let mut out = vec![0u8; page.len() / 8];
    for (chunk, &word) in out.chunks_mut(8).zip(page.words()) {
        chunk.copy_from_slice(&word.reverse_bits().to_be_bytes()[..chunk.len()]);
    }
    out
}

impl Ssd {
    /// Creates an SSD with the given geometry and transposition mode,
    /// reserving the first quarter of each plane's blocks for the
    /// conventional region.
    pub fn new(geometry: FlashGeometry, mode: TransposeMode) -> Self {
        let reserve = (geometry.blocks_per_plane / 4).max(1);
        Self {
            flash: FlashArray::new(geometry.clone()),
            ftl: Ftl::new(geometry, reserve),
            transpose: TranspositionUnit::new(mode),
            timings: FlashTimings::paper_default(),
            energy: FlashEnergy::paper_default(),
            controller: ControllerModel::paper_default(),
            stored_words: 0,
            buffers: GroupBuffers::default(),
        }
    }

    /// The flash geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        self.ftl.geometry()
    }

    /// The timing constants in effect.
    pub fn timings(&self) -> &FlashTimings {
        &self.timings
    }

    /// The energy constants in effect.
    pub fn energy_model(&self) -> &FlashEnergy {
        &self.energy
    }

    /// The controller model.
    pub fn controller(&self) -> &ControllerModel {
        &self.controller
    }

    /// Lifetime primitive-op ledger of the flash array (reads, programs,
    /// erases, …). `ledger().wear()` is the device's cumulative wear.
    pub fn ledger(&self) -> FlashLedger {
        self.flash.ledger()
    }

    /// Total conventional-region capacity in pages.
    pub fn conventional_capacity(&self) -> usize {
        self.ftl.conventional_capacity()
    }

    /// Conventional pages mapped so far (never reclaimed; fresh logical
    /// pages allocate past this high-water mark).
    pub fn conventional_in_use(&self) -> usize {
        self.ftl.conventional_in_use()
    }

    /// `u32` coefficient capacity of the CIPHERMATCH region for a geometry
    /// under the reservation policy [`Self::new`] applies, without building
    /// a device. Each group stores one coefficient per bitline.
    pub fn cm_capacity_words(geometry: &FlashGeometry) -> usize {
        let reserve = (geometry.blocks_per_plane / 4).max(1);
        let groups_per_plane = (geometry.blocks_per_plane - reserve)
            * (geometry.wordlines_per_block / GROUP_WORDLINES);
        groups_per_plane * geometry.total_planes() * geometry.page_bits()
    }

    /// Conventional write: horizontal layout, page granularity.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the page size.
    pub fn write_page(&mut self, lpn: u64, data: &[u8]) {
        let page_bytes = self.ftl.geometry().page_bytes;
        assert!(data.len() <= page_bytes, "data exceeds page size");
        let addr = self.ftl.map_conventional(lpn);
        self.flash
            .program_page(addr, page_from_bytes(data, page_bytes));
    }

    /// Conventional read.
    ///
    /// # Panics
    ///
    /// Panics if the logical page was never written.
    pub fn read_page(&mut self, lpn: u64) -> Vec<u8> {
        let addr = self
            .ftl
            .lookup_conventional(lpn)
            .expect("unmapped logical page");
        page_to_bytes(self.flash.read_page(addr))
    }

    /// `CM-write`: appends `u32` coefficients to the CIPHERMATCH region in
    /// vertical layout (transpose + program 32 wordlines per group).
    /// Returns the groups written.
    pub fn cm_write_words(&mut self, words: &[u32]) -> Vec<GroupAddr> {
        let bitlines = self.ftl.geometry().page_bits();
        assert_eq!(
            self.stored_words % bitlines,
            0,
            "cm_write_words must append at group granularity; pad the stream"
        );
        let mut groups = Vec::new();
        for chunk in words.chunks(bitlines) {
            let mut padded = chunk.to_vec();
            padded.resize(bitlines, 0);
            let planes = self.transpose.to_vertical(&padded, GROUP_WORDLINES);
            let group = self.ftl.allocate_group();
            for (b, page) in planes.into_iter().enumerate() {
                self.flash.program_page(
                    PageAddr {
                        plane: group.plane,
                        block: group.block,
                        wordline: group.wl_base + b,
                    },
                    page,
                );
            }
            groups.push(group);
        }
        self.stored_words += words.len();
        groups
    }

    /// `CM-read`: reads group `idx` back in horizontal layout (the page
    /// fault path of §4.3.2 — 32 wordline reads + reverse transposition).
    pub fn cm_read_group(&mut self, idx: usize) -> Vec<u32> {
        let group = self.ftl.groups()[idx];
        let bitlines = self.ftl.geometry().page_bits();
        // A device's page width never changes, so whatever the buffer
        // holds already fits.
        let planes = &mut self.buffers.array_planes;
        planes.resize_with(GROUP_WORDLINES, || BitBuf::zeros(bitlines));
        for (b, plane) in planes.iter_mut().enumerate() {
            plane.copy_from(self.flash.read_page(PageAddr {
                plane: group.plane,
                block: group.block,
                wordline: group.wl_base + b,
            }));
        }
        self.transpose.to_horizontal(planes)
    }

    /// Number of `u32` coefficients stored in the CIPHERMATCH region.
    pub fn stored_words(&self) -> usize {
        self.stored_words
    }

    /// Dirty-writeback service (§4.3.2 item 3): the host evicted modified
    /// CIPHERMATCH data; the controller transposes it back to the vertical
    /// layout and programs the group asynchronously. Returns the modeled
    /// (asynchronous) latency.
    ///
    /// # Panics
    ///
    /// Panics if the group index is unknown or the data is not exactly one
    /// group wide.
    pub fn handle_dirty_writeback(&mut self, group_idx: usize, words: &[u32]) -> f64 {
        let bitlines = self.ftl.geometry().page_bits();
        assert_eq!(words.len(), bitlines, "writeback must cover one group");
        let group = self.ftl.groups()[group_idx];
        let planes = self.transpose.to_vertical(words, GROUP_WORDLINES);
        for (b, page) in planes.into_iter().enumerate() {
            self.flash.program_page(
                PageAddr {
                    plane: group.plane,
                    block: group.block,
                    wordline: group.wl_base + b,
                },
                page,
            );
        }
        // Asynchronous: the host does not wait; we report the busy time.
        self.transpose.mode().latency_per_4kb() * (words.len() * 4) as f64 / 4096.0
    }

    /// `CM-search`: homomorphically adds the (periodic) query coefficient
    /// stream to every stored coefficient using in-flash bit-serial
    /// addition, handing each group's sums to `sink` in storage order as
    /// they leave the latches, and returns the cost report.
    ///
    /// `query_words` is one period of the encrypted query stream (the
    /// paper's replicated query polynomial pair); the stream tiles across
    /// the stored coefficients. A group whose window of it starts where
    /// the previous group's did holds the same window, so its bit-planes
    /// are not transposed again — every group when the period divides
    /// the page width, as one ciphertext pair does on every preset
    /// geometry. The [`TranspositionUnit`] still books every group's
    /// window: the modelled controller streams one per group, whatever
    /// the host reuses.
    ///
    /// # Panics
    ///
    /// Panics if the query is empty or nothing is stored.
    pub fn cm_search(&mut self, query_words: &[u32], mut sink: impl FnMut(&[u32])) -> IfpReport {
        assert!(!query_words.is_empty(), "empty query stream");
        assert!(self.stored_words > 0, "no CIPHERMATCH data stored");
        let bitlines = self.ftl.geometry().page_bits();
        let ledger_before = self.flash.ledger();
        let transpose_before = self.transpose.busy_time();
        let qlen = query_words.len();

        let GroupBuffers {
            window,
            query_planes,
            array_planes,
            words,
        } = &mut self.buffers;
        window.resize(bitlines, 0);
        // Where in the query stream the window `query_planes` holds starts.
        let mut planes_at = None;
        let mut bop_adds = 0u64;
        for (g, group) in self.ftl.groups().iter().enumerate() {
            let offset = g * bitlines;
            if offset >= self.stored_words {
                break;
            }
            // This group's bitline window of the periodic query stream.
            let start = offset % qlen;
            if planes_at == Some(start) {
                self.transpose.account(bitlines * 4);
            } else {
                let (mut at, mut rest) = (start, window.as_mut_slice());
                while !rest.is_empty() {
                    let (run, tail) = rest.split_at_mut((qlen - at).min(rest.len()));
                    run.copy_from_slice(&query_words[at..at + run.len()]);
                    (at, rest) = (0, tail);
                }
                self.transpose
                    .to_vertical_into(window, GROUP_WORDLINES, query_planes);
                planes_at = Some(start);
            }
            bop_add_into(
                &mut self.flash,
                group.plane,
                group.block,
                group.wl_base,
                query_planes,
                array_planes,
            );
            bop_adds += 1;
            self.transpose.to_horizontal_into(array_planes, words);
            let take = bitlines.min(self.stored_words - offset);
            sink(&words[..take]);
        }

        let ledger_after = self.flash.ledger();
        IfpReport {
            ledger: FlashLedger {
                reads: ledger_after.reads - ledger_before.reads,
                latch_transfers: ledger_after.latch_transfers - ledger_before.latch_transfers,
                and_or_ops: ledger_after.and_or_ops - ledger_before.and_or_ops,
                xor_ops: ledger_after.xor_ops - ledger_before.xor_ops,
                dmas: ledger_after.dmas - ledger_before.dmas,
                programs: ledger_after.programs - ledger_before.programs,
                erases: ledger_after.erases - ledger_before.erases,
            },
            bop_adds,
            transpose_time: self.transpose.busy_time() - transpose_before,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ssd() -> Ssd {
        Ssd::new(FlashGeometry::tiny_test(), TransposeMode::Software)
    }

    /// `CM-search` with every group's sums collected.
    fn search(s: &mut Ssd, query: &[u32]) -> (Vec<u32>, IfpReport) {
        let mut sums = Vec::new();
        let report = s.cm_search(query, |group| sums.extend_from_slice(group));
        (sums, report)
    }

    #[test]
    fn capacity_accessors_match_the_reservation_policy() {
        let geom = FlashGeometry::tiny_test();
        // tiny_test: 1 reserved block/plane, 3 CM blocks x 2 groups x 8
        // planes x 512 bitlines.
        assert_eq!(Ssd::cm_capacity_words(&geom), 48 * 512);
        let mut s = ssd();
        assert_eq!(s.conventional_capacity(), 64 * 8);
        assert_eq!(s.conventional_in_use(), 0);
        s.write_page(9, &[1, 2, 3]);
        assert_eq!(s.conventional_in_use(), 1);
        assert_eq!(s.ledger().programs, 1);
    }

    #[test]
    fn conventional_write_read_roundtrip() {
        let mut s = ssd();
        let data: Vec<u8> = (0..64u8).collect();
        s.write_page(3, &data);
        assert_eq!(s.read_page(3), data);
    }

    #[test]
    fn conventional_pages_roundtrip_random_and_partial_data() {
        let mut s = ssd();
        let page_bytes = s.geometry().page_bytes;
        let mut rng = StdRng::seed_from_u64(13);
        let full: Vec<u8> = (0..page_bytes).map(|_| rng.gen()).collect();
        s.write_page(0, &full);
        assert_eq!(s.read_page(0), full);
        // A short page reads back zero-padded to the page size, whether or
        // not it ends on a page-word boundary.
        for len in [0, 1, 7, 8, 9, 29, page_bytes - 1] {
            let lpn = 1 + len as u64;
            s.write_page(lpn, &full[..len]);
            let mut want = full[..len].to_vec();
            want.resize(page_bytes, 0);
            assert_eq!(s.read_page(lpn), want, "len {len}");
        }
        // Bit order within a byte: most significant bit on the lowest
        // bitline, so stored pages keep their pre-packing layout.
        assert!(page_from_bytes(&[0x80], page_bytes).get(0));
        assert!(page_from_bytes(&[0x00, 0x01], page_bytes).get(15));
        // Page sizes off the 8-byte grid keep the tail bits clear.
        let odd = page_from_bytes(&[0xff; 13], 13);
        assert_eq!(odd, BitBuf::ones(104));
        assert_eq!(page_to_bytes(&odd), [0xff; 13]);
    }

    /// The simulated device's ledger, transposition accounting and cost
    /// report for one fixed search — 600 random bytes in three
    /// polynomials, the 40-bit pattern "flash" (47 variants) — sent in
    /// the packed form when `packed`, in the explicit one otherwise, as
    /// literals recorded before the host path was made word-parallel:
    /// neither host speed nor the form the query arrived in may leak into
    /// the model.
    fn pinned_search(packed: bool) {
        use crate::pipeline::CmIfpServer;
        use cm_bfv::{BfvContext, BfvParams, Encryptor, KeyGenerator};
        use cm_core::{BitString, CiphermatchEngine, TrustedIndexGenerator};

        let ctx = BfvContext::new(BfvParams::insecure_test_pow2());
        let mut rng = StdRng::seed_from_u64(20);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let engine = CiphermatchEngine::new(&ctx);
        let data: Vec<u8> = (0..600).map(|_| rng.gen()).collect();
        let data = BitString::from_bytes(&data);
        let db = engine.encrypt_database(&enc, &data, &mut rng);
        let geom = FlashGeometry::tiny_test();
        let mut server = CmIfpServer::new(&ctx, geom.clone(), TransposeMode::Software, &db);
        assert_eq!(db.poly_count(), 3);

        let loaded = server.ssd().ledger();
        assert_eq!((loaded.programs, loaded.reads, loaded.dmas), (96, 0, 0));
        assert_eq!(server.ssd().transpose.busy_time(), 2.04e-5);
        assert_eq!(server.ssd().transpose.bytes_transposed(), 6144);

        let pattern = BitString::from_ascii("flash");
        let reports = if packed {
            let query = engine.pack_query(&enc, &pattern, &mut rng);
            let index_gen = TrustedIndexGenerator::from_secret(&ctx, kg.secret_key());
            let (indices, reports) = server.cm_search_command(&query, &index_gen).unwrap();
            assert_eq!(indices, data.find_all(&pattern));
            reports
        } else {
            let query = engine.prepare_query(&enc, &pattern, &mut rng);
            server.search(&query).1
        };
        assert_eq!(reports.len(), 47);
        let total = server.ssd().ledger();
        let want_total = FlashLedger {
            reads: 4512,
            latch_transfers: 27213,
            and_or_ops: 13536,
            xor_ops: 9024,
            dmas: 9024,
            programs: 96,
            erases: 0,
        };
        assert_eq!(total, want_total);
        assert_eq!(server.ssd().transpose.busy_time(), 0.0019379999999999892);
        assert_eq!(server.ssd().transpose.bytes_transposed(), 6144 + 577536);

        let (t, e) = (FlashTimings::paper_default(), FlashEnergy::paper_default());
        let per_variant = FlashLedger {
            reads: 96,
            latch_transfers: 579,
            and_or_ops: 288,
            xor_ops: 192,
            dmas: 192,
            programs: 0,
            erases: 0,
        };
        for report in &reports {
            assert_eq!(report.ledger, per_variant);
            assert_eq!(report.bop_adds, 3);
            assert_eq!(report.time_eq9(&geom, &t), 0.00093888);
            assert_eq!(report.energy(&geom, &e), 0.003456013875);
        }
        assert_eq!(reports[0].transpose_time, 4.080000000000001e-5);
    }

    #[test]
    fn the_model_does_not_see_the_host() {
        pinned_search(false);
    }

    /// The packed twin: the controller replicates each variant into the
    /// latches itself, and the flash does exactly the explicit query's
    /// work.
    #[test]
    fn the_model_does_not_see_the_query_form() {
        pinned_search(true);
    }

    #[test]
    fn cm_write_read_roundtrip() {
        let mut s = ssd();
        let bitlines = 64 * 8;
        let mut rng = StdRng::seed_from_u64(11);
        let words: Vec<u32> = (0..bitlines).map(|_| rng.gen()).collect();
        let groups = s.cm_write_words(&words);
        assert_eq!(groups.len(), 1);
        assert_eq!(s.cm_read_group(0), words);
    }

    #[test]
    fn dirty_writeback_roundtrip() {
        let mut s = ssd();
        let words: Vec<u32> = (0..512u32).collect();
        s.cm_write_words(&words);
        let modified: Vec<u32> = words.iter().map(|&w| w + 1).collect();
        let latency = s.handle_dirty_writeback(0, &modified);
        assert!(latency > 0.0);
        assert_eq!(s.cm_read_group(0), modified);
    }

    #[test]
    fn cm_search_adds_query_to_every_word() {
        let mut s = ssd();
        let bitlines = 64 * 8; // 512 bitlines per page
        let mut rng = StdRng::seed_from_u64(12);
        // Three groups of data; query periods that divide the page width
        // (every group's window is the first one), that do not (each
        // window starts somewhere else), and that exceed it (windows
        // alternate).
        let words: Vec<u32> = (0..3 * bitlines).map(|_| rng.gen()).collect();
        s.cm_write_words(&words);
        for period in [128, 300, 2 * bitlines] {
            let query: Vec<u32> = (0..period).map(|_| rng.gen()).collect();
            let (sums, report) = search(&mut s, &query);
            assert_eq!(sums.len(), words.len());
            for (i, (&sum, &w)) in sums.iter().zip(&words).enumerate() {
                assert_eq!(sum, w.wrapping_add(query[i % period]), "word {i}");
            }
            assert_eq!(report.bop_adds, 3);
            assert_eq!(report.ledger.wear(), 0, "search must not wear the flash");
            // Every group books its 2 KiB window in and 2 KiB of sums out,
            // whether the host reused the window's bit-planes or not.
            let per_group = TransposeMode::Software.latency_per_4kb();
            assert!((report.transpose_time - 3.0 * per_group).abs() < 1e-12);
        }
    }

    #[test]
    fn partial_last_group_is_truncated() {
        let mut s = ssd();
        let bitlines = 64 * 8;
        let words: Vec<u32> = (0..bitlines + 100).map(|i| i as u32).collect();
        // Pad the stream to group granularity before appending.
        let mut padded = words.clone();
        padded.resize(2 * bitlines, 0);
        s.cm_write_words(&padded);
        let (sums, _) = search(&mut s, &[5u32]);
        assert_eq!(sums.len(), 2 * bitlines);
        assert_eq!(sums[0], 5);
        assert_eq!(sums[bitlines + 99], words[bitlines + 99].wrapping_add(5));
    }

    #[test]
    fn report_times_are_consistent() {
        let mut s = ssd();
        let bitlines = 64 * 8;
        let words: Vec<u32> = (0..4 * bitlines).map(|i| i as u32 * 3).collect();
        s.cm_write_words(&words);
        let (_, report) = search(&mut s, &[1u32, 2, 3, 4]);
        let geom = FlashGeometry::tiny_test();
        let t = FlashTimings::paper_default();
        assert!(report.time_eq9(&geom, &t) > 0.0);
        let e = FlashEnergy::paper_default();
        assert!(report.energy(&geom, &e) > 0.0);
    }
}
