//! Functional NAND flash model with compute-capable latch peripherals.
//!
//! Models the peripheral circuitry of Fig. 4: per plane, one sensing latch
//! (S-latch) and three data latches (D-latches, available because the die
//! is TLC hardware operated in SLC mode, §4.3.1). The supported primitive
//! operations are exactly those the modified circuit provides:
//!
//! * flash read into the S-latch (ESP SLC sensing),
//! * bi-directional S↔D transfers (the two added transistors of \[141\]),
//! * `AND` of S and a D latch into S,
//! * `OR` of S into a D latch,
//! * `XOR` between D1 and D2 into D1 (the existing randomizer circuit),
//! * page DMA between latches and the channel.
//!
//! Programmed pages are kept per block: a `(plane, block)` key maps to
//! that block's wordline slots, created on the block's first program, and
//! a slot never programmed reads as all-zero. Each primitive has one body,
//! on a [`PlaneView`] — one plane's latches and one block's pages,
//! resolved together — and books its own ledger field. The per-call
//! methods of [`FlashArray`] open a view for one primitive; a µ-program
//! such as `bop_add` opens one for all of its steps.
//!
//! Every call logs into the [`FlashLedger`], and computation never touches
//! a program/erase path (the paper's endurance argument).

use std::collections::HashMap;

use crate::bitbuf::BitBuf;
use crate::geometry::{FlashGeometry, PageAddr, PlaneAddr};
use crate::timing::FlashLedger;

/// Number of D-latches per plane (TLC hardware).
pub const D_LATCHES: usize = 3;

/// One plane's latch set.
#[derive(Debug)]
struct LatchSet {
    s: BitBuf,
    d: [BitBuf; D_LATCHES],
}

impl LatchSet {
    fn new(bits: usize) -> Self {
        Self {
            s: BitBuf::zeros(bits),
            d: [
                BitBuf::zeros(bits),
                BitBuf::zeros(bits),
                BitBuf::zeros(bits),
            ],
        }
    }
}

/// The functional flash array: SLC pages stored by block, plus per-plane
/// latches.
#[derive(Debug)]
pub struct FlashArray {
    geometry: FlashGeometry,
    /// Each programmed block's wordline slots, created by the block's
    /// first [`FlashArray::program_page`]; `None` is a wordline never
    /// programmed.
    blocks: HashMap<(PlaneAddr, usize), Vec<Option<BitBuf>>>,
    /// One slot per plane in canonical (channel, die, plane) order, filled
    /// when the plane's latches are first touched.
    latches: Vec<Option<LatchSet>>,
    ledger: FlashLedger,
}

/// One plane's latch set and one block's pages, resolved once, with the
/// ledger every primitive books into. Each latch primitive has its one
/// body here.
pub(crate) struct PlaneView<'a> {
    latches: &'a mut LatchSet,
    /// The open block's wordline slots: empty when the view opened no
    /// block or the block was never programmed.
    pages: &'a [Option<BitBuf>],
    wordlines: usize,
    ledger: &'a mut FlashLedger,
}

impl PlaneView<'_> {
    /// The same view for a shorter borrow, so that a step handing out a
    /// latch (a DMA out) leaves the view usable.
    pub(crate) fn reborrow(&mut self) -> PlaneView<'_> {
        PlaneView {
            latches: &mut *self.latches,
            pages: self.pages,
            wordlines: self.wordlines,
            ledger: &mut *self.ledger,
        }
    }

    /// Reads wordline `wordline` of the open block into the S-latch (ESP
    /// SLC read). Unwritten pages read as all-zero (erased cells in SLC
    /// convention).
    ///
    /// # Panics
    ///
    /// Panics if the wordline is outside the block.
    pub(crate) fn read_to_slatch(&mut self, wordline: usize) {
        assert!(
            wordline < self.wordlines,
            "page address out of geometry: wordline {wordline}"
        );
        self.ledger.reads += 1;
        match self.pages.get(wordline) {
            Some(Some(page)) => self.latches.s.copy_from(page),
            _ => self.latches.s.clear(),
        }
    }

    /// Copies the S-latch into D-latch `d` (Fig. 4 step ②③: reset then
    /// conditional set).
    pub(crate) fn slatch_to_dlatch(&mut self, d: usize) {
        assert!(d < D_LATCHES);
        self.ledger.latch_transfers += 1;
        let LatchSet { s, d: dl } = &mut *self.latches;
        dl[d].copy_from(s);
    }

    /// Copies D-latch `d` into the S-latch (reverse path via M7/M8).
    pub(crate) fn dlatch_to_slatch(&mut self, d: usize) {
        assert!(d < D_LATCHES);
        self.ledger.latch_transfers += 1;
        let LatchSet { s, d: dl } = &mut *self.latches;
        s.copy_from(&dl[d]);
    }

    /// Bitwise AND of the S-latch with D-latch `d`, result in the S-latch
    /// (Fig. 4, "Bitwise AND" sequence).
    pub(crate) fn and_dlatch_into_slatch(&mut self, d: usize) {
        assert!(d < D_LATCHES);
        self.ledger.and_or_ops += 1;
        let LatchSet { s, d: dl } = &mut *self.latches;
        s.and_assign(&dl[d]);
    }

    /// Bitwise OR of the S-latch into D-latch `d` (transfer without reset).
    pub(crate) fn or_slatch_into_dlatch(&mut self, d: usize) {
        assert!(d < D_LATCHES);
        self.ledger.and_or_ops += 1;
        let LatchSet { s, d: dl } = &mut *self.latches;
        dl[d].or_assign(s);
    }

    /// XOR between D-latch 1 and D-latch 2, result in D-latch 1 (the
    /// on-chip randomizer circuit, §4.3.1 item 4).
    pub(crate) fn xor_d1_d2_into_d1(&mut self) {
        self.ledger.xor_ops += 1;
        let [_, d1, d2] = &mut self.latches.d;
        d1.xor_assign(d2);
    }

    /// Resets D-latch `d` to all zeros.
    pub(crate) fn reset_dlatch(&mut self, d: usize) {
        assert!(d < D_LATCHES);
        self.ledger.latch_transfers += 1;
        self.latches.d[d].clear();
    }

    /// DMA: loads a page from the channel into the S-latch.
    ///
    /// # Panics
    ///
    /// Panics if the buffer width is not a page.
    pub(crate) fn io_load_slatch(&mut self, data: &BitBuf) {
        assert_eq!(data.len(), self.latches.s.len(), "page width mismatch");
        self.ledger.dmas += 1;
        self.latches.s.copy_from(data);
    }
}

impl<'a> PlaneView<'a> {
    /// DMA: reads D-latch `d` out to the channel. The page on the wire is
    /// a view of the latch; the receiver copies it into its own buffer.
    pub(crate) fn io_read_dlatch(self, d: usize) -> &'a BitBuf {
        assert!(d < D_LATCHES);
        self.ledger.dmas += 1;
        &self.latches.d[d]
    }

    /// DMA: reads the S-latch out to the channel, as
    /// [`Self::io_read_dlatch`].
    fn io_read_slatch(self) -> &'a BitBuf {
        self.ledger.dmas += 1;
        &self.latches.s
    }
}

impl FlashArray {
    /// Creates an empty array.
    pub fn new(geometry: FlashGeometry) -> Self {
        Self {
            latches: (0..geometry.total_planes()).map(|_| None).collect(),
            geometry,
            blocks: HashMap::new(),
            ledger: FlashLedger::default(),
        }
    }

    /// The geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// The accumulated operation ledger.
    pub fn ledger(&self) -> FlashLedger {
        self.ledger
    }

    /// Resets the operation ledger.
    pub fn reset_ledger(&mut self) {
        self.ledger = FlashLedger::default();
    }

    /// Opens `plane`'s latch set (created all-zero on first use) and, if
    /// `block` is given, that block's pages: one view per primitive for
    /// the per-call methods, one per call for a µ-program.
    ///
    /// # Panics
    ///
    /// Panics if the plane or the block is outside the geometry.
    pub(crate) fn view(&mut self, plane: PlaneAddr, block: Option<usize>) -> PlaneView<'_> {
        let g = &self.geometry;
        assert!(
            plane.channel < g.channels
                && plane.die < g.dies_per_channel
                && plane.plane < g.planes_per_die,
            "plane address out of geometry: {plane:?}"
        );
        let pages = match block {
            Some(block) => {
                assert!(
                    block < g.blocks_per_plane,
                    "page address out of geometry: {plane:?} block {block}"
                );
                self.blocks
                    .get(&(plane, block))
                    .map_or(&[][..], Vec::as_slice)
            }
            None => &[],
        };
        let index =
            (plane.channel * g.dies_per_channel + plane.die) * g.planes_per_die + plane.plane;
        PlaneView {
            latches: self.latches[index].get_or_insert_with(|| LatchSet::new(g.page_bits())),
            pages,
            wordlines: g.wordlines_per_block,
            ledger: &mut self.ledger,
        }
    }

    /// Programs a page (SLC write) — data load path, costs P/E wear.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range or the buffer width is not a
    /// page.
    pub fn program_page(&mut self, addr: PageAddr, data: BitBuf) {
        assert!(
            self.geometry.check_page(&addr),
            "page address out of geometry: {addr:?}"
        );
        assert_eq!(data.len(), self.geometry.page_bits(), "page width mismatch");
        self.ledger.programs += 1;
        let wordlines = self.geometry.wordlines_per_block;
        self.blocks
            .entry((addr.plane, addr.block))
            .or_insert_with(|| vec![None; wordlines])[addr.wordline] = Some(data);
    }

    /// Reads a page into the plane's S-latch (ESP SLC read).
    ///
    /// Unwritten pages read as all-zero (erased cells in SLC convention).
    pub fn read_to_slatch(&mut self, addr: PageAddr) {
        self.view(addr.plane, Some(addr.block))
            .read_to_slatch(addr.wordline);
    }

    /// Copies the S-latch into D-latch `d` (Fig. 4 step ②③: reset then
    /// conditional set).
    pub fn slatch_to_dlatch(&mut self, plane: PlaneAddr, d: usize) {
        self.view(plane, None).slatch_to_dlatch(d);
    }

    /// Copies D-latch `d` into the S-latch (reverse path via M7/M8).
    pub fn dlatch_to_slatch(&mut self, plane: PlaneAddr, d: usize) {
        self.view(plane, None).dlatch_to_slatch(d);
    }

    /// Bitwise AND of the S-latch with D-latch `d`, result in the S-latch
    /// (Fig. 4, "Bitwise AND" sequence).
    pub fn and_dlatch_into_slatch(&mut self, plane: PlaneAddr, d: usize) {
        self.view(plane, None).and_dlatch_into_slatch(d);
    }

    /// Bitwise OR of the S-latch into D-latch `d` (transfer without reset).
    pub fn or_slatch_into_dlatch(&mut self, plane: PlaneAddr, d: usize) {
        self.view(plane, None).or_slatch_into_dlatch(d);
    }

    /// XOR between D-latch 1 and D-latch 2, result in D-latch 1 (the
    /// on-chip randomizer circuit, §4.3.1 item 4).
    pub fn xor_d1_d2_into_d1(&mut self, plane: PlaneAddr) {
        self.view(plane, None).xor_d1_d2_into_d1();
    }

    /// Resets D-latch `d` to all zeros.
    pub fn reset_dlatch(&mut self, plane: PlaneAddr, d: usize) {
        self.view(plane, None).reset_dlatch(d);
    }

    /// DMA: loads a page from the channel into the S-latch.
    ///
    /// # Panics
    ///
    /// Panics if the buffer width is not a page.
    pub fn io_load_slatch(&mut self, plane: PlaneAddr, data: &BitBuf) {
        self.view(plane, None).io_load_slatch(data);
    }

    /// DMA: reads D-latch `d` out to the channel. The page on the wire is
    /// a view of the latch; the receiver copies it into its own buffer.
    pub fn io_read_dlatch(&mut self, plane: PlaneAddr, d: usize) -> &BitBuf {
        self.view(plane, None).io_read_dlatch(d)
    }

    /// Direct page read (conventional I/O path: read + DMA). The page on
    /// the wire is a view of the S-latch.
    pub fn read_page(&mut self, addr: PageAddr) -> &BitBuf {
        let mut view = self.view(addr.plane, Some(addr.block));
        view.read_to_slatch(addr.wordline);
        view.io_read_slatch()
    }

    /// Test accessor for the S-latch contents.
    #[cfg(test)]
    pub(crate) fn peek_slatch(&mut self, plane: PlaneAddr) -> BitBuf {
        self.view(plane, None).latches.s.clone()
    }

    /// Test accessor for a D-latch's contents.
    #[cfg(test)]
    pub(crate) fn peek_dlatch(&mut self, plane: PlaneAddr, d: usize) -> BitBuf {
        assert!(d < D_LATCHES);
        self.view(plane, None).latches.d[d].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FlashArray, PlaneAddr, PageAddr) {
        let g = FlashGeometry::tiny_test();
        let plane = PlaneAddr {
            channel: 0,
            die: 0,
            plane: 0,
        };
        let addr = PageAddr {
            plane,
            block: 0,
            wordline: 0,
        };
        (FlashArray::new(g), plane, addr)
    }

    fn pattern(bits: usize, f: impl Fn(usize) -> bool) -> BitBuf {
        BitBuf::from_bits(&(0..bits).map(f).collect::<Vec<_>>())
    }

    #[test]
    fn program_read_roundtrip() {
        let (mut fa, plane, addr) = setup();
        let bits = fa.geometry().page_bits();
        let data = pattern(bits, |i| i % 3 == 0);
        fa.program_page(addr, data.clone());
        fa.read_to_slatch(addr);
        assert_eq!(fa.peek_slatch(plane), data);
        assert_eq!(fa.ledger().programs, 1);
        assert_eq!(fa.ledger().reads, 1);
    }

    #[test]
    fn unwritten_pages_read_zero() {
        let (mut fa, plane, addr) = setup();
        fa.read_to_slatch(addr);
        assert!(fa.peek_slatch(plane).iter().all(|b| !b));
    }

    #[test]
    fn latch_transfers_both_directions() {
        let (mut fa, plane, _) = setup();
        let bits = fa.geometry().page_bits();
        let data = pattern(bits, |i| i % 5 == 1);
        fa.io_load_slatch(plane, &data);
        fa.slatch_to_dlatch(plane, 1);
        assert_eq!(fa.peek_dlatch(plane, 1), data);
        // Overwrite S, then restore from D1.
        fa.io_load_slatch(plane, &BitBuf::zeros(bits));
        fa.dlatch_to_slatch(plane, 1);
        assert_eq!(fa.peek_slatch(plane), data);
    }

    #[test]
    fn and_or_xor_semantics() {
        let (mut fa, plane, _) = setup();
        let bits = fa.geometry().page_bits();
        let a = pattern(bits, |i| i % 2 == 0);
        let b = pattern(bits, |i| i % 3 == 0);

        // AND: S & D2 -> S
        fa.io_load_slatch(plane, &a);
        fa.slatch_to_dlatch(plane, 2);
        fa.io_load_slatch(plane, &b);
        fa.and_dlatch_into_slatch(plane, 2);
        let mut expect = b.clone();
        expect.and_assign(&a);
        assert_eq!(fa.peek_slatch(plane), expect);

        // OR: S | D0 -> D0
        fa.reset_dlatch(plane, 0);
        fa.io_load_slatch(plane, &a);
        fa.or_slatch_into_dlatch(plane, 0);
        fa.io_load_slatch(plane, &b);
        fa.or_slatch_into_dlatch(plane, 0);
        let mut expect = a.clone();
        expect.or_assign(&b);
        assert_eq!(fa.peek_dlatch(plane, 0), expect);

        // XOR: D1 ^ D2 -> D1
        fa.io_load_slatch(plane, &a);
        fa.slatch_to_dlatch(plane, 1);
        fa.io_load_slatch(plane, &b);
        fa.slatch_to_dlatch(plane, 2);
        fa.xor_d1_d2_into_d1(plane);
        let mut expect = a.clone();
        expect.xor_assign(&b);
        assert_eq!(fa.peek_dlatch(plane, 1), expect);
        // D2 must be preserved.
        assert_eq!(fa.peek_dlatch(plane, 2), b);
    }

    #[test]
    fn planes_have_independent_latches() {
        let (mut fa, p0, _) = setup();
        let p1 = PlaneAddr {
            channel: 0,
            die: 0,
            plane: 1,
        };
        let bits = fa.geometry().page_bits();
        fa.io_load_slatch(p0, &BitBuf::ones(bits));
        assert!(fa.peek_slatch(p1).iter().all(|b| !b));
    }

    #[test]
    fn compute_ops_incur_no_wear() {
        let (mut fa, plane, addr) = setup();
        let bits = fa.geometry().page_bits();
        fa.program_page(addr, BitBuf::ones(bits));
        fa.reset_ledger();
        fa.read_to_slatch(addr);
        fa.slatch_to_dlatch(plane, 1);
        fa.and_dlatch_into_slatch(plane, 1);
        fa.xor_d1_d2_into_d1(plane);
        assert_eq!(
            fa.ledger().wear(),
            0,
            "latch compute must not wear the array"
        );
    }

    #[test]
    #[should_panic(expected = "out of geometry")]
    fn bad_address_rejected() {
        let (mut fa, plane, _) = setup();
        let bad = PageAddr {
            plane,
            block: 99,
            wordline: 0,
        };
        fa.read_to_slatch(bad);
    }
}
