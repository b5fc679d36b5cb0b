//! The `bop_add` µ-program: in-flash bit-serial addition (paper §4.3.1,
//! Fig. 5).
//!
//! Operand `A` is stored in a **vertical layout**: bit `i` of every
//! coefficient on wordline `wl_base + i`, one coefficient per bitline.
//! Operand `B` streams in from the controller one bit-plane page per step.
//! Each step executes the 13-operation latch sequence of Fig. 5 — load,
//! AND/XOR/OR against the carry held in D-latch 2 — and ships the sum
//! bit-plane back out. The carry ripples entirely inside the latches, so
//! a full `width`-bit addition costs `width` flash reads and `2 * width`
//! DMAs but **zero program/erase cycles**.
//!
//! The µ-program resolves its plane's latches and its block's pages once
//! per call and runs all of its steps against that one view; each step is
//! still one latch primitive booking its own ledger entry, exactly as the
//! per-call `FlashArray` methods book it.
//!
//! Addition is modulo `2^width`, which equals BFV `Hom-Add` exactly when
//! the ciphertext modulus is `2^width` (see
//! `cm_bfv::BfvParams::ciphermatch_ifp_1024`).
//!
//! ## How the host transposes
//!
//! Moving between coefficients and bit-planes is a bit-matrix transpose,
//! and the host does it a word at a time: 32 coefficients form a 32×32
//! bit matrix that [`transpose32`] flips with five rounds of masked
//! swaps, and two such blocks fill one 64-bit word of each of the 32
//! plane pages. The cost is proportional to the words moved, not to the
//! bits, for any page width (a partial last block is padded with zero
//! coefficients, so no bit is set past a page's length). This is the
//! speed of the *simulator*; what the transposition costs the modelled
//! controller is booked separately by `cm_ssd::TranspositionUnit` and
//! does not depend on it.

use crate::bitbuf::BitBuf;
use crate::chip::FlashArray;
use crate::geometry::{PageAddr, PlaneAddr};

/// Stores `u32` coefficients vertically: bit `b` of `words[l]` lands on
/// wordline `wl_base + b`, bitline `l`.
///
/// # Panics
///
/// Panics if `words.len()` differs from the page width or the wordline
/// range exceeds the block.
pub fn store_words_vertical(
    fa: &mut FlashArray,
    plane: PlaneAddr,
    block: usize,
    wl_base: usize,
    words: &[u32],
) {
    let bits = fa.geometry().page_bits();
    assert_eq!(words.len(), bits, "one coefficient per bitline required");
    for (b, page) in words_to_bitplanes(words, 32).into_iter().enumerate() {
        fa.program_page(
            PageAddr {
                plane,
                block,
                wordline: wl_base + b,
            },
            page,
        );
    }
}

/// Transposes a 32×32 bit matrix in place (row `r`, column `c` is bit `c`
/// of `a[r]`): five rounds of masked swaps between rows `k` and `k + j`
/// for `j` = 16, 8, 4, 2, 1, each exchanging the off-diagonal `j × j`
/// blocks. Its own inverse.
#[inline]
fn transpose32(a: &mut [u32; 32]) {
    let mut j = 16;
    let mut mask = 0x0000_ffffu32;
    while j != 0 {
        for base in (0..32).step_by(2 * j) {
            for k in base..base + j {
                let t = ((a[k] >> j) ^ a[k + j]) & mask;
                a[k] ^= t << j;
                a[k + j] ^= t;
            }
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// The 32 coefficients starting at `start`, transposed: entry `b` holds
/// bit `b` of each of them. Coefficients past the end read as zero.
#[inline]
fn transposed_block(words: &[u32], start: usize) -> [u32; 32] {
    let mut block = [0u32; 32];
    let tail = words.get(start..).unwrap_or(&[]);
    let take = tail.len().min(32);
    block[..take].copy_from_slice(&tail[..take]);
    transpose32(&mut block);
    block
}

/// Makes `pages` hold `count` pages of `bits` bitlines, keeping the
/// buffers that already have that width.
fn reshape(pages: &mut Vec<BitBuf>, count: usize, bits: usize) {
    pages.retain(|p| p.len() == bits);
    pages.resize_with(count, || BitBuf::zeros(bits));
}

/// Splits `u32` words into `width` bit-plane pages (bit 0 first) of
/// `words.len()` bitlines.
pub fn words_to_bitplanes(words: &[u32], width: usize) -> Vec<BitBuf> {
    let mut planes = Vec::new();
    words_to_bitplanes_into(words, width, &mut planes);
    planes
}

/// [`words_to_bitplanes`] into caller-owned pages: `planes` is reshaped to
/// `width` pages of `words.len()` bitlines (allocating only when the shape
/// changes) and every word of every page is overwritten.
pub fn words_to_bitplanes_into(words: &[u32], width: usize, planes: &mut Vec<BitBuf>) {
    assert!(width <= 32);
    let n = words.len();
    reshape(planes, width, n);
    // One page word covers 64 bitlines: two 32-coefficient blocks.
    for w in 0..n.div_ceil(64) {
        let lo = transposed_block(words, 64 * w);
        let hi = transposed_block(words, 64 * w + 32);
        for (b, plane) in planes.iter_mut().enumerate() {
            plane.words_mut()[w] = u64::from(lo[b]) | u64::from(hi[b]) << 32;
        }
    }
}

/// Reassembles bit-plane pages (bit 0 first) into `u32` words.
pub fn bitplanes_to_words(planes: &[BitBuf]) -> Vec<u32> {
    let mut out = Vec::new();
    bitplanes_to_words_into(planes, &mut out);
    out
}

/// [`bitplanes_to_words`] into a caller-owned vector, resized to one word
/// per bitline and overwritten.
pub fn bitplanes_to_words_into(planes: &[BitBuf], out: &mut Vec<u32>) {
    assert!(!planes.is_empty() && planes.len() <= 32);
    let n = planes[0].len();
    for plane in planes {
        assert_eq!(plane.len(), n, "bit-plane width mismatch");
    }
    out.clear();
    out.resize(n, 0);
    for (w, chunk) in out.chunks_mut(64).enumerate() {
        let (mut lo, mut hi) = ([0u32; 32], [0u32; 32]);
        for (b, plane) in planes.iter().enumerate() {
            let word = plane.words()[w];
            lo[b] = word as u32;
            hi[b] = (word >> 32) as u32;
        }
        transpose32(&mut lo);
        transpose32(&mut hi);
        let (first, second) = chunk.split_at_mut(chunk.len().min(32));
        first.copy_from_slice(&lo[..first.len()]);
        second.copy_from_slice(&hi[..second.len()]);
    }
}

/// Executes `bop_add`: adds streamed operand `B` (as bit-planes, LSB
/// first) to the vertically stored operand `A` at `wl_base`, returning the
/// sum bit-planes. The final carry remains in D-latch 2 and is discarded
/// (addition modulo `2^width`).
///
/// Step numbering follows Fig. 5 of the paper.
///
/// # Panics
///
/// Panics if more than 32 bit-planes are supplied or any page has the
/// wrong width.
pub fn bop_add(
    fa: &mut FlashArray,
    plane: PlaneAddr,
    block: usize,
    wl_base: usize,
    b_planes: &[BitBuf],
) -> Vec<BitBuf> {
    let mut sums = Vec::new();
    bop_add_into(fa, plane, block, wl_base, b_planes, &mut sums);
    sums
}

/// [`bop_add`] with the sum bit-planes shipped into caller-owned pages:
/// `sums` is reshaped to one page per operand bit-plane (allocating only
/// when the shape changes) and overwritten.
///
/// # Panics
///
/// As [`bop_add`].
pub fn bop_add_into(
    fa: &mut FlashArray,
    plane: PlaneAddr,
    block: usize,
    wl_base: usize,
    b_planes: &[BitBuf],
    sums: &mut Vec<BitBuf>,
) {
    assert!(
        !b_planes.is_empty() && b_planes.len() <= 32,
        "width must be 1..=32"
    );
    reshape(sums, b_planes.len(), fa.geometry().page_bits());
    let mut view = fa.view(plane, Some(block));
    // Carry-in = 0.
    view.reset_dlatch(2);
    for (i, (b_i, sum_i)) in b_planes.iter().zip(sums.iter_mut()).enumerate() {
        // ① stream B_i from the controller into the S-latch.
        view.io_load_slatch(b_i);
        // ② copy it to D-latch 1.
        view.slatch_to_dlatch(1);
        // ③ AND with the carry (D2): S = B·C.
        view.and_dlatch_into_slatch(2);
        // ④ XOR D1 ⊕ D2: D1 = B ⊕ C.
        view.xor_d1_d2_into_d1();
        // ⑤ park B·C in D-latch 0.
        view.slatch_to_dlatch(0);
        // ⑥ read the stored bit A_i from the flash cell.
        view.read_to_slatch(wl_base + i);
        // ⑦ copy A to D-latch 2 (the carry value is no longer needed).
        view.slatch_to_dlatch(2);
        // ⑧ move B ⊕ C to the S-latch and AND with A: S = (B⊕C)·A.
        view.dlatch_to_slatch(1);
        view.and_dlatch_into_slatch(2);
        // ⑨ XOR D1 ⊕ D2: D1 = B ⊕ C ⊕ A = sum bit.
        view.xor_d1_d2_into_d1();
        // ⑩ park (B⊕C)·A in D-latch 2.
        view.slatch_to_dlatch(2);
        // ⑪ recall B·C into the S-latch.
        view.dlatch_to_slatch(0);
        // ⑫ OR into D2: carry-out = (B⊕C)·A + B·C.
        view.or_slatch_into_dlatch(2);
        // ⑬ ship the sum bit-plane to the controller.
        sum_i.copy_from(view.reborrow().io_read_dlatch(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::D_LATCHES;
    use crate::geometry::FlashGeometry;
    use crate::timing::FlashTimings;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (FlashArray, PlaneAddr) {
        (
            FlashArray::new(FlashGeometry::tiny_test()),
            PlaneAddr {
                channel: 0,
                die: 0,
                plane: 0,
            },
        )
    }

    #[test]
    fn full_adder_truth_table() {
        // One bitline per (a, b, carry-chain) case via 1-bit adds.
        let (mut fa, plane) = setup();
        let bits = fa.geometry().page_bits();
        for a in [0u32, 1] {
            for b in [0u32, 1] {
                let words = vec![a; bits];
                store_words_vertical(&mut fa, plane, 0, 0, &words);
                let b_planes = words_to_bitplanes(&vec![b; bits], 1);
                let sums = bop_add(&mut fa, plane, 0, 0, &b_planes);
                let got = bitplanes_to_words(&sums);
                // 1-bit add modulo 2.
                assert!(got.iter().all(|&x| x == (a + b) % 2), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn thirty_two_bit_addition_matches_wrapping_add() {
        let (mut fa, plane) = setup();
        let bits = fa.geometry().page_bits();
        let mut rng = StdRng::seed_from_u64(99);
        let a: Vec<u32> = (0..bits).map(|_| rng.gen()).collect();
        let b: Vec<u32> = (0..bits).map(|_| rng.gen()).collect();
        store_words_vertical(&mut fa, plane, 1, 0, &a);
        let sums = bop_add(&mut fa, plane, 1, 0, &words_to_bitplanes(&b, 32));
        let got = bitplanes_to_words(&sums);
        let expect: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| x.wrapping_add(y)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn carry_propagates_across_all_bits() {
        // 0xFFFF_FFFF + 1 = 0 (mod 2^32): the carry must ripple through
        // all 32 positions.
        let (mut fa, plane) = setup();
        let bits = fa.geometry().page_bits();
        store_words_vertical(&mut fa, plane, 0, 0, &vec![u32::MAX; bits]);
        let sums = bop_add(
            &mut fa,
            plane,
            0,
            0,
            &words_to_bitplanes(&vec![1u32; bits], 32),
        );
        assert!(bitplanes_to_words(&sums).iter().all(|&x| x == 0));
    }

    /// The µ-program as one per-call `FlashArray` primitive per step,
    /// each resolving its plane (and the read its page) again.
    fn bop_add_into_oracle(
        fa: &mut FlashArray,
        plane: PlaneAddr,
        block: usize,
        wl_base: usize,
        b_planes: &[BitBuf],
        sums: &mut Vec<BitBuf>,
    ) {
        reshape(sums, b_planes.len(), fa.geometry().page_bits());
        fa.reset_dlatch(plane, 2);
        for (i, (b_i, sum_i)) in b_planes.iter().zip(sums.iter_mut()).enumerate() {
            fa.io_load_slatch(plane, b_i);
            fa.slatch_to_dlatch(plane, 1);
            fa.and_dlatch_into_slatch(plane, 2);
            fa.xor_d1_d2_into_d1(plane);
            fa.slatch_to_dlatch(plane, 0);
            fa.read_to_slatch(PageAddr {
                plane,
                block,
                wordline: wl_base + i,
            });
            fa.slatch_to_dlatch(plane, 2);
            fa.dlatch_to_slatch(plane, 1);
            fa.and_dlatch_into_slatch(plane, 2);
            fa.xor_d1_d2_into_d1(plane);
            fa.slatch_to_dlatch(plane, 2);
            fa.dlatch_to_slatch(plane, 0);
            fa.or_slatch_into_dlatch(plane, 2);
            sum_i.copy_from(fa.io_read_dlatch(plane, 1));
        }
    }

    #[test]
    fn bop_add_into_equals_the_per_call_oracle() {
        let geometry = FlashGeometry::tiny_test();
        let bits = geometry.page_bits();
        let wordlines = geometry.wordlines_per_block;
        let planes = [
            PlaneAddr {
                channel: 0,
                die: 1,
                plane: 0,
            },
            PlaneAddr {
                channel: 1,
                die: 0,
                plane: 1,
            },
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..24 {
            // Two arrays holding the same pages and latches: blocks 0 and
            // 1 of each plane programmed on about two wordlines in three,
            // block 2 of the second plane never.
            let mut pages = Vec::new();
            for plane in planes {
                for block in 0..2 {
                    for wordline in 0..wordlines {
                        if rng.gen_range(0..3u32) != 0 {
                            let bits: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
                            let addr = PageAddr {
                                plane,
                                block,
                                wordline,
                            };
                            pages.push((addr, BitBuf::from_bits(&bits)));
                        }
                    }
                }
            }
            let latch_pages: Vec<BitBuf> = (0..2 * 4)
                .map(|_| BitBuf::from_bits(&(0..bits).map(|_| rng.gen()).collect::<Vec<_>>()))
                .collect();
            let build = || {
                let mut fa = FlashArray::new(geometry.clone());
                for (addr, page) in &pages {
                    fa.program_page(*addr, page.clone());
                }
                for (plane, loads) in planes.iter().zip(latch_pages.chunks(4)) {
                    for (d, page) in loads[1..].iter().enumerate() {
                        fa.io_load_slatch(*plane, page);
                        fa.slatch_to_dlatch(*plane, d);
                    }
                    fa.io_load_slatch(*plane, &loads[0]);
                }
                fa.reset_ledger();
                fa
            };
            let (mut fast, mut oracle) = (build(), build());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                let width = rng.gen_range(1..=32);
                let wl_base = rng.gen_range(0..=wordlines - width);
                let plane = planes[rng.gen_range(0..2usize)];
                let block = if plane == planes[1] {
                    rng.gen_range(0..3)
                } else {
                    rng.gen_range(0..2)
                };
                let b: Vec<u32> = (0..bits).map(|_| rng.gen()).collect();
                let b_planes = words_to_bitplanes(&b, width);
                bop_add_into(&mut fast, plane, block, wl_base, &b_planes, &mut got);
                bop_add_into_oracle(&mut oracle, plane, block, wl_base, &b_planes, &mut want);
                let at = format!("round {round} width {width} wl_base {wl_base} block {block}");
                assert_eq!(got, want, "sums differ at {at}");
                for plane in planes {
                    assert_eq!(
                        fast.peek_slatch(plane),
                        oracle.peek_slatch(plane),
                        "S at {at}"
                    );
                    for d in 0..D_LATCHES {
                        assert_eq!(
                            fast.peek_dlatch(plane, d),
                            oracle.peek_dlatch(plane, d),
                            "D{d} at {at}"
                        );
                    }
                }
                assert_eq!(fast.ledger(), oracle.ledger(), "ledger at {at}");
            }
        }
    }

    #[test]
    fn per_bit_cost_matches_equation_9() {
        let (mut fa, plane) = setup();
        let bits = fa.geometry().page_bits();
        store_words_vertical(&mut fa, plane, 0, 0, &vec![7u32; bits]);
        fa.reset_ledger();
        let width = 32;
        let _ = bop_add(
            &mut fa,
            plane,
            0,
            0,
            &words_to_bitplanes(&vec![9u32; bits], width),
        );
        let ledger = fa.ledger();
        assert_eq!(ledger.reads, width as u64);
        assert_eq!(ledger.dmas, 2 * width as u64);
        assert_eq!(ledger.xor_ops, 2 * width as u64);
        // The paper's Eq. 10 books 5 transfers + 4 AND/OR per bit; our
        // µ-program does 6 transfers + 3 AND/OR (plus one carry reset per
        // call) — same op count and identical time because the two op
        // classes share the 20 ns latch cost.
        assert_eq!(ledger.latch_transfers, 6 * width as u64 + 1);
        assert_eq!(ledger.and_or_ops, 3 * width as u64);
        let t = FlashTimings::paper_default();
        let per_bit = ledger.serial_time(&t) / width as f64;
        let eq9 = t.t_bit_add();
        assert!(
            (per_bit - eq9).abs() < 0.05e-6,
            "per-bit {per_bit} vs Eq.9 {eq9}"
        );
        assert_eq!(ledger.wear(), 0, "search must not program or erase");
    }

    #[test]
    fn transposition_helpers_roundtrip() {
        let words: Vec<u32> = (0..512u32).map(|i| i.wrapping_mul(0x0101_0107)).collect();
        let planes = words_to_bitplanes(&words, 32);
        assert_eq!(bitplanes_to_words(&planes), words);
        // Narrow widths truncate high bits.
        let low = bitplanes_to_words(&words_to_bitplanes(&words, 8));
        assert!(low.iter().zip(&words).all(|(&l, &w)| l == w & 0xFF));
    }

    /// The per-bit transposition the word-parallel one replaced.
    fn words_to_bitplanes_oracle(words: &[u32], width: usize) -> Vec<BitBuf> {
        (0..width)
            .map(|b| {
                BitBuf::from_bits(&words.iter().map(|&w| (w >> b) & 1 == 1).collect::<Vec<_>>())
            })
            .collect()
    }

    /// The per-bit reassembly the word-parallel one replaced.
    fn bitplanes_to_words_oracle(planes: &[BitBuf]) -> Vec<u32> {
        let mut out = vec![0u32; planes[0].len()];
        for (b, plane) in planes.iter().enumerate() {
            for (l, w) in out.iter_mut().enumerate() {
                if plane.get(l) {
                    *w |= 1 << b;
                }
            }
        }
        out
    }

    #[test]
    fn transposition_equals_the_per_bit_oracle_at_every_width_and_length() {
        let mut rng = StdRng::seed_from_u64(2032);
        // Reused across shapes, so stale pages of another shape are covered.
        let (mut planes, mut words_back) = (Vec::new(), Vec::new());
        for bitlines in [1usize, 31, 32, 33, 63, 64, 65, 100, 512, 4096 * 8] {
            let words: Vec<u32> = (0..bitlines).map(|_| rng.gen()).collect();
            // The widest page is only worth one narrow and one full pass.
            let widths: Vec<usize> = if bitlines > 512 {
                vec![7, 32]
            } else {
                (1..=32).collect()
            };
            for width in widths {
                let want = words_to_bitplanes_oracle(&words, width);
                words_to_bitplanes_into(&words, width, &mut planes);
                assert_eq!(planes, want, "bitlines={bitlines} width={width}");
                for plane in &planes {
                    assert_eq!(plane.len(), bitlines);
                    let tail = bitlines % 64;
                    if tail != 0 {
                        let last = plane.words()[bitlines / 64];
                        assert_eq!(last >> tail, 0, "bits set past len");
                    }
                }
                let mask = u32::MAX >> (32 - width);
                let low: Vec<u32> = words.iter().map(|&w| w & mask).collect();
                assert_eq!(bitplanes_to_words_oracle(&planes), low);
                bitplanes_to_words_into(&planes, &mut words_back);
                assert_eq!(words_back, low, "bitlines={bitlines} width={width}");
            }
        }
    }

    #[test]
    fn bop_add_matches_wrapping_add_off_the_word_grid() {
        // 13-byte pages: 104 bitlines, one full page word and a 40-bit tail.
        let geometry = FlashGeometry {
            page_bytes: 13,
            ..FlashGeometry::tiny_test()
        };
        let mut fa = FlashArray::new(geometry);
        let plane = PlaneAddr {
            channel: 1,
            die: 0,
            plane: 1,
        };
        let bits = fa.geometry().page_bits();
        let mut rng = StdRng::seed_from_u64(104);
        let mut sums = Vec::new();
        for round in 0..8 {
            let a: Vec<u32> = (0..bits).map(|_| rng.gen()).collect();
            let b: Vec<u32> = (0..bits).map(|_| rng.gen()).collect();
            store_words_vertical(&mut fa, plane, 2, 32, &a);
            bop_add_into(
                &mut fa,
                plane,
                2,
                32,
                &words_to_bitplanes(&b, 32),
                &mut sums,
            );
            let expect: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| x.wrapping_add(y)).collect();
            assert_eq!(bitplanes_to_words(&sums), expect, "round {round}");
        }
    }

    #[test]
    fn repeated_adds_accumulate() {
        // (A + B) + B again, reusing the array: store A, add B, write the
        // result back vertically, add B again.
        let (mut fa, plane) = setup();
        let bits = fa.geometry().page_bits();
        let a: Vec<u32> = (0..bits as u32).collect();
        let b: Vec<u32> = (0..bits as u32).map(|i| i * 3 + 1).collect();
        store_words_vertical(&mut fa, plane, 0, 0, &a);
        let s1 = bitplanes_to_words(&bop_add(&mut fa, plane, 0, 0, &words_to_bitplanes(&b, 32)));
        store_words_vertical(&mut fa, plane, 2, 32, &s1);
        let s2 = bitplanes_to_words(&bop_add(&mut fa, plane, 2, 32, &words_to_bitplanes(&b, 32)));
        let expect: Vec<u32> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x.wrapping_add(y).wrapping_add(y))
            .collect();
        assert_eq!(s2, expect);
    }
}
