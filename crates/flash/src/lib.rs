#![warn(missing_docs)]

//! # cm-flash
//!
//! A functional + timing simulator of 3D NAND flash with the
//! compute-capable latch peripherals CIPHERMATCH requires (paper §2.3,
//! §4.3.1): channels/dies/planes/blocks/wordlines, per-plane sensing and
//! data latches with AND/OR/XOR ops, ESP SLC reads, and the `bop_add`
//! bit-serial adder µ-program of Fig. 5.
//!
//! The model is exact at the bit level — `bop_add` provably computes
//! wrapping addition — and every primitive op is logged with the Table 3
//! latencies/energies, so the same run yields both functional results and
//! the inputs to the paper's Eq. 9–11 cost model.
//!
//! ## Example
//!
//! ```
//! use cm_flash::{bop_add, store_words_vertical, words_to_bitplanes,
//!                bitplanes_to_words, FlashArray, FlashGeometry, PlaneAddr};
//!
//! let mut flash = FlashArray::new(FlashGeometry::tiny_test());
//! let plane = PlaneAddr { channel: 0, die: 0, plane: 0 };
//! let width = flash.geometry().page_bits();
//! let a = vec![41u32; width];
//! store_words_vertical(&mut flash, plane, 0, 0, &a); // one-time data load
//! flash.reset_ledger();
//! let sums = bop_add(&mut flash, plane, 0, 0, &words_to_bitplanes(&vec![1u32; width], 32));
//! assert!(bitplanes_to_words(&sums).iter().all(|&s| s == 42));
//! assert_eq!(flash.ledger().wear(), 0); // searching never programs/erases
//! ```

mod adder;
mod bitbuf;
mod chip;
mod geometry;
mod timing;

pub use adder::{
    bitplanes_to_words, bitplanes_to_words_into, bop_add, bop_add_into, store_words_vertical,
    words_to_bitplanes, words_to_bitplanes_into,
};
pub use bitbuf::BitBuf;
pub use chip::{FlashArray, D_LATCHES};
pub use geometry::{FlashGeometry, PageAddr, PlaneAddr};
pub use timing::{FlashEnergy, FlashLedger, FlashTimings};
