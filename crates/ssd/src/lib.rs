#![warn(missing_docs)]

//! # cm-ssd
//!
//! The SSD system model for CM-IFP (paper §4.3.2): a two-region FTL
//! (conventional TLC / vertical-layout SLC CIPHERMATCH region), the
//! software/hardware data transposition unit, the `CM-read` / `CM-write` /
//! `CM-search` operations, controller-side index generation, and the
//! AES-protected index return channel of §7.2.
//!
//! There is no separate host-command layer: [`CmIfpServer`] and
//! [`ColdStore`] call the [`Ssd`] methods that implement each command.
//!
//! The headline integration property, enforced by tests: running
//! `CM-search` through the simulated flash latches produces **bit-identical
//! Hom-Add results** to the software CIPHERMATCH engine, while consuming
//! zero program/erase cycles.

mod cold;
mod ftl;
mod pipeline;
mod secure_index;
mod ssd;
mod transpose;

pub use cold::{ColdRead, ColdSlot, ColdStore, ColdWrite};
pub use ftl::{Ftl, GroupAddr, GROUP_WORDLINES};
pub use pipeline::CmIfpServer;
pub use secure_index::{MalformedIndexList, SecureIndexChannel, AES_AREA_MM2, AES_BLOCK_LATENCY};
pub use ssd::{ControllerModel, IfpReport, Ssd};
pub use transpose::{TransposeMode, TranspositionUnit};
