#![warn(missing_docs)]

//! # cm-sim
//!
//! The analytical performance and energy models that reproduce the
//! CIPHERMATCH evaluation (paper §5–§6): the data-movement model behind
//! Figure 3, the software-approach models behind Figures 7–9, the
//! hardware-variant models (CM-PuM / CM-PuM-SSD / CM-IFP) behind
//! Figures 10–12, and the §6.3/§7 overhead analysis.
//!
//! Models are parameterized by [`SystemConstants`] (Tables 2–3 verbatim)
//! and a [`CalibrationProfile`] carrying measured per-operation costs —
//! either this repository's own measured rates
//! ([`CalibrationProfile::default_measured`]) or rates back-derived from
//! the paper's data points ([`CalibrationProfile::paper_rates`]).
//!
//! ## Example
//!
//! ```
//! use cm_sim::{fig12, CalibrationProfile, SystemConstants};
//!
//! let rows = fig12(&SystemConstants::paper_default(),
//!                  &CalibrationProfile::paper_rates());
//! // The Fig. 12 crossover: CM-PuM wins while the database fits in DRAM,
//! // CM-IFP wins at 128 GB.
//! assert!(rows[0].pum > rows[0].ifp);
//! assert!(rows.last().unwrap().ifp > rows.last().unwrap().pum);
//! ```

mod calibration;
mod constants;
mod datamove;
mod figures;
mod hw_models;
mod overheads;
pub mod pum;
mod sensitivity;
mod sw_models;

pub use calibration::{CalibrationProfile, PassModel};
pub use constants::{HostProfile, SystemConstants, GIB};
pub use datamove::{DataMoveModel, TransferLatency};
pub use figures::{
    fig10, fig11, fig12, fig3, fig7, fig8, fig9, Fig3Row, Fig9Row, HwSweepRow, SwSweepRow,
    DB_SIZES_GB, QUERY_SIZES,
};
pub use hw_models::HwModels;
pub use overheads::{area_overheads, storage_overheads, AreaOverheads, StorageOverheads};
pub use sensitivity::{sweep_cmsw_rate, sweep_pum_fraction, CrossoverOutcome};
pub use sw_models::{Cost, SwModels, Workload};
