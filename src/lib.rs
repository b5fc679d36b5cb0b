#![warn(missing_docs)]

//! # ciphermatch
//!
//! A from-scratch Rust reproduction of **CIPHERMATCH** (Kabra et al.,
//! ASPLOS 2025): homomorphic-encryption-based secure exact string matching
//! accelerated by memory-efficient data packing and in-flash processing.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`hemath`] — modular arithmetic, negacyclic NTT, polynomial rings;
//! * [`bfv`] — the BFV scheme (Hom-Add, Hom-Mul, rotations, batching);
//! * [`tfhe`] — TFHE-style Boolean FHE with gate bootstrapping (the
//!   Boolean baseline's substrate);
//! * [`core`] — the CIPHERMATCH algorithm, its baselines, the unified
//!   matcher API and the work-pool runtime;
//! * [`server`] — the sharded, multi-tenant serving subsystem: binary
//!   wire protocol over TCP, thread-per-shard execution, and the CM-IFP
//!   engine as a first-class backend;
//! * [`flash`] / [`ssd`] — the 3D NAND + SSD simulators with the `bop_add`
//!   in-flash adder and `CM-search` command;
//! * [`telemetry`] — lock-free metrics (counters, gauges, log₂
//!   histograms) and per-frame request tracing for the serving stack;
//! * [`sim`] — the analytical models reproducing the paper's figures,
//!   with the SIMDRAM-style processing-using-memory model
//!   ([`sim::pum`]);
//! * [`workloads`] — DNA and key-value workload generators;
//! * [`aes`] — the AES engine for secure index transmission.
//!
//! ## Quickstart
//!
//! Every secure-matching engine sits behind the unified
//! [`SecureMatcher`](core::SecureMatcher) API: pick a
//! [`Backend`](core::Backend), build it with
//! [`MatcherConfig`](core::MatcherConfig), load a database, search:
//!
//! ```
//! use ciphermatch::core::{Backend, BitString, MatcherConfig};
//!
//! let mut matcher = MatcherConfig::new(Backend::Ciphermatch)
//!     .insecure_test() // small test parameters; drop for the paper's set
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! matcher
//!     .load_database(&BitString::from_ascii("secure string matching in storage"))
//!     .unwrap();
//! let (hits, _) = matcher.find_all(&BitString::from_ascii("string")).unwrap();
//! assert_eq!(hits, vec![7 * 8]);
//! let (hits, per_range) = matcher.find_all(&BitString::from_ascii("storage")).unwrap();
//! assert_eq!(hits, vec![26 * 8]);
//! // CM-SW's server side ran additions only: each search returns its stats.
//! let stats: ciphermatch::core::MatchStats = per_range.iter().sum();
//! assert_eq!(stats.hom_muls + stats.rotations, 0);
//! ```
//!
//! A search takes `&self`, so concurrent queries share one matcher
//! (`examples/encrypted_db_search.rs`); over TCP, [`server`] gives each
//! tenant one matcher and a limit of K queries at once.

pub use cm_aes as aes;
pub use cm_bfv as bfv;
pub use cm_core as core;
pub use cm_flash as flash;
pub use cm_hemath as hemath;
pub use cm_server as server;
pub use cm_sim as sim;
pub use cm_ssd as ssd;
pub use cm_telemetry as telemetry;
pub use cm_tfhe as tfhe;
pub use cm_workloads as workloads;
