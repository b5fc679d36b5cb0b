//! The metric-name registry: every name a `MetricsRegistry` in this
//! workspace registers, in one table.
//!
//! The `metric-names` lint rule (`cargo run -p cm_analyze`) parses this
//! module and enforces two invariants: no two constants here share a
//! value, and no `register_counter`/`register_gauge`/`register_histogram`
//! call anywhere else in the workspace passes a raw string literal — a
//! metric name that is not in this table does not exist. That keeps the
//! exposition namespace collision-free and makes the full catalog
//! greppable in one place (the README's "Observability" section is
//! generated from reading this file).
//!
//! Naming follows the Prometheus conventions: `cm_<layer>_<what>` with a
//! `_total` suffix on monotone counters, a `_us` suffix on microsecond
//! histograms, and plain nouns for gauges.

/// Time the reactor thread spent blocked in `epoll_wait`, µs per wait.
pub const REACTOR_EPOLL_WAIT_US: &str = "cm_reactor_epoll_wait_us";
/// Complete frames reassembled off connection sockets.
pub const REACTOR_FRAMES_ASSEMBLED: &str = "cm_reactor_frames_assembled_total";
/// Payload bytes read off connection sockets.
pub const REACTOR_BYTES_IN: &str = "cm_reactor_bytes_in_total";
/// Bytes written to connection sockets (including partial writes).
pub const REACTOR_BYTES_OUT: &str = "cm_reactor_bytes_out_total";
/// Bytes currently queued for write across all connections.
pub const REACTOR_WRITE_QUEUE_BYTES: &str = "cm_reactor_write_queue_bytes";
/// Connections accepted and admitted by the event loop.
pub const REACTOR_ACCEPTS: &str = "cm_reactor_accepts_total";
/// Connections rejected at the `max_open_sockets` cap.
pub const REACTOR_REJECTS: &str = "cm_reactor_rejects_total";
/// Connection closes, labeled `reason` with the [`CloseReason`] variant
/// (`peer_closed`, `violation`, `write_overflow`, `io`, `shutdown`,
/// `requested`).
///
/// [`CloseReason`]: https://docs.rs/cm_reactor
pub const REACTOR_CLOSES: &str = "cm_reactor_closes_total";

/// Jobs currently sitting in a worker pool's queue.
pub const EXEC_QUEUE_DEPTH: &str = "cm_exec_queue_depth";
/// Time a job waited in the pool queue before a worker picked it up, µs.
pub const EXEC_QUEUE_WAIT_US: &str = "cm_exec_queue_wait_us";
/// Time a job spent running on a worker, µs.
pub const EXEC_RUN_TIME_US: &str = "cm_exec_run_time_us";
/// Jobs that panicked on a worker (typed as `WorkerPanicked` upstream).
pub const EXEC_WORKER_PANICS: &str = "cm_exec_worker_panics_total";

/// End-to-end per-frame latency (admitted → replied), µs, labeled `tag`
/// with the request kind; its count is the number of frames answered.
pub const SERVER_REQUEST_LATENCY_US: &str = "cm_server_request_latency_us";
/// Queue wait per frame (admitted → dequeued by a pump worker), µs,
/// labeled `tag`.
pub const SERVER_QUEUE_WAIT_US: &str = "cm_server_queue_wait_us";
/// Serve time per frame (decoded → matched), µs, labeled `tag`.
pub const SERVER_SERVE_TIME_US: &str = "cm_server_serve_time_us";
/// Request frames currently admitted and not yet replied to.
pub const SERVER_INFLIGHT_FRAMES: &str = "cm_server_inflight_frames";
/// Typed `ServerBusy` rejections at the in-flight-frame cap, labeled
/// `cap="frames"`. Rejections at the socket cap are
/// [`REACTOR_REJECTS`].
pub const SERVER_BUSY_REJECTIONS: &str = "cm_server_busy_rejections_total";
/// Database upload payload bytes accepted from `LoadDatabase` chunks.
pub const SERVER_UPLOAD_BYTES: &str = "cm_server_upload_bytes_total";
/// `Hom-Add` operations per match request — the CM-SW server's only
/// homomorphic work, so this histogram is its entire compute profile.
/// Its sum is the total since startup; a rate is the difference of two
/// snapshots' sums over the time between them.
pub const SERVER_HOM_ADDS: &str = "cm_server_hom_adds";

/// Hot-tier databases demoted to the cold tier by budget pressure.
pub const REGISTRY_DEMOTIONS: &str = "cm_registry_demotions_total";
/// Cold databases rebuilt into the hot tier on demand.
pub const REGISTRY_REMATERIALIZATIONS: &str = "cm_registry_rematerializations_total";
/// Bytes of hot-tier databases currently charged to the registry.
pub const REGISTRY_HOT_BYTES: &str = "cm_registry_hot_bytes";
/// The configured host memory budget in bytes (-1 = unbounded).
pub const REGISTRY_MEMORY_BUDGET_BYTES: &str = "cm_registry_memory_budget_bytes";
/// Bytes of demoted databases resident as pages in the cold tier's
/// simulated flash (the master copies; no host-RAM duplicate exists).
pub const REGISTRY_COLD_BYTES: &str = "cm_registry_cold_bytes";
/// Flash program/erase cycles consumed by cold-tier lifecycle traffic
/// (demotion writes; re-materialization reads and in-flash searches are
/// wear-free).
pub const REGISTRY_FLASH_WEAR: &str = "cm_registry_flash_wear_total";
/// Match queries answered straight from the cold tier by a flash-native
/// (`ifp`) tenant, with no re-materialization. Monotone despite the
/// missing `_total` suffix — the name is pinned by the tiering design
/// docs.
pub const REGISTRY_COLD_HITS: &str = "cm_registry_cold_hits";
