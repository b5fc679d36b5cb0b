//! Multi-tenant state: one key domain per tenant, many tenants per
//! process — with a full remote database lifecycle.
//!
//! Each [`Tenant`] bundles a [`MatcherPool`] of K `boxed_clone`'d erased
//! matchers (which share the tenant's encrypted database by `Arc` and own
//! its HE key material) with the tenant's AES index channel
//! ([`cm_ssd::SecureIndexChannel`]) and lock-free lifetime statistics
//! ([`cm_core::StatsAccumulator`]). The [`TenantRegistry`] maps tenant
//! ids to tenants and is shared by every connection worker. Queries for
//! *different* tenants never contend, and up to K queries for the *same*
//! tenant run concurrently — each one checks a matcher out of the pool
//! for its exclusive use, so per-query [`MatchStats`] come from the job's
//! [`cm_core::ExecOutcome`] instead of a racy reset/read delta on one
//! shared matcher behind a mutex.
//!
//! That checkout is the middle of a Match's three stages: a frame-pool
//! worker (`crate::server`) decodes the request and blocks here for a
//! matcher; the matcher then either runs the query inline on that same
//! thread (every hosted backend, CM-SW's [`cm_core::CiphermatchMatcher`]
//! included) or — [`crate::ShardedCmMatcher`] — submits one job per
//! polynomial-range shard to the process-wide [`cm_core::compute_pool`].
//! Nothing is spawned per query and no tenant owns threads: the
//! registry's only pool of its own is the two-worker `builders` pool,
//! which bounds concurrent rebuilds and never runs a query.
//!
//! ## The two tiers and the memory budget
//!
//! The registry accounts every tenant database against a configurable
//! **host memory budget** (`ServerConfig::memory_budget`). A tenant is
//! either **hot** — a live [`MatcherPool`] holds its working state in
//! host memory, alongside the serialized upload bytes — or **cold** —
//! the serialized form has been written, page by page, into the
//! registry's [`cm_ssd::ColdStore`] (a simulated SSD's conventional
//! region) and the host-RAM copy dropped: after demotion the *only*
//! copy of the database is flash pages behind the FTL, which is the
//! paper's division of labor (the accelerator owns the data; the host
//! manages placement). Demotion charges `flash_wear` (one program per
//! page) and `bytes_moved` into the tenant's lifetime stats; promotion
//! reads the pages back (wear-free) with the same `bytes_moved` charge.
//!
//! Admitting a database past the budget demotes the least-recently-used
//! unpinned *remote* tenant (one registered from a serialized upload;
//! in-process tenants carry live key material that cannot be rebuilt
//! from bytes and are never demoted). A query for a cold tenant
//! transparently **re-materializes** its matcher pool through the shared
//! [`cm_core::exec`] runtime; in-flight queries on a demoted tenant
//! finish on their own `Arc` clone unharmed. Each re-materialization
//! seals replies under a fresh nonce prefix, so demotion cycles never
//! reuse an AES-CTR keystream.
//!
//! [`Backend::Ifp`] tenants are **flash-native**: their database already
//! lives in a simulated SSD's CIPHERMATCH region, so demotion *parks*
//! the matcher pool (small key material plus the device handle) instead
//! of destroying it, and [`TenantRegistry::run_query`] answers Match
//! queries for a cold `ifp` tenant straight from the parked device —
//! no re-materialization, no host-memory rebuild, no promotion. Cold is
//! IFP's native tier, not a penalty; the parked tenant's monotone nonce
//! counter keeps sealing safe across the demotion.
//!
//! ## Authorization
//!
//! The first *committed* upload for a tenant id **binds** the id to the
//! presented channel key (the wire stand-in for the paper's offline
//! provisioning step) — an unauthenticated `Begin` alone binds nothing
//! and creates no server state, so ids cannot be squatted for free. The
//! binding outlives eviction, so an id cannot be hijacked by
//! re-registering it. Every later upload must present the same key,
//! every upload tag binds the declared size, the full [`TenantSpec`],
//! and a digest of the payload bytes ([`crate::wire::upload_tag`]),
//! every evict must prove possession with an [`crate::wire::auth_tag`]
//! MAC (the key itself never travels in an evict frame), and per-tenant
//! nonces must strictly increase — replays are rejected with
//! [`MatchError::Unauthorized`] and leave the registry untouched.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use cm_core::{
    Backend, BitString, ErasedMatcher, MatchError, MatchStats, MatcherPool, StatsAccumulator,
    WorkerPool,
};
use cm_ssd::{ColdSlot, ColdStore, SecureIndexChannel};
use cm_telemetry::{metric_names, Counter, Gauge, MetricsRegistry};

use crate::ifp::IfpMatcher;
use crate::wire::{
    auth_tag, content_digest, keys_match, tags_match, upload_tag, DatabaseInfoReply, EvictAuth,
    QueryPayload, TenantInfo, TenantSpec, UploadAuth, OP_EVICT,
};

/// Matcher-pool size [`TenantRegistry::register`] provisions when the
/// caller does not choose one ([`TenantRegistry::register_with_workers`]
/// does): up to this many queries per tenant run concurrently.
pub const DEFAULT_TENANT_WORKERS: usize = 4;

/// Workers on the registry's build pool: how many cold tenants can
/// re-materialize (or remote uploads finish registering) concurrently.
const BUILD_WORKERS: usize = 2;

/// The result of one tenant query, ready to serialize.
#[derive(Debug, Clone)]
pub struct MatchedReply {
    /// The server-assigned AES-CTR nonce the index list was sealed with.
    pub nonce: u64,
    /// AES-sealed index list.
    pub sealed_indices: Vec<u8>,
    /// Statistics this query added.
    pub stats: MatchStats,
    /// Per-shard breakdown of `stats`.
    pub shard_stats: Vec<MatchStats>,
    /// Wall-clock time the query spent on its checked-out matcher.
    pub elapsed: Duration,
    /// Modeled hardware latency of the sealing step.
    pub seal_latency: Duration,
}

/// The outcome of admitting a remote database
/// ([`TenantRegistry::register_remote`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteLoad {
    /// The registry's accounting charge for the database in bytes (the
    /// serialized length).
    pub bytes: u64,
    /// Tenants the admission demoted to the cold tier, LRU-first.
    pub demoted: Vec<String>,
}

/// One registered key owner.
pub struct Tenant {
    id: String,
    backend: Backend,
    pool: MatcherPool,
    channel: SecureIndexChannel,
    // AES-CTR keystreams must never repeat under one channel key: the
    // nonce is a tenant-wide monotonic counter, never client input. Its
    // high 32 bits are a registration-time fresh prefix so that a process
    // restart, re-registration, or cold-tier re-materialization under a
    // long-lived key does not replay the counter from 1.
    next_nonce: AtomicU64,
    totals: Arc<StatsAccumulator>,
}

/// A fresh per-registration nonce prefix: the counter occupies the low 32
/// bits, this fills the high 32 with registration-time entropy (wall
/// clock), so two registrations under one channel key do not share
/// keystreams.
fn nonce_prefix() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9E37_79B9_7F4A_7C15);
    // Mix so that close-together timestamps still differ in the kept bits.
    let mixed = nanos.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ nanos.rotate_left(31);
    mixed << 32
}

/// A deterministic per-tenant seed so pool members get distinct
/// randomness streams that differ between tenants too.
fn tenant_seed(id: &str) -> u64 {
    // FNV-1a over the id bytes.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in id.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("id", &self.id)
            .field("backend", &self.backend)
            .field("workers", &self.pool.size())
            .finish()
    }
}

impl Tenant {
    fn assemble(
        id: &str,
        backend: Backend,
        pool: MatcherPool,
        channel_key: &[u8; 32],
        totals: Arc<StatsAccumulator>,
    ) -> Self {
        Self {
            id: id.to_string(),
            backend,
            pool,
            channel: SecureIndexChannel::new(channel_key),
            next_nonce: AtomicU64::new(nonce_prefix() | 1),
            totals,
        }
    }

    /// The tenant id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The backend serving this tenant.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The matcher-pool size K: how many of this tenant's queries can run
    /// concurrently.
    pub fn workers(&self) -> usize {
        self.pool.size()
    }

    /// Runs one query on a matcher checked out of the tenant's pool
    /// (blocking while all K are busy) and seals the resulting index list
    /// under a fresh server-assigned nonce (returned in the reply).
    ///
    /// # Errors
    ///
    /// Propagates the matcher's [`MatchError`] (bad query, wrong wire
    /// format, …); a matcher that panics mid-query surfaces as
    /// [`MatchError::WorkerPanicked`] instead of unwinding the serving
    /// thread.
    pub fn run(&self, query: &QueryPayload) -> Result<MatchedReply, MatchError> {
        let outcome = self.pool.try_run(|matcher| {
            let indices = match query {
                QueryPayload::Bits(bits) => matcher.find_all(bits),
                QueryPayload::CmWire(bytes) => matcher.find_all_wire(bytes),
            };
            let shard_stats = matcher.shard_stats();
            (indices, shard_stats)
        })?;
        let (indices, shard_stats) = outcome.result;
        let indices = indices?;
        let nonce = self.next_nonce.fetch_add(1, Ordering::Relaxed);
        let (sealed_indices, latency) = self.channel.seal(&indices, nonce);
        self.totals.record(&outcome.stats);
        Ok(MatchedReply {
            nonce,
            sealed_indices,
            stats: outcome.stats,
            shard_stats,
            elapsed: outcome.elapsed,
            seal_latency: Duration::from_secs_f64(latency),
        })
    }

    /// Lifetime statistics: field-wise totals and the query count,
    /// accumulated atomically from per-query outcomes. Survives cold-tier
    /// demotion and re-materialization (the accumulator is shared with
    /// the registry entry).
    pub fn totals(&self) -> (MatchStats, u64) {
        self.totals.snapshot()
    }
}

/// The id → channel-key binding plus the nonce high-water mark; outlives
/// eviction so an id cannot be hijacked and old nonces cannot be
/// replayed after a re-upload.
struct AuthRecord {
    channel_key: [u8; 32],
    last_nonce: u64,
}

/// One registered tenant's registry-side state.
struct TenantEntry {
    backend: Backend,
    channel_key: [u8; 32],
    workers: usize,
    pinned: bool,
    /// Bumped every time the entry is (re-)inserted, so an off-lock
    /// re-materialization can detect that the tenant it rebuilt was
    /// replaced in the meantime and must not be installed.
    generation: u64,
    /// LRU stamp: bumped on every lookup.
    last_used: u64,
    /// The accounting charge while hot, in bytes.
    charge: u64,
    /// Lifetime stats, shared with the hot [`Tenant`] (survives
    /// demotion).
    totals: Arc<StatsAccumulator>,
    /// For remote tenants: how to rebuild the matcher. `None` marks an
    /// in-process tenant, which can never be demoted.
    spec: Option<TenantSpec>,
    /// For remote tenants while **hot**: the serialized upload bytes
    /// (kept so demotion can write the master copy to flash without an
    /// export pass). `None` while cold — demotion moves the bytes into
    /// the cold store and drops this host-RAM copy.
    encoded: Option<Arc<Vec<u8>>>,
    /// While **cold**: where in the registry's flash-backed cold store
    /// the serialized master copy lives.
    cold: Option<ColdSlot>,
    /// The live tenant while hot; `None` while demoted to the cold tier.
    hot: Option<Arc<Tenant>>,
    /// For demoted [`Backend::Ifp`] tenants: the parked pool (keys plus
    /// the shared SSD device) that serves Match queries straight from
    /// flash while cold. `None` for every other state.
    parked: Option<Arc<Tenant>>,
}

/// Telemetry handles for the registry's hot/cold lifecycle. Defaults to
/// disabled no-ops; [`TenantRegistry::install_telemetry`] swaps in live
/// handles.
#[derive(Debug, Default)]
struct RegistryMetrics {
    /// Budget-driven demotions to the cold tier.
    demotions: Counter,
    /// Cold-tier rebuilds installed by [`TenantRegistry::get`].
    rematerializations: Counter,
    /// Mirror of [`Inner::hot_bytes`].
    hot_bytes: Gauge,
    /// Mirror of [`Inner::budget`] (`-1` when unbounded).
    budget: Gauge,
    /// Mirror of [`Inner::cold_bytes`].
    cold_bytes: Gauge,
    /// Flash program/erase cycles spent on cold-tier lifecycle traffic.
    flash_wear: Counter,
    /// Match queries served from the cold tier by a parked `ifp` tenant.
    cold_hits: Counter,
}

/// The budget gauge's encoding of "unbounded" (a `u64::MAX` budget
/// would otherwise wrap the i64 gauge negative anyway).
fn budget_gauge_value(budget: u64) -> i64 {
    if budget == u64::MAX {
        -1
    } else {
        budget as i64
    }
}

struct Inner {
    tenants: HashMap<String, TenantEntry>,
    auth: HashMap<String, AuthRecord>,
    /// Sum of the charges of every hot tenant.
    hot_bytes: u64,
    /// Sum of the byte lengths of every demoted database's flash-resident
    /// master copy.
    cold_bytes: u64,
    /// Host memory budget in bytes; `u64::MAX` means unbounded.
    budget: u64,
    /// Monotonic LRU clock.
    clock: u64,
    /// Lifecycle telemetry (no-ops until installed). Lives inside
    /// `Inner` so every `hot_bytes` mutation site — including the
    /// static [`TenantRegistry::ensure_capacity`] — can keep the gauge
    /// in lock-step under the same lock.
    metrics: RegistryMetrics,
}

impl Inner {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Mirrors `hot_bytes` into its gauge; call after every mutation.
    fn sync_hot_bytes(&self) {
        self.metrics.hot_bytes.set(self.hot_bytes as i64);
    }

    /// Mirrors `cold_bytes` into its gauge; call after every mutation.
    fn sync_cold_bytes(&self) {
        self.metrics.cold_bytes.set(self.cold_bytes as i64);
    }
}

/// The tenant id → tenant map a serving process is built around, with
/// registry-level memory accounting and the hot/cold lifecycle (see the
/// module docs).
pub struct TenantRegistry {
    inner: Mutex<Inner>,
    /// The flash-backed cold tier: demoted databases live here as pages
    /// in a simulated SSD's conventional region, and nowhere else. Lock
    /// order is `inner` → `cold` (never the reverse), and neither lock
    /// is ever held across a build-pool submit.
    cold: Mutex<ColdStore>,
    /// Remote matcher builds (uploads and cold-tier re-materializations)
    /// run as jobs on this shared-runtime pool, never on ad-hoc threads.
    builders: WorkerPool,
}

impl std::fmt::Debug for TenantRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("TenantRegistry")
            .field("tenants", &inner.tenants.len())
            .field("hot_bytes", &inner.hot_bytes)
            .field(
                "budget",
                &(inner.budget != u64::MAX).then_some(inner.budget),
            )
            .finish()
    }
}

impl Default for TenantRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl TenantRegistry {
    /// An empty registry with an unbounded memory budget.
    pub fn new() -> Self {
        #[allow(clippy::expect_used)] // infallible: BUILD_WORKERS is a non-zero constant
        let builders = WorkerPool::new(BUILD_WORKERS)
            // cm_analyze::allow(no-panic): BUILD_WORKERS is a non-zero constant
            .expect("non-zero build pool");
        Self {
            inner: Mutex::new(Inner {
                tenants: HashMap::new(),
                auth: HashMap::new(),
                hot_bytes: 0,
                cold_bytes: 0,
                budget: u64::MAX,
                clock: 0,
                metrics: RegistryMetrics::default(),
            }),
            cold: Mutex::new(ColdStore::with_default_geometry()),
            builders,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_cold(&self) -> MutexGuard<'_, ColdStore> {
        self.cold
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Sets the host memory budget in bytes (`None` = unbounded). Hot
    /// tenants above a newly lowered budget are demoted lazily, at the
    /// next admission.
    pub fn set_memory_budget(&self, budget: Option<u64>) {
        let mut inner = self.lock();
        inner.budget = budget.unwrap_or(u64::MAX);
        inner.metrics.budget.set(budget_gauge_value(inner.budget));
    }

    /// Registers the registry's lifecycle metrics
    /// (`cm_registry_demotions_total`, `cm_registry_hot_bytes`, …) with
    /// `metrics` and seeds the gauges from the current state.
    /// [`crate::MatchServer`] installs its server-wide registry here at
    /// spawn; standalone registries can install their own.
    pub fn install_telemetry(&self, metrics: &MetricsRegistry) {
        let mut inner = self.lock();
        inner.metrics = RegistryMetrics {
            demotions: metrics.register_counter(metric_names::REGISTRY_DEMOTIONS, &[]),
            rematerializations: metrics
                .register_counter(metric_names::REGISTRY_REMATERIALIZATIONS, &[]),
            hot_bytes: metrics.register_gauge(metric_names::REGISTRY_HOT_BYTES, &[]),
            budget: metrics.register_gauge(metric_names::REGISTRY_MEMORY_BUDGET_BYTES, &[]),
            cold_bytes: metrics.register_gauge(metric_names::REGISTRY_COLD_BYTES, &[]),
            flash_wear: metrics.register_counter(metric_names::REGISTRY_FLASH_WEAR, &[]),
            cold_hits: metrics.register_counter(metric_names::REGISTRY_COLD_HITS, &[]),
        };
        inner.metrics.budget.set(budget_gauge_value(inner.budget));
        inner.sync_hot_bytes();
        inner.sync_cold_bytes();
    }

    /// The configured host memory budget (`None` = unbounded).
    pub fn memory_budget(&self) -> Option<u64> {
        let budget = self.lock().budget;
        (budget != u64::MAX).then_some(budget)
    }

    /// Total accounting charge of the hot tier in bytes.
    pub fn hot_bytes(&self) -> u64 {
        self.lock().hot_bytes
    }

    /// Bytes of demoted databases resident in the cold tier's flash.
    pub fn cold_bytes(&self) -> u64 {
        self.lock().cold_bytes
    }

    /// Cumulative program/erase cycles of the cold store's device — the
    /// ground truth the per-tenant `flash_wear` charges must reconcile
    /// against (demotions program pages; reads and searches are free).
    pub fn cold_store_wear(&self) -> u64 {
        self.lock_cold().device_wear()
    }

    /// Bytes of the tenant's serialized database currently held in host
    /// RAM (0 while demoted — the flash pages are then the only copy).
    /// Introspection for tests pinning the tiering invariant; in-process
    /// tenants report 0 because they never stage serialized bytes.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered.
    pub fn host_copy_bytes(&self, id: &str) -> Result<u64, MatchError> {
        let inner = self.lock();
        inner
            .tenants
            .get(id)
            .map(|e| e.encoded.as_ref().map_or(0, |enc| enc.len() as u64))
            .ok_or_else(|| MatchError::UnknownTenant(id.to_string()))
    }

    /// Registers a tenant with [`DEFAULT_TENANT_WORKERS`] pool members:
    /// loads `database` into `matcher` (encrypting it under the matcher's
    /// keys) and provisions the AES-256 index channel with `channel_key` —
    /// the key the paper delivers to the client in its offline step.
    ///
    /// # Errors
    ///
    /// [`MatchError::InvalidConfig`] for a duplicate or over-long id,
    /// [`MatchError::QuotaExceeded`] when the database cannot fit the
    /// memory budget, and whatever the matcher's `load_database` reports.
    pub fn register(
        &mut self,
        id: &str,
        matcher: Box<dyn ErasedMatcher>,
        channel_key: &[u8; 32],
        database: &BitString,
    ) -> Result<(), MatchError> {
        self.register_with_workers(id, matcher, DEFAULT_TENANT_WORKERS, channel_key, database)
    }

    /// Registers a tenant whose matcher pool holds `workers` members, so
    /// up to `workers` of its queries run concurrently. The database is
    /// encrypted once; the pool members share it by `Arc`.
    ///
    /// In-process tenants hold live key material that cannot be rebuilt
    /// from serialized bytes, so they are never demoted to the cold tier
    /// (only counted against the budget). Remote key owners use
    /// [`Self::register_remote`] / `Request::LoadDatabase` instead.
    ///
    /// # Errors
    ///
    /// [`MatchError::InvalidConfig`] for a duplicate/over-long id or a
    /// zero worker count, [`MatchError::QuotaExceeded`] when the database
    /// cannot fit the memory budget, and whatever the matcher's
    /// `load_database` reports.
    pub fn register_with_workers(
        &mut self,
        id: &str,
        mut matcher: Box<dyn ErasedMatcher>,
        workers: usize,
        channel_key: &[u8; 32],
        database: &BitString,
    ) -> Result<(), MatchError> {
        if id.is_empty() || id.len() > crate::wire::MAX_TENANT_ID {
            return Err(MatchError::InvalidConfig("tenant id length out of range"));
        }
        if self.lock().tenants.contains_key(id) {
            return Err(MatchError::InvalidConfig("duplicate tenant id"));
        }
        matcher.load_database(database)?;
        let backend = matcher.backend();
        let charge = matcher.database_bytes().unwrap_or(0);
        let pool = MatcherPool::new(matcher, workers, tenant_seed(id))?;
        let totals = Arc::new(StatsAccumulator::new());
        let tenant = Arc::new(Tenant::assemble(
            id,
            backend,
            pool,
            channel_key,
            Arc::clone(&totals),
        ));
        let mut inner = self.lock();
        if inner.tenants.contains_key(id) {
            return Err(MatchError::InvalidConfig("duplicate tenant id"));
        }
        Self::ensure_capacity(&mut inner, &self.cold, charge, id)?;
        let clock = inner.tick();
        inner.tenants.insert(
            id.to_string(),
            TenantEntry {
                backend,
                channel_key: *channel_key,
                workers,
                pinned: true,
                generation: clock,
                last_used: clock,
                charge,
                totals,
                spec: None,
                encoded: None,
                cold: None,
                hot: Some(tenant),
                parked: None,
            },
        );
        inner.hot_bytes += charge;
        inner.sync_hot_bytes();
        // The operator binds (or re-binds) the id to this channel key.
        // The nonce high-water mark is preserved: re-provisioning an id
        // must never resurrect previously captured upload/evict tags.
        inner
            .auth
            .entry(id.to_string())
            .and_modify(|record| record.channel_key = *channel_key)
            .or_insert_with(|| AuthRecord {
                channel_key: *channel_key,
                last_nonce: 0,
            });
        Ok(())
    }

    /// Checks a `Request::LoadDatabase` `Begin` frame's authorization:
    /// the tag must verify under the presented key (binding the nonce,
    /// declared size, spec, and payload digest), and for an id with an
    /// existing binding the key must match and the nonce must strictly
    /// exceed the tenant's high-water mark.
    ///
    /// This check mutates **nothing** — in particular it creates no
    /// binding for an unknown id (an unauthenticated `Begin` must not be
    /// able to squat ids or grow server state). The nonce is consumed,
    /// and a first-contact id is bound to its key, only when the upload
    /// *commits* ([`Self::register_remote`]).
    ///
    /// # Errors
    ///
    /// [`MatchError::Unauthorized`].
    pub fn authorize_upload(
        &self,
        id: &str,
        auth: &UploadAuth,
        total_bytes: u64,
        spec: &TenantSpec,
    ) -> Result<(), MatchError> {
        let expected = upload_tag(
            &auth.channel_key,
            id,
            auth.nonce,
            total_bytes,
            spec,
            &auth.content,
        );
        if !tags_match(&expected, &auth.tag) {
            return Err(MatchError::Unauthorized("upload tag does not verify"));
        }
        let inner = self.lock();
        Self::check_binding(&inner, id, &auth.channel_key, auth.nonce)
    }

    /// The id→key binding rule, shared by the `Begin` gate and the
    /// commit boundary: if the id is bound, the presented key must match
    /// (constant-time — a mismatch must not leak the provisioned key's
    /// matching prefix length) and the nonce must strictly exceed the
    /// high-water mark. An unbound id passes.
    fn check_binding(
        inner: &Inner,
        id: &str,
        channel_key: &[u8; 32],
        nonce: u64,
    ) -> Result<(), MatchError> {
        if let Some(record) = inner.auth.get(id) {
            if !keys_match(&record.channel_key, channel_key) {
                return Err(MatchError::Unauthorized(
                    "channel key does not match the tenant's provisioned key",
                ));
            }
            if nonce <= record.last_nonce {
                return Err(MatchError::Unauthorized("replayed upload nonce"));
            }
        }
        Ok(())
    }

    /// Admits a fully uploaded remote database: verifies the upload
    /// authorization end to end (tag, key binding, nonce freshness, and
    /// that the bytes hash to the authorized [`content_digest`]),
    /// rebuilds the matcher from `spec` on the registry's build pool,
    /// loads the serialized database, accounts `encoded.len()` bytes
    /// against the budget (demoting LRU unpinned remote tenants as
    /// needed), and registers the tenant hot. Re-uploading over an
    /// existing id (same channel key) replaces the database and keeps
    /// the lifetime statistics (and any operator-set pin). The nonce is
    /// consumed — and a first-contact id bound to its key — only on
    /// success; a wire admission never *creates* a pin (pinning is
    /// operator-only, [`Self::set_pinned`]).
    ///
    /// # Errors
    ///
    /// [`MatchError::Unauthorized`] on a bad tag, key mismatch, replayed
    /// nonce, or content-digest mismatch; [`MatchError::QuotaExceeded`]
    /// when the database cannot fit even after demotions;
    /// [`MatchError::InvalidConfig`] / [`MatchError::UnknownBackend`]
    /// for a bad spec; decode errors for malformed database bytes. All
    /// failures leave the registry untouched.
    pub fn register_remote(
        &self,
        id: &str,
        spec: &TenantSpec,
        encoded: Vec<u8>,
        auth: &UploadAuth,
    ) -> Result<RemoteLoad, MatchError> {
        if id.is_empty() || id.len() > crate::wire::MAX_TENANT_ID {
            return Err(MatchError::InvalidConfig("tenant id length out of range"));
        }
        if let Some(why) = spec.out_of_range() {
            return Err(MatchError::InvalidConfig(why));
        }
        // Full authorization at the commit boundary: the tag must bind
        // exactly these bytes' length, this spec, and this payload
        // digest — and the digest must match what actually arrived.
        self.authorize_upload(id, auth, encoded.len() as u64, spec)?;
        if !tags_match(&content_digest(&auth.channel_key, &encoded), &auth.content) {
            return Err(MatchError::Unauthorized(
                "database bytes do not match the authorized digest",
            ));
        }
        let channel_key = &auth.channel_key;
        let encoded = Arc::new(encoded);
        let charge = encoded.len() as u64;
        let matcher = self.build_remote(spec, Arc::clone(&encoded))?;
        let backend = matcher.backend();
        let pool = MatcherPool::new(matcher, spec.workers as usize, tenant_seed(id))?;

        let mut inner = self.lock();
        // Re-check under the final lock (the build ran unlocked): the
        // binding may have appeared or advanced concurrently.
        Self::check_binding(&inner, id, channel_key, auth.nonce)?;
        // Replacing an existing hot database frees its charge first, so
        // a re-upload is not double-counted while both copies exist.
        let replaced_hot_charge = inner
            .tenants
            .get(id)
            .filter(|e| e.hot.is_some())
            .map_or(0, |e| e.charge);
        inner.hot_bytes -= replaced_hot_charge;
        let demoted = match Self::ensure_capacity(&mut inner, &self.cold, charge, id) {
            Ok(demoted) => demoted,
            Err(e) => {
                inner.hot_bytes += replaced_hot_charge;
                inner.sync_hot_bytes();
                return Err(e);
            }
        };
        // Success is now certain: consume the nonce and (on first
        // contact) bind the id to the key.
        inner
            .auth
            .entry(id.to_string())
            .and_modify(|record| record.last_nonce = auth.nonce)
            .or_insert_with(|| AuthRecord {
                channel_key: *channel_key,
                last_nonce: auth.nonce,
            });
        let mut replaced = inner.tenants.remove(id);
        // A replaced *cold* database frees its flash pages: the re-upload
        // supersedes the old master copy.
        if let Some(slot) = replaced.as_mut().and_then(|old| old.cold.take()) {
            inner.cold_bytes -= self.lock_cold().remove(slot);
            inner.sync_cold_bytes();
        }
        // An operator-set pin survives the owner's re-upload; wire
        // admissions themselves never create one.
        let pinned = replaced.as_ref().is_some_and(|old| old.pinned);
        let totals = replaced
            .map(|old| old.totals)
            .unwrap_or_else(|| Arc::new(StatsAccumulator::new()));
        let tenant = Arc::new(Tenant::assemble(
            id,
            backend,
            pool,
            channel_key,
            Arc::clone(&totals),
        ));
        let clock = inner.tick();
        inner.tenants.insert(
            id.to_string(),
            TenantEntry {
                backend,
                channel_key: *channel_key,
                workers: spec.workers as usize,
                pinned,
                generation: clock,
                last_used: clock,
                charge,
                totals,
                spec: Some(spec.clone()),
                encoded: Some(encoded),
                cold: None,
                hot: Some(tenant),
                parked: None,
            },
        );
        inner.hot_bytes += charge;
        inner.sync_hot_bytes();
        Ok(RemoteLoad {
            bytes: charge,
            demoted,
        })
    }

    /// Retires a tenant entirely — hot tier, cold tier, and accounting —
    /// after verifying possession of the channel key. The id's key
    /// binding and nonce high-water mark survive, so the id cannot be
    /// hijacked and old upload nonces stay dead.
    ///
    /// Returns the hot-tier bytes released (0 if the database was cold).
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant exists;
    /// [`MatchError::Unauthorized`] for a bad tag or replayed nonce —
    /// both leave the registry untouched.
    pub fn evict(&self, id: &str, auth: &EvictAuth) -> Result<u64, MatchError> {
        let mut inner = self.lock();
        if !inner.tenants.contains_key(id) {
            return Err(MatchError::UnknownTenant(id.to_string()));
        }
        let Some(record) = inner.auth.get_mut(id) else {
            return Err(MatchError::Internal(
                "registered tenant lost its auth record",
            ));
        };
        let expected = auth_tag(&record.channel_key, OP_EVICT, id, 0, auth.nonce, &[]);
        if !tags_match(&expected, &auth.tag) {
            return Err(MatchError::Unauthorized("evict tag does not verify"));
        }
        if auth.nonce <= record.last_nonce {
            return Err(MatchError::Unauthorized("replayed evict nonce"));
        }
        record.last_nonce = auth.nonce;
        let Some(mut entry) = inner.tenants.remove(id) else {
            return Err(MatchError::Internal("tenant entry vanished under the lock"));
        };
        let freed = if entry.hot.is_some() { entry.charge } else { 0 };
        inner.hot_bytes -= freed;
        inner.sync_hot_bytes();
        // A cold database's flash pages are released too: eviction must
        // return both tiers' accounting to zero.
        if let Some(slot) = entry.cold.take() {
            inner.cold_bytes -= self.lock_cold().remove(slot);
            inner.sync_cold_bytes();
        }
        Ok(freed)
    }

    /// Pins or unpins a tenant: pinned tenants are exempt from
    /// budget-driven demotion to the cold tier.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered.
    pub fn set_pinned(&self, id: &str, pinned: bool) -> Result<(), MatchError> {
        let mut inner = self.lock();
        let entry = inner
            .tenants
            .get_mut(id)
            .ok_or_else(|| MatchError::UnknownTenant(id.to_string()))?;
        entry.pinned = pinned;
        Ok(())
    }

    /// Whether the tenant's database is hot (a live matcher pool holds
    /// it) rather than demoted to the cold tier.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered.
    pub fn is_resident(&self, id: &str) -> Result<bool, MatchError> {
        let inner = self.lock();
        inner
            .tenants
            .get(id)
            .map(|e| e.hot.is_some())
            .ok_or_else(|| MatchError::UnknownTenant(id.to_string()))
    }

    /// A tenant database's lifecycle state (tier, accounting charge,
    /// pinning, lifetime query count) without re-materializing it.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered.
    pub fn info(&self, id: &str) -> Result<DatabaseInfoReply, MatchError> {
        let inner = self.lock();
        let entry = inner
            .tenants
            .get(id)
            .ok_or_else(|| MatchError::UnknownTenant(id.to_string()))?;
        // Where the serving copy physically lives: `ifp` databases are in
        // a simulated SSD's CIPHERMATCH region whether hot or parked, and
        // any demoted database is pages in the cold store — only a hot
        // non-ifp database is actually DRAM-resident.
        let tier = if entry.backend == Backend::Ifp || entry.hot.is_none() {
            "flash"
        } else {
            "dram"
        };
        Ok(DatabaseInfoReply {
            backend: entry.backend.name().to_string(),
            resident: entry.hot.is_some(),
            pinned: entry.pinned,
            tier: tier.to_string(),
            bytes: entry.charge,
            workers: entry.workers as u32,
            queries: entry.totals.snapshot().1,
        })
    }

    /// A tenant's lifetime statistics and query count without
    /// re-materializing it.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered.
    pub fn totals_of(&self, id: &str) -> Result<(MatchStats, u64), MatchError> {
        let inner = self.lock();
        inner
            .tenants
            .get(id)
            .map(|e| e.totals.snapshot())
            .ok_or_else(|| MatchError::UnknownTenant(id.to_string()))
    }

    /// Looks a tenant up by id, transparently re-materializing a
    /// cold-tier tenant: the serialized master copy is read back out of
    /// the flash-backed cold store (wear-free), the matcher pool rebuilt
    /// from it on the registry's build pool (flash-native `ifp` tenants
    /// skip the rebuild and unpark their pool), other tenants demoted if
    /// the budget requires it, and the read's `bytes_moved` charged to
    /// the tenant at install time. Bumps the tenant's LRU stamp.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered;
    /// [`MatchError::QuotaExceeded`] when a cold tenant cannot be brought
    /// back within the budget.
    pub fn get(&self, id: &str) -> Result<Arc<Tenant>, MatchError> {
        loop {
            let (spec, slot, parked, workers, channel_key, totals, charge, backend, generation) = {
                let mut inner = self.lock();
                let clock = inner.tick();
                let entry = inner
                    .tenants
                    .get_mut(id)
                    .ok_or_else(|| MatchError::UnknownTenant(id.to_string()))?;
                entry.last_used = clock;
                if let Some(tenant) = &entry.hot {
                    return Ok(Arc::clone(tenant));
                }
                // Feasibility before the expensive rebuild: if the
                // budget minus the undemotable (pinned or in-process)
                // hot bytes cannot hold this database, fail now instead
                // of building a matcher pool only to discard it — a
                // repeated query for an unplaceable cold tenant must not
                // clog the build pool.
                let charge = entry.charge;
                let undemotable: u64 = inner
                    .tenants
                    .iter()
                    .filter(|(tid, e)| {
                        e.hot.is_some()
                            && (e.pinned || e.spec.is_none() || e.encoded.is_none())
                            && tid.as_str() != id
                    })
                    .map(|(_, e)| e.charge)
                    .sum();
                if charge.saturating_add(undemotable) > inner.budget {
                    return Err(MatchError::QuotaExceeded {
                        budget: inner.budget,
                        required: charge,
                    });
                }
                let Some(entry) = inner.tenants.get_mut(id) else {
                    return Err(MatchError::Internal("tenant entry vanished under the lock"));
                };
                let Some(spec) = entry.spec.clone() else {
                    return Err(MatchError::Internal(
                        "cold entry is missing its rebuild spec",
                    ));
                };
                let Some(slot) = entry.cold.clone() else {
                    return Err(MatchError::Internal("cold entry is missing its flash slot"));
                };
                (
                    spec,
                    slot,
                    entry.parked.clone(),
                    entry.workers,
                    entry.channel_key,
                    Arc::clone(&entry.totals),
                    entry.charge,
                    entry.backend,
                    entry.generation,
                )
            };
            // Read the master copy back out of flash, off the registry
            // lock. Non-destructive: the slot stays live until the
            // install commits, so a lost race just retries.
            let read = self.lock_cold().get(&slot)?;
            let (read_wear, read_moved) = (read.flash_wear, read.bytes_moved);
            let bytes = Arc::new(read.bytes);
            let tenant = if let Some(parked) = parked {
                // Flash-native: the parked pool already holds the device;
                // promotion is pure accounting, no host-memory rebuild.
                // Reusing the tenant keeps its nonce counter monotone.
                parked
            } else {
                // Re-materialize off the registry lock, on the shared
                // runtime.
                let matcher = self.build_remote(&spec, Arc::clone(&bytes))?;
                let pool = MatcherPool::new(matcher, workers, tenant_seed(id))?;
                Arc::new(Tenant::assemble(id, backend, pool, &channel_key, totals))
            };

            let mut inner = self.lock();
            match inner.tenants.get(id) {
                None => return Err(MatchError::UnknownTenant(id.to_string())),
                Some(entry) => {
                    // Another thread re-materialized while we built; use
                    // the established copy.
                    if let Some(hot) = &entry.hot {
                        return Ok(Arc::clone(hot));
                    }
                    // A concurrent re-upload replaced the entry (different
                    // database, different charge): the tenant we built is
                    // stale — throw it away and rebuild from current state.
                    if entry.generation != generation {
                        continue;
                    }
                }
            }
            Self::ensure_capacity(&mut inner, &self.cold, charge, id)?;
            let clock = inner.tick();
            let slot_taken;
            {
                let Some(entry) = inner.tenants.get_mut(id) else {
                    return Err(MatchError::Internal("tenant entry vanished under the lock"));
                };
                entry.hot = Some(Arc::clone(&tenant));
                entry.parked = None;
                entry.encoded = Some(bytes);
                slot_taken = entry.cold.take();
                entry.last_used = clock;
                // The promotion's flash cost lands exactly once, at
                // install — a retried race charges nothing.
                entry.totals.charge(&MatchStats {
                    flash_wear: read_wear,
                    bytes_moved: read_moved,
                    ..MatchStats::default()
                });
            }
            inner.hot_bytes += charge;
            inner.metrics.flash_wear.add(read_wear);
            inner.metrics.rematerializations.inc();
            inner.sync_hot_bytes();
            if let Some(slot) = slot_taken {
                inner.cold_bytes -= self.lock_cold().remove(slot);
                inner.sync_cold_bytes();
            }
            return Ok(tenant);
        }
    }

    /// Runs one Match query with tier-aware routing: a hot tenant serves
    /// from its pool; a cold flash-native (`ifp`) tenant serves straight
    /// from its parked device — no re-materialization, no promotion, no
    /// host-memory rebuild (cold is IFP's native tier); any other cold
    /// tenant re-materializes first via [`Self::get`].
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered,
    /// plus whatever [`Tenant::run`] or the re-materialization reports.
    pub fn run_query(&self, id: &str, query: &QueryPayload) -> Result<MatchedReply, MatchError> {
        let servant = {
            let mut inner = self.lock();
            let clock = inner.tick();
            let entry = inner
                .tenants
                .get_mut(id)
                .ok_or_else(|| MatchError::UnknownTenant(id.to_string()))?;
            entry.last_used = clock;
            if let Some(hot) = &entry.hot {
                Some(Arc::clone(hot))
            } else if let Some(parked) = &entry.parked {
                let parked = Arc::clone(parked);
                inner.metrics.cold_hits.inc();
                Some(parked)
            } else {
                None
            }
        };
        match servant {
            Some(tenant) => tenant.run(query),
            None => self.get(id)?.run(query),
        }
    }

    /// Lists the registered tenants (hot and cold), sorted by id.
    pub fn list(&self) -> Vec<TenantInfo> {
        let inner = self.lock();
        let mut infos: Vec<TenantInfo> = inner
            .tenants
            .iter()
            .map(|(id, e)| TenantInfo {
                id: id.clone(),
                backend: e.backend.name().to_string(),
            })
            .collect();
        infos.sort_by(|a, b| a.id.cmp(&b.id));
        infos
    }

    /// Number of registered tenants (hot and cold).
    pub fn len(&self) -> usize {
        self.lock().tenants.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().tenants.is_empty()
    }

    /// Rebuilds a remote tenant's matcher from its spec and serialized
    /// database, as a job on the registry's build pool (the shared
    /// `cm_core::exec` runtime). `ifp` specs build through
    /// [`IfpMatcher::for_spec`] (the backend `MatcherConfig` cannot
    /// construct — it needs an SSD device), which re-creates the flash
    /// array and writes the database into its CIPHERMATCH region.
    fn build_remote(
        &self,
        spec: &TenantSpec,
        encoded: Arc<Vec<u8>>,
    ) -> Result<Box<dyn ErasedMatcher>, MatchError> {
        if Backend::parse(&spec.backend)? == Backend::Ifp {
            let (seed, insecure) = (spec.seed, spec.insecure);
            return self
                .builders
                .submit(move || {
                    let mut matcher = cm_core::erase(IfpMatcher::for_spec(seed, insecure)?, seed);
                    matcher.load_database_wire(&encoded)?;
                    Ok::<_, MatchError>(matcher)
                })
                .wait()?;
        }
        let config = spec.to_config()?;
        self.builders
            .submit(move || {
                let mut matcher = config.build()?;
                matcher.load_database_wire(&encoded)?;
                Ok::<_, MatchError>(matcher)
            })
            .wait()?
    }

    /// Demotes least-recently-used unpinned remote tenants until `needed`
    /// more bytes fit the budget. `admitting` is the id being admitted
    /// (never chosen as a victim).
    ///
    /// Demotion writes each victim's serialized database into the
    /// flash-backed cold store (the new master copy) and *then* drops the
    /// host-RAM copy — the `flash_wear`/`bytes_moved` cost of the write
    /// lands in the victim's own [`StatsAccumulator`]. A flash-native
    /// (`ifp`) victim parks its live pool instead of dropping it, so cold
    /// Match queries keep serving straight from the device.
    ///
    /// # Errors
    ///
    /// [`MatchError::QuotaExceeded`] when the bytes cannot fit even with
    /// every demotable tenant cold, or when the cold store itself is full
    /// (the victim's host copy is restored first). Demotions performed
    /// before the failure stay demoted (they re-materialize on demand).
    fn ensure_capacity(
        inner: &mut Inner,
        cold: &Mutex<ColdStore>,
        needed: u64,
        admitting: &str,
    ) -> Result<Vec<String>, MatchError> {
        let budget = inner.budget;
        if needed > budget {
            return Err(MatchError::QuotaExceeded {
                budget,
                required: needed,
            });
        }
        let mut demoted = Vec::new();
        while inner.hot_bytes.saturating_add(needed) > budget {
            let victim = inner
                .tenants
                .iter()
                .filter(|(id, e)| {
                    e.hot.is_some()
                        && !e.pinned
                        && e.spec.is_some()
                        && e.encoded.is_some()
                        && id.as_str() != admitting
                })
                .min_by_key(|(_, e)| e.last_used)
                .map(|(id, _)| id.clone());
            let Some(victim) = victim else {
                return Err(MatchError::QuotaExceeded {
                    budget,
                    required: needed,
                });
            };
            let victim_charge;
            let write_wear;
            {
                let Some(entry) = inner.tenants.get_mut(&victim) else {
                    return Err(MatchError::Internal(
                        "demotion victim vanished under the lock",
                    ));
                };
                let Some(encoded) = entry.encoded.take() else {
                    return Err(MatchError::Internal(
                        "demotion victim lost its staged bytes under the lock",
                    ));
                };
                // The master copy moves to flash BEFORE the host copy is
                // released; a full cold store fails the admission with the
                // victim left intact. Lock order: `inner` (held by the
                // caller) → `cold`, never the reverse.
                let write = {
                    let mut store = cold
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    match store.put(&encoded) {
                        Ok(write) => write,
                        Err(err) => {
                            entry.encoded = Some(encoded);
                            return Err(err);
                        }
                    }
                };
                // From here the flash pages are the only copy of the
                // serialized database: dropping `encoded` releases the
                // last host-RAM bytes.
                drop(encoded);
                entry.cold = Some(write.slot);
                if entry.backend == Backend::Ifp {
                    // Flash-native: park the live pool so cold Match
                    // queries serve from the device with no rebuild.
                    entry.parked = entry.hot.take();
                } else {
                    // In-flight queries holding the Arc finish on their
                    // clone; the registry just stops handing it out.
                    entry.hot = None;
                }
                entry.totals.charge(&MatchStats {
                    flash_wear: write.flash_wear,
                    bytes_moved: write.bytes_moved,
                    ..MatchStats::default()
                });
                victim_charge = entry.charge;
                write_wear = write.flash_wear;
            }
            inner.hot_bytes -= victim_charge;
            inner.cold_bytes += victim_charge;
            inner.metrics.flash_wear.add(write_wear);
            inner.metrics.demotions.inc();
            inner.sync_hot_bytes();
            inner.sync_cold_bytes();
            demoted.push(victim);
        }
        Ok(demoted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::{Backend, MatcherConfig};
    use cm_ssd::SecureIndexChannel;

    fn plain_matcher() -> Box<dyn ErasedMatcher> {
        MatcherConfig::new(Backend::Plain).build().unwrap()
    }

    #[test]
    fn registry_round_trips_queries_through_the_sealed_channel() {
        let mut registry = TenantRegistry::new();
        let data = BitString::from_ascii("tenant data with a needle inside");
        let key = [0x42u8; 32];
        registry
            .register("alice", plain_matcher(), &key, &data)
            .unwrap();
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.list()[0].id, "alice");

        let tenant = registry.get("alice").unwrap();
        assert_eq!(tenant.workers(), DEFAULT_TENANT_WORKERS);
        let query = QueryPayload::Bits(BitString::from_ascii("needle"));
        let reply = tenant.run(&query).unwrap();
        let opened = SecureIndexChannel::new(&key).open(&reply.sealed_indices, reply.nonce);
        assert_eq!(opened, data.find_all(&BitString::from_ascii("needle")));
        assert_eq!(tenant.totals().1, 1);
        // Nonces are tenant-assigned and never repeat: two identical
        // queries must not share an AES-CTR keystream.
        let again = tenant.run(&query).unwrap();
        assert_ne!(again.nonce, reply.nonce);
        assert_ne!(again.sealed_indices, reply.sealed_indices);
        // Per-shard stats always sum to the reply stats.
        let mut sum = MatchStats::default();
        for s in &reply.shard_stats {
            sum.merge(s);
        }
        assert_eq!(sum, reply.stats);
    }

    #[test]
    fn unknown_and_duplicate_tenants_are_typed_errors() {
        let mut registry = TenantRegistry::new();
        assert_eq!(
            registry.get("ghost").err(),
            Some(MatchError::UnknownTenant("ghost".to_string()))
        );
        let data = BitString::from_ascii("x");
        registry
            .register("dup", plain_matcher(), &[0; 32], &data)
            .unwrap();
        assert!(matches!(
            registry.register("dup", plain_matcher(), &[0; 32], &data),
            Err(MatchError::InvalidConfig(_))
        ));
        assert!(matches!(
            registry.register("", plain_matcher(), &[0; 32], &data),
            Err(MatchError::InvalidConfig(_))
        ));
        assert!(matches!(
            registry.register_with_workers("zero", plain_matcher(), 0, &[0; 32], &data),
            Err(MatchError::InvalidConfig(_))
        ));
    }

    #[test]
    fn wire_queries_to_hosted_tenants_fail_typed() {
        let mut registry = TenantRegistry::new();
        registry
            .register(
                "plain",
                plain_matcher(),
                &[1; 32],
                &BitString::from_ascii("data"),
            )
            .unwrap();
        let tenant = registry.get("plain").unwrap();
        assert_eq!(
            tenant.run(&QueryPayload::CmWire(vec![1, 2, 3])).err(),
            Some(MatchError::WireQueryUnsupported(Backend::Plain))
        );
    }

    /// The regression test for the old tenant stats race: totals used to
    /// come from a reset/read delta on *one* shared matcher, so two
    /// queries interleaving their resets corrupted the lifetime counters.
    /// With per-query stats taken from exclusively checked-out pool
    /// members and accumulated atomically, the totals must equal the sum
    /// of the per-query replies exactly — under real contention.
    #[test]
    fn totals_equal_the_sum_of_per_query_stats_under_contention() {
        const THREADS: usize = 8;
        const QUERIES_PER_THREAD: usize = 3;

        let mut registry = TenantRegistry::new();
        let data = BitString::from_ascii("hammer one tenant from eight threads at once");
        let matcher = MatcherConfig::new(Backend::Ciphermatch)
            .insecure_test()
            .seed(77)
            .build()
            .unwrap();
        registry
            .register_with_workers("hammered", matcher, 4, &[0x77; 32], &data)
            .unwrap();
        let tenant = registry.get("hammered").unwrap();

        let per_query_sum = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let tenant = Arc::clone(&tenant);
                    let data = &data;
                    scope.spawn(move || {
                        let mut sum = MatchStats::default();
                        for q in 0..QUERIES_PER_THREAD {
                            let needle = if (t + q) % 2 == 0 {
                                "tenant"
                            } else {
                                "at once"
                            };
                            let query = QueryPayload::Bits(BitString::from_ascii(needle));
                            let reply = tenant.run(&query).unwrap();
                            assert_eq!(
                                SecureIndexChannel::new(&[0x77; 32])
                                    .open(&reply.sealed_indices, reply.nonce),
                                data.find_all(&BitString::from_ascii(needle))
                            );
                            assert!(reply.stats.hom_adds > 0);
                            sum.merge(&reply.stats);
                        }
                        sum
                    })
                })
                .collect();
            let mut total = MatchStats::default();
            for h in handles {
                total.merge(&h.join().expect("query thread panicked"));
            }
            total
        });

        let (totals, queries) = tenant.totals();
        assert_eq!(queries, (THREADS * QUERIES_PER_THREAD) as u64);
        assert_eq!(
            totals, per_query_sum,
            "lifetime totals must equal the sum of per-query stats"
        );
    }
}
