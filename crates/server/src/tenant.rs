//! Multi-tenant state: one key domain per tenant, many tenants per
//! process — with a full remote database lifecycle.
//!
//! Each [`Tenant`] bundles one erased matcher (which holds the tenant's
//! encrypted database and its HE key material) with the tenant's AES
//! index channel ([`cm_ssd::SecureIndexChannel`]) and lock-free lifetime
//! statistics ([`cm_core::StatsAccumulator`]). The [`TenantRegistry`]
//! maps tenant ids to tenants and is shared by every connection worker.
//! Queries for *different* tenants never contend, and up to K queries
//! for the *same* tenant run concurrently on its one matcher — a search
//! takes `&self` and returns its own [`MatchStats`], so per-query
//! figures are exact however queries overlap. K is a counter: the
//! K + 1st query waits for one of the K to finish.
//!
//! That wait is the middle of a Match's three stages: a frame-pool
//! worker (`crate::server`) decodes the request and, if K of the
//! tenant's queries are running, blocks here; the matcher then runs the
//! query inline on that same thread
//! (every backend; CM-SW's one matcher, [`cm_core::CiphermatchMatcher`],
//! when its plan is one polynomial range, as every uploaded tenant's is)
//! or — CM-SW built with a shard count, [`crate::ShardedCmMatcher`] —
//! submits one job per range, each over a view of the one ciphertext
//! allocation, to the process-wide [`cm_core::compute_pool`].
//! Nothing is spawned per query, and neither a tenant nor the registry
//! owns threads: a rebuild (an upload's commit, a promotion) runs on the
//! calling thread.
//!
//! ## The four states and the memory budget
//!
//! The registry accounts every tenant database against a configurable
//! **host memory budget** (`ServerConfig::memory_budget`). A registered
//! tenant is in exactly one of four states (`Tier`); *resident* means
//! the database is charged to the budget (`hot_bytes`), and every other
//! database is pages in the registry's [`cm_ssd::ColdStore`] (a simulated
//! SSD's conventional region, `cold_bytes`) — the paper's division of
//! labor: flash owns the data, the host only decides placement.
//!
//! | state | in host RAM | in `ColdStore` | answers a Match | leaves by |
//! |---|---|---|---|---|
//! | **in-process** (`register*`) | live matcher with its key material; charged the matcher's `database_bytes` | nothing | its matcher | evict only — live keys cannot be rebuilt from bytes, so it is never demoted |
//! | **hot** (`register_remote`) | live matcher only, the upload dropped once it is built; charged the serialized length | nothing | its matcher | **demote** (budget pressure, LRU-first among unpinned) → cold, or → parked for `ifp`: the matcher's export written to flash, one program per page to `flash_wear`, the length to `bytes_moved`, both charged to the victim; re-upload or evict: free |
//! | **cold** | nothing — the flash pages are the only copy | the master copy | nobody: a Match promotes first | **promote** → hot: pages read back and the matcher rebuilt on the calling thread; reads are wear-free (`flash_wear` + 0), the length to `bytes_moved`, charged once at install; re-upload or evict: pages released, no charge |
//! | **parked** (`ifp` only) | the parked matcher — small key material and the SSD device handle, not charged | the master copy | the parked matcher, straight from its device (a *cold hit*: no rebuild, no promotion) | [`TenantRegistry::get`] promotes like cold but reuses the parked tenant, so its nonce counter stays monotone; re-upload or evict as cold |
//!
//! Admitting a database past the budget demotes least-recently-used
//! unpinned hot tenants until it fits. In-flight queries on a demoted
//! tenant finish on their own `Arc` clone unharmed, and each rebuilt
//! tenant seals replies under a fresh nonce prefix, so demotion cycles
//! never reuse an AES-CTR keystream. [`Backend::Ifp`] tenants are
//! **flash-native** — their database already lives in a simulated SSD's
//! CIPHERMATCH region — which is why demotion parks their matcher
//! instead of dropping it: cold is IFP's native tier, not a penalty.
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use cm_core::{Backend, BitString, ErasedMatcher, MatchError, MatchStats, StatsAccumulator};
use cm_ssd::{ColdSlot, ColdStore, SecureIndexChannel};
use cm_telemetry::{metric_names, Counter, Gauge, MetricsRegistry};

use crate::ifp::IfpMatcher;
use crate::wire::{
    auth_tag, content_digest, keys_match, tags_match, upload_tag, DatabaseInfoReply, EvictAuth,
    QueryPayload, TenantInfo, TenantSpec, UploadAuth, OP_EVICT,
};

/// The K [`TenantRegistry::register`] provisions when the caller does not
/// choose one ([`TenantRegistry::register_with_workers`] does): up to
/// this many queries per tenant run concurrently.
pub const DEFAULT_TENANT_WORKERS: usize = 4;

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

/// At most K of a tenant's queries run at once; the next one waits.
struct Limit {
    running: Mutex<usize>,
    freed: Condvar,
    k: usize,
}

impl Limit {
    /// A limit of `k` queries at once.
    ///
    /// # Errors
    ///
    /// [`MatchError::InvalidConfig`] for a zero `k`.
    fn new(k: usize) -> Result<Self, MatchError> {
        if k == 0 {
            return Err(MatchError::InvalidConfig("worker count must be positive"));
        }
        Ok(Self {
            running: Mutex::new(0),
            freed: Condvar::new(),
            k,
        })
    }

    /// Blocks while K queries run; the permit frees its slot when it
    /// drops, on unwind too.
    fn enter(&self) -> Permit<'_> {
        let mut running = lock_unpoisoned(&self.running);
        while *running == self.k {
            running = self
                .freed
                .wait(running)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *running += 1;
        Permit(self)
    }
}

/// One running query's slot in its tenant's [`Limit`].
struct Permit<'a>(&'a Limit);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *lock_unpoisoned(&self.0.running) -= 1;
        self.0.freed.notify_one();
    }
}

/// One registered key owner.
pub struct Tenant {
    id: String,
    matcher: Box<dyn ErasedMatcher>,
    limit: Limit,
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

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("id", &self.id)
            .field("backend", &self.backend())
            .field("workers", &self.limit.k)
            .finish()
    }
}

impl Tenant {
    fn assemble(
        id: &str,
        matcher: Box<dyn ErasedMatcher>,
        limit: Limit,
        channel_key: &[u8; 32],
        totals: Arc<StatsAccumulator>,
    ) -> Arc<Self> {
        Arc::new(Self {
            id: id.to_string(),
            matcher,
            limit,
            channel: SecureIndexChannel::new(channel_key),
            next_nonce: AtomicU64::new(nonce_prefix() | 1),
            totals,
        })
    }

    /// The tenant id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The backend serving this tenant.
    pub fn backend(&self) -> Backend {
        self.matcher.backend()
    }

    /// K: how many of this tenant's queries can run concurrently.
    pub fn workers(&self) -> usize {
        self.limit.k
    }

    /// Runs one query on the tenant's matcher (blocking while K queries
    /// run) and seals the resulting index list under a fresh
    /// server-assigned nonce (returned in the reply).
    ///
    /// # Errors
    ///
    /// Propagates the matcher's [`MatchError`] (bad query, wrong wire
    /// format, …); a matcher that panics mid-query surfaces as
    /// [`MatchError::WorkerPanicked`] instead of unwinding the serving
    /// thread.
    pub fn run(&self, query: &QueryPayload) -> Result<MatchedReply, MatchError> {
        let _permit = self.limit.enter();
        let (indices, shard_stats) = catch_unwind(AssertUnwindSafe(|| match query {
            QueryPayload::Bits(bits) => self.matcher.find_all(bits),
            QueryPayload::CmWire(bytes) => self.matcher.find_all_wire(bytes),
        }))
        .map_err(|_| MatchError::WorkerPanicked)??;
        let stats = shard_stats.iter().sum();
        let nonce = self.next_nonce.fetch_add(1, Ordering::Relaxed);
        let (sealed_indices, latency) = self.channel.seal(&indices, nonce);
        self.totals.record(&stats);
        Ok(MatchedReply {
            nonce,
            sealed_indices,
            stats,
            shard_stats,
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

/// A hot remote tenant: its live matcher (the only copy of its
/// database), the spec to rebuild it from, and its charge ([`Tier::bytes`]).
struct HotRemote {
    tenant: Arc<Tenant>,
    spec: TenantSpec,
    bytes: u64,
}

impl HotRemote {
    /// The tier this tenant demotes to once `slot` holds its bytes: a
    /// flash-native tenant is parked, any other is dropped (in-flight
    /// queries finish on their own `Arc` clone).
    fn demoted(&self, slot: ColdSlot) -> Tier {
        let spec = self.spec.clone();
        if self.tenant.backend() == Backend::Ifp {
            let tenant = Arc::clone(&self.tenant);
            Tier::Parked { tenant, spec, slot }
        } else {
            Tier::Cold { spec, slot }
        }
    }
}

/// Where a registered database lives and who answers for it — the four
/// states of the module docs' table. An in-process tenant cannot carry a
/// slot, a cold one cannot carry host bytes, and only
/// [`HotRemote::demoted`] produces `Parked`.
enum Tier {
    /// Registered in process with live key material; `bytes` is the
    /// matcher's own `database_bytes`.
    InProcess { tenant: Arc<Tenant>, bytes: u64 },
    /// A remote upload, resident.
    Hot(HotRemote),
    /// Demoted: `slot` names the flash pages holding the only copy.
    Cold { spec: TenantSpec, slot: ColdSlot },
    /// A demoted `ifp` tenant: as `Cold`, plus the parked tenant that
    /// keeps answering from its device.
    Parked {
        tenant: Arc<Tenant>,
        spec: TenantSpec,
        slot: ColdSlot,
    },
}

impl Tier {
    /// The live tenant while the database is charged to the host budget.
    fn resident(&self) -> Option<&Arc<Tenant>> {
        match self {
            Self::InProcess { tenant, .. } | Self::Hot(HotRemote { tenant, .. }) => Some(tenant),
            Self::Cold { .. } | Self::Parked { .. } => None,
        }
    }

    /// The one state a demotion can start from.
    fn demotable(&self) -> Option<&HotRemote> {
        match self {
            Self::Hot(hot) => Some(hot),
            _ => None,
        }
    }

    /// The accounting charge in bytes, whichever tier holds it. A hot
    /// remote tenant's is its upload's length, or after a promotion its
    /// slot's: the canonical export, which a hand-built upload in a
    /// wider coefficient width is charged after a demote → promote.
    fn bytes(&self) -> u64 {
        match self {
            Self::InProcess { bytes, .. } | Self::Hot(HotRemote { bytes, .. }) => *bytes,
            Self::Cold { slot, .. } | Self::Parked { slot, .. } => slot.len() as u64,
        }
    }

    /// The share of [`Self::bytes`] charged to the host budget.
    fn hot_charge(&self) -> u64 {
        self.resident().map_or(0, |_| self.bytes())
    }

    /// Where the serving copy physically lives: `ifp` databases are in a
    /// simulated SSD's CIPHERMATCH region whether hot or parked, and any
    /// demoted database is pages in the cold store — only a resident
    /// non-ifp database is actually in DRAM.
    fn medium(&self) -> &'static str {
        match self.resident() {
            Some(tenant) if tenant.backend() != Backend::Ifp => "dram",
            _ => "flash",
        }
    }

    /// K (of the tenant a promotion would rebuild, while cold).
    fn workers(&self) -> usize {
        match self {
            Self::InProcess { tenant, .. } => tenant.workers(),
            Self::Hot(HotRemote { spec, .. })
            | Self::Cold { spec, .. }
            | Self::Parked { spec, .. } => spec.workers as usize,
        }
    }
}

/// One registered tenant's registry-side state.
struct TenantEntry {
    backend: Backend,
    pinned: bool,
    /// Stamped by [`Inner::transition`] on every tier change, so an
    /// off-lock re-materialization can detect that the tier its ticket
    /// was cut from is no longer in place and must not be installed.
    generation: u64,
    /// LRU stamp: bumped on every lookup and tier change.
    last_used: u64,
    /// Lifetime stats, shared with the live [`Tenant`] (survives
    /// demotion and re-upload).
    totals: Arc<StatsAccumulator>,
    tier: Tier,
}

impl TenantEntry {
    /// An entry on its way into [`Inner::transition`], which stamps it.
    fn new(backend: Backend, pinned: bool, totals: Arc<StatsAccumulator>, tier: Tier) -> Self {
        Self {
            backend,
            pinned,
            generation: 0,
            last_used: 0,
            totals,
            tier,
        }
    }

    /// This entry moved to `tier`, everything else kept.
    fn with_tier(&self, tier: Tier) -> Self {
        Self {
            totals: Arc::clone(&self.totals),
            tier,
            ..*self
        }
    }
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
    /// Mirror of [`ColdStore::stored_bytes`].
    cold_bytes: Gauge,
    /// Flash program/erase cycles spent on cold-tier lifecycle traffic.
    flash_wear: Counter,
    /// Match queries served from the cold tier by a parked `ifp` tenant.
    cold_hits: Counter,
}

impl RegistryMetrics {
    /// Books one flash transfer made on a tenant's behalf — a demotion's
    /// write or a promotion's read — to its lifetime stats and to the
    /// server-wide wear counter.
    fn charge_flash(&self, totals: &StatsAccumulator, flash_wear: u64, bytes_moved: u64) {
        totals.charge(&MatchStats {
            flash_wear,
            bytes_moved,
            ..MatchStats::default()
        });
        self.flash_wear.add(flash_wear);
    }
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
    /// Bindings outlive their tenants, so every registered id has one.
    auth: HashMap<String, AuthRecord>,
    /// Sum of the charges of every resident tenant. The cold tier's
    /// counterpart is [`ColdStore::stored_bytes`].
    hot_bytes: u64,
    /// Host memory budget in bytes; `u64::MAX` means unbounded.
    budget: u64,
    /// Monotonic clock for LRU stamps and generations.
    clock: u64,
    /// Lifecycle telemetry (no-ops until installed). Lives inside
    /// `Inner` so [`Self::transition`] keeps the gauges in lock-step
    /// under the same lock.
    metrics: RegistryMetrics,
}

impl Inner {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The id's binding, created with a zero high-water mark on first
    /// contact.
    fn binding(&mut self, id: &str, channel_key: &[u8; 32]) -> &mut AuthRecord {
        let fresh = AuthRecord {
            channel_key: *channel_key,
            last_nonce: 0,
        };
        self.auth.entry(id.to_string()).or_insert(fresh)
    }

    /// The one tier transition: `id`'s entry becomes `new` (`None`
    /// unregisters it), the outgoing entry's flash pages — if it had any
    /// — are released, and the host bytes it gave up are returned.
    /// Registration, re-upload, demotion, promotion and eviction all end
    /// here and nothing else writes `hot_bytes` or the two byte gauges,
    /// so `hot_bytes` == Σ charge of resident entries and gauge ==
    /// counter hold by construction. Lock order: `inner` (held by the
    /// caller) → `cold`.
    fn transition(&mut self, cold: &Mutex<ColdStore>, id: &str, new: Option<TenantEntry>) -> u64 {
        let clock = self.tick();
        let entering = new.as_ref().map_or(0, |e| e.tier.hot_charge());
        let old = match new {
            Some(entry) => self.tenants.insert(
                id.to_string(),
                TenantEntry {
                    generation: clock,
                    last_used: clock,
                    ..entry
                },
            ),
            None => self.tenants.remove(id),
        };
        let leaving = old.as_ref().map_or(0, |e| e.tier.hot_charge());
        self.hot_bytes = self.hot_bytes - leaving + entering;
        let mut store = lock_unpoisoned(cold);
        if let Some(Tier::Cold { slot, .. } | Tier::Parked { slot, .. }) = old.map(|e| e.tier) {
            store.remove(slot);
        }
        self.metrics.hot_bytes.set(self.hot_bytes as i64);
        self.metrics.cold_bytes.set(store.stored_bytes() as i64);
        leaving
    }
}

fn unknown(id: &str) -> MatchError {
    MatchError::UnknownTenant(id.to_string())
}

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The tenant id → tenant map a serving process is built around, with
/// registry-level memory accounting and the hot/cold lifecycle (see the
/// module docs).
pub struct TenantRegistry {
    inner: Mutex<Inner>,
    /// The flash-backed cold tier: demoted databases live here as pages
    /// in a simulated SSD's conventional region, and nowhere else. Lock
    /// order is `inner` → (an `ifp` victim's device mutex, while a
    /// demotion exports it) → `cold`, never the reverse, and neither
    /// lock is ever held across a matcher build.
    cold: Mutex<ColdStore>,
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

/// What [`TenantRegistry::lookup`] found under the lock.
enum Lookup {
    /// A live tenant to run the query on.
    Serve(Arc<Tenant>),
    /// The database is in flash only: rebuild it off-lock from this.
    Rebuild(Ticket),
}

/// Everything an off-lock re-materialization needs, copied out of a cold
/// or parked entry.
struct Ticket {
    spec: TenantSpec,
    slot: ColdSlot,
    /// The parked tenant, which a promotion reuses instead of rebuilding.
    parked: Option<Arc<Tenant>>,
    /// The entry's generation when the ticket was cut.
    generation: u64,
    channel_key: [u8; 32],
    totals: Arc<StatsAccumulator>,
}

/// A cold database read back and made servable, not yet installed.
struct Rebuilt {
    tenant: Arc<Tenant>,
    /// Flash cost of the read-back, charged at install.
    flash_wear: u64,
    bytes_moved: u64,
}

impl TenantRegistry {
    /// An empty registry with an unbounded memory budget.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                tenants: HashMap::new(),
                auth: HashMap::new(),
                hot_bytes: 0,
                budget: u64::MAX,
                clock: 0,
                metrics: RegistryMetrics::default(),
            }),
            cold: Mutex::new(ColdStore::with_default_geometry()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        lock_unpoisoned(&self.inner)
    }

    fn lock_cold(&self) -> MutexGuard<'_, ColdStore> {
        lock_unpoisoned(&self.cold)
    }

    /// Reads one registered tenant's entry under the lock.
    fn with_entry<T>(&self, id: &str, f: impl FnOnce(&TenantEntry) -> T) -> Result<T, MatchError> {
        let inner = self.lock();
        inner.tenants.get(id).map(f).ok_or_else(|| unknown(id))
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
        // Tenants registered before this call are already on the books:
        // the new gauges start from them, and `Inner::transition` keeps
        // them in step from here on.
        inner.metrics.budget.set(budget_gauge_value(inner.budget));
        inner.metrics.hot_bytes.set(inner.hot_bytes as i64);
        let cold_bytes = self.lock_cold().stored_bytes();
        inner.metrics.cold_bytes.set(cold_bytes as i64);
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
        self.lock_cold().stored_bytes()
    }

    /// Cumulative program/erase cycles of the cold store's device — the
    /// ground truth the per-tenant `flash_wear` charges must reconcile
    /// against (demotions program pages; reads and searches are free).
    pub fn cold_store_wear(&self) -> u64 {
        self.lock_cold().device_wear()
    }

    /// Registers a tenant whose K is [`DEFAULT_TENANT_WORKERS`]: loads
    /// `database` into `matcher` (encrypting it under the matcher's
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

    /// Registers a tenant whose K is `workers`: up to `workers` of its
    /// queries run concurrently, all on `matcher`, which encrypts the
    /// database once.
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
        let limit = Limit::new(workers)?;
        matcher.load_database(database)?;
        let backend = matcher.backend();
        let bytes = matcher.database_bytes().unwrap_or(0);
        let totals = Arc::new(StatsAccumulator::new());
        let tenant = Tenant::assemble(id, matcher, limit, channel_key, Arc::clone(&totals));
        // `&mut self`: nothing can have registered `id` since the check.
        let mut inner = self.lock();
        Self::ensure_capacity(&mut inner, &self.cold, bytes, id)?;
        let tier = Tier::InProcess { tenant, bytes };
        let entry = TenantEntry::new(backend, true, totals, tier);
        inner.transition(&self.cold, id, Some(entry));
        // The operator binds (or re-binds) the id to this channel key.
        // The nonce high-water mark is preserved: re-provisioning an id
        // must never resurrect previously captured upload/evict tags.
        inner.binding(id, channel_key).channel_key = *channel_key;
        Ok(())
    }

    /// Checks a `Request::LoadDatabase` `Begin` frame's authorization:
    /// the tag must verify under the presented key (binding the nonce,
    /// declared size, spec, and payload digest), and for an id with an
    /// existing binding the key must match and the nonce must strictly
    /// exceed the tenant's high-water mark.
    ///
    /// The spec must also name a served backend ([`Backend::parse`]), so
    /// an upload that could never load — one naming a paper baseline
    /// (`yasuda`, `batched`, `boolean`) or no backend at all — is refused
    /// before it stages a byte or generates a key.
    ///
    /// This check mutates **nothing** — in particular it creates no
    /// binding for an unknown id (an unauthenticated `Begin` must not be
    /// able to squat ids or grow server state). The nonce is consumed,
    /// and a first-contact id is bound to its key, only when the upload
    /// *commits* ([`Self::register_remote`]).
    ///
    /// # Errors
    ///
    /// [`MatchError::Unauthorized`]; [`MatchError::UnknownBackend`] for
    /// the spec's backend.
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
        Backend::parse(&spec.backend)?;
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
    /// rebuilds the matcher from `spec` on the calling thread, loads the
    /// serialized database (then dropped), accounts `encoded.len()` bytes
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
    /// [`MatchError::InvalidConfig`] / [`MatchError::UnknownBackend`] for
    /// a bad spec; decode errors for malformed database bytes. All
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
        let bytes = encoded.len() as u64;
        let matcher = Self::build_remote(spec, &encoded)?;
        drop(encoded);
        let backend = matcher.backend();
        let limit = Limit::new(spec.workers as usize)?;

        let mut inner = self.lock();
        // Re-check under the final lock (the build ran unlocked): the
        // binding may have appeared or advanced concurrently.
        Self::check_binding(&inner, id, channel_key, auth.nonce)?;
        let demoted = Self::ensure_capacity(&mut inner, &self.cold, bytes, id)?;
        // Success is now certain: consume the nonce and (on first
        // contact) bind the id to the key.
        inner.binding(id, channel_key).last_nonce = auth.nonce;
        // An operator-set pin and the lifetime stats survive the owner's
        // re-upload; wire admissions themselves never create a pin.
        let (pinned, totals) = match inner.tenants.get(id) {
            Some(old) => (old.pinned, Arc::clone(&old.totals)),
            None => (false, Arc::new(StatsAccumulator::new())),
        };
        let tenant = Tenant::assemble(id, matcher, limit, channel_key, Arc::clone(&totals));
        let spec = spec.clone();
        let hot = Tier::Hot(HotRemote {
            tenant,
            spec,
            bytes,
        });
        let entry = TenantEntry::new(backend, pinned, totals, hot);
        inner.transition(&self.cold, id, Some(entry));
        Ok(RemoteLoad { bytes, demoted })
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
        // Bindings outlive tenants, so "registered but unbound" does not
        // exist and both misses are the same answer.
        let (true, Some(record)) = (inner.tenants.contains_key(id), inner.auth.get_mut(id)) else {
            return Err(unknown(id));
        };
        let expected = auth_tag(&record.channel_key, OP_EVICT, id, 0, auth.nonce, &[]);
        if !tags_match(&expected, &auth.tag) {
            return Err(MatchError::Unauthorized("evict tag does not verify"));
        }
        if auth.nonce <= record.last_nonce {
            return Err(MatchError::Unauthorized("replayed evict nonce"));
        }
        record.last_nonce = auth.nonce;
        Ok(inner.transition(&self.cold, id, None))
    }

    /// Pins or unpins a tenant: pinned tenants are exempt from
    /// budget-driven demotion to the cold tier.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered.
    pub fn set_pinned(&self, id: &str, pinned: bool) -> Result<(), MatchError> {
        let mut inner = self.lock();
        inner.tenants.get_mut(id).ok_or_else(|| unknown(id))?.pinned = pinned;
        Ok(())
    }

    /// Whether the tenant's database is hot (a live matcher holds it)
    /// rather than demoted to the cold tier.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered.
    pub fn is_resident(&self, id: &str) -> Result<bool, MatchError> {
        self.with_entry(id, |e| e.tier.resident().is_some())
    }

    /// A tenant database's lifecycle state (tier, accounting charge,
    /// pinning, lifetime query count) without re-materializing it.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered.
    pub fn info(&self, id: &str) -> Result<DatabaseInfoReply, MatchError> {
        self.with_entry(id, |e| DatabaseInfoReply {
            backend: e.backend.name().to_string(),
            resident: e.tier.resident().is_some(),
            pinned: e.pinned,
            tier: e.tier.medium().to_string(),
            bytes: e.tier.bytes(),
            workers: e.tier.workers() as u32,
            queries: e.totals.snapshot().1,
        })
    }

    /// A tenant's lifetime statistics and query count without
    /// re-materializing it.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered.
    pub fn totals_of(&self, id: &str) -> Result<(MatchStats, u64), MatchError> {
        self.with_entry(id, |e| e.totals.snapshot())
    }

    /// Looks a tenant up by id, transparently re-materializing a
    /// cold-tier tenant: the serialized master copy is read back out of
    /// the flash-backed cold store (wear-free), the matcher rebuilt from
    /// it on the calling thread (flash-native `ifp` tenants skip the
    /// rebuild and unpark their matcher), other tenants demoted if
    /// the budget requires it, and the read's `bytes_moved` charged to
    /// the tenant at install time. Bumps the tenant's LRU stamp.
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered;
    /// [`MatchError::QuotaExceeded`] when a cold tenant cannot be brought
    /// back within the budget.
    pub fn get(&self, id: &str) -> Result<Arc<Tenant>, MatchError> {
        self.checkout(id, false)
    }

    /// Runs one Match query with tier-aware routing: a hot tenant serves
    /// from its matcher; a cold flash-native (`ifp`) tenant serves straight
    /// from its parked device — no re-materialization, no promotion, no
    /// host-memory rebuild (cold is IFP's native tier); any other cold
    /// tenant re-materializes first, as in [`Self::get`].
    ///
    /// # Errors
    ///
    /// [`MatchError::UnknownTenant`] if no such tenant is registered,
    /// plus whatever [`Tenant::run`] or the re-materialization reports.
    pub fn run_query(&self, id: &str, query: &QueryPayload) -> Result<MatchedReply, MatchError> {
        self.checkout(id, true)?.run(query)
    }

    /// The tenant to serve `id` from, promoting it first if the database
    /// is in flash only: [`Self::lookup`] under the lock,
    /// [`Self::rebuild`] off it, [`Self::install`] under it again — and
    /// around again whenever the ticket went stale in between.
    fn checkout(&self, id: &str, serve_parked: bool) -> Result<Arc<Tenant>, MatchError> {
        loop {
            let ticket = match self.lookup(id, serve_parked)? {
                Lookup::Serve(tenant) => return Ok(tenant),
                Lookup::Rebuild(ticket) => ticket,
            };
            let rebuilt = self.rebuild(id, &ticket);
            if let Some(tenant) = self.install(id, ticket, rebuilt)? {
                return Ok(tenant);
            }
        }
    }

    /// The locked lookup: bumps the LRU stamp and returns the live tenant
    /// — hot, in-process, or (for a Match, `serve_parked`) parked, which
    /// counts as a cold hit — or else a rebuild ticket.
    fn lookup(&self, id: &str, serve_parked: bool) -> Result<Lookup, MatchError> {
        let mut guard = self.lock();
        let clock = guard.tick();
        let inner = &mut *guard;
        let entry = inner.tenants.get_mut(id).ok_or_else(|| unknown(id))?;
        entry.last_used = clock;
        let (spec, slot, parked) = match &entry.tier {
            Tier::InProcess { tenant, .. } | Tier::Hot(HotRemote { tenant, .. }) => {
                return Ok(Lookup::Serve(Arc::clone(tenant)));
            }
            Tier::Parked { tenant, .. } if serve_parked => {
                inner.metrics.cold_hits.inc();
                return Ok(Lookup::Serve(Arc::clone(tenant)));
            }
            Tier::Parked { tenant, spec, slot } => (spec, slot, Some(Arc::clone(tenant))),
            Tier::Cold { spec, slot } => (spec, slot, None),
        };
        // Bindings outlive tenants: see `evict`.
        let record = inner.auth.get(id).ok_or_else(|| unknown(id))?;
        let ticket = Ticket {
            spec: spec.clone(),
            slot: slot.clone(),
            parked,
            generation: entry.generation,
            channel_key: record.channel_key,
            totals: Arc::clone(&entry.totals),
        };
        // Feasibility before the expensive rebuild: if the budget minus
        // the undemotable (pinned or in-process) resident bytes cannot
        // hold this database, fail now instead of building a matcher
        // only to discard it — a repeated query for an unplaceable
        // cold tenant must not hold a frame worker in rebuilds.
        let required = ticket.slot.len() as u64;
        let undemotable: u64 = inner
            .tenants
            .iter()
            .filter(|(other, e)| other.as_str() != id && (e.pinned || e.tier.demotable().is_none()))
            .map(|(_, e)| e.tier.hot_charge())
            .sum();
        if required.saturating_add(undemotable) > inner.budget {
            return Err(MatchError::QuotaExceeded {
                budget: inner.budget,
                required,
            });
        }
        Ok(Lookup::Rebuild(ticket))
    }

    /// Off the registry lock: reads the ticket's master copy back out of
    /// flash (non-destructive — the slot stays live until the install
    /// commits, so a lost race just retries) and makes it servable. A
    /// parked tenant already holds its device, so it is reused as is,
    /// which also keeps its nonce counter monotone; anything else is
    /// rebuilt.
    /// A stale ticket may read pages that now hold another tenant's
    /// bytes; [`Self::install`] judges the result.
    fn rebuild(&self, id: &str, ticket: &Ticket) -> Result<Rebuilt, MatchError> {
        let read = self.lock_cold().get(&ticket.slot)?;
        let tenant = match &ticket.parked {
            Some(parked) => Arc::clone(parked),
            None => {
                let matcher = Self::build_remote(&ticket.spec, &read.bytes)?;
                let limit = Limit::new(ticket.spec.workers as usize)?;
                let totals = Arc::clone(&ticket.totals);
                Tenant::assemble(id, matcher, limit, &ticket.channel_key, totals)
            }
        };
        Ok(Rebuilt {
            tenant,
            flash_wear: read.flash_wear,
            bytes_moved: read.bytes_moved,
        })
    }

    /// The locked install: promotes `id` to hot with what
    /// [`Self::rebuild`] produced, and returns the tenant to serve from —
    /// or `None` when the ticket went stale (the entry changed tier since
    /// the lookup, so the rebuild read a slot that is no longer its own)
    /// and the caller must start over. Only a *current* ticket's rebuild
    /// error is the tenant's own and surfaces.
    fn install(
        &self,
        id: &str,
        ticket: Ticket,
        rebuilt: Result<Rebuilt, MatchError>,
    ) -> Result<Option<Arc<Tenant>>, MatchError> {
        let mut inner = self.lock();
        let entry = inner.tenants.get(id).ok_or_else(|| unknown(id))?;
        // Another thread promoted it, or the owner re-uploaded, while we
        // built: use the established copy.
        if let Some(tenant) = entry.tier.resident() {
            return Ok(Some(Arc::clone(tenant)));
        }
        if entry.generation != ticket.generation {
            return Ok(None);
        }
        let rebuilt = rebuilt?;
        let promoted = entry.with_tier(Tier::Hot(HotRemote {
            tenant: Arc::clone(&rebuilt.tenant),
            spec: ticket.spec,
            bytes: ticket.slot.len() as u64,
        }));
        Self::ensure_capacity(&mut inner, &self.cold, promoted.tier.bytes(), id)?;
        // The promotion's flash cost lands exactly once, at install — a
        // retried race charges nothing.
        let (wear, moved) = (rebuilt.flash_wear, rebuilt.bytes_moved);
        inner.metrics.charge_flash(&promoted.totals, wear, moved);
        inner.metrics.rematerializations.inc();
        inner.transition(&self.cold, id, Some(promoted));
        Ok(Some(rebuilt.tenant))
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
    /// database on the calling thread (a panicking build
    /// answers [`MatchError::WorkerPanicked`]). `ifp` specs build through
    /// [`IfpMatcher::for_spec`] (the backend `MatcherConfig` cannot
    /// construct — it needs an SSD device), which re-creates the flash
    /// array and writes the database into its CIPHERMATCH region.
    fn build_remote(
        spec: &TenantSpec,
        encoded: &[u8],
    ) -> Result<Box<dyn ErasedMatcher>, MatchError> {
        let config = spec.to_config()?;
        let ifp = Backend::parse(&spec.backend)? == Backend::Ifp;
        catch_unwind(AssertUnwindSafe(|| {
            let mut matcher = if ifp {
                cm_core::erase(IfpMatcher::for_spec(spec.seed, spec.insecure)?, spec.seed)
            } else {
                config.build()?
            };
            matcher.load_database_wire(encoded)?;
            Ok::<_, MatchError>(matcher)
        }))
        .map_err(|_| MatchError::WorkerPanicked)?
    }

    /// Demotes least-recently-used unpinned hot tenants until `needed`
    /// more bytes fit the budget. `admitting` is the id being admitted:
    /// never chosen as a victim, and if it is resident already (a
    /// re-upload) its old charge does not count — installing the new
    /// database releases it.
    ///
    /// Demotion writes each victim's `export_database()` into the
    /// flash-backed cold store (the new master copy) and *then* drops the
    /// matcher — the `flash_wear`/`bytes_moved` cost of the write lands
    /// in the victim's own [`StatsAccumulator`].
    ///
    /// # Errors
    ///
    /// [`MatchError::QuotaExceeded`] when the bytes cannot fit even with
    /// every demotable tenant cold, or when the cold store itself is full;
    /// the export's own error if a victim cannot be exported. That victim
    /// stays hot; demotions performed before the failure stay demoted
    /// (they re-materialize on demand).
    fn ensure_capacity(
        inner: &mut Inner,
        cold: &Mutex<ColdStore>,
        needed: u64,
        admitting: &str,
    ) -> Result<Vec<String>, MatchError> {
        let budget = inner.budget;
        let quota_exceeded = || MatchError::QuotaExceeded {
            budget,
            required: needed,
        };
        if needed > budget {
            return Err(quota_exceeded());
        }
        let replaced = inner
            .tenants
            .get(admitting)
            .map_or(0, |e| e.tier.hot_charge());
        let mut demoted = Vec::new();
        while (inner.hot_bytes - replaced).saturating_add(needed) > budget {
            let victim = inner
                .tenants
                .iter()
                .filter(|(id, e)| id.as_str() != admitting && !e.pinned)
                .filter_map(|(id, e)| Some((id, e, e.tier.demotable()?)))
                .min_by_key(|(_, e, _)| e.last_used);
            let Some((id, entry, hot)) = victim else {
                return Err(quota_exceeded());
            };
            // The master copy moves to flash BEFORE the matcher is
            // released: a failed export or a full cold store fails the
            // admission here, with the victim intact. Lock order: `inner`
            // (held by the caller) → an `ifp` victim's device (its export
            // reads flash back, wear-free, so it waits for a query running
            // on it; no Match takes `inner` holding a device) → `cold`.
            let encoded = hot.tenant.matcher.export_database()?;
            let write = lock_unpoisoned(cold).put(&encoded)?;
            inner
                .metrics
                .charge_flash(&entry.totals, write.flash_wear, write.bytes_moved);
            inner.metrics.demotions.inc();
            let id = id.clone();
            let entry = entry.with_tier(hot.demoted(write.slot));
            // From here the flash pages are the only copy.
            inner.transition(cold, &id, Some(entry));
            demoted.push(id);
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

    /// Uploads `text` as a plain-backend remote tenant.
    fn upload_plain(registry: &TenantRegistry, id: &str, text: &str, nonce: u64) -> BitString {
        let data = BitString::from_ascii(text);
        let config = MatcherConfig::new(Backend::Plain);
        let mut owner = config.build().unwrap();
        owner.load_database(&data).unwrap();
        let encoded = owner.export_database().unwrap();
        let spec = TenantSpec::from_config(&config, 1);
        let key = [id.as_bytes()[0]; 32];
        let content = content_digest(&key, &encoded);
        let auth = UploadAuth {
            nonce,
            channel_key: key,
            content,
            tag: upload_tag(&key, id, nonce, encoded.len() as u64, &spec, &content),
        };
        registry.register_remote(id, &spec, encoded, &auth).unwrap();
        data
    }

    /// A CM-SW or `ifp` upload with junk behind its last ciphertext is
    /// refused by the decoder — its tag and digest cover the junk, so no
    /// other check could — and the registry is left as it was.
    #[test]
    fn a_padded_upload_is_refused_at_decode_and_charges_nothing() {
        let registry = TenantRegistry::new();
        upload_plain(&registry, "p", "resident", 1);
        let hot = registry.hot_bytes();
        for backend in [Backend::Ciphermatch, Backend::Ifp] {
            let config = MatcherConfig::new(backend).seed(3).insecure_test();
            let mut owner = match backend {
                Backend::Ifp => cm_core::erase(IfpMatcher::for_spec(3, true).unwrap(), 3),
                _ => config.build().unwrap(),
            };
            owner
                .load_database(&BitString::from_ascii("a padded database"))
                .unwrap();
            let mut encoded = owner.export_database().unwrap();
            encoded.extend_from_slice(&[0xAB; 16]);
            let spec = TenantSpec::from_config(&config, 1);
            let key = [7; 32];
            let content = content_digest(&key, &encoded);
            let total = encoded.len() as u64;
            let auth = UploadAuth {
                nonce: 1,
                channel_key: key,
                content,
                tag: upload_tag(&key, "padded", 1, total, &spec, &content),
            };
            assert_eq!(
                registry
                    .register_remote("padded", &spec, encoded, &auth)
                    .err(),
                Some(MatchError::Decode(cm_bfv::DecodeError::BadHeader(
                    "trailing bytes after the ciphertexts"
                ))),
                "{backend:?}"
            );
            assert_eq!(registry.hot_bytes(), hot);
            let ids: Vec<String> = registry.list().into_iter().map(|t| t.id).collect();
            assert_eq!(ids, ["p"]);
        }
    }

    fn cold_ticket(registry: &TenantRegistry, id: &str) -> Ticket {
        match registry.lookup(id, true).unwrap() {
            Lookup::Rebuild(ticket) => ticket,
            Lookup::Serve(_) => panic!("{id} should be cold"),
        }
    }

    fn answers(registry: &TenantRegistry, tenant: &Tenant, needle: &str) -> Vec<usize> {
        let pattern = BitString::from_ascii(needle);
        let reply = tenant.run(&QueryPayload::Bits(pattern)).unwrap();
        assert!(registry.is_resident(tenant.id()).unwrap());
        SecureIndexChannel::new(&[tenant.id().as_bytes()[0]; 32])
            .open(&reply.sealed_indices, reply.nonce)
    }

    /// The failure path of a re-materialization must re-check the ticket
    /// before it lets an error out. The three private steps are driven
    /// in the racing order: ticket cut → same-id re-upload frees the slot
    /// → a third tenant's demotion reuses those pages → the stale rebuild
    /// reads a stranger's bytes and fails to decode them. That error is
    /// not the tenant's: the Match must answer from the new database.
    #[test]
    fn a_stale_ticket_that_fails_to_rebuild_still_serves_the_current_database() {
        let registry = TenantRegistry::new();
        upload_plain(&registry, "x", &"old needle ".repeat(180), 1); // 1 988 B: 2 pages
        upload_plain(&registry, "w", &"stranger ".repeat(160), 1); // 1 448 B: 2 pages
        let hot = registry.hot_bytes();
        registry.set_memory_budget(Some(hot));
        upload_plain(&registry, "y", &"y".repeat(1000), 1); // demotes the LRU, `x`
        assert!(!registry.is_resident("x").unwrap());
        let ticket = cold_ticket(&registry, "x");

        // The owner re-uploads: the ticket's slot is released ...
        registry.set_memory_budget(None);
        let current = upload_plain(&registry, "x", &"new needle ".repeat(180), 2);
        // ... and the next demotion, of the LRU `w`, lands in its pages.
        registry.set_memory_budget(Some(registry.hot_bytes() - 1));
        upload_plain(&registry, "v", "v", 1);
        assert!(!registry.is_resident("w").unwrap());

        let rebuilt = registry.rebuild("x", &ticket);
        assert!(
            rebuilt.is_err(),
            "the race was not constructed: the stale slot still decodes"
        );
        let tenant = registry
            .install("x", ticket, rebuilt)
            .expect("a stale ticket's error must not escape")
            .expect("the re-uploaded database is resident");
        assert_eq!(
            answers(&registry, &tenant, "new needle"),
            current.find_all(&BitString::from_ascii("new needle"))
        );
        // The whole loop agrees.
        assert_eq!(registry.get("x").unwrap().totals().1, 1);
    }

    /// A ticket is cut from one tier; a promote → demote cycle in between
    /// puts the same registration in a *different* slot while the old
    /// pages go to another tenant. The stale rebuild then decodes cleanly
    /// — to the wrong database — so the install must refuse it by the
    /// entry's generation, which every tier change bumps.
    #[test]
    fn a_ticket_from_before_a_promote_demote_cycle_is_refused() {
        let registry = TenantRegistry::new();
        let text = |word: &str| format!("{word:>8}").repeat(125); // one flash page each
        let x = upload_plain(&registry, "x", &text("needle"), 1);
        upload_plain(&registry, "y", &text("yarn"), 1);
        registry.set_memory_budget(Some(registry.hot_bytes())); // two fit
        upload_plain(&registry, "z", &text("needle z"), 1); // x → page 0
        let ticket = cold_ticket(&registry, "x");

        registry.get("x").unwrap(); // y → page 1; page 0 freed
        registry.get("y").unwrap(); // z → page 0; page 1 freed
        registry.get("z").unwrap(); // x → page 1: cold again, elsewhere
        assert!(!registry.is_resident("x").unwrap());

        // Page 0 still holds z's bytes, a valid database of x's size.
        let rebuilt = registry.rebuild("x", &ticket);
        assert!(rebuilt.is_ok(), "{:?}", rebuilt.err());
        assert!(
            registry.install("x", ticket, rebuilt).unwrap().is_none(),
            "a ticket older than the entry's tier must be refused"
        );
        let tenant = registry.get("x").unwrap();
        assert_eq!(
            answers(&registry, &tenant, "needle"),
            x.find_all(&BitString::from_ascii("needle"))
        );
    }

    /// The regression test for the old tenant stats race: totals used to
    /// come from a reset/read delta on *one* shared matcher, so two
    /// queries interleaving their resets corrupted the lifetime counters.
    /// With per-query stats returned by each search of the one shared
    /// matcher and accumulated atomically, the totals must equal the sum
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
