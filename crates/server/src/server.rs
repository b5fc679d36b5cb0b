//! The TCP serving front-end: a readiness-driven reactor that admits
//! frames, not connections.
//!
//! One [`cm_reactor::Reactor`] thread owns every socket: it accepts
//! connections, reassembles length-prefixed frames incrementally
//! ([`crate::wire::FrameBuffer`]), and submits each *complete request
//! frame* as a job on the frame pool, one worker per core and at least
//! [`MIN_FRAME_WORKERS`]. Replies travel back over the reactor's command
//! queue + wakeup pipe ([`cm_reactor::ReactorHandle::send`]), with
//! per-connection write backpressure.
//!
//! Admission is split in two, because sockets and work cost differently:
//!
//! * [`ServerConfig::max_open_sockets`] caps *connections* — thousands
//!   are fine, since an idle socket costs one fd and a decode buffer,
//!   no thread, no pool slot. Arrivals past the cap get a typed
//!   [`MatchError::ServerBusy`] frame and are closed.
//! * [`ServerConfig::max_inflight_frames`] caps *work*, a counter of
//!   request frames admitted but not yet answered. A frame past the cap
//!   gets the same typed rejection; one under it queues for a worker.
//!
//! Frames from one connection are processed strictly in order (a
//! per-connection pump job drains its queue serially), which preserves
//! upload-session affinity. A blocked pump need not *help* (run queued
//! jobs instead of parking): nothing it waits for needs a pump. Range
//! jobs run on the disjoint `cm_core::compute_pool` and wait on nothing,
//! a tenant's query slot is held by a running pump, registry and
//! cold-store locks are short, and builds run inline. Request handling
//! errors travel back as [`Response::Error`] frames; framing violations
//! get one typed farewell frame before the connection closes. Shutdown
//! ([`RunningServer::shutdown`]) stops the reactor (force-closing every
//! tracked socket), then drains and joins the frame pool.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use cm_core::{Backend, MatchError, PoolMetrics, WorkerPool};
use cm_reactor::{
    ConnId, Events, Reactor, ReactorConfig, ReactorHandle, ReactorMetrics, ReactorThread,
};
use cm_telemetry::{MetricsRegistry, Stage, Trace};

use crate::telemetry::ServerTelemetry;
use crate::tenant::TenantRegistry;
use crate::wire::{
    begin_frame, finish_frame, FrameBuffer, Request, Response, TenantSpec, UploadAuth, UploadPhase,
    MAX_FRAME_BYTES,
};

/// The frame pool's floor: one long request (a paper-scale in-flash
/// Match, a large upload's commit) must not hold up every connection.
pub const MIN_FRAME_WORKERS: usize = 2;

/// Front-end knobs for a serving process.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Hard cap on concurrently open sockets. Idle connections are
    /// cheap (one fd, no thread), so this defaults high; arrivals past
    /// the cap receive a [`MatchError::ServerBusy`] frame and are
    /// closed without being admitted.
    pub max_open_sockets: usize,
    /// Hard cap on request frames in flight (admitted to the frame
    /// pool but not yet answered) — a counter, not the pool's size.
    /// A frame past the cap is answered with a typed
    /// [`MatchError::ServerBusy`] instead of queueing unboundedly.
    pub max_inflight_frames: usize,
    /// Host memory budget in bytes for hot tenant databases (`None` =
    /// unbounded). Admissions past the budget demote least-recently-used
    /// unpinned remote tenants to the cold tier; see
    /// [`TenantRegistry::set_memory_budget`].
    pub memory_budget: Option<u64>,
    /// Emit a structured `slow_query` line on stderr for every request
    /// whose end-to-end latency (admitted → replied) reaches this many
    /// microseconds (`None` = never). The line carries the request id,
    /// tag, tenant, and per-stage timings, so queue wait and serve time
    /// are separable at a glance.
    pub slow_query_micros: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_open_sockets: 4096,
            max_inflight_frames: 64,
            memory_budget: None,
            slow_query_micros: None,
        }
    }
}

impl ServerConfig {
    /// The reactor knobs this config implies: the socket cap plus a
    /// write buffer large enough for one maximum reply frame (header
    /// included) with room to spare — a peer that stops reading while
    /// more than that queues is closed as overloaded. Event-loop
    /// metrics register into the server's shared `metrics` registry.
    fn reactor(&self, metrics: &MetricsRegistry) -> ReactorConfig {
        ReactorConfig {
            max_open_sockets: self.max_open_sockets,
            max_buffered_write: MAX_FRAME_BYTES + (64 << 10),
            metrics: ReactorMetrics::register(metrics),
        }
    }
}

/// A serving process: a tenant registry behind a TCP front-end.
#[derive(Debug)]
pub struct MatchServer {
    registry: Arc<TenantRegistry>,
    config: ServerConfig,
    telemetry: Arc<ServerTelemetry>,
}

impl MatchServer {
    /// Wraps a fully provisioned registry with the default
    /// [`ServerConfig`].
    pub fn new(registry: TenantRegistry) -> Self {
        Self::assemble(registry, ServerConfig::default())
    }

    /// Wraps a registry with explicit front-end knobs.
    ///
    /// # Errors
    ///
    /// [`MatchError::InvalidConfig`] for a zero socket or frame cap.
    pub fn with_config(registry: TenantRegistry, config: ServerConfig) -> Result<Self, MatchError> {
        if config.max_open_sockets == 0 {
            return Err(MatchError::InvalidConfig(
                "max_open_sockets must be positive",
            ));
        }
        if config.max_inflight_frames == 0 {
            return Err(MatchError::InvalidConfig(
                "max_inflight_frames must be positive",
            ));
        }
        if let Some(budget) = config.memory_budget {
            registry.set_memory_budget(Some(budget));
        }
        Ok(Self::assemble(registry, config))
    }

    fn assemble(registry: TenantRegistry, config: ServerConfig) -> Self {
        let telemetry = Arc::new(ServerTelemetry::new(config.slow_query_micros));
        // The registry's lifecycle metrics (demotions,
        // re-materializations, hot-tier occupancy) join the same
        // exposition as the front-end's.
        registry.install_telemetry(telemetry.registry());
        Self {
            registry: Arc::new(registry),
            config,
            telemetry,
        }
    }

    /// The registry this server dispatches to.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Binds `addr` and serves in the background, returning the running
    /// server's address and shutdown handle. Bind to port 0 for an
    /// ephemeral port. The reactor thread owns every socket; request
    /// frames run as jobs on the shared `cm_core::exec` runtime.
    ///
    /// # Errors
    ///
    /// [`MatchError::Transport`] if the bind or reactor setup fails;
    /// [`MatchError::Internal`] if the OS refuses a frame-pool thread.
    pub fn spawn<A: ToSocketAddrs>(self, addr: A) -> Result<RunningServer, MatchError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| MatchError::Transport(format!("bind: {e}")))?;
        let reactor =
            Reactor::from_listener(listener, self.config.reactor(self.telemetry.registry()))
                .map_err(|e| MatchError::Transport(format!("reactor: {e}")))?;
        let addr = reactor.local_addr();
        let pool = Arc::new(self.frame_pool()?);
        let telemetry = Arc::clone(&self.telemetry);
        let front = FrontEnd::new(&self, reactor.handle(), Arc::clone(&pool));
        let reactor = reactor
            .spawn(front)
            .map_err(|e| MatchError::Transport(format!("reactor thread: {e}")))?;
        Ok(RunningServer {
            addr,
            reactor: Some(reactor),
            pool: Some(pool),
            telemetry,
        })
    }

    /// Builds the frame pool with its queue-depth/wait/run-time metrics
    /// installed before any handle is shared.
    fn frame_pool(&self) -> Result<WorkerPool, MatchError> {
        let mut pool = WorkerPool::new(cm_core::exec::compute_workers().max(MIN_FRAME_WORKERS))?;
        pool.set_metrics(PoolMetrics::register(self.telemetry.registry(), "frames"));
        Ok(pool)
    }
}

/// Frames `response` in one buffer, encoded in place behind the reserved
/// header. A reply too large to frame degrades to a typed error frame
/// rather than silence (or a panic).
fn reply_frame(response: &Response) -> Vec<u8> {
    let framed = |response: &Response| {
        let mut frame = Vec::new();
        begin_frame(&mut frame);
        response.encode_into(&mut frame);
        finish_frame(&mut frame).map(|()| frame)
    };
    framed(response)
        .or_else(|e| framed(&Response::Error(e)))
        .unwrap_or_default()
}

/// Encodes the typed over-capacity rejection, reporting whichever cap
/// (`max_open_sockets` or `max_inflight_frames`) turned the work away.
fn busy_frame(cap: usize) -> Vec<u8> {
    reply_frame(&Response::Error(MatchError::ServerBusy {
        max_open_sockets: cap,
    }))
}

/// Per-connection serving state, owned by the front-end table.
#[derive(Default)]
struct ConnState {
    /// Whether a pump job for this connection is live on the pool.
    busy: bool,
    /// Admitted request frames awaiting the pump, oldest first, each
    /// with the [`Trace`] minted at admission. Each counts against the
    /// in-flight cap until answered.
    queued: VecDeque<(Vec<u8>, Trace)>,
    /// The connection's chunked-upload session, if one is in progress.
    /// Parked here between pump runs — upload affinity is to the
    /// *connection*, and its frames are processed serially.
    upload: Option<UploadSession>,
}

/// Locks the connection table. Named (rather than inlined `.lock()`)
/// so each use-site documents the rule the serving path lives by:
/// the guard is scoped tightly and NEVER held across a pool submit or
/// a reactor send.
fn lock_table<K>(table: &Mutex<HashMap<K, ConnState>>) -> MutexGuard<'_, HashMap<K, ConnState>> {
    table
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Everything a pump job needs — deliberately *not* the pool itself, so
/// a worker can never drop the last pool handle and join itself.
struct PumpCtx {
    registry: Arc<TenantRegistry>,
    staging: Arc<Staging>,
    handle: ReactorHandle,
    table: Arc<Mutex<HashMap<ConnId, ConnState>>>,
    inflight: Arc<AtomicUsize>,
    telemetry: Arc<ServerTelemetry>,
}

/// The reactor-facing application: admission, frame queues, dispatch.
/// Lives on the reactor thread; every callback must return quickly, so
/// real work is handed to the frame pool.
struct FrontEnd {
    registry: Arc<TenantRegistry>,
    staging: Arc<Staging>,
    pool: Arc<WorkerPool>,
    handle: ReactorHandle,
    table: Arc<Mutex<HashMap<ConnId, ConnState>>>,
    /// Admitted-but-unanswered request frames, server-wide.
    inflight: Arc<AtomicUsize>,
    max_inflight: usize,
    max_open_sockets: usize,
    telemetry: Arc<ServerTelemetry>,
}

impl FrontEnd {
    fn new(server: &MatchServer, handle: ReactorHandle, pool: Arc<WorkerPool>) -> Self {
        Self {
            registry: Arc::clone(&server.registry),
            // One staging account for the whole server: concurrent
            // uploads from every connection share (and are bounded by)
            // it.
            staging: Arc::new(Staging::new(server.registry.memory_budget())),
            pool,
            handle,
            table: Arc::new(Mutex::new(HashMap::new())),
            inflight: Arc::new(AtomicUsize::new(0)),
            max_inflight: server.config.max_inflight_frames,
            max_open_sockets: server.config.max_open_sockets,
            telemetry: Arc::clone(&server.telemetry),
        }
    }

    /// Submits the pump job that serially drains `conn`'s frame queue.
    /// The notify path covers the one failure the pump cannot handle
    /// itself — a panic escaping dispatch — by releasing the frame's
    /// in-flight slot and closing the connection.
    fn spawn_pump(&self, conn: ConnId) {
        let ctx = PumpCtx {
            registry: Arc::clone(&self.registry),
            staging: Arc::clone(&self.staging),
            handle: self.handle.clone(),
            table: Arc::clone(&self.table),
            inflight: Arc::clone(&self.inflight),
            telemetry: Arc::clone(&self.telemetry),
        };
        let inflight = Arc::clone(&self.inflight);
        let handle = self.handle.clone();
        let telemetry = Arc::clone(&self.telemetry);
        self.pool.submit_notify(
            move || run_pump(&ctx, conn),
            move |result| {
                if result.is_err() {
                    inflight.fetch_sub(1, Ordering::SeqCst);
                    telemetry.inflight_add(-1);
                    handle.close(conn);
                }
            },
        );
    }
}

impl Events for FrontEnd {
    type Decoder = FrameBuffer;

    fn decoder(&mut self) -> FrameBuffer {
        FrameBuffer::new()
    }

    fn on_open(&mut self, conn: ConnId) {
        lock_table(&self.table).insert(conn, ConnState::default());
    }

    fn on_frame(&mut self, conn: ConnId, frame: Vec<u8>) {
        // The trace starts the moment the reactor hands the frame over:
        // everything from here to the reply is on the server's clock.
        let trace = Trace::begin();
        // Admission against the in-flight cap, before any queueing: the
        // server must never owe more answers than the cap.
        let admitted = self
            .inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.max_inflight).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            self.telemetry.count_frame_rejection();
            self.handle.send(conn, busy_frame(self.max_inflight));
            return;
        }
        self.telemetry.inflight_add(1);
        let start_pump = {
            let mut table = lock_table(&self.table);
            match table.get_mut(&conn) {
                Some(entry) => {
                    entry.queued.push_back((frame, trace));
                    !std::mem::replace(&mut entry.busy, true)
                }
                None => {
                    // The connection closed in this same event batch;
                    // give the slot back.
                    self.inflight.fetch_sub(1, Ordering::SeqCst);
                    self.telemetry.inflight_add(-1);
                    return;
                }
            }
        };
        if start_pump {
            self.spawn_pump(conn);
        }
    }

    fn on_reject(&mut self) -> Option<Vec<u8>> {
        Some(busy_frame(self.max_open_sockets))
    }

    fn on_violation(&mut self, _conn: ConnId, reason: &'static str) -> Option<Vec<u8>> {
        // Framing violation: report it once, typed, then the reactor
        // hangs up (the stream is no longer at a frame boundary).
        Some(reply_frame(&Response::Error(MatchError::Frame(reason))))
    }

    fn on_close(&mut self, conn: ConnId, _reason: cm_reactor::CloseReason) {
        // Frames still queued were admitted but will never be answered:
        // release their in-flight slots. The upload session (and its
        // staging lease) drops with the entry.
        let queued = lock_table(&self.table)
            .remove(&conn)
            .map_or(0, |entry| entry.queued.len());
        if queued > 0 {
            self.inflight.fetch_sub(queued, Ordering::SeqCst);
            self.telemetry.inflight_add(-(queued as i64));
        }
    }
}

/// One pump run: drains `conn`'s queued frames strictly in order,
/// dispatching each and handing the reply frame back to the reactor.
/// Exactly one pump is live per connection (the `busy` flag), so upload
/// state needs no lock of its own — it rides in the pump.
fn run_pump(ctx: &PumpCtx, conn: ConnId) {
    // Take the upload session out for the run; it is parked back when
    // the queue drains, and dropped (staged bytes discarded, staging
    // lease released) if the connection goes away mid-run.
    let mut upload = {
        let mut table = lock_table(&ctx.table);
        match table.get_mut(&conn) {
            Some(entry) => entry.upload.take(),
            None => return,
        }
    };
    loop {
        let (frame, mut trace) = {
            let mut table = lock_table(&ctx.table);
            let Some(entry) = table.get_mut(&conn) else {
                return; // connection closed; queued slots were released
            };
            match entry.queued.pop_front() {
                Some(queued) => queued,
                None => {
                    entry.busy = false;
                    entry.upload = upload.take();
                    return;
                }
            }
        };
        trace.mark(Stage::Dequeued);
        let decoded = Request::decode(&frame);
        trace.mark(Stage::Decoded);
        let response = match &decoded {
            Ok(request) => dispatch(
                request,
                &ctx.registry,
                &ctx.staging,
                &ctx.table,
                &mut upload,
                &ctx.telemetry,
            ),
            Err(e) => Response::Error(e.clone()),
        };
        trace.mark(Stage::Matched);
        let bytes = reply_frame(&response);
        // The reply is fully assembled: stamp it and record the frame's
        // series *before* the slot release and hand-off, so a client
        // that has its answer can never observe a snapshot that missed
        // this request.
        trace.mark(Stage::Replied);
        ctx.telemetry.record_frame(&trace, decoded.as_ref().ok());
        // The answer exists: release the in-flight slot before the
        // hand-off so admission sees pool capacity, not send latency.
        ctx.inflight.fetch_sub(1, Ordering::SeqCst);
        ctx.telemetry.inflight_add(-1);
        ctx.handle.send(conn, bytes);
    }
}

/// The server-wide staged-upload accounting: the sum of every in-flight
/// upload's *declared* size, bounded so that concurrent hostile uploads
/// cannot stage unbounded bytes in RAM before ever committing (the
/// registry's budget only governs *admitted* databases).
struct Staging {
    used: std::sync::atomic::AtomicU64,
    /// The registry's memory budget when one is set, otherwise
    /// [`crate::wire::MAX_DATABASE_BYTES`] — staged bytes get the same
    /// allowance as the hot tier, never more.
    cap: u64,
}

impl Staging {
    fn new(memory_budget: Option<u64>) -> Self {
        Self {
            used: std::sync::atomic::AtomicU64::new(0),
            cap: memory_budget.unwrap_or(crate::wire::MAX_DATABASE_BYTES),
        }
    }

    /// Reserves `bytes` of staging room, or fails typed when the
    /// server-wide cap is reached.
    fn reserve(self: &Arc<Self>, bytes: u64) -> Result<StagingLease, MatchError> {
        let mut current = self.used.load(Ordering::SeqCst);
        loop {
            let proposed = current.saturating_add(bytes);
            if proposed > self.cap {
                return Err(MatchError::QuotaExceeded {
                    budget: self.cap,
                    required: bytes,
                });
            }
            match self
                .used
                .compare_exchange(current, proposed, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    return Ok(StagingLease {
                        staging: Arc::clone(self),
                        bytes,
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }
}

/// RAII staging reservation: released when the upload session ends —
/// commit, abort, replacement by a fresh `Begin`, or connection drop.
struct StagingLease {
    staging: Arc<Staging>,
    bytes: u64,
}

impl Drop for StagingLease {
    fn drop(&mut self) {
        self.staging.used.fetch_sub(self.bytes, Ordering::SeqCst);
    }
}

/// How long one upload may take from `Begin` to `Commit` before its
/// session (and staging reservation) is reclaimed: a peer must not be
/// able to hold a large reservation open indefinitely by dribbling
/// bytes, or by sending none at all.
const UPLOAD_DEADLINE: std::time::Duration = std::time::Duration::from_secs(600);

/// One in-flight chunked database upload, staged entirely in connection
/// state — the registry is only touched at `Commit`, so an aborted or
/// abandoned upload leaves it untouched. The session is dropped (and
/// its staging reservation released) on commit, abort, a fresh `Begin`,
/// any non-upload request on the connection, the [`UPLOAD_DEADLINE`],
/// or connection close.
struct UploadSession {
    tenant: String,
    spec: TenantSpec,
    auth: UploadAuth,
    /// `Begin` + [`UPLOAD_DEADLINE`]: from then on the session is refused
    /// on its own connection and reclaimed by any `Begin` the staging cap
    /// would refuse.
    expires: Instant,
    expected_bytes: u64,
    chunk_count: u32,
    next_chunk: u32,
    data: Vec<u8>,
    /// Holds the staging reservation for `expected_bytes`.
    _lease: StagingLease,
}

/// Handles one [`Request::LoadDatabase`] step against the connection's
/// upload session. Any violation of the declared shape aborts the
/// session (the next upload must start over at `Begin`) and returns a
/// typed error.
fn dispatch_upload<K>(
    tenant: &str,
    phase: &UploadPhase,
    registry: &TenantRegistry,
    staging: &Arc<Staging>,
    table: &Mutex<HashMap<K, ConnState>>,
    upload: &mut Option<UploadSession>,
    telemetry: &ServerTelemetry,
) -> Response {
    match phase {
        UploadPhase::Begin {
            auth,
            spec,
            total_bytes,
            chunk_count,
        } => {
            // A fresh Begin abandons any upload already in progress on
            // this connection (releasing its staging reservation).
            *upload = None;
            if let Err(e) = registry.authorize_upload(tenant, auth, *total_bytes, spec) {
                return Response::Error(e);
            }
            // Reserve the declared size against the *server-wide*
            // staging cap: many connections declaring large uploads are
            // bounded collectively, not just per upload. The cap is the
            // budget `spawn` read, which nothing changes afterwards, so a
            // size past it is refused before any chunk buffer exists. Room
            // held by expired sessions parked on idle connections is
            // reclaimed first — nothing else ends them.
            let reserved = staging.reserve(*total_bytes).or_else(|_| {
                drop_expired(table);
                staging.reserve(*total_bytes)
            });
            let lease = match reserved {
                Ok(lease) => lease,
                Err(e) => return Response::Error(e),
            };
            *upload = Some(UploadSession {
                tenant: tenant.to_string(),
                spec: spec.clone(),
                auth: auth.clone(),
                expires: Instant::now() + UPLOAD_DEADLINE,
                expected_bytes: *total_bytes,
                chunk_count: *chunk_count,
                next_chunk: 0,
                // Sized by *received* data, never by the declared total:
                // a lying header cannot balloon memory ahead of bytes
                // actually sent.
                data: Vec::new(),
                _lease: lease,
            });
            Response::UploadProgress {
                received: 0,
                expected: *total_bytes,
            }
        }
        UploadPhase::Chunk { index, data } => {
            let Some(session) = upload.as_mut() else {
                return Response::Error(MatchError::UploadIncomplete(
                    "chunk without an upload in progress",
                ));
            };
            if session.expires <= Instant::now() {
                *upload = None;
                return Response::Error(MatchError::UploadIncomplete("upload deadline exceeded"));
            }
            if session.tenant != tenant {
                *upload = None;
                return Response::Error(MatchError::UploadIncomplete(
                    "chunk for a different tenant than the upload in progress",
                ));
            }
            if *index != session.next_chunk {
                *upload = None;
                return Response::Error(MatchError::UploadIncomplete(
                    "out-of-order or duplicate chunk",
                ));
            }
            if session.next_chunk >= session.chunk_count {
                *upload = None;
                return Response::Error(MatchError::UploadIncomplete(
                    "more chunks than the upload declared",
                ));
            }
            if session.data.len() as u64 + data.len() as u64 > session.expected_bytes {
                *upload = None;
                return Response::Error(MatchError::UploadIncomplete(
                    "chunk data overruns the declared size",
                ));
            }
            session.data.extend_from_slice(data);
            session.next_chunk += 1;
            telemetry.count_upload_bytes(data.len() as u64);
            Response::UploadProgress {
                received: session.data.len() as u64,
                expected: session.expected_bytes,
            }
        }
        UploadPhase::Commit => {
            let Some(session) = upload.take() else {
                return Response::Error(MatchError::UploadIncomplete(
                    "commit without an upload in progress",
                ));
            };
            if session.expires <= Instant::now() {
                return Response::Error(MatchError::UploadIncomplete("upload deadline exceeded"));
            }
            if session.tenant != tenant {
                return Response::Error(MatchError::UploadIncomplete(
                    "commit for a different tenant than the upload in progress",
                ));
            }
            if session.next_chunk != session.chunk_count
                || session.data.len() as u64 != session.expected_bytes
            {
                return Response::Error(MatchError::UploadIncomplete(
                    "upload is missing declared chunks or bytes",
                ));
            }
            match registry.register_remote(tenant, &session.spec, session.data, &session.auth) {
                Ok(load) => Response::DatabaseLoaded {
                    bytes: load.bytes,
                    demoted: load.demoted,
                },
                Err(e) => Response::Error(e),
            }
        }
    }
}

/// Drops every upload session parked in `table` that is past its
/// deadline, its received bytes and staging reservation included. The
/// sessions leave the table under its lock and are dropped after it.
fn drop_expired<K>(table: &Mutex<HashMap<K, ConnState>>) {
    let now = Instant::now();
    let expired: Vec<UploadSession> = lock_table(table)
        .values_mut()
        .filter_map(|conn| conn.upload.take_if(|session| session.expires <= now))
        .collect();
    drop(expired);
}

/// Maps one request to its response; never panics on hostile input.
fn dispatch<K>(
    request: &Request,
    registry: &TenantRegistry,
    staging: &Arc<Staging>,
    table: &Mutex<HashMap<K, ConnState>>,
    upload: &mut Option<UploadSession>,
    telemetry: &ServerTelemetry,
) -> Response {
    // Any non-upload request abandons the connection's upload session
    // (releasing its staging reservation): an upload is a tight
    // Begin→Chunk*→Commit sequence, so interleaved traffic means the
    // client moved on — and a reservation cannot be kept alive by
    // pinging around it.
    if !matches!(request, Request::LoadDatabase { .. }) {
        *upload = None;
    }
    match request {
        Request::Ping => Response::Pong {
            backends: Backend::ALL.iter().map(|b| b.name().to_string()).collect(),
        },
        Request::ListTenants => Response::Tenants(registry.list()),
        // Tier-aware routing: a cold flash-native (`ifp`) tenant answers
        // straight from its parked device, everything else via the hot
        // pool (re-materializing first if needed).
        Request::Match { tenant, query } => match registry.run_query(tenant, query) {
            Ok(reply) => {
                telemetry.record_hom_adds(reply.stats.hom_adds);
                Response::Matched {
                    nonce: reply.nonce,
                    sealed_indices: reply.sealed_indices,
                    stats: reply.stats,
                    shard_stats: reply.shard_stats,
                    seal_latency: reply.seal_latency,
                }
            }
            Err(e) => Response::Error(e),
        },
        // Stats reads must not re-materialize a cold tenant: the totals
        // live in the registry entry.
        Request::TenantStats { tenant } => match registry.totals_of(tenant) {
            Ok((stats, queries)) => Response::TenantStats { stats, queries },
            Err(e) => Response::Error(e),
        },
        Request::LoadDatabase { tenant, phase } => {
            dispatch_upload(tenant, phase, registry, staging, table, upload, telemetry)
        }
        Request::EvictDatabase { tenant, auth } => match registry.evict(tenant, auth) {
            Ok(freed_bytes) => Response::Evicted { freed_bytes },
            Err(e) => Response::Error(e),
        },
        Request::DatabaseInfo { tenant } => match registry.info(tenant) {
            Ok(info) => Response::DatabaseInfo(info),
            Err(e) => Response::Error(e),
        },
        // A point-in-time copy of every registered series.
        Request::Metrics => Response::Metrics(telemetry.registry().snapshot()),
    }
}

/// Handle to a server running in the background: the reactor thread
/// owns the sockets, the frame pool runs the work.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    reactor: Option<ReactorThread>,
    /// The frame pool. The reactor's front-end holds the other `Arc`;
    /// after the reactor joins, this is the last one, so dropping it
    /// drains then joins the workers on the caller's thread.
    pool: Option<Arc<WorkerPool>>,
    telemetry: Arc<ServerTelemetry>,
}

impl RunningServer {
    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry — the same series
    /// [`Request::Metrics`] snapshots over the wire, for in-process
    /// scraping (e.g. rendering
    /// [`cm_telemetry::MetricsRegistry::render_text`] from an operator
    /// thread).
    pub fn telemetry(&self) -> &MetricsRegistry {
        self.telemetry.registry()
    }

    /// Stops the reactor (force-closing every tracked socket), then
    /// drains and joins the frame pool before returning.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(reactor) = self.reactor.take() {
            // Joins the reactor thread; the front-end (and its pool
            // handle) is dropped with it.
            reactor.shutdown();
        }
        // Last pool handle: drop = drain queued pump jobs, then join
        // the workers (the same drain-then-join contract the blocking
        // front-end had). Pumps whose connection died find no table
        // entry and return immediately.
        self.pool.take();
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{content_digest, upload_tag};
    use cm_core::MatcherConfig;

    const KEY: [u8; 32] = [0x5A; 32];

    fn spec() -> TenantSpec {
        TenantSpec::from_config(&MatcherConfig::new(Backend::Plain), 1)
    }

    /// An authorized `Begin` of `total` bytes in one chunk for `tenant`.
    fn begin(tenant: &str, total: u64) -> UploadPhase {
        begin_for(tenant, &spec(), &KEY, b"never committed", total)
    }

    /// An authorized `Begin` of `total` bytes in one chunk for `tenant`,
    /// whose tag binds `spec` and the digest of `payload`.
    fn begin_for(
        tenant: &str,
        spec: &TenantSpec,
        key: &[u8; 32],
        payload: &[u8],
        total: u64,
    ) -> UploadPhase {
        let content = content_digest(key, payload);
        UploadPhase::Begin {
            auth: UploadAuth {
                nonce: 1,
                channel_key: *key,
                content,
                tag: upload_tag(key, tenant, 1, total, spec, &content),
            },
            spec: spec.clone(),
            total_bytes: total,
            chunk_count: 1,
        }
    }

    /// A session for `tenant` with all of its `bytes` received, holding
    /// their staging room, that expires at `expires`.
    fn session(
        staging: &Arc<Staging>,
        tenant: &str,
        bytes: u64,
        expires: Instant,
    ) -> UploadSession {
        UploadSession {
            tenant: tenant.to_string(),
            spec: spec(),
            auth: UploadAuth {
                nonce: 1,
                channel_key: KEY,
                content: [0; 16],
                tag: [0; 16],
            },
            expires,
            expected_bytes: bytes,
            chunk_count: 1,
            next_chunk: 1,
            data: vec![7; bytes as usize],
            _lease: staging.reserve(bytes).expect("staging room"),
        }
    }

    struct Fixture {
        registry: TenantRegistry,
        staging: Arc<Staging>,
        /// One idle connection, 1, and the upload it parked.
        table: Mutex<HashMap<u32, ConnState>>,
        telemetry: ServerTelemetry,
    }

    impl Fixture {
        fn new(cap: u64) -> Self {
            Self {
                registry: TenantRegistry::new(),
                staging: Arc::new(Staging::new(Some(cap))),
                table: Mutex::new(HashMap::from([(1, ConnState::default())])),
                telemetry: ServerTelemetry::new(None),
            }
        }

        fn parked<T>(&self, f: impl FnOnce(&mut Option<UploadSession>) -> T) -> T {
            f(&mut lock_table(&self.table).get_mut(&1).unwrap().upload)
        }

        /// One upload step on another connection, whose session is `upload`.
        fn step(
            &self,
            tenant: &str,
            phase: &UploadPhase,
            upload: &mut Option<UploadSession>,
        ) -> Response {
            let Self {
                registry,
                staging,
                table,
                telemetry,
            } = self;
            dispatch_upload(tenant, phase, registry, staging, table, upload, telemetry)
        }

        fn used(&self) -> u64 {
            self.staging.used.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn an_expired_parked_upload_no_longer_holds_the_staging_cap() {
        let f = Fixture::new(64);
        let mut upload = None;

        // An idle connection's live session holds the whole cap: another
        // Begin is refused, and the session stays.
        let live = session(&f.staging, "a", 64, Instant::now() + UPLOAD_DEADLINE);
        f.parked(|parked| *parked = Some(live));
        let refused = MatchError::QuotaExceeded {
            budget: 64,
            required: 8,
        };
        let got = f.step("b", &begin("b", 8), &mut upload);
        assert_eq!(got, Response::Error(refused));
        assert!(f.parked(|parked| parked.is_some()) && upload.is_none());
        assert_eq!(f.used(), 64);

        // Past its deadline, the same session gives the cap back to the
        // next Begin that needs it, received bytes and all.
        f.parked(|parked| parked.as_mut().unwrap().expires = Instant::now());
        let got = f.step("b", &begin("b", 8), &mut upload);
        let started = Response::UploadProgress {
            received: 0,
            expected: 8,
        };
        assert_eq!(got, started);
        assert!(f.parked(|parked| parked.is_none()) && upload.is_some());
        assert_eq!(f.used(), 8);
    }

    #[test]
    fn a_session_past_its_deadline_is_refused_on_chunk_and_commit() {
        let f = Fixture::new(64);
        let expired = MatchError::UploadIncomplete("upload deadline exceeded");
        let chunk = UploadPhase::Chunk {
            index: 0,
            data: vec![7; 8],
        };
        for phase in [chunk, UploadPhase::Commit] {
            let mut upload = Some(session(&f.staging, "a", 8, Instant::now()));
            let got = f.step("a", &phase, &mut upload);
            assert_eq!(got, Response::Error(expired.clone()), "{phase:?}");
            assert!(upload.is_none(), "{phase:?}");
            assert_eq!(f.used(), 0, "{phase:?}: the staging room is back");
        }
        assert!(f.registry.list().is_empty());

        // Before its deadline the same session reaches the registry, which
        // refuses its made-up authorization.
        let mut upload = Some(session(
            &f.staging,
            "a",
            8,
            Instant::now() + UPLOAD_DEADLINE,
        ));
        let got = f.step("a", &UploadPhase::Commit, &mut upload);
        assert!(
            matches!(got, Response::Error(MatchError::Unauthorized(_))),
            "{got:?}"
        );
        assert!(f.registry.list().is_empty());
    }

    /// A `Begin` naming a backend without a wire database — a paper
    /// baseline, which is not served, or no backend at all — is refused
    /// as an unknown backend before it reserves staging room or a
    /// `Commit` could generate keys, and it binds nothing.
    #[test]
    fn a_begin_for_a_backend_without_a_wire_database_stages_and_binds_nothing() {
        let f = Fixture::new(1 << 16);
        for backend in ["yasuda", "batched", "boolean", "nosuch"] {
            let spec = TenantSpec {
                backend: backend.into(),
                ..spec()
            };
            let mut upload = None;
            let got = f.step("t", &begin_for("t", &spec, &KEY, b"db", 8), &mut upload);
            let refused = MatchError::UnknownBackend(backend.into());
            assert_eq!(got, Response::Error(refused), "{backend}");
            assert!(upload.is_none(), "{backend}");
            assert_eq!(f.used(), 0, "{backend}: nothing staged");
        }
        assert!(f.registry.list().is_empty());

        // No binding either: another key's CM-SW upload claims the id.
        let config = MatcherConfig::new(Backend::Ciphermatch).insecure_test();
        let mut owner = config.build().unwrap();
        owner
            .load_database(&cm_core::BitString::from_ascii("after the refusals"))
            .unwrap();
        let encoded = owner.export_database().unwrap();
        let spec = TenantSpec::from_config(&config, 1);
        let other = [0xA7; 32];
        let total = encoded.len() as u64;
        let mut upload = None;
        let begin = begin_for("t", &spec, &other, &encoded, total);
        let chunk = UploadPhase::Chunk {
            index: 0,
            data: encoded,
        };
        for phase in [begin, chunk] {
            let got = f.step("t", &phase, &mut upload);
            assert!(matches!(got, Response::UploadProgress { .. }), "{got:?}");
        }
        let got = f.step("t", &UploadPhase::Commit, &mut upload);
        assert!(
            matches!(got, Response::DatabaseLoaded { bytes, .. } if bytes == total),
            "{got:?}"
        );
        assert_eq!(f.used(), 0);
    }
}
