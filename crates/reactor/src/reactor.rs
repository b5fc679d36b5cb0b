//! The event loop: one thread, every socket, frames in, frames out.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use cm_telemetry::{metric_names, Counter, Gauge, Histogram, MetricsRegistry};

use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};

/// The listener's epoll token.
const TOKEN_LISTENER: u64 = 0;
/// The wakeup pipe's epoll token.
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// How many readiness records one `epoll_wait` drains.
const EVENT_BATCH: usize = 128;
/// Read chunk size per `read` call on a ready socket.
const READ_CHUNK: usize = 64 * 1024;
/// Backoff (ms) after a failed `accept` — a level-triggered listener
/// with a pending backlog would otherwise re-report instantly and spin.
const ACCEPT_BACKOFF_MS: i32 = 10;

/// Identifies one accepted connection for the lifetime of the reactor.
/// Tokens are never reused, so a late command aimed at a closed
/// connection is a no-op rather than a hit on its successor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(u64);

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

/// Why the reactor tore a connection down (reported to
/// [`Events::on_close`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed its end (EOF at or inside a frame boundary).
    PeerClosed,
    /// The frame decoder rejected the byte stream.
    Violation(&'static str),
    /// The connection's outbound queue overflowed
    /// [`ReactorConfig::max_buffered_write`] — the peer stopped reading
    /// faster than replies were produced.
    WriteOverflow,
    /// A socket-level read or write error.
    Io,
    /// The reactor shut down and force-closed every tracked socket.
    Shutdown,
    /// [`ReactorHandle::close`] asked for it.
    Requested,
}

/// Incremental frame reassembly: the reactor feeds raw bytes in
/// whatever chunks the socket yields and drains whole frames out. The
/// protocol (header validation, size caps) lives entirely in the
/// implementation — the reactor only moves bytes.
pub trait FrameDecoder {
    /// Absorbs `bytes`. A violation (bad header, oversized declaration)
    /// returns its reason and permanently poisons the stream: the
    /// reactor reports it via [`Events::on_violation`] and closes.
    ///
    /// # Errors
    ///
    /// The static reason the byte stream is not a valid frame sequence.
    fn feed(&mut self, bytes: &[u8]) -> Result<(), &'static str>;

    /// Pops the next fully reassembled frame payload, if any.
    fn next_frame(&mut self) -> Option<Vec<u8>>;
}

/// The application half of the reactor, invoked on the reactor thread —
/// implementations must return quickly (hand real work to an exec
/// pool) or every connection stalls.
pub trait Events: Send + 'static {
    /// Per-connection frame reassembly state.
    type Decoder: FrameDecoder;

    /// Builds the decoder for a newly admitted connection.
    fn decoder(&mut self) -> Self::Decoder;

    /// A connection was admitted and registered.
    fn on_open(&mut self, _conn: ConnId) {}

    /// One complete frame payload arrived on `conn`.
    fn on_frame(&mut self, conn: ConnId, frame: Vec<u8>);

    /// A socket arrived past [`ReactorConfig::max_open_sockets`]. The
    /// returned bytes (if any) are written to the rejected socket
    /// best-effort before it is dropped; it is never admitted.
    fn on_reject(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// `conn`'s decoder rejected the stream. The returned bytes (if
    /// any) are queued as a farewell, flushed, and the connection is
    /// closed with [`CloseReason::Violation`].
    fn on_violation(&mut self, _conn: ConnId, _reason: &'static str) -> Option<Vec<u8>> {
        None
    }

    /// `conn` is gone; no further events reference it. Pending replies
    /// sent to its id are silently dropped.
    fn on_close(&mut self, _conn: ConnId, _reason: CloseReason) {}
}

/// Per-[`CloseReason`] close counters, all sharing one metric name
/// under a `reason` label.
#[derive(Debug, Clone, Default)]
pub struct CloseCounters {
    peer_closed: Counter,
    violation: Counter,
    write_overflow: Counter,
    io: Counter,
    shutdown: Counter,
    requested: Counter,
}

impl CloseCounters {
    fn register(registry: &MetricsRegistry) -> Self {
        let closes =
            |reason| registry.register_counter(metric_names::REACTOR_CLOSES, &[("reason", reason)]);
        Self {
            peer_closed: closes("peer_closed"),
            violation: closes("violation"),
            write_overflow: closes("write_overflow"),
            io: closes("io"),
            shutdown: closes("shutdown"),
            requested: closes("requested"),
        }
    }

    fn count(&self, reason: CloseReason) {
        match reason {
            CloseReason::PeerClosed => self.peer_closed.inc(),
            CloseReason::Violation(_) => self.violation.inc(),
            CloseReason::WriteOverflow => self.write_overflow.inc(),
            CloseReason::Io => self.io.inc(),
            CloseReason::Shutdown => self.shutdown.inc(),
            CloseReason::Requested => self.requested.inc(),
        }
    }
}

/// The telemetry handles the event loop records into. The default is
/// all no-ops, so a reactor without a registry pays only a `None`
/// branch per record; [`ReactorMetrics::register`] wires a loop into a
/// live [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct ReactorMetrics {
    /// Time the reactor thread spent blocked in `epoll_wait`, µs.
    pub epoll_wait: Histogram,
    /// Complete frames reassembled across all connections.
    pub frames_assembled: Counter,
    /// Payload bytes read off connection sockets.
    pub bytes_in: Counter,
    /// Bytes written to connection sockets (partial writes included).
    pub bytes_out: Counter,
    /// Bytes currently queued for write across all connections.
    pub write_queue_bytes: Gauge,
    /// Connections accepted and admitted.
    pub accepts: Counter,
    /// Connections rejected at [`ReactorConfig::max_open_sockets`].
    pub rejects: Counter,
    /// Closes, by [`CloseReason`].
    pub closes: CloseCounters,
}

impl ReactorMetrics {
    /// Registers every event-loop metric in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            epoll_wait: registry.register_histogram(metric_names::REACTOR_EPOLL_WAIT_US, &[]),
            frames_assembled: registry
                .register_counter(metric_names::REACTOR_FRAMES_ASSEMBLED, &[]),
            bytes_in: registry.register_counter(metric_names::REACTOR_BYTES_IN, &[]),
            bytes_out: registry.register_counter(metric_names::REACTOR_BYTES_OUT, &[]),
            write_queue_bytes: registry
                .register_gauge(metric_names::REACTOR_WRITE_QUEUE_BYTES, &[]),
            accepts: registry.register_counter(metric_names::REACTOR_ACCEPTS, &[]),
            rejects: registry.register_counter(metric_names::REACTOR_REJECTS, &[]),
            closes: CloseCounters::register(registry),
        }
    }
}

/// Reactor knobs.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Admission cap on concurrently open sockets. Arrivals past the
    /// cap get [`Events::on_reject`]'s farewell and are dropped without
    /// ever being registered.
    pub max_open_sockets: usize,
    /// Per-connection cap on buffered outbound bytes. A send that
    /// would exceed it closes the connection with
    /// [`CloseReason::WriteOverflow`] — backpressure against a peer
    /// that requests faster than it reads.
    pub max_buffered_write: usize,
    /// Telemetry handles the event loop records into (no-ops by
    /// default).
    pub metrics: ReactorMetrics,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            max_open_sockets: 4096,
            max_buffered_write: 8 * 1024 * 1024,
            metrics: ReactorMetrics::default(),
        }
    }
}

/// Commands other threads enqueue for the reactor thread.
enum Command {
    /// Queue `bytes` for writing on a connection.
    Send(ConnId, Vec<u8>),
    /// Close a connection (flushes nothing; immediate).
    Close(ConnId),
}

/// State shared between the reactor thread and its handles.
struct Shared {
    commands: Mutex<VecDeque<Command>>,
    /// Writer half of the wakeup pipe; one nonblocking byte per nudge.
    wake: UnixStream,
    shutdown: AtomicBool,
    /// Gauge of currently admitted sockets (observability for soaks).
    open_sockets: AtomicUsize,
    /// False once the event loop has exited; sends then report failure.
    live: AtomicBool,
}

fn lock_commands(shared: &Shared) -> MutexGuard<'_, VecDeque<Command>> {
    shared
        .commands
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Cloneable, `Send` handle for talking to a running reactor from any
/// thread (typically an exec-pool worker finishing a request).
#[derive(Clone)]
pub struct ReactorHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle")
            .field("live", &self.shared.live.load(Ordering::SeqCst))
            .finish()
    }
}

impl ReactorHandle {
    fn push(&self, command: Command) {
        lock_commands(&self.shared).push_back(command);
        self.wake();
    }

    fn wake(&self) {
        // One byte is enough; WouldBlock means a nudge is already
        // pending, which is just as good.
        let _ = (&self.shared.wake).write(&[1]);
    }

    /// Queues `bytes` for writing on `conn`. Returns `false` when the
    /// reactor has already exited (the bytes go nowhere); a send to a
    /// connection that closed in the meantime is silently dropped.
    pub fn send(&self, conn: ConnId, bytes: Vec<u8>) -> bool {
        if !self.shared.live.load(Ordering::SeqCst) {
            return false;
        }
        self.push(Command::Send(conn, bytes));
        true
    }

    /// Asks the reactor to close `conn` immediately
    /// ([`CloseReason::Requested`]).
    pub fn close(&self, conn: ConnId) {
        if self.shared.live.load(Ordering::SeqCst) {
            self.push(Command::Close(conn));
        }
    }

    /// Signals the event loop to exit; it force-closes every tracked
    /// socket ([`CloseReason::Shutdown`]) on the way out.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// Currently admitted sockets.
    pub fn open_sockets(&self) -> usize {
        self.shared.open_sockets.load(Ordering::SeqCst)
    }

    /// Whether the event loop is still running.
    pub fn is_live(&self) -> bool {
        self.shared.live.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-running reactor: the listener plus the epoll
/// instance and wakeup pipe. [`Reactor::run`] consumes it on the
/// calling thread; [`Reactor::spawn`] moves it onto a dedicated one.
pub struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    config: ReactorConfig,
    addr: SocketAddr,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").field("addr", &self.addr).finish()
    }
}

impl Reactor {
    /// Binds `addr` (port 0 for ephemeral) and prepares the reactor.
    ///
    /// # Errors
    ///
    /// Bind/registration failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ReactorConfig) -> io::Result<Self> {
        Self::from_listener(TcpListener::bind(addr)?, config)
    }

    /// Wraps an already bound listener.
    ///
    /// # Errors
    ///
    /// Nonblocking/registration failures.
    pub fn from_listener(listener: TcpListener, config: ReactorConfig) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(wake_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKE)?;
        let shared = Arc::new(Shared {
            commands: Mutex::new(VecDeque::new()),
            wake: wake_tx,
            shutdown: AtomicBool::new(false),
            open_sockets: AtomicUsize::new(0),
            live: AtomicBool::new(true),
        });
        Ok(Self {
            epoll,
            listener,
            wake_rx,
            shared,
            config,
            addr,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for feeding the reactor from other threads.
    pub fn handle(&self) -> ReactorHandle {
        ReactorHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the event loop on the calling thread until
    /// [`ReactorHandle::shutdown`]. Every tracked socket is
    /// force-closed on exit.
    pub fn run<E: Events>(self, events: E) {
        let shared = Arc::clone(&self.shared);
        let mut driver = Driver {
            epoll: self.epoll,
            listener: self.listener,
            wake_rx: self.wake_rx,
            shared: self.shared,
            config: self.config,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            events,
        };
        driver.run();
        shared.live.store(false, Ordering::SeqCst);
    }

    /// Runs the event loop on a dedicated thread — the one legitimate
    /// non-exec thread in the workspace: it multiplexes every socket
    /// and must outlive any single job, so it cannot be a pool job
    /// itself (a pool drain would deadlock behind its own front-end).
    ///
    /// # Errors
    ///
    /// The thread-spawn failure.
    pub fn spawn<E: Events>(self, events: E) -> io::Result<ReactorThread> {
        let handle = self.handle();
        let join = std::thread::Builder::new()
            .name("cm-reactor".to_string())
            .spawn(move || self.run(events))?;
        Ok(ReactorThread {
            handle,
            join: Some(join),
        })
    }
}

/// A reactor running on its own thread; shuts down and joins on drop.
pub struct ReactorThread {
    handle: ReactorHandle,
    join: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ReactorThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorThread")
            .field("live", &self.handle.is_live())
            .finish()
    }
}

impl ReactorThread {
    /// The handle to the running loop.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// Signals shutdown and joins the reactor thread: on return every
    /// socket is closed and no further [`Events`] callback will run.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(join) = self.join.take() {
            self.handle.shutdown();
            let _ = join.join();
        }
    }
}

impl Drop for ReactorThread {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One admitted connection's reactor-side state.
struct Conn<D> {
    stream: TcpStream,
    decoder: D,
    /// Outbound frames not yet fully written, oldest first.
    out: VecDeque<Vec<u8>>,
    /// How much of `out.front()` has already been written.
    out_head: usize,
    /// Total bytes across `out` (minus `out_head`).
    out_bytes: usize,
    /// Whether `EPOLLOUT` is currently armed.
    wants_out: bool,
    /// Set when the connection should close as soon as `out` drains
    /// (farewell frames, half-closed peers); reads stop immediately.
    closing: Option<CloseReason>,
}

/// What one readable burst on a connection produced.
enum ReadOutcome {
    /// Socket drained to `WouldBlock`; connection stays open.
    Open,
    /// EOF from the peer.
    Eof,
    /// The decoder rejected the stream.
    Violation(&'static str),
    /// Socket error.
    Failed,
}

/// The running event loop's state, owned by the reactor thread.
struct Driver<E: Events> {
    epoll: Epoll,
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    config: ReactorConfig,
    conns: HashMap<ConnId, Conn<E::Decoder>>,
    next_token: u64,
    events: E,
}

impl<E: Events> Driver<E> {
    fn run(&mut self) {
        let mut batch = [EpollEvent::empty(); EVENT_BATCH];
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut accept_backoff = false;
        loop {
            self.drain_commands();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let timeout = if accept_backoff {
                ACCEPT_BACKOFF_MS
            } else {
                -1
            };
            accept_backoff = false;
            let parked = Instant::now();
            let ready = match self.epoll.wait(&mut batch, timeout) {
                Ok(n) => n,
                Err(_) => break, // EINTR is retried inside; anything else is fatal
            };
            self.config
                .metrics
                .epoll_wait
                .record_micros(parked.elapsed());
            for event in batch.iter().take(ready) {
                // Copy out of the (possibly packed) record before use.
                let (mask, token) = (event.events, event.data);
                match token {
                    TOKEN_LISTENER => accept_backoff = self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake(&mut scratch),
                    token => self.conn_ready(ConnId(token), mask, &mut scratch),
                }
            }
            // Commands enqueued by handlers during this batch get
            // processed at the top of the next iteration; the wakeup
            // byte they wrote makes that immediate.
        }
        // Drain: force-close every tracked socket so a shutdown never
        // waits on a peer.
        let open: Vec<ConnId> = self.conns.keys().copied().collect();
        for conn in open {
            self.close(conn, CloseReason::Shutdown);
        }
    }

    fn drain_commands(&mut self) {
        loop {
            // Take one command at a time rather than holding the lock
            // over handler calls.
            let command = lock_commands(&self.shared).pop_front();
            match command {
                Some(Command::Send(conn, bytes)) => self.queue_write(conn, bytes),
                Some(Command::Close(conn)) => self.close(conn, CloseReason::Requested),
                None => return,
            }
        }
    }

    fn drain_wake(&mut self, scratch: &mut [u8]) {
        loop {
            match self.wake_rx.read(scratch) {
                Ok(0) => return, // writer gone; nothing more to drain
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    /// Accepts until `WouldBlock`; returns whether the loop should back
    /// off before the next wait (persistent accept failure).
    fn accept_ready(&mut self) -> bool {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Replies are whole frames in one write; nothing to
                    // coalesce, and Nagle would only delay them.
                    let _ = stream.set_nodelay(true);
                    self.admit(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient (ECONNABORTED) or resource (EMFILE)
                // failure: the level-triggered listener will re-report,
                // so ask the loop to back off instead of spinning.
                Err(_) => return true,
            }
        }
    }

    fn admit(&mut self, mut stream: TcpStream) {
        if self.conns.len() >= self.config.max_open_sockets {
            // Typed rejection: the farewell is written on the still-
            // blocking fresh socket (its send buffer is empty, so a
            // frame-sized write cannot stall the loop), then dropped.
            if let Some(farewell) = self.events.on_reject() {
                let _ = stream.write_all(&farewell);
            }
            self.config.metrics.rejects.inc();
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.next_token;
        let conn = ConnId(token);
        if self.epoll.add(stream.as_raw_fd(), EPOLLIN, token).is_err() {
            return;
        }
        self.next_token += 1;
        let decoder = self.events.decoder();
        self.conns.insert(
            conn,
            Conn {
                stream,
                decoder,
                out: VecDeque::new(),
                out_head: 0,
                out_bytes: 0,
                wants_out: false,
                closing: None,
            },
        );
        self.shared.open_sockets.fetch_add(1, Ordering::SeqCst);
        self.config.metrics.accepts.inc();
        self.events.on_open(conn);
    }

    fn conn_ready(&mut self, conn: ConnId, mask: u32, scratch: &mut [u8]) {
        // A token from an earlier close in this same batch: ignore.
        if !self.conns.contains_key(&conn) {
            return;
        }
        if mask & EPOLLERR != 0 {
            self.close(conn, CloseReason::Io);
            return;
        }
        if mask & EPOLLIN != 0 {
            self.readable(conn, scratch);
        } else if mask & EPOLLHUP != 0 {
            // HUP without readable data left: the peer is gone.
            self.close(conn, CloseReason::PeerClosed);
            return;
        }
        if mask & EPOLLOUT != 0 {
            self.flush(conn);
        }
    }

    fn readable(&mut self, conn: ConnId, scratch: &mut [u8]) {
        let mut frames = Vec::new();
        let outcome = {
            let Some(state) = self.conns.get_mut(&conn) else {
                return;
            };
            if state.closing.is_some() {
                return; // already draining a farewell; stop reading
            }
            let mut outcome = ReadOutcome::Open;
            loop {
                match state.stream.read(scratch) {
                    Ok(0) => {
                        outcome = ReadOutcome::Eof;
                        break;
                    }
                    Ok(n) => match state.decoder.feed(&scratch[..n]) {
                        Ok(()) => {
                            self.config.metrics.bytes_in.add(n as u64);
                            while let Some(frame) = state.decoder.next_frame() {
                                frames.push(frame);
                            }
                        }
                        Err(reason) => {
                            outcome = ReadOutcome::Violation(reason);
                            break;
                        }
                    },
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        outcome = ReadOutcome::Failed;
                        break;
                    }
                }
            }
            outcome
        };
        // Deliver complete frames decoded before any terminal event.
        self.config
            .metrics
            .frames_assembled
            .add(frames.len() as u64);
        for frame in frames {
            self.events.on_frame(conn, frame);
        }
        match outcome {
            ReadOutcome::Open => {}
            ReadOutcome::Eof => {
                // Flush whatever is already queued, then close; replies
                // still in flight on the pool are dropped, exactly as a
                // blocking server's failed write would drop them.
                self.close_after_flush(conn, CloseReason::PeerClosed);
            }
            ReadOutcome::Violation(reason) => {
                let farewell = self.events.on_violation(conn, reason);
                if let Some(bytes) = farewell {
                    self.queue_write(conn, bytes);
                }
                self.close_after_flush(conn, CloseReason::Violation(reason));
            }
            ReadOutcome::Failed => self.close(conn, CloseReason::Io),
        }
    }

    /// Marks `conn` to close once its outbound queue drains (immediate
    /// when the queue is already empty).
    fn close_after_flush(&mut self, conn: ConnId, reason: CloseReason) {
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        if state.out.is_empty() {
            self.close(conn, reason);
        } else if state.closing.is_none() {
            state.closing = Some(reason);
        }
    }

    fn queue_write(&mut self, conn: ConnId, bytes: Vec<u8>) {
        let overflow = {
            let Some(state) = self.conns.get_mut(&conn) else {
                return; // connection already gone: drop the reply
            };
            if state.closing.is_some() {
                return; // farewell already queued; nothing else goes out
            }
            if state.out_bytes + bytes.len() > self.config.max_buffered_write {
                true
            } else {
                state.out_bytes += bytes.len();
                self.config
                    .metrics
                    .write_queue_bytes
                    .add(bytes.len() as i64);
                state.out.push_back(bytes);
                false
            }
        };
        if overflow {
            self.close(conn, CloseReason::WriteOverflow);
        } else {
            self.flush(conn);
        }
    }

    /// Writes as much of `conn`'s outbound queue as the socket accepts,
    /// arming or disarming `EPOLLOUT` to match what remains.
    fn flush(&mut self, conn: ConnId) {
        enum After {
            Keep,
            Close(CloseReason),
            Failed,
        }
        let after = {
            let Some(state) = self.conns.get_mut(&conn) else {
                return;
            };
            let mut after = After::Keep;
            'queue: while let Some(front) = state.out.front() {
                while state.out_head < front.len() {
                    match state.stream.write(&front[state.out_head..]) {
                        Ok(0) => {
                            after = After::Failed;
                            break 'queue;
                        }
                        Ok(n) => {
                            state.out_head += n;
                            state.out_bytes -= n;
                            self.config.metrics.bytes_out.add(n as u64);
                            self.config.metrics.write_queue_bytes.add(-(n as i64));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'queue,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            after = After::Failed;
                            break 'queue;
                        }
                    }
                }
                state.out.pop_front();
                state.out_head = 0;
            }
            if matches!(after, After::Keep) {
                if state.out.is_empty() {
                    if let Some(reason) = state.closing {
                        after = After::Close(reason);
                    } else if state.wants_out {
                        state.wants_out = false;
                        let fd = state.stream.as_raw_fd();
                        let _ = self.epoll.modify(fd, EPOLLIN, conn.0);
                    }
                } else if !state.wants_out {
                    state.wants_out = true;
                    let fd = state.stream.as_raw_fd();
                    let _ = self.epoll.modify(fd, EPOLLIN | EPOLLOUT, conn.0);
                }
            }
            after
        };
        match after {
            After::Keep => {}
            After::Close(reason) => self.close(conn, reason),
            After::Failed => self.close(conn, CloseReason::Io),
        }
    }

    fn close(&mut self, conn: ConnId, reason: CloseReason) {
        let Some(state) = self.conns.remove(&conn) else {
            return;
        };
        let _ = self.epoll.remove(state.stream.as_raw_fd());
        // Queued-but-unwritten bytes die with the connection.
        self.config
            .metrics
            .write_queue_bytes
            .add(-(state.out_bytes as i64));
        drop(state); // closes the socket
        self.shared.open_sockets.fetch_sub(1, Ordering::SeqCst);
        self.config.metrics.closes.count(reason);
        self.events.on_close(conn, reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A decoder for tests: 1-byte length prefix, then that many bytes.
    #[derive(Default)]
    struct TinyFrames {
        buf: Vec<u8>,
        ready: VecDeque<Vec<u8>>,
    }

    impl FrameDecoder for TinyFrames {
        fn feed(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
            self.buf.extend_from_slice(bytes);
            loop {
                let Some(&len) = self.buf.first() else {
                    return Ok(());
                };
                if len == 0xFF {
                    return Err("poison length");
                }
                let len = len as usize;
                if self.buf.len() < 1 + len {
                    return Ok(());
                }
                let frame = self.buf[1..1 + len].to_vec();
                self.buf.drain(..1 + len);
                self.ready.push_back(frame);
            }
        }

        fn next_frame(&mut self) -> Option<Vec<u8>> {
            self.ready.pop_front()
        }
    }

    /// Echo app: replies to every frame with the same frame, and
    /// reports lifecycle events over a channel.
    struct Echo {
        handle: ReactorHandle,
        log: mpsc::Sender<String>,
    }

    impl Events for Echo {
        type Decoder = TinyFrames;

        fn decoder(&mut self) -> TinyFrames {
            TinyFrames::default()
        }

        fn on_open(&mut self, conn: ConnId) {
            let _ = self.log.send(format!("open {conn}"));
        }

        fn on_frame(&mut self, conn: ConnId, frame: Vec<u8>) {
            let mut reply = vec![frame.len() as u8];
            reply.extend_from_slice(&frame);
            self.handle.send(conn, reply);
        }

        fn on_reject(&mut self) -> Option<Vec<u8>> {
            Some(vec![4, b'b', b'u', b's', b'y'])
        }

        fn on_violation(&mut self, _conn: ConnId, reason: &'static str) -> Option<Vec<u8>> {
            let mut bytes = vec![reason.len() as u8];
            bytes.extend_from_slice(reason.as_bytes());
            Some(bytes)
        }

        fn on_close(&mut self, conn: ConnId, reason: CloseReason) {
            let _ = self.log.send(format!("close {conn} {reason:?}"));
        }
    }

    fn start(config: ReactorConfig) -> (ReactorThread, SocketAddr, mpsc::Receiver<String>) {
        let reactor = Reactor::bind("127.0.0.1:0", config).unwrap();
        let addr = reactor.local_addr();
        let handle = reactor.handle();
        let (log, events) = mpsc::channel();
        let thread = reactor.spawn(Echo { handle, log }).unwrap();
        (thread, addr, events)
    }

    fn read_reply(stream: &mut TcpStream) -> Vec<u8> {
        let mut len = [0u8; 1];
        stream.read_exact(&mut len).unwrap();
        let mut body = vec![0u8; len[0] as usize];
        stream.read_exact(&mut body).unwrap();
        body
    }

    #[test]
    fn frames_round_trip_even_when_dribbled_byte_by_byte() {
        let (thread, addr, _events) = start(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let message = [5u8, b'h', b'e', b'l', b'l', b'o'];
        for byte in message {
            stream.write_all(&[byte]).unwrap();
            stream.flush().unwrap();
        }
        assert_eq!(read_reply(&mut stream), b"hello");
        // A second frame on the same connection still works.
        stream.write_all(&[2, b'h', b'i']).unwrap();
        assert_eq!(read_reply(&mut stream), b"hi");
        thread.shutdown();
    }

    #[test]
    fn metrics_count_accepts_frames_bytes_and_closes() {
        let registry = MetricsRegistry::new();
        let (thread, addr, _events) = start(ReactorConfig {
            max_open_sockets: 1,
            metrics: ReactorMetrics::register(&registry),
            ..ReactorConfig::default()
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(&[5, b'h', b'e', b'l', b'l', b'o'])
            .unwrap();
        assert_eq!(read_reply(&mut stream), b"hello");
        // A second socket is rejected at the cap of one.
        let mut second = TcpStream::connect(addr).unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(read_reply(&mut second), b"busy");
        // Joining the reactor thread makes every counter final.
        thread.shutdown();
        let snap = registry.snapshot();
        use cm_telemetry::metric_names as names;
        assert_eq!(snap.counter(names::REACTOR_ACCEPTS, &[]), Some(1));
        assert_eq!(snap.counter(names::REACTOR_REJECTS, &[]), Some(1));
        assert_eq!(snap.counter(names::REACTOR_FRAMES_ASSEMBLED, &[]), Some(1));
        assert_eq!(snap.counter(names::REACTOR_BYTES_IN, &[]), Some(6));
        assert_eq!(
            snap.counter(names::REACTOR_BYTES_OUT, &[]),
            Some(6),
            "echo reply: length byte + payload (the reject farewell is \
             written pre-admission and not counted)"
        );
        assert_eq!(
            snap.counter(names::REACTOR_CLOSES, &[("reason", "shutdown")]),
            Some(1)
        );
        assert_eq!(
            snap.gauge(names::REACTOR_WRITE_QUEUE_BYTES, &[]),
            Some(0),
            "queued bytes all flushed or released on close"
        );
        assert!(
            snap.histogram(names::REACTOR_EPOLL_WAIT_US, &[])
                .is_some_and(|h| h.count > 0),
            "the loop waited at least once"
        );
    }

    #[test]
    fn sockets_past_the_cap_get_the_farewell_and_are_dropped() {
        let (thread, addr, events) = start(ReactorConfig {
            max_open_sockets: 1,
            ..ReactorConfig::default()
        });
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(&[1, b'a']).unwrap();
        first
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(read_reply(&mut first), b"a");
        // Second socket: rejected with the farewell, then EOF.
        let mut second = TcpStream::connect(addr).unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(read_reply(&mut second), b"busy");
        let mut rest = Vec::new();
        second.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        // The admitted socket keeps serving; only one open ever shows.
        assert_eq!(thread.handle().open_sockets(), 1);
        first.write_all(&[1, b'b']).unwrap();
        assert_eq!(read_reply(&mut first), b"b");
        // Dropping the first frees the slot for a third.
        drop(first);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut third_reply = Vec::new();
        while std::time::Instant::now() < deadline {
            let mut third = TcpStream::connect(addr).unwrap();
            third
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            third.write_all(&[1, b'c']).unwrap();
            match (|| -> std::io::Result<Vec<u8>> {
                let mut len = [0u8; 1];
                third.read_exact(&mut len)?;
                let mut body = vec![0u8; len[0] as usize];
                third.read_exact(&mut body)?;
                Ok(body)
            })() {
                Ok(reply) if reply == b"c" => {
                    third_reply = reply;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        assert_eq!(third_reply, b"c");
        drop(events);
        thread.shutdown();
    }

    #[test]
    fn violations_get_the_farewell_then_a_close() {
        let (thread, addr, events) = start(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&[0xFF]).unwrap();
        assert_eq!(read_reply(&mut stream), b"poison length");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        // The close reason is the violation, not an io error.
        let mut saw_violation = false;
        while let Ok(line) = events.recv_timeout(Duration::from_secs(10)) {
            if line.contains("Violation") {
                saw_violation = true;
                break;
            }
        }
        assert!(saw_violation);
        thread.shutdown();
    }

    #[test]
    fn shutdown_force_closes_tracked_sockets() {
        let (thread, addr, events) = start(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[1, b'x']).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(read_reply(&mut stream), b"x");
        let handle = thread.handle();
        thread.shutdown();
        assert!(!handle.is_live());
        assert_eq!(handle.open_sockets(), 0);
        // Sends after shutdown report failure instead of vanishing.
        assert!(!handle.send(ConnId(2), vec![1, b'y']));
        // The peer observes EOF.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        let closes: Vec<String> = events.try_iter().filter(|l| l.contains("close")).collect();
        assert!(closes.iter().any(|l| l.contains("Shutdown")), "{closes:?}");
    }

    #[test]
    fn requested_close_tears_the_connection_down() {
        let (thread, addr, events) = start(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[1, b'q']).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(read_reply(&mut stream), b"q");
        // The only admitted conn is the first token.
        thread.handle().close(ConnId(FIRST_CONN_TOKEN));
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        let mut saw = false;
        while let Ok(line) = events.recv_timeout(Duration::from_secs(10)) {
            if line.contains("Requested") {
                saw = true;
                break;
            }
        }
        assert!(saw);
        thread.shutdown();
    }

    #[test]
    fn write_overflow_is_a_typed_close() {
        let (thread, addr, events) = start(ReactorConfig {
            max_buffered_write: 8,
            ..ReactorConfig::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        // Wait for admission, then overflow the tiny write buffer from
        // the handle side without the peer ever reading.
        let mut opened = None;
        while let Ok(line) = events.recv_timeout(Duration::from_secs(10)) {
            if let Some(id) = line.strip_prefix("open conn#") {
                opened = id.parse::<u64>().ok();
                break;
            }
        }
        let conn = ConnId(opened.unwrap());
        let handle = thread.handle();
        // The socket's kernel buffer absorbs early sends; keep pushing
        // until the reactor-side queue (capped at 8 bytes) overflows.
        let mut saw_overflow = false;
        for _ in 0..100_000 {
            handle.send(conn, vec![0u8; 64]);
            if let Ok(line) = events.recv_timeout(Duration::from_millis(1)) {
                if line.contains("WriteOverflow") {
                    saw_overflow = true;
                    break;
                }
            }
        }
        assert!(saw_overflow);
        drop(stream);
        thread.shutdown();
    }
}
