//! Reactor front-end soak (the CI "reactor smoke"): the server must
//! hold over a thousand simultaneously open **idle** connections —
//! an order of magnitude past the old thread-per-connection cap of 64 —
//! while 8 active connections saturate it with queries, and the idle
//! sockets must stay *live* (a [`MatchClient::ping`] round trip
//! answers) without ever having held a frame-pool worker.
//!
//! Checked properties:
//! * ≥ 1024 idle connections are admitted concurrently (the old
//!   front-end bound one `WorkerPool` slot per socket, so this many
//!   would have been typed-rejected at `max_open_sockets = 64`);
//! * sampled idle connections answer `ping` *after* the query storm,
//!   proving admission is per-frame, not per-connection: a silent
//!   socket costs an fd, not a worker;
//! * query throughput on the 8 active connections does not collapse
//!   under the idle load (the `connection_scaling` bench tracks the
//!   precise ratio in `BENCH_7.json`; this test enforces a generous
//!   floor so scheduler noise cannot flake CI);
//! * the active connections see correct answers throughout, and
//!   shutdown force-closes every tracked socket (drain-then-join).

use std::net::SocketAddr;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use cm_core::exec::compute_workers;
use cm_core::{wait_all, Backend, BitString, MatcherConfig, WorkerPool};
use cm_server::server::MIN_FRAME_WORKERS;
use cm_server::{MatchClient, MatchServer, ServerConfig, TenantAccess, TenantRegistry};

const KEY: [u8; 32] = [0x1D; 32];
const IDLE_CONNECTIONS: usize = 1024;
const ACTIVE_CONNECTIONS: usize = 8;
const ROUNDS_PER_CLIENT: usize = 25;

/// Held by each test for its whole run. The soak compares throughput
/// with and without idle connections, and a sibling test loading the
/// same cores meanwhile would be measured as well; a failed test's
/// poison is ignored so the others still run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn haystack() -> BitString {
    BitString::from_ascii(&"the reactor serves frames not connections ".repeat(40))
}

/// Saturates the server with `ACTIVE_CONNECTIONS` concurrent clients ×
/// `ROUNDS_PER_CLIENT` queries each and returns queries per second.
fn saturate(addr: SocketAddr, clients: &WorkerPool, expected: &[usize]) -> f64 {
    let start = Instant::now();
    let handles: Vec<_> = (0..ACTIVE_CONNECTIONS)
        .map(|_| {
            let expected = expected.to_vec();
            clients.submit(move || {
                let mut client = MatchClient::connect(addr).unwrap();
                let access = TenantAccess::new("soak", &KEY);
                let needle = BitString::from_ascii("frames");
                for _ in 0..ROUNDS_PER_CLIENT {
                    let reply = client.search_bits(&access, &needle).unwrap();
                    assert_eq!(reply.indices, expected);
                }
            })
        })
        .collect();
    wait_all(handles).unwrap();
    (ACTIVE_CONNECTIONS * ROUNDS_PER_CLIENT) as f64 / start.elapsed().as_secs_f64()
}

#[test]
fn a_thousand_idle_connections_stay_live_while_queries_saturate() {
    let _serial = serial();
    // GitHub runners default the soft fd limit to 1024; the soak needs
    // one fd per idle client plus server-side accepts and headroom.
    let limit = cm_reactor::sys::raise_nofile_limit(4 * IDLE_CONNECTIONS as u64)
        .expect("raising RLIMIT_NOFILE");
    assert!(
        limit >= 2 * IDLE_CONNECTIONS as u64 + 64,
        "fd limit {limit} cannot hold {IDLE_CONNECTIONS} idle connections on both ends"
    );

    let data = haystack();
    let needle = BitString::from_ascii("frames");
    let expected = data.find_all(&needle);
    assert!(!expected.is_empty(), "the haystack must contain the needle");

    let mut registry = TenantRegistry::new();
    registry
        .register(
            "soak",
            MatcherConfig::new(Backend::Plain).build().unwrap(),
            &KEY,
            &data,
        )
        .unwrap();
    let server = MatchServer::with_config(
        registry,
        ServerConfig {
            max_open_sockets: IDLE_CONNECTIONS + 128,
            max_inflight_frames: 16,
            memory_budget: None,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn("127.0.0.1:0")
    .unwrap();
    let addr = server.addr();
    let clients = WorkerPool::new(ACTIVE_CONNECTIONS).unwrap();

    // Baseline: saturated throughput with no idle load.
    let qps_alone = saturate(addr, &clients, &expected);

    // Open the idle herd. Every one of these would have been rejected
    // typed at the old `max_open_sockets = 64` front-end once the cap
    // filled; here they are all admitted and each costs one fd.
    let mut idle: Vec<MatchClient> = (0..IDLE_CONNECTIONS)
        .map(|i| {
            MatchClient::connect(addr)
                .unwrap_or_else(|e| panic!("idle connection {i} refused: {e}"))
        })
        .collect();

    // Saturate again with the herd held open.
    let qps_loaded = saturate(addr, &clients, &expected);

    // The herd is still live: sampled idle connections (first, last,
    // and every 64th) answer a ping round trip after the query storm —
    // without a single one of them ever occupying a frame-pool slot
    // while idle.
    let sample: Vec<usize> = std::iter::once(0)
        .chain((1..IDLE_CONNECTIONS).filter(|i| i % 64 == 0))
        .chain(std::iter::once(IDLE_CONNECTIONS - 1))
        .collect();
    for &i in &sample {
        idle[i]
            .ping()
            .unwrap_or_else(|e| panic!("idle connection {i} went dead: {e}"));
    }

    // Idle sockets are readiness-driven, so holding 1024 of them must
    // not collapse active throughput. The precise within-10% tracking
    // lives in the committed `BENCH_7.json` (see the
    // `connection_scaling` bench); the in-test floor is deliberately
    // loose so a noisy shared runner cannot flake CI.
    assert!(
        qps_loaded >= 0.5 * qps_alone,
        "throughput collapsed under idle load: {qps_alone:.0} q/s alone \
         vs {qps_loaded:.0} q/s with {IDLE_CONNECTIONS} idle connections"
    );
    println!(
        "saturated {ACTIVE_CONNECTIONS} active: {qps_alone:.0} q/s alone, \
         {qps_loaded:.0} q/s with {IDLE_CONNECTIONS} idle ({:.1}%)",
        100.0 * qps_loaded / qps_alone
    );

    // Shutdown force-closes every tracked socket: the idle herd
    // observes EOF instead of hanging.
    drop(idle);
    server.shutdown();
}

#[test]
fn inflight_cap_rejects_typed_while_sockets_stay_cheap() {
    let _serial = serial();
    // A server with room for many sockets but exactly one in-flight
    // frame: connections are cheap, *work* is the scarce resource.
    let data = haystack();
    let mut registry = TenantRegistry::new();
    registry
        .register(
            "soak",
            MatcherConfig::new(Backend::Plain).build().unwrap(),
            &KEY,
            &data,
        )
        .unwrap();
    let server = MatchServer::with_config(
        registry,
        ServerConfig {
            max_open_sockets: 256,
            max_inflight_frames: 1,
            memory_budget: None,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn("127.0.0.1:0")
    .unwrap();
    let addr = server.addr();

    // Dozens of open sockets — far past the frame cap — all admitted.
    let mut many: Vec<MatchClient> = (0..128)
        .map(|_| MatchClient::connect(addr).unwrap())
        .collect();
    // Strict request-reply traffic never exceeds one frame in flight
    // per moment from a single client, so each ping succeeds even at
    // `max_inflight_frames = 1`.
    for client in many.iter_mut().take(16) {
        client.ping().unwrap();
    }
    drop(many);
    server.shutdown();
}

#[test]
fn blocked_requests_that_outnumber_the_frame_workers_all_finish() {
    let _serial = serial();
    // One matcher, four clients per frame worker: at any moment most
    // admitted Matches wait for that matcher, more of them than there
    // are workers. They must all finish, correct, and a ping on its own
    // connection must answer while they run.
    const ROUNDS: usize = 40;
    let data = haystack();
    let mut registry = TenantRegistry::new();
    registry
        .register_with_workers(
            "one",
            MatcherConfig::new(Backend::Plain).build().unwrap(),
            1,
            &KEY,
            &data,
        )
        .unwrap();
    let server = MatchServer::new(registry).spawn("127.0.0.1:0").unwrap();
    let addr = server.addr();
    let batches = 4 * compute_workers().max(MIN_FRAME_WORKERS);
    // Every client has its first answer before the ping is sent.
    let started = Arc::new(Barrier::new(batches + 1));
    let clients = WorkerPool::new(batches).unwrap();
    let handles: Vec<_> = (0..batches)
        .map(|i| {
            let (data, started) = (data.clone(), Arc::clone(&started));
            clients.submit(move || {
                let mut client = MatchClient::connect(addr).unwrap();
                let access = TenantAccess::new("one", &KEY);
                let needles = ["frames", "not", "reactor", "the "];
                for round in 0..ROUNDS {
                    let needle = BitString::from_ascii(needles[(i + round) % needles.len()]);
                    let reply = client.search_bits(&access, &needle).unwrap();
                    assert_eq!(reply.indices, data.find_all(&needle), "client {i}");
                    if round == 0 {
                        started.wait();
                    }
                }
            })
        })
        .collect();
    let mut pinger = MatchClient::connect(addr).unwrap();
    started.wait();
    pinger.ping().unwrap();
    assert!(
        handles.iter().any(|h| !h.is_finished()),
        "the ping answered only after every client was done"
    );
    wait_all(handles).unwrap();
    server.shutdown();
}
