//! End-to-end telemetry test (the CI "telemetry smoke"): drives a live
//! server through a known workload — N match queries, exactly one
//! socket-cap `ServerBusy` rejection, exactly one budget demotion — and
//! asserts the [`Request::Metrics`] snapshot counts match the workload
//! **exactly**, not approximately. A metrics layer that drops or
//! double-counts events under concurrency is worse than none.
//!
//! Checked properties:
//! * `cm_server_requests_total{tag="match"}` equals the number of match
//!   queries the client sent and got answers for;
//! * `cm_server_busy_rejections_total{cap="sockets"}` is exactly 1 (one
//!   connection past `max_open_sockets = 2`), `cap="frames"` exactly 0;
//! * `cm_registry_demotions_total` is exactly 1 (the second upload
//!   pushed the first tenant out of a budget sized for ~1.5 databases),
//!   and the hot-bytes gauge equals the surviving database's bytes;
//! * `cm_server_upload_bytes_total` equals the byte-exact sum of both
//!   uploaded databases;
//! * per-frame tracing separates queue wait from serve time: for the
//!   match tag, `queue_wait.sum + serve_time.sum <= latency.sum`, and
//!   the server-side latency sum is bounded by the client-side
//!   end-to-end sum (the server interval nests inside the client RTT);
//! * the snapshot travels the wire: everything above is read via
//!   [`MatchClient::metrics`], i.e. through the codec, not in-process.
//!
//! [`Request::Metrics`]: cm_server::Request

use std::time::Instant;

use cm_core::{Backend, BitString, MatchError, MatcherConfig};
use cm_server::{MatchClient, MatchServer, ServerConfig, TenantAccess, TenantRegistry, TenantSpec};
use cm_telemetry::metric_names;

const KEY_ONE: [u8; 32] = [0xE1; 32];
const KEY_TWO: [u8; 32] = [0xE2; 32];
const MATCH_QUERIES: usize = 7;

/// Client-side build of an encrypted database ready to upload.
fn export(seed: u64, text: &str) -> (MatcherConfig, Vec<u8>, BitString) {
    let data = BitString::from_ascii(text);
    let config = MatcherConfig::new(Backend::Ciphermatch)
        .insecure_test()
        .seed(seed);
    let mut owner = config.build().unwrap();
    owner.load_database(&data).unwrap();
    let encoded = owner.export_database().unwrap();
    (config, encoded, data)
}

#[test]
fn wire_snapshot_counts_match_the_workload_exactly() {
    let (config_one, encoded_one, _) = export(501, "tenant one is uploaded first and demoted");
    let (config_two, encoded_two, data_two) =
        export(502, "tenant two arrives second and stays hot in memory");
    let (b1, b2) = (encoded_one.len() as u64, encoded_two.len() as u64);

    // Each database fits alone, both together do not: the second upload
    // demotes the first (LRU), exactly once.
    let budget = b1 + b2 - 1;
    let server = MatchServer::with_config(
        TenantRegistry::new(),
        ServerConfig {
            max_open_sockets: 2,
            memory_budget: Some(budget),
            // Exercise the slow-query path on every frame: the stderr
            // line must never corrupt replies or panic a pump worker.
            slow_query_micros: Some(0),
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn("127.0.0.1:0")
    .unwrap();
    let addr = server.addr();

    // --- The workload, single-client serial for exact counts ----------
    let mut client = MatchClient::connect(addr).unwrap();
    let one = TenantAccess::new("tenant-one", &KEY_ONE);
    let two = TenantAccess::new("tenant-two", &KEY_TWO);

    let (bytes, demoted) = client
        .upload_database(
            &one,
            &TenantSpec::from_config(&config_one, 1),
            &encoded_one,
            1,
        )
        .unwrap();
    assert_eq!(bytes, b1);
    assert!(demoted.is_empty(), "the first upload fits the budget");
    let (bytes, demoted) = client
        .upload_database(
            &two,
            &TenantSpec::from_config(&config_two, 1),
            &encoded_two,
            1,
        )
        .unwrap();
    assert_eq!(bytes, b2);
    assert_eq!(
        demoted,
        vec!["tenant-one".to_string()],
        "the second upload demotes exactly the first tenant"
    );

    // N match queries, timed client-side: every server-side trace
    // interval nests inside one of these RTTs.
    let pattern = BitString::from_ascii("second");
    let truth = data_two.find_all(&pattern);
    assert!(!truth.is_empty());
    let mut client_side_us: u64 = 0;
    let mut hom_adds_sent: u64 = 0;
    for _ in 0..MATCH_QUERIES {
        let start = Instant::now();
        let reply = client.search_bits(&two, &pattern).unwrap();
        client_side_us += start.elapsed().as_micros() as u64;
        assert_eq!(reply.indices, truth);
        assert!(reply.stats.hom_adds > 0, "CM-SW search must run Hom-Adds");
        hom_adds_sent += reply.stats.hom_adds;
    }

    // Exactly one connection past the socket cap: the holder takes slot
    // 2 of 2, the straggler is rejected typed at the front door.
    let mut holder = MatchClient::connect(addr).unwrap();
    holder.ping().unwrap();
    let mut straggler = MatchClient::connect(addr).unwrap();
    assert_eq!(
        straggler.ping().err(),
        Some(MatchError::ServerBusy {
            max_open_sockets: 2
        })
    );
    drop(straggler);
    drop(holder);

    // --- The snapshot, read over the wire ------------------------------
    // The first snapshot must close a Hom-Add rate window for the idle
    // re-snapshot below to hold or decay: a snapshot within the guard
    // interval (`MIN_RATE_INTERVAL`, 10 ms) of server start keeps the
    // window open, and the workload can finish inside it.
    std::thread::sleep(std::time::Duration::from_millis(10));
    let snapshot = client.metrics().unwrap();

    let counter = |name, labels: &[(&str, &str)]| {
        snapshot
            .counter(name, labels)
            .unwrap_or_else(|| panic!("{name}{labels:?} missing from the snapshot"))
    };
    assert_eq!(
        counter(metric_names::SERVER_REQUESTS, &[("tag", "match")]),
        MATCH_QUERIES as u64,
        "every answered match query is counted, none twice"
    );
    assert_eq!(
        counter(metric_names::SERVER_BUSY_REJECTIONS, &[("cap", "sockets")]),
        1,
        "exactly the straggler was rejected at the socket cap"
    );
    assert_eq!(
        counter(metric_names::SERVER_BUSY_REJECTIONS, &[("cap", "frames")]),
        0,
        "serial request-reply traffic never hits the frame cap"
    );
    assert_eq!(
        counter(metric_names::REGISTRY_DEMOTIONS, &[]),
        1,
        "exactly one demotion (tenant-one on tenant-two's upload)"
    );
    assert_eq!(counter(metric_names::REGISTRY_REMATERIALIZATIONS, &[]), 0);
    assert_eq!(
        counter(metric_names::SERVER_UPLOAD_BYTES, &[]),
        b1 + b2,
        "upload accounting is byte-exact"
    );
    assert_eq!(
        snapshot.gauge(metric_names::REGISTRY_HOT_BYTES, &[]),
        Some(b2 as i64),
        "after the demotion only tenant-two is charged to the hot tier"
    );
    assert_eq!(
        snapshot.gauge(metric_names::REGISTRY_MEMORY_BUDGET_BYTES, &[]),
        Some(budget as i64)
    );

    // --- Tracing separates queue wait from serve time -------------------
    let histogram = |name| {
        snapshot
            .histogram(name, &[("tag", "match")])
            .unwrap_or_else(|| panic!("{name} missing from the snapshot"))
    };
    let latency = histogram(metric_names::SERVER_REQUEST_LATENCY_US);
    let queue_wait = histogram(metric_names::SERVER_QUEUE_WAIT_US);
    let serve_time = histogram(metric_names::SERVER_SERVE_TIME_US);
    assert_eq!(latency.count, MATCH_QUERIES as u64);
    assert_eq!(queue_wait.count, MATCH_QUERIES as u64);
    assert_eq!(serve_time.count, MATCH_QUERIES as u64);
    assert!(
        queue_wait.sum + serve_time.sum <= latency.sum,
        "queue wait ({}) + serve time ({}) must nest inside end-to-end \
         latency ({}), all in µs",
        queue_wait.sum,
        serve_time.sum,
        latency.sum
    );
    assert!(
        latency.sum <= client_side_us,
        "server-side latency ({} µs) cannot exceed the client-side \
         end-to-end total ({} µs)",
        latency.sum,
        client_side_us
    );

    // --- Hom-Add accounting matches the replies the client saw ----------
    assert_eq!(
        counter(metric_names::SERVER_HOM_ADDS_TOTAL, &[]),
        hom_adds_sent,
        "the Hom-Add total equals the sum of per-reply stats"
    );
    let hom_adds = snapshot
        .histogram(metric_names::SERVER_HOM_ADDS, &[])
        .expect("per-request Hom-Add histogram missing from the snapshot");
    assert_eq!(hom_adds.count, MATCH_QUERIES as u64);
    assert_eq!(
        hom_adds.sum, hom_adds_sent,
        "per-request histogram sum equals the total counter"
    );
    let adds_per_sec = snapshot
        .gauge(metric_names::SERVER_HOM_ADDS_PER_SEC, &[])
        .expect("derived Hom-Add throughput gauge missing from the snapshot");
    assert!(
        adds_per_sec >= 0,
        "the derived adds/sec gauge is never negative"
    );
    // The rate is windowed with a >= 10ms minimum interval, so even the
    // first snapshot is bounded by total-adds / 10ms — never the old
    // total-over-microseconds-of-uptime garbage.
    assert!(
        adds_per_sec as u64 <= hom_adds_sent * 100,
        "adds/sec ({adds_per_sec}) must respect the minimum rate window \
         (total {hom_adds_sent} over >= 10ms)"
    );

    // The per-tenant counter sees every tenant-two frame: Begin + one
    // chunk + Commit of the upload, then the match queries.
    assert_eq!(
        counter(
            metric_names::SERVER_TENANT_REQUESTS,
            &[("tenant", "tenant-two")]
        ),
        3 + MATCH_QUERIES as u64
    );

    // Lower layers registered into the same registry and saw traffic
    // (the straggler was rejected, not accepted, so it does not count).
    assert!(counter(metric_names::REACTOR_ACCEPTS, &[]) >= 2);
    assert!(counter(metric_names::REACTOR_FRAMES_ASSEMBLED, &[]) > 0);

    // A second snapshot counts the first one's Metrics frame.
    let again = client.metrics().unwrap();
    assert_eq!(
        again.counter(metric_names::SERVER_REQUESTS, &[("tag", "metrics")]),
        Some(1),
        "the first Metrics request is visible to the second"
    );
    // No Hom-Adds ran between the two snapshots, so the windowed rate
    // either held its value (inside the guard interval) or decayed to
    // the honest current throughput: zero. A whole-uptime average would
    // instead report some in-between dilution.
    let rate_again = again
        .gauge(metric_names::SERVER_HOM_ADDS_PER_SEC, &[])
        .expect("derived Hom-Add throughput gauge missing from the snapshot");
    assert!(
        rate_again == adds_per_sec || rate_again == 0,
        "an idle re-snapshot must hold ({adds_per_sec}) or decay to 0, \
         got {rate_again}"
    );

    // The text exposition renders every series the snapshot carries.
    let text = again.render_text();
    assert!(text.contains("cm_server_requests_total{tag=\"match\"} 7"));
    assert!(text.contains("cm_registry_demotions_total 1"));
    server.shutdown();
}
