//! End-to-end telemetry test (the CI "telemetry smoke"): drives a live
//! server through a known workload — N match queries, exactly one
//! socket-cap `ServerBusy` rejection, exactly one budget demotion — and
//! asserts the [`Request::Metrics`] snapshot counts match the workload
//! **exactly**, not approximately. A metrics layer that drops or
//! double-counts events under concurrency is worse than none.
//!
//! Checked properties:
//! * the count of `cm_server_request_latency_us{tag="match"}` equals the
//!   number of match queries the client sent and got answers for;
//! * `cm_reactor_rejects_total` is exactly 1 (one connection past
//!   `max_open_sockets = 2`), `cm_server_busy_rejections_total
//!   {cap="frames"}` exactly 0;
//! * `cm_registry_demotions_total` is exactly 1 (the second upload
//!   pushed the first tenant out of a budget sized for ~1.5 databases),
//!   and the hot-bytes gauge equals the surviving database's bytes;
//! * `cm_server_upload_bytes_total` equals the byte-exact sum of both
//!   uploaded databases;
//! * per-frame tracing separates queue wait from serve time: for the
//!   match tag, `queue_wait.sum + serve_time.sum <= latency.sum`, and
//!   the server-side latency sum is bounded by the client-side
//!   end-to-end sum (the server interval nests inside the client RTT);
//! * the sum of `cm_server_hom_adds` equals the Hom-Adds the replies'
//!   stats report;
//! * the snapshot travels the wire: everything above is read via
//!   [`MatchClient::metrics`], i.e. through the codec, not in-process.
//!
//! A second test sends frames for fresh, unknown tenant ids and checks
//! that they add no series and no reply bytes.
//!
//! [`Request::Metrics`]: cm_server::Request

use std::time::Instant;

use cm_core::{Backend, BitString, MatchError, MatcherConfig};
use cm_server::{
    MatchClient, MatchServer, Response, ServerConfig, TenantAccess, TenantRegistry, TenantSpec,
};
use cm_telemetry::{metric_names, MetricsSnapshot};

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
    let snapshot = client.metrics().unwrap();

    let counter = |name, labels: &[(&str, &str)]| {
        snapshot
            .counter(name, labels)
            .unwrap_or_else(|| panic!("{name}{labels:?} missing from the snapshot"))
    };
    assert_eq!(
        counter(metric_names::REACTOR_REJECTS, &[]),
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
    assert_eq!(
        latency.count, MATCH_QUERIES as u64,
        "every answered match query is counted, none twice"
    );
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
    let hom_adds = snapshot
        .histogram(metric_names::SERVER_HOM_ADDS, &[])
        .expect("per-request Hom-Add histogram missing from the snapshot");
    assert_eq!(hom_adds.count, MATCH_QUERIES as u64);
    assert_eq!(
        hom_adds.sum, hom_adds_sent,
        "the Hom-Add sum equals the sum of per-reply stats"
    );

    // Lower layers registered into the same registry and saw traffic
    // (the straggler was rejected, not accepted, so it does not count).
    assert!(counter(metric_names::REACTOR_ACCEPTS, &[]) >= 2);
    assert!(counter(metric_names::REACTOR_FRAMES_ASSEMBLED, &[]) > 0);

    // A second snapshot counts the first one's Metrics frame.
    let again = client.metrics().unwrap();
    assert_eq!(
        again
            .histogram(
                metric_names::SERVER_REQUEST_LATENCY_US,
                &[("tag", "metrics")]
            )
            .map(|latency| latency.count),
        Some(1),
        "the first Metrics request is visible to the second"
    );

    // The text exposition renders every series the snapshot carries.
    let text = again.render_text();
    assert!(text.contains("cm_server_request_latency_us_count{tag=\"match\"} 7"));
    assert!(text.contains("cm_registry_demotions_total 1"));
    server.shutdown();
}

/// Series in a snapshot, of every kind.
fn series(snapshot: &MetricsSnapshot) -> usize {
    snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len()
}

/// The encoded `Metrics` reply's length, less the histogram bucket lists:
/// those hold one entry per occupied latency bucket, so they vary with the
/// timings measured but not with the ids a client names (each is bounded
/// by `cm_telemetry::HISTOGRAM_BUCKETS`).
fn reply_len_without_buckets(snapshot: &MetricsSnapshot) -> usize {
    let mut snapshot = snapshot.clone();
    for histogram in &mut snapshot.histograms {
        histogram.buckets.clear();
    }
    Response::Metrics(snapshot).encode().len()
}

#[test]
fn fresh_tenant_ids_add_no_series() {
    let server = MatchServer::with_config(TenantRegistry::new(), ServerConfig::default())
        .unwrap()
        .spawn("127.0.0.1:0")
        .unwrap();
    let mut client = MatchClient::connect(server.addr()).unwrap();
    let pattern = BitString::from_ascii("id");
    let before = client.metrics().unwrap();
    for i in 0..100 {
        let id = format!("fresh-{i}");
        assert!(matches!(
            client.tenant_stats(&id),
            Err(MatchError::UnknownTenant(_))
        ));
        let access = TenantAccess::new(&id, &KEY_ONE);
        assert!(matches!(
            client.search_bits(&access, &pattern),
            Err(MatchError::UnknownTenant(_))
        ));
    }
    let after = client.metrics().unwrap();
    assert_eq!(
        after
            .histogram(
                metric_names::SERVER_REQUEST_LATENCY_US,
                &[("tag", "tenant_stats")]
            )
            .map(|latency| latency.count),
        Some(100),
        "every fresh-id frame was answered"
    );
    assert_eq!(
        series(&after),
        series(&before),
        "a client-chosen tenant id keys no series"
    );
    assert_eq!(
        reply_len_without_buckets(&after),
        reply_len_without_buckets(&before),
        "the Metrics reply does not grow with fresh ids"
    );
    server.shutdown();
}
