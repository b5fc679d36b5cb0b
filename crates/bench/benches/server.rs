//! Serving-layer micro-benchmarks: wire-frame codec throughput, one CM-SW
//! search on 1, 2 and 4 polynomial ranges, and single-tenant
//! saturation (1 vs K matcher-pool workers under concurrent queries —
//! the per-tenant throughput the shared exec runtime unlocked).
//!
//! Small sizes keep `cargo bench` fast; CI only compiles this
//! (`cargo bench --no-run`).

use cm_bench::random_bits;
use cm_bfv::BfvParams;
use cm_core::WorkerPool;
use cm_core::{Backend, BitString, ErasedMatcher, MatchStats, MatcherConfig};
use cm_server::wire::{auth_tag, content_digest, upload_tag, Request, Response, OP_EVICT};
use cm_server::{
    EvictAuth, QueryPayload, ShardedCmMatcher, TenantRegistry, TenantSpec, UploadAuth,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_sharded_search(c: &mut Criterion) {
    // Four polynomials under the insecure test parameters.
    let data = random_bits(2048 * 4, 17);
    let query = data.slice(1000, 24);
    let mut group = c.benchmark_group("sharded_search");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        let mut matcher = ShardedCmMatcher::new(BfvParams::insecure_test_add(), shards, 3).unwrap();
        matcher.load_database(&data).unwrap();
        assert_eq!(matcher.find_all(&query).unwrap(), data.find_all(&query));
        group.bench_function(
            format!("find_all_{}b_db/{shards}_shards", data.len()),
            |b| b.iter(|| matcher.find_all(black_box(&query)).unwrap()),
        );
    }
    group.finish();
}

/// One tenant, 8 concurrent CM-SW queries per iteration: with K = 1 the
/// matcher pool serializes them (the old per-tenant-mutex behaviour);
/// with K = 4 four run at once, so per-tenant throughput scales with the
/// worker count. The perf trajectory watches the K=4 / K=1 ratio — on a
/// machine with ≥ 4 cores it sits at ~4× (a single core shows ~1×, since
/// the overlapped queries still share the one CPU; the e2e suite proves
/// the overlap itself scheduling-independently).
fn bench_single_tenant_saturation(c: &mut Criterion) {
    const CONCURRENT_QUERIES: usize = 8;

    let data = random_bits(2048 * 2, 23);
    let query = QueryPayload::Bits(data.slice(700, 24));
    let clients = WorkerPool::new(CONCURRENT_QUERIES).unwrap();

    let mut group = c.benchmark_group("tenant_saturation");
    group.sample_size(10);
    for workers in [1usize, 4] {
        let mut registry = TenantRegistry::new();
        let matcher = MatcherConfig::new(Backend::Ciphermatch)
            .insecure_test()
            .seed(2)
            .build()
            .unwrap();
        registry
            .register_with_workers("solo", matcher, workers, &[0x5A; 32], &data)
            .unwrap();
        let tenant = registry.get("solo").unwrap();
        group.bench_function(
            format!("{CONCURRENT_QUERIES}_concurrent_queries/{workers}_workers"),
            |b| {
                b.iter(|| {
                    let handles: Vec<_> = (0..CONCURRENT_QUERIES)
                        .map(|_| {
                            let tenant = Arc::clone(&tenant);
                            let query = query.clone();
                            clients.submit(move || tenant.run(&query).unwrap().stats.hom_adds)
                        })
                        .collect();
                    let total: u64 = cm_core::wait_all(handles).unwrap().into_iter().sum();
                    black_box(total)
                })
            },
        );
    }
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let request = Request::Match {
        tenant: "alice".to_string(),
        query: QueryPayload::Bits(BitString::from_bits(&[true; 256])),
    };
    let response = Response::Matched {
        nonce: 1,
        sealed_indices: vec![0xAB; 256],
        stats: MatchStats::default(),
        shard_stats: vec![MatchStats::default(); 4],
        seal_latency: Duration::from_nanos(500),
    };
    let req_bytes = request.encode();
    let resp_bytes = response.encode();

    let mut group = c.benchmark_group("wire");
    group.bench_function("encode_match_request", |b| {
        b.iter(|| black_box(&request).encode())
    });
    group.bench_function("decode_match_request", |b| {
        b.iter(|| Request::decode(black_box(&req_bytes)).unwrap())
    });
    group.bench_function("encode_matched_response", |b| {
        b.iter(|| black_box(&response).encode())
    });
    group.bench_function("decode_matched_response", |b| {
        b.iter(|| Response::decode(black_box(&resp_bytes)).unwrap())
    });
    group.finish();
}

/// The remote lifecycle's hot paths: admitting a serialized database
/// into the registry (matcher rebuild + validated decode + accounting)
/// and the register→evict cycle whose accounting must never leak bytes.
/// Also the cold-tier round trip: demote by admission, re-materialize by
/// lookup.
fn bench_database_lifecycle(c: &mut Criterion) {
    const KEY: [u8; 32] = [0x4C; 32];

    let data = random_bits(2048 * 2, 29);
    let config = MatcherConfig::new(Backend::Ciphermatch)
        .insecure_test()
        .seed(6);
    let mut owner = config.build().unwrap();
    owner.load_database(&data).unwrap();
    let encoded = owner.export_database().unwrap();
    let spec = TenantSpec::from_config(&config, 1);

    let upload_auth = |tenant: &str, nonce: u64| {
        let content = content_digest(&KEY, &encoded);
        UploadAuth {
            nonce,
            channel_key: KEY,
            content,
            tag: upload_tag(&KEY, tenant, nonce, encoded.len() as u64, &spec, &content),
        }
    };

    let mut group = c.benchmark_group("lifecycle");
    group.sample_size(10);
    group.bench_function(format!("register_evict_cycle/{}B", encoded.len()), |b| {
        let registry = TenantRegistry::new();
        let mut nonce = 0u64;
        b.iter(|| {
            nonce += 1;
            registry
                .register_remote(
                    "bench",
                    &spec,
                    encoded.clone(),
                    &upload_auth("bench", nonce),
                )
                .unwrap();
            nonce += 1;
            let auth = EvictAuth {
                nonce,
                tag: auth_tag(&KEY, OP_EVICT, "bench", 0, nonce, &[]),
            };
            let freed = registry.evict("bench", &auth).unwrap();
            assert_eq!(registry.hot_bytes(), 0);
            black_box(freed)
        })
    });
    group.bench_function(format!("demote_rematerialize/{}B", encoded.len()), |b| {
        // A budget that fits exactly one of the two tenants: every
        // iteration's lookups demote one and re-materialize the other.
        let registry = TenantRegistry::new();
        registry.set_memory_budget(Some(encoded.len() as u64));
        registry
            .register_remote("ping", &spec, encoded.clone(), &upload_auth("ping", 1))
            .unwrap();
        registry
            .register_remote("pong", &spec, encoded.clone(), &upload_auth("pong", 1))
            .unwrap();
        b.iter(|| {
            let ping = registry.get("ping").unwrap();
            let pong = registry.get("pong").unwrap();
            black_box((ping.id().len(), pong.id().len()))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sharded_search,
    bench_single_tenant_saturation,
    bench_wire_codec,
    bench_database_lifecycle
);
criterion_main!(benches);
