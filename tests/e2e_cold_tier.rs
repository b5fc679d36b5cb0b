//! End-to-end cold-tier test (the CI "cold-tier smoke"): drives a live
//! server over TCP through the full two-tier lifecycle and asserts the
//! acceptance criteria of the flash-backed cold store:
//!
//! * demotion leaves the hot-tier accounting excluding the demoted
//!   bytes AND removes the host-RAM copy — the simulated SSD's pages
//!   are the master copy, observable over the wire as
//!   `cm_registry_cold_bytes` / `cm_registry_flash_wear_total`;
//! * a demoted `ifp` tenant answers a Match query **while cold**,
//!   correctly, with `flash_wear > 0` in its lifetime stats (the
//!   demotion write) and zero wear from the query itself — cold is
//!   IFP's native tier, not a penalty (`cm_registry_cold_hits`,
//!   `cm_registry_rematerializations_total` stays 0);
//! * `DatabaseInfo` and stats reads never re-materialize a cold tenant
//!   (`tier` stays `"flash"`, `resident` stays false);
//! * after churning every tenant out, both the hot- and cold-tier
//!   accounting return to zero — no byte leaks into either tier.

use cm_core::{Backend, BitString, MatcherConfig};
use cm_server::{
    IfpMatcher, MatchClient, MatchServer, ServerConfig, TenantAccess, TenantRegistry, TenantSpec,
};
use cm_telemetry::metric_names;

const KEY_IFP: [u8; 32] = [0xC0; 32];
const KEY_PUSH: [u8; 32] = [0xC1; 32];

/// Client-side build of an in-flash (`ifp`) encrypted database: keys are
/// derived deterministically from the spec seed, so the server rebuilds
/// the matching device from the spec alone.
fn export_ifp(seed: u64, text: &str) -> (TenantSpec, Vec<u8>, BitString) {
    let data = BitString::from_ascii(text);
    let mut owner = cm_core::erase(IfpMatcher::for_spec(seed, true).unwrap(), seed);
    owner.load_database(&data).unwrap();
    let encoded = owner.export_database().unwrap();
    let spec = TenantSpec {
        backend: "ifp".into(),
        seed,
        insecure: true,
        workers: 1,
    };
    (spec, encoded, data)
}

/// Client-side build of a CIPHERMATCH (software) database sized to evict
/// the ifp tenant from a one-database budget.
fn export_pusher(seed: u64, text: &str) -> (TenantSpec, Vec<u8>) {
    let config = MatcherConfig::new(Backend::Ciphermatch)
        .insecure_test()
        .seed(seed);
    let mut owner = config.build().unwrap();
    owner.load_database(&BitString::from_ascii(text)).unwrap();
    (
        TenantSpec::from_config(&config, 1),
        owner.export_database().unwrap(),
    )
}

#[test]
fn cold_ifp_tenants_serve_from_flash_and_accounting_returns_to_zero() {
    let (ifp_spec, ifp_encoded, data) = export_ifp(
        4242,
        "queries answered from the cold tier must stay correct",
    );
    let (push_spec, push_encoded) =
        export_pusher(4343, "this tenant exists to push the ifp tenant cold");
    let ifp_bytes = ifp_encoded.len() as u64;
    let push_bytes = push_encoded.len() as u64;

    // Each database fits alone; both together do not.
    let budget = ifp_bytes.max(push_bytes) + 1;
    let server = MatchServer::with_config(
        TenantRegistry::new(),
        ServerConfig {
            memory_budget: Some(budget),
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn("127.0.0.1:0")
    .unwrap();

    let mut client = MatchClient::connect(server.addr()).unwrap();
    let ifp = TenantAccess::new("ifp-tenant", &KEY_IFP);
    let pusher = TenantAccess::new("pusher", &KEY_PUSH);
    let pattern = BitString::from_ascii("correct");
    let truth = data.find_all(&pattern);
    assert!(!truth.is_empty());

    // --- Hot: upload, query, confirm the flash-native tier label -------
    let (bytes, demoted) = client
        .upload_database(&ifp, &ifp_spec, &ifp_encoded, 1)
        .unwrap();
    assert_eq!(bytes, ifp_bytes);
    assert!(demoted.is_empty());
    let hot_reply = client.search_bits(&ifp, &pattern).unwrap();
    assert_eq!(hot_reply.indices, truth);
    let info = client.database_info("ifp-tenant").unwrap();
    assert!(info.resident);
    assert_eq!(info.tier, "flash", "ifp is flash-native even while hot");

    // --- Demote: the second upload churns the ifp tenant cold ----------
    let (_, demoted) = client
        .upload_database(&pusher, &push_spec, &push_encoded, 1)
        .unwrap();
    assert_eq!(demoted, vec!["ifp-tenant".to_string()]);

    let snapshot = client.metrics().unwrap();
    let pages = ifp_bytes.div_ceil(1024); // default cold-store page size
    assert_eq!(
        snapshot.gauge(metric_names::REGISTRY_HOT_BYTES, &[]),
        Some(push_bytes as i64),
        "hot accounting excludes the demoted bytes"
    );
    assert_eq!(
        snapshot.gauge(metric_names::REGISTRY_COLD_BYTES, &[]),
        Some(ifp_bytes as i64),
        "the demoted bytes are charged to the cold tier"
    );
    assert_eq!(
        snapshot.counter(metric_names::REGISTRY_FLASH_WEAR, &[]),
        Some(pages),
        "demotion programs one flash page per 1 KiB written"
    );

    // --- Cold serve: correct answer, no rebuild, no extra wear ----------
    let cold_reply = client.search_bits(&ifp, &pattern).unwrap();
    assert_eq!(
        cold_reply.indices, truth,
        "a cold ifp tenant answers identically from flash"
    );
    assert_eq!(
        cold_reply.stats.flash_wear, 0,
        "the in-flash search is latch-only: the query wears nothing"
    );

    let info = client.database_info("ifp-tenant").unwrap();
    assert!(!info.resident, "serving cold must not promote");
    assert_eq!(info.tier, "flash");
    let (stats, queries) = client.tenant_stats("ifp-tenant").unwrap();
    assert_eq!(queries, 2, "hot + cold queries both counted");
    assert_eq!(
        stats.flash_wear, pages,
        "lifetime wear = the demotion write, charged exactly once"
    );
    // Info and stats reads above were pure reads.
    assert!(!client.database_info("ifp-tenant").unwrap().resident);

    let snapshot = client.metrics().unwrap();
    assert_eq!(
        snapshot.counter(metric_names::REGISTRY_COLD_HITS, &[]),
        Some(1),
        "exactly the one cold query served straight from flash"
    );
    assert_eq!(
        snapshot.counter(metric_names::REGISTRY_REMATERIALIZATIONS, &[]),
        Some(0),
        "the flash-native path never rebuilt a host-memory pool"
    );
    assert_eq!(
        snapshot.counter(metric_names::REGISTRY_FLASH_WEAR, &[]),
        Some(pages),
        "cold serving added zero wear"
    );

    // --- Churn everything out: both tiers drain to exactly zero --------
    let freed = client.evict_database(&pusher, 2).unwrap();
    assert_eq!(freed, push_bytes);
    let freed = client.evict_database(&ifp, 2).unwrap();
    assert_eq!(freed, 0, "evicting a cold tenant frees no hot bytes");

    let snapshot = client.metrics().unwrap();
    assert_eq!(
        snapshot.gauge(metric_names::REGISTRY_HOT_BYTES, &[]),
        Some(0),
        "no hot-tier byte leak"
    );
    assert_eq!(
        snapshot.gauge(metric_names::REGISTRY_COLD_BYTES, &[]),
        Some(0),
        "no cold-tier byte leak: eviction released the flash pages"
    );
    server.shutdown();
}
