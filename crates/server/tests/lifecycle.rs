//! The remote database lifecycle, exercised at the registry level and
//! over real TCP:
//!
//! * **Eviction policy** — LRU demotion order under a memory budget,
//!   pinned tenants exempt, `QuotaExceeded` for a database bigger than
//!   the whole budget, and byte-exact accounting that returns to zero
//!   across register/evict cycles (no leaks).
//! * **Authorization** — wrong channel keys, replayed nonces, and
//!   evict-by-non-owner are all rejected with `Unauthorized` and leave
//!   the registry untouched.
//! * **Upload abuse over the wire** — out-of-order, duplicate, and
//!   overrunning chunks, plus commits without (or with incomplete)
//!   uploads, all surface as typed `UploadIncomplete` errors on a
//!   connection that stays usable; concurrent uploads share one staging
//!   cap.
//! * **The half-written-chunk regression** — a server hanging up
//!   mid-upload surfaces as the typed `ConnectionClosed`, not a raw io
//!   error.

use std::net::{TcpListener, TcpStream};

use cm_core::{Backend, BitString, MatchError, MatcherConfig};
use cm_server::wire::{auth_tag, content_digest, read_frame, upload_tag, write_frame, OP_EVICT};
use cm_server::{
    EvictAuth, MatchClient, MatchServer, QueryPayload, Request, Response, TenantAccess,
    TenantRegistry, TenantSpec, UploadAuth, UploadPhase,
};
use cm_ssd::SecureIndexChannel;

const KEY_A: [u8; 32] = [0xA1; 32];
const KEY_B: [u8; 32] = [0xB2; 32];
const KEY_C: [u8; 32] = [0xC3; 32];
const KEY_EVE: [u8; 32] = [0xEE; 32];

/// A plain-backend remote tenant payload of exactly `bytes` database
/// bytes (serialized charge = 8 + bytes).
fn plain_payload(bytes: usize, fill: u8) -> (TenantSpec, Vec<u8>, BitString) {
    let data = BitString::from_bytes(&vec![fill; bytes]);
    let config = MatcherConfig::new(Backend::Plain);
    let mut owner = config.build().unwrap();
    owner.load_database(&data).unwrap();
    let encoded = owner.export_database().unwrap();
    assert_eq!(encoded.len(), 8 + bytes);
    (TenantSpec::from_config(&config, 1), encoded, data)
}

/// A fully valid upload authorization for `payload` (what
/// `MatchClient::upload_database` computes client-side).
fn remote_auth(
    key: &[u8; 32],
    tenant: &str,
    spec: &TenantSpec,
    payload: &[u8],
    nonce: u64,
) -> UploadAuth {
    let content = content_digest(key, payload);
    UploadAuth {
        nonce,
        channel_key: *key,
        content,
        tag: upload_tag(key, tenant, nonce, payload.len() as u64, spec, &content),
    }
}

fn evict_auth(key: &[u8; 32], tenant: &str, nonce: u64) -> EvictAuth {
    EvictAuth {
        nonce,
        tag: auth_tag(key, OP_EVICT, tenant, 0, nonce, &[]),
    }
}

// ---------------------------------------------------------------------------
// Eviction policy
// ---------------------------------------------------------------------------

#[test]
fn lru_order_is_respected_and_cold_tenants_rematerialize() {
    let registry = TenantRegistry::new();
    let (spec, encoded, _) = plain_payload(100, 1);
    let charge = encoded.len() as u64; // 108
    registry.set_memory_budget(Some(charge * 2 + 10)); // fits two, not three

    registry
        .register_remote(
            "a",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_A, "a", &spec, &encoded, 1),
        )
        .unwrap();
    registry
        .register_remote(
            "b",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_B, "b", &spec, &encoded, 1),
        )
        .unwrap();
    assert_eq!(registry.hot_bytes(), charge * 2);

    // Touch `a`: `b` becomes the least recently used.
    registry.get("a").unwrap();

    let load = registry
        .register_remote(
            "c",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_C, "c", &spec, &encoded, 1),
        )
        .unwrap();
    assert_eq!(load.bytes, charge);
    assert_eq!(load.demoted, vec!["b".to_string()], "LRU victim is b");
    assert!(registry.is_resident("a").unwrap());
    assert!(!registry.is_resident("b").unwrap());
    assert!(registry.is_resident("c").unwrap());
    assert_eq!(registry.hot_bytes(), charge * 2);
    // All three stay *registered* — more tenants than fit in memory.
    assert_eq!(registry.len(), 3);

    // Querying the cold tenant re-materializes it, demoting the new LRU
    // (`a`: touched before `c` was admitted).
    let tenant_b = registry.get("b").unwrap();
    assert_eq!(tenant_b.id(), "b");
    assert!(registry.is_resident("b").unwrap());
    assert!(!registry.is_resident("a").unwrap());
    assert_eq!(registry.hot_bytes(), charge * 2);
}

#[test]
fn pinned_tenants_are_never_evicted() {
    let registry = TenantRegistry::new();
    let (spec, encoded, _) = plain_payload(100, 2);
    let charge = encoded.len() as u64;
    registry.set_memory_budget(Some(charge * 2 + 10));

    registry
        .register_remote(
            "pinned",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_A, "pinned", &spec, &encoded, 1),
        )
        .unwrap();
    // Pinning is operator-only (never accepted from the wire): the
    // operator pins the tenant server-side after admission.
    registry.set_pinned("pinned", true).unwrap();
    registry
        .register_remote(
            "victim",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_B, "victim", &spec, &encoded, 1),
        )
        .unwrap();

    // `pinned` is older than `victim`, but only `victim` may be demoted.
    let load = registry
        .register_remote(
            "newcomer",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_C, "newcomer", &spec, &encoded, 1),
        )
        .unwrap();
    assert_eq!(load.demoted, vec!["victim".to_string()]);
    assert!(registry.is_resident("pinned").unwrap());

    // With only pinned/hot tenants left, a further admission fails typed
    // — and the failed admission is not registered.
    registry.set_pinned("newcomer", true).unwrap();
    let err = registry
        .register_remote(
            "overflow",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_EVE, "overflow", &spec, &encoded, 1),
        )
        .unwrap_err();
    assert!(
        matches!(err, MatchError::QuotaExceeded { required, .. } if required == charge),
        "{err:?}"
    );
    assert_eq!(registry.len(), 3);
    assert!(matches!(
        registry.info("overflow"),
        Err(MatchError::UnknownTenant(_))
    ));
    assert_eq!(registry.hot_bytes(), charge * 2);
}

#[test]
fn a_single_database_over_the_budget_is_quota_exceeded() {
    let registry = TenantRegistry::new();
    registry.set_memory_budget(Some(64));
    let (spec, encoded, _) = plain_payload(100, 3); // charge 108 > 64
    let required = encoded.len() as u64;
    assert_eq!(
        registry.register_remote(
            "big",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_A, "big", &spec, &encoded, 1)
        ),
        Err(MatchError::QuotaExceeded {
            budget: 64,
            required
        })
    );
    assert!(registry.is_empty());
    assert_eq!(registry.hot_bytes(), 0);

    // In-process registration is bounded by the same budget.
    let mut registry = TenantRegistry::new();
    registry.set_memory_budget(Some(4));
    let matcher = MatcherConfig::new(Backend::Plain).build().unwrap();
    let data = BitString::from_bytes(&[0xFF; 100]);
    assert!(matches!(
        registry.register("big", matcher, &KEY_A, &data),
        Err(MatchError::QuotaExceeded { .. })
    ));
    assert_eq!(registry.hot_bytes(), 0);
}

#[test]
fn accounting_returns_to_zero_across_register_evict_cycles() {
    let registry = TenantRegistry::new();
    registry.set_memory_budget(Some(4096));
    let (spec, encoded, _) = plain_payload(200, 4);
    let charge = encoded.len() as u64;

    for cycle in 0u64..3 {
        let load = registry
            .register_remote(
                "cycler",
                &spec,
                encoded.clone(),
                &remote_auth(&KEY_A, "cycler", &spec, &encoded, 2 * cycle + 1),
            )
            .unwrap();
        assert_eq!(load.bytes, charge);
        assert_eq!(registry.hot_bytes(), charge, "cycle {cycle}");
        assert_eq!(registry.info("cycler").unwrap().bytes, charge);
        let freed = registry
            .evict("cycler", &evict_auth(&KEY_A, "cycler", 2 * cycle + 2))
            .unwrap();
        assert_eq!(freed, charge, "cycle {cycle}");
        assert_eq!(registry.hot_bytes(), 0, "no byte leak in cycle {cycle}");
        assert_eq!(registry.len(), 0);
    }

    // Evicting a *cold* tenant frees no hot bytes but removes the entry.
    registry
        .register_remote(
            "hotone",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_A, "hotone", &spec, &encoded, 1),
        )
        .unwrap();
    registry.set_memory_budget(Some(charge)); // exactly one fits
    registry
        .register_remote(
            "hottwo",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_B, "hottwo", &spec, &encoded, 1),
        )
        .unwrap();
    assert!(!registry.is_resident("hotone").unwrap());
    let freed = registry
        .evict("hotone", &evict_auth(&KEY_A, "hotone", 9))
        .unwrap();
    assert_eq!(freed, 0, "cold evictions release no hot bytes");
    assert_eq!(registry.hot_bytes(), charge);
}

/// A re-materialized CIPHERMATCH tenant answers byte-identically to its
/// pre-demotion self, and its lifetime statistics survive the round trip
/// through the cold tier.
#[test]
fn rematerialized_tenants_answer_identically_and_keep_their_stats() {
    let registry = TenantRegistry::new();
    let data = BitString::from_ascii("the cold tier keeps the sealed answer stable");
    let config = MatcherConfig::new(Backend::Ciphermatch)
        .insecure_test()
        .seed(4242);
    let mut owner = config.build().unwrap();
    owner.load_database(&data).unwrap();
    let encoded = owner.export_database().unwrap();
    let spec = TenantSpec::from_config(&config, 2);
    let charge = encoded.len() as u64;
    registry.set_memory_budget(Some(charge + 300));

    registry
        .register_remote(
            "cm",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_A, "cm", &spec, &encoded, 1),
        )
        .unwrap();
    let pattern = BitString::from_ascii("sealed");
    let truth = data.find_all(&pattern);
    let open = |reply: &cm_server::MatchedReply| {
        SecureIndexChannel::new(&KEY_A).open(&reply.sealed_indices, reply.nonce)
    };

    let hot = registry.get("cm").unwrap();
    let before = hot.run(&QueryPayload::Bits(pattern.clone())).unwrap();
    assert_eq!(open(&before), truth);
    assert!(before.stats.hom_adds > 0);

    // Push `cm` out with a plain tenant too big to share the budget.
    let (pspec, pencoded, _) = plain_payload(400, 5);
    let load = registry
        .register_remote(
            "pusher",
            &pspec,
            pencoded.clone(),
            &remote_auth(&KEY_B, "pusher", &pspec, &pencoded, 1),
        )
        .unwrap();
    assert_eq!(load.demoted, vec!["cm".to_string()]);
    assert!(!registry.is_resident("cm").unwrap());
    // The stats survive demotion and are readable without warming it up.
    assert_eq!(registry.totals_of("cm").unwrap().1, 1);
    assert!(!registry.is_resident("cm").unwrap());

    // Re-materialization: same indices, fresh nonce (never a reused
    // keystream), and the query count keeps accumulating.
    let warm = registry.get("cm").unwrap();
    assert!(registry.is_resident("cm").unwrap());
    let after = warm.run(&QueryPayload::Bits(pattern)).unwrap();
    assert_eq!(open(&after), truth);
    assert_ne!(after.nonce, before.nonce);
    assert_eq!(warm.totals().1, 2);
}

// ---------------------------------------------------------------------------
// The flash-backed cold tier
// ---------------------------------------------------------------------------

/// An in-flash (`ifp`) remote tenant payload: deterministic keys from the
/// spec seed, exported through the device's honest flash read-back path.
fn ifp_payload(seed: u64, text: &str) -> (TenantSpec, Vec<u8>, BitString) {
    let data = BitString::from_ascii(text);
    let mut owner = cm_core::erase(cm_server::IfpMatcher::for_spec(seed, true).unwrap(), seed);
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

/// Demotion makes the simulated flash the master copy: the matcher is
/// dropped, the cold store holds its exported bytes as pages, the
/// write's wear and movement land in the victim's own stats, and
/// promotion reads it all back at the same charge.
#[test]
fn cold_demotion_moves_the_master_copy_into_flash() {
    let registry = TenantRegistry::new();
    let (spec, encoded, _) = plain_payload(3000, 0x11);
    let charge = encoded.len() as u64;
    registry.set_memory_budget(Some(charge)); // exactly one fits

    registry
        .register_remote(
            "first",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_A, "first", &spec, &encoded, 1),
        )
        .unwrap();
    assert!(registry.is_resident("first").unwrap());
    assert_eq!(registry.info("first").unwrap().bytes, charge);
    assert_eq!(registry.cold_bytes(), 0);
    assert_eq!(registry.cold_store_wear(), 0);

    let load = registry
        .register_remote(
            "second",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_B, "second", &spec, &encoded, 1),
        )
        .unwrap();
    assert_eq!(load.demoted, vec!["first".to_string()]);

    // Hot accounting excludes the demoted bytes: the only copy is pages
    // in the cold store's simulated SSD, as many bytes as were uploaded.
    assert_eq!(registry.hot_bytes(), charge);
    assert_eq!(registry.cold_bytes(), charge);
    assert!(!registry.is_resident("first").unwrap());
    assert_eq!(registry.info("first").unwrap().bytes, charge);
    let pages = charge.div_ceil(1024); // default cold-store page size
    assert_eq!(
        registry.cold_store_wear(),
        pages,
        "one program per page written, nothing else"
    );
    let (stats, _) = registry.totals_of("first").unwrap();
    assert_eq!(stats.flash_wear, pages, "the victim pays the write wear");
    assert_eq!(stats.bytes_moved, charge, "the victim pays the movement");

    // Promotion reads the master copy back: flash reads are wear-free,
    // the same bytes move again, and the accounting swaps tiers.
    let wear_before = registry.cold_store_wear();
    registry.get("first").unwrap();
    assert!(registry.is_resident("first").unwrap());
    assert_eq!(registry.info("first").unwrap().bytes, charge);
    let (stats, _) = registry.totals_of("first").unwrap();
    assert_eq!(stats.bytes_moved, charge * 2, "write down + read back");
    // The promotion demoted "second" to make room (budget fits one), so
    // total wear grew only by second's demotion write — the read-back
    // itself added none.
    assert_eq!(registry.cold_store_wear(), wear_before + pages);
    assert_eq!(registry.cold_bytes(), charge, "second took first's place");
}

/// Satellite: the wear ledger reconciles across a full
/// demote → cold-serve → rebuild cycle — the demotion write is charged
/// exactly once (to the victim), cold serving and promotion add zero
/// wear, and the registry's ledger equals the device's.
#[test]
fn cold_wear_ledger_reconciles_across_demote_serve_rebuild() {
    let registry = TenantRegistry::new();
    let (spec, encoded, data) = ifp_payload(77, "the wear ledger must reconcile end to end");
    let charge = encoded.len() as u64;
    registry.set_memory_budget(Some(charge)); // exactly the ifp tenant

    registry
        .register_remote(
            "ifpt",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_A, "ifpt", &spec, &encoded, 1),
        )
        .unwrap();
    let pattern = BitString::from_ascii("ledger");
    let truth = data.find_all(&pattern);
    let open = |reply: &cm_server::MatchedReply| {
        SecureIndexChannel::new(&KEY_A).open(&reply.sealed_indices, reply.nonce)
    };

    // Hot in-flash queries are latch-only: zero wear anywhere.
    let hot_reply = registry
        .run_query("ifpt", &QueryPayload::Bits(pattern.clone()))
        .unwrap();
    assert_eq!(open(&hot_reply), truth);
    assert_eq!(registry.cold_store_wear(), 0);
    assert_eq!(registry.totals_of("ifpt").unwrap().0.flash_wear, 0);

    // Demote: exactly one program per page, charged once, to the victim.
    // The pusher's serialized charge (8 + payload) matches the ifp
    // tenant's exactly, so the one-tenant budget swaps them cleanly.
    let (pspec, pencoded, _) = plain_payload(encoded.len() - 8, 0x22);
    registry
        .register_remote(
            "pusher",
            &pspec,
            pencoded.clone(),
            &remote_auth(&KEY_B, "pusher", &pspec, &pencoded, 1),
        )
        .unwrap();
    assert!(!registry.is_resident("ifpt").unwrap());
    let pages = charge.div_ceil(1024);
    let wear_after_demote = registry.cold_store_wear();
    assert_eq!(wear_after_demote, pages);
    let charged = registry.totals_of("ifpt").unwrap().0.flash_wear;
    assert_eq!(
        charged, wear_after_demote,
        "tenant ledger == device ledger: no double- or zero-charging"
    );

    // Cold serve: the parked device answers correctly with no
    // re-materialization and no additional wear on either ledger.
    let cold_reply = registry
        .run_query("ifpt", &QueryPayload::Bits(pattern.clone()))
        .unwrap();
    assert_eq!(open(&cold_reply), truth);
    assert!(!registry.is_resident("ifpt").unwrap(), "no promotion");
    assert_eq!(registry.cold_bytes(), charge);
    assert_eq!(registry.cold_store_wear(), wear_after_demote);
    assert_eq!(registry.totals_of("ifpt").unwrap().0.flash_wear, charged);
    assert_ne!(cold_reply.nonce, hot_reply.nonce, "nonces stay monotone");

    // Rebuild: the read-back is wear-free; only the pusher's own
    // demotion write (same byte count, same page count) adds wear — and
    // it lands on the pusher, not on the promoted tenant.
    registry.get("ifpt").unwrap();
    assert!(registry.is_resident("ifpt").unwrap());
    let pusher_pages = (pencoded.len() as u64).div_ceil(1024);
    assert_eq!(registry.cold_store_wear(), wear_after_demote + pusher_pages);
    assert_eq!(
        registry.totals_of("ifpt").unwrap().0.flash_wear,
        charged,
        "promotion reads are wear-free"
    );
    assert_eq!(
        registry.totals_of("pusher").unwrap().0.flash_wear,
        pusher_pages
    );
    // And the promoted tenant still answers identically.
    let warm_reply = registry
        .run_query("ifpt", &QueryPayload::Bits(pattern))
        .unwrap();
    assert_eq!(open(&warm_reply), truth);
}

/// Satellite: `DatabaseInfo` and stats reads are pure reads — neither
/// may re-materialize a cold tenant (warming a pool to answer "is it
/// warm?" would thrash the budget).
#[test]
fn cold_info_and_stats_reads_never_rematerialize() {
    let registry = TenantRegistry::new();
    let (spec, encoded, _) = plain_payload(500, 0x33);
    let charge = encoded.len() as u64;
    registry.set_memory_budget(Some(charge));

    registry
        .register_remote(
            "colder",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_A, "colder", &spec, &encoded, 1),
        )
        .unwrap();
    registry
        .register_remote(
            "warmer",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_B, "warmer", &spec, &encoded, 1),
        )
        .unwrap();
    assert!(!registry.is_resident("colder").unwrap());

    let info = registry.info("colder").unwrap();
    assert!(!info.resident);
    assert_eq!(info.tier, "flash", "a demoted database lives in flash");
    let _ = registry.totals_of("colder").unwrap();
    assert!(
        !registry.is_resident("colder").unwrap(),
        "info/stats reads must not warm the tenant"
    );
    assert_eq!(
        registry.hot_bytes(),
        charge,
        "reads must not charge the cold database to the host either"
    );
    assert_eq!(registry.cold_bytes(), charge);

    // The hot non-ifp tenant reports the dram tier.
    assert_eq!(registry.info("warmer").unwrap().tier, "dram");
}

// ---------------------------------------------------------------------------
// Authorization
// ---------------------------------------------------------------------------

#[test]
fn wrong_channel_keys_are_unauthorized_and_leave_state_untouched() {
    let registry = TenantRegistry::new();
    let (spec, encoded, _) = plain_payload(64, 6);
    registry
        .register_remote(
            "alice",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_A, "alice", &spec, &encoded, 1),
        )
        .unwrap();
    let bytes_before = registry.hot_bytes();

    // Upload authorization with the wrong key: rejected before any state
    // changes, whether at the Begin check or the commit-time re-check.
    let eve = remote_auth(&KEY_EVE, "alice", &spec, &encoded, 50);
    assert!(matches!(
        registry.authorize_upload("alice", &eve, encoded.len() as u64, &spec),
        Err(MatchError::Unauthorized(_))
    ));
    assert!(matches!(
        registry.register_remote("alice", &spec, encoded.clone(), &eve),
        Err(MatchError::Unauthorized(_))
    ));

    // A correct key with a *spliced* tag (signed for another declared
    // size) fails.
    let mut spliced = remote_auth(&KEY_A, "alice", &spec, &encoded, 51);
    spliced.tag = upload_tag(&KEY_A, "alice", 51, 9999, &spec, &spliced.content);
    assert!(matches!(
        registry.authorize_upload("alice", &spliced, encoded.len() as u64, &spec),
        Err(MatchError::Unauthorized(_))
    ));

    // A valid tag whose payload was substituted mid-upload fails the
    // commit-time content-digest check.
    let mut swapped = remote_auth(&KEY_A, "alice", &spec, &encoded, 52);
    swapped.content = content_digest(&KEY_A, b"attacker bytes of equal length..");
    swapped.tag = upload_tag(
        &KEY_A,
        "alice",
        52,
        encoded.len() as u64,
        &spec,
        &swapped.content,
    );
    assert!(matches!(
        registry.register_remote("alice", &spec, encoded.clone(), &swapped),
        Err(MatchError::Unauthorized(_))
    ));

    assert_eq!(registry.hot_bytes(), bytes_before);
    assert_eq!(registry.len(), 1);
    assert!(registry.is_resident("alice").unwrap());
}

#[test]
fn replayed_upload_nonces_are_unauthorized() {
    let registry = TenantRegistry::new();
    let (spec, encoded, _) = plain_payload(32, 8);
    let auth = |nonce| remote_auth(&KEY_A, "alice", &spec, &encoded, nonce);

    // A Begin alone consumes nothing and binds nothing: the nonce is
    // burned only when the upload commits.
    registry
        .authorize_upload("alice", &auth(5), encoded.len() as u64, &spec)
        .unwrap();
    registry
        .authorize_upload("alice", &auth(5), encoded.len() as u64, &spec)
        .unwrap();
    registry
        .register_remote("alice", &spec, encoded.clone(), &auth(5))
        .unwrap();

    // After the commit, exact replays and stale nonces die at both the
    // Begin gate and the commit boundary; the next fresh nonce works.
    assert_eq!(
        registry.authorize_upload("alice", &auth(5), encoded.len() as u64, &spec),
        Err(MatchError::Unauthorized("replayed upload nonce"))
    );
    assert_eq!(
        registry
            .register_remote("alice", &spec, encoded.clone(), &auth(5))
            .unwrap_err(),
        MatchError::Unauthorized("replayed upload nonce")
    );
    assert_eq!(
        registry.authorize_upload("alice", &auth(4), encoded.len() as u64, &spec),
        Err(MatchError::Unauthorized("replayed upload nonce"))
    );
    registry
        .register_remote("alice", &spec, encoded.clone(), &auth(6))
        .unwrap();
}

/// `TenantSpec.workers` (K) comes off the wire and sizes the tenant's
/// query limit. An authorized upload asking for `u32::MAX` (or zero) is
/// refused before any build job is submitted: it binds nothing, consumes
/// no nonce and accounts no bytes.
#[test]
fn out_of_range_worker_counts_are_refused_and_leave_state_untouched() {
    let registry = TenantRegistry::new();
    let config = MatcherConfig::new(Backend::Ciphermatch).insecure_test();
    let mut owner = config.build().unwrap();
    owner
        .load_database(&BitString::from_ascii("bounded like workers"))
        .unwrap();
    let encoded = owner.export_database().unwrap();
    let good = TenantSpec::from_config(&config, 1);

    for workers in [u32::MAX, cm_server::MAX_TENANT_WORKERS + 1, 0] {
        let hostile = TenantSpec {
            workers,
            ..good.clone()
        };
        // The tag authorizes exactly this spec: only the bound refuses it.
        let auth = remote_auth(&KEY_A, "t", &hostile, &encoded, 1);
        assert_eq!(
            registry
                .register_remote("t", &hostile, encoded.clone(), &auth)
                .unwrap_err(),
            MatchError::InvalidConfig("tenant worker count out of range"),
            "workers = {workers}"
        );
        assert!(registry.is_empty());
        assert_eq!(registry.hot_bytes(), 0);
    }

    // No binding and no consumed nonce: a different key claims the id
    // with the very nonce the refused uploads carried.
    registry
        .register_remote(
            "t",
            &good,
            encoded.clone(),
            &remote_auth(&KEY_B, "t", &good, &encoded, 1),
        )
        .unwrap();
    assert_eq!(registry.hot_bytes(), encoded.len() as u64);
}

#[test]
fn evict_by_non_owner_is_unauthorized_and_bindings_survive_eviction() {
    let registry = TenantRegistry::new();
    let (spec, encoded, _) = plain_payload(64, 7);
    registry
        .register_remote(
            "alice",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_A, "alice", &spec, &encoded, 1),
        )
        .unwrap();
    let bytes_before = registry.hot_bytes();

    // A forged tag (no key), a tag under the wrong key, and a replayed
    // nonce are all rejected; the tenant keeps serving.
    assert!(matches!(
        registry.evict(
            "alice",
            &EvictAuth {
                nonce: 1,
                tag: [0; 16]
            }
        ),
        Err(MatchError::Unauthorized(_))
    ));
    assert!(matches!(
        registry.evict("alice", &evict_auth(&KEY_EVE, "alice", 1)),
        Err(MatchError::Unauthorized(_))
    ));
    assert_eq!(registry.hot_bytes(), bytes_before);
    assert!(registry.is_resident("alice").unwrap());

    // The owner evicts; the id's key binding survives, so a hijacker
    // cannot re-register the vacated id under their own key...
    registry
        .evict("alice", &evict_auth(&KEY_A, "alice", 2))
        .unwrap();
    assert!(matches!(
        registry.register_remote(
            "alice",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_EVE, "alice", &spec, &encoded, 3)
        ),
        Err(MatchError::Unauthorized(_))
    ));
    assert!(registry.is_empty());

    // ...and an old (pre-eviction) nonce stays dead for the owner too.
    assert_eq!(
        registry
            .register_remote(
                "alice",
                &spec,
                encoded.clone(),
                &remote_auth(&KEY_A, "alice", &spec, &encoded, 1)
            )
            .unwrap_err(),
        MatchError::Unauthorized("replayed upload nonce")
    );
    registry
        .register_remote(
            "alice",
            &spec,
            encoded.clone(),
            &remote_auth(&KEY_A, "alice", &spec, &encoded, 3),
        )
        .unwrap();
}

// ---------------------------------------------------------------------------
// Upload abuse over real TCP
// ---------------------------------------------------------------------------

fn raw_roundtrip(stream: &mut TcpStream, request: &Request) -> Response {
    write_frame(stream, &request.encode()).unwrap();
    let payload = read_frame(stream).unwrap().expect("server must answer");
    Response::decode(&payload).unwrap()
}

fn begin(tenant: &str, key: &[u8; 32], total: u64, chunks: u32, nonce: u64) -> Request {
    let (spec, _, _) = plain_payload(1, 0);
    // The content digest is arbitrary (these uploads never commit); the
    // tag must still be self-consistent to pass the Begin gate.
    let content = content_digest(key, b"never committed");
    let tag = upload_tag(key, tenant, nonce, total, &spec, &content);
    Request::LoadDatabase {
        tenant: tenant.to_string(),
        phase: UploadPhase::Begin {
            auth: UploadAuth {
                nonce,
                channel_key: *key,
                content,
                tag,
            },
            spec,
            total_bytes: total,
            chunk_count: chunks,
        },
    }
}

fn chunk(tenant: &str, index: u32, data: Vec<u8>) -> Request {
    Request::LoadDatabase {
        tenant: tenant.to_string(),
        phase: UploadPhase::Chunk { index, data },
    }
}

fn commit(tenant: &str) -> Request {
    Request::LoadDatabase {
        tenant: tenant.to_string(),
        phase: UploadPhase::Commit,
    }
}

#[test]
fn chunk_abuse_over_tcp_is_typed_and_never_registers() {
    let server = MatchServer::new(TenantRegistry::new())
        .spawn("127.0.0.1:0")
        .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // A chunk with no upload in progress.
    assert!(matches!(
        raw_roundtrip(&mut stream, &chunk("t", 0, vec![1])),
        Response::Error(MatchError::UploadIncomplete(_))
    ));
    // A commit with no upload in progress.
    assert!(matches!(
        raw_roundtrip(&mut stream, &commit("t")),
        Response::Error(MatchError::UploadIncomplete(_))
    ));

    // Out-of-order first chunk.
    assert!(matches!(
        raw_roundtrip(&mut stream, &begin("t", &KEY_A, 16, 2, 1)),
        Response::UploadProgress { .. }
    ));
    assert!(matches!(
        raw_roundtrip(&mut stream, &chunk("t", 1, vec![0; 8])),
        Response::Error(MatchError::UploadIncomplete(_))
    ));

    // Duplicate chunk index (the session above was aborted; start over).
    assert!(matches!(
        raw_roundtrip(&mut stream, &begin("t", &KEY_A, 16, 2, 2)),
        Response::UploadProgress { .. }
    ));
    assert!(matches!(
        raw_roundtrip(&mut stream, &chunk("t", 0, vec![0; 8])),
        Response::UploadProgress { .. }
    ));
    assert!(matches!(
        raw_roundtrip(&mut stream, &chunk("t", 0, vec![0; 8])),
        Response::Error(MatchError::UploadIncomplete(_))
    ));

    // Chunk data overrunning the declared total.
    assert!(matches!(
        raw_roundtrip(&mut stream, &begin("t", &KEY_A, 16, 2, 3)),
        Response::UploadProgress { .. }
    ));
    assert!(matches!(
        raw_roundtrip(&mut stream, &chunk("t", 0, vec![0; 64])),
        Response::Error(MatchError::UploadIncomplete(_))
    ));

    // Commit with a missing chunk.
    assert!(matches!(
        raw_roundtrip(&mut stream, &begin("t", &KEY_A, 16, 2, 4)),
        Response::UploadProgress { .. }
    ));
    assert!(matches!(
        raw_roundtrip(&mut stream, &chunk("t", 0, vec![0; 8])),
        Response::UploadProgress { .. }
    ));
    assert!(matches!(
        raw_roundtrip(&mut stream, &commit("t")),
        Response::Error(MatchError::UploadIncomplete(_))
    ));

    // A chunk for a different tenant than the session's.
    assert!(matches!(
        raw_roundtrip(&mut stream, &begin("t", &KEY_A, 16, 2, 5)),
        Response::UploadProgress { .. }
    ));
    assert!(matches!(
        raw_roundtrip(&mut stream, &chunk("u", 0, vec![0; 8])),
        Response::Error(MatchError::UploadIncomplete(_))
    ));

    // An interleaved non-upload request abandons the session (its
    // staging reservation must not be keep-alive-able by pinging), so
    // the next chunk is typed-rejected.
    assert!(matches!(
        raw_roundtrip(&mut stream, &begin("t", &KEY_A, 16, 2, 6)),
        Response::UploadProgress { .. }
    ));
    assert!(matches!(
        raw_roundtrip(&mut stream, &Request::Ping),
        Response::Pong { .. }
    ));
    assert!(matches!(
        raw_roundtrip(&mut stream, &chunk("t", 0, vec![0; 8])),
        Response::Error(MatchError::UploadIncomplete(_))
    ));

    // Nothing was ever registered, and the connection is still usable.
    match raw_roundtrip(&mut stream, &Request::ListTenants) {
        Response::Tenants(tenants) => assert!(tenants.is_empty()),
        other => panic!("unexpected response: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn two_connections_share_one_staging_cap() {
    // The staging cap is the registry's budget, server-wide: while one
    // connection's upload holds all of it, another's Begin is refused,
    // and once that connection closes the room is there again.
    let registry = TenantRegistry::new();
    registry.set_memory_budget(Some(64));
    let server = MatchServer::new(registry).spawn("127.0.0.1:0").unwrap();
    let mut a = TcpStream::connect(server.addr()).unwrap();
    let mut b = TcpStream::connect(server.addr()).unwrap();

    assert_eq!(
        raw_roundtrip(&mut a, &begin("a", &KEY_A, 64, 1, 1)),
        Response::UploadProgress {
            received: 0,
            expected: 64
        }
    );
    assert_eq!(
        raw_roundtrip(&mut b, &begin("b", &KEY_B, 8, 1, 1)),
        Response::Error(MatchError::QuotaExceeded {
            budget: 64,
            required: 8
        })
    );

    // The close reaches the server on its own schedule.
    drop(a);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match raw_roundtrip(&mut b, &begin("b", &KEY_B, 8, 1, 1)) {
            Response::UploadProgress { expected: 8, .. } => break,
            Response::Error(MatchError::QuotaExceeded { .. })
                if std::time::Instant::now() < deadline =>
            {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            other => panic!("B's Begin after A closed: {other:?}"),
        }
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// The half-written-chunk regression
// ---------------------------------------------------------------------------

/// The latent gap the ISSUE names: when the server hangs up mid-upload
/// (here scripted to ack `Begin`, read a few bytes of the next frame,
/// and drop the socket), the client must surface the typed
/// [`MatchError::ConnectionClosed`] — not a raw io-error string.
#[test]
fn server_hangup_mid_upload_is_a_typed_connection_closed() {
    use std::io::Read;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        // Ack the Begin frame like a well-behaved server...
        let _ = read_frame(&mut sock).unwrap().expect("begin frame");
        let ack = Response::UploadProgress {
            received: 0,
            expected: 9,
        };
        write_frame(&mut sock, &ack.encode()).unwrap();
        // ...then read a half chunk frame and hang up mid-request.
        let mut partial = [0u8; 5];
        sock.read_exact(&mut partial).unwrap();
        drop(sock);
    });

    let mut client = MatchClient::connect(addr).unwrap();
    let access = TenantAccess::new("t", &KEY_A);
    let (spec, encoded, _) = plain_payload(1, 9);
    let err = client
        .upload_database(&access, &spec, &encoded, 1)
        .unwrap_err();
    assert_eq!(err, MatchError::ConnectionClosed, "typed, not raw io");
    script.join().unwrap();
}

// ---------------------------------------------------------------------------
// The books balance under random operation sequences
// ---------------------------------------------------------------------------

/// What the reference model knows about one registered tenant. `bytes`
/// and `pinned` are predicted; `resident` is read back (the model does
/// not replay the LRU policy) but only ever allowed to flip the legal
/// way; `wear` is predicted from those flips — one program per page per
/// demotion, nothing else.
#[derive(Debug)]
struct ModelTenant {
    bytes: u64,
    resident: bool,
    pinned: bool,
    in_process: bool,
    wear: u64,
    data: BitString,
    /// The last reply nonce of the current upload (checked for `ifp`,
    /// whose one pool lives through demote → cold-serve → promote).
    last_nonce: Option<u64>,
}

/// Prints the seed and every operation so far when a check panics — the
/// `proptest` shim does not shrink, so the log is the reproduction.
struct OpLog {
    seed: u64,
    ops: Vec<String>,
}

impl Drop for OpLog {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("seed {} failed after {} steps:", self.seed, self.ops.len());
            for (step, op) in self.ops.iter().enumerate() {
                eprintln!("  {step:>3}: {op}");
            }
        }
    }
}

const REMOTE_IDS: [&str; 6] = ["plain-a", "plain-b", "cm-a", "cm-b", "ifp-a", "ifp-b"];
const LOCAL_ID: &str = "local";
const WORDS: [&str; 4] = ["needle", "hay", "cold tier ", "flash"];

fn key_of(id: &str) -> [u8; 32] {
    let mut key = [0x5Au8; 32];
    key[..id.len()].copy_from_slice(id.as_bytes());
    key
}

/// A remote payload whose backend follows from the id's prefix.
fn payload_for(id: &str, seed: u64, text: &str) -> (TenantSpec, Vec<u8>, BitString) {
    if id.starts_with("ifp") {
        return ifp_payload(seed, text);
    }
    let config = if id.starts_with("cm") {
        MatcherConfig::new(Backend::Ciphermatch)
            .insecure_test()
            .seed(seed)
    } else {
        MatcherConfig::new(Backend::Plain)
    };
    let data = BitString::from_ascii(text);
    let mut owner = config.build().unwrap();
    owner.load_database(&data).unwrap();
    let encoded = owner.export_database().unwrap();
    (TenantSpec::from_config(&config, 1), encoded, data)
}

fn run_random_sequence(seed: u64, steps: usize) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = OpLog {
        seed,
        ops: Vec::new(),
    };
    let mut registry = TenantRegistry::new();
    let metrics = cm_telemetry::MetricsRegistry::new();
    registry.install_telemetry(&metrics);

    let mut model: BTreeMap<String, ModelTenant> = BTreeMap::new();
    let mut banked_wear = 0u64;
    let mut next_auth_nonce = 0u64;

    // The in-process tenant: live keys, never demoted, pinned or not.
    let local_data = BitString::from_ascii("a needle the local tenant keeps in process");
    let matcher = MatcherConfig::new(Backend::Plain).build().unwrap();
    registry
        .register(LOCAL_ID, matcher, &key_of(LOCAL_ID), &local_data)
        .unwrap();
    model.insert(
        LOCAL_ID.to_string(),
        ModelTenant {
            bytes: registry.info(LOCAL_ID).unwrap().bytes,
            resident: true,
            pinned: true,
            in_process: true,
            wear: 0,
            data: local_data,
            last_nonce: None,
        },
    );

    for _ in 0..steps {
        let remote = REMOTE_IDS[rng.gen_range(0..REMOTE_IDS.len())];
        let any = if rng.gen_bool(0.15) { LOCAL_ID } else { remote };
        let hot_before = registry.hot_bytes();
        match rng.gen_range(0..100u32) {
            // Upload or re-upload: fresh text, fresh HE keys (the seed), next nonce.
            0..=21 => {
                // Kilobytes either way: one or two ciphertext polynomials,
                // or a plain database long enough to weigh as much.
                let repeats = match &remote[..2] {
                    "pl" => rng.gen_range(50..400usize),
                    "cm" => rng.gen_range(5..40),
                    // One polynomial: in-flash Matches are slow in debug.
                    _ => rng.gen_range(1..6),
                };
                let text = WORDS[rng.gen_range(0..WORDS.len())].repeat(repeats);
                let (spec, encoded, data) = payload_for(remote, rng.gen(), &text);
                next_auth_nonce += 1;
                let auth = remote_auth(&key_of(remote), remote, &spec, &encoded, next_auth_nonce);
                let bytes = encoded.len() as u64;
                let outcome = registry.register_remote(remote, &spec, encoded, &auth);
                log.ops
                    .push(format!("upload {remote} {bytes} B -> {outcome:?}"));
                match outcome {
                    Ok(load) => {
                        assert_eq!(load.bytes, bytes);
                        let old = model.remove(remote);
                        model.insert(
                            remote.to_string(),
                            ModelTenant {
                                bytes,
                                resident: true,
                                // A pin and the lifetime stats survive a re-upload.
                                pinned: old.as_ref().is_some_and(|m| m.pinned),
                                in_process: false,
                                wear: old.map_or(0, |m| m.wear),
                                data,
                                last_nonce: None,
                            },
                        );
                    }
                    Err(MatchError::QuotaExceeded { .. }) => {}
                    Err(other) => panic!("upload failed with {other:?}"),
                }
            }
            // Match through the tier-aware path; `get` promotes instead.
            22..=66 => {
                let via_get = rng.gen_bool(0.25);
                let word = WORDS[rng.gen_range(0..WORDS.len())];
                // In-flash Matches cost ~50 ms per pattern byte in debug.
                let word = if any.starts_with("ifp") {
                    &word[..1]
                } else {
                    word.trim_end()
                };
                let pattern = BitString::from_ascii(word);
                let query = QueryPayload::Bits(pattern.clone());
                let outcome = if via_get {
                    registry.get(any).and_then(|tenant| tenant.run(&query))
                } else {
                    registry.run_query(any, &query)
                };
                let verb = if via_get { "get+run" } else { "match" };
                log.ops.push(format!(
                    "{verb} {any} {word:?} -> {:?}",
                    outcome.as_ref().map(|reply| reply.nonce)
                ));
                match (outcome, model.get_mut(any)) {
                    (Ok(reply), Some(m)) => {
                        let opened = SecureIndexChannel::new(&key_of(any))
                            .open(&reply.sealed_indices, reply.nonce);
                        assert_eq!(opened, m.data.find_all(&pattern), "{any} {word:?}");
                        if any.starts_with("ifp") {
                            assert!(
                                m.last_nonce < Some(reply.nonce),
                                "ifp nonces strictly increase"
                            );
                            m.last_nonce = Some(reply.nonce);
                        }
                        if via_get {
                            assert!(registry.is_resident(any).unwrap(), "`get` promotes");
                        }
                    }
                    (Err(MatchError::UnknownTenant(_)), None) => {}
                    // A cold tenant the budget cannot place stays cold.
                    (Err(MatchError::QuotaExceeded { .. }), Some(m)) => assert!(!m.resident),
                    (outcome, m) => panic!("{outcome:?} for {m:?}"),
                }
            }
            67..=76 => {
                next_auth_nonce += 1;
                let wear = registry
                    .totals_of(remote)
                    .map(|(stats, _)| stats.flash_wear);
                let outcome = registry.evict(
                    remote,
                    &evict_auth(&key_of(remote), remote, next_auth_nonce),
                );
                log.ops.push(format!("evict {remote} -> {outcome:?}"));
                match (outcome, model.remove(remote)) {
                    (Ok(freed), Some(m)) => {
                        assert_eq!(freed, if m.resident { m.bytes } else { 0 });
                        assert_eq!(wear, Ok(m.wear));
                        banked_wear += m.wear;
                    }
                    (Err(MatchError::UnknownTenant(_)), None) => {}
                    (outcome, m) => panic!("{outcome:?} for {m:?}"),
                }
            }
            77..=86 => {
                let pinned = rng.gen_bool(0.5);
                let outcome = registry.set_pinned(any, pinned);
                log.ops.push(format!("pin {any} {pinned} -> {outcome:?}"));
                match (outcome, model.get_mut(any)) {
                    (Ok(()), Some(m)) => m.pinned = pinned,
                    (Err(MatchError::UnknownTenant(_)), None) => {}
                    (outcome, m) => panic!("{outcome:?} for {m:?}"),
                }
            }
            _ => {
                // Six remote tenants weigh ~15 KB together: most budgets
                // hold a few of them, some hold none.
                let budget = match rng.gen_range(0..6u32) {
                    0 => None,
                    _ => Some(rng.gen_range(1_500..16_000u64)),
                };
                registry.set_memory_budget(budget);
                log.ops.push(format!("budget {budget:?}"));
                assert_eq!(registry.memory_budget(), budget);
            }
        }

        // The books, after every step.
        let (mut hot, mut cold, mut wear) = (0u64, 0u64, banked_wear);
        for (id, m) in model.iter_mut() {
            let info = registry.info(id).unwrap();
            assert_eq!((info.bytes, info.pinned), (m.bytes, m.pinned), "{id}");
            assert_eq!(registry.is_resident(id).unwrap(), info.resident, "{id}");
            if m.resident && !info.resident {
                assert!(!m.in_process && !m.pinned, "{id} may not be demoted");
                m.wear += m.bytes.div_ceil(1024); // one program per cold-store page
            }
            m.resident = info.resident;
            *(if info.resident { &mut hot } else { &mut cold }) += info.bytes;
            assert_eq!(registry.totals_of(id).unwrap().0.flash_wear, m.wear, "{id}");
            wear += m.wear;
        }
        assert_eq!(registry.len(), model.len());
        assert_eq!(registry.hot_bytes(), hot);
        assert_eq!(registry.cold_bytes(), cold);
        assert_eq!(registry.cold_store_wear(), wear);
        let gauges = metrics.snapshot();
        let gauge = |name| gauges.gauge(name, &[]);
        assert_eq!(
            gauge(cm_telemetry::metric_names::REGISTRY_HOT_BYTES),
            Some(hot as i64)
        );
        assert_eq!(
            gauge(cm_telemetry::metric_names::REGISTRY_COLD_BYTES),
            Some(cold as i64)
        );
        // An admission — and only an admission — brings the hot tier
        // back inside a budget that was lowered under it.
        if hot > hot_before {
            assert!(registry.memory_budget().is_none_or(|budget| hot <= budget));
        }
    }

    // Evicting everything returns both tiers to zero.
    for id in model.keys() {
        next_auth_nonce += 1;
        registry
            .evict(id, &evict_auth(&key_of(id), id, next_auth_nonce))
            .unwrap();
    }
    assert!(registry.is_empty());
    assert_eq!((registry.hot_bytes(), registry.cold_bytes()), (0, 0));
    let gauges = metrics.snapshot();
    for name in [
        cm_telemetry::metric_names::REGISTRY_HOT_BYTES,
        cm_telemetry::metric_names::REGISTRY_COLD_BYTES,
    ] {
        assert_eq!(gauges.gauge(name, &[]), Some(0), "{name}");
    }
}

/// The first slice of model-based testing for the registry: random
/// upload / re-upload / Match / `get` / evict / pin / budget sequences
/// over plain, CIPHERMATCH and in-flash tenants plus one in-process
/// tenant, with the byte books, the wear ledger, the gauges, every
/// answer and the `ifp` nonce order checked after every step.
#[test]
fn books_balance_under_random_operation_sequences() {
    for seed in [2, 3, 0xC1F4E2] {
        run_random_sequence(seed, 320);
    }
}
