//! Exhaustive wire-tag coverage: every [`Request`] and [`Response`]
//! variant round-trips through the codec, every [`MatchError`] variant
//! crosses the wire as an error frame, and the tag byte each one
//! actually emits is cross-checked against the tags `wire.rs` declares
//! (`Variant = NAME: value` in its `wire_enum!` and `wire_errors!`
//! invocations) as parsed by the `cm_analyze` lint — so the lint's tag
//! table, the codec, and this test can never silently disagree.

use std::collections::BTreeMap;
use std::time::Duration;

use cm_bfv::DecodeError;
use cm_core::{Backend, BitString, MatchError, MatchStats};
use cm_server::{
    DatabaseInfoReply, EvictAuth, QueryPayload, Request, Response, TenantInfo, TenantSpec,
    UploadAuth, UploadPhase,
};

/// The tags declared in this crate's `wire.rs` source, parsed exactly
/// as the `wire-tags` lint rule sees them.
fn tag_table() -> BTreeMap<String, u64> {
    cm_analyze::wire_tag_table(include_str!("../src/wire.rs"))
        .into_iter()
        .map(|c| (c.name, c.value))
        .collect()
}

fn tag(table: &BTreeMap<String, u64>, name: &str) -> u8 {
    let v = *table
        .get(name)
        .unwrap_or_else(|| panic!("{name} is not in the wire.rs tag registry"));
    u8::try_from(v).expect("tag fits a byte")
}

/// A spec that survives `read_spec`'s validation (non-empty known
/// backend, worker count in range).
fn spec() -> TenantSpec {
    TenantSpec {
        backend: "plain".to_string(),
        seed: 7,
        insecure: true,
        workers: 3,
    }
}

fn upload_auth() -> UploadAuth {
    UploadAuth {
        nonce: 9,
        channel_key: [0xA5; 32],
        content: [0x1B; 16],
        tag: [0xC3; 16],
    }
}

/// Every request variant, its registry tag name, and (where the payload
/// carries a second dispatch byte) the sub-tag name + the byte offset
/// the sub-tag is encoded at: `1 (request tag) + 2 (tenant length
/// prefix) + tenant.len()`.
type RequestCase = (Request, &'static str, Option<(&'static str, usize)>);

fn request_cases() -> Vec<RequestCase> {
    let tenant = "t".to_string();
    let sub_at = 1 + 2 + tenant.len();
    vec![
        (Request::Ping, "REQ_PING", None),
        (Request::ListTenants, "REQ_LIST_TENANTS", None),
        (
            Request::Match {
                tenant: tenant.clone(),
                query: QueryPayload::Bits(BitString::from_bytes(&[0xF0, 0x0D])),
            },
            "REQ_MATCH",
            Some(("QUERY_BITS", sub_at)),
        ),
        (
            Request::Match {
                tenant: tenant.clone(),
                query: QueryPayload::CmWire(vec![1, 2, 3, 4]),
            },
            "REQ_MATCH",
            Some(("QUERY_CM_WIRE", sub_at)),
        ),
        (
            Request::TenantStats {
                tenant: tenant.clone(),
            },
            "REQ_TENANT_STATS",
            None,
        ),
        (
            Request::LoadDatabase {
                tenant: tenant.clone(),
                phase: UploadPhase::Begin {
                    auth: upload_auth(),
                    spec: spec(),
                    total_bytes: 4096,
                    chunk_count: 2,
                },
            },
            "REQ_LOAD_DATABASE",
            Some(("PHASE_BEGIN", sub_at)),
        ),
        (
            Request::LoadDatabase {
                tenant: tenant.clone(),
                phase: UploadPhase::Chunk {
                    index: 1,
                    data: vec![0xEE; 64],
                },
            },
            "REQ_LOAD_DATABASE",
            Some(("PHASE_CHUNK", sub_at)),
        ),
        (
            Request::LoadDatabase {
                tenant: tenant.clone(),
                phase: UploadPhase::Commit,
            },
            "REQ_LOAD_DATABASE",
            Some(("PHASE_COMMIT", sub_at)),
        ),
        (
            Request::EvictDatabase {
                tenant: tenant.clone(),
                auth: EvictAuth {
                    nonce: 11,
                    tag: [0x5C; 16],
                },
            },
            "REQ_EVICT_DATABASE",
            None,
        ),
        (Request::DatabaseInfo { tenant }, "REQ_DATABASE_INFO", None),
        (Request::Metrics, "REQ_METRICS", None),
    ]
}

/// A small but non-degenerate snapshot: one labeled counter, one
/// negative gauge, one histogram with populated buckets.
fn snapshot() -> cm_telemetry::MetricsSnapshot {
    use cm_telemetry::metric_names;
    let registry = cm_telemetry::MetricsRegistry::new();
    registry
        .register_counter(metric_names::SERVER_BUSY_REJECTIONS, &[("cap", "frames")])
        .add(17);
    registry
        .register_gauge(metric_names::EXEC_QUEUE_DEPTH, &[("pool", "frames")])
        .add(-3);
    let latency = registry.register_histogram(metric_names::SERVER_REQUEST_LATENCY_US, &[]);
    for us in [0, 1, 9, 100, 5_000] {
        latency.record(us);
    }
    registry.snapshot()
}

fn stats(seed: u64) -> MatchStats {
    MatchStats {
        hom_adds: seed,
        hom_muls: seed + 1,
        rotations: seed + 2,
        bootstraps: seed + 3,
        bytes_moved: seed + 4,
        flash_wear: seed + 5,
        add_time: Duration::from_nanos(1_000 + seed),
        mul_time: Duration::from_nanos(2_000 + seed),
    }
}

/// Every non-error response variant and its registry tag name.
fn response_cases() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Pong {
                backends: vec!["plain".into(), "ciphermatch".into()],
            },
            "RESP_PONG",
        ),
        (
            Response::Tenants(vec![
                TenantInfo {
                    id: "alice".into(),
                    backend: "plain".into(),
                },
                TenantInfo {
                    id: "bob".into(),
                    backend: "ifp".into(),
                },
            ]),
            "RESP_TENANTS",
        ),
        (
            Response::Matched {
                nonce: 42,
                sealed_indices: vec![9, 8, 7],
                stats: stats(10),
                shard_stats: vec![stats(20), stats(30)],
                seal_latency: Duration::from_nanos(12_345),
            },
            "RESP_MATCHED",
        ),
        (
            Response::TenantStats {
                stats: stats(40),
                queries: 17,
            },
            "RESP_TENANT_STATS",
        ),
        (
            Response::UploadProgress {
                received: 512,
                expected: 4096,
            },
            "RESP_UPLOAD_PROGRESS",
        ),
        (
            Response::DatabaseLoaded {
                bytes: 4096,
                demoted: vec!["carla".into()],
            },
            "RESP_DATABASE_LOADED",
        ),
        (Response::Evicted { freed_bytes: 4096 }, "RESP_EVICTED"),
        (
            Response::DatabaseInfo(DatabaseInfoReply {
                backend: "plain".into(),
                resident: true,
                pinned: false,
                bytes: 4096,
                workers: 3,
                queries: 17,
                tier: "dram".into(),
            }),
            "RESP_DATABASE_INFO",
        ),
        (Response::Metrics(snapshot()), "RESP_METRICS"),
    ]
}

/// Every [`MatchError`] variant, built so decoding reproduces the value
/// exactly (static-string payloads cross the wire as the `"remote"`
/// placeholder, so the originals here already carry it), paired with
/// its `ERR_*` registry name.
fn error_cases() -> Vec<(MatchError, &'static str)> {
    vec![
        (MatchError::NoDatabase, "ERR_NO_DATABASE"),
        (MatchError::EmptyQuery, "ERR_EMPTY_QUERY"),
        (MatchError::WorkerPanicked, "ERR_WORKER_PANICKED"),
        (MatchError::InvalidConfig("remote"), "ERR_INVALID_CONFIG"),
        (MatchError::Decode(DecodeError::Truncated), "ERR_DECODE"),
        (
            MatchError::WireQueryUnsupported(Backend::Plain),
            "ERR_WIRE_QUERY_UNSUPPORTED",
        ),
        (
            MatchError::UnknownBackend("what-backend".into()),
            "ERR_UNKNOWN_BACKEND",
        ),
        (
            MatchError::UnknownTenant("nobody".into()),
            "ERR_UNKNOWN_TENANT",
        ),
        (MatchError::Frame("remote"), "ERR_FRAME"),
        (
            MatchError::Transport("connection reset".into()),
            "ERR_TRANSPORT",
        ),
        (
            MatchError::ServerBusy {
                max_open_sockets: 64,
            },
            "ERR_SERVER_BUSY",
        ),
        (MatchError::Unauthorized("remote"), "ERR_UNAUTHORIZED"),
        (
            MatchError::QuotaExceeded {
                budget: 1 << 20,
                required: 1 << 21,
            },
            "ERR_QUOTA_EXCEEDED",
        ),
        (
            MatchError::UploadIncomplete("remote"),
            "ERR_UPLOAD_INCOMPLETE",
        ),
        (MatchError::ConnectionClosed, "ERR_CONNECTION_CLOSED"),
        (MatchError::Internal("remote"), "ERR_INTERNAL"),
    ]
}

/// The `DECODE_*` sub-code travels in the error payload's first `u64`
/// (bytes 2..10 of the encoded response, after `RESP_ERROR` and the
/// `ERR_DECODE` tag).
fn decode_cases() -> Vec<(DecodeError, &'static str)> {
    vec![
        (DecodeError::Truncated, "DECODE_TRUNCATED"),
        (DecodeError::BadMagic, "DECODE_BAD_MAGIC"),
        (DecodeError::BadHeader("remote"), "DECODE_BAD_HEADER"),
        (
            DecodeError::CoefficientOverflow,
            "DECODE_COEFFICIENT_OVERFLOW",
        ),
    ]
}

#[test]
fn every_request_variant_round_trips_on_its_registered_tag() {
    let table = tag_table();
    let mut seen = Vec::new();
    let mut sub_seen = Vec::new();
    for (request, tag_name, sub) in request_cases() {
        let encoded = request.encode();
        assert_eq!(
            encoded[0],
            tag(&table, tag_name),
            "{request:?} did not encode under {tag_name}"
        );
        if let Some((sub_name, at)) = sub {
            assert_eq!(
                encoded[at],
                tag(&table, sub_name),
                "{request:?} did not carry sub-tag {sub_name} at byte {at}"
            );
            sub_seen.push(table[sub_name]);
        }
        let decoded = Request::decode(&encoded).expect("round-trip decodes");
        assert_eq!(decoded, request);
        seen.push(table[tag_name]);
    }
    assert_covers_family(&table, "REQ_", &seen);
    // QUERY_* and PHASE_* share one value space in `sub_seen`, but the
    // coverage check only compares values within each family, and both
    // families' full value sets were pushed above.
    assert_covers_family(&table, "QUERY_", &sub_seen);
    assert_covers_family(&table, "PHASE_", &sub_seen);
}

#[test]
fn every_response_variant_round_trips_on_its_registered_tag() {
    let table = tag_table();
    let mut seen = Vec::new();
    for (response, tag_name) in response_cases() {
        let encoded = response.encode();
        assert_eq!(
            encoded[0],
            tag(&table, tag_name),
            "{response:?} did not encode under {tag_name}"
        );
        let decoded = Response::decode(&encoded).expect("round-trip decodes");
        assert_eq!(decoded, response);
        seen.push(table[tag_name]);
    }
    // The error variant is exercised (exhaustively) by the tests below.
    seen.push(table["RESP_ERROR"]);
    assert_covers_family(&table, "RESP_", &seen);
}

#[test]
fn every_match_error_round_trips_on_its_registered_tag() {
    let table = tag_table();
    let resp_error = tag(&table, "RESP_ERROR");
    let mut seen = Vec::new();
    for (error, tag_name) in error_cases() {
        let response = Response::Error(error);
        let encoded = response.encode();
        assert_eq!(encoded[0], resp_error);
        assert_eq!(
            encoded[1],
            tag(&table, tag_name),
            "{response:?} did not encode under {tag_name}"
        );
        let decoded = Response::decode(&encoded).expect("round-trip decodes");
        assert_eq!(decoded, response);
        seen.push(table[tag_name]);
    }
    assert_covers_family(&table, "ERR_", &seen);
}

#[test]
fn every_decode_sub_code_round_trips_in_the_error_payload() {
    let table = tag_table();
    let mut seen = Vec::new();
    for (inner, sub_name) in decode_cases() {
        let response = Response::Error(MatchError::Decode(inner));
        let encoded = response.encode();
        assert_eq!(encoded[1], tag(&table, "ERR_DECODE"));
        let sub = u64::from_le_bytes(encoded[2..10].try_into().expect("8 bytes"));
        assert_eq!(
            sub, table[sub_name],
            "{response:?} did not carry sub-code {sub_name}"
        );
        let decoded = Response::decode(&encoded).expect("round-trip decodes");
        assert_eq!(decoded, response);
        seen.push(table[sub_name]);
    }
    assert_covers_family(&table, "DECODE_", &seen);
}

/// Fails if the registry defines a tag in `family` that no case above
/// exercised — adding a wire variant without extending this test is an
/// error, exactly like adding one without registering its tag.
fn assert_covers_family(table: &BTreeMap<String, u64>, family: &str, seen: &[u64]) {
    for (name, value) in table {
        if !name.starts_with(family) {
            continue;
        }
        assert!(
            seen.contains(value),
            "registry tag {name} = {value} is not exercised by this test; \
             add a case for the new wire variant"
        );
    }
}
