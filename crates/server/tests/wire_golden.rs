//! Golden frames: the exact payload bytes of every message the wire
//! carries, as hex. The round-trip proptests pass for any *symmetric*
//! format change and `wire_tags.rs` pins only tag bytes; this file pins
//! everything else, so a codec rewrite that reorders a field, widens a
//! prefix or renumbers a sub-code fails here. `upload_tag` is pinned
//! too: the `TenantSpec` encoding is its MAC context, so a reordered
//! spec would silently change every upload tag. So is the
//! `content_digest` of a multi-kilobyte payload, which an upload's
//! client and server both compute over every byte: a cipher or MAC
//! rewrite that changes one block of that stream fails here.
//!
//! Expected strings group bytes by field (integers are little-endian,
//! strings carry a u16 length, byte strings a u32 one); whitespace is
//! ignored.

use std::time::Duration;

use cm_bfv::DecodeError;
use cm_core::{Backend, BitString, MatchError, MatchStats};
use cm_server::wire::{content_digest, upload_tag};
use cm_server::{
    DatabaseInfoReply, EvictAuth, QueryPayload, Request, Response, TenantInfo, TenantSpec,
    UploadAuth, UploadPhase,
};
use cm_telemetry::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(golden: &str) -> Vec<u8> {
    let digits: Vec<u8> = golden
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[track_caller]
fn assert_golden(name: &str, bytes: &[u8], golden: &str) {
    assert_eq!(
        hex(bytes),
        hex(&unhex(golden)),
        "{name} changed on the wire"
    );
}

fn spec() -> TenantSpec {
    TenantSpec {
        backend: "ciphermatch".into(),
        seed: 0xDEAD_BEEF,
        insecure: true,
        workers: 4,
    }
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

const STATS_10: &str = "0a00000000000000 0b00000000000000 0c00000000000000 0d00000000000000
                        0e00000000000000 0f00000000000000 f203000000000000 da07000000000000";
const STATS_20: &str = "1400000000000000 1500000000000000 1600000000000000 1700000000000000
                        1800000000000000 1900000000000000 fc03000000000000 e407000000000000";
const STATS_30: &str = "1e00000000000000 1f00000000000000 2000000000000000 2100000000000000
                        2200000000000000 2300000000000000 0604000000000000 ee07000000000000";
const STATS_40: &str = "2800000000000000 2900000000000000 2a00000000000000 2b00000000000000
                        2c00000000000000 2d00000000000000 1004000000000000 f807000000000000";

fn requests() -> Vec<(&'static str, Request, String)> {
    let load = |phase| Request::LoadDatabase {
        tenant: "dave".into(),
        phase,
    };
    vec![
        ("ping", Request::Ping, "00".into()),
        ("list_tenants", Request::ListTenants, "01".into()),
        (
            "match_bits",
            Request::Match {
                tenant: "alice".into(),
                query: QueryPayload::Bits(BitString::from_bytes(&[0xF0, 0x0D, 0xA5]).slice(0, 19)),
            },
            // tag, tenant, QUERY_BITS, bit length (u64), bits MSB-first
            "02 0500 616c696365 00 1300000000000000 f00da0".into(),
        ),
        (
            "match_cm_wire",
            Request::Match {
                tenant: "bob".into(),
                query: QueryPayload::CmWire(vec![0xC3, 0x51, 0x00, 0xFF]),
            },
            "02 0300 626f62 01 04000000 c35100ff".into(),
        ),
        (
            "tenant_stats",
            Request::TenantStats {
                tenant: "carol".into(),
            },
            "03 0500 6361726f6c".into(),
        ),
        (
            "load_begin",
            load(UploadPhase::Begin {
                auth: UploadAuth {
                    nonce: 0x0102_0304_0506_0708,
                    channel_key: [0xA5; 32],
                    content: [0x1B; 16],
                    tag: [0xC3; 16],
                },
                spec: spec(),
                total_bytes: 1_000_000,
                chunk_count: 3,
            }),
            format!(
                "04 0400 64617665 00 0807060504030201 {} {} {} {} 40420f0000000000 03000000",
                "a5".repeat(32),
                "1b".repeat(16),
                "c3".repeat(16),
                SPEC,
            ),
        ),
        (
            "load_chunk",
            load(UploadPhase::Chunk {
                index: 2,
                data: vec![1, 2, 3, 255, 0],
            }),
            "04 0400 64617665 01 02000000 05000000 010203ff00".into(),
        ),
        (
            "load_commit",
            load(UploadPhase::Commit),
            "04 0400 64617665 02".into(),
        ),
        (
            "evict",
            Request::EvictDatabase {
                tenant: "erin".into(),
                auth: EvictAuth {
                    nonce: 9,
                    tag: [0x5C; 16],
                },
            },
            format!("05 0400 6572696e 0900000000000000 {}", "5c".repeat(16)),
        ),
        (
            "database_info",
            Request::DatabaseInfo {
                tenant: "frank".into(),
            },
            "06 0500 6672616e6b".into(),
        ),
        ("metrics", Request::Metrics, "07".into()),
    ]
}

/// [`spec`]: backend, seed, insecure, workers.
const SPEC: &str = "0b00 6369706865726d61746368 efbeadde00000000 01 04000000";

/// Labels on a counter and a gauge, a negative gauge, sparse buckets.
fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![CounterSample {
            name: "cm_requests".into(),
            labels: vec![("tag".into(), "match".into())],
            value: 17,
        }],
        gauges: vec![GaugeSample {
            name: "cm_depth".into(),
            labels: vec![("pool".into(), "frames".into()), ("k".into(), "v".into())],
            value: -3,
        }],
        histograms: vec![HistogramSample {
            name: "cm_us".into(),
            labels: vec![],
            count: 5,
            sum: 5_110,
            buckets: vec![(0, 1), (8, 1), (300, 3)],
        }],
    }
}

fn responses() -> Vec<(&'static str, Response, String)> {
    vec![
        (
            "pong",
            Response::Pong {
                backends: vec!["plain".into(), "ifp".into()],
            },
            "00 0200 0500 706c61696e 0300 696670".into(),
        ),
        (
            "tenants",
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
            "01 0200 0500 616c696365 0500 706c61696e 0300 626f62 0300 696670".into(),
        ),
        (
            "matched",
            Response::Matched {
                nonce: 42,
                sealed_indices: vec![9, 8, 7],
                stats: stats(10),
                shard_stats: vec![stats(20), stats(30)],
                seal_latency: Duration::from_nanos(12_345),
            },
            format!(
                "02 2a00000000000000 03000000 090807 {STATS_10} 0200 {STATS_20} {STATS_30} \
                 3930000000000000"
            ),
        ),
        (
            "tenant_stats",
            Response::TenantStats {
                stats: stats(40),
                queries: 17,
            },
            format!("03 {STATS_40} 1100000000000000"),
        ),
        (
            "upload_progress",
            Response::UploadProgress {
                received: 512,
                expected: 4_096,
            },
            "05 0002000000000000 0010000000000000".into(),
        ),
        (
            "database_loaded",
            Response::DatabaseLoaded {
                bytes: 4_096,
                demoted: vec!["carla".into(), "dora".into()],
            },
            // u32 count: one admission can demote more than a u16 counts
            "06 0010000000000000 02000000 0500 6361726c61 0400 646f7261".into(),
        ),
        (
            "evicted",
            Response::Evicted { freed_bytes: 8_192 },
            "07 0020000000000000".into(),
        ),
        (
            "database_info",
            Response::DatabaseInfo(DatabaseInfoReply {
                backend: "ifp".into(),
                resident: false,
                pinned: true,
                bytes: 4_096,
                workers: 3,
                queries: 17,
                tier: "flash".into(),
            }),
            "08 0300 696670 00 01 0010000000000000 03000000 1100000000000000 0500 666c617368"
                .into(),
        ),
        (
            "metrics",
            Response::Metrics(snapshot()),
            concat!(
                "09",
                // counters: u32 count; name, u16 label count, pairs, value
                " 01000000 0b00 636d5f7265717565737473",
                " 0100 0300 746167 0500 6d61746368 1100000000000000",
                // gauges: the i64 travels as its two's-complement bits
                " 01000000 0800 636d5f6465707468",
                " 0200 0400 706f6f6c 0600 6672616d6573 0100 6b 0100 76 fdffffffffffffff",
                // histograms: name, labels, count, sum, u32 bucket count,
                // (u32 index, u64 count) pairs
                " 01000000 0500 636d5f7573 0000 0500000000000000 f613000000000000",
                " 03000000 00000000 0100000000000000 08000000 0100000000000000",
                " 2c010000 0300000000000000",
            )
            .into(),
        ),
        (
            "metrics_empty",
            Response::Metrics(MetricsSnapshot::default()),
            "09 00000000 00000000 00000000".into(),
        ),
    ]
}

/// Every [`MatchError`] as `Response::Error`: `RESP_ERROR`, the error
/// tag, two u64 operands `a` and `b`, and a u16-prefixed text.
fn errors() -> Vec<(&'static str, MatchError, String)> {
    let error = |tag: &str, a: u64, b: u64, text: &str| {
        format!(
            "04 {tag} {} {} {} {}",
            hex(&a.to_le_bytes()),
            hex(&b.to_le_bytes()),
            hex(&u16::try_from(text.len()).unwrap().to_le_bytes()),
            hex(text.as_bytes())
        )
    };
    vec![
        ("no_database", MatchError::NoDatabase, error("01", 0, 0, "")),
        ("empty_query", MatchError::EmptyQuery, error("02", 0, 0, "")),
        (
            "worker_panicked",
            MatchError::WorkerPanicked,
            error("05", 0, 0, ""),
        ),
        (
            "invalid_config",
            MatchError::InvalidConfig("bad knob"),
            error("06", 0, 0, "bad knob"),
        ),
        (
            "decode_truncated",
            MatchError::Decode(DecodeError::Truncated),
            error("07", 0, 0, ""),
        ),
        (
            "decode_bad_magic",
            MatchError::Decode(DecodeError::BadMagic),
            error("07", 1, 0, ""),
        ),
        (
            "decode_bad_header",
            MatchError::Decode(DecodeError::BadHeader("hdr")),
            error("07", 2, 0, ""),
        ),
        (
            "decode_coefficient_overflow",
            MatchError::Decode(DecodeError::CoefficientOverflow),
            error("07", 3, 0, ""),
        ),
        (
            "wire_query_unsupported",
            MatchError::WireQueryUnsupported(Backend::Plain),
            error("08", 0, 0, "plain"),
        ),
        (
            "unknown_backend",
            MatchError::UnknownBackend("nope".into()),
            error("09", 0, 0, "nope"),
        ),
        (
            "unknown_tenant",
            MatchError::UnknownTenant("nobody".into()),
            error("0a", 0, 0, "nobody"),
        ),
        (
            "frame",
            MatchError::Frame("bad frame"),
            error("0b", 0, 0, "bad frame"),
        ),
        (
            "transport",
            MatchError::Transport("reset".into()),
            error("0c", 0, 0, "reset"),
        ),
        (
            "transport_too_long",
            MatchError::Transport("x".repeat(70_000)),
            error("0c", 0, 0, "error message too long for the wire"),
        ),
        (
            "server_busy",
            MatchError::ServerBusy {
                max_open_sockets: 64,
            },
            error("0d", 64, 0, ""),
        ),
        (
            "unauthorized",
            MatchError::Unauthorized("no"),
            error("0e", 0, 0, "no"),
        ),
        (
            "quota_exceeded",
            MatchError::QuotaExceeded {
                budget: 1 << 20,
                required: 1 << 21,
            },
            error("0f", 1 << 20, 1 << 21, ""),
        ),
        (
            "upload_incomplete",
            MatchError::UploadIncomplete("gap"),
            error("10", 0, 0, "gap"),
        ),
        (
            "connection_closed",
            MatchError::ConnectionClosed,
            error("12", 0, 0, ""),
        ),
        (
            "internal",
            MatchError::Internal("oops"),
            error("13", 0, 0, "oops"),
        ),
    ]
}

#[test]
fn every_request_encodes_to_its_golden_bytes_and_back() {
    for (name, request, golden) in requests() {
        assert_golden(name, &request.encode(), &golden);
        assert_eq!(Request::decode(&unhex(&golden)).unwrap(), request, "{name}");
    }
}

#[test]
fn every_response_encodes_to_its_golden_bytes_and_back() {
    for (name, response, golden) in responses() {
        assert_golden(name, &response.encode(), &golden);
        assert_eq!(
            Response::decode(&unhex(&golden)).unwrap(),
            response,
            "{name}"
        );
    }
}

#[test]
fn every_error_encodes_to_its_golden_bytes() {
    for (name, error, golden) in errors() {
        let response = Response::Error(error);
        assert_golden(name, &response.encode(), &golden);
        assert!(
            matches!(Response::decode(&unhex(&golden)), Ok(Response::Error(_))),
            "{name}"
        );
    }
}

#[test]
fn the_upload_tag_over_a_fixed_spec_is_pinned() {
    let tag = upload_tag(&[0x42; 32], "alice", 7, 1_000, &spec(), &[0x1B; 16]);
    assert_golden("upload_tag", &tag, "9f6193863af65a45d7283a36790e2865");
}

#[test]
fn the_content_digest_of_a_multi_kilobyte_payload_is_pinned() {
    // 4 099 bytes after the 33-byte header: 258 whole blocks and a
    // partial one.
    let data: Vec<u8> = (0..4099u32).map(|i| (i * 131 % 251) as u8).collect();
    let digest = content_digest(&[0x5A; 32], &data);
    assert_golden(
        "content_digest",
        &digest,
        "31cea915bbd88cc00d8ec549be4e48ba",
    );
}
