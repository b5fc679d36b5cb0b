//! Property tests for the wire protocol: round-trips of query/response
//! frames, and the hardening contract — truncated, oversized-length, and
//! garbage frames must return a typed `MatchError`, never panic
//! (extending the `EncryptedDatabase::decode` hardening to the whole wire
//! surface).

use std::time::Duration;

use cm_core::{Backend, BitString, MatchError, MatchStats};
use cm_server::wire::{
    auth_tag, content_digest, read_frame, write_frame, DatabaseInfoReply, EvictAuth, QueryPayload,
    Request, Response, TenantInfo, TenantSpec, UploadAuth, UploadPhase, MAX_DATABASE_BYTES,
    MAX_TENANT_WORKERS, MAX_UPLOAD_CHUNKS, OP_EVICT, OP_UPLOAD,
};
use proptest::prelude::*;

fn bits_from(seed: u64, len: usize) -> BitString {
    let mut bits = Vec::with_capacity(len);
    let mut state = seed | 1;
    for _ in 0..len {
        state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        bits.push(state & 1 == 1);
    }
    BitString::from_bits(&bits)
}

fn stats_from(seed: u64) -> MatchStats {
    let mut state = seed | 3;
    let mut next = || {
        state = state.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(seed);
        state >> 16
    };
    MatchStats {
        hom_adds: next(),
        hom_muls: next(),
        rotations: next(),
        bootstraps: next(),
        bytes_moved: next(),
        flash_wear: next(),
        add_time: Duration::from_nanos(next() & 0xFFFF_FFFF),
        mul_time: Duration::from_nanos(next() & 0xFFFF_FFFF),
    }
}

fn tenant_name(seed: u64, len: usize) -> String {
    (0..len.max(1))
        .map(|i| char::from(b'a' + ((seed >> (i % 8)) % 26) as u8))
        .collect()
}

proptest! {
    #[test]
    fn match_requests_round_trip(
        seed in 0u64..u64::MAX,
        name_len in 1usize..40,
        bit_len in 0usize..600,
        wire in proptest::arbitrary::any::<bool>(),
    ) {
        let query = if wire {
            QueryPayload::CmWire(bits_from(seed, bit_len).bits().iter().map(|&b| b as u8).collect())
        } else {
            QueryPayload::Bits(bits_from(seed, bit_len))
        };
        let req = Request::Match { tenant: tenant_name(seed, name_len), query };
        let encoded = req.encode();
        prop_assert_eq!(Request::decode(&encoded).unwrap(), req);
    }

    #[test]
    fn matched_responses_round_trip(
        seed in 0u64..u64::MAX,
        sealed_len in 0usize..300,
        shards in 0usize..9,
        latency in 0u64..1_000_000_000,
    ) {
        let resp = Response::Matched {
            nonce: seed,
            sealed_indices: (0..sealed_len).map(|i| (seed as usize + i) as u8).collect(),
            stats: stats_from(seed),
            shard_stats: (0..shards).map(|i| stats_from(seed ^ i as u64)).collect(),
            seal_latency: Duration::from_nanos(latency),
        };
        let encoded = resp.encode();
        prop_assert_eq!(Response::decode(&encoded).unwrap(), resp);
    }

    #[test]
    fn truncated_messages_error_never_panic(
        seed in 0u64..u64::MAX,
        cut_ppm in 0u32..1_000_000,
    ) {
        let req = Request::Match {
            tenant: tenant_name(seed, 12),
            query: QueryPayload::Bits(bits_from(seed, 96)),
        };
        let encoded = req.encode();
        let cut = (encoded.len() * cut_ppm as usize) / 1_000_000;
        prop_assume!(cut < encoded.len());
        prop_assert!(Request::decode(&encoded[..cut]).is_err());
        let resp = Response::Matched {
            nonce: seed,
            sealed_indices: vec![7; 24],
            stats: stats_from(seed),
            shard_stats: vec![stats_from(seed); 3],
            seal_latency: Duration::from_nanos(1),
        };
        let rencoded = resp.encode();
        let rcut = (rencoded.len() * cut_ppm as usize) / 1_000_000;
        prop_assume!(rcut < rencoded.len());
        prop_assert!(Response::decode(&rencoded[..rcut]).is_err());
    }

    #[test]
    fn bit_flipped_messages_never_panic(
        seed in 0u64..u64::MAX,
        flip_at in 0usize..200,
        flip_bits in 1u8..=255,
    ) {
        let req = Request::Match {
            tenant: tenant_name(seed, 8),
            query: QueryPayload::CmWire((0..64u8).collect()),
        };
        let mut encoded = req.encode();
        let idx = flip_at % encoded.len();
        encoded[idx] ^= flip_bits;
        // Decoding may succeed (payload-byte flips) or fail — but a
        // typed result either way.
        let _ = Request::decode(&encoded);
        let resp = Response::Tenants(vec![TenantInfo {
            id: tenant_name(seed, 6),
            backend: Backend::Ciphermatch.name().to_string(),
        }]);
        let mut rencoded = resp.encode();
        let ridx = flip_at % rencoded.len();
        rencoded[ridx] ^= flip_bits;
        let _ = Response::decode(&rencoded);
    }

    #[test]
    fn garbage_frames_and_messages_never_panic(
        seed in 0u64..u64::MAX,
        len in 0usize..400,
    ) {
        let garbage: Vec<u8> = (0..len)
            .map(|i| (seed.rotate_left((i % 61) as u32) as u8) ^ (i as u8))
            .collect();
        let _ = Request::decode(&garbage);
        let _ = Response::decode(&garbage);
        let _ = read_frame(&mut &garbage[..]);
    }

    #[test]
    fn frame_layer_round_trips_and_rejects_lies(
        seed in 0u64..u64::MAX,
        len in 0usize..2_000,
        lie in 0u32..u32::MAX,
    ) {
        let payload: Vec<u8> = (0..len).map(|i| (seed as usize + i * 31) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        prop_assert_eq!(read_frame(&mut &buf[..]).unwrap(), Some(payload.clone()));

        // A lying length prefix must be rejected (oversized) or read as a
        // short/torn frame (typed transport error) — never trusted into a
        // huge allocation that only later fails.
        buf[4..8].copy_from_slice(&lie.to_le_bytes());
        match read_frame(&mut &buf[..]) {
            Ok(Some(p)) => prop_assert!(p.len() as u64 == lie as u64),
            Ok(None) => prop_assert!(false, "header present, not a clean EOF"),
            Err(MatchError::Frame(_)) | Err(MatchError::Transport(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }
}

fn key_from(seed: u64) -> [u8; 32] {
    let mut key = [0u8; 32];
    for (i, b) in key.iter_mut().enumerate() {
        *b = (seed.rotate_left((i % 59) as u32) as u8) ^ (i as u8).wrapping_mul(7);
    }
    key
}

fn spec_from(seed: u64) -> TenantSpec {
    let backends = ["ciphermatch", "plain", "ifp"];
    TenantSpec {
        backend: backends[(seed % 3) as usize].to_string(),
        seed,
        insecure: seed.is_multiple_of(2),
        workers: (seed % u64::from(MAX_TENANT_WORKERS)) as u32 + 1,
    }
}

proptest! {
    #[test]
    fn lifecycle_requests_round_trip(
        seed in 0u64..u64::MAX,
        name_len in 1usize..40,
        total in 0u64..MAX_DATABASE_BYTES,
        chunks in 1u32..MAX_UPLOAD_CHUNKS,
        index in 0u32..u32::MAX,
        data_len in 0usize..500,
    ) {
        let tenant = tenant_name(seed, name_len);
        let key = key_from(seed);
        let samples = [
            Request::LoadDatabase {
                tenant: tenant.clone(),
                phase: UploadPhase::Begin {
                    auth: UploadAuth {
                        nonce: seed,
                        channel_key: key,
                        content: content_digest(&key, &seed.to_le_bytes()),
                        tag: auth_tag(&key, OP_UPLOAD, &tenant, total, seed, b"spec"),
                    },
                    spec: spec_from(seed),
                    total_bytes: total,
                    chunk_count: chunks,
                },
            },
            Request::LoadDatabase {
                tenant: tenant.clone(),
                phase: UploadPhase::Chunk {
                    index,
                    data: (0..data_len).map(|i| (seed as usize + i * 13) as u8).collect(),
                },
            },
            Request::LoadDatabase { tenant: tenant.clone(), phase: UploadPhase::Commit },
            Request::EvictDatabase {
                tenant: tenant.clone(),
                auth: EvictAuth { nonce: seed, tag: auth_tag(&key, OP_EVICT, &tenant, 0, seed, &[]) },
            },
            Request::DatabaseInfo { tenant },
        ];
        for req in samples {
            let encoded = req.encode();
            prop_assert_eq!(Request::decode(&encoded).unwrap(), req);
        }
    }

    #[test]
    fn lifecycle_responses_round_trip(
        seed in 0u64..u64::MAX,
        demoted_count in 0usize..5,
        resident in proptest::arbitrary::any::<bool>(),
        pinned in proptest::arbitrary::any::<bool>(),
    ) {
        let samples = [
            Response::UploadProgress { received: seed >> 1, expected: seed },
            Response::DatabaseLoaded {
                bytes: seed,
                demoted: (0..demoted_count).map(|i| tenant_name(seed ^ i as u64, 8)).collect(),
            },
            Response::Evicted { freed_bytes: seed },
            Response::DatabaseInfo(DatabaseInfoReply {
                backend: spec_from(seed).backend,
                resident,
                pinned,
                bytes: seed,
                workers: (seed % 64) as u32 + 1,
                queries: seed >> 3,
                tier: if resident { "dram".into() } else { "flash".into() },
            }),
            Response::Error(MatchError::QuotaExceeded { budget: seed, required: seed >> 1 }),
        ];
        for resp in samples {
            let encoded = resp.encode();
            prop_assert_eq!(Response::decode(&encoded).unwrap(), resp);
        }
    }

    /// Truncating any lifecycle message at any point must produce a typed
    /// error (the round-trip tests above prove the full buffer decodes),
    /// and flipping any byte must never panic or over-allocate.
    #[test]
    fn truncated_and_flipped_lifecycle_messages_never_panic(
        seed in 0u64..u64::MAX,
        cut_ppm in 0u32..1_000_000,
        flip_bits in 1u8..=255,
    ) {
        let tenant = tenant_name(seed, 10);
        let key = key_from(seed);
        let requests = [
            Request::LoadDatabase {
                tenant: tenant.clone(),
                phase: UploadPhase::Begin {
                    auth: UploadAuth {
                        nonce: seed,
                        channel_key: key,
                        content: content_digest(&key, b"payload"),
                        tag: auth_tag(&key, OP_UPLOAD, &tenant, 4096, seed, b"spec"),
                    },
                    spec: spec_from(seed),
                    total_bytes: 4096,
                    chunk_count: 4,
                },
            },
            Request::LoadDatabase {
                tenant: tenant.clone(),
                phase: UploadPhase::Chunk { index: 1, data: vec![0xAB; 64] },
            },
            Request::EvictDatabase {
                tenant,
                auth: EvictAuth { nonce: seed, tag: auth_tag(&key, OP_EVICT, "t", 0, seed, &[]) },
            },
        ];
        for req in requests {
            let encoded = req.encode();
            let cut = (encoded.len() * cut_ppm as usize) / 1_000_000;
            if cut < encoded.len() {
                prop_assert!(Request::decode(&encoded[..cut]).is_err());
            }
            let mut flipped = encoded.clone();
            let idx = (seed as usize) % flipped.len();
            flipped[idx] ^= flip_bits;
            let _ = Request::decode(&flipped);
        }
        let responses = [
            Response::DatabaseLoaded {
                bytes: seed,
                demoted: vec![tenant_name(seed, 6), tenant_name(seed ^ 1, 9)],
            },
            Response::DatabaseInfo(DatabaseInfoReply {
                backend: "ciphermatch".into(),
                resident: true,
                pinned: false,
                bytes: seed,
                workers: 4,
                queries: 11,
                tier: "dram".into(),
            }),
        ];
        for resp in responses {
            let encoded = resp.encode();
            let cut = (encoded.len() * cut_ppm as usize) / 1_000_000;
            if cut < encoded.len() {
                prop_assert!(Response::decode(&encoded[..cut]).is_err());
            }
            let mut flipped = encoded.clone();
            let idx = (seed as usize) % flipped.len();
            flipped[idx] ^= flip_bits;
            let _ = Response::decode(&flipped);
        }
    }

    /// A `Begin` lying about its declared size (past the database cap) or
    /// chunk shape must be rejected at decode time — before any upload
    /// buffer could exist, so a hostile header can never drive an
    /// allocation — and so must one whose spec asks for a K of zero or
    /// more than `MAX_TENANT_WORKERS` (up to `u32::MAX`), before any
    /// matcher could be built from it.
    #[test]
    fn out_of_range_upload_declarations_are_typed_errors(
        seed in 0u64..u64::MAX,
        excess in 1u64..(1 << 30),
        lie in 0u8..3,
    ) {
        let tenant = tenant_name(seed, 8);
        let key = key_from(seed);
        let mut spec = spec_from(seed);
        let (total_bytes, chunk_count) = match lie {
            0 => (seed % MAX_DATABASE_BYTES, MAX_UPLOAD_CHUNKS + (excess % u64::from(u32::MAX - MAX_UPLOAD_CHUNKS)) as u32 + 1),
            1 => (MAX_DATABASE_BYTES + excess, 1),
            _ => {
                spec.workers = match seed % 3 {
                    0 => 0,
                    1 => u32::MAX,
                    _ => MAX_TENANT_WORKERS + (excess % u64::from(u32::MAX - MAX_TENANT_WORKERS)) as u32 + 1,
                };
                (seed % MAX_DATABASE_BYTES, 1)
            }
        };
        let req = Request::LoadDatabase {
            tenant: tenant.clone(),
            phase: UploadPhase::Begin {
                auth: UploadAuth {
                    nonce: seed,
                    channel_key: key,
                    content: content_digest(&key, b"payload"),
                    tag: auth_tag(&key, OP_UPLOAD, &tenant, total_bytes, seed, &[]),
                },
                spec,
                total_bytes,
                chunk_count,
            },
        };
        prop_assert!(matches!(Request::decode(&req.encode()), Err(MatchError::Frame(_))));
    }
}

/// A Match request whose inner CIPHERMATCH wire bytes are themselves a
/// truncated real encrypted query must fail *inside the matcher* as a
/// typed decode error — exercised end to end in the server tests; here we
/// pin that the wire layer hands the payload through byte-exact.
#[test]
fn cm_wire_payloads_pass_through_byte_exact() {
    let inner: Vec<u8> = (0..=255u8).collect();
    let req = Request::Match {
        tenant: "alice".into(),
        query: QueryPayload::CmWire(inner.clone()),
    };
    match Request::decode(&req.encode()).unwrap() {
        Request::Match {
            query: QueryPayload::CmWire(got),
            ..
        } => assert_eq!(got, inner),
        other => panic!("wrong decode: {other:?}"),
    }
}
