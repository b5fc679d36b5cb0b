//! The probe phase of a traced run: one representative operation replayed
//! stage by stage through public functions, each stage repeated and its
//! median reported. This is the layer view the served path cannot give
//! from outside — between the client's call and the server's reply the
//! harness sees only what `Request::Metrics` reports.
//!
//! The probes do not depend on the workload, so every traced run reports
//! every layer; only [`run_query_ms`] replays the workload's own tenant.

use std::hint::black_box;
use std::time::Instant;

use cm_bfv::{BfvContext, BfvParams, Decryptor, Encryptor, KeyGenerator};
use cm_core::{BitString, CiphermatchEngine, MatchError, MatchStats, WorkerPool};
use cm_flash::FlashGeometry;
use cm_hemath::{kernels, Modulus, NttTable};
use cm_server::wire::{content_digest, upload_tag, FrameBuffer, UploadAuth};
use cm_server::{wire::frame_bytes, QueryPayload, Request, Response, TenantRegistry};
use cm_ssd::{CmIfpServer, ColdStore, SecureIndexChannel, TransposeMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::median;
use crate::workload::{provision_in_process, provision_upload, Inputs, Kind};

/// Repetitions per probe; the median is reported.
pub const REPS: usize = 30;

/// Median wall time in seconds of `reps` calls to `f` (after one untimed
/// call that warms caches and lazy tables).
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn random_bits(bits: usize, rng: &mut StdRng) -> BitString {
    let bytes: Vec<u8> = (0..bits / 8).map(|_| rng.gen()).collect();
    BitString::from_bytes(&bytes)
}

/// Every workload-independent layer metric.
pub fn layers(reps: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    hemath(reps, &mut out);
    software(reps, &mut out);
    exec_and_wire(reps, &mut out);
    in_flash(reps, &mut out);
    cold_store(reps, &mut out);
    out
}

/// `cm_hemath`: the Hom-Add kernel against the machine's copy bandwidth
/// (the roofline row), and one NTT.
fn hemath(reps: usize, out: &mut Vec<(&'static str, f64)>) {
    let params = BfvParams::ciphermatch_1024();
    let modulus = Modulus::new(params.q);
    // Two 8 MiB operands: a 16 MiB working set, well past the last-level
    // cache share of one core. Both rates count bytes read plus written.
    let words = (8 << 20) / 8;
    let mut acc: Vec<u64> = (0..words as u64).map(|i| i % modulus.value()).collect();
    let b: Vec<u64> = (0..words as u64)
        .map(|i| (i * 7) % modulus.value())
        .collect();
    let bytes = (words * 8) as f64;
    let add = time(reps, || kernels::add_assign_slices(&modulus, &mut acc, &b));
    out.push(("hemath.add_assign_gbps", 3.0 * bytes / add / 1e9));
    let copy = time(reps, || acc.copy_from_slice(&b));
    out.push(("hemath.memcpy_gbps", 2.0 * bytes / copy / 1e9));

    let table = NttTable::new(modulus, params.n);
    let mut slab: Vec<u64> = (0..params.n as u64).map(|i| i % modulus.value()).collect();
    // One transform is a few microseconds: time batches of 64.
    let ntt = time(reps, || {
        for _ in 0..64 {
            table.forward(&mut slab);
        }
    });
    out.push(("hemath.ntt_forward_us", ntt / 64.0 * 1e6));
}

/// `cm_bfv` and the `cm_core` CM-SW engine at the paper's parameters, at
/// `sw_scan`'s shape: a 16-polynomial database and a 32-bit query.
fn software(reps: usize, out: &mut Vec<(&'static str, f64)>) {
    let ctx = BfvContext::new(BfvParams::ciphermatch_1024());
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let (sk, pk) = (keygen.secret_key(), keygen.public_key(&mut rng));
    let enc = Encryptor::new(&ctx, pk);
    let dec = Decryptor::new(&ctx, sk);
    let mut engine = CiphermatchEngine::new(&ctx);
    let bits_per_poly = engine.packing().bits_per_poly();

    let data = random_bits(16 * bits_per_poly, &mut rng);
    let pattern = data.slice(8 * bits_per_poly + 334, 32);
    let plaintext = engine
        .packing()
        .pack(&data.slice(0, bits_per_poly))
        .remove(0);
    let ciphertext = enc.encrypt(&plaintext, &mut rng);
    let encrypt = time(reps, || enc.encrypt(&plaintext, &mut rng));
    out.push(("bfv.encrypt_us", encrypt * 1e6));
    out.push((
        "bfv.decrypt_us",
        time(reps, || dec.decrypt(&ciphertext)) * 1e6,
    ));

    let encrypt_db = time(reps.min(10), || {
        engine.encrypt_database(&enc, &data, &mut rng)
    });
    out.push(("core.encrypt_db_ms", encrypt_db * 1e3));
    let prepare = time(reps, || engine.prepare_query(&enc, &pattern, &mut rng));
    out.push(("core.prepare_query_ms", prepare * 1e3));

    let db = engine.encrypt_database(&enc, &data, &mut rng);
    let query = engine.prepare_query(&enc, &pattern, &mut rng);
    let adds = (query.variant_count() * db.poly_count()) as f64;
    out.push((
        "core.sweep_ms",
        time(reps, || engine.search(&db, &query)) * 1e3,
    ));
    let mut result = engine.search(&db, &query);
    let sweep_into = time(reps, || engine.search_into(&db, &query, &mut result));
    out.push(("core.sweep_into_ms", sweep_into * 1e3));
    out.push(("core.sweep_ns_per_add_p16", sweep_into / adds * 1e9));
    let index_gen = time(reps, || engine.generate_indices(&dec, &result));
    out.push(("core.index_gen_ms", index_gen * 1e3));

    // The same sweep over 64 polynomials: 47 result arenas of 1 MiB each
    // no longer fit any cache level, which makes this the shape to hold
    // against the copy ceiling. Per Hom-Add the sweep reads a database
    // ciphertext and a query ciphertext and writes their sum: three
    // ciphertexts of two n-coefficient polynomials, counted like the copy.
    let big = random_bits(64 * bits_per_poly, &mut rng);
    let big_db = engine.encrypt_database(&enc, &big, &mut rng);
    let mut big_result = engine.search(&big_db, &query);
    let big_sweep = time(reps, || {
        engine.search_into(&big_db, &query, &mut big_result)
    });
    let big_adds = (query.variant_count() * big_db.poly_count()) as f64;
    out.push(("core.sweep_ns_per_add_p64", big_sweep / big_adds * 1e9));
    let ct_bytes = (2 * ctx.params().n * 8) as f64;
    out.push((
        "core.sweep_gbps",
        big_adds * 3.0 * ct_bytes / big_sweep / 1e9,
    ));
}

/// `cm_core::exec`, the `cm_server` wire codec and the AES index channel,
/// on `sw_scan`-sized frames (a 387 KB encrypted query, a one-hit reply).
fn exec_and_wire(reps: usize, out: &mut Vec<(&'static str, f64)>) {
    if let Ok(pool) = WorkerPool::new(1) {
        let submit = time(reps, || pool.submit(|| ()).wait());
        out.push(("exec.submit_wait_us", submit * 1e6));
    }

    let mut rng = StdRng::seed_from_u64(0xF4A3E);
    let payload: Vec<u8> = (0..386_798).map(|_| rng.gen()).collect();
    let request = Request::Match {
        tenant: "dna".into(),
        query: QueryPayload::CmWire(payload),
    };
    let request_bytes = request.encode();
    out.push((
        "wire.encode_request_us",
        time(reps, || request.encode()) * 1e6,
    ));
    let decode = time(reps, || Request::decode(&request_bytes));
    out.push(("wire.decode_request_us", decode * 1e6));

    let channel = SecureIndexChannel::new(&[0x42; 32]);
    let seal = time(reps, || {
        for nonce in 0..64 {
            black_box(channel.seal(&[123_456], nonce));
        }
    });
    out.push(("aes.seal_us", seal / 64.0 * 1e6));
    let (sealed, _) = channel.seal(&[123_456], 7);
    let open = time(reps, || {
        for _ in 0..64 {
            black_box(channel.open(&sealed, 7));
        }
    });
    out.push(("client.open_us", open / 64.0 * 1e6));

    let response = Response::Matched {
        nonce: 7,
        sealed_indices: sealed,
        stats: MatchStats::default(),
        shard_stats: vec![MatchStats::default(); 2],
        seal_latency: std::time::Duration::from_nanos(80),
    };
    let response_bytes = response.encode();
    let encode = time(reps, || {
        for _ in 0..64 {
            black_box(response.encode());
        }
    });
    out.push(("wire.encode_response_us", encode / 64.0 * 1e6));
    let decode = time(reps, || {
        for _ in 0..64 {
            black_box(Response::decode(&response_bytes).is_ok());
        }
    });
    out.push(("wire.decode_response_us", decode / 64.0 * 1e6));

    if let Ok(framed) = frame_bytes(&request_bytes) {
        let reassemble = time(reps, || {
            let mut buffer = FrameBuffer::new();
            for slice in framed.chunks(64 << 10) {
                if buffer.feed(slice).is_err() {
                    return None;
                }
            }
            buffer.next_frame()
        });
        out.push(("wire.frame_reassemble_us", reassemble * 1e6));
    }
}

/// `cm_ssd` / `cm_flash`: `ifp_scan`'s shape replayed against the device
/// directly. Host time is what the simulator costs; `ssd.sim_*` is what
/// the modelled hardware would take and must not move when only the
/// simulator gets faster.
fn in_flash(reps: usize, out: &mut Vec<(&'static str, f64)>) {
    let ctx = BfvContext::new(BfvParams::insecure_test_pow2());
    let mut rng = StdRng::seed_from_u64(0x1F9);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let (sk, pk) = (keygen.secret_key(), keygen.public_key(&mut rng));
    let enc = Encryptor::new(&ctx, pk);
    let dec = Decryptor::new(&ctx, sk);
    let engine = CiphermatchEngine::new(&ctx);
    let data = random_bits(4096, &mut rng);
    let pattern = data.slice(1234, 32);
    let db = engine.encrypt_database(&enc, &data, &mut rng);
    let query = engine.prepare_query(&enc, &pattern, &mut rng);

    let geometry = FlashGeometry::tiny_test();
    let write = time(reps.min(10), || {
        CmIfpServer::new(&ctx, geometry.clone(), TransposeMode::Software, &db)
    });
    out.push(("ssd.cm_write_ms", write * 1e3));

    let mut device = CmIfpServer::new(&ctx, geometry, TransposeMode::Software, &db);
    let search = time(reps, || device.search(&query));
    let (result, reports) = device.search(&query);
    let bop_adds: u64 = reports.iter().map(|r| r.bop_adds).sum();
    let ssd = device.ssd();
    let device_s: f64 = reports
        .iter()
        .map(|r| r.time_eq9(ssd.geometry(), ssd.timings()))
        .sum();
    let energy_j: f64 = reports
        .iter()
        .map(|r| r.energy(ssd.geometry(), ssd.energy_model()))
        .sum();
    out.push(("ssd.cm_search_ms", search * 1e3));
    out.push((
        "ssd.host_us_per_bop_add",
        search * 1e6 / bop_adds.max(1) as f64,
    ));
    out.push(("flash.bop_adds_per_op", bop_adds as f64));
    out.push(("ssd.sim_device_us", device_s * 1e6));
    out.push(("ssd.sim_energy_uj", energy_j * 1e6));
    let index_gen = time(reps, || engine.generate_indices(&dec, &result));
    out.push(("ifp.index_gen_ms", index_gen * 1e3));
}

/// `cm_ssd::ColdStore`: one MiB written page by page and read back — what
/// a demotion and a promotion pay per MiB of encoded database.
fn cold_store(reps: usize, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = StdRng::seed_from_u64(0xC01D);
    let blob: Vec<u8> = (0..1 << 20).map(|_| rng.gen()).collect();
    let mut store = ColdStore::with_default_geometry();
    let put = time(reps.min(10), || {
        store.put(&blob).map(|write| store.remove(write.slot)).ok()
    });
    out.push(("cold.put_ms_per_mib", put * 1e3));
    if let Ok(write) = store.put(&blob) {
        let get = time(reps.min(10), || store.get(&write.slot).ok());
        out.push(("cold.get_ms_per_mib", get * 1e3));
    }
}

/// `TenantRegistry::run_query` called in-process — no TCP, no reactor, no
/// pump — on the workload's own tenant and first query: what the serving
/// path costs below the front-end. Milliseconds, median.
pub fn run_query_ms(inputs: &Inputs, reps: usize) -> Result<f64, MatchError> {
    let input = &inputs.tenants[0];
    let query = &input.queries[0];
    let (registry, payload) = match inputs.kind {
        Kind::SwScan | Kind::IfpScan => {
            let (registry, kit) = provision_in_process(inputs)?;
            let mut rng = StdRng::seed_from_u64(inputs.seed);
            let encoded = kit.encode_query(&query.pattern, &mut rng)?;
            (registry, QueryPayload::CmWire(encoded))
        }
        // An uploaded tenant is admitted through `register_remote`, which
        // rebuilds the matcher from the spec — the served path's own.
        Kind::PlainRtt | Kind::TenantChurn => {
            let upload = provision_upload(inputs, 0)?;
            let total = upload.encoded.len() as u64;
            let content = content_digest(&input.key, &upload.encoded);
            let auth = UploadAuth {
                nonce: upload.nonce,
                channel_key: input.key,
                content,
                tag: upload_tag(
                    &input.key,
                    &input.id,
                    upload.nonce,
                    total,
                    &upload.spec,
                    &content,
                ),
            };
            let registry = TenantRegistry::new();
            registry.register_remote(&input.id, &upload.spec, upload.encoded, &auth)?;
            (registry, QueryPayload::Bits(query.pattern.clone()))
        }
    };
    let mut failed = None;
    let seconds = time(reps, || {
        if let Err(error) = registry.run_query(&input.id, &payload) {
            failed = Some(error);
        }
    });
    match failed {
        Some(error) => Err(error),
        None => Ok(seconds * 1e3),
    }
}
