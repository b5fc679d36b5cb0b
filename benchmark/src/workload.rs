//! The four workloads: inputs generated from the seed, one cold set-up of
//! a live server each, and the seeded operation scripts the clients run.
//!
//! Seeds change *which* reads, keys and tenants are drawn — never sizes,
//! counts or the operation mix — so every metric is comparable across
//! seeds. Every query is chosen to have exactly one hit, which fixes the
//! reply size and with it the wire bytes per operation.

use std::time::Instant;

use cm_bfv::BfvParams;
use cm_core::{Backend, BitString, MatchError, MatcherConfig};
use cm_server::{
    IfpMatcher, MatchClient, MatchServer, QueryKit, RunningServer, ServerConfig, ShardedCmMatcher,
    TenantAccess, TenantRegistry, TenantSpec,
};
use cm_workloads::{DnaGenome, KvDatabase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::catalog::WORKLOADS;
use crate::spans::Recorder;
use crate::stats::Zipf;

/// Socket timeout on every harness connection: a wedged server fails the
/// operation with a typed error instead of hanging the run past its cap.
const CALL_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// Which of the four workloads a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SwScan,
    PlainRtt,
    IfpScan,
    TenantChurn,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SwScan,
        Kind::PlainRtt,
        Kind::IfpScan,
        Kind::TenantChurn,
    ];

    /// The workload's name in the catalog (and in `BENCHMARK.json`), which
    /// lists the workloads in this enum's order.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop client connections. Two at most: the machine has two
    /// cores, and `sw_scan`'s shard fan-out and `ifp_scan`'s one device
    /// mutex already use what a second client would compete for.
    pub fn clients(self) -> usize {
        match self {
            Kind::SwScan | Kind::IfpScan => 1,
            Kind::PlainRtt | Kind::TenantChurn => 2,
        }
    }

    /// Operations in one round of a client's script. The timed window is
    /// a whole number of rounds, so the operation mix — and the bytes per
    /// operation — are the same whatever the window's length.
    pub fn round_ops(self) -> usize {
        match self {
            Kind::TenantChurn => CHURN_ROUND,
            _ => 8,
        }
    }
}

/// `tenant_churn`: tenants, their split between the two clients, and the
/// round of 18 Match operations plus one evict and one re-upload (10%
/// lifecycle operations, two per churn).
const CHURN_TENANTS: usize = 8;
const CHURN_ROUND: usize = 20;
/// Hot-tier budget in encoded databases: four tenants fit, the fifth
/// admission demotes the least recently used.
const CHURN_BUDGET_DATABASES: f64 = 4.5;
const QUERIES_PER_TENANT: usize = 64;

/// One plaintext pattern with its precomputed `find_all` oracle.
#[derive(Debug, Clone)]
pub struct Query {
    pub pattern: BitString,
    pub expect: Vec<usize>,
}

/// One tenant's plaintext side, generated by the harness from the seed.
#[derive(Debug, Clone)]
pub struct TenantInput {
    pub id: String,
    pub key: [u8; 32],
    pub data: BitString,
    pub queries: Vec<Query>,
}

impl TenantInput {
    pub fn plain_bytes(&self) -> u64 {
        self.data.len().div_ceil(8) as u64
    }
}

/// Everything a workload needs that is *not* part of set-up: databases,
/// query sets and oracles. Generating it is harness work.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pub tenants: Vec<TenantInput>,
}

/// Draws `count` distinct `bits`-long windows of `data` that occur exactly
/// once, with their oracle.
fn unique_windows(
    data: &BitString,
    bits: usize,
    align: usize,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Query> {
    let mut starts = std::collections::BTreeSet::new();
    let mut queries = Vec::with_capacity(count);
    let slots = (data.len() - bits) / align + 1;
    while queries.len() < count {
        let start = rng.gen_range(0..slots) * align;
        if !starts.insert(start) {
            continue;
        }
        let pattern = data.slice(start, bits);
        let expect = data.find_all(&pattern);
        if expect.len() == 1 {
            queries.push(Query { pattern, expect });
        }
    }
    queries
}

fn tenant_key(seed: u64, index: usize) -> [u8; 32] {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00C1_A55E ^ ((index as u64) << 32));
    std::array::from_fn(|_| rng.gen())
}

impl Inputs {
    /// Generates the workload's inputs from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let tenants = match kind {
            // 131 072 bases = 262 144 bits = 16 polynomials at the paper's
            // parameters; 64 distinct 16-base reads (32 bits, 47 variants).
            Kind::SwScan => {
                let genome = DnaGenome::random(131_072, &mut rng);
                let data = BitString::from_dna(&genome.to_string_seq());
                let queries = unique_windows(&data, 32, 2, QUERIES_PER_TENANT, &mut rng);
                vec![TenantInput {
                    id: "dna".into(),
                    key: tenant_key(seed, 0),
                    data,
                    queries,
                }]
            }
            Kind::PlainRtt => {
                let bytes: Vec<u8> = (0..64 << 10).map(|_| rng.gen()).collect();
                let data = BitString::from_bytes(&bytes);
                let queries = unique_windows(&data, 32, 1, QUERIES_PER_TENANT, &mut rng);
                vec![TenantInput {
                    id: "plain".into(),
                    key: tenant_key(seed, 0),
                    data,
                    queries,
                }]
            }
            // 4 096 bits = 2 polynomials at `insecure_test_pow2`; a
            // 32-bit query is 39 variants, so 78 `bop_add`s per query.
            Kind::IfpScan => {
                let bytes: Vec<u8> = (0..512).map(|_| rng.gen()).collect();
                let data = BitString::from_bytes(&bytes);
                let queries = unique_windows(&data, 32, 1, QUERIES_PER_TENANT, &mut rng);
                vec![TenantInput {
                    id: "flash".into(),
                    key: tenant_key(seed, 0),
                    data,
                    queries,
                }]
            }
            // 512 records of 4-byte key + 12-byte value = 65 536 bits = 4
            // polynomials; queries are record keys (32 bits).
            Kind::TenantChurn => (0..CHURN_TENANTS)
                .map(|t| {
                    let kv = KvDatabase::random(512, 4, 12, &mut rng);
                    let data = BitString::from_ascii(&kv.flatten());
                    let mut queries = Vec::with_capacity(QUERIES_PER_TENANT);
                    for key in kv.sample_queries(4 * QUERIES_PER_TENANT, &mut rng) {
                        let pattern = BitString::from_ascii(&key);
                        let expect = data.find_all(&pattern);
                        let fresh = !queries.iter().any(|q: &Query| q.expect == expect);
                        if expect.len() == 1 && fresh && queries.len() < QUERIES_PER_TENANT {
                            queries.push(Query { pattern, expect });
                        }
                    }
                    TenantInput {
                        id: format!("t{t}"),
                        key: tenant_key(seed, t),
                        data,
                        queries,
                    }
                })
                .collect(),
        };
        Inputs {
            kind,
            seed,
            tenants,
        }
    }
}

/// What a client needs to evict and re-upload a tenant it owns.
pub struct Upload {
    pub spec: TenantSpec,
    pub encoded: Vec<u8>,
    /// Last nonce this tenant id used; lifecycle nonces strictly increase.
    pub nonce: u64,
}

/// One tenant as a client sees it.
pub struct TenantLive {
    /// Index into [`Inputs::tenants`].
    pub input: usize,
    pub access: TenantAccess,
    /// Client-key tenants encrypt their queries with this.
    pub kit: Option<QueryKit>,
    /// Uploaded tenants can be evicted and uploaded again.
    pub upload: Option<Upload>,
}

/// One closed-loop client: a connection and the tenants it owns.
pub struct Conn {
    pub client: MatchClient,
    pub tenants: Vec<TenantLive>,
}

/// A set-up server with its clients and a separate control connection
/// for `Request::Metrics` and `DatabaseInfo`.
pub struct Live {
    pub server: RunningServer,
    pub conns: Vec<Conn>,
    pub control: MatchClient,
}

fn connect(server: &RunningServer) -> Result<MatchClient, MatchError> {
    let client = MatchClient::connect(server.addr())?;
    client.set_timeout(Some(CALL_TIMEOUT))?;
    Ok(client)
}

/// Key generation, database encryption and registration for the two
/// workloads whose tenant is registered in-process by the operator; the
/// kit is what the remote key owner keeps to encrypt queries.
pub fn provision_in_process(inputs: &Inputs) -> Result<(TenantRegistry, QueryKit), MatchError> {
    let input = &inputs.tenants[0];
    let seed = inputs.seed;
    let mut registry = TenantRegistry::new();
    let kit = if inputs.kind == Kind::SwScan {
        let matcher = ShardedCmMatcher::new(BfvParams::ciphermatch_1024(), 2, seed)?;
        let kit = matcher.query_kit();
        registry.register(&input.id, Box::new(matcher), &input.key, &input.data)?;
        kit
    } else {
        let matcher = IfpMatcher::for_spec(seed, true)?;
        let kit = matcher.query_kit();
        // One pool member: every clone would share the one device behind
        // its mutex anyway.
        let erased = cm_core::erase(matcher, seed);
        registry.register_with_workers(&input.id, erased, 1, &input.key, &input.data)?;
        kit
    };
    Ok((registry, kit))
}

/// The key owner's side of an upload for tenant `t` of the two workloads
/// whose tenants arrive over the wire: build the matcher from its config
/// (key generation), encrypt the database, serialize it.
pub fn provision_upload(inputs: &Inputs, t: usize) -> Result<Upload, MatchError> {
    let config = if inputs.kind == Kind::PlainRtt {
        MatcherConfig::new(Backend::Plain).seed(inputs.seed)
    } else {
        MatcherConfig::new(Backend::Ciphermatch)
            .seed(inputs.seed.wrapping_add(t as u64))
            .threads(1)
    };
    let mut owner = config.build()?;
    owner.load_database(&inputs.tenants[t].data)?;
    Ok(Upload {
        // Two pool members: both clients may query one tenant at once.
        spec: TenantSpec::from_config(&config, 2),
        encoded: owner.export_database()?,
        nonce: 1,
    })
}

/// One cold set-up: spawn the server, generate keys, encrypt the
/// database(s), register or upload them, connect every client and get a
/// first correct reply on each.
pub fn set_up(inputs: &Inputs) -> Result<Live, MatchError> {
    let tenant = |t: usize, kit: Option<QueryKit>, upload: Option<Upload>| TenantLive {
        input: t,
        access: TenantAccess::new(&inputs.tenants[t].id, &inputs.tenants[t].key),
        kit,
        upload,
    };
    let (server, conns) = match inputs.kind {
        Kind::SwScan | Kind::IfpScan => {
            let (registry, kit) = provision_in_process(inputs)?;
            let server = MatchServer::new(registry).spawn("127.0.0.1:0")?;
            let conn = Conn {
                client: connect(&server)?,
                tenants: vec![tenant(0, Some(kit), None)],
            };
            (server, vec![conn])
        }
        Kind::PlainRtt => {
            let server = MatchServer::new(TenantRegistry::new()).spawn("127.0.0.1:0")?;
            let built = provision_upload(inputs, 0)?;
            let mut conns = Vec::new();
            for c in 0..Kind::PlainRtt.clients() {
                let mut conn = Conn {
                    client: connect(&server)?,
                    tenants: vec![tenant(0, None, None)],
                };
                // The first client uploads; both query the one tenant.
                if c == 0 {
                    let access = &conn.tenants[0].access;
                    conn.client.upload_database(
                        access,
                        &built.spec,
                        &built.encoded,
                        built.nonce,
                    )?;
                }
                conns.push(conn);
            }
            (server, conns)
        }
        Kind::TenantChurn => {
            // The budget is a multiple of one encoded database, so the
            // first tenant is built before the server that enforces it.
            let mut first = Some(provision_upload(inputs, 0)?);
            let encoded_len = first.as_ref().map_or(0, |u| u.encoded.len());
            let config = ServerConfig {
                memory_budget: Some((encoded_len as f64 * CHURN_BUDGET_DATABASES) as u64),
                ..ServerConfig::default()
            };
            let server =
                MatchServer::with_config(TenantRegistry::new(), config)?.spawn("127.0.0.1:0")?;
            let per_client = CHURN_TENANTS / Kind::TenantChurn.clients();
            let mut conns = Vec::new();
            for c in 0..Kind::TenantChurn.clients() {
                let mut conn = Conn {
                    client: connect(&server)?,
                    tenants: Vec::new(),
                };
                for t in c * per_client..(c + 1) * per_client {
                    let built = match first.take() {
                        Some(built) => built,
                        None => provision_upload(inputs, t)?,
                    };
                    let live = tenant(t, None, None);
                    conn.client.upload_database(
                        &live.access,
                        &built.spec,
                        &built.encoded,
                        built.nonce,
                    )?;
                    conn.tenants.push(TenantLive {
                        upload: Some(built),
                        ..live
                    });
                }
                conns.push(conn);
            }
            (server, conns)
        }
    };
    let control = connect(&server)?;
    let mut live = Live {
        server,
        conns,
        control,
    };
    for conn in &mut live.conns {
        let first = Op::Match {
            tenant: 0,
            query: 0,
        };
        let mut rng = StdRng::seed_from_u64(inputs.seed);
        if !execute(first, conn, inputs, &mut rng, None, 0).ok {
            return Err(MatchError::Internal(
                "set-up: first reply was wrong or failed",
            ));
        }
    }
    Ok(live)
}

/// One scripted operation; indices are into the client's tenant list and
/// the tenant's query list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Match { tenant: usize, query: usize },
    Evict { tenant: usize },
    Upload { tenant: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Match,
    Evict,
    Upload,
}

/// A client's seeded operation stream.
pub struct Script {
    kind: Kind,
    rng: StdRng,
    zipf: Zipf,
}

impl Script {
    pub fn new(kind: Kind, seed: u64, client: usize) -> Self {
        let tenants = match kind {
            Kind::TenantChurn => CHURN_TENANTS / kind.clients(),
            _ => 1,
        };
        Self {
            kind,
            rng: StdRng::seed_from_u64(seed ^ 0x005C_2197 ^ ((client as u64 + 1) << 40)),
            zipf: Zipf::new(tenants, 1.0),
        }
    }

    /// The next round of operations.
    pub fn round(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(self.kind.round_ops());
        let matches = match self.kind {
            Kind::TenantChurn => CHURN_ROUND - 2,
            kind => kind.round_ops(),
        };
        for _ in 0..matches {
            ops.push(Op::Match {
                tenant: self.zipf.sample(&mut self.rng),
                query: self.rng.gen_range(0..QUERIES_PER_TENANT),
            });
        }
        if self.kind == Kind::TenantChurn {
            // Evict and re-upload back to back, so the client never
            // queries a tenant of its own that is not registered.
            let tenant = self.zipf.sample(&mut self.rng);
            let at = self.rng.gen_range(0..=matches);
            ops.insert(at, Op::Upload { tenant });
            ops.insert(at, Op::Evict { tenant });
        }
        ops
    }
}

/// What one executed operation left behind.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub kind: OpKind,
    /// The call returned without error and, for a Match, the reply
    /// equalled the plaintext oracle.
    pub ok: bool,
    /// The error ended the connection's usefulness (transport, framing):
    /// the client stops instead of piling up timeouts.
    pub fatal: bool,
    pub latency_ns: u64,
    /// Spans were recorded around this operation.
    pub traced: bool,
    /// Match only: the tenant was resident just before (traced runs).
    pub resident_before: Option<bool>,
    pub hom_adds: u64,
    /// Match only: max ÷ mean of the per-shard Hom-Add counts.
    pub shard_imbalance: f64,
}

/// Runs one operation. A Match is timed from handing the plaintext
/// pattern to the client side (before query encryption) to the opened
/// index list; the oracle comparison happens after the clock stops.
pub fn execute(
    op: Op,
    conn: &mut Conn,
    inputs: &Inputs,
    rng: &mut StdRng,
    mut spans: Option<&mut Recorder>,
    op_id: u64,
) -> OpRecord {
    macro_rules! enter {
        ($name:expr) => {
            if let Some(rec) = spans.as_deref_mut() {
                rec.enter($name, op_id);
            }
        };
    }
    macro_rules! exit {
        () => {
            if let Some(rec) = spans.as_deref_mut() {
                rec.exit();
            }
        };
    }
    let mut record = OpRecord {
        kind: OpKind::Match,
        ok: false,
        fatal: false,
        latency_ns: 0,
        traced: spans.is_some(),
        resident_before: None,
        hom_adds: 0,
        shard_imbalance: 1.0,
    };
    let outcome: Result<bool, MatchError> = match op {
        Op::Match { tenant, query } => {
            let live = &conn.tenants[tenant];
            let input = &inputs.tenants[live.input];
            let query = &input.queries[query % input.queries.len()];
            // Traced churn runs label each Match hot or cold by asking
            // first; the question is outside the operation's clock.
            if spans.is_some() && inputs.kind == Kind::TenantChurn {
                enter!("harness.database_info");
                record.resident_before = conn
                    .client
                    .database_info(live.access.id())
                    .ok()
                    .map(|info| info.resident);
                exit!();
            }
            enter!("op.match");
            let started = Instant::now();
            let reply = match &live.kit {
                Some(kit) => {
                    enter!("client.encrypt");
                    let encoded = kit.encode_query(&query.pattern, rng);
                    exit!();
                    encoded.and_then(|bytes| {
                        enter!("client.call");
                        let reply = conn.client.search_encoded(&live.access, &bytes);
                        exit!();
                        reply
                    })
                }
                None => {
                    enter!("client.call");
                    let reply = conn.client.search_bits(&live.access, &query.pattern);
                    exit!();
                    reply
                }
            };
            record.latency_ns = started.elapsed().as_nanos() as u64;
            enter!("harness.check");
            let outcome = reply.map(|reply| {
                record.hom_adds = reply.stats.hom_adds;
                let adds: Vec<f64> = reply
                    .shard_stats
                    .iter()
                    .map(|s| s.hom_adds as f64)
                    .collect();
                let mean = adds.iter().sum::<f64>() / adds.len().max(1) as f64;
                if mean > 0.0 {
                    record.shard_imbalance = adds.iter().copied().fold(0.0, f64::max) / mean;
                }
                reply.indices == query.expect
            });
            exit!();
            exit!();
            outcome
        }
        Op::Evict { tenant } => {
            record.kind = OpKind::Evict;
            let live = &mut conn.tenants[tenant];
            let nonce = live.upload.as_mut().map_or(0, |u| {
                u.nonce += 1;
                u.nonce
            });
            enter!("op.evict");
            let started = Instant::now();
            let freed = conn.client.evict_database(&live.access, nonce);
            record.latency_ns = started.elapsed().as_nanos() as u64;
            exit!();
            freed.map(|_| true)
        }
        Op::Upload { tenant } => {
            record.kind = OpKind::Upload;
            let live = &mut conn.tenants[tenant];
            match live.upload.as_mut() {
                None => Err(MatchError::Internal("script uploads a tenant it cannot")),
                Some(upload) => {
                    upload.nonce += 1;
                    enter!("op.upload");
                    let started = Instant::now();
                    let loaded = conn.client.upload_database(
                        &live.access,
                        &upload.spec,
                        &upload.encoded,
                        upload.nonce,
                    );
                    record.latency_ns = started.elapsed().as_nanos() as u64;
                    exit!();
                    loaded.map(|(bytes, _demoted)| bytes == upload.encoded.len() as u64)
                }
            }
        }
    };
    match outcome {
        Ok(correct) => record.ok = correct,
        Err(error) => {
            record.fatal = matches!(
                error,
                MatchError::Transport(_) | MatchError::ConnectionClosed | MatchError::Frame(_)
            );
            eprintln!("operation failed: {error}");
        }
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_the_catalog_workloads_in_order() {
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["sw_scan", "plain_rtt", "ifp_scan", "tenant_churn"]);
        assert_eq!(Kind::parse("ifp_scan"), Some(Kind::IfpScan));
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed_and_sizes_are_not() {
        let a = Inputs::generate(Kind::IfpScan, 3);
        let b = Inputs::generate(Kind::IfpScan, 3);
        let c = Inputs::generate(Kind::IfpScan, 4);
        assert_eq!(a.tenants[0].data, b.tenants[0].data);
        assert_ne!(a.tenants[0].data, c.tenants[0].data);
        assert_eq!(a.tenants[0].data.len(), c.tenants[0].data.len());
        assert_eq!(a.tenants[0].queries.len(), QUERIES_PER_TENANT);
        for q in &a.tenants[0].queries {
            assert_eq!(q.pattern.len(), 32);
            assert_eq!(q.expect, a.tenants[0].data.find_all(&q.pattern));
            assert_eq!(q.expect.len(), 1);
        }
    }

    #[test]
    fn churn_rounds_keep_the_mix_and_pair_evict_with_upload() {
        let mut script = Script::new(Kind::TenantChurn, 11, 0);
        for _ in 0..50 {
            let round = script.round();
            assert_eq!(round.len(), CHURN_ROUND);
            let evict = round
                .iter()
                .position(|op| matches!(op, Op::Evict { .. }))
                .expect("one evict per round");
            let Op::Evict { tenant } = round[evict] else {
                unreachable!()
            };
            assert_eq!(round[evict + 1], Op::Upload { tenant });
            let matches = round
                .iter()
                .filter(|op| matches!(op, Op::Match { .. }))
                .count();
            assert_eq!(matches, CHURN_ROUND - 2);
        }
        let mut again = Script::new(Kind::TenantChurn, 11, 0);
        let mut other = Script::new(Kind::TenantChurn, 11, 1);
        let mut first = Script::new(Kind::TenantChurn, 11, 0);
        let reference = first.round();
        assert_eq!(again.round(), reference);
        assert_ne!(other.round(), reference);
    }
}
