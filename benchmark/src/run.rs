//! One run of one workload: repeated cold set-ups, warm-up, the timed
//! closed-loop window, and the metrics computed from it.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use cm_core::MatchError;
use cm_server::wire::frame_bytes;
use cm_server::{Request, Response};
use cm_telemetry::{metric_names as names, HistogramSample, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::json::Json;
use crate::probe;
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, percentile_of};
use crate::workload::{execute, set_up, Inputs, Kind, Live, OpKind, OpRecord, Script};

/// Untimed operations each connection runs first, rounded up to whole
/// rounds: fills matcher pools and NTT tables, faults in result arenas, and
/// takes the socket out of TCP quick-ack mode (after which small requests
/// stall ≈ 40 ms each).
const WARMUP_OPS: usize = 32;
/// Cold set-ups are repeated after the timed window for this long, and
/// until there are this many: a burst of foreign load lasts up to a second
/// or two, and `setup_s` needs one set-up outside it (`sw_scan`'s takes
/// 45 ms, `tenant_churn`'s a second).
const SETUP_SPAN: Duration = Duration::from_secs(2);
const MIN_SETUPS: usize = 3;
/// A workload still running this long after process start is aborted and
/// reported failed, well inside the driver's 180 s cap.
const RUN_CAP: Duration = Duration::from_secs(120);

/// How a run is bounded.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Whole rounds until this many seconds have passed (the driver's
    /// `--seconds`).
    Seconds(f64),
    /// Exactly this many rounds per client: operation and byte counts
    /// repeat exactly (`check` mode).
    Rounds(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub limit: Limit,
    pub trace: bool,
    /// Tens of operations, one set-up, few probe repetitions: a smoke
    /// test that supports no claim.
    pub quick: bool,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(metric name, value)` — the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64)>,
    /// Plain statistics over every operation of an untraced window, for
    /// the reader of the table only: on a shared host they are shaped by
    /// the other tenants' load, so nothing is gated on them.
    pub whole_window: Vec<(&'static str, f64)>,
    /// Counts that must repeat exactly between two same-seed runs bounded
    /// by [`Limit::Rounds`].
    pub exact: Vec<(&'static str, f64)>,
}

/// One client's share of a timed window.
pub struct ConnWindow {
    pub records: Vec<OpRecord>,
    /// Wall time of each completed round; round `i` is records
    /// `i * round_ops..(i + 1) * round_ops`.
    pub round_secs: Vec<f64>,
    pub spans: Vec<Span>,
}

/// Runs every client's script against its connection until `limit`.
fn drive(
    live: &mut Live,
    inputs: &Inputs,
    scripts: &mut [ClientState],
    limit: Limit,
    trace: bool,
    process_start: Instant,
) -> Vec<ConnWindow> {
    let barrier = Barrier::new(live.conns.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(scripts.iter_mut())
            .map(|(conn, state)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut recorder = trace.then(|| Recorder::new(process_start));
                    let mut records = Vec::new();
                    let mut round_secs = Vec::new();
                    barrier.wait();
                    let started = Instant::now();
                    'window: loop {
                        let rounds = round_secs.len();
                        let done = match limit {
                            Limit::Seconds(s) => started.elapsed().as_secs_f64() >= s,
                            Limit::Rounds(n) => rounds >= n,
                        };
                        if done {
                            break;
                        }
                        // A traced window records spans on every other
                        // round only, so traced and untraced operations
                        // interleave and machine drift cancels out of
                        // `trace.overhead_pct`.
                        let spans_on = rounds % 2 == 0;
                        let round_started = Instant::now();
                        for op in state.script.round() {
                            state.next_op += 1;
                            let record = execute(
                                op,
                                conn,
                                inputs,
                                &mut state.encrypt_rng,
                                recorder.as_mut().filter(|_| spans_on),
                                state.next_op,
                            );
                            records.push(record);
                            if record.fatal || process_start.elapsed() > RUN_CAP {
                                break 'window;
                            }
                        }
                        round_secs.push(round_started.elapsed().as_secs_f64());
                    }
                    ConnWindow {
                        records,
                        round_secs,
                        spans: recorder.map(|r| r.spans().to_vec()).unwrap_or_default(),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A client's script and query-encryption randomness, kept across the
/// warm-up and every window so no operation sequence repeats.
pub struct ClientState {
    script: Script,
    encrypt_rng: StdRng,
    /// Operation ids are unique per client: `client << 32 | n`.
    next_op: u64,
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counter(name, &[]).unwrap_or(0) as f64
}

/// The observations a histogram gained between two snapshots.
fn histogram_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<HistogramSample> {
    let mut delta = after.histogram(name, labels)?.clone();
    if let Some(old) = before.histogram(name, labels) {
        delta.count -= old.count;
        delta.sum -= old.sum;
        for (index, count) in &mut delta.buckets {
            if let Some((_, was)) = old.buckets.iter().find(|(i, _)| i == index) {
                *count -= was;
            }
        }
        delta.buckets.retain(|(_, count)| *count > 0);
    }
    Some(delta)
}

fn p50_us(delta: Option<HistogramSample>) -> f64 {
    delta
        .and_then(|d| d.quantile(0.5))
        .map_or(0.0, |v| v as f64)
}

/// `(utime + stime)` of this process in milliseconds.
fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in clock ticks of 10 ms.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    ticks as f64 * 10.0
}

fn status_field(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Frame bytes the control connection itself put on the wire between two
/// snapshots: the first snapshot's reply and the second one's request
/// (the reactor counts a request when it is read, a reply when it is
/// written, and each snapshot is taken in between).
fn control_overhead(first: &MetricsSnapshot) -> Result<(f64, f64), MatchError> {
    let request = frame_bytes(&Request::Metrics.encode())?.len();
    let reply = frame_bytes(&Response::Metrics(first.clone()).encode())?.len();
    Ok((request as f64, reply as f64))
}

/// An operation's latency in milliseconds; a failed one sorts as +∞.
fn match_latency_ms(record: &OpRecord) -> f64 {
    if record.ok {
        record.latency_ns as f64 / 1e6
    } else {
        f64::INFINITY
    }
}

/// Latencies of the window's Match operations.
fn match_latencies_ms(windows: &[ConnWindow]) -> Vec<f64> {
    windows
        .iter()
        .flat_map(|w| &w.records)
        .filter(|r| r.kind == OpKind::Match)
        .map(match_latency_ms)
        .collect()
}

/// What a timing metric reports from repeated samples of one quantity —
/// the rounds of a window, the cold set-ups of a run: the nearest-rank 10th
/// percentile, counted from the fast end. The guest shares its two cores
/// with other tenants of the host, whose load only ever adds time, in
/// bursts and in phases of seconds; the fastest tenth of the samples is
/// what the program costs when left alone, and it repeats from run to run
/// where a mean or a median over the whole window does not. A change to
/// the program moves every sample and so moves the decile; a stall in
/// fewer than nine rounds of ten does not show in it (the table printed
/// beside the result has the whole-window percentiles for that).
fn quiet_decile(mut samples: Vec<f64>) -> f64 {
    percentile_of(&mut samples, 0.10)
}

/// What one completed round of one client adds to the timing metrics.
struct RoundStat {
    /// Wall time of the round over its correct operations.
    secs_per_op: f64,
    /// Median of the round's Match latencies.
    median_ms: f64,
}

fn round_stats(windows: &[ConnWindow], round_ops: usize) -> Vec<RoundStat> {
    let mut stats = Vec::new();
    for window in windows {
        for (secs, records) in window
            .round_secs
            .iter()
            .zip(window.records.chunks(round_ops))
        {
            let correct = records.iter().filter(|r| r.ok).count();
            let mut matches: Vec<f64> = records
                .iter()
                .filter(|r| r.kind == OpKind::Match)
                .map(match_latency_ms)
                .collect();
            stats.push(RoundStat {
                secs_per_op: secs / correct as f64,
                median_ms: percentile_of(&mut matches, 0.5),
            });
        }
    }
    stats
}

fn latencies_of(windows: &[ConnWindow], pick: impl Fn(&OpRecord) -> bool) -> Vec<f64> {
    windows
        .iter()
        .flat_map(|w| &w.records)
        .filter(|r| pick(r))
        .map(|r| r.latency_ns as f64 / 1e6)
        .collect()
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// A set-up, warmed-up workload about to be measured.
struct Session<'a> {
    inputs: &'a Inputs,
    live: Live,
    clients: Vec<ClientState>,
    limit: Limit,
    quick: bool,
    process_start: Instant,
}

impl Session<'_> {
    /// Drives every client for `share` of the run's limit.
    fn window(&mut self, share: f64, trace: bool) -> Vec<ConnWindow> {
        let limit = match self.limit {
            Limit::Seconds(s) => Limit::Seconds(s * share),
            rounds => rounds,
        };
        drive(
            &mut self.live,
            self.inputs,
            &mut self.clients,
            limit,
            trace,
            self.process_start,
        )
    }
}

/// Runs the workload and computes its metrics.
pub fn run(options: Options) -> Result<Outcome, MatchError> {
    let process_start = Instant::now();
    let Options {
        kind,
        seed,
        limit,
        trace,
        quick,
    } = options;
    let inputs = Inputs::generate(kind, seed);

    // --- Set-up: the first cold one serves the run ------------------------
    let started = Instant::now();
    let mut live = set_up(&inputs)?;
    let first_setup_s = started.elapsed().as_secs_f64();

    // Server-accounted bytes of every tenant database over their
    // plaintext bytes (the paper's Fig. 2a quantity).
    let mut accounted = 0u64;
    for tenant in &inputs.tenants {
        accounted += live.control.database_info(&tenant.id)?.bytes;
    }
    let plain: u64 = inputs.tenants.iter().map(|t| t.plain_bytes()).sum();
    let db_expansion = accounted as f64 / plain as f64;

    // --- Warm-up ---------------------------------------------------------
    let clients = (0..kind.clients())
        .map(|c| ClientState {
            script: Script::new(kind, seed, c),
            encrypt_rng: StdRng::seed_from_u64(seed ^ ((c as u64 + 1) << 48)),
            next_op: (c as u64) << 32,
        })
        .collect();
    let mut session = Session {
        inputs: &inputs,
        live,
        clients,
        limit: Limit::Rounds(if quick {
            1
        } else {
            WARMUP_OPS.div_ceil(kind.round_ops())
        }),
        quick,
        process_start,
    };
    let warm = session.window(1.0, false);
    if warm.iter().flat_map(|w| &w.records).any(|r| r.fatal) {
        return Err(MatchError::Internal("warm-up lost its connection"));
    }
    session.limit = limit;

    if trace {
        per_layer(session)
    } else {
        end_to_end(session, first_setup_s, db_expansion)
    }
}

/// The untraced run: one full window, the six end-to-end metrics.
fn end_to_end(
    mut session: Session<'_>,
    first_setup_s: f64,
    db_expansion: f64,
) -> Result<Outcome, MatchError> {
    let before = session.live.control.metrics()?;
    let windows = session.window(1.0, false);
    let after = session.live.control.metrics()?;
    let (attempted, failed) = tally(&windows, session.process_start);
    let rounds = round_stats(&windows, session.inputs.kind.round_ops());
    if rounds.is_empty() {
        return Err(MatchError::Internal("no round of the window completed"));
    }
    // Every client runs its rounds at once, so the clients' rates add.
    let qps = windows.len() as f64 / quiet_decile(rounds.iter().map(|r| r.secs_per_op).collect());
    let latency_p50_ms = quiet_decile(rounds.iter().map(|r| r.median_ms).collect());

    let mut latencies = match_latencies_ms(&windows);
    let correct = (attempted - failed) as f64;
    let busy_secs = windows.iter().flat_map(|w| &w.round_secs).sum::<f64>();
    let whole_window = vec![
        ("qps", windows.len() as f64 * correct / busy_secs),
        ("latency_p50_ms", percentile_of(&mut latencies, 0.50)),
        ("latency_p95_ms", percentile_of(&mut latencies, 0.95)),
        ("latency_p99_ms", percentile_of(&mut latencies, 0.99)),
    ];
    let (control_in, control_out) = control_overhead(&before)?;
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let wire_bytes_per_op = (delta(names::REACTOR_BYTES_IN) - control_in
        + delta(names::REACTOR_BYTES_OUT)
        - control_out)
        / attempted.max(1) as f64;
    let matches = latencies.len().max(1) as f64;
    let hom_adds_per_op = windows
        .iter()
        .flat_map(|w| &w.records)
        .map(|r| r.hom_adds as f64)
        .sum::<f64>()
        / matches;

    // The high-water mark is read before the remaining set-ups, each of
    // which leaves about a mebibyte behind: it belongs to one server and
    // its run.
    let peak_rss_mb = status_field("VmHWM:") / 1024.0;
    shut_down(session.live);
    let mut setup_s = vec![first_setup_s];
    let repeating = Instant::now();
    while !session.quick && (setup_s.len() < MIN_SETUPS || repeating.elapsed() < SETUP_SPAN) {
        let started = Instant::now();
        let live = set_up(session.inputs)?;
        setup_s.push(started.elapsed().as_secs_f64());
        shut_down(live);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", quiet_decile(setup_s)),
            ("qps", qps),
            ("latency_p50_ms", latency_p50_ms),
            ("peak_rss_mb", peak_rss_mb),
            ("wire_bytes_per_op", wire_bytes_per_op),
            ("db_expansion", db_expansion),
        ],
        whole_window,
        exact: vec![
            ("attempted", attempted as f64),
            ("match_ops", matches),
            ("wire_bytes_per_op", wire_bytes_per_op),
            ("db_expansion", db_expansion),
            ("core.hom_adds_per_op", hom_adds_per_op),
        ],
    })
}

/// The traced run: half a window with spans on every other round, then
/// the probe phase.
fn per_layer(mut session: Session<'_>) -> Result<Outcome, MatchError> {
    let reps = if session.quick { 5 } else { probe::REPS };
    let mut ping_us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        session.live.conns[0].client.ping()?;
        ping_us.push(started.elapsed().as_secs_f64() * 1e6);
    }

    let before = session.live.control.metrics()?;
    let cpu_before = process_cpu_ms();
    let windows = session.window(0.5, true);
    let cpu_after = process_cpu_ms();
    let after = session.live.control.metrics()?;
    let threads = status_field("Threads:");
    let (attempted, failed) = tally(&windows, session.process_start);
    shut_down(session.live);
    let ops = attempted.max(1) as f64;

    // Parent indices are per client thread, so span statistics are taken
    // thread by thread and pooled afterwards.
    let span_ms = |name: &str, own: bool| -> Vec<f64> {
        windows
            .iter()
            .flat_map(|w| {
                if own {
                    spans::self_ms(&w.spans, name)
                } else {
                    spans::durations_ms(&w.spans, name)
                }
            })
            .collect()
    };
    let call_ms = median_or_zero(&span_ms("client.call", false));
    let server_p50_us =
        |name: &str| p50_us(histogram_delta(&before, &after, name, &[("tag", "match")]));
    let server_latency_us = server_p50_us(names::SERVER_REQUEST_LATENCY_US);
    let (control_in, control_out) = control_overhead(&before)?;
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let per_kop = |name: &str| delta(name) * 1000.0 / ops;

    let matches = |pick: &dyn Fn(&OpRecord) -> bool| {
        latencies_of(&windows, |r| r.kind == OpKind::Match && r.ok && pick(r))
    };
    let (hot, cold) = (
        matches(&|r| r.resident_before == Some(true)),
        matches(&|r| r.resident_before == Some(false)),
    );
    let labelled = (hot.len() + cold.len()).max(1) as f64;
    let traced_p50 = percentile_of(&mut matches(&|r| r.traced), 0.5);
    let untraced_p50 = percentile_of(&mut matches(&|r| !r.traced), 0.5);
    let mean_of = |f: &dyn Fn(&OpRecord) -> f64| {
        let picked: Vec<f64> = windows
            .iter()
            .flat_map(|w| &w.records)
            .filter(|r| r.kind == OpKind::Match && r.ok)
            .map(f)
            .collect();
        picked.iter().sum::<f64>() / picked.len().max(1) as f64
    };
    let kind_ms =
        |kind: OpKind| median_or_zero(&latencies_of(&windows, |r| r.kind == kind && r.ok));

    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("core.hom_adds_per_op", mean_of(&|r| r.hom_adds as f64)),
        (
            "exec.queue_wait_us_p50",
            p50_us(histogram_delta(
                &before,
                &after,
                names::EXEC_QUEUE_WAIT_US,
                &[("pool", "frames")],
            )),
        ),
        (
            "client.encrypt_ms",
            median_or_zero(&span_ms("client.encrypt", false)),
        ),
        ("client.call_ms_p50", call_ms),
        ("server.request_latency_us_p50", server_latency_us),
        (
            "server.queue_wait_us_p50",
            server_p50_us(names::SERVER_QUEUE_WAIT_US),
        ),
        (
            "server.serve_time_us_p50",
            server_p50_us(names::SERVER_SERVE_TIME_US),
        ),
        ("shard.imbalance", mean_of(&|r| r.shard_imbalance)),
        ("net.unaccounted_ms_p50", call_ms - server_latency_us / 1e3),
        ("reactor.ping_rtt_us_p50", median(&ping_us)),
        (
            "reactor.bytes_in_per_op",
            (delta(names::REACTOR_BYTES_IN) - control_in) / ops,
        ),
        (
            "reactor.bytes_out_per_op",
            (delta(names::REACTOR_BYTES_OUT) - control_out) / ops,
        ),
        ("registry.upload_ms_p50", kind_ms(OpKind::Upload)),
        ("registry.evict_ms_p50", kind_ms(OpKind::Evict)),
        ("churn.match_hot_ms_p50", median_or_zero(&hot)),
        ("churn.match_cold_ms_p50", median_or_zero(&cold)),
        ("churn.cold_share", cold.len() as f64 / labelled),
        ("registry.demotions", per_kop(names::REGISTRY_DEMOTIONS)),
        (
            "registry.rematerializations",
            per_kop(names::REGISTRY_REMATERIALIZATIONS),
        ),
        ("registry.cold_hits", per_kop(names::REGISTRY_COLD_HITS)),
        (
            "registry.flash_wear_pages",
            per_kop(names::REGISTRY_FLASH_WEAR),
        ),
        ("proc.cpu_ms_per_op", (cpu_after - cpu_before) / ops),
        ("proc.threads_peak", threads),
        (
            "proc.latency_p95_ms",
            percentile_of(&mut matches(&|_| true), 0.95),
        ),
        (
            "trace.overhead_pct",
            // A window of a single round has no untraced operations.
            if untraced_p50.is_nan() {
                0.0
            } else {
                (traced_p50 - untraced_p50) / untraced_p50 * 100.0
            },
        ),
        (
            "trace.unattributed_ms_p50",
            median_or_zero(&span_ms("op.match", true)),
        ),
    ];

    metrics.extend(probe::layers(reps));
    metrics.push((
        "registry.run_query_ms_p50",
        probe::run_query_ms(session.inputs, reps)?,
    ));
    let flash_adds = metrics
        .iter()
        .find(|(name, _)| *name == "flash.bop_adds_per_op")
        .map_or(0.0, |(_, v)| *v);

    let threads: Vec<Vec<Span>> = windows.into_iter().map(|w| w.spans).collect();
    write_out(
        &format!("trace-{}.json", session.inputs.kind.name()),
        &spans::to_json(&threads),
    );
    Ok(Outcome {
        attempted,
        failed,
        exact: vec![("flash.bop_adds_per_op", flash_adds)],
        whole_window: Vec::new(),
        metrics,
    })
}

/// Operations attempted and failed in a window; a run that hit the wall
/// cap counts as one more failure so that it cannot report `correct`.
fn tally(windows: &[ConnWindow], process_start: Instant) -> (u64, u64) {
    let attempted = windows.iter().map(|w| w.records.len() as u64).sum();
    let mut failed = windows
        .iter()
        .flat_map(|w| &w.records)
        .filter(|r| !r.ok)
        .count() as u64;
    if process_start.elapsed() > RUN_CAP {
        eprintln!("workload exceeded {RUN_CAP:?} of wall time: aborted");
        failed += 1;
    }
    (attempted, failed)
}

/// Closes the clients, then stops the server and waits for its threads.
fn shut_down(live: Live) {
    let Live {
        server,
        conns,
        control,
    } = live;
    drop(conns);
    drop(control);
    server.shutdown();
}

/// Writes `value` to `out/<name>` beside this crate's manifest, which is
/// inside the checkout the binary was built in. A failure is reported,
/// not fatal: the result line on stdout is the contract, the files are
/// evidence.
pub fn write_out(name: &str, value: &Json) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(name), format!("{value}\n")));
    if let Err(error) = written {
        eprintln!("could not write {}: {error}", dir.join(name).display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, ms: u64, ok: bool) -> OpRecord {
        OpRecord {
            kind,
            ok,
            fatal: false,
            latency_ns: ms * 1_000_000,
            traced: false,
            resident_before: None,
            hom_adds: 0,
            shard_imbalance: 1.0,
        }
    }

    /// A window of `rounds` rounds of three Match operations and one
    /// upload, each round's operations `ms[round]` long.
    fn window(ms: &[u64]) -> ConnWindow {
        let mut records = Vec::new();
        for &ms in ms {
            records.extend([op(OpKind::Match, ms, true); 3]);
            records.push(op(OpKind::Upload, ms, true));
        }
        ConnWindow {
            records,
            round_secs: ms.iter().map(|&ms| 4.0 * ms as f64 / 1e3).collect(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn round_statistics_take_the_quiet_decile_over_every_clients_rounds() {
        // Two clients, ten rounds each; sixteen of the twenty rounds are
        // slowed from 10 ms per operation to 25–40 ms by somebody else.
        let quiet = [10, 25, 40, 25, 40, 25, 40, 25, 40, 10];
        let mut windows = vec![window(&quiet), window(&quiet)];
        let rounds = round_stats(&windows, 4);
        assert_eq!(rounds.len(), 20);
        let secs_per_op = quiet_decile(rounds.iter().map(|r| r.secs_per_op).collect());
        assert_eq!(secs_per_op, 0.010);
        assert_eq!(
            quiet_decile(rounds.iter().map(|r| r.median_ms).collect()),
            10.0
        );

        // A failed Match sorts as +∞ in its round's median, and a failed
        // operation of any kind is no throughput.
        for record in &mut windows[0].records[..3] {
            record.ok = false;
        }
        let rounds = round_stats(&windows, 4);
        assert_eq!(rounds[0].median_ms, f64::INFINITY);
        assert_eq!(rounds[0].secs_per_op, 0.040);

        // An aborted window's last, incomplete round is left out.
        windows[1].records.truncate(38);
        windows[1].round_secs.truncate(9);
        assert_eq!(round_stats(&windows, 4).len(), 19);
    }
}
