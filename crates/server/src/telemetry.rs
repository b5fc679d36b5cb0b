//! Server-side telemetry: one [`MetricsRegistry`] shared by the reactor
//! event loop, the frame pool, the tenant registry, and the dispatch
//! path, plus the per-request-tag handles the pump records into.
//!
//! Every handle is pre-registered at construction, so the request hot
//! path touches only lock-free atomics — the single exception is the
//! per-tenant counter cache, which takes one short mutex'd hash lookup
//! per match query to map a tenant id to its labeled counter.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cm_telemetry::{
    metric_names, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Trace,
};

/// `tag` label values, indexed by the request's wire tag
/// ([`Request::tag`](crate::wire::Request::tag)), plus `invalid` for
/// frames that fail [`Request::decode`](crate::wire::Request::decode).
pub(crate) const REQUEST_TAGS: [&str; 9] = [
    "ping",
    "list_tenants",
    "match",
    "tenant_stats",
    "load_database",
    "evict_database",
    "database_info",
    "metrics",
    "invalid",
];

/// Index into [`REQUEST_TAGS`] for frames that failed to decode.
pub(crate) const TAG_INVALID: usize = REQUEST_TAGS.len() - 1;

/// Shortest interval the derived `Hom-Add` throughput gauge will divide
/// by. A snapshot taken sooner keeps the previous value: a near-zero
/// denominator turns a handful of adds into a nonsense spike, and the
/// very first snapshot would divide the whole startup total by
/// microseconds.
const MIN_RATE_INTERVAL: Duration = Duration::from_millis(10);

/// Where the last throughput computation left off: the `hom_adds_total`
/// reading and the instant it was taken, so the next snapshot derives a
/// rate over the *interval* instead of the whole uptime (which turns
/// long-idle servers' gauges into stale averages).
struct RateWindow {
    at: Instant,
    total: u64,
}

/// The four per-request-tag series.
struct PerTag {
    requests: Counter,
    latency: Histogram,
    queue_wait: Histogram,
    serve_time: Histogram,
}

/// One serving process's telemetry: the registry every layer registers
/// into, and the serving-path handles recorded by the front-end and
/// pump.
pub(crate) struct ServerTelemetry {
    registry: MetricsRegistry,
    per_tag: Vec<PerTag>,
    inflight: Gauge,
    busy_sockets: Counter,
    busy_frames: Counter,
    upload_bytes: Counter,
    /// Per-request `Hom-Add` volume — CM-SW's whole compute profile.
    hom_adds: Histogram,
    hom_adds_total: Counter,
    /// Derived at snapshot time: adds since the previous snapshot over
    /// the interval, guarded by [`MIN_RATE_INTERVAL`].
    hom_adds_per_sec: Gauge,
    rate_window: Mutex<RateWindow>,
    /// Per-tenant match counters, created on first query for the tenant.
    tenant_requests: Mutex<HashMap<String, Counter>>,
    slow_query_micros: Option<u64>,
}

impl std::fmt::Debug for ServerTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerTelemetry")
            .field("registry", &self.registry)
            .finish()
    }
}

impl ServerTelemetry {
    /// Builds the telemetry for one server.
    pub(crate) fn new(slow_query_micros: Option<u64>) -> Self {
        let registry = MetricsRegistry::new();
        let per_tag = REQUEST_TAGS
            .iter()
            .map(|tag| PerTag {
                requests: registry.register_counter(metric_names::SERVER_REQUESTS, &[("tag", tag)]),
                latency: registry
                    .register_histogram(metric_names::SERVER_REQUEST_LATENCY_US, &[("tag", tag)]),
                queue_wait: registry
                    .register_histogram(metric_names::SERVER_QUEUE_WAIT_US, &[("tag", tag)]),
                serve_time: registry
                    .register_histogram(metric_names::SERVER_SERVE_TIME_US, &[("tag", tag)]),
            })
            .collect();
        Self {
            per_tag,
            inflight: registry.register_gauge(metric_names::SERVER_INFLIGHT_FRAMES, &[]),
            busy_sockets: registry
                .register_counter(metric_names::SERVER_BUSY_REJECTIONS, &[("cap", "sockets")]),
            busy_frames: registry
                .register_counter(metric_names::SERVER_BUSY_REJECTIONS, &[("cap", "frames")]),
            upload_bytes: registry.register_counter(metric_names::SERVER_UPLOAD_BYTES, &[]),
            hom_adds: registry.register_histogram(metric_names::SERVER_HOM_ADDS, &[]),
            hom_adds_total: registry.register_counter(metric_names::SERVER_HOM_ADDS_TOTAL, &[]),
            hom_adds_per_sec: registry.register_gauge(metric_names::SERVER_HOM_ADDS_PER_SEC, &[]),
            rate_window: Mutex::new(RateWindow {
                at: Instant::now(),
                total: 0,
            }),
            tenant_requests: Mutex::new(HashMap::new()),
            slow_query_micros,
            registry,
        }
    }

    /// The registry the reactor, pools, and tenant registry share.
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Counts a typed `ServerBusy` rejection at the socket cap.
    pub(crate) fn count_socket_rejection(&self) {
        self.busy_sockets.inc();
    }

    /// Counts a typed `ServerBusy` rejection at the in-flight-frame cap.
    pub(crate) fn count_frame_rejection(&self) {
        self.busy_frames.inc();
    }

    /// Tracks the admitted-but-unanswered frame gauge alongside the
    /// front-end's own atomic count.
    pub(crate) fn inflight_add(&self, delta: i64) {
        self.inflight.add(delta);
    }

    /// Counts accepted upload chunk payload bytes.
    pub(crate) fn count_upload_bytes(&self, bytes: u64) {
        self.upload_bytes.add(bytes);
    }

    /// Records one match query's `Hom-Add` volume: the per-request
    /// histogram and the monotone total the throughput gauge derives
    /// from.
    pub(crate) fn record_hom_adds(&self, adds: u64) {
        self.hom_adds.record(adds);
        self.hom_adds_total.add(adds);
    }

    /// A point-in-time copy of every registered series, with the derived
    /// `Hom-Add` throughput gauge refreshed first so readers see adds/sec
    /// over the interval since the previous snapshot — not a whole-uptime
    /// average that a long idle gap dilutes toward zero, and never a
    /// near-zero denominator (the first snapshot used to divide the
    /// startup total by microseconds of uptime).
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.refresh_rate();
        self.registry.snapshot()
    }

    /// Recomputes `cm_server_hom_adds_per_sec` from the window since the
    /// last refresh. Within [`MIN_RATE_INTERVAL`] the gauge keeps its
    /// previous value and the window stays open, so rapid-fire snapshots
    /// neither spike the rate nor starve it.
    fn refresh_rate(&self) {
        let mut window = self
            .rate_window
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let now = Instant::now();
        let elapsed = now.duration_since(window.at);
        if elapsed < MIN_RATE_INTERVAL {
            return;
        }
        let total = self.hom_adds_total.value();
        let delta = total.saturating_sub(window.total);
        let rate = delta as f64 / elapsed.as_secs_f64();
        self.hom_adds_per_sec.set(rate as i64);
        window.at = now;
        window.total = total;
    }

    /// Records one answered frame: the per-tag request count and
    /// latency/queue-wait/serve-time histograms, the per-tenant counter
    /// for match queries, and — when configured — the slow-query stderr
    /// line. Call with every stage already marked on `trace`.
    pub(crate) fn record_frame(&self, tag: usize, trace: &Trace, tenant: Option<&str>) {
        let Some(per) = self.per_tag.get(tag) else {
            return;
        };
        per.requests.inc();
        if let Some(total) = trace.total() {
            per.latency.record_micros(total);
        }
        if let Some(wait) = trace.queue_wait() {
            per.queue_wait.record_micros(wait);
        }
        if let Some(serve) = trace.serve_time() {
            per.serve_time.record_micros(serve);
        }
        if let Some(tenant) = tenant {
            self.tenant_counter(tenant).inc();
        }
        if let Some(limit) = self.slow_query_micros {
            let total_us = trace.total().map_or(0, |t| t.as_micros() as u64);
            if total_us >= limit {
                // Structured, greppable, one line per slow request.
                eprintln!(
                    "slow_query id={} tag={} tenant={} total_us={} {}",
                    trace.id(),
                    REQUEST_TAGS.get(tag).unwrap_or(&"invalid"),
                    tenant.unwrap_or("-"),
                    total_us,
                    trace.stage_summary(),
                );
            }
        }
    }

    fn tenant_counter(&self, tenant: &str) -> Counter {
        let mut cache = self
            .tenant_requests
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(counter) = cache.get(tenant) {
            return counter.clone();
        }
        let counter = self
            .registry
            .register_counter(metric_names::SERVER_TENANT_REQUESTS, &[("tenant", tenant)]);
        cache.insert(tenant.to_string(), counter.clone());
        counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_snapshot_within_the_guard_window_is_not_a_spike() {
        let telemetry = ServerTelemetry::new(None);
        // A burst lands immediately after startup; the old
        // total-over-uptime derivation divided it by microseconds.
        telemetry.record_hom_adds(1_000_000);
        telemetry.snapshot();
        assert_eq!(
            telemetry.hom_adds_per_sec.value(),
            0,
            "a snapshot inside the guard window must keep the seed value"
        );
    }

    #[test]
    fn rate_is_windowed_and_idle_gaps_decay_to_zero() {
        let telemetry = ServerTelemetry::new(None);
        telemetry.record_hom_adds(50_000);
        std::thread::sleep(MIN_RATE_INTERVAL * 2);
        telemetry.snapshot();
        let busy = telemetry.hom_adds_per_sec.value();
        assert!(busy > 0, "a real interval with adds must show a rate");
        // An immediate re-snapshot sits inside the guard window: the
        // gauge holds, rather than dividing ~0 adds by ~0 seconds.
        telemetry.snapshot();
        assert_eq!(telemetry.hom_adds_per_sec.value(), busy);
        // After an idle window the rate is the *current* throughput
        // (zero), not a whole-uptime average that merely shrinks.
        std::thread::sleep(MIN_RATE_INTERVAL * 2);
        telemetry.snapshot();
        assert_eq!(telemetry.hom_adds_per_sec.value(), 0);
    }
}
