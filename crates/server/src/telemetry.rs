//! Server-side telemetry: one [`MetricsRegistry`] shared by the reactor
//! event loop, the frame pool, the tenant registry, and the dispatch
//! path, plus the per-request-tag handles the pump records into.
//!
//! Every handle is pre-registered at construction, so the request hot
//! path touches only lock-free atomics and the set of series never grows
//! while the server runs. Each series is the one place its fact is
//! counted: requests per tag are the latency histograms' counts, socket-cap
//! rejections are the reactor's `cm_reactor_rejects_total`, and per-tenant
//! query counts are the registry's, served by `TenantStats` and
//! `DatabaseInfo`.

use cm_telemetry::{metric_names, Counter, Gauge, Histogram, MetricsRegistry, Trace};

use crate::wire::Request;

/// `tag` label values, indexed by the request's wire tag
/// ([`Request::tag`](crate::wire::Request::tag)), plus `invalid` for
/// frames that fail [`Request::decode`](crate::wire::Request::decode).
const REQUEST_TAGS: [&str; 9] = [
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
const TAG_INVALID: usize = REQUEST_TAGS.len() - 1;

/// The three per-request-tag histograms.
struct PerTag {
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
    busy_frames: Counter,
    upload_bytes: Counter,
    /// Per-request `Hom-Add` volume — CM-SW's whole compute profile.
    hom_adds: Histogram,
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
            busy_frames: registry
                .register_counter(metric_names::SERVER_BUSY_REJECTIONS, &[("cap", "frames")]),
            upload_bytes: registry.register_counter(metric_names::SERVER_UPLOAD_BYTES, &[]),
            hom_adds: registry.register_histogram(metric_names::SERVER_HOM_ADDS, &[]),
            slow_query_micros,
            registry,
        }
    }

    /// The registry the reactor, pools, and tenant registry share.
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
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

    /// Records one match query's `Hom-Add` volume.
    pub(crate) fn record_hom_adds(&self, adds: u64) {
        self.hom_adds.record(adds);
    }

    /// Records one answered frame — `request` is `None` when it failed
    /// to decode: the per-tag latency/queue-wait/serve-time histograms
    /// and, when configured, the slow-query stderr line. Call with every
    /// stage already marked on `trace`.
    pub(crate) fn record_frame(&self, trace: &Trace, request: Option<&Request>) {
        let tag = request.map_or(TAG_INVALID, |r| usize::from(r.tag()));
        let Some(per) = self.per_tag.get(tag) else {
            return;
        };
        if let Some(total) = trace.total() {
            per.latency.record_micros(total);
        }
        if let Some(wait) = trace.queue_wait() {
            per.queue_wait.record_micros(wait);
        }
        if let Some(serve) = trace.serve_time() {
            per.serve_time.record_micros(serve);
        }
        if let Some(limit) = self.slow_query_micros {
            let total_us = trace.total().map_or(0, |t| t.as_micros() as u64);
            if total_us >= limit {
                // Structured, greppable, one line per slow request.
                eprintln!(
                    "slow_query id={} tag={} tenant={} total_us={} {}",
                    trace.id(),
                    REQUEST_TAGS.get(tag).unwrap_or(&"invalid"),
                    request.and_then(Request::tenant).unwrap_or("-"),
                    total_us,
                    trace.stage_summary(),
                );
            }
        }
    }
}
