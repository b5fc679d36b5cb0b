//! Lock-free observability for the serving stack: a [`MetricsRegistry`]
//! of named counters, gauges, and fixed-bucket log₂ histograms, plus a
//! per-frame [`Trace`] that separates queue wait from serve time.
//!
//! Design constraints, in order:
//!
//! * **The hot path never locks.** Registering a metric takes a mutex
//!   (once, at setup or first sight of a label value); recording into
//!   one is a relaxed atomic add. Handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]) are cheap clones that can be stashed in every layer.
//! * **Recording is measured, not switchable.** A registry always
//!   records; the only no-op handle is a handle's own `Default`, for
//!   layers built without a registry. What recording costs a traced
//!   Match is measured end to end, as `benchmark/`'s
//!   `trace.overhead_pct`.
//! * **No dependencies.** Only `std`; the crate sits below `cm_core`,
//!   `cm_reactor`, and `cm_server` in the workspace graph.
//!
//! Histograms are log₂ octaves refined by 8 linear sub-buckets
//! (HDR-style): relative bucket width is at most 12.5%, so a midpoint
//! quantile estimate is within ~6.25% of the true value — tight enough
//! that server-side p50/p99 can be cross-checked against client-side
//! stopwatches (the acceptance bound is 10%). Buckets are u64 counts and
//! merge by addition, so per-shard or per-process histograms aggregate
//! exactly ([`HistogramSample::merge`] is associative and commutative;
//! proptested in `tests/histograms.rs`).
//!
//! Every metric name in the workspace lives in [`metric_names`] — the
//! `metric-names` lint rule rejects ad-hoc name literals at
//! registration sites and duplicate values in the table.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub mod metric_names;

// ---------------------------------------------------------------------------
// Histogram bucket geometry
// ---------------------------------------------------------------------------

/// Linear sub-buckets per log₂ octave (8 → ≤12.5% relative width).
const SUB_BUCKETS: usize = 8;

/// Total bucket count: indices 0–7 are exact (values 0–7), then 8 per
/// octave for the 61 octaves up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 62 * SUB_BUCKETS;

/// Maps a recorded value to its bucket index. Monotone non-decreasing
/// in `v` (proptested), total over all of `u64`.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (msb - 3)) & 7) as usize;
        (msb - 2) * SUB_BUCKETS + sub
    }
}

/// The smallest value that lands in bucket `index`.
pub fn bucket_lo(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        index as u64
    } else {
        let msb = index / SUB_BUCKETS + 2;
        let sub = (index % SUB_BUCKETS) as u64;
        (1u64 << msb) | (sub << (msb - 3))
    }
}

/// The width of bucket `index`: `bucket_lo(index) + bucket_width(index)`
/// is the exclusive upper bound (saturating at `u64::MAX`).
pub fn bucket_width(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        1
    } else {
        1u64 << (index / SUB_BUCKETS + 2 - 3)
    }
}

// ---------------------------------------------------------------------------
// Recording handles
// ---------------------------------------------------------------------------

/// A monotone counter handle. Cloning shares the underlying cell; the
/// default value is a no-op handle that records nothing.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value (0 for a no-op handle).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(c) => write!(f, "Counter({})", c.load(Ordering::Relaxed)),
            None => f.write_str("Counter(disabled)"),
        }
    }
}

/// A gauge handle: a signed value that can move both ways. The default
/// value is a no-op handle.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Moves the gauge by `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value (0 for a no-op handle).
    pub fn value(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(c) => write!(f, "Gauge({})", c.load(Ordering::Relaxed)),
            None => f.write_str("Gauge(disabled)"),
        }
    }
}

/// The shared cells behind one histogram.
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-bucket log₂ histogram handle. The default value is a no-op
/// handle.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation of `v` (three relaxed atomic adds).
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            core.count.fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Records `d` as whole microseconds (the workspace's latency unit).
    pub fn record_micros(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// The number of recorded observations (0 for a no-op handle).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(c) => write!(f, "Histogram(count={})", c.count.load(Ordering::Relaxed)),
            None => f.write_str("Histogram(disabled)"),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One registered metric's identity: name plus sorted labels.
#[derive(Clone, PartialEq, Eq, Hash)]
struct MetricKey {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

enum MetricCell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

struct RegistryState {
    by_key: HashMap<MetricKey, usize>,
    metrics: Vec<(MetricKey, MetricCell)>,
}

/// The process-wide metric registry. Cloning shares the registry.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryState>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(RegistryState {
                by_key: HashMap::new(),
                metrics: Vec::new(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RegistryState> {
        // A panic while holding the registry lock cannot corrupt the
        // state (all mutations are single push/insert), so poisoning is
        // recoverable.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn key(name: &'static str, labels: &[(&'static str, &str)]) -> MetricKey {
        let mut labels: Vec<(&'static str, String)> =
            labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
        labels.sort();
        MetricKey { name, labels }
    }

    /// Registers (or re-fetches) the counter `name` with `labels`.
    /// Registration on one (name, labels) pair is idempotent: every
    /// caller gets a handle to the same cell.
    pub fn register_counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        let key = Self::key(name, labels);
        let mut guard = self.lock();
        if let Some(&at) = guard.by_key.get(&key) {
            if let (_, MetricCell::Counter(cell)) = &guard.metrics[at] {
                return Counter(Some(Arc::clone(cell)));
            }
        }
        let cell = Arc::new(AtomicU64::new(0));
        let at = guard.metrics.len();
        guard
            .metrics
            .push((key.clone(), MetricCell::Counter(Arc::clone(&cell))));
        guard.by_key.insert(key, at);
        Counter(Some(cell))
    }

    /// Registers (or re-fetches) the gauge `name` with `labels`.
    pub fn register_gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        let key = Self::key(name, labels);
        let mut guard = self.lock();
        if let Some(&at) = guard.by_key.get(&key) {
            if let (_, MetricCell::Gauge(cell)) = &guard.metrics[at] {
                return Gauge(Some(Arc::clone(cell)));
            }
        }
        let cell = Arc::new(AtomicI64::new(0));
        let at = guard.metrics.len();
        guard
            .metrics
            .push((key.clone(), MetricCell::Gauge(Arc::clone(&cell))));
        guard.by_key.insert(key, at);
        Gauge(Some(cell))
    }

    /// Registers (or re-fetches) the histogram `name` with `labels`.
    pub fn register_histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Histogram {
        let key = Self::key(name, labels);
        let mut guard = self.lock();
        if let Some(&at) = guard.by_key.get(&key) {
            if let (_, MetricCell::Histogram(core)) = &guard.metrics[at] {
                return Histogram(Some(Arc::clone(core)));
            }
        }
        let core = Arc::new(HistogramCore::new());
        let at = guard.metrics.len();
        guard
            .metrics
            .push((key.clone(), MetricCell::Histogram(Arc::clone(&core))));
        guard.by_key.insert(key, at);
        Histogram(Some(core))
    }

    /// A point-in-time copy of every registered metric, sorted by
    /// (name, labels) so snapshots are stable across calls.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let guard = self.lock();
        for (key, cell) in &guard.metrics {
            let labels: Vec<(String, String)> = key
                .labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect();
            match cell {
                MetricCell::Counter(c) => snap.counters.push(CounterSample {
                    name: key.name.to_string(),
                    labels,
                    value: c.load(Ordering::Relaxed),
                }),
                MetricCell::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: key.name.to_string(),
                    labels,
                    value: g.load(Ordering::Relaxed),
                }),
                MetricCell::Histogram(h) => {
                    let buckets: Vec<(u32, u64)> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter_map(|(i, b)| {
                            let n = b.load(Ordering::Relaxed);
                            (n > 0).then_some((i as u32, n))
                        })
                        .collect();
                    snap.histograms.push(HistogramSample {
                        name: key.name.to_string(),
                        labels,
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        buckets,
                    });
                }
            }
        }
        drop(guard);
        snap.counters
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap.gauges
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap.histograms
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap
    }

    /// Renders the current state as Prometheus-style text exposition
    /// (`name{label="v"} value` lines; histograms expand to cumulative
    /// `_bucket{le="…"}` lines plus `_count` and `_sum`).
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRegistry({} metrics)", self.lock().metrics.len())
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// One counter's point-in-time value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// The registered metric name (a [`metric_names`] constant).
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// The counter value.
    pub value: u64,
}

/// One gauge's point-in-time value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    /// The registered metric name (a [`metric_names`] constant).
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// The gauge value.
    pub value: i64,
}

/// One histogram's point-in-time state, with only the occupied buckets
/// (sparse `(bucket_index, count)` pairs, ascending by index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// The registered metric name (a [`metric_names`] constant).
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// `(bucket_index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSample {
    /// Folds `other` into `self` bucket-wise. Addition of sparse bucket
    /// vectors is associative and commutative (proptested), so
    /// per-shard histograms aggregate exactly in any order.
    pub fn merge(&mut self, other: &HistogramSample) {
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: Vec<(u32, u64)> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia == ib {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    } else if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else {
                        merged.push((ib, nb));
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }

    /// The `q`-quantile (0.0 ≤ q ≤ 1.0) as a bucket-midpoint estimate,
    /// within the bucket's half-width (≤ ~6.25%) of the true value.
    /// `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let index = index as usize;
                return Some(bucket_lo(index).saturating_add(bucket_width(index) / 2));
            }
        }
        // count says there are observations the buckets don't show —
        // only possible on a hand-built sample; answer the top bucket.
        self.buckets
            .last()
            .map(|&(i, _)| bucket_lo(i as usize).saturating_add(bucket_width(i as usize) / 2))
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`] — the payload of
/// the `Request::Metrics` wire round trip.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Every counter, sorted by (name, labels).
    pub counters: Vec<CounterSample>,
    /// Every gauge, sorted by (name, labels).
    pub gauges: Vec<GaugeSample>,
    /// Every histogram, sorted by (name, labels).
    pub histograms: Vec<HistogramSample>,
}

fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    want.iter()
        .all(|(k, v)| have.iter().any(|(hk, hv)| hk == k && hv == v))
}

impl MetricsSnapshot {
    /// The value of the counter `name` whose labels include every pair
    /// in `labels` (summed over matches; `None` if nothing matches).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let mut hit = false;
        let mut total = 0;
        for c in &self.counters {
            if c.name == name && labels_match(&c.labels, labels) {
                hit = true;
                total += c.value;
            }
        }
        hit.then_some(total)
    }

    /// The value of the gauge `name` whose labels include every pair in
    /// `labels` (first match).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && labels_match(&g.labels, labels))
            .map(|g| g.value)
    }

    /// The histogram `name` whose labels include every pair in `labels`
    /// (first match).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSample> {
        self.histograms
            .iter()
            .find(|h| h.name == name && labels_match(&h.labels, labels))
    }

    /// Prometheus-style text exposition of this snapshot.
    pub fn render_text(&self) -> String {
        fn label_block(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
            if labels.is_empty() && extra.is_none() {
                return;
            }
            out.push('{');
            let mut first = true;
            for (k, v) in labels {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(k);
                out.push_str("=\"");
                for ch in v.chars() {
                    match ch {
                        '\\' => out.push_str("\\\\"),
                        '"' => out.push_str("\\\""),
                        '\n' => out.push_str("\\n"),
                        _ => out.push(ch),
                    }
                }
                out.push('"');
            }
            if let Some((k, v)) = extra {
                if !first {
                    out.push(',');
                }
                out.push_str(k);
                out.push_str("=\"");
                out.push_str(v);
                out.push('"');
            }
            out.push('}');
        }

        let mut out = String::new();
        for c in &self.counters {
            out.push_str(&c.name);
            label_block(&mut out, &c.labels, None);
            out.push(' ');
            out.push_str(&c.value.to_string());
            out.push('\n');
        }
        for g in &self.gauges {
            out.push_str(&g.name);
            label_block(&mut out, &g.labels, None);
            out.push(' ');
            out.push_str(&g.value.to_string());
            out.push('\n');
        }
        for h in &self.histograms {
            let mut cumulative = 0u64;
            for &(index, n) in &h.buckets {
                cumulative += n;
                let index = index as usize;
                let le = bucket_lo(index).saturating_add(bucket_width(index) - 1);
                out.push_str(&h.name);
                out.push_str("_bucket");
                label_block(&mut out, &h.labels, Some(("le", &le.to_string())));
                out.push(' ');
                out.push_str(&cumulative.to_string());
                out.push('\n');
            }
            out.push_str(&h.name);
            out.push_str("_bucket");
            label_block(&mut out, &h.labels, Some(("le", "+Inf")));
            out.push(' ');
            out.push_str(&h.count.to_string());
            out.push('\n');
            out.push_str(&h.name);
            out.push_str("_count");
            label_block(&mut out, &h.labels, None);
            out.push(' ');
            out.push_str(&h.count.to_string());
            out.push('\n');
            out.push_str(&h.name);
            out.push_str("_sum");
            label_block(&mut out, &h.labels, None);
            out.push(' ');
            out.push_str(&h.sum.to_string());
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Per-frame tracing
// ---------------------------------------------------------------------------

/// The stages a request frame passes through on the serving path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The reactor front-end admitted the frame (trace birth).
    Admitted,
    /// A pump worker dequeued the frame off its connection queue.
    Dequeued,
    /// The request payload decoded into a typed `Request`.
    Decoded,
    /// Dispatch finished: the matcher (or lifecycle op) has answered.
    Matched,
    /// The reply frame was handed to the reactor for writing.
    Replied,
}

/// Number of [`Stage`] variants.
const STAGES: usize = 5;

impl Stage {
    fn index(self) -> usize {
        match self {
            Stage::Admitted => 0,
            Stage::Dequeued => 1,
            Stage::Decoded => 2,
            Stage::Matched => 3,
            Stage::Replied => 4,
        }
    }

    /// The stage's lowercase wire/log name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admitted => "admitted",
            Stage::Dequeued => "dequeued",
            Stage::Decoded => "decoded",
            Stage::Matched => "matched",
            Stage::Replied => "replied",
        }
    }
}

/// Process-global trace-id mint.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// A lightweight per-frame trace: a process-unique id plus one
/// monotonic timestamp per [`Stage`], born when the reactor admits a
/// frame and carried through the pump job into dispatch. Queue wait
/// (admitted → dequeued) and serve time (decoded → matched) fall out as
/// differences — no clock reads beyond one `Instant` per stage.
#[derive(Debug, Clone)]
pub struct Trace {
    id: u64,
    start: Instant,
    marks: [Option<Duration>; STAGES],
}

impl Trace {
    /// Mints a new trace with [`Stage::Admitted`] marked now.
    pub fn begin() -> Self {
        let mut marks = [None; STAGES];
        marks[Stage::Admitted.index()] = Some(Duration::ZERO);
        Self {
            id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            marks,
        }
    }

    /// The process-unique request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Marks `stage` at the current instant (first mark wins).
    pub fn mark(&mut self, stage: Stage) {
        let slot = &mut self.marks[stage.index()];
        if slot.is_none() {
            *slot = Some(self.start.elapsed());
        }
    }

    /// Elapsed time from `from` to `to`, if both stages were marked.
    pub fn between(&self, from: Stage, to: Stage) -> Option<Duration> {
        let a = self.marks[from.index()]?;
        let b = self.marks[to.index()]?;
        Some(b.saturating_sub(a))
    }

    /// Admitted → dequeued: how long the frame waited for a pump slot.
    pub fn queue_wait(&self) -> Option<Duration> {
        self.between(Stage::Admitted, Stage::Dequeued)
    }

    /// Decoded → matched: pure dispatch/matcher time.
    pub fn serve_time(&self) -> Option<Duration> {
        self.between(Stage::Admitted, Stage::Matched)
            .and(self.between(Stage::Decoded, Stage::Matched))
    }

    /// Admitted → replied: the frame's full server-side latency.
    pub fn total(&self) -> Option<Duration> {
        self.between(Stage::Admitted, Stage::Replied)
    }

    /// `stage=<µs>` pairs for every marked stage, for slow-query lines.
    pub fn stage_summary(&self) -> String {
        let mut out = String::new();
        for stage in [
            Stage::Admitted,
            Stage::Dequeued,
            Stage::Decoded,
            Stage::Matched,
            Stage::Replied,
        ] {
            if let Some(at) = self.marks[stage.index()] {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(stage.name());
                out.push_str("_us=");
                out.push_str(&at.as_micros().to_string());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry_is_consistent() {
        for v in (0u64..4096).chain([u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 12345]) {
            let i = bucket_index(v);
            assert!(i < HISTOGRAM_BUCKETS, "index {i} for {v}");
            let lo = bucket_lo(i);
            let width = bucket_width(i);
            assert!(lo <= v, "lo {lo} > v {v}");
            assert!(
                v - lo < width,
                "v {v} outside bucket {i} = [{lo}, {lo}+{width})"
            );
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn counters_gauges_and_histograms_record() {
        let registry = MetricsRegistry::new();
        let c =
            registry.register_counter(metric_names::SERVER_BUSY_REJECTIONS, &[("cap", "frames")]);
        c.inc();
        c.add(2);
        let again =
            registry.register_counter(metric_names::SERVER_BUSY_REJECTIONS, &[("cap", "frames")]);
        again.inc();
        assert_eq!(c.value(), 4, "registration is idempotent, cells shared");

        let g = registry.register_gauge(metric_names::SERVER_INFLIGHT_FRAMES, &[]);
        g.add(3);
        g.add(-1);
        assert_eq!(g.value(), 2);
        g.set(7);

        let h = registry.register_histogram(metric_names::SERVER_SERVE_TIME_US, &[("tag", "m")]);
        for v in [1, 1, 100, 5000] {
            h.record(v);
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(metric_names::SERVER_BUSY_REJECTIONS, &[("cap", "frames")]),
            Some(4)
        );
        assert_eq!(
            snap.gauge(metric_names::SERVER_INFLIGHT_FRAMES, &[]),
            Some(7)
        );
        let hs = snap
            .histogram(metric_names::SERVER_SERVE_TIME_US, &[("tag", "m")])
            .unwrap();
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 5102);
        assert_eq!(hs.quantile(0.5), Some(1));
        let p100 = hs.quantile(1.0).unwrap();
        assert!((p100 as f64 - 5000.0).abs() / 5000.0 < 0.0625, "{p100}");
    }

    #[test]
    fn default_handles_are_no_ops() {
        let c = Counter::default();
        c.inc();
        assert_eq!(c.value(), 0);
        let g = Gauge::default();
        g.set(5);
        assert_eq!(g.value(), 0);
        let h = Histogram::default();
        h.record(9);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let registry = MetricsRegistry::new();
        registry
            .register_counter(metric_names::SERVER_BUSY_REJECTIONS, &[("cap", "frames")])
            .add(5);
        registry
            .register_gauge(metric_names::REGISTRY_HOT_BYTES, &[])
            .set(4096);
        let h = registry.register_histogram(metric_names::SERVER_QUEUE_WAIT_US, &[]);
        h.record(3);
        h.record(200);
        let text = registry.render_text();
        assert!(
            text.contains("cm_server_busy_rejections_total{cap=\"frames\"} 5"),
            "{text}"
        );
        assert!(text.contains("cm_registry_hot_bytes 4096"), "{text}");
        assert!(text.contains("cm_server_queue_wait_us_count 2"), "{text}");
        assert!(text.contains("cm_server_queue_wait_us_sum 203"), "{text}");
        assert!(text.contains("_bucket{le=\"+Inf\"} 2"), "{text}");
    }

    #[test]
    fn traces_separate_queue_wait_from_serve_time() {
        let mut t = Trace::begin();
        let mut u = Trace::begin();
        assert_ne!(t.id(), u.id(), "trace ids are process-unique");
        t.mark(Stage::Dequeued);
        std::thread::sleep(Duration::from_millis(2));
        t.mark(Stage::Decoded);
        t.mark(Stage::Matched);
        t.mark(Stage::Replied);
        let total = t.total().unwrap();
        let queue = t.queue_wait().unwrap();
        let serve = t.serve_time().unwrap();
        assert!(queue + serve <= total, "{queue:?} + {serve:?} > {total:?}");
        assert!(t.stage_summary().contains("matched_us="));
        u.mark(Stage::Dequeued);
        assert!(u.total().is_none(), "unreplied traces have no total");
    }

    #[test]
    fn snapshots_merge_histograms_exactly() {
        let registry = MetricsRegistry::new();
        let a = registry.register_histogram(metric_names::EXEC_RUN_TIME_US, &[("pool", "a")]);
        let b = registry.register_histogram(metric_names::EXEC_RUN_TIME_US, &[("pool", "b")]);
        for v in [1, 10, 100] {
            a.record(v);
        }
        for v in [10, 1000] {
            b.record(v);
        }
        let snap = registry.snapshot();
        let mut merged = snap
            .histogram(metric_names::EXEC_RUN_TIME_US, &[("pool", "a")])
            .unwrap()
            .clone();
        merged.merge(
            snap.histogram(metric_names::EXEC_RUN_TIME_US, &[("pool", "b")])
                .unwrap(),
        );
        assert_eq!(merged.count, 5);
        assert_eq!(merged.sum, 1121);
        assert_eq!(
            merged.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
            5,
            "bucket counts add"
        );
    }
}
