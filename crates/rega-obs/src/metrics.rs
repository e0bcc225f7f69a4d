//! Lock-free metric handles and the named registry that owns them.
//!
//! A [`Counter`], [`Gauge`], or [`Histogram`] is a cheap cloneable handle
//! (an `Arc` around relaxed atomics): producers keep clones on their hot
//! paths, the [`Registry`] keeps one more for snapshotting, and nothing
//! ever takes a lock after registration. Metrics never synchronize data —
//! they only count — so every access uses `Ordering::Relaxed`.

use serde_json::{json, Value as Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotonically increasing counter (plus `set` for mirroring an
/// external running total, e.g. a cache's own hit count).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (absolute store — used when an external source
    /// owns the running total, so replays cannot double-count).
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeInner {
    value: AtomicU64,
    peak: AtomicU64,
}

/// An up/down gauge with a high-water mark. Decrements saturate at zero
/// rather than wrapping, so replayed teardown events can never poison the
/// reading.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments and updates the peak.
    pub fn inc(&self) {
        let now = self.0.value.fetch_add(1, Ordering::Relaxed) + 1;
        self.0.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Decrements, saturating at zero.
    pub fn dec(&self) {
        let _ = self
            .0
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(1))
            });
    }

    /// Overwrites the value and updates the peak.
    pub fn set(&self, n: u64) {
        self.0.value.store(n, Ordering::Relaxed);
        self.0.peak.fetch_max(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The highest value ever observed.
    pub fn peak(&self) -> u64 {
        self.0.peak.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two latency buckets: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` nanoseconds; the last bucket is unbounded (≥ ~33 ms).
const BUCKETS: usize = 26;

#[derive(Debug, Default)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    /// Largest sample ever recorded, so quantile upper bounds can be
    /// clamped to reality instead of reporting the unbounded bucket's
    /// fictitious ceiling.
    max_ns: AtomicU64,
}

/// A coarse base-2 histogram of durations.
///
/// Quantiles report the upper bound of the bucket containing the rank,
/// clamped to the largest recorded sample — the unbounded final bucket can
/// therefore never inject a fictitious `2^63` ns (~292 years) into a p99
/// summary. Samples that did land in the unbounded bucket are flagged via
/// [`Histogram::saturated`] and the snapshot's `saturated` field instead.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration (saturating at `u64::MAX` nanoseconds).
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one duration given directly in nanoseconds (the form
    /// injectable clocks produce).
    pub fn record_ns(&self, ns: u64) {
        let idx = (64 - ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether any sample landed in the unbounded final bucket (≥ 2^25
    /// ns): quantiles falling there are bucket-resolution-free and only
    /// bounded by the recorded maximum.
    pub fn saturated(&self) -> bool {
        self.0.buckets[BUCKETS - 1].load(Ordering::Relaxed) > 0
    }

    /// The largest recorded sample in nanoseconds (0 with no samples).
    pub fn max_ns(&self) -> u64 {
        self.0.max_ns.load(Ordering::Relaxed)
    }

    /// An approximate quantile in nanoseconds: the upper bound of the
    /// bucket containing the rank, clamped to the largest recorded sample.
    /// Returns 0 with no samples.
    pub fn approx_quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let max_ns = self.max_ns();
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return (1u64 << (i + 1).min(63)).min(max_ns);
            }
        }
        max_ns
    }

    /// The JSON snapshot: count, clamped p50/p99, non-empty buckets, and
    /// the saturation flag.
    pub fn snapshot(&self) -> Json {
        let buckets: Vec<Json> = self
            .0
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.load(Ordering::Relaxed) > 0)
            .map(|(i, b)| {
                json!({
                    "le_ns": 1u64 << (i + 1).min(63),
                    "count": b.load(Ordering::Relaxed),
                })
            })
            .collect();
        json!({
            "count": self.count(),
            "p50_ns_le": self.approx_quantile_ns(0.5),
            "p99_ns_le": self.approx_quantile_ns(0.99),
            "saturated": self.saturated(),
            "buckets": Json::Array(buckets),
        })
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metric handles.
///
/// `counter`/`gauge`/`histogram` get-or-create: the first caller under a
/// name creates the metric, later callers receive clones of the same
/// handle, so independent subsystems naming the same metric aggregate into
/// it. Registering a name twice at *different* kinds is a programming
/// error and panics.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        match self.metric(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is already registered as {other:?}, not a counter"),
        }
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.metric(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is already registered as {other:?}, not a gauge"),
        }
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.metric(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is already registered as {other:?}, not a histogram"),
        }
    }

    /// A handle on the metric under `name`, which `create` registers on
    /// first use. The name is looked up as `&str`, so only a first
    /// registration allocates its key.
    fn metric(&self, name: &str, create: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics.get(name) {
            Some(metric) => metric.clone(),
            None => metrics
                .entry(name.to_string())
                .or_insert_with(create)
                .clone(),
        }
    }

    /// A JSON snapshot of every registered metric, keyed by name. Counters
    /// serialize as numbers, gauges as `{value, peak}`, histograms as
    /// their bucket snapshot.
    pub fn snapshot(&self) -> Json {
        let metrics = self.metrics.lock().unwrap();
        let mut out = BTreeMap::new();
        for (name, metric) in metrics.iter() {
            let v = match metric {
                Metric::Counter(c) => Json::from(c.get()),
                Metric::Gauge(g) => json!({"value": g.get(), "peak": g.peak()}),
                Metric::Histogram(h) => h.snapshot(),
            };
            out.insert(name.clone(), v);
        }
        Json::Object(out)
    }
}

/// Sanitizes one metric-name segment: ASCII letters, digits, `_` and `-`
/// pass through; everything else (most importantly `.`, the namespace
/// separator) maps to `_`. Externally supplied identifiers — tenant names
/// arriving over the network, file-derived labels — go through this before
/// they become part of a metric name, so an adversarial name like
/// `x.faults.quarantined` cannot forge entries in another subsystem's
/// namespace. An empty segment becomes `_` so joined names never collapse.
pub fn sanitize_segment(segment: &str) -> String {
    if segment.is_empty() {
        return "_".to_string();
    }
    segment
        .chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | '-' => c,
            _ => '_',
        })
        .collect()
}

/// A prefix view onto a shared [`Registry`]: every metric created through
/// it is registered under `<prefix>.<name>`, with each prefix segment
/// passed through [`sanitize_segment`]. This is how per-tenant metrics
/// stay in one registry (one snapshot covers everything) without tenants
/// being able to collide with — or forge — each other's names.
#[derive(Clone, Debug)]
pub struct ScopedRegistry {
    registry: Arc<Registry>,
    prefix: String,
}

impl ScopedRegistry {
    /// A scope under `registry` made of the sanitized `segments` joined
    /// with `.` (e.g. `["serve", "tenant", "acme-corp"]` →
    /// `serve.tenant.acme-corp`).
    pub fn new(registry: Arc<Registry>, segments: &[&str]) -> Self {
        let prefix = segments
            .iter()
            .map(|s| sanitize_segment(s))
            .collect::<Vec<_>>()
            .join(".");
        ScopedRegistry { registry, prefix }
    }

    /// The sanitized, joined prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The underlying shared registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn scoped_name(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    /// The counter `<prefix>.<name>` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(&self.scoped_name(name))
    }

    /// The gauge `<prefix>.<name>` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(&self.scoped_name(name))
    }

    /// The histogram `<prefix>.<name>` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(&self.scoped_name(name))
    }
}

/// The process-wide registry. Library code that is not handed an explicit
/// registry (e.g. the σ-type cache aggregates) registers here.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.set(2);
        assert_eq!(c.get(), 2);

        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!((g.get(), g.peak()), (1, 2));
        g.dec();
        g.dec(); // saturates, never wraps
        assert_eq!(g.get(), 0);
        g.set(7);
        assert_eq!((g.get(), g.peak()), (7, 7));
    }

    /// A repeat lookup returns the handle the first one registered, for
    /// every kind, and registers nothing new.
    #[test]
    fn repeat_lookup_returns_the_registered_handle() {
        let r = Registry::new();
        let (c, g, h) = (r.counter("a.c"), r.gauge("a.g"), r.histogram("a.h"));
        assert!(Arc::ptr_eq(&c.0, &r.counter("a.c").0));
        assert!(Arc::ptr_eq(&g.0, &r.gauge("a.g").0));
        assert!(Arc::ptr_eq(&h.0, &r.histogram("a.h").0));
        assert_eq!(r.metrics.lock().unwrap().len(), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(Duration::from_nanos(100)); // bucket [64, 128)
        }
        h.record(Duration::from_micros(100)); // far tail
        assert_eq!(h.count(), 100);
        assert_eq!(h.approx_quantile_ns(0.5), 128);
        assert!(h.approx_quantile_ns(1.0) >= 100_000);
        assert!(!h.saturated());
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 2^i lands in bucket i (upper bound 2^(i+1)); 2^i - 1 lands one
        // bucket below. Checked through the snapshot's `le_ns` labels.
        for i in [1usize, 4, 10, 20] {
            let h = Histogram::new();
            h.record_ns(1 << i);
            let snap = h.snapshot();
            assert_eq!(
                snap["buckets"][0]["le_ns"].as_u64(),
                Some(1 << (i + 1)),
                "2^{i} must land in bucket [{}, {})",
                1u64 << i,
                1u64 << (i + 1)
            );
            let h = Histogram::new();
            h.record_ns((1 << i) - 1);
            let snap = h.snapshot();
            assert_eq!(snap["buckets"][0]["le_ns"].as_u64(), Some(1 << i));
        }
        // 0 ns is clamped into the first bucket, huge durations into the
        // last, both without panicking (saturating record).
        let h = Histogram::new();
        h.record_ns(0);
        h.record_ns(u64::MAX);
        h.record(Duration::MAX);
        assert_eq!(h.count(), 3);
        let snap = h.snapshot();
        assert_eq!(snap["buckets"][0]["le_ns"].as_u64(), Some(2));
        assert_eq!(
            snap["buckets"][1]["le_ns"].as_u64(),
            Some(1u64 << BUCKETS.min(63)),
            "oversized samples collapse into the unbounded last bucket"
        );
        assert_eq!(snap["buckets"][1]["count"].as_u64(), Some(2));
    }

    /// The overflow fix: a quantile falling in the unbounded final bucket
    /// used to report `1 << 63` ns (~292 years); it now clamps to the
    /// largest recorded sample and raises the `saturated` flag.
    #[test]
    fn quantiles_clamp_to_max_recorded_sample() {
        let h = Histogram::new();
        h.record_ns(50_000_000); // 50 ms, in the unbounded bucket
        assert_eq!(h.approx_quantile_ns(0.5), 50_000_000);
        assert_eq!(h.approx_quantile_ns(0.99), 50_000_000);
        assert!(h.saturated());
        assert_eq!(h.snapshot()["saturated"].as_bool(), Some(true));
        assert_eq!(h.snapshot()["p99_ns_le"].as_u64(), Some(50_000_000));

        // Also inside bounded buckets: p99 of identical 100 ns samples is
        // the recorded 100 ns, not the 128 ns bucket ceiling... except the
        // clamp only tightens the *upper bound*, so it reports
        // min(bucket ceiling, max sample) = 100.
        let h = Histogram::new();
        for _ in 0..10 {
            h.record_ns(100);
        }
        assert_eq!(h.approx_quantile_ns(0.99), 100);
        assert!(!h.saturated());
        assert_eq!(h.snapshot()["saturated"].as_bool(), Some(false));
    }

    #[test]
    fn registry_get_or_create_shares_handles() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.add(3);
        b.add(4);
        assert_eq!(r.counter("x.hits").get(), 7);

        let g = r.gauge("x.depth");
        g.set(5);
        r.histogram("x.lat").record_ns(100);

        let snap = r.snapshot();
        assert_eq!(snap["x.hits"].as_u64(), Some(7));
        assert_eq!(snap["x.depth"]["peak"].as_u64(), Some(5));
        assert_eq!(snap["x.lat"]["count"].as_u64(), Some(1));
        // Snapshot round-trips through the serializer.
        let text = serde_json::to_string(&snap).unwrap();
        assert!(serde_json::from_str(&text).is_ok());
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        r.counter("dual");
        r.gauge("dual");
    }

    #[test]
    fn scoped_registry_prefixes_and_sanitizes() {
        let r = Arc::new(Registry::new());
        let tenant = ScopedRegistry::new(Arc::clone(&r), &["serve", "tenant", "acme-corp"]);
        assert_eq!(tenant.prefix(), "serve.tenant.acme-corp");
        tenant.counter("events.ok").add(3);
        tenant.gauge("sessions").set(2);
        let snap = r.snapshot();
        assert_eq!(snap["serve.tenant.acme-corp.events.ok"].as_u64(), Some(3));
        assert_eq!(
            snap["serve.tenant.acme-corp.sessions"]["value"].as_u64(),
            Some(2)
        );

        // A hostile tenant name cannot dot its way into another namespace.
        let evil = ScopedRegistry::new(Arc::clone(&r), &["serve", "tenant", "x.faults"]);
        assert_eq!(evil.prefix(), "serve.tenant.x_faults");
        evil.counter("quarantined").inc();
        let snap = r.snapshot();
        assert_eq!(snap["serve.tenant.x_faults.quarantined"].as_u64(), Some(1));
        assert!(snap
            .as_object()
            .unwrap()
            .get("serve.tenant.x.faults.quarantined")
            .is_none());

        assert_eq!(sanitize_segment(""), "_");
        assert_eq!(sanitize_segment("ok_name-7"), "ok_name-7");
        assert_eq!(sanitize_segment("a b/c\u{e9}"), "a_b_c_");
    }

    #[test]
    fn handles_are_shareable_across_threads() {
        let c = Counter::new();
        let g = Gauge::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (c, g) = (c.clone(), g.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                    g.inc();
                    g.dec();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(g.get(), 0);
        assert!(g.peak() >= 1);
    }
}
