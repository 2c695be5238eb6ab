//! Lock-free log2-bucketed latency histograms for the service layer.
//!
//! [`Histogram`] spreads microsecond samples over 64 power-of-two buckets
//! (bucket *i* holds values in `[2^i, 2^(i+1))`, with 0 and 1 µs folded
//! into bucket 0). Recording is three relaxed atomic adds and one atomic
//! max — cheap enough to sit on every request — and percentile extraction
//! is `mve_obs::metrics::quantile_from_log2_buckets`, which reports a
//! bucket `[lo, 2lo)` as `lo + lo/2`, clamped here to the true maximum.
//! The scheme trades precision for a fixed 640-byte footprint: any
//! quantile is exact to within its bucket (a factor of 1.5 of any value
//! in it), which is the right resolution for spotting queueing collapse,
//! not for timing kernels (the criterion-style harness in `mve-bench`
//! does that).
//!
//! [`LatencyMetrics`] groups two histograms (service time and queue wait)
//! per op class and serializes them into the `stats` reply.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use mve_obs::metrics::quantile_from_log2_buckets;

use crate::json::Json;

const BUCKETS: usize = 64;

/// A concurrent log2-bucketed histogram of microsecond values.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample, in microseconds.
    pub fn record(&self, value_us: u64) {
        let idx = value_us.max(1).ilog2() as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_us, Ordering::Relaxed);
        self.max.fetch_max(value_us, Ordering::Relaxed);
    }

    /// Record a duration as microseconds (saturating).
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values, µs.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value, µs.
    pub fn max_us(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Raw per-bucket counts (bucket `i` holds `v.max(1).ilog2() == i`),
    /// the layout the Prometheus exposition emits verbatim.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Folds another histogram's samples into this one (bucket-wise add;
    /// max takes the larger). Used to merge per-class series into one.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Zeroes every bucket and aggregate. Not atomic with respect to
    /// concurrent recorders (a racing sample may survive or vanish), which
    /// is fine for its test/tooling uses.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Extract count, mean, percentiles, and max.
    pub fn snapshot(&self) -> HistogramStats {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        // Concurrent recorders can make `count` and the bucket sum differ
        // transiently; rank against the bucket sum we actually walk.
        let count: u64 = buckets.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        // The bucket value never exceeds the largest value recorded.
        let percentile = |q| quantile_from_log2_buckets(&buckets, q).min(max.max(1));
        HistogramStats {
            count,
            mean_us: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50_us: percentile(0.50),
            p90_us: percentile(0.90),
            p99_us: percentile(0.99),
            max_us: max,
        }
    }
}

/// One histogram snapshot: sample count, mean, p50/p90/p99, max, all µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramStats {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean, µs.
    pub mean_us: f64,
    /// Median, µs (bucket-resolution).
    pub p50_us: u64,
    /// 90th percentile, µs.
    pub p90_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// Exact maximum, µs.
    pub max_us: u64,
}

impl HistogramStats {
    /// Serialize for the `stats` reply.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::U64(self.count)),
            ("mean_us".into(), Json::F64(self.mean_us)),
            ("p50_us".into(), Json::U64(self.p50_us)),
            ("p90_us".into(), Json::U64(self.p90_us)),
            ("p99_us".into(), Json::U64(self.p99_us)),
            ("max_us".into(), Json::U64(self.max_us)),
        ])
    }
}

/// The op classes latency is tracked for: the three chargeable classes
/// plus the two inline control-plane ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Registry artefact render.
    Artefact,
    /// Kernel execution + timing walk(s).
    Sim,
    /// DSL compile + execution + timing walk.
    Compile,
    /// Cost estimate (served inline by the event loop).
    Estimate,
    /// Stats snapshot (served inline by the event loop).
    Stats,
    /// Prometheus exposition render (served inline by the event loop).
    Metrics,
    /// Request-trace ring snapshot (served inline by the event loop).
    Trace,
    /// DSL compile + marked execution + per-line attribution.
    /// Appended after the original seven: `ALL`'s order is the
    /// serialization order CI and the stats members pin.
    Profile,
}

impl MetricClass {
    /// Every class, in the order they serialize.
    pub const ALL: [MetricClass; 8] = [
        MetricClass::Artefact,
        MetricClass::Sim,
        MetricClass::Compile,
        MetricClass::Estimate,
        MetricClass::Stats,
        MetricClass::Metrics,
        MetricClass::Trace,
        MetricClass::Profile,
    ];

    /// Wire name of the class.
    pub fn name(self) -> &'static str {
        match self {
            MetricClass::Artefact => "artefact",
            MetricClass::Sim => "sim",
            MetricClass::Compile => "compile",
            MetricClass::Estimate => "estimate",
            MetricClass::Stats => "stats",
            MetricClass::Metrics => "metrics",
            MetricClass::Trace => "trace",
            MetricClass::Profile => "profile",
        }
    }

    fn idx(self) -> usize {
        match self {
            MetricClass::Artefact => 0,
            MetricClass::Sim => 1,
            MetricClass::Compile => 2,
            MetricClass::Estimate => 3,
            MetricClass::Stats => 4,
            MetricClass::Metrics => 5,
            MetricClass::Trace => 6,
            MetricClass::Profile => 7,
        }
    }
}

impl From<crate::cost::OpClass> for MetricClass {
    fn from(class: crate::cost::OpClass) -> MetricClass {
        match class {
            crate::cost::OpClass::Artefact => MetricClass::Artefact,
            crate::cost::OpClass::Sim => MetricClass::Sim,
            crate::cost::OpClass::Compile => MetricClass::Compile,
            crate::cost::OpClass::Profile => MetricClass::Profile,
        }
    }
}

#[derive(Debug, Default)]
struct ClassLatency {
    service: Histogram,
    queue_wait: Histogram,
}

/// Per-op-class service-time and queue-wait histograms.
///
/// *Service time* is time on a worker (or inline in the event loop for
/// control-plane ops); *queue wait* is the gap between a request becoming
/// runnable and a worker picking it up — inline ops record zero, so a
/// growing inter-class spread is pure scheduling pressure.
#[derive(Debug, Default)]
pub struct LatencyMetrics {
    classes: [ClassLatency; 8],
}

impl LatencyMetrics {
    /// Empty metrics.
    pub fn new() -> LatencyMetrics {
        LatencyMetrics::default()
    }

    /// Record worker/inline execution time for `class`.
    pub fn record_service(&self, class: MetricClass, d: Duration) {
        self.classes[class.idx()].service.record_duration(d);
    }

    /// Record runnable-to-picked-up wait for `class`.
    pub fn record_queue_wait(&self, class: MetricClass, d: Duration) {
        self.classes[class.idx()].queue_wait.record_duration(d);
    }

    /// Measured mean service time for `class`, µs (0 with no samples) —
    /// the read-only feedback the `estimate` reply reports next to the
    /// static cost model's charge.
    pub fn mean_service_us(&self, class: MetricClass) -> f64 {
        let service = &self.classes[class.idx()].service;
        let count = service.count();
        if count == 0 {
            0.0
        } else {
            service.sum() as f64 / count as f64
        }
    }

    /// The `(service, queue_wait)` histograms for `class` — the registry
    /// reads raw buckets from here for the Prometheus exposition.
    pub fn class_histograms(&self, class: MetricClass) -> (&Histogram, &Histogram) {
        let slot = &self.classes[class.idx()];
        (&slot.service, &slot.queue_wait)
    }

    /// Serialize every class as `{"<class>": {"service": .., "queue_wait": ..}}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            MetricClass::ALL
                .iter()
                .map(|&class| {
                    let slot = &self.classes[class.idx()];
                    (
                        class.name().to_string(),
                        Json::Obj(vec![
                            ("service".into(), slot.service.snapshot().to_json()),
                            ("queue_wait".into(), slot.queue_wait.snapshot().to_json()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_us, 0.0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.p99_us, 0);
        assert_eq!(s.max_us, 0);
    }

    #[test]
    fn percentiles_are_bucket_accurate_and_ordered() {
        let h = Histogram::new();
        // 90 fast samples at ~10µs, 9 at ~1ms, 1 at 100ms.
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..9 {
            h.record(1000);
        }
        h.record(100_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_us, 100_000);
        // p50 lands in the [8,16) bucket, p99 in the [512,1024)+ region.
        assert!((8..16).contains(&s.p50_us), "p50={}", s.p50_us);
        assert!(s.p90_us <= s.p99_us, "p90={} p99={}", s.p90_us, s.p99_us);
        assert!(s.p50_us <= s.p90_us);
        assert!((512..2048).contains(&s.p99_us), "p99={}", s.p99_us);
        assert!(s.p99_us <= s.max_us);
        let expected_mean = (90.0 * 10.0 + 9.0 * 1000.0 + 100_000.0) / 100.0;
        assert!((s.mean_us - expected_mean).abs() < 1e-9);
    }

    #[test]
    fn zero_and_one_fold_into_the_first_bucket() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max_us, 1);
        // Bucket midpoint clamps to the true max.
        assert_eq!(s.p99_us, 1);
    }

    #[test]
    fn single_sample_reports_itself_at_every_percentile() {
        let h = Histogram::new();
        h.record(777);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_us, s.p99_us);
        assert!(s.p99_us <= 777 && s.p99_us >= 512, "p99={}", s.p99_us);
        assert_eq!(s.max_us, 777);
    }

    #[test]
    fn saturating_top_bucket_holds_huge_samples() {
        let h = Histogram::new();
        h.record(u64::MAX); // ilog2 == 63: lands in (and stays in) the top bucket
        h.record(1u64 << 63);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max_us, u64::MAX);
        // Midpoint of the top bucket saturates instead of wrapping: it
        // reports inside [2^63, max], never a wrapped-around tiny value.
        assert!(s.p99_us >= 1u64 << 63, "p99={}", s.p99_us);
        assert!(s.p99_us <= s.max_us);
        let counts = h.bucket_counts();
        assert_eq!(counts[63], 2);
        assert_eq!(counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn single_occupied_bucket_reports_one_value_for_every_quantile() {
        // All samples in one bucket: p50/p90/p99 collapse to the bucket's
        // `lo + lo/2` value, clamped to the recorded max when the max
        // sits below it.
        let clamped = Histogram::new();
        for _ in 0..5 {
            clamped.record(40); // bucket [32,64), midpoint 48 > max 40
        }
        let s = clamped.snapshot();
        assert_eq!((s.p50_us, s.p90_us, s.p99_us, s.max_us), (40, 40, 40, 40));

        let unclamped = Histogram::new();
        for _ in 0..5 {
            unclamped.record(60); // same bucket, midpoint 48 < max 60
        }
        let s = unclamped.snapshot();
        assert_eq!((s.p50_us, s.p90_us, s.p99_us, s.max_us), (48, 48, 48, 60));
    }

    #[test]
    fn all_mass_in_the_top_bucket_clamps_to_the_recorded_max() {
        // The top bucket's midpoint (2^63 + 2^62) exceeds every value
        // recorded here, so the clamp — not the midpoint — is reported.
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(1u64 << 63);
        }
        let s = h.snapshot();
        assert_eq!(s.p50_us, 1u64 << 63);
        assert_eq!(s.p99_us, 1u64 << 63);
        assert_eq!(s.max_us, 1u64 << 63);
    }

    #[test]
    fn merge_then_quantile_matches_one_histogram_with_all_samples() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [3, 10, 100, 5000] {
            a.record(v);
            all.record(v);
        }
        for v in [7, 70, 700, 70_000, 1_000_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        // count and sum fold exactly, so every snapshot field — mean
        // included — is identical to the single-histogram run.
        assert_eq!(a.snapshot(), all.snapshot());
    }

    #[test]
    fn merge_folds_buckets_count_sum_and_max() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(20);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1030);
        assert_eq!(a.max_us(), 1000);
        let s = a.snapshot();
        assert_eq!(s.count, 3);
        assert!((512..=1000).contains(&s.p99_us), "p99={}", s.p99_us);
        // Merging an empty histogram is a no-op.
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn reset_returns_to_empty() {
        let h = Histogram::new();
        h.record(42);
        h.record(7);
        assert_eq!(h.count(), 2);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max_us(), 0);
        let s = h.snapshot();
        assert_eq!(s, Histogram::new().snapshot());
    }

    #[test]
    fn mean_service_feedback_per_class() {
        let m = LatencyMetrics::new();
        assert_eq!(m.mean_service_us(MetricClass::Sim), 0.0);
        m.record_service(MetricClass::Sim, Duration::from_micros(100));
        m.record_service(MetricClass::Sim, Duration::from_micros(300));
        assert!((m.mean_service_us(MetricClass::Sim) - 200.0).abs() < 1e-9);
        assert_eq!(m.mean_service_us(MetricClass::Artefact), 0.0);
        let (service, wait) = m.class_histograms(MetricClass::Sim);
        assert_eq!(service.count(), 2);
        assert_eq!(wait.count(), 0);
    }

    #[test]
    fn latency_metrics_serialize_every_class() {
        let m = LatencyMetrics::new();
        m.record_service(MetricClass::Artefact, Duration::from_micros(250));
        m.record_queue_wait(MetricClass::Artefact, Duration::ZERO);
        let json = m.to_json();
        let text = json.encode();
        for class in MetricClass::ALL {
            assert!(text.contains(class.name()), "missing {}", class.name());
        }
        let artefact = json.get("artefact").expect("artefact class");
        let service = artefact.get("service").expect("service histogram");
        assert_eq!(service.get("count").and_then(Json::as_u64), Some(1));
        let wait = artefact.get("queue_wait").expect("queue_wait histogram");
        assert_eq!(wait.get("count").and_then(Json::as_u64), Some(1));
    }
}
