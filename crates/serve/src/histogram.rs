//! Per-op-class latency recording for the service layer.
//!
//! [`LatencyMetrics`] holds two `mve_obs` log2 histograms (service time
//! and queue wait) per [`MetricClass`] and registers them in the metrics
//! registry. [`latency_json`] reads them back from that registry into the
//! `stats` reply's `latency` object, so the exposition and `stats` show
//! the same snapshot.

use std::time::Duration;

use mve_obs::metrics::{AtomicLog2Histogram, HistogramStats, MetricsRegistry};

use crate::json::Json;

/// The op classes latency is tracked for: the four chargeable classes
/// plus the four inline control-plane ops.
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
    service: AtomicLog2Histogram,
    queue_wait: AtomicLog2Histogram,
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

    /// Registers one `request_service_us` and one `request_queue_wait_us`
    /// sample per class, labeled `class`, in [`MetricClass::ALL`] order.
    pub fn register(&self, reg: &mut MetricsRegistry) {
        for class in MetricClass::ALL {
            let slot = &self.classes[class.idx()];
            let labels = [("class", class.name())];
            reg.histogram(
                "request_service_us",
                "Request service time per op class, µs (log2 buckets).",
                &labels,
                slot.service.snapshot(),
            );
            reg.histogram(
                "request_queue_wait_us",
                "Runnable-to-picked-up wait per op class, µs (log2 buckets).",
                &labels,
                slot.queue_wait.snapshot(),
            );
        }
    }
}

/// The `stats` reply's `latency` object,
/// `{"<class>": {"service": .., "queue_wait": ..}}`, read from the samples
/// [`LatencyMetrics::register`] put in `reg`.
pub fn latency_json(reg: &MetricsRegistry) -> Json {
    let service = reg.histograms("request_service_us");
    let queue_wait = reg.histograms("request_queue_wait_us");
    // `register` pushes both families in the same class order.
    Json::Obj(
        service
            .zip(queue_wait)
            .map(|((labels, service), (_, queue_wait))| {
                let class = labels.iter().find(|(k, _)| k == "class");
                (
                    class.map_or_else(String::new, |(_, v)| v.clone()),
                    Json::Obj(vec![
                        ("service".into(), stats_json(&service.stats())),
                        ("queue_wait".into(), stats_json(&queue_wait.stats())),
                    ]),
                )
            })
            .collect(),
    )
}

fn stats_json(s: &HistogramStats) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::U64(s.count)),
        ("mean_us".into(), Json::F64(s.mean_us)),
        ("p50_us".into(), Json::U64(s.p50_us)),
        ("p90_us".into(), Json::U64(s.p90_us)),
        ("p99_us".into(), Json::U64(s.p99_us)),
        ("max_us".into(), Json::U64(s.max_us)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_json_carries_every_class_from_the_registry() {
        let m = LatencyMetrics::new();
        m.record_service(MetricClass::Sim, Duration::from_micros(100));
        m.record_service(MetricClass::Sim, Duration::from_micros(300));
        m.record_queue_wait(MetricClass::Sim, Duration::ZERO);
        let mut reg = MetricsRegistry::new();
        m.register(&mut reg);
        let json = latency_json(&reg);
        let Json::Obj(members) = &json else {
            panic!("latency is an object: {json:?}");
        };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = MetricClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, expected, "every class, in serialization order");
        let sim = json.get("sim").expect("sim class");
        let service = sim.get("service").expect("service histogram");
        assert_eq!(service.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(service.get("mean_us").and_then(Json::as_f64), Some(200.0));
        let wait = sim.get("queue_wait").expect("queue_wait histogram");
        assert_eq!(wait.get("count").and_then(Json::as_u64), Some(1));
        let artefact = json.get("artefact").expect("artefact class");
        let service = artefact.get("service").expect("service histogram");
        assert_eq!(service.get("count").and_then(Json::as_u64), Some(0));
    }
}
