//! Unified metrics registry and Prometheus text exposition.
//!
//! A [`MetricsRegistry`] is a *snapshot*, not a live store: the owner of
//! the real atomics (e.g. the serve daemon) rebuilds one per render, in a
//! single function that is the only place metrics are enumerated. Both
//! human-facing views (the `stats` JSON reply) and the machine-facing
//! `metrics` op (Prometheus text exposition format, [spec]) are derived
//! from the same registry, so a counter cannot exist in one and not the
//! other.
//!
//! Naming convention: short names (`requests`, `hits`) inside the
//! registry — identical to the historical `stats` JSON keys — and a
//! `<prefix>_` namespace (e.g. `mve_serve_requests`) applied only at
//! exposition time.
//!
//! [spec]: https://prometheus.io/docs/instrumenting/exposition_formats/

use std::fmt::Write as _;

/// One scalar metric value. `stats` JSON needs to distinguish integer
/// counters from float gauges to keep its historical byte format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    U64(u64),
    F64(f64),
}

impl Scalar {
    pub fn as_f64(self) -> f64 {
        match self {
            Scalar::U64(v) => v as f64,
            Scalar::F64(v) => v,
        }
    }
}

/// A log2-bucketed histogram snapshot: `counts[i]` holds samples whose
/// value `v` satisfies `v.max(1).ilog2() == i` (bucket 0 therefore covers
/// `0..=1`), exactly the serve-side latency histogram layout.
#[derive(Debug, Clone, Default)]
pub struct Log2Histogram {
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl Log2Histogram {
    /// Inclusive-upper `le` bound of bucket `i` in Prometheus terms:
    /// bucket `i` holds values `< 2^(i+1)`.
    pub fn le_bound(i: usize) -> f64 {
        (2u128 << i) as f64
    }
}

#[derive(Debug, Clone)]
enum Value {
    Scalar(Scalar),
    Histogram(Log2Histogram),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct MetricSample {
    labels: Vec<(String, String)>,
    value: Value,
}

/// One metric family: a name, help text, a type, and one or more labeled
/// samples.
#[derive(Debug, Clone)]
pub struct Family {
    name: String,
    help: String,
    kind: Kind,
    samples: Vec<MetricSample>,
}

/// A point-in-time metrics snapshot. Insertion order is preserved in
/// every rendering, so the owner's build function fully determines both
/// the `stats` JSON member order and the exposition layout.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: Vec<Family>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn family_mut(&mut self, name: &str, help: &str, kind: Kind) -> &mut Family {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            assert_eq!(
                self.families[i].kind, kind,
                "metric {name} re-registered with a different type"
            );
            &mut self.families[i]
        } else {
            self.families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                samples: Vec::new(),
            });
            self.families.last_mut().unwrap()
        }
    }

    /// Registers a monotonically increasing counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.family_mut(name, help, Kind::Counter)
            .samples
            .push(MetricSample {
                labels: Vec::new(),
                value: Value::Scalar(Scalar::U64(value)),
            });
    }

    /// Registers an integer gauge (point-in-time level).
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.family_mut(name, help, Kind::Gauge)
            .samples
            .push(MetricSample {
                labels: Vec::new(),
                value: Value::Scalar(Scalar::U64(value)),
            });
    }

    /// Registers a float gauge.
    pub fn gauge_f(&mut self, name: &str, help: &str, value: f64) {
        self.family_mut(name, help, Kind::Gauge)
            .samples
            .push(MetricSample {
                labels: Vec::new(),
                value: Value::Scalar(Scalar::F64(value)),
            });
    }

    /// Registers one labeled float-gauge sample under family `name` — a
    /// gauge *family* (one sample per label set, e.g. a per-class
    /// measured cost). Labeled samples render in the exposition only;
    /// [`MetricsRegistry::scalars`] skips them, so adding a family never
    /// perturbs a stats-JSON layout derived from the unlabeled scalars.
    pub fn gauge_f_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.family_mut(name, help, Kind::Gauge)
            .samples
            .push(MetricSample {
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                value: Value::Scalar(Scalar::F64(value)),
            });
    }

    /// Registers one labeled histogram sample under family `name`.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snap: Log2Histogram,
    ) {
        self.family_mut(name, help, Kind::Histogram)
            .samples
            .push(MetricSample {
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                value: Value::Histogram(snap),
            });
    }

    /// Iterates unlabeled scalar metrics in insertion order as
    /// `(short_name, scalar)` — the `stats` JSON derivation.
    pub fn scalars(&self) -> impl Iterator<Item = (&str, Scalar)> {
        self.families.iter().flat_map(|f| {
            f.samples.iter().filter_map(|s| match s.value {
                Value::Scalar(v) if s.labels.is_empty() => Some((f.name.as_str(), v)),
                _ => None,
            })
        })
    }

    /// Looks up an unlabeled scalar by short name.
    pub fn scalar(&self, name: &str) -> Option<Scalar> {
        self.scalars().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Renders the registry in Prometheus text exposition format, with
    /// every family name prefixed by `<prefix>_`.
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let mut out = String::with_capacity(4096);
        for fam in &self.families {
            let full = format!("{prefix}_{}", fam.name);
            debug_assert!(valid_metric_name(&full), "bad metric name {full}");
            let _ = writeln!(out, "# HELP {full} {}", fam.help);
            let _ = writeln!(out, "# TYPE {full} {}", fam.kind.name());
            for sample in &fam.samples {
                match &sample.value {
                    Value::Scalar(v) => {
                        let _ = writeln!(
                            out,
                            "{full}{} {}",
                            render_labels(&sample.labels),
                            fmt_value(v.as_f64())
                        );
                    }
                    Value::Histogram(snap) => {
                        render_histogram(&mut out, &full, &sample.labels, snap)
                    }
                }
            }
        }
        out
    }
}

fn render_histogram(
    out: &mut String,
    full: &str,
    labels: &[(String, String)],
    snap: &Log2Histogram,
) {
    // Emit cumulative buckets up to the last non-empty one; the +Inf
    // bucket always closes the series at the total count.
    let last = snap
        .counts
        .iter()
        .rposition(|&c| c != 0)
        .map(|i| i + 1)
        .unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, &c) in snap.counts.iter().take(last).enumerate() {
        cumulative += c;
        let le = fmt_value(Log2Histogram::le_bound(i));
        let _ = writeln!(
            out,
            "{full}_bucket{} {cumulative}",
            render_labels_with(labels, "le", &le)
        );
    }
    let _ = writeln!(
        out,
        "{full}_bucket{} {}",
        render_labels_with(labels, "le", "+Inf"),
        snap.count
    );
    let _ = writeln!(out, "{full}_sum{} {}", render_labels(labels), snap.sum);
    let _ = writeln!(out, "{full}_count{} {}", render_labels(labels), snap.count);
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"");
        crate::log::escape_json(v, &mut out);
        out.push('"');
    }
    out.push('}');
    out
}

fn render_labels_with(labels: &[(String, String)], extra_key: &str, extra_val: &str) -> String {
    let mut all: Vec<(String, String)> = labels.to_vec();
    all.push((extra_key.to_string(), extra_val.to_string()));
    render_labels(&all)
}

/// Formats a float the way Prometheus expects: integers without a
/// fractional part, everything else via Rust's shortest-roundtrip `{}`.
fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        return "+Inf".to_string();
    }
    if v == f64::NEG_INFINITY {
        return "-Inf".to_string();
    }
    if v.is_nan() {
        return "NaN".to_string();
    }
    format!("{v}")
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

// ---------------------------------------------------------------------------
// Exposition parser (test / CI side)
// ---------------------------------------------------------------------------

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// `(family_name, type)` in document order.
    pub families: Vec<(String, String)>,
    pub samples: Vec<ParsedSample>,
}

impl Exposition {
    /// Value of the first sample matching `name` and all of `labels`.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
    }

    pub fn family_type(&self, name: &str) -> Option<&str> {
        self.families
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_str())
    }
}

/// Strictly parses a Prometheus text exposition document, validating:
///
/// * every sample belongs to a family announced by a preceding `# TYPE`
///   (histogram samples may use the `_bucket`/`_sum`/`_count` suffixes),
/// * metric and label names match the spec charset,
/// * `# TYPE` values are legal, families are not re-announced,
/// * histogram `le` buckets are cumulative (non-decreasing) and end in a
///   `+Inf` bucket equal to `_count`.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    let mut current_family: Option<(String, String)> = None;

    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let err = |msg: String| format!("line {}: {msg}", ln + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("").to_string();
            let kind = parts
                .next()
                .ok_or_else(|| err("TYPE missing kind".into()))?
                .to_string();
            if !valid_metric_name(&name) {
                return Err(err(format!("invalid metric name {name:?}")));
            }
            if !matches!(
                kind.as_str(),
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(err(format!("invalid TYPE {kind:?}")));
            }
            if exp.families.iter().any(|(n, _)| *n == name) {
                return Err(err(format!("family {name} announced twice")));
            }
            exp.families.push((name.clone(), kind.clone()));
            current_family = Some((name, kind));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(err(format!("invalid metric name {name:?} in HELP")));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }

        let sample = parse_sample_line(line).map_err(&err)?;
        let (fam_name, fam_kind) = current_family
            .as_ref()
            .ok_or_else(|| err(format!("sample {} before any # TYPE", sample.name)))?;
        let belongs = if fam_kind == "histogram" {
            sample.name == *fam_name
                || sample.name == format!("{fam_name}_bucket")
                || sample.name == format!("{fam_name}_sum")
                || sample.name == format!("{fam_name}_count")
        } else {
            sample.name == *fam_name
        };
        if !belongs {
            return Err(err(format!(
                "sample {} does not belong to current family {fam_name} ({fam_kind})",
                sample.name
            )));
        }
        exp.samples.push(sample);
    }

    validate_histograms(&exp)?;
    Ok(exp)
}

fn parse_sample_line(line: &str) -> Result<ParsedSample, String> {
    let (name_labels, value_str) = match line.rfind(' ') {
        Some(i) => (&line[..i], &line[i + 1..]),
        None => return Err(format!("sample line {line:?} has no value")),
    };
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        s => s
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {s:?}"))?,
    };
    let (name, labels) = match name_labels.find('{') {
        None => (name_labels.to_string(), Vec::new()),
        Some(open) => {
            if !name_labels.ends_with('}') {
                return Err(format!("unterminated label set in {name_labels:?}"));
            }
            let name = name_labels[..open].to_string();
            let body = &name_labels[open + 1..name_labels.len() - 1];
            (name, parse_labels(body)?)
        }
    };
    if !valid_metric_name(&name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    Ok(ParsedSample {
        name,
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {body:?}"))?;
        let key = rest[..eq].to_string();
        if !valid_label_name(&key) {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value not quoted in {body:?}"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    other => return Err(format!("bad escape {other:?} in label value")),
                },
                '"' => {
                    consumed = Some(i + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = consumed.ok_or_else(|| format!("unterminated label value in {body:?}"))?;
        labels.push((key, value));
        rest = &rest[end..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("expected ',' between labels in {body:?}"));
        }
    }
    Ok(labels)
}

/// One histogram series during validation: the non-`le` label set and
/// its `(le, cumulative_count)` buckets in document order.
type BucketSeries = (Vec<(String, String)>, Vec<(f64, f64)>);

fn validate_histograms(exp: &Exposition) -> Result<(), String> {
    for (fam, kind) in &exp.families {
        if kind != "histogram" {
            continue;
        }
        let bucket_name = format!("{fam}_bucket");
        let count_name = format!("{fam}_count");
        // Group buckets by their non-`le` label set.
        let mut series: Vec<BucketSeries> = Vec::new();
        for s in exp.samples.iter().filter(|s| s.name == bucket_name) {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| match v.as_str() {
                    "+Inf" => Ok(f64::INFINITY),
                    v => v.parse::<f64>().map_err(|_| format!("bad le {v:?}")),
                })
                .ok_or_else(|| format!("{bucket_name} sample without le label"))??;
            let key: Vec<(String, String)> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            match series.iter_mut().find(|(k, _)| *k == key) {
                Some((_, buckets)) => buckets.push((le, s.value)),
                None => series.push((key, vec![(le, s.value)])),
            }
        }
        for (key, buckets) in &series {
            for pair in buckets.windows(2) {
                if pair[1].0 <= pair[0].0 {
                    return Err(format!("{bucket_name}{key:?}: le bounds not increasing"));
                }
                if pair[1].1 < pair[0].1 {
                    return Err(format!(
                        "{bucket_name}{key:?}: bucket counts not cumulative"
                    ));
                }
            }
            let last = buckets
                .last()
                .ok_or_else(|| format!("{bucket_name}: empty series"))?;
            if last.0 != f64::INFINITY {
                return Err(format!("{bucket_name}{key:?}: missing +Inf bucket"));
            }
            let count = exp
                .samples
                .iter()
                .find(|s| {
                    s.name == count_name
                        && key
                            .iter()
                            .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
                })
                .ok_or_else(|| format!("{count_name}{key:?}: missing"))?;
            if count.value != last.1 {
                return Err(format!("{bucket_name}{key:?}: +Inf bucket != _count"));
            }
        }
    }
    Ok(())
}

/// Quantile (`0.0..=1.0`) of raw log2 bucket counts (the
/// [`Log2Histogram::counts`] layout), 0 when empty. The bucket holding the
/// rank is reported as `lo + lo/2` for its lower edge `lo = 2^i`, so
/// bucket 0 (values `0..=1`) reports 1. Callers that track an exact
/// maximum clamp to it, as the serve daemon's `stats` percentiles do.
pub fn quantile_from_log2_buckets(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            let lo = 1u64 << i;
            return lo.saturating_add(lo / 2);
        }
    }
    unreachable!("rank <= total")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter("requests", "Total requests received.", 42);
        reg.counter("hits", "Cache hits.", 17);
        reg.gauge_f("hit_rate", "Hits over lookups.", 0.25);
        let mut counts = vec![0u64; 64];
        counts[0] = 2; // two samples <= 1us
        counts[5] = 1; // one in [32,64)
        reg.histogram(
            "request_service_us",
            "Service time per op class.",
            &[("class", "artefact")],
            Log2Histogram {
                counts,
                count: 3,
                sum: 50,
            },
        );
        reg
    }

    #[test]
    fn render_parse_roundtrip() {
        let reg = sample_registry();
        let text = reg.render_prometheus("mve_serve");
        let exp = parse_exposition(&text).expect("well-formed exposition");
        assert_eq!(exp.family_type("mve_serve_requests"), Some("counter"));
        assert_eq!(exp.value("mve_serve_requests", &[]), Some(42.0));
        assert_eq!(exp.value("mve_serve_hit_rate", &[]), Some(0.25));
        // Histogram: cumulative buckets, +Inf == count, sum/count present.
        assert_eq!(
            exp.value(
                "mve_serve_request_service_us_bucket",
                &[("class", "artefact"), ("le", "2")]
            ),
            Some(2.0)
        );
        assert_eq!(
            exp.value(
                "mve_serve_request_service_us_bucket",
                &[("class", "artefact"), ("le", "64")]
            ),
            Some(3.0)
        );
        assert_eq!(
            exp.value(
                "mve_serve_request_service_us_bucket",
                &[("class", "artefact"), ("le", "+Inf")]
            ),
            Some(3.0)
        );
        assert_eq!(
            exp.value("mve_serve_request_service_us_sum", &[("class", "artefact")]),
            Some(50.0)
        );
        assert_eq!(
            exp.value(
                "mve_serve_request_service_us_count",
                &[("class", "artefact")]
            ),
            Some(3.0)
        );
    }

    #[test]
    fn scalars_preserve_insertion_order() {
        let reg = sample_registry();
        let names: Vec<&str> = reg.scalars().map(|(n, _)| n).collect();
        assert_eq!(names, ["requests", "hits", "hit_rate"]);
        assert_eq!(reg.scalar("hits"), Some(Scalar::U64(17)));
    }

    #[test]
    fn parser_rejects_malformed() {
        assert!(parse_exposition("mve_x 1").is_err(), "sample before TYPE");
        assert!(
            parse_exposition("# TYPE mve_x widget\nmve_x 1").is_err(),
            "bad kind"
        );
        assert!(
            parse_exposition("# TYPE mve_x counter\nmve_y 1").is_err(),
            "family mismatch"
        );
        assert!(
            parse_exposition("# TYPE mve_x counter\nmve_x{le=\"oops} 1").is_err(),
            "unterminated label"
        );
        assert!(
            parse_exposition("# TYPE 9bad counter\n9bad 1").is_err(),
            "invalid metric name"
        );
        // Histogram without +Inf bucket.
        let text = "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_sum 1\nh_count 1\n";
        assert!(parse_exposition(text).is_err());
    }

    #[test]
    fn quantile_of_empty_buckets_is_zero() {
        assert_eq!(quantile_from_log2_buckets(&[0u64; 64], 0.99), 0);
        assert_eq!(quantile_from_log2_buckets(&[], 0.5), 0);
    }

    #[test]
    fn quantile_single_occupied_bucket_is_lo_plus_half() {
        let mut counts = vec![0u64; 64];
        counts[5] = 9; // every sample in [32, 64)
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(quantile_from_log2_buckets(&counts, q), 48, "q={q}");
        }
        // Bucket 0 holds 0 and 1 and reports 1.
        let mut low = vec![0u64; 64];
        low[0] = 2;
        assert_eq!(quantile_from_log2_buckets(&low, 0.5), 1);
    }

    #[test]
    fn quantile_all_mass_in_last_bucket_stays_in_range() {
        // Bucket 63 is [2^63, 2^64): its value fits a u64 without
        // wrapping and lies inside the bucket.
        let mut counts = vec![0u64; 64];
        counts[63] = 3;
        assert_eq!(
            quantile_from_log2_buckets(&counts, 0.99),
            (1u64 << 63) + (1u64 << 62)
        );
    }

    #[test]
    fn quantile_over_merged_buckets_matches_the_union() {
        // Bucket-wise addition is exactly how per-class histograms merge
        // into one series; quantiles over the sum must equal quantiles
        // over the union of samples.
        let mut a = vec![0u64; 64];
        a[2] = 5;
        a[8] = 1;
        let mut b = vec![0u64; 64];
        b[2] = 2;
        b[4] = 7;
        let merged: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        // 15 samples: rank 8 lands in bucket 4, rank 15 in bucket 8.
        assert_eq!(quantile_from_log2_buckets(&merged, 0.5), 16 + 8);
        assert_eq!(quantile_from_log2_buckets(&merged, 0.99), 256 + 128);
    }
}
