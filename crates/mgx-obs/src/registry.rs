//! The metric registry: named handles plus the two renderers.
//!
//! A [`Registry`] maps full metric names — `base_name` or
//! `base_name{label="value",…}` — to shared handles. Registration is
//! idempotent: asking for an existing name returns the *same* underlying
//! atomic, which is what lets several subsystems (a result store, the
//! `metrics` protocol op, a stderr progress note) agree on one value by
//! construction. Registration order is preserved and both renderers emit
//! it deterministically, so rendering the same registry state twice
//! yields the same bytes.

use crate::histogram::HistogramSnapshot;
use crate::{Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Default)]
struct Inner {
    order: Vec<String>,
    metrics: HashMap<String, Metric>,
    /// Help text per metric *family* (the part before `{`), first
    /// registration wins.
    help: HashMap<String, String>,
}

/// The registry. Cheap to share (`Arc<Registry>`); the internal mutex
/// guards only registration and rendering, never the metric update path.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

/// Formats a full metric name from a base and labels:
/// `labeled("x", &[("op","run")])` → `x{op="run"}`. Label values are
/// escaped for the exposition format (`\` and `"`).
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{base}{{{}}}", body.join(","))
}

/// Splits a full name into `(family, label_body)`;
/// `x{op="run"}` → `("x", Some("op=\"run\""))`.
fn split_name(full: &str) -> (&str, Option<&str>) {
    match full.find('{') {
        Some(i) => (&full[..i], Some(full[i + 1..].trim_end_matches('}'))),
        None => (full, None),
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T>(
        &self,
        full: &str,
        help: &str,
        make: impl FnOnce() -> Metric,
        pick: impl Fn(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let mut inner = self.inner.lock().unwrap();
        let (family, _) = split_name(full);
        inner.help.entry(family.to_string()).or_insert_with(|| help.to_string());
        if let Some(existing) = inner.metrics.get(full) {
            return pick(existing).unwrap_or_else(|| {
                panic!("metric `{full}` already registered as a {}", existing.kind())
            });
        }
        let metric = make();
        let out = pick(&metric).expect("freshly built metric matches its own kind");
        inner.order.push(full.to_string());
        inner.metrics.insert(full.to_string(), metric);
        out
    }

    /// A counter handle for `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.register(
            name,
            help,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// [`Registry::counter`] with a `{label="value"}` suffix.
    pub fn counter_with(&self, base: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        self.counter(&labeled(base, labels), help)
    }

    /// A gauge handle for `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.register(
            name,
            help,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// A histogram handle for `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.register(
            name,
            help,
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// [`Registry::histogram`] with a `{label="value"}` suffix.
    pub fn histogram_with(
        &self,
        base: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> Arc<Histogram> {
        self.histogram(&labeled(base, labels), help)
    }

    /// Reads a counter's current value by full name (`None` if absent or
    /// not a counter). This is how secondary surfaces (stderr notes,
    /// side-files) re-read the value a primary surface maintains, instead
    /// of keeping their own copy.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.inner.lock().unwrap().metrics.get(name)? {
            Metric::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Reads a gauge's current value by full name.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        match self.inner.lock().unwrap().metrics.get(name)? {
            Metric::Gauge(g) => Some(g.get()),
            _ => None,
        }
    }

    /// Renders the Prometheus-style text exposition: `# HELP` / `# TYPE`
    /// per family (first appearance), one sample line per scalar,
    /// cumulative `_bucket`/`_sum`/`_count` lines per histogram.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        let mut described: Vec<&str> = Vec::new();
        for full in &inner.order {
            let metric = &inner.metrics[full];
            let (family, labels) = split_name(full);
            if !described.contains(&family) {
                described.push(family);
                let help = inner.help.get(family).map(String::as_str).unwrap_or("");
                let _ = writeln!(out, "# HELP {family} {help}");
                let _ = writeln!(out, "# TYPE {family} {}", metric.kind());
            }
            let with = |extra: &str| match (labels, extra.is_empty()) {
                (None, true) => String::new(),
                (None, false) => format!("{{{extra}}}"),
                (Some(body), true) => format!("{{{body}}}"),
                (Some(body), false) => format!("{{{body},{extra}}}"),
            };
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{family}{} {}", with(""), c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{family}{} {}", with(""), g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (bound, n) in snap.occupied() {
                        if bound == u64::MAX {
                            break; // the closing +Inf line below covers it
                        }
                        cumulative += n;
                        let _ = writeln!(
                            out,
                            "{family}_bucket{} {cumulative}",
                            with(&format!("le=\"{bound}\""))
                        );
                    }
                    let _ = writeln!(out, "{family}_bucket{} {}", with("le=\"+Inf\""), snap.count);
                    let _ = writeln!(out, "{family}_sum{} {}", with(""), snap.sum);
                    let _ = writeln!(out, "{family}_count{} {}", with(""), snap.count);
                }
            }
        }
        out
    }

    /// Renders the repo's one-line JSON dialect: insertion-ordered keys,
    /// exact `u64`/`i64` lexemes (safe through `mgx_serve::json`'s
    /// lexeme-preserving parser), histograms summarized as
    /// `count/sum/min/max/p50/p90/p99/p999`.
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        for full in &inner.order {
            match &inner.metrics[full] {
                Metric::Counter(c) => {
                    if !counters.is_empty() {
                        counters.push(',');
                    }
                    let _ = write!(counters, "\"{}\":{}", esc(full), c.get());
                }
                Metric::Gauge(g) => {
                    if !gauges.is_empty() {
                        gauges.push(',');
                    }
                    let _ = write!(gauges, "\"{}\":{}", esc(full), g.get());
                }
                Metric::Histogram(h) => {
                    if !histograms.is_empty() {
                        histograms.push(',');
                    }
                    let snap = h.snapshot();
                    let _ = write!(histograms, "\"{}\":{}", esc(full), snapshot_json(&snap));
                }
            }
        }
        format!("{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}")
    }
}

/// The JSON summary of one histogram snapshot in
/// [`Registry::render_json`].
fn snapshot_json(snap: &HistogramSnapshot) -> String {
    match snap.quantiles() {
        None => format!("{{\"count\":0,\"sum\":{}}}", snap.sum),
        Some([p50, p90, p99, p999]) => format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
             \"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"p999\":{p999}}}",
            snap.count, snap.sum, snap.min, snap.max
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("hits_total", "lookup hits");
        let b = r.counter("hits_total", "ignored duplicate help");
        a.add(3);
        assert_eq!(b.get(), 3, "both handles are the same atomic");
        assert_eq!(r.counter_value("hits_total"), Some(3));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", "");
        r.gauge("x", "");
    }

    #[test]
    fn labeled_names_render_into_families() {
        let r = Registry::new();
        r.counter_with("req_total", &[("op", "run")], "requests").add(2);
        r.counter_with("req_total", &[("op", "stats")], "requests").inc();
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1, "{text}");
        assert!(text.contains("req_total{op=\"run\"} 2"), "{text}");
        assert!(text.contains("req_total{op=\"stats\"} 1"), "{text}");
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_closed() {
        let r = Registry::new();
        let h = r.histogram_with("lat_ns", &[("op", "run")], "latency");
        h.record(1);
        h.record(1);
        h.record(100);
        let text = r.render_prometheus();
        assert!(text.contains("lat_ns_bucket{op=\"run\",le=\"1\"} 2"), "{text}");
        assert!(text.contains("lat_ns_bucket{op=\"run\",le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_ns_sum{op=\"run\"} 102"), "{text}");
        assert!(text.contains("lat_ns_count{op=\"run\"} 3"), "{text}");
    }

    #[test]
    fn json_dialect_is_one_line_and_ordered() {
        let r = Registry::new();
        r.counter("b_total", "").add(u64::MAX); // > 2^53: must survive as a lexeme
        r.gauge("depth", "").set(-4);
        r.histogram("h_ns", "").record(7);
        let json = r.render_json();
        assert!(!json.contains('\n'));
        assert!(json.contains(&format!("\"b_total\":{}", u64::MAX)), "{json}");
        assert!(json.contains("\"depth\":-4"), "{json}");
        assert!(json.contains("\"h_ns\":{\"count\":1,\"sum\":7,\"min\":7,\"max\":7"), "{json}");
        let again = r.render_json();
        assert_eq!(json, again, "rendering is deterministic");
    }

    #[test]
    fn empty_registry_renders_empty_envelopes() {
        let r = Registry::new();
        assert_eq!(r.render_json(), "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
        assert_eq!(r.render_prometheus(), "");
    }
}
