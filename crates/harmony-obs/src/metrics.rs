//! Process-global metrics: atomic counters, gauges, and fixed-bucket
//! histograms behind a registry with Prometheus-style text exposition.
//!
//! Registration is get-or-create and keyed by `(name, labels)`: asking
//! for the same metric twice returns the same handle, so call sites can
//! register lazily without coordinating. Handles are `Arc`s whose hot
//! path is lock-free — the registry lock is touched only at
//! registration and encoding time.
//!
//! ```
//! use harmony_obs::metrics::{Registry, LATENCY_SECONDS};
//!
//! let registry = Registry::new();
//! let requests = registry.counter("requests_total", "Requests served.");
//! let latency = registry.histogram("request_seconds", "Latency.", LATENCY_SECONDS);
//! requests.inc();
//! {
//!     let _timer = latency.start_timer(); // observes on drop
//! }
//! let text = registry.encode();
//! assert!(text.contains("requests_total 1"));
//! assert!(text.contains("request_seconds_count 1"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Default buckets for latency histograms, in seconds: 1µs to 10s,
/// roughly logarithmic. Covers everything from a loopback frame
/// round-trip to a slow external measurement.
pub const LATENCY_SECONDS: &[f64] = &[
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
    5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `f64` observations.
///
/// Buckets are cumulative upper bounds (Prometheus `le` semantics); an
/// implicit `+Inf` bucket catches everything else. Observation is a
/// couple of relaxed atomic operations — safe on any hot path.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
    /// Per-bucket exemplars: the trace ID and value of the most recent
    /// observation that landed in the bucket while a trace was current
    /// (0 = no exemplar yet). Lets a fat bucket link to a recorded
    /// trace in the flight recorder.
    exemplar_traces: Vec<AtomicU64>,
    exemplar_values: Vec<AtomicU64>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf is implicit)"
        );
        let counts: Vec<AtomicU64> = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        let exemplar_traces = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        let exemplar_values = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: bounds.to_vec(),
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
            exemplar_traces,
            exemplar_values,
        }
    }

    /// Record one observation. Non-finite values land in the `+Inf`
    /// bucket and are excluded from the sum.
    pub fn observe(&self, v: f64) {
        let idx = if v.is_finite() {
            self.bounds.partition_point(|b| *b < v)
        } else {
            self.bounds.len()
        };
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        if let Some(ctx) = crate::trace::current() {
            self.exemplar_traces[idx].store(ctx.trace_id, Ordering::Relaxed);
            self.exemplar_values[idx].store(v.to_bits(), Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            let mut old = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let new = (f64::from_bits(old) + v).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    old,
                    new,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(o) => old = o,
                }
            }
        }
    }

    /// Start timing; the elapsed wall time in seconds is observed when
    /// the returned guard drops.
    pub fn start_timer(&self) -> HistogramTimer<'_> {
        HistogramTimer {
            histogram: self,
            start: Instant::now(),
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Cumulative per-bucket counts, `(upper_bound, count ≤ bound)`
    /// pairs ending with the `+Inf` bucket (bound `f64::INFINITY`).
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        let mut cumulative = 0u64;
        let mut out = Vec::with_capacity(self.counts.len());
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, cumulative));
        }
        out
    }

    /// Per-bucket exemplars aligned with [`buckets`](Self::buckets):
    /// `Some((trace_id, observed_value))` for buckets that caught an
    /// observation made inside a trace.
    pub fn exemplars(&self) -> Vec<Option<(u64, f64)>> {
        self.exemplar_traces
            .iter()
            .zip(&self.exemplar_values)
            .map(|(t, v)| {
                let trace = t.load(Ordering::Relaxed);
                if trace == 0 {
                    None
                } else {
                    Some((trace, f64::from_bits(v.load(Ordering::Relaxed))))
                }
            })
            .collect()
    }
}

/// Guard from [`Histogram::start_timer`]: observes the elapsed seconds
/// when dropped.
#[derive(Debug)]
pub struct HistogramTimer<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl Drop for HistogramTimer<'_> {
    fn drop(&mut self) {
        self.histogram.observe(self.start.elapsed().as_secs_f64());
    }
}

#[derive(Debug, Clone)]
enum Kind {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Kind {
    fn type_name(&self) -> &'static str {
        match self {
            Kind::Counter(_) => Counter::KIND,
            Kind::Gauge(_) => Gauge::KIND,
            Kind::Histogram(_) => Histogram::KIND,
        }
    }
}

/// The three handle kinds, so one [`metrics!`](crate::metrics!) arm
/// registers any of them.
pub trait Metric: Sized {
    /// The kind's word on a `# TYPE` line.
    const KIND: &'static str;

    /// Get or register this handle in the [`global`] registry. Only a
    /// histogram reads `buckets`.
    fn register(name: &str, help: &str, buckets: &[f64], labels: &[(&str, &str)]) -> Arc<Self>;
}

impl Metric for Counter {
    const KIND: &'static str = "counter";

    fn register(name: &str, help: &str, _: &[f64], labels: &[(&str, &str)]) -> Arc<Self> {
        global().counter_with(name, help, labels)
    }
}

impl Metric for Gauge {
    const KIND: &'static str = "gauge";

    fn register(name: &str, help: &str, _: &[f64], labels: &[(&str, &str)]) -> Arc<Self> {
        global().gauge_with(name, help, labels)
    }
}

impl Metric for Histogram {
    const KIND: &'static str = "histogram";

    fn register(name: &str, help: &str, buckets: &[f64], labels: &[(&str, &str)]) -> Arc<Self> {
        global().histogram_with(name, help, buckets, labels)
    }
}

/// One row of a [`metrics!`](crate::metrics!) table, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Series {
    /// The exposition name.
    pub name: &'static str,
    /// [`Metric::KIND`] of the handle.
    pub kind: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// The label key, for a fixed-label row or a family.
    pub label: Option<&'static str>,
    /// The label value of a fixed-label row (`None` for a family).
    pub value: Option<&'static str>,
}

/// The handles of a family row, one per label value, built on first use.
#[doc(hidden)]
pub type FamilyCache<M> = OnceLock<Vec<(&'static str, Arc<M>)>>;

/// The family accessor [`metrics!`](crate::metrics!) generates: a scan
/// of the cached handles, so only the first call takes the registry
/// lock.
#[doc(hidden)]
pub fn family<M: Metric, I: IntoIterator<Item = &'static str>>(
    cache: &'static FamilyCache<M>,
    values: impl FnOnce() -> I,
    (name, help, buckets, key): (&str, &str, &[f64], &str),
    value: &str,
) -> &'static Arc<M> {
    cache
        .get_or_init(|| {
            values()
                .into_iter()
                .map(|v| (v, M::register(name, help, buckets, &[(key, v)])))
                .collect()
        })
        .iter()
        .find(|(v, _)| *v == value)
        .map(|(_, handle)| handle)
        .unwrap_or_else(|| panic!("{name}: {key} {value:?} is not among its row's values"))
}

/// Declare a crate's metric handles, one row per handle, and generate
/// everything else from the rows:
///
/// * one accessor per row, caching its handle in a `OnceLock` so only
///   the first call takes the registry lock;
/// * `pub const SERIES: &[Series]`, the rows as data;
/// * `pub fn preregister()`, which touches every row, so an exposition
///   shows each series (at zero) before its first use.
///
/// A row is `vis fn accessor: Kind = "name", "help";` where `Kind` is
/// `Counter`, `Gauge` or `Histogram(buckets)`. A fixed label goes after
/// the name (`"name" { key = "value" }`); one row per value spells a
/// family whose values are handles of their own. A family whose
/// accessor takes the value is `fn accessor(key in values)`, where
/// `values` is any `IntoIterator<Item = &'static str>`; asking for a
/// value outside it panics.
///
/// ```
/// use harmony_obs::metrics::LATENCY_SECONDS;
///
/// harmony_obs::metrics! {
///     pub fn jobs_total: Counter = "doc_jobs_total", "Jobs run.";
///     pub fn queue_depth: Gauge = "doc_queue_depth", "Jobs waiting.";
///     pub fn job_seconds: Histogram(LATENCY_SECONDS) = "doc_job_seconds", "Job wall time.";
///     pub fn hits_total: Counter = "doc_lookups_total" { result = "hit" }, "Lookups, by outcome.";
///     pub fn misses_total: Counter = "doc_lookups_total" { result = "miss" }, "Lookups, by outcome.";
///     pub fn runs_total(engine in ["fast", "slow"]): Counter = "doc_runs_total", "Runs, by engine.";
/// }
///
/// jobs_total().inc();
/// runs_total("fast").inc();
/// preregister();
/// assert_eq!(SERIES.len(), 6);
/// let text = harmony_obs::global().encode();
/// assert!(text.contains("doc_runs_total{engine=\"slow\"} 0"));
/// assert!(text.contains("doc_lookups_total{result=\"miss\"} 0"));
/// ```
#[macro_export]
macro_rules! metrics {
    ($(
        $vis:vis fn $fn:ident $(($fkey:ident in $values:expr))?: $kind:ident $(($buckets:expr))?
            = $name:literal $({ $key:ident = $value:literal })?, $help:literal;
    )*) => {
        $($crate::metrics!(
            @accessor [$vis] $fn [$($fkey in $values)?] $kind [$($buckets)?] $name, $help, [$($key = $value)?]
        );)*

        /// Every row of this crate's metric table.
        pub const SERIES: &[$crate::metrics::Series] = &[$($crate::metrics::Series {
            name: $name,
            kind: <$crate::metrics::$kind as $crate::metrics::Metric>::KIND,
            help: $help,
            label: $crate::metrics!(@some $(stringify!($key))? $(stringify!($fkey))?),
            value: $crate::metrics!(@some $($value)?),
        },)*];

        /// Register every series of this crate's metric table, so an
        /// exposition shows them (at zero) before their first use.
        pub fn preregister() {
            $($crate::metrics!(@touch $fn [$($fkey in $values)?]);)*
        }
    };
    (@accessor [$vis:vis] $fn:ident [] $kind:ident [$($buckets:expr)?] $name:literal, $help:literal,
        [$($key:ident = $value:literal)?]) => {
        #[doc = $help]
        $vis fn $fn() -> &'static ::std::sync::Arc<$crate::metrics::$kind> {
            static H: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::$kind>> =
                ::std::sync::OnceLock::new();
            H.get_or_init(|| {
                <$crate::metrics::$kind as $crate::metrics::Metric>::register(
                    $name,
                    $help,
                    $crate::metrics!(@buckets $($buckets)?),
                    &[$((stringify!($key), $value))?],
                )
            })
        }
    };
    (@accessor [$vis:vis] $fn:ident [$fkey:ident in $values:expr] $kind:ident [$($buckets:expr)?]
        $name:literal, $help:literal, []) => {
        #[doc = $help]
        $vis fn $fn(value: &str) -> &'static ::std::sync::Arc<$crate::metrics::$kind> {
            static H: $crate::metrics::FamilyCache<$crate::metrics::$kind> =
                ::std::sync::OnceLock::new();
            let row: (&str, &str, &[f64], &str) =
                ($name, $help, $crate::metrics!(@buckets $($buckets)?), stringify!($fkey));
            $crate::metrics::family(&H, || $values, row, value)
        }
    };
    (@buckets) => { &[] };
    (@buckets $buckets:expr) => { $buckets };
    (@some) => { None };
    (@some $x:expr) => { Some($x) };
    (@touch $fn:ident []) => { $fn(); };
    (@touch $fn:ident [$fkey:ident in $values:expr]) => {
        for value in $values {
            $fn(value);
        }
    };
}

#[derive(Debug)]
struct Entry {
    help: String,
    kind: Kind,
}

type MetricKey = (String, Vec<(String, String)>);

/// A collection of named metrics.
///
/// Most code uses the process-wide [`global`] registry; a private
/// `Registry::new()` exists for tests that need isolation.
#[derive(Debug, Default)]
pub struct Registry {
    entries: RwLock<BTreeMap<MetricKey, Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Get or register a counter carrying fixed labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, || {
            Kind::Counter(Arc::new(Counter::default()))
        }) {
            Kind::Counter(c) => c,
            other => mismatch(name, "counter", &other),
        }
    }

    /// Get or register an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Get or register a gauge carrying fixed labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, help, labels, || {
            Kind::Gauge(Arc::new(Gauge::default()))
        }) {
            Kind::Gauge(g) => g,
            other => mismatch(name, "gauge", &other),
        }
    }

    /// Get or register an unlabelled histogram with the given bucket
    /// upper bounds (strictly ascending; `+Inf` is implicit).
    pub fn histogram(&self, name: &str, help: &str, buckets: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, buckets, &[])
    }

    /// Get or register a histogram carrying fixed labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        buckets: &[f64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.get_or_insert(name, help, labels, || {
            Kind::Histogram(Arc::new(Histogram::new(buckets)))
        }) {
            Kind::Histogram(h) => h,
            other => mismatch(name, "histogram", &other),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Kind,
    ) -> Kind {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let key: MetricKey = (
            name.to_string(),
            labels
                .iter()
                .map(|(k, v)| {
                    assert!(valid_name(k), "invalid label name {k:?}");
                    (k.to_string(), v.to_string())
                })
                .collect(),
        );
        if let Some(entry) = self
            .entries
            .read()
            .expect("metrics registry poisoned")
            .get(&key)
        {
            return entry.kind.clone();
        }
        let mut entries = self.entries.write().expect("metrics registry poisoned");
        entries
            .entry(key)
            .or_insert_with(|| Entry {
                help: help.to_string(),
                kind: make(),
            })
            .kind
            .clone()
    }

    /// Number of registered metric series.
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .expect("metrics registry poisoned")
            .len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encode every metric in the Prometheus text exposition format.
    ///
    /// Series sharing a name (same metric, different labels) are grouped
    /// under one `# HELP`/`# TYPE` header; histograms expand into
    /// cumulative `_bucket{le="…"}` series plus `_sum` and `_count`.
    pub fn encode(&self) -> String {
        let entries = self.entries.read().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for ((name, labels), entry) in entries.iter() {
            if last_name != Some(name.as_str()) {
                out.push_str("# HELP ");
                out.push_str(name);
                out.push(' ');
                escape_help(&mut out, &entry.help);
                out.push('\n');
                out.push_str("# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(entry.kind.type_name());
                out.push('\n');
                last_name = Some(name.as_str());
            }
            match &entry.kind {
                Kind::Counter(c) => {
                    write_series(&mut out, name, labels, None, &c.get().to_string());
                }
                Kind::Gauge(g) => {
                    write_series(&mut out, name, labels, None, &g.get().to_string());
                }
                Kind::Histogram(h) => {
                    let exemplars = h.exemplars();
                    for (i, (bound, cumulative)) in h.buckets().into_iter().enumerate() {
                        let le = if bound.is_finite() {
                            format_f64(bound)
                        } else {
                            "+Inf".to_string()
                        };
                        let mut value = cumulative.to_string();
                        if let Some(Some((trace_id, observed))) = exemplars.get(i) {
                            // OpenMetrics-style exemplar: links the
                            // bucket to a flight-recorder trace.
                            value.push_str(&format!(
                                " # {{trace_id=\"{trace_id:016x}\"}} {}",
                                format_f64(*observed)
                            ));
                        }
                        write_series(
                            &mut out,
                            &format!("{name}_bucket"),
                            labels,
                            Some(("le", &le)),
                            &value,
                        );
                    }
                    write_series(
                        &mut out,
                        &format!("{name}_sum"),
                        labels,
                        None,
                        &format_f64(h.sum()),
                    );
                    write_series(
                        &mut out,
                        &format!("{name}_count"),
                        labels,
                        None,
                        &h.count().to_string(),
                    );
                }
            }
        }
        out
    }
}

/// The process-wide registry every instrumented crate shares.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

fn mismatch(name: &str, wanted: &str, got: &Kind) -> ! {
    panic!(
        "metric {name:?} already registered as a {}, requested as a {wanted}",
        got.type_name()
    );
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn write_series(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            escape_label(out, v);
            out.push('"');
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            escape_label(out, v);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn escape_label(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// HELP text escaping per the Prometheus text format: backslash and
/// newline only (quotes are legal in help text).
fn escape_help(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Shortest-round-trip float formatting (Prometheus accepts any valid
/// float literal).
fn format_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_count() {
        let r = Registry::new();
        let c = r.counter("c_total", "a counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("g", "a gauge");
        g.set(7);
        g.dec();
        g.add(-2);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("dup_total", "first");
        let b = r.counter("dup_total", "second help is ignored");
        a.inc();
        assert_eq!(b.get(), 1, "same handle behind both registrations");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn labelled_series_are_distinct() {
        let r = Registry::new();
        let hit = r.counter_with("ws_total", "warm starts", &[("result", "hit")]);
        let miss = r.counter_with("ws_total", "warm starts", &[("result", "miss")]);
        hit.inc();
        hit.inc();
        miss.inc();
        assert_eq!(hit.get(), 2);
        assert_eq!(miss.get(), 1);
        let text = r.encode();
        assert!(text.contains("ws_total{result=\"hit\"} 2"), "{text}");
        assert!(text.contains("ws_total{result=\"miss\"} 1"), "{text}");
        // One header for the shared name.
        assert_eq!(text.matches("# TYPE ws_total counter").count(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("twice", "as counter");
        r.gauge("twice", "as gauge");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        Registry::new().counter("no spaces", "help");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", "latency", &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 56.05).abs() < 1e-9);
        assert_eq!(
            h.buckets(),
            vec![(0.1, 1), (1.0, 3), (10.0, 4), (f64::INFINITY, 5)]
        );
        let text = r.encode();
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("lat_seconds_count 5"), "{text}");
    }

    #[test]
    fn histogram_boundary_lands_in_its_bucket() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.0); // le="1" includes exactly 1.0
        assert_eq!(h.buckets()[0], (1.0, 1));
    }

    #[test]
    fn histogram_ignores_non_finite_sums() {
        let h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.buckets(), vec![(1.0, 0), (f64::INFINITY, 2)]);
    }

    #[test]
    fn timer_observes_on_drop() {
        let h = Histogram::new(&[1000.0]);
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.0);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Arc::new(Registry::new());
        let c = r.counter("conc_total", "hammered");
        let h = r.histogram("conc_seconds", "hammered", &[0.5]);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(if i % 2 == 0 { 0.25 } else { 0.75 });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
        assert_eq!(h.buckets(), vec![(0.5, 4000), (f64::INFINITY, 8000)]);
        assert!((h.sum() - 4000.0).abs() < 1e-6);
    }

    #[test]
    fn exposition_groups_and_sorts() {
        let r = Registry::new();
        r.counter("b_total", "second").inc();
        r.gauge("a_gauge", "first").set(3);
        let text = r.encode();
        let a = text.find("a_gauge").unwrap();
        let b = text.find("b_total").unwrap();
        assert!(a < b, "series are name-sorted:\n{text}");
        assert!(text.contains("# HELP a_gauge first"));
        assert!(text.contains("# TYPE a_gauge gauge"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("esc_total", "h", &[("msg", "a\"b\\c\nd")])
            .inc();
        let text = r.encode();
        assert!(
            text.contains("esc_total{msg=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn help_text_is_escaped() {
        // Per the text-format spec, HELP escapes backslash and newline
        // (a raw newline would terminate the comment mid-help and make
        // the next fragment parse as a bogus series).
        let r = Registry::new();
        r.counter("esc_help_total", "line one\nline two \\ done")
            .inc();
        let text = r.encode();
        assert!(
            text.contains("# HELP esc_help_total line one\\nline two \\\\ done\n"),
            "{text}"
        );
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("esc_help_total"),
                "help newline leaked into the exposition: {line:?}"
            );
        }
    }

    #[test]
    fn histogram_buckets_carry_exemplar_trace_ids() {
        let r = Registry::new();
        let h = r.histogram("exm_seconds", "latency", &[1.0, 10.0]);
        h.observe(0.5); // outside any trace: no exemplar
        assert!(h.exemplars().iter().all(Option::is_none));
        crate::trace::enable(crate::trace::RecorderConfig::default());
        let root = crate::trace::start_root(crate::trace::stage::SESSION, "exm");
        let trace_id = root.context().unwrap().trace_id;
        h.observe(5.0);
        drop(root);
        crate::trace::disable();
        let exemplars = h.exemplars();
        assert_eq!(exemplars[0], None);
        assert_eq!(exemplars[1], Some((trace_id, 5.0)));
        let text = r.encode();
        let expected =
            format!("exm_seconds_bucket{{le=\"10\"}} 2 # {{trace_id=\"{trace_id:016x}\"}} 5");
        assert!(text.contains(&expected), "{text}");
        // Untraced buckets render exactly as before.
        assert!(text.contains("exm_seconds_bucket{le=\"1\"} 1\n"), "{text}");
    }
}
