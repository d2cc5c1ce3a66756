//! Lock-free serving statistics: per-verb request counters and full
//! latency *distributions*, cache hit rates and batch-shape telemetry.
//!
//! Each verb owns a [`LatencyHisto`] — a log-linear histogram recorded
//! with relaxed atomics only, so the hot path stays lock-free while
//! `METRICS` reports exact p50/p99/p999 next to `_sum`/`_count` (whose
//! ratio is the mean). Errors are broken down by kind (parse vs exec vs
//! shed) rather than one undifferentiated counter. Every counter here
//! reaches the wire through [`ServerStats::register_metrics`] only.

use pfr_obs::{LatencyHisto, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One verb's counters: exec-error count and the full latency
/// distribution, whose count is the request count.
#[derive(Debug, Default)]
pub struct VerbStats {
    errors: AtomicU64,
    latency: Arc<LatencyHisto>,
}

impl VerbStats {
    /// Records one completed request and its wall-clock latency. Lock-free.
    pub fn record(&self, latency: Duration, ok: bool) {
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        // `record_duration` saturates at u64::MAX nanoseconds instead of
        // silently truncating the u128 — a >584-year latency is a bug, but
        // it should show up as a huge outlier, not wrap to a tiny one.
        self.latency.record_duration(latency);
    }

    /// Number of requests seen.
    pub fn requests(&self) -> u64 {
        self.latency.count()
    }

    /// Number of requests that returned an exec error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The live latency histogram (shareable with a metrics registry).
    pub fn latency(&self) -> &Arc<LatencyHisto> {
        &self.latency
    }
}

/// Aggregate statistics for a serving instance.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// `LOAD` verb counters.
    pub load: VerbStats,
    /// `SCORE` verb counters.
    pub score: VerbStats,
    /// `TRANSFORM` verb counters.
    pub transform: VerbStats,
    /// `METRICS`/`TRACE` verb counters — telemetry reads, kept apart so
    /// scraping cannot distort the data-path figures.
    pub metrics: VerbStats,
    /// `HEALTH` verb counters (router probes land here, not under
    /// `metrics`, so probe traffic cannot distort the scrape figures).
    pub health: VerbStats,
    /// `EPOCH` verb counters.
    pub epoch: VerbStats,
    /// `CATALOG`/`SYNC` verb counters — the control-plane replication
    /// traffic, kept out of the data-path verbs so anti-entropy chatter
    /// cannot distort scoring figures.
    pub catalog: VerbStats,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    batches: AtomicU64,
    batched_rows: AtomicU64,
    max_batch: AtomicU64,
    connections: AtomicU64,
    sheds: AtomicU64,
    inflight: AtomicU64,
    parse_errors: AtomicU64,
    slow_requests: AtomicU64,
}

impl ServerStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Records a score served straight from the cache.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a score that had to be computed.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executed micro-batch of `size` coalesced requests.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_rows.fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
    }

    /// Records an accepted client connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection shed at accept time (closed with a `BUSY` line
    /// because the connection limit was reached).
    pub fn record_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request line that failed to parse — the "parse" bucket of
    /// the error-kind breakdown (exec errors live on their verb, sheds on
    /// the shed counter).
    pub fn record_parse_error(&self) {
        self.parse_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a traced request that breached the slow-trace threshold.
    pub fn record_slow_request(&self) {
        self.slow_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Traced requests that breached the slow-trace threshold.
    pub fn slow_requests(&self) -> u64 {
        self.slow_requests.load(Ordering::Relaxed)
    }

    /// Raises the in-flight gauge — the reactor front end tracks a request
    /// from parse to asynchronous completion, which no borrow-scoped guard
    /// can span. Every `inflight_enter` must be paired with exactly one
    /// [`ServerStats::inflight_exit`].
    pub(crate) fn inflight_enter(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers the in-flight gauge (see [`ServerStats::inflight_enter`]).
    pub(crate) fn inflight_exit(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests currently being parsed, queued or scored — the `queue=`
    /// load signal a `HEALTH` probe reports to the routing tier.
    pub fn queue_depth(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Number of micro-batches executed.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Rows scored across all micro-batches; over [`ServerStats::batches`]
    /// it is the mean batch size.
    pub fn batched_rows(&self) -> u64 {
        self.batched_rows.load(Ordering::Relaxed)
    }

    /// Largest micro-batch executed.
    pub fn max_batch(&self) -> u64 {
        self.max_batch.load(Ordering::Relaxed)
    }

    /// Accepted connections.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Connections shed at accept time under overload.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Request lines rejected by the parser.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors.load(Ordering::Relaxed)
    }

    /// Exec errors summed across verbs — the "exec" bucket of the
    /// error-kind breakdown.
    pub fn exec_errors(&self) -> u64 {
        VERBS.iter().map(|(_, pick)| pick(self).errors()).sum()
    }

    /// Registers every counter, gauge and per-verb latency histogram on
    /// `registry` under the `pfr_serve_*` namespace. `self` must be the
    /// `Arc` the server shares — the gauges capture it.
    pub fn register_metrics(self: &Arc<Self>, registry: &MetricsRegistry) {
        macro_rules! gauge {
            ($name:expr, $labels:expr, $read:expr) => {{
                let stats = Arc::clone(self);
                registry.gauge($name, $labels, Arc::new(move || ($read)(&stats) as f64));
            }};
        }
        for (name, pick) in VERBS {
            let labels = &[("verb", name)];
            gauge!("pfr_serve_requests_total", labels, |s| pick(s).requests());
            gauge!("pfr_serve_verb_errors_total", labels, |s| pick(s).errors());
            registry.histogram(
                "pfr_serve_latency_ns",
                labels,
                Arc::clone(pick(self).latency()),
            );
        }
        gauge!(
            "pfr_serve_errors_total",
            &[("kind", "parse")],
            ServerStats::parse_errors
        );
        gauge!(
            "pfr_serve_errors_total",
            &[("kind", "exec")],
            ServerStats::exec_errors
        );
        gauge!(
            "pfr_serve_errors_total",
            &[("kind", "shed")],
            ServerStats::sheds
        );
        gauge!("pfr_serve_cache_hits_total", &[], ServerStats::cache_hits);
        gauge!(
            "pfr_serve_cache_misses_total",
            &[],
            ServerStats::cache_misses
        );
        gauge!("pfr_serve_batches_total", &[], ServerStats::batches);
        gauge!(
            "pfr_serve_batched_rows_total",
            &[],
            ServerStats::batched_rows
        );
        gauge!("pfr_serve_max_batch", &[], ServerStats::max_batch);
        gauge!("pfr_serve_connections_total", &[], ServerStats::connections);
        gauge!("pfr_serve_sheds_total", &[], ServerStats::sheds);
        gauge!("pfr_serve_inflight", &[], ServerStats::queue_depth);
        gauge!(
            "pfr_serve_slow_requests_total",
            &[],
            ServerStats::slow_requests
        );
    }
}

/// Reads one verb's counters out of the shared stats.
type PickVerb = fn(&ServerStats) -> &VerbStats;

/// Every verb bucket under its `verb="…"` label — the one table the
/// registry gauges and the exec-error sum walk. Plain function pointers
/// keep the registered closures `'static` while they read through the
/// shared `Arc`.
const VERBS: [(&str, PickVerb); 7] = [
    ("load", |s| &s.load),
    ("score", |s| &s.score),
    ("transform", |s| &s.transform),
    ("metrics", |s| &s.metrics),
    ("health", |s| &s.health),
    ("epoch", |s| &s.epoch),
    ("catalog", |s| &s.catalog),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders `stats` through a fresh registry and parses it back.
    fn scrape(stats: &Arc<ServerStats>) -> pfr_obs::Scrape {
        let registry = MetricsRegistry::new();
        stats.register_metrics(&registry);
        pfr_obs::Scrape::parse(&registry.render())
    }

    #[test]
    fn inflight_gauge_rises_and_falls_with_enter_and_exit() {
        let s = Arc::new(ServerStats::new());
        assert_eq!(s.queue_depth(), 0);
        s.inflight_enter();
        s.inflight_enter();
        assert_eq!(s.queue_depth(), 2);
        assert_eq!(scrape(&s).scalar("pfr_serve_inflight"), Some(2.0));
        s.inflight_exit();
        assert_eq!(s.queue_depth(), 1);
        s.inflight_exit();
        assert_eq!(s.queue_depth(), 0);
    }

    #[test]
    fn verb_stats_accumulate_and_average() {
        let v = VerbStats::default();
        assert_eq!(v.latency().snapshot().mean(), 0);
        v.record(Duration::from_nanos(100), true);
        v.record(Duration::from_nanos(300), false);
        assert_eq!(v.requests(), 2);
        assert_eq!(v.errors(), 1);
        assert_eq!(v.latency().snapshot().mean(), 200);
    }

    #[test]
    fn verb_latency_distribution_reports_tails() {
        let v = VerbStats::default();
        for _ in 0..99 {
            v.record(Duration::from_nanos(1_000), true);
        }
        v.record(Duration::from_micros(100), true);
        let snap = v.latency().snapshot();
        assert_eq!(snap.count, 100);
        // p50 sits at the common case, p999 catches the outlier the old
        // mean-only accumulation averaged away.
        assert!(snap.p50() < 2_000, "p50 {}", snap.p50());
        assert!(snap.p999() >= 100_000, "p999 {}", snap.p999());
    }

    #[test]
    fn error_kinds_are_broken_down() {
        let s = Arc::new(ServerStats::new());
        s.record_parse_error();
        s.record_parse_error();
        s.score.record(Duration::from_nanos(10), false);
        s.record_shed();
        assert_eq!(s.parse_errors(), 2);
        assert_eq!(s.exec_errors(), 1);
        assert_eq!(s.sheds(), 1);
        let scrape = scrape(&s);
        for (kind, want) in [("parse", 2.0), ("exec", 1.0), ("shed", 1.0)] {
            let key = format!("pfr_serve_errors_total{{kind=\"{kind}\"}}");
            assert_eq!(scrape.scalar(&key), Some(want), "{key}");
        }
    }

    #[test]
    fn batch_telemetry_tracks_rows_and_max() {
        let s = Arc::new(ServerStats::new());
        s.record_batch(1);
        s.record_batch(7);
        s.record_batch(4);
        assert_eq!(s.batches(), 3);
        assert_eq!(s.max_batch(), 7);
        // Rows over batches is the mean batch size.
        let scrape = scrape(&s);
        assert_eq!(scrape.scalar("pfr_serve_batches_total"), Some(3.0));
        assert_eq!(scrape.scalar("pfr_serve_batched_rows_total"), Some(12.0));
        assert_eq!(scrape.scalar("pfr_serve_max_batch"), Some(7.0));
    }

    #[test]
    fn registered_metrics_render_per_verb_histograms() {
        let s = Arc::new(ServerStats::new());
        s.score.record(Duration::from_micros(3), true);
        s.metrics.record(Duration::from_micros(1), true);
        s.record_cache_hit();
        s.record_cache_miss();
        s.record_connection();
        let registry = MetricsRegistry::new();
        s.register_metrics(&registry);
        let text = registry.render();
        assert!(text.contains("pfr_serve_requests_total{verb=\"score\"} 1\n"));
        assert!(text.contains("pfr_serve_requests_total{verb=\"metrics\"} 1\n"));
        assert!(text.contains("pfr_serve_latency_ns_count{verb=\"score\"} 1\n"));
        assert!(text.contains("pfr_serve_latency_ns_p999{verb=\"score\"}"));
        assert!(text.contains("pfr_serve_errors_total{kind=\"parse\"} 0\n"));
        assert!(text.contains("pfr_serve_cache_hits_total 1\n"));
        assert!(text.contains("pfr_serve_cache_misses_total 1\n"));
        assert!(text.contains("pfr_serve_connections_total 1\n"));
        assert!(!text.contains("verb=\"stats\""), "{text}");
    }

    #[test]
    fn counters_are_safe_under_concurrency() {
        let s = Arc::new(ServerStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_cache_hit();
                        s.score.record(Duration::from_nanos(10), true);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.cache_hits(), 4000);
        assert_eq!(s.score.requests(), 4000);
        assert_eq!(s.score.latency().snapshot().count, 4000);
    }
}
