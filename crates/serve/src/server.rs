//! The TCP serving instance: configuration, the shared request context
//! that ties registry, cache, batcher and pool together, the verb handlers
//! the reactor front end calls, and journal recovery.
//!
//! ```text
//!            ┌────────────┐   SCORE    ┌─────────────┐      ┌────────────┐
//! client ──► │  reactor   │ ──miss───► │ MicroBatcher│ ───► │ WorkerPool │
//!            │ (protocol) │ ◄──reply── │  (coalesce) │      │  (GEMM)    │
//!            └─────┬──────┘            └─────────────┘      └────────────┘
//!                  │ hit                       ▲
//!                  ▼                           │
//!            ┌────────────┐              ┌───────────┐
//!            │ ScoreCache │              │ Registry  │ (LOAD hot-swap)
//!            └────────────┘              └───────────┘
//! ```
//!
//! The cache sits in front of the batcher: a hit answers on the reactor
//! thread without touching the pool; a miss pays one batched scoring pass
//! and populates the cache for every identical future request against the
//! same model generation. Connection handling lives in the reactor pool
//! (`reactor_front.rs`).

use crate::batcher::{BatcherConfig, MicroBatcher};
use crate::cache::{CachePolicy, ScoreCache, ScoreKey};
use crate::error::ServeError;
use crate::registry::ModelRegistry;
use crate::stats::ServerStats;
use crate::Result;
use pfr_journal::{Journal, JournalConfig, Record};
use pfr_obs::{ActiveSpan, MetricsRegistry, Sampler, SpanRing, TraceStore};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a serving instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Reactor event-loop threads sharing the listener (clamped to at
    /// least 1). Accepted connections distribute across the pool, and an
    /// idle client costs buffer space, not a thread.
    pub reactors: usize,
    /// Worker threads executing scoring/transform jobs.
    pub workers: usize,
    /// Micro-batching parameters.
    pub batcher: BatcherConfig,
    /// LRU score-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Score-cache entries expire this long after insertion (`None` =
    /// never; see [`CachePolicy::ttl`]).
    pub cache_ttl: Option<Duration>,
    /// Per-model-generation score-cache bound (`None` = none; see
    /// [`CachePolicy::per_model`]).
    pub cache_per_model: Option<usize>,
    /// Directory the network-facing `LOAD` verb may read bundles from.
    /// `None` allows any path — acceptable on the default loopback bind,
    /// but a server exposed beyond localhost should restrict `LOAD` (the
    /// verb otherwise lets any client probe arbitrary filesystem paths).
    /// In-process loading via [`Server::registry`] is never restricted.
    pub bundle_dir: Option<std::path::PathBuf>,
    /// Drop connections idle longer than this (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Write-ahead journal configuration (`None` = no journaling). When
    /// set, every accepted `SCORE`/`TRANSFORM`/`LOAD`/`PUSH` is appended to
    /// the journal *before* it executes (bundle text inlined for `LOAD` and
    /// `PUSH`, so replay needs no filesystem), and
    /// [`Server::recover_from_journal`] can rebuild the registry and
    /// re-warm the score cache to the exact pre-crash state. A request the
    /// journal cannot record fails with an `ERR` — durability is part of
    /// accepting it. Note that models installed in-process via
    /// [`Server::registry`] bypass the wire handlers and are **not**
    /// journaled; use `LOAD`/`PUSH` for installs that must survive a crash.
    pub journal: Option<JournalConfig>,
    /// Most simultaneously connected clients the server admits (`None` =
    /// unlimited). A connection accepted past the limit is **shed**:
    /// answered with one [`crate::protocol::BUSY`] line and closed, and
    /// counted by `pfr_serve_sheds_total` on `METRICS`. Load-shedding protects
    /// tail latency for the connections already admitted; the routing tier
    /// treats `BUSY` as "walk on to another replica".
    pub max_connections: Option<usize>,
    /// Trace one in every `trace_sample_every` otherwise-untraced requests
    /// (0 disables server-initiated sampling). Requests arriving with a
    /// `T=<id>` wire token are always traced regardless — the upstream
    /// tier already decided they matter.
    pub trace_sample_every: u64,
    /// Traced requests slower than this get their span breakdown appended
    /// to the journal as a slow-trace record (`None` disables the slow
    /// log). Only traced requests are eligible, so the sampling rate
    /// bounds the logging cost.
    pub slow_trace_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            reactors: 1,
            workers: 4,
            batcher: BatcherConfig::default(),
            cache_capacity: 4096,
            cache_ttl: None,
            cache_per_model: None,
            bundle_dir: None,
            idle_timeout: None,
            journal: None,
            max_connections: None,
            trace_sample_every: 0,
            slow_trace_threshold: None,
        }
    }
}

/// Everything the request paths share across the reactor pool.
pub(crate) struct ServeContext {
    pub(crate) registry: ModelRegistry,
    pub(crate) cache: Arc<Mutex<ScoreCache>>,
    pub(crate) batcher: MicroBatcher,
    pub(crate) pool: Arc<crate::pool::WorkerPool>,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) bundle_dir: Option<std::path::PathBuf>,
    pub(crate) journal: Option<Arc<Journal>>,
    /// What the last [`Server::recover_from_journal`] rebuilt; exposed as
    /// the `pfr_serve_recovered_*` gauges so replay truncation/skips are
    /// visible at runtime.
    recovery: Arc<Mutex<Option<RecoveryReport>>>,
    /// Every counter/gauge/histogram this process exposes via `METRICS`.
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// Span rings the `TRACE` verb reads back (one per reactor thread).
    pub(crate) traces: Arc<TraceStore>,
    /// Decides which untraced requests get a server-minted span.
    pub(crate) sampler: Sampler,
    /// Slow-request log threshold (see
    /// [`ServerConfig::slow_trace_threshold`]).
    pub(crate) slow_threshold: Option<Duration>,
    /// The replicated placement catalog this backend stores for the
    /// router tier (`CATALOG`/`SYNC` verbs). The server never interprets
    /// it — it orders, stores and serves the value so that a restarted
    /// router can bootstrap its control-plane state from any backend.
    pub(crate) catalog: Mutex<Option<pfr_control::Catalog>>,
}

impl ServeContext {
    /// Appends a journal record if journaling is configured. The record is
    /// built lazily so the non-journaling hot path pays nothing. An append
    /// failure fails the request: a server that promised durability must
    /// not serve what it could not record.
    pub(crate) fn journal_append(&self, record: impl FnOnce() -> Record) -> Result<()> {
        if let Some(journal) = &self.journal {
            journal
                .append(&record())
                .map_err(|e| ServeError::Journal(e.to_string()))?;
        }
        Ok(())
    }

    /// Starts a span when this request should be traced: always when it
    /// arrived with a wire token (`wire_trace`), otherwise when the
    /// sampler fires. Untraced requests pay one relaxed atomic add in the
    /// sampler and nothing else.
    pub(crate) fn begin_span(
        &self,
        wire_trace: Option<u64>,
        name: &'static str,
    ) -> Option<ActiveSpan> {
        match wire_trace {
            Some(id) => Some(ActiveSpan::new(id, name)),
            None if self.sampler.fire() => Some(ActiveSpan::new(pfr_obs::mint_trace_id(), name)),
            None => None,
        }
    }

    /// Closes a span into `ring` and, when the request breached the slow
    /// threshold, writes its breakdown through the journal as a
    /// slow-trace record (best effort: a full disk must not fail a
    /// request that already succeeded).
    pub(crate) fn finish_span(&self, span: ActiveSpan, ring: &SpanRing) {
        let trace_id = span.trace_id();
        let total_ns = span.finish(ring);
        let Some(threshold) = self.slow_threshold else {
            return;
        };
        if total_ns < u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX) {
            return;
        }
        self.stats.record_slow_request();
        if let Some(journal) = &self.journal {
            if let Some(record) = ring.find(trace_id).into_iter().next_back() {
                let _ = journal.append(&Record::SlowTrace {
                    trace_id,
                    total_ns,
                    text: record.render(0),
                });
            }
        }
    }

    /// The `TRACE <id>` payload: every recorded span under `id`, escaped
    /// onto one line. Unknown ids are an error — either the id was never
    /// sampled here or its spans have been evicted.
    pub(crate) fn trace_payload(&self, id: u64) -> Result<String> {
        let spans = self.traces.find(id);
        if spans.is_empty() {
            return Err(ServeError::Protocol(format!("no recorded trace {id:016x}")));
        }
        let mut text = String::new();
        for span in &spans {
            text.push_str(&span.render(0));
        }
        Ok(pfr_obs::escape_multiline(&text))
    }
}

/// What [`Server::recover_from_journal`] rebuilt from the journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Total checksum-valid frames replayed.
    pub frames: u64,
    /// `LOAD`/`PUSH` frames whose inlined bundle was reinstalled.
    pub installs: usize,
    /// `SCORE` frames replayed against a loaded model (cached or not).
    pub scores: usize,
    /// Distinct cache entries inserted by replay — a vector scored twice
    /// pre-crash warms once.
    pub warmed: usize,
    /// `TRANSFORM` frames acknowledged (pure reads; nothing to rebuild).
    pub transforms: usize,
    /// Frames that could not be applied — typically requests against a
    /// model whose install frame fell to segment retention.
    pub skipped: usize,
    /// Highest sequence number replayed (0 when the journal is empty).
    pub last_seq: u64,
    /// Bytes past the last valid frame ignored during replay. Normally 0:
    /// opening the journal already truncated any torn tail.
    pub truncated_bytes: u64,
}

/// Registers the gauges only the serving context can read: the live
/// cache-entry count (`len` purges expired entries first, so the gauge
/// reports what the cache actually holds) and, with a journal, the last
/// [`RecoveryReport`] (all zero until a recovery runs). The gauges hold the
/// cache and the recovery slot, never the context: the context owns the
/// registry, so capturing it would leak the whole server state.
fn register_context_gauges(
    metrics: &MetricsRegistry,
    cache: &Arc<Mutex<ScoreCache>>,
    recovery: Option<&Arc<Mutex<Option<RecoveryReport>>>>,
) {
    let live = Arc::clone(cache);
    metrics.gauge(
        "pfr_serve_cache_entries",
        &[],
        Arc::new(move || live.lock().expect("cache lock poisoned").len() as f64),
    );
    let Some(recovery) = recovery else {
        return;
    };
    let gauge = |name: &str, read: fn(&RecoveryReport) -> u64| {
        let slot = Arc::clone(recovery);
        metrics.gauge(
            name,
            &[],
            Arc::new(move || {
                let report = *slot.lock().expect("recovery lock poisoned");
                report.map_or(0, |r| read(&r)) as f64
            }),
        );
    };
    gauge("pfr_serve_recovered_frames", |r| r.frames);
    gauge("pfr_serve_recovered_installs", |r| r.installs as u64);
    gauge("pfr_serve_recovered_scores", |r| r.scores as u64);
    gauge("pfr_serve_recovered_warmed", |r| r.warmed as u64);
    gauge("pfr_serve_recovered_skipped", |r| r.skipped as u64);
    gauge("pfr_serve_recovered_last_seq", |r| r.last_seq);
    gauge("pfr_serve_recovered_truncated_bytes", |r| r.truncated_bytes);
}

/// A running server: address, shared state handles, and shutdown control.
pub struct Server {
    addr: SocketAddr,
    context: Arc<ServeContext>,
    shutdown: Arc<AtomicBool>,
    /// The reactor threads, joined on shutdown.
    threads: Vec<JoinHandle<()>>,
    /// One waker per reactor, rung on shutdown so each loop notices.
    wakers: Vec<Arc<pfr_net::Waker>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds, spawns the reactor pool and returns the running server.
    pub fn spawn(config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // The reactor must never block in accept.
        listener.set_nonblocking(true)?;
        let stats = Arc::new(ServerStats::new());
        let pool = Arc::new(crate::pool::WorkerPool::new(config.workers));
        let batcher = MicroBatcher::new(
            config.batcher.clone(),
            Arc::clone(&pool),
            Arc::clone(&stats),
        );
        let journal = match &config.journal {
            Some(journal_config) => Some(Arc::new(
                Journal::open(journal_config.clone())
                    .map_err(|e| ServeError::Journal(e.to_string()))?,
            )),
            None => None,
        };
        let cache = Arc::new(Mutex::new(ScoreCache::with_policy(CachePolicy {
            capacity: config.cache_capacity,
            ttl: config.cache_ttl,
            per_model: config.cache_per_model,
        })));
        let recovery = Arc::new(Mutex::new(None));
        let metrics = Arc::new(MetricsRegistry::new());
        stats.register_metrics(&metrics);
        if let Some(journal) = &journal {
            journal.register_metrics(&metrics);
        }
        register_context_gauges(&metrics, &cache, journal.is_some().then_some(&recovery));
        let traces = Arc::new(TraceStore::new());
        {
            let traces = Arc::clone(&traces);
            metrics.gauge(
                "pfr_trace_slowest_ns",
                &[],
                Arc::new(move || traces.slowest().map(|s| s.total_ns as f64).unwrap_or(0.0)),
            );
        }
        let context = Arc::new(ServeContext {
            registry: ModelRegistry::new(),
            cache,
            batcher,
            pool,
            stats,
            bundle_dir: config.bundle_dir.clone(),
            journal,
            recovery,
            metrics,
            traces,
            sampler: Sampler::new(config.trace_sample_every),
            slow_threshold: config.slow_trace_threshold,
            catalog: Mutex::new(None),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let (threads, wakers) = crate::reactor_front::spawn_pool(
            listener,
            Arc::clone(&context),
            Arc::clone(&shutdown),
            config.idle_timeout,
            config.reactors,
            config.max_connections,
        )?;
        Ok(Server {
            addr,
            context,
            shutdown,
            threads,
            wakers,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's model registry — loading a model here is equivalent to a
    /// `LOAD` request, which lets a process pre-load models before exposing
    /// the port to clients.
    pub fn registry(&self) -> &ModelRegistry {
        &self.context.registry
    }

    /// Live serving statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.context.stats
    }

    /// The metrics registry backing the `METRICS` verb. Co-located
    /// subsystems (an in-process refit worker, say) register their own
    /// gauges here to ride the same exposition.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.context.metrics
    }

    /// The recorded trace spans backing the `TRACE` verb.
    pub fn traces(&self) -> &TraceStore {
        &self.context.traces
    }

    /// Warms the score cache from an externally recorded request log
    /// (line-delimited `SCORE <name> ...` lines — a wire capture replays
    /// unmodified). Call after loading models and before exposing the
    /// address. Returns `(replayed, skipped)` line counts; truncated or
    /// partially binary logs degrade to skipped lines, never errors. See
    /// [`ScoreCache::warm_from_log`].
    ///
    /// A server running with a journal does not need this: journal replay
    /// ([`Server::recover_from_journal`]) warms the cache from the
    /// server's *own* durable request record instead of an external
    /// capture.
    pub fn warm_from_log(&self, path: &Path) -> Result<(usize, usize)> {
        let registry = &self.context.registry;
        let mut cache = self.context.cache.lock().expect("cache lock poisoned");
        let counts = cache.warm_from_log(path, |name, features| {
            let model = registry.get(name)?;
            let score = model.score_one(features).ok()?;
            Some((model.generation(), score))
        })?;
        Ok(counts)
    }

    /// The write-ahead journal, if one is configured.
    pub fn journal(&self) -> Option<&Journal> {
        self.context.journal.as_deref()
    }

    /// Replays the configured journal to rebuild this server's state to the
    /// exact pre-crash point: `LOAD`/`PUSH` frames reinstall their inlined
    /// bundles into the registry, and `SCORE` frames re-score and re-insert
    /// into the cache (in journal order, so even the LRU recency order
    /// matches what the crashed server held). Scoring is deterministic, so
    /// the warmed entries are bitwise identical to both the pre-crash
    /// responses and offline predictions.
    ///
    /// Call right after [`Server::spawn`], before exposing the address.
    /// Replay applies state directly — nothing is re-journaled — and a
    /// frame that cannot be applied (a `SCORE` for a model whose install
    /// was dropped by segment retention, say) is counted as skipped rather
    /// than aborting the recovery.
    pub fn recover_from_journal(&self) -> Result<RecoveryReport> {
        let journal = self
            .context
            .journal
            .as_ref()
            .ok_or_else(|| ServeError::Journal("no journal configured".to_string()))?;
        let registry = &self.context.registry;
        let mut report = RecoveryReport::default();
        let summary = journal
            .replay(|_seq, record| match record {
                Record::Load { model, bundle_text } | Record::Push { model, bundle_text } => {
                    match registry.load_from_str(&model, &bundle_text) {
                        Ok(_) => report.installs += 1,
                        Err(_) => report.skipped += 1,
                    }
                }
                Record::Score { model, features } => {
                    let warmed = (|| {
                        let servable = registry.get(&model)?;
                        let key = ScoreKey::new(servable.generation(), &features)?;
                        let mut cache = self.context.cache.lock().expect("cache lock poisoned");
                        if cache.get(&key).is_none() {
                            let score = servable.score_one(&features).ok()?;
                            cache.insert(key, score);
                            Some(true)
                        } else {
                            Some(false)
                        }
                    })();
                    match warmed {
                        Some(true) => {
                            report.scores += 1;
                            report.warmed += 1;
                        }
                        Some(false) => report.scores += 1,
                        None => report.skipped += 1,
                    }
                }
                Record::Transform { model, .. } => {
                    // Transforms are pure reads with no cached state to
                    // rebuild; they count toward the replay total only.
                    if registry.get(&model).is_some() {
                        report.transforms += 1;
                    } else {
                        report.skipped += 1;
                    }
                }
                Record::SlowTrace { .. } => {
                    // Slow-trace records are diagnostics riding the same
                    // durable stream; there is no state to rebuild.
                }
            })
            .map_err(|e| ServeError::Journal(e.to_string()))?;
        report.frames = summary.frames;
        report.last_seq = summary.last_seq;
        report.truncated_bytes = summary.truncated_bytes;
        *self
            .context
            .recovery
            .lock()
            .expect("recovery lock poisoned") = Some(report);
        Ok(report)
    }

    /// The version of the replicated placement catalog this backend
    /// currently stores (`None` until a router has `SYNC`ed one) — the
    /// in-process view of what the `CATALOG` verb reports.
    pub fn catalog_version(&self) -> Option<pfr_control::Version> {
        self.context
            .catalog
            .lock()
            .expect("catalog lock poisoned")
            .as_ref()
            .map(|c| c.version())
    }

    /// The report of the last [`Server::recover_from_journal`], if one ran.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        *self
            .context
            .recovery
            .lock()
            .expect("recovery lock poisoned")
    }

    /// Gracefully shuts the server down: stops accepting, closes every
    /// established connection and joins the reactor threads. No thread or
    /// socket outlives this call.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Every reactor notices the flag on its wake, closes the
        // connections it owns and exits.
        for waker in &self.wakers {
            let _ = waker.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `HEALTH`: liveness plus the signals a routing tier keys decisions on —
/// how many models are loaded, how often they have been swapped, and the
/// instantaneous queue depth. The `queue=` figure includes this HEALTH
/// request itself, so an idle server reports `queue=1`.
pub(crate) fn handle_health(context: &ServeContext) -> String {
    format!(
        "up models={} swaps={} queue={}",
        context.registry.len(),
        context.registry.hot_swaps(),
        context.stats.queue_depth(),
    )
}

/// `EPOCH <name>`: the model's process-local generation and its
/// cross-process-comparable content digest.
pub(crate) fn handle_epoch(context: &ServeContext, name: &str) -> Result<String> {
    let model = context.registry.resolve(name)?;
    Ok(format!(
        "{name} generation={} digest={}",
        model.generation(),
        pfr_core::persistence::digest_hex(model.digest()),
    ))
}

pub(crate) fn handle_load(context: &ServeContext, name: &str, path: &Path) -> Result<String> {
    if let Some(dir) = &context.bundle_dir {
        // Canonicalize both sides so `..` segments and symlinks cannot
        // escape the configured bundle directory.
        let canonical = path
            .canonicalize()
            .map_err(|_| ServeError::Model(format!("no bundle at '{}'", path.display())))?;
        let dir = dir
            .canonicalize()
            .map_err(|_| ServeError::Model("bundle directory is unavailable".to_string()))?;
        if !canonical.starts_with(&dir) {
            return Err(ServeError::Model(format!(
                "'{}' is outside the served bundle directory",
                path.display()
            )));
        }
    }
    let model = if context.journal.is_some() {
        // Journaling inlines the bundle text so replay needs no filesystem:
        // read and validate first (garbage never lands in the journal),
        // append the frame, then install from the already-read text.
        let text = std::fs::read_to_string(path)?;
        pfr_core::persistence::bundle_from_string(&text).map_err(ServeError::model)?;
        context.journal_append(|| Record::Load {
            model: name.to_string(),
            bundle_text: text.clone(),
        })?;
        context.registry.load_from_str(name, &text)?
    } else {
        context.registry.load_from_file(name, path)?
    };
    Ok(loaded_payload(&model))
}

/// `PUSH <name> <nbytes>` + payload: registers the bundle text shipped
/// over the wire — `LOAD` without the shared-filesystem assumption, so a
/// router can place replicas on backends that cannot read its disks. The
/// `bundle_dir` restriction does not apply: no server-side path is read.
pub(crate) fn handle_push(
    context: &ServeContext,
    name: &str,
    payload: &[u8],
    mut span: Option<&mut ActiveSpan>,
) -> Result<String> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ServeError::Protocol("PUSH payload is not valid utf-8".to_string()))?;
    if context.journal.is_some() {
        // Validate before journaling so a garbage payload never occupies a
        // frame; the install below re-parses, but pushes are rare and
        // bundles are small.
        pfr_core::persistence::bundle_from_string(text).map_err(ServeError::model)?;
        context.journal_append(|| Record::Push {
            model: name.to_string(),
            bundle_text: text.to_string(),
        })?;
        if let Some(s) = span.as_deref_mut() {
            s.event("journal-append");
        }
    }
    let model = context.registry.load_from_str(name, text)?;
    if let Some(s) = span {
        s.event("install");
    }
    Ok(loaded_payload(&model))
}

/// `CATALOG [FULL]`: reports the stored placement catalog's version
/// summary (digest-first anti-entropy probes this), or — with `FULL` —
/// hands over the whole catalog text escaped onto one line so a peer
/// router can bootstrap from it. A backend that has never been `SYNC`ed
/// answers `none`.
pub(crate) fn handle_catalog(context: &ServeContext, full: bool) -> String {
    let guard = context.catalog.lock().expect("catalog lock poisoned");
    match guard.as_ref() {
        None => "none".to_string(),
        Some(catalog) if full => pfr_control::escape(&catalog.to_text()),
        Some(catalog) => catalog.version().summary(),
    }
}

/// `SYNC <nbytes>` + payload: offers a catalog to this backend. The
/// offered value replaces the stored one only when it supersedes it under
/// the [`pfr_control::Version`] total order — highest version wins, so
/// concurrent routers pushing stale catalogs can never roll the store
/// back. The response reports the post-merge holder state and whether the
/// offer was applied.
pub(crate) fn handle_sync(context: &ServeContext, payload: &[u8]) -> Result<String> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ServeError::Protocol("SYNC payload is not valid utf-8".to_string()))?;
    let offered =
        pfr_control::Catalog::from_text(text).map_err(|e| ServeError::Protocol(e.to_string()))?;
    let mut guard = context.catalog.lock().expect("catalog lock poisoned");
    let applied = match guard.as_ref() {
        Some(held) if !offered.supersedes(held) => false,
        _ => {
            *guard = Some(offered);
            true
        }
    };
    let version = guard
        .as_ref()
        .expect("catalog present after merge")
        .version();
    Ok(format!(
        "{} applied={}",
        version.summary(),
        u8::from(applied)
    ))
}

/// The shared `LOAD`/`PUSH` success payload.
fn loaded_payload(model: &crate::model::ServableModel) -> String {
    format!(
        "loaded {} features={} dim={}",
        model.version(),
        model.num_features(),
        model.dim()
    )
}

pub(crate) fn score_payload(score: f64, threshold: f64) -> String {
    format!("{score} {}", u8::from(score >= threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::toy_bundle;
    use crate::protocol;
    use pfr_core::persistence;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn start_with_model() -> (Server, String, pfr_linalg::Matrix) {
        let (bundle, x) = toy_bundle();
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let text = persistence::bundle_to_string(&bundle);
        server.registry().load_from_str("risk", &text).unwrap();
        (server, text, x)
    }

    fn request(addr: SocketAddr, lines: &[String]) -> Vec<String> {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut out = Vec::new();
        for line in lines {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            out.push(response.trim_end().to_string());
        }
        out
    }

    #[test]
    fn score_over_tcp_matches_offline_inference_bitwise() {
        let (server, _, x) = start_with_model();
        let model = server.registry().get("risk").unwrap();
        let expected = model.score_batch(&x).unwrap();
        let lines: Vec<String> = (0..x.rows())
            .map(|i| format!("SCORE risk {}", protocol::format_numbers(x.row(i))))
            .collect();
        let responses = request(server.addr(), &lines);
        for (i, response) in responses.iter().enumerate() {
            let mut parts = response.split_whitespace();
            assert_eq!(parts.next(), Some("OK"), "response {response}");
            let score: f64 = parts.next().unwrap().parse().unwrap();
            assert_eq!(score.to_bits(), expected[i].to_bits(), "row {i}");
            let label: u8 = parts.next().unwrap().parse().unwrap();
            assert_eq!(label, u8::from(expected[i] >= model.threshold()));
        }
        server.shutdown();
    }

    #[test]
    fn repeated_scores_hit_the_cache() {
        let (server, _, x) = start_with_model();
        let line = format!("SCORE risk {}", protocol::format_numbers(x.row(0)));
        let responses = request(server.addr(), &[line.clone(), line.clone(), line]);
        assert_eq!(responses[0], responses[1]);
        assert_eq!(responses[1], responses[2]);
        assert!(server.stats().cache_hits() >= 2);
        assert_eq!(server.stats().cache_misses(), 1);
        server.shutdown();
    }

    #[test]
    fn load_verb_loads_from_disk_and_reports_the_version() {
        let (bundle, _) = toy_bundle();
        let dir = std::env::temp_dir();
        let path = dir.join("pfr_serve_load_test.bundle");
        persistence::save_bundle(&bundle, &path).unwrap();
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let responses = request(server.addr(), &[format!("LOAD risk {}", path.display())]);
        assert!(
            responses[0].starts_with("OK loaded risk@"),
            "{}",
            responses[0]
        );
        assert!(responses[0].contains("features=3"));
        assert!(responses[0].contains("dim=2"));
        assert!(server.registry().get("risk").is_some());
        let _ = std::fs::remove_file(&path);
        server.shutdown();
    }

    /// Writes a `PUSH` frame (header + counted payload) and reads the one
    /// response line.
    fn push_request(addr: SocketAddr, name: &str, text: &str) -> String {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write!(writer, "PUSH {name} {}\n{text}", text.len()).unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }

    #[test]
    fn push_loads_a_bundle_over_the_wire_at_both_pool_widths() {
        let (bundle, x) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        for reactors in [1, 4] {
            let server = Server::spawn(ServerConfig {
                reactors,
                // A bundle_dir that PUSH must ignore: no path is read.
                bundle_dir: Some(std::path::PathBuf::from("/definitely/not/there")),
                ..ServerConfig::default()
            })
            .unwrap();
            let response = push_request(server.addr(), "risk", &text);
            assert!(
                response.starts_with("OK loaded risk@"),
                "reactors={reactors}: {response}"
            );
            assert!(response.contains("features=3"), "{response}");
            // The pushed model serves scores identical to in-process loading.
            let model = server.registry().get("risk").unwrap();
            let expected = model.score_batch(&x).unwrap();
            let line = format!("SCORE risk {}", protocol::format_numbers(x.row(0)));
            let responses = request(server.addr(), &[line]);
            let score: f64 = responses[0]
                .split_whitespace()
                .nth(1)
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(
                score.to_bits(),
                expected[0].to_bits(),
                "reactors={reactors}"
            );
            // Garbage payloads are rejected without killing the connection's
            // framing: the next request on a fresh connection still works.
            let bad = push_request(server.addr(), "junk", "not a bundle at all\n");
            assert!(bad.starts_with("ERR"), "{bad}");
            assert!(server.registry().get("junk").is_none());
            server.shutdown();
        }
    }

    #[test]
    fn push_then_more_requests_on_the_same_connection_stay_framed() {
        let (bundle, x) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        for reactors in [1, 4] {
            let server = Server::spawn(ServerConfig {
                reactors,
                ..ServerConfig::default()
            })
            .unwrap();
            // Pre-load so the pipelined PUSH below is a hot swap: the
            // reactor executes PUSH asynchronously (like LOAD), so a
            // same-burst SCORE may run before the push lands — it must
            // still resolve a model. What this test pins down is the
            // *framing*: payload bytes followed immediately by more
            // request lines in one write must not desync the parser.
            server.registry().load_from_str("risk", &text).unwrap();
            let stream = TcpStream::connect(server.addr()).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            // One write: PUSH frame immediately followed by pipelined
            // SCORE/HEALTH lines — payload bytes must not desync framing.
            let mut burst = format!("PUSH risk {}\n{text}", text.len());
            burst.push_str(&format!(
                "SCORE risk {}\nHEALTH\n",
                protocol::format_numbers(x.row(0))
            ));
            writer.write_all(burst.as_bytes()).unwrap();
            writer.flush().unwrap();
            let mut responses = Vec::new();
            for _ in 0..3 {
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                responses.push(response.trim_end().to_string());
            }
            assert!(responses[0].starts_with("OK loaded"), "{responses:?}");
            assert!(responses[1].starts_with("OK "), "{responses:?}");
            assert!(responses[2].starts_with("OK up"), "{responses:?}");
            server.shutdown();
        }
    }

    /// Parses a `METRICS` response line back into a scrape.
    fn parse_metrics(response: &str) -> pfr_obs::Scrape {
        let payload = response.strip_prefix("OK ").expect("METRICS answers OK");
        pfr_obs::Scrape::parse(&pfr_obs::unescape_multiline(payload))
    }

    #[test]
    fn metrics_report_the_live_gauges_and_shutdown_frees_the_context() {
        // With a journal the recovery gauges register too. Every gauge
        // reads the cache, the recovery slot or the stats through its own
        // handle: capturing the context would form a cycle through the
        // registry it owns.
        let dir = std::env::temp_dir().join(format!("pfr_serve_gauges_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::spawn(ServerConfig {
            journal: Some(JournalConfig::new(&dir)),
            ..ServerConfig::default()
        })
        .unwrap();
        let (bundle, x) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        server.registry().load_from_str("risk", &text).unwrap();
        let line = format!("SCORE risk {}", protocol::format_numbers(x.row(0)));
        let responses = request(server.addr(), &[line, "METRICS".to_string()]);
        let scrape = parse_metrics(&responses[1]);
        assert_eq!(scrape.scalar("pfr_serve_cache_entries"), Some(1.0));
        assert_eq!(scrape.scalar("pfr_serve_recovered_frames"), Some(0.0));
        let context = Arc::downgrade(&server.context);
        server.shutdown();
        assert!(context.upgrade().is_none(), "the serving context leaked");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transform_metrics_and_errors_speak_the_protocol() {
        let (server, _, x) = start_with_model();
        let responses = request(
            server.addr(),
            &[
                format!("TRANSFORM risk {}", protocol::format_numbers(x.row(0))),
                "METRICS".to_string(),
                "SCORE missing 1 2 3".to_string(),
                "SCORE risk 1".to_string(),
                "GIBBERISH".to_string(),
                "STATS".to_string(),
            ],
        );
        // TRANSFORM returns dim() numbers.
        let z: Vec<f64> = responses[0]
            .strip_prefix("OK ")
            .unwrap()
            .split_whitespace()
            .map(|v| v.parse().unwrap())
            .collect();
        assert_eq!(z.len(), 2);
        let model = server.registry().get("risk").unwrap();
        let expected = model
            .transform_batch(&pfr_linalg::Matrix::from_vec(1, 3, x.row(0).to_vec()).unwrap())
            .unwrap();
        for (a, b) in z.iter().zip(expected.row(0)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let scrape = parse_metrics(&responses[1]);
        let transforms = scrape.scalar("pfr_serve_requests_total{verb=\"transform\"}");
        assert_eq!(transforms, Some(1.0));
        assert!(responses[2].starts_with("ERR no model named"));
        assert!(responses[3].starts_with("ERR"), "{}", responses[3]);
        assert!(responses[4].starts_with("ERR") && responses[4].contains("unknown verb"));
        // METRICS is the one telemetry verb; STATS is not a verb.
        assert!(
            responses[5].starts_with("ERR") && responses[5].contains("unknown verb 'STATS'"),
            "{}",
            responses[5]
        );
        server.shutdown();
    }

    #[test]
    fn load_respects_the_configured_bundle_directory() {
        let (bundle, _) = toy_bundle();
        let dir = std::env::temp_dir().join("pfr_serve_bundle_dir_test");
        std::fs::create_dir_all(&dir).unwrap();
        let inside = dir.join("ok.bundle");
        persistence::save_bundle(&bundle, &inside).unwrap();
        let outside = std::env::temp_dir().join("pfr_serve_outside.bundle");
        persistence::save_bundle(&bundle, &outside).unwrap();

        let server = Server::spawn(ServerConfig {
            bundle_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let responses = request(
            server.addr(),
            &[
                format!("LOAD good {}", inside.display()),
                format!("LOAD evil {}", outside.display()),
                format!("LOAD sneaky {}/../pfr_serve_outside.bundle", dir.display()),
                "LOAD ghost /definitely/not/there".to_string(),
            ],
        );
        assert!(
            responses[0].starts_with("OK loaded good@"),
            "{}",
            responses[0]
        );
        assert!(
            responses[1].starts_with("ERR") && responses[1].contains("outside"),
            "{}",
            responses[1]
        );
        assert!(
            responses[2].starts_with("ERR") && responses[2].contains("outside"),
            "{}",
            responses[2]
        );
        // Nonexistent paths are reported without leaking io details.
        assert!(
            responses[3].starts_with("ERR") && responses[3].contains("no bundle at"),
            "{}",
            responses[3]
        );
        assert!(server.registry().get("evil").is_none());
        assert!(server.registry().get("sneaky").is_none());
        server.shutdown();
        let _ = std::fs::remove_file(&inside);
        let _ = std::fs::remove_file(&outside);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn quit_closes_the_connection_politely() {
        let (server, _, _) = start_with_model();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writeln!(writer, "QUIT").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert_eq!(response.trim_end(), "OK bye");
        // Server closed its end: the next read returns EOF.
        response.clear();
        assert_eq!(reader.read_line(&mut response).unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_releases_the_listener() {
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let addr = server.addr();
        server.shutdown();
        // After shutdown the listener is gone; connecting either fails or
        // yields a connection nobody serves.
        if let Ok(stream) = TcpStream::connect(addr) {
            let mut reader = BufReader::new(stream);
            let mut buf = String::new();
            // Either EOF immediately or an error; never a served response.
            let _ = reader.read_line(&mut buf);
            assert!(!buf.starts_with("OK"));
        }
    }

    #[test]
    fn health_and_epoch_speak_the_protocol() {
        let (server, text, _) = start_with_model();
        let responses = request(
            server.addr(),
            &[
                "HEALTH".to_string(),
                "EPOCH risk".to_string(),
                "EPOCH missing".to_string(),
            ],
        );
        assert!(
            responses[0].starts_with("OK up models=1 swaps=0 queue="),
            "{}",
            responses[0]
        );
        let model = server.registry().get("risk").unwrap();
        assert_eq!(
            responses[1],
            format!(
                "OK risk generation={} digest={}",
                model.generation(),
                pfr_core::persistence::digest_hex(model.digest())
            )
        );
        assert!(
            responses[2].starts_with("ERR no model named"),
            "{}",
            responses[2]
        );
        // A hot swap changes the generation but not the digest (same
        // content), and HEALTH reports the swap.
        server.registry().load_from_str("risk", &text).unwrap();
        let swapped = server.registry().get("risk").unwrap();
        assert_ne!(swapped.generation(), model.generation());
        assert_eq!(swapped.digest(), model.digest());
        let responses = request(server.addr(), &["HEALTH".to_string()]);
        assert!(responses[0].contains("swaps=1"), "{}", responses[0]);
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_established_connections_and_joins_the_reactors() {
        let (server, _, _) = start_with_model();
        // Park two idle connections on the reactor.
        let idle: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        // Give the reactor time to accept both.
        std::thread::sleep(std::time::Duration::from_millis(50));
        server.shutdown();
        // shutdown() returned, which means it joined the reactor threads,
        // which close the connections they own on the way out. The clients
        // see EOF rather than a hang.
        for stream in idle {
            let mut reader = BufReader::new(stream);
            let mut buf = String::new();
            let n = reader.read_line(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "expected EOF after shutdown, got '{buf}'");
        }
    }

    #[test]
    fn reactor_pool_widths_serve_bitwise_identically() {
        let (bundle, x) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        let mut responses = Vec::new();
        for reactors in [1, 4] {
            let server = Server::spawn(ServerConfig {
                reactors,
                ..ServerConfig::default()
            })
            .unwrap();
            server.registry().load_from_str("risk", &text).unwrap();
            let lines: Vec<String> = (0..x.rows())
                .map(|i| format!("SCORE risk {}", protocol::format_numbers(x.row(i))))
                .collect();
            responses.push(request(server.addr(), &lines));
            server.shutdown();
        }
        assert_eq!(
            responses[0], responses[1],
            "1- and 4-reactor pools must be byte-for-byte interchangeable"
        );
    }

    #[test]
    fn warm_from_log_preloads_the_cache_for_first_requests() {
        let (server, _, x) = start_with_model();
        let log_path =
            std::env::temp_dir().join(format!("pfr_serve_warm_log_{}.log", std::process::id()));
        let mut log = String::new();
        for i in 0..x.rows() {
            log.push_str(&format!(
                "SCORE risk {}\n",
                protocol::format_numbers(x.row(i))
            ));
        }
        log.push_str("SCORE ghost 1 2 3\n"); // unloaded model: skipped
        std::fs::write(&log_path, log).unwrap();
        let (replayed, skipped) = server.warm_from_log(&log_path).unwrap();
        assert_eq!(replayed, x.rows());
        assert_eq!(skipped, 1, "the ghost-model line is skipped");
        // Every first real request of a logged vector hits the cache.
        let lines: Vec<String> = (0..x.rows())
            .map(|i| format!("SCORE risk {}", protocol::format_numbers(x.row(i))))
            .collect();
        let responses = request(server.addr(), &lines);
        let model = server.registry().get("risk").unwrap();
        let expected = model.score_batch(&x).unwrap();
        for (i, response) in responses.iter().enumerate() {
            let score: f64 = response.split_whitespace().nth(1).unwrap().parse().unwrap();
            assert_eq!(score.to_bits(), expected[i].to_bits(), "row {i}");
        }
        assert_eq!(server.stats().cache_misses(), 0, "warmed requests must hit");
        assert_eq!(server.stats().cache_hits(), x.rows() as u64);
        let _ = std::fs::remove_file(&log_path);
        server.shutdown();
    }

    /// Writes a `SYNC` frame (header + counted catalog payload) and reads
    /// the one response line.
    fn sync_request(addr: SocketAddr, text: &str) -> String {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write!(writer, "SYNC {}\n{text}", text.len()).unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }

    #[test]
    fn catalog_and_sync_replicate_the_control_plane_at_both_pool_widths() {
        let (bundle, _) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        let mut catalog = pfr_control::Catalog::new(9);
        catalog.add_member(9, 0, "127.0.0.1:9000".to_string());
        catalog.upsert_placement(9, "risk", &text).unwrap();
        let mut transcripts = Vec::new();
        for reactors in [1, 4] {
            let server = Server::spawn(ServerConfig {
                reactors,
                ..ServerConfig::default()
            })
            .unwrap();
            // A fresh backend stores nothing.
            let mut responses = request(
                server.addr(),
                &["CATALOG".to_string(), "CATALOG FULL".to_string()],
            );
            assert_eq!(responses[0], "OK none", "reactors={reactors}");
            assert_eq!(responses[1], "OK none", "reactors={reactors}");
            assert!(server.catalog_version().is_none());
            // Offer the catalog: applied, and the response reports the
            // post-merge holder state.
            responses.push(sync_request(server.addr(), &catalog.to_text()));
            assert_eq!(
                responses[2],
                format!("OK {} applied=1", catalog.version().summary()),
                "reactors={reactors}"
            );
            assert_eq!(server.catalog_version(), Some(catalog.version()));
            // The digest probe and the full pull reflect the stored value;
            // the pulled text round-trips to an identical catalog.
            responses.extend(request(
                server.addr(),
                &["CATALOG".to_string(), "CATALOG FULL".to_string()],
            ));
            assert_eq!(
                responses[3],
                format!("OK {}", catalog.version().summary()),
                "reactors={reactors}"
            );
            let pulled = responses[4].strip_prefix("OK ").unwrap();
            let adopted = pfr_control::Catalog::from_text(&pfr_control::unescape(pulled)).unwrap();
            assert_eq!(adopted, catalog);
            // A stale offer is refused (applied=0) and the store keeps the
            // newer value; garbage payloads are rejected outright.
            let stale = pfr_control::Catalog::new(3);
            responses.push(sync_request(server.addr(), &stale.to_text()));
            assert_eq!(
                responses[5],
                format!("OK {} applied=0", catalog.version().summary()),
                "reactors={reactors}"
            );
            responses.push(sync_request(server.addr(), "not a catalog\n"));
            assert!(responses[6].starts_with("ERR"), "{}", responses[6]);
            assert_eq!(server.catalog_version(), Some(catalog.version()));
            assert_eq!(server.stats().catalog.requests(), 7, "reactors={reactors}");
            assert_eq!(server.stats().catalog.errors(), 1, "reactors={reactors}");
            transcripts.push(responses);
            server.shutdown();
        }
        assert_eq!(
            transcripts[0], transcripts[1],
            "both pool widths must replicate the catalog byte-for-byte identically"
        );
    }

    #[test]
    fn hot_swap_over_the_wire_keeps_serving() {
        let (server, text, x) = start_with_model();
        let before = server.registry().get("risk").unwrap().generation();
        server.registry().load_from_str("risk", &text).unwrap();
        let after = server.registry().get("risk").unwrap().generation();
        assert_ne!(before, after);
        let line = format!("SCORE risk {}", protocol::format_numbers(x.row(0)));
        let responses = request(server.addr(), &[line]);
        assert!(responses[0].starts_with("OK "));
        server.shutdown();
    }
}
