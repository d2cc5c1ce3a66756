//! The refit worker: journal tail → window → drift check → warm re-fit →
//! shadow gate → wire-level hot-swap, as one synchronous state machine
//! ([`RefitLoop`]) plus a background-thread wrapper ([`RefitWorker`]).
//!
//! Keeping the state machine synchronous makes every stage deterministic
//! and unit-testable: `pump` drains whatever the cursor has, `maybe_refit`
//! runs at most one drift-check/refit/gate/swap cycle and reports exactly
//! what happened as a [`RefitStep`]. The thread wrapper only adds polling
//! and a stop flag.
//!
//! ## Swap safety
//!
//! A swap ships through the same wire-level `PUSH` verb as any operator
//! push: the backend journals the bundle before installing it, installs
//! under a fresh generation (invalidating cached scores of the old one),
//! and in-flight requests finish on whichever model generation they
//! resolved — no request is dropped or failed by a swap. The worker then
//! observes its *own* `PUSH` coming back through the journal tail and
//! skips it by content digest, so a swap never re-triggers itself.

use crate::drift::{DriftConfig, DriftDetector, DriftReport};
use crate::engine::{RefitEngine, RefitModelConfig};
use crate::error::RefitError;
use crate::gate::{GateConfig, GateReport, ShadowGate};
use crate::window::FeatureWindow;
use crate::Result;
use pfr_core::persistence::{bundle_from_string, bundle_text_digest, ModelBundle};
use pfr_journal::{JournalCursor, Record};
use pfr_router::Router;
use pfr_serve::ServableModel;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Where a gated candidate ships.
#[derive(Debug, Clone)]
pub enum SwapTarget {
    /// Through a routing tier: every replica of the model receives the
    /// bundle under one membership snapshot ([`Router::push_text`]).
    Router(Arc<Router>),
    /// Directly to these backends over raw `PUSH` frames.
    Backends(Vec<SocketAddr>),
    /// Refit and gate but never ship — observability-only mode.
    DryRun,
}

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct RefitConfig {
    /// Journal directory to tail (the serving tier's journal).
    pub journal_dir: PathBuf,
    /// Durable cursor name; restarts resume from its checkpoint.
    pub cursor_name: String,
    /// Model whose `SCORE` frames feed the window and whose bundle gets
    /// refitted.
    pub model: String,
    /// Sliding-window capacity (training rows).
    pub window_rows: usize,
    /// Held-back slice capacity (shadow-gate rows).
    pub holdback_rows: usize,
    /// Divert every k-th accepted frame into the holdback slice.
    pub holdback_every: usize,
    /// Do not refit on fewer training rows than this.
    pub min_refit_rows: usize,
    /// Run a drift check every N folded frames.
    pub check_every_frames: u64,
    /// After a refit attempt, fold at least this many fresh frames before
    /// attempting another.
    pub cooldown_frames: u64,
    /// Persist the cursor checkpoint every N tailed frames (and whenever
    /// the tail is fully drained).
    pub checkpoint_every_frames: u64,
    /// Worker-thread sleep when the tail is drained.
    pub poll_interval: Duration,
    /// Drift-detector thresholds.
    pub drift: DriftConfig,
    /// Shadow-gate thresholds.
    pub gate: GateConfig,
    /// Re-fit model parameters.
    pub model_config: RefitModelConfig,
}

impl RefitConfig {
    /// Reasonable defaults for a journal directory and model name.
    pub fn new(journal_dir: impl Into<PathBuf>, model: impl Into<String>) -> RefitConfig {
        RefitConfig {
            journal_dir: journal_dir.into(),
            cursor_name: "refit".to_string(),
            model: model.into(),
            window_rows: 512,
            holdback_rows: 128,
            holdback_every: 5,
            min_refit_rows: 64,
            check_every_frames: 64,
            cooldown_frames: 128,
            checkpoint_every_frames: 256,
            poll_interval: Duration::from_millis(20),
            drift: DriftConfig::default(),
            gate: GateConfig::default(),
            model_config: RefitModelConfig::default(),
        }
    }
}

/// Shared refit counters, exposed as `pfr_refit_*` gauges by
/// [`RefitStats::register_metrics`]. `pfr_refit_cursor_seq` sits next to
/// the journal's own `pfr_journal_seq`, so cursor lag is their difference
/// (`pfr_refit_cursor_lag` when a journal tip is supplied);
/// `pfr_refit_caught_up` is `1` when the last pump drained the tail
/// completely.
#[derive(Debug, Default)]
pub struct RefitStats {
    frames_seen: AtomicU64,
    frames_folded: AtomicU64,
    cursor_seq: AtomicU64,
    caught_up: AtomicBool,
    drift_checks: AtomicU64,
    drift_detected: AtomicU64,
    refits_attempted: AtomicU64,
    refits_gated: AtomicU64,
    refits_swapped: AtomicU64,
    rebases: AtomicU64,
}

macro_rules! counter {
    ($get:ident, $bump:ident, $field:ident) => {
        /// Current value of the counter.
        pub fn $get(&self) -> u64 {
            self.$field.load(Ordering::Relaxed)
        }

        fn $bump(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
        }
    };
}

impl RefitStats {
    counter!(frames_seen, bump_frames_seen, frames_seen);
    counter!(frames_folded, bump_frames_folded, frames_folded);
    counter!(drift_checks, bump_drift_checks, drift_checks);
    counter!(drift_detected, bump_drift_detected, drift_detected);
    counter!(refits_attempted, bump_refits_attempted, refits_attempted);
    counter!(refits_gated, bump_refits_gated, refits_gated);
    counter!(refits_swapped, bump_refits_swapped, refits_swapped);
    counter!(rebases, bump_rebases, rebases);

    /// Last journal sequence number the cursor delivered.
    pub fn cursor_seq(&self) -> u64 {
        self.cursor_seq.load(Ordering::Relaxed)
    }

    /// Whether the last pump drained the journal tail completely.
    pub fn caught_up(&self) -> bool {
        self.caught_up.load(Ordering::Relaxed)
    }

    /// Registers every refit counter on `registry` as `pfr_refit_*`
    /// gauges, plus `pfr_refit_cursor_lag` — how many journal records the
    /// cursor trails the writer by — when a `journal_tip` reader (typically
    /// `JournalStats::last_seq` of the journal being tailed) is supplied.
    /// Call once at startup; the gauges read live values at scrape time.
    pub fn register_metrics(
        self: &Arc<Self>,
        registry: &pfr_obs::MetricsRegistry,
        journal_tip: Option<Arc<dyn Fn() -> u64 + Send + Sync>>,
    ) {
        macro_rules! gauge {
            ($name:expr, $read:expr) => {
                let stats = Arc::clone(self);
                let read: fn(&RefitStats) -> u64 = $read;
                registry.gauge($name, &[], Arc::new(move || read(&stats) as f64));
            };
        }
        gauge!("pfr_refit_cursor_seq", RefitStats::cursor_seq);
        gauge!("pfr_refit_caught_up", |s| s.caught_up() as u64);
        gauge!("pfr_refit_frames_seen_total", RefitStats::frames_seen);
        gauge!("pfr_refit_frames_folded_total", RefitStats::frames_folded);
        gauge!("pfr_refit_drift_checks_total", RefitStats::drift_checks);
        gauge!("pfr_refit_drift_detected_total", RefitStats::drift_detected);
        gauge!("pfr_refit_attempted_total", RefitStats::refits_attempted);
        gauge!("pfr_refit_gated_total", RefitStats::refits_gated);
        gauge!("pfr_refit_swapped_total", RefitStats::refits_swapped);
        gauge!("pfr_refit_rebases_total", RefitStats::rebases);
        if let Some(tip) = journal_tip {
            let stats = Arc::clone(self);
            registry.gauge(
                "pfr_refit_cursor_lag",
                &[],
                Arc::new(move || tip().saturating_sub(stats.cursor_seq()) as f64),
            );
        }
    }
}

/// What one [`RefitLoop::maybe_refit`] call did.
#[derive(Debug, Clone)]
pub enum RefitStep {
    /// Below the check interval or the window is still filling.
    Idle,
    /// Checked; no drift.
    Stationary(DriftReport),
    /// Drift detected but the post-refit cooldown is still running.
    Cooldown(DriftReport),
    /// Refitted but the shadow gate rejected the candidate.
    Gated {
        /// The triggering drift report.
        drift: DriftReport,
        /// Why the gate said no.
        gate: GateReport,
    },
    /// Refitted, gated and hot-swapped.
    Swapped {
        /// The triggering drift report.
        drift: DriftReport,
        /// The passing gate report.
        gate: GateReport,
        /// Backends/replicas that accepted the push (0 in dry-run mode).
        placed: usize,
        /// The candidate bundle text exactly as shipped.
        bundle_text: String,
    },
}

/// The synchronous refit state machine.
pub struct RefitLoop {
    config: RefitConfig,
    cursor: JournalCursor,
    window: FeatureWindow,
    detector: DriftDetector,
    engine: RefitEngine,
    gate: ShadowGate,
    target: SwapTarget,
    serving: ModelBundle,
    serving_model: ServableModel,
    serving_digest: u64,
    stats: Arc<RefitStats>,
    frames_since_check: u64,
    frames_since_refit: u64,
    frames_since_checkpoint: u64,
}

impl RefitLoop {
    /// Opens the journal cursor (resuming from its checkpoint when one
    /// exists) and anchors drift detection at `serving_text`'s standardizer.
    pub fn new(config: RefitConfig, serving_text: &str, target: SwapTarget) -> Result<Self> {
        if config.check_every_frames == 0 || config.checkpoint_every_frames == 0 {
            return Err(RefitError::Config(
                "check_every_frames and checkpoint_every_frames must be positive".to_string(),
            ));
        }
        let serving = bundle_from_string(serving_text)?;
        let serving_digest = bundle_text_digest(serving_text)?;
        let params = serving.standardizer.as_ref().ok_or_else(|| {
            RefitError::Config(
                "serving bundle carries no standardizer; no drift baseline available".to_string(),
            )
        })?;
        let detector = DriftDetector::from_standardizer(config.drift.clone(), params)?;
        let serving_model = ServableModel::from_bundle("refit-serving", &serving)?;
        let engine = RefitEngine::new(config.model_config.clone())?;
        let gate = ShadowGate::new(config.gate.clone())?;
        let cursor = JournalCursor::open(&config.journal_dir, &config.cursor_name, 1)?;
        let window = FeatureWindow::new(
            config.window_rows,
            config.holdback_rows,
            config.holdback_every,
        )?;
        let cooldown = config.cooldown_frames;
        Ok(RefitLoop {
            config,
            cursor,
            window,
            detector,
            engine,
            gate,
            target,
            serving,
            serving_model,
            serving_digest,
            stats: Arc::new(RefitStats::default()),
            frames_since_check: 0,
            // The first refit is not throttled — only refits after one.
            frames_since_refit: cooldown,
            frames_since_checkpoint: 0,
        })
    }

    /// Shared counters (cheap to clone, safe to read from other threads).
    pub fn stats(&self) -> Arc<RefitStats> {
        Arc::clone(&self.stats)
    }

    /// The bundle currently treated as "serving".
    pub fn serving(&self) -> &ModelBundle {
        &self.serving
    }

    /// The worker configuration.
    pub fn config(&self) -> &RefitConfig {
        &self.config
    }

    /// Persists the cursor position now.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.cursor.checkpoint()?;
        self.frames_since_checkpoint = 0;
        Ok(())
    }

    /// Drains up to `max_frames` journal frames into the window, following
    /// segment rotations and periodically persisting the cursor
    /// checkpoint. Returns the number of frames processed; `0` means the
    /// tail is fully drained.
    pub fn pump(&mut self, max_frames: usize) -> Result<usize> {
        let mut processed = 0;
        let mut drained = false;
        while processed < max_frames {
            match self.cursor.next()? {
                None => {
                    drained = true;
                    break;
                }
                Some((seq, record)) => {
                    processed += 1;
                    self.frames_since_checkpoint += 1;
                    self.stats.bump_frames_seen();
                    self.stats.cursor_seq.store(seq, Ordering::Relaxed);
                    self.fold(record)?;
                    if self.frames_since_checkpoint >= self.config.checkpoint_every_frames {
                        self.checkpoint()?;
                    }
                }
            }
        }
        self.stats.caught_up.store(drained, Ordering::Relaxed);
        if drained && self.frames_since_checkpoint > 0 {
            self.checkpoint()?;
        }
        Ok(processed)
    }

    fn fold(&mut self, record: Record) -> Result<()> {
        match record {
            Record::Score { model, features }
                if model == self.config.model && self.window.push(&features) =>
            {
                self.stats.bump_frames_folded();
                self.frames_since_check += 1;
                self.frames_since_refit = self.frames_since_refit.saturating_add(1);
            }
            Record::Push { model, bundle_text } | Record::Load { model, bundle_text }
                if model == self.config.model =>
            {
                // Someone installed a bundle for our model. If it is not
                // the one we already track (including our own swap coming
                // back through the tail), rebase on it: new baseline, new
                // warm-start seed, fresh window. Unparseable text cannot
                // have been installed by a backend either — skip it.
                if let Ok(digest) = bundle_text_digest(&bundle_text) {
                    if digest != self.serving_digest {
                        if let Ok(bundle) = bundle_from_string(&bundle_text) {
                            self.install_serving(bundle, digest)?;
                            self.stats.bump_rebases();
                        }
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Runs at most one drift-check → refit → gate → swap cycle.
    pub fn maybe_refit(&mut self) -> Result<RefitStep> {
        if self.window.len() < self.config.min_refit_rows
            || self.frames_since_check < self.config.check_every_frames
        {
            return Ok(RefitStep::Idle);
        }
        self.frames_since_check = 0;
        self.stats.bump_drift_checks();

        let window = self.window.to_matrix()?;
        let scores = self.serving_model.score_batch(&window)?;
        if !self.detector.has_reference_scores() {
            // First check after (re)baselining: this window's score
            // distribution becomes the PSI reference.
            self.detector.set_reference_scores(scores.clone());
        }
        let drift = self.detector.assess(&window, Some(&scores))?;
        if !drift.drifted {
            return Ok(RefitStep::Stationary(drift));
        }
        self.stats.bump_drift_detected();
        if self.frames_since_refit < self.config.cooldown_frames {
            return Ok(RefitStep::Cooldown(drift));
        }

        self.stats.bump_refits_attempted();
        self.frames_since_refit = 0;
        let outcome = self.engine.refit(&window, &self.serving)?;
        let holdback = self.window.holdback_matrix()?;
        let gate = self
            .gate
            .evaluate(&self.serving, &outcome.bundle_text, &holdback)?;
        if !gate.passed {
            self.stats.bump_refits_gated();
            return Ok(RefitStep::Gated { drift, gate });
        }

        let placed = self.ship(&outcome.bundle_text)?;
        self.stats.bump_refits_swapped();
        let digest = bundle_text_digest(&outcome.bundle_text)?;
        let candidate = bundle_from_string(&outcome.bundle_text)?;
        self.install_serving(candidate, digest)?;
        Ok(RefitStep::Swapped {
            drift,
            gate,
            placed,
            bundle_text: outcome.bundle_text,
        })
    }

    fn ship(&self, bundle_text: &str) -> Result<usize> {
        match &self.target {
            SwapTarget::DryRun => Ok(0),
            SwapTarget::Router(router) => Ok(router.push_text(&self.config.model, bundle_text)?),
            SwapTarget::Backends(addrs) => {
                let mut placed = 0;
                let mut last_rejection = String::new();
                for addr in addrs {
                    match push_raw(addr, &self.config.model, bundle_text) {
                        Ok(response) if response.starts_with("OK") => placed += 1,
                        Ok(response) => last_rejection = response,
                        Err(e) => last_rejection = e.to_string(),
                    }
                }
                if placed == 0 {
                    return Err(RefitError::SwapRejected(if last_rejection.is_empty() {
                        "no swap backends configured".to_string()
                    } else {
                        last_rejection
                    }));
                }
                Ok(placed)
            }
        }
    }

    fn install_serving(&mut self, bundle: ModelBundle, digest: u64) -> Result<()> {
        let params = bundle.standardizer.as_ref().ok_or_else(|| {
            RefitError::Config("installed bundle carries no standardizer".to_string())
        })?;
        self.detector = DriftDetector::from_standardizer(self.config.drift.clone(), params)?;
        self.serving_model = ServableModel::from_bundle("refit-serving", &bundle)?;
        self.serving = bundle;
        self.serving_digest = digest;
        // Pre-swap traffic must not be judged against the new baseline.
        self.window.clear();
        self.frames_since_check = 0;
        self.frames_since_refit = 0;
        Ok(())
    }
}

/// One raw wire-level `PUSH <name> <nbytes>\n<payload>` exchange.
fn push_raw(addr: &SocketAddr, model: &str, bundle_text: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut frame = format!("PUSH {model} {}\n", bundle_text.len()).into_bytes();
    frame.extend_from_slice(bundle_text.as_bytes());
    writer.write_all(&frame)?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(line.trim_end().to_string())
}

/// Background-thread wrapper around [`RefitLoop`].
pub struct RefitWorker {
    stop: Arc<AtomicBool>,
    stats: Arc<RefitStats>,
    last_error: Arc<Mutex<Option<String>>>,
    handle: Option<thread::JoinHandle<()>>,
}

impl RefitWorker {
    /// Moves the loop onto a named background thread that pumps the tail,
    /// runs the refit cycle, and sleeps `poll_interval` whenever the tail
    /// is drained. Errors are recorded (see [`RefitWorker::last_error`])
    /// and the loop keeps going — a transient journal or network failure
    /// must not kill the worker.
    pub fn spawn(mut refit_loop: RefitLoop) -> RefitWorker {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = refit_loop.stats();
        let last_error: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let poll = refit_loop.config().poll_interval;
        let thread_stop = Arc::clone(&stop);
        let thread_error = Arc::clone(&last_error);
        let handle = thread::Builder::new()
            .name("pfr-refit".to_string())
            .spawn(move || {
                let record = |e: RefitError| {
                    *thread_error.lock().expect("error lock poisoned") = Some(e.to_string());
                };
                while !thread_stop.load(Ordering::Relaxed) {
                    let drained = match refit_loop.pump(256) {
                        Ok(n) => n == 0,
                        Err(e) => {
                            record(e);
                            true
                        }
                    };
                    if let Err(e) = refit_loop.maybe_refit() {
                        record(e);
                    }
                    if drained {
                        thread::sleep(poll);
                    }
                }
                let _ = refit_loop.checkpoint();
            })
            .expect("spawning the refit worker thread");
        RefitWorker {
            stop,
            stats,
            last_error,
            handle: Some(handle),
        }
    }

    /// Shared counters.
    pub fn stats(&self) -> Arc<RefitStats> {
        Arc::clone(&self.stats)
    }

    /// The last error the worker thread recorded, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().expect("error lock poisoned").clone()
    }

    /// Stops the thread, waits for it, and leaves a final checkpoint.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RefitWorker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refit_gauges_render_counters_and_cursor_lag() {
        let stats = Arc::new(RefitStats::default());
        stats.cursor_seq.store(5, Ordering::Relaxed);
        stats.caught_up.store(true, Ordering::Relaxed);
        stats.bump_refits_gated();
        let registry = pfr_obs::MetricsRegistry::new();
        stats.register_metrics(&registry, Some(Arc::new(|| 12)));
        let text = registry.render();
        assert!(text.contains("pfr_refit_cursor_seq 5"), "{text}");
        assert!(text.contains("pfr_refit_caught_up 1"), "{text}");
        assert!(text.contains("pfr_refit_gated_total 1"), "{text}");
        // Lag is the journal tip (12) minus the cursor position (5).
        assert!(text.contains("pfr_refit_cursor_lag 7"), "{text}");
    }
}
