//! # pfr-refit
//!
//! Online model refit from the journal stream with a shadow-gated
//! hot-swap — the serving tier's write-ahead journal doubles as a live
//! training feed.
//!
//! The serving tier already journals every accepted request
//! (`pfr-journal`) so it can recover from a crash. This crate closes the
//! loop the other way: a background worker **tails** that same journal
//! with a durable [`pfr_journal::JournalCursor`], folds the scored feature
//! vectors into a sliding [`window::FeatureWindow`], and watches the
//! stream for **distribution drift** against the serving model's own
//! training statistics ([`drift::DriftDetector`]). When drift is detected,
//! the worker re-fits the PFR model **warm-started** from the serving
//! projection ([`engine::RefitEngine`] →
//! [`pfr_core::Pfr::fit_warm`] → `pfr_linalg::subspace`), shadow-scores
//! the candidate on a held-back slice the candidate never trained on
//! ([`gate::ShadowGate`]), and only on a passing report ships it through
//! the existing wire-level `PUSH` path ([`worker::SwapTarget`]) — a single
//! backend, a list of backends, or a whole routing tier at once.
//!
//! Every stage is observable: the worker's counters
//! (`pfr_refit_{attempted,gated,swapped}_total`, cursor position and lag,
//! drift checks) register on the serving tier's `METRICS` exposition via
//! [`RefitStats::register_metrics`] on [`pfr_serve::Server::metrics`].
//!
//! ```text
//!   clients ──► serving tier ──► journal segments ──► JournalCursor
//!                   ▲                                      │ tail
//!                   │ PUSH (gated)                         ▼
//!              ShadowGate ◄── RefitEngine ◄── DriftDetector ◄── FeatureWindow
//! ```
//!
//! See `DESIGN.md` in this crate for the cursor protocol, the drift
//! statistics and the swap-safety argument.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod drift;
pub mod engine;
pub mod error;
pub mod gate;
pub mod window;
pub mod worker;

pub use drift::{DriftConfig, DriftDetector, DriftReport};
pub use engine::{RefitEngine, RefitModelConfig, RefitOutcome};
pub use error::RefitError;
pub use gate::{GateConfig, GateReport, ShadowGate};
pub use window::FeatureWindow;
pub use worker::{RefitConfig, RefitLoop, RefitStats, RefitStep, RefitWorker, SwapTarget};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, RefitError>;
