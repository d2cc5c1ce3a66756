//! # pfr-serve
//!
//! A concurrent model-serving subsystem for the PFR reproduction — the
//! "decision service" half of the paper's deployment story (Section 1.2):
//! a PFR projection and its downstream classifier are trained offline on
//! judgment-enriched data, persisted as a bundle, and shipped to a service
//! that scores regular attribute vectors at request time.
//!
//! Std-only and dependency-free, the subsystem is built from five pieces:
//!
//! * [`ModelRegistry`] — named, versioned, hot-swappable models behind an
//!   `RwLock`; in-flight requests keep the generation they resolved.
//! * [`WorkerPool`] — a fixed pool of worker threads over an
//!   `std::sync::mpsc` channel of boxed jobs.
//! * [`MicroBatcher`] — coalesces up to `B` concurrent single-vector
//!   `SCORE` requests into one matrix, so standardization, the `B×m · m×d`
//!   projection and classification run as one batched pass through
//!   `pfr_linalg` instead of `B` scalar passes.
//! * [`ScoreCache`] — a fixed-capacity LRU keyed by (model generation,
//!   exact feature bits); deterministic scoring makes hits exact, and
//!   hot swaps invalidate implicitly via the generation. Optional TTL
//!   expiry and per-model capacity bounds via [`CachePolicy`].
//! * [`Server`] — a line-delimited TCP protocol (`LOAD` / `SCORE` /
//!   `TRANSFORM` / `METRICS` / `HEALTH` / `EPOCH` / `QUIT`) with per-verb
//!   latency and hit-rate counters ([`ServerStats`]) exposed through one
//!   `METRICS` scrape ([`Server::metrics`]), a pool of epoll
//!   reactor threads multiplexing every connection, and a graceful
//!   shutdown that closes every connection and joins every reactor.
//!   `HEALTH` and `EPOCH` exist for the `pfr-router` tier: liveness and
//!   queue-depth probes and cross-process model-content digests.
//!
//! Durability is optional: configure [`ServerConfig::journal`] and every
//! accepted `SCORE`/`TRANSFORM`/`LOAD`/`PUSH` is appended to a `pfr-journal`
//! write-ahead log before it executes; after a crash,
//! [`Server::recover_from_journal`] replays the log to rebuild the registry
//! and re-warm the score cache to the exact pre-crash state.
//!
//! ## Quick start
//!
//! ```no_run
//! use pfr_serve::{Server, ServerConfig};
//!
//! let server = Server::spawn(ServerConfig::default()).unwrap();
//! server
//!     .registry()
//!     .load_from_file("admissions", std::path::Path::new("model.bundle"))
//!     .unwrap();
//! println!("serving on {}", server.addr());
//! // ... clients connect and send `SCORE admissions 0.3 1.2 ...` lines ...
//! server.shutdown();
//! ```
//!
//! See `DESIGN.md` in this crate for the batching and caching architecture
//! and `examples/serve_demo.rs` at the workspace root for a full
//! train → persist → serve → query round trip.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod batcher;
pub mod cache;
pub mod error;
pub mod model;
pub mod pool;
pub mod protocol;
pub(crate) mod reactor_front;
pub mod registry;
pub mod server;
pub mod stats;

pub use batcher::{BatcherConfig, MicroBatcher};
pub use cache::{CachePolicy, ScoreCache, ScoreKey};
pub use error::ServeError;
pub use model::ServableModel;
pub use pool::WorkerPool;
pub use protocol::Request;
pub use registry::ModelRegistry;
pub use server::{RecoveryReport, Server, ServerConfig};
pub use stats::{ServerStats, VerbStats};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
