//! # pfr-baselines
//!
//! The baseline methods the paper compares PFR against (Section 4.1):
//!
//! * [`original::OriginalRepresentation`] — the naive representation of the
//!   input data with the protected attributes masked (the features in
//!   `pfr-data` already exclude them, so this is the identity map).
//! * [`ifair::IFair`] — *iFair* (Lahoti et al., ICDE 2019): an unsupervised
//!   prototype-based representation that preserves the input data and
//!   individual fairness in the data-space graph `WX` while obfuscating the
//!   protected group.
//! * [`lfr::Lfr`] — *LFR* (Zemel et al., ICML 2013): a supervised
//!   prototype-based representation optimizing reconstruction, label accuracy
//!   and demographic parity.
//! * [`hardt::HardtPostProcessor`] — the Hardt et al. (NeurIPS 2016)
//!   equalized-odds post-processing of a trained classifier's scores using
//!   group-specific thresholds.
//!
//! iFair and LFR are reimplemented from the cited papers on top of the
//! shared prototype-softmax machinery in [`prototype`]; the substitutions
//! below record where they and Hardt depart from the originals.
//!
//! ## Substitutions
//!
//! * **Adam instead of L-BFGS (iFair, LFR).** The originals minimize with
//!   `scipy.optimize`'s L-BFGS-B. The objectives are smooth but non-convex,
//!   so the optimizer changes which local optimum is reached, not what is
//!   optimized. Here `pfr-opt`'s Adam runs a fixed iteration budget (see
//!   [`IFairConfig`] and [`LfrConfig`]).
//! * **Obfuscation instead of per-feature weights (iFair).** The original
//!   learns per-feature distance weights that can suppress the protected
//!   attributes. This workspace's features already exclude them, so the
//!   group-obfuscation term does that job and no weights are learned.
//! * **Deterministic thresholds (Hardt).** The original solves a linear
//!   program over *randomized* decision rules. [`HardtPostProcessor`]
//!   grid-searches deterministic group-specific thresholds instead, which
//!   still brings FPR and FNR close to equal across groups.
//!
//! The [`representation::RepresentationMethod`] trait gives the evaluation
//! harness a uniform interface over all representation learners; the PFR
//! model itself is adapted to the same trait inside `pfr-eval`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod hardt;
pub mod ifair;
pub mod lfr;
pub mod original;
pub mod prototype;
pub mod representation;

pub use error::BaselineError;
pub use hardt::HardtPostProcessor;
pub use ifair::{IFair, IFairConfig};
pub use lfr::{Lfr, LfrConfig};
pub use original::OriginalRepresentation;
pub use representation::{FitContext, Representation, RepresentationMethod};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, BaselineError>;
