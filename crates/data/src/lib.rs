//! # pfr-data
//!
//! Dataset substrate for the Pairwise Fair Representations (PFR)
//! reproduction.
//!
//! The paper evaluates on three datasets (Table 1):
//!
//! | Dataset   | n    | group sizes | base rates | task                  |
//! |-----------|------|-------------|------------|-----------------------|
//! | Synthetic | 600  | 300 / 300   | 0.51 / 0.48| graduate-school success |
//! | Crime     | 1993 | 1423 / 570  | 0.35 / 0.86| violent neighbourhood  |
//! | Compas    | 8803 | 4218 / 4585 | 0.41 / 0.55| rearrest prediction    |
//!
//! The real Crime & Communities and COMPAS data (and the niche.com resident
//! reviews used for the fairness graph) are not redistributable in this
//! offline environment, so this crate provides *calibrated synthetic
//! generators* that reproduce the statistical structure the evaluation relies
//! on — group sizes, base-rate gaps, feature/label correlations, within-group
//! score rankings and noisy human side-information.
//!
//! ## Substitutions
//!
//! The [`compas`] and [`crime`] generators stand in for the real data,
//! calibrated to what the evaluation depends on: Table 1's group sizes and
//! base rates, label-correlated features, and the side information behind
//! the fairness graph (COMPAS: within-group decile scores; Crime: noisy
//! resident ratings for about 75% of communities). The real feature
//! distributions are not reproduced, so absolute AUC and consistency differ
//! from the paper's tables; the method comparisons and trade-off directions
//! carry over, and `tests/paper_claims.rs` asserts those.
//!
//! Main types:
//!
//! * [`Dataset`] — a tabular dataset with features, binary labels, protected
//!   group memberships and optional per-record side information.
//! * [`split`] — stratified train/test splits and k-fold cross-validation.
//! * [`encode`] — one-hot encoding and feature assembly helpers.
//! * [`synthetic`], [`compas`], [`crime`] — the three dataset generators.
//! * [`csv`] — minimal CSV I/O for exporting experiment artifacts.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod compas;
pub mod crime;
pub mod csv;
pub mod dataset;
pub mod encode;
pub mod error;
pub mod loader;
pub mod rng;
pub mod split;
pub mod synthetic;

pub use dataset::Dataset;
pub use error::DataError;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, DataError>;
