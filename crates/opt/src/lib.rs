//! # pfr-opt
//!
//! Optimization substrate for the Pairwise Fair Representations (PFR)
//! reproduction.
//!
//! Two kinds of optimization are needed by the workspace:
//!
//! * The downstream classifier. The paper trains an *out-of-the-box logistic
//!   regression* on every learned representation; [`LogisticRegression`]
//!   implements it with Newton/IRLS steps (and a gradient fallback) and L2
//!   regularization.
//! * The iFair and LFR baselines minimize non-convex objectives over
//!   prototype locations and feature weights. [`optimizer`] provides
//!   first-order optimizers ([`optimizer::Adam`] and
//!   [`optimizer::GradientDescent`]) over a caller-supplied
//!   [`optimizer::Objective`].
//!
//! The original implementations rely on `scipy.optimize` / L-BFGS; Adam with
//! the same iteration budgets reproduces the qualitative behaviour.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod logistic;
pub mod math;
pub mod optimizer;

pub use error::OptError;
pub use logistic::{LogisticRegression, LogisticRegressionConfig};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, OptError>;
