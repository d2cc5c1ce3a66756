//! iFair — "Learning Individually Fair Data Representations" (Lahoti et al.,
//! ICDE 2019).
//!
//! iFair is the unsupervised cousin of LFR: individuals are mapped to soft
//! assignments over `K` prototypes and the learned representation is the
//! prototype reconstruction `x̂_i = Σ_k u_ik v_k` (same dimensionality as the
//! input). The objective combines
//!
//! * `L_util` — reconstruction error, "retain as much information of the
//!   input as possible";
//! * `L_if` — individual fairness in the data-space graph `WX`: neighbours in
//!   the input space should receive similar prototype assignments
//!   (`Σ_(i,j)∈WX w_ij ‖u_i − u_j‖²`);
//! * `L_obf` — obfuscation of the protected group: the mean prototype
//!   occupancy should not differ between groups.
//!
//! The original learns per-feature distance weights that suppress the
//! protected attributes; since the feature matrices in this workspace already
//! exclude the protected attribute, the obfuscation term plays that role
//! (see the [crate-level substitutions](crate#substitutions)).

use crate::error::BaselineError;
use crate::prototype;
use crate::representation::{FitContext, Representation, RepresentationMethod};
use crate::Result;
use pfr_graph::SparseGraph;
use pfr_linalg::Matrix;
use pfr_opt::optimizer::{Adam, Objective, StoppingCriteria};

/// Hyper-parameters of iFair.
#[derive(Debug, Clone)]
pub struct IFairConfig {
    /// Number of prototypes `K`.
    pub num_prototypes: usize,
    /// Weight of the reconstruction (utility) term.
    pub lambda_utility: f64,
    /// Weight of the individual-fairness (WX smoothness) term.
    pub lambda_fairness: f64,
    /// Weight of the protected-group obfuscation term.
    pub lambda_obfuscation: f64,
    /// Adam iterations.
    pub max_iterations: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Seed for the prototype initialization.
    pub seed: u64,
}

impl Default for IFairConfig {
    fn default() -> Self {
        IFairConfig {
            num_prototypes: 10,
            lambda_utility: 1.0,
            lambda_fairness: 1.0,
            lambda_obfuscation: 1.0,
            max_iterations: 300,
            learning_rate: 0.05,
            seed: 42,
        }
    }
}

/// The (unfitted) iFair estimator.
#[derive(Debug, Clone, Default)]
pub struct IFair {
    config: IFairConfig,
}

impl IFair {
    /// Creates an estimator with the given configuration.
    pub fn new(config: IFairConfig) -> Self {
        IFair { config }
    }

    /// The configuration this estimator will fit with.
    pub fn config(&self) -> &IFairConfig {
        &self.config
    }

    /// Like [`RepresentationMethod::fit`] but returns the concrete
    /// [`FittedIFair`] type.
    pub fn fit_concrete(&self, ctx: &FitContext<'_>) -> Result<FittedIFair> {
        ctx.validate()?;
        if self.config.num_prototypes < 2 {
            return Err(BaselineError::InvalidConfig(
                "iFair needs at least two prototypes".to_string(),
            ));
        }
        if self.config.lambda_utility < 0.0
            || self.config.lambda_fairness < 0.0
            || self.config.lambda_obfuscation < 0.0
        {
            return Err(BaselineError::InvalidConfig(
                "iFair term weights must be non-negative".to_string(),
            ));
        }

        let protected_idx: Vec<usize> = ctx
            .groups
            .iter()
            .enumerate()
            .filter_map(|(i, &g)| if g == 1 { Some(i) } else { None })
            .collect();
        let non_protected_idx: Vec<usize> = ctx
            .groups
            .iter()
            .enumerate()
            .filter_map(|(i, &g)| if g != 1 { Some(i) } else { None })
            .collect();

        let objective = IFairObjective {
            x: ctx.x,
            wx: ctx.wx,
            config: &self.config,
            protected_idx,
            non_protected_idx,
        };

        let k = self.config.num_prototypes;
        let m = ctx.x.cols();
        let v0 = prototype::init_prototypes(ctx.x, k, self.config.seed);
        let start = prototype::flatten(&v0);
        let adam = Adam {
            learning_rate: self.config.learning_rate,
            stopping: StoppingCriteria {
                max_iterations: self.config.max_iterations,
                tolerance: 1e-9,
            },
            ..Adam::default()
        };
        let result = adam.minimize(&objective, &start)?;
        Ok(FittedIFair {
            prototypes: prototype::unflatten(&result.params, k, m),
            final_loss: result.value,
        })
    }
}

/// The iFair objective over the flattened prototype matrix.
struct IFairObjective<'a> {
    x: &'a Matrix,
    wx: &'a SparseGraph,
    config: &'a IFairConfig,
    protected_idx: Vec<usize>,
    non_protected_idx: Vec<usize>,
}

impl Objective for IFairObjective<'_> {
    fn dim(&self) -> usize {
        self.config.num_prototypes * self.x.cols()
    }

    fn value_and_grad(&self, params: &[f64]) -> (f64, Vec<f64>) {
        let n = self.x.rows();
        let k = self.config.num_prototypes;
        let m = self.x.cols();
        let prototypes = prototype::unflatten(params, k, m);
        let fwd = prototype::forward(self.x, &prototypes);

        // ---- Utility: mean squared reconstruction error ----
        let mut loss_util = 0.0;
        let mut grad_x_hat = Matrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                let d = fwd.x_hat[(i, j)] - self.x[(i, j)];
                loss_util += d * d;
                grad_x_hat[(i, j)] = self.config.lambda_utility * 2.0 * d / n as f64;
            }
        }
        loss_util /= n as f64;

        let mut grad_u = Matrix::zeros(n, k);

        // ---- Individual fairness on WX: Σ w_ij ‖u_i − u_j‖² ----
        let mut loss_if = 0.0;
        let norm = self.wx.total_weight().max(1e-12);
        for e in self.wx.edges() {
            let (i, j, w) = (e.i as usize, e.j as usize, e.weight);
            for p in 0..k {
                let diff = fwd.u[(i, p)] - fwd.u[(j, p)];
                loss_if += w * diff * diff;
                let g = self.config.lambda_fairness * 2.0 * w * diff / norm;
                grad_u[(i, p)] += g;
                grad_u[(j, p)] -= g;
            }
        }
        loss_if /= norm;

        // ---- Obfuscation: parity of mean prototype occupancy ----
        let n_prot = self.protected_idx.len().max(1) as f64;
        let n_non = self.non_protected_idx.len().max(1) as f64;
        let mut loss_obf = 0.0;
        for p in 0..k {
            let mean_prot: f64 = self
                .protected_idx
                .iter()
                .map(|&i| fwd.u[(i, p)])
                .sum::<f64>()
                / n_prot;
            let mean_non: f64 = self
                .non_protected_idx
                .iter()
                .map(|&i| fwd.u[(i, p)])
                .sum::<f64>()
                / n_non;
            let diff = mean_prot - mean_non;
            loss_obf += diff.abs();
            let sign = if diff >= 0.0 { 1.0 } else { -1.0 };
            for &i in &self.protected_idx {
                grad_u[(i, p)] += self.config.lambda_obfuscation * sign / n_prot;
            }
            for &i in &self.non_protected_idx {
                grad_u[(i, p)] -= self.config.lambda_obfuscation * sign / n_non;
            }
        }

        let total = self.config.lambda_utility * loss_util
            + self.config.lambda_fairness * loss_if
            + self.config.lambda_obfuscation * loss_obf;

        let grad_v = prototype::backward(self.x, &prototypes, &fwd, &grad_u, &grad_x_hat);
        (total, prototype::flatten(&grad_v))
    }
}

/// A fitted iFair model: the learned prototypes.
#[derive(Debug, Clone)]
pub struct FittedIFair {
    prototypes: Matrix,
    final_loss: f64,
}

impl FittedIFair {
    /// The learned prototypes (K x m).
    pub fn prototypes(&self) -> &Matrix {
        &self.prototypes
    }

    /// Final value of the iFair objective.
    pub fn final_loss(&self) -> f64 {
        self.final_loss
    }
}

impl Representation for FittedIFair {
    fn transform(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != self.prototypes.cols() {
            return Err(BaselineError::DimensionMismatch {
                what: "feature columns",
                got: x.cols(),
                expected: self.prototypes.cols(),
            });
        }
        // iFair's representation is the prototype reconstruction x̂ (same
        // dimensionality as the input).
        Ok(prototype::forward(x, &self.prototypes).x_hat)
    }

    fn output_dim(&self) -> usize {
        self.prototypes.cols()
    }
}

impl RepresentationMethod for IFair {
    fn name(&self) -> String {
        "iFair".to_string()
    }

    fn fit(&self, ctx: &FitContext<'_>) -> Result<Box<dyn Representation>> {
        Ok(Box::new(self.fit_concrete(ctx)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfr_graph::KnnGraphBuilder;

    fn toy_context() -> (Matrix, Vec<u8>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut groups = Vec::new();
        let mut state = 99u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..50 {
            let group = i % 2;
            // The group is encoded strongly in feature 1.
            let x0 = next() * 2.0 - 1.0;
            let x1 = group as f64 * 2.0 + next() * 0.3;
            rows.push(vec![x0, x1]);
            labels.push(u8::from(x0 > 0.0));
            groups.push(group);
        }
        (Matrix::from_rows(&rows).unwrap(), labels, groups)
    }

    fn fast_config() -> IFairConfig {
        IFairConfig {
            num_prototypes: 4,
            max_iterations: 150,
            ..IFairConfig::default()
        }
    }

    #[test]
    fn representation_has_input_dimensionality() {
        let (x, labels, groups) = toy_context();
        let wx = KnnGraphBuilder::new(3).build(&x).unwrap();
        let ctx = FitContext {
            x: &x,
            labels: &labels,
            groups: &groups,
            wx: &wx,
        };
        let rep = IFair::new(fast_config()).fit(&ctx).unwrap();
        let z = rep.transform(&x).unwrap();
        assert_eq!(z.shape(), (50, 2));
        assert_eq!(rep.output_dim(), 2);
        assert!(rep.transform(&Matrix::zeros(1, 5)).is_err());
        assert_eq!(IFair::default().name(), "iFair");
    }

    #[test]
    fn training_reduces_the_objective() {
        let (x, labels, groups) = toy_context();
        let wx = KnnGraphBuilder::new(3).build(&x).unwrap();
        let ctx = FitContext {
            x: &x,
            labels: &labels,
            groups: &groups,
            wx: &wx,
        };
        let short = IFair::new(IFairConfig {
            max_iterations: 2,
            ..fast_config()
        })
        .fit_concrete(&ctx)
        .unwrap();
        let long = IFair::new(IFairConfig {
            max_iterations: 300,
            ..fast_config()
        })
        .fit_concrete(&ctx)
        .unwrap();
        assert!(long.final_loss() <= short.final_loss() + 1e-9);
    }

    #[test]
    fn obfuscation_reduces_group_separation_in_the_representation() {
        let (x, labels, groups) = toy_context();
        let wx = KnnGraphBuilder::new(3).build(&x).unwrap();
        let ctx = FitContext {
            x: &x,
            labels: &labels,
            groups: &groups,
            wx: &wx,
        };
        // Distance between group centroids in the original space vs in the
        // representation learned with a strong obfuscation weight.
        let centroid = |m: &Matrix, idx: &[usize]| -> Vec<f64> {
            let mut c = vec![0.0; m.cols()];
            for &i in idx {
                for (j, v) in m.row(i).iter().enumerate() {
                    c[j] += v / idx.len() as f64;
                }
            }
            c
        };
        let prot: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter_map(|(i, &g)| (g == 1).then_some(i))
            .collect();
        let non: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter_map(|(i, &g)| (g == 0).then_some(i))
            .collect();
        let dist = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        let orig_gap = dist(&centroid(&x, &prot), &centroid(&x, &non));

        let rep = IFair::new(IFairConfig {
            lambda_obfuscation: 5.0,
            max_iterations: 400,
            ..fast_config()
        })
        .fit(&ctx)
        .unwrap();
        let z = rep.transform(&x).unwrap();
        let learned_gap = dist(&centroid(&z, &prot), &centroid(&z, &non));
        assert!(
            learned_gap < orig_gap,
            "obfuscation should shrink the group gap ({learned_gap} vs {orig_gap})"
        );
    }

    #[test]
    fn config_validation() {
        let (x, labels, groups) = toy_context();
        let wx = KnnGraphBuilder::new(3).build(&x).unwrap();
        let ctx = FitContext {
            x: &x,
            labels: &labels,
            groups: &groups,
            wx: &wx,
        };
        assert!(IFair::new(IFairConfig {
            num_prototypes: 0,
            ..IFairConfig::default()
        })
        .fit(&ctx)
        .is_err());
        assert!(IFair::new(IFairConfig {
            lambda_fairness: -1.0,
            ..IFairConfig::default()
        })
        .fit(&ctx)
        .is_err());
    }
}
