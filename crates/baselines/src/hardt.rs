//! Hardt et al. (NeurIPS 2016) equalized-odds post-processing.
//!
//! The paper uses "Hardt" as the state-of-the-art group-fairness baseline: a
//! post-processing step that takes a trained classifier's scores and derives
//! group-specific decision rules so that the error rates (FPR and FNR) are as
//! equal as possible across groups.
//!
//! The original method solves a small linear program over randomized decision
//! rules built from the classifier's ROC curves. This implementation performs
//! the deterministic variant used by most practical libraries: a grid search
//! over *group-specific thresholds*, picking the pair that minimizes the
//! equalized-odds violation with accuracy as the tie-breaker. The behaviour
//! relevant to the paper's figures — near-equal FPR/FNR between groups — is
//! reproduced; the randomization refinement is omitted (see the
//! [crate-level substitutions](crate#substitutions)).

use crate::error::BaselineError;
use crate::Result;

/// Hyper-parameters of the post-processor.
#[derive(Debug, Clone)]
pub struct HardtConfig {
    /// Number of candidate thresholds per group (quantiles of the scores).
    pub num_thresholds: usize,
    /// Weight of the accuracy tie-breaker relative to the equalized-odds
    /// violation (small, so fairness dominates).
    pub accuracy_weight: f64,
}

impl Default for HardtConfig {
    fn default() -> Self {
        HardtConfig {
            num_thresholds: 101,
            accuracy_weight: 0.05,
        }
    }
}

/// A fitted equalized-odds post-processor: one decision threshold per group.
#[derive(Debug, Clone)]
pub struct HardtPostProcessor {
    thresholds: Vec<(usize, f64)>,
    violation: f64,
}

impl HardtPostProcessor {
    /// Fits group-specific thresholds on held-out scores, labels and groups.
    pub fn fit(
        scores: &[f64],
        labels: &[u8],
        groups: &[usize],
        config: &HardtConfig,
    ) -> Result<Self> {
        let n = scores.len();
        if labels.len() != n {
            return Err(BaselineError::DimensionMismatch {
                what: "labels",
                got: labels.len(),
                expected: n,
            });
        }
        if groups.len() != n {
            return Err(BaselineError::DimensionMismatch {
                what: "groups",
                got: groups.len(),
                expected: n,
            });
        }
        if n == 0 {
            return Err(BaselineError::InvalidConfig(
                "cannot fit the post-processor on empty data".to_string(),
            ));
        }
        if config.num_thresholds < 2 {
            return Err(BaselineError::InvalidConfig(
                "need at least two candidate thresholds".to_string(),
            ));
        }

        let mut group_ids: Vec<usize> = groups.to_vec();
        group_ids.sort_unstable();
        group_ids.dedup();
        if group_ids.len() != 2 {
            return Err(BaselineError::InvalidConfig(format!(
                "the equalized-odds search supports exactly two groups, got {}",
                group_ids.len()
            )));
        }

        // Candidate thresholds per group: quantiles of the group's scores
        // plus the extremes 0 and 1.
        let candidates: Vec<Vec<f64>> = group_ids
            .iter()
            .map(|&g| {
                let mut s: Vec<f64> = (0..n)
                    .filter(|&i| groups[i] == g)
                    .map(|i| scores[i])
                    .collect();
                s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let mut cand = Vec::with_capacity(config.num_thresholds + 2);
                cand.push(f64::NEG_INFINITY);
                for t in 0..config.num_thresholds {
                    let pos = t * (s.len() - 1) / (config.num_thresholds - 1);
                    cand.push(s[pos]);
                }
                cand.push(f64::INFINITY);
                cand.dedup_by(|a, b| a == b);
                cand
            })
            .collect();

        // Error rates of group `g` at threshold `t`.
        let rates = |g: usize, t: f64| -> (f64, f64, f64) {
            let mut tp = 0.0;
            let mut fp = 0.0;
            let mut tn = 0.0;
            let mut fn_ = 0.0;
            for i in 0..n {
                if groups[i] != g {
                    continue;
                }
                let pred = scores[i] >= t;
                match (labels[i], pred) {
                    (1, true) => tp += 1.0,
                    (0, true) => fp += 1.0,
                    (0, false) => tn += 1.0,
                    (1, false) => fn_ += 1.0,
                    _ => unreachable!("labels validated upstream"),
                }
            }
            let fpr = if fp + tn > 0.0 { fp / (fp + tn) } else { 0.0 };
            let fnr = if fn_ + tp > 0.0 {
                fn_ / (fn_ + tp)
            } else {
                0.0
            };
            let total = tp + fp + tn + fn_;
            let acc = if total > 0.0 { (tp + tn) / total } else { 0.0 };
            (fpr, fnr, acc)
        };

        let (g0, g1) = (group_ids[0], group_ids[1]);
        let mut best: Option<((f64, f64), f64)> = None; // ((t0, t1), objective)
        let mut best_violation = f64::INFINITY;
        for &t0 in &candidates[0] {
            let (fpr0, fnr0, acc0) = rates(g0, t0);
            for &t1 in &candidates[1] {
                let (fpr1, fnr1, acc1) = rates(g1, t1);
                let violation = (fpr0 - fpr1).abs().max((fnr0 - fnr1).abs());
                let objective = violation - config.accuracy_weight * (acc0 + acc1) / 2.0;
                if best.is_none() || objective < best.unwrap().1 {
                    best = Some(((t0, t1), objective));
                    best_violation = violation;
                }
            }
        }
        let ((t0, t1), _) = best.expect("at least one candidate pair exists");
        Ok(HardtPostProcessor {
            thresholds: vec![(g0, t0), (g1, t1)],
            violation: best_violation,
        })
    }

    /// Fits with the default configuration.
    pub fn fit_default(scores: &[f64], labels: &[u8], groups: &[usize]) -> Result<Self> {
        Self::fit(scores, labels, groups, &HardtConfig::default())
    }

    /// The fitted `(group, threshold)` pairs.
    pub fn thresholds(&self) -> &[(usize, f64)] {
        &self.thresholds
    }

    /// The equalized-odds violation achieved on the fitting data.
    pub fn violation(&self) -> f64 {
        self.violation
    }

    /// Applies the group-specific thresholds to new scores.
    pub fn predict(&self, scores: &[f64], groups: &[usize]) -> Result<Vec<u8>> {
        if scores.len() != groups.len() {
            return Err(BaselineError::DimensionMismatch {
                what: "groups",
                got: groups.len(),
                expected: scores.len(),
            });
        }
        scores
            .iter()
            .zip(groups.iter())
            .map(|(&s, &g)| {
                let threshold = self
                    .thresholds
                    .iter()
                    .find(|(tg, _)| *tg == g)
                    .map(|(_, t)| *t)
                    .ok_or_else(|| {
                        BaselineError::InvalidConfig(format!(
                            "group {g} was not seen during post-processor fitting"
                        ))
                    })?;
                Ok(u8::from(s >= threshold))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfr_metrics::GroupFairnessReport;

    /// A biased scorer: group 1 receives systematically higher scores than
    /// its true risk warrants, so a single global threshold produces very
    /// different error rates between groups.
    fn biased_scores() -> (Vec<f64>, Vec<u8>, Vec<usize>) {
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        let mut groups = Vec::new();
        let mut state = 5u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..400 {
            let group = i % 2;
            let y = u8::from(next() > 0.5);
            let base = 0.25 + 0.5 * y as f64 + 0.2 * (next() - 0.5);
            // Group 1 gets an unfair score bump.
            let score = (base + if group == 1 { 0.25 } else { 0.0 }).clamp(0.0, 1.0);
            scores.push(score);
            labels.push(y);
            groups.push(group);
        }
        (scores, labels, groups)
    }

    #[test]
    fn post_processing_reduces_equalized_odds_gap() {
        let (scores, labels, groups) = biased_scores();
        // Before: single global threshold.
        let global_preds: Vec<u8> = scores.iter().map(|&s| u8::from(s >= 0.5)).collect();
        let before = GroupFairnessReport::compute(&labels, &global_preds, &groups, None).unwrap();

        let post = HardtPostProcessor::fit_default(&scores, &labels, &groups).unwrap();
        let after_preds = post.predict(&scores, &groups).unwrap();
        let after = GroupFairnessReport::compute(&labels, &after_preds, &groups, None).unwrap();

        assert!(
            after.equalized_odds_gap() < before.equalized_odds_gap(),
            "post-processing should reduce the equalized-odds gap ({} vs {})",
            after.equalized_odds_gap(),
            before.equalized_odds_gap()
        );
        assert!(after.equalized_odds_gap() < 0.15);
        assert!(post.violation() <= before.equalized_odds_gap() + 1e-9);
    }

    #[test]
    fn thresholds_are_group_specific() {
        let (scores, labels, groups) = biased_scores();
        let post = HardtPostProcessor::fit_default(&scores, &labels, &groups).unwrap();
        let t: Vec<f64> = post.thresholds().iter().map(|&(_, t)| t).collect();
        assert_eq!(t.len(), 2);
        // Correcting a biased scorer requires different per-group thresholds;
        // the exact ordering depends on where the ROC curves intersect, so we
        // only require that the search did not collapse to a single global
        // threshold and that both thresholds are in the score range.
        assert!((t[0] - t[1]).abs() > 1e-9);
        for &threshold in &t {
            assert!((0.0..=1.0).contains(&threshold));
        }
    }

    #[test]
    fn unknown_group_at_prediction_time_is_an_error() {
        let (scores, labels, groups) = biased_scores();
        let post = HardtPostProcessor::fit_default(&scores, &labels, &groups).unwrap();
        assert!(post.predict(&[0.5], &[7]).is_err());
        assert!(post.predict(&[0.5, 0.2], &[0]).is_err());
    }

    #[test]
    fn input_validation() {
        assert!(HardtPostProcessor::fit_default(&[0.5], &[1, 0], &[0]).is_err());
        assert!(HardtPostProcessor::fit_default(&[0.5], &[1], &[0, 1]).is_err());
        assert!(HardtPostProcessor::fit_default(&[], &[], &[]).is_err());
        // Only one group present.
        assert!(HardtPostProcessor::fit_default(&[0.1, 0.9], &[0, 1], &[0, 0]).is_err());
        // Bad config.
        assert!(HardtPostProcessor::fit(
            &[0.1, 0.9],
            &[0, 1],
            &[0, 1],
            &HardtConfig {
                num_thresholds: 1,
                ..HardtConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn perfectly_fair_scores_keep_good_accuracy() {
        // Unbiased scores: the post-processor should not destroy accuracy.
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        let mut groups = Vec::new();
        for i in 0..200 {
            let y = (i % 2) as u8;
            scores.push(0.2 + 0.6 * y as f64);
            labels.push(y);
            groups.push((i / 2) % 2);
        }
        let post = HardtPostProcessor::fit_default(&scores, &labels, &groups).unwrap();
        let preds = post.predict(&scores, &groups).unwrap();
        let correct = preds
            .iter()
            .zip(labels.iter())
            .filter(|(a, b)| a == b)
            .count();
        assert!(correct as f64 / labels.len() as f64 > 0.95);
    }
}
