//! COMPAS-like recidivism dataset generator.
//!
//! The paper uses ProPublica's COMPAS data (8803 offenders, race as protected
//! attribute, rearrest as label, Northpointe decile scores as within-group
//! ranking side information). That data cannot be bundled here, so this
//! module generates a *calibrated synthetic substitute* that reproduces the
//! statistics the evaluation relies on (see the
//! [crate-level substitutions](crate#substitutions)):
//!
//! * n = 8803 with group sizes 4218 (others, `s = 0`) and 4585
//!   (African-American, `s = 1`);
//! * base rates ≈ 0.41 (`s = 0`) and ≈ 0.55 (`s = 1`);
//! * criminal-history features correlated with the rearrest label;
//! * a within-group decile score (1–10) derived from a noisy latent risk,
//!   mimicking Northpointe's undisclosed scoring model: it is informative
//!   about within-group ranking but its absolute value is not comparable
//!   across groups.

use crate::dataset::Dataset;
use crate::encode::{ColumnKind, FeatureEncoder, Schema, Value};
use crate::rng::{bernoulli, normal, standard_normal};
use crate::Result;
use pfr_linalg::stats::quantile_buckets;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Configuration of the COMPAS-like generator.
#[derive(Debug, Clone)]
pub struct CompasConfig {
    /// Size of the non-protected group (`s = 0`, paper: 4218).
    pub n_non_protected: usize,
    /// Size of the protected group (`s = 1`, paper: 4585).
    pub n_protected: usize,
    /// Target base rate of the non-protected group (paper: 0.41).
    pub base_rate_non_protected: f64,
    /// Target base rate of the protected group (paper: 0.55).
    pub base_rate_protected: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CompasConfig {
    fn default() -> Self {
        CompasConfig {
            n_non_protected: 4218,
            n_protected: 4585,
            base_rate_non_protected: 0.41,
            base_rate_protected: 0.55,
            seed: 42,
        }
    }
}

/// A smaller configuration (10% of the records) that keeps the same group
/// proportions and base rates; useful for fast tests and benches.
pub fn small_config(seed: u64) -> CompasConfig {
    CompasConfig {
        n_non_protected: 422,
        n_protected: 458,
        seed,
        ..CompasConfig::default()
    }
}

fn logit(p: f64) -> f64 {
    (p / (1.0 - p)).ln()
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Generates the COMPAS-like dataset.
///
/// Feature columns: `age`, `priors_count`, `juvenile_felonies`,
/// `juvenile_misdemeanors`, `days_in_jail`, `charge_degree=F`,
/// `charge_degree=M`, `sex=female`, `sex=male`. Side information is the
/// within-group decile score in 1..=10.
pub fn generate(config: &CompasConfig) -> Result<Dataset> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n_non_protected + config.n_protected;

    let schema = Schema::new(vec![
        ("age".to_string(), ColumnKind::Numeric),
        ("priors_count".to_string(), ColumnKind::Numeric),
        ("juvenile_felonies".to_string(), ColumnKind::Numeric),
        ("juvenile_misdemeanors".to_string(), ColumnKind::Numeric),
        ("days_in_jail".to_string(), ColumnKind::Numeric),
        ("charge_degree".to_string(), ColumnKind::Categorical),
        ("sex".to_string(), ColumnKind::Categorical),
    ]);

    let mut records: Vec<Vec<Value>> = Vec::with_capacity(n);
    let mut groups: Vec<usize> = Vec::with_capacity(n);
    let mut labels: Vec<u8> = Vec::with_capacity(n);
    let mut latent_risk: Vec<f64> = Vec::with_capacity(n);

    for group in 0..2usize {
        let (count, base_rate) = if group == 0 {
            (config.n_non_protected, config.base_rate_non_protected)
        } else {
            (config.n_protected, config.base_rate_protected)
        };
        for _ in 0..count {
            // Age: skewed towards younger offenders.
            let age = (18.0 + 14.0 * standard_normal(&mut rng).abs()).min(80.0);
            // Criminal history: the protected group's records reflect the
            // effect of heavier historical policing (more recorded priors),
            // which is precisely the bias the paper's fairness graph is meant
            // to counteract.
            let policing_bias = if group == 1 { 0.5 } else { 0.0 };
            let priors = (normal(&mut rng, 1.5 + policing_bias, 2.5).max(0.0)).floor();
            let juv_fel = (normal(&mut rng, 0.05 + 0.05 * policing_bias, 0.4).max(0.0)).floor();
            let juv_misd = (normal(&mut rng, 0.1 + 0.1 * policing_bias, 0.6).max(0.0)).floor();
            let days_in_jail = (normal(&mut rng, 12.0 + 4.0 * priors, 20.0)).max(0.0);
            let felony = bernoulli(&mut rng, 0.64);
            let female = bernoulli(&mut rng, 0.19);

            // Latent criminogenic risk: younger, more priors, felony charge.
            let risk = -0.03 * (age - 35.0)
                + 0.30 * priors
                + 0.45 * juv_fel
                + 0.25 * juv_misd
                + 0.004 * days_in_jail
                + if felony { 0.25 } else { 0.0 }
                + 0.6 * standard_normal(&mut rng);
            latent_risk.push(risk);

            records.push(vec![
                Value::Number(age),
                Value::Number(priors),
                Value::Number(juv_fel),
                Value::Number(juv_misd),
                Value::Number(days_in_jail),
                Value::Category(if felony { "F".into() } else { "M".into() }),
                Value::Category(if female {
                    "female".into()
                } else {
                    "male".into()
                }),
            ]);
            groups.push(group);
            // Rearrest probability calibrated to the group base rate.
            let _ = base_rate; // used below after within-group standardization
            labels.push(0); // placeholder, assigned after risk standardization
        }
    }

    // Assign labels with group-calibrated intercepts on the standardized
    // within-group risk, so the realized base rates track Table 1.
    for group in 0..2usize {
        let base_rate = if group == 0 {
            config.base_rate_non_protected
        } else {
            config.base_rate_protected
        };
        let idx: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter_map(|(i, &g)| if g == group { Some(i) } else { None })
            .collect();
        let mean = idx.iter().map(|&i| latent_risk[i]).sum::<f64>() / idx.len() as f64;
        let var = idx
            .iter()
            .map(|&i| (latent_risk[i] - mean).powi(2))
            .sum::<f64>()
            / idx.len() as f64;
        let std = var.sqrt().max(1e-9);
        // Slope 1.4 gives an informative but noisy label; the intercept
        // correction (divide by sqrt(1 + π s²/8)) keeps the marginal rate at
        // the target under the logistic-normal approximation.
        let slope = 1.4_f64;
        let intercept =
            logit(base_rate) * (1.0 + std::f64::consts::PI * slope * slope / 8.0).sqrt();
        for &i in &idx {
            let z = (latent_risk[i] - mean) / std;
            let p = sigmoid(intercept + slope * z);
            labels[i] = u8::from(rng.gen::<f64>() < p);
        }
    }

    // Northpointe-style decile scores: a noisy observation of the latent
    // risk, converted to within-group deciles (1..=10). The noise models the
    // questionnaire-based inputs the real tool uses.
    let mut side: Vec<Option<f64>> = vec![None; n];
    for group in 0..2usize {
        let idx: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter_map(|(i, &g)| if g == group { Some(i) } else { None })
            .collect();
        let noisy: Vec<f64> = idx
            .iter()
            .map(|&i| latent_risk[i] + 0.5 * standard_normal(&mut rng))
            .collect();
        let deciles = quantile_buckets(&noisy, 10)?;
        for (&i, &d) in idx.iter().zip(deciles.iter()) {
            side[i] = Some((d + 1) as f64);
        }
    }

    let (encoder, features) = FeatureEncoder::fit_transform(schema, &records)?;
    Dataset::new(
        "compas",
        features,
        encoder.feature_names().to_vec(),
        labels,
        groups,
        side,
    )
}

/// Generates the dataset with the paper's default sizes and the given seed.
pub fn generate_default(seed: u64) -> Result<Dataset> {
    generate(&CompasConfig {
        seed,
        ..CompasConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sizes_and_base_rates() {
        let ds = generate_default(1).unwrap();
        assert_eq!(ds.len(), 8803);
        assert_eq!(ds.group_size(0), 4218);
        assert_eq!(ds.group_size(1), 4585);
        let b0 = ds.base_rate(0).unwrap();
        let b1 = ds.base_rate(1).unwrap();
        assert!((b0 - 0.41).abs() < 0.04, "base rate s=0 is {b0}");
        assert!((b1 - 0.55).abs() < 0.04, "base rate s=1 is {b1}");
    }

    #[test]
    fn decile_scores_cover_every_individual_and_range() {
        let ds = generate(&small_config(3)).unwrap();
        for s in ds.side_information() {
            let v = s.expect("every offender has a decile score");
            assert!((1.0..=10.0).contains(&v));
        }
    }

    #[test]
    fn decile_scores_are_informative_within_group() {
        // Higher decile ⇒ higher empirical rearrest rate within each group.
        let ds = generate_default(5).unwrap();
        for group in 0..2usize {
            let idx = ds.indices_of_group(group);
            let low: Vec<usize> = idx
                .iter()
                .copied()
                .filter(|&i| ds.side_information()[i].unwrap() <= 3.0)
                .collect();
            let high: Vec<usize> = idx
                .iter()
                .copied()
                .filter(|&i| ds.side_information()[i].unwrap() >= 8.0)
                .collect();
            let rate = |set: &[usize]| {
                set.iter().filter(|&&i| ds.labels()[i] == 1).count() as f64 / set.len() as f64
            };
            assert!(
                rate(&high) > rate(&low) + 0.15,
                "group {group}: decile scores should separate risk"
            );
        }
    }

    #[test]
    fn features_are_label_informative() {
        // Priors count should correlate positively with rearrest.
        let ds = generate(&small_config(9)).unwrap();
        let priors_col = ds
            .feature_names()
            .iter()
            .position(|n| n == "priors_count")
            .unwrap();
        let priors = ds.features().col(priors_col);
        let labels = ds.labels_f64();
        let corr = pfr_linalg::stats::pearson(&priors, &labels);
        assert!(corr > 0.1, "priors/label correlation {corr} too small");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_config(4)).unwrap();
        let b = generate(&small_config(4)).unwrap();
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.features(), b.features());
    }

    #[test]
    fn one_hot_columns_exist() {
        let ds = generate(&small_config(2)).unwrap();
        let names = ds.feature_names();
        assert!(names.iter().any(|n| n == "charge_degree=F"));
        assert!(names.iter().any(|n| n == "sex=female"));
        assert_eq!(ds.num_features(), 9);
    }
}
