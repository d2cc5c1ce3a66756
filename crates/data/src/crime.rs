//! Crime & Communities-like dataset generator.
//!
//! The paper uses the UCI Communities & Crime data (1993 US neighbourhoods,
//! socio-economic / demographic / policing attributes, `isViolent` as the
//! label, majority-white communities as the non-protected group) together
//! with crowd-sourced 1–5 star safety ratings scraped from niche.com for
//! ~1500 of the communities. Neither source can be bundled offline, so this
//! module generates a *calibrated synthetic substitute* (see the
//! [crate-level substitutions](crate#substitutions)):
//!
//! * n = 1993 with 1423 non-protected (`s = 0`) and 570 protected (`s = 1`)
//!   communities;
//! * base rates ≈ 0.35 (`s = 0`) and ≈ 0.86 (`s = 1`) — the striking gap in
//!   the real data that makes group fairness hard;
//! * socio-economic features correlated with the violence label;
//! * simulated resident ratings: noisy observations of true neighbourhood
//!   safety on a 1–5 star scale, available for ~75% of communities and with
//!   the mild pro-neighbourhood optimism the paper notes for protected
//!   communities.

use crate::dataset::Dataset;
use crate::rng::{bernoulli, normal, standard_normal};
use crate::Result;
use pfr_linalg::Matrix;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Configuration of the Crime & Communities-like generator.
#[derive(Debug, Clone)]
pub struct CrimeConfig {
    /// Number of non-protected (majority-white) communities (paper: 1423).
    pub n_non_protected: usize,
    /// Number of protected communities (paper: 570).
    pub n_protected: usize,
    /// Target base rate of the non-protected group (paper: 0.35).
    pub base_rate_non_protected: f64,
    /// Target base rate of the protected group (paper: 0.86).
    pub base_rate_protected: f64,
    /// Fraction of communities with resident ratings (paper: ~1500/1993).
    pub rating_coverage: f64,
    /// Optimism bias added to protected-community ratings (stars).
    pub protected_rating_bias: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CrimeConfig {
    fn default() -> Self {
        CrimeConfig {
            n_non_protected: 1423,
            n_protected: 570,
            base_rate_non_protected: 0.35,
            base_rate_protected: 0.86,
            rating_coverage: 0.75,
            protected_rating_bias: 0.3,
            seed: 42,
        }
    }
}

/// A smaller configuration (about a quarter of the records) with the same
/// proportions, for fast tests and benches.
pub fn small_config(seed: u64) -> CrimeConfig {
    CrimeConfig {
        n_non_protected: 356,
        n_protected: 143,
        seed,
        ..CrimeConfig::default()
    }
}

fn logit(p: f64) -> f64 {
    (p / (1.0 - p)).ln()
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Names of the generated socio-economic feature columns.
pub const FEATURE_NAMES: [&str; 10] = [
    "median_income",
    "pct_poverty",
    "pct_unemployed",
    "pct_no_highschool",
    "pct_young_males",
    "pop_density",
    "pct_renters",
    "pct_single_parent",
    "police_per_capita",
    "pct_vacant_housing",
];

/// Generates the Crime & Communities-like dataset.
///
/// Side information is the mean resident safety rating (1–5 stars) where
/// available.
pub fn generate(config: &CrimeConfig) -> Result<Dataset> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n_non_protected + config.n_protected;

    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut groups: Vec<usize> = Vec::with_capacity(n);
    let mut latent_violence: Vec<f64> = Vec::with_capacity(n);

    for group in 0..2usize {
        let count = if group == 0 {
            config.n_non_protected
        } else {
            config.n_protected
        };
        for _ in 0..count {
            // Socio-economic disadvantage is the latent driver; the protected
            // communities are, on average, more disadvantaged — the result of
            // the historical subordination the paper discusses.
            let disadvantage = normal(&mut rng, if group == 1 { 0.8 } else { -0.3 }, 1.0);

            let median_income = (55.0 - 12.0 * disadvantage + normal(&mut rng, 0.0, 8.0)).max(8.0);
            let pct_poverty =
                (12.0 + 8.0 * disadvantage + normal(&mut rng, 0.0, 4.0)).clamp(0.0, 80.0);
            let pct_unemployed =
                (5.5 + 3.0 * disadvantage + normal(&mut rng, 0.0, 2.0)).clamp(0.0, 60.0);
            let pct_no_highschool =
                (18.0 + 7.0 * disadvantage + normal(&mut rng, 0.0, 5.0)).clamp(0.0, 90.0);
            let pct_young_males = (7.0 + normal(&mut rng, 0.0, 1.5)).clamp(2.0, 20.0);
            let pop_density = (3.0 + 1.2 * disadvantage + normal(&mut rng, 0.0, 1.5)).max(0.05);
            let pct_renters =
                (35.0 + 10.0 * disadvantage + normal(&mut rng, 0.0, 8.0)).clamp(0.0, 100.0);
            let pct_single_parent =
                (16.0 + 9.0 * disadvantage + normal(&mut rng, 0.0, 4.0)).clamp(0.0, 90.0);
            let police_per_capita =
                (2.0 + 0.6 * disadvantage + normal(&mut rng, 0.0, 0.5)).max(0.2);
            let pct_vacant_housing =
                (6.0 + 4.0 * disadvantage + normal(&mut rng, 0.0, 2.5)).clamp(0.0, 60.0);

            // Latent violence propensity grows with disadvantage plus noise.
            let violence = 0.9 * disadvantage
                + 0.05 * (pct_young_males - 7.0)
                + 0.08 * (pop_density - 3.0)
                + 0.5 * standard_normal(&mut rng);
            latent_violence.push(violence);

            rows.push(vec![
                median_income,
                pct_poverty,
                pct_unemployed,
                pct_no_highschool,
                pct_young_males,
                pop_density,
                pct_renters,
                pct_single_parent,
                police_per_capita,
                pct_vacant_housing,
            ]);
            groups.push(group);
        }
    }

    // Labels with group-calibrated intercepts on within-group standardized
    // violence, matching the paper's per-group base rates.
    let mut labels = vec![0u8; n];
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
        let mean = idx.iter().map(|&i| latent_violence[i]).sum::<f64>() / idx.len() as f64;
        let var = idx
            .iter()
            .map(|&i| (latent_violence[i] - mean).powi(2))
            .sum::<f64>()
            / idx.len() as f64;
        let std = var.sqrt().max(1e-9);
        let slope = 1.6_f64;
        let intercept =
            logit(base_rate) * (1.0 + std::f64::consts::PI * slope * slope / 8.0).sqrt();
        for &i in &idx {
            let z = (latent_violence[i] - mean) / std;
            let p = sigmoid(intercept + slope * z);
            labels[i] = u8::from(rng.gen::<f64>() < p);
        }
    }

    // Resident safety ratings: 5 stars = very safe, 1 star = unsafe. Safety
    // is the negative of violence; reviews are noisy and slightly optimistic
    // for protected communities (the bias the paper flags).
    let mut side: Vec<Option<f64>> = vec![None; n];
    for i in 0..n {
        if !bernoulli(&mut rng, config.rating_coverage) {
            continue;
        }
        let safety = -latent_violence[i];
        let bias = if groups[i] == 1 {
            config.protected_rating_bias
        } else {
            0.0
        };
        // Map safety (roughly in [-3, 3]) onto 1..5 stars and aggregate a
        // handful of noisy reviews.
        let n_reviews = 3 + (rng.gen::<f64>() * 12.0) as usize;
        let mut total = 0.0;
        for _ in 0..n_reviews {
            let star = 3.0 + safety + bias + 0.8 * standard_normal(&mut rng);
            total += star.clamp(1.0, 5.0);
        }
        side[i] = Some(total / n_reviews as f64);
    }

    Dataset::new(
        "crime-and-communities",
        Matrix::from_rows(&rows)?,
        FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
        labels,
        groups,
        side,
    )
}

/// Generates the dataset with the paper's default sizes and the given seed.
pub fn generate_default(seed: u64) -> Result<Dataset> {
    generate(&CrimeConfig {
        seed,
        ..CrimeConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sizes_and_base_rates() {
        let ds = generate_default(1).unwrap();
        assert_eq!(ds.len(), 1993);
        assert_eq!(ds.group_size(0), 1423);
        assert_eq!(ds.group_size(1), 570);
        let b0 = ds.base_rate(0).unwrap();
        let b1 = ds.base_rate(1).unwrap();
        assert!((b0 - 0.35).abs() < 0.05, "base rate s=0 is {b0}");
        assert!((b1 - 0.86).abs() < 0.05, "base rate s=1 is {b1}");
    }

    #[test]
    fn rating_coverage_matches_configuration() {
        let ds = generate_default(2).unwrap();
        let covered = ds.side_information().iter().filter(|s| s.is_some()).count();
        let frac = covered as f64 / ds.len() as f64;
        assert!((frac - 0.75).abs() < 0.05, "coverage {frac}");
    }

    #[test]
    fn ratings_are_anticorrelated_with_violence_label() {
        let ds = generate_default(3).unwrap();
        let mut rated_violent = Vec::new();
        let mut rated_safe = Vec::new();
        for i in 0..ds.len() {
            if let Some(r) = ds.side_information()[i] {
                if ds.labels()[i] == 1 {
                    rated_violent.push(r);
                } else {
                    rated_safe.push(r);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&rated_safe) > mean(&rated_violent) + 0.3,
            "safe communities should receive higher star ratings"
        );
    }

    #[test]
    fn ratings_stay_in_star_range() {
        let ds = generate(&small_config(5)).unwrap();
        for r in ds.side_information().iter().flatten() {
            assert!((1.0..=5.0).contains(r));
        }
    }

    #[test]
    fn income_is_negatively_correlated_with_label() {
        let ds = generate(&small_config(7)).unwrap();
        let income = ds.features().col(0);
        let corr = pfr_linalg::stats::pearson(&income, &ds.labels_f64());
        assert!(
            corr < -0.1,
            "income/label correlation {corr} should be negative"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_config(11)).unwrap();
        let b = generate(&small_config(11)).unwrap();
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.features(), b.features());
    }
}
