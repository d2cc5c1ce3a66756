//! Everything the program under test receives is generated here from the
//! `--seed` argument: the COMPAS-like data, the serving bundles trained on
//! it, and the score request vectors.

use crate::params::*;
use pfr::core::persistence::ModelBundle;
use pfr::data::{compas, split, Dataset};
use pfr::eval::pipeline::DatasetSpec;
use pfr::graph::SparseGraph;
use pfr::metrics::{consistency, roc_auc};
use pfr::pipeline::{FairPipeline, FairPipelineConfig, FittedFairPipeline};
use pfr::serve::ServableModel;

/// A train/test split of COMPAS-like data plus the test fairness graph the
/// quality metrics are taken on.
pub struct Compas {
    pub train: Dataset,
    pub test: Dataset,
    pub wf_test: SparseGraph,
    /// Every record's learner features (protected attribute included): the
    /// rows score requests are perturbed from.
    pub rows: Vec<Vec<f64>>,
}

impl Compas {
    /// The paper-size data set (8,803 records) when `full`, else the
    /// 10% `small_config` with the same proportions.
    pub fn generate(seed: u64, full: bool) -> Compas {
        let config = if full {
            compas::CompasConfig {
                seed,
                ..compas::CompasConfig::default()
            }
        } else {
            compas::small_config(seed)
        };
        let data = compas::generate(&config).expect("COMPAS generator accepts its own configs");
        let parts = split::train_test_split(&data, TEST_FRACTION, seed).expect("valid fraction");
        let train = data
            .subset(&parts.train)
            .expect("split indices are in range");
        let test = data
            .subset(&parts.test)
            .expect("split indices are in range");
        let wf_test = DatasetSpec::Compas
            .build_fairness_graph(&test, QUANTILES)
            .expect("COMPAS carries decile side information");
        let (x, _) = data.features_with_protected().expect("COMPAS has groups");
        let rows = (0..x.rows()).map(|i| x.row(i).to_vec()).collect();
        Compas {
            train,
            test,
            wf_test,
            rows,
        }
    }

    /// One full fit through the public pipeline: `WF` over the training
    /// split, then standardize → `WX` → PFR → transform → logistic fit.
    pub fn fit(&self, gamma: f64) -> FittedFairPipeline {
        let wf = DatasetSpec::Compas
            .build_fairness_graph(&self.train, QUANTILES)
            .expect("COMPAS carries decile side information");
        FairPipeline::new(pipeline_config(gamma))
            .fit(&self.train, &wf)
            .expect("the pipeline fits COMPAS")
    }

    /// Test-split ROC AUC and `WF` consistency of a fitted pipeline.
    pub fn quality(&self, fitted: &FittedFairPipeline) -> (f64, f64) {
        let proba = fitted
            .predict_proba(&self.test)
            .expect("test split fits the model");
        let auc = roc_auc(self.test.labels(), &proba).expect("both classes in the test split");
        let hard: Vec<f64> = fitted
            .predict(&self.test)
            .expect("test split fits the model")
            .into_iter()
            .map(f64::from)
            .collect();
        let cons = consistency(&self.wf_test, &hard).expect("graph matches the test split");
        (auc, cons)
    }
}

/// The pipeline settings of every fit in the benchmark.
pub fn pipeline_config(gamma: f64) -> FairPipelineConfig {
    FairPipelineConfig {
        gamma,
        knn_k: KNN_K,
        ..FairPipelineConfig::default()
    }
}

/// The two bundle versions a serving cluster holds (the second is the
/// refit the traced pass's control probe swaps in), their offline
/// oracles, and the fitted pipeline of the first.
pub struct ServingModels {
    pub v1: ModelBundle,
    pub v2: ModelBundle,
    pub oracle_v1: ServableModel,
    pub oracle_v2: ServableModel,
    fitted_v1: FittedFairPipeline,
}

impl ServingModels {
    pub fn train(data: &Compas) -> ServingModels {
        let fitted_v1 = data.fit(GAMMA_V1);
        let v1 = fitted_v1
            .clone()
            .into_bundle()
            .expect("a fitted pipeline bundles");
        let v2 = data
            .fit(GAMMA_V2)
            .into_bundle()
            .expect("a fitted pipeline bundles");
        ServingModels {
            oracle_v1: ServableModel::from_bundle("v1", &v1).expect("bundle has a classifier"),
            oracle_v2: ServableModel::from_bundle("v2", &v2).expect("bundle has a classifier"),
            v1,
            v2,
            fitted_v1,
        }
    }

    /// Test AUC and `WF` consistency of the first bundle on the held-out
    /// split of a paper-size data set drawn with a seed derived from
    /// `seed`: ten times the serving set's own test split, so the figure
    /// varies little from seed to seed.
    pub fn quality(&self, seed: u64) -> (f64, f64) {
        Compas::generate(mix(seed), true).quality(&self.fitted_v1)
    }
}

/// SplitMix64 step: the benchmark's only source of pseudo-randomness.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in [0, 1) from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Score request vectors as a pure function of `(seed, key)`: a COMPAS row
/// chosen by the key, each column perturbed by uniform noise of
/// `ROW_NOISE` standard deviations. Distinct keys give distinct vectors,
/// and the verifier regenerates any vector from its key.
pub struct RowSource {
    base: Vec<Vec<f64>>,
    noise: Vec<f64>,
    seed: u64,
}

impl RowSource {
    pub fn new(rows: &[Vec<f64>], seed: u64) -> RowSource {
        let n = rows.len() as f64;
        let cols = rows[0].len();
        let noise = (0..cols)
            .map(|j| {
                let mean = rows.iter().map(|r| r[j]).sum::<f64>() / n;
                let var = rows.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n;
                ROW_NOISE * var.sqrt().max(1e-3)
            })
            .collect();
        RowSource {
            base: rows.to_vec(),
            noise,
            seed,
        }
    }

    pub fn row(&self, key: u64) -> Vec<f64> {
        let mut h = mix(self.seed ^ mix(key));
        let base = &self.base[(h % self.base.len() as u64) as usize];
        base.iter()
            .zip(&self.noise)
            .map(|(v, s)| {
                h = mix(h);
                v + s * (2.0 * unit(h) - 1.0)
            })
            .collect()
    }
}

/// The keys a run's requests ask for, as a pure function of the request's
/// position in the stream, so a completion's key is recomputed rather
/// than stored.
pub struct Keys {
    space: KeySpace,
    next: u64,
}

enum KeySpace {
    /// Every key fresh, counting up from a base: neither cache can hit.
    Unique(u64),
    /// Keys drawn from a fixed pool with Zipf-skewed popularity.
    Zipf { cdf: Vec<f64>, seed: u64 },
}

impl Keys {
    /// Fresh keys counting up from `base`. Callers keep their bases far
    /// apart and above the Zipf pool, so no two streams share a key.
    pub fn unique(base: u64) -> Keys {
        Keys {
            space: KeySpace::Unique(base),
            next: 0,
        }
    }

    pub fn zipf(pool: u64, s: f64, seed: u64) -> Keys {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=pool)
            .map(|rank| {
                acc += (rank as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Keys {
            space: KeySpace::Zipf { cdf, seed },
            next: 0,
        }
    }

    /// The key of the stream's `i`-th request.
    pub fn key_at(&self, i: u64) -> u64 {
        match &self.space {
            KeySpace::Unique(base) => base + i,
            KeySpace::Zipf { cdf, seed } => {
                let u = unit(mix(seed ^ 0x5A5A ^ mix(i)));
                cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64
            }
        }
    }

    /// How many keys the stream has handed out.
    pub fn position(&self) -> u64 {
        self.next
    }

    pub fn next_key(&mut self) -> u64 {
        self.next += 1;
        self.key_at(self.next - 1)
    }
}
