//! The training side: the untraced full fit, and the traced fit that times
//! each layer's public call in the order `FairPipeline::fit` makes them.

use crate::inputs::{pipeline_config, Compas};
use crate::params::*;
use crate::stats::{median, ms, Metrics};
use pfr::core::{Pfr, PfrConfig};
use pfr::eval::pipeline::DatasetSpec;
use pfr::graph::{KnnGraphBuilder, LaplacianKind};
use pfr::linalg::stats::Standardizer;
use pfr::opt::{LogisticRegression, LogisticRegressionConfig};
use std::time::{Duration, Instant};

/// Bits of a fitted projection, for the bitwise repeatability check.
pub type Projection = Vec<u64>;

/// One untraced fit (`WF` + `FairPipeline::fit`).
pub struct Fit {
    pub wall: Duration,
    /// Mean wall time of the calibration kernel run just before and just
    /// after the fit.
    pub calibration: Duration,
    pub projection: Projection,
    /// Test-split AUC and `WF` consistency.
    pub quality: (f64, f64),
}

pub fn fit_once(data: &Compas) -> Fit {
    let calibration = calibrate();
    let t = Instant::now();
    let fitted = data.fit(GAMMA_V1);
    let wall = t.elapsed();
    let calibration = (calibration + calibrate()) / 2;
    Fit {
        wall,
        calibration,
        projection: fitted
            .model()
            .projection()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        quality: data.quality(&fitted),
    }
}

/// Times the calibration kernel: brute-force nearest-neighbour distances
/// over a fixed 1,024 × 9 matrix, the same shape of work as the fit's k-NN
/// but the benchmark's own code, so it changes only when the host's speed
/// does.
pub fn calibrate() -> Duration {
    const N: usize = 1024;
    const M: usize = 9;
    let mut h = 0x1234_5678_u64;
    let x: Vec<f64> = (0..N * M)
        .map(|_| {
            h = crate::inputs::mix(h);
            (h >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect();
    let t = Instant::now();
    let mut total = 0.0;
    for i in 0..N {
        let xi = &x[i * M..(i + 1) * M];
        let mut best = f64::INFINITY;
        for j in (0..N).filter(|&j| j != i) {
            let d: f64 = xi
                .iter()
                .zip(&x[j * M..(j + 1) * M])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            best = best.min(d);
        }
        total += best;
    }
    std::hint::black_box(total);
    t.elapsed()
}

/// Wall time of each step of one traced fit.
#[derive(Default, Clone, Copy)]
struct Steps {
    standardize: Duration,
    knn: Duration,
    wf: Duration,
    pfr_fit: Duration,
    transform: Duration,
    logistic: Duration,
    total: Duration,
    /// The two `SparseGraph::quadratic_form` calls `Pfr::fit` makes,
    /// repeated outside the fit so the eigensolve share can be separated.
    quadform: Duration,
}

/// The same fit as [`fit_once`], one public call at a time.
fn traced_fit(data: &Compas) -> (Steps, Projection, usize, usize) {
    let train = &data.train;
    let mut s = Steps::default();
    let t0 = Instant::now();
    let wf = DatasetSpec::Compas
        .build_fairness_graph(train, QUANTILES)
        .expect("COMPAS carries decile side information");
    let t1 = Instant::now();
    let (learner, _) = train.features_with_protected().expect("COMPAS has groups");
    let (_, x) = Standardizer::fit_transform(&learner).expect("non-empty training split");
    let (_, x_masked) =
        Standardizer::fit_transform(train.features()).expect("non-empty training split");
    let t2 = Instant::now();
    let k = KNN_K.min(train.len() - 1).max(1);
    let wx = KnnGraphBuilder::new(k).build(&x_masked).expect("k < n");
    let t3 = Instant::now();
    let config = pipeline_config(GAMMA_V1);
    let dim = (x.cols() - 1).clamp(1, x.cols());
    let model = Pfr::new(PfrConfig {
        gamma: config.gamma,
        dim,
        ..PfrConfig::default()
    })
    .fit(&x, &wx, &wf)
    .expect("PFR fits COMPAS");
    let t4 = Instant::now();
    let z = model.transform(&x).expect("shapes match");
    let t5 = Instant::now();
    let mut classifier = LogisticRegression::new(LogisticRegressionConfig {
        l2: config.classifier_l2,
        ..LogisticRegressionConfig::default()
    });
    classifier
        .fit(&z, train.labels())
        .expect("both classes present");
    let t6 = Instant::now();
    s.wf = t1 - t0;
    s.standardize = t2 - t1;
    s.knn = t3 - t2;
    s.pfr_fit = t4 - t3;
    s.transform = t5 - t4;
    s.logistic = t6 - t5;
    s.total = t6 - t0;
    let q = Instant::now();
    std::hint::black_box(
        wx.quadratic_form(&x, LaplacianKind::Unnormalized)
            .expect("shapes match"),
    );
    std::hint::black_box(
        wf.quadratic_form(&x, LaplacianKind::Unnormalized)
            .expect("shapes match"),
    );
    s.quadform = q.elapsed();
    let bits = model
        .projection()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (s, bits, wx.num_edges(), wf.num_edges())
}

/// Runs traced and untraced fits alternately until `budget` is spent (at
/// least `min_reps` of each) and records the fit layers' metrics. Every
/// projection, traced or not, must be bitwise identical; returns whether
/// it was, and the residual of the ledger in percent.
pub fn ledger(data: &Compas, budget: Duration, min_reps: usize, m: &mut Metrics) -> (bool, f64) {
    let start = Instant::now();
    let mut steps: Vec<Steps> = Vec::new();
    let mut untraced = Vec::new();
    let mut calibration = Vec::new();
    let mut reference: Option<Projection> = None;
    let mut same = true;
    let (mut wx_edges, mut wf_edges) = (0, 0);
    while steps.len() < min_reps || start.elapsed() < budget {
        let (s, bits, wx, wf) = traced_fit(data);
        let plain = fit_once(data);
        let reference = reference.get_or_insert_with(|| bits.clone());
        same &= *reference == bits && *reference == plain.projection;
        steps.push(s);
        untraced.push(ms(plain.wall));
        calibration.push(ms(plain.calibration));
        (wx_edges, wf_edges) = (wx, wf);
    }
    let med =
        |f: fn(&Steps) -> Duration| median(&mut steps.iter().map(|s| ms(f(s))).collect::<Vec<_>>());
    let standardize = med(|s| s.standardize);
    let knn = med(|s| s.knn);
    let wf = med(|s| s.wf);
    let pfr_fit = med(|s| s.pfr_fit);
    let transform = med(|s| s.transform);
    let logistic = med(|s| s.logistic);
    let total = med(|s| s.total);
    let quadform = med(|s| s.quadform);
    let parts = standardize + knn + wf + pfr_fit + transform + logistic;
    let residual = 100.0 * (parts - total).abs() / total;
    let plain = median(&mut untraced);
    let n = data.train.len() as f64;
    m.put("linalg.standardize_ms", standardize, "ms");
    m.put("linalg.eigen_ms", pfr_fit - quadform, "ms");
    m.put("graph.knn_ms", knn, "ms");
    m.put("graph.wf_ms", wf, "ms");
    m.put("graph.quadform_ms", quadform, "ms");
    m.put("graph.wx_edges", wx_edges as f64, "count");
    m.put("graph.wf_edges", wf_edges as f64, "count");
    m.put("graph.knn_distance_evals", n * (n - 1.0), "count");
    m.put("core.fit_ms", pfr_fit, "ms");
    m.put("core.transform_ms", transform, "ms");
    m.put("opt.logistic_ms", logistic, "ms");
    m.put("ledger.fit_residual_pct", residual, "pct");
    m.put(
        "ledger.trace_overhead_pct",
        100.0 * (total - plain) / plain,
        "pct",
    );
    m.put("ledger.fit_wall_ms", plain, "ms");
    m.put("ledger.calibration_ms", median(&mut calibration), "ms");
    eprintln!(
        "fit ledger: {} traced + {} untraced fits, traced total {total:.2}ms, parts {parts:.2}ms, untraced {plain:.2}ms",
        steps.len(),
        untraced.len()
    );
    (same, residual)
}
