//! Open-loop, layer-ledgered benchmark of routed PFR scoring and
//! paper-scale PFR training. See `perfbench/README.md` for every metric
//! and workload.
//!
//! ```text
//! pfr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pfr-perfbench --record-quality <seeds>
//! ```

mod fit;
mod inputs;
mod keepwarm;
mod layers;
mod openloop;
mod params;
mod serving;
mod stats;

use inputs::{Compas, Keys};
use params::*;
use serving::Serving;
use stats::{median, quantile, Metrics};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Test AUC and `WF` consistency bits of the full-size fit, by seed.
const EXPECTED_QUALITY: &str = include_str!("../expected_quality.txt");

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    ScoreUnique,
    ScoreZipf,
    FitCompas,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "score_unique" => Workload::ScoreUnique,
            "score_zipf" => Workload::ScoreZipf,
            "fit_compas" => Workload::FitCompas,
            _ => return None,
        })
    }

    fn keys(self, seed: u64) -> Keys {
        match self {
            Workload::ScoreZipf => Keys::zipf(ZIPF_POOL, ZIPF_S, seed),
            _ => Keys::unique(1 << 40),
        }
    }
}

/// The outcome of one run.
struct Report {
    metrics: Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: pfr-perfbench --workload <score_unique|score_zipf|fit_compas> \
         --seed <n> --seconds <s> --trace <0|1>\n       pfr-perfbench --record-quality <seeds>"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    if let Some(n) = arg("--record-quality") {
        let n: u64 = n.parse().unwrap_or_else(|_| usage());
        for seed in 0..n {
            let (auc, cons) = full_fit_quality(seed);
            println!("{seed} {:016x} {:016x}", auc.to_bits(), cons.to_bits());
        }
        return;
    }
    let workload = arg("--workload")
        .and_then(Workload::parse)
        .unwrap_or_else(|| usage());
    let seed: u64 = arg("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: u64 = arg("--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let trace = match arg("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => usage(),
    };
    let budget = Duration::from_secs(seconds.max(1));
    // Everything a run writes (the journal probe) lives below the checkout.
    let run_dir = PathBuf::from(".bench_run").join(std::process::id().to_string());
    std::fs::create_dir_all(&run_dir).expect("the checkout is writable");
    let report = match (workload, trace) {
        (Workload::FitCompas, false) => fit_run(seed, budget),
        (Workload::FitCompas, true) => fit_traced(seed, budget, &run_dir),
        (w, false) => score_run(w, seed, budget),
        (w, true) => score_traced(w, seed, budget, &run_dir),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".bench_run");
    report
        .metrics
        .print(report.correct, report.attempted, report.failed);
    if !report.correct {
        eprintln!("correctness check FAILED");
        std::process::exit(1);
    }
}

/// Sets up a score workload's serving tier `SETUP_REPS` times (see
/// [`timed_setups`]).
fn setup_serving(seed: u64) -> (Serving, f64) {
    timed_setups(|| Serving::setup(seed))
}

/// Runs `setup` `SETUP_REPS` times, keeping the last result; returns it
/// with the median set-up time in seconds at the reference host speed.
/// Each time is scaled as a fit's is (see `CALIBRATION_REF`), by the
/// calibration kernel's time around that set-up: the set-ups are mostly
/// data generation and training, and the host's speed drifts.
fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let before = fit::calibrate();
        let t = Instant::now();
        last = Some(setup());
        let wall = t.elapsed().as_secs_f64();
        let calibration = (before + fit::calibrate()).as_secs_f64() / 2.0;
        raw.push(wall);
        scaled.push(wall * CALIBRATION_REF.as_secs_f64() / calibration);
    }
    let (raw_s, scaled_s) = (median(&mut raw), median(&mut scaled));
    eprintln!("set-up: median {raw_s:.6} s, at reference speed {scaled_s:.6} s");
    (last.expect("at least one set-up"), scaled_s)
}

/// The end-to-end pass of a score workload: open-loop phases at the
/// nominal rate for the whole budget after the warm-up.
fn score_run(w: Workload, seed: u64, budget: Duration) -> Report {
    let (s, setup_s) = setup_serving(seed);
    let _warm = keepwarm::KeepWarm::start();
    let mut keys = w.keys(seed);
    let nominal = NOMINAL_RPS;
    let schedule = openloop::Schedule::nominal(nominal, budget);
    let check = |key, bits| s.matches(key, bits);
    let load = openloop::Load {
        router: &s.router,
        rows: &s.rows,
        check: &check,
    };
    let out = openloop::drive(&load, &mut keys, &schedule);
    for (i, p) in out.phases.iter().enumerate() {
        eprintln!(
            "phase {i}: sent {} completed {} failed {} p50 {:.1}us p90 {:.1}us p99 {:.1}us cpu/req {:.1}us lag_p99 {:.1}us{}",
            p.sent,
            p.completed,
            p.failed,
            p.p50_us,
            p.p90_us,
            p.p99_us,
            p.cpu_us_per_req,
            p.lag_p99_us,
            if p.valid {
                ""
            } else {
                " INVALID: generator behind schedule"
            }
        );
    }
    let valid = out.valid_phases();
    eprintln!("{valid} of {} phases valid", out.phases.len());
    if valid < MIN_VALID_PHASES {
        eprintln!(
            "warning: the host kept the generator late in nearly every phase; \
             the figures below come from the {MIN_VALID_PHASES} phases it was least late in"
        );
    }
    let (auc, cons) = s.models.quality(seed);
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("p50_us", out.quiet(|p| p.p50_us), "us");
    m.put("p90_us", out.quiet(|p| p.p90_us), "us");
    m.put("fit_auc", auc, "ratio");
    m.put("fit_wf_consistency", cons, "ratio");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    Report {
        metrics: m,
        correct: out.mismatches == 0,
        attempted: out.sent.max(1),
        failed: out.failed,
    }
}

/// The traced pass of a score workload: the serving bundle's fit ledger
/// (it is trained during set-up), then the serve ledger.
fn score_traced(w: Workload, seed: u64, budget: Duration, run_dir: &Path) -> Report {
    let (s, _) = setup_serving(seed);
    let mut m = Metrics::default();
    let data = Compas::generate(seed, false);
    let (same, _) = fit::ledger(&data, budget.mul_f64(0.1), 5, &mut m);
    let checked = layers::serve_ledger(
        &s,
        w.keys(seed),
        NOMINAL_RPS,
        budget.mul_f64(0.8),
        run_dir,
        &mut m,
    );
    Report {
        metrics: m,
        correct: same && checked.correct,
        attempted: checked.attempted.max(1),
        failed: checked.failed,
    }
}

/// The AUC/consistency pair of one full-size fit.
fn full_fit_quality(seed: u64) -> (f64, f64) {
    fit::fit_once(&Compas::generate(seed, true)).quality
}

/// The recorded quality of `seed`'s full-size fit, if recorded.
fn expected_quality(seed: u64) -> Option<(u64, u64)> {
    EXPECTED_QUALITY.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next()?.parse::<u64>().ok()? == seed).then_some(())?;
        let auc = u64::from_str_radix(parts.next()?, 16).ok()?;
        let cons = u64::from_str_radix(parts.next()?, 16).ok()?;
        Some((auc, cons))
    })
}

/// Generates the paper-size data `SETUP_REPS` times (see
/// [`timed_setups`]).
fn setup_fit(seed: u64) -> (Compas, f64) {
    timed_setups(|| Compas::generate(seed, true))
}

/// The end-to-end pass of `fit_compas`: full fits back to back, one
/// caller, until the budget is spent.
fn fit_run(seed: u64, budget: Duration) -> Report {
    let (data, setup_s) = setup_fit(seed);
    let start = Instant::now();
    let (mut fits, mut scaled) = (0, Vec::new());
    let mut first: Option<fit::Fit> = None;
    let mut correct = true;
    while fits < 3 || start.elapsed() < budget {
        let fit = fit::fit_once(&data);
        fits += 1;
        // Wall time at the reference host speed.
        let scale = CALIBRATION_REF.as_secs_f64() / fit.calibration.as_secs_f64();
        scaled.push(fit.wall.as_secs_f64() * scale);
        eprintln!(
            "fit {:.1}ms, calibration {:.3}ms, at reference speed {:.1}ms",
            fit.wall.as_secs_f64() * 1e3,
            fit.calibration.as_secs_f64() * 1e3,
            fit.wall.as_secs_f64() * scale * 1e3
        );
        match &first {
            None => first = Some(fit),
            Some(f) => {
                let same_quality = f.quality.0.to_bits() == fit.quality.0.to_bits()
                    && f.quality.1.to_bits() == fit.quality.1.to_bits();
                if f.projection != fit.projection || !same_quality {
                    eprintln!("fit {fits} differs from the first fit of this run");
                    correct = false;
                }
            }
        }
    }
    let (auc, cons) = first.expect("at least one fit").quality;
    match expected_quality(seed) {
        Some(want) if want != (auc.to_bits(), cons.to_bits()) => {
            eprintln!("fit quality {auc} / {cons} differs from the value recorded for seed {seed}");
            correct = false;
        }
        Some(_) => {}
        None => eprintln!("no quality recorded for seed {seed}; checked repeatability only"),
    }
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("p50_us", median(&mut scaled) * 1e6, "us");
    m.put("p90_us", quantile(&mut scaled, 0.90) * 1e6, "us");
    m.put("fit_auc", auc, "ratio");
    m.put("fit_wf_consistency", cons, "ratio");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    eprintln!("{fits} fits");
    Report {
        metrics: m,
        correct,
        attempted: fits,
        failed: 0,
    }
}

/// The traced pass of `fit_compas`: the full-size fit ledger, then the
/// serve ledger on the `score_unique` tier so every per-layer metric is
/// measured on every workload.
fn fit_traced(seed: u64, budget: Duration, run_dir: &Path) -> Report {
    let (data, _) = setup_fit(seed);
    let mut m = Metrics::default();
    let (same, residual) = fit::ledger(&data, budget.mul_f64(0.5), 3, &mut m);
    let mut correct = same;
    if residual > FIT_RESIDUAL_TOLERANCE_PCT {
        eprintln!("fit ledger residual {residual:.2}% exceeds {FIT_RESIDUAL_TOLERANCE_PCT}%");
        correct = false;
    }
    drop(data);
    let (s, _) = setup_serving(seed);
    let checked = layers::serve_ledger(
        &s,
        Workload::ScoreUnique.keys(seed),
        NOMINAL_RPS,
        budget.mul_f64(0.35),
        run_dir,
        &mut m,
    );
    Report {
        metrics: m,
        correct: correct && checked.correct,
        attempted: checked.attempted.max(1),
        failed: checked.failed,
    }
}
