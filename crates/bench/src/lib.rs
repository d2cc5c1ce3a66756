//! # pfr-bench
//!
//! Criterion benchmark harness for the PFR reproduction.
//!
//! Two bench binaries are provided:
//!
//! * `substrates` — micro-benchmarks of the building blocks (eigensolvers,
//!   k-NN graph construction, Laplacian quadratic forms, logistic
//!   regression), including the eigensolver-choice ablation described in
//!   `pfr_eval::experiments`.
//! * `tables_and_figures` — one benchmark per paper artifact (Table 1,
//!   Figures 1–10 and the three ablations), each running the corresponding
//!   experiment driver from `pfr-eval` in fast mode so that `cargo bench`
//!   regenerates every row/series the paper reports while also measuring its
//!   cost.
//!
//! This library crate exposes the small helpers shared by the bench
//! binaries and the `perf_gate` regression checker: dataset/graph setup,
//! wall-clock throughput measurement, and reading/writing the flat
//! `BENCH_*.json` perf records CI gates on.

#![deny(missing_docs)]
#![warn(clippy::all)]

use pfr_data::Dataset;
use pfr_graph::{KnnGraphBuilder, SparseGraph};
use pfr_linalg::stats::Standardizer;
use pfr_linalg::Matrix;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Runs `f` `reps` times and returns the observed rate in units per second,
/// where one call to `f` processes `units_per_rep` units (requests, flops,
/// rows — the caller picks the unit).
///
/// This is the explicit wall-clock measurement every bench binary prints
/// next to its Criterion timings and records into its `BENCH_*.json`.
pub fn measure_rate(reps: usize, units_per_rep: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    (reps * units_per_rep) as f64 / start.elapsed().as_secs_f64()
}

/// Times `samples` calls of `f` individually and returns the (p50, p99)
/// latency in **microseconds** — the per-request distribution a throughput
/// figure hides. Throughput states how many requests fit in a second; the
/// tail states how long an unlucky client waited, and a serving-tier
/// regression (a lock moved onto the hot path, a batch boundary stall)
/// routinely shows up in p99 long before it moves the mean.
pub fn measure_latency_percentiles(samples: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut micros: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    (percentile(&mut micros, 0.50), percentile(&mut micros, 0.99))
}

/// Times `samples` calls of `f` individually and returns the
/// (p50, p99, p999) latency in **microseconds**. The p999 needs enough
/// samples to be a real order statistic rather than the max — pass at
/// least a few thousand. It exists because the extreme tail is where
/// scheduling hiccups, allocator stalls and batch-boundary waits hide:
/// a serving regression can leave p99 untouched and only move p999.
pub fn measure_latency_tail(samples: usize, mut f: impl FnMut()) -> (f64, f64, f64) {
    let mut micros: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    (
        percentile(&mut micros, 0.50),
        percentile(&mut micros, 0.99),
        percentile(&mut micros, 0.999),
    )
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank method.
/// Sorts in place; NaN-free input is the caller's contract (latencies are).
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Absolute path of a file at the workspace root (where the `BENCH_*.json`
/// perf records live, and where CI picks them up).
pub fn workspace_root_path(file_name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file_name)
}

/// Writes a flat perf record `{ "bench": <bench>, "<key>": <value>, … }` to
/// `file_name` at the workspace root, mirroring it to stdout. These records
/// are the PR-over-PR perf trajectory; CI uploads them as artifacts and the
/// `perf_gate` binary fails the build when one regresses against its
/// checked-in baseline.
///
/// # Panics
/// Panics if the record cannot be created or written: a bench run that
/// silently leaves a stale record behind would make the downstream
/// `perf_gate` step validate old numbers and report green with zero fresh
/// measurements.
pub fn write_bench_json(file_name: &str, bench: &str, metrics: &[(&str, f64)]) {
    let mut json = format!("{{\n  \"bench\": \"{bench}\"");
    for (key, value) in metrics {
        json.push_str(&format!(",\n  \"{key}\": {value:.4}"));
    }
    json.push_str("\n}\n");
    let path = workspace_root_path(file_name);
    let mut file = std::fs::File::create(&path)
        .unwrap_or_else(|e| panic!("creating {} failed: {e}", path.display()));
    file.write_all(json.as_bytes())
        .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
    println!("  wrote {}", path.display());
}

/// Parses a flat JSON object (`{"key": value, …}`, no nesting) and returns
/// its numeric fields in file order. String fields (like `"bench"`) are
/// skipped; this is exactly the subset of JSON the `BENCH_*.json` records
/// use, so no JSON dependency is needed offline.
pub fn parse_flat_json(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for part in text.split(',') {
        let Some((raw_key, raw_value)) = part.split_once(':') else {
            continue;
        };
        let key = raw_key.trim().trim_start_matches('{').trim();
        let key = key.trim_matches('"');
        if key.is_empty() {
            continue;
        }
        let value = raw_value.trim().trim_end_matches('}').trim();
        if let Ok(v) = value.parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

/// Whether a metric key names a **latency / wall-clock duration** (lower
/// is better): the `BENCH_*.json` convention reserves the `_ns` / `_us` /
/// `_ms` suffixes for durations; everything else is a rate or speedup
/// (higher is better).
fn is_latency_metric(key: &str) -> bool {
    key.ends_with("_us") || key.ends_with("_ns") || key.ends_with("_ms")
}

/// Compares fresh metrics against a baseline: every numeric metric present
/// in `baseline` must also exist in `fresh` and must not have regressed by
/// more than `tolerance` (a fraction: `0.30` allows a 30% change for the
/// worse). Direction is keyed on the metric name: rates and speedups
/// (higher is better) fail by *dropping*, duration metrics (`_ns` / `_us`
/// / `_ms` suffix) fail by *rising*. Tail latencies (keys containing `p99`) are
/// gated at triple tolerance — the p99 of a microsecond-scale operation is
/// the noisiest number in the suite, and a gate that cries wolf gets
/// deleted. Returns one human-readable line per violation.
pub fn regressions(
    baseline: &[(String, f64)],
    fresh: &[(String, f64)],
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, base) in baseline {
        let Some((_, new)) = fresh.iter().find(|(k, _)| k == key) else {
            failures.push(format!("metric '{key}' disappeared from the fresh record"));
            continue;
        };
        if *base <= 0.0 {
            continue;
        }
        if is_latency_metric(key) {
            let slack = if key.contains("p99") {
                3.0 * tolerance
            } else {
                tolerance
            };
            if *new > *base * (1.0 + slack) {
                failures.push(format!(
                    "latency '{key}' rose {:.1}%: baseline {base:.2}, fresh {new:.2}",
                    100.0 * (new / base - 1.0)
                ));
            }
        } else if *new < *base * (1.0 - tolerance) {
            failures.push(format!(
                "metric '{key}' regressed {:.1}%: baseline {base:.2}, fresh {new:.2}",
                100.0 * (1.0 - new / base)
            ));
        }
    }
    failures
}

/// Prepares a standardized feature matrix, its k-NN graph and its fairness
/// graph for a dataset spec — the common setup cost shared by the substrate
/// benchmarks.
pub fn bench_setup(
    dataset: &Dataset,
    k: usize,
    quantiles: usize,
) -> (Matrix, SparseGraph, SparseGraph) {
    let (_, x) = Standardizer::fit_transform(dataset.features()).expect("standardization succeeds");
    let wx = KnnGraphBuilder::new(k.min(x.rows() - 1).max(1))
        .build(&x)
        .expect("k-NN graph construction succeeds");
    let groups = dataset.groups().to_vec();
    let scores: Vec<f64> = dataset
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    let wf = pfr_graph::fairness::between_group_quantile_graph(&groups, &scores, quantiles)
        .expect("fairness graph construction succeeds");
    (x, wx, wf)
}

/// A deterministic pseudo-random symmetric matrix for eigensolver benches.
pub fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = next();
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfr_data::synthetic;

    #[test]
    fn bench_setup_produces_consistent_shapes() {
        let ds = synthetic::generate_default(1).unwrap();
        let (x, wx, wf) = bench_setup(&ds, 5, 5);
        assert_eq!(x.rows(), ds.len());
        assert_eq!(wx.num_nodes(), ds.len());
        assert_eq!(wf.num_nodes(), ds.len());
        assert!(wf.num_edges() > 0);
    }

    #[test]
    fn random_symmetric_is_symmetric() {
        let a = random_symmetric(10, 3);
        assert!(a.is_symmetric(1e-12));
    }

    #[test]
    fn parse_flat_json_reads_numeric_fields_in_order() {
        let text = "{\n  \"bench\": \"x\",\n  \"a_rate\": 120.5,\n  \"b_rate\": 3,\n  \"note\": \"skip me\"\n}\n";
        let parsed = parse_flat_json(text);
        assert_eq!(
            parsed,
            vec![("a_rate".to_string(), 120.5), ("b_rate".to_string(), 3.0)]
        );
    }

    #[test]
    fn regressions_flags_drops_beyond_tolerance_only() {
        let baseline = vec![
            ("fast".to_string(), 100.0),
            ("slow".to_string(), 100.0),
            ("gone".to_string(), 1.0),
        ];
        let fresh = vec![("fast".to_string(), 75.0), ("slow".to_string(), 60.0)];
        let failures = regressions(&baseline, &fresh, 0.30);
        assert_eq!(
            failures.len(),
            2,
            "one drop, one disappearance: {failures:?}"
        );
        assert!(failures.iter().any(|f| f.contains("'slow'")));
        assert!(failures.iter().any(|f| f.contains("'gone'")));
        assert!(regressions(&baseline[..1], &fresh, 0.30).is_empty());
    }

    #[test]
    fn latency_metrics_gate_in_the_opposite_direction() {
        let baseline = vec![
            ("p50_us".to_string(), 100.0),
            ("single_p99_us".to_string(), 100.0),
            ("rate".to_string(), 100.0),
        ];
        // Latencies *dropping* (faster) never fail, however far.
        let faster = vec![
            ("p50_us".to_string(), 10.0),
            ("single_p99_us".to_string(), 10.0),
            ("rate".to_string(), 100.0),
        ];
        // The `_ms` wall-clock suffix gates in the latency direction too.
        let wall = vec![("suite_ms".to_string(), 100.0)];
        assert!(regressions(&wall, &[("suite_ms".to_string(), 50.0)], 0.30).is_empty());
        assert_eq!(
            regressions(&wall, &[("suite_ms".to_string(), 140.0)], 0.30).len(),
            1
        );
        assert!(regressions(&baseline, &faster, 0.30).is_empty());
        // A p50 rise beyond tolerance fails; p99 gets triple slack.
        let slower = vec![
            ("p50_us".to_string(), 140.0),
            ("single_p99_us".to_string(), 180.0),
            ("rate".to_string(), 100.0),
        ];
        let failures = regressions(&baseline, &slower, 0.30);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("'p50_us'"));
        // Past triple tolerance even the p99 fails.
        let tail_blowup = vec![
            ("p50_us".to_string(), 100.0),
            ("single_p99_us".to_string(), 200.0),
            ("rate".to_string(), 100.0),
        ];
        let failures = regressions(&baseline, &tail_blowup, 0.30);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("'single_p99_us'"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&mut samples, 0.50), 50.0);
        assert_eq!(percentile(&mut samples, 0.99), 99.0);
        assert_eq!(percentile(&mut samples, 1.0), 100.0);
        let mut one = vec![7.0];
        assert_eq!(percentile(&mut one, 0.5), 7.0);
        let (p50, p99) = measure_latency_percentiles(50, || {
            std::hint::black_box(1 + 1);
        });
        assert!(p50 <= p99);
        assert!(p50 >= 0.0);
        let (t50, t99, t999) = measure_latency_tail(50, || {
            std::hint::black_box(1 + 1);
        });
        assert!(t50 <= t99 && t99 <= t999);
        assert!(t50 >= 0.0);
    }

    #[test]
    fn measure_rate_counts_units() {
        let mut n = 0u64;
        let rate = measure_rate(5, 10, || n += 1);
        assert_eq!(n, 5);
        assert!(rate > 0.0);
    }
}
