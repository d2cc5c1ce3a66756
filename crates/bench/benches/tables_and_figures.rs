//! One Criterion benchmark per paper artifact (Table 1, Figures 1–10 and the
//! three ablations described in `pfr_eval::experiments`).
//!
//! Each benchmark runs the corresponding `pfr-eval` experiment driver in fast
//! mode (reduced dataset sizes, same pipeline), so `cargo bench` both
//! regenerates every row/series the paper reports and measures what it costs.
//! The rendered tables of the *full-size* runs are produced by
//! `cargo run --release -p pfr-eval -- --all`.

use criterion::{criterion_group, criterion_main, Criterion};
use pfr_eval::experiments::run_by_name;
use std::hint::black_box;
use std::time::Instant;

fn bench_artifact(c: &mut Criterion, bench_name: &str, experiment: &str) {
    let mut group = c.benchmark_group("paper_artifacts");
    group.sample_size(10);
    group.bench_function(bench_name, |b| {
        b.iter(|| {
            let report = run_by_name(black_box(experiment), true, 42).expect("experiment runs");
            assert!(!report.is_empty());
            report
        })
    });
    group.finish();
}

fn table1_datasets(c: &mut Criterion) {
    bench_artifact(c, "table1_datasets", "table1");
}

fn figure1_representations(c: &mut Criterion) {
    bench_artifact(c, "figure1_representations", "figure1");
}

fn figure2_synthetic_tradeoff(c: &mut Criterion) {
    bench_artifact(c, "figure2_synthetic_tradeoff", "figure2");
}

fn figure3_synthetic_group_fairness(c: &mut Criterion) {
    bench_artifact(c, "figure3_synthetic_group_fairness", "figure3");
}

fn figure4_gamma_sweep_synthetic(c: &mut Criterion) {
    bench_artifact(c, "figure4_gamma_sweep_synthetic", "figure4");
}

fn figure5_crime_tradeoff(c: &mut Criterion) {
    bench_artifact(c, "figure5_crime_tradeoff", "figure5");
}

fn figure6_crime_group_fairness(c: &mut Criterion) {
    bench_artifact(c, "figure6_crime_group_fairness", "figure6");
}

fn figure7_gamma_sweep_crime(c: &mut Criterion) {
    bench_artifact(c, "figure7_gamma_sweep_crime", "figure7");
}

fn figure8_compas_tradeoff(c: &mut Criterion) {
    bench_artifact(c, "figure8_compas_tradeoff", "figure8");
}

fn figure9_compas_group_fairness(c: &mut Criterion) {
    bench_artifact(c, "figure9_compas_group_fairness", "figure9");
}

fn figure10_gamma_sweep_compas(c: &mut Criterion) {
    bench_artifact(c, "figure10_gamma_sweep_compas", "figure10");
}

fn ablation_sparsity(c: &mut Criterion) {
    bench_artifact(c, "ablation_sparsity", "ablation-sparsity");
}

fn ablation_kernel(c: &mut Criterion) {
    bench_artifact(c, "ablation_kernel", "ablation-kernel");
}

fn ablation_quantiles(c: &mut Criterion) {
    bench_artifact(c, "ablation_quantiles", "ablation-quantiles");
}

/// Every artifact of the paper, regenerated back to back, timed as one
/// wall-clock figure and persisted to `BENCH_paper.json` — the enforced
/// perf record for the reproduction suite itself (the last ungated
/// surface per ROADMAP). Per-artifact splits are printed for diagnosis
/// but only the suite total is gated: a single fast-mode artifact run is
/// too noisy a sample for a 30% gate, while the sum of all fourteen is
/// stable run over run.
fn paper_wall_clock(_c: &mut Criterion) {
    const ARTIFACTS: [&str; 14] = [
        "table1",
        "figure1",
        "figure2",
        "figure3",
        "figure4",
        "figure5",
        "figure6",
        "figure7",
        "figure8",
        "figure9",
        "figure10",
        "ablation-sparsity",
        "ablation-kernel",
        "ablation-quantiles",
    ];
    let start = Instant::now();
    println!(
        "paper_wall_clock: regenerating all {} artifacts",
        ARTIFACTS.len()
    );
    for name in ARTIFACTS {
        let artifact = Instant::now();
        let report = run_by_name(black_box(name), true, 42).expect("experiment runs");
        assert!(!report.is_empty());
        println!(
            "  {name:<20} {:>8.1}ms",
            artifact.elapsed().as_secs_f64() * 1e3
        );
    }
    let paper_suite_ms = start.elapsed().as_secs_f64() * 1e3;
    println!("  whole paper:         {paper_suite_ms:>8.1}ms");
    pfr_bench::write_bench_json(
        "BENCH_paper.json",
        "paper_artifacts",
        &[
            ("artifacts", ARTIFACTS.len() as f64),
            // `_ms` suffix = wall-clock: perf_gate fails it for *rising*.
            ("paper_suite_ms", paper_suite_ms),
        ],
    );
}

criterion_group!(
    tables_and_figures,
    table1_datasets,
    figure1_representations,
    figure2_synthetic_tradeoff,
    figure3_synthetic_group_fairness,
    figure4_gamma_sweep_synthetic,
    figure5_crime_tradeoff,
    figure6_crime_group_fairness,
    figure7_gamma_sweep_crime,
    figure8_compas_tradeoff,
    figure9_compas_group_fairness,
    figure10_gamma_sweep_compas,
    ablation_sparsity,
    ablation_kernel,
    ablation_quantiles,
    paper_wall_clock
);
criterion_main!(tables_and_figures);
