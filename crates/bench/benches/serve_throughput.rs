//! Serving throughput: micro-batched scoring vs. one-vector-at-a-time.
//!
//! Scores the same 256 request vectors through a `ServableModel` at batch
//! sizes 1, 8 and 64. The work per vector is identical; what changes is how
//! much per-call overhead (matrix assembly, standardize/project/classify
//! dispatch) amortizes across a batch — the reason `pfr-serve` coalesces
//! requests before touching the linear-algebra kernels. Besides the
//! Criterion timings, the bench prints an explicit requests/sec comparison
//! (plus the score-cache hit rate of a server-shaped replay of the request
//! stream) and records it to `BENCH_serve.json` at the workspace root, the
//! same way the router bench records `BENCH_router.json` — CI uploads both
//! and gates on them via `perf_gate`.
//!
//! The requests/sec figures (`b1_req_per_sec`, `b64_req_per_sec`) are
//! **kernel-only**: they time in-process `ServableModel` scoring, with no
//! socket, parse, cache, queue or router on the path. They are not served
//! request rates; the end-to-end serving benchmark is `perfbench/` at the
//! workspace root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfr_core::persistence::{ClassifierSection, ModelBundle, StandardizerParams};
use pfr_core::{Pfr, PfrConfig};
use pfr_data::synthetic;
use pfr_linalg::stats::Standardizer;
use pfr_linalg::Matrix;
use pfr_opt::LogisticRegression;
use pfr_serve::{ScoreCache, ScoreKey, ServableModel, Server, ServerConfig};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Number of request vectors scored per measured iteration.
const TOTAL_REQUESTS: usize = 256;

/// Trains a small fair pipeline on synthetic data and packages it the way a
/// decision service would receive it.
fn servable_model() -> (ServableModel, Vec<Vec<f64>>) {
    let ds = synthetic::generate_default(31).expect("synthetic data generates");
    let raw = ds.features();
    let (standardizer, x) = Standardizer::fit_transform(raw).expect("standardization succeeds");
    let (x_graph, wx, wf) = pfr_bench::bench_setup(&ds, 10, 5);
    assert_eq!(x.shape(), x_graph.shape());
    let model = Pfr::new(PfrConfig {
        gamma: 0.5,
        dim: 2,
        ..PfrConfig::default()
    })
    .fit(&x, &wx, &wf)
    .expect("PFR fits");
    let z = model.transform(&x).expect("transform succeeds");
    let mut clf = LogisticRegression::default();
    clf.fit(&z, ds.labels()).expect("classifier fits");
    let bundle = ModelBundle {
        model,
        standardizer: Some(StandardizerParams {
            means: standardizer.means().to_vec(),
            stds: standardizer.stds().to_vec(),
        }),
        classifier: Some(ClassifierSection {
            threshold: 0.5,
            text: clf.to_text().expect("classifier serializes"),
        }),
    };
    let servable = ServableModel::from_bundle("bench@1", &bundle).expect("bundle materializes");
    let requests: Vec<Vec<f64>> = (0..TOTAL_REQUESTS)
        .map(|i| raw.row(i % raw.rows()).to_vec())
        .collect();
    (servable, requests)
}

/// Scores all request vectors in chunks of `batch_size`; returns the scores
/// so the optimizer cannot elide the work.
fn score_all(model: &ServableModel, requests: &[Vec<f64>], batch_size: usize) -> Vec<f64> {
    let cols = requests[0].len();
    let mut scores = Vec::with_capacity(requests.len());
    for chunk in requests.chunks(batch_size) {
        let mut data = Vec::with_capacity(chunk.len() * cols);
        for r in chunk {
            data.extend_from_slice(r);
        }
        let batch = Matrix::from_vec(chunk.len(), cols, data).expect("chunk forms a matrix");
        scores.extend(model.score_batch(&batch).expect("scoring succeeds"));
    }
    scores
}

fn bench_batched_scoring(c: &mut Criterion) {
    let (model, requests) = servable_model();

    // Sanity: batching must not change a single bit of any score.
    let unbatched = score_all(&model, &requests, 1);
    for &b in &[8usize, 64] {
        let batched = score_all(&model, &requests, b);
        assert_eq!(unbatched.len(), batched.len());
        for (a, z) in unbatched.iter().zip(batched.iter()) {
            assert_eq!(a.to_bits(), z.to_bits(), "batch size {b} changed a score");
        }
    }

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(20);
    for &batch_size in &[1usize, 8, 64] {
        group.bench_with_input(
            BenchmarkId::new("score_256_requests", batch_size),
            &batch_size,
            |bench, &batch_size| {
                bench.iter(|| score_all(black_box(&model), black_box(&requests), batch_size))
            },
        );
    }
    group.finish();

    // Explicit requests/sec comparison (the acceptance check for batching),
    // recorded as the PR-over-PR scoring-kernel perf trajectory. Kernel-only:
    // in-process `ServableModel` calls, not served requests.
    println!(
        "serve_throughput: kernel-only requests/sec by batch size over {TOTAL_REQUESTS} requests \
         (in-process scoring, no serving path)"
    );
    let mut rps = Vec::new();
    for &batch_size in &[1usize, 8, 64] {
        let requests_per_sec = pfr_bench::measure_rate(20, TOTAL_REQUESTS, || {
            black_box(score_all(&model, &requests, batch_size));
        });
        println!("  B={batch_size:>2}: {requests_per_sec:>12.0} req/s");
        rps.push((batch_size, requests_per_sec));
    }
    let b1 = rps.iter().find(|(b, _)| *b == 1).expect("B=1 measured").1;
    let b64 = rps.iter().find(|(b, _)| *b == 64).expect("B=64 measured").1;
    println!(
        "  batched (B=64) is {:.2}x the unbatched (B=1) throughput",
        b64 / b1
    );

    // Per-request latency distribution (ROADMAP eval item: record p50/p99,
    // not just throughput). One sample = one single-vector scoring pass —
    // the unit of work a SCORE cache miss pays on the worker pool; the
    // request stream is cycled so the distribution covers every vector.
    let mut next = 0;
    let (p50_us, p99_us, p999_us) = pfr_bench::measure_latency_tail(8192, || {
        let features = &requests[next % requests.len()];
        next += 1;
        black_box(model.score_one(features).expect("scoring succeeds"));
    });
    println!("  score latency: p50 {p50_us:.3}us  p99 {p99_us:.3}us  p999 {p999_us:.3}us");

    // Replay the request stream through a score cache the way the server's
    // SCORE verb does: the stream revisits each distinct vector, so steady
    // state should hit for every repeat. The hit *rate* is a correctness-
    // shaped serving metric (a cache regression shows up here long before
    // it shows up as latency), so it is gated alongside the throughputs.
    let mut cache = ScoreCache::new(TOTAL_REQUESTS * 2);
    let mut hits = 0u64;
    let mut misses = 0u64;
    let passes = 4;
    for _ in 0..passes {
        for features in &requests {
            let key =
                ScoreKey::new(model.generation(), features).expect("request vectors carry no NaN");
            match cache.get(&key) {
                Some(score) => {
                    hits += 1;
                    black_box(score);
                }
                None => {
                    misses += 1;
                    let score = model.score_one(features).expect("scoring succeeds");
                    cache.insert(key, score);
                }
            }
        }
    }
    let hit_rate = hits as f64 / (hits + misses) as f64;
    println!(
        "  cache: {hits} hits / {misses} misses over {passes} passes (hit rate {hit_rate:.3})"
    );

    // Overload shedding: a reactor front end with a hard connection limit
    // closes surplus accepts with one `BUSY` line instead of queueing them
    // into collapse. The measurement is deterministic — admit exactly
    // `limit` connections (each confirmed with a round trip), then attempt
    // the same number again and count the sheds — so the recorded rate is
    // exactly 0.5 and a regression means the limiter broke, not that the
    // machine was slow.
    let limit = 8usize;
    let server = Server::spawn(ServerConfig {
        max_connections: Some(limit),
        ..ServerConfig::default()
    })
    .expect("shed server spawns");
    let addr = server.addr();
    let admitted: Vec<(BufReader<TcpStream>, TcpStream)> = (0..limit)
        .map(|_| {
            let stream = TcpStream::connect(addr).expect("admitted client connects");
            stream.set_nodelay(true).expect("nodelay sets");
            let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
            let mut writer = stream;
            // A full round trip proves the reactor has registered the
            // connection before the next admission attempt.
            writeln!(writer, "STATS").expect("request writes");
            let mut response = String::new();
            reader.read_line(&mut response).expect("response reads");
            assert!(response.starts_with("OK"), "{response}");
            (reader, writer)
        })
        .collect();
    let mut shed = 0usize;
    for _ in 0..limit {
        let stream = TcpStream::connect(addr).expect("surplus client connects");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("shed line reads");
        if response.trim_end() == "BUSY" {
            shed += 1;
        }
    }
    let shed_rate = shed as f64 / (2 * limit) as f64;
    println!(
        "  shedding: {shed}/{limit} surplus connections turned away at a {limit}-connection limit \
         (shed rate {shed_rate:.3})"
    );
    assert_eq!(server.stats().sheds(), shed as u64);
    drop(admitted);
    server.shutdown();

    pfr_bench::write_bench_json(
        "BENCH_serve.json",
        "serve_throughput",
        &[
            ("requests", TOTAL_REQUESTS as f64),
            // Kernel-only rates (in-process scoring, not served requests).
            ("b1_req_per_sec", b1),
            ("b64_req_per_sec", b64),
            ("batch_speedup", b64 / b1),
            ("cache_hit_rate", hit_rate),
            // `_us` suffix = latency: perf_gate fails these for *rising*.
            ("score_p50_us", p50_us),
            ("score_p99_us", p99_us),
            // The extreme tail (perf_gate gives p99-family keys triple
            // slack — it is the noisiest number in the suite).
            ("score_p999_us", p999_us),
            // Deterministic overload-shedding check: exactly half of 2x
            // the connection limit must be turned away with BUSY.
            ("shed_rate", shed_rate),
        ],
    );
}

criterion_group!(serve_throughput, bench_batched_scoring);
criterion_main!(serve_throughput);
