//! Demo of the serving subsystem: train a fair pipeline offline, persist it
//! as a bundle, serve it over TCP, and hammer it from concurrent client
//! threads — then print the server's own statistics.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```
//!
//! With `--journal <dir>` the server runs with a write-ahead journal and
//! the demo finishes by *crashing* the server (no graceful shutdown at
//! all), starting a fresh one on the same journal directory, and replaying
//! the journal to restore the registry and the warmed score cache:
//!
//! ```text
//! cargo run --release --example serve_demo -- --journal /tmp/pfr-journal
//! ```
//!
//! With `--refit` (implies journaling, into a scratch directory unless
//! `--journal` names one) a background refit worker tails that same
//! journal, the demo shifts the traffic distribution, and the worker
//! detects the drift, warm-refits the model from the serving projection,
//! shadow-scores the candidate on held-back traffic, and hot-swaps it back
//! into the live server over the wire — all visible on the `METRICS`
//! scrape:
//!
//! ```text
//! cargo run --release --example serve_demo -- --refit
//! ```
//!
//! With `--metrics` the server samples a trace span for one in every 16
//! requests and the demo finishes by scraping the full `METRICS`
//! exposition over the wire (every counter, gauge and latency histogram
//! with derived p50/p99/p999) and printing the slowest sampled span
//! breakdown:
//!
//! ```text
//! cargo run --release --example serve_demo -- --metrics
//! ```

use pfr::journal::JournalConfig;
use pfr::pipeline::{FairPipeline, FairPipelineConfig};
use pfr::refit::{GateConfig, RefitConfig, RefitLoop, RefitModelConfig, RefitWorker, SwapTarget};
use pfr::serve::protocol::format_numbers;
use pfr::serve::{BatcherConfig, Server, ServerConfig};
use pfr_data::{split, synthetic, Dataset};
use pfr_graph::{fairness, SparseGraph};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fairness_graph(ds: &Dataset) -> SparseGraph {
    let scores: Vec<f64> = ds
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    fairness::between_group_quantile_graph(ds.groups(), &scores, 5)
        .expect("fairness graph construction succeeds")
}

/// Scrapes `METRICS` over the wire (the multi-line exposition travels
/// escaped onto one line) and prints the lines starting with any of
/// `prefixes`.
fn print_metrics(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, prefixes: &[&str]) {
    writeln!(writer, "METRICS").expect("request writes");
    let mut response = String::new();
    reader.read_line(&mut response).expect("response reads");
    let payload = response
        .trim_end()
        .strip_prefix("OK ")
        .expect("METRICS answers OK");
    for line in pfr::obs::unescape_multiline(payload).lines() {
        if prefixes.iter().any(|p| line.starts_with(p)) {
            println!("  {line}");
        }
    }
}

fn main() {
    // 1. Train offline on the paper's synthetic admissions data.
    println!("training a fair pipeline on synthetic admissions data ...");
    let dataset = synthetic::generate_default(42).expect("synthetic data generates");
    let split = split::train_test_split(&dataset, 0.3, 42).expect("split succeeds");
    let train = dataset.subset(&split.train).expect("train subset");
    let test = dataset.subset(&split.test).expect("test subset");
    let fitted = FairPipeline::new(FairPipelineConfig {
        gamma: 0.9,
        ..FairPipelineConfig::default()
    })
    .fit(&train, &fairness_graph(&train))
    .expect("pipeline fits");

    // 2. Persist the deployable bundle.
    let bundle = fitted.into_bundle().expect("bundle assembles");
    let path = std::env::temp_dir().join("pfr_serve_demo.bundle");
    pfr::core::persistence::save_bundle(&bundle, &path).expect("bundle saves");
    println!("bundle persisted to {}", path.display());

    // 3. Serve it on an ephemeral port — an event-driven reactor *pool*
    //    sized to the machine (one epoll loop per thread, accepted
    //    connections spread across them). `--journal <dir>` adds a
    //    write-ahead journal: every accepted request becomes durable before
    //    its response, and a crashed server can be rebuilt from the log.
    let reactors = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1);
    let refit_mode = std::env::args().any(|a| a == "--refit");
    let metrics_mode = std::env::args().any(|a| a == "--metrics");
    let journal_dir = {
        let mut args = std::env::args();
        args.find(|a| a == "--journal")
            .map(|_| std::path::PathBuf::from(args.next().expect("--journal takes a directory")))
    }
    .or_else(|| {
        // `--refit` needs a journal to tail; give it a fresh scratch one.
        refit_mode.then(|| {
            let dir = std::env::temp_dir().join("pfr_serve_demo_refit_journal");
            let _ = std::fs::remove_dir_all(&dir);
            dir
        })
    });
    let make_config = || ServerConfig {
        reactors,
        workers: 4,
        batcher: BatcherConfig {
            max_batch: 32,
            linger: Duration::from_micros(300),
        },
        journal: journal_dir.clone().map(JournalConfig::new),
        // With `--metrics`, sample a full span breakdown for one in
        // every 16 otherwise-untraced requests.
        trace_sample_every: if metrics_mode { 16 } else { 0 },
        ..ServerConfig::default()
    };
    let server = Server::spawn(make_config()).expect("server spawns");
    if let Some(dir) = &journal_dir {
        println!("journaling every request to {}", dir.display());
    }
    let addr = server.addr();
    println!("serving on {addr} ({reactors}-reactor front-end pool)");

    let (raw, _) = test.features_with_protected().expect("raw features");

    // 4. A client loads the model over the wire ...
    {
        let stream = TcpStream::connect(addr).expect("client connects");
        stream.set_nodelay(true).expect("nodelay sets");
        let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
        let mut writer = stream;
        writeln!(writer, "LOAD admissions {}", path.display()).expect("request writes");
        let mut response = String::new();
        reader.read_line(&mut response).expect("response reads");
        println!("LOAD -> {}", response.trim_end());
    }

    // 4b. Warm the score cache from a recorded request log (a wire capture
    //     of SCORE lines), so day-one traffic starts at cache-hit latency.
    let log_path = std::env::temp_dir().join("pfr_serve_demo_requests.log");
    let mut log = String::new();
    for i in 0..raw.rows().min(32) {
        log.push_str(&format!(
            "SCORE admissions {}\n",
            format_numbers(raw.row(i))
        ));
    }
    std::fs::write(&log_path, log).expect("request log writes");
    let (warmed, skipped) = server.warm_from_log(&log_path).expect("warm-up succeeds");
    println!("cache warmed with {warmed} entries from a recorded request log ({skipped} skipped)");

    // 5. ... and four client threads score the whole test split concurrently.
    let rows: Arc<Vec<Vec<f64>>> = Arc::new((0..raw.rows()).map(|i| raw.row(i).to_vec()).collect());
    let started = Instant::now();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let rows = Arc::clone(&rows);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("client connects");
                stream.set_nodelay(true).expect("nodelay sets");
                let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
                let mut writer = stream;
                let mut positives = 0usize;
                for i in 0..rows.len() {
                    let row = &rows[(i + t * 13) % rows.len()];
                    writeln!(writer, "SCORE admissions {}", format_numbers(row))
                        .expect("request writes");
                    let mut response = String::new();
                    reader.read_line(&mut response).expect("response reads");
                    let label: u8 = response
                        .split_whitespace()
                        .nth(2)
                        .expect("OK <score> <label>")
                        .parse()
                        .expect("label parses");
                    positives += label as usize;
                }
                positives
            })
        })
        .collect();
    let positives: usize = handles
        .into_iter()
        .map(|h| h.join().expect("client joins"))
        .sum();
    let total = 4 * rows.len();
    let elapsed = started.elapsed();
    println!(
        "{total} scores in {elapsed:?} ({:.0} requests/sec), {positives} positive decisions",
        total as f64 / elapsed.as_secs_f64()
    );

    // 6. The server reports its own telemetry over the wire.
    let stream = TcpStream::connect(addr).expect("client connects");
    stream.set_nodelay(true).expect("nodelay sets");
    let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
    let mut writer = stream;
    println!("METRICS (scoring series) ->");
    let series = [
        "pfr_serve_requests_total{verb=\"score\"}",
        "pfr_serve_latency_ns_p99{verb=\"score\"}",
        "pfr_serve_cache_",
        "pfr_serve_batch",
        "pfr_serve_max_batch",
    ];
    print_metrics(&mut reader, &mut writer, &series);

    // 6b. With `--metrics`: print the full exposition (every counter,
    //     gauge and histogram) and show the slowest sampled trace span.
    if metrics_mode {
        println!("METRICS (full exposition) ->");
        print_metrics(&mut reader, &mut writer, &[""]);
        match server.traces().slowest() {
            Some(span) => {
                println!("slowest sampled request:");
                print!("{}", span.render(2));
            }
            None => println!("no request was sampled (traffic below the sampling stride)"),
        }
    }

    // 7. With `--refit`: close the loop. A background worker tails the very
    //    journal the server writes, watches the live feature stream for
    //    drift against the serving bundle's own training statistics, and on
    //    detection warm-refits, shadow-gates and hot-swaps — while clients
    //    keep scoring.
    if refit_mode {
        println!("starting the refit worker (tailing the journal) ...");
        let serving_text = pfr::core::persistence::bundle_to_string(&bundle);
        let mut refit_config = RefitConfig::new(
            journal_dir.clone().expect("refit mode forces a journal"),
            "admissions",
        );
        refit_config.window_rows = 256;
        refit_config.holdback_rows = 64;
        refit_config.holdback_every = 4;
        refit_config.min_refit_rows = 96;
        refit_config.check_every_frames = 32;
        refit_config.cooldown_frames = 64;
        refit_config.model_config = RefitModelConfig {
            dim: bundle.model.dim(),
            knn_k: 8,
            // `features_with_protected` appends the group flag last.
            protected_column: raw.cols() - 1,
            ..RefitModelConfig::default()
        };
        refit_config.gate = GateConfig {
            min_agreement: 0.7,
            max_mean_abs_diff: 0.35,
            min_rows: 8,
        };
        let refit_loop = RefitLoop::new(
            refit_config,
            &serving_text,
            SwapTarget::Backends(vec![addr]),
        )
        .expect("refit loop builds");
        let worker = RefitWorker::spawn(refit_loop);
        // The worker's gauges (cursor lag against the server's journal tip
        // included) join the server's METRICS exposition.
        let journal_tip = {
            let stats = server
                .journal()
                .expect("refit mode forces a journal")
                .shared_stats();
            Arc::new(move || stats.last_seq()) as Arc<dyn Fn() -> u64 + Send + Sync>
        };
        worker
            .stats()
            .register_metrics(server.metrics(), Some(journal_tip));
        let refit_stats = worker.stats();

        // The upstream distribution shifts: every feature moves by 0.8 of
        // its serving-time standard deviation (the protected flag stays).
        let stds = bundle
            .standardizer
            .as_ref()
            .expect("pipeline bundles carry a standardizer")
            .stds
            .clone();
        println!("traffic drifts (+0.8 sigma per feature) — scoring until the worker swaps ...");
        let stream = TcpStream::connect(addr).expect("client connects");
        stream.set_nodelay(true).expect("nodelay sets");
        let mut drift_reader = BufReader::new(stream.try_clone().expect("stream clones"));
        let mut drift_writer = stream;
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut sent = 0usize;
        'drift: loop {
            for i in 0..rows.len() {
                if refit_stats.refits_swapped() > 0 {
                    break 'drift;
                }
                assert!(Instant::now() < deadline, "refit did not swap within 60s");
                let drifted: Vec<f64> = rows[i]
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| {
                        if j + 1 == rows[i].len() {
                            v
                        } else {
                            v + 0.8 * stds[j]
                        }
                    })
                    .collect();
                writeln!(
                    drift_writer,
                    "SCORE admissions {}",
                    format_numbers(&drifted)
                )
                .expect("request writes");
                let mut response = String::new();
                drift_reader
                    .read_line(&mut response)
                    .expect("response reads");
                assert!(
                    response.starts_with("OK"),
                    "drifted score failed: {response}"
                );
                sent += 1;
            }
        }
        println!(
            "hot-swap after {sent} drifted requests: {} drift checks, {} detected, \
             {} attempted, {} gated, {} swapped",
            refit_stats.drift_checks(),
            refit_stats.drift_detected(),
            refit_stats.refits_attempted(),
            refit_stats.refits_gated(),
            refit_stats.refits_swapped(),
        );
        println!("refit gauges riding the server's METRICS exposition:");
        let series = ["pfr_refit_", "pfr_journal_seq"];
        print_metrics(&mut drift_reader, &mut drift_writer, &series);
        worker.stop();
    }

    // 8. With a journal: crash the server outright and recover a new one.
    if journal_dir.is_some() {
        // No shutdown, no Drop — the process state is simply abandoned, the
        // way a SIGKILL would leave it. Everything the clients saw
        // acknowledged is already fsynced in the journal.
        drop((reader, writer));
        std::mem::forget(server);
        println!("server crashed (no graceful shutdown) — recovering from the journal ...");
        let recovered = Server::spawn(make_config()).expect("recovery server spawns");
        let report = recovered
            .recover_from_journal()
            .expect("journal replay succeeds");
        println!(
            "replayed {} frames: {} installs, {} scores ({} cache entries warmed), {} skipped",
            report.frames, report.installs, report.scores, report.warmed, report.skipped
        );
        // The first request after recovery is already a cache hit.
        let stream = TcpStream::connect(recovered.addr()).expect("client connects");
        stream.set_nodelay(true).expect("nodelay sets");
        let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
        let mut writer = stream;
        writeln!(writer, "SCORE admissions {}", format_numbers(raw.row(0)))
            .expect("request writes");
        let mut response = String::new();
        reader.read_line(&mut response).expect("response reads");
        println!(
            "first post-recovery score -> {} (cache hits: {})",
            response.trim_end(),
            recovered.stats().cache_hits()
        );
        recovered.shutdown();
    } else {
        server.shutdown();
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&log_path);
}
