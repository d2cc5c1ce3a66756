//! End-to-end online-refit scenario — the PR's acceptance test:
//!
//! 1. A journaling server starts and a serving bundle is installed over the
//!    wire (`PUSH`), so the install itself is journaled.
//! 2. A client streams stationary `SCORE` traffic; the refit loop tails the
//!    journal, folds the frames, and stays quiet (no drift).
//! 3. The traffic distribution shifts. A second client thread keeps firing
//!    drifted requests *continuously* — including across the hot-swap —
//!    and every single response must come back `OK` (zero dropped or
//!    failed in-flight requests).
//! 4. The refit loop detects the drift, warm-refits from the serving
//!    projection, passes the shadow gate on the held-back slice, and ships
//!    the candidate back through the wire-level `PUSH` path.
//! 5. Post-swap, served scores are **bitwise** equal to offline
//!    predictions of the refreshed bundle, and the refit counters ride the
//!    server's own `METRICS` scrape.

use pfr::core::persistence::{
    bundle_from_string, bundle_to_string, ClassifierSection, ModelBundle, StandardizerParams,
};
use pfr::core::{Pfr, PfrConfig};
use pfr::graph::{fairness, KnnGraphBuilder};
use pfr::journal::{FsyncPolicy, JournalConfig};
use pfr::linalg::stats::Standardizer;
use pfr::linalg::Matrix;
use pfr::obs::{unescape_multiline, Scrape};
use pfr::opt::{LogisticRegression, LogisticRegressionConfig};
use pfr::refit::{GateConfig, RefitConfig, RefitLoop, RefitModelConfig, RefitStep, SwapTarget};
use pfr::serve::{ServableModel, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "risk";

/// Four-feature traffic: protected group flag in column 0, two blobs per
/// group along the rest. `shift` moves the blob centres — the drift knob.
fn traffic(n: usize, seed: u64, shift: f64) -> Matrix {
    let mut state = seed.max(1);
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as f64 / u64::MAX as f64
    };
    let mut w = Matrix::zeros(n, 4);
    for i in 0..n {
        let blob = if uniform() > 0.5 { 1.0 } else { -1.0 };
        w[(i, 0)] = (i % 2) as f64;
        for j in 1..4 {
            w[(i, j)] = shift + blob + 0.3 * (uniform() - 0.5);
        }
    }
    w
}

/// Fits the initial serving bundle offline on stationary data: standardize,
/// kNN data graph, between-group quantile fairness graph, cold PFR fit,
/// logistic head on the blob sign.
fn serving_bundle(window: &Matrix) -> ModelBundle {
    let (standardizer, x) = Standardizer::fit_transform(window).unwrap();
    let wx = KnnGraphBuilder::new(4).build(&x).unwrap();
    let groups: Vec<usize> = (0..window.rows())
        .map(|i| (window[(i, 0)] > 0.5) as usize)
        .collect();
    let ranking: Vec<f64> = (0..window.rows()).map(|i| window[(i, 1)]).collect();
    let wf = fairness::between_group_quantile_graph(&groups, &ranking, 5).unwrap();
    let model = Pfr::new(PfrConfig {
        gamma: 0.5,
        dim: 2,
        ..PfrConfig::default()
    })
    .fit(&x, &wx, &wf)
    .unwrap();
    let z = model.transform(&x).unwrap();
    let labels: Vec<u8> = (0..window.rows())
        .map(|i| (window[(i, 1)] > 0.0) as u8)
        .collect();
    let mut head = LogisticRegression::new(LogisticRegressionConfig::default());
    head.fit(&z, &labels).unwrap();
    ModelBundle {
        model,
        standardizer: Some(StandardizerParams {
            means: standardizer.means().to_vec(),
            stds: standardizer.stds().to_vec(),
        }),
        classifier: Some(ClassifierSection {
            threshold: 0.5,
            text: head.to_text().unwrap(),
        }),
    }
}

fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

fn score_line(row: &[f64]) -> String {
    let values: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    format!("SCORE {MODEL} {}", values.join(" "))
}

#[test]
fn drifted_traffic_triggers_gated_hot_swap_with_bitwise_consistency() {
    let journal_dir = std::env::temp_dir().join(format!("pfr_refit_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);

    // --- Serving tier with a write-ahead journal. --------------------------
    let mut journal_config = JournalConfig::new(journal_dir.clone());
    journal_config.fsync = FsyncPolicy::Never;
    let server = Server::spawn(ServerConfig {
        workers: 2,
        journal: Some(journal_config),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // --- Install the serving bundle over the wire (journaled PUSH). --------
    let baseline = traffic(192, 11, 0.0);
    let serving = serving_bundle(&baseline);
    let serving_text = bundle_to_string(&serving);
    let (mut reader, mut writer) = connect(addr);
    {
        write!(
            writer,
            "PUSH {MODEL} {}\n{serving_text}",
            serving_text.len()
        )
        .unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.starts_with("OK loaded"), "PUSH failed: {response}");
    }

    // --- Refit loop tailing that journal, swapping over the same wire. -----
    let mut config = RefitConfig::new(&journal_dir, MODEL);
    config.window_rows = 192;
    config.holdback_rows = 64;
    config.holdback_every = 4;
    config.min_refit_rows = 96;
    config.check_every_frames = 32;
    config.cooldown_frames = 64;
    config.model_config = RefitModelConfig {
        dim: 2,
        knn_k: 4,
        ..RefitModelConfig::default()
    };
    config.gate = GateConfig {
        min_agreement: 0.7,
        max_mean_abs_diff: 0.35,
        min_rows: 8,
    };
    let mut refit =
        RefitLoop::new(config, &serving_text, SwapTarget::Backends(vec![addr])).unwrap();

    // The refit counters ride the server's own METRICS scrape, cursor lag
    // against the journal tip included.
    let stats = refit.stats();
    let journal_tip = {
        let journal = server.journal().expect("journaling").shared_stats();
        Arc::new(move || journal.last_seq()) as Arc<dyn Fn() -> u64 + Send + Sync>
    };
    stats.register_metrics(server.metrics(), Some(journal_tip));

    // --- Phase 1: stationary traffic. No refit should trigger. -------------
    let stationary = traffic(160, 23, 0.0);
    for i in 0..stationary.rows() {
        let response = roundtrip(&mut reader, &mut writer, &score_line(stationary.row(i)));
        assert!(
            response.starts_with("OK "),
            "stationary score failed: {response}"
        );
    }
    while refit.pump(64).unwrap() > 0 {}
    let step = refit.maybe_refit().unwrap();
    assert!(
        matches!(step, RefitStep::Idle | RefitStep::Stationary(_)),
        "stationary traffic must not trigger a swap: {step:?}"
    );
    assert_eq!(stats.refits_swapped(), 0);

    // --- Phase 2: drifted traffic, streaming continuously across the swap.
    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicUsize::new(0));
    let failed = Arc::new(AtomicUsize::new(0));
    let client = std::thread::spawn({
        let (stop, sent, failed) = (Arc::clone(&stop), Arc::clone(&sent), Arc::clone(&failed));
        let drifted = traffic(256, 47, 0.8);
        move || {
            let (mut reader, mut writer) = connect(addr);
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) {
                let response = roundtrip(&mut reader, &mut writer, &score_line(drifted.row(i)));
                sent.fetch_add(1, Ordering::Relaxed);
                if !response.starts_with("OK ") {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
                i = (i + 1) % drifted.rows();
            }
        }
    });

    // Drive the loop until the candidate ships; the client keeps firing the
    // whole time, so the swap happens under live traffic.
    let deadline = Instant::now() + Duration::from_secs(120);
    let swapped = loop {
        assert!(
            Instant::now() < deadline,
            "refit did not swap within deadline"
        );
        let pumped = refit.pump(256).unwrap();
        match refit.maybe_refit().unwrap() {
            RefitStep::Swapped {
                drift,
                gate,
                placed,
                bundle_text,
            } => break (drift, gate, placed, bundle_text),
            _ if pumped == 0 => std::thread::sleep(Duration::from_millis(10)),
            _ => {}
        }
    };
    stop.store(true, Ordering::Relaxed);
    client.join().unwrap();

    let (drift, gate, placed, bundle_text) = swapped;
    assert!(drift.drifted && drift.max_mean_shift > 0.5);
    assert!(gate.passed, "shipped candidate must have passed the gate");
    assert_eq!(placed, 1, "exactly one backend should accept the push");
    assert!(sent.load(Ordering::Relaxed) > 0, "client sent no traffic");
    assert_eq!(
        failed.load(Ordering::Relaxed),
        0,
        "in-flight requests failed across the hot-swap"
    );

    // --- Post-swap: served scores are bitwise the refreshed bundle's. ------
    let refreshed = bundle_from_string(&bundle_text).unwrap();
    let offline = ServableModel::from_bundle("offline", &refreshed).unwrap();
    let eval = traffic(32, 91, 0.8);
    let expected = offline.score_batch(&eval).unwrap();
    let (mut reader, mut writer) = connect(addr);
    for (i, &expected_p) in expected.iter().enumerate() {
        let response = roundtrip(&mut reader, &mut writer, &score_line(eval.row(i)));
        let mut parts = response.split_whitespace();
        assert_eq!(
            parts.next(),
            Some("OK"),
            "post-swap score failed: {response}"
        );
        let probability: f64 = parts.next().unwrap().parse().unwrap();
        let label: u8 = parts.next().unwrap().parse().unwrap();
        assert_eq!(
            probability.to_bits(),
            expected_p.to_bits(),
            "row {i}: served {probability} != offline {expected_p}"
        );
        assert_eq!(label, u8::from(expected_p >= offline.threshold()));
    }

    // --- METRICS carries the refit counters next to the journal tip. ------
    let response = roundtrip(&mut reader, &mut writer, "METRICS");
    let text = unescape_multiline(response.strip_prefix("OK ").expect("METRICS answers OK"));
    let scrape = Scrape::parse(&text);
    let journal_seq = scrape.scalar("pfr_journal_seq");
    assert!(journal_seq.is_some(), "missing journal series:\n{text}");
    assert_eq!(
        scrape.scalar("pfr_refit_swapped_total"),
        Some(1.0),
        "missing refit series:\n{text}"
    );
    assert_eq!(
        scrape.scalar("pfr_refit_cursor_seq"),
        Some(stats.cursor_seq() as f64),
        "missing cursor position:\n{text}"
    );
    assert!(scrape.scalar("pfr_refit_cursor_seq") <= journal_seq);

    drop(reader);
    drop(writer);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);
}
