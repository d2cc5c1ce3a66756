//! Crash-recovery test for the journaled server: train offline, `PUSH` the
//! bundle into a journaling server over TCP, score real traffic, then kill
//! the server **without any graceful shutdown** (`mem::forget` — no `Drop`,
//! no final fsync beyond what each request already got) and start a fresh
//! server on the same journal directory. `recover_from_journal` must
//! rebuild the registry from the inlined bundle frames and re-warm the
//! score cache so the replayed vectors are served as immediate cache hits,
//! bitwise identical to both the pre-crash responses and offline
//! `predict_proba`.
//!
//! The recovered server's `METRICS` scrape must then carry every serving,
//! journal, recovery and (with a refit loop registered) refit series —
//! the one telemetry surface an operator reads after a crash.
//!
//! Runs on a single reactor and on a 4-thread reactor pool, like the other
//! end-to-end tests.

use pfr::journal::JournalConfig;
use pfr::obs::{unescape_multiline, Scrape};
use pfr::pipeline::{FairPipeline, FairPipelineConfig};
use pfr::refit::{RefitConfig, RefitLoop, SwapTarget};
use pfr::serve::{Server, ServerConfig};
use pfr_data::{synthetic, Dataset};
use pfr_graph::{fairness, SparseGraph};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

fn fairness_graph(ds: &Dataset) -> SparseGraph {
    let scores: Vec<f64> = ds
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    fairness::between_group_quantile_graph(ds.groups(), &scores, 5).unwrap()
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

fn scratch_journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfr_crash_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn hard_crash_then_journal_replay_restores_state_reactor() {
    hard_crash_then_journal_replay_restores_state(1);
}

#[test]
fn hard_crash_then_journal_replay_restores_state_reactor_pool() {
    hard_crash_then_journal_replay_restores_state(4);
}

fn hard_crash_then_journal_replay_restores_state(reactors: usize) {
    // --- Offline ground truth. ---------------------------------------------
    let dataset = synthetic::generate_default(79).unwrap();
    let fitted = FairPipeline::new(FairPipelineConfig {
        gamma: 0.9,
        ..FairPipelineConfig::default()
    })
    .fit(&dataset, &fairness_graph(&dataset))
    .unwrap();
    let expected = fitted.predict_proba(&dataset).unwrap();
    let (raw, _) = dataset.features_with_protected().unwrap();
    let bundle_text = pfr::core::persistence::bundle_to_string(&fitted.into_bundle().unwrap());

    let journal_dir = scratch_journal_dir(&format!("reactor{reactors}"));
    let journal_config = JournalConfig::new(journal_dir.clone());
    let server_config = || ServerConfig {
        reactors,
        journal: Some(journal_config.clone()),
        ..ServerConfig::default()
    };

    // --- Phase A: a journaling server takes real traffic. -------------------
    // The model arrives over the wire (`PUSH`): in-process registry loads
    // bypass the handlers and are deliberately not journaled.
    let server_a = Server::spawn(server_config()).unwrap();
    let score_lines: Vec<String> = [0, 1, 2, 3, 0, 1, 2, 3] // repeats exercise the cache
        .iter()
        .map(|&i| {
            format!(
                "SCORE admissions {}",
                pfr::serve::protocol::format_numbers(raw.row(i))
            )
        })
        .collect();
    let phase_a: Vec<String> = {
        let (mut reader, mut writer) = connect(server_a.addr());
        write!(
            writer,
            "PUSH admissions {}\n{bundle_text}",
            bundle_text.len()
        )
        .unwrap();
        writer.flush().unwrap();
        let mut pushed = String::new();
        reader.read_line(&mut pushed).unwrap();
        assert!(pushed.starts_with("OK loaded admissions@"), "{pushed}");
        let transform = format!(
            "TRANSFORM admissions {}",
            pfr::serve::protocol::format_numbers(raw.row(0))
        );
        assert!(roundtrip(&mut reader, &mut writer, &transform).starts_with("OK "));
        score_lines
            .iter()
            .map(|line| roundtrip(&mut reader, &mut writer, line))
            .collect()
    };
    for response in &phase_a {
        assert!(response.starts_with("OK "), "{response}");
    }

    // --- Hard crash: no shutdown, no Drop, no final flush. ------------------
    // Every response above was only sent after its frame was fsynced
    // (`FsyncPolicy::PerRecord`, the default), so the journal on disk must
    // already contain everything the clients saw acknowledged.
    std::mem::forget(server_a);

    // --- Phase B: a fresh server on the same journal directory. -------------
    let server_b = Server::spawn(server_config()).unwrap();
    let report = server_b.recover_from_journal().unwrap();
    assert_eq!(report.frames, 10, "1 push + 1 transform + 8 scores");
    assert_eq!(report.installs, 1);
    assert_eq!(report.transforms, 1);
    assert_eq!(report.scores, 8);
    assert_eq!(report.warmed, 4, "4 distinct vectors were scored");
    assert_eq!(report.skipped, 0);
    assert_eq!(report.last_seq, 10);

    // The registry holds the pushed model again, scoring exactly as before.
    let model = server_b
        .registry()
        .get("admissions")
        .expect("replay reinstalls the pushed model");
    assert_eq!(model.num_features(), raw.cols());

    // Replayed vectors are served from the warmed cache — zero misses — and
    // every response is byte-identical to the pre-crash ones, which were
    // themselves bitwise equal to offline predictions.
    let phase_b: Vec<String> = {
        let (mut reader, mut writer) = connect(server_b.addr());
        score_lines
            .iter()
            .map(|line| roundtrip(&mut reader, &mut writer, line))
            .collect()
    };
    assert_eq!(phase_a, phase_b, "recovery must not change a single byte");
    for (i, response) in phase_b.iter().enumerate() {
        let score: f64 = response.split_whitespace().nth(1).unwrap().parse().unwrap();
        let want = expected[[0, 1, 2, 3, 0, 1, 2, 3][i]];
        assert_eq!(score.to_bits(), want.to_bits(), "request {i}");
    }
    assert_eq!(
        server_b.stats().cache_misses(),
        0,
        "every replayed vector must be an immediate hit"
    );
    assert_eq!(server_b.stats().cache_hits(), score_lines.len() as u64);

    // A refit loop tails the same journal and registers its gauges on the
    // recovered server's registry, cursor lag against the journal tip
    // included.
    let mut refit = RefitLoop::new(
        RefitConfig::new(journal_dir.clone(), "admissions"),
        &bundle_text,
        SwapTarget::DryRun,
    )
    .unwrap();
    let journal_tip = {
        let stats = server_b.journal().expect("journaling").shared_stats();
        Arc::new(move || stats.last_seq()) as Arc<dyn Fn() -> u64 + Send + Sync>
    };
    refit
        .stats()
        .register_metrics(server_b.metrics(), Some(journal_tip));
    while refit.pump(64).unwrap() > 0 {}

    // Unjournaled traffic that moves the remaining counters: a parse
    // error, a failed LOAD (an exec error) and one request per probe verb.
    let (mut reader, mut writer) = connect(server_b.addr());
    for line in [
        "GIBBERISH",
        "LOAD ghost /definitely/not/there",
        "HEALTH",
        "EPOCH admissions",
        "CATALOG",
    ] {
        roundtrip(&mut reader, &mut writer, line);
    }

    // One METRICS scrape carries every serving, journal, recovery and
    // refit series. The re-scored traffic was itself journaled: the
    // sequence advanced past the replayed history.
    let response = roundtrip(&mut reader, &mut writer, "METRICS");
    let text = unescape_multiline(response.strip_prefix("OK ").expect("METRICS answers OK"));
    let scrape = Scrape::parse(&text);
    let exact: &[(&str, f64)] = &[
        ("pfr_serve_connections_total", 2.0),
        ("pfr_serve_sheds_total", 0.0),
        ("pfr_serve_errors_total{kind=\"parse\"}", 1.0),
        ("pfr_serve_errors_total{kind=\"exec\"}", 1.0),
        ("pfr_serve_errors_total{kind=\"shed\"}", 0.0),
        ("pfr_serve_requests_total{verb=\"score\"}", 8.0),
        ("pfr_serve_verb_errors_total{verb=\"score\"}", 0.0),
        ("pfr_serve_requests_total{verb=\"load\"}", 1.0),
        ("pfr_serve_verb_errors_total{verb=\"load\"}", 1.0),
        ("pfr_serve_requests_total{verb=\"transform\"}", 0.0),
        ("pfr_serve_requests_total{verb=\"health\"}", 1.0),
        ("pfr_serve_requests_total{verb=\"epoch\"}", 1.0),
        ("pfr_serve_requests_total{verb=\"catalog\"}", 1.0),
        ("pfr_serve_requests_total{verb=\"metrics\"}", 0.0),
        ("pfr_serve_cache_hits_total", 8.0),
        ("pfr_serve_cache_misses_total", 0.0),
        ("pfr_serve_cache_entries", 4.0),
        ("pfr_serve_batches_total", 0.0),
        ("pfr_serve_batched_rows_total", 0.0),
        ("pfr_serve_max_batch", 0.0),
        ("pfr_journal_seq", 18.0),
        ("pfr_journal_segments", 1.0),
        ("pfr_journal_appends_total", 8.0),
        ("pfr_journal_unsynced_bytes", 0.0),
        ("pfr_serve_recovered_frames", 10.0),
        ("pfr_serve_recovered_installs", 1.0),
        ("pfr_serve_recovered_scores", 8.0),
        ("pfr_serve_recovered_warmed", 4.0),
        ("pfr_serve_recovered_skipped", 0.0),
        ("pfr_serve_recovered_last_seq", 10.0),
        ("pfr_serve_recovered_truncated_bytes", 0.0),
        ("pfr_refit_cursor_seq", 18.0),
        ("pfr_refit_caught_up", 1.0),
        ("pfr_refit_cursor_lag", 0.0),
    ];
    for &(key, want) in exact {
        assert_eq!(scrape.scalar(key), Some(want), "{key} in\n{text}");
    }
    assert!(scrape.scalar("pfr_journal_bytes") > Some(0.0), "{text}");
    assert!(
        scrape.scalar("pfr_journal_fsyncs_total") >= Some(1.0),
        "{text}"
    );
    // Every refit counter, the cursor position, caught-up flag and lag.
    let refit_series = text.lines().filter(|l| l.starts_with("pfr_refit_"));
    assert_eq!(refit_series.count(), 11, "{text}");
    // Per-verb latency: the mean is `_sum / _count`, the tails are the
    // histogram's quantiles.
    let score_latency = scrape
        .histogram("pfr_serve_latency_ns{verb=\"score\"}")
        .expect("score latency histogram");
    assert_eq!(score_latency.count, 8);
    assert!(score_latency.sum > 0 && score_latency.p999() >= score_latency.p50());
    for verb in ["load", "transform", "health", "epoch", "catalog", "metrics"] {
        let key = format!("pfr_serve_latency_ns{{verb=\"{verb}\"}}");
        assert!(scrape.histogram(&key).is_some(), "no {key} in\n{text}");
    }

    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);
}
