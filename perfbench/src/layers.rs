//! The serving side of the traced pass. Each layer is timed by calling its
//! public entry point from here, closed loop, one request at a time; the
//! difference between neighbouring calls is the layer's own share:
//!
//! ```text
//! Router::score            ─┐ router.self_us
//! ClientDriver SCORE (TCP) ─┤ net.wire_us
//! MicroBatcher::score      ─┤ serve.batch_wait_us
//! ServableModel::score_one ─┘ serve.score_us
//! ```
//!
//! Counters (hit ratios, batch sizes, journal fsyncs) are read from the
//! program's own stats around a traced open-loop phase.

use crate::inputs::Keys;
use crate::openloop::{drive, ladder, max_rate, Load, Schedule, Tally};
use crate::params::*;
use crate::serving::Serving;
use crate::stats::{median, ms, us, Metrics};
use pfr::journal::{Journal, JournalConfig, Record};
use pfr::linalg::Matrix;
use pfr::net::{ClientConfig, ClientDriver};
use pfr::serve::{
    BatcherConfig, MicroBatcher, ServableModel, ServerConfig, ServerStats, WorkerPool,
};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Key bases of the closed-loop probes, far from the workload's keys.
const PROBE_KEYS: u64 = 1 << 41;
const CONTROL_KEYS: u64 = 1 << 42;

/// What the traced pass checked.
pub struct Checked {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// Counter totals at one instant.
#[derive(Default)]
struct Counters {
    routed: u64,
    hot_hits: u64,
    coalesced: u64,
    failovers: u64,
    cache_hits: u64,
    cache_misses: u64,
    batches: u64,
    max_batch: u64,
    sheds: u64,
    parse_errors: u64,
}

fn counters(s: &Serving) -> Counters {
    let r = s.router.stats();
    let mut c = Counters {
        routed: r.routed(),
        hot_hits: r.hot_cache_hits(),
        coalesced: r.coalesced(),
        failovers: r.failovers(),
        ..Counters::default()
    };
    for server in (0..s.cluster.len()).filter_map(|i| s.cluster.server(i)) {
        let st = server.stats();
        c.cache_hits += st.cache_hits();
        c.cache_misses += st.cache_misses();
        c.batches += st.batches();
        c.max_batch = c.max_batch.max(st.max_batch());
        c.sheds += st.sheds();
        c.parse_errors += st.parse_errors();
    }
    c
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the serving half of the traced pass on `s`: open-loop phases with
/// the workload's `keys` at `rate` for half of `share`, then the rate
/// ladder for the other half, then the closed-loop layer probes.
pub fn serve_ledger(
    s: &Serving,
    mut keys: Keys,
    rate: f64,
    share: Duration,
    run_dir: &Path,
    m: &mut Metrics,
) -> Checked {
    let _warm = crate::keepwarm::KeepWarm::start();
    let schedule = Schedule::nominal(rate, share / 2);
    let check = |key, bits| s.matches(key, bits);
    let load = Load {
        router: &s.router,
        rows: &s.rows,
        check: &check,
    };
    let before = counters(s);
    let mut tally = Tally::default();
    let out = drive(&load, &mut keys, &schedule);
    let after = counters(s);
    let max_rate = max_rate(&load, &mut keys, &ladder(rate), share / 2, &mut tally);
    let mut correct = out.mismatches == 0 && tally.mismatches == 0;
    for (i, p) in out.phases.iter().enumerate() {
        eprintln!(
            "traced phase {i}: sent {} completed {} failed {} p50 {:.1}us p99 {:.1}us lag_p99 {:.1}us",
            p.sent, p.completed, p.failed, p.p50_us, p.p99_us, p.lag_p99_us
        );
    }
    let open_p50 = out.quiet(|p| p.p50_us);
    let open_p99 = out.quiet(|p| p.p99_us);
    let lag_p99 = median(&mut out.phases.iter().map(|p| p.lag_p99_us).collect::<Vec<_>>());
    let sent: u64 = out.phases.iter().map(|p| p.sent).sum();
    let completed: u64 = out.phases.iter().map(|p| p.completed).sum();
    let failed: u64 = out.phases.iter().map(|p| p.failed).sum();

    let routed = after.routed - before.routed;
    let misses = after.cache_misses - before.cache_misses;
    m.put("harness.sent", sent as f64, "count");
    m.put("harness.completed", completed as f64, "count");
    m.put("harness.failed", failed as f64, "count");
    m.put("harness.gen_lag_p99_us", lag_p99, "us");
    m.put("harness.p99_us", open_p99, "us");
    m.put("harness.max_rate_rps", max_rate, "1/s");
    m.put(
        "harness.cpu_us_per_req",
        out.quiet(|p| p.cpu_us_per_req),
        "us",
    );
    m.put(
        "router.hot_hit_ratio",
        ratio(after.hot_hits - before.hot_hits, routed),
        "ratio",
    );
    m.put(
        "router.coalesced_ratio",
        ratio(after.coalesced - before.coalesced, routed),
        "ratio",
    );
    m.put(
        "router.failovers",
        (after.failovers - before.failovers) as f64,
        "count",
    );
    m.put(
        "serve.cache_hit_ratio",
        ratio(
            after.cache_hits - before.cache_hits,
            after.cache_hits - before.cache_hits + misses,
        ),
        "ratio",
    );
    m.put(
        "serve.rows_per_batch",
        ratio(misses, after.batches - before.batches),
        "ratio",
    );
    m.put("serve.max_batch", after.max_batch as f64, "count");
    m.put("serve.sheds", (after.sheds - before.sheds) as f64, "count");
    m.put(
        "serve.parse_errors",
        (after.parse_errors - before.parse_errors) as f64,
        "count",
    );

    let (router_us, ok) = closed_loop(s, m);
    correct &= ok;
    m.put("ledger.queue_us", open_p50 - router_us, "us");
    correct &= control(s, m);
    journal(s, run_dir, m);
    Checked {
        correct,
        attempted: out.sent + tally.sent,
        failed: out.failed + tally.failed,
    }
}

/// One SCORE straight to `addr` over the benchmark's own client reactor.
fn direct_score(driver: &ClientDriver, addr: SocketAddr, row: &[f64]) -> f64 {
    let line = format!(
        "SCORE {MODEL} {}",
        pfr::serve::protocol::format_numbers(row)
    );
    let reply = driver
        .submit(addr, &[line])
        .expect("the client reactor is running")
        .wait()
        .expect("a live backend answers");
    reply[0]
        .strip_prefix("OK ")
        .and_then(|p| p.split_whitespace().next())
        .and_then(|p| p.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("unexpected SCORE reply '{}'", reply[0]))
}

/// Times each layer's entry point, interleaved so drift hits all alike,
/// checks every score bitwise against the oracle, and returns the median
/// routed score time with the check's outcome.
fn closed_loop(s: &Serving, m: &mut Metrics) -> (f64, bool) {
    let model =
        Arc::new(ServableModel::from_bundle("v1", &s.models.v1).expect("bundle has a classifier"));
    let workers = ServerConfig::default().workers;
    let batcher = MicroBatcher::new(
        BatcherConfig::default(),
        Arc::new(WorkerPool::new(workers)),
        Arc::new(ServerStats::new()),
    );
    let driver = ClientDriver::spawn(ClientConfig::default()).expect("the client reactor starts");
    let owner = s.router.replica_set(MODEL)[0];
    let owner = s.router.backend(owner).expect("replica is a member").addr();
    let mut keys = Keys::unique(PROBE_KEYS);
    let batch_rows: Vec<Vec<f64>> = (0..64).map(|_| s.rows.row(keys.next_key())).collect();
    let batch = Matrix::from_rows(&batch_rows).expect("rows share a width");
    let oracle = &s.models.oracle_v1;
    let mut t = [Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut correct = true;
    for _ in 0..LAYER_SAMPLES {
        let rows: Vec<Vec<f64>> = (0..4).map(|_| s.rows.row(keys.next_key())).collect();
        let want: Vec<u64> = rows
            .iter()
            .map(|r| oracle.score_one(r).expect("oracle scores").to_bits())
            .collect();

        let c = Instant::now();
        let a = model.score_one(&rows[0]).expect("model scores");
        t[0].push(us(c.elapsed()));
        let c = Instant::now();
        std::hint::black_box(model.score_batch(&batch).expect("model scores"));
        t[1].push(us(c.elapsed()));
        let c = Instant::now();
        let b = batcher
            .score(Arc::clone(&model), rows[1].clone())
            .expect("batcher scores");
        t[2].push(us(c.elapsed()));
        let c = Instant::now();
        let d = direct_score(&driver, owner, &rows[2]);
        t[3].push(us(c.elapsed()));
        let c = Instant::now();
        let r = s.router.score(MODEL, &rows[3]).expect("router scores");
        t[4].push(us(c.elapsed()));
        correct &= [a, b, d, r]
            .iter()
            .zip(&want)
            .all(|(got, want)| got.to_bits() == *want);
    }
    let [one, b64, batched, direct, routed] = t.map(|mut v| median(&mut v));
    m.put("serve.score_us", one, "us");
    m.put("serve.score_batch64_us", b64, "us");
    m.put("serve.batch_wait_us", batched - one, "us");
    m.put("net.wire_us", direct - batched, "us");
    m.put("router.self_us", routed - direct, "us");
    eprintln!("closed loop medians: score_one {one:.2}us batcher {batched:.2}us direct {direct:.2}us routed {routed:.2}us");
    (routed, correct)
}

/// Times `Router::push` of the two versions in turn, and how long after
/// each push starts every replica answers with the new version.
fn control(s: &Serving, m: &mut Metrics) -> bool {
    let driver = ClientDriver::spawn(ClientConfig::default()).expect("the client reactor starts");
    let replicas: Vec<SocketAddr> = s
        .router
        .replica_set(MODEL)
        .into_iter()
        .map(|id| s.router.backend(id).expect("replica is a member").addr())
        .collect();
    let mut keys = Keys::unique(CONTROL_KEYS);
    let (mut push, mut visible) = (Vec::new(), Vec::new());
    let mut correct = true;
    for i in 0..CONTROL_PUSHES {
        let (bundle, new, old) = if i % 2 == 0 {
            (&s.models.v2, &s.models.oracle_v2, &s.models.oracle_v1)
        } else {
            (&s.models.v1, &s.models.oracle_v1, &s.models.oracle_v2)
        };
        let c = Instant::now();
        s.router
            .push(MODEL, bundle)
            .expect("live replicas accept the bundle");
        push.push(ms(c.elapsed()));
        for &addr in &replicas {
            loop {
                let row = s.rows.row(keys.next_key());
                let got = direct_score(&driver, addr, &row).to_bits();
                if got == new.score_one(&row).expect("oracle scores").to_bits() {
                    break;
                }
                correct &= got == old.score_one(&row).expect("oracle scores").to_bits();
                assert!(
                    c.elapsed() < Duration::from_secs(5),
                    "a pushed version never became visible"
                );
            }
        }
        visible.push(ms(c.elapsed()));
    }
    m.put("control.push_ms", median(&mut push), "ms");
    m.put("control.swap_visible_ms", median(&mut visible), "ms");
    correct
}

/// The journal layer, on a standalone journal with fsync per record (the
/// serving tier runs without one): `journal.append_us` times one appender
/// alone; `journal.appends_per_fsync` is the group-commit batching when
/// `JOURNAL_APPENDERS` threads append at once; the fsync quantiles come
/// from the journal's own histogram over both.
fn journal(s: &Serving, run_dir: &Path, m: &mut Metrics) {
    let dir = run_dir.join("journal-probe");
    let journal = Journal::open(JournalConfig::new(&dir)).expect("the run directory is writable");
    let mut keys = Keys::unique(CONTROL_KEYS + (1 << 30));
    let records: Vec<Record> = (0..JOURNAL_APPENDS * (1 + JOURNAL_APPENDERS))
        .map(|_| Record::Score {
            model: MODEL.to_string(),
            features: s.rows.row(keys.next_key()),
        })
        .collect();
    let (alone, together) = records.split_at(JOURNAL_APPENDS);
    let mut append = Vec::new();
    for record in alone {
        let c = Instant::now();
        journal.append(record).expect("the journal appends");
        append.push(us(c.elapsed()));
    }
    m.put("journal.append_us", median(&mut append), "us");
    let (appends, fsyncs) = (journal.stats().appends(), journal.stats().fsyncs());
    std::thread::scope(|scope| {
        for chunk in together.chunks(JOURNAL_APPENDS) {
            let journal = &journal;
            scope.spawn(move || {
                for record in chunk {
                    journal.append(record).expect("the journal appends");
                }
            });
        }
    });
    m.put(
        "journal.appends_per_fsync",
        ratio(
            journal.stats().appends() - appends,
            journal.stats().fsyncs() - fsyncs,
        ),
        "ratio",
    );
    let histo = journal.stats().fsync_histogram().snapshot();
    m.put("journal.fsync_p50_us", histo.p50() as f64 / 1e3, "us");
    m.put("journal.fsync_p99_us", histo.p99() as f64 / 1e3, "us");
    journal.close();
    let _ = std::fs::remove_dir_all(&dir);
}
