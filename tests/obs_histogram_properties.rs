//! Property tests for the lock-free log-linear histogram behind every
//! latency series: quantile estimates stay within the documented `1/SUB`
//! relative-error bound of an exact sorted oracle, snapshot merging is
//! indistinguishable from one recorder having seen both streams (the
//! invariant the router's cluster-wide `METRICS` merge rests on), the
//! exposition round-trips bucket-exactly through `Scrape::parse`, hostile
//! exposition text (a peer's `METRICS` reply, which the router parses and
//! merges) never panics the parser, the merge or a re-render, and
//! concurrent recording loses no counts.

use pfr::obs::{LatencyHisto, MetricsRegistry, Scrape, SUB};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Spreads raw uniform `u64`s across every magnitude decade: a plain
/// uniform draw almost never lands below 2^50, which would leave the
/// log-linear layout's small decades untested.
fn spread_magnitudes(raws: &[u64]) -> Vec<u64> {
    raws.iter().map(|&r| r >> (r % 57)).collect()
}

/// Applies one mutation, chosen by `op`, at byte `at`: a bit flip,
/// truncation, line duplication, a huge number in the value position, or
/// moving the line to the end (cumulative buckets go out of order).
fn mutate(bytes: &mut Vec<u8>, op: u8, at: u64, seed: u64) {
    if bytes.is_empty() {
        return;
    }
    let i = (at % bytes.len() as u64) as usize;
    let start = bytes[..i]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1);
    let end = bytes[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |p| i + p);
    match op {
        0 => bytes[i] ^= 1 << (seed % 8),
        1 => bytes.truncate(i),
        2 => {
            let line: Vec<u8> = bytes[start..end].iter().copied().chain([b'\n']).collect();
            bytes.splice(start..start, line);
        }
        3 => {
            let value_at = bytes[start..end]
                .iter()
                .rposition(|&b| b == b' ')
                .map_or(start, |p| start + p + 1);
            // u64::MAX, a value past it, or a random one.
            let huge = [u64::MAX.to_string(), format!("{seed}0"), seed.to_string()];
            bytes.splice(value_at..end, huge[(seed % 3) as usize].bytes());
        }
        _ => {
            let line: Vec<u8> = bytes.drain(start..end).collect();
            bytes.push(b'\n');
            bytes.extend(line);
        }
    }
}

/// Exact nearest-rank quantile of `sorted` (the oracle `Snapshot::quantile`
/// approximates).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every reported quantile is ≥ the exact order statistic and
    /// overstates it by at most `1/SUB` (the bucket-width bound).
    #[test]
    fn quantiles_stay_within_the_relative_error_bound(
        raws in vec(0u64..u64::MAX, 1..250),
    ) {
        let values = spread_magnitudes(&raws);
        let histo = LatencyHisto::new();
        for &v in &values {
            histo.record(v);
        }
        let snap = histo.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = exact_quantile(&sorted, q);
            let estimate = snap.quantile(q);
            prop_assert!(estimate >= exact, "q={q}: {estimate} < exact {exact}");
            let bound = exact as f64 * (1.0 + 1.0 / SUB as f64);
            prop_assert!(
                estimate as f64 <= bound,
                "q={q}: {estimate} overstates exact {exact} beyond 1/{SUB}"
            );
        }
        prop_assert_eq!(snap.min, sorted[0]);
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
    }

    /// Merging two snapshots equals one recorder having seen both streams
    /// — bucket-for-bucket, not approximately. Values are bounded so the
    /// total stays below u64 wrap: past it the live recorder's relaxed
    /// `fetch_add` sum wraps while `merge` saturates, and neither is a
    /// meaningful nanosecond total anyway (~584 years of accumulated
    /// latency).
    #[test]
    fn merge_is_exactly_the_combined_stream(
        raws_a in vec(0u64..(1u64 << 50), 0..150),
        raws_b in vec(0u64..(1u64 << 50), 0..150),
    ) {
        let (a_vals, b_vals) = (spread_magnitudes(&raws_a), spread_magnitudes(&raws_b));
        let a = LatencyHisto::new();
        let b = LatencyHisto::new();
        let combined = LatencyHisto::new();
        for &v in &a_vals {
            a.record(v);
            combined.record(v);
        }
        for &v in &b_vals {
            b.record(v);
            combined.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        prop_assert_eq!(merged, combined.snapshot());
    }

    /// Rendering a histogram through the registry and parsing the text
    /// back reconstructs the bucket counts, count and sum exactly — the
    /// contract that makes the router's scatter-merge lossless.
    #[test]
    fn exposition_round_trips_bucket_exact(
        raws in vec(0u64..u64::MAX, 1..200),
    ) {
        let histo = Arc::new(LatencyHisto::new());
        for &v in &spread_magnitudes(&raws) {
            histo.record(v);
        }
        let registry = MetricsRegistry::new();
        registry.histogram("pfr_prop_ns", &[], Arc::clone(&histo));
        let scrape = Scrape::parse(&registry.render());
        let parsed = scrape.histogram("pfr_prop_ns").expect("histogram parsed back");
        let original = histo.snapshot();
        prop_assert_eq!(&parsed.buckets, &original.buckets);
        prop_assert_eq!(parsed.count, original.count);
        prop_assert_eq!(parsed.sum, original.sum);
    }

    /// Mutated exposition text never panics `Scrape::parse`, merging the
    /// result twice into the clean scrape, the merged quantiles or a
    /// re-render; the unmutated text still round-trips bucket for bucket.
    #[test]
    fn hostile_exposition_never_panics_parse_merge_or_render(
        raws in vec(0u64..u64::MAX, 0..120),
        mutations in vec((0u8..5, 0u64..u64::MAX, 0u64..u64::MAX), 1..8),
    ) {
        let histo = Arc::new(LatencyHisto::new());
        for &v in &spread_magnitudes(&raws) {
            histo.record(v);
        }
        let registry = MetricsRegistry::new();
        registry.histogram("pfr_prop_ns", &[("verb", "a")], Arc::clone(&histo));
        registry.gauge("pfr_prop_inflight", &[], Arc::new(|| 3.0));
        let clean = registry.render();
        let mut merged = Scrape::parse(&clean);
        let parsed = merged.histogram("pfr_prop_ns{verb=\"a\"}").expect("parsed back");
        prop_assert_eq!(&parsed.buckets, &histo.snapshot().buckets);
        let mut bytes = clean.into_bytes();
        for &(op, at, seed) in &mutations {
            mutate(&mut bytes, op, at, seed);
        }
        let hostile = Scrape::parse(&String::from_utf8_lossy(&bytes));
        merged.merge(&hostile);
        merged.merge(&hostile);
        if let Some(snap) = merged.histogram("pfr_prop_ns{verb=\"a\"}") {
            let _ = (snap.p50(), snap.p999(), snap.mean());
        }
        let _ = Scrape::parse(&merged.render());
    }
}

/// Concurrent recorders on one histogram lose no counts and corrupt no
/// buckets — the lock-free hot-path claim.
#[test]
fn concurrent_recording_loses_no_counts() {
    let histo = Arc::new(LatencyHisto::new());
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let histo = Arc::clone(&histo);
            std::thread::spawn(move || {
                for i in 0..25_000u64 {
                    histo.record((i << (t % 5)) + t);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let snap = histo.snapshot();
    assert_eq!(snap.count, 8 * 25_000);
    assert_eq!(snap.buckets.iter().sum::<u64>(), 8 * 25_000);
}
