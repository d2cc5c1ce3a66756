//! Order statistics, process memory and the result line.

use std::time::Duration;

/// Nearest-rank `q`-quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Microseconds in `d`, with sub-microsecond digits.
pub fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// CPU time consumed so far by this process, less the keep-warm
/// spinners' (`keepwarm::spun`), or with `thread` by the calling thread
/// alone.
pub fn cpu_time(thread: bool) -> Duration {
    if thread {
        Duration::from_nanos(thread_cpu_ns())
    } else {
        Duration::from_nanos(clock_ns(CLOCK_PROCESS_CPUTIME_ID))
            .saturating_sub(crate::keepwarm::spun())
    }
}

/// CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Prints one `name value unit` line per metric, then the JSON result
    /// as the last line of standard output.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for (name, value, unit) in &self.0 {
            println!("{name:<28} {value:>16.4} {unit}");
        }
        let body = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
