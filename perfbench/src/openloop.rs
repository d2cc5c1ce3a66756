//! The open-loop load generator. One thread sends on a fixed schedule
//! through `Router::completion_queue` and drains completions between
//! sends, so a slow tier receives the same load and its queue grows. Each
//! latency is timed from the request's *intended* send instant, which
//! charges a stall to every request it delays. Every score is checked
//! against the oracle as it completes, so the generator's memory does not
//! grow with the length of a run.

use crate::inputs::{Keys, RowSource};
use crate::params::*;
use crate::stats::{cpu_time, median, quantile, us};
use pfr::router::Router;
use std::time::{Duration, Instant};

/// What the generator drives: a router, the vectors to send, and the
/// oracle check every `(key, score bits)` completion must pass.
pub struct Load<'a> {
    pub router: &'a Router,
    pub rows: &'a RowSource,
    pub check: &'a dyn Fn(u64, u64) -> bool,
}

/// Requests whose intended send time fell into one recorded phase. Its
/// quantiles are filled in, and its samples released, once the phase is
/// closed.
#[derive(Default)]
pub struct Phase {
    pub sent: u64,
    pub completed: u64,
    pub failed: u64,
    /// Latency of every completion (errors at their time to fail), µs.
    latency_us: Vec<f64>,
    /// How late the generator sent each request, µs.
    lag_us: Vec<f64>,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub lag_p99_us: f64,
    /// CPU time of the process, less the generator thread's own, per
    /// request, from the phase's first send to the next phase's, µs.
    pub cpu_us_per_req: f64,
    /// Tier CPU time (see [`tier_cpu`]) at the phase's first send.
    cpu_start: Duration,
    /// Whether the generator kept to its schedule through the phase.
    pub valid: bool,
}

impl Phase {
    /// Called once the phase's last request was sent, with the tier's CPU
    /// time then.
    fn close_sending(&mut self, cpu_end: Duration) {
        self.cpu_us_per_req = us(cpu_end.saturating_sub(self.cpu_start)) / self.sent.max(1) as f64;
        self.lag_p99_us = quantile(&mut self.lag_us, 0.99);
        self.valid = self.lag_p99_us <= us(MAX_GEN_LAG);
        self.lag_us = Vec::new();
    }

    /// Called once every request of the phase resolved (or was given up).
    fn close(&mut self) {
        self.p50_us = median(&mut self.latency_us);
        self.p90_us = quantile(&mut self.latency_us, 0.90);
        self.p99_us = quantile(&mut self.latency_us, 0.99);
        self.latency_us = Vec::new();
    }
}

/// What one schedule produced.
pub struct Outcome {
    /// Recorded phases, in order; the warm-up is not among them.
    pub phases: Vec<Phase>,
    pub sent: u64,
    pub failed: u64,
    /// Completions, warm-up included, whose score failed the check.
    pub mismatches: u64,
    /// Requests still in flight when the last one was sent.
    pub backlog: u64,
}

impl Outcome {
    /// The lower quartile of `f` over the valid phases (see
    /// `QUIET_QUANTILE` for why not the median), or over the
    /// `MIN_VALID_PHASES` phases in which the generator ran least late
    /// when fewer are valid.
    pub fn quiet(&self, f: impl Fn(&Phase) -> f64) -> f64 {
        let mut calmest: Vec<&Phase> = self.phases.iter().collect();
        calmest.sort_by(|a, b| a.lag_p99_us.total_cmp(&b.lag_p99_us));
        let keep = self.valid_phases().max(MIN_VALID_PHASES).min(calmest.len());
        let mut values: Vec<f64> = calmest[..keep].iter().map(|p| f(p)).collect();
        quantile(&mut values, QUIET_QUANTILE)
    }

    pub fn valid_phases(&self) -> usize {
        self.phases.iter().filter(|p| p.valid).count()
    }
}

/// Totals over several schedules.
#[derive(Default)]
pub struct Tally {
    pub sent: u64,
    pub failed: u64,
    pub mismatches: u64,
}

impl Tally {
    pub fn add(&mut self, out: &Outcome) {
        self.sent += out.sent;
        self.failed += out.failed;
        self.mismatches += out.mismatches;
    }
}

/// Longest the generator sleeps between looks at its completion queue.
const POLL: Duration = Duration::from_micros(20);

/// How long the generator waits for stragglers after its last send; longer
/// than the client's io timeout, so every request resolves.
const DRAIN: Duration = Duration::from_secs(3);

/// The send schedule of one [`drive`].
pub struct Schedule {
    /// Requests per second, evenly spaced.
    pub rate: f64,
    /// Unrecorded lead-in.
    pub warmup: Duration,
    /// Requests per recorded phase.
    pub per_phase: u64,
    /// Sending stops once this many recorded phases were valid...
    pub valid_target: usize,
    /// ...or once this many were recorded, valid or not: a host that
    /// keeps the generator late gets more time, up to a limit.
    pub max_phases: usize,
}

impl Schedule {
    /// `phases` valid phases of `per_phase` requests each at `rate`, with
    /// up to half as many again while the host keeps the generator late
    /// (no more, so a run on a noisy host still ends in time).
    pub fn new(rate: f64, warmup: Duration, per_phase: u64, phases: usize) -> Schedule {
        Schedule {
            rate,
            warmup,
            per_phase: per_phase.max(1),
            valid_target: phases,
            max_phases: phases + phases / 2,
        }
    }

    /// The nominal-rate schedule: `WARMUP`, then as many phases of `PHASE`
    /// as fit in the rest of `share` (at least three).
    pub fn nominal(rate: f64, share: Duration) -> Schedule {
        let phases = (share.saturating_sub(WARMUP).as_secs_f64() / PHASE.as_secs_f64()).max(3.0);
        let per_phase = (rate * PHASE.as_secs_f64()) as u64;
        Schedule::new(rate, WARMUP, per_phase, phases as usize)
    }

    /// Exactly `phases` phases, valid or not.
    pub fn fixed(rate: f64, warmup: Duration, per_phase: u64, phases: usize) -> Schedule {
        Schedule {
            max_phases: phases,
            ..Schedule::new(rate, warmup, per_phase, phases)
        }
    }
}

/// Sends on `schedule`, then drains. Each request asks for the next key of
/// `keys`.
pub fn drive(load: &Load, keys: &mut Keys, schedule: &Schedule) -> Outcome {
    let period_ns = 1e9 / schedule.rate;
    let first_recorded = (schedule.warmup.as_nanos() as f64 / period_ns).ceil() as u64;
    let per_phase = schedule.per_phase;
    let phase_of = |tag: u64| -> Option<usize> {
        (tag >= first_recorded).then(|| ((tag - first_recorded) / per_phase) as usize)
    };
    let due_of = |tag: u64| Duration::from_nanos((tag as f64 * period_ns) as u64);
    let first_key = keys.position();

    let mut out = Outcome {
        phases: Vec::with_capacity(schedule.max_phases),
        sent: 0,
        failed: 0,
        mismatches: 0,
        backlog: 0,
    };
    let mut valid = 0;
    let mut sending = true;
    precise_sleep();
    let queue = load.router.completion_queue();
    let start = Instant::now();
    let mut done = 0u64;
    let mut last_send = start;
    loop {
        while let Some((tag, result)) = queue.try_pop() {
            let latency = us(Instant::now() - (start + due_of(tag)));
            done += 1;
            let ok = match result {
                Ok(score) => {
                    let key = keys.key_at(first_key + tag);
                    out.mismatches += u64::from(!(load.check)(key, score.to_bits()));
                    true
                }
                Err(e) => {
                    eprintln!("request {tag} failed: {e}");
                    out.failed += 1;
                    false
                }
            };
            if let Some(p) = phase_of(tag) {
                let phase = &mut out.phases[p];
                phase.latency_us.push(latency);
                if ok {
                    phase.completed += 1;
                } else {
                    phase.failed += 1;
                }
                if phase.completed + phase.failed == per_phase {
                    phase.close();
                }
            }
        }
        let now = Instant::now();
        if sending {
            let due = start + due_of(out.sent);
            if now >= due {
                let key = keys.next_key();
                let tag = queue.submit_score(MODEL, &load.rows.row(key));
                assert_eq!(tag, out.sent, "completion tags are dense from zero");
                if let Some(p) = phase_of(tag) {
                    if p == out.phases.len() {
                        out.phases.push(Phase {
                            cpu_start: tier_cpu(),
                            ..Phase::default()
                        });
                    }
                    let phase = &mut out.phases[p];
                    phase.sent += 1;
                    phase.lag_us.push(us(now - due));
                }
                out.sent += 1;
                let recorded = out.sent.saturating_sub(first_recorded);
                if recorded > 0 && recorded.is_multiple_of(per_phase) {
                    let phase = out.phases.last_mut().expect("a phase was just filled");
                    phase.close_sending(tier_cpu());
                    valid += usize::from(phase.valid);
                    if valid >= schedule.valid_target || out.phases.len() >= schedule.max_phases {
                        sending = false;
                        out.backlog = out.sent - done;
                        last_send = now;
                    }
                }
                continue;
            }
            // Sleep, not spin: on a small host a spinning generator takes
            // the core the tier needs. The poll interval bounds how late a
            // completion is seen.
            std::thread::sleep((due - now).min(POLL));
        } else if done == out.sent {
            break;
        } else if now - last_send > DRAIN {
            let lost = out.sent - done;
            eprintln!("{lost} requests never completed");
            out.failed += lost;
            break;
        } else {
            std::thread::sleep(POLL);
        }
    }
    for phase in &mut out.phases {
        if !phase.latency_us.is_empty() {
            phase.close();
        }
    }
    out
}

/// CPU time of the process so far, less the calling (generator) thread's
/// own: the tier's share, since nothing else runs during a schedule.
fn tier_cpu() -> Duration {
    cpu_time(false).saturating_sub(cpu_time(true))
}

/// A probe of one rung passes if nothing failed, the median over its
/// phases of the p99 from the intended send met `P99_LIMIT`, the median
/// over its phases of the generator's p99 lag stayed within `MAX_GEN_LAG`,
/// and the backlog at the last send was no more than Little's law allows
/// at that limit. Medians over phases keep one stall of the host from
/// failing a rung the tier sustains.
fn probe(load: &Load, keys: &mut Keys, rate: f64, tally: &mut Tally) -> bool {
    let per_phase = (rate * PROBE_LEN.as_secs_f64()) as u64 / PROBE_PHASES as u64;
    let schedule = Schedule::fixed(rate, PROBE_WARMUP, per_phase, PROBE_PHASES);
    let out = drive(load, keys, &schedule);
    tally.add(&out);
    let p99 = median(&mut out.phases.iter().map(|p| p.p99_us).collect::<Vec<_>>());
    let lag = median(&mut out.phases.iter().map(|p| p.lag_p99_us).collect::<Vec<_>>());
    let backlog_limit = (2.0 * rate * P99_LIMIT.as_secs_f64()).max(16.0) as u64;
    let pass = out.failed == 0
        && p99 <= us(P99_LIMIT)
        && lag <= us(MAX_GEN_LAG)
        && out.backlog <= backlog_limit;
    eprintln!(
        "  rung {rate:>8.0}/s: sent {} failed {} p99 {p99:.0}us lag_p99 {lag:.0}us backlog {} -> {}",
        out.sent,
        out.failed,
        out.backlog,
        if pass { "pass" } else { "fail" }
    );
    pass
}

/// The fixed ladder: geometric rungs from `LADDER_LOW` to `LADDER_HIGH`
/// times the nominal rate.
pub fn ladder(nominal: f64) -> Vec<f64> {
    let mut rungs = vec![nominal * LADDER_LOW];
    while rungs[rungs.len() - 1] * LADDER_STEP <= nominal * LADDER_HIGH {
        rungs.push(rungs[rungs.len() - 1] * LADDER_STEP);
    }
    rungs
}

/// The highest rate on `rungs` that meets the limit. A bisection (the
/// lowest rung is the nominal rate, known to pass) finds the knee; an
/// up-down staircase then probes around it until `budget` is spent,
/// stepping up a rung after a pass and down after a failure, so it
/// settles where a probe passes half the time. The answer is the median
/// of the rungs the staircase's second half visited: near the knee a
/// single probe passes or fails by chance, and a bisection misled by one
/// stall is corrected by the climb before the second half starts.
pub fn max_rate(
    load: &Load,
    keys: &mut Keys,
    rungs: &[f64],
    budget: Duration,
    tally: &mut Tally,
) -> f64 {
    let start = Instant::now();
    let (mut lo, mut hi) = (0, rungs.len());
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if probe(load, keys, rungs[mid], tally) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let mut visited = vec![lo];
    let mut at = lo;
    while visited.len() < 4 || start.elapsed() < budget {
        let pass = probe(load, keys, rungs[at], tally);
        at = if pass {
            (at + 1).min(rungs.len() - 1)
        } else {
            at.saturating_sub(1)
        };
        visited.push(at);
    }
    let mut second: Vec<f64> = visited[visited.len() / 2..]
        .iter()
        .map(|&i| rungs[i])
        .collect();
    eprintln!(
        "ladder: bisection {:.0}/s, staircase {:?}",
        rungs[lo], visited
    );
    median(&mut second)
}

/// Sets this thread's timer slack to 1 ns, so a short sleep ends within a
/// few microseconds of its deadline instead of the default 50 µs later.
fn precise_sleep() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument and
    // changes only the calling thread's timer slack.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
    if rc != 0 {
        eprintln!("warning: could not set the generator's timer slack");
    }
}
