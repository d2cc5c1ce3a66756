//! Workload parameters. Every value is fixed here, with the reason it has
//! that value; `perfbench/README.md` repeats them in one table.

use std::time::Duration;

/// Serve backends per cluster: the default three-member tier.
pub const BACKENDS: usize = 3;
/// Replicas per model: the router default, so one backend can fail.
pub const REPLICATION: usize = 2;
/// Registry name the serving bundles are pushed under.
pub const MODEL: &str = "compas";
/// Set-ups per run; `setup_s` is the median of their times at the
/// reference host speed (see [`CALIBRATION_REF`]), so one slow boot
/// cannot move it.
pub const SETUP_REPS: usize = 25;

/// PFR trade-off of the first serving bundle and of every `fit_compas` fit:
/// the pipeline default.
pub const GAMMA_V1: f64 = 0.5;
/// PFR trade-off of the second serving bundle: a refit that leans on the
/// fairness graph, so its scores differ from the first bundle's.
pub const GAMMA_V2: f64 = 0.9;
/// Neighbours in `WX` and quantiles in `WF`: the paper's COMPAS settings
/// (`PipelineConfig::default()`).
pub const KNN_K: usize = 10;
/// See [`KNN_K`].
pub const QUANTILES: usize = 10;
/// Held-out share: `PipelineConfig::default()`.
pub const TEST_FRACTION: f64 = 0.3;

/// Per-column noise added to a COMPAS row, as a share of the column's
/// standard deviation: enough to make every generated key distinct, small
/// enough that the vector stays a plausible individual.
pub const ROW_NOISE: f64 = 0.05;

/// Nominal rate of `score_unique` and `score_zipf` (requests/s): below the
/// knee of a three-backend tier on a 2-core host, so latency there is
/// service time plus light queueing.
pub const NOMINAL_RPS: f64 = 4000.0;
/// Distinct keys of `score_zipf`: 32 times the router's 4,096-entry hot
/// cache, so the working set does not fit in it.
pub const ZIPF_POOL: u64 = 131_072;
/// Zipf exponent of `score_zipf`. With this pool it gives the router's hot
/// cache about a third of the requests (0.32 in an LRU simulation; the
/// traced pass reports the measured share), so the p50 and p90 both fall
/// among the routed misses. Near half, the p50 would sit on the edge
/// between in-process hits of a few µs and misses of a few hundred, and
/// swing between them from run to run.
pub const ZIPF_S: f64 = 0.8;

/// Unrecorded warm-up before the nominal phases: a cold tier shows a p99
/// several times its warm value.
pub const WARMUP: Duration = Duration::from_millis(1500);
/// Length of a recorded phase. Latency quantiles are taken per phase and
/// a quantile over phases is reported (see [`QUIET_QUANTILE`]). At the
/// nominal rate a phase holds 1,000 requests, a hundred beyond the p90
/// and ten beyond the p99; phases this short keep a stall of the host
/// inside a few of them.
pub const PHASE: Duration = Duration::from_millis(250);
/// Which quantile over a run's phases (of `PHASE`) the score timing
/// metrics report: the lower quartile. On a shared host the interference
/// only adds time and lasts seconds, so it moves the median over phases
/// from run to run while the quieter quarter of the phases holds still.
pub const QUIET_QUANTILE: f64 = 0.25;
/// `fit_compas` fit times and every workload's set-up times are reported
/// at a reference host speed: each fit's or set-up's wall time is scaled
/// by this over the calibration kernel's time measured around it
/// (`fit::calibrate`). The value is the kernel's
/// typical time on the 2-vCPU Xeon (2.0 GHz) the benchmark was built on,
/// whose speed drifts by a quarter from minute to minute; the kernel is
/// the benchmark's own code, so only a change of the program moves the
/// scaled times.
pub const CALIBRATION_REF: Duration = Duration::from_micros(7500);
/// A phase is invalid (not recorded) when the generator's own p99 lag
/// behind its schedule exceeds this: the generator sleeps between sends,
/// so lateness beyond a wake-up means the host did not run it, and the
/// phase measured the host rather than the tier. The same limit holds for
/// ladder probes, where it also marks a generator that cannot keep up.
pub const MAX_GEN_LAG: Duration = Duration::from_micros(150);
/// With fewer valid phases than this, even after the schedule was
/// extended, a quartile over them means little, and the run reports its
/// quartiles over this many phases in which the generator ran least late,
/// with a warning.
pub const MIN_VALID_PHASES: usize = 8;

/// p99 limit that a ladder rung must meet, timed from the intended send.
pub const P99_LIMIT: Duration = Duration::from_millis(2);
/// Lowest rung of the rate ladder as a multiple of the workload's nominal
/// rate; the nominal phase has shown that rate is sustainable.
pub const LADDER_LOW: f64 = 1.0;
/// Highest rung as a multiple of the nominal rate: well past the knee of
/// a 2-core host, yet an overloaded probe still drains inside the client
/// timeout.
pub const LADDER_HIGH: f64 = 12.0;
/// Ratio between neighbouring rungs: fine enough that rounding to a rung
/// costs at most 5%.
pub const LADDER_STEP: f64 = 1.05;
/// Phases per ladder probe (see [`PHASE`] for why medians over
/// phases).
pub const PROBE_PHASES: usize = 4;
/// Warm-up and recorded length of one ladder probe.
pub const PROBE_WARMUP: Duration = Duration::from_millis(150);
/// See [`PROBE_WARMUP`].
pub const PROBE_LEN: Duration = Duration::from_millis(400);

/// Closed-loop samples per layer in the traced pass.
pub const LAYER_SAMPLES: usize = 1500;
/// Alternating bundle pushes timed in the traced pass.
pub const CONTROL_PUSHES: usize = 8;
/// Standalone journal appends timed in the traced pass, alone and then
/// per concurrent appender.
pub const JOURNAL_APPENDS: usize = 400;
/// Concurrent appenders of the group-commit probe: the serving tier's
/// default worker count.
pub const JOURNAL_APPENDERS: usize = 4;
/// `ledger.fit_residual_pct` must stay below this on `fit_compas`: the
/// fit's steps run back to back, so their medians must add up to the
/// whole.
pub const FIT_RESIDUAL_TOLERANCE_PCT: f64 = 5.0;
