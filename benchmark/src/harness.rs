//! The measurement loop shared by the round-based workloads: repeated
//! set-up, rounds of identical work timed from outside, and the
//! end-to-end metrics computed from them.

use crate::estimators::{fast_end, median, setup_estimate};
use crate::host;
use crate::trace::Tracer;
use ah_core::telemetry::Telemetry;
use std::path::PathBuf;
use std::time::Instant;

/// Run length the workload tables are sized for, on the reference host
/// (2 vCPU Xeon 2.1 GHz). It is `run_seconds` of `BENCHMARK.json`.
pub const REFERENCE_SECONDS: f64 = 10.0;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Drives the workload generator; the program sees only generated inputs.
    pub seed: u64,
    /// Sizes the fixed work: sessions per round scale with it so that the
    /// steady state lasts about this long on the reference host. The number
    /// of rounds never changes with it.
    pub seconds: f64,
    /// Overrides the workload's round count (tests and smoke runs).
    pub rounds: Option<usize>,
    /// Directory for store and log files.
    pub scratch: PathBuf,
    /// Corrupt one expected value, to prove a failed check fails the run.
    pub corrupt_expectation: bool,
}

impl RunConfig {
    /// `base` units of work per round, scaled by the requested run length.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.seconds / REFERENCE_SECONDS).round() as usize).max(1)
    }

    /// The workload's round count unless overridden.
    pub fn rounds_or(&self, default: usize) -> usize {
        self.rounds.unwrap_or(default).max(1)
    }

    /// A seed for one named use, derived from the run's seed.
    pub fn derive(&self, salt: u64) -> u64 {
        ah_core::seeded::splitmix64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The two sides, for the failure message.
    pub detail: String,
}

/// Counters and latency samples a workload fills while it drives the
/// program. The benchmark times every call from outside; nothing here is
/// read from the program's own telemetry.
#[derive(Debug)]
pub struct Meter {
    /// Span recorder (off in the untraced run).
    pub tracer: Tracer,
    /// Client-side telemetry, enabled only in a traced run and handed only
    /// to sessions opened while spans are recorded; it counts retries.
    client_telemetry: Telemetry,
    /// Store-side telemetry, enabled only in a traced run; it counts hits,
    /// misses and group commits.
    pub store_telemetry: Telemetry,
    /// Calls into the program attempted.
    pub attempted: u64,
    /// Calls that returned an error, a refusal, or exhausted their retries.
    pub failed: u64,
    /// Trials completed.
    pub trials: u64,
    /// Objective evaluations the application had to execute.
    pub fresh_evals: u64,
    /// Output checks, in the order they ran.
    pub checks: Vec<Check>,
    /// Time blocked in fetch + report per trial this round, µs.
    round_rtt_us: Vec<f64>,
    /// The same over the whole run, for the tail percentile.
    pub all_rtt_us: Vec<f32>,
    /// Time blocked in fetch per trial over the whole run, µs.
    pub all_fetch_us: Vec<f32>,
    /// Time blocked in report per trial over the whole run, µs.
    pub all_report_us: Vec<f32>,
}

impl Meter {
    /// A meter for an untraced or a traced run. The tracer starts off
    /// either way; [`drive`] turns it on for the rounds it traces.
    pub fn new(traced_run: bool) -> Self {
        let telemetry = || {
            if traced_run {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            }
        };
        Meter {
            tracer: Tracer::new(false),
            client_telemetry: telemetry(),
            store_telemetry: telemetry(),
            attempted: 0,
            failed: 0,
            trials: 0,
            fresh_evals: 0,
            checks: Vec::new(),
            round_rtt_us: Vec::new(),
            all_rtt_us: Vec::new(),
            all_fetch_us: Vec::new(),
            all_report_us: Vec::new(),
        }
    }

    /// Call into the program: counted, spanned, timed. Returns the value (or
    /// `None` after counting the failure) and the seconds the caller was
    /// blocked.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        span: &'static str,
        trial: u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> (Option<T>, f64) {
        self.attempted += 1;
        let id = self.tracer.begin(span, trial);
        let t0 = Instant::now();
        let out = f();
        let blocked = t0.elapsed().as_secs_f64();
        self.tracer.end(id);
        match out {
            Ok(v) => (Some(v), blocked),
            Err(e) => {
                self.failed += 1;
                eprintln!("benchmark: {span} failed: {e}");
                (None, blocked)
            }
        }
    }

    /// The telemetry handle a client opened now should record on.
    pub fn client_telemetry(&self) -> Telemetry {
        if self.tracer.is_on() {
            self.client_telemetry.clone()
        } else {
            Telemetry::disabled()
        }
    }

    /// Backoff sleeps the clients of traced rounds took.
    pub fn client_retries(&self) -> u64 {
        self.client_telemetry
            .counter(ah_core::telemetry::Counter::RetryBackoffs)
    }

    /// Record one fetch/report pair that completed `trials` trials.
    pub fn pair(&mut self, fetch_s: f64, report_s: f64, trials: u64, fresh: u64) {
        let per = 1e6 / trials.max(1) as f64;
        self.round_rtt_us.push((fetch_s + report_s) * per);
        self.all_rtt_us.push(((fetch_s + report_s) * per) as f32);
        self.all_fetch_us.push((fetch_s * per) as f32);
        self.all_report_us.push((report_s * per) as f32);
        self.trials += trials;
        self.fresh_evals += fresh;
    }

    /// Record an output check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    /// Record an equality check between an expected and an observed value.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(
        &mut self,
        name: impl Into<String>,
        expected: T,
        got: T,
    ) {
        let passed = expected == got;
        self.check(name, passed, format!("expected {expected:?}, got {got:?}"));
    }
}

/// What was measured around one round.
#[derive(Debug, Clone)]
pub struct RoundSample {
    /// Wall seconds of the round.
    pub wall_s: f64,
    /// Process CPU seconds of the round.
    pub cpu_s: f64,
    /// Median time blocked in fetch + report per trial, µs.
    pub rtt_p50_us: f64,
    /// Trials the round completed.
    pub trials: u64,
    /// Whether spans were recorded during it.
    pub traced: bool,
}

/// A workload whose steady state is rounds of identical, fixed work.
pub trait RoundWorkload {
    /// Default number of rounds.
    fn rounds(&self) -> usize;
    /// How the set-up sequence is repeated.
    fn setup_plan(&self) -> SetupPlan;
    /// Everything between the start of the workload and the first trial in
    /// hand, on fresh handles.
    fn set_up(&mut self, m: &mut Meter);
    /// Drop every handle `set_up` made.
    fn tear_down(&mut self);
    /// Untimed preparation of one round.
    fn before_round(&mut self, _round: usize, _m: &mut Meter) {}
    /// One round of the fixed work.
    fn round(&mut self, round: usize, m: &mut Meter);
    /// Untimed checks after one round.
    fn after_round(&mut self, _round: usize, _m: &mut Meter) {}
    /// Final checks; tears the workload down.
    fn finish(&mut self, m: &mut Meter);
}

/// How a workload's set-up is repeated.
///
/// On a shared host the CPU's speed changes from one second to the next, so
/// repetitions packed into the first 30 ms of a run all see one state. A
/// cheap set-up is therefore repeated a few times before every round, on a
/// second instance of the workload, which spreads the repetitions over the
/// whole run. A set-up that takes a second is repeated up front; its
/// repetitions span seconds already.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupPlan {
    /// This many repetitions before the first round.
    UpFront(usize),
    /// One repetition before the first round, then this many before every
    /// round.
    PerRound(usize),
}

/// Result of driving one workload.
#[derive(Debug)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_reps_s: Vec<f64>,
    /// One sample per round.
    pub rounds: Vec<RoundSample>,
    /// Counters, checks and latency samples.
    pub meter: Meter,
    /// Wall seconds from the first round to the last.
    pub wall_s: f64,
}

/// How the rounds are traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No spans: the run end-to-end metrics come from.
    Off,
    /// Odd rounds record spans, even rounds do not; the difference between
    /// the two halves is the tracing overhead.
    Interleaved,
}

fn timed_set_up(w: &mut dyn RoundWorkload, m: &mut Meter) -> f64 {
    let t0 = Instant::now();
    w.set_up(m);
    t0.elapsed().as_secs_f64()
}

/// Repeat the set-up, run the rounds, run the final checks. `spare` is a
/// second instance of the workload for the [`SetupPlan::PerRound`]
/// repetitions.
pub fn drive(
    w: &mut dyn RoundWorkload,
    mut spare: Option<&mut (dyn RoundWorkload + 'static)>,
    rounds: usize,
    mode: TraceMode,
) -> Outcome {
    let mut m = Meter::new(mode == TraceMode::Interleaved);
    let (up_front, per_round) = match w.setup_plan() {
        // The traced run takes no set-up metric: it sets up once.
        _ if mode == TraceMode::Interleaved => (1, 0),
        SetupPlan::UpFront(n) => (n, 0),
        SetupPlan::PerRound(k) => (1, if spare.is_some() { k } else { 0 }),
    };
    let mut setup_reps_s = Vec::with_capacity(up_front + per_round * rounds);
    for rep in 0..up_front {
        if rep > 0 {
            w.tear_down();
        }
        setup_reps_s.push(timed_set_up(w, &mut m));
    }
    let mut samples = Vec::with_capacity(rounds);
    let started = Instant::now();
    for round in 0..rounds {
        m.tracer.set_on(false);
        if let Some(spare) = spare.as_deref_mut() {
            for _ in 0..per_round {
                setup_reps_s.push(timed_set_up(spare, &mut m));
                spare.tear_down();
            }
        }
        let traced = mode == TraceMode::Interleaved && round % 2 == 1;
        m.tracer.set_on(traced);
        w.before_round(round, &mut m);
        m.round_rtt_us.clear();
        let trials_before = m.trials;
        let cpu0 = host::process_cpu_seconds();
        let t0 = Instant::now();
        let span = m.tracer.begin("bench.round", round as u64);
        w.round(round, &mut m);
        m.tracer.end(span);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_seconds() - cpu0;
        samples.push(RoundSample {
            wall_s,
            cpu_s,
            rtt_p50_us: if m.round_rtt_us.is_empty() {
                0.0
            } else {
                median(&m.round_rtt_us)
            },
            trials: m.trials - trials_before,
            traced,
        });
        w.after_round(round, &mut m);
    }
    let wall_s = started.elapsed().as_secs_f64();
    m.tracer.set_on(false);
    w.finish(&mut m);
    Outcome {
        setup_reps_s,
        rounds: samples,
        meter: m,
        wall_s,
    }
}

/// `(name, value)` rows, the form metrics travel in.
pub type Rows = Vec<(String, f64)>;

/// The end-to-end metrics by name, in the order of `BENCHMARK.json`, from
/// the three timing estimates a workload computes its own way and the
/// counters every workload keeps alike.
pub fn end_to_end_rows(
    setup_reps_s: &[f64],
    campaign_s: f64,
    trial_rtt_p50_us: f64,
    cpu_us_per_trial: f64,
    m: &Meter,
) -> Rows {
    [
        ("setup_s", setup_estimate(setup_reps_s)),
        ("campaign_s", campaign_s),
        ("trial_rtt_p50_us", trial_rtt_p50_us),
        ("cpu_us_per_trial", cpu_us_per_trial),
        ("fresh_evals", m.fresh_evals as f64),
        (
            "checks_passed",
            m.checks.iter().filter(|c| c.passed).count() as f64,
        ),
        ("peak_rss_mb", host::peak_rss_mib()),
        ("trials_total", m.trials as f64),
    ]
    .map(|(name, value)| (name.to_string(), value))
    .into()
}

/// End-to-end metrics of a round-based run.
pub fn end_to_end(out: &Outcome) -> Rows {
    let wall: Vec<f64> = out.rounds.iter().map(|r| r.wall_s).collect();
    let rtt: Vec<f64> = out.rounds.iter().map(|r| r.rtt_p50_us).collect();
    let cpu: Vec<f64> = out
        .rounds
        .iter()
        .map(|r| r.cpu_s * 1e6 / r.trials.max(1) as f64)
        .collect();
    end_to_end_rows(
        &out.setup_reps_s,
        out.rounds.len() as f64 * fast_end(&wall),
        fast_end(&rtt),
        fast_end(&cpu),
        &out.meter,
    )
}
