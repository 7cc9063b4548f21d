//! Fault-tolerant tuning: crashes, lost reports and stragglers in the
//! worker pool leave the search trajectory bit-identical.
//!
//! The paper's tuning runs occupied shared clusters for hours; on such
//! machines workers die and reports go missing. This experiment injects a
//! seeded fault schedule ([`FaultPlan`]) into a pool of workers sharing one
//! tuning session, and checks the server-side requeue/eviction machinery
//! preserves the *exact* search trajectory of a fault-free serial client:
//! costs are deterministic functions of the configuration and reports are
//! flushed in proposal order, so who measures a trial — or how many times —
//! cannot change what the search explores.

use crate::experiment::{ExpReport, Experiment, Finding, RunCtx};
use crate::table;
use ah_clustersim::{FaultKind, FaultPlan};
use ah_core::prelude::*;
use ah_core::server::protocol::TrialReport;
use ah_core::server::{HarmonyClient, ServerConfig};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// The experiment.
pub struct Fault;

fn declare(c: &HarmonyClient) {
    c.add_param(Param::int("rows", 1, 64, 1)).unwrap();
    c.add_param(Param::int("cols", 1, 64, 1)).unwrap();
}

/// Deterministic stand-in cost: a POP-like block-size bowl.
fn objective(cfg: &Configuration) -> f64 {
    let r = cfg.int("rows").expect("rows") as f64;
    let c = cfg.int("cols").expect("cols") as f64;
    (r - 24.0).powi(2) * 0.7 + (c - 17.0).powi(2) + (r * c - 400.0).abs() * 0.01
}

fn options(evals: usize, seed: u64) -> SessionOptions {
    SessionOptions {
        max_evaluations: evals,
        seed,
        ..Default::default()
    }
}

fn serial_history(strategy: StrategyKind, evals: usize, seed: u64) -> History {
    let server = HarmonyServer::start();
    let c = server.connect("fault-serial").unwrap();
    declare(&c);
    c.seal(options(evals, seed), strategy).unwrap();
    loop {
        let f = c.fetch().unwrap();
        if f.finished {
            break;
        }
        c.report(objective(&f.config)).unwrap();
    }
    let (h, _) = c.history().unwrap();
    server.shutdown();
    h
}

pub(crate) struct FaultyOutcome {
    pub(crate) history: History,
    pub(crate) crashes: usize,
    pub(crate) lost: usize,
    pub(crate) stragglers: usize,
    pub(crate) rejoins: usize,
    /// What the run's server was started with: its telemetry handle
    /// (counters and the full event trace of exactly this faulted
    /// campaign), its tenant registry, and the sampled time-series ring
    /// when the run was observed or sampling was requested explicitly.
    pub(crate) server: ServerConfig,
}

/// Live-observation knobs for [`faulty_history_with`]: where to serve the
/// observability endpoint, how long to stall between ticks (stretches the
/// campaign so an external poller can watch it mid-flight), and how long to
/// keep serving after the search finishes.
#[derive(Default)]
pub(crate) struct ObserveOpts {
    pub(crate) addr: Option<String>,
    pub(crate) tick_delay: Option<std::time::Duration>,
    pub(crate) linger: Option<std::time::Duration>,
    /// Force time-series sampling at this cadence even without an HTTP
    /// address (tests compare window deltas against the driver's tally).
    pub(crate) sample_interval: Option<std::time::Duration>,
}

pub(crate) fn faulty_history(
    strategy: StrategyKind,
    evals: usize,
    seed: u64,
    plan: &FaultPlan,
    workers: usize,
) -> FaultyOutcome {
    faulty_history_with(
        strategy,
        evals,
        seed,
        plan,
        workers,
        &ObserveOpts::default(),
    )
}

pub(crate) fn faulty_history_with(
    strategy: StrategyKind,
    evals: usize,
    seed: u64,
    plan: &FaultPlan,
    workers: usize,
    observe: &ObserveOpts,
) -> FaultyOutcome {
    let telemetry = Telemetry::enabled();
    // A live observer gets the full fleet-observability plane: a sampled
    // time-series ring (fast cadence — observed campaigns are short) and
    // the default SLO rule set behind `/healthz`.
    let series = (observe.addr.is_some() || observe.sample_interval.is_some()).then(|| {
        let series = ah_core::telemetry::timeseries::TimeSeries::new(telemetry.clone());
        // One synchronous pre-campaign sample pins the window's left edge
        // at zero fault counters before any churn starts.
        series.sample_now();
        series
    });
    let server = HarmonyServer::start_with_config(ServerConfig {
        telemetry: telemetry.clone(),
        timeseries: series.clone(),
        sample_interval: observe.sample_interval.unwrap_or(Duration::from_millis(50)),
        slo_rules: ah_core::telemetry::slo::default_rules(),
        ..Default::default()
    });
    let config = server.config().clone();
    let observer = observe.addr.as_deref().map(|addr| {
        let handle = server.observe(addr).unwrap_or_else(|e| {
            eprintln!("cannot bind observer on {addr}: {e}");
            std::process::exit(2);
        });
        // The bound address on stdout is the contract with pollers
        // (`repro watch`, the CI smoke job): port 0 resolves here.
        println!("observe: http://{}", handle.addr());
        handle
    });
    let founder = server.connect("fault-pool").unwrap();
    declare(&founder);
    founder.seal(options(evals, seed), strategy).unwrap();
    let session = founder.session_id();
    let mut members: Vec<HarmonyClient> = (0..workers)
        .map(|_| server.attach(session).unwrap())
        .collect();

    let mut held: Vec<(u32, TrialReport)> = Vec::new();
    let mut faulted: HashSet<usize> = HashSet::new();
    // Measure spans, one per in-flight trial, keyed by iteration token:
    // begun on fetch, ended on report, faulted on crash/lost-report. The
    // Chrome trace of the campaign shows every measurement slice per
    // worker track, faults annotated.
    let mut measuring: HashMap<usize, SpanToken> = HashMap::new();
    let (mut crashes, mut lost, mut stragglers, mut rejoins) = (0, 0, 0, 0);
    let mut finished = false;
    while !finished {
        if let Some(delay) = observe.tick_delay {
            std::thread::sleep(delay);
        }
        for h in held.iter_mut() {
            h.0 -= 1;
        }
        let mut due = Vec::new();
        held.retain_mut(|h| {
            if h.0 == 0 {
                due.push(h.1.clone());
                false
            } else {
                true
            }
        });
        if !due.is_empty() {
            for r in &due {
                if let Some(span) = measuring.remove(&r.iteration) {
                    telemetry.span_end(span);
                }
            }
            founder.report_batch(due).unwrap();
        }
        for (worker, member) in members.iter_mut().enumerate() {
            let (trials, fin) = member.fetch_batch(1).unwrap();
            if fin {
                finished = true;
                break;
            }
            let Some(t) = trials.into_iter().next() else {
                continue;
            };
            if held.iter().any(|(_, r)| r.iteration == t.iteration) {
                continue; // still "measuring" its straggling trial
            }
            measuring.entry(t.iteration).or_insert_with(|| {
                telemetry.span_begin(SpanKind::Measure, t.iteration, "worker", worker as u64)
            });
            let report = TrialReport {
                iteration: t.iteration,
                cost: objective(&t.config),
                wall_time: objective(&t.config),
            };
            let fault = if faulted.insert(t.iteration) {
                plan.at_observed(t.iteration as u64, &telemetry)
            } else {
                FaultKind::None
            };
            match fault {
                FaultKind::None => {
                    if let Some(span) = measuring.remove(&t.iteration) {
                        telemetry.span_end(span);
                    }
                    member.report_batch(vec![report]).unwrap();
                }
                FaultKind::Crash => {
                    crashes += 1;
                    rejoins += 1;
                    if let Some(span) = measuring.remove(&t.iteration) {
                        telemetry.span_fault(span, "crash");
                    }
                    member.leave().unwrap();
                    *member = server.attach(session).unwrap();
                }
                FaultKind::LostReport => {
                    lost += 1;
                    rejoins += 1;
                    if let Some(span) = measuring.remove(&t.iteration) {
                        telemetry.span_fault(span, "lost_report");
                    }
                    held.push((4, report));
                    member.leave().unwrap();
                    *member = server.attach(session).unwrap();
                }
                FaultKind::Straggler { factor } => {
                    stragglers += 1;
                    held.push(((factor as u32).clamp(2, 8), report));
                }
            }
        }
    }
    // The session can finish while stragglers still hold reports the
    // search no longer needs; their measurements never complete.
    for (_, span) in measuring.drain() {
        telemetry.span_fault(span, "campaign_finished");
    }
    let (history, _) = founder.history().unwrap();
    if let Some(handle) = observer {
        // Final /status (stop reason, converged simplex) stays available
        // for a grace period before the plane goes away.
        if let Some(linger) = observe.linger {
            std::thread::sleep(linger);
        }
        handle.stop();
    }
    server.shutdown();
    if let Some(series) = &series {
        // Final synchronous sample: the window's right edge sees the whole
        // campaign regardless of where the server's sampling stopped.
        series.sample_now();
    }
    FaultyOutcome {
        history,
        crashes,
        lost,
        stragglers,
        rejoins,
        server: config,
    }
}

fn identical(a: &History, b: &History) -> bool {
    serde_json::to_string(a).unwrap() == serde_json::to_string(b).unwrap()
}

impl Experiment for Fault {
    fn id(&self) -> &'static str {
        "fault"
    }

    fn title(&self) -> &'static str {
        "Fault tolerance: faulty worker pools keep the exact search trajectory"
    }

    fn run(&self, ctx: &RunCtx) -> ExpReport {
        let quick = ctx.quick;
        let evals = if quick { 40 } else { 120 };
        let workers = 3;
        let plan = FaultPlan::new(2026, 0.12, 0.08, 0.18);

        let mut rows = Vec::new();
        let mut all_identical = true;
        let mut total_faults = 0usize;
        let mut total_rejoins = 0usize;
        let mut telemetry_agrees = true;
        let mut per_strategy = Vec::new();
        for (label, strategy, seed) in [
            ("random", StrategyKind::Random, 61_u64),
            ("nelder-mead", StrategyKind::NelderMead, 62),
            ("pro", StrategyKind::Pro, 63),
        ] {
            let want = serial_history(strategy.clone(), evals, seed);
            let got = faulty_history(strategy.clone(), evals, seed, &plan, workers);
            let same = identical(&want, &got.history);
            all_identical &= same;
            let faults = got.crashes + got.lost + got.stragglers;
            total_faults += faults;
            total_rejoins += got.rejoins;
            rows.push(vec![
                label.to_string(),
                want.len().to_string(),
                got.crashes.to_string(),
                got.lost.to_string(),
                got.stragglers.to_string(),
                got.rejoins.to_string(),
                if same { "bit-identical" } else { "DIVERGED" }.to_string(),
            ]);
            // Cross-check: the observability layer must agree with the
            // driver's own tally of what it injected and what the server
            // reported back.
            // The history holds fresh evaluations *and* cache-replayed
            // duplicates (a strategy revisiting a configuration), so the
            // two counters together must account for every entry.
            let t = &got.server.telemetry;
            let accounted = t.counter(Counter::TrialsReported) + t.counter(Counter::CacheReplays);
            let agrees = t.counter(Counter::FaultsCrash) == got.crashes as u64
                && t.counter(Counter::FaultsLostReport) == got.lost as u64
                && t.counter(Counter::FaultsStraggler) == got.stragglers as u64
                && accounted == want.len() as u64;
            if !agrees {
                eprintln!(
                    "fault[{label}]: telemetry crash={}/{} lost={}/{} straggler={}/{} \
                     reported+replayed={}/{} (counter/driver)",
                    t.counter(Counter::FaultsCrash),
                    got.crashes,
                    t.counter(Counter::FaultsLostReport),
                    got.lost,
                    t.counter(Counter::FaultsStraggler),
                    got.stragglers,
                    accounted,
                    want.len(),
                );
            }
            telemetry_agrees &= agrees;
            per_strategy.push(serde_json::json!({
                "strategy": label,
                "evaluations": want.len(),
                "crashes": got.crashes,
                "lost_reports": got.lost,
                "stragglers": got.stragglers,
                "rejoins": got.rejoins,
                "trajectory_identical": same,
                "telemetry_counters": t.counters_json(),
            }));
        }

        let narrative = format!(
            "{workers} workers share each session; fault schedule seed {}, \
             p(crash)={}, p(lost)={}, p(straggler)={}\n\n{}",
            plan.seed,
            plan.crash_prob,
            plan.lost_prob,
            plan.straggler_prob,
            table::render(
                &[
                    "strategy",
                    "evals",
                    "crashes",
                    "lost",
                    "stragglers",
                    "rejoins",
                    "trajectory"
                ],
                &rows,
            )
        );

        let findings = vec![
            Finding::check(
                "trajectory under faults",
                "bit-identical to fault-free serial run",
                if all_identical {
                    "bit-identical for random, nelder-mead, pro".into()
                } else {
                    "diverged".to_string()
                },
                all_identical,
            ),
            Finding::check(
                "fault schedule actually fires",
                "> 0 injected faults",
                format!("{total_faults} faults, {total_rejoins} worker rejoins"),
                total_faults > 0 && total_rejoins > 0,
            ),
            Finding::check(
                "telemetry agrees with the driver",
                "per-kind fault counters and reported-trial counts match",
                if telemetry_agrees {
                    "crash/lost/straggler counters and reported totals match".into()
                } else {
                    "counter totals diverged from the driver's tally".to_string()
                },
                telemetry_agrees,
            ),
            Finding::info(
                "recovery mechanism",
                "requeue by iteration token, dedupe stale duplicates",
                "leave/eviction requeues; duplicates ignored via issued-high watermark",
            ),
        ];
        ExpReport {
            id: self.id().into(),
            title: self.title().into(),
            narrative,
            findings,
            data: serde_json::json!({
                "workers": workers,
                "evaluations": evals,
                "fault_plan": {
                    "seed": plan.seed,
                    "crash_prob": plan.crash_prob,
                    "lost_prob": plan.lost_prob,
                    "straggler_prob": plan.straggler_prob,
                },
                "strategies": per_strategy,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde_json::Value;

    #[test]
    fn quick_run_matches_paper_shape() {
        let r = Fault.run(&RunCtx::quick(true));
        assert!(r.all_ok(), "{}", r.render());
    }

    proptest! {
        // Each case is a whole multi-worker campaign; a handful of seeded
        // schedules is plenty to exercise every fault arm.
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Span pairing is total under any fault schedule: every begun
        /// span ends exactly once (normally or with a fault cause), and
        /// the Chrome export round-trips as JSON with per-track monotonic
        /// timestamps.
        #[test]
        fn span_pairing_survives_any_fault_schedule(
            seed in 1u64..10_000,
            crash in 0.0..0.25f64,
            lost in 0.0..0.2f64,
            straggler in 0.0..0.3f64,
        ) {
            let plan = FaultPlan::new(seed, crash, lost, straggler);
            let got = faulty_history(StrategyKind::NelderMead, 25, seed, &plan, 3);
            let t = &got.server.telemetry;

            // Every begin was closed, and closed exactly once (unique ids).
            prop_assert_eq!(t.open_spans(), 0);
            let spans = t.spans();
            let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), spans.len());
            // Faulted measurements carry their cause.
            for s in &spans {
                if let Some(cause) = s.cause {
                    prop_assert!(
                        ["crash", "lost_report", "campaign_finished"].contains(&cause),
                        "unexpected fault cause {cause}"
                    );
                }
            }

            // One session is served by one thread at a time, whoever that
            // thread is: the handle spans of a session's track never overlap.
            let mut handled: std::collections::HashMap<u64, Vec<(u64, u64)>> =
                std::collections::HashMap::new();
            for s in spans.iter().filter(|s| s.kind == SpanKind::SessionServe) {
                handled
                    .entry(s.track_id)
                    .or_default()
                    .push((s.start_us, s.start_us + s.dur_us));
            }
            prop_assert!(!handled.is_empty());
            for (session, handled) in &mut handled {
                handled.sort_unstable();
                for pair in handled.windows(2) {
                    prop_assert!(
                        pair[1].0 >= pair[0].1,
                        "session {session}: handle spans overlap: {:?} then {:?}",
                        pair[0],
                        pair[1]
                    );
                }
            }

            // Chrome export round-trips and is per-track monotonic.
            let text = serde_json::to_string(&t.chrome_trace()).unwrap();
            let doc: Value = serde_json::parse(&text).unwrap();
            let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
            let mut last_ts: std::collections::HashMap<u64, u64> =
                std::collections::HashMap::new();
            let mut slices = 0usize;
            for e in events {
                if e.get("ph").and_then(Value::as_str) != Some("X") {
                    continue;
                }
                slices += 1;
                let tid = e.get("tid").and_then(Value::as_u64).unwrap();
                let ts = e.get("ts").and_then(Value::as_u64).unwrap();
                if let Some(prev) = last_ts.insert(tid, ts) {
                    prop_assert!(
                        ts >= prev,
                        "track {tid} went backwards: {prev} -> {ts}"
                    );
                }
            }
            prop_assert_eq!(slices, spans.len());
        }

        /// The sampled time-series agrees with the driver's own books
        /// under churn: fault-counter deltas over a window spanning the
        /// whole campaign equal the crash/lost/straggler tallies the
        /// driver counted by hand, and any narrower window is bounded by
        /// them. The sampler runs concurrently with the campaign, so this
        /// also shakes out races between sampling and counter updates.
        #[test]
        fn sampler_window_deltas_match_fault_tally(
            seed in 1u64..10_000,
            crash in 0.0..0.25f64,
            lost in 0.0..0.2f64,
            straggler in 0.0..0.3f64,
            narrow_us in 1u64..50_000,
        ) {
            use ah_core::telemetry::Counter;
            let plan = FaultPlan::new(seed, crash, lost, straggler);
            let opts = ObserveOpts {
                sample_interval: Some(std::time::Duration::from_millis(5)),
                ..Default::default()
            };
            let got =
                faulty_history_with(StrategyKind::NelderMead, 25, seed, &plan, 3, &opts);
            let series = got.server.timeseries.as_ref().unwrap();
            // The ring must not have wrapped, or the pre-campaign sample
            // (the window's zero baseline) is gone.
            prop_assert!(
                series.len() < ah_core::telemetry::timeseries::DEFAULT_RING_CAPACITY,
                "ring wrapped: {} samples",
                series.len()
            );
            let delta_of = |w: &ah_core::telemetry::timeseries::WindowStats, c: Counter| {
                w.counter_deltas
                    .iter()
                    .find(|(n, _)| *n == c.name())
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            let tally = [
                (Counter::FaultsCrash, got.crashes as u64),
                (Counter::FaultsLostReport, got.lost as u64),
                (Counter::FaultsStraggler, got.stragglers as u64),
            ];
            let full = series
                .window(std::time::Duration::from_secs(1_000_000))
                .unwrap();
            for (c, want) in tally {
                let d = delta_of(&full, c);
                prop_assert!(d == want, "counter {}: delta {d} != tally {want}", c.name());
            }
            if let Some(narrow) = series.window(std::time::Duration::from_micros(narrow_us)) {
                for (c, want) in tally {
                    let d = delta_of(&narrow, c);
                    prop_assert!(
                        d <= want,
                        "narrow window {} delta {d} exceeds tally {want}",
                        c.name()
                    );
                }
            }
        }
    }
}
