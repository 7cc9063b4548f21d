//! One workload, run in this process: the untraced run that end-to-end
//! metrics come from, or the traced run that gives the per-layer ones.

use crate::estimators::{coefficient_of_variation, fast_end, median, quantile, FAST_SHARE};
use crate::harness::{
    self, drive, Check, Meter, Outcome, RoundWorkload, Rows, RunConfig, SetupPlan, TraceMode,
};
use crate::metrics::{self, Metric};
use crate::probes;
use crate::workloads::{campaign_paper, inproc_search, store_cold, store_warm, tcp_serial};
use ah_core::telemetry::{Counter, Latency};
use std::path::Path;

/// What one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run.
    pub traced: bool,
    /// The declared metrics of this kind of run, in declared order.
    pub metrics: Vec<(Metric, f64)>,
    /// Diagnostics beyond the declared set: `(name, value, unit)`.
    pub extras: Vec<(String, f64, &'static str)>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Calls into the program attempted.
    pub attempted: u64,
    /// Calls that failed.
    pub failed: u64,
    /// Rounds (or passes) of the steady state.
    pub rounds: usize,
    /// Repetitions of the set-up.
    pub setup_repetitions: usize,
    /// Latency samples behind the percentile metrics.
    pub rtt_samples: usize,
}

impl RunReport {
    /// Every check passed and no call failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// The value of a declared metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
    }
}

fn round_based(name: &str, cfg: &RunConfig) -> Option<Box<dyn RoundWorkload>> {
    Some(match name {
        "tcp-serial" => Box::new(tcp_serial::TcpSerial::new(cfg)),
        "store-cold" => Box::new(store_cold::StoreCold::new(cfg)),
        "store-warm" => Box::new(store_warm::StoreWarm::new(cfg)),
        "inproc-search" => Box::new(inproc_search::InprocSearch::new(cfg)),
        _ => return None,
    })
}

fn widen(samples: &[f32]) -> Vec<f64> {
    samples.iter().map(|&v| f64::from(v)).collect()
}

/// Per-layer rows every traced run derives from its own rerun, whatever
/// the workload: `walls` are the rounds' (or passes') seconds with whether
/// each was traced, `rtt_us` the per-trial blocked times.
fn rerun_rows(walls: &[(f64, bool)], rtt_us: &[f64], trials: u64, wall_s: f64, m: &Meter) -> Rows {
    let of = |traced: bool| -> Vec<f64> {
        walls
            .iter()
            .filter(|w| w.1 == traced)
            .map(|w| w.0)
            .collect()
    };
    let (plain, traced) = (of(false), of(true));
    let all: Vec<f64> = walls.iter().map(|w| w.0).collect();
    let overhead = if plain.is_empty() || traced.is_empty() {
        0.0
    } else {
        fast_end(&traced) / fast_end(&plain) - 1.0
    };
    vec![
        ("client.trial_rtt_p99_us".into(), quantile(rtt_us, 0.99)),
        (
            "client.trials_per_s".into(),
            trials as f64 / all.iter().sum::<f64>(),
        ),
        ("client.round_s_p50".into(), median(&all)),
        ("client.wall_s".into(), wall_s),
        ("client.retries".into(), m.client_retries() as f64),
        (
            "bench.round_cv".into(),
            coefficient_of_variation(if plain.len() > 1 { &plain } else { &all }),
        ),
        ("bench.trace_overhead_share".into(), overhead),
        (
            "bench.failed_share".into(),
            m.failed as f64 / m.attempted.max(1) as f64,
        ),
    ]
}

fn trace_extras(m: &Meter, extras: &mut Vec<(String, f64, &'static str)>) {
    extras.push(("trace.spans".into(), m.tracer.spans().len() as f64, "count"));
    extras.push((
        "trace.spans_dropped".into(),
        m.tracer.dropped() as f64,
        "count",
    ));
    for (name, self_s, count) in m.tracer.self_time_by_name() {
        extras.push((format!("trace.self_s.{name}"), self_s, "s"));
        extras.push((format!("trace.calls.{name}"), count as f64, "count"));
    }
    let t = &m.store_telemetry;
    let (hits, misses) = (
        t.counter(Counter::StoreHits),
        t.counter(Counter::StoreMisses),
    );
    if hits + misses > 0 {
        extras.push((
            "store.hit_share".into(),
            hits as f64 / (hits + misses) as f64,
            "ratio",
        ));
        extras.push((
            "store.flushes".into(),
            t.histogram(Latency::StoreAppendFsync).count as f64,
            "count",
        ));
    }
}

fn declared(table: Vec<Metric>, rows: &Rows) -> Vec<(Metric, f64)> {
    table
        .into_iter()
        .map(|m| {
            let value = rows
                .iter()
                .find(|(n, _)| *n == m.name)
                .unwrap_or_else(|| panic!("no value for declared metric {}", m.name))
                .1;
            (m, value)
        })
        .collect()
}

fn untraced_extras(out: &Outcome) -> Vec<(String, f64, &'static str)> {
    let walls: Vec<f64> = out.rounds.iter().map(|r| r.wall_s).collect();
    vec![
        (
            "bench.setup_s_min".into(),
            quantile(&out.setup_reps_s, 0.0),
            "s",
        ),
        ("bench.setup_s_p50".into(), median(&out.setup_reps_s), "s"),
        ("bench.round_s_fast_end".into(), fast_end(&walls), "s"),
        ("bench.round_s_p50".into(), median(&walls), "s"),
        ("bench.round_s_max".into(), quantile(&walls, 1.0), "s"),
        (
            "bench.round_cv".into(),
            coefficient_of_variation(&walls),
            "ratio",
        ),
        ("bench.wall_s".into(), out.wall_s, "s"),
        (
            "client.trial_rtt_p99_us".into(),
            quantile(&widen(&out.meter.all_rtt_us), 0.99),
            "us",
        ),
    ]
}

/// What a workload's run comes down to, whichever loop drove it.
struct Measured {
    meter: Meter,
    /// Seconds of every round (or pass), and whether it ran under spans.
    walls: Vec<(f64, bool)>,
    /// Per-trial blocked times, µs.
    rtt_us: Vec<f64>,
    wall_s: f64,
    setup_repetitions: usize,
    /// End-to-end rows; empty in a traced run, which takes none.
    end_to_end: Rows,
    /// Diagnostics only this workload has.
    extras: Vec<(String, f64, &'static str)>,
}

fn measure_campaign_paper(cfg: &RunConfig, traced: bool) -> Measured {
    let out = campaign_paper::run(cfg, traced);
    Measured {
        walls: out
            .passes
            .iter()
            .enumerate()
            .map(|(i, p)| (p.iter().map(|s| s.wall_s).sum(), traced && i % 2 == 1))
            .collect(),
        rtt_us: out
            .passes
            .iter()
            .flatten()
            .map(|s| s.wall_s * 1e6)
            .collect(),
        wall_s: out.wall_s,
        setup_repetitions: out.setup_reps_s.len(),
        end_to_end: if traced {
            Rows::new()
        } else {
            campaign_paper::end_to_end(&out)
        },
        extras: campaign_paper::fastest(&out)
            .iter()
            .map(|(id, wall_s, _)| (format!("repro.{id}_s"), *wall_s, "s"))
            .collect(),
        meter: out.meter,
    }
}

fn measure_rounds(workload: &str, cfg: &RunConfig, traced: bool) -> Result<Measured, String> {
    let mut w =
        round_based(workload, cfg).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    // A second instance, with scratch files of its own, repeats a cheap
    // set-up between the rounds of the untraced run.
    let mut spare = match w.setup_plan() {
        SetupPlan::PerRound(_) if !traced => {
            let scratch = cfg.scratch.join("spare");
            std::fs::create_dir_all(&scratch)
                .map_err(|e| format!("create {}: {e}", scratch.display()))?;
            round_based(
                workload,
                &RunConfig {
                    scratch,
                    ..cfg.clone()
                },
            )
        }
        _ => None,
    };
    let (rounds, mode) = if traced {
        // Half the rounds, every second one traced: a quarter of the
        // campaign set runs under spans.
        ((w.rounds() / 2).max(2), TraceMode::Interleaved)
    } else {
        (w.rounds(), TraceMode::Off)
    };
    let out = drive(w.as_mut(), spare.as_deref_mut(), rounds, mode);
    let (end_to_end, extras) = if traced {
        let p50 = |samples: &[f32]| median(&widen(samples));
        (
            Rows::new(),
            vec![
                (
                    "client.fetch_us_p50".into(),
                    p50(&out.meter.all_fetch_us),
                    "us",
                ),
                (
                    "client.report_us_p50".into(),
                    p50(&out.meter.all_report_us),
                    "us",
                ),
            ],
        )
    } else {
        (harness::end_to_end(&out), untraced_extras(&out))
    };
    Ok(Measured {
        walls: out.rounds.iter().map(|r| (r.wall_s, r.traced)).collect(),
        rtt_us: widen(&out.meter.all_rtt_us),
        wall_s: out.wall_s,
        setup_repetitions: out.setup_reps_s.len(),
        end_to_end,
        extras,
        meter: out.meter,
    })
}

/// Run `workload`. The traced run also runs the probes and writes its spans
/// to `<out_dir>/trace-<workload>.json`.
pub fn run(
    workload: &str,
    cfg: &RunConfig,
    traced: bool,
    out_dir: &Path,
) -> Result<RunReport, String> {
    let mut measured = if workload == "campaign-paper" {
        measure_campaign_paper(cfg, traced)
    } else {
        measure_rounds(workload, cfg, traced)?
    };
    let m = &measured.meter;
    let metrics = if traced {
        let mut rows = rerun_rows(
            &measured.walls,
            &measured.rtt_us,
            m.trials,
            measured.wall_s,
            m,
        );
        rows.extend(probes::run_all(cfg));
        trace_extras(m, &mut measured.extras);
        let trace_path = out_dir.join(format!("trace-{workload}.json"));
        m.tracer
            .write_chrome(&trace_path)
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        declared(metrics::per_layer(), &rows)
    } else {
        declared(metrics::end_to_end(), &measured.end_to_end)
    };
    Ok(RunReport {
        workload: workload.into(),
        traced,
        metrics,
        extras: measured.extras,
        attempted: measured.meter.attempted,
        failed: measured.meter.failed,
        checks: measured.meter.checks,
        rounds: measured.walls.len(),
        setup_repetitions: measured.setup_repetitions,
        rtt_samples: measured.rtt_us.len(),
    })
}

/// The estimator settings, for the output's host block.
pub fn estimator_settings() -> serde_json::Value {
    serde_json::json!({
        "steady_state": format!("mean of the fastest {FAST_SHARE} of the rounds of identical work, at least one"),
        "set_up": "second fastest repetition, or the one at rank (n-1)/20 of more than 40; cheap set-ups repeat before every round",
        "campaign_paper": "per experiment, the same fast end over the passes",
        "reference_seconds": harness::REFERENCE_SECONDS,
    })
}
