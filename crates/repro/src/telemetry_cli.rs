//! `repro metrics` / `repro trace`: observability artifacts of a faulted
//! tuning run.
//!
//! Both subcommands drive the same campaign as the `fault` experiment —
//! a Nelder–Mead session shared by three workers under a seeded fault
//! schedule of crashes, lost reports, and stragglers — with telemetry
//! enabled on the server, and then render what the telemetry saw:
//!
//! * `metrics` prints the counters and latency histograms in Prometheus
//!   text exposition format.
//! * `trace` prints a JSON timeline grouping every recorded event by trial
//!   (iteration token), with per-event stage, client, and cause — the full
//!   proposed → fetched → measured → reported lifecycle, including every
//!   requeue and fault along the way.
//!
//! `trace` also *verifies* completeness: every proposed trial must have a
//! reported event, and every requeue/eviction/fault must carry a cause.
//! A hole in the trace is an exit-code failure, not a shrug.
//!
//! With `--format chrome`, `trace` instead exports the run's timing spans
//! as Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`)
//! and fails if any span was left unpaired. With `--from <addr>`, both
//! subcommands pull from a live server's observability endpoint instead of
//! running a campaign: `metrics` fetches `/metrics`, `trace` fetches
//! `/trials` (the raw event ring) or `/trace` (Chrome format). Remote
//! pulls skip the completeness gate — a live campaign legitimately has
//! trials in flight.

use crate::experiments::fault;
use crate::observe_cli;
use ah_clustersim::FaultPlan;
use ah_core::prelude::*;

/// The instrumented campaign both subcommands observe: same workload,
/// seeds, and fault probabilities as the `fault` experiment's Nelder–Mead
/// row, so its numbers line up with that experiment's report. Returns what
/// its server was started with, telemetry and tenant registry included.
fn observed_run(quick: bool) -> ServerConfig {
    let evals = if quick { 40 } else { 120 };
    let plan = FaultPlan::new(2026, 0.12, 0.08, 0.18);
    let outcome = fault::faulty_history(StrategyKind::NelderMead, evals, 62, &plan, 3);
    eprintln!(
        "observed fault run: {} evaluations, {} crashes, {} lost reports, {} stragglers",
        outcome.history.len(),
        outcome.crashes,
        outcome.lost,
        outcome.stragglers
    );
    outcome.server
}

/// Write `blob` to `out` when given, otherwise to stdout.
fn emit(blob: &str, out: Option<&str>) {
    match out {
        Some(path) => {
            std::fs::write(path, blob).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("wrote {path}");
        }
        None => println!("{blob}"),
    }
}

/// `repro metrics`: Prometheus text exposition of the observed run, or of
/// a live server when `from` is given.
pub fn metrics(quick: bool, out: Option<&str>, from: Option<&str>) -> i32 {
    let blob = match from {
        Some(addr) => match observe_cli::pull(addr, "/metrics") {
            Ok(body) => body,
            Err(e) => {
                eprintln!("metrics: {e}");
                return 2;
            }
        },
        None => observed_run(quick).prometheus(),
    };
    emit(&blob, out);
    0
}

/// One trial's event timeline inside the `trace` JSON.
fn trial_timeline(iteration: usize, events: &[TrialEvent]) -> serde_json::Value {
    let timeline: Vec<serde_json::Value> = events
        .iter()
        .filter(|e| e.iteration == iteration)
        .map(|e| {
            serde_json::json!({
                "seq": e.seq,
                "at_us": e.at_us,
                "stage": e.stage.name(),
                "client": e.client,
                "cause": e.cause,
            })
        })
        .collect();
    serde_json::json!({ "iteration": iteration, "events": timeline })
}

/// `repro trace`: JSON event dump of the observed run, grouped per trial,
/// plus counters. Returns nonzero if any trial's lifecycle is incomplete.
///
/// `format` selects `"events"` (the lifecycle dump) or `"chrome"` (span
/// slices as Chrome trace-event JSON); `from` pulls from a live server
/// instead of running a campaign.
pub fn trace(quick: bool, out: Option<&str>, format: &str, from: Option<&str>) -> i32 {
    match format {
        "events" | "chrome" => {}
        other => {
            eprintln!("trace: unknown --format {other:?} (expected events|chrome)");
            return 2;
        }
    }
    if let Some(addr) = from {
        let path = if format == "chrome" {
            "/trace"
        } else {
            "/trials"
        };
        return match observe_cli::pull(addr, path) {
            Ok(body) => {
                emit(&body, out);
                0
            }
            Err(e) => {
                eprintln!("trace: {e}");
                2
            }
        };
    }
    let telemetry = observed_run(quick).telemetry;
    if format == "chrome" {
        let blob = serde_json::to_string_pretty(&telemetry.chrome_trace())
            .expect("chrome trace serializes");
        emit(&blob, out);
        let open = telemetry.open_spans();
        if open > 0 {
            eprintln!("trace: {open} span(s) begun but never ended or faulted");
            return 1;
        }
        eprintln!(
            "trace: {} spans, all paired (begin → end/fault)",
            telemetry.spans().len()
        );
        return 0;
    }
    let events = telemetry.events();

    // Group by iteration token; iteration 0 carries member-level events
    // (evictions) that belong to no single trial.
    let mut iterations: Vec<usize> = events
        .iter()
        .map(|e| e.iteration)
        .filter(|&i| i != 0)
        .collect();
    iterations.sort_unstable();
    iterations.dedup();
    let trials: Vec<serde_json::Value> = iterations
        .iter()
        .map(|&i| trial_timeline(i, &events))
        .collect();
    let member_events: Vec<serde_json::Value> = events
        .iter()
        .filter(|e| e.iteration == 0)
        .map(|e| {
            serde_json::json!({
                "seq": e.seq,
                "at_us": e.at_us,
                "stage": e.stage.name(),
                "member": e.client,
                "cause": e.cause,
            })
        })
        .collect();
    let counters = telemetry.counters_json();

    // Completeness check: a trial that was proposed (or replayed into
    // existence) must end its life reported; causal stages must say why.
    let mut incomplete = Vec::new();
    for &i in &iterations {
        let stages: Vec<TrialStage> = events
            .iter()
            .filter(|e| e.iteration == i)
            .map(|e| e.stage)
            .collect();
        let proposed = stages.contains(&TrialStage::Proposed);
        let reported = stages.contains(&TrialStage::Reported);
        if proposed && !reported {
            incomplete.push(i);
        }
    }
    let causeless = events
        .iter()
        .filter(|e| {
            matches!(
                e.stage,
                TrialStage::Requeued | TrialStage::Evicted | TrialStage::Faulted
            ) && e.cause.is_none()
        })
        .count();

    let blob = serde_json::to_string_pretty(&serde_json::json!({
        "trials": trials,
        "member_events": member_events,
        "counters": counters,
        "dropped_events": telemetry.dropped_events(),
        "incomplete_trials": incomplete,
    }))
    .expect("trace serializes");
    emit(&blob, out);

    if !incomplete.is_empty() {
        eprintln!(
            "trace: {} proposed trial(s) never reached `reported`: {incomplete:?}",
            incomplete.len()
        );
        return 1;
    }
    if causeless > 0 {
        eprintln!("trace: {causeless} requeue/eviction/fault event(s) carry no cause");
        return 1;
    }
    eprintln!(
        "trace: {} trials, all lifecycles complete",
        iterations.len()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_of_a_quick_faulted_run_is_complete() {
        let telemetry = observed_run(true).telemetry;
        let events = telemetry.events();
        assert!(telemetry.dropped_events() == 0, "quick run overflowed ring");
        let proposed: std::collections::HashSet<usize> = events
            .iter()
            .filter(|e| e.stage == TrialStage::Proposed)
            .map(|e| e.iteration)
            .collect();
        let reported: std::collections::HashSet<usize> = events
            .iter()
            .filter(|e| e.stage == TrialStage::Reported)
            .map(|e| e.iteration)
            .collect();
        assert_eq!(proposed, reported, "some trials never finished");
        assert!(
            telemetry.counter(Counter::TrialsRequeued) > 0,
            "fault schedule should force at least one requeue"
        );
        // Faults were recorded with their kind as cause.
        assert!(events
            .iter()
            .filter(|e| e.stage == TrialStage::Faulted)
            .all(|e| e.cause.is_some()));
    }

    #[test]
    fn metrics_exposition_is_parseable_prometheus_text() {
        let text = observed_run(true).prometheus();
        assert!(text.contains("ah_trials_reported_total 40"), "{text}");
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample line: {line}"
            );
        }
    }
}
