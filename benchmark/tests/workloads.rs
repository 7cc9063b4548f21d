//! Every workload, run small: each reports every declared metric, its
//! counts repeat exactly for one seed, and a corrupted expectation fails it.

use ah_benchmark::harness::RunConfig;
use ah_benchmark::metrics;
use ah_benchmark::run::{run, RunReport};
use std::path::PathBuf;

const COUNTS: [&str; 3] = ["fresh_evals", "checks_passed", "trials_total"];

fn dirs(tag: &str) -> (PathBuf, PathBuf) {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let scratch = root.join("scratch");
    std::fs::create_dir_all(&scratch).expect("create test scratch");
    (root, scratch)
}

fn small(tag: &str, seed: u64, corrupt: bool) -> (RunConfig, PathBuf) {
    let (out, scratch) = dirs(tag);
    let cfg = RunConfig {
        seed,
        // A twentieth of the reference run: one or two sessions per round.
        seconds: 0.5,
        rounds: Some(2),
        scratch,
        corrupt_expectation: corrupt,
    };
    (cfg, out)
}

fn untraced(workload: &str, tag: &str, seed: u64) -> RunReport {
    let (cfg, out) = small(&format!("{workload}-{tag}"), seed, false);
    run(workload, &cfg, false, &out).expect("workload runs")
}

fn assert_end_to_end(workload: &str) {
    let (a, b) = (untraced(workload, "a", 11), untraced(workload, "b", 11));
    for report in [&a, &b] {
        assert!(report.correct(), "{workload}: {:?}", report.checks);
        assert!(report.attempted >= 1 && report.failed == 0);
        let names: Vec<&str> = report
            .metrics
            .iter()
            .map(|(m, _)| m.name.as_str())
            .collect();
        let declared: Vec<String> = metrics::end_to_end().into_iter().map(|m| m.name).collect();
        assert_eq!(
            names, declared,
            "{workload} reports every end-to-end metric, in order"
        );
        for (m, v) in &report.metrics {
            assert!(v.is_finite() && *v > 0.0, "{workload}: {} = {v}", m.name);
        }
    }
    for count in COUNTS {
        assert_eq!(
            a.value(count),
            b.value(count),
            "{workload}: {count} repeats exactly"
        );
    }
}

fn assert_corruption_fails(workload: &str) {
    let (cfg, out) = small(&format!("{workload}-corrupt"), 11, true);
    let report = run(workload, &cfg, false, &out).expect("workload runs");
    assert!(
        !report.correct(),
        "{workload}: a corrupted expectation must fail a check"
    );
    assert!(report.checks.iter().any(|c| !c.passed));
}

fn assert_traced(workload: &str) {
    let (cfg, out) = small(&format!("{workload}-traced"), 11, false);
    let report = run(workload, &cfg, true, &out).expect("traced run");
    assert!(report.correct(), "{workload}: {:?}", report.checks);
    let names: Vec<&str> = report
        .metrics
        .iter()
        .map(|(m, _)| m.name.as_str())
        .collect();
    let declared: Vec<String> = metrics::per_layer().into_iter().map(|m| m.name).collect();
    assert_eq!(
        names, declared,
        "{workload} reports every per-layer metric, in order"
    );
    assert!(report.metrics.iter().all(|(_, v)| v.is_finite()));
    let trace =
        std::fs::read_to_string(out.join(format!("trace-{workload}.json"))).expect("trace written");
    let doc = serde_json::parse(&trace).expect("trace is JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents");
    assert!(
        !events.is_empty(),
        "{workload}: the traced round recorded spans"
    );
    assert!(events
        .iter()
        .all(|e| e["ph"].as_str() == Some("X") && e["dur"].as_f64().is_some()));
}

#[test]
fn tcp_serial_end_to_end() {
    assert_end_to_end("tcp-serial");
    assert_corruption_fails("tcp-serial");
}

#[test]
fn store_cold_end_to_end() {
    assert_end_to_end("store-cold");
    assert_corruption_fails("store-cold");
}

#[test]
fn store_warm_end_to_end() {
    assert_end_to_end("store-warm");
    assert_corruption_fails("store-warm");
}

#[test]
fn inproc_search_end_to_end() {
    assert_end_to_end("inproc-search");
    assert_corruption_fails("inproc-search");
}

/// One traced run covers the probes, which are the same for every workload.
#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    assert_traced("tcp-serial");
}

#[test]
fn campaign_paper_end_to_end() {
    assert_end_to_end("campaign-paper");
    assert_corruption_fails("campaign-paper");
}

#[test]
fn an_unknown_workload_is_an_error() {
    let (cfg, out) = small("unknown", 1, false);
    assert!(run("tcp-fanin", &cfg, false, &out).is_err());
}
