//! The metrics `BENCHMARK.json` declares, with their units and directions.
//! A unit test holds this table and that file to each other.

use ah_repro::leaderboard::ROSTER;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]`, at most 64 characters.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

fn metric(name: &str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// Bound on every timing and memory metric: the widest the contract allows.
///
/// On a quiet reference host ten seeds put these metrics' quartiles 2–4 % of
/// the median apart. While a neighbour keeps the host busy, which lasts tens
/// of minutes at a time, they lie 4–12 % apart and single runs read up to
/// 30 % slow: the slowdown is continuous, so even the fastest rounds of a
/// run carry some of it. A narrower bound would call that a regression.
pub const TIMING_BOUND: f64 = 0.25;
/// Bound on the set-up time, whose repetitions are the shortest intervals
/// the benchmark times.
pub const SETUP_BOUND: f64 = 0.25;
/// Bound on the counts. They repeat exactly for one seed; across seeds only
/// `inproc-search`'s evaluation counts move, their quartiles 2–4 % apart.
pub const COUNT_BOUND: f64 = 0.15;

/// The end-to-end metrics, in printing order.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    vec![
        metric("setup_s", "s", Lower, SETUP_BOUND),
        metric("campaign_s", "s", Lower, TIMING_BOUND),
        metric("trial_rtt_p50_us", "us", Lower, TIMING_BOUND),
        metric("cpu_us_per_trial", "us", Lower, TIMING_BOUND),
        metric("fresh_evals", "count", Lower, COUNT_BOUND),
        metric("checks_passed", "count", Higher, COUNT_BOUND),
        metric("peak_rss_mb", "MiB", Lower, TIMING_BOUND),
        metric("trials_total", "count", Higher, COUNT_BOUND),
    ]
}

/// The per-layer metrics every traced run reports, in printing order.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let m = |name: &str, unit, better| metric(name, unit, better, 0.0);
    let mut v = vec![
        m("client.trial_rtt_p99_us", "us", Lower),
        m("client.trials_per_s", "1/s", Higher),
        m("client.round_s_p50", "s", Lower),
        m("client.wall_s", "s", Lower),
        m("client.retries", "count", Lower),
        m("protocol.encode_ns_per_frame", "ns", Lower),
        m("protocol.decode_ns_per_frame", "ns", Lower),
        m("protocol.framedecoder_ns_per_frame", "ns", Lower),
        m("protocol.frame_bytes_per_trial", "B", Lower),
        m("tcp.heartbeat_rtt_us_p50", "us", Lower),
        m("tcp.connect_register_us", "us", Lower),
        m("tcp.serial_rtt_us_p50", "us", Lower),
        m("tcp.residual_us", "us", Lower),
        m("server.inproc_rtt_us_p50", "us", Lower),
        m("server.seal_us", "us", Lower),
        m("session.suggest_ns_p50", "ns", Lower),
        m("session.report_ns_p50", "ns", Lower),
        m("session.report_stored_ns_p50", "ns", Lower),
    ];
    for name in ROSTER {
        let key = crate::probes::strategy_key(name);
        v.push(m(&format!("strategy.{key}.propose_us_mean"), "us", Lower));
        v.push(m(
            &format!("strategy.{key}.evals_to_target"),
            "count",
            Lower,
        ));
    }
    v.extend([
        m("space_compile.compile_us", "us", Lower),
        m("space_compile.stream_pts_per_s", "1/s", Higher),
        m("space_compile.snap_ns_p50", "ns", Lower),
        m("space_compile.points_pruned", "count", Higher),
        m("store.insert_batch_ns_per_record", "ns", Lower),
        m("store.lookup_hit_ns_p50", "ns", Lower),
        m("store.lookup_miss_ns_p50", "ns", Lower),
        m("store.open_s", "s", Lower),
        m("store.open_ns_per_record", "ns", Lower),
        m("store.bytes_per_record", "B", Lower),
        m("wal.append_us_per_report", "us", Lower),
        m("wal.resume_s", "s", Lower),
        m("wal.bytes_per_record", "B", Lower),
        m("telemetry.overhead_ns_per_trial", "ns", Lower),
    ]);
    for name in crate::apps::EVAL_METRICS {
        v.push(m(name, "us", Lower));
    }
    v.extend([
        m("host.calib_cpu_ms", "ms", Lower),
        m("host.calib_mem_ms", "ms", Lower),
        m("bench.round_cv", "ratio", Lower),
        m("bench.trace_overhead_share", "ratio", Lower),
        m("bench.budget_residual_share", "ratio", Lower),
        m("bench.failed_share", "ratio", Lower),
    ]);
    v
}

/// The workloads and why each exists, in running order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "tcp-serial",
        "One TCP client, serial Fetch/Report, no store: protocol, tcp/event_loop and server dispatch do the work; the wire-format hypothesis shows here and nowhere else",
    ),
    (
        "store-cold",
        "Batches of 16 against an empty store: every lookup misses and every report is appended, so the durable write path carries the round and the wire cost is amortised 16x",
    ),
    (
        "store-warm",
        "The same sessions replayed on a filled store: every proposal is a hit served server-side (lookup, report_stored); set-up is open plus log replay of 80k records",
    ),
    (
        "inproc-search",
        "No server: nine strategies raced over three synthetic problems, then 1e5 points of a 1e9-point space streamed; strategy, session and space_compile do all the work",
    ),
    (
        "campaign-paper",
        "The paper's 15 registry experiments (quick mode, 24 passes), in-process: application objectives dominate, tuner overhead is negligible; a kernel change shows here only",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_in_their_charsets() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        for m in &all {
            assert!(name_ok(&m.name), "metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "unit {:?} of {}", m.unit, m.name);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| name_ok(w.0) && w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(!name_ok("p99 latency") && !name_ok("_x") && !name_ok(""));
    }

    #[test]
    fn bounds_fit_the_contract() {
        let e2e = end_to_end();
        assert!(e2e.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = e2e
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            e2e.iter().all(|m| m.bound <= setup.bound),
            "set-up has the largest bound"
        );
    }

    /// `BENCHMARK.json` sits one directory up, outside this package; where
    /// it is present it must declare exactly this table.
    #[test]
    fn benchmark_json_declares_this_table() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String, String)> {
            doc[key]
                .as_array()
                .expect("a list")
                .iter()
                .map(|m| {
                    let f = |k: &str| m[k].as_str().expect("a string").to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let table = |v: Vec<Metric>| -> Vec<(String, String, String)> {
            v.into_iter()
                .map(|m| (m.name, m.unit.to_string(), m.better.word().to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), table(end_to_end()));
        assert_eq!(declared("per_layer"), table(per_layer()));
        for (m, d) in end_to_end()
            .iter()
            .zip(doc["end_to_end"].as_array().expect("a list"))
        {
            assert_eq!(d["bound"].as_f64(), Some(m.bound), "bound of {}", m.name);
        }
        let workloads: Vec<(String, String)> = doc["workloads"]
            .as_array()
            .expect("a list")
            .iter()
            .map(|w| {
                (
                    w["name"].as_str().expect("name").to_string(),
                    w["why"].as_str().expect("why").to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.0.to_string(), w.1.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc["run_seconds"].as_f64(),
            Some(crate::harness::REFERENCE_SECONDS)
        );
    }
}
