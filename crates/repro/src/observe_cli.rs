//! `repro observe` / `repro watch`: the live side of the observability
//! plane.
//!
//! * `observe` runs the same faulted Nelder–Mead campaign as
//!   `repro metrics`/`repro trace`, but with the HTTP observability
//!   endpoint attached to the tuning server and the campaign stretched in
//!   time, so an external poller (a human with `curl`, `repro watch`, the
//!   CI smoke job) can inspect `/metrics` and `/status` *mid-campaign*.
//!   The bound address is printed to stdout as `observe: http://<addr>`.
//! * `watch` polls a live server's `/status` once per interval and prints
//!   a one-line progress view per tick: evaluations, best cost, strategy
//!   phase, simplex spread, pending and outstanding trials.
//!   When the server retains a time-series (`/metrics/history`), a second
//!   line per tick reports windowed evaluation/report rates; against older
//!   servers the same rates are derived from successive `/status` counter
//!   snapshots instead.
//! * `fleet` renders one server's `/fleet` aggregation — a per-peer table
//!   of freshness, sessions, queue depth, and counters, plus fleet totals
//!   and merged per-tenant metrics.
//!
//! All speak plain HTTP/1.1 over [`ah_core::server::observe::http_get`] —
//! no client dependency, same as the server side.

use crate::experiments::fault::{self, ObserveOpts};
use ah_clustersim::FaultPlan;
use ah_core::prelude::*;
use ah_core::server::observe::http_get;
use serde_json::Value;
use std::time::Duration;

/// `repro observe`: run the observed fault campaign with a live endpoint.
pub fn serve(quick: bool, addr: &str, tick_delay_ms: u64, linger_ms: u64) -> i32 {
    let evals = if quick { 40 } else { 120 };
    let plan = FaultPlan::new(2026, 0.12, 0.08, 0.18);
    let opts = ObserveOpts {
        addr: Some(addr.to_string()),
        tick_delay: (tick_delay_ms > 0).then(|| Duration::from_millis(tick_delay_ms)),
        linger: (linger_ms > 0).then(|| Duration::from_millis(linger_ms)),
        sample_interval: None,
    };
    let outcome = fault::faulty_history_with(StrategyKind::NelderMead, evals, 62, &plan, 3, &opts);
    eprintln!(
        "observed fault run: {} evaluations, {} crashes, {} lost reports, {} stragglers",
        outcome.history.len(),
        outcome.crashes,
        outcome.lost,
        outcome.stragglers
    );
    // The campaign ran with the sampler attached; close with the whole-run
    // rates the time-series retained.
    if let Some(w) = outcome
        .server
        .timeseries
        .as_ref()
        .and_then(|s| s.window(Duration::from_secs(3600)))
    {
        let rate = |name: &str| {
            w.counter_rates
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        eprintln!(
            "sampled {} point(s) over {:.1}s: evals/s={:.2} reports/s={:.2}",
            w.samples,
            w.seconds,
            rate("trials_reported"),
            rate("trials_measured"),
        );
    }
    0
}

/// Pull `path` from a live observability endpoint, exiting with a message
/// on connection failure. Shared by `watch` and the `--from` flags of
/// `trace`/`metrics`.
pub(crate) fn pull(addr: &str, path: &str) -> Result<String, String> {
    match http_get(addr, path) {
        Ok((200, body)) => Ok(body),
        Ok((code, _)) => Err(format!("GET {path} from {addr}: HTTP {code}")),
        Err(e) => Err(format!("GET {path} from {addr}: {e}")),
    }
}

/// One `/status` document rendered as a single progress line. Multiple
/// tuning sessions produce one line each.
fn progress_lines(doc: &Value) -> Vec<String> {
    let sessions = doc.get("sessions").and_then(Value::as_array).unwrap_or(&[]);
    if sessions.is_empty() {
        return vec!["no sessions yet".to_string()];
    }
    sessions
        .iter()
        .map(|s| {
            let app = s.get("app").and_then(Value::as_str).unwrap_or("?");
            if s.get("phase").and_then(Value::as_str) != Some("tuning") {
                return format!("{app}: declaring parameters");
            }
            let evals = s.get("evaluations").and_then(Value::as_u64).unwrap_or(0);
            let best = s
                .get("best_cost")
                .and_then(Value::as_f64)
                .map(|c| format!("{c:.4}"))
                .unwrap_or_else(|| "-".into());
            let phase = s
                .get("search")
                .and_then(|v| v.get("phase"))
                .and_then(Value::as_str)
                .unwrap_or("?");
            let spread = s
                .get("search")
                .and_then(|v| v.get("simplex"))
                .and_then(|v| v.get("spread"))
                .and_then(Value::as_f64)
                .map(|sp| format!(" spread={sp:.4}"))
                .unwrap_or_default();
            let pending = s.get("pending").and_then(Value::as_u64).unwrap_or(0);
            let outstanding = s.get("outstanding").and_then(Value::as_u64).unwrap_or(0);
            let stopped = s
                .get("stop_reason")
                .and_then(Value::as_str)
                .map(|r| format!(" stopped={r}"))
                .unwrap_or_default();
            format!(
                "{app}: evals={evals} best={best} phase={phase}{spread} \
                 pending={pending} outstanding={outstanding}{stopped}"
            )
        })
        .collect()
}

/// Successive-snapshot rate fallback for servers without a time-series:
/// remembers the previous tick's cumulative counters and wall clock, and
/// turns the current tick's counters into per-second rates.
#[derive(Default)]
struct RateTracker {
    last: Option<(std::time::Instant, u64, u64)>,
}

impl RateTracker {
    /// Feed this tick's cumulative (evaluations, reports); returns per-
    /// second rates once two ticks have been seen.
    fn tick(&mut self, evals: u64, reports: u64) -> Option<(f64, f64)> {
        let now = std::time::Instant::now();
        let rates = self.last.map(|(at, e, r)| {
            let dt = now.duration_since(at).as_secs_f64().max(1e-9);
            (
                evals.saturating_sub(e) as f64 / dt,
                reports.saturating_sub(r) as f64 / dt,
            )
        });
        self.last = Some((now, evals, reports));
        rates
    }
}

/// Cumulative (evaluations, reports) counters from a `/status` document.
fn status_counters(doc: &Value) -> (u64, u64) {
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    (counter("trials_reported"), counter("trials_measured"))
}

/// Windowed (evals/s, reports/s, window_s) from a `/metrics/history`
/// document, when the window holds at least two samples.
fn history_rates(doc: &Value) -> Option<(f64, f64, f64)> {
    let window = doc.get("window")?;
    let rate = |name: &str| window.get("rates")?.get(name)?.as_f64();
    Some((
        rate("trials_reported")?,
        rate("trials_measured")?,
        window.get("seconds").and_then(Value::as_f64)?,
    ))
}

/// One rates line per tick. Prefers the server-side time-series window;
/// falls back to deltas between this watcher's own successive `/status`
/// snapshots. `history_supported` caches whether `/metrics/history`
/// exists so a missing endpoint is probed only once.
fn rates_line(
    addr: &str,
    status: &Value,
    tracker: &mut RateTracker,
    history_supported: &mut Option<bool>,
) -> Option<String> {
    if *history_supported != Some(false) {
        match pull(addr, "/metrics/history?window=10") {
            Ok(body) => {
                *history_supported = Some(true);
                if let Some((evals, reports, secs)) = serde_json::parse(&body)
                    .ok()
                    .as_ref()
                    .and_then(history_rates)
                {
                    // Keep the fallback tracker warm in case the window
                    // later drains below two samples.
                    let (e, r) = status_counters(status);
                    tracker.tick(e, r);
                    return Some(format!(
                        "rates: evals/s={evals:.2} reports/s={reports:.2} (history window={secs:.1}s)"
                    ));
                }
            }
            Err(_) => *history_supported = Some(false),
        }
    }
    let (e, r) = status_counters(status);
    let (evals, reports) = tracker.tick(e, r)?;
    Some(format!(
        "rates: evals/s={evals:.2} reports/s={reports:.2} (status deltas)"
    ))
}

/// `repro watch`: poll `/status` and print one progress line per tick.
/// Stops after `ticks` polls (0 = until every session reports a stop
/// reason), or as soon as the server becomes unreachable.
pub fn watch(addr: &str, interval_ms: u64, ticks: usize) -> i32 {
    let mut polled = 0usize;
    let mut tracker = RateTracker::default();
    let mut history_supported = None;
    loop {
        let body = match pull(addr, "/status") {
            Ok(b) => b,
            Err(e) => {
                // Unreachable after at least one good poll usually means
                // the campaign ended and took the endpoint down: that is a
                // clean exit for a watcher, not an error.
                eprintln!("watch: {e}");
                return if polled > 0 { 0 } else { 2 };
            }
        };
        let Ok(doc) = serde_json::parse(&body) else {
            eprintln!("watch: /status returned invalid JSON");
            return 2;
        };
        for line in progress_lines(&doc) {
            println!("{line}");
        }
        if let Some(line) = rates_line(addr, &doc, &mut tracker, &mut history_supported) {
            println!("{line}");
        }
        polled += 1;
        if ticks > 0 && polled >= ticks {
            return 0;
        }
        if ticks == 0 {
            let sessions = doc.get("sessions").and_then(Value::as_array).unwrap_or(&[]);
            let all_stopped = !sessions.is_empty()
                && sessions
                    .iter()
                    .all(|s| s.get("stop_reason").map(|r| *r != Value::Null) == Some(true));
            if all_stopped {
                return 0;
            }
        }
        std::thread::sleep(Duration::from_millis(interval_ms.max(10)));
    }
}

/// Render one `/fleet` document as a per-peer table plus totals.
fn fleet_lines(doc: &Value) -> Vec<String> {
    let u = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    let mut out = vec![format!(
        "fleet: {} peer(s), {} fresh",
        u(doc, "peers"),
        u(doc, "fresh")
    )];
    out.push(format!(
        "{:<24} {:>4} {:>5} {:>6} {:>8} {:>7} {:>7} {:>8}",
        "ADDR", "SELF", "FRESH", "AGE_S", "SESSIONS", "EVALS", "REPORTS", "REFUSED"
    ));
    for row in doc.get("rows").and_then(Value::as_array).unwrap_or(&[]) {
        let addr = row.get("addr").and_then(Value::as_str).unwrap_or("?");
        if let Some(err) = row.get("error").and_then(Value::as_str) {
            out.push(format!("{addr:<24} {err}"));
            continue;
        }
        let yn = |key: &str| {
            if row.get(key).and_then(Value::as_bool).unwrap_or(false) {
                "yes"
            } else {
                "no"
            }
        };
        let age = row
            .get("age_s")
            .and_then(Value::as_f64)
            .map(|a| format!("{a:.1}"))
            .unwrap_or_else(|| "-".into());
        out.push(format!(
            "{:<24} {:>4} {:>5} {:>6} {:>8} {:>7} {:>7} {:>8}",
            addr,
            yn("self"),
            yn("fresh"),
            age,
            u(row, "sessions"),
            u(row, "evaluations"),
            u(row, "reports"),
            u(row, "quota_refusals"),
        ));
    }
    if let Some(totals) = doc.get("totals") {
        out.push(format!(
            "totals: evals={} reports={} sessions={} refusals={}",
            u(totals, "evaluations"),
            u(totals, "reports"),
            u(totals, "sessions"),
            u(totals, "quota_refusals"),
        ));
    }
    if let Some(tenants) = doc.get("tenants").and_then(Value::as_object) {
        for (tenant, metrics) in tenants {
            let cells: Vec<String> = metrics
                .as_object()
                .map(|m| {
                    m.iter()
                        .map(|(k, v)| format!("{k}={}", v.as_u64().unwrap_or(0)))
                        .collect()
                })
                .unwrap_or_default();
            out.push(format!("tenant {tenant}: {}", cells.join(" ")));
        }
    }
    out
}

/// `repro fleet --from ADDR`: pull one server's `/fleet` aggregation and
/// print the per-peer table.
pub fn fleet(addr: &str) -> i32 {
    let body = match pull(addr, "/fleet") {
        Ok(b) => b,
        Err(e) => {
            eprintln!("fleet: {e}");
            return 2;
        }
    };
    let Ok(doc) = serde_json::parse(&body) else {
        eprintln!("fleet: /fleet returned invalid JSON");
        return 2;
    };
    for line in fleet_lines(&doc) {
        println!("{line}");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end over a real socket: serve the quick campaign from one
    /// thread, watch and pull from another, mid-campaign.
    #[test]
    fn watch_and_pull_see_a_live_campaign() {
        // Fixed loopback port: port 0 would print the resolved address to
        // stdout where this test cannot read it back.
        let addr = "127.0.0.1:47717";
        let server = std::thread::spawn(move || {
            // Slow ticks stretch the campaign; linger keeps the endpoint
            // up long enough for the final assertions.
            serve(true, addr, 5, 1500)
        });
        // Wait for the endpoint to come up.
        let mut status = None;
        for _ in 0..200 {
            if let Ok(body) = pull(addr, "/status") {
                status = Some(body);
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let status = status.expect("observability endpoint never came up");
        let doc: Value = serde_json::parse(&status).unwrap();
        assert!(doc.get("sessions").is_some(), "{status}");

        // A watcher bounded by ticks terminates and reports progress.
        let code = watch(addr, 20, 3);
        assert_eq!(code, 0);

        // The exposition is live on the same endpoint.
        let metrics = pull(addr, "/metrics").expect("metrics");
        assert!(metrics.contains("ah_trials_proposed_total"), "{metrics}");

        // The sampler is attached: history serves windowed deltas, and
        // the default SLO rules hold on a healthy local campaign.
        let history = pull(addr, "/metrics/history?window=60").expect("history");
        let history: Value = serde_json::parse(&history).unwrap();
        assert!(history.get("retained").and_then(Value::as_u64).unwrap() >= 1);
        let health = pull(addr, "/healthz").expect("healthz");
        let health: Value = serde_json::parse(&health).unwrap();
        assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));

        // And the Chrome trace endpoint serves span slices of the run.
        let trace = pull(addr, "/trace").expect("trace");
        let trace: Value = serde_json::parse(&trace).unwrap();
        assert!(trace.get("traceEvents").is_some());

        assert_eq!(server.join().unwrap(), 0);
    }

    #[test]
    fn rate_tracker_needs_two_ticks_and_divides_by_elapsed() {
        let mut tracker = RateTracker::default();
        assert!(tracker.tick(10, 5).is_none());
        std::thread::sleep(Duration::from_millis(5));
        let (evals, reports) = tracker.tick(30, 15).unwrap();
        assert!(evals > 0.0 && reports > 0.0, "{evals} {reports}");
        assert!(evals > reports, "20 evals vs 10 reports over the same span");
        // Counters that went backwards (server restart) clamp to zero.
        std::thread::sleep(Duration::from_millis(2));
        let (evals, reports) = tracker.tick(0, 0).unwrap();
        assert_eq!((evals, reports), (0.0, 0.0));
    }

    #[test]
    fn history_rates_read_the_window_block() {
        let doc: Value = serde_json::parse(
            r#"{"window":{"seconds":2.0,"rates":{"trials_reported":3.5,"trials_measured":3.0}}}"#,
        )
        .unwrap();
        let (evals, reports, secs) = history_rates(&doc).unwrap();
        assert_eq!((evals, reports, secs), (3.5, 3.0, 2.0));
        // An empty window (fewer than two samples) yields nothing.
        let empty: Value = serde_json::parse(r#"{"window":null}"#).unwrap();
        assert!(history_rates(&empty).is_none());
    }

    #[test]
    fn fleet_lines_render_rows_totals_and_tenants() {
        let doc: Value = serde_json::parse(
            r#"{
                "peers": 2, "fresh": 1,
                "totals": {"evaluations": 70, "reports": 68, "sessions": 3, "quota_refusals": 1},
                "tenants": {"acme": {"evaluations": 7, "reports": 7}},
                "rows": [
                    {"addr": "127.0.0.1:9001", "self": true, "fresh": true, "age_s": 0.0,
                     "sessions": 2, "queue_depth": 4, "evaluations": 50, "reports": 48,
                     "quota_refusals": 1},
                    {"addr": "127.0.0.1:9002", "self": false, "fresh": false, "age_s": 12.5,
                     "sessions": 1, "queue_depth": 0, "evaluations": 20, "reports": 20,
                     "quota_refusals": 0},
                    {"addr": "127.0.0.1:9003", "self": false, "fresh": false,
                     "error": "unreachable"}
                ]
            }"#,
        )
        .unwrap();
        let lines = fleet_lines(&doc);
        let text = lines.join("\n");
        assert!(lines[0].contains("2 peer(s), 1 fresh"), "{text}");
        assert!(text.contains("127.0.0.1:9001"), "{text}");
        assert!(text.contains("12.5"), "stale peer age missing: {text}");
        assert!(text.contains("unreachable"), "{text}");
        assert!(
            text.contains("evals=70 reports=68 sessions=3 refusals=1"),
            "{text}"
        );
        assert!(
            text.contains("tenant acme: evaluations=7 reports=7"),
            "{text}"
        );
    }
}
