//! Per-tenant counters: each tenant's evaluations, reports, session wait
//! and quota refusals are counted on its own stats cell and rendered from
//! the server's tenant registry, as `/metrics`'s `ah_tenant_*_total`
//! families and `/status`'s `tenant_metrics` map, only while the server's
//! telemetry is enabled. The first 64 tenants a server saw keep their
//! labels; later ones are summed into one `__overflow__` row.

use ah_core::param::Param;
use ah_core::server::observe::http_get;
use ah_core::server::protocol::StrategyKind;
use ah_core::server::{HarmonyServer, ServerConfig};
use ah_core::session::SessionOptions;
use ah_core::telemetry::{validate_exposition, Telemetry};
use serde_json::Value;

/// Found a session of `tenant` and run it to `evals` fresh evaluations
/// through serial fetch/report. Returns the reports it sent.
fn tune(server: &HarmonyServer, tenant: &str, evals: usize) -> u64 {
    let client = server.connect_as("tenant-metrics", tenant).unwrap();
    client.add_param(Param::int("x", 0, 1_000_000, 1)).unwrap();
    let options = SessionOptions {
        max_evaluations: evals,
        seed: 11,
        ..Default::default()
    };
    client.seal(options, StrategyKind::Random).unwrap();
    let mut reports = 0;
    while !client.fetch().unwrap().finished {
        client.report(1.0 + reports as f64).unwrap();
        reports += 1;
    }
    client.leave().unwrap();
    reports
}

fn enabled_server(config: ServerConfig) -> HarmonyServer {
    HarmonyServer::start_with_config(ServerConfig {
        telemetry: Telemetry::enabled(),
        ..config
    })
}

/// `/metrics` and `/status` of `server`, read over its observe plane.
fn scrape(server: &HarmonyServer) -> (String, Value) {
    let observe = server.observe("127.0.0.1:0").unwrap();
    let addr = observe.addr().to_string();
    let (code, metrics) = http_get(&addr, "/metrics").unwrap();
    assert_eq!(code, 200);
    let (code, status) = http_get(&addr, "/status").unwrap();
    assert_eq!(code, 200);
    validate_exposition(&metrics).expect("exposition validates");
    (metrics, serde_json::parse(&status).unwrap())
}

/// The `(tenant, value)` samples of `ah_tenant_<metric>_total`, in order.
fn family(metrics: &str, metric: &str) -> Vec<(String, u64)> {
    let prefix = format!("ah_tenant_{metric}_total{{tenant=\"");
    metrics
        .lines()
        .filter_map(|line| line.strip_prefix(&prefix))
        .map(|rest| {
            let (tenant, value) = rest.split_once("\"} ").unwrap();
            (tenant.to_string(), value.parse().unwrap())
        })
        .collect()
}

/// One tenant's counters in `/status`'s `tenant_metrics`.
fn status_row(status: &Value, tenant: &str, metric: &str) -> Option<u64> {
    status
        .get("tenant_metrics")?
        .get(tenant)?
        .get(metric)?
        .as_u64()
}

#[test]
fn two_tenants_are_counted_apart_in_metrics_and_status() {
    let server = enabled_server(ServerConfig {
        tenant_max_sessions: Some(1),
        ..Default::default()
    });
    assert_eq!(tune(&server, "acme", 5), 5);
    assert_eq!(tune(&server, "globex", 3), 3);
    // globex's session is gone, so it may found one more; the one after
    // that is over its cap while this one is open.
    let open = server.connect_as("tenant-metrics", "globex").unwrap();
    assert!(server.connect_as("tenant-metrics", "globex").is_err());
    let (metrics, status) = scrape(&server);
    let expect = [
        ("evaluations", [5, 3]),
        ("reports", [5, 3]),
        ("quota_refusals", [0, 1]),
    ];
    for (metric, [acme, globex]) in expect {
        assert_eq!(
            family(&metrics, metric),
            [("acme".to_string(), acme), ("globex".to_string(), globex)],
            "{metric}:\n{metrics}"
        );
        assert_eq!(
            status_row(&status, "acme", metric),
            Some(acme),
            "{status:?}"
        );
        assert_eq!(status_row(&status, "globex", metric), Some(globex));
    }
    let waits = family(&metrics, "session_wait_us");
    assert_eq!(waits.len(), 2, "{metrics}");
    for (tenant, wait) in waits {
        assert_eq!(status_row(&status, &tenant, "session_wait_us"), Some(wait));
    }
    drop(open);
}

#[test]
fn a_server_without_telemetry_renders_no_tenant_family() {
    let server = HarmonyServer::start();
    assert_eq!(tune(&server, "acme", 4), 4);
    let (metrics, status) = scrape(&server);
    assert!(!metrics.contains("ah_tenant_"), "{metrics}");
    assert_eq!(status["tenant_metrics"].as_object(), Some(&[][..]));
    // The holdings are there all the same.
    let tenants = status["tenants"].as_array().unwrap();
    assert_eq!(tenants[0]["tenant"].as_str(), Some("acme"), "{status:?}");
}

#[test]
fn seventy_tenants_fold_past_the_first_sixty_four_in_arrival_order() {
    let server = enabled_server(ServerConfig::default());
    // Arrival order is not name order: tenant i is named `t<(i · 37) % 70>`.
    let arrivals: Vec<String> = (0..70).map(|i| format!("t{}", i * 37 % 70)).collect();
    let mut total = 0;
    for (i, tenant) in arrivals.iter().enumerate() {
        total += tune(&server, tenant, 1 + i % 3);
    }
    let (metrics, status) = scrape(&server);
    let rows = family(&metrics, "evaluations");
    let labels: Vec<&str> = rows.iter().map(|(t, _)| t.as_str()).collect();
    let mut expect: Vec<&str> = arrivals[..64].iter().map(String::as_str).collect();
    expect.push("__overflow__");
    assert_eq!(labels, expect);
    for (i, (tenant, evaluations)) in rows[..64].iter().enumerate() {
        assert_eq!(*evaluations, 1 + i as u64 % 3, "{tenant}");
    }
    let folded: u64 = (64..70).map(|i| 1 + i % 3).sum();
    assert_eq!(rows[64].1, folded);
    assert_eq!(rows.iter().map(|(_, v)| v).sum::<u64>(), total);
    let map = status["tenant_metrics"].as_object().unwrap();
    let status_labels: Vec<&str> = map.iter().map(|(t, _)| t.as_str()).collect();
    assert_eq!(status_labels, expect);
    assert_eq!(status_row(&status, "__overflow__", "reports"), Some(folded));
}

#[test]
fn sessions_of_one_tenant_reporting_at_once_count_exactly() {
    const SESSIONS: usize = 8;
    const EVALS: usize = 60;
    let server = enabled_server(ServerConfig::default());
    let sent: u64 = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..SESSIONS)
            .map(|_| scope.spawn(|| tune(&server, "swarm", EVALS)))
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).sum()
    });
    assert_eq!(sent, (SESSIONS * EVALS) as u64);
    let (metrics, status) = scrape(&server);
    for metric in ["evaluations", "reports"] {
        assert_eq!(family(&metrics, metric), [("swarm".to_string(), sent)]);
        assert_eq!(status_row(&status, "swarm", metric), Some(sent));
    }
}
