//! `/fleet` cross-server aggregation: two federated servers, each driven
//! by its own tenant, must show up in one `/fleet` view with per-peer
//! evaluation counters, merged per-tenant series, and graceful staleness
//! when a peer goes away. Building `/fleet` waits on no event loop: servers
//! that ask for each other's `/fleet` at once, or list their own observe
//! address, see every peer fresh.

use ah_core::param::Param;
use ah_core::server::observe::http_get;
use ah_core::server::protocol::{StrategyKind, TrialReport};
use ah_core::server::tcp::{TcpClientOptions, TcpHarmonyClient};
use ah_core::server::{ObserveHandle, ServerConfig, TcpHarmonyServer};
use ah_core::session::SessionOptions;
use ah_core::store::SharedStore;
use ah_core::telemetry::Telemetry;
use serde_json::Value;
use std::time::{Duration, Instant};

const EVALS: usize = 12;

fn spawn_server(
    store: &std::path::Path,
    sync_peers: Vec<String>,
) -> (TcpHarmonyServer, ObserveHandle, String) {
    spawn_server_at(store, sync_peers, "127.0.0.1:0")
}

fn spawn_server_at(
    store: &std::path::Path,
    sync_peers: Vec<String>,
    observe_addr: &str,
) -> (TcpHarmonyServer, ObserveHandle, String) {
    let telemetry = Telemetry::enabled();
    let shared = SharedStore::open_with(store, telemetry.clone()).unwrap();
    let server = TcpHarmonyServer::bind_with(
        "127.0.0.1:0",
        64,
        ServerConfig {
            telemetry,
            store: Some(shared),
            sync_peers,
            sync_interval: Duration::from_millis(100),
            ..Default::default()
        },
    )
    .unwrap();
    let observe = server.observe(observe_addr).unwrap();
    let addr = observe.addr().to_string();
    (server, observe, addr)
}

fn drive_campaign(server: &TcpHarmonyServer, app: &str, tenant: &str) {
    let opts = TcpClientOptions {
        tenant: tenant.to_string(),
        ..Default::default()
    };
    let mut client = TcpHarmonyClient::connect_with(server.local_addr(), app, opts).unwrap();
    client.add_param(Param::int("x", 0, 1000, 1)).unwrap();
    client
        .seal(
            SessionOptions {
                max_evaluations: EVALS,
                max_cached_replays: EVALS,
                seed: 7,
                ..Default::default()
            },
            StrategyKind::Random,
        )
        .unwrap();
    let mut done = 0usize;
    while done < EVALS {
        let (trials, finished) = client.fetch_batch(4).unwrap();
        if finished {
            break;
        }
        let reports: Vec<TrialReport> = trials
            .iter()
            .map(|t| TrialReport {
                iteration: t.iteration,
                cost: t.config.int("x").unwrap() as f64,
                wall_time: 0.0,
            })
            .collect();
        done += reports.len();
        client.report_batch(reports).unwrap();
    }
    client.close();
}

fn fleet_doc(addr: &str) -> Value {
    let (code, body) = http_get(addr, "/fleet").expect("fleet reachable");
    assert_eq!(code, 200, "{body}");
    serde_json::parse(&body).expect("fleet is JSON")
}

#[test]
fn fleet_aggregates_two_federated_servers() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let store_a = dir.join(format!("ah-fleet-a-{pid}.store"));
    let store_b = dir.join(format!("ah-fleet-b-{pid}.store"));
    let _ = std::fs::remove_file(&store_a);
    let _ = std::fs::remove_file(&store_b);

    let (server_b, observe_b, addr_b) = spawn_server(&store_b, Vec::new());
    let (server_a, observe_a, addr_a) = spawn_server(&store_a, vec![addr_b.clone()]);

    drive_campaign(&server_a, "fleet-app-a", "acme");
    drive_campaign(&server_b, "fleet-app-b", "globex");

    let doc = fleet_doc(&addr_a);
    assert_eq!(doc.get("peers").and_then(Value::as_u64), Some(2), "{doc:?}");
    assert_eq!(doc.get("fresh").and_then(Value::as_u64), Some(2), "{doc:?}");

    // Both peers report their own evaluation counters.
    let rows = doc.get("rows").and_then(Value::as_array).unwrap();
    assert_eq!(rows.len(), 2);
    for row in rows {
        let evals = row.get("evaluations").and_then(Value::as_u64).unwrap();
        assert_eq!(
            evals as usize,
            EVALS,
            "row {:?}",
            row.get("addr").and_then(Value::as_str)
        );
    }
    let self_rows = rows
        .iter()
        .filter(|r| r.get("self").and_then(Value::as_bool) == Some(true))
        .count();
    assert_eq!(self_rows, 1, "exactly one row is the answering server");

    // Totals sum across the fleet; tenants merge across peers.
    let totals = doc.get("totals").unwrap();
    assert_eq!(
        totals.get("evaluations").and_then(Value::as_u64),
        Some(2 * EVALS as u64)
    );
    let tenants = doc.get("tenants").unwrap();
    for tenant in ["acme", "globex"] {
        let evals = tenants
            .get(tenant)
            .and_then(|t| t.get("evaluations"))
            .and_then(Value::as_u64);
        assert_eq!(evals, Some(EVALS as u64), "tenant {tenant}: {tenants:?}");
    }

    // The per-tenant series are also on each server's own exposition.
    let (code, metrics) = http_get(&addr_a, "/metrics").unwrap();
    assert_eq!(code, 200);
    assert!(
        metrics.contains("ah_tenant_evaluations_total{tenant=\"acme\"}"),
        "{metrics}"
    );

    // Peer loss degrades to a stale cached row, not a blank: take B's
    // observe plane down and the next /fleet still carries its last-known
    // counters, marked stale with an age.
    observe_b.stop();
    server_b.shutdown();
    let doc = fleet_doc(&addr_a);
    assert_eq!(doc.get("fresh").and_then(Value::as_u64), Some(1), "{doc:?}");
    let rows = doc.get("rows").and_then(Value::as_array).unwrap();
    let stale = rows
        .iter()
        .find(|r| r.get("addr").and_then(Value::as_str) == Some(addr_b.as_str()))
        .unwrap_or_else(|| panic!("no row for {addr_b}: {doc:?}"));
    assert_eq!(stale.get("fresh").and_then(Value::as_bool), Some(false));
    assert_eq!(
        stale.get("evaluations").and_then(Value::as_u64),
        Some(EVALS as u64),
        "stale row must keep last-known counters: {stale:?}"
    );
    assert!(
        stale.get("age_s").and_then(Value::as_f64).is_some(),
        "{stale:?}"
    );

    observe_a.stop();
    server_a.shutdown();
    let _ = std::fs::remove_file(&store_a);
    let _ = std::fs::remove_file(&store_b);
}

/// A peer that was never reachable gets an explicit error row instead of
/// poisoning the whole aggregation.
#[test]
fn fleet_marks_never_seen_peers_unreachable() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let store_a = dir.join(format!("ah-fleet-stale-a-{pid}.store"));
    let store_b = dir.join(format!("ah-fleet-stale-b-{pid}.store"));
    let _ = std::fs::remove_file(&store_a);
    let _ = std::fs::remove_file(&store_b);

    // B is real; a third peer address is never bound at all.
    let (server_b, observe_b, addr_b) = spawn_server(&store_b, Vec::new());
    drive_campaign(&server_b, "stale-app", "initech");
    let (server_a, observe_a, addr_a) =
        spawn_server(&store_a, vec![addr_b.clone(), "127.0.0.1:1".to_string()]);

    let doc = fleet_doc(&addr_a);
    let rows = doc.get("rows").and_then(Value::as_array).unwrap();
    assert_eq!(rows.len(), 3, "{doc:?}");
    let row_of = |addr: &str| {
        rows.iter()
            .find(|r| r.get("addr").and_then(Value::as_str) == Some(addr))
            .unwrap_or_else(|| panic!("no row for {addr}: {doc:?}"))
    };
    // The live peer is fresh with its counters and tenant slice.
    let live = row_of(&addr_b);
    assert_eq!(live.get("fresh").and_then(Value::as_bool), Some(true));
    assert_eq!(
        live.get("evaluations").and_then(Value::as_u64),
        Some(EVALS as u64)
    );
    // The never-reachable peer carries an explicit error and no counters.
    let dead = row_of("127.0.0.1:1");
    assert_eq!(dead.get("fresh").and_then(Value::as_bool), Some(false));
    assert!(dead.get("error").is_some(), "{dead:?}");
    // Only live rows count toward freshness (self + B).
    assert_eq!(doc.get("fresh").and_then(Value::as_u64), Some(2));
    // The merged tenant view still carries the reachable peer's slice.
    let evals = doc
        .get("tenants")
        .and_then(|t| t.get("initech"))
        .and_then(|t| t.get("evaluations"))
        .and_then(Value::as_u64);
    assert_eq!(evals, Some(EVALS as u64), "{doc:?}");

    observe_b.stop();
    server_b.shutdown();
    observe_a.stop();
    server_a.shutdown();
    let _ = std::fs::remove_file(&store_a);
    let _ = std::fs::remove_file(&store_b);
}

/// `/fleet` reads its peers off the loop: A and B list each other, B lists
/// itself too, and both are asked for `/fleet` at once. Had either loop
/// blocked in its fan-out, the other's `/status` request (or B's own)
/// would wait out the 2 s read timeout and report that peer stale.
#[test]
fn fleets_of_servers_that_ask_each_other_at_once_are_fresh() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let store_a = dir.join(format!("ah-fleet-mutual-a-{pid}.store"));
    let store_b = dir.join(format!("ah-fleet-mutual-b-{pid}.store"));
    let _ = std::fs::remove_file(&store_a);
    let _ = std::fs::remove_file(&store_b);

    // Reserve two observe ports, so that each server can name the other.
    let reserved = [(); 2].map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap());
    let [addr_a, addr_b] = reserved
        .each_ref()
        .map(|l| l.local_addr().unwrap().to_string());
    drop(reserved);
    let (server_a, observe_a, _) = spawn_server_at(&store_a, vec![addr_b.clone()], &addr_a);
    let (server_b, observe_b, _) =
        spawn_server_at(&store_b, vec![addr_a.clone(), addr_b.clone()], &addr_b);

    std::thread::scope(|s| {
        let asks = [(&addr_a, 2), (&addr_b, 3)].map(|(addr, peers)| {
            s.spawn(move || {
                let started = Instant::now();
                let doc = fleet_doc(addr);
                (addr, peers, started.elapsed(), doc)
            })
        });
        for ask in asks {
            let (addr, peers, took, doc) = ask.join().unwrap();
            assert!(
                took < Duration::from_secs(1),
                "{addr}: /fleet took {took:?}"
            );
            assert_eq!(
                doc.get("peers").and_then(Value::as_u64),
                Some(peers),
                "{doc:?}"
            );
            assert_eq!(
                doc.get("fresh").and_then(Value::as_u64),
                Some(peers),
                "{doc:?}"
            );
        }
    });

    observe_b.stop();
    server_b.shutdown();
    observe_a.stop();
    server_a.shutdown();
    let _ = std::fs::remove_file(&store_a);
    let _ = std::fs::remove_file(&store_b);
}
