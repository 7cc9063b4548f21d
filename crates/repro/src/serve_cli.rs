//! `repro serve`: a long-running federated tuning server.
//!
//! ```text
//! repro serve --store PATH [--listen ADDR] [--observe ADDR]
//!             [--sync-peer ADDR[,ADDR...]] [--sync-interval-ms N]
//!             [--tenant-max-sessions N]
//!             [--tenant-max-inflight N] [--run-for-ms N]
//!             [--slo RULE]... [--sample-interval-ms N]
//! ```
//!
//! Boots a TCP Harmony server backed by `--store` with the observer HTTP
//! plane up, prints both bound addresses on stdout (one `listen ADDR` /
//! `observe ADDR` line each, so scripts can scrape the OS-assigned
//! ports), then parks until killed. Each `--sync-peer` names another
//! server's *observe* address; every `--sync-interval-ms` the server pulls
//! its `/store/log` — the peer's log file's bytes from the byte mark the
//! last pull reached — and merges the records, which is how a second
//! server warm-starts campaigns it never measured. The store is flushed on
//! a short idle cadence so a `kill` loses at most the last tick.
//!
//! The server snapshots every telemetry counter, gauge, and histogram into
//! a bounded time-series ring once per `--sample-interval-ms`, beside the
//! pulls on its one chores thread. The ring feeds `/metrics/history`
//! (windowed deltas and rates) and `/healthz`, whose SLO rules come from
//! repeated `--slo "metric op threshold[@window_s]"` flags (a built-in
//! default rule set is used when none are given).

use ah_core::server::{ServerConfig, TcpHarmonyServer};
use ah_core::store::SharedStore;
use ah_core::telemetry::slo::{self, SloRule};
use ah_core::telemetry::timeseries::TimeSeries;
use ah_core::telemetry::Telemetry;
use std::path::PathBuf;
use std::time::Duration;

/// Settings for one `repro serve` process.
pub struct ServeConfig {
    /// Performance database backing the server.
    pub store: PathBuf,
    /// TCP listen address for tuning clients (`0` port picks free).
    pub listen: String,
    /// HTTP observe address (`/metrics`, `/status`, `/store/log`).
    pub observe: String,
    /// Peer observe addresses to pull `/store/log` from.
    pub sync_peers: Vec<String>,
    /// Anti-entropy pull period (zero = server default).
    pub sync_interval: Duration,
    /// Per-tenant concurrent session cap.
    pub tenant_max_sessions: Option<usize>,
    /// Per-tenant in-flight trial cap.
    pub tenant_max_inflight: Option<usize>,
    /// Exit cleanly after this long (zero = run until killed); gives
    /// scripted harnesses a bounded lifetime without signal plumbing.
    pub run_for: Duration,
    /// SLO rule specs for `/healthz` (empty = built-in default rules).
    pub slo_rules: Vec<String>,
    /// Time-series sampler period (zero = default one second).
    pub sample_interval: Duration,
}

/// Parse `--slo` rule specs, exiting with a message on a bad spec.
fn parse_slo_rules(specs: &[String]) -> Result<Vec<SloRule>, String> {
    if specs.is_empty() {
        return Ok(slo::default_rules());
    }
    slo::parse_rules(specs)
}

/// Run the server; returns the process exit code.
pub fn run(cfg: &ServeConfig) -> i32 {
    let slo_rules = match parse_slo_rules(&cfg.slo_rules) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bad --slo rule: {e}");
            return 2;
        }
    };
    let telemetry = Telemetry::enabled();
    let store = match SharedStore::open_with(&cfg.store, telemetry.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open store {}: {e}", cfg.store.display());
            return 2;
        }
    };
    let server = match TcpHarmonyServer::bind_with(
        &cfg.listen,
        ah_core::server::tcp::DEFAULT_MAX_CONNECTIONS,
        ServerConfig {
            telemetry: telemetry.clone(),
            store: Some(store.clone()),
            sync_peers: cfg.sync_peers.clone(),
            sync_interval: cfg.sync_interval,
            tenant_max_sessions: cfg.tenant_max_sessions,
            tenant_max_inflight: cfg.tenant_max_inflight,
            timeseries: Some(TimeSeries::new(telemetry.clone())),
            sample_interval: cfg.sample_interval,
            slo_rules,
            ..Default::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", cfg.listen);
            return 2;
        }
    };
    let observe = match server.observe(&cfg.observe) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind observe {}: {e}", cfg.observe);
            return 2;
        }
    };
    // Machine-scrapable address lines: harness scripts read these to learn
    // the OS-assigned ports.
    println!("listen {}", server.local_addr());
    println!("observe {}", observe.addr());
    use std::io::Write;
    std::io::stdout().flush().ok();
    eprintln!(
        "serving store {} ({} sync peer(s))",
        cfg.store.display(),
        cfg.sync_peers.len()
    );

    let started = std::time::Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(200));
        // Durability cadence: push appended records to disk so a plain
        // kill loses at most the records of the last tick.
        let _ = store.flush();
        if !cfg.run_for.is_zero() && started.elapsed() >= cfg.run_for {
            break;
        }
    }
    observe.stop();
    server.shutdown();
    let _ = store.flush();
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_core::server::observe::http_get;
    use ah_core::server::tcp::{TcpClientOptions, TcpHarmonyClient};

    #[test]
    fn serve_prints_addresses_and_answers_clients() {
        let dir = std::env::temp_dir();
        let store = dir.join(format!("ah-serve-cli-{}.store", std::process::id()));
        let _ = std::fs::remove_file(&store);
        // Bind in-process on free ports, then poke both planes.
        let telemetry = Telemetry::enabled();
        let shared = SharedStore::open_with(&store, telemetry.clone()).unwrap();
        let server = TcpHarmonyServer::bind_with(
            "127.0.0.1:0",
            16,
            ServerConfig {
                telemetry,
                store: Some(shared.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let observe = server.observe("127.0.0.1:0").unwrap();
        let mut client = TcpHarmonyClient::connect_with(
            server.local_addr(),
            "serve-test",
            TcpClientOptions::default(),
        )
        .unwrap();
        client.leave().unwrap();
        let (code, body) = http_get(&observe.addr().to_string(), "/status").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("tenants"), "{body}");
        observe.stop();
        server.shutdown();
        let _ = std::fs::remove_file(&store);
    }

    #[test]
    fn slo_specs_default_and_reject_garbage() {
        assert_eq!(parse_slo_rules(&[]).unwrap(), slo::default_rules());
        let custom = parse_slo_rules(&["open_spans<5@10".to_string()]).unwrap();
        assert_eq!(custom.len(), 1);
        assert_eq!(custom[0].metric, "open_spans");
        assert!(parse_slo_rules(&["no operator here".to_string()]).is_err());
    }
}
