//! `repro bench-server`: throughput of the Harmony tuning server.
//!
//! Drives C concurrent clients for I evaluations each against the
//! in-process server (serial fetch/report vs batched
//! `fetch_batch`/`report_batch`, each an `Exchange`) and against the TCP
//! transport, then reports
//! ops/sec and per-evaluation latency percentiles. The figures quantify the
//! two server-side choices of this codebase's "tuning at scale" layer:
//! every session is its own lock, so concurrent clients do not serialize
//! behind one another, and batch messages amortize one round-trip over a
//! whole PRO round of candidates.

use crate::swarm::{IndependentScript, Swarm, SwarmScript};
use ah_core::param::Param;
use ah_core::server::observe::http_get;
use ah_core::server::protocol::{StrategyKind, TrialReport};
use ah_core::server::tcp::{TcpClientOptions, TcpTransport, DEFAULT_MAX_CONNECTIONS};
use ah_core::server::{
    EventLoopConfig, HarmonyServer, ObserveHandle, ServerConfig, TcpHarmonyClient, TcpHarmonyServer,
};
use ah_core::session::SessionOptions;
use ah_core::store::SharedStore;
use ah_core::telemetry::timeseries::TimeSeries;
use ah_core::telemetry::Telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How many trials a batched client asks for per round-trip.
pub const BATCH: usize = 16;

/// Process-global nonce so every scenario gets fresh application labels.
/// The throughput scenarios run unbounded sessions; re-using a label
/// against a warm store would turn them into infinite server-side serve
/// loops instead of benchmarks, so each run tunes apps nobody has seen.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

fn run_nonce() -> u64 {
    RUN_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Knobs of one `bench-server` run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Evaluations per client.
    pub iters: usize,
    /// Run every scenario with an *enabled* telemetry handle on server and
    /// clients. The regression gate run with this on proves observation is
    /// overhead-neutral: the same tolerance that catches real throughput
    /// collapses must not fire merely because recording was turned on.
    pub telemetry: bool,
    /// Attach a performance store at this path to every scenario's server.
    /// The gate run with this on proves store-enabled serving (cold-path
    /// inserts + fsync cadence) stays inside the same regression tolerance,
    /// and enables the warm-vs-cold cache demo section of the report.
    pub store: Option<std::path::PathBuf>,
    /// Serve the observability plane (`/metrics`, `/status`) on this
    /// address while each scenario runs. The gate run with this on proves
    /// the endpoint stays off the hot path: the same tolerance that
    /// catches real regressions must not fire with an observer attached.
    /// Scenarios run sequentially, so one fixed address works for all.
    pub observe: Option<String>,
    /// Simultaneous nonblocking clients of the high-concurrency
    /// `tcp/swarm` scenario (each tunes its own session through the
    /// readiness event loop; see [`crate::swarm`]).
    pub swarm_clients: usize,
    /// Evaluations per swarm client.
    pub swarm_iters: usize,
    /// Event-loop threads of the TCP scenarios' servers (`0` = auto).
    pub loop_threads: usize,
    /// Run the multi-tenant fair-dispatch scenario with this many tenants
    /// (`0` = skip it). Each tenant drives its own session over TCP under
    /// its own tenant id; no tenant's request waits behind another's
    /// session, and the event loop serves one request per connection per
    /// pass. The report records overall throughput plus per-tenant p99
    /// fetch latency. Like the swarm, the scenario is recorded but exempt
    /// from the relative gate (its shape depends on the tenant count, not
    /// on regressions).
    pub tenants: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            clients: 16,
            iters: 200,
            telemetry: false,
            store: None,
            observe: None,
            swarm_clients: 1000,
            swarm_iters: 8,
            loop_threads: 0,
            tenants: 0,
        }
    }
}

impl BenchConfig {
    /// Shrunken workload for CI regression gates: large enough to expose a
    /// real throughput collapse, small enough to finish in seconds.
    ///
    /// Keeps the *same client count* as the full run and shrinks only the
    /// per-client iteration count: the TCP scenarios' relative throughput
    /// depends on how many connections amortize each readiness-loop
    /// iteration, so gate runs must match the committed baseline's
    /// concurrency shape to compare like for like. (The swarm scenario
    /// does scale its client count down, which is why it is exempt from
    /// the relative gate.)
    pub fn quick() -> Self {
        BenchConfig {
            clients: 16,
            iters: 60,
            telemetry: false,
            store: None,
            observe: None,
            swarm_clients: 200,
            swarm_iters: 4,
            loop_threads: 0,
            tenants: 0,
        }
    }

    fn event_loop_transport(&self) -> TcpTransport {
        TcpTransport::EventLoop(EventLoopConfig {
            loop_threads: self.loop_threads,
            ..Default::default()
        })
    }

    fn server_telemetry(&self) -> Telemetry {
        if self.telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }

    /// A scenario server's configuration; an observed run's server samples a
    /// time-series every 100 ms, inside the regression gate's tolerance.
    fn server_config(&self, store: Option<&SharedStore>) -> ServerConfig {
        let (telemetry, observed) = (self.server_telemetry(), self.observe.is_some());
        ServerConfig {
            timeseries: observed.then(|| TimeSeries::new(telemetry.clone())),
            sample_interval: Duration::from_millis(100),
            telemetry,
            store: store.cloned(),
            ..Default::default()
        }
    }
}

/// Attach the observability endpoint to a scenario's server when the run
/// asks for one.
fn observer_for(
    cfg: &BenchConfig,
    observe: impl FnOnce(&str) -> std::io::Result<ObserveHandle>,
) -> Option<ObserveHandle> {
    cfg.observe.as_deref().map(|addr| {
        let handle = observe(addr).expect("bind bench observer");
        eprintln!("bench-server: observing on http://{}", handle.addr());
        handle
    })
}

/// Check that a scenario's observer serves the server's sampled series,
/// then stop it.
fn stop_observer(observer: Option<ObserveHandle>) {
    let Some(handle) = observer else { return };
    let addr = handle.addr().to_string();
    let (code, body) = http_get(&addr, "/metrics/history").expect("GET /metrics/history");
    assert_eq!(code, 200, "an observed scenario serves its series: {body}");
    handle.stop();
}

/// Measured outcome of one scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label, e.g. `"inproc/serial"`.
    pub name: String,
    /// Evaluations completed across all clients.
    pub total_evals: usize,
    /// Evaluations per wall-clock second, all clients together.
    pub ops_per_sec: f64,
    /// Median per-evaluation latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-evaluation latency in microseconds.
    pub p99_us: f64,
}

fn session_options(seed: u64) -> SessionOptions {
    SessionOptions {
        // Effectively unbounded: the driver stops at `iters`, and neither
        // the budget nor replay-convergence should end the session first.
        max_evaluations: usize::MAX / 4,
        max_cached_replays: usize::MAX / 4,
        seed,
        ..Default::default()
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn summarize(name: String, mut latencies_us: Vec<f64>, wall_secs: f64) -> Scenario {
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let total = latencies_us.len();
    Scenario {
        name,
        total_evals: total,
        ops_per_sec: total as f64 / wall_secs.max(1e-9),
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
    }
}

/// One client's timed loop: its per-evaluation latencies (µs) and when it
/// ran, clocked on the client's own thread from the moment it left the
/// start barrier. A coordinating thread cannot clock the window: it leaves
/// the barrier whenever the scheduler gets to it, and clients whose
/// requests are served without blocking (an idle in-process session) can be
/// done by then.
struct Timed {
    started: Instant,
    finished: Instant,
    latencies_us: Vec<f64>,
}

/// A scenario's wall time (first client started to last client finished)
/// and its clients' latencies.
fn collect(runs: Vec<Timed>) -> (Vec<Vec<f64>>, f64) {
    let started = runs.iter().map(|r| r.started).min();
    let finished = runs.iter().map(|r| r.finished).max();
    let wall_secs = match (started, finished) {
        (Some(s), Some(f)) => f.duration_since(s).as_secs_f64(),
        _ => 0.0,
    };
    (
        runs.into_iter().map(|r| r.latencies_us).collect(),
        wall_secs,
    )
}

/// One client's serial tuning loop; returns per-evaluation latencies (µs).
fn drive_serial(client: &ah_core::server::HarmonyClient, iters: usize) -> Vec<f64> {
    let mut lat = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let fetched = client.fetch().expect("fetch");
        assert!(!fetched.finished, "bench session must not finish");
        let cost = fetched.config.int("x").expect("x") as f64;
        client.report_timed(cost, 0.0).expect("report");
        lat.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    lat
}

/// One client's batched tuning loop; per-evaluation latency is the batch
/// round-trip split evenly over its trials.
fn drive_batched(client: &ah_core::server::HarmonyClient, iters: usize) -> Vec<f64> {
    let mut lat = Vec::with_capacity(iters);
    let mut done = 0usize;
    while done < iters {
        let want = BATCH.min(iters - done);
        let t0 = Instant::now();
        let (trials, finished) = client.fetch_batch(want).expect("fetch_batch");
        assert!(
            !finished && !trials.is_empty(),
            "bench session must not finish"
        );
        let reports: Vec<TrialReport> = trials
            .iter()
            .map(|t| TrialReport {
                iteration: t.iteration,
                cost: t.config.int("x").expect("x") as f64,
                wall_time: 0.0,
            })
            .collect();
        let n = reports.len();
        client.report_batch(reports).expect("report_batch");
        let per_eval = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
        lat.extend(std::iter::repeat_n(per_eval, n));
        done += n;
    }
    lat
}

fn run_inproc(cfg: &BenchConfig, batched: bool, store: Option<&SharedStore>) -> Scenario {
    let nonce = run_nonce();
    let server = HarmonyServer::start_with_config(cfg.server_config(store));
    let observer = observer_for(cfg, |addr| server.observe(addr));
    let barrier = Barrier::new(cfg.clients);
    let (latencies, wall_secs) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|i| {
                // Setup (connect/declare/seal) stays outside the timed window.
                let client = server
                    .connect(format!("bench-{nonce}-{i}"))
                    .expect("connect");
                client
                    .add_param(Param::int("x", 0, 1_000_000, 1))
                    .expect("param");
                client
                    .seal(session_options(i as u64 + 1), StrategyKind::Random)
                    .expect("seal");
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let started = Instant::now();
                    let latencies_us = if batched {
                        drive_batched(&client, cfg.iters)
                    } else {
                        drive_serial(&client, cfg.iters)
                    };
                    Timed {
                        started,
                        finished: Instant::now(),
                        latencies_us,
                    }
                })
            })
            .collect();
        collect(
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect(),
        )
    });
    stop_observer(observer);
    server.shutdown();
    let mode = if batched { "batched" } else { "serial" };
    summarize(
        format!("inproc/{mode}"),
        latencies.into_iter().flatten().collect(),
        wall_secs,
    )
}

fn run_tcp(cfg: &BenchConfig, batched: bool, store: Option<&SharedStore>) -> Scenario {
    let nonce = run_nonce();
    let server = TcpHarmonyServer::bind_with_transport(
        "127.0.0.1:0",
        DEFAULT_MAX_CONNECTIONS,
        cfg.server_config(store),
        cfg.event_loop_transport(),
    )
    .expect("bind");
    let observer = observer_for(cfg, |a| server.observe(a));
    let addr = server.local_addr();
    let client_opts = TcpClientOptions {
        telemetry: cfg.server_telemetry(),
        ..Default::default()
    };
    let barrier = Barrier::new(cfg.clients);
    let (latencies, wall_secs) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|i| {
                let barrier = &barrier;
                let opts = client_opts.clone();
                s.spawn(move || {
                    let mut client =
                        TcpHarmonyClient::connect_with(addr, &format!("bench-{nonce}-{i}"), opts)
                            .expect("connect");
                    client
                        .add_param(Param::int("x", 0, 1_000_000, 1))
                        .expect("param");
                    client
                        .seal(session_options(i as u64 + 1), StrategyKind::Random)
                        .expect("seal");
                    barrier.wait();
                    let started = Instant::now();
                    let mut lat = Vec::with_capacity(cfg.iters);
                    let mut done = 0usize;
                    while done < cfg.iters {
                        if batched {
                            let want = BATCH.min(cfg.iters - done);
                            let t0 = Instant::now();
                            let (trials, finished) = client.fetch_batch(want).expect("fetch_batch");
                            assert!(!finished && !trials.is_empty());
                            let reports: Vec<TrialReport> = trials
                                .iter()
                                .map(|t| TrialReport {
                                    iteration: t.iteration,
                                    cost: t.config.int("x").expect("x") as f64,
                                    wall_time: 0.0,
                                })
                                .collect();
                            let n = reports.len();
                            client.report_batch(reports).expect("report_batch");
                            let per_eval = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
                            lat.extend(std::iter::repeat_n(per_eval, n));
                            done += n;
                        } else {
                            let t0 = Instant::now();
                            let (config, finished) = client.fetch().expect("fetch");
                            assert!(!finished);
                            client
                                .report(config.int("x").expect("x") as f64)
                                .expect("report");
                            lat.push(t0.elapsed().as_secs_f64() * 1e6);
                            done += 1;
                        }
                    }
                    let finished = Instant::now();
                    client.close();
                    Timed {
                        started,
                        finished,
                        latencies_us: lat,
                    }
                })
            })
            .collect();
        collect(
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect(),
        )
    });
    stop_observer(observer);
    server.shutdown();
    let mode = if batched { "batched" } else { "serial" };
    summarize(
        format!("tcp/{mode}"),
        latencies.into_iter().flatten().collect(),
        wall_secs,
    )
}

/// High-concurrency scenario: `swarm_clients` simultaneous nonblocking
/// clients, each tuning its own session, multiplexed over the readiness
/// event loop. This is the scale a thread per connection cannot
/// reach — the point is sustaining the concurrency at all; throughput
/// is reported but (being client-count-dependent) excluded from the
/// relative regression gate.
fn run_swarm(cfg: &BenchConfig, store: Option<&SharedStore>) -> Scenario {
    let nonce = run_nonce();
    let server = TcpHarmonyServer::bind_with_transport(
        "127.0.0.1:0",
        DEFAULT_MAX_CONNECTIONS.max(cfg.swarm_clients + 16),
        cfg.server_config(store),
        cfg.event_loop_transport(),
    )
    .expect("bind");
    let observer = observer_for(cfg, |a| server.observe(a));
    let scripts: Vec<IndependentScript> = (0..cfg.swarm_clients)
        .map(|i| {
            IndependentScript::new(
                format!("swarm-{nonce}-{i}"),
                i as u64 + 1,
                cfg.swarm_iters,
                2,
            )
        })
        .collect();
    let driver_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 4);
    let swarm = Swarm::connect(server.local_addr(), scripts, driver_threads).expect("swarm");
    // The sockets are established; wait for the loop threads to adopt them
    // (acceptance is asynchronous) before asserting on the ceiling count.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut connected = server.active_connections();
    while connected < cfg.swarm_clients && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        connected = server.active_connections();
    }
    eprintln!(
        "bench-server: swarm holds {connected} concurrent connections \
         across {driver_threads} driver threads"
    );
    assert!(
        connected >= cfg.swarm_clients,
        "swarm only established {connected}/{} connections",
        cfg.swarm_clients
    );
    let t0 = Instant::now();
    let mut scripts = swarm.drive();
    let wall_secs = t0.elapsed().as_secs_f64();
    stop_observer(observer);
    server.shutdown();
    let latencies: Vec<f64> = scripts
        .iter_mut()
        .flat_map(|s| s.take_latencies())
        .collect();
    summarize("tcp/swarm".to_string(), latencies, wall_secs)
}

/// Multi-tenant fair-dispatch scenario: `cfg.tenants` clients, each under
/// its own tenant id, tune concurrently over TCP. No tenant's request ever
/// waits behind another tenant's session, and the event loop serves one
/// request per connection per pass, so besides the aggregate throughput the interesting number is the
/// *spread* of per-tenant p99 fetch latencies — reported alongside the
/// scenario row. Exempt from the relative gate for the same reason as the
/// swarm: the shape depends on the tenant count the run simulated.
fn run_tenants(cfg: &BenchConfig, store: Option<&SharedStore>) -> (Scenario, serde_json::Value) {
    let nonce = run_nonce();
    let server = TcpHarmonyServer::bind_with_transport(
        "127.0.0.1:0",
        DEFAULT_MAX_CONNECTIONS.max(cfg.tenants + 16),
        cfg.server_config(store),
        cfg.event_loop_transport(),
    )
    .expect("bind");
    let observer = observer_for(cfg, |a| server.observe(a));
    let addr = server.local_addr();
    let barrier = Barrier::new(cfg.tenants);
    let (per_tenant, wall_secs) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.tenants)
            .map(|i| {
                let barrier = &barrier;
                let opts = TcpClientOptions {
                    tenant: format!("tenant-{i}"),
                    telemetry: cfg.server_telemetry(),
                    ..Default::default()
                };
                s.spawn(move || {
                    let mut client =
                        TcpHarmonyClient::connect_with(addr, &format!("tenant-{nonce}-{i}"), opts)
                            .expect("connect");
                    client
                        .add_param(Param::int("x", 0, 1_000_000, 1))
                        .expect("param");
                    client
                        .seal(session_options(i as u64 + 1), StrategyKind::Random)
                        .expect("seal");
                    barrier.wait();
                    let started = Instant::now();
                    let mut lat = Vec::with_capacity(cfg.iters);
                    let mut done = 0usize;
                    while done < cfg.iters {
                        let want = BATCH.min(cfg.iters - done);
                        let t0 = Instant::now();
                        let (trials, finished) = client.fetch_batch(want).expect("fetch_batch");
                        assert!(!finished && !trials.is_empty());
                        let reports: Vec<TrialReport> = trials
                            .iter()
                            .map(|t| TrialReport {
                                iteration: t.iteration,
                                cost: t.config.int("x").expect("x") as f64,
                                wall_time: 0.0,
                            })
                            .collect();
                        let n = reports.len();
                        client.report_batch(reports).expect("report_batch");
                        let per_eval = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
                        lat.extend(std::iter::repeat_n(per_eval, n));
                        done += n;
                    }
                    let finished = Instant::now();
                    client.close();
                    Timed {
                        started,
                        finished,
                        latencies_us: lat,
                    }
                })
            })
            .collect();
        collect(
            handles
                .into_iter()
                .map(|h| h.join().expect("tenant thread"))
                .collect(),
        )
    });
    stop_observer(observer);
    server.shutdown();
    let p99s: Vec<f64> = per_tenant
        .iter()
        .map(|lat| {
            let mut sorted = lat.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            percentile(&sorted, 0.99)
        })
        .collect();
    let worst = p99s.iter().cloned().fold(0.0f64, f64::max);
    let best = p99s.iter().cloned().fold(f64::INFINITY, f64::min);
    let fairness = serde_json::json!({
        "tenants": cfg.tenants,
        "per_tenant_p99_us": p99s,
        "worst_p99_us": worst,
        "best_p99_us": best,
        // Worst-over-best per-tenant p99: 1.0 is perfectly fair dispatch;
        // a starved tenant shows up as a large ratio.
        "p99_spread": if best > 0.0 { worst / best } else { 0.0 },
    });
    let scenario = summarize(
        "tcp/tenants".to_string(),
        per_tenant.into_iter().flatten().collect(),
        wall_secs,
    );
    (scenario, fairness)
}

/// Warm-vs-cold cache demo: one bounded tuning session run twice under the
/// same application label with a deliberately slow (~50µs spin) objective.
/// The cold pass measures everything; the warm pass is answered from the
/// store without the objective ever running, which is the point of the
/// subsystem — serving a hit beats re-measurement by orders of magnitude.
fn store_cache_demo(cfg: &BenchConfig, store: &SharedStore) -> serde_json::Value {
    let evals = cfg.iters;
    let label = format!("store-demo-{}", run_nonce());
    let pass = |tag: &str| -> (f64, usize) {
        let server = HarmonyServer::start_with_config(ServerConfig {
            telemetry: cfg.server_telemetry(),
            store: Some(store.clone()),
            ..Default::default()
        });
        let client = server.connect(label.clone()).expect("connect");
        client
            .add_param(Param::int("x", 0, 1_000_000, 1))
            .expect("param");
        client
            .seal(
                SessionOptions {
                    max_evaluations: evals,
                    seed: 4242,
                    ..Default::default()
                },
                StrategyKind::Random,
            )
            .expect("seal");
        let t0 = Instant::now();
        let mut measured = 0usize;
        loop {
            let (trials, finished) = client.fetch_batch(BATCH).expect("fetch_batch");
            if finished {
                break;
            }
            let reports: Vec<TrialReport> = trials
                .iter()
                .map(|t| {
                    measured += 1;
                    let spin = Instant::now();
                    while spin.elapsed() < Duration::from_micros(50) {}
                    TrialReport {
                        iteration: t.iteration,
                        cost: (t.config.int("x").expect("x") % 1000) as f64,
                        wall_time: 0.0,
                    }
                })
                .collect();
            client.report_batch(reports).expect("report_batch");
        }
        let wall = t0.elapsed().as_secs_f64();
        server.shutdown();
        eprintln!("store demo {tag}: {measured}/{evals} measured in {wall:.3}s");
        (wall, measured)
    };
    let (cold_secs, cold_measured) = pass("cold");
    let (warm_secs, warm_measured) = pass("warm");
    serde_json::json!({
        "evaluations": evals,
        "cold_secs": cold_secs,
        "cold_measured": cold_measured,
        "warm_secs": warm_secs,
        "warm_measured": warm_measured,
        "warm_speedup": cold_secs / warm_secs.max(1e-9),
    })
}

/// Where and on what a report was taken: every recorded number is a
/// number about this host and this commit. The commit is `git describe
/// --always --dirty`, so a report recorded from an uncommitted tree says so.
pub(crate) fn host_block(cores: usize) -> serde_json::Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        });
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").ok();
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).into_owned());
    let or_unknown = |v: Option<String>| v.map_or("unknown".to_string(), |s| s.trim().to_string());
    serde_json::json!({
        "cores": cores,
        "cpu_model": or_unknown(cpu_model),
        "kernel": or_unknown(kernel),
        "commit": or_unknown(commit),
    })
}

/// Run the full scenario matrix and return the machine-readable report.
pub fn run(cfg: &BenchConfig) -> serde_json::Value {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "bench-server: {} clients x {} evaluations, host cores: {host_cores}, telemetry: {}, store: {}",
        cfg.clients,
        cfg.iters,
        if cfg.telemetry { "on" } else { "off" },
        cfg.store
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "off".into()),
    );
    let store = cfg
        .store
        .as_deref()
        .map(|p| SharedStore::open(p).expect("open bench store"));

    let mut scenarios = vec![
        run_inproc(cfg, false, store.as_ref()),
        run_inproc(cfg, true, store.as_ref()),
        run_tcp(cfg, false, store.as_ref()),
        run_tcp(cfg, true, store.as_ref()),
        run_swarm(cfg, store.as_ref()),
    ];
    let fairness = (cfg.tenants > 0).then(|| {
        let (scenario, fairness) = run_tenants(cfg, store.as_ref());
        scenarios.push(scenario);
        fairness
    });

    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "scenario", "ops/sec", "p50 (us)", "p99 (us)"
    );
    for s in &scenarios {
        println!(
            "{:<28} {:>12.0} {:>12.1} {:>12.1}",
            s.name, s.ops_per_sec, s.p50_us, s.p99_us
        );
    }

    let mut report = serde_json::json!({
        "host": host_block(host_cores),
        "clients": cfg.clients,
        "swarm_clients": cfg.swarm_clients,
        "iterations_per_client": cfg.iters,
        "telemetry": cfg.telemetry,
        "batch": BATCH,
        "scenarios": scenarios.iter().map(|s| serde_json::json!({
            "name": s.name.clone(),
            "total_evals": s.total_evals,
            "ops_per_sec": s.ops_per_sec,
            "p50_us": s.p50_us,
            "p99_us": s.p99_us,
        })).collect::<Vec<_>>(),
    });
    if let Some(fairness) = fairness {
        if let serde_json::Value::Object(entries) = &mut report {
            entries.push(("tenants".to_string(), fairness));
        }
    }
    if let Some(store) = &store {
        let demo = store_cache_demo(cfg, store);
        let _ = store.flush();
        if let serde_json::Value::Object(entries) = &mut report {
            entries.push(("store".to_string(), demo));
        }
    }
    report
}

/// Relative throughput of every scenario in a report, normalized to the
/// in-process serial baseline (`inproc/serial`) of the *same* report.
/// Absolute ops/sec vary wildly across CI runners; the ratios are the
/// stable signal (how much batching/TCP costs or buys on this host).
fn relative_throughput(report: &serde_json::Value) -> Option<Vec<(String, f64)>> {
    let scenarios = report.get("scenarios")?.as_array()?;
    let baseline = scenarios.iter().find_map(|s| {
        (s.get("name")?.as_str()? == "inproc/serial").then(|| s.get("ops_per_sec"))?
    })?;
    let baseline = baseline.as_f64().filter(|v| *v > 0.0)?;
    let mut out = Vec::new();
    for s in scenarios {
        let name = s.get("name")?.as_str()?.to_string();
        if name == "tcp/swarm" || name == "tcp/tenants" {
            // The swarm's ratio depends on how many clients it simulated,
            // and full runs (1000) and quick gate runs (200) deliberately
            // differ — comparing the ratios would gate on client count,
            // not on regressions. Its guarantee (sustaining the swarm at
            // all) is asserted inside `run_swarm` instead. The tenants
            // scenario is optional (`--tenants N`) and likewise shaped by
            // its count, so it is recorded but never gated.
            continue;
        }
        let ops = s.get("ops_per_sec")?.as_f64()?;
        out.push((name, ops / baseline));
    }
    Some(out)
}

/// Compare a fresh report against a committed baseline; returns the list
/// of regressions (empty = pass). A scenario regresses when its relative
/// throughput falls more than `tolerance` (a fraction, e.g. `0.25`) below
/// the baseline's relative throughput for the same canonical scenario.
/// Scenarios present on only one side are reported as failures too — a
/// silently vanished scenario must not read as "no regression".
pub fn check_regression(
    current: &serde_json::Value,
    baseline: &serde_json::Value,
    tolerance: f64,
) -> Vec<String> {
    let Some(cur) = relative_throughput(current) else {
        return vec!["current report is malformed (no scenarios/baseline ops)".into()];
    };
    let Some(base) = relative_throughput(baseline) else {
        return vec!["baseline report is malformed (no scenarios/baseline ops)".into()];
    };
    let mut failures = Vec::new();
    println!(
        "{:<28} {:>10} {:>10} {:>9}",
        "scenario (vs inproc/serial)", "baseline", "current", "change"
    );
    for (name, base_ratio) in &base {
        let Some((_, cur_ratio)) = cur.iter().find(|(n, _)| n == name) else {
            failures.push(format!("scenario `{name}` missing from current run"));
            continue;
        };
        let change = cur_ratio / base_ratio - 1.0;
        println!(
            "{name:<28} {base_ratio:>9.2}x {cur_ratio:>9.2}x {change:>+8.1}%",
            change = change * 100.0
        );
        if *cur_ratio < base_ratio * (1.0 - tolerance) {
            failures.push(format!(
                "`{name}` relative throughput {cur_ratio:.2}x is more than \
                 {:.0}% below baseline {base_ratio:.2}x",
                tolerance * 100.0
            ));
        }
    }
    for (name, _) in &cur {
        if !base.iter().any(|(n, _)| n == name) {
            failures.push(format!("scenario `{name}` missing from baseline"));
        }
    }
    failures
}

/// Intersect two attempts' regression failures by scenario: keep the
/// *current* attempt's message for every scenario that also failed in the
/// previous attempts. One-sided noise clears a scenario in some attempt;
/// a genuine regression fails it in all of them, so only scenarios in the
/// intersection are verdicts.
pub fn intersect_failures(previous: &[String], current: &[String]) -> Vec<String> {
    fn scenario_key(msg: &str) -> &str {
        // check_regression quotes the scenario name in backticks; messages
        // without one (e.g. "malformed report") are keyed by full text.
        msg.split('`').nth(1).unwrap_or(msg)
    }
    current
        .iter()
        .filter(|cur| {
            previous
                .iter()
                .any(|prev| scenario_key(prev) == scenario_key(cur))
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_bench_produces_sane_numbers() {
        let cfg = BenchConfig {
            clients: 3,
            iters: 20,
            telemetry: true,
            store: None,
            // Exercise the observer across every scenario: each run binds,
            // serves, and tears down the endpoint without skewing numbers.
            observe: Some("127.0.0.1:0".into()),
            swarm_clients: 24,
            swarm_iters: 4,
            loop_threads: 2,
            tenants: 0,
        };
        let report = run(&cfg);
        assert_eq!(report["clients"].as_u64(), Some(3));
        for key in ["cores", "cpu_model", "kernel", "commit"] {
            assert!(report["host"].get(key).is_some(), "host block lacks {key}");
        }
        let scenarios = report["scenarios"].as_array().unwrap();
        assert_eq!(scenarios.len(), 5);
        for s in scenarios {
            let want = if s["name"].as_str() == Some("tcp/swarm") {
                24 * 4
            } else {
                60
            };
            assert_eq!(s["total_evals"].as_u64(), Some(want), "{s:?}");
            assert!(s["ops_per_sec"].as_f64().unwrap() > 0.0);
            assert!(s["p99_us"].as_f64().unwrap() >= s["p50_us"].as_f64().unwrap());
        }
        assert!(report.get("store").is_none());
    }

    #[test]
    fn store_enabled_bench_reports_a_warm_demo() {
        let dir = crate::TempDir::new("bench-store");
        let path = dir.join("bench.store");
        let cfg = BenchConfig {
            clients: 2,
            iters: 25,
            telemetry: false,
            store: Some(path),
            observe: None,
            swarm_clients: 8,
            swarm_iters: 2,
            loop_threads: 0,
            tenants: 0,
        };
        let report = run(&cfg);
        assert_eq!(report["scenarios"].as_array().unwrap().len(), 5);
        let demo = &report["store"];
        assert_eq!(demo["cold_measured"].as_u64(), Some(25));
        // The warm pass is answered from the store: (almost) nothing runs.
        assert!(demo["warm_measured"].as_u64().unwrap() <= 2, "{demo:?}");
        assert!(demo["warm_speedup"].as_f64().unwrap() > 1.0, "{demo:?}");
    }

    #[test]
    fn tenant_scenario_reports_fairness_and_stays_ungated() {
        let cfg = BenchConfig {
            clients: 2,
            iters: 20,
            telemetry: false,
            store: None,
            observe: None,
            swarm_clients: 6,
            swarm_iters: 2,
            loop_threads: 0,
            tenants: 3,
        };
        let report = run(&cfg);
        let scenarios = report["scenarios"].as_array().unwrap();
        assert_eq!(scenarios.len(), 6);
        let tenants = scenarios
            .iter()
            .find(|s| s["name"].as_str() == Some("tcp/tenants"))
            .expect("tcp/tenants scenario");
        assert_eq!(tenants["total_evals"].as_u64(), Some(3 * 20));
        let fairness = &report["tenants"];
        assert_eq!(fairness["tenants"].as_u64(), Some(3));
        assert_eq!(fairness["per_tenant_p99_us"].as_array().unwrap().len(), 3);
        assert!(fairness["p99_spread"].as_f64().unwrap() >= 1.0);
        // Exempt from the relative gate: a baseline without the scenario
        // neither fails nor reports it missing.
        let base = serde_json::json!({
            "scenarios": [{"name": "inproc/serial", "ops_per_sec": 1000.0}],
        });
        let cur = serde_json::json!({
            "scenarios": [
                {"name": "inproc/serial", "ops_per_sec": 1000.0},
                {"name": "tcp/tenants", "ops_per_sec": 50.0},
            ],
        });
        assert!(check_regression(&cur, &base, 0.25).is_empty());
    }

    fn fake_report(ratios: &[(&str, f64)]) -> serde_json::Value {
        serde_json::json!({
            "scenarios": ratios.iter().map(|(name, r)| serde_json::json!({
                "name": name,
                "ops_per_sec": r * 10_000.0,
            })).collect::<Vec<_>>(),
        })
    }

    #[test]
    fn identical_reports_pass_the_regression_gate() {
        let report = fake_report(&[
            ("inproc/serial", 1.0),
            ("inproc/batched", 2.0),
            ("tcp/serial", 0.3),
        ]);
        assert!(check_regression(&report, &report, 0.25).is_empty());
    }

    #[test]
    fn absolute_speed_changes_do_not_fail_only_ratio_shifts_do() {
        let base = fake_report(&[("inproc/serial", 1.0), ("inproc/batched", 2.0)]);
        // Twice as fast overall (different runner), same ratios: fine.
        let faster = fake_report(&[("inproc/serial", 2.0), ("inproc/batched", 4.0)]);
        assert!(check_regression(&faster, &base, 0.25).is_empty());
        // Batching collapsed from 2.0x to 1.2x relative: that is a regression.
        let collapsed = fake_report(&[("inproc/serial", 1.0), ("inproc/batched", 1.2)]);
        let failures = check_regression(&collapsed, &base, 0.25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("inproc/batched"), "{failures:?}");
    }

    #[test]
    fn swarm_scenario_is_exempt_from_the_relative_gate() {
        // Full runs and quick gate runs deliberately simulate different
        // swarm sizes, so a wildly different swarm ratio must neither fail
        // the gate nor count as a missing scenario.
        let base = fake_report(&[
            ("inproc/serial", 1.0),
            ("tcp/serial", 0.4),
            ("tcp/swarm", 0.9),
        ]);
        let cur = fake_report(&[
            ("inproc/serial", 1.0),
            ("tcp/serial", 0.4),
            ("tcp/swarm", 0.05),
        ]);
        assert!(check_regression(&cur, &base, 0.25).is_empty());
        let no_swarm = fake_report(&[("inproc/serial", 1.0), ("tcp/serial", 0.4)]);
        assert!(check_regression(&no_swarm, &base, 0.25).is_empty());
    }

    #[test]
    fn missing_scenarios_are_failures() {
        let base = fake_report(&[("inproc/serial", 1.0), ("tcp/serial", 0.4)]);
        let cur = fake_report(&[("inproc/serial", 1.0)]);
        let failures = check_regression(&cur, &base, 0.25);
        assert!(
            failures.iter().any(|f| f.contains("missing from current")),
            "{failures:?}"
        );
    }

    #[test]
    fn failure_intersection_is_per_scenario() {
        let a = vec![
            "`tcp/serial` relative throughput 0.20x is more than 25% below baseline 0.31x"
                .to_string(),
            "`inproc/batched/1-shard` relative throughput 2.00x is more than 25% below \
             baseline 5.00x"
                .to_string(),
        ];
        let b = vec![
            "`tcp/serial` relative throughput 0.21x is more than 25% below baseline 0.31x"
                .to_string(),
        ];
        // Only the scenario failing in *both* attempts survives, keeping
        // the newer message; the one that cleared in attempt 2 is noise.
        let both = intersect_failures(&a, &b);
        assert_eq!(both.len(), 1, "{both:?}");
        assert!(both[0].contains("tcp/serial") && both[0].contains("0.21x"));
        // A scenario that only appears in the newer attempt is noise too.
        assert!(intersect_failures(&b, &a).len() == 1);
        assert!(intersect_failures(&[], &b).is_empty());
        assert!(intersect_failures(&b, &[]).is_empty());
    }
}
