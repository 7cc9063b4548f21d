//! `repro store`: operate on a persistent performance database.
//!
//! ```text
//! repro store stats   --store PATH [--json]
//! repro store inspect --store PATH [--app LABEL] [--limit N]
//! repro store compact --store PATH
//! repro store gc      --store PATH --app LABEL
//! repro store merge   --store DST --from SRC [--dry-run] [--crash-after N]
//! repro store demo    --store PATH [--out PATH] [--cache-out PATH]
//!                     [--crash-after N] [--eval-delay-ms N]
//! repro store demo    --connect ADDR [--out PATH]
//! ```
//!
//! `demo` runs a deterministic store-backed tuning campaign against a
//! local server and is the CLI face of the persistence claim: run it
//! twice against one `--store` and the second invocation is served from
//! the database instead of being re-measured; `--crash-after`/SIGKILL in
//! the middle, then a clean re-run, must still produce the byte-identical
//! `--out` result (CI does exactly this). With `--connect ADDR` the same
//! campaign is driven over TCP against a live `repro serve` process
//! instead of an in-process server — the federation smoke runs it against
//! two servers and diffs the `--out` files.
//!
//! `merge` folds a peer database into `--store` with the federation
//! first-write-wins algebra, reading the peer's file as a server reads a
//! peer's `/store/log`; `--dry-run` prints what would happen without
//! writing, `--crash-after N` merges only the peer's first N live records,
//! then aborts, for the crash-durability tests (a peer with no more than N
//! merges whole).
//!
//! `--out` holds only run-deterministic data (trajectory and best point as
//! cost bits and cache keys); the volatile cache accounting (hits, misses,
//! served fraction, store stats) goes to `--cache-out`.

use ah_core::param::Param;
use ah_core::server::protocol::{FetchedTrial, StrategyKind, TrialReport};
use ah_core::server::tcp::{TcpClientOptions, TcpHarmonyClient};
use ah_core::server::{HarmonyClient, HarmonyServer, ServerConfig};
use ah_core::session::SessionOptions;
use ah_core::space::Configuration;
use ah_core::store::{MergeStats, PerfStore, SharedStore};
use ah_core::telemetry::{Counter, Telemetry};
use std::path::PathBuf;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_usize(args: &[String], flag: &str, default: usize) -> usize {
    flag_value(args, flag)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects a non-negative integer, got `{v}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(default)
}

fn store_path(args: &[String]) -> PathBuf {
    flag_value(args, "--store")
        .unwrap_or_else(|| {
            eprintln!("repro store requires --store PATH");
            std::process::exit(2);
        })
        .into()
}

fn open(args: &[String]) -> PerfStore {
    let path = store_path(args);
    PerfStore::open(&path).unwrap_or_else(|e| {
        eprintln!("cannot open store {}: {e}", path.display());
        std::process::exit(2);
    })
}

fn write_blob(path: &str, blob: &str) {
    std::fs::write(path, blob).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    eprintln!("wrote {path}");
}

/// `repro store stats`: size and composition of the database.
fn stats(args: &[String]) -> i32 {
    let store = open(args);
    let stats = store.stats();
    if args.iter().any(|a| a == "--json") {
        let blob = serde_json::to_string_pretty(&stats).expect("stats serialize");
        println!("{blob}");
        return 0;
    }
    println!("store {}", stats.path);
    println!("  file bytes       {}", stats.file_bytes);
    println!("  log records      {}", stats.records);
    println!("  live configs     {}", stats.live_configs);
    println!("  torn tail fixed  {}", stats.torn_tail_truncated);
    for app in &stats.apps {
        println!("  app {:24} {:6} configs", app.app, app.configs);
    }
    0
}

/// `repro store inspect`: dump live records (first-occurrence order).
fn inspect(args: &[String]) -> i32 {
    let store = open(args);
    let app = flag_value(args, "--app");
    let limit = parse_usize(args, "--limit", 20);
    let records: Vec<_> = store
        .live_records()
        .into_iter()
        .filter(|r| app.as_deref().is_none_or(|a| r.app == a))
        .take(limit.max(1))
        .collect();
    for r in &records {
        println!(
            "{:24} fp={:016x} key={:?} cost={} wall={} session={} iter={}{}{}",
            r.app,
            r.fingerprint,
            r.config.cache_key(),
            r.cost(),
            r.wall_time(),
            r.session,
            r.iteration,
            if r.requeued { " requeued" } else { "" },
            if r.replayed { " replayed" } else { "" },
        );
    }
    eprintln!("{} live record(s) shown (limit {limit})", records.len());
    0
}

/// `repro store compact` / `repro store gc --app LABEL`.
fn compact(args: &[String], keep_app: Option<&str>) -> i32 {
    let mut store = open(args);
    if keep_app.is_none() && args.iter().any(|a| a == "gc") && flag_value(args, "--app").is_none() {
        eprintln!("repro store gc requires --app LABEL (compact keeps every app)");
        return 2;
    }
    let outcome = store.gc(keep_app).unwrap_or_else(|e| {
        eprintln!("compaction failed: {e}");
        std::process::exit(2);
    });
    println!(
        "compacted {}: {} -> {} records, {} -> {} bytes",
        store.path().display(),
        outcome.records_before,
        outcome.records_after,
        outcome.bytes_before,
        outcome.bytes_after,
    );
    0
}

/// `repro store merge --store DST --from SRC [--dry-run] [--crash-after N]`.
fn merge(args: &[String]) -> i32 {
    let dst_path = store_path(args);
    let src_path: PathBuf = flag_value(args, "--from")
        .unwrap_or_else(|| {
            eprintln!("repro store merge requires --from SRC (the peer database)");
            std::process::exit(2);
        })
        .into();
    let mut dst = PerfStore::open(&dst_path).unwrap_or_else(|e| {
        eprintln!("cannot open store {}: {e}", dst_path.display());
        std::process::exit(2);
    });
    let report = |verb: &str, s: &MergeStats| {
        println!(
            "{verb} {} <- {}: scanned {} merged {} skipped {} conflicts {}",
            dst_path.display(),
            src_path.display(),
            s.scanned,
            s.merged,
            s.skipped,
            s.conflicts,
        );
    };
    let merged = |stats: ah_core::error::Result<MergeStats>| {
        stats.unwrap_or_else(|e| {
            eprintln!("merge failed: {e}");
            std::process::exit(2);
        })
    };
    // The source's file is merged as it stands; no store is opened on it.
    if args.iter().any(|a| a == "--dry-run") {
        report("would merge", &merged(dst.merge_preview(&src_path)));
        return 0;
    }
    let crash_after =
        flag_value(args, "--crash-after").map(|_| parse_usize(args, "--crash-after", 0));
    let live = crash_after
        .map(|_| match PerfStore::open(&src_path) {
            Ok(src) => src.live_records(),
            Err(e) => {
                eprintln!("cannot open peer store {}: {e}", src_path.display());
                std::process::exit(2);
            }
        })
        .unwrap_or_default();
    if let Some(n) = crash_after.filter(|&n| live.len() > n) {
        // A peer of the source's first N live records, merged and flushed,
        // leaves a genuinely partial log for the durability tests. A peer
        // file an earlier crash left behind is not reopened.
        let peer_path = dst_path.with_extension("crash-peer");
        let _ = std::fs::remove_file(&peer_path);
        let stats = PerfStore::open(&peer_path).and_then(|mut peer| {
            peer.insert_batch(live.into_iter().take(n).collect())?;
            dst.merge_from(peer.path())
        });
        let _ = std::fs::remove_file(&peer_path);
        merged(stats);
        dst.flush().ok();
        eprintln!("store merge: simulated crash after {n} records");
        std::process::abort();
    }
    let stats = merged(dst.merge_from(&src_path));
    if let Err(e) = dst.flush() {
        eprintln!("flush failed: {e}");
        return 2;
    }
    report("merged", &stats);
    0
}

/// Deterministic synthetic objective for the demo campaign.
fn demo_cost(cfg: &Configuration) -> f64 {
    let tile = cfg.int("tile").unwrap() as f64;
    let unroll = cfg.int("unroll").unwrap() as f64;
    25.0 + 0.2 * (tile - 52.0).powi(2) + 0.9 * (unroll - 7.0).powi(2) + 0.02 * tile * unroll
}

/// Settings for one demo campaign (exposed for the durability tests).
pub struct DemoConfig {
    /// Database location (ignored when [`connect`](Self::connect) is set —
    /// the remote server owns the store).
    pub store: PathBuf,
    /// Drive the campaign over TCP against this live server instead of an
    /// in-process one.
    pub connect: Option<String>,
    /// Deterministic result JSON (`--out`).
    pub out: Option<String>,
    /// Volatile cache-accounting JSON (`--cache-out`).
    pub cache_out: Option<String>,
    /// `abort()` after this many *measured* evaluations.
    pub crash_after: Option<usize>,
    /// Sleep per measured evaluation (gives SIGKILL tests a window).
    pub eval_delay: std::time::Duration,
    /// Shrink the campaign.
    pub quick: bool,
}

/// The demo campaign's client, in-process or over TCP; the campaign loop
/// is identical either way, which is what makes the two modes' `--out`
/// files diffable.
enum DemoClient {
    Local(HarmonyClient),
    Remote(Box<TcpHarmonyClient>),
}

impl DemoClient {
    fn add_param(&mut self, p: Param) -> ah_core::error::Result<()> {
        match self {
            DemoClient::Local(c) => c.add_param(p),
            DemoClient::Remote(c) => c.add_param(p),
        }
    }

    fn seal(&mut self, o: SessionOptions, s: StrategyKind) -> ah_core::error::Result<()> {
        match self {
            DemoClient::Local(c) => c.seal(o, s),
            DemoClient::Remote(c) => c.seal(o, s),
        }
    }

    fn fetch_batch(&mut self, max: usize) -> ah_core::error::Result<(Vec<FetchedTrial>, bool)> {
        match self {
            DemoClient::Local(c) => c.fetch_batch(max),
            DemoClient::Remote(c) => c.fetch_batch(max),
        }
    }

    fn report_batch(&mut self, reports: Vec<TrialReport>) -> ah_core::error::Result<()> {
        match self {
            DemoClient::Local(c) => c.report_batch(reports),
            DemoClient::Remote(c) => c.report_batch(reports),
        }
    }

    fn history(&mut self) -> ah_core::error::Result<(ah_core::history::History, bool)> {
        match self {
            DemoClient::Local(c) => c.history(),
            DemoClient::Remote(c) => c.history(),
        }
    }

    fn best(&mut self) -> ah_core::error::Result<Option<(Configuration, f64)>> {
        match self {
            DemoClient::Local(c) => c.best(),
            DemoClient::Remote(c) => c.best(),
        }
    }
}

/// `repro store demo`: one store-backed campaign; see the module docs.
pub fn demo(cfg: &DemoConfig) -> i32 {
    let evals = if cfg.quick { 60 } else { 200 };
    let telemetry = Telemetry::enabled();
    // In remote mode the server at --connect owns the store; locally we
    // boot a server around the --store database.
    let (mut client, server, store) = if let Some(addr) = &cfg.connect {
        let addr: std::net::SocketAddr = addr.parse().unwrap_or_else(|_| {
            eprintln!("--connect expects HOST:PORT, got `{addr}`");
            std::process::exit(2);
        });
        let remote =
            TcpHarmonyClient::connect_with(addr, "store-demo", TcpClientOptions::default())
                .unwrap_or_else(|e| {
                    eprintln!("cannot connect to {addr}: {e}");
                    std::process::exit(2);
                });
        (DemoClient::Remote(Box::new(remote)), None, None)
    } else {
        let store = SharedStore::open_with(&cfg.store, telemetry.clone()).unwrap_or_else(|e| {
            eprintln!("cannot open store {}: {e}", cfg.store.display());
            std::process::exit(2);
        });
        let server = HarmonyServer::start_with_config(ServerConfig {
            store: Some(store.clone()),
            ..Default::default()
        });
        let client = server.connect("store-demo").expect("connect");
        (DemoClient::Local(client), Some(server), Some(store))
    };
    client
        .add_param(Param::int("tile", 1, 128, 1))
        .expect("param");
    client
        .add_param(Param::int("unroll", 1, 16, 1))
        .expect("param");
    client
        .seal(
            SessionOptions {
                max_evaluations: evals,
                seed: 4242,
                ..Default::default()
            },
            StrategyKind::NelderMead,
        )
        .expect("seal");

    let mut measured = 0usize;
    loop {
        let (trials, finished) = client.fetch_batch(4).expect("fetch_batch");
        if finished {
            break;
        }
        let mut reports = Vec::with_capacity(trials.len());
        for t in &trials {
            measured += 1;
            if !cfg.eval_delay.is_zero() {
                std::thread::sleep(cfg.eval_delay);
            }
            reports.push(TrialReport {
                iteration: t.iteration,
                cost: demo_cost(&t.config),
                wall_time: 1.0,
            });
        }
        client.report_batch(reports).expect("report_batch");
        if let Some(n) = cfg.crash_after {
            if measured >= n {
                eprintln!("store demo: simulated crash after {measured} evaluations");
                // No flush, no shutdown: whatever the store appended so far
                // is what recovery gets to work with.
                std::process::abort();
            }
        }
    }

    let (history, _) = client.history().expect("history");
    let (best_config, best_cost) = client.best().expect("best").expect("nonempty");
    if let Some(server) = server {
        server.shutdown();
    }
    if let Some(store) = &store {
        store.flush().expect("flush store");
    }

    let rows = history.evaluations();
    let evaluations = rows.len();
    let served = rows.iter().filter(|e| e.cached).count();
    let hits = telemetry.counter(Counter::StoreHits);
    let misses = telemetry.counter(Counter::StoreMisses);
    let source = cfg
        .connect
        .clone()
        .unwrap_or_else(|| cfg.store.display().to_string());
    eprintln!(
        "store demo: {evaluations} evaluations, {measured} measured, {served} served \
         from {source} ({hits} hits / {misses} misses)"
    );

    if let Some(path) = &cfg.out {
        // Run-deterministic only: bit patterns and cache keys, never
        // serialized Configuration maps (HashMap order is per-process).
        let result = serde_json::json!({
            "evaluations": evaluations,
            "best_cost_bits": best_cost.to_bits(),
            "best_cost": best_cost,
            "best_config_key": best_config.cache_key(),
            "trajectory": rows.iter().map(|e| {
                serde_json::json!({"iteration": e.iteration, "cost_bits": e.cost.to_bits()})
            }).collect::<Vec<_>>(),
        });
        write_blob(
            path,
            &serde_json::to_string_pretty(&result).expect("result serializes"),
        );
    }
    if let Some(path) = &cfg.cache_out {
        // Store composition only exists in local mode; a remote server's
        // accounting lives on its /status endpoint.
        let served_fraction = served as f64 / evaluations.max(1) as f64;
        let accounting = if let Some(store) = &store {
            serde_json::json!({
                "store_hits": hits,
                "store_misses": misses,
                "measured": measured,
                "served": served,
                "served_fraction": served_fraction,
                "stats": store.stats(),
            })
        } else {
            serde_json::json!({
                "store_hits": hits,
                "store_misses": misses,
                "measured": measured,
                "served": served,
                "served_fraction": served_fraction,
            })
        };
        write_blob(
            path,
            &serde_json::to_string_pretty(&accounting).expect("accounting serializes"),
        );
    }
    0
}

/// Dispatch `repro store <subcommand>`; returns the process exit code.
pub fn run(args: &[String], quick: bool) -> i32 {
    let sub = args
        .iter()
        .skip_while(|a| a.as_str() != "store")
        .nth(1)
        .cloned()
        .unwrap_or_default();
    match sub.as_str() {
        "stats" => stats(args),
        "inspect" => inspect(args),
        "compact" => compact(args, None),
        "gc" => {
            let app = flag_value(args, "--app").unwrap_or_else(|| {
                eprintln!("repro store gc requires --app LABEL");
                std::process::exit(2);
            });
            compact(args, Some(&app))
        }
        "merge" => merge(args),
        "demo" => demo(&DemoConfig {
            store: if flag_value(args, "--connect").is_some() {
                flag_value(args, "--store").unwrap_or_default().into()
            } else {
                store_path(args)
            },
            connect: flag_value(args, "--connect"),
            out: flag_value(args, "--out"),
            cache_out: flag_value(args, "--cache-out"),
            crash_after: flag_value(args, "--crash-after").map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("--crash-after expects a positive integer, got `{v}`");
                    std::process::exit(2);
                })
            }),
            eval_delay: std::time::Duration::from_millis(
                parse_usize(args, "--eval-delay-ms", 0) as u64
            ),
            quick,
        }),
        other => {
            eprintln!(
                "unknown store subcommand `{other}`; \
                 expected stats | inspect | compact | gc | merge | demo"
            );
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_core::store::StoreRecord;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ah-store-cli-{}-{name}", std::process::id()))
    }

    #[test]
    fn demo_twice_against_one_store_serves_the_second_run() {
        let store = tmp("demo.store");
        let _ = std::fs::remove_file(&store);
        let cold_out = tmp("cold.json");
        let warm_out = tmp("warm.json");
        let warm_cache = tmp("warm-cache.json");
        let base = DemoConfig {
            store: store.clone(),
            connect: None,
            out: Some(cold_out.display().to_string()),
            cache_out: None,
            crash_after: None,
            eval_delay: std::time::Duration::ZERO,
            quick: true,
        };
        assert_eq!(demo(&base), 0);
        let warm = DemoConfig {
            out: Some(warm_out.display().to_string()),
            cache_out: Some(warm_cache.display().to_string()),
            store: store.clone(),
            ..base
        };
        assert_eq!(demo(&warm), 0);

        let cold_blob = std::fs::read_to_string(&cold_out).unwrap();
        let warm_blob = std::fs::read_to_string(&warm_out).unwrap();
        assert_eq!(cold_blob, warm_blob, "warm result must be byte-identical");
        let cache: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&warm_cache).unwrap()).unwrap();
        assert!(cache["store_hits"].as_u64().unwrap() > 0);
        assert!(
            cache["served_fraction"].as_f64().unwrap() >= 0.9,
            "warm run should be served from the store: {cache:?}"
        );
        for p in [&store, &cold_out, &warm_out, &warm_cache] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn merge_subcommand_is_predicted_by_dry_run_and_idempotent() {
        let dst = tmp("merge-dst.store");
        let src = tmp("merge-src.store");
        for p in [&dst, &src] {
            let _ = std::fs::remove_file(p);
        }
        let rec = |x: i64, cost: f64| {
            let cfg = ah_core::space::SearchSpace::builder()
                .int("x", 0, 64, 1)
                .build()
                .unwrap()
                .project(&[x as f64]);
            StoreRecord::new("merge-cli", 3, cfg, cost, cost)
        };
        let mut a = PerfStore::open(&dst).unwrap();
        a.insert(rec(1, 10.0)).unwrap();
        a.insert(rec(2, 20.0)).unwrap();
        a.flush().unwrap();
        let mut b = PerfStore::open(&src).unwrap();
        b.insert(rec(2, 99.0)).unwrap(); // collides: first write (dst) wins
        b.insert(rec(3, 30.0)).unwrap();
        b.flush().unwrap();
        drop((a, b));

        let argv = |extra: &[&str]| -> Vec<String> {
            let mut v = vec![
                "store".to_string(),
                "merge".to_string(),
                "--store".to_string(),
                dst.display().to_string(),
                "--from".to_string(),
                src.display().to_string(),
            ];
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        // Dry run must not write.
        assert_eq!(run(&argv(&["--dry-run"]), true), 0);
        assert_eq!(PerfStore::open(&dst).unwrap().live_configs(), 2);
        // Real merge folds in the one novel record, keeps dst's x=2 cost.
        assert_eq!(run(&argv(&[]), true), 0);
        let merged = PerfStore::open(&dst).unwrap();
        assert_eq!(merged.live_configs(), 3);
        let x2 = merged
            .live_records()
            .into_iter()
            .find(|r| r.config.int("x") == Some(2))
            .unwrap();
        assert_eq!(x2.cost(), 20.0, "first write wins on collision");
        drop(merged);
        // Re-merge is a no-op.
        assert_eq!(run(&argv(&[]), true), 0);
        assert_eq!(PerfStore::open(&dst).unwrap().live_configs(), 3);
        for p in [&dst, &src] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn stats_and_compact_subcommands_round_trip() {
        let store = tmp("ops.store");
        let _ = std::fs::remove_file(&store);
        let cfg = DemoConfig {
            store: store.clone(),
            connect: None,
            out: None,
            cache_out: None,
            crash_after: None,
            eval_delay: std::time::Duration::ZERO,
            quick: true,
        };
        assert_eq!(demo(&cfg), 0);
        let args: Vec<String> = ["store", "stats", "--store", &store.display().to_string()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(run(&args, true), 0);
        let args: Vec<String> = ["store", "compact", "--store", &store.display().to_string()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(run(&args, true), 0);
        let reopened = PerfStore::open(&store).unwrap();
        assert!(!reopened.is_empty());
        assert_eq!(reopened.len(), reopened.live_configs());
        let _ = std::fs::remove_file(&store);
    }
}
