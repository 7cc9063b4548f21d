//! Direct-call micro-phases: each layer's public functions called on their
//! own, the same way in every traced run, so that a moved end-to-end number
//! can be laid against the layers below it.
//!
//! A probe reports the fast end of a few repetitions (or a median over many
//! calls), for the reason given in [`crate::estimators`].

use crate::apps;
use crate::estimators::{median, quantile};
use crate::harness::{Meter, Rows, RunConfig};
use crate::host;
use crate::workloads::inproc_search::{self, compile_synth, problems, STREAM_POINTS};
use crate::workloads::{
    bind_server, objective, open_session, param, serving_space, unbounded_options, PARAMS,
};
use ah_core::server::protocol::{FrameDecoder, Reply, Request, StrategyKind, TrialReport};
use ah_core::server::{HarmonyServer, ServerConfig};
use ah_core::session::TuningSession;
use ah_core::space_compile::CompiledSpace;
use ah_core::store::{space_fingerprint, PerfStore, StoreRecord};
use ah_core::telemetry::Telemetry;
use ah_core::wal::{WalHeader, WalSession};
use ah_repro::leaderboard::ROSTER;
use std::time::Instant;

fn row(rows: &mut Rows, name: &str, value: f64) {
    rows.push((name.to_string(), value));
}

/// Seconds of the fastest of `reps` runs of `f`.
fn fastest<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time each call of `f` over `n` calls; the samples in nanoseconds.
fn each_ns(n: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_nanos() as f64
        })
        .collect()
}

/// The frames one serial trial puts on the wire, as the TCP client and the
/// server build them: `Fetch`, `Config`, a one-entry `ReportBatch`, `Ok`.
fn trial_frames(seed: u64, trials: usize) -> (Vec<Request>, Vec<Reply>) {
    let mut session = TuningSession::new(
        serving_space(),
        StrategyKind::Random.build(),
        unbounded_options(seed),
    );
    let (mut requests, mut replies) = (Vec::new(), Vec::new());
    for _ in 0..trials {
        let trial = session
            .suggest()
            .expect("an unbounded session always proposes");
        let cost = objective(&trial.config);
        requests.push(Request::Fetch);
        replies.push(Reply::Config {
            config: trial.config.clone(),
            iteration: trial.iteration,
            finished: false,
        });
        requests.push(Request::ReportBatch {
            reports: vec![TrialReport {
                iteration: trial.iteration,
                cost,
                wall_time: cost,
            }],
        });
        replies.push(Reply::Ok);
        session
            .report(trial, cost)
            .expect("report of the outstanding trial");
    }
    (requests, replies)
}

/// Encode + decode nanoseconds of one `Heartbeat`/`Ok` exchange, and of the
/// four frames of one trial; used by the budget.
struct FrameCosts {
    trial_ns: f64,
    heartbeat_ns: f64,
}

fn protocol(cfg: &RunConfig, rows: &mut Rows) -> FrameCosts {
    const TRIALS: usize = 2_000;
    let (requests, replies) = trial_frames(cfg.derive(6_000), TRIALS);
    let frames = (requests.len() + replies.len()) as f64;
    let encode = |req: &[Request], rep: &[Reply]| -> Vec<String> {
        let mut out: Vec<String> = Vec::with_capacity(req.len() + rep.len());
        out.extend(
            req.iter()
                .map(|r| serde_json::to_string(r).expect("requests serialize")),
        );
        out.extend(
            rep.iter()
                .map(|r| serde_json::to_string(r).expect("replies serialize")),
        );
        out
    };
    let encoded = encode(&requests, &replies);
    let (req_text, rep_text) = encoded.split_at(requests.len());
    let decode = |req: &[String], rep: &[String]| {
        for t in req {
            std::hint::black_box(serde_json::from_str::<Request>(t).expect("request parses"));
        }
        for t in rep {
            std::hint::black_box(serde_json::from_str::<Reply>(t).expect("reply parses"));
        }
    };
    let encode_s = fastest(5, || encode(&requests, &replies));
    let decode_s = fastest(5, || decode(req_text, rep_text));
    let stream: Vec<u8> = encoded
        .iter()
        .flat_map(|f| f.bytes().chain(std::iter::once(b'\n')))
        .collect();
    let framing_s = fastest(5, || {
        let mut decoder = FrameDecoder::new(1 << 20);
        let mut popped = 0usize;
        for chunk in stream.chunks(4096) {
            decoder.extend(chunk);
            while let Ok(Some(frame)) = decoder.next_frame() {
                popped += frame.len();
            }
        }
        popped
    });
    row(
        rows,
        "protocol.encode_ns_per_frame",
        encode_s * 1e9 / frames,
    );
    row(
        rows,
        "protocol.decode_ns_per_frame",
        decode_s * 1e9 / frames,
    );
    row(
        rows,
        "protocol.framedecoder_ns_per_frame",
        framing_s * 1e9 / frames,
    );
    row(
        rows,
        "protocol.frame_bytes_per_trial",
        stream.len() as f64 / TRIALS as f64,
    );

    let beats = (vec![Request::Heartbeat; TRIALS], vec![Reply::Ok; TRIALS]);
    let beat_text = encode(&beats.0, &beats.1);
    let (beat_req, beat_rep) = beat_text.split_at(TRIALS);
    let heartbeat_s =
        fastest(5, || encode(&beats.0, &beats.1)) + fastest(5, || decode(beat_req, beat_rep));
    FrameCosts {
        trial_ns: (encode_s + decode_s + framing_s) * 1e9 / TRIALS as f64,
        heartbeat_ns: heartbeat_s * 1e9 / TRIALS as f64,
    }
}

/// One short serial session over TCP: the median `Heartbeat` round trip
/// and the median fetch + report time, both in µs, taken back to back on
/// the same connection so that they see the same host.
fn serial_slice_us(
    addr: std::net::SocketAddr,
    label: &str,
    seed: u64,
    trials: usize,
) -> (f64, f64) {
    let mut m = Meter::new(false);
    let mut client =
        open_session(&mut m, addr, label, unbounded_options(seed), 0).expect("probe session");
    let beats = each_ns(trials, |_| client.heartbeat().expect("heartbeat"));
    let rtt: Vec<f64> = (0..trials)
        .map(|_| {
            let t0 = Instant::now();
            let (config, _) = client.fetch().expect("probe fetch");
            let fetch = t0.elapsed();
            let cost = objective(&config);
            let t1 = Instant::now();
            client.report(cost).expect("probe report");
            (fetch + t1.elapsed()).as_secs_f64() * 1e6
        })
        .collect();
    client.leave().expect("probe leave");
    (median(&beats) / 1e3, median(&rtt))
}

/// Transport floor and the serial round trip it is compared with.
struct TcpCosts {
    heartbeat_us: f64,
    serial_rtt_us: f64,
}

fn tcp(cfg: &RunConfig, rows: &mut Rows) -> TcpCosts {
    let server = bind_server(None, Telemetry::disabled()).expect("bind probe server");
    let addr = server.local_addr();
    let connects = each_ns(200, |i| {
        let c = ah_core::server::TcpHarmonyClient::connect(addr, &format!("probe-connect-{i}"))
            .expect("connect");
        std::hint::black_box(c.session_id());
        c.close();
    });
    let (beats, slices): (Vec<f64>, Vec<f64>) = (0..8)
        .map(|i| {
            serial_slice_us(
                addr,
                &format!("probe-serial-{i}"),
                cfg.derive(6_100 + i),
                400,
            )
        })
        .unzip();
    server.shutdown();
    let costs = TcpCosts {
        heartbeat_us: quantile(&beats, 0.25),
        serial_rtt_us: quantile(&slices, 0.25),
    };
    row(rows, "tcp.heartbeat_rtt_us_p50", costs.heartbeat_us);
    row(rows, "tcp.connect_register_us", median(&connects) / 1e3);
    costs
}

/// What observing costs: the same serial slices against a server with its
/// telemetry on and one with it off, alternating.
fn telemetry(cfg: &RunConfig, rows: &mut Rows) {
    let on = bind_server(None, Telemetry::enabled()).expect("bind probe server");
    let off = bind_server(None, Telemetry::disabled()).expect("bind probe server");
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for i in 0..6u64 {
        let seed = cfg.derive(6_200 + i);
        with.push(serial_slice_us(on.local_addr(), &format!("probe-on-{i}"), seed, 400).1);
        without.push(serial_slice_us(off.local_addr(), &format!("probe-off-{i}"), seed, 400).1);
    }
    on.shutdown();
    off.shutdown();
    row(
        rows,
        "telemetry.overhead_ns_per_trial",
        (quantile(&with, 0.25) - quantile(&without, 0.25)) * 1e3,
    );
}

fn server(cfg: &RunConfig, rows: &mut Rows) {
    let server = HarmonyServer::start_with_config(ServerConfig {
        shards: 1,
        ..Default::default()
    });
    let declare = |label: String| {
        let client = server.connect(label).expect("in-process connect");
        for i in 0..PARAMS {
            client.add_param(param(i)).expect("param");
        }
        client
    };
    let seals: Vec<f64> = (0..100u64)
        .map(|i| {
            let client = declare(format!("probe-seal-{i}"));
            let t0 = Instant::now();
            client
                .seal(unbounded_options(i), StrategyKind::Random)
                .expect("seal");
            let ns = t0.elapsed().as_nanos() as f64;
            client.leave().expect("leave");
            ns
        })
        .collect();
    let client = declare("probe-inproc".into());
    client
        .seal(unbounded_options(cfg.derive(6_300)), StrategyKind::Random)
        .expect("seal");
    let rtt = each_ns(10_000, |_| {
        let fetched = client.fetch().expect("fetch");
        client.report(objective(&fetched.config)).expect("report");
    });
    client.leave().expect("leave");
    server.shutdown();
    row(rows, "server.inproc_rtt_us_p50", median(&rtt) / 1e3);
    row(rows, "server.seal_us", median(&seals) / 1e3);
}

/// Median `suggest` and `report` nanoseconds of a bare session.
struct SessionCosts {
    suggest_ns: f64,
    report_ns: f64,
}

fn session(cfg: &RunConfig, rows: &mut Rows) -> SessionCosts {
    const TRIALS: usize = 20_000;
    let fresh = |salt| {
        TuningSession::new(
            serving_space(),
            StrategyKind::Random.build(),
            unbounded_options(cfg.derive(salt)),
        )
    };
    let mut s = fresh(6_400);
    let (mut suggest, mut report) = (Vec::with_capacity(TRIALS), Vec::with_capacity(TRIALS));
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        let trial = s.suggest().expect("proposes");
        suggest.push(t0.elapsed().as_nanos() as f64);
        let cost = objective(&trial.config);
        let t1 = Instant::now();
        s.report(trial, cost).expect("report");
        report.push(t1.elapsed().as_nanos() as f64);
    }
    let mut s = fresh(6_401);
    let stored = each_ns(TRIALS, |_| {
        let trial = s.suggest().expect("proposes");
        let cost = objective(&trial.config);
        s.report_stored(trial, cost).expect("report_stored");
    });
    let costs = SessionCosts {
        suggest_ns: median(&suggest),
        report_ns: median(&report),
    };
    row(rows, "session.suggest_ns_p50", costs.suggest_ns);
    row(rows, "session.report_ns_p50", costs.report_ns);
    // suggest + report_stored, minus the suggest measured above.
    row(
        rows,
        "session.report_stored_ns_p50",
        median(&stored) - costs.suggest_ns,
    );
    costs
}

/// Metric-name form of a roster name (`nelder-mead` → `nelder_mead`).
pub fn strategy_key(roster_name: &str) -> String {
    roster_name.replace('-', "_")
}

fn strategy(cfg: &RunConfig, rows: &mut Rows) {
    let seeds: Vec<u64> = (0..inproc_search::RACE_SEEDS as u64)
        .map(|k| cfg.derive(4_100 + k))
        .collect();
    let mut m = Meter::new(false);
    let race = inproc_search::race(&problems(), &seeds, &mut m);
    for name in ROSTER {
        let mine: Vec<_> = race.iter().filter(|r| r.strategy == name).collect();
        let trials: u64 = mine.iter().map(|r| r.trials).sum();
        let suggest_s: f64 = mine.iter().map(|r| r.suggest_s).sum();
        let evals: u64 = mine.iter().map(|r| r.evals_to_target).sum();
        let key = strategy_key(name);
        row(
            rows,
            &format!("strategy.{key}.propose_us_mean"),
            suggest_s * 1e6 / trials.max(1) as f64,
        );
        row(
            rows,
            &format!("strategy.{key}.evals_to_target"),
            evals as f64 / mine.len() as f64,
        );
    }
}

fn space_compile(cfg: &RunConfig, rows: &mut Rows) {
    let synth = ah_repro::space_cli::build("synth-1e9").expect("synth-1e9 is a built-in space");
    let compile_s = fastest(20, || CompiledSpace::compile(&synth).expect("compiles"));
    let compiled = compile_synth();
    let mut pruned = 0;
    let stream_s = fastest(3, || {
        let mut points = compiled.iter();
        let n = points.by_ref().take(STREAM_POINTS).count();
        pruned = points.pruned();
        n
    });
    // Snap random box points into the constrained problem's feasible set.
    let constrained = &problems()[2];
    let feasible = CompiledSpace::compile(&constrained.space).expect("compiles");
    let mut state = cfg.derive(6_500);
    let snaps = each_ns(200, |_| {
        let coords: Vec<f64> = (0..constrained.space.dims())
            .map(|_| {
                state = ah_core::seeded::splitmix64(state);
                ah_core::seeded::unit_f64(state) * 5.0
            })
            .collect();
        std::hint::black_box(feasible.snap_feasible(&coords, u64::MAX));
    });
    row(rows, "space_compile.compile_us", compile_s * 1e6);
    row(
        rows,
        "space_compile.stream_pts_per_s",
        STREAM_POINTS as f64 / stream_s,
    );
    row(rows, "space_compile.snap_ns_p50", median(&snaps));
    row(
        rows,
        "space_compile.points_pruned",
        (compiled.stats().points_pruned_by_propagation + pruned) as f64,
    );
}

fn store(cfg: &RunConfig, rows: &mut Rows) {
    const RECORDS: usize = 20_000;
    const BATCH: usize = crate::workloads::BATCH;
    let path = cfg.scratch.join("probe-store.jsonl");
    let _ = std::fs::remove_file(&path);
    let space = serving_space();
    let fingerprint = space_fingerprint(&space);
    let mut session = TuningSession::new(
        space,
        StrategyKind::Random.build(),
        unbounded_options(cfg.derive(6_600)),
    );
    let mut configs = Vec::with_capacity(2 * RECORDS);
    for _ in 0..2 * RECORDS {
        let trial = session.suggest().expect("proposes");
        configs.push(trial.config.clone());
        session.report(trial, 0.0).expect("report");
    }
    let (present, absent) = configs.split_at(RECORDS);
    let batches: Vec<Vec<StoreRecord>> = present
        .chunks(BATCH)
        .map(|chunk| {
            chunk
                .iter()
                .map(|c| StoreRecord::new("probe", fingerprint, c.clone(), objective(c), 0.0))
                .collect()
        })
        .collect();
    let mut store = PerfStore::open(&path).expect("open probe store");
    let t0 = Instant::now();
    for batch in batches {
        store.insert_batch(batch).expect("insert_batch");
    }
    let insert_s = t0.elapsed().as_secs_f64();
    let hits = each_ns(RECORDS, |i| {
        std::hint::black_box(store.lookup("probe", fingerprint, &present[i].cache_key()));
    });
    let misses = each_ns(RECORDS, |i| {
        std::hint::black_box(store.lookup("probe", fingerprint, &absent[i].cache_key()));
    });
    store.flush().expect("flush");
    let bytes = store.stats().file_bytes;
    drop(store);
    let open_s = fastest(3, || {
        PerfStore::open(&path).expect("reopen probe store").len()
    });
    let _ = std::fs::remove_file(&path);
    row(
        rows,
        "store.insert_batch_ns_per_record",
        insert_s * 1e9 / RECORDS as f64,
    );
    row(rows, "store.lookup_hit_ns_p50", median(&hits));
    row(rows, "store.lookup_miss_ns_p50", median(&misses));
    row(rows, "store.open_s", open_s);
    row(
        rows,
        "store.open_ns_per_record",
        open_s * 1e9 / RECORDS as f64,
    );
    row(
        rows,
        "store.bytes_per_record",
        bytes as f64 / RECORDS as f64,
    );
}

fn wal(cfg: &RunConfig, rows: &mut Rows) {
    /// Every append is followed by an fsync, about 0.25 ms on the reference
    /// host's disk, which is what bounds the record count here.
    const RECORDS: usize = 500;
    let path = cfg.scratch.join("probe-wal.jsonl");
    let _ = std::fs::remove_file(&path);
    let header = WalHeader::new(
        "probe",
        (0..PARAMS).map(param).collect(),
        Vec::new(),
        StrategyKind::Random,
        unbounded_options(cfg.derive(6_700)),
    );
    let mut log = WalSession::create(&path, &header).expect("create probe log");
    let header_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let appends = each_ns(RECORDS, |_| {
        let trial = log.suggest().expect("suggest").expect("proposes");
        let cost = objective(&trial.config);
        log.report(trial, cost).expect("logged report");
    });
    drop(log);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) - header_bytes;
    let resume_s = fastest(3, || {
        WalSession::resume(&path)
            .expect("resume probe log")
            .0
            .replayed()
    });
    let _ = std::fs::remove_file(&path);
    row(rows, "wal.append_us_per_report", median(&appends) / 1e3);
    row(rows, "wal.resume_s", resume_s);
    row(rows, "wal.bytes_per_record", bytes as f64 / RECORDS as f64);
}

fn applications(rows: &mut Rows) {
    for (name, mut app) in apps::EVAL_METRICS.iter().zip(apps::build()) {
        let config = app.default_config();
        let first = fastest(1, || app.run_short(&config));
        let reps = ((0.15 / first) as usize).clamp(3, 200);
        let samples = each_ns(reps, |_| {
            std::hint::black_box(app.run_short(&config));
        });
        row(rows, name, quantile(&samples, 0.25) / 1e3);
    }
}

/// Run every probe. The last three rows lay the serial TCP round trip
/// against the layers below it:
/// `rtt ≈ 2·heartbeat + Δframes + suggest + report + residual`.
pub fn run_all(cfg: &RunConfig) -> Rows {
    let mut rows = Rows::new();
    row(&mut rows, "host.calib_cpu_ms", host::calib_cpu_ms());
    row(&mut rows, "host.calib_mem_ms", host::calib_mem_ms());
    let frames = protocol(cfg, &mut rows);
    let wire = tcp(cfg, &mut rows);
    server(cfg, &mut rows);
    let bare = session(cfg, &mut rows);
    strategy(cfg, &mut rows);
    space_compile(cfg, &mut rows);
    store(cfg, &mut rows);
    wal(cfg, &mut rows);
    telemetry(cfg, &mut rows);
    applications(&mut rows);

    let frames_us = (frames.trial_ns - 2.0 * frames.heartbeat_ns) / 1e3;
    let session_us = (bare.suggest_ns + bare.report_ns) / 1e3;
    let residual_us = wire.serial_rtt_us - 2.0 * wire.heartbeat_us - frames_us - session_us;
    row(&mut rows, "tcp.serial_rtt_us_p50", wire.serial_rtt_us);
    row(&mut rows, "tcp.residual_us", residual_us);
    row(
        &mut rows,
        "bench.budget_residual_share",
        residual_us / wire.serial_rtt_us,
    );
    rows
}
