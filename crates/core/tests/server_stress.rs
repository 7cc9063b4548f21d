//! Concurrency stress and protocol-level tests for the Harmony server:
//! many clients over both transports (separately, and mixed on one server
//! so application and event-loop threads serve side by side), a
//! pipelining peer that will not drain its replies, and frame accounting
//! showing that a whole PRO round costs exactly one request/reply pair each
//! way.

use ah_core::param::Param;
use ah_core::server::protocol::{StrategyKind, TrialReport};
use ah_core::server::{
    EventLoopConfig, HarmonyServer, ServerConfig, TcpHarmonyClient, TcpHarmonyServer, TcpTransport,
};
use ah_core::session::SessionOptions;
use ah_core::telemetry::{SpanKind, Telemetry};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;

const CLIENTS: usize = 16;
const ITERS: usize = 200;

fn options(seed: u64) -> SessionOptions {
    SessionOptions {
        max_evaluations: ITERS,
        // Keep cache replays from ending a session before its budget: the
        // point here is sustained traffic, not convergence.
        max_cached_replays: ITERS,
        seed,
        ..Default::default()
    }
}

/// Each client minimizes |x - target| for its own target and records every
/// configuration it was served. At the end, the server's best must be
/// bit-identical to the best the client itself observed: if any state
/// leaked between clients (shared session, crossed replies, clobbered
/// outstanding trials), the server's best cost or best point would belong
/// to some other client's stream.
fn target_of(i: usize) -> i64 {
    (i as i64) * 61 + 7
}

fn check_own_best(i: usize, seen: &[(i64, f64)], best_x: i64, best_cost: f64) {
    let (own_x, own_cost) = seen
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("client measured something");
    assert_eq!(
        best_cost.to_bits(),
        own_cost.to_bits(),
        "client {i}: server best cost {best_cost} is not the client's own {own_cost}"
    );
    assert_eq!(
        best_x, own_x,
        "client {i}: server best point is not the client's own"
    );
}

#[test]
fn sixteen_inproc_clients_tune_independently() {
    let server = HarmonyServer::start();
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for i in 0..CLIENTS {
            let client = server.connect(format!("stress-{i}")).expect("connect");
            let barrier = &barrier;
            s.spawn(move || {
                client
                    .add_param(Param::int("x", 0, 1000, 1))
                    .expect("param");
                client
                    .seal(options(i as u64 + 1), StrategyKind::Random)
                    .expect("seal");
                barrier.wait();
                let target = target_of(i);
                let mut seen = Vec::with_capacity(ITERS);
                for _ in 0..ITERS {
                    let fetched = client.fetch().expect("fetch");
                    if fetched.finished {
                        break;
                    }
                    let x = fetched.config.int("x").expect("x");
                    let cost = (x - target).abs() as f64;
                    seen.push((x, cost));
                    client.report_timed(cost, 0.0).expect("report");
                }
                let (best, cost) = client.best().expect("best").expect("some best");
                check_own_best(i, &seen, best.int("x").expect("x"), cost);
            });
        }
    });
    assert_eq!(server.client_count(), CLIENTS);
    server.shutdown();
}

#[test]
fn sixteen_tcp_clients_tune_independently() {
    let server = TcpHarmonyServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for i in 0..CLIENTS {
            let barrier = &barrier;
            s.spawn(move || {
                let mut client =
                    TcpHarmonyClient::connect(addr, &format!("stress-{i}")).expect("connect");
                client
                    .add_param(Param::int("x", 0, 1000, 1))
                    .expect("param");
                client
                    .seal(options(i as u64 + 1), StrategyKind::Random)
                    .expect("seal");
                barrier.wait();
                let target = target_of(i);
                let mut seen = Vec::with_capacity(ITERS);
                let mut done = 0;
                while done < ITERS {
                    // Odd clients exercise the batched path, even ones the
                    // serial path, concurrently against the same server.
                    if i % 2 == 1 {
                        let (trials, finished) = client.fetch_batch(8).expect("fetch_batch");
                        if finished {
                            break;
                        }
                        assert!(!trials.is_empty());
                        let reports: Vec<TrialReport> = trials
                            .iter()
                            .map(|t| {
                                let x = t.config.int("x").expect("x");
                                let cost = (x - target).abs() as f64;
                                seen.push((x, cost));
                                TrialReport {
                                    iteration: t.iteration,
                                    cost,
                                    wall_time: 0.0,
                                }
                            })
                            .collect();
                        done += reports.len();
                        client.report_batch(reports).expect("report_batch");
                    } else {
                        let (cfg, finished) = client.fetch().expect("fetch");
                        if finished {
                            break;
                        }
                        let x = cfg.int("x").expect("x");
                        let cost = (x - target).abs() as f64;
                        seen.push((x, cost));
                        client.report(cost).expect("report");
                        done += 1;
                    }
                }
                let (best, cost) = client.best().expect("best").expect("some best");
                check_own_best(i, &seen, best.int("x").expect("x"), cost);
                client.close();
            });
        }
    });
    server.shutdown();
}

/// The mixed test's campaigns, by client index: each has its own strategy
/// seed and objective.
fn mixed_options(i: usize) -> SessionOptions {
    SessionOptions {
        max_evaluations: 60,
        seed: 100 + i as u64,
        ..Default::default()
    }
}

fn mixed_cost(i: usize, x: i64) -> f64 {
    ((x - target_of(i)) as f64).powi(2)
}

/// Client `i`'s campaign, serial fetch/report in process; its serialized
/// history.
fn inproc_history(server: &HarmonyServer, i: usize, start: Option<&Barrier>) -> String {
    let client = server.connect(format!("mixed-{i}")).expect("connect");
    client
        .add_param(Param::int("x", 0, 1000, 1))
        .expect("param");
    client
        .seal(mixed_options(i), StrategyKind::NelderMead)
        .expect("seal");
    if let Some(barrier) = start {
        barrier.wait();
    }
    loop {
        let fetched = client.fetch().expect("fetch");
        if fetched.finished {
            break;
        }
        let x = fetched.config.int("x").expect("x");
        client.report(mixed_cost(i, x)).expect("report");
    }
    let (history, finished) = client.history().expect("history");
    assert!(finished);
    serde_json::to_string(&history).expect("history serializes")
}

/// In-process and TCP clients on one server at once: every request is
/// served by the thread that sent it — an application thread or the event
/// loop — while it holds its session's lock. Each session's history must
/// still equal its solo serial run, and the `session_serve` spans of one
/// session, recorded from whichever threads, must never overlap.
#[test]
fn inproc_and_tcp_clients_mixed_on_one_shard_match_their_solo_runs() {
    const EACH: usize = 4;
    let solo: Vec<String> = (0..2 * EACH)
        .map(|i| {
            let server = HarmonyServer::start();
            let history = inproc_history(&server, i, None);
            server.shutdown();
            history
        })
        .collect();

    let telemetry = Telemetry::enabled();
    let server = TcpHarmonyServer::bind_with(
        "127.0.0.1:0",
        64,
        ServerConfig {
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let barrier = Barrier::new(2 * EACH);
    let mixed: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2 * EACH)
            .map(|i| {
                let (server, barrier) = (&server, &barrier);
                s.spawn(move || {
                    if i % 2 == 0 {
                        return inproc_history(server.inproc(), i, Some(barrier));
                    }
                    let mut client =
                        TcpHarmonyClient::connect(addr, &format!("mixed-{i}")).expect("connect");
                    client
                        .add_param(Param::int("x", 0, 1000, 1))
                        .expect("param");
                    client
                        .seal(mixed_options(i), StrategyKind::NelderMead)
                        .expect("seal");
                    barrier.wait();
                    loop {
                        let (cfg, finished) = client.fetch().expect("fetch");
                        if finished {
                            break;
                        }
                        let x = cfg.int("x").expect("x");
                        client.report(mixed_cost(i, x)).expect("report");
                    }
                    let (history, finished) = client.history().expect("history");
                    assert!(finished);
                    client.close();
                    serde_json::to_string(&history).expect("history serializes")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    server.shutdown();
    for (i, (solo, mixed)) in solo.iter().zip(&mixed).enumerate() {
        assert_eq!(solo, mixed, "client {i}: history differs from its solo run");
    }

    let mut spans: Vec<(u64, u64, u64)> = telemetry
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::SessionServe)
        .map(|s| (s.track_id, s.start_us, s.start_us + s.dur_us))
        .collect();
    assert_eq!(telemetry.dropped_spans(), 0);
    // Each of the 2·EACH clients measures about 60 trials. An in-process
    // trial is two session visits (`Fetch`, `Report`): EACH · 120. A TCP
    // trial is one (an `Exchange` reports it and fetches the next):
    // EACH · 60.
    assert!(
        spans.len() >= EACH * 120 + EACH * 60,
        "{} spans",
        spans.len()
    );
    // Sorted by session, then by start: a session's spans are adjacent.
    spans.sort_unstable();
    for pair in spans.windows(2) {
        assert!(
            pair[1].0 != pair[0].0 || pair[1].1 >= pair[0].2,
            "session_serve spans of session {} overlap: {:?} then {:?}",
            pair[0].0,
            pair[0],
            pair[1]
        );
    }
}

/// Shrink a socket's receive buffer to 16 KiB, so that a peer that does not
/// read stalls its sender after tens of kilobytes instead of megabytes
/// (and, unlike the kernel's minimum, still reopens its window promptly
/// once it does read).
#[cfg(target_os = "linux")]
fn shrink_receive_buffer(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: std::ffi::c_int,
            level: std::ffi::c_int,
            name: std::ffi::c_int,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> std::ffi::c_int;
    }
    const SOL_SOCKET: std::ffi::c_int = 1;
    const SO_RCVBUF: std::ffi::c_int = 8;
    let size: std::ffi::c_int = 16 * 1024;
    // SAFETY: `fd` is an open socket owned by `stream` for the whole call,
    // and `value`/`len` describe one live `c_int`, which SO_RCVBUF takes.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&size as *const std::ffi::c_int).cast(),
            std::mem::size_of::<std::ffi::c_int>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

/// A peer that pipelines 10 000 heartbeats in one burst and reads nothing
/// can neither keep the loop from other connections nor lose a reply:
/// its replies come to about 600 KB and the socket buffers between the two
/// stall the sender after a few tens of KB, so as long as it has not read,
/// the server still holds requests or replies of its; a second connection
/// answered in that time was answered past them. Once the first does read,
/// it gets one reply per request, in request order.
#[cfg(target_os = "linux")]
#[test]
fn pipelining_peer_that_will_not_drain_neither_starves_others_nor_loses_replies() {
    const HEARTBEATS: usize = 10_000;
    const MARK_EVERY: usize = 100;
    let server = TcpHarmonyServer::bind_with_transport(
        "127.0.0.1:0",
        64,
        ServerConfig::default(),
        TcpTransport::EventLoop(EventLoopConfig {
            loop_threads: 1,
            write_buffer_cap: 4096,
            ..Default::default()
        }),
    )
    .expect("bind");

    // Never registered, so each heartbeat draws the same "unknown client"
    // error. Every hundredth is followed by an attach to a session that
    // does not exist, whose error names the session: the markers show the
    // replies come back in request order.
    let hog = TcpStream::connect(server.local_addr()).expect("connect");
    shrink_receive_buffer(&hog);
    let mut burst = String::new();
    for i in 0..HEARTBEATS {
        burst.push_str("\"Heartbeat\"\n");
        if (i + 1) % MARK_EVERY == 0 {
            burst.push_str(&format!(
                "{{\"Attach\":{{\"session\":{}}}}}\n",
                1_000_000 + i
            ));
        }
    }
    let mut writing = hog.try_clone().expect("clone");
    let writer = std::thread::spawn(move || writing.write_all(burst.as_bytes()).expect("burst"));

    let mut other = TcpStream::connect(server.local_addr()).expect("connect");
    other
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("timeout");
    let mut other_replies = BufReader::new(other.try_clone().expect("clone"));
    let reply = frame(
        &mut other,
        &mut other_replies,
        serde_json::json!("Heartbeat"),
    );
    assert!(reply.get("Error").is_some(), "{reply:?}");

    hog.set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("timeout");
    let mut lines = BufReader::new(hog).lines();
    for i in 0..HEARTBEATS {
        let line = lines.next().expect("a reply per heartbeat").expect("read");
        assert!(line.contains("unknown client"), "reply {i}: {line}");
        if (i + 1) % MARK_EVERY == 0 {
            let line = lines.next().expect("a reply per marker").expect("read");
            let session = format!("unknown session {}", 1_000_000 + i);
            assert!(line.contains(&session), "marker after {i}: {line}");
        }
    }
    writer.join().expect("writer");
    // The loop is still serving everybody.
    let reply = frame(
        &mut other,
        &mut other_replies,
        serde_json::json!("Heartbeat"),
    );
    assert!(reply.get("Error").is_some(), "{reply:?}");
    server.shutdown();
}

/// Raw-socket helper: write one request frame (a single JSON line), read
/// back exactly one reply frame.
fn frame(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: serde_json::Value,
) -> serde_json::Value {
    let mut blob = serde_json::to_string(&request).expect("frame serializes");
    blob.push('\n');
    writer.write_all(blob.as_bytes()).expect("write frame");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read frame");
    assert!(!line.is_empty(), "server closed the connection");
    serde_json::from_str(&line).expect("reply frame is JSON")
}

/// The acceptance property of the batch protocol: one PRO round of K
/// candidates crosses the wire as exactly one `FetchBatch` request frame
/// (answered by one `Configs` frame carrying all K) and one `ReportBatch`
/// request frame (answered by one `Ok`). Counting is structural — every
/// `frame()` call is one line out, one line in.
#[test]
fn pro_round_is_one_fetchbatch_and_one_reportbatch() {
    let server = TcpHarmonyServer::bind("127.0.0.1:0").expect("bind");
    let mut writer = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));

    let reply = frame(
        &mut writer,
        &mut reader,
        serde_json::json!({"Register": {"app": "pro-frames"}}),
    );
    assert!(reply.get("Registered").is_some(), "{reply:?}");
    for p in ["x", "y"] {
        let param = Param::int(p, 0, 100, 1);
        let reply = frame(
            &mut writer,
            &mut reader,
            serde_json::json!({"AddParam": {"param": param}}),
        );
        assert_eq!(reply, serde_json::json!("Ok"), "{reply:?}");
    }
    let reply = frame(
        &mut writer,
        &mut reader,
        serde_json::json!({"Seal": {
            "options": options(3),
            "strategy": "Pro",
        }}),
    );
    assert_eq!(reply, serde_json::json!("Ok"), "{reply:?}");

    // Frame 1: FetchBatch with room to spare returns the whole round — PRO
    // proposes its entire simplex before needing any feedback, and the
    // session will not run ahead into the next round.
    let reply = frame(
        &mut writer,
        &mut reader,
        serde_json::json!({"FetchBatch": {"max": 64}}),
    );
    let round = reply["Configs"]["trials"]
        .as_array()
        .unwrap_or_else(|| panic!("expected Configs, got {reply:?}"))
        .to_vec();
    let k = round.len();
    assert!(k >= 2, "a PRO round has several candidates, got {k}");
    let iterations: HashSet<u64> = round
        .iter()
        .map(|t| t["iteration"].as_u64().expect("iteration"))
        .collect();
    assert_eq!(iterations.len(), k, "iteration tokens are distinct");

    // Frame 2: one ReportBatch answers all K candidates.
    let reports: Vec<serde_json::Value> = round
        .iter()
        .map(|t| {
            // Configuration serializes as parallel names/values vectors.
            let names = t["config"]["names"].as_array().expect("names");
            let idx = names
                .iter()
                .position(|n| n.as_str() == Some("x"))
                .expect("param x present");
            let x = t["config"]["values"][idx]["Int"].as_i64().expect("int x");
            serde_json::json!({
                "iteration": t["iteration"],
                "cost": (x - 40).abs() as f64,
                "wall_time": 0.0,
            })
        })
        .collect();
    let reply = frame(
        &mut writer,
        &mut reader,
        serde_json::json!({"ReportBatch": {"reports": reports}}),
    );
    assert_eq!(reply, serde_json::json!("Ok"), "{reply:?}");

    // The round advanced: the next fetch serves fresh trials, none reusing
    // a consumed iteration token.
    let reply = frame(
        &mut writer,
        &mut reader,
        serde_json::json!({"FetchBatch": {"max": 64}}),
    );
    let next = reply["Configs"]["trials"]
        .as_array()
        .unwrap_or_else(|| panic!("expected Configs, got {reply:?}"))
        .to_vec();
    assert!(!next.is_empty());
    for t in next.iter() {
        let it = t["iteration"].as_u64().expect("iteration");
        assert!(!iterations.contains(&it), "token {it} served twice");
    }
    server.shutdown();
}
