//! Threads per server, counted in `/proc/self/task`: a TCP server runs its
//! loop threads, the observe plane runs one, and nothing else — no accept
//! thread, and no thread per HTTP connection. Two thousand idle observe
//! connections cost buffers; the plane and the tuning port keep serving,
//! and the idle sockets are closed after the plane's 2 s read timeout.
//!
//! One test in its own binary, so that no other test's threads come and go
//! while it counts.
#![cfg(target_os = "linux")]

use ah_core::param::Param;
use ah_core::server::observe::http_get;
use ah_core::server::protocol::StrategyKind;
use ah_core::server::{
    EventLoopConfig, ServerConfig, TcpHarmonyClient, TcpHarmonyServer, TcpTransport,
};
use ah_core::session::SessionOptions;
use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The observe plane closes a connection silent for this long.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The soft `Max open files` of this process.
fn open_file_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .expect("procfs")
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .map_or(1024, |v| v.parse().unwrap_or(usize::MAX))
}

#[test]
fn a_server_runs_its_loops_and_no_thread_per_connection() {
    let baseline = threads();
    let server = TcpHarmonyServer::bind_with_transport(
        "127.0.0.1:0",
        64,
        ServerConfig::default(),
        TcpTransport::EventLoop(EventLoopConfig {
            loop_threads: 1,
            ..Default::default()
        }),
    )
    .expect("bind");
    assert_eq!(threads(), baseline + 1, "a TCP server with one loop");
    let observe = server.observe("127.0.0.1:0").expect("observe");
    assert_eq!(threads(), baseline + 2, "the observe plane's loop");
    let addr = observe.addr();

    // Both ends of every connection are in this process.
    let n = 2000.min(open_file_limit().saturating_sub(256) / 2);
    assert!(n >= 100, "too few open files for the test: {n}");
    let mut peak = baseline + 2;
    let mut idle = Vec::with_capacity(n);
    for i in 0..n {
        idle.push(TcpStream::connect(addr).expect("connect"));
        if i % 100 == 0 {
            peak = peak.max(threads());
        }
    }
    let opened = Instant::now();

    // Meanwhile the plane answers a fresh connection …
    let (code, body) = http_get(&addr.to_string(), "/healthz").expect("healthz");
    assert_eq!(code, 200, "{body}");
    peak = peak.max(threads());

    // … and the tuning port runs a campaign.
    let mut client = TcpHarmonyClient::connect(server.local_addr(), "threads").expect("register");
    client.add_param(Param::int("x", 0, 100, 1)).unwrap();
    client
        .seal(
            SessionOptions {
                max_evaluations: 100,
                seed: 3,
                ..Default::default()
            },
            StrategyKind::Random,
        )
        .unwrap();
    for _ in 0..50 {
        let (config, finished) = client.fetch().unwrap();
        assert!(!finished);
        client.report(config.int("x").unwrap() as f64).unwrap();
        peak = peak.max(threads());
    }
    client.leave().unwrap();

    let sampling = Instant::now();
    while sampling.elapsed() < Duration::from_secs(1) {
        peak = peak.max(threads());
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        peak,
        baseline + 2,
        "{n} idle HTTP connections added {} threads",
        peak - baseline - 2
    );

    // Past the read timeout the plane has closed the idle sockets.
    std::thread::sleep((READ_TIMEOUT + Duration::from_secs(1)).saturating_sub(opened.elapsed()));
    for stream in idle.iter_mut().step_by(97) {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(stream.read(&mut byte).expect("EOF, not a timeout"), 0);
    }

    drop(idle);
    observe.stop();
    server.shutdown();
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), baseline, "threads left after stop and shutdown");
}
