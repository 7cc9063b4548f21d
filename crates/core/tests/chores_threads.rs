//! A server's timed work runs on one thread, counted in `/proc/self/task`:
//! a TCP server with a store, a time series, two sync peers and the observe
//! plane runs its loop, the plane's loop and `harmony-chores`, and nothing
//! else; a `/fleet` that reads both peers starts no thread; the chores
//! thread sleeps until its next deadline instead of waking on a tick; and
//! an in-process server with the same work runs the one chores thread.
//!
//! One test in its own binary, so that no other test's threads come and go
//! while it counts.
#![cfg(target_os = "linux")]

mod common;

use ah_core::server::{
    EventLoopConfig, HarmonyServer, ObserveHandle, ServerConfig, TcpHarmonyServer, TcpTransport,
};
use ah_core::store::SharedStore;
use ah_core::telemetry::timeseries::TimeSeries;
use ah_core::telemetry::Telemetry;
use common::Scratch;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The voluntary context switches of the one thread named `name`.
fn voluntary_switches(name: &str) -> u64 {
    let mut found = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let Ok(status) = std::fs::read_to_string(task.unwrap().path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::trim)
                .map(str::to_owned)
        };
        if field("Name:").as_deref() == Some(name) {
            let switches = field("voluntary_ctxt_switches:").expect("switch count");
            found.push(switches.parse().expect("a number"));
        }
    }
    assert_eq!(found.len(), 1, "threads named {name}");
    found[0]
}

/// A store at a temporary path of its own, and the path's guard.
fn scratch_store(name: &str) -> (SharedStore, Scratch) {
    let path = Scratch::new(&format!("chores-{name}.store"));
    (SharedStore::open(&path).expect("open store"), path)
}

/// A peer: an in-process server with a store, serving its observe plane.
fn peer(name: &str) -> (HarmonyServer, ObserveHandle, Scratch) {
    let (store, path) = scratch_store(name);
    let server = HarmonyServer::start_with_config(ServerConfig {
        store: Some(store),
        ..Default::default()
    });
    let observe = server.observe("127.0.0.1:0").expect("peer observe");
    (server, observe, path)
}

/// A config with a store, a series and both peers, both intervals at 10 s.
fn config(store: &SharedStore, peers: &[String]) -> ServerConfig {
    let telemetry = Telemetry::enabled();
    ServerConfig {
        timeseries: Some(TimeSeries::new(telemetry.clone())),
        telemetry,
        store: Some(store.clone()),
        sync_peers: peers.to_vec(),
        sync_interval: Duration::from_secs(10),
        sample_interval: Duration::from_secs(10),
        ..Default::default()
    }
}

/// Wait up to 2 s for the thread count to return to `baseline`.
fn settles_to(baseline: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), baseline, "threads left after {what}");
}

#[test]
fn a_server_runs_its_timed_work_on_one_sleeping_thread() {
    let peers = [peer("peer-a"), peer("peer-b")];
    let addrs: Vec<String> = peers.iter().map(|(_, o, _)| o.addr().to_string()).collect();
    // The store's flusher is a thread of its own, started at open.
    let (store, _path) = scratch_store("local");
    let baseline = threads();

    let server = TcpHarmonyServer::bind_with_transport(
        "127.0.0.1:0",
        64,
        config(&store, &addrs),
        TcpTransport::EventLoop(EventLoopConfig {
            loop_threads: 1,
            ..Default::default()
        }),
    )
    .expect("bind");
    let observe = server.observe("127.0.0.1:0").expect("observe");
    assert_eq!(threads(), baseline + 3, "loop, plane and chores");

    // Past the first round (a sample, a pull of each peer), nothing is due
    // for 10 s: the chores thread sleeps through the whole window.
    std::thread::sleep(Duration::from_millis(300));
    let before = voluntary_switches("harmony-chores");
    std::thread::sleep(Duration::from_secs(2));
    let woke = voluntary_switches("harmony-chores") - before;
    assert!(woke <= 2, "harmony-chores switched {woke} times in 2 s");

    // A `/fleet` reads both peers on the chores thread: no thread comes
    // and goes while it is built.
    let mut stream = TcpStream::connect(observe.addr()).expect("connect");
    write!(stream, "GET /fleet HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let (mut peak, mut response) = (threads(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        peak = peak.max(threads());
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&chunk[..n]),
            Err(_) => assert!(Instant::now() < deadline, "no /fleet response"),
        }
    }
    let response = String::from_utf8(response).expect("UTF-8");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"peers\":3"), "{response}");
    assert!(response.contains("\"fresh\":3"), "{response}");
    assert_eq!(peak, baseline + 3, "a /fleet added a thread");

    observe.stop();
    server.shutdown();
    settles_to(baseline, "the TCP server's stop and shutdown");

    // In process, the same work is the one chores thread.
    let server = HarmonyServer::start_with_config(config(&store, &addrs));
    assert_eq!(threads(), baseline + 1, "an in-process server's chores");
    server.shutdown();
    settles_to(baseline, "the in-process server's shutdown");
}
