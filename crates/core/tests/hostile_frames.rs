//! Hostile input at every door JSON comes in by: a socket, a log file, a
//! server's reply. It must end as a typed error and a counter — never a
//! dead process, never a hang.
//!
//! The first three tests are one bug seen from three sides. The JSON
//! parser recursed once per `[` with nothing to stop it, so a megabyte of
//! `[` ran it off its stack: a `SIGABRT` of the whole server (every session
//! of every tenant) from one unauthenticated frame that the 4 MiB frame cap
//! lets through, of any process opening a store or WAL with such a tail, of
//! any client handed such a reply. At the commit before the nesting limit
//! each of them aborts this test binary.
//!
//! The fourth test is the first piece of the hostile-input fuzzer, part (c)
//! of ROADMAP "Whole-fabric deterministic simulation as the single
//! correctness harness": a seeded run of 10⁵ garbage frames through the
//! server's own framing and request decoding. The fifth sends `Exchange`,
//! the one request that moves trials, what a hostile client would: one
//! before the seal, one asking for `usize::MAX` trials, one with a `1e999`
//! cost, one for an iteration never issued. The sixth sends the retired
//! `Fetch` and `ReportBatch` frames, before and after the seal.
//!
//! The last six are the observer plane, which read whatever it was sent:
//! a request head with no end, a peer's response with no end (the sync loop
//! and `/fleet` call every `sync_peers` entry on a timer), a `/store/log`
//! body that stops inside a character, a `/store/log` asked for at a byte
//! mark that is no line's start, no number or past `u64`, and a peer whose
//! accept queue is full, which never answers a connect at all — alone, and
//! beside a live peer and a time series that share the server's one chores
//! thread.

mod common;

use ah_core::error::HarmonyError;
use ah_core::param::Param;
use ah_core::server::observe::http_get;
use ah_core::server::protocol::{
    FrameDecoder, Reply, Request, StrategyKind, TrialReport, MAX_FRAME_LEN,
};
use ah_core::server::tcp::{TcpClientOptions, TcpHarmonyClient, TcpHarmonyServer};
use ah_core::server::{HarmonyServer, ServerConfig};
use ah_core::session::SessionOptions;
use ah_core::space::SearchSpace;
use ah_core::store::{space_fingerprint, PerfStore, SharedStore, StoreRecord};
use ah_core::telemetry::{Counter, Telemetry};
use ah_core::wal::{WalHeader, WalSession};
use common::Scratch;
use proptest::Gen;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deep enough to overflow any thread's stack at two frames per level, and
/// well under [`MAX_FRAME_LEN`]: the frame cap is not what saves the server.
const DEPTH: usize = 1 << 20;
const _: () = assert!(DEPTH < MAX_FRAME_LEN);

fn scratch(name: &str) -> Scratch {
    Scratch::new(&format!("hostile-{name}"))
}

/// A bare socket to `addr`: send one frame, read and decode one reply.
fn raw_connection(addr: SocketAddr) -> impl FnMut(&[u8]) -> Reply {
    let stream = TcpStream::connect(addr).expect("connect");
    // A dead server is a failed read, not a hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    move |frame: &[u8]| -> Reply {
        writer.write_all(frame).expect("send");
        writer.write_all(b"\n").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("the server answers");
        serde_json::from_str(&line).unwrap_or_else(|e| panic!("reply {line:?}: {e}"))
    }
}

#[test]
fn a_megabyte_of_brackets_is_a_malformed_request_not_a_dead_server() {
    let server = TcpHarmonyServer::bind("127.0.0.1:0").expect("bind");
    let mut exchange = raw_connection(server.local_addr());

    // The very first frame of a fresh, unregistered connection.
    match exchange("[".repeat(DEPTH).as_bytes()) {
        Reply::Error { message, retryable } => {
            assert!(message.starts_with("malformed request:"), "{message}");
            assert!(!retryable);
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
    // Nested objects, and nesting inside a key no request has.
    for frame in [
        "{\"a\":".repeat(DEPTH / 8),
        format!("{{\"Heartbeat\":null,\"x\":{}", "[".repeat(DEPTH)),
        format!(
            "{{\"Exchange\":{{\"max\":1,\"x\":{}",
            "[{\"k\":".repeat(DEPTH / 8)
        ),
    ] {
        let reply = exchange(frame.as_bytes());
        assert!(
            matches!(&reply, Reply::Error { message, .. } if message.starts_with("malformed request:")),
            "{reply:?}"
        );
    }

    // The same connection then registers and tunes …
    let frame = |req: &Request| serde_json::to_string(req).unwrap();
    let registered = exchange(
        frame(&Request::Register {
            app: "survivor".into(),
            tenant: String::new(),
        })
        .as_bytes(),
    );
    assert!(
        matches!(registered, Reply::Registered { .. }),
        "{registered:?}"
    );
    let declared = exchange(
        frame(&Request::AddParam {
            param: Param::int("x", 0, 60, 1),
        })
        .as_bytes(),
    );
    assert!(matches!(declared, Reply::Ok), "{declared:?}");
    let sealed = exchange(
        frame(&Request::Seal {
            options: SessionOptions::default(),
            strategy: StrategyKind::NelderMead,
        })
        .as_bytes(),
    );
    assert!(matches!(sealed, Reply::Ok), "{sealed:?}");
    // The serial loop: each `Exchange` reports the trial before it.
    let mut reports = Vec::new();
    for _ in 0..5 {
        let Reply::Configs { trials, .. } =
            exchange(frame(&Request::Exchange { reports, max: 1 }).as_bytes())
        else {
            panic!("expected a batch");
        };
        let trial = trials.first().expect("a trial");
        let cost = (trial.config.int("x").expect("x is declared") - 42).abs() as f64;
        reports = vec![TrialReport {
            iteration: trial.iteration,
            cost,
            wall_time: cost,
        }];
    }

    // … and a second client is served.
    let mut second = TcpHarmonyClient::connect(server.local_addr(), "bystander").expect("connect");
    second.add_param(Param::int("y", 0, 9, 1)).unwrap();
    second
        .seal(SessionOptions::default(), StrategyKind::Random)
        .unwrap();
    let (config, _) = second.fetch().unwrap();
    assert!(config.int("y").is_some());
    second.report(1.0).unwrap();
    server.shutdown();
}

#[test]
fn a_log_that_ends_in_endless_brackets_has_a_torn_tail() {
    let space = SearchSpace::builder().int("x", 0, 100, 1).build().unwrap();
    let fp = space_fingerprint(&space);

    // The store: two good records, then a line that starts like a third.
    let path = scratch("nested.store");
    {
        let mut store = PerfStore::open(&path).unwrap();
        let records = [3.0, 7.0]
            .map(|x| StoreRecord::new("app", fp, space.project(&[x]), x, x))
            .to_vec();
        assert_eq!(store.insert_batch(records).unwrap(), 2);
    }
    let good = std::fs::read(&path).unwrap();
    let mut torn = good.clone();
    torn.extend_from_slice(b"{\"app\":");
    torn.extend(std::iter::repeat_n(b'[', 100_000));
    std::fs::write(&path, &torn).unwrap();
    let telemetry = Telemetry::enabled();
    let store =
        PerfStore::open_with(&path, telemetry.clone()).expect("a torn tail is not corruption");
    assert_eq!(store.len(), 2);
    assert!(store.stats().torn_tail_truncated);
    assert_eq!(telemetry.counter(Counter::StoreTornTails), 1);
    drop(store);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        good,
        "truncated back to the last good record"
    );

    // The WAL, by the same recovery scan.
    let path = scratch("nested.wal");
    let header = WalHeader::new(
        "app",
        vec![Param::int("x", 0, 60, 1)],
        vec![],
        StrategyKind::NelderMead,
        SessionOptions::default(),
    );
    {
        let (mut wal, _) = WalSession::open_or_create(&path, &header).unwrap();
        for _ in 0..3 {
            let trial = wal.suggest().unwrap().unwrap();
            wal.report(trial, 1.0).unwrap();
        }
    }
    let good = std::fs::read(&path).unwrap();
    let mut torn = good.clone();
    torn.extend_from_slice(b"{\"iteration\":");
    torn.extend(std::iter::repeat_n(b'[', 100_000));
    std::fs::write(&path, &torn).unwrap();
    let telemetry = Telemetry::enabled();
    let (wal, _) = WalSession::resume_with(&path, telemetry.clone()).expect("a torn tail resumes");
    assert_eq!(wal.replayed(), 3);
    assert_eq!(telemetry.counter(Counter::WalTornTails), 1);
    drop(wal);
    assert_eq!(std::fs::read(&path).unwrap(), good);
}

#[test]
fn a_reply_of_endless_brackets_is_a_protocol_error_to_the_client() {
    // A "server" that answers whatever it is asked with a megabyte of `[`.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let liar = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("the client connects");
        let mut request = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut request)
            .expect("the client registers");
        let mut stream = stream;
        stream.write_all("[".repeat(DEPTH).as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        request
    });
    let opts = TcpClientOptions {
        io_timeout: Some(Duration::from_secs(20)),
        ..Default::default()
    };
    match TcpHarmonyClient::connect_with(addr, "victim", opts) {
        Err(HarmonyError::Protocol(message)) => {
            assert!(message.starts_with("bad reply:"), "{message}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert!(liar.join().unwrap().contains("victim"));
}

/// Uniform index below `n`, from the vendored proptest's seeded generator:
/// the garbage must be the same garbage on every run.
fn below(rng: &mut Gen, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// One frame of garbage, newline-free: raw bytes, JSON punctuation soup, a
/// real request with bytes damaged, or a real request buried in nesting.
fn garbage(rng: &mut Gen, real: &[Vec<u8>]) -> Vec<u8> {
    const SOUP: &[u8] = b"{}[]\",:\\u/ 0123456789.+-eEnultrfas\t\r\xc3\xa9\xf0\x9f\x98\x80\xff\x00";
    let mut frame = match below(rng, 4) {
        0 => (0..below(rng, 64)).map(|_| rng.next_u64() as u8).collect(),
        1 => (0..below(rng, 96))
            .map(|_| SOUP[below(rng, SOUP.len())])
            .collect(),
        2 => {
            let mut frame = real[below(rng, real.len())].clone();
            for _ in 0..1 + below(rng, 3) {
                let at = below(rng, frame.len());
                match below(rng, 3) {
                    0 => {
                        frame.remove(at);
                    }
                    1 => frame[at] = SOUP[below(rng, SOUP.len())],
                    _ => frame.insert(at, SOUP[below(rng, SOUP.len())]),
                }
                if frame.is_empty() {
                    break;
                }
            }
            frame
        }
        _ => {
            let depth = [1, 127, 128, 129, 1000][below(rng, 5)];
            let (open, close) =
                [("[", "]"), ("{\"Exchange\":", "}"), ("{\"x\":[", "]}")][below(rng, 3)];
            let core = String::from_utf8_lossy(&real[below(rng, real.len())]).into_owned();
            let close = if below(rng, 2) == 0 { close } else { "" };
            format!("{}{core}{}", open.repeat(depth), close.repeat(depth)).into_bytes()
        }
    };
    frame.retain(|&b| b != b'\n');
    frame
}

#[test]
fn a_hundred_thousand_garbage_frames_are_each_a_request_or_an_error() {
    const FRAMES: usize = 100_000;
    let real: Vec<Vec<u8>> = [
        Request::Register {
            app: "gs2 \"é\"\n".into(),
            tenant: "t".into(),
        },
        Request::AddParam {
            param: Param::enumeration("layout", ["lxyes", "yxles"]),
        },
        Request::Seal {
            options: SessionOptions::default(),
            strategy: StrategyKind::Grid { target: 9 },
        },
        Request::Exchange {
            reports: vec![],
            max: 16,
        },
        Request::Exchange {
            reports: vec![TrialReport {
                iteration: 4,
                cost: 1.25,
                wall_time: 2.5,
            }],
            max: 1,
        },
    ]
    .iter()
    .map(|r| serde_json::to_string(r).unwrap().into_bytes())
    .collect();

    let mut rng = Gen::new(0x5eed_f00d);
    let mut decoder = FrameDecoder::new(MAX_FRAME_LEN);
    let (mut sent, mut framed, mut requests, mut refused) = (0, 0, 0, 0);
    let mut stream = Vec::new();
    while sent < FRAMES {
        // A burst of frames, fed to the decoder in arbitrary chunks, as a
        // socket would deliver them.
        stream.clear();
        for _ in 0..1 + below(&mut rng, 8) {
            stream.extend_from_slice(&garbage(&mut rng, &real));
            stream.push(b'\n');
            sent += 1;
        }
        let mut rest = stream.as_slice();
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(1 + below(&mut rng, rest.len()));
            rest = tail;
            decoder.extend(chunk);
            while let Some(frame) = decoder.next_frame().expect("no frame nears the cap") {
                framed += 1;
                if frame.trim().is_empty() {
                    continue;
                }
                // Decoding returns: that is the whole assertion. What it
                // returns is one of two things, and both occur.
                match serde_json::from_str::<Request>(&frame) {
                    Ok(request) => {
                        requests += 1;
                        // What was understood can be said again.
                        serde_json::to_string(&request).unwrap();
                    }
                    Err(e) => {
                        refused += 1;
                        assert!(!e.to_string().is_empty());
                    }
                }
            }
        }
    }
    assert_eq!(framed, sent, "every frame sent came out of the decoder");
    assert_eq!(decoder.buffered(), 0);
    assert!(refused > FRAMES / 2, "{refused} refused");
    assert!(requests > 100, "{requests} understood");
}

#[test]
fn hostile_exchanges_are_each_a_typed_error_or_a_counted_clamp() {
    let telemetry = Telemetry::enabled();
    let config = ServerConfig {
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let server = TcpHarmonyServer::bind_with("127.0.0.1:0", 64, config).expect("bind");
    let mut call = raw_connection(server.local_addr());
    let mut exchange = |frame: &str| call(frame.as_bytes());
    let frame = |req: &Request| serde_json::to_string(req).unwrap();
    let refused = |reply: &Reply, why: &str| match reply {
        Reply::Error { message, retryable } => !retryable && message.contains(why),
        _ => false,
    };
    let registered = exchange(&frame(&Request::Register {
        app: "hostile".into(),
        tenant: String::new(),
    }));
    assert!(matches!(registered, Reply::Registered { .. }));
    exchange(&frame(&Request::AddParam {
        param: Param::int("x", 0, 1_000_000, 1),
    }));

    // Before the seal.
    let early = exchange(&frame(&Request::Exchange {
        reports: vec![],
        max: 1,
    }));
    assert!(refused(&early, "space not sealed yet"), "{early:?}");
    let sealed = exchange(&frame(&Request::Seal {
        options: SessionOptions {
            max_evaluations: 4096,
            ..Default::default()
        },
        strategy: StrategyKind::Random,
    }));
    assert!(matches!(sealed, Reply::Ok), "{sealed:?}");

    // `max` off the wire is clamped to the per-request cap of 1024.
    let Reply::Configs { trials, finished } = exchange(&frame(&Request::Exchange {
        reports: vec![],
        max: usize::MAX,
    })) else {
        panic!("expected Configs");
    };
    assert!(!finished);
    assert_eq!(trials.len(), 1024);

    // `1e999` parses to +inf: clamped, counted once, never the best.
    let poisoned = trials[0].iteration;
    let reply = exchange(&format!(
        "{{\"Exchange\":{{\"reports\":[{{\"iteration\":{poisoned},\
         \"cost\":1e999,\"wall_time\":0.0}}],\"max\":1}}}}"
    ));
    assert!(matches!(reply, Reply::Configs { .. }), "{reply:?}");
    assert_eq!(telemetry.counter(Counter::NonFiniteCostsSanitized), 1);

    // An iteration the session never issued.
    let unknown = exchange(&frame(&Request::Exchange {
        reports: vec![TrialReport {
            iteration: usize::MAX,
            cost: 1.0,
            wall_time: 1.0,
        }],
        max: 1,
    }));
    assert!(refused(&unknown, "unknown trial"), "{unknown:?}");

    // The connection still tunes.
    let finite = exchange(&frame(&Request::Exchange {
        reports: vec![TrialReport {
            iteration: trials[1].iteration,
            cost: 5.0,
            wall_time: 5.0,
        }],
        max: 1,
    }));
    assert!(matches!(finite, Reply::Configs { .. }), "{finite:?}");
    let Reply::Best {
        best: Some((_, cost)),
    } = exchange(&frame(&Request::QueryBest))
    else {
        panic!("expected a best");
    };
    assert_eq!(cost, 5.0);
    server.shutdown();
}

#[test]
fn retired_fetch_and_report_batch_frames_are_refused_and_change_nothing() {
    let telemetry = Telemetry::enabled();
    let config = ServerConfig {
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let server = TcpHarmonyServer::bind_with("127.0.0.1:0", 64, config).expect("bind");
    let mut call = raw_connection(server.local_addr());
    let mut exchange = |req: &Request| call(serde_json::to_string(req).unwrap().as_bytes());
    let report = |iteration| TrialReport {
        iteration,
        cost: 1.0,
        wall_time: 1.0,
    };
    let retired = |iteration| {
        [
            Request::Fetch,
            Request::ReportBatch {
                reports: vec![report(iteration)],
            },
        ]
    };
    let refused = |reply: &Reply| {
        matches!(reply, Reply::Error { message, retryable: false }
            if message.starts_with("protocol error:") && message.contains("send Exchange"))
    };
    let registered = exchange(&Request::Register {
        app: "retired".into(),
        tenant: String::new(),
    });
    assert!(matches!(registered, Reply::Registered { .. }));
    let declared = exchange(&Request::AddParam {
        param: Param::int("x", 0, 1_000_000, 1),
    });
    assert!(matches!(declared, Reply::Ok), "{declared:?}");

    // Before the seal: refused, and the declaration is untouched.
    for req in retired(1) {
        let reply = exchange(&req);
        assert!(refused(&reply), "{req:?}: {reply:?}");
    }
    let sealed = exchange(&Request::Seal {
        options: SessionOptions {
            max_evaluations: 100,
            ..Default::default()
        },
        strategy: StrategyKind::Random,
    });
    assert!(matches!(sealed, Reply::Ok), "{sealed:?}");
    let fetch = Request::Exchange {
        reports: vec![],
        max: 2,
    };
    let Reply::Configs { trials, .. } = exchange(&fetch) else {
        panic!("expected a batch");
    };
    let held: Vec<usize> = trials.iter().map(|t| t.iteration).collect();
    assert_eq!(held, [1, 2]);

    // After the seal: refused, no report is applied and no trial issued.
    let fetched = telemetry.counter(Counter::TrialsFetched);
    for req in retired(held[0]) {
        let reply = exchange(&req);
        assert!(refused(&reply), "{req:?}: {reply:?}");
    }
    assert_eq!(telemetry.counter(Counter::TrialsFetched), fetched);
    let Reply::History { history, .. } = exchange(&Request::QueryHistory) else {
        panic!("expected the history");
    };
    assert!(history.is_empty(), "a refused report was applied");
    let Reply::Configs { trials, .. } = exchange(&fetch) else {
        panic!("expected a batch");
    };
    let again: Vec<usize> = trials.iter().map(|t| t.iteration).collect();
    assert_eq!(again, held, "the held trials are still the only ones out");

    // The connection still tunes.
    let reply = exchange(&Request::Exchange {
        reports: held.iter().map(|&i| report(i)).collect(),
        max: 1,
    });
    let Reply::Configs { trials, .. } = reply else {
        panic!("expected a batch, got {reply:?}");
    };
    assert_eq!(trials[0].iteration, 3);
    let Reply::History { history, .. } = exchange(&Request::QueryHistory) else {
        panic!("expected the history");
    };
    assert_eq!(history.len(), 2);
    server.shutdown();
}

#[test]
fn a_request_head_with_no_end_is_a_431_and_the_observer_keeps_answering() {
    let server = HarmonyServer::start_with_config(ServerConfig::default());
    let observe = server.observe("127.0.0.1:0").expect("bind observer");
    let addr = observe.addr().to_string();

    // What a client that sends `head` and then listens gets back.
    let answer_to = |head: &[u8]| {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        // The server stops reading a few KiB in and hangs up, so the tail
        // of this write may be refused: that is the point.
        let _ = stream.write_all(head);
        let mut answer = Vec::new();
        let read = stream.read_to_end(&mut answer);
        // Hanging up on unread input resets the connection, and whether the
        // answer or the reset reaches this end first is the kernel's call.
        // What must not happen is a clean end and no answer: the whole head
        // read, however long, and then silence.
        assert!(
            read.is_err() || answer.starts_with(b"HTTP/1.1 431 "),
            "{} bytes of head were met with {:?}",
            head.len(),
            String::from_utf8_lossy(&answer)
        );
    };
    // A megabyte and no newline.
    answer_to(&vec![b'a'; 1 << 20]);
    // A request line, then a megabyte of short header lines and no blank
    // one: the cap is on the head, not on a line.
    let mut head = b"GET /status HTTP/1.1\r\n".to_vec();
    head.extend("X-Filler: aaaaaaaaaaaaaaaaaaaa\r\n".repeat(1 << 15).bytes());
    answer_to(&head);

    // An ordinary head is still an ordinary request.
    let (code, body) = http_get(&addr, "/status").expect("the observer still answers");
    assert_eq!(code, 200);
    assert!(body.contains("\"sessions\""), "{body}");
    observe.stop();
    server.shutdown();
}

/// A stand-in for a peer's observer port: `serve` gets every connection,
/// its request head already read. Returns the address to call and a guard
/// that stops the listener when dropped.
fn fake_peer(serve: impl Fn(TcpStream) + Send + 'static) -> (SocketAddr, impl Drop) {
    struct Stop(
        SocketAddr,
        Arc<AtomicBool>,
        Option<std::thread::JoinHandle<()>>,
    );
    impl Drop for Stop {
        fn drop(&mut self) {
            self.1.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.0);
            self.2.take().unwrap().join().expect("fake peer");
        }
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if stopped.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream.expect("accept");
            let mut head = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            while head.read_line(&mut line).is_ok_and(|n| n > 2) {
                line.clear();
            }
            serve(stream);
        }
    });
    (addr, Stop(addr, stop, Some(thread)))
}

#[test]
fn a_peer_that_never_stops_writing_costs_http_get_a_bounded_read() {
    /// What `http_get` may take (32 MiB), and where this peer gives up if
    /// nobody hangs up on it — so that an unbounded reader fails this test
    /// instead of filling the machine.
    const CAP: usize = 32 << 20;
    const GIVE_UP: usize = 3 * CAP;
    let (addr, _peer) = fake_peer(|mut stream| {
        let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n");
        let chunk = [b'x'; 1 << 16];
        let mut written = 0;
        while written < GIVE_UP && stream.write_all(&chunk).is_ok() {
            written += chunk.len();
        }
    });
    let (code, body) = http_get(&addr.to_string(), "/status").expect("what arrived is handed on");
    assert_eq!(code, 200);
    assert!(
        body.len() <= CAP,
        "read {} MiB of a response that has no end",
        body.len() >> 20
    );
    assert!(body.len() > CAP / 2 && body.bytes().all(|b| b == b'x'));
}

#[test]
fn a_store_log_cut_inside_a_character_still_yields_its_whole_records() {
    let space = SearchSpace::builder().int("x", 0, 100, 1).build().unwrap();
    let fp = space_fingerprint(&space);
    // A peer's `/store/log` body — header line, three records — that stops
    // one byte into the `é` of the third record.
    let blob = {
        let source_path = scratch("cut-source.store");
        let mut source = PerfStore::open(&source_path).unwrap();
        let records = [3.0, 7.0, 9.0]
            .map(|x| StoreRecord::new("café", fp, space.project(&[x]), x, x))
            .to_vec();
        assert_eq!(source.insert_batch(records).unwrap(), 3);
        let file = std::fs::read_to_string(&source_path).unwrap();
        file.split_once('\n').unwrap().1.to_string()
    };
    let mut body =
        format!("{{\"kind\":\"ah-store-log\",\"start\":0,\"generation\":1}}\n{blob}").into_bytes();
    let cut = body.iter().rposition(|&b| b == 0xc3).expect("an é") + 1;
    body.truncate(cut);
    let whole = String::from_utf8(body[..cut - 1].to_vec()).expect("whole up to the cut");
    assert_eq!(whole.matches("caf").count(), 3, "the cut is in the third");

    let (addr, _peer) = fake_peer(move |mut stream| {
        let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n");
        let _ = stream.write_all(&body);
    });
    let (code, got) = http_get(&addr.to_string(), "/store/log?at=0")
        .expect("a cut body is a short body, not an error");
    assert_eq!((code, got.as_str()), (200, whole.as_str()));

    // And the puller that calls it, end to end: the two whole records are
    // merged; the torn third is refetched (and torn again) every round.
    let path = scratch("cut-puller.store");
    let store = SharedStore::open(&path).unwrap();
    let server = HarmonyServer::start_with_config(ServerConfig {
        store: Some(store.clone()),
        sync_peers: vec![addr.to_string()],
        sync_interval: Duration::from_millis(10),
        ..Default::default()
    });
    let deadline = Instant::now() + Duration::from_secs(20);
    while store.record_count() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(store.record_count(), 2);
    server.shutdown();
}

#[test]
fn a_store_log_asked_for_at_a_hostile_mark_is_served_whole_and_a_pull_copies_it() {
    let space = SearchSpace::builder().int("x", 0, 100, 1).build().unwrap();
    let fp = space_fingerprint(&space);
    let path_a = scratch("hostile-mark-a.store");
    let store_a = SharedStore::open(&path_a).unwrap();
    let records = (0..20).map(|x| {
        let x = x as f64;
        StoreRecord::new("café", fp, space.project(&[x]), x, 1.0)
    });
    assert_eq!(store_a.insert_batch(records.collect()).unwrap(), 20);
    let server_a = HarmonyServer::start_with_config(ServerConfig {
        store: Some(store_a.clone()),
        ..Default::default()
    });
    let observe_a = server_a.observe("127.0.0.1:0").unwrap();
    let addr = observe_a.addr().to_string();
    let file = std::fs::read_to_string(&path_a).unwrap();
    let log = file.split_once('\n').unwrap().1;
    let line = log.find('\n').unwrap() + 1;
    let served = |at: &str| {
        let (code, body) = http_get(&addr, &format!("/store/log?at={at}")).expect("served");
        assert_eq!(code, 200, "at={at}");
        let (header, records) = body.split_once('\n').expect("a header line");
        let start = header.split("\"start\":").nth(1).expect(header);
        (
            start.split(',').next().unwrap().to_string(),
            records.to_string(),
        )
    };
    for at in [
        (line / 2).to_string(),
        (line + 3).to_string(),
        (log.len() + 1).to_string(),
        u64::MAX.to_string(),
        "18446744073709551616".into(),
        "99999999999999999999999".into(),
        "-1".into(),
        "x7".into(),
        "0x10".into(),
        String::new(),
    ] {
        assert_eq!(served(&at), ("0".into(), log.into()), "at={at}");
    }
    // A mark at a line's start serves the rest, and one at the end nothing.
    let rest = served(&line.to_string());
    assert_eq!(rest, (line.to_string(), log[line..].into()));
    assert_eq!(served(&log.len().to_string()).1, "");

    // A pull over the plane copies the peer's lines into the puller's file.
    let path_b = scratch("hostile-mark-b.store");
    let store_b = SharedStore::open(&path_b).unwrap();
    let server_b = HarmonyServer::start_with_config(ServerConfig {
        store: Some(store_b.clone()),
        sync_peers: vec![addr],
        sync_interval: Duration::from_millis(10),
        ..Default::default()
    });
    let deadline = Instant::now() + Duration::from_secs(20);
    while store_b.record_count() < 20 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    server_b.shutdown();
    store_b.flush().unwrap();
    assert_eq!(std::fs::read_to_string(&path_b).unwrap(), file);
    observe_a.stop();
    server_a.shutdown();
}

/// A listener nobody accepts from, its accept queue filled: the kernel
/// drops the SYNs of any further connect. Returned with the connections
/// that fill it.
fn full_accept_queue() -> (TcpListener, Vec<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut held = Vec::new();
    while let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
        held.push(stream);
        assert!(held.len() < 4096, "the accept queue never filled");
    }
    (listener, held)
}

/// Run `f` on a helper thread and wait `within` for it: a call that hangs
/// fails the test by assertion instead of hanging it.
fn returns_within<T: Send + 'static>(
    within: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(within).ok()
}

#[test]
fn a_peer_that_never_accepts_costs_http_get_and_shutdown_a_read_timeout() {
    // The observer plane's 2 s read timeout, and slack.
    let within = Duration::from_secs(2 + 3);
    let (listener, _held) = full_accept_queue();
    let peer = listener.local_addr().unwrap().to_string();

    let asked = peer.clone();
    let got = returns_within(within, move || http_get(&asked, "/status").map(|_| ()))
        .expect("http_get returned");
    assert!(got.is_err(), "{got:?}");

    // A server pulling from that peer: its puller is in the connect when
    // the server shuts down, and the shutdown waits for it.
    let path = scratch("unaccepted-puller.store");
    let store = SharedStore::open(&path).unwrap();
    let server = HarmonyServer::start_with_config(ServerConfig {
        store: Some(store),
        sync_peers: vec![peer],
        sync_interval: Duration::from_millis(10),
        ..Default::default()
    });
    std::thread::sleep(Duration::from_millis(100));
    returns_within(within, move || server.shutdown()).expect("shutdown returned");
}

#[test]
fn a_peer_that_never_accepts_delays_but_never_starves_the_other_timed_work() {
    let (listener, _held) = full_accept_queue();
    let dead = listener.local_addr().unwrap().to_string();

    // A live peer with three records in its store.
    let space = SearchSpace::builder().int("x", 0, 100, 1).build().unwrap();
    let fp = space_fingerprint(&space);
    let source = SharedStore::open(scratch("beside-dead-source.store")).unwrap();
    let records =
        [1.0, 2.0, 3.0].map(|x| StoreRecord::new("beside", fp, space.project(&[x]), x, x));
    source.insert_batch(records.to_vec()).unwrap();
    let live_server = HarmonyServer::start_with_config(ServerConfig {
        store: Some(source),
        ..Default::default()
    });
    let live = live_server.observe("127.0.0.1:0").unwrap();

    // The dead peer is pulled first, so each round's connect to it holds
    // the chores thread for the 2 s connect timeout before anything else.
    let telemetry = Telemetry::enabled();
    let series = ah_core::telemetry::timeseries::TimeSeries::new(telemetry.clone());
    let store = SharedStore::open(scratch("beside-dead-puller.store")).unwrap();
    let started = Instant::now();
    let server = HarmonyServer::start_with_config(ServerConfig {
        telemetry,
        store: Some(store.clone()),
        sync_peers: vec![dead, live.addr().to_string()],
        sync_interval: Duration::from_millis(100),
        timeseries: Some(series.clone()),
        sample_interval: Duration::from_millis(50),
        ..Default::default()
    });
    while store.record_count() < 3 {
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "the live peer's records did not arrive within 3 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let sampled = series.len();
    let deadline = Instant::now() + Duration::from_secs(6);
    while series.len() < sampled + 2 {
        assert!(Instant::now() < deadline, "the series stopped at {sampled}");
        std::thread::sleep(Duration::from_millis(10));
    }
    returns_within(Duration::from_secs(5), move || server.shutdown()).expect("shutdown returned");
    live.stop();
    live_server.shutdown();
}
