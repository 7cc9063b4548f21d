//! The five workloads and what they share: the server they bind, the
//! session they declare, the objective, and the trajectory digest.

pub mod campaign_paper;
pub mod inproc_search;
pub mod store_cold;
pub mod store_warm;
pub mod tcp_serial;

use crate::harness::Meter;
use ah_core::param::Param;
use ah_core::server::protocol::StrategyKind;
use ah_core::server::tcp::{TcpClientOptions, TcpTransport, DEFAULT_MAX_CONNECTIONS};
use ah_core::server::{EventLoopConfig, ServerConfig, TcpHarmonyClient, TcpHarmonyServer};
use ah_core::session::{SessionOptions, TuningSession};
use ah_core::space::{Configuration, SearchSpace};
use ah_core::store::SharedStore;
use ah_core::telemetry::Telemetry;
use std::net::SocketAddr;

/// Trials per batched fetch/report pair.
pub const BATCH: usize = 16;

/// Parameters every serving session declares: four integers whose product
/// space (10^24 points) is far too large for `Random` to repeat a point, so
/// no session ever replays from its own cache.
pub const PARAMS: usize = 4;
const PARAM_MAX: i64 = 999_999;

/// The `i`-th of those parameters.
pub fn param(i: usize) -> Param {
    Param::int(format!("p{i}"), 0, PARAM_MAX, 1)
}

/// The space those parameters span.
pub fn serving_space() -> SearchSpace {
    SearchSpace::new((0..PARAMS).map(param).collect()).expect("four integer parameters")
}

/// The zero-cost objective: a fixed function of the configuration, so a
/// stored cost and a re-measured one are the same bits.
pub fn objective(config: &Configuration) -> f64 {
    config
        .cache_key()
        .iter()
        .enumerate()
        .map(|(i, v)| ((v % 1_000) * (i as i64 + 1)) as f64)
        .sum()
}

/// Options of a session that ends only when the client leaves.
pub fn unbounded_options(seed: u64) -> SessionOptions {
    SessionOptions {
        max_evaluations: usize::MAX / 4,
        max_cached_replays: usize::MAX / 4,
        seed,
        ..Default::default()
    }
}

/// A server as every workload runs it: one shard worker and one event-loop
/// thread, which with the one client thread is all the pinned CPU carries.
pub fn bind_server(
    store: Option<SharedStore>,
    telemetry: Telemetry,
) -> std::io::Result<TcpHarmonyServer> {
    TcpHarmonyServer::bind_with_transport(
        "127.0.0.1:0",
        DEFAULT_MAX_CONNECTIONS,
        ServerConfig {
            shards: 1,
            telemetry,
            store,
            ..Default::default()
        },
        TcpTransport::EventLoop(EventLoopConfig {
            loop_threads: 1,
            ..Default::default()
        }),
    )
}

/// Connect, `Register`, declare the parameters, seal with `Random`. Every
/// call is counted on the meter; `None` after a failure.
pub fn open_session(
    m: &mut Meter,
    addr: SocketAddr,
    label: &str,
    options: SessionOptions,
    tag: u64,
) -> Option<TcpHarmonyClient> {
    let opts = TcpClientOptions {
        telemetry: m.client_telemetry(),
        ..Default::default()
    };
    let span = m.tracer.begin("bench.open_session", tag);
    let (client, _) = m.call("tcp.connect_register", tag, || {
        TcpHarmonyClient::connect_with(addr, label, opts)
    });
    let mut client = client?;
    let mut ok = true;
    for i in 0..PARAMS {
        ok &= m
            .call("client.add_param", tag, || client.add_param(param(i)))
            .0
            .is_some();
    }
    ok &= m
        .call("server.seal", tag, || {
            client.seal(options, StrategyKind::Random)
        })
        .0
        .is_some();
    m.tracer.end(span);
    ok.then_some(client)
}

/// Start value of a trajectory digest (FNV-1a offset basis).
pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Fold one proposed configuration into a trajectory digest.
pub fn digest_step(mut digest: u64, config: &Configuration) -> u64 {
    for v in config.cache_key() {
        digest = (digest ^ v as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest
}

/// The digest of the first `trials` proposals of `seed` through an
/// in-process `TuningSession`: what a transport must reproduce bit for bit.
pub fn reference_digest(seed: u64, trials: usize) -> u64 {
    let mut session = TuningSession::new(
        serving_space(),
        StrategyKind::Random.build(),
        unbounded_options(seed),
    );
    let mut digest = DIGEST_SEED;
    for _ in 0..trials {
        let trial = session
            .suggest()
            .expect("an unbounded session always proposes");
        digest = digest_step(digest, &trial.config);
        let cost = objective(&trial.config);
        session
            .report(trial, cost)
            .expect("report of the outstanding trial");
    }
    digest
}
