//! `tcp-serial`: one client connection, serial `Fetch`/`Report`, no store.
//!
//! Two JSON frames each way per trial, a zero-cost objective and the
//! `Random` strategy: `protocol`, `tcp`/`event_loop` and the server's
//! dispatch do almost all the work, `strategy` and `store` almost none. A
//! change to the wire format shows here and nowhere else.

use super::{
    bind_server, digest_step, open_session, reference_digest, unbounded_options, DIGEST_SEED,
};
use crate::harness::{Meter, RoundWorkload, RunConfig, SetupPlan};
use ah_core::server::{TcpHarmonyClient, TcpHarmonyServer};
use ah_core::telemetry::Telemetry;

/// Rounds of the campaign set.
pub const ROUNDS: usize = 84;
/// Sessions per round at the reference run length.
pub const SESSIONS: usize = 15;
/// Trials per session.
pub const TRIALS: usize = 200;

/// The workload's state.
pub struct TcpSerial {
    cfg: RunConfig,
    sessions: usize,
    server: Option<TcpHarmonyServer>,
    first: Option<TcpHarmonyClient>,
    /// Trajectory digest of each session's seed through an in-process
    /// `TuningSession`.
    expected: Vec<u64>,
    mismatches: usize,
    rounds_run: usize,
}

impl TcpSerial {
    /// Generate the workload: session seeds and their reference digests.
    pub fn new(cfg: &RunConfig) -> Self {
        let sessions = cfg.scaled(SESSIONS);
        let mut expected: Vec<u64> = (0..sessions)
            .map(|s| reference_digest(session_seed(cfg, s), TRIALS))
            .collect();
        if cfg.corrupt_expectation {
            expected[0] ^= 1;
        }
        TcpSerial {
            cfg: cfg.clone(),
            sessions,
            server: None,
            first: None,
            expected,
            mismatches: 0,
            rounds_run: 0,
        }
    }

    fn session(&mut self, s: usize, m: &mut Meter) {
        let addr = self.server.as_ref().expect("set up").local_addr();
        let label = format!("tcp-serial-{s}");
        let options = unbounded_options(session_seed(&self.cfg, s));
        let tag = s as u64;
        let Some(mut client) = open_session(m, addr, &label, options, tag) else {
            self.mismatches += 1;
            return;
        };
        let mut digest = DIGEST_SEED;
        for t in 0..TRIALS {
            let trial = tag << 32 | t as u64;
            let span = m.tracer.begin("bench.trial", trial);
            let (fetched, fetch_s) = m.call("client.fetch", trial, || client.fetch());
            let Some((config, finished)) = fetched else {
                break;
            };
            if finished {
                break;
            }
            let cost = super::objective(&config);
            digest = digest_step(digest, &config);
            let (reported, report_s) = m.call("client.report", trial, || client.report(cost));
            m.tracer.end(span);
            if reported.is_none() {
                break;
            }
            m.pair(fetch_s, report_s, 1, 1);
        }
        m.call("client.leave", tag, || client.leave());
        if digest != self.expected[s] {
            self.mismatches += 1;
        }
    }
}

fn session_seed(cfg: &RunConfig, s: usize) -> u64 {
    cfg.derive(1_000 + s as u64)
}

impl RoundWorkload for TcpSerial {
    fn rounds(&self) -> usize {
        self.cfg.rounds_or(ROUNDS)
    }

    fn setup_plan(&self) -> SetupPlan {
        SetupPlan::PerRound(2)
    }

    fn set_up(&mut self, m: &mut Meter) {
        let (server, _) = m.call("server.bind", 0, || {
            bind_server(None, Telemetry::disabled())
        });
        let server = server.expect("bind 127.0.0.1:0");
        let options = unbounded_options(session_seed(&self.cfg, 0));
        let mut client = open_session(m, server.local_addr(), "tcp-serial-setup", options, 0)
            .expect("first session");
        m.call("client.fetch", 0, || client.fetch());
        self.server = Some(server);
        self.first = Some(client);
    }

    fn tear_down(&mut self) {
        if let Some(client) = self.first.take() {
            client.close();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    fn before_round(&mut self, _round: usize, _m: &mut Meter) {
        if let Some(client) = self.first.take() {
            client.close();
        }
        self.mismatches = 0;
        self.rounds_run += 1;
    }

    fn round(&mut self, _round: usize, m: &mut Meter) {
        for s in 0..self.sessions {
            self.session(s, m);
        }
    }

    fn after_round(&mut self, round: usize, m: &mut Meter) {
        m.check_eq(
            format!("round {round}: sessions whose trajectory digest differs from the in-process session"),
            0,
            self.mismatches,
        );
    }

    fn finish(&mut self, m: &mut Meter) {
        let expected = (self.rounds_run * self.sessions * TRIALS) as u64;
        let trials = m.trials;
        m.check_eq("trials completed", expected, trials);
        self.tear_down();
    }
}
