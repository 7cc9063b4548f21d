//! `store-cold`: batched sessions against an empty performance store.
//!
//! `FetchBatch`/`ReportBatch` of 16 amortise the per-frame wire cost 16×;
//! every lookup misses and every report is appended, so the durable write
//! path (`store::insert_batch`, the record encoder, the log append) carries
//! the round. Each round gets a fresh store file and server, outside the
//! timed region, so that every round inserts into an index of the same size.

use super::{bind_server, objective, open_session, unbounded_options, BATCH};
use crate::harness::{Meter, RoundWorkload, RunConfig, SetupPlan};
use ah_core::server::protocol::TrialReport;
use ah_core::server::{TcpHarmonyClient, TcpHarmonyServer};
use ah_core::store::{PerfStore, SharedStore};
use ah_core::telemetry::Telemetry;
use std::path::PathBuf;

/// Rounds of the campaign set.
pub const ROUNDS: usize = 80;
/// Sessions per round at the reference run length.
pub const SESSIONS: usize = 21;
/// Trials per session.
pub const TRIALS: usize = 400;

/// The workload's state.
pub struct StoreCold {
    cfg: RunConfig,
    sessions: usize,
    path: PathBuf,
    store: Option<SharedStore>,
    server: Option<TcpHarmonyServer>,
    first: Option<TcpHarmonyClient>,
    round_trials: u64,
    rounds_run: usize,
}

impl StoreCold {
    /// Generate the workload.
    pub fn new(cfg: &RunConfig) -> Self {
        StoreCold {
            cfg: cfg.clone(),
            sessions: cfg.scaled(SESSIONS),
            path: cfg.scratch.join("store-cold.jsonl"),
            store: None,
            server: None,
            first: None,
            round_trials: 0,
            rounds_run: 0,
        }
    }

    fn open(&mut self, m: &mut Meter) {
        let _ = std::fs::remove_file(&self.path);
        let telemetry = m.store_telemetry.clone();
        let (store, _) = m.call("store.open", 0, || {
            SharedStore::open_with(&self.path, telemetry)
        });
        let store = store.expect("open an empty store");
        let (server, _) = m.call("server.bind", 0, || {
            bind_server(Some(store.clone()), Telemetry::disabled())
        });
        self.store = Some(store);
        self.server = Some(server.expect("bind 127.0.0.1:0"));
    }

    fn session(&mut self, s: usize, m: &mut Meter) {
        let addr = self.server.as_ref().expect("set up").local_addr();
        let label = format!("store-cold-{s}");
        let options = unbounded_options(self.cfg.derive(2_000 + s as u64));
        let tag = s as u64;
        let Some(mut client) = open_session(m, addr, &label, options, tag) else {
            return;
        };
        let mut done = 0;
        while done < TRIALS {
            let trial = tag << 32 | done as u64;
            let want = BATCH.min(TRIALS - done);
            let span = m.tracer.begin("bench.batch", trial);
            let (fetched, fetch_s) =
                m.call("client.fetch_batch", trial, || client.fetch_batch(want));
            let Some((trials, _)) = fetched else { break };
            if trials.is_empty() {
                break;
            }
            let n = trials.len();
            let reports: Vec<TrialReport> = trials
                .iter()
                .map(|t| TrialReport {
                    iteration: t.iteration,
                    cost: objective(&t.config),
                    wall_time: 0.0,
                })
                .collect();
            let (reported, report_s) = m.call("client.report_batch", trial, || {
                client.report_batch(reports)
            });
            m.tracer.end(span);
            if reported.is_none() {
                break;
            }
            m.pair(fetch_s, report_s, n as u64, n as u64);
            done += n;
        }
        self.round_trials += done as u64;
        m.call("client.leave", tag, || client.leave());
    }

    fn close(&mut self) {
        if let Some(client) = self.first.take() {
            client.close();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.store = None;
    }
}

impl RoundWorkload for StoreCold {
    fn rounds(&self) -> usize {
        self.cfg.rounds_or(ROUNDS)
    }

    fn setup_plan(&self) -> SetupPlan {
        SetupPlan::PerRound(2)
    }

    fn set_up(&mut self, m: &mut Meter) {
        self.open(m);
        let addr = self.server.as_ref().expect("just bound").local_addr();
        let options = unbounded_options(self.cfg.derive(2_000));
        let mut client =
            open_session(m, addr, "store-cold-setup", options, 0).expect("first session");
        m.call("client.fetch_batch", 0, || client.fetch_batch(BATCH));
        self.first = Some(client);
    }

    fn tear_down(&mut self) {
        self.close();
    }

    fn before_round(&mut self, _round: usize, m: &mut Meter) {
        // A fresh, empty store for every round.
        self.close();
        self.open(m);
        self.round_trials = 0;
        self.rounds_run += 1;
    }

    fn round(&mut self, _round: usize, m: &mut Meter) {
        for s in 0..self.sessions {
            self.session(s, m);
        }
    }

    fn after_round(&mut self, round: usize, m: &mut Meter) {
        let store = self.store.as_ref().expect("open during the round");
        m.call("store.flush", round as u64, || store.flush());
        let mut expected = self.round_trials as usize;
        if self.cfg.corrupt_expectation && round == 0 {
            expected += 1;
        }
        m.check_eq(
            format!("round {round}: records in the store after flush"),
            expected,
            store.record_count(),
        );
    }

    fn finish(&mut self, m: &mut Meter) {
        // The last round's log, replayed by a fresh handle.
        self.close();
        let (reopened, _) = m.call("store.open", 0, || PerfStore::open(&self.path));
        m.check_eq(
            "records replayed on reopen",
            self.round_trials as usize,
            reopened.map_or(0, |s| s.len()),
        );
        let expected = (self.rounds_run * self.sessions * TRIALS) as u64;
        let trials = m.trials;
        m.check_eq("trials completed", expected, trials);
        let _ = std::fs::remove_file(&self.path);
    }
}
