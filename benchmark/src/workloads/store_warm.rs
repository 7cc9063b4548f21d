//! `store-warm`: the same sessions replayed against a store that already
//! holds every cost they will ask for.
//!
//! Generation runs the sessions once, cold, to fill the store. Set-up then
//! opens that store (replaying its log) and binds a server on it. In every
//! round the sessions run again under the same labels and seeds: each
//! proposal is a store hit the server answers itself (`store::lookup`,
//! `TuningSession::report_stored`), and only the trials past the server's
//! cap of 1 024 served per request reach the client. This is the read path
//! of the layer `store-cold` writes through, and its recovery.

use super::{bind_server, objective, open_session, BATCH};
use crate::harness::{Meter, RoundWorkload, RunConfig, SetupPlan};
use ah_core::server::protocol::TrialReport;
use ah_core::server::{TcpHarmonyClient, TcpHarmonyServer};
use ah_core::session::SessionOptions;
use ah_core::store::SharedStore;
use ah_core::telemetry::Telemetry;
use std::path::PathBuf;

/// Rounds of the campaign set.
pub const ROUNDS: usize = 80;
/// Sessions replayed per round.
pub const SESSIONS: usize = 4;
/// Trials per session at the reference run length.
pub const TRIALS: usize = 20_000;
/// Store hits the server resolves inside one fetch request
/// (`MAX_SERVED_PER_REQUEST` in `ah_core::server`) before it hands trials
/// to the client regardless.
pub const SERVED_PER_REQUEST: usize = 1_024;

/// Trials of a fully warm `trials`-trial session that still reach the
/// client: after every 1 024 served, one batch is handed out.
pub fn handed_out(trials: usize) -> u64 {
    let (mut left, mut handed) = (trials, 0);
    loop {
        left -= SERVED_PER_REQUEST.min(left);
        if left == 0 {
            return handed as u64;
        }
        let batch = BATCH.min(left);
        left -= batch;
        handed += batch;
    }
}

/// The workload's state.
pub struct StoreWarm {
    cfg: RunConfig,
    trials: usize,
    path: PathBuf,
    store: Option<SharedStore>,
    server: Option<TcpHarmonyServer>,
    first: Option<TcpHarmonyClient>,
    /// Best cost of each session in the seeding pass, as bits.
    seeded_best: Vec<u64>,
    seeded_records: usize,
    rounds_run: usize,
    round_fresh: u64,
    best_mismatches: usize,
}

impl StoreWarm {
    /// Generate the workload: run the sessions cold once to fill the store.
    pub fn new(cfg: &RunConfig) -> Self {
        let mut w = StoreWarm {
            cfg: cfg.clone(),
            // Never so short that the served-per-request cap goes untested.
            trials: cfg.scaled(TRIALS).max(2 * (SERVED_PER_REQUEST + BATCH)),
            path: cfg.scratch.join("store-warm.jsonl"),
            store: None,
            server: None,
            first: None,
            seeded_best: Vec::new(),
            seeded_records: 0,
            rounds_run: 0,
            round_fresh: 0,
            best_mismatches: 0,
        };
        let _ = std::fs::remove_file(&w.path);
        let mut m = Meter::new(false);
        w.open(&mut m);
        for s in 0..SESSIONS {
            let best = w.session(s, &mut m).expect("seeding session");
            w.seeded_best.push(best);
        }
        let store = w.store.as_ref().expect("open");
        store.flush().expect("flush the seeded store");
        w.seeded_records = store.record_count();
        assert_eq!(m.failed, 0, "seeding pass failed a call");
        assert_eq!(
            w.seeded_records,
            SESSIONS * w.trials,
            "seeding pass filled the store"
        );
        if cfg.corrupt_expectation {
            w.seeded_best[0] ^= 1;
        }
        w.close();
        w
    }

    fn options(&self, s: usize) -> SessionOptions {
        SessionOptions {
            max_evaluations: self.trials,
            max_cached_replays: usize::MAX / 4,
            seed: self.cfg.derive(3_000 + s as u64),
            ..Default::default()
        }
    }

    fn open(&mut self, m: &mut Meter) {
        let telemetry = m.store_telemetry.clone();
        let (store, _) = m.call("store.open", 0, || {
            SharedStore::open_with(&self.path, telemetry)
        });
        let store = store.expect("open the store");
        let (server, _) = m.call("server.bind", 0, || {
            bind_server(Some(store.clone()), Telemetry::disabled())
        });
        self.store = Some(store);
        self.server = Some(server.expect("bind 127.0.0.1:0"));
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

    /// Run session `s` to its budget; returns the bits of its best cost.
    fn session(&mut self, s: usize, m: &mut Meter) -> Option<u64> {
        let addr = self.server.as_ref().expect("set up").local_addr();
        let tag = s as u64;
        let mut client = open_session(m, addr, &format!("store-warm-{s}"), self.options(s), tag)?;
        // Iteration tokens count the session's trials, served ones included:
        // the advance between two fetches is what one call pair completed.
        let mut completed = 0usize;
        loop {
            let trial = tag << 32 | completed as u64;
            let span = m.tracer.begin("bench.batch", trial);
            let (fetched, fetch_s) =
                m.call("client.fetch_batch", trial, || client.fetch_batch(BATCH));
            let Some((trials, finished)) = fetched else {
                m.tracer.end(span);
                return None;
            };
            if trials.is_empty() {
                m.tracer.end(span);
                if finished {
                    m.pair(fetch_s, 0.0, (self.trials - completed) as u64, 0);
                }
                break;
            }
            let high = trials
                .iter()
                .map(|t| t.iteration)
                .max()
                .expect("non-empty batch");
            let reports: Vec<TrialReport> = trials
                .iter()
                .map(|t| TrialReport {
                    iteration: t.iteration,
                    cost: objective(&t.config),
                    wall_time: 0.0,
                })
                .collect();
            let fresh = reports.len() as u64;
            let (reported, report_s) = m.call("client.report_batch", trial, || {
                client.report_batch(reports)
            });
            m.tracer.end(span);
            reported?;
            m.pair(fetch_s, report_s, (high - completed) as u64, fresh);
            self.round_fresh += fresh;
            completed = high;
        }
        let (best, _) = m.call("client.best", tag, || client.best());
        m.call("client.leave", tag, || client.leave());
        best.flatten().map(|(_, cost)| cost.to_bits())
    }
}

impl RoundWorkload for StoreWarm {
    fn rounds(&self) -> usize {
        self.cfg.rounds_or(ROUNDS)
    }

    fn setup_plan(&self) -> SetupPlan {
        SetupPlan::UpFront(5)
    }

    fn set_up(&mut self, m: &mut Meter) {
        self.open(m);
        let addr = self.server.as_ref().expect("just bound").local_addr();
        let mut client =
            open_session(m, addr, "store-warm-0", self.options(0), 0).expect("first session");
        m.call("client.fetch_batch", 0, || client.fetch_batch(BATCH));
        self.first = Some(client);
    }

    fn tear_down(&mut self) {
        self.close();
    }

    fn before_round(&mut self, _round: usize, m: &mut Meter) {
        if let Some(client) = self.first.take() {
            client.close();
        }
        // The server keeps every session it ever served, 20 000 history rows
        // each; a fresh server on the same open store keeps the rounds alike.
        if let (Some(server), Some(store)) = (self.server.take(), self.store.clone()) {
            server.shutdown();
            let (server, _) = m.call("server.bind", 0, || {
                bind_server(Some(store), Telemetry::disabled())
            });
            self.server = Some(server.expect("bind 127.0.0.1:0"));
        }
        self.rounds_run += 1;
        self.round_fresh = 0;
        self.best_mismatches = 0;
    }

    fn round(&mut self, _round: usize, m: &mut Meter) {
        for s in 0..SESSIONS {
            if self.session(s, m) != Some(self.seeded_best[s]) {
                self.best_mismatches += 1;
            }
        }
    }

    fn after_round(&mut self, round: usize, m: &mut Meter) {
        m.check_eq(
            format!("round {round}: sessions whose best cost differs from the seeding pass"),
            0,
            self.best_mismatches,
        );
        m.check_eq(
            format!("round {round}: trials that reached the client"),
            SESSIONS as u64 * handed_out(self.trials),
            self.round_fresh,
        );
    }

    fn finish(&mut self, m: &mut Meter) {
        let records = self.store.as_ref().map_or(0, |s| s.record_count());
        m.check_eq(
            "records in the store after the replays",
            self.seeded_records,
            records,
        );
        let expected = (self.rounds_run * SESSIONS * self.trials) as u64;
        let trials = m.trials;
        m.check_eq("trials completed", expected, trials);
        self.close();
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::handed_out;

    #[test]
    fn handed_out_follows_the_served_cap() {
        assert_eq!(handed_out(1_024), 0);
        assert_eq!(handed_out(1_030), 6);
        assert_eq!(handed_out(1_040), 16);
        assert_eq!(handed_out(2_080), 32);
        assert_eq!(handed_out(40_000), 16 * 38);
    }
}
