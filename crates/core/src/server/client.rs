//! Client-side API of the Harmony server.
//!
//! This is the Rust analogue of the ~10 lines of instrumentation the paper
//! adds to an application: connect, declare tunable variables, then
//! fetch/report inside the run loop. A client either *founds* a session
//! ([`HarmonyServer::connect`](super::HarmonyServer::connect)) or *attaches*
//! to one as an additional worker
//! ([`HarmonyServer::attach`](super::HarmonyServer::attach)) — attached
//! members share the founder's outstanding-trial queue, which is how a
//! crashed worker's trials get re-measured by its replacement.

use super::protocol::{FetchedTrial, Reply, Request, StrategyKind, TrialReport};
use super::ServerBus;
use crate::error::{HarmonyError, Result};
use crate::history::History;
use crate::param::Param;
use crate::session::SessionOptions;
use crate::space::Configuration;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The result of a [`HarmonyClient::fetch`].
#[derive(Debug, Clone)]
pub struct Fetched {
    /// Configuration to run next (or the final best when `finished`).
    pub config: Configuration,
    /// The trial's 1-based iteration token; 0 once `finished` (no reply
    /// carries the history length a finished fetch used to be stamped
    /// with: [`HarmonyClient::history`] has it).
    pub iteration: usize,
    /// True once tuning has stopped.
    pub finished: bool,
}

impl Fetched {
    /// A finished fetch: the session's best configuration.
    pub(crate) fn finished(best: Option<(Configuration, f64)>) -> Result<Fetched> {
        let (config, _) = best
            .ok_or_else(|| HarmonyError::Protocol("session finished with no evaluations".into()))?;
        Ok(Fetched {
            config,
            iteration: 0,
            finished: true,
        })
    }
}

/// What a serial fetch makes of the batch of one it asked for, in both
/// clients: the trial; `None` once the session has finished (the caller
/// then asks for the best configuration, [`Fetched::finished`]); and
/// [`HarmonyError::ServerBusy`] while the strategy waits on another
/// member's report, which the TCP client backs off and retries.
pub(crate) fn one_trial(trials: Vec<FetchedTrial>, finished: bool) -> Result<Option<FetchedTrial>> {
    match trials.into_iter().next() {
        Some(trial) => Ok(Some(trial)),
        None if finished => Ok(None),
        None => Err(HarmonyError::ServerBusy(
            "no trial available until outstanding reports arrive".into(),
        )),
    }
}

/// A connection from one application to the Harmony server.
///
/// Cloneable and sendable: an application may fetch from one thread and
/// report from another, though requests are processed one at a time.
#[derive(Clone)]
pub struct HarmonyClient {
    id: u64,
    session: u64,
    app: String,
    bus: ServerBus,
    /// Iteration token of the last [`fetch`](Self::fetch), 0 once it is
    /// reported (or the fetch finished); shared by the clones, so a fetch
    /// on one thread is reported from another.
    last_fetch: Arc<AtomicUsize>,
}

impl std::fmt::Debug for HarmonyClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarmonyClient")
            .field("id", &self.id)
            .field("session", &self.session)
            .field("app", &self.app)
            .finish_non_exhaustive()
    }
}

/// Map a protocol error reply to the typed error split: retryable refusals
/// become [`HarmonyError::ServerBusy`], the rest are protocol violations.
pub(crate) fn reply_error(message: String, retryable: bool) -> HarmonyError {
    if retryable {
        HarmonyError::ServerBusy(message)
    } else {
        HarmonyError::Protocol(message)
    }
}

impl HarmonyClient {
    pub(crate) fn register(bus: ServerBus, app: String, tenant: String) -> Result<Self> {
        let reply = bus.dispatch(
            0,
            Request::Register {
                app: app.clone(),
                tenant,
            },
        )?;
        match reply {
            Reply::Registered { client_id, session } => Ok(HarmonyClient {
                id: client_id,
                session,
                app,
                bus,
                last_fetch: Arc::default(),
            }),
            Reply::QuotaExceeded { tenant } => Err(HarmonyError::QuotaExceeded { tenant }),
            Reply::Error { message, retryable } => Err(reply_error(message, retryable)),
            _ => Err(HarmonyError::Protocol("unexpected reply".into())),
        }
    }

    pub(crate) fn attach(bus: ServerBus, session: u64, tenant: String) -> Result<Self> {
        let reply = bus.dispatch(0, Request::Attach { session, tenant })?;
        match reply {
            Reply::Registered { client_id, session } => Ok(HarmonyClient {
                id: client_id,
                session,
                app: String::new(),
                bus,
                last_fetch: Arc::default(),
            }),
            Reply::QuotaExceeded { tenant } => Err(HarmonyError::QuotaExceeded { tenant }),
            Reply::Error { message, retryable } => Err(reply_error(message, retryable)),
            _ => Err(HarmonyError::Protocol("unexpected reply".into())),
        }
    }

    fn call(&self, req: Request) -> Result<Reply> {
        match self.bus.dispatch(self.id, req)? {
            Reply::QuotaExceeded { tenant } => Err(HarmonyError::QuotaExceeded { tenant }),
            Reply::Error { message, retryable } => Err(reply_error(message, retryable)),
            ok => Ok(ok),
        }
    }

    /// This client's id on the server.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session this client belongs to (equals [`id`](Self::id) for a
    /// founder). Pass it to [`HarmonyServer::attach`](super::HarmonyServer::attach)
    /// to add workers or rejoin after a crash.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// The application label given at connect time (empty for an attached
    /// member — the label belongs to the founder).
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Declare a tunable parameter (before [`seal`](Self::seal)).
    pub fn add_param(&self, param: Param) -> Result<()> {
        self.call(Request::AddParam { param }).map(|_| ())
    }

    /// Declare a monotone-chain dependency between parameters.
    pub fn add_monotone_chain<I, S>(&self, names: I) -> Result<()>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.call(Request::AddMonotoneChain {
            names: names.into_iter().map(Into::into).collect(),
        })
        .map(|_| ())
    }

    /// Finish declaration and start tuning with the given strategy.
    pub fn seal(&self, options: SessionOptions, strategy: StrategyKind) -> Result<()> {
        self.call(Request::Seal { options, strategy }).map(|_| ())
    }

    /// Get the next configuration to run: a [`fetch_batch`](Self::fetch_batch)
    /// of one. Returns the same configuration until [`report`](Self::report)
    /// answers it; [`HarmonyError::ServerBusy`] while the strategy waits on
    /// another member's report; once the session has finished, its best
    /// configuration, with `finished` set.
    pub fn fetch(&self) -> Result<Fetched> {
        let (trials, finished) = self.fetch_batch(1)?;
        let fetched = match one_trial(trials, finished)? {
            Some(t) => Fetched {
                config: t.config,
                iteration: t.iteration,
                finished: false,
            },
            None => Fetched::finished(self.best()?)?,
        };
        self.last_fetch.store(fetched.iteration, Ordering::Relaxed);
        Ok(fetched)
    }

    /// Report a measured cost whose measurement wall time equals the cost.
    pub fn report(&self, cost: f64) -> Result<()> {
        self.report_timed(cost, cost)
    }

    /// Report a measured cost and the wall time spent measuring it, for the
    /// last fetched trial: a [`report_batch`](Self::report_batch) of its
    /// iteration token. A report that fails keeps the token, so it may be
    /// retried.
    pub fn report_timed(&self, cost: f64, wall_time: f64) -> Result<()> {
        let iteration = self.last_fetch.swap(0, Ordering::Relaxed);
        if iteration == 0 {
            return Err(HarmonyError::Protocol(
                "report without an outstanding fetch".into(),
            ));
        }
        let report = TrialReport {
            iteration,
            cost,
            wall_time,
        };
        self.report_batch(vec![report])
            .inspect_err(|_| self.last_fetch.store(iteration, Ordering::Relaxed))
    }

    /// Get up to `max` configurations to measure in one round-trip (a whole
    /// PRO round, for example): an `Exchange` that reports nothing. Returns
    /// `(trials, finished)`; still-unreported trials from earlier fetches
    /// are served again first, then requeued trials of departed members,
    /// then fresh proposals.
    pub fn fetch_batch(&self, max: usize) -> Result<(Vec<FetchedTrial>, bool)> {
        self.exchange(Vec::new(), max)
    }

    /// Report measured costs for any subset of outstanding trials in one
    /// round-trip: an `Exchange` that asks for nothing (`max: 0`). Each
    /// entry echoes the trial's iteration token; a stale duplicate (the
    /// trial was requeued and already re-measured) is tolerated, so
    /// retrying a possibly-delivered report is safe, and so is a report
    /// that arrives after the session stopped.
    pub fn report_batch(&self, reports: Vec<TrialReport>) -> Result<()> {
        self.exchange(reports, 0).map(|_| ())
    }

    fn exchange(&self, reports: Vec<TrialReport>, max: usize) -> Result<(Vec<FetchedTrial>, bool)> {
        match self.call(Request::Exchange { reports, max })? {
            Reply::Configs { trials, finished } => Ok((trials, finished)),
            _ => Err(HarmonyError::Protocol(
                "unexpected reply to Exchange".into(),
            )),
        }
    }

    /// The best `(configuration, cost)` found so far, if any.
    pub fn best(&self) -> Result<Option<(Configuration, f64)>> {
        match self.call(Request::QueryBest)? {
            Reply::Best { best } => Ok(best),
            _ => Err(HarmonyError::Protocol(
                "unexpected reply to QueryBest".into(),
            )),
        }
    }

    /// The full evaluation history of the session, and whether it finished.
    pub fn history(&self) -> Result<(History, bool)> {
        match self.call(Request::QueryHistory)? {
            Reply::History { history, finished } => Ok((history, finished)),
            _ => Err(HarmonyError::Protocol(
                "unexpected reply to QueryHistory".into(),
            )),
        }
    }

    /// Refresh this client's liveness without any other effect — send it
    /// from long measurements when the server runs with a
    /// [`client_ttl`](super::ServerConfig::client_ttl).
    pub fn heartbeat(&self) -> Result<()> {
        self.call(Request::Heartbeat).map(|_| ())
    }

    /// Depart from the session, requeueing this client's outstanding trials
    /// for the remaining members. The handle is unusable afterwards. When
    /// this client is the last member the session ends: the server frees
    /// it, returns its trials' in-flight quota to the tenant, and refuses a
    /// later `Attach` to it. (Unless a member evicted for missing its TTL
    /// has not rejoined yet: then the session waits for it.)
    pub fn leave(&self) -> Result<()> {
        self.call(Request::Leave).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::HarmonyServer;

    #[test]
    fn client_exposes_id_and_app() {
        let server = HarmonyServer::start();
        let c = server.connect("petsc").unwrap();
        assert_eq!(c.app(), "petsc");
        assert!(c.id() > 0);
        assert_eq!(c.session_id(), c.id(), "founder's session id is its own");
        server.shutdown();
    }

    #[test]
    fn calls_after_shutdown_fail_cleanly() {
        let server = HarmonyServer::start();
        let c = server.connect("app").unwrap();
        server.shutdown();
        assert!(matches!(
            c.add_param(Param::int("x", 0, 1, 1)),
            Err(HarmonyError::Disconnected)
        ));
    }

    #[test]
    fn best_before_any_evaluation_is_none() {
        let server = HarmonyServer::start();
        let c = server.connect("app").unwrap();
        assert_eq!(c.best().unwrap(), None);
        c.add_param(Param::int("x", 0, 4, 1)).unwrap();
        c.seal(SessionOptions::default(), StrategyKind::NelderMead)
            .unwrap();
        assert_eq!(c.best().unwrap(), None);
        server.shutdown();
    }

    #[test]
    fn leave_then_use_is_an_error() {
        let server = HarmonyServer::start();
        let c = server.connect("app").unwrap();
        c.leave().unwrap();
        assert!(matches!(c.best(), Err(HarmonyError::Protocol(_))));
        server.shutdown();
    }
}
