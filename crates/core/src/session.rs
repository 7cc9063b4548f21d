//! Tuning sessions: the adaptation-controller loop around a search strategy.
//!
//! A [`TuningSession`] owns a [`SearchSpace`], a [`SearchStrategy`], an
//! evaluation cache and a [`History`]. It exposes both a pull-style
//! ([`TuningSession::suggest`] / [`TuningSession::report`]) interface — used
//! by the Harmony server and the on-line API — and a closed-loop
//! [`TuningSession::run`] driver for off-line tuning.
//!
//! Repeated visits to an already-measured lattice point are served from the
//! cache: in off-line tuning one evaluation is one application run, so cache
//! hits are free iterations.
//!
//! A proposal's key is its [`CacheKey`]: the lattice values as integers,
//! held in place up to ten values (every space the benchmark tunes) and on
//! the heap beyond, so keying a proposal, queueing it and probing the memo
//! or the store with it takes no allocator call on those spaces.
//!
//! The cache is a flat memo. Keys sit back to back in one `Vec<i64>`, one
//! stride (the space's dimension) each, with their costs in a parallel
//! `Vec<f64>`. The crate's digest index (a map from a key's seeded 64-bit
//! digest to its newest slot, and a chain through the slots whose digests
//! collide) finds a key again; every hit compares the stored key with the
//! probe, so a collision costs one more compare and never a wrong cost.
//! Filling the memo allocates per growth, not per key, and freeing a
//! session frees a handful of buffers however many points it measured.
//!
//! Costs known from outside the session — the persistent performance store
//! — are resolved inside it too: `TuningSession::suggest_batch_with` asks
//! a memo about each new proposal's cache key, and a hit is applied on the
//! spot (a `cached` history row that charges no time) instead of leaving as
//! a trial. The Harmony server and the off-line tuner both serve their
//! stores this way.

use crate::digest_index::DigestIndex;
use crate::error::{HarmonyError, Result};
use crate::history::{Evaluation, History};
use crate::space::{CacheKey, Configuration, SearchSpace};
use crate::strategy::{SearchStrategy, StrategySnapshot};
use crate::telemetry::{Counter, Telemetry, TrialStage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Why a session stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The budget of fresh evaluations was spent.
    MaxEvaluations,
    /// No improvement for `no_improve_limit` fresh evaluations.
    NoImprovement,
    /// The strategy had nothing further to propose (finite strategies).
    StrategyExhausted,
    /// The strategy kept re-proposing cached points — it has converged.
    Converged,
    /// A configuration reached the user's target cost.
    TargetReached,
}

impl StopReason {
    /// Stable lowercase name (used in JSON status dumps).
    pub fn name(&self) -> &'static str {
        match self {
            StopReason::MaxEvaluations => "max_evaluations",
            StopReason::NoImprovement => "no_improvement",
            StopReason::StrategyExhausted => "strategy_exhausted",
            StopReason::Converged => "converged",
            StopReason::TargetReached => "target_reached",
        }
    }
}

/// Session stopping criteria and seeding.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SessionOptions {
    /// Maximum number of *fresh* evaluations (application runs).
    pub max_evaluations: usize,
    /// Stop after this many consecutive fresh evaluations without
    /// improvement (0 disables the criterion).
    pub no_improve_limit: usize,
    /// Declare convergence after this many consecutive cache replays.
    pub max_cached_replays: usize,
    /// RNG seed: every stochastic choice in a session is derived from it.
    pub seed: u64,
    /// Optional early-exit target cost.
    pub target_cost: Option<f64>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            max_evaluations: 100,
            no_improve_limit: 0,
            max_cached_replays: 64,
            seed: 0,
            target_cost: None,
        }
    }
}

/// A configuration the session wants measured.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The projected, valid configuration to run.
    pub config: Configuration,
    /// 1-based index of this evaluation in the history. Also the token that
    /// ties a [`report`](TuningSession::report) back to its proposal when
    /// several trials are outstanding at once.
    pub iteration: usize,
}

/// How a queued proposal gets its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingKind {
    /// Must be measured by the caller; resolved by `report_timed`.
    Fresh,
    /// Already-known configuration — a cache hit, or a duplicate of a fresh
    /// trial queued ahead of it. Resolves from the cache when it reaches the
    /// queue front (by then the original has been flushed).
    Replay,
}

/// One proposal awaiting its turn in the in-order flush.
#[derive(Debug)]
struct PendingTrial {
    coords: Vec<f64>,
    config: Configuration,
    key: CacheKey,
    iteration: usize,
    kind: PendingKind,
    /// `(cost, wall_time)` once reported; `Fresh` entries only.
    outcome: Option<(f64, f64)>,
    /// The outcome came from the persistent performance store, not a live
    /// measurement: the history row is flagged `cached` and no wall time is
    /// charged, but budget/best/feedback bookkeeping is identical to a
    /// fresh measurement (pure memoization).
    from_store: bool,
}

/// The session's evaluation memo: cost by cache key, laid out flat (see
/// the [module docs](self)).
struct Memo {
    /// Values per key: the space's dimension.
    stride: usize,
    /// Slot `i`'s key is `keys[i * stride..(i + 1) * stride]`.
    keys: Vec<i64>,
    /// Slot `i`'s cost.
    costs: Vec<f64>,
    /// Digest → slots.
    index: DigestIndex,
}

impl Memo {
    fn new(stride: usize) -> Self {
        Self::with_index(stride, DigestIndex::new())
    }

    fn with_index(stride: usize, index: DigestIndex) -> Self {
        Memo {
            stride,
            keys: Vec::new(),
            costs: Vec::new(),
            index,
        }
    }

    /// The slot holding `key`, whose digest is `digest`.
    fn slot(&self, digest: u64, key: &[i64]) -> Option<usize> {
        let stride = self.stride;
        self.index
            .find(digest, |i| self.keys[i * stride..(i + 1) * stride] == *key)
    }

    fn get(&self, key: &[i64]) -> Option<f64> {
        let slot = self.slot(self.index.digest(key.iter().copied()), key)?;
        Some(self.costs[slot])
    }

    /// Record `cost` for `key`, overwriting the cost of a key already
    /// present. A key of another length (a preloaded configuration of some
    /// other space) is never proposed here, so it is not kept.
    fn insert(&mut self, key: &[i64], cost: f64) {
        if key.len() != self.stride {
            return;
        }
        let digest = self.index.digest(key.iter().copied());
        if let Some(slot) = self.slot(digest, key) {
            self.costs[slot] = cost;
            return;
        }
        self.index.push(Some(digest));
        self.keys.extend_from_slice(key);
        self.costs.push(cost);
    }
}

/// Live introspection snapshot of a session, for the observability plane.
///
/// A lock-brief copy: `TuningSession::search_snapshot` clones the small
/// pieces (best configuration, simplex vertex costs) and nothing else, so
/// it is safe to call from an observer thread while the session is being
/// driven.
#[derive(Debug, Clone)]
pub struct SearchSnapshot {
    /// Name of the strategy driving the search.
    pub strategy: &'static str,
    /// Fresh evaluations performed so far.
    pub evaluations: usize,
    /// History rows answered without running the application: cache
    /// replays plus store-served (possibly peer-replicated) outcomes. The
    /// warm-start claim, as a live number.
    pub cached_evaluations: usize,
    /// Best cost found so far.
    pub best_cost: Option<f64>,
    /// Best configuration found so far.
    pub best_config: Option<Configuration>,
    /// Why the session stopped, if it has.
    pub stop_reason: Option<StopReason>,
    /// Proposals queued for the in-order flush (fresh awaiting a report
    /// plus replays awaiting their turn).
    pub pending: usize,
    /// Pending proposals still awaiting a measured cost.
    pub awaiting_report: usize,
    /// The strategy's own internal state (phase, simplex geometry).
    pub search: StrategySnapshot,
}

/// Final outcome of a completed session.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// Best configuration found.
    pub best_config: Configuration,
    /// Its measured cost.
    pub best_cost: f64,
    /// Number of fresh evaluations (application runs) performed.
    pub evaluations: usize,
    /// Why the session stopped.
    pub stop_reason: StopReason,
    /// Full evaluation history.
    pub history: History,
    /// Name of the strategy that produced the result.
    pub strategy: &'static str,
}

/// The adaptation-controller loop around one application's search space.
pub struct TuningSession {
    space: SearchSpace,
    strategy: Box<dyn SearchStrategy>,
    opts: SessionOptions,
    rng: StdRng,
    cache: Memo,
    history: History,
    best: Option<(Configuration, f64)>,
    fresh_evals: usize,
    cached_evals: usize,
    since_improvement: usize,
    consecutive_cached: usize,
    cumulative_time: f64,
    stopped: Option<StopReason>,
    initialized: bool,
    /// Proposals whose bookkeeping has not been applied yet, in proposal
    /// order. Fresh entries wait for a report; everything is flushed from
    /// the front strictly in order, so a batched session walks through
    /// bit-identical state transitions to a serial one.
    pending: VecDeque<PendingTrial>,
    /// `Fresh` entries in `pending`, which the budget counts as spent.
    pending_fresh: usize,
    telemetry: Telemetry,
}

impl TuningSession {
    /// Create a session; the strategy is initialised lazily on the first
    /// [`suggest`](Self::suggest).
    pub fn new(
        space: SearchSpace,
        strategy: Box<dyn SearchStrategy>,
        opts: SessionOptions,
    ) -> Self {
        let rng = StdRng::seed_from_u64(opts.seed);
        TuningSession {
            cache: Memo::new(space.dims()),
            space,
            strategy,
            opts,
            rng,
            history: History::new(),
            best: None,
            fresh_evals: 0,
            cached_evals: 0,
            since_improvement: 0,
            consecutive_cached: 0,
            cumulative_time: 0.0,
            stopped: None,
            initialized: false,
            pending: VecDeque::new(),
            pending_fresh: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle: from now on the session records
    /// Proposed / Measured / Reported / Replayed lifecycle events and their
    /// counters on it. Recording is a pure observer — it never influences
    /// the trajectory.
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.strategy.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The space being searched.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The evaluation history so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Best `(configuration, cost)` so far.
    pub fn best(&self) -> Option<(&Configuration, f64)> {
        self.best.as_ref().map(|(c, v)| (c, *v))
    }

    /// Why the session stopped, if it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stopped
    }

    /// Lock-brief introspection snapshot for the observability plane: the
    /// strategy's live search state (simplex geometry, move counts,
    /// convergence spread) plus the session's own progress bookkeeping.
    pub(crate) fn search_snapshot(&self) -> SearchSnapshot {
        SearchSnapshot {
            strategy: self.strategy.name(),
            evaluations: self.fresh_evals,
            cached_evaluations: self.cached_evals,
            best_cost: self.best.as_ref().map(|(_, c)| *c),
            best_config: self.best.as_ref().map(|(c, _)| c.clone()),
            stop_reason: self.stopped,
            pending: self.pending.len(),
            awaiting_report: self
                .pending
                .iter()
                .filter(|p| p.kind == PendingKind::Fresh && p.outcome.is_none())
                .count(),
            search: self.strategy.snapshot(),
        }
    }

    /// Pre-load a known measurement (e.g. the default configuration's cost
    /// from a previous production run) without consuming budget.
    pub(crate) fn preload(&mut self, config: &Configuration, cost: f64) {
        self.cache.insert(&config.cache_key(), cost);
        self.update_best(config, cost);
    }

    fn update_best(&mut self, config: &Configuration, cost: f64) -> bool {
        match &self.best {
            Some((_, b)) if *b <= cost => false,
            _ => {
                // A preloaded configuration may have been decoded from a
                // frame or a file: hold it over the space's name table.
                let mut config = config.clone();
                config.adopt_names(self.space.names_table());
                self.best = Some((config, cost));
                true
            }
        }
    }

    /// Ask for the next configuration to measure. Returns `None` once the
    /// session has stopped. Cache replays are resolved internally and never
    /// surface as trials.
    pub fn suggest(&mut self) -> Option<Trial> {
        if self.stopped.is_some() {
            return None;
        }
        assert!(
            self.pending.is_empty(),
            "suggest() called with a trial still outstanding; report() it first"
        );
        let mut trial = None;
        self.propose_into(1, |_, _| None, |t| trial = Some(t));
        trial
    }

    /// Ask for up to `max` configurations to measure in one round-trip.
    ///
    /// The returned trials may be measured concurrently and reported in any
    /// order (or partially — unreported trials stay outstanding). Internally
    /// every proposal joins a queue that is flushed front-to-back in
    /// proposal order, so the history, cache, best tracking and strategy
    /// trajectory are bit-identical to a serial `suggest`/`report` loop —
    /// that is the batched surface of PRO's "evaluate the whole simplex per
    /// round" design. How far a batch can run ahead is up to the strategy
    /// ([`SearchStrategy::can_propose_unanswered`]): simplex search yields
    /// batches of one, PRO yields the remainder of its current round, and
    /// sampling baselines fill `max`.
    ///
    /// An empty result with [`stop_reason`](Self::stop_reason) `None` means
    /// the strategy needs outstanding reports before it can propose again.
    pub fn suggest_batch(&mut self, max: usize) -> Vec<Trial> {
        self.suggest_batch_with(max, |_, _| None)
    }

    /// [`suggest_batch`](Self::suggest_batch) with a memo of known costs
    /// (the performance store, in the server and the off-line tuner).
    ///
    /// `memo(iteration, key)` is asked once about every proposal that is
    /// neither cached nor pending, on the cache key the session has just
    /// computed. A cost it returns resolves the proposal there and then,
    /// exactly as [`report_stored`](Self::report_stored) would: the history
    /// row is flagged `cached`, no wall time is charged, and budget, best
    /// tracking, strategy feedback and stop checks advance as for a
    /// measurement. Served proposals never become trials and do not count
    /// towards `max`; `None` hands the proposal out as a trial.
    pub(crate) fn suggest_batch_with<M>(&mut self, max: usize, memo: M) -> Vec<Trial>
    where
        M: FnMut(usize, &[i64]) -> Option<f64>,
    {
        let mut out = Vec::new();
        self.propose_into(max, memo, |t| out.push(t));
        out
    }

    /// [`suggest_batch_with`](Self::suggest_batch_with), handing each trial
    /// to `sink` (a serial [`suggest`](Self::suggest) builds no `Vec` for
    /// its one trial).
    fn propose_into<M, S>(&mut self, max: usize, mut memo: M, mut sink: S)
    where
        M: FnMut(usize, &[i64]) -> Option<f64>,
        S: FnMut(Trial),
    {
        if self.stopped.is_some() || max == 0 {
            return;
        }
        if !self.initialized {
            self.strategy.init(&self.space, &mut self.rng);
            self.initialized = true;
        }
        let mut handed = 0;
        while handed < max && self.stopped.is_none() {
            if self.fresh_evals + self.pending_fresh >= self.opts.max_evaluations {
                // Budget spent (counting trials already in flight). Only an
                // idle session is *stopped*: outstanding reports may still
                // trigger a different stop reason first.
                if self.pending.is_empty() {
                    self.stopped = Some(StopReason::MaxEvaluations);
                }
                break;
            }
            // Bound the queue: a strategy circling already-known points
            // could otherwise grow it without limit inside one request.
            if self.pending.len() >= max.saturating_add(self.opts.max_cached_replays) {
                break;
            }
            if !self.strategy.can_propose_unanswered(self.pending.len()) {
                break;
            }
            let Some(coords) = self.strategy.propose(&self.space, &mut self.rng) else {
                if self.pending.is_empty() {
                    self.stopped = Some(StopReason::StrategyExhausted);
                }
                break;
            };
            let config = self.space.project(&coords);
            let key = config.cache_key();
            // Every queue entry lands exactly one history row, so the row
            // index of this proposal is fixed now, before earlier trials
            // have even been measured.
            let iteration = self.history.len() + self.pending.len() + 1;
            let known = self.cache.get(&key).is_some()
                || self
                    .pending
                    .iter()
                    .any(|e| e.kind == PendingKind::Fresh && e.key == key);
            if known {
                // Replay: costs nothing, never surfaces as a trial. It may
                // resolve only once it reaches the queue front (a duplicate
                // of an in-flight trial waits for the original's report).
                self.pending.push_back(PendingTrial {
                    coords,
                    config,
                    key,
                    iteration,
                    kind: PendingKind::Replay,
                    outcome: None,
                    from_store: false,
                });
                self.flush_pending();
                continue;
            }
            self.telemetry.inc(Counter::TrialsProposed);
            self.telemetry
                .event(TrialStage::Proposed, iteration, 0, None);
            let stored = memo(iteration, &key);
            match stored {
                Some(_) => self
                    .telemetry
                    .event(TrialStage::Replayed, iteration, 0, Some("store")),
                None => {
                    handed += 1;
                    sink(Trial {
                        config: config.clone(),
                        iteration,
                    });
                }
            }
            self.pending.push_back(PendingTrial {
                coords,
                config,
                key,
                iteration,
                kind: PendingKind::Fresh,
                outcome: stored.map(|cost| (cost, 0.0)),
                from_store: stored.is_some(),
            });
            self.pending_fresh += 1;
            if stored.is_some() {
                // Applied now, or once the trials queued ahead are reported.
                self.flush_pending();
            }
        }
    }

    /// Report the measured cost of a trial, with the wall-clock time the
    /// measurement itself consumed (run + restart + warm-up in off-line
    /// mode); the time is charged to the session's cumulative tuning time.
    pub fn report_timed(&mut self, trial: Trial, cost: f64, wall_time: f64) -> Result<()> {
        self.report_iteration(trial.iteration, cost, wall_time)
    }

    /// [`report_timed`](Self::report_timed) by the trial's iteration token,
    /// for a caller that keeps the trial: the server, whose store appends
    /// the measured configuration after the session has taken the cost.
    pub(crate) fn report_iteration(
        &mut self,
        iteration: usize,
        cost: f64,
        wall_time: f64,
    ) -> Result<()> {
        if self.stopped.is_some() {
            return Err(HarmonyError::SessionFinished);
        }
        let Some(entry) = self.pending.iter_mut().find(|e| {
            e.kind == PendingKind::Fresh && e.outcome.is_none() && e.iteration == iteration
        }) else {
            return Err(HarmonyError::Protocol(
                "report() without an outstanding trial".into(),
            ));
        };
        entry.outcome = Some((cost, wall_time));
        self.telemetry.inc(Counter::TrialsMeasured);
        self.telemetry
            .event(TrialStage::Measured, iteration, 0, None);
        self.flush_pending();
        Ok(())
    }

    /// Resolve an outstanding trial with a cost served from the persistent
    /// performance store instead of a live measurement.
    ///
    /// The flush applies the cost exactly like a fresh report — budget,
    /// cache, best tracking, strategy feedback and stop checks all advance
    /// identically, which is what keeps a warm (store-backed) run's
    /// trajectory bit-identical to the cold run that populated the store —
    /// except that the history row is flagged `cached` and no wall time is
    /// charged to the cumulative tuning time (nothing actually ran).
    ///
    /// A caller that can answer from a memo before the trial leaves the
    /// session should pass it to `suggest_batch_with`
    /// instead: same outcome, without building the trial.
    pub fn report_stored(&mut self, trial: Trial, cost: f64) -> Result<()> {
        if self.stopped.is_some() {
            return Err(HarmonyError::SessionFinished);
        }
        let Some(entry) = self.pending.iter_mut().find(|e| {
            e.kind == PendingKind::Fresh && e.outcome.is_none() && e.iteration == trial.iteration
        }) else {
            return Err(HarmonyError::Protocol(
                "report_stored() without an outstanding trial".into(),
            ));
        };
        entry.outcome = Some((cost, 0.0));
        entry.from_store = true;
        self.telemetry
            .event(TrialStage::Replayed, trial.iteration, 0, Some("store"));
        self.flush_pending();
        Ok(())
    }

    /// Apply every resolved entry at the queue front, strictly in proposal
    /// order. All the bookkeeping the serial loop performed inline — cache
    /// insert, history row, best/no-improvement tracking, strategy feedback,
    /// stop checks — happens here, so out-of-order reports never reorder
    /// state transitions.
    fn flush_pending(&mut self) {
        while self.stopped.is_none() {
            let ready = match self.pending.front() {
                None => break,
                Some(e) => match e.kind {
                    PendingKind::Fresh => e.outcome.is_some(),
                    PendingKind::Replay => self.cache.get(&e.key).is_some(),
                },
            };
            if !ready {
                break;
            }
            let e = self.pending.pop_front().expect("front checked above");
            match e.kind {
                PendingKind::Fresh => {
                    let (cost, wall_time) = e.outcome.expect("readiness checked above");
                    // A failed measurement must never become the best; map
                    // every non-finite cost (NaN, but also ±inf — a -inf
                    // would be a permanent false best) to infinitely slow so
                    // the search moves away.
                    // (Counted at the protocol boundary, not here: the
                    // server already maps non-finite to +inf, so this is the
                    // idempotent backstop for in-process callers.)
                    let cost = if cost.is_finite() {
                        cost
                    } else {
                        f64::INFINITY
                    };
                    // A store-served outcome charges no wall time (nothing
                    // ran) and lands a `cached` row; every other state
                    // transition below is identical to a live measurement.
                    if !e.from_store {
                        self.cumulative_time += wall_time;
                    }
                    self.pending_fresh -= 1;
                    self.cache.insert(&e.key, cost);
                    self.fresh_evals += 1;
                    if e.from_store {
                        self.cached_evals += 1;
                    }
                    self.consecutive_cached = 0;
                    // The best copies the configuration only when it
                    // improves; the history row takes it.
                    let improved = self.update_best(&e.config, cost);
                    self.history.push(Evaluation {
                        iteration: e.iteration,
                        config: e.config,
                        cost,
                        cached: e.from_store,
                        cumulative_time: self.cumulative_time,
                    });
                    if !e.from_store {
                        self.telemetry.inc(Counter::TrialsReported);
                        self.telemetry
                            .event(TrialStage::Reported, e.iteration, 0, None);
                    }
                    if improved {
                        self.since_improvement = 0;
                    } else {
                        self.since_improvement += 1;
                    }
                    self.strategy
                        .feedback(&e.coords, cost, &self.space, &mut self.rng);
                    if let Some(target) = self.opts.target_cost {
                        if cost <= target {
                            self.stopped = Some(StopReason::TargetReached);
                            break;
                        }
                    }
                    if self.opts.no_improve_limit > 0
                        && self.since_improvement >= self.opts.no_improve_limit
                    {
                        self.stopped = Some(StopReason::NoImprovement);
                    } else if self.pending.is_empty() && self.strategy.converged() {
                        // Only an idle session can stop as converged: a
                        // batch may have proposed past the point where a
                        // finite strategy's plan ran out, and those queued
                        // trials still count. Serially, the queue is always
                        // empty here, so the condition reduces to the old
                        // behaviour.
                        self.stopped = Some(StopReason::Converged);
                    }
                }
                PendingKind::Replay => {
                    let cost = self.cache.get(&e.key).expect("readiness checked above");
                    self.telemetry.inc(Counter::CacheReplays);
                    self.telemetry
                        .event(TrialStage::Replayed, e.iteration, 0, Some("cache_hit"));
                    self.consecutive_cached += 1;
                    self.cached_evals += 1;
                    self.history.push(Evaluation {
                        iteration: e.iteration,
                        config: e.config,
                        cost,
                        cached: true,
                        cumulative_time: self.cumulative_time,
                    });
                    self.strategy
                        .feedback(&e.coords, cost, &self.space, &mut self.rng);
                    if self.consecutive_cached >= self.opts.max_cached_replays {
                        self.stopped = Some(StopReason::Converged);
                    }
                }
            }
        }
        if self.stopped.is_some() && !self.pending.is_empty() {
            // Proposals queued past a stop are ones the serial loop would
            // never have made; drop them so history and the strategy
            // trajectory stay identical. Reports for them are accepted
            // nowhere — the session is finished.
            self.pending.clear();
            self.pending_fresh = 0;
        }
    }

    /// Report a cost whose measurement time equals the cost itself (the
    /// common case when the objective *is* execution time).
    pub fn report(&mut self, trial: Trial, cost: f64) -> Result<()> {
        self.report_timed(trial, cost, cost)
    }

    /// Drive the session to completion against a synchronous objective.
    pub fn run<F>(&mut self, mut objective: F) -> TuningResult
    where
        F: FnMut(&Configuration) -> f64,
    {
        while let Some(trial) = self.suggest() {
            let cost = objective(&trial.config);
            self.report(trial, cost)
                .expect("session accepts report for its own trial");
        }
        self.result()
    }

    /// Snapshot the final result. Panics if nothing was ever evaluated.
    pub fn result(&self) -> TuningResult {
        let (best_config, best_cost) = self
            .best
            .clone()
            .expect("result() requires at least one evaluation");
        TuningResult {
            best_config,
            best_cost,
            evaluations: self.fresh_evals,
            stop_reason: self.stopped.unwrap_or(StopReason::MaxEvaluations),
            history: self.history.clone(),
            strategy: self.strategy.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{
        Annealing, Exhaustive, Genetic, GreedyFrom, GreedyOptions, GridSearch, NelderMead,
        ParallelRankOrder, RandomSearch, Surrogate,
    };
    use std::collections::HashMap;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .int("x", 0, 40, 1)
            .int("y", 0, 40, 1)
            .build()
            .unwrap()
    }

    fn bowl(cfg: &Configuration) -> f64 {
        let x = cfg.int("x").unwrap() as f64;
        let y = cfg.int("y").unwrap() as f64;
        (x - 31.0).powi(2) + (y - 9.0).powi(2) + 5.0
    }

    #[test]
    fn run_finds_minimum_with_simplex() {
        let mut s = TuningSession::new(
            space(),
            Box::new(NelderMead::default()),
            SessionOptions {
                max_evaluations: 150,
                seed: 1,
                ..Default::default()
            },
        );
        let r = s.run(bowl);
        assert!(r.best_cost <= 10.0, "best={}", r.best_cost);
        assert!(r.evaluations <= 150);
        assert_eq!(r.strategy, "nelder-mead");
    }

    #[test]
    fn cache_prevents_duplicate_runs() {
        let mut calls = std::collections::HashMap::new();
        let mut s = TuningSession::new(
            space(),
            Box::new(NelderMead::default()),
            SessionOptions {
                max_evaluations: 200,
                seed: 2,
                ..Default::default()
            },
        );
        s.run(|cfg| {
            *calls.entry(cfg.cache_key()).or_insert(0) += 1;
            bowl(cfg)
        });
        assert!(
            calls.values().all(|&c| c == 1),
            "objective re-ran a cached configuration"
        );
    }

    #[test]
    fn max_evaluations_is_respected() {
        let mut count = 0;
        let mut s = TuningSession::new(
            space(),
            Box::new(RandomSearch::new()),
            SessionOptions {
                max_evaluations: 25,
                seed: 3,
                ..Default::default()
            },
        );
        let r = s.run(|cfg| {
            count += 1;
            bowl(cfg)
        });
        assert_eq!(count, 25);
        assert_eq!(r.evaluations, 25);
        assert_eq!(r.stop_reason, StopReason::MaxEvaluations);
    }

    #[test]
    fn no_improvement_stops_early() {
        // Constant objective: first eval sets the best, then no improvement.
        let mut s = TuningSession::new(
            space(),
            Box::new(RandomSearch::new()),
            SessionOptions {
                max_evaluations: 1000,
                no_improve_limit: 10,
                seed: 4,
                ..Default::default()
            },
        );
        let r = s.run(|_| 1.0);
        assert_eq!(r.stop_reason, StopReason::NoImprovement);
        assert!(r.evaluations <= 12);
    }

    #[test]
    fn target_cost_stops_immediately() {
        let mut s = TuningSession::new(
            space(),
            Box::new(RandomSearch::new()),
            SessionOptions {
                max_evaluations: 1000,
                target_cost: Some(1e9),
                seed: 5,
                ..Default::default()
            },
        );
        let r = s.run(bowl);
        assert_eq!(r.stop_reason, StopReason::TargetReached);
        assert_eq!(r.evaluations, 1);
    }

    #[test]
    fn grid_strategy_exhausts() {
        let mut s = TuningSession::new(
            space(),
            Box::new(GridSearch::new(16)),
            SessionOptions {
                max_evaluations: 1000,
                seed: 6,
                ..Default::default()
            },
        );
        let r = s.run(bowl);
        // The grid reports convergence after its final point, so the session
        // may stop as Converged (after the last report) or StrategyExhausted
        // (when asked for one more point); both mean the plan completed.
        assert!(
            matches!(
                r.stop_reason,
                StopReason::Converged | StopReason::StrategyExhausted
            ),
            "{:?}",
            r.stop_reason
        );
        assert_eq!(r.evaluations, 16);
    }

    #[test]
    fn preload_counts_as_best_without_budget() {
        let sp = space();
        let default_cfg = sp.project(&[0.0, 0.0]);
        let mut s = TuningSession::new(
            sp,
            Box::new(RandomSearch::new()),
            SessionOptions {
                max_evaluations: 5,
                seed: 7,
                ..Default::default()
            },
        );
        s.preload(&default_cfg, 0.0); // unbeatable
        let r = s.run(bowl);
        assert_eq!(r.best_cost, 0.0);
        assert_eq!(r.evaluations, 5);
    }

    #[test]
    fn report_without_trial_is_an_error() {
        let sp = space();
        let mut s = TuningSession::new(
            sp.clone(),
            Box::new(RandomSearch::new()),
            SessionOptions::default(),
        );
        let trial = Trial {
            config: sp.center(),
            iteration: 1,
        };
        assert!(matches!(
            s.report(trial, 1.0),
            Err(HarmonyError::Protocol(_))
        ));
    }

    #[test]
    fn run_objective_drives_composite_objectives() {
        use crate::objective::{Objective, TradeoffObjective};
        let mut obj = TradeoffObjective::new(
            |cfg: &Configuration| bowl(cfg),
            |cfg: &Configuration| (cfg.int("x").unwrap() as f64 - 31.0).abs() / 40.0,
            0.5,
        );
        let mut s = TuningSession::new(
            space(),
            Box::new(NelderMead::default()),
            SessionOptions {
                max_evaluations: 120,
                seed: 10,
                ..Default::default()
            },
        );
        let r = s.run(|cfg| obj.evaluate(cfg));
        assert!(r.best_cost <= 12.0, "best={}", r.best_cost);
    }

    #[test]
    fn nan_measurements_never_become_best() {
        // Failure injection: every third "measurement" fails and reports
        // NaN. The session must survive and report a real best.
        let mut n = 0;
        let mut s = TuningSession::new(
            space(),
            Box::new(NelderMead::default()),
            SessionOptions {
                max_evaluations: 60,
                seed: 99,
                ..Default::default()
            },
        );
        let r = s.run(|cfg| {
            n += 1;
            if n % 3 == 0 {
                f64::NAN
            } else {
                bowl(cfg)
            }
        });
        assert!(r.best_cost.is_finite(), "best={}", r.best_cost);
        assert!(r.best_cost >= 5.0); // the bowl's floor
    }

    /// Drive a session to completion fetching `batch` trials per round-trip.
    fn run_batched<F>(s: &mut TuningSession, batch: usize, mut f: F) -> TuningResult
    where
        F: FnMut(&Configuration) -> f64,
    {
        loop {
            let trials = s.suggest_batch(batch);
            if trials.is_empty() {
                if s.stop_reason().is_some() {
                    break;
                }
                panic!("no trials but session not stopped (nothing outstanding)");
            }
            for t in trials {
                let cost = f(&t.config);
                let _ = s.report(t, cost); // stop mid-batch is legitimate
            }
        }
        s.result()
    }

    fn histories_match(a: &TuningResult, b: &TuningResult) {
        assert_eq!(a.stop_reason, b.stop_reason);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.best_config.cache_key(), b.best_config.cache_key());
        assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.evaluations().iter().zip(b.history.evaluations()) {
            assert_eq!(x.iteration, y.iteration);
            assert_eq!(x.config.cache_key(), y.config.cache_key());
            assert_eq!(x.cost.to_bits(), y.cost.to_bits());
            assert_eq!(x.cached, y.cached);
            assert_eq!(x.cumulative_time.to_bits(), y.cumulative_time.to_bits());
        }
    }

    #[test]
    fn batched_random_is_bit_identical_to_serial() {
        for batch in [2, 7, 16] {
            let opts = SessionOptions {
                max_evaluations: 120,
                seed: 42,
                ..Default::default()
            };
            let mut serial =
                TuningSession::new(space(), Box::new(RandomSearch::new()), opts.clone());
            let a = serial.run(bowl);
            let mut batched =
                TuningSession::new(space(), Box::new(RandomSearch::new()), opts.clone());
            let b = run_batched(&mut batched, batch, bowl);
            histories_match(&a, &b);
        }
    }

    #[test]
    fn batched_pro_is_bit_identical_to_serial() {
        use crate::strategy::{ParallelRankOrder, ProOptions};
        let opts = SessionOptions {
            max_evaluations: 150,
            seed: 7,
            ..Default::default()
        };
        let mk = || Box::new(ParallelRankOrder::new(ProOptions::default()));
        let mut serial = TuningSession::new(space(), mk(), opts.clone());
        let a = serial.run(bowl);
        let mut batched = TuningSession::new(space(), mk(), opts.clone());
        let b = run_batched(&mut batched, 16, bowl);
        histories_match(&a, &b);
    }

    #[test]
    fn batched_nelder_mead_degrades_to_serial_batches() {
        // A sequential strategy must never let the batch run ahead: each
        // suggest_batch(16) yields exactly one trial, and the trajectory is
        // the serial one.
        let opts = SessionOptions {
            max_evaluations: 80,
            seed: 3,
            ..Default::default()
        };
        let mut serial = TuningSession::new(space(), Box::new(NelderMead::default()), opts.clone());
        let a = serial.run(bowl);
        let mut batched =
            TuningSession::new(space(), Box::new(NelderMead::default()), opts.clone());
        loop {
            let trials = batched.suggest_batch(16);
            if trials.is_empty() {
                assert!(batched.stop_reason().is_some());
                break;
            }
            assert_eq!(trials.len(), 1, "sequential strategy over-batched");
            for t in trials {
                let c = bowl(&t.config);
                let _ = batched.report(t, c);
            }
        }
        histories_match(&a, &batched.result());
    }

    #[test]
    fn out_of_order_reports_flush_in_proposal_order() {
        let mut s = TuningSession::new(
            space(),
            Box::new(RandomSearch::new()),
            SessionOptions {
                max_evaluations: 4,
                seed: 11,
                ..Default::default()
            },
        );
        let trials = s.suggest_batch(4);
        assert_eq!(trials.len(), 4);
        // Report last-to-first; history must still come out in proposal order.
        for t in trials.into_iter().rev() {
            s.report_timed(t, 1.0, 1.0).unwrap();
        }
        let iters: Vec<usize> = s
            .history()
            .evaluations()
            .iter()
            .map(|e| e.iteration)
            .collect();
        assert_eq!(iters, vec![1, 2, 3, 4]);
        assert_eq!(s.stop_reason(), None);
        assert!(s.suggest_batch(1).is_empty());
        assert_eq!(s.stop_reason(), Some(StopReason::MaxEvaluations));
    }

    #[test]
    fn duplicates_inside_a_batch_become_replays() {
        // A two-point space forces duplicates within the very first batch.
        let tiny = SearchSpace::builder().int("x", 0, 1, 1).build().unwrap();
        let mut s = TuningSession::new(
            tiny,
            Box::new(RandomSearch::new()),
            SessionOptions {
                max_evaluations: 10,
                seed: 5,
                ..Default::default()
            },
        );
        let trials = s.suggest_batch(8);
        // Fresh trials are deduplicated; at most one per lattice point.
        let mut keys: Vec<_> = trials.iter().map(|t| t.config.cache_key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), trials.len(), "batch served duplicate configs");
        for t in trials {
            let x = t.config.int("x").unwrap() as f64;
            s.report(t, x + 1.0).unwrap();
        }
        // The duplicates were queued as replays and resolved from the cache.
        assert!(s.history().evaluations().iter().any(|e| e.cached));
    }

    #[test]
    fn partial_batch_report_allows_refetching_the_rest() {
        let mut s = TuningSession::new(
            space(),
            Box::new(RandomSearch::new()),
            SessionOptions {
                max_evaluations: 50,
                seed: 13,
                ..Default::default()
            },
        );
        let trials = s.suggest_batch(4);
        assert_eq!(trials.len(), 4);
        let mut it = trials.into_iter();
        let first = it.next().unwrap();
        s.report(first, 1.0).unwrap();
        // Three still outstanding; a new batch may top up around them.
        let more = s.suggest_batch(4);
        assert_eq!(more.len(), 4);
        for t in it.chain(more) {
            s.report(t, 2.0).unwrap();
        }
        assert_eq!(s.history().len(), 8);
    }

    #[test]
    fn store_served_run_matches_cold_trajectory_with_cached_rows() {
        let opts = SessionOptions {
            max_evaluations: 40,
            seed: 17,
            ..Default::default()
        };
        let mut cold = TuningSession::new(space(), Box::new(NelderMead::default()), opts.clone());
        let a = cold.run(bowl);
        // Warm run: every fresh trial is resolved from "the store" with the
        // exact cost the cold run measured.
        let mut warm = TuningSession::new(space(), Box::new(NelderMead::default()), opts.clone());
        while let Some(t) = warm.suggest() {
            let cost = bowl(&t.config);
            warm.report_stored(t, cost).unwrap();
        }
        let b = warm.result();
        // Identical search trajectory: same stops, same budget consumption,
        // same per-iteration costs, bit-identical best.
        assert_eq!(a.stop_reason, b.stop_reason);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.best_config.cache_key(), b.best_config.cache_key());
        assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.evaluations().iter().zip(b.history.evaluations()) {
            assert_eq!(x.iteration, y.iteration);
            assert_eq!(x.config.cache_key(), y.config.cache_key());
            assert_eq!(x.cost.to_bits(), y.cost.to_bits());
        }
        // But the warm run measured nothing: every row is cached and no
        // wall time was ever charged.
        assert!(b.history.evaluations().iter().all(|e| e.cached));
        assert!(b
            .history
            .evaluations()
            .iter()
            .all(|e| e.cumulative_time == 0.0));
        assert!(a.history.evaluations().iter().any(|e| !e.cached));
    }

    #[test]
    fn report_stored_without_trial_is_an_error() {
        let sp = space();
        let mut s = TuningSession::new(
            sp.clone(),
            Box::new(RandomSearch::new()),
            SessionOptions::default(),
        );
        let trial = Trial {
            config: sp.center(),
            iteration: 1,
        };
        assert!(matches!(
            s.report_stored(trial, 1.0),
            Err(HarmonyError::Protocol(_))
        ));
    }

    #[test]
    fn mixed_store_and_fresh_reports_interleave() {
        // Serving some trials from the store and measuring the rest must
        // still walk the exact cold trajectory (costs are functions of the
        // configuration, so the source of a cost cannot matter).
        let opts = SessionOptions {
            max_evaluations: 30,
            seed: 23,
            ..Default::default()
        };
        let mut cold = TuningSession::new(space(), Box::new(NelderMead::default()), opts.clone());
        let a = cold.run(bowl);
        let mut mixed = TuningSession::new(space(), Box::new(NelderMead::default()), opts.clone());
        let mut n = 0;
        while let Some(t) = mixed.suggest() {
            let cost = bowl(&t.config);
            n += 1;
            if n % 2 == 0 {
                mixed.report_stored(t, cost).unwrap();
            } else {
                mixed.report(t, cost).unwrap();
            }
        }
        let b = mixed.result();
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        for (x, y) in a.history.evaluations().iter().zip(b.history.evaluations()) {
            assert_eq!(x.cost.to_bits(), y.cost.to_bits());
        }
    }

    type Build = fn(&SearchSpace) -> Box<dyn SearchStrategy>;

    /// The nine strategies `repro leaderboard` races, each built fresh.
    const ROSTER: [(&str, Build); 9] = [
        ("random", |_| Box::new(RandomSearch::new())),
        ("grid", |_| Box::new(GridSearch::new(60))),
        ("exhaustive", |_| Box::new(Exhaustive::new(10_000))),
        ("greedy", |sp| {
            let start = sp.embed(&sp.center()).expect("the centre embeds");
            Box::new(GreedyFrom::new(start, GreedyOptions::default()))
        }),
        ("nelder-mead", |_| Box::new(NelderMead::default())),
        ("pro", |_| Box::new(ParallelRankOrder::default())),
        ("annealing", |_| Box::new(Annealing::default())),
        ("genetic", |_| Box::new(Genetic::default())),
        ("surrogate", |_| Box::new(Surrogate::default())),
    ];

    /// A cost that is a function of the cache key alone, as a store's is.
    fn keyed_cost(key: &[i64]) -> f64 {
        ((key[0] - 31) as f64).powi(2) + ((key[1] - 9) as f64).powi(2) + 5.0
    }

    /// A session over `space()` with one preloaded point, so the cache is
    /// not empty before the first proposal.
    fn memo_session(build: Build) -> TuningSession {
        let sp = space();
        let preloaded = sp.project(&[20.0, 20.0]);
        let mut s = TuningSession::new(
            sp.clone(),
            build(&sp),
            SessionOptions {
                max_evaluations: 60,
                seed: 31,
                ..Default::default()
            },
        );
        s.preload(&preloaded, keyed_cost(&preloaded.cache_key()));
        s
    }

    /// What the memo hook replaces: serial `suggest`, then `report_stored`
    /// for a known key and a timed report for the rest.
    fn served_serially(build: Build, known: fn(&[i64]) -> bool) -> TuningResult {
        let mut s = memo_session(build);
        while let Some(t) = s.suggest() {
            let key = t.config.cache_key();
            let cost = keyed_cost(&key);
            if known(&key) {
                s.report_stored(t, cost).unwrap();
            } else {
                s.report_timed(t, cost, 1.0).unwrap();
            }
        }
        s.result()
    }

    /// The same campaign through `suggest_batch_with`, `batch` trials per
    /// call. Panics if the memo is asked about a key twice: every key it
    /// is asked about is pending or cached from then on, so a second
    /// question would be one about a known point.
    fn served_by_the_memo(build: Build, known: fn(&[i64]) -> bool, batch: usize) -> TuningResult {
        let mut s = memo_session(build);
        let preloaded = s.space().project(&[20.0, 20.0]).cache_key();
        let mut asked = std::collections::HashSet::new();
        loop {
            let trials = s.suggest_batch_with(batch, |_, key| {
                assert_ne!(key, preloaded.as_slice(), "memo asked about a cached key");
                assert!(asked.insert(key.to_vec()), "memo asked twice about {key:?}");
                known(key).then(|| keyed_cost(key))
            });
            if trials.is_empty() {
                assert!(s.stop_reason().is_some(), "no trial, nothing outstanding");
                break;
            }
            for t in trials {
                assert!(!known(&t.config.cache_key()), "a known key left as a trial");
                let cost = keyed_cost(&t.config.cache_key());
                let _ = s.report_timed(t, cost, 1.0); // stop mid-batch is legitimate
            }
        }
        s.result()
    }

    #[test]
    fn the_memo_hook_equals_serial_report_stored_for_the_whole_roster() {
        let some: fn(&[i64]) -> bool = |key| (key[0] + key[1]) % 3 != 0;
        let all: fn(&[i64]) -> bool = |_| true;
        for (name, build) in ROSTER {
            for (everything, known) in [(false, some), (true, all)] {
                let want = served_serially(build, known);
                for batch in [1, 16] {
                    let got = served_by_the_memo(build, known, batch);
                    let context = format!("{name}, batch {batch}");
                    assert_eq!(want.stop_reason, got.stop_reason, "{context}");
                    assert_eq!(want.evaluations, got.evaluations, "{context}");
                    assert_eq!(want.history.len(), got.history.len(), "{context}");
                    let rows = want.history.evaluations().iter();
                    for (a, b) in rows.zip(got.history.evaluations()) {
                        assert_eq!(a.iteration, b.iteration, "{context}");
                        assert_eq!(a.config.cache_key(), b.config.cache_key(), "{context}");
                        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{context}");
                        assert_eq!(a.cached, b.cached, "{context}");
                        assert_eq!(
                            a.cumulative_time.to_bits(),
                            b.cumulative_time.to_bits(),
                            "{context}"
                        );
                    }
                    assert!(got.history.evaluations().iter().any(|e| e.cached));
                }
                if everything {
                    // Nothing ran: every row is cached and charges no time.
                    assert!(want
                        .history
                        .evaluations()
                        .iter()
                        .all(|e| e.cached && e.cumulative_time == 0.0));
                }
            }
        }
    }

    /// Run `steps` against `memo` and a `HashMap` reference, which must
    /// answer every lookup alike.
    fn memo_matches_a_hash_map(mut memo: Memo, steps: &[(bool, Vec<i64>, f64)]) {
        let mut reference: HashMap<Vec<i64>, f64> = HashMap::new();
        for (insert, key, cost) in steps {
            if *insert {
                memo.insert(key, *cost);
                reference.insert(key.clone(), *cost);
            }
            let want = reference.get(key).map(|c| c.to_bits());
            assert_eq!(memo.get(key).map(f64::to_bits), want, "{key:?}");
            assert_eq!(memo.get(&key[1..]), None, "a shorter key is never held");
        }
        for (key, cost) in &reference {
            assert_eq!(memo.get(key), Some(*cost), "{key:?}");
        }
        assert_eq!(memo.costs.len(), reference.len(), "one slot per key");
        assert_eq!(memo.keys.len(), 3 * reference.len());
    }

    /// A memo under which every key collides: each lookup walks the whole
    /// chain.
    fn colliding(stride: usize) -> Memo {
        Memo::with_index(stride, DigestIndex::colliding())
    }

    proptest::proptest! {
        /// `(insert, key, cost)` steps over a small key alphabet, so
        /// overwrites and hits are common.
        #[test]
        fn the_memo_answers_what_a_hash_map_answers(
            inserts in proptest::collection::vec(0u8..2, 0..160),
            keys in proptest::collection::vec(proptest::collection::vec(-2i64..2, 3), 160),
            costs in proptest::collection::vec(-1e3f64..1e3, 160),
        ) {
            let steps: Vec<_> = inserts
                .iter()
                .zip(keys)
                .zip(costs)
                .map(|((&insert, key), cost)| (insert == 1, key, cost))
                .collect();
            memo_matches_a_hash_map(Memo::new(3), &steps);
            memo_matches_a_hash_map(colliding(3), &steps);
        }
    }

    /// An exhaustive campaign over `space()` cut to 6 × 6, with one point
    /// preloaded twice before it is proposed: the second cost stands.
    fn preloaded_campaign(memo: Memo) -> TuningResult {
        let sp = SearchSpace::builder()
            .int("x", 0, 5, 1)
            .int("y", 0, 5, 1)
            .build()
            .unwrap();
        let known = sp.project(&[4.0, 1.0]);
        let mut s = TuningSession::new(
            sp,
            Box::new(Exhaustive::new(1_000)),
            SessionOptions::default(),
        );
        s.cache = memo;
        s.preload(&known, 50.0);
        s.preload(&known, 7.0);
        s.run(|cfg| {
            assert_ne!(cfg.cache_key(), known.cache_key(), "a preloaded point ran");
            bowl(cfg)
        })
    }

    #[test]
    fn a_preloaded_point_is_replayed_at_its_last_cost_whatever_the_digest() {
        let want = preloaded_campaign(Memo::new(2));
        let got = preloaded_campaign(colliding(2));
        let rows = |r: &TuningResult| -> Vec<(CacheKey, u64, bool)> {
            let rows = r.history.evaluations().iter();
            rows.map(|e| (e.config.cache_key(), e.cost.to_bits(), e.cached))
                .collect()
        };
        assert_eq!(rows(&want), rows(&got));
        assert_eq!(want.history.len(), 36);
        let replays = want.history.evaluations().iter();
        let replays: Vec<_> = replays.filter(|e| e.cached).collect();
        let [replay] = replays.as_slice() else {
            panic!("{} replays", replays.len());
        };
        assert_eq!(replay.config.cache_key(), [4, 1][..]);
        assert_eq!(replay.cost, 7.0);
    }

    #[test]
    fn cumulative_time_accumulates_overheads() {
        let mut s = TuningSession::new(
            space(),
            Box::new(RandomSearch::new()),
            SessionOptions {
                max_evaluations: 3,
                seed: 9,
                ..Default::default()
            },
        );
        for _ in 0..3 {
            let t = s.suggest().unwrap();
            s.report_timed(t, 10.0, 15.0).unwrap(); // 5s restart overhead
        }
        let h = s.history();
        assert_eq!(h.evaluations().last().unwrap().cumulative_time, 45.0);
    }

    /// A warm `Random` trial's `suggest` + `report` makes three allocator
    /// calls: the strategy's coordinates, the projected configuration and
    /// the trial's copy of it. Cache keys make none, and `suggest` hands
    /// its one trial over without a `Vec`: the same loop counted six per
    /// pair when a key was a `Vec<i64>` (the session's key, the loop's own
    /// for its cost, and `suggest`'s `Vec`). A pair that grows the history
    /// or the memo makes a few more, a handful of times over the run. The
    /// space is the benchmark's serving space: four ints of a million
    /// values each.
    #[test]
    fn a_warm_random_trial_makes_three_allocator_calls() {
        const PER_PAIR: usize = 3;
        let space = (0..4)
            .fold(SearchSpace::builder(), |b, i| {
                b.int(format!("p{i}"), 0, 999_999, 1)
            })
            .build()
            .unwrap();
        let mut s = TuningSession::new(
            space,
            Box::new(RandomSearch::new()),
            SessionOptions {
                max_evaluations: usize::MAX / 4,
                seed: 11,
                ..Default::default()
            },
        );
        let mut pair = || {
            let trial = s.suggest().expect("an unbounded session proposes");
            let cost = trial.config.cache_key().iter().sum::<i64>() as f64;
            s.report(trial, cost).unwrap();
        };
        for _ in 0..1_000 {
            pair();
        }
        let calls: Vec<usize> = (0..2_000)
            .map(|_| {
                let before = crate::counting::calls();
                pair();
                crate::counting::calls() - before
            })
            .collect();
        let growing: Vec<usize> = calls.iter().copied().filter(|&c| c > PER_PAIR).collect();
        assert!(growing.len() <= 8, "{growing:?}");
        let total: usize = calls.iter().sum();
        assert!(total <= PER_PAIR * calls.len() + 32, "{total} calls");
    }
}
