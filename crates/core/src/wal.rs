//! Crash-safe tuning sessions: a write-ahead log for search state.
//!
//! A tuning run on a big machine can outlive its driver process — the batch
//! scheduler kills it, a node reboots, the experiment script is ^C'd. The
//! paper's tuning runs are *expensive* (each evaluation is a short run of
//! GS2 or POP), so losing the search history means re-paying for every
//! evaluation already made. [`WalSession`] wraps a [`TuningSession`] so the
//! whole search can be resumed bit-identically after a crash.
//!
//! # Log format
//!
//! A durable log (the module `durable_log`; DESIGN.md, "Durable log"): JSON
//! lines, with that module's recovery, append and truncation. Line 1 is a
//! [`WalHeader`] — everything needed to rebuild the session object:
//! parameter declarations, monotone chains, the [`StrategyKind`] and
//! [`SessionOptions`]. Each following line is one evaluation record:
//!
//! ```text
//! {"iteration":7,"cost_bits":4634204016564240384,"wall_bits":0}
//! ```
//!
//! Costs are stored as the `u64` bit patterns of their `f64` values —
//! replayed costs are *exactly* the measured ones, with no decimal
//! round-trip involved.
//!
//! # Why replay works
//!
//! Every stochastic choice in a session derives from `options.seed`, and
//! strategies only see costs in flush order — so a session rebuilt from the
//! header and fed the logged `(iteration, cost)` pairs in logged order
//! proposes exactly the configurations of the original run. The log
//! therefore never stores configurations, only iteration tokens: resume
//! re-*suggests* deterministically and matches records to proposals by
//! token.
//!
//! # Crash safety
//!
//! A record is appended and fsync'd *before* the report is applied to the
//! in-memory session (log-first). A crash between the two leaves a
//! logged-but-unapplied record, which replay applies — identical outcome. A
//! crash mid-append leaves a torn final line, which the log truncates when
//! it is next opened: the evaluation is simply re-measured, and because
//! costs are deterministic functions of the configuration the resumed
//! trajectory is still bit-identical. Damage anywhere *before* the last
//! append is real corruption and surfaces as [`HarmonyError::WalCorrupt`].

use crate::constraint::MonotoneChain;
use crate::durable_log::{self, DurableLog, LineReader};
use crate::error::{HarmonyError, Result};
use crate::param::Param;
use crate::server::protocol::StrategyKind;
use crate::session::{SessionOptions, Trial, TuningResult, TuningSession};
use crate::space::SearchSpace;
use crate::telemetry::{Counter, Latency, SpanKind, Telemetry, TrialStage};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Current log format version (line 1 of every log).
pub(crate) const WAL_VERSION: u32 = 1;

/// Everything needed to rebuild a tuning session from scratch: the first
/// line of every write-ahead log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalHeader {
    /// Log format version (`WAL_VERSION`).
    pub version: u32,
    /// Application label (informational; carried into results).
    pub app: String,
    /// Tunable parameter declarations, in declaration order.
    pub params: Vec<Param>,
    /// Monotone-chain constraints (each a list of parameter names).
    pub chains: Vec<Vec<String>>,
    /// Which tuning algorithm runs the search.
    pub strategy: StrategyKind,
    /// Stopping criteria and the seed every stochastic choice derives from.
    pub options: SessionOptions,
}

impl WalHeader {
    /// Convenience constructor stamping the current `WAL_VERSION`.
    pub fn new(
        app: impl Into<String>,
        params: Vec<Param>,
        chains: Vec<Vec<String>>,
        strategy: StrategyKind,
        options: SessionOptions,
    ) -> Self {
        WalHeader {
            version: WAL_VERSION,
            app: app.into(),
            params,
            chains,
            strategy,
            options,
        }
    }

    /// Rebuild the session this header describes. Called at create time and
    /// again at resume time, so both paths construct identical state.
    pub fn build_session(&self) -> Result<TuningSession> {
        let mut builder = SearchSpace::builder();
        for p in &self.params {
            builder = builder.param(p.clone());
        }
        for chain in &self.chains {
            builder = builder.constraint(MonotoneChain::new(chain.clone()));
        }
        let space = builder.build()?;
        Ok(TuningSession::new(
            space,
            self.strategy.build(),
            self.options.clone(),
        ))
    }
}

/// One logged evaluation. Costs are `f64::to_bits` so replay feeds back the
/// exact measured values.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EvalRecord {
    iteration: usize,
    cost_bits: u64,
    wall_bits: u64,
}

/// The log's records, read through the derive.
impl LineReader for Vec<EvalRecord> {
    fn read(&mut self, line: &str, keep: bool) -> std::result::Result<(), String> {
        let record = durable_log::derived(line)?;
        if keep {
            self.push(record);
        }
        Ok(())
    }
}

/// A [`TuningSession`] whose evaluations are logged to disk before they are
/// applied, so the search survives a `SIGKILL` and resumes bit-identically.
///
/// ```
/// use ah_core::prelude::*;
///
/// let dir = std::env::temp_dir().join(format!("wal-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("session.wal");
/// let header = WalHeader::new(
///     "demo",
///     vec![Param::int("x", 0, 60, 1)],
///     vec![],
///     StrategyKind::NelderMead,
///     SessionOptions { max_evaluations: 40, seed: 3, ..Default::default() },
/// );
/// // First run: crashes (here: stops) after a few evaluations.
/// let (mut wal, _) = WalSession::open_or_create(&path, &header).unwrap();
/// for _ in 0..5 {
///     let t = wal.suggest().unwrap().unwrap();
///     let cost = (t.config.int("x").unwrap() - 42).abs() as f64;
///     wal.report(t, cost).unwrap();
/// }
/// drop(wal);
/// // Resume: the 5 logged evaluations replay, the search continues.
/// let (mut wal, outstanding) = WalSession::open_or_create(&path, &header).unwrap();
/// assert_eq!(wal.replayed(), 5);
/// assert!(outstanding.is_empty());
/// while let Some(t) = wal.suggest().unwrap() {
///     let cost = (t.config.int("x").unwrap() - 42).abs() as f64;
///     wal.report(t, cost).unwrap();
/// }
/// assert_eq!(wal.result().best_config.int("x"), Some(42));
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct WalSession {
    log: DurableLog,
    session: TuningSession,
    replayed: usize,
    telemetry: Telemetry,
}

impl std::fmt::Debug for WalSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalSession")
            .field("path", &self.log.path())
            .field("replayed", &self.replayed)
            .finish_non_exhaustive()
    }
}

impl WalSession {
    /// Start a fresh logged session at `path` (truncating any existing
    /// file) and write the header line.
    pub fn create(path: impl AsRef<Path>, header: &WalHeader) -> Result<Self> {
        Self::create_with(path, header, Telemetry::disabled())
    }

    /// [`create`](Self::create), recording WAL appends and session
    /// lifecycle events on `telemetry`.
    pub(crate) fn create_with(
        path: impl AsRef<Path>,
        header: &WalHeader,
        telemetry: Telemetry,
    ) -> Result<Self> {
        let mut session = header.build_session()?;
        session.set_telemetry(telemetry.clone());
        Ok(WalSession {
            log: DurableLog::create(path.as_ref(), header)?,
            session,
            replayed: 0,
            telemetry,
        })
    }

    /// Reopen an interrupted session from its log.
    ///
    /// Rebuilds the session from the header and replays every logged
    /// evaluation; the search ends up in exactly the state of the crashed
    /// run. Returns the resumed session and any *outstanding* trials —
    /// proposals the original run had issued whose results were logged
    /// out of order around the crash (a partially measured PRO round, for
    /// instance). The caller must measure and [`report`](Self::report)
    /// those before asking for fresh suggestions.
    pub fn resume(path: impl AsRef<Path>) -> Result<(Self, Vec<Trial>)> {
        Self::resume_with(path, Telemetry::disabled())
    }

    /// [`resume`](Self::resume), recording each replayed evaluation (a
    /// [`TrialStage::Replayed`] event with cause `wal`), any truncated torn
    /// tail, and the resumed session's lifecycle on `telemetry`.
    pub fn resume_with(path: impl AsRef<Path>, telemetry: Telemetry) -> Result<(Self, Vec<Trial>)> {
        let path = path.as_ref();
        let mut records: Vec<EvalRecord> = Vec::new();
        let (log, header, torn) = DurableLog::open(
            path,
            HarmonyError::WalCorrupt,
            |h: &WalHeader| match h.version {
                WAL_VERSION => Ok(()),
                v => Err(format!("log version {v} (this build reads {WAL_VERSION})")),
            },
            &mut records,
        )?;
        if torn {
            telemetry.inc(Counter::WalTornTails);
        }
        let mut session = header.build_session()?;

        // Replay: re-suggest deterministically, matching records to
        // proposals by iteration token. Records can reference tokens out of
        // proposal order (a batch round reported out of order), so issued-
        // but-not-yet-consumed proposals stage in a map. The session gets
        // its telemetry only *after* replay: a replayed evaluation shows up
        // as one Replayed event, not a fake Proposed/Measured/Reported run.
        let mut staged: HashMap<usize, Trial> = HashMap::new();
        let mut applied = 0usize;
        for rec in &records {
            while !staged.contains_key(&rec.iteration) {
                let batch = session.suggest_batch(1);
                if batch.is_empty() {
                    return Err(HarmonyError::WalCorrupt(format!(
                        "{}: logged evaluation {} was never proposed on replay \
                         (log does not match this build's search trajectory)",
                        path.display(),
                        rec.iteration
                    )));
                }
                for t in batch {
                    staged.insert(t.iteration, t);
                }
            }
            let trial = staged.remove(&rec.iteration).expect("staged above");
            session.report_timed(
                trial,
                f64::from_bits(rec.cost_bits),
                f64::from_bits(rec.wall_bits),
            )?;
            telemetry.inc(Counter::WalReplayed);
            telemetry.event(TrialStage::Replayed, rec.iteration, 0, Some("wal"));
            applied += 1;
        }
        session.set_telemetry(telemetry.clone());
        let mut outstanding: Vec<Trial> = staged.into_values().collect();
        outstanding.sort_by_key(|t| t.iteration);
        Ok((
            WalSession {
                log,
                session,
                replayed: applied,
                telemetry,
            },
            outstanding,
        ))
    }

    /// [`resume`](Self::resume) if a log already exists at `path`,
    /// otherwise [`create`](Self::create) a fresh one — the call shape for
    /// a driver whose `--resume` flag should also tolerate a first run.
    pub fn open_or_create(
        path: impl AsRef<Path>,
        header: &WalHeader,
    ) -> Result<(Self, Vec<Trial>)> {
        Self::open_or_create_with(path, header, Telemetry::disabled())
    }

    /// [`open_or_create`](Self::open_or_create) with a telemetry handle
    /// threaded into whichever path is taken.
    pub(crate) fn open_or_create_with(
        path: impl AsRef<Path>,
        header: &WalHeader,
        telemetry: Telemetry,
    ) -> Result<(Self, Vec<Trial>)> {
        let p = path.as_ref();
        if durable_log::has_content(p) {
            Self::resume_with(p, telemetry)
        } else {
            Ok((Self::create_with(p, header, telemetry)?, Vec::new()))
        }
    }

    /// Next configuration to measure, or `Ok(None)` once the session
    /// stopped. (Unlike [`TuningSession::suggest`], safe to call with
    /// outstanding resumed trials still unreported.)
    pub fn suggest(&mut self) -> Result<Option<Trial>> {
        Ok(self.session.suggest_batch(1).pop())
    }

    /// Up to `max` configurations to measure concurrently (a PRO round).
    pub fn suggest_batch(&mut self, max: usize) -> Vec<Trial> {
        self.session.suggest_batch(max)
    }

    /// Report a measured cost whose measurement wall time equals the cost.
    pub fn report(&mut self, trial: Trial, cost: f64) -> Result<()> {
        self.report_timed(trial, cost, cost)
    }

    /// Log the result (append + fsync), *then* apply it to the
    /// session. The log-first order is what makes a crash between the two
    /// harmless: replay applies the logged record and lands in the same
    /// state.
    pub fn report_timed(&mut self, trial: Trial, cost: f64, wall_time: f64) -> Result<()> {
        let rec = EvalRecord {
            iteration: trial.iteration,
            cost_bits: cost.to_bits(),
            wall_bits: wall_time.to_bits(),
        };
        let mut line = Vec::with_capacity(96);
        durable_log::push_line(&rec, &mut line);
        let started = Instant::now();
        let span = self
            .telemetry
            .span_begin(SpanKind::WalAppend, trial.iteration, "wal", 0);
        let wrote = self.log.append(&line, 1).and_then(|()| self.log.sync());
        if wrote.is_err() {
            self.telemetry.span_fault(span, "io_error");
        } else {
            self.telemetry.span_end(span);
        }
        wrote?;
        self.telemetry
            .observe(Latency::WalAppendFsync, started.elapsed());
        self.telemetry.inc(Counter::WalAppends);
        self.session.report_timed(trial, cost, wall_time)
    }

    /// Number of evaluations replayed from the log when this session was
    /// resumed (0 for a fresh session).
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// The wrapped session, for history/best/stop-reason inspection.
    pub fn session(&self) -> &TuningSession {
        &self.session
    }

    /// Final tuning result (best configuration, trajectory summary).
    pub fn result(&self) -> TuningResult {
        self.session.result()
    }

    /// Path of the backing log file.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn temp_path(tag: &str) -> crate::TempPath {
        crate::TempPath::new(&format!("wal-{tag}.wal"))
    }

    fn header(strategy: StrategyKind, max_evaluations: usize, seed: u64) -> WalHeader {
        WalHeader::new(
            "wal-test",
            vec![Param::int("x", 0, 100, 1), Param::int("y", 0, 100, 1)],
            vec![],
            strategy,
            SessionOptions {
                max_evaluations,
                seed,
                ..Default::default()
            },
        )
    }

    fn cost_of(t: &Trial) -> f64 {
        let x = t.config.int("x").unwrap() as f64;
        let y = t.config.int("y").unwrap() as f64;
        (x - 31.0).powi(2) + (y - 64.0).powi(2)
    }

    fn history_json(s: &TuningSession) -> String {
        serde_json::to_string(s.history()).unwrap()
    }

    /// Drive a fresh (non-logged) session to completion: the ground truth.
    fn baseline(h: &WalHeader) -> String {
        let mut s = h.build_session().unwrap();
        while let Some(t) = s.suggest_batch(1).pop() {
            let c = cost_of(&t);
            s.report_timed(t, c, c).unwrap();
        }
        history_json(&s)
    }

    #[test]
    fn full_run_resumes_to_identical_history() {
        for strategy in [
            StrategyKind::NelderMead,
            StrategyKind::Random,
            StrategyKind::Pro,
        ] {
            let h = header(strategy.clone(), 50, 11);
            let path = temp_path(&format!("full-{strategy:?}"));
            let mut wal = WalSession::create(&path, &h).unwrap();
            while let Some(t) = wal.suggest().unwrap() {
                let c = cost_of(&t);
                wal.report(t, c).unwrap();
            }
            let first = history_json(wal.session());
            drop(wal);
            let (resumed, outstanding) = WalSession::resume(&path).unwrap();
            assert!(outstanding.is_empty());
            assert_eq!(history_json(resumed.session()), first, "{strategy:?}");
            assert_eq!(first, baseline(&h), "{strategy:?} vs unlogged baseline");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn interrupted_run_resumes_bit_identically() {
        let h = header(StrategyKind::NelderMead, 60, 7);
        let want = baseline(&h);
        let path = temp_path("interrupted");
        // "Crash" after 17 evaluations: drop the WalSession without
        // finishing, exactly what a SIGKILL leaves behind on disk.
        let mut wal = WalSession::create(&path, &h).unwrap();
        for _ in 0..17 {
            let t = wal.suggest().unwrap().unwrap();
            let c = cost_of(&t);
            wal.report(t, c).unwrap();
        }
        drop(wal);
        let (mut wal, outstanding) = WalSession::resume(&path).unwrap();
        assert_eq!(wal.replayed(), 17);
        for t in outstanding {
            let c = cost_of(&t);
            wal.report(t, c).unwrap();
        }
        while let Some(t) = wal.suggest().unwrap() {
            let c = cost_of(&t);
            wal.report(t, c).unwrap();
        }
        assert_eq!(history_json(wal.session()), want);
    }

    #[test]
    fn pro_round_interrupted_mid_batch_returns_outstanding() {
        let h = header(StrategyKind::Pro, 40, 5);
        let want = baseline(&h);
        let path = temp_path("pro-mid-round");
        let mut wal = WalSession::create(&path, &h).unwrap();
        // Issue a whole round, report only part of it, out of order.
        let round = wal.suggest_batch(16);
        assert!(round.len() > 2, "expected a multi-candidate PRO round");
        let reported = round.len() / 2;
        let mut rest = Vec::new();
        for (i, t) in round.into_iter().rev().enumerate() {
            if i < reported {
                let c = cost_of(&t);
                wal.report(t, c).unwrap();
            } else {
                rest.push(t);
            }
        }
        let unreported: Vec<usize> = rest.iter().map(|t| t.iteration).collect();
        drop(wal); // crash with half the round in flight
        let (mut wal, outstanding) = WalSession::resume(&path).unwrap();
        assert_eq!(wal.replayed(), reported);
        let mut got: Vec<usize> = outstanding.iter().map(|t| t.iteration).collect();
        let mut expect = unreported.clone();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect, "resume must hand back the unmeasured half");
        for t in outstanding {
            let c = cost_of(&t);
            wal.report(t, c).unwrap();
        }
        while let Some(t) = wal.suggest().unwrap() {
            let c = cost_of(&t);
            wal.report(t, c).unwrap();
        }
        assert_eq!(history_json(wal.session()), want);
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_redone() {
        let h = header(StrategyKind::Random, 30, 3);
        let want = baseline(&h);
        let path = temp_path("torn");
        let mut wal = WalSession::create(&path, &h).unwrap();
        for _ in 0..9 {
            let t = wal.suggest().unwrap().unwrap();
            let c = cost_of(&t);
            wal.report(t, c).unwrap();
        }
        drop(wal);
        // Simulate a crash mid-append: half a record at the end of the file.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"iteration\":10,\"cost_b").unwrap();
        }
        let (mut wal, outstanding) = WalSession::resume(&path).unwrap();
        assert_eq!(wal.replayed(), 9, "torn record must not count");
        for t in outstanding {
            let c = cost_of(&t);
            wal.report(t, c).unwrap();
        }
        while let Some(t) = wal.suggest().unwrap() {
            let c = cost_of(&t);
            wal.report(t, c).unwrap();
        }
        assert_eq!(history_json(wal.session()), want);
    }

    #[test]
    fn torn_tail_is_truncated_so_a_second_crash_still_resumes() {
        // Regression: resume used to *skip* a torn trailing record but
        // reopen in append mode without truncating, so the next appended
        // record glued onto the torn partial line and a second resume died
        // with WalCorrupt mid-log. Crash → resume → crash → resume must
        // work, and end bit-identical to the unlogged baseline.
        let h = header(StrategyKind::NelderMead, 40, 13);
        let want = baseline(&h);
        let path = temp_path("torn-twice");
        let mut wal = WalSession::create(&path, &h).unwrap();
        for _ in 0..7 {
            let t = wal.suggest().unwrap().unwrap();
            let c = cost_of(&t);
            wal.report(t, c).unwrap();
        }
        drop(wal);
        // Iteration 777 can never occur in a 40-evaluation run, so finding
        // these bytes later can only mean the torn tail survived (the real
        // iteration-8 record would alias a torn `"iteration":8` prefix).
        let torn_tail = b"{\"iteration\":777,\"cost_b";
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(torn_tail).unwrap();
        }
        // First resume: drop the torn record, truncate it off disk, and
        // append a few more evaluations.
        let t = Telemetry::enabled();
        let (mut wal, outstanding) = WalSession::resume_with(&path, t.clone()).unwrap();
        assert_eq!(wal.replayed(), 7);
        assert_eq!(t.counter(Counter::WalTornTails), 1);
        assert_eq!(t.counter(Counter::WalReplayed), 7);
        for trial in outstanding {
            let c = cost_of(&trial);
            wal.report(trial, c).unwrap();
        }
        for _ in 0..5 {
            let trial = wal.suggest().unwrap().unwrap();
            let c = cost_of(&trial);
            wal.report(trial, c).unwrap();
        }
        drop(wal);
        // The file must contain no trace of the torn bytes.
        let blob = std::fs::read(&path).unwrap();
        assert!(
            !blob
                .windows(torn_tail.len())
                .any(|w| w == torn_tail.as_slice()),
            "torn partial record still present in the log"
        );
        // Second crash mid-append, second resume: must still parse.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"iteration\":99,\"co").unwrap();
        }
        let (mut wal, outstanding) = WalSession::resume(&path).unwrap();
        for trial in outstanding {
            let c = cost_of(&trial);
            wal.report(trial, c).unwrap();
        }
        while let Some(trial) = wal.suggest().unwrap() {
            let c = cost_of(&trial);
            wal.report(trial, c).unwrap();
        }
        assert_eq!(history_json(wal.session()), want);
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let h = header(StrategyKind::Random, 20, 9);
        let path = temp_path("corrupt");
        let mut wal = WalSession::create(&path, &h).unwrap();
        for _ in 0..5 {
            let t = wal.suggest().unwrap().unwrap();
            let c = cost_of(&t);
            wal.report(t, c).unwrap();
        }
        drop(wal);
        let blob = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = blob.lines().collect();
        lines[2] = "garbage in the middle";
        std::fs::write(&path, lines.join("\n")).unwrap();
        match WalSession::resume(&path) {
            Err(HarmonyError::WalCorrupt(msg)) => {
                assert!(msg.contains("line 3"), "{msg}")
            }
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn open_or_create_handles_both_paths() {
        let h = header(StrategyKind::NelderMead, 25, 2);
        let path = temp_path("open-or-create");
        let _ = std::fs::remove_file(&path);
        let (mut wal, outstanding) = WalSession::open_or_create(&path, &h).unwrap();
        assert_eq!(wal.replayed(), 0);
        assert!(outstanding.is_empty());
        let t = wal.suggest().unwrap().unwrap();
        let c = cost_of(&t);
        wal.report(t, c).unwrap();
        drop(wal);
        let (wal, _) = WalSession::open_or_create(&path, &h).unwrap();
        assert_eq!(wal.replayed(), 1);
    }

    #[test]
    fn version_mismatch_is_corruption() {
        let path = temp_path("version");
        let mut h = header(StrategyKind::Random, 10, 1);
        h.version = 99;
        let wal = WalSession::create(&path, &h).unwrap();
        drop(wal);
        assert!(matches!(
            WalSession::resume(&path),
            Err(HarmonyError::WalCorrupt(_))
        ));
    }
}
