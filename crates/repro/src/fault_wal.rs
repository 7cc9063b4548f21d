//! `repro fault-wal`: a crash-safe tuning run driven through the
//! write-ahead log.
//!
//! This is the scenario the WAL exists for: a tuning campaign is started,
//! the process dies mid-experiment (a `--crash-after N` self-abort in CI,
//! or a real `SIGKILL`), and a second invocation with `--resume` replays
//! the log and finishes the search. Because every stochastic choice derives
//! from the session seed and costs are deterministic functions of the
//! configuration, the resumed run must write a results file *byte-identical*
//! to an uninterrupted run — which is exactly what the CI smoke job and the
//! `resume_sigkill` integration test assert.

use ah_core::prelude::*;
use ah_core::session::Trial;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

/// Knobs of one `fault-wal` run (parsed from the CLI by `bin/repro`).
#[derive(Debug, Clone)]
pub struct FaultWalConfig {
    /// Path of the write-ahead log.
    pub wal: PathBuf,
    /// Path of the results JSON written on completion.
    pub out: PathBuf,
    /// Resume from an existing log instead of starting fresh.
    pub resume: bool,
    /// Abort the process (no unwinding, no cleanup — the closest safe
    /// stand-in for `kill -9`) after this many evaluations.
    pub crash_after: Option<usize>,
    /// Artificial delay per evaluation, so an external `SIGKILL` can land
    /// mid-experiment deterministically enough for tests.
    pub eval_delay: Duration,
    /// Shrink the workload for smoke tests.
    pub quick: bool,
}

fn header(quick: bool) -> WalHeader {
    WalHeader::new(
        "fault-wal",
        vec![Param::int("rows", 1, 64, 1), Param::int("cols", 1, 64, 1)],
        vec![],
        StrategyKind::NelderMead,
        SessionOptions {
            max_evaluations: if quick { 60 } else { 200 },
            seed: 4242,
            ..Default::default()
        },
    )
}

/// Deterministic cost (same bowl as the `fault` experiment).
fn objective(cfg: &Configuration) -> f64 {
    let r = cfg.int("rows").expect("rows") as f64;
    let c = cfg.int("cols").expect("cols") as f64;
    (r - 24.0).powi(2) * 0.7 + (c - 17.0).powi(2) + (r * c - 400.0).abs() * 0.01
}

/// Run (or resume) the logged campaign. Returns the process exit code.
pub fn run(cfg: &FaultWalConfig) -> i32 {
    let header = header(cfg.quick);
    let opened = if cfg.resume {
        WalSession::open_or_create(&cfg.wal, &header)
    } else {
        WalSession::create(&cfg.wal, &header).map(|w| (w, Vec::new()))
    };
    let (mut wal, outstanding) = match opened {
        Ok(v) => v,
        Err(e) => {
            eprintln!("fault-wal: cannot open {}: {e}", cfg.wal.display());
            return 1;
        }
    };
    eprintln!(
        "fault-wal: {} {} ({} evaluations replayed, {} outstanding)",
        if cfg.resume { "resumed" } else { "started" },
        cfg.wal.display(),
        wal.replayed(),
        outstanding.len()
    );

    let mut measured = 0usize;
    let crash_check = |measured: usize| {
        if Some(measured) == cfg.crash_after {
            eprintln!("fault-wal: injected crash after {measured} evaluations");
            std::process::abort();
        }
    };
    let measure = |wal: &mut WalSession, t: Trial| -> bool {
        if !cfg.eval_delay.is_zero() {
            std::thread::sleep(cfg.eval_delay);
        }
        let cost = objective(&t.config);
        if let Err(e) = wal.report(t, cost) {
            eprintln!("fault-wal: report failed: {e}");
            return false;
        }
        true
    };

    // Trials the crashed run had issued but never reported come first.
    for t in outstanding {
        if !measure(&mut wal, t) {
            return 1;
        }
        measured += 1;
        crash_check(measured);
    }
    loop {
        let next = match wal.suggest() {
            Ok(next) => next,
            Err(e) => {
                eprintln!("fault-wal: suggest failed: {e}");
                return 1;
            }
        };
        let Some(t) = next else { break };
        if !measure(&mut wal, t) {
            return 1;
        }
        measured += 1;
        crash_check(measured);
    }

    let result = wal.result();
    let history = wal.session().history();
    let blob = serde_json::json!({
        "app": "fault-wal",
        "quick": cfg.quick,
        "evaluations": history.len(),
        "best_cost_bits": result.best_cost.to_bits(),
        "best_cost": result.best_cost,
        "best_config": result.best_config.to_string(),
        "trajectory": history.evaluations().iter().map(|e| serde_json::json!({
            "iteration": e.iteration,
            "cost_bits": e.cost.to_bits(),
            "cached": e.cached,
        })).collect::<Vec<_>>(),
    });
    let text = match serde_json::to_string_pretty(&blob) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fault-wal: cannot serialize results: {e}");
            return 1;
        }
    };
    let written = std::fs::File::create(&cfg.out).and_then(|mut f| {
        f.write_all(text.as_bytes())
            .and_then(|()| f.write_all(b"\n"))
    });
    if let Err(e) = written {
        eprintln!("fault-wal: cannot write {}: {e}", cfg.out.display());
        return 1;
    }
    eprintln!(
        "fault-wal: finished with {} evaluations ({} measured this run), best cost {:.4}; wrote {}",
        history.len(),
        measured,
        result.best_cost,
        cfg.out.display()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_and_interrupted_runs_write_identical_results() {
        let dir = crate::TempDir::new("fault-wal");
        let tmp = |tag: &str| dir.join(tag);
        let clean_out = tmp("clean.json");
        let code = run(&FaultWalConfig {
            wal: tmp("clean.wal"),
            out: clean_out.clone(),
            resume: false,
            crash_after: None,
            eval_delay: Duration::ZERO,
            quick: true,
        });
        assert_eq!(code, 0);

        // Simulate the interrupted run in-process: drive the same campaign
        // partway, drop it (the on-disk state of a crash), then resume.
        let wal_path = tmp("interrupted.wal");
        let h = header(true);
        let mut wal = WalSession::create(&wal_path, &h).unwrap();
        for _ in 0..13 {
            let t = wal.suggest().unwrap().unwrap();
            let cost = objective(&t.config);
            wal.report(t, cost).unwrap();
        }
        drop(wal);
        let resumed_out = tmp("resumed.json");
        let code = run(&FaultWalConfig {
            wal: wal_path,
            out: resumed_out.clone(),
            resume: true,
            crash_after: None,
            eval_delay: Duration::ZERO,
            quick: true,
        });
        assert_eq!(code, 0);
        let a = std::fs::read(&clean_out).unwrap();
        let b = std::fs::read(&resumed_out).unwrap();
        assert_eq!(a, b, "resumed results must be byte-identical");
    }
}
