//! # ah-repro — the experiment harness
//!
//! One [`Experiment`] per table and figure of the HPDC'06 Active Harmony
//! paper. Each experiment builds its workload from the app crates, runs the
//! tuning campaign the paper describes, renders the paper-shaped table or
//! chart, and compares its measured shape against the paper's reported
//! numbers (directions, rough factors, crossovers — not absolute seconds;
//! the substrate is a simulator, not the authors' testbed).
//!
//! Run everything with `cargo run --release -p ah-repro --bin repro -- all`.

#![warn(missing_docs)]

pub mod bench_server;
pub mod chart;
pub mod experiment;
pub mod experiments;
pub mod fault_wal;
pub mod leaderboard;
pub mod meta_cli;
pub mod observe_cli;
pub mod serve_cli;
pub mod space_cli;
pub mod store_cli;
pub mod swarm;
pub mod table;
pub mod telemetry_cli;

pub use experiment::{all_experiments, ExpReport, Experiment, Finding, RunCtx};

/// A directory of one unit test's own under the temporary directory,
/// removed with everything in it when dropped.
#[cfg(test)]
struct TempDir(std::path::PathBuf);

#[cfg(test)]
impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ah-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn join(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

#[cfg(test)]
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
