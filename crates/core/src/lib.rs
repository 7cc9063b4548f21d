//! # Active Harmony (Rust reproduction)
//!
//! An automated performance-tuning system reproducing the design described in
//! I-Hsin Chung and Jeffrey K. Hollingsworth, *"A Case Study Using Automatic
//! Performance Tuning for Large-Scale Scientific Programs"* (HPDC 2006).
//!
//! The kernel is a [Nelder–Mead simplex](strategy::NelderMead) search adapted
//! to discrete parameter spaces: tunable parameters (integers, categorical
//! choices, decomposition boundaries, data layouts) are embedded as dimensions
//! of a continuous search space and every candidate point is projected to the
//! nearest valid lattice point before it is evaluated.
//!
//! Two tuning modes are provided, matching the paper:
//!
//! * **Off-line, iterative tuning** ([`offline`]): each tuning iteration is
//!   one *representative short run* of the application; the application is
//!   reconfigured and restarted between iterations, and restart/warm-up costs
//!   are charged to the tuning budget.
//! * **On-line tuning** ([`server`]): a long-running application connects
//!   to the Harmony server, registers its tunable variables, and fetches
//!   fresh parameter values / reports observed performance from inside its
//!   run loop without restarting.
//!
//! ## Quick example
//!
//! ```
//! use ah_core::prelude::*;
//!
//! // Tune two integer parameters to minimise a synthetic cost function.
//! let space = SearchSpace::builder()
//!     .int("x", 0, 100, 1)
//!     .int("y", 0, 100, 1)
//!     .build()
//!     .unwrap();
//! let mut session = TuningSession::new(
//!     space,
//!     Box::new(NelderMead::default()),
//!     SessionOptions { max_evaluations: 200, seed: 42, ..Default::default() },
//! );
//! let result = session.run(|cfg| {
//!     let x = cfg.int("x").unwrap() as f64;
//!     let y = cfg.int("y").unwrap() as f64;
//!     (x - 30.0).powi(2) + (y - 70.0).powi(2)
//! });
//! assert!(result.best_cost < 25.0);
//! ```

#![warn(missing_docs)]

pub mod constraint;
mod digest_index;
mod durable_log;
pub mod error;
pub mod history;
mod key;
pub mod meta;
pub mod objective;
pub mod offline;
pub mod param;
pub mod priors;
pub mod report;
pub mod retry;
pub mod seeded;
pub mod server;
pub mod session;
pub mod space;
pub mod space_compile;
pub mod store;
pub mod strategy;
pub mod telemetry;
pub mod value;
pub mod wal;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m` even if a thread panicked while holding it: a panic under one
/// of the crate's locks (a session, a telemetry ring, the store) must
/// not make every later caller panic too.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Convenience re-exports of the types needed for typical tuning workflows.
pub mod prelude {
    pub use crate::constraint::{Constraint, ConstraintSpec, MonotoneChain, SumBound};
    pub use crate::error::HarmonyError;
    pub use crate::history::{Evaluation, History};
    pub use crate::meta::{
        MetaAnnealing, MetaGenetic, MetaNelderMead, MetaOptions, MetaOutcome, MetaSurrogate,
        MetaTrial, MetaTunable, MetaTuner,
    };
    pub use crate::objective::{Objective, TradeoffObjective};
    pub use crate::offline::{OfflineTuner, RunMeasurement, ShortRunApp};
    pub use crate::param::Param;
    pub use crate::priors::PriorRunDb;
    pub use crate::report::TuningReport;
    pub use crate::retry::RetryPolicy;
    pub use crate::server::protocol::StrategyKind;
    pub use crate::server::{HarmonyClient, HarmonyServer, ServerConfig};
    pub use crate::session::{SearchSnapshot, SessionOptions, TuningResult, TuningSession};
    pub use crate::space::{CacheKey, Configuration, SearchSpace};
    pub use crate::space_compile::{
        Band, CompileStats, CompiledSpace, FeasibleCount, PointCursor, SpaceCursor, ValidPoints,
    };
    pub use crate::store::{
        space_fingerprint, PerfStore, SharedStore, StoreRecord, StoreStats, StoredCost,
    };
    pub use crate::strategy::{
        Annealing, AnnealingOptions, AnnealingSnapshot, Exhaustive, Genetic, GeneticOptions,
        GeneticSnapshot, GreedyFrom, GreedyOneParam, GreedyOptions, GridSearch, NelderMead,
        NelderMeadOptions, ParallelRankOrder, ProOptions, RandomSearch, SearchStrategy,
        SimplexSnapshot, StartPoint, StrategySnapshot, Surrogate, SurrogateOptions,
        SurrogateSnapshot,
    };
    pub use crate::telemetry::{
        Counter, Latency, SpanEvent, SpanKind, SpanToken, Telemetry, TrialEvent, TrialStage,
    };
    pub use crate::value::ParamValue;
    pub use crate::wal::{WalHeader, WalSession};
}

/// The unit tests' allocator: the system's, counting the calls (`alloc`,
/// `alloc_zeroed`, `realloc`) each thread makes, so that a test can hold a
/// path to a number of calls that does not grow with its input while other
/// tests run beside it.
#[cfg(test)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static CALLS: Cell<usize> = const { Cell::new(0) };
    }

    /// Allocator calls this thread has made.
    pub(crate) fn calls() -> usize {
        CALLS.with(Cell::get)
    }

    fn count() {
        // Not during the thread's own set-up or teardown.
        let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    }

    struct Counting;

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count();
            System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
            System.dealloc(p, layout)
        }

        unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            System.realloc(p, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;
}

/// A file path of a unit test's own, `<tmp>/ah-<pid>-<file>/<file>`: its
/// directory is made empty on creation and removed, with whatever the test
/// left in it, when the guard drops. Derefs to the file's path.
#[cfg(test)]
struct TempPath(std::path::PathBuf);

#[cfg(test)]
impl TempPath {
    fn new(file: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ah-{}-{file}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempPath(dir.join(file))
    }
}

#[cfg(test)]
impl std::ops::Deref for TempPath {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

#[cfg(test)]
impl AsRef<std::path::Path> for TempPath {
    fn as_ref(&self) -> &std::path::Path {
        &self.0
    }
}

#[cfg(test)]
impl Drop for TempPath {
    fn drop(&mut self) {
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::lock;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison attempt");
        })
        .join();
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 1);
    }
}
