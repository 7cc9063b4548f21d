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
    pub use crate::space::{Configuration, SearchSpace};
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
