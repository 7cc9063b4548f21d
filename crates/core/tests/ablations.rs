//! Ablations of the design choices DESIGN.md calls out, pinned at fixed
//! seeds on a 201×201 integer bowl:
//!
//! * **search strategy** — the simplex vs. random vs. systematic sampling,
//!   measured as evaluations to reach within 5% of the known optimum (the
//!   paper's motivation for an "intelligent" search, §VII);
//! * **restart-cost accounting** — off-line tuning with and without
//!   charging warm-up/restart overheads (§III: "our experiments take all
//!   costs of parameter changes into consideration");
//! * **prior-run seeding** — a cold-started simplex vs. one seeded from an
//!   earlier run's history (the SC'04 technique used for the O(10^100)
//!   PETSc space);
//! * **PRO rounds** — the batch-parallel simplex spends more evaluations
//!   than rounds, so on a wide machine its wall-clock scales with rounds.
//!
//! Each test asserts its shape claim, pins the exact values it measured,
//! and prints one `[ablation]` line:
//! `cargo test -q -p ah-core --test ablations -- --nocapture`.

use ah_core::prelude::*;
use ah_core::strategy::pro::tune_parallel;

fn bowl_space() -> SearchSpace {
    SearchSpace::builder()
        .int("x", -100, 100, 1)
        .int("y", -100, 100, 1)
        .build()
        .expect("valid bowl space")
}

fn bowl(cfg: &Configuration) -> f64 {
    let x = cfg.int("x").expect("x") as f64;
    let y = cfg.int("y").expect("y") as f64;
    (x - 37.0).powi(2) + 1.7 * (y + 21.0).powi(2)
}

fn run_session(strategy: Box<dyn SearchStrategy>, evals: usize, seed: u64) -> TuningResult {
    let options = SessionOptions {
        max_evaluations: evals,
        seed,
        ..Default::default()
    };
    TuningSession::new(bowl_space(), strategy, options).run(bowl)
}

/// Evaluations a strategy needs to get within 5% of the bowl optimum
/// (capped at 2,000).
fn evals_to_within_5pct(strategy: Box<dyn SearchStrategy>) -> usize {
    let cap = 2000;
    let result = run_session(strategy, cap, 3);
    result.history.iterations_to_within(1.05).unwrap_or(cap)
}

#[test]
fn search_strategy_simplex_beats_sampling() {
    let nm = evals_to_within_5pct(Box::new(NelderMead::default()));
    let random = evals_to_within_5pct(Box::new(RandomSearch::new()));
    let grid = evals_to_within_5pct(Box::new(GridSearch::new(2000)));
    println!("[ablation] evals to within 5%: nelder-mead={nm} random={random} grid={grid}");
    assert!(
        nm < random && nm < grid,
        "nm={nm} random={random} grid={grid}"
    );
    assert_eq!((nm, random, grid), (28, 756, 1338));
}

/// A short-run app on the bowl whose every run pays `overhead` seconds of
/// warm-up and again of restart, around a ≈ 0.5 s run.
struct OverheadApp {
    overhead: f64,
}

impl ShortRunApp for OverheadApp {
    fn space(&self) -> SearchSpace {
        bowl_space()
    }
    fn default_config(&self) -> Configuration {
        self.space().center()
    }
    fn run_short(&mut self, config: &Configuration) -> RunMeasurement {
        RunMeasurement {
            exec_time: bowl(config) * 1e-3 + 0.5,
            warmup_time: self.overhead,
            restart_cost: self.overhead,
        }
    }
}

#[test]
fn restart_cost_accounting_charges_the_overheads() {
    let tuning_time = |charge| {
        let mut tuner = OfflineTuner::new(SessionOptions {
            max_evaluations: 60,
            seed: 4,
            ..Default::default()
        });
        tuner.charge_overheads = charge;
        let mut app = OverheadApp { overhead: 2.0 };
        tuner
            .tune(&mut app, Box::new(NelderMead::default()))
            .tuning_time
    };
    let (charged, ignored) = (tuning_time(true), tuning_time(false));
    println!(
        "[ablation] tuning time with restart costs charged: {charged:.1}s vs ignored: {ignored:.1}s"
    );
    assert!(charged > ignored, "charged={charged} ignored={ignored}");
    assert_eq!((charged, ignored), (350.5114, 106.51140000000002));
}

#[test]
fn prior_run_seeding_starts_closer() {
    let first = run_session(Box::new(NelderMead::default()), 150, 5);
    let mut db = PriorRunDb::new();
    db.record_history("bowl", &first.history);

    let cold = run_session(Box::new(NelderMead::default()), 25, 6).best_cost;
    let seeded_nm = NelderMead::new(NelderMeadOptions {
        start: db.seed_for("bowl", &bowl_space()),
        ..Default::default()
    });
    let seeded = run_session(Box::new(seeded_nm), 25, 6).best_cost;
    println!("[ablation] best after 25 evals: cold={cold:.1} prior-seeded={seeded:.1}");
    assert!(seeded < cold, "seeded={seeded} cold={cold}");
    assert_eq!((cold, seeded), (1.0, 0.0));
}

#[test]
fn pro_rounds_are_fewer_than_its_evaluations() {
    let rounds = 40;
    let r = tune_parallel(&bowl_space(), bowl, ProOptions::default(), rounds, 8);
    let evaluations = r.history.runs();
    println!(
        "[ablation] PRO: best {:.1} in {evaluations} evaluations but only {rounds} parallel rounds \
         (wall-clock on a wide machine ~= rounds, not evaluations)",
        r.best_cost
    );
    assert!(evaluations > rounds, "evaluations={evaluations}");
    assert_eq!((r.best_cost, evaluations), (0.0, 58));
}
