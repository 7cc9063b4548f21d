//! Cross-crate integration tests: Active Harmony driving each simulated
//! application through its public API, plus the server architecture under
//! concurrent clients.

use ah_clustersim::machines::{hetero_p4_p2, hockney, sp3_seaborg};
use ah_core::offline::OfflineTuner;
use ah_core::param::Param;
use ah_core::prelude::*;
use ah_core::session::SessionOptions;
use ah_core::strategy::{NelderMeadOptions, StartPoint};
use ah_gs2::{CollisionModel, Gs2Config, Gs2LayoutApp, Gs2Model};
use ah_petsc::{CavityDistributionApp, DrivenCavity};
use ah_pop::{OceanGrid, PopBlockApp, PopParamApp, PopParams};

fn opts(max: usize, seed: u64) -> SessionOptions {
    SessionOptions {
        max_evaluations: max,
        seed,
        ..Default::default()
    }
}

#[test]
fn harmony_tunes_every_application_through_short_runs() {
    // PETSc cavity on a heterogeneous machine.
    let cavity = DrivenCavity::new(40, 40, hetero_p4_p2(), 10);
    let mut petsc = CavityDistributionApp::new(cavity);
    let petsc_out =
        OfflineTuner::new(opts(80, 1)).tune(&mut petsc, Box::new(NelderMead::default()));
    assert!(petsc_out.improvement_pct() > 0.0);

    // POP block sizing.
    let mut pop = PopBlockApp::new(OceanGrid::synthetic(360, 240), sp3_seaborg(4, 8), 2);
    let pop_out = OfflineTuner::new(opts(50, 2)).tune(&mut pop, Box::new(NelderMead::default()));
    assert!(pop_out.result.best_cost <= pop_out.default_cost);

    // GS2 layout.
    let mut gs2_model = Gs2Model::on_seaborg(8, 8);
    gs2_model.nx = 16;
    gs2_model.ny = 8;
    gs2_model.nl = 16;
    let base = Gs2Config {
        nodes: 8,
        collision: CollisionModel::Lorentz,
        ..Gs2Config::paper_default()
    };
    let mut gs2 = Gs2LayoutApp::new(gs2_model, base, 5);
    let gs2_out = OfflineTuner::new(opts(40, 3)).tune(&mut gs2, Box::new(NelderMead::default()));
    assert!(gs2_out.result.best_cost <= gs2_out.default_cost);
}

#[test]
fn pop_parameter_tuning_beats_defaults_and_respects_types() {
    let mut app = PopParamApp::new(OceanGrid::synthetic(360, 240), hockney(4, 4), (36, 30), 2);
    let out = OfflineTuner::new(opts(60, 4)).tune(&mut app, Box::new(NelderMead::default()));
    assert!(out.improvement_pct() >= 0.0);
    // The tuned configuration decodes into a full PopParams assignment.
    let params = PopParams::from_config(&out.result.best_config);
    assert!(params.num_iotasks >= 1);
    assert_eq!(params.selection.len(), ah_pop::params::CHOICES.len());
}

#[test]
fn strategies_rank_sensibly_on_the_same_application() {
    // On the cavity distribution problem, Nelder-Mead should do at least as
    // well as random search under the same evaluation budget.
    let run = |strategy: Box<dyn SearchStrategy>, seed: u64| {
        let cavity = DrivenCavity::new(40, 40, hetero_p4_p2(), 10);
        let mut app = CavityDistributionApp::new(cavity);
        OfflineTuner::new(opts(60, seed))
            .tune(&mut app, strategy)
            .result
            .best_cost
    };
    let nm = run(Box::<NelderMead>::default(), 7);
    let rs = run(Box::new(RandomSearch::new()), 7);
    assert!(
        nm <= rs * 1.10,
        "Nelder-Mead ({nm}) should be competitive with random ({rs})"
    );
}

#[test]
fn server_tunes_two_simulated_apps_concurrently() {
    let server = HarmonyServer::start();
    let mut handles = Vec::new();
    for (app_name, target) in [("app-a", 12_i64), ("app-b", 70_i64)] {
        let client = server.connect(app_name).unwrap();
        handles.push(std::thread::spawn(move || {
            client.add_param(Param::int("x", 0, 100, 1)).unwrap();
            client
                .seal(
                    SessionOptions {
                        max_evaluations: 50,
                        seed: target as u64,
                        ..Default::default()
                    },
                    StrategyKind::NelderMead,
                )
                .unwrap();
            loop {
                let f = client.fetch().unwrap();
                if f.finished {
                    break;
                }
                let x = f.config.int("x").unwrap();
                client.report(((x - target) as f64).abs()).unwrap();
            }
            let (cfg, cost) = client.best().unwrap().unwrap();
            (cfg.int("x").unwrap(), cost)
        }));
    }
    let results: Vec<(i64, f64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!((results[0].0 - 12).abs() <= 2, "{results:?}");
    assert!((results[1].0 - 70).abs() <= 2, "{results:?}");
    server.shutdown();
}

#[test]
fn online_tuner_converges_on_simulated_sles_interval() {
    use ah_sparse::gen::{clustered_blocks, ones};
    use ah_sparse::RowPartition;

    // On-line scenario: the application re-partitions between solver calls.
    let a = clustered_blocks(&[20, 60, 20], 0.8, 5);
    let machine =
        ah_clustersim::Machine::uniform("m", 4, 1, 1.0, ah_clustersim::NetworkModel::default());
    let mut problem = ah_petsc::SlesProblem::new(a, ones(100), machine);
    problem.set_iterations(50);

    // It declares the boundaries and their ordering to the Harmony server.
    let space = ah_petsc::tunable::boundary_space(100, 4);
    let server = HarmonyServer::start();
    let client = server.connect("sles").unwrap();
    for param in space.params() {
        client.add_param(param.clone()).unwrap();
    }
    client
        .add_monotone_chain(space.params().iter().map(Param::name))
        .unwrap();
    client.seal(opts(60, 9), StrategyKind::NelderMead).unwrap();
    let default_time = problem.solve(&RowPartition::even(100, 4)).time;
    let mut best_seen = f64::INFINITY;
    loop {
        let fetched = client.fetch().unwrap();
        if fetched.finished {
            break;
        }
        let part = ah_petsc::tunable::partition_from_config(&fetched.config, 100, 4);
        let t = problem.solve(&part).time;
        best_seen = best_seen.min(t);
        client.report(t).unwrap();
    }
    server.shutdown();
    assert!(best_seen <= default_time * 1.001);
}

#[test]
fn prior_run_db_accelerates_a_related_problem() {
    // Tune a small problem, bank the history, then verify the seeded search
    // on a related problem starts from good points.
    let space = SearchSpace::builder()
        .int("a", 0, 1000, 1)
        .int("b", 0, 1000, 1)
        .build()
        .unwrap();
    let objective = |cfg: &Configuration| {
        ((cfg.int("a").unwrap() - 600) as f64).abs() + ((cfg.int("b").unwrap() - 300) as f64).abs()
    };

    let mut first = TuningSession::new(
        space.clone(),
        Box::new(NelderMead::default()),
        opts(120, 10),
    );
    let r1 = first.run(objective);

    let mut db = PriorRunDb::new();
    db.record_history("app", &r1.history);
    let seed = db.seed_for("app", &space);
    let nm = NelderMead::new(NelderMeadOptions {
        start: seed,
        ..Default::default()
    });
    let mut second = TuningSession::new(space, Box::new(nm), opts(15, 11));
    let r2 = second.run(objective);
    // With only 15 evaluations the seeded search should already be close.
    assert!(
        r2.best_cost <= r1.best_cost * 2.0 + 50.0,
        "seeded {} vs original {}",
        r2.best_cost,
        r1.best_cost
    );
}

#[test]
fn tuning_still_improves_under_measurement_noise() {
    // §III's off-line runs are real benchmark measurements and therefore
    // noisy; the cache-and-simplex pipeline must still find large wins when
    // every short run jitters by ±5%.
    let cavity = DrivenCavity::new(50, 50, hetero_p4_p2(), 20);
    let default_time = cavity.run_time(&cavity.default_distribution());
    let mut app = CavityDistributionApp::new(cavity).with_noise(0.05, 77);
    let out = OfflineTuner::new(opts(120, 78)).tune(&mut app, Box::new(NelderMead::default()));
    // Judge the tuned configuration by its *noise-free* time.
    let cavity = DrivenCavity::new(50, 50, hetero_p4_p2(), 20);
    let tuned = ah_petsc::tunable::partition_from_config(&out.result.best_config, 50, 4);
    let clean_tuned = cavity.run_time(&tuned);
    assert!(
        clean_tuned < default_time * 0.8,
        "noisy tuning found {clean_tuned} vs default {default_time}"
    );
}

#[test]
fn greedy_baseline_matches_simplex_on_separable_pop_namelist() {
    use ah_core::strategy::{GreedyFrom, GreedyOptions};
    // POP's namelist is (nearly) separable, so the greedy one-param sweep —
    // the manual procedure the paper replaces — does well here; the simplex
    // must at least match it.
    let grid = OceanGrid::synthetic(360, 240);
    let run = |strategy: Box<dyn SearchStrategy>, evals| {
        let mut app = PopParamApp::new(grid.clone(), hockney(4, 4), (36, 30), 2);
        OfflineTuner::new(opts(evals, 81))
            .tune(&mut app, strategy)
            .result
            .best_cost
    };
    let start = PopParams::default().to_coords();
    let greedy = run(
        Box::new(GreedyFrom::new(start.clone(), GreedyOptions::default())),
        80,
    );
    let nm = run(
        Box::new(NelderMead::new(NelderMeadOptions {
            start: StartPoint::Coords(start),
            ..Default::default()
        })),
        80,
    );
    assert!(
        nm <= greedy * 1.05,
        "simplex {nm} should be competitive with greedy {greedy}"
    );
}

#[test]
fn narrowed_space_shrinks_search_for_large_problems() {
    let space = SearchSpace::builder()
        .int("x", 0, 100_000, 1)
        .build()
        .unwrap();
    let mut db = PriorRunDb::new();
    db.record("big", space.project(&[42_000.0]), 1.0);
    let narrow = db.narrowed_space("big", &space, 0.05).unwrap();
    assert!(narrow.cardinality().unwrap() <= space.cardinality().unwrap() / 5);
    // The prior best stays inside the narrowed space.
    let cfg = narrow.project(&[42_000.0]);
    assert_eq!(cfg.int("x"), Some(42_000));
}
