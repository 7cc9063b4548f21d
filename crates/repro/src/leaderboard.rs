//! `repro leaderboard` — the strategy roster raced head-to-head.
//!
//! Every search strategy the repo implements runs the same off-line tuning
//! problems and is ranked by **evaluations-to-target**: the number of fresh
//! short runs a campaign spends before its best cost reaches a target set
//! at a fixed fraction of the demonstrably achievable improvement.
//! Campaigns that exhaust their budget without reaching the target score
//! `2 × budget` (a finite "did not finish" penalty that still orders
//! near-misses by their remaining gap — see `score`).
//!
//! The race covers the paper's three application families (POP block
//! sizes, POP namelist parameters, PETSc SLES decomposition boundaries —
//! the last one constrained, exercising the feasibility-aware snapping)
//! and averages each pairing over several seeds. Results are written to
//! `BENCH_strategies.json`; the run fails if no adaptive newcomer
//! (annealing / genetic / surrogate) beats random search on some problem.

use ah_clustersim::machines::sp3_seaborg;
use ah_clustersim::{Machine, NetworkModel};
use ah_core::offline::{OfflineTuner, ShortRunApp};
use ah_core::session::{SessionOptions, StopReason};
use ah_core::strategy::{
    Annealing, Exhaustive, Genetic, GreedyFrom, GreedyOptions, GridSearch, NelderMead,
    NelderMeadOptions, ParallelRankOrder, ProOptions, RandomSearch, SearchStrategy, StartPoint,
    Surrogate,
};
use ah_petsc::{SlesDecompositionApp, SlesProblem};
use ah_pop::{OceanGrid, PopBlockApp, PopParamApp};
use ah_sparse::gen::{clustered_blocks, ones};
use std::io::Write;

/// The nine raced strategies, in roster order. The last three are the
/// adaptive newcomers the leaderboard gate checks against random search.
pub const ROSTER: [&str; 9] = [
    "random",
    "grid",
    "exhaustive",
    "greedy",
    "nelder-mead",
    "pro",
    "annealing",
    "genetic",
    "surrogate",
];

/// The adaptive strategies added by the strategy-suite expansion.
pub const NEWCOMERS: [&str; 3] = ["annealing", "genetic", "surrogate"];

/// One tuning problem of the race.
struct Problem {
    name: &'static str,
    budget: usize,
    /// Fraction of the pilot-demonstrated improvement the target demands.
    target_frac: f64,
    make: Box<dyn Fn() -> Box<dyn ShortRunApp>>,
}

const SLES_BLOCKS: [usize; 6] = [30, 110, 25, 60, 95, 80];

fn problems(quick: bool) -> Vec<Problem> {
    let budget = if quick { 60 } else { 150 };
    vec![
        Problem {
            name: "pop-blocks",
            budget,
            target_frac: 0.95,
            make: Box::new(|| {
                Box::new(PopBlockApp::new(
                    OceanGrid::synthetic(360, 240),
                    sp3_seaborg(12, 4),
                    3,
                ))
            }),
        },
        Problem {
            name: "pop-params",
            budget,
            target_frac: 0.97,
            make: Box::new(|| {
                Box::new(PopParamApp::new(
                    OceanGrid::synthetic(360, 240),
                    sp3_seaborg(12, 4),
                    (180, 100),
                    3,
                ))
            }),
        },
        Problem {
            name: "sles-decomp",
            budget,
            target_frac: 0.7,
            make: Box::new(|| {
                let a = clustered_blocks(&SLES_BLOCKS, 0.85, 20);
                let n = a.rows();
                let machine = Machine::uniform("petsc 4x1", 4, 1, 1.0, NetworkModel::default());
                let mut problem = SlesProblem::new(a, ones(n), machine);
                problem.set_iterations(200);
                Box::new(SlesDecompositionApp::new(problem, 4))
            }),
        },
    ]
}

/// Build a roster strategy for a problem whose default configuration embeds
/// at `default_coords`. Seeded strategies (greedy, the simplex family)
/// start from the default, as the paper's campaigns do.
pub fn build_strategy(
    name: &str,
    default_coords: &[f64],
    budget: usize,
) -> Box<dyn SearchStrategy> {
    match name {
        "random" => Box::new(RandomSearch::new()),
        "grid" => Box::new(GridSearch::new(budget)),
        "exhaustive" => Box::new(Exhaustive::new(10_000)),
        "greedy" => Box::new(GreedyFrom::new(
            default_coords.to_vec(),
            GreedyOptions::default(),
        )),
        "nelder-mead" => Box::new(NelderMead::new(NelderMeadOptions {
            start: StartPoint::Coords(default_coords.to_vec()),
            ..NelderMeadOptions::default()
        })),
        "pro" => Box::new(ParallelRankOrder::new(ProOptions {
            start: StartPoint::Coords(default_coords.to_vec()),
            ..ProOptions::default()
        })),
        "annealing" => Box::new(Annealing::default()),
        "genetic" => Box::new(Genetic::default()),
        "surrogate" => Box::new(Surrogate::default()),
        other => panic!("unknown roster strategy `{other}`"),
    }
}

/// Evaluations-to-target of one seeded campaign: the fresh short runs
/// spent when the target was reached. A campaign that exhausts its budget
/// scores `2 × budget` plus up to one more budget scaled by the remaining
/// relative gap, so near-misses still rank above campaigns stuck at the
/// default.
fn score(
    app: &mut dyn ShortRunApp,
    strategy: Box<dyn SearchStrategy>,
    opts: &SessionOptions,
    default_cost: f64,
) -> (f64, f64) {
    let out = OfflineTuner::new(opts.clone()).tune(app, strategy);
    let target = opts.target_cost.expect("leaderboard sessions have targets");
    let budget = opts.max_evaluations as f64;
    let evals = if out.result.stop_reason == StopReason::TargetReached {
        out.result.history.runs() as f64
    } else {
        let span = (default_cost - target).max(f64::EPSILON);
        let gap = ((out.result.best_cost - target) / span).clamp(0.0, 1.0);
        2.0 * budget + budget * gap
    };
    (evals, out.result.best_cost)
}

/// Run the leaderboard; returns a process exit code.
pub fn run(args: &[String], quick: bool) -> i32 {
    let json_path = flag_value(args, "--json").unwrap_or_else(|| "BENCH_strategies.json".into());
    let seeds: u64 = flag_value(args, "--seeds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2 } else { 3 });

    let mut experiments = Vec::new();
    let mut mean_rank = vec![0.0f64; ROSTER.len()];
    let mut newcomer_beats_random_everywhere: Vec<&str> = NEWCOMERS.to_vec();
    let mut all_problems_have_winner = true;

    for p in problems(quick) {
        // Baseline and target: measure the default, then let a pilot
        // simplex campaign demonstrate what improvement is achievable;
        // the target demands `target_frac` of that gain.
        let mut app = (p.make)();
        let space = app.space();
        let default_cfg = app.default_config();
        let default_coords = space.embed(&default_cfg).expect("default embeds");
        let default_cost = app.run_short(&default_cfg).exec_time;
        let pilot_best = ["nelder-mead", "greedy"]
            .iter()
            .map(|s| {
                OfflineTuner::new(SessionOptions {
                    max_evaluations: 2 * p.budget,
                    seed: 9090,
                    ..SessionOptions::default()
                })
                .tune(
                    (p.make)().as_mut(),
                    build_strategy(s, &default_coords, p.budget),
                )
                .result
                .best_cost
            })
            .fold(f64::INFINITY, f64::min);
        let achievable = (default_cost - pilot_best).max(0.0);
        let target_cost = default_cost - p.target_frac * achievable;

        let opts = SessionOptions {
            max_evaluations: p.budget,
            target_cost: Some(target_cost),
            ..SessionOptions::default()
        };

        struct Row {
            strategy: &'static str,
            evals: f64,
            reached: usize,
            best: f64,
            rank: usize,
        }
        let mut rows = Vec::new();
        for name in ROSTER {
            let mut total_evals = 0.0;
            let mut total_best = 0.0;
            let mut reached = 0usize;
            for s in 0..seeds {
                let mut app = (p.make)();
                let strategy = build_strategy(name, &default_coords, p.budget);
                let (evals, best) = score(
                    app.as_mut(),
                    strategy,
                    &SessionOptions {
                        seed: 1000 + s,
                        ..opts.clone()
                    },
                    default_cost,
                );
                total_evals += evals;
                total_best += best;
                if evals <= p.budget as f64 {
                    reached += 1;
                }
            }
            rows.push(Row {
                strategy: name,
                evals: total_evals / seeds as f64,
                reached,
                best: total_best / seeds as f64,
                rank: 0,
            });
        }

        // Rank within the problem (ascending evaluations-to-target).
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| rows[a].evals.total_cmp(&rows[b].evals));
        for (rank, &i) in order.iter().enumerate() {
            rows[i].rank = rank + 1;
            mean_rank[i] += (rank + 1) as f64;
        }

        let random_score = rows[0].evals;
        let winners: Vec<&str> = NEWCOMERS
            .iter()
            .filter(|n| {
                rows.iter()
                    .find(|r| r.strategy == **n)
                    .map(|r| r.evals < random_score)
                    .unwrap_or(false)
            })
            .copied()
            .collect();
        newcomer_beats_random_everywhere.retain(|n| winners.contains(n));
        if winners.is_empty() {
            all_problems_have_winner = false;
            eprintln!(
                "leaderboard: no adaptive newcomer beat random on {} \
                 (random reached in {random_score:.1})",
                p.name
            );
        }

        println!(
            "## {} (target {:.5}, default {:.5}, budget {})",
            p.name, target_cost, default_cost, p.budget
        );
        for &i in &order {
            println!(
                "  {:2}. {:12} evals-to-target {:7.1}  reached {}/{seeds}  best {:.5}",
                rows[i].rank, rows[i].strategy, rows[i].evals, rows[i].reached, rows[i].best,
            );
        }
        println!();
        let row_json: Vec<_> = rows
            .iter()
            .map(|r| {
                serde_json::json!({
                    "strategy": r.strategy,
                    "evals_to_target": r.evals,
                    "reached": format!("{}/{seeds}", r.reached),
                    "mean_best_cost": r.best,
                    "rank": r.rank,
                })
            })
            .collect();
        experiments.push(serde_json::json!({
            "name": p.name,
            "budget": p.budget,
            "seeds": seeds,
            "default_cost": default_cost,
            "target_cost": target_cost,
            "pilot_best": pilot_best,
            "strategies": row_json,
            "newcomers_beating_random": winners,
        }));
    }

    let n = experiments.len() as f64;
    let mut overall: Vec<(f64, &str)> = mean_rank
        .iter()
        .zip(ROSTER.iter())
        .map(|(r, s)| (r / n, *s))
        .collect();
    overall.sort_by(|a, b| a.0.total_cmp(&b.0));
    println!("## overall (mean rank across problems)");
    for (r, s) in &overall {
        println!("  {s:12} {r:.2}");
    }

    let report = serde_json::json!({
        "bench": "strategies",
        "mode": if quick { "quick" } else { "full" },
        "experiments": experiments,
        "overall_ranking": overall.iter().map(|(r, s)| serde_json::json!({
            "strategy": s, "mean_rank": r,
        })).collect::<Vec<_>>(),
        "newcomers_beating_random_everywhere": newcomer_beats_random_everywhere,
        "every_problem_has_newcomer_winner": all_problems_have_winner,
    });
    let blob = serde_json::to_string_pretty(&report).expect("report serializes");
    match std::fs::File::create(&json_path).and_then(|mut f| {
        f.write_all(blob.as_bytes())?;
        f.write_all(b"\n")
    }) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => {
            eprintln!("cannot write {json_path}: {e}");
            return 2;
        }
    }
    if !all_problems_have_winner {
        eprintln!("leaderboard FAILED: some problem had no adaptive newcomer beating random");
        return 1;
    }
    0
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_builds_every_strategy() {
        for name in ROSTER {
            let s = build_strategy(name, &[100.0, 100.0], 50);
            assert!(!s.name().is_empty());
        }
    }
}
