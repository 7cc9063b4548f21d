//! `inproc-search`: the strategy roster raced in-process, no server.
//!
//! Each round races the nine roster strategies over three synthetic
//! problems with analytic objectives, then streams valid points of the
//! billion-point `synth-1e9` space. `strategy`, `session` and
//! `space_compile` do all the work; wire and store do none. `fresh_evals`
//! is the race's evaluations-to-target and `trial_rtt_p50_us` the time
//! blocked in `suggest` + `report`.

use crate::harness::{Meter, RoundWorkload, RunConfig, SetupPlan};
use ah_core::constraint::{MonotoneChain, SumBound};
use ah_core::session::{SessionOptions, TuningSession};
use ah_core::space::{Configuration, SearchSpace};
use ah_core::space_compile::CompiledSpace;
use ah_repro::leaderboard::{build_strategy, ROSTER};
use std::time::Instant;

/// Rounds of the campaign set.
pub const ROUNDS: usize = 60;
/// Seeds each (strategy, problem) pair is raced under per round, at the
/// reference run length.
pub const RACE_SEEDS: usize = 4;
/// Fresh evaluations a campaign may spend.
pub const BUDGET: usize = 48;
/// Valid points of `synth-1e9` streamed per round.
pub const STREAM_POINTS: usize = 100_000;
/// Share of the default configuration's cost a campaign must get under.
const TARGET_SHARE: f64 = 0.05;

/// One synthetic tuning problem: a space, an analytic objective with its
/// optimum (cost 0) at a known lattice point, and the cost to reach.
pub struct Problem {
    /// Short name used in check and metric names.
    pub name: &'static str,
    /// The search space, constraints included.
    pub space: SearchSpace,
    /// Where strategies that start from the shipped default start.
    pub default_coords: Vec<f64>,
    /// Cost a campaign must reach to have finished.
    pub target: f64,
    kind: Kind,
    /// The optimum, one lattice value per dimension.
    optimum: Vec<i64>,
}

enum Kind {
    Bowl,
    Rosenbrock,
    Constrained,
}

impl Problem {
    /// The analytic objective.
    pub fn cost(&self, config: &Configuration) -> f64 {
        let x = config.cache_key();
        match self.kind {
            Kind::Bowl | Kind::Constrained => x
                .iter()
                .zip(&self.optimum)
                .enumerate()
                .map(|(i, (v, o))| (1 + i % 3) as f64 * ((v - o) * (v - o)) as f64)
                .sum(),
            // Rosenbrock's valley on a 0.25 lattice, shifted so that its
            // minimum sits on the optimum.
            Kind::Rosenbrock => {
                let y: Vec<f64> = x
                    .iter()
                    .zip(&self.optimum)
                    .map(|(v, o)| 1.0 + 0.25 * (v - o) as f64)
                    .collect();
                y.windows(2)
                    .map(|w| 100.0 * (w[1] - w[0] * w[0]).powi(2) + (1.0 - w[0]).powi(2))
                    .sum()
            }
        }
    }

    fn finish(mut self) -> Self {
        let default = self.space.center();
        self.default_coords = self.space.embed(&default).expect("the centre embeds");
        self.target = TARGET_SHARE * self.cost(&default);
        self
    }
}

fn int_space(prefix: &str, dims: usize, max: i64) -> ah_core::space::SearchSpaceBuilder {
    (0..dims).fold(SearchSpace::builder(), |b, d| {
        b.int(format!("{prefix}{d}"), 0, max, 1)
    })
}

/// The three problems. Spaces, objectives and optima are fixed; a run's
/// seed drives the campaigns' own seeds, which is where a strategy's
/// randomness comes from.
///
/// The spaces are the size of the paper's own (a few thousand points), not
/// larger: the surrogate strategy scores up to 65 536 compiled points per
/// proposal, about 0.3 µs each, so on a million-point space one of its
/// campaigns alone would outlast a round.
pub fn problems() -> Vec<Problem> {
    let problem = |name, space: SearchSpace, kind, optimum: &[i64]| {
        Problem {
            name,
            space,
            default_coords: Vec::new(),
            target: 0.0,
            kind,
            optimum: optimum.to_vec(),
        }
        .finish()
    };
    vec![
        // A 4-D integer bowl, 8 values per dimension; the optimum sits in a
        // corner region, away from the centre the seeded strategies start at.
        problem(
            "bowl4",
            int_space("x", 4, 7).build().expect("bowl space"),
            Kind::Bowl,
            &[6, 1, 7, 0],
        ),
        // A 6-D Rosenbrock valley on a 0.25 lattice, 4 values per dimension.
        problem(
            "rosenbrock6",
            int_space("r", 6, 3).build().expect("rosenbrock space"),
            Kind::Rosenbrock,
            &[3, 0, 2, 1, 3, 0],
        ),
        // A monotone chain over c0..c3 and a sum bound over c3..c5: strategies
        // must snap proposals into the feasible set
        // (`CompiledSpace::snap_feasible`). The optimum is feasible.
        problem(
            "chain-sum6",
            int_space("c", 6, 5)
                .constraint(MonotoneChain::new(["c0", "c1", "c2", "c3"]))
                .constraint(SumBound::new(["c3", "c4", "c5"], 2.0, 11.0))
                .build()
                .expect("constrained space"),
            Kind::Constrained,
            &[0, 1, 1, 5, 1, 4],
        ),
    ]
}

/// Outcome of one seeded campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceRow {
    /// Roster name of the strategy.
    pub strategy: &'static str,
    /// Fresh evaluations spent when the target was reached; the budget when
    /// it was not.
    pub evals_to_target: u64,
    /// Trials the campaign actually ran.
    pub trials: u64,
    /// Bits of the best cost found.
    pub best_bits: u64,
    /// Seconds blocked in `suggest` over the campaign.
    pub suggest_s: f64,
}

/// Run one campaign: `strategy` on `problem` under `seed`, every `suggest`
/// and `report` timed from outside.
///
/// The campaign always spends its whole budget (unless the strategy itself
/// gives up), and the evaluation that first reached the target is noted on
/// the way. Stopping at the target would make a round's work depend on
/// which campaigns happen to reach it under this seed; the surrogate's
/// proposals cost a thousand times the others', so one such flip would
/// double the round.
pub fn campaign(
    problem: &Problem,
    strategy: &'static str,
    seed: u64,
    tag: u64,
    m: &mut Meter,
) -> RaceRow {
    let span = m.tracer.begin("bench.campaign", tag);
    let mut session = TuningSession::new(
        problem.space.clone(),
        build_strategy(strategy, &problem.default_coords, BUDGET),
        SessionOptions {
            max_evaluations: BUDGET,
            seed,
            ..Default::default()
        },
    );
    let (mut trials, mut suggest_total) = (0u64, 0.0);
    let mut reached_at = None;
    loop {
        let trial_tag = tag << 16 | trials;
        let id = m.tracer.begin("session.suggest", trial_tag);
        let t0 = Instant::now();
        let trial = session.suggest();
        let suggest_s = t0.elapsed().as_secs_f64();
        m.tracer.end(id);
        m.attempted += 1;
        suggest_total += suggest_s;
        let Some(trial) = trial else { break };
        let cost = problem.cost(&trial.config);
        let (reported, report_s) =
            m.call("session.report", trial_tag, || session.report(trial, cost));
        if reported.is_none() {
            break;
        }
        m.pair(suggest_s, report_s, 1, 0);
        trials += 1;
        if cost <= problem.target && reached_at.is_none() {
            reached_at = Some(trials);
        }
    }
    m.tracer.end(span);
    RaceRow {
        strategy,
        evals_to_target: reached_at.unwrap_or(BUDGET as u64),
        trials,
        best_bits: session.best().map_or(f64::INFINITY, |(_, c)| c).to_bits(),
        suggest_s: suggest_total,
    }
}

/// The roster strategy whose proposals cost a thousand times the others'.
const SURROGATE: &str = "surrogate";

/// Race the whole roster over `problems`. Every strategy runs under each of
/// `seeds`, which averages the stochastic ones' luck out of `fresh_evals`;
/// the surrogate runs under the first seed only, or it alone would be the
/// round.
pub fn race(problems: &[Problem], seeds: &[u64], m: &mut Meter) -> Vec<RaceRow> {
    let mut rows = Vec::with_capacity(problems.len() * ROSTER.len() * seeds.len());
    for (p, problem) in problems.iter().enumerate() {
        for (s, strategy) in ROSTER.iter().enumerate() {
            let seeds = if *strategy == SURROGATE {
                &seeds[..1]
            } else {
                seeds
            };
            for (k, &seed) in seeds.iter().enumerate() {
                let tag = ((p * ROSTER.len() + s) * seeds.len() + k) as u64;
                let row = campaign(problem, strategy, seed, tag, m);
                m.fresh_evals += row.evals_to_target;
                rows.push(row);
            }
        }
    }
    rows
}

/// Stream the first `points` valid points of `space`; returns how many came.
pub fn stream(space: &CompiledSpace, points: usize, m: &mut Meter) -> usize {
    let id = m.tracer.begin("space_compile.stream", 0);
    let mut sum = 0u64;
    let n = space
        .iter()
        .take(points)
        .inspect(|p| sum = sum.wrapping_add(p.cache_key()[0] as u64))
        .count();
    std::hint::black_box(sum);
    m.tracer.end(id);
    m.attempted += 1;
    n
}

/// The compiled `synth-1e9` space.
pub fn compile_synth() -> CompiledSpace {
    let space = ah_repro::space_cli::build("synth-1e9").expect("synth-1e9 is a built-in space");
    CompiledSpace::compile(&space).expect("synth-1e9 compiles")
}

/// The workload's state.
pub struct InprocSearch {
    cfg: RunConfig,
    seeds: Vec<u64>,
    problems: Vec<Problem>,
    synth: Option<CompiledSpace>,
    /// The first round's rows: what every later round must reproduce.
    reference: Vec<RaceRow>,
    round_rows: Vec<RaceRow>,
    streamed: usize,
}

impl InprocSearch {
    /// Generate the workload.
    pub fn new(cfg: &RunConfig) -> Self {
        InprocSearch {
            cfg: cfg.clone(),
            seeds: (0..cfg.scaled(RACE_SEEDS))
                .map(|k| cfg.derive(4_100 + k as u64))
                .collect(),
            problems: Vec::new(),
            synth: None,
            reference: Vec::new(),
            round_rows: Vec::new(),
            streamed: 0,
        }
    }
}

fn comparable(rows: &[RaceRow]) -> Vec<(u64, u64, u64)> {
    rows.iter()
        .map(|r| (r.evals_to_target, r.trials, r.best_bits))
        .collect()
}

impl RoundWorkload for InprocSearch {
    fn rounds(&self) -> usize {
        self.cfg.rounds_or(ROUNDS)
    }

    fn setup_plan(&self) -> SetupPlan {
        SetupPlan::PerRound(2)
    }

    fn set_up(&mut self, m: &mut Meter) {
        let id = m.tracer.begin("bench.set_up", 0);
        self.problems = problems();
        self.synth = Some(compile_synth());
        // First trial in hand, for every campaign of the race: each roster
        // strategy built and initialised on each problem.
        for problem in &self.problems {
            for strategy in ROSTER {
                let mut session = TuningSession::new(
                    problem.space.clone(),
                    build_strategy(strategy, &problem.default_coords, BUDGET),
                    SessionOptions {
                        max_evaluations: BUDGET,
                        seed: self.seeds[0],
                        ..Default::default()
                    },
                );
                std::hint::black_box(session.suggest());
                m.attempted += 1;
            }
        }
        m.tracer.end(id);
    }

    fn tear_down(&mut self) {
        self.problems.clear();
        self.synth = None;
    }

    fn round(&mut self, _round: usize, m: &mut Meter) {
        self.round_rows = race(&self.problems, &self.seeds, m);
        self.streamed = stream(self.synth.as_ref().expect("set up"), STREAM_POINTS, m);
    }

    fn after_round(&mut self, round: usize, m: &mut Meter) {
        if self.reference.is_empty() {
            self.reference = std::mem::take(&mut self.round_rows);
            if self.cfg.corrupt_expectation {
                self.reference[0].best_bits ^= 1;
            }
            return;
        }
        let same = comparable(&self.reference) == comparable(&self.round_rows);
        m.check(
            format!(
                "round {round}: every campaign's evaluations, trials and best cost equal round 0"
            ),
            same,
            format!("{} campaigns compared", self.round_rows.len()),
        );
        m.check_eq(
            format!("round {round}: valid points streamed"),
            STREAM_POINTS,
            self.streamed,
        );
    }

    fn finish(&mut self, m: &mut Meter) {
        let reached = self
            .reference
            .iter()
            .filter(|r| r.evals_to_target < BUDGET as u64)
            .count();
        m.check(
            "some campaign reached its target and some did not",
            reached > 0 && reached < self.reference.len(),
            format!("{reached} of {} reached", self.reference.len()),
        );
        self.tear_down();
    }
}
