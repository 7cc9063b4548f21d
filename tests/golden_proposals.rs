//! Golden proposal streams: the strategies whose proposals pass through the
//! compiled space's point kernels — the surrogate's argmin scan, and
//! `snap_feasible` under greedy and Nelder–Mead — must keep proposing the
//! same continuous coordinates, bit for bit, whatever those kernels cost.
//!
//! Each digest below is FNV-1a over the `f64::to_bits` of every coordinate
//! of every proposal of one seeded campaign, driven propose → project →
//! cost → feedback. They were recorded at the commit *before* the kernels
//! moved to index space (b2d74ab) and are never to be edited alongside a
//! kernel change: a changed digest is a changed trajectory.
//!
//! The problems are the benchmark's three shapes (`benchmark/src/workloads/
//! inproc_search.rs`: an unconstrained bowl, a Rosenbrock valley, a chain +
//! sum-bound space small enough to snap) and a PETSc 3-boundary
//! decomposition space, whose 1.3 M valid points exceed the snapper's scan
//! cap so every infeasible vertex takes the "too large, repair" exit.

use ah_core::constraint::{MonotoneChain, SumBound};
use ah_core::space::{Configuration, SearchSpace};
use ah_core::strategy::{
    NelderMead, NelderMeadOptions, ParallelRankOrder, ProOptions, SearchStrategy, StartPoint,
    StrategySnapshot,
};
use ah_petsc::tunable::boundary_space;
use ah_repro::leaderboard::build_strategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

const STRATEGIES: [&str; 3] = ["surrogate", "greedy", "nelder-mead"];
const SEEDS: [u64; 2] = [4_101, 77];
const BUDGET: usize = 48;

struct Problem {
    name: &'static str,
    space: SearchSpace,
    cost: fn(&[i64]) -> f64,
}

fn weighted_bowl(x: &[i64], optimum: &[i64]) -> f64 {
    x.iter()
        .zip(optimum)
        .enumerate()
        .map(|(i, (v, o))| (1 + i % 3) as f64 * ((v - o) * (v - o)) as f64)
        .sum()
}

fn int_space(prefix: &str, dims: usize, max: i64) -> ah_core::space::SearchSpaceBuilder {
    (0..dims).fold(SearchSpace::builder(), |b, d| {
        b.int(format!("{prefix}{d}"), 0, max, 1)
    })
}

fn problems() -> Vec<Problem> {
    vec![
        Problem {
            name: "bowl4",
            space: int_space("x", 4, 7).build().unwrap(),
            cost: |x| weighted_bowl(x, &[6, 1, 7, 0]),
        },
        Problem {
            name: "rosenbrock6",
            space: int_space("r", 6, 3).build().unwrap(),
            cost: |x| {
                let y: Vec<f64> = x
                    .iter()
                    .zip(&[3, 0, 2, 1, 3, 0])
                    .map(|(v, o)| 1.0 + 0.25 * (v - o) as f64)
                    .collect();
                y.windows(2)
                    .map(|w| 100.0 * (w[1] - w[0] * w[0]).powi(2) + (1.0 - w[0]).powi(2))
                    .sum()
            },
        },
        Problem {
            name: "chain-sum6",
            space: int_space("c", 6, 5)
                .constraint(MonotoneChain::new(["c0", "c1", "c2", "c3"]))
                .constraint(SumBound::new(["c3", "c4", "c5"], 2.0, 11.0))
                .build()
                .unwrap(),
            cost: |x| weighted_bowl(x, &[0, 1, 1, 5, 1, 4]),
        },
        Problem {
            name: "petsc-3-boundary",
            space: boundary_space(200, 4),
            cost: |x| weighted_bowl(x, &[31, 120, 171]),
        },
    ]
}

/// Drive one campaign and digest every proposed coordinate.
fn digest(problem: &Problem, strategy: &str, seed: u64) -> u64 {
    roster_campaign(problem, strategy, seed, BUDGET).0
}

/// A campaign of the roster strategy `name`, as the leaderboard builds it.
fn roster_campaign(
    problem: &Problem,
    name: &str,
    seed: u64,
    budget: usize,
) -> (u64, StrategySnapshot) {
    let space = &problem.space;
    let start = space.embed(&space.center()).expect("the centre embeds");
    campaign(problem, build_strategy(name, &start, budget), seed, budget)
}

/// One campaign of up to `budget` proposals: the digest of every proposed
/// coordinate, and what the strategy says of itself at the end.
fn campaign(
    problem: &Problem,
    mut s: Box<dyn SearchStrategy>,
    seed: u64,
    budget: usize,
) -> (u64, StrategySnapshot) {
    let space = &problem.space;
    let mut rng = StdRng::seed_from_u64(seed);
    s.init(space, &mut rng);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..budget {
        let Some(coords) = s.propose(space, &mut rng) else {
            break;
        };
        for c in &coords {
            for b in c.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let config: Configuration = space.project(&coords);
        s.feedback(
            &coords,
            (problem.cost)(&config.cache_key()),
            space,
            &mut rng,
        );
    }
    (h, s.snapshot())
}

/// `(problem, strategy, seed, digest)`, recorded at b2d74ab.
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("bowl4", "surrogate", 4101, 0x9d02b5f9143ae0f1),
    ("bowl4", "surrogate", 77, 0x9d02b5f9143ae0f1),
    ("bowl4", "greedy", 4101, 0x6cc2e05b7bb54ed5),
    ("bowl4", "greedy", 77, 0x6cc2e05b7bb54ed5),
    ("bowl4", "nelder-mead", 4101, 0x62133155649f0a92),
    ("bowl4", "nelder-mead", 77, 0x62133155649f0a92),
    ("rosenbrock6", "surrogate", 4101, 0xe44ce0628419d3f3),
    ("rosenbrock6", "surrogate", 77, 0xe44ce0628419d3f3),
    ("rosenbrock6", "greedy", 4101, 0x07a516b2eaf339d5),
    ("rosenbrock6", "greedy", 77, 0x07a516b2eaf339d5),
    ("rosenbrock6", "nelder-mead", 4101, 0x36f48217874d4903),
    ("rosenbrock6", "nelder-mead", 77, 0x36f48217874d4903),
    ("chain-sum6", "surrogate", 4101, 0xc49aeddde2fd9c7e),
    ("chain-sum6", "surrogate", 77, 0x450795b9aaebb5a7),
    ("chain-sum6", "greedy", 4101, 0x4eb4976dc3b673cd),
    ("chain-sum6", "greedy", 77, 0x4eb4976dc3b673cd),
    ("chain-sum6", "nelder-mead", 4101, 0x6171b7cad65bfc46),
    ("chain-sum6", "nelder-mead", 77, 0x4134401f31200999),
    ("petsc-3-boundary", "surrogate", 4101, 0x8cfb98b5cc9ebc93),
    ("petsc-3-boundary", "surrogate", 77, 0xad45fbd8352efeb8),
    ("petsc-3-boundary", "greedy", 4101, 0xad349027cbd14916),
    ("petsc-3-boundary", "greedy", 77, 0xad349027cbd14916),
    ("petsc-3-boundary", "nelder-mead", 4101, 0xa1af185b507079d9),
    ("petsc-3-boundary", "nelder-mead", 77, 0xc15367c451ed9511),
];

#[test]
fn proposal_streams_match_the_digests_recorded_before_the_kernels_changed() {
    let mut got = Vec::new();
    for problem in problems() {
        for strategy in STRATEGIES {
            for seed in SEEDS {
                got.push((
                    problem.name,
                    strategy,
                    seed,
                    digest(&problem, strategy, seed),
                ));
            }
        }
    }
    let render = |rows: &[(&str, &str, u64, u64)]| {
        rows.iter()
            .map(|(p, s, seed, d)| format!("    (\"{p}\", \"{s}\", {seed}, 0x{d:016x}),\n"))
            .collect::<String>()
    };
    assert!(
        got.as_slice() == GOLDEN,
        "proposal streams moved.\nrecorded:\n{}now:\n{}",
        render(GOLDEN),
        render(&got)
    );
}

/// The rest of the roster at the same budget, recorded at 92d81e6, the
/// commit before the lattice operations these strategies each carried a
/// copy of (snap-and-validate, evenly spaced levels, start point, jitter)
/// moved into `SearchSpace`.
const REST_OF_ROSTER: [&str; 6] = [
    "random",
    "grid",
    "exhaustive",
    "pro",
    "annealing",
    "genetic",
];

/// `(problem, strategy, seed, digest)`, recorded at 92d81e6.
const GOLDEN_REST: &[(&str, &str, u64, u64)] = &[
    ("bowl4", "random", 4101, 0xaf7ecdfc6769457b),
    ("bowl4", "random", 77, 0x7b0b9c6dfadbc9ad),
    ("bowl4", "grid", 4101, 0x34d108c5e961ada5),
    ("bowl4", "grid", 77, 0x34d108c5e961ada5),
    ("bowl4", "exhaustive", 4101, 0xd3930796e059f945),
    ("bowl4", "exhaustive", 77, 0xd3930796e059f945),
    ("bowl4", "pro", 4101, 0x8d1cc03e3162ab21),
    ("bowl4", "pro", 77, 0x2664b8e9c2d46dda),
    ("bowl4", "annealing", 4101, 0x3f62729b679bc764),
    ("bowl4", "annealing", 77, 0xce192604fc15dcd8),
    ("bowl4", "genetic", 4101, 0x9aa80ff5b46cffac),
    ("bowl4", "genetic", 77, 0xac2df61fa951ddf4),
    ("rosenbrock6", "random", 4101, 0xefc7812828e40691),
    ("rosenbrock6", "random", 77, 0xfd793c744078e26f),
    ("rosenbrock6", "grid", 4101, 0xbfee1f3004116625),
    ("rosenbrock6", "grid", 77, 0xbfee1f3004116625),
    ("rosenbrock6", "exhaustive", 4101, 0x7d598599fa660ca5),
    ("rosenbrock6", "exhaustive", 77, 0x7d598599fa660ca5),
    ("rosenbrock6", "pro", 4101, 0x94f538768beee640),
    ("rosenbrock6", "pro", 77, 0x87f2aaa73bce6682),
    ("rosenbrock6", "annealing", 4101, 0x023958bfa3ca6d58),
    ("rosenbrock6", "annealing", 77, 0x7c4a6a81af568b00),
    ("rosenbrock6", "genetic", 4101, 0x31ed728e9d296e28),
    ("rosenbrock6", "genetic", 77, 0x9629b7f033234bcd),
    ("chain-sum6", "random", 4101, 0xd011d9a177dc0003),
    ("chain-sum6", "random", 77, 0xddd23ef2e83f4cc4),
    ("chain-sum6", "grid", 4101, 0x089b869cd7434f65),
    ("chain-sum6", "grid", 77, 0x089b869cd7434f65),
    ("chain-sum6", "exhaustive", 4101, 0x86dbe618c3c8c558),
    ("chain-sum6", "exhaustive", 77, 0x86dbe618c3c8c558),
    ("chain-sum6", "pro", 4101, 0x1bda4a7d5560d6d7),
    ("chain-sum6", "pro", 77, 0xfc78819c886575e0),
    ("chain-sum6", "annealing", 4101, 0x5c36c29596c6f321),
    ("chain-sum6", "annealing", 77, 0xe0d70225d5a3735f),
    ("chain-sum6", "genetic", 4101, 0x9d4d17cd39239870),
    ("chain-sum6", "genetic", 77, 0xd1ab58c857349f45),
    ("petsc-3-boundary", "random", 4101, 0x6bf7bb4ca4159fd2),
    ("petsc-3-boundary", "random", 77, 0x1e51772f1f7e19c6),
    ("petsc-3-boundary", "grid", 4101, 0x67038c2387617151),
    ("petsc-3-boundary", "grid", 77, 0x67038c2387617151),
    ("petsc-3-boundary", "exhaustive", 4101, 0xcbf29ce484222325),
    ("petsc-3-boundary", "exhaustive", 77, 0xcbf29ce484222325),
    ("petsc-3-boundary", "pro", 4101, 0x1bedd813f6cbefae),
    ("petsc-3-boundary", "pro", 77, 0x5a0d8ae3f72a1f74),
    ("petsc-3-boundary", "annealing", 4101, 0x81da3db9cf8b5f92),
    ("petsc-3-boundary", "annealing", 77, 0xdd67e5de5ba4854e),
    ("petsc-3-boundary", "genetic", 4101, 0x675868895d5db02b),
    ("petsc-3-boundary", "genetic", 77, 0x0e3b01dce4dd4d04),
];

/// The strategies that draw from the RNG after seeding, at a budget long
/// enough that what they draw *for* is inside the digest: Nelder–Mead
/// restarts around its best vertex, PRO respreads, the annealer reheats and
/// the GA breeds some fifty generations.
const LONG_STRATEGIES: [&str; 5] = ["nelder-mead", "pro", "annealing", "genetic", "surrogate"];
const LONG_BUDGET: usize = 600;

/// `(problem, strategy, seed, digest)` at [`LONG_BUDGET`], recorded at
/// 92d81e6.
const GOLDEN_LONG: &[(&str, &str, u64, u64)] = &[
    ("bowl4", "nelder-mead", 4101, 0xe120ac34a1956860),
    ("bowl4", "nelder-mead", 77, 0xfdc342ac4b41ae79),
    ("bowl4", "pro", 4101, 0x45f910a7646ea153),
    ("bowl4", "pro", 77, 0xefdd1b49dbd47439),
    ("bowl4", "annealing", 4101, 0x66da56d15a177a14),
    ("bowl4", "annealing", 77, 0xc46b5030befcc831),
    ("bowl4", "genetic", 4101, 0x21a7856f303c3b44),
    ("bowl4", "genetic", 77, 0x96da59b9ce3b08f9),
    ("bowl4", "surrogate", 4101, 0xa6f8a3266ee0dc01),
    ("bowl4", "surrogate", 77, 0xa6f8a3266ee0dc01),
    ("rosenbrock6", "nelder-mead", 4101, 0x0317de719611312a),
    ("rosenbrock6", "nelder-mead", 77, 0x6192f1a3376000cf),
    ("rosenbrock6", "pro", 4101, 0x90753173801c7382),
    ("rosenbrock6", "pro", 77, 0xee2e217c80355118),
    ("rosenbrock6", "annealing", 4101, 0xedb711f6b27fd045),
    ("rosenbrock6", "annealing", 77, 0x2a3e6ed234bed208),
    ("rosenbrock6", "genetic", 4101, 0xf9bc98b81bd87870),
    ("rosenbrock6", "genetic", 77, 0xc68e9b013d820410),
    ("rosenbrock6", "surrogate", 4101, 0x81b0d591253efc32),
    ("rosenbrock6", "surrogate", 77, 0x81b0d591253efc32),
    ("chain-sum6", "nelder-mead", 4101, 0x4752ff7cb2abbe92),
    ("chain-sum6", "nelder-mead", 77, 0xd0e62196a42bf361),
    ("chain-sum6", "pro", 4101, 0x2d3005c555c64e44),
    ("chain-sum6", "pro", 77, 0xc4f561219b1845be),
    ("chain-sum6", "annealing", 4101, 0xaf21fe17a555d1b0),
    ("chain-sum6", "annealing", 77, 0x2c5cc210ee591c06),
    ("chain-sum6", "genetic", 4101, 0xa331a2c3fc430a04),
    ("chain-sum6", "genetic", 77, 0x1adecf4e967012ce),
    ("chain-sum6", "surrogate", 4101, 0x11364b5b1c077963),
    ("chain-sum6", "surrogate", 77, 0x2183302948ce099a),
    ("petsc-3-boundary", "nelder-mead", 4101, 0x51d8c74fbcc47243),
    ("petsc-3-boundary", "nelder-mead", 77, 0x1aae970b0a7b458f),
    ("petsc-3-boundary", "pro", 4101, 0x27b55d713de89a79),
    ("petsc-3-boundary", "pro", 77, 0x9252583b1ce39fa8),
    ("petsc-3-boundary", "annealing", 4101, 0xde7781d94a53ca27),
    ("petsc-3-boundary", "annealing", 77, 0xafd404941ea124e6),
    ("petsc-3-boundary", "genetic", 4101, 0x09388157531c9d39),
    ("petsc-3-boundary", "genetic", 77, 0x8333a7122ed0a0b2),
    // Recorded at 96ac031.
    ("petsc-3-boundary", "surrogate", 4101, 0x3ba7bc6ae830291a),
    ("petsc-3-boundary", "surrogate", 77, 0x3ebf0a2e9db97d99),
];

/// The start-point policies the roster never picks (`build_strategy` always
/// starts the two simplexes at explicit coordinates): a random start and an
/// empty prior simplex both draw the base point from the RNG, a short prior
/// simplex is padded around its first point. Nelder–Mead over an empty
/// prior simplex is not here: at 92d81e6 it underflows a vertex index, a
/// panic in a debug build.
const START_POINTS: [&str; 5] = [
    "nm/random",
    "nm/short",
    "pro/random",
    "pro/empty",
    "pro/short",
];

fn start_point(name: &str, space: &SearchSpace) -> StartPoint {
    match name {
        "random" => StartPoint::Random,
        "empty" => StartPoint::Simplex(Vec::new()),
        "short" => {
            let centre = space.embed(&space.center()).expect("the centre embeds");
            let mut second = centre.clone();
            second[0] += 1.0;
            StartPoint::Simplex(vec![centre, second])
        }
        other => panic!("unknown start point `{other}`"),
    }
}

/// `(problem, "strategy/start", seed, digest)` at [`BUDGET`], recorded at
/// 92d81e6.
const GOLDEN_STARTS: &[(&str, &str, u64, u64)] = &[
    ("bowl4", "nm/random", 4101, 0x5527c4221d8893b8),
    ("bowl4", "nm/random", 77, 0x87ceec8c6d2122a4),
    ("bowl4", "nm/short", 4101, 0xbc6fc0c1c8e4e98d),
    ("bowl4", "nm/short", 77, 0x3ff66134be89d63f),
    ("bowl4", "pro/random", 4101, 0x83b182e017e9c928),
    ("bowl4", "pro/random", 77, 0xbf1a2142001a9034),
    ("bowl4", "pro/empty", 4101, 0x6390ee50f4276c50),
    ("bowl4", "pro/empty", 77, 0xe6b8c8362267eba9),
    ("bowl4", "pro/short", 4101, 0xb2f87ed3aadf9e2e),
    ("bowl4", "pro/short", 77, 0x3bd51d53bafa39d1),
    ("rosenbrock6", "nm/random", 4101, 0xbcb7b0a59fb7bb75),
    ("rosenbrock6", "nm/random", 77, 0x960825987816bae0),
    ("rosenbrock6", "nm/short", 4101, 0x36f48217874d4903),
    ("rosenbrock6", "nm/short", 77, 0x36f48217874d4903),
    ("rosenbrock6", "pro/random", 4101, 0xa17fa2e20a49f83e),
    ("rosenbrock6", "pro/random", 77, 0x098c521b54cc81ee),
    ("rosenbrock6", "pro/empty", 4101, 0x3b6a4471d6f43ce6),
    ("rosenbrock6", "pro/empty", 77, 0x12a2611c2214f45e),
    ("rosenbrock6", "pro/short", 4101, 0x3f2e50b4f14c9854),
    ("rosenbrock6", "pro/short", 77, 0x63bba1ae8760e522),
    ("chain-sum6", "nm/random", 4101, 0xaa5d34bffdb01af7),
    ("chain-sum6", "nm/random", 77, 0x3e425f1c5ed185ba),
    ("chain-sum6", "nm/short", 4101, 0x6c8f5c948d271e8f),
    ("chain-sum6", "nm/short", 77, 0x06f528a7facdcca0),
    ("chain-sum6", "pro/random", 4101, 0x5a470e753a171f32),
    ("chain-sum6", "pro/random", 77, 0xea12a904af538f16),
    ("chain-sum6", "pro/empty", 4101, 0x30709e487f7abcf7),
    ("chain-sum6", "pro/empty", 77, 0x10e7a3b94d02cfe6),
    ("chain-sum6", "pro/short", 4101, 0x2500e4f50d461f48),
    ("chain-sum6", "pro/short", 77, 0xb8337c028c75b888),
    ("petsc-3-boundary", "nm/random", 4101, 0x6795499eda065b5f),
    ("petsc-3-boundary", "nm/random", 77, 0x962ac145910b6435),
    ("petsc-3-boundary", "nm/short", 4101, 0xf2d7c9722d492be5),
    ("petsc-3-boundary", "nm/short", 77, 0xf2d7c9722d492be5),
    ("petsc-3-boundary", "pro/random", 4101, 0x06ba2fdd985ca228),
    ("petsc-3-boundary", "pro/random", 77, 0xcc5a943da948a226),
    ("petsc-3-boundary", "pro/empty", 4101, 0x397fab18c97d41c2),
    ("petsc-3-boundary", "pro/empty", 77, 0xe2d11c59e153eb87),
    ("petsc-3-boundary", "pro/short", 4101, 0x605cfa18b111c378),
    ("petsc-3-boundary", "pro/short", 77, 0x5ab3533d53dc96d4),
];

fn assert_rows(what: &str, got: &[(&str, String, u64, u64)], golden: &[(&str, &str, u64, u64)]) {
    let same = got.len() == golden.len()
        && got
            .iter()
            .zip(golden)
            .all(|(g, r)| (g.0, g.1.as_str(), g.2, g.3) == *r);
    let now: String = got
        .iter()
        .map(|(p, s, seed, d)| format!("    (\"{p}\", \"{s}\", {seed}, 0x{d:016x}),\n"))
        .collect();
    assert!(same, "{what}: proposal streams moved. now:\n{now}");
}

#[test]
fn the_rest_of_the_roster_matches_the_digests_recorded_before_the_lattice_moved() {
    let mut got = Vec::new();
    for problem in problems() {
        for strategy in REST_OF_ROSTER {
            for seed in SEEDS {
                let (d, _) = roster_campaign(&problem, strategy, seed, BUDGET);
                got.push((problem.name, strategy.to_string(), seed, d));
            }
        }
    }
    assert_rows("rest of the roster", &got, GOLDEN_REST);
}

#[test]
fn long_campaigns_match_the_digests_recorded_before_the_lattice_moved() {
    let mut got = Vec::new();
    let mut restarts = Vec::new();
    for problem in problems() {
        for strategy in LONG_STRATEGIES {
            for seed in SEEDS {
                let (d, snapshot) = roster_campaign(&problem, strategy, seed, LONG_BUDGET);
                got.push((problem.name, strategy.to_string(), seed, d));
                if let Some(simplex) = snapshot.simplex {
                    restarts.push((strategy, simplex.restarts));
                }
            }
        }
    }
    // The digests only pin the restart and respread paths if a campaign
    // takes them.
    for simplex in ["nelder-mead", "pro"] {
        assert!(
            restarts.iter().any(|&(s, n)| s == simplex && n > 0),
            "no {simplex} campaign restarted in {LONG_BUDGET} evaluations: {restarts:?}"
        );
    }
    assert_rows("long campaigns", &got, GOLDEN_LONG);
}

#[test]
fn every_start_point_policy_matches_the_digests_recorded_before_the_lattice_moved() {
    let mut got = Vec::new();
    for problem in problems() {
        for label in START_POINTS {
            let (name, start) = label.split_once('/').expect("strategy/start");
            for seed in SEEDS {
                let start = start_point(start, &problem.space);
                let strategy: Box<dyn SearchStrategy> = match name {
                    "nm" => Box::new(NelderMead::new(NelderMeadOptions {
                        start,
                        ..NelderMeadOptions::default()
                    })),
                    _ => Box::new(ParallelRankOrder::new(ProOptions {
                        start,
                        ..ProOptions::default()
                    })),
                };
                let (d, _) = campaign(&problem, strategy, seed, BUDGET);
                got.push((problem.name, label.to_string(), seed, d));
            }
        }
    }
    assert_rows("start points", &got, GOLDEN_STARTS);
}
