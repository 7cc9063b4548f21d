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
    let space = &problem.space;
    let start = space.embed(&space.center()).expect("the centre embeds");
    let mut s = build_strategy(strategy, &start, BUDGET);
    let mut rng = StdRng::seed_from_u64(seed);
    s.init(space, &mut rng);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..BUDGET {
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
    h
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
