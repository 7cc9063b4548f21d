//! SLES: the distributed linear-equation-solver object.
//!
//! A [`SlesProblem`] bundles a real sparse matrix, a right-hand side, and a
//! simulated machine. Solving under a given [`RowPartition`] produces both a
//! *numerical* outcome (the CG iteration count on the actual matrix) and a
//! *performance* outcome (the simulated distributed execution time). The
//! decomposition affects only the performance: per-iteration work per
//! processor is the partition's local nonzeros, and the halo exchange is the
//! partition's cross-boundary nonzeros — exactly the data-locality trade-off
//! Figure 2 illustrates.

use ah_clustersim::{execute, Collective, Machine, Message, Superstep};
use ah_sparse::{cg_solve, CsrMatrix, RowPartition};
use std::collections::HashMap;

/// Work per matrix nonzero per CG iteration, in Gflop (2 flops for the
/// multiply-add, plus amortised vector-op traffic).
const GFLOP_PER_NNZ: f64 = 4.0e-9;
/// Extra per-row vector work per iteration (axpy/dot), in Gflop.
const GFLOP_PER_ROW: f64 = 1.0e-8;
/// Bytes per exchanged halo value.
const BYTES_PER_VALUE: f64 = 8.0;

/// A linear system plus the machine it is solved on.
#[derive(Debug, Clone)]
pub struct SlesProblem {
    matrix: CsrMatrix,
    rhs: Vec<f64>,
    machine: Machine,
    tol: f64,
    max_iters: usize,
    cached_iterations: Option<usize>,
}

/// Outcome of one distributed solve.
#[derive(Debug, Clone)]
pub struct SlesRun {
    /// Simulated distributed execution time in seconds.
    pub time: f64,
    /// CG iterations (independent of the decomposition).
    pub iterations: usize,
    /// Simulated time spent computing on the critical path.
    pub compute_time: f64,
    /// Simulated time spent communicating on the critical path.
    pub comm_time: f64,
    /// Load imbalance of the decomposition (1.0 = perfect).
    pub imbalance: f64,
}

impl SlesProblem {
    /// Create a problem. The machine must have at least as many processors
    /// as the partitions used later.
    pub fn new(matrix: CsrMatrix, rhs: Vec<f64>, machine: Machine) -> Self {
        assert_eq!(matrix.rows(), rhs.len());
        SlesProblem {
            matrix,
            rhs,
            machine,
            tol: 1e-6,
            max_iters: 5000,
            cached_iterations: None,
        }
    }

    /// Override the solver tolerance (default `1e-6`).
    pub fn with_tolerance(mut self, tol: f64, max_iters: usize) -> Self {
        self.tol = tol;
        self.max_iters = max_iters;
        self
    }

    /// The matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of unknowns.
    pub fn unknowns(&self) -> usize {
        self.matrix.rows()
    }

    /// CG iteration count on the real matrix (cached across calls: the
    /// decomposition does not change the numerics).
    pub fn iterations(&mut self) -> usize {
        if let Some(it) = self.cached_iterations {
            return it;
        }
        let out = cg_solve(&self.matrix, &self.rhs, self.tol, self.max_iters);
        let it = out.iterations.max(1);
        self.cached_iterations = Some(it);
        it
    }

    /// Pin the iteration count (used for very large synthetic problems where
    /// running the numeric solve inside a tuning loop would be wasteful).
    pub fn set_iterations(&mut self, iterations: usize) {
        self.cached_iterations = Some(iterations.max(1));
    }

    /// Pairwise halo volumes `((src part, dst part) → values needed)`:
    /// for each nonzero `(r, c)` with `owner(r) = i ≠ j = owner(c)`,
    /// part `j` must send `x[c]` to part `i` each iteration. Distinct
    /// columns are counted once (vector entries are gathered, not nonzeros).
    /// Pairs that exchange nothing are absent.
    pub fn halo_volumes(&self, part: &RowPartition) -> HashMap<(usize, usize), usize> {
        self.halos(part).into_iter().collect()
    }

    /// The halo volumes as `((src, dst), values)`, sorted by `(src, dst)`.
    ///
    /// One pass over each part `i`'s rows. A column inside `range(i)` is
    /// local: for a part that has rows, that is exactly `owner(c) = i`. `stamp[c]` names the last part that counted column
    /// `c`, so a remote column is counted, and its owner looked up, once per
    /// part that needs it; `from[j]` tallies part `i`'s values from part `j`.
    /// Every count is an exact integer, as the set sizes it replaces were.
    fn halos(&self, part: &RowPartition) -> Vec<((usize, usize), usize)> {
        let mut stamp = vec![usize::MAX; self.matrix.cols()];
        let mut from = vec![0usize; part.parts()];
        let mut halos = Vec::new();
        for i in 0..part.parts() {
            let local = part.range(i);
            for r in local.clone() {
                for &c in self.matrix.row(r).0 {
                    if !local.contains(&c) && stamp[c] != i {
                        stamp[c] = i;
                        from[part.owner(c)] += 1;
                    }
                }
            }
            for (j, values) in from.iter_mut().enumerate() {
                if *values > 0 {
                    halos.push(((j, i), std::mem::take(values)));
                }
            }
        }
        halos.sort_unstable_by_key(|&(k, _)| k);
        halos
    }

    /// Simulate a distributed CG solve under the given decomposition.
    /// Part `i` runs on processor `i` of the machine.
    pub fn solve(&mut self, part: &RowPartition) -> SlesRun {
        assert_eq!(part.rows(), self.matrix.rows(), "partition size mismatch");
        assert!(
            part.parts() <= self.machine.total_procs(),
            "machine too small for {} partitions",
            part.parts()
        );
        let halos = self.halos(part);
        self.simulate(part, halos)
    }

    /// The superstep of one CG iteration, given the partition's sorted halo
    /// volumes, executed on the machine and scaled by the iteration count.
    /// The sorted `(src, dst)` order keeps the simulated time bit-identical
    /// run to run (float sums are order-sensitive at the ulp).
    fn simulate(&mut self, part: &RowPartition, halos: Vec<((usize, usize), usize)>) -> SlesRun {
        let iterations = self.iterations();
        let loads = part.loads(&self.matrix);
        let rows = part.row_counts();
        let nprocs = self.machine.total_procs();

        let mut compute = vec![0.0f64; nprocs];
        for (i, (&nnz, &nrows)) in loads.iter().zip(&rows).enumerate() {
            compute[i] = nnz as f64 * GFLOP_PER_NNZ + nrows as f64 * GFLOP_PER_ROW;
        }
        let messages: Vec<Message> = halos
            .into_iter()
            .map(|((src, dst), vals)| Message {
                src,
                dst,
                bytes: vals as f64 * BYTES_PER_VALUE,
            })
            .collect();

        // One representative superstep per CG iteration: SpMV compute +
        // halo exchange + two 8-byte allreduces (the dot products).
        let step = Superstep {
            compute,
            messages,
            collective: Some(Collective::AllReduce { bytes: 16.0 }),
        };
        let one = execute(&self.machine, &[step]);
        SlesRun {
            time: one.total_time * iterations as f64,
            iterations,
            compute_time: one.compute_time * iterations as f64,
            comm_time: one.comm_time * iterations as f64,
            imbalance: load_imbalance(&loads),
        }
    }
}

/// `max(load) / mean(load)` (1.0 = perfect), from loads already counted:
/// the arithmetic of [`RowPartition::load_imbalance`], which counts them
/// again.
fn load_imbalance(loads: &[usize]) -> f64 {
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
    if mean <= 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_clustersim::NetworkModel;
    use ah_sparse::gen::{clustered_blocks, laplacian_2d, ones};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn machine(procs: usize) -> Machine {
        Machine::uniform("test", procs, 1, 1.0, NetworkModel::default())
    }

    /// The count `halos` replaced, kept as its oracle: a binary-searched
    /// owner per nonzero and a hash set of columns per `(src, dst)` pair.
    fn halo_volumes_by_hashing(
        a: &CsrMatrix,
        part: &RowPartition,
    ) -> HashMap<(usize, usize), usize> {
        let mut seen: HashMap<(usize, usize), HashSet<usize>> = HashMap::new();
        for i in 0..part.parts() {
            for r in part.range(i) {
                let (cols, _) = a.row(r);
                for &c in cols {
                    let j = part.owner(c);
                    if j != i {
                        seen.entry((j, i)).or_default().insert(c);
                    }
                }
            }
        }
        seen.into_iter().map(|(k, v)| (k, v.len())).collect()
    }

    /// A random square matrix of order `n`: `raw` read as `(row, col)` pairs.
    fn random_matrix(n: usize, raw: &[usize]) -> CsrMatrix {
        let t: Vec<(usize, usize, f64)> = raw
            .chunks_exact(2)
            .map(|rc| (rc[0] % n, rc[1] % n, 1.0))
            .collect();
        CsrMatrix::from_triplets(n, n, &t)
    }

    /// A partition of `n` rows from raw boundaries. `from_boundaries` clamps
    /// `n + 1` and `n + 2` to `n`, so on small `n` boundaries at 0 and at
    /// `n`, repeated boundaries and empty parts are common; no boundaries is
    /// a single part.
    fn partition(n: usize, raw: &[usize]) -> RowPartition {
        let interior: Vec<usize> = raw.iter().map(|&b| b % (n + 3)).collect();
        RowPartition::from_boundaries(n, &interior)
    }

    /// `halo_volumes` equals the hash-set oracle, and `solve` is bit-equal
    /// to the superstep built from the oracle's sorted volumes and
    /// `RowPartition::load_imbalance`.
    fn agrees_with_hashing(a: CsrMatrix, part: &RowPartition) -> Result<(), String> {
        let oracle = halo_volumes_by_hashing(&a, part);
        let mut p = SlesProblem::new(a.clone(), ones(a.rows()), machine(part.parts()));
        p.set_iterations(37);
        prop_assert_eq!(p.halo_volumes(part), oracle.clone());
        let mut sorted: Vec<((usize, usize), usize)> = oracle.into_iter().collect();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        let got = p.solve(part);
        let want = p.simulate(part, sorted);
        for (g, w) in [
            (got.time, want.time),
            (got.compute_time, want.compute_time),
            (got.comm_time, want.comm_time),
            (got.imbalance, part.load_imbalance(&a)),
        ] {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn halo_volumes_equal_the_hash_set_count(
            kind in 0usize..3,
            size in 1usize..40,
            width in 1usize..8,
            blocks in proptest::collection::vec(1usize..20, 1..5),
            density in 0.0..1.0f64,
            seed in 0u64..1_000,
            entries in proptest::collection::vec(0usize..10_000, 0..400),
            bounds in proptest::collection::vec(0usize..10_000, 0..9),
        ) {
            let a = match kind {
                0 => laplacian_2d(size, width),
                1 => clustered_blocks(&blocks, density, seed),
                _ => random_matrix(size, &entries),
            };
            let part = partition(a.rows(), &bounds);
            agrees_with_hashing(a, &part)?;
        }
    }

    #[test]
    fn halo_volumes_agree_on_the_edge_partitions() {
        let a = clustered_blocks(&[7, 3, 12, 5], 0.6, 11);
        let n = a.rows();
        for interior in [
            vec![],
            vec![0],
            vec![n],
            vec![0, 0, n, n],
            vec![5, 5, 5],
            vec![0, 9, 9, n],
            (1..n).collect(),
        ] {
            let part = RowPartition::from_boundaries(n, &interior);
            agrees_with_hashing(a.clone(), &part).unwrap();
        }
    }

    #[test]
    fn iteration_count_is_partition_independent() {
        let a = laplacian_2d(10, 10);
        let b = ones(a.rows());
        let mut p = SlesProblem::new(a, b, machine(4));
        let even = RowPartition::even(100, 4);
        let uneven = RowPartition::from_boundaries(100, &[10, 50, 90]);
        let r1 = p.solve(&even);
        let r2 = p.solve(&uneven);
        assert_eq!(r1.iterations, r2.iterations);
        assert!(r1.iterations > 1);
    }

    #[test]
    fn balanced_split_beats_skewed_split_on_uniform_matrix() {
        let a = laplacian_2d(20, 20);
        let b = ones(a.rows());
        let mut p = SlesProblem::new(a, b, machine(4));
        let even = RowPartition::even(400, 4);
        let skewed = RowPartition::from_boundaries(400, &[10, 20, 30]);
        assert!(p.solve(&even).time < p.solve(&skewed).time);
    }

    #[test]
    fn block_aligned_split_beats_even_split_on_clustered_matrix() {
        // Figure 2's lesson: hug the dense blocks.
        let a = clustered_blocks(&[10, 50, 10, 30], 0.9, 7);
        let b = ones(a.rows());
        let mut p = SlesProblem::new(a, b, machine(4));
        p.set_iterations(100);
        // Even split cuts the dense 50-block (boundary at 25, 50, 75).
        let even = RowPartition::even(100, 4);
        // Aligned split at block boundaries (10, 60, 70) — less cut but a
        // heavier middle part; with the paper's matrices the cut dominates.
        let aligned = RowPartition::from_boundaries(100, &[10, 60, 70]);
        let re = p.solve(&even);
        let ra = p.solve(&aligned);
        assert!(
            ra.comm_time < re.comm_time,
            "aligned comm {} !< even comm {}",
            ra.comm_time,
            re.comm_time
        );
    }

    #[test]
    fn halo_volume_counts_distinct_columns() {
        // 1-D chain: each boundary contributes exactly 1 remote column in
        // each direction.
        let a = laplacian_2d(10, 1);
        let b = ones(10);
        let p = SlesProblem::new(a, b, machine(2));
        let part = RowPartition::even(10, 2);
        let vols = p.halo_volumes(&part);
        assert_eq!(vols.get(&(0, 1)), Some(&1));
        assert_eq!(vols.get(&(1, 0)), Some(&1));
    }

    #[test]
    fn pinned_iterations_skip_numeric_solve() {
        let a = laplacian_2d(8, 8);
        let b = ones(a.rows());
        let mut p = SlesProblem::new(a, b, machine(2));
        p.set_iterations(42);
        let r = p.solve(&RowPartition::even(64, 2));
        assert_eq!(r.iterations, 42);
    }

    #[test]
    #[should_panic(expected = "machine too small")]
    fn too_many_parts_panics() {
        let a = laplacian_2d(4, 4);
        let b = ones(16);
        let mut p = SlesProblem::new(a, b, machine(2));
        p.solve(&RowPartition::even(16, 4));
    }
}
