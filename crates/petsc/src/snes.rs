//! SNES: nonlinear solvers and the driven-cavity distribution model.
//!
//! Two pieces live here:
//!
//! 1. A *real* Newton–Krylov solver ([`newton_solve`]) over a
//!    [`NonlinearProblem`], with a built-in nonlinear Poisson test problem
//!    ([`NonlinearPoisson`]) — the numerical substrate a SNES user would
//!    call.
//! 2. The *performance model* for the paper's second PETSc experiment
//!    ([`DrivenCavity`]): a 2-D driven-cavity grid whose rows of grid points
//!    are distributed across processors; per-processor compute scales with
//!    owned points and node speed, neighbours exchange boundary rows, and a
//!    global reduction closes each Newton step. On heterogeneous machines
//!    the optimal distribution gives fast nodes more rows (Figure 3b).

use ah_clustersim::Machine;
use ah_sparse::{cg_solve, CsrMatrix, RowPartition};

/// Gflop per grid point per nonlinear sweep (stencil + upwinding work).
const GFLOP_PER_POINT: f64 = 2.0e-6;
/// Bytes exchanged per boundary grid point per sweep.
const BYTES_PER_BOUNDARY_POINT: f64 = 32.0;

/// A nonlinear system `F(u) = 0` with an explicitly assembled Jacobian.
pub trait NonlinearProblem {
    /// Problem size.
    fn unknowns(&self) -> usize;
    /// Residual `F(u)`.
    fn residual(&self, u: &[f64], out: &mut [f64]);
    /// Jacobian `F'(u)` as a sparse matrix.
    fn jacobian(&self, u: &[f64]) -> CsrMatrix;
}

/// Result of a Newton solve.
#[derive(Debug, Clone)]
pub struct NewtonOutcome {
    /// The solution iterate.
    pub u: Vec<f64>,
    /// Newton iterations performed.
    pub newton_iterations: usize,
    /// Total inner (CG) iterations.
    pub linear_iterations: usize,
    /// Final residual norm.
    pub residual_norm: f64,
    /// Whether `‖F(u)‖` dropped below the tolerance.
    pub converged: bool,
}

/// Newton's method with CG inner solves (Jacobians here are SPD).
pub fn newton_solve<P: NonlinearProblem>(
    problem: &P,
    tol: f64,
    max_newton: usize,
) -> NewtonOutcome {
    let n = problem.unknowns();
    let mut u = vec![0.0; n];
    let mut f = vec![0.0; n];
    let mut linear_iterations = 0;
    for k in 0..max_newton {
        problem.residual(&u, &mut f);
        let fnorm = ah_sparse::vec_ops::norm2(&f);
        if fnorm <= tol {
            return NewtonOutcome {
                u,
                newton_iterations: k,
                linear_iterations,
                residual_norm: fnorm,
                converged: true,
            };
        }
        let j = problem.jacobian(&u);
        // Solve J δ = −F.
        let rhs: Vec<f64> = f.iter().map(|v| -v).collect();
        let lin = cg_solve(&j, &rhs, 1e-10, 10 * n);
        linear_iterations += lin.iterations;
        for (ui, di) in u.iter_mut().zip(&lin.x) {
            *ui += di;
        }
    }
    problem.residual(&u, &mut f);
    let fnorm = ah_sparse::vec_ops::norm2(&f);
    NewtonOutcome {
        u,
        newton_iterations: max_newton,
        linear_iterations,
        residual_norm: fnorm,
        converged: fnorm <= tol,
    }
}

/// `−Δu + u³ = f` on an `nx × ny` grid with homogeneous Dirichlet
/// boundaries — a standard SNES-style nonlinear PDE test problem.
#[derive(Debug, Clone)]
pub struct NonlinearPoisson {
    nx: usize,
    ny: usize,
    f: Vec<f64>,
}

impl NonlinearPoisson {
    /// Constant forcing `f ≡ strength`.
    pub fn new(nx: usize, ny: usize, strength: f64) -> Self {
        NonlinearPoisson {
            nx,
            ny,
            f: vec![strength; nx * ny],
        }
    }
}

impl NonlinearProblem for NonlinearPoisson {
    fn unknowns(&self) -> usize {
        self.nx * self.ny
    }

    fn residual(&self, u: &[f64], out: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        for j in 0..ny {
            for i in 0..nx {
                let r = j * nx + i;
                let mut lap = 4.0 * u[r];
                if i > 0 {
                    lap -= u[r - 1];
                }
                if i + 1 < nx {
                    lap -= u[r + 1];
                }
                if j > 0 {
                    lap -= u[r - nx];
                }
                if j + 1 < ny {
                    lap -= u[r + nx];
                }
                out[r] = lap + u[r].powi(3) - self.f[r];
            }
        }
    }

    fn jacobian(&self, u: &[f64]) -> CsrMatrix {
        let (nx, ny) = (self.nx, self.ny);
        let n = nx * ny;
        let mut t = Vec::with_capacity(5 * n);
        for j in 0..ny {
            for i in 0..nx {
                let r = j * nx + i;
                t.push((r, r, 4.0 + 3.0 * u[r] * u[r]));
                if i > 0 {
                    t.push((r, r - 1, -1.0));
                }
                if i + 1 < nx {
                    t.push((r, r + 1, -1.0));
                }
                if j > 0 {
                    t.push((r, r - nx, -1.0));
                }
                if j + 1 < ny {
                    t.push((r, r + nx, -1.0));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }
}

/// Performance model of the 2-D driven-cavity SNES example under a tunable
/// grid-point distribution (1-D strips of grid rows per processor).
#[derive(Debug, Clone)]
pub struct DrivenCavity {
    /// Grid width (points per grid row).
    pub nx: usize,
    /// Grid height (rows to distribute).
    pub ny: usize,
    /// Machine the solve runs on.
    pub machine: Machine,
    /// Nonlinear sweeps per representative run (Newton × inner sweeps).
    pub sweeps: usize,
}

impl DrivenCavity {
    /// Problem over `nx × ny = total points` distributed across the machine.
    pub fn new(nx: usize, ny: usize, machine: Machine, sweeps: usize) -> Self {
        assert!(machine.total_procs() >= 1);
        DrivenCavity {
            nx,
            ny,
            machine,
            sweeps,
        }
    }

    /// Total grid points.
    pub fn points(&self) -> usize {
        self.nx * self.ny
    }

    /// The default, equal-size distributed-array decomposition.
    pub fn default_distribution(&self) -> RowPartition {
        RowPartition::even(self.ny, self.machine.total_procs())
    }

    /// Simulated execution time for a given distribution of grid rows.
    ///
    /// The sweep synchronises only with strip *neighbours* (halo exchange),
    /// not at a global barrier, so slack from lightly loaded processors is
    /// partially absorbed by the pipeline. The per-sweep span is therefore
    /// modelled as a high-order power mean of the per-processor times —
    /// between the mean and the max — rather than a hard `max`. The global
    /// reduction that closes each nonlinear iteration is added on top.
    pub fn run_time(&self, dist: &RowPartition) -> f64 {
        assert_eq!(
            dist.rows(),
            self.ny,
            "distribution must cover all grid rows"
        );
        let p = self.machine.total_procs();
        assert!(dist.parts() <= p, "more parts than processors");

        let rows = dist.row_counts();
        let halo_bytes = self.nx as f64 * BYTES_PER_BOUNDARY_POINT;
        let mut per_proc = vec![0.0f64; p];
        for (i, &r) in rows.iter().enumerate() {
            let compute = (r * self.nx) as f64 * GFLOP_PER_POINT / self.machine.speed_of(i);
            let mut comm = 0.0;
            if r > 0 {
                if i > 0 && rows[i - 1] > 0 {
                    comm += self
                        .machine
                        .network
                        .msg_time(halo_bytes, self.machine.same_node(i - 1, i));
                }
                if i + 1 < rows.len() && rows[i + 1] > 0 {
                    comm += self
                        .machine
                        .network
                        .msg_time(halo_bytes, self.machine.same_node(i, i + 1));
                }
            }
            per_proc[i] = compute + comm;
        }
        const Q: f64 = 8.0;
        let active = per_proc.iter().filter(|&&t| t > 0.0).count().max(1) as f64;
        let span = (per_proc.iter().map(|t| t.powf(Q)).sum::<f64>() / active).powf(1.0 / Q);
        let reduce = self
            .machine
            .network
            .allreduce_time(8.0, p, self.machine.node_count());
        (span + reduce) * self.sweeps as f64
    }

    /// The distribution proportional to processor speeds — the analytic
    /// optimum the tuner should approach on heterogeneous machines.
    pub fn speed_proportional_distribution(&self) -> RowPartition {
        let p = self.machine.total_procs();
        let total_speed: f64 = (0..p).map(|q| self.machine.loaded_speed_of(q)).sum();
        let mut bounds = Vec::with_capacity(p - 1);
        let mut acc = 0.0;
        for q in 0..p - 1 {
            acc += self.machine.loaded_speed_of(q);
            bounds.push(((acc / total_speed) * self.ny as f64).round() as usize);
        }
        RowPartition::from_boundaries(self.ny, &bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_clustersim::machines::{hetero_p4_p2, homo_p4};

    #[test]
    fn newton_solves_nonlinear_poisson() {
        let p = NonlinearPoisson::new(10, 10, 5.0);
        let out = newton_solve(&p, 1e-9, 30);
        assert!(out.converged, "residual={}", out.residual_norm);
        assert!(out.newton_iterations >= 2);
        // The solution must be positive in the interior for positive forcing.
        assert!(out.u[5 * 10 + 5] > 0.0);
    }

    #[test]
    fn newton_converges_faster_with_weaker_nonlinearity() {
        let strong = newton_solve(&NonlinearPoisson::new(8, 8, 50.0), 1e-9, 50);
        let weak = newton_solve(&NonlinearPoisson::new(8, 8, 0.5), 1e-9, 50);
        assert!(weak.newton_iterations <= strong.newton_iterations);
    }

    #[test]
    fn homogeneous_machine_prefers_equal_split() {
        let cavity = DrivenCavity::new(50, 50, homo_p4(), 10);
        let even = cavity.default_distribution();
        let skewed = RowPartition::from_boundaries(50, &[5, 10, 15]);
        assert!(cavity.run_time(&even) < cavity.run_time(&skewed));
    }

    #[test]
    fn heterogeneous_machine_prefers_speed_proportional_split() {
        let cavity = DrivenCavity::new(50, 50, hetero_p4_p2(), 10);
        let even = cavity.default_distribution();
        let prop = cavity.speed_proportional_distribution();
        let t_even = cavity.run_time(&even);
        let t_prop = cavity.run_time(&prop);
        assert!(
            t_prop < t_even,
            "proportional {t_prop} should beat even {t_even}"
        );
        // Fast nodes (procs 2,3) must own more rows than slow nodes.
        let rows = prop.row_counts();
        assert!(rows[2] > rows[0], "{rows:?}");
    }

    #[test]
    fn speed_proportional_covers_all_rows() {
        let cavity = DrivenCavity::new(10, 97, hetero_p4_p2(), 1);
        let prop = cavity.speed_proportional_distribution();
        assert_eq!(prop.row_counts().iter().sum::<usize>(), 97);
    }

    #[test]
    fn run_time_scales_with_sweeps() {
        let cavity1 = DrivenCavity::new(20, 20, homo_p4(), 1);
        let cavity10 = DrivenCavity::new(20, 20, homo_p4(), 10);
        let d = cavity1.default_distribution();
        let t1 = cavity1.run_time(&d);
        let t10 = cavity10.run_time(&d);
        assert!((t10 - 10.0 * t1).abs() < 1e-12);
    }
}
