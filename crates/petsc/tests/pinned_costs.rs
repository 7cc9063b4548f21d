//! Exact costs of the PETSc objectives at one fixed configuration each.
//!
//! The experiments check shapes only, so a change to the sparse substrate
//! (CSR products, the CG every SLES and Newton solve runs through) could
//! move every cost by an ulp unnoticed. These pins hold the bits: the CG
//! iteration count an SLES cost is scaled by, the SLES and driven-cavity
//! costs, and a Newton–CG solve's inner iterations and residual.

use ah_clustersim::machines::{hetero_p4_p2, sp3_seaborg};
use ah_petsc::{newton_solve, DrivenCavity, NonlinearPoisson, SlesProblem};
use ah_sparse::gen::{laplacian_2d, ones};
use ah_sparse::RowPartition;

#[test]
fn sles_cost_and_cg_iterations_are_pinned() {
    let a = laplacian_2d(24, 24);
    let mut problem = SlesProblem::new(a, ones(576), sp3_seaborg(2, 4));
    let part = RowPartition::from_boundaries(576, &[60, 150, 220, 300, 370, 450, 500]);
    let run = problem.solve(&part);
    assert_eq!(run.iterations, 38);
    assert_eq!(run.time.to_bits(), 0.0030488352533333337f64.to_bits());
}

#[test]
fn snes_costs_are_pinned() {
    let cavity = DrivenCavity::new(50, 50, hetero_p4_p2(), 10);
    let dist = RowPartition::from_boundaries(50, &[10, 22, 36]);
    assert_eq!(
        cavity.run_time(&dist).to_bits(),
        0.043930931653209944f64.to_bits()
    );

    let newton = newton_solve(&NonlinearPoisson::new(12, 12, 5.0), 1e-9, 30);
    assert!(newton.converged);
    assert_eq!(
        (newton.newton_iterations, newton.linear_iterations),
        (14, 269)
    );
    assert_eq!(
        newton.residual_norm.to_bits(),
        1.0888067635563882e-13f64.to_bits()
    );
}
