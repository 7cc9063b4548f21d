//! The applications the paper tunes, built through their public
//! constructors with the leaderboard's and the experiments' full-mode
//! sizes, so an objective can be evaluated directly.

use ah_clustersim::machines::{homo_p4, sp3_seaborg};
use ah_clustersim::{Machine, NetworkModel};
use ah_core::offline::ShortRunApp;
use ah_gs2::{CollisionModel, Gs2Config, Gs2LayoutApp, Gs2Model};
use ah_petsc::{CavityDistributionApp, DrivenCavity, SlesDecompositionApp, SlesProblem};
use ah_pop::{OceanGrid, PopBlockApp, PopParamApp};
use ah_sparse::gen::{clustered_blocks, ones};

/// Per-layer metric name of each application's objective evaluation.
pub const EVAL_METRICS: [&str; 5] = [
    "petsc.sles_eval_us",
    "petsc.snes_eval_us",
    "pop.block_eval_us",
    "pop.param_eval_us",
    "gs2.eval_us",
];

/// Build the five applications, in the order of [`EVAL_METRICS`].
pub fn build() -> Vec<Box<dyn ShortRunApp>> {
    let sles = {
        let a = clustered_blocks(&[30, 110, 25, 60, 95, 80], 0.85, 20);
        let n = a.rows();
        let machine = Machine::uniform("petsc 4x1", 4, 1, 1.0, NetworkModel::default());
        let mut problem = SlesProblem::new(a, ones(n), machine);
        problem.set_iterations(200);
        SlesDecompositionApp::new(problem, 4)
    };
    let snes = CavityDistributionApp::new(DrivenCavity::new(50, 50, homo_p4(), 20));
    let blocks = PopBlockApp::new(OceanGrid::synthetic(360, 240), sp3_seaborg(12, 4), 3);
    let params = PopParamApp::new(
        OceanGrid::synthetic(360, 240),
        sp3_seaborg(12, 4),
        (180, 100),
        3,
    );
    let gs2 = Gs2LayoutApp::new(
        Gs2Model::on_seaborg(16, 8),
        Gs2Config {
            nodes: 8,
            collision: CollisionModel::Lorentz,
            ..Gs2Config::paper_default()
        },
        10,
    );
    vec![
        Box::new(sles),
        Box::new(snes),
        Box::new(blocks),
        Box::new(params),
        Box::new(gs2),
    ]
}
