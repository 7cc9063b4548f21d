//! The GS2 timestep performance model.
//!
//! Per timestep:
//!
//! * **linear/field phase** — always runs: per-processor compute
//!   proportional to its chunk of the 5-D space times `ntheta`, plus two
//!   redistributions (forward and back) whose volume is the *exact* number
//!   of elements that do not live on their `x–y`-pencil home processor
//!   (see [`crate::decomp::locality`]);
//! * **collision phase** — only with `collision_model` on: per-processor
//!   compute plus two redistributions keyed to the pitch-angle (`l`)
//!   pencils;
//! * a small global reduction (field diagnostics).
//!
//! Initialisation (response-matrix setup, reading the initial distribution)
//! is charged once per run and includes layout-dependent redistribution, so
//! short benchmarking runs (10 steps) and production runs (1,000 steps)
//! weigh tuning gains differently — exactly the Table III vs. Table IV
//! contrast.

use crate::decomp::{locality, Decomposition, DimSizes};
use crate::layout::{Dim, Layout};
use ah_clustersim::{NetworkModel, NodeSpec};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Memoisation key for locality counts: everything [`locality`] reads — the
/// layout, the five sizes, the processor count, and the needed dimensions as
/// one bit per [`Dim`].
type LocalityKey = (Layout, DimSizes, usize, u8);

/// Gflop per element per `ntheta` point in the linear phase.
pub const GFLOP_LINEAR: f64 = 1.2e-7;
/// Gflop per element per `ntheta` point in the collision phase.
pub const GFLOP_COLLISION: f64 = 0.8e-7;
/// Bytes moved per redistributed element per `ntheta` point in the field
/// redistribution (complex distribution function).
pub const BYTES_PER_ELEMENT_THETA: f64 = 16.0;
/// Bytes per element-theta in the collision redistribution (velocity-space
/// moments only — roughly half the field payload).
pub const BYTES_PER_ELEMENT_THETA_COLL: f64 = 8.0;
/// Initialisation compute, Gflop per element per `ntheta` point.
pub const GFLOP_INIT: f64 = 1.0e-6;
/// Redistribution passes during initialisation (response-matrix setup
/// performs many field redistributions).
pub const INIT_REDIST_PASSES: f64 = 12.0;
/// Fixed startup seconds (input parsing, geometry setup).
pub const INIT_FIXED: f64 = 0.25;

/// Whether the collision operator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollisionModel {
    /// Collisionless run.
    None,
    /// Lorentz (pitch-angle scattering) collisions — needs whole
    /// velocity-space (`l`, `e`) pencils local.
    Lorentz,
}

/// A complete GS2 run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gs2Config {
    /// The data layout.
    pub layout: Layout,
    /// Energy grid size (`negrid`).
    pub negrid: usize,
    /// Grid points per 2π field-line segment (`ntheta`).
    pub ntheta: usize,
    /// Nodes used.
    pub nodes: usize,
    /// Collision operator.
    pub collision: CollisionModel,
}

impl Gs2Config {
    /// The paper's default configuration for the Table III/IV experiments:
    /// `lxyes`, `negrid 16`, `ntheta 26`, 32 nodes.
    pub fn paper_default() -> Self {
        Gs2Config {
            layout: Layout::DEFAULT.parse().expect("default layout parses"),
            negrid: 16,
            ntheta: 26,
            nodes: 32,
            collision: CollisionModel::None,
        }
    }
}

/// The GS2 performance model on a parameterised cluster.
///
/// # Example
///
/// ```
/// use ah_gs2::{Gs2Config, Gs2Model};
///
/// let model = Gs2Model::on_seaborg(16, 8); // 16-way nodes, up to 8 nodes
/// let default = Gs2Config::paper_default();
/// let cfg = Gs2Config { nodes: 8, ..default };
/// let t10 = model.run_time(&cfg, 10);
/// let t20 = model.run_time(&cfg, 20);
/// assert!(t20 > t10);
/// ```
#[derive(Debug, Clone)]
pub struct Gs2Model {
    /// Node hardware (processors per node, speed, contention).
    pub node: NodeSpec,
    /// Interconnect.
    pub network: NetworkModel,
    /// Maximum nodes available.
    pub max_nodes: usize,
    /// x dimension size.
    pub nx: usize,
    /// y dimension size.
    pub ny: usize,
    /// Pitch-angle dimension size.
    pub nl: usize,
    /// Species count.
    pub nspec: usize,
    /// Memoised locality results, shared with clones (see [`LocalityKey`]).
    locality_cache: Arc<Mutex<HashMap<LocalityKey, f64>>>,
}

impl Gs2Model {
    /// A model with the paper's problem dimensions on the given hardware.
    pub fn new(node: NodeSpec, network: NetworkModel, max_nodes: usize) -> Self {
        Gs2Model {
            node,
            network,
            max_nodes,
            nx: 32,
            ny: 16,
            nl: 32,
            nspec: 2,
            locality_cache: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The Seaborg-like SP-3 (16-way nodes).
    pub fn on_seaborg(procs_per_node: usize, max_nodes: usize) -> Self {
        let m = ah_clustersim::sp3_seaborg(1, procs_per_node);
        Gs2Model::new(m.nodes[0], m.network, max_nodes)
    }

    /// The Myrinet Linux cluster (dual-Xeon nodes).
    pub fn on_linux_cluster(max_nodes: usize) -> Self {
        let m = ah_clustersim::myrinet_linux(1, 2);
        Gs2Model::new(m.nodes[0], m.network, max_nodes)
    }

    /// Dimension sizes for a configuration.
    pub fn sizes(&self, cfg: &Gs2Config) -> DimSizes {
        DimSizes {
            x: self.nx,
            y: self.ny,
            l: self.nl,
            e: cfg.negrid,
            s: self.nspec,
        }
    }

    /// Processor count for a configuration.
    pub fn procs(&self, cfg: &Gs2Config) -> usize {
        cfg.nodes.min(self.max_nodes).max(1) * self.node.procs
    }

    fn cached_locality(&self, d: &Decomposition, needed: &[Dim]) -> f64 {
        let dims = needed.iter().fold(0u8, |bits, &dim| bits | 1 << dim as u8);
        let key = (d.layout, d.sizes, d.procs, dims);
        let cache = &self.locality_cache;
        if let Some(&v) = cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return v;
        }
        let v = locality(d, needed);
        cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, v);
        v
    }

    /// Per-processor time of one redistribution pass for a phase with the
    /// given locality, at `ntheta` field-line points per element.
    fn redistribution_time(
        &self,
        cfg: &Gs2Config,
        d: &Decomposition,
        loc: f64,
        bytes_per_element_theta: f64,
    ) -> f64 {
        if loc >= 1.0 {
            return 0.0;
        }
        let procs = d.procs as f64;
        let nodes = cfg.nodes.min(self.max_nodes).max(1) as f64;
        let ppn = self.node.procs as f64;
        let n = d.sizes.total() as f64;
        let moved_elements = (1.0 - loc) * n;
        let bytes_total = moved_elements * cfg.ntheta as f64 * bytes_per_element_theta;
        // Bandwidth term: each node's interconnect link carries its share.
        let bw_time = bytes_total / (nodes * self.network.inter.bandwidth);
        // Latency term: each processor exchanges with roughly the fraction
        // of peers holding parts of its pencils; intra-node partners are
        // cheap, inter-node ones pay the full interconnect latency.
        let partners = ((1.0 - loc) * (procs - 1.0)).min(procs - 1.0).max(0.0);
        let frac_intra = if procs > 1.0 {
            (ppn - 1.0).max(0.0) / (procs - 1.0)
        } else {
            0.0
        };
        let lat_time = partners
            * (frac_intra * self.network.intra.latency
                + (1.0 - frac_intra) * self.network.inter.latency);
        bw_time + lat_time
    }

    /// Per-timestep execution time.
    pub fn step_time(&self, cfg: &Gs2Config) -> f64 {
        let procs = self.procs(cfg);
        let d = Decomposition::new(cfg.layout, self.sizes(cfg), procs);
        let speed = self.node.effective_speed(self.node.procs);
        let chunk_work = d.chunk() as f64 * cfg.ntheta as f64;

        // Linear/field phase.
        let lin_compute = chunk_work * GFLOP_LINEAR / speed;
        let loc_xy = self.cached_locality(&d, &[Dim::X, Dim::Y]);
        let lin_comm = 2.0 * self.redistribution_time(cfg, &d, loc_xy, BYTES_PER_ELEMENT_THETA);

        // Collision phase: needs l-e velocity pencils local, which neither
        // lxyes nor yxles provides — both pay a (cheaper) redistribution,
        // which is why collisions narrow but do not invert the layout gap.
        let (coll_compute, coll_comm) = match cfg.collision {
            CollisionModel::None => (0.0, 0.0),
            CollisionModel::Lorentz => {
                let loc_le = self.cached_locality(&d, &[Dim::L, Dim::E]);
                (
                    chunk_work * GFLOP_COLLISION / speed,
                    2.0 * self.redistribution_time(cfg, &d, loc_le, BYTES_PER_ELEMENT_THETA_COLL),
                )
            }
        };

        // Field reduction.
        let nodes = cfg.nodes.min(self.max_nodes).max(1);
        let reduce = self.network.allreduce_time(64.0, procs, nodes);

        lin_compute + lin_comm + coll_compute + coll_comm + reduce
    }

    /// One-off initialisation time (layout-dependent).
    pub fn init_time(&self, cfg: &Gs2Config) -> f64 {
        let procs = self.procs(cfg);
        let d = Decomposition::new(cfg.layout, self.sizes(cfg), procs);
        let speed = self.node.effective_speed(self.node.procs);
        let compute = d.chunk() as f64 * cfg.ntheta as f64 * GFLOP_INIT / speed;
        let loc_xy = self.cached_locality(&d, &[Dim::X, Dim::Y]);
        let redist =
            INIT_REDIST_PASSES * self.redistribution_time(cfg, &d, loc_xy, BYTES_PER_ELEMENT_THETA);
        INIT_FIXED + compute + redist
    }

    /// Total run time: initialisation plus `steps` timesteps.
    pub fn run_time(&self, cfg: &Gs2Config, steps: usize) -> f64 {
        self.init_time(cfg) + self.step_time(cfg) * steps as f64
    }

    /// Quantified fidelity loss relative to the reference resolution
    /// (`negrid 16`, `ntheta 26`): 0.0 at or above reference, growing
    /// quadratically as either grid coarsens (discretisation error of a
    /// second-order scheme). Feed this to
    /// [`TradeoffObjective`](ah_core::objective::TradeoffObjective) to
    /// automate the accuracy/performance tradeoff the paper's §VII
    /// discusses.
    pub fn fidelity_loss(&self, cfg: &Gs2Config) -> f64 {
        let e = (16.0 / cfg.negrid.max(1) as f64).powi(2) - 1.0;
        let t = (26.0 / cfg.ntheta.max(1) as f64).powi(2) - 1.0;
        0.5 * (e.max(0.0) + t.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(layout: &str, collision: CollisionModel) -> Gs2Config {
        Gs2Config {
            layout: layout.parse().expect("layout parses"),
            negrid: 16,
            ntheta: 26,
            nodes: 8,
            collision,
        }
    }

    fn seaborg_model() -> Gs2Model {
        Gs2Model::on_seaborg(16, 64)
    }

    #[test]
    fn yxles_beats_lxyes_without_collisions() {
        let m = seaborg_model();
        let t_lx = m.step_time(&cfg("lxyes", CollisionModel::None));
        let t_yx = m.step_time(&cfg("yxles", CollisionModel::None));
        let speedup = t_lx / t_yx;
        assert!(
            speedup > 2.0,
            "yxles should be much faster: {t_lx} vs {t_yx} ({speedup:.2}x)"
        );
    }

    #[test]
    fn collision_mode_narrows_the_gap() {
        let m = seaborg_model();
        let no = m.step_time(&cfg("lxyes", CollisionModel::None))
            / m.step_time(&cfg("yxles", CollisionModel::None));
        let with = m.step_time(&cfg("lxyes", CollisionModel::Lorentz))
            / m.step_time(&cfg("yxles", CollisionModel::Lorentz));
        assert!(
            with < no,
            "collisions punish yxles: ratio with={with:.2} vs without={no:.2}"
        );
        assert!(with > 1.0, "yxles still wins with collisions ({with:.2}x)");
    }

    #[test]
    fn init_is_layout_dependent_and_charged_once() {
        let m = seaborg_model();
        let lx = cfg("lxyes", CollisionModel::None);
        let yx = cfg("yxles", CollisionModel::None);
        assert!(m.init_time(&lx) > m.init_time(&yx));
        let r10 = m.run_time(&lx, 10);
        let r1000 = m.run_time(&lx, 1000);
        let step = m.step_time(&lx);
        assert!((r1000 - r10 - 990.0 * step).abs() < 1e-9);
    }

    #[test]
    fn more_nodes_help_until_alignment_breaks() {
        // Scaling up nodes reduces per-proc work but can break pencil
        // alignment; the model must show a non-monotone or saturating curve
        // rather than ideal scaling.
        let m = seaborg_model();
        let time_at = |nodes| {
            m.step_time(&Gs2Config {
                nodes,
                ..cfg("yxles", CollisionModel::None)
            })
        };
        let t8 = time_at(8);
        let t32 = time_at(32);
        assert!(t32 < t8, "some scaling must exist: {t8} -> {t32}");
        let ideal = t8 / 4.0;
        assert!(t32 > ideal, "scaling must be sub-ideal: {t32} vs {ideal}");
    }

    #[test]
    fn smaller_negrid_and_ntheta_run_faster() {
        let m = seaborg_model();
        let base = cfg("lxyes", CollisionModel::None);
        let small = Gs2Config {
            negrid: 8,
            ntheta: 20,
            ..base
        };
        assert!(m.step_time(&small) < m.step_time(&base));
    }

    #[test]
    fn locality_cache_is_consistent() {
        let m = seaborg_model();
        let c = cfg("lxyes", CollisionModel::None);
        let a = m.step_time(&c);
        let b = m.step_time(&c);
        assert_eq!(a, b);
    }

    #[test]
    fn a_resized_clone_does_not_reuse_its_originals_localities() {
        // Clones share the locality memo; `nx`..`nspec` are public, so a
        // clone resized after the original filled the memo must still get
        // its own counts.
        let small = || {
            let mut m = Gs2Model::on_seaborg(16, 8);
            m.nx = 16;
            m.ny = 8;
            m.nl = 16;
            m
        };
        let original = small();
        let mut resized = original.clone();
        resized.nx = 12;
        let mut fresh = small();
        fresh.nx = 12;
        for layout in Layout::paper_candidates() {
            for nodes in 1..=8 {
                for collision in [CollisionModel::None, CollisionModel::Lorentz] {
                    let c = Gs2Config {
                        layout,
                        nodes,
                        collision,
                        ..Gs2Config::paper_default()
                    };
                    original.run_time(&c, 10);
                    assert_eq!(
                        resized.run_time(&c, 10).to_bits(),
                        fresh.run_time(&c, 10).to_bits(),
                        "{layout} on {nodes} nodes, {collision:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fidelity_loss_is_zero_at_reference_and_grows_coarser() {
        let m = seaborg_model();
        let reference = cfg("lxyes", CollisionModel::None);
        assert_eq!(m.fidelity_loss(&reference), 0.0);
        let finer = Gs2Config {
            negrid: 32,
            ntheta: 40,
            ..reference
        };
        assert_eq!(m.fidelity_loss(&finer), 0.0);
        let coarse = Gs2Config {
            negrid: 8,
            ntheta: 16,
            ..reference
        };
        let coarser = Gs2Config {
            negrid: 8,
            ntheta: 10,
            ..reference
        };
        assert!(m.fidelity_loss(&coarse) > 0.0);
        assert!(m.fidelity_loss(&coarser) > m.fidelity_loss(&coarse));
    }

    #[test]
    fn procs_respects_max_nodes() {
        let m = Gs2Model::on_seaborg(16, 8);
        let c = Gs2Config {
            nodes: 32,
            ..cfg("lxyes", CollisionModel::None)
        };
        assert_eq!(m.procs(&c), 8 * 16);
    }
}
