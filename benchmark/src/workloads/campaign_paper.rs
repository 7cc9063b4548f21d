//! `campaign-paper`: the paper's own campaigns, in-process.
//!
//! `ah_repro::all_experiments()` is the fixed registry of the paper's 13
//! artefacts plus `fault` and `warmstart`. Evaluating the `petsc`, `sparse`,
//! `pop`, `gs2` and `clustersim` objectives dominates; the tuner's own
//! overhead is negligible. A faster application kernel shows here and must
//! move nothing on the other workloads.
//!
//! The registry runs in its quick mode (every code path, shrunken inputs),
//! 24 passes of about 0.9 s, and every experiment scores the fastest of its
//! 24 times. At full size one pass takes 13 s, 9 of them inside one
//! experiment, and an interval that long cannot be told from the host's
//! noise: over ten seeds two full-size passes put `campaign_s` anywhere from
//! 12.0 to 15.5 s (quartiles 19 % apart) for the same code, where no
//! experiment of the quick registry outlasts the host's quiet gaps.

use crate::apps;
use crate::estimators::fast_end;
use crate::harness::{end_to_end_rows, Meter, Rows, RunConfig};
use crate::host;
use ah_core::seeded::splitmix64;
use ah_repro::{all_experiments, RunCtx};
use std::time::Instant;

/// Passes over the registry at the reference run length.
pub const PASSES: usize = 24;
/// A pass repeats the set-up before every this-many-th experiment, a
/// different third of them each pass.
const SETUP_STRIDE: usize = 3;

/// What one pass measured for one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentSample {
    /// Registry id.
    pub id: &'static str,
    /// Wall seconds of `run`.
    pub wall_s: f64,
    /// Process CPU seconds of `run`.
    pub cpu_s: f64,
    /// `ExpReport::all_ok()`.
    pub ok: bool,
}

/// Result of the workload.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Seconds of each set-up repetition.
    pub setup_reps_s: Vec<f64>,
    /// Samples of each pass, in registry order.
    pub passes: Vec<Vec<ExperimentSample>>,
    /// Counters and checks.
    pub meter: Meter,
    /// Wall seconds over all passes.
    pub wall_s: f64,
}

/// Everything before the first campaign can propose: the registry, and the
/// application models the campaigns tune, each with its default
/// configuration in hand.
fn set_up() -> usize {
    let registry = all_experiments();
    let apps = apps::build();
    for app in &apps {
        std::hint::black_box(app.default_config());
    }
    registry.len()
}

/// The registry's order for this run: the seed is the workload generator's
/// only freedom, since the paper fixes every campaign's own inputs.
fn order(seed: u64, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64(state);
        idx.swap(i, (state % (i as u64 + 1)) as usize);
    }
    idx
}

/// Run the workload. In a traced run every second pass records a span per
/// experiment.
pub fn run(cfg: &RunConfig, traced_run: bool) -> CampaignOutcome {
    let mut m = Meter::new(traced_run);
    // Set-up repetitions are spread over the passes, so that they see the
    // host's whole run, not its first 30 ms.
    let mut setup_reps_s = Vec::new();

    let experiments = all_experiments();
    let order = order(cfg.derive(5_000), experiments.len());
    let ctx = RunCtx::quick(true);
    let passes_wanted = cfg.rounds_or(cfg.scaled(PASSES).max(2));
    let started = Instant::now();
    let mut passes = Vec::with_capacity(passes_wanted);
    for pass in 0..passes_wanted {
        let on = traced_run && pass % 2 == 1;
        m.tracer.set_on(on);
        let span = m.tracer.begin("bench.pass", pass as u64);
        let mut samples: Vec<Option<ExperimentSample>> = vec![None; experiments.len()];
        for &e in &order {
            let exp = &experiments[e];
            if !traced_run && (e + pass) % SETUP_STRIDE == 0 {
                let t0 = Instant::now();
                std::hint::black_box(set_up());
                setup_reps_s.push(t0.elapsed().as_secs_f64());
            }
            let id = m.tracer.begin("repro.experiment", e as u64);
            let cpu0 = host::process_cpu_seconds();
            let t0 = Instant::now();
            let report = exp.run(&ctx);
            let wall_s = t0.elapsed().as_secs_f64();
            let cpu_s = host::process_cpu_seconds() - cpu0;
            m.tracer.end(id);
            m.attempted += 1;
            m.trials += 1;
            m.fresh_evals += 1;
            samples[e] = Some(ExperimentSample {
                id: exp.id(),
                wall_s,
                cpu_s,
                ok: report.all_ok(),
            });
        }
        m.tracer.end(span);
        passes.push(
            samples
                .into_iter()
                .map(|s| s.expect("every experiment ran"))
                .collect(),
        );
    }
    let wall_s = started.elapsed().as_secs_f64();
    m.tracer.set_on(false);

    for (e, exp) in experiments.iter().enumerate() {
        let ok_everywhere = passes.iter().all(|p: &Vec<ExperimentSample>| p[e].ok);
        let expected = !(cfg.corrupt_expectation && e == 0);
        m.check_eq(
            format!(
                "{}: every checked finding matches the paper's shape",
                exp.id()
            ),
            expected,
            ok_everywhere,
        );
    }
    CampaignOutcome {
        setup_reps_s,
        passes,
        meter: m,
        wall_s,
    }
}

/// Per experiment, the fast end over the passes: `(id, wall_s, cpu_s)`.
pub fn fastest(out: &CampaignOutcome) -> Vec<(&'static str, f64, f64)> {
    (0..out.passes[0].len())
        .map(|e| {
            let over_passes = |f: fn(&ExperimentSample) -> f64| {
                fast_end(&out.passes.iter().map(|p| f(&p[e])).collect::<Vec<_>>())
            };
            (
                out.passes[0][e].id,
                over_passes(|s| s.wall_s),
                over_passes(|s| s.cpu_s),
            )
        })
        .collect()
}

/// End-to-end metrics. `campaign_s` is one pass: the sum over experiments of
/// each one's fast end. One registry experiment is the trial, and the
/// per-trial pair are means of the campaign totals, so that they carry no
/// noise of their own.
pub fn end_to_end(out: &CampaignOutcome) -> Rows {
    let fastest = fastest(out);
    let n = fastest.len() as f64;
    let campaign_s: f64 = fastest.iter().map(|f| f.1).sum();
    let cpu_s: f64 = fastest.iter().map(|f| f.2).sum();
    end_to_end_rows(
        &out.setup_reps_s,
        campaign_s,
        campaign_s / n * 1e6,
        cpu_s / n * 1e6,
        &out.meter,
    )
}

#[cfg(test)]
mod tests {
    use super::order;

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = order(7, 15);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<_>>());
        assert_eq!(a, order(7, 15));
        assert_ne!(a, order(8, 15));
    }
}
