//! End-to-end smoke runs of every paper experiment in quick mode.
//!
//! Each experiment exercises the full stack — application model, machine
//! simulator, Harmony search, report rendering — on a shrunken workload.
//! The full-scale shapes are validated by `repro all` (see EXPERIMENTS.md);
//! here we assert that every experiment runs, renders, and produces
//! structurally sane reports.

use ah_repro::{all_experiments, RunCtx};

#[test]
fn every_experiment_runs_in_quick_mode_and_renders() {
    let temp = std::env::temp_dir();
    for e in all_experiments() {
        let report = e.run(&RunCtx::quick(true));
        assert_eq!(report.id, e.id());
        assert!(!report.narrative.is_empty(), "{} has no narrative", e.id());
        assert!(!report.findings.is_empty(), "{} has no findings", e.id());
        let rendered = report.render();
        assert!(rendered.contains(e.id()));
        assert!(
            report.all_ok(),
            "experiment {} mismatched in quick mode:\n{rendered}",
            e.id()
        );
        // The JSON payload must serialize (the CLI dumps it), and must not
        // name a scratch file: the reports are compared byte for byte
        // across invocations.
        let blob = serde_json::to_string(&report).expect("report serializes");
        assert!(blob.len() > 2);
        assert!(
            !blob.contains(&*temp.to_string_lossy()),
            "{} names the temporary directory {}",
            e.id(),
            temp.display()
        );
    }
    // No throwaway store outlives its run.
    let leftover = format!("ah-warmstart-{}", std::process::id());
    for entry in std::fs::read_dir(&temp).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(
            !name.to_string_lossy().starts_with(&leftover),
            "{name:?} was left behind"
        );
    }
}

#[test]
fn experiment_registry_covers_every_paper_artifact() {
    let ids: Vec<&str> = all_experiments().iter().map(|e| e.id()).collect();
    for required in [
        "fig2b",
        "petsc_sles_large",
        "fig3",
        "petsc_snes_large",
        "fig4",
        "table1",
        "table2",
        "fig5",
        "gs2_headline",
        "gs2_combined",
        "table3",
        "table4",
        "fig6",
        "fault",
        "warmstart",
    ] {
        assert!(ids.contains(&required), "missing experiment {required}");
    }
}

#[test]
fn experiments_are_deterministic() {
    // Same seed-driven pipeline ⇒ identical JSON payloads run-to-run.
    let ctx = RunCtx::quick(true);
    let a = ah_repro::experiment::by_id("fig2b").unwrap().run(&ctx);
    let b = ah_repro::experiment::by_id("fig2b").unwrap().run(&ctx);
    assert_eq!(
        serde_json::to_string(&a.data).unwrap(),
        serde_json::to_string(&b.data).unwrap()
    );
}
