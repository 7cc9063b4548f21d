//! `repro space`: inspect and benchmark the search-space compiler.
//!
//! ```text
//! repro space stats       --space NAME [--json PATH]
//! repro space fingerprint --space NAME [--json PATH]
//! repro space bench       --space NAME [--points N] [--chunk N]
//!                         [--max-seconds S] [--json PATH]
//! repro space list
//! ```
//!
//! The named spaces are synthetic stand-ins for the paper's production
//! search spaces (GS2's layout × decomposition space is quoted at O(10^100)
//! points): `synth-1e9` and `chain-1e9` both have a 10^9-point raw product
//! crossed with chain/sum constraints, far beyond anything the strategies
//! could enumerate eagerly. `bench` is the CLI face of the space-compiler
//! claim — it compiles the space, then streams the first `--points` valid
//! points through the chunked cursor API with O(chunk) memory, and fails
//! (exit 1) if the whole thing takes longer than `--max-seconds`. CI runs
//! it on every space `list` names and archives each `--json` stats.

use ah_core::constraint::{MonotoneChain, SumBound};
use ah_core::space::SearchSpace;
use ah_core::space_compile::{CompiledSpace, SpaceCursor};
use ah_core::store::space_fingerprint;
use ah_core::telemetry::{Counter, Telemetry};
use std::time::Instant;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> u64 {
    flag_value(args, flag)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects a non-negative integer, got `{v}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(default)
}

/// Names of the built-in synthetic spaces, with one-line descriptions.
pub fn registry() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "synth-1e9",
            "9 dims × 10 values (10^9 raw); chain over p0..p3, sum bound over p4..p6",
        ),
        (
            "chain-1e9",
            "5 dims × 64 values (~1.07×10^9 raw); one monotone chain over all dims",
        ),
        (
            "grid-1e6",
            "3 dims × 100 values (10^6 raw); unconstrained control case",
        ),
    ]
}

/// Build a named synthetic space; `None` for unknown names.
pub fn build(name: &str) -> Option<SearchSpace> {
    let space = match name {
        "synth-1e9" => {
            let mut b = SearchSpace::builder();
            for d in 0..9 {
                b = b.int(format!("p{d}"), 0, 9, 1);
            }
            b.constraint(MonotoneChain::new(["p0", "p1", "p2", "p3"]))
                .constraint(SumBound::new(["p4", "p5", "p6"], 6.0, 18.0))
                .build()
        }
        "chain-1e9" => {
            let mut b = SearchSpace::builder();
            for d in 0..5 {
                b = b.int(format!("c{d}"), 0, 63, 1);
            }
            b.constraint(MonotoneChain::new(["c0", "c1", "c2", "c3", "c4"]))
                .build()
        }
        "grid-1e6" => SearchSpace::builder()
            .int("x", 0, 99, 1)
            .int("y", 0, 99, 1)
            .int("z", 0, 99, 1)
            .build(),
        _ => return None,
    };
    Some(space.expect("synthetic spaces are well-formed"))
}

fn resolve(args: &[String]) -> (String, CompiledSpace, Telemetry) {
    let name = flag_value(args, "--space").unwrap_or_else(|| {
        eprintln!("repro space requires --space NAME; try `repro space list`");
        std::process::exit(2);
    });
    let Some(space) = build(&name) else {
        eprintln!("unknown space `{name}`; try `repro space list`");
        std::process::exit(2);
    };
    let telemetry = Telemetry::enabled();
    let compiled = CompiledSpace::compile_with(&space, telemetry.clone()).unwrap_or_else(|e| {
        eprintln!("cannot compile `{name}`: {e}");
        std::process::exit(2);
    });
    (name, compiled, telemetry)
}

fn emit(args: &[String], blob: &serde_json::Value, human: &str) -> i32 {
    if let Some(path) = flag_value(args, "--json") {
        let pretty = serde_json::to_string_pretty(blob).expect("stats serialize");
        std::fs::write(&path, format!("{pretty}\n")).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }
    println!("{human}");
    0
}

/// `repro space list`: the built-in synthetic spaces.
fn list() -> i32 {
    for (name, what) in registry() {
        println!("{name:12} {what}");
    }
    0
}

/// `repro space stats`: compile and report what propagation found.
fn stats(args: &[String]) -> i32 {
    let (name, cs, _) = resolve(args);
    let s = cs.stats();
    let count = cs.count_valid_bounded(u64::MAX, 10_000_000);
    let blob = serde_json::json!({
        "space": name,
        "dims": s.dims,
        "constraints": s.constraints,
        "compiled_constraints": s.compiled_constraints,
        "points_raw": s.points_raw,
        "log10_points_raw": s.log10_points_raw,
        "points_box": s.points_box,
        "points_pruned_by_propagation": s.points_pruned_by_propagation,
        "pinned_dims": s.pinned_dims,
        "propagation_rounds": s.propagation_rounds,
        "provably_empty": s.provably_empty,
        "compile_micros": s.compile_micros,
        "valid_points": count.lower_bound(),
        "valid_points_exact": count.is_exact(),
    });
    let human = format!(
        "space {name}\n  dims               {}\n  constraints        {} ({} compiled)\n  \
         raw points         {} (10^{:.1})\n  after propagation  {}\n  pruned by bounds   {}\n  \
         pinned dims        {}\n  provably empty     {}\n  valid points       {}{}\n  \
         compile time       {} µs",
        s.dims,
        s.constraints,
        s.compiled_constraints,
        s.points_raw,
        s.log10_points_raw,
        s.points_box,
        s.points_pruned_by_propagation,
        s.pinned_dims,
        s.provably_empty,
        if count.is_exact() { "" } else { ">= " },
        count.lower_bound(),
        s.compile_micros,
    );
    emit(args, &blob, &human)
}

/// `repro space fingerprint`: the store-keying fingerprint of the space.
fn fingerprint(args: &[String]) -> i32 {
    let (name, cs, _) = resolve(args);
    let fp = space_fingerprint(cs.space());
    let blob = serde_json::json!({ "space": name, "fingerprint": format!("{fp:016x}") });
    emit(
        args,
        &blob,
        &format!("space {name}\n  fingerprint {fp:016x}"),
    )
}

/// `repro space bench`: compile, then stream the first `--points` valid
/// points through the chunked cursor API; exit 1 past `--max-seconds`.
fn bench(args: &[String], quick: bool) -> i32 {
    let (name, cs, telemetry) = resolve(args);
    let default_points = if quick { 100_000 } else { 1_000_000 };
    let target = parse_u64(args, "--points", default_points);
    let chunk = parse_u64(args, "--chunk", 65_536).max(1) as usize;
    let max_seconds = parse_u64(args, "--max-seconds", 0);

    let started = Instant::now();
    let mut streamed: u64 = 0;
    let mut chunks: u64 = 0;
    let mut cursor = Some(SpaceCursor::default());
    let mut verified = false;
    while streamed < target {
        let Some(cur) = cursor else { break };
        let want = chunk.min((target - streamed) as usize);
        let (points, next) = cs.next_chunk(&cur, want).expect("fresh/returned cursors");
        if !verified {
            // Sanity on the first chunk only: everything streamed must be
            // valid by the uncompiled predicate.
            for cfg in &points {
                assert!(cs.space().is_valid(cfg), "compiled stream leaked {cfg}");
            }
            verified = true;
        }
        streamed += points.len() as u64;
        chunks += 1;
        cursor = next;
    }
    let stream_micros = started.elapsed().as_micros() as u64;
    let exhausted = cursor.is_none();

    let s = cs.stats();
    let points_per_sec = if stream_micros == 0 {
        streamed as f64
    } else {
        streamed as f64 * 1e6 / stream_micros as f64
    };
    let wall_seconds = (s.compile_micros + stream_micros) as f64 / 1e6;
    let within_bound = max_seconds == 0 || wall_seconds <= max_seconds as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let blob = serde_json::json!({
        "host": crate::bench_server::host_block(cores),
        "space": name,
        "dims": s.dims,
        "constraints": s.constraints,
        "points_raw": s.points_raw,
        "log10_points_raw": s.log10_points_raw,
        "points_box": s.points_box,
        "compile_micros": s.compile_micros,
        "points_streamed": streamed,
        "stream_exhausted_space": exhausted,
        "stream_micros": stream_micros,
        "points_per_sec": points_per_sec,
        "chunks": chunks,
        "chunk_size": chunk,
        "points_pruned": telemetry.counter(Counter::SpacePointsPruned),
        "chunks_enumerated": telemetry.counter(Counter::SpaceChunksEnumerated),
        "wall_seconds": wall_seconds,
        "max_seconds": max_seconds,
        "within_bound": within_bound,
    });
    let human = format!(
        "space {name}: raw 10^{:.1} points, compiled in {} µs\n  streamed {streamed} valid \
         points in {:.2} s ({:.0} points/s, {chunks} chunks of {chunk})\n  pruned {} lattice \
         points (propagation + subtree skips)",
        s.log10_points_raw,
        s.compile_micros,
        stream_micros as f64 / 1e6,
        points_per_sec,
        telemetry.counter(Counter::SpacePointsPruned),
    );
    let code = emit(args, &blob, &human);
    if code != 0 {
        return code;
    }
    if !within_bound {
        eprintln!(
            "FAIL: compile+stream took {wall_seconds:.2} s, bound was {max_seconds} s \
             (the space compiler is supposed to make 10^9-point spaces interactive)"
        );
        return 1;
    }
    0
}

/// Dispatch `repro space <subcommand>`; returns the process exit code.
pub fn run(args: &[String], quick: bool) -> i32 {
    let sub = args
        .iter()
        .skip_while(|a| a.as_str() != "space")
        .nth(1)
        .cloned()
        .unwrap_or_default();
    match sub.as_str() {
        "list" => list(),
        "stats" => stats(args),
        "fingerprint" => fingerprint(args),
        "bench" => bench(args, quick),
        other => {
            eprintln!(
                "unknown space subcommand `{other}`; expected list | stats | fingerprint | bench"
            );
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_core::space_compile::FeasibleCount;

    #[test]
    fn registry_spaces_all_compile() {
        for (name, _) in registry() {
            let space = build(name).unwrap();
            let cs = CompiledSpace::compile(&space).unwrap();
            assert!(!cs.stats().provably_empty, "{name}");
        }
        assert!(build("nope").is_none());
    }

    #[test]
    fn synth_1e9_is_a_billion_points_raw() {
        let cs = CompiledSpace::compile(&build("synth-1e9").unwrap()).unwrap();
        assert_eq!(cs.stats().points_raw, 1_000_000_000);
        let cs = CompiledSpace::compile(&build("chain-1e9").unwrap()).unwrap();
        assert_eq!(cs.stats().points_raw, 1_073_741_824);
        // C(64+4, 5): non-decreasing 5-tuples over 64 values.
        assert_eq!(cs.count_valid(), FeasibleCount::Exact(10_424_128));
    }

    #[test]
    fn bench_streams_and_writes_json() {
        let out = std::env::temp_dir().join(format!("ah-space-bench-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&out);
        let args: Vec<String> = [
            "space",
            "bench",
            "--space",
            "synth-1e9",
            "--points",
            "20000",
            "--chunk",
            "4096",
            "--max-seconds",
            "60",
            "--json",
            out.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(run(&args, true), 0);
        let blob: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(blob["points_streamed"].as_u64(), Some(20_000));
        assert_eq!(blob["space"].as_str(), Some("synth-1e9"));
        assert!(blob["points_pruned"].as_u64().unwrap() > 0);
        for key in ["cores", "cpu_model", "kernel", "commit"] {
            assert!(blob["host"].get(key).is_some(), "host block lacks {key}");
        }
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn stats_and_fingerprint_subcommands_work() {
        let args: Vec<String> = ["space", "stats", "--space", "chain-1e9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(run(&args, true), 0);
        let args: Vec<String> = ["space", "fingerprint", "--space", "grid-1e6"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(run(&args, true), 0);
        let args: Vec<String> = ["space", "list"].iter().map(|s| s.to_string()).collect();
        assert_eq!(run(&args, true), 0);
        let args: Vec<String> = ["space", "bogus"].iter().map(|s| s.to_string()).collect();
        assert_eq!(run(&args, true), 2);
    }
}
