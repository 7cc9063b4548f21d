//! `ah-benchmark`: the one command.
//!
//! With `--workload` it runs that workload in this process and prints, as
//! its last line, the result object `BENCHMARK.json`'s contract asks for.
//! Without it, it runs every workload, each in a child process of its own,
//! untraced and then traced. With `--aa N` it runs the untraced suite 2·N
//! times as two interleaved sets and judges whether they agree.

use ah_benchmark::aa;
use ah_benchmark::harness::{RunConfig, REFERENCE_SECONDS};
use ah_benchmark::host;
use ah_benchmark::metrics::{self, WORKLOADS};
use ah_benchmark::run::{self, RunReport};
use serde_json::{json, Value};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 2006;

const USAGE: &str = "\
usage: ah-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                    [--rounds N] [--scratch-dir DIR] [--corrupt-expectation]
       ah-benchmark --aa N [--seed N] [--seconds S]

  --workload NAME   tcp-serial | store-cold | store-warm | inproc-search |
                    campaign-paper; without it every workload runs, each in
                    its own child process, untraced and then traced
  --seed N          drives the workload generator (default 2006)
  --seconds S       sizes the fixed work: the steady state lasts about S
                    seconds on the reference host (default 10)
  --trace 0|1       0: end-to-end metrics; 1: per-layer metrics and a trace
  --rounds N        override the round count (smoke runs, tests)
  --scratch-dir DIR where store and log files go (default: out/scratch
                    inside the benchmark's directory)
  --corrupt-expectation  corrupt one expected value; the run must fail
  --aa N            run the untraced suite 2N times as two interleaved sets";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    rounds: Option<usize>,
    scratch: Option<PathBuf>,
    corrupt: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: REFERENCE_SECONDS,
        trace: None,
        rounds: None,
        scratch: None,
        corrupt: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read `{v}`"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = num(&flag, value()?)?,
            "--seconds" => args.seconds = num(&flag, value()?)?,
            "--trace" => args.trace = Some(num::<u8>(&flag, value()?)? != 0),
            "--rounds" => args.rounds = Some(num(&flag, value()?)?),
            "--scratch-dir" => args.scratch = Some(PathBuf::from(value()?)),
            "--corrupt-expectation" => args.corrupt = true,
            "--aa" => args.aa = Some(num(&flag, value()?)?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// `out/` inside the benchmark's own directory: traces, history, A/A.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn metrics_object(report: &RunReport) -> Value {
    Value::Object(
        report
            .metrics
            .iter()
            .map(|(m, v)| (m.name.clone(), json!({"value": *v, "unit": m.unit})))
            .collect(),
    )
}

fn print_report(report: &RunReport, host_block: &Value, args: &Args) {
    println!(
        "# ah-benchmark {} seed={} seconds={} trace={}",
        report.workload,
        args.seed,
        args.seconds,
        u8::from(report.traced)
    );
    println!(
        "host: {}",
        serde_json::to_string(host_block).expect("host block serializes")
    );
    if host_block["comparable"].as_bool() != Some(true) {
        println!("WARNING: not pinned to one CPU with one malloc arena; this run is not comparable with runs that are");
    }
    println!(
        "estimators: {}",
        serde_json::to_string(&run::estimator_settings()).expect("settings serialize")
    );
    println!(
        "rounds={} setup_repetitions={} latency_samples={}",
        report.rounds, report.setup_repetitions, report.rtt_samples
    );
    println!("{:<44} {:>22} {:<6} better", "metric", "value", "unit");
    for (m, v) in &report.metrics {
        println!("{:<44} {:>22} {:<6} {}", m.name, v, m.unit, m.better.word());
    }
    for (name, v, unit) in &report.extras {
        println!("{:<44} {:>22} {:<6} (diagnostic)", name, v, unit);
    }
    let failed: Vec<_> = report.checks.iter().filter(|c| !c.passed).collect();
    println!(
        "checks: {} passed, {} failed; calls: {} attempted, {} failed",
        report.checks.len() - failed.len(),
        failed.len(),
        report.attempted,
        report.failed
    );
    for c in failed {
        println!("CHECK FAILED: {}: {}", c.name, c.detail);
    }
}

fn append_history(report: &RunReport, host_block: &Value, args: &Args) -> std::io::Result<()> {
    let line = json!({
        "unix_time": std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        "workload": report.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": report.traced,
        "rounds": report.rounds,
        "setup_repetitions": report.setup_repetitions,
        "host": host_block.clone(),
        "estimators": run::estimator_settings(),
        "correct": report.correct(),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics_object(report),
        "diagnostics": Value::Object(
            report.extras.iter().map(|(n, v, u)| (n.clone(), json!({"value": *v, "unit": *u}))).collect()
        ),
    });
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir().join("history.jsonl"))?;
    writeln!(
        file,
        "{}",
        serde_json::to_string(&line).expect("history line serializes")
    )
}

/// Run one workload in this process; the last line printed is the result.
fn run_one(
    workload: &str,
    args: &Args,
    pinned_cpu: i32,
    single_arena: bool,
) -> Result<bool, String> {
    let out = out_dir();
    let scratch = args
        .scratch
        .clone()
        .unwrap_or_else(|| out.join("scratch"))
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    // The registry experiments put their throwaway stores under the
    // system's temporary directory; keep those inside the scratch directory.
    std::env::set_var("TMPDIR", &scratch);
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        rounds: args.rounds,
        scratch: scratch.clone(),
        corrupt_expectation: args.corrupt,
    };
    let host_block = {
        let mut block = host::describe(pinned_cpu, single_arena, &scratch);
        if let Value::Object(fields) = &mut block {
            fields.push(("seed".into(), json!(args.seed)));
        }
        block
    };
    let report = run::run(workload, &cfg, args.trace.unwrap_or(false), &out);
    let _ = std::fs::remove_dir_all(&scratch);
    let report = report?;
    print_report(&report, &host_block, args);
    append_history(&report, &host_block, args).map_err(|e| format!("append history: {e}"))?;
    let result = json!({
        "correct": report.correct(),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics_object(&report),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    Ok(report.correct())
}

/// Run one workload in a child process and return its result object.
fn run_child(
    workload: &str,
    seed: u64,
    args: &Args,
    trace: bool,
    echo: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if let Some(r) = args.rounds {
        cmd.args(["--rounds", &r.to_string()]);
    }
    if let Some(dir) = &args.scratch {
        cmd.arg("--scratch-dir").arg(dir);
    }
    if args.corrupt {
        cmd.arg("--corrupt-expectation");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{text}");
    }
    let last = text.lines().last().unwrap_or("");
    let result = serde_json::parse(last)
        .map_err(|_| format!("{workload}: no result line (exit {})", output.status))?;
    if !output.status.success() || result["correct"].as_bool() != Some(true) {
        return Err(format!(
            "{workload} (trace={}) failed: exit {}",
            u8::from(trace),
            output.status
        ));
    }
    Ok(result)
}

fn run_suite(args: &Args) -> bool {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            if args.trace.is_some_and(|t| t != trace) {
                continue;
            }
            if let Err(e) = run_child(workload, args.seed, args, trace, true) {
                eprintln!("ah-benchmark: {e}");
                ok = false;
            }
            println!();
        }
    }
    println!(
        "suite: {}",
        if ok { "every check passed" } else { "FAILED" }
    );
    ok
}

fn run_aa(n: usize, args: &Args, pinned_cpu: i32, single_arena: bool) -> Result<bool, String> {
    let table = metrics::end_to_end();
    // values[set][workload][metric] -> one value per repetition.
    let mut values = vec![vec![vec![Vec::<f64>::new(); table.len()]; WORKLOADS.len()]; 2];
    for rep in 0..n {
        for set in 0..2 {
            for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
                let seed = args.seed + rep as u64;
                eprintln!(
                    "aa: repetition {} of {n}, set {}, {workload}, seed {seed}",
                    rep + 1,
                    ["A", "B"][set]
                );
                let result = run_child(workload, seed, args, false, false)?;
                for (k, m) in table.iter().enumerate() {
                    let v = result["metrics"][m.name.as_str()]["value"]
                        .as_f64()
                        .ok_or_else(|| format!("{workload}: no {}", m.name))?;
                    values[set][w][k].push(v);
                }
            }
        }
    }
    let mut pairs = Vec::new();
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        for (k, m) in table.iter().enumerate() {
            pairs.push(aa::judge(workload, m, &values[0][w][k], &values[1][w][k]));
        }
    }
    let all_within = pairs.iter().all(|p| p.within);
    let table_md = aa::markdown(&pairs);
    println!("{table_md}");
    println!(
        "aa: {}",
        if all_within {
            "every pair within its bound"
        } else {
            "SOME PAIR EXCEEDS ITS BOUND"
        }
    );
    let doc = json!({
        "repetitions_per_set": n,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host::describe(pinned_cpu, single_arena, &out_dir()),
        "within_bounds": all_within,
        "pairs": pairs.iter().map(|p| json!({
            "workload": p.workload,
            "metric": p.metric.name,
            "unit": p.metric.unit,
            "bound": p.metric.bound,
            "set_a_quartiles": p.a.to_vec(),
            "set_b_quartiles": p.b.to_vec(),
            "spread": p.spread,
            "medians_differ_by": p.worse_by,
            "within": p.within,
        })).collect::<Vec<_>>(),
    });
    let out = out_dir();
    std::fs::write(
        out.join("aa.json"),
        serde_json::to_string_pretty(&doc).expect("aa serializes") + "\n",
    )
    .and_then(|()| std::fs::write(out.join("aa.md"), table_md))
    .map_err(|e| format!("write A/A result: {e}"))?;
    Ok(all_within)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("ah-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before anything spawns: every thread and child inherits the mask.
    let pinned_cpu = host::pin_to_last_allowed_cpu();
    let single_arena = host::single_malloc_arena();
    if pinned_cpu < 0 {
        eprintln!("ah-benchmark: WARNING: could not pin to one CPU; running unpinned (host.pinned_cpu = -1)");
    }
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("ah-benchmark: create {}: {e}", out_dir().display());
        return ExitCode::from(2);
    }
    let ok = match (&args.aa, &args.workload) {
        (Some(n), _) => run_aa((*n).max(2), &args, pinned_cpu, single_arena),
        (None, Some(workload)) => run_one(workload, &args, pinned_cpu, single_arena),
        (None, None) => Ok(run_suite(&args)),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ah-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
