//! Parallel-explorer scaling driver.
//!
//! Usage: `cargo run --release -p perennial-bench --bin scale -- \
//!           [scenario-name] [worker counts…] [--json FILE] \
//!           [--shard I/N] [--resume WAL] \
//!           [--baseline BENCH_scale.json [--diff]]`
//!
//! Defaults to `patterns/wal` over pool sizes 1 2 4 8, measuring two
//! passes per pool size: pure schedule exploration (crash sweeps) and
//! fault-sweep exploration (torn writes, transient I/O, disk/net fault
//! plans), plus the checkpoint/resume cost of writing and replaying
//! the telemetry WAL (`--resume` overrides the log path). `--shard I/N`
//! scopes the scaling series to one deterministic campaign slice
//! (DESIGN.md §13). `--json` writes a `BENCH_*.json`-style record with
//! every series, stamped with a schema version and an environment block
//! (rustc, crate version, workers, strategy). `--baseline FILE` diffs
//! this run against a committed record (rows matched by worker count,
//! so a 1/2-worker CI run can diff against a full 1/2/4/8 baseline);
//! with `--diff` the exit code is 1 when a regression is flagged. The
//! acceptance targets on an 8-core machine: ≥3x execs/sec at 8 workers
//! vs 1, and WAL overhead < 5% of a cold run.

use perennial_bench::args::{flag, value, ArgSpec, Cli};
use perennial_bench::perf::{diff_scale, render_diff, Thresholds, SCALE_SCHEMA_VERSION};
use perennial_bench::scale::{
    median_ratio, render_reduction, render_resume, render_scale, run_reduction, run_resume,
    run_scale, ReductionRow, ResumeRow, ScaleRow,
};
use perennial_checker::{parse_shard, CheckConfig, EnvStamp, Pass, ScenarioSet};

const USAGE: &str = "\
usage: scale [SCENARIO] [WORKER-COUNT...] [--json FILE] [--shard I/N]
             [--resume WAL] [--baseline BENCH_scale.json [--diff]]
";

const SPEC: &[ArgSpec] = &[
    value("--json"),
    value("--shard"),
    value("--resume"),
    value("--baseline"),
    flag("--diff"),
];

const CLI: Cli = Cli {
    name: "scale",
    usage: USAGE,
    spec: SPEC,
};

fn registry() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    set.extend(perennial_kv::scenarios());
    set.extend(repldisk::harness::scenarios());
    set.extend(mailboat::scenarios());
    set.extend(crash_patterns::scenarios());
    set
}

fn mutant_registry() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    set.extend(perennial_kv::mutant_scenarios());
    set.extend(repldisk::harness::mutant_scenarios());
    set.extend(mailboat::mutant_scenarios());
    set.extend(crash_patterns::mutant_scenarios());
    set
}

fn rows_json(rows: &[ScaleRow]) -> serde_json::Value {
    serde_json::Value::Array(
        rows.iter()
            .map(|r| {
                serde_json::json!({
                    "workers": r.workers,
                    "executions": r.executions,
                    "fault_plans": r.fault_plans,
                    "wall_time_s": r.wall_time.as_secs_f64(),
                    "execs_per_sec": r.execs_per_sec,
                    "speedup": r.speedup,
                    "ok": r.outcomes.ok,
                    "failures": r.outcomes.failures(),
                    "crash_points_exercised": r.coverage.crash_points_exercised,
                    "crash_points_enumerable": r.coverage.crash_points_enumerable,
                    "fault_plans_exercised": r.coverage.fault_plans_exercised(),
                    "fault_plans_enumerable": r.coverage.fault_plans_enumerable(),
                    "distinct_traces": r.coverage.distinct_traces,
                })
            })
            .collect(),
    )
}

fn reduction_json(rows: &[ReductionRow]) -> serde_json::Value {
    let cell = |c: &perennial_bench::scale::StrategyCell| {
        serde_json::json!({
            "executions": c.executions,
            "pruned": c.pruned,
            "coverage_guided": c.guided,
            "counterexample_pass": c.fingerprint.as_ref().map(|(p, _)| p.clone()),
            "trace_fingerprint": c.fingerprint.as_ref().map(|(_, fp)| *fp),
        })
    };
    serde_json::json!({
        "mutants": rows.iter().map(|r| serde_json::json!({
            "scenario": r.scenario,
            "exhaustive": cell(&r.exhaustive),
            "sleep_set_dpor": cell(&r.dpor),
            "coverage_guided": cell(&r.coverage),
            "dpor_ratio": r.dpor_ratio(),
            "coverage_ratio": r.coverage_ratio(),
            "fingerprints_agree": r.fingerprints_agree(),
        })).collect::<Vec<_>>(),
        "median_dpor_ratio": median_ratio(rows, ReductionRow::dpor_ratio),
        "median_coverage_ratio": median_ratio(rows, ReductionRow::coverage_ratio),
    })
}

fn resume_json(row: &ResumeRow) -> serde_json::Value {
    serde_json::json!({
        "executions": row.executions,
        "cold_wall_time_s": row.cold.as_secs_f64(),
        "walled_wall_time_s": row.walled.as_secs_f64(),
        "resumed_wall_time_s": row.resumed.as_secs_f64(),
        "replayed": row.replayed,
        "wal_overhead": row.overhead(),
        "resume_speedup": row.resume_speedup(),
        "fingerprints_match": row.fingerprints_match,
    })
}

fn main() {
    let args = CLI.parse();
    let json_path = args.value("--json").map(String::from);
    // `--shard I/N`: measure one deterministic slice of the job space
    // (applied to both scaling configs; the reduction table stays
    // unsharded — executions-to-counterexample is a whole-space metric).
    let shard = args
        .value("--shard")
        .map(|s| parse_shard(s).unwrap_or_else(|e| CLI.usage_error(e)));
    // `--resume PATH`: use PATH as the WAL for the checkpoint/resume
    // cost measurement (default: a file in the system temp dir).
    let resume_wal = args.value("--resume").map(std::path::PathBuf::from);
    let baseline_path = args.value("--baseline").map(String::from);
    let strict_diff = args.flag("--diff");
    if strict_diff && baseline_path.is_none() {
        CLI.usage_error("--diff needs --baseline FILE");
    }
    let mut positional = args.positionals().iter();
    let name = positional
        .next()
        .cloned()
        .unwrap_or_else(|| "patterns/wal".to_string());
    let mut counts: Vec<usize> = positional
        .map(|a| match a.parse() {
            Ok(n) if n > 0 => n,
            _ => CLI.usage_error(format!("bad worker count {a:?}")),
        })
        .collect();
    if counts.is_empty() {
        counts = vec![1, 2, 4, 8];
    }

    let registry = registry();
    let Some(scenario) = registry.get(&name) else {
        CLI.usage_error(format!(
            "unknown scenario {name:?}; registered names:\n  {}",
            registry.names().join("\n  ")
        ));
    };

    // A deliberately heavy config: the nested crash sweep gives the pool
    // thousands of independent executions to chew on.
    let cfg = CheckConfig::builder()
        .dfs_max_executions(500)
        .random_samples(100)
        .random_crash_samples(200)
        .max_steps(200_000)
        .shard_opt(shard)
        .build();
    // The fault pass swaps the nested sweep for the fault sweeps, so the
    // execs/sec figure tracks fault-plan exploration throughput.
    let fault_cfg = CheckConfig::builder()
        .dfs_max_executions(500)
        .random_samples(100)
        .random_crash_samples(200)
        .without_passes([Pass::NestedCrash])
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .max_steps(200_000)
        .shard_opt(shard)
        .build();

    println!(
        "(host reports {} available cores)\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let rows = run_scale(scenario, &cfg, &counts);
    print!("{}", render_scale(scenario.name(), &rows));
    let fault_rows = run_scale(scenario, &fault_cfg, &counts);
    println!();
    print!(
        "{}",
        render_scale(&format!("{} (fault sweeps)", scenario.name()), &fault_rows)
    );

    // Strategy reduction: executions-to-counterexample on every
    // registered mutant, exhaustive vs DPOR vs coverage-guided. All
    // three strategies get the same generous schedule budget (the
    // passes run in rank order, so a crash- or fault-swept bug pays
    // for the whole schedule phase first); the reduced strategies must
    // reach an equivalent counterexample spending far less of it. The
    // fault sweeps are on because three registered mutants are only
    // reachable through them.
    let reduction_cfg = CheckConfig::builder()
        .dfs_max_executions(2000)
        .random_samples(500)
        .random_crash_samples(100)
        .without_passes([Pass::NestedCrash])
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .max_steps(200_000)
        .workers(1)
        .build();
    let reduction = run_reduction(&mutant_registry(), &reduction_cfg);
    println!();
    print!("{}", render_reduction(&reduction));

    // Checkpoint/resume cost on the fault config (the heavier per-exec
    // telemetry records). Acceptance: WAL overhead < 5% of a cold run.
    let wal = resume_wal.unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "perennial-scale-resume-{}.jsonl",
            std::process::id()
        ))
    });
    let resume = run_resume(scenario, &fault_cfg, &wal, 3);
    println!();
    print!("{}", render_resume(scenario.name(), &resume));

    // The environment stamp records the conditions the numbers were
    // measured under; the differ warns when they changed.
    let env = EnvStamp::current(
        counts.iter().copied().max().unwrap_or(1) as u64,
        "exhaustive",
    );
    let record = serde_json::json!({
        "schema_version": SCALE_SCHEMA_VERSION,
        "scenario": scenario.name(),
        "env": env.to_json(),
        "schedule_exploration": rows_json(&rows),
        "fault_exploration": rows_json(&fault_rows),
        "strategy_reduction": reduction_json(&reduction),
        "resume_overhead": resume_json(&resume),
    });
    if let Some(path) = &json_path {
        std::fs::write(path, serde_json::to_string_pretty(&record).unwrap())
            .unwrap_or_else(|e| CLI.fail(format!("writing {path}: {e}")));
        println!("\n(machine-readable record written to {path})");
    }

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| CLI.fail(format!("reading baseline {path}: {e}")));
        let baseline = serde_json::from_str(&text)
            .unwrap_or_else(|e| CLI.fail(format!("parsing baseline {path}: {e}")));
        let diff = diff_scale(&baseline, &record, &Thresholds::default())
            .unwrap_or_else(|e| CLI.fail(format!("diffing against {path}: {e}")));
        println!();
        print!("{}", render_diff(&diff));
        if strict_diff && diff.regressed() {
            std::process::exit(1);
        }
    }
}
