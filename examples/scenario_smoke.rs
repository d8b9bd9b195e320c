//! Scenario smoke run: enumerate every registered expected-pass scenario
//! and check it under the quick configuration. This is the CI smoke
//! gate — fast, deterministic, and covering every system in the
//! workspace through the unified [`perennial_checker::ScenarioSet`] API.
//!
//! Run with: `cargo run --release --example scenario_smoke`
//! (optionally pass a name fragment to filter, e.g. `-- kv/`, and/or
//! `--faults` to also run the fault-injection sweeps: torn writes,
//! transient I/O errors, disk failures, and net faults; `--strategy
//! exhaustive|dpor|coverage` picks the schedule-phase exploration
//! strategy, DESIGN.md §12). Observability flags: `--telemetry PATH`
//! appends every scenario's JSONL event stream to one file (the CI
//! artifact), `--summary` prints the full per-scenario metrics block
//! instead of just the verdict line, and `--trace-out DIR` writes a
//! Chrome trace-event JSON (Perfetto-loadable, DESIGN.md §14) for each
//! failing scenario's counterexample.
//!
//! Campaign robustness flags (DESIGN.md §13): `--shard I/N` runs only
//! this process's deterministic slice of every scenario's job space;
//! `--resume PATH` replays completed executions from a previous run's
//! telemetry stream (pass the same file to `--telemetry` to also
//! extend it, making the run resumable in turn).

use perennial_bench::args::{apply_strategy, flag, value, Cli};
use perennial_checker::{
    chrome_trace_json, parse_shard, render_summary, verdict_line, CheckConfig, Pass, TelemetrySink,
};
use perennial_suite::all_scenarios;

const CLI: Cli = Cli {
    name: "scenario_smoke",
    usage: "\
usage: scenario_smoke [NAME-FRAGMENT] [--faults] [--summary] [--telemetry PATH]
                      [--strategy exhaustive|dpor|coverage] [--shard I/N]
                      [--resume PATH] [--trace-out DIR]
",
    spec: &[
        flag("--faults"),
        flag("--summary"),
        value("--telemetry"),
        value("--strategy"),
        value("--shard"),
        value("--resume"),
        value("--trace-out"),
    ],
};

fn main() {
    let args = CLI.parse();
    if let [_, stray, ..] = args.positionals() {
        CLI.usage_error(format!("unexpected argument {stray:?}"));
    }
    let filter = args.positionals().first().cloned().unwrap_or_default();
    let faults = args.flag("--faults");
    let summary = args.flag("--summary");
    let telemetry_path = args.value("--telemetry");
    let shard = args
        .value("--shard")
        .map(|s| parse_shard(s).unwrap_or_else(|e| CLI.usage_error(e)));
    let resume = args.value("--resume");
    let trace_out = args.value("--trace-out").map(|d| {
        let dir = std::path::PathBuf::from(d);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| CLI.fail(format!("creating {dir:?}: {e}")));
        dir
    });

    let mut builder = CheckConfig::builder()
        .seed(0)
        .dfs_max_executions(200)
        .random_samples(10)
        .random_crash_samples(20)
        .without_passes([Pass::NestedCrash])
        .shard_opt(shard);
    if let Some(path) = resume {
        builder = builder.resume_from(path);
    }
    builder = apply_strategy(builder, args.value("--strategy").unwrap_or("exhaustive"))
        .unwrap_or_else(|e| CLI.usage_error(e));
    if faults {
        builder = builder.with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault]);
    }
    if let Some(path) = telemetry_path {
        // One shared sink: every scenario appends to the same JSONL
        // stream, distinguished by the `scenario` field on each record.
        // When resuming from this same file, append instead of
        // truncating — the existing records are the WAL being replayed.
        let sink = if resume == Some(path) {
            TelemetrySink::append_file(path)
        } else {
            TelemetrySink::to_file(path)
        }
        .unwrap_or_else(|e| CLI.fail(format!("opening telemetry file {path}: {e}")));
        builder = builder.telemetry(sink);
    }
    let cfg = builder.build();

    let registry = all_scenarios();
    println!(
        "Smoke-checking {} scenarios ({} workers{})…",
        registry.len(),
        cfg.effective_workers(),
        if faults { ", fault sweeps on" } else { "" }
    );

    let mut failed = 0usize;
    let mut replayed = 0u64;
    for scenario in &registry {
        if !scenario.name().contains(&filter) {
            continue;
        }
        let report = scenario.run(&cfg);
        replayed += report.replayed;
        if summary {
            println!("{}", render_summary(&report));
        } else {
            println!("  {}", verdict_line(&report));
        }
        if !report.passed() {
            failed += 1;
            if let Some(text) = perennial_checker::render_failure(&report) {
                eprintln!("{text}");
            }
            if let (Some(dir), Some(timeline)) = (
                &trace_out,
                report
                    .counterexample
                    .as_ref()
                    .and_then(|cx| cx.timeline.as_ref()),
            ) {
                let path = dir.join(format!("{}.trace.json", scenario.name().replace('/', "__")));
                let json = chrome_trace_json(timeline, scenario.name());
                std::fs::write(&path, serde_json::to_string_pretty(&json).unwrap())
                    .unwrap_or_else(|e| CLI.fail(format!("writing {path:?}: {e}")));
                println!("  (chrome trace written to {})", path.display());
            }
        }
    }

    if replayed > 0 {
        println!("({replayed} executions replayed from the resume WAL)");
    }
    if failed > 0 {
        eprintln!("{failed} scenario(s) failed");
        std::process::exit(1);
    }
    println!("All scenarios passed.");
}
