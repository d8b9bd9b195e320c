//! The causal-trace layer's side-channel contract (DESIGN.md §14):
//! capturing an execution trace must not change what the checker finds
//! — the counterexample and the report fingerprint are identical with
//! capture off or on, at any worker count — and the consumers built on
//! it (explain timelines, Chrome-trace export, campaign dashboards) are
//! pure functions of deterministic inputs.

use perennial_checker::{
    chrome_trace_json, merge_reports, render_explain, render_failure, report_fingerprint,
    CheckConfig, CheckConfigBuilder, Counterexample, Dashboard, FaultPlan, Pass, PassMetrics,
    TelemetrySink,
};
use perennial_suite::{all_mutant_scenarios, all_scenarios};
use serde_json::Value;

fn base_cfg() -> CheckConfigBuilder {
    CheckConfig::builder()
        .seed(7)
        .dfs_max_executions(300)
        .random_samples(10)
        .random_crash_samples(25)
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .without_passes([Pass::NestedCrash])
        .max_steps(200_000)
}

fn fingerprint(cx: &Counterexample) -> (String, u64, Vec<usize>, Vec<u64>, u64, FaultPlan) {
    (
        cx.pass.to_string(),
        cx.index,
        cx.schedule_prefix.clone(),
        cx.crash_points.clone(),
        cx.seed,
        cx.faults.clone(),
    )
}

/// Trace capture {off, on} x workers {1, 8}: same counterexample, same
/// report fingerprint. The only difference capture makes is that the
/// counterexample carries a timeline.
#[test]
fn trace_capture_is_fingerprint_neutral() {
    let registry = all_mutant_scenarios();
    let scenario = registry
        .get("repldisk/mutant/zeroing-recovery")
        .expect("registered scenario");
    let mut prints = Vec::new();
    let mut cx_prints = Vec::new();
    for workers in [1usize, 8] {
        for capture in [false, true] {
            let report = scenario.run(&base_cfg().workers(workers).trace_capture(capture).build());
            let cx = report.counterexample.as_ref().unwrap_or_else(|| {
                panic!("mutant not caught (workers={workers}, capture={capture})")
            });
            assert_eq!(
                cx.timeline.is_some(),
                capture,
                "timeline present iff capture on (workers={workers})"
            );
            prints.push(report_fingerprint(&report));
            cx_prints.push(fingerprint(cx));
        }
    }
    prints.dedup();
    cx_prints.dedup();
    assert_eq!(prints.len(), 1, "report varies with capture or workers");
    assert_eq!(cx_prints.len(), 1, "cx varies with capture or workers");
}

/// Every registered mutant's failure report embeds the causal explain
/// timeline — the acceptance bar for the explain consumer.
#[test]
fn every_mutant_failure_report_includes_the_explain_timeline() {
    for scenario in &all_mutant_scenarios() {
        let report = scenario.run(&base_cfg().build());
        let cx = report
            .counterexample
            .as_ref()
            .unwrap_or_else(|| panic!("{}: mutant not caught", scenario.name()));
        let timeline = cx
            .timeline
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no timeline captured", scenario.name()));
        assert!(
            !timeline.events.is_empty(),
            "{}: empty trace",
            scenario.name()
        );
        let text = render_failure(&report)
            .unwrap_or_else(|| panic!("{}: no failure report", scenario.name()));
        assert!(
            text.contains("Causal explain timeline:"),
            "{}: failure report lacks the explain section:\n{text}",
            scenario.name()
        );
    }
}

/// The explain rendering is a pure function of the (deterministic)
/// trace: workers 1 and 8 produce byte-identical timelines. CI diffs
/// exactly this.
#[test]
fn explain_timeline_is_identical_across_worker_counts() {
    let registry = all_mutant_scenarios();
    let scenario = registry
        .get("kv/mutant/in-place")
        .expect("registered scenario");
    let texts: Vec<String> = [1usize, 8]
        .iter()
        .map(|&workers| {
            let report = scenario.run(&base_cfg().workers(workers).build());
            let cx = report.counterexample.expect("mutant caught");
            render_explain(cx.timeline.as_ref().expect("timeline captured"))
        })
        .collect();
    assert_eq!(texts[0], texts[1], "explain output depends on workers");
}

/// The Chrome trace-event export of a real counterexample has the
/// documented shape: a traceEvents array of objects, thread-name
/// metadata first, every event with ph/pid/tid, and flow ("s"/"f")
/// events balanced in pairs.
#[test]
fn chrome_trace_export_of_a_real_counterexample_is_well_formed() {
    let registry = all_mutant_scenarios();
    let scenario = registry
        .get("repldisk/mutant/zeroing-recovery")
        .expect("registered scenario");
    let report = scenario.run(&base_cfg().build());
    let cx = report.counterexample.expect("mutant caught");
    let timeline = cx.timeline.expect("timeline captured");
    let v = chrome_trace_json(&timeline, scenario.name());
    let Value::Object(top) = &v else {
        panic!("export is not an object")
    };
    let Some(Value::Array(events)) = top.get("traceEvents") else {
        panic!("no traceEvents array")
    };
    assert!(events.len() > timeline.events.len(), "metadata + slices");
    let mut starts = 0u64;
    let mut finishes = 0u64;
    for ev in events {
        let Value::Object(m) = ev else {
            panic!("trace event is not an object: {ev:?}")
        };
        for key in ["ph", "name", "pid", "tid"] {
            assert!(m.get(key).is_some(), "missing {key} in {ev:?}");
        }
        match m.get("ph") {
            Some(Value::String(ph)) if ph == "s" => starts += 1,
            Some(Value::String(ph)) if ph == "f" => finishes += 1,
            _ => {}
        }
    }
    assert_eq!(starts, finishes, "unbalanced flow pairs");
    // The serialized file is valid JSON end-to-end.
    let text = serde_json::to_string_pretty(&v).unwrap();
    assert!(serde_json::from_str(&text).is_ok());
}

/// The dashboard's merged totals agree with `merge_reports` over the
/// same sharded campaign: fold each shard's telemetry stream into a
/// `Dashboard` and every total the dashboard prints matches the merged
/// report (both merge shard folds with `OutcomeFold::merge`), while its
/// per-pass cost rows match an unsharded run's profile.
#[test]
fn dashboard_totals_match_merge_reports_over_shards() {
    let registry = all_scenarios();
    let scenario = registry.get("patterns/wal").expect("registered scenario");
    let mut reports = Vec::new();
    let mut dash = Dashboard::default();
    for i in 0..2u32 {
        let (sink, buf) = TelemetrySink::shared_buffer();
        let report = scenario.run(&base_cfg().shard(i, 2).telemetry(sink).build());
        let text = String::from_utf8(buf.lock().clone()).expect("stream is UTF-8");
        dash.ingest(None, &text);
        reports.push(report);
    }
    let merged = merge_reports(reports).expect("shards merge");
    assert_eq!(dash.scenarios.len(), 1, "one scenario across both streams");
    let s = dash.scenarios.values().next().unwrap();
    assert_eq!(s.shards.len(), 2, "both shards ingested");
    let m = s.merged();
    assert_eq!(m.executions, merged.executions);
    assert_eq!(m.total_steps, merged.total_steps);
    assert_eq!(m.crashes_injected, merged.crashes_injected);
    assert_eq!(m.outcomes, merged.outcomes);
    assert_eq!(m.outcomes.failures(), merged.counterexamples.len() as u64);
    let (got, want) = (&m.coverage, &merged.coverage);
    assert_eq!(got.crash_points_enumerable, want.crash_points_enumerable);
    assert_eq!(got.fault_plans_exercised(), want.fault_plans_exercised());
    assert_eq!(got.fault_plans_enumerable(), want.fault_plans_enumerable());
    assert!(want.fault_plans_exercised() > 0, "fault sweeps were on");
    // `run_end` carries no crash-point sets, so the dashboard's distinct
    // crash-point count is a documented lower bound.
    assert!(got.crash_points_exercised > 0);
    assert!(got.crash_points_exercised <= want.crash_points_exercised);
    assert_eq!(m.pruned, merged.pruned);
    assert_eq!(m.replayed, merged.replayed);
    let totals = dash.totals();
    assert_eq!(totals.executions, merged.executions);
    assert_eq!(totals.total_steps, merged.total_steps);
    assert!(s.passed());
    // The pass_start/pass_end timing records fed the wall profile.
    assert!(
        !s.pass_wall_us.is_empty(),
        "no pass_end records in the stream"
    );

    // The cost rows, deduplicated from both shards' exec_done records,
    // are the profile an unsharded run reports (busy time aside).
    let whole = scenario.run(&base_cfg().keep_going(true).profile(true).build());
    let profile = whole.profile.expect("profiling was on");
    let costs = |rows: &[PassMetrics]| -> Vec<_> {
        rows.iter()
            .map(|r| {
                let counts = [r.executions, r.steps, r.crashes, r.failures];
                (
                    r.pass,
                    counts,
                    [r.lock_blocks, r.disk_ops, r.net_msgs, r.model_ops],
                )
            })
            .collect()
    };
    assert_eq!(costs(&dash.cost_profile()), costs(&profile.passes));

    let rendered = perennial_checker::render_dashboard(&dash);
    assert!(rendered.contains("CAMPAIGN DASHBOARD"), "{rendered}");
    assert!(
        rendered.contains(&merged.executions.to_string()),
        "{rendered}"
    );
}

/// Model-op counters flow from the goose runtime all the way into the
/// report and its summary footer.
#[test]
fn model_op_counters_surface_in_the_summary() {
    let registry = all_scenarios();
    let scenario = registry
        .get("repldisk/single-write")
        .expect("registered scenario");
    let report = scenario.run(&base_cfg().build());
    assert!(
        report.disk_writes > 0,
        "a disk scenario records disk writes"
    );
    let text = perennial_checker::render_summary(&report);
    assert!(text.contains("Model ops"), "{text}");
}
