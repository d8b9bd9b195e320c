//! Human-readable counterexample reports and run summaries.
//!
//! When the checker rejects a system, the raw [`crate::Counterexample`]
//! carries a schedule prefix, crash points, and a ghost trace. This
//! module turns that into the report a developer actually reads: what
//! failed, where the crash was injected, the spec-level history up to
//! the failure, and how to replay it. For *passing* runs,
//! [`render_summary`] renders the deterministic run metrics — outcome
//! histogram, per-pass accounting, step/depth distributions, and
//! coverage ratios — from the [`CheckReport`].

use crate::explore::{CheckReport, ExecOutcome};
use std::fmt::Write as _;

/// Renders the throughput-and-per-pass footer shared by the failure
/// report and the summary: overall rate, then one line per pass.
fn render_pass_breakdown(report: &CheckReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Throughput      : {:.0} execs/s on {} workers ({:.3}s wall)",
        report.execs_per_sec,
        report.workers,
        report.wall_time.as_secs_f64()
    );
    if report.per_pass.is_empty() {
        return out;
    }
    let _ = writeln!(out, "Per pass        :");
    for pm in &report.per_pass {
        let mut extras = String::new();
        if pm.crashes > 0 {
            let _ = write!(extras, ", {} crashes", pm.crashes);
        }
        if pm.fault_plans > 0 {
            let _ = write!(extras, ", {} fault plans", pm.fault_plans);
        }
        if pm.pruned > 0 {
            let _ = write!(extras, ", {} pruned", pm.pruned);
        }
        if pm.coverage_guided > 0 {
            let _ = write!(extras, ", {} guided", pm.coverage_guided);
        }
        if pm.failures > 0 {
            let _ = write!(extras, ", {} FAILURES", pm.failures);
        }
        let _ = writeln!(
            out,
            "  {:<20} {:>6} execs, {:>8} steps{} ({:.3}s busy)",
            pm.pass,
            pm.executions,
            pm.steps,
            extras,
            pm.busy_us as f64 / 1e6
        );
    }
    out
}

/// Renders the full run summary — the passing-run counterpart of
/// [`render_failure`]. Always available (failing runs get the verdict
/// line plus the same metrics); printed by `scenario_smoke --summary`.
pub fn render_summary(report: &CheckReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {}",
        if report.passed() { "PASS" } else { "FAIL" },
        report.name
    );
    let _ = writeln!(
        out,
        "Executions      : {} ({} steps total)",
        report.executions, report.total_steps
    );
    if !report.strategy.is_empty() {
        let mut extras = String::new();
        if report.pruned > 0 {
            let _ = write!(extras, " ({} schedules pruned)", report.pruned);
        }
        if report.coverage_guided > 0 {
            let _ = write!(extras, " ({} coverage-guided)", report.coverage_guided);
        }
        let _ = writeln!(out, "Strategy        : {}{}", report.strategy, extras);
    }
    if report.is_incomplete() {
        let _ = writeln!(out, "INCOMPLETE      : {}", report.incomplete.join("; "));
    }
    if let Some((i, n)) = report.shard {
        let _ = writeln!(out, "Shard           : {i}/{n}");
    }
    if report.replayed > 0 {
        let _ = writeln!(
            out,
            "Resumed         : {} executions replayed from the WAL",
            report.replayed
        );
    }
    let _ = writeln!(out, "Outcomes        : {}", report.outcomes.render());
    let _ = writeln!(out, "Steps/exec      : {}", report.steps_hist.render());
    let _ = writeln!(out, "Schedule depth  : {}", report.depth_hist.render());
    if report.disk_reads + report.disk_writes + report.disk_flushes > 0
        || report.net_sends + report.net_recvs > 0
    {
        let _ = writeln!(
            out,
            "Model ops       : disk {}r/{}w/{}f, net {}s/{}r",
            report.disk_reads,
            report.disk_writes,
            report.disk_flushes,
            report.net_sends,
            report.net_recvs
        );
    }
    out.push_str(&render_pass_breakdown(report));
    let _ = writeln!(out, "Coverage        :");
    out.push_str(&report.coverage.render());
    out
}

/// Renders a full failure report for a scenario, or `None` if every
/// explored execution passed. See `tests/selftest.rs` for an end-to-end
/// example with a real counterexample.
pub fn render_failure(report: &CheckReport) -> Option<String> {
    let cx = report.counterexample.as_ref()?;
    let mut out = String::new();
    let _ = writeln!(out, "VERIFICATION FAILED: {}", report.name);
    let _ = writeln!(out, "{}", describe_outcome(&cx.outcome));
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Found in pass   : {} (execution #{})",
        cx.pass, cx.index
    );
    if cx.crash_points.is_empty() {
        let _ = writeln!(out, "Crash injection : none (crash-free execution)");
    } else {
        // The unit is defined on `Counterexample::crash_points`: absolute
        // grant counts, where an injected crash consumes one count.
        let _ = writeln!(
            out,
            "Crash injection : at absolute grant count(s) {:?} (crash k fires \
             before the (k+1)-th grant; a crash consumes one count)",
            cx.crash_points
        );
    }
    if !cx.faults.is_empty() {
        let _ = writeln!(out, "Fault injection : {}", cx.faults.describe());
    }
    if !cx.schedule_prefix.is_empty() {
        let _ = writeln!(
            out,
            "Schedule prefix : {:?} (choice indices; replay with checker::replay)",
            cx.schedule_prefix
        );
    }
    if !cx.clamped.is_empty() {
        let _ = writeln!(
            out,
            "Schedule note   : DFS prefix clamped at decision depth(s) {:?} — the \
             prefix asked for a choice index beyond the runnable count and was \
             clamped to the last runnable thread",
            cx.clamped
        );
    }
    if let Some(s) = &report.shrink {
        let _ = writeln!(
            out,
            "Shrinking       : removed {} step(s) in {} round(s) over {} re-run(s); \
             the schedule/crash/fault coordinates above are the minimized ones \
             (fingerprint-preserving, DESIGN.md \u{a7}16)",
            s.steps_removed, s.rounds, s.re_runs
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "Spec-level trace up to the failure:");
    if cx.trace.is_empty() {
        let _ = writeln!(out, "  (no ghost events recorded)");
    } else {
        out.push_str(&cx.trace);
    }
    if let Some(timeline) = &cx.timeline {
        let _ = writeln!(out);
        let _ = writeln!(out, "Causal explain timeline:");
        out.push_str(&crate::timeline::render_explain(timeline));
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Explored before failing: {} executions, {} steps, {} injected crashes.",
        report.executions, report.total_steps, report.crashes_injected
    );
    out.push_str(&render_pass_breakdown(report));
    Some(out)
}

/// One-paragraph description of what an outcome means.
pub fn describe_outcome(outcome: &ExecOutcome) -> String {
    match outcome {
        ExecOutcome::Ok => "No failure: the execution satisfied every obligation.".to_string(),
        ExecOutcome::Violation(e) => format!(
            "Ghost capability discipline violated: {e}\n\
             (a Table 1 rule failed — the runtime analog of a proof\n\
             obligation that would not typecheck in Coq)"
        ),
        ExecOutcome::Ub(msg) => format!(
            "Modelled undefined behaviour: {msg}\n\
             (the caller broke a spec precondition — racy shared-memory\n\
             access or iterator invalidation, §6.1 of the paper)"
        ),
        ExecOutcome::Bug(msg) => format!(
            "Plain panic in the code under test: {msg}\n\
             (an assertion or unwrap failed — a bug independent of the\n\
             refinement machinery)"
        ),
        ExecOutcome::Deadlock => "Deadlock: no thread is runnable but work remains \
             (blocked lock cycle)."
            .to_string(),
        ExecOutcome::FinalCheckFailed(msg) => format!(
            "Final-state predicate failed: {msg}\n\
             (the abstraction relation between physical state and\n\
             source(σ) does not hold at quiescence)"
        ),
        ExecOutcome::Wedged(budget) => format!(
            "Wedged: the execution exhausted its step budget of {budget}\n\
             (no progress toward quiescence — a livelock, an unbounded\n\
             retry loop, or a budget set too low for the scenario)"
        ),
        ExecOutcome::HarnessPanic(msg) => format!(
            "Harness panicked outside the modelled execution: {msg}\n\
             (a bug in the scenario's boot/recovery/final-check code, not\n\
             in the code under test; the campaign records it and goes on)"
        ),
    }
}

/// Compact one-line verdict for dashboards. A counterexample found by a
/// fault pass carries its compact fault schedule, e.g.
/// `[disk-fault-sweep @ crash [5] faults d1@5]`.
pub fn verdict_line(report: &CheckReport) -> String {
    match &report.counterexample {
        None => format!("PASS {}", report.summary()),
        Some(cx) => {
            let faults = if cx.faults.is_empty() {
                String::new()
            } else {
                format!(" faults {}", cx.faults.compact())
            };
            format!(
                "FAIL {} [{} @ crash {:?}{}]",
                report.name, cx.pass, cx.crash_points, faults
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{CheckReport, Counterexample, ExecOutcome};
    use crate::pass::Pass;
    use perennial::GhostError;

    fn failing_report() -> CheckReport {
        CheckReport {
            name: "demo scenario".into(),
            executions: 42,
            total_steps: 1234,
            crashes_injected: 7,
            crash_points: 7,
            helped_ops: 1,
            counterexample: Some(Counterexample {
                outcome: ExecOutcome::Violation(GhostError::HelpTokenMissing { key: 3 }),
                pass: Pass::CrashSweep,
                index: 5,
                seed: 0xdead_beef,
                schedule_prefix: vec![0, 1, 0],
                crash_points: vec![5],
                clamped: vec![],
                faults: goose_rt::fault::FaultPlan::default(),
                trace: "  [  0] Invoke { jid: j0, op: Write(3, 9) }\n".into(),
                timeline: None,
            }),
            ..CheckReport::default()
        }
    }

    #[test]
    fn failure_report_contains_the_essentials() {
        let r = failing_report();
        let text = render_failure(&r).expect("has counterexample");
        assert!(text.contains("VERIFICATION FAILED: demo scenario"));
        assert!(text.contains("crash-sweep"));
        assert!(text.contains("at absolute grant count(s) [5]"));
        assert!(!text.contains("at step(s)"), "old misleading unit wording");
        assert!(text.contains("helping token"));
        assert!(text.contains("Invoke"));
        assert!(text.contains("42 executions"));
    }

    #[test]
    fn clamped_dfs_prefix_is_surfaced() {
        let mut r = failing_report();
        let cx = r.counterexample.as_mut().unwrap();
        cx.pass = Pass::Dfs;
        cx.crash_points = vec![];
        cx.clamped = vec![2, 4];
        let text = render_failure(&r).expect("has counterexample");
        assert!(text.contains("clamped at decision depth(s) [2, 4]"));

        // And absent when nothing was clamped.
        let clean = render_failure(&failing_report()).unwrap();
        assert!(!clean.contains("clamped"));
    }

    #[test]
    fn passing_report_renders_nothing() {
        let r = CheckReport {
            name: "clean".into(),
            ..CheckReport::default()
        };
        assert!(render_failure(&r).is_none());
        assert!(verdict_line(&r).starts_with("PASS"));
    }

    #[test]
    fn verdict_line_for_failure() {
        let line = verdict_line(&failing_report());
        assert!(line.starts_with("FAIL demo scenario"));
        assert!(line.contains("crash-sweep"));
        assert!(!line.contains("faults"), "no fault tag without a plan");
    }

    #[test]
    fn verdict_line_carries_compact_fault_summary() {
        let mut r = failing_report();
        let cx = r.counterexample.as_mut().unwrap();
        cx.pass = Pass::DiskFault;
        cx.faults.disk_fail = Some((1, 5));
        let line = verdict_line(&r);
        assert!(line.contains("disk-fault-sweep"), "{line}");
        assert!(line.contains("faults d1@5"), "{line}");
    }

    #[test]
    fn summary_renders_metrics_and_coverage() {
        use crate::metrics::{Coverage, OutcomeKind, PassMetrics};
        let mut r = CheckReport {
            name: "clean".into(),
            executions: 3,
            total_steps: 30,
            workers: 2,
            execs_per_sec: 123.0,
            ..CheckReport::default()
        };
        for _ in 0..3 {
            r.outcomes.record(OutcomeKind::Ok);
            r.steps_hist.record(10);
            r.depth_hist.record(10);
        }
        r.per_pass.push(PassMetrics {
            pass: Pass::CrashSweep,
            rank: 3,
            executions: 3,
            steps: 30,
            crashes: 2,
            ..PassMetrics::default()
        });
        r.coverage = Coverage {
            crash_points_exercised: 2,
            crash_points_enumerable: 10,
            distinct_traces: 3,
            ..Coverage::default()
        };
        let text = render_summary(&r);
        assert!(text.starts_with("PASS: clean"), "{text}");
        assert!(text.contains("ok=3"), "{text}");
        assert!(text.contains("crash-sweep"), "{text}");
        assert!(text.contains("2/10 exercised (20%)"), "{text}");
        assert!(text.contains("3 distinct fingerprints"), "{text}");
        assert!(text.contains("execs/s"), "{text}");
    }

    #[test]
    fn failure_report_embeds_the_explain_timeline_when_captured() {
        use goose_rt::trace::{ExecTrace, TraceEvent, TraceKind};
        let mut r = failing_report();
        r.counterexample.as_mut().unwrap().timeline = Some(ExecTrace {
            events: vec![TraceEvent {
                seq: 0,
                tid: Some(0),
                kind: TraceKind::DiskWrite { tag: 0, block: 3 },
                happens_after: None,
            }],
            threads: vec!["writer".into()],
            truncated: false,
        });
        let text = render_failure(&r).expect("has counterexample");
        assert!(text.contains("Causal explain timeline:"), "{text}");
        assert!(text.contains("disk write b3"), "{text}");

        // And the section is absent entirely when capture was off.
        let plain = render_failure(&failing_report()).unwrap();
        assert!(!plain.contains("Causal explain timeline"), "{plain}");
    }

    #[test]
    fn summary_shows_model_op_counters_only_when_nonzero() {
        let quiet = CheckReport {
            name: "quiet".into(),
            ..CheckReport::default()
        };
        assert!(!render_summary(&quiet).contains("Model ops"));

        let busy = CheckReport {
            name: "busy".into(),
            disk_reads: 4,
            disk_writes: 9,
            disk_flushes: 2,
            net_sends: 5,
            net_recvs: 5,
            ..CheckReport::default()
        };
        let text = render_summary(&busy);
        assert!(
            text.contains("Model ops       : disk 4r/9w/2f, net 5s/5r"),
            "{text}"
        );
    }

    #[test]
    fn failure_report_includes_throughput_footer() {
        let mut r = failing_report();
        r.execs_per_sec = 99.0;
        r.workers = 4;
        let text = render_failure(&r).expect("has counterexample");
        assert!(text.contains("execs/s"), "{text}");
        assert!(text.contains("4 workers"), "{text}");
    }

    #[test]
    fn outcome_descriptions_are_distinct() {
        let outcomes = [
            ExecOutcome::Ok,
            ExecOutcome::Violation(GhostError::HelpTokenMissing { key: 0 }),
            ExecOutcome::Ub("racy write".into()),
            ExecOutcome::Bug("assert failed".into()),
            ExecOutcome::Deadlock,
            ExecOutcome::FinalCheckFailed("AbsR".into()),
            ExecOutcome::Wedged(200_000),
            ExecOutcome::HarnessPanic("boot failed".into()),
        ];
        let descs: Vec<String> = outcomes.iter().map(describe_outcome).collect();
        for (i, a) in descs.iter().enumerate() {
            for b in descs.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
