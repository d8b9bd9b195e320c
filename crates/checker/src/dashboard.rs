//! Campaign dashboards: one merged text view over many telemetry
//! streams.
//!
//! A sharded campaign leaves behind one JSONL WAL per scenario shard
//! (see DESIGN.md §13). This module folds any number of those streams
//! into a single [`Dashboard`] — per-scenario outcome grid across
//! shards, coverage ratios, a per-pass wall-time profile (from the
//! `pass_start`/`pass_end` timing records), a deterministic per-pass
//! cost profile, the slowest scenarios, and pruning effectiveness — and
//! renders it as text (`scan --dashboard`).
//!
//! Totals come from `run_end` records only, each read back as its
//! shard's [`OutcomeFold`] and merged with [`OutcomeFold::merge`] — the
//! rule [`merge_reports`](crate::campaign::merge_reports) applies, so
//! dashboard totals agree with the merged report. Summing `exec_done`
//! lines instead would double-count derivation-spine executions, which
//! run in every shard but are *counted* only by their owner. A resumed
//! WAL holds several `run_start`/`run_end` pairs for the same shard:
//! the last `run_end` wins (it covers the whole run, replayed prefix
//! included), while pass wall times accumulate across resumes
//! (wall-clock actually spent). `run_end` carries no coverage sets, so
//! the merged count of distinct crash points exercised is a lower bound
//! (the most any one shard proved on its own).

use crate::explore::CheckReport;
use crate::fold::OutcomeFold;
use crate::metrics::PassMetrics;
use crate::profile::{bar, pct};
use crate::telemetry::{parse_exec_done, parse_run_end, str_field, u64_field};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One scenario's view across every ingested stream.
#[derive(Debug, Clone, Default)]
pub struct ScenarioDash {
    /// The last `run_end` per shard label (`"-"` for unsharded runs),
    /// read back as a partial report of that shard's totals.
    pub shards: BTreeMap<String, CheckReport>,
    /// Summed `pass_end` wall time per `(rank, pass name)`.
    pub pass_wall_us: BTreeMap<(u64, String), u64>,
    /// `exec_done` records folded once per canonical job key: the
    /// per-pass cost rows. Keying dedupes derivation-spine executions,
    /// which appear in every shard's stream with identical statistics,
    /// so the rows match what an unsharded run's profile reports.
    costs: OutcomeFold,
    seen: BTreeSet<(u8, u64)>,
}

impl ScenarioDash {
    /// The shards' totals, merged.
    pub fn merged(&self) -> CheckReport {
        let mut fold = OutcomeFold::default();
        for shard in self.shards.values() {
            fold.merge(shard);
        }
        fold.report
    }

    /// Whether every shard of this scenario passed.
    pub fn passed(&self) -> bool {
        self.shards.values().all(|s| s.outcomes.failures() == 0)
    }
}

/// A campaign-wide merge of telemetry streams.
#[derive(Debug, Clone, Default)]
pub struct Dashboard {
    /// Scenarios by name.
    pub scenarios: BTreeMap<String, ScenarioDash>,
    /// Streams ingested.
    pub streams: u64,
    /// Unparseable lines skipped across all streams (torn WAL tails).
    pub torn_lines: u64,
}

impl Dashboard {
    /// Folds one JSONL telemetry stream into the dashboard.
    ///
    /// `scenario_hint` overrides the per-record scenario stamp as the
    /// grouping key — pass the registry name when ingesting a per-
    /// scenario WAL file (mutant variants share their base harness's
    /// human name, and the file name is what disambiguates them).
    /// Tolerant like the WAL parser: torn lines are counted, not fatal.
    pub fn ingest(&mut self, scenario_hint: Option<&str>, text: &str) {
        self.streams += 1;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(Value::Object(map)) = serde_json::from_str(line) else {
                self.torn_lines += 1;
                continue;
            };
            let Some(ty) = str_field(&map, "type") else {
                self.torn_lines += 1;
                continue;
            };
            let Some(scenario) = scenario_hint.or_else(|| str_field(&map, "scenario")) else {
                continue;
            };
            if !matches!(ty, "run_end" | "pass_end" | "exec_done") {
                continue;
            }
            let dash = self.scenarios.entry(scenario.to_string()).or_default();
            match ty {
                "run_end" => {
                    let shard = str_field(&map, "shard").unwrap_or("-");
                    // Last run_end per shard wins (resume appends runs).
                    dash.shards.insert(shard.to_string(), parse_run_end(&map));
                }
                "pass_end" => {
                    let Some(pass) = str_field(&map, "pass") else {
                        continue;
                    };
                    let key = (u64_field(&map, "rank").unwrap_or(0), pass.to_string());
                    *dash.pass_wall_us.entry(key).or_insert(0) +=
                        u64_field(&map, "duration_us").unwrap_or(0);
                }
                "exec_done" => {
                    if let Some(rec) = parse_exec_done(&map) {
                        if dash.seen.insert(rec.key) {
                            dash.costs.record(rec);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Campaign-wide totals: every scenario's merged shards, merged.
    pub fn totals(&self) -> CheckReport {
        let mut fold = OutcomeFold::default();
        for s in self.scenarios.values() {
            fold.merge(&s.merged());
        }
        fold.report
    }

    /// Per-pass wall profile summed over every scenario, rank order.
    pub fn pass_profile(&self) -> Vec<(String, u64)> {
        let mut acc: BTreeMap<(u64, String), u64> = BTreeMap::new();
        for s in self.scenarios.values() {
            for ((rank, pass), us) in &s.pass_wall_us {
                *acc.entry((*rank, pass.clone())).or_insert(0) += us;
            }
        }
        acc.into_iter().map(|((_, p), us)| (p, us)).collect()
    }

    /// Per-pass deterministic cost rows over every scenario's
    /// deduplicated `exec_done` records, rank order.
    pub fn cost_profile(&self) -> Vec<PassMetrics> {
        let mut fold = OutcomeFold::default();
        for s in self.scenarios.values() {
            fold.merge(&s.costs.report);
        }
        fold.report.per_pass
    }
}

/// Renders the merged campaign dashboard as text.
pub fn render_dashboard(d: &Dashboard) -> String {
    let mut out = String::new();
    let totals = d.totals();
    let (execs, steps) = (totals.executions, totals.total_steps);
    let cxs = totals.outcomes.failures();
    let failing = d.scenarios.values().filter(|s| !s.passed()).count();
    writeln!(out, "CAMPAIGN DASHBOARD").unwrap();
    writeln!(
        out,
        "  {} scenarios from {} streams — {execs} executions, {steps} steps, {cxs} counterexamples in {} failing scenarios",
        d.scenarios.len(),
        d.streams,
        failing
    )
    .unwrap();
    if d.torn_lines > 0 {
        writeln!(out, "  ({} torn lines skipped)", d.torn_lines).unwrap();
    }
    out.push('\n');

    let name_w = d
        .scenarios
        .keys()
        .map(|n| n.len())
        .max()
        .unwrap_or(8)
        .max(8);
    // Crash coverage uses the same unit `render_failure()` reports:
    // absolute grant counts from the start of the execution, not
    // per-pass offsets.
    writeln!(
        out,
        "  outcome grid ('.' shard passed, 'X' failed, '!' incomplete; \
         crash a/b = absolute-grant-count crash points exercised/enumerable, \
         fault c/d = fault plans):"
    )
    .unwrap();
    for (name, s) in &d.scenarios {
        let grid: String = s
            .shards
            .values()
            .map(|run| {
                if run.outcomes.failures() > 0 {
                    'X'
                } else if !run.incomplete.is_empty() {
                    '!'
                } else {
                    '.'
                }
            })
            .collect();
        let m = s.merged();
        let cov = format!(
            "crash {}/{} fault {}/{}",
            m.coverage.crash_points_exercised,
            m.coverage.crash_points_enumerable,
            m.coverage.fault_plans_exercised(),
            m.coverage.fault_plans_enumerable(),
        );
        writeln!(
            out,
            "    {name:<name_w$}  [{grid:<4}]  {:>7} execs  {:>9} steps  {:>2} cx  {cov}",
            m.executions,
            m.total_steps,
            m.outcomes.failures(),
        )
        .unwrap();
    }
    out.push('\n');

    let profile = d.pass_profile();
    let total_us: u64 = profile.iter().map(|(_, us)| *us).sum();
    if total_us > 0 {
        writeln!(out, "  per-pass wall profile:").unwrap();
        for (pass, us) in &profile {
            writeln!(
                out,
                "    {pass:<18} {:>9.3}s  {} {}",
                *us as f64 / 1e6,
                pct(*us, total_us),
                bar(*us, total_us, 24),
            )
            .unwrap();
        }
        out.push('\n');
    }

    let costs = d.cost_profile();
    let cost_steps: u64 = costs.iter().map(|r| r.steps).sum();
    if cost_steps > 0 {
        writeln!(out, "  profile (deterministic cost per pass):").unwrap();
        for r in &costs {
            writeln!(
                out,
                "    {:<18} {:>7} execs {:>10} steps  {} {}  ({} crashes, {} blocks, {} disk ops, {} net msgs)",
                r.pass,
                r.executions,
                r.steps,
                pct(r.steps, cost_steps),
                bar(r.steps, cost_steps, 24),
                r.crashes,
                r.lock_blocks,
                r.disk_ops,
                r.net_msgs,
            )
            .unwrap();
        }
        out.push('\n');
    }

    let mut slowest: Vec<(&String, f64)> = d
        .scenarios
        .iter()
        .map(|(n, s)| (n, s.merged().wall_time.as_secs_f64()))
        .collect();
    slowest.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    writeln!(out, "  slowest scenarios:").unwrap();
    for (name, wall) in slowest.iter().take(5) {
        writeln!(out, "    {wall:>8.3}s  {name}").unwrap();
    }
    out.push('\n');

    // Pruning is a per-scenario session counter (max across shards); the
    // campaign line sums it over scenarios, like every other total.
    let pruned: u64 = d.scenarios.values().map(|s| s.merged().pruned).sum();
    writeln!(
        out,
        "  pruning: {pruned} schedules pruned; {} executions replayed from WALs",
        totals.replayed
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_end_line(scenario: &str, shard: &str, execs: u64, passed: bool) -> String {
        format!(
            concat!(
                "{{\"type\": \"run_end\", \"scenario\": {s:?}, \"shard\": {sh:?}, ",
                "\"passed\": {p}, \"executions\": {e}, \"total_steps\": {st}, ",
                "\"counterexamples\": {cx}, \"crashes_injected\": 3, ",
                "\"outcomes\": {{\"ok\": {ok}, \"violation\": {cx}, \"ub\": 0, ",
                "\"bug\": 0, \"deadlock\": 0, \"final_check_failed\": 0, ",
                "\"wedged\": 0, \"harness_panic\": 0}}, ",
                "\"crash_points_exercised\": 4, \"crash_points_enumerable\": 8, ",
                "\"pruned\": 7, \"replayed\": 2, \"wall_time_s\": 0.25, ",
                "\"incomplete\": []}}"
            ),
            s = scenario,
            sh = shard,
            p = passed,
            e = execs,
            st = execs * 10,
            ok = execs - u64::from(!passed),
            cx = u64::from(!passed),
        )
    }

    #[test]
    fn shard_totals_sum_and_enumerables_max() {
        let mut d = Dashboard::default();
        d.ingest(None, &run_end_line("s", "0/2", 100, true));
        d.ingest(None, &run_end_line("s", "1/2", 50, false));
        let s = &d.scenarios["s"];
        let m = s.merged();
        assert_eq!(m.executions, 150);
        assert_eq!(m.total_steps, 1500);
        assert_eq!(m.outcomes.failures(), 1);
        assert_eq!(m.coverage.crash_points_enumerable, 8);
        assert_eq!(m.coverage.crash_points_exercised, 4, "a lower bound");
        assert_eq!(m.pruned, 7, "spine counters agree across shards: max");
        assert_eq!(m.replayed, 4);
        assert!(!s.passed());
        let t = d.totals();
        assert_eq!((t.executions, t.total_steps), (150, 1500));
    }

    #[test]
    fn resumed_wal_keeps_only_the_last_run_end_per_shard() {
        let mut d = Dashboard::default();
        let text = format!(
            "{}\n{}\n",
            run_end_line("s", "0/2", 10, false),
            run_end_line("s", "0/2", 100, true),
        );
        d.ingest(None, &text);
        assert_eq!(d.scenarios["s"].merged().executions, 100);
        assert!(d.scenarios["s"].passed());
    }

    #[test]
    fn pass_wall_profile_accumulates_and_hint_overrides_stamp() {
        let mut d = Dashboard::default();
        let text = concat!(
            "{\"type\": \"pass_end\", \"scenario\": \"base\", \"pass\": \"dfs\", \"rank\": 0, \"duration_us\": 100}\n",
            "{\"type\": \"pass_end\", \"scenario\": \"base\", \"pass\": \"dfs\", \"rank\": 0, \"duration_us\": 50}\n",
            "not json at all\n",
        );
        d.ingest(Some("mutant/skip-flush"), text);
        assert_eq!(d.torn_lines, 1);
        let s = &d.scenarios["mutant/skip-flush"];
        assert_eq!(s.pass_wall_us[&(0, "dfs".to_string())], 150);
        assert_eq!(d.pass_profile(), vec![("dfs".to_string(), 150)]);
    }

    fn exec_done_line(scenario: &str, pass: &str, index: u64, steps: u64) -> String {
        format!(
            concat!(
                "{{\"type\": \"exec_done\", \"scenario\": {s:?}, \"pass\": {p:?}, ",
                "\"index\": {i}, \"outcome\": \"ok\", \"steps\": {st}, \"crashes\": 1, ",
                "\"lock_blocks\": 2, \"disk_ops\": 3, \"net_msgs\": 4, ",
                "\"trace_fp\": \"0x0000000000000001\"}}"
            ),
            s = scenario,
            p = pass,
            i = index,
            st = steps,
        )
    }

    #[test]
    fn cost_profile_dedupes_spine_executions_across_shards() {
        let mut d = Dashboard::default();
        // The same dfs execution appears in both shard streams (spine);
        // a second distinct execution appears once.
        let text = format!(
            "{}\n{}\n{}\n",
            exec_done_line("s", "dfs", 0, 10),
            exec_done_line("s", "dfs", 0, 10),
            exec_done_line("s", "dfs", 1, 20),
        );
        d.ingest(None, &text);
        let costs = d.cost_profile();
        assert_eq!(costs.len(), 1);
        let r = &costs[0];
        assert_eq!(r.pass, "dfs");
        assert_eq!(r.executions, 2, "duplicate (rank, index) must collapse");
        assert_eq!(r.steps, 30);
        assert_eq!(
            (r.crashes, r.lock_blocks, r.disk_ops, r.net_msgs),
            (2, 4, 6, 8)
        );
        let text = render_dashboard(&d);
        assert!(
            text.contains("profile (deterministic cost per pass)"),
            "{text}"
        );
    }

    #[test]
    fn render_mentions_every_scenario_and_the_profile() {
        let mut d = Dashboard::default();
        d.ingest(None, &run_end_line("alpha", "0/1", 10, true));
        d.ingest(
            None,
            concat!(
                "{\"type\": \"pass_end\", \"scenario\": \"alpha\", ",
                "\"pass\": \"crash-sweep\", \"rank\": 3, \"duration_us\": 2000}\n"
            ),
        );
        let text = render_dashboard(&d);
        assert!(text.contains("CAMPAIGN DASHBOARD"), "{text}");
        assert!(text.contains("alpha"), "{text}");
        assert!(text.contains("crash-sweep"), "{text}");
        assert!(text.contains("slowest scenarios"), "{text}");
    }
}
