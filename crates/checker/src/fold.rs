//! The one path from "an execution finished" to every number the
//! checker reports.
//!
//! [`ExecStats`] is one execution's deterministic counters: the explorer
//! fills it from the runtime, the `exec_done` telemetry record (which
//! doubles as the campaign WAL entry) serializes it through its one
//! field list, resume replay reads it back, and the dashboard re-reads
//! it from streams.
//!
//! [`OutcomeFold`] is the single accumulator behind
//! [`CheckReport`] and [`Profile`](crate::Profile): `record` folds one
//! counted execution in, and [`OutcomeFold::merge`] folds in another
//! report of the same scenario. The merge rule lives only here — counts of owned executions are disjoint
//! across shards and sum; enumerable horizons and the strategy's session
//! counters are computed identically in every shard and take the max;
//! coverage sets union. `check` folds its canonical records,
//! [`merge_reports`](crate::merge_reports) merges shard reports, and the
//! campaign dashboard merges the reports that `run_end` records carry,
//! all through this type.

use crate::campaign::hex64;
use crate::explore::{CheckReport, Counterexample};
use crate::metrics::{OutcomeKind, PassMetrics};
use crate::pass::Pass;
use crate::profile::ResourceRow;
use crate::strategy::DepTrace;
use goose_rt::fault::FaultPlan;
use serde_json::record;
use std::collections::BTreeMap;
use std::time::Duration;

/// Deterministic counters of one execution: what the runtime measured,
/// what the `exec_done` record carries, and what a resumed run reuses
/// instead of re-running the execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Scheduler grants consumed.
    pub steps: u64,
    /// Schedule decisions taken (deepest schedule depth reached).
    pub depth: u64,
    /// Crashes injected.
    pub crashes: u64,
    /// Operations helped by recovery.
    pub helped: u64,
    /// Times a thread parked on a held model lock.
    pub lock_blocks: u64,
    /// Disk operations consulted against the fault plan.
    pub disk_ops: u64,
    /// Network sends consulted against the fault plan.
    pub net_msgs: u64,
    /// Disk block reads.
    pub disk_reads: u64,
    /// Disk block writes (buffered + write-through).
    pub disk_writes: u64,
    /// Disk flush barriers.
    pub disk_flushes: u64,
    /// Network sends that reached a channel.
    pub net_sends: u64,
    /// Network receives that dequeued a message.
    pub net_recvs: u64,
    /// FNV fingerprint of the execution's ghost trace.
    pub trace_fp: u64,
}

// The `exec_done` fields. Only `steps` and `trace_fp` are required:
// counters a record lacks read as 0, so WALs from earlier builds resume.
record! {
    ExecStats {
        steps, trace_fp with hex64,
        depth or 0, crashes or 0, helped or 0, lock_blocks or 0, disk_ops or 0, net_msgs or 0,
        disk_reads or 0, disk_writes or 0, disk_flushes or 0, net_sends or 0, net_recvs or 0,
    }
}

impl ExecStats {
    /// Model operations folded into one count: block reads, writes and
    /// flushes plus net sends and receives.
    pub fn model_ops(&self) -> u64 {
        self.disk_reads + self.disk_writes + self.disk_flushes + self.net_sends + self.net_recvs
    }
}

/// Which fault surface a plan exercises (coverage accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum FaultFamily {
    /// No fault injected.
    #[default]
    None,
    Disk,
    Torn,
    Net,
}

impl FaultFamily {
    pub(crate) fn of(plan: &FaultPlan) -> Self {
        if !plan.transient_io.is_empty() || plan.disk_fail.is_some() {
            FaultFamily::Disk
        } else if plan.torn.is_some() {
            FaultFamily::Torn
        } else if !plan.net.is_empty() {
            FaultFamily::Net
        } else {
            FaultFamily::None
        }
    }
}

/// One finished (or WAL-replayed) execution: its canonical job key, its
/// counters, and what the strategy, profiler, and report need from it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecRecord {
    /// Canonical job key `(pass rank, index)`.
    pub key: (u8, u64),
    pub pass: Pass,
    /// The per-execution PRNG seed.
    pub seed: u64,
    pub outcome: OutcomeKind,
    pub stats: ExecStats,
    /// Wall time of the execution (zero when replayed).
    pub duration: Duration,
    /// Crash points the execution injected.
    pub crash_points: Vec<u64>,
    pub family: FaultFamily,
    /// Per-lock share of `stats.lock_blocks` (empty when replayed).
    pub lock_profile: Vec<(u64, u64)>,
    /// Full decision path, kept for schedule-phase strategy feedback.
    pub decisions: Vec<(usize, usize)>,
    /// Dependency observations (DPOR-tracked executions only).
    pub deps: Option<DepTrace>,
    pub cx: Option<Counterexample>,
    /// Whether this shard owns the job key. Spine executions run in
    /// every shard but are folded only by their owner, which is what
    /// makes shard reports exactly mergeable.
    pub counted: bool,
}

/// The one accumulator behind every number a check reports. It folds
/// counted executions into the report under construction — totals,
/// outcome counts, histograms, per-pass rows (which double as the
/// profile's per-pass costs), coverage sets and horizons, and
/// counterexamples — plus, when profiling, the contended-resource table.
/// See the module docs for the merge rule.
#[derive(Debug, Clone, Default)]
pub struct OutcomeFold {
    /// The report being accumulated; start from one carrying the run's
    /// identity (name, strategy, shard, environment, pool size).
    pub report: CheckReport,
    /// Contended resources by id — collected only when profiling, since
    /// it costs a pass over every execution's lock profile and footprint.
    pub resources: Option<BTreeMap<u64, ResourceRow>>,
}

impl From<CheckReport> for OutcomeFold {
    fn from(report: CheckReport) -> Self {
        OutcomeFold {
            report,
            resources: None,
        }
    }
}

/// The per-pass row for `pass`, inserted in rank order if absent.
fn pass_row(rows: &mut Vec<PassMetrics>, pass: Pass) -> &mut PassMetrics {
    let at = rows.partition_point(|pm| pm.rank < pass.rank());
    if rows.get(at).is_none_or(|pm| pm.pass != pass) {
        let row = PassMetrics {
            pass,
            rank: pass.rank(),
            ..PassMetrics::default()
        };
        rows.insert(at, row);
    }
    &mut rows[at]
}

impl OutcomeFold {
    /// Folds one counted execution in.
    pub(crate) fn record(&mut self, rec: ExecRecord) {
        let r = &mut self.report;
        let s = &rec.stats;
        let planned = rec.family != FaultFamily::None;
        r.executions += 1;
        r.total_steps += s.steps;
        r.crashes_injected += s.crashes as usize;
        r.crash_points += usize::from(!rec.crash_points.is_empty());
        r.fault_plans += usize::from(planned);
        r.helped_ops += s.helped;
        r.disk_reads += s.disk_reads;
        r.disk_writes += s.disk_writes;
        r.disk_flushes += s.disk_flushes;
        r.net_sends += s.net_sends;
        r.net_recvs += s.net_recvs;
        r.outcomes.record(rec.outcome);
        r.steps_hist.record(s.steps);
        r.depth_hist.record(s.depth);
        r.trace_fps.insert(s.trace_fp);
        r.crash_point_set.extend(&rec.crash_points);
        r.coverage.crash_points_exercised = r.crash_point_set.len() as u64;
        r.coverage.distinct_traces = r.trace_fps.len() as u64;
        match rec.family {
            FaultFamily::Disk => r.coverage.disk_fault_plans_exercised += 1,
            FaultFamily::Torn => r.coverage.torn_plans_exercised += 1,
            FaultFamily::Net => r.coverage.net_plans_exercised += 1,
            FaultFamily::None => {}
        }
        let row = pass_row(&mut r.per_pass, rec.pass);
        row.executions += 1;
        row.steps += s.steps;
        row.crashes += s.crashes;
        row.fault_plans += u64::from(planned);
        row.failures += u64::from(rec.outcome != OutcomeKind::Ok);
        row.lock_blocks += s.lock_blocks;
        row.disk_ops += s.disk_ops;
        row.net_msgs += s.net_msgs;
        row.model_ops += s.model_ops();
        row.busy_us += rec.duration.as_micros() as u64;
        if let Some(resources) = &mut self.resources {
            crate::profile::record_contention(resources, &rec);
        }
        if let Some(cx) = rec.cx {
            let at = r.counterexamples.partition_point(|c| c.key() < cx.key());
            r.counterexamples.insert(at, cx);
        }
    }

    /// Folds another report of the same scenario in (see the module docs
    /// for the rule). Set-backed coverage counts become the size of the
    /// unioned set.
    pub fn merge(&mut self, o: &CheckReport) {
        let r = &mut self.report;
        r.executions += o.executions;
        r.total_steps += o.total_steps;
        r.crashes_injected += o.crashes_injected;
        r.crash_points += o.crash_points;
        r.fault_plans += o.fault_plans;
        r.helped_ops += o.helped_ops;
        r.disk_reads += o.disk_reads;
        r.disk_writes += o.disk_writes;
        r.disk_flushes += o.disk_flushes;
        r.net_sends += o.net_sends;
        r.net_recvs += o.net_recvs;
        r.replayed += o.replayed;
        r.wall_time += o.wall_time;
        r.pruned = r.pruned.max(o.pruned);
        r.coverage_guided = r.coverage_guided.max(o.coverage_guided);
        r.workers = r.workers.max(o.workers);
        r.outcomes.merge(&o.outcomes);
        r.steps_hist.merge(&o.steps_hist);
        r.depth_hist.merge(&o.depth_hist);
        r.coverage.merge(&o.coverage);
        r.crash_point_set.extend(&o.crash_point_set);
        r.trace_fps.extend(&o.trace_fps);
        r.coverage.crash_points_exercised = r.crash_point_set.len() as u64;
        r.coverage.distinct_traces = r.trace_fps.len() as u64;
        for pm in &o.per_pass {
            pass_row(&mut r.per_pass, pm.pass).merge(pm);
        }
        for msg in &o.incomplete {
            if !r.incomplete.contains(msg) {
                r.incomplete.push(msg.clone());
            }
        }
        r.counterexamples.extend(o.counterexamples.iter().cloned());
        r.counterexamples.sort_by_key(Counterexample::key);
    }

    /// Records the strategy session's counters: on the totals, and
    /// attributed to the pass that produced them.
    pub(crate) fn set_session(&mut self, pruned: u64, coverage_guided: u64) {
        self.report.pruned = pruned;
        self.report.coverage_guided = coverage_guided;
        for pm in &mut self.report.per_pass {
            match pm.pass {
                Pass::Dfs => pm.pruned = pruned,
                Pass::Random => pm.coverage_guided = coverage_guided,
                _ => {}
            }
        }
    }

    /// Seals the fold into its report: the canonical counterexample is
    /// the minimum-key one, throughput is executions over wall time, and
    /// the environment stamp names the report's pool size.
    pub fn finish(self) -> CheckReport {
        let mut r = self.report;
        r.counterexample = r.counterexamples.first().cloned();
        r.execs_per_sec = r.executions as f64 / r.wall_time.as_secs_f64().max(1e-9);
        r.env.workers = r.workers as u64;
        r
    }
}
