//! Deterministic run metrics: outcome histograms, per-pass accounting,
//! and coverage ratios.
//!
//! Everything in this module is folded from the explorer's canonical
//! execution records *after* the worker-count-independent cutoff is
//! applied (see [`crate::fold`]), so — with the sole exception of the
//! wall-clock `busy_us` fields — every number here is identical for 1
//! and 8 workers, and identical with telemetry on or off. The live, racy
//! counters that feed the progress line live in [`crate::telemetry`];
//! these are the trustworthy ones that end up in [`crate::CheckReport`].

use crate::explore::ExecOutcome;
use crate::pass::Pass;
use crate::telemetry::u64_field;
use serde_json::{Map, Value};
use std::fmt::Write as _;

/// The eight ways an explored execution can end, as a flat tag (the
/// histogram key; [`ExecOutcome`] carries the full payload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutcomeKind {
    /// Every obligation held ([`ExecOutcome::Ok`]).
    #[default]
    Ok,
    /// Ghost capability rule violated ([`ExecOutcome::Violation`]).
    Violation,
    /// Modelled undefined behaviour ([`ExecOutcome::Ub`]).
    Ub,
    /// Plain panic in the code under test ([`ExecOutcome::Bug`]).
    Bug,
    /// No runnable thread with work left ([`ExecOutcome::Deadlock`]).
    Deadlock,
    /// Final predicate failed ([`ExecOutcome::FinalCheckFailed`]).
    FinalCheckFailed,
    /// Step budget exhausted ([`ExecOutcome::Wedged`]).
    Wedged,
    /// Controller-side hook panicked ([`ExecOutcome::HarnessPanic`]).
    HarnessPanic,
}

impl OutcomeKind {
    /// Classifies a full outcome into its histogram tag.
    pub fn of(outcome: &ExecOutcome) -> Self {
        match outcome {
            ExecOutcome::Ok => OutcomeKind::Ok,
            ExecOutcome::Violation(_) => OutcomeKind::Violation,
            ExecOutcome::Ub(_) => OutcomeKind::Ub,
            ExecOutcome::Bug(_) => OutcomeKind::Bug,
            ExecOutcome::Deadlock => OutcomeKind::Deadlock,
            ExecOutcome::FinalCheckFailed(_) => OutcomeKind::FinalCheckFailed,
            ExecOutcome::Wedged(_) => OutcomeKind::Wedged,
            ExecOutcome::HarnessPanic(_) => OutcomeKind::HarnessPanic,
        }
    }

    /// Stable lowercase name (the JSONL `outcome` field).
    pub fn name(self) -> &'static str {
        match self {
            OutcomeKind::Ok => "ok",
            OutcomeKind::Violation => "violation",
            OutcomeKind::Ub => "ub",
            OutcomeKind::Bug => "bug",
            OutcomeKind::Deadlock => "deadlock",
            OutcomeKind::FinalCheckFailed => "final_check_failed",
            OutcomeKind::Wedged => "wedged",
            OutcomeKind::HarnessPanic => "harness_panic",
        }
    }

    /// Parses a [`OutcomeKind::name`] back (telemetry records).
    pub fn from_name(name: &str) -> Option<Self> {
        [
            OutcomeKind::Ok,
            OutcomeKind::Violation,
            OutcomeKind::Ub,
            OutcomeKind::Bug,
            OutcomeKind::Deadlock,
            OutcomeKind::FinalCheckFailed,
            OutcomeKind::Wedged,
            OutcomeKind::HarnessPanic,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// Counts of executions by [`OutcomeKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Executions with [`OutcomeKind::Ok`].
    pub ok: u64,
    /// Executions with [`OutcomeKind::Violation`].
    pub violation: u64,
    /// Executions with [`OutcomeKind::Ub`].
    pub ub: u64,
    /// Executions with [`OutcomeKind::Bug`].
    pub bug: u64,
    /// Executions with [`OutcomeKind::Deadlock`].
    pub deadlock: u64,
    /// Executions with [`OutcomeKind::FinalCheckFailed`].
    pub final_check_failed: u64,
    /// Executions with [`OutcomeKind::Wedged`].
    pub wedged: u64,
    /// Executions with [`OutcomeKind::HarnessPanic`].
    pub harness_panic: u64,
}

impl OutcomeCounts {
    /// Bumps the bucket for one outcome.
    pub fn record(&mut self, kind: OutcomeKind) {
        match kind {
            OutcomeKind::Ok => self.ok += 1,
            OutcomeKind::Violation => self.violation += 1,
            OutcomeKind::Ub => self.ub += 1,
            OutcomeKind::Bug => self.bug += 1,
            OutcomeKind::Deadlock => self.deadlock += 1,
            OutcomeKind::FinalCheckFailed => self.final_check_failed += 1,
            OutcomeKind::Wedged => self.wedged += 1,
            OutcomeKind::HarnessPanic => self.harness_panic += 1,
        }
    }

    /// Adds another tally into this one (shard-report merging).
    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.ok += other.ok;
        self.violation += other.violation;
        self.ub += other.ub;
        self.bug += other.bug;
        self.deadlock += other.deadlock;
        self.final_check_failed += other.final_check_failed;
        self.wedged += other.wedged;
        self.harness_panic += other.harness_panic;
    }

    /// Total executions recorded.
    pub fn total(&self) -> u64 {
        self.ok + self.failures()
    }

    /// Executions that ended in any non-Ok outcome.
    pub fn failures(&self) -> u64 {
        self.violation
            + self.ub
            + self.bug
            + self.deadlock
            + self.final_check_failed
            + self.wedged
            + self.harness_panic
    }

    /// Serializes the tally as an object keyed by [`OutcomeKind::name`],
    /// zeros included.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        for (name, n) in self.entries() {
            m.insert(name.to_string(), Value::Number(n as f64));
        }
        Value::Object(m)
    }

    /// Reads a tally written by [`OutcomeCounts::to_json`] (`None` when a
    /// bucket is missing).
    pub fn from_json(m: &Map) -> Option<Self> {
        let n = |key: &str| u64_field(m, key);
        Some(OutcomeCounts {
            ok: n("ok")?,
            violation: n("violation")?,
            ub: n("ub")?,
            bug: n("bug")?,
            deadlock: n("deadlock")?,
            final_check_failed: n("final_check_failed")?,
            wedged: n("wedged")?,
            harness_panic: n("harness_panic")?,
        })
    }

    /// `(name, count)` pairs in canonical order, zeros included.
    pub fn entries(&self) -> [(&'static str, u64); 8] {
        [
            ("ok", self.ok),
            ("violation", self.violation),
            ("ub", self.ub),
            ("bug", self.bug),
            ("deadlock", self.deadlock),
            ("final_check_failed", self.final_check_failed),
            ("wedged", self.wedged),
            ("harness_panic", self.harness_panic),
        ]
    }

    /// One-line rendering, omitting zero buckets: `ok=120 deadlock=2`.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .entries()
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(name, n)| format!("{name}={n}"))
            .collect();
        if parts.is_empty() {
            "(none)".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// A power-of-two bucketed histogram of u64 samples (bucket `i` covers
/// `[2^(i-1), 2^i)`, with bucket 0 holding exact zeros). Coarse on
/// purpose: the checker cares about the *shape* of steps-per-execution
/// and schedule-depth distributions, not exact quantiles, and log2
/// buckets merge deterministically and render in a fixed width.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize; // 0 for v == 0
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Merges another histogram into this one — bucket-wise addition,
    /// so merging shard histograms equals the unsharded histogram
    /// (shard-report merging, DESIGN.md §13).
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, n) in other.buckets.iter().enumerate() {
            self.buckets[i] += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Raw bucket counts (index = log2 bucket), for serialization.
    pub fn raw_buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuilds a histogram from its serialized parts.
    pub fn from_parts(buckets: Vec<u64>, count: u64, sum: u64, max: u64) -> Self {
        Histogram {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(bucket_lo, bucket_hi_inclusive, count)` triples for non-empty
    /// buckets, in increasing order.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| match i {
                0 => (0, 0, *n),
                _ => (1u64 << (i - 1), (1u64 << i) - 1, *n),
            })
            .collect()
    }

    /// One-line rendering: `0:3 1:5 2-3:9 4-7:21 (mean 5.2, max 7)`.
    pub fn render(&self) -> String {
        if self.count == 0 {
            return "(empty)".to_string();
        }
        let mut out = String::new();
        for (lo, hi, n) in self.buckets() {
            if !out.is_empty() {
                out.push(' ');
            }
            if lo == hi {
                let _ = write!(out, "{lo}:{n}");
            } else {
                let _ = write!(out, "{lo}-{hi}:{n}");
            }
        }
        let _ = write!(out, " (mean {:.1}, max {})", self.mean(), self.max);
        out
    }
}

/// Accounting for one exploration pass, accumulated over its executions:
/// the report's per-pass rows and the profile's per-pass cost table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassMetrics {
    /// Which pass.
    pub pass: Pass,
    /// Canonical pass rank (the report sort key).
    pub rank: u8,
    /// Executions this pass scheduled (post-cutoff).
    pub executions: u64,
    /// Scheduled steps summed over the pass's executions.
    pub steps: u64,
    /// Crashes injected by the pass.
    pub crashes: u64,
    /// Executions that ran with a non-empty fault plan.
    pub fault_plans: u64,
    /// Executions that ended in a non-Ok outcome.
    pub failures: u64,
    /// Schedules the strategy pruned as redundant (attributed to the
    /// DFS pass; 0 elsewhere and under non-DPOR strategies).
    pub pruned: u64,
    /// Executions re-seeded by coverage feedback (attributed to the
    /// random pass; 0 elsewhere and under non-guided strategies).
    pub coverage_guided: u64,
    /// Times a thread parked on a held model lock.
    pub lock_blocks: u64,
    /// Disk operations consulted against the fault plan.
    pub disk_ops: u64,
    /// Network sends consulted against the fault plan.
    pub net_msgs: u64,
    /// Block reads + writes + flushes + net sends + net receives (the
    /// `SchedStats` model-op accounting, folded).
    pub model_ops: u64,
    /// Summed per-execution wall time across the pass, µs. The one
    /// timing-dependent field in this module: with a pool, passes
    /// overlap on the wall clock, so this is *busy* time, not elapsed.
    pub busy_us: u64,
}

impl PassMetrics {
    /// Adds another row of the same pass into this one (shard merging):
    /// counts sum, the strategy's session counters agree across shards.
    pub fn merge(&mut self, o: &PassMetrics) {
        self.executions += o.executions;
        self.steps += o.steps;
        self.crashes += o.crashes;
        self.fault_plans += o.fault_plans;
        self.failures += o.failures;
        self.pruned = self.pruned.max(o.pruned);
        self.coverage_guided = self.coverage_guided.max(o.coverage_guided);
        self.lock_blocks += o.lock_blocks;
        self.disk_ops += o.disk_ops;
        self.net_msgs += o.net_msgs;
        self.model_ops += o.model_ops;
        self.busy_us += o.busy_us;
    }
}

/// Coverage accounting: how much of each enumerable sweep space the run
/// actually exercised. Ratios stay below 1.0 when a counterexample cut
/// the run short (statistics stop at the winning key) or when a bound
/// (e.g. `dfs_max_executions`) clipped the space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Distinct crash points injected (any pass, nested points counted
    /// individually).
    pub crash_points_exercised: u64,
    /// Crash points the systematic sweep enumerates: the baseline
    /// schedule's horizon (0 when the crash sweep is disabled).
    pub crash_points_enumerable: u64,
    /// Distinct non-empty disk-fault plans executed.
    pub disk_fault_plans_exercised: u64,
    /// Disk-fault plans the sweep enumerates.
    pub disk_fault_plans_enumerable: u64,
    /// Distinct torn-write plans executed.
    pub torn_plans_exercised: u64,
    /// Torn-write plans the sweep enumerates.
    pub torn_plans_enumerable: u64,
    /// Distinct network-fault plans executed.
    pub net_plans_exercised: u64,
    /// Network-fault plans the sweep enumerates.
    pub net_plans_enumerable: u64,
    /// Distinct ghost-trace fingerprints observed across executions — a
    /// proxy for behavioural coverage (two executions with the same
    /// fingerprint drove the spec through the same event sequence).
    pub distinct_traces: u64,
}

impl Coverage {
    /// Folds another run's coverage of the same scenario into this one:
    /// exercised plans are per-execution counts (sum), enumerable
    /// horizons are probe-derived and agree across shards (max), and the
    /// set-backed counts take the larger side — the caller replaces them
    /// with the size of the unioned set when it has the sets.
    pub fn merge(&mut self, o: &Coverage) {
        self.crash_points_exercised = self.crash_points_exercised.max(o.crash_points_exercised);
        self.crash_points_enumerable = self.crash_points_enumerable.max(o.crash_points_enumerable);
        self.disk_fault_plans_exercised += o.disk_fault_plans_exercised;
        self.disk_fault_plans_enumerable = self
            .disk_fault_plans_enumerable
            .max(o.disk_fault_plans_enumerable);
        self.torn_plans_exercised += o.torn_plans_exercised;
        self.torn_plans_enumerable = self.torn_plans_enumerable.max(o.torn_plans_enumerable);
        self.net_plans_exercised += o.net_plans_exercised;
        self.net_plans_enumerable = self.net_plans_enumerable.max(o.net_plans_enumerable);
        self.distinct_traces = self.distinct_traces.max(o.distinct_traces);
    }

    fn ratio(done: u64, total: u64) -> f64 {
        if total == 0 {
            // Nothing enumerable (sweep disabled or no surface): treat
            // as fully covered rather than dividing by zero.
            1.0
        } else {
            done as f64 / total as f64
        }
    }

    /// Crash points exercised over enumerable (1.0 when none are
    /// enumerable).
    pub fn crash_point_ratio(&self) -> f64 {
        Self::ratio(self.crash_points_exercised, self.crash_points_enumerable)
    }

    /// All fault surfaces pooled into one ratio.
    pub fn fault_plan_ratio(&self) -> f64 {
        Self::ratio(self.fault_plans_exercised(), self.fault_plans_enumerable())
    }

    /// Non-empty fault plans executed, summed over every surface.
    pub fn fault_plans_exercised(&self) -> u64 {
        self.disk_fault_plans_exercised + self.torn_plans_exercised + self.net_plans_exercised
    }

    /// Enumerable fault plans, summed over every surface.
    pub fn fault_plans_enumerable(&self) -> u64 {
        self.disk_fault_plans_enumerable + self.torn_plans_enumerable + self.net_plans_enumerable
    }

    /// Multi-line rendering for [`crate::report::render_summary`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  crash points   : {}/{} exercised ({:.0}%)",
            self.crash_points_exercised,
            self.crash_points_enumerable,
            100.0 * self.crash_point_ratio()
        );
        let per_surface = [
            (
                "disk",
                self.disk_fault_plans_exercised,
                self.disk_fault_plans_enumerable,
            ),
            (
                "torn",
                self.torn_plans_exercised,
                self.torn_plans_enumerable,
            ),
            ("net", self.net_plans_exercised, self.net_plans_enumerable),
        ];
        let surfaces: Vec<String> = per_surface
            .iter()
            .filter(|(_, _, total)| *total > 0)
            .map(|(name, done, total)| format!("{name} {done}/{total}"))
            .collect();
        let _ = writeln!(
            out,
            "  fault plans    : {}/{} exercised ({:.0}%){}",
            self.fault_plans_exercised(),
            self.fault_plans_enumerable(),
            100.0 * self.fault_plan_ratio(),
            if surfaces.is_empty() {
                String::new()
            } else {
                format!(" [{}]", surfaces.join(", "))
            }
        );
        let _ = writeln!(
            out,
            "  ghost traces   : {} distinct fingerprints",
            self.distinct_traces
        );
        out
    }
}

/// FNV-1a over a rendered ghost trace: the behavioural-coverage
/// fingerprint. Stable across runs (pure function of the bytes).
pub fn trace_fingerprint(trace: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in trace.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_counts_classify_and_render() {
        let mut c = OutcomeCounts::default();
        c.record(OutcomeKind::of(&ExecOutcome::Ok));
        c.record(OutcomeKind::of(&ExecOutcome::Ok));
        c.record(OutcomeKind::of(&ExecOutcome::Deadlock));
        c.record(OutcomeKind::of(&ExecOutcome::Bug("b".into())));
        assert_eq!(c.ok, 2);
        assert_eq!(c.total(), 4);
        assert_eq!(c.failures(), 2);
        assert_eq!(c.render(), "ok=2 bug=1 deadlock=1");
        assert_eq!(OutcomeCounts::default().render(), "(none)");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1000);
        assert_eq!(
            h.buckets(),
            vec![
                (0, 0, 1),
                (1, 1, 1),
                (2, 3, 2),
                (4, 7, 2),
                (8, 15, 1),
                (512, 1023, 1)
            ]
        );
        let r = h.render();
        assert!(r.contains("2-3:2"), "{r}");
        assert!(r.contains("max 1000"), "{r}");
        assert_eq!(Histogram::default().render(), "(empty)");
    }

    #[test]
    fn coverage_ratios_handle_empty_spaces() {
        let c = Coverage::default();
        assert_eq!(c.crash_point_ratio(), 1.0);
        assert_eq!(c.fault_plan_ratio(), 1.0);
        let c = Coverage {
            crash_points_exercised: 3,
            crash_points_enumerable: 12,
            torn_plans_exercised: 6,
            torn_plans_enumerable: 36,
            ..Coverage::default()
        };
        assert!((c.crash_point_ratio() - 0.25).abs() < 1e-12);
        assert!((c.fault_plan_ratio() - 6.0 / 36.0).abs() < 1e-12);
        let text = c.render();
        assert!(text.contains("3/12"), "{text}");
        assert!(text.contains("torn 6/36"), "{text}");
    }

    #[test]
    fn trace_fingerprints_distinguish_traces() {
        let a = trace_fingerprint("Invoke { jid: j0 }");
        let b = trace_fingerprint("Invoke { jid: j1 }");
        assert_ne!(a, b);
        assert_eq!(a, trace_fingerprint("Invoke { jid: j0 }"));
    }
}
