//! Campaign tooling: sharding, report serialization, and shard-merge.
//!
//! A *campaign* runs a set of scenarios (optionally × mutants × fault
//! passes) as one deterministically partitioned workload. Three pieces
//! live here:
//!
//! - [`parse_shard`] — the `i/n` command-line shard syntax shared by
//!   the drivers (`scan`, `scale`, `scenario_smoke`).
//! - [`report_to_json`] / [`report_from_json`] — a lossless-enough
//!   [`CheckReport`] serialization for cross-process merging, the
//!   campaign fingerprint, and the `run_end` telemetry record. One thing
//!   does not survive: a counterexample's [`ExecOutcome`] payload comes
//!   back as [`GhostError::Imported`] carrying the rendered message, so
//!   fingerprints (which hash the rendering) round-trip exactly.
//! - [`merge_reports`] — recombines one report per shard into the
//!   report an unsharded run of the same configuration would produce,
//!   by checking the shards cover `0..n` and merging their
//!   [`OutcomeFold`]s (the merge rule is [`OutcomeFold::merge`]'s).
//!
//! [`report_fingerprint`] is the campaign's equality oracle: a hash of
//! the report's deterministic content (timing, worker count, shard
//! assignment, and the replayed-execution diagnostic excluded). The
//! robustness contract — pinned by `tests/shard_resume.rs` and the CI
//! `campaign` job — is that sharded-then-merged and killed-then-resumed
//! runs produce the same fingerprint as one uninterrupted run.
//!
//! # One field list per record
//!
//! Every checker record that is written *and* read back (the report,
//! [`Counterexample`], [`FaultPlan`], [`ExecOutcome`], and the
//! [`Histogram`](crate::Histogram), [`PassMetrics`](crate::PassMetrics),
//! [`Coverage`](crate::Coverage), [`OutcomeCounts`](crate::OutcomeCounts),
//! [`EnvStamp`](crate::EnvStamp) and [`ExecStats`](crate::ExecStats) it
//! nests) is declared once, beside its type, with the `serde_json`
//! shim's `record!` macro: one field list from which both `ToJson` and
//! `FromJson` are implemented (see the shim's docs for the contract). Decoding is strict: a missing or mistyped field, or an
//! integer that is fractional or out of range, is an error that names
//! the field. The one exception is `exec_done`'s
//! [`ExecStats`](crate::ExecStats), whose counters default to 0 so WALs
//! from earlier builds stay resumable. Fields whose JSON form is not their type's use
//! the adapters here: `hex64` for 64-bit seeds and fingerprints,
//! seconds for the wall time, [`parse_shard`] syntax for the shard, and
//! names for torn modes and net faults. Write-only records (`run_start`,
//! the profile, bench rows) stay `json!` literals.

use crate::explore::{CheckReport, Counterexample, ExecOutcome};
use crate::fold::OutcomeFold;
use crate::metrics::{trace_fingerprint, OutcomeKind};
use crate::telemetry::strip_keys;
use goose_rt::fault::{FaultPlan, NetFault, TornMode};
use perennial::GhostError;
use serde_json::{json, record, Error, FromJson, ToJson, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Parses the `i/n` shard syntax: `0/4` is the first of four shards.
pub fn parse_shard(s: &str) -> Result<(u32, u32), String> {
    let (i, n) = s
        .split_once('/')
        .ok_or_else(|| format!("shard {s:?}: expected i/n, e.g. 0/4"))?;
    let i: u32 = i.parse().map_err(|_| format!("shard index {i:?}"))?;
    let n: u32 = n.parse().map_err(|_| format!("shard count {n:?}"))?;
    if n == 0 || i >= n {
        return Err(format!("shard {i}/{n}: index must satisfy i < n, n > 0"));
    }
    Ok((i, n))
}

/// `u64` values (seeds, fingerprints) as hex strings: the shim's numbers
/// are f64 and would silently round above 2^53. Always zero-padded to 16
/// hex digits (18 chars with the `0x` prefix), so hex fields are
/// fixed-width, lexicographically ordered, and trivially greppable
/// across a campaign's worth of streams.
pub(crate) mod hex64 {
    use super::*;

    pub fn to_json(v: &u64) -> Value {
        Value::String(format!("{v:#018x}"))
    }

    pub fn from_json(v: &Value) -> Result<u64, Error> {
        let s = String::from_json(v)?;
        u64::from_str_radix(s.trim_start_matches("0x"), 16)
            .map_err(|e| Error::custom(format!("{s:?}: {e}")))
    }
}

/// A set of [`hex64`] values, as an array.
mod hex64_set {
    use super::*;

    pub fn to_json(s: &BTreeSet<u64>) -> Value {
        Value::Array(s.iter().map(hex64::to_json).collect())
    }

    pub fn from_json(v: &Value) -> Result<BTreeSet<u64>, Error> {
        Vec::<Value>::from_json(v)?
            .iter()
            .map(hex64::from_json)
            .collect()
    }
}

/// A [`Duration`] as fractional seconds.
mod secs {
    use super::*;

    pub fn to_json(d: &Duration) -> Value {
        Value::Number(d.as_secs_f64())
    }

    pub fn from_json(v: &Value) -> Result<Duration, Error> {
        Duration::try_from_secs_f64(f64::from_json(v)?).map_err(Error::custom)
    }
}

/// A shard assignment in [`parse_shard`] syntax, or `null`.
pub(crate) mod shard_spec {
    use super::*;

    pub fn to_json(s: &Option<(u32, u32)>) -> Value {
        s.map(|(i, n)| format!("{i}/{n}")).to_json()
    }

    pub fn from_json(v: &Value) -> Result<Option<(u32, u32)>, Error> {
        let s = Option::<String>::from_json(v)?;
        s.map(|s| parse_shard(&s).map_err(Error::custom))
            .transpose()
    }
}

/// A crash's [`TornMode`] as `keep-all`, `keep-none` or `subset:K`.
mod torn_mode {
    use super::*;

    pub fn to_json(t: &Option<TornMode>) -> Value {
        let name = t.map(|t| match t {
            TornMode::KeepAll => "keep-all".to_string(),
            TornMode::KeepNone => "keep-none".to_string(),
            TornMode::Subset(k) => format!("subset:{k}"),
        });
        name.to_json()
    }

    pub fn from_json(v: &Value) -> Result<Option<TornMode>, Error> {
        let name = Option::<String>::from_json(v)?;
        name.map(|name| match name.as_str() {
            "keep-all" => Ok(TornMode::KeepAll),
            "keep-none" => Ok(TornMode::KeepNone),
            other => match other.strip_prefix("subset:").map(str::parse) {
                Some(Ok(k)) => Ok(TornMode::Subset(k)),
                _ => Err(Error::custom(format!("unknown torn mode {other:?}"))),
            },
        })
        .transpose()
    }
}

/// Per-send network faults as `[index, "drop"|"duplicate"|"delay"]` pairs.
mod net_faults {
    use super::*;

    const NAMES: [(NetFault, &str); 3] = [
        (NetFault::Drop, "drop"),
        (NetFault::Duplicate, "duplicate"),
        (NetFault::Delay, "delay"),
    ];

    pub fn to_json(net: &BTreeMap<u64, NetFault>) -> Value {
        let name = |f| NAMES.iter().find(|(n, _)| n == f).map(|(_, s)| *s);
        net.iter()
            .map(|(i, f)| (*i, name(f)))
            .collect::<Vec<_>>()
            .to_json()
    }

    pub fn from_json(v: &Value) -> Result<BTreeMap<u64, NetFault>, Error> {
        let pairs = Vec::<(u64, String)>::from_json(v)?;
        let fault = |name: &str| NAMES.iter().find(|(_, s)| *s == name).map(|(f, _)| *f);
        pairs
            .into_iter()
            .map(|(i, name)| {
                fault(&name)
                    .map(|f| (i, f))
                    .ok_or_else(|| Error::custom(format!("unknown net fault {name:?}")))
            })
            .collect()
    }
}

record! {
    mod fault_plan for FaultPlan {
        transient_io, torn with torn_mode, disk_fail, net with net_faults,
    }
}

/// `{kind, msg}`: a violation comes back as [`GhostError::Imported`]
/// carrying the rendered message, so fingerprints round-trip exactly.
impl ToJson for ExecOutcome {
    fn to_json(&self) -> Value {
        json!({ "kind": OutcomeKind::of(self).name(), "msg": self.message() })
    }
}

impl FromJson for ExecOutcome {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let Value::Object(m) = v else {
            return Err(Error::custom("expected an outcome object"));
        };
        let msg: String = m.field("msg", FromJson::from_json, None)?;
        let kind: String = m.field("kind", FromJson::from_json, None)?;
        Ok(match OutcomeKind::from_name(&kind) {
            Some(OutcomeKind::Ok) => ExecOutcome::Ok,
            Some(OutcomeKind::Violation) => ExecOutcome::Violation(GhostError::Imported { msg }),
            Some(OutcomeKind::Ub) => ExecOutcome::Ub(msg),
            Some(OutcomeKind::Bug) => ExecOutcome::Bug(msg),
            Some(OutcomeKind::Deadlock) => ExecOutcome::Deadlock,
            Some(OutcomeKind::FinalCheckFailed) => ExecOutcome::FinalCheckFailed(msg),
            Some(OutcomeKind::Wedged) => ExecOutcome::Wedged(msg.parse().map_err(Error::custom)?),
            Some(OutcomeKind::HarnessPanic) => ExecOutcome::HarnessPanic(msg),
            None => return Err(Error::custom(format!("unknown outcome kind {kind:?}"))),
        })
    }
}

// `timeline` is deliberately not serialized: it is a debug payload
// (re-derivable by replaying the counterexample), and keeping it out of
// campaign JSON keeps report fingerprints identical whether trace
// capture was on or off.
record! {
    Counterexample {
        outcome, pass, index, seed with hex64, schedule_prefix, crash_points, clamped,
        faults with fault_plan, trace,
    }
}

// `profile` and `shrink` are deliberately not serialized, like a
// counterexample's timeline: they are observability side channels, and
// excluding them keeps report fingerprints identical whether profiling
// or shrinking bookkeeping was on or off. The environment stamp is
// volatile (it names the machine's toolchain and pool size), but
// serialized so baselines and archived reports say where they came from.
// The set-backed coverage counts and the canonical counterexample are
// rederived on decode.
record! {
    CheckReport {
        name, executions, total_steps, crashes_injected, crash_points, fault_plans, helped_ops,
        disk_reads, disk_writes, disk_flushes, net_sends, net_recvs, strategy, pruned,
        coverage_guided, outcomes, counterexamples, per_pass, steps_hist, depth_hist, coverage,
        crash_point_set, trace_fps with hex64_set, shard with shard_spec, replayed, incomplete,
        workers, env, wall_time as "wall_time_s" with secs, execs_per_sec,
    } then |r| {
        r.counterexample = r.counterexamples.first().cloned();
        r.coverage.crash_points_exercised = r.crash_point_set.len() as u64;
        r.coverage.distinct_traces = r.trace_fps.len() as u64;
    }
}

/// Serializes a [`CheckReport`] for cross-process merging, the campaign
/// fingerprint, and the `run_end` telemetry record. The inverse is
/// [`report_from_json`].
pub fn report_to_json(r: &CheckReport) -> Value {
    r.to_json()
}

/// Deserializes a report written by [`report_to_json`] (or a `run_end`
/// record); a missing or mistyped field is an error naming it.
pub fn report_from_json(v: &Value) -> Result<CheckReport, String> {
    CheckReport::from_json(v).map_err(|e| e.to_string())
}

/// Keys excluded from [`report_fingerprint`]: wall-clock timing, pool
/// size, shard assignment, and the resume diagnostic — everything that
/// may differ between two runs that checked the same executions.
pub const VOLATILE_KEYS: [&str; 8] = [
    "wall_time_s",
    "execs_per_sec",
    "busy_time_us",
    "workers",
    "shard",
    "replayed",
    "duration_us",
    "env",
];

/// A hash of the report's deterministic content. Two runs of the same
/// configuration — whatever their worker count, shard split, or
/// kill/resume history — must agree on this value.
pub fn report_fingerprint(r: &CheckReport) -> u64 {
    let canon = strip_keys(&report_to_json(r), &VOLATILE_KEYS);
    trace_fingerprint(&serde_json::to_string(&canon).expect("shim serialization is infallible"))
}

/// Merges one [`CheckReport`] per shard (a complete `0..n` cover, all
/// from the same scenario) into the report an unsharded run would have
/// produced: the shards' folds merge by [`OutcomeFold::merge`].
pub fn merge_reports(mut reports: Vec<CheckReport>) -> Result<CheckReport, String> {
    let Some(first) = reports.first() else {
        return Err("nothing to merge".to_string());
    };
    let name = first.name.clone();
    let n = match first.shard {
        Some((_, n)) => n,
        None => return Err(format!("report for {name:?} is not a shard")),
    };
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    for r in &reports {
        if r.name != name {
            return Err(format!(
                "cannot merge shards of different scenarios: {name:?} vs {:?}",
                r.name
            ));
        }
        match r.shard {
            Some((i, m)) if m == n => {
                if !seen.insert(i) {
                    return Err(format!("duplicate shard {i}/{n} for {name:?}"));
                }
            }
            other => {
                return Err(format!(
                    "shard mismatch for {name:?}: expected i/{n}, got {other:?}"
                ))
            }
        }
    }
    if seen.len() != n as usize {
        return Err(format!(
            "incomplete cover for {name:?}: {} of {n} shards",
            seen.len()
        ));
    }
    reports.sort_by_key(|r| r.shard.map(|(i, _)| i));
    // Shards of one campaign share a toolchain, so the first shard's
    // stamp speaks for all (`finish` re-points it at the merged pool).
    let mut fold = OutcomeFold::from(CheckReport {
        name,
        strategy: reports[0].strategy.clone(),
        env: reports[0].env.clone(),
        ..CheckReport::default()
    });
    for r in &reports {
        fold.merge(r);
    }
    Ok(fold.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PassMetrics;
    use crate::pass::Pass;

    #[test]
    fn shard_syntax_parses_and_rejects() {
        assert_eq!(parse_shard("0/4").unwrap(), (0, 4));
        assert_eq!(parse_shard("3/4").unwrap(), (3, 4));
        assert!(parse_shard("4/4").is_err());
        assert!(parse_shard("0/0").is_err());
        assert!(parse_shard("x/2").is_err());
        assert!(parse_shard("2").is_err());
    }

    fn sample_report() -> CheckReport {
        let mut r = CheckReport {
            name: "demo".into(),
            strategy: "exhaustive".into(),
            executions: 10,
            total_steps: 500,
            crashes_injected: 3,
            crash_points: 3,
            fault_plans: 2,
            helped_ops: 1,
            pruned: 4,
            workers: 8,
            replayed: 2,
            incomplete: vec!["execution budget of 10 exhausted".into()],
            ..CheckReport::default()
        };
        r.outcomes.ok = 9;
        r.outcomes.violation = 1;
        r.steps_hist.record(50);
        r.depth_hist.record(12);
        r.crash_point_set.extend([1, 2, 5]);
        r.trace_fps.extend([0xabc, 0xdef]);
        r.coverage.crash_points_exercised = 3;
        r.coverage.distinct_traces = 2;
        r.coverage.crash_points_enumerable = 7;
        let mut faults = FaultPlan::default();
        faults.transient_io.insert(3);
        faults.torn = Some(TornMode::Subset(1));
        faults.net.insert(2, NetFault::Delay);
        faults.disk_fail = Some((2, 9));
        let cx = Counterexample {
            outcome: ExecOutcome::Violation(GhostError::HelpTokenMissing { key: 3 }),
            pass: Pass::CrashSweep,
            index: 5,
            seed: u64::MAX - 99,
            schedule_prefix: vec![0, 2, 1],
            crash_points: vec![5],
            clamped: vec![1],
            faults,
            trace: "t0 op begin\nt1 crash".into(),
            timeline: None,
        };
        r.counterexample = Some(cx.clone());
        r.counterexamples = vec![cx];
        r.per_pass = vec![PassMetrics {
            pass: Pass::CrashSweep,
            rank: Pass::CrashSweep.rank(),
            executions: 10,
            steps: 500,
            crashes: 3,
            fault_plans: 2,
            failures: 1,
            busy_us: 1234,
            ..PassMetrics::default()
        }];
        r
    }

    #[test]
    fn report_round_trips_through_json_with_stable_fingerprint() {
        let r = sample_report();
        let v = report_to_json(&r);
        let text = serde_json::to_string(&v).unwrap();
        let back = report_from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(report_fingerprint(&r), report_fingerprint(&back));
        assert_eq!(back.executions, r.executions);
        assert_eq!(back.counterexamples.len(), 1);
        // The violation comes back as Imported but renders identically.
        let orig = match &r.counterexample.as_ref().unwrap().outcome {
            ExecOutcome::Violation(e) => e.to_string(),
            _ => unreachable!(),
        };
        match &back.counterexample.as_ref().unwrap().outcome {
            ExecOutcome::Violation(GhostError::Imported { msg }) => assert_eq!(*msg, orig),
            other => panic!("expected imported violation, got {other:?}"),
        }
        assert_eq!(
            back.counterexample.unwrap().faults.compact(),
            r.counterexample.unwrap().faults.compact()
        );
    }

    #[test]
    fn fingerprint_ignores_volatile_fields_only() {
        let r = sample_report();
        let mut timed = r.clone();
        timed.wall_time = Duration::from_secs(99);
        timed.execs_per_sec = 1e6;
        timed.workers = 1;
        timed.replayed = 0;
        timed.shard = Some((0, 2));
        timed.per_pass[0].busy_us = 0;
        assert_eq!(report_fingerprint(&r), report_fingerprint(&timed));
        let mut changed = r.clone();
        changed.total_steps += 1;
        assert_ne!(report_fingerprint(&r), report_fingerprint(&changed));
        let mut marked = r.clone();
        marked.incomplete.push("sink died".into());
        assert_ne!(report_fingerprint(&r), report_fingerprint(&marked));
    }

    #[test]
    fn merge_requires_a_complete_cover() {
        let mut a = sample_report();
        a.shard = Some((0, 2));
        assert!(merge_reports(vec![a.clone()]).is_err());
        assert!(merge_reports(vec![]).is_err());
        let mut dup = a.clone();
        dup.shard = Some((0, 2));
        assert!(merge_reports(vec![a.clone(), dup]).is_err());
        let mut other = sample_report();
        other.shard = Some((1, 2));
        other.name = "different".into();
        assert!(merge_reports(vec![a, other]).is_err());
    }

    #[test]
    fn merge_sums_disjoint_halves() {
        let mut a = sample_report();
        a.shard = Some((0, 2));
        let mut b = sample_report();
        b.shard = Some((1, 2));
        b.counterexamples.clear();
        b.counterexample = None;
        b.outcomes.violation = 0;
        b.outcomes.ok = 10;
        b.crash_point_set = [5, 9].into_iter().collect();
        b.trace_fps = [0xdef, 0x123].into_iter().collect();
        let merged = merge_reports(vec![b, a]).unwrap();
        assert_eq!(merged.executions, 20);
        assert_eq!(merged.total_steps, 1000);
        assert_eq!(merged.outcomes.ok, 19);
        assert_eq!(merged.outcomes.violation, 1);
        // Sets union: {1,2,5} ∪ {5,9} and {abc,def} ∪ {def,123}.
        assert_eq!(merged.coverage.crash_points_exercised, 4);
        assert_eq!(merged.coverage.distinct_traces, 3);
        // Session counters agree across shards: max, not sum.
        assert_eq!(merged.pruned, 4);
        assert_eq!(merged.shard, None);
        assert_eq!(merged.replayed, 4);
        assert!(merged.counterexample.is_some());
        assert_eq!(merged.incomplete.len(), 1, "identical messages dedup");
    }

    /// The sample report's JSON text with `from` replaced by `to`, decoded.
    fn decode_doctored(from: &str, to: &str) -> Result<CheckReport, String> {
        let text = serde_json::to_string(&report_to_json(&sample_report())).unwrap();
        assert!(text.contains(from), "{from} not in {text}");
        report_from_json(&serde_json::from_str(&text.replace(from, to)).unwrap())
    }

    #[test]
    fn out_of_range_wall_time_is_an_error_naming_the_field() {
        let err = decode_doctored("\"wall_time_s\": 0", "\"wall_time_s\": 1e300").unwrap_err();
        assert!(err.contains("wall_time_s"), "{err}");
    }

    #[test]
    fn integers_decode_exactly_and_fields_are_required() {
        let err = decode_doctored("\"executions\": 10,", "\"executions\": 10.7,").unwrap_err();
        assert!(err.contains("executions"), "{err}");
        // A disk index past u8 must not wrap around to disk 1.
        let err = decode_doctored("\"disk_fail\": [2,9]", "\"disk_fail\": [257,9]").unwrap_err();
        assert!(err.contains("disk_fail"), "{err}");
        let err = decode_doctored("\"env\":", "\"stamp\":").unwrap_err();
        assert!(err.contains("env"), "{err}");
    }
}
