//! Campaign tooling: sharding, report serialization, and shard-merge.
//!
//! A *campaign* runs a set of scenarios (optionally × mutants × fault
//! passes) as one deterministically partitioned workload. Three pieces
//! live here:
//!
//! - [`parse_shard`] — the `i/n` command-line shard syntax shared by
//!   the drivers (`scan`, `scale`, `scenario_smoke`).
//! - [`report_to_json`] / [`report_from_json`] — a lossless-enough
//!   [`CheckReport`] serialization for cross-process merging. One thing
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

use crate::explore::{CheckReport, Counterexample, ExecOutcome};
use crate::fold::OutcomeFold;
use crate::metrics::{trace_fingerprint, Histogram, OutcomeCounts, OutcomeKind, PassMetrics};
use crate::pass::Pass;
use crate::telemetry::{arr_field, f64_field, hex64, hex_field, obj_field, str_field, u64_field};
use goose_rt::fault::{FaultPlan, NetFault, TornMode};
use perennial::GhostError;
use serde_json::{json, Map, Value};
use std::collections::BTreeSet;
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

fn faults_to_json(f: &FaultPlan) -> Value {
    let torn = f.torn.map(|t| match t {
        TornMode::KeepAll => "keep-all".to_string(),
        TornMode::KeepNone => "keep-none".to_string(),
        TornMode::Subset(k) => format!("subset:{k}"),
    });
    json!({
        "transient_io": f.transient_io.iter().copied().collect::<Vec<u64>>(),
        "torn": torn,
        "disk_fail": f.disk_fail.map(|(d, g)| vec![d as u64, g]),
        "net": f
            .net
            .iter()
            .map(|(i, nf)| {
                let name = match nf {
                    NetFault::Drop => "drop",
                    NetFault::Duplicate => "duplicate",
                    NetFault::Delay => "delay",
                };
                json!([i, name])
            })
            .collect::<Vec<Value>>(),
    })
}

fn outcome_to_json(o: &ExecOutcome) -> Value {
    let msg = match o {
        ExecOutcome::Ok | ExecOutcome::Deadlock => String::new(),
        ExecOutcome::Violation(e) => e.to_string(),
        ExecOutcome::Ub(m)
        | ExecOutcome::Bug(m)
        | ExecOutcome::FinalCheckFailed(m)
        | ExecOutcome::HarnessPanic(m) => m.clone(),
        ExecOutcome::Wedged(b) => b.to_string(),
    };
    json!({ "kind": OutcomeKind::of(o).name(), "msg": msg })
}

fn cx_to_json(cx: &Counterexample) -> Value {
    json!({
        "outcome": outcome_to_json(&cx.outcome),
        "pass": cx.pass.name(),
        "index": cx.index,
        "seed": hex64(cx.seed),
        "schedule_prefix": cx.schedule_prefix.iter().map(|v| *v as u64).collect::<Vec<u64>>(),
        "crash_points": cx.crash_points.clone(),
        "clamped": cx.clamped.iter().map(|v| *v as u64).collect::<Vec<u64>>(),
        "faults": faults_to_json(&cx.faults),
        "trace": cx.trace.clone(),
        // `cx.timeline` is deliberately NOT serialized: it is a debug
        // payload (re-derivable by replaying the counterexample) and
        // keeping it out of campaign JSON keeps report fingerprints
        // identical whether trace capture was on or off.
    })
}

fn hist_to_json(h: &Histogram) -> Value {
    json!({
        "buckets": h.raw_buckets().to_vec(),
        "count": h.count(),
        "sum": h.sum(),
        "max": h.max(),
    })
}

/// Serializes a [`CheckReport`] for cross-process merging and the
/// campaign fingerprint. The inverse is [`report_from_json`].
pub fn report_to_json(r: &CheckReport) -> Value {
    json!({
        "name": r.name.clone(),
        "executions": r.executions as u64,
        "total_steps": r.total_steps,
        "crashes_injected": r.crashes_injected as u64,
        "crash_points": r.crash_points as u64,
        "fault_plans": r.fault_plans as u64,
        "helped_ops": r.helped_ops,
        "disk_reads": r.disk_reads,
        "disk_writes": r.disk_writes,
        "disk_flushes": r.disk_flushes,
        "net_sends": r.net_sends,
        "net_recvs": r.net_recvs,
        "strategy": r.strategy.clone(),
        "pruned": r.pruned,
        "coverage_guided": r.coverage_guided,
        "outcomes": r.outcomes.to_json(),
        "counterexamples": r.counterexamples.iter().map(cx_to_json).collect::<Vec<Value>>(),
        "per_pass": r
            .per_pass
            .iter()
            .map(|pm| {
                json!({
                    "pass": pm.pass.name(),
                    "executions": pm.executions,
                    "steps": pm.steps,
                    "crashes": pm.crashes,
                    "fault_plans": pm.fault_plans,
                    "failures": pm.failures,
                    "pruned": pm.pruned,
                    "coverage_guided": pm.coverage_guided,
                    "busy_time_us": pm.busy_us,
                })
            })
            .collect::<Vec<Value>>(),
        "steps_hist": hist_to_json(&r.steps_hist),
        "depth_hist": hist_to_json(&r.depth_hist),
        "coverage": {
            "crash_points_enumerable": r.coverage.crash_points_enumerable,
            "disk_fault_plans_exercised": r.coverage.disk_fault_plans_exercised,
            "disk_fault_plans_enumerable": r.coverage.disk_fault_plans_enumerable,
            "torn_plans_exercised": r.coverage.torn_plans_exercised,
            "torn_plans_enumerable": r.coverage.torn_plans_enumerable,
            "net_plans_exercised": r.coverage.net_plans_exercised,
            "net_plans_enumerable": r.coverage.net_plans_enumerable,
        },
        "crash_point_set": r.crash_point_set.iter().copied().collect::<Vec<u64>>(),
        "trace_fps": r.trace_fps.iter().map(|fp| hex64(*fp)).collect::<Vec<String>>(),
        "shard": r.shard.map(|(i, n)| format!("{i}/{n}")),
        "replayed": r.replayed,
        "incomplete": r.incomplete.clone(),
        "workers": r.workers as u64,
        // The environment stamp is volatile (it names the machine's
        // toolchain and pool size), but serialized so baselines and
        // archived campaign reports say where they came from.
        // `r.profile` is deliberately NOT serialized, like
        // `cx.timeline`: both are debug/observability side channels,
        // and excluding them keeps report fingerprints identical
        // whether profiling (or trace capture) was on or off.
        "env": r.env.to_json(),
        "wall_time_s": r.wall_time.as_secs_f64(),
        "execs_per_sec": r.execs_per_sec,
    })
}

/// A required field: `get` (one of the shared `telemetry` getters)
/// applied to `m[key]`, or an error naming the field.
fn need<'a, T>(m: &'a Map, key: &str, get: fn(&'a Map, &str) -> Option<T>) -> Result<T, String> {
    get(m, key).ok_or_else(|| format!("field {key:?}: missing or mistyped"))
}

fn get_u64(m: &Map, k: &str) -> Result<u64, String> {
    need(m, k, u64_field)
}

fn get_str(m: &Map, k: &str) -> Result<String, String> {
    need(m, k, str_field).map(str::to_string)
}

fn get_arr<'a>(m: &'a Map, k: &str) -> Result<&'a [Value], String> {
    need(m, k, arr_field)
}

fn get_obj<'a>(m: &'a Map, k: &str) -> Result<&'a Map, String> {
    need(m, k, obj_field)
}

fn get<'a>(m: &'a Map, k: &str) -> Result<&'a Value, String> {
    m.get(k).ok_or_else(|| format!("missing field {k:?}"))
}

fn num_array(items: &[Value], what: &str) -> Result<Vec<u64>, String> {
    items
        .iter()
        .map(|v| match v {
            Value::Number(n) if *n >= 0.0 => Ok(*n as u64),
            other => Err(format!("{what}: expected number, got {other:?}")),
        })
        .collect()
}

fn outcome_from_json(m: &Map) -> Result<ExecOutcome, String> {
    let kind = get_str(m, "kind")?;
    let msg = get_str(m, "msg")?;
    Ok(match kind.as_str() {
        "ok" => ExecOutcome::Ok,
        "violation" => ExecOutcome::Violation(GhostError::Imported { msg }),
        "ub" => ExecOutcome::Ub(msg),
        "bug" => ExecOutcome::Bug(msg),
        "deadlock" => ExecOutcome::Deadlock,
        "final_check_failed" => ExecOutcome::FinalCheckFailed(msg),
        "wedged" => ExecOutcome::Wedged(
            msg.parse()
                .map_err(|e| format!("wedged budget {msg:?}: {e}"))?,
        ),
        "harness_panic" => ExecOutcome::HarnessPanic(msg),
        other => return Err(format!("unknown outcome kind {other:?}")),
    })
}

#[allow(clippy::field_reassign_with_default)] // each field's parse can fail; a struct literal can't `?` per field readably
fn faults_from_json(m: &Map) -> Result<FaultPlan, String> {
    let mut f = FaultPlan::default();
    f.transient_io = num_array(get_arr(m, "transient_io")?, "transient_io")?
        .into_iter()
        .collect();
    f.torn = match get(m, "torn")? {
        Value::Null => None,
        Value::String(s) => Some(match s.as_str() {
            "keep-all" => TornMode::KeepAll,
            "keep-none" => TornMode::KeepNone,
            other => match other.strip_prefix("subset:") {
                Some(k) => TornMode::Subset(k.parse().map_err(|e| format!("torn {other:?}: {e}"))?),
                None => return Err(format!("unknown torn mode {other:?}")),
            },
        }),
        v => return Err(format!("torn: expected string or null, got {v:?}")),
    };
    f.disk_fail = match get(m, "disk_fail")? {
        Value::Null => None,
        Value::Array(pair) => {
            let pair = num_array(pair, "disk_fail")?;
            match pair.as_slice() {
                [d, g] => Some((*d as u8, *g)),
                _ => return Err("disk_fail: expected [disk, grant]".to_string()),
            }
        }
        v => return Err(format!("disk_fail: expected array or null, got {v:?}")),
    };
    for entry in get_arr(m, "net")? {
        let Value::Array(pair) = entry else {
            return Err(format!("net: expected [index, fault], got {entry:?}"));
        };
        let (Some(Value::Number(i)), Some(Value::String(name))) = (pair.first(), pair.get(1))
        else {
            return Err(format!("net: expected [index, fault], got {entry:?}"));
        };
        let nf = match name.as_str() {
            "drop" => NetFault::Drop,
            "duplicate" => NetFault::Duplicate,
            "delay" => NetFault::Delay,
            other => return Err(format!("unknown net fault {other:?}")),
        };
        f.net.insert(*i as u64, nf);
    }
    Ok(f)
}

fn cx_from_json(v: &Value) -> Result<Counterexample, String> {
    let Value::Object(m) = v else {
        return Err(format!("counterexample: expected object, got {v:?}"));
    };
    Ok(Counterexample {
        outcome: outcome_from_json(get_obj(m, "outcome")?)?,
        pass: get_str(m, "pass")?
            .parse::<Pass>()
            .map_err(|e| e.to_string())?,
        index: get_u64(m, "index")?,
        seed: need(m, "seed", hex_field)?,
        schedule_prefix: num_array(get_arr(m, "schedule_prefix")?, "schedule_prefix")?
            .into_iter()
            .map(|v| v as usize)
            .collect(),
        crash_points: num_array(get_arr(m, "crash_points")?, "crash_points")?,
        clamped: num_array(get_arr(m, "clamped")?, "clamped")?
            .into_iter()
            .map(|v| v as usize)
            .collect(),
        faults: faults_from_json(get_obj(m, "faults")?)?,
        trace: get_str(m, "trace")?,
        timeline: None,
    })
}

fn hist_from_json(m: &Map) -> Result<Histogram, String> {
    Ok(Histogram::from_parts(
        num_array(get_arr(m, "buckets")?, "buckets")?,
        get_u64(m, "count")?,
        get_u64(m, "sum")?,
        get_u64(m, "max")?,
    ))
}

/// Deserializes a report written by [`report_to_json`].
pub fn report_from_json(v: &Value) -> Result<CheckReport, String> {
    let Value::Object(m) = v else {
        return Err("report: expected a JSON object".to_string());
    };
    let mut r = CheckReport {
        name: get_str(m, "name")?,
        strategy: get_str(m, "strategy")?,
        executions: get_u64(m, "executions")? as usize,
        total_steps: get_u64(m, "total_steps")?,
        crashes_injected: get_u64(m, "crashes_injected")? as usize,
        crash_points: get_u64(m, "crash_points")? as usize,
        fault_plans: get_u64(m, "fault_plans")? as usize,
        helped_ops: get_u64(m, "helped_ops")?,
        disk_reads: get_u64(m, "disk_reads")?,
        disk_writes: get_u64(m, "disk_writes")?,
        disk_flushes: get_u64(m, "disk_flushes")?,
        net_sends: get_u64(m, "net_sends")?,
        net_recvs: get_u64(m, "net_recvs")?,
        pruned: get_u64(m, "pruned")?,
        coverage_guided: get_u64(m, "coverage_guided")?,
        replayed: get_u64(m, "replayed")?,
        workers: get_u64(m, "workers")? as usize,
        outcomes: OutcomeCounts::from_json(get_obj(m, "outcomes")?)
            .ok_or("outcomes: missing a bucket")?,
        ..CheckReport::default()
    };
    for cx in get_arr(m, "counterexamples")? {
        r.counterexamples.push(cx_from_json(cx)?);
    }
    r.counterexample = r.counterexamples.first().cloned();
    for pm in get_arr(m, "per_pass")? {
        let Value::Object(p) = pm else {
            return Err(format!("per_pass: expected object, got {pm:?}"));
        };
        let pass = get_str(p, "pass")?
            .parse::<Pass>()
            .map_err(|e| e.to_string())?;
        r.per_pass.push(PassMetrics {
            pass,
            rank: pass.rank(),
            executions: get_u64(p, "executions")?,
            steps: get_u64(p, "steps")?,
            crashes: get_u64(p, "crashes")?,
            fault_plans: get_u64(p, "fault_plans")?,
            failures: get_u64(p, "failures")?,
            pruned: get_u64(p, "pruned")?,
            coverage_guided: get_u64(p, "coverage_guided")?,
            busy_us: get_u64(p, "busy_time_us")?,
            ..PassMetrics::default()
        });
    }
    r.steps_hist = hist_from_json(get_obj(m, "steps_hist")?)?;
    r.depth_hist = hist_from_json(get_obj(m, "depth_hist")?)?;
    let cov = get_obj(m, "coverage")?;
    r.coverage.crash_points_enumerable = get_u64(cov, "crash_points_enumerable")?;
    r.coverage.disk_fault_plans_exercised = get_u64(cov, "disk_fault_plans_exercised")?;
    r.coverage.disk_fault_plans_enumerable = get_u64(cov, "disk_fault_plans_enumerable")?;
    r.coverage.torn_plans_exercised = get_u64(cov, "torn_plans_exercised")?;
    r.coverage.torn_plans_enumerable = get_u64(cov, "torn_plans_enumerable")?;
    r.coverage.net_plans_exercised = get_u64(cov, "net_plans_exercised")?;
    r.coverage.net_plans_enumerable = get_u64(cov, "net_plans_enumerable")?;
    r.crash_point_set = num_array(get_arr(m, "crash_point_set")?, "crash_point_set")?
        .into_iter()
        .collect();
    for fp in get_arr(m, "trace_fps")? {
        let fp = match fp {
            Value::String(s) => u64::from_str_radix(s.trim_start_matches("0x"), 16).ok(),
            _ => None,
        };
        r.trace_fps
            .insert(fp.ok_or("trace_fps: expected hex strings")?);
    }
    r.coverage.crash_points_exercised = r.crash_point_set.len() as u64;
    r.coverage.distinct_traces = r.trace_fps.len() as u64;
    r.shard = match get(m, "shard")? {
        Value::Null => None,
        Value::String(s) => Some(parse_shard(s)?),
        v => return Err(format!("shard: expected string or null, got {v:?}")),
    };
    for msg in get_arr(m, "incomplete")? {
        let Value::String(s) = msg else {
            return Err(format!("incomplete: expected string, got {msg:?}"));
        };
        r.incomplete.push(s.clone());
    }
    r.wall_time = Duration::from_secs_f64(need(m, "wall_time_s", f64_field)?.max(0.0));
    r.execs_per_sec = need(m, "execs_per_sec", f64_field)?;
    // Lenient: reports serialized before the env stamp existed (or
    // hand-stripped ones) deserialize with an empty stamp.
    r.env = m
        .get("env")
        .and_then(crate::telemetry::EnvStamp::from_json)
        .unwrap_or_default();
    Ok(r)
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

fn strip_volatile(v: &Value) -> Value {
    match v {
        Value::Object(map) => {
            let mut out = Map::new();
            for (k, val) in map.iter() {
                if !VOLATILE_KEYS.contains(&k.as_str()) {
                    out.insert(k.clone(), strip_volatile(val));
                }
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(strip_volatile).collect()),
        other => other.clone(),
    }
}

/// A hash of the report's deterministic content. Two runs of the same
/// configuration — whatever their worker count, shard split, or
/// kill/resume history — must agree on this value.
pub fn report_fingerprint(r: &CheckReport) -> u64 {
    let canon = strip_volatile(&report_to_json(r));
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
}
