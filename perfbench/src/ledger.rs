//! Per-layer metrics of a traced run: counts from the checker's cost
//! profile and reports, unit costs from `layers`, wall times from the
//! benchmark's own spans, and the estimates that tie them together.

use crate::layers::UnitCosts;
use crate::sys::median;
use crate::trace::Spans;
use crate::workload::{family, Iteration};
use goose_rt::TraceKind;
use perennial_checker::{report_fingerprint, report_to_json, CheckReport, Pass, Profile};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric a traced run prints, with its unit.
pub fn names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("goose.sched.grant_us.t2", "us"),
        ("goose.sched.grant_us.t4", "us"),
        ("goose.sched.spawn_us", "us"),
        ("goose.sched.join_us", "us"),
        ("goose.sched.crash_all_us", "us"),
        ("goose.sched.steps", "count"),
        ("goose.sched.crashes", "count"),
        ("goose.sched.lock_blocks", "count"),
        ("goose.sched.spawns_est", "count"),
        ("goose.sched.est_share", "ratio"),
        ("core.op_us", "us"),
        ("core.validate_us", "us"),
        ("core.helped_ops", "count"),
        ("core.ops_per_exec", "count"),
        ("core.est_share", "ratio"),
        ("disk.write_us", "us"),
        ("disk.flush_us", "us"),
        ("disk.crash_torn_us", "us"),
        ("disk.ops", "count"),
        ("goose.fs.op_us", "us"),
        ("goose.net.msg_us", "us"),
        ("goose.net.msgs", "count"),
        ("substrate.est_share", "ratio"),
        ("checker.executions", "count"),
        ("checker.execs_per_s", "1/s"),
        ("checker.pruned", "count"),
        ("checker.worker_util", "ratio"),
        ("checker.idle_s", "s"),
        ("checker.reconcile_gap", "ratio"),
        ("checker.unattributed_share", "ratio"),
        ("checker.wal_overhead", "ratio"),
        ("checker.wal_bytes", "bytes"),
        ("checker.replayed", "count"),
        ("checker.resume_share", "ratio"),
        ("checker.report_us", "us"),
        ("checker.shrink_s", "s"),
        ("checker.shrink_re_runs", "count"),
        ("checker.replay_us", "us"),
        ("checker.executions_to_cx", "count"),
        ("trace_overhead", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for pass in Pass::ALL {
        v.push((format!("checker.pass.{}.busy_s", pass.name()), "s"));
        v.push((format!("checker.pass.{}.executions", pass.name()), "count"));
    }
    for fam in FAMILIES {
        v.push((format!("system.{fam}.wall_s"), "s"));
    }
    v
}

pub const FAMILIES: [&str; 4] = ["kv", "repldisk", "mailboat", "patterns"];

/// What one execution is made of, sampled from the causal timelines the
/// checker captures for each counterexample.
#[derive(Debug, Default)]
pub struct Mix {
    pub timelines: u64,
    pub grants: u64,
    pub spawns: u64,
    pub ghost_ops: u64,
    pub fs_ops: u64,
    /// Median ghost operations (invocations) per sampled execution.
    pub ops_per_exec: f64,
}

impl Mix {
    pub fn of(iter: &Iteration) -> Mix {
        let mut mix = Mix::default();
        let mut per_exec = Vec::new();
        let timelines = iter.runs.iter().filter_map(|r| {
            r.report
                .counterexample
                .as_ref()
                .and_then(|cx| cx.timeline.as_ref())
        });
        for tl in timelines {
            mix.timelines += 1;
            let mut ops = 0;
            for e in &tl.events {
                match &e.kind {
                    TraceKind::Grant { .. } => mix.grants += 1,
                    TraceKind::Spawn { .. } => mix.spawns += 1,
                    TraceKind::FsOp { .. } => mix.fs_ops += 1,
                    TraceKind::Spec { event } if event.starts_with("Invoke") => ops += 1,
                    _ => {}
                }
            }
            mix.ghost_ops += ops;
            per_exec.push(ops as f64);
        }
        mix.ops_per_exec = median(&per_exec).round().max(1.0);
        mix
    }

    /// Scales a sampled count to `steps` scheduler grants.
    fn per_grant(&self, count: u64, steps: f64) -> f64 {
        if self.grants == 0 {
            0.0
        } else {
            count as f64 / self.grants as f64 * steps
        }
    }
}

/// The runs a traced benchmark run makes.
pub struct Traced<'a> {
    /// The workload's iteration without tracing.
    pub untraced: &'a Iteration,
    /// The same iteration with the cost profile and spans on (root span
    /// `traced`).
    pub traced: &'a Iteration,
    /// Traced wall time with and without a WAL being written.
    pub with_wal_s: f64,
    pub without_wal_s: f64,
    pub wal_bytes: u64,
    /// The traced iteration resumed, read-only, from the WAL that it or
    /// its WAL-toggled twin wrote (root span `resume`).
    pub resumed: &'a Iteration,
    pub mix: &'a Mix,
    pub costs: &'a UnitCosts,
    pub spans: &'a Spans,
}

pub type Metrics = BTreeMap<String, (f64, &'static str)>;

pub fn per_layer(t: &Traced) -> Metrics {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let c = |k: &str| t.costs[k];
    let reports: Vec<_> = t.traced.runs.iter().map(|r| &r.report).collect();
    let total = |f: fn(&CheckReport) -> u64| -> f64 {
        reports.iter().map(|r| f(r) as f64).fold(0.0, |a, b| a + b)
    };
    let profiles: Vec<_> = reports.iter().filter_map(|r| r.profile.as_ref()).collect();
    assert_eq!(
        profiles.len(),
        reports.len(),
        "a traced report lacks its profile"
    );

    // Per-pass attribution and scheduler counts from the cost profile.
    let (mut steps, mut crashes, mut lock_blocks, mut busy_us) = (0u64, 0u64, 0u64, 0u64);
    for pass in Pass::ALL {
        let rows = profiles
            .iter()
            .flat_map(|p| &p.passes)
            .filter(|pc| pc.pass == pass.name());
        let (mut busy, mut execs) = (0u64, 0u64);
        for pc in rows {
            busy += pc.busy_us;
            execs += pc.executions;
            steps += pc.steps;
            crashes += pc.crashes;
            lock_blocks += pc.lock_blocks;
        }
        busy_us += busy;
        put(
            &format!("checker.pass.{}.busy_s", pass.name()),
            busy as f64 / 1e6,
        );
        put(
            &format!("checker.pass.{}.executions", pass.name()),
            execs as f64,
        );
    }
    let steps_f = steps as f64;
    put("goose.sched.steps", steps_f);
    put("goose.sched.crashes", crashes as f64);
    put("goose.sched.lock_blocks", lock_blocks as f64);

    // Pool accounting: busy plus idle against workers × wall, where
    // wall is the benchmark's own span around each `Scenario::run`.
    let pool_us: f64 = profiles
        .iter()
        .map(|p| (p.workers.workers * p.workers.wall_us) as f64)
        .sum();
    let profile_busy_us: f64 = profiles.iter().map(|p| p.workers.busy_us as f64).sum();
    let idle_us = pool_us - busy_us as f64;
    let span_pool_us: f64 = t
        .traced
        .runs
        .iter()
        .zip(&profiles)
        .map(|(r, p)| r.run_s * 1e6 * p.workers.workers as f64)
        .sum();
    put("checker.idle_s", idle_us / 1e6);
    put("checker.worker_util", profile_busy_us / pool_us);
    put(
        "checker.reconcile_gap",
        (busy_us as f64 + idle_us - span_pool_us).abs() / span_pool_us,
    );

    // Layer estimates: counts × unit costs, as shares of busy time.
    let ran = |f: &dyn Fn(&CheckReport, &Profile) -> u64| -> f64 {
        reports
            .iter()
            .zip(&profiles)
            .map(|(r, p)| f(r, p) as f64)
            .sum()
    };
    let busy = busy_us as f64;
    let ran_steps = ran(&|_, p| p.passes.iter().map(|pc| pc.steps).sum());
    let ran_crashes = ran(&|_, p| p.passes.iter().map(|pc| pc.crashes).sum());
    let spawns = t.mix.per_grant(t.mix.spawns, ran_steps);
    let ghost_ops = t.mix.per_grant(t.mix.ghost_ops, ran_steps);
    let fs_ops = t.mix.per_grant(t.mix.fs_ops, ran_steps);
    let executions = total(|r| r.executions as u64);
    let disk_rw = ran(&|r, _| r.disk_reads + r.disk_writes);
    let flushes = ran(&|r, _| r.disk_flushes);
    let msgs = ran(&|r, _| r.net_sends);
    let sched = ran_steps * c("goose.sched.grant_us.t2")
        + spawns * (c("goose.sched.spawn_us") + c("goose.sched.join_us"))
        + ran_crashes * c("goose.sched.crash_all_us");
    let core =
        ghost_ops * c("core.op_us") + ran(&|r, _| r.executions as u64) * c("core.validate_us");
    let substrate = disk_rw * c("disk.write_us")
        + flushes * c("disk.flush_us")
        + fs_ops * c("goose.fs.op_us")
        + msgs * c("goose.net.msg_us");
    put("goose.sched.spawns_est", spawns);
    put("goose.sched.est_share", sched / busy);
    put("core.est_share", core / busy);
    put("substrate.est_share", substrate / busy);
    put(
        "checker.unattributed_share",
        1.0 - (sched + core + substrate) / busy,
    );

    for (name, cost) in t.costs {
        put(name, *cost);
    }
    put("core.ops_per_exec", t.mix.ops_per_exec);
    put("core.helped_ops", total(|r| r.helped_ops));
    put(
        "disk.ops",
        total(|r| r.disk_reads + r.disk_writes + r.disk_flushes),
    );
    put("goose.net.msgs", total(|r| r.net_sends));

    put("checker.executions", executions);
    put("checker.execs_per_s", executions / t.traced.wall_s);
    put("checker.pruned", total(|r| r.pruned));
    put(
        "checker.replayed",
        t.resumed
            .runs
            .iter()
            .map(|r| r.report.replayed as f64)
            .sum(),
    );
    put("checker.resume_share", t.resumed.wall_s / t.traced.wall_s);
    put(
        "checker.wal_overhead",
        (t.with_wal_s - t.without_wal_s) / t.without_wal_s,
    );
    put("checker.wal_bytes", t.wal_bytes as f64);
    put("checker.report_us", report_us(t.traced));

    put(
        "checker.shrink_s",
        t.traced
            .runs
            .iter()
            .filter_map(|r| r.shrink_s)
            .fold(0.0, |a, b| a + b),
    );
    put(
        "checker.shrink_re_runs",
        total(|r| r.shrink.map_or(0, |s| s.re_runs)),
    );
    let replays: Vec<f64> = t
        .traced
        .runs
        .iter()
        .filter_map(|r| r.replay_s)
        .map(|s| s * 1e6)
        .collect();
    put("checker.replay_us", median(&replays));
    let to_cx: Vec<f64> = reports
        .iter()
        .filter(|r| !r.passed())
        .map(|r| r.executions as f64)
        .collect();
    put("checker.executions_to_cx", median(&to_cx));

    let by_family = t
        .spans
        .children_by("traced", "checker.run", |req| family(req).to_string());
    for fam in FAMILIES {
        put(
            &format!("system.{fam}.wall_s"),
            by_family.get(fam).copied().unwrap_or(0.0) / 1e6,
        );
    }
    put(
        "trace_overhead",
        (t.traced.wall_s - t.untraced.wall_s) / t.untraced.wall_s,
    );

    names()
        .into_iter()
        .map(|(name, unit)| {
            let v = *m
                .get(&name)
                .unwrap_or_else(|| panic!("per-layer metric {name} not derived"));
            (name, (v, unit))
        })
        .collect()
}

/// Mean cost of serializing and fingerprinting one report, µs.
fn report_us(iter: &Iteration) -> f64 {
    const REPS: usize = 5;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for r in &iter.runs {
                black_box(report_to_json(&r.report));
                black_box(report_fingerprint(&r.report));
            }
            start.elapsed().as_secs_f64() * 1e6 / iter.runs.len() as f64
        })
        .collect();
    median(&samples)
}
