//! Checker benchmark: runs the full scenario registry through the public
//! `Scenario::run` / `Scenario::replay` API under one of three workloads,
//! checks every verdict against a hand-written answer table, and prints
//! end-to-end metrics (`--trace 0`) or per-layer metrics from a separate
//! traced run (`--trace 1`). See README.md beside this crate.
//!
//! ```text
//! perfbench --workload campaign|faults-wal|hunt --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The run's full record
//! (environment stamp, sample counts, spans of a traced run) is written
//! under `.perfbench_out/` in the working directory.

mod answers;
mod layers;
mod ledger;
mod sys;
mod trace;
mod workload;

use crate::ledger::{Metrics, Mix, Traced};
use crate::sys::{hd_quantile, median, HostCpu};
use crate::trace::Spans;
use crate::workload::{compare_fingerprints, dir_bytes, run_iteration, Iteration, Plan, Workload};
use perennial_checker::ScenarioSet;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Version of the record this program writes.
const SCHEMA_VERSION: u64 = 1;
/// A measured run repeats its workload at least this often, so each
/// entry's fastest iteration has a few to choose from.
const MIN_ITERATIONS: usize = 3;
/// No iteration starts that would, at the pace of the last one, end
/// after this much measuring: on a host slowed several times over, a
/// run then makes fewer iterations instead of overrunning its time
/// limit.
const MEASURE_CAP: Duration = Duration::from_secs(110);
/// Registry constructions timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 101;
const USAGE: &str =
    "usage: perfbench --workload campaign|faults-wal|hunt --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value:?}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Verdicts and oracle comparisons attempted, and the wrong ones.
#[derive(Default)]
struct Tally {
    attempted: usize,
    wrong: Vec<String>,
}

impl Tally {
    fn verdicts(&mut self, what: &str, iter: &Iteration) {
        self.attempted += iter.runs.len();
        for r in &iter.runs {
            if let Some(why) = &r.wrong {
                self.wrong.push(format!("{what}: {}: {why}", r.name));
            }
        }
    }

    fn oracle(&mut self, what: &str, got: &BTreeMap<String, u64>, want: &BTreeMap<String, u64>) {
        let (compared, mismatched) = compare_fingerprints(got, want);
        self.attempted += compared;
        for name in mismatched {
            self.wrong
                .push(format!("{what}: {name}: report fingerprint differs"));
        }
    }
}

struct Setup {
    registry: ScenarioSet,
    /// Every registry construction timed in this run, s.
    registry_s: Vec<f64>,
}

impl Setup {
    /// The median registry construction.
    fn setup_s(&self) -> f64 {
        median(&self.registry_s)
    }
}

/// Builds the registry `SETUP_REPS` times, timing each construction.
fn build_registry(times: &mut Vec<f64>) -> ScenarioSet {
    let mut registry = ScenarioSet::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        registry = answers::registry();
        times.push(start.elapsed().as_secs_f64());
    }
    registry
}

fn setup() -> Setup {
    let mut registry_s = Vec::new();
    let registry = build_registry(&mut registry_s);
    Setup {
        registry,
        registry_s,
    }
}

/// The plan of a plain measured iteration.
fn base_plan(args: &Args, work: &Path, tag: &str) -> Plan {
    let mut plan = Plan::new(args.workload, args.seed);
    if args.workload.writes_wal() {
        plan.wal_dir = Some(work.join(format!("wal-{tag}")));
    }
    plan
}

fn metric(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

/// The fastest of a run's samples.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `--trace 0`: repeat the workload for `--seconds`, and at least
/// `MIN_ITERATIONS` times while `MEASURE_CAP` allows. Every iteration
/// runs the same inputs and must reproduce the first one's fingerprints.
///
/// Interference from the host (other guests taking the processors, or
/// sharing their caches) only ever adds time, and it comes and goes
/// within a run. So each figure is the fastest of its samples: each
/// entry's wall time is its fastest iteration, where an entry of a few
/// milliseconds finds a quiet moment that a median would miss, and CPU
/// time is the iteration that used least. CPU time is taken per
/// iteration because `/proc` counts it in 10 ms ticks, coarser than
/// most entries.
fn measured(args: &Args, setup: &mut Setup, work: &Path, tally: &mut Tally) -> (Metrics, Value) {
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut walls, mut steals, mut users, mut syss) = (vec![], vec![], vec![], vec![]);
    let mut per_entry: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut failing = Vec::new();
    let mut first: Option<BTreeMap<String, u64>> = None;
    let mut env = Value::Null;
    for i in 0u64.. {
        // Set-up is timed again before every iteration after the first,
        // so its median spans the run rather than one instant of it.
        if i > 0 {
            build_registry(&mut setup.registry_s);
        }
        let plan = base_plan(args, work, &i.to_string());
        let host = HostCpu::now();
        let it = run_iteration(&setup.registry, &plan, None);
        steals.push(HostCpu::now().steal_share_since(host));
        if let Some(dir) = &plan.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        tally.verdicts(&format!("iteration {i}"), &it);
        match &first {
            None => first = Some(it.fingerprints()),
            Some(fps) => tally.oracle("repeat vs first iteration", &it.fingerprints(), fps),
        }
        walls.push(it.wall_s);
        users.push(it.runs.iter().map(|r| r.cpu.user_s).sum::<f64>());
        syss.push(it.runs.iter().map(|r| r.cpu.sys_s).sum::<f64>());
        for r in &it.runs {
            per_entry
                .entry(r.name.clone())
                .or_default()
                .push(r.verdict_s);
        }
        // Verdicts repeat exactly (checked above), so any iteration's
        // failing entries are the run's.
        failing = it
            .runs
            .iter()
            .filter(|r| !r.report.passed())
            .map(|r| r.name.clone())
            .collect();
        env = it.runs[0].report.env.to_json();
        let elapsed = start.elapsed();
        let enough = walls.len() >= MIN_ITERATIONS && elapsed >= deadline;
        if enough || elapsed + Duration::from_secs_f64(it.wall_s) > MEASURE_CAP {
            break;
        }
    }
    // Time to counterexample: each failing entry's fastest, in ms.
    let ttcs: Vec<f64> = failing
        .iter()
        .map(|name| fastest(&per_entry[name]) * 1e3)
        .collect();
    let mut m = Metrics::new();
    metric(&mut m, "setup_s", setup.setup_s(), "s");
    let wall: f64 = per_entry.values().map(|v| fastest(v)).sum();
    metric(&mut m, "wall_s", wall, "s");
    metric(&mut m, "cpu_user_s", fastest(&users), "s");
    metric(&mut m, "cpu_sys_s", fastest(&syss), "s");
    metric(&mut m, "peak_rss_mb", sys::peak_rss_mb(), "MiB");
    metric(&mut m, "ttc_p50_ms", hd_quantile(&ttcs, 0.5), "ms");
    metric(&mut m, "ttc_p90_ms", hd_quantile(&ttcs, 0.9), "ms");
    let mut entry_samples = serde_json::Map::new();
    for (name, v) in &per_entry {
        entry_samples.insert(name.clone(), json!(v));
    }
    let samples = json!({
        "iterations": walls.len() as u64,
        "setup_samples": setup.registry_s.len() as u64,
        "ttc_entries": ttcs.len() as u64,
        "iteration_wall_s": walls,
        "iteration_cpu_user_s": users,
        "iteration_cpu_sys_s": syss,
        "iteration_host_steal_share": steals,
        "entry_verdict_s": Value::Object(entry_samples),
        "env": env,
    });
    (m, samples)
}

/// `--trace 1`: one untraced iteration, then traced ones (cost profile
/// on, spans around every call) and the layer probes.
fn traced(args: &Args, setup: &Setup, work: &Path, tally: &mut Tally) -> (Metrics, Value) {
    let reg = &setup.registry;
    let untraced = run_iteration(reg, &base_plan(args, work, "untraced"), None);
    tally.verdicts("untraced", &untraced);
    let reference = untraced.fingerprints();
    // The unit-cost probes run once after each iteration, so their
    // medians span the run rather than one instant of it.
    let mix = Mix::of(&untraced);
    let mut probes = vec![layers::measure(mix.ops_per_exec as usize)];

    let mut spans = Spans::new();
    let plan = Plan {
        profile: true,
        ..base_plan(args, work, "traced")
    };
    let traced = run_iteration(reg, &plan, Some((&mut spans, "traced")));
    tally.verdicts("traced", &traced);
    tally.oracle("traced vs untraced", &traced.fingerprints(), &reference);
    probes.push(layers::measure(mix.ops_per_exec as usize));

    // The same traced iteration with the WAL toggled: `faults-wal`
    // drops its WAL, the others write one.
    let variant_dir = work.join("wal-variant");
    let variant_plan = Plan {
        wal_dir: (!args.workload.writes_wal()).then(|| variant_dir.clone()),
        ..plan.clone()
    };
    let variant = run_iteration(reg, &variant_plan, Some((&mut spans, "wal-variant")));
    tally.verdicts("wal variant", &variant);
    tally.oracle("WAL on vs off", &variant.fingerprints(), &reference);
    probes.push(layers::measure(mix.ops_per_exec as usize));
    let (with_wal_s, without_wal_s, wal_dir) = if args.workload.writes_wal() {
        (
            traced.wall_s,
            variant.wall_s,
            plan.wal_dir.clone().expect("faults-wal writes a WAL"),
        )
    } else {
        (variant.wall_s, traced.wall_s, variant_dir)
    };
    let wal_bytes = dir_bytes(&wal_dir);

    // The WAL read path: resume, read-only, from the WAL just written.
    // A resumed campaign must land on the cold run's fingerprints.
    let resume_plan = Plan {
        wal_dir: None,
        resume_dir: Some(wal_dir),
        ..plan.clone()
    };
    let resumed = run_iteration(reg, &resume_plan, Some((&mut spans, "resume")));
    tally.verdicts("resumed", &resumed);
    tally.oracle("resume vs cold", &resumed.fingerprints(), &reference);

    let costs = layers::median_of(&probes);
    let m = ledger::per_layer(&Traced {
        untraced: &untraced,
        traced: &traced,
        with_wal_s,
        without_wal_s,
        wal_bytes,
        resumed: &resumed,
        mix: &mix,
        costs: &costs,
        spans: &spans,
    });
    let detail = json!({
        "iterations": 1u64,
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "wal_variant_wall_s": variant.wall_s,
        "resumed_wall_s": resumed.wall_s,
        "sampled_timelines": mix.timelines,
        "env": traced.runs[0].report.env.to_json(),
        "spans": spans.to_json(),
    });
    (m, detail)
}

fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn metrics_json(m: &Metrics) -> Value {
    let mut map = serde_json::Map::new();
    for (name, (value, unit)) in m {
        map.insert(name.clone(), json!({ "value": *value, "unit": *unit }));
    }
    Value::Object(map)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let name = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let work = PathBuf::from(".perfbench_work").join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("creating the work directory");

    let mut tally = Tally::default();
    let mut setup = setup();
    let (metrics, detail) = if args.trace {
        traced(&args, &setup, &work, &mut tally)
    } else {
        measured(&args, &mut setup, &work, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");

    for w in &tally.wrong {
        eprintln!("perfbench: wrong: {w}");
    }
    let record = json!({
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": sys::nproc() as u64,
        "workers": workload::workers() as u64,
        "git_head": git_head(),
        "rust_backtrace": std::env::var("RUST_BACKTRACE").unwrap_or_default(),
        "attempted": tally.attempted as u64,
        "wrong": tally.wrong.clone(),
        "metrics": metrics_json(&metrics),
        "detail": detail,
    });
    let out = Path::new(".perfbench_out").join(format!("{name}.json"));
    let written = std::fs::create_dir_all(".perfbench_out").and_then(|()| {
        std::fs::write(
            &out,
            serde_json::to_string_pretty(&record).expect("record JSON"),
        )
    });
    match written {
        Ok(()) => println!("record: {}", out.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", out.display()),
    }
    for (name, (value, unit)) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let result = json!({
        "correct": tally.wrong.is_empty(),
        "attempted": tally.attempted as u64,
        "failed": tally.wrong.len() as u64,
        "metrics": metrics_json(&metrics),
    });
    println!("{}", serde_json::to_string(&result).expect("result JSON"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload hunt --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Hunt);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(args("--workload hunt --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload hunt --seed 3 --seconds 10").is_err());
        assert!(args("--workload hunt --seed").is_err());
    }

    /// BENCHMARK.json at the repository root names exactly the metrics
    /// and workloads this program prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("reading BENCHMARK.json");
        let v = serde_json::from_str(&text).expect("parsing BENCHMARK.json");
        let field = |v: &Value, k: &str| match v {
            Value::Object(m) => m.get(k).cloned(),
            _ => None,
        };
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(items)) = field(&v, key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|i| {
                    let s = |k: &str| match field(i, k) {
                        Some(Value::String(s)) => s,
                        _ => String::new(),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let mut want: Vec<(String, String)> = ledger::names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        want.sort();
        let mut got = names("per_layer");
        got.sort();
        assert_eq!(got, want);
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let all: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, all);
        let mut e2e: Vec<String> = names("end_to_end").into_iter().map(|(n, _)| n).collect();
        e2e.sort();
        assert_eq!(
            e2e,
            [
                "cpu_sys_s",
                "cpu_user_s",
                "peak_rss_mb",
                "setup_s",
                "ttc_p50_ms",
                "ttc_p90_ms",
                "wall_s"
            ]
        );
    }
}
