//! The three workloads: their checker configurations, and one iteration
//! (every selected registry entry through `Scenario::run`, each failure
//! confirmed by `Scenario::replay`) with its verdicts checked against
//! the answer table.

use crate::answers::{expected_pass, is_mutant};
use crate::sys::Cpu;
use crate::trace::Spans;
use perennial_checker::{
    failure_fingerprint, report_fingerprint, CheckConfig, CheckReport, Pass, ScenarioSet,
    SleepSetDpor, TelemetrySink,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 46 entries, exhaustive strategy, no fault sweeps, no WAL.
    Campaign,
    /// All 46 entries, DPOR, fault sweeps on, a WAL per scenario.
    FaultsWal,
    /// The 28 mutants, DPOR, fault sweeps on, stop at the first
    /// failure, shrink it, replay it.
    Hunt,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Campaign, Workload::FaultsWal, Workload::Hunt];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::FaultsWal => "faults-wal",
            Workload::Hunt => "hunt",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the disk, torn-write and network fault sweeps run.
    pub fn faults(self) -> bool {
        self != Workload::Campaign
    }

    /// Whether a registry entry belongs to this workload.
    pub fn selects(self, name: &str) -> bool {
        self != Workload::Hunt || is_mutant(name)
    }

    /// Whether the first counterexample is shrunk before it is replayed.
    pub fn shrinks(self) -> bool {
        self == Workload::Hunt
    }

    /// Whether a plain measured iteration writes a WAL.
    pub fn writes_wal(self) -> bool {
        self == Workload::FaultsWal
    }
}

/// Checker worker threads: two, or one on a single processor.
pub fn workers() -> usize {
    crate::sys::nproc().min(2)
}

/// One iteration's settings on top of its workload.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Attach the checker's cost profile to every report.
    pub profile: bool,
    /// Write one WAL per scenario into this directory.
    pub wal_dir: Option<PathBuf>,
    /// Resume every scenario from its WAL in this directory, read-only.
    pub resume_dir: Option<PathBuf>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        Plan {
            workload,
            seed,
            profile: false,
            wal_dir: None,
            resume_dir: None,
        }
    }

    /// `scan`'s campaign knobs plus this workload's strategy and passes.
    fn config(&self, name: &str) -> CheckConfig {
        let mut b = CheckConfig::builder()
            .seed(self.seed)
            .dfs_max_executions(300)
            .random_samples(10)
            .random_crash_samples(25)
            .max_steps(200_000)
            .keep_going(self.workload != Workload::Hunt)
            .workers(workers())
            .profile(self.profile)
            .shrink(self.workload.shrinks());
        if self.workload.faults() {
            b = b.strategy(SleepSetDpor).with_passes([
                Pass::DiskFault,
                Pass::TornWrite,
                Pass::NetFault,
            ]);
        }
        if let Some(dir) = &self.resume_dir {
            b = b.resume_from(wal_path(dir, name));
        }
        if let Some(dir) = &self.wal_dir {
            b = b.telemetry_path(wal_path(dir, name));
        }
        b.build()
    }
}

/// One WAL file per scenario: `"kv/cross-bucket"` → `kv__cross-bucket.jsonl`.
pub fn wal_path(dir: &Path, scenario: &str) -> PathBuf {
    dir.join(format!("{}.jsonl", scenario.replace('/', "__")))
}

/// The system family a registry name belongs to (`kv`, `repldisk`, ...).
pub fn family(name: &str) -> &str {
    name.split('/').next().unwrap_or(name)
}

/// One registry entry's run.
pub struct ScenarioRun {
    pub name: String,
    pub report: CheckReport,
    /// Wall time of `Scenario::run`.
    pub run_s: f64,
    /// Wall time of `Scenario::replay` of the first counterexample.
    pub replay_s: Option<f64>,
    /// Time from the start of `Scenario::run` to a checked verdict: the
    /// run, plus the replay that confirms a counterexample. For a
    /// failing entry this is its time to counterexample.
    pub verdict_s: f64,
    /// Process CPU time over the same interval.
    pub cpu: Cpu,
    /// Traced shrinking runs only: the span from the last execution
    /// record of the telemetry stream to its `run_end` record, which
    /// holds the shrink.
    pub shrink_s: Option<f64>,
    /// Why the verdict is wrong, if it is.
    pub wrong: Option<String>,
}

pub struct Iteration {
    pub wall_s: f64,
    pub runs: Vec<ScenarioRun>,
}

impl Iteration {
    /// Report fingerprints by registry name.
    pub fn fingerprints(&self) -> BTreeMap<String, u64> {
        self.runs
            .iter()
            .map(|r| (r.name.clone(), report_fingerprint(&r.report)))
            .collect()
    }
}

/// Runs every registry entry the workload selects, in registry order.
/// With `spans`, each call into the checker is recorded under a root
/// span named `label`.
pub fn run_iteration(
    registry: &ScenarioSet,
    plan: &Plan,
    mut spans: Option<(&mut Spans, &str)>,
) -> Iteration {
    if let Some(dir) = &plan.wal_dir {
        std::fs::create_dir_all(dir).expect("creating the WAL directory");
    }
    let root = spans.as_mut().map(|(s, label)| s.open(label, None, ""));
    let start = Instant::now();
    let mut runs = Vec::new();
    for scenario in registry.iter().filter(|s| plan.workload.selects(s.name())) {
        let name = scenario.name();
        let mut cfg = plan.config(name);
        // A telemetry stream whose records are stamped on arrival brackets
        // the shrink, which runs between the last execution and
        // `run_end`. It would replace a WAL, so only WAL-less runs get it.
        let stamps =
            (spans.is_some() && plan.workload.shrinks() && plan.wal_dir.is_none()).then(|| {
                let stamps = Stamps::default();
                cfg.telemetry = Some(TelemetrySink::to_writer(StampWriter {
                    line: Vec::new(),
                    stamps: stamps.clone(),
                }));
                stamps
            });
        let span = spans
            .as_mut()
            .map(|(s, _)| s.open("checker.run", root, name));
        let cpu = Cpu::now();
        let t0 = Instant::now();
        let mut report = scenario.run(&cfg);
        let run_s = t0.elapsed().as_secs_f64();
        if let (Some((s, _)), Some(id)) = (spans.as_mut(), span) {
            s.close(id);
        }
        // Reports carry the harness's human name, which mutants share
        // with their base scenario; key on the unique registry name.
        report.name = name.to_string();
        let shrink = stamps.and_then(|st| st.shrink_span());
        let shrink_s = shrink.map(|(from, to)| (to - from).as_secs_f64());
        if let (Some((s, _)), Some((from, to))) = (spans.as_mut(), shrink) {
            s.record("checker.shrink", span, name, from, to);
        }
        let mut replay_s = None;
        let mut wrong = None;
        if let Some(cx) = &report.counterexample {
            let span = spans
                .as_mut()
                .map(|(s, _)| s.open("checker.replay", root, name));
            let t1 = Instant::now();
            let (outcome, _) = scenario.replay(cx, &cfg);
            replay_s = Some(t1.elapsed().as_secs_f64());
            if let (Some((s, _)), Some(id)) = (spans.as_mut(), span) {
                s.close(id);
            }
            if failure_fingerprint(&outcome) != failure_fingerprint(&cx.outcome) {
                wrong = Some("counterexample does not replay to its failure".to_string());
            }
        }
        let verdict_s = t0.elapsed().as_secs_f64();
        let cpu = Cpu::now().since(cpu);
        let verdict = if report.passed() { "PASS" } else { "FAIL" };
        wrong = match expected_pass(name, plan.workload.faults()) {
            None => Some("not in the answer table".to_string()),
            Some(_) if report.is_incomplete() => {
                Some(format!("INCOMPLETE: {:?}", report.incomplete))
            }
            Some(pass) if pass != report.passed() => Some(format!("{verdict}, expected the other")),
            Some(_) => wrong,
        };
        runs.push(ScenarioRun {
            name: name.to_string(),
            report,
            run_s,
            replay_s,
            verdict_s,
            cpu,
            shrink_s,
            wrong,
        });
    }
    let wall_s = start.elapsed().as_secs_f64();
    if let (Some((s, _)), Some(id)) = (spans.as_mut(), root) {
        s.close(id);
    }
    Iteration { wall_s, runs }
}

/// Compares fingerprints with a reference run; returns (compared,
/// mismatched names).
pub fn compare_fingerprints(
    got: &BTreeMap<String, u64>,
    want: &BTreeMap<String, u64>,
) -> (usize, Vec<String>) {
    let mismatched = want
        .iter()
        .filter(|(name, fp)| got.get(*name) != Some(fp))
        .map(|(name, _)| name.clone())
        .collect();
    (want.len(), mismatched)
}

/// Total bytes of the files in a directory (the WAL a run wrote).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Arrival times of telemetry records, by record type.
#[derive(Clone, Default)]
struct Stamps(Arc<Mutex<Vec<(Instant, String)>>>);

impl Stamps {
    /// From the last execution record to `run_end`.
    fn shrink_span(&self) -> Option<(Instant, Instant)> {
        let marks = self.0.lock().expect("stamp list lock");
        let last_exec = marks
            .iter()
            .filter(|(_, t)| t == "exec_done" || t == "counterexample")
            .map(|(at, _)| *at)
            .max()?;
        let end = marks.iter().find(|(_, t)| t == "run_end")?.0;
        Some((last_exec, end))
    }
}

/// A telemetry writer that keeps only each record's type and arrival
/// time. The sink writes a record, then flushes, once per line.
struct StampWriter {
    line: Vec<u8>,
    stamps: Stamps,
}

impl Write for StampWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.line.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.line.is_empty() {
            let now = Instant::now();
            let text = String::from_utf8_lossy(&self.line);
            let kind = text
                .split_once("\"type\": \"")
                .and_then(|(_, rest)| rest.split('"').next())
                .unwrap_or("")
                .to_string();
            self.stamps
                .0
                .lock()
                .expect("stamp list lock")
                .push((now, kind));
            self.line.clear();
        }
        Ok(())
    }
}
