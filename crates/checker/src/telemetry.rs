//! Telemetry: the explorer's structured JSONL event stream, live
//! counters, and the periodic progress line.
//!
//! Everything here is a **side channel**: sinks observe the exploration
//! but feed nothing back into scheduling, seeding, or counterexample
//! selection, so a run with telemetry enabled reports byte-for-byte the
//! same [`crate::Counterexample`] as one without (pinned by
//! `tests/telemetry.rs`). Two kinds of state live here:
//!
//! - [`TelemetrySink`] — a shared JSONL writer. One JSON object per
//!   line, schema documented in DESIGN.md §11: `run_start`,
//!   `pass_start`, `exec_done`, `counterexample`, `run_end`. Event
//!   *content* is deterministic (timing fields excepted); event *order*
//!   is completion order, so it is canonical at `workers = 1` and
//!   interleaved-but-complete at higher pool sizes.
//! - [`MetricsSink`] — lock-free live counters the worker pool bumps as
//!   executions finish, feeding the opt-in progress line
//!   ([`CheckConfig::progress_every`](crate::CheckConfig)). These are
//!   wall-clock-ordered and therefore *not* the numbers reported in
//!   [`crate::CheckReport`]; the deterministic ones are computed in
//!   [`crate::OutcomeFold`] from canonical execution records.

use crate::explore::{CheckConfig, CheckReport, Counterexample};
use crate::fold::{ExecRecord, ExecStats};
use crate::metrics::{OutcomeCounts, OutcomeKind};
use crate::pass::Pass;
use parking_lot::Mutex;
use serde_json::{json, Map, Value};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared handle to a JSONL event stream. Cloning shares the
/// underlying writer (all clones append to the same stream).
#[derive(Clone)]
pub struct TelemetrySink {
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
    /// First write error, if any. Telemetry never aborts a check, but a
    /// campaign resuming from this stream would silently lose progress,
    /// so the error surfaces in `CheckReport::incomplete`.
    error: Arc<Mutex<Option<String>>>,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySink").finish_non_exhaustive()
    }
}

impl TelemetrySink {
    /// Streams events into any writer (a file, a pipe, a test buffer).
    pub fn to_writer(w: impl Write + Send + 'static) -> Self {
        TelemetrySink {
            writer: Arc::new(Mutex::new(Box::new(w))),
            error: Arc::new(Mutex::new(None)),
        }
    }

    /// Creates (truncates) a JSONL file at `path`.
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::to_writer(std::io::BufWriter::new(f)))
    }

    /// Opens `path` for appending, creating it if absent — the WAL mode
    /// used when a resumed run checkpoints into the stream it replayed.
    pub fn append_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self::to_writer(std::io::BufWriter::new(f)))
    }

    /// A sink backed by an in-memory buffer, plus the buffer — the
    /// test-side way to capture and inspect a stream.
    pub fn shared_buffer() -> (Self, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (TelemetrySink::to_writer(SharedBuf(Arc::clone(&buf))), buf)
    }

    /// Appends one event as a compact JSON line. Write errors never
    /// abort the check; the first one is recorded and surfaced via
    /// [`TelemetrySink::last_error`].
    pub fn emit(&self, event: &Value) {
        let line = serde_json::to_string(event).expect("shim serialization is infallible");
        let mut w = self.writer.lock();
        let r = w
            .write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush());
        if let Err(e) = r {
            let mut slot = self.error.lock();
            if slot.is_none() {
                *slot = Some(e.to_string());
            }
        }
    }

    /// The first write error this sink hit, if any.
    pub fn last_error(&self) -> Option<String> {
        self.error.lock().clone()
    }
}

struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Live, lock-free counters the worker pool bumps per finished
/// execution. Wall-clock ordered — the progress line's feed, not the
/// report's.
#[derive(Debug, Default)]
pub struct MetricsSink {
    executions: AtomicU64,
    steps: AtomicU64,
    failures: AtomicU64,
}

impl MetricsSink {
    /// Records one finished execution; returns the new execution count
    /// (the progress-line trigger).
    pub fn record_exec(&self, steps: u64, failed: bool) -> u64 {
        self.steps.fetch_add(steps, Ordering::Relaxed);
        if failed {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        self.executions.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Executions finished so far.
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// Scheduler steps granted so far, summed over all executions.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Executions that ended in a failure outcome so far.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// The progress line printed every N executions (stderr, so it
    /// never pollutes piped report output).
    pub fn progress_line(&self, name: &str, since_start: Duration) -> String {
        let execs = self.executions();
        let rate = execs as f64 / since_start.as_secs_f64().max(1e-9);
        format!(
            "[checker] {name}: {execs} execs, {} steps, {} failures, {rate:.0} execs/s",
            self.steps(),
            self.failures()
        )
    }
}

/// Per-run telemetry context threaded through the explorer: the
/// optional event stream, the live counters, and the progress cadence.
pub struct RunTelemetry {
    /// The JSONL event stream, when one was configured and opened.
    pub stream: Option<TelemetrySink>,
    /// Live in-memory counters backing the progress line.
    pub live: MetricsSink,
    /// Print the progress line every this many executions (0 = never).
    pub progress_every: u64,
    /// When the run started, for the execs/s rate in the progress line.
    pub start: Instant,
    /// Scenario name, stamped onto every emitted record.
    pub name: String,
    /// Set when the configured telemetry file could not be opened: the
    /// run degrades to in-memory metrics instead of aborting, and the
    /// report is marked incomplete (no checkpoint was written).
    pub open_error: Option<String>,
}

impl RunTelemetry {
    /// Builds the telemetry context for one run, opening the configured
    /// stream (shared sink, or file path — appending when resuming into
    /// the same file the WAL was replayed from).
    pub fn new(name: &str, config: &CheckConfig) -> Self {
        let mut open_error = None;
        let stream = config.telemetry.clone().or_else(|| {
            config.telemetry_path.as_ref().and_then(|p| {
                // Resuming into the same file the WAL was replayed from
                // must append; every other open truncates as before.
                let same = config.resume_from.as_deref() == Some(p.as_path());
                let opened = if same {
                    TelemetrySink::append_file(p)
                } else {
                    TelemetrySink::to_file(p)
                };
                match opened {
                    Ok(sink) => Some(sink),
                    Err(e) => {
                        let msg = format!("telemetry file {}: {e}", p.display());
                        eprintln!("[checker] {name}: {msg}; continuing without a stream");
                        open_error = Some(msg);
                        None
                    }
                }
            })
        });
        RunTelemetry {
            stream,
            live: MetricsSink::default(),
            progress_every: config.progress_every,
            start: Instant::now(),
            name: name.to_string(),
            open_error,
        }
    }

    /// The first write error the stream hit, if any.
    pub fn stream_error(&self) -> Option<String> {
        self.stream.as_ref().and_then(|s| s.last_error())
    }

    /// Writes one event to the stream (no-op when no stream is open),
    /// stamping the scenario name onto records that lack one.
    pub fn emit(&self, event: &Value) {
        if let Some(stream) = &self.stream {
            // Stamp every record with its scenario, so streams holding
            // several runs (scenario_smoke --telemetry appends all
            // scenarios to one file) stay attributable line-by-line.
            let mut v = event.clone();
            if let Value::Object(map) = &mut v {
                if map.get("scenario").is_none() {
                    map.insert("scenario".to_string(), Value::String(self.name.clone()));
                }
            }
            stream.emit(&v);
        }
    }

    /// Bumps the live counters and prints the progress line when the
    /// cadence says so.
    pub fn exec_finished(&self, steps: u64, failed: bool) {
        let n = self.live.record_exec(steps, failed);
        if self.progress_every > 0 && n.is_multiple_of(self.progress_every) {
            eprintln!(
                "{}",
                self.live.progress_line(&self.name, self.start.elapsed())
            );
        }
    }
}

/// 64-bit values (seeds, fingerprints) go into JSON as hex strings: the
/// shim's numbers are f64 and would silently round above 2^53. Always
/// zero-padded to 16 hex digits (18 chars with the `0x` prefix) so hex
/// fields are fixed-width, lexicographically ordered, and trivially
/// greppable across a campaign's worth of streams.
pub(crate) fn hex64(v: u64) -> String {
    format!("{v:#018x}")
}

// Typed field getters shared by every reader of checker JSON (WAL
// replay, report deserialization, dashboards): `None` when the field is
// missing or has the wrong type.

/// `m[key]` as a non-negative integer.
pub(crate) fn u64_field(m: &Map, key: &str) -> Option<u64> {
    f64_field(m, key).filter(|n| *n >= 0.0).map(|n| n as u64)
}

/// `m[key]` as a number.
pub(crate) fn f64_field(m: &Map, key: &str) -> Option<f64> {
    match m.get(key) {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

/// `m[key]` as a string.
pub(crate) fn str_field<'a>(m: &'a Map, key: &str) -> Option<&'a str> {
    match m.get(key) {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

/// `m[key]` as a [`hex64`] string, decoded.
pub(crate) fn hex_field(m: &Map, key: &str) -> Option<u64> {
    u64::from_str_radix(str_field(m, key)?.trim_start_matches("0x"), 16).ok()
}

/// `m[key]` as an array.
pub(crate) fn arr_field<'a>(m: &'a Map, key: &str) -> Option<&'a [Value]> {
    match m.get(key) {
        Some(Value::Array(items)) => Some(items),
        _ => None,
    }
}

/// `m[key]` as an object.
pub(crate) fn obj_field<'a>(m: &'a Map, key: &str) -> Option<&'a Map> {
    match m.get(key) {
        Some(Value::Object(o)) => Some(o),
        _ => None,
    }
}

/// Where a record was produced: toolchain, crate version, worker count,
/// and strategy. Stamped on every `run_start` record and on campaign
/// report JSON / perf baselines, so streams and baselines from
/// different machines are comparable — a perf diff against a baseline
/// built by a different rustc or worker count is flagged, not silently
/// trusted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvStamp {
    /// `rustc --version` of the compiler that built the checker.
    pub rustc: String,
    /// The checker crate's own version (`CARGO_PKG_VERSION`).
    pub crate_version: String,
    /// Worker-thread count the run used.
    pub workers: u64,
    /// Exploration strategy name (`exhaustive`, `dpor`, `coverage`).
    pub strategy: String,
}

impl EnvStamp {
    /// The stamp for this build and run configuration.
    pub fn current(workers: u64, strategy: &str) -> Self {
        EnvStamp {
            rustc: env!("CHECKER_RUSTC_VERSION").to_string(),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            workers,
            strategy: strategy.to_string(),
        }
    }

    /// Serializes the stamp as the `env` object of a `run_start` record.
    pub fn to_json(&self) -> Value {
        json!({
            "rustc": self.rustc,
            "crate_version": self.crate_version,
            "workers": self.workers,
            "strategy": self.strategy,
        })
    }

    /// Parses a stamp back out of report/baseline JSON; `None` when any
    /// field is missing or mistyped.
    pub fn from_json(v: &Value) -> Option<EnvStamp> {
        let Value::Object(m) = v else { return None };
        Some(EnvStamp {
            rustc: str_field(m, "rustc")?.to_string(),
            crate_version: str_field(m, "crate_version")?.to_string(),
            workers: u64_field(m, "workers")?,
            strategy: str_field(m, "strategy")?.to_string(),
        })
    }
}

/// The `run_start` record: the full deterministic configuration of the
/// run. Deliberately excludes observer-only knobs (trace capture,
/// profiling, shrinking) so enabling them never invalidates a WAL.
pub fn ev_run_start(name: &str, config: &CheckConfig, workers: usize) -> Value {
    json!({
        "type": "run_start",
        "scenario": name,
        "seed": hex64(config.seed),
        "workers": workers,
        "env": EnvStamp::current(workers as u64, config.strategy.name()).to_json(),
        "max_steps": config.max_steps,
        "dfs_max_executions": config.dfs_max_executions,
        "random_samples": config.random_samples,
        "random_crash_samples": config.random_crash_samples,
        "passes": config.passes.iter().map(Pass::name).collect::<Vec<_>>(),
        "strategy": config.strategy.name(),
        "keep_going": config.keep_going,
        "shard": config.shard.map(|(i, n)| format!("{i}/{n}")),
        "exec_budget": config.exec_budget,
    })
}

/// The `pass_start` record: a pass began enumerating jobs.
pub fn ev_pass_start(pass: Pass) -> Value {
    json!({
        "type": "pass_start",
        "pass": pass.name(),
        "rank": pass.rank(),
    })
}

/// Closes a pass with its wall-time profile. `duration_us` is a
/// [`TIMING_KEYS`] member, so byte-stability comparisons see a stable
/// record while dashboards get a per-pass wall profile.
pub fn ev_pass_end(pass: Pass, duration: Duration) -> Value {
    json!({
        "type": "pass_end",
        "pass": pass.name(),
        "rank": pass.rank(),
        "duration_us": (duration.as_micros() as u64),
    })
}

/// The `exec_done` record for one finished execution. It doubles as the
/// campaign WAL entry: it carries every deterministic statistic a
/// resumed run needs to reconstruct the execution's record without
/// re-running it. `faults` is the plan's compact description.
pub(crate) fn ev_exec_done(rec: &ExecRecord, faults: &str) -> Value {
    let mut ev = json!({
        "type": "exec_done",
        "pass": rec.pass.name(),
        "index": rec.key.1,
        "seed": hex64(rec.seed),
        "outcome": rec.outcome.name(),
        "faults": faults,
        "duration_us": (rec.duration.as_micros() as u64),
    });
    if let Value::Object(m) = &mut ev {
        rec.stats.write_json(m);
    }
    ev
}

/// Reads an `exec_done` record back: job key, seed, outcome, counters,
/// and duration (`None` when a required field is missing).
pub(crate) fn parse_exec_done(m: &Map) -> Option<ExecRecord> {
    let pass: Pass = str_field(m, "pass")?.parse().ok()?;
    Some(ExecRecord {
        key: (pass.rank(), u64_field(m, "index")?),
        pass,
        seed: hex_field(m, "seed").unwrap_or(0),
        outcome: OutcomeKind::from_name(str_field(m, "outcome")?)?,
        stats: ExecStats::from_json(m)?,
        duration: Duration::from_micros(u64_field(m, "duration_us").unwrap_or(0)),
        ..ExecRecord::default()
    })
}

/// The `counterexample` record: the replay coordinates of one failure
/// (pass, index, seed, schedule prefix, crash points, fault plan).
pub fn ev_counterexample(cx: &Counterexample) -> Value {
    json!({
        "type": "counterexample",
        "pass": cx.pass.name(),
        "index": cx.index,
        "seed": hex64(cx.seed),
        "outcome": OutcomeKind::of(&cx.outcome).name(),
        "crash_points": cx.crash_points,
        "schedule_prefix": cx.schedule_prefix,
        "faults": cx.faults.compact(),
    })
}

/// The `run_end` record: the report's deterministic totals and verdict.
/// Shrink statistics are appended only when shrinking ran, so
/// shrink-off streams stay byte-identical to pre-shrink ones.
pub fn ev_run_end(report: &CheckReport) -> Value {
    let mut ev = json!({
        "type": "run_end",
        "scenario": report.name,
        "passed": report.passed(),
        "executions": report.executions,
        "total_steps": report.total_steps,
        "crashes_injected": report.crashes_injected,
        "crash_points": report.crash_points,
        "fault_plans": report.fault_plans,
        "disk_reads": report.disk_reads,
        "disk_writes": report.disk_writes,
        "disk_flushes": report.disk_flushes,
        "net_sends": report.net_sends,
        "net_recvs": report.net_recvs,
        "counterexamples": report.counterexamples.len(),
        "outcomes": report.outcomes.to_json(),
        "crash_points_exercised": report.coverage.crash_points_exercised,
        "crash_points_enumerable": report.coverage.crash_points_enumerable,
        "fault_plans_exercised": report.coverage.fault_plans_exercised(),
        "fault_plans_enumerable": report.coverage.fault_plans_enumerable(),
        "distinct_traces": report.coverage.distinct_traces,
        "strategy": report.strategy,
        "pruned": report.pruned,
        "coverage_guided": report.coverage_guided,
        "shard": report.shard.map(|(i, n)| format!("{i}/{n}")),
        "replayed": report.replayed,
        "incomplete": report.incomplete,
        "workers": report.workers,
        "wall_time_s": report.wall_time.as_secs_f64(),
        "execs_per_sec": report.execs_per_sec,
    });
    // Shrink bookkeeping rides along only when shrinking actually ran,
    // so shrink-off streams stay byte-identical to pre-shrink ones.
    if let Some(s) = &report.shrink {
        if let Value::Object(map) = &mut ev {
            map.insert(
                "shrink_steps_removed".to_string(),
                serde_json::to_value(&s.steps_removed),
            );
            map.insert("shrink_rounds".to_string(), serde_json::to_value(&s.rounds));
            map.insert(
                "shrink_re_runs".to_string(),
                serde_json::to_value(&s.re_runs),
            );
        }
    }
    ev
}

/// Reads a `run_end` record back as a partial report of that run's
/// totals — what the campaign dashboard merges across shards. The record carries no
/// sets, per-pass rows, or helped ops, so once merged its set-backed
/// coverage counts are lower bounds (see
/// [`OutcomeFold::merge`](crate::OutcomeFold::merge)). Its
/// fault-plan counts are pooled over the three surfaces; they land in
/// the disk slots, so only the pooled sums
/// ([`crate::Coverage::fault_plans_exercised`] and
/// [`crate::Coverage::fault_plans_enumerable`]) are meaningful.
pub fn parse_run_end(m: &Map) -> CheckReport {
    let n = |key: &str| u64_field(m, key).unwrap_or(0);
    let mut f = CheckReport {
        executions: n("executions") as usize,
        total_steps: n("total_steps"),
        crashes_injected: n("crashes_injected") as usize,
        crash_points: n("crash_points") as usize,
        fault_plans: n("fault_plans") as usize,
        disk_reads: n("disk_reads"),
        disk_writes: n("disk_writes"),
        disk_flushes: n("disk_flushes"),
        net_sends: n("net_sends"),
        net_recvs: n("net_recvs"),
        pruned: n("pruned"),
        coverage_guided: n("coverage_guided"),
        outcomes: obj_field(m, "outcomes")
            .and_then(OutcomeCounts::from_json)
            .unwrap_or_default(),
        replayed: n("replayed"),
        workers: n("workers") as usize,
        wall_time: Duration::from_secs_f64(f64_field(m, "wall_time_s").unwrap_or(0.0).max(0.0)),
        ..CheckReport::default()
    };
    let cov = &mut f.coverage;
    cov.crash_points_exercised = n("crash_points_exercised");
    cov.crash_points_enumerable = n("crash_points_enumerable");
    cov.disk_fault_plans_exercised = n("fault_plans_exercised");
    cov.disk_fault_plans_enumerable = n("fault_plans_enumerable");
    cov.distinct_traces = n("distinct_traces");
    for msg in arr_field(m, "incomplete").unwrap_or_default() {
        if let Value::String(msg) = msg {
            f.incomplete.push(msg.clone());
        }
    }
    f
}

/// Keys whose values are wall-clock dependent. Strip these before
/// comparing two streams of the same seeded run for byte equality.
/// `busy_time_us` and `utilization` appear only in profile JSON
/// ([`crate::profile::profile_to_json`]), never in telemetry events, so
/// extending the list cannot destabilize existing streams.
pub const TIMING_KEYS: [&str; 5] = [
    "duration_us",
    "wall_time_s",
    "execs_per_sec",
    "busy_time_us",
    "utilization",
];

/// Validates one JSONL line: parseable, an object, with a string
/// `type`. Returns the event type.
pub fn validate_json_line(line: &str) -> Result<String, String> {
    let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let Value::Object(map) = &v else {
        return Err("telemetry line is not a JSON object".to_string());
    };
    str_field(map, "type")
        .map(str::to_string)
        .ok_or_else(|| "telemetry line has no string \"type\" field".to_string())
}

/// The recovered state of an interrupted (or completed) run: which
/// executions finished, plus enough metadata to sanity-check that the
/// WAL belongs to the configuration about to resume.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Successfully completed executions by job key `(pass rank, index)`.
    /// Only `ok` outcomes are recorded: failures are cheap to re-run and
    /// must be, to regenerate their counterexample payloads.
    pub completed: std::collections::BTreeMap<(u8, u64), ExecStats>,
    /// Number of `run_start` records seen (1 = first resume of a clean
    /// run; more = the WAL has been resumed into before).
    pub runs_started: u64,
    /// Lines that failed to parse — a SIGKILL mid-write leaves at most
    /// one torn final line, which replay tolerates and drops.
    pub torn_lines: u64,
    /// The last `run_start` record, for the config guard.
    pub run_start: Option<Value>,
}

/// Parses a JSONL telemetry stream as a write-ahead log for `scenario`.
///
/// Tolerant by construction: unparseable lines (torn tails from a
/// mid-write kill) are counted and dropped, records for other scenarios
/// are skipped, and `exec_done` records missing required fields are
/// ignored rather than trusted.
pub fn parse_wal(text: &str, scenario: &str) -> WalReplay {
    let mut wal = WalReplay::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(Value::Object(map)) = serde_json::from_str(line) else {
            wal.torn_lines += 1;
            continue;
        };
        let Some(ty) = str_field(&map, "type") else {
            wal.torn_lines += 1;
            continue;
        };
        // Streams can hold several scenarios (scenario_smoke appends
        // all of them to one file); replay only this scenario's lines.
        if str_field(&map, "scenario").is_some_and(|s| s != scenario) {
            continue;
        }
        match ty {
            "run_start" => {
                wal.runs_started += 1;
                wal.run_start = Some(Value::Object(map));
            }
            "exec_done" => {
                // Only `ok` executions are replayable: failures re-run
                // to regenerate their counterexample payloads.
                if let Some(rec) = parse_exec_done(&map) {
                    if rec.outcome == OutcomeKind::Ok {
                        wal.completed.insert(rec.key, rec.stats);
                    }
                }
            }
            _ => {}
        }
    }
    wal
}

/// Reads `path` and parses it as a WAL for `scenario`. Invalid UTF-8 is
/// replaced rather than fatal — the log survives arbitrary torn tails.
pub fn read_wal(path: impl AsRef<Path>, scenario: &str) -> std::io::Result<WalReplay> {
    let bytes = std::fs::read(path)?;
    Ok(parse_wal(&String::from_utf8_lossy(&bytes), scenario))
}

/// Rebuilds a parsed event without its [`TIMING_KEYS`] (recursively) —
/// the canonical form for byte-stability comparisons.
pub fn strip_timing(v: &Value) -> Value {
    match v {
        Value::Object(map) => {
            let mut out = serde_json::Map::new();
            for (k, val) in map.iter() {
                if !TIMING_KEYS.contains(&k.as_str()) {
                    out.insert(k.clone(), strip_timing(val));
                }
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_emits_one_line_per_event() {
        let (sink, buf) = TelemetrySink::shared_buffer();
        sink.emit(&json!({ "type": "run_start", "scenario": "t" }));
        sink.emit(&json!({ "type": "run_end" }));
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(validate_json_line(lines[0]).unwrap(), "run_start");
        assert_eq!(validate_json_line(lines[1]).unwrap(), "run_end");
    }

    #[test]
    fn clones_share_the_stream() {
        let (sink, buf) = TelemetrySink::shared_buffer();
        let clone = sink.clone();
        sink.emit(&json!({ "type": "a" }));
        clone.emit(&json!({ "type": "b" }));
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn metrics_sink_counts_and_renders_progress() {
        let sink = MetricsSink::default();
        assert_eq!(sink.record_exec(10, false), 1);
        assert_eq!(sink.record_exec(5, true), 2);
        assert_eq!(sink.executions(), 2);
        assert_eq!(sink.steps(), 15);
        assert_eq!(sink.failures(), 1);
        let line = sink.progress_line("demo", Duration::from_secs(1));
        assert!(line.contains("demo: 2 execs"), "{line}");
        assert!(line.contains("1 failures"), "{line}");
    }

    #[test]
    fn strip_timing_removes_only_timing_keys() {
        let v = json!({
            "type": "exec_done",
            "steps": 7,
            "duration_us": 123,
            "nested": { "wall_time_s": 0.5, "kept": true },
        });
        let stripped = strip_timing(&v);
        let text = serde_json::to_string(&stripped).unwrap();
        assert!(!text.contains("duration_us"), "{text}");
        assert!(!text.contains("wall_time_s"), "{text}");
        assert!(text.contains("\"steps\": 7"), "{text}");
        assert!(text.contains("\"kept\": true"), "{text}");
    }

    #[test]
    fn validate_rejects_non_events() {
        assert!(validate_json_line("not json").is_err());
        assert!(validate_json_line("[1,2]").is_err());
        assert!(validate_json_line("{\"no_type\": 1}").is_err());
    }

    fn stats() -> ExecStats {
        ExecStats {
            steps: 7,
            depth: 3,
            crashes: 1,
            helped: 2,
            lock_blocks: 6,
            disk_ops: 4,
            net_msgs: 5,
            disk_reads: 11,
            disk_writes: 12,
            disk_flushes: 13,
            net_sends: 14,
            net_recvs: 15,
            trace_fp: 0xdead_beef,
        }
    }

    fn exec_event(seed: u64, outcome: OutcomeKind) -> Value {
        let rec = ExecRecord {
            seed,
            outcome,
            stats: stats(),
            ..ExecRecord::default()
        };
        ev_exec_done(&rec, "-")
    }

    #[test]
    fn big_seeds_survive_as_hex() {
        let seed = u64::MAX - 12345;
        let text = serde_json::to_string(&exec_event(seed, OutcomeKind::Ok)).unwrap();
        assert!(text.contains(&format!("{seed:#018x}")), "{text}");
        assert!(text.contains("0x00000000deadbeef"), "{text}");
    }

    /// Every hex-encoded 64-bit field in every event type is exactly 18
    /// characters: `0x` plus 16 zero-padded hex digits. Fixed width
    /// keeps the fields greppable and lexicographically ordered across a
    /// campaign's worth of streams.
    #[test]
    fn hex_fields_are_zero_padded_to_16_digits_in_every_event() {
        fn assert_hex_fields(v: &Value, keys: &[&str]) {
            let Value::Object(m) = v else {
                panic!("event is not an object");
            };
            for key in keys {
                let Some(Value::String(s)) = m.get(key) else {
                    panic!("missing hex field {key} in {v:?}");
                };
                assert_eq!(s.len(), 18, "{key}={s} is not 18 chars");
                assert!(s.starts_with("0x"), "{key}={s}");
                assert!(
                    s[2..].chars().all(|c| c.is_ascii_hexdigit()),
                    "{key}={s} has non-hex digits"
                );
                // Round-trips through the WAL parser's decoding.
                assert!(u64::from_str_radix(&s[2..], 16).is_ok(), "{key}={s}");
            }
        }
        let config = CheckConfig {
            seed: 0x1,
            ..CheckConfig::default()
        };
        assert_hex_fields(&ev_run_start("s", &config, 1), &["seed"]);
        assert_hex_fields(&exec_event(7, OutcomeKind::Ok), &["seed", "trace_fp"]);
        let cx = crate::Counterexample {
            outcome: crate::ExecOutcome::Deadlock,
            pass: Pass::CrashSweep,
            index: 3,
            seed: 0xbeef,
            schedule_prefix: vec![],
            crash_points: vec![2],
            clamped: vec![],
            faults: goose_rt::fault::FaultPlan::default(),
            trace: String::new(),
            timeline: None,
        };
        assert_hex_fields(&ev_counterexample(&cx), &["seed"]);
    }

    /// `strip_timing` is shape-preserving: an event with no timing keys
    /// anywhere — including nested objects and arrays — round-trips
    /// byte-identically.
    #[test]
    fn strip_timing_round_trips_nested_events_unchanged() {
        let v = json!({
            "type": "run_end",
            "outcomes": { "ok": 5, "deadlock": 0 },
            "incomplete": ["a", "b"],
            "nested": { "deep": [ json!({ "seed": "0x00000000000000ff" }) ] },
        });
        assert_eq!(strip_timing(&v), v);
        let text_before = serde_json::to_string(&v).unwrap();
        let text_after = serde_json::to_string(&strip_timing(&v)).unwrap();
        assert_eq!(text_before, text_after);
    }

    #[test]
    fn pass_end_carries_its_duration_as_a_timing_key() {
        let v = ev_pass_end(Pass::CrashSweep, Duration::from_micros(250));
        let Value::Object(m) = &v else {
            panic!("not an object")
        };
        assert_eq!(m.get("type"), Some(&Value::String("pass_end".into())));
        assert_eq!(m.get("duration_us"), Some(&Value::Number(250.0)));
        // The duration is stripped for byte-stability comparisons.
        let stripped = strip_timing(&v);
        let Value::Object(sm) = &stripped else {
            panic!("not an object")
        };
        assert!(sm.get("duration_us").is_none());
        assert_eq!(sm.get("pass"), Some(&Value::String("crash-sweep".into())));
    }

    #[test]
    fn wal_round_trips_ok_executions_and_skips_failures() {
        let mut text = String::new();
        let mut ok = exec_event(42, OutcomeKind::Ok);
        if let Value::Object(m) = &mut ok {
            m.insert("scenario".into(), Value::String("s".into()));
        }
        text.push_str(&serde_json::to_string(&ok).unwrap());
        text.push('\n');
        let mut bad = exec_event(43, OutcomeKind::Violation);
        if let Value::Object(m) = &mut bad {
            m.insert("index".into(), Value::Number(9.0));
            m.insert("scenario".into(), Value::String("s".into()));
        }
        text.push_str(&serde_json::to_string(&bad).unwrap());
        text.push('\n');
        let wal = parse_wal(&text, "s");
        assert_eq!(wal.completed.len(), 1, "violations must not be replayed");
        assert_eq!(wal.completed[&(Pass::Dfs.rank(), 0)], stats());
        assert_eq!(wal.torn_lines, 0);
    }

    /// An `exec_done` record as a checker release wrote it to a campaign
    /// WAL (`scan --faults --strategy dpor`, `patterns/txn-wal`).
    const GOLDEN_EXEC_DONE: &str = r#"{"crashes": 1,"depth": 50,"disk_flushes": 8,"disk_ops": 30,"disk_reads": 11,"disk_writes": 19,"duration_us": 829,"faults": "torn-sub0","helped": 1,"index": 38,"lock_blocks": 1,"net_msgs": 0,"net_recvs": 0,"net_sends": 0,"outcome": "ok","pass": "torn-write-sweep","scenario": "transactional WAL","seed": "0x6f792d072542747b","steps": 51,"trace_fp": "0x11cc7fc46a72e234","type": "exec_done"}"#;

    /// The `run_end` record of the same campaign's `kv/cross-bucket` run.
    const GOLDEN_RUN_END: &str = r#"{"counterexamples": 0,"coverage_guided": 0,"crash_points": 729,"crash_points_enumerable": 22,"crash_points_exercised": 50,"crashes_injected": 1345,"disk_flushes": 3340,"disk_reads": 8198,"disk_writes": 3520,"distinct_traces": 182,"execs_per_sec": 1939.60649520027,"executions": 1028,"fault_plans": 76,"fault_plans_enumerable": 76,"fault_plans_exercised": 76,"incomplete": [],"net_recvs": 0,"net_sends": 0,"outcomes": {"bug": 0,"deadlock": 0,"final_check_failed": 0,"harness_panic": 0,"ok": 1028,"ub": 0,"violation": 0,"wedged": 0},"passed": true,"pruned": 39,"replayed": 0,"scenario": "node KV store","shard": null,"strategy": "sleep-set-dpor","total_steps": 28043,"type": "run_end","wall_time_s": 0.530004412,"workers": 2}"#;

    /// WALs written by earlier checker builds must keep parsing and
    /// resuming, and today's writer must keep producing the same bytes:
    /// the golden `exec_done` line parses into the replay map and
    /// re-renders byte for byte.
    #[test]
    fn golden_exec_done_line_parses_and_re_renders_byte_for_byte() {
        let wal = parse_wal(GOLDEN_EXEC_DONE, "transactional WAL");
        let w = wal.completed[&(Pass::TornWrite.rank(), 38)];
        assert_eq!((w.steps, w.helped, w.disk_writes), (51, 1, 19));
        let Ok(Value::Object(m)) = serde_json::from_str(GOLDEN_EXEC_DONE) else {
            panic!("golden line is not an object");
        };
        let rec = parse_exec_done(&m).expect("golden line parses");
        assert_eq!(
            (rec.key, rec.seed, rec.stats),
            ((8, 38), 0x6f79_2d07_2542_747b, w)
        );
        let mut ev = ev_exec_done(&rec, "torn-sub0");
        if let Value::Object(m) = &mut ev {
            m.insert("scenario".into(), Value::String("transactional WAL".into()));
        }
        assert_eq!(serde_json::to_string(&ev).unwrap(), GOLDEN_EXEC_DONE);
    }

    /// The golden `run_end` line is what `ev_run_end` renders for a
    /// report with the same totals, byte for byte (timing included).
    #[test]
    fn golden_run_end_line_renders_byte_for_byte() {
        let mut r = CheckReport {
            name: "node KV store".into(),
            strategy: "sleep-set-dpor".into(),
            execs_per_sec: 1939.60649520027,
            executions: 1028,
            total_steps: 28043,
            crashes_injected: 1345,
            crash_points: 729,
            fault_plans: 76,
            disk_reads: 8198,
            disk_writes: 3520,
            disk_flushes: 3340,
            pruned: 39,
            workers: 2,
            wall_time: Duration::from_nanos(530_004_412),
            ..CheckReport::default()
        };
        r.outcomes.ok = 1028;
        r.coverage.crash_points_exercised = 50;
        r.coverage.crash_points_enumerable = 22;
        r.coverage.disk_fault_plans_exercised = 28;
        r.coverage.disk_fault_plans_enumerable = 28;
        r.coverage.torn_plans_exercised = 48;
        r.coverage.torn_plans_enumerable = 48;
        r.coverage.distinct_traces = 182;
        assert_eq!(
            serde_json::to_string(&ev_run_end(&r)).unwrap(),
            GOLDEN_RUN_END
        );
        // Read back, the record is that run's fold of totals.
        let Ok(Value::Object(m)) = serde_json::from_str(GOLDEN_RUN_END) else {
            panic!("golden line is not an object");
        };
        let f = parse_run_end(&m);
        assert_eq!((f.executions, f.total_steps, f.pruned), (1028, 28043, 39));
        assert_eq!(f.outcomes, r.outcomes);
        assert_eq!(f.coverage.fault_plans_exercised(), 76);
    }

    #[test]
    fn wal_filters_by_scenario_and_tracks_run_starts() {
        let text = concat!(
            "{\"type\": \"run_start\", \"scenario\": \"a\", \"seed\": \"0x7\"}\n",
            "{\"type\": \"run_start\", \"scenario\": \"b\", \"seed\": \"0x8\"}\n",
        );
        let wal = parse_wal(text, "a");
        assert_eq!(wal.runs_started, 1);
        let Some(Value::Object(m)) = &wal.run_start else {
            panic!("missing run_start");
        };
        assert_eq!(m.get("seed"), Some(&Value::String("0x7".into())));
    }

    #[test]
    fn wal_survives_any_tail_truncation() {
        // A SIGKILL can land mid-write: replay must cope with the file
        // cut at *every* byte boundary, never panicking and never
        // inventing records.
        let mut text = String::new();
        for i in 0..3u64 {
            let mut ev = exec_event(i, OutcomeKind::Ok);
            if let Value::Object(m) = &mut ev {
                m.insert("index".into(), Value::Number(i as f64));
            }
            text.push_str(&serde_json::to_string(&ev).unwrap());
            text.push('\n');
        }
        let full = parse_wal(&text, "s").completed.len();
        assert_eq!(full, 3);
        for cut in 0..text.len() {
            let wal = parse_wal(&text[..cut], "s");
            assert!(wal.completed.len() <= full);
            assert!(
                wal.torn_lines <= 1,
                "cut at {cut}: {} torn lines",
                wal.torn_lines
            );
            // Every surviving record must be one of the originals.
            for (k, w) in &wal.completed {
                assert_eq!(k.0, Pass::Dfs.rank());
                assert_eq!(w.steps, 7, "cut at {cut} corrupted a record");
            }
        }
    }
}
