//! The explorer: bounded model checking over schedules and crash points.
//!
//! This is the reproduction's substitute for the paper's Coq proofs (see
//! DESIGN.md §1): instead of a theorem over *all* executions, the
//! explorer enumerates a bounded set — a schedule phase over crash-free
//! interleavings driven by a pluggable [`Strategy`] (exhaustive DFS,
//! random sampling, sleep-set DPOR, coverage-guided sampling; see
//! DESIGN.md §12), and a systematic sweep of crash points including
//! crashes during recovery — and requires the ghost discipline
//! (Theorem 2's obligations) to hold on every one.
//!
//! # Parallel exploration and the determinism contract
//!
//! Every explored execution is independent (fresh [`ModelRt`] + ghost
//! state per run), so the explorer dispatches them across a worker pool
//! ([`CheckConfig::workers`]). Determinism is preserved by construction:
//!
//! - Every execution has a canonical **job key** `(pass.rank(), index)`
//!   assigned before it runs, independent of worker count or timing
//!   (ranks in [`Pass`]).
//! - Each execution's model seed is `hash(base_seed, pass_rank, index)`
//!   (see `exec_seed`), never a shared mutable RNG.
//! - The reported counterexample is the failure with the **minimum job
//!   key**, not the first one found on the wall clock. A job is skipped
//!   only when a failure with a *smaller* key is already known, which
//!   cannot hide the minimum-key failure — so `workers = 8` reports the
//!   same [`Counterexample`] as `workers = 1` for the same config.
//! - Strategy feedback (DFS frontier expansion, sleep-set pruning,
//!   coverage re-seeding) advances only on *complete* waves in canonical
//!   job order; a wave interrupted by a failure is never observed. So
//!   the explored set — and the `pruned`/`coverage_guided` counters —
//!   are identical at every worker count.
//! - Report statistics count exactly the executions with keys up to the
//!   winning counterexample's key (all of them, if no failure), so
//!   `executions`/`total_steps`/... are reproducible too.
//!
//! With [`CheckConfig::keep_going`] set, nothing is cancelled and every
//! failure is collected into [`CheckReport::counterexamples`], sorted by
//! canonical key.

use crate::fold::{ExecRecord, ExecStats, FaultFamily, OutcomeFold};
use crate::harness::{Harness, World};
use crate::metrics::{
    trace_fingerprint, Coverage, Histogram, OutcomeCounts, OutcomeKind, PassMetrics,
};
use crate::pass::{Pass, PassSet};
use crate::profile::{Profile, StrategyProfile};
use crate::strategy::{
    DepTrace, Exhaustive, ObservedExec, ScheduleSpec, Strategy, StrategySession,
};
use crate::telemetry::{self, EnvStamp, RunTelemetry, TelemetrySink};
use goose_rt::fault::{FaultPlan, FaultSurface, NetFault, TornMode};
use goose_rt::sched::{quiet_worker_panics, res, ModelRt, PanicKind, StepAccess, StepResult, Tid};
use goose_rt::trace::{ExecTrace, TraceKind};
use parking_lot::Mutex;
use perennial::{Ghost, GhostError};
use perennial_spec::SpecTS;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Explorer configuration.
///
/// Construct with [`CheckConfig::builder`] (preferred), or start from
/// [`CheckConfig::default`] / [`CheckConfig::quick`] and override fields.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Base seed for deterministic randomness. Per-execution seeds are
    /// derived from it as `hash(seed, pass_rank, index)`.
    pub seed: u64,
    /// Per-execution step bound (livelock backstop).
    pub max_steps: u64,
    /// Cap on DFS-enumerated schedules (0 disables DFS). Under
    /// [`SleepSetDpor`](crate::strategy::SleepSetDpor), pruned schedules
    /// are charged against this budget too.
    pub dfs_max_executions: usize,
    /// Number of random schedules to sample (crash-free).
    pub random_samples: usize,
    /// Random schedules to sample *with* a random crash point each.
    pub random_crash_samples: usize,
    /// Which exploration passes run. [`PassSet::defaults`] enables DFS,
    /// random sampling, the crash sweep with nesting, and random
    /// crashes; the fault sweeps ([`Pass::DiskFault`],
    /// [`Pass::TornWrite`], [`Pass::NetFault`]) opt in and additionally
    /// require the matching [`Harness::fault_surface`] flag.
    pub passes: PassSet,
    /// Schedule-phase exploration strategy: how the crash-free DFS and
    /// random passes pick what to run (see [`crate::strategy`] and
    /// DESIGN.md §12). The crash and fault sweeps are strategy-
    /// independent. Defaults to [`Exhaustive`].
    pub strategy: Arc<dyn Strategy>,
    /// Worker threads for the exploration pool; `0` means use
    /// `std::thread::available_parallelism()`.
    pub workers: usize,
    /// Keep exploring after a failure and collect every counterexample
    /// (instead of cancelling outstanding work).
    pub keep_going: bool,
    /// Optional JSONL event stream (see [`crate::telemetry`] and
    /// DESIGN.md §11). Side-channel only: enabling it changes neither
    /// the explored set nor the reported counterexample.
    pub telemetry: Option<TelemetrySink>,
    /// Convenience alternative to [`CheckConfig::telemetry`]: create
    /// (truncate) this file as the event stream when the check starts.
    /// Ignored when `telemetry` is set.
    pub telemetry_path: Option<PathBuf>,
    /// Print a progress line to stderr every N completed executions
    /// (`0` = off, the default) so long sweeps are observable live.
    pub progress_every: u64,
    /// Shard assignment `(i, n)`: this run owns only the job keys whose
    /// [`shard_of`] hash lands on shard `i` of `n`. Derivation-spine
    /// executions (schedule phase, probes, and the first-level crash
    /// sweep when the nested sweep is on) still run in every shard so
    /// every shard enumerates the identical job space, but they are
    /// *counted* only by their owner — `merge_reports` over all `n`
    /// shards reproduces the unsharded report (DESIGN.md §13). Sharded
    /// runs imply `keep_going` semantics so shard statistics are exactly
    /// summable.
    pub shard: Option<(u32, u32)>,
    /// Resume checkpoint: a telemetry JSONL file from a previous
    /// (possibly killed) run of the same scenario + config, replayed as
    /// a write-ahead log. Completed sweep-phase executions (`exec_done`
    /// records with outcome `ok`) are skipped and their recorded
    /// statistics reused; everything else re-runs. A torn final line
    /// (SIGKILL mid-write) is tolerated. A missing file is a cold
    /// start, and a config-mismatched WAL is ignored with a warning.
    pub resume_from: Option<PathBuf>,
    /// Hard cap on executions this run may schedule (0 = unlimited).
    /// Applied by truncating job lists in canonical order, so the cap
    /// is deterministic across worker counts and shards; exhaustion
    /// degrades to a partial report with an `incomplete` marker rather
    /// than a panic.
    pub exec_budget: u64,
    /// Re-run the winning counterexample with the causal trace recorder
    /// on and attach the resulting [`goose_rt::ExecTrace`] as
    /// [`Counterexample::timeline`] (default on). Pure side channel: the
    /// exploration itself always runs untraced, the re-run emits no
    /// telemetry, and report fingerprints are identical either way.
    pub trace_capture: bool,
    /// Build a [`Profile`] (per-pass cost attribution, resource
    /// contention, strategy introspection, worker utilization) and
    /// attach it as [`CheckReport::profile`] (default off). Pure side
    /// channel: the profile is aggregated from counters the check
    /// collects anyway, is excluded from campaign JSON and report
    /// fingerprints, and its deterministic counts are identical at
    /// every worker count (DESIGN.md §15).
    pub profile: bool,
    /// Delta-debug the winning counterexample after exploration: greedily
    /// drop schedule grants, crash points, and fault events while
    /// re-running and requiring the failure fingerprint (outcome kind +
    /// message, see [`crate::shrink::failure_fingerprint`]) to be
    /// preserved (default off). **Not** a pure side channel: shrinking
    /// rewrites [`CheckReport::counterexample`] in place, so serialized
    /// reports (and their fingerprints) differ between shrink-on and
    /// shrink-off runs — but the shrunk result itself is deterministic at
    /// every worker count (DESIGN.md §16). Shrink statistics land in
    /// [`CheckReport::shrink`].
    pub shrink: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            seed: 0,
            max_steps: 100_000,
            dfs_max_executions: 2_000,
            random_samples: 50,
            random_crash_samples: 100,
            passes: PassSet::defaults(),
            strategy: Arc::new(Exhaustive),
            workers: 0,
            keep_going: false,
            telemetry: None,
            telemetry_path: None,
            progress_every: 0,
            shard: None,
            resume_from: None,
            exec_budget: 0,
            trace_capture: true,
            profile: false,
            shrink: false,
        }
    }
}

impl CheckConfig {
    /// A quick configuration for unit tests (small bounds).
    pub fn quick() -> Self {
        let mut passes = PassSet::defaults();
        passes.remove(Pass::NestedCrash);
        CheckConfig {
            dfs_max_executions: 200,
            random_samples: 10,
            random_crash_samples: 20,
            passes,
            ..CheckConfig::default()
        }
    }

    /// Starts a builder preloaded with the defaults.
    pub fn builder() -> CheckConfigBuilder {
        CheckConfigBuilder {
            config: CheckConfig::default(),
        }
    }

    /// The worker count this config resolves to at run time.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Fluent constructor for [`CheckConfig`]:
///
/// ```
/// use perennial_checker::{CheckConfig, Pass, SleepSetDpor};
/// let cfg = CheckConfig::builder()
///     .seed(7)
///     .workers(8)
///     .with_passes([Pass::DiskFault])
///     .strategy(SleepSetDpor)
///     .build();
/// assert_eq!(cfg.seed, 7);
/// assert_eq!(cfg.workers, 8);
/// assert!(cfg.passes.contains(Pass::DiskFault));
/// assert_eq!(cfg.strategy.name(), "sleep-set-dpor");
/// ```
#[derive(Debug, Clone)]
pub struct CheckConfigBuilder {
    config: CheckConfig,
}

impl CheckConfigBuilder {
    /// Sets the base PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the per-execution scheduler-grant budget.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.config.max_steps = max_steps;
        self
    }

    /// Caps the DFS pass's execution count.
    pub fn dfs_max_executions(mut self, n: usize) -> Self {
        self.config.dfs_max_executions = n;
        self
    }

    /// Sets the random-schedule sample count.
    pub fn random_samples(mut self, n: usize) -> Self {
        self.config.random_samples = n;
        self
    }

    /// Sets the random-crash-point sample count.
    pub fn random_crash_samples(mut self, n: usize) -> Self {
        self.config.random_crash_samples = n;
        self
    }

    /// Replaces the pass set wholesale.
    pub fn passes(mut self, passes: impl IntoIterator<Item = Pass>) -> Self {
        self.config.passes = passes.into_iter().collect();
        self
    }

    /// Adds passes to the current set.
    pub fn with_passes(mut self, passes: impl IntoIterator<Item = Pass>) -> Self {
        for p in passes {
            self.config.passes.insert(p);
        }
        self
    }

    /// Removes passes from the current set.
    pub fn without_passes(mut self, passes: impl IntoIterator<Item = Pass>) -> Self {
        for p in passes {
            self.config.passes.remove(p);
        }
        self
    }

    /// Sets the schedule-phase exploration strategy.
    pub fn strategy(mut self, strategy: impl Strategy + 'static) -> Self {
        self.config.strategy = Arc::new(strategy);
        self
    }

    /// Sets the worker-thread count (0 = one per available core).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Keeps exploring after the first counterexample instead of
    /// stopping the run.
    pub fn keep_going(mut self, on: bool) -> Self {
        self.config.keep_going = on;
        self
    }

    /// Streams JSONL telemetry into an existing sink (shareable across
    /// scenario runs — every run appends to the same stream).
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.config.telemetry = Some(sink);
        self
    }

    /// Streams JSONL telemetry into any writer.
    pub fn telemetry_writer(self, w: impl std::io::Write + Send + 'static) -> Self {
        self.telemetry(TelemetrySink::to_writer(w))
    }

    /// Streams JSONL telemetry into a file created at check start.
    pub fn telemetry_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.telemetry_path = Some(path.into());
        self
    }

    /// Prints a progress line to stderr every `n` executions (0 = off).
    pub fn progress_every(mut self, n: u64) -> Self {
        self.config.progress_every = n;
        self
    }

    /// Runs only shard `i` of `n` of the deterministic job space (see
    /// [`CheckConfig::shard`]). Panics if `i >= n` or `n == 0`.
    pub fn shard(mut self, i: u32, n: u32) -> Self {
        assert!(n > 0 && i < n, "shard {i}/{n} is not a valid assignment");
        self.config.shard = Some((i, n));
        self
    }

    /// Optional variant of [`Self::shard`] for flag plumbing.
    pub fn shard_opt(mut self, shard: Option<(u32, u32)>) -> Self {
        if let Some((i, n)) = shard {
            assert!(n > 0 && i < n, "shard {i}/{n} is not a valid assignment");
        }
        self.config.shard = shard;
        self
    }

    /// Resumes from a telemetry JSONL checkpoint (see
    /// [`CheckConfig::resume_from`]). When this equals
    /// [`CheckConfig::telemetry_path`] the stream is opened in append
    /// mode so the same file keeps serving as the write-ahead log.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.resume_from = Some(path.into());
        self
    }

    /// Caps scheduled executions (0 = unlimited); see
    /// [`CheckConfig::exec_budget`].
    pub fn exec_budget(mut self, n: u64) -> Self {
        self.config.exec_budget = n;
        self
    }

    /// Enables (or disables) counterexample trace capture; see
    /// [`CheckConfig::trace_capture`].
    pub fn trace_capture(mut self, on: bool) -> Self {
        self.config.trace_capture = on;
        self
    }

    /// Enables (or disables) the cost profiler; see
    /// [`CheckConfig::profile`].
    pub fn profile(mut self, on: bool) -> Self {
        self.config.profile = on;
        self
    }

    /// Enables (or disables) counterexample shrinking; see
    /// [`CheckConfig::shrink`].
    pub fn shrink(mut self, on: bool) -> Self {
        self.config.shrink = on;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> CheckConfig {
        self.config
    }
}

/// How one explored execution ended.
#[derive(Debug, Clone)]
pub enum ExecOutcome {
    /// Ghost validation and the final check both passed.
    Ok,
    /// A ghost capability rule or end-of-execution obligation failed —
    /// a refinement violation.
    Violation(GhostError),
    /// Modelled undefined behaviour was triggered.
    Ub(String),
    /// A plain panic in the code under test.
    Bug(String),
    /// No runnable thread but unfinished work: a deadlock.
    Deadlock,
    /// The harness's final predicate failed.
    FinalCheckFailed(String),
    /// The execution exhausted its step budget (`max_steps`) without
    /// finishing — a livelock or runaway loop. Carries the budget. The
    /// watchdog is deterministic (step counts, not wall clock), so a
    /// wedged execution wedges identically on replay.
    Wedged(u64),
    /// The harness itself (a controller-side hook: boot, crash_reset,
    /// recovery construction, final_check) panicked. Isolated by
    /// `catch_unwind` and recorded as an outcome so one broken scenario
    /// cannot poison a campaign.
    HarnessPanic(String),
}

impl ExecOutcome {
    /// Whether this outcome counts as a verification failure.
    pub fn is_failure(&self) -> bool {
        !matches!(self, ExecOutcome::Ok)
    }
}

/// A failing execution, with enough context to reproduce and debug it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What failed.
    pub outcome: ExecOutcome,
    /// Which exploration pass produced it.
    pub pass: Pass,
    /// Canonical index of the failing execution within its pass; the
    /// pair (pass, index) totally orders counterexamples and is how the
    /// parallel explorer picks the one to report.
    pub index: u64,
    /// The derived per-execution seed (model randomness; also the
    /// schedule seed for random passes). [`replay`] feeds it back in.
    pub seed: u64,
    /// The schedule prefix (choice indices) that reproduces it — DFS
    /// prefixes, or the replayed corpus prefix of a coverage-guided
    /// random sample; empty for round-robin and plain random passes.
    pub schedule_prefix: Vec<usize>,
    /// Injected crash points. Unit: **absolute grant counts** from the
    /// start of the execution (crash k fires before the (k+1)-th grant);
    /// an injected crash itself consumes one count, so nested points
    /// land inside recovery.
    pub crash_points: Vec<u64>,
    /// Decision depths at which the schedule prefix asked for a choice
    /// index out of range and was clamped to the last runnable thread —
    /// non-empty means the prefix came from a differently-shaped run.
    pub clamped: Vec<usize>,
    /// The fault plan active during the failing execution (empty for the
    /// schedule/crash passes). [`replay`] re-injects it.
    pub faults: FaultPlan,
    /// Rendered ghost trace at failure.
    pub trace: String,
    /// Causal execution trace of the failing run, recorded by re-running
    /// it with the [`goose_rt::trace`] recorder on (see
    /// [`CheckConfig::trace_capture`]). Debug-only payload: excluded
    /// from campaign JSON and from every fingerprint, so reports are
    /// byte-identical with capture on or off.
    pub timeline: Option<goose_rt::ExecTrace>,
}

impl Counterexample {
    /// The canonical ordering key `(pass_rank, index)`.
    pub fn key(&self) -> (u8, u64) {
        (self.pass.rank(), self.index)
    }
}

/// Aggregate result of checking one scenario.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Scenario name.
    pub name: String,
    /// Executions explored (counted up to the winning counterexample's
    /// canonical key, so the number is worker-count independent).
    pub executions: usize,
    /// Total scheduled steps across executions.
    pub total_steps: u64,
    /// Crashes injected across executions.
    pub crashes_injected: usize,
    /// Distinct crash points swept.
    pub crash_points: usize,
    /// Distinct fault plans swept (executions run with a non-empty
    /// [`FaultPlan`]).
    pub fault_plans: usize,
    /// Operations helped by recovery across executions.
    pub helped_ops: u64,
    /// Disk block reads across executions (model-op accounting).
    pub disk_reads: u64,
    /// Disk block writes (buffered + write-through) across executions.
    pub disk_writes: u64,
    /// Disk flush barriers across executions.
    pub disk_flushes: u64,
    /// Network sends across executions.
    pub net_sends: u64,
    /// Network receives that dequeued a message, across executions.
    pub net_recvs: u64,
    /// Wall-clock time the check took.
    pub wall_time: Duration,
    /// Worker threads the pool actually used.
    pub workers: usize,
    /// Executions per wall-clock second.
    pub execs_per_sec: f64,
    /// Name of the schedule-phase strategy that ran.
    pub strategy: String,
    /// Schedules the strategy pruned as redundant (sleep-set hits) —
    /// deterministic across worker counts.
    pub pruned: u64,
    /// Executions whose schedule was re-seeded by coverage feedback.
    pub coverage_guided: u64,
    /// The canonical (minimum-key) counterexample, if any.
    pub counterexample: Option<Counterexample>,
    /// All counterexamples found, sorted by canonical key. Without
    /// [`CheckConfig::keep_going`] this holds at most the canonical one.
    pub counterexamples: Vec<Counterexample>,
    /// Executions by outcome (same cutoff as `executions`, so
    /// worker-count independent).
    pub outcomes: OutcomeCounts,
    /// Per-pass accounting, in canonical rank order. Only passes that
    /// scheduled at least one execution appear.
    pub per_pass: Vec<PassMetrics>,
    /// Steps-per-execution distribution (log2 buckets).
    pub steps_hist: Histogram,
    /// Schedule-depth (decisions-per-execution) distribution.
    pub depth_hist: Histogram,
    /// Coverage accounting: sweep spaces exercised vs. enumerable, and
    /// distinct ghost-trace fingerprints seen.
    pub coverage: Coverage,
    /// Shard assignment this report covers (`None` = the whole space).
    pub shard: Option<(u32, u32)>,
    /// Executions satisfied from the resume WAL instead of re-run.
    /// Excluded from the report fingerprint: a resumed run and a cold
    /// run must otherwise be identical.
    pub replayed: u64,
    /// Why the run degraded to a partial result (execution budget
    /// exhausted, telemetry sink failures). Empty for a complete run;
    /// [`CheckReport::passed`] is unaffected, but summaries carry an
    /// explicit INCOMPLETE marker.
    pub incomplete: Vec<String>,
    /// The distinct crash points behind
    /// [`Coverage::crash_points_exercised`] — kept as a set so shard
    /// reports merge by union, not by sum.
    pub crash_point_set: BTreeSet<u64>,
    /// The distinct ghost-trace fingerprints behind
    /// [`Coverage::distinct_traces`], kept for the same reason.
    pub trace_fps: BTreeSet<u64>,
    /// Cost profile, present when [`CheckConfig::profile`] was on.
    /// Debug/observability payload: excluded from campaign JSON and
    /// report fingerprints exactly like a counterexample's timeline.
    pub profile: Option<crate::profile::Profile>,
    /// Shrink statistics, present when [`CheckConfig::shrink`] was on
    /// and a counterexample was found (the counterexample itself is then
    /// the *shrunk* one). Observability payload: excluded from campaign
    /// JSON like [`CheckReport::profile`] — the shrunk counterexample,
    /// not its bookkeeping, is the durable artifact.
    pub shrink: Option<crate::shrink::ShrinkStats>,
    /// Environment stamp (rustc, crate version, workers, strategy) for
    /// cross-machine comparability of serialized reports. Volatile:
    /// stripped by [`crate::report_fingerprint`].
    pub env: crate::telemetry::EnvStamp,
}

impl CheckReport {
    /// Whether every explored execution passed.
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }

    /// Whether the run degraded to a partial result (see
    /// [`CheckReport::incomplete`]).
    pub fn is_incomplete(&self) -> bool {
        !self.incomplete.is_empty()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        let faults = if self.fault_plans > 0 {
            format!(", {} fault plans", self.fault_plans)
        } else {
            String::new()
        };
        let shard = match self.shard {
            Some((i, n)) => format!(" [shard {i}/{n}]"),
            None => String::new(),
        };
        format!(
            "{}: {} executions, {} steps, {} crashes over {} crash points{}, {} helped ops, \
             {:.0} execs/s on {} workers{} — {}{}",
            self.name,
            self.executions,
            self.total_steps,
            self.crashes_injected,
            self.crash_points,
            faults,
            self.helped_ops,
            self.execs_per_sec,
            self.workers,
            shard,
            if self.passed() { "PASS" } else { "FAIL" },
            if self.is_incomplete() {
                " (INCOMPLETE)"
            } else {
                ""
            }
        )
    }
}

/// Schedule policy for one execution.
#[derive(Debug, Clone)]
enum Policy {
    /// Deterministic: follow the recorded prefix, then always pick the
    /// first runnable (DFS order). With `track_deps`, the runtime records
    /// each grant's dependency footprint for partial-order reduction.
    Dfs {
        prefix: Vec<usize>,
        track_deps: bool,
    },
    /// Round-robin over runnable threads.
    RoundRobin,
    /// Replay the (possibly empty) decision prefix, then seeded
    /// pseudo-random choice.
    Random { prefix: Vec<usize> },
}

impl Policy {
    /// The decision prefix the policy replays before its own choices.
    fn prefix(&self) -> &[usize] {
        match self {
            Policy::Dfs { prefix, .. } | Policy::Random { prefix } => prefix,
            Policy::RoundRobin => &[],
        }
    }
}

impl From<&ScheduleSpec> for Policy {
    fn from(spec: &ScheduleSpec) -> Self {
        match spec {
            ScheduleSpec::Dfs { prefix, track_deps } => Policy::Dfs {
                prefix: prefix.clone(),
                track_deps: *track_deps,
            },
            ScheduleSpec::Random { prefix } => Policy::Random {
                prefix: prefix.clone(),
            },
        }
    }
}

struct ScheduleState<'p> {
    policy: &'p Policy,
    /// (choice index, number of runnable options) per decision.
    decisions: Vec<(usize, usize)>,
    /// Decision depths where a replayed prefix index was out of range.
    clamped: Vec<usize>,
    rr_next: usize,
    rng: u64,
}

impl<'p> ScheduleState<'p> {
    fn new(policy: &'p Policy, seed: u64) -> Self {
        ScheduleState {
            policy,
            decisions: Vec::new(),
            clamped: Vec::new(),
            rr_next: 0,
            rng: seed | 1,
        }
    }

    fn choose(&mut self, runnable: &[Tid]) -> Tid {
        let n = runnable.len();
        let d = self.decisions.len();
        let prefix = self.policy.prefix();
        let idx = if d < prefix.len() {
            if prefix[d] >= n {
                // Out-of-range prefix entry: the prefix came from a run
                // that had more runnable threads here. Record the clamp
                // so reports can surface it.
                self.clamped.push(d);
            }
            prefix[d].min(n - 1)
        } else {
            match self.policy {
                Policy::Dfs { .. } => 0,
                Policy::RoundRobin => {
                    self.rr_next += 1;
                    (self.rr_next - 1) % n
                }
                Policy::Random { .. } => {
                    // xorshift64*
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    (self.rng as usize) % n
                }
            }
        };
        self.decisions.push((idx, n));
        runnable[idx]
    }
}

/// Phase of one execution's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Main,
    Recovering,
    After,
}

struct RunResult {
    outcome: ExecOutcome,
    stats: ExecStats,
    decisions: Vec<(usize, usize)>,
    clamped: Vec<usize>,
    /// Per-lock share of `stats.lock_blocks`
    /// (`ModelRt::lock_block_profile`), consumed by the profiler's
    /// resource-contention table.
    lock_profile: Vec<(u64, u64)>,
    /// Wall time of this single execution (telemetry only).
    duration: Duration,
    trace: String,
    /// Per-grant dependency observations (schedule-phase DPOR runs).
    deps: Option<DepTrace>,
    /// Causal execution trace (capture-trace runs only).
    exec_trace: Option<ExecTrace>,
}

/// The runtime's lock and model-op counters ([`goose_rt::SchedStats`]);
/// the caller fills in steps, depth, crashes, helping, and the trace
/// fingerprint.
fn model_counters(rt: &ModelRt) -> ExecStats {
    let s = rt.sched_stats();
    ExecStats {
        lock_blocks: s.lock_blocks,
        disk_ops: s.disk_ops,
        net_msgs: s.net_msgs,
        disk_reads: s.disk_reads,
        disk_writes: s.disk_writes,
        disk_flushes: s.disk_flushes,
        net_sends: s.net_sends,
        net_recvs: s.net_recvs,
        ..ExecStats::default()
    }
}

/// Runs one execution under `policy`, injecting crashes at the given
/// absolute grant counts and faults per `faults`. A DFS policy with
/// `track_deps` makes the runtime record each grant's dependency
/// footprint, and the result carries a [`DepTrace`] for partial-order
/// reduction. With `capture_trace`, the runtime's causal recorder is on
/// and the result carries an [`ExecTrace`] — a pure observer that changes
/// no counter, schedule, or fault index.
///
/// The execution is **isolated**: the harness body runs under
/// `catch_unwind`, so a panicking harness hook becomes an
/// [`ExecOutcome::HarnessPanic`] outcome instead of killing the worker,
/// and any virtual threads a failed or panicked execution left parked
/// are unwound and joined before returning (no OS-thread leaks across a
/// long keep-going campaign).
fn run_one<S: SpecTS, H: Harness<S>>(
    harness: &H,
    policy: &Policy,
    crash_points: &[u64],
    faults: &FaultPlan,
    seed: u64,
    max_steps: u64,
    capture_trace: bool,
) -> RunResult {
    let rt = ModelRt::with_faults(seed, max_steps, faults.clone());
    let run_started = Instant::now();
    let result = quiet_worker_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let sched = ScheduleState::new(policy, seed);
            run_one_inner(harness, &rt, sched, crash_points, faults, capture_trace)
        }))
    });
    match result {
        Ok(r) => {
            if r.outcome.is_failure() {
                // Deadlocked, wedged, or panicked executions leave
                // virtual threads parked; reap them.
                rt.crash_all();
                rt.join_all();
            }
            r
        }
        Err(payload) => {
            rt.crash_all();
            rt.join_all();
            RunResult {
                outcome: ExecOutcome::HarnessPanic(panic_message(payload)),
                stats: ExecStats {
                    steps: rt.sched_stats().steps,
                    trace_fp: trace_fingerprint(""),
                    ..model_counters(&rt)
                },
                decisions: Vec::new(),
                clamped: Vec::new(),
                lock_profile: rt.lock_block_profile(),
                duration: run_started.elapsed(),
                trace: String::new(),
                deps: None,
                exec_trace: capture_trace.then(|| rt.take_trace()),
            }
        }
    }
}

/// Renders an arbitrary unwind payload for the harness-panic outcome.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_one_inner<S: SpecTS, H: Harness<S>>(
    harness: &H,
    rt: &Arc<ModelRt>,
    mut sched: ScheduleState<'_>,
    crash_points: &[u64],
    faults: &FaultPlan,
    capture_trace: bool,
) -> RunResult {
    let track_deps = matches!(
        sched.policy,
        Policy::Dfs {
            track_deps: true,
            ..
        }
    );
    let rt = Arc::clone(rt);
    rt.set_track_deps(track_deps);
    rt.set_tracing(capture_trace);
    let ghost = Ghost::new(harness.spec());
    let w = World {
        rt: Arc::clone(&rt),
        ghost: Arc::clone(&ghost),
    };
    let mut exec = harness.make(&w);
    exec.boot(&w);
    for (name, body) in exec.threads(&w) {
        rt.spawn(name, body);
    }

    let mut steps: u64 = 0;
    let mut crashes: u64 = 0;
    let mut crash_iter = crash_points.iter().copied().peekable();
    let mut disk_fail = faults.disk_fail;
    let mut phase = Phase::Main;
    let mut recovery_tid: Option<Tid> = None;
    let mut after_spawned = false;
    let mut dep: Option<DepTrace> = track_deps.then(DepTrace::default);
    if track_deps {
        // Discard anything noted during boot/spawn: footprints belong to
        // granted steps, not setup.
        rt.take_step_accesses();
    }

    // Spec-visible ghost events stream into the causal trace as they
    // appear: a watermark over the ghost trace is drained after every
    // grant (attributed to the granted thread) and around controller
    // transitions (attributed to the controller).
    let spec_mark = std::cell::Cell::new(0usize);
    let drain_spec = |tid: Option<Tid>| {
        if !capture_trace {
            return;
        }
        let snapshot = ghost.trace();
        let events = snapshot.events();
        for ev in &events[spec_mark.get()..] {
            rt.trace_event_for(
                tid,
                TraceKind::Spec {
                    event: format!("{ev:?}"),
                },
            );
        }
        spec_mark.set(events.len());
    };
    drain_spec(None);

    let run_started = Instant::now();
    let finish = |outcome: ExecOutcome,
                  sched: ScheduleState<'_>,
                  steps: u64,
                  crashes: u64,
                  deps: Option<DepTrace>| {
        let trace = ghost.trace().render();
        RunResult {
            outcome,
            stats: ExecStats {
                steps,
                depth: sched.decisions.len() as u64,
                crashes,
                trace_fp: trace_fingerprint(&trace),
                ..model_counters(&rt)
            },
            decisions: sched.decisions,
            clamped: sched.clamped,
            lock_profile: rt.lock_block_profile(),
            duration: run_started.elapsed(),
            trace,
            deps,
            exec_trace: capture_trace.then(|| rt.take_trace()),
        }
    };

    loop {
        // Plan-scheduled permanent disk failure at this grant boundary?
        // (Fires before a same-count crash and does not consume a step —
        // it models the device dying, not the process.)
        if let Some((d, g)) = disk_fail {
            if g == steps {
                disk_fail = None;
                exec.inject_disk_failure(&w, d);
            }
        }

        // Crash injection at this step boundary?
        if crash_iter.peek() == Some(&steps) {
            crash_iter.next();
            crashes += 1;
            rt.crash_all();
            ghost.crash();
            exec.crash_reset(&w);
            exec.boot(&w);
            let body = exec.recovery(&w);
            recovery_tid = Some(rt.spawn("recovery", body));
            phase = Phase::Recovering;
            drain_spec(None);
            if track_deps {
                // Crash unwinding and re-boot are controller transitions,
                // not granted steps; drop any footprint they left behind.
                rt.take_step_accesses();
            }
            // A crash consumes a "step" so nested sweeps can target
            // positions inside recovery distinctly.
            steps += 1;
            continue;
        }

        let runnable = rt.runnable();
        if runnable.is_empty() {
            if rt.all_done() {
                // Pending crash points beyond the end are simply unused.
                break;
            }
            return finish(ExecOutcome::Deadlock, sched, steps, crashes, dep.take());
        }
        let tid = sched.choose(&runnable);
        // Snapshot immediately before the grant so controller-side ghost
        // calls (crash(), validate()) between grants never pollute the
        // per-grant delta.
        let ghost_ops = if track_deps { ghost.op_count() } else { 0 };
        let step = rt.grant(tid);
        steps += 1;
        drain_spec(Some(tid));
        if let Some(dep) = dep.as_mut() {
            let mut acc = rt.take_step_accesses();
            if ghost.op_count() != ghost_ops {
                // Ghost activity is tagged per thread: a thread's spec
                // events are ordered by its own program order, and any
                // cross-thread spec coupling (helping, linearization
                // against a shared object) is mediated by a physical
                // primitive whose resource tag is already in the
                // footprint. Untagged cross-thread ghost coupling would
                // be unsound to commute — see DESIGN.md §12.
                acc.push(StepAccess::write(res::GHOST | tid as u64));
            }
            dep.runnables.push(runnable.clone());
            dep.accesses.push(acc);
        }
        let failed = match step {
            StepResult::Yielded | StepResult::Blocked => None,
            StepResult::Finished => {
                if phase == Phase::Recovering && recovery_tid == Some(tid) {
                    phase = Phase::After;
                    if !after_spawned {
                        after_spawned = true;
                        for (name, body) in exec.after_recovery(&w) {
                            rt.spawn(name, body);
                        }
                    }
                }
                None
            }
            StepResult::Panicked(PanicKind::Ghost(e)) => Some(ExecOutcome::Violation(e)),
            StepResult::Panicked(PanicKind::Ub(msg)) => Some(ExecOutcome::Ub(msg)),
            StepResult::Panicked(PanicKind::Other(msg)) => Some(ExecOutcome::Bug(msg)),
            // Deterministic stall watchdog: the execution burned its
            // whole step budget without finishing.
            StepResult::Panicked(PanicKind::StepBudget(budget)) => {
                Some(ExecOutcome::Wedged(budget))
            }
            StepResult::Panicked(PanicKind::CrashUnwind) => {
                // Only reachable via crash_all, which we drive ourselves.
                unreachable!("crash unwind surfaced outside crash injection");
            }
        };
        if let Some(outcome) = failed {
            return finish(outcome, sched, steps, crashes, dep.take());
        }
    }
    rt.join_all();

    // A crash point scheduled exactly at the end of all work: treat as
    // unused (nothing was in flight; the sweep's earlier points covered
    // every interesting boundary).

    let (outcome, helped) = match ghost.validate() {
        Ok(report) => {
            let helped = report.helped as u64;
            match exec.final_check(&w) {
                Ok(()) => (ExecOutcome::Ok, helped),
                Err(msg) => (ExecOutcome::FinalCheckFailed(msg), helped),
            }
        }
        Err(e) => (ExecOutcome::Violation(e), 0),
    };
    drain_spec(None);
    let mut r = finish(outcome, sched, steps, crashes, dep.take());
    r.stats.helped = helped;
    r
}

// ---------------------------------------------------------------------
// Parallel exploration machinery
// ---------------------------------------------------------------------

/// Canonical job key: (pass rank, index within the pass).
type JobKey = (u8, u64);

/// Derives the per-execution seed: `hash(base_seed, pass_rank, index)`.
/// Every execution's randomness is a pure function of these three, which
/// is what makes parallel and sequential runs indistinguishable.
fn exec_seed(base: u64, rank: u8, index: u64) -> u64 {
    splitmix(splitmix(base ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ index)
}

/// Deterministic shard assignment for a job key: a splitmix hash of
/// `(rank, index)` reduced mod `n`. Pure function of the key, so every
/// process — and every worker count — agrees on who owns which job
/// (DESIGN.md §13).
pub fn shard_of(key: (u8, u64), n: u32) -> u32 {
    if n <= 1 {
        return 0;
    }
    let mixed = splitmix(((key.0 as u64) << 56) ^ key.1.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (mixed % n as u64) as u32
}

enum JobKind {
    /// One `run_one` execution.
    Single,
    /// A random-crash pair: probe the schedule crash-free to find its
    /// horizon, then rerun it with one derived crash point. The crash
    /// run reports under pass "random-crash" with the same index.
    ProbeThenCrash,
}

/// One unit of scheduled work, keyed `(pass.rank(), index)`.
struct Job {
    pass: Pass,
    index: u64,
    policy: Policy,
    crash_points: Vec<u64>,
    /// The fault plan injected into this job's execution.
    faults: FaultPlan,
    kind: JobKind,
    /// Whether later job derivation depends on this execution's result
    /// (horizon probes). Probes run in every shard — a shard that
    /// skipped them could not enumerate the same downstream job keys —
    /// but are counted only by their owner.
    probe: bool,
}

impl Job {
    /// A fault-free single execution (the common case).
    fn new(pass: Pass, index: u64, policy: Policy) -> Job {
        Job {
            pass,
            index,
            policy,
            crash_points: Vec::new(),
            faults: FaultPlan::default(),
            kind: JobKind::Single,
            probe: false,
        }
    }

    fn key(&self) -> JobKey {
        (self.pass.rank(), self.index)
    }
}

/// One crash or fault coordinate of a sweep: the crash points to inject
/// and the fault plan to run under.
type SweepPoint = (Vec<u64>, FaultPlan);

/// Round-robin sweep jobs, one per point, indexed from `first` in order.
fn sweep_jobs(pass: Pass, first: u64, points: impl IntoIterator<Item = SweepPoint>) -> Vec<Job> {
    points
        .into_iter()
        .zip(first..)
        .map(|((crash_points, faults), index)| Job {
            crash_points,
            faults,
            ..Job::new(pass, index, Policy::RoundRobin)
        })
        .collect()
}

/// Permanent failure of each disk of a two-disk device at every grant
/// count in `grants`, after the given crash points.
fn disk_failures(crash: Vec<u64>, grants: Range<u64>) -> impl Iterator<Item = SweepPoint> {
    grants.flat_map(move |g| {
        [1u8, 2].map(|d| {
            let faults = FaultPlan {
                disk_fail: Some((d, g)),
                ..FaultPlan::default()
            };
            (crash.clone(), faults)
        })
    })
}

/// Rank 8: at every crash point of the baseline schedule, a crash that
/// persists none or a pseudo-random subset of the unflushed write buffer
/// (persisting *all* of it is exactly the plain crash sweep).
fn torn_write_points(probe: &ExecStats) -> Vec<SweepPoint> {
    const MODES: [TornMode; 3] = [TornMode::KeepNone, TornMode::Subset(0), TornMode::Subset(1)];
    (0..probe.steps)
        .flat_map(|k| {
            MODES.map(|mode| {
                let faults = FaultPlan {
                    torn: Some(mode),
                    ..FaultPlan::default()
                };
                (vec![k], faults)
            })
        })
        .collect()
}

/// Rank 9: drop, duplicate, or delay each message of the baseline
/// schedule, one fault per execution.
fn net_fault_points(probe: &ExecStats) -> Vec<SweepPoint> {
    const FAULTS: [NetFault; 3] = [NetFault::Drop, NetFault::Duplicate, NetFault::Delay];
    (0..probe.net_msgs)
        .flat_map(|m| {
            FAULTS.map(|fault| {
                let faults = FaultPlan {
                    net: [(m, fault)].into(),
                    ..FaultPlan::default()
                };
                (Vec::new(), faults)
            })
        })
        .collect()
}

/// Shared cancellation state: the minimum-key counterexample found so
/// far, plus a cheap "anything failed yet?" flag.
struct Cancel {
    keep_going: bool,
    stop: AtomicBool,
    best: Mutex<Option<JobKey>>,
}

impl Cancel {
    fn new(keep_going: bool) -> Self {
        Cancel {
            keep_going,
            stop: AtomicBool::new(false),
            best: Mutex::new(None),
        }
    }

    /// Whether a job with this key still needs to run. Skipping only
    /// jobs whose key is *greater* than a known failure's key preserves
    /// determinism: the minimum-key failure can never be skipped, so the
    /// reported counterexample is independent of worker timing.
    fn should_run(&self, key: JobKey) -> bool {
        if self.keep_going || !self.stop.load(Ordering::Relaxed) {
            return true;
        }
        match *self.best.lock() {
            Some(best) => key < best,
            None => true,
        }
    }

    fn offer(&self, key: JobKey) {
        let mut best = self.best.lock();
        if best.is_none_or(|b| key < b) {
            *best = Some(key);
        }
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether the exploration should stop scheduling further phases:
    /// a failure has been found and the config asked for early exit.
    fn cancelled(&self) -> bool {
        !self.keep_going && self.stop.load(Ordering::Relaxed)
    }
}

/// What the workers share while running jobs: the harness and config,
/// the cancellation state, the telemetry stream, and the resume WAL.
struct Pool<'a, S, H> {
    harness: &'a H,
    config: &'a CheckConfig,
    workers: usize,
    cancel: Cancel,
    telem: RunTelemetry,
    /// Completed `ok` executions from the resume WAL, keyed by job key.
    replay: BTreeMap<JobKey, ExecStats>,
    /// Executions satisfied from the WAL instead of run.
    replayed: AtomicU64,
    _spec: PhantomData<fn() -> S>,
}

impl<S: SpecTS, H: Harness<S>> Pool<'_, S, H> {
    fn owns(&self, key: JobKey) -> bool {
        match self.config.shard {
            None => true,
            Some((i, n)) => shard_of(key, n) == i,
        }
    }

    /// Whether every shard must *execute* this job even when it does
    /// not own it: its result feeds deterministic job derivation or
    /// strategy feedback, which must be identical across shards. The
    /// nested crash sweep promotes the first-level crash sweep into
    /// this derivation spine: nested job enumeration needs every rank-3
    /// step count.
    fn is_spine(&self, job: &Job) -> bool {
        job.probe
            || matches!(job.pass, Pass::Dfs | Pass::Random)
            || (job.pass == Pass::CrashSweep && self.config.passes.contains(Pass::NestedCrash))
    }

    /// Runs one execution of `job` under `pass` and `crash_points` — or
    /// replays it from the WAL when the checkpoint completed it — and
    /// returns its record. A live run emits `exec_done` (plus
    /// `counterexample` on failure) and offers a failure to the
    /// cancellation state; a replayed one emits nothing, since its
    /// record is already in the WAL.
    fn execute(&self, job: &Job, pass: Pass, crash_points: Vec<u64>, counted: bool) -> ExecRecord {
        let key = (pass.rank(), job.index);
        let seed = exec_seed(self.config.seed, job.pass.rank(), job.index);
        let mut rec = ExecRecord {
            key,
            pass,
            seed,
            crash_points,
            family: FaultFamily::of(&job.faults),
            counted,
            ..ExecRecord::default()
        };
        // Schedule-phase executions (ranks 0-1) always run live — the
        // strategy needs their decision paths and dependency traces for
        // feedback; everything from the crash-sweep base up is
        // replayable. Every replayed statistic is deterministic, so a
        // resumed run folds to the same report as a cold one.
        if pass.rank() >= Pass::CrashSweepBase.rank() {
            if let Some(stats) = self.replay.get(&key) {
                self.replayed.fetch_add(1, Ordering::Relaxed);
                rec.stats = *stats;
                return rec;
            }
        }
        let r = run_one(
            self.harness,
            &job.policy,
            &rec.crash_points,
            &job.faults,
            seed,
            self.config.max_steps,
            false,
        );
        rec.outcome = OutcomeKind::of(&r.outcome);
        rec.stats = r.stats;
        rec.duration = r.duration;
        rec.lock_profile = r.lock_profile;
        rec.deps = r.deps;
        if matches!(pass, Pass::Dfs | Pass::Random) {
            // The strategies feed on schedule-phase decision paths.
            rec.decisions = r.decisions;
        }
        self.telem
            .emit(&telemetry::ev_exec_done(&rec, &job.faults.compact()));
        self.telem
            .exec_finished(rec.stats.steps, r.outcome.is_failure());
        if r.outcome.is_failure() {
            let cx = Counterexample {
                outcome: r.outcome,
                pass,
                index: job.index,
                seed,
                schedule_prefix: job.policy.prefix().to_vec(),
                crash_points: rec.crash_points.clone(),
                clamped: r.clamped,
                faults: job.faults.clone(),
                trace: r.trace,
                timeline: None,
            };
            self.telem.emit(&telemetry::ev_counterexample(&cx));
            self.cancel.offer(key);
            rec.cx = Some(cx);
        }
        rec
    }

    /// Runs one job (one or two executions), applying shard ownership:
    /// leaf jobs other shards own are skipped, spine jobs run but are
    /// not counted.
    fn execute_job(&self, job: &Job) -> Vec<ExecRecord> {
        let owned = self.owns(job.key());
        let crash_key = (Pass::RandomCrash.rank(), job.index);
        // A random-crash probe must also run when this shard owns only
        // the derived crash half: the crash point is a function of the
        // probe's horizon.
        let crash_owned = matches!(job.kind, JobKind::ProbeThenCrash) && self.owns(crash_key);
        if !owned && !crash_owned && !self.is_spine(job) || !self.cancel.should_run(job.key()) {
            return Vec::new();
        }
        let first = self.execute(job, job.pass, job.crash_points.clone(), owned);
        if first.cx.is_some() || !crash_owned || !self.cancel.should_run(crash_key) {
            return vec![first];
        }
        // The probe succeeded: rerun the same schedule with one crash
        // point derived from the probe's horizon. The crash run reuses
        // the probe's seed so the schedule replays.
        let k = splitmix(first.seed) % first.stats.steps.max(1);
        let second = self.execute(job, Pass::RandomCrash, vec![k], true);
        vec![first, second]
    }

    /// Runs a batch of jobs across the worker pool (inline when a single
    /// worker suffices) and returns their records in job order.
    fn run_wave(&self, jobs: &[Job]) -> Vec<ExecRecord> {
        let workers = self.workers.min(jobs.len()).max(1);
        if workers == 1 {
            return jobs.iter().flat_map(|job| self.execute_job(job)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Vec<ExecRecord>>> =
            (0..jobs.len()).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    *slots[i].lock() = self.execute_job(&jobs[i]);
                });
            }
        });
        slots
            .into_iter()
            .flat_map(|slot| slot.into_inner())
            .collect()
    }
}

/// Deterministic execution-budget gate: admits job waves in canonical
/// order until [`CheckConfig::exec_budget`] executions have been
/// *enumerated* (owned or not, replayed or not — so the gate closes at
/// the same job across shards and resumes), then truncates.
struct BudgetGate {
    limit: u64,
    used: u64,
    exhausted: bool,
}

impl BudgetGate {
    fn open(&self) -> bool {
        !self.exhausted
    }

    /// Truncates `jobs` to the remaining budget (a probe-then-crash job
    /// costs two executions); marks the gate exhausted on truncation.
    fn admit(&mut self, mut jobs: Vec<Job>) -> Vec<Job> {
        if self.limit == 0 {
            return jobs;
        }
        let mut kept = 0;
        for job in &jobs {
            let cost = match job.kind {
                JobKind::Single => 1,
                JobKind::ProbeThenCrash => 2,
            };
            if self.used + cost > self.limit {
                break;
            }
            self.used += cost;
            kept += 1;
        }
        if kept < jobs.len() {
            self.exhausted = true;
            jobs.truncate(kept);
        }
        jobs
    }
}

/// One check's coordinator state: the worker pool, the budget gate, the
/// per-pass wall timer, every execution record so far, and the fold the
/// records end up in.
struct Explorer<'a, S, H> {
    pool: Pool<'a, S, H>,
    budget: BudgetGate,
    /// The pass whose wall time is being measured, and since when.
    pass_timer: Option<(Pass, Instant)>,
    records: Vec<ExecRecord>,
    /// Enumerable sweep spaces are recorded into the fold as passes
    /// derive their jobs (deterministic: derivation is probe-driven, not
    /// timed); the records are folded in once exploration ends.
    fold: OutcomeFold,
}

impl<'a, S: SpecTS, H: Harness<S>> Explorer<'a, S, H> {
    fn new(harness: &'a H, config: &'a CheckConfig) -> Self {
        let workers = config.effective_workers();
        // Read the WAL before the telemetry stream opens: resuming into
        // the same file must see it before anything is appended.
        let replay = load_wal(harness.name(), config);
        let telem = RunTelemetry::new(harness.name(), config);
        let strategy = config.strategy.name();
        let mut report = CheckReport {
            name: harness.name().to_string(),
            workers,
            strategy: strategy.to_string(),
            shard: config.shard,
            env: EnvStamp::current(workers as u64, strategy),
            ..CheckReport::default()
        };
        if let Some(e) = &telem.open_error {
            report.incomplete.push(format!("telemetry degraded: {e}"));
        }
        let fold = OutcomeFold {
            report,
            resources: config.profile.then(BTreeMap::new),
        };
        telem.emit(&telemetry::ev_run_start(harness.name(), config, workers));
        // Sharded runs force keep-going semantics: a cutoff chosen inside
        // one shard would depend on which jobs that shard owns, and shard
        // statistics must be exactly mergeable by `merge_reports`.
        let keep_going = config.keep_going || config.shard.is_some();
        Explorer {
            pool: Pool {
                harness,
                config,
                workers,
                cancel: Cancel::new(keep_going),
                telem,
                replay,
                replayed: AtomicU64::new(0),
                _spec: PhantomData,
            },
            budget: BudgetGate {
                limit: config.exec_budget,
                used: 0,
                exhausted: false,
            },
            pass_timer: None,
            records: Vec::new(),
            fold,
        }
    }

    /// Whether exploration goes on: no early-exit failure yet and budget
    /// left.
    fn live(&self) -> bool {
        !self.pool.cancel.cancelled() && self.budget.open()
    }

    fn has(&self, pass: Pass) -> bool {
        self.pool.config.passes.contains(pass)
    }

    /// Closes the running pass with a timed `pass_end` record and opens
    /// `next`, if any. Emitted from the coordinating thread only, so the
    /// event order is deterministic for a fixed config.
    fn switch_pass(&mut self, next: Option<Pass>) {
        if let Some((prev, started)) = self.pass_timer.take() {
            let ev = telemetry::ev_pass_end(prev, started.elapsed());
            self.pool.telem.emit(&ev);
        }
        if let Some(pass) = next {
            self.pass_timer = Some((pass, Instant::now()));
            self.pool.telem.emit(&telemetry::ev_pass_start(pass));
        }
    }

    /// The one run step every pass shares: counts the fault plans the
    /// jobs enumerate, admits the jobs against the execution budget in
    /// canonical order, runs them across the pool, and keeps their
    /// records. Returns the new records, in job order.
    fn run_jobs(&mut self, jobs: Vec<Job>) -> &[ExecRecord] {
        let cov = &mut self.fold.report.coverage;
        for job in &jobs {
            match FaultFamily::of(&job.faults) {
                FaultFamily::Disk => cov.disk_fault_plans_enumerable += 1,
                FaultFamily::Torn => cov.torn_plans_enumerable += 1,
                FaultFamily::Net => cov.net_plans_enumerable += 1,
                FaultFamily::None => {}
            }
        }
        let jobs = self.budget.admit(jobs);
        let first = self.records.len();
        self.records.extend(self.pool.run_wave(&jobs));
        &self.records[first..]
    }

    /// Runs a horizon probe — derivation spine, executed by every shard
    /// and counted only by its owner — and returns its counters, or
    /// `None` when exploration stopped.
    fn probe(&mut self, job: Job) -> Option<ExecStats> {
        let stats = self
            .run_jobs(vec![Job { probe: true, ..job }])
            .first()
            .map_or_else(ExecStats::default, |r| r.stats);
        self.live().then_some(stats)
    }

    /// Schedule phase (ranks 0-1): the strategy decides which crash-free
    /// schedules to run, as a wave loop with feedback. Each wave's job
    /// keys are assigned in spec order before anything runs; feedback
    /// (frontier expansion, sleep-set pruning, coverage re-seeding) is
    /// applied only from *complete* waves, so the explored set and the
    /// pruned/guided counters are worker-count independent.
    fn schedule_phase(&mut self, session: &mut dyn StrategySession) {
        let mut announced = PassSet::empty();
        let mut next_index: BTreeMap<Pass, u64> = BTreeMap::new();
        while self.live() {
            let Some(wave) = session.next_wave() else {
                break;
            };
            let pass = wave.pass;
            if !announced.contains(pass) {
                announced.insert(pass);
                self.switch_pass(Some(pass));
            }
            let first = next_index.get(&pass).copied().unwrap_or(0);
            next_index.insert(pass, first + wave.specs.len() as u64);
            let jobs = (wave.specs.iter().zip(first..))
                .map(|(spec, index)| Job::new(pass, index, spec.into()))
                .collect();
            let observed: Vec<ObservedExec> = (self.run_jobs(jobs).iter())
                .map(|o| ObservedExec {
                    slot: (o.key.1 - first) as usize,
                    decisions: o.decisions.clone(),
                    trace_fp: o.stats.trace_fp,
                    failed: o.outcome != OutcomeKind::Ok,
                    deps: o.deps.clone(),
                })
                .collect();
            // Stop *before* observing a wave cut short by an early-exit
            // failure (later jobs skipped) or by the budget (truncated):
            // partial feedback would make strategy state depend on
            // worker timing or on where the budget landed rather than
            // on canonical job order.
            if !self.live() {
                break;
            }
            session.observe(pass, &observed);
        }
    }

    /// Ranks 2-4: the systematic crash sweep on the round-robin schedule.
    fn crash_sweep(&mut self) {
        // Rank 2: discover the crash-free horizon first; the rank-3 job
        // list depends on its step count.
        self.switch_pass(Some(Pass::CrashSweepBase));
        let Some(base) = self.probe(Job::new(Pass::CrashSweepBase, 0, Policy::RoundRobin)) else {
            return;
        };
        // Rank 3: one crash at every grant count up to the horizon.
        self.switch_pass(Some(Pass::CrashSweep));
        self.fold.report.coverage.crash_points_enumerable = base.steps;
        let points = (0..base.steps).map(|k| (vec![k], FaultPlan::default()));
        let sweep: Vec<(u64, u64)> = (self.run_jobs(sweep_jobs(Pass::CrashSweep, 0, points)))
            .iter()
            .map(|o| (o.key.1, o.stats.steps))
            .collect();
        // Rank 4: a second crash inside each recovery, generated in
        // deterministic (k, m) order from the sweep's step counts.
        if self.has(Pass::NestedCrash) && self.live() {
            self.switch_pass(Some(Pass::NestedCrash));
            let nested = (sweep.into_iter()).flat_map(|(k, steps)| {
                (k + 1..steps).map(move |m| (vec![k, m], FaultPlan::default()))
            });
            self.run_jobs(sweep_jobs(Pass::NestedCrash, 0, nested));
        }
    }

    /// A fault pass (ranks 7-9): probes the fault-free round-robin
    /// schedule at index 0 for its enumeration horizon (grant, disk-op,
    /// or message count), then runs one job per derived point at indices
    /// 1.. — so every job key is independent of worker count. Returns
    /// the probe's counters and the next free index.
    fn fault_sweep(
        &mut self,
        pass: Pass,
        derive: impl FnOnce(&ExecStats) -> Vec<SweepPoint>,
    ) -> Option<(ExecStats, u64)> {
        self.switch_pass(Some(pass));
        let probe = self.probe(Job::new(pass, 0, Policy::RoundRobin))?;
        let jobs = sweep_jobs(pass, 1, derive(&probe));
        let next = 1 + jobs.len() as u64;
        self.run_jobs(jobs);
        Some((probe, next))
    }

    /// Rank 7: transient I/O errors on every disk op, plus (on two-disk
    /// substrates) a permanent single-disk failure at every grant count —
    /// including during recovery, whose horizon a second probe measures
    /// with one mid-schedule crash.
    fn disk_fault_sweep(&mut self, surface: FaultSurface) {
        let Some((probe, next)) = self.fault_sweep(Pass::DiskFault, |p| {
            let transient = if surface.transient_disk_io {
                p.disk_ops
            } else {
                0
            };
            let fail = if surface.two_disk { p.steps } else { 0 };
            (0..transient)
                .map(|j| {
                    let faults = FaultPlan {
                        transient_io: [j].into(),
                        ..FaultPlan::default()
                    };
                    (Vec::new(), faults)
                })
                .chain(disk_failures(Vec::new(), 0..fail))
                .collect()
        }) else {
            return;
        };
        if !surface.two_disk || probe.steps == 0 || !self.live() {
            return;
        }
        let k = probe.steps / 2;
        let recovery = Job {
            crash_points: vec![k],
            ..Job::new(Pass::DiskFault, next, Policy::RoundRobin)
        };
        if let Some(recovery) = self.probe(recovery) {
            let points = disk_failures(vec![k], k + 1..recovery.steps);
            self.run_jobs(sweep_jobs(Pass::DiskFault, next + 1, points));
        }
    }
}

/// Whether a WAL's `run_start` record matches the resuming
/// configuration. Workers are excluded (reports are worker-count
/// independent); everything else — seed, budgets, passes, strategy,
/// shard — must agree, or replayed statistics would be lies.
fn wal_matches_config(stored: &Value, name: &str, config: &CheckConfig) -> bool {
    let mut want = telemetry::ev_run_start(name, config, 0);
    let mut got = stored.clone();
    for v in [&mut want, &mut got] {
        if let Value::Object(m) = v {
            m.remove("workers");
            // The env stamp carries the worker count and toolchain; a
            // WAL from a different machine is still replayable because
            // every replayed statistic is deterministic.
            m.remove("env");
        }
    }
    want == got
}

/// Loads the resume WAL, if configured. Any problem — unreadable file,
/// config mismatch — degrades to a cold start with a warning rather
/// than failing the run: a campaign must make progress even when its
/// checkpoint is useless.
fn load_wal(name: &str, config: &CheckConfig) -> BTreeMap<JobKey, ExecStats> {
    let Some(path) = &config.resume_from else {
        return BTreeMap::new();
    };
    let wal = match telemetry::read_wal(path, name) {
        Ok(w) => w,
        Err(e) => {
            eprintln!(
                "[checker] {name}: cannot read WAL {}: {e}; starting cold",
                path.display()
            );
            return BTreeMap::new();
        }
    };
    match &wal.run_start {
        Some(rs) if wal_matches_config(rs, name, config) => {
            if wal.torn_lines > 0 {
                eprintln!(
                    "[checker] {name}: WAL {}: dropped {} torn line(s)",
                    path.display(),
                    wal.torn_lines
                );
            }
            wal.completed
        }
        Some(_) => {
            eprintln!(
                "[checker] {name}: WAL {} was written by a different configuration; starting cold",
                path.display()
            );
            BTreeMap::new()
        }
        None => {
            if wal.runs_started + wal.torn_lines + wal.completed.len() as u64 > 0 {
                eprintln!(
                    "[checker] {name}: WAL {} has no usable run_start record; starting cold",
                    path.display()
                );
            }
            BTreeMap::new()
        }
    }
}

/// Runs all configured exploration passes over a scenario, dispatching
/// executions across [`CheckConfig::workers`] threads. See the module
/// docs for the determinism contract.
pub fn check<S: SpecTS, H: Harness<S>>(harness: &H, config: &CheckConfig) -> CheckReport {
    let start = Instant::now();
    let mut ex = Explorer::new(harness, config);
    let mut session = config.strategy.session(config);
    ex.schedule_phase(session.as_mut());

    // The sweeps. Each derives its jobs from probe results, so job keys
    // and indices are a pure function of the configuration.
    let surface = harness.fault_surface();
    if ex.has(Pass::CrashSweep) && ex.live() {
        ex.crash_sweep();
    }
    if ex.has(Pass::RandomCrash) && ex.live() {
        // Ranks 5-6: random schedules with a random crash point each
        // (probe + crash run are one job; the crash run reuses the
        // probe's seed).
        ex.switch_pass(Some(Pass::RandomCrashProbe));
        let jobs = (0..config.random_crash_samples as u64)
            .map(|i| Job {
                kind: JobKind::ProbeThenCrash,
                ..Job::new(
                    Pass::RandomCrashProbe,
                    i,
                    Policy::Random { prefix: Vec::new() },
                )
            })
            .collect();
        ex.run_jobs(jobs);
    }
    if ex.has(Pass::DiskFault) && (surface.transient_disk_io || surface.two_disk) && ex.live() {
        ex.disk_fault_sweep(surface);
    }
    if ex.has(Pass::TornWrite) && surface.torn_writes && ex.live() {
        ex.fault_sweep(Pass::TornWrite, torn_write_points);
    }
    if ex.has(Pass::NetFault) && surface.net && ex.live() {
        ex.fault_sweep(Pass::NetFault, net_fault_points);
    }

    // Fold. Without keep_going, only jobs at or below the winning key
    // count — exactly the set a canonical-order sequential run would
    // have executed — which makes the whole report worker-count
    // independent. Sharded runs fold only owned records (spine jobs
    // executed for derivation are excluded), so merging shard reports
    // reproduces the unsharded fold.
    let Explorer {
        pool,
        budget,
        pass_timer,
        records,
        mut fold,
    } = ex;
    let failed = records.iter().filter(|r| r.counted && r.cx.is_some());
    let cutoff = if pool.cancel.keep_going {
        None
    } else {
        failed.map(|r| r.key).min()
    };
    for rec in records {
        if rec.counted && cutoff.is_none_or(|cut| rec.key <= cut) {
            fold.record(rec);
        }
    }

    // Shrink the winning counterexample before the timeline is captured,
    // so the causal trace below is recorded from the *minimized*
    // schedule. Shrinking is sequential post-processing over one
    // counterexample, so the result is deterministic at every worker
    // count; its re-runs emit no telemetry and count toward no
    // statistic (DESIGN.md §16).
    let report = &mut fold.report;
    let shrink = match report.counterexamples.first_mut() {
        Some(first) if config.shrink => Some(crate::shrink::shrink_counterexample(
            harness,
            first,
            config.max_steps,
        )),
        _ => None,
    };

    // Attach a causal timeline to the winning counterexample by
    // re-running it with the trace recorder on. The re-run is a pure
    // side channel: it emits no telemetry, counts toward no statistic,
    // and the timeline is excluded from campaign JSON and fingerprints,
    // so the report is byte-identical with capture on or off.
    if let Some(first) = report.counterexamples.first_mut() {
        if config.trace_capture {
            let policy = cx_policy(first);
            first.timeline = run_one(
                harness,
                &policy,
                &first.crash_points,
                &first.faults,
                first.seed,
                config.max_steps,
                true,
            )
            .exec_trace;
        }
    }

    report.shrink = shrink;
    report.replayed = pool.replayed.load(Ordering::Relaxed);
    if !budget.open() {
        report.incomplete.push(format!(
            "execution budget of {} exhausted; later jobs were skipped",
            config.exec_budget
        ));
    }
    if let Some(e) = pool.telem.stream_error() {
        report
            .incomplete
            .push(format!("telemetry stream error: {e}"));
    }
    report.wall_time = start.elapsed();
    fold.set_session(session.pruned(), session.guided());
    let profile = config.profile.then(|| {
        let introspection = StrategyProfile {
            strategy: fold.report.strategy.clone(),
            pruned: session.pruned(),
            coverage_guided: session.guided(),
            prunes_by_resource: session.prunes_by_resource(),
            coverage: session.coverage_introspection(),
        };
        Profile::from_fold(&fold, introspection)
    });
    let mut report = fold.finish();
    report.profile = profile;
    if let Some((prev, started)) = pass_timer {
        pool.telem
            .emit(&telemetry::ev_pass_end(prev, started.elapsed()));
    }
    pool.telem.emit(&telemetry::ev_run_end(&report));
    report
}

/// Reruns a single execution (round-robin schedule) with explicit crash
/// points — used by tests that target one specific interleaving, like the
/// paper's Figure 6 scenario.
pub fn run_scenario<S: SpecTS, H: Harness<S>>(
    harness: &H,
    crash_points: &[u64],
    config: &CheckConfig,
) -> (ExecOutcome, String) {
    let r = run_one(
        harness,
        &Policy::RoundRobin,
        crash_points,
        &FaultPlan::default(),
        config.seed,
        config.max_steps,
        false,
    );
    (r.outcome, r.trace)
}

/// The schedule policy that reproduces a counterexample: DFS prefixes
/// for the DFS pass, the recorded seed (plus corpus prefix) for the
/// random passes, round-robin for the sweep passes.
fn cx_policy(cx: &Counterexample) -> Policy {
    let prefix = cx.schedule_prefix.clone();
    match cx.pass {
        Pass::Random | Pass::RandomCrash | Pass::RandomCrashProbe => Policy::Random { prefix },
        Pass::CrashSweepBase
        | Pass::CrashSweep
        | Pass::NestedCrash
        | Pass::DiskFault
        | Pass::TornWrite
        | Pass::NetFault => Policy::RoundRobin,
        Pass::Dfs => Policy::Dfs {
            prefix,
            track_deps: false,
        },
    }
}

/// Re-runs a shrink candidate: the counterexample's recorded policy,
/// crash points, and fault plan, untraced and untracked. Returns the
/// outcome plus the clamp depths and ghost trace of the re-run, which
/// the shrinker folds back into an accepted candidate.
pub(crate) fn rerun_candidate<S: SpecTS, H: Harness<S>>(
    harness: &H,
    cx: &Counterexample,
    max_steps: u64,
) -> (ExecOutcome, Vec<usize>, String) {
    let r = run_one(
        harness,
        &cx_policy(cx),
        &cx.crash_points,
        &cx.faults,
        cx.seed,
        max_steps,
        false,
    );
    (r.outcome, r.clamped, r.trace)
}

/// Replays a counterexample: reruns the execution with the recorded
/// schedule, seed, and crash points, returning the (deterministic)
/// outcome and trace — the debugging entry point for a failing
/// [`Counterexample`].
///
/// DFS counterexamples carry a choice-index prefix; crash-sweep ones
/// replay round-robin with the recorded crash points; random-pass
/// counterexamples replay the recorded per-execution seed (plus the
/// corpus prefix, for coverage-guided samples).
pub fn replay<S: SpecTS, H: Harness<S>>(
    harness: &H,
    cx: &Counterexample,
    config: &CheckConfig,
) -> (ExecOutcome, String) {
    let (outcome, _, trace) = rerun_candidate(harness, cx, config.max_steps);
    (outcome, trace)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
