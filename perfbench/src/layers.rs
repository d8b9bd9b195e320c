//! Unit costs of the layers under the checker, timed from outside by
//! calling each layer's public functions with inputs shaped like the
//! campaign's: a handful of virtual threads, 4-block disks of 8-byte
//! blocks, and ghost-engine executions of the workload's median length.
//!
//! Substrate operations are called from controller context, where
//! `ModelRt::yield_point` returns at once, so their cost excludes the
//! scheduler handoff that the grant probes measure.

use crate::sys::{median, per_call_us};
use goose_rt::fs::FileSys;
use goose_rt::{ModelFs, ModelNet, ModelRt, StepResult};
use perennial::engine::Ghost;
use perennial_disk::{BufferedDisk, SingleDisk};
use perennial_spec::fixtures::{RegOp, RegSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed batches per probe; each probe reports its median batch.
const REPS: usize = 9;

/// Per-call costs in microseconds, keyed by their per-layer metric name:
///
/// - `goose.sched.grant_us.t2` / `.t4`: `ModelRt::grant` round trip,
///   round-robin over 2 / 4 threads;
/// - `goose.sched.spawn_us`: `ModelRt::spawn` of one virtual thread;
/// - `goose.sched.join_us`: `ModelRt::join_all`, per finished thread;
/// - `goose.sched.crash_all_us`: `ModelRt::crash_all` over two parked
///   threads;
/// - `core.op_us`: `begin_op` + `commit_op` + `finish_op` on a register
///   spec; `core.validate_us`: `Ghost::validate` after `ops_per_exec`
///   operations;
/// - `disk.write_us`, `disk.flush_us`, `disk.crash_torn_us`: a
///   `BufferedDisk` block write, and a flush or torn crash over 4
///   pending writes;
/// - `goose.fs.op_us`: one `ModelFs` call (create, append, close and
///   delete averaged); `goose.net.msg_us`: one `ModelNet` send plus
///   receive.
pub type UnitCosts = BTreeMap<&'static str, f64>;

pub fn measure(ops_per_exec: usize) -> UnitCosts {
    let (spawn, join) = spawn_join_us();
    let (op, validate) = ghost_us(ops_per_exec.max(1));
    let (write, flush, torn) = disk_us();
    BTreeMap::from([
        ("goose.sched.grant_us.t2", grant_us(2)),
        ("goose.sched.grant_us.t4", grant_us(4)),
        ("goose.sched.spawn_us", spawn),
        ("goose.sched.join_us", join),
        ("goose.sched.crash_all_us", crash_all_us()),
        ("core.op_us", op),
        ("core.validate_us", validate),
        ("disk.write_us", write),
        ("disk.flush_us", flush),
        ("disk.crash_torn_us", torn),
        ("goose.fs.op_us", fs_op_us()),
        ("goose.net.msg_us", net_msg_us()),
    ])
}

/// Each cost's median over several rounds of [`measure`], taken at
/// different moments of a run so that one busy instant of the host
/// does not set them.
pub fn median_of(rounds: &[UnitCosts]) -> UnitCosts {
    rounds[0]
        .keys()
        .map(|&k| (k, median(&rounds.iter().map(|r| r[k]).collect::<Vec<_>>())))
        .collect()
}

fn runtime() -> Arc<ModelRt> {
    ModelRt::new(1, u64::MAX)
}

/// Grants round-robin over `threads` virtual threads that each yield
/// `STEPS` times; only the grant loop is timed.
fn grant_us(threads: usize) -> f64 {
    const STEPS: usize = 300;
    per_call_us(REPS, threads * (STEPS + 1), || {
        let rt = runtime();
        for i in 0..threads {
            let r = Arc::clone(&rt);
            rt.spawn(format!("t{i}"), move || {
                for _ in 0..STEPS {
                    r.yield_point();
                }
            });
        }
        let mut live: Vec<usize> = (0..threads).collect();
        let start = Instant::now();
        while !live.is_empty() {
            live.retain(|&tid| rt.grant(tid) == StepResult::Yielded);
        }
        let took = start.elapsed();
        rt.join_all();
        took
    })
}

fn spawn_join_us() -> (f64, f64) {
    const THREADS: usize = 8;
    let mut joins = Vec::new();
    let spawn = per_call_us(REPS, THREADS, || {
        let rt = runtime();
        let start = Instant::now();
        for i in 0..THREADS {
            rt.spawn(format!("t{i}"), || {});
        }
        let took = start.elapsed();
        for tid in 0..THREADS {
            assert_eq!(rt.grant(tid), StepResult::Finished);
        }
        let start = Instant::now();
        rt.join_all();
        joins.push(start.elapsed().as_secs_f64() * 1e6 / THREADS as f64);
        took
    });
    (spawn, median(&joins))
}

fn crash_all_us() -> f64 {
    per_call_us(REPS * 3, 1, || {
        let rt = runtime();
        for i in 0..2 {
            let r = Arc::clone(&rt);
            rt.spawn(format!("t{i}"), move || loop {
                r.yield_point();
            });
            assert_eq!(rt.grant(i), StepResult::Yielded);
        }
        let start = Instant::now();
        rt.crash_all();
        start.elapsed()
    })
}

/// Fresh engine per simulated execution: `ops` operations, then
/// validation, as the checker does at the end of every execution.
fn ghost_us(ops: usize) -> (f64, f64) {
    const EXECS: usize = 200;
    let mut validates = Vec::new();
    let op = per_call_us(REPS, EXECS * ops, || {
        let mut ops_time = Duration::ZERO;
        let mut validate_time = Duration::ZERO;
        for _ in 0..EXECS {
            let g = Ghost::new(RegSpec { size: 4 });
            let start = Instant::now();
            for k in 0..ops as u64 {
                let tok = g.begin_op(RegOp::Write(k % 4, k)).expect("begin_op");
                g.commit_op(&tok).expect("commit_op");
                g.finish_op(tok, &None).expect("finish_op");
            }
            let mid = Instant::now();
            black_box(g.validate().expect("validate"));
            validate_time += mid.elapsed();
            ops_time += mid - start;
        }
        validates.push(validate_time.as_secs_f64() * 1e6 / EXECS as f64);
        ops_time
    });
    (op, median(&validates))
}

fn disk_us() -> (f64, f64, f64) {
    const ROUNDS: usize = 200;
    let block = [7u8; 8];
    let (mut flushes, mut tears) = (Vec::new(), Vec::new());
    let write = per_call_us(REPS, ROUNDS * 8, || {
        let d = BufferedDisk::new(runtime(), 4, 8);
        let (mut w, mut f, mut t) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for _ in 0..ROUNDS {
            for (finish, total) in [(true, &mut f), (false, &mut t)] {
                let start = Instant::now();
                for a in 0..4 {
                    d.write(a, &block);
                }
                let mid = Instant::now();
                if finish {
                    d.flush();
                } else {
                    d.crash_torn();
                }
                *total += mid.elapsed();
                w += mid - start;
            }
        }
        flushes.push(f.as_secs_f64() * 1e6 / ROUNDS as f64);
        tears.push(t.as_secs_f64() * 1e6 / ROUNDS as f64);
        w
    });
    (write, median(&flushes), median(&tears))
}

fn fs_op_us() -> f64 {
    const FILES: usize = 200;
    per_call_us(REPS, FILES * 4, || {
        let fs = ModelFs::new(runtime(), &["spool"]);
        let dir = fs.resolve("spool").expect("resolve");
        let names: Vec<String> = (0..FILES).map(|i| format!("m{i}")).collect();
        let start = Instant::now();
        for name in &names {
            let fd = fs.create(dir, name).expect("create").expect("fresh name");
            fs.append(fd, b"msg-body").expect("append");
            fs.close(fd).expect("close");
            fs.delete(dir, name).expect("delete");
        }
        start.elapsed()
    })
}

fn net_msg_us() -> f64 {
    const MSGS: usize = 500;
    per_call_us(REPS, MSGS, || {
        let net = ModelNet::new(runtime());
        let start = Instant::now();
        for _ in 0..MSGS {
            net.send(b"deliver:user0:msg");
            black_box(net.recv().expect("message in flight"));
        }
        start.elapsed()
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_unit_cost_is_positive() {
        let c = super::median_of(&[super::measure(4), super::measure(2)]);
        assert_eq!(c.len(), 12);
        assert!(c.values().all(|v| *v > 0.0), "{c:?}");
    }
}
