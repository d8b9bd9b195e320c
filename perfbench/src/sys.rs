//! Process accounting from `/proc/self` (no `libc` is vendored) and the
//! small statistics the benchmark reports.

use std::time::Duration;

/// Linux reports `utime`/`stime` in USER_HZ ticks, which is 100 on
/// every architecture the kernel exports to user space.
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU time of the whole process, dead threads
/// included (the checker spawns an OS thread per virtual thread).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    pub fn now() -> Cpu {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
        // The command name may hold spaces; the fields after it do not.
        let rest = &stat[stat.rfind(')').expect("/proc/self/stat has a command name") + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // `rest` starts at field 3 (state); utime and stime are 14, 15.
        let tick = |i: usize| fields[i - 3].parse::<f64>().expect("numeric stat field");
        Cpu {
            user_s: tick(14) / TICKS_PER_S,
            sys_s: tick(15) / TICKS_PER_S,
        }
    }

    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Machine-wide CPU ticks from the `cpu` line of `/proc/stat`. On a
/// virtual machine, `steal` counts ticks the hypervisor gave to other
/// guests: interference the benchmark records but cannot remove.
#[derive(Debug, Clone, Copy)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    pub fn now() -> HostCpu {
        let stat = std::fs::read_to_string("/proc/stat").expect("reading /proc/stat");
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .expect("a cpu line in /proc/stat")
            .split_whitespace()
            .map(|t| t.parse().expect("numeric /proc/stat field"))
            .collect();
        // user nice system idle iowait irq softirq steal ...
        HostCpu {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().take(8).sum(),
        }
    }

    /// Share of the machine's CPU time stolen since `earlier`.
    pub fn steal_share_since(self, earlier: HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// Peak resident set size of the process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `q`-quantile (0..=1) by linear interpolation between closest
/// ranks; `NaN` on no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Harrell–Davis estimate of the `q`-quantile: the mean of all order
/// statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density. Over a
/// few dozen samples it varies much less than the one or two order
/// statistics [`quantile`] interpolates between. `NaN` on no samples.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    /// Midpoint-rule steps per order statistic.
    const STEPS: usize = 1000;
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let h = 1.0 / (n * STEPS) as f64;
    let density = |x: f64| ((a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()).exp();
    let (mut sum, mut total) = (0.0, 0.0);
    for (k, value) in v.iter().enumerate() {
        let w: f64 = (k * STEPS..(k + 1) * STEPS)
            .map(|j| density((j as f64 + 0.5) * h))
            .sum();
        sum += w * value;
        total += w;
    }
    sum / total
}

/// Median of per-call times in microseconds: `reps` batches of `batch`
/// calls each, every batch timed as a whole.
pub fn per_call_us(reps: usize, batch: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| f().as_secs_f64() * 1e6 / batch as f64)
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn harrell_davis_weighs_every_order_statistic() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(close(hd_quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0));
        assert!(close(hd_quantile(&[7.0; 9], 0.9), 7.0));
        assert!(close(hd_quantile(&[2.5], 0.9), 2.5));
        assert!(hd_quantile(&[], 0.5).is_nan());
        // An outlier moves the estimate only by its small weight.
        let v: Vec<f64> = (1..=28).map(f64::from).collect();
        let mut w = v.clone();
        w[27] = 1000.0;
        assert!(hd_quantile(&w, 0.5) - hd_quantile(&v, 0.5) < 0.01);
        let p90 = hd_quantile(&v, 0.9);
        assert!(p90 > 24.0 && p90 < 27.0, "{p90}");
    }

    #[test]
    fn proc_readers_see_this_process() {
        let before = Cpu::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let d = Cpu::now().since(before);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        let host = HostCpu::now();
        let share = HostCpu::now().steal_share_since(host);
        assert!((0.0..=1.0).contains(&share));
    }
}
