//! Small helpers: order statistics, the run fingerprint, peak memory, and
//! the result line.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Percentile `q` of `xs` (nearest rank on the sorted copy); 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
    v[idx]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A clock of `clock_gettime(2)`.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock ids are Linux constants.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// CPU time consumed so far by every thread of this process, exited
/// threads included. The kernel charges a task only for the time it ran:
/// time the hypervisor gave to other guests (steal) is not counted.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Latencies in nanoseconds, kept as counts in log-linear buckets (exact
/// below 512 ns, then 512 buckets per power of two, under 0.2% wide), so
/// that a session's memory does not grow with the number of statements it
/// sends.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

/// Buckets per power of two, as a power of two.
const SUB_BITS: usize = 9;
const SUB: usize = 1 << SUB_BITS;

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; (64 - SUB_BITS + 1) * SUB],
            n: 0,
        }
    }
}

impl Hist {
    fn bucket(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros() as usize;
        (exp - SUB_BITS + 1) * SUB + ((ns >> (exp - SUB_BITS)) as usize - SUB)
    }

    /// The middle of bucket `b`, in ns.
    fn middle(b: usize) -> f64 {
        if b < 2 * SUB {
            return b as f64;
        }
        let shift = b / SUB - 1;
        let low = ((SUB + b % SUB) as u64) << shift;
        low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Percentile `q` in µs (nearest rank); 0 when empty.
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((self.n - 1) as f64 * q).round() as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::middle(b) / 1e3;
            }
        }
        unreachable!("rank below the count")
    }
}

/// CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`) over an interval, as a share of all CPU time: the main
/// source of run-to-run spread on a shared virtual machine.
pub struct CpuSteal(Option<(u64, u64)>);

impl CpuSteal {
    fn read() -> Option<(u64, u64)> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let cpu: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        Some((*cpu.get(7)?, cpu.iter().sum()))
    }

    pub fn start() -> CpuSteal {
        CpuSteal(Self::read())
    }

    pub fn percent(&self) -> f64 {
        match (self.0, Self::read()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Filesystem type of the mount holding `dir`, read from `/proc/mounts`
/// (the longest mount point that prefixes the directory's real path).
fn fs_type(dir: &Path) -> String {
    let real = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 || !real.starts_with(f[1]) {
            continue;
        }
        if best.as_ref().is_none_or(|(len, _)| f[1].len() > *len) {
            best = Some((f[1].len(), f[2].to_string()));
        }
    }
    best.map(|(_, t)| t).unwrap_or_else(|| "unknown".into())
}

/// The git revision of the checkout, read from `.git` without running
/// git; `none` outside a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(name)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find(|l| l.ends_with(name))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
        .unwrap_or_else(|| "unknown".into())
}

/// Where a run was measured: cores, fsync setting, filesystem of the data
/// directory, build profile, git revision and compiler.
pub fn fingerprint(data_dir: &Path, fsync: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "cores={cores} fsync={} fs={} profile={profile} git={} rustc=\"{}\"",
        if fsync { "on" } else { "off" },
        fs_type(data_dir),
        git_rev(),
        env!("WIREBENCH_RUSTC"),
    )
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // `{:?}` prints an f64 with all its digits and keeps it a number.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_percentiles_are_within_a_bucket() {
        let mut h = Hist::default();
        let xs: Vec<u64> = (1..=10_000u64).map(|i| i * i * 37 % 9_000_001).collect();
        for &x in &xs {
            h.record(Duration::from_nanos(x));
        }
        let us: Vec<f64> = xs.iter().map(|&x| x as f64 / 1e3).collect();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let (want, got) = (percentile(&us, q), h.percentile_us(q));
            assert!(
                (got - want).abs() <= want * 0.002 + 1e-3,
                "q {q}: {got} vs {want}"
            );
        }
        assert_eq!(h.len(), 10_000);
    }
}
