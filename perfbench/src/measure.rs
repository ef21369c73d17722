//! Measurement plumbing shared by the workloads: seeded inputs, a
//! bounded latency sampler, CPU and memory accounting through
//! `getrusage`, and the kernel's listen-queue overflow counter.

use std::time::Duration;

/// SplitMix64: the benchmark's only source of input randomness, so one
/// seed always yields the same inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Keeps a uniform, bounded subsample of a stream: every `stride`-th
/// value, halving the kept set and doubling the stride whenever the
/// buffer fills. Memory stays fixed however long the run is, and the
/// percentiles come from raw values rather than histogram buckets.
pub struct Sampler {
    buf: Vec<f64>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Sampler {
    pub fn new(cap: usize) -> Sampler {
        Sampler {
            buf: Vec::with_capacity(cap),
            cap,
            stride: 1,
            seen: 0,
        }
    }

    pub fn record(&mut self, x: f64) {
        let i = self.seen;
        self.seen += 1;
        if !i.is_multiple_of(self.stride) {
            return;
        }
        if self.buf.len() == self.cap {
            let mut keep = 0;
            for j in (0..self.buf.len()).step_by(2) {
                self.buf[keep] = self.buf[j];
                keep += 1;
            }
            self.buf.truncate(keep);
            self.stride *= 2;
            if !i.is_multiple_of(self.stride) {
                return;
            }
        }
        self.buf.push(x);
    }

    /// Sorted copy of the kept samples, for [`percentile`].
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.buf.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }
}

/// Linear-interpolated `q`-quantile of sorted values (0 for none).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    percentile(&v, 0.5)
}

/// Mean of the values between the first and third quartiles.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let drop = v.len() / 4;
    let mid = &v[drop..v.len() - drop];
    mid.iter().sum::<f64>() / mid.len().max(1) as f64
}

/// Nanoseconds of `d` as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

#[repr(C)]
struct Rusage {
    /// `ru_utime`, `ru_stime` (two `timeval`s), then the fourteen
    /// `long` counters, `ru_maxrss` first.
    fields: [i64; 18],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

fn rusage(who: i32) -> Rusage {
    let mut r = Rusage { fields: [0; 18] };
    // SAFETY: `Rusage` has the size and layout of the x86-64/aarch64
    // Linux `struct rusage` (18 eight-byte words), and the pointer is to
    // a live, writable value for the duration of the call.
    let rc = unsafe { getrusage(who, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    r
}

fn cpu_of(r: &Rusage) -> f64 {
    let f = &r.fields;
    (f[0] + f[2]) as f64 * 1e9 + (f[1] + f[3]) as f64 * 1e3
}

/// User + system CPU of the whole process, in nanoseconds.
pub fn process_cpu_ns() -> f64 {
    cpu_of(&rusage(RUSAGE_SELF))
}

/// User + system CPU of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> f64 {
    cpu_of(&rusage(RUSAGE_THREAD))
}

/// Peak resident set of the process so far, in MiB.
pub fn rss_peak_mb() -> f64 {
    rusage(RUSAGE_SELF).fields[4] as f64 / 1024.0
}

/// `TcpExt ListenOverflows` from `/proc/net/netstat`: SYNs dropped
/// because a listen backlog was full. `None` where the kernel does not
/// expose it.
pub fn listen_overflows() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/netstat").ok()?;
    let mut lines = text.lines().filter(|l| l.starts_with("TcpExt:"));
    let names = lines.next()?;
    let values = lines.next()?;
    let idx = names
        .split_whitespace()
        .position(|n| n == "ListenOverflows")?;
    values.split_whitespace().nth(idx)?.parse().ok()
}
