//! CPU clocks and `/proc` readers.
//!
//! `std` exposes only wall-clock time. On a small shared VM the host
//! steals whole time slices, so wall-clock rates move by 2× between
//! identical runs. The kernel's per-thread and per-process CPU clocks
//! exclude steal and are nanosecond-precise (unlike the tick-quantized
//! `/proc/self/task/*/schedstat` figures read from another thread), so
//! every timing here is CPU time read through `clock_gettime`.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec with the
    // 64-bit Linux layout; the call only writes into it.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds consumed by the calling thread.
pub fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU nanoseconds consumed by every thread of the process.
pub fn process_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) in MB, 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat`; `(0, 0)` when unreadable.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already folded into user, so sum the first eight.
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    if fields.len() < 8 {
        return (0, 0);
    }
    (fields[7], fields.iter().sum())
}

/// The host-speed reference: a fixed kernel owned by the benchmark (not
/// by the program) that mixes the program's hot-loop shapes — sorted
/// breakpoint lookups, a two-stage flow-shop recurrence, binary-heap
/// traffic, FNV folding and mutex-guarded named counters — over a few
/// KiB of data. Returns the CPU nanoseconds it took on the calling
/// thread.
pub fn kernel_ns(round: u64) -> u64 {
    use std::collections::{BTreeMap, BinaryHeap};
    use std::sync::Mutex;
    const NAMES: [&str; 6] = [
        "a.bursts",
        "a.jobs",
        "b.runs",
        "b.jobs",
        "c.hits",
        "c.lookups",
    ];
    let counters: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());
    let t0 = thread_ns();
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let bps: Vec<f64> = (0..64).map(|i| 1.0 + i as f64 * 1.5).collect();
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    let mut heap = BinaryHeap::with_capacity(256);
    for _ in 0..200 {
        // Frontier-style lookups.
        for _ in 0..16 {
            let b = (next() % 10_000) as f64 / 100.0;
            let idx = bps.partition_point(|&p| p <= b);
            acc = (acc ^ idx as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // DES-style two-stage recurrence over one burst.
        let (mut cpu, mut up) = (0.0f64, 0.0f64);
        for j in 0..8 {
            let f = 1.0 + ((next() >> 40) as f64) * 1e-9;
            let g = 2.0 + j as f64 * 0.5;
            cpu += f;
            up = up.max(cpu) + g;
        }
        acc = (acc ^ up.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        // Dispatch-style heap traffic.
        for _ in 0..8 {
            heap.push(next() >> 8);
        }
        for _ in 0..7 {
            acc ^= heap.pop().unwrap_or(0);
        }
        if heap.len() > 200 {
            heap.clear();
        }
        // Registry-style counter bumps.
        for name in NAMES {
            *counters
                .lock()
                .expect("kernel counters")
                .entry(name)
                .or_insert(0) += acc & 1;
        }
    }
    std::hint::black_box((acc, counters));
    thread_ns() - t0
}

/// Neighbours on each side in [`HostSpeed::local_scale`]'s window.
const LOCAL_WINDOW: usize = 3;

/// CPU nanoseconds the reference kernel takes on a nominal host: the
/// median on the 2-vCPU x86-64 VM the benchmark was tuned on.
pub const KERNEL_REF_NS: f64 = 180_000.0;

/// Median CPU time of the reference kernel over a phase. The kernel runs
/// after every timed call, so its median tracks how fast the host ran
/// this process during that phase: on a shared VM, SMT siblings and
/// frequency changes move plain CPU time by ±10% between runs of the
/// same build, and the kernel moves with it.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<u64>,
}

impl HostSpeed {
    /// Run the kernel once on this thread and keep its time; returns
    /// that time.
    pub fn sample(&mut self) -> u64 {
        let ns = kernel_ns(self.samples.len() as u64);
        self.push(ns);
        ns
    }

    /// Keep a kernel time measured on another thread.
    pub fn push(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    pub fn median_ns(&self) -> f64 {
        let mut s = self.samples.clone();
        s.sort_unstable();
        s[(s.len() - 1) / 2] as f64
    }

    /// Factor that rescales this phase's CPU time to the nominal host:
    /// `KERNEL_REF_NS / median kernel time`.
    pub fn scale(&self) -> f64 {
        KERNEL_REF_NS / self.median_ns()
    }

    /// The same factor for the work next to sample `i` alone: from the
    /// median of the samples within `LOCAL_WINDOW` of it, so a host
    /// slowdown lasting part of a phase rescales only the calls it hit.
    pub fn local_scale(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(LOCAL_WINDOW);
        let hi = (i + LOCAL_WINDOW + 1).min(self.samples.len());
        let mut w = self.samples[lo..hi].to_vec();
        w.sort_unstable();
        KERNEL_REF_NS / w[(w.len() - 1) / 2] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn busy(ms: u64) -> u64 {
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < ms as u128 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        x
    }

    #[test]
    fn cpu_clocks_are_monotone() {
        let mut last_t = thread_ns();
        let mut last_p = process_ns();
        for _ in 0..10_000 {
            let (t, p) = (thread_ns(), process_ns());
            assert!(t >= last_t && p >= last_p);
            (last_t, last_p) = (t, p);
        }
    }

    #[test]
    fn thread_cpu_never_exceeds_wall_for_a_busy_loop() {
        let wall = Instant::now();
        let t0 = thread_ns();
        std::hint::black_box(busy(50));
        let cpu = thread_ns() - t0;
        let wall_ns = wall.elapsed().as_nanos() as u64;
        assert!(cpu > 0, "a busy loop burns CPU time");
        assert!(cpu <= wall_ns, "cpu {cpu} ns > wall {wall_ns} ns");
    }

    #[test]
    fn kernel_is_deterministic_work() {
        let mut h = HostSpeed::default();
        for _ in 0..5 {
            assert!(h.sample() > 0);
        }
        assert!(h.scale().is_finite() && h.scale() > 0.0);
    }

    #[test]
    fn proc_readers_parse() {
        assert!(peak_rss_mb() > 0.0);
        let (steal, total) = steal_jiffies();
        assert!(total > 0 && steal <= total);
    }
}
