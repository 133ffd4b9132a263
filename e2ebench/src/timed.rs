//! The untraced run: set-up, correctness references, and the timed
//! phase that yields the end-to-end metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use mcdnn::partition::PlanCache;
use mcdnn::Engine;

use crate::clock;
use crate::workload::{fnv_fold, Kind, Outcome, Workload, FNV_OFFSET};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// Samples the tail percentile leaves above it.
pub const TAIL_BEYOND: usize = 10;

/// A workload made ready to time: inputs, a warm engine, and the serial
/// reference outcome of every distinct call input.
pub struct Prepared {
    pub work: Workload,
    pub engine: Engine,
    /// The first set-up: CPU seconds from the start of `main` through the
    /// first, cold call, and the host-speed factor measured right after.
    pub first_setup: (f64, f64),
    pub references: BTreeMap<usize, Outcome>,
    pub attempted: usize,
    pub failed: usize,
}

/// Timed calls are numbered after the warm-up calls, one per fleet.
pub fn timed_indices(kind: Kind, calls: usize) -> std::ops::Range<usize> {
    kind.fleets()..kind.fleets() + calls
}

/// Number of timed calls for `seconds` of run time. A traced run makes
/// half as many: it replays each one in four more lanes, and must still
/// end within the time an untraced run takes on a slow host.
pub fn call_count(kind: Kind, seconds: u64, traced: bool) -> usize {
    let calls = (kind.calls_per_second() * seconds as f64).ceil() as usize;
    let calls = if traced { calls.div_ceil(2) } else { calls };
    calls.max(TAIL_BEYOND + 1)
}

/// One set-up: evaluate profiles, draw fleets, build the engine, make
/// the first (cold) call.
fn set_up(kind: Kind, seed: u64) -> (Workload, Engine, Result<Outcome, mcdnn::Error>) {
    let work = Workload::build(kind, seed);
    let engine = work.engine();
    let first = work.call(&engine, 0);
    (work, engine, first)
}

impl Prepared {
    /// Set up (timing it from `start_ns`), warm every fleet, and
    /// compute serial references for the `timed` calls. References run
    /// with observability off on a fresh single-shard cache, so they
    /// share no state with the engine.
    pub fn new(kind: Kind, seed: u64, timed: std::ops::Range<usize>, start_ns: u64) -> Prepared {
        let (work, engine, first) = set_up(kind, seed);
        let first_setup = (
            (clock::process_ns() - start_ns) as f64 * 1e-9,
            host_scale_now(),
        );
        let mut warm = vec![first];
        for i in 1..kind.fleets() {
            warm.push(work.call(&engine, i));
        }

        mcdnn_obs::set_enabled(false);
        let cache = PlanCache::with_shards(1);
        let mut references = BTreeMap::new();
        let mut ref_failed = 0;
        for i in timed {
            let key = work.input_key(i);
            if references.contains_key(&key) {
                continue;
            }
            match work.reference(&cache, i) {
                Ok(o) => {
                    references.insert(key, o);
                }
                Err(e) => {
                    eprintln!("reference call {i} failed: {e}");
                    ref_failed += 1;
                }
            }
        }
        drop(cache);
        mcdnn_obs::set_enabled(kind.obs());

        let mut p = Prepared {
            work,
            engine,
            first_setup,
            references,
            attempted: 0,
            failed: ref_failed,
        };
        for (i, r) in warm.into_iter().enumerate() {
            p.check_warm(i, r);
        }
        p
    }

    /// Check warm-up call `i` where a timed call shares its input: always,
    /// except under drift, where every call is distinct and warm-ups only
    /// fill the caches. An `Err` fails either way.
    pub fn check_warm(&mut self, i: usize, result: Result<Outcome, mcdnn::Error>) {
        if result.is_err() || self.references.contains_key(&self.work.input_key(i)) {
            self.check(i, result);
        }
    }

    /// Count call `i` and check it against its serial reference.
    pub fn check(&mut self, i: usize, result: Result<Outcome, mcdnn::Error>) -> Option<Outcome> {
        self.attempted += 1;
        let want = self.references.get(&self.work.input_key(i));
        match result {
            Ok(o) if want == Some(&o) => Some(o),
            Ok(o) => {
                eprintln!("call {i}: outcome {o:?} differs from serial reference {want:?}");
                self.failed += 1;
                None
            }
            Err(e) => {
                eprintln!("call {i} failed: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

/// A probe task on the engine's single pool worker: reads the worker's
/// CPU clock, runs the reference kernel there, and reads the clock
/// again. Returns `(before, kernel_ns, after)`.
pub fn worker_probe(engine: &Engine) -> (u64, u64, u64) {
    engine.pool().run_indexed(1, |_| {
        let before = clock::thread_ns();
        let k = clock::kernel_ns(before);
        (before, k, clock::thread_ns())
    })[0]
}

/// Sums of the call outcomes over a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub units: u64,
    pub hits: u64,
    pub latency_sum_ms: f64,
    pub latency_weight: u64,
    pub replans: u64,
    pub p50_sum_ms: f64,
    pub p99_sum_ms: f64,
    /// FNV-1a fold of the call digests in call order.
    pub digest: u64,
}

impl Totals {
    pub fn new() -> Totals {
        Totals {
            digest: FNV_OFFSET,
            ..Totals::default()
        }
    }

    pub fn add(&mut self, o: &Outcome) {
        self.calls += 1;
        self.units += o.units;
        self.hits += o.hits;
        self.latency_sum_ms += o.latency_sum_ms;
        self.latency_weight += o.latency_weight;
        self.replans += o.replans;
        self.p50_sum_ms += o.p50_ms;
        self.p99_sum_ms += o.p99_ms;
        self.digest = fnv_fold(self.digest, o.digest);
    }
}

/// Everything the timed phase measured. CPU figures are raw; the two
/// `HostSpeed`s hold the reference-kernel samples paired with each call
/// on the caller thread and on the pool worker.
pub struct Timed {
    /// Per call: `(caller CPU ns, worker CPU ns)`.
    pub per_call_ns: Vec<(u64, u64)>,
    /// Process CPU over the phase, net of the reference kernels.
    pub process_ns: u64,
    pub wall_ns: u64,
    pub steal_share: f64,
    pub caller: clock::HostSpeed,
    pub worker: clock::HostSpeed,
    pub totals: Totals,
}

impl Timed {
    /// Per-call CPU rescaled to the nominal host: each thread's share by
    /// the kernel speed measured on that thread right after the call.
    pub fn scaled_call_ns(&self) -> Vec<f64> {
        self.per_call_ns
            .iter()
            .enumerate()
            .map(|(i, &(c, w))| {
                c as f64 * self.caller.local_scale(i) + w as f64 * self.worker.local_scale(i)
            })
            .collect()
    }
}

/// Issue the timed calls back to back (closed loop, one caller),
/// sampling each call's CPU time on the caller thread plus the pool
/// worker, and running the reference kernel on both after each call.
pub fn run_timed(p: &mut Prepared, timed: std::ops::Range<usize>) -> Timed {
    let (steal0, total0) = clock::steal_jiffies();
    let wall = Instant::now();
    let proc0 = clock::process_ns();
    let mut per_call_ns = Vec::with_capacity(timed.len());
    let (mut caller, mut worker) = (clock::HostSpeed::default(), clock::HostSpeed::default());
    let mut kernel_total = 0;
    let mut totals = Totals::new();
    let (_, _, mut w0) = worker_probe(&p.engine);
    for i in timed {
        let c0 = clock::thread_ns();
        let r = p.work.call(&p.engine, i);
        let c1 = clock::thread_ns();
        let (w1, wk, w2) = worker_probe(&p.engine);
        per_call_ns.push((c1 - c0, w1 - w0));
        worker.push(wk);
        kernel_total += wk + caller.sample();
        w0 = w2;
        if let Some(o) = p.check(i, r) {
            totals.add(&o);
        }
    }
    let process_ns = clock::process_ns() - proc0 - kernel_total;
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let (steal1, total1) = clock::steal_jiffies();
    let steal_share = if total1 > total0 {
        (steal1 - steal0) as f64 / (total1 - total0) as f64
    } else {
        0.0
    };
    Timed {
        per_call_ns,
        process_ns,
        wall_ns,
        steal_share,
        caller,
        worker,
        totals,
    }
}

/// Reference-kernel runs after each set-up.
const SETUP_KERNELS: usize = 16;

/// The host-speed factor right now, from a burst of kernel runs on this
/// thread.
fn host_scale_now() -> f64 {
    let mut host = clock::HostSpeed::default();
    for _ in 0..SETUP_KERNELS {
        host.sample();
    }
    host.scale()
}

/// `SETUP_REPEATS` set-ups — the run's own first set-up plus fresh
/// repeats, each with its own engine and cache, whose first call is
/// checked like any other — as `(raw CPU seconds, host-speed factor
/// measured right after it)`.
pub fn setups(p: &mut Prepared) -> Vec<(f64, f64)> {
    let mut all = vec![p.first_setup];
    for _ in 1..SETUP_REPEATS {
        let t0 = clock::process_ns();
        let (work, engine, first) = set_up(p.work.kind, p.work.seed);
        let s = (clock::process_ns() - t0) as f64 * 1e-9;
        drop((work, engine));
        p.check_warm(0, first);
        all.push((s, host_scale_now()));
    }
    all
}

/// Nearest-rank tail: the highest rank that still leaves `TAIL_BEYOND`
/// samples above it. Returns `(value, percentile)`.
pub fn tail(sorted: &[u64]) -> (u64, f64) {
    let n = sorted.len();
    let idx = n.saturating_sub(TAIL_BEYOND + 1);
    (sorted[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

pub fn median(sorted: &[u64]) -> u64 {
    sorted[(sorted.len() - 1) / 2]
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s[(s.len() - 1) / 2]
}
