//! The traced run: per-layer metrics, measured from outside the program
//! by timing calls into each layer's public functions on the workload's
//! own inputs.
//!
//! After the untraced timed phase, the same call indices are replayed in
//! four lanes, each on its own cache (so it meets the same hits and
//! misses) and interleaved call by call (so a change in host speed hits
//! every lane alike):
//!
//! * lane E — the Engine as the workload runs it: the traced call total;
//! * lane O — the Engine with observability flipped, for `obs.*`;
//! * lane P — the serial entry point (`serve_fleet_serial` /
//!   `serve_slo_serial`), so `E − P` is what the pool costs;
//! * lane S — the serving layer driven through its public pieces
//!   (`UserSession::{start, admit_burst, maybe_adapt, finish}`, or
//!   `serve_slo_digest_in` then `serve_slo_serial_in` on one
//!   `SloArena`), with a span around each piece.
//!
//! Rounds of single layer functions, spread over the replay, time each
//! on the workload's inputs with observability off
//! (`RateFrontier::compile`, `PlanCache::frontier`, `decide_at`,
//! `LadderFrontier::{compile, decide}`, `DesArena::{simulate,
//! simulate_faulted}`, `joint_allocate`). A layer's
//! self time per call is its per-operation time × its per-call count;
//! the serving layer's self time is its span total minus those of the
//! layers below it, and `engine.unattributed_ms` is what is left of the
//! Engine call. All times here are raw CPU time (not rescaled).

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use mcdnn::flowshop::FlowJob;
use mcdnn::partition::{joint_allocate, CutMix, JointTenant, PlanCache, RateFrontier, RateProfile};
use mcdnn::profile::CostProfile;
use mcdnn::sim::{
    serve_slo_digest_in, serve_slo_serial_in, DesArena, DesConfig, DispatchMode, FaultPlan,
    FaultSpec, FaultedRun, LadderFrontier, RetryPolicy, SloArena, SloPolicy, UserSession, UserSpec,
};
use mcdnn::EngineConfig;
use mcdnn_obs::{ChromeTrace, TraceEvent};

use crate::clock;
use crate::metrics::Metrics;
use crate::timed::{Prepared, Timed, Totals};
use crate::workload::{fnv_fold, mix, unit, Outcome, Workload, FNV_OFFSET};

/// Timed calls per lane whose spans go into the trace file (every call
/// feeds the metrics).
const TRACE_CALLS: usize = 4;

/// Where the Chrome trace is written, relative to the checkout root.
const TRACE_DIR: &str = "e2ebench/out";

pub struct Layers {
    pub metrics: Metrics,
    pub counts_match: bool,
}

/// Observability state of the untraced phase: counter deltas and the
/// spans the registry retained.
pub struct ObsPhase {
    pub counters: BTreeMap<String, u64>,
    pub spans: usize,
    pub span_bytes: usize,
}

impl ObsPhase {
    /// Drain retained spans and snapshot counters (call before a phase).
    pub fn begin() -> BTreeMap<String, u64> {
        drop(mcdnn_obs::drain_spans());
        mcdnn_obs::snapshot().counters.into_iter().collect()
    }

    /// Counter deltas and spans retained since `begin`.
    pub fn end(before: &BTreeMap<String, u64>) -> ObsPhase {
        let spans = mcdnn_obs::drain_spans();
        let counters = mcdnn_obs::snapshot()
            .counters
            .into_iter()
            .map(|(k, v)| {
                let d = v - before.get(&k).copied().unwrap_or(0);
                (k, d)
            })
            .collect();
        ObsPhase {
            counters,
            spans: spans.len(),
            span_bytes: spans.capacity() * std::mem::size_of::<mcdnn_obs::registry::SpanRecord>(),
        }
    }

    fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

struct SpanRec {
    id: u32,
    parent: u32,
    call: u32,
    lane: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans on the process CPU clock, kept in memory. Every span feeds a
/// per-name `(total ns, count)` accumulator; span records are kept for
/// the first `TRACE_CALLS` calls of each lane only.
#[derive(Default)]
struct Tracer {
    lane: u32,
    call: u32,
    keep: bool,
    next_id: u32,
    stack: Vec<(u32, &'static str, u64)>,
    spans: Vec<SpanRec>,
    sums: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    fn at(&mut self, lane: u32, call: u32, keep: bool) {
        (self.lane, self.call, self.keep) = (lane, call, keep);
    }

    fn begin(&mut self, name: &'static str) {
        self.next_id += 1;
        self.stack.push((self.next_id, name, clock::process_ns()));
    }

    fn end(&mut self) -> u64 {
        let t = clock::process_ns();
        let (id, name, start) = self.stack.pop().expect("span stack underflow");
        let parent = self.stack.last().map_or(0, |s| s.0);
        let e = self.sums.entry(name).or_default();
        e.0 += t - start;
        e.1 += 1;
        if self.keep {
            self.spans.push(SpanRec {
                id,
                parent,
                call: self.call,
                lane: self.lane,
                name,
                start_ns: start,
                end_ns: t,
            });
        }
        t - start
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |s| s.0 as f64)
    }

    fn mean_ns(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .map_or(0.0, |s| s.0 as f64 / s.1.max(1) as f64)
    }

    fn write_chrome(&self, path: &str) -> std::io::Result<()> {
        let mut trace = ChromeTrace::new();
        for (lane, label) in LANES.iter().enumerate() {
            trace.thread(1, lane as u32, *label);
        }
        let t0 = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        for s in &self.spans {
            trace.push(TraceEvent {
                pid: 1,
                tid: s.lane,
                name: format!("{} call={} id={} parent={}", s.name, s.call, s.id, s.parent),
                cat: s.name.split('.').next().unwrap_or("e2e").to_string(),
                ts_us: (s.start_ns - t0) as f64 * 1e-3,
                dur_us: (s.end_ns - s.start_ns) as f64 * 1e-3,
            });
        }
        std::fs::create_dir_all(TRACE_DIR)?;
        std::fs::write(path, trace.to_json())
    }
}

const LANES: [&str; 5] = [
    "engine",
    "engine, obs flipped",
    "serial",
    "layers",
    "single functions",
];
/// The span each lane's calls are wrapped in.
const LANE_SPANS: [&str; 4] = [
    "engine.call",
    "engine.obs_flipped_call",
    "serial.call",
    "layers.call",
];
const LANE_E: u32 = 0;
const LANE_O: u32 = 1;
const LANE_P: u32 = 2;
const LANE_S: u32 = 3;
const LANE_MICRO: u32 = 4;

/// Per-call counts of the layer-driven lane.
#[derive(Debug, Default, Clone, Copy)]
struct LaneCounts {
    sessions: u64,
    bursts: u64,
    faulted: u64,
    degraded: u64,
    replans: u64,
    commit_ns: u64,
    requests: u64,
    dispatched: u64,
    dispatch_ns: u64,
    heap_pushes: u64,
    heap_pops: u64,
    heap_stale: u64,
    memo_hits: u64,
    memo_misses: u64,
    memo_prunes: u64,
}

/// One serve call driven the way `run_user` drives it, with spans around
/// each session piece.
fn serve_layered(
    work: &Workload,
    cache: &PlanCache,
    i: usize,
    tr: &mut Tracer,
    n: &mut LaneCounts,
) -> Result<Outcome, mcdnn::Error> {
    let cfg = work.serve_config(i);
    let every = cfg.adapt.map_or(0, |a| a.commit_every);
    let mut digest = FNV_OFFSET;
    let mut out = Outcome::default();
    for spec in work.users(i) {
        tr.begin("serve.session_start");
        let started = UserSession::start(cache, spec, &cfg);
        tr.end();
        let mut s = started?;
        tr.begin("serve.admit_bursts");
        for b in 1..=cfg.bursts_per_user {
            s.admit_burst();
            if every != 0 && b % every == 0 {
                tr.end();
                tr.begin("serve.maybe_adapt");
                let replanned = s.maybe_adapt(cache);
                let ns = tr.end();
                if replanned? {
                    n.replans += 1;
                    n.commit_ns += ns;
                }
                tr.begin("serve.admit_bursts");
            } else {
                s.maybe_adapt(cache)?;
            }
        }
        tr.end();
        tr.begin("serve.finish");
        let u = s.finish();
        tr.end();
        n.sessions += 1;
        n.bursts += u.bursts;
        n.faulted += u.faulted_bursts;
        n.degraded += u.degraded_bursts;
        digest = fnv_fold(fnv_fold(digest, u.id as u64), u.digest);
        out.units += u.bursts;
        out.hits += u.hits;
        out.latency_sum_ms += u.mean_makespan_ms * u.bursts as f64;
        out.latency_weight += u.bursts;
        out.replans += u.replans;
    }
    out.digest = digest;
    Ok(out)
}

/// One SLO call on a warm arena: the allocation-free digest path, then
/// the report path on the same inputs.
fn slo_layered(
    work: &Workload,
    cache: &PlanCache,
    arena: &mut SloArena,
    i: usize,
    tr: &mut Tracer,
    n: &mut LaneCounts,
) -> Result<Outcome, mcdnn::Error> {
    let (tenants, cfg) = (work.tenants_of(i), &work.slo);
    let (policy, mode) = (SloPolicy::EdfDegrade, DispatchMode::Indexed);
    tr.begin("slo.digest_in");
    let digest = serve_slo_digest_in(arena, cache, tenants, cfg, policy, mode);
    tr.end();
    let digest = digest?;
    n.dispatch_ns += arena.stats().schedule_ns;
    tr.begin("slo.serial_in");
    let report = serve_slo_serial_in(arena, cache, tenants, cfg, policy, mode);
    tr.end();
    let report = report?;
    let st = arena.stats();
    n.requests += st.requests;
    n.dispatched += st.dispatched;
    n.heap_pushes += st.heap_pushes;
    n.heap_pops += st.heap_pops;
    n.heap_stale += st.heap_stale;
    n.memo_hits += st.memo_hits;
    n.memo_misses += st.memo_misses;
    n.memo_prunes += st.memo_prunes;
    let out = Outcome::of_slo(&report);
    if out.digest != digest {
        eprintln!(
            "call {i}: digest path {digest:016x} != report path {:016x}",
            out.digest
        );
        return Ok(Outcome::default());
    }
    Ok(out)
}

/// Call `i` through the serving layer's public pieces.
fn layered(
    p: &Prepared,
    cache: &PlanCache,
    arena: &mut SloArena,
    i: usize,
    tr: &mut Tracer,
    n: &mut LaneCounts,
) -> Result<Outcome, mcdnn::Error> {
    if p.work.kind.is_slo() {
        slo_layered(&p.work, cache, arena, i, tr, n)
    } else {
        serve_layered(&p.work, cache, i, tr, n)
    }
}

/// Per-operation CPU times of single layer functions, observability off.
struct Micro {
    compile_ms: f64,
    lookup_ns: f64,
    decide_ns: f64,
    ladder_compile_us: f64,
    ladder_decide_ns: f64,
    simulate_us: f64,
    faulted_us: f64,
    joint_ms: f64,
}

/// Seeded multiplicative bandwidth walk over [1, 100] Mbps.
fn walk(seed: u64, steps: usize) -> Vec<f64> {
    let mut b = 10.0f64;
    (0..steps)
        .map(|k| {
            let u = unit(seed, k as u64);
            b = (b * (1.0 + 0.25 * (2.0 * u - 1.0))).clamp(1.0, 100.0);
            b
        })
        .collect()
}

/// The jobs `admit_burst` would build for one burst at `b` Mbps, and the
/// burst's planned makespan.
fn burst_jobs(f: &RateFrontier, n_jobs: usize, b: f64) -> (Vec<FlowJob>, f64) {
    let p = f.profile();
    let mix = f.decide_at(b).mix;
    let (first_n, f1, g1, f2, g2) = match mix {
        CutMix::Uniform { cut } => (n_jobs, p.mobile_ms(cut), p.upload_ms_at(cut, b), 0.0, 0.0),
        CutMix::Mix {
            prev,
            star,
            at_prev,
        } => (
            at_prev,
            p.mobile_ms(prev),
            p.upload_ms_at(prev, b),
            p.mobile_ms(star),
            p.upload_ms_at(star, b),
        ),
    };
    let jobs = (0..n_jobs)
        .map(|j| {
            let (f, g) = if j < first_n { (f1, g1) } else { (f2, g2) };
            FlowJob::two_stage(j, f, g)
        })
        .collect();
    (jobs, p.mix_makespan(n_jobs, mix, b))
}

const LOOKUPS: usize = 8;
const WALK: usize = 400;
const BURSTS: usize = 20;
/// Rounds of single-function timings, spread over the traced phase so
/// they meet the same host conditions as the lanes; each metric is the
/// median over rounds.
const ROUNDS: usize = 9;

/// Single layer functions on the workload's own inputs (fleet 0).
struct Singles<'a> {
    cache: &'a PlanCache,
    specs: Vec<UserSpec>,
    seed: u64,
    target_hz: f64,
    rho_limit: f64,
    cloud_servers: f64,
    lo: f64,
    hi: f64,
    mid: f64,
    frontiers: Vec<Arc<RateFrontier>>,
    /// What gets compiled: under adaptation every compile is of a
    /// re-estimated profile, so these are the factory profiles rebuilt
    /// under seeded per-layer device scales within ±15%, as an estimator
    /// commit rebuilds them.
    compiled: Vec<RateProfile>,
    walks: Vec<Vec<f64>>,
    mid_profiles: Vec<CostProfile>,
    ladders: Vec<LadderFrontier>,
    bursts: Vec<(Vec<FlowJob>, f64)>,
    arena: DesArena,
    /// Per-operation samples, one per round, in `Micro` field order.
    samples: [Vec<f64>; 8],
}

impl<'a> Singles<'a> {
    fn new(work: &Workload, cache: &'a PlanCache) -> Singles<'a> {
        let specs: Vec<UserSpec> = if work.kind.is_slo() {
            work.tenants_of(0).iter().map(|t| t.spec.clone()).collect()
        } else {
            work.users(0).to_vec()
        };
        let (lo, hi) = if work.kind.is_slo() {
            (work.slo.lo_mbps, work.slo.hi_mbps)
        } else {
            (work.serve.lo_mbps, work.serve.hi_mbps)
        };
        let mid = (lo * hi).sqrt();
        let frontiers: Vec<_> = specs
            .iter()
            .map(|s| {
                cache
                    .frontier(&s.profile, s.strategy, s.n_jobs, lo, hi)
                    .expect("fleet profiles are monotone")
            })
            .collect();
        let compiled = specs
            .iter()
            .enumerate()
            .map(|(k, s)| {
                if work.serve.adapt.is_none() {
                    return s.profile.clone();
                }
                let scales: Vec<f64> = (0..=s.profile.k())
                    .map(|l| 0.85 + 0.3 * unit(work.seed ^ k as u64, l as u64))
                    .collect();
                s.profile
                    .reestimated(&scales, 1.0, 1.0, s.profile.setup_ms())
                    .with_generation(1)
            })
            .collect();
        let walks: Vec<Vec<f64>> = (0..specs.len())
            .map(|k| walk(mix(work.seed, 0xDEC1DE ^ k as u64), WALK))
            .collect();
        let mid_profiles: Vec<_> = specs.iter().map(|s| s.profile.profile_at(mid)).collect();
        let mut singles = Singles {
            cache,
            seed: work.seed,
            target_hz: work.serve.target_hz,
            rho_limit: work.serve.rho_limit,
            cloud_servers: work.slo.cloud_servers.max(1) as f64,
            lo,
            hi,
            mid,
            compiled,
            mid_profiles,
            ladders: Vec::new(),
            bursts: Vec::new(),
            arena: DesArena::new(),
            samples: Default::default(),
            frontiers,
            walks,
            specs,
        };
        singles.ladders = (0..singles.specs.len())
            .map(|k| singles.ladder(k))
            .collect();
        singles.bursts = singles
            .frontiers
            .iter()
            .zip(&singles.specs)
            .zip(&singles.walks)
            .flat_map(|((f, s), w)| {
                w.iter()
                    .step_by(WALK / BURSTS)
                    .map(|&b| burst_jobs(f, s.n_jobs, b))
            })
            .collect();
        singles
    }

    /// The ladder a session of user `k` compiles at its start.
    fn ladder(&self, k: usize) -> LadderFrontier {
        let n_jobs = self.specs[k].n_jobs;
        LadderFrontier::compile(
            &self.mid_profiles[k],
            self.target_hz,
            self.rho_limit,
            n_jobs,
        )
    }

    /// Time `ops` operations as one span of the single-functions lane
    /// and keep the per-operation time in `samples[slot]`.
    fn time(
        &mut self,
        tr: &mut Tracer,
        slot: usize,
        name: &'static str,
        ops: usize,
        f: impl FnOnce(&mut Self),
    ) {
        tr.begin(name);
        let t0 = clock::thread_ns();
        f(self);
        let ns = (clock::thread_ns() - t0) as f64;
        tr.end();
        self.samples[slot].push(ns / ops.max(1) as f64);
    }

    /// One round of every single-function timing, observability off.
    fn round(&mut self, tr: &mut Tracer) {
        let obs = mcdnn_obs::enabled();
        mcdnn_obs::set_enabled(false);
        let users = self.specs.len();
        self.time(tr, 0, "frontier.compile", users, |s| {
            for (spec, profile) in s.specs.iter().zip(&s.compiled) {
                let f = RateFrontier::compile(profile, spec.strategy, spec.n_jobs, s.lo, s.hi);
                std::hint::black_box(f.map(|f| f.num_pieces()).ok());
            }
        });
        self.time(tr, 1, "frontier.cache_lookup", LOOKUPS * users, |s| {
            for _ in 0..LOOKUPS {
                for spec in &s.specs {
                    let f = s
                        .cache
                        .frontier(&spec.profile, spec.strategy, spec.n_jobs, s.lo, s.hi);
                    std::hint::black_box(f.is_ok());
                }
            }
        });
        self.time(tr, 2, "frontier.decide_at", WALK * users, |s| {
            for (f, w) in s.frontiers.iter().zip(&s.walks) {
                for &b in w {
                    std::hint::black_box(f.decide_at(b));
                }
            }
        });
        // As a session does: compile at the mid-band rate, drop at the end.
        self.time(tr, 3, "ladder.compile", users, |s| {
            for k in 0..users {
                std::hint::black_box(s.ladder(k).num_boundaries());
            }
        });
        self.time(tr, 4, "ladder.decide", WALK * users, |s| {
            for (l, w) in s.ladders.iter().zip(&s.walks) {
                for &b in w {
                    std::hint::black_box(l.decide(b / 100.0));
                }
            }
        });
        let des = DesConfig {
            uplink_channels: 1,
            cloud_slots: 1,
            jitter_frac: 0.0,
            seed: 0,
        };
        let order: Vec<usize> = (0..16).collect();
        let n_bursts = self.bursts.len();
        self.time(tr, 5, "des.simulate", n_bursts, |s| {
            for (jobs, _) in &s.bursts {
                std::hint::black_box(s.arena.simulate(jobs, &order[..jobs.len()], &des));
            }
        });
        let seed = self.seed;
        self.time(tr, 6, "des.simulate_faulted", n_bursts, |s| {
            for (k, (jobs, kernel_ms)) in s.bursts.iter().enumerate() {
                let run = FaultedRun {
                    faults: FaultPlan::random(
                        &FaultSpec::default(),
                        jobs.len(),
                        kernel_ms.max(1.0) * 2.0,
                        mix(seed, k as u64),
                    ),
                    retry: RetryPolicy::default(),
                    local_fallback_ms: 0.0,
                };
                let order = &order[..jobs.len()];
                std::hint::black_box(s.arena.simulate_faulted(jobs, order, &des, &run));
            }
        });
        let capacity = self.cloud_servers;
        self.time(tr, 7, "joint.allocate", 1, |s| {
            let joint: Vec<JointTenant<'_>> = s
                .specs
                .iter()
                .zip(&s.frontiers)
                .map(|(spec, f)| JointTenant {
                    frontier: f,
                    n_jobs: spec.n_jobs,
                    bandwidth_mbps: s.mid,
                })
                .collect();
            std::hint::black_box(joint_allocate(&joint, capacity).shares.len());
        });
        mcdnn_obs::set_enabled(obs);
    }

    /// Median per-operation times over the rounds made.
    fn medians(&self) -> Micro {
        let m = |slot: usize| crate::timed::median_f64(&self.samples[slot]);
        Micro {
            compile_ms: m(0) * 1e-6,
            lookup_ns: m(1),
            decide_ns: m(2),
            ladder_compile_us: m(3) * 1e-3,
            ladder_decide_ns: m(4),
            simulate_us: m(5) * 1e-3,
            faulted_us: m(6) * 1e-3,
            joint_ms: m(7) * 1e-6,
        }
    }
}

/// Compare one count between the untraced phase and a traced lane.
fn same(label: &str, untraced: u64, traced: u64, ok: &mut bool) {
    let verdict = if untraced == traced { "ok" } else { "MISMATCH" };
    println!("info count {label}: untraced={untraced} traced={traced} {verdict}");
    *ok &= untraced == traced;
}

pub fn run(p: &mut Prepared, run: &Timed, range: Range<usize>, e_obs: &ObsPhase) -> Layers {
    let kind = p.work.kind;
    let obs = kind.obs();
    let calls = range.len() as f64;
    let mut tr = Tracer::default();
    let mut ok = true;

    // Four lanes, each with its own cache and warmed on the same
    // warm-up calls, then interleaved call by call so a change in host
    // speed hits every lane alike.
    let engine_e = p.work.engine();
    let engine_o = EngineConfig::new().threads(1).obs(!obs).build();
    mcdnn_obs::set_enabled(obs);
    let cache_p = PlanCache::new();
    let cache_s = PlanCache::new();
    let mut arena = SloArena::new();
    let mut n = LaneCounts::default();
    let mut scratch = Tracer::default();
    for i in 0..kind.fleets() {
        let r = p.work.call(&engine_e, i);
        p.check_warm(i, r);
        mcdnn_obs::set_enabled(!obs);
        let r = p.work.call(&engine_o, i);
        mcdnn_obs::set_enabled(obs);
        p.check_warm(i, r);
        let r = p.work.reference(&cache_p, i);
        p.check_warm(i, r);
        let r = layered(p, &cache_s, &mut arena, i, &mut scratch, &mut n);
        p.check_warm(i, r);
        drop(mcdnn_obs::drain_spans());
    }
    let entries0 = cache_s.len() as u64;
    n = LaneCounts::default();
    let mut singles = Singles::new(&p.work, &cache_s);
    let stride = (range.len() / ROUNDS).max(1);
    let before = ObsPhase::begin();
    let mut totals = [Totals::new(), Totals::new(), Totals::new(), Totals::new()];
    for (k, i) in range.clone().enumerate() {
        let keep = k < TRACE_CALLS;
        if k % stride == 0 {
            tr.at(LANE_MICRO, i as u32, true);
            singles.round(&mut tr);
        }
        for lane in [LANE_E, LANE_O, LANE_P, LANE_S] {
            tr.at(lane, i as u32, keep);
            tr.begin(LANE_SPANS[lane as usize]);
            let r = match lane {
                LANE_E => p.work.call(&engine_e, i),
                LANE_O => {
                    mcdnn_obs::set_enabled(!obs);
                    let r = p.work.call(&engine_o, i);
                    mcdnn_obs::set_enabled(obs);
                    r
                }
                LANE_P => p.work.reference(&cache_p, i),
                _ => layered(p, &cache_s, &mut arena, i, &mut tr, &mut n),
            };
            tr.end();
            if let Some(o) = p.check(i, r) {
                totals[lane as usize].add(&o);
            }
            // Three lanes record into the registry; keep only what the
            // untraced phase measured (`e_obs`) and drop the rest.
            if obs {
                drop(mcdnn_obs::drain_spans());
            }
        }
    }
    let t_obs = ObsPhase::end(&before);
    let s_compiles = cache_s.len() as u64 - entries0;
    let lane_ms = |lane: u32| tr.total_ns(LANE_SPANS[lane as usize]) / calls * 1e-6;
    let (e_ms, o_ms, p_ms) = (lane_ms(LANE_E), lane_ms(LANE_O), lane_ms(LANE_P));
    // With observability on (serve), every lane but O records, so the
    // counters come from the untraced phase; with it off (slo), lane O
    // alone records.
    let obs_on = if obs { e_obs } else { &t_obs };
    // The untraced phase also ran one probe task per call on the pool.
    let probes = if obs { range.len() as u64 + 1 } else { 0 };

    let m = singles.medians();
    drop(singles);

    // Counts the untraced phase also yields must match the traced lanes.
    for (lane, t) in totals.iter().enumerate() {
        if *t != run.totals {
            println!(
                "info totals of lane {}: {t:?} vs {:?}",
                LANE_SPANS[lane], run.totals
            );
        }
        let label = format!("calls and totals equal, lane {}", LANE_SPANS[lane]);
        same(&label, 1, u64::from(*t == run.totals), &mut ok);
    }
    same("units", run.totals.units, n.bursts + n.requests, &mut ok);
    same("replans", run.totals.replans, n.replans, &mut ok);
    let counters = if kind.is_slo() {
        vec![
            ("frontier.compile", s_compiles),
            ("sched.requests", n.requests),
            ("sched.heap.pushes", n.heap_pushes),
            ("sched.heap.pops", n.heap_pops),
            ("sched.heap.stale", n.heap_stale),
            ("sched.price_memo.hits", n.memo_hits),
            ("sched.price_memo.misses", n.memo_misses),
            ("sched.price_memo.prunes", n.memo_prunes),
        ]
    } else {
        vec![
            ("frontier.compile", s_compiles),
            ("serve.bursts", n.bursts),
            ("des.runs", n.bursts - n.faulted),
            ("des.faulted_runs", n.faulted),
            ("adapt.commits", n.replans),
            ("frontier.ladder.compile", n.sessions + n.replans),
        ]
    };
    for (counter, traced) in counters {
        same(counter, obs_on.get(counter), traced, &mut ok);
    }

    // Per-call counts.
    let pc = |v: u64| v as f64 / calls;
    let compiles = pc(obs_on.get("frontier.compile"));
    let ladder_compiles = pc(obs_on.get("frontier.ladder.compile"));
    let lookups = pc(n.sessions + n.replans)
        + if kind.is_slo() {
            p.work.tenants_of(0).len() as f64
        } else {
            0.0
        };
    let decides = pc(n.bursts + n.requests);

    // Self times per call, ms.
    let obs_self = if obs { e_ms - o_ms } else { 0.0 };
    let pool_self = e_ms - p_ms;
    let frontier_self =
        compiles * m.compile_ms + (lookups * m.lookup_ns + decides * m.decide_ns) * 1e-6;
    let ladder_self =
        ladder_compiles * m.ladder_compile_us * 1e-3 + pc(n.degraded) * m.ladder_decide_ns * 1e-6;
    let des_self =
        pc(n.bursts - n.faulted) * m.simulate_us * 1e-3 + pc(n.faulted) * m.faulted_us * 1e-3;
    let replans = pc(n.replans);
    let adapt_self = if n.replans > 0 {
        pc(n.commit_ns) * 1e-6
            - compiles * m.compile_ms
            - replans * (m.lookup_ns * 1e-6 + m.ladder_compile_us * 1e-3)
    } else {
        0.0
    };
    let span_ms = |name: &str| tr.total_ns(name) / calls * 1e-6;
    let (mut serve_self, mut dispatch, mut generate, mut summarize, mut joint_self) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    if kind.is_slo() {
        let digest_in = span_ms("slo.digest_in");
        dispatch = pc(n.dispatch_ns) * 1e-6;
        joint_self = m.joint_ms;
        generate = digest_in - dispatch - joint_self - frontier_self;
        summarize = span_ms("slo.serial_in") - digest_in;
    } else {
        let serve_total = span_ms("serve.session_start")
            + span_ms("serve.admit_bursts")
            + span_ms("serve.maybe_adapt")
            + span_ms("serve.finish");
        serve_self = serve_total - frontier_self - ladder_self - des_self - adapt_self - obs_self;
    }
    let attributed = obs_self
        + pool_self
        + frontier_self
        + ladder_self
        + des_self
        + serve_self
        + adapt_self
        + dispatch
        + generate
        + summarize
        + joint_self;
    let unattributed = e_ms - attributed;

    let mut out = Metrics::new();
    let (on_ms, off_ms) = if obs { (e_ms, o_ms) } else { (o_ms, e_ms) };
    out.put("obs.cpu_share", (on_ms - off_ms) / on_ms, "ratio");
    out.put("obs.spans_retained", pc(obs_on.spans as u64), "count");
    out.put("obs.span_mb", obs_on.span_bytes as f64 / 1e6, "MB");
    out.put("obs.self_ms", obs_self, "ms");
    out.put("pool.overhead_ms", pool_self, "ms");
    out.put(
        "pool.tasks",
        pc(obs_on.get("runtime.pool.tasks").saturating_sub(probes)),
        "count",
    );
    out.put("frontier.compile_ms", m.compile_ms, "ms");
    out.put("frontier.compiles", compiles, "count");
    out.put("frontier.cache_lookup_ns", m.lookup_ns, "ns");
    let hits = obs_on.get("frontier.cache.hit");
    out.put(
        "frontier.memo_hit_ratio",
        obs_on.get("frontier.shard.memo_hits") as f64 / hits.max(1) as f64,
        "ratio",
    );
    out.put(
        "frontier.cache_entries",
        engine_e.cache().len() as f64,
        "count",
    );
    out.put("frontier.decide_ns", m.decide_ns, "ns");
    out.put("frontier.self_ms", frontier_self, "ms");
    out.put("ladder.compile_us", m.ladder_compile_us, "us");
    out.put("ladder.compiles", ladder_compiles, "count");
    out.put("ladder.decide_ns", m.ladder_decide_ns, "ns");
    out.put("ladder.self_ms", ladder_self, "ms");
    out.put("des.simulate_us", m.simulate_us, "us");
    out.put("des.faulted_us", m.faulted_us, "us");
    out.put("des.runs", pc(obs_on.get("des.runs")), "count");
    out.put(
        "des.faulted_runs",
        pc(obs_on.get("des.faulted_runs")),
        "count",
    );
    out.put("des.self_ms", des_self, "ms");
    out.put(
        "serve.session_start_us",
        tr.mean_ns("serve.session_start") * 1e-3,
        "us",
    );
    out.put(
        "serve.admit_burst_ns",
        tr.total_ns("serve.admit_bursts") / n.bursts.max(1) as f64,
        "ns",
    );
    out.put(
        "serve.maybe_adapt_us",
        tr.mean_ns("serve.maybe_adapt") * 1e-3,
        "us",
    );
    out.put("serve.replans", replans, "count");
    out.put("serve.self_ms", serve_self, "ms");
    out.put("adapt.commits", pc(obs_on.get("adapt.commits")), "count");
    out.put(
        "adapt.commit_us",
        n.commit_ns as f64 / n.replans.max(1) as f64 * 1e-3,
        "us",
    );
    out.put("adapt.self_ms", adapt_self, "ms");
    out.put("slo.dispatch_ms", dispatch, "ms");
    out.put("slo.generate_ms", generate, "ms");
    out.put("slo.summarize_ms", summarize, "ms");
    out.put("slo.heap_pushes", pc(n.heap_pushes), "count");
    out.put("slo.heap_pops", pc(n.heap_pops), "count");
    out.put(
        "slo.heap_stale_ratio",
        n.heap_stale as f64 / n.heap_pops.max(1) as f64,
        "ratio",
    );
    out.put("slo.memo_hits", pc(n.memo_hits), "count");
    out.put("slo.memo_misses", pc(n.memo_misses), "count");
    out.put("slo.memo_prunes", pc(n.memo_prunes), "count");
    out.put(
        "slo.memo_hit_ratio",
        n.memo_hits as f64 / (n.memo_hits + n.memo_misses).max(1) as f64,
        "ratio",
    );
    out.put("slo.dispatched", pc(n.dispatched), "count");
    out.put("joint.allocate_ms", m.joint_ms, "ms");
    out.put("joint.self_ms", joint_self, "ms");
    out.put("engine.call_ms", e_ms, "ms");
    out.put("engine.unattributed_ms", unattributed, "ms");

    println!(
        "info self times (ms/call): obs {obs_self:.4} + pool {pool_self:.4} + frontier {frontier_self:.4} \
         + ladder {ladder_self:.4} + des {des_self:.4} + serve {serve_self:.4} + adapt {adapt_self:.4} \
         + slo.dispatch {dispatch:.4} + slo.generate {generate:.4} + slo.summarize {summarize:.4} \
         + joint {joint_self:.4} + unattributed {unattributed:.4} = {:.4} = engine.call_ms {e_ms:.4}",
        attributed + unattributed
    );
    println!(
        "info lanes (ms/call): engine {e_ms:.4}, engine obs flipped {o_ms:.4}, serial {p_ms:.4}"
    );

    let path = format!("{TRACE_DIR}/trace-{}-seed{}.json", kind.name(), p.work.seed);
    match tr.write_chrome(&path) {
        Ok(()) => println!("info trace: {} spans written to {path}", tr.spans.len()),
        Err(e) => {
            eprintln!("writing {path}: {e}");
            ok = false;
        }
    }
    Layers {
        metrics: out,
        counts_match: ok,
    }
}
