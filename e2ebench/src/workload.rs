//! The three named workloads: their seeded inputs, the Engine call each
//! one makes, and the serial reference every call is checked against.

use mcdnn::partition::{PlanCache, RateProfile};
use mcdnn::profile::AdaptConfig;
use mcdnn::sim::{
    fleet, serve_fleet_serial, serve_slo_serial, slo_fleet, DriftSpec, ServeConfig, ServeReport,
    SloConfig, SloPolicy, SloReport, SloTenant, UserSpec,
};
use mcdnn::{Engine, EngineConfig, Error};
use mcdnn_bench::workload::{
    monotone_zoo_cloud_rate_profiles, monotone_zoo_rate_profiles, SETUP_MS,
};

/// Drift half-width of `drift-adapt` (the CLI's `--drift 0.10`).
const DRIFT_W: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FleetSteady,
    SloContended,
    DriftAdapt,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fleet-steady" => Some(Kind::FleetSteady),
            "slo-contended" => Some(Kind::SloContended),
            "drift-adapt" => Some(Kind::DriftAdapt),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetSteady => "fleet-steady",
            Kind::SloContended => "slo-contended",
            Kind::DriftAdapt => "drift-adapt",
        }
    }

    /// Observability: on for plain serving (the CLI default), off for
    /// the SLO scheduler, which then measures what an observability
    /// change must leave flat.
    pub fn obs(self) -> bool {
        !matches!(self, Kind::SloContended)
    }

    /// Engine calls per `--seconds` of the timed phase. Work per run is
    /// fixed by these constants, never by a clock, so two runs of one
    /// build do identical work; they were sized so a timed phase lasts
    /// about `--seconds` on a 2-vCPU x86-64 VM.
    pub fn calls_per_second(self) -> f64 {
        match self {
            Kind::FleetSteady => 50.0,
            Kind::SloContended => 80.0,
            Kind::DriftAdapt => 12.0,
        }
    }

    /// Distinct seeded fleets per run. Call `i` serves fleet
    /// `i % fleets()`, so a run's figures average over many fleet draws
    /// instead of riding on one (a single 64-tenant SLO fleet moves mean
    /// latency by ±15% between seeds), while every fleet is still served
    /// repeatedly. Under drift every call is distinct anyway (fresh drift
    /// seed) and costly, so fewer fleets keep its warm-up short.
    pub fn fleets(self) -> usize {
        match self {
            Kind::DriftAdapt => 48,
            _ => 64,
        }
    }

    pub fn is_slo(self) -> bool {
        matches!(self, Kind::SloContended)
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `mix(seed, salt)`.
pub fn unit(seed: u64, salt: u64) -> f64 {
    (mix(seed, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a offset basis: the start of every digest fold.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one value into an FNV-1a digest, as the program folds its own.
pub fn fnv_fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// What one Engine call produced, reduced to the figures the benchmark
/// reports and checks. Every field is a pure function of the call's
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Outcome {
    /// Fleet digest (serve) or report digest (slo).
    pub digest: u64,
    /// Bursts admitted (serve) or requests offered (slo).
    pub units: u64,
    /// Bursts meeting the drift deadline (serve) or deadline hits (slo).
    pub hits: u64,
    /// Σ makespan over bursts (serve) or Σ latency over admitted
    /// requests (slo), ms.
    pub latency_sum_ms: f64,
    /// Bursts (serve) or admitted requests (slo) behind `latency_sum_ms`.
    pub latency_weight: u64,
    /// Adaptation replans (serve only).
    pub replans: u64,
    /// Exact nearest-rank p50 / p99 latency of the call (slo only), ms.
    pub p50_ms: f64,
    pub p99_ms: f64,
}

impl Outcome {
    pub fn of_serve(r: &ServeReport) -> Outcome {
        let latency_sum_ms = r
            .users
            .iter()
            .map(|u| u.mean_makespan_ms * u.bursts as f64)
            .sum();
        Outcome {
            digest: r.fleet_digest,
            units: r.total_bursts,
            hits: r.total_hits,
            latency_sum_ms,
            latency_weight: r.total_bursts,
            replans: r.total_replans,
            ..Outcome::default()
        }
    }

    pub fn of_slo(r: &SloReport) -> Outcome {
        let latency_sum_ms = r
            .tenants
            .iter()
            .map(|t| t.mean_latency_ms * t.admitted as f64)
            .sum();
        Outcome {
            digest: r.digest,
            units: r.total_requests,
            hits: r.deadline_hits,
            latency_sum_ms,
            latency_weight: r.admitted,
            replans: 0,
            p50_ms: r.p50_latency_ms,
            p99_ms: r.p99_latency_ms,
        }
    }
}

/// A workload's seeded inputs.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub serve: ServeConfig,
    pub fleets: Vec<Vec<UserSpec>>,
    pub slo: SloConfig,
    pub tenants: Vec<Vec<SloTenant>>,
}

impl Workload {
    /// Evaluate the zoo profiles and draw the run's fleets.
    pub fn build(kind: Kind, seed: u64) -> Workload {
        let serve = ServeConfig {
            bursts_per_user: if kind == Kind::DriftAdapt { 120 } else { 100 },
            fault_every: 16,
            drift: if kind == Kind::DriftAdapt {
                DriftSpec {
                    device_walk: DRIFT_W,
                    link_walk: DRIFT_W / 2.0,
                    jitter: DRIFT_W / 4.0,
                    ..DriftSpec::none()
                }
            } else {
                DriftSpec::none()
            },
            adapt: (kind == Kind::DriftAdapt).then(AdaptConfig::default),
            ..ServeConfig::default()
        };
        let slo = SloConfig {
            requests_per_tenant: 150,
            cloud_servers: 2,
            joint_alloc: true,
            ..SloConfig::default()
        };
        let (mut fleets, mut tenants) = (Vec::new(), Vec::new());
        if kind.is_slo() {
            let profiles = monotone_zoo_cloud_rate_profiles(SETUP_MS);
            for f in 0..kind.fleets() {
                let cfg = SloConfig {
                    seed: mix(seed, f as u64),
                    ..slo.clone()
                };
                tenants.push(slo_fleet(&profiles, 64, &cfg));
            }
        } else {
            let profiles: Vec<RateProfile> = monotone_zoo_rate_profiles(SETUP_MS);
            let users = if kind == Kind::DriftAdapt { 16 } else { 64 };
            for f in 0..kind.fleets() {
                let cfg = ServeConfig {
                    seed: mix(seed, f as u64),
                    ..serve
                };
                fleets.push(fleet(&profiles, users, &cfg));
            }
        }
        Workload {
            kind,
            seed,
            serve,
            fleets,
            slo,
            tenants,
        }
    }

    /// The engine every timed call goes through: one pool worker, the
    /// CLI's cache layout, observability per [`Kind::obs`].
    pub fn engine(&self) -> Engine {
        EngineConfig::new().threads(1).obs(self.kind.obs()).build()
    }

    /// Call `i`'s serve config: under drift, a drift seed derived from
    /// `(workload seed, call index)` so every call meets fresh truth
    /// trajectories.
    pub fn serve_config(&self, i: usize) -> ServeConfig {
        let mut cfg = self.serve;
        if self.kind == Kind::DriftAdapt {
            cfg.drift.seed = mix(self.seed ^ 0xD21F_7A11, i as u64);
        }
        cfg
    }

    pub fn users(&self, i: usize) -> &[UserSpec] {
        &self.fleets[i % self.kind.fleets()]
    }

    pub fn tenants_of(&self, i: usize) -> &[SloTenant] {
        &self.tenants[i % self.kind.fleets()]
    }

    /// Calls with the same key have identical inputs (and so identical
    /// outcomes): the fleet index, except under drift where every call
    /// is distinct.
    pub fn input_key(&self, i: usize) -> usize {
        if self.kind == Kind::DriftAdapt {
            i
        } else {
            i % self.kind.fleets()
        }
    }

    /// Engine call `i`, as the CLI makes it.
    pub fn call(&self, engine: &Engine, i: usize) -> Result<Outcome, Error> {
        if self.kind.is_slo() {
            let r = engine.serve_slo(self.tenants_of(i), &self.slo, SloPolicy::EdfDegrade)?;
            Ok(Outcome::of_slo(&r))
        } else {
            let r = engine.serve(self.users(i), &self.serve_config(i))?;
            Ok(Outcome::of_serve(&r))
        }
    }

    /// The serial reference for call `i` on `cache`.
    pub fn reference(&self, cache: &PlanCache, i: usize) -> Result<Outcome, Error> {
        if self.kind.is_slo() {
            let r = serve_slo_serial(cache, self.tenants_of(i), &self.slo, SloPolicy::EdfDegrade)?;
            Ok(Outcome::of_slo(&r))
        } else {
            let r = serve_fleet_serial(cache, self.users(i), &self.serve_config(i))?;
            Ok(Outcome::of_serve(&r))
        }
    }
}
