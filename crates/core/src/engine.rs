//! The typed front door of the serving stack.
//!
//! Before this module, runtime knobs were an env-var scatter: thread
//! count came from `MCDNN_THREADS`, observability from `MCDNN_OBS`,
//! and every caller wired its own `WorkerPool` + [`PlanCache`] pair.
//! [`EngineConfig`] replaces that with an explicit builder —
//! environment variables remain the *defaults layer* (an unset knob
//! falls back to exactly the old behaviour), but programs state their
//! configuration in code and get one [`Engine`] owning the pool and
//! the shared plan cache for planning, serving, SLO scheduling and
//! chaos drills.
//!
//! ```
//! use mcdnn::{Engine, EngineConfig};
//! use mcdnn::prelude::*;
//!
//! let engine: Engine = EngineConfig::new().threads(2).build();
//! let scenario = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
//! let plan = engine.try_plan(&scenario, Strategy::Jps, 10)?;
//! assert_eq!(plan.cuts.len(), 10);
//! # Ok::<(), mcdnn::Error>(())
//! ```

use std::sync::Arc;

use mcdnn_partition::{PlanCache, Plan, RateFrontier, RateProfile, Strategy};
use mcdnn_profile::AdaptConfig;
use mcdnn_runtime::{worker_threads, WorkerPool};
use mcdnn_sim::{
    serve_fleet, serve_slo, ServeConfig, ServeReport, SloConfig, SloPolicy, SloReport, SloTenant,
    UserSpec,
};

use crate::chaos::{chaos_report, ChaosConfig, ChaosReport};
use crate::error::Error;
use crate::scenario::Scenario;

/// Builder for [`Engine`]: every knob is optional, and an unset knob
/// falls back to the environment-variable default the stack has always
/// honoured (`MCDNN_THREADS`, `MCDNN_OBS`), then to the hardware.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineConfig {
    threads: Option<usize>,
    obs: Option<bool>,
    adaptation: Option<AdaptConfig>,
}

impl EngineConfig {
    /// Start from all-defaults (equivalent to the env-var behaviour).
    pub fn new() -> Self {
        EngineConfig::default()
    }

    /// Worker-thread count for the engine's pool. Unset: the
    /// `MCDNN_THREADS` env var, else available parallelism. A value of
    /// 0 is clamped to 1.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Turn the `mcdnn-obs` registry on or off for the whole process.
    /// Unset: leave the registry as-is (its own `MCDNN_OBS` default).
    pub fn obs(mut self, on: bool) -> Self {
        self.obs = Some(on);
        self
    }

    /// Engine-wide default for online profile learning: serving entry
    /// points whose config leaves `adapt` unset run under this
    /// [`AdaptConfig`]. A config that sets its own `adapt` always wins.
    /// Unset: no adaptation unless a config asks for it.
    pub fn adaptation(mut self, cfg: AdaptConfig) -> Self {
        self.adaptation = Some(cfg);
        self
    }

    /// Resolve every knob (explicit → env → hardware) and build the
    /// engine.
    pub fn build(self) -> Engine {
        if let Some(on) = self.obs {
            mcdnn_obs::set_enabled(on);
        }
        let threads = self.threads.unwrap_or_else(worker_threads).max(1);
        Engine {
            pool: WorkerPool::new(threads),
            cache: Arc::new(PlanCache::new()),
            threads,
            adaptation: self.adaptation,
        }
    }
}

/// One front door for the stack: a persistent [`WorkerPool`] plus a
/// shared [`PlanCache`], with typed entry points for planning, frontier
/// compilation, multi-tenant serving, SLO scheduling and chaos drills.
///
/// Construction goes through [`EngineConfig`]; [`Engine::default`] is
/// the all-defaults build (env vars, then hardware). Failures surface
/// as the unified [`enum@Error`].
pub struct Engine {
    pool: WorkerPool,
    cache: Arc<PlanCache>,
    threads: usize,
    adaptation: Option<AdaptConfig>,
}

impl Default for Engine {
    fn default() -> Self {
        EngineConfig::new().build()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads)
            .field("cache_shards", &self.cache.shards())
            .finish()
    }
}

impl Engine {
    /// Shorthand for [`EngineConfig::new`].
    pub fn builder() -> EngineConfig {
        EngineConfig::new()
    }

    /// Resolved worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The engine's persistent pool (for callers that fan out their
    /// own work alongside the typed entry points).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The engine's shared plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The engine-wide adaptation default, if one was configured.
    pub fn adaptation(&self) -> Option<AdaptConfig> {
        self.adaptation
    }

    /// Drop every cached frontier, so the next fetch of any profile
    /// compiles afresh (tenants already holding an `Arc` keep theirs).
    /// The hammer to [`ProfileEstimator`](mcdnn_profile::ProfileEstimator)'s
    /// scalpel: adaptation invalidates one tenant at a time through
    /// versioned profiles; this invalidates everything — for cost-model
    /// recalibrations that change profiles behind the cache's back.
    pub fn invalidate_profiles(&self) {
        self.cache.clear();
    }

    /// A serving config's `adapt` knob with the engine-wide adaptation
    /// default filled in when the config leaves it unset.
    fn adapt_or_default(&self, adapt: Option<AdaptConfig>) -> Option<AdaptConfig> {
        adapt.or(self.adaptation)
    }

    /// Plan `n` jobs for a scenario — [`Scenario::plan`] through the
    /// facade (panicking surface; see [`Engine::try_plan`]).
    pub fn plan(&self, scenario: &Scenario, strategy: Strategy, n: usize) -> Plan {
        scenario.plan(strategy, n)
    }

    /// Plan `n` jobs for a scenario, reporting failures as the unified
    /// [`enum@Error`].
    pub fn try_plan(
        &self,
        scenario: &Scenario,
        strategy: Strategy,
        n: usize,
    ) -> Result<Plan, Error> {
        Ok(scenario.try_plan(strategy, n)?)
    }

    /// Fetch (compiling on miss) the bandwidth frontier for a profile
    /// from the engine's shared cache.
    pub fn frontier(
        &self,
        profile: &RateProfile,
        strategy: Strategy,
        n_jobs: usize,
        lo_mbps: f64,
        hi_mbps: f64,
    ) -> Result<Arc<RateFrontier>, Error> {
        Ok(self
            .cache
            .frontier(profile, strategy, n_jobs, lo_mbps, hi_mbps)?)
    }

    /// Serve a multi-tenant fleet across the engine's pool
    /// ([`mcdnn_sim::serve_fleet`] with the engine's cache). A config
    /// that leaves `adapt` unset inherits the engine-wide
    /// [`EngineConfig::adaptation`] default.
    pub fn serve(&self, specs: &[UserSpec], config: &ServeConfig) -> Result<ServeReport, Error> {
        let config = ServeConfig {
            adapt: self.adapt_or_default(config.adapt),
            ..*config
        };
        Ok(serve_fleet(&self.pool, &self.cache, specs, &config)?)
    }

    /// Run the SLO admission-control + deadline scheduler over a tenant
    /// fleet ([`mcdnn_sim::serve_slo`] with the engine's pool and
    /// cache). Byte-equal to the serial path at any thread count. A
    /// config that leaves `adapt` unset inherits the engine-wide
    /// [`EngineConfig::adaptation`] default.
    pub fn serve_slo(
        &self,
        tenants: &[SloTenant],
        config: &SloConfig,
        policy: SloPolicy,
    ) -> Result<SloReport, Error> {
        let config = SloConfig {
            adapt: self.adapt_or_default(config.adapt),
            ..config.clone()
        };
        Ok(serve_slo(&self.pool, &self.cache, tenants, &config, policy)?)
    }

    /// Run a chaos drill for a scenario ([`chaos_report`]).
    pub fn chaos(&self, scenario: &Scenario, config: &ChaosConfig) -> ChaosReport {
        chaos_report(scenario, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_models::Model;
    use mcdnn_profile::NetworkModel;
    use mcdnn_sim::{fleet, serve_fleet_serial, serve_slo_serial, slo_fleet, AdmitError};

    fn profiles() -> Vec<RateProfile> {
        vec![
            RateProfile::from_parts(
                "alpha",
                vec![0.0, 4.0, 7.0, 20.0],
                vec![120_000, 60_000, 20_000, 0],
                2.0,
                None,
            )
            .unwrap(),
            RateProfile::from_parts(
                "beta",
                vec![0.0, 2.0, 9.0, 11.0, 15.0],
                vec![200_000, 90_000, 40_000, 10_000, 0],
                1.0,
                None,
            )
            .unwrap(),
        ]
    }

    #[test]
    fn explicit_knobs_win_over_env_defaults() {
        let engine = EngineConfig::new().threads(3).build();
        assert_eq!(engine.threads(), 3);
        assert_eq!(engine.cache().shards(), PlanCache::new().shards());
        // Degenerate values clamp instead of panicking.
        let engine = EngineConfig::new().threads(0).build();
        assert_eq!(engine.threads(), 1);
    }

    #[test]
    fn default_build_resolves_threads_positively() {
        let engine = Engine::default();
        assert!(engine.threads() >= 1);
        let dbg = format!("{engine:?}");
        assert!(dbg.contains("threads"));
    }

    #[test]
    fn engine_plan_matches_scenario_plan() {
        let engine = EngineConfig::new().threads(2).build();
        let scenario = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
        let a = engine.try_plan(&scenario, Strategy::Jps, 8).unwrap();
        assert_eq!(a, scenario.plan(Strategy::Jps, 8));
        assert_eq!(engine.plan(&scenario, Strategy::Jps, 8), a);
    }

    #[test]
    fn engine_serve_matches_serial_reference() {
        let engine = EngineConfig::new().threads(4).build();
        let config = ServeConfig {
            bursts_per_user: 20,
            ..ServeConfig::default()
        };
        let specs = fleet(&profiles(), 6, &config);
        let pooled = engine.serve(&specs, &config).unwrap();
        let serial = serve_fleet_serial(&PlanCache::with_shards(1), &specs, &config).unwrap();
        assert_eq!(pooled, serial);
    }

    #[test]
    fn engine_serve_slo_matches_serial_reference() {
        let engine = EngineConfig::new().threads(4).build();
        let config = SloConfig {
            requests_per_tenant: 30,
            ..SloConfig::default()
        };
        let tenants = slo_fleet(&profiles(), 6, &config);
        for policy in [SloPolicy::Fifo, SloPolicy::EdfDegrade] {
            let pooled = engine.serve_slo(&tenants, &config, policy).unwrap();
            let serial =
                serve_slo_serial(&PlanCache::with_shards(1), &tenants, &config, policy).unwrap();
            assert_eq!(pooled, serial, "policy={policy}");
        }
    }

    #[test]
    fn engine_adaptation_default_flows_into_serving() {
        use mcdnn_sim::DriftSpec;
        let drift = DriftSpec {
            device_walk: 0.08,
            link_walk: 0.04,
            jitter: 0.02,
            ..DriftSpec::none()
        };
        let config = ServeConfig {
            bursts_per_user: 80,
            drift,
            ..ServeConfig::default()
        };
        let specs = fleet(&profiles(), 4, &config);
        let engine = EngineConfig::new()
            .threads(2)
            .adaptation(AdaptConfig::default())
            .build();
        assert_eq!(engine.adaptation(), Some(AdaptConfig::default()));
        // The engine's default fills the unset `adapt` knob...
        let adaptive = engine.serve(&specs, &config).unwrap();
        let explicit = ServeConfig {
            adapt: Some(AdaptConfig::default()),
            ..config
        };
        let reference = serve_fleet_serial(&PlanCache::with_shards(1), &specs, &explicit).unwrap();
        assert_eq!(adaptive, reference);
        assert!(adaptive.total_replans > 0, "drift must trigger adaptation");
        // ...and an explicitly set knob always wins over the default.
        let frozen_engine = EngineConfig::new()
            .threads(2)
            .adaptation(AdaptConfig {
                gate: 1e12,
                ..AdaptConfig::default()
            })
            .build();
        let overridden = frozen_engine.serve(&specs, &explicit).unwrap();
        assert_eq!(overridden, reference);
    }

    #[test]
    fn invalidate_profiles_evicts_every_cached_frontier() {
        let engine = EngineConfig::new().threads(1).build();
        let p = &profiles()[0];
        let a = engine.frontier(p, Strategy::Jps, 4, 1.0, 100.0).unwrap();
        let b = engine.frontier(p, Strategy::Jps, 4, 1.0, 100.0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm fetch hits the cache");
        assert!(!engine.cache().is_empty());
        engine.invalidate_profiles();
        assert!(engine.cache().is_empty());
        let c = engine.frontier(p, Strategy::Jps, 4, 1.0, 100.0).unwrap();
        assert!(
            !Arc::ptr_eq(&a, &c),
            "generation bump must force a recompile"
        );
        assert_eq!(a.breakpoints(), c.breakpoints(), "same plan, fresh storage");
    }

    #[test]
    fn engine_errors_are_unified() {
        let engine = EngineConfig::new().threads(1).build();
        let bad = SloConfig {
            overload: -1.0,
            ..SloConfig::default()
        };
        let tenants = slo_fleet(&profiles(), 2, &SloConfig::default());
        match engine.serve_slo(&tenants, &bad, SloPolicy::Fifo) {
            Err(Error::Admit(_)) => {}
            other => panic!("expected Error::Admit, got {other:?}"),
        }
    }

    /// Caller-built bad specs and ranges come back as typed errors
    /// through both serving entry points, never as a panic in a pool
    /// worker.
    #[test]
    fn bad_tenants_and_ranges_are_typed_errors_on_both_serving_paths() {
        let engine = EngineConfig::new().threads(2).build();
        let serve_cfg = ServeConfig {
            bursts_per_user: 4,
            ..ServeConfig::default()
        };
        let slo_cfg = SloConfig {
            requests_per_tenant: 4,
            ..SloConfig::default()
        };
        let specs = fleet(&profiles(), 3, &serve_cfg);
        let tenants = slo_fleet(&profiles(), 3, &slo_cfg);
        let spoil = |what: &str, spec: &mut UserSpec| match what {
            "n_jobs 0" => spec.n_jobs = 0,
            _ => spec.strategy = Strategy::LocalOnly,
        };
        for what in ["n_jobs 0", "non-jps strategy"] {
            let mut specs = specs.clone();
            spoil(what, &mut specs[1]);
            match engine.serve(&specs, &serve_cfg) {
                Err(Error::Admit(AdmitError::BadConfig { .. })) => {}
                other => panic!("serve with {what}: expected BadConfig, got {other:?}"),
            }
            let mut tenants = tenants.clone();
            spoil(what, &mut tenants[1].spec);
            match engine.serve_slo(&tenants, &slo_cfg, SloPolicy::EdfDegrade) {
                Err(Error::Admit(AdmitError::BadConfig { .. })) => {}
                other => panic!("serve_slo with {what}: expected BadConfig, got {other:?}"),
            }
        }
        for (lo, hi) in [(5.0, 5.0), (50.0, 5.0), (0.0, 5.0), (1.0, f64::INFINITY)] {
            let serve_bad = ServeConfig {
                lo_mbps: lo,
                hi_mbps: hi,
                ..serve_cfg
            };
            assert!(
                matches!(
                    engine.serve(&specs, &serve_bad),
                    Err(Error::Admit(AdmitError::BadConfig { .. }))
                ),
                "serve range {lo}..{hi}"
            );
            let slo_bad = SloConfig {
                lo_mbps: lo,
                hi_mbps: hi,
                ..slo_cfg.clone()
            };
            assert!(
                matches!(
                    engine.serve_slo(&tenants, &slo_bad, SloPolicy::Fifo),
                    Err(Error::Admit(AdmitError::BadConfig { .. }))
                ),
                "serve_slo range {lo}..{hi}"
            );
        }
    }
}
