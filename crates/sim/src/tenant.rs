//! The per-tenant core both serving loops drive.
//!
//! The burst loop ([`crate::serve::UserSession`]) and the deadline loop
//! (`crate::slo`'s request generator) serve the same tenant: one
//! [`UserSpec`] planning through the shared [`PlanCache`] along a
//! seeded bandwidth walk, optionally facing a drifting true platform
//! ([`DriftState`], whose streams never touch the tenant's main RNG)
//! and learning it through a [`ProfileEstimator`]. [`Tenant`] holds
//! that state; opening it, the walk step, the estimator feed and the
//! commit/replan step exist once, here. Each loop keeps its own draw
//! order around them (the deadline loop draws the arrival gap first).

use std::sync::Arc;

use mcdnn_partition::{CutMix, PlanCache, PlanError, RateFrontier, RateProfile, Strategy};
use mcdnn_profile::{fnv_fold, AdaptConfig, ProfileEstimator, FNV_OFFSET};
use mcdnn_rng::Rng;

use crate::adapt::{DriftSpec, DriftState};
use crate::serve::UserSpec;
use crate::slo::{ensure, AdmitError};

/// One tenant's planning, trace and learning state.
pub(crate) struct Tenant {
    pub(crate) strategy: Strategy,
    pub(crate) n_jobs: usize,
    pub(crate) lo_mbps: f64,
    pub(crate) hi_mbps: f64,
    /// The believed frontier: replaced on every estimator commit.
    pub(crate) frontier: Arc<RateFrontier>,
    /// The factory-calibrated frontier the tenant opened with: the
    /// anchor for truth timings and estimator ratios. Never replaced.
    pub(crate) base: Arc<RateFrontier>,
    pub(crate) rng: Rng,
    /// Current link bandwidth of the tenant's trace, Mbps.
    bandwidth: f64,
    pub(crate) truth: Option<DriftState>,
    pub(crate) estimator: Option<ProfileEstimator>,
}

impl Tenant {
    /// Check `spec`, fetch its frontier over `[lo_mbps, hi_mbps]` (a
    /// range the caller has validated), seed the tenant's RNG from
    /// `spec.seed` and draw the initial bandwidth `lo·(hi/lo)^u`.
    pub(crate) fn open(
        cache: &PlanCache,
        spec: &UserSpec,
        lo_mbps: f64,
        hi_mbps: f64,
        drift: &DriftSpec,
        adapt: Option<AdaptConfig>,
    ) -> Result<Tenant, AdmitError> {
        ensure(spec.n_jobs >= 1, "a tenant needs n_jobs >= 1")?;
        ensure(
            matches!(spec.strategy, Strategy::Jps | Strategy::JpsBestMix),
            "a tenant must plan with jps or jps*",
        )?;
        let frontier =
            cache.frontier(&spec.profile, spec.strategy, spec.n_jobs, lo_mbps, hi_mbps)?;
        let mut rng = Rng::seed_from_u64(spec.seed);
        let bandwidth = lo_mbps * (hi_mbps / lo_mbps).powf(rng.f64());
        // Without drift every stage runs at exactly its factory time, so
        // each sample equals the value it is tested against (ratios of
        // 1.0, uploads on the committed line). Unless such a sample arms
        // the gate, the estimator could never commit: build none, and
        // serve exactly as a non-adaptive tenant.
        let adapt = adapt.filter(|cfg| drift.is_active() || cfg.arms_on_exact_match());
        Ok(Tenant {
            strategy: spec.strategy,
            n_jobs: spec.n_jobs,
            lo_mbps,
            hi_mbps,
            base: Arc::clone(&frontier),
            frontier,
            rng,
            bandwidth,
            truth: drift.is_active().then(|| DriftState::new(drift, spec.seed)),
            estimator: adapt
                .map(|cfg| ProfileEstimator::new(spec.profile.k(), spec.profile.setup_ms(), cfg)),
        })
    }

    /// Advance one burst or request: one truth-walk step (from the
    /// walk's own streams, so it commutes with every main-RNG draw) and
    /// one multiplicative bandwidth step `b·(1 + 0.25·(2u−1))`, clamped
    /// inside the compiled range (an out-of-range query would fall back
    /// to a direct — allocating — planning pass). Returns the new
    /// bandwidth.
    pub(crate) fn walk(&mut self) -> f64 {
        if let Some(truth) = self.truth.as_mut() {
            truth.step();
        }
        let step = 1.0 + 0.25 * (self.rng.f64() * 2.0 - 1.0);
        self.bandwidth = (self.bandwidth * step).clamp(self.lo_mbps, self.hi_mbps);
        self.bandwidth
    }

    /// Realized times `[f1, g1, f2, g2]` of every executed stage of
    /// `mix` at nominal bandwidth `b_mbps`: the factory profile under
    /// the truth scales, one jitter draw per stage. The second pair is
    /// zero (and draws nothing) for a uniform mix.
    pub(crate) fn realize(&mut self, mix: CutMix, b_mbps: f64) -> [f64; 4] {
        let base = self.base.profile();
        let mut times = [0.0; 4];
        for (i, cut) in stage_cuts(mix) {
            times[2 * i] = device_ms(base, &mut self.truth, cut);
            times[2 * i + 1] = upload_ms(base, &mut self.truth, cut, b_mbps);
        }
        times
    }

    /// Feed one executed mix to the estimator (a no-op without one):
    /// device ratios against the factory base, upload samples as
    /// (paper's r at nominal bandwidth, realized ms), and — with `cloud`
    /// set — the cloud-stage scale. `drawn` carries times the caller
    /// already realized (laid out as [`Tenant::realize`] returns them);
    /// without it each *observed* stage is realized here, so jitter is
    /// drawn only for stages with a nonzero base. In-place EWMA and
    /// ring writes — allocation-free.
    pub(crate) fn observe(
        &mut self,
        mix: CutMix,
        b_mbps: f64,
        drawn: Option<[f64; 4]>,
        cloud: bool,
    ) {
        let Some(est) = self.estimator.as_mut() else {
            return;
        };
        let base = self.base.profile();
        let mut last_cut = 0;
        for (slot, cut) in stage_cuts(mix) {
            last_cut = cut;
            let bf = base.mobile_ms(cut);
            if bf > 0.0 {
                let realized =
                    drawn.map_or_else(|| device_ms(base, &mut self.truth, cut), |d| d[2 * slot]);
                est.observe_device(cut, realized / bf);
            }
            if base.bytes(cut) > 0 {
                let r = base.bytes(cut) as f64 * 8.0 / (b_mbps * 1e3);
                let rg = drawn.map_or_else(
                    || upload_ms(base, &mut self.truth, cut, b_mbps),
                    |d| d[2 * slot + 1],
                );
                est.observe_upload(r, rg);
            }
        }
        // The cloud stage runs the suffix after the last executed cut.
        if cloud && base.cloud_stage_ms(last_cut) > 0.0 {
            let scale = self.truth.as_ref().map_or(1.0, |t| t.cloud_scale);
            est.observe_cloud(scale * jitter(&mut self.truth));
        }
    }

    /// Commit gated estimates and replan when `index` sits on a
    /// `commit_every` boundary and the confidence gate is crossed: the
    /// believed profile is rebuilt **from the factory base** under the
    /// committed scales, stamped with the estimator's generation (so
    /// the cache can never alias a stale frontier) and refetched.
    /// Returns `true` only when the frontier was replaced; otherwise a
    /// read-only, allocation-free check.
    #[inline]
    pub(crate) fn maybe_commit(
        &mut self,
        cache: &PlanCache,
        index: usize,
    ) -> Result<bool, PlanError> {
        let Some(est) = self.estimator.as_mut() else {
            return Ok(false);
        };
        let every = est.config().commit_every;
        if every == 0 || !index.is_multiple_of(every) || !est.commit() {
            return Ok(false);
        }
        mcdnn_obs::counter_add("adapt.commits", 1);
        let believed = self
            .base
            .profile()
            .reestimated(
                est.device_scales(),
                est.cloud_scale(),
                est.upload_scale(),
                est.setup_ms(),
            )
            .with_generation(est.commits());
        self.frontier = cache.frontier(
            &believed,
            self.strategy,
            self.n_jobs,
            self.lo_mbps,
            self.hi_mbps,
        )?;
        mcdnn_obs::counter_add("adapt.recompiles", 1);
        Ok(true)
    }
}

/// `(stage slot, cut)` of each executed cut type: the one cut of a
/// uniform mix, or `prev` then `star`.
fn stage_cuts(mix: CutMix) -> impl Iterator<Item = (usize, usize)> {
    let (cuts, types) = match mix {
        CutMix::Uniform { cut } => ([cut, cut], 1),
        CutMix::Mix { prev, star, .. } => ([prev, star], 2),
    };
    cuts.into_iter().take(types).enumerate()
}

/// One multiplicative noise factor (1.0 without drift or jitter).
fn jitter(truth: &mut Option<DriftState>) -> f64 {
    truth.as_mut().map_or(1.0, |t| t.jitter_factor())
}

/// Realized device time of the prefix up to `cut`.
fn device_ms(base: &RateProfile, truth: &mut Option<DriftState>, cut: usize) -> f64 {
    let scale = truth.as_ref().map_or(1.0, |t| t.device_scale);
    base.mobile_ms(cut) * scale * jitter(truth)
}

/// Realized upload time of cut `cut` at nominal bandwidth `b_mbps`.
fn upload_ms(base: &RateProfile, truth: &mut Option<DriftState>, cut: usize, b_mbps: f64) -> f64 {
    let b_true = b_mbps * truth.as_ref().map_or(1.0, |t| t.link_scale);
    base.upload_ms_at(cut, b_true) * jitter(truth)
}

/// The bandwidth-range check of both serving configs: a frontier
/// compiles only over `0 < lo < hi < ∞`.
pub(crate) fn check_range(lo_mbps: f64, hi_mbps: f64) -> Result<(), AdmitError> {
    let ok = lo_mbps > 0.0 && hi_mbps > lo_mbps && hi_mbps.is_finite();
    ensure(ok, "need 0 < lo_mbps < hi_mbps")
}

/// FNV-1a fold of per-tenant digests, in the order given (callers pass
/// id order): the fleet digest of both serving reports.
pub(crate) fn fleet_digest(digests: impl IntoIterator<Item = (usize, u64)>) -> u64 {
    digests
        .into_iter()
        .fold(FNV_OFFSET, |h, (id, d)| fnv_fold(fnv_fold(h, id as u64), d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_partition::RateProfile;

    fn spec(strategy: Strategy) -> UserSpec {
        UserSpec {
            id: 0,
            profile: RateProfile::from_parts(
                "gamma",
                vec![0.0, 3.0, 8.0, 10.0, 19.0],
                vec![150_000, 70_000, 30_000, 9_000, 0],
                1.5,
                Some(vec![6.0, 4.5, 2.0, 1.0, 0.0]),
            )
            .unwrap(),
            strategy,
            n_jobs: 5,
            seed: 11,
        }
    }

    #[test]
    fn zero_drift_builds_no_estimator_unless_exact_samples_arm_the_gate() {
        let cache = PlanCache::new();
        let none = DriftSpec::none();
        let open = |adapt| Tenant::open(&cache, &spec(Strategy::Jps), 1.0, 100.0, &none, adapt);
        assert!(open(Some(AdaptConfig::default()))
            .unwrap()
            .estimator
            .is_none());
        let zero_gate = AdaptConfig {
            gate: 0.0,
            ..AdaptConfig::default()
        };
        assert!(open(Some(zero_gate)).unwrap().estimator.is_some());
        let drift = DriftSpec {
            jitter: 0.01,
            ..DriftSpec::none()
        };
        let adapt = Some(AdaptConfig::default());
        let t = Tenant::open(&cache, &spec(Strategy::Jps), 1.0, 100.0, &drift, adapt).unwrap();
        assert!(t.estimator.is_some());
    }

    /// The estimator a zero-drift tenant skips would have been inert:
    /// fed every stage of both loops' zero-drift streams, it never
    /// crosses the gate and never commits.
    #[test]
    fn zero_drift_feed_never_arms_a_positive_gate() {
        let cache = PlanCache::new();
        for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
            let spec = spec(strategy);
            let mut t = Tenant::open(&cache, &spec, 1.0, 100.0, &DriftSpec::none(), None).unwrap();
            let cfg = AdaptConfig {
                commit_every: 1,
                min_obs: 1,
                ..AdaptConfig::default()
            };
            t.estimator = Some(ProfileEstimator::new(
                spec.profile.k(),
                spec.profile.setup_ms(),
                cfg,
            ));
            for i in 1..=400 {
                let b = t.walk();
                let mix = t.frontier.decide_at(b).mix;
                if i % 2 == 0 {
                    let drawn = t.realize(mix, b);
                    t.observe(mix, b, Some(drawn), false);
                } else {
                    t.observe(mix, b, None, true);
                }
                assert!(
                    !t.maybe_commit(&cache, i).unwrap(),
                    "{strategy:?} burst {i}"
                );
            }
            let est = t.estimator.as_ref().unwrap();
            assert!(est.observations() >= 400, "{}", est.observations());
            assert!(!est.gate_crossed());
            assert_eq!(est.commits(), 0);
        }
    }
}
