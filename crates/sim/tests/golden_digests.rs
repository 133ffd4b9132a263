//! Absolute behaviour pins for both serving loops.
//!
//! Every other equivalence check in the workspace compares one path
//! with another — pooled vs serial, indexed vs reference dispatch, one
//! thread count vs another. A change that shifts both sides of such a
//! comparison together passes all of them. This test closes that gap:
//! it pins the absolute `ServeReport::fleet_digest` and
//! `SloReport::digest` of small fixed fleets on every behavioural axis
//! (faults, link degradation, frozen drift, drift with adaptation,
//! zero-drift adaptation; FIFO and EDF at no, oblivious and joint cloud
//! contention). A digest folds every burst's / request's decision and
//! timing bits, so an unchanged digest means an unchanged history.
//!
//! A deliberate behaviour change updates the table below in the same
//! commit, with the reason stated there.

use std::sync::Arc;

use mcdnn_partition::{PlanCache, RateProfile};
use mcdnn_profile::AdaptConfig;
use mcdnn_runtime::WorkerPool;
use mcdnn_sim::{
    fleet, serve_fleet, serve_fleet_serial, serve_slo, serve_slo_serial, slo_fleet, DriftSpec,
    ServeConfig, SloConfig, SloPolicy,
};

fn plain_profiles() -> Vec<RateProfile> {
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

fn cloudy_profiles() -> Vec<RateProfile> {
    vec![
        RateProfile::from_parts(
            "gamma",
            vec![0.0, 4.0, 7.0, 20.0],
            vec![120_000, 60_000, 20_000, 0],
            2.0,
            Some(vec![9.0, 6.0, 3.0, 0.0]),
        )
        .unwrap(),
        RateProfile::from_parts(
            "delta",
            vec![0.0, 2.0, 9.0, 11.0, 15.0],
            vec![200_000, 90_000, 40_000, 10_000, 0],
            1.0,
            Some(vec![12.0, 10.0, 5.0, 2.0, 0.0]),
        )
        .unwrap(),
    ]
}

fn drift() -> DriftSpec {
    DriftSpec {
        device_walk: 0.08,
        cloud_walk: 0.05,
        link_walk: 0.04,
        jitter: 0.02,
        ..DriftSpec::none()
    }
}

/// `(case, config)` for every serve axis.
fn serve_cases() -> Vec<(&'static str, ServeConfig)> {
    let plain = ServeConfig {
        bursts_per_user: 60,
        degrade_prob: 0.0,
        fault_every: 0,
        seed: 0x601D,
        ..ServeConfig::default()
    };
    let drifting = ServeConfig {
        bursts_per_user: 150,
        drift: drift(),
        ..plain
    };
    vec![
        ("plain", plain),
        ("fault_every", ServeConfig { fault_every: 7, ..plain }),
        ("degrade_prob", ServeConfig { degrade_prob: 0.3, ..plain }),
        ("drift_frozen", drifting),
        ("drift_adapt", ServeConfig { adapt: Some(AdaptConfig::default()), ..drifting }),
        ("zero_drift_adapt", ServeConfig { adapt: Some(AdaptConfig::default()), ..plain }),
    ]
}

/// `(case, config, policy)` for every SLO axis.
fn slo_cases() -> Vec<(&'static str, SloConfig, SloPolicy)> {
    let base = SloConfig {
        requests_per_tenant: 60,
        overload: 4.0,
        seed: 0x0601_D510,
        ..SloConfig::default()
    };
    let oblivious = SloConfig { cloud_servers: 2, ..base.clone() };
    let joint = SloConfig { joint_alloc: true, ..oblivious.clone() };
    let adaptive = SloConfig {
        requests_per_tenant: 80,
        drift: drift(),
        adapt: Some(AdaptConfig::default()),
        ..oblivious.clone()
    };
    let mut cases = Vec::new();
    for policy in [SloPolicy::Fifo, SloPolicy::EdfDegrade] {
        let fifo = policy == SloPolicy::Fifo;
        cases.push((if fifo { "fifo_c0" } else { "edf_c0" }, base.clone(), policy));
        cases.push((if fifo { "fifo_c2" } else { "edf_c2" }, oblivious.clone(), policy));
        cases.push((if fifo { "fifo_c2_joint" } else { "edf_c2_joint" }, joint.clone(), policy));
        cases.push((if fifo { "fifo_drift_adapt" } else { "edf_drift_adapt" }, adaptive.clone(), policy));
    }
    cases
}

/// Digests captured before the shared tenant core replaced the two
/// per-loop copies of tenant open / walk / observe / commit.
const GOLDEN: &[(&str, u64)] = &[
    ("serve/plain", 0x09ebc90375705551),
    ("serve/fault_every", 0x38558f7bf31d6852),
    ("serve/degrade_prob", 0x740a50d41c99719c),
    ("serve/drift_frozen", 0x97ebfe9ffd780401),
    ("serve/drift_adapt", 0xb9797b91af707d2c),
    ("serve/zero_drift_adapt", 0x09ebc90375705551),
    ("slo/fifo_c0", 0x5cb7b41697461f4d),
    ("slo/fifo_c2", 0x7fcd9f6441e07582),
    ("slo/fifo_c2_joint", 0x29361d564d4722a6),
    ("slo/fifo_drift_adapt", 0x76bc7d05f878a15a),
    ("slo/edf_c0", 0x37e38a7e051d611e),
    ("slo/edf_c2", 0x6e7754369e31349c),
    ("slo/edf_c2_joint", 0x02c6f3a7c03fde3f),
    ("slo/edf_drift_adapt", 0x36c9d503e8e5b87e),
];

fn golden(case: &str) -> u64 {
    GOLDEN
        .iter()
        .find(|(name, _)| *name == case)
        .unwrap_or_else(|| panic!("no golden digest for {case}"))
        .1
}

#[test]
fn serving_digests_match_the_pinned_history() {
    let pool = WorkerPool::new(2);
    let mut mismatches = Vec::new();
    for (name, config) in serve_cases() {
        let specs = fleet(&plain_profiles(), 6, &config);
        let serial = serve_fleet_serial(&PlanCache::new(), &specs, &config).unwrap();
        let pooled = serve_fleet(&pool, &Arc::new(PlanCache::new()), &specs, &config).unwrap();
        assert_eq!(serial, pooled, "serve/{name}: pooled diverged from serial");
        // Coverage: each axis really exercises its mechanism.
        match name {
            "fault_every" => assert!(serial.total_faulted_bursts > 0),
            "degrade_prob" => assert!(serial.total_degraded_bursts > 0),
            "drift_adapt" => assert!(serial.total_replans > 0, "the drift case must replan"),
            _ => {}
        }
        let case = format!("serve/{name}");
        if serial.fleet_digest != golden(&case) {
            mismatches.push(format!("    (\"{case}\", {:#018x}),", serial.fleet_digest));
        }
    }
    for (name, config, policy) in slo_cases() {
        let tenants = slo_fleet(&cloudy_profiles(), 6, &config);
        let serial = serve_slo_serial(&PlanCache::new(), &tenants, &config, policy).unwrap();
        let pooled = serve_slo(&pool, &Arc::new(PlanCache::new()), &tenants, &config, policy).unwrap();
        assert_eq!(serial, pooled, "slo/{name}: pooled diverged from serial");
        if config.adapt.is_some() {
            let frozen = SloConfig { adapt: None, ..config.clone() };
            let frozen = serve_slo_serial(&PlanCache::new(), &tenants, &frozen, policy).unwrap();
            assert_ne!(serial.digest, frozen.digest, "slo/{name}: commits must reach the schedule");
        }
        let case = format!("slo/{name}");
        if serial.digest != golden(&case) {
            mismatches.push(format!("    (\"{case}\", {:#018x}),", serial.digest));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests moved off the pinned history:\n{}",
        mismatches.join("\n")
    );
}
