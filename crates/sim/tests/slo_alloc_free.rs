//! Proof that the warm [`mcdnn_sim::SloArena`] dispatch path is
//! allocation-free.
//!
//! Same counting-allocator technique as `arena_alloc_free`: a thin
//! `System` wrapper counts heap allocations around a warm
//! `serve_slo_digest_in` call — request generation, the indexed
//! EDF/WFQ dispatch loop, the rung-pricing memo, and the outcome
//! digest fold — with observability disabled. Report construction is
//! excluded on purpose (reports own `String`s), as is the joint share
//! planner (`joint_alloc` runs a fresh optimization per run by
//! design); the digest covers every scheduled bit regardless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mcdnn_partition::{PlanCache, RateProfile};
use mcdnn_sim::{
    serve_slo_digest_in, serve_slo_serial, slo_fleet, DispatchMode, SloArena, SloConfig, SloPolicy,
};

/// Two device-only and one cloud-capable profile, mirroring the shapes
/// the slo unit tests use.
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
        RateProfile::from_parts(
            "gamma",
            vec![0.0, 4.0, 7.0, 20.0],
            vec![120_000, 60_000, 20_000, 0],
            2.0,
            Some(vec![9.0, 6.0, 3.0, 0.0]),
        )
        .unwrap(),
    ]
}

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter has no effect on
// allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_slo_digest_run_allocates_nothing() {
    let config = SloConfig {
        requests_per_tenant: 80,
        overload: 4.0,
        ..SloConfig::default()
    };
    let fleet = slo_fleet(&profiles(), 12, &config);
    let cache = PlanCache::new();
    let mut arena = SloArena::new();

    // Cold run sizes every buffer (streams, heaps, pricing memo) and
    // warms the plan cache; a report run pins the digest the hot path
    // must keep reproducing.
    mcdnn_obs::set_enabled(true);
    let report = serve_slo_serial(&cache, &fleet, &config, SloPolicy::EdfDegrade).unwrap();
    let cold = serve_slo_digest_in(
        &mut arena,
        &cache,
        &fleet,
        &config,
        SloPolicy::EdfDegrade,
        DispatchMode::Indexed,
    )
    .unwrap();
    mcdnn_obs::set_enabled(false);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let warm = serve_slo_digest_in(
        &mut arena,
        &cache,
        &fleet,
        &config,
        SloPolicy::EdfDegrade,
        DispatchMode::Indexed,
    )
    .unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    mcdnn_obs::set_enabled(true);

    assert_eq!(warm, cold, "same fleet, same config, same digest");
    assert_eq!(warm, report.digest, "digest fold must match the report");
    assert_eq!(after - before, 0, "warm SLO dispatch must not allocate");
    let stats = arena.stats();
    assert!(stats.memo_hits > 0, "warm run must reuse the pricing memo");
}
