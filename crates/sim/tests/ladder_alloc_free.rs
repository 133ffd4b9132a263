//! Allocation contract of the degradation ladder: a
//! [`ladder_decision`] performs **zero heap allocations**, and a
//! [`LadderFrontier::compile`] performs a fixed number — the same for
//! a one-layer profile as for one with many times the boundaries — so
//! no allocation happens per probe.
//!
//! The counting allocator's counter is thread-local: each test counts
//! only its own thread, whatever the parallel harness runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcdnn_profile::CostProfile;
use mcdnn_sim::{ladder_decision, LadderFrontier, LadderLevel};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates directly to `System`; the counter has no effect on
// allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `work` performs on this thread.
fn allocations_in<R>(work: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A clustered profile with `k` layers: enough distinct `f`/`g` pairs
/// that the boundary count grows roughly with `k²`.
fn profile(k: usize) -> CostProfile {
    let f = (0..=k).map(|l| (l * l) as f64 * 0.5 + l as f64).collect();
    let g = (0..=k).map(|l| ((k - l) * (k - l)) as f64 * 7.0).collect();
    CostProfile::from_vectors(format!("alloc-{k}"), f, g, None)
}

#[test]
fn ladder_decision_does_not_allocate() {
    let p = profile(8);
    let factors: Vec<f64> = (0..=200).map(|i| i as f64 / 200.0).collect();
    let mut levels = std::collections::BTreeSet::new();
    // Warm-up: registers every `degrade.*` counter name with obs.
    for &x in &factors {
        levels.insert(format!("{}", ladder_decision(&p, 20.0, 0.9, x, 6).level));
    }
    let (_, allocations) = allocations_in(|| {
        for &x in &factors {
            std::hint::black_box(ladder_decision(&p, 20.0, 0.9, x, 6));
        }
    });
    assert_eq!(
        allocations,
        0,
        "ladder_decision allocated over {} factors",
        factors.len()
    );
    assert!(
        levels.contains(&LadderLevel::MobileOnly.to_string()) && levels.len() >= 3,
        "the factor sweep should walk most rungs: {levels:?}"
    );
}

#[test]
fn compile_allocations_do_not_grow_with_boundaries() {
    let (small, large) = (profile(1), profile(12));
    // Warm-up: registers the `frontier.ladder.*` names with obs.
    LadderFrontier::compile(&small, 20.0, 0.9, 6);
    LadderFrontier::compile(&large, 20.0, 0.9, 6);
    let (s, small_allocs) = allocations_in(|| LadderFrontier::compile(&small, 20.0, 0.9, 6));
    let (l, large_allocs) = allocations_in(|| LadderFrontier::compile(&large, 20.0, 0.9, 6));
    assert!(
        l.num_boundaries() >= 4 * s.num_boundaries(),
        "profiles too alike: {} vs {} boundaries",
        l.num_boundaries(),
        s.num_boundaries()
    );
    assert_eq!(
        small_allocs,
        large_allocs,
        "compile allocations grew with the boundary count ({} → {} boundaries)",
        s.num_boundaries(),
        l.num_boundaries()
    );
}
