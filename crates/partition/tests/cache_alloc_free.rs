//! Proof that warm [`mcdnn_partition::PlanCache`] hits are
//! allocation-free — on the sharded layout, the single-lock
//! (`with_shards(1)`) layout, a worker thread, and two caches used in
//! turn.
//!
//! Same counting-allocator technique as the `mcdnn-sim` arena test: a
//! thin `System` wrapper counts heap allocations around warm lookups.
//! A hit must cost a hash of the content bits, one shard read lock and
//! an `Arc` clone, never a key materialization (an earlier cache
//! allocated three `Vec`s per lookup, hit or miss).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mcdnn_partition::{PlanCache, RateProfile, Strategy};

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

fn rate_profile() -> RateProfile {
    RateProfile::from_parts(
        "alloc-free",
        vec![0.0, 4.0, 7.0, 20.0],
        vec![120_000, 60_000, 20_000, 0],
        2.0,
        None,
    )
    .unwrap()
}

/// Warm the given cache (forcing the obs registry's lazy init), then
/// count allocations across 100 further hits.
fn allocs_per_100_hits(cache: &PlanCache, rate: &RateProfile) -> u64 {
    mcdnn_obs::set_enabled(true);
    let warm = cache
        .frontier(rate, Strategy::JpsBestMix, 6, 0.1, 100.0)
        .unwrap();
    // One warm *hit* before measuring: the first bump of a counter
    // name registers it in the obs registry, which allocates once.
    let _ = cache
        .frontier(rate, Strategy::JpsBestMix, 6, 0.1, 100.0)
        .unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..100 {
        let hit = cache
            .frontier(rate, Strategy::JpsBestMix, 6, 0.1, 100.0)
            .unwrap();
        assert!(std::sync::Arc::ptr_eq(&warm, &hit));
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_cache_hits_allocate_nothing() {
    let rate = rate_profile();

    // Sharded layout on the submitting thread.
    let sharded = PlanCache::new();
    assert_eq!(
        allocs_per_100_hits(&sharded, &rate),
        0,
        "sharded hit must not allocate"
    );

    // Single-lock layout: the unsharded path is equally allocation-free.
    let single = PlanCache::with_shards(1);
    assert_eq!(
        allocs_per_100_hits(&single, &rate),
        0,
        "single-shard hit must not allocate"
    );

    // A worker thread with its own cache: the warm-up inside
    // `allocs_per_100_hits` covers any per-thread lazy init, and the
    // measured hits are again zero-allocation. The main thread blocks
    // in `join`, so the measured window sees only this thread.
    let worker = std::thread::spawn({
        let rate = rate.clone();
        move || allocs_per_100_hits(&PlanCache::new(), &rate)
    });
    assert_eq!(
        worker.join().expect("worker thread"),
        0,
        "worker-thread hits must not allocate"
    );

    // Alternating the same query between two caches: each hit finds
    // its entry in its own cache's shard, allocation-free.
    let left = PlanCache::new();
    let right = PlanCache::new();
    let fa = left.frontier(&rate, Strategy::Jps, 4, 0.1, 100.0).unwrap();
    let fb = right.frontier(&rate, Strategy::Jps, 4, 0.1, 100.0).unwrap();
    // Warm hits register the hit counter.
    let _ = left.frontier(&rate, Strategy::Jps, 4, 0.1, 100.0).unwrap();
    let _ = right.frontier(&rate, Strategy::Jps, 4, 0.1, 100.0).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..50 {
        let ha = left.frontier(&rate, Strategy::Jps, 4, 0.1, 100.0).unwrap();
        let hb = right.frontier(&rate, Strategy::Jps, 4, 0.1, 100.0).unwrap();
        assert!(std::sync::Arc::ptr_eq(&fa, &ha));
        assert!(std::sync::Arc::ptr_eq(&fb, &hb));
    }
    let shard_path = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(shard_path, 0, "alternating-cache hits must not allocate");
}
