//! The bounded span ring through the public API, in its own process:
//! overflowing the process-global ring would drop the spans of the
//! crate's unit tests running beside it.

#[test]
fn overflowing_spans_are_dropped_counted_and_reset() {
    mcdnn_obs::set_enabled(true);
    mcdnn_obs::reset();
    assert_eq!(mcdnn_obs::snapshot().counter("obs.spans_dropped"), None);

    // Names on both sides of `obs.spans_dropped`.
    mcdnn_obs::counter_add("aa.ring", 1);
    mcdnn_obs::counter_add("zz.ring", 1);
    let recorded = 70_000u64;
    for _ in 0..recorded {
        let _s = mcdnn_obs::span("ring", "overflow");
    }
    let dropped = mcdnn_obs::snapshot()
        .counter("obs.spans_dropped")
        .expect("a full ring reports its drops");
    let drained = mcdnn_obs::drain_spans();
    assert!(dropped > 0 && !drained.is_empty());
    assert_eq!(drained.len() as u64 + dropped, recorded);
    assert!(
        drained.windows(2).all(|w| w[0].ts_us <= w[1].ts_us),
        "drained oldest first"
    );
    // The snapshot stays sorted by name with the drop count merged in.
    let names: Vec<_> = mcdnn_obs::snapshot()
        .counters
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(names, ["aa.ring", "obs.spans_dropped", "zz.ring"]);

    mcdnn_obs::reset();
    assert_eq!(mcdnn_obs::snapshot().counter("obs.spans_dropped"), None);
}
