//! The process-global metrics registry.
//!
//! One registry per process, created lazily on first use. Whether it
//! records is controlled by the `MCDNN_OBS` environment variable at
//! creation (`0`, `off` or `false` disable it; anything else — or the
//! variable being unset — enables it) and by [`set_enabled`] at
//! runtime, which always wins over the environment.
//!
//! Every recording entry point ([`counter_add`], [`observe_ms`],
//! [`crate::span()`]) checks [`enabled`] — a single relaxed atomic load —
//! before touching the mutex-guarded maps, so instrumentation left in a
//! hot path costs one predictable branch when observability is off.
//!
//! Finished spans go into a fixed-capacity ring of 65,536 records: once
//! it is full, each new span drops the oldest one, and the number
//! dropped since the last [`reset`] appears in [`snapshot`] as the
//! `obs.spans_dropped` counter. Memory held by spans is bounded
//! however long a process records without draining.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::hist::Histogram;

/// One finished span: a named interval on the process monotonic clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Category (groups spans onto one trace "thread").
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Start, µs since the registry epoch (monotonic clock).
    pub ts_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// Spans the registry retains between drains (about 3 MB of records).
const SPAN_CAPACITY: usize = 65_536;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    /// Oldest first, at most [`SPAN_CAPACITY`] records.
    spans: VecDeque<SpanRecord>,
    /// Spans evicted from the full ring since the last reset.
    spans_dropped: u64,
}

impl Inner {
    fn record_span(&mut self, record: SpanRecord) {
        if self.spans.len() == SPAN_CAPACITY {
            self.spans.pop_front();
            self.spans_dropped += 1;
        }
        self.spans.push_back(record);
    }

    fn drain_spans(&mut self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.spans).into()
    }
}

pub(crate) struct Registry {
    enabled: AtomicBool,
    pub(crate) epoch: Instant,
    inner: Mutex<Inner>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn env_default_enabled() -> bool {
    match std::env::var("MCDNN_OBS") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v == "0" || v == "off" || v == "false")
        }
        Err(_) => true,
    }
}

pub(crate) fn global() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        enabled: AtomicBool::new(env_default_enabled()),
        epoch: Instant::now(),
        inner: Mutex::new(Inner::default()),
    })
}

/// Is the registry currently recording? One relaxed atomic load — this
/// is the whole cost of disabled instrumentation.
#[inline]
pub fn enabled() -> bool {
    global().enabled.load(Ordering::Relaxed)
}

/// Turn recording on or off at runtime (overrides `MCDNN_OBS`).
pub fn set_enabled(on: bool) {
    global().enabled.store(on, Ordering::Relaxed);
}

/// Add `delta` to the named counter. No-op while disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut inner = global().inner.lock().expect("obs registry poisoned");
    *inner.counters.entry(name).or_insert(0) += delta;
}

/// Current value of a counter (0 if never written).
pub fn counter_value(name: &str) -> u64 {
    let inner = global().inner.lock().expect("obs registry poisoned");
    inner.counters.get(name).copied().unwrap_or(0)
}

/// Record one observation into the named histogram. No-op while
/// disabled.
#[inline]
pub fn observe_ms(name: &'static str, value_ms: f64) {
    if !enabled() {
        return;
    }
    let mut inner = global().inner.lock().expect("obs registry poisoned");
    inner.hists.entry(name).or_default().observe(value_ms);
}

pub(crate) fn record_span(record: SpanRecord) {
    let mut inner = global().inner.lock().expect("obs registry poisoned");
    inner.record_span(record);
}

/// Remove and return every span the ring still holds (oldest first):
/// all spans recorded since the last drain, or the newest 65,536 of
/// them.
pub fn drain_spans() -> Vec<SpanRecord> {
    let mut inner = global().inner.lock().expect("obs registry poisoned");
    inner.drain_spans()
}

/// Clear all counters, histograms and spans (the enabled flag and the
/// epoch are kept). Front ends call this to scope a snapshot to one
/// command.
pub fn reset() {
    let mut inner = global().inner.lock().expect("obs registry poisoned");
    inner.counters.clear();
    inner.hists.clear();
    inner.spans.clear();
    inner.spans_dropped = 0;
}

/// A point-in-time copy of all counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram name → histogram, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

/// Snapshot the registry's counters and histograms, plus
/// `obs.spans_dropped` when the span ring has dropped any.
pub fn snapshot() -> MetricsSnapshot {
    let inner = global().inner.lock().expect("obs registry poisoned");
    let mut counters: Vec<(String, u64)> = inner
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    if inner.spans_dropped > 0 {
        let name = "obs.spans_dropped";
        let at = counters.partition_point(|(k, _)| k.as_str() < name);
        counters.insert(at, (name.to_string(), inner.spans_dropped));
    }
    MetricsSnapshot {
        counters,
        histograms: inner
            .hists
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    }
}

impl MetricsSnapshot {
    /// Value of a counter in this snapshot.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// A histogram in this snapshot.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Render the snapshot as a JSON document:
    /// `{"counters": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", crate::json::escape(name), value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", crate::json::escape(name));
            hist.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and the test harness runs tests in
    // parallel, so every test uses its own names and asserts on deltas.

    #[test]
    fn counters_accumulate() {
        set_enabled(true);
        let before = counter_value("test.registry.counter");
        counter_add("test.registry.counter", 2);
        counter_add("test.registry.counter", 3);
        assert_eq!(counter_value("test.registry.counter"), before + 5);
    }

    // Disabled-mode semantics live in `tests/disabled.rs` (their own
    // process): toggling the global flag here would race with the other
    // unit tests running in parallel threads.

    #[test]
    fn snapshot_contains_histograms() {
        set_enabled(true);
        observe_ms("test.registry.hist", 1.5);
        observe_ms("test.registry.hist", 2.5);
        let snap = snapshot();
        let h = snap.histogram("test.registry.hist").expect("recorded");
        assert!(h.count() >= 2);
        assert!(h.sum_ms() >= 4.0);
    }

    #[test]
    fn snapshot_json_round_trips() {
        set_enabled(true);
        counter_add("test.registry.json_counter", 7);
        observe_ms("test.registry.json_hist", 0.25);
        let json = snapshot().to_json();
        let parsed = crate::json::parse(&json).expect("valid JSON");
        let counters = parsed.get("counters").expect("counters key");
        assert!(counters.get("test.registry.json_counter").is_some());
        let hists = parsed.get("histograms").expect("histograms key");
        let h = hists.get("test.registry.json_hist").expect("histogram");
        assert!(h.get("count").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    }

    #[test]
    fn full_span_ring_keeps_the_newest_and_counts_drops() {
        // A local registry body: the global ring is shared with the
        // tests running beside this one.
        let mut inner = Inner::default();
        let extra = 1_000;
        for i in 0..SPAN_CAPACITY + extra {
            inner.record_span(SpanRecord {
                cat: "test",
                name: "ring",
                ts_us: i as f64,
                dur_us: 1.0,
            });
        }
        assert_eq!(inner.spans_dropped, extra as u64);
        let drained = inner.drain_spans();
        assert_eq!(drained.len(), SPAN_CAPACITY);
        for (i, s) in drained.iter().enumerate() {
            assert_eq!(s.ts_us, (extra + i) as f64, "newest spans, oldest first");
        }
        assert!(inner.drain_spans().is_empty());
    }

    #[test]
    fn spans_drain_in_order() {
        set_enabled(true);
        record_span(SpanRecord {
            cat: "test",
            name: "drain.a",
            ts_us: 1.0,
            dur_us: 2.0,
        });
        record_span(SpanRecord {
            cat: "test",
            name: "drain.b",
            ts_us: 5.0,
            dur_us: 1.0,
        });
        let drained = drain_spans();
        let ours: Vec<_> = drained
            .iter()
            .filter(|s| s.name.starts_with("drain."))
            .collect();
        assert_eq!(ours.len(), 2);
        assert_eq!(ours[0].name, "drain.a");
        assert_eq!(ours[1].name, "drain.b");
    }
}
