//! Named metrics with units, printed one per line and as the final
//! JSON result.

use std::fmt::Write as _;

use crate::clock;
use crate::timed::{self, Prepared, Timed};

#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("metric {name} = {value} {unit}");
        self.entries.push((name.to_string(), value, unit));
    }

    /// The last line of a run: `{"correct", "attempted", "failed",
    /// "metrics": {name: {"value", "unit"}}}`.
    pub fn result_json(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// The end-to-end metrics of an untraced run, plus diagnostics printed
/// beside them (not metrics: they show when the host, not the code,
/// moved a number). CPU times are rescaled to the nominal host speed by
/// the reference kernel measured alongside them.
pub fn end_to_end(p: &Prepared, run: &Timed, setups: &[(f64, f64)]) -> Metrics {
    let mut out = Metrics::new();
    let t = &run.totals;
    let scaled = run.scaled_call_ns();
    let mut sorted: Vec<u64> = scaled.iter().map(|&ns| ns as u64).collect();
    sorted.sort_unstable();
    let (tail_ns, tail_pct) = timed::tail(&sorted);
    let p50_ns = timed::median(&sorted);
    let mut raw: Vec<u64> = run.per_call_ns.iter().map(|&(c, w)| c + w).collect();
    raw.sort_unstable();
    let cpu_s = run.process_ns as f64 * 1e-9;
    let scaled_cpu_s = scaled.iter().sum::<f64>() * 1e-9;
    let raw_setups: Vec<f64> = setups.iter().map(|&(s, _)| s).collect();
    let scaled_setups: Vec<f64> = setups.iter().map(|&(s, k)| s * k).collect();

    out.put("req_per_cpu_s", t.units as f64 / scaled_cpu_s, "1/s");
    out.put("call_p50_ms", p50_ns as f64 * 1e-6, "ms");
    out.put("call_tail_ms", tail_ns as f64 * 1e-6, "ms");
    out.put("setup_s", timed::median_f64(&scaled_setups), "s");
    out.put("peak_rss_mb", clock::peak_rss_mb(), "MB");
    out.put("hit_rate", t.hits as f64 / t.units.max(1) as f64, "ratio");
    out.put(
        "virtual_mean_ms",
        t.latency_sum_ms / t.latency_weight.max(1) as f64,
        "ms",
    );

    println!(
        "info call_tail_ms is p{tail_pct:.2} (nearest rank) of {} per-call CPU samples",
        sorted.len()
    );
    println!(
        "info error_rate = {} ({} of {} calls failed)",
        p.failed as f64 / p.attempted.max(1) as f64,
        p.failed,
        p.attempted
    );
    if p.work.kind.is_slo() {
        println!(
            "info virtual_p50_ms = {} ms, virtual_p99_ms = {} ms (mean over calls of each call's exact percentile)",
            t.p50_sum_ms / t.calls.max(1) as f64,
            t.p99_sum_ms / t.calls.max(1) as f64
        );
    }
    println!(
        "info counts: calls={} units={} hits={} replans={} digest={:016x}",
        t.calls, t.units, t.hits, t.replans, t.digest
    );
    println!(
        "info raw cpu: {:.0} units per process cpu-s, call p50 {:.3} ms, tail {:.3} ms, setup {:.4} s; \
         reference kernel {:.0} ns (caller) {:.0} ns (worker) in the timed phase (nominal {:.0})",
        t.units as f64 / cpu_s,
        timed::median(&raw) as f64 * 1e-6,
        timed::tail(&raw).0 as f64 * 1e-6,
        timed::median_f64(&raw_setups),
        run.caller.median_ns(),
        run.worker.median_ns(),
        clock::KERNEL_REF_NS,
    );
    println!(
        "info host: wall rate {:.0} units/s, cpu {:.3} s over wall {:.3} s, host steal share {:.3}",
        t.units as f64 / (run.wall_ns as f64 * 1e-9),
        cpu_s,
        run.wall_ns as f64 * 1e-9,
        run.steal_share
    );
    println!("info set-ups (raw cpu s, host factor): {setups:?}");
    out
}
