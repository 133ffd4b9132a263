//! Test oracle: the allocating ladder the allocation-free kernel
//! replaced, kept verbatim (minus its observability counters) so the
//! differential tests can pin the kernel's tables bit for bit.
//!
//! Every probe rebuilds an effective profile `g / factor` through
//! `CostProfile::from_vectors` and re-runs the nominal
//! `best_cut_for_rate`; [`compile`] probes every boundary and every
//! interval, empty ones included. [`LadderFrontier`] mirrors the field
//! names and order of the real one, so the two derived `Debug` renders
//! compare field by field.
//!
//! Only `mcdnn_*` paths and `super::{LadderDecision, LadderLevel}` are
//! used, so the zoo sweep in `mcdnn-bench` includes this same file.

use mcdnn_flowshop::uniform_makespan;
use mcdnn_profile::CostProfile;

use super::{LadderDecision, LadderLevel};

/// The ladder tables as the oracle compiles them.
#[derive(Debug)]
#[allow(dead_code)] // read through the derived `Debug`
pub(crate) struct LadderFrontier {
    f: Vec<f64>,
    g: Vec<f64>,
    n_jobs: usize,
    healthy: LadderDecision,
    boundaries: Vec<f64>,
    at_boundary: Vec<LadderDecision>,
    below: Vec<LadderDecision>,
}

/// The best-cut search over a materialised profile.
pub(crate) fn best_cut_for_rate(
    profile: &CostProfile,
    rate_hz: f64,
    rho_limit: f64,
) -> Option<usize> {
    assert!(rate_hz > 0.0 && rho_limit > 0.0);
    let period = 1000.0 / rate_hz;
    let budget = rho_limit * period;
    let k = profile.k();
    let strictly_clustered = (1..=k).all(|l| {
        profile.f(l) >= profile.f(l - 1) && profile.g(l) <= profile.g(l - 1)
    });
    if !strictly_clustered {
        return (0..=k)
            .filter(|&l| profile.f(l).max(profile.g(l)) < budget)
            .min_by(|&a, &b| {
                let la = profile.f(a) + profile.g(a);
                let lb = profile.f(b) + profile.g(b);
                la.total_cmp(&lb).then(a.cmp(&b))
            });
    }
    let hi = partition_point_idx(k + 1, |l| profile.f(l) < budget);
    let lo = partition_point_idx(k + 1, |l| profile.g(l) >= budget);
    if lo >= hi {
        return None;
    }
    (lo..hi).min_by(|&a, &b| {
        let la = profile.f(a) + profile.g(a);
        let lb = profile.f(b) + profile.g(b);
        la.total_cmp(&lb).then(a.cmp(&b))
    })
}

fn partition_point_idx(len: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The effective profile `g / rate_factor` the oracle ladder plans on.
pub(crate) fn effective(profile: &CostProfile, rate_factor: f64) -> CostProfile {
    let k = profile.k();
    CostProfile::from_vectors(
        profile.name().to_string(),
        (0..=k).map(|l| profile.f(l)).collect(),
        (0..=k).map(|l| profile.g(l) / rate_factor).collect(),
        None,
    )
}

/// One ladder walk, rebuilding the effective profile per call.
pub(crate) fn ladder_decision(
    profile: &CostProfile,
    target_hz: f64,
    rho_limit: f64,
    rate_factor: f64,
    n_jobs: usize,
) -> LadderDecision {
    assert!(target_hz > 0.0 && rho_limit > 0.0);
    assert!((0.0..=1.0).contains(&rate_factor), "factor in [0, 1]");
    assert!(n_jobs >= 1, "need at least one job per burst");
    let k = profile.k();
    if rate_factor <= 0.0 {
        return LadderDecision {
            level: LadderLevel::MobileOnly,
            cut: k,
        };
    }
    let g_eff = |l: usize| profile.g(l) / rate_factor;
    let effective = effective(profile, rate_factor);
    let candidate = match best_cut_for_rate(&effective, target_hz, rho_limit) {
        Some(cut) => {
            let nominal = best_cut_for_rate(profile, target_hz, rho_limit);
            let level = if rate_factor >= 1.0 || nominal == Some(cut) {
                LadderLevel::Normal
            } else {
                LadderLevel::Replanned
            };
            LadderDecision { level, cut }
        }
        None => {
            let shifted = (0..=k)
                .min_by(|&a, &b| {
                    let ba = profile.f(a).max(g_eff(a));
                    let bb = profile.f(b).max(g_eff(b));
                    ba.total_cmp(&bb).then(b.cmp(&a))
                })
                .expect("profiles are non-empty");
            LadderDecision {
                level: LadderLevel::Shifted,
                cut: shifted,
            }
        }
    };
    let n = n_jobs as f64;
    let span = uniform_makespan(n_jobs, profile.f(candidate.cut), g_eff(candidate.cut));
    if span <= n * profile.f(k) {
        candidate
    } else {
        LadderDecision {
            level: LadderLevel::MobileOnly,
            cut: k,
        }
    }
}

/// The ladder tables, one oracle walk per boundary and per interval.
pub(crate) fn compile(
    profile: &CostProfile,
    target_hz: f64,
    rho_limit: f64,
    n_jobs: usize,
) -> LadderFrontier {
    assert!(target_hz > 0.0 && rho_limit > 0.0);
    assert!(n_jobs >= 1, "need at least one job per burst");
    let k = profile.k();
    let f: Vec<f64> = (0..=k).map(|l| profile.f(l)).collect();
    let g: Vec<f64> = (0..=k).map(|l| profile.g(l)).collect();
    let budget = rho_limit * 1000.0 / target_hz;
    let n = n_jobs as f64;
    let f_k = f[k];

    let mut raw: Vec<f64> = vec![1.0];
    for &gl in &g {
        if gl > 0.0 {
            raw.push(gl / budget);
        }
    }
    for a in 0..=k {
        for b in 0..=k {
            if a != b {
                let df = f[b] - f[a];
                let dg = g[a] - g[b];
                if df > 0.0 && dg > 0.0 {
                    raw.push(dg / df);
                }
            }
            if g[a] > 0.0 && f[b] > 0.0 {
                raw.push(g[a] / f[b]);
            }
        }
    }
    for c in 0..=k {
        if g[c] > 0.0 {
            let d_upload = n * f_k - f[c];
            if d_upload > 0.0 {
                raw.push(n * g[c] / d_upload);
            }
            let d_compute = n * (f_k - f[c]);
            if d_compute > 0.0 {
                raw.push(g[c] / d_compute);
            }
        }
    }

    let mut boundaries = Vec::with_capacity(raw.len() * 5 + 1);
    for x in raw {
        if !x.is_finite() || x <= 0.0 {
            continue;
        }
        let bits = x.to_bits();
        boundaries.push(x);
        boundaries.push(f64::from_bits(bits + 1));
        boundaries.push(f64::from_bits(bits + 2));
        if bits >= 2 {
            boundaries.push(f64::from_bits(bits - 1));
            boundaries.push(f64::from_bits(bits - 2));
        }
    }
    boundaries.retain(|x| *x > 0.0 && *x <= 1.0);
    boundaries.push(1.0);
    boundaries.sort_by(f64::total_cmp);
    boundaries.dedup();

    let mut at_boundary = Vec::with_capacity(boundaries.len());
    let mut below = Vec::with_capacity(boundaries.len());
    let mut prev = 0.0f64;
    for &b in &boundaries {
        at_boundary.push(ladder_decision(profile, target_hz, rho_limit, b, n_jobs));
        let mut mid = 0.5 * (prev + b);
        if mid <= prev || mid >= b {
            mid = b;
        }
        below.push(ladder_decision(profile, target_hz, rho_limit, mid, n_jobs));
        prev = b;
    }
    let healthy = *at_boundary.last().expect("1.0 is always a boundary");
    LadderFrontier {
        f,
        g,
        n_jobs,
        healthy,
        boundaries,
        at_boundary,
        below,
    }
}
