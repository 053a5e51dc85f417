//! Baseline comparison: diff a fresh [`BenchReport`] against a committed
//! one with per-metric relative tolerance bands, and render the result as
//! a drift table.
//!
//! The simulator is deterministic, so a fresh run of unchanged code
//! reproduces its baseline *exactly*; the tolerance band exists to let
//! intentional small calibration changes land without a baseline churn,
//! while anything that moves a figure materially — or silently inverts an
//! ordering — fails the `bench regress` gate. Counter-like metrics (map
//! versions, repair counts, lock revokes) get zero tolerance: they are
//! exact protocol outcomes, not bandwidths.

use std::collections::BTreeMap;

use crate::report::BenchReport;

/// Relative tolerance applied per metric name.
#[derive(Clone, Debug)]
pub struct TolerancePolicy {
    /// Band for any metric without an override, e.g. 0.08 = ±8%.
    pub default_rel: f64,
    /// Per-metric overrides (exact counters use 0.0).
    pub per_metric: BTreeMap<String, f64>,
}

impl TolerancePolicy {
    /// The harness default: ±8% on bandwidth-like metrics, exact on
    /// protocol counters.
    pub fn standard() -> Self {
        let mut per_metric = BTreeMap::new();
        for counter in [
            "map_version",
            "chunks_repaired",
            "lock_revokes",
            "rot_extents",
            "reported",
            "repairs_ok",
            "bytes_equal",
            "media_clean",
            // traffic-sweep event counters: deterministic arrival
            // processes, so any change at all is a real behaviour change
            "arrivals",
            "completed",
            "failed",
            "engine_sheds",
            "breaker_fastfail",
            "retries_spent",
            "retries_denied",
            "logical_clients",
        ] {
            per_metric.insert(counter.to_string(), 0.0);
        }
        TolerancePolicy {
            default_rel: 0.08,
            per_metric,
        }
    }

    /// Tolerance band for one metric.
    pub fn rel_for(&self, metric: &str) -> f64 {
        self.per_metric
            .get(metric)
            .copied()
            .unwrap_or(self.default_rel)
    }
}

/// Why a drift row counts against the gate (or doesn't).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftStatus {
    /// Within the tolerance band.
    Ok,
    /// Relative drift beyond the band.
    Exceeded,
    /// Present in the baseline, absent from the fresh run (a series or
    /// metric was dropped — silently losing coverage is a failure).
    MissingInFresh,
    /// Present fresh, absent from the baseline (new coverage; update the
    /// baseline intentionally).
    MissingInBaseline,
}

impl DriftStatus {
    /// Whether this row fails the gate.
    pub fn is_violation(self) -> bool {
        self != DriftStatus::Ok
    }

    fn label(self) -> &'static str {
        match self {
            DriftStatus::Ok => "ok",
            DriftStatus::Exceeded => "EXCEEDED",
            DriftStatus::MissingInFresh => "MISSING-FRESH",
            DriftStatus::MissingInBaseline => "NEW-METRIC",
        }
    }
}

/// One (series, scale, metric) comparison.
#[derive(Clone, Debug)]
pub struct Drift {
    pub series: String,
    pub scale: u32,
    pub metric: String,
    pub baseline: Option<f64>,
    pub fresh: Option<f64>,
    /// Signed relative delta vs the baseline (0 when either side is
    /// missing).
    pub rel_delta: f64,
    /// Band the row was judged against.
    pub tol: f64,
    pub status: DriftStatus,
}

/// Compare a fresh report against its baseline cell-by-cell over the
/// union of both key sets.
pub fn compare(fresh: &BenchReport, baseline: &BenchReport, tol: &TolerancePolicy) -> Vec<Drift> {
    let mut keys: Vec<(String, u32, String)> = Vec::new();
    for (s, n, m, _) in baseline.cells() {
        keys.push((s.to_string(), n, m.to_string()));
    }
    for (s, n, m, _) in fresh.cells() {
        let k = (s.to_string(), n, m.to_string());
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys.sort();

    let mut out = Vec::new();
    for (series, scale, metric) in keys {
        let b = baseline.get(&series, scale, &metric);
        let f = fresh.get(&series, scale, &metric);
        let band = tol.rel_for(&metric);
        let (rel_delta, status) = match (b, f) {
            (Some(b), Some(f)) => {
                let rel = if b == f {
                    0.0 // covers 0 == 0 and exact reproduction
                } else if b.abs() > 0.0 {
                    (f - b) / b.abs()
                } else {
                    f64::INFINITY // baseline 0, fresh nonzero
                };
                let ok = rel.abs() <= band;
                (
                    rel,
                    if ok {
                        DriftStatus::Ok
                    } else {
                        DriftStatus::Exceeded
                    },
                )
            }
            (Some(_), None) => (0.0, DriftStatus::MissingInFresh),
            (None, Some(_)) => (0.0, DriftStatus::MissingInBaseline),
            (None, None) => unreachable!("key came from one of the reports"),
        };
        out.push(Drift {
            series,
            scale,
            metric,
            baseline: b,
            fresh: f,
            rel_delta,
            tol: band,
            status,
        });
    }
    out
}

/// Count of gate-failing rows.
pub fn violations(drifts: &[Drift]) -> usize {
    drifts.iter().filter(|d| d.status.is_violation()).count()
}

/// Render the drift table. With `verbose` false only violating rows (plus
/// a per-figure summary line) are shown; CI artifacts store the verbose
/// form.
pub fn format_drift_table(name: &str, drifts: &[Drift], verbose: bool) -> String {
    let mut s = String::new();
    let bad = violations(drifts);
    s.push_str(&format!(
        "-- {name}: {} metrics compared, {bad} violation(s) --\n",
        drifts.len()
    ));
    let shown: Vec<&Drift> = drifts
        .iter()
        .filter(|d| verbose || d.status.is_violation())
        .collect();
    if !shown.is_empty() {
        s.push_str(&format!(
            "{:<28} {:>5} {:<16} {:>12} {:>12} {:>8} {:>6}  {}\n",
            "series", "nodes", "metric", "baseline", "fresh", "drift%", "tol%", "status"
        ));
    }
    for d in shown {
        let fmt_opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.3}"),
            None => "-".to_string(),
        };
        let drift_pct = if d.rel_delta.is_finite() {
            format!("{:+.2}", d.rel_delta * 100.0)
        } else {
            "inf".to_string()
        };
        s.push_str(&format!(
            "{:<28} {:>5} {:<16} {:>12} {:>12} {:>8} {:>6.1}  {}\n",
            d.series,
            d.scale,
            d.metric,
            fmt_opt(d.baseline),
            fmt_opt(d.fresh),
            drift_pct,
            d.tol * 100.0,
            d.status.label()
        ));
    }
    s
}
