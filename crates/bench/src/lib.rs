//! # daos-bench — experiment harness for the paper's evaluation
//!
//! The [`experiments`] registry defines every figure and sweep the
//! findings of *DAOS as HPC Storage: Exploring Interfaces* (CLUSTER 2023)
//! rest on, and every follow-up study, once; the `bench` binary runs it
//! (`bench run <name>`, `bench regress`), and `daosctl` drives ad-hoc
//! runs. This library holds the shared machinery:
//!
//! * [`ExperimentPoint`] — one (api, object class, client-node count) cell;
//! * [`exec`] — the deterministic parallel job runner: an ordered
//!   [`exec::Slate`] of `(label, seeded closure)` jobs fanned across host
//!   threads with results reduced **in submission order**, so every
//!   artifact is byte-identical at any thread count (`--threads` /
//!   `BENCH_THREADS`; `1` = serial);
//! * [`figures`] — the seeded cell runners the registry's jobs call (one
//!   deterministic `Sim` per cell — simulations are independent, so this
//!   is the embarrassingly parallel axis);
//! * [`Reporter`] — ledger: records metrics into a schema-versioned
//!   [`report::BenchReport`] (written as `BENCH_<name>.json`) and counts
//!   PASS/FAIL shape checks, which gate `bench`'s exit code;
//! * [`baseline`] — tolerance-band comparison against committed baselines;
//! * [`invariants`] — the paper's qualitative results (R1–R11, R2x, R5x)
//!   as machine-checked predicates;
//! * table emission and a terminal ASCII chart so the figure's *shape* is
//!   visible without leaving the shell.

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which carries `deny`): see simlint rule D05.
#![forbid(unsafe_code)]

use std::path::PathBuf;

use daos_core::ClusterConfig;
use daos_dfs::DfsConfig;
use daos_dfuse::DfuseConfig;
use daos_ior::{run, Api, DaosTestbed, IorParams, IorReport};
use daos_placement::ObjectClass;
use daos_sim::Sim;

pub mod baseline;
pub mod exec;
pub mod experiments;
pub mod figures;
pub mod invariants;
pub mod qos;
pub mod report;
pub mod traffic;

use report::BenchReport;

/// One cell of a figure: a full IOR run at one scale.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentPoint {
    pub api: Api,
    pub oclass: ObjectClass,
    pub client_nodes: u32,
}

/// A measured cell.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub point: ExperimentPoint,
    pub report: IorReport,
}

impl Measurement {
    /// Series label as it would appear in the paper's legend.
    pub fn series(&self) -> String {
        format!("{}-{}", self.point.api.name(), self.point.oclass)
    }
}

/// The paper's testbed parameters for one sweep point.
pub fn paper_cluster(client_nodes: u32) -> ClusterConfig {
    ClusterConfig::nextgenio(client_nodes)
}

/// The paper's IOR parameters (bulk I/O: 1 MiB transfers).
pub fn paper_params(api: Api, oclass: ObjectClass, fpp: bool, ppn: u32) -> IorParams {
    let mut p = IorParams::paper_default(api, oclass, fpp, ppn);
    p.block_size = 32 << 20;
    p
}

/// Execute one point in a fresh simulation (deterministic per point);
/// phase times are averaged over `repeats` placements (distinct seeds ->
/// distinct placements, like IOR's `-i` iterations in the paper's runs).
/// The figure and sweep cells pass [`paper_params`]; the determinism
/// regression test keeps the exact same machinery (salted testbed,
/// per-repeat seed derivation) at a smaller I/O volume.
pub fn run_point_with(
    point: ExperimentPoint,
    params: IorParams,
    seed: u64,
    repeats: u64,
) -> Measurement {
    run_point_in(
        paper_cluster(point.client_nodes),
        point,
        params,
        seed,
        repeats,
    )
}

/// [`run_point_with`] on an explicit testbed: the paper-figure cells use
/// [`paper_cluster`]; the beyond-paper scale sweep weak-scales the
/// server side alongside the client axis.
pub fn run_point_in(
    cluster: ClusterConfig,
    point: ExperimentPoint,
    params: IorParams,
    seed: u64,
    repeats: u64,
) -> Measurement {
    let mut acc: Option<IorReport> = None;
    for it in 0..repeats {
        let mut sim = Sim::new(seed ^ ((point.client_nodes as u64) << 32) ^ (it << 56));
        let report = sim.block_on(move |sim| async move {
            let env = DaosTestbed::setup_salted(
                &sim,
                cluster,
                DfsConfig::default(),
                DfuseConfig::default(),
                it,
            )
            .await
            .expect("testbed setup");
            run(&sim, &env, params).await.expect("ior run")
        });
        acc = Some(match acc {
            None => report,
            Some(a) => IorReport {
                write_time: a.write_time + report.write_time,
                read_time: a.read_time + report.read_time,
                ..a
            },
        });
    }
    let mut report = acc.unwrap();
    report.write_time = report.write_time / repeats;
    report.read_time = report.read_time / repeats;
    Measurement { point, report }
}

/// Print a report as CSV, one `series,scale,<metrics>` header per run of
/// rows sharing a metric set (integral values without decimals).
pub fn print_table(report: &BenchReport) {
    println!("# {}", report.name);
    let mut header = String::new();
    for (series, scales) in &report.series {
        for (scale, metrics) in scales {
            let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let names = names.join(",");
            if names != header {
                println!("series,scale,{names}");
                header = names;
            }
            let values: Vec<String> = metrics
                .values()
                .map(|&v| {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        format!("{v:.0}")
                    } else {
                        format!("{v:.3}")
                    }
                })
                .collect();
            println!("{series},{scale},{}", values.join(","));
        }
    }
}

/// Render a rough ASCII chart of a figure report's read or write
/// bandwidth (one row per series per scale).
pub fn print_ascii_chart(title: &str, report: &BenchReport, read: bool) {
    let metric = if read { "read_gib_s" } else { "write_gib_s" };
    let max = report
        .cells()
        .iter()
        .filter(|c| c.2 == metric)
        .fold(0.0f64, |a, c| a.max(c.3))
        .max(1e-9);
    println!("\n== {title} ({}) ==", if read { "read" } else { "write" });
    for (series, scales) in &report.series {
        println!("{series}");
        for (nodes, metrics) in scales {
            let Some(&bw) = metrics.get(metric) else {
                continue;
            };
            let bar = "#".repeat(((bw / max) * 50.0).round() as usize);
            println!("  {nodes:>3} nodes | {bar:<50} {bw:7.2} GiB/s");
        }
    }
}

/// Reporting ledger: metrics accumulate into a [`BenchReport`], shape
/// checks print PASS/FAIL lines and count failures, which the `bench`
/// binary turns into a nonzero exit.
pub struct Reporter {
    report: BenchReport,
    failed: u64,
    start: std::time::Instant,
}

impl Reporter {
    /// New ledger for the benchmark `name`, stamped with its root seed.
    pub fn new(name: &str, seed: u64) -> Reporter {
        Reporter {
            report: BenchReport::new(name, seed),
            failed: 0,
            // simlint: allow(D02) wall-time provenance stamp for BENCH_<name>.json; never feeds back into the simulation
            start: std::time::Instant::now(),
        }
    }

    /// Record one metric value directly.
    pub fn record(&mut self, series: &str, scale: u32, metric: &str, value: f64) {
        self.report.record(series, scale, metric, value);
    }

    /// Shape assertion against the paper's qualitative results; prints
    /// PASS/FAIL rather than panicking, and counts failures so the caller
    /// can gate CI on them.
    pub fn check(&mut self, label: &str, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        println!("[{}] {label}", if ok { "PASS" } else { "FAIL" });
    }

    /// Number of failed checks so far.
    pub fn failures(&self) -> u64 {
        self.failed
    }

    /// Stamp the wall time and hand back the report (used by `bench
    /// regress`, which aggregates several reports before deciding its
    /// exit code).
    pub fn into_report(mut self) -> BenchReport {
        self.report.wall_secs = self.start.elapsed().as_secs_f64();
        self.report
    }
}

/// Where `bench run` drops its `BENCH_<name>.json`: `$DAOS_BENCH_OUT` if
/// set (empty: nowhere), else `results/` if that directory exists (i.e.
/// when run from the repo root), else nowhere.
pub fn json_out_dir() -> Option<PathBuf> {
    if let Ok(dir) = std::env::var("DAOS_BENCH_OUT") {
        if dir.is_empty() {
            return None; // explicit opt-out
        }
        return Some(PathBuf::from(dir));
    }
    let results = PathBuf::from("results");
    results.is_dir().then_some(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_sim::time::SimDuration;

    fn meas(api: Api, class: ObjectClass, nodes: u32, wr: f64, rd: f64) -> Measurement {
        let gib = (1u64 << 30) as f64;
        Measurement {
            point: ExperimentPoint {
                api,
                oclass: class,
                client_nodes: nodes,
            },
            report: IorReport {
                ranks: nodes * 16,
                client_nodes: nodes,
                total_bytes: 1 << 30,
                bytes_written: 1 << 30,
                bytes_read: 1 << 30,
                write_time: SimDuration::from_secs_f64(1.0 / wr * (1u64 << 30) as f64 / gib),
                read_time: SimDuration::from_secs_f64(1.0 / rd * (1u64 << 30) as f64 / gib),
            },
        }
    }

    #[test]
    fn series_labels_match_paper_legend() {
        let m = meas(Api::Dfs, ObjectClass::S2, 4, 10.0, 20.0);
        assert_eq!(m.series(), "DFS-S2");
        let m = meas(Api::Hdf5, ObjectClass::SX, 4, 1.0, 1.0);
        assert_eq!(m.series(), "HDF5-SX");
    }

    #[test]
    fn paper_params_are_bulk_io() {
        let p = paper_params(Api::Dfs, ObjectClass::S2, true, 16);
        assert_eq!(p.transfer_size, 1 << 20);
        assert_eq!(p.block_size % p.transfer_size, 0);
        assert!(p.file_per_process);
    }

    #[test]
    fn reporter_counts_failures_and_records() {
        let mut rep = Reporter::new("unit", 7);
        rep.check("passes", true);
        rep.check("fails", false);
        rep.record("s", 4, "write_gib_s", 12.5);
        assert_eq!(rep.failures(), 1);
        let report = rep.into_report();
        assert_eq!(report.get("s", 4, "write_gib_s"), Some(12.5));
        assert_eq!(report.name, "unit");
        assert_eq!(report.seed, 7);
    }
}
