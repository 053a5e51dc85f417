//! **The experiment driver**: runs entries of the experiment registry
//! ([`daos_bench::experiments`]) — the paper's Figures 1–2, the PFS
//! "stark contrast", the IO500 composite, the fault, scrub, overload,
//! QoS and beyond-paper scale sweeps, and the studies of the paper's
//! follow-up questions.
//!
//! ```text
//! bench run <name>... [--reduced] [--threads N]
//! bench regress [--update] [--compare-only] [--nightly] [--invert-r9]
//!               [--verbose] [--tol PCT] [--allow-dirty] [--threads N]
//! ```
//!
//! `bench run` runs the named experiments at full scale (`--reduced`: the
//! gate's scale) on one slate, prints each report as a table (Figures 1–2
//! add ASCII charts) followed by its `[PASS]`/`[FAIL]` checks, writes
//! `BENCH_<name>.json` to `$DAOS_BENCH_OUT` (else `results/` when run
//! from the repo root), and exits 1 if any check failed. Names:
//! `fig1_fpp fig2_shared pfs_contrast io500 fault_sweep scrub_sweep
//! traffic_sweep qos_sweep scale`, and the studies `oclass_sweep daos_api
//! protection_sweep dfuse_ablation mdtest_bench app_workloads` (one scale:
//! `--reduced` runs them whole).
//!
//! `bench regress` is the CI perf gate: every gate-tier experiment at
//! reduced scale on one slate, each fresh report diffed against
//! `results/baselines/`, plus every experiment's checks; nonzero exit on
//! any tolerance or check violation. The simulator is deterministic and
//! the slate reduces in job order, so an unchanged tree reproduces its
//! baselines exactly at any thread count.
//!
//! * `--nightly` adds the beyond-paper `scale` tier (64–512 nodes).
//!   Studies never join the gate.
//! * `--update` rewrites the baselines; it refuses a dirty working tree
//!   (baselines must be reproducible from a commit) unless `--allow-dirty`.
//! * `--compare-only` skips the simulations and re-diffs the reports a
//!   previous run left in the output dir; per-cell timeline checks need
//!   live cells and are skipped.
//! * `--invert-r9` swaps the QoS sweep's shaped/unshaped series before
//!   its checks — a planted failure proving the R9 gate can fail.
//! * `--tol PCT` sets the default drift tolerance; `--verbose` prints
//!   in-band metrics too.
//!
//! Fresh reports, the drift table, per-job wall times (`timing.txt`) and
//! the runner's own report (`BENCH_regress.json`) land in
//! `$DAOS_BENCH_OUT` (default `target/regress/`). `--threads N` (or
//! `BENCH_THREADS`) pins the slate width in both modes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;

use daos_bench::baseline::{compare, format_drift_table, violations, TolerancePolicy};
use daos_bench::exec;
use daos_bench::experiments::{lookup, regress_selection, run_selection, Scale, REGISTRY};
use daos_bench::report::BenchReport;
use daos_bench::{json_out_dir, Reporter};

const BASELINE_DIR: &str = "results/baselines";

fn usage() -> ! {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: bench run <name>... [--reduced] [--threads N]\n       \
         bench regress [--update] [--compare-only] [--nightly] [--invert-r9] [--verbose] \
         [--tol PCT] [--allow-dirty] [--threads N]\nexperiments: {}",
        names.join(" ")
    );
    exit(2);
}

fn main() {
    let mut args = exec::parse_threads_flag(std::env::args().skip(1).collect()).into_iter();
    match args.next().as_deref() {
        Some("run") => run(args.collect()),
        Some("regress") => regress(args.collect()),
        _ => usage(),
    }
}

fn run(args: Vec<String>) {
    let mut scale = Scale::Full;
    let mut selection = Vec::new();
    for a in &args {
        match a.as_str() {
            "--reduced" => scale = Scale::Reduced,
            name => selection.push(lookup(name).unwrap_or_else(|| {
                eprintln!("bench: unknown experiment or flag {name:?}");
                usage()
            })),
        }
    }
    if selection.is_empty() {
        usage();
    }
    let slate = run_selection(&selection, scale, exec::threads());
    for (label, secs) in &slate.timings {
        eprintln!("{secs:8.2}s  {label}");
    }
    let mut rep = Reporter::new("bench", 0);
    for mut run in slate.runs {
        let exp = run.experiment;
        exp.print(&run.report);
        println!("\n== {} checks ==", exp.name);
        exp.check(&mut rep, &run.report, &run.cells, scale);
        println!();
        run.report.wall_secs = run.secs;
        if let Some(dir) = json_out_dir() {
            match run.report.write_to(&dir) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write BENCH_{}.json: {e}", exp.name);
                    exit(1);
                }
            }
        }
    }
    if rep.failures() > 0 {
        eprintln!("{} check(s) failed", rep.failures());
        exit(1);
    }
}

fn out_dir() -> PathBuf {
    std::env::var("DAOS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/regress"))
}

/// Refuse to mint baselines from uncommitted state: a baseline is a
/// figure someone can reproduce by checking out the commit that shipped it.
fn require_clean_tree() {
    match std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
    {
        Ok(o) if o.status.success() => {
            let dirty = String::from_utf8_lossy(&o.stdout);
            let dirty = dirty.trim();
            if !dirty.is_empty() {
                eprintln!(
                    "regress: --update refused — the working tree has uncommitted changes:\n{dirty}"
                );
                eprintln!(
                    "regress: commit first so the new baselines are reproducible, or pass --allow-dirty"
                );
                exit(2);
            }
        }
        _ => eprintln!(
            "regress: warning: cannot check working-tree cleanliness (git unavailable); proceeding"
        ),
    }
}

fn regress(args: Vec<String>) {
    let (mut update, mut verbose, mut compare_only, mut nightly) = (false, false, false, false);
    let (mut allow_dirty, mut invert_r9) = (false, false);
    let mut tol = TolerancePolicy::standard();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--update" => update = true,
            "--verbose" => verbose = true,
            "--compare-only" => compare_only = true,
            "--nightly" => nightly = true,
            "--allow-dirty" => allow_dirty = true,
            "--invert-r9" => invert_r9 = true,
            "--tol" => {
                let pct: f64 = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("regress: bad --tol (percent)");
                    exit(2);
                });
                tol.default_rel = pct / 100.0;
            }
            other => {
                eprintln!("regress: unknown flag {other:?}");
                usage();
            }
        }
    }
    if update && compare_only {
        eprintln!("regress: --update needs a live sweep; drop --compare-only");
        exit(2);
    }
    if update && !allow_dirty {
        require_clean_tree();
    }

    // gating ledger for the checks; drift contributes separately
    let mut rep = Reporter::new("regress", 0);
    let out = out_dir();
    let selection = regress_selection(nightly);
    let mut runs = Vec::new();
    if compare_only {
        for &exp in &selection {
            let report = BenchReport::load(&out, exp.name).unwrap_or_else(|e| {
                eprintln!(
                    "regress: --compare-only needs a prior run's reports in {}: {e}",
                    out.display()
                );
                exit(2);
            });
            runs.push((exp, report, Vec::new()));
        }
    } else {
        let threads = exec::threads();
        eprintln!("regress: running the reduced slate on {threads} thread(s)...");
        let slate = run_selection(&selection, Scale::Reduced, threads);
        let speedup = slate.serial_secs / slate.elapsed_secs.max(1e-9);
        eprintln!(
            "regress: slate done — {} jobs, serial-equivalent {:.1}s, elapsed {:.1}s ({speedup:.2}x on {} thread(s))",
            slate.timings.len(),
            slate.serial_secs,
            slate.elapsed_secs,
            slate.threads,
        );
        // ---- persist fresh reports + runner timing for CI artifacts --
        let mut timing = String::new();
        let _ = writeln!(
            timing,
            "threads={} jobs={} serial_secs={:.3} elapsed_secs={:.3} speedup={speedup:.2}",
            slate.threads,
            slate.timings.len(),
            slate.serial_secs,
            slate.elapsed_secs,
        );
        for (label, secs) in &slate.timings {
            let _ = writeln!(timing, "{secs:10.3}s  {label}");
        }
        if let Err(e) = std::fs::create_dir_all(&out)
            .and_then(|_| std::fs::write(out.join("timing.txt"), &timing))
        {
            eprintln!("regress: cannot write timing.txt: {e}");
        }
        // runner provenance: the measured speedup is itself a tracked
        // artifact, so runner-overhead regressions show up in CI
        rep.record("runner", 0, "threads", slate.threads as f64);
        rep.record("runner", 0, "jobs", slate.timings.len() as f64);
        rep.record("runner", 0, "serial_secs", slate.serial_secs);
        rep.record("runner", 0, "elapsed_secs", slate.elapsed_secs);
        rep.record("runner", 0, "speedup", speedup);
        for mut run in slate.runs {
            // informational provenance: the experiment's serial-equivalent
            // wall time, never compared against baselines
            run.report.wall_secs = run.secs;
            if let Err(e) = run.report.write_to(&out) {
                eprintln!("regress: cannot write {}: {e}", out.display());
                exit(2);
            }
            runs.push((run.experiment, run.report, run.cells));
        }
    }

    if update {
        for (_, report, _) in &runs {
            match report.write_to(Path::new(BASELINE_DIR)) {
                Ok(path) => println!("baseline updated: {}", path.display()),
                Err(e) => {
                    eprintln!("regress: cannot write baseline: {e}");
                    exit(2);
                }
            }
        }
        println!("\nbaselines regenerated — commit {BASELINE_DIR}/BENCH_*.json");
        exit(0);
    }

    // ---- drift vs committed baselines --------------------------------
    let mut drift_text = String::new();
    let mut drift_violations = 0usize;
    println!(
        "== drift vs {BASELINE_DIR} (default tolerance ±{:.0}%) ==",
        tol.default_rel * 100.0
    );
    for (_, report, _) in &runs {
        match BenchReport::load(Path::new(BASELINE_DIR), &report.name) {
            Ok(base) => {
                if base.seed != report.seed || base.config_hash != report.config_hash {
                    println!(
                        "-- {}: provenance changed (seed {} -> {}, config_hash {:#x} -> {:#x}) — update baselines intentionally --",
                        report.name, base.seed, report.seed, base.config_hash, report.config_hash
                    );
                    drift_violations += 1;
                }
                let drifts = compare(report, &base, &tol);
                drift_violations += violations(&drifts);
                print!("{}", format_drift_table(&report.name, &drifts, verbose));
                drift_text.push_str(&format_drift_table(&report.name, &drifts, true));
            }
            Err(e) => {
                println!(
                    "-- {}: no baseline ({e}) — run `bench regress --update` and commit --",
                    report.name
                );
                drift_violations += 1;
            }
        }
    }
    let _ = std::fs::write(out.join("drift.txt"), &drift_text);

    // ---- every experiment's checks -----------------------------------
    if compare_only {
        println!("\n(per-cell timeline checks skipped: no live sweep in --compare-only)");
    }
    for (exp, report, cells) in &mut runs {
        if invert_r9 && exp.name == "qos_sweep" {
            // Swap the two series so a *correct* sweep reads as an
            // isolation inversion — the gate must exit nonzero or R9 is dead.
            println!("\n== {} checks [INVERTED SELF-TEST] ==", exp.name);
            let shaped = report.series.remove("shaped");
            let unshaped = report.series.remove("unshaped");
            if let Some(s) = shaped {
                report.series.insert("unshaped".to_string(), s);
            }
            if let Some(u) = unshaped {
                report.series.insert("shaped".to_string(), u);
            }
        } else {
            println!("\n== {} checks ==", exp.name);
        }
        exp.check(&mut rep, report, cells, Scale::Reduced);
    }

    // ---- verdict -----------------------------------------------------
    let check_failures = rep.failures();
    // the runner report (timing provenance) rides along as an artifact
    let runner_report = rep.into_report();
    if !compare_only {
        if let Err(e) = runner_report.write_to(&out) {
            eprintln!("regress: cannot write BENCH_regress.json: {e}");
        }
    }
    println!(
        "\nregress: {drift_violations} drift violation(s), {check_failures} invariant/shape failure(s)"
    );
    if drift_violations > 0 || check_failures > 0 {
        eprintln!(
            "regress: FAILED — see drift table above (artifacts in {})",
            out.display()
        );
        exit(1);
    }
    println!("regress: OK — figures match baselines and all invariants hold");
}
