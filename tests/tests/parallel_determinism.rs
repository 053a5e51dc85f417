//! Schedule-independence of the parallel bench executor: the same slate
//! run at 1, 2 and 8 host threads must serialize to *byte-identical*
//! output. Seeds are confined to individual jobs and the reduction is
//! keyed by submission order, so thread count and OS scheduling must be
//! invisible in every artifact the gate compares.
//!
//! This file deliberately contains no `std::thread` / `crossbeam` usage
//! of its own (simlint D04) — all threading happens inside `daos-bench`'s
//! sanctioned executor.

use daos_bench::experiments::{run_selection, Cell, Experiment, Scale, SlateRun, REGISTRY};
use daos_bench::figures::{rot_timeline, FaultTimeline, RotTimeline};
use daos_placement::ObjectClass;

/// Every observable field of a rot timeline, as one comparable string.
fn rot_key(t: &RotTimeline) -> String {
    format!(
        "{:?}/{}/{}/{:.6}/{}/{}/{}/{}",
        t.class, t.mode, t.rot_extents, t.detect_ms, t.reported, t.repairs_ok, t.equal, t.clean
    )
}

/// Every observable field of a QoS cell, as one comparable string.
fn qos_key(c: &daos_bench::qos::QosCell) -> String {
    format!(
        "{}/{}/{:.6}/{:.6}/{:.6}/{:.6}/{:.6}/{:.6}/{:.6}/{:.6}/{:.6}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{:.6}/{:.6}",
        c.series,
        c.load_pct,
        c.victim_p50_us,
        c.victim_p99_us,
        c.noisy_p99_us,
        c.victim_goodput_mib_s,
        c.noisy_goodput_mib_s,
        c.victim_sat,
        c.noisy_sat,
        c.noisy_ent_share,
        c.jain,
        c.victim_arrivals,
        c.victim_completed,
        c.victim_failed,
        c.noisy_arrivals,
        c.noisy_completed,
        c.noisy_failed,
        c.engine_sheds,
        c.bg_bytes,
        c.bg_budget_bytes,
        c.victim_throttle_ms,
        c.noisy_throttle_ms,
    )
}

/// Every observable field of a fault timeline, as one comparable string.
fn fault_key(t: &FaultTimeline) -> String {
    format!(
        "{:?}/{}/{:.6}/{:.6}/{:.6}/{:.6}/{:.6}/{}/{}",
        t.class,
        t.client_nodes,
        t.write,
        t.healthy,
        t.during,
        t.rebuilt,
        t.reintegrated,
        t.map_version,
        t.chunks_repaired
    )
}

/// The fault, rot and QoS rows of a run, keyed, in job order.
fn rows(run: &SlateRun) -> (Vec<String>, Vec<String>, Vec<String>) {
    let (mut fault, mut rot, mut qos) = (Vec::new(), Vec::new(), Vec::new());
    for cell in run.runs.iter().flat_map(|r| &r.cells) {
        match cell {
            Cell::Fault(t) => fault.push(fault_key(t)),
            Cell::Rot(t) => rot.push(rot_key(t)),
            Cell::Qos(c) => qos.push(qos_key(c)),
            _ => {}
        }
    }
    (fault, rot, qos)
}

/// The whole registry at smoke scale — gate, nightly tier and studies:
/// every report byte-identical across thread counts, plus identical
/// timeline rows and job order.
#[test]
fn smoke_selection_is_byte_identical_across_thread_counts() {
    let selection: Vec<&Experiment> = REGISTRY.iter().collect();
    let base = run_selection(&selection, Scale::Smoke, 1);
    assert_eq!(base.runs.len(), REGISTRY.len());
    let json =
        |run: &SlateRun| -> Vec<String> { run.runs.iter().map(|r| r.report.to_json()).collect() };
    let labels =
        |run: &SlateRun| -> Vec<String> { run.timings.iter().map(|(l, _)| l.clone()).collect() };
    let base_rows = rows(&base);
    assert!(
        !base_rows.0.is_empty(),
        "smoke slate must produce fault rows"
    );
    assert!(!base_rows.1.is_empty(), "smoke slate must produce rot rows");
    assert!(
        !base_rows.2.is_empty(),
        "smoke slate must produce QoS cells"
    );

    for threads in [2usize, 8] {
        let run = run_selection(&selection, Scale::Smoke, threads);
        assert_eq!(
            json(&base),
            json(&run),
            "report JSON diverged between 1 and {threads} threads"
        );
        let (fault, rot, qos) = rows(&run);
        assert_eq!(
            base_rows.0, fault,
            "fault rows diverged at {threads} threads"
        );
        assert_eq!(base_rows.1, rot, "rot rows diverged at {threads} threads");
        assert_eq!(base_rows.2, qos, "QoS cells diverged at {threads} threads");
        assert_eq!(run.threads, threads);
        // timings are schedule-dependent by design, but the labels (the
        // submission order) must not be
        assert_eq!(
            labels(&base),
            labels(&run),
            "job order diverged at {threads} threads"
        );
    }
}

/// A rot timeline produced inside a slate job equals the directly-run
/// one: jobs get their own seeded sims, so where they run cannot matter.
#[test]
fn rot_timeline_matches_direct_run() {
    let direct = rot_timeline(ObjectClass::RP_2GX, true, 0x5C2B ^ 1);

    let mut slate = daos_bench::exec::Slate::new();
    slate.push("rot/RP_2GX/scrub", || {
        rot_timeline(ObjectClass::RP_2GX, true, 0x5C2B ^ 1)
    });
    let out = slate.run(4).expect("rot job");
    assert_eq!(out.len(), 1);
    assert_eq!(rot_key(&direct), rot_key(&out[0].value));
}

/// A noisy-neighbor QoS cell is a pure function of its `(series, load)`
/// point: two direct runs agree on every observable field, and so does
/// the same cell produced inside a multi-threaded slate job.
#[test]
fn qos_cell_is_deterministic_directly_and_under_the_slate() {
    use daos_bench::qos::{qos_point, QosSweepParams};
    let params = QosSweepParams::smoke();
    let load = params.loads[0];

    let a = qos_point(true, load, params);
    let b = qos_point(true, load, params);
    assert_eq!(qos_key(&a), qos_key(&b), "two runs of one cell diverged");

    let mut slate = daos_bench::exec::Slate::new();
    slate.push("qos/shaped/smoke", move || qos_point(true, load, params));
    let out = slate.run(4).expect("qos job");
    assert_eq!(out.len(), 1);
    assert_eq!(
        qos_key(&a),
        qos_key(&out[0].value),
        "slate-run cell diverged from the direct run"
    );
}
