//! Figure and study cells: one seeded simulation each, run by the
//! experiment registry ([`crate::experiments`]).
//!
//! Each function here runs exactly one cell — an IOR sweep point's
//! grid, a PFS or DAOS contrast run, the IO500 composite, a fault or
//! bit-rot timeline, a checksum-overhead point, a protection or DFuse
//! ablation point, an mdtest storm, an application workload — at
//! caller-chosen parameters and returns (or records) its numbers. Which cells make up
//! an experiment, at which scale, and how they are checked lives in the
//! registry, once.

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient, RetryPolicy};
use daos_dfs::{Dfs, DfsConfig};
use daos_dfuse::{DfuseConfig, DfuseMount};
use daos_ior::{mdtest, mdtest_pfs, run, run_pfs, Api, DaosTestbed, IorParams, IorReport};
use daos_ior::{MdBackend, MdtestReport};
use daos_pfs::{Pfs, PfsConfig};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::executor::join_all;
use daos_sim::fault::FaultAction;
use daos_sim::time::SimDuration;
use daos_sim::units::{gib_per_sec, KIB, MIB};
use daos_sim::Sim;
use daos_vos::Payload;
use daos_workloads::{checkpoint, nwp, producer_consumer, Access, RankAccess};
use daos_workloads::{WorkloadParams, WorkloadReport};

use crate::report::Record;
use crate::{paper_cluster, paper_params, ExperimentPoint};

/// Averaged placements per point at full scale (IOR `-i`).
pub const FULL_REPEATS: u64 = 5;
/// Placements per point at reduced scale. One is enough for the CI
/// gate: the sim is deterministic, so repeats only widen the placement
/// average, and the tolerance bands absorb that difference.
pub const REDUCED_REPEATS: u64 = 1;

/// Processes per client node in every figure sweep (the paper's layout).
pub const PPN: u32 = 16;

/// Cross product of the paper's interface × object-class grid.
pub fn grid_points(apis: &[Api], classes: &[ObjectClass], nodes: &[u32]) -> Vec<ExperimentPoint> {
    let mut points = Vec::new();
    for &api in apis {
        for &oclass in classes {
            for &n in nodes {
                points.push(ExperimentPoint {
                    api,
                    oclass,
                    client_nodes: n,
                });
            }
        }
    }
    points
}

/// The three interfaces of Figures 1 and 2.
pub fn figure_apis() -> [Api; 3] {
    [Api::Dfs, Api::Mpiio { collective: false }, Api::Hdf5]
}

/// The three object classes of Figures 1 and 2.
pub fn figure_classes() -> [ObjectClass; 3] {
    [ObjectClass::S1, ObjectClass::S2, ObjectClass::SX]
}

/// Figure 1's root seed (each cell salts it with scale and repeat).
pub const FIG1_SEED: u64 = 0xF161;
/// Figure 2's root seed.
pub const FIG2_SEED: u64 = 0xF162;

/// Weak-scaled testbed past the paper: hold the paper's 2:1
/// client:server node ratio (16 clients on 8 servers) as the client axis
/// grows, so every engine stays in the per-engine load regime the model
/// was calibrated in. A fixed 8-server testbed under 512 client nodes
/// measures nothing but unbounded queueing — every RPC deadline is
/// reachable — which is a traffic_sweep result, not a scaling one.
pub fn scale_cluster(client_nodes: u32) -> ClusterConfig {
    let mut c = paper_cluster(client_nodes);
    c.server_nodes = (client_nodes / 2).max(8);
    c
}

// ---------------------------------------------------------------------
// PFS contrast
// ---------------------------------------------------------------------

/// One PFS cell: IOR on the Lustre-like filesystem, returning the run
/// report and the LDLM extent-lock revoke count.
pub(crate) fn pfs_point(
    seed: u64,
    nodes: u32,
    fpp: bool,
    block: u64,
    ppn: u32,
) -> (IorReport, u64) {
    let mut sim = Sim::new(seed ^ nodes as u64);
    sim.block_on(move |sim| async move {
        let fs = Pfs::build(PfsConfig {
            client_nodes: nodes,
            stripe_count: 4,
            ..Default::default()
        });
        let mut p = paper_params(Api::Posix { il: false }, ObjectClass::S1, fpp, ppn);
        p.block_size = block;
        let r = run_pfs(&sim, &fs, p).await.expect("pfs run");
        (r, fs.stats().revokes)
    })
}

/// One DAOS cell of the contrast experiment (DFS, SX).
pub(crate) fn daos_point(seed: u64, nodes: u32, fpp: bool, block: u64, ppn: u32) -> IorReport {
    let mut sim = Sim::new(seed ^ nodes as u64);
    sim.block_on(move |sim| async move {
        let env = DaosTestbed::setup(
            &sim,
            paper_cluster(nodes),
            DfsConfig::default(),
            DfuseConfig::default(),
        )
        .await
        .expect("testbed");
        let mut p = paper_params(Api::Dfs, ObjectClass::SX, fpp, ppn);
        p.block_size = block;
        run(&sim, &env, p).await.expect("daos run")
    })
}

// ---------------------------------------------------------------------
// IO500-style composite
// ---------------------------------------------------------------------

/// ior-easy + ior-hard + mdtest-easy at one scale, combined with the
/// IO500 geometric mean; every phase rate and score is recorded at
/// scale `nodes`.
pub fn io500_point(report: &mut impl Record, seed: u64, nodes: u32, ppn: u32, block: u64) {
    let mut sim = Sim::new(seed);
    let (easy, hard, md) = sim.block_on(move |sim| async move {
        let env = DaosTestbed::setup(
            &sim,
            paper_cluster(nodes),
            DfsConfig::default(),
            DfuseConfig::default(),
        )
        .await
        .expect("testbed");
        // ior-easy: file-per-process, free choice of class -> S2
        let easy = run(&sim, &env, {
            let mut p = paper_params(Api::Dfs, ObjectClass::S2, true, ppn);
            p.block_size = block;
            p
        })
        .await
        .expect("ior easy");
        // ior-hard: single shared file -> SX
        let hard = run(&sim, &env, {
            let mut p = paper_params(Api::Dfs, ObjectClass::SX, false, ppn);
            p.block_size = block;
            p
        })
        .await
        .expect("ior hard");
        // mdtest-easy through the native DFS API
        let md = mdtest(&sim, &env, MdBackend::Dfs, ppn, 48)
            .await
            .expect("mdtest");
        (easy, hard, md)
    });

    let geo = |vals: &[f64]| (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp();
    let bw_score = geo(&[
        easy.write_gib_s(),
        easy.read_gib_s(),
        hard.write_gib_s(),
        hard.read_gib_s(),
    ]);
    let md_score = geo(&[
        md.creates_per_s() / 1000.0,
        md.stats_per_s() / 1000.0,
        md.unlinks_per_s() / 1000.0,
    ]);
    let total = (bw_score * md_score).sqrt();

    report.record("ior-easy", nodes, "write_gib_s", easy.write_gib_s());
    report.record("ior-easy", nodes, "read_gib_s", easy.read_gib_s());
    report.record("ior-hard", nodes, "write_gib_s", hard.write_gib_s());
    report.record("ior-hard", nodes, "read_gib_s", hard.read_gib_s());
    report.record("mdtest", nodes, "create_kiops", md.creates_per_s() / 1000.0);
    report.record("mdtest", nodes, "stat_kiops", md.stats_per_s() / 1000.0);
    report.record("mdtest", nodes, "unlink_kiops", md.unlinks_per_s() / 1000.0);
    report.record("score", nodes, "bw_gib_s", bw_score);
    report.record("score", nodes, "md_kiops", md_score);
    report.record("score", nodes, "io500", total);
}

// ---------------------------------------------------------------------
// Fault timeline (engine crash / exclude / rebuild / reintegrate)
// ---------------------------------------------------------------------

/// Engine to kill in the fault timeline: outside the pool-service replica
/// set (engines 0..3 on the paper testbed).
pub const FAULT_VICTIM: usize = 5;

/// Bandwidths along the failure timeline, GiB/s.
pub struct FaultTimeline {
    pub class: ObjectClass,
    pub client_nodes: u32,
    pub write: f64,
    pub healthy: f64,
    pub during: f64,
    pub rebuilt: f64,
    pub reintegrated: f64,
    pub map_version: u32,
    pub chunks_repaired: u64,
}

/// Run the engine-failure timeline for one object class: healthy write +
/// read, crash, degraded reads, rebuild, reintegration.
pub fn fault_timeline(
    seed: u64,
    class: ObjectClass,
    nodes: u32,
    ppn: u32,
    per_rank: u64,
) -> FaultTimeline {
    let mut sim = Sim::new(seed);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, paper_cluster(nodes));
        let ranks = nodes * ppn;
        let clients: Vec<_> = (0..nodes)
            .map(|n| {
                DaosClient::new(Rc::clone(&cluster), n).with_retry(RetryPolicy {
                    // above healthy queueing delay at this load, small
                    // enough that a dead engine doesn't stall the sweep
                    rpc_timeout: SimDuration::from_ms(50),
                    base_backoff: SimDuration::from_ms(1),
                    max_backoff: SimDuration::from_ms(16),
                    max_attempts: 40,
                    ..RetryPolicy::default()
                })
            })
            .collect();
        let pool = clients[0].connect(&sim).await.expect("connect");
        pool.create_container(&sim, 1).await.expect("container");
        // a container handle per client node so traffic originates from
        // every client rail, as in the IOR runs
        let mut conts = Vec::new();
        for c in &clients {
            let p = c.connect(&sim).await.expect("connect");
            conts.push(p.open_container(&sim, 1).await.expect("open"));
        }
        let arrays: Vec<_> = (0..ranks)
            .map(|r| {
                conts[(r / ppn) as usize]
                    .object(ObjectId::new(0xFA, r as u64), class)
                    .array(MIB)
            })
            .collect();

        // healthy write
        let t0 = sim.now();
        let futs: Vec<_> = arrays
            .iter()
            .enumerate()
            .map(|(r, a)| {
                let a = a.clone();
                let sim = sim.clone();
                async move {
                    for k in 0..per_rank / MIB {
                        a.write(&sim, k * MIB, Payload::pattern(r as u64, MIB))
                            .await
                            .expect("write");
                    }
                }
            })
            .collect();
        join_all(&sim, futs).await;
        let write = gib_per_sec(ranks as u64 * per_rank, (sim.now() - t0).as_secs_f64());

        let read_all = |sim: Sim, arrays: Vec<daos_core::ArrayHandle>| async move {
            let t0 = sim.now();
            let futs: Vec<_> = arrays
                .into_iter()
                .map(|a| {
                    let sim = sim.clone();
                    async move {
                        for k in 0..per_rank / MIB {
                            a.read(&sim, k * MIB, MIB).await.expect("read");
                        }
                    }
                })
                .collect();
            join_all(&sim, futs).await;
            gib_per_sec(ranks as u64 * per_rank, (sim.now() - t0).as_secs_f64())
        };

        let healthy = read_all(sim.clone(), arrays.clone()).await;

        // the engine dies; reads immediately after ride timeouts, replica
        // failover / EC reconstruction, then the heartbeat exclusion
        cluster.apply_fault(&sim, FaultAction::Crash { node: FAULT_VICTIM });
        let during = read_all(sim.clone(), arrays.clone()).await;

        // wait for the exclusion to commit and the rebuild to drain
        while cluster.pool_map().version() == 1 {
            clients[0].refresh_pool_map(&sim).await;
            sim.sleep_ms(5).await;
        }
        cluster.quiesce_rebuild(&sim).await;
        let rebuilt = read_all(sim.clone(), arrays.clone()).await;

        // bring the engine back and reintegrate its targets
        cluster.apply_fault(&sim, FaultAction::Restart { node: FAULT_VICTIM });
        let tpe = cluster.cfg.targets_per_engine;
        let targets: Vec<u32> =
            (FAULT_VICTIM as u32 * tpe..(FAULT_VICTIM as u32 + 1) * tpe).collect();
        clients[0]
            .control(&sim, daos_core::Request::PoolReintegrate { targets })
            .await
            .expect("reintegrate");
        clients[0].refresh_pool_map(&sim).await;
        cluster.quiesce_rebuild(&sim).await;
        let reintegrated = read_all(sim.clone(), arrays).await;
        let map_version = cluster.pool_map().version();

        FaultTimeline {
            class,
            client_nodes: nodes,
            write,
            healthy,
            during,
            rebuilt,
            reintegrated,
            map_version,
            chunks_repaired: cluster.rebuild_stats().chunks_repaired,
        }
    })
}

/// Record one fault timeline into a report (series = object class).
pub fn record_fault_timeline(report: &mut impl Record, t: &FaultTimeline) {
    let s = t.class.to_string();
    let n = t.client_nodes;
    report.record(&s, n, "write_gib_s", t.write);
    report.record(&s, n, "read_healthy", t.healthy);
    report.record(&s, n, "read_during_failure", t.during);
    report.record(&s, n, "read_after_rebuild", t.rebuilt);
    report.record(&s, n, "read_after_reintegration", t.reintegrated);
    report.record(&s, n, "map_version", t.map_version as f64);
    report.record(&s, n, "chunks_repaired", t.chunks_repaired as f64);
}

/// The timeline shape checks every fault-sweep run must satisfy,
/// against a shared [`crate::Reporter`] so full and reduced runs gate
/// identically.
pub fn check_fault_timeline(rep: &mut crate::Reporter, t: &FaultTimeline) {
    rep.check(
        &format!(
            "{}: failure detected, exclusion committed, data repaired",
            t.class
        ),
        t.map_version >= 2 && t.chunks_repaired > 0,
    );
    rep.check(
        &format!(
            "{}: reads survive the failure window (degraded vs healthy)",
            t.class
        ),
        t.during > 0.0 && t.during < t.healthy,
    );
    rep.check(
        &format!(
            "{}: post-rebuild bandwidth recovers to >60% of healthy",
            t.class
        ),
        t.rebuilt > 0.6 * t.healthy,
    );
    rep.check(
        &format!(
            "{}: reintegration restores >60% of healthy bandwidth",
            t.class
        ),
        t.reintegrated > 0.6 * t.healthy,
    );
}

// ---------------------------------------------------------------------
// Integrity timeline (checksum overhead + bit-rot detection)
// ---------------------------------------------------------------------

/// One IOR run (easy = file-per-process 1 MiB, hard = shared 64 KiB)
/// with the checksum engine on or off; scrubber disabled so the ratio
/// isolates the verify-on-write / csum-on-fetch cost. Returns
/// (write GiB/s, read GiB/s).
pub fn csum_overhead_point(
    seed: u64,
    csum: bool,
    fpp: bool,
    nodes: u32,
    ppn: u32,
    block: u64,
) -> (f64, f64) {
    let mut sim = Sim::new(seed);
    sim.block_on(move |sim| async move {
        let mut cfg = paper_cluster(nodes);
        cfg.engine.vos.csum_enabled = csum;
        cfg.engine.scrub_interval = None;
        let env = DaosTestbed::setup(&sim, cfg, DfsConfig::default(), DfuseConfig::default())
            .await
            .expect("testbed");
        let mut p = IorParams::paper_default(Api::Dfs, ObjectClass::S2, fpp, ppn);
        p.block_size = block;
        if !fpp {
            p.transfer_size = 64 * KIB;
        }
        let r = run(&sim, &env, p).await.expect("ior");
        (r.write_gib_s(), r.read_gib_s())
    })
}

/// One rot-injection timeline measurement.
pub struct RotTimeline {
    pub class: ObjectClass,
    pub mode: &'static str,
    pub rot_extents: u64,
    pub detect_ms: f64,
    pub reported: u64,
    pub repairs_ok: u64,
    /// Every byte read back equal to what was written.
    pub equal: bool,
    /// The rotted target verifies clean after repairs (scrub mode only:
    /// client-triggered repair only heals the copies reads chose).
    pub clean: bool,
}

/// Write 2 MiB at full redundancy, rot every extent on the busiest
/// target, then detect either through a client read (`scrub = false`) or
/// by leaving the cluster idle so only the background scrubber can find
/// it (`scrub = true`).
pub fn rot_timeline(class: ObjectClass, scrub: bool, seed: u64) -> RotTimeline {
    let mut sim = Sim::new(seed);
    sim.block_on(move |sim| async move {
        let mut cfg = ClusterConfig::tiny(1);
        cfg.server_nodes = 4;
        cfg.targets_per_engine = 2;
        cfg.engine.scrub_interval = scrub.then(|| SimDuration::from_ms(5));
        cfg.engine.scrub_chunks = 64;
        let tpe = cfg.targets_per_engine;
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.expect("connect");
        let cont = pool.create_container(&sim, 1).await.expect("container");
        let arr = cont.object(ObjectId::new(0x5C, 1), class).array(64 * KIB);
        let data = Payload::pattern(29, 2 * MIB);
        arr.write(&sim, 0, data.clone()).await.expect("write");

        // replica choice is deterministic per chunk, so a priming read
        // tells us exactly which copies client reads fetch; rot the target
        // serving the most of them so the client-read mode actually
        // touches the damage (scrub mode ignores the distinction)
        let before: Vec<u64> = (0..cluster.cfg.engine_count() * tpe)
            .map(|t| cluster.engine(t / tpe).target(t % tpe).counters().fetches)
            .collect();
        arr.read_bytes(&sim, 0, 2 * MIB).await.expect("prime read");
        let victim = (0..cluster.cfg.engine_count() * tpe)
            .max_by_key(|&t| {
                cluster.engine(t / tpe).target(t % tpe).counters().fetches - before[t as usize]
            })
            .unwrap();
        let t_rot = sim.now().as_ns();
        cluster.apply_fault(
            &sim,
            FaultAction::BitRot {
                target: victim as usize,
                fraction_ppm: 1_000_000,
            },
        );
        let rot_extents = cluster.corruption_stats().rot_injected;

        let mut equal = true;
        if scrub {
            // zero client traffic: only the scrubber can find the rot
            for _ in 0..100 {
                sim.sleep_ms(5).await;
                if cluster.corruption_stats().reported > 0 {
                    break;
                }
            }
        } else {
            // reads that land on the rotten copies fail over / reconstruct
            let got = arr.read_bytes(&sim, 0, 2 * MIB).await.expect("read");
            equal = got == data.materialize().to_vec();
        }
        let detect_ms = cluster
            .corruption_stats()
            .first_report_ns
            .map(|t| (t.saturating_sub(t_rot)) as f64 / 1e6)
            .unwrap_or(f64::NAN);
        cluster.quiesce_repairs(&sim).await;

        // in scrub mode the scrubber keeps finding what repairs haven't
        // reached yet: iterate until a full manual pass over the victim
        // verifies clean (client mode leaves unread copies rotten)
        let mut clean = false;
        if scrub {
            let tgt = cluster.engine(victim / tpe).target(victim % tpe);
            for _ in 0..40 {
                sim.sleep_ms(10).await;
                cluster.quiesce_repairs(&sim).await;
                let mut findings = 0u64;
                loop {
                    let r = tgt.scrub_step(&sim, 1024).await;
                    findings += r.findings.len() as u64;
                    if r.wrapped {
                        break;
                    }
                }
                if findings == 0 {
                    clean = true;
                    break;
                }
            }
            let got = arr.read_bytes(&sim, 0, 2 * MIB).await.expect("read");
            equal = got == data.materialize().to_vec();
        }

        let st = cluster.corruption_stats();
        RotTimeline {
            class,
            mode: if scrub { "scrubber" } else { "client-read" },
            rot_extents,
            detect_ms,
            reported: st.reported,
            repairs_ok: st.repairs_ok,
            equal,
            clean,
        }
    })
}

/// Record one rot timeline (series = `<class>/<mode>`, scale-less).
pub fn record_rot_timeline(report: &mut impl Record, t: &RotTimeline) {
    let s = format!("{}/{}", t.class, t.mode);
    report.record(&s, 0, "rot_extents", t.rot_extents as f64);
    report.record(&s, 0, "detect_ms", t.detect_ms);
    report.record(&s, 0, "reported", t.reported as f64);
    report.record(&s, 0, "repairs_ok", t.repairs_ok as f64);
    report.record(&s, 0, "bytes_equal", t.equal as u64 as f64);
    report.record(&s, 0, "media_clean", t.clean as u64 as f64);
}

/// The integrity checks every rot timeline must satisfy.
pub fn check_rot_timeline(rep: &mut crate::Reporter, t: &RotTimeline) {
    rep.check(
        &format!("{} {}: rot injected and detected", t.class, t.mode),
        t.rot_extents > 0 && t.reported > 0 && t.detect_ms.is_finite(),
    );
    rep.check(
        &format!("{} {}: targeted repairs landed", t.class, t.mode),
        t.repairs_ok > 0,
    );
    rep.check(
        &format!("{} {}: all bytes read back identical", t.class, t.mode),
        t.equal,
    );
    if t.mode == "scrubber" {
        rep.check(
            &format!(
                "{} {}: rotted target scrubs clean after repair",
                t.class, t.mode
            ),
            t.clean,
        );
    }
}

// ---------------------------------------------------------------------
// Data protection (RP/EC cost and degraded reads)
// ---------------------------------------------------------------------

/// One IOR run (DFS, file-per-process) with a protected or sharded
/// class. Returns (write GiB/s, read GiB/s).
pub(crate) fn protection_point(
    seed: u64,
    class: ObjectClass,
    nodes: u32,
    ppn: u32,
    block: u64,
) -> (f64, f64) {
    let mut sim = Sim::new(seed);
    sim.block_on(move |sim| async move {
        let env = DaosTestbed::setup(
            &sim,
            paper_cluster(nodes),
            DfsConfig::default(),
            DfuseConfig::default(),
        )
        .await
        .expect("testbed");
        let mut p = paper_params(Api::Dfs, class, true, ppn);
        p.block_size = block;
        let rep = run(&sim, &env, p).await.expect("run");
        (rep.write_gib_s(), rep.read_gib_s())
    })
}

/// Degraded read: write through stable handles, exclude `target`, read
/// the *same* handles (layout cached pre-failure, like an application
/// holding open files through a failure). Returns (healthy read GiB/s,
/// degraded read GiB/s).
pub(crate) fn degraded_point(
    seed: u64,
    class: ObjectClass,
    target: u32,
    nodes: u32,
    ppn: u32,
    per_rank: u64,
) -> (f64, f64) {
    let mut sim = Sim::new(seed);
    sim.block_on(move |sim| async move {
        let env = DaosTestbed::setup(
            &sim,
            paper_cluster(nodes),
            DfsConfig::default(),
            DfuseConfig::default(),
        )
        .await
        .expect("testbed");
        let ranks = nodes * ppn;
        let arrays: Vec<_> = (0..ranks)
            .map(|r| {
                env.containers[(r / ppn) as usize]
                    .object(ObjectId::new(0xDE6, r as u64), class)
                    .array(MIB)
            })
            .collect();
        // healthy write + read
        let futs: Vec<_> = arrays
            .iter()
            .enumerate()
            .map(|(r, a)| {
                let a = a.clone();
                let sim = sim.clone();
                async move {
                    for k in 0..per_rank / MIB {
                        a.write(&sim, k * MIB, Payload::pattern(r as u64, MIB))
                            .await
                            .expect("write");
                    }
                }
            })
            .collect();
        join_all(&sim, futs).await;
        let read_all = |arrays: Vec<daos_core::ArrayHandle>, sim: Sim| async move {
            let t0 = sim.now();
            let futs: Vec<_> = arrays
                .into_iter()
                .map(|a| {
                    let sim = sim.clone();
                    async move {
                        for k in 0..per_rank / MIB {
                            a.read(&sim, k * MIB, MIB).await.expect("read");
                        }
                    }
                })
                .collect();
            join_all(&sim, futs).await;
            gib_per_sec(ranks as u64 * per_rank, (sim.now() - t0).as_secs_f64())
        };
        let healthy = read_all(arrays.clone(), sim.clone()).await;
        env.cluster.exclude_target(target);
        let degraded = read_all(arrays, sim.clone()).await;
        (healthy, degraded)
    })
}

// ---------------------------------------------------------------------
// DFuse cost decomposition
// ---------------------------------------------------------------------

/// One IOR run (S2, file-per-process) through `api` on a DFuse mount
/// configured as `dfuse`. Returns (write GiB/s, read GiB/s).
pub(crate) fn dfuse_point(
    seed: u64,
    dfuse: DfuseConfig,
    api: Api,
    nodes: u32,
    ppn: u32,
    block: u64,
) -> (f64, f64) {
    let mut sim = Sim::new(seed);
    sim.block_on(move |sim| async move {
        let env = DaosTestbed::setup(&sim, paper_cluster(nodes), DfsConfig::default(), dfuse)
            .await
            .expect("testbed");
        let mut p = paper_params(api, ObjectClass::S2, true, ppn);
        p.block_size = block;
        let r = run(&sim, &env, p).await.expect("run");
        (r.write_gib_s(), r.read_gib_s())
    })
}

// ---------------------------------------------------------------------
// Metadata rates (mdtest)
// ---------------------------------------------------------------------

/// An mdtest create / stat / unlink storm on the DAOS testbed, through
/// DFS or DFuse (the backend salts the seed).
pub(crate) fn daos_md(
    seed: u64,
    backend: MdBackend,
    nodes: u32,
    ppn: u32,
    files: u32,
) -> MdtestReport {
    let mut sim = Sim::new(seed ^ backend as u64);
    sim.block_on(move |sim| async move {
        let env = DaosTestbed::setup(
            &sim,
            paper_cluster(nodes),
            DfsConfig::default(),
            DfuseConfig::default(),
        )
        .await
        .expect("testbed");
        mdtest(&sim, &env, backend, ppn, files)
            .await
            .expect("mdtest")
    })
}

/// The same storm against the Lustre-like PFS's single MDS.
pub(crate) fn pfs_md(seed: u64, nodes: u32, ppn: u32, files: u32) -> MdtestReport {
    let mut sim = Sim::new(seed);
    sim.block_on(move |sim| async move {
        let fs = Pfs::build(PfsConfig {
            client_nodes: nodes,
            ..Default::default()
        });
        // pre-create per-rank dirs is implicit in the flat namespace
        mdtest_pfs(&sim, &fs, ppn, files).await.expect("mdtest pfs")
    })
}

// ---------------------------------------------------------------------
// Application workloads (NWP, checkpoint, producer-consumer)
// ---------------------------------------------------------------------

/// One client handle per node, reaching DAOS the way `which` says.
async fn accesses(sim: &Sim, which: Access, nodes: u32) -> Vec<RankAccess> {
    let cluster = Cluster::build(sim, paper_cluster(nodes));
    let mut out = Vec::new();
    for i in 0..nodes {
        let client = DaosClient::new(Rc::clone(&cluster), i);
        let pool = client.connect(sim).await.expect("connect");
        match which {
            Access::Native => out.push(RankAccess::Native(
                pool.open_or_create(sim, 5).await.expect("container"),
            )),
            Access::Dfs => out.push(RankAccess::Dfs(
                Dfs::mount(sim, &pool, 5, DfsConfig::default(), i as u64)
                    .await
                    .expect("mount"),
            )),
            Access::Posix => {
                let fs = Dfs::mount(sim, &pool, 5, DfsConfig::default(), i as u64)
                    .await
                    .expect("mount");
                out.push(RankAccess::Posix(DfuseMount::new(
                    fs,
                    DfuseConfig::default(),
                )));
            }
        }
    }
    out
}

/// Run the application workload `kind` (`nwp`, `checkpoint` or
/// `producer_consumer`) through `which` (the access mode salts the seed).
pub(crate) fn run_one(
    seed: u64,
    kind: &'static str,
    which: Access,
    nodes: u32,
    params: WorkloadParams,
) -> WorkloadReport {
    let mut sim = Sim::new(seed ^ which as u64);
    sim.block_on(move |sim| async move {
        let acc = accesses(&sim, which, nodes).await;
        let mut rep = match kind {
            "nwp" => nwp::run(&sim, acc, params).await,
            "checkpoint" => checkpoint::run(&sim, acc, params).await,
            _ => producer_consumer::run(&sim, acc, params).await,
        }
        .expect("workload");
        rep.access = which;
        rep
    })
}
