//! The three benchmark workloads, each run once per call on a fresh
//! simulation, with host-time boundaries placed where the user-visible
//! phases begin and end.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use daos_bench::figures::{FIG1_SEED, PPN};
use daos_bench::traffic::{
    traffic_cluster, traffic_policy, Arrivals, TrafficMode, TrafficParams, TRAFFIC_SEED,
};
use daos_bench::{paper_cluster, paper_params};
use daos_core::{ArrayHandle, Cluster, ClusterConfig, DaosClient};
use daos_dfs::DfsConfig;
use daos_dfuse::{DfuseConfig, DfuseMount};
use daos_ior::{run, Api, DaosTestbed, IorParams};
use daos_media::Device;
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::time::SimDuration;
use daos_sim::units::KIB;
use daos_sim::{PercentileSketch, Sim};
use daos_vos::Payload;
use rand::Rng;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// IOR easy (file per process) over DFS, S2, 16 nodes x 16 ranks,
    /// 1 MiB transfers, 32 MiB blocks: the paper's Fig. 1 cell.
    DfsFppBulk,
    /// IOR hard (one shared file), HDF5 over the MPI-IO VFD over DFuse,
    /// SX, 4 nodes x 16 ranks, 4 KiB transfers, 8 MiB blocks.
    Hdf5SharedSmall,
    /// Open-loop Poisson writes at 200% of nominal engine bandwidth, S1
    /// with admission control and client damping, 64 KiB requests.
    OverloadS1,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DfsFppBulk,
        Workload::Hdf5SharedSmall,
        Workload::OverloadS1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DfsFppBulk => "dfs_fpp_bulk",
            Workload::Hdf5SharedSmall => "hdf5_shared_small",
            Workload::OverloadS1 => "overload_s1",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed at which the workload is exactly the recorded figure or
    /// traffic cell.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::DfsFppBulk | Workload::Hdf5SharedSmall => FIG1_SEED,
            Workload::OverloadS1 => TRAFFIC_SEED,
        }
    }

    /// The IOR cell, for the two IOR workloads.
    pub fn ior(self) -> Option<IorCell> {
        match self {
            Workload::DfsFppBulk => Some(IorCell {
                nodes: 16,
                params: paper_params(Api::Dfs, ObjectClass::S2, true, PPN),
            }),
            Workload::Hdf5SharedSmall => {
                let mut params = paper_params(Api::Hdf5, ObjectClass::SX, false, PPN);
                params.transfer_size = 4 * KIB;
                params.block_size = 8 << 20;
                Some(IorCell { nodes: 4, params })
            }
            Workload::OverloadS1 => None,
        }
    }

    /// Object class of the workload's files or arrays.
    pub fn class(self) -> ObjectClass {
        match self.ior() {
            Some(cell) => cell.params.oclass,
            None => OVERLOAD_MODE.class,
        }
    }

    /// Bytes per simulated client op.
    pub fn transfer_size(self) -> u64 {
        match self.ior() {
            Some(cell) => cell.params.transfer_size,
            None => overload_params().req_size,
        }
    }

    /// The testbed the workload runs on.
    pub fn cluster(self) -> ClusterConfig {
        match self.ior() {
            Some(cell) => paper_cluster(cell.nodes),
            None => traffic_cluster(&overload_params(), OVERLOAD_MODE.admission),
        }
    }
}

/// One IOR configuration at one scale.
#[derive(Clone, Copy, Debug)]
pub struct IorCell {
    pub nodes: u32,
    pub params: IorParams,
}

/// Offered load of the overload workload, percent of nominal engine
/// write bandwidth.
pub const OVERLOAD_LOAD_PCT: u32 = 200;

/// The overload workload's traffic series: S1 with admission control and
/// client damping on, Poisson arrivals (`S1/ac`).
pub const OVERLOAD_MODE: TrafficMode = TrafficMode {
    class: ObjectClass::S1,
    admission: true,
    arrivals: Arrivals::Poisson,
};

/// `TrafficParams::full()` with 64 KiB requests and a 300 ms window:
/// small enough requests that checksumming does not hide the engine and
/// client paths.
pub fn overload_params() -> TrafficParams {
    TrafficParams {
        req_size: 64 * KIB,
        duration: SimDuration::from_ms(300),
        ..TrafficParams::full()
    }
}

/// The simulated results a run must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outputs {
    Ior {
        /// Bytes each phase was planned to move.
        total_bytes: u64,
        bytes_written: u64,
        bytes_read: u64,
        write_ns: u64,
        read_ns: u64,
    },
    Traffic {
        arrivals: u64,
        completed: u64,
        failed: u64,
        engine_sheds: u64,
        retries: u64,
        breaker_fastfail: u64,
        p99_ns: u64,
        /// Chunks that returned data in the closed-loop read-back.
        chunks_read_back: u64,
    },
}

impl Outputs {
    /// Simulated client ops resolved: IOR transfers over both phases, or
    /// open-loop arrivals.
    pub fn ops(&self, transfer_size: u64) -> u64 {
        match *self {
            Outputs::Ior {
                bytes_written,
                bytes_read,
                ..
            } => (bytes_written + bytes_read) / transfer_size,
            Outputs::Traffic { arrivals, .. } => arrivals,
        }
    }
}

/// Public counters of every layer, read after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub sim_tasks: u64,
    pub fabric_rpcs: u64,
    pub fabric_tx_bytes: u64,
    pub dfuse_requests: u64,
    pub engine_admitted: u64,
    pub engine_shed: u64,
    pub client_retries: u64,
    pub client_breaker_fastfail: u64,
    pub vos_updates: u64,
    pub vos_fetches: u64,
    pub vos_index_ops: u64,
    pub media_write_ops: u64,
    pub media_read_ops: u64,
    /// Most open-loop requests in flight at once (0 for closed loops).
    pub peak_inflight: u64,
}

impl Counters {
    fn read(sim: &Sim, cluster: &Cluster, clients: &[DaosClient], mounts: &[&DfuseMount]) -> Self {
        let mut c = Counters {
            sim_tasks: sim.spawned_total(),
            fabric_tx_bytes: (0..cluster.fabric.len())
                .map(|n| cluster.fabric.tx_bytes(n))
                .sum(),
            dfuse_requests: mounts.iter().map(|m| m.stats().fuse_requests).sum(),
            ..Counters::default()
        };
        for e in cluster.engines() {
            c.fabric_rpcs += e.endpoint().call_count();
            let a = e.admission_stats();
            c.engine_admitted += a.admitted;
            c.engine_shed += a.shed_queue + a.shed_bytes;
            for t in 0..e.target_count() {
                let target = e.target(t);
                let v = target.counters();
                c.vos_updates += v.updates;
                c.vos_fetches += v.fetches;
                c.vos_index_ops += v.index_ops;
                let m = target.media().scm().stats();
                c.media_write_ops += m.write_ops;
                c.media_read_ops += m.read_ops;
            }
        }
        for cl in clients {
            let d = cl.damp_stats();
            c.client_retries += d.retries_spent;
            c.client_breaker_fastfail += d.breaker_fastfail;
        }
        c
    }
}

/// What one run of a workload measured.
#[derive(Clone, Debug)]
pub struct Run {
    /// Host seconds from `Sim::new` until the testbed is ready.
    pub setup_s: f64,
    /// Host seconds of the write phase: the IOR write call, or the whole
    /// open-loop run.
    pub write_s: f64,
    /// Host seconds of the read phase: the IOR read call, or the
    /// overload workload's read-back.
    pub read_s: f64,
    /// Host seconds from testbed ready until the last simulated op of the
    /// workload resolved (the overload read-back is not part of it).
    pub run_s: f64,
    pub outputs: Outputs,
    pub counters: Counters,
}

/// Run `w` once in a fresh simulation rooted at `seed`.
pub fn run_once(w: Workload, seed: u64) -> Run {
    match w.ior() {
        Some(cell) => run_ior(cell, seed),
        None => run_traffic(seed, overload_params(), OVERLOAD_LOAD_PCT),
    }
}

/// Simulation seed and placement salt of an IOR run. At [`FIG1_SEED`]
/// these are exactly `run_point`'s first repeat; any other seed also
/// shifts every file's placement.
fn ior_seeds(cell: &IorCell, seed: u64) -> (u64, u64) {
    (seed ^ ((cell.nodes as u64) << 32), seed ^ FIG1_SEED)
}

async fn ior_testbed(sim: &Sim, cell: &IorCell, salt: u64) -> Rc<DaosTestbed> {
    DaosTestbed::setup_salted(
        sim,
        paper_cluster(cell.nodes),
        DfsConfig::default(),
        DfuseConfig::default(),
        salt,
    )
    .await
    .expect("testbed setup")
}

/// Run an IOR cell as two `daos_ior::run` calls on one testbed, writes
/// then reads, so each phase gets its own host time. Files are
/// open-or-create, so the split leaves the simulated results identical
/// to one combined call.
pub fn run_ior(cell: IorCell, seed: u64) -> Run {
    let (sim_seed, salt) = ior_seeds(&cell, seed);
    let t0 = Instant::now();
    let mut sim = Sim::new(sim_seed);
    sim.block_on(move |sim| async move {
        let env = ior_testbed(&sim, &cell, salt).await;
        let t_ready = Instant::now();
        let write = run(
            &sim,
            &env,
            IorParams {
                do_read: false,
                ..cell.params
            },
        )
        .await
        .expect("ior write phase");
        let t_written = Instant::now();
        let read = run(
            &sim,
            &env,
            IorParams {
                do_write: false,
                ..cell.params
            },
        )
        .await
        .expect("ior read phase");
        let t_done = Instant::now();
        let mounts: Vec<&DfuseMount> = env
            .dfuse
            .iter()
            .chain(&env.dfuse_il)
            .map(|m| &**m)
            .collect();
        Run {
            setup_s: (t_ready - t0).as_secs_f64(),
            write_s: (t_written - t_ready).as_secs_f64(),
            read_s: (t_done - t_written).as_secs_f64(),
            run_s: (t_done - t_ready).as_secs_f64(),
            outputs: Outputs::Ior {
                total_bytes: write.total_bytes,
                bytes_written: write.bytes_written,
                bytes_read: read.bytes_read,
                write_ns: write.write_time.as_ns(),
                read_ns: read.read_time.as_ns(),
            },
            counters: Counters::read(&sim, &env.cluster, &env.clients, &mounts),
        }
    })
}

/// Host seconds to build a workload's testbed in a fresh simulation,
/// without running it.
pub fn setup_once(w: Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    match w.ior() {
        Some(cell) => {
            let (sim_seed, salt) = ior_seeds(&cell, seed);
            let mut sim = Sim::new(sim_seed);
            sim.block_on(move |sim| async move {
                ior_testbed(&sim, &cell, salt).await;
                t0.elapsed().as_secs_f64()
            })
        }
        None => {
            let params = overload_params();
            let mut sim = Sim::new(traffic_sim_seed(seed, OVERLOAD_LOAD_PCT));
            sim.block_on(move |sim| async move {
                traffic_testbed(&sim, params).await;
                t0.elapsed().as_secs_f64()
            })
        }
    }
}

struct TrafficTestbed {
    cluster: Rc<Cluster>,
    clients: Vec<DaosClient>,
    node_arrays: Vec<Vec<ArrayHandle>>,
}

async fn traffic_testbed(sim: &Sim, params: TrafficParams) -> TrafficTestbed {
    let cfg = traffic_cluster(&params, OVERLOAD_MODE.admission);
    let cluster = Cluster::build(sim, cfg);
    let boot = DaosClient::new(Rc::clone(&cluster), 0);
    let pool = boot.connect(sim).await.expect("traffic: connect");
    pool.create_container(sim, 1)
        .await
        .expect("traffic: create container");
    let policy = traffic_policy(OVERLOAD_MODE.admission);
    let mut clients = Vec::new();
    let mut node_arrays = Vec::new();
    for n in 0..params.client_nodes {
        let client = DaosClient::new(Rc::clone(&cluster), n).with_retry(policy);
        let pool = client.connect(sim).await.expect("traffic: connect");
        let cont = pool
            .open_container(sim, 1)
            .await
            .expect("traffic: open container");
        let arrays: Vec<_> = (0..params.arrays_per_node)
            .map(|a| {
                let oid = ObjectId::new(0x7A, (n * params.arrays_per_node + a) as u64);
                cont.object(oid, OVERLOAD_MODE.class).array(params.req_size)
            })
            .collect();
        clients.push(client);
        node_arrays.push(arrays);
    }
    TrafficTestbed {
        cluster,
        clients,
        node_arrays,
    }
}

#[derive(Default)]
struct TrafficTally {
    arrivals: Cell<u64>,
    completed: Cell<u64>,
    failed: Cell<u64>,
    inflight: Cell<u64>,
    peak_inflight: Cell<u64>,
    latency: RefCell<PercentileSketch>,
}

/// The traffic cell exactly as `daos_bench::traffic::traffic_point`
/// simulates it for `S1/ac`, with the root seed as a parameter and the
/// testbed, timing boundaries and counters in reach, followed by a
/// read-back. At [`TRAFFIC_SEED`] its open-loop results equal
/// `traffic_point`'s (a unit test pins that at smoke scale, the output
/// gate at full scale).
fn run_traffic(seed: u64, params: TrafficParams, load_pct: u32) -> Run {
    let t0 = Instant::now();
    let mut sim = Sim::new(traffic_sim_seed(seed, load_pct));
    sim.block_on(move |sim| async move {
        let cfg = traffic_cluster(&params, OVERLOAD_MODE.admission);
        let nominal = cfg.engine.bulk_write_bw.0 * cfg.engine_count() as f64;
        let per_node_bps = nominal * load_pct as f64 / 100.0 / params.client_nodes as f64;
        let mean_gap_ns = params.req_size as f64 * 1e9 / per_node_bps;

        let bed = traffic_testbed(&sim, params).await;
        let t_ready = Instant::now();

        let tally = Rc::new(TrafficTally::default());
        let t_end = sim.now() + params.duration;
        let mut gens = Vec::new();
        for (n, arrays) in bed.node_arrays.iter().cloned().enumerate() {
            let sim = sim.clone();
            let tally = Rc::clone(&tally);
            gens.push(sim.clone().spawn(async move {
                let mut rng = sim.derive_rng(seed ^ ((n as u64) << 8) ^ ((load_pct as u64) << 32));
                loop {
                    let ai = rng.gen_range(0..arrays.len() as u64) as usize;
                    let chunk = rng.gen_range(0..params.chunks_per_array);
                    let seq = tally.arrivals.get();
                    tally.arrivals.set(seq + 1);
                    let inflight = tally.inflight.get() + 1;
                    tally.inflight.set(inflight);
                    tally
                        .peak_inflight
                        .set(tally.peak_inflight.get().max(inflight));
                    let arr = arrays[ai].clone();
                    let sim2 = sim.clone();
                    let c = Rc::clone(&tally);
                    sim.spawn(async move {
                        let start = sim2.now();
                        let data = Payload::pattern(seq, params.req_size);
                        match arr.write(&sim2, chunk * params.req_size, data).await {
                            Ok(()) => {
                                c.completed.set(c.completed.get() + 1);
                                c.latency.borrow_mut().add((sim2.now() - start).as_ns());
                            }
                            Err(_) => c.failed.set(c.failed.get() + 1),
                        }
                        c.inflight.set(c.inflight.get() - 1);
                    });
                    let u: f64 = rng.gen();
                    let gap = (-mean_gap_ns * (1.0 - u).ln()) as u64;
                    sim.sleep_ns(gap).await;
                    if sim.now() >= t_end {
                        break;
                    }
                }
            }));
        }
        for g in gens {
            g.await;
        }
        while tally.inflight.get() > 0 {
            sim.sleep_us(200).await;
        }
        let t_drained = Instant::now();
        // The open-loop cell's results are final here; the read-back
        // only gives the write-only workload a read phase to time.
        let window = Counters::read(&sim, &bed.cluster, &bed.clients, &[]);
        let chunks_read_back = read_back(&sim, &bed, params).await;
        let t_done = Instant::now();

        let mut counters = Counters::read(&sim, &bed.cluster, &bed.clients, &[]);
        counters.peak_inflight = tally.peak_inflight.get();
        let p99_ns = tally.latency.borrow().quantile(0.99);
        Run {
            setup_s: (t_ready - t0).as_secs_f64(),
            write_s: (t_drained - t_ready).as_secs_f64(),
            read_s: (t_done - t_drained).as_secs_f64(),
            run_s: (t_drained - t_ready).as_secs_f64(),
            outputs: Outputs::Traffic {
                arrivals: tally.arrivals.get(),
                completed: tally.completed.get(),
                failed: tally.failed.get(),
                engine_sheds: window.engine_shed,
                retries: window.client_retries,
                breaker_fastfail: window.client_breaker_fastfail,
                p99_ns,
                chunks_read_back,
            },
            counters,
        }
    })
}

/// Read every chunk of every array back, closed loop, one request in
/// flight per array so no xstream queue reaches the admission cap, after
/// the breakers' open window has passed. Returns how many chunks held data.
async fn read_back(sim: &Sim, bed: &TrafficTestbed, params: TrafficParams) -> u64 {
    sim.sleep(traffic_policy(OVERLOAD_MODE.admission).breaker_open * 2)
        .await;
    let readers: Vec<_> = bed
        .node_arrays
        .iter()
        .flatten()
        .map(|arr| {
            let (sim, arr) = (sim.clone(), arr.clone());
            sim.clone().spawn(async move {
                let mut with_data = 0u64;
                for chunk in 0..params.chunks_per_array {
                    let segs = arr
                        .read(&sim, chunk * params.req_size, params.req_size)
                        .await
                        .expect("overload read-back");
                    with_data += segs.iter().any(|s| s.data.is_some()) as u64;
                }
                with_data
            })
        })
        .collect();
    let mut with_data = 0;
    for r in readers {
        with_data += r.await;
    }
    with_data
}

fn traffic_sim_seed(seed: u64, load_pct: u32) -> u64 {
    let series = OVERLOAD_MODE.series();
    seed ^ daos_bench::report::fnv1a(series.as_bytes()).rotate_left(17) ^ ((load_pct as u64) << 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_bench::traffic::traffic_point;

    /// The overload mirror and `traffic_point` simulate the same cell.
    #[test]
    fn overload_mirror_matches_traffic_point() {
        let params = TrafficParams {
            req_size: 64 * KIB,
            ..TrafficParams::smoke()
        };
        let cell = traffic_point(OVERLOAD_MODE, 200, params);
        let run = run_traffic(TRAFFIC_SEED, params, 200);
        let Outputs::Traffic {
            arrivals,
            completed,
            failed,
            engine_sheds,
            retries,
            breaker_fastfail,
            p99_ns,
            ..
        } = run.outputs
        else {
            panic!("overload run produced IOR outputs");
        };
        assert_eq!(arrivals, cell.arrivals);
        assert_eq!(completed, cell.completed);
        assert_eq!(failed, cell.failed);
        assert_eq!(engine_sheds, cell.engine_sheds);
        assert_eq!(retries, cell.retries_spent);
        assert_eq!(breaker_fastfail, cell.breaker_fastfail);
        assert_eq!(p99_ns as f64 / 1e3, cell.p99_us);
        assert!(cell.engine_sheds > 0, "smoke cell must exercise shedding");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
