//! Per-layer timings: the benchmark's own calls into each layer's public
//! functions, on the input shapes a workload produces.

use std::hint::black_box;
use std::time::Instant;

use daos_placement::{place, ObjectClass, ObjectId, PoolMap};
use daos_raft::testing::Cluster as RaftCluster;
use daos_sim::time::SimDuration;
use daos_sim::units::{Bandwidth, MIB};
use daos_sim::{Pipe, Sim};
use daos_vos::tree::ExtentTree;
use daos_vos::{csum64, Payload, CSUM_SEED};

use crate::workloads::{Counters, Workload};

/// Timed batches per measurement; each reports its median batch.
const BATCHES: usize = 5;

/// The input shapes one workload hands to each layer.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Bytes per client op (IOR transfer or open-loop request).
    pub transfer: u64,
    /// Extents one akey's tree holds once the workload has written it.
    pub extents_per_tree: u64,
    /// Whether those extents overwrite one range (open-loop rewrites of a
    /// chunk) or tile it (IOR's sequential transfers).
    pub overwrite: bool,
    /// Simulated client tasks in flight at once.
    pub concurrency: u64,
    pub class: ObjectClass,
    pub engines: u32,
    pub targets_per_engine: u32,
    pub svc_replicas: u64,
}

impl Shape {
    /// Shapes of `w`, with the open-loop ones taken from its traced run.
    pub fn of(w: Workload, counters: &Counters, completed_writes: u64) -> Shape {
        let cfg = w.cluster();
        let base = Shape {
            transfer: w.transfer_size(),
            extents_per_tree: 1,
            overwrite: false,
            concurrency: 1,
            class: w.class(),
            engines: cfg.engine_count(),
            targets_per_engine: cfg.targets_per_engine,
            svc_replicas: cfg.svc_replicas as u64,
        };
        match w.ior() {
            Some(cell) => Shape {
                extents_per_tree: (cell.params.chunk_size / cell.params.transfer_size).max(1),
                concurrency: (cell.nodes * cell.params.ppn) as u64,
                ..base
            },
            None => {
                let p = crate::workloads::overload_params();
                let chunks = p.client_nodes as u64 * p.arrays_per_node as u64 * p.chunks_per_array;
                Shape {
                    extents_per_tree: completed_writes.div_ceil(chunks).max(1),
                    overwrite: true,
                    concurrency: counters.peak_inflight.max(1),
                    ..base
                }
            }
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median over [`BATCHES`] of `batch()`'s host nanoseconds per unit;
/// `batch` returns how many units it did.
fn ns_per_unit(mut batch: impl FnMut() -> u64) -> f64 {
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let units = batch();
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(per)
}

/// `csum64` over distinct pattern payloads of the workload's transfer
/// size, so the memo misses as it does in the run: ns per MiB hashed.
pub fn csum_ns_per_mib(s: &Shape) -> f64 {
    let per_batch = (64 * MIB / s.transfer).max(1);
    let mut next_seed = 0xC5_0000_0000u64;
    let ns_per_payload = ns_per_unit(|| {
        let mut acc = 0u64;
        for _ in 0..per_batch {
            next_seed += 1;
            acc ^= csum64(CSUM_SEED, &Payload::pattern(next_seed, s.transfer));
        }
        black_box(acc);
        per_batch
    });
    ns_per_payload * MIB as f64 / s.transfer as f64
}

fn extent_offset(s: &Shape, i: u64) -> u64 {
    if s.overwrite {
        0
    } else {
        i * s.transfer
    }
}

/// Build trees of the workload's extent count and size, then read each
/// extent's range back: ns per insert and ns per read. One payload
/// repeats, so its checksum comes from the memo and the times are the
/// tree's own.
pub fn extent_ns(s: &Shape) -> (f64, f64) {
    let trees_per_batch = (65_536 / s.extents_per_tree).max(1);
    let payload = Payload::pattern(0xE7, s.transfer);
    let build = || {
        let mut trees = Vec::with_capacity(trees_per_batch as usize);
        for _ in 0..trees_per_batch {
            let mut t = ExtentTree::new();
            for i in 0..s.extents_per_tree {
                t.insert(extent_offset(s, i), i + 1, payload.clone());
            }
            trees.push(t);
        }
        trees
    };
    let units = trees_per_batch * s.extents_per_tree;
    let insert = ns_per_unit(|| {
        black_box(build());
        units
    });
    let mut built = Vec::new();
    let mut reads = Vec::new();
    for _ in 0..BATCHES {
        built.push(build());
    }
    for trees in &built {
        let t = Instant::now();
        let mut segs = 0usize;
        for tree in trees {
            for i in 0..s.extents_per_tree {
                segs += tree
                    .read(extent_offset(s, i), s.transfer, s.extents_per_tree)
                    .len();
            }
        }
        black_box(segs);
        reads.push(t.elapsed().as_nanos() as f64 / units as f64);
    }
    (insert, median(reads))
}

/// Spawn as many empty tasks as the workload keeps in flight, then join
/// them: ns per task.
pub fn spawn_ns(s: &Shape) -> f64 {
    let n = s.concurrency;
    let rounds = (131_072 / n).max(1);
    ns_per_unit(|| {
        let mut sim = Sim::new(1);
        sim.block_on(move |sim| async move {
            for _ in 0..rounds {
                let handles: Vec<_> = (0..n).map(|i| sim.spawn(async move { i })).collect();
                for h in handles {
                    black_box(h.await);
                }
            }
        });
        rounds * n
    })
}

/// As many tasks as the workload keeps in flight, each sleeping for
/// spread-out durations: ns per timer set, fired and woken.
pub fn timer_ns(s: &Shape) -> f64 {
    let n = s.concurrency;
    let sleeps = (131_072 / n).max(1);
    ns_per_unit(|| {
        let mut sim = Sim::new(1);
        sim.block_on(move |sim| async move {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let s = sim.clone();
                    sim.spawn(async move {
                        for k in 0..sleeps {
                            s.sleep_ns(1 + (i * 7919 + k * 104_729) % 50_000).await;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.await;
            }
        });
        n * sleeps
    })
}

/// Back-to-back `Pipe::transfer`s of the workload's transfer size on a
/// fabric-rail pipe: ns per transfer.
pub fn pipe_transfer_ns(s: &Shape) -> f64 {
    let transfers = 65_536u64;
    let bytes = s.transfer;
    ns_per_unit(|| {
        let mut sim = Sim::new(1);
        sim.block_on(move |sim| async move {
            let pipe = Pipe::new(
                "rail",
                Bandwidth::gib_per_sec(12.5),
                SimDuration::from_us(1),
            );
            for _ in 0..transfers {
                pipe.transfer(&sim, bytes).await;
            }
        });
        transfers
    })
}

/// Propose and commit commands on a pool-service-sized RAFT group with
/// an elected leader: ns per command committed on every replica.
pub fn raft_commit_ns(s: &Shape) -> f64 {
    let cmds = 256u64;
    let per: Vec<f64> = (0..BATCHES as u64)
        .map(|b| {
            let mut cl: RaftCluster<u64> = RaftCluster::new(s.svc_replicas, 0xBE + b);
            cl.run_until_leader(500);
            let applied = |cl: &RaftCluster<u64>| cl.applied.values().map(Vec::len).min();
            let before = applied(&cl).unwrap_or(0);
            let t = Instant::now();
            for i in 0..cmds {
                cl.propose(i);
                cl.run(3);
            }
            cl.run(8);
            let ns = t.elapsed().as_nanos() as f64;
            let committed = applied(&cl).unwrap_or(0) - before;
            assert!(
                committed >= cmds as usize,
                "raft committed {committed} of {cmds} commands"
            );
            ns / cmds as f64
        })
        .collect();
    median(per)
}

/// Place objects of the workload's class on its pool map: ns per object.
pub fn place_ns(s: &Shape) -> f64 {
    let map = PoolMap::new(s.engines, s.targets_per_engine);
    let objects = 65_536u64;
    let mut next = 0u64;
    ns_per_unit(|| {
        for _ in 0..objects {
            next += 1;
            black_box(place(ObjectId::new(0xD0, next), s.class, &map));
        }
        objects
    })
}
