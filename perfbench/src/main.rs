//! Host-performance benchmark worker: runs one workload once, in this
//! process, and prints its measurements as one JSON line.
//!
//! ```text
//! perfbench run   <workload> <seed>   # timed run plus extra set-ups
//! perfbench trace <workload> <seed>   # layer counters and call timings
//! ```
//!
//! `<seed>` is a number or `default`, the workload's recorded seed; the
//! JSON line echoes the seed used.
//!
//! Each process runs one workload, so caches (the checksum memo
//! included) start cold and the peak RSS is that workload's. `run.py`
//! starts the processes, repeats them for the measured time and reduces
//! the results.

mod gate;
mod micro;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use workloads::{run_ior, run_once, Outputs, Run, Workload};

/// Host seconds of extra set-ups each `run` process times after its
/// measured run, and the fewest it times. A set-up takes milliseconds, so
/// one is easily slowed by other work on the host; many, spread over every
/// run of an invocation, let `run.py` report the fastest of them.
const SETUP_BUDGET_S: f64 = 0.4;
const MIN_SETUPS: usize = 30;

/// One flat JSON object, built in insertion order.
#[derive(Default)]
struct Json(String);

impl Json {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{k}\":");
    }
    fn num(&mut self, k: &str, v: impl std::fmt::Display) -> &mut Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }
    fn list(&mut self, k: &str, vs: &[f64]) -> &mut Self {
        self.key(k);
        let items: Vec<String> = vs.iter().map(f64::to_string).collect();
        let _ = write!(self.0, "[{}]", items.join(","));
        self
    }
    fn text(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let escaped: String = v
            .chars()
            .map(|c| match c {
                '"' | '\\' => format!("\\{c}"),
                c if c.is_control() => " ".into(),
                c => c.to_string(),
            })
            .collect();
        let _ = write!(self.0, "\"{escaped}\"");
        self
    }
    fn finish(&mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        std::mem::take(&mut self.0)
    }
}

/// The process's peak resident set (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Gate verdict fields shared by both modes.
fn gate_fields(j: &mut Json, w: Workload, seed: u64, run: &Run) {
    let verdict = gate::check_run(w, seed, &run.outputs);
    j.num("seed", seed)
        .num("ok", verdict.is_ok())
        .text("error", verdict.err().as_deref().unwrap_or(""))
        .text("outputs", &format!("{:?}", run.outputs))
        .num("ops", run.outputs.ops(w.transfer_size()));
}

fn cmd_run(w: Workload, seed: u64) -> String {
    let run = run_once(w, seed);
    let rss = peak_rss_mib();
    let mut setups = vec![run.setup_s];
    let mut spent = 0.0;
    while setups.len() <= MIN_SETUPS || spent < SETUP_BUDGET_S {
        let t = workloads::setup_once(w, seed);
        spent += t;
        setups.push(t);
    }
    let mut j = Json::default();
    gate_fields(&mut j, w, seed, &run);
    j.num("run_s", run.run_s)
        .num("write_s", run.write_s)
        .num("read_s", run.read_s)
        .num("peak_rss_mib", rss)
        .list("setup_s", &setups);
    j.finish()
}

/// Spans the trace mode records: the benchmark's own calls into each
/// layer, with the span that caused them. Written to stderr at the end.
#[derive(Default)]
struct Spans {
    origin: Option<Instant>,
    done: Vec<(String, Option<usize>, f64, f64)>,
    open: Vec<usize>,
}

impl Spans {
    fn now(&mut self) -> f64 {
        self.origin
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_secs_f64()
    }
    fn enter(&mut self, name: &str) {
        let t = self.now();
        let parent = self.open.last().copied();
        self.done.push((name.to_string(), parent, t, f64::NAN));
        self.open.push(self.done.len() - 1);
    }
    fn exit(&mut self) {
        let t = self.now();
        if let Some(i) = self.open.pop() {
            self.done[i].3 = t;
        }
    }
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }
    /// Children of the innermost open span, laid end to end from its
    /// start: the phases a run reports as durations.
    fn phases(&mut self, phases: &[(&str, f64)]) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let mut t = self.done[parent].2;
        for &(name, secs) in phases {
            self.done
                .push((name.to_string(), Some(parent), t, t + secs));
            t += secs;
        }
    }
    fn dump(&self) {
        for (i, (name, parent, start, end)) in self.done.iter().enumerate() {
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            eprintln!(
                "{{\"span\":{i},\"name\":\"{name}\",\"parent\":{parent},\"start_s\":{start},\"end_s\":{end}}}"
            );
        }
    }
}

fn traced_run(spans: &mut Spans, name: &str, f: impl FnOnce() -> Run) -> Run {
    spans.enter(name);
    let run = f();
    spans.phases(&[
        ("setup", run.setup_s),
        ("write", run.write_s),
        ("read", run.read_s),
    ]);
    spans.exit();
    run
}

fn cmd_trace(w: Workload, seed: u64) -> String {
    let mut spans = Spans::default();
    let run = traced_run(&mut spans, w.name(), || run_once(w, seed));
    let c = run.counters;
    // The counters cover both phases, the overload read-back included.
    let phases_ns = (run.write_s + run.read_s) * 1e9;
    let shim_s = match w {
        Workload::Hdf5SharedSmall => {
            let mut twin = w.ior().expect("hdf5_shared_small is an IOR cell");
            twin.params.api = daos_ior::Api::Dfs;
            let dfs = traced_run(&mut spans, "dfs_twin", || run_ior(twin, seed));
            run.run_s - dfs.run_s
        }
        _ => 0.0,
    };
    let completed = match run.outputs {
        Outputs::Traffic { completed, .. } => completed,
        Outputs::Ior { .. } => 0,
    };
    let shape = micro::Shape::of(w, &c, completed);
    let csum = spans.time("vos.csum64", || micro::csum_ns_per_mib(&shape));
    let (ins, rd) = spans.time("vos.extent_tree", || micro::extent_ns(&shape));
    let spawn = spans.time("sim.spawn", || micro::spawn_ns(&shape));
    let timer = spans.time("sim.sleep", || micro::timer_ns(&shape));
    let pipe = spans.time("sim.pipe_transfer", || micro::pipe_transfer_ns(&shape));
    let raft = spans.time("raft.propose_commit", || micro::raft_commit_ns(&shape));
    let place = spans.time("placement.place", || micro::place_ns(&shape));
    spans.dump();

    let mut j = Json::default();
    gate_fields(&mut j, w, seed, &run);
    j.num("traced.run_s", run.run_s)
        .num("vos.csum_ns_per_mib", csum)
        .num("vos.extent_insert_ns", ins)
        .num("vos.extent_read_ns", rd)
        .num("sim.tasks", c.sim_tasks)
        .num(
            "sim.host_ns_per_task",
            phases_ns / c.sim_tasks.max(1) as f64,
        )
        .num("sim.spawn_ns", spawn)
        .num("sim.timer_ns", timer)
        .num("sim.pipe_transfer_ns", pipe)
        .num("fabric.rpcs", c.fabric_rpcs)
        .num(
            "fabric.host_ns_per_rpc",
            phases_ns / c.fabric_rpcs.max(1) as f64,
        )
        .num("fabric.tx_bytes", c.fabric_tx_bytes)
        .num("dfuse.requests", c.dfuse_requests)
        .num("hdf5.shim_host_s", shim_s)
        .num("core.engine.admitted", c.engine_admitted)
        .num("core.engine.shed", c.engine_shed)
        .num("core.client.retries", c.client_retries)
        .num("core.client.breaker_fastfail", c.client_breaker_fastfail)
        .num("vos.updates", c.vos_updates)
        .num("vos.fetches", c.vos_fetches)
        .num("vos.index_ops", c.vos_index_ops)
        .num("media.write_ops", c.media_write_ops)
        .num("media.read_ops", c.media_read_ops)
        .num("raft.commit_ns", raft)
        .num("placement.place_ns", place);
    j.finish()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.as_slice() {
        [mode, name, seed] => Workload::parse(name).and_then(|w| {
            let seed = match seed.as_str() {
                "default" => Some(w.default_seed()),
                s => s.parse::<u64>().ok(),
            };
            seed.map(|s| (mode.as_str(), w, s))
        }),
        _ => None,
    };
    let line = match parsed {
        Some(("run", w, seed)) => cmd_run(w, seed),
        Some(("trace", w, seed)) => cmd_trace(w, seed),
        _ => {
            eprintln!("usage: perfbench run|trace <workload> <seed>|default");
            return ExitCode::from(2);
        }
    };
    println!("{line}");
    ExitCode::SUCCESS
}
