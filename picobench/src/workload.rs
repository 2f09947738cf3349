//! The benchmark's workloads, the closed loop that times them, and the
//! correctness check every run passes through.

use crate::trace::Tracer;
use pico_apps::{App, JobShape};
use pico_cluster::{ClusterConfig, EngineMode, OsConfig, RunResult, World};
use pico_sim::{memalloc, Json, Rng};
use std::time::Instant;

/// One fixed simulator input. The node, rank and iteration counts are the
/// full-size point; `--quick` shrinks them.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub app: App,
    pub os: OsConfig,
    pub nodes: u32,
    pub rpn: u32,
    pub iters: u32,
    pub engine: EngineMode,
    /// Shards of the sharded engine. Pinned because the shard count
    /// changes results; 1 on the single-queue engine.
    pub shards: usize,
    /// Simulations per run, each with its own seed: host time varies with
    /// the seed by more than run-to-run noise, so a run averages several.
    pub seeds: usize,
}

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "umt-pico",
        why: "UMT2013 on McKernel+HFI1: the PicoDriver fast path (SDMA writev, TID cache), \
              rendezvous and incast sinks on the single-queue engine",
        app: App::Umt2013,
        os: OsConfig::McKernelHfi,
        nodes: 64,
        rpn: 32,
        iters: 2,
        engine: EngineMode::SingleQueue,
        shards: 1,
        seeds: 4,
    },
    Workload {
        name: "qbox-linux",
        why: "QBOX on Linux: ioctl/writev get_user_pages over fragmented 4 KiB memory and \
              scratch mmap churn, no offloads and few events",
        app: App::Qbox,
        os: OsConfig::Linux,
        nodes: 8,
        rpn: 32,
        iters: 1,
        engine: EngineMode::SingleQueue,
        shards: 1,
        seeds: 2,
    },
    Workload {
        name: "lammps-offload",
        why: "LAMMPS on McKernel: eager PIO halo traffic plus IHK-offloaded syscalls; bypasses \
              SDMA, TID and rendezvous",
        app: App::Lammps,
        os: OsConfig::McKernel,
        nodes: 64,
        rpn: 64,
        iters: 2,
        engine: EngineMode::SingleQueue,
        shards: 1,
        seeds: 4,
    },
    Workload {
        name: "umt-scale",
        why: "UMT2013 at 4096 nodes x 1 rank on the sharded engine: per-event cost at scale, \
              shard windows, flyweight set-up and O(nodes) state",
        app: App::Umt2013,
        os: OsConfig::McKernelHfi,
        nodes: 4096,
        rpn: 1,
        iters: 1,
        engine: EngineMode::Sharded,
        shards: 4,
        seeds: 3,
    },
];

/// A workload at the size and seed this invocation runs it with.
pub struct Setup {
    pub wl: &'static Workload,
    pub nodes: u32,
    pub rpn: u32,
    pub iters: u32,
    /// One simulation per seed in every run: the first is the `--seed`
    /// itself, the rest are derived from it.
    pub seeds: Vec<u64>,
    /// Workers of the timed runs: two on the sharded engine where the host
    /// has them, otherwise one.
    pub threads: usize,
}

impl Setup {
    pub fn new(wl: &'static Workload, quick: bool, seed: u64, host_threads: usize) -> Setup {
        let (nodes, rpn, iters) = if quick {
            (wl.nodes.min(4), wl.rpn.min(4), wl.iters.min(2))
        } else {
            (wl.nodes, wl.rpn, wl.iters)
        };
        let threads = if wl.engine == EngineMode::Sharded {
            host_threads.min(2)
        } else {
            1
        };
        let root = Rng::new(seed);
        let seeds = (0..wl.seeds)
            .map(|i| {
                if i == 0 {
                    seed
                } else {
                    root.substream(i as u64).next_u64()
                }
            })
            .collect();
        Setup {
            wl,
            nodes,
            rpn,
            iters,
            seeds,
            threads,
        }
    }

    /// The cluster configuration at `nodes` nodes and `threads` workers,
    /// with engine, shards and threads set explicitly so nothing depends
    /// on `PICO_THREADS` or the host's core count.
    pub fn config(&self, nodes: u32, threads: usize, seed: u64) -> ClusterConfig {
        let mut cfg = ClusterConfig::paper(
            self.wl.os,
            JobShape {
                nodes,
                ranks_per_node: self.rpn,
            },
        );
        cfg.seed = seed;
        cfg.engine = self.wl.engine;
        cfg.shards = Some(self.wl.shards.min(nodes as usize));
        cfg.threads = Some(threads);
        cfg
    }

    /// The effective configuration of a finished run.
    pub fn describe(&self, r: &RunResult) -> Json {
        let cfg = self.config(self.nodes, self.threads, self.seeds[0]);
        Json::obj([
            ("os", Json::str(self.wl.os.label())),
            ("app", Json::str(self.wl.app.name())),
            ("nodes", Json::UInt(self.nodes.into())),
            ("rpn", Json::UInt(self.rpn.into())),
            ("iters", Json::UInt(self.iters.into())),
            ("engine", Json::str(format!("{:?}", cfg.engine))),
            ("fabric", Json::str(format!("{:?}", cfg.batch_fabric))),
            ("shards", Json::UInt(r.shards.into())),
            ("threads", Json::UInt(r.threads.into())),
            (
                "seeds",
                Json::arr(self.seeds.iter().map(|&s| Json::UInt(s))),
            ),
        ])
    }
}

/// The simulated outputs two runs of one configuration must agree on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    wall_ns: u64,
    events: u64,
    arrivals: u64,
    finish: u64,
    latency: u64,
}

impl Digest {
    pub fn of(r: &RunResult) -> Digest {
        Digest {
            wall_ns: r.wall_time.0,
            events: r.sim_events,
            arrivals: r.arrival_digest,
            finish: r.finish.digest(),
            latency: r.arrival_latency.digest(),
        }
    }

    /// All five fields folded into one printable value.
    pub fn hex(&self) -> String {
        let mut h = 0u64;
        for v in [
            self.wall_ns,
            self.events,
            self.arrivals,
            self.finish,
            self.latency,
        ] {
            h = (h ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
        }
        format!("{h:016x}")
    }
}

/// One simulation of a run: its `World::new` and `World::run` times.
pub struct Sim {
    pub setup_s: f64,
    pub run_s: f64,
    pub result: RunResult,
}

/// One timed run: one simulation per seed of the setup, back to back.
pub struct Sample {
    pub sims: Vec<Sim>,
    /// Highest per-simulation peak.
    pub peak_mib: f64,
    pub threads: usize,
}

impl Sample {
    /// Host seconds in `World::run`, summed over the run's simulations.
    pub fn run_s(&self) -> f64 {
        self.sims.iter().map(|s| s.run_s).sum()
    }

    pub fn digest(&self) -> String {
        let d: Vec<String> = self
            .sims
            .iter()
            .map(|s| Digest::of(&s.result).hex())
            .collect();
        d.join("-")
    }
}

/// Build and run one world for each of the first `sims` seeds. Peak
/// memory is the counting allocator's high-water mark above what was live
/// before each world was built.
pub fn run_once(
    setup: &Setup,
    nodes: u32,
    threads: usize,
    sims: usize,
    tracer: &mut Tracer,
) -> Sample {
    let (app, iters) = (setup.wl.app, setup.iters);
    tracer.span("run", format!("run {nodes}n/{threads}w"), |t| {
        let mut peak = 0u64;
        let sims = setup.seeds[..sims]
            .iter()
            .map(|&seed| {
                let cfg = setup.config(nodes, threads, seed);
                let base = memalloc::live_bytes();
                memalloc::reset_peak();
                let t0 = Instant::now();
                let world = t.span("layer", "world_new", |_| World::new(cfg, app, iters));
                let setup_s = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let result = t.span("layer", "world_run", |_| world.run());
                let run_s = t1.elapsed().as_secs_f64();
                peak = peak.max(memalloc::peak_bytes().saturating_sub(base));
                Sim {
                    setup_s,
                    run_s,
                    result,
                }
            })
            .collect();
        Sample {
            sims,
            peak_mib: peak as f64 / (1u64 << 20) as f64,
            threads,
        }
    })
}

/// Runs of one configuration, checked against each other: every
/// simulation must finish all ranks, clamp no event, corrupt no payload,
/// and reproduce the digest the first run got for its seed (whatever the
/// worker count). A run fails if any of its simulations does.
pub struct Series {
    nranks: u32,
    reference: Vec<Digest>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Series {
    pub fn new(nranks: u32) -> Series {
        Series {
            nranks,
            reference: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn check(&mut self, s: &Sample) {
        let mut why = Vec::new();
        for (k, sim) in s.sims.iter().enumerate() {
            let r = &sim.result;
            let digest = Digest::of(r);
            if self.reference.len() == k {
                self.reference.push(digest);
            }
            if r.ranks_done < self.nranks {
                why.push(format!(
                    "seed #{k}: ranks_done {} < {}",
                    r.ranks_done, self.nranks
                ));
            }
            if r.clamped_events != 0 {
                why.push(format!("seed #{k}: clamped_events {}", r.clamped_events));
            }
            if r.payload_errors != 0 {
                why.push(format!("seed #{k}: payload_errors {}", r.payload_errors));
            }
            if digest != self.reference[k] {
                why.push(format!(
                    "seed #{k}: digest {} differs from {} ({} workers)",
                    digest.hex(),
                    self.reference[k].hex(),
                    s.threads
                ));
            }
        }
        self.attempted += 1;
        if !why.is_empty() {
            self.failed += 1;
            self.failures.push(why.join(", "));
        }
    }

    pub fn absorb(&mut self, other: Series) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// How long the timed loop runs.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Exactly this many timed runs.
    Runs(usize),
    /// Timed runs until this many seconds have passed, at least three.
    Seconds(f64),
}

/// The untimed warm-up, the timed runs, and (where the timed runs use
/// more than one worker) a single-worker simulation of the first seed
/// whose digest must match; all with tracing off.
pub struct Measured {
    pub timed: Vec<Sample>,
    pub single_worker: Option<Sample>,
    /// `World::new` times of the timed runs plus `extra_setups` worlds of
    /// the first seed built and dropped without running: set-up is short,
    /// so it gets more samples than the runs.
    pub setup_s: Vec<f64>,
    pub series: Series,
}

pub fn measure(setup: &Setup, budget: Budget, extra_setups: usize) -> Measured {
    let tracer = &mut Tracer::new(false);
    let sims = setup.seeds.len();
    let mut series = Series::new(setup.nodes * setup.rpn);
    let warm = run_once(setup, setup.nodes, setup.threads, sims, tracer);
    series.check(&warm);
    drop(warm);
    let start = Instant::now();
    let mut timed = Vec::new();
    loop {
        let done = match budget {
            Budget::Runs(n) => timed.len() >= n,
            Budget::Seconds(s) => timed.len() >= 3 && start.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        let s = run_once(setup, setup.nodes, setup.threads, sims, tracer);
        series.check(&s);
        timed.push(s);
    }
    let single_worker = (setup.threads > 1).then(|| {
        let s = run_once(setup, setup.nodes, 1, 1, tracer);
        series.check(&s);
        s
    });
    let mut setup_s: Vec<f64> = timed
        .iter()
        .flat_map(|s| s.sims.iter().map(|m| m.setup_s))
        .collect();
    for _ in 0..extra_setups {
        let cfg = setup.config(setup.nodes, setup.threads, setup.seeds[0]);
        let t0 = Instant::now();
        let world = World::new(cfg, setup.wl.app, setup.iters);
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(world);
    }
    Measured {
        timed,
        single_worker,
        setup_s,
        series,
    }
}

/// Median, minimum and maximum of a non-empty sample.
pub fn stats(values: impl IntoIterator<Item = f64>) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.into_iter().collect();
    assert!(!v.is_empty(), "statistics of an empty sample");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    (median, v[0], v[n - 1])
}
