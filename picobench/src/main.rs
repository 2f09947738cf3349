//! picobench — the host benchmark of the PicoDriver simulator.
//!
//! Runs fixed workloads (see `WORKLOADS`) through `World::new` +
//! `World::run` in a closed loop — one warm-up run, then timed runs —
//! checks every run's simulated outputs, and prints one line per metric
//! (`workload metric value unit`) followed by a one-line JSON summary.
//! With `--trace` it then runs each workload once more inside spans,
//! replays each layer's entry points with that run's inputs, and reports
//! the per-layer metrics and the share of the run each layer accounts for.
//!
//! ```text
//! cargo run --release --manifest-path picobench/Cargo.toml -- \
//!     [--workload W]... [--seed S] [--seconds N] [--trace [0|1]] [--quick] [--out DIR]
//! ```

mod replay;
mod trace;
mod workload;

use pico_cluster::{OsConfig, RunResult};
use pico_sim::memalloc::CountingAlloc;
use pico_sim::Json;
use replay::{Calls, Inputs};
use std::path::PathBuf;
use trace::Tracer;
use workload::{measure, run_once, stats, Budget, Sample, Series, Setup, WORKLOADS};

/// Counting allocator: `peak_mib` is the per-run high-water mark of
/// live heap bytes.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The seed `ClusterConfig::paper` uses: by default the first simulation
/// of every run uses the same seed as the figure binaries.
const PAPER_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

struct Args {
    workloads: Vec<&'static workload::Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: picobench [--workload W]... [--seed S] [--seconds N] [--trace [0|1]] [--quick] [--out DIR]\n\
         workloads: {}",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: PAPER_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: PathBuf::from("target/picobench"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => {
                let name = value();
                match WORKLOADS.iter().find(|w| w.name == name) {
                    Some(w) => args.workloads.push(w),
                    None => {
                        eprintln!("unknown workload {name:?}");
                        usage()
                    }
                }
            }
            "--seed" => {
                let s = value();
                let parsed = match s.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => s.parse(),
                };
                args.seed = parsed.unwrap_or_else(|_| usage());
            }
            "--seconds" => {
                let s: f64 = value().parse().unwrap_or_else(|_| usage());
                if !(s.is_finite() && s > 0.0) {
                    usage()
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone turns tracing on; `--trace 0|1` sets it.
                let flag = match it.peek().map(String::as_str) {
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    _ => None,
                };
                if flag.is_some() {
                    it.next();
                }
                args.trace = flag.unwrap_or(true);
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()),
            _ => usage(),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().collect();
    }
    args
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// `(min, max, n)` of a timed sample.
    spread: Option<(f64, f64, usize)>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        spread: None,
    }
}

fn timed(name: &'static str, values: impl IntoIterator<Item = f64>, unit: &'static str) -> Metric {
    let v: Vec<f64> = values.into_iter().collect();
    let (median, min, max) = stats(v.iter().copied());
    Metric {
        name,
        value: median,
        unit,
        spread: Some((min, max, v.len())),
    }
}

fn value_json(m: &Metric) -> Json {
    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))])
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::obj(ms.iter().map(|m| (m.name, value_json(m))))
}

struct Report {
    name: &'static str,
    why: &'static str,
    config: Json,
    digest: String,
    runs: Vec<Json>,
    end_to_end: Vec<Metric>,
    model: Vec<Metric>,
    per_layer: Vec<Metric>,
    series: Series,
}

fn bench_workload(setup: &Setup, args: &Args, tracer: &mut Tracer) -> Report {
    let wl = setup.wl;
    let budget = match args.seconds {
        Some(s) => Budget::Seconds(s),
        None if args.quick => Budget::Runs(2),
        None => Budget::Runs(5),
    };
    let extra_setups = if args.quick { 1 } else { 10 };
    let mut m = measure(setup, budget, extra_setups);
    let last = m.timed.last().expect("at least one timed run");
    // The `--seed` simulation: simulated outputs and per-layer ratios refer
    // to it alone.
    let first = &last.sims[0].result;
    let config = setup.describe(first);
    let digest = last.digest();
    let (run_s, _, _) = stats(m.timed.iter().map(Sample::run_s));
    let (first_run_s, _, _) = stats(m.timed.iter().map(|s| s.sims[0].run_s));
    let end_to_end = vec![
        timed("run_s", m.timed.iter().map(Sample::run_s), "s"),
        timed("setup_s", m.setup_s.iter().copied(), "s"),
        timed("peak_mib", m.timed.iter().map(|s| s.peak_mib), "MiB"),
    ];
    let model = vec![
        metric("model.sim_wall_ms", first.wall_time.0 as f64 / 1e6, "ms"),
        metric("model.ranks_done", first.ranks_done.into(), "count"),
    ];
    let runs = m
        .timed
        .iter()
        .chain(&m.single_worker)
        .map(|s| {
            Json::obj([
                (
                    "setup_s",
                    Json::arr(s.sims.iter().map(|m| Json::Num(m.setup_s))),
                ),
                ("run_s", Json::Num(s.run_s())),
                ("peak_mib", Json::Num(s.peak_mib)),
                ("threads", Json::UInt(s.threads as u64)),
                ("digest", Json::str(s.digest())),
            ])
        })
        .collect();
    let per_layer = if args.trace {
        let worker_speedup = m
            .single_worker
            .as_ref()
            .map_or(1.0, |s| s.run_s() / first_run_s);
        tracer.span("workload", wl.name, |t| {
            traced_layers(
                setup,
                args,
                run_s,
                first_run_s,
                worker_speedup,
                &mut m.series,
                t,
            )
        })
    } else {
        Vec::new()
    };
    Report {
        name: wl.name,
        why: wl.why,
        config,
        digest,
        runs,
        end_to_end,
        model,
        per_layer,
        series: m.series,
    }
}

/// The traced pass: one run inside spans, runs at an eighth of the nodes
/// for the per-dispatch cost growth, and the layer replays. `run_s` is the
/// untraced median of whole runs, `first_run_s` that of the `--seed`
/// simulation, whose counts the per-layer metrics report.
fn traced_layers(
    setup: &Setup,
    args: &Args,
    run_s: f64,
    first_run_s: f64,
    worker_speedup: f64,
    series: &mut Series,
    t: &mut Tracer,
) -> Vec<Metric> {
    let traced = run_once(setup, setup.nodes, setup.threads, setup.seeds.len(), t);
    series.check(&traced);
    let r = &traced.sims[0].result;
    let dispatches = |r: &RunResult| (r.sim_events + r.soft_deliveries).max(1) as f64;
    let ns_per_dispatch = first_run_s * 1e9 / dispatches(r);

    let small_nodes = (setup.nodes / 8).max(2).min(setup.nodes);
    let mut small = Series::new(small_nodes * setup.rpn);
    let small_ns: Vec<f64> = (0..3)
        .map(|_| {
            let s = run_once(setup, small_nodes, setup.threads, 1, t);
            small.check(&s);
            s.run_s() * 1e9 / dispatches(&s.sims[0].result)
        })
        .collect();
    series.absorb(small);
    let (small_ns, _, _) = stats(small_ns);

    let cfg = setup.config(setup.nodes, setup.threads, setup.seeds[0]);
    let inputs = Inputs::of(&cfg, setup.wl.app, r);
    let calls = Calls::of(r, inputs.windows_per_rndv(&cfg.psm));
    let budget_ms = if args.quick { 2 } else { 150 };
    let rp = replay::run(&cfg, r, &inputs, budget_ms, t);

    let run_ns = first_run_s * 1e9;
    let share = |ns: f64| ns / run_ns;
    let tid_pairs = (calls.ioctl / 2) as f64;
    let driver = calls.writev as f64 * rp.hfi1_writev_ns + tid_pairs * rp.hfi1_tid_ns;
    let fast = calls.writev as f64 * rp.core_writev_ns + tid_pairs * rp.core_tid_ns;
    let (hfi1_ns, core_ns) = match setup.wl.os {
        OsConfig::McKernelHfi => (0.0, fast),
        OsConfig::Linux | OsConfig::McKernel => (driver, 0.0),
    };
    // Only fast-path registrations look the cache up, and only its misses
    // program RcvArray entries.
    let tid_hit_ratio = if setup.wl.os == OsConfig::McKernelHfi && tid_pairs > 0.0 {
        let misses = r.tid_programs as f64 / rp.tid_entries_per_miss.max(1.0);
        (1.0 - misses / tid_pairs).max(0.0)
    } else {
        0.0
    };
    let shares = [
        ("sim.est_share", share(rp.queue_ns * r.sim_events as f64)),
        (
            "fabric.est_share",
            share(rp.member_ns * r.fabric_sink_members as f64),
        ),
        (
            "psm.est_share",
            share(rp.eager_ns * calls.eager as f64 + rp.rndv_ns * calls.rndv as f64),
        ),
        ("hfi1.est_share", share(hfi1_ns)),
        ("core.est_share", share(core_ns)),
        (
            "ihk.est_share",
            share(rp.offload_ns * r.offloaded_calls as f64),
        ),
        (
            "mem.est_share",
            share(rp.mmap_munmap_ns * calls.munmap as f64),
        ),
    ];
    let attributed: f64 = shares.iter().map(|&(_, s)| s).sum();
    let prof = &r.wheel_profile;

    let mut out = vec![
        metric("sim.events", r.sim_events as f64, "count"),
        metric("cluster.soft_deliveries", r.soft_deliveries as f64, "count"),
        metric("cluster.ns_per_dispatch", ns_per_dispatch, "ns"),
        metric(
            "sim.wheel_overflow_share",
            prof.sched_overflow as f64 / prof.total().max(1) as f64,
            "ratio",
        ),
        metric("sim.queue_ns_per_op", rp.queue_ns, "ns"),
        metric(
            "cluster.dispatch_cost_growth",
            ns_per_dispatch / small_ns,
            "ratio",
        ),
        metric("cluster.worker_speedup", worker_speedup, "ratio"),
        metric("cluster.stat_bytes", r.stat_bytes as f64, "bytes"),
        metric(
            "cluster.shard_state_bytes",
            r.shard_state_bytes as f64,
            "bytes",
        ),
        metric("fabric.sink_members", r.fabric_sink_members as f64, "count"),
        metric("fabric.sinks", r.fabric_sinks as f64, "count"),
        metric("fabric.bytes", r.fabric_bytes as f64, "bytes"),
        metric(
            "fabric.pause_ratio",
            r.fabric_sink_pauses as f64 / r.fabric_sink_members.max(1) as f64,
            "ratio",
        ),
        metric("fabric.member_ns", rp.member_ns, "ns"),
        metric("mpi.calls", calls.mpi as f64, "count"),
        metric("psm.eager_ns", rp.eager_ns, "ns"),
        metric("psm.rndv_ns", rp.rndv_ns, "ns"),
        metric("hfi1.pio_sends", r.pio_sends as f64, "count"),
        metric("hfi1.tid_programs", r.tid_programs as f64, "count"),
        metric("hfi1.ioctl_calls", calls.ioctl as f64, "count"),
        metric("hfi1.writev_calls", calls.writev as f64, "count"),
        metric("hfi1.writev_ns", rp.hfi1_writev_ns, "ns"),
        metric("hfi1.tid_update_ns", rp.hfi1_tid_ns, "ns"),
        metric("core.writev_ns", rp.core_writev_ns, "ns"),
        metric("core.tid_update_ns", rp.core_tid_ns, "ns"),
        metric("core.tid_cache_hit_ratio", tid_hit_ratio, "ratio"),
        metric("ihk.offloaded_calls", r.offloaded_calls as f64, "count"),
        metric(
            "ihk.queue_wait_ms",
            r.offload_queue_wait.0 as f64 / 1e6,
            "ms",
        ),
        metric("ihk.offload_ns", rp.offload_ns, "ns"),
        metric("mem.mmap_calls", calls.mmap as f64, "count"),
        metric("mem.munmap_calls", calls.munmap as f64, "count"),
        metric("mem.mmap_munmap_ns", rp.mmap_munmap_ns, "ns"),
        metric("mckernel.alloc_free_ns", rp.alloc_free_ns, "ns"),
        metric("mckernel.remote_free_ns", rp.remote_free_ns, "ns"),
        metric("dwarf.port_us", rp.port_us, "us"),
    ];
    out.extend(shares.iter().map(|&(name, s)| metric(name, s, "share")));
    out.push(metric(
        "cluster.unattributed_share",
        1.0 - attributed,
        "share",
    ));
    out.push(metric(
        "bench.trace_overhead",
        traced.run_s() / run_s - 1.0,
        "ratio",
    ));
    out
}

fn write(path: &std::path::Path, doc: &Json) {
    if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
        eprintln!("picobench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tracer = Tracer::new(args.trace);
    let reports: Vec<Report> = args
        .workloads
        .iter()
        .map(|&wl| {
            let setup = Setup::new(wl, args.quick, args.seed, host_threads);
            bench_workload(&setup, &args, &mut tracer)
        })
        .collect();

    let single = reports.len() == 1;
    let mut summary = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for rep in &reports {
        println!("{} config {}", rep.name, rep.config);
        println!("{} model.digest {} hex", rep.name, rep.digest);
        for m in rep
            .end_to_end
            .iter()
            .chain(&rep.model)
            .chain(&rep.per_layer)
        {
            match m.spread {
                Some((min, max, n)) => println!(
                    "{} {} {} {} min={min} max={max} n={n}",
                    rep.name, m.name, m.value, m.unit
                ),
                None => println!("{} {} {} {}", rep.name, m.name, m.value, m.unit),
            }
        }
        let s = &rep.series;
        println!(
            "{} failed_frac {} ratio ({} of {} runs)",
            rep.name,
            s.failed as f64 / s.attempted as f64,
            s.failed,
            s.attempted
        );
        for f in &s.failures {
            eprintln!("picobench: {}: failed run: {f}", rep.name);
        }
        attempted += s.attempted;
        failed += s.failed;
        let reported: Vec<&Metric> = if args.trace {
            rep.per_layer.iter().chain(&rep.model).collect()
        } else {
            rep.end_to_end.iter().collect()
        };
        for m in reported {
            let name = if single {
                m.name.to_string()
            } else {
                format!("{}.{}", rep.name, m.name)
            };
            summary.push((name, value_json(m)));
        }
    }

    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("picobench: cannot create {}: {e}", args.out.display());
        std::process::exit(1);
    }
    let doc = Json::obj([
        ("seed", Json::UInt(args.seed)),
        ("quick", Json::Bool(args.quick)),
        ("trace", Json::Bool(args.trace)),
        ("available_parallelism", Json::UInt(host_threads as u64)),
        (
            "workloads",
            Json::arr(reports.iter().map(|rep| {
                Json::obj([
                    ("name", Json::str(rep.name)),
                    ("why", Json::str(rep.why)),
                    ("config", rep.config.clone()),
                    ("digest", Json::str(rep.digest.clone())),
                    ("attempted", Json::UInt(rep.series.attempted)),
                    ("failed", Json::UInt(rep.series.failed)),
                    (
                        "failures",
                        Json::arr(rep.series.failures.iter().map(|f| Json::str(f.clone()))),
                    ),
                    ("runs", Json::Arr(rep.runs.clone())),
                    ("end_to_end", metrics_json(&rep.end_to_end)),
                    ("model", metrics_json(&rep.model)),
                    ("per_layer", metrics_json(&rep.per_layer)),
                ])
            })),
        ),
    ]);
    write(&args.out.join("picobench.json"), &doc);
    if let Some(trace) = tracer.to_json() {
        write(&args.out.join("trace.json"), &trace);
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::UInt(attempted)),
            ("failed", Json::UInt(failed)),
            ("metrics", Json::Obj(summary)),
        ])
    );
}
