//! Nightly bench trending: diff two `BENCH_sim.json` artifacts.
//!
//! ```text
//! benchdiff <previous.json> [fresh.json]
//! ```
//!
//! `fresh.json` defaults to `results/BENCH_sim.json`. Every trended
//! metric present in both artifacts is compared; a move of more than
//! 10% in the regressing direction fails the run with exit code 1 —
//! the scheduled CI job turns red while per-push CI stays untouched.
//! Each metric carries a direction: throughput figures
//! (`events_per_sec`, queue speedup) and gate ratios (flow / incast
//! event reductions, the stat-memory and node-model reductions) regress
//! when they *drop*; the weak-scaling memory
//! figures at every node point (`peak_alloc_bytes`, `stat_bytes`,
//! `shard_state_bytes`) regress when they *grow*. A missing or unreadable
//! *previous* artifact is not an error: the first nightly run (or a
//! wiped cache) simply has nothing to trend against, so the tool
//! prints a notice and passes. Likewise two artifacts recorded at
//! different worker counts (the top-level `threads` field) are never
//! compared — every timed figure would shift with the hardware, not
//! the code (and the shard-count heuristic sizes to the host, moving
//! the memory figures too).
//!
//! Metrics are matched by a stable key (pattern/OS/node labels), so
//! reordered rows or newly added benchmarks never misalign a
//! comparison: new metrics start trending the night after they first
//! appear, and sweeps at different node counts land under different
//! keys rather than diffing against each other.

use pico_sim::Json;

/// >10% in the regressing direction fails the nightly job.
const REGRESSION_FRAC: f64 = 0.10;

/// Which way a metric regresses.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Dir {
    /// Throughputs and gate ratios: a drop is a regression.
    HigherIsBetter,
    /// Memory footprints: growth is a regression.
    LowerIsBetter,
}

/// Flatten one artifact into `(metric key, value, direction)` rows —
/// only the figures worth trending night over night (throughputs, gate
/// ratios, and the scale sweep's memory footprints; raw event counts
/// and wall seconds are informational).
fn metrics(doc: &Json) -> Vec<(String, f64, Dir)> {
    fn push_dir(out: &mut Vec<(String, f64, Dir)>, key: String, v: Option<&Json>, dir: Dir) {
        if let Some(x) = v.and_then(Json::as_f64) {
            out.push((key, x, dir));
        }
    }
    let mut out = Vec::new();
    let mut push = |key: String, v: Option<&Json>| {
        push_dir(&mut out, key, v, Dir::HigherIsBetter);
    };
    if let Some(q) = doc.get("queue") {
        push(
            "queue.wheel_events_per_sec".into(),
            q.get("wheel_events_per_sec"),
        );
        push("queue.speedup".into(), q.get("speedup"));
    }
    for row in doc.get("trains").and_then(Json::as_arr).unwrap_or(&[]) {
        let os = row.get("os").and_then(Json::as_str).unwrap_or("?");
        push(
            format!("trains[{os}].event_reduction_incast"),
            row.get("event_reduction_incast"),
        );
    }
    for row in doc.get("incast").and_then(Json::as_arr).unwrap_or(&[]) {
        let pat = row.get("pattern").and_then(Json::as_str).unwrap_or("?");
        push(
            format!("incast[{pat}].event_reduction_incast"),
            row.get("event_reduction_incast"),
        );
    }
    // The sharded-engine speedup is only a trendable figure when it was
    // actually enforced (4+ cores and the nightly node count) — a
    // report-only ratio from a loaded or small host is noise.
    if let Some(p) = doc.get("parallel") {
        if p.get("enforced").and_then(Json::as_bool) == Some(true) {
            push("parallel.speedup".into(), p.get("speedup"));
        }
    }
    let runs = doc
        .get("sweep")
        .and_then(|s| s.get("runs"))
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    for row in runs {
        let os = row.get("os").and_then(Json::as_str).unwrap_or("?");
        let nodes = row.get("nodes").and_then(Json::as_f64).unwrap_or(0.0);
        push(
            format!("sweep[{os},n{nodes}].events_per_sec"),
            row.get("events_per_sec"),
        );
    }
    // Scale-sweep memory footprints: keyed by node count, so a sweep
    // that later adds or drops a point never diffs 1024-node bytes
    // against 4096-node bytes — unmatched keys simply start fresh.
    for row in doc
        .get("weak_scaling")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let nodes = row.get("nodes").and_then(Json::as_f64).unwrap_or(0.0);
        push_dir(
            &mut out,
            format!("weak_scaling[n{nodes}].peak_alloc_bytes"),
            row.get("peak_alloc_bytes"),
            Dir::LowerIsBetter,
        );
        push_dir(
            &mut out,
            format!("weak_scaling[n{nodes}].stat_bytes"),
            row.get("stat_bytes"),
            Dir::LowerIsBetter,
        );
        push_dir(
            &mut out,
            format!("weak_scaling[n{nodes}].shard_state_bytes"),
            row.get("shard_state_bytes"),
            Dir::LowerIsBetter,
        );
    }
    // The stat-memory gate's reduction ratio: the in-run gate enforces
    // the 4x floor; trending catches slow erosion well above it.
    if let Some(g) = doc.get("stat_gate") {
        let nodes = g.get("nodes").and_then(Json::as_f64).unwrap_or(0.0);
        push_dir(
            &mut out,
            format!("stat_gate[n{nodes}].reduction"),
            g.get("reduction"),
            Dir::HigherIsBetter,
        );
    }
    // The flyweight node-model gate: the in-run gate enforces the 4x
    // peak / 3x build floors; trending watches the ratios and the
    // absolute flyweight footprint for slow erosion above them. The
    // build speedup is a wall-clock figure, but both builds run on the
    // same host in the same process, so the *ratio* trends cleanly.
    if let Some(g) = doc.get("node_model_gate") {
        let nodes = g.get("nodes").and_then(Json::as_f64).unwrap_or(0.0);
        push_dir(
            &mut out,
            format!("node_model_gate[n{nodes}].peak_reduction"),
            g.get("peak_reduction"),
            Dir::HigherIsBetter,
        );
        push_dir(
            &mut out,
            format!("node_model_gate[n{nodes}].build_speedup"),
            g.get("build_speedup"),
            Dir::HigherIsBetter,
        );
        push_dir(
            &mut out,
            format!("node_model_gate[n{nodes}].flyweight_peak_bytes"),
            g.get("flyweight_peak_bytes"),
            Dir::LowerIsBetter,
        );
    }
    out
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Json::parse(&text)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(prev_path) = args.next() else {
        eprintln!("usage: benchdiff <previous.json> [fresh.json]");
        std::process::exit(2);
    };
    let fresh_path = args
        .next()
        .unwrap_or_else(|| "results/BENCH_sim.json".into());

    let prev = match load(&prev_path) {
        Ok(doc) => doc,
        Err(e) => {
            // First nightly run or wiped artifact cache: nothing to
            // trend against yet, and that must not fail the job.
            println!("benchdiff: no previous artifact ({prev_path}: {e}); nothing to compare");
            return;
        }
    };
    let fresh = match load(&fresh_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("benchdiff: cannot read fresh artifact {fresh_path}: {e}");
            std::process::exit(2);
        }
    };

    // Wall-clock figures (sweep throughput, sharded speedup) only trend
    // between runs of equal parallelism: a nightly host downgrade from
    // 8 workers to 2 would read as a regression in every timed metric.
    // Artifacts predating the `threads` field trend as before.
    let pt = prev.get("threads").and_then(Json::as_f64);
    let ft = fresh.get("threads").and_then(Json::as_f64);
    if let (Some(p), Some(f)) = (pt, ft) {
        if p != f {
            println!(
                "benchdiff: worker count changed ({p} -> {f} threads); \
                 wall-clock metrics are not comparable — nothing to trend"
            );
            return;
        }
    }

    let old = metrics(&prev);
    let new = metrics(&fresh);
    let mut regressions = 0u32;
    let mut compared = 0u32;
    for (key, nv, dir) in &new {
        let Some((_, ov, _)) = old.iter().find(|(k, _, _)| k == key) else {
            println!("  new      {key}: {nv:.3} (no previous value)");
            continue;
        };
        compared += 1;
        let delta = if *ov > 0.0 { (nv - ov) / ov } else { 0.0 };
        let regressed = match dir {
            Dir::HigherIsBetter => delta < -REGRESSION_FRAC,
            Dir::LowerIsBetter => delta > REGRESSION_FRAC,
        };
        let verdict = if regressed {
            regressions += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "  {verdict:10} {key}: {ov:.3} -> {nv:.3} ({:+.1}%)",
            delta * 100.0
        );
    }
    println!("benchdiff: {compared} metrics compared against {prev_path}, {regressions} regressed");
    if regressions > 0 {
        eprintln!(
            "benchdiff: {regressions} metric(s) moved more than {:.0}% the wrong way night over night",
            REGRESSION_FRAC * 100.0
        );
        std::process::exit(1);
    }
}
