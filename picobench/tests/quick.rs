//! `--quick --trace` end to end, twice: every workload shrunk to at most
//! 4 nodes × 4 ranks per node.

use pico_sim::Json;
use std::path::Path;
use std::process::Command;

struct Outcome {
    summary: Json,
    report: Json,
}

fn run(out: &Path) -> Outcome {
    let output = Command::new(env!("CARGO_BIN_EXE_picobench"))
        .args(["--quick", "--trace", "--out"])
        .arg(out)
        .output()
        .expect("spawn picobench");
    assert!(
        output.status.success(),
        "picobench failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a summary line");
    let trace = std::fs::read_to_string(out.join("trace.json")).expect("trace.json written");
    let parsed = Json::parse(&trace).expect("trace.json parses");
    assert_eq!(
        Json::parse(&parsed.to_string()).expect("re-serialized trace parses"),
        parsed,
        "trace.json round-trips"
    );
    match parsed.get("traceEvents") {
        Some(Json::Arr(events)) => assert!(!events.is_empty(), "trace has spans"),
        other => panic!("traceEvents missing: {other:?}"),
    }
    let report = std::fs::read_to_string(out.join("picobench.json")).expect("report written");
    Outcome {
        summary: Json::parse(last).expect("summary line is JSON"),
        report: Json::parse(&report).expect("picobench.json parses"),
    }
}

fn pairs(j: &Json) -> &[(String, Json)] {
    match j {
        Json::Obj(p) => p,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn workloads(report: &Json) -> &[Json] {
    match report.get("workloads") {
        Some(Json::Arr(w)) => w,
        other => panic!("workloads missing: {other:?}"),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Values that must repeat exactly: counts, byte sizes and simulated
/// outputs (host timings and replay costs may differ).
fn exact(report: &Json) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    for w in workloads(report) {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        out.push((
            format!("{name}.digest"),
            w.get("digest").expect("digest").clone(),
        ));
        for section in ["model", "per_layer"] {
            for (metric, v) in pairs(w.get(section).expect("metric section")) {
                let unit = v.get("unit").and_then(Json::as_str).expect("unit");
                if matches!(unit, "count" | "bytes") || section == "model" {
                    out.push((
                        format!("{name}.{metric}"),
                        v.get("value").expect("value").clone(),
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn quick_runs_are_correct_and_repeat() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let first = run(&dir.join("quick-1"));
    let second = run(&dir.join("quick-2"));

    for o in [&first, &second] {
        let s = &o.summary;
        assert_eq!(s.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(
            s.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "failed_frac == 0"
        );
        assert!(s.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
        let metrics = pairs(s.get("metrics").expect("metrics"));
        assert!(!metrics.is_empty());
        for (name, _) in metrics {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        assert_eq!(workloads(&o.report).len(), 4, "all four workloads ran");
        for w in workloads(&o.report) {
            assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0));
            for section in ["end_to_end", "model", "per_layer"] {
                for (name, _) in pairs(w.get(section).expect("metric section")) {
                    assert!(valid_name(name), "bad metric name {name:?}");
                }
            }
        }
    }

    let (a, b) = (exact(&first.report), exact(&second.report));
    assert!(a.len() >= 4 * 15, "count metrics present");
    assert_eq!(a, b, "count metrics and simulated outputs repeat exactly");
}
