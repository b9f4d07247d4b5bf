//! The command's workloads and metric names, units and directions match
//! `BENCHMARK.json` in both directions, and each workload runs to its
//! end at a small scale with every check passing.

use perfbench::common::Scale;
use perfbench::metrics::{end_to_end, per_layer, MetricDef};
use perfbench::run::{run, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The string value of `"key": "..."` at or after `from`.
fn string_after(s: &str, key: &str, from: usize) -> Option<(String, usize)> {
    let k = s[from..].find(&format!("\"{key}\""))? + from;
    let colon = s[k..].find(':')? + k;
    let open = s[colon..].find('"')? + colon + 1;
    let close = s[open..].find('"')? + open;
    Some((s[open..close].to_string(), close))
}

/// Every `{"name", "unit", "better"}` entry of one top-level array.
fn section(s: &str, key: &str) -> Vec<(String, String, String)> {
    let start = s.find(&format!("\"{key}\"")).expect("section present");
    let end = start + s[start..].find(']').expect("section closes");
    let body = &s[..end];
    let mut out = Vec::new();
    let mut at = start;
    while let Some((name, after)) = string_after(body, "name", at) {
        let (unit, after) = string_after(body, "unit", after).expect("unit");
        let (better, after) = string_after(body, "better", after).expect("better");
        out.push((name, unit, better));
        at = after;
    }
    out
}

fn triples(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
    defs.into_iter()
        .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(section(&json, "end_to_end"), triples(end_to_end()));
    assert_eq!(section(&json, "per_layer"), triples(per_layer()));
}

#[test]
fn workloads_match_benchmark_json() {
    let json = benchmark_json();
    let start = json.find("\"workloads\"").expect("workloads");
    let end = start + json[start..].find(']').expect("workloads close");
    let mut names = Vec::new();
    let mut at = start;
    while let Some((name, after)) = string_after(&json[..end], "name", at) {
        names.push(name);
        at = after;
    }
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_runs_checked_and_prints_every_metric() {
    pmem_sim::silence_simulated_crash_panics();
    for w in WORKLOADS {
        for traced in [false, true] {
            let out = run(w, 7, 0, traced, Scale::Small);
            assert!(out.correct, "{w} (trace {traced}):\n{}", out.report);
            assert!(out.attempted > 0 && out.failed == 0, "{w}");
            let want = if traced { per_layer() } else { end_to_end() };
            let got: Vec<MetricDef> = out.metrics.iter().map(|(d, _)| d.clone()).collect();
            assert_eq!(got, want, "{w}");
            let json = out.json();
            for d in &want {
                assert!(json.contains(&format!("\"{}\": {{\"value\": ", d.name)));
            }
            if !traced {
                for (d, v) in &out.metrics {
                    assert!(*v > 0.0, "{w}: end-to-end metric {} reads {v}", d.name);
                }
            }
        }
    }
}

#[test]
fn sfences_per_commit_separates_adr_from_eadr() {
    pmem_sim::silence_simulated_crash_panics();
    let sfences = |w: &str| {
        let out = run(w, 3, 0, true, Scale::Small);
        out.metrics
            .iter()
            .find(|(d, _)| d.name == "pmem.sfences_per_commit")
            .map(|(_, v)| *v)
            .expect("metric present")
    };
    assert_eq!(sfences("btree-eadr"), 0.0);
    for w in ["tpcc-adr", "kv-open", "xfer-2pc"] {
        assert!(sfences(w) > 0.0, "{w}");
    }
}
