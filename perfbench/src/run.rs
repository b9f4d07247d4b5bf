//! The round loop: repeat whole rounds of a workload for the requested
//! time, fold them into the end-to-end or per-layer metrics, and print.

use std::fmt::Write as _;
use std::time::Instant;

use crate::common::{Round, Scale};
use crate::metrics::{end_to_end, host_time, median, per_layer, MetricDef, Values, OP_TYPES};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["tpcc-adr", "btree-eadr", "kv-open", "xfer-2pc"];

/// Threads (or workers) each workload runs its measured phase on.
pub fn threads_of(workload: &str) -> &'static str {
    match workload {
        "tpcc-adr" => "2 threads, 1 machine",
        "btree-eadr" => "1 thread, 1 machine",
        "kv-open" => "2 shards x 1 worker",
        "xfer-2pc" => "2 shards, 1 roaming worker",
        _ => "?",
    }
}

/// Workloads whose virtual results depend only on the seed: each of
/// their machines runs one thread.
pub fn deterministic(workload: &str) -> bool {
    matches!(workload, "btree-eadr" | "kv-open" | "xfer-2pc")
}

/// One round of `workload`.
pub fn round(workload: &str, seed: u64, traced: bool, scale: Scale) -> Round {
    match workload {
        "tpcc-adr" => crate::tpcc::round(seed, traced, scale),
        "btree-eadr" => crate::btree::round(seed, traced, scale),
        "kv-open" => crate::kv::round(seed, traced, scale),
        "xfer-2pc" => crate::xfer::round(seed, traced, scale),
        _ => panic!("unknown workload {workload}"),
    }
}

/// The virtual-time results of a round, which tracing must not move
/// and which repeat exactly on deterministic workloads.
fn virtual_results(r: &Round) -> (u64, u64, u64, Vec<u64>) {
    (
        r.vthroughput_mops.to_bits(),
        r.capacity_mops.to_bits(),
        r.ops,
        r.lat_vns.clone(),
    )
}

/// Samples behind a percentile metric, `None` for other metrics.
fn sample_count(r: &Round, name: &str) -> Option<usize> {
    if name == "op_p50_vus" || name == "op_p99_vus" {
        return Some(r.lat_vns.len());
    }
    let ty = name.strip_prefix("op.")?.rsplit_once('.')?;
    if !ty.1.starts_with('p') {
        return None;
    }
    let i = OP_TYPES.iter().position(|t| *t == ty.0)?;
    Some(r.samples.iter().filter(|s| s.ty as usize == i).count())
}

/// The result of one benchmark run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the run's kind, in declaration order, with unit.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Human-readable provenance and per-metric lines.
    pub report: String,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        json_line(
            self.correct,
            self.attempted,
            self.failed,
            &metrics_json(&self.metrics, ""),
        )
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The members of a JSON `metrics` object, names prefixed with `prefix`.
pub fn metrics_json(metrics: &[(MetricDef, f64)], prefix: &str) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                num(*v),
                d.unit
            )
        })
        .collect();
    body.join(", ")
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {..}}` around the members `metrics_json` built.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

/// Run whole rounds of `workload` until `seconds` would be exceeded
/// (at least one round, or one untraced/traced pair).
pub fn run(workload: &str, seed: u64, seconds: u64, traced: bool, scale: Scale) -> Outcome {
    let start = Instant::now();
    let budget = seconds as f64;
    let mut plain: Vec<Round> = Vec::new();
    let mut tracd: Vec<Round> = Vec::new();
    loop {
        plain.push(round(workload, seed, false, scale));
        if traced {
            tracd.push(round(workload, seed, true, scale));
        }
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / plain.len() as f64 > budget {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let mut problems: Vec<String> = Vec::new();
    let all = plain.iter().chain(&tracd);
    let attempted: u64 = all.clone().map(|r| r.attempted).sum();
    let mut failed: u64 = all.clone().map(|r| r.failed).sum();
    for r in all {
        problems.extend(r.problems.iter().cloned());
    }
    // Tracing is designed to cost no virtual time, and one thread per
    // machine makes virtual time depend on the seed alone: every round,
    // traced or not, must then reproduce round 0's virtual results.
    if deterministic(workload) {
        let first = virtual_results(&plain[0]);
        let rounds = plain.iter().map(|r| (r, "untraced")).skip(1);
        for (r, kind) in rounds.chain(tracd.iter().map(|r| (r, "traced"))) {
            if virtual_results(r) != first {
                failed += 1;
                problems.push(format!(
                    "a {kind} round's virtual results differ from the first round's"
                ));
            }
        }
    }

    let med = |f: &dyn Fn(&Round) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let mut host = Values::new();
    host.insert(
        "sim_kops_per_host_s".into(),
        med(&|r| r.ops as f64 / r.host_s / 1e3),
    );
    host.insert("restart_s".into(), med(&|r| r.restart_s));
    let mut values = Values::new();
    let (defs, last) = if !traced {
        let p = |r: &Round| r.p50_p99_us();
        values.insert("vthroughput_mops".into(), med(&|r| r.vthroughput_mops));
        values.insert("capacity_mops".into(), med(&|r| r.capacity_mops));
        values.insert("op_p50_vus".into(), med(&|r| p(r).0));
        values.insert("op_p99_vus".into(), med(&|r| p(r).1));
        values.insert("setup_s".into(), med(&|r| r.setup_s));
        // The first round's: later rounds add allocator fragmentation
        // that grows with however many rounds fit.
        values.insert("peak_rss_mib".into(), plain[0].rss_mib);
        (end_to_end(), plain.last().expect("at least one round"))
    } else {
        // Per-layer values from the last traced round; host-time layers
        // from its untraced twin, so they exclude the recorder's cost.
        let t = tracd.last().expect("at least one traced round");
        let u = plain.last().expect("at least one untraced round");
        values = t.layers.clone();
        for (k, v) in &u.layers {
            if k == "pmem.host_ns_per_event" || k.ends_with(".host_us") {
                values.insert(k.clone(), *v);
            }
        }
        let overhead: Vec<f64> = plain
            .iter()
            .zip(&tracd)
            .map(|(u, t)| t.traced_phase_s / u.traced_phase_s)
            .collect();
        values.insert("trace.host_overhead_ratio".into(), median(&overhead));
        values.extend(host.clone());
        values.entry("trace.events_dropped".into()).or_insert(0.0);
        (per_layer(), t)
    };
    let metrics: Vec<(MetricDef, f64)> = defs
        .into_iter()
        .map(|d| {
            let v = values.get(&d.name).copied().unwrap_or(0.0);
            (d, v)
        })
        .collect();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# workload {workload}: seed {seed}, {}, host cores {}, run length {seconds} s, \
         wall {wall_s:.2} s, rounds {} untraced + {} traced, trace {}",
        threads_of(workload),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        plain.len(),
        tracd.len(),
        u8::from(traced),
    );
    let _ = writeln!(report, "# ops attempted {attempted}, failed {failed}");
    for (d, v) in &metrics {
        let n = sample_count(last, &d.name)
            .map_or(String::new(), |n| format!(" (from {n} samples per round)"));
        let _ = writeln!(report, "#   {} = {} {}{n}", d.name, num(*v), d.unit);
    }
    if !traced {
        for d in host_time() {
            let v = host.get(&d.name).copied().unwrap_or(0.0);
            let _ = writeln!(
                report,
                "#   {} = {} {} (host time, unbounded)",
                d.name,
                num(v),
                d.unit
            );
        }
    }
    for p in problems.iter().take(20) {
        let _ = writeln!(report, "# CHECK FAILED: {p}");
    }
    Outcome {
        workload: workload.to_string(),
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        report,
    }
}
