//! Metric names, units and the statistics the benchmark reports.
//!
//! The lists here are the single source of the command's metric names;
//! `tests/names.rs` checks them against `BENCHMARK.json` in both
//! directions.

use std::collections::BTreeMap;

use obs::spans::Comp;
use ptm::Phase;

/// One metric's name, unit and better direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// Operation types, each timed separately in the traced run.
pub const OP_TYPES: [&str; 9] = [
    "tpcc.new_order",
    "tpcc.payment",
    "bptree.insert",
    "bptree.get",
    "bptree.remove",
    "kv.get",
    "kv.set",
    "xfer.transfer",
    "xfer.multiget",
];

/// Index of an operation type in [`OP_TYPES`].
pub fn op_type(name: &str) -> usize {
    OP_TYPES
        .iter()
        .position(|t| *t == name)
        .unwrap_or_else(|| panic!("unknown op type {name}"))
}

/// End-to-end metrics: printed by untraced runs (`--trace 0`).
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("vthroughput_mops", "Mops/vs", "higher"),
        def("capacity_mops", "Mops/vs", "higher"),
        def("op_p50_vus", "vus", "lower"),
        def("op_p99_vus", "vus", "lower"),
        def("setup_s", "s", "lower"),
        def("peak_rss_mib", "MiB", "lower"),
    ]
}

/// Host-time results of the whole simulator. They drift with other
/// tenants of a shared host by more than any end-to-end bound allows,
/// so they carry no bound: per-layer metrics, also shown (unbounded) in
/// the untraced report.
pub fn host_time() -> Vec<MetricDef> {
    vec![
        def("sim_kops_per_host_s", "kops/s", "higher"),
        def("restart_s", "s", "lower"),
    ]
}

/// Per-layer metrics: printed by traced runs (`--trace 1`).
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = host_time();
    v.extend([
        def("pmem.sfences_per_commit", "count", "lower"),
        def("pmem.clwbs_per_commit", "count", "lower"),
        def("pmem.fence_wait_vns_per_op", "vns", "lower"),
        def("pmem.wpq_stall_vns_per_op", "vns", "lower"),
        def("pmem.optane_lines_written_per_op", "count", "lower"),
        def("pmem.l3_miss_ratio", "ratio", "lower"),
        def("pmem.loads_per_op", "count", "lower"),
        def("pmem.stores_per_op", "count", "lower"),
        def("pmem.host_ns_per_event", "ns", "lower"),
    ]);
    for p in Phase::ALL {
        v.push(def(format!("ptm.{}_vns_per_op", p.label()), "vns", "lower"));
    }
    v.extend([
        def("ptm.commit_ratio", "ratio", "higher"),
        def("ptm.prepares_per_op", "count", "lower"),
        def("ptm.prepare_fence_vns_per_prepare", "vns", "lower"),
        def("ptm.recovery_s", "s", "lower"),
        def("ptm.logs_replayed", "count", "higher"),
        def("palloc.gc_scan_s", "s", "lower"),
        def("palloc.gc_mark_s", "s", "lower"),
        def("palloc.gc_sweep_s", "s", "lower"),
        def("palloc.live_blocks", "count", "higher"),
        def("palloc.format_s", "s", "lower"),
        def("palloc.heap_high_water_mib", "MiB", "lower"),
    ]);
    for t in OP_TYPES {
        v.push(def(format!("op.{t}.p50_vus"), "vus", "lower"));
        v.push(def(format!("op.{t}.p99_vus"), "vus", "lower"));
        v.push(def(format!("op.{t}.host_us"), "us", "lower"));
    }
    v.extend([
        def("shard.queue_wait_p99_vus", "vus", "lower"),
        def("shard.max_backlog", "count", "lower"),
        def("shard.imbalance", "ratio", "lower"),
    ]);
    for c in Comp::ALL {
        v.push(def(format!("shard.p99_{}_vus", c.label()), "vus", "lower"));
    }
    v.extend([
        def("trace.host_overhead_ratio", "ratio", "lower"),
        def("trace.events_dropped", "count", "lower"),
    ]);
    v
}

/// Named metric values of one run; a name a workload does not measure
/// stays absent and is printed as 0 (see the README).
pub type Values = BTreeMap<String, f64>;

/// Percentile of unsorted integer samples (`p` in 0..=100) from the
/// exact order statistics, no histogram. The nearest-rank value `v` is
/// refined inside its 1-unit bin by grouped-data interpolation, so ties
/// (common: many operations take the same virtual time) still resolve
/// to where the rank falls among them: `v - 0.5 + (p·n - below) / tied`,
/// where `below` samples are smaller than `v` and `tied` equal it. The
/// result stays within half a unit of the nearest-rank value. `None`
/// when there are no samples.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let target = (p / 100.0).clamp(0.0, 1.0) * n as f64;
    let v = samples[(target.ceil() as usize).clamp(1, n) - 1];
    let below = samples.partition_point(|&x| x < v);
    let tied = samples.partition_point(|&x| x <= v) - below;
    Some(v as f64 - 0.5 + (target - below as f64) / tied as f64)
}

/// Median of a list of values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// platform does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_follows_the_order_statistics() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50.5));
        assert_eq!(percentile(&mut v, 99.0), Some(99.5));
        assert_eq!(percentile(&mut [7], 99.0), Some(7.49));
        assert_eq!(percentile(&mut [], 50.0), None);
        // Ties resolve by where the rank falls among them.
        let mut ties = vec![5, 5, 5, 5, 9, 9, 9, 9];
        assert_eq!(percentile(&mut ties, 50.0), Some(5.5));
        assert_eq!(percentile(&mut ties, 25.0), Some(5.0));
        assert_eq!(percentile(&mut ties, 75.0), Some(9.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|d| d.name).collect();
        all.extend(per_layer().into_iter().map(|d| d.name));
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
