//! What every workload round produces, and the layer folds they share.

use std::sync::Arc;
use std::time::Instant;

use pmem_sim::crash::PoolImage;
use pmem_sim::{CrashImage, Machine, MediaKind, StatsSnapshot};
use ptm::db::ReopenReports;
use ptm::{Phase, PhaseSnapshot, PtmStatsSnapshot, ShardedEngine};

use crate::metrics::{median, peak_rss_mib, percentile, ratio, Values, OP_TYPES};

/// Ring capacity of each thread's flight recorder in the traced run
/// (1M events, 32 MiB per thread). A thread that records more keeps the
/// newest events and reports the loss in `trace.events_dropped`; spans
/// then cover a suffix of the run.
pub const TRACE_RING: usize = 1 << 20;

/// Benchmark scale: `Full` for measurement, `Small` for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// One timed operation, as seen from outside the program.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Index into [`OP_TYPES`].
    pub ty: u8,
    /// Virtual latency: the session clock around the call (closed loop)
    /// or completion minus due time (open loop).
    pub vns: u64,
    /// Host time of the call.
    pub host_ns: u64,
}

/// Times one call in both clocks: started and stopped with the virtual
/// clock of the executor that runs it.
pub struct Stopwatch {
    v0: u64,
    h0: Instant,
}

impl Stopwatch {
    pub fn start(vnow: u64) -> Stopwatch {
        Stopwatch {
            v0: vnow,
            h0: Instant::now(),
        }
    }

    pub fn stop(self, ty: usize, vnow: u64) -> OpSample {
        OpSample {
            ty: ty as u8,
            vns: vnow.saturating_sub(self.v0),
            host_ns: self.h0.elapsed().as_nanos() as u64,
        }
    }
}

/// Everything one round of a workload measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host seconds to build machines and heaps and populate them.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub host_s: f64,
    /// Host seconds of the part of it a traced round records.
    pub traced_phase_s: f64,
    /// Operations committed in the measured phase.
    pub ops: u64,
    pub vthroughput_mops: f64,
    pub capacity_mops: f64,
    /// Virtual latencies behind `op_p50_vus` / `op_p99_vus`.
    pub lat_vns: Vec<u64>,
    /// Per-operation samples (per-type layer metrics).
    pub samples: Vec<OpSample>,
    /// Host seconds from crash or shutdown images to every shard ready.
    pub restart_s: f64,
    /// Peak resident MiB of the process before the restarts.
    pub rss_mib: f64,
    /// Operations issued, and those a correctness check rejected.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Per-layer values (counter-derived ones are filled on every round).
    pub layers: Values,
}

impl Round {
    /// Record a check: `bad` operations failed it, described by `what`.
    pub fn fail(&mut self, bad: u64, what: String) {
        self.failed += bad.max(1);
        self.problems.push(what);
    }

    /// Fold a list of check findings (each naming one failed operation
    /// or aggregate) into the round.
    pub fn fail_all(&mut self, findings: Vec<String>) {
        for f in findings {
            self.fail(1, f);
        }
    }

    /// Exact p50 and p99 of the end-to-end latency samples, in µs.
    pub fn p50_p99_us(&self) -> (f64, f64) {
        let mut v = self.lat_vns.clone();
        let p50 = percentile(&mut v, 50.0).unwrap_or(0.0);
        let p99 = percentile(&mut v, 99.0).unwrap_or(0.0);
        (p50 / 1e3, p99 / 1e3)
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.layers.insert(name.to_string(), v);
    }
}

/// Memory-system, PTM-counter and phase layers of one measured phase.
pub fn counter_layers(
    r: &mut Round,
    mem: &StatsSnapshot,
    ptm: &PtmStatsSnapshot,
    phases: &PhaseSnapshot,
) {
    let ops = r.ops as f64;
    let commits = ptm.commits as f64;
    r.set(
        "pmem.sfences_per_commit",
        ratio(mem.sfences as f64, commits),
    );
    r.set("pmem.clwbs_per_commit", ratio(mem.clwbs as f64, commits));
    r.set(
        "pmem.fence_wait_vns_per_op",
        ratio(mem.fence_wait_ns as f64, ops),
    );
    r.set(
        "pmem.wpq_stall_vns_per_op",
        ratio(mem.wpq_stall_ns as f64, ops),
    );
    r.set(
        "pmem.optane_lines_written_per_op",
        ratio(mem.optane_lines_written as f64, ops),
    );
    r.set(
        "pmem.l3_miss_ratio",
        ratio(mem.l3_misses as f64, (mem.l3_hits + mem.l3_misses) as f64),
    );
    r.set("pmem.loads_per_op", ratio(mem.loads as f64, ops));
    r.set("pmem.stores_per_op", ratio(mem.stores as f64, ops));
    let events = mem.loads + mem.stores + mem.clwbs + mem.sfences;
    r.set(
        "pmem.host_ns_per_event",
        ratio(r.host_s * 1e9, events as f64),
    );
    for p in Phase::ALL {
        r.set(
            &format!("ptm.{}_vns_per_op", p.label()),
            ratio(phases.get(p) as f64, ops),
        );
    }
    r.set(
        "ptm.commit_ratio",
        ratio(commits, (ptm.commits + ptm.aborts) as f64),
    );
    r.set("ptm.prepares_per_op", ratio(ptm.prepares as f64, ops));
    r.set(
        "ptm.prepare_fence_vns_per_prepare",
        ratio(ptm.prepare_fence_ns as f64, ptm.prepares as f64),
    );
}

/// Phase totals summed over every shard's PTM.
pub fn sum_phases(engine: &ShardedEngine) -> PhaseSnapshot {
    let mut total = PhaseSnapshot::default();
    for i in 0..engine.shards() {
        for (t, v) in total.ns.iter_mut().zip(engine.ptm(i).phases_snapshot().ns) {
            *t += v;
        }
    }
    total
}

/// Heap high-water mark summed over every shard, in MiB.
pub fn heap_mib(engine: &ShardedEngine) -> f64 {
    let words: u64 = (0..engine.shards())
        .map(|i| engine.heap(i).high_water_words())
        .sum();
    words_mib(words)
}

/// 64-bit words as MiB.
pub fn words_mib(words: u64) -> f64 {
    words as f64 * 8.0 / (1 << 20) as f64
}

/// Recovery and restart-GC layers of one restart (shard reports merged),
/// and its check that the GC found no corrupt block headers. Returns
/// the merged report.
pub fn restart_layers(r: &mut Round, reports: &[ReopenReports]) -> ReopenReports {
    let mut rep = ReopenReports::default();
    for x in reports {
        rep.merge(x);
    }
    if rep.gc.corrupt_headers != 0 {
        r.fail(
            1,
            format!(
                "restart GC found {} corrupt headers",
                rep.gc.corrupt_headers
            ),
        );
    }
    r.set("ptm.recovery_s", rep.recovery.recovery_ns as f64 / 1e9);
    r.set(
        "ptm.logs_replayed",
        (rep.recovery.redo_replayed
            + rep.recovery.undo_rolled_back
            + rep.recovery.indoubt_resolved_commit
            + rep.recovery.indoubt_resolved_abort) as f64,
    );
    r.set("palloc.gc_scan_s", rep.gc.gc_scan_ns as f64 / 1e9);
    r.set("palloc.gc_mark_s", rep.gc.gc_mark_ns as f64 / 1e9);
    r.set("palloc.gc_sweep_s", rep.gc.gc_sweep_ns as f64 / 1e9);
    r.set("palloc.live_blocks", rep.gc.live_blocks as f64);
    rep
}

/// Per-type p50/p99 virtual latency and mean host time per call.
pub fn op_layers(r: &mut Round) {
    for (i, t) in OP_TYPES.iter().enumerate() {
        let mut v: Vec<u64> = Vec::new();
        let mut host = 0u64;
        for s in r.samples.iter().filter(|s| s.ty as usize == i) {
            v.push(s.vns);
            host += s.host_ns;
        }
        if v.is_empty() {
            continue;
        }
        let n = v.len() as f64;
        let p50 = percentile(&mut v, 50.0).unwrap_or(0.0);
        let p99 = percentile(&mut v, 99.0).unwrap_or(0.0);
        r.set(&format!("op.{t}.p50_vus"), p50 / 1e3);
        r.set(&format!("op.{t}.p99_vus"), p99 / 1e3);
        r.set(&format!("op.{t}.host_us"), host as f64 / n / 1e3);
    }
}

/// The image an orderly power-off leaves: everything cache-visible
/// reaches media (DRAM pools are lost). Needs no durable shadow, so it
/// works on machines built without crash tracking.
pub fn shutdown_image(machine: &Arc<Machine>) -> CrashImage {
    let pools = machine
        .pools()
        .iter()
        .map(|p| PoolImage {
            name: p.name().to_string(),
            media: p.media_kind(),
            class: p.class(),
            words: if p.media_kind() == MediaKind::Dram {
                vec![0; p.len_words()]
            } else {
                (0..p.len_words() as u64).map(|w| p.raw_load(w)).collect()
            },
        })
        .collect();
    CrashImage {
        domain: machine.domain(),
        pools,
    }
}

/// Restarts timed per round: reopening is a pure function of the
/// images, so it is repeated and `restart_s` is the median.
pub const RESTARTS: usize = 5;

/// Run `reopen` [`RESTARTS`] times and return the last result; record
/// the median host seconds as `restart_s`, and the peak memory before
/// them as `rss_mib`. Restarts reboot on helper threads whose allocator
/// arenas make the process peak vary from run to run, so the memory
/// metric stops short of them. Each earlier result is dropped before
/// the next timed reopen, so every reopen starts from the same free
/// memory.
pub fn timed_restart<T>(r: &mut Round, mut reopen: impl FnMut() -> T) -> T {
    r.rss_mib = peak_rss_mib();
    let mut times = Vec::with_capacity(RESTARTS);
    let mut last = None;
    for _ in 0..RESTARTS {
        drop(last.take());
        let t = Instant::now();
        let v = reopen();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    r.restart_s = median(&times);
    last.expect("at least one restart")
}

/// Flight recorder and sampler of one machine for a traced phase.
pub struct Telemetry {
    pub sink: Arc<trace::TraceSink>,
    pub sampler: Arc<obs::Sampler>,
}

impl Telemetry {
    /// Attach fresh telemetry to `machine` (tagged as shard `shard`).
    pub fn attach(machine: &Machine, shard: usize) -> Telemetry {
        let sink = trace::TraceSink::new_for_shard(TRACE_RING, shard as u32);
        let sampler = Arc::new(obs::Sampler::new_for_shard(
            obs::DEFAULT_PERIOD_NS,
            obs::DEFAULT_RING_CAPACITY,
            shard,
        ));
        machine.attach_tracer(Arc::clone(&sink));
        machine.attach_sampler(Arc::clone(&sampler));
        Telemetry { sink, sampler }
    }

    /// Detach from `machine` once every measured session has dropped.
    pub fn detach(&self, machine: &Machine) {
        machine.detach_tracer();
        machine.detach_sampler();
    }

    /// Events and samples the rings overwrote.
    pub fn dropped(&self) -> u64 {
        self.sink.dropped_events() + self.sampler.dropped_samples()
    }
}
