//! `kv-open`: open loop over two shards with one worker each (Optane,
//! ADR, orec-redo, crash tracking on). Zipfian 50/50 GET/SET of 16-word
//! values on each shard's `PHashMap`.
//!
//! A round streams requests at a fixed nominal offered rate (the
//! latency metrics and layers), searches for the highest offered rate
//! that meets the sojourn-p99 limit without a growing backlog, then
//! cuts power at a seeded crash site inside one more SET and reopens
//! every shard (recovery and restart GC).

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use obs::spans::{decompose, reconstruct, Comp};
use pmem_sim::{
    catch_simulated_crash, AdversaryPolicy, CrashImage, CrashInjector, DurabilityDomain,
    MachineConfig, MediaKind, PAddr,
};
use pstructs::PHashMap;
use ptm::{PtmConfig, ShardedEngine, TxThread};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::{gen_open_loop, Request, StreamConfig, ZipfGen};

use crate::checks::{check_inflight, check_kv_restart, kv_is, kv_value, KV_WORDS};
use crate::common::{
    counter_layers, heap_mib, op_layers, restart_layers, sum_phases, timed_restart, OpSample,
    Round, Scale, Stopwatch, Telemetry,
};
use crate::metrics::{op_type, percentile, ratio};

pub const SHARDS: usize = 2;
const WINDOW_NS: u64 = 1_000;
pub const ZIPF_THETA: f64 = 0.9;
/// Requests per arrival instant are uniform in 1..=BURST.
pub const BURST: u64 = 8;
/// Offered rate of the latency-measuring stream, Mops per virtual s.
pub const NOMINAL_MOPS: f64 = 0.5;
/// Sojourn p99 a rate must meet to count as sustained, virtual ns.
pub const P99_LIMIT_NS: u64 = 50_000;
/// Capacity search bracket (Mops/vs) and its bisection steps.
pub const SEARCH_LO: f64 = 0.1;
pub const SEARCH_HI: f64 = 3.2;
pub const SEARCH_STEPS: u32 = 8;

/// Keys across both shards.
pub fn keys(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 1 << 16,
        Scale::Small => 1 << 9,
    }
}

/// Requests in the nominal-rate stream and in each capacity probe.
pub fn stream_ops(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Full => (160_000, 30_000),
        Scale::Small => (400, 200),
    }
}

fn machine_config() -> MachineConfig {
    MachineConfig {
        domain: DurabilityDomain::Adr,
        track_persistence: true,
        window_ns: WINDOW_NS,
        ..MachineConfig::default()
    }
}

fn ptm_config(traced: bool) -> PtmConfig {
    PtmConfig {
        heap_media: MediaKind::Optane,
        tracing: traced,
        ..PtmConfig::redo()
    }
}

/// The stamp a key holds after population (even; SET stamps are odd).
fn initial_stamp(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15) << 1
}

/// Mean gap between arrival instants for an offered rate in Mops/vs.
fn gap_for(mops: f64) -> u64 {
    let mean_burst = (1 + BURST) as f64 / 2.0;
    (mean_burst * 1e3 / mops).round().max(1.0) as u64
}

/// One shard's state as the benchmark sees it: the index, each key's
/// value block and last acknowledged stamp.
struct Shard {
    index: PHashMap,
    blocks: HashMap<u64, PAddr>,
    stamps: BTreeMap<u64, u64>,
}

fn get(th: &mut TxThread, index: PHashMap, key: u64) -> Option<Vec<u64>> {
    th.run(|tx| {
        let Some(b) = index.get(tx, key)? else {
            return Ok(None);
        };
        let mut words = Vec::with_capacity(KV_WORDS);
        for w in 0..KV_WORDS as u64 {
            words.push(tx.read_at(PAddr(b), w)?);
        }
        Ok(Some(words))
    })
}

fn set(th: &mut TxThread, block: PAddr, stamp: u64) {
    let value = kv_value(stamp);
    th.run(|tx| {
        for (w, &v) in value.iter().enumerate() {
            tx.write_at(block, w as u64, v)?;
        }
        Ok(())
    });
}

/// What one stream measured on one shard.
#[derive(Default)]
struct ShardRun {
    samples: Vec<OpSample>,
    /// (arrival, queue wait) per request.
    waits: Vec<(u64, u64)>,
    max_backlog: u64,
    busy_ns: u64,
    mismatches: Vec<String>,
}

/// What one stream measured across shards.
struct Stream {
    offered_mops: f64,
    host_s: f64,
    makespan_ns: u64,
    shards: Vec<ShardRun>,
}

impl Stream {
    fn sojourns(&self) -> Vec<u64> {
        self.shards
            .iter()
            .flat_map(|s| s.samples.iter().map(|x| x.vns))
            .collect()
    }

    /// Whether the stream met the p99 limit without a growing backlog:
    /// the mean queue wait of the last quarter of arrivals may not
    /// exceed twice that of the first quarter plus 1 µs.
    fn sustained(&self) -> bool {
        let mut waits: Vec<(u64, u64)> = self
            .shards
            .iter()
            .flat_map(|s| s.waits.iter().copied())
            .collect();
        waits.sort_unstable();
        let q = (waits.len() / 4).max(1);
        let mean = |s: &[(u64, u64)]| ratio(s.iter().map(|w| w.1 as f64).sum(), s.len() as f64);
        let growing = mean(&waits[waits.len() - q..]) > 2.0 * mean(&waits[..q]) + 1_000.0;
        let p99 = percentile(&mut self.sojourns(), 99.0).unwrap_or(f64::MAX);
        p99 <= P99_LIMIT_NS as f64 && !growing
    }
}

/// Stream `reqs` through the engine: each shard's worker takes its
/// queue in arrival order, idles until each request is due, and checks
/// every GET against the shard's last acknowledged SET.
fn stream(engine: &ShardedEngine, shards: &mut [Shard], reqs: &[Request]) -> Stream {
    let mut queues = vec![Vec::new(); SHARDS];
    for r in reqs {
        queues[engine.shard_of(r.key)].push(*r);
    }
    let last_arrival = reqs.last().map_or(1, |r| r.arrival_ns.max(1));
    let (get_ty, set_ty) = (op_type("kv.get"), op_type("kv.set"));
    engine.begin_run_all(1, WINDOW_NS);
    let t0 = Instant::now();
    let runs: Vec<ShardRun> = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter_mut()
            .zip(&queues)
            .enumerate()
            .map(|(i, (shard, queue))| {
                s.spawn(move || {
                    let mut out = ShardRun::default();
                    let mut th = engine.thread(i, 0);
                    for (idx, req) in queue.iter().enumerate() {
                        engine.assert_routed(i, req.key);
                        if th.session_mut().now() < req.arrival_ns {
                            th.session_mut().advance_to(req.arrival_ns);
                        }
                        let s = th.session_mut();
                        let now = s.now();
                        let wait = now - req.arrival_ns;
                        let arrived = queue.partition_point(|r| r.arrival_ns <= now);
                        out.max_backlog = out.max_backlog.max((arrived - idx) as u64);
                        out.waits.push((req.arrival_ns, wait));
                        if s.tracing() {
                            s.trace_event(trace::EventKind::QueueWait, wait, req.arrival_ns);
                        }
                        let sw = Stopwatch::start(req.arrival_ns);
                        let want = shard.stamps[&req.key];
                        let ty = if req.kind & 1 == 0 {
                            let got = get(&mut th, shard.index, req.key);
                            if !got.as_deref().is_some_and(|w| kv_is(w, want)) {
                                out.mismatches.push(format!(
                                    "shard {i}: GET {} returned {got:?}, last SET stamp {want:#x}",
                                    req.key
                                ));
                            }
                            get_ty
                        } else {
                            set(&mut th, shard.blocks[&req.key], req.kind);
                            shard.stamps.insert(req.key, req.kind);
                            set_ty
                        };
                        let done = th.session_mut().now();
                        out.busy_ns += done - now;
                        out.samples.push(sw.stop(ty, done));
                    }
                    th.session_mut().finish();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker"))
            .collect()
    });
    Stream {
        offered_mops: reqs.len() as f64 * 1e3 / last_arrival as f64,
        host_s: t0.elapsed().as_secs_f64(),
        makespan_ns: engine.max_run_time_ns(),
        shards: runs,
    }
}

fn stream_config(scale: Scale, ops: u64, mops: f64, seed: u64) -> StreamConfig {
    StreamConfig {
        total_ops: ops,
        keys: keys(scale),
        zipf_theta: ZIPF_THETA,
        mean_gap_ns: gap_for(mops),
        burst: BURST,
        seed,
    }
}

fn populate(engine: &ShardedEngine, scale: Scale) -> Vec<Shard> {
    engine.begin_run_all(1, u64::MAX);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|i| {
                s.spawn(move || {
                    let mut th = engine.thread(i, 0);
                    let mine: Vec<u64> = (0..keys(scale))
                        .filter(|&k| engine.shard_of(k) == i)
                        .collect();
                    let index = th.run(|tx| PHashMap::create(tx, mine.len().max(64)));
                    engine.heap(i).set_root(th.session_mut(), 0, index.header());
                    let mut shard = Shard {
                        index,
                        blocks: HashMap::new(),
                        stamps: BTreeMap::new(),
                    };
                    for chunk in mine.chunks(8) {
                        let blocks = th.run(|tx| {
                            let mut blocks = Vec::with_capacity(chunk.len());
                            for &k in chunk {
                                let b = tx.alloc(KV_WORDS);
                                for (w, &v) in kv_value(initial_stamp(k)).iter().enumerate() {
                                    tx.write_at(b, w as u64, v)?;
                                }
                                index.insert(tx, k, b.0)?;
                                blocks.push(b);
                            }
                            Ok(blocks)
                        });
                        for (&k, b) in chunk.iter().zip(blocks) {
                            shard.blocks.insert(k, b);
                            shard.stamps.insert(k, initial_stamp(k));
                        }
                    }
                    th.session_mut().finish();
                    shard
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("populate worker"))
            .collect()
    })
}

/// Sites of one more SET of `key` on `shard`, counted by a dry run that
/// commits `stamp`. The crash SET that follows repeats its sequence.
fn count_set_sites(
    engine: &ShardedEngine,
    shard: &mut Shard,
    i: usize,
    key: u64,
    stamp: u64,
) -> u64 {
    let inj = CrashInjector::count_only();
    engine.machine(i).arm_injector(std::sync::Arc::clone(&inj));
    let mut th = engine.thread(i, 0);
    set(&mut th, shard.blocks[&key], stamp);
    th.session_mut().finish();
    drop(th);
    engine.machine(i).disarm_injector();
    shard.stamps.insert(key, stamp);
    inj.sites_counted()
}

/// Crash sites of an orec-redo SET of 16 words (2 lines) lie in this
/// order: log appends and their flush, the COMMITTED marker (store,
/// `clwb`, WPQ accept, `sfence`), the write-back (store, `clwb`, WPQ
/// accept per word, then an `sfence`), and the retire (IDLE store,
/// `clwb`, WPQ accept, `sfence`). The crash lands on one of the last
/// 48 sites before the IDLE store: after the marker is durable and
/// before the log retires, so recovery must replay the log.
const POST_COMMIT_SITES: u64 = 48;
/// Sites after the IDLE store (its `clwb`, WPQ accept and `sfence`).
const RETIRE_SITES: u64 = 3;

pub fn round(seed: u64, traced: bool, scale: Scale) -> Round {
    let mut r = Round::default();
    let (nominal_ops, probe_ops) = stream_ops(scale);

    let t_setup = Instant::now();
    let t_fmt = Instant::now();
    let heap_words = ((keys(scale) as usize / SHARDS + 1024) * 64).next_power_of_two();
    let engine = ShardedEngine::create(SHARDS, machine_config(), ptm_config(traced), heap_words, 4);
    r.set("palloc.format_s", t_fmt.elapsed().as_secs_f64());
    let mut shards = populate(&engine, scale);
    r.setup_s = t_setup.elapsed().as_secs_f64();

    // Nominal-rate stream: the latency metrics and every layer.
    engine.reset_stats();
    for i in 0..SHARDS {
        engine.ptm(i).phases.reset();
    }
    let tele: Vec<Telemetry> = if traced {
        (0..SHARDS)
            .map(|i| Telemetry::attach(engine.machine(i), i))
            .collect()
    } else {
        Vec::new()
    };
    let reqs = gen_open_loop(&stream_config(scale, nominal_ops, NOMINAL_MOPS, seed));
    let nominal = stream(&engine, &mut shards, &reqs);
    for (i, t) in tele.iter().enumerate() {
        t.detach(engine.machine(i));
    }
    let phases = sum_phases(&engine);
    r.ops = nominal_ops;
    r.host_s = nominal.host_s;
    r.traced_phase_s = nominal.host_s;
    r.vthroughput_mops = ratio(nominal_ops as f64 * 1e3, nominal.makespan_ns as f64);
    r.lat_vns = nominal.sojourns();
    for s in &nominal.shards {
        r.samples.extend(s.samples.iter().copied());
        r.fail_all(s.mismatches.clone());
    }
    counter_layers(
        &mut r,
        &engine.aggregate_mem_stats(),
        &engine.aggregate_ptm_stats(),
        &phases,
    );
    op_layers(&mut r);
    shard_layers(&mut r, &nominal, &tele);
    r.set("palloc.heap_high_water_mib", heap_mib(&engine));

    // Capacity: geometric bisection over the offered rate.
    let (mut lo, mut hi) = (SEARCH_LO, SEARCH_HI);
    let mut capacity = 0.0;
    let mut streamed = nominal_ops;
    let mut host_s = nominal.host_s;
    let mut probe = |mops: f64, step: u64, shards: &mut [Shard], r: &mut Round| {
        let reqs = gen_open_loop(&stream_config(scale, probe_ops, mops, seed ^ (step << 40)));
        let s = stream(&engine, shards, &reqs);
        for sh in &s.shards {
            r.fail_all(sh.mismatches.clone());
        }
        streamed += probe_ops;
        host_s += s.host_s;
        (s.sustained(), s.offered_mops)
    };
    let (ok, offered) = probe(lo, 0, &mut shards, &mut r);
    if ok {
        capacity = offered;
        for step in 1..=SEARCH_STEPS as u64 {
            let mid = (lo * hi).sqrt();
            let (ok, offered) = probe(mid, step, &mut shards, &mut r);
            if ok {
                lo = mid;
                capacity = offered;
            } else {
                hi = mid;
            }
        }
    }
    r.capacity_mops = capacity;
    r.ops = streamed;
    r.host_s = host_s;
    r.attempted = streamed;

    // Crash inside one more SET, then reopen every shard.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4A5_0000);
    let cs = (seed % SHARDS as u64) as usize;
    let zipf = ZipfGen::new(keys(scale), ZIPF_THETA);
    let key = loop {
        let k = zipf.next(&mut rng);
        if engine.shard_of(k) == cs {
            break k;
        }
    };
    let (old, new) = (rng.gen::<u64>() | 1, rng.gen::<u64>() | 1);
    let sites = count_set_sites(&engine, &mut shards[cs], cs, key, old);
    let site = sites - RETIRE_SITES - 1 - rng.gen_range(0..POST_COMMIT_SITES);
    let inj = CrashInjector::at_site(site, AdversaryPolicy::PerLine, seed);
    engine.machine(cs).arm_injector(std::sync::Arc::clone(&inj));
    let block = shards[cs].blocks[&key];
    let crashed = catch_simulated_crash(|| {
        let mut th = engine.thread(cs, 0);
        set(&mut th, block, new);
    });
    engine.machine(cs).disarm_injector();
    r.attempted += 2;
    let mut fired = inj.take_outcome().filter(|_| crashed.is_err());
    if fired.is_none() {
        r.fail(1, format!("crash site {site} of {sites} never fired"));
    }
    let images: Vec<CrashImage> = (0..SHARDS)
        .map(|i| {
            let own = if i == cs { fired.take() } else { None };
            own.map_or_else(|| engine.machine(i).crash(seed ^ i as u64), |f| f.image)
        })
        .collect();
    drop(engine);
    let (engine, reports) = timed_restart(&mut r, || {
        ShardedEngine::reopen(&images, machine_config(), ptm_config(false))
    });
    let rep = restart_layers(&mut r, &reports);
    let replayed = rep.recovery.redo_replayed + rep.recovery.undo_rolled_back;
    if replayed == 0 {
        r.fail(
            1,
            format!("recovery replayed no log after a crash at site {site} of {sites}"),
        );
    }

    // After reopen: every acknowledged SET reads back whole, and the
    // in-flight SET holds its old or its new stamp.
    engine.begin_run_all(1, u64::MAX);
    for (i, shard) in shards.iter().enumerate() {
        let pool = engine.heap(i).pool();
        let stored: Vec<(u64, Vec<u64>)> = shard
            .blocks
            .iter()
            .map(|(&k, b)| {
                let words = (0..KV_WORDS as u64)
                    .map(|w| pool.raw_load(b.word() + w))
                    .collect();
                (k, words)
            })
            .collect();
        let inflight = if i == cs { key } else { u64::MAX };
        r.fail_all(check_kv_restart(&shard.stamps, &stored, inflight));
    }
    let index = PHashMap::from_header(engine.heap(cs).root_raw(0));
    let mut th = engine.thread(cs, 0);
    match get(&mut th, index, key) {
        Some(words) => r.fail_all(check_inflight(&words, old, new)),
        None => r.fail(
            1,
            format!("in-flight key {key} missing from the index after restart"),
        ),
    }
    r
}

/// Queueing layers of the nominal stream, and (traced) the p99 cohort's
/// critical-path components.
fn shard_layers(r: &mut Round, s: &Stream, tele: &[Telemetry]) {
    let mut waits: Vec<u64> = s
        .shards
        .iter()
        .flat_map(|x| x.waits.iter().map(|w| w.1))
        .collect();
    r.set(
        "shard.queue_wait_p99_vus",
        percentile(&mut waits, 99.0).unwrap_or(0.0) / 1e3,
    );
    r.set(
        "shard.max_backlog",
        s.shards.iter().map(|x| x.max_backlog).max().unwrap_or(0) as f64,
    );
    let busy: Vec<f64> = s.shards.iter().map(|x| x.busy_ns as f64).collect();
    let (max, min) = (
        busy.iter().copied().fold(0.0, f64::max),
        busy.iter().copied().fold(f64::MAX, f64::min),
    );
    r.set("shard.imbalance", ratio(max, min));
    if tele.is_empty() {
        return;
    }
    let threads: Vec<_> = tele.iter().flat_map(|t| t.sink.threads()).collect();
    let (spans, dropped) = reconstruct(&threads);
    let d = decompose(&spans, dropped, &[99.0]);
    for c in Comp::ALL {
        let ns = d
            .tails
            .first()
            .map_or(0.0, |t| t.cohort.mean_comp_ns[c as usize]);
        r.set(&format!("shard.p99_{}_vus", c.label()), ns / 1e3);
    }
    r.set(
        "trace.events_dropped",
        tele.iter().map(Telemetry::dropped).sum::<u64>() as f64,
    );
}
