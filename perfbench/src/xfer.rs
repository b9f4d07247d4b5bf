//! `xfer-2pc`: closed loop over two shards with one roaming
//! `CrossShardTx` worker (ADR, orec-redo). Zipfian account transfers
//! and multi-gets; a fixed fraction of them spans both shards and pays
//! the 2PC prepare/decide protocol.

use std::time::Instant;

use pmem_sim::{DurabilityDomain, MachineConfig, MediaKind, PAddr};
use ptm::{CrossShardTx, PtmConfig, ShardedEngine};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::ZipfGen;

use crate::checks::check_balances;
use crate::common::{
    counter_layers, heap_mib, op_layers, restart_layers, shutdown_image, sum_phases, timed_restart,
    Round, Scale, Stopwatch, Telemetry,
};
use crate::metrics::{op_type, ratio};

pub const SHARDS: usize = 2;
pub const ZIPF_THETA: f64 = 0.9;
/// Share of operations whose two accounts live on different shards.
pub const CROSS_FRAC: f64 = 0.1;
pub const INITIAL_BALANCE: u64 = 1_000;

pub fn accounts(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 1 << 17,
        Scale::Small => 256,
    }
}

/// Operations the worker issues per round.
pub fn ops_per_worker(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 1_000_000,
        Scale::Small => 300,
    }
}

fn machine_config() -> MachineConfig {
    MachineConfig {
        domain: DurabilityDomain::Adr,
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

pub fn round(seed: u64, traced: bool, scale: Scale) -> Round {
    let mut r = Round::default();
    let n = accounts(scale);
    let total = n * INITIAL_BALANCE;

    let t_setup = Instant::now();
    let t_fmt = Instant::now();
    let heap_words = ((n as usize * 8) + (1 << 14)).next_power_of_two();
    let engine = ShardedEngine::create(SHARDS, machine_config(), ptm_config(traced), heap_words, 4);
    r.set("palloc.format_s", t_fmt.elapsed().as_secs_f64());
    // Each shard allocates its accounts (one word each) plus a rooted
    // directory of them, so the restart GC keeps every account. One
    // thread populates the shards in turn.
    engine.begin_run_all(1, u64::MAX);
    let mut addr = vec![PAddr(0); n as usize];
    for i in 0..SHARDS {
        let mut th = engine.thread(i, 0);
        let mine: Vec<u64> = (0..n).filter(|&k| engine.shard_of(k) == i).collect();
        let dir = engine.heap(i).alloc(th.session_mut(), mine.len().max(1));
        for (chunk_no, chunk) in mine.chunks(64).enumerate() {
            let cells = th.run(|tx| {
                let mut cells = Vec::with_capacity(chunk.len());
                for j in 0..chunk.len() {
                    let c = tx.alloc(1);
                    tx.write(c, INITIAL_BALANCE)?;
                    tx.write_at(dir, (chunk_no * 64 + j) as u64, c.0)?;
                    cells.push(c);
                }
                Ok(cells)
            });
            for (&k, c) in chunk.iter().zip(cells) {
                addr[k as usize] = c;
            }
        }
        engine.heap(i).set_root(th.session_mut(), 0, dir);
        th.session_mut().finish();
    }
    r.setup_s = t_setup.elapsed().as_secs_f64();

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
    // The worker roams every shard, so the run uses an unbounded lag
    // window (see the `ptm::twopc` module docs). One worker keeps the
    // virtual results independent of host scheduling.
    engine.begin_run_all(1, u64::MAX);
    let ops = ops_per_worker(scale);
    let cross_threshold = (CROSS_FRAC * u32::MAX as f64) as u32;
    let (xfer_ty, get_ty) = (op_type("xfer.transfer"), op_type("xfer.multiget"));
    let zipf = ZipfGen::new(n, ZIPF_THETA);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9);
    // (from, to) of every transfer that moved a unit, and how many of
    // them spanned both shards.
    let mut applied = Vec::new();
    let mut cross_applied = 0;
    let mut cx = CrossShardTx::new(&engine, 0);
    let t_run = Instant::now();
    for op in 0..ops {
        let k1 = zipf.next(&mut rng);
        let s1 = engine.shard_of(k1);
        let cross = rng.gen::<u32>() < cross_threshold;
        let (k2, s2) = loop {
            let k = zipf.next(&mut rng);
            let s = engine.shard_of(k);
            if k != k1 && (s != s1) == cross {
                break (k, s);
            }
        };
        let (a1, a2) = (addr[k1 as usize], addr[k2 as usize]);
        let sw = Stopwatch::start(cx.frontier());
        if op % 2 == 1 {
            let moved = cx.run(|tx| {
                let b1 = tx.read(s1, a1)?;
                if b1 == 0 {
                    return Ok(false);
                }
                let b2 = tx.read(s2, a2)?;
                tx.write(s1, a1, b1 - 1)?;
                tx.write(s2, a2, b2 + 1)?;
                Ok(true)
            });
            r.samples.push(sw.stop(xfer_ty, cx.frontier()));
            if moved {
                applied.push((k1, k2));
                cross_applied += u64::from(cross);
            }
        } else {
            let (b1, b2) = cx.run(|tx| Ok((tx.read(s1, a1)?, tx.read(s2, a2)?)));
            r.samples.push(sw.stop(get_ty, cx.frontier()));
            if b1.checked_add(b2).is_none_or(|sum| sum > total) {
                r.fail(
                    1,
                    format!("multi-get ({k1}, {k2}) read {b1} + {b2}, more than the total {total}"),
                );
            }
        }
    }
    r.host_s = t_run.elapsed().as_secs_f64();
    r.traced_phase_s = r.host_s;
    cx.finish();
    drop(cx);
    let vt = engine.max_run_time_ns();
    for (i, t) in tele.iter().enumerate() {
        t.detach(engine.machine(i));
    }
    if traced {
        r.set(
            "trace.events_dropped",
            tele.iter().map(Telemetry::dropped).sum::<u64>() as f64,
        );
    }

    r.ops = ops;
    r.attempted = ops;
    r.lat_vns = r.samples.iter().map(|s| s.vns).collect();
    r.vthroughput_mops = ratio(ops as f64 * 1e3, vt as f64);
    r.capacity_mops = r.vthroughput_mops;
    let pstats = engine.aggregate_ptm_stats();
    let phases = sum_phases(&engine);
    counter_layers(&mut r, &engine.aggregate_mem_stats(), &pstats, &phases);
    op_layers(&mut r);
    r.set("palloc.heap_high_water_mib", heap_mib(&engine));

    let balances: Vec<u64> = addr
        .iter()
        .enumerate()
        .map(|(k, a)| {
            engine
                .machine(engine.shard_of(k as u64))
                .pool(a.pool())
                .raw_load(a.word())
        })
        .collect();
    r.fail_all(check_balances(INITIAL_BALANCE, &balances, &applied));
    if pstats.coordinator_commits != cross_applied || pstats.prepares != 2 * cross_applied {
        r.fail(
            1,
            format!(
                "{cross_applied} cross-shard transfers applied, but {} coordinator commits and {} prepares",
                pstats.coordinator_commits, pstats.prepares
            ),
        );
    }

    let images: Vec<_> = (0..SHARDS)
        .map(|i| shutdown_image(engine.machine(i)))
        .collect();
    drop(engine);
    let (_engine, reports) = timed_restart(&mut r, || {
        ShardedEngine::reopen(&images, machine_config(), ptm_config(false))
    });
    restart_layers(&mut r, &reports);
    r
}
