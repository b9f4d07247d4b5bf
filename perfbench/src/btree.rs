//! `btree-eadr`: closed loop on one thread, equal thirds of `BpTree`
//! insert/get/remove over a key range whose tree exceeds the modelled
//! 4 MiB L3; eADR, orec-redo. Every result and the final `scan_all` are
//! checked against a `BTreeMap` shadow.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use palloc::PHeap;
use pmem_sim::{DurabilityDomain, Machine, MachineConfig, MediaKind};
use pstructs::BpTree;
use ptm::db::{PtmDb, DB_HEAP_NAME};
use ptm::{Ptm, PtmConfig, TxThread};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::checks::check_scan;
use crate::common::{
    counter_layers, op_layers, restart_layers, shutdown_image, timed_restart, words_mib, Round,
    Scale, Stopwatch, Telemetry,
};
use crate::metrics::{op_type, ratio};

/// Keys are drawn uniformly from `0..key_range`.
pub fn key_range(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 1 << 19,
        Scale::Small => 1 << 10,
    }
}

/// Random inserts made before measuring (about 39% of the range ends
/// up present: 206k keys, a ~6 MiB tree at full scale).
fn population(scale: Scale) -> u64 {
    key_range(scale) / 2
}

/// Measured operations per round.
pub fn ops(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 300_000,
        Scale::Small => 600,
    }
}

fn machine_config() -> MachineConfig {
    MachineConfig {
        domain: DurabilityDomain::Eadr,
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
    let range = key_range(scale);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB7EE_0000);
    let mut shadow = BTreeMap::new();

    let t_setup = Instant::now();
    let machine = Machine::new(machine_config());
    let t_fmt = Instant::now();
    let heap_words = (range as usize * 4).next_power_of_two();
    let heap = PHeap::format_with_media(&machine, DB_HEAP_NAME, heap_words, 4, MediaKind::Optane);
    r.set("palloc.format_s", t_fmt.elapsed().as_secs_f64());
    let ptm = Ptm::new(ptm_config(traced));
    machine.begin_run(1, u64::MAX);
    let tree = {
        let mut th = TxThread::new(Arc::clone(&ptm), Arc::clone(&heap), machine.session(0));
        let tree = th.run(BpTree::create);
        heap.set_root(th.session_mut(), 0, tree.header());
        let batch: Vec<(u64, u64)> = (0..population(scale))
            .map(|_| (rng.gen_range(0..range), rng.gen()))
            .collect();
        for chunk in batch.chunks(8) {
            th.run(|tx| {
                for &(k, v) in chunk {
                    tree.insert(tx, k, v)?;
                }
                Ok(())
            });
        }
        shadow.extend(batch);
        tree
    };
    r.setup_s = t_setup.elapsed().as_secs_f64();

    ptm.stats.reset();
    ptm.phases.reset();
    machine.stats.reset();
    let tele = traced.then(|| Telemetry::attach(&machine, 0));
    machine.begin_run(1, u64::MAX);
    let n = ops(scale);
    let plan: Vec<(u64, u64)> = (0..n)
        .map(|_| (rng.gen_range(0..range), rng.gen()))
        .collect();
    let tys = [
        op_type("bptree.insert"),
        op_type("bptree.get"),
        op_type("bptree.remove"),
    ];
    let mut mismatches = Vec::new();
    let mut th = TxThread::new(Arc::clone(&ptm), Arc::clone(&heap), machine.session(0));
    let t_run = Instant::now();
    for (i, &(k, v)) in plan.iter().enumerate() {
        let sw = Stopwatch::start(th.session_mut().now());
        let (got, want) = match i % 3 {
            0 => (th.run(|tx| tree.insert(tx, k, v)), shadow.insert(k, v)),
            1 => (th.run(|tx| tree.get(tx, k)), shadow.get(&k).copied()),
            _ => (th.run(|tx| tree.remove(tx, k)), shadow.remove(&k)),
        };
        r.samples.push(sw.stop(tys[i % 3], th.session_mut().now()));
        if got != want {
            mismatches.push(format!("op {i} on key {k}: tree {got:?}, shadow {want:?}"));
        }
    }
    r.host_s = t_run.elapsed().as_secs_f64();
    r.traced_phase_s = r.host_s;
    th.session_mut().finish();
    drop(th);
    let vt = machine.run_time_ns();
    if let Some(t) = &tele {
        t.detach(&machine);
        r.set("trace.events_dropped", t.dropped() as f64);
    }
    r.ops = n;
    r.attempted = n;
    r.fail_all(mismatches);
    r.lat_vns = r.samples.iter().map(|s| s.vns).collect();
    r.vthroughput_mops = ratio(n as f64 * 1e3, vt as f64);
    r.capacity_mops = r.vthroughput_mops;
    counter_layers(
        &mut r,
        &machine.stats.snapshot(),
        &ptm.stats_snapshot(),
        &ptm.phases_snapshot(),
    );
    op_layers(&mut r);
    r.set(
        "palloc.heap_high_water_mib",
        words_mib(heap.high_water_words()),
    );

    machine.begin_run(1, u64::MAX);
    let scan = {
        let mut th = TxThread::new(Arc::clone(&ptm), Arc::clone(&heap), machine.session(0));
        th.run(|tx| tree.scan_all(tx))
    };
    r.fail_all(check_scan(&shadow, &scan));

    let image = shutdown_image(&machine);
    drop((machine, heap));
    let (_db, rep) = timed_restart(&mut r, || {
        PtmDb::reopen(&image, machine_config(), ptm_config(false))
    });
    restart_layers(&mut r, &[rep]);
    r
}
