//! `tpcc-adr`: closed-loop TPCC NEW-ORDER/PAYMENT on two threads, heap
//! on Optane under ADR, orec-redo, order index a `PHashMap`.
//!
//! The transactions follow the program's own TPCC (per-district
//! next-order counters and warehouse/district YTD hot spots), but every
//! table address and every committed effect stays visible here, so the
//! final state can be checked against what the clients saw commit.

use std::sync::Arc;
use std::time::Instant;

use palloc::PHeap;
use pmem_sim::{DurabilityDomain, Machine, MachineConfig, MediaKind, PAddr};
use pstructs::PHashMap;
use ptm::db::{PtmDb, DB_HEAP_NAME};
use ptm::{Ptm, PtmConfig, TxThread};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::checks::{check_tpcc, NewOrder, TpccModel, TpccState};
use crate::common::{
    counter_layers, op_layers, restart_layers, shutdown_image, timed_restart, words_mib, OpSample,
    Round, Scale, Stopwatch, Telemetry,
};
use crate::metrics::{op_type, ratio};

pub const THREADS: usize = 2;
pub const WAREHOUSES: u64 = 2;
pub const DISTRICTS: u64 = 10;
pub const CUSTOMERS_PER_DISTRICT: u64 = 384;
pub const ITEMS: u64 = 1024;
const WINDOW_NS: u64 = 1_000;

const WH_WORDS: u64 = 4; // [ytd, tax, ..]
const WH_YTD: u64 = 0;
const WH_TAX: u64 = 1;
const DIST_WORDS: u64 = 8; // [next_o_id, ytd, ..]
const D_NEXT_O_ID: u64 = 0;
const D_YTD: u64 = 1;
const CUST_WORDS: u64 = 8; // [balance, ytd_payment, payment_cnt, discount, ..]
const C_BALANCE: u64 = 0;
const C_YTD: u64 = 1;
const C_CNT: u64 = 2;
const C_DISCOUNT: u64 = 3;
const ITEM_WORDS: u64 = 4; // [price, ..]
const STOCK_WORDS: u64 = 4; // [quantity, ytd, order_cnt, ..]
const S_QTY: u64 = 0;
const S_YTD: u64 = 1;
const S_CNT: u64 = 2;
/// Order block: [o_id, w<<8|d, c, ol_cnt, total, pad x3] + 4 words/line.
const O_HEAD: u64 = 8;

/// Operations each client issues per round.
pub fn ops_per_thread(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 25_000,
        Scale::Small => 200,
    }
}

#[derive(Clone, Copy)]
struct Tables {
    wh: PAddr,
    dist: PAddr,
    cust: PAddr,
    item: PAddr,
    stock: PAddr,
    index: PHashMap,
}

fn order_key(w: u64, d: u64, o_id: u64) -> u64 {
    ((w * DISTRICTS + d) << 32) | o_id
}

fn machine_config() -> MachineConfig {
    MachineConfig {
        domain: DurabilityDomain::Adr,
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

fn populate(th: &mut TxThread, expected_orders: u64) -> Tables {
    let heap = Arc::clone(th.heap());
    let cust_n = WAREHOUSES * DISTRICTS * CUSTOMERS_PER_DISTRICT;
    let stock_n = WAREHOUSES * ITEMS;
    let wh = heap.alloc(th.session_mut(), (WAREHOUSES * WH_WORDS) as usize);
    let dist = heap.alloc(
        th.session_mut(),
        (WAREHOUSES * DISTRICTS * DIST_WORDS) as usize,
    );
    let cust = heap.alloc(th.session_mut(), (cust_n * CUST_WORDS) as usize);
    let item = heap.alloc(th.session_mut(), (ITEMS * ITEM_WORDS) as usize);
    let stock = heap.alloc(th.session_mut(), (stock_n * STOCK_WORDS) as usize);
    for w in 0..WAREHOUSES {
        th.run(|tx| {
            tx.write_at(wh, w * WH_WORDS + WH_YTD, 0)?;
            tx.write_at(wh, w * WH_WORDS + WH_TAX, 7)?;
            for d in 0..DISTRICTS {
                let b = (w * DISTRICTS + d) * DIST_WORDS;
                tx.write_at(dist, b + D_NEXT_O_ID, 1)?;
                tx.write_at(dist, b + D_YTD, 0)?;
            }
            Ok(())
        });
    }
    for chunk in 0..cust_n.div_ceil(64) {
        th.run(|tx| {
            for c in chunk * 64..((chunk + 1) * 64).min(cust_n) {
                tx.write_at(cust, c * CUST_WORDS + C_BALANCE, 1_000)?;
                tx.write_at(cust, c * CUST_WORDS + C_DISCOUNT, c % 50)?;
            }
            Ok(())
        });
    }
    for chunk in 0..ITEMS.div_ceil(64) {
        th.run(|tx| {
            for i in chunk * 64..((chunk + 1) * 64).min(ITEMS) {
                tx.write_at(item, i * ITEM_WORDS, 100 + i % 900)?;
            }
            Ok(())
        });
    }
    for chunk in 0..stock_n.div_ceil(64) {
        th.run(|tx| {
            for s in chunk * 64..((chunk + 1) * 64).min(stock_n) {
                tx.write_at(stock, s * STOCK_WORDS + S_QTY, 100)?;
            }
            Ok(())
        });
    }
    let index = th.run(|tx| PHashMap::create(tx, (expected_orders / 2).max(1024) as usize));
    // Root every table so the restart GC keeps them.
    for (slot, a) in [wh, dist, cust, item, stock, index.header()]
        .into_iter()
        .enumerate()
    {
        heap.set_root(th.session_mut(), slot, a);
    }
    Tables {
        wh,
        dist,
        cust,
        item,
        stock,
        index,
    }
}

/// What one client saw commit.
#[derive(Default)]
struct Client {
    new_orders: Vec<NewOrder>,
    payments: Vec<(u64, u64, u64)>,
    samples: Vec<OpSample>,
}

fn client(th: &mut TxThread, t: Tables, rng: &mut SmallRng, ops: u64) -> Client {
    let mut out = Client::default();
    let (no_ty, pay_ty) = (op_type("tpcc.new_order"), op_type("tpcc.payment"));
    for i in 0..ops {
        let w = rng.gen_range(0..WAREHOUSES);
        let d = rng.gen_range(0..DISTRICTS);
        let c = rng.gen_range(0..WAREHOUSES * DISTRICTS * CUSTOMERS_PER_DISTRICT);
        let sw = Stopwatch::start(th.session_mut().now());
        if i % 2 == 0 {
            let ol_cnt = rng.gen_range(5..=15u64);
            let items: Vec<u64> = (0..ol_cnt).map(|_| rng.gen_range(0..ITEMS)).collect();
            let o_id = th.run(|tx| {
                let db = (w * DISTRICTS + d) * DIST_WORDS;
                let _tax = tx.read_at(t.wh, w * WH_WORDS + WH_TAX)?;
                let o_id = tx.read_at(t.dist, db + D_NEXT_O_ID)?;
                tx.write_at(t.dist, db + D_NEXT_O_ID, o_id + 1)?;
                let _discount = tx.read_at(t.cust, c * CUST_WORDS + C_DISCOUNT)?;
                let order = tx.alloc((O_HEAD + ol_cnt * 4) as usize);
                tx.write_at(order, 0, o_id)?;
                tx.write_at(order, 1, (w << 8) | d)?;
                tx.write_at(order, 2, c)?;
                tx.write_at(order, 3, ol_cnt)?;
                let mut total = 0u64;
                for (l, &i_id) in items.iter().enumerate() {
                    let price = tx.read_at(t.item, i_id * ITEM_WORDS)?;
                    let sb = (w * ITEMS + i_id) * STOCK_WORDS;
                    let q = tx.read_at(t.stock, sb + S_QTY)?;
                    tx.write_at(t.stock, sb + S_QTY, if q > 10 { q - 5 } else { q + 91 })?;
                    let sy = tx.read_at(t.stock, sb + S_YTD)?;
                    tx.write_at(t.stock, sb + S_YTD, sy + 5)?;
                    let sc = tx.read_at(t.stock, sb + S_CNT)?;
                    tx.write_at(t.stock, sb + S_CNT, sc + 1)?;
                    let lb = O_HEAD + l as u64 * 4;
                    tx.write_at(order, lb, i_id)?;
                    tx.write_at(order, lb + 1, 5)?;
                    tx.write_at(order, lb + 2, 5 * price)?;
                    total += 5 * price;
                }
                tx.write_at(order, 4, total)?;
                t.index.insert(tx, order_key(w, d, o_id), order.0)?;
                Ok(o_id)
            });
            out.samples.push(sw.stop(no_ty, th.session_mut().now()));
            out.new_orders.push(NewOrder { w, d, o_id, items });
        } else {
            let amount = rng.gen_range(1..=500u64);
            th.run(|tx| {
                let wb = w * WH_WORDS + WH_YTD;
                let ytd = tx.read_at(t.wh, wb)?;
                tx.write_at(t.wh, wb, ytd + amount)?;
                let db = (w * DISTRICTS + d) * DIST_WORDS + D_YTD;
                let dy = tx.read_at(t.dist, db)?;
                tx.write_at(t.dist, db, dy + amount)?;
                let cb = c * CUST_WORDS;
                let bal = tx.read_at(t.cust, cb + C_BALANCE)?;
                tx.write_at(t.cust, cb + C_BALANCE, bal.wrapping_sub(amount))?;
                let cy = tx.read_at(t.cust, cb + C_YTD)?;
                tx.write_at(t.cust, cb + C_YTD, cy + amount)?;
                let cc = tx.read_at(t.cust, cb + C_CNT)?;
                tx.write_at(t.cust, cb + C_CNT, cc + 1)
            });
            out.samples.push(sw.stop(pay_ty, th.session_mut().now()));
            out.payments.push((w, d, amount));
        }
    }
    th.session_mut().finish();
    out
}

/// Read the checked state back through the program's own interfaces.
fn read_state(th: &mut TxThread, t: Tables, model: &TpccModel, commits: u64) -> TpccState {
    let pool = Arc::clone(th.heap().pool());
    let raw = |base: PAddr, off: u64| pool.raw_load(base.word() + off);
    let nd = WAREHOUSES * DISTRICTS;
    let mut orders = Vec::with_capacity(model.new_orders.len());
    for chunk in model.new_orders.chunks(256) {
        orders.extend(th.run(|tx| {
            let mut found = Vec::with_capacity(chunk.len());
            for o in chunk {
                found.push(match t.index.get(tx, order_key(o.w, o.d, o.o_id))? {
                    Some(a) => {
                        let a = PAddr(a);
                        let n = tx.read_at(a, 3)?;
                        let mut items = Vec::with_capacity(n as usize);
                        for l in 0..n {
                            items.push(tx.read_at(a, O_HEAD + l * 4)?);
                        }
                        Some((tx.read_at(a, 0)?, items))
                    }
                    None => None,
                });
            }
            Ok(found)
        }));
    }
    TpccState {
        next_o_id: (0..nd)
            .map(|i| raw(t.dist, i * DIST_WORDS + D_NEXT_O_ID))
            .collect(),
        dist_ytd: (0..nd)
            .map(|i| raw(t.dist, i * DIST_WORDS + D_YTD))
            .collect(),
        wh_ytd: (0..WAREHOUSES)
            .map(|w| raw(t.wh, w * WH_WORDS + WH_YTD))
            .collect(),
        stock_cnt: (0..WAREHOUSES * ITEMS)
            .map(|s| raw(t.stock, s * STOCK_WORDS + S_CNT))
            .collect(),
        orders,
        commits,
    }
}

/// One round: set up, run both clients, check, restart.
pub fn round(seed: u64, traced: bool, scale: Scale) -> Round {
    let mut r = Round::default();
    let ops_per_thread = ops_per_thread(scale);
    let total_ops = ops_per_thread * THREADS as u64;

    let t_setup = Instant::now();
    let machine = Machine::new(machine_config());
    let t_fmt = Instant::now();
    let heap_words = {
        let fixed = WAREHOUSES * (WH_WORDS + DISTRICTS * DIST_WORDS)
            + WAREHOUSES * DISTRICTS * CUSTOMERS_PER_DISTRICT * CUST_WORDS
            + ITEMS * ITEM_WORDS
            + WAREHOUSES * ITEMS * STOCK_WORDS;
        ((fixed + total_ops * 96) as usize + (1 << 16)).next_power_of_two()
    };
    let heap = PHeap::format_with_media(&machine, DB_HEAP_NAME, heap_words, 8, MediaKind::Optane);
    r.set("palloc.format_s", t_fmt.elapsed().as_secs_f64());
    let ptm = Ptm::new(ptm_config(traced));
    machine.begin_run(1, u64::MAX);
    let tables = {
        let mut th = TxThread::new(Arc::clone(&ptm), Arc::clone(&heap), machine.session(0));
        populate(&mut th, total_ops)
    };
    r.setup_s = t_setup.elapsed().as_secs_f64();

    ptm.stats.reset();
    ptm.phases.reset();
    machine.stats.reset();
    let tele = traced.then(|| Telemetry::attach(&machine, 0));
    machine.begin_run(THREADS, WINDOW_NS);
    let t_run = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let (machine, ptm, heap) = (&machine, &ptm, &heap);
                s.spawn(move || {
                    let mut th =
                        TxThread::new(Arc::clone(ptm), Arc::clone(heap), machine.session(tid));
                    let mut rng =
                        SmallRng::seed_from_u64(seed ^ (tid as u64 + 1).wrapping_mul(0x9E37_79B9));
                    client(&mut th, tables, &mut rng, ops_per_thread)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tpcc client"))
            .collect()
    });
    r.host_s = t_run.elapsed().as_secs_f64();
    r.traced_phase_s = r.host_s;
    let vt = machine.run_time_ns();
    if let Some(t) = &tele {
        t.detach(&machine);
        r.set("trace.events_dropped", t.dropped() as f64);
    }
    let (mem, pstats, phases) = (
        machine.stats.snapshot(),
        ptm.stats_snapshot(),
        ptm.phases_snapshot(),
    );

    let mut model = TpccModel {
        warehouses: WAREHOUSES,
        districts: DISTRICTS,
        items: ITEMS,
        ..TpccModel::default()
    };
    for c in clients {
        model.new_orders.extend(c.new_orders);
        model.payments.extend(c.payments);
        r.samples.extend(c.samples);
    }
    r.ops = total_ops;
    r.attempted = total_ops;
    r.lat_vns = r.samples.iter().map(|s| s.vns).collect();
    r.vthroughput_mops = ratio(total_ops as f64 * 1e3, vt as f64);
    r.capacity_mops = r.vthroughput_mops;
    counter_layers(&mut r, &mem, &pstats, &phases);
    op_layers(&mut r);
    r.set(
        "palloc.heap_high_water_mib",
        words_mib(heap.high_water_words()),
    );

    machine.begin_run(1, u64::MAX);
    let state = {
        let mut th = TxThread::new(Arc::clone(&ptm), Arc::clone(&heap), machine.session(0));
        read_state(&mut th, tables, &model, pstats.commits)
    };
    r.fail_all(check_tpcc(&model, &state));

    let image = shutdown_image(&machine);
    drop((machine, heap));
    let (_db, rep) = timed_restart(&mut r, || {
        PtmDb::reopen(&image, machine_config(), ptm_config(false))
    });
    restart_layers(&mut r, &[rep]);
    r
}
