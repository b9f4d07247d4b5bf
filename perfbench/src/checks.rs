//! Correctness checks against models kept apart from the program.
//!
//! Each check takes plain data read back from the simulated heap plus
//! the model the benchmark's clients built from what they issued and saw
//! commit, and returns one finding per failed operation or aggregate.
//! `tests/checks.rs` feeds each of them a corrupted input to show it
//! fires.

use std::collections::BTreeMap;

/// Words of one key/value store value.
pub const KV_WORDS: usize = 16;

// ---------------------------------------------------------------------
// TPCC
// ---------------------------------------------------------------------

/// A NEW-ORDER a client saw commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewOrder {
    pub w: u64,
    pub d: u64,
    pub o_id: u64,
    pub items: Vec<u64>,
}

/// What the clients issued and saw commit.
#[derive(Debug, Clone, Default)]
pub struct TpccModel {
    pub warehouses: u64,
    pub districts: u64,
    pub items: u64,
    pub new_orders: Vec<NewOrder>,
    /// (warehouse, district, amount) of each committed PAYMENT.
    pub payments: Vec<(u64, u64, u64)>,
}

/// TPCC state read back after the run.
#[derive(Debug, Clone, Default)]
pub struct TpccState {
    /// Per (w, d): next order id.
    pub next_o_id: Vec<u64>,
    /// Per (w, d): district YTD.
    pub dist_ytd: Vec<u64>,
    /// Per w: warehouse YTD.
    pub wh_ytd: Vec<u64>,
    /// Per (w, item): stock order count.
    pub stock_cnt: Vec<u64>,
    /// Per model NEW-ORDER, in model order: (o_id, item ids) of the
    /// order the index returns for its key, `None` if absent.
    pub orders: Vec<Option<(u64, Vec<u64>)>>,
    /// PTM commits in the measured phase.
    pub commits: u64,
}

pub fn check_tpcc(m: &TpccModel, s: &TpccState) -> Vec<String> {
    let mut bad = Vec::new();
    let nd = (m.warehouses * m.districts) as usize;
    let mut ids: Vec<Vec<u64>> = vec![Vec::new(); nd];
    let mut ytd = vec![0u64; nd];
    let mut lines = vec![0u64; (m.warehouses * m.items) as usize];
    for o in &m.new_orders {
        ids[(o.w * m.districts + o.d) as usize].push(o.o_id);
        for &i in &o.items {
            lines[(o.w * m.items + i) as usize] += 1;
        }
    }
    for &(w, d, amount) in &m.payments {
        ytd[(w * m.districts + d) as usize] += amount;
    }
    for (i, ids) in ids.iter_mut().enumerate() {
        ids.sort_unstable();
        let n = ids.len() as u64;
        if s.next_o_id[i] != n + 1 {
            bad.push(format!(
                "district {i}: next order id {} but {n} NEW-ORDERs committed",
                s.next_o_id[i]
            ));
        }
        if ids.iter().enumerate().any(|(k, &id)| id != k as u64 + 1) {
            bad.push(format!("district {i}: committed order ids are not 1..={n}"));
        }
        if s.dist_ytd[i] != ytd[i] {
            bad.push(format!(
                "district {i}: YTD {} but PAYMENTs issued {}",
                s.dist_ytd[i], ytd[i]
            ));
        }
    }
    for w in 0..m.warehouses as usize {
        let d = m.districts as usize;
        let issued: u64 = ytd[w * d..(w + 1) * d].iter().sum();
        let dist_sum: u64 = s.dist_ytd[w * d..(w + 1) * d].iter().sum();
        if s.wh_ytd[w] != issued || dist_sum != issued {
            bad.push(format!(
                "warehouse {w}: YTD {}, districts' YTD {dist_sum}, PAYMENTs issued {issued}",
                s.wh_ytd[w]
            ));
        }
    }
    for (k, (want, got)) in lines.iter().zip(&s.stock_cnt).enumerate() {
        if want != got {
            bad.push(format!(
                "stock row {k}: order count {got}, lines issued {want}"
            ));
        }
    }
    for (o, found) in m.new_orders.iter().zip(&s.orders) {
        match found {
            Some((o_id, items)) if *o_id == o.o_id && *items == o.items => {}
            Some(_) => bad.push(format!(
                "order ({}, {}, {}): index returns a different order",
                o.w, o.d, o.o_id
            )),
            None => bad.push(format!(
                "order ({}, {}, {}): missing from the index",
                o.w, o.d, o.o_id
            )),
        }
    }
    let ops = (m.new_orders.len() + m.payments.len()) as u64;
    if s.commits != ops {
        bad.push(format!("PTM counted {} commits for {ops} ops", s.commits));
    }
    bad
}

// ---------------------------------------------------------------------
// B+Tree
// ---------------------------------------------------------------------

/// Compare the tree's final `scan_all` with the shadow map.
pub fn check_scan(shadow: &BTreeMap<u64, u64>, scan: &[(u64, u64)]) -> Vec<String> {
    let mut bad = Vec::new();
    if scan.len() != shadow.len() {
        bad.push(format!(
            "scan returns {} keys, shadow holds {}",
            scan.len(),
            shadow.len()
        ));
    }
    if let Some(((k, v), _)) = scan
        .iter()
        .zip(shadow.iter())
        .find(|((k, v), (sk, sv))| k != *sk || v != *sv)
    {
        bad.push(format!("scan diverges from the shadow at ({k}, {v})"));
    }
    bad
}

// ---------------------------------------------------------------------
// Key/value store
// ---------------------------------------------------------------------

/// The value a SET with `stamp` writes.
pub fn kv_value(stamp: u64) -> [u64; KV_WORDS] {
    std::array::from_fn(|w| stamp ^ w as u64)
}

/// Whether `words` is exactly the value of `stamp`.
pub fn kv_is(words: &[u64], stamp: u64) -> bool {
    words.len() == KV_WORDS
        && words
            .iter()
            .enumerate()
            .all(|(w, &x)| x == stamp ^ w as u64)
}

/// After restart: every acknowledged SET reads back whole. `stored`
/// holds (key, value words) read from the reopened heap; `model` each
/// key's last acknowledged stamp. The in-flight key is checked apart.
pub fn check_kv_restart(
    model: &BTreeMap<u64, u64>,
    stored: &[(u64, Vec<u64>)],
    inflight_key: u64,
) -> Vec<String> {
    let mut bad = Vec::new();
    if stored.len() != model.len() {
        bad.push(format!(
            "{} keys read back after restart, {} expected",
            stored.len(),
            model.len()
        ));
    }
    for (k, words) in stored {
        if *k == inflight_key {
            continue;
        }
        match model.get(k) {
            Some(&stamp) if kv_is(words, stamp) => {}
            Some(_) => bad.push(format!(
                "key {k}: acknowledged SET lost or torn after restart"
            )),
            None => bad.push(format!("key {k}: not in the model")),
        }
    }
    bad
}

/// The SET cut by the crash holds its old or its new stamp in all words.
pub fn check_inflight(words: &[u64], old: u64, new: u64) -> Vec<String> {
    if kv_is(words, old) || kv_is(words, new) {
        Vec::new()
    } else {
        vec![format!(
            "in-flight SET is torn: holds neither stamp {old:#x} nor {new:#x} whole"
        )]
    }
}

// ---------------------------------------------------------------------
// Transfers
// ---------------------------------------------------------------------

/// Balances after the run against the transfers clients saw apply:
/// each account ends at `initial + received - sent`, so the total is
/// conserved and nothing is minted, lost or underflows.
pub fn check_balances(initial: u64, balances: &[u64], applied: &[(u64, u64)]) -> Vec<String> {
    let mut bad = Vec::new();
    let mut want = vec![initial as i128; balances.len()];
    for &(from, to) in applied {
        want[from as usize] -= 1;
        want[to as usize] += 1;
    }
    let total: u128 = balances.iter().map(|&b| b as u128).sum();
    let expect = initial as u128 * balances.len() as u128;
    if total != expect {
        bad.push(format!("total balance {total}, expected {expect}"));
    }
    for (k, (&got, &w)) in balances.iter().zip(&want).enumerate() {
        if w < 0 || got as i128 != w {
            bad.push(format!("account {k}: balance {got}, expected {w}"));
        }
    }
    bad
}
