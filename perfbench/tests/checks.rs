//! Every correctness check fires on a corrupted input and stays quiet
//! on the clean one, so none of them can pass vacuously.

use std::collections::BTreeMap;

use perfbench::checks::*;

fn tpcc_model() -> (TpccModel, TpccState) {
    let model = TpccModel {
        warehouses: 1,
        districts: 2,
        items: 4,
        new_orders: vec![
            NewOrder {
                w: 0,
                d: 0,
                o_id: 1,
                items: vec![0, 1],
            },
            NewOrder {
                w: 0,
                d: 0,
                o_id: 2,
                items: vec![1, 3],
            },
            NewOrder {
                w: 0,
                d: 1,
                o_id: 1,
                items: vec![2],
            },
        ],
        payments: vec![(0, 0, 10), (0, 1, 5), (0, 1, 7)],
    };
    let state = TpccState {
        next_o_id: vec![3, 2],
        dist_ytd: vec![10, 12],
        wh_ytd: vec![22],
        stock_cnt: vec![1, 2, 1, 1],
        orders: vec![
            Some((1, vec![0, 1])),
            Some((2, vec![1, 3])),
            Some((1, vec![2])),
        ],
        commits: 6,
    };
    (model, state)
}

#[test]
fn tpcc_clean_state_passes() {
    let (m, s) = tpcc_model();
    assert_eq!(check_tpcc(&m, &s), Vec::<String>::new());
}

#[test]
fn tpcc_lost_update_fires() {
    let (m, mut s) = tpcc_model();
    s.next_o_id[0] = 2; // one NEW-ORDER's counter increment lost
    assert!(!check_tpcc(&m, &s).is_empty());
    let (m, mut s) = tpcc_model();
    s.dist_ytd[1] = 5; // one PAYMENT's district YTD lost
    assert!(!check_tpcc(&m, &s).is_empty());
    let (m, mut s) = tpcc_model();
    s.wh_ytd[0] = 15; // one PAYMENT's warehouse YTD lost
    assert!(!check_tpcc(&m, &s).is_empty());
    let (m, mut s) = tpcc_model();
    s.stock_cnt[3] = 0; // one order line's stock update lost
    assert!(!check_tpcc(&m, &s).is_empty());
    let (m, mut s) = tpcc_model();
    s.commits = 5;
    assert!(!check_tpcc(&m, &s).is_empty());
}

#[test]
fn tpcc_wrong_lookup_fires() {
    let (m, mut s) = tpcc_model();
    s.orders[1] = None;
    assert!(!check_tpcc(&m, &s).is_empty());
    let (m, mut s) = tpcc_model();
    s.orders[1] = Some((2, vec![1, 2]));
    assert!(!check_tpcc(&m, &s).is_empty());
    let (m, mut s) = tpcc_model();
    s.orders[2] = Some((2, vec![2]));
    assert!(!check_tpcc(&m, &s).is_empty());
}

#[test]
fn btree_wrong_lookup_fires() {
    let shadow: BTreeMap<u64, u64> = [(1, 10), (5, 50), (9, 90)].into_iter().collect();
    let good: Vec<(u64, u64)> = shadow.iter().map(|(&k, &v)| (k, v)).collect();
    assert!(check_scan(&shadow, &good).is_empty());
    let mut wrong_value = good.clone();
    wrong_value[1].1 = 51;
    assert!(!check_scan(&shadow, &wrong_value).is_empty());
    let missing = vec![good[0], good[2]];
    assert!(!check_scan(&shadow, &missing).is_empty());
    let mut extra = good.clone();
    extra.push((12, 120));
    assert!(!check_scan(&shadow, &extra).is_empty());
}

#[test]
fn kv_torn_or_missing_value_after_restart_fires() {
    let model: BTreeMap<u64, u64> = [(1, 0x11), (2, 0x23), (3, 0x35)].into_iter().collect();
    let stored: Vec<(u64, Vec<u64>)> = model
        .iter()
        .map(|(&k, &s)| (k, kv_value(s).to_vec()))
        .collect();
    assert!(check_kv_restart(&model, &stored, u64::MAX).is_empty());

    let mut torn = stored.clone();
    torn[1].1[9] = kv_value(0x99)[9]; // second line from another SET
    assert!(!check_kv_restart(&model, &torn, u64::MAX).is_empty());
    // The in-flight key is exempt here: it is checked apart.
    assert!(check_kv_restart(&model, &torn, 2).is_empty());

    let mut lost = stored.clone();
    lost[2].1 = kv_value(0x30).to_vec(); // older stamp: acknowledged SET lost
    assert!(!check_kv_restart(&model, &lost, u64::MAX).is_empty());

    let missing = stored[..2].to_vec();
    assert!(!check_kv_restart(&model, &missing, u64::MAX).is_empty());
}

#[test]
fn kv_torn_inflight_set_fires() {
    let (old, new) = (0x101, 0x203);
    assert!(check_inflight(&kv_value(old), old, new).is_empty());
    assert!(check_inflight(&kv_value(new), old, new).is_empty());
    let mut torn = kv_value(old);
    torn[8..].copy_from_slice(&kv_value(new)[8..]);
    assert!(!check_inflight(&torn, old, new).is_empty());
    assert!(!check_inflight(&kv_value(new)[..8], old, new).is_empty());
}

#[test]
fn minted_balance_fires() {
    let applied = [(0, 1), (0, 2), (2, 1)];
    let good = [8, 12, 10];
    assert!(check_balances(10, &good, &applied).is_empty());
    let minted = [8, 13, 10];
    assert!(!check_balances(10, &minted, &applied).is_empty());
    // Conserved in total but not what the transfers did.
    let shuffled = [9, 11, 10];
    assert!(!check_balances(10, &shuffled, &applied).is_empty());
    // An underflow wraps the balance.
    let underflow = [u64::MAX, 12, 10];
    assert!(!check_balances(0, &underflow, &[(0, 1)]).is_empty());
}
