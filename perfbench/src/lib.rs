//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Four workloads drive the program's public APIs (`pmem-sim` machines,
//! `palloc` heaps, `ptm` transactions, recovery and `CrossShardTx`, the
//! `pstructs` structures), check every output against a model kept here,
//! and report in two clocks: virtual time (the reproduction's result)
//! and host time (what the simulator costs). See `README.md`.

pub mod btree;
pub mod checks;
pub mod common;
pub mod kv;
pub mod metrics;
pub mod run;
pub mod tpcc;
pub mod xfer;
