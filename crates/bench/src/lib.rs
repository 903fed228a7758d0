//! Benchmark harness regenerating every table and figure of the PCNN
//! paper.
//!
//! Each experiment lives in [`experiments`] and returns a [`table::Table`]
//! that renders as aligned text with the paper's reported values beside
//! the reproduction's measured ones. The `tables` binary drives them:
//!
//! ```text
//! cargo run -p pcnn-bench --release --bin tables -- all
//! cargo run -p pcnn-bench --release --bin tables -- table1 --train
//! ```
//!
//! Performance is not measured here: timing the crates is the job of
//! the standalone `benchmark/` package (see `benchmark/README.md`).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;
