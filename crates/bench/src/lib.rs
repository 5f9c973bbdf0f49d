//! # bench-harness — regenerating every table and figure of §4
//!
//! One function per experiment, returning structured data; the `src/bin`
//! binaries print the same rows/series the paper's figures plot. See
//! DESIGN.md §3 for the experiment↔figure index and EXPERIMENTS.md for the
//! paper-vs-measured record.

pub mod experiments;
pub mod render;

pub use experiments::*;
