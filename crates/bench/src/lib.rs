//! # safedm-bench — experiment harness
//!
//! Shared plumbing for the table/figure regeneration binaries (see
//! `src/bin/`) and the Criterion microbenchmarks (see `benches/`).

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod service;
