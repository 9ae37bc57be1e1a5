//! # machk-bench — the experiment harness
//!
//! The source paper ("Locking and Reference Counting in the Mach
//! Kernel", ICPP 1991) is a design/experience paper with **no tables or
//! figures**; its claims are qualitative. This crate regenerates those
//! claims as measurements: experiments **E1–E20** (indexed in
//! `DESIGN.md`), each a function in [`experiments`] that runs its
//! workloads and fills one [`report::BenchReport`]: the tables the
//! `experiments` binary prints and the metrics of the JSON envelope
//! that `bench-compare` ([`compare`]) diffs against the committed
//! baselines.
//!
//! The workload kernels live in [`workloads`]. Thread sweeps, the host
//! sampler every throughput figure goes through, and table formatting
//! live in [`util`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compare;
pub mod experiments;
pub mod json;
pub mod report;
pub mod util;
pub mod workloads;
