//! # flexos_benchmark — one seeded, layered benchmark of the FlexOS
//! reproduction
//!
//! This system has two clocks. *Virtual cycles* are its result and must
//! not move; *host nanoseconds* are what the result costs, and what this
//! package measures: end to end on four workloads ([`workloads`]), and
//! layer by layer from outside — spans the harness records around its
//! own calls into each crate's public functions ([`spans`]) and loops
//! over the entry points a span cannot reach ([`probes`]).
//!
//! `BENCHMARK.json` at the repository root declares the benchmark
//! ([`manifest`] prints it); `expected.json` pins the virtual results
//! ([`expected`]); `README.md` beside this package is the glossary.

pub mod compare;
pub mod expected;
pub mod guard;
pub mod host;
pub mod json;
pub mod manifest;
pub mod probes;
pub mod report;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workloads;
