//! # nuspi-perfbench — the serve front door under seeded closed loops
//!
//! Four workloads drive the engine in-process through
//! [`nuspi_engine::answer_line`] and `Response::to_line`, the path both
//! the `nuspi serve` pipe and the TCP listener take:
//!
//! * `lint-cold` — zoo lints and `.nu` rungs, every request a miss;
//! * `serve-warm` — cache-neutral rewrites of a warm set, every request
//!   a hit;
//! * `equiv-oracle` — Theorem-5 oracle pairs and the equivalence
//!   goldens as `equiv` ops;
//! * `solve-large` — distinct generated 200×4 networks as `solve` ops.
//!
//! [`corpus`] builds every request line and known answer from the seed,
//! [`drive`] runs the closed loop and computes the end-to-end metrics,
//! [`check`] verifies each answer, and [`layers`] is the separate traced
//! run that splits front-door time across the workspace's layers.
//! See `README.md` next to this crate for the metric definitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod corpus;
pub mod drive;
pub mod layers;
pub mod report;
