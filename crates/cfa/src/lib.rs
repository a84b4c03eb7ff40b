//! # nuspi-cfa — Control Flow Analysis for the νSPI-calculus
//!
//! The flow logic of §3 of the paper: an estimate `(ρ, κ, ζ)` is
//! acceptable for a process `P` when it satisfies the clauses of Table 2;
//! acceptable estimates form a Moore family, and the least one is
//! computable in polynomial time by reading the clauses as a regular tree
//! grammar (after Nielson–Seidl).
//!
//! * [`analyze`] — one call: generate constraints and solve to the least
//!   [`Solution`].
//! * [`Constraints::generate`] / [`solve`] — the two phases separately;
//!   [`solve_traced`] additionally records flow [`Provenance`].
//! * [`solve_reference`] — a deliberately naive round-robin solver, the
//!   oracle the worklist solver is differentially tested against.
//! * [`accept::verify`] — independent acceptability validation of a
//!   solution (Table 2 re-checked symbolically).
//! * [`FiniteEstimate`] — the reference, set-theoretic reading of Table 2
//!   for finite estimates, with the lattice operations of Theorem 2.
//!
//! # Examples
//!
//! ```
//! use nuspi_cfa::{analyze, FlowVar};
//! use nuspi_syntax::{parse_process, Symbol, Value};
//!
//! let p = parse_process("c<{m, new r}:k>.0 | c(z). case z of {x}:k in d<x>.0")?;
//! let sol = analyze(&p);
//! // The analysis predicts m flows to channel d.
//! assert!(sol.contains(FlowVar::Kappa(Symbol::intern("d")), &Value::name("m")));
//! # Ok::<(), nuspi_syntax::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accept;
pub mod attacker;
mod constraints;
mod display;
mod domain;
mod finite;
mod lang;
mod reference;
mod solver;

pub use attacker::{analyze_with_attacker, analyze_with_attacker_traced, AttackedSolution};
pub use constraints::{Constraint, Constraints};
pub use display::{elide, RENDER_CAP};
pub use domain::{FlowVar, Prod, VarId, VarTable};
pub use finite::{FiniteEstimate, FiniteViolation, ValSet};
pub use reference::solve_reference;
pub use solver::{
    solve, solve_traced, EdgeKind, FlowStep, FlowStepKind, Provenance, Solution, SolverStats,
};

use nuspi_syntax::Process;

/// Computes the least acceptable estimate for a process: constraint
/// generation (Table 2) followed by the worklist solver.
pub fn analyze(p: &Process) -> Solution {
    solve(Constraints::generate(p))
}
