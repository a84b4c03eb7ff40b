//! # nuspi-equiv — bounded hedged bisimilarity, std-only
//!
//! A second, *dynamic* analysis backend beside the static CFA pipeline:
//! a bounded hedged-bisimulation checker over the commitment LTS of
//! `nuspi-semantics`, after Mansutti–Miculan's decision procedure for
//! spi-calculus equivalence (see PAPERS.md).
//!
//! * [`check`] plays the attacker game between two processes and returns
//!   [`Verdict::Bisimilar`], [`Verdict::Distinguished`] with a rendered
//!   attacker strategy, or [`Verdict::Unknown`] naming the exhausted
//!   budgets. The two definite verdicts are asymmetric in strength:
//!   `Distinguished` is always hard evidence (a complete defender
//!   enumeration backs every step of the trace), while `Bisimilar`
//!   means the play tree over the *finite injection base* was exhausted
//!   — equivalence relative to the budgeted attacker, not an unbounded
//!   proof. Safety claims in this repo therefore rest on the static
//!   analysis run differentially against this game, never on
//!   `Bisimilar` alone (DESIGN.md §11).
//! * [`Hedge`] is the paired-knowledge game state, closed under the
//!   Dolev–Yao analysis rewriting and checked for consistency
//!   (shape classes, injectivity, corresponding decryptability).
//! * [`independence_oracle`] is the dynamic side of the paper's
//!   Theorem 5: message independence of `P(x)` as a game between two
//!   fresh-name instantiations, run differentially against
//!   `static_message_independence` by the repo's test walls.
//! * [`mutations`] mines attack variants: protocol-shaped edits (swap /
//!   drop / replay / expose a message field) whose oracle verdicts
//!   report which mistakes break equivalence.
//!
//! Everything here is deterministic by construction — verdicts, traces,
//! and play counts are bit-identical across runs, worker counts, and
//! cache temperatures — which is what lets the engine cache `equiv`
//! bodies under an order-independent pair of α-invariant digests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisim;
mod hedge;
mod key;
mod mutate;
mod oracle;

pub use bisim::{check, check_with_hedge, EquivConfig, EquivReport, Verdict};
pub use hedge::{Hedge, Inconsistency};
pub use mutate::{mutations, Mutation};
pub use oracle::{independence_oracle, pick_probes, Probes};
