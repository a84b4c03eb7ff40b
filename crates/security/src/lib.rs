//! # nuspi-security — secrecy and non-interference on top of the CFA
//!
//! The two applications of §4 and §5 of the paper:
//!
//! **Dolev–Yao secrecy.** The paper's `kind` operator (Definition 2)
//! partitions values into secret and public; here it is [`level`] under
//! the two-point projection [`Policy::binary`], where `kind(w) = S` reads
//! `level(w) ⋢ ⊥`. [`carefulness`] is the dynamic notion (no secret in
//! clear on a public channel, Definition 3); [`confinement`] the static
//! one (a check on the `κ` component, Definition 4), decided here once
//! for the lint passes, the audit and `nuspi explain`; and the
//! [`dolevyao`] module implements the knowledge closure `C(W)` and the
//! bounded active-intruder search of Definition 5. Theorems 3 and 4 —
//! confined processes are careful and never reveal secrets — are
//! validated end-to-end by the test and experiment suites.
//!
//! **Message independence.** The [`sort`] operator (Definition 6) tracks
//! a distinguished name `n*`; [`invariance`] is the static check on
//! sensitive program points (Definition 7); [`message_independent`] the
//! bounded public-testing notion (Definitions 8–9); and
//! [`static_message_independence`] packages Theorem 5's premises
//! (confinement + invariance ⟹ independence).
//!
//! **Graded flows.** The [`lattice`] module generalises the binary
//! partition to a product security lattice `Conf × Integ`
//! ([`SecLattice`]); policies grade names with [`Level`]s and carry an
//! attacker clearance, [`AbstractLevel`] re-grades the solved CFA grammar
//! with level *sets*, and [`graded_flows`] is the lattice form of the
//! confinement check, decided here once for the E009 lint pass. The
//! binary checks are the same classifier under [`Policy::binary`], so
//! the two-point instance with clearance at bottom is the binary
//! analysis by construction.
//!
//! # Examples
//!
//! ```
//! use nuspi_security::{confinement, Policy};
//! use nuspi_syntax::parse_process;
//!
//! let p = parse_process("(new k) (new m) c<{m, new r}:k>.0")?;
//! let policy = Policy::with_secrets(["k", "m"]);
//! assert!(confinement(&p, &policy).is_confined());
//!
//! let leaky = parse_process("(new m) c<m>.0")?;
//! assert!(!confinement(&leaky, &policy).is_confined());
//! # Ok::<(), nuspi_syntax::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod careful;
mod confine;
pub mod dolevyao;
mod flow;
mod invariance;
pub mod lattice;
mod policy;
mod sort;
mod testing;

pub use audit::{audit, Audit, AuditConfig};
pub use careful::{carefulness, CarefulnessReport, CarefulnessViolation};
pub use confine::{confinement, confinement_with, ConfinementReport, ConfinementViolation};
pub use dolevyao::{reveals, reveals_value, Attack, IntruderConfig, Knowledge};
pub use flow::{
    graded_flows, graded_flows_with, level, AbstractLevel, FlowViolation, GradedReport,
};
pub use invariance::{invariance, InvarianceViolation};
pub use lattice::{Axis, LatticeError, Level, LevelSet, SecLattice};
pub use policy::Policy;
pub use sort::{n_star, n_star_name, sort, AbstractSort, Sort, SortFacts};
pub use testing::{
    message_independent, standard_battery, static_message_independence, witness_channel,
    Distinguisher, PublicTest, StaticIndependenceReport,
};
