//! Confinement — the static secrecy check (Definition 4).
//!
//! A process `P` is *confined* w.r.t. the secret partition `S` and an
//! estimate `(ρ, κ, ζ)` when the estimate is acceptable for `P` and
//! `κ(n) = Val_P` for every public channel `n`. The safety-relevant
//! direction of that equation is `κ(n) ⊆ Val_P` — *only public-kind values
//! flow on public channels* — which is what this module checks, with the
//! abstract [`level`](crate::level) fixpoint under the policy's two-point
//! projection [`Policy::binary`]. The `⊇` direction — the
//! channel also carries *everything the environment can produce* — is
//! realised by solving `P` together with the most powerful public
//! attacker of Lemma 1 (see [`nuspi_cfa::attacker`]): attacker-suppliable
//! values flow back into `P`'s destructors, so reflection and type-flaw
//! attacks surface statically, and Proposition 1 (confinement is
//! preserved under composition with public contexts) holds by
//! construction.
//!
//! This is the one place Definition 4 is decided: the lint passes
//! (E001–E004) and `nuspi explain` present the [`ConfinementReport`]
//! built here.

use crate::flow::{attacked_solution, AbstractLevel};
use crate::policy::Policy;
use nuspi_cfa::{accept, FlowVar, Prod, Solution};
use nuspi_syntax::{Name, Process, Symbol};
use std::fmt;

/// Why a process failed the confinement check. Variants carry the
/// offending names, channels, and Table 2 clauses as structured data so
/// downstream tooling (the `nuspi-diagnostics` lint passes) can attach
/// spans and witness traces without re-parsing prose.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConfinementViolation {
    /// A free name of the process is secret (the paper demands
    /// `fn(P) ⊆ P`).
    FreeSecretName(Name),
    /// The estimate is not acceptable for the process (Table 2 violation).
    NotAcceptable(accept::Violation),
    /// A secret-kind value may flow on a public channel.
    SecretOnPublicChannel {
        /// The offending public channel (canonical).
        channel: Symbol,
    },
    /// The most powerful attacker's knowledge may contain a secret-kind
    /// value (the revelation Theorem 4 rules out for confined processes).
    SecretDerivableByAttacker,
}

impl fmt::Display for ConfinementViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfinementViolation::FreeSecretName(n) => {
                write!(f, "free name `{n}` is declared secret")
            }
            ConfinementViolation::NotAcceptable(msg) => {
                write!(f, "estimate not acceptable: {msg}")
            }
            ConfinementViolation::SecretOnPublicChannel { channel } => {
                write!(
                    f,
                    "secret-kind value may flow on public channel `{channel}`"
                )
            }
            ConfinementViolation::SecretDerivableByAttacker => {
                write!(
                    f,
                    "a secret-kind value may become derivable by the attacker"
                )
            }
        }
    }
}

/// The outcome of a confinement check, carrying the solution and abstract
/// level facts for further inspection.
#[derive(Debug)]
pub struct ConfinementReport {
    /// The analysed estimate.
    pub solution: Solution,
    /// The abstract level facts under the two-point projection: a
    /// nonterminal may hold a secret-kind value exactly when it
    /// [escapes](AbstractLevel::escapes).
    pub levels: AbstractLevel,
    /// Violations; empty means confined.
    pub violations: Vec<ConfinementViolation>,
    /// The projection the levels were computed under.
    binary: Policy,
}

impl ConfinementReport {
    /// Whether the process is confined.
    pub fn is_confined(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether a production of the solution may derive a secret-kind
    /// value (Definition 2), judged like the verdict.
    pub fn secret_kind(&self, p: &Prod) -> bool {
        self.levels.prod_escapes(p, &self.binary)
    }
}

/// Checks confinement of `p` w.r.t. `policy`.
///
/// The estimate is the least solution of `P` *extended with the most
/// powerful public attacker* (Lemma 1's estimate): every public channel's
/// `κ` is closed under everything the environment can tap, synthesise and
/// re-inject — the `⊇` half of Definition 4's `κ(n) = Val_P`. This is
/// what surfaces reflection and type-flaw attacks statically. The
/// attacker cannot resolve the secrets of [`Policy::binary`], the same
/// set the verdict reads.
pub fn confinement(p: &Process, policy: &Policy) -> ConfinementReport {
    // Hidden names are secret by construction; fold them into the policy
    // so the attacker treats them as opaque and the level fixpoint grades
    // them secret. Processes without `hide` see the policy unchanged.
    let policy = policy.with_hidden_of(p);
    confinement_with(p, &policy, attacked_solution(p, &policy))
}

/// Checks confinement against a caller-provided solution (which must be
/// acceptable for `p`; acceptability is re-validated). `policy` must
/// already carry `p`'s hidden names ([`Policy::with_hidden_of`]).
pub fn confinement_with(p: &Process, policy: &Policy, solution: Solution) -> ConfinementReport {
    let binary = policy.binary();
    let mut violations = Vec::new();
    for n in binary.free_secret_names(p) {
        violations.push(ConfinementViolation::FreeSecretName(n));
    }
    for v in accept::verify(&solution, p) {
        violations.push(ConfinementViolation::NotAcceptable(v));
    }
    let levels = AbstractLevel::compute(&solution, &binary);
    for chan in solution.channels() {
        if binary.is_secret(chan) {
            continue; // κ of a secret channel is unconstrained
        }
        if let Some(id) = solution.var_id(FlowVar::Kappa(chan)) {
            if levels.escapes(id) {
                if chan == nuspi_cfa::attacker::attacker_name() {
                    violations.push(ConfinementViolation::SecretDerivableByAttacker);
                } else {
                    violations.push(ConfinementViolation::SecretOnPublicChannel { channel: chan });
                }
            }
        }
    }
    ConfinementReport {
        solution,
        levels,
        violations,
        binary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::{builder, parse_process};

    fn pol(secrets: &[&str]) -> Policy {
        Policy::with_secrets(secrets.iter().copied())
    }

    const WMF: &str = "
        (new kAS) (new kBS) (
          ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{m, new r2}:kAB>.0
           | cBS(t). case t of {y}:kBS in cAB(z). case z of {q}:y in 0)
          | cAS(x). case x of {s}:kAS in cBS<{s, new r3}:kBS>.0
        )";

    /// Example 1 requires m secret, hence restricted; wrap it.
    fn wmf_closed() -> Process {
        let p = parse_process(WMF).unwrap();
        builder::restrict(nuspi_syntax::Name::global("m"), p)
    }

    fn wmf_policy() -> Policy {
        pol(&["kAS", "kBS", "kAB", "m"])
    }

    #[test]
    fn wmf_is_confined() {
        let report = confinement(&wmf_closed(), &wmf_policy());
        assert!(report.is_confined(), "{:?}", report.violations);
    }

    #[test]
    fn cleartext_secret_breaks_confinement() {
        let p = parse_process("(new m) c<m>.0").unwrap();
        let report = confinement(&p, &pol(&["m"]));
        assert!(!report.is_confined());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, ConfinementViolation::SecretOnPublicChannel { .. })));
    }

    #[test]
    fn free_secret_name_is_flagged() {
        let p = parse_process("c<0>.0 | d<m>.0").unwrap();
        let report = confinement(&p, &pol(&["m"]));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, ConfinementViolation::FreeSecretName(_))));
    }

    #[test]
    fn secret_under_public_key_breaks_confinement() {
        let p = parse_process("(new m) c<{m, new r}:pub>.0").unwrap();
        let report = confinement(&p, &pol(&["m"]));
        assert!(!report.is_confined());
    }

    #[test]
    fn secret_channel_may_carry_secrets() {
        // s itself is a secret channel: no constraint on κ(s).
        let p = parse_process("(new s) (new m) (s<m>.0 | s(x).0)").unwrap();
        let report = confinement(&p, &pol(&["s", "m"]));
        assert!(report.is_confined(), "{:?}", report.violations);
    }

    #[test]
    fn wmf_flawed_key_in_clear_is_rejected() {
        // The server forwards the session key unencrypted.
        let src = "
            (new kAS) (new m) (
              ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{m, new r2}:kAB>.0
               | cBS(y). cAB(z). case z of {q}:y in 0)
              | cAS(x). case x of {s}:kAS in cBS<s>.0
            )";
        let p = parse_process(src).unwrap();
        let report = confinement(&p, &pol(&["kAS", "kAB", "m"]));
        assert!(!report.is_confined());
        assert!(report.violations.iter().any(|v| matches!(
            v,
            ConfinementViolation::SecretOnPublicChannel { channel } if channel.as_str() == "cBS"
        )));
    }

    #[test]
    fn confinement_is_preserved_under_public_context() {
        // Proposition 1: composing a confined process with an attacker
        // that only knows public names keeps it confined.
        let p = wmf_closed();
        let attacker =
            parse_process("cAS(a). cBS<a>.0 | cAB(b). cAB<b>.0 | spy(x). spy<x>.0").unwrap();
        let composed = builder::par(p, attacker);
        let report = confinement(&composed, &wmf_policy());
        assert!(report.is_confined(), "{:?}", report.violations);
    }

    #[test]
    fn hidden_name_needs_no_policy_entry() {
        // `hide h` declares secrecy by construction: leaking h breaks
        // confinement under the empty policy.
        let p = parse_process("(hide h) c<h>.0").unwrap();
        let report = confinement(&p, &Policy::new());
        assert!(!report.is_confined());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, ConfinementViolation::SecretOnPublicChannel { .. })));
    }

    #[test]
    fn hidden_name_under_secret_key_is_confined() {
        let p = parse_process("(new k) (hide h) c<{h, new r}:k>.0").unwrap();
        let report = confinement(&p, &pol(&["k"]));
        assert!(report.is_confined(), "{:?}", report.violations);
    }

    #[test]
    fn the_attacker_cannot_resolve_names_graded_above_its_clearance() {
        // `db` is free, so E003-style well-formedness fails; but it is
        // graded above the clearance, so the attacker must not know it
        // either — it cannot send it on `c` nor learn it.
        let mut policy = Policy::with_lattice(crate::SecLattice::diamond4());
        let lat = policy.lattice().clone();
        policy.grade("db", lat.level("confidential", "trusted").unwrap());
        let p = parse_process("c<0>.0 | db(x).0").unwrap();
        let report = confinement(&p, &policy);
        assert_eq!(
            report.violations,
            [ConfinementViolation::FreeSecretName(Name::global("db"))]
        );
    }

    #[test]
    fn report_exposes_solution() {
        let report = confinement(&wmf_closed(), &wmf_policy());
        assert!(report.solution.stats().productions > 0);
    }
}
