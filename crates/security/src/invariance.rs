//! Invariance — the static non-interference check (Definition 7).
//!
//! A process `P(x)` (tracked through the substitution `x := n*`) is
//! *invariant* when the value of `x` is never used where an attacker could
//! grasp it: as a channel, as an encryption key, or in a comparison. The
//! check reads the `ζ` component of the estimate at each sensitive
//! program point:
//!
//! * encryption keys `{…}_{N^l}` and decryption keys must have abstract
//!   sort `I` (no `E`-sorted value reaches them);
//! * channel positions of prefixes and the scrutinees of `let`, integer
//!   `case` and decryption must not contain `n*` itself;
//! * both sides of a match must have sort `I`.
//!
//! Decomposing a term that merely *contains* `x` is allowed; only flow of
//! control may not depend on it.

use crate::sort::{AbstractSort, SortFacts};
use nuspi_cfa::{FlowVar, Prod, Solution};
use nuspi_syntax::{Expr, Label, Part, Process, Symbol, Term};
use std::fmt;

/// A sensitive program point where the tracked name may be grasped.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InvarianceViolation {
    /// An encryption or decryption key may be `E`-sorted.
    ExposedKey {
        /// Label of the key occurrence.
        label: Label,
    },
    /// `n*` may reach a channel position or destructor scrutinee.
    TrackedAtControlPosition {
        /// Label of the occurrence.
        label: Label,
        /// What the position is (diagnostic).
        role: &'static str,
    },
    /// A side of a match may be `E`-sorted.
    ExposedComparison {
        /// Label of the compared occurrence.
        label: Label,
    },
}

impl fmt::Display for InvarianceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvarianceViolation::ExposedKey { label } => {
                write!(f, "key at {label} may expose the tracked message")
            }
            InvarianceViolation::TrackedAtControlPosition { label, role } => {
                write!(f, "tracked name may reach {role} at {label}")
            }
            InvarianceViolation::ExposedComparison { label } => {
                write!(f, "comparison at {label} may depend on the tracked message")
            }
        }
    }
}

/// Checks Definition 7 for `p` against a solution and its abstract sort
/// facts. Returns every violated condition (empty means invariant).
pub fn invariance(p: &Process, sol: &Solution, sorts: &AbstractSort) -> Vec<InvarianceViolation> {
    let mut c = Checker {
        sol,
        sorts,
        tracked: sorts.tracked(),
        violations: Vec::new(),
    };
    c.process(p);
    c.violations
}

struct Checker<'a> {
    sol: &'a Solution,
    sorts: &'a AbstractSort,
    tracked: Symbol,
    violations: Vec<InvarianceViolation>,
}

impl Checker<'_> {
    fn facts(&self, l: Label) -> SortFacts {
        match self.sol.var_id(FlowVar::Zeta(l)) {
            Some(id) => self.sorts.facts(id),
            None => SortFacts::default(),
        }
    }

    fn zeta_has_tracked(&self, l: Label) -> bool {
        self.sol
            .zeta(l)
            .iter()
            .any(|p| matches!(p, Prod::Name(n) if *n == self.tracked))
    }

    fn check_key_sort(&mut self, key: &Expr) {
        if self.facts(key.label).may_exposed {
            self.violations
                .push(InvarianceViolation::ExposedKey { label: key.label });
        }
    }

    fn check_control(&mut self, e: &Expr, role: &'static str) {
        if self.zeta_has_tracked(e.label) {
            self.violations
                .push(InvarianceViolation::TrackedAtControlPosition {
                    label: e.label,
                    role,
                });
        }
    }

    fn check_comparison(&mut self, e: &Expr) {
        if self.facts(e.label).may_exposed {
            self.violations
                .push(InvarianceViolation::ExposedComparison { label: e.label });
        }
    }

    /// Scans an expression for encryption sub-terms, whose key labels are
    /// sensitive regardless of where the encryption occurs.
    fn expr(&mut self, e: &Expr) {
        match &e.term {
            Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => {}
            Term::Suc(inner) => self.expr(inner),
            Term::Pair(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            Term::Enc { payload, key, .. } => {
                for p in payload {
                    self.expr(p);
                }
                self.check_key_sort(key);
                self.expr(key);
            }
        }
    }

    /// Checks every node's control and comparison positions, then scans
    /// its expressions, node by node in pre-order.
    fn process(&mut self, p: &Process) {
        for (q, _) in p.preorder() {
            match q {
                Process::Output { chan, .. } => self.check_control(chan, "an output channel"),
                Process::Input { chan, .. } => self.check_control(chan, "an input channel"),
                Process::Match { lhs, rhs, .. } => {
                    self.check_comparison(lhs);
                    self.check_comparison(rhs);
                }
                Process::Let { expr, .. } => self.check_control(expr, "a pair-splitting scrutinee"),
                Process::CaseNat { expr, .. } => {
                    self.check_control(expr, "an integer-case scrutinee")
                }
                Process::CaseDec { expr, key, .. } => {
                    self.check_control(expr, "a decryption scrutinee");
                    self.check_key_sort(key);
                }
                Process::Nil
                | Process::Par(..)
                | Process::Restrict { .. }
                | Process::Hide { .. }
                | Process::Replicate(_) => {}
            }
            q.parts().filter_map(Part::expr).for_each(|e| self.expr(e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::{n_star, n_star_name, AbstractSort};
    use nuspi_cfa::analyze;
    use nuspi_syntax::{builder as b, parse_process, Value, Var};

    fn check(p: &Process) -> Vec<InvarianceViolation> {
        let sol = analyze(p);
        let sorts = AbstractSort::compute(&sol, n_star());
        invariance(p, &sol, &sorts)
    }

    /// Builds `P[n*/x]` from an open process.
    fn track(open: &Process, x: Var) -> Process {
        open.subst(x, &Value::name(n_star_name()))
    }

    #[test]
    fn forwarding_the_message_is_invariant() {
        // P(x) = c<x>.0 — sending x in data position is fine.
        let x = Var::fresh("x");
        let p = track(&b::output(b::name("c"), b::var(x), b::nil()), x);
        assert!(check(&p).is_empty());
    }

    #[test]
    fn using_the_message_as_channel_is_flagged() {
        // P(x) = x<0>.0 — the attacker can see which channel fires.
        let x = Var::fresh("x");
        let p = track(&b::output(b::var(x), b::zero(), b::nil()), x);
        let vs = check(&p);
        assert!(vs
            .iter()
            .any(|v| matches!(v, InvarianceViolation::TrackedAtControlPosition { .. })));
    }

    #[test]
    fn using_the_message_as_key_is_flagged() {
        // P(x) = c<{0}:x>.0 — encrypting under x.
        let x = Var::fresh("x");
        let p = track(
            &b::output(
                b::name("c"),
                b::enc(vec![b::zero()], nuspi_syntax::Name::global("r"), b::var(x)),
                b::nil(),
            ),
            x,
        );
        let vs = check(&p);
        assert!(vs
            .iter()
            .any(|v| matches!(v, InvarianceViolation::ExposedKey { .. })));
    }

    #[test]
    fn comparing_the_message_is_flagged() {
        // P(x) = [x is 0] c<0>.0 — the implicit flow of §5.
        let x = Var::fresh("x");
        let p = track(
            &b::guard(
                b::var(x),
                b::zero(),
                b::output(b::name("c"), b::zero(), b::nil()),
            ),
            x,
        );
        let vs = check(&p);
        assert!(vs
            .iter()
            .any(|v| matches!(v, InvarianceViolation::ExposedComparison { .. })));
    }

    #[test]
    fn case_nat_on_the_message_is_flagged() {
        let src = "c(x). case x of 0: d<0>.0, suc(y): e<0>.0";
        // close it with a sender of n*
        let p = parse_process(&format!("c<n*>.0 | {src}")).unwrap();
        let vs = check(&p);
        assert!(vs
            .iter()
            .any(|v| matches!(v, InvarianceViolation::TrackedAtControlPosition { .. })));
    }

    #[test]
    fn decomposing_a_pair_containing_the_message_is_allowed() {
        // The paper allows destructing terms that contain x — only the
        // scrutinee itself being (exactly) n* is forbidden.
        let p = parse_process("c<(n*, 0)>.0 | c(z). let (a, b) = z in d<a>.0").unwrap();
        // The scrutinee z may be the *pair* containing n*, not n* itself.
        let vs = check(&p);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn encrypting_the_message_under_fixed_key_is_invariant() {
        let p = parse_process("c<{n*, new r}:k>.0").unwrap();
        assert!(check(&p).is_empty());
    }

    #[test]
    fn decryption_key_must_be_independent() {
        // The received x (which may be n*) is used as a decryption key.
        let p = parse_process("c<n*>.0 | c(x). case {0, new r}:k of {y}:x in 0").unwrap();
        let vs = check(&p);
        assert!(vs
            .iter()
            .any(|v| matches!(v, InvarianceViolation::ExposedKey { .. })));
    }

    #[test]
    fn tracked_name_inside_encryption_stays_invariant_downstream() {
        // B decrypts and re-encrypts — never exposing n* to control flow.
        let p = parse_process(
            "(new k) (c<{n*, new r}:k>.0 | c(z). case z of {q}:k in c<{q, new r2}:k>.0)",
        )
        .unwrap();
        assert!(check(&p).is_empty());
    }
}
