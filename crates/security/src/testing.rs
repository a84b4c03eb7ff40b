//! Message independence — the dynamic non-interference notion
//! (Definitions 8 & 9) and the combined static check of Theorem 5.
//!
//! `P(x)` is *message independent* when `P[M/x] ∼ P[M′/x]` for all closed
//! messages, where `∼` is public testing equivalence: no test `(Q, β)`
//! with public free names can tell the two instantiations apart.
//!
//! All tests is not an enumerable set; [`message_independent`] runs a
//! *battery* of generated distinguishing tests (direct barbs, injection
//! probes, value-comparison probes, numeral probes) over a bounded
//! exploration, for the concrete message pairs the caller supplies. A
//! returned [`Distinguisher`] is a genuine counterexample to independence;
//! passing the battery is evidence for it. Theorem 5's static route —
//! confinement + invariance imply independence — is packaged as
//! [`static_message_independence`].

use crate::confine::{confinement, ConfinementReport};
use crate::invariance::{invariance, InvarianceViolation};
use crate::policy::Policy;
use crate::sort::{n_star, n_star_name, AbstractSort};
use nuspi_semantics::{passes_test, Barb, ExecConfig};
use nuspi_syntax::{builder as b, Process, Symbol, Value, Var};
use std::fmt;
use std::sync::Arc;

/// A public test `(Q, β)` from Definition 8.
#[derive(Clone, Debug)]
pub struct PublicTest {
    /// The observer process `Q` (free names must be public).
    pub observer: Process,
    /// The barb `β` to watch for.
    pub barb: Barb,
    /// A short description for reports.
    pub description: String,
}

/// A counterexample to message independence: a test passed by one
/// instantiation and failed by the other.
#[derive(Clone, Debug)]
pub struct Distinguisher {
    /// The distinguishing test.
    pub test: PublicTest,
    /// Whether `P[M/x]` passed.
    pub with_first: bool,
    /// Whether `P[M′/x]` passed.
    pub with_second: bool,
}

impl fmt::Display for Distinguisher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "test `{}` distinguishes: first {} it, second {} it",
            self.test.description,
            if self.with_first { "passes" } else { "fails" },
            if self.with_second { "passes" } else { "fails" },
        )
    }
}

/// The reserved barb channel used by generated observers. Processes under
/// test must not use it.
pub fn witness_channel() -> Symbol {
    Symbol::intern("witness'")
}

/// Builds the standard battery of distinguishing tests over the given
/// public channels, probing with the given candidate values.
///
/// For each channel `c` the battery contains:
/// * the direct barbs `(0, c)` and `(0, c̄)`;
/// * an *injection* probe `c⟨w⟩.witness⟨0⟩` per candidate `w` — detects
///   readiness to input;
/// * a *comparison* probe `c(y).[y is w] witness⟨0⟩` per candidate —
///   detects output of the specific value `w`;
/// * a *numeral* probe `c(y).case y of 0: witness⟨0⟩, suc(z): 0` —
///   detects output of `0`.
pub fn standard_battery(channels: &[Symbol], probes: &[Arc<Value>]) -> Vec<PublicTest> {
    let w = witness_channel();
    let witness_barb = Barb::Out(w);
    let witness = || b::output(b::name(w.as_str()), b::zero(), b::nil());
    let mut tests = Vec::new();
    for &c in channels {
        let cname = c.as_str();
        tests.push(PublicTest {
            observer: b::nil(),
            barb: Barb::Out(c),
            description: format!("direct output barb on {cname}"),
        });
        tests.push(PublicTest {
            observer: b::nil(),
            barb: Barb::In(c),
            description: format!("direct input barb on {cname}"),
        });
        for probe in probes {
            tests.push(PublicTest {
                observer: b::output(b::name(cname), b::val(Arc::clone(probe)), witness()),
                barb: witness_barb,
                description: format!("inject {probe} on {cname}"),
            });
            let y = Var::fresh("y");
            tests.push(PublicTest {
                observer: b::input(
                    b::name(cname),
                    y,
                    b::guard(b::var(y), b::val(Arc::clone(probe)), witness()),
                ),
                barb: witness_barb,
                description: format!("receive on {cname} and compare with {probe}"),
            });
        }
        let y = Var::fresh("y");
        let z = Var::fresh("z");
        tests.push(PublicTest {
            observer: b::input(
                b::name(cname),
                y,
                b::case_nat(b::var(y), witness(), z, b::nil()),
            ),
            barb: witness_barb,
            description: format!("receive on {cname} and test for 0"),
        });
    }
    tests
}

/// Runs the battery against `P[m1/x]` and `P[m2/x]` (Definition 9 for one
/// message pair). Returns the first distinguishing test, if any.
pub fn message_independent(
    open: &Process,
    x: Var,
    m1: &Arc<Value>,
    m2: &Arc<Value>,
    battery: &[PublicTest],
    cfg: &ExecConfig,
) -> Result<(), Box<Distinguisher>> {
    let p1 = open.subst(x, m1);
    let p2 = open.subst(x, m2);
    for t in battery {
        let r1 = passes_test(&p1, &t.observer, t.barb, cfg);
        let r2 = passes_test(&p2, &t.observer, t.barb, cfg);
        if r1 != r2 {
            return Err(Box::new(Distinguisher {
                test: t.clone(),
                with_first: r1,
                with_second: r2,
            }));
        }
    }
    Ok(())
}

/// The static side of Theorem 5 for `P(x)`: substitute the tracking name
/// `n*` for `x`, require confinement (with `n* ∈ S`) and invariance.
#[derive(Debug)]
pub struct StaticIndependenceReport {
    /// The confinement half (Definition 4).
    pub confinement: ConfinementReport,
    /// The invariance half (Definition 7).
    pub invariance: Vec<InvarianceViolation>,
}

impl StaticIndependenceReport {
    /// Whether both premises of Theorem 5 hold, so the process is message
    /// independent.
    pub fn implies_independence(&self) -> bool {
        self.confinement.is_confined() && self.invariance.is_empty()
    }
}

/// Checks the premises of Theorem 5 on `P(x)`.
pub fn static_message_independence(
    open: &Process,
    x: Var,
    policy: &Policy,
) -> StaticIndependenceReport {
    // `n*` stands in for the bound variable x, so it is not a genuine free
    // secret name; restricting it keeps the analysed process well-formed
    // (fn ⊆ P) without changing the analysis.
    let tracked = b::restrict(n_star_name(), open.subst(x, &Value::name(n_star_name())));
    let mut policy = policy.clone();
    policy.add_secret(n_star());
    let report = confinement(&tracked, &policy);
    let sorts = AbstractSort::compute(&report.solution, n_star());
    let invariance = invariance(&tracked, &report.solution, &sorts);
    StaticIndependenceReport {
        confinement: report,
        invariance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::parse_process;

    fn channels(cs: &[&str]) -> Vec<Symbol> {
        cs.iter().map(|c| Symbol::intern(c)).collect()
    }

    fn cfg() -> ExecConfig {
        ExecConfig::default()
    }

    /// An open process `P(x)` built by parsing with a fresh input binder:
    /// `probe(x). body` and stripping the input — easier: build directly.
    fn open_forwarder() -> (Process, Var) {
        let x = Var::fresh("x");
        // P(x) = c<{x}:k>.0 under restricted k — independent.
        let k = nuspi_syntax::Name::global("k");
        let p = b::restrict(
            k,
            b::output(
                b::name("c"),
                b::enc(
                    vec![b::var(x)],
                    nuspi_syntax::Name::global("r"),
                    b::name_expr(k),
                ),
                b::nil(),
            ),
        );
        (p, x)
    }

    fn open_leaker() -> (Process, Var) {
        let x = Var::fresh("x");
        // P(x) = c<x>.0 — leaks x outright.
        (b::output(b::name("c"), b::var(x), b::nil()), x)
    }

    fn open_comparer() -> (Process, Var) {
        let x = Var::fresh("x");
        // P(x) = [x is 0] c<0>.0 — implicit flow (§5's motivating case).
        (
            b::guard(
                b::var(x),
                b::zero(),
                b::output(b::name("c"), b::zero(), b::nil()),
            ),
            x,
        )
    }

    #[test]
    fn encrypted_forwarding_is_message_independent() {
        let (p, x) = open_forwarder();
        let m1 = Value::numeral(0);
        let m2 = Value::numeral(3);
        let battery = standard_battery(&channels(&["c"]), &[m1.clone(), m2.clone()]);
        assert!(message_independent(&p, x, &m1, &m2, &battery, &cfg()).is_ok());
    }

    #[test]
    fn direct_leak_is_distinguished() {
        let (p, x) = open_leaker();
        let m1 = Value::numeral(0);
        let m2 = Value::name("a");
        let battery = standard_battery(&channels(&["c"]), &[m1.clone(), m2.clone()]);
        let d = message_independent(&p, x, &m1, &m2, &battery, &cfg()).unwrap_err();
        assert!(d.with_first != d.with_second);
    }

    #[test]
    fn implicit_flow_is_distinguished() {
        let (p, x) = open_comparer();
        let m1 = Value::numeral(0); // guard passes
        let m2 = Value::numeral(1); // guard fails
        let battery = standard_battery(&channels(&["c"]), &[Value::zero()]);
        let d = message_independent(&p, x, &m1, &m2, &battery, &cfg()).unwrap_err();
        assert!(d.with_first && !d.with_second);
    }

    #[test]
    fn static_check_accepts_encrypted_forwarding() {
        let (p, x) = open_forwarder();
        let policy = Policy::with_secrets(["k"]);
        let report = static_message_independence(&p, x, &policy);
        assert!(
            report.implies_independence(),
            "conf: {:?}, inv: {:?}",
            report.confinement.violations,
            report.invariance
        );
    }

    #[test]
    fn static_check_rejects_direct_leak_via_confinement() {
        let (p, x) = open_leaker();
        let report = static_message_independence(&p, x, &Policy::new());
        assert!(!report.confinement.is_confined(), "n* is secret and leaks");
        assert!(!report.implies_independence());
    }

    #[test]
    fn static_check_rejects_implicit_flow_via_invariance() {
        let (p, x) = open_comparer();
        let report = static_message_independence(&p, x, &Policy::new());
        assert!(!report.invariance.is_empty());
        assert!(!report.implies_independence());
    }

    #[test]
    fn theorem5_shape_static_implies_dynamic_on_examples() {
        // For each P(x): if the static check passes, the battery must not
        // distinguish; if the battery distinguishes, the static check must
        // have failed (contrapositive of Theorem 5).
        let cases = [open_forwarder(), open_leaker(), open_comparer()];
        let m1 = Value::numeral(0);
        let m2 = Value::numeral(2);
        for (p, x) in cases {
            let report = static_message_independence(&p, x, &Policy::with_secrets(["k"]));
            let battery = standard_battery(&channels(&["c"]), &[m1.clone(), m2.clone()]);
            let dynamic = message_independent(&p, x, &m1, &m2, &battery, &cfg());
            if report.implies_independence() {
                assert!(dynamic.is_ok(), "static pass must imply dynamic pass");
            }
            if dynamic.is_err() {
                assert!(!report.implies_independence());
            }
        }
    }

    #[test]
    fn battery_contains_expected_shapes() {
        let battery = standard_battery(&channels(&["c", "d"]), &[Value::zero()]);
        // 2 direct + 2 probes + 1 numeral per channel.
        assert_eq!(battery.len(), 10);
        assert!(battery.iter().all(|t| t.observer.is_closed()));
    }

    #[test]
    fn distinguisher_displays() {
        let (p, x) = open_leaker();
        let m1 = Value::numeral(0);
        let m2 = Value::name("a");
        let battery = standard_battery(&channels(&["c"]), std::slice::from_ref(&m1));
        let d = message_independent(&p, x, &m1, &m2, &battery, &cfg()).unwrap_err();
        assert!(d.to_string().contains("distinguishes"));
    }

    #[test]
    fn wmf_payload_is_message_independent() {
        // Parameterise WMF on its payload and check both routes.
        let src = "
            (new kAS) (new kBS) (
              ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{xmsg, new r2}:kAB>.0
               | cBS(t). case t of {y}:kBS in cAB(z). case z of {q}:y in 0)
              | cAS(x). case x of {s}:kAS in cBS<{s, new r3}:kBS>.0
            )";
        let p = parse_process(src).unwrap();
        let (p_open, x) = p.abstract_name(Symbol::intern("xmsg"));
        let policy = Policy::with_secrets(["kAS", "kBS", "kAB"]);
        let report = static_message_independence(&p_open, x, &policy);
        assert!(
            report.implies_independence(),
            "conf: {:?}, inv: {:?}",
            report.confinement.violations,
            report.invariance
        );
        let m1 = Value::numeral(0);
        let m2 = Value::numeral(5);
        let battery =
            standard_battery(&channels(&["cAS", "cBS", "cAB"]), &[m1.clone(), m2.clone()]);
        assert!(message_independent(&p_open, x, &m1, &m2, &battery, &cfg()).is_ok());
    }
}
