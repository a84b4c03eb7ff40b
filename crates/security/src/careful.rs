//! Carefulness — the dynamic secrecy notion (Definition 3).
//!
//! `P` is careful w.r.t. `S` iff along every execution `P →* P′ —α→ P″`,
//! every output premise `R —m̄→ (νr̃)⟨w^l⟩R′` used in the derivation with a
//! public channel `m` sends a public-kind value (`kind(w) = P`), read as
//! `level(w) ⊑ ⊥` under the policy's two-point projection
//! [`Policy::binary`].
//!
//! The monitor explores the bounded `τ`-reachable state space and checks
//! *every* commitment's output premises — including those consumed inside
//! internal communications, which the commitment machinery records
//! explicitly. Theorem 3 (confined ⟹ careful) is validated by the test
//! and experiment suites against this monitor.

use crate::flow::level;
use crate::policy::Policy;
use nuspi_semantics::{explore_tau, ExecConfig, ExploreStats};
use nuspi_syntax::{Process, Symbol, Value};
use std::fmt;
use std::rc::Rc;

/// A witnessed violation of carefulness: a secret-kind value sent on a
/// public channel in some reachable state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CarefulnessViolation {
    /// The public channel (canonical).
    pub channel: Symbol,
    /// The secret-kind value that was sent.
    pub value: Rc<Value>,
    /// `τ`-depth bookkeeping: how many states had been visited when the
    /// violation was found.
    pub state_index: usize,
}

impl fmt::Display for CarefulnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "secret value {} sent on public channel {}",
            self.value, self.channel
        )
    }
}

/// The outcome of a carefulness run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CarefulnessReport {
    /// Violations found (empty means careful within the explored bound).
    pub violations: Vec<CarefulnessViolation>,
    /// Exploration statistics; if `stats.truncated` the verdict is only
    /// valid for the explored prefix.
    pub stats: ExploreStats,
}

impl CarefulnessReport {
    /// Whether no violation was observed.
    pub fn is_careful(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the carefulness monitor over the bounded state space of `p`.
pub fn carefulness(p: &Process, policy: &Policy, cfg: &ExecConfig) -> CarefulnessReport {
    // `hide`-bound names are secret by construction (cf. `confinement`).
    let policy = &policy.with_hidden_of(p).binary();
    let mut violations = Vec::new();
    let mut state_index = 0;
    let stats = explore_tau(p, cfg, |_state, commitments| {
        state_index += 1;
        for c in commitments {
            for out in &c.outputs {
                if policy.is_public(out.channel.canonical())
                    && !policy.observes(level(&out.value, policy))
                {
                    violations.push(CarefulnessViolation {
                        channel: out.channel.canonical(),
                        value: Rc::clone(&out.value),
                        state_index,
                    });
                }
            }
        }
        true
    });
    CarefulnessReport { violations, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::parse_process;

    fn pol(secrets: &[&str]) -> Policy {
        Policy::with_secrets(secrets.iter().copied())
    }

    fn cfg() -> ExecConfig {
        ExecConfig::default()
    }

    #[test]
    fn public_data_on_public_channels_is_careful() {
        let p = parse_process("c<0>.0 | c(x).d<x>.0").unwrap();
        let r = carefulness(&p, &pol(&["m"]), &cfg());
        assert!(r.is_careful());
        assert!(!r.stats.truncated);
    }

    #[test]
    fn cleartext_secret_is_flagged_immediately() {
        let p = parse_process("(new m) c<m>.0").unwrap();
        let r = carefulness(&p, &pol(&["m"]), &cfg());
        assert!(!r.is_careful());
        assert_eq!(r.violations[0].channel.as_str(), "c");
    }

    #[test]
    fn secret_inside_internal_tau_is_still_flagged() {
        // The secret is consumed by an internal communication on a public
        // channel — Definition 3 covers the output *premise*.
        let p = parse_process("(new m) (c<m>.0 | c(x).0)").unwrap();
        let r = carefulness(&p, &pol(&["m"]), &cfg());
        assert!(!r.is_careful());
    }

    #[test]
    fn secret_on_secret_channel_is_fine() {
        let p = parse_process("(new s) (new m) (s<m>.0 | s(x).0)").unwrap();
        let r = carefulness(&p, &pol(&["s", "m"]), &cfg());
        assert!(r.is_careful(), "{:?}", r.violations);
    }

    #[test]
    fn encrypted_secret_under_secret_key_is_fine() {
        let p = parse_process("(new k) (new m) c<{m, new r}:k>.0").unwrap();
        let r = carefulness(&p, &pol(&["k", "m"]), &cfg());
        assert!(r.is_careful(), "{:?}", r.violations);
    }

    #[test]
    fn leak_deep_in_the_execution_is_found() {
        // The secret only escapes after two handshakes.
        let p = parse_process("(new m) (a<0>.b<0>.c<m>.0 | a(x).0 | b(y).0 | c(z).0)").unwrap();
        let r = carefulness(&p, &pol(&["m"]), &cfg());
        assert!(!r.is_careful());
        assert!(r.violations.iter().any(|v| v.channel.as_str() == "c"));
    }

    #[test]
    fn conditional_leak_behind_match_is_found() {
        // The leak happens only if the guard passes — it does.
        let p = parse_process("(new m) (d<0>.0 | d(x).[x is 0] c<m>.0)").unwrap();
        let r = carefulness(&p, &pol(&["m"]), &cfg());
        assert!(!r.is_careful());
    }

    #[test]
    fn unreachable_leak_is_not_flagged() {
        // The guard can never pass, so the output never fires.
        let p = parse_process("(new m) [0 is suc(0)] c<m>.0").unwrap();
        let r = carefulness(&p, &pol(&["m"]), &cfg());
        assert!(r.is_careful());
    }

    #[test]
    fn decrypt_and_leak_is_found() {
        // The process decrypts its own traffic and then misbehaves.
        let p =
            parse_process("(new k) (new m) (c<{m, new r}:k>.0 | c(x). case x of {y}:k in d<y>.0)")
                .unwrap();
        let r = carefulness(&p, &pol(&["k", "m"]), &cfg());
        assert!(!r.is_careful());
        assert!(r.violations.iter().any(|v| v.channel.as_str() == "d"));
    }

    #[test]
    fn hidden_name_never_extrudes_dynamically() {
        // The no-extrusion commitment rule *drops* any output whose value
        // carries the hidden name, so the monitor observes no leak here —
        // the static checks (confinement, W106) are what report the
        // attempted escape.
        let p = parse_process("(hide h) c<h>.0").unwrap();
        let r = carefulness(&p, &Policy::new(), &cfg());
        assert!(r.is_careful(), "{:?}", r.violations);
    }

    #[test]
    fn hidden_name_leaked_inside_the_scope_is_flagged() {
        // Internal communication on a public channel stays within the
        // hide scope, so it commits — and its output premise carries the
        // hidden name in clear, which the monitor flags with no policy
        // entry for `h`.
        let p = parse_process("(hide h) (c<h>.0 | c(x).0)").unwrap();
        let r = carefulness(&p, &Policy::new(), &cfg());
        assert!(!r.is_careful());
        assert_eq!(r.violations[0].channel.as_str(), "c");
    }

    #[test]
    fn wmf_is_careful() {
        let src = "
            (new m) (new kAS) (new kBS) (
              ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{m, new r2}:kAB>.0
               | cBS(t). case t of {y}:kBS in cAB(z). case z of {q}:y in 0)
              | cAS(x). case x of {s}:kAS in cBS<{s, new r3}:kBS>.0
            )";
        let p = parse_process(src).unwrap();
        let r = carefulness(&p, &pol(&["kAS", "kBS", "kAB", "m"]), &cfg());
        assert!(r.is_careful(), "{:?}", r.violations);
        assert!(!r.stats.truncated);
    }
}
