//! The combined secrecy audit: every check of §4 in one call.
//!
//! [`audit`] runs the static confinement check (Definition 4), the
//! dynamic carefulness monitor (Definition 3), and a bounded Dolev–Yao
//! revelation search (Definition 5) per attacker-opaque name (declared
//! secret, or graded above the clearance), with the intruder starting
//! from the process's public free names. The result
//! packages all three verdicts plus the solver-effort counters of the
//! underlying CFA run, so callers (the `nuspi check` CLI, the
//! `nuspi-engine` batch service) can report both *what* was decided and
//! *how much work* deciding it took.
//!
//! This used to live in the `nuspi` facade crate; it sits here so lower
//! layers (the engine's worker pool in particular) can audit without
//! depending on the facade.

use crate::careful::{carefulness, CarefulnessReport};
use crate::confine::{confinement, ConfinementReport};
use crate::dolevyao::{reveals, Attack, IntruderConfig, Knowledge};
use crate::policy::Policy;
use nuspi_semantics::ExecConfig;
use nuspi_syntax::{Process, Symbol};
use std::fmt;

/// Budgets for the two dynamic checks an audit runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct AuditConfig {
    /// Exploration budgets of the carefulness monitor.
    pub exec: ExecConfig,
    /// Budgets of the bounded Dolev–Yao intruder.
    pub intruder: IntruderConfig,
}

/// The combined outcome of the secrecy checks.
#[derive(Debug)]
pub struct Audit {
    /// The static verdict (Definition 4).
    pub confinement: ConfinementReport,
    /// The dynamic monitor's verdict (Definition 3).
    pub carefulness: CarefulnessReport,
    /// Attacks the bounded intruder found, per secret, ordered by the
    /// secret's canonical string.
    pub attacks: Vec<(Symbol, Attack)>,
}

impl Audit {
    /// Whether every check passed: confined, careful, no attack found.
    pub fn is_secure(&self) -> bool {
        self.confinement.is_confined() && self.carefulness.is_careful() && self.attacks.is_empty()
    }
}

/// Runs all three secrecy checks on a closed process `p` under `policy`.
///
/// The caller is responsible for `p` being closed (the analyses are
/// defined on closed processes; the `nuspi` facade enforces this at its
/// boundary).
pub fn audit(p: &Process, policy: &Policy, cfg: &AuditConfig) -> Audit {
    let confinement = confinement(p, policy);
    let carefulness = carefulness(p, policy, &cfg.exec);
    let public_names: Vec<Symbol> = p
        .free_names()
        .into_iter()
        .map(|n| n.canonical())
        .filter(|n| policy.is_public(*n))
        .collect();
    let k0 = Knowledge::from_names(public_names);
    // The intruder searches for every name the attacker must not
    // resolve: declared secrets and names graded above the clearance.
    // A `hide`-bound name needs no search, as no transition extrudes
    // it. The opaque names come in the order of their canonical
    // strings, so the rendered audit is a function of the inputs alone.
    let attacks = policy
        .opaque_names()
        .into_iter()
        .filter_map(|s| reveals(p, &k0, s, &cfg.intruder).map(|a| (s, a)))
        .collect();
    Audit {
        confinement,
        carefulness,
        attacks,
    }
}

impl fmt::Display for Audit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "confinement: {}",
            if self.confinement.is_confined() {
                "confined".to_owned()
            } else {
                format!("{} violation(s)", self.confinement.violations.len())
            }
        )?;
        writeln!(
            f,
            "carefulness: {}",
            if self.carefulness.is_careful() {
                "careful".to_owned()
            } else {
                format!("{} violation(s)", self.carefulness.violations.len())
            }
        )?;
        if self.attacks.is_empty() {
            writeln!(f, "intruder:    no attack found")?;
        } else {
            for (s, a) in &self.attacks {
                writeln!(f, "intruder:    reveals {s} in {} step(s)", a.trace.len())?;
            }
        }
        // Solver effort of the confinement run — only structural
        // counters, never wall-clock, so the rendering stays
        // deterministic and cacheable. The constant `1 shard(s)` keeps
        // the line byte-identical to bodies already held in caches.
        let st = self.confinement.solution.stats();
        write!(
            f,
            "solver:      {} round(s), 1 shard(s), {} memo hit(s) / {} miss(es), {} production(s)",
            st.rounds, st.cache_hits, st.cache_misses, st.productions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::parse_process;

    #[test]
    fn audit_passes_a_tight_process_and_reports_solver_work() {
        let p = parse_process("(new k) (new s) net<{s, new r}:k>.0").unwrap();
        let policy = Policy::with_secrets(["k", "s"]);
        let a = audit(&p, &policy, &AuditConfig::default());
        assert!(a.is_secure(), "{a}");
        let shown = a.to_string();
        assert!(shown.contains("confinement: confined"));
        assert!(shown.contains("solver:"), "{shown}");
        assert!(shown.contains("round(s)"), "{shown}");
        assert!(shown.contains("memo hit(s)"), "{shown}");
        assert!(!shown.ends_with('\n'), "display has no trailing newline");
    }

    #[test]
    fn audit_rejects_a_leak_on_all_fronts() {
        let p = parse_process("(new s) net<s>.0").unwrap();
        let policy = Policy::with_secrets(["s"]);
        let a = audit(&p, &policy, &AuditConfig::default());
        assert!(!a.confinement.is_confined());
        assert!(!a.carefulness.is_careful());
        assert!(!a.attacks.is_empty());
        assert!(!a.is_secure());
        assert!(a.to_string().contains("reveals s"));
    }

    #[test]
    fn the_intruder_searches_for_names_graded_above_the_clearance() {
        let p = parse_process("(new db) c<db>.0").unwrap();
        let mut policy = Policy::with_lattice(crate::SecLattice::diamond4());
        let lat = policy.lattice().clone();
        policy.grade("db", lat.level("confidential", "trusted").unwrap());
        let a = audit(&p, &policy, &AuditConfig::default());
        assert!(!a.confinement.is_confined(), "{a}");
        assert!(!a.carefulness.is_careful(), "{a}");
        assert_eq!(a.attacks.len(), 1, "{a}");
        assert!(a.to_string().contains("reveals db in"), "{a}");
    }

    #[test]
    fn hidden_names_are_not_searched_for() {
        // The free `h` is a public name that shares the hidden binder's
        // symbol; the hidden `h` itself can never leave its scope.
        let p = parse_process("(hide h) 0 | c<h>.0").unwrap();
        let a = audit(&p, &Policy::default(), &AuditConfig::default());
        assert!(a.attacks.is_empty(), "{a}");
        assert!(a.to_string().contains("no attack found"), "{a}");
    }

    #[test]
    fn display_is_deterministic() {
        let p = parse_process("(new s) net<s>.0").unwrap();
        let policy = Policy::with_secrets(["s"]);
        let a = audit(&p, &policy, &AuditConfig::default()).to_string();
        let b = audit(&p, &policy, &AuditConfig::default()).to_string();
        assert_eq!(a, b);
    }
}
