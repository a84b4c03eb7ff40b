//! The shared lint context: the process, the policy, stable label
//! ordinals, and a lazily-built semantic layer (one traced solve,
//! its provenance, and the confinement report decided on it).
//!
//! Syntactic passes never touch the semantic layer, so `lint` on a
//! process with only syntactic findings pays zero solver cost — the
//! `bench_lint` binary measures exactly this. Semantic passes share one
//! [`SemanticCtx`] built on first use: verdicts and witness traces are
//! read off the same traced solution.

use crate::diag::{Span, WitnessStep};
use nuspi_cfa::{
    analyze_with_attacker_traced, elide, EdgeKind, FlowStepKind, FlowVar, Prod, Provenance,
    Solution,
};
use nuspi_security::{confinement_with, ConfinementReport, Policy};
use nuspi_semantics::ExecConfig;
use nuspi_syntax::{Label, Process};
use std::cell::OnceCell;
use std::collections::HashMap;

/// Tunables for a lint run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LintConfig {
    /// Budgets for the bounded carefulness monitor.
    pub exec: ExecConfig,
}

/// Everything a lint pass may consult. Construction is cheap; the
/// semantic layer (solver, provenance, confinement) is built on first
/// use via [`LintContext::semantic`].
pub struct LintContext {
    process: Process,
    policy: Policy,
    config: LintConfig,
    ordinals: HashMap<Label, usize>,
    semantic: OnceCell<SemanticCtx>,
}

/// The solver-derived layer shared by the semantic passes.
pub struct SemanticCtx {
    /// Definition 4 decided on the traced solve of `P` + most powerful
    /// attacker. Its solution is the source of every verdict, witness
    /// trace and rendered production.
    pub confinement: ConfinementReport,
    /// First-cause flow provenance of the traced solve.
    pub provenance: Provenance,
}

impl SemanticCtx {
    /// The solution verdicts, witnesses and renders are read from.
    pub fn traced_solution(&self) -> &Solution {
        &self.confinement.solution
    }
}

impl LintContext {
    /// Builds a context with the default configuration.
    pub fn new(process: &Process, policy: &Policy) -> LintContext {
        LintContext::with_config(process, policy, LintConfig::default())
    }

    /// Builds a context with an explicit configuration.
    ///
    /// The policy is augmented with the process's `hide`-bound names
    /// (secret by construction, no entry required) — a no-op for
    /// `hide`-free processes, which keeps their diagnostics byte-stable.
    pub fn with_config(process: &Process, policy: &Policy, config: LintConfig) -> LintContext {
        let ordinals = process
            .labels()
            .into_iter()
            .enumerate()
            .map(|(i, l)| (l, i))
            .collect();
        LintContext {
            policy: policy.with_hidden_of(process),
            process: process.clone(),
            config,
            ordinals,
            semantic: OnceCell::new(),
        }
    }

    /// The process under analysis.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// The secrecy policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The run configuration.
    pub fn config(&self) -> &LintConfig {
        &self.config
    }

    /// The stable ordinal of a label (its position in the pre-order
    /// label traversal), if the label belongs to this process.
    pub fn ordinal(&self, l: Label) -> Option<usize> {
        self.ordinals.get(&l).copied()
    }

    /// The span for a labelled program point; falls back to the whole
    /// process for labels minted outside it (e.g. attacker-internal).
    pub fn span_of(&self, l: Label) -> Span {
        match self.ordinal(l) {
            Some(ordinal) => Span::Point { ordinal },
            None => Span::Process,
        }
    }

    /// The semantic layer, built on first call. Syntactic passes must
    /// not call this.
    pub fn semantic(&self) -> &SemanticCtx {
        self.semantic.get_or_init(|| {
            // The attacker's opaque set: bare secrets plus graded names
            // above the clearance — the secrets of `Policy::binary`, as
            // in `confinement`. Identical to `secrets()` on ungraded
            // policies, so binary-lattice transcripts do not move.
            let secret = self.policy.opaque_names().into_iter().collect();
            let (traced, provenance) = analyze_with_attacker_traced(&self.process, &secret);
            SemanticCtx {
                confinement: confinement_with(&self.process, &self.policy, traced.solution),
                provenance,
            }
        })
    }

    /// Whether the semantic layer has been built (used by the overhead
    /// bench to assert syntactic-only runs stay solver-free).
    pub fn semantic_built(&self) -> bool {
        self.semantic.get().is_some()
    }

    /// Renders a flow variable with run-stable coordinates: `ζ` entries
    /// print their label *ordinal*, not the raw (run-varying) label.
    pub fn display_flow_var(&self, fv: FlowVar) -> String {
        match fv {
            FlowVar::Zeta(l) => match self.ordinal(l) {
                Some(ordinal) => format!("ζ(ℓ#{ordinal})"),
                None => "ζ(ℓ?)".to_owned(),
            },
            FlowVar::Aux(u32::MAX) => "the attacker's knowledge".to_owned(),
            FlowVar::Aux(_) => "an embedded-value nonterminal".to_owned(),
            other => other.to_string(), // ρ(x), κ(n): already stable
        }
    }

    /// Builds a seed-rooted witness trace for `prod ∈ L(fv)` from the
    /// traced solve's provenance. Every step names the Table 2 clause or
    /// Dolev–Yao closure rule that justifies the hop.
    pub fn witness_from_flow(&self, fv: FlowVar, prod: &Prod) -> Vec<WitnessStep> {
        let sem = self.semantic();
        let sol = sem.traced_solution();
        let rendered = elide(sol.render_production(prod, 2));
        let mut out = Vec::new();
        for step in sem.provenance.explain_steps(sol, fv, prod) {
            let at = self.display_flow_var(step.at);
            out.push(match step.kind {
                FlowStepKind::Introduced => {
                    if step.at == FlowVar::Aux(u32::MAX) {
                        WitnessStep {
                            rule: "Dolev–Yao closure (Lemma 1 attacker)",
                            detail: format!("{rendered} is seeded or synthesised in {at}"),
                        }
                    } else {
                        WitnessStep {
                            rule: "Table 2 production (constructor occurrence)",
                            detail: format!("{rendered} is produced at {at}"),
                        }
                    }
                }
                FlowStepKind::Propagated { from, via } => WitnessStep {
                    rule: rule_for_edge(via),
                    detail: format!(
                        "reaches {at} from {} via {via}",
                        self.display_flow_var(from)
                    ),
                },
                FlowStepKind::Absent => WitnessStep {
                    rule: "provenance",
                    detail: format!("{rendered} is not recorded at {at}"),
                },
                FlowStepKind::Cycle => WitnessStep {
                    rule: "provenance",
                    detail: "provenance chain closed a cycle".to_owned(),
                },
            });
        }
        out
    }
}

/// The Table 2 clause behind a propagation edge.
fn rule_for_edge(via: EdgeKind) -> &'static str {
    match via {
        EdgeKind::Sub => "Table 2 subset constraint (variable occurrence / embedded value)",
        EdgeKind::Output(_) => "Table 2 output clause (∀n ∈ ζ(chan): ζ(msg) ⊆ κ(n))",
        EdgeKind::Input(_) => "Table 2 input clause (∀n ∈ ζ(chan): κ(n) ⊆ ρ(x))",
        EdgeKind::Split => "Table 2 pair-splitting clause",
        EdgeKind::CaseSuc => "Table 2 integer-case clause",
        EdgeKind::Decrypt => "Table 2 decryption clause (key languages intersect)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::parse_process;

    #[test]
    fn context_construction_is_solver_free() {
        let p = parse_process("(new m) c<m>.0").unwrap();
        let policy = Policy::with_secrets(["m"]);
        let ctx = LintContext::new(&p, &policy);
        assert!(!ctx.semantic_built());
        assert_eq!(ctx.ordinal(p.labels()[0]), Some(0));
    }

    #[test]
    fn semantic_layer_is_built_once_on_demand() {
        let p = parse_process("(new m) c<m>.0").unwrap();
        let policy = Policy::with_secrets(["m"]);
        let ctx = LintContext::new(&p, &policy);
        let first = ctx.semantic() as *const SemanticCtx;
        let second = ctx.semantic() as *const SemanticCtx;
        assert_eq!(first, second);
        assert!(ctx.semantic_built());
    }

    #[test]
    fn witness_for_a_leaked_secret_is_seed_rooted() {
        let p = parse_process("(new m) c<m>.0").unwrap();
        let policy = Policy::with_secrets(["m"]);
        let ctx = LintContext::new(&p, &policy);
        let witness = ctx.witness_from_flow(
            FlowVar::Kappa(nuspi_syntax::Symbol::intern("c")),
            &Prod::Name(nuspi_syntax::Symbol::intern("m")),
        );
        assert!(!witness.is_empty());
        assert!(witness[0].rule.contains("production"), "{:?}", witness[0]);
        assert!(witness.last().unwrap().detail.contains("κ(c)"));
    }
}
