//! Semantic lint passes: confinement, carefulness, and invariance
//! re-derived as structured diagnostics with witness traces.
//!
//! | code | finding | source |
//! |------|---------|--------|
//! | E001 | secret-kind value may flow on a public channel | Definition 4 |
//! | E002 | secret-kind value derivable by the attacker | Theorem 4 |
//! | E003 | a free name of the process is declared secret | Definition 4 |
//! | E004 | the estimate fails Table 2 re-validation | Table 2 |
//! | E005 | a reachable state sends a secret in clear | Definition 3 |
//! | E006 | an encryption/decryption key may expose `n*` | Definition 7 |
//! | E007 | `n*` may reach a control position | Definition 7 |
//! | E008 | a comparison may depend on `n*` | Definition 7 |
//! | E009 | a value graded above the clearance may reach an observable channel | lattice flow |
//! | W106 | a `hide`-bound name escapes its scope | no-extrusion rule |
//! | N005 | the carefulness exploration was truncated | — |
//!
//! `E009` runs only on *graded* policies (a non-default lattice, explicit
//! levels, or a raised clearance) and `W106` only when the process has a
//! `hide` binder — so the historical binary corpus emits byte-identical
//! reports.
//!
//! Verdicts and witnesses are both read off the one traced solve of the
//! shared [`SemanticCtx`](crate::context::SemanticCtx). The verdicts are
//! not decided here: E001–E004 present the violations of the context's
//! confinement report and E009 those of `graded_flows_with`, both
//! decided in `nuspi-security`.

use crate::context::LintContext;
use crate::diag::{Diagnostic, Severity, Span, WitnessStep};
use crate::registry::{Pass, PassKind};
use nuspi_cfa::{attacker::attacker_confounder, attacker::attacker_name, elide, FlowVar, Prod};
use nuspi_security::{
    carefulness, graded_flows_with, invariance, n_star, AbstractSort, ConfinementViolation,
    InvarianceViolation,
};
use nuspi_syntax::Symbol;

/// Every built-in semantic pass.
pub fn passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(Confinement),
        Box::new(Carefulness),
        Box::new(Invariance),
        Box::new(HiddenEscape),
        Box::new(GradedFlow),
    ]
}

/// Picks the production of `fv` (in the traced solution) that best
/// witnesses a flow among those `keep` admits: plain names and honest
/// ciphertexts before attacker-synthesised noise, then the least
/// depth-4 rendering, so the choice is stable across runs and layouts.
/// Returns the production with that rendering.
fn witness_prod(
    ctx: &LintContext,
    fv: FlowVar,
    keep: impl Fn(&Prod) -> bool,
) -> Option<(Prod, String)> {
    let sol = ctx.semantic().traced_solution();
    let candidates = sol.prods_of(fv).iter().filter(|p| keep(p)).map(|p| {
        let interesting = match p {
            Prod::Name(_) => true,
            Prod::Enc { confounder, .. } => *confounder != attacker_confounder(),
            _ => false,
        };
        (!interesting, p)
    });
    sol.least_rendered(candidates, 4)
        .map(|(p, shown)| (p.clone(), shown))
}

/// E001–E004 — the static secrecy check of Definition 4.
struct Confinement;

impl Pass for Confinement {
    fn name(&self) -> &'static str {
        "confinement"
    }
    fn kind(&self) -> PassKind {
        PassKind::Semantic
    }
    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let report = &ctx.semantic().confinement;
        report
            .violations
            .iter()
            .map(|v| {
                let (code, span, witness) = match v {
                    // Well-formedness: it invalidates the policy's premise.
                    ConfinementViolation::FreeSecretName(n) => (
                        "E003",
                        Span::Name(n.canonical()),
                        vec![WitnessStep {
                            rule: "well-formedness requirement fn(P) ⊆ P (Definition 4)",
                            detail: format!(
                                "`{n}` occurs free, so the environment already holds it; \
                                 secrets must be restricted"
                            ),
                        }],
                    ),
                    // Acceptability re-validation (Table 2, symbolically).
                    ConfinementViolation::NotAcceptable(a) => (
                        "E004",
                        Span::Process,
                        vec![WitnessStep {
                            rule: "Table 2 re-validation",
                            detail: a.to_string(),
                        }],
                    ),
                    ConfinementViolation::SecretOnPublicChannel { channel } => (
                        "E001",
                        Span::Channel(*channel),
                        secret_witness(ctx, *channel),
                    ),
                    ConfinementViolation::SecretDerivableByAttacker => {
                        let chan = attacker_name();
                        ("E002", Span::Channel(chan), secret_witness(ctx, chan))
                    }
                };
                Diagnostic {
                    code,
                    pass: self.name(),
                    severity: Severity::Error,
                    span,
                    message: v.to_string(),
                    witness,
                }
            })
            .collect()
    }
}

/// The E001/E002 witness: a secret-kind production of `κ(chan)` (by the
/// confinement report's own classification) and its flow to `chan`.
fn secret_witness(ctx: &LintContext, chan: Symbol) -> Vec<WitnessStep> {
    let report = &ctx.semantic().confinement;
    let fv = FlowVar::Kappa(chan);
    let mut witness = Vec::new();
    if let Some((prod, rendered)) = witness_prod(ctx, fv, |p| report.secret_kind(p)) {
        witness.push(WitnessStep {
            rule: "kind classification (Definition 2)",
            detail: format!("kind({}) = S under the declared policy", elide(rendered)),
        });
        witness.extend(ctx.witness_from_flow(fv, &prod));
    }
    witness
}

/// E005/N005 — the dynamic carefulness monitor of Definition 3.
struct Carefulness;

impl Pass for Carefulness {
    fn name(&self) -> &'static str {
        "carefulness"
    }
    fn kind(&self) -> PassKind {
        PassKind::Semantic
    }
    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let report = carefulness(ctx.process(), ctx.policy(), &ctx.config().exec);
        // Deduplicate on (channel, canonical value): the same leak often
        // recurs in many interleavings, and canonicalisation strips the
        // run-varying freshness indices of generated names.
        let mut seen: Vec<(Symbol, String)> = report
            .violations
            .iter()
            .map(|v| (v.channel, v.value.canonicalize().to_string()))
            .collect();
        seen.sort_by(|a, b| (a.0.as_str(), &a.1).cmp(&(b.0.as_str(), &b.1)));
        seen.dedup();
        let mut out: Vec<Diagnostic> = seen
            .into_iter()
            .map(|(chan, value)| Diagnostic {
                code: "E005",
                pass: self.name(),
                severity: Severity::Error,
                span: Span::Channel(chan),
                message: format!(
                    "a reachable state sends secret value {value} in clear on \
                     public channel `{chan}`"
                ),
                witness: vec![
                    WitnessStep {
                        rule: "commitment output premise (Definition 3)",
                        detail: format!(
                            "some τ-reachable derivative commits to the output of \
                             {value} on `{chan}`"
                        ),
                    },
                    WitnessStep {
                        rule: "kind classification (Definition 2)",
                        detail: format!("kind({value}) = S under the declared policy"),
                    },
                ],
            })
            .collect();
        if report.stats.truncated {
            out.push(Diagnostic {
                code: "N005",
                pass: self.name(),
                severity: Severity::Note,
                span: Span::Process,
                message: format!(
                    "carefulness exploration truncated after {} states; the \
                     verdict covers only the explored prefix",
                    report.stats.states
                ),
                witness: vec![],
            });
        }
        out
    }
}

/// E006–E008 — the static non-interference check of Definition 7,
/// active only when the process tracks `n*` (i.e. came through the
/// [`sort`](nuspi_security::sort) substitution of §5).
struct Invariance;

impl Pass for Invariance {
    fn name(&self) -> &'static str {
        "invariance"
    }
    fn kind(&self) -> PassKind {
        PassKind::Semantic
    }
    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let mut mentioned = std::collections::HashSet::new();
        crate::syntactic::collect_symbols(ctx.process(), &mut mentioned);
        if !mentioned.contains(&n_star()) {
            return Vec::new(); // nothing is being tracked
        }
        let sol = ctx.semantic().traced_solution();
        let sorts = AbstractSort::compute(sol, n_star());
        invariance(ctx.process(), sol, &sorts)
            .into_iter()
            .map(|v| self.diagnose(ctx, &sorts, v))
            .collect()
    }
}

impl Invariance {
    fn diagnose(
        &self,
        ctx: &LintContext,
        sorts: &AbstractSort,
        v: InvarianceViolation,
    ) -> Diagnostic {
        let sem = ctx.semantic();
        let sol = sem.traced_solution();
        // A witness production at a ζ entry that may be E-sorted,
        // chosen stably by rendered form.
        let exposed_prod = |l| {
            let candidates = sol
                .prods_of(FlowVar::Zeta(l))
                .iter()
                .filter(|p| sorts.facts_of_prod(p).may_exposed)
                .map(|p| ((), p));
            sol.least_rendered(candidates, 4).map(|(p, _)| p.clone())
        };
        match v {
            InvarianceViolation::ExposedKey { label } => {
                let span = ctx.span_of(label);
                let mut witness = vec![WitnessStep {
                    rule: "abstract sort fixpoint (Definition 6)",
                    detail: format!(
                        "{} may contain an E-sorted value (one exposing n*)",
                        ctx.display_flow_var(FlowVar::Zeta(label))
                    ),
                }];
                if let Some(p) = exposed_prod(label) {
                    witness.extend(ctx.witness_from_flow(FlowVar::Zeta(label), &p));
                }
                let message = format!(
                    "encryption/decryption key at {span} may expose the tracked message n*"
                );
                Diagnostic {
                    code: "E006",
                    pass: self.name(),
                    severity: Severity::Error,
                    span,
                    message,
                    witness,
                }
            }
            InvarianceViolation::TrackedAtControlPosition { label, role } => {
                let span = ctx.span_of(label);
                let mut witness = vec![WitnessStep {
                    rule: "sensitive-position check (Definition 7)",
                    detail: format!(
                        "n* ∈ {}: the tracked name itself reaches {role}",
                        ctx.display_flow_var(FlowVar::Zeta(label))
                    ),
                }];
                witness.extend(ctx.witness_from_flow(FlowVar::Zeta(label), &Prod::Name(n_star())));
                let message = format!("tracked name n* may reach {role} at {span}");
                Diagnostic {
                    code: "E007",
                    pass: self.name(),
                    severity: Severity::Error,
                    span,
                    message,
                    witness,
                }
            }
            InvarianceViolation::ExposedComparison { label } => {
                let span = ctx.span_of(label);
                let mut witness = vec![WitnessStep {
                    rule: "abstract sort fixpoint (Definition 6)",
                    detail: format!(
                        "{} may contain an E-sorted value (one exposing n*)",
                        ctx.display_flow_var(FlowVar::Zeta(label))
                    ),
                }];
                if let Some(p) = exposed_prod(label) {
                    witness.extend(ctx.witness_from_flow(FlowVar::Zeta(label), &p));
                }
                let message = format!("comparison at {span} may depend on the tracked message n*");
                Diagnostic {
                    code: "E008",
                    pass: self.name(),
                    severity: Severity::Error,
                    span,
                    message,
                    witness,
                }
            }
        }
    }
}

/// W106 — a `hide`-bound name escapes its scope: the estimate shows it
/// reaching the κ of an observable channel (or the attacker's
/// knowledge), contradicting the no-extrusion commitment rule's intent.
/// A warning, not an error: the dynamic semantics *blocks* the
/// extrusion, but the program text attempts it, which is almost always
/// a protocol bug (and `E001`/`E002` fire alongside, since hidden names
/// are secret by construction).
struct HiddenEscape;

impl Pass for HiddenEscape {
    fn name(&self) -> &'static str {
        "hidden-escape"
    }
    fn kind(&self) -> PassKind {
        PassKind::Semantic
    }
    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let hidden = ctx.process().hidden_names();
        if hidden.is_empty() {
            return Vec::new(); // hide-free processes never pay for this pass
        }
        let mut out = Vec::new();
        let sol = ctx.semantic().traced_solution();
        for chan in sol.channels() {
            if !ctx.policy().is_public(chan) {
                continue;
            }
            let Some(id) = sol.var_id(FlowVar::Kappa(chan)) else {
                continue;
            };
            for h in &hidden {
                if !sol.prods_of_id(id).contains(&Prod::Name(*h)) {
                    continue;
                }
                let mut witness = vec![WitnessStep {
                    rule: "no-extrusion rule for `hide`",
                    detail: format!(
                        "`{h}` is hide-bound, yet the estimate derives it in κ({chan}); \
                         at runtime the commitment is dropped, but the program attempts \
                         the extrusion"
                    ),
                }];
                witness.extend(ctx.witness_from_flow(FlowVar::Kappa(chan), &Prod::Name(*h)));
                let message = if chan == attacker_name() {
                    format!("hidden name `{h}` escapes its scope: it may become derivable by the attacker")
                } else {
                    format!(
                        "hidden name `{h}` escapes its scope: it may flow on public channel `{chan}`"
                    )
                };
                out.push(Diagnostic {
                    code: "W106",
                    pass: self.name(),
                    severity: Severity::Warning,
                    span: Span::Name(*h),
                    message,
                    witness,
                });
            }
        }
        out
    }
}

/// E009 — the lattice form of the confinement check: a value graded
/// outside the attacker's clearance down-set may flow on an observable
/// channel. Runs only on graded policies; on the default two-point
/// lattice `E001`/`E002` already say everything there is to say.
struct GradedFlow;

impl Pass for GradedFlow {
    fn name(&self) -> &'static str {
        "graded-flow"
    }
    fn kind(&self) -> PassKind {
        PassKind::Semantic
    }
    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let policy = ctx.policy();
        if !policy.is_graded() {
            return Vec::new(); // binary policies keep the historical report
        }
        let lat = policy.lattice();
        let report = graded_flows_with(policy, ctx.semantic().traced_solution());
        let escapes = |p: &Prod| report.levels.prod_escapes(p, policy);
        let mut out = Vec::new();
        for flows in report.violations.chunk_by(|a, b| a.channel == b.channel) {
            let chan = flows[0].channel;
            let fv = FlowVar::Kappa(chan);
            // One witness per channel: the candidates do not depend on
            // which escaping level the diagnostic names.
            let chosen: Vec<WitnessStep> = witness_prod(ctx, fv, escapes)
                .map(|(prod, rendered)| {
                    let mut steps = vec![WitnessStep {
                        rule: "level classification (Definition 2, graded)",
                        detail: format!("level({}) escapes the clearance", elide(rendered)),
                    }];
                    steps.extend(ctx.witness_from_flow(fv, &prod));
                    steps
                })
                .unwrap_or_default();
            for v in flows {
                let (l, clearance) = (lat.show(v.level), lat.show(v.clearance));
                let mut witness = vec![WitnessStep {
                    rule: "lattice flow judgment (ℓ ⊑ clearance)",
                    detail: format!(
                        "violated edge: {l} ⋢ {clearance} — the level is outside the \
                         attacker's clearance down-set"
                    ),
                }];
                witness.extend(chosen.iter().cloned());
                let message = if chan == attacker_name() {
                    format!(
                        "a value graded {l} may become derivable by the attacker \
                         (clearance {clearance})"
                    )
                } else {
                    format!(
                        "value graded {l} may flow on observable channel `{chan}` \
                         (clearance {clearance})"
                    )
                };
                out.push(Diagnostic {
                    code: "E009",
                    pass: self.name(),
                    severity: Severity::Error,
                    span: Span::Channel(chan),
                    message,
                    witness,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::LintContext;
    use crate::registry::PassRegistry;
    use nuspi_security::Policy;
    use nuspi_syntax::parse_process;

    fn lint_all(src: &str, secrets: &[&str]) -> Vec<Diagnostic> {
        let p = parse_process(src).unwrap();
        let policy = Policy::with_secrets(secrets.iter().copied());
        let ctx = LintContext::new(&p, &policy);
        PassRegistry::with_defaults().run(&ctx)
    }

    fn codes(d: &[Diagnostic]) -> Vec<&'static str> {
        d.iter().map(|d| d.code).collect()
    }

    #[test]
    fn cleartext_secret_yields_e001_e002_e005() {
        let d = lint_all("(new m) c<m>.0", &["m"]);
        for code in ["E001", "E002", "E005"] {
            assert!(codes(&d).contains(&code), "missing {code}: {d:?}");
        }
    }

    #[test]
    fn every_error_diagnostic_has_a_nonempty_witness() {
        let d = lint_all("(new m) c<m>.0", &["m"]);
        for diag in d.iter().filter(|d| d.code.starts_with('E')) {
            assert!(!diag.witness.is_empty(), "{diag:?}");
            for step in &diag.witness {
                assert!(!step.rule.is_empty() && !step.detail.is_empty());
            }
        }
    }

    #[test]
    fn printed_witness_renders_are_capped() {
        // The secret's name alone is twice the cap, so its rendering in
        // `kind(…)` and in the flow witness is cut.
        let long = "s".repeat(2 * nuspi_cfa::RENDER_CAP);
        let d = lint_all(&format!("(new {long}) c<{long}>.0"), &[long.as_str()]);
        let hit = d.iter().find(|d| d.code == "E001").expect("E001");
        assert!(hit.witness[0].detail.starts_with("kind(sss"), "{hit:?}");
        assert!(hit.witness[0].detail.contains("…) = S"), "{hit:?}");
        for step in &hit.witness {
            assert!(step.detail.len() < nuspi_cfa::RENDER_CAP + 64, "{step:?}");
        }
    }

    #[test]
    fn confined_protocol_is_clean_of_errors() {
        let src = "
            (new m) (new kAS) (new kBS) (
              ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{m, new r2}:kAB>.0
               | cBS(t). case t of {y}:kBS in cAB(z). case z of {q}:y in 0)
              | cAS(x). case x of {s}:kAS in cBS<{s, new r3}:kBS>.0
            )";
        let d = lint_all(src, &["kAS", "kBS", "kAB", "m"]);
        assert!(!d.iter().any(|d| d.severity == Severity::Error), "{d:?}");
    }

    #[test]
    fn free_secret_name_yields_e003() {
        let d = lint_all("c<m>.0", &["m"]);
        assert!(codes(&d).contains(&"E003"), "{d:?}");
    }

    #[test]
    fn tracked_control_position_yields_e007() {
        // P(x) with x := n*: the tracked message is used as a channel.
        let d = lint_all("c<n*>.0 | c(x). x<0>.0", &["n*"]);
        assert!(codes(&d).contains(&"E007"), "{d:?}");
    }

    #[test]
    fn tracked_comparison_yields_e008() {
        let d = lint_all("c<n*>.0 | c(x). [x is 0] d<0>.0", &["n*"]);
        assert!(codes(&d).contains(&"E008"), "{d:?}");
    }

    #[test]
    fn invariance_pass_is_inert_without_n_star() {
        let d = lint_all("(new m) c<m>.0", &["m"]);
        assert!(!d.iter().any(|d| matches!(d.code, "E006" | "E007" | "E008")));
    }

    #[test]
    fn hidden_escape_yields_w106_and_binary_errors() {
        let d = lint_all("(hide h) c<h>.0", &[]);
        assert!(codes(&d).contains(&"W106"), "{d:?}");
        // Hidden names are secret by construction, so the binary checks
        // fire with no policy entry.
        assert!(codes(&d).contains(&"E001"), "{d:?}");
        let hit = d.iter().find(|d| d.code == "W106").unwrap();
        assert!(hit.message.contains("escapes its scope"), "{hit:?}");
        assert!(!hit.witness.is_empty());
    }

    #[test]
    fn contained_hidden_name_is_clean() {
        let d = lint_all("(hide h) (c<h>.0 | c(x).0)", &[]);
        // The hidden name circulates only inside its scope... but the
        // attacker taps the public channel c, so the estimate still sees
        // an escape. A genuinely contained hide uses a secret channel:
        let d2 = lint_all("(new s) (hide h) (s<h>.0 | s(x).0)", &["s"]);
        assert!(!codes(&d2).contains(&"W106"), "{d2:?}");
        assert!(codes(&d).contains(&"W106"), "{d:?}");
    }

    #[test]
    fn hide_free_process_never_emits_w106() {
        let d = lint_all("(new m) c<m>.0", &["m"]);
        assert!(!codes(&d).contains(&"W106"));
    }

    #[test]
    fn graded_policy_yields_e009_naming_the_lattice_edge() {
        use nuspi_security::SecLattice;
        let p = parse_process("(new db) c<db>.0").unwrap();
        let mut policy = Policy::with_lattice(SecLattice::diamond4());
        let lat = policy.lattice().clone();
        policy.grade("db", lat.level("confidential", "trusted").unwrap());
        let ctx = LintContext::new(&p, &policy);
        let d = PassRegistry::with_defaults().run(&ctx);
        let hit = d.iter().find(|d| d.code == "E009").expect("E009");
        assert!(
            hit.message.contains("conf:confidential,integ:trusted"),
            "{hit:?}"
        );
        assert!(hit.witness[0].detail.contains('⋢'), "{hit:?}");
    }

    #[test]
    fn ungraded_policy_never_emits_e009() {
        let d = lint_all("(new m) c<m>.0", &["m"]);
        assert!(!codes(&d).contains(&"E009"));
    }

    #[test]
    fn raised_clearance_silences_e009() {
        use nuspi_security::SecLattice;
        let p = parse_process("(new db) c<db>.0").unwrap();
        let mut policy = Policy::with_lattice(SecLattice::diamond4());
        let lat = policy.lattice().clone();
        let conf = lat.level("confidential", "trusted").unwrap();
        policy.grade("db", conf);
        policy.set_clearance(conf);
        let ctx = LintContext::new(&p, &policy);
        let d = PassRegistry::with_defaults().run(&ctx);
        assert!(!d.iter().any(|d| d.severity == Severity::Error), "{d:?}");
    }
}
