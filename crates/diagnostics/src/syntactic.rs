//! Syntactic lint passes: AST + policy only, no solver.
//!
//! | code | finding |
//! |------|---------|
//! | W101 | a restriction `(νn)P` whose name never occurs in `P` |
//! | W102 | a variable binder shadowing an enclosing restricted name |
//! | W103 | dead or redundant continuations under replication |
//! | W104 | a secret-declared name used directly as a channel subject |
//! | W105 | a policy secret that names no symbol of the process |
//!
//! All diagnostics here are [`Severity::Warning`]: none is a property
//! violation by itself, but each correlates with specification mistakes
//! in the protocol corpus (e.g. a policy entry misspelling the key it
//! was meant to protect silently weakens every semantic check).

use crate::context::LintContext;
use crate::diag::{Diagnostic, Severity, Span};
use crate::registry::{Pass, PassKind};
use nuspi_syntax::{Binder, Expr, Name, Part, Process, Symbol, Term};
use std::collections::HashSet;

/// Every built-in syntactic pass.
pub fn passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(UnusedRestriction),
        Box::new(ShadowedRestriction),
        Box::new(ReplicatedDead),
        Box::new(SecretChannelSubject),
        Box::new(PolicyOrphan),
    ]
}

fn warn(code: &'static str, pass: &'static str, span: Span, message: String) -> Diagnostic {
    Diagnostic {
        code,
        pass,
        severity: Severity::Warning,
        span,
        message,
        witness: vec![],
    }
}

/// W101 — `(νn)P` where `n ∉ fn(P)`: the restriction protects nothing.
struct UnusedRestriction;

impl Pass for UnusedRestriction {
    fn name(&self) -> &'static str {
        "unused-restriction"
    }
    fn kind(&self) -> PassKind {
        PassKind::Syntactic
    }
    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (p, _) in ctx.process().preorder() {
            let (name, body, kind) = match p {
                Process::Restrict { name, body } => (name, body, "restricted"),
                Process::Hide { name, body } => (name, body, "hidden"),
                _ => continue,
            };
            if !body.free_names().contains(name) {
                out.push(warn(
                    "W101",
                    self.name(),
                    Span::Name(name.canonical()),
                    format!("{kind} name `{name}` is never used in its scope"),
                ));
            }
        }
        out
    }
}

/// W102 — a variable binder reusing the symbol of an enclosing
/// restriction: downstream reads of the bare symbol silently mean the
/// variable, not the (presumably secret) name.
struct ShadowedRestriction;

impl Pass for ShadowedRestriction {
    fn name(&self) -> &'static str {
        "shadowed-restriction"
    }
    fn kind(&self) -> PassKind {
        PassKind::Syntactic
    }
    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut scope = Vec::new();
        shadow_walk(ctx.process(), &mut scope, &mut out);
        out
    }
}

fn shadow_walk(p: &Process, scope: &mut Vec<Symbol>, out: &mut Vec<Diagnostic>) {
    for part in p.parts() {
        let Part::Child(_, Some(b)) = part else {
            continue;
        };
        let what = match b {
            Binder::Input(_) => "input-bound variable",
            Binder::Let(..) => "let-bound variable",
            Binder::Pred(_) => "case-bound variable",
            Binder::Dec(_) => "decryption-bound variable",
            Binder::New(_) | Binder::Hide(_) => continue,
        };
        for sym in b.vars().map(|v| v.symbol()) {
            if scope.contains(&sym) {
                out.push(warn(
                    "W102",
                    "shadowed-restriction",
                    Span::Name(sym),
                    format!("{what} `{sym}` shadows a restricted name of the same symbol"),
                ));
            }
        }
    }
    for part in p.parts() {
        if let Part::Child(c, b) = part {
            let bound = b.and_then(Binder::name);
            scope.extend(bound.map(Name::canonical));
            shadow_walk(c, scope, out);
            if bound.is_some() {
                scope.pop();
            }
        }
    }
}

/// W103 — `!0` (replication of the inert process) and `!!P` (nested
/// replication): the former is dead code, the latter redundant.
struct ReplicatedDead;

impl Pass for ReplicatedDead {
    fn name(&self) -> &'static str {
        "replicated-dead"
    }
    fn kind(&self) -> PassKind {
        PassKind::Syntactic
    }
    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (p, _) in ctx.process().preorder() {
            if let Process::Replicate(body) = p {
                match body.as_ref() {
                    Process::Nil => out.push(warn(
                        "W103",
                        self.name(),
                        Span::Process,
                        "replication of the inert process `!0` is dead code".to_owned(),
                    )),
                    Process::Replicate(_) => out.push(warn(
                        "W103",
                        self.name(),
                        Span::Process,
                        "nested replication `!!P` is redundant (`!P` already \
                         provides unboundedly many copies)"
                            .to_owned(),
                    )),
                    _ => {}
                }
            }
        }
        out
    }
}

/// W104 — a secret-declared name in channel-subject position: the
/// channel's identity is then itself the secret, which Definition 4
/// leaves unconstrained but is almost always a modelling mistake when
/// combined with public peers.
struct SecretChannelSubject;

impl Pass for SecretChannelSubject {
    fn name(&self) -> &'static str {
        "secret-channel-subject"
    }
    fn kind(&self) -> PassKind {
        PassKind::Syntactic
    }
    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (p, _) in ctx.process().preorder() {
            let chan = match p {
                Process::Output { chan, .. } | Process::Input { chan, .. } => chan,
                _ => continue,
            };
            if let Term::Name(n) = &chan.term {
                if ctx.policy().is_secret(n.canonical()) {
                    out.push(warn(
                        "W104",
                        "secret-channel-subject",
                        ctx.span_of(chan.label),
                        format!(
                            "secret name `{n}` is used as a channel subject; \
                             its κ component is unconstrained by confinement"
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// W105 — a policy secret naming no symbol of the process: usually a
/// misspelling, and it silently weakens every semantic check.
struct PolicyOrphan;

impl Pass for PolicyOrphan {
    fn name(&self) -> &'static str {
        "policy-orphan"
    }
    fn kind(&self) -> PassKind {
        PassKind::Syntactic
    }
    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let mut mentioned = HashSet::new();
        collect_symbols(ctx.process(), &mut mentioned);
        let mut orphans: Vec<Symbol> = ctx
            .policy()
            .secrets()
            .filter(|s| !mentioned.contains(s))
            .collect();
        orphans.sort_by_key(|s| s.as_str());
        orphans
            .into_iter()
            .map(|s| {
                warn(
                    "W105",
                    self.name(),
                    Span::Name(s),
                    format!(
                        "policy declares `{s}` secret, but no such symbol occurs in the process"
                    ),
                )
            })
            .collect()
    }
}

/// Every canonical symbol occurring in the process: names in terms
/// (including confounder binders and embedded values) and restriction
/// binders. Used to detect policy orphans and to gate the invariance
/// pass on the presence of `n*`.
pub(crate) fn collect_symbols(p: &Process, out: &mut HashSet<Symbol>) {
    fn expr(e: &Expr, out: &mut HashSet<Symbol>) {
        match &e.term {
            Term::Name(n) | Term::Enc { confounder: n, .. } => {
                out.insert(n.canonical());
            }
            Term::Val(w) => out.extend(w.canonical_names()),
            _ => {}
        }
        e.term.parts().for_each(|e| expr(e, out));
    }
    for (q, b) in p.preorder() {
        out.extend(b.and_then(Binder::name).map(Name::canonical));
        q.parts().filter_map(Part::expr).for_each(|e| expr(e, out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_security::Policy;
    use nuspi_syntax::parse_process;

    fn lint_syntactic(src: &str, secrets: &[&str]) -> Vec<Diagnostic> {
        let p = parse_process(src).unwrap();
        let policy = Policy::with_secrets(secrets.iter().copied());
        let ctx = LintContext::new(&p, &policy);
        crate::registry::PassRegistry::syntactic_only().run(&ctx)
    }

    fn codes(d: &[Diagnostic]) -> Vec<&'static str> {
        d.iter().map(|d| d.code).collect()
    }

    #[test]
    fn unused_restriction_is_flagged() {
        let d = lint_syntactic("(new n) c<0>.0", &[]);
        assert!(codes(&d).contains(&"W101"), "{d:?}");
    }

    #[test]
    fn used_restriction_is_clean() {
        let d = lint_syntactic("(new n) c<n>.0", &[]);
        assert!(!codes(&d).contains(&"W101"), "{d:?}");
    }

    #[test]
    fn shadowing_binder_is_flagged() {
        let d = lint_syntactic("(new k) c(k). k<0>.0", &[]);
        assert!(codes(&d).contains(&"W102"), "{d:?}");
    }

    #[test]
    fn distinct_binder_is_clean() {
        let d = lint_syntactic("(new k) c(x). x<k>.0", &[]);
        assert!(!codes(&d).contains(&"W102"), "{d:?}");
    }

    #[test]
    fn replicated_nil_is_flagged() {
        let d = lint_syntactic("!0", &[]);
        assert!(codes(&d).contains(&"W103"), "{d:?}");
    }

    #[test]
    fn nested_replication_is_flagged() {
        let d = lint_syntactic("!!c(x).0", &[]);
        assert!(codes(&d).contains(&"W103"), "{d:?}");
    }

    #[test]
    fn secret_channel_subject_is_flagged_with_a_point_span() {
        let d = lint_syntactic("(new s) s<0>.0", &["s"]);
        let hit = d.iter().find(|d| d.code == "W104").expect("W104");
        assert!(matches!(hit.span, Span::Point { .. }), "{hit:?}");
    }

    #[test]
    fn policy_orphan_is_flagged() {
        let d = lint_syntactic("c<0>.0", &["kAS"]);
        assert!(codes(&d).contains(&"W105"), "{d:?}");
    }

    #[test]
    fn policy_secret_matching_a_confounder_is_not_an_orphan() {
        let d = lint_syntactic("(new m) c<{m, new r}:k>.0", &["m", "r"]);
        assert!(!codes(&d).contains(&"W105"), "{d:?}");
    }

    #[test]
    fn syntactic_passes_never_run_the_solver() {
        let p = parse_process("(new m) c<m>.0").unwrap();
        let policy = Policy::with_secrets(["m"]);
        let ctx = LintContext::new(&p, &policy);
        let _ = crate::registry::PassRegistry::syntactic_only().run(&ctx);
        assert!(!ctx.semantic_built());
    }
}
