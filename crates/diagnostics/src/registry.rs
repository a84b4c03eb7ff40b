//! The pass registry: lint passes as trait objects behind one driver.
//!
//! New passes implement [`Pass`] and register themselves; the driver
//! ([`PassRegistry::run`]) never changes. Output order is fully
//! determined by [`sort_diagnostics`] — never by registration order —
//! so registering a pass earlier or later cannot perturb golden files.

use crate::context::LintContext;
use crate::diag::{sort_diagnostics, Diagnostic};

/// Whether a pass needs the solver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PassKind {
    /// Purely syntactic: runs on the AST and policy alone.
    Syntactic,
    /// Semantic: consults the CFA solution / provenance / monitors.
    Semantic,
}

/// One lint pass.
pub trait Pass {
    /// Stable pass name (shown in rendered diagnostics).
    fn name(&self) -> &'static str;
    /// Whether the pass needs the semantic layer.
    fn kind(&self) -> PassKind;
    /// Runs the pass, producing diagnostics in any order.
    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic>;
}

/// An ordered collection of passes sharing one [`LintContext`].
#[derive(Default)]
pub struct PassRegistry {
    passes: Vec<Box<dyn Pass>>,
}

impl PassRegistry {
    /// An empty registry.
    pub fn new() -> PassRegistry {
        PassRegistry::default()
    }

    /// The registry with every built-in pass.
    pub fn with_defaults() -> PassRegistry {
        let mut r = PassRegistry::new();
        for pass in crate::syntactic::passes() {
            r.register(pass);
        }
        for pass in crate::semantic::passes() {
            r.register(pass);
        }
        r
    }

    /// The registry with only the syntactic (solver-free) passes.
    pub fn syntactic_only() -> PassRegistry {
        let mut r = PassRegistry::new();
        for pass in crate::syntactic::passes() {
            r.register(pass);
        }
        r
    }

    /// Adds a pass.
    pub fn register(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// The registered passes.
    pub fn passes(&self) -> impl Iterator<Item = &dyn Pass> {
        self.passes.iter().map(|p| p.as_ref())
    }

    /// Runs every pass and returns the findings in the stable report
    /// order (severity, code, span, message).
    pub fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out: Vec<Diagnostic> = self.passes.iter().flat_map(|p| p.run(ctx)).collect();
        sort_diagnostics(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Severity, Span};
    use nuspi_security::Policy;
    use nuspi_syntax::parse_process;

    struct Stub(&'static str);
    impl Pass for Stub {
        fn name(&self) -> &'static str {
            "stub"
        }
        fn kind(&self) -> PassKind {
            PassKind::Syntactic
        }
        fn run(&self, _ctx: &LintContext) -> Vec<Diagnostic> {
            vec![Diagnostic {
                code: self.0,
                pass: "stub",
                severity: Severity::Warning,
                span: Span::Process,
                message: "stub finding".into(),
                witness: vec![],
            }]
        }
    }

    #[test]
    fn run_order_is_independent_of_registration_order() {
        let p = parse_process("0").unwrap();
        let policy = Policy::new();
        let ctx = LintContext::new(&p, &policy);
        let mut a = PassRegistry::new();
        a.register(Box::new(Stub("W900")))
            .register(Box::new(Stub("W100")));
        let mut b = PassRegistry::new();
        b.register(Box::new(Stub("W100")))
            .register(Box::new(Stub("W900")));
        assert_eq!(a.run(&ctx), b.run(&ctx));
    }

    #[test]
    fn default_registry_has_both_kinds() {
        let r = PassRegistry::with_defaults();
        assert!(r.passes().any(|p| p.kind() == PassKind::Syntactic));
        assert!(r.passes().any(|p| p.kind() == PassKind::Semantic));
    }

    #[test]
    fn syntactic_registry_never_builds_the_semantic_layer() {
        let p = parse_process("(new m) c<m>.0").unwrap();
        let policy = Policy::with_secrets(["m"]);
        let ctx = LintContext::new(&p, &policy);
        let _ = PassRegistry::syntactic_only().run(&ctx);
        assert!(!ctx.semantic_built());
    }
}
