//! # nuspi-diagnostics — a security lint engine over the νSPI analyses
//!
//! A multi-pass driver that re-derives the paper's security verdicts —
//! confinement (Definition 4), carefulness (Definition 3), invariance
//! (Definition 7) — as structured [`Diagnostic`]s with seed-rooted
//! witness traces, plus purely syntactic passes that need no solver at
//! all. Two render backends share the one data model: a rustc-style
//! pretty printer ([`render_report`]) and a byte-stable JSON serializer
//! ([`to_json`]) suitable for golden files and CI.
//!
//! The entry point is [`lint`]:
//!
//! ```
//! use nuspi_diagnostics::{lint, Severity};
//! use nuspi_security::Policy;
//! use nuspi_syntax::parse_process;
//!
//! let p = parse_process("(new m) c<m>.0")?;
//! let policy = Policy::with_secrets(["m"]);
//! let diags = lint(&p, &policy);
//! assert!(diags.iter().any(|d| d.code == "E001" && d.severity == Severity::Error));
//! assert!(!diags[0].witness.is_empty());
//! # Ok::<(), nuspi_syntax::ParseError>(())
//! ```
//!
//! Passes are registered in a [`PassRegistry`]; adding a pass means
//! implementing [`Pass`] and registering it — the driver, renderers and
//! report ordering never change. Output order is a total order on the
//! diagnostics themselves (severity, code, span, message), so it is
//! independent of pass registration order, hashing, and label minting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod diag;
mod json;
mod registry;
mod render;
mod semantic;
mod syntactic;

pub use context::{LintConfig, LintContext, SemanticCtx};
pub use diag::{sort_diagnostics, Diagnostic, Severity, Span, WitnessStep};
pub use json::{to_json, to_json_compact};
pub use registry::{Pass, PassKind, PassRegistry};
pub use render::{render_diagnostic, render_report};

use nuspi_security::Policy;
use nuspi_syntax::Process;

/// Runs every built-in pass over `p` under `policy` with the default
/// configuration, returning diagnostics in the stable report order.
pub fn lint(p: &Process, policy: &Policy) -> Vec<Diagnostic> {
    lint_with(p, policy, LintConfig::default())
}

/// Like [`lint`] with an explicit [`LintConfig`] (exploration budgets).
pub fn lint_with(p: &Process, policy: &Policy, config: LintConfig) -> Vec<Diagnostic> {
    let ctx = LintContext::with_config(p, policy, config);
    PassRegistry::with_defaults().run(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::parse_process;

    #[test]
    fn lint_is_deterministic_across_runs() {
        let p = parse_process("(new m) (c<m>.0 | c(x). d<x>.0)").unwrap();
        let policy = Policy::with_secrets(["m"]);
        let a = to_json(&lint(&p, &policy));
        let b = to_json(&lint(&p, &policy));
        assert_eq!(a, b);
    }

    #[test]
    fn clean_process_lints_clean() {
        let p = parse_process("(new k) (new m) c<{m, new r}:k>.0").unwrap();
        let policy = Policy::with_secrets(["k", "m"]);
        let diags = lint(&p, &policy);
        assert!(
            !diags.iter().any(|d| d.severity == Severity::Error),
            "{diags:?}"
        );
    }
}
