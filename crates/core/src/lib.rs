//! # nuspi — static analysis for secrecy and non-interference in networks of processes
//!
//! A faithful, executable reproduction of Bodei, Degano, Nielson &
//! Riis Nielson, *"Static Analysis for Secrecy and Non-interference in
//! Networks of Processes"* (PACT 2001):
//!
//! * the **νSPI-calculus** with history-dependent (confounder-randomised)
//!   symmetric encryption — [`syntax`] and [`semantics`];
//! * the **Control Flow Analysis** of Table 2 with a polynomial-time
//!   least-solution solver over regular tree grammars — [`cfa`];
//! * **Dolev–Yao secrecy** (confinement ⟹ carefulness ⟹ no revelation;
//!   Theorems 3–4) and **message independence** (confinement + invariance
//!   ⟹ testing equivalence; Theorem 5) — [`security`];
//! * a **protocol suite** (WMF, Needham–Schroeder, Otway–Rees, Yahalom,
//!   Andrew RPC, and flawed variants) — [`protocols`];
//! * a **lint engine** turning the analyses into structured diagnostics
//!   with witness traces, plus syntactic passes and stable JSON output —
//!   [`diagnostics`] (the `nuspi lint` subcommand);
//! * a **batch analysis service**: a worker pool answering audit / lint /
//!   solve / reveals requests with a content-addressed α-invariant cache,
//!   behind a JSON-lines session — [`engine`] (the `nuspi serve`
//!   subcommand);
//! * a **dynamic backend**: bounded hedged-bisimilarity over the
//!   commitment semantics, with a Theorem 5 oracle run differentially
//!   against the static analysis and an attack-variant miner —
//!   [`equiv`] (the `nuspi equiv` subcommand).
//!
//! The [`Analyzer`] type packages the common workflows.
//!
//! # Examples
//!
//! Certify the Wide Mouthed Frog exchange (the paper's Example 1):
//!
//! ```
//! use nuspi::Analyzer;
//!
//! let analyzer = Analyzer::new().secrets(["kAS", "kBS", "kAB", "m"]);
//! let audit = analyzer.audit_source(
//!     "
//!     (new m) (new kAS) (new kBS) (
//!       ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{m, new r2}:kAB>.0
//!        | cBS(t). case t of {y}:kBS in cAB(z). case z of {q}:y in 0)
//!       | cAS(x). case x of {s}:kAS in cBS<{s, new r3}:kBS>.0
//!     )",
//! )?;
//! assert!(audit.is_secure());
//! # Ok::<(), nuspi::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nuspi_cfa as cfa;
pub use nuspi_diagnostics as diagnostics;
pub use nuspi_engine as engine;
pub use nuspi_equiv as equiv;
pub use nuspi_lang as lang;
pub use nuspi_net as net;
pub use nuspi_obs as obs;
pub use nuspi_protocols as protocols;
pub use nuspi_security as security;
pub use nuspi_semantics as semantics;
pub use nuspi_syntax as syntax;

pub use nuspi_cfa::{analyze, solve_reference, FlowVar, Solution, SolverStats};
pub use nuspi_diagnostics::{lint, lint_with, Diagnostic, LintConfig, Severity};
pub use nuspi_engine::{AnalysisEngine, EngineConfig, EngineStats, Envelope, Request, Response};
pub use nuspi_security::{
    audit, carefulness, confinement, invariance, message_independent, reveals,
    static_message_independence, Attack, Audit, AuditConfig, CarefulnessReport, ConfinementReport,
    IntruderConfig, Knowledge, Policy, StaticIndependenceReport,
};
pub use nuspi_semantics::{EvalMode, ExecConfig};
pub use nuspi_syntax::{parse_process, ParseError, Process, Symbol, Value, Var};

use std::fmt;

/// Errors surfaced by the facade.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// The source text did not parse.
    Parse(ParseError),
    /// The process has free variables; the analyses need closed processes.
    OpenProcess,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::OpenProcess => write!(f, "process has free variables"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Error {
        Error::Parse(e)
    }
}

/// One-stop configuration for the analyses: the secrecy policy plus the
/// budgets of the dynamic checkers.
#[derive(Clone, Debug, Default)]
pub struct Analyzer {
    policy: Policy,
    exec: ExecConfig,
    intruder: IntruderConfig,
}

impl Analyzer {
    /// An analyzer with an all-public policy and default budgets.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// Declares canonical names secret.
    pub fn secrets<I, S>(mut self, secrets: I) -> Analyzer
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        for s in secrets {
            self.policy.add_secret(s);
        }
        self
    }

    /// Uses an explicit policy.
    pub fn policy(mut self, policy: Policy) -> Analyzer {
        self.policy = policy;
        self
    }

    /// Overrides the execution budgets of the dynamic checkers.
    pub fn exec_config(mut self, exec: ExecConfig) -> Analyzer {
        self.exec = exec;
        self
    }

    /// Overrides the intruder budgets.
    pub fn intruder_config(mut self, intruder: IntruderConfig) -> Analyzer {
        self.intruder = intruder;
        self
    }

    /// The configured policy.
    pub fn policy_ref(&self) -> &Policy {
        &self.policy
    }

    /// Runs the CFA on a closed process.
    ///
    /// # Errors
    ///
    /// [`Error::OpenProcess`] if the process has free variables.
    pub fn solve(&self, p: &Process) -> Result<Solution, Error> {
        if !p.is_closed() {
            return Err(Error::OpenProcess);
        }
        Ok(analyze(p))
    }

    /// The static secrecy check (Definition 4 / Theorem 4).
    pub fn confinement(&self, p: &Process) -> ConfinementReport {
        confinement(p, &self.policy)
    }

    /// The dynamic secrecy monitor (Definition 3).
    pub fn carefulness(&self, p: &Process) -> CarefulnessReport {
        carefulness(p, &self.policy, &self.exec)
    }

    /// The bounded Dolev–Yao revelation search (Definition 5) against an
    /// intruder initially knowing the given public names.
    pub fn reveals<I, S>(&self, p: &Process, known: I, secret: Symbol) -> Option<Attack>
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        let k0 = Knowledge::from_names(known);
        reveals(p, &k0, secret, &self.intruder)
    }

    /// Runs all three secrecy checks on a closed process: the static
    /// confinement check, the dynamic carefulness monitor, and a bounded
    /// Dolev–Yao search per declared secret (the intruder starts from the
    /// process's public free names). Delegates to [`nuspi_security::audit`].
    ///
    /// # Errors
    ///
    /// [`Error::OpenProcess`] if the process has free variables.
    pub fn audit(&self, p: &Process) -> Result<Audit, Error> {
        if !p.is_closed() {
            return Err(Error::OpenProcess);
        }
        let cfg = AuditConfig {
            exec: self.exec,
            intruder: self.intruder,
        };
        Ok(audit(p, &self.policy, &cfg))
    }

    /// Parses and audits in one step.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on malformed source, [`Error::OpenProcess`] if the
    /// parsed process is open.
    pub fn audit_source(&self, src: &str) -> Result<Audit, Error> {
        let p = parse_process(src)?;
        self.audit(&p)
    }

    /// Theorem 5's static premises for an open process `P(x)`.
    pub fn message_independence(&self, open: &Process, x: Var) -> StaticIndependenceReport {
        static_message_independence(open, x, &self.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_certifies_wmf() {
        let spec = protocols::wmf::wmf();
        let analyzer = Analyzer::new().policy(spec.policy.clone());
        let audit = analyzer.audit(&spec.process).unwrap();
        assert!(audit.is_secure(), "{audit}");
    }

    #[test]
    fn audit_rejects_flawed_wmf_on_all_three_checks() {
        let spec = protocols::wmf::wmf_key_in_clear();
        let analyzer = Analyzer::new().policy(spec.policy.clone());
        let audit = analyzer.audit(&spec.process).unwrap();
        assert!(!audit.confinement.is_confined());
        assert!(!audit.carefulness.is_careful());
        assert!(!audit.attacks.is_empty());
        assert!(!audit.is_secure());
    }

    #[test]
    fn open_process_is_rejected() {
        let x = Var::fresh("x");
        let p = syntax::builder::output(
            syntax::builder::name("c"),
            syntax::builder::var(x),
            syntax::builder::nil(),
        );
        let analyzer = Analyzer::new();
        assert_eq!(analyzer.audit(&p).unwrap_err(), Error::OpenProcess);
        assert!(analyzer.solve(&p).is_err());
    }

    #[test]
    fn parse_errors_surface() {
        let analyzer = Analyzer::new();
        assert!(matches!(
            analyzer.audit_source("c<").unwrap_err(),
            Error::Parse(_)
        ));
    }

    #[test]
    fn audit_display_is_nonempty() {
        let analyzer = Analyzer::new().secrets(["m"]);
        let audit = analyzer.audit_source("(new m) c<m>.0").unwrap();
        let shown = audit.to_string();
        assert!(shown.contains("violation"));
    }

    #[test]
    fn message_independence_facade() {
        let ex = protocols::implicit_flow();
        let analyzer = Analyzer::new().policy(ex.policy.clone());
        let report = analyzer.message_independence(&ex.process, ex.var);
        assert!(!report.implies_independence());
    }
}
