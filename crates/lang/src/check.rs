//! The end-to-end driver: compile annotated source, run the νSPI
//! analysis pipeline, and anchor every verdict back to the surface
//! program.
//!
//! [`compile`] goes source → process + policy + [`SourceMap`];
//! [`check_compiled`] runs the full lint pipeline over the result and
//! resolves each diagnostic's witness against the source map, producing
//! [`SourcedDiagnostic`]s whose *origin* (the labeled/secret
//! declaration the leaked datum came from) and *sink* (the
//! `//nuspi::sink::{}` channel it reaches) carry `file:line:col`
//! anchors. When both ends are known the message is rewritten in
//! surface terms: "value labeled `high` at examples/lang/leak.nu:7:3
//! reaches sink `pub_out` declared at examples/lang/leak.nu:3:3".
//! [`check`] does both halves.
//!
//! Rendering follows the repo conventions: a rustc-style text report
//! and a byte-stable JSON document (pretty and single-line compact
//! forms differing only in whitespace). Reports are byte-identical
//! across runs, because the underlying lint is.

use crate::error::LangError;
use crate::lower::lower;
use crate::parser::parse;
use crate::srcmap::{Role, SourceMap};
use nuspi_diagnostics::{lint, Diagnostic, Severity, Span};
use nuspi_security::{Policy, SecLattice};
use nuspi_syntax::Process;
use std::fmt::Write as _;

/// A compiled program: the lowered process, the derived policy, and the
/// map from minted names back to source declarations.
pub struct Compiled {
    /// The lowered νSPI process.
    pub process: Process,
    /// The derived secrecy policy (every internal channel and annotated
    /// datum is secret; sinks are public free names).
    pub policy: Policy,
    /// Minted-name → declaration-site map.
    pub map: SourceMap,
    /// The policy's secret bases, sorted (stable input for cache keys).
    pub secrets: Vec<String>,
    /// Statements the lowering expanded — an upper bound on the
    /// process's size and depth.
    pub stmts: usize,
}

/// Compiles `src` (from `file`, used only for anchors) down to a
/// process, policy, and source map. The first frontend failure is
/// returned as a structured [`LangError`].
pub fn compile(file: &str, src: &str) -> Result<Compiled, LangError> {
    let program = parse(src)?;
    let lowered = lower(&program)?;
    // A binary-lattice policy unless some declaration carries a graded
    // label; then the policy moves to the 4-point diamond and the graded
    // names get explicit levels (the lexer validated every label).
    let policy = if lowered.graded.is_empty() {
        Policy::with_secrets(lowered.secrets.iter().map(String::as_str))
    } else {
        let lat = SecLattice::diamond4();
        let mut p = Policy::with_lattice(lat.clone());
        for s in &lowered.secrets {
            p.add_secret(s.as_str());
        }
        for (base, conf, integ) in &lowered.graded {
            let level = lat
                .level(conf, integ)
                .expect("graded labels are validated by the lexer");
            p.grade(base.as_str(), level);
        }
        p
    };
    let map = lowered.source_map(file);
    Ok(Compiled {
        process: lowered.process,
        policy,
        map,
        secrets: lowered.secrets,
        stmts: lowered.stmts,
    })
}

/// The overall verdict of a check run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The program compiled and no analysis pass reported an error.
    Secure,
    /// The program compiled but at least one security error was found.
    Insecure,
    /// The program did not compile (lex/parse/annotation/lowering).
    Invalid,
}

impl Verdict {
    /// Stable lowercase name, used by both render backends.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Secure => "secure",
            Verdict::Insecure => "insecure",
            Verdict::Invalid => "invalid",
        }
    }
}

/// A source anchor: a minted νSPI name resolved to its declaration.
#[derive(Clone, Debug)]
pub struct Anchor {
    /// The canonical νSPI base name.
    pub name: String,
    /// The surface identifier as written.
    pub ident: String,
    /// What the declaration is.
    pub role: Role,
    /// The declared security label, if any.
    pub label: Option<String>,
    /// 1-based declaration line.
    pub line: u32,
    /// 1-based declaration column.
    pub col: u32,
}

/// One analysis diagnostic with its source anchors and the
/// surface-level message derived from them.
#[derive(Clone, Debug)]
pub struct SourcedDiagnostic {
    /// The underlying diagnostic (νSPI-level span and witness).
    pub diag: Diagnostic,
    /// The labeled/secret declaration the flowing datum came from, when
    /// the witness names one.
    pub origin: Option<Anchor>,
    /// The sink channel the diagnostic is about, when its span is one.
    pub sink: Option<Anchor>,
    /// The surface-level message: rewritten in `file:line:col` terms
    /// when both ends are anchored, the νSPI-level message otherwise.
    pub message: String,
}

/// A full check run over one file.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The file checked (as given).
    pub file: String,
    /// The overall verdict.
    pub verdict: Verdict,
    /// The diagnostics, in the stable report order.
    pub diags: Vec<SourcedDiagnostic>,
}

/// Programs whose lowering expanded more statements than this are
/// analysed on a dedicated wide-stack thread: the lint passes recurse
/// over the term, a deep term can outgrow the caller's stack, and a
/// stack overflow is an abort no `catch_unwind` contains.
const WIDE_STACK_STMTS: usize = 128;

/// Stack size for that thread — sized for the deepest process the
/// lowering budget admits, with generous debug-build headroom.
const WIDE_STACK_BYTES: usize = 64 * 1024 * 1024;

/// Compiles and analyses `src`, anchoring every diagnostic to source.
pub fn check(file: &str, src: &str) -> CheckReport {
    match compile(file, src) {
        Ok(compiled) => check_compiled(compiled),
        Err(e) => {
            let message = format!("{}:{}: {}", file, e.pos, e.message);
            CheckReport {
                file: file.to_owned(),
                verdict: Verdict::Invalid,
                diags: vec![SourcedDiagnostic {
                    diag: e.to_diagnostic(),
                    origin: None,
                    sink: None,
                    message,
                }],
            }
        }
    }
}

/// The analysis half of [`check`]: lints a compiled program and anchors
/// every diagnostic to its file (`compiled.map.file`). A program whose
/// lowering expanded more than `WIDE_STACK_STMTS` statements is linted
/// on a wide-stack thread, which takes the compiled program with it.
/// `compile` itself is iterative over statements and caps parse depth,
/// so it is safe on any stack.
pub fn check_compiled(compiled: Compiled) -> CheckReport {
    if compiled.stmts <= WIDE_STACK_STMTS {
        return lint_and_anchor(&compiled);
    }
    let handle = std::thread::Builder::new()
        .name("nuspi-lang-check".to_owned())
        .stack_size(WIDE_STACK_BYTES)
        .spawn(move || lint_and_anchor(&compiled))
        .expect("spawn wide-stack check thread");
    match handle.join() {
        Ok(report) => report,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// [`check_compiled`] on the calling thread's stack.
fn lint_and_anchor(compiled: &Compiled) -> CheckReport {
    let file = &compiled.map.file;
    let diags = lint(&compiled.process, &compiled.policy);
    let insecure = diags.iter().any(|d| d.severity == Severity::Error);
    let diags = diags
        .into_iter()
        .map(|d| anchor_diagnostic(&compiled.map, file, d))
        .collect();
    CheckReport {
        file: file.clone(),
        verdict: if insecure {
            Verdict::Insecure
        } else {
            Verdict::Secure
        },
        diags,
    }
}

fn site_anchor(map: &SourceMap, base: &str) -> Option<Anchor> {
    map.site(base).map(|s| Anchor {
        name: base.to_owned(),
        ident: s.ident.clone(),
        role: s.role,
        label: s.label.clone(),
        line: s.line,
        col: s.col,
    })
}

/// Resolves a diagnostic's two ends against the source map and derives
/// the surface-level message.
fn anchor_diagnostic(map: &SourceMap, file: &str, diag: Diagnostic) -> SourcedDiagnostic {
    let sink = match &diag.span {
        Span::Channel(sym) => site_anchor(map, sym.as_str()).filter(|a| a.role == Role::Sink),
        _ => None,
    };
    let origin = find_origin(map, &diag);
    let message = match (&origin, &sink) {
        (Some(o), Some(s)) => match o.role {
            Role::High => format!(
                "value labeled `{}` at {file}:{}:{} reaches sink `{}` declared at {file}:{}:{}",
                o.label.as_deref().unwrap_or("high"),
                o.line,
                o.col,
                s.ident,
                s.line,
                s.col
            ),
            _ => format!(
                "secret `{}` declared at {file}:{}:{} reaches sink `{}` declared at {file}:{}:{}",
                o.ident, o.line, o.col, s.ident, s.line, s.col
            ),
        },
        _ => diag.message.clone(),
    };
    SourcedDiagnostic {
        diag,
        origin,
        sink,
        message,
    }
}

/// Scans the diagnostic's message and witness details, in order, for
/// the first token naming a labeled/secret declaration site.
fn find_origin(map: &SourceMap, diag: &Diagnostic) -> Option<Anchor> {
    let texts = std::iter::once(diag.message.as_str())
        .chain(diag.witness.iter().map(|w| w.detail.as_str()));
    for text in texts {
        for tok in tokens(text) {
            if let Some(site) = map.site(tok) {
                if site.role.is_origin() {
                    return site_anchor(map, tok);
                }
            }
        }
    }
    None
}

/// Candidate name tokens of a witness detail: maximal runs of
/// identifier characters and dots (mangled bases are `func.ident[.n]`),
/// with sentence punctuation trimmed.
fn tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .map(|t| t.trim_matches('.'))
        .filter(|t| !t.is_empty())
}

/// Renders one sourced diagnostic in the rustc-inspired layout, with
/// `file:line:col` arrows and origin/sink notes when anchored.
pub fn render_sourced(file: &str, d: &SourcedDiagnostic) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}[{}]: {}", d.diag.severity, d.diag.code, d.message);
    let arrow = match (&d.origin, &d.diag.span) {
        (Some(o), _) => format!("{file}:{}:{}", o.line, o.col),
        (None, Span::Source { line, col }) => format!("{file}:{line}:{col}"),
        (None, span) => span.to_string(),
    };
    let _ = writeln!(out, "  --> {} (pass: {})", arrow, d.diag.pass);
    if let Some(o) = &d.origin {
        let what = match o.role {
            Role::High => format!("labeled `{}`", o.label.as_deref().unwrap_or("high")),
            _ => "declared secret".to_owned(),
        };
        let _ = writeln!(
            out,
            "  = origin: `{}` {what} at {file}:{}:{} (lowered to `{}`)",
            o.ident, o.line, o.col, o.name
        );
    }
    if let Some(s) = &d.sink {
        let _ = writeln!(
            out,
            "  = sink: channel `{}` declared at {file}:{}:{}",
            s.ident, s.line, s.col
        );
    }
    for (i, step) in d.diag.witness.iter().enumerate() {
        let _ = writeln!(out, "   {}. {}: {}", i + 1, step.rule, step.detail);
    }
    out
}

/// Renders a full check report: every diagnostic, then a verdict line.
pub fn render_check(report: &CheckReport) -> String {
    let mut out = String::new();
    for d in &report.diags {
        out.push_str(&render_sourced(&report.file, d));
        out.push('\n');
    }
    let (e, w, n) = tally(report);
    let _ = writeln!(
        out,
        "check finished: {}: {} ({e} error(s), {w} warning(s), {n} note(s))",
        report.file,
        report.verdict.as_str()
    );
    out
}

fn tally(report: &CheckReport) -> (usize, usize, usize) {
    let count = |s: Severity| report.diags.iter().filter(|d| d.diag.severity == s).count();
    (
        count(Severity::Error),
        count(Severity::Warning),
        count(Severity::Note),
    )
}

/// Escapes a string for a JSON string literal (same rules as the
/// diagnostics serializer; the helper there is crate-private).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn anchor_json(a: &Anchor, with_role: bool) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ident\":\"{}\",",
        escape(&a.name),
        escape(&a.ident)
    );
    if with_role {
        let _ = write!(out, "\"role\":\"{}\",", a.role.as_str());
        if let Some(l) = &a.label {
            let _ = write!(out, "\"label\":\"{}\",", escape(l));
        }
    }
    let _ = write!(out, "\"line\":{},\"col\":{}}}", a.line, a.col);
    out
}

/// Serialises a check report as a *single-line* JSON object. The
/// pretty form ([`check_to_json`]) differs only in whitespace.
pub fn check_to_json_compact(report: &CheckReport) -> String {
    let (e, w, n) = tally(report);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"version\":1,\"tool\":\"nuspi-lang\",\"file\":\"{}\",\"verdict\":\"{}\",",
        escape(&report.file),
        report.verdict.as_str()
    );
    let _ = write!(
        out,
        "\"summary\":{{\"errors\":{e},\"warnings\":{w},\"notes\":{n}}},\"diagnostics\":["
    );
    for (i, d) in report.diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"code\":\"{}\",\"pass\":\"{}\",\"severity\":\"{}\",",
            escape(d.diag.code),
            escape(d.diag.pass),
            d.diag.severity
        );
        let _ = write!(
            out,
            "\"span\":{{\"kind\":\"{}\",\"value\":\"{}\"}},\"message\":\"{}\",",
            d.diag.span.kind(),
            escape(&d.diag.span.value()),
            escape(&d.message)
        );
        if let Some(o) = &d.origin {
            let _ = write!(out, "\"origin\":{},", anchor_json(o, true));
        }
        if let Some(s) = &d.sink {
            let _ = write!(out, "\"sink\":{},", anchor_json(s, false));
        }
        out.push_str("\"witness\":[");
        for (j, step) in d.diag.witness.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"detail\":\"{}\"}}",
                escape(step.rule),
                escape(&step.detail)
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Serialises a check report as a pretty-printed JSON document with a
/// stable byte layout (the golden-file format of `tests/lang_golden.rs`
/// and the `nuspi check --json` payload).
pub fn check_to_json(report: &CheckReport) -> String {
    let (e, w, n) = tally(report);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str("  \"tool\": \"nuspi-lang\",\n");
    let _ = writeln!(out, "  \"file\": \"{}\",", escape(&report.file));
    let _ = writeln!(out, "  \"verdict\": \"{}\",", report.verdict.as_str());
    let _ = writeln!(
        out,
        "  \"summary\": {{ \"errors\": {e}, \"warnings\": {w}, \"notes\": {n} }},"
    );
    if report.diags.is_empty() {
        out.push_str("  \"diagnostics\": []\n");
    } else {
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in report.diags.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"code\": \"{}\",", escape(d.diag.code));
            let _ = writeln!(out, "      \"pass\": \"{}\",", escape(d.diag.pass));
            let _ = writeln!(out, "      \"severity\": \"{}\",", d.diag.severity);
            let _ = writeln!(
                out,
                "      \"span\": {{ \"kind\": \"{}\", \"value\": \"{}\" }},",
                d.diag.span.kind(),
                escape(&d.diag.span.value())
            );
            let _ = writeln!(out, "      \"message\": \"{}\",", escape(&d.message));
            if let Some(o) = &d.origin {
                let _ = writeln!(out, "      \"origin\": {},", anchor_json(o, true));
            }
            if let Some(s) = &d.sink {
                let _ = writeln!(out, "      \"sink\": {},", anchor_json(s, false));
            }
            if d.diag.witness.is_empty() {
                out.push_str("      \"witness\": []\n");
            } else {
                out.push_str("      \"witness\": [\n");
                for (j, step) in d.diag.witness.iter().enumerate() {
                    let _ = write!(
                        out,
                        "        {{ \"rule\": \"{}\", \"detail\": \"{}\" }}",
                        escape(step.rule),
                        escape(&step.detail)
                    );
                    out.push_str(if j + 1 < d.diag.witness.len() {
                        ",\n"
                    } else {
                        "\n"
                    });
                }
                out.push_str("      ]\n");
            }
            out.push_str(if i + 1 < report.diags.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEAK: &str = "func main() {\n\
                        //nuspi::sink::{}\n\
                        out := make(chan)\n\
                        //nuspi::label::{high}\n\
                        pin := 1234\n\
                        out <- pin\n\
                        }";

    const CLEAN: &str = "func main() {\n\
                         //nuspi::sink::{}\n\
                         out := make(chan)\n\
                         ch := make(chan)\n\
                         //nuspi::label::{high}\n\
                         pin := 1\n\
                         go fwd(ch, pin)\n\
                         out <- 0\n\
                         }\n\
                         func fwd(c, v) { c <- v }";

    #[test]
    fn leak_is_insecure_with_both_anchors() {
        let r = check("leak.nu", LEAK);
        assert_eq!(r.verdict, Verdict::Insecure);
        let e001 = r
            .diags
            .iter()
            .find(|d| d.diag.code == "E001")
            .expect("E001");
        let o = e001.origin.as_ref().expect("origin anchor");
        assert_eq!((o.line, o.col), (5, 1), "{o:?}");
        assert_eq!(o.ident, "pin");
        let s = e001.sink.as_ref().expect("sink anchor");
        assert_eq!((s.line, s.col), (3, 1), "{s:?}");
        assert_eq!(s.ident, "out");
        assert_eq!(
            e001.message,
            "value labeled `high` at leak.nu:5:1 reaches sink `out` declared at leak.nu:3:1"
        );
        let text = render_check(&r);
        assert!(text.contains("leak.nu:5:1"), "{text}");
        assert!(
            text.contains("= sink: channel `out` declared at leak.nu:3:1"),
            "{text}"
        );
        assert!(text.contains("insecure"), "{text}");
    }

    #[test]
    fn clean_program_is_secure() {
        let r = check("clean.nu", CLEAN);
        assert_eq!(r.verdict, Verdict::Secure, "{:?}", r.diags);
    }

    #[test]
    fn frontend_failure_is_invalid_with_a_source_span() {
        let r = check("bad.nu", "func main() { x := \"oops\n}");
        assert_eq!(r.verdict, Verdict::Invalid);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].diag.code, "L001");
        assert!(
            r.diags[0].message.starts_with("bad.nu:1:20"),
            "{:?}",
            r.diags[0].message
        );
        let doc = check_to_json(&r);
        assert!(doc.contains("\"verdict\": \"invalid\""), "{doc}");
    }

    #[test]
    fn graded_leak_is_insecure_with_a_lattice_edge_diagnostic() {
        let src = "func main() {\n\
                   //nuspi::sink::{}\n\
                   out := make(chan)\n\
                   //nuspi::label::{conf:secret,integ:tainted}\n\
                   key := 7\n\
                   out <- key\n\
                   }";
        let r = check("graded.nu", src);
        assert_eq!(r.verdict, Verdict::Insecure, "{:?}", r.diags);
        let e009 = r
            .diags
            .iter()
            .find(|d| d.diag.code == "E009")
            .expect("graded-flow diagnostic");
        assert!(
            e009.diag.message.contains("conf:secret,integ:tainted"),
            "{:?}",
            e009.diag.message
        );
        assert!(
            e009.diag
                .witness
                .iter()
                .any(|w| w.detail.contains("violated edge") && w.detail.contains("⋢")),
            "{:?}",
            e009.diag.witness
        );
        let o = e009.origin.as_ref().expect("origin anchor");
        assert_eq!(o.ident, "key");
        assert_eq!(o.label.as_deref(), Some("conf:secret,integ:tainted"));
    }

    #[test]
    fn bottom_graded_value_is_secure() {
        let src = "func main() {\n\
                   //nuspi::sink::{}\n\
                   out := make(chan)\n\
                   //nuspi::label::{conf:public,integ:trusted}\n\
                   tag := 7\n\
                   out <- tag\n\
                   }";
        let r = check("tag.nu", src);
        assert_eq!(r.verdict, Verdict::Secure, "{:?}", r.diags);
    }

    #[test]
    fn hidden_name_reaching_a_sink_is_flagged_from_source() {
        let src = "func main() {\n\
                   //nuspi::sink::{}\n\
                   out := make(chan)\n\
                   //nuspi::hide\n\
                   h := 0\n\
                   out <- h\n\
                   }";
        let r = check("hide.nu", src);
        assert_eq!(r.verdict, Verdict::Insecure, "{:?}", r.diags);
        assert!(
            r.diags.iter().any(|d| d.diag.code == "W106"),
            "expected a hidden-escape warning: {:?}",
            r.diags.iter().map(|d| d.diag.code).collect::<Vec<_>>()
        );
        // The hidden declaration anchors as an origin even though the
        // policy has no entry for it.
        let w = r
            .diags
            .iter()
            .find(|d| d.diag.code == "W106")
            .expect("W106");
        let o = w.origin.as_ref().expect("origin anchor");
        assert_eq!(o.ident, "h");
        assert_eq!(o.role, Role::Hidden);
    }

    #[test]
    fn json_backends_agree_and_are_stable_across_runs() {
        let a = check_to_json(&check("leak.nu", LEAK));
        let b = check_to_json(&check("leak.nu", LEAK));
        assert_eq!(a, b);
        let compact = check_to_json_compact(&check("leak.nu", LEAK));
        assert!(!compact.contains('\n'));
        let squeeze = |s: &str| s.chars().filter(|c| !c.is_whitespace()).collect::<String>();
        assert_eq!(squeeze(&a), squeeze(&compact));
    }
}
