//! # nuspi-lang — an annotated-source IFC frontend for νSPI
//!
//! A hand-rolled lexer and recursive-descent parser for a Go-ish
//! imperative mini-language (assignments, `if`/`for`, functions,
//! channel `make`/send/receive, `go`), plus a static lowering into νSPI
//! processes that the existing CFA + confinement + invariance pipeline
//! analyses unchanged. Security intent is written as comment
//! annotations:
//!
//! ```text
//! //nuspi::sink::{}        the next channel is an observable sink
//! //nuspi::label::{high}   the next declaration is high-labeled data
//! //nuspi::secret          the next declaration is a confidential name
//! //nuspi::hide            the next declaration is hide-bound: secret by
//!                          construction, forbidden from leaving its scope
//! //nuspi::label::{conf:secret,integ:tainted}
//!                          graded label on the 4-point diamond lattice
//!                          (an omitted axis defaults to its bottom)
//! ```
//!
//! The lowering records a [`SourceMap`] from every νSPI name it mints
//! back to the `file:line:col` of the surface declaration, so analysis
//! verdicts render in source terms: *"value labeled `high` at
//! examples/lang/03_channels_leak.nu:9:3 reaches sink `pub_out`
//! declared at examples/lang/03_channels_leak.nu:3:3"*.
//!
//! Minted names are mangled by declaration order, never by position, so
//! a formatting-only edit lowers to an α-digest-identical process —
//! which is exactly what the engine's `analyze_source` op caches on.
//!
//! ```
//! use nuspi_lang::{check, Verdict};
//!
//! let src = "func main() {\n\
//!            //nuspi::sink::{}\n\
//!            out := make(chan)\n\
//!            //nuspi::label::{high}\n\
//!            pin := 1234\n\
//!            out <- pin\n\
//!            }";
//! let report = check("demo.nu", src);
//! assert_eq!(report.verdict, Verdict::Insecure);
//! assert!(report.diags.iter().any(|d| d.origin.is_some() && d.sink.is_some()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod check;
mod error;
mod lower;
mod parser;
mod srcmap;
mod token;

pub use ast::{Block, Call, Expr, ExprKind, FuncDecl, Program, Stmt, StmtKind};
pub use check::{
    check, check_to_json, check_to_json_compact, compile, render_check, render_sourced, Anchor,
    CheckReport, Compiled, SourcedDiagnostic, Verdict,
};
pub use error::{LangError, LANG_ERROR_CODE};
pub use lower::{lower, Lowered};
pub use parser::parse;
pub use srcmap::{Role, Site, SourceMap};
pub use token::{lex, AnnKind, Annotation, Lexed, Pos, TokKind, Token};
