//! Pins the exact `Display` text of νSPI parse errors.
//!
//! The text of a [`ParseError`] reaches users verbatim: `nuspi` prints it,
//! and every serve op that takes a process returns it in its error line.
//! The texts below were captured from the lexer that allocated a `String`
//! per identifier; the borrowing lexer must reproduce each of them byte
//! for byte, position, token rendering and all. The non-ASCII cases pin
//! a quirk worth keeping visible: the lexer names an unexpected
//! character by its first UTF-8 byte read as Latin-1 (`ζ` is reported
//! as `Î`).
//!
//! [`ParseError`]: nuspi_syntax::ParseError

use nuspi::engine::jsonio::{escape, Json};
use nuspi::engine::{answer_line, AnalysisEngine};
use nuspi_syntax::{parse_expr, parse_process};

/// Malformed processes and the error text `parse_process` reports.
const PROCESSES: &[(&str, &str)] = &[
    (
        "",
        "parse error at line 1, column 1: expected a process, found end of input",
    ),
    (
        "c<0>.",
        "parse error at line 1, column 6: expected a process, found end of input",
    ),
    (
        "@",
        "parse error at line 1, column 1: unexpected character `@`",
    ),
    (
        "c<0>.0 extra",
        "parse error at line 1, column 8: trailing input after process",
    ),
    (
        "c<0>?",
        "parse error at line 1, column 5: unexpected character `?`",
    ),
    (
        "c<0>.\n0 |\n  ?",
        "parse error at line 3, column 3: unexpected character `?`",
    ),
    (
        "c<0 .0",
        "parse error at line 1, column 5: expected `>`, found `.`",
    ),
    (
        "c(0).0",
        "parse error at line 1, column 3: expected identifier, found numeral `0`",
    ),
    (
        "c(x.0",
        "parse error at line 1, column 4: expected `)`, found `.`",
    ),
    (
        "(new 0) c<0>.0",
        "parse error at line 1, column 6: expected identifier, found numeral `0`",
    ),
    (
        "(new k c<k>.0",
        "parse error at line 1, column 8: expected `)`, found identifier `c`",
    ),
    (
        "[a b] 0",
        "parse error at line 1, column 4: expected `is`, found identifier `b`",
    ),
    (
        "let (x) = a in 0",
        "parse error at line 1, column 7: expected `,`, found `)`",
    ),
    (
        "let (x, y) a in 0",
        "parse error at line 1, column 12: expected `=`, found identifier `a`",
    ),
    (
        "case x of 1: 0",
        "parse error at line 1, column 11: expected `0:` or `{x,...}:` after `of`",
    ),
    (
        "case x of 0: 0, suc(y) 0",
        "parse error at line 1, column 24: expected `:`, found numeral `0`",
    ),
    (
        "case x of {y}:k 0",
        "parse error at line 1, column 17: expected `in`, found numeral `0`",
    ),
    (
        "c<{m, new}:k>.0",
        "parse error at line 1, column 10: expected identifier, found `}`",
    ),
    (
        "c<{m}k>.0",
        "parse error at line 1, column 6: expected `:`, found identifier `k`",
    ),
    (
        "c<99999999999>.0",
        "parse error at line 1, column 3: numeral too large",
    ),
    (
        "c<suc 0>.0",
        "parse error at line 1, column 7: expected `(`, found numeral `0`",
    ),
    (
        "c<(a b)>.0",
        "parse error at line 1, column 6: expected `,`, found identifier `b`",
    ),
    (
        "c d",
        "parse error at line 1, column 3: expected `<` (output) or `(` (input) after channel expression",
    ),
    (
        "c<>.0",
        "parse error at line 1, column 3: expected an expression, found `>`",
    ),
    (
        "\u{3b6}<a>.0",
        "parse error at line 1, column 1: unexpected character `\u{ce}`",
    ),
    (
        "c<a>.0 | ",
        "parse error at line 1, column 10: expected a process, found end of input",
    ),
    (
        "(c<a>.0",
        "parse error at line 1, column 8: expected `)`, found end of input",
    ),
    (
        "c<new>.0",
        "parse error at line 1, column 3: expected an expression, found `new`",
    ),
    (
        "!",
        "parse error at line 1, column 2: expected a process, found end of input",
    ),
    (
        "c<a>.0 )",
        "parse error at line 1, column 8: trailing input after process",
    ),
    (
        "case of",
        "parse error at line 1, column 6: expected an expression, found `of`",
    ),
    (
        "(hide) 0",
        "parse error at line 1, column 6: expected identifier, found `)`",
    ),
    (
        "-- comment\n c<",
        "parse error at line 2, column 4: expected an expression, found end of input",
    ),
    (
        "c<a>.0\r\n@",
        "parse error at line 2, column 1: unexpected character `@`",
    ),
    (
        "c<a>.0 | d<\u{1f980}>.0",
        "parse error at line 1, column 12: unexpected character `\u{f0}`",
    ),
    (
        "let (x, y) = a 0",
        "parse error at line 1, column 16: expected `in`, found numeral `0`",
    ),
    (
        "case x of 0: 0 suc(y): 0",
        "parse error at line 1, column 16: expected `,`, found `suc`",
    ),
    (
        "case x of 0: 0, y",
        "parse error at line 1, column 17: expected `suc`, found identifier `y`",
    ),
    (
        "case x of {y z}:k in 0",
        "parse error at line 1, column 14: expected `}`, found identifier `z`",
    ),
    (
        "[a is b 0",
        "parse error at line 1, column 9: expected `]`, found numeral `0`",
    ),
    (
        "(new k) (hide k) c<{k, new r}:k>.0 | c(x). case x of {y, z}:k in c<y>.",
        "parse error at line 1, column 71: expected a process, found end of input",
    ),
];

/// Terms past the depth cap (128 levels, a numeral counting its `suc`s)
/// and the error text `parse_process` reports.
fn over_cap_processes() -> Vec<(String, &'static str)> {
    vec![
        (
            format!("{}0", "c<a>.".repeat(128)),
            "parse error at line 1, column 636: nesting deeper than 128 levels",
        ),
        (
            format!("{}0{}", "(".repeat(128), ")".repeat(128)),
            "parse error at line 1, column 129: nesting deeper than 128 levels",
        ),
        (
            format!("c<{}a{}>.0", "(a, ".repeat(128), ")".repeat(128)),
            "parse error at line 1, column 508: nesting deeper than 128 levels",
        ),
        (
            format!("{}0", "!".repeat(128)),
            "parse error at line 1, column 129: nesting deeper than 128 levels",
        ),
        (
            "c<4294967295>.0".to_owned(),
            "parse error at line 1, column 3: numeral `4294967295` nests deeper than 128 levels",
        ),
        (
            "c<127>.0".to_owned(),
            "parse error at line 1, column 3: numeral `127` nests deeper than 128 levels",
        ),
        (
            "c<suc(126)>.0".to_owned(),
            "parse error at line 1, column 7: numeral `126` nests deeper than 128 levels",
        ),
    ]
}

/// Malformed expressions and the error text `parse_expr` reports.
const EXPRESSIONS: &[(&str, &str)] = &[
    (
        "(a,)",
        "parse error at line 1, column 4: expected an expression, found `)`",
    ),
    (
        "a b",
        "parse error at line 1, column 3: trailing input after expression",
    ),
    (
        "",
        "parse error at line 1, column 1: expected an expression, found end of input",
    ),
    (
        "{m, new r}",
        "parse error at line 1, column 11: expected `:`, found end of input",
    ),
    (
        "suc(",
        "parse error at line 1, column 5: expected an expression, found end of input",
    ),
    (
        "{m}:",
        "parse error at line 1, column 5: expected an expression, found end of input",
    ),
    (
        "\u{e9}",
        "parse error at line 1, column 1: unexpected character `\u{c3}`",
    ),
];

#[test]
fn process_parse_errors_keep_their_text() {
    assert!(PROCESSES.len() >= 20);
    for (src, want) in PROCESSES {
        let got = parse_process(src).expect_err(src).to_string();
        assert_eq!(got, *want, "{src:?}");
    }
}

#[test]
fn depth_cap_errors_keep_their_text() {
    for (src, want) in over_cap_processes() {
        let got = parse_process(&src).expect_err(&src).to_string();
        assert_eq!(got, want, "{src:?}");
    }
    let suc = format!("{}a{}", "suc(".repeat(128), ")".repeat(128));
    for (src, want) in [
        (
            suc.as_str(),
            "parse error at line 1, column 513: nesting deeper than 128 levels",
        ),
        (
            "128",
            "parse error at line 1, column 1: numeral `128` nests deeper than 128 levels",
        ),
    ] {
        assert_eq!(parse_expr(src).expect_err(src).to_string(), want, "{src:?}");
    }
    // One level shallower parses.
    parse_process("c<126>.0").unwrap();
    parse_expr("127").unwrap();
}

#[test]
fn expression_parse_errors_keep_their_text() {
    for (src, want) in EXPRESSIONS {
        let got = parse_expr(src).expect_err(src).to_string();
        assert_eq!(got, *want, "{src:?}");
    }
}

#[test]
fn serve_error_lines_carry_the_parse_error_text() {
    let engine = AnalysisEngine::with_jobs(1);
    let over_cap = over_cap_processes();
    let over_cap = over_cap.iter().map(|(src, want)| (src.as_str(), *want));
    for (src, want) in PROCESSES.iter().copied().chain(over_cap) {
        let line = format!("{{\"op\":\"solve\",\"process\":\"{}\"}}", escape(src));
        let responses = answer_line(&engine, &line);
        assert_eq!(responses.len(), 1, "{src:?}");
        let response = Json::parse(&responses[0].to_line()).unwrap();
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("error"),
            "{src:?}"
        );
        let error = response.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(want), "{src:?}: {error}");
    }
}
