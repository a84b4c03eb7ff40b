//! Adversarial input through the full serving path: every malformed,
//! truncated, overflowing, or absurdly deep request line must come back
//! as a single error line — the session keeps going and nothing panics.
//! The same corpus is also pushed through `Json::parse` directly so the
//! parser's own error reporting is covered without the protocol on top.

use nuspi_engine::jsonio::{escape, Json, MAX_DEPTH};
use nuspi_engine::{serve, AnalysisEngine};
use nuspi_syntax::MAX_DEPTH as TERM_DEPTH;

/// Runs a serve session over `input` and returns one output line per
/// input line.
fn session(input: &str) -> Vec<String> {
    let engine = AnalysisEngine::with_jobs(1);
    let mut out = Vec::new();
    serve(&engine, input.as_bytes(), &mut out).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect()
}

fn adversarial_lines() -> Vec<String> {
    let mut lines = vec![
        // Malformed documents.
        "{".to_owned(),
        "}".to_owned(),
        "[1,".to_owned(),
        "{\"op\":}".to_owned(),
        "{\"op\" \"solve\"}".to_owned(),
        "not json at all".to_owned(),
        "{\"op\":\"solve\"} trailing".to_owned(),
        "nul".to_owned(),
        // Unterminated strings.
        "\"never closed".to_owned(),
        "{\"op\":\"solve\",\"process\":\"0".to_owned(),
        "{\"op\":\"solve\",\"process\":\"0\\".to_owned(),
        // Broken unicode escapes.
        "{\"op\":\"solve\",\"process\":\"\\u12".to_owned(),
        "{\"op\":\"solve\",\"process\":\"\\uZZZZ\"}".to_owned(),
        "{\"op\":\"\\q\"}".to_owned(),
        // Numeric overflow and other unusable numbers.
        "{\"op\":\"solve\",\"process\":\"0\",\"depth\":1e999}".to_owned(),
        "{\"op\":\"solve\",\"process\":\"0\",\"depth\":18446744073709551616}".to_owned(),
        "{\"op\":\"solve\",\"process\":\"0\",\"depth\":-3}".to_owned(),
        "{\"op\":\"solve\",\"process\":\"0\",\"depth\":2.5}".to_owned(),
        "{\"op\":\"solve\",\"process\":\"0\",\"deadline_ms\":1e400}".to_owned(),
        // Structurally valid but not a request object.
        "[]".to_owned(),
        "42".to_owned(),
        "\"solve\"".to_owned(),
        "{\"op\":\"no-such-op\"}".to_owned(),
        // A high surrogate followed by a `\u` escape that is no low half:
        // decodes to U+FFFD then `A`, which is not a process.
        "{\"op\":\"solve\",\"process\":\"\\ud800\\u0041\"}".to_owned(),
    ];
    // Nesting far past the parser's cap, in every container shape.
    lines.push(format!(
        "{}{}",
        "[".repeat(MAX_DEPTH + 10),
        "]".repeat(MAX_DEPTH + 10)
    ));
    lines.push("[".repeat(50_000));
    lines.push(format!("{}0", "{\"a\":".repeat(MAX_DEPTH + 10)));
    // An oversized line: a `solve` whose 1 MB+ process string (multi-byte
    // text and escapes throughout) does not parse. Decoding it is linear.
    let junk = "(new k) c<{m, new r}:k>.0 | \u{e9}\\t\\\"\u{1f980} ".repeat(1 << 15);
    assert!(junk.len() >= 1 << 20);
    lines.push(format!("{{\"op\":\"solve\",\"process\":\"{junk}\"}}"));
    // Terms nested far past the νSPI parser's depth cap: each used to
    // recurse once per level on the thread that read the line.
    for process in over_cap_processes() {
        lines.push(format!(
            "{{\"op\":\"solve\",\"process\":\"{}\"}}",
            escape(&process)
        ));
    }
    lines
}

/// A deep prefix, deep grouping, deep pairs and the largest numeral
/// (4,294,967,295 nested `suc`s), each past the νSPI term-depth cap.
fn over_cap_processes() -> Vec<String> {
    let n = 6_000;
    vec![
        format!("{}0", "c<a>.".repeat(n)),
        format!("{}0{}", "(".repeat(n), ")".repeat(n)),
        format!("c<{}a{}>.0", "(a, ".repeat(n), ")".repeat(n)),
        "c<4294967295>.0".to_owned(),
    ]
}

/// One line per op that takes a νSPI process, each carrying `process`.
fn every_process_op(process: &str) -> Vec<String> {
    let p = escape(process);
    vec![
        format!("{{\"op\":\"solve\",\"process\":\"{p}\"}}"),
        format!("{{\"op\":\"solve\",\"process\":\"{p}\",\"attacker\":true}}"),
        format!("{{\"op\":\"lint\",\"process\":\"{p}\",\"secrets\":[\"a\"]}}"),
        format!("{{\"op\":\"audit\",\"process\":\"{p}\",\"secrets\":[\"a\"]}}"),
        format!("{{\"op\":\"reveals\",\"process\":\"{p}\",\"secret\":\"a\"}}"),
        format!("{{\"op\":\"equiv\",\"left\":\"{p}\",\"right\":\"c<b>.0\"}}"),
        format!("{{\"op\":\"equiv\",\"left\":\"c<b>.0\",\"right\":\"{p}\"}}"),
    ]
}

#[test]
fn a_term_at_the_depth_cap_is_answered_by_every_op() {
    let at_cap = [
        format!("{}0", "c<a>.".repeat(TERM_DEPTH - 1)),
        format!(
            "c<{}a{}>.0",
            "(a, ".repeat(TERM_DEPTH - 2),
            ")".repeat(TERM_DEPTH - 2)
        ),
        format!("c<{}>.0", TERM_DEPTH - 2),
    ];
    for process in &at_cap {
        let lines = every_process_op(process);
        let out = session(&(lines.join("\n") + "\n"));
        assert_eq!(out.len(), lines.len());
        for (req, resp) in lines.iter().zip(&out) {
            let short: String = req.chars().take(60).collect();
            assert!(resp.contains("\"status\":\"ok\""), "{short}: {resp}");
        }
    }
}

#[test]
fn one_level_past_the_cap_is_a_parse_error_for_every_op() {
    let past = [
        format!("{}0", "c<a>.".repeat(TERM_DEPTH)),
        format!("c<{}>.0", TERM_DEPTH - 1),
    ];
    for process in &past {
        let lines = every_process_op(process);
        let out = session(&(lines.join("\n") + "\n"));
        assert_eq!(out.len(), lines.len());
        for (req, resp) in lines.iter().zip(&out) {
            let short: String = req.chars().take(60).collect();
            assert!(resp.contains("\"status\":\"error\""), "{short}: {resp}");
            assert!(resp.contains("deeper than 128 levels"), "{short}: {resp}");
        }
    }
}

#[test]
fn every_adversarial_line_yields_exactly_one_error_line() {
    let lines = adversarial_lines();
    let input = lines.join("\n") + "\n";
    let out = session(&input);
    assert_eq!(
        out.len(),
        lines.len(),
        "one response line per request line, none dropped"
    );
    for (req, resp) in lines.iter().zip(&out) {
        let short: String = req.chars().take(40).collect();
        assert!(
            resp.contains("\"status\":\"error\""),
            "{short}: expected an error line, got {resp}"
        );
        // Error lines are themselves well-formed JSON objects.
        let v = Json::parse(resp).unwrap_or_else(|e| panic!("{short}: bad error line {resp}: {e}"));
        assert!(
            v.get("error").and_then(Json::as_str).is_some(),
            "{short}: {resp}"
        );
    }
}

#[test]
fn the_session_recovers_after_every_adversarial_line() {
    // Interleave garbage with real work: the good requests must still
    // be answered normally.
    let mut input = String::new();
    for bad in adversarial_lines() {
        input.push_str(&bad);
        input.push('\n');
        input.push_str("{\"op\":\"solve\",\"process\":\"(new n) c<n>.0\"}\n");
    }
    let out = session(&input);
    assert_eq!(out.len(), adversarial_lines().len() * 2);
    for pair in out.chunks(2) {
        assert!(pair[0].contains("\"status\":\"error\""), "{}", pair[0]);
        assert!(pair[1].contains("\"status\":\"ok\""), "{}", pair[1]);
    }
}

#[test]
fn parser_reports_errors_without_panicking_on_the_corpus() {
    for line in adversarial_lines() {
        let short: String = line.chars().take(40).collect();
        match Json::parse(&line) {
            // Structurally valid lines may parse; the protocol layer
            // rejects them later.
            Ok(_) => {}
            Err(e) => assert!(!e.is_empty(), "{short}: empty error message"),
        }
    }
}

#[test]
fn depth_cap_is_tight() {
    // MAX_DEPTH nested arrays parse; one more level is rejected.
    let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Json::parse(&ok).is_ok());
    let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    let err = Json::parse(&too_deep).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");
    // Mixed shapes hit the same cap.
    let mixed = format!("{}1", "{\"k\":[".repeat(MAX_DEPTH));
    assert!(Json::parse(&mixed).is_err());
}

#[test]
fn overflowing_numbers_parse_but_never_become_integers() {
    let v = Json::parse("1e999").unwrap();
    assert_eq!(v.as_u64(), None, "infinite numbers are not integers");
    assert_eq!(v.as_f64(), None, "as_f64 only returns finite numbers");
    let v = Json::parse("18446744073709551616").unwrap(); // u64::MAX + 1
    assert_eq!(v.as_u64(), None, "u64 overflow is rejected");
    let v = Json::parse("-1e999").unwrap();
    assert_eq!(v.as_f64(), None);
}

#[test]
fn unicode_escape_edge_cases() {
    // Lone high surrogate without a low half: replacement character.
    assert_eq!(
        Json::parse("\"\\ud83e\"").unwrap().as_str(),
        Some("\u{fffd}")
    );
    // A full surrogate pair decodes to the astral scalar.
    assert_eq!(
        Json::parse("\"\\ud83e\\udd80\"").unwrap().as_str(),
        Some("🦀")
    );
    // A high surrogate followed by a `\u` escape that is not a low half:
    // U+FFFD for the unpaired half, then the second escape decoded on its
    // own, as `String::from_utf16_lossy` decodes the same code units.
    assert_eq!(
        Json::parse("\"\\ud800\\u0041\"").unwrap().as_str(),
        Some("\u{fffd}A")
    );
    assert_eq!(
        Json::parse("\"\\udbff\\ud800\"").unwrap().as_str(),
        Some("\u{fffd}\u{fffd}")
    );
    assert_eq!(
        Json::parse("\"\\ud800\\ud83e\\udd80\"").unwrap().as_str(),
        Some("\u{fffd}🦀")
    );
    // Truncated escapes are errors, not panics.
    for bad in [
        "\"\\u",
        "\"\\u1",
        "\"\\u123",
        "\"\\ud83e\\u12",
        "\"\\uqqqq\"",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
    }
}
