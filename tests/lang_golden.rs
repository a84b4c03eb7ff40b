//! Golden-file checks for the annotated-source frontend.
//!
//! Every program on the `examples/lang/` ladder is compiled and checked
//! and its pretty JSON report compared byte-for-byte against
//! `tests/golden/lang/<stem>.json`. Regenerate the goldens with
//!
//! ```text
//! NUSPI_BLESS=1 cargo test -q --test lang_golden
//! ```
//!
//! The same suite asserts the frontend's stability contract directly:
//! the verdict matches the `// expect:` header committed in each
//! program, two runs are byte-identical, every insecure rung anchors a
//! witness to the exact file:line:column of both the labeled origin and the
//! violating sink, resubmitting a formatting-only edit that keeps every
//! declaration in place is an engine cache hit, and an edit that moves
//! declarations to other lines misses and is re-anchored. The engine's
//! body equals the one `check` renders, on the ladder and on a program
//! large enough for the wide-stack lint thread.

use nuspi::engine::{AnalysisEngine, Request};
use nuspi::lang::{check, check_to_json, check_to_json_compact, compile, Verdict};
use nuspi::Severity;
use std::path::PathBuf;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn golden_dir() -> PathBuf {
    manifest_dir().join("tests").join("golden").join("lang")
}

fn bless() -> bool {
    std::env::var_os("NUSPI_BLESS").is_some()
}

/// Every ladder program: `(stem, relative file name, source, expected verdict)`.
/// The relative name goes into the report (and the golden file) so the
/// JSON is machine-independent.
fn ladder() -> Vec<(String, String, String, Verdict)> {
    let dir = manifest_dir().join("examples").join("lang");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("examples/lang/ missing") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("nu") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_str().unwrap().to_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        let expect = match src
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("// expect: "))
        {
            Some("secure") => Verdict::Secure,
            Some("insecure") => Verdict::Insecure,
            other => panic!("{stem}: bad `// expect:` header {other:?}"),
        };
        let rel = format!("examples/lang/{stem}.nu");
        out.push((stem, rel, src, expect));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(out.len() >= 8, "ladder too short: {} programs", out.len());
    out
}

#[test]
fn ladder_matches_expected_verdicts_and_goldens() {
    for (stem, rel, src, expect) in ladder() {
        let report = check(&rel, &src);
        assert_eq!(report.verdict, expect, "{stem}: wrong verdict");

        if expect == Verdict::Insecure {
            // Witness anchoring contract: some diagnostic names the
            // exact declaration site of both the labeled origin and the
            // violating sink.
            let anchored = report
                .diags
                .iter()
                .find(|d| d.origin.is_some() && d.sink.is_some())
                .unwrap_or_else(|| panic!("{stem}: no diagnostic with both anchors"));
            let o = anchored.origin.as_ref().unwrap();
            let s = anchored.sink.as_ref().unwrap();
            assert!(o.line > 0 && o.col > 0, "{stem}: origin unanchored {o:?}");
            assert!(s.line > 0 && s.col > 0, "{stem}: sink unanchored {s:?}");
            assert!(
                anchored
                    .message
                    .contains(&format!("{rel}:{}:{}", o.line, o.col)),
                "{stem}: message misses origin site: {}",
                anchored.message
            );
            assert!(
                anchored
                    .message
                    .contains(&format!("{rel}:{}:{}", s.line, s.col)),
                "{stem}: message misses sink site: {}",
                anchored.message
            );
        }

        let json = check_to_json(&report);
        assert_eq!(
            json,
            check_to_json(&check(&rel, &src)),
            "{stem}: output differs between two identical runs"
        );

        let path = golden_dir().join(format!("{stem}.json"));
        if bless() {
            std::fs::create_dir_all(golden_dir()).unwrap();
            std::fs::write(&path, &json).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{stem}: missing golden file {} ({e}); run with NUSPI_BLESS=1 to create it",
                path.display()
            )
        });
        assert_eq!(
            json,
            expected,
            "{stem}: check JSON deviates from the golden file {}; \
             run with NUSPI_BLESS=1 to re-bless if intentional",
            path.display()
        );
    }
}

#[test]
fn no_stale_golden_files() {
    let live: std::collections::BTreeSet<String> = ladder()
        .into_iter()
        .map(|(stem, _, _, _)| format!("{stem}.json"))
        .collect();
    let Ok(entries) = std::fs::read_dir(golden_dir()) else {
        return; // nothing blessed yet (fresh checkout mid-bless)
    };
    for entry in entries {
        let file = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            live.contains(&file),
            "stale golden file {file}: no case produces it any more"
        );
    }
}

/// Reformats a program without touching its token sequence *or* any
/// token's line/column: every line gains trailing blanks and a comment
/// banner is appended at the end. The lowered process is α-identical
/// (minted names derive from declaration order) and every declaration
/// site stays put, so the engine must serve the cached body.
fn reformat_in_place(src: &str) -> String {
    let mut out = String::new();
    for line in src.lines() {
        out.push_str(line);
        out.push_str("  \n");
    }
    out.push_str("\n// reformatted copy; must still hit the cache\n");
    out
}

/// Reformats a program by prepending a two-line banner: the token
/// sequence (and hence the lowered α-digest) is unchanged, but every
/// declaration moves down two lines — the report's anchors must move
/// with it, so the engine must NOT serve the cached body.
fn reformat_shifting_lines(src: &str) -> String {
    format!("// shifted copy; anchors move, so the cache must miss\n\n{src}")
}

/// A program that lowers past the 128 statements above which the lint
/// runs on a wide-stack thread: a few hundred sends, then the labeled
/// token reaches the sink.
fn wide_program() -> (String, String, String, Verdict) {
    let src = format!(
        "func main() {{\n//nuspi::sink::{{}}\nout := make(chan)\n\
         //nuspi::label::{{high}}\ntoken := 7\n{}out <- token\n}}\n",
        "out <- 0\n".repeat(300)
    );
    let stmts = compile("wide.nu", &src).unwrap().stmts;
    assert!(stmts > 128, "only {stmts} statements: not the wide path");
    ("wide".into(), "wide.nu".into(), src, Verdict::Insecure)
}

#[test]
fn engine_analyze_source_caches_on_the_lowered_digest() {
    let engine = AnalysisEngine::with_jobs(2);
    for (stem, rel, src, expect) in ladder().into_iter().chain([wide_program()]) {
        let cold = engine.submit(Request::AnalyzeSource {
            file: rel.clone(),
            source: src.clone(),
        });
        assert!(cold.is_ok(), "{stem}: {}", cold.body);
        assert!(!cold.cached, "{stem}: cold submission already cached");

        // The engine compiles once and lints what it compiled; its body
        // is the one `check` renders from the source.
        let report = check(&rel, &src);
        let errors = report
            .diags
            .iter()
            .filter(|d| d.diag.severity == Severity::Error)
            .count();
        let expected = format!(
            "\"op\":\"analyze_source\",\"status\":\"ok\",\"file\":\"{rel}\",\
             \"verdict\":\"{}\",\"errors\":{errors},\"report\":{}",
            report.verdict.as_str(),
            check_to_json_compact(&report)
        );
        assert_eq!(
            *cold.body, expected,
            "{stem}: engine body differs from check"
        );

        // Identical resubmission: warm hit, byte-identical body.
        let warm = engine.submit(Request::AnalyzeSource {
            file: rel.clone(),
            source: src.clone(),
        });
        assert!(warm.cached, "{stem}: identical resubmission missed");
        assert_eq!(cold.body, warm.body, "{stem}: warm body differs");

        // A formatting-only edit that keeps every declaration in place
        // lowers to the same α-digest and the same source map, so it is
        // a cache hit too.
        let reformatted = engine.submit(Request::AnalyzeSource {
            file: rel.clone(),
            source: reformat_in_place(&src),
        });
        assert!(reformatted.cached, "{stem}: reformatted source missed");
        assert_eq!(cold.body, reformatted.body, "{stem}: reformat body differs");

        // A reformat that moves declarations to other lines must NOT be
        // served the cached body: its anchors would point at the wrong
        // lines of the new file. Same α-digest, different source map ⇒
        // different key, freshly anchored report.
        let shifted = engine.submit(Request::AnalyzeSource {
            file: rel.clone(),
            source: reformat_shifting_lines(&src),
        });
        assert!(
            !shifted.cached,
            "{stem}: line-shifting reformat served a stale cached body"
        );
        if expect == Verdict::Insecure {
            assert_ne!(
                cold.body, shifted.body,
                "{stem}: shifted anchors should change the report"
            );
            let moved = check(&rel, &reformat_shifting_lines(&src));
            let anchored = moved
                .diags
                .iter()
                .find(|d| d.origin.is_some())
                .expect("anchored diagnostic");
            let o = anchored.origin.as_ref().unwrap();
            assert!(
                shifted
                    .body
                    .contains(&format!("{rel}:{}:{}", o.line, o.col)),
                "{stem}: shifted body not re-anchored: {}",
                shifted.body
            );
        }
    }
}

#[test]
fn engine_analyze_source_compile_errors_are_uncacheable_errors() {
    let engine = AnalysisEngine::with_jobs(1);
    let req = Request::analyze_source("broken.nu", "func main( {");
    let a = engine.submit(req.clone());
    assert!(!a.is_ok(), "{}", a.body);
    assert!(a.body.contains("broken.nu:1:12"), "{}", a.body);
    let b = engine.submit(req);
    assert!(!b.cached, "error bodies must not be cached");
}
