//! Golden-file checks for the lint engine's JSON backend.
//!
//! Every protocol of the suite (and every open example, in its tracked
//! `n*` form) is linted and the JSON report compared byte-for-byte
//! against `tests/golden/lint/<name>.json`. Regenerate the goldens with
//!
//! ```text
//! NUSPI_BLESS=1 cargo test -q --test lint_golden
//! ```
//!
//! The same test asserts the stability contract directly: two runs are
//! byte-identical, and every semantic (`E...`) diagnostic carries a
//! non-empty witness trace whose steps name concrete rules.

use nuspi::diagnostics::{lint, to_json, Severity};
use nuspi::Policy;
use nuspi_protocols::{open_examples, suite};
use nuspi_security::{n_star, n_star_name};
use nuspi_syntax::{builder, Process, Value};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("lint")
}

fn bless() -> bool {
    std::env::var_os("NUSPI_BLESS").is_some()
}

/// Every linted case: the closed protocols, and the open examples in the
/// tracked form the §5 analyses use (`(νn*) P[n*/x]`, `n*` secret).
fn cases() -> Vec<(String, Process, Policy)> {
    let mut out = Vec::new();
    for spec in suite() {
        out.push((spec.name.to_owned(), spec.process, spec.policy));
    }
    for ex in open_examples() {
        let tracked = builder::restrict(
            n_star_name(),
            ex.process.subst(ex.var, &Value::name(n_star_name())),
        );
        let mut policy = ex.policy.clone();
        policy.add_secret(n_star());
        out.push((format!("open-{}", ex.name), tracked, policy));
    }
    out
}

fn check_case(name: &str, process: &Process, policy: &Policy) {
    let diags = lint(process, policy);

    // Witness contract: every semantic diagnostic explains itself with
    // concrete rules.
    for d in diags.iter().filter(|d| d.code.starts_with('E')) {
        assert!(
            !d.witness.is_empty(),
            "{name}: {} has an empty witness: {d:?}",
            d.code
        );
        for step in &d.witness {
            assert!(
                !step.rule.is_empty() && !step.detail.is_empty(),
                "{name}: witness step without a rule: {d:?}"
            );
        }
    }
    for d in diags.iter().filter(|d| d.severity == Severity::Error) {
        assert!(
            d.code.starts_with('E'),
            "{name}: error without E code: {d:?}"
        );
    }

    let json = to_json(&diags);

    // Stability: a second run must match byte-for-byte.
    assert_eq!(
        json,
        to_json(&lint(process, policy)),
        "{name}: lint output differs between two identical runs"
    );

    let path = golden_dir().join(format!("{name}.json"));
    if bless() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: missing golden file {} ({e}); run with NUSPI_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        json,
        expected,
        "{name}: lint JSON deviates from the golden file {}; \
         run with NUSPI_BLESS=1 to re-bless if intentional",
        path.display()
    );
}

#[test]
fn protocol_suite_matches_golden_diagnostics() {
    for (name, process, policy) in cases() {
        check_case(&name, &process, &policy);
    }
}

#[test]
fn no_stale_golden_files() {
    let live: std::collections::BTreeSet<String> = cases()
        .into_iter()
        .map(|(name, _, _)| format!("{name}.json"))
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

#[test]
fn flawed_protocols_lint_with_errors_and_honest_ones_without() {
    for spec in suite() {
        let diags = lint(&spec.process, &spec.policy);
        let has_errors = diags.iter().any(|d| d.severity == Severity::Error);
        assert_eq!(
            has_errors, !spec.expect_confined,
            "{}: expected confined={} but errors={} ({diags:?})",
            spec.name, spec.expect_confined, has_errors
        );
    }
}
