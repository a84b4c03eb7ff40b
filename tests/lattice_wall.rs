//! The conservative-extension wall.
//!
//! The graded security lattice is sold as a *conservative* extension: on
//! the two-point lattice with no `hide` binders, every verdict, lint
//! JSON byte, and serve transcript must be identical to the historical
//! binary secret/public partition. This suite proves it differentially
//! rather than asserting it:
//!
//! * every protocol of the suite and every tracked open example is
//!   linted twice — once under its shipped binary policy, once under an
//!   explicitly constructed `Policy::with_lattice(SecLattice::two_point())`
//!   twin — and the JSON must be byte-identical, and equal to the
//!   committed golden file;
//! * the `examples/lang/` ladder gets the same treatment through the
//!   frontend's derived policies;
//! * the serve transcript for the whole suite is byte-identical across
//!   worker counts (1 vs 4) and cache temperature (a cold engine vs the
//!   warm second pass of a doubled session).

use nuspi::diagnostics::{lint, to_json};
use nuspi::engine::jsonio::{escape, Json};
use nuspi::engine::{serve, AnalysisEngine, EngineConfig};
use nuspi::Policy;
use nuspi_protocols::{open_examples, suite};
use nuspi_security::{n_star, n_star_name, SecLattice};
use nuspi_syntax::{builder, Process, Value};
use std::path::PathBuf;

/// The two-point-lattice twin of a binary policy: the same secrets, but
/// declared over an explicitly constructed classical lattice instead of
/// the `Policy::with_secrets` default. The twin must stay ungraded —
/// that is the gate that keeps the historical code paths.
fn two_point_twin(policy: &Policy) -> Policy {
    let mut twin = Policy::with_lattice(SecLattice::two_point());
    let mut secrets: Vec<String> = policy.secrets().map(|s| s.as_str().to_owned()).collect();
    secrets.sort();
    for s in secrets {
        twin.add_secret(s.as_str());
    }
    assert!(
        !twin.is_graded(),
        "a two-point twin with bottom clearance must not count as graded"
    );
    twin
}

/// Every linted case, mirroring `tests/lint_golden.rs`: the closed
/// protocols plus the open examples in their tracked `n*` form.
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

fn lint_json(process: &Process, policy: &Policy) -> String {
    to_json(&lint(process, policy))
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("lint")
}

#[test]
fn suite_lint_json_is_byte_identical_under_the_explicit_two_point_lattice() {
    for (name, process, policy) in cases() {
        let twin = two_point_twin(&policy);
        let baseline = lint_json(&process, &policy);
        assert_eq!(
            baseline,
            lint_json(&process, &twin),
            "{name}: explicit two-point lattice diverges"
        );
        // And both agree with the committed golden bytes, so the wall is
        // anchored to the repository, not to this process's output.
        let path = golden_dir().join(format!("{name}.json"));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing golden file {} ({e})", path.display()));
        assert_eq!(baseline, golden, "{name}: lint JSON deviates from golden");
    }
}

/// The `examples/lang/` ladder, embedded so the wall always covers the
/// committed programs (same set the bench `lang` suite measures).
const LANG_LADDER: &[(&str, &str)] = &[
    ("01_hello", include_str!("../examples/lang/01_hello.nu")),
    (
        "02_channels",
        include_str!("../examples/lang/02_channels.nu"),
    ),
    (
        "03_channels_leak",
        include_str!("../examples/lang/03_channels_leak.nu"),
    ),
    (
        "04_functions",
        include_str!("../examples/lang/04_functions.nu"),
    ),
    (
        "05_functions_leak",
        include_str!("../examples/lang/05_functions_leak.nu"),
    ),
    ("06_cycle", include_str!("../examples/lang/06_cycle.nu")),
    (
        "07_cycle_leak",
        include_str!("../examples/lang/07_cycle_leak.nu"),
    ),
    ("08_secret", include_str!("../examples/lang/08_secret.nu")),
    (
        "09_secret_leak",
        include_str!("../examples/lang/09_secret_leak.nu"),
    ),
];

#[test]
fn lang_ladder_lint_json_is_byte_identical_under_the_explicit_two_point_lattice() {
    for (name, src) in LANG_LADDER {
        let compiled = nuspi_lang::compile(name, src)
            .unwrap_or_else(|e| panic!("{name}: ladder program failed to compile: {e:?}"));
        assert!(
            !compiled.policy.is_graded(),
            "{name}: the committed ladder is binary-labelled"
        );
        let twin = two_point_twin(&compiled.policy);
        assert_eq!(
            lint_json(&compiled.process, &compiled.policy),
            lint_json(&compiled.process, &twin),
            "{name}: explicit two-point lattice diverges"
        );
    }
}

/// One `lint` request line per closed protocol (same framing the serve
/// round-trip suite uses, minus the stats probe so transcripts compare
/// byte-for-byte).
fn wall_input() -> String {
    let mut lines = String::new();
    for spec in suite() {
        let mut secrets: Vec<String> = spec
            .policy
            .secrets()
            .map(|s| format!("\"{}\"", escape(s.as_str())))
            .collect();
        secrets.sort();
        lines.push_str(&format!(
            "{{\"id\":\"{}\",\"op\":\"lint\",\"process\":\"{}\",\"secrets\":[{}]}}\n",
            escape(spec.name),
            escape(&spec.source),
            secrets.join(",")
        ));
    }
    lines
}

fn run_session(jobs: usize, input: &str) -> Vec<String> {
    let engine = AnalysisEngine::new(EngineConfig {
        jobs,
        ..EngineConfig::default()
    });
    let mut out = Vec::new();
    serve(&engine, input.as_bytes(), &mut out).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn serve_transcripts_are_byte_identical_across_workers_and_cache_temperature() {
    let input = wall_input();
    let n = suite().len();

    // Cold engines, 1 and 4 workers.
    let cold_one = run_session(1, &input);
    let cold_four = run_session(4, &input);
    assert_eq!(cold_one.len(), n);
    assert_eq!(cold_one, cold_four, "worker count changed the transcript");

    // Warm pass: a doubled session answers the second half from the
    // cache; those answers must be the cold transcript, byte for byte.
    let doubled = format!("{input}{input}{{\"id\":\"meters\",\"op\":\"stats\"}}\n");
    for jobs in [1, 4] {
        let lines = run_session(jobs, &doubled);
        assert_eq!(lines.len(), 2 * n + 1);
        assert_eq!(
            &lines[..n],
            &cold_one[..],
            "cold half diverged ({jobs} jobs)"
        );
        assert_eq!(
            &lines[n..2 * n],
            &cold_one[..],
            "warm (cached) half diverged ({jobs} jobs)"
        );
        // Prove the warm half really came from the cache.
        let stats = Json::parse(lines.last().unwrap()).unwrap();
        let cache = stats.get("cache").expect("stats line has cache meters");
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(n as u64));
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(n as u64));
    }
}
