//! Differential testing of the solver.
//!
//! The worklist solver ([`solve`]) must compute exactly the same
//! estimate `(ρ, κ, ζ)` as the deliberately naive round-robin reference
//! ([`solve_reference`]) on every input: the protocol suite plus
//! hundreds of seeded random processes. On flat processes, leastness is
//! additionally re-checked against the finite-set saturation oracle and
//! the Moore-family meet (Theorem 2). Batch-level parallelism goes
//! through the engine's worker pool, whose answers must match the
//! one-at-a-time solves.

use nuspi::cfa::{solve, solve_reference, Constraints, FiniteEstimate};
use nuspi::engine::jsonio::Json;
use nuspi::engine::{AnalysisEngine, Request};
use nuspi_bench::flatref::{concretize_flat, random_flat_process, saturate_flat};
use nuspi_bench::genproc::{random_process, GenConfig};
use nuspi_bench::testkit::{check, ensure, shrink_u64};
use nuspi_bench::theorems::check_moore_meet;
use nuspi_protocols::suite;
use nuspi_semantics::rng::Rng as _;
use nuspi_syntax::{Process, Symbol, Value};

/// Solves one labelled process with both solvers and checks semantic
/// equality of the results.
fn assert_solvers_agree(p: &Process, ctx: &str) {
    let seq = solve(Constraints::generate(p));
    let refr = solve_reference(Constraints::generate(p));
    seq.estimate_eq(&refr)
        .unwrap_or_else(|e| panic!("{ctx}: sequential vs reference: {e}"));
}

#[test]
fn property_solve_matches_reference() {
    // The testkit variant of the differential wall: 200 fresh seeds per
    // run (shift the stream with NUSPI_TESTKIT_SEED), shrinking a
    // failing seed toward a small reproducer.
    check(
        "solve-equals-reference",
        200,
        |rng| rng.next_u64() % 100_000,
        shrink_u64,
        |seed| {
            let p = random_process(*seed, &GenConfig::default());
            let refr = solve_reference(Constraints::generate(&p));
            let seq = solve(Constraints::generate(&p));
            ensure(refr.estimate_eq(&seq).is_ok(), || {
                format!(
                    "seed {seed}: solve disagrees with the reference: {}",
                    refr.estimate_eq(&seq).unwrap_err()
                )
            })
        },
    );
}

#[test]
fn solvers_agree_on_random_processes() {
    let cfg = GenConfig::default();
    for seed in 0..200u64 {
        let p = random_process(seed, &cfg);
        assert_solvers_agree(&p, &format!("seed {seed}"));
    }
}

#[test]
fn solvers_agree_on_larger_random_processes() {
    let cfg = GenConfig {
        components: 6,
        max_prefixes: 4,
        channels: 4,
        keys: 3,
        restrict_pct: 40,
    };
    for seed in 0..40u64 {
        let p = random_process(seed, &cfg);
        assert_solvers_agree(&p, &format!("large seed {seed}"));
    }
}

#[test]
fn solvers_agree_on_the_protocol_suite() {
    for spec in suite() {
        assert_solvers_agree(&spec.process, spec.name);
    }
}

#[test]
fn suite_batch_api_agrees_with_sequential_solves() {
    // The suite as one engine batch on a four-worker pool: every
    // rendered estimate must match a one-at-a-time sequential solve.
    let specs = suite();
    let engine = AnalysisEngine::with_jobs(4);
    let responses =
        engine.submit_requests(specs.iter().map(|s| Request::solve(&s.source)).collect());
    for (spec, r) in specs.iter().zip(&responses) {
        let body = Json::parse(&r.to_line()).unwrap();
        let estimate = body.get("estimate").and_then(Json::as_str);
        let solo = solve(Constraints::generate(&spec.process));
        assert_eq!(
            estimate,
            Some(solo.render_estimate_for(&spec.process, 3).as_str()),
            "{}: batch vs solo",
            spec.name
        );
    }
}

#[test]
fn solution_is_least_on_flat_processes() {
    // Flat processes admit finite estimates, so leastness can be checked
    // exactly: the solution must equal the naive finite saturation, sit
    // below padded acceptable estimates, and the padded estimates must
    // satisfy the Moore-family meet property.
    for seed in 0..60u64 {
        let p = random_flat_process(seed);
        let sol = solve(Constraints::generate(&p));
        let least = concretize_flat(&sol);
        assert!(least.accepts(&p), "seed {seed}: {:?}", least.verify(&p));

        let reference = saturate_flat(&p, &FiniteEstimate::new());
        assert!(
            least.leq(&reference) && reference.leq(&least),
            "seed {seed}: solution ≠ flat saturation"
        );

        let mut pad1 = FiniteEstimate::new();
        pad1.add_kappa(Symbol::intern("ch0"), Value::name("junkA"));
        let mut pad2 = FiniteEstimate::new();
        pad2.add_kappa(Symbol::intern("ch1"), Value::name("junkB"));
        let e1 = saturate_flat(&p, &pad1);
        let e2 = saturate_flat(&p, &pad2);
        check_moore_meet(&p, &e1, &e2).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            least.leq(&e1) && least.leq(&e2),
            "seed {seed}: least solution must sit below every acceptable estimate"
        );
    }
}
