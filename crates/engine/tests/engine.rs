//! End-to-end engine tests over the full protocol suite: the 21 closed
//! protocols plus the 4 open examples in their tracked `(νn*) P[n*/x]`
//! form — the same 25 cases the lint goldens pin down.
//!
//! The contracts under test are the ones `nuspi serve` sells:
//!
//! * a batch is byte-identical to serial submission, on one worker or
//!   four, cold or warm (response bodies are pure functions of the
//!   request);
//! * repeats — including α-renamed resubmissions — are answered from
//!   the content-addressed cache, and three rounds of the suite reach
//!   at least a 2/3 hit rate;
//! * eviction under a tight byte budget is deterministic (two engines
//!   replaying the same request sequence agree on every hit and miss);
//! * a panicking job is converted to an error response without wedging
//!   the pool.

use nuspi_engine::{AnalysisEngine, EngineConfig, ProcessInput, Request, Response};
use nuspi_protocols::{open_examples, suite};
use nuspi_security::{n_star, n_star_name};
use nuspi_syntax::{builder, parse_process, Process, Value};

/// The 25-case request list: a lint over every suite case. Closed
/// protocols go in as source text; the tracked open examples only exist
/// as ASTs, so they go in parsed. Both run on the pool.
fn suite_requests() -> Vec<Request> {
    let mut out = Vec::new();
    for spec in suite() {
        let mut secrets: Vec<String> = spec
            .policy
            .secrets()
            .map(|s| s.as_str().to_owned())
            .collect();
        secrets.sort();
        out.push(Request::Lint {
            process: ProcessInput::Source(spec.source.clone()),
            secrets,
        });
    }
    for ex in open_examples() {
        let tracked = builder::restrict(
            n_star_name(),
            ex.process.subst(ex.var, &Value::name(n_star_name())),
        );
        let mut policy = ex.policy.clone();
        policy.add_secret(n_star());
        let mut secrets: Vec<String> = policy.secrets().map(|s| s.as_str().to_owned()).collect();
        secrets.sort();
        out.push(Request::Lint {
            process: ProcessInput::Parsed(tracked),
            secrets,
        });
    }
    assert_eq!(out.len(), 25, "the suite grew; update the tests");
    out
}

fn lines(responses: &[Response]) -> Vec<String> {
    responses.iter().map(Response::to_line).collect()
}

#[test]
fn batch_matches_serial_byte_for_byte_across_jobs_1_and_4() {
    let requests = suite_requests();

    // Serial on one worker, cold cache.
    let serial_engine = AnalysisEngine::with_jobs(1);
    let serial: Vec<Response> = requests
        .iter()
        .map(|r| serial_engine.submit(r.clone()))
        .collect();

    // One batch on four workers, cold cache.
    let batch_engine = AnalysisEngine::with_jobs(4);
    let batch = batch_engine.submit_requests(requests.clone());

    assert_eq!(lines(&serial), lines(&batch));
    for r in serial.iter().chain(&batch) {
        assert!(r.is_ok(), "{}", r.body);
    }
}

#[test]
fn three_repeated_batches_reach_the_hit_rate_target() {
    let requests = suite_requests();
    let engine = AnalysisEngine::with_jobs(4);

    let first = engine.submit_requests(requests.clone());
    for round in 0..2 {
        let again = engine.submit_requests(requests.clone());
        assert_eq!(lines(&first), lines(&again), "round {round}");
        assert!(
            again.iter().all(|r| r.cached),
            "round {round}: every repeat must be a cache hit"
        );
    }

    let stats = engine.stats();
    assert_eq!(stats.requests, 75);
    assert_eq!(stats.cache.misses, 25);
    assert_eq!(stats.cache.hits, 50);
    assert!(
        stats.hit_rate() >= 0.6,
        "hit rate {} below the 60% target",
        stats.hit_rate()
    );
}

#[test]
fn alpha_renamed_resubmission_hits_the_cache() {
    // Disciplined α-conversion: freshen the binder's runtime index (the
    // executor's own renaming) and resubmit. Same canonical class, so
    // the content-addressed key — and the cached body — are shared.
    let p = parse_process("(new k) (new m) c<{m, new r}:k>.0").unwrap();
    let Process::Restrict { name, body } = &p else {
        panic!("expected a restriction at the root")
    };
    let fresh = name.freshen();
    let renamed = Process::Restrict {
        name: fresh,
        body: Box::new(body.rename_name(*name, fresh)),
    };
    assert_ne!(p, renamed, "the renaming must actually change the AST");

    let engine = AnalysisEngine::with_jobs(2);
    let secrets = vec!["k".to_owned(), "m".to_owned()];
    let first = engine.submit(Request::Audit {
        process: ProcessInput::Parsed(p),
        secrets: secrets.clone(),
    });
    assert!(first.is_ok(), "{}", first.body);
    assert!(!first.cached);

    let second = engine.submit(Request::Audit {
        process: ProcessInput::Parsed(renamed),
        secrets,
    });
    assert!(second.cached, "α-renamed resubmission must hit");
    assert_eq!(first.body, second.body);
}

#[test]
fn lru_eviction_is_deterministic_under_a_tight_byte_budget() {
    // Distinct single-output processes: small bodies of similar size.
    let sources: Vec<String> = (0..6).map(|i| format!("chan{i}<n>.0")).collect();
    let solve = |src: &String| Request::solve(src);

    // Size the budget from a probe body so it holds roughly two entries.
    let probe = AnalysisEngine::with_jobs(1).submit(solve(&sources[0]));
    let budget = 2 * (probe.body.len() + nuspi_engine::ENTRY_OVERHEAD) + 8;

    let replay = || {
        let engine = AnalysisEngine::new(EngineConfig {
            jobs: 1,
            cache_bytes: budget,
            ..EngineConfig::default()
        });
        // Fill past the budget, then revisit everything oldest-first.
        let mut hits = Vec::new();
        for src in sources.iter().chain(sources.iter()) {
            hits.push(engine.submit(solve(src)).cached);
        }
        (hits, engine.stats())
    };

    let (hits_a, stats_a) = replay();
    let (hits_b, stats_b) = replay();

    assert_eq!(hits_a, hits_b, "replays must agree on every hit and miss");
    assert_eq!(stats_a.cache.evictions, stats_b.cache.evictions);
    assert_eq!(stats_a.cache.hits, stats_b.cache.hits);
    assert!(
        stats_a.cache.evictions > 0,
        "the budget must actually force evictions: {stats_a:?}"
    );
    // The first pass inserts 6 distinct entries into a ~2-entry cache,
    // so the oldest are gone by the second pass: some misses repeat.
    assert!(
        stats_a.cache.misses > 6,
        "revisiting evicted entries must miss: {stats_a:?}"
    );
    assert!(stats_a.cache_bytes <= budget, "{stats_a:?}");
}

#[test]
fn panicking_job_does_not_wedge_the_pool() {
    let engine = AnalysisEngine::with_jobs(2);
    let poisoned = engine.submit(Request::DebugPanic);
    assert!(
        poisoned.body.contains("analysis panicked"),
        "{}",
        poisoned.body
    );

    // The pool still drains a full batch afterwards.
    let responses = engine.submit_requests(suite_requests());
    assert!(responses.iter().all(Response::is_ok));
    assert_eq!(engine.stats().job_panics, 1);
}
