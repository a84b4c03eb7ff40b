//! Concurrency stress: large mixed batches — cacheable analyses,
//! injected worker panics, and nanosecond deadlines — across several
//! pool widths. The pool must never wedge, the engine's cache meters
//! must add up exactly, and a parallel batch must produce
//! byte-identical bodies to the same requests run serially on a
//! one-worker engine.

use nuspi_engine::{AnalysisEngine, Envelope, Request};
use std::time::Duration;

const N: usize = 240;

fn source(i: usize) -> String {
    // Eight distinct closed processes, so batches mix cache misses with
    // repeats that exercise the content-addressed cache.
    let k = i % 8;
    format!("(new m{k}) (new key{k}) (c<{{m{k}, new r}}:key{k}>.0 | c(x). case x of {{y}}:key{k} in d<y>.0)")
}

/// The deterministic part of the workload: analyses and injected
/// panics, no deadlines (deadline outcomes depend on scheduling).
fn deterministic_envelopes() -> Vec<Envelope> {
    (0..N)
        .map(|i| {
            let src = source(i);
            let secrets = [format!("m{}", i % 8)];
            let secrets: Vec<&str> = secrets.iter().map(String::as_str).collect();
            let req = match i % 8 {
                3 => Request::DebugPanic,
                0 | 4 => Request::audit(&src, &secrets),
                1 | 5 => Request::lint(&src, &secrets),
                _ => Request::solve(&src),
            };
            Envelope::from(req).with_id(format!("r{i}"))
        })
        .collect()
}

/// The full stress mix: the deterministic workload plus requests with
/// nanosecond deadlines (their responses are timing-dependent — either
/// the analysis body or a deadline error).
fn stress_envelopes() -> Vec<Envelope> {
    let mut out = deterministic_envelopes();
    for i in 0..N / 8 {
        out.push(
            Envelope::from(Request::solve(&source(i)))
                .with_id(format!("d{i}"))
                .with_deadline(Duration::from_nanos(1)),
        );
    }
    out
}

#[test]
fn mixed_batches_do_not_wedge_across_pool_widths() {
    for jobs in [1usize, 2, 8] {
        let engine = AnalysisEngine::with_jobs(jobs);
        // The batch looks every request up before any pooled job can
        // insert, so repeats within it may all miss. Answering one of its
        // repeated requests first makes a hit certain; the exact meters
        // below count that extra request.
        let primer = engine.submit(deterministic_envelopes().swap_remove(0));
        assert!(
            primer.is_ok() && !primer.cached,
            "jobs={jobs}: {}",
            primer.body
        );
        let envelopes = stress_envelopes();
        let total = envelopes.len();
        let panics = envelopes
            .iter()
            .filter(|e| matches!(e.request, Request::DebugPanic))
            .count() as u64;
        let deadlines = envelopes.iter().filter(|e| e.deadline.is_some()).count() as u64;

        let responses = engine.submit_batch(envelopes);
        assert_eq!(
            responses.len(),
            total,
            "jobs={jobs}: every request answered"
        );
        for r in &responses {
            let id = r.id.as_deref().unwrap_or("?");
            if let Some(num) = id.strip_prefix('r') {
                let i: usize = num.parse().unwrap();
                if i % 8 == 3 {
                    assert!(!r.is_ok(), "jobs={jobs}: panic job {id} must error");
                    assert!(r.body.contains("panicked"), "jobs={jobs}: {}", r.body);
                } else {
                    assert!(r.is_ok(), "jobs={jobs} {id}: {}", r.body);
                }
            } else {
                // Deadline request: either finished in time or expired.
                assert!(
                    r.is_ok() || r.body.contains("deadline exceeded"),
                    "jobs={jobs} {id}: {}",
                    r.body
                );
            }
        }

        // The meters add up exactly: one response per request, panics
        // all counted and uncacheable, and exactly one cache lookup per
        // cacheable request.
        let stats = engine.stats();
        let requests = total as u64 + 1; // the batch and the primer
        assert_eq!(stats.jobs, jobs);
        assert_eq!(stats.requests, requests, "jobs={jobs}");
        assert_eq!(stats.completed, requests, "jobs={jobs}");
        assert_eq!(stats.job_panics, panics, "jobs={jobs}");
        assert_eq!(stats.uncacheable, panics, "jobs={jobs}");
        assert_eq!(
            stats.cache.hits + stats.cache.misses,
            requests - panics,
            "jobs={jobs}: every cacheable request does exactly one lookup"
        );
        assert!(stats.deadline_expirations <= deadlines, "jobs={jobs}");
        assert!(stats.cache.hits > 0, "jobs={jobs}: repeats must hit");

        // No wedge: the pool still answers fresh work afterwards.
        let after = engine.submit(Request::solve("(new fresh) c<fresh>.0"));
        assert!(after.is_ok(), "jobs={jobs}: pool wedged: {}", after.body);
    }
}

#[test]
fn parallel_batch_is_byte_identical_to_serial() {
    let parallel = AnalysisEngine::with_jobs(8);
    let wide = parallel.submit_batch(deterministic_envelopes());

    let serial = AnalysisEngine::with_jobs(1);
    let narrow: Vec<_> = deterministic_envelopes()
        .into_iter()
        .map(|e| serial.submit(e))
        .collect();

    assert_eq!(wide.len(), narrow.len());
    for (w, n) in wide.iter().zip(&narrow) {
        assert_eq!(w.id, n.id);
        assert_eq!(
            w.body, n.body,
            "{:?}: an 8-worker batch and a serial run must render identical bodies",
            w.id
        );
    }
}

#[test]
fn repeated_batches_under_churn_stay_consistent() {
    // Re-submitting the same batch over and over on a small pool must
    // keep succeeding, with later rounds fully cache-served.
    let engine = AnalysisEngine::with_jobs(2);
    let mut last_entries = 0;
    for round in 0..4 {
        let responses = engine.submit_batch(deterministic_envelopes());
        assert_eq!(responses.len(), N, "round {round}");
        for r in responses {
            let cacheable = !r.body.contains("panicked");
            if round > 0 && cacheable {
                assert!(r.cached, "round {round} {:?} should be cache-served", r.id);
            }
        }
        let entries = engine.stats().cache_entries;
        if round > 0 {
            assert_eq!(entries, last_entries, "round {round}: no entry churn");
        }
        last_entries = entries;
    }
}
