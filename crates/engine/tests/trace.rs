//! Trace validation: with the recorder on, a solve request produces a
//! JSON-lines trace that matches the documented schema and whose spans
//! nest (`cfa.solve` under `engine.exec`, rounds under the solve);
//! with the recorder off, serve output is byte-identical to a traced
//! session's. This binary owns the process-global recorder — every test
//! takes `RECORDER_LOCK` so they never race it.

use nuspi_engine::jsonio::Json;
use nuspi_engine::{serve, AnalysisEngine, EngineConfig, Request};
use nuspi_equiv::EquivConfig;
use std::sync::Mutex;

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

const SRC: &str = "(new k) (new m) c<{m, new r}:k>.0";

fn ancestors(spans: &[nuspi_obs::SpanRecord], mut id: Option<u64>) -> Vec<u64> {
    let mut chain = Vec::new();
    while let Some(cur) = id {
        chain.push(cur);
        id = spans.iter().find(|s| s.id == cur).and_then(|s| s.parent);
        assert!(chain.len() <= spans.len(), "parent cycle in trace");
    }
    chain
}

#[test]
fn traced_solve_request_has_nested_schema_valid_spans() {
    let _g = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    nuspi_obs::reset();
    nuspi_obs::enable();
    let engine = AnalysisEngine::with_jobs(2);
    let response = engine.submit(Request::solve(SRC));
    assert!(response.is_ok(), "{}", response.body);
    nuspi_obs::disable();

    let spans = nuspi_obs::spans();
    let exec = spans
        .iter()
        .find(|s| s.name == "engine.exec")
        .expect("worker execution span");
    let solve = spans
        .iter()
        .find(|s| s.name == "cfa.solve")
        .expect("solver span");
    let generate = spans
        .iter()
        .find(|s| s.name == "cfa.generate")
        .expect("constraint-generation span");

    // The solver and the generator both ran inside the worker's exec
    // span, on the worker thread.
    assert!(
        ancestors(&spans, solve.parent).contains(&exec.id),
        "cfa.solve must nest under engine.exec: {spans:?}"
    );
    assert!(
        ancestors(&spans, generate.parent).contains(&exec.id),
        "cfa.generate must nest under engine.exec"
    );
    assert_eq!(solve.thread, exec.thread, "same worker thread");
    assert!(
        exec.thread.starts_with("nuspi-engine-worker-"),
        "{}",
        exec.thread
    );
    // Iteration rounds nest directly under the solve span.
    let rounds: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "cfa.solve.round")
        .collect();
    assert!(!rounds.is_empty(), "at least one solver round");
    for r in &rounds {
        assert_eq!(r.parent, Some(solve.id), "round nests under cfa.solve");
    }
    // The exec span carries the op field.
    assert_eq!(
        exec.field,
        Some(("op", nuspi_obs::FieldValue::Str("solve".to_string())))
    );

    // Every trace line is valid JSON and carries the schema's keys.
    let jsonl = nuspi_obs::snapshot_jsonl();
    assert!(!jsonl.is_empty());
    let mut saw_counter = false;
    for line in jsonl.lines() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line}: {e}"));
        let ty = v.get("type").and_then(Json::as_str).expect("type tag");
        match ty {
            "span" => {
                assert!(v.get("id").and_then(Json::as_u64).is_some(), "{line}");
                assert!(v.get("parent").is_some(), "{line}");
                assert!(v.get("name").and_then(Json::as_str).is_some(), "{line}");
                assert!(v.get("thread").and_then(Json::as_str).is_some(), "{line}");
                assert!(v.get("start_us").and_then(Json::as_u64).is_some(), "{line}");
                assert!(v.get("dur_us").and_then(Json::as_u64).is_some(), "{line}");
            }
            "counter" => {
                saw_counter = true;
                assert!(v.get("name").and_then(Json::as_str).is_some(), "{line}");
                assert!(v.get("value").and_then(Json::as_u64).is_some(), "{line}");
            }
            "hist" => {
                for key in ["count", "sum_us", "min_us", "max_us"] {
                    assert!(v.get(key).and_then(Json::as_u64).is_some(), "{line}");
                }
                assert!(
                    v.get("log2_buckets").and_then(Json::as_arr).is_some(),
                    "{line}"
                );
            }
            other => panic!("unknown trace line type {other}: {line}"),
        }
    }
    assert!(saw_counter, "solver counters present in the trace");
    // The human summary mentions the same span names.
    let summary = nuspi_obs::summary();
    assert!(summary.contains("engine.exec"), "{summary}");
    assert!(summary.contains("cfa.solve"), "{summary}");
    nuspi_obs::reset();
}

#[test]
fn serve_output_is_byte_identical_with_and_without_tracing() {
    let _g = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    nuspi_obs::reset();
    let session = format!(
        "{{\"id\":\"a\",\"op\":\"audit\",\"process\":\"{SRC}\",\"secrets\":[\"m\",\"k\"]}}\n\
         {{\"id\":\"b\",\"op\":\"solve\",\"process\":\"{SRC}\"}}\n\
         {{\"id\":\"c\",\"op\":\"lint\",\"process\":\"{SRC}\",\"secrets\":[\"m\",\"k\"]}}\n"
    );
    let run_session = || {
        let engine = AnalysisEngine::with_jobs(2);
        let mut out = Vec::new();
        serve(&engine, session.as_bytes(), &mut out).unwrap();
        out
    };
    let quiet = run_session();
    nuspi_obs::enable();
    let traced = run_session();
    nuspi_obs::disable();
    assert_eq!(
        String::from_utf8(quiet).unwrap(),
        String::from_utf8(traced).unwrap(),
        "tracing must never change response bytes"
    );
    assert!(nuspi_obs::span_count() > 0, "the traced run recorded spans");
    nuspi_obs::reset();
}

#[test]
fn stats_op_surfaces_obs_section_only_while_enabled() {
    let _g = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    nuspi_obs::reset();
    let run_stats = || {
        let engine = AnalysisEngine::with_jobs(1);
        let mut out = Vec::new();
        serve(
            &engine,
            "{\"op\":\"solve\",\"process\":\"0\"}\n{\"op\":\"stats\"}\n".as_bytes(),
            &mut out,
        )
        .unwrap();
        String::from_utf8(out).unwrap()
    };
    let quiet = run_stats();
    assert!(!quiet.contains("\"obs\""), "{quiet}");
    nuspi_obs::enable();
    let traced = run_stats();
    nuspi_obs::disable();
    let stats_line = traced
        .lines()
        .find(|l| l.contains("\"op\":\"stats\""))
        .expect("stats line");
    assert!(stats_line.contains("\"obs\":{\"spans\":"), "{stats_line}");
    Json::parse(stats_line).unwrap();
    nuspi_obs::reset();
}

#[test]
fn budget_counters_are_recorded_without_changing_bodies() {
    let _g = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    nuspi_obs::reset();
    // A secret whose name alone outruns the render cap, so the printed
    // witness renders are elided; and a counter whose states never
    // repeat, so the carefulness exploration hits its depth budget.
    let long = "s".repeat(2 * nuspi_cfa::RENDER_CAP);
    let leak = format!("(new {long}) c<{long}>.0");
    let counter = "(new c) (c<0>.0 | !c(x).c<suc(x)>.0)";
    let run = || {
        let engine = AnalysisEngine::with_jobs(1);
        engine
            .submit_requests(vec![
                Request::lint(&leak, &[long.as_str()]),
                Request::lint(counter, &[]),
            ])
            .into_iter()
            .map(|r| r.body.to_string())
            .collect::<Vec<_>>()
    };
    let quiet = run();
    nuspi_obs::enable();
    let traced = run();
    nuspi_obs::disable();
    assert_eq!(quiet, traced, "tracing must never change response bytes");
    let capped = nuspi_cfa::elide(long.clone());
    assert!(capped.len() <= nuspi_cfa::RENDER_CAP && capped.ends_with('…'));
    assert!(
        quiet[0].contains(&format!("kind({capped}) = S")),
        "{}",
        quiet[0]
    );
    assert!(
        quiet[0].contains(&format!("{capped} is produced at")),
        "{}",
        quiet[0]
    );
    assert!(quiet[1].contains("N005"), "{}", quiet[1]);
    assert!(nuspi_obs::counter_value("cfa.render.elided") > 0);
    assert!(nuspi_obs::counter_value("semantics.explore.states") > 0);
    assert_eq!(nuspi_obs::counter_value("semantics.explore.truncated"), 1);
    nuspi_obs::reset();
}

#[test]
fn equiv_game_counters_are_recorded_without_changing_bodies() {
    let _g = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    nuspi_obs::reset();
    // Two plays cannot settle a guard on two injected inputs: the game
    // ends `unknown`, naming the play budget.
    let run = || {
        let engine = AnalysisEngine::new(EngineConfig {
            jobs: 1,
            equiv: EquivConfig {
                max_plays: 2,
                ..EquivConfig::default()
            },
            ..EngineConfig::default()
        });
        engine
            .submit(Request::equiv(
                "c(x). c(y). [x is y] d<0>.0",
                "c(x). c(y). d<0>.0",
            ))
            .body
            .to_string()
    };
    let quiet = run();
    nuspi_obs::enable();
    let traced = run();
    nuspi_obs::disable();
    assert_eq!(quiet, traced, "tracing must never change response bytes");
    assert!(quiet.contains("\"verdict\":\"unknown\""), "{quiet}");
    assert!(quiet.contains("\"plays\""), "{quiet}");
    let plays = nuspi_obs::counter_value("equiv.plays");
    let positions = nuspi_obs::counter_value("equiv.positions");
    assert!(
        0 < positions && positions <= plays,
        "{positions} of {plays}"
    );
    assert_eq!(nuspi_obs::counter_value("equiv.budget.plays"), 1);
    nuspi_obs::reset();
}
