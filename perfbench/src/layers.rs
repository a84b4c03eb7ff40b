//! The traced run: splits a workload's front-door time across layers.
//!
//! It never feeds the gated numbers. For one workload it
//!
//! 1. runs the closed loop with the `nuspi-obs` recorder off, then on
//!    (`obs.overhead_ratio` is the throughput ratio of the two), each
//!    front-door request wrapped in a `bench.request` span carrying a
//!    request id, `to_line` in an `engine.encode` span;
//! 2. replays every distinct input: once alone at the front door, then
//!    through the layers' public calls, one span per call, under the
//!    program's own spans (`cfa.generate`, `cfa.solve`, `equiv.check`)
//!    and counters (`cfa.*`);
//! 3. times one loopback TCP client against `nuspi_net::spawn` on the
//!    `serve-warm` lines (`net.*`, informational).
//!
//! A span's self time is its duration minus the time its children of
//! other layers cover (phase children such as `cfa.solve.round` stay
//! part of their parent). Each `_ms` metric is a mean self time per
//! request, with a `_share` of the replay's mean lone front-door time.
//! `engine.unattributed_ms` is front-door time minus every timed layer:
//! the worker's re-parse (or recompile), closedness checks, cache lookup
//! and insert, channel hand-offs.
//! Spans stay in memory and are written as JSON lines to `out/` at the
//! end.

use crate::corpus::{self, Corpus, Workload};
use crate::drive::{self, front_door, Run};
use crate::report::Metric;
use nuspi_diagnostics::{sort_diagnostics, to_json_compact, LintContext, PassKind, PassRegistry};
use nuspi_engine::jsonio::Json;
use nuspi_obs as obs;
use nuspi_security::Policy;
use nuspi_syntax::{canonical_digest, parse_process, Process, Symbol};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a traced run produced.
pub struct Traced {
    /// Requests sent in the traced loops.
    pub attempted: u64,
    /// Failed requests in the traced loops.
    pub failed: u64,
    /// Guard violations in the traced loops.
    pub guard_violations: Vec<String>,
    /// Failure notes.
    pub failures: Vec<String>,
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

/// The timed layers, in report order: (span name, metric name).
const LAYERS: [(&str, &str); 17] = [
    (
        "diagnostics.pass.confinement",
        "diagnostics.pass.confinement_ms",
    ),
    (
        "diagnostics.pass.carefulness",
        "diagnostics.pass.carefulness_ms",
    ),
    (
        "diagnostics.pass.invariance",
        "diagnostics.pass.invariance_ms",
    ),
    (
        "diagnostics.pass.hidden-escape",
        "diagnostics.pass.hidden-escape_ms",
    ),
    (
        "diagnostics.pass.graded-flow",
        "diagnostics.pass.graded-flow_ms",
    ),
    ("diagnostics.syntactic", "diagnostics.syntactic_ms"),
    ("diagnostics.semantic", "diagnostics.semantic_ms"),
    ("diagnostics.encode", "diagnostics.encode_ms"),
    ("cfa.generate", "cfa.generate_ms"),
    ("cfa.solve", "cfa.solve_ms"),
    ("cfa.render", "cfa.render_ms"),
    ("engine.decode", "engine.decode_ms"),
    ("engine.encode", "engine.encode_ms"),
    ("syntax.parse", "syntax.parse_ms"),
    ("syntax.digest", "syntax.digest_ms"),
    ("lang.compile", "lang.compile_ms"),
    ("equiv.check", "equiv.check_ms"),
];

/// The span a lint pass is timed under.
fn pass_span(name: &str, kind: PassKind) -> &'static str {
    match (name, kind) {
        ("confinement", _) => "diagnostics.pass.confinement",
        ("carefulness", _) => "diagnostics.pass.carefulness",
        ("invariance", _) => "diagnostics.pass.invariance",
        ("hidden-escape", _) => "diagnostics.pass.hidden-escape",
        ("graded-flow", _) => "diagnostics.pass.graded-flow",
        (_, PassKind::Syntactic) => "diagnostics.syntactic",
        // A semantic pass added later is still timed, as semantic work.
        (_, PassKind::Semantic) => "diagnostics.semantic",
    }
}

/// Phase spans are part of their parent's layer.
fn layer_of(name: &str) -> &str {
    match name {
        "cfa.solve.round" => "cfa.solve",
        other => other,
    }
}

/// Sums self time (µs) per layer over `spans`.
fn self_times(spans: &[obs::SpanRecord]) -> HashMap<&str, u64> {
    let by_id: HashMap<u64, &obs::SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let parent_layer = |s: &obs::SpanRecord| {
        s.parent
            .and_then(|p| by_id.get(&p))
            .map(|p| layer_of(p.name))
    };
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s
            .parent
            .filter(|_| parent_layer(s) != Some(layer_of(s.name)))
        {
            *covered.entry(p).or_default() += s.dur_us;
        }
    }
    let mut out: HashMap<&str, u64> = HashMap::new();
    for s in spans {
        if parent_layer(s) == Some(layer_of(s.name)) {
            continue; // a phase: its time is inside its parent's span
        }
        let own = s
            .dur_us
            .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        *out.entry(layer_of(s.name)).or_default() += own;
    }
    out
}

/// Totals of a replay that are not span times.
#[derive(Default)]
struct Tally {
    requests: u64,
    input_bytes: u64,
    solves: u64,
    productions: u64,
    emitted: u64,
    body_bytes: u64,
    plays: u64,
    decided_plays: u64,
}

fn parse(src: &str) -> Process {
    parse_process(src).unwrap_or_else(|e| panic!("corpus process does not parse: {e}"))
}

/// The lint pipeline of one process, one span per public call.
fn lint_layers(p: &Process, policy: &Policy, t: &mut Tally) {
    let ctx = LintContext::new(p, policy);
    {
        let _s = obs::span("diagnostics.semantic");
        t.productions += ctx.semantic().traced_solution().stats().productions as u64;
        t.solves += 1;
    }
    let mut diags = Vec::new();
    for pass in PassRegistry::with_defaults().passes() {
        let _s = obs::span(pass_span(pass.name(), pass.kind()));
        diags.extend(pass.run(&ctx));
    }
    let _s = obs::span("diagnostics.encode");
    sort_diagnostics(&mut diags);
    let body = to_json_compact(&diags);
    t.emitted += diags.len() as u64;
    t.body_bytes += body.len() as u64;
}

/// A string field of a decoded request.
fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("request lacks `{key}`"))
}

/// Replays one request line through the layers' public calls: the
/// decode, then what the engine derives its key from (parse or compile,
/// digest), then — when `full`, for cold workloads — the analysis.
fn replay(line: &str, full: bool, t: &mut Tally) {
    t.requests += 1;
    t.input_bytes += line.len() as u64;
    let v = {
        let _s = obs::span("engine.decode");
        Json::parse(line).expect("request lines are JSON")
    };
    match text(&v, "op") {
        "lint" => {
            let p = {
                let _s = obs::span("syntax.parse");
                parse(text(&v, "process"))
            };
            {
                let _s = obs::span("syntax.digest");
                black_box(canonical_digest(&p));
            }
            if full {
                let secrets = v
                    .get("secrets")
                    .and_then(Json::as_str_arr)
                    .unwrap_or_default();
                lint_layers(
                    &p,
                    &Policy::with_secrets(secrets.iter().map(String::as_str)),
                    t,
                );
            }
        }
        "analyze_source" => {
            let c = {
                let _s = obs::span("lang.compile");
                nuspi_lang::compile(text(&v, "file"), text(&v, "source"))
                    .expect("ladder rungs compile")
            };
            {
                let _s = obs::span("syntax.digest");
                black_box(canonical_digest(&c.process));
            }
            if full {
                lint_layers(&c.process, &c.policy, t);
            }
        }
        "equiv" => {
            let (l, r) = {
                let _s = obs::span("syntax.parse");
                (parse(text(&v, "left")), parse(text(&v, "right")))
            };
            let (dl, dr) = {
                let _s = obs::span("syntax.digest");
                (canonical_digest(&l).0, canonical_digest(&r).0)
            };
            if full {
                // The engine's orientation and initial knowledge: the
                // lower digest on the left, every free name public.
                let (lo, hi) = if dl <= dr { (&l, &r) } else { (&r, &l) };
                let mut public: Vec<Symbol> = lo
                    .free_names()
                    .into_iter()
                    .chain(hi.free_names())
                    .map(|n| n.canonical())
                    .collect();
                public.sort_by_key(|s| s.as_str().to_owned());
                public.dedup();
                let cfg = nuspi_engine::EngineConfig::default().equiv;
                let report = nuspi_equiv::check(lo, hi, &public, &cfg);
                t.plays += report.plays as u64;
                if !matches!(report.verdict, nuspi_equiv::Verdict::Unknown { .. }) {
                    t.decided_plays += report.plays as u64;
                }
            }
        }
        "solve" => {
            let p = {
                let _s = obs::span("syntax.parse");
                parse(text(&v, "process"))
            };
            {
                let _s = obs::span("syntax.digest");
                black_box(canonical_digest(&p));
            }
            if full {
                let sol = nuspi_cfa::solve(nuspi_cfa::Constraints::generate(&p));
                let _s = obs::span("cfa.render");
                black_box(sol.render_estimate_for(&p, 3));
                t.productions += sol.stats().productions as u64;
                t.solves += 1;
            }
        }
        other => panic!("op {other} is not generated"),
    }
}

/// Mean loopback round trip and its excess over in-process front-door
/// time on the same warm lines, in µs.
fn net_round_trip(warm: &Corpus) -> std::io::Result<(f64, f64)> {
    const REQUESTS: usize = 2000;
    let engine = Arc::new(drive::engine());
    let mut setup = Run::default();
    drive::stream(
        &engine,
        warm,
        std::slice::from_ref(&warm.warm),
        2,
        Duration::ZERO,
        1,
        &mut setup,
    );
    let lines: Vec<&str> = warm
        .passes
        .iter()
        .flatten()
        .take(REQUESTS)
        .map(|l| l.text.as_str())
        .collect();
    let server = nuspi_net::spawn(
        Arc::clone(&engine),
        TcpListener::bind("127.0.0.1:0")?,
        nuspi_net::NetConfig::default(),
    )?;
    let rtt = {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let mut response = String::new();
        let t = Instant::now();
        for line in &lines {
            writer.write_all(line.as_bytes())?;
            writer.write_all(b"\n")?;
            response.clear();
            reader.read_line(&mut response)?;
        }
        t.elapsed()
    };
    server.drain();
    server.join();
    let t = Instant::now();
    for line in &lines {
        black_box(front_door(&engine, line));
    }
    let local = t.elapsed();
    let n = lines.len().max(1) as f64;
    let rtt_us = rtt.as_secs_f64() * 1e6 / n;
    Ok((rtt_us, rtt_us - local.as_secs_f64() * 1e6 / n))
}

/// The `engine.queue_wait_us` histogram's sum (µs) from a trace dump.
fn queue_wait_sum_us(jsonl: &str) -> u64 {
    jsonl
        .lines()
        .filter(|l| l.contains("\"name\":\"engine.queue_wait_us\""))
        .filter_map(|l| Json::parse(l).ok()?.get("sum_us")?.as_u64())
        .sum()
}

/// The replay-relevant `cfa.*` counters: firings, memo hits, misses.
fn cfa_counters() -> [u64; 3] {
    ["cfa.firings", "cfa.memo.hits", "cfa.memo.misses"].map(obs::counter_value)
}

fn throughput(run: &Run) -> f64 {
    run.samples.len() as f64 / run.window.as_secs_f64().max(1e-9)
}

/// Runs the traced run of `corpus` (built from `seed`): each loop for
/// half of `seconds` and at least one pass (not the workload's
/// [`min_passes`](Workload::min_passes), which would double a traced
/// `equiv-oracle` run to about two minutes), then the replay.
pub fn traced(corpus: &Corpus, seed: u64, seconds: f64) -> Traced {
    let w = corpus.workload;
    obs::reset();
    let off = drive::measure(corpus, seconds / 2.0, 1);
    obs::enable();
    let on = drive::measure(corpus, seconds / 2.0, 1);
    obs::disable();
    let loop_trace = obs::snapshot_jsonl();
    let loop_frontdoor_ms = on
        .samples
        .iter()
        .map(drive::Sample::latency_ms)
        .sum::<f64>()
        / on.samples.len().max(1) as f64;
    let (hits, misses) = (
        obs::counter_value("engine.cache.hits") as f64,
        obs::counter_value("engine.cache.misses") as f64,
    );

    // The replay: each distinct input alone at the front door (a miss
    // on a fresh engine for cold workloads, a hit on the warmed engine
    // for `serve-warm`), then through the layers' public calls. Fast
    // inputs go several times so µs-resolution spans average out.
    obs::reset();
    let warm = (!w.cold()).then(|| {
        let engine = drive::engine();
        let mut setup = Run::default();
        let warm = std::slice::from_ref(&corpus.warm);
        drive::stream(&engine, corpus, warm, 1, Duration::ZERO, 1, &mut setup);
        engine
    });
    let reps = match w {
        Workload::EquivOracle | Workload::SolveLarge => 1,
        Workload::LintCold => 5,
        Workload::ServeWarm => 20,
    };
    let mut tally = Tally::default();
    let mut cfa = [0u64; 3];
    obs::enable();
    for input in 0..corpus.inputs.len() {
        for rep in 0..reps {
            let pass = &corpus.passes[rep % corpus.passes.len()];
            let line = &pass
                .iter()
                .find(|l| l.input == input)
                .expect("whole passes")
                .text;
            let fresh;
            let engine = match &warm {
                Some(e) => e,
                None => {
                    fresh = drive::engine();
                    &fresh
                }
            };
            let _root = obs::span_with("bench.replay", "input", obs::FieldValue::from(input));
            black_box(front_door(engine, line));
            // The front door's own analysis ran on a worker (its spans
            // carry the worker's thread name and are left out below);
            // its counters are settled before the answer returns, so the
            // replay's counter deltas are its own.
            let before = cfa_counters();
            replay(line, w.cold(), &mut tally);
            let after = cfa_counters();
            for (total, (a, b)) in cfa.iter_mut().zip(after.iter().zip(before)) {
                *total += a - b;
            }
        }
    }
    obs::disable();
    let replay_thread = std::thread::current().name().unwrap_or("?").to_owned();
    let replay_spans: Vec<obs::SpanRecord> = obs::spans()
        .into_iter()
        .filter(|s| s.thread == replay_thread)
        .collect();
    let replay_trace = obs::snapshot_jsonl();
    let [firings, memo_hits, memo_misses] = cfa.map(|c| c as f64);
    let queue_wait_us = queue_wait_sum_us(&replay_trace) as f64;
    obs::reset();
    let span_total = |name: &str| -> f64 {
        replay_spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64)
            .sum()
    };
    let replay_times = self_times(&replay_spans);

    let per_request = tally.requests.max(1) as f64;
    let frontdoor_ms = span_total("bench.request") / 1e3 / per_request;
    let mut metrics = Vec::new();
    let mut attributed = 0.0;
    for (span, metric) in LAYERS {
        let ms = replay_times.get(span).copied().unwrap_or(0) as f64 / 1e3 / per_request;
        attributed += ms;
        metrics.push(Metric::new(metric, ms, "ms"));
    }
    let queue_wait_ms = queue_wait_us / 1e3 / per_request;
    metrics.push(Metric::new("engine.queue_wait_ms", queue_wait_ms, "ms"));
    metrics.push(Metric::new(
        "engine.unattributed_ms",
        frontdoor_ms - attributed - queue_wait_ms,
        "ms",
    ));
    let shares: Vec<Metric> = metrics
        .iter()
        .map(|m| {
            Metric::new(
                m.name.replace("_ms", "_share"),
                m.value / frontdoor_ms.max(1e-9),
                "ratio",
            )
        })
        .collect();
    metrics.insert(0, Metric::new("frontdoor_ms", frontdoor_ms, "ms"));
    metrics.extend(shares);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let solves = tally.solves.max(1) as f64;
    metrics.extend([
        Metric::new(
            "engine.contention_ms",
            loop_frontdoor_ms - frontdoor_ms,
            "ms",
        ),
        Metric::new(
            "engine.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        Metric::new(
            "diagnostics.emitted",
            tally.emitted as f64 / per_request,
            "count",
        ),
        Metric::new(
            "diagnostics.body_kb",
            tally.body_bytes as f64 / 1024.0 / per_request,
            "KB",
        ),
        Metric::new(
            "cfa.productions",
            tally.productions as f64 / solves,
            "count",
        ),
        Metric::new("cfa.firings", firings / solves, "count"),
        Metric::new(
            "cfa.memo_hit_ratio",
            ratio(memo_hits, memo_hits + memo_misses),
            "ratio",
        ),
        Metric::new(
            "syntax.input_kb",
            tally.input_bytes as f64 / 1024.0 / per_request,
            "KB",
        ),
        Metric::new("equiv.plays", tally.plays as f64 / per_request, "count"),
        Metric::new(
            "equiv.plays_per_s",
            ratio(tally.plays as f64, span_total("equiv.check") / 1e6),
            "1/s",
        ),
        Metric::new(
            "equiv.decided_plays_ratio",
            ratio(tally.decided_plays as f64, tally.plays as f64),
            "ratio",
        ),
    ]);
    let mut failures: Vec<String> = off.failures.iter().chain(&on.failures).cloned().collect();
    let (rtt_us, overhead_us) = net_round_trip(&corpus::build(Workload::ServeWarm, seed))
        .unwrap_or_else(|e| {
            failures.push(format!("loopback round trip not measured: {e}"));
            (0.0, 0.0)
        });
    metrics.push(Metric::new("net.rtt_us", rtt_us, "us"));
    metrics.push(Metric::new("net.overhead_us", overhead_us, "us"));
    metrics.push(Metric::new(
        "obs.overhead_ratio",
        ratio(throughput(&off), throughput(&on)),
        "ratio",
    ));

    if let Err(e) = write_trace(w, seed, &loop_trace, &replay_trace) {
        failures.push(format!("trace dump not written: {e}"));
    }
    Traced {
        attempted: (off.samples.len() + on.samples.len()) as u64,
        failed: off
            .samples
            .iter()
            .chain(&on.samples)
            .filter(|s| s.failed)
            .count() as u64,
        guard_violations: off
            .guard_violations
            .into_iter()
            .chain(on.guard_violations)
            .collect(),
        failures,
        metrics,
    }
}

/// Loop spans kept in the dump: the first ones of the traced loop (a
/// `serve-warm` loop records over half a million).
const DUMPED_LOOP_SPANS: usize = 50_000;

/// Writes the loop and replay traces as JSON lines under `out/`, each
/// record tagged with its phase. Counters and histograms are kept whole.
fn write_trace(
    w: Workload,
    seed: u64,
    loop_trace: &str,
    replay_trace: &str,
) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let file = std::fs::File::create(dir.join(format!("trace-{}-seed{seed}.jsonl", w.name())))?;
    let mut f = std::io::BufWriter::new(file);
    for (phase, trace, cap) in [
        ("loop", loop_trace, DUMPED_LOOP_SPANS),
        ("replay", replay_trace, usize::MAX),
    ] {
        let mut spans = 0;
        for line in trace.lines() {
            if line.starts_with("{\"type\":\"span\"") {
                spans += 1;
                if spans > cap {
                    continue;
                }
            }
            writeln!(f, "{{\"phase\":\"{phase}\",{}", &line[1..])?;
        }
    }
    f.flush()
}
