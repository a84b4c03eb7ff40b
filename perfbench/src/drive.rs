//! The closed-loop front-door load generator and the end-to-end metrics.
//!
//! A request is timed from just before [`answer_line`] to just after
//! [`Response::to_line`](nuspi_engine::Response::to_line) — the same
//! transport-independent path the `nuspi serve` pipe and the TCP
//! listener take. Cold workloads stream passes of fresh names through
//! one engine (a fresh engine once the distinct passes run out), so each
//! request misses; `serve-warm` keeps one warmed engine so each request
//! hits. The window always ends on a pass boundary, so every run
//! measures the same mix of inputs.

use crate::check::verify;
use crate::corpus::{Corpus, Line, Workload};
use crate::report::{cpu_time, harrell_davis, median, peak_rss_mb, Metric};
use nuspi_engine::{answer_line, AnalysisEngine, EngineConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Engine constructions timed in each burst before and after the window
/// of a cold workload (each block of passes adds the one it serves on);
/// `setup_s` is their median.
const COLD_SETUPS: usize = 5;
/// Bursts of [`COLD_SETUPS`] on each side of the window, spaced so the
/// samples span the host's sub-second speed phases instead of one.
const COLD_SETUP_BURSTS: usize = 10;
/// Warm-set computations in a `serve-warm` run; `setup_s` is their
/// median and the last one's engine serves the loop.
const WARM_SETUPS: usize = 5;
/// How long a cold workload warms up before it is timed (see
/// [`warm_up`]).
const WARM_UP: Duration = Duration::from_secs(1);

/// One answered request (16 bytes: a `serve-warm` run keeps ~10⁵).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Distinct input it instantiated.
    pub input: u32,
    /// Whether the answer was a definite verdict.
    pub decided: bool,
    /// Whether the response was an error line or a wrong answer.
    pub failed: bool,
    /// Front-door latency in nanoseconds.
    pub latency_ns: u64,
}

impl Sample {
    fn new(input: usize, latency: Duration, decided: bool, failed: bool) -> Sample {
        Sample {
            input: input as u32,
            decided,
            failed,
            latency_ns: latency.as_nanos() as u64,
        }
    }

    /// Front-door latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_ns as f64 / 1e6
    }
}

/// Everything a measured run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Requests in the window, in completion order per client.
    pub samples: Vec<Sample>,
    /// Sum of the measured passes' wall time.
    pub window: Duration,
    /// Process CPU (user + sys) over the window.
    pub cpu: Duration,
    /// Set-up times.
    pub setups: Vec<Duration>,
    /// Failure descriptions (first few kept).
    pub failures: Vec<String>,
    /// Violations of the workload's cache character or op guards.
    pub guard_violations: Vec<String>,
}

impl Run {
    fn fail(&mut self, msg: String) {
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// The engine configuration every workload uses: one worker per core,
/// default budgets (the ones `nuspi serve` uses).
pub fn engine() -> AnalysisEngine {
    AnalysisEngine::new(EngineConfig::default())
}

/// Answers one line at the front door, returning the wire form and the
/// time it took. With the recorder on, the request runs in a `bench.request` span
/// carrying a request id, and `to_line` in an `engine.encode` span.
pub fn front_door(engine: &AnalysisEngine, line: &str) -> (String, Duration) {
    let _request = if nuspi_obs::enabled() {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        nuspi_obs::span_with("bench.request", "req", nuspi_obs::FieldValue::U64(id))
    } else {
        nuspi_obs::Span::disabled()
    };
    let t = Instant::now();
    let responses = answer_line(engine, line);
    let wire = {
        let _encode = nuspi_obs::span("engine.encode");
        match responses.as_slice() {
            [one] => one.to_line(),
            many => many
                .iter()
                .map(|r| r.to_line())
                .collect::<Vec<_>>()
                .join("\n"),
        }
    };
    (wire, t.elapsed())
}

/// Streams whole passes through `clients` closed-loop clients (each
/// sends its next line as soon as its previous answer is back) and
/// checks every answer. Passes follow each other without a barrier; the
/// stream stops at the first pass boundary after `target` once at least
/// `min_passes` (and one) have been sent, or when `passes` run out.
/// Returns the wall time, drain included, and the number of passes sent.
pub fn stream(
    engine: &AnalysisEngine,
    corpus: &Corpus,
    passes: &[Vec<Line>],
    clients: usize,
    target: Duration,
    min_passes: usize,
    run: &mut Run,
) -> (Duration, usize) {
    let per_pass = passes[0].len();
    let next = Mutex::new(Some(0usize));
    let out = Mutex::new(Vec::new());
    let t = Instant::now();
    let take = || -> Option<&Line> {
        let mut next = lock(&next);
        let k = (*next)?;
        let (p, i) = (k / per_pass, k % per_pass);
        if i == 0 && (p == passes.len() || (p >= min_passes.max(1) && t.elapsed() >= target)) {
            *next = None;
            return None;
        }
        *next = Some(k + 1);
        Some(&passes[p][i])
    };
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut mine = Vec::new();
                while let Some(line) = take() {
                    let (wire, latency) = front_door(engine, &line.text);
                    let checked = verify(&corpus.inputs[line.input].expect, &line.id, &wire);
                    mine.push((line.input, latency, checked));
                }
                lock(&out).extend(mine);
            });
        }
    });
    let wall = t.elapsed();
    let answered = out.into_inner().expect("no client panicked");
    let sent = answered.len() / per_pass;
    for (input, latency, checked) in answered {
        let (decided, failed) = match checked {
            Ok(v) => (v.decided, false),
            Err(e) => {
                run.fail(format!("{}: {e}", corpus.inputs[input].name));
                (false, true)
            }
        };
        run.samples
            .push(Sample::new(input, latency, decided, failed));
    }
    (wall, sent)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("no client panicked")
}

/// Checks the engine's cache meters against the workload's character.
fn guard_cache(run: &mut Run, engine: &AnalysisEngine, hits: u64, misses: u64, what: &str) {
    let c = engine.stats().cache;
    if c.hits != hits || c.misses != misses {
        run.guard_violations.push(format!(
            "{what}: expected {hits} hit(s) and {misses} miss(es), engine saw {} and {}",
            c.hits, c.misses
        ));
    }
}

/// Runs `w` over `corpus` for at least `seconds` of measured passes and
/// at least `min_passes` passes.
pub fn measure(corpus: &Corpus, seconds: f64, min_passes: usize) -> Run {
    match corpus.workload {
        Workload::ServeWarm => measure_warm(corpus, seconds, min_passes),
        _ => measure_cold(corpus, seconds, min_passes),
    }
}

fn measure_cold(corpus: &Corpus, seconds: f64, min_passes: usize) -> Run {
    let w = corpus.workload;
    let mut run = Run::default();
    warm_up(corpus);
    time_setups(&mut run);
    // One engine per block of distinct passes: the passes' fresh names
    // make every line of a block miss, and a fresh engine makes a
    // repeated block miss again.
    let target = Duration::from_secs_f64(seconds);
    let (mut block, mut passes) = (0, 0);
    while run.window < target || passes < min_passes {
        let t = Instant::now();
        let engine = engine();
        run.setups.push(t.elapsed());
        let cpu0 = cpu_time();
        let (wall, sent) = stream(
            &engine,
            corpus,
            &corpus.passes,
            w.clients(),
            target.saturating_sub(run.window),
            min_passes.saturating_sub(passes),
            &mut run,
        );
        passes += sent;
        run.window += wall;
        run.cpu += cpu_time().saturating_sub(cpu0);
        let lines = (sent * corpus.passes[0].len()) as u64;
        guard_cache(&mut run, &engine, 0, lines, &format!("block {block}"));
        block += 1;
    }
    time_setups(&mut run);
    run
}

/// Sends the lines of the last pass from the workload's clients to a
/// throwaway engine, untimed, until the pass or [`WARM_UP`] runs out.
///
/// The process's first-touch costs (heap growth, lazy statics, first
/// page faults) land here instead of on the first measured requests,
/// where they made a few requests of a run 2–24 times slower than the
/// same input later; a long-running `nuspi serve` pays them once. The
/// engine is dropped before the window, so the measured engines' caches
/// stay cold. A traced run does not trace it.
fn warm_up(corpus: &Corpus) {
    let tracing = nuspi_obs::enabled();
    nuspi_obs::disable();
    let engine = engine();
    let pass = corpus.passes.last().expect("at least one pass");
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..corpus.workload.clients() {
            s.spawn(|| {
                while t.elapsed() < WARM_UP {
                    let Some(line) = pass.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    black_box(front_door(&engine, &line.text));
                }
            });
        }
    });
    drop(engine);
    if tracing {
        nuspi_obs::enable();
    }
}

/// Times [`COLD_SETUP_BURSTS`] bursts of [`COLD_SETUPS`] engine
/// constructions, 40 ms apart.
fn time_setups(run: &mut Run) {
    for _ in 0..COLD_SETUP_BURSTS {
        for _ in 0..COLD_SETUPS {
            let t = Instant::now();
            let e = engine();
            run.setups.push(t.elapsed());
            drop(e);
        }
        std::thread::sleep(Duration::from_millis(40));
    }
}

fn measure_warm(corpus: &Corpus, seconds: f64, min_passes: usize) -> Run {
    // A traced run traces the loop only, not the warm-set analyses.
    let tracing = nuspi_obs::enabled();
    nuspi_obs::disable();
    let mut run = Run::default();
    let mut warmed = None;
    for k in 0..WARM_SETUPS {
        drop(warmed.take());
        let t = Instant::now();
        let engine = engine();
        // The warm set goes through the front door like any traffic,
        // from the loop's one client (no overlap of heavy analyses to
        // move the memory peak); its answers are checked like the loop's.
        let mut setup = Run::default();
        let warm = std::slice::from_ref(&corpus.warm);
        stream(&engine, corpus, warm, 1, Duration::ZERO, 1, &mut setup);
        run.setups.push(t.elapsed());
        for f in setup.failures {
            run.fail(format!("warm set {k}: {f}"));
        }
        warmed = Some(engine);
    }
    let engine = warmed.expect("at least one setup");
    // Every hit answers with the bytes the checked warm set produced.
    let expected: Vec<String> = corpus
        .warm
        .iter()
        .map(|l| front_door(&engine, &l.text).0)
        .collect();
    for (l, wire) in corpus.warm.iter().zip(&expected) {
        if let Err(e) = verify(&corpus.inputs[l.input].expect, &l.id, wire) {
            run.fail(format!("{}: {e}", corpus.inputs[l.input].name));
        }
    }
    let base = engine.stats().cache;
    if tracing {
        nuspi_obs::enable();
    }
    let target = Duration::from_secs_f64(seconds);
    let cpu0 = cpu_time();
    let t = Instant::now();
    let mut n = 0;
    let mut sent = 0u64;
    while t.elapsed() < target || n < min_passes {
        for line in &corpus.passes[n % corpus.passes.len()] {
            let (wire, latency) = front_door(&engine, &line.text);
            let failed = wire != expected[line.input];
            run.samples
                .push(Sample::new(line.input, latency, !failed, failed));
            if failed {
                let name = &corpus.inputs[line.input].name;
                run.fail(format!("{name}: hit differs from the warm answer"));
            }
        }
        sent += corpus.passes[n % corpus.passes.len()].len() as u64;
        n += 1;
    }
    run.window = t.elapsed();
    run.cpu = cpu_time().saturating_sub(cpu0);
    guard_cache(
        &mut run,
        &engine,
        base.hits + sent,
        base.misses,
        "serve-warm loop",
    );
    run
}

/// The end-to-end metrics of a measured run, in `BENCHMARK.json` order.
///
/// `latency_tail_ms` is the Harrell–Davis estimate of the workload's
/// tail percentile: nearest rank picks one sample where the clusters of
/// the slowest inputs overlap, and which one moved it by a quarter
/// between runs of the same code.
///
/// `latency_p50_ms` is reported in the table but not gated: on
/// `equiv-oracle` the median falls on one 43 ms input sampled six
/// times a run, and the host's sub-second speed phases move it by a
/// third between runs (see README.md).
pub fn metrics(w: Workload, corpus: &Corpus, run: &Run) -> Vec<Metric> {
    let n = run.samples.len().max(1) as f64;
    let mut lat: Vec<f64> = run.samples.iter().map(Sample::latency_ms).collect();
    lat.sort_by(f64::total_cmp);
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); corpus.inputs.len()];
    for s in &run.samples {
        per_input[s.input as usize].push(s.latency_ms());
    }
    let log_sum: f64 = per_input
        .iter_mut()
        .filter(|v| !v.is_empty())
        .map(|v| median(v).ln())
        .sum();
    let seen = per_input.iter().filter(|v| !v.is_empty()).count().max(1);
    let decided = run.samples.iter().filter(|s| s.decided).count() as f64;
    let mut setups: Vec<f64> = run.setups.iter().map(Duration::as_secs_f64).collect();
    vec![
        Metric::new("setup_s", median(&mut setups), "s"),
        Metric::new(
            "throughput_rps",
            n / run.window.as_secs_f64().max(1e-9),
            "resp/s",
        ),
        Metric::new(
            "latency_tail_ms",
            harrell_davis(&lat, w.tail_percentile()),
            "ms",
        ),
        Metric::new("verdict_geomean_ms", (log_sum / seen as f64).exp(), "ms"),
        Metric::new("decided_ratio", decided / n, "ratio"),
        Metric::new("cpu_ms_per_request", run.cpu.as_secs_f64() * 1e3 / n, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Reported alongside the metrics, not gated: the sample count and the
/// median front-door latency.
pub fn ungated(run: &Run) -> Vec<Metric> {
    let mut lat: Vec<f64> = run.samples.iter().map(Sample::latency_ms).collect();
    vec![
        Metric::new("samples", run.samples.len() as f64, "count"),
        Metric::new("latency_p50_ms", median(&mut lat), "ms"),
    ]
}
