//! The measurement logic behind the six `bench_*` binaries, factored
//! out so the regression gate (`bench_gate`) can re-run any suite and
//! compare it against the committed `artifacts/bench/BENCH_*.json`
//! baselines.
//!
//! Each suite returns a [`SuiteRun`]: the human-readable tables the
//! binary prints, plus a [`BenchReport`] with one [`Metric`] per
//! measurement. Metric *names and counts are identical* in smoke and
//! full mode — smoke only shrinks the per-measurement time budget (and
//! so the iteration count), which is what lets `bench_gate --smoke`
//! compare a cheap CI run against the committed full baselines.
//!
//! [`Metric`]: crate::report::Metric

use crate::report::{timed, timed_stable, BenchReport, Table};
use crate::workloads;
use nuspi_cfa::{analyze, analyze_with_attacker, solve, Constraints};
use nuspi_diagnostics::{lint, LintContext, PassRegistry};
use nuspi_engine::jsonio::{escape, Json};
use nuspi_engine::{answer_line, AnalysisEngine, ProcessInput, Request, Response};
use nuspi_equiv::{check, independence_oracle, mutations, EquivConfig, Verdict};
use nuspi_net::{spawn, DiskStore, NetConfig, StoreConfig};
use nuspi_protocols::{broken_twins, open_examples, suite, wmf};
use nuspi_security::{
    carefulness, confinement, graded_flows_with, n_star, n_star_name, reveals, AbstractLevel,
    IntruderConfig, Knowledge, Policy, SecLattice,
};
use nuspi_semantics::{commitments, eval, explore_tau, CommitConfig, EvalMode, ExecConfig};
use nuspi_syntax::{builder, parse_process, Name, Process, Symbol, Value};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One suite execution: the rendered human tables and the machine
/// report.
pub struct SuiteRun {
    /// What the bench binary prints.
    pub human: String,
    /// What it writes to `artifacts/bench/`.
    pub report: BenchReport,
}

/// Every suite the gate knows about, in gate order.
pub const SUITES: &[&str] = &[
    "solver",
    "engine",
    "lint",
    "lang",
    "semantics",
    "security",
    "equiv",
    "ablation",
];

/// Runs the named suite; `None` for an unknown name.
pub fn run(name: &str, smoke: bool) -> Option<SuiteRun> {
    match name {
        "solver" => Some(solver(smoke)),
        "engine" => Some(engine(smoke)),
        "lint" => Some(lint_suite(smoke)),
        "lang" => Some(lang(smoke)),
        "semantics" => Some(semantics(smoke)),
        "security" => Some(security(smoke)),
        "equiv" => Some(equiv(smoke)),
        "ablation" => Some(ablation(smoke)),
        _ => None,
    }
}

/// The per-measurement stabilisation budget: smoke mode keeps every
/// workload and metric but spends ~15x less wall-clock per number.
fn budget(smoke: bool) -> Duration {
    Duration::from_millis(if smoke { 10 } else { 150 })
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.3}ms", d.as_secs_f64() * 1e3)
}

/// Solver throughput over the parametric workload families, the
/// generation/solve phase split, and the named interleaved scenarios —
/// plus exact production counts as α-stability canaries.
pub fn solver(smoke: bool) -> SuiteRun {
    let b = budget(smoke);
    let mut report = BenchReport::new("solver", smoke);
    let mut human = String::from("bench_solver: sequential worklist solver\n\n");

    let mut table = Table::new(["benchmark", "n", "mean time"]);
    let mut family = |name: &str, make: &dyn Fn(usize) -> Process, sizes: &[usize]| {
        for &n in sizes {
            let p = make(n);
            let t = timed_stable(b, || {
                let _ = solve(Constraints::generate(&p));
            });
            table.row([format!("solver/{name}"), n.to_string(), fmt_ms(t)]);
            report.time(&format!("{name}/{n}"), t);
        }
    };
    family("relay-chain", &workloads::relay_chain, &[8, 16, 32, 64]);
    family("crypto-chain", &workloads::crypto_chain, &[8, 16, 32, 64]);
    family(
        "star-broadcast",
        &workloads::star_broadcast,
        &[8, 16, 32, 64],
    );
    family("wmf-sessions", &workloads::wmf_sessions, &[2, 4, 8, 16]);
    family("mixer", &workloads::mixer, &[4, 8, 16, 32]);
    human.push_str(&table.render());
    human.push('\n');

    // Phase split: constraint generation is linear, solving dominates.
    let mut phases = Table::new(["benchmark", "mean time"]);
    let p = workloads::crypto_chain(32);
    let t = timed_stable(b, || {
        let _ = Constraints::generate(&p);
    });
    phases.row(["phases/generate-32".to_owned(), fmt_ms(t)]);
    report.time("phases/generate-32", t);
    let t = timed_stable(b, || {
        let _ = solve(Constraints::generate(&p));
    });
    phases.row(["phases/solve-32".to_owned(), fmt_ms(t)]);
    report.time("phases/solve-32", t);
    let wmf4 = workloads::wmf_sessions(4);
    let t = timed_stable(b, || {
        let _ = solve(Constraints::generate(&wmf4));
    });
    phases.row(["phases/wmf4-end-to-end".to_owned(), fmt_ms(t)]);
    report.time("phases/wmf4-end-to-end", t);
    human.push_str(&phases.render());
    human.push('\n');

    // Deterministic outputs: the least solution's size must never move
    // without a deliberate analysis change.
    let sol = solve(Constraints::generate(&p));
    report.exact(
        "crypto-chain-32/productions",
        sol.stats().productions as u64,
    );
    let sol = solve(Constraints::generate(&wmf4));
    report.exact("wmf-sessions-4/productions", sol.stats().productions as u64);

    // The named scenario registry, sequentially: mid-size corpus rows
    // plus a production-count canary pinning the interleaved family's
    // least solution (and, transitively, its SplitMix64 corpus).
    let mut scen = Table::new(["scenario", "mean time"]);
    for name in ["interleaved-100x4", "interleaved-1000x4"] {
        let p = workloads::scenario(name).expect("registered scenario");
        let t = timed_stable(b, || {
            let _ = solve(Constraints::generate(&p));
        });
        scen.row([format!("scenario/{name}"), fmt_ms(t)]);
        report.time(&format!("scenario/{name}"), t);
    }
    let sol = solve(Constraints::generate(
        &workloads::scenario("interleaved-1000x4").expect("registered scenario"),
    ));
    report.exact(
        "interleaved-1000x4/productions",
        sol.stats().productions as u64,
    );
    human.push_str(&scen.render());
    human.push('\n');

    // The lattice-4 scenario column: the same corpus re-analysed under
    // a diamond-4 graded policy. Grammar solving is lattice-free, so
    // the graded cost is exactly the post-solve `AbstractLevel`
    // classification fixpoint; the violation count is a determinism
    // canary like the production counts above.
    let lat = SecLattice::diamond4();
    let mut lat4 = Table::new(["scenario", "level fixpoint", "solve+grade", "violations"]);
    for name in ["interleaved-100x4", "interleaved-1000x4"] {
        let p = workloads::scenario(name).expect("registered scenario");
        let mut policy = Policy::with_lattice(lat.clone());
        policy.grade("v0", lat.secret());
        let sol = solve(Constraints::generate(&p));
        let t_classify = timed_stable(b, || {
            let _ = AbstractLevel::compute(&sol, &policy);
        });
        let t_graded = timed_stable(b, || {
            let sol = solve(Constraints::generate(&p));
            let _ = AbstractLevel::compute(&sol, &policy);
        });
        let violations = graded_flows_with(&policy, &sol).violations.len() as u64;
        lat4.row([
            format!("lattice4/{name}"),
            fmt_ms(t_classify),
            fmt_ms(t_graded),
            violations.to_string(),
        ]);
        report.time(&format!("lattice4/{name}/classify"), t_classify);
        report.time(&format!("lattice4/{name}/solve-grade"), t_graded);
        report.exact(&format!("lattice4/{name}/violations"), violations);
    }
    human.push_str(&lat4.render());
    human.push('\n');

    human.push_str("bench_solver done.\n");
    SuiteRun { human, report }
}

/// The 25-case lint batch the engine bench and the round-trip suite use:
/// the 21 closed protocols plus the 4 tracked open examples.
pub fn suite_requests() -> Vec<Request> {
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
    out
}

/// One JSON `lint` request line per closed protocol in the suite — the
/// wire form of [`suite_requests`]'s closed half (the open examples are
/// engine-internal `Parsed` inputs with no JSON rendering).
fn closed_suite_lines() -> Vec<String> {
    suite()
        .into_iter()
        .map(|spec| {
            let mut secrets: Vec<String> = spec
                .policy
                .secrets()
                .map(|s| format!("\"{}\"", escape(s.as_str())))
                .collect();
            secrets.sort();
            format!(
                "{{\"op\":\"lint\",\"process\":\"{}\",\"secrets\":[{}]}}\n",
                escape(&spec.source),
                secrets.join(",")
            )
        })
        .collect()
}

/// The q-th percentile of an ascending-sorted latency series.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    assert!(!sorted.is_empty(), "no samples");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Engine throughput over the protocol suite, cold vs warm cache, plus
/// the `serve-net` phase: the same engine behind the TCP transport
/// under concurrent closed-loop clients and a disk store, and the
/// size-dependent front door (a cold 200x4 `solve` line, and the decode
/// of a 1000x4 one). The warm rounds, the cache/store counters and the
/// solve body's length are identical in smoke and full mode, so the
/// exact metrics always match the committed baseline.
pub fn engine(smoke: bool) -> SuiteRun {
    const WARM_ROUNDS: u32 = 5;
    let requests = suite_requests();
    let cases = requests.len();
    let engine = AnalysisEngine::with_jobs(0); // one worker per core
    let mut human = format!(
        "bench_engine: {cases}-case suite, {} worker(s), cold batch then {WARM_ROUNDS} warm rounds\n\n",
        engine.jobs()
    );

    let (cold_responses, cold) = timed(|| engine.submit_requests(requests.clone()));
    assert!(
        cold_responses.iter().all(Response::is_ok),
        "cold batch must succeed"
    );
    let mut warm_total = Duration::ZERO;
    for round in 0..WARM_ROUNDS {
        let (responses, took) = timed(|| engine.submit_requests(requests.clone()));
        assert!(
            responses.iter().all(|r| r.cached),
            "warm round {round} must be served from the cache"
        );
        warm_total += took;
    }
    let warm = warm_total / WARM_ROUNDS;
    let stats = engine.stats();
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);

    let mut table = Table::new(["phase", "batch time", "per case", "throughput"]);
    for (phase, took) in [("cold", cold), ("warm (mean)", warm)] {
        table.row([
            phase.to_owned(),
            fmt_ms(took),
            format!("{:.3}ms", took.as_secs_f64() * 1e3 / cases as f64),
            format!("{:.0} case/s", cases as f64 / took.as_secs_f64()),
        ]);
    }
    human.push_str(&table.render());
    human.push_str(&format!(
        "speedup: {speedup:.1}x   hit rate: {:.3}   cache: {} entries, {} bytes\n",
        stats.hit_rate(),
        stats.cache_entries,
        stats.cache_bytes
    ));
    assert!(
        warm < cold,
        "warm-cache batch ({warm:?}) must beat the cold batch ({cold:?})"
    );

    // serve-net: the TCP transport under concurrent clients, mixed
    // cold/warm traffic. Round 0 races the clients over a cold engine
    // (real computes, disk-store admissions); later rounds are
    // memory-cache hits, so the warm percentiles measure the network
    // round-trip and protocol framing, not the analyses.
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 4;
    let lines = Arc::new(closed_suite_lines());
    let closed_cases = lines.len();

    let store_dir =
        std::env::temp_dir().join(format!("nuspi-bench-serve-net-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut store_cfg = StoreConfig::at(&store_dir);
    store_cfg.fsync = false; // measure the transport, not disk syncs
    let mut net_engine = AnalysisEngine::with_jobs(0);
    net_engine.set_store(Arc::new(
        DiskStore::open(store_cfg).expect("bench store opens"),
    ));
    let net_engine = Arc::new(net_engine);
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let server = spawn(Arc::clone(&net_engine), listener, NetConfig::default())
        .expect("serve-net server spawns");
    let addr = server.local_addr();

    let wall = Instant::now();
    // Clients align on a barrier between rounds so a straggler's cold
    // computes never pollute another client's warm samples.
    let gate = Arc::new(std::sync::Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let lines = Arc::clone(&lines);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
                let mut samples = vec![Vec::new(); ROUNDS];
                let mut response = String::new();
                for bucket in &mut samples {
                    gate.wait();
                    for line in lines.iter() {
                        let sent = Instant::now();
                        stream.write_all(line.as_bytes()).expect("send request");
                        response.clear();
                        reader.read_line(&mut response).expect("read response");
                        bucket.push(sent.elapsed());
                        assert!(response.contains("\"status\":\"ok\""), "{response}");
                    }
                }
                samples
            })
        })
        .collect();
    let mut cold_lat = Vec::new();
    let mut warm_lat = Vec::new();
    for handle in clients {
        let mut rounds = handle.join().expect("client thread").into_iter();
        cold_lat.append(&mut rounds.next().expect("cold round"));
        for mut bucket in rounds {
            warm_lat.append(&mut bucket);
        }
    }
    let wall = wall.elapsed();

    // Quiet warm-latency phase: one client, closed loop, warm engine —
    // the per-request network and framing overhead without contention,
    // stable enough for the time gate (the concurrent percentiles above
    // are scheduler-dependent, so they are reported as info only).
    const PASSES: usize = 6;
    let mut quiet = Vec::new();
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut response = String::new();
        for _ in 0..PASSES {
            for line in lines.iter() {
                let sent = Instant::now();
                stream.write_all(line.as_bytes()).expect("send request");
                response.clear();
                reader.read_line(&mut response).expect("read response");
                quiet.push(sent.elapsed());
            }
        }
    } // dropping the stream closes the connection

    server.drain();
    let net = server.join();
    let store = net_engine.stats().store.expect("store attached");
    let _ = std::fs::remove_dir_all(&store_dir);

    let rps = (CLIENTS * ROUNDS * closed_cases) as f64 / wall.as_secs_f64().max(1e-9);
    cold_lat.sort_unstable();
    warm_lat.sort_unstable();
    quiet.sort_unstable();
    let cold_p50 = percentile(&cold_lat, 0.50);
    let mixed_p50 = percentile(&warm_lat, 0.50);
    let mixed_p99 = percentile(&warm_lat, 0.99);
    let quiet_p50 = percentile(&quiet, 0.50);
    let quiet_p99 = percentile(&quiet, 0.99);

    human.push_str(&format!(
        "\nserve-net: {CLIENTS} clients x {ROUNDS} rounds x {closed_cases} closed cases over loopback TCP\n"
    ));
    let mut net_table = Table::new(["phase", "p50", "p99"]);
    net_table.row([
        format!("cold round ({CLIENTS} clients)"),
        fmt_ms(cold_p50),
        fmt_ms(percentile(&cold_lat, 0.99)),
    ]);
    net_table.row([
        format!("warm rounds ({CLIENTS} clients)"),
        fmt_ms(mixed_p50),
        fmt_ms(mixed_p99),
    ]);
    net_table.row([
        "warm quiet (1 client)".to_owned(),
        fmt_ms(quiet_p50),
        fmt_ms(quiet_p99),
    ]);
    human.push_str(&net_table.render());
    human.push_str(&format!(
        "sustained: {rps:.0} responses/s   store: {} admits, {} entries\n",
        store.admits, store.entries
    ));

    // The size-dependent front door: one cold ~33 KB `solve` line
    // through `answer_line` + `to_line` (a fresh engine per run, so
    // every run misses), and the request decode of a ~175 KB line.
    let solve_line = |sessions: usize| {
        format!(
            "{{\"op\":\"solve\",\"process\":\"{}\"}}",
            escape(&workloads::interleaved_source(sessions, 4, 1))
        )
    };
    let line = solve_line(200);
    let cold_solve = || {
        let cold_engine = AnalysisEngine::with_jobs(1);
        timed(|| {
            let response = answer_line(&cold_engine, &line).remove(0);
            std::hint::black_box(response.to_line());
            response
        })
    };
    // One untimed run first: its first-touch costs are not the front
    // door's.
    let (response, _) = cold_solve();
    assert!(response.is_ok() && !response.cached, "{}", response.body);
    let body_bytes = response.body.len();
    let mut runs = 0u32;
    let mut solve_total = Duration::ZERO;
    while runs == 0 || solve_total < budget(smoke) {
        solve_total += cold_solve().1;
        runs += 1;
    }
    let solve_cold = solve_total / runs;
    let big = solve_line(1000);
    let decode = timed_stable(budget(smoke), || {
        std::hint::black_box(Json::parse(&big).expect("valid line"));
    });
    human.push_str(&format!(
        "\nfront door: cold solve 200x4 ({} B line, {body_bytes} B body) {}   decode 1000x4 ({} B line) {}\n",
        line.len(),
        fmt_ms(solve_cold),
        big.len(),
        fmt_ms(decode)
    ));

    let mut report = BenchReport::new("engine", smoke);
    report.time("cold-batch", cold);
    report.time("warm-batch", warm);
    report.info("speedup", speedup, "x");
    report.info("hit-rate", stats.hit_rate(), "ratio");
    report.exact("cases", cases as u64);
    report.exact("cache/hits", stats.cache.hits);
    report.exact("cache/misses", stats.cache.misses);
    report.exact("cache/entries", stats.cache_entries as u64);
    report.time("serve-net/quiet-p50", quiet_p50);
    report.info("serve-net/quiet-p99", quiet_p99.as_secs_f64() * 1e3, "ms");
    report.info("serve-net/mixed-p50", mixed_p50.as_secs_f64() * 1e3, "ms");
    report.info("serve-net/mixed-p99", mixed_p99.as_secs_f64() * 1e3, "ms");
    report.info("serve-net/cold-p50", cold_p50.as_secs_f64() * 1e3, "ms");
    report.info("serve-net/rps", rps, "resp/s");
    report.exact("serve-net/clients", CLIENTS as u64);
    report.exact("serve-net/responses", net.responses);
    report.exact("serve-net/store-admits", store.admits);
    report.exact("serve-net/store-entries", store.entries);
    report.time("frontdoor/solve-200x4", solve_cold);
    report.exact("frontdoor/solve-200x4/body-bytes", body_bytes as u64);
    report.time("jsonio/decode-1000x4", decode);
    SuiteRun { human, report }
}

/// Lint overhead over a bare attacked solve, per protocol, plus the
/// solver-free syntactic pass.
pub fn lint_suite(smoke: bool) -> SuiteRun {
    let b = budget(smoke);
    let mut report = BenchReport::new("lint", smoke);
    let mut human = String::from("bench_lint: full lint vs bare solve vs syntactic-only\n\n");
    let mut table = Table::new([
        "protocol",
        "bare solve",
        "full lint",
        "lattice-4 lint",
        "syntactic only",
        "lint/solve",
    ]);
    let specs = suite();
    report.exact("protocols", specs.len() as u64);
    let lat = SecLattice::diamond4();
    for spec in specs {
        let secret = spec.policy.secrets().collect();
        // The lattice-4 column lints the same protocol under a graded
        // diamond-4 policy with the same secrets: everything the binary
        // run does, plus the AbstractLevel fixpoint and the E009 pass.
        let mut graded_policy = Policy::with_lattice(lat.clone());
        for s in spec.policy.secrets() {
            graded_policy.add_secret(s);
        }
        let t_solve = timed_stable(b, || {
            let _ = analyze_with_attacker(&spec.process, &secret);
        });
        let t_lint = timed_stable(b, || {
            let _ = lint(&spec.process, &spec.policy);
        });
        let t_lint4 = timed_stable(b, || {
            let _ = lint(&spec.process, &graded_policy);
        });
        let t_syn = timed_stable(b, || {
            let ctx = LintContext::new(&spec.process, &spec.policy);
            let _ = PassRegistry::syntactic_only().run(&ctx);
        });
        table.row([
            spec.name.to_owned(),
            fmt_ms(t_solve),
            fmt_ms(t_lint),
            fmt_ms(t_lint4),
            format!("{:.4}ms", t_syn.as_secs_f64() * 1e3),
            format!("{:.2}x", t_lint.as_secs_f64() / t_solve.as_secs_f64()),
        ]);
        report.time(&format!("solve/{}", spec.name), t_solve);
        report.time(&format!("lint/{}", spec.name), t_lint);
        report.time(&format!("lint4/{}", spec.name), t_lint4);
        report.time(&format!("syntactic/{}", spec.name), t_syn);
        report.info(
            &format!("ratio/{}", spec.name),
            t_lint.as_secs_f64() / t_solve.as_secs_f64(),
            "x",
        );
    }
    human.push_str(&table.render());
    SuiteRun { human, report }
}

/// The `examples/lang/` ladder, embedded at compile time so the suite
/// measures exactly the committed programs.
const LANG_LADDER: &[(&str, &str)] = &[
    (
        "01_hello",
        include_str!("../../../examples/lang/01_hello.nu"),
    ),
    (
        "02_channels",
        include_str!("../../../examples/lang/02_channels.nu"),
    ),
    (
        "03_channels_leak",
        include_str!("../../../examples/lang/03_channels_leak.nu"),
    ),
    (
        "04_functions",
        include_str!("../../../examples/lang/04_functions.nu"),
    ),
    (
        "05_functions_leak",
        include_str!("../../../examples/lang/05_functions_leak.nu"),
    ),
    (
        "06_cycle",
        include_str!("../../../examples/lang/06_cycle.nu"),
    ),
    (
        "07_cycle_leak",
        include_str!("../../../examples/lang/07_cycle_leak.nu"),
    ),
    (
        "08_secret",
        include_str!("../../../examples/lang/08_secret.nu"),
    ),
    (
        "09_secret_leak",
        include_str!("../../../examples/lang/09_secret_leak.nu"),
    ),
    (
        "10_graded",
        include_str!("../../../examples/lang/10_graded.nu"),
    ),
    (
        "11_graded_leak",
        include_str!("../../../examples/lang/11_graded_leak.nu"),
    ),
    (
        "12_hidden_leak",
        include_str!("../../../examples/lang/12_hidden_leak.nu"),
    ),
];

/// The annotated-source frontend over the `examples/lang/` ladder:
/// frontend-only (parse + lower) vs the full source-to-verdict check
/// per program, plus the engine's `analyze_source` path cold vs warm.
pub fn lang(smoke: bool) -> SuiteRun {
    const WARM_ROUNDS: u32 = 5;
    let b = budget(smoke);
    let mut report = BenchReport::new("lang", smoke);
    let mut human = String::from("bench_lang: annotated-source frontend over the ladder\n\n");

    let mut table = Table::new(["program", "parse+lower", "full check", "verdict"]);
    let mut insecure = 0u64;
    for (name, src) in LANG_LADDER {
        let t_front = timed_stable(b, || {
            let _ = nuspi_lang::compile(name, src).expect("ladder program compiles");
        });
        let report_run = nuspi_lang::check(name, src);
        let verdict = report_run.verdict.as_str();
        if verdict == "insecure" {
            insecure += 1;
        }
        let t_check = timed_stable(b, || {
            let _ = nuspi_lang::check(name, src);
        });
        table.row([
            (*name).to_owned(),
            format!("{:.4}ms", t_front.as_secs_f64() * 1e3),
            fmt_ms(t_check),
            verdict.to_owned(),
        ]);
        report.time(&format!("frontend/{name}"), t_front);
        report.time(&format!("check/{name}"), t_check);
    }
    human.push_str(&table.render());
    report.exact("ladder/programs", LANG_LADDER.len() as u64);
    report.exact("ladder/insecure", insecure);

    // The secure ring must be explored whole: modulo `Q | !Q ≡ !Q` its
    // carefulness exploration revisits states instead of truncating.
    let (_, ring_src) = LANG_LADDER
        .iter()
        .find(|(name, _)| *name == "06_cycle")
        .expect("06_cycle is on the ladder");
    let ring = nuspi_lang::compile("06_cycle", ring_src).expect("ladder program compiles");
    let ring_run = carefulness(&ring.process, &ring.policy, &ExecConfig::default());
    human.push_str(&format!(
        "\ncarefulness/06_cycle: {} state(s), truncated: {}\n",
        ring_run.stats.states, ring_run.stats.truncated
    ));
    report.exact("carefulness/06_cycle/states", ring_run.stats.states as u64);
    report.exact(
        "carefulness/06_cycle/truncated",
        u64::from(ring_run.stats.truncated),
    );

    // The engine path: a cold batch computes every program, warm
    // batches are pure cache hits (the key is the lowered process's
    // α-invariant digest, so a formatting edit would hit too).
    let engine = AnalysisEngine::with_jobs(0);
    let requests: Vec<Request> = LANG_LADDER
        .iter()
        .map(|(name, src)| Request::AnalyzeSource {
            file: format!("{name}.nu"),
            source: (*src).to_owned(),
        })
        .collect();
    let (cold_responses, cold) = timed(|| engine.submit_requests(requests.clone()));
    assert!(
        cold_responses.iter().all(Response::is_ok),
        "cold analyze_source batch must succeed"
    );
    let mut warm_total = Duration::ZERO;
    for round in 0..WARM_ROUNDS {
        let (responses, took) = timed(|| engine.submit_requests(requests.clone()));
        assert!(
            responses.iter().all(|r| r.cached),
            "warm round {round} must be served from the cache"
        );
        warm_total += took;
    }
    let warm = warm_total / WARM_ROUNDS;
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
    human.push_str(&format!(
        "\nengine analyze_source: cold {} warm {} speedup {speedup:.1}x\n",
        fmt_ms(cold),
        fmt_ms(warm)
    ));
    report.time("engine/cold-batch", cold);
    report.time("engine/warm-batch", warm);
    report.info("engine/speedup", speedup, "x");
    let stats = engine.stats();
    report.exact("engine/cache-hits", stats.cache.hits);
    report.exact("engine/cache-misses", stats.cache.misses);

    human.push_str("bench_lang done.\n");
    SuiteRun { human, report }
}

/// The operational-semantics engine: evaluation, commitment enumeration,
/// and bounded exploration.
pub fn semantics(smoke: bool) -> SuiteRun {
    let b = budget(smoke);
    let mut report = BenchReport::new("semantics", smoke);
    let mut human = String::from("bench_semantics: evaluation, commitments, exploration\n\n");
    let mut table = Table::new(["benchmark", "mean time"]);

    for depth in [2usize, 8, 32] {
        let mut e = builder::zero();
        for i in 0..depth {
            e = builder::enc(
                vec![e],
                Name::global(format!("r{i}").as_str()),
                builder::name("k"),
            );
        }
        let t = timed_stable(b, || {
            eval(&e, EvalMode::NuSpi).unwrap();
        });
        table.row([
            format!("eval/nested-encryption-{depth}"),
            format!("{:.4}ms", t.as_secs_f64() * 1e3),
        ]);
        report.time(&format!("eval/nested-encryption-{depth}"), t);
    }

    let wmf_p = wmf::wmf().process;
    let t = timed_stable(b, || {
        let _ = commitments(&wmf_p, &CommitConfig::default());
    });
    table.row(["commitments/wmf-initial".to_owned(), fmt_ms(t)]);
    report.time("commitments/wmf-initial", t);
    report.exact(
        "commitments/wmf-initial/count",
        commitments(&wmf_p, &CommitConfig::default()).len() as u64,
    );
    let broadcast = workloads::star_broadcast(16);
    let t = timed_stable(b, || {
        let _ = commitments(&broadcast, &CommitConfig::default());
    });
    table.row(["commitments/star-broadcast-16".to_owned(), fmt_ms(t)]);
    report.time("commitments/star-broadcast-16", t);

    let t = timed_stable(b, || {
        let _ = explore_tau(&wmf_p, &ExecConfig::default(), |_, _| true);
    });
    table.row(["explore/wmf-exhaustive".to_owned(), fmt_ms(t)]);
    report.time("explore/wmf-exhaustive", t);
    let chain = workloads::relay_chain(8);
    let t = timed_stable(b, || {
        let _ = explore_tau(&chain, &ExecConfig::default(), |_, _| true);
    });
    table.row(["explore/relay-chain-8".to_owned(), fmt_ms(t)]);
    report.time("explore/relay-chain-8", t);

    human.push_str(&table.render());
    human.push_str("bench_semantics done.\n");
    SuiteRun { human, report }
}

/// The security layer: confinement per protocol, the carefulness
/// monitor, the Dolev–Yao closure, and the bounded intruder on a
/// known-broken protocol.
pub fn security(smoke: bool) -> SuiteRun {
    let b = budget(smoke);
    let mut report = BenchReport::new("security", smoke);
    let mut human = String::from("bench_security: confinement, carefulness, Dolev-Yao\n\n");
    let mut table = Table::new(["benchmark", "mean time"]);

    let mut confined = 0u64;
    for spec in suite() {
        let t = timed_stable(b, || {
            let _ = confinement(&spec.process, &spec.policy);
        });
        table.row([format!("confinement/{}", spec.name), fmt_ms(t)]);
        report.time(&format!("confinement/{}", spec.name), t);
        if confinement(&spec.process, &spec.policy).is_confined() {
            confined += 1;
        }
    }
    report.exact("confinement/confined-count", confined);

    let spec = wmf::wmf();
    let cfg = ExecConfig::default();
    let t = timed_stable(b, || {
        let _ = carefulness(&spec.process, &spec.policy, &cfg);
    });
    table.row(["carefulness/wmf".to_owned(), fmt_ms(t)]);
    report.time("carefulness/wmf", t);

    for n in [8usize, 32, 128] {
        let t = timed_stable(b, || {
            let mut k = Knowledge::from_names(["c"]);
            // A chain of ciphertexts, each key released by the next.
            for i in (0..n).rev() {
                let key = format!("k{i}");
                let next = format!("k{}", i + 1);
                k.learn(Value::enc(
                    vec![Value::name(next.as_str())],
                    Name::global("r"),
                    Value::name(key.as_str()),
                ));
            }
            k.learn(Value::name("k0"));
            assert!(k.can_derive(&Value::name(format!("k{n}").as_str())));
        });
        table.row([format!("dolev-yao/closure-{n}"), fmt_ms(t)]);
        report.time(&format!("dolev-yao/closure-{n}"), t);
    }

    let spec = wmf::wmf_key_in_clear();
    let k0 = Knowledge::from_names(spec.public_channels.iter().copied());
    let icfg = IntruderConfig::default();
    let t = timed_stable(b, || {
        reveals(&spec.process, &k0, Symbol::intern("m"), &icfg).expect("attack must be found");
    });
    table.row(["dolev-yao/attack-wmf-key-in-clear".to_owned(), fmt_ms(t)]);
    report.time("dolev-yao/attack-wmf-key-in-clear", t);

    human.push_str(&table.render());
    human.push_str("bench_security done.\n");
    SuiteRun { human, report }
}

/// The bounded hedged-bisimulation backend: direct twin games, the
/// dynamic Theorem 5 oracle on honest and flawed protocols, the miner's
/// mutant enumeration, and the engine's cached `equiv` path. Verdict
/// codes (0 bisimilar / 1 distinguished / 2 unknown) and play meters are
/// exact canaries — the game is deterministic by construction, so any
/// drift is a behavioural change, not noise.
pub fn equiv(smoke: bool) -> SuiteRun {
    const WARM_ROUNDS: u32 = 5;
    let b = budget(smoke);
    let mut report = BenchReport::new("equiv", smoke);
    let mut human = String::from("bench_equiv: bounded hedged-bisimulation games\n\n");
    // Pinned budgets (the golden wall's): baselines survive default
    // re-tunes, and smoke and full mode play the identical game.
    let cfg = EquivConfig {
        game_depth: 5,
        max_plays: 4_000,
        tau_depth: 20,
        tau_states: 600,
        max_injections: 16,
        ..EquivConfig::default()
    };
    let verdict_code = |v: &Verdict| -> u64 {
        match v {
            Verdict::Bisimilar => 0,
            Verdict::Distinguished { .. } => 1,
            Verdict::Unknown { .. } => 2,
        }
    };
    let public_names = |spec: &nuspi_protocols::ProtocolSpec, other: &Process| -> Vec<Symbol> {
        let mut v: Vec<Symbol> = spec
            .process
            .free_names()
            .into_iter()
            .chain(other.free_names())
            .map(|n| n.canonical())
            .filter(|s| spec.policy.is_public(*s))
            .chain(spec.public_channels.iter().copied())
            .collect();
        v.sort_by_key(|s| s.as_str().to_owned());
        v.dedup();
        v
    };

    // Direct games: the small binder pairs plus each honest/broken twin.
    let mut table = Table::new(["game", "mean time", "verdict", "plays"]);
    let small: Vec<(String, Process, Process, Vec<Symbol>)> = vec![
        (
            "new-vs-hide".to_owned(),
            parse_process("(new n) c<n>.0").unwrap(),
            parse_process("(hide n) c<n>.0").unwrap(),
            vec![Symbol::intern("c")],
        ),
        (
            "sealed-twins".to_owned(),
            parse_process("(new k) c<{a, new r}:k>.0").unwrap(),
            parse_process("(new k2) c<{b, new r2}:k2>.0").unwrap(),
            vec![
                Symbol::intern("a"),
                Symbol::intern("b"),
                Symbol::intern("c"),
            ],
        ),
    ];
    let twins: Vec<(String, Process, Process, Vec<Symbol>)> = broken_twins()
        .into_iter()
        .map(|(honest, broken)| {
            let public = public_names(&honest, &broken.process);
            (
                format!("{}-vs-{}", honest.name, broken.name),
                honest.process,
                broken.process,
                public,
            )
        })
        .collect();
    for (name, left, right, public) in small.iter().chain(&twins) {
        let t = timed_stable(b, || {
            let _ = check(left, right, public, &cfg);
        });
        let r = check(left, right, public, &cfg);
        table.row([
            format!("game/{name}"),
            fmt_ms(t),
            r.verdict.tag().to_owned(),
            r.plays.to_string(),
        ]);
        report.time(&format!("game/{name}"), t);
        report.exact(&format!("game/{name}/verdict"), verdict_code(&r.verdict));
        report.exact(&format!("game/{name}/plays"), r.plays as u64);
        if !t.is_zero() {
            report.info(
                &format!("game/{name}/plays-per-sec"),
                r.plays as f64 / t.as_secs_f64(),
                "plays/s",
            );
        }
    }
    human.push_str(&table.render());
    human.push('\n');

    // The Theorem 5 oracle on one honest and one flawed protocol per
    // twin family: the flawed side must come out distinguished.
    let mut oracle_table = Table::new(["oracle", "mean time", "verdict", "plays"]);
    for spec in suite().into_iter().filter(|s| {
        matches!(
            s.name,
            "wmf" | "wmf-key-in-clear" | "ns-lowe" | "ns-lowe-no-identity"
        )
    }) {
        let (open, x) = spec
            .process
            .abstract_restriction(spec.secret)
            .expect("suite spec abstracts");
        let public = public_names(&spec, &open);
        let t = timed_stable(b, || {
            let _ = independence_oracle(&open, x, &public, &cfg);
        });
        let r = independence_oracle(&open, x, &public, &cfg);
        oracle_table.row([
            format!("oracle/{}", spec.name),
            fmt_ms(t),
            r.verdict.tag().to_owned(),
            r.plays.to_string(),
        ]);
        report.time(&format!("oracle/{}", spec.name), t);
        report.exact(
            &format!("oracle/{}/verdict", spec.name),
            verdict_code(&r.verdict),
        );
        report.exact(&format!("oracle/{}/plays", spec.name), r.plays as u64);
    }
    // One oracle at the engine's default budgets, the ones `nuspi serve`
    // plays: denning-sacco runs into the 20,000-play cap, as six of the
    // nine honest zoo oracle pairs do.
    let spec = suite()
        .into_iter()
        .find(|s| s.name == "denning-sacco")
        .expect("denning-sacco is a zoo spec");
    let (open, x) = spec
        .process
        .abstract_restriction(spec.secret)
        .expect("suite spec abstracts");
    let public = public_names(&spec, &open);
    let defaults = EquivConfig::default();
    let t = timed_stable(b, || {
        let _ = independence_oracle(&open, x, &public, &defaults);
    });
    let r = independence_oracle(&open, x, &public, &defaults);
    oracle_table.row([
        "oracle-default/denning-sacco".to_owned(),
        fmt_ms(t),
        r.verdict.tag().to_owned(),
        r.plays.to_string(),
    ]);
    report.time("oracle-default/denning-sacco", t);
    report.exact(
        "oracle-default/denning-sacco/verdict",
        verdict_code(&r.verdict),
    );
    report.exact("oracle-default/denning-sacco/plays", r.plays as u64);
    human.push_str(&oracle_table.render());
    human.push('\n');

    // The miner: enumeration cost and mutant counts for the honest twins.
    let mut miner_table = Table::new(["miner", "mean time", "mutants"]);
    for (honest, _) in broken_twins() {
        let t = timed_stable(b, || {
            let _ = mutations(&honest.process);
        });
        let count = mutations(&honest.process).len() as u64;
        miner_table.row([
            format!("miner/{}", honest.name),
            fmt_ms(t),
            count.to_string(),
        ]);
        report.time(&format!("miner/{}", honest.name), t);
        report.exact(&format!("miner/{}/mutants", honest.name), count);
    }
    human.push_str(&miner_table.render());
    human.push('\n');

    // The engine path: a cold `equiv` batch, then pure pair-digest cache
    // hits — order-swapped on the warm rounds to exercise the
    // order-independent key.
    let engine = AnalysisEngine::new(nuspi_engine::EngineConfig {
        jobs: 0,
        equiv: cfg,
        ..nuspi_engine::EngineConfig::default()
    });
    let pairs: Vec<(String, String)> = small
        .iter()
        .chain(&twins)
        .map(|(_, l, r, _)| (l.to_string(), r.to_string()))
        .collect();
    let cold_requests: Vec<Request> = pairs.iter().map(|(l, r)| Request::equiv(l, r)).collect();
    let warm_requests: Vec<Request> = pairs.iter().map(|(l, r)| Request::equiv(r, l)).collect();
    let (cold_responses, cold) = timed(|| engine.submit_requests(cold_requests));
    assert!(
        cold_responses.iter().all(Response::is_ok),
        "cold equiv batch must succeed"
    );
    let mut warm_total = Duration::ZERO;
    for round in 0..WARM_ROUNDS {
        let (responses, took) = timed(|| engine.submit_requests(warm_requests.clone()));
        assert!(
            responses.iter().all(|r| r.cached),
            "warm round {round} must hit the pair-digest cache"
        );
        warm_total += took;
    }
    let warm = warm_total / WARM_ROUNDS;
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
    human.push_str(&format!(
        "engine equiv: cold {} warm (order-swapped) {} speedup {speedup:.1}x\n",
        fmt_ms(cold),
        fmt_ms(warm)
    ));
    report.time("engine/cold-batch", cold);
    report.time("engine/warm-batch", warm);
    report.info("engine/speedup", speedup, "x");
    let stats = engine.stats();
    report.exact("engine/cache-hits", stats.cache.hits);
    report.exact("engine/cache-misses", stats.cache.misses);
    report.exact("engine/cases", pairs.len() as u64);

    human.push_str("bench_equiv done.\n");
    SuiteRun { human, report }
}

/// Design-choice ablations: attacker closure on/off, replication
/// budget, and νSPI vs classic-spi evaluation.
pub fn ablation(smoke: bool) -> SuiteRun {
    let b = budget(smoke);
    let mut report = BenchReport::new("ablation", smoke);
    let mut human = String::from("bench_ablation: design-choice ablations\n\n");
    let mut table = Table::new(["benchmark", "mean time"]);

    for n in [2usize, 4, 8] {
        let p = workloads::wmf_sessions(n);
        let secrets: HashSet<_> = (0..n)
            .flat_map(|i| {
                [
                    format!("m{i}"),
                    format!("kAS{i}"),
                    format!("kBS{i}"),
                    format!("kAB{i}"),
                ]
            })
            .map(|s| Symbol::intern(&s))
            .collect();
        let t = timed_stable(b, || {
            let _ = analyze(&p);
        });
        table.row([format!("attacker-closure/plain-{n}"), fmt_ms(t)]);
        report.time(&format!("attacker-closure/plain-{n}"), t);
        let t = timed_stable(b, || {
            let _ = analyze_with_attacker(&p, &secrets);
        });
        table.row([format!("attacker-closure/closed-{n}"), fmt_ms(t)]);
        report.time(&format!("attacker-closure/closed-{n}"), t);
    }

    let p = parse_process("!(ping<0>.0 | ping(x).pong<x>.0)").unwrap();
    for rep in [1u32, 2, 3] {
        let cfg = CommitConfig {
            mode: EvalMode::NuSpi,
            rep_budget: rep,
        };
        let t = timed_stable(b, || {
            let _ = commitments(&p, &cfg);
        });
        table.row([format!("rep-budget/{rep}"), fmt_ms(t)]);
        report.time(&format!("rep-budget/{rep}"), t);
    }

    let mut e = builder::zero();
    for i in 0..16 {
        e = builder::enc(
            vec![e],
            Name::global(format!("r{i}").as_str()),
            builder::name("k"),
        );
    }
    let t = timed_stable(b, || {
        eval(&e, EvalMode::NuSpi).unwrap();
    });
    table.row(["eval-mode/nuspi-fresh-confounders".to_owned(), fmt_ms(t)]);
    report.time("eval-mode/nuspi-fresh-confounders", t);
    let t = timed_stable(b, || {
        eval(&e, EvalMode::ClassicSpi).unwrap();
    });
    table.row(["eval-mode/classic-spi".to_owned(), fmt_ms(t)]);
    report.time("eval-mode/classic-spi", t);

    human.push_str(&table.render());
    human.push_str("bench_ablation done.\n");
    SuiteRun { human, report }
}
