//! `nuspi` — command-line front end for the νSPI analyses.
//!
//! ```text
//! nuspi check   <file> [--secret NAME]...        audit: confinement + carefulness + intruder
//! nuspi check   <file.nu> [--json]               compile an annotated source program and lint it
//! nuspi analyze <file> [--secret NAME]... [--attacker] [--depth N] [--summary]
//!                                                print the least estimate (ρ, κ, ζ)
//! nuspi run     <file> [--steps N] [--seed N] [--classic]
//!                                                random simulation, printing the trace
//! nuspi explore <file> [--max-depth N] [--max-states N]
//!                                                bounded state-space statistics
//! nuspi explain <file> [--secret NAME]...        narrate how secrets reach public channels
//! nuspi lint    <file> [--secret NAME]... [--json]
//!                                                multi-pass diagnostics with witness traces
//! nuspi equiv   <left> <right> [--json]          bounded hedged-bisimilarity of two processes
//! nuspi serve   [--jobs N] [--cache-bytes N]     JSON-lines analysis service on stdin/stdout
//! nuspi serve   --listen ADDR [--cache-dir DIR]  ... or on a TCP socket, with an optional
//!                                                persistent response store
//! nuspi cache   <stats|ls|verify|compact> --cache-dir DIR
//!                                                inspect a persistent store directory
//! ```
//!
//! `<file>` may be `-` for stdin. Exit status: 0 on success/secure, 1 on
//! an insecure verdict, 2 on usage or parse errors. `serve` takes no
//! file: it reads one JSON request per line from stdin and writes one
//! JSON response per line to stdout until end of input. With `--listen`
//! the same protocol runs per TCP connection instead; stdin is held
//! open as the lifetime handle — end of stdin triggers a graceful
//! drain (stop accepting, flush in-flight responses, exit).

use nuspi::{Analyzer, EvalMode, ExecConfig, Policy};
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("nuspi: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  nuspi check   <file> [--secret NAME]...
  nuspi check   <file.nu> [--json]
  nuspi analyze <file> [--secret NAME]... [--attacker] [--depth N] [--summary]
  nuspi run     <file> [--steps N] [--seed N] [--classic] [--msc]
  nuspi explore <file> [--max-depth N] [--max-states N]
  nuspi explain <file> [--secret NAME]...
  nuspi lint    <file> [--secret NAME]... [--json]
  nuspi equiv   <left> <right> [--json]
  nuspi serve   [--jobs N] [--cache-bytes N] [--trace FILE]
                [--listen ADDR] [--cache-dir DIR] [--max-conns N] [--idle-ms N]
                [--queue-depth N] [--store-bytes N] [--store-min-ms N]
  nuspi cache   <stats|ls|verify|compact> --cache-dir DIR";

struct Opts {
    file: Option<String>,
    secrets: Vec<String>,
    attacker: bool,
    classic: bool,
    msc: bool,
    summary: bool,
    json: bool,
    depth: usize,
    steps: usize,
    seed: u64,
    max_depth: usize,
    max_states: usize,
    jobs: usize,
    cache_bytes: usize,
    trace: Option<String>,
    listen: Option<String>,
    cache_dir: Option<String>,
    max_conns: usize,
    idle_ms: u64,
    queue_depth: usize,
    store_bytes: u64,
    store_min_ms: u64,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        file: None,
        secrets: Vec::new(),
        attacker: false,
        classic: false,
        msc: false,
        summary: false,
        json: false,
        depth: 3,
        steps: 64,
        seed: 0,
        max_depth: 24,
        max_states: 4096,
        jobs: 0,
        cache_bytes: 0,
        trace: None,
        listen: None,
        cache_dir: None,
        max_conns: 64,
        idle_ms: 300_000,
        queue_depth: 32,
        store_bytes: 0,
        store_min_ms: 0,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match a.as_str() {
            "--secret" => o
                .secrets
                .push(it.next().ok_or("--secret needs a name")?.clone()),
            "--attacker" => o.attacker = true,
            "--classic" => o.classic = true,
            "--msc" => o.msc = true,
            "--summary" => o.summary = true,
            "--json" => o.json = true,
            "--depth" => o.depth = num("--depth")? as usize,
            "--steps" => o.steps = num("--steps")? as usize,
            "--seed" => o.seed = num("--seed")?,
            "--max-depth" => o.max_depth = num("--max-depth")? as usize,
            "--max-states" => o.max_states = num("--max-states")? as usize,
            "--jobs" => o.jobs = num("--jobs")? as usize,
            "--cache-bytes" => o.cache_bytes = num("--cache-bytes")? as usize,
            "--trace" => o.trace = Some(it.next().ok_or("--trace needs a file")?.clone()),
            "--listen" => o.listen = Some(it.next().ok_or("--listen needs an address")?.clone()),
            "--cache-dir" => {
                o.cache_dir = Some(it.next().ok_or("--cache-dir needs a directory")?.clone());
            }
            "--max-conns" => o.max_conns = (num("--max-conns")? as usize).max(1),
            "--idle-ms" => o.idle_ms = num("--idle-ms")?,
            "--queue-depth" => o.queue_depth = (num("--queue-depth")? as usize).max(1),
            "--store-bytes" => o.store_bytes = num("--store-bytes")?,
            "--store-min-ms" => o.store_min_ms = num("--store-min-ms")?,
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ if o.file.is_none() => o.file = Some(a.clone()),
            _ => return Err(format!("unexpected argument {a}")),
        }
    }
    Ok(o)
}

/// `nuspi equiv <left> <right> [--json]`: bounded hedged-bisimilarity
/// through the analysis engine (one in-process worker), so the CLI, the
/// pipe service and the TCP service render the same cached body. Exit
/// status: 0 bisimilar, 1 distinguished, 3 unknown (budgets exhausted),
/// 2 usage/parse errors.
fn run_equiv(args: &[String]) -> Result<ExitCode, String> {
    let mut files: Vec<String> = Vec::new();
    let mut json = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            _ if a.starts_with("--") => return Err(format!("unknown flag {a} for equiv")),
            _ => files.push(a.clone()),
        }
    }
    let [left, right] = files.as_slice() else {
        return Err("equiv needs exactly <left> and <right> files".into());
    };
    let (ls, rs) = (read_source(left)?, read_source(right)?);
    let engine = nuspi::engine::AnalysisEngine::new(nuspi::engine::EngineConfig {
        jobs: 1,
        ..Default::default()
    });
    let resp = engine.submit(nuspi::engine::Request::equiv(&ls, &rs));
    if !resp.is_ok() {
        // A parse error in either file: surface the engine's message.
        return Err(resp
            .body
            .split("\"error\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap_or("equiv failed")
            .to_owned());
    }
    if json {
        println!("{}", resp.to_line());
    } else {
        print!("{}", render_equiv_body(&resp.body));
    }
    let verdict = |tag: &str| resp.body.contains(&format!("\"verdict\":\"{tag}\""));
    Ok(if verdict("bisimilar") {
        ExitCode::SUCCESS
    } else if verdict("distinguished") {
        ExitCode::FAILURE
    } else {
        ExitCode::from(3)
    })
}

/// Human rendering of an `equiv` response body.
fn render_equiv_body(body: &str) -> String {
    let field = |k: &str| {
        body.split(&format!("\"{k}\":\""))
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap_or("?")
            .to_owned()
    };
    let list = |k: &str| -> Vec<String> {
        let Some(rest) = body.split(&format!("\"{k}\":[")).nth(1) else {
            return Vec::new();
        };
        let Some(arr) = rest.split(']').next() else {
            return Vec::new();
        };
        arr.split("\",\"")
            .map(|s| s.trim_matches('"').replace("\\\"", "\""))
            .filter(|s| !s.is_empty())
            .collect()
    };
    let mut out = format!("verdict: {}\n", field("verdict"));
    match field("verdict").as_str() {
        "distinguished" => {
            out.push_str("attacker strategy:\n");
            for step in list("trace") {
                out.push_str(&format!("  {step}\n"));
            }
        }
        "unknown" => {
            out.push_str(&format!(
                "exhausted budgets: {}\n",
                list("budgets").join(", ")
            ));
        }
        _ => {}
    }
    out
}

fn read_source(file: &str) -> Result<String, String> {
    if file == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("stdin: {e}"))?;
        Ok(s)
    } else {
        std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    if cmd == "help" || cmd == "--help" || cmd == "-h" {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    if cmd == "equiv" {
        // Two positional files: handled before the generic option parser
        // (which reserves the single <file> slot).
        return run_equiv(&args[1..]);
    }
    let o = parse_opts(&args[1..])?;
    if cmd == "serve" {
        if o.file.is_some() {
            return Err("serve takes no <file>; requests arrive on stdin or --listen".into());
        }
        let mut engine = nuspi::engine::AnalysisEngine::new(nuspi::engine::EngineConfig {
            jobs: o.jobs,
            cache_bytes: o.cache_bytes,
            ..Default::default()
        });
        if let Some(dir) = &o.cache_dir {
            let store = nuspi::net::DiskStore::open(nuspi::net::StoreConfig {
                dir: dir.into(),
                max_bytes: o.store_bytes,
                min_compute: std::time::Duration::from_millis(o.store_min_ms),
                fsync: true,
            })
            .map_err(|e| format!("--cache-dir {dir}: {e}"))?;
            engine.set_store(std::sync::Arc::new(store));
        }
        if o.trace.is_some() {
            nuspi::obs::enable();
        }
        if let Some(addr) = &o.listen {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("--listen {addr}: {e}"))?;
            let cfg = nuspi::net::NetConfig {
                max_connections: o.max_conns,
                queue_depth: o.queue_depth,
                idle_timeout: std::time::Duration::from_millis(o.idle_ms.max(1)),
                ..Default::default()
            };
            let server = nuspi::net::spawn(std::sync::Arc::new(engine), listener, cfg)
                .map_err(|e| format!("serve: {e}"))?;
            // Stderr, so stdout stays free for a co-located pipe client
            // and scripts can scrape the bound port (`--listen :0`).
            eprintln!("listening on {}", server.local_addr());
            // Stdin is the lifetime handle: EOF (pipe closed, ^D) means
            // drain — stop accepting, flush in-flight responses, exit.
            let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
            eprintln!("draining");
            server.drain();
            server.join();
        } else {
            nuspi::engine::serve(&engine, std::io::stdin().lock(), std::io::stdout().lock())
                .map_err(|e| format!("serve: {e}"))?;
        }
        if let Some(path) = &o.trace {
            nuspi::obs::disable();
            std::fs::write(path, nuspi::obs::snapshot_jsonl())
                .map_err(|e| format!("--trace {path}: {e}"))?;
            // The summary goes to stderr so response lines stay the only
            // stdout traffic.
            eprint!("{}", nuspi::obs::summary());
            eprintln!("trace written to {path}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if cmd == "cache" {
        let action = o
            .file
            .clone()
            .ok_or("cache needs an action: stats | ls | verify | compact")?;
        let dir = o.cache_dir.clone().ok_or("cache needs --cache-dir DIR")?;
        let dir = std::path::Path::new(&dir);
        let err = |e: std::io::Error| format!("cache {action}: {e}");
        return match action.as_str() {
            "stats" => {
                print!("{}", nuspi::net::inspect::stats(dir).map_err(err)?);
                Ok(ExitCode::SUCCESS)
            }
            "ls" => {
                print!("{}", nuspi::net::inspect::ls(dir).map_err(err)?);
                Ok(ExitCode::SUCCESS)
            }
            "verify" => {
                let (report, ok) = nuspi::net::inspect::verify(dir).map_err(err)?;
                print!("{report}");
                Ok(if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }
            "compact" => {
                print!("{}", nuspi::net::inspect::compact(dir).map_err(err)?);
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unknown cache action `{other}`")),
        };
    }
    let file = o.file.clone().ok_or("missing <file>")?;
    let src = read_source(&file)?;
    if cmd == "check" && file.ends_with(".nu") {
        // Annotated-source programs go through the nuspi-lang frontend;
        // compile failures still render a report (and a JSON document
        // under --json) rather than a bare usage error.
        let report = nuspi::lang::check(&file, &src);
        if o.json {
            print!("{}", nuspi::lang::check_to_json(&report));
        } else {
            print!("{}", nuspi::lang::render_check(&report));
        }
        return Ok(match report.verdict {
            nuspi::lang::Verdict::Secure => ExitCode::SUCCESS,
            nuspi::lang::Verdict::Insecure => ExitCode::FAILURE,
            nuspi::lang::Verdict::Invalid => ExitCode::from(2),
        });
    }
    let process = nuspi::parse_process(&src).map_err(|e| e.to_string())?;
    if !process.is_closed() {
        return Err("process has free variables".into());
    }
    let policy = Policy::with_secrets(o.secrets.iter().map(String::as_str));

    match cmd.as_str() {
        "check" => {
            let analyzer = Analyzer::new().policy(policy);
            let audit = analyzer.audit(&process).map_err(|e| e.to_string())?;
            println!("{audit}");
            if !audit.confinement.is_confined() {
                for v in &audit.confinement.violations {
                    println!("  static: {v}");
                }
            }
            for v in &audit.carefulness.violations {
                println!("  dynamic: {v}");
            }
            for (s, a) in &audit.attacks {
                println!("  attack on {s}:");
                for step in &a.trace {
                    println!("    - {step}");
                }
            }
            Ok(if audit.is_secure() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "analyze" => {
            let solution = if o.attacker {
                let secret = policy.secrets().collect();
                nuspi_cfa::analyze_with_attacker(&process, &secret).solution
            } else {
                nuspi::analyze(&process)
            };
            if o.summary {
                let mut channels = solution.channels();
                channels.sort_by_key(|c| c.as_str());
                println!(
                    "{:<16} {:>7} {:>9} {:>11} {:>13}",
                    "channel", "empty", "finite", "min height", "values (≤h4)"
                );
                for c in channels {
                    let fv = nuspi::FlowVar::Kappa(c);
                    println!(
                        "{:<16} {:>7} {:>9} {:>11} {:>13}",
                        c.as_str(),
                        solution.is_empty_lang(fv),
                        solution.is_finite_lang(fv),
                        solution
                            .min_height(fv)
                            .map(|h| h.to_string())
                            .unwrap_or_else(|| "-".to_owned()),
                        solution.count_upto(fv, 4, 9999),
                    );
                }
            } else {
                print!("{}", solution.render_estimate(o.depth));
            }
            let st = solution.stats();
            println!(
                "-- {} flow vars, {} productions, {} edges, {} conditional firings",
                st.flow_vars, st.productions, st.edges, st.conditional_firings
            );
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let cfg = ExecConfig {
                mode: if o.classic {
                    EvalMode::ClassicSpi
                } else {
                    EvalMode::NuSpi
                },
                ..ExecConfig::default()
            };
            let mut rng = nuspi::semantics::SplitMix64::seed_from_u64(o.seed);
            let trace = nuspi::semantics::run_random(&process, o.steps, &cfg, &mut rng);
            if o.msc {
                print!("{}", nuspi::semantics::render_msc(&trace));
                return Ok(ExitCode::SUCCESS);
            }
            for (i, step) in trace.steps.iter().enumerate() {
                for out in &step.outputs {
                    println!("step {i}: {} ! {}", out.channel, out.value);
                }
                if step.outputs.is_empty() {
                    println!("step {i}: τ");
                }
            }
            if let Some(end) = trace.end {
                println!("-- {} steps, final: {end}", trace.steps.len());
            }
            Ok(ExitCode::SUCCESS)
        }
        "explore" => {
            let cfg = ExecConfig {
                max_depth: o.max_depth,
                max_states: o.max_states,
                ..ExecConfig::default()
            };
            let mut barbs = std::collections::BTreeSet::new();
            let stats = nuspi::semantics::explore_tau(&process, &cfg, |_, cs| {
                for c in cs {
                    if let Some(ch) = c.action.channel() {
                        let dir = if matches!(c.action, nuspi::semantics::Action::In(_)) {
                            "?"
                        } else {
                            "!"
                        };
                        barbs.insert(format!("{}{dir}", ch.canonical()));
                    }
                }
                true
            });
            println!(
                "states: {}, transitions: {}, truncated: {}",
                stats.states, stats.transitions, stats.truncated
            );
            println!(
                "observable barbs: {}",
                barbs.into_iter().collect::<Vec<_>>().join(", ")
            );
            Ok(ExitCode::SUCCESS)
        }
        "explain" => {
            // The flows the lint confinement pass reports, hidden names
            // and all, with their provenance.
            let ctx = nuspi::diagnostics::LintContext::new(&process, &policy);
            let sem = ctx.semantic();
            let report = &sem.confinement;
            let sol = &report.solution;
            let mut flagged = 0;
            for v in &report.violations {
                let nuspi::security::ConfinementViolation::SecretOnPublicChannel { channel: chan } =
                    *v
                else {
                    continue;
                };
                let fv = nuspi::FlowVar::Kappa(chan);
                // Report the root causes, not attacker-recombined junk:
                // secret names, and ciphertexts minted by the process
                // itself.
                let mut prods: Vec<_> = sol
                    .prods_of(fv)
                    .iter()
                    .filter(|prod| match prod {
                        nuspi_cfa::Prod::Name(_) => true,
                        nuspi_cfa::Prod::Enc { confounder, .. } => {
                            *confounder != nuspi_cfa::attacker::attacker_confounder()
                        }
                        _ => false,
                    })
                    .filter(|prod| report.secret_kind(prod))
                    .collect();
                prods.sort_by_key(|p| format!("{p:?}"));
                for prod in prods {
                    flagged += 1;
                    println!(
                        "secret-kind value {} may reach public channel {chan}:",
                        sol.render_production(prod, 3)
                    );
                    for line in sem.provenance.explain(sol, fv, prod) {
                        println!("  {line}");
                    }
                    println!();
                }
            }
            if flagged == 0 {
                println!("no secret-kind value reaches any public channel (confined).");
                Ok(ExitCode::SUCCESS)
            } else {
                println!("{flagged} flow(s) flagged.");
                Ok(ExitCode::FAILURE)
            }
        }
        "lint" => {
            let diags = nuspi::lint(&process, &policy);
            if o.json {
                print!("{}", nuspi::diagnostics::to_json(&diags));
            } else {
                print!("{}", nuspi::diagnostics::render_report(&diags));
            }
            Ok(
                if diags.iter().any(|d| d.severity == nuspi::Severity::Error) {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                },
            )
        }
        other => Err(format!("unknown command {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_opts_collects_secrets_and_flags() {
        let o = parse_opts(&s(&[
            "file.nuspi",
            "--secret",
            "k",
            "--secret",
            "m",
            "--attacker",
            "--depth",
            "5",
        ]))
        .unwrap();
        assert_eq!(o.file.as_deref(), Some("file.nuspi"));
        assert_eq!(o.secrets, vec!["k", "m"]);
        assert!(o.attacker);
        assert_eq!(o.depth, 5);
    }

    #[test]
    fn parse_opts_reads_serve_flags() {
        let o = parse_opts(&s(&["--jobs", "4", "--cache-bytes", "1048576"])).unwrap();
        assert_eq!(o.jobs, 4);
        assert_eq!(o.cache_bytes, 1 << 20);
        assert!(o.file.is_none());
        // serve rejects a stray file argument instead of ignoring it.
        assert!(run(&s(&["serve", "some-file"])).is_err());
    }

    #[test]
    fn parse_opts_reads_net_and_store_flags() {
        let o = parse_opts(&s(&[
            "--listen",
            "127.0.0.1:0",
            "--cache-dir",
            "/tmp/x",
            "--max-conns",
            "8",
            "--idle-ms",
            "1000",
            "--queue-depth",
            "4",
            "--store-bytes",
            "65536",
            "--store-min-ms",
            "2",
        ]))
        .unwrap();
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.cache_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(o.max_conns, 8);
        assert_eq!(o.idle_ms, 1000);
        assert_eq!(o.queue_depth, 4);
        assert_eq!(o.store_bytes, 65536);
        assert_eq!(o.store_min_ms, 2);
        assert!(parse_opts(&s(&["--listen"])).is_err());
        assert!(parse_opts(&s(&["--cache-dir"])).is_err());
    }

    #[test]
    fn cache_subcommand_inspects_a_store() {
        let dir = std::env::temp_dir().join(format!("nuspi-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // An empty store is valid once opened (header-only log).
        {
            use nuspi::engine::TierTwoCache as _;
            let store = nuspi::net::DiskStore::open(nuspi::net::StoreConfig::at(&dir)).unwrap();
            store.store(42, "body", std::time::Duration::from_millis(1));
        }
        let d = dir.to_str().unwrap();
        assert_eq!(
            run(&s(&["cache", "stats", "--cache-dir", d])).unwrap(),
            ExitCode::SUCCESS
        );
        assert_eq!(
            run(&s(&["cache", "verify", "--cache-dir", d])).unwrap(),
            ExitCode::SUCCESS
        );
        assert_eq!(
            run(&s(&["cache", "ls", "--cache-dir", d])).unwrap(),
            ExitCode::SUCCESS
        );
        assert_eq!(
            run(&s(&["cache", "compact", "--cache-dir", d])).unwrap(),
            ExitCode::SUCCESS
        );
        assert!(run(&s(&["cache", "bogus", "--cache-dir", d])).is_err());
        assert!(run(&s(&["cache", "stats"])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_opts_rejects_unknown_flags() {
        assert!(parse_opts(&s(&["f", "--bogus"])).is_err());
        assert!(parse_opts(&s(&["f", "--secret"])).is_err());
        assert!(parse_opts(&s(&["f", "--depth", "x"])).is_err());
        assert!(parse_opts(&s(&["a", "b"])).is_err());
        // Retired flags get the same unknown-flag usage error.
        assert_eq!(
            run(&s(&["lint", "f", "--shards", "4"])).err().as_deref(),
            Some("unknown flag --shards")
        );
        assert_eq!(
            run(&s(&["analyze", "f", "--incremental"])).err().as_deref(),
            Some("unknown flag --incremental")
        );
    }

    #[test]
    fn run_requires_command_and_file() {
        assert!(run(&s(&[])).is_err());
        assert!(run(&s(&["check"])).is_err());
        assert!(run(&s(&["bogus-cmd", "/nonexistent"])).is_err());
    }

    #[test]
    fn check_command_end_to_end() {
        let dir = std::env::temp_dir().join("nuspi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.nuspi");
        std::fs::write(&good, "(new k) (new s) net<{s, new r}:k>.0").unwrap();
        let code = run(&s(&[
            "check",
            good.to_str().unwrap(),
            "--secret",
            "k",
            "--secret",
            "s",
        ]))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);

        let bad = dir.join("bad.nuspi");
        std::fs::write(&bad, "(new s) net<s>.0").unwrap();
        let code = run(&s(&["check", bad.to_str().unwrap(), "--secret", "s"])).unwrap();
        assert_eq!(code, ExitCode::FAILURE);
    }

    #[test]
    fn check_command_routes_nu_files_through_the_lang_frontend() {
        let dir = std::env::temp_dir().join("nuspi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.nu");
        std::fs::write(&clean, "func main() {\n  ch := make(chan)\n  ch <- 1\n}\n").unwrap();
        assert_eq!(
            run(&s(&["check", clean.to_str().unwrap()])).unwrap(),
            ExitCode::SUCCESS
        );

        let leak = dir.join("leak.nu");
        std::fs::write(
            &leak,
            "func main() {\n  //nuspi::sink::{}\n  out := make(chan)\n  //nuspi::label::{high}\n  pin := 4\n  out <- pin\n}\n",
        )
        .unwrap();
        assert_eq!(
            run(&s(&["check", leak.to_str().unwrap()])).unwrap(),
            ExitCode::FAILURE
        );
        assert_eq!(
            run(&s(&["check", leak.to_str().unwrap(), "--json"])).unwrap(),
            ExitCode::FAILURE
        );

        let broken = dir.join("broken.nu");
        std::fs::write(&broken, "func main( {").unwrap();
        assert_eq!(
            run(&s(&["check", broken.to_str().unwrap()])).unwrap(),
            ExitCode::from(2)
        );
    }

    #[test]
    fn analyze_and_explore_commands_run() {
        let dir = std::env::temp_dir().join("nuspi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("analyze.nuspi");
        std::fs::write(&f, "c<m>.0 | c(x).d<x>.0").unwrap();
        assert_eq!(
            run(&s(&["analyze", f.to_str().unwrap()])).unwrap(),
            ExitCode::SUCCESS
        );
        assert_eq!(
            run(&s(&["analyze", f.to_str().unwrap(), "--attacker"])).unwrap(),
            ExitCode::SUCCESS
        );
        assert_eq!(
            run(&s(&["explore", f.to_str().unwrap(), "--max-depth", "4"])).unwrap(),
            ExitCode::SUCCESS
        );
        assert_eq!(
            run(&s(&[
                "run",
                f.to_str().unwrap(),
                "--steps",
                "4",
                "--seed",
                "1"
            ]))
            .unwrap(),
            ExitCode::SUCCESS
        );
    }

    #[test]
    fn explain_command_narrates_leaks() {
        let dir = std::env::temp_dir().join("nuspi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("leaky.nuspi");
        std::fs::write(&f, "(new sec) (a<sec>.0 | a(x).b<x>.0)").unwrap();
        let code = run(&s(&["explain", f.to_str().unwrap(), "--secret", "sec"])).unwrap();
        assert_eq!(code, ExitCode::FAILURE);
        let g = dir.join("tight.nuspi");
        std::fs::write(&g, "(new k) (new sec) a<{sec, new r}:k>.0").unwrap();
        let code = run(&s(&[
            "explain",
            g.to_str().unwrap(),
            "--secret",
            "sec",
            "--secret",
            "k",
        ]))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
    }

    #[test]
    fn lint_command_reports_and_sets_exit_code() {
        let dir = std::env::temp_dir().join("nuspi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("lint-bad.nuspi");
        std::fs::write(&bad, "(new m) c<m>.0").unwrap();
        for extra in [&[][..], &["--json"][..]] {
            let mut args = s(&["lint", bad.to_str().unwrap(), "--secret", "m"]);
            args.extend(s(extra));
            assert_eq!(run(&args).unwrap(), ExitCode::FAILURE);
        }
        let good = dir.join("lint-good.nuspi");
        std::fs::write(&good, "(new k) (new m) c<{m, new r}:k>.0").unwrap();
        let code = run(&s(&[
            "lint",
            good.to_str().unwrap(),
            "--secret",
            "k",
            "--secret",
            "m",
        ]))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
    }

    #[test]
    fn open_processes_are_rejected() {
        let dir = std::env::temp_dir().join("nuspi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("open.nuspi");
        // `x` free: builder-level programs can be open, but files cannot.
        std::fs::write(&f, "c<0>.0").unwrap();
        assert!(run(&s(&["check", f.to_str().unwrap()])).is_ok());
        let g = dir.join("garbage.nuspi");
        std::fs::write(&g, "c<").unwrap();
        assert!(run(&s(&["check", g.to_str().unwrap()])).is_err());
    }
}
