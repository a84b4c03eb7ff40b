//! Request execution: cache-key derivation and response-body rendering.
//!
//! [`prepare`] turns a [`Request`] into a [`Prepared`] job: the op name,
//! an optional content-addressed cache key, and a [`Runner`] that runs
//! the analysis and renders the body. The key is a [`StableHasher128`]
//! digest over a key-schema version, the op, the process's α-invariant
//! [`canonical_digest`], the sorted secret set, the op's own parameters,
//! and the analysis budgets — everything the body is a function of, and
//! nothing else. Two requests over α-equivalent processes with the same
//! parameters therefore share one cache slot, and a budget change (which
//! can change verdicts) never serves a stale body.
//!
//! The AST is not `Send` (values are `Rc`-shared), so work crosses to
//! the pool as *source text* and is re-parsed on the worker. A miss
//! therefore parses twice: once here, to derive the key from the
//! canonical digest, and once on the worker. That is not free: on a
//! 200-session, 4-hop network (33 KB of source, 2-core host) one parse
//! takes about 1.2 ms against about 2.6 ms for constraint generation
//! plus solving. Requests that arrive already parsed
//! ([`ProcessInput::Parsed`]) run inline on the submitting thread
//! instead; they still hit and warm the same cache.
//!
//! Bodies are rendered in fixed key order with the same escaping rules
//! as the diagnostics JSON backend, and contain no wall-clock readings,
//! so a body is byte-identical whether computed fresh, served from the
//! cache, or produced under a different worker count.

use crate::engine::EngineConfig;
use crate::jsonio::escape;
use crate::request::{error_body, ProcessInput, Request};
use nuspi_diagnostics::{lint_with, to_json_compact, LintConfig};
use nuspi_security::{audit, reveals, AuditConfig, Knowledge, Policy};
use nuspi_syntax::{canonical_digest, parse_process, Process, StableHasher128, Symbol};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hash::Hasher as _;

/// Version of the cache-key schema. Bump when the key derivation or any
/// body changes, so stale entries from an older engine can never be
/// served (relevant once the cache outlives one process).
///
/// Version 2: carefulness explores states modulo structural congruence
/// (fewer truncation notes and violation counts on replicated
/// processes), and audit bodies list intruder attacks in secret order.
///
/// Version 3: the intruder budgets are keyed as `IntruderConfig`, whose
/// `Debug` text differs from the retired engine-side mirror's. No body
/// changed; the key text did, and a version bump is what keeps old and
/// new key texts from ever being compared.
const KEY_VERSION: u8 = 3;

/// How a prepared job executes.
pub(crate) enum Runner {
    /// Runs on a pool worker (captures only `Send` data — source text
    /// and scalar budgets).
    Pooled(Box<dyn FnOnce() -> String + Send + 'static>),
    /// Runs inline on the submitting thread (pre-parsed ASTs, and
    /// requests rejected before analysis).
    Inline(Box<dyn FnOnce() -> String + 'static>),
}

/// A request made ready to run.
pub(crate) struct Prepared {
    /// The protocol op name (for error bodies and stats).
    pub op: &'static str,
    /// The content-addressed key, when the request is cacheable (it
    /// parsed, and is a real analysis rather than a debug job).
    pub key: Option<u128>,
    /// Runs the analysis and renders the body fields (no braces, no id).
    pub run: Runner,
}

fn parse_input(input: &ProcessInput) -> Result<Process, String> {
    let p = input.build()?;
    if !p.is_closed() {
        let mut vars: Vec<String> = p
            .free_vars()
            .into_iter()
            .map(|v| v.symbol().as_str().to_owned())
            .collect();
        vars.sort();
        return Err(format!(
            "process is not closed (free variables: {})",
            vars.join(", ")
        ));
    }
    Ok(p)
}

fn sorted_secrets(secrets: &[String]) -> Vec<String> {
    let mut s = secrets.to_vec();
    s.sort();
    s.dedup();
    s
}

/// Derives the content-addressed key. `op_tag` numbers the op (1 audit,
/// 2 lint, 3 solve, 4 reveals, 6 analyze_source, 7 equiv); tag 5 belonged
/// to a retired op and is never reused, because persisted store entries
/// may still carry it. `extras` carries the op-specific scalar
/// parameters; `strings` the op-specific string parameters (each
/// absorbed length-prefixed by `write`, so concatenations can't collide).
fn derive_key(
    op_tag: u8,
    p: &Process,
    secrets: &[String],
    extras: &[u64],
    strings: &[&str],
    cfg: &EngineConfig,
) -> u128 {
    let mut h = StableHasher128::new();
    h.write_u8(KEY_VERSION);
    h.write_u8(op_tag);
    h.write_u128(canonical_digest(p).0);
    for s in secrets {
        h.write(s.as_bytes());
    }
    for x in extras {
        h.write_u64(*x);
    }
    for s in strings {
        h.write(s.as_bytes());
    }
    // The analysis budgets feed the key through their Debug rendering:
    // any budget change re-keys every entry, which is exactly right —
    // budget changes can change verdicts.
    h.write(format!("{:?} {:?}", cfg.exec, cfg.intruder).as_bytes());
    h.finish128().0
}

fn policy_of(secrets: &[String]) -> Policy {
    Policy::with_secrets(secrets.iter().map(String::as_str))
}

/// The process's free names that the policy calls public — the bounded
/// intruder's default initial knowledge.
fn public_free_names(p: &Process, policy: &Policy) -> Vec<Symbol> {
    let mut names: Vec<Symbol> = p
        .free_names()
        .into_iter()
        .map(|n| n.canonical())
        .filter(|n| policy.is_public(*n))
        .collect();
    names.sort_by_key(|s| s.as_str().to_owned());
    names.dedup();
    names
}

/// Builds the [`Runner`] for an analysis over `input`: pooled for
/// source text (re-parsed on the worker), inline for a pre-parsed AST.
/// `build` must capture only `Send` data.
fn runner(
    op: &'static str,
    input: &ProcessInput,
    p: Process,
    build: impl FnOnce(Process) -> String + Send + 'static,
) -> Runner {
    match input {
        ProcessInput::Source(src) => {
            let src = src.clone();
            Runner::Pooled(Box::new(move || match parse_process(&src) {
                Ok(p) => build(p),
                // Unreachable in practice: the same text parsed at
                // prepare time. Kept as an error body, not a panic.
                Err(e) => error_body(op, &e.to_string()),
            }))
        }
        ProcessInput::Parsed(_) => Runner::Inline(Box::new(move || build(p))),
    }
}

/// Prepares `request` for execution under `cfg`.
pub(crate) fn prepare(request: &Request, cfg: &EngineConfig) -> Prepared {
    match request {
        Request::Audit { process, secrets } => {
            let op = "audit";
            let secrets = sorted_secrets(secrets);
            match parse_input(process) {
                Err(e) => fail(op, e),
                Ok(p) => {
                    let key = derive_key(1, &p, &secrets, &[], &[], cfg);
                    let audit_cfg = AuditConfig {
                        exec: cfg.exec,
                        intruder: cfg.intruder,
                    };
                    let run = runner(op, process, p, move |p| {
                        let policy = policy_of(&secrets);
                        let report = audit(&p, &policy, &audit_cfg);
                        let mut body = String::new();
                        let _ = write!(
                            body,
                            "\"op\":\"audit\",\"status\":\"ok\",\"secure\":{},\
                             \"confined\":{},\"careful\":{},\"attacks\":{},",
                            report.is_secure(),
                            report.confinement.is_confined(),
                            report.carefulness.is_careful(),
                            report.attacks.len()
                        );
                        let _ = write!(body, "\"report\":\"{}\"", escape(&report.to_string()));
                        body
                    });
                    Prepared {
                        op,
                        key: Some(key),
                        run,
                    }
                }
            }
        }
        Request::Lint { process, secrets } => {
            let op = "lint";
            let secrets = sorted_secrets(secrets);
            match parse_input(process) {
                Err(e) => fail(op, e),
                Ok(p) => {
                    let key = derive_key(2, &p, &secrets, &[], &[], cfg);
                    let exec = cfg.exec;
                    let run = runner(op, process, p, move |p| {
                        let policy = policy_of(&secrets);
                        let diags = lint_with(&p, &policy, LintConfig { exec });
                        format!(
                            "\"op\":\"lint\",\"status\":\"ok\",\"diagnostics\":{},\"report\":{}",
                            diags.len(),
                            to_json_compact(&diags)
                        )
                    });
                    Prepared {
                        op,
                        key: Some(key),
                        run,
                    }
                }
            }
        }
        Request::Solve {
            process,
            secrets,
            attacker,
            depth,
        } => {
            let op = "solve";
            let secrets = sorted_secrets(secrets);
            let (attacker, depth) = (*attacker, *depth);
            match parse_input(process) {
                Err(e) => fail(op, e),
                Ok(p) => {
                    let key = derive_key(
                        3,
                        &p,
                        &secrets,
                        &[u64::from(attacker), depth as u64],
                        &[],
                        cfg,
                    );
                    let run = runner(op, process, p, move |p| {
                        let solution = if attacker {
                            let secret: HashSet<Symbol> =
                                secrets.iter().map(|s| Symbol::intern(s)).collect();
                            nuspi_cfa::analyze_with_attacker(&p, &secret).solution
                        } else {
                            nuspi_cfa::analyze(&p)
                        };
                        let st = solution.stats();
                        // `render_estimate_for` prints labels/vars as
                        // pre-order ordinals, so the body is a function
                        // of the α-class (cacheable), not of this
                        // parse's run-minted indices.
                        format!(
                            "\"op\":\"solve\",\"status\":\"ok\",\"attacker\":{},\
                             \"rounds\":{},\"productions\":{},\"estimate\":\"{}\"",
                            attacker,
                            st.rounds,
                            st.productions,
                            escape(&solution.render_estimate_for(&p, depth))
                        )
                    });
                    Prepared {
                        op,
                        key: Some(key),
                        run,
                    }
                }
            }
        }
        Request::Reveals {
            process,
            secrets,
            secret,
            known,
        } => {
            let op = "reveals";
            let secrets = sorted_secrets(secrets);
            let known = sorted_secrets(known); // same sort+dedup discipline
            let secret = secret.clone();
            match parse_input(process) {
                Err(e) => fail(op, e),
                Ok(p) => {
                    let known_refs: Vec<&str> = known.iter().map(String::as_str).collect();
                    let key = derive_key(
                        4,
                        &p,
                        &secrets,
                        &[known.len() as u64],
                        &[&secret, &known_refs.join("\u{0}")],
                        cfg,
                    );
                    let intruder = cfg.intruder;
                    let run = runner(op, process, p, move |p| {
                        let policy = policy_of(&secrets);
                        let k0 = if known.is_empty() {
                            Knowledge::from_names(public_free_names(&p, &policy))
                        } else {
                            Knowledge::from_names(known.iter().map(|s| Symbol::intern(s)))
                        };
                        let target = Symbol::intern(&secret);
                        let attack = reveals(&p, &k0, target, &intruder);
                        let mut body = format!(
                            "\"op\":\"reveals\",\"status\":\"ok\",\"secret\":\"{}\",\
                             \"revealed\":{},\"trace\":[",
                            escape(&secret),
                            attack.is_some()
                        );
                        if let Some(a) = &attack {
                            for (i, step) in a.trace.iter().enumerate() {
                                if i > 0 {
                                    body.push(',');
                                }
                                let _ = write!(body, "\"{}\"", escape(step));
                            }
                        }
                        body.push(']');
                        if let Some(a) = &attack {
                            let _ = write!(body, ",\"knowledge_size\":{}", a.knowledge_size);
                        }
                        body
                    });
                    Prepared {
                        op,
                        key: Some(key),
                        run,
                    }
                }
            }
        }
        Request::AnalyzeSource { file, source } => {
            let op = "analyze_source";
            match nuspi_lang::compile(file, source) {
                // Frontend failures are uncacheable error bodies, like
                // parse failures of the νSPI ops.
                Err(e) => fail(op, format!("{file}:{}: {}", e.pos, e.message)),
                Ok(c) => {
                    // Keyed on the α-invariant digest of the *lowered*
                    // process plus the file name (it appears verbatim in
                    // the body's anchors) plus every source-map site
                    // record: the body anchors diagnostics to the
                    // declarations' line:col, so an edit that moves a
                    // declaration must re-key (a cached body would point
                    // at the wrong lines of the new file), while a
                    // formatting-only edit that keeps every declaration
                    // in place still shares the slot.
                    let mut anchors = String::new();
                    for (base, site) in &c.map.sites {
                        let _ = write!(
                            anchors,
                            "{base}\u{0}{}\u{0}{}\u{0}{}\u{0}{}:{};",
                            site.ident,
                            site.role.as_str(),
                            site.label.as_deref().unwrap_or(""),
                            site.line,
                            site.col
                        );
                    }
                    let key = derive_key(6, &c.process, &c.secrets, &[], &[file, &anchors], cfg);
                    let (file, source) = (file.clone(), source.clone());
                    // The lowered AST is `Rc`-shared (not `Send`); the
                    // worker recompiles from source, like the νSPI ops
                    // re-parse.
                    let run = Runner::Pooled(Box::new(move || {
                        let report = nuspi_lang::check(&file, &source);
                        let errors = report
                            .diags
                            .iter()
                            .filter(|d| d.diag.severity == nuspi_diagnostics::Severity::Error)
                            .count();
                        format!(
                            "\"op\":\"analyze_source\",\"status\":\"ok\",\"file\":\"{}\",\
                             \"verdict\":\"{}\",\"errors\":{},\"report\":{}",
                            escape(&file),
                            report.verdict.as_str(),
                            errors,
                            nuspi_lang::check_to_json_compact(&report)
                        )
                    }));
                    Prepared {
                        op,
                        key: Some(key),
                        run,
                    }
                }
            }
        }
        Request::Equiv { left, right } => {
            let op = "equiv";
            match (parse_input(left), parse_input(right)) {
                (Err(e), _) => fail(op, format!("left: {e}")),
                (_, Err(e)) => fail(op, format!("right: {e}")),
                (Ok(l), Ok(r)) => {
                    // Order-independent pair key: the low digest plays
                    // the `p` slot, the high digest rides in `extras` —
                    // `equiv(P, Q)` and `equiv(Q, P)` share one entry.
                    // The game budgets are keyed for this op only (via
                    // `strings`), so changing them re-keys `equiv`
                    // bodies without touching the static ops' entries.
                    let (dl, dr) = (canonical_digest(&l).0, canonical_digest(&r).0);
                    let plo = if dl <= dr { &l } else { &r };
                    let hi = dl.max(dr);
                    let key = derive_key(
                        7,
                        plo,
                        &[],
                        &[hi as u64, (hi >> 64) as u64],
                        &[&format!("{:?}", cfg.equiv)],
                        cfg,
                    );
                    let equiv_cfg = cfg.equiv;
                    let run = match (left, right) {
                        (ProcessInput::Source(ls), ProcessInput::Source(rs)) => {
                            let (ls, rs) = (ls.clone(), rs.clone());
                            Runner::Pooled(Box::new(move || {
                                match (parse_process(&ls), parse_process(&rs)) {
                                    (Ok(l), Ok(r)) => equiv_body(&l, &r, &equiv_cfg),
                                    (Err(e), _) | (_, Err(e)) => {
                                        error_body("equiv", &e.to_string())
                                    }
                                }
                            }))
                        }
                        // A pre-parsed side pins the job inline: the AST
                        // is `Rc`-shared and cannot cross to the pool.
                        _ => Runner::Inline(Box::new(move || equiv_body(&l, &r, &equiv_cfg))),
                    };
                    Prepared {
                        op,
                        key: Some(key),
                        run,
                    }
                }
            }
        }
        Request::DebugPanic => Prepared {
            op: "debug-panic",
            key: None,
            run: Runner::Pooled(Box::new(|| panic!("debug-panic requested"))),
        },
    }
}

/// Renders the `equiv` body. Re-orients the pair by α-invariant digest
/// first (min digest = `lhs`), so the body — verdict, trace, meters —
/// is a pure function of the *unordered* pair and is byte-identical
/// whichever order the caller submitted and whether it ran pooled or
/// inline.
fn equiv_body(l: &Process, r: &Process, cfg: &nuspi_equiv::EquivConfig) -> String {
    let (dl, dr) = (canonical_digest(l).0, canonical_digest(r).0);
    let (lo, hi, dlo, dhi) = if dl <= dr {
        (l, r, dl, dr)
    } else {
        (r, l, dr, dl)
    };
    // The attacker starts off knowing every free name of either side —
    // the observer of Definition 8 owns the public world.
    let mut public: Vec<Symbol> = lo
        .free_names()
        .into_iter()
        .chain(hi.free_names())
        .map(|n| n.canonical())
        .collect();
    public.sort_by_key(|s| s.as_str().to_owned());
    public.dedup();
    let report = nuspi_equiv::check(lo, hi, &public, cfg);
    let mut body = format!(
        "\"op\":\"equiv\",\"status\":\"ok\",\"verdict\":\"{}\",\
         \"lhs\":\"{dlo:032x}\",\"rhs\":\"{dhi:032x}\",\"plays\":{},\"depth\":{}",
        report.verdict.tag(),
        report.plays,
        report.depth
    );
    match &report.verdict {
        nuspi_equiv::Verdict::Bisimilar => {}
        nuspi_equiv::Verdict::Distinguished { trace } => {
            body.push_str(",\"trace\":[");
            for (i, step) in trace.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let _ = write!(body, "\"{}\"", escape(step));
            }
            body.push(']');
        }
        nuspi_equiv::Verdict::Unknown { budgets } => {
            body.push_str(",\"budgets\":[");
            for (i, b) in budgets.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let _ = write!(body, "\"{}\"", escape(b));
            }
            body.push(']');
        }
    }
    body
}

/// A request that failed before reaching a worker (parse error, open
/// process): uncacheable, and its "run" just renders the error.
fn fail(op: &'static str, message: String) -> Prepared {
    Prepared {
        op,
        key: None,
        run: Runner::Inline(Box::new(move || error_body(op, &message))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EngineConfig {
        EngineConfig::default()
    }

    fn run(p: Prepared) -> String {
        match p.run {
            Runner::Pooled(f) => f(),
            Runner::Inline(f) => f(),
        }
    }

    #[test]
    fn alpha_renamed_resubmissions_share_a_key() {
        // Disciplined α-conversion renames within a canonical class:
        // freshen the binder the way the executor does and resubmit.
        let p = parse_process("(new k) c<k>.0").unwrap();
        let Process::Restrict { name, body } = &p else {
            panic!()
        };
        let fresh = name.freshen();
        let q = Process::Restrict {
            name: fresh,
            body: Box::new(body.rename_name(*name, fresh)),
        };
        assert_ne!(p, q, "syntactically different");
        let a = prepare(
            &Request::Audit {
                process: p.into(),
                secrets: vec!["k".into()],
            },
            &cfg(),
        );
        let b = prepare(
            &Request::Audit {
                process: q.into(),
                secrets: vec!["k".into()],
            },
            &cfg(),
        );
        assert_eq!(a.key, b.key);
        assert!(a.key.is_some());
    }

    #[test]
    fn different_canonical_bases_do_not_share_a_key() {
        // `(new m)` vs `(new z)` differ by canonical base, which the
        // calculus's α-conversion never renames across — distinct keys.
        let a = prepare(&Request::audit("(new m) c<{m, new r}:k>.0", &["m"]), &cfg());
        let b = prepare(&Request::audit("(new z) c<{z, new r}:k>.0", &["m"]), &cfg());
        assert_ne!(a.key, b.key);
    }

    #[test]
    fn different_ops_and_params_get_distinct_keys() {
        let src = "(new m) c<{m, new r}:k>.0";
        let audit = prepare(&Request::audit(src, &["m"]), &cfg());
        let lint = prepare(&Request::lint(src, &["m"]), &cfg());
        let solve = prepare(&Request::solve(src), &cfg());
        let deep = prepare(
            &Request::Solve {
                process: src.into(),
                secrets: Vec::new(),
                attacker: false,
                depth: 7,
            },
            &cfg(),
        );
        let keys = [audit.key, lint.key, solve.key, deep.key];
        for (i, a) in keys.iter().enumerate() {
            assert!(a.is_some());
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn budget_changes_rekey() {
        let src = "(new m) c<{m, new r}:k>.0";
        let a = prepare(&Request::audit(src, &["m"]), &cfg());
        let mut tight = cfg();
        tight.intruder.max_depth = 2;
        let b = prepare(&Request::audit(src, &["m"]), &tight);
        assert_ne!(a.key, b.key);
    }

    #[test]
    fn parse_failures_are_uncacheable_error_bodies() {
        let p = prepare(&Request::solve("(new"), &cfg());
        assert!(p.key.is_none());
        let body = run(p);
        assert!(body.contains("\"status\":\"error\""), "{body}");
    }

    #[test]
    fn open_processes_are_rejected() {
        // Free variables are only expressible via the AST (the parser
        // reads bare identifiers as names): take an input continuation.
        let whole = parse_process("c(x). d<x>.0").unwrap();
        let Process::Input { then, .. } = whole else {
            panic!()
        };
        let p = prepare(
            &Request::Solve {
                process: (*then).into(),
                secrets: Vec::new(),
                attacker: false,
                depth: 3,
            },
            &cfg(),
        );
        assert!(p.key.is_none());
        let body = run(p);
        assert!(body.contains("not closed"), "{body}");
        assert!(body.contains("free variables: x"), "{body}");
    }

    #[test]
    fn parsed_inputs_run_inline_and_match_source_bodies() {
        let src = "(new m) c<{m, new r}:k>.0";
        let parsed = parse_process(src).unwrap();
        let via_source = prepare(&Request::solve(src), &cfg());
        let via_ast = prepare(
            &Request::Solve {
                process: parsed.into(),
                secrets: Vec::new(),
                attacker: false,
                depth: 3,
            },
            &cfg(),
        );
        assert_eq!(via_source.key, via_ast.key);
        assert!(matches!(via_source.run, Runner::Pooled(_)));
        assert!(matches!(via_ast.run, Runner::Inline(_)));
        assert_eq!(run(via_source), run(via_ast));
    }

    #[test]
    fn equiv_keys_are_pair_order_independent() {
        let (p, q) = ("(new n) c<n>.0", "(hide n) c<n>.0");
        let a = prepare(&Request::equiv(p, q), &cfg());
        let b = prepare(&Request::equiv(q, p), &cfg());
        assert_eq!(a.key, b.key);
        assert!(a.key.is_some());
        // ... but a different pair is a different slot.
        let c = prepare(&Request::equiv(p, p), &cfg());
        assert_ne!(a.key, c.key);
    }

    #[test]
    fn equiv_budget_changes_rekey_equiv_only() {
        let req = Request::equiv("c<a>.0", "c<b>.0");
        let a = prepare(&req, &cfg());
        let mut tight = cfg();
        tight.equiv.game_depth = 2;
        let b = prepare(&req, &tight);
        assert_ne!(a.key, b.key);
        // The static ops don't depend on the game budgets: their keys —
        // and any persisted cache entries — survive an equiv re-tune.
        let audit = Request::audit("(new m) c<{m, new r}:k>.0", &["m"]);
        assert_eq!(prepare(&audit, &cfg()).key, prepare(&audit, &tight).key);
    }

    #[test]
    fn equiv_bodies_reorient_by_digest() {
        // Submitting the pair in either order renders byte-identical
        // bodies (the cache stores one line for both orientations).
        let (p, q) = ("(new n) c<n>.0", "(hide n) c<n>.0");
        let ab = run(prepare(&Request::equiv(p, q), &cfg()));
        let ba = run(prepare(&Request::equiv(q, p), &cfg()));
        assert_eq!(ab, ba);
        assert!(ab.contains("\"verdict\":\"distinguished\""), "{ab}");
        assert!(ab.contains("\"trace\":["), "{ab}");
    }

    #[test]
    fn equiv_rejects_unparseable_sides_uncached() {
        let p = prepare(&Request::equiv("(new", "0"), &cfg());
        assert!(p.key.is_none());
        let body = run(p);
        assert!(body.contains("\"status\":\"error\""), "{body}");
        assert!(body.contains("left:"), "{body}");
    }

    #[test]
    fn bodies_render_and_are_deterministic() {
        let src = "(new m) c<{m, new r}:k>.0";
        for req in [
            Request::audit(src, &["m", "k"]),
            Request::lint(src, &["m", "k"]),
            Request::solve(src),
            Request::reveals(src, &["m", "k"], "m"),
            Request::equiv(src, "(new m2) c<{m2, new r}:k>.0"),
        ] {
            let once = run(prepare(&req, &cfg()));
            let twice = run(prepare(&req, &cfg()));
            assert_eq!(once, twice);
            assert!(once.contains("\"status\":\"ok\""), "{once}");
        }
    }
}
