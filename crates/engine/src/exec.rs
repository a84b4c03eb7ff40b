//! Request execution: cache-key derivation and response-body rendering.
//!
//! [`prepare`] turns a [`Request`] into a job: an optional
//! content-addressed cache key and the analysis that renders the body.
//! The key is a [`StableHasher128`] digest over a key-schema version, the
//! op, the process's α-invariant [`canonical_digest`], the sorted secret
//! set, the op's own parameters, and the analysis budgets — everything
//! the body is a function of, and nothing else. Two requests over
//! α-equivalent processes with the same parameters therefore share one
//! cache slot, and a budget change (which can change verdicts) never
//! serves a stale body.
//!
//! `prepare` parses a request's process once (or compiles its `.nu`
//! program once) on the submitting thread, because the key needs the
//! canonical digest. The parsed [`Process`] or [`nuspi_lang::Compiled`]
//! is `Send` (values are `Arc`-shared), so it moves into the job, and
//! every job runs on a pool worker, whether its process arrived as
//! source text or already parsed ([`ProcessInput::Parsed`]). A request
//! rejected before analysis (a parse error, an open process) has no job:
//! its error body is the answer.
//!
//! Bodies are rendered in fixed key order with the same escaping rules
//! as the diagnostics JSON backend, and contain no wall-clock readings,
//! so a body is byte-identical whether computed fresh, served from the
//! cache, or produced under a different worker count.

use crate::engine::EngineConfig;
use crate::jsonio::escape;
use crate::request::{ProcessInput, Request};
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

/// A job's analysis: it owns its parsed input and renders the body
/// fields (no braces, no id) on a pool worker.
pub(crate) type Analysis = Box<dyn FnOnce() -> String + Send + 'static>;

/// The process of `input`, parsed if it came as source text, and
/// rejected unless it is closed.
fn closed(input: ProcessInput) -> Result<Process, String> {
    let p = match input {
        ProcessInput::Source(src) => parse_process(&src).map_err(|e| e.to_string())?,
        ProcessInput::Parsed(p) => p,
    };
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

fn sorted_secrets(mut secrets: Vec<String>) -> Vec<String> {
    secrets.sort();
    secrets.dedup();
    secrets
}

fn digest(p: &Process) -> u128 {
    canonical_digest(p).0
}

/// Derives the content-addressed key from the process's canonical
/// `digest`. `op_tag` numbers the op (1 audit, 2 lint, 3 solve, 4
/// reveals, 6 analyze_source, 7 equiv); tag 5 belonged to a retired op
/// and is never reused, because persisted store entries may still carry
/// it. `extras` carries the op-specific scalar parameters; `strings` the
/// op-specific string parameters (each absorbed length-prefixed by
/// `write`, so concatenations can't collide).
fn derive_key(
    op_tag: u8,
    digest: u128,
    secrets: &[String],
    extras: &[u64],
    strings: &[&str],
    cfg: &EngineConfig,
) -> u128 {
    let mut h = StableHasher128::new();
    h.write_u8(KEY_VERSION);
    h.write_u8(op_tag);
    h.write_u128(digest);
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

/// Prepares `request` for execution under `cfg`: its content-addressed
/// key, when it is cacheable (a real analysis rather than a debug job),
/// and its analysis. A request rejected before analysis (a parse error,
/// an open process) gets the message of its error body instead.
pub(crate) fn prepare(
    request: Request,
    cfg: &EngineConfig,
) -> Result<(Option<u128>, Analysis), String> {
    Ok(match request {
        Request::Audit { process, secrets } => {
            let p = closed(process)?;
            let secrets = sorted_secrets(secrets);
            let key = derive_key(1, digest(&p), &secrets, &[], &[], cfg);
            let audit_cfg = AuditConfig {
                exec: cfg.exec,
                intruder: cfg.intruder,
            };
            let run: Analysis = Box::new(move || {
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
            (Some(key), run)
        }
        Request::Lint { process, secrets } => {
            let p = closed(process)?;
            let secrets = sorted_secrets(secrets);
            let key = derive_key(2, digest(&p), &secrets, &[], &[], cfg);
            let exec = cfg.exec;
            let run: Analysis = Box::new(move || {
                let policy = policy_of(&secrets);
                let diags = lint_with(&p, &policy, LintConfig { exec });
                format!(
                    "\"op\":\"lint\",\"status\":\"ok\",\"diagnostics\":{},\"report\":{}",
                    diags.len(),
                    to_json_compact(&diags)
                )
            });
            (Some(key), run)
        }
        Request::Solve {
            process,
            secrets,
            attacker,
            depth,
        } => {
            let p = closed(process)?;
            let secrets = sorted_secrets(secrets);
            let key = derive_key(
                3,
                digest(&p),
                &secrets,
                &[u64::from(attacker), depth as u64],
                &[],
                cfg,
            );
            let run: Analysis = Box::new(move || {
                let solution = if attacker {
                    let secret: HashSet<Symbol> =
                        secrets.iter().map(|s| Symbol::intern(s)).collect();
                    nuspi_cfa::analyze_with_attacker(&p, &secret).solution
                } else {
                    nuspi_cfa::analyze(&p)
                };
                let st = solution.stats();
                // `render_estimate_for` prints labels/vars as pre-order
                // ordinals, so the body is a function of the α-class
                // (cacheable), not of this parse's run-minted indices.
                format!(
                    "\"op\":\"solve\",\"status\":\"ok\",\"attacker\":{},\
                     \"rounds\":{},\"productions\":{},\"estimate\":\"{}\"",
                    attacker,
                    st.rounds,
                    st.productions,
                    escape(&solution.render_estimate_for(&p, depth))
                )
            });
            (Some(key), run)
        }
        Request::Reveals {
            process,
            secrets,
            secret,
            known,
        } => {
            let p = closed(process)?;
            let secrets = sorted_secrets(secrets);
            let known = sorted_secrets(known); // same sort+dedup discipline
            let key = derive_key(
                4,
                digest(&p),
                &secrets,
                &[known.len() as u64],
                &[&secret, &known.join("\u{0}")],
                cfg,
            );
            let intruder = cfg.intruder;
            let run: Analysis = Box::new(move || {
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
            (Some(key), run)
        }
        Request::AnalyzeSource { file, source } => {
            // Frontend failures are uncacheable error bodies, like parse
            // failures of the νSPI ops.
            let c = nuspi_lang::compile(&file, &source)
                .map_err(|e| format!("{file}:{}: {}", e.pos, e.message))?;
            // Keyed on the α-invariant digest of the *lowered* process
            // plus the file name (it appears verbatim in the body's
            // anchors) plus every source-map site record: the body
            // anchors diagnostics to the declarations' line:col, so an
            // edit that moves a declaration must re-key (a cached body
            // would point at the wrong lines of the new file), while a
            // formatting-only edit that keeps every declaration in place
            // still shares the slot.
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
            let key = derive_key(
                6,
                digest(&c.process),
                &c.secrets,
                &[],
                &[&file, &anchors],
                cfg,
            );
            let run: Analysis = Box::new(move || {
                let report = nuspi_lang::check_compiled(c);
                let errors = report
                    .diags
                    .iter()
                    .filter(|d| d.diag.severity == nuspi_diagnostics::Severity::Error)
                    .count();
                format!(
                    "\"op\":\"analyze_source\",\"status\":\"ok\",\"file\":\"{}\",\
                     \"verdict\":\"{}\",\"errors\":{},\"report\":{}",
                    escape(&report.file),
                    report.verdict.as_str(),
                    errors,
                    nuspi_lang::check_to_json_compact(&report)
                )
            });
            (Some(key), run)
        }
        Request::Equiv { left, right } => {
            let l = closed(left).map_err(|e| format!("left: {e}"))?;
            let r = closed(right).map_err(|e| format!("right: {e}"))?;
            // Oriented once, by α-invariant digest: the low digest plays
            // the key's process slot and the body's `lhs`, so `equiv(P,
            // Q)` and `equiv(Q, P)` share one entry and render one body.
            // The game budgets are keyed for this op only (via
            // `strings`), so changing them re-keys `equiv` bodies without
            // touching the static ops' entries.
            let (dl, dr) = (digest(&l), digest(&r));
            let (lo, hi, dlo, dhi) = if dl <= dr {
                (l, r, dl, dr)
            } else {
                (r, l, dr, dl)
            };
            let key = derive_key(
                7,
                dlo,
                &[],
                &[dhi as u64, (dhi >> 64) as u64],
                &[&format!("{:?}", cfg.equiv)],
                cfg,
            );
            let equiv_cfg = cfg.equiv;
            let run: Analysis = Box::new(move || equiv_body(&lo, &hi, dlo, dhi, &equiv_cfg));
            (Some(key), run)
        }
        Request::DebugPanic => (None, Box::new(|| panic!("debug-panic requested"))),
    })
}

/// Renders the `equiv` body of the digest-oriented pair (`dlo` is the
/// canonical digest of `lo`, `dhi` of `hi`, `dlo <= dhi`), so the body —
/// verdict, trace, meters — is a pure function of the *unordered* pair,
/// byte-identical whichever order the caller submitted.
fn equiv_body(
    lo: &Process,
    hi: &Process,
    dlo: u128,
    dhi: u128,
    cfg: &nuspi_equiv::EquivConfig,
) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EngineConfig {
        EngineConfig::default()
    }

    /// The request's key: `None` when it is uncacheable or rejected.
    fn key(request: Request, cfg: &EngineConfig) -> Option<u128> {
        prepare(request, cfg).ok().and_then(|(key, _)| key)
    }

    /// The body the engine answers `request` with.
    fn run(request: Request) -> String {
        let op = request.op();
        match prepare(request, &cfg()) {
            Ok((_, run)) => run(),
            Err(message) => crate::request::error_body(op, &message),
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
        let audit = |p: Process| Request::Audit {
            process: p.into(),
            secrets: vec!["k".into()],
        };
        let a = key(audit(p), &cfg());
        let b = key(audit(q), &cfg());
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    fn different_canonical_bases_do_not_share_a_key() {
        // `(new m)` vs `(new z)` differ by canonical base, which the
        // calculus's α-conversion never renames across — distinct keys.
        let a = key(Request::audit("(new m) c<{m, new r}:k>.0", &["m"]), &cfg());
        let b = key(Request::audit("(new z) c<{z, new r}:k>.0", &["m"]), &cfg());
        assert_ne!(a, b);
    }

    #[test]
    fn different_ops_and_params_get_distinct_keys() {
        let src = "(new m) c<{m, new r}:k>.0";
        let deep = Request::Solve {
            process: src.into(),
            secrets: Vec::new(),
            attacker: false,
            depth: 7,
        };
        let keys = [
            Request::audit(src, &["m"]),
            Request::lint(src, &["m"]),
            Request::solve(src),
            deep,
        ]
        .map(|r| key(r, &cfg()));
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
        let a = key(Request::audit(src, &["m"]), &cfg());
        let mut tight = cfg();
        tight.intruder.max_depth = 2;
        let b = key(Request::audit(src, &["m"]), &tight);
        assert_ne!(a, b);
    }

    #[test]
    fn parse_failures_are_uncacheable_error_bodies() {
        assert!(prepare(Request::solve("(new"), &cfg()).is_err());
        let body = run(Request::solve("(new"));
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
        let open = Request::Solve {
            process: (*then).into(),
            secrets: Vec::new(),
            attacker: false,
            depth: 3,
        };
        assert!(prepare(open.clone(), &cfg()).is_err());
        let body = run(open);
        assert!(body.contains("not closed"), "{body}");
        assert!(body.contains("free variables: x"), "{body}");
    }

    #[test]
    fn jobs_can_own_their_parsed_input() {
        // A compile-time guard: a job moves its parsed process (or
        // compiled program) to a pool worker, so an `Rc` put back into
        // the AST fails the build here.
        fn send<T: Send>() {}
        send::<Process>();
        send::<nuspi_lang::Compiled>();
        send::<Request>();
    }

    #[test]
    fn parsed_and_source_inputs_share_keys_and_bodies() {
        let src = "(new m) c<{m, new r}:k>.0";
        let via_source = Request::solve(src);
        let via_ast = Request::Solve {
            process: parse_process(src).unwrap().into(),
            secrets: Vec::new(),
            attacker: false,
            depth: 3,
        };
        assert_eq!(
            key(via_source.clone(), &cfg()),
            key(via_ast.clone(), &cfg())
        );
        assert_eq!(run(via_source), run(via_ast));
    }

    #[test]
    fn equiv_keys_are_pair_order_independent() {
        let (p, q) = ("(new n) c<n>.0", "(hide n) c<n>.0");
        let a = key(Request::equiv(p, q), &cfg());
        let b = key(Request::equiv(q, p), &cfg());
        assert_eq!(a, b);
        assert!(a.is_some());
        // ... but a different pair is a different slot.
        let c = key(Request::equiv(p, p), &cfg());
        assert_ne!(a, c);
    }

    #[test]
    fn equiv_budget_changes_rekey_equiv_only() {
        let req = Request::equiv("c<a>.0", "c<b>.0");
        let a = key(req.clone(), &cfg());
        let mut tight = cfg();
        tight.equiv.game_depth = 2;
        let b = key(req, &tight);
        assert_ne!(a, b);
        // The static ops don't depend on the game budgets: their keys —
        // and any persisted cache entries — survive an equiv re-tune.
        let audit = Request::audit("(new m) c<{m, new r}:k>.0", &["m"]);
        assert_eq!(key(audit.clone(), &cfg()), key(audit, &tight));
    }

    #[test]
    fn equiv_bodies_reorient_by_digest() {
        // Submitting the pair in either order renders byte-identical
        // bodies (the cache stores one line for both orientations).
        let (p, q) = ("(new n) c<n>.0", "(hide n) c<n>.0");
        let ab = run(Request::equiv(p, q));
        let ba = run(Request::equiv(q, p));
        assert_eq!(ab, ba);
        assert!(ab.contains("\"verdict\":\"distinguished\""), "{ab}");
        assert!(ab.contains("\"trace\":["), "{ab}");
    }

    #[test]
    fn equiv_rejects_unparseable_sides_uncached() {
        assert!(prepare(Request::equiv("(new", "0"), &cfg()).is_err());
        let body = run(Request::equiv("(new", "0"));
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
            let once = run(req.clone());
            let twice = run(req);
            assert_eq!(once, twice);
            assert!(once.contains("\"status\":\"ok\""), "{once}");
        }
    }
}
