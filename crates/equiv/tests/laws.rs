//! Algebraic laws of the bounded hedged-bisimilarity checker: the game
//! must behave like an equivalence where it can afford to, and its
//! engine integration must treat the pair as unordered.

use nuspi_engine::{AnalysisEngine, EngineConfig, ProcessInput, Request};
use nuspi_equiv::{check, check_with_hedge, EquivConfig, Hedge, Verdict};
use nuspi_syntax::{parse_process, Name, Process, Symbol, Value};

fn publics(names: &[&str]) -> Vec<Symbol> {
    names.iter().map(|n| Symbol::intern(n)).collect()
}

fn cfg() -> EquivConfig {
    EquivConfig::default()
}

#[test]
fn reflexivity_is_exact_and_free() {
    // Identical processes share an α-invariant digest: the fast path
    // answers without playing, whatever the process's size or features.
    for src in [
        "0",
        "c<m>.0",
        "c(x). d<x>.0",
        "!c(x). c<x>.0",
        "(new k) (c<{m, new r}:k>.0 | c(y). case y of {z}:k in d<z>.0)",
    ] {
        let p = parse_process(src).unwrap();
        let report = check(&p, &p, &publics(&["c", "d", "m"]), &cfg());
        assert!(
            matches!(report.verdict, Verdict::Bisimilar),
            "{src}: {:?}",
            report.verdict
        );
        assert_eq!(report.plays, 0, "{src} should take the digest fast path");
    }
}

#[test]
fn verdicts_are_symmetric() {
    let pairs = [
        // Distinguished: hide blocks the extrusion `new` allows.
        ("(new n) c<n>.0", "(hide n) c<n>.0"),
        // Bisimilar: payloads sealed under distinct restricted keys.
        ("(new k) c<{a, new r}:k>.0", "(new k2) c<{b, new r2}:k2>.0"),
        // Distinguished: clear payloads differ.
        ("c<a>.0", "c<b>.0"),
    ];
    for (l, r) in pairs {
        let (p, q) = (parse_process(l).unwrap(), parse_process(r).unwrap());
        let pub_names = publics(&["c", "a", "b"]);
        let lr = check(&p, &q, &pub_names, &cfg());
        let rl = check(&q, &p, &pub_names, &cfg());
        assert_eq!(
            lr.verdict.tag(),
            rl.verdict.tag(),
            "asymmetric verdict for ({l}, {r})"
        );
        assert_eq!(lr.plays, rl.plays, "asymmetric meters for ({l}, {r})");
    }
}

/// Disciplined α-conversion: freshen a binder the way the executor does.
fn alpha_rename(p: &Process) -> Process {
    match p {
        Process::Restrict { name, body } => {
            let fresh = name.freshen();
            Process::Restrict {
                name: fresh,
                body: Box::new(body.rename_name(*name, fresh)),
            }
        }
        Process::Hide { name, body } => {
            let fresh = name.freshen();
            Process::Hide {
                name: fresh,
                body: Box::new(body.rename_name(*name, fresh)),
            }
        }
        _ => panic!("test process must start with a binder"),
    }
}

#[test]
fn alpha_renamed_twin_is_bisimilar_without_playing() {
    let p = parse_process("(new k) c<{m, new r}:k>.0").unwrap();
    let q = alpha_rename(&p);
    assert_ne!(p, q, "renaming must change the syntax");
    let report = check(&p, &q, &publics(&["c", "m"]), &cfg());
    assert!(matches!(report.verdict, Verdict::Bisimilar));
    assert_eq!(report.plays, 0, "α-twins share a digest: no game needed");
}

#[test]
fn engine_caches_the_unordered_pair() {
    // (p, q) then (q, p): one slot, so the second submission is a cache
    // hit with a byte-identical body — α-renaming included.
    let engine = AnalysisEngine::new(EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    });
    let p = parse_process("(new n) c<n>.0").unwrap();
    let q = parse_process("(hide n) c<n>.0").unwrap();
    let first = engine.submit(Request::Equiv {
        left: ProcessInput::Parsed(p.clone()),
        right: ProcessInput::Parsed(q.clone()),
    });
    let second = engine.submit(Request::Equiv {
        left: ProcessInput::Parsed(alpha_rename(&q)),
        right: ProcessInput::Parsed(alpha_rename(&p)),
    });
    assert!(!first.cached);
    assert!(second.cached, "swapped α-renamed pair must hit the cache");
    assert_eq!(first.body, second.body);
    assert!(first.body.contains("\"verdict\":\"distinguished\""));
}

#[test]
fn hide_and_new_differ_exactly_by_extrusion() {
    // Pinned: the paper's §6 point that `hide` is not `new` — extrusion
    // of a `new`-bound name is observable, of a `hide`-bound one is not.
    let p = parse_process("(new n) c<n>.0").unwrap();
    let q = parse_process("(hide n) c<n>.0").unwrap();
    let report = check(&p, &q, &publics(&["c"]), &cfg());
    let Verdict::Distinguished { trace } = &report.verdict else {
        panic!("expected distinguished, got {:?}", report.verdict)
    };
    assert_eq!(
        trace,
        &vec![
            "lhs emits n on c".to_owned(),
            "no corresponding output on c from rhs".to_owned(),
        ]
    );
    // The mirrored game pins the mirrored trace.
    let mirror = check(&q, &p, &publics(&["c"]), &cfg());
    let Verdict::Distinguished { trace } = &mirror.verdict else {
        panic!("expected distinguished, got {:?}", mirror.verdict)
    };
    assert_eq!(
        trace,
        &vec![
            "rhs emits n on c".to_owned(),
            "no corresponding output on c from lhs".to_owned(),
        ]
    );
}

#[test]
fn the_digest_fast_path_needs_an_identity_hedge() {
    // Once the attacker holds the pair (a, b), `c<a>.0` is told apart
    // from itself: the defender can only answer `a` with `a`, which
    // clashes with (a, b). α-equality alone must not answer Bisimilar.
    let a = || Value::name(Name::global("a"));
    let b = Value::name(Name::global("b"));
    let hedge = Hedge::with_public_names(&publics(&["c"]))
        .learn(a(), b)
        .unwrap();
    let p = parse_process("c<a>.0").unwrap();
    let same = check_with_hedge(&p, &p, hedge.clone(), &cfg());
    // The behaviourally identical twin shares no digest with `p`, so it
    // always plays the game.
    let twin = parse_process("(new z) c<a>.0").unwrap();
    let played = check_with_hedge(&p, &twin, hedge, &cfg());
    let expected = Verdict::Distinguished {
        trace: vec![
            "lhs emits a on c".to_owned(),
            "rhs replies a on c: injectivity violated: (a, b) clashes with (a, a)".to_owned(),
        ],
    };
    assert_eq!(played.verdict, expected);
    assert_eq!(same.verdict, expected, "plays = {}", same.plays);
    assert!(same.plays > 0);
}
