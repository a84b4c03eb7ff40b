//! Property-based tests over core invariants of the calculus and the
//! analysis: evaluation, canonicalisation, the Dolev–Yao closure,
//! kind/sort operators, and subject reduction on seeded random processes.
//!
//! Runs on the in-tree harness (`nuspi_bench::testkit`) — seeded
//! generators plus greedy shrinking, no external crates.

use nuspi::security::{level, sort, Knowledge, Policy, Sort};
use nuspi::semantics::{commitments, eval, CommitConfig, EvalMode, Rng};
use nuspi::syntax::{Name, Value};
use nuspi_bench::genproc::{random_process, GenConfig};
use nuspi_bench::testkit::{
    check, ensure, ensure_eq, random_expr, random_value, shrink_expr, shrink_value, shrink_vec,
};
use std::rc::Rc;

#[test]
fn canonicalize_is_idempotent() {
    check(
        "canonicalize-idempotent",
        256,
        |rng| random_value(rng, 3),
        shrink_value,
        |w| {
            let once = w.canonicalize();
            ensure_eq(once.canonicalize(), once)
        },
    );
}

#[test]
fn canonicalize_preserves_kind_and_sort() {
    check(
        "canonicalize-preserves-kind-sort",
        256,
        |rng| random_value(rng, 3),
        shrink_value,
        |w| {
            // A two-point policy: `level` is the paper's `kind` here.
            let policy = Policy::with_secrets(["n0", "n1"]);
            let tracked = nuspi::Symbol::intern("n2");
            let c = w.canonicalize();
            ensure_eq(level(w, &policy), level(&c, &policy))?;
            ensure_eq(sort(w, tracked), sort(&c, tracked))
        },
    );
}

#[test]
fn evaluation_restricts_exactly_the_fresh_confounders() {
    check(
        "eval-restricts-fresh-confounders",
        256,
        |rng| random_expr(rng, 3),
        shrink_expr,
        |e| {
            let r = eval(e, EvalMode::NuSpi).map_err(|err| err.to_string())?;
            // Every restricted name occurs in the value, is non-source, and
            // there are no duplicates (the "w.o. duplicates" side condition).
            let mut seen = std::collections::HashSet::new();
            for n in &r.restricted {
                ensure(!n.is_source(), || format!("{n} is a source name"))?;
                ensure(r.value.contains_name(*n), || {
                    format!("{n} restricted but absent from {}", r.value)
                })?;
                ensure(seen.insert(*n), || format!("{n} restricted twice"))?;
            }
            Ok(())
        },
    );
}

#[test]
fn evaluation_is_deterministic_up_to_confounders() {
    check(
        "eval-deterministic-up-to-confounders",
        256,
        |rng| random_expr(rng, 3),
        shrink_expr,
        |e| {
            let a = eval(e, EvalMode::NuSpi).map_err(|err| err.to_string())?;
            let b_ = eval(e, EvalMode::NuSpi).map_err(|err| err.to_string())?;
            ensure_eq(a.value.canonicalize(), b_.value.canonicalize())?;
            ensure_eq(a.restricted.len(), b_.restricted.len())
        },
    );
}

#[test]
fn classic_mode_evaluation_is_fully_deterministic() {
    check(
        "classic-eval-deterministic",
        256,
        |rng| random_expr(rng, 3),
        shrink_expr,
        |e| {
            let a = eval(e, EvalMode::ClassicSpi).map_err(|err| err.to_string())?;
            let b_ = eval(e, EvalMode::ClassicSpi).map_err(|err| err.to_string())?;
            ensure_eq(a.value, b_.value)?;
            ensure(a.restricted.is_empty(), || {
                format!("classic mode restricted {:?}", a.restricted)
            })
        },
    );
}

#[test]
fn knowledge_closure_is_extensive_and_idempotent() {
    check(
        "knowledge-closure-extensive-idempotent",
        128,
        |rng| {
            let n = rng.gen_range(0..6);
            (0..n).map(|_| random_value(rng, 3)).collect::<Vec<_>>()
        },
        |ws| shrink_vec(ws, shrink_value),
        |ws| {
            let mut k = Knowledge::from_names(["c"]);
            for w in ws {
                k.learn(Rc::clone(w));
            }
            // extensive: everything learned is derivable
            for w in ws {
                ensure(k.can_derive(w), || format!("learned {w} not derivable"))?;
            }
            // idempotent: re-learning changes nothing
            let before = k.len();
            for w in ws {
                k.learn(Rc::clone(w));
            }
            ensure_eq(k.len(), before)
        },
    );
}

#[test]
fn derivable_values_stay_derivable_as_knowledge_grows() {
    check(
        "knowledge-closure-monotone",
        128,
        |rng| {
            let n = rng.gen_range_inclusive(1, 4);
            let ws: Vec<_> = (0..n).map(|_| random_value(rng, 3)).collect();
            let extra = random_value(rng, 3);
            (ws, extra)
        },
        |(ws, extra)| {
            let mut out: Vec<_> = shrink_vec(ws, shrink_value)
                .into_iter()
                .filter(|ws2| !ws2.is_empty())
                .map(|ws2| (ws2, Rc::clone(extra)))
                .collect();
            out.extend(shrink_value(extra).into_iter().map(|e| (ws.clone(), e)));
            out
        },
        |(ws, extra)| {
            let mut k = Knowledge::from_names(["c"]);
            for w in ws {
                k.learn(Rc::clone(w));
            }
            let derivable: Vec<Rc<Value>> =
                ws.iter().filter(|w| k.can_derive(w)).cloned().collect();
            k.learn(Rc::clone(extra));
            for w in &derivable {
                ensure(k.can_derive(w), || {
                    format!("monotonicity of C(W) broken at {w}")
                })?;
            }
            Ok(())
        },
    );
}

#[test]
fn secret_key_ciphertexts_are_public_kind() {
    check(
        "secret-key-ciphertexts-public",
        256,
        |rng| random_value(rng, 3),
        shrink_value,
        |payload| {
            let policy = Policy::with_secrets(["sk"]);
            let ct = Value::enc(
                vec![Rc::clone(payload)],
                Name::global("r"),
                Value::name("sk"),
            );
            ensure_eq(level(&ct, &policy), policy.lattice().bottom())
        },
    );
}

#[test]
fn ciphertext_sort_is_always_independent() {
    check(
        "ciphertext-sort-independent",
        256,
        |rng| (random_value(rng, 3), random_value(rng, 3)),
        |(p, k)| {
            let mut out: Vec<_> = shrink_value(p)
                .into_iter()
                .map(|p2| (p2, Rc::clone(k)))
                .collect();
            out.extend(shrink_value(k).into_iter().map(|k2| (Rc::clone(p), k2)));
            out
        },
        |(payload, key)| {
            let tracked = nuspi::Symbol::intern("n0");
            let ct = Value::enc(vec![Rc::clone(payload)], Name::global("r"), Rc::clone(key));
            ensure_eq(sort(&ct, tracked), Sort::I)
        },
    );
}

#[test]
fn commitments_of_closed_processes_have_closed_residuals() {
    for seed in 0..400u64 {
        let p = random_process(seed, &GenConfig::default());
        for c in commitments(&p, &CommitConfig::default()) {
            match c.agent {
                nuspi::semantics::Agent::Proc(q) => assert!(q.is_closed(), "seed {seed}"),
                nuspi::semantics::Agent::Conc(conc) => {
                    assert!(conc.body.is_closed(), "seed {seed}")
                }
                nuspi::semantics::Agent::Abs(abs) => {
                    let mut fv = abs.body.free_vars();
                    fv.remove(&abs.var);
                    assert!(fv.is_empty(), "seed {seed}");
                }
            }
        }
    }
}

#[test]
fn analysis_predicts_every_immediate_output() {
    // One-step subject reduction, clause (3), on random processes.
    for seed in 0..300u64 {
        let p = random_process(seed, &GenConfig::default());
        let sol = nuspi::analyze(&p);
        for c in commitments(&p, &CommitConfig::default()) {
            if let (nuspi::semantics::Action::Out(m), nuspi::semantics::Agent::Conc(conc)) =
                (&c.action, &c.agent)
            {
                assert!(
                    sol.contains(nuspi::FlowVar::Zeta(conc.label), &conc.value),
                    "seed {seed}: ζ({:?}) misses {}",
                    conc.label,
                    conc.value
                );
                assert!(
                    sol.contains(nuspi::FlowVar::Kappa(m.canonical()), &conc.value),
                    "seed {seed}: κ({}) misses {}",
                    m.canonical(),
                    conc.value
                );
            }
        }
    }
}

/// Rebuilds `p` with every restriction binder renamed to a globally
/// fresh name — an α-renaming, so all digests must be invariant.
fn freshen_restrictions(p: &nuspi::Process) -> nuspi::Process {
    use nuspi::Process as P;
    match p {
        P::Nil => P::Nil,
        P::Output { chan, msg, then } => P::Output {
            chan: chan.clone(),
            msg: msg.clone(),
            then: Box::new(freshen_restrictions(then)),
        },
        P::Input { chan, var, then } => P::Input {
            chan: chan.clone(),
            var: *var,
            then: Box::new(freshen_restrictions(then)),
        },
        P::Par(l, r) => P::Par(
            Box::new(freshen_restrictions(l)),
            Box::new(freshen_restrictions(r)),
        ),
        P::Restrict { name, body } => {
            let fresh = name.freshen();
            P::Restrict {
                name: fresh,
                body: Box::new(freshen_restrictions(&body.rename_name(*name, fresh))),
            }
        }
        P::Hide { name, body } => {
            let fresh = name.freshen();
            P::Hide {
                name: fresh,
                body: Box::new(freshen_restrictions(&body.rename_name(*name, fresh))),
            }
        }
        P::Match { lhs, rhs, then } => P::Match {
            lhs: lhs.clone(),
            rhs: rhs.clone(),
            then: Box::new(freshen_restrictions(then)),
        },
        P::Replicate(q) => P::Replicate(Box::new(freshen_restrictions(q))),
        P::Let {
            fst,
            snd,
            expr,
            then,
        } => P::Let {
            fst: *fst,
            snd: *snd,
            expr: expr.clone(),
            then: Box::new(freshen_restrictions(then)),
        },
        P::CaseNat {
            expr,
            zero,
            pred,
            succ,
        } => P::CaseNat {
            expr: expr.clone(),
            zero: Box::new(freshen_restrictions(zero)),
            pred: *pred,
            succ: Box::new(freshen_restrictions(succ)),
        },
        P::CaseDec {
            expr,
            vars,
            key,
            then,
        } => P::CaseDec {
            expr: expr.clone(),
            vars: vars.clone(),
            key: key.clone(),
            then: Box::new(freshen_restrictions(then)),
        },
    }
}

#[test]
fn alpha_equivalent_processes_have_equal_digests() {
    use nuspi::syntax::{alpha_equivalent, alpha_hash, canonical_digest};
    for seed in 0..400u64 {
        let p = random_process(seed, &GenConfig::default());
        let q = freshen_restrictions(&p);
        assert!(
            alpha_equivalent(&p, &q),
            "seed {seed}: binder freshening must be an α-renaming of {p}"
        );
        assert_eq!(
            canonical_digest(&p),
            canonical_digest(&q),
            "seed {seed}: canonical digest must be α-invariant for {p}"
        );
        assert_eq!(alpha_hash(&p), alpha_hash(&q), "seed {seed}");
        // Idempotent: freshening again still lands in the same class.
        let r = freshen_restrictions(&q);
        assert_eq!(canonical_digest(&p), canonical_digest(&r), "seed {seed}");
    }
}

#[test]
fn single_node_perturbations_change_the_digest() {
    use nuspi::syntax::{alpha_equivalent, canonical_digest, Name};
    for seed in 0..400u64 {
        let p = random_process(seed, &GenConfig::default());
        let d = canonical_digest(&p);

        // Insert one node at the root.
        let wrapped = nuspi::Process::Replicate(Box::new(p.clone()));
        assert!(!alpha_equivalent(&p, &wrapped), "seed {seed}");
        assert_ne!(d, canonical_digest(&wrapped), "seed {seed}: !P vs P");

        let parred = nuspi::Process::Par(Box::new(p.clone()), Box::new(nuspi::Process::Nil));
        assert!(!alpha_equivalent(&p, &parred), "seed {seed}");
        assert_ne!(d, canonical_digest(&parred), "seed {seed}: P|0 vs P");

        // Renaming a *free* name is a semantic change, not an α-step —
        // the digest must move (guarded: the name must actually occur
        // free, and the renaming must not collide with another name).
        let renamed = p.rename_name(Name::global("c"), Name::global("zz-perturbed-free-name"));
        if !alpha_equivalent(&p, &renamed) {
            assert_ne!(d, canonical_digest(&renamed), "seed {seed}: free rename");
        }
    }
}

/// Rebuilds `p` with every `new` binder swapped for `hide`, counting
/// the swaps. Zero swaps means `p` is restriction-free.
fn hide_restrictions(p: &nuspi::Process, swapped: &mut usize) -> nuspi::Process {
    use nuspi::Process as P;
    match p {
        P::Restrict { name, body } => {
            *swapped += 1;
            P::Hide {
                name: *name,
                body: Box::new(hide_restrictions(body, swapped)),
            }
        }
        P::Nil => P::Nil,
        P::Output { chan, msg, then } => P::Output {
            chan: chan.clone(),
            msg: msg.clone(),
            then: Box::new(hide_restrictions(then, swapped)),
        },
        P::Input { chan, var, then } => P::Input {
            chan: chan.clone(),
            var: *var,
            then: Box::new(hide_restrictions(then, swapped)),
        },
        P::Par(l, r) => P::Par(
            Box::new(hide_restrictions(l, swapped)),
            Box::new(hide_restrictions(r, swapped)),
        ),
        P::Hide { name, body } => P::Hide {
            name: *name,
            body: Box::new(hide_restrictions(body, swapped)),
        },
        P::Match { lhs, rhs, then } => P::Match {
            lhs: lhs.clone(),
            rhs: rhs.clone(),
            then: Box::new(hide_restrictions(then, swapped)),
        },
        P::Replicate(q) => P::Replicate(Box::new(hide_restrictions(q, swapped))),
        P::Let {
            fst,
            snd,
            expr,
            then,
        } => P::Let {
            fst: *fst,
            snd: *snd,
            expr: expr.clone(),
            then: Box::new(hide_restrictions(then, swapped)),
        },
        P::CaseNat {
            expr,
            zero,
            pred,
            succ,
        } => P::CaseNat {
            expr: expr.clone(),
            zero: Box::new(hide_restrictions(zero, swapped)),
            pred: *pred,
            succ: Box::new(hide_restrictions(succ, swapped)),
        },
        P::CaseDec {
            expr,
            vars,
            key,
            then,
        } => P::CaseDec {
            expr: expr.clone(),
            vars: vars.clone(),
            key: key.clone(),
            then: Box::new(hide_restrictions(then, swapped)),
        },
    }
}

#[test]
fn hide_and_new_are_distinct_binders_in_the_digest() {
    use nuspi::syntax::{alpha_equivalent, canonical_digest};
    // Pinned pairs: the same body under the two binders must sit in
    // different α-classes with different digests.
    let pairs = [
        ("(new x) c<x>.0", "(hide x) c<x>.0"),
        (
            "(new k) (new m) c<{m, new r}:k>.0",
            "(hide k) (new m) c<{m, new r}:k>.0",
        ),
        ("(new a) (a<0>.0 | a(y).0)", "(hide a) (a<0>.0 | a(y).0)"),
    ];
    for (new_src, hide_src) in pairs {
        let pn = nuspi::parse_process(new_src).unwrap();
        let ph = nuspi::parse_process(hide_src).unwrap();
        assert!(
            !alpha_equivalent(&pn, &ph),
            "{new_src} vs {hide_src}: binders must not be conflated"
        );
        assert_ne!(
            canonical_digest(&pn),
            canonical_digest(&ph),
            "{new_src} vs {hide_src}: digest must separate hide from new"
        );
    }
    // `hide` is still α-invariant on its own: freshening the binder's
    // id (the α-step in this calculus — canonical base names carry
    // policy meaning and stay put) keeps the digest fixed.
    let a = nuspi::parse_process("(hide x) c<x>.0").unwrap();
    let b = freshen_restrictions(&a);
    assert!(alpha_equivalent(&a, &b));
    assert_eq!(canonical_digest(&a), canonical_digest(&b));
    // Perturbation over the random corpus: swapping every `new` for
    // `hide` must move the digest whenever there is a binder to swap.
    for seed in 0..200u64 {
        let p = random_process(seed, &GenConfig::default());
        let mut swapped = 0;
        let q = hide_restrictions(&p, &mut swapped);
        if swapped > 0 {
            assert!(!alpha_equivalent(&p, &q), "seed {seed}");
            assert_ne!(
                canonical_digest(&p),
                canonical_digest(&q),
                "seed {seed}: {swapped} binder swaps left the digest unchanged"
            );
        }
    }
}

#[test]
fn digests_are_byte_stable_across_runs() {
    use nuspi::syntax::canonical_digest;
    // Pinned hex digests: these change only when the canonical-form or
    // hash algorithm changes, which must be a deliberate decision (the
    // engine's on-disk/archived cache keys and trace correlation both
    // lean on cross-run stability).
    let pinned = [
        ("0", "fda1c23f6296f7b42584d6f2a074a7c5"),
        (
            "(new k) (new m) c<{m, new r}:k>.0",
            "d2a0a460235b4dab15c0a41e848eb5af",
        ),
        (
            "!(ping<0>.0 | ping(x).pong<x>.0)",
            "0fa6ee124034ca0a5994da5356e69a20",
        ),
    ];
    for (src, hex) in pinned {
        let p = nuspi::parse_process(src).unwrap();
        assert_eq!(
            canonical_digest(&p).to_hex(),
            hex,
            "digest of {src:?} drifted — cache keys would miss across versions"
        );
        // And stable within the run, including through an α-renaming.
        assert_eq!(
            canonical_digest(&freshen_restrictions(&p)).to_hex(),
            hex,
            "{src:?}"
        );
    }
    // Random processes: recomputation is reproducible.
    for seed in 0..200u64 {
        let p = random_process(seed, &GenConfig::default());
        assert_eq!(
            canonical_digest(&p),
            canonical_digest(&p.clone()),
            "seed {seed}"
        );
    }
}

#[test]
fn parse_print_round_trip_preserves_structure() {
    for seed in 0..300u64 {
        let p = random_process(seed, &GenConfig::default());
        let printed = p.to_string();
        let q = nuspi::parse_process(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: {printed}: {e}"));
        assert_eq!(p.size(), q.size(), "seed {seed}");
        assert_eq!(p.free_names().len(), q.free_names().len(), "seed {seed}");
    }
}
