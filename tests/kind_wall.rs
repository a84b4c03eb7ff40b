//! Differential wall for the one secrecy classifier.
//!
//! The paper's `kind` operator (Definition 2) and its abstract fixpoint
//! are `level`/`AbstractLevel` under the two-point projection
//! `Policy::binary`. This wall keeps the separate binary classifier they
//! replaced here, and only here, as the reference:
//!
//! * concretely, `kind(w, P) = S ⟺ level(w, P.binary()) ⋢ ⊥`, on seeded
//!   random values and on every output the carefulness monitor sees on
//!   the zoo, whose verdict must equal the reference scan's;
//! * abstractly, the confinement report's levels split at the clearance
//!   equal the reference `may_secret`/`may_public` per flow variable and
//!   `may_secret` per production, its violations equal the reference
//!   rule's, and the lint's E001/E002 carry the reference witness.
//!
//! The corpus: the 21 zoo specs, the 4 open examples in their tracked
//! form, the 12 ladder rungs and seeded random processes, each under its
//! own policy and under seeded diamond-4 policies with raised clearances,
//! names both declared secret and graded, and `hide` binders.

use nuspi::diagnostics::{sort_diagnostics, LintContext, PassRegistry, WitnessStep};
use nuspi::Policy;
use nuspi_bench::genproc::{random_process, GenConfig};
use nuspi_bench::testkit::{check, ensure, random_value, shrink_u64};
use nuspi_cfa::{accept, analyze, attacker, elide, FlowVar, Prod, Solution, VarId};
use nuspi_protocols::{open_examples, suite};
use nuspi_security::{
    carefulness, confinement, level, n_star, n_star_name, ConfinementViolation, Level, SecLattice,
};
use nuspi_semantics::rng::{Rng as _, SplitMix64};
use nuspi_semantics::{explore_tau, ExecConfig};
use nuspi_syntax::{builder, Name, Process, Symbol, Value};
use std::sync::Arc;

// ---- The reference: the binary classifier, as it was ------------------

/// The kind of a value: secret or public.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    S,
    P,
}

/// `kind(w)` per Definition 2.
fn kind(w: &Value, policy: &Policy) -> Kind {
    match w {
        Value::Name(n) => {
            if policy.name_is_secret(*n) {
                Kind::S
            } else {
                Kind::P
            }
        }
        Value::Zero => Kind::P,
        Value::Suc(inner) => kind(inner, policy),
        Value::Pair(a, b) => {
            if kind(a, policy) == Kind::S || kind(b, policy) == Kind::S {
                Kind::S
            } else {
                Kind::P
            }
        }
        Value::Enc { payload, key, .. } => {
            if kind(key, policy) == Kind::S || payload.is_empty() {
                Kind::P
            } else if payload.iter().any(|w| kind(w, policy) == Kind::S) {
                Kind::S
            } else {
                Kind::P
            }
        }
    }
}

/// Per-nonterminal kind facts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct KindFacts {
    may_secret: bool,
    may_public: bool,
}

impl KindFacts {
    fn nonempty(self) -> bool {
        self.may_secret || self.may_public
    }
}

/// The abstract kind fixpoint over a solved grammar.
struct AbstractKind {
    facts: Vec<KindFacts>,
}

impl AbstractKind {
    fn compute(sol: &Solution, policy: &Policy) -> AbstractKind {
        let mut facts = vec![KindFacts::default(); sol.flow_vars().count()];
        loop {
            let mut changed = false;
            for (id, _) in sol.flow_vars() {
                let mut here = facts[id.index()];
                for p in sol.prods_of_id(id) {
                    let f = prod_facts(p, &facts, policy);
                    here.may_secret |= f.may_secret;
                    here.may_public |= f.may_public;
                }
                if here != facts[id.index()] {
                    facts[id.index()] = here;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        AbstractKind { facts }
    }

    fn facts(&self, id: VarId) -> KindFacts {
        self.facts.get(id.index()).copied().unwrap_or_default()
    }

    fn facts_of_prod(&self, p: &Prod, policy: &Policy) -> KindFacts {
        prod_facts(p, &self.facts, policy)
    }
}

fn prod_facts(p: &Prod, facts: &[KindFacts], policy: &Policy) -> KindFacts {
    let get = |v: &VarId| facts.get(v.index()).copied().unwrap_or_default();
    match p {
        Prod::Name(n) => {
            let secret = policy.is_secret(*n);
            KindFacts {
                may_secret: secret,
                may_public: !secret,
            }
        }
        Prod::Zero => KindFacts {
            may_secret: false,
            may_public: true,
        },
        Prod::Suc(a) => get(a),
        Prod::Pair(a, b) => {
            let (fa, fb) = (get(a), get(b));
            KindFacts {
                may_secret: (fa.may_secret && fb.nonempty()) || (fb.may_secret && fa.nonempty()),
                may_public: fa.may_public && fb.may_public,
            }
        }
        Prod::Enc { args, key, .. } => {
            let fk = get(key);
            let all_nonempty = args.iter().all(|a| get(a).nonempty());
            let all_public = args.iter().all(|a| get(a).may_public);
            let some_secret = args.iter().any(|a| get(a).may_secret);
            KindFacts {
                may_secret: fk.may_public && !args.is_empty() && some_secret && all_nonempty,
                may_public: (fk.may_secret && all_nonempty)
                    || (fk.nonempty() && args.is_empty())
                    || (fk.may_public && all_public),
            }
        }
    }
}

/// Definition 4 as the reference decided it: free secrets, Table 2
/// re-validation, then every public channel whose κ may be secret-kind.
fn reference_violations(
    p: &Process,
    policy: &Policy,
    sol: &Solution,
    kinds: &AbstractKind,
) -> Vec<ConfinementViolation> {
    let mut free: Vec<Name> = p
        .free_names()
        .into_iter()
        .filter(|n| policy.name_is_secret(*n))
        .collect();
    free.sort_by_key(|n| n.to_string());
    let mut out: Vec<ConfinementViolation> = free
        .into_iter()
        .map(ConfinementViolation::FreeSecretName)
        .collect();
    out.extend(
        accept::verify(sol, p)
            .into_iter()
            .map(ConfinementViolation::NotAcceptable),
    );
    for chan in sol.channels() {
        let Some(id) = sol.var_id(FlowVar::Kappa(chan)) else {
            continue;
        };
        if policy.is_public(chan) && kinds.facts(id).may_secret {
            out.push(if chan == attacker::attacker_name() {
                ConfinementViolation::SecretDerivableByAttacker
            } else {
                ConfinementViolation::SecretOnPublicChannel { channel: chan }
            });
        }
    }
    out
}

// ---- The checks ------------------------------------------------------

/// `level(w) ⋢ ⊥` under the projection — the merged `kind(w) = S`.
fn projected_secret(w: &Value, policy: &Policy) -> bool {
    let binary = policy.binary();
    !binary.observes(level(w, &binary))
}

fn check_value(what: &str, w: &Value, policy: &Policy) -> Result<(), String> {
    ensure(
        (kind(w, policy) == Kind::S) == projected_secret(w, policy),
        || format!("{what}: kind and the projected level disagree on {w} under {policy}"),
    )
}

/// The abstract and verdict checks of one process under one policy.
fn check_case(name: &str, p: &Process, policy: &Policy) -> Result<(), String> {
    let ctx = LintContext::new(p, policy);
    let policy = ctx.policy(); // hidden names folded in
    let sem = ctx.semantic();
    let report = &sem.confinement;
    let sol = &report.solution;
    let kinds = AbstractKind::compute(sol, policy);
    let binary = policy.binary();
    let observable = binary.lattice().downset(binary.clearance());
    let what = format!("{name} under {policy}");
    for (id, fv) in sol.flow_vars() {
        let k = kinds.facts(id);
        let public = !report.levels.facts(id).intersect(observable).is_empty();
        ensure(k.may_secret == report.levels.escapes(id), || {
            format!("{what}: may_secret differs at {fv:?}")
        })?;
        ensure(k.may_public == public, || {
            format!("{what}: may_public differs at {fv:?}")
        })?;
        for prod in sol.prods_of_id(id) {
            ensure(
                kinds.facts_of_prod(prod, policy).may_secret == report.secret_kind(prod),
                || format!("{what}: may_secret differs on a production of {fv:?}"),
            )?;
        }
    }
    let expected = reference_violations(p, policy, sol, &kinds);
    ensure(report.violations == expected, || {
        format!(
            "{what}: violations {:?}, the reference {expected:?}",
            report.violations
        )
    })?;
    // The untraced entry point decides the same, on its own solve.
    let direct = confinement(p, policy);
    ensure(direct.violations == expected, || {
        format!(
            "{what}: `confinement` found {:?}, the lint context {expected:?}",
            direct.violations
        )
    })?;

    // E001/E002: one per secret-kind public κ, with the witness the
    // reference classifier picks.
    let registry = PassRegistry::with_defaults();
    let pass = registry
        .passes()
        .find(|p| p.name() == "confinement")
        .expect("confinement pass");
    let mut diags = pass.run(&ctx);
    sort_diagnostics(&mut diags);
    let got: Vec<(&str, String, &[WitnessStep])> = diags
        .iter()
        .filter(|d| matches!(d.code, "E001" | "E002"))
        .map(|d| (d.code, d.span.to_string(), &d.witness[..]))
        .collect();
    let mut want = Vec::new();
    for v in &expected {
        let (code, chan) = match v {
            ConfinementViolation::SecretOnPublicChannel { channel } => ("E001", *channel),
            ConfinementViolation::SecretDerivableByAttacker => ("E002", attacker::attacker_name()),
            _ => continue,
        };
        let fv = FlowVar::Kappa(chan);
        let candidates = sol
            .prods_of(fv)
            .iter()
            .filter(|q| kinds.facts_of_prod(q, policy).may_secret)
            .map(|q| (noise(q), q));
        let mut witness = Vec::new();
        if let Some((prod, rendered)) = sol.least_rendered(candidates, 4) {
            witness.push(WitnessStep {
                rule: "kind classification (Definition 2)",
                detail: format!("kind({}) = S under the declared policy", elide(rendered)),
            });
            witness.extend(ctx.witness_from_flow(fv, prod));
        }
        want.push((
            code,
            nuspi::diagnostics::Span::Channel(chan).to_string(),
            witness,
        ));
    }
    want.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let want: Vec<(&str, String, &[WitnessStep])> = want
        .iter()
        .map(|(c, s, w)| (*c, s.clone(), &w[..]))
        .collect();
    ensure(got == want, || {
        format!("{what}: E001/E002 {got:?}, the reference {want:?}")
    })
}

/// The class the lint gives a witness candidate: names and honest
/// ciphertexts first.
fn noise(p: &Prod) -> bool {
    !match p {
        Prod::Name(_) => true,
        Prod::Enc { confounder, .. } => *confounder != attacker::attacker_confounder(),
        _ => false,
    }
}

/// The names a process mentions, in string order.
fn names_of(p: &Process) -> Vec<Symbol> {
    let sol = analyze(p);
    let mut names: Vec<Symbol> = sol.channels();
    for (id, _) in sol.flow_vars() {
        for prod in sol.prods_of_id(id) {
            if let Prod::Name(n) = prod {
                names.push(*n);
            }
        }
    }
    names.sort_by_key(|s| s.as_str());
    names.dedup();
    names
}

/// A seeded diamond-4 policy over `names`, keeping `base`'s secrets:
/// each name is left alone, graded, or both declared secret and graded,
/// and the clearance is any level of the lattice.
fn diamond_policy(seed: u64, base: &Policy, names: &[Symbol]) -> Policy {
    let lat = SecLattice::diamond4();
    let levels: Vec<Level> = lat.levels().collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut policy = Policy::with_lattice(lat);
    for s in base.secrets() {
        policy.add_secret(s);
    }
    for n in names {
        let l = levels[rng.gen_range(0..levels.len())];
        match rng.gen_range(0..4) {
            0 => {
                policy.grade(*n, l);
            }
            1 => {
                policy.add_secret(*n).grade(*n, l);
            }
            _ => {}
        }
    }
    policy.set_clearance(levels[rng.gen_range(0..levels.len())]);
    policy
}

/// `p` under its own policy and under `variants` seeded diamond-4 ones.
fn check_variants(name: &str, p: &Process, policy: &Policy, seed: u64, variants: u64) {
    check_case(name, p, policy).unwrap();
    let names = names_of(p);
    for i in 0..variants {
        check_case(name, p, &diamond_policy(seed * 31 + i, policy, &names)).unwrap();
    }
}

#[test]
fn kind_is_the_projected_level_on_random_values() {
    let names: Vec<Symbol> = (0..4).map(|i| Symbol::intern(&format!("n{i}"))).collect();
    check(
        "kind-is-projected-level",
        300,
        |rng| rng.next_u64(),
        shrink_u64,
        |seed| {
            let mut rng = SplitMix64::seed_from_u64(*seed);
            let w = random_value(&mut rng, 3);
            let base = Policy::with_secrets(
                names
                    .iter()
                    .copied()
                    .filter(|n| seed % 3 != 0 || n.as_str() != "n0"),
            );
            check_value("two-point", &w, &base)?;
            check_value(
                "diamond-4",
                &w,
                &diamond_policy(*seed, &Policy::new(), &names),
            )
        },
    );
}

#[test]
fn monitor_outputs_on_the_zoo_classify_alike() {
    let cfg = ExecConfig::default();
    for (i, spec) in suite().into_iter().enumerate() {
        let names = names_of(&spec.process);
        let policies = [
            spec.policy.clone(),
            diamond_policy(i as u64, &spec.policy, &names),
            diamond_policy(i as u64 + 100, &spec.policy, &names),
        ];
        let mut outputs: Vec<(Name, Arc<Value>)> = Vec::new();
        explore_tau(&spec.process, &cfg, |_, commitments| {
            for c in commitments {
                for out in &c.outputs {
                    outputs.push((out.channel, Arc::clone(&out.value)));
                }
            }
            true
        });
        assert!(!outputs.is_empty(), "{}: no outputs explored", spec.name);
        for policy in &policies {
            let policy = policy.with_hidden_of(&spec.process);
            let mut reference = Vec::new();
            for (chan, w) in &outputs {
                check_value(spec.name, w, &policy).unwrap();
                if policy.is_public(chan.canonical()) && kind(w, &policy) == Kind::S {
                    reference.push((chan.canonical(), w.canonicalize().to_string()));
                }
            }
            let monitor: Vec<(Symbol, String)> = carefulness(&spec.process, &policy, &cfg)
                .violations
                .iter()
                .map(|v| (v.channel, v.value.canonicalize().to_string()))
                .collect();
            assert_eq!(monitor, reference, "{} under {policy}", spec.name);
        }
    }
}

#[test]
fn projected_levels_match_the_reference_on_the_zoo_and_open_examples() {
    for (i, spec) in suite().into_iter().enumerate() {
        check_variants(spec.name, &spec.process, &spec.policy, i as u64, 3);
    }
    for (i, ex) in open_examples().into_iter().enumerate() {
        let tracked = builder::restrict(
            n_star_name(),
            ex.process.subst(ex.var, &Value::name(n_star_name())),
        );
        let mut policy = ex.policy.clone();
        policy.add_secret(n_star());
        check_variants(
            &format!("open-{}", ex.name),
            &tracked,
            &policy,
            50 + i as u64,
            3,
        );
    }
}

#[test]
fn projected_levels_match_the_reference_on_the_ladder() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/lang");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("nu"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 12);
    for (i, path) in paths.iter().enumerate() {
        let src = std::fs::read_to_string(path).unwrap();
        let name = path.display().to_string();
        let compiled = nuspi_lang::compile(&name, &src).unwrap();
        check_variants(&name, &compiled.process, &compiled.policy, 80 + i as u64, 3);
    }
}

#[test]
fn projected_levels_match_the_reference_on_random_processes() {
    check(
        "projected-levels-equal-reference",
        40,
        |rng| rng.next_u64() % 100_000,
        shrink_u64,
        |seed| {
            let p = random_process(*seed, &GenConfig::default());
            // Every other seed hides a datum name: secret by construction.
            let p = if seed % 2 == 0 {
                builder::hide(Name::global("datum0"), p)
            } else {
                p
            };
            let secrets = ["datum1", "key0", "key1"]
                .into_iter()
                .filter(|s| seed % 3 != 0 || *s != "key1");
            let policy = Policy::with_secrets(secrets);
            let name = format!("seed {seed}");
            check_case(&name, &p, &policy)?;
            let names = names_of(&p);
            for i in 0..2 {
                check_case(&name, &p, &diamond_policy(seed * 7 + i, &policy, &names))?;
            }
            Ok(())
        },
    );
}
