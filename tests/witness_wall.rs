//! Differential wall for witness selection.
//!
//! The lint passes pick the production a diagnostic prints with
//! [`Solution::least_rendered`], which renders only the candidates that
//! can still win. The historical rule rendered every candidate: sort on
//! `(class, render_production(p, 4))` and take the first. This wall keeps
//! that rule here, and only here, and requires both to return the same
//! production with the same rendering for every witness the passes can
//! ask for: the κ of every channel (the attacker's knowledge included)
//! under the E001/E002 and E009 candidate filters, and the class-less
//! E006/E008 rule on the ζ entries of `n*`-tracked processes and on the
//! secret candidates of every κ.
//!
//! The corpus: the 21 zoo specs, the 4 open examples in their tracked
//! form, the 12 ladder rungs, and seeded random processes, each under
//! its binary policy and under a graded diamond-4 policy with the same
//! secrets.

use nuspi::diagnostics::LintContext;
use nuspi::Policy;
use nuspi_bench::genproc::{random_process, GenConfig};
use nuspi_bench::testkit::{check, ensure, shrink_u64};
use nuspi_cfa::{attacker::attacker_confounder, FlowVar, Prod, Solution};
use nuspi_protocols::{open_examples, suite};
use nuspi_security::{n_star, n_star_name, AbstractLevel, AbstractSort, SecLattice};
use nuspi_semantics::rng::Rng as _;
use nuspi_syntax::{builder, Process, Value};
use std::collections::HashMap;

/// One flow variable's productions, with their depth-4 renderings
/// computed on first use and kept for the other rules.
struct Renders<'s> {
    sol: &'s Solution,
    prods: Vec<&'s Prod>,
    shown: Vec<Option<String>>,
}

impl<'s> Renders<'s> {
    fn of(sol: &'s Solution, fv: FlowVar) -> Renders<'s> {
        let prods: Vec<&Prod> = sol.prods_of(fv).iter().collect();
        let shown = vec![None; prods.len()];
        Renders { sol, prods, shown }
    }

    /// The historical rule: render every candidate, sort on `(class,
    /// rendering)`, take the first.
    fn old_rule<C: Ord + Copy>(&mut self, candidates: &[(C, usize)]) -> Option<(&'s Prod, String)> {
        for (_, i) in candidates {
            if self.shown[*i].is_none() {
                self.shown[*i] = Some(self.sol.render_production(self.prods[*i], 4));
            }
        }
        let shown = |i: &usize| self.shown[*i].as_deref().unwrap();
        let mut sorted = candidates.to_vec();
        sorted.sort_by(|(c, i), (d, j)| (c, shown(i)).cmp(&(d, shown(j))));
        sorted
            .first()
            .map(|(_, i)| (self.prods[*i], shown(i).to_owned()))
    }

    /// Runs both rules over the productions that pass `keep`, classed by
    /// `class`.
    fn agree<C: Ord + Copy>(
        &mut self,
        what: &str,
        keep: impl Fn(&Prod) -> bool,
        class: impl Fn(&Prod) -> C,
    ) -> Result<(), String> {
        let candidates: Vec<(C, usize)> = (0..self.prods.len())
            .filter(|i| keep(self.prods[*i]))
            .map(|i| (class(self.prods[i]), i))
            .collect();
        let new = self
            .sol
            .least_rendered(candidates.iter().map(|(c, i)| (*c, self.prods[*i])), 4);
        let old = self.old_rule(&candidates);
        ensure(new == old, || {
            format!(
                "{what}: selector chose {:?}, the old rule {:?}",
                new.map(|(_, s)| s),
                old.map(|(_, s)| s)
            )
        })
    }
}

/// The class the confinement and graded-flow passes give a candidate:
/// names and honest ciphertexts first.
fn noise(p: &Prod) -> bool {
    !match p {
        Prod::Name(_) => true,
        Prod::Enc { confounder, .. } => *confounder != attacker_confounder(),
        _ => false,
    }
}

/// Every witness question the passes can ask of `p` under `policy`;
/// `tracked` processes mention `n*` and so also run the invariance rule.
/// The class-less rule also runs over the secret candidates of every κ,
/// where atoms and constructors of every kind compete in one class.
fn check_case(name: &str, p: &Process, policy: &Policy, tracked: bool) -> Result<(), String> {
    let ctx = LintContext::new(p, policy);
    let sem = ctx.semantic();
    let sol = sem.traced_solution();
    let policy = ctx.policy();
    let levels = policy
        .is_graded()
        .then(|| AbstractLevel::compute(sol, policy));
    let downset = policy.lattice().downset(policy.clearance());
    let may_secret = |p: &Prod| sem.confinement.secret_kind(p);
    for chan in sol.channels() {
        let mut renders = Renders::of(sol, FlowVar::Kappa(chan));
        let what = format!("{name}: κ({chan})");
        renders.agree(&format!("{what} secret"), may_secret, noise)?;
        renders.agree(&format!("{what} class-less"), may_secret, |_| ())?;
        if let Some(levels) = &levels {
            let escapes = |p: &Prod| !levels.facts_of_prod(p, policy).minus(downset).is_empty();
            renders.agree(&format!("{what} graded"), escapes, noise)?;
        }
    }
    if tracked {
        let sorts = AbstractSort::compute(sol, n_star());
        for l in p.labels() {
            let exposed = |q: &Prod| sorts.facts_of_prod(q).may_exposed;
            Renders::of(sol, FlowVar::Zeta(l)).agree(
                &format!("{name}: ζ exposed"),
                exposed,
                |_| (),
            )?;
        }
    }
    Ok(())
}

/// The same case under its binary policy and a graded twin.
fn check_both(name: &str, p: &Process, binary: &Policy, tracked: bool) -> Result<(), String> {
    check_case(name, p, binary, tracked)?;
    let mut graded = Policy::with_lattice(SecLattice::diamond4());
    for s in binary.secrets() {
        graded.add_secret(s);
    }
    check_case(&format!("{name} (diamond-4)"), p, &graded, tracked)
}

#[test]
fn selector_matches_the_old_rule_on_the_zoo_and_open_examples() {
    for spec in suite() {
        check_both(spec.name, &spec.process, &spec.policy, false).unwrap();
    }
    for ex in open_examples() {
        let tracked = builder::restrict(
            n_star_name(),
            ex.process.subst(ex.var, &Value::name(n_star_name())),
        );
        let mut policy = ex.policy.clone();
        policy.add_secret(n_star());
        check_both(&format!("open-{}", ex.name), &tracked, &policy, true).unwrap();
    }
}

#[test]
fn selector_matches_the_old_rule_on_the_ladder() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/lang");
    let mut rungs = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("nu") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let name = path.display().to_string();
        let compiled = nuspi_lang::compile(&name, &src).unwrap();
        // Graded rungs already carry a graded policy; check it as is.
        check_case(&name, &compiled.process, &compiled.policy, false).unwrap();
        rungs += 1;
    }
    assert_eq!(rungs, 12);
}

#[test]
fn selector_matches_the_old_rule_on_random_processes() {
    let names: HashMap<u64, &str> = [(0, "datum0"), (1, "key0"), (2, "fresh0")].into();
    check(
        "witness-selector-equals-old-rule",
        60,
        |rng| rng.next_u64() % 100_000,
        shrink_u64,
        |seed| {
            let p = random_process(*seed, &GenConfig::default());
            let secrets: Vec<&str> = (0..3)
                .filter(|i| seed % 3 != *i)
                .map(|i| names[&i])
                .collect();
            check_both(
                &format!("seed {seed}"),
                &p,
                &Policy::with_secrets(secrets),
                false,
            )
        },
    );
}
