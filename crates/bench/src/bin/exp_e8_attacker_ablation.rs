//! Experiment E8 (ablation) — why Definition 4 needs both directions of
//! `κ(n) = Val_P`.
//!
//! Compares, per protocol: the *plain* confinement check (`⊆` only, on
//! the least solution of `P` alone) against the *attacker-closed* check
//! (Lemma 1's estimate), and the bounded intruder's verdict as ground
//! truth. A row where plain says "confined" but an attack exists is a
//! false negative of the plain check — the untagged Otway–Rees type-flaw
//! is exactly such a row, and the attacker-closed check eliminates it.

use nuspi_bench::report::Table;
use nuspi_cfa::{analyze, FlowVar};
use nuspi_protocols::suite;
use nuspi_security::{confinement, reveals, AbstractLevel, IntruderConfig, Knowledge};

fn main() {
    println!("E8 (ablation): plain vs attacker-closed confinement vs intruder ground truth\n");
    let cheap = IntruderConfig {
        max_depth: 16,
        max_states: 20_000,
        max_injections: 12,
        ..IntruderConfig::default()
    };
    let forging = IntruderConfig {
        max_depth: 8,
        max_states: 60_000,
        max_injections: 10,
        pair_components: 8,
        ..IntruderConfig::default()
    };
    let mut table = Table::new([
        "protocol",
        "plain ⊆-check",
        "attacker-closed",
        "attack exists",
        "plain verdict",
    ]);
    let mut plain_false_negatives = 0;
    let mut closed_false_negatives = 0;
    for spec in suite() {
        // Plain: least solution of P alone, ⊆-direction only.
        let sol = analyze(&spec.process);
        let binary = spec.policy.binary();
        let levels = AbstractLevel::compute(&sol, &binary);
        let plain_confined = sol.channels().into_iter().all(|c| {
            binary.is_secret(c)
                || sol
                    .var_id(FlowVar::Kappa(c))
                    .map(|id| !levels.escapes(id))
                    .unwrap_or(true)
        }) && binary.free_secret_names(&spec.process).is_empty();

        // Attacker-closed (the shipped check).
        let closed_confined = confinement(&spec.process, &spec.policy).is_confined();

        // Ground truth: bounded intruder.
        let public_names: Vec<_> = spec
            .process
            .free_names()
            .into_iter()
            .map(|n| n.canonical())
            .filter(|n| spec.policy.is_public(*n))
            .collect();
        let k0 = Knowledge::from_names(public_names);
        let attack = reveals(&spec.process, &k0, spec.secret, &cheap)
            .or_else(|| reveals(&spec.process, &k0, spec.secret, &forging));

        let plain_fn = plain_confined && attack.is_some();
        let closed_fn = closed_confined && attack.is_some();
        plain_false_negatives += usize::from(plain_fn);
        closed_false_negatives += usize::from(closed_fn);
        table.row([
            spec.name.to_owned(),
            plain_confined.to_string(),
            closed_confined.to_string(),
            attack.is_some().to_string(),
            if plain_fn {
                "FALSE NEGATIVE".to_owned()
            } else {
                "ok".to_owned()
            },
        ]);
    }
    println!("{}", table.render());
    println!("plain ⊆-only check misses {plain_false_negatives} attack(s);");
    println!("attacker-closed check misses {closed_false_negatives}.");
    assert!(
        plain_false_negatives >= 1,
        "the untagged Otway–Rees type-flaw must expose the plain check"
    );
    assert_eq!(
        closed_false_negatives, 0,
        "the attacker-closed check must be attack-sound on the suite"
    );
    println!(
        "\nE8 PASS: Definition 4's ⊇ direction (the most powerful attacker) is\n\
         load-bearing — dropping it admits a certified-yet-broken protocol."
    );
}
