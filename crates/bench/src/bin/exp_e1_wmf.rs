//! Experiment E1 — the paper's Example 1 (Wide Mouthed Frog).
//!
//! Reproduces the estimate table of Example 1: the least solution maps
//! every bound variable and every public channel to ciphertext-only /
//! public-kind sets, so the process is confined and the secrecy of `m` is
//! guaranteed (Theorem 4).

use nuspi_bench::report::Table;
use nuspi_cfa::{FlowVar, Prod};
use nuspi_protocols::wmf;
use nuspi_security::confinement;

fn main() {
    let spec = wmf::wmf();
    println!("E1: {}\n", spec.description);
    println!("process:\n{}\n", spec.source.trim());

    let report = confinement(&spec.process, &spec.policy);
    let sol = &report.solution;

    let mut table = Table::new(["component", "entry", "productions", "kind"]);
    let mut channels = sol.channels();
    channels.sort_by_key(|c| c.as_str());
    for c in channels {
        let prods = sol.kappa(c);
        let desc = describe_prods(prods.iter());
        let kind = sol
            .var_id(FlowVar::Kappa(c))
            .map(|id| {
                if report.levels.escapes(id) {
                    "may be S"
                } else {
                    "P only"
                }
            })
            .unwrap_or("-");
        table.row(["κ", c.as_str(), &desc, kind]);
    }
    let mut rhos: Vec<(String, String)> = sol
        .flow_vars()
        .filter_map(|(id, fv)| match fv {
            FlowVar::Rho(x) => Some((
                x.symbol().as_str().to_owned(),
                describe_prods(sol.prods_of_id(id).iter()),
            )),
            _ => None,
        })
        .collect();
    rhos.sort();
    for (x, desc) in rhos {
        table.row(["ρ", &x, &desc, ""]);
    }
    println!("{}", table.render());

    println!(
        "paper says: ρ(bv) ⊆ Val_P for bv ∈ {{x,s,t,y,z,q}}; κ(c) ⊆ Val_P for the\n\
         three public channels; hence P is confined and m is kept secret.\n"
    );
    println!(
        "confined: {} ({} violations)",
        report.is_confined(),
        report.violations.len()
    );
    let stats = sol.stats();
    println!(
        "solver: {} flow vars, {} productions, {} edges, {} conditional firings",
        stats.flow_vars, stats.productions, stats.edges, stats.conditional_firings
    );
    assert!(report.is_confined(), "E1 must certify Example 1");
    println!("\nE1 PASS: Example 1 estimate reproduced; WMF confined; m secret.");
}

fn describe_prods<'a>(prods: impl Iterator<Item = &'a Prod>) -> String {
    let mut parts: Vec<String> = prods
        .map(|p| match p {
            Prod::Name(n) => n.as_str().to_owned(),
            Prod::Zero => "0".to_owned(),
            Prod::Suc(_) => "suc(·)".to_owned(),
            Prod::Pair(_, _) => "pair(·,·)".to_owned(),
            Prod::Enc { confounder, .. } => format!("enc{{·,{confounder}}}"),
        })
        .collect();
    parts.sort();
    if parts.is_empty() {
        "∅".to_owned()
    } else {
        parts.join(", ")
    }
}
