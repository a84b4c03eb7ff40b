//! End-to-end pipeline tests through the `nuspi` facade: parse → print →
//! re-parse → analyse → audit, across the whole protocol suite.

use nuspi::protocols::suite;
use nuspi::{Analyzer, ExecConfig, Policy};
use nuspi_cfa::accept;
use nuspi_security::{audit, AuditConfig};
use std::collections::BTreeSet;

#[test]
fn audits_match_expected_verdicts_across_the_suite() {
    for spec in suite() {
        let analyzer = Analyzer::new()
            .policy(spec.policy.clone())
            .exec_config(ExecConfig {
                max_depth: 9,
                max_states: 500,
                ..ExecConfig::default()
            });
        let audit = analyzer.audit(&spec.process).expect("closed");
        assert_eq!(
            audit.confinement.is_confined(),
            spec.expect_confined,
            "{}: static verdict",
            spec.name
        );
        if spec.expect_confined {
            assert!(audit.carefulness.is_careful(), "{}", spec.name);
        }
    }
}

#[test]
fn audit_bodies_do_not_depend_on_the_policy_hasher() {
    // `Policy` keeps its secrets in a hash set whose hasher is seeded
    // per instance; the rendered audit must not inherit that order. Each
    // spec is audited under the two secrets its intruder reveals (the
    // unrevealed ones only cost full searches).
    for (name, revealed) in [
        ("wmf-key-in-clear", ["kAB", "m"]),
        ("otway-rees-key-in-clear", ["kab", "m"]),
        ("andrew-key-in-clear", ["kabp", "m"]),
        ("denning-sacco-public-ticket", ["kab", "m"]),
        ("kerberos-debug-tap", ["kcs", "m"]),
        ("splice-as-ticket-in-clear", ["kcs", "m"]),
    ] {
        let spec = suite().into_iter().find(|s| s.name == name).expect(name);
        let bodies: BTreeSet<String> = (0..8)
            .map(|_| {
                let policy = Policy::with_secrets(revealed);
                audit(&spec.process, &policy, &AuditConfig::default()).to_string()
            })
            .collect();
        assert_eq!(bodies.len(), 1, "{name}: {bodies:#?}");
        let body = bodies.first().unwrap();
        assert_eq!(body.matches("reveals").count(), 2, "{name}: {body}");
    }
}

#[test]
fn printed_protocols_reparse_with_identical_analysis_shape() {
    for spec in suite() {
        let printed = spec.process.to_string();
        let reparsed = nuspi::parse_process(&printed).unwrap_or_else(|e| {
            panic!(
                "{}: printed form does not re-parse: {e}\n{printed}",
                spec.name
            )
        });
        assert_eq!(spec.process.size(), reparsed.size(), "{}", spec.name);
        assert!(reparsed.is_closed(), "{}", spec.name);
        // The re-parsed process (fresh labels, fresh binder ids) gets the
        // same verdict.
        let report = nuspi::confinement(&reparsed, &spec.policy);
        assert_eq!(
            report.is_confined(),
            spec.expect_confined,
            "{}: verdict drifted across print/parse",
            spec.name
        );
    }
}

#[test]
fn least_solutions_verify_against_table2_across_the_suite() {
    for spec in suite() {
        let sol = nuspi::analyze(&spec.process);
        let violations = accept::verify(&sol, &spec.process);
        assert!(violations.is_empty(), "{}: {violations:?}", spec.name);
    }
}

#[test]
fn attacker_closed_solutions_also_verify() {
    for spec in suite() {
        let secret = spec.policy.secrets().collect();
        let att = nuspi_cfa::analyze_with_attacker(&spec.process, &secret);
        let violations = accept::verify(&att.solution, &spec.process);
        assert!(violations.is_empty(), "{}: {violations:?}", spec.name);
    }
}

#[test]
fn attacker_closure_only_grows_the_estimate() {
    // Lemma 1 / Proposition 1 shape: the attacker-closed solution is an
    // upper bound of the plain least solution, production-wise.
    for spec in suite() {
        let plain = nuspi::analyze(&spec.process);
        let secret = spec.policy.secrets().collect();
        let att = nuspi_cfa::analyze_with_attacker(&spec.process, &secret);
        for (id, fv) in plain.flow_vars() {
            if matches!(fv, nuspi::FlowVar::Aux(_)) {
                continue;
            }
            for prod in plain.prods_of_id(id) {
                // Compare at the level of production *heads*: child ids
                // differ between runs, so check by shape.
                let closed = att.solution.prods_of(fv);
                let found = closed.iter().any(|p| {
                    std::mem::discriminant(p) == std::mem::discriminant(prod)
                        || closed.contains(prod)
                });
                assert!(
                    found,
                    "{}: {fv} lost a production under the attacker closure",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn facade_reveals_agrees_with_direct_call() {
    let spec = nuspi::protocols::wmf::wmf_key_in_clear();
    let analyzer = Analyzer::new().policy(spec.policy.clone());
    let via_facade = analyzer.reveals(
        &spec.process,
        spec.public_channels.iter().copied(),
        spec.secret,
    );
    assert!(via_facade.is_some());
}

#[test]
fn example1_estimate_matches_the_paper_shape() {
    // κ of each public WMF channel holds ciphertexts only; every bound
    // variable's ρ is public-kind (the paper's ρ(bv) = Val_P row).
    let spec = nuspi::protocols::wmf::wmf();
    let report = nuspi::confinement(&spec.process, &spec.policy);
    let public = nuspi::security::SecLattice::two_point().bottom();
    for c in &spec.public_channels {
        let id = report
            .solution
            .var_id(nuspi::FlowVar::Kappa(*c))
            .expect("channel analysed");
        let levels = report.levels.facts(id);
        assert!(
            levels.contains(public) && !report.levels.escapes(id),
            "κ({c}) must be ⊆ Val_P"
        );
    }
    // Every ρ component is inhabited — the estimate covers all six bound
    // variables exactly as the paper's Example 1 table does. (ρ(s)/ρ(y)
    // hold the secret session key; Val_P constrains channels, not ρ.)
    let rho_count = report
        .solution
        .flow_vars()
        .filter(|(id, fv)| {
            matches!(fv, nuspi::FlowVar::Rho(_)) && !report.solution.prods_of_id(*id).is_empty()
        })
        .count();
    assert_eq!(rho_count, 6, "x, s, t, y, z, q");
    assert!(report.is_confined());
}
