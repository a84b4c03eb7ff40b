//! Cross-crate integration tests: the paper's five theorems, checked
//! end-to-end through the public APIs.

use nuspi::protocols::{self, suite};
use nuspi::security::{
    carefulness, confinement, message_independent, reveals, standard_battery,
    static_message_independence, IntruderConfig, Knowledge,
};
use nuspi::semantics::ExecConfig;
use nuspi::{Symbol, Value};
use nuspi_bench::genproc::{random_process, GenConfig};
use nuspi_bench::theorems::{check_moore_meet, check_subject_reduction};
use nuspi_cfa::FiniteEstimate;

fn exec() -> ExecConfig {
    ExecConfig {
        max_depth: 9,
        max_states: 500,
        ..ExecConfig::default()
    }
}

// ---- Theorem 1: subject reduction ------------------------------------

#[test]
fn theorem1_holds_on_the_protocol_suite() {
    for spec in suite() {
        let stats = check_subject_reduction(&spec.process, &exec())
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert!(stats.states_checked > 0);
    }
}

#[test]
fn theorem1_holds_on_random_processes() {
    let gcfg = GenConfig {
        components: 5,
        max_prefixes: 3,
        ..GenConfig::default()
    };
    let cfg = ExecConfig {
        max_depth: 5,
        max_states: 150,
        ..ExecConfig::default()
    };
    for seed in 1000..1100 {
        check_subject_reduction(&random_process(seed, &gcfg), &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

// ---- Theorem 2: Moore family ------------------------------------------

#[test]
fn theorem2_meet_preserves_acceptability() {
    // Two hand-built acceptable estimates for a flat relay.
    let p = nuspi::parse_process("c<m>.0 | c(x).d<x>.0").unwrap();
    let sol = nuspi::analyze(&p);
    // Concretise the least solution (flat process → name productions).
    let mut least = FiniteEstimate::new();
    for (id, fv) in sol.flow_vars() {
        for prod in sol.prods_of_id(id) {
            if let nuspi_cfa::Prod::Name(n) = prod {
                let w = Value::name(nuspi::syntax::Name::global(*n));
                match fv {
                    nuspi::FlowVar::Rho(x) => {
                        least.add_rho(x, w);
                    }
                    nuspi::FlowVar::Kappa(c) => {
                        least.add_kappa(c, w);
                    }
                    nuspi::FlowVar::Zeta(l) => {
                        least.add_zeta(l, w);
                    }
                    nuspi::FlowVar::Aux(_) => {}
                }
            }
        }
    }
    assert!(least.accepts(&p), "{:?}", least.verify(&p));
    // Pad it two different ways; both stay acceptable; meet recovers it.
    let mut a = least.clone();
    a.add_kappa(Symbol::intern("d"), Value::name("padA"));
    let mut b = least.clone();
    b.add_kappa(Symbol::intern("d"), Value::name("padB"));
    check_moore_meet(&p, &a, &b).unwrap();
    let met = a.meet(&b);
    assert!(
        least.leq(&met) && met.leq(&least),
        "meet recovers the least"
    );
}

// ---- Theorem 3: confined ⟹ careful ------------------------------------

#[test]
fn theorem3_no_confined_process_is_careless() {
    for spec in suite() {
        let conf = confinement(&spec.process, &spec.policy);
        let care = carefulness(&spec.process, &spec.policy, &exec());
        if conf.is_confined() {
            assert!(
                care.is_careful(),
                "{}: confined but careless: {:?}",
                spec.name,
                care.violations
            );
        }
        assert_eq!(conf.is_confined(), spec.expect_confined, "{}", spec.name);
    }
}

#[test]
fn theorem3_contrapositive_on_random_processes() {
    // No randomly generated process may be confined-yet-careless.
    let gcfg = GenConfig::default();
    let policy = nuspi::Policy::with_secrets(["fresh0", "fresh1", "fresh2", "key0", "key1"]);
    let cfg = ExecConfig {
        max_depth: 5,
        max_states: 150,
        ..ExecConfig::default()
    };
    for seed in 2000..2120 {
        let p = random_process(seed, &gcfg);
        if !policy.free_secret_names(&p).is_empty() {
            continue; // ill-formed w.r.t. the policy; confinement rejects trivially
        }
        let conf = confinement(&p, &policy);
        if conf.is_confined() {
            let care = carefulness(&p, &policy, &cfg);
            assert!(
                care.is_careful(),
                "seed {seed}: confined but careless: {:?}\n{p}",
                care.violations
            );
        }
    }
}

// ---- Theorem 4: confined ⟹ Dolev–Yao secret ---------------------------

#[test]
fn theorem4_no_confined_protocol_reveals_its_secret() {
    let cfg = IntruderConfig {
        max_depth: 10,
        max_states: 4000,
        ..IntruderConfig::default()
    };
    for spec in suite().into_iter().filter(|s| s.expect_confined) {
        let k0 = Knowledge::from_names(spec.public_channels.iter().copied());
        assert!(
            reveals(&spec.process, &k0, spec.secret, &cfg).is_none(),
            "{}: confined protocol revealed {}",
            spec.name,
            spec.secret
        );
    }
}

#[test]
fn theorem4_contrapositive_attacks_exist_on_rejected_variants() {
    // At least the three shallow flaws must be exploitable quickly.
    let cfg = IntruderConfig {
        max_depth: 10,
        max_states: 6000,
        ..IntruderConfig::default()
    };
    for name in ["wmf-key-in-clear", "wmf-payload-in-clear", "ns-nonce-leak"] {
        let spec = suite().into_iter().find(|s| s.name == name).unwrap();
        let k0 = Knowledge::from_names(spec.public_channels.iter().copied());
        assert!(
            reveals(&spec.process, &k0, spec.secret, &cfg).is_some(),
            "{name}: planted flaw not exploited"
        );
    }
}

// ---- Theorem 5: confined + invariant ⟹ message independent ------------

#[test]
fn theorem5_static_pass_implies_no_distinguisher() {
    let m1 = Value::numeral(0);
    let m2 = Value::numeral(3);
    for ex in protocols::open_examples() {
        let report = static_message_independence(&ex.process, ex.var, &ex.policy);
        let battery = standard_battery(&ex.public_channels, &[m1.clone(), m2.clone()]);
        let dynamic = message_independent(
            &ex.process,
            ex.var,
            &m1,
            &m2,
            &battery,
            &ExecConfig::default(),
        );
        if report.implies_independence() {
            assert!(
                dynamic.is_ok(),
                "{}: static pass but distinguished: {}",
                ex.name,
                dynamic.unwrap_err()
            );
        }
        assert_eq!(
            report.implies_independence(),
            ex.expect_independent,
            "{}",
            ex.name
        );
    }
}

#[test]
fn theorem5_separates_dolev_yao_from_noninterference() {
    // The §5 implicit flow: Dolev–Yao secure (the secret is never sent),
    // yet not message independent — the paper's headline separation.
    let ex = protocols::implicit_flow();
    let secret = Value::name(nuspi::security::n_star_name());
    let closed = ex.process.subst(ex.var, &secret);
    let k0 = Knowledge::from_names(["c"]);
    let cfg = IntruderConfig::default();
    assert!(
        reveals(&closed, &k0, nuspi::security::n_star(), &cfg).is_none(),
        "the comparison never *sends* the secret"
    );
    let report = static_message_independence(&ex.process, ex.var, &ex.policy);
    assert!(!report.implies_independence(), "but independence fails");
}

// ---- Cross-validation: two independent carefulness implementations -----

#[test]
fn carefulness_monitor_agrees_with_exhaustive_trace_scan() {
    use nuspi::security::level;
    use nuspi::semantics::all_traces;
    // The state-space monitor and a per-trace scan must agree on every
    // (small) protocol: a violation exists in some reachable state iff it
    // occurs along some trace.
    for spec in suite().into_iter().take(8) {
        let cfg = ExecConfig {
            max_depth: 8,
            max_states: 400,
            ..ExecConfig::default()
        };
        let monitor = carefulness(&spec.process, &spec.policy, &cfg);
        let binary = spec.policy.binary();
        let mut trace_violation = false;
        for t in all_traces(&spec.process, &cfg, 400) {
            for step in &t.steps {
                for out in &step.outputs {
                    if binary.is_public(out.channel.canonical())
                        && !binary.observes(level(&out.value, &binary))
                    {
                        trace_violation = true;
                    }
                }
            }
        }
        // The monitor also sees *offered* (not yet fired) outputs, so it
        // can only find more than the trace scan — never less.
        if trace_violation {
            assert!(
                !monitor.is_careful(),
                "{}: trace scan found a violation the monitor missed",
                spec.name
            );
        }
        if monitor.is_careful() {
            assert!(
                !trace_violation,
                "{}: monitor careful but a trace violates",
                spec.name
            );
        }
    }
}
